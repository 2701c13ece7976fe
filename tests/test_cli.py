"""Exit codes, flag precedence, and artifact emission through the CLI."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from gpadapt import _linalg, cli
from gpadapt.cli import load_config_file, main
from gpadapt.errors import ConditioningError


def _write_series_csv(path, n=30, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=float)
    v = 10.0 + np.sin(t / 4.0) + rng.normal(0.0, 0.3, n)
    path.write_text("".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(t, v)))
    return path


class TestConfigFile:
    def test_parse_and_comments(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# benchmark\nn = 40\nseed=2\nsigma_sq = estimate\n"
                     "prior = poly  # family\n\n")
        cfg = load_config_file(p)
        assert cfg == {"n": 40, "seed": 2, "sigma_sq": "estimate",
                       "prior": "poly"}

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("bogus = 1\n")
        with pytest.raises(ValueError, match="bogus"):
            load_config_file(p)

    def test_missing_equals(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("just a line\n")
        with pytest.raises(ValueError, match="line 1"):
            load_config_file(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config_file(tmp_path / "nope.cfg")


class TestSimulateCommand:
    def test_writes_csv(self, tmp_path, capsys):
        code = main(["simulate", "--n", "25", "--seed", "7",
                     "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "data.csv").read_text().splitlines()
        assert lines[0] == "x,y,truth"
        assert len(lines) == 26
        assert "n=25" in capsys.readouterr().out

    def test_cli_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 40\nseed = 2\nsigma_sq = 0.01\n")
        main(["simulate", "--config", str(cfg), "--n", "60",
              "--out", str(tmp_path / "a")])
        main(["simulate", "--config", str(cfg),
              "--out", str(tmp_path / "b")])
        assert len((tmp_path / "a" / "data.csv").read_text().splitlines()) == 61
        assert len((tmp_path / "b" / "data.csv").read_text().splitlines()) == 41

    def test_validation_exit_code(self, capsys):
        assert main(["simulate", "--n", "0", "--seed", "1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        assert main(["simulate", "--config", str(cfg)]) == 2


class TestSelectCommand:
    def test_small_synthetic_run(self, tmp_path, capsys):
        code = main(["select", "--n", "200", "--seed", "4",
                     "--sigma2", "0.01", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "chosen:" in out and "alpha=" in out
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "band.csv").exists()

    def test_dim_prior(self, capsys):
        code = main(["select", "--n", "150", "--seed", "2", "--prior", "dim",
                     "--sigma2", "0.01"])
        assert code == 0
        assert "dim=" in capsys.readouterr().out

    def test_numerical_failure_exit_code(self, monkeypatch, capsys):
        # every candidate's factorization fails, so no candidate is left
        def fail(mat):
            raise ConditioningError("Cholesky failed")

        monkeypatch.setattr(_linalg, "chol_jitter", fail)
        code = main(["select", "--n", "60", "--seed", "1", "--sigma2", "0.01"])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err


def _write_csv_with_nan(path):
    # times inside the basis domain [0, 2 pi], so only the NaN is wrong
    rows = [f"{i / 10:.1f},{1.0 + i / 100:.2f}" for i in range(60)]
    rows[17] = "1.7,nan"
    path.write_text("t_sec,speed_kmh\n" + "\n".join(rows) + "\n")
    return path


class TestNonFiniteInput:
    """A non-finite response is rejected where the data enter, by index."""

    @pytest.mark.parametrize("command", [
        ["select", "--sigma2", "0.01"],
        ["fit", "--m", "10"],
    ])
    def test_nan_response_exits_two_naming_the_row(self, tmp_path, capsys,
                                                    command):
        bad = _write_csv_with_nan(tmp_path / "bad.csv")
        code = main(command + ["--data", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert "y must be finite: y[17] = nan" in err
        assert "infs or NaNs" not in err
        assert "sigma_sq must be positive" not in err


class TestFitAndRunningCommands:
    def test_fit_synthetic(self, capsys):
        code = main(["fit", "--n", "120", "--seed", "3", "--m", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sigma=" in out and "tau=" in out

    def test_running_pipeline(self, tmp_path, capsys):
        data = _write_series_csv(tmp_path / "run.csv")
        code = main(["running", "--data", str(data), "--m", "20",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "n=30" in out
        assert (tmp_path / "out" / "report.json").exists()

    def test_fit_records_tuner_diagnostics(self, tmp_path, capsys):
        data = _write_series_csv(tmp_path / "series.csv", n=40)
        out = tmp_path / "out"
        code = main(["fit", "--data", str(data), "--m", "15",
                     "--out", str(out)])
        assert code == 0
        row = json.loads((out / "report.json").read_text())["selection"][0]
        diag = row["diagnostics"]
        assert set(diag) == {"iterations", "evaluations", "failures",
                             "converged", "pinned", "dropped_eigenvalues"}
        assert diag["evaluations"] >= 1 and diag["failures"] == 0
        assert isinstance(diag["pinned"], list)
        assert diag["dropped_eigenvalues"] >= 0
        header = (out / "selection.csv").read_text().splitlines()[0]
        assert header == ("lam,log_mass,elbo_lambda,elbo,m,sigma_sq,"
                          "wall_time,error")

    def test_offset_series_leaves_nu_free(self, tmp_path, capsys):
        # the prior has mean zero, so the level 10 is signal variance that
        # the kernel-variance bound has to leave room for
        data = _write_series_csv(tmp_path / "series.csv")
        out = tmp_path / "out"
        assert main(["fit", "--data", str(data), "--out", str(out)]) == 0
        row = json.loads((out / "report.json").read_text())["selection"][0]
        assert "nu" not in row["diagnostics"]["pinned"]

    def test_running_missing_file(self, capsys):
        assert main(["running", "--data", "/no/such/file.csv"]) == 2

    def test_running_requires_data_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["running"])
        assert exc.value.code == 2


_CSV_COLUMNS = {"lam", "log_mass", "elbo_lambda", "elbo", "m", "sigma_sq",
                "wall_time", "error"}


class TestSelectionRowKeys:
    """The keys of report.json's selection rows, pinned per driver."""

    def _rows(self, tmp_path, argv):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 0
        return json.loads((out / "report.json").read_text())["selection"]

    def test_grid_rows_are_the_csv_columns(self, tmp_path, capsys):
        rows = self._rows(tmp_path, ["select", "--n", "150", "--seed", "5",
                                     "--prior", "poly", "--sigma2",
                                     "estimate"])
        assert rows and all(set(row) == _CSV_COLUMNS for row in rows)

    def test_dim_rows_add_diagnostics(self, tmp_path, capsys):
        rows = self._rows(tmp_path, ["select", "--n", "150", "--seed", "5",
                                     "--prior", "dim", "--sigma2", "0.01"])
        assert rows and all(set(row) == _CSV_COLUMNS | {"diagnostics"}
                            for row in rows)

    def test_tuner_row_adds_diagnostics(self, tmp_path, capsys):
        data = _write_series_csv(tmp_path / "series.csv", n=40)
        (row,) = self._rows(tmp_path, ["fit", "--data", str(data),
                                       "--m", "15"])
        assert set(row) == _CSV_COLUMNS | {"diagnostics"}
        assert row["lam"] is None and row["m"] == 15


class TestFlagsEachCommandHonours:
    """A flag a subcommand would ignore is not registered: it exits 2."""

    @pytest.mark.parametrize("command, flags", [
        ("simulate", ["--prior", "exp"]),
        ("simulate", ["--features", "sample"]),
        ("simulate", ["--cm", "7"]),
        ("fit", ["--prior", "dim"]),
        ("fit", ["--features", "sample"]),
        ("fit", ["--cm", "7"]),
        ("running", ["--n", "5"]),
        ("running", ["--seed", "99"]),
        ("running", ["--prior", "dim"]),
        ("running", ["--features", "sample"]),
        ("running", ["--cm", "7"]),
    ])
    def test_dropped_flag_exits_two(self, command, flags, tmp_path, capsys):
        argv = [command, "--out", str(tmp_path)] + flags
        if command != "simulate":  # running exits 2 without --data anyway
            argv += ["--data", str(_write_series_csv(tmp_path / "s.csv"))]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert flags[0] in capsys.readouterr().err

    def test_config_file_keeps_every_field(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("prior = exp\nfeatures = sample\nc_m = 7\n"
                       "n = 25\nseed = 7\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
        assert len((tmp_path / "data.csv").read_text().splitlines()) == 26


def _write_domain_csv(path, n=60):
    # times inside the basis domain [0, 2 pi], so select can fit it too
    rows = [f"{i / 10:.1f},{1.0 + np.sin(i / 10):.6f}" for i in range(n)]
    path.write_text("t_sec,speed_kmh\n" + "\n".join(rows) + "\n")
    return path


class TestSimulationFlagsWithData:
    """--n and --seed shape a simulated draw; next to --data they exit 2."""

    @pytest.mark.parametrize("command", [
        ["select", "--sigma2", "0.01"],
        ["fit", "--m", "10"],
    ])
    @pytest.mark.parametrize("flag, value", [("--n", "5"), ("--seed", "99")])
    def test_flag_with_data_exits_two(self, command, flag, value, tmp_path,
                                      capsys):
        data = _write_domain_csv(tmp_path / "d.csv")
        code = main(command + ["--data", str(data), flag, value,
                               "--out", str(tmp_path / "out")])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["n", "seed"])
    def test_config_key_with_data_exits_two(self, key, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 7\n")
        data = _write_domain_csv(tmp_path / "d.csv")
        code = main(["fit", "--config", str(cfg), "--data", str(data)])
        assert code == 2
        assert f"--{key}" in capsys.readouterr().err


class TestContractionCommand:
    def test_small_study(self, tmp_path, capsys):
        code = main(["contraction", "--prior", "dim", "--beta", "0.8",
                     "--n-list", "60,120,240", "--replicates", "5",
                     "--seed", "1", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "slope=" in out and "target=-0.3077" in out
        payload = json.loads((tmp_path / "contraction.json").read_text())
        assert set(payload) == {"family", "beta_true", "n_list", "errors",
                                "mean_errors", "slope", "slope_se", "target"}
        assert payload["n_list"] == [60, 120, 240]
        assert len(payload["errors"]) == 5

    @pytest.mark.parametrize("flags", [
        ["--sigma2", "estimate"],
        ["--n", "7"],
        ["--features", "sample"],
        ["--cm", "9"],
        ["--config", "run.cfg"],
    ])
    def test_flags_it_cannot_honour_exit_two(self, flags, capsys):
        # the study simulates its own designs at a fixed noise variance
        with pytest.raises(SystemExit) as exc:
            main(["contraction", "--beta", "0.8"] + flags)
        assert exc.value.code == 2
        assert flags[0] in capsys.readouterr().err

    def test_noise_variance_reaches_the_study(self, monkeypatch, capsys):
        seen = {}

        def study(family, beta, n_list, replicates, seed, sigma_sq, workers):
            seen.update(family=family, seed=seed, sigma_sq=sigma_sq)
            return SimpleNamespace(slope=-0.3, target=-0.3, slope_se=0.0,
                                   n_list=n_list,
                                   mean_errors=np.ones(len(n_list)))

        monkeypatch.setattr(cli, "contraction_study", study)
        assert main(["contraction", "--beta", "0.8"]) == 0
        assert seen == {"family": "dim", "seed": 0, "sigma_sq": 0.25}
        assert main(["contraction", "--beta", "0.8", "--sigma2", "0.5",
                     "--seed", "3", "--prior", "poly"]) == 0
        assert seen == {"family": "poly", "seed": 3, "sigma_sq": 0.5}


class TestReportCommand:
    def test_reemit_from_json(self, tmp_path, capsys):
        src = tmp_path / "run"
        assert main(["select", "--n", "150", "--seed", "5",
                     "--sigma2", "0.01", "--out", str(src)]) == 0
        capsys.readouterr()
        dst = tmp_path / "re"
        code = main(["report", "--input", str(src / "report.json"),
                     "--format", "both", "--out", str(dst)])
        assert code == 0
        for name in ("band.csv", "selection.csv", "plot.svg"):
            assert (dst / name).exists()
        assert (dst / "band.csv").read_bytes() == (src / "band.csv").read_bytes()

    def test_bad_usage_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["report"])
        assert exc.value.code == 2

    def test_partial_report_exits_two_naming_the_fields(self, monkeypatch,
                                                        tmp_path, capsys):
        def fail(mat):
            raise ConditioningError("Cholesky failed")

        monkeypatch.setattr(_linalg, "chol_jitter", fail)
        src = tmp_path / "run"
        assert main(["select", "--n", "60", "--seed", "1", "--sigma2",
                     "0.01", "--out", str(src)]) == 3
        capsys.readouterr()
        code = main(["report", "--input", str(src / "partial_report.json"),
                     "--out", str(tmp_path / "re")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: not a run report")
        assert "missing fields chosen," in err
        assert "unexpected fields failed" in err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
