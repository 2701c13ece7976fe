"""Exit codes, flag precedence, and artifact emission through the CLI."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from gpadapt import _linalg, cli
from gpadapt.cli import load_config_file, main
from gpadapt.errors import ConditioningError

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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
        # every candidate's eigendecomposition fails, so no candidate is left
        def fail(mat):
            raise ConditioningError("eigendecomposition failed")

        monkeypatch.setattr(_linalg, "eigh_psd", fail)
        code = main(["select", "--n", "60", "--seed", "1", "--sigma2", "0.01"])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_out_of_memory_exit_code(self, monkeypatch, capsys):
        def exhausted(config):
            raise MemoryError("Unable to allocate 41.5 GiB")

        monkeypatch.setattr(cli, "run_continuous", exhausted)
        code = main(["fit", "--n", "60", "--seed", "1"])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 41.5 GiB\n"


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


class TestNonFiniteNoiseVariance:
    """A noise variance of inf or nan is refused where it enters, by name."""

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("command", [
        ["select", "--n", "50"],
        ["simulate", "--n", "5"],
        ["fit", "--data", None],
    ], ids=["select", "simulate", "fit"])
    def test_exits_two_naming_sigma_sq(self, tmp_path, capsys, command,
                                       value):
        if "--data" in command:
            command = command[:-1] + [str(_write_series_csv(
                tmp_path / "series.csv"))]
        code = main(command + ["--sigma2", value, "--out",
                               str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "sigma_sq must be positive and finite" in err
        assert "y must be finite" not in err


class TestDesignOutsideDomain:
    def test_select_names_the_span(self, tmp_path, capsys):
        # a series timed in seconds lies outside the basis domain
        t = np.linspace(0.0, 600.0, 200)
        path = tmp_path / "seconds.csv"
        path.write_text("t_sec,speed_kmh\n" + "".join(
            f"{a:.17g},{10.0 + np.sin(a / 60.0):.6f}\n" for a in t))
        code = main(["select", "--data", str(path), "--sigma2", "0.01"])
        assert code == 2
        assert ("point outside the domain [0, 2*pi]: x spans [0, 600]"
                in capsys.readouterr().err)


class TestFitAndRunningCommands:
    def test_fit_synthetic(self, capsys):
        code = main(["fit", "--n", "120", "--seed", "3", "--m", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sigma=" in out and "tau=" in out

    def test_fit_records_tuner_diagnostics(self, tmp_path, capsys):
        data = _write_series_csv(tmp_path / "series.csv", n=40)
        out = tmp_path / "out"
        code = main(["fit", "--data", str(data), "--m", "15",
                     "--out", str(out)])
        assert code == 0
        row = json.loads((out / "report.json").read_text())["selection"][0]
        diag = row["diagnostics"]
        assert set(diag) == {"iterations", "evaluations", "failures",
                             "converged", "tau_stop", "pinned",
                             "dropped_eigenvalues", "factor_rank"}
        assert diag["evaluations"] >= 1 and diag["failures"] == 0
        assert diag["tau_stop"] in ("step", "bracket", "maxiter")
        assert diag["converged"] == (diag["tau_stop"] != "maxiter")
        assert isinstance(diag["pinned"], list)
        assert diag["dropped_eigenvalues"] >= 0
        assert 1 <= diag["factor_rank"] <= 40
        header = (out / "selection.csv").read_text().splitlines()[0]
        assert header == ("lam,log_mass,elbo_lambda,elbo,m,sigma_sq,"
                          "wall_time,error")

    def test_readme_names_every_tuner_diagnostic(self, tmp_path, capsys):
        data = _write_series_csv(tmp_path / "series.csv", n=40)
        out = tmp_path / "out"
        assert main(["fit", "--data", str(data), "--m", "15",
                     "--out", str(out)]) == 0
        row = json.loads((out / "report.json").read_text())["selection"][0]
        readme = README.read_text()
        missing = [key for key in row["diagnostics"]
                   if f"`{key}`" not in readme]
        assert not missing, f"README does not name {missing}"

    def test_offset_series_leaves_nu_free(self, tmp_path, capsys):
        # the prior has mean zero, so the level 10 is signal variance that
        # the kernel-variance bound has to leave room for
        data = _write_series_csv(tmp_path / "series.csv")
        out = tmp_path / "out"
        assert main(["fit", "--data", str(data), "--out", str(out)]) == 0
        row = json.loads((out / "report.json").read_text())["selection"][0]
        assert "nu" not in row["diagnostics"]["pinned"]

    def test_missing_data_file_exits_two_with_partial_report(self, tmp_path,
                                                             capsys):
        out = tmp_path / "out"
        code = main(["fit", "--data", str(tmp_path / "absent.csv"),
                     "--out", str(out)])
        assert code == 2
        assert "no such file" in capsys.readouterr().err
        partial = json.loads((out / "partial_report.json").read_text())
        assert partial["experiment"] == "absent"
        assert partial["failed"].startswith("FileNotFoundError")


class TestBlasThreadCount:
    """``fit`` artifacts are byte-stable at one BLAS thread count; across
    counts the tuned length-scale moves by about 1e-7 relative, as the
    search's argmax is defined only to about sqrt(eps)."""

    @staticmethod
    def _fit(tmp_path, threads):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   OPENBLAS_NUM_THREADS=str(threads))
        proc = subprocess.run(
            [sys.executable, "-m", "gpadapt", "fit", "--n", "1000", "--m",
             "150", "--sigma2", "estimate", "--seed", "5", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        return json.loads((out / "report.json").read_text())

    def test_fit_agrees_at_one_and_two_threads(self, tmp_path):
        one, two = self._fit(tmp_path, 1), self._fit(tmp_path, 2)
        assert one["chosen"].keys() == two["chosen"].keys()
        for key, value in one["chosen"].items():
            assert two["chosen"][key] == pytest.approx(value, rel=1e-6,
                                                       abs=0), key
        for key in ("mean", "lo95", "hi95"):
            a, b = np.asarray(one[key]), np.asarray(two[key])
            assert np.max(np.abs(a - b)) <= 1e-8 * np.max(np.abs(a)), key


class TestRunLabel:
    """A run on a data file is named after the file, a simulated one
    ``bench``; a config file's ``experiment`` wins over both."""

    @pytest.mark.parametrize("command", [
        ["select", "--sigma2", "0.01"],
        ["fit", "--sigma2", "0.01", "--m", "10"],
    ], ids=["select", "fit"])
    def test_data_run_is_named_after_the_file(self, command, tmp_path,
                                              capsys):
        data = _write_domain_csv(tmp_path / "series0.csv")
        out = tmp_path / "out"
        assert main(command + ["--data", str(data), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["experiment"] == "series0"
        assert ">series0</text>" in (out / "plot.svg").read_text()

    def test_config_file_names_the_run(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("experiment = speeds\n")
        data = _write_domain_csv(tmp_path / "series0.csv")
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--data", str(data),
                     "--sigma2", "0.01", "--m", "10", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["experiment"] == "speeds"

    def test_simulated_run_is_bench(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["fit", "--n", "60", "--seed", "1", "--m", "10",
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["experiment"] == "bench"

    def test_title_is_escaped_in_the_plot(self, tmp_path, capsys):
        data = _write_domain_csv(tmp_path / "R&D <1>.csv")
        out = tmp_path / "out"
        assert main(["fit", "--data", str(data), "--sigma2", "0.01",
                     "--m", "10", "--out", str(out)]) == 0
        svg = (out / "plot.svg").read_text()
        assert ">R&amp;D &lt;1></text>" in svg


_CSV_COLUMNS = {"lam", "log_mass", "elbo_lambda", "elbo", "m", "sigma_sq",
                "wall_time", "error"}
# grid rows also carry their variational weight and the grid-edge flag
_GRID_COLUMNS = _CSV_COLUMNS | {"weight", "at_grid_edge"}


class TestSelectionRowKeys:
    """The keys of report.json's selection rows, pinned per driver."""

    def _rows(self, tmp_path, argv):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 0
        return json.loads((out / "report.json").read_text())["selection"]

    def test_grid_rows_are_the_csv_columns(self, tmp_path, capsys):
        rows = self._rows(tmp_path, ["select", "--n", "150", "--seed", "5",
                                     "--prior", "poly", "--sigma2", "0.01"])
        assert rows and all(set(row) == _GRID_COLUMNS for row in rows)

    def test_estimated_noise_rows_add_search_diagnostics(self, tmp_path,
                                                         capsys):
        rows = self._rows(tmp_path, ["select", "--n", "150", "--seed", "5",
                                     "--prior", "poly", "--sigma2",
                                     "estimate"])
        assert rows and all(set(row) == _GRID_COLUMNS | {"diagnostics"}
                            for row in rows)
        for row in rows:
            diag = row["diagnostics"]
            assert set(diag) == {"evaluations", "converged", "at_bound"}
            assert diag["converged"] is True and diag["at_bound"] is False
            assert 2 <= diag["evaluations"] <= 500

    def test_dim_rows_add_diagnostics(self, tmp_path, capsys):
        rows = self._rows(tmp_path, ["select", "--n", "150", "--seed", "5",
                                     "--prior", "dim", "--sigma2", "0.01"])
        assert rows and all(set(row) == _GRID_COLUMNS | {"diagnostics"}
                            for row in rows)

    def test_tuner_row_adds_diagnostics(self, tmp_path, capsys):
        data = _write_series_csv(tmp_path / "series.csv", n=40)
        (row,) = self._rows(tmp_path, ["fit", "--data", str(data),
                                       "--m", "15"])
        assert set(row) == _CSV_COLUMNS | {"diagnostics"}
        assert row["lam"] is None and row["m"] == 15


class TestSelectionWeights:
    """Each grid row's variational weight w_lam, proportional to exp(elbo),
    and whether the value sits at an end of the grid."""

    def test_benchmark_argv_chooses_the_lower_edge(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["select", "--n", "10000", "--seed", "5", "--prior",
                     "poly", "--features", "population", "--sigma2",
                     "estimate", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        rows, chosen = report["selection"], report["chosen"]
        weights = np.array([row["weight"] for row in rows])
        assert abs(weights.sum() - 1.0) <= 1e-12
        best = rows[int(np.argmax(weights))]
        assert best["lam"] == chosen["alpha"] == 1.0
        assert best["at_grid_edge"] is True
        assert [row["at_grid_edge"] for row in rows] == (
            [True] + [False] * (len(rows) - 2) + [True])
        # the CLI prints every item of chosen; the weights stay out of it
        assert set(chosen) == {"alpha", "sigma_sq", "m"}
        assert "weight" not in capsys.readouterr().out
        header = (out / "selection.csv").read_text().splitlines()[0]
        assert header == ("lam,log_mass,elbo_lambda,elbo,m,sigma_sq,"
                          "wall_time,error")


class TestFlagsEachCommandHonours:
    """A flag a subcommand would ignore is not registered: it exits 2."""

    @pytest.mark.parametrize("command, flags", [
        ("simulate", ["--prior", "exp"]),
        ("simulate", ["--features", "sample"]),
        ("simulate", ["--cm", "7"]),
        ("fit", ["--prior", "dim"]),
        ("fit", ["--features", "sample"]),
        ("fit", ["--cm", "7"]),
    ])
    def test_dropped_flag_exits_two(self, command, flags, tmp_path, capsys):
        argv = [command, "--out", str(tmp_path)] + flags
        if command == "fit":  # the real-data route refuses them too
            argv += ["--data", str(_write_series_csv(tmp_path / "s.csv"))]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert flags[0] in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--cm", "5", "--prior", "exp"],
        ["--cm", "5", "--prior", "dim", "--sigma2", "0.1"],
        ["--features", "sample", "--prior", "dim", "--sigma2", "0.1"],
    ])
    def test_select_flag_its_prior_ignores_exits_two(self, flags, tmp_path,
                                                      capsys):
        # --cm scales only the poly grid, --features picks the flavor of
        # the poly and exp grids
        out = tmp_path / "out"
        code = main(["select", "--n", "50", "--out", str(out)] + flags)
        assert code == 2
        assert flags[0] in capsys.readouterr().err
        assert not out.exists()

    def test_select_prior_from_config_refuses_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("prior = exp\n")
        assert main(["select", "--config", str(cfg), "--cm", "5"]) == 2
        assert "--cm" in capsys.readouterr().err

    def test_select_config_fields_any_prior_reads(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("prior = dim\nc_m = 5\nfeatures = sample\n"
                       "sigma_sq = 0.1\nn = 50\n")
        assert main(["select", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0

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
                                "mean_errors", "slope", "slope_se", "target",
                                "chosen", "at_grid_edge"}
        assert payload["n_list"] == [60, 120, 240]
        assert len(payload["errors"]) == 5
        # dim levels run 1..floor(sqrt(n)); the chosen level is one of them
        for row in payload["chosen"]:
            assert all(1 <= D <= int(n**0.5) and D == int(D)
                       for D, n in zip(row, payload["n_list"]))
        assert all(type(e) is bool for row in payload["at_grid_edge"]
                   for e in row)

    @pytest.mark.parametrize("flags", [
        ["--sigma2", "estimate"],
        ["--n", "7"],
        ["--features", "sample"],
        ["--cm", "9"],
        ["--config", "run.cfg"],
        ["--workers", "2"],
    ])
    def test_flags_it_cannot_honour_exit_two(self, flags, capsys):
        # the study simulates its own designs at a fixed noise variance
        with pytest.raises(SystemExit) as exc:
            main(["contraction", "--beta", "0.8"] + flags)
        assert exc.value.code == 2
        assert flags[0] in capsys.readouterr().err

    @staticmethod
    def _stub_study(monkeypatch) -> dict:
        """Stand in for the study; the returned dict records its inputs."""
        seen = {}

        def study(family, beta, n_list, replicates, seed, sigma_sq):
            seen.update(family=family, seed=seed, sigma_sq=sigma_sq,
                        n_list=n_list)
            return SimpleNamespace(slope=-0.3, target=-0.3, slope_se=0.0,
                                   n_list=n_list,
                                   mean_errors=np.ones(len(n_list)))

        monkeypatch.setattr(cli, "contraction_study", study)
        return seen

    def test_noise_variance_reaches_the_study(self, monkeypatch, capsys):
        seen = self._stub_study(monkeypatch)
        assert main(["contraction", "--beta", "0.8"]) == 0
        assert seen == {"family": "dim", "seed": 0, "sigma_sq": 0.25,
                        "n_list": (500, 2000, 8000)}
        assert main(["contraction", "--beta", "0.8", "--sigma2", "0.5",
                     "--seed", "3", "--prior", "poly"]) == 0
        assert seen == {"family": "poly", "seed": 3, "sigma_sq": 0.5,
                        "n_list": (500, 2000, 8000)}

    def test_sizes_may_use_float_syntax(self, monkeypatch, capsys):
        seen = self._stub_study(monkeypatch)
        assert main(["contraction", "--beta", "0.8",
                     "--n-list", "1e2,2e2,4e2"]) == 0
        assert seen["n_list"] == (100, 200, 400)
        assert all(type(n) is int for n in seen["n_list"])

    @pytest.mark.parametrize("sizes", ["100,,400", "100,150.5,400",
                                       "100,x,400", "100,inf,400"])
    def test_size_that_is_not_a_whole_number_exits_two(self, sizes, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["contraction", "--beta", "0.8", "--n-list", sizes])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--n-list" in err and repr(sizes.split(",")[1]) in err

    @pytest.mark.parametrize("value", ["-0.5", "0", "nan", "inf"])
    def test_bad_noise_variance_exits_two(self, value, capsys):
        code = main(["contraction", "--prior", "dim", "--beta", "1",
                     "--sigma2", value, "--n-list", "100,200,400",
                     "--replicates", "5"])
        assert code == 2
        assert "sigma_sq" in capsys.readouterr().err


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
            raise ConditioningError("eigendecomposition failed")

        monkeypatch.setattr(_linalg, "eigh_psd", fail)
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


def test_readme_command_block_names_every_subcommand():
    block = README.read_text().split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    named = {line.split()[1] for line in block.splitlines()
             if line.startswith("gpadapt ")}
    (sub,) = [action for action in cli.build_parser()._actions
              if isinstance(action, argparse._SubParsersAction)]
    assert named == set(sub.choices)
