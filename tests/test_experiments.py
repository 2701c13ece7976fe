"""Drivers, loaders, reports, and the cross-cutting statistical invariants."""

import json
import math

import numpy as np
import pytest

import gpadapt.experiments as experiments_module
from gpadapt.basis import DOMAIN_HI, DOMAIN_LO, synth_signal
from gpadapt.errors import ConditioningError
from gpadapt.experiments import (
    DEFAULT_NOISE_SQ,
    QUADRATURE_POINTS,
    ContractionReport,
    ExperimentConfig,
    RunReport,
    contraction_study,
    emit_report,
    load_running_csv,
    run_continuous,
    run_experiment,
    _coefficient_error,
    _draw,
    _grid_rows,
    _profile_noise,
    _quadrature_error,
    _select,
    _smooth_signal,
    simulate_poly,
)
from gpadapt.inducing import _EigenFactor, feature_stats, predict
from gpadapt.meanfield import mf_fit_levels
from gpadapt.select import HyperGrid, poly_grid


class TestSimulatePoly:
    def test_support_and_shapes(self):
        data, spec = simulate_poly(500, seed=3)
        assert data.n == 500
        assert np.all((0.0 <= data.x) & (data.x <= 2 * np.pi))
        assert data.sigma_sq == DEFAULT_NOISE_SQ

    def test_residual_variance_matches_noise(self):
        data, spec = simulate_poly(10_000, seed=11)
        resid = data.y - synth_signal(spec, data.x)
        assert 0.0085 <= float(np.var(resid)) <= 0.0115

    def test_residual_mean_clt_bound(self):
        n = 10_000
        data, spec = simulate_poly(n, seed=12)
        resid = data.y - synth_signal(spec, data.x)
        assert abs(float(np.mean(resid))) <= 3.0 * 0.1 / math.sqrt(n)

    def test_deterministic_given_seed(self):
        a, _ = simulate_poly(64, seed=9)
        b, _ = simulate_poly(64, seed=9)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_poly(0, seed=0)
        with pytest.raises(ValueError):
            simulate_poly(10, seed=0, sigma_sq=0.0)
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="sigma_sq must be positive"
                                                 " and finite"):
                simulate_poly(10, seed=0, sigma_sq=bad)


class TestLoadRunningCsv:
    def _write(self, tmp_path, text):
        p = tmp_path / "run.csv"
        p.write_text(text)
        return p

    def test_basic(self, tmp_path):
        p = self._write(tmp_path, "0,1.5\n1,2.5\n2,3.0\n")
        data = load_running_csv(p)
        assert data.n == 3
        np.testing.assert_allclose(data.x, [0.0, 1.0, 2.0])
        np.testing.assert_allclose(data.y, [1.5, 2.5, 3.0])

    def test_header_tolerated(self, tmp_path):
        p = self._write(tmp_path, "t_sec,speed_kmh\n0,1.5\n1,2.5\n")
        assert load_running_csv(p).n == 2

    def test_extra_columns_ignored(self, tmp_path):
        p = self._write(tmp_path, "0,1.5,99,foo\n1,2.5,98,bar\n")
        data = load_running_csv(p)
        assert data.n == 2
        np.testing.assert_allclose(data.y, [1.5, 2.5])

    def test_malformed_row_names_line(self, tmp_path):
        p = self._write(tmp_path, "1,abc\n")
        with pytest.raises(ValueError, match="line 1"):
            load_running_csv(p)

    def test_malformed_later_row(self, tmp_path):
        p = self._write(tmp_path, "t,v\n0,1.0\nbroken,2.0\n")
        with pytest.raises(ValueError, match="line 3"):
            load_running_csv(p)

    def test_single_column_rejected(self, tmp_path):
        p = self._write(tmp_path, "0,1.0\n42\n")
        with pytest.raises(ValueError, match="line 2"):
            load_running_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_running_csv(tmp_path / "absent.csv")

    def test_empty_file_gives_empty_dataset(self, tmp_path):
        p = self._write(tmp_path, "")
        data = load_running_csv(p)
        assert data.n == 0

    def test_blank_lines_skipped(self, tmp_path):
        p = self._write(tmp_path, "0,1.0\n\n1,2.0\n\n")
        assert load_running_csv(p).n == 2


class TestExperimentConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.estimate_noise

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n=0)
        with pytest.raises(ValueError):
            ExperimentConfig(prior="spline")
        with pytest.raises(ValueError):
            ExperimentConfig(features="neither")
        with pytest.raises(ValueError):
            ExperimentConfig(beta_minus=2.0, beta_plus=1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(c_m=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(m=0)
        with pytest.raises(ValueError):
            ExperimentConfig(sigma_sq="guess")
        with pytest.raises(ValueError):
            ExperimentConfig(sigma_sq=-0.5)
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="sigma_sq must be positive"
                                                 " and finite"):
                ExperimentConfig(sigma_sq=bad)
        with pytest.raises(ValueError):
            ExperimentConfig(query_points=0)

    def test_dim_requires_fixed_noise(self):
        with pytest.raises(ValueError):
            ExperimentConfig(prior="dim", sigma_sq="estimate")
        cfg = ExperimentConfig(prior="dim", sigma_sq=0.25)
        assert not cfg.estimate_noise


class TestRunReport:
    def _report(self, k=5, truth=True):
        q = np.linspace(0.0, 1.0, k)
        mean = np.sin(q)
        return RunReport(
            experiment="unit", chosen={"alpha": 1.0, "sigma_sq": 0.01},
            query=q, mean=mean, lo95=mean - 0.1, hi95=mean + 0.1,
            truth=mean * 0.99 if truth else None,
            l2_error=0.05 if truth else None,
            coverage=0.9 if truth else None,
            wall_time=1.25,
            selection=[{"lam": 1.0, "log_mass": -0.5, "elbo_lambda": -3.0,
                        "elbo": -3.5, "m": 4, "sigma_sq": None,
                        "wall_time": 0.01, "error": None}],
        )

    def test_json_round_trip_is_exact(self):
        rep = self._report()
        back = RunReport.from_json(rep.to_json())
        np.testing.assert_array_equal(back.query, rep.query)
        np.testing.assert_array_equal(back.mean, rep.mean)
        np.testing.assert_array_equal(back.truth, rep.truth)
        assert back.chosen == rep.chosen
        assert back.l2_error == rep.l2_error
        assert back.selection == rep.selection

    def test_round_trip_without_truth(self):
        back = RunReport.from_json(self._report(truth=False).to_json())
        assert back.truth is None and back.coverage is None

    def test_rejects_ragged_bands(self):
        q = np.linspace(0, 1, 4)
        with pytest.raises(ValueError):
            RunReport("u", {}, q, np.zeros(4), np.zeros(3), np.zeros(4),
                      None, None, None, 0.0)

    def test_rejects_bad_coverage(self):
        q = np.linspace(0, 1, 4)
        z = np.zeros(4)
        with pytest.raises(ValueError):
            RunReport("u", {}, q, z, z, z, z, 0.1, 1.7, 0.0)


def _strip_timing(report: RunReport) -> dict:
    raw = json.loads(report.to_json())
    raw.pop("wall_time")
    for row in raw["selection"]:
        row.pop("wall_time")
    return raw


class TestRunExperiment:
    def test_poly_fixed_noise_report_shape(self):
        cfg = ExperimentConfig(experiment="unit", n=400, seed=5,
                               sigma_sq=0.01, query_points=128)
        rep = run_experiment(cfg)
        assert rep.query.size == 128
        assert np.all(rep.lo95 <= rep.mean) and np.all(rep.mean <= rep.hi95)
        assert set(rep.chosen) == {"alpha", "sigma_sq", "m"}
        assert rep.chosen["sigma_sq"] == 0.01
        assert 0.0 <= rep.coverage <= 1.0
        assert rep.l2_error > 0
        # 1.0 + k/log(400) stays below 2.05 for k = 0..6
        assert len(rep.selection) == 7
        assert all(r["error"] is None for r in rep.selection)

    @pytest.mark.parametrize("features", ["population", "sample"])
    def test_feature_rule_runs_once_per_grid_value(self, monkeypatch,
                                                   features):
        # the grid keeps every value's feature count; fitters read it
        calls, grids = [], []

        def counting_grid(*args, **kwargs):
            grid = poly_grid(*args, **kwargs)

            def m_rule(lam):
                calls.append(lam)
                return grid.m_rule(lam)

            grids.append(HyperGrid(grid.values, grid.masses, m_rule))
            return grids[-1]

        monkeypatch.setattr(experiments_module, "poly_grid", counting_grid)
        cfg = ExperimentConfig(experiment="unit", n=200, seed=5,
                               features=features, query_points=16)
        rep = run_experiment(cfg)
        assert len(grids) == 1
        assert len(calls) == len(grids[0]) == len(rep.selection)

    def test_poly_estimated_noise_lands_near_truth(self):
        cfg = ExperimentConfig(experiment="unit", n=2000, seed=1,
                               query_points=64)
        rep = run_experiment(cfg)
        assert 0.005 <= rep.chosen["sigma_sq"] <= 0.05
        chosen_row = [r for r in rep.selection
                      if r["lam"] == rep.chosen["alpha"]][0]
        assert chosen_row["sigma_sq"] == rep.chosen["sigma_sq"]

    def test_dim_prior_pipeline(self):
        cfg = ExperimentConfig(experiment="unit", n=300, seed=2, prior="dim",
                               sigma_sq=0.01, query_points=32)
        rep = run_experiment(cfg)
        assert isinstance(rep.chosen["dim"], int)
        assert 1 <= rep.chosen["dim"] <= int(math.isqrt(300))
        assert rep.coverage is not None

    def test_dim_rows_record_sweep_diagnostics(self, tmp_path):
        cfg = ExperimentConfig(experiment="unit", n=300, seed=2, prior="dim",
                               sigma_sq=0.01, query_points=16,
                               out_dir=str(tmp_path))
        run_experiment(cfg)
        rows = json.loads((tmp_path / "report.json").read_text())["selection"]
        assert len(rows) == math.isqrt(300)
        for row in rows:
            assert set(row["diagnostics"]) == {"sweeps", "converged"}
            assert row["diagnostics"]["converged"] is True
            assert row["diagnostics"]["sweeps"] >= 1
        header = (tmp_path / "selection.csv").read_text().splitlines()[0]
        assert header == ("lam,log_mass,elbo_lambda,elbo,m,sigma_sq,"
                          "wall_time,error")

    def test_population_rows_carry_no_diagnostics(self, tmp_path):
        cfg = ExperimentConfig(experiment="unit", n=300, seed=2,
                               sigma_sq=0.01, query_points=16,
                               out_dir=str(tmp_path))
        run_experiment(cfg)
        rows = json.loads((tmp_path / "report.json").read_text())["selection"]
        assert all("diagnostics" not in row for row in rows)

    def test_noise_search_diagnostics(self):
        # a profile rising towards ever smaller noise ends on the lower bound
        _, _, diag = _profile_noise(lambda s2: -s2)
        assert diag["at_bound"] is True and diag["converged"] is True
        s2, _, diag = _profile_noise(lambda s2: -math.log(s2 / 0.3) ** 2)
        assert s2 == pytest.approx(0.3, rel=1e-6)
        assert diag["at_bound"] is False and diag["converged"] is True
        assert 2 <= diag["evaluations"] <= 500

    def test_dim_sweep_cap_warns_once(self, monkeypatch, tmp_path):
        import gpadapt.meanfield as mf

        monkeypatch.setattr(mf, "MAX_SWEEPS", 1)
        cfg = ExperimentConfig(experiment="unit", n=300, seed=2, prior="dim",
                               sigma_sq=0.01, query_points=16,
                               out_dir=str(tmp_path))
        with pytest.warns(RuntimeWarning) as caught:
            run_experiment(cfg)
        capped = [w for w in caught if "sweep cap" in str(w.message)]
        assert len(capped) == 1
        rows = json.loads((tmp_path / "report.json").read_text())["selection"]
        named = str(capped[0].message).split("D = ")[1].split(", ")
        assert named == [str(int(row["lam"])) for row in rows
                         if not row["diagnostics"]["converged"]]
        assert all(row["diagnostics"]["sweeps"] == 1 for row in rows)

    def test_exp_prior_pipeline(self):
        cfg = ExperimentConfig(experiment="unit", n=400, seed=3, prior="exp",
                               sigma_sq=0.01, query_points=32)
        rep = run_experiment(cfg)
        assert 0.0 < rep.chosen["tau"] <= math.exp(-1.0) + 1e-12

    def test_sample_features_pipeline(self):
        cfg = ExperimentConfig(experiment="unit", n=200, seed=4,
                               features="sample", sigma_sq=0.01,
                               query_points=32)
        rep = run_experiment(cfg)
        assert set(rep.chosen) == {"alpha", "sigma_sq", "m"}

    @pytest.mark.parametrize("sigma_sq", [0.01, "estimate"])
    def test_sample_rows_record_dropped_eigenvalues(self, tmp_path,
                                                     sigma_sq):
        # 60 rows at 3 distinct times: every kernel matrix has rank 3, so
        # a candidate asking for 4 features drops one
        rng = np.random.default_rng(2)
        path = tmp_path / "repeated.csv"
        x = np.repeat([0.5, 2.5, 4.5], 20)
        path.write_text("".join(
            f"{a},{b:.6f}\n" for a, b in zip(x, rng.normal(size=60))))
        out = tmp_path / "out"
        cfg = ExperimentConfig(experiment="unit", features="sample",
                               sigma_sq=sigma_sq, query_points=16,
                               data_path=str(path), out_dir=str(out))
        with pytest.warns(RuntimeWarning,
                          match="dropping 1 non-positive eigenvalues"
                          ) as caught:
            run_experiment(cfg)
        # each warning names this caller, not a frame inside the package
        assert caught and {w.filename for w in caught} == {__file__}
        rows = json.loads((out / "report.json").read_text())["selection"]
        m_rule = poly_grid(cfg.beta_minus, cfg.beta_plus, 60).m_rule
        dropped = [row["diagnostics"]["dropped_eigenvalues"] for row in rows]
        assert dropped == [max(m_rule(row["lam"]) - 3, 0) for row in rows]
        assert 0 in dropped and 1 in dropped
        assert all(row["m"] == min(m_rule(row["lam"]), 3) for row in rows)
        header = (out / "selection.csv").read_text().splitlines()[0]
        assert header == ("lam,log_mass,elbo_lambda,elbo,m,sigma_sq,"
                          "wall_time,error")

    def test_csv_source_has_no_truth_columns(self, tmp_path):
        data, spec = simulate_poly(150, seed=8, sigma_sq=0.04)
        p = tmp_path / "in.csv"
        rows = "\n".join(f"{x:.17g},{y:.17g}" for x, y in zip(data.x, data.y))
        p.write_text(rows + "\n")
        cfg = ExperimentConfig(experiment="unit", n=1, seed=0,
                               data_path=str(p), sigma_sq=0.04,
                               query_points=16)
        rep = run_experiment(cfg)
        assert rep.truth is None
        assert rep.l2_error is None and rep.coverage is None

    def test_artifacts_written(self, tmp_path):
        cfg = ExperimentConfig(experiment="unit", n=200, seed=6,
                               sigma_sq=0.01, query_points=16,
                               out_dir=str(tmp_path))
        run_experiment(cfg)
        for name in ("report.json", "band.csv", "selection.csv", "plot.svg"):
            assert (tmp_path / name).exists(), name

    def test_partial_report_on_failure(self, tmp_path):
        p = tmp_path / "tiny.csv"
        p.write_text("0.1,0.5\n")  # one row: the grid builder must refuse
        cfg = ExperimentConfig(experiment="unit", n=1, seed=0,
                               data_path=str(p), sigma_sq=0.01,
                               out_dir=str(tmp_path / "out"))
        with pytest.raises(ValueError):
            run_experiment(cfg)
        partial = json.loads((tmp_path / "out" / "partial_report.json")
                             .read_text())
        assert "failed" in partial

    def test_reproducible_bitwise(self):
        cfg = ExperimentConfig(experiment="unit", n=300, seed=7,
                               query_points=64)
        a = _strip_timing(run_experiment(cfg))
        b = _strip_timing(run_experiment(cfg))
        assert a == b


class TestQuadratureError:
    """The error's truth on the midpoint grid comes from one inverse FFT."""

    def test_truth_never_summed_at_the_quadrature_nodes(self, monkeypatch):
        import gpadapt.basis as basis
        import gpadapt.experiments as experiments

        sizes, scored = [], []
        trig_sum, quadrature_error = (basis._trig_sum,
                                      experiments._quadrature_error)

        def spy_sum(z, *args, **kwargs):
            sizes.append(np.size(z))
            return trig_sum(z, *args, **kwargs)

        def spy_error(mean_fn, spec):
            scored.append((mean_fn, spec))
            return quadrature_error(mean_fn, spec)

        monkeypatch.setattr(basis, "_trig_sum", spy_sum)
        monkeypatch.setattr(experiments, "_quadrature_error", spy_error)
        rep = run_experiment(ExperimentConfig(experiment="unit", n=500,
                                              seed=5, out_dir=None))
        monkeypatch.undo()
        assert sizes and QUADRATURE_POINTS not in sizes, sizes
        # the midpoint rule with the truth summed at every node
        ((mean_fn, spec),) = scored
        step = (DOMAIN_HI - DOMAIN_LO) / QUADRATURE_POINTS
        xq = DOMAIN_LO + step * (np.arange(QUADRATURE_POINTS) + 0.5)
        diff = mean_fn(xq) - synth_signal(spec, xq)
        expected = float(np.sqrt(np.mean(diff**2)))
        assert rep.l2_error == pytest.approx(expected, rel=1e-12, abs=0)


class TestCoefficientError:
    """A contraction fit's mean is sum_j mu_j phi_j, so its error reads off
    the coefficients, as the midpoint rule reads it off the mean rule."""

    @pytest.mark.parametrize("family", ["poly", "exp"])
    def test_matches_the_quadrature_on_a_population_fit(self, family):
        spec = _smooth_signal(1.0)
        config = ExperimentConfig(experiment="contraction", n=2000,
                                  prior=family, sigma_sq=0.25)
        sel, _ = _select(config, _draw(spec, 2000, 3, 0.25))
        q = sel.posterior
        ref = _quadrature_error(predict(q, np.zeros(1)).mean_fn, spec)
        assert _coefficient_error(q.mu, spec.coeff_array()) == \
            pytest.approx(ref, rel=1e-12, abs=0)

    def test_pads_past_the_last_coefficient(self):
        c = np.array([1.0, 0.5, 0.25])
        mu = np.array([0.5, 0.5, 0.0, 2.0, -1.0])
        # (0.5^2 + 0 + 0.25^2) on the signal's terms, 2^2 + 1^2 past them
        assert _coefficient_error(mu, c) == math.sqrt(0.3125 + 5.0)
        # a shorter mu keeps the signal's tail
        assert _coefficient_error(mu[:2], c) == math.sqrt(0.25 + 0.0625)


class TestSignalTables:
    """Each signal spec builds its grid tables once, on first use, and every
    sum of its series reads them."""

    @staticmethod
    def _spy(monkeypatch):
        """Record K of every table set the package builds for a signal."""
        import gpadapt.basis as basis

        built, grid_tables = [], basis._grid_tables

        def spy(c):
            built.append(c.size)
            return grid_tables(c)

        monkeypatch.setattr(basis, "_grid_tables", spy)
        return built

    def test_one_run_builds_one_set_for_draw_and_truth(self, monkeypatch):
        import gpadapt.basis as basis

        spec = experiments_module._BENCH_SPEC
        monkeypatch.delitem(vars(spec), "grid_tables", raising=False)
        built = self._spy(monkeypatch)
        sums, trig_sum = [], basis._trig_sum

        def spy_sum(z, tables):
            sums.append((z.size, tables))
            return trig_sum(z, tables)

        monkeypatch.setattr(basis, "_trig_sum", spy_sum)
        rep = run_experiment(ExperimentConfig(experiment="unit", n=700,
                                              seed=5, out_dir=None))
        assert built == [spec.j_max // 2 + 1]
        # the data draw and the query truth read the one set
        assert sorted(n for n, t in sums if t is spec.grid_tables) == \
            sorted([700, rep.query.size])

    def test_one_contraction_study_builds_one_set(self, monkeypatch):
        built = self._spy(monkeypatch)
        contraction_study("poly", 1.0, (200, 400, 800), 5, seed=2)
        assert built == [_smooth_signal(1.0).j_max // 2 + 1]


class TestGridRows:
    def test_failed_rows_get_no_weight(self):
        from gpadapt.select import SelectionRecord, SelectionReport

        records = [
            SelectionRecord(lam=1.0, log_mass=0.0, wall_time=0.0,
                            elbo_lambda=5.0, elbo=5.0, m=3),
            SelectionRecord(lam=2.0, log_mass=0.0, wall_time=0.0,
                            error="ConditioningError: failed"),
            SelectionRecord(lam=3.0, log_mass=0.0, wall_time=0.0,
                            elbo_lambda=5.0 + math.log(3.0),
                            elbo=5.0 + math.log(3.0), m=4),
            SelectionRecord(lam=4.0, log_mass=0.0, wall_time=0.0,
                            error="ConditioningError: failed"),
        ]
        sel = SelectionReport(chosen=3.0, posterior=None, records=records)
        rows = _grid_rows(sel, {})
        assert [r["weight"] for r in rows] == pytest.approx(
            [0.25, None, 0.75, None], rel=1e-12)
        assert [r["at_grid_edge"] for r in rows] == [True, False, False, True]
        assert all(isinstance(r["weight"], (float, type(None))) for r in rows)


class TestRunContinuous:
    def test_synthetic_smoke(self):
        cfg = ExperimentConfig(experiment="unit", n=150, seed=3, m=12,
                               query_points=32)
        rep = run_continuous(cfg)
        assert set(rep.chosen) == {"sigma", "nu", "tau", "sigma_sq", "m"}
        assert rep.chosen["m"] == 12
        assert rep.query.size == 32

    def test_one_factor_per_evaluation(self, monkeypatch):
        # the scan's taus are the search's first probes: every factor
        # built is an evaluation, none is built twice
        calls = []
        real = _EigenFactor.from_factor

        def counted(cls, *args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(_EigenFactor, "from_factor", classmethod(counted))
        cfg = ExperimentConfig(experiment="unit", n=150, seed=3, m=12,
                               query_points=16)
        rep = run_continuous(cfg)
        assert len(calls) == rep.selection[0]["diagnostics"]["evaluations"]

    def test_fixed_noise_pins_sigma(self):
        cfg = ExperimentConfig(experiment="unit", n=150, seed=3, m=12,
                               sigma_sq=0.04, query_points=16)
        rep = run_continuous(cfg)
        assert rep.chosen["sigma"] == pytest.approx(0.2)

    def test_rejects_tiny_data(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("0,1.0\n")
        cfg = ExperimentConfig(experiment="unit", data_path=str(p),
                               query_points=8)
        with pytest.raises(ValueError):
            run_continuous(cfg)

    @pytest.mark.parametrize("rows, message", [
        (["0.1,1.0", "0.2,nan", "0.3,1.2"], "y must be finite"),
        (["0.1,1.0"], "at least two points"),
    ])
    def test_partial_report_on_failure(self, tmp_path, rows, message):
        p = tmp_path / "in.csv"
        p.write_text("\n".join(rows) + "\n")
        cfg = ExperimentConfig(experiment="unit", data_path=str(p),
                               out_dir=str(tmp_path / "out"))
        with pytest.raises(ValueError, match=message):
            run_continuous(cfg)
        partial = json.loads((tmp_path / "out" / "partial_report.json")
                             .read_text())
        assert message in partial["failed"]
        assert partial["selection"] == []


class TestContraction:
    def test_validation(self):
        with pytest.raises(ValueError):
            contraction_study("dim", 1.0, (100, 200), 5, seed=0)
        with pytest.raises(ValueError):
            contraction_study("dim", 1.0, (100, 200, 150), 5, seed=0)
        with pytest.raises(ValueError):
            contraction_study("dim", 1.0, (100, 200, 400), 4, seed=0)
        with pytest.raises(ValueError):
            contraction_study("wavelet", 1.0, (100, 200, 400), 5, seed=0)
        with pytest.raises(ValueError):
            contraction_study("dim", -1.0, (100, 200, 400), 5, seed=0)
        for s2 in (0.0, -0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="sigma_sq"):
                contraction_study("dim", 1.0, (100, 200, 400), 5, seed=0,
                                  sigma_sq=s2)

    def test_target_formula(self):
        rep = contraction_study("dim", 0.6, (50, 100, 200), 5, seed=1)
        assert rep.target == pytest.approx(-0.6 / 2.2)
        assert rep.errors.shape == (5, 3)
        assert np.isfinite(rep.slope)
        assert rep.chosen.shape == rep.at_grid_edge.shape == (5, 3)
        # the dim grid is D = 1..floor(sqrt(n)): its edges are 1 and the top
        top = np.floor(np.sqrt([50, 100, 200]))
        np.testing.assert_array_equal(
            rep.at_grid_edge, (rep.chosen == 1) | (rep.chosen == top))

    def test_acceptance_scale_trend(self, contraction_dim):
        report, _ = contraction_dim
        assert report.mean_errors.shape == (3,)
        assert np.all(np.diff(report.mean_errors) < 0)
        assert report.slope < 0
        assert 0 < report.slope_se < 0.1

    def test_doubling_replicates_shrinks_slope_se(self):
        # frozen run: se ratio 0.786853 against the 1/sqrt(2) ideal
        a = contraction_study("dim", 1.0, (200, 400, 800), 6, seed=17)
        b = contraction_study("dim", 1.0, (200, 400, 800), 12, seed=17)
        ratio = b.slope_se / a.slope_se
        assert ratio == pytest.approx(0.786853, abs=1e-3)
        assert 0.5 <= ratio <= 0.95

    def test_batched_study_matches_per_dataset_fits(self):
        # every sample size fits its replicates in one lockstep ascent; each
        # replicate's error and choice match a sweep over its own dataset
        n_list, seed, beta = (200, 800, 3200), 4, 1.0
        rep = contraction_study("dim", beta, n_list, 5, seed=seed)
        spec = _smooth_signal(beta)
        coeffs = spec.coeff_array()
        for r in range(5):
            for i, n in enumerate(n_list):
                data = _draw(spec, n, seed + 1000 * r + i, 0.25)
                sel, _ = _select(ExperimentConfig(
                    experiment="contraction", n=n, prior="dim",
                    sigma_sq=0.25), data)
                q = sel.posterior
                head, tail = q.mu - coeffs[:q.D], coeffs[q.D:]
                error = math.sqrt(head @ head + tail @ tail)
                assert rep.errors[r, i] == pytest.approx(error, rel=1e-9)
                assert rep.chosen[r, i] == sel.chosen

    @staticmethod
    def _counted_study(monkeypatch, seed, prune):
        """The benchmark study at ``seed`` and its coordinate-step count;
        ``prune=False`` hands the ascent bounds that rule nothing out."""
        import gpadapt.meanfield as mf

        steps, sweep = [0], mf._sweep

        def spy(views):
            steps[0] += len(views)
            sweep(views)

        with monkeypatch.context() as m:
            m.setattr(mf, "_sweep", spy)
            if not prune:
                m.setattr(mf, "_evidence_bounds", lambda st, lv, s2: np.full(
                    (len(st), len(lv)), np.inf))
            rep = contraction_study("dim", 1.0, (500, 2000, 8000), 5,
                                    seed=seed)
        return rep, steps[0]

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_pruning_keeps_the_study_and_halves_its_steps(self, monkeypatch,
                                                          seed):
        rep, steps = self._counted_study(monkeypatch, seed, prune=True)
        ref, ref_steps = self._counted_study(monkeypatch, seed, prune=False)
        np.testing.assert_array_equal(rep.chosen, ref.chosen)
        np.testing.assert_array_equal(rep.at_grid_edge, ref.at_grid_edge)
        np.testing.assert_allclose(rep.errors, ref.errors, rtol=1e-8)
        assert rep.slope == pytest.approx(ref.slope, rel=1e-8)
        assert 0 < 2 * steps <= ref_steps, (steps, ref_steps)

    def test_pruned_levels_get_no_record(self, monkeypatch):
        # each replicate's selection records exactly the levels its
        # pruning ascent kept, and chooses among them
        import gpadapt.meanfield as mf

        kept, records = [], []
        ascent, select = mf._mf_fit_replicates, experiments_module.select_discrete

        def ascent_spy(*args, **kwargs):
            for fits in ascent(*args, **kwargs):
                kept.append([lam for lam, q in fits.items() if q is not None])
                yield fits

        def select_spy(grid, fitter):
            sel = select(grid, fitter)
            records.append([int(rec.lam) for rec in sel.records])
            return sel

        monkeypatch.setattr(experiments_module, "_mf_fit_replicates",
                            ascent_spy)
        monkeypatch.setattr(experiments_module, "select_discrete", select_spy)
        contraction_study("dim", 1.0, (500, 2000, 8000), 5, seed=5)
        assert records == kept
        assert sum(map(len, records)) < sum(
            math.isqrt(n) for n in (500, 2000, 8000)) * 5

    def test_select_dim_fits_every_level_unpruned(self, monkeypatch):
        import gpadapt.meanfield as mf

        calls = []
        monkeypatch.setattr(mf, "_evidence_bounds",
                            lambda *args: calls.append(args))
        data = _draw(_smooth_signal(1.0), 2000, 3, 0.25)
        config = ExperimentConfig(experiment="contraction", n=2000,
                                  prior="dim", sigma_sq=0.25)
        sel, extras = _select(config, data)
        assert calls == []
        stats = feature_stats(data.x, data.y, 44, 44)
        fits = mf_fit_levels(stats, list(range(1, 45)), 0.25)
        assert [r.lam for r in sel.records] == list(range(1, 45))
        for rec in sel.records:
            q = fits[int(rec.lam)]
            assert rec.elbo_lambda == q.elbo_path[-1]
            assert extras[rec.lam]["diagnostics"] == {
                "sweeps": len(q.elbo_path) - 1, "converged": True}


class TestEmitReport:
    def _report(self, k=7, truth=True):
        q = np.linspace(0.0, 2.0, k) if k else np.empty(0)
        mean = np.cos(q)
        return RunReport(
            experiment="emit", chosen={"alpha": 1.0},
            query=q, mean=mean, lo95=mean - 0.2, hi95=mean + 0.2,
            truth=np.sin(q) if truth and k else None,
            l2_error=None, coverage=None, wall_time=0.5,
            selection=[{"lam": 1.0, "log_mass": 0.0, "elbo_lambda": -1.0,
                        "elbo": -1.0, "m": 3, "sigma_sq": 0.01,
                        "wall_time": 0.02, "error": None}],
        )

    def test_csv_files_and_schema(self, tmp_path):
        paths = emit_report(self._report(), "csv", tmp_path)
        band = (tmp_path / "band.csv").read_text().splitlines()
        assert band[0] == "x,mean,lo95,hi95,truth"
        assert len(band) == 8
        assert [p.name for p in paths] == ["band.csv", "selection.csv"]

    def test_csv_round_trips_floats(self, tmp_path):
        rep = self._report()
        emit_report(rep, "csv", tmp_path)
        rows = (tmp_path / "band.csv").read_text().splitlines()[1:]
        means = np.array([float(r.split(",")[1]) for r in rows])
        np.testing.assert_array_equal(means, rep.mean)

    def test_truth_column_blank_for_real_data(self, tmp_path):
        emit_report(self._report(truth=False), "csv", tmp_path)
        first = (tmp_path / "band.csv").read_text().splitlines()[1]
        assert first.endswith(",")

    def test_empty_grid_header_only(self, tmp_path):
        rep = RunReport("emit", {}, np.empty(0), np.empty(0), np.empty(0),
                        np.empty(0), None, None, None, 0.0)
        emit_report(rep, "csv", tmp_path)
        assert (tmp_path / "band.csv").read_text() == "x,mean,lo95,hi95,truth\n"

    def test_byte_deterministic(self, tmp_path):
        rep = self._report()
        emit_report(rep, "csv", tmp_path / "a")
        emit_report(rep, "csv", tmp_path / "b")
        emit_report(rep, "svg", tmp_path / "a")
        emit_report(rep, "svg", tmp_path / "b")
        for name in ("band.csv", "selection.csv", "plot.svg"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_svg_has_band_and_truth(self, tmp_path):
        (path,) = emit_report(self._report(), "svg", tmp_path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert "<polygon" in text and "<polyline" in text
        assert "stroke-dasharray" in text  # truth overlay

    def test_bad_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(self._report(), "pdf", tmp_path)


def _band_reference(report):
    """band.csv as the per-cell writer rendered it."""
    g17 = lambda v: format(float(v), ".17g")  # noqa: E731
    lines = ["x,mean,lo95,hi95,truth\n"]
    for i in range(report.query.size):
        truth = "" if report.truth is None else g17(report.truth[i])
        lines.append(",".join([g17(report.query[i]), g17(report.mean[i]),
                               g17(report.lo95[i]), g17(report.hi95[i]),
                               truth]) + "\n")
    return "".join(lines)


def _json_reference(report):
    """report.json through ``json`` alone."""
    def default(obj):
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, (np.floating, np.integer)):
            return obj.item()
        raise TypeError(type(obj))

    return json.dumps({f: getattr(report, f) for f in (
        "experiment", "chosen", "query", "mean", "lo95", "hi95", "truth",
        "l2_error", "coverage", "wall_time", "selection")},
        default=default, indent=2, sort_keys=True)


class TestWritersKeepTheirBytes:
    """The vectorized writers give the bytes of the per-value ones."""

    def _reports(self):
        rng = np.random.default_rng(9)
        base = TestEmitReport()._report(k=64)
        nan = TestEmitReport()._report(k=5)
        nan.mean[2] = np.nan
        nan.hi95[0] = -np.inf
        nan.truth[4] = np.inf
        odd = TestEmitReport()._report(k=9)
        odd.mean[:] = rng.standard_normal(9) * np.logspace(-300, 300, 9)
        odd.lo95[3] = -0.0
        return [base, TestEmitReport()._report(k=6, truth=False),
                TestEmitReport()._report(k=0), nan, odd]

    def test_band_csv(self, tmp_path):
        for i, rep in enumerate(self._reports()):
            emit_report(rep, "csv", tmp_path / str(i))
            assert ((tmp_path / str(i) / "band.csv").read_text()
                    == _band_reference(rep))

    def test_svg_points(self):
        from gpadapt.experiments import _points

        for rep in self._reports():
            px, py = rep.query * 123.456 - 7.0, rep.mean * 1e3
            assert _points(px, py) == " ".join(
                f"{a:.2f},{b:.2f}" for a, b in zip(px, py))

    def test_report_json(self):
        for rep in self._reports():
            assert rep.to_json() == _json_reference(rep)
            back = RunReport.from_json(rep.to_json())
            np.testing.assert_array_equal(back.mean, rep.mean)

    def test_report_json_repeated_placeholder_takes_the_json_path(self):
        rep = TestEmitReport()._report(k=3)
        rep.chosen = {"note": "\0mean"}
        assert rep.to_json() == _json_reference(rep)


class TestStatisticalInvariants:
    """Cross-module checks on the benchmark-scale fixtures."""

    def test_benchmark_windows(self, bench_reports):
        reports, _ = bench_reports
        alphas = [r.chosen["alpha"] for r in reports]
        noises = [r.chosen["sigma_sq"] for r in reports]
        hits = sum(0.8 <= a <= 1.3 and 0.008 <= s <= 0.022
                   for a, s in zip(alphas, noises))
        assert hits >= 8

    def test_coverage_median(self, bench_reports):
        reports, _ = bench_reports
        covs = [r.coverage for r in reports]
        assert float(np.median(covs)) >= 0.70

    def test_dense_feature_variant(self, bench_reports):
        # doubling c_m doubles the feature count and tightens the bands
        reports, _ = bench_reports
        base = reports[0]
        dense = run_experiment(ExperimentConfig(
            experiment="bench-dense", n=10_000, seed=0, c_m=2.0))
        assert abs(dense.chosen["m"] - 42) <= 2
        width_base = base.hi95 - base.lo95
        width_dense = dense.hi95 - dense.lo95
        frac = float(np.mean(width_dense <= width_base))
        assert frac >= 0.60

    def test_bound_vs_evidence_tuning_agree(self, vb_eb_runs):
        rows, _ = vb_eb_runs
        triple_rel = np.array([np.abs(r["vb"] - r["eb"]) / r["eb"]
                               for r in rows])
        assert np.all(np.median(triple_rel, axis=0) <= 0.15)
        pred_rel = [np.linalg.norm(r["vb_mean"] - r["eb_mean"])
                    / np.linalg.norm(r["eb_mean"]) for r in rows]
        assert float(np.median(pred_rel)) <= 0.02
