"""Experiment drivers: synthetic benchmarks, data ingestion, artifacts.

The inference modules do the numerical work; this one wires them to
configs, seeds, and CSV/SVG/JSON outputs so that every figure-style run
is a single reproducible call.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np
from numpy.random import default_rng

from ._linalg import brent_bounded
from .basis import (
    DOMAIN_HI,
    DOMAIN_LO,
    ExpDecay,
    PolyDecay,
    SeriesPrior,
    SignalSpec,
    _midpoint_signal,
    bench_signal,
    synth_signal,
)
from .exact import Dataset, SeriesKernel, _series_factor, lse_weights
from .inducing import (
    _EigenFactor,
    _warn_dropped,
    feature_cutoff,
    feature_stats,
    population_candidate,
    predict,
)
from .meanfield import _mf_fit_replicates, mf_fit_levels, mf_predict
from .select import (
    SelectionRecord,
    SelectionReport,
    dim_grid,
    exp_grid,
    poly_grid,
    select_discrete,
    tune_continuous,
)

__all__ = [
    "ExperimentConfig",
    "RunReport",
    "ContractionReport",
    "simulate_poly",
    "load_running_csv",
    "run_experiment",
    "run_continuous",
    "contraction_study",
    "emit_report",
]

_BENCH_SPEC = bench_signal()
_PRIORS = ("poly", "exp", "dim")
_FEATURES = ("population", "sample")
#: noise variance of the synthetic benchmark when the fit estimates its own
DEFAULT_NOISE_SQ = 0.01
#: series length used when a decaying signal has to be truncated
SIGNAL_J_MAX = 2000
QUADRATURE_POINTS = 10_000
_PROFILE_LOG_BOUNDS = (math.log(1e-8), math.log(1e2))


@dataclass(frozen=True)
class ExperimentConfig:
    """One reproducible run: data source, prior grid, and output knobs.

    ``sigma_sq`` is either a positive number (noise fixed at that value,
    and used to generate synthetic data) or the string ``"estimate"``
    (synthetic data generated at ``DEFAULT_NOISE_SQ``; the fit profiles
    the noise out of its objective). Estimation is not wired through the
    closed-form dimension pipeline, so ``prior="dim"`` requires a fixed
    value.

    The default smoothness window starts at 1.0: for bounded
    trigonometric features the adaptive guarantees kick in once the
    prior regularity exceeds the covariate dimension, so the benchmark
    keeps its grid inside that regime.
    """

    experiment: str = "bench"
    n: int = 10_000
    seed: int = 0
    prior: str = "poly"
    features: str = "population"
    beta_minus: float = 1.0
    beta_plus: float = 2.05
    c_m: float = 1.0
    m: int | None = None
    sigma_sq: float | str = "estimate"
    query_points: int = 512
    data_path: str | None = None
    out_dir: str | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.prior not in _PRIORS:
            raise ValueError(f"prior must be one of {_PRIORS}")
        if self.features not in _FEATURES:
            raise ValueError(f"features must be one of {_FEATURES}")
        if not 0 < self.beta_minus < self.beta_plus:
            raise ValueError("need 0 < beta_minus < beta_plus")
        if not self.c_m > 0:
            raise ValueError("c_m must be positive")
        if self.m is not None and self.m < 1:
            raise ValueError("m must be at least 1 when given")
        if self.query_points < 1:
            raise ValueError("query_points must be at least 1")
        if isinstance(self.sigma_sq, str):
            if self.sigma_sq != "estimate":
                raise ValueError('sigma_sq must be positive or "estimate"')
            if self.prior == "dim":
                raise ValueError('prior "dim" needs a fixed sigma_sq')
        elif not (self.sigma_sq > 0 and math.isfinite(self.sigma_sq)):
            raise ValueError('sigma_sq must be positive and finite, or '
                             f'"estimate"; got {self.sigma_sq}')

    @property
    def estimate_noise(self) -> bool:
        return self.sigma_sq == "estimate"


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _json(payload) -> str:
    return json.dumps(payload, default=_json_default, indent=2,
                      sort_keys=True)


def _float_list(values: np.ndarray) -> str:
    """A top-level 1-D float array as :func:`_json` renders it."""
    if not values.size:
        return "[]"
    return "[\n    " + ",\n    ".join(map(float.__repr__, values.tolist())) \
        + "\n  ]"


def _dumps(payload) -> str:
    """:func:`_json`, with the finite 1-D float arrays of a dict payload's
    top level rendered by :func:`_float_list` and spliced in where a
    placeholder stood; a placeholder the rest of the text repeats sends
    the whole payload down the ``json`` path."""
    if not isinstance(payload, dict):
        return _json(payload)
    marks = {key: f"\0{key}" for key, value in payload.items()
             if isinstance(value, np.ndarray) and value.ndim == 1
             and value.dtype == float and np.isfinite(value).all()}
    text = _json({**payload, **marks})
    for key, mark in marks.items():
        quoted = json.dumps(mark)
        if text.count(quoted) != 1:
            return _json(payload)
        text = text.replace(quoted, _float_list(payload[key]))
    return text


@dataclass
class RunReport:
    """Everything a run produced: choice, band table, errors, timing."""

    experiment: str
    chosen: dict
    query: np.ndarray
    mean: np.ndarray
    lo95: np.ndarray
    hi95: np.ndarray
    truth: np.ndarray | None
    l2_error: float | None
    coverage: float | None
    wall_time: float
    selection: list[dict] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.query = np.asarray(self.query, dtype=float)
        self.mean = np.asarray(self.mean, dtype=float)
        self.lo95 = np.asarray(self.lo95, dtype=float)
        self.hi95 = np.asarray(self.hi95, dtype=float)
        if self.truth is not None:
            self.truth = np.asarray(self.truth, dtype=float)
        k = self.query.size
        for name in ("mean", "lo95", "hi95"):
            if getattr(self, name).size != k:
                raise ValueError(f"{name} must match the query grid length")
        if self.truth is not None and self.truth.size != k:
            raise ValueError("truth must match the query grid length")
        if self.coverage is not None and not 0.0 <= self.coverage <= 1.0:
            raise ValueError("coverage must lie in [0, 1]")

    def to_json(self) -> str:
        # not asdict, which would deep-copy the band arrays
        return _dumps({f.name: getattr(self, f.name) for f in fields(self)})

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        """Inverse of :meth:`to_json`; a payload that is not a JSON object
        with exactly the report's fields raises ValueError naming them."""
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("a run report is a JSON object")
        names = {f.name for f in fields(cls)}
        required = {f.name for f in fields(cls)
                    if f.default is MISSING and f.default_factory is MISSING}
        problems = [f"{what} fields {', '.join(sorted(keys))}"
                    for what, keys in (("missing", required - set(payload)),
                                       ("unexpected", set(payload) - names))
                    if keys]
        if problems:
            raise ValueError("not a run report: " + "; ".join(problems))
        return cls(**payload)  # __post_init__ restores the arrays


def simulate_poly(n: int, seed: int, sigma_sq: float = DEFAULT_NOISE_SQ
                  ) -> tuple[Dataset, SignalSpec]:
    """Benchmark draw: uniform design on the basis domain, Gaussian noise."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not (sigma_sq > 0 and math.isfinite(sigma_sq)):
        raise ValueError("sigma_sq must be positive and finite, "
                         f"got {sigma_sq}")
    return _draw(_BENCH_SPEC, n, seed, sigma_sq), _BENCH_SPEC


def _draw(spec: SignalSpec, n: int, seed: int, sigma_sq: float) -> Dataset:
    """Uniform design on the basis domain, signal ``spec`` plus noise."""
    rng = default_rng(seed)
    x = rng.uniform(DOMAIN_LO, DOMAIN_HI, size=n)
    y = (synth_signal(spec, x)
         + rng.normal(0.0, math.sqrt(sigma_sq), size=n))
    return Dataset(x=x, y=y, sigma_sq=sigma_sq)


def load_running_csv(path) -> Dataset:
    """Read any two-column series: design x in the first column, response
    y in the second, such as time (seconds) and running speed (km/h).

    A single non-numeric header row is tolerated; extra columns are
    ignored. Any other malformed row raises with its 1-based line number.
    The noise variance is a unit placeholder — real-data pipelines tune
    it rather than trust it.
    """
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"no such file: {p}")
    t_vals: list[float] = []
    v_vals: list[float] = []
    with open(p, newline="") as fh:
        reader = csv.reader(fh)
        first_data_row = True
        for row in reader:
            cells = [c.strip() for c in row]
            if not any(cells):
                continue
            line = reader.line_num
            if len(cells) < 2:
                raise ValueError(
                    f"line {line}: expected at least two columns, got {len(cells)}")
            if first_data_row:
                first_data_row = False
                try:
                    float(cells[0])
                except ValueError:
                    continue  # header row
            try:
                t = float(cells[0])
                v = float(cells[1])
            except ValueError as exc:
                raise ValueError(f"line {line}: non-numeric value ({exc})") from None
            t_vals.append(t)
            v_vals.append(v)
    return Dataset(x=np.asarray(t_vals, dtype=float),
                   y=np.asarray(v_vals, dtype=float), sigma_sq=1.0)


def _build_grid(config: ExperimentConfig, n: int):
    if config.prior == "poly":
        return poly_grid(config.beta_minus, config.beta_plus, n, c_m=config.c_m)
    if config.prior == "exp":
        return exp_grid(config.beta_minus, n)
    return dim_grid(n)


def _series_prior(config: ExperimentConfig, lam: float) -> SeriesPrior:
    decay = PolyDecay(alpha=lam) if config.prior == "poly" else ExpDecay(tau=lam)
    return SeriesPrior(decay)


def _profile_noise(profile) -> tuple[float, float, dict]:
    """Maximize a collapsed-bound profile over the noise variance (log scale).

    Returns sigma^2, the bound there and the search's diagnostics: its
    ``evaluations``, whether it ``converged`` and whether log sigma^2 ended
    within 1e-6 of ``_PROFILE_LOG_BOUNDS`` (``at_bound``).
    """
    t, f, nfev, converged = brent_bounded(
        lambda t: -profile(math.exp(t)), *_PROFILE_LOG_BOUNDS, xatol=1e-7)
    lo, hi = _PROFILE_LOG_BOUNDS
    diagnostics = {"evaluations": nfev, "converged": converged,
                   "at_bound": min(t - lo, hi - t) < 1e-6}
    return math.exp(t), float(-f), diagnostics


def _dim_fitter(fits: dict):
    """Fitter of a ``dim`` grid whose levels are all fitted already
    (``fits``, keyed by level, which is the grid value): it looks a grid
    value's fit up, with its last bound, and skips (None) a level that a
    pruning ascent dropped, so selection builds no record for it."""

    def fitter(lam):
        q = fits[int(lam)]
        return None if q is None else (q, float(q.elbo_path[-1]))

    return fitter


def _make_fitter(config: ExperimentConfig, grid, data: Dataset):
    """Per-candidate fit closure plus a side table of extra selection-row
    fields by grid value: the profiled noise ``sigma_sq`` with its search's
    ``diagnostics``, or a ``dim`` level's sweep ``diagnostics``; sample
    features add the ``dropped_eigenvalues`` of their kernel matrix.

    Design statistics are built once here, before the sweep:
    ``FeatureStats`` up to the largest truncation level for ``dim``, and up
    to the largest feature count and cutoff for population features. Each
    candidate then reads only their leading blocks. Every ``dim`` level is
    fitted here too, in one lockstep ascent without pruning, and the
    fitter looks it up. A sample-feature candidate takes the exact factor
    L = Phi_J S of its J-term series kernel, J = max(2000, 4 m), with
    tr K = ||L||_F^2, to :meth:`~gpadapt.inducing._EigenFactor.from_factor`,
    which solves the smaller of the J x J and n x n eigenproblems; no
    kernel matrix is formed when J <= n.
    """
    if config.prior == "dim":
        top = max(grid.sizes)
        fits = mf_fit_levels(feature_stats(data.x, data.y, top, top),
                             grid.sizes, data.sigma_sq)
        extras = {lam: {"diagnostics": {
            "sweeps": len(fits[D].elbo_path) - 1,
            "converged": fits[D].converged}}
            for lam, D in zip(grid.values, grid.sizes)}
        return _dim_fitter(fits), extras

    extras: dict[float, dict] = {}
    sizes = dict(zip(grid.values, grid.sizes))
    if config.features == "population":
        J = max(feature_cutoff(_series_prior(config, lam), m)
                for lam, m in zip(grid.values, grid.sizes))
        stats = feature_stats(data.x, data.y, J, max(grid.sizes))

        def candidate(lam):
            _, profile, fit = population_candidate(
                _series_prior(config, lam), stats, sizes[lam])
            return profile, fit, {}
    else:
        def candidate(lam):
            m = sizes[lam]
            kern = SeriesKernel(_series_prior(config, lam),
                                j_max=max(SIGNAL_J_MAX, 4 * m))
            _, L = _series_factor(kern, data.x)
            fac = _EigenFactor.from_factor(L, data.y, m, float(np.vdot(L, L)))
            _warn_dropped(fac.dropped)
            return (fac.profile(1.0),
                    lambda s2: fac.fit(s2, 1.0, kern, data.x),
                    {"dropped_eigenvalues": fac.dropped})

    def fitter(lam):
        profile, fit, diagnostics = candidate(lam)
        s2 = data.sigma_sq
        if config.estimate_noise:
            s2, _, noise = _profile_noise(profile)
            extras[lam] = {"sigma_sq": s2,
                           "diagnostics": {**noise, **diagnostics}}
        elif diagnostics:
            extras[lam] = {"diagnostics": diagnostics}
        return fit(s2), profile(s2)

    return fitter, extras


def _quadrature_error(mean_fn, spec: SignalSpec) -> float:
    """L2 distance of a mean rule from the truth under the uniform design.

    The midpoint rule on ``QUADRATURE_POINTS`` nodes (i + 1/2) h of the
    basis domain: the mean rule is evaluated there, the truth comes from
    one inverse FFT (:func:`basis._midpoint_signal`). The rule is exact
    for trigonometric polynomials of degree below ``QUADRATURE_POINTS``.
    """
    step = (DOMAIN_HI - DOMAIN_LO) / QUADRATURE_POINTS
    xq = DOMAIN_LO + step * (np.arange(QUADRATURE_POINTS) + 0.5)
    diff = mean_fn(xq) - _midpoint_signal(spec, QUADRATURE_POINTS)
    return float(np.sqrt(np.mean(diff**2)))


def _coefficient_error(mu: np.ndarray, coeffs: np.ndarray) -> float:
    """L2 distance of sum_j mu_j phi_j from the unshifted signal with
    coefficients c under the uniform design, by Parseval, c zero past
    its last term: (||mu - c_1..m||^2 + sum_{j>m} c_j^2)^(1/2)."""
    c = np.zeros(max(mu.size, coeffs.size))
    c[:coeffs.size] = coeffs
    head, tail = mu - c[:mu.size], c[mu.size:]
    return float(np.sqrt(head @ head + tail @ tail))


def _flush_partial(config: ExperimentConfig, exc: BaseException,
                   selection: list[dict]) -> None:
    if config.out_dir is None:
        return
    try:
        path = Path(config.out_dir)
        path.mkdir(parents=True, exist_ok=True)
        (path / "partial_report.json").write_text(_dumps({
            "experiment": config.experiment,
            "failed": f"{type(exc).__name__}: {exc}",
            "selection": selection,
        }))
    except OSError:
        pass  # the failure being reported wins over the reporting failure


def _row(rec: SelectionRecord, **extra) -> dict:
    return {**asdict(rec), "sigma_sq": None, **extra}


def _load_or_simulate(config: ExperimentConfig
                      ) -> tuple[Dataset, SignalSpec | None]:
    if config.data_path is not None:
        data = load_running_csv(config.data_path)
        if not config.estimate_noise:
            data = data.with_sigma_sq(config.sigma_sq)
        return data, None
    gen_s2 = DEFAULT_NOISE_SQ if config.estimate_noise else config.sigma_sq
    data, spec = simulate_poly(config.n, config.seed, gen_s2)
    return data, spec


def _finish_report(config: ExperimentConfig, data: Dataset,
                   spec: SignalSpec | None, posterior, chosen: dict,
                   selection: list[dict], t0: float) -> RunReport:
    query = np.linspace(float(np.min(data.x)), float(np.max(data.x)),
                        config.query_points)
    band = posterior(query)
    mean = band.mean
    lo95, hi95 = band.band95()
    truth = l2_error = coverage = None
    if spec is not None:
        truth = synth_signal(spec, query)
        # the error needs only the mean rule, not a quadrature covariance
        l2_error = _quadrature_error(band.mean_fn, spec)
        coverage = float(np.mean((lo95 <= truth) & (truth <= hi95)))
    report = RunReport(
        experiment=config.experiment,
        chosen=chosen,
        query=query,
        mean=mean,
        lo95=lo95,
        hi95=hi95,
        truth=truth,
        l2_error=l2_error,
        coverage=coverage,
        wall_time=time.perf_counter() - t0,
        selection=selection,
    )
    if config.out_dir is not None:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(report.to_json())
        emit_report(report, "csv", out)
        emit_report(report, "svg", out)
    return report


def _run(config: ExperimentConfig, fit) -> RunReport:
    """The one run driver: clock, data, ``fit``, report, failure record.

    The config's CSV is loaded, or the benchmark simulated (the only case
    with a known truth). ``fit(config, data)`` returns ``(posterior,
    chosen, rows)``: a callable from query points to a band, the chosen
    hyperparameters and the selection rows.
    ``wall_time`` spans loading, fitting and prediction. If any step fails
    and ``config.out_dir`` is set, ``partial_report.json`` there records the
    error and the rows produced so far before the exception propagates.
    """
    t0 = time.perf_counter()
    rows: list[dict] = []
    try:
        data, spec = _load_or_simulate(config)
        posterior, chosen, rows = fit(config, data)
        return _finish_report(config, data, spec, posterior, chosen, rows,
                              t0)
    except Exception as exc:
        _flush_partial(config, exc, rows)
        raise


def _select(config: ExperimentConfig, data: Dataset):
    """Grid sweep of ``config.prior`` on ``data``: selection and row extras."""
    grid = _build_grid(config, data.n)
    fitter, extras = _make_fitter(config, grid, data)
    return select_discrete(grid, fitter), extras


def _at_grid_edge(sel: SelectionReport, lam: float) -> bool:
    """Whether ``lam`` is the first or last grid value: ``sel`` holds one
    record per value of its strictly increasing grid."""
    return lam in (sel.records[0].lam, sel.records[-1].lam)


def _grid_rows(sel: SelectionReport, extras: dict) -> list[dict]:
    """Selection rows plus each value's variational weight and grid edge.

    ``weight`` is w_lam, proportional to exp(``elbo``) over the scored
    values (``None`` where the fit failed): the weights of the
    hierarchical mixture, whose argmax is the chosen value.
    ``at_grid_edge`` marks the first and last grid values.
    """
    scored = [rec.elbo for rec in sel.records if rec.error is None]
    weights = iter(lse_weights(scored).tolist())
    return [_row(rec, **extras.get(rec.lam, {}),
                 weight=None if rec.error is not None else next(weights),
                 at_grid_edge=_at_grid_edge(sel, rec.lam))
            for rec in sel.records]


def _fit_grid(config: ExperimentConfig, data: Dataset):
    sel, extras = _select(config, data)
    rows = _grid_rows(sel, extras)
    if config.prior == "dim":
        q = sel.posterior
        posterior = lambda xs: mf_predict(q, xs)
        chosen = {"dim": int(round(sel.chosen)),
                  "sigma_sq": float(data.sigma_sq)}
    else:
        vgp = sel.posterior
        posterior = lambda xs: predict(vgp, xs)
        name = "alpha" if config.prior == "poly" else "tau"
        s2 = extras.get(sel.chosen, {}).get("sigma_sq", float(data.sigma_sq))
        chosen = {name: float(sel.chosen), "sigma_sq": float(s2),
                  "m": sel.record_for(sel.chosen).m}
    return posterior, chosen, rows


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Grid pipeline: data, candidate sweep, prediction, artifacts.

    The data come from ``config.data_path`` or are simulated from the
    benchmark signal. Every value of the ``config.prior`` grid is scored by
    its collapsed bound and the best one predicts; ``report.json`` holds one
    selection row per grid value. Artifacts go to ``config.out_dir`` when
    set, or ``partial_report.json`` if the run fails.
    """
    return _run(config, _fit_grid)


def _continuous_bounds(data: Dataset) -> list[tuple[float, float]]:
    span = max(float(np.max(data.x) - np.min(data.x)), 1e-6)
    sd_y = float(np.std(data.y))
    sd_y = max(sd_y, 1e-6)
    # the prior has mean zero, so an offset in y is signal variance too
    second = max(float(np.mean(data.y**2)), sd_y**2)
    return [
        (1e-3 * sd_y, 4.0 * sd_y),       # noise sd
        (1e-4 * sd_y**2, 50.0 * second),  # kernel variance
        (2e-3 * span, 2.0 * span),       # length-scale
    ]


def _fit_kernel(config: ExperimentConfig, data: Dataset):
    if data.n < 2:
        raise ValueError("continuous tuning needs at least two points")
    m = min(config.m if config.m is not None else 150, data.n)
    bounds = _continuous_bounds(data)
    if not config.estimate_noise:
        sigma0 = math.sqrt(config.sigma_sq)
        bounds[0] = (sigma0, sigma0)  # equal bounds pin the noise
    rep = tune_continuous(data, m, None, bounds, "elbo", 200)
    sigma, nu, tau = rep.chosen
    s2 = float(sigma) ** 2
    chosen = {"sigma": float(sigma), "nu": float(nu), "tau": float(tau),
              "sigma_sq": s2, "m": m}
    row = _row(rep.records[0], lam=None, m=m, sigma_sq=s2,
               diagnostics=rep.diagnostics)
    return rep.posterior, chosen, [row]


def run_continuous(config: ExperimentConfig) -> RunReport:
    """Kernel-tuning pipeline: coarse scan, bound ascent, prediction.

    The data are loaded from ``config.data_path`` or simulated, as in
    :func:`run_experiment`. A squared-exponential kernel is tuned by
    :func:`~gpadapt.select.tune_continuous`, started from its coarse scan,
    with ``config.m`` features (default 150, at most n); a fixed
    ``config.sigma_sq`` pins the noise. The tuner's diagnostics go into the
    selection row of ``report.json`` (``selection.csv`` keeps its
    columns). On failure with ``config.out_dir`` set, a bad CSV included,
    ``partial_report.json`` records the error.
    """
    return _run(config, _fit_kernel)


@dataclass
class ContractionReport:
    """Log-log error trend of the adaptive fit against sample size."""

    family: str
    beta_true: float
    n_list: tuple[int, ...]
    errors: np.ndarray  # replicates x len(n_list)
    mean_errors: np.ndarray
    slope: float
    slope_se: float
    target: float
    #: each fit's chosen grid value, and whether it is the grid's first or
    #: last value (replicates x len(n_list))
    chosen: np.ndarray
    at_grid_edge: np.ndarray


def _smooth_signal(beta: float) -> SignalSpec:
    expo = beta + 0.5
    return SignalSpec(coefficients=lambda js: np.asarray(js, float) ** -expo,
                      j_max=SIGNAL_J_MAX)


def _contraction_size(family: str, spec: SignalSpec, n: int,
                      seeds: Sequence[int], sigma_sq: float
                      ) -> Iterator[tuple[float, bool, float]]:
    """Every replicate at sample size ``n``: draw from ``spec`` and
    adaptively fit.

    Yields, per seed in order, the chosen grid value, whether it is a grid
    edge, and the fit's L2 error to the truth, read off its coefficients
    (:func:`_coefficient_error`), one replicate at a time. ``dim`` keeps
    only each draw's design statistics and fits all replicates' levels in
    one pruning lockstep ascent (``meanfield._mf_fit_replicates``): a level
    whose evidence bound cannot beat its replicate's best bound stops
    early and is skipped, with no selection record, so every replicate
    keeps the level an unpruned sweep keeps. The other families fit one draw
    after another.
    """
    coeffs = spec.coeff_array()
    config = ExperimentConfig(experiment="contraction", n=n, prior=family,
                              sigma_sq=sigma_sq)
    if family != "dim":
        for seed in seeds:
            sel, _ = _select(config, _draw(spec, n, seed, sigma_sq))
            yield (sel.chosen, _at_grid_edge(sel, sel.chosen),
                   _coefficient_error(sel.posterior.mu, coeffs))
        return
    grid = _build_grid(config, n)
    top = max(grid.sizes)
    draws = (_draw(spec, n, seed, sigma_sq) for seed in seeds)
    stats = [feature_stats(d.x, d.y, top, top) for d in draws]
    edges = (grid.values[0], grid.values[-1])
    for fits in _mf_fit_replicates(stats, grid.sizes, sigma_sq, prune=True):
        sel = select_discrete(grid, _dim_fitter(fits))
        yield (sel.chosen, sel.chosen in edges,
               _coefficient_error(sel.posterior.mu, coeffs))


def contraction_study(family: str, beta_true: float, n_list: Sequence[int],
                      replicates: int, seed: int, sigma_sq: float = 0.25
                      ) -> ContractionReport:
    """Adaptive-fit error versus n, with the rate-formula target attached.

    Each replicate contributes one error per sample size, and records the
    grid value its fit chose and whether that is a grid edge; the headline
    slope is the least-squares fit of log mean-error against log n, and
    its standard error comes from the spread of per-replicate slopes.
    Sample sizes run one after another in this process, each fitting all
    its replicates together (for ``dim``, in one lockstep ascent). Every
    draw reads one signal spec, so its grid tables are built once.
    """
    n_list = tuple(int(n) for n in n_list)
    if len(n_list) < 3:
        raise ValueError("need at least three sample sizes")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("sample sizes must be strictly increasing")
    if replicates < 5:
        raise ValueError("need at least five replicates")
    if family not in _PRIORS:
        raise ValueError(f"family must be one of {_PRIORS}")
    if not beta_true > 0:
        raise ValueError("beta_true must be positive")
    if not (sigma_sq > 0 and math.isfinite(sigma_sq)):
        raise ValueError("sigma_sq must be positive and finite, "
                         f"got {sigma_sq}")

    spec = _smooth_signal(beta_true)
    shape = (replicates, len(n_list))
    errors, chosen = np.empty(shape), np.empty(shape)
    at_grid_edge = np.empty(shape, dtype=bool)
    for i, n in enumerate(n_list):
        # replicate r draws its data at the i-th size from seed + 1000 r + i
        seeds = [seed + 1000 * r + i for r in range(replicates)]
        for r, (lam, edge, error) in enumerate(
                _contraction_size(family, spec, n, seeds, sigma_sq)):
            errors[r, i], chosen[r, i], at_grid_edge[r, i] = error, lam, edge
    mean_errors = errors.mean(axis=0)
    log_n = np.log(np.asarray(n_list, dtype=float))
    slope = float(np.polyfit(log_n, np.log(mean_errors), 1)[0])
    rep_slopes = np.array([np.polyfit(log_n, np.log(row), 1)[0]
                           for row in errors])
    slope_se = float(np.std(rep_slopes, ddof=1) / math.sqrt(replicates))
    target = -beta_true / (1.0 + 2.0 * beta_true)
    return ContractionReport(family=family, beta_true=beta_true,
                             n_list=n_list, errors=errors,
                             mean_errors=mean_errors, slope=slope,
                             slope_se=slope_se, target=target, chosen=chosen,
                             at_grid_edge=at_grid_edge)


def _g17(v) -> str:
    return "" if v is None else format(float(v), ".17g")


def _write_band_csv(report: RunReport, path: Path) -> None:
    columns = [report.query, report.mean, report.lo95, report.hi95]
    row = "%.17g,%.17g,%.17g,%.17g,\n"  # an empty truth without one
    if report.truth is not None:
        columns.append(report.truth)
        row = "%.17g,%.17g,%.17g,%.17g,%.17g\n"
    with open(path, "w", newline="\n") as fh:
        fh.write("x,mean,lo95,hi95,truth\n")
        fh.write("".join(map(row.__mod__,
                             zip(*(c.tolist() for c in columns)))))


def _write_selection_csv(report: RunReport, path: Path) -> None:
    cols = ("lam", "log_mass", "elbo_lambda", "elbo", "m", "sigma_sq",
            "wall_time", "error")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        for row in report.selection:
            out = []
            for c in cols:
                v = row.get(c)
                if v is None:
                    out.append("")
                elif c in ("m",):
                    out.append(str(int(v)))
                elif c == "error":
                    out.append(str(v))
                else:
                    out.append(_g17(v))
            writer.writerow(out)


_SVG_W, _SVG_H, _SVG_PAD = 800, 500, 60.0


def _svg_xy(xs, ys, x0, x1, y0, y1):
    """Map data coordinates to pixel coordinates (y axis flipped)."""
    sx = (_SVG_W - 2 * _SVG_PAD) / (x1 - x0)
    sy = (_SVG_H - 2 * _SVG_PAD) / (y1 - y0)
    px = _SVG_PAD + (np.asarray(xs) - x0) * sx
    py = _SVG_H - _SVG_PAD - (np.asarray(ys) - y0) * sy
    return px, py


def _points(px, py) -> str:
    return " ".join(map("%.2f,%.2f".__mod__, zip(px.tolist(), py.tolist())))


def _render_svg(report: RunReport) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
            f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">\n'
            f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>\n')
    parts = [head]
    if report.query.size >= 2:
        x0, x1 = float(report.query[0]), float(report.query[-1])
        ys = [report.lo95, report.hi95]
        if report.truth is not None:
            ys.append(report.truth)
        y0 = float(min(np.min(a) for a in ys))
        y1 = float(max(np.max(a) for a in ys))
        pad = 0.05 * max(y1 - y0, 1e-12)
        y0, y1 = y0 - pad, y1 + pad
        if x1 <= x0:
            x1 = x0 + 1.0
        band_x = np.concatenate([report.query, report.query[::-1]])
        band_y = np.concatenate([report.hi95, report.lo95[::-1]])
        px, py = _svg_xy(band_x, band_y, x0, x1, y0, y1)
        parts.append(f'<polygon points="{_points(px, py)}" fill="#1f77b4" '
                     'fill-opacity="0.2" stroke="none"/>\n')
        if report.truth is not None:
            px, py = _svg_xy(report.query, report.truth, x0, x1, y0, y1)
            parts.append(f'<polyline points="{_points(px, py)}" fill="none" '
                         'stroke="#d62728" stroke-width="1.5" '
                         'stroke-dasharray="6,4"/>\n')
        px, py = _svg_xy(report.query, report.mean, x0, x1, y0, y1)
        parts.append(f'<polyline points="{_points(px, py)}" fill="none" '
                     'stroke="#1f77b4" stroke-width="2"/>\n')
        for val, anchor, (tx, ty) in (
            (x0, "start", (_SVG_PAD, _SVG_H - _SVG_PAD / 2)),
            (x1, "end", (_SVG_W - _SVG_PAD, _SVG_H - _SVG_PAD / 2)),
        ):
            parts.append(f'<text x="{tx:.2f}" y="{ty:.2f}" font-size="14" '
                         f'text-anchor="{anchor}">{val:.4g}</text>\n')
        for val, py_pix in ((y0, _SVG_H - _SVG_PAD), (y1, _SVG_PAD)):
            parts.append(f'<text x="{_SVG_PAD - 8:.2f}" y="{py_pix:.2f}" '
                         'font-size="14" text-anchor="end">'
                         f'{val:.4g}</text>\n')
    frame = (f'<rect x="{_SVG_PAD}" y="{_SVG_PAD}" '
             f'width="{_SVG_W - 2 * _SVG_PAD}" '
             f'height="{_SVG_H - 2 * _SVG_PAD}" fill="none" stroke="#333"/>\n')
    parts.append(frame)
    title = report.experiment.replace("&", "&amp;").replace("<", "&lt;")
    parts.append(f'<text x="{_SVG_W / 2:.2f}" y="{_SVG_PAD / 2:.2f}" '
                 f'font-size="16" text-anchor="middle">{title}</text>\n')
    parts.append("</svg>\n")
    return "".join(parts)


def emit_report(report: RunReport, format: str, out_dir) -> list[Path]:
    """Write the band table (+ candidate table) or the plot. Deterministic."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if format == "csv":
        band = out / "band.csv"
        _write_band_csv(report, band)
        selection = out / "selection.csv"
        _write_selection_csv(report, selection)
        return [band, selection]
    if format == "svg":
        path = out / "plot.svg"
        with open(path, "w", newline="\n") as fh:
            fh.write(_render_svg(report))
        return [path]
    raise ValueError('format must be "csv" or "svg"')
