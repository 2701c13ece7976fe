"""Session-scoped fixtures shared between module tests and acceptance.

The expensive statistical runs (figure-style pipelines, rate studies,
tuner comparisons) are computed once and consumed by every test that
needs them; each fixture also reports its own wall time so the consumer
closest to the stated budget can assert on it.
"""

import time

import numpy as np
import pytest

from gpadapt.exact import Dataset


@pytest.fixture(scope="session")
def bench_reports():
    """Ten seeded benchmark runs at n=10^4 (default config)."""
    from gpadapt.experiments import ExperimentConfig, run_experiment

    t0 = time.perf_counter()
    reports = [
        run_experiment(ExperimentConfig(experiment="bench", n=10_000, seed=s))
        for s in range(10)
    ]
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="session")
def contraction_dim():
    """Rate study for the truncation family at unit smoothness."""
    from gpadapt.experiments import contraction_study

    t0 = time.perf_counter()
    report = contraction_study("dim", 1.0, (500, 2000, 8000), 10, seed=0)
    return report, time.perf_counter() - t0


def _se_dataset(seed, n=1000, sigma=1.0, nu=2.0, tau=0.5, span=30.0):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, span, size=n))
    K = nu * np.exp(-((x[:, None] - x[None, :]) / tau) ** 2)
    L = np.linalg.cholesky(K + 1e-10 * np.eye(n))
    y = L @ rng.normal(size=n) + sigma * rng.normal(size=n)
    return Dataset(x=x, y=y, sigma_sq=sigma**2)


@pytest.fixture(scope="session")
def vb_eb_runs():
    """Bound-tuned vs evidence-tuned hyperparameters and predictions.

    Ten seeds of smooth-kernel data (n=1000, m=150 features); both tuners
    start from the same coarse-scan length-scale so the comparison
    isolates the objectives themselves.
    """
    from gpadapt.select import coarse_init, tune_continuous

    bounds = [(0.05, 20.0), (0.05, 200.0), (0.02, 10.0)]
    query = np.linspace(0.0, 30.0, 512)
    t0 = time.perf_counter()
    rows = []
    for seed in range(100, 110):
        data = _se_dataset(seed)
        tau0 = coarse_init(data, m=150, bounds=bounds, objective="evidence")
        vb = tune_continuous(data, m=150, init=tau0, bounds=bounds,
                             objective="elbo", maxiter=35)
        eb = tune_continuous(data, m=150, init=tau0, bounds=bounds,
                             objective="evidence", maxiter=35)
        rows.append({
            "vb": np.asarray(vb.chosen, dtype=float),
            "eb": np.asarray(eb.chosen, dtype=float),
            "vb_mean": vb.posterior(query).mean,
            "eb_mean": eb.posterior(query).mean,
        })
    return rows, time.perf_counter() - t0
