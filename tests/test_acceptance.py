"""End-to-end acceptance suite.

Eight release-gating checks: exact-oracle equivalences, the variational
gap and shift identities, benchmark reproduction windows, a
contraction-rate surrogate, tuner agreement, and the cross-module
invariants. Each test asserts its stated tolerance and prints one
summary line (visible with ``-s``); the heavy statistical fixtures live
in ``conftest.py`` so the module suites can share them, and their wall
clock is asserted here against the budget.
"""

import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from gpadapt import (
    BASIS,
    Dataset,
    HyperGrid,
    MeanFieldPosterior,
    PolyDecay,
    SeriesKernel,
    SeriesPrior,
    SignalSpec,
    SquaredExponential,
    Truncated,
    design_matrix,
    elbo_at,
    elbo_lambda,
    exact_posterior,
    kl_to_posterior,
    log_evidence,
    mf_elbo,
    mf_fit,
    mf_kl_exact,
    mf_predict,
    population_features,
    predict,
    run_experiment,
    sample_features,
    select_discrete,
    simulate_poly,
    synth_signal,
    titsias_fit,
    tune_continuous,
)
from gpadapt.exact import kernel_matrix
from gpadapt.experiments import ExperimentConfig, load_running_csv
from gpadapt.inducing import VariationalGP
from gpadapt.select import coarse_init


# optional real speed-series file; the related assertions only run when
# someone has dropped it here
RUNNING_CSV = Path(__file__).resolve().parent.parent / "data" / "running.csv"


def _full_rank_features(kernel, x, n):
    """All-n sample features, ignoring the degenerate-eigenvalue warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return sample_features(kernel_matrix(kernel, x), n, kernel=kernel, x=x)


def _direct_joint_kl(q, data, K_ff):
    """KL(q || exact posterior) for the inducing family, from first principles.

    The library computes this divergence through the bound gap, so the
    acceptance check needs an independent route. Over the joint law of
    the features u and the training values f, the divergence splits as

        KL(q(u) || p(u | y)) + E_q [ KL(p(f | u) || p(f | u, y)) ]

    and every piece is an explicit Gaussian at oracle scale: p(u | y) by
    conditioning the (u, y) prior, and the second term in the eigenbasis
    of the conditional covariance C = K_ff - K_fu K_uu^-1 K_uf (restricted
    to range(C), where both conditionals live).
    """
    model = q.model
    s2 = data.sigma_sq
    n = data.n
    K_uu, K_uf = model.K_uu, model.K_uf
    S_yy = K_ff + s2 * np.eye(n)
    m_u = K_uf @ np.linalg.solve(S_yy, data.y)
    S_u = K_uu - K_uf @ np.linalg.solve(S_yy, K_uf.T)
    S_u = 0.5 * (S_u + S_u.T)
    d = m_u - q.mu
    _, logdet_Su = np.linalg.slogdet(S_u)
    _, logdet_Sig = np.linalg.slogdet(q.Sigma)
    kl_features = 0.5 * (
        np.trace(np.linalg.solve(S_u, q.Sigma))
        + d @ np.linalg.solve(S_u, d)
        - q.mu.size
        + logdet_Su
        - logdet_Sig
    )
    A = np.linalg.solve(K_uu, K_uf).T
    C = K_ff - K_uf.T @ np.linalg.solve(K_uu, K_uf)
    C = 0.5 * (C + C.T)
    w, W = np.linalg.eigh(C)
    keep = w > max(float(w.max()), 0.0) * 1e-12
    c = w[keep]
    Wk = W[:, keep]
    t = Wk.T @ (A @ q.mu - data.y)
    h = np.einsum("ij,jk,ki->i", Wk.T @ A, q.Sigma, A.T @ Wk)
    kl_conditional = 0.5 * (
        float(c.sum()) / s2
        + float(np.sum(np.log(s2 / (c + s2))))
        + float(np.sum(c * (t**2 + h) / (s2 * (c + s2))))
    )
    return float(kl_features + kl_conditional)


def test_01_full_rank_oracle_equivalence():
    """m = n features reproduce the exact marginal likelihood and posterior."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(310)
    worst_bound, worst_mean = 0.0, 0.0
    for _ in range(20):
        n = int(rng.integers(10, 61))
        kern = SquaredExponential(nu=float(rng.uniform(0.5, 3.0)),
                                  tau=float(rng.uniform(0.3, 2.0)))
        s2 = float(rng.uniform(0.05, 1.0))
        x = np.sort(rng.uniform(0.0, 8.0, size=n))
        y = np.sin(x) + rng.normal(0.0, np.sqrt(s2), size=n)
        data = Dataset(x=x, y=y, sigma_sq=s2)
        model = _full_rank_features(kern, x, n)
        worst_bound = max(worst_bound,
                          abs(elbo_lambda(model, data) - log_evidence(kern, data)))
        query = np.linspace(0.0, 8.0, 64)
        mean_var = predict(titsias_fit(model, data), query).mean
        mean_ex = exact_posterior(kern, data, query).mean
        worst_mean = max(worst_mean, float(np.linalg.norm(mean_var - mean_ex)
                                           / np.linalg.norm(mean_ex)))
    elapsed = time.perf_counter() - t0
    assert worst_bound <= 1e-8
    assert worst_mean <= 1e-6
    assert elapsed < 10.0
    print(f"\n[PASS] full-rank oracle: |bound-evidence|<={worst_bound:.2e}, "
          f"mean rel<={worst_mean:.2e}, {elapsed:.2f}s (20 instances)")


def test_02_gap_identity():
    """Evidence minus bound equals the directly computed Gaussian KL."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(311)
    worst_ind, worst_lib, worst_mf = 0.0, 0.0, 0.0
    for i in range(30):  # inducing family: 20 spectral + 10 empirical
        n = int(rng.integers(8, 51))
        s2 = float(rng.uniform(0.1, 1.0))
        x = rng.uniform(0.0, 2.0 * np.pi, size=n)
        y = np.sin(x) + rng.normal(0.0, np.sqrt(s2), size=n)
        data = Dataset(x=x, y=y, sigma_sq=s2)
        if i < 20:
            prior = SeriesPrior(PolyDecay(float(rng.uniform(0.3, 1.0))))
            J = max(2 * n, 40)
            model = population_features(prior, x,
                                        int(rng.integers(1, min(12, n) + 1)),
                                        j_cutoff=J, tail_mode="truncate")
            kern = SeriesKernel(prior, j_max=J)
        else:
            kern = SquaredExponential(nu=float(rng.uniform(0.5, 2.0)),
                                      tau=float(rng.uniform(0.5, 2.0)))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                model = sample_features(kernel_matrix(kern, x),
                                        int(rng.integers(1, 9)),
                                        kernel=kern, x=x)
        q = titsias_fit(model, data)
        if i % 2 == 1:  # the identity holds for any member, not just the fit
            q = VariationalGP(model=model,
                              mu=q.mu + 0.3 * rng.normal(size=q.mu.size),
                              Sigma=1.2 * q.Sigma)
        K_ff = kernel_matrix(kern, x)
        gap = log_evidence(kern, data) - elbo_at(q, data)
        direct = _direct_joint_kl(q, data, K_ff)
        worst_ind = max(worst_ind, abs(gap - direct))
        worst_lib = max(worst_lib, abs(kl_to_posterior(q, data, kern) - direct))
    for i in range(20):  # mean-field family
        n = int(rng.integers(10, 51))
        D = int(rng.integers(2, 9))
        s2 = float(rng.uniform(0.1, 1.0))
        x = rng.uniform(0.0, 2.0 * np.pi, size=n)
        y = np.cos(x) + rng.normal(0.0, np.sqrt(s2), size=n)
        data = Dataset(x=x, y=y, sigma_sq=s2)
        stats = design_matrix(data, D)
        q = mf_fit(stats, s2)
        if i % 2 == 1:
            q = MeanFieldPosterior(D=D, mu=q.mu + 0.2 * rng.normal(size=D),
                                   Sigma_diag=q.Sigma_diag * 1.3)
        kern = SeriesKernel(SeriesPrior(Truncated(D)), j_max=D)
        gap = log_evidence(kern, data) - mf_elbo(q, stats, s2)
        worst_mf = max(worst_mf, abs(gap - mf_kl_exact(q, stats, s2)))
    elapsed = time.perf_counter() - t0
    assert worst_ind <= 1e-8
    assert worst_lib <= 1e-8
    assert worst_mf <= 1e-8
    assert elapsed < 30.0
    print(f"\n[PASS] gap identity: inducing<={worst_ind:.2e}, "
          f"library<={worst_lib:.2e}, mean-field<={worst_mf:.2e}, "
          f"{elapsed:.2f}s (50 instances)")


def test_03_shift_identity(tmp_path):
    """Mass-weighted and plain bounds differ by exactly the log mass."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(312)
    x = rng.uniform(0.0, 2.0 * np.pi, size=40)
    y = np.sin(x) + rng.normal(0.0, 0.3, size=40)
    data = Dataset(x=x, y=y, sigma_sq=0.09)
    mismatches = 0
    for _ in range(100):
        k = int(rng.integers(3, 10))
        vals = np.unique(rng.uniform(0.2, 3.0, size=k))
        masses = np.full(vals.size, 1.0 / vals.size)
        grid = HyperGrid(family="poly", values=vals, masses=masses,
                         m_rule=lambda lam: 3)
        coeffs = rng.normal(size=3)

        def scorer(lam, c=coeffs):
            return None, float(c[0] - (lam - c[1]) ** 2
                               + 0.1 * np.sin(5.0 * lam * c[2]))

        report = select_discrete(grid, lambda lam: scorer(lam))
        for rec in report.records:
            assert rec.elbo == rec.elbo_lambda + rec.log_mass
        plain_best = vals[int(np.argmax([scorer(v)[1] for v in vals]))]
        if report.chosen != plain_best:
            mismatches += 1
    # the identity must also hold on a real pipeline report
    small, _ = simulate_poly(150, seed=4, sigma_sq=0.01)
    src = tmp_path / "in.csv"
    src.write_text("".join(f"{float(a)!r},{float(b)!r}\n"
                           for a, b in zip(small.x, small.y)))
    real = run_experiment(ExperimentConfig(
        experiment="small", data_path=str(src), sigma_sq=0.01))
    for row in real.selection:
        if row["error"] is None:
            assert row["elbo"] == row["elbo_lambda"] + row["log_mass"]
    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    assert elapsed < 10.0
    print(f"\n[PASS] shift identity: exact on every record, argmax agreement "
          f"on 100 uniform grids, {elapsed:.2f}s")


def test_04_benchmark_reproduction(bench_reports):
    """Seeded n=10^4 runs land in the published selection windows."""
    reports, elapsed = bench_reports
    alphas = np.array([r.chosen["alpha"] for r in reports])
    noises = np.array([r.chosen["sigma_sq"] for r in reports])
    ms = np.array([r.chosen["m"] for r in reports])
    hits = int(np.sum((alphas >= 0.8) & (alphas <= 1.3)
                      & (noises >= 0.008) & (noises <= 0.022)))
    assert hits >= 8
    assert np.all(np.abs(ms - 21) <= 2)
    assert elapsed < 300.0
    print(f"\n[PASS] benchmark windows: {hits}/10 hits, "
          f"median alpha={np.median(alphas):.3f}, "
          f"median noise={np.median(noises):.4f}, "
          f"m in {sorted({int(m) for m in ms})}, {elapsed:.1f}s")


def test_05_contraction_slope(contraction_dim):
    """Adaptive truncation error shrinks at the minimax-rate slope."""
    report, elapsed = contraction_dim
    assert abs(report.slope - report.target) <= 0.15
    assert report.target == pytest.approx(-1.0 / 3.0)
    assert elapsed < 600.0
    print(f"\n[PASS] contraction slope: {report.slope:.4f} vs target "
          f"{report.target:.4f} (se {report.slope_se:.4f}), {elapsed:.1f}s")


def test_06_meanfield_fidelity():
    """Coordinate ascent matches the exact truncated posterior mean."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(313)
    n, D, s2 = 2000, 10, 0.25
    spec = SignalSpec(coefficients=lambda js: np.asarray(js, float) ** -1.5,
                      j_max=2000)
    x = rng.uniform(0.0, 2.0 * np.pi, size=n)
    y = synth_signal(spec, x) + rng.normal(0.0, np.sqrt(s2), size=n)
    data = Dataset(x=x, y=y, sigma_sq=s2)
    q = mf_fit(design_matrix(data, D), s2)
    # independent dense-algebra posterior for the D retained weights
    Phi = BASIS.features(x, D)
    Sigma_hat = np.linalg.inv(D * np.eye(D) + Phi.T @ Phi / s2)
    mu_hat = Sigma_hat @ (Phi.T @ y) / s2
    query = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    mean_mf = mf_predict(q, query).mean
    mean_ex = BASIS.features(query, D) @ mu_hat
    rel = float(np.linalg.norm(mean_mf - mean_ex) / np.linalg.norm(mean_ex))
    sweeps_monotone = bool(np.all(np.diff(q.elbo_path) >= -1e-9))
    elapsed = time.perf_counter() - t0
    assert rel <= 0.05
    assert sweeps_monotone
    assert q.converged
    assert elapsed < 30.0
    print(f"\n[PASS] mean-field fidelity: rel L2={rel:.4f}, monotone over "
          f"{q.elbo_path.size - 1} sweeps, {elapsed:.2f}s")


def test_07_tuner_agreement(vb_eb_runs):
    """Bound-tuned hyperparameters track the evidence-tuned ones."""
    rows, elapsed = vb_eb_runs
    triple_rel = np.array([np.abs(r["vb"] - r["eb"]) / np.abs(r["eb"])
                           for r in rows])
    med_rel = np.median(triple_rel, axis=0)
    pred_rel = np.array([np.linalg.norm(r["vb_mean"] - r["eb_mean"])
                         / np.linalg.norm(r["eb_mean"]) for r in rows])
    assert np.all(med_rel <= 0.15)
    assert float(np.median(pred_rel)) <= 0.02
    assert elapsed < 300.0
    if RUNNING_CSV.is_file():
        data = load_running_csv(RUNNING_CSV)
        assert data.n == 4022
        bounds = [(0.05, 20.0), (0.05, 500.0), (0.02, 200.0)]
        tau0 = coarse_init(data, m=150, bounds=bounds, objective="elbo")
        fit = tune_continuous(data, m=150, init=tau0, bounds=bounds,
                              objective="elbo", maxiter=200)
        reference = np.array([3.88, 99.58, 59.24])
        rel = np.abs(np.asarray(fit.chosen, float) - reference) / reference
        assert np.all(rel <= 0.05)
        extra = f", speed series rel={np.max(rel):.3f}"
    else:
        extra = ", speed-series file absent (skipped)"
    print(f"\n[PASS] tuner agreement: median rel "
          f"({med_rel[0]:.3f}, {med_rel[1]:.3f}, {med_rel[2]:.3f}), "
          f"pred rel={np.median(pred_rel):.4f}, {elapsed:.1f}s{extra}")


def test_08_invariant_suite():
    """Structural invariants: PSD residual, monotone bound, KL >= 0,
    basis orthonormality on the quadrature grid."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(314)
    worst_nystrom = np.inf
    for _ in range(10):
        n = int(rng.integers(40, 201))
        kern = SquaredExponential(nu=float(rng.uniform(0.5, 2.0)),
                                  tau=float(rng.uniform(0.3, 1.5)))
        x = rng.uniform(0.0, 6.0, size=n)
        K = kernel_matrix(kern, x)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            model = sample_features(K, int(rng.integers(2, 20)))
        Q = model.K_uf.T @ np.linalg.solve(model.K_uu, model.K_uf)
        worst_nystrom = min(worst_nystrom,
                            float(np.linalg.eigvalsh(K - Q).min())
                            / float(np.trace(K)))
    assert worst_nystrom >= -1e-6

    kern = SquaredExponential(nu=1.2, tau=0.7)
    x = np.sort(rng.uniform(0.0, 6.0, size=60))
    y = np.sin(2.0 * x) + rng.normal(0.0, 0.3, size=60)
    data = Dataset(x=x, y=y, sigma_sq=0.09)
    K = kernel_matrix(kern, x)
    previous = -np.inf
    for m in (1, 2, 4, 8, 16, 32, 60):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            bound = elbo_lambda(sample_features(K, m), data)
        assert bound >= previous - 1e-9
        previous = bound

    min_kl = np.inf
    for _ in range(10):
        n = int(rng.integers(10, 60))
        xk = rng.uniform(0.0, 6.0, size=n)
        yk = np.cos(xk) + rng.normal(0.0, 0.4, size=n)
        dk = Dataset(x=xk, y=yk, sigma_sq=0.16)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            mk = sample_features(kernel_matrix(kern, xk),
                                 int(rng.integers(1, 8)), kernel=kern, x=xk)
        min_kl = min(min_kl, kl_to_posterior(titsias_fit(mk, dk), dk, kern))
        sk = design_matrix(dk, 5)
        qk = mf_fit(sk, dk.sigma_sq)
        min_kl = min(min_kl, mf_kl_exact(qk, sk, dk.sigma_sq))
    assert min_kl >= -1e-9

    N = 10_000
    grid = (2.0 * np.pi / N) * (np.arange(N) + 0.5)
    Phi = BASIS.features(grid, 64)
    orth_dev = float(np.max(np.abs(Phi.T @ Phi / N - np.eye(64))))
    assert orth_dev <= 1e-10

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"\n[PASS] invariants: nystrom min-eig/trace={worst_nystrom:.1e}, "
          f"bound monotone in m, min KL={min_kl:.2e}, "
          f"orthonormality dev={orth_dev:.1e}, {elapsed:.2f}s")
