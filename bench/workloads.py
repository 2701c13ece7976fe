"""The three workloads: inputs from a seed, the CLI call, output checks.

Every check is computed apart from ``gpadapt`` (plain numpy on the inputs
and outputs) or follows from a property the method must have. None compares
against a stored copy of earlier output. Each check names itself at the start
of its problem strings; a workload's ``perturbations()`` pairs each check
with an output change that the check must reject (see ``run.selftest``).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# -- grid-poly ---------------------------------------------------------------

GRID_N = 10_000
# selection windows of the acceptance benchmark at n = 10^4
ALPHA_WINDOW = (0.8, 1.3)
NOISE_WINDOW = (0.008, 0.022)
M_CENTRE, M_SLACK = 21, 2
# the benchmark signal: c_j = j^-1.1 on j = 1 (mod 3), j <= 10^4, shifted by pi
SIGNAL_J_MAX = 10_000
TRUTH_ATOL = 1e-9
# files a rerun on the same seed must reproduce; selection.csv and
# report.json also carry per-run wall times, which are dropped first
STABLE_FILES = ("band.csv", "plot.svg")


def bench_truth(x: np.ndarray) -> np.ndarray:
    """Sum over j = 1 (mod 3) of j^-1.1 phi_j(x - pi), term by term."""
    z = np.mod(np.asarray(x, dtype=float) - math.pi, 2.0 * math.pi)
    out = np.ones_like(z)  # phi_1 = 1, c_1 = 1
    for j in range(4, SIGNAL_J_MAX + 1, 3):
        k = j // 2
        wave = np.cos(k * z) if j % 2 == 0 else np.sin(k * z)
        out += j ** -1.1 * math.sqrt(2.0) * wave
    return out


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _without_wall_time(path: Path) -> bytes:
    if path.suffix == ".json":
        raw = json.loads(path.read_text())
        raw.pop("wall_time", None)
        for row in raw.get("selection", []):
            row.pop("wall_time", None)
        return json.dumps(raw, sort_keys=True).encode()
    header, rows = _read_csv(path)
    keep = [i for i, name in enumerate(header) if name != "wall_time"]
    return "\n".join(",".join(r[i] for i in keep)
                     for r in [header] + rows).encode()


class GridPoly:
    name = "grid-poly"
    draws = 1

    def prepare(self, seed: int, work: Path) -> None:
        self.seed = seed

    def argv(self, out_dir: Path, draw: int) -> list[str]:
        return ["select", "--n", str(GRID_N), "--seed", str(self.seed),
                "--prior", "poly", "--features", "population",
                "--sigma2", "estimate", "--out", str(out_dir)]

    def load(self, out_dir: Path, draw: int) -> dict:
        report = json.loads((out_dir / "report.json").read_text())
        header, rows = _read_csv(out_dir / "selection.csv")
        selection = [dict(zip(header, r)) for r in rows]
        _, band_rows = _read_csv(out_dir / "band.csv")
        band = np.array([[float(v) for v in r] for r in band_rows])
        raw = {name: (out_dir / name).read_bytes() for name in STABLE_FILES}
        for name in ("selection.csv", "report.json"):
            raw[name] = _without_wall_time(out_dir / name)
        return {"chosen": report["chosen"], "selection": selection,
                "band": band, "raw": raw}

    def check(self, out: dict) -> list[str]:
        problems = []
        chosen = out["chosen"]
        alpha, s2, m = chosen["alpha"], chosen["sigma_sq"], chosen["m"]
        if not (ALPHA_WINDOW[0] <= alpha <= ALPHA_WINDOW[1]
                and NOISE_WINDOW[0] <= s2 <= NOISE_WINDOW[1]
                and abs(m - M_CENTRE) <= M_SLACK):
            problems.append(f"window: alpha={alpha} sigma_sq={s2} m={m}")

        scored = [r for r in out["selection"] if not r["error"]]
        for r in scored:
            elbo, bound, log_mass = (float(r[k]) for k in
                                     ("elbo", "elbo_lambda", "log_mass"))
            if elbo != bound + log_mass:
                problems.append(f"identity: lam={r['lam']} elbo={elbo!r} "
                                f"!= {bound!r} + {log_mass!r}")
        if not scored:
            problems.append("argmax: no scored candidate")
        else:
            best = max(scored, key=lambda r: float(r["elbo"]))
            if float(best["lam"]) != alpha:
                problems.append(f"argmax: chosen alpha={alpha}, "
                                f"best row lam={best['lam']}")

        x, mean, lo, hi, truth = out["band"].T
        bad = np.flatnonzero(~((lo <= mean) & (mean <= hi)))
        if bad.size:
            problems.append(f"band: lo95 <= mean <= hi95 fails on rows "
                            f"{bad[:5].tolist()}")
        err = np.abs(truth - bench_truth(x))
        if not err.max() <= TRUTH_ATOL:
            problems.append(f"truth: max |truth - own sum| = {err.max():.3g}")
        return problems

    def same(self, a: dict, b: dict) -> list[str]:
        return [f"rerun: {name} differs between runs on one seed"
                for name in a["raw"] if a["raw"][name] != b["raw"][name]]

    def perturbations(self) -> list:
        return _grid_perturbations()


def _grid_perturbations():
    def window(o):
        o["chosen"]["alpha"] = 1.5

    def identity(o):
        r = next(r for r in o["selection"] if not r["error"])
        r["elbo"] = repr(float(np.nextafter(float(r["elbo"]), np.inf)))

    def argmax(o):
        r = next(r for r in o["selection"]
                 if not r["error"] and float(r["lam"]) != o["chosen"]["alpha"])
        o["chosen"]["alpha"] = float(r["lam"])

    def band(o):
        o["band"][7, [2, 3]] = o["band"][7, [3, 2]]

    def truth(o):
        o["band"][100, 4] += 1e-6

    def rerun(o):
        data = bytearray(o["raw"]["band.csv"])
        data[-3] = ord("7") if data[-3] != ord("7") else ord("8")
        o["raw"]["band.csv"] = bytes(data)

    return [("window", window), ("identity", identity), ("argmax", argmax),
            ("band", band), ("truth", truth), ("rerun", rerun)]


# -- tune-se -----------------------------------------------------------------

SE_N, SE_SPAN, SE_M = 300, 30.0, 150
SE_TRUE = (1.0, 2.0, 0.5)  # sigma, nu, tau of the generating draw
# the tuner's evaluation count depends on the draw (up to 1.6x here), so
# each round fits several draws and the run reports their median
SE_DRAWS = 3
BOUND_ATOL = 1e-6


def se_kernel(x: np.ndarray, nu: float, tau: float) -> np.ndarray:
    d = x[:, None] - x[None, :]
    return nu * np.exp(-(d / tau) ** 2)


def collapsed_bound(x, y, sigma, nu, tau, m) -> float:
    """Collapsed bound of the top-m eigenfeatures, from a full ``eigh``.

    log N(y; 0, Q + sigma^2 I) - tr(K - Q) / (2 sigma^2), with
    Q = V diag(lam) V' the top-m eigenpart of K, evaluated in the
    eigenbasis: Q + sigma^2 I has eigenvalues lam + sigma^2 on range(V)
    and sigma^2 elsewhere.
    """
    K = se_kernel(x, nu, tau)
    vals, vecs = np.linalg.eigh(K)
    lam = np.clip(vals[::-1][:m], 0.0, None)
    proj = vecs[:, ::-1][:, :m].T @ y
    s2 = sigma * sigma
    n = y.size
    logdet = float(np.sum(np.log(lam + s2))) + (n - m) * math.log(s2)
    quad = float(y @ y) / s2 - float(np.sum(proj ** 2 * (1.0 / s2
                                                        - 1.0 / (lam + s2))))
    fit = -0.5 * (n * math.log(2.0 * math.pi) + logdet + quad)
    return fit - 0.5 * (float(np.trace(K)) - float(lam.sum())) / s2


def log_evidence(x, y, sigma, nu, tau) -> float:
    """log N(y; 0, K + sigma^2 I) from a Cholesky factor."""
    L = np.linalg.cholesky(se_kernel(x, nu, tau) + sigma * sigma
                           * np.eye(y.size))
    z = np.linalg.solve(L, y)
    return float(-0.5 * z @ z - np.sum(np.log(np.diag(L)))
                 - 0.5 * y.size * math.log(2.0 * math.pi))


class TuneSE:
    name = "tune-se"
    draws = SE_DRAWS

    def prepare(self, seed: int, work: Path) -> None:
        self.inputs = []  # (csv path, x, y) per draw
        for draw in range(self.draws):
            rng = np.random.default_rng([seed, draw])
            sigma, nu, tau = SE_TRUE
            x = np.sort(rng.uniform(0.0, SE_SPAN, size=SE_N))
            L = np.linalg.cholesky(se_kernel(x, nu, tau)
                                   + 1e-10 * np.eye(SE_N))
            y = L @ rng.normal(size=SE_N) + sigma * rng.normal(size=SE_N)
            path = work / f"series{draw}.csv"
            with open(path, "w", newline="\n") as fh:
                fh.write("t_sec,speed_kmh\n")
                for a, b in zip(x, y):
                    fh.write(f"{a:.17g},{b:.17g}\n")
            self.inputs.append((path, x, y))

    def argv(self, out_dir: Path, draw: int) -> list[str]:
        return ["fit", "--data", str(self.inputs[draw][0]), "--m", str(SE_M),
                "--out", str(out_dir)]

    def load(self, out_dir: Path, draw: int) -> dict:
        report = json.loads((out_dir / "report.json").read_text())
        chosen = report["chosen"]
        return {"draw": draw,
                "triple": (chosen["sigma"], chosen["nu"], chosen["tau"]),
                "m": chosen["m"],
                "bound": report["selection"][0]["elbo_lambda"]}

    def own_bound(self, draw: int, triple: tuple) -> float:
        _, x, y = self.inputs[draw]
        return collapsed_bound(x, y, *triple, SE_M)

    def own_evidence(self, draw: int, triple: tuple) -> float:
        _, x, y = self.inputs[draw]
        return log_evidence(x, y, *triple)

    def check(self, out: dict) -> list[str]:
        problems = []
        if out["m"] != SE_M:
            problems.append(f"match: m={out['m']} != {SE_M}")
        own = self.own_bound(out["draw"], out["triple"])
        evidence = self.own_evidence(out["draw"], out["triple"])
        true_bound = self.own_bound(out["draw"], SE_TRUE)
        bound = out["bound"]
        if not abs(bound - own) <= BOUND_ATOL:
            problems.append(f"match: reported bound {bound!r} vs own "
                            f"{own!r} at {out['triple']}")
        if not bound <= evidence + BOUND_ATOL:
            problems.append(f"evidence: bound {bound!r} above the exact "
                            f"log evidence {evidence!r}")
        if not bound >= true_bound - BOUND_ATOL:
            problems.append(f"generating: bound {bound!r} below the bound "
                            f"{true_bound!r} at the generating triple")
        return problems

    def same(self, a: dict, b: dict) -> list[str]:
        return []

    def perturbations(self) -> list:
        return _se_perturbations(self)


def _se_perturbations(workload: TuneSE):
    def match(o):
        o["bound"] += 1e-3

    def evidence(o):
        o["bound"] = workload.own_evidence(o["draw"], o["triple"]) + 1e-3

    def generating(o):
        sigma, nu, tau = o["triple"]
        o["triple"] = (sigma, nu, 4.0 * tau)
        o["bound"] = workload.own_bound(o["draw"], o["triple"])

    return [("match", match), ("evidence", evidence),
            ("generating", generating)]


# -- contraction-dim ---------------------------------------------------------

BETA = 1.0
N_LIST = (500, 2000, 8000)
REPLICATES = 5
SLOPE_WINDOW = 0.15
SLOPE_RTOL = 1e-9


def loglog_slope(n_list, mean_errors) -> float:
    """Least-squares slope of log error against log n."""
    u = np.log(np.asarray(n_list, dtype=float))
    v = np.log(np.asarray(mean_errors, dtype=float))
    u = u - u.mean()
    return float(u @ (v - v.mean()) / (u @ u))


class ContractionDim:
    name = "contraction-dim"
    draws = 1

    def prepare(self, seed: int, work: Path) -> None:
        self.seed = seed

    def argv(self, out_dir: Path, draw: int) -> list[str]:
        return ["contraction", "--prior", "dim", "--beta", str(BETA),
                "--n-list", ",".join(map(str, N_LIST)),
                "--replicates", str(REPLICATES), "--seed", str(self.seed),
                "--out", str(out_dir)]

    def load(self, out_dir: Path, draw: int) -> dict:
        raw = json.loads((out_dir / "contraction.json").read_text())
        return {"n_list": raw["n_list"], "slope": raw["slope"],
                "errors": np.asarray(raw["errors"], dtype=float)}

    def check(self, out: dict) -> list[str]:
        problems = []
        errors = out["errors"]
        if out["n_list"] != list(N_LIST) or errors.shape != (REPLICATES,
                                                             len(N_LIST)):
            problems.append(f"errors: shape {errors.shape} for "
                            f"n_list {out['n_list']}")
            return problems
        if not (np.all(np.isfinite(errors)) and np.all(errors > 0)):
            problems.append("errors: not all finite and positive")
        target = -BETA / (1.0 + 2.0 * BETA)
        if not abs(out["slope"] - target) <= SLOPE_WINDOW:
            problems.append(f"window: slope {out['slope']} vs target "
                            f"{target:.4f}")
        own = loglog_slope(N_LIST, errors.mean(axis=0))
        if not abs(out["slope"] - own) <= SLOPE_RTOL * abs(own):
            problems.append(f"fit: reported slope {out['slope']!r} vs own "
                            f"least squares {own!r}")
        return problems

    def same(self, a: dict, b: dict) -> list[str]:
        return []

    def perturbations(self) -> list:
        return _contraction_perturbations()


def _contraction_perturbations():
    def window(o):
        o["slope"] = -BETA / (1.0 + 2.0 * BETA) + 0.2

    def errors(o):
        o["errors"][2, 1] = -o["errors"][2, 1]

    def fit(o):
        o["slope"] *= 1.0 + 1e-6

    return [("window", window), ("errors", errors), ("fit", fit)]


WORKLOADS = {w.name: w for w in (GridPoly(), TuneSE(), ContractionDim())}
