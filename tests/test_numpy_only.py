"""Every command form and the n x n references run on numpy alone: no
scipy module is loaded.

The package declares numpy as its one run-time dependency; scipy is a
test extra, the reference for ported routines only. Importing scipy costs
more start-up time than the benchmark commands spend on their work, so
no path may reach it: ``simulate``, ``select`` for each prior and both
feature classes, ``fit``, ``contraction`` and ``report``, the tuner under
both objectives, the n x n kernel-form references and the eigen-factor
through either of its Grams. Each check runs in a fresh interpreter,
since this test process has scipy loaded.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import json, sys
sys.path.insert(0, {src!r})
import gpadapt.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

after_import = scipy_modules()
codes = [gpadapt.cli.main(argv) for argv in {argvs!r}]
print(json.dumps({{"after_import": after_import, "codes": codes,
                   "after_runs": scipy_modules()}}))
"""


def _se_csv(path: Path, n: int = 120) -> Path:
    """A squared-exponential draw (nu = 2, tau = 0.5, noise sd 1)."""
    rng = np.random.default_rng(7)
    x = np.sort(rng.uniform(0.0, 12.0, n))
    K = 2.0 * np.exp(-((x[:, None] - x[None, :]) / 0.5) ** 2)
    y = (np.linalg.cholesky(K + 1e-10 * np.eye(n)) @ rng.standard_normal(n)
         + rng.standard_normal(n))
    path.write_text("t_sec,speed_kmh\n" + "".join(
        f"{a:.17g},{b:.17g}\n" for a, b in zip(x, y)))
    return path


def test_commands_load_no_scipy(tmp_path):
    argvs = [
        ["select", "--n", "2000", "--seed", "3", "--prior", "poly",
         "--features", "population", "--sigma2", "estimate",
         "--out", str(tmp_path / "select")],
        ["fit", "--data", str(_se_csv(tmp_path / "series.csv")),
         "--m", "40", "--out", str(tmp_path / "fit")],
        # m under n/8: the tuner needs no subset eigensolver
        ["fit", "--data", str(tmp_path / "series.csv"), "--m", "10",
         "--out", str(tmp_path / "fit-small")],
        # a known noise pins sigma by equal bounds
        ["fit", "--data", str(tmp_path / "series.csv"), "--m", "40",
         "--sigma2", "1.0", "--out", str(tmp_path / "fit-fixed")],
        # five replicates is the study's minimum
        ["contraction", "--prior", "dim", "--beta", "1.0",
         "--n-list", "100,200,400", "--replicates", "5", "--seed", "3",
         "--out", str(tmp_path / "contraction")],
        ["contraction", "--prior", "poly", "--beta", "1.0",
         "--n-list", "100,200,400", "--replicates", "5", "--seed", "3",
         "--out", str(tmp_path / "contraction-poly")],
        ["simulate", "--n", "200", "--seed", "3",
         "--out", str(tmp_path / "simulate")],
        ["select", "--n", "500", "--seed", "3", "--prior", "exp",
         "--out", str(tmp_path / "select-exp")],
        ["select", "--n", "500", "--seed", "3", "--prior", "dim",
         "--sigma2", "0.1", "--out", str(tmp_path / "select-dim")],
        # J = 2000 series terms against the n = 200 simulated rows: the
        # n x n Gram of the wide factor, solved by numpy's eigh
        ["select", "--data", str(tmp_path / "simulate" / "data.csv"),
         "--features", "sample", "--sigma2", "0.05",
         "--out", str(tmp_path / "select-sample")],
        ["report", "--input", str(tmp_path / "select" / "report.json"),
         "--out", str(tmp_path / "report")],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE.format(src=str(SRC), argvs=argvs)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["after_import"] == []
    assert result["codes"] == [0] * len(argvs)
    assert result["after_runs"] == []


_EVIDENCE_PROBE = """
import json, sys
sys.path.insert(0, {src!r})
import numpy as np
from gpadapt.exact import (Dataset, SquaredExponential, exact_posterior,
                           log_evidence)
from gpadapt.inducing import _EigenFactor, feature_stats
from gpadapt.meanfield import mf_fit, mf_kl_exact
from gpadapt.select import coarse_init, tune_continuous

rng = np.random.default_rng(7)
x = np.sort(rng.uniform(0.0, 12.0, 120))
K = 2.0 * np.exp(-((x[:, None] - x[None, :]) / 0.5) ** 2)
y = (np.linalg.cholesky(K + 1e-10 * np.eye(x.size))
     @ rng.standard_normal(x.size) + rng.standard_normal(x.size))
data = Dataset(x, y, 1.0)
bounds = [(0.05, 20.0), (0.05, 200.0), (0.02, 10.0)]
tau0 = coarse_init(data, 40, bounds, "elbo")
rep = tune_continuous(data, 40, tau0, bounds, "evidence", 60)
values = [rep.posterior(np.linspace(0.0, 12.0, 50)).var]
# the n x n references
kern = SquaredExponential(2.0, 0.5)
values.append(exact_posterior(kern, data, np.linspace(0.0, 12.0, 9)).var)
values.append(log_evidence(kern, data))
xs = x * (2.0 * np.pi / 12.0)
stats = feature_stats(xs, y, 7, 7)
values.append(mf_kl_exact(mf_fit(stats, 1.0), stats, 1.0))
# the eigen-factor through L'L (tall, r < n) and through L L' (wide, r > n)
for r in (30, 200):
    L = rng.standard_normal((x.size, r))
    values.append(_EigenFactor.from_factor(L, y, 20, float(np.vdot(L, L)))
                  .bound(1.0, 1.0))
print(json.dumps({{"finite": all(bool(np.all(np.isfinite(v)))
                                 for v in values),
                   "scipy": sorted(m for m in sys.modules
                                   if m.split(".")[0] == "scipy")}}))
"""


def test_evidence_tune_loads_no_scipy():
    # the tuner under the evidence objective, the n x n references and
    # the eigen-factor's two Grams
    proc = subprocess.run(
        [sys.executable, "-c", _EVIDENCE_PROBE.format(src=str(SRC))],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"finite": True, "scipy": []}
