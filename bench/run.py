"""Benchmark of the gpadapt command line: one workload per call.

Usage, from the root of a checkout:

    python3 bench/run.py --workload grid-poly --seed 1 --seconds 40 --trace 0

Each operation is one ``gpadapt.cli.main`` call in a fresh Python process
(``bench/child.py``) that imports the package from ``src/`` of the checkout,
so every operation pays what a command-line user pays. A round is one
operation per input draw of the workload (``draws``). Rounds of operations
repeat for about ``--seconds``: another round starts only if the run then
ends nearer to ``--seconds`` than it would by stopping. Every output is
checked (``bench/workloads.py``), the checks are then shown to reject a
perturbed copy of the first output, and the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the medians of ``setup_s``, ``run_s`` and
``peak_rss_mb`` over the operations. With ``--trace 1`` each round holds
one untraced and one traced operation per draw, and the metrics are the
medians of the per-layer self times and counts of the traced operations,
their ``run_s``, and the tracing overhead (traced minus untraced median
``run_s``). Metric
names and units come from ``BENCHMARK.json``. ``--workload all`` runs every
workload in turn and prints one JSON line for each.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
OP_TIMEOUT_S = 170.0
WORK_DIR = ".bench_out"


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # the child imports gpadapt from src/ only
    # BLAS threads per operation: the CPUs this process may run on
    threads = str(len(os.sched_getaffinity(0)))
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = threads
    return env


def run_op(root: Path, workload, draw: int, op_dir: Path,
           trace: bool) -> dict | None:
    """One CLI call on input ``draw`` in a fresh process; None if it failed."""
    op_dir.mkdir(parents=True)
    out_dir = op_dir / "out"
    spec = {
        "root": str(root),
        "argv": workload.argv(out_dir, draw),
        "trace": trace,
        "out_dir": str(out_dir),
        "stdout": str(op_dir / "stdout.txt"),
        "result": str(op_dir / "result.json"),
        "spans": str(op_dir / "spans.json"),
    }
    spec_path = op_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(spec_path),
             repr(t_spawn)],
            env=child_env(), timeout=OP_TIMEOUT_S, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
    except subprocess.TimeoutExpired:
        print(f"{op_dir.name}: timed out after {OP_TIMEOUT_S:.0f}s",
              file=sys.stderr)
        return None
    result_path = op_dir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        print(f"{op_dir.name}: exit {proc.returncode}\n{proc.stdout}",
              file=sys.stderr)
        return None
    result = json.loads(result_path.read_text())
    if result["code"] != 0:
        stdout = Path(spec["stdout"]).read_text()
        print(f"{op_dir.name}: gpadapt exited {result['code']}\n{stdout}",
              file=sys.stderr)
        return None
    result["out_dir"] = out_dir
    result["draw"] = draw
    return result


def selftest(workload, out: dict) -> list[str]:
    """Each check must reject its perturbed copy of a passing output."""
    problems = []
    for name, change in workload.perturbations():
        bad = copy.deepcopy(out)
        change(bad)
        found = workload.check(bad) + workload.same(out, bad)
        if not any(p.startswith(name + ":") for p in found):
            problems.append(f"selftest: check {name!r} accepted a "
                            "perturbed output")
    return problems


def check_ops(workload, ops: list[dict]) -> list[str]:
    problems = []
    first: dict[int, dict] = {}  # per input draw
    for op in ops:
        try:
            out = workload.load(op["out_dir"], op["draw"])
        except (OSError, KeyError, ValueError, IndexError) as exc:
            problems.append(f"load: {op['out_dir']}: {exc!r}")
            continue
        problems += workload.check(out)
        if op["draw"] in first:
            problems += workload.same(first[op["draw"]], out)
        else:
            first[op["draw"]] = out
    if first:
        problems += selftest(workload, first[min(first)])
    return problems


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def run_workload(root: Path, config: dict, workload, seed: int,
                 seconds: float, trace: bool) -> dict:
    work = root / WORK_DIR / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload.prepare(seed, work)

    plain: list[dict] = []
    traced: list[dict] = []
    kinds = (False, True) if trace else (False,)
    attempted = rounds = 0
    start = time.monotonic()
    while True:
        for draw in range(workload.draws):
            for kind in kinds:
                tag = "traced" if kind else "plain"
                op_dir = work / f"op{attempted:03d}-draw{draw}-{tag}"
                op = run_op(root, workload, draw, op_dir, kind)
                attempted += 1
                if op is not None:
                    (traced if kind else plain).append(op)
        rounds += 1
        elapsed = time.monotonic() - start
        # one more round only if the run then ends nearer to `seconds`
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            break
    failed = attempted - len(plain) - len(traced)

    problems = check_ops(workload, plain + traced)
    for p in problems:
        print(f"{workload.name}: {p}", file=sys.stderr)

    if not plain or (trace and not traced):
        raise SystemExit(f"{workload.name}: every operation failed")
    if trace:
        values = {"trace.run_s": median([op["run_s"] for op in traced]),
                  "trace.overhead_s": median([op["run_s"] for op in traced])
                  - median([op["run_s"] for op in plain])}
        for m in config["per_layer"]:
            if m["name"] not in values:
                values[m["name"]] = median(
                    [op["layers"].get(m["name"], 0.0) for op in traced])
        listed = config["per_layer"]
    else:
        values = {m["name"]: median([op[m["name"]] for op in plain])
                  for m in config["end_to_end"]}
        listed = config["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = Path.cwd().resolve()
    if not (root / "src" / "gpadapt" / "__init__.py").is_file():
        print(f"no gpadapt sources under {root / 'src'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    config = json.loads((root / "BENCHMARK.json").read_text())

    names = (sorted(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    for name in names:
        result = run_workload(root, config, workloads.WORKLOADS[name],
                              args.seed, args.seconds, bool(args.trace))
        for metric, v in result["metrics"].items():
            print(f"{name}  {metric} = {v['value']:.6g} {v['unit']}")
        print(f"{name}  attempted={result['attempted']} "
              f"failed={result['failed']} correct={result['correct']}")
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
