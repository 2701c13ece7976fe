"""One command-line call of ``gpadapt`` in a fresh process.

Usage: ``python3 bench/child.py SPEC.json T_SPAWN``. The spec names the
checkout root, the CLI arguments, whether to trace and where to write the
result; ``T_SPAWN`` is the parent's ``time.monotonic()`` just before it
started this process (the clock is shared by all processes on Linux).

The result file holds ``setup_s`` (process start until ``gpadapt.cli`` is
imported), ``run_s`` (the ``gpadapt.cli.main`` call), ``peak_rss_mb`` (this
process's peak resident set), the exit code and, when traced, the per-layer
metrics, including the bytes written under the output directory. Spans go to
their own file once the call has returned.
"""

import contextlib
import json
import resource
import sys
import time
from pathlib import Path


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    root = Path(spec["root"])
    src = root / "src"
    sys.path.insert(0, str(src))
    import gpadapt.cli

    ready = time.monotonic()
    package = Path(gpadapt.__file__).resolve()
    if src.resolve() not in package.parents:
        print(f"gpadapt imported from {package}, not from {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)

    with open(spec["stdout"], "w") as out, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        start = time.perf_counter()
        code = gpadapt.cli.main(spec["argv"])
        run_s = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "code": code,
        "setup_s": ready - float(sys.argv[2]),
        "run_s": run_s,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    if tracer is not None:
        layers = spans.layer_metrics(tracer)
        layers["experiments.artifact_bytes"] = _dir_bytes(
            Path(spec["out_dir"]))
        result["layers"] = layers
        spans.write_spans(tracer, Path(spec["spans"]))
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
