"""Command-line front end.

Subcommands mirror the experiment drivers one-to-one; every flag can also
be set in a flat ``key=value`` config file, with explicit flags winning.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .basis import synth_signal
from .errors import ConditioningError
from .experiments import (
    DEFAULT_NOISE_SQ,
    ExperimentConfig,
    RunReport,
    contraction_study,
    emit_report,
    load_running_csv,
    run_continuous,
    run_experiment,
    simulate_poly,
)

_CONFIG_FIELDS = {
    "experiment", "n", "seed", "prior", "features", "beta_minus",
    "beta_plus", "c_m", "m", "sigma_sq", "query_points", "data_path",
    "out_dir",
}


def _coerce(value: str):
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def load_config_file(path) -> dict:
    """Flat ``key=value`` lines; ``#`` comments and blank lines ignored."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"no such config file: {p}")
    out: dict = {}
    for lineno, raw in enumerate(p.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        out[key] = _coerce(value)
    return out


def _sigma2(text: str):
    if text == "estimate":
        return text
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            'expected a number or "estimate"') from None


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--prior", choices=("poly", "exp", "dim"), default=None)
    sub.add_argument("--features", choices=("population", "sample"),
                     default=None)
    sub.add_argument("--cm", type=float, default=None,
                     help="feature-count multiplier")
    sub.add_argument("--sigma2", type=_sigma2, default=None,
                     help='noise variance, or "estimate"')
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument("--config", default=None, help="key=value config file")


def _build_config(args: argparse.Namespace, **extra) -> ExperimentConfig:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    flag_to_field = {
        "n": "n", "seed": "seed", "prior": "prior", "features": "features",
        "cm": "c_m", "sigma2": "sigma_sq", "out": "out_dir",
        "data": "data_path", "m": "m", "experiment": "experiment",
    }
    for flag, fieldname in flag_to_field.items():
        v = getattr(args, flag, None)
        if v is not None:
            values[fieldname] = v
    values.update({k: v for k, v in extra.items() if v is not None})
    return ExperimentConfig(**values)


def _print_chosen(report: RunReport) -> None:
    parts = [f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
             for k, v in report.chosen.items()]
    print("chosen:", ", ".join(parts))
    if report.l2_error is not None:
        print(f"l2_error={report.l2_error:.6g} coverage={report.coverage:.3f}")
    print(f"wall_time={report.wall_time:.2f}s")


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _build_config(args, experiment="simulate")
    s2 = DEFAULT_NOISE_SQ if config.estimate_noise else config.sigma_sq
    data, spec = simulate_poly(config.n, config.seed, s2)
    out = Path(config.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    path = out / "data.csv"
    truth = synth_signal(spec, data.x)
    with open(path, "w", newline="\n") as fh:
        fh.write("x,y,truth\n")
        for i in range(data.n):
            fh.write(f"{data.x[i]:.17g},{data.y[i]:.17g},{truth[i]:.17g}\n")
    print(f"wrote {path} (n={data.n}, seed={config.seed}, sigma_sq={s2:g})")
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    report = run_experiment(_build_config(args))
    _print_chosen(report)
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    report = run_continuous(_build_config(args))
    _print_chosen(report)
    return 0


def _cmd_running(args: argparse.Namespace) -> int:
    config = _build_config(args, experiment="running")
    if config.data_path is None:
        raise ValueError("running requires --data (CSV of t_sec,speed_kmh)")
    data = load_running_csv(config.data_path)
    print(f"n={data.n}")
    report = run_continuous(config, data=data)
    _print_chosen(report)
    return 0


def _cmd_contraction(args: argparse.Namespace) -> int:
    n_list = tuple(int(s) for s in args.n_list.split(","))
    study = contraction_study(args.prior, args.beta, n_list, args.replicates,
                              args.seed, sigma_sq=args.sigma2,
                              workers=args.workers)
    print(f"slope={study.slope:.4f} target={study.target:.4f} "
          f"se={study.slope_se:.4f}")
    for n, err in zip(study.n_list, study.mean_errors):
        print(f"  n={n}: mean_error={err:.6g}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        payload = {
            "family": study.family,
            "beta_true": study.beta_true,
            "n_list": list(study.n_list),
            "errors": study.errors.tolist(),
            "mean_errors": study.mean_errors.tolist(),
            "slope": study.slope,
            "slope_se": study.slope_se,
            "target": study.target,
        }
        path = out / "contraction.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"wrote {path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    report = RunReport.from_json(Path(args.input).read_text())
    formats = ("csv", "svg") if args.format == "both" else (args.format,)
    for fmt in formats:
        for path in emit_report(report, fmt, args.out or "."):
            print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpadapt",
        description="Adaptive variational regression experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write a synthetic benchmark CSV")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("select", help="grid selection pipeline")
    _add_common(p)
    p.add_argument("--data", default=None, help="input CSV (t_sec,speed_kmh)")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("fit", help="continuous kernel tuning")
    _add_common(p)
    p.add_argument("--data", default=None, help="input CSV (t_sec,speed_kmh)")
    p.add_argument("--m", type=int, default=None, help="feature count")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("running", help="tune on a speed series CSV")
    _add_common(p)
    p.add_argument("--data", required=True, help="input CSV (t_sec,speed_kmh)")
    p.add_argument("--m", type=int, default=None, help="feature count")
    p.set_defaults(func=_cmd_running)

    # the study simulates its own data at a fixed noise variance; without
    # abbreviations a common flag such as --n cannot pass as --n-list
    p = sub.add_parser("contraction", help="error-vs-n rate study",
                       allow_abbrev=False)
    p.add_argument("--prior", choices=("poly", "exp", "dim"), default="dim")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma2", type=float, default=0.25,
                   help="noise variance of the simulated data")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--beta", type=float, required=True,
                   help="true smoothness of the synthetic signal")
    p.add_argument("--n-list", default="500,2000,8000",
                   help="comma-separated sample sizes")
    p.add_argument("--replicates", type=int, default=10)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_contraction)

    p = sub.add_parser("report", help="re-emit artifacts from a report JSON")
    p.add_argument("--input", required=True, help="path to report.json")
    p.add_argument("--format", choices=("csv", "svg", "both"),
                   default="both")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConditioningError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
