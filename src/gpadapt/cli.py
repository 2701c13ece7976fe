"""Command-line front end.

Subcommands mirror the experiment drivers one-to-one; every flag can also
be set in a flat ``key=value`` config file, with explicit flags winning.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .basis import synth_signal
from .errors import ConditioningError
from .experiments import (
    DEFAULT_NOISE_SQ,
    ExperimentConfig,
    RunReport,
    _dumps,
    contraction_study,
    emit_report,
    load_running_csv,
    run_continuous,
    run_experiment,
    simulate_poly,
)

_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)}


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


#: config flags by name; each ``dest`` is an ``ExperimentConfig`` field
_FLAGS = {
    "n": dict(type=int),
    "seed": dict(type=int),
    "prior": dict(choices=("poly", "exp", "dim")),
    "features": dict(choices=("population", "sample")),
    "cm": dict(type=float, dest="c_m", help="feature-count multiplier"),
    "sigma2": dict(type=_sigma2, dest="sigma_sq",
                   help='noise variance, or "estimate"'),
    "out": dict(dest="out_dir", help="output directory"),
    "config": dict(help="key=value config file"),
    "data": dict(dest="data_path", help="input CSV (t_sec,speed_kmh)"),
    "m": dict(type=int, help="feature count"),
}


def _add_flags(sub: argparse.ArgumentParser, names: str) -> None:
    for name in names.split():
        sub.add_argument(f"--{name}", default=None, **_FLAGS[name])


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Config file first, then every flag given; a subcommand's own
    ``experiment`` default wins over both. ``n`` and ``seed`` only shape a
    simulated draw, so either one next to a data file is refused."""
    values = load_config_file(args.config) if args.config else {}
    values.update({k: v for k, v in vars(args).items()
                   if k in _CONFIG_FIELDS and v is not None})
    if values.get("data_path") is not None:
        for key in ("n", "seed"):
            if key in values:
                raise ValueError(f"--{key} only applies to simulated data; "
                                 "it cannot be combined with --data")
    return ExperimentConfig(**values)


def _print_chosen(report: RunReport) -> None:
    parts = [f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
             for k, v in report.chosen.items()]
    print("chosen:", ", ".join(parts))
    if report.l2_error is not None:
        print(f"l2_error={report.l2_error:.6g} coverage={report.coverage:.3f}")
    print(f"wall_time={report.wall_time:.2f}s")


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _build_config(args)
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
    config = _build_config(args)
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
        path = out / "contraction.json"
        path.write_text(_dumps(asdict(study)))
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

    # each subcommand registers only the flags its driver reads; a config
    # file may still set any ExperimentConfig field
    p = sub.add_parser("simulate", help="write a synthetic benchmark CSV")
    _add_flags(p, "n seed sigma2 out config")
    p.set_defaults(func=_cmd_simulate, experiment="simulate")

    p = sub.add_parser("select", help="grid selection pipeline")
    _add_flags(p, "n seed prior features cm sigma2 out config data")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("fit", help="continuous kernel tuning")
    _add_flags(p, "n seed sigma2 out config data m")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("running", help="tune on a speed series CSV")
    _add_flags(p, "sigma2 out config m")
    p.add_argument("--data", required=True, **_FLAGS["data"])
    p.set_defaults(func=_cmd_running, experiment="running")

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
