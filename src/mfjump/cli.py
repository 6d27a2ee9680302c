"""Command line entry points.

Exit codes: 0 success; 1 error or partial sweep; validate maps its verdict
to 0 (pass), 2 (fail), 3 (indeterminate).  Input the library rejects
(``InvalidInputError``, ``ConfigError``) and a partial sweep (``SweepError``:
the good cells' outputs are written) print ``mfjump <command>: <reason>`` as
one stderr line, and ``main`` returns 1.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np
import yaml

from .drivers import InvalidInputError, make_driver_bundle
from .harness import SimConfig, SweepError, run_chaos_sweep, run_diagnostics, run_validate, save_jumplog_csv, save_paths_csv
from .metrics import w1_assignment
from .models import ProbeConfig
from .particle import simulate
from .zoo import build, model_ids


def _load_config(args) -> SimConfig:
    config = SimConfig.from_file(args.config)
    return config.with_overrides(seed=args.seed, workers=args.workers, out=args.out)


def _cmd_validate(args) -> int:
    params = {}
    for kv in args.param or []:
        key, sep, val = kv.partition("=")
        if not sep:
            raise SystemExit(f"--param expects key=value, got {kv!r}")
        params[key] = yaml.safe_load(val)
    probe = ProbeConfig(budget=args.budget) if args.budget is not None else None
    report = run_validate(args.model, params, probe)
    print(report.summary())
    return {"pass": 0, "fail": 2, "indeterminate": 3}[report.verdict]


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    spec = build(config.model.id, config.model.params)
    n = int(config.run.Ns[0])
    bundle = make_driver_bundle(config.run.seed, 0, n)
    paths = simulate(
        args.system, spec, n, config.run.T, config.run.dt, bundle,
        init=config.init, scheme=config.run.scheme,
        policy=config.stepping,
    )
    outdir = Path(config.output.dir)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / f"paths_{args.system}.csv", "w") as fh:
        save_paths_csv(paths, fh)
    with open(outdir / f"jumplog_{args.system}.csv", "w") as fh:
        save_jumplog_csv(paths, fh)
    print(f"simulated system {args.system}: N={n} T={config.run.T} jumps={paths.jump_count}")
    print(f"outputs in {outdir}")
    return 0


def _cmd_chaos_sweep(args) -> int:
    config = _load_config(args)
    report = run_chaos_sweep(config, force=args.force)
    for pair, f in report.fits.items():
        print(
            f"{pair}: slope={f.slope:+.3f} (se {f.slope_se:.3f})  R2={f.r2:.3f}  "
            f"CI=({f.slope_ci[0]:+.3f}, {f.slope_ci[1]:+.3f})"
        )
    print(f"outputs in {config.output.dir}")
    return 0


def _cmd_diagnostics(args) -> int:
    config = _load_config(args)
    bundle = run_diagnostics(config)
    for (n, p), v in bundle.moment_verdicts.items():
        print(
            f"N={n} moment p={p}: slope={v['slope_mean']:+.4g} "
            f"CI=({v['slope_ci'][0]:+.4g}, {v['slope_ci'][1]:+.4g}) -> {v['verdict']}"
        )
    for n, tail in bundle.jump_tails.items():
        for h, pr, lo, hi in zip(tail.thresholds, tail.tail_prob, tail.wilson_lo, tail.wilson_hi):
            print(f"N={n} P(jumps/N >= {h:.4g}) = {pr:.4g}  Wilson=({lo:.4g}, {hi:.4g})")
    print(f"outputs in {config.output.dir}")
    return 0


def _read_samples(path: str) -> np.ndarray:
    """One sample per row; only the first non-comment row may be a header."""
    rows = []
    header_ok = True
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            try:
                row = [float(p) for p in parts]
            except ValueError:
                if header_ok:
                    header_ok = False
                    continue
                raise SystemExit(f"{path}, line {lineno}: not a row of numbers: {line!r}") from None
            header_ok = False
            if rows and len(row) != len(rows[0]):
                raise SystemExit(f"{path}, line {lineno}: {len(row)} columns, the first row has {len(rows[0])}")
            rows.append(row)
    if not rows:
        raise SystemExit(f"no numeric rows in {path}")
    return np.asarray(rows)


def _cmd_wasserstein(args) -> int:
    a = _read_samples(args.file_a)
    b = _read_samples(args.file_b)
    if a.shape != b.shape:
        raise SystemExit(f"sample shapes differ: {a.shape} vs {b.shape}")
    print(repr(w1_assignment(a, b)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfjump",
        description="mean-field particle systems with simultaneous jumps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="YAML config file")
        p.add_argument("--seed", type=int, default=None, help="override run.seed")
        p.add_argument("--workers", type=int, default=None, help="override run.workers")
        p.add_argument("--out", default=None, help="override output.dir")

    p = sub.add_parser("validate", help="probe a zoo model's declared assumptions")
    p.add_argument("--model", required=True, choices=model_ids())
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.add_argument("--budget", type=int, default=None, help="probe budget")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("simulate", help="simulate one system and write path CSVs")
    add_common(p)
    p.add_argument("--system", choices=("X", "Y"), default="X")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("chaos-sweep", help="N-sweep of coupled distances with rate fit")
    add_common(p)
    p.add_argument("--force", action="store_true", help="run even if validation fails")
    p.set_defaults(fn=_cmd_chaos_sweep)

    p = sub.add_parser("diagnostics", help="moment series and jump-count tails")
    add_common(p)
    p.set_defaults(fn=_cmd_diagnostics)

    p = sub.add_parser("wasserstein", help="exact W1 between two sample files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(fn=_cmd_wasserstein)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InvalidInputError, SweepError) as exc:  # ConfigError included: the reason, not a traceback
        print(f"mfjump {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
