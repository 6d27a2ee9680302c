"""Workload definitions: the config each workload generates from its seed,
its top-level call into mfjump, and the checks on that call's outputs.

Only the generated config reaches the program; the seed enters as
``run.seed``.  ``toy=True`` shrinks every size for the self-test.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

# Deterministic output files compared byte for byte across repeats of one seed.
DETERMINISTIC_FILES = ("distances.csv", "flow.npz", "diagnostics.csv")
SLOPE_WINDOW = (-0.65, -0.35)


def _chaos_d1(seed: int, toy: bool) -> dict:
    return {
        "schema": 1,
        "model": {"id": "lipschitz-demo", "params": {}},
        "run": {
            "T": 0.5, "dt": 0.05 if toy else 0.01, "scheme": "auto",
            "Ns": [16, 64, 256] if toy else [64, 256, 1024],
            "replicas": 8, "seed": seed, "workers": 2,
        },
        "init": {"kind": "gauss", "mean": [0.5], "std": 0.5},
        "limit": {"ensemble": 1024 if toy else 16384, "picard_tol": 1e-3, "picard_max_iter": 8},
    }


def _limit_d2(seed: int, toy: bool) -> dict:
    return {
        "schema": 1,
        "model": {"id": "lipschitz-demo", "params": {"dim": 2}},
        "run": {"T": 1.0 if toy else 0.3, "dt": 0.25 if toy else 0.1, "seed": seed, "workers": 1},
        "init": {"kind": "gauss", "mean": [0.5, 0.5], "std": 0.5},
        "limit": {"ensemble": 256 if toy else 16384, "picard_tol": 1e-3, "picard_max_iter": 4},
    }


def _diag_neuronal(seed: int, toy: bool) -> dict:
    return {
        "schema": 1,
        "model": {"id": "neuronal", "params": {}},
        "run": {
            "T": 1.0 if toy else 2.0, "dt": 0.05, "scheme": "auto",
            "Ns": [16, 64, 256] if toy else [256, 1024, 4096],
            "replicas": 4, "seed": seed, "workers": 1,
        },
        "init": {"kind": "uniform", "low": 0.0, "high": 1.0},
        "diagnostics": {"moment_powers": [4]},
    }


CONFIGS = {"chaos-d1": _chaos_d1, "limit-d2": _limit_d2, "diag-neuronal": _diag_neuronal}


def make_config(workload: str, seed: int, *, traced: bool = False, toy: bool = False) -> dict:
    """The generated config, with at most ``nproc`` pool workers.  A traced
    run sweeps in-process (workers 1), because spans recorded in pool
    workers are not collected."""
    cfg = CONFIGS[workload](seed, toy)
    cfg["run"]["workers"] = min(cfg["run"]["workers"], 1 if traced else os.cpu_count() or 1)
    return cfg


def write_config(cfg: dict, path: Path) -> None:
    path.write_text(yaml.safe_dump(cfg, sort_keys=True))


@dataclass
class CallResult:
    """What one top-level call produced, and the checks made on it."""

    cells: int = 0  # sweep cells attempted (or 1 for the bare solve)
    failed_cells: int = 0
    checks: dict = field(default_factory=dict)  # name -> bool
    digests: dict = field(default_factory=dict)  # output name -> sha256
    notes: dict = field(default_factory=dict)  # values behind the checks


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _finite(values) -> bool:
    arr = np.asarray(values, dtype=np.float64)
    return bool(arr.size) and bool(np.all(np.isfinite(arr)))


def _csv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[2:] if line]  # header line + column names


def run_call(workload: str, config_path: Path, outdir: Path):
    """The timed top-level call: the CLI exit status, or the solved flow for
    limit-d2.  Checks run in ``check_call`` afterwards."""
    if workload == "limit-d2":
        from mfjump.harness import SimConfig
        from mfjump.limit import solve_limit
        from mfjump.zoo import build

        config = SimConfig.from_file(config_path)
        spec = build(config.model.id, config.model.params)
        flow = solve_limit(
            spec, config.limit.ensemble, config.run.T, config.run.dt,
            seed=config.run.seed, tol=config.limit.picard_tol,
            max_iter=config.limit.picard_max_iter, scheme=config.run.scheme,
            policy=config.stepping.policy(), init=config.init.sampler(),
        )
        return flow
    from mfjump.cli import main

    command = "chaos-sweep" if workload == "chaos-d1" else "diagnostics"
    return main([command, "--config", str(config_path), "--out", str(outdir)])


def check_call(workload: str, cfg: dict, returned, outdir: Path) -> CallResult:
    """Correctness checks on one call; every failed check is a failed operation."""
    res = CallResult()
    ncells = cfg["run"]["replicas"] * len(cfg["run"]["Ns"]) if "Ns" in cfg["run"] else 1
    if isinstance(returned, Exception):
        res.cells = res.failed_cells = ncells
        res.checks["call_returned"] = False
        res.notes["error"] = f"{type(returned).__name__}: {returned}"
        return res
    if workload == "limit-d2":
        flow = returned
        res.cells = 1
        deltas = list(flow.meta["deltas"])
        res.checks["call_returned"] = True
        res.checks["finite"] = (
            _finite(deltas) and _finite(flow.ensemble) and math.isfinite(flow.meta["noise_floor"])
        )
        res.checks["picard_deltas_decrease"] = len(deltas) >= 2 and all(
            b < a for a, b in zip(deltas, deltas[1:])
        )
        digest = hashlib.sha256()
        for arr in (flow.times, flow.ensemble, flow.lam_mean, np.asarray(deltas)):
            digest.update(np.ascontiguousarray(arr).tobytes())
        res.digests["flow.arrays"] = digest.hexdigest()
        res.notes["picard_deltas"] = deltas
        return res

    res.cells = ncells
    res.checks["exit_status_0"] = returned == 0
    if workload == "chaos-d1":
        path = outdir / "distances.csv"
        rows = _csv_rows(path) if path.exists() else []
        errors = sum(1 for r in rows if "error" in r)
        res.failed_cells = ncells - len(rows) + errors
        good = [r for r in rows if "error" not in r]
        values = [[float(v) for v in r[2:]] for r in good]
        res.checks["finite"] = _finite(values)
        means = []
        for n in cfg["run"]["Ns"]:
            col = [float(r[4]) for r in good if int(r[0]) == n]
            means.append(sum(col) / len(col) if col else math.nan)
        res.checks["d_xlimit_decreases_in_N"] = all(b < a for a, b in zip(means, means[1:]))
        slope = _xlimit_slope(outdir / "report.json")
        res.checks["slope_in_window"] = SLOPE_WINDOW[0] <= slope <= SLOPE_WINDOW[1]
        res.notes["d_xlimit_slope"] = slope
    else:
        path = outdir / "diagnostics.csv"
        rows = _csv_rows(path) if path.exists() else []
        res.failed_cells = ncells - len(rows)
        res.checks["finite"] = _finite([[float(v) for v in r[2:]] for r in rows])
    for name in DETERMINISTIC_FILES:
        if (outdir / name).exists():
            res.digests[name] = _sha256_file(outdir / name)
    return res


def _xlimit_slope(report_path: Path) -> float:
    if not report_path.exists():
        return math.nan
    fits = json.loads(report_path.read_text())["report"].get("fits", {})
    fit = fits.get("d_xlimit")
    return float(fit["slope"]) if fit else math.nan


def output_bytes(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file())
