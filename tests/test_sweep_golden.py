"""Chaos sweeps keep their output bytes.

These are the sweep-scale checks of the coupled X/Y/LIMIT triple and of the
Picard solve.  The neuronal sweeps run the exact scheme under a
rate-following thinning bound.  The lipschitz-demo sweeps run in d=1 under
the model's declared rate bound, so every cell replays a sub-step grid drawn
before the run and steps the Euler triple; at ``dt`` 0.5 a cell is one
sub-step, in which X accepts more candidates than one batch of mark rows
holds at N = 256.  ``tests/data/sweep_golden.json`` holds, per case, the
sha256 of ``distances.csv`` and of each array of the solved flow (not of the
npz container).  To rewrite it from the current tree:
``PYTHONPATH=src python tests/test_sweep_golden.py``.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from mfjump.harness import SimConfig, run_chaos_sweep

GOLDEN = Path(__file__).parent / "data" / "sweep_golden.json"
SEEDS = (20240801, 7, 12)
LIPSCHITZ_RUNS = {
    "lipschitz-demo-dt0.01": {"T": 0.5, "dt": 0.01, "Ns": [16, 64, 256], "replicas": 4, "seed": 7},
    "lipschitz-demo-dt0.5": {"T": 1.0, "dt": 0.5, "Ns": [64, 128, 256], "replicas": 4, "seed": 12},
}
FLOW_ARRAYS = ("times", "ensemble", "lam_mean", "trunc_c")


def _config(case: str) -> dict:
    if case in LIPSCHITZ_RUNS:
        return {
            "model": {"id": "lipschitz-demo"},
            "run": LIPSCHITZ_RUNS[case],
            "init": {"kind": "gauss", "mean": [0.5], "std": 0.5},
            "limit": {"ensemble": 4096, "picard_max_iter": 4},
        }
    return {
        "model": {"id": "neuronal"},
        "run": {"T": 2.0, "dt": 0.05, "Ns": [32, 64, 128, 256], "replicas": 4, "seed": int(case)},
        "init": {"kind": "uniform"},
        "limit": {"ensemble": 4096},
    }


def _digests(case: str, out_dir: Path) -> dict:
    cfg = _config(case)
    cfg["run"] = dict(cfg["run"], workers=1)
    run_chaos_sweep(SimConfig.from_dict({"schema": 1, **cfg, "output": {"dir": str(out_dir)}}))
    out = {"distances.csv": hashlib.sha256((out_dir / "distances.csv").read_bytes()).hexdigest()}
    with np.load(out_dir / "flow.npz", allow_pickle=False) as flow:
        for name in FLOW_ARRAYS:
            a = np.ascontiguousarray(flow[name])
            out[f"flow.{name}"] = hashlib.sha256(repr((a.dtype.str, a.shape)).encode() + a.tobytes()).hexdigest()
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_neuronal_sweep_matches_golden(seed, tmp_path):
    assert _digests(str(seed), tmp_path) == json.loads(GOLDEN.read_text())[str(seed)]


@pytest.mark.parametrize("case", LIPSCHITZ_RUNS)
def test_lipschitz_demo_sweep_matches_golden(case, tmp_path):
    assert _digests(case, tmp_path) == json.loads(GOLDEN.read_text())[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        golden = {case: _digests(case, Path(tmp) / case) for case in (*map(str, SEEDS), *LIPSCHITZ_RUNS)}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
