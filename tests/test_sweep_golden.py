"""A neuronal chaos sweep keeps its output bytes.

This is the one sweep-scale check of the exact-scheme X/Y/LIMIT triple and
of the Picard solve under a rate-following thinning bound.
``tests/data/sweep_golden.json`` holds, per ``run.seed``, the sha256 of
``distances.csv`` and of each array of the solved flow (not of the npz
container).  To rewrite it from the current tree:
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
FLOW_ARRAYS = ("times", "ensemble", "lam_mean", "trunc_c")


def _digests(seed: int, out_dir: Path) -> dict:
    cfg = SimConfig.from_dict({
        "schema": 1,
        "model": {"id": "neuronal"},
        "run": {"T": 2.0, "dt": 0.05, "Ns": [32, 64, 128, 256], "replicas": 4, "seed": seed, "workers": 1},
        "init": {"kind": "uniform"},
        "limit": {"ensemble": 4096},
        "output": {"dir": str(out_dir)},
    })
    run_chaos_sweep(cfg)
    out = {"distances.csv": hashlib.sha256((out_dir / "distances.csv").read_bytes()).hexdigest()}
    with np.load(out_dir / "flow.npz", allow_pickle=False) as flow:
        for name in FLOW_ARRAYS:
            a = np.ascontiguousarray(flow[name])
            out[f"flow.{name}"] = hashlib.sha256(repr((a.dtype.str, a.shape)).encode() + a.tobytes()).hexdigest()
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_neuronal_sweep_matches_golden(seed, tmp_path):
    assert _digests(seed, tmp_path) == json.loads(GOLDEN.read_text())[str(seed)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        golden = {str(seed): _digests(seed, Path(tmp) / str(seed)) for seed in SEEDS}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
