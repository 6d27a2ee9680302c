"""Neuronal diagnostics keep their output bytes.

``diagnostics.csv`` of a small neuronal ``run_diagnostics`` (the X system alone, exact scheme, one d=1
row evaluated per candidate) at rate exponents 2 (the default) and 1.5: the event loop reads the
rate of a d=1 row in Python floats at 2 and through numpy's power loop at 1.5.
``tests/data/diagnostics_golden.json`` holds the file's sha256 per exponent and ``run.seed``.  To
rewrite it from the current tree: ``PYTHONPATH=src python tests/test_diagnostics_golden.py``.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from mfjump.harness import SimConfig, run_diagnostics

GOLDEN = Path(__file__).parent / "data" / "diagnostics_golden.json"
EXPONENTS = (2.0, 1.5)
SEEDS = (3, 11)


def _digest(alpha: float, seed: int, out_dir: Path) -> str:
    cfg = SimConfig.from_dict({
        "schema": 1,
        "model": {"id": "neuronal", "params": {"rate_exponent": alpha}},
        "run": {"T": 2.0, "dt": 0.05, "Ns": [16, 64, 256], "replicas": 2, "seed": seed, "workers": 1},
        "init": {"kind": "uniform"},
        "diagnostics": {"moment_powers": [2, 4]},
        "output": {"dir": str(out_dir)},
    })
    run_diagnostics(cfg)
    return hashlib.sha256((out_dir / "diagnostics.csv").read_bytes()).hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("alpha", EXPONENTS)
def test_neuronal_diagnostics_match_golden(alpha, seed, tmp_path):
    assert _digest(alpha, seed, tmp_path) == json.loads(GOLDEN.read_text())[str(alpha)][str(seed)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        golden = {str(a): {str(s): _digest(a, s, Path(tmp) / f"{a}-{s}") for s in SEEDS} for a in EXPONENTS}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
