"""The capped-jump families' coefficients, pinned bit for bit.

``tests/data/zoo_golden.json`` holds sha256 digests of the five
coefficients (plus the main-jump mark mean and the declared constants) of
lipschitz-demo and convex-potential for every case in ``CASES``, taken from
the code that built each family on its own.  To rewrite it from the
current tree: ``PYTHONPATH=src python tests/test_zoo_coefficients.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from mfjump.drivers import StreamKey, StreamState
from mfjump.models import EmpiricalMeasure
from mfjump.zoo import build

GOLDEN = Path(__file__).parent / "data" / "zoo_golden.json"

_OTHER = {"interaction": 0.25, "sigma0": 0.7, "rate_base": 0.5, "rate_slope": 1.25,
          "rate_cap_radius": 1.5, "jump_scale": 0.8, "collateral_amp": 0.9}

# name: (model id, params)
CASES = {
    f"{model}-d{d}-{label}": (model, {"dim": d, **extra})
    for model, other in (("lipschitz-demo", {"mean_reversion": 2.0}), ("convex-potential", {"exponent": 3}))
    for d in (1, 3)
    for label, extra in (("default", {}), ("other", {**_OTHER, **other}))
}

_ROWS = 37  # points per evaluation; some lie beyond the rate cap radius


def _digest(values) -> str:
    a = np.ascontiguousarray(values, dtype=np.float64)
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


def _digests(name) -> dict:
    model, params = CASES[name]
    spec = build(model, params)
    d = spec.dim
    s = StreamState(StreamKey(31, 0, 0, "init").hash64())
    x = 4.0 * (2.0 * s.uniforms(_ROWS * d) - 1.0).reshape(_ROWS, d)
    m = EmpiricalMeasure(2.0 * (2.0 * s.uniforms(8 * d) - 1.0).reshape(8, d))
    h1, h2 = s.uniforms(_ROWS), s.uniforms(_ROWS)
    meta = spec.meta
    values = {
        "drift": spec.drift(x, m),
        "diffusion": spec.diffusion(x, m),
        "rate": spec.rate(x, m),
        "main_jump": spec.main_jump(x, m, h1),
        "collateral_jump": spec.collateral_jump(x[0], x, m, h1[0], h2),
        "main_jump_mean": spec.main_jump_mean(x, m),
        "declared": [
            spec.brownian_dim, meta.lipschitz_drift, meta.lipschitz_diffusion, meta.lipschitz_jump_l1,
            meta.rate_global_bound, meta.mean_collateral_norm, meta.interaction_bound,
        ],
    }
    return {key: _digest(value) for key, value in values.items()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_capped_jump_coefficients_match_golden(name):
    assert _digests(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: _digests(name) for name in CASES}, indent=2, sort_keys=True) + "\n")
