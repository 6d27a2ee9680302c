"""Assumption probes: the batched draw against the scalar sampler it replaced,
and ``validate_model`` reports pinned by a golden file.

``tests/data/validate_golden.json`` holds ``summary()`` and ``repr`` of the
report for every case in ``CASES``, taken from the scalar-sampler code.  To
rewrite it from the current tree: ``PYTHONPATH=src python tests/test_probes.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from mfjump.cli import main as cli_main
from mfjump.drivers import PROBE_REPLICA, InvalidInputError, StreamKey, StreamState
from mfjump.models import AssumptionMeta, ModelSpec, ProbeConfig, _probe_draws, make_empirical, validate_model
from mfjump.zoo import build

GOLDEN = Path(__file__).parent / "data" / "validate_golden.json"


class _ScalarProbeSampler:
    """The probe sequence before batching: one stream call per point or measure.

    Points are uniform on [-3, 3]^d and measures have 8 atoms; each
    condition owns the stream of its channel.
    """

    def __init__(self, dim: int, seed: int, channel: int):
        self.dim = dim
        self.stream = StreamState(StreamKey(seed, PROBE_REPLICA, channel, "init").hash64())

    def point(self) -> np.ndarray:
        return 3.0 * (2.0 * self.stream.uniforms(self.dim) - 1.0)

    def measure(self):
        u = self.stream.uniforms(8 * self.dim).reshape(8, self.dim)
        return make_empirical(3.0 * (2.0 * u - 1.0))


@pytest.mark.parametrize("budget", [1, 7, 200])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("points,measures", [(1, 1), (2, 0), (2, 2)])
def test_batched_probe_draws_equal_scalar_sampler(points, measures, dim, budget):
    probe = ProbeConfig(budget=budget, seed=11)
    pts, atoms = _probe_draws(dim, probe, 3, points, measures)
    assert pts.shape == (budget, points, dim)
    assert atoms.shape == (budget, measures, 8, dim)
    oracle = _ScalarProbeSampler(dim, probe.seed, 3)
    for b in range(budget):
        for j in range(points):
            assert np.array_equal(pts[b, j], oracle.point())
        for j in range(measures):
            assert np.array_equal(atoms[b, j], oracle.measure().points)


@pytest.mark.parametrize("budget", [0, -3])
def test_probe_budget_below_one_is_rejected(budget, capsys):
    with pytest.raises(InvalidInputError, match="probe budget must be at least 1"):
        ProbeConfig(budget=budget)
    assert cli_main(["validate", "--model", "neuronal", "--budget", str(budget)]) == 1
    assert capsys.readouterr().err == f"mfjump validate: probe budget must be at least 1, got {budget}\n"


def _spec(class_tag="lipschitz", *, drift=None, rate=None, dim=1, **meta):
    return ModelSpec(
        drift=drift or (lambda x, m: -x),
        diffusion=lambda x, m: np.full((x.shape[0], dim, 1), 0.5),
        rate=rate or (lambda x, m: np.ones(x.shape[0])),
        main_jump=lambda x, m, h: np.full_like(x, 0.1),
        collateral_jump=lambda xj, tg, m, h1, h2: np.zeros((tg.shape[0], dim)),
        dim=dim,
        brownian_dim=1,
        class_tag=class_tag,
        meta=AssumptionMeta(**meta),
    )


def _raising_drift(x, m):
    if np.any(np.abs(x) > 2.5):
        raise ValueError("drift undefined outside [-2.5, 2.5]")
    return -x


_LIP = {"lipschitz_drift": 1.0, "lipschitz_diffusion": 0.0, "lipschitz_jump_l1": 0.5}

# name -> (model factory, probe budget, probe seed)
CASES = {
    "lipschitz-demo": (lambda: build("lipschitz-demo"), 200, 0),
    "convex-potential": (lambda: build("convex-potential"), 200, 0),
    "neuronal": (lambda: build("neuronal"), 200, 0),
    "lipschitz-demo-d2-b7": (lambda: build("lipschitz-demo", {"dim": 2}), 7, 0),
    "convex-potential-d3-b7": (lambda: build("convex-potential", {"dim": 3, "exponent": 3}), 7, 5),
    "neuronal-d2-b1": (lambda: build("neuronal", {"dim": 2}), 1, 2),
    "drift-lipschitz-fails": (lambda: _spec(**{**_LIP, "lipschitz_drift": 0.2}), 60, 1),
    "nonfinite-drift": (lambda: _spec(drift=lambda x, m: np.where(x > 2.0, np.inf, -x), **_LIP), 80, 4),
    "raising-drift": (lambda: _spec(drift=_raising_drift, **_LIP), 60, 1),
    "no-declared-constant": (lambda: _spec(lipschitz_diffusion=0.0, lipschitz_jump_l1=0.5), 30, 2),
    "negative-rate": (lambda: _spec(rate=lambda x, m: x[:, 0], **_LIP), 60, 6),
    "non-monotone-gradient": (
        lambda: _spec("convex_potential", dim=2, potential_grad=lambda x: x**3 - 2.0 * x,
                      interaction=lambda x, m: np.tanh(x - m.mean), interaction_bound=0.5, **_LIP),
        60, 7,
    ),
    "no-gradient": (lambda: _spec("convex_potential", **_LIP), 30, 8),
}


def _report(name: str):
    factory, budget, seed = CASES[name]
    return validate_model(factory(), ProbeConfig(budget=budget, seed=seed))


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_validate_report_matches_golden(name):
    report = _report(name)
    assert {"summary": report.summary(), "repr": repr(report)} == _golden()[name]


def test_golden_covers_every_verdict():
    verdicts = {_golden()[name]["summary"].split("overall: ")[1].split("\n")[0] for name in CASES}
    assert verdicts == {"pass", "fail", "indeterminate"}


@pytest.mark.parametrize("argv,name", [
    (["--model", "lipschitz-demo"], "lipschitz-demo"),
    (["--model", "convex-potential"], "convex-potential"),
    (["--model", "neuronal"], "neuronal"),
    (["--model", "lipschitz-demo", "--param", "dim=2", "--budget", "7"], "lipschitz-demo-d2-b7"),
])
def test_cli_validate_prints_golden_summary(argv, name, capsys):
    assert cli_main(["validate", *argv]) == 0
    assert capsys.readouterr().out == _golden()[name]["summary"] + "\n"


if __name__ == "__main__":
    reports = {name: _report(name) for name in CASES}
    golden = {name: {"summary": r.summary(), "repr": repr(r)} for name, r in reports.items()}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
