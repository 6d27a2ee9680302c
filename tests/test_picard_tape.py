"""Picard sweeps of a globally bounded model replay the first sweep's draws.

``tests/data/limit_golden.json`` holds sha256 digests of ``solve_limit``'s
outputs for every case in ``CASES``, taken from the code that drew in every
sweep.  To rewrite it from the current tree:
``PYTHONPATH=src python tests/test_picard_tape.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import mfjump.drivers as drivers
import mfjump.limit as limit
from mfjump.drivers import PICARD_REPLICA, InvalidInputError, make_driver_bundle
from mfjump.limit import constant_flow, simulate_ensemble, solve_limit
from mfjump.models import AssumptionMeta, ModelSpec
from mfjump.particle import InitSampler, StepPolicy
from mfjump.zoo import build

GOLDEN = Path(__file__).parent / "data" / "limit_golden.json"
GAUSS = InitSampler(kind="gauss", mean=(0.5,), std=0.5)

# name: (model id, params, M, T, dt, seed, init, policy); every case runs 4 sweeps
CASES = {
    "lipschitz-demo-d1": ("lipschitz-demo", {}, 1024, 0.5, 0.05, 12, GAUSS, None),
    "lipschitz-demo-d1-quarter-cap": (
        "lipschitz-demo", {}, 512, 0.3, 0.1, 13, GAUSS, StepPolicy(candidate_cap=0.25),
    ),
    "lipschitz-demo-d2": (
        "lipschitz-demo", {"dim": 2}, 1024, 0.3, 0.1, 14, InitSampler(mean=(0.5, 0.5), std=0.5), None,
    ),
    "convex-potential": ("convex-potential", {}, 1024, 0.5, 0.05, 15, GAUSS, None),
    "neuronal": ("neuronal", {}, 1024, 0.5, 0.05, 16, InitSampler(kind="uniform"), None),
}


def _solve(name):
    model, params, M, T, dt, seed, init, policy = CASES[name]
    return solve_limit(build(model, params), M, T, dt, seed=seed, tol=1e-12, max_iter=4, init=init, policy=policy)


def _digest(values) -> str:
    a = np.ascontiguousarray(values, dtype=np.float64)
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


def _digests(name) -> dict:
    flow = _solve(name)
    arrays = {
        "times": flow.times, "ensemble": flow.ensemble, "lam_mean": flow.lam_mean,
        "deltas": flow.meta["deltas"], "noise_floor": flow.meta["noise_floor"],
    }
    return {key: _digest(value) for key, value in arrays.items()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_solve_limit_matches_golden(name):
    assert _digests(name) == json.loads(GOLDEN.read_text())[name]


def _count_draws_per_sweep(monkeypatch):
    """Patches the sweep and both draws; returns {draw: calls before the first sweep, then per sweep}."""
    calls = {"collect_candidates": [0], "normals_block": [0]}
    picard_iterate = limit.picard_iterate

    def sweep(*args, **kwargs):
        for counts in calls.values():
            counts.append(0)
        return picard_iterate(*args, **kwargs)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name][-1] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(limit, "picard_iterate", sweep)
    monkeypatch.setattr(limit, "collect_candidates", counted("collect_candidates", limit.collect_candidates))
    monkeypatch.setattr(
        drivers.StreamArray, "normals_block", counted("normals_block", drivers.StreamArray.normals_block)
    )
    return calls


def test_bounded_model_draws_in_the_first_sweep_only(monkeypatch):
    calls = _count_draws_per_sweep(monkeypatch)
    solve_limit(build("lipschitz-demo"), 256, 0.3, 0.05, seed=3, tol=1e-12, max_iter=3, init=GAUSS)
    # the initial sample takes one normal block; then 6 cells of one sub-step each
    assert calls == {"collect_candidates": [0, 6, 0, 0], "normals_block": [1, 6, 0, 0]}


def test_unbounded_model_draws_in_every_sweep(monkeypatch):
    calls = _count_draws_per_sweep(monkeypatch)
    flow = solve_limit(build("neuronal"), 256, 0.3, 0.05, seed=3, tol=1e-12, max_iter=3,
                       init=InitSampler(kind="uniform"))
    assert flow.meta["deltas"][-1] > 0  # the sweeps moved, so they were simulated
    sweeps = calls["collect_candidates"]
    assert len(sweeps) == 4 and min(sweeps[1:]) >= 6
    assert calls["normals_block"] == [0, 0, 0, 0]  # exact scheme, no diffusion


def test_tape_needs_a_global_rate_bound():
    # neuronal's thinning bounds follow its rates, so a tape could replay
    # candidates drawn under other bounds
    x0 = np.ones((8, 1))
    with pytest.raises(InvalidInputError, match="global rate bound"):
        simulate_ensemble(build("neuronal"), 0.1, 0.05, make_driver_bundle(1, PICARD_REPLICA, 8),
                          constant_flow(x0, 0.1), initial_positions=x0, tape=[])


class _SpikingRate:
    """Rate 1 under a declared bound of 2, except the first event-round
    evaluation of sub-step ``spike_at`` reads 10: that sub-step aborts and is
    retried at half its step."""

    def __init__(self, m):
        self.m = m
        self.substeps = 0
        self.spike_at = None

    def __call__(self, x, mu):
        if x.shape[0] == self.m:  # a sub-step's bounds: every copy
            self.substeps += 1
        elif self.substeps - 1 == self.spike_at:
            self.spike_at = None
            return np.full(x.shape[0], 10.0)
        return np.ones(x.shape[0])


def _spiking_spec(rate):
    return ModelSpec(
        drift=lambda x, m: -x,
        diffusion=lambda x, m: np.full((x.shape[0], 1, 1), 0.3),
        rate=rate,
        main_jump=lambda x, m, h: -0.5 * x * np.asarray(h)[:, None],
        collateral_jump=lambda xj, tg, m, h1, h2: np.zeros((tg.shape[0], 1)),
        dim=1,
        brownian_dim=1,
        class_tag="lipschitz",
        meta=AssumptionMeta(rate_global_bound=2.0),
    )


@pytest.mark.parametrize("spike_in_sweep,drawn_later", [(None, [0, 0]), (0, [2, 0]), (1, [3, 2])])
def test_replayed_sweeps_equal_drawn_sweeps(spike_in_sweep, drawn_later, monkeypatch):
    # three sweeps on a tape against three that draw: positions, jump counts
    # and the bundle's counters agree after each, also when a sub-step of the
    # recording or of a replaying sweep is retried at half its step and the
    # tape is rewritten from there
    M, T, dt = 64, 1.0, 0.25
    x0 = np.linspace(-1.0, 1.0, M)[:, None]
    flow = constant_flow(x0, T)
    draws = []
    counted = limit.collect_candidates

    def counting(*args):
        draws[-1] += 1
        return counted(*args)

    monkeypatch.setattr(limit, "collect_candidates", counting)
    runs = {}
    for tape in ([], None):
        rate = _SpikingRate(M)
        spec = _spiking_spec(rate)
        runs[tape is None] = out = []
        for sweep in range(3):
            rate.substeps, rate.spike_at = 0, 2 if sweep == spike_in_sweep else None
            bundle = make_driver_bundle(5, PICARD_REPLICA, M)
            draws.append(0)
            res = simulate_ensemble(spec, T, dt, bundle, flow, initial_positions=x0, tape=tape)
            out.append((res, bundle.snapshot()))
            assert rate.spike_at is None  # a spike fired, so a retry ran
    # four sub-steps of 0.25; a spike splits the third into two of 0.125.
    # Spiked recording: the next sweep replays two and draws two.  Spiked
    # replay: it draws three from the spike on, and the next sweep two.
    assert draws[1:3] == drawn_later
    for (taped, snap_t), (drawn, snap_d) in zip(runs[False], runs[True]):
        assert np.array_equal(taped.snapshots, drawn.snapshots)
        assert taped.jump_count == drawn.jump_count > 0
        assert snap_t.keys() == snap_d.keys()
        for key in snap_t:
            assert np.array_equal(snap_t[key], snap_d[key])


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: _digests(name) for name in CASES}, indent=2, sort_keys=True) + "\n")
