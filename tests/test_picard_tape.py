"""Picard sweeps of a globally bounded model replay draws made before the first sweep.

``tests/data/limit_golden.json`` holds sha256 digests of ``solve_limit``'s
outputs for every case in ``CASES``, taken from the code that drew in every
sweep.  To rewrite it from the current tree:
``PYTHONPATH=src python tests/test_picard_tape.py``.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import mfjump.drivers as drivers
import mfjump.limit as limit
import mfjump.metrics as metrics
import mfjump.particle as particle
from mfjump.drivers import PICARD_REPLICA, InvalidInputError, collect_candidates, make_driver_bundle
from mfjump.limit import constant_flow, simulate_ensemble, solve_limit
from mfjump.models import AssumptionMeta, ModelSpec
from mfjump.particle import CoupledSimulator, InitSampler, RateBoundViolation, StepPolicy, output_grid, simulate_coupled
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
    # limit-d2's size: W1 pairs are 512-row subsamples, and the first delta's are near translations
    "lipschitz-demo-d2-limit-size": (
        "lipschitz-demo", {"dim": 2}, 16384, 0.3, 0.1, 17, InitSampler(mean=(0.5, 0.5), std=0.5), None,
    ),
    "convex-potential": ("convex-potential", {}, 1024, 0.5, 0.05, 15, GAUSS, None),
    "neuronal": ("neuronal", {}, 1024, 0.5, 0.05, 16, InitSampler(kind="uniform"), None),
    "neuronal-truncation-binds": ("neuronal", {}, 1024, 0.5, 0.05, 16, InitSampler(kind="uniform"), None),
}
# cases whose truncation C starts at this multiple of the initial rate summary's sup instead of
# ``limit.TRUNC_FACTOR``: at 0.2, C binds and doubles in each of the first three sweeps
TRUNC_FACTORS = {"neuronal-truncation-binds": 0.2}


def _solve(name):
    model, params, M, T, dt, seed, init, policy = CASES[name]
    factor, limit.TRUNC_FACTOR = limit.TRUNC_FACTOR, TRUNC_FACTORS.get(name, limit.TRUNC_FACTOR)
    try:
        return solve_limit(build(model, params), M, T, dt, seed=seed, tol=1e-12, max_iter=4, init=init, policy=policy)
    finally:
        limit.TRUNC_FACTOR = factor


def _digest(values) -> str:
    a = np.ascontiguousarray(values, dtype=np.float64)
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


def _digests(flow) -> dict:
    arrays = {
        "times": flow.times, "ensemble": flow.ensemble, "lam_mean": flow.lam_mean,
        "deltas": flow.meta["deltas"], "noise_floor": flow.meta["noise_floor"],
    }
    return {key: _digest(value) for key, value in arrays.items()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_solve_limit_matches_golden(monkeypatch, name):
    # in d = 2 a Picard delta pairs copies with their own later positions, near a translation, so some
    # of its solves run on the potential-reduced cost; the noise floor's independent halves never do
    solve, noise_floor, solves, phase = metrics._solve, limit.ensemble_noise_floor, [], ["delta"]

    def spy(cost, a, b):
        unreduced = cost.copy()
        w1 = solve(cost, a, b)
        solves.append((phase[0], not np.array_equal(cost, unreduced)))
        return w1

    def floor(flow, seed=0):
        phase[0] = "noise floor"
        return noise_floor(flow, seed=seed)

    monkeypatch.setattr(metrics, "_solve", spy)
    monkeypatch.setattr(limit, "ensemble_noise_floor", floor)
    flow = _solve(name)
    assert _digests(flow) == json.loads(GOLDEN.read_text())[name]
    if name in TRUNC_FACTORS:  # C bound the rate summary: it doubled after each of the first three sweeps
        assert flow.meta["trunc_doublings"] == [flow.trunc_c / 4, flow.trunc_c / 2, flow.trunc_c]
        assert np.max(flow.lam_mean) < flow.trunc_c
    if flow.ensemble.shape[2] == 2:
        assert ("delta", True) in solves and ("noise floor", False) in solves
        assert ("noise floor", True) not in solves


def _log_draws_and_substeps(monkeypatch) -> list:
    """Patches the sweeps, the sub-steps and the draws; returns the log of their calls in order."""
    log = []

    def logged(name, fn):
        def wrapper(*args, **kwargs):
            log.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(limit, "picard_iterate", logged("sweep", limit.picard_iterate))
    monkeypatch.setattr(limit, "_ensemble_substep", logged("substep", limit._ensemble_substep))
    monkeypatch.setattr(particle, "collect_candidates", logged("candidates", particle.collect_candidates))
    monkeypatch.setattr(particle, "_grid_candidates", logged("candidates", particle._grid_candidates))
    monkeypatch.setattr(drivers.StreamArray, "normals_block", logged("normals", drivers.StreamArray.normals_block))
    return log


@pytest.mark.parametrize("M,walks", [(256, 1), (4096, 6)])
def test_bounded_model_draws_once_before_the_first_substep(M, walks, monkeypatch):
    # 6 cells of one sub-step each: 256 copies take one batched walk and one
    # Brownian block for all 6, 4,096 copies draw sub-step by sub-step
    log = _log_draws_and_substeps(monkeypatch)
    solve_limit(build("lipschitz-demo"), M, 0.3, 0.05, seed=3, tol=1e-12, max_iter=3, init=GAUSS)
    assert log[:2] == ["normals", "sweep"]  # the initial sample, then sweep 1
    first = log.index("substep")
    assert log[2:first] == ["candidates", "normals"] * walks
    assert log[first:] == ["substep"] * 6 + ["sweep"] + ["substep"] * 6 + ["sweep"] + ["substep"] * 6


def test_unbounded_model_draws_in_every_sweep(monkeypatch):
    # a rate-following bound: every sub-step of every sweep draws its own candidates, just before it steps
    log = _log_draws_and_substeps(monkeypatch)
    flow = solve_limit(build("neuronal"), 256, 0.3, 0.05, seed=3, tol=1e-12, max_iter=3,
                       init=InitSampler(kind="uniform"))
    assert flow.meta["deltas"][-1] > 0  # the sweeps moved, so they were simulated
    assert "normals" not in log  # exact scheme, no diffusion
    sweeps = " ".join(log).split("sweep")
    assert len(sweeps) == 4 and sweeps[0] == ""
    for sweep in sweeps[1:]:
        steps = sweep.split()
        assert len(steps) >= 12 and steps == ["candidates", "substep"] * (len(steps) // 2)


def test_tape_needs_a_global_rate_bound():
    # neuronal's thinning bounds follow its rates, so a tape could replay
    # candidates drawn under other bounds
    x0 = np.ones((8, 1))
    with pytest.raises(InvalidInputError, match="global rate bound"):
        simulate_ensemble(build("neuronal"), 0.1, 0.05, make_driver_bundle(1, PICARD_REPLICA, 8),
                          constant_flow(x0, 0.1), initial_positions=x0, tape=[])


def test_tape_entries_hold_the_event_rounds_of_their_candidates():
    # replayed sweeps take each sub-step's rounds from the tape instead of sorting again
    spec = build("lipschitz-demo")
    x0 = np.linspace(-1.0, 2.0, 512)[:, None]
    tape = []
    simulate_ensemble(spec, 1.0, 0.5, make_driver_bundle(3, PICARD_REPLICA, 512), constant_flow(x0, 1.0),
                      initial_positions=x0, tape=tape)
    assert len(tape) == 2
    for t, h, dW, cands, rounds in tape:
        times, copies = cands[0], cands[1]
        want = limit._event_rounds(copies, times, copies)
        assert len(rounds) == len(want) >= 3
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(rounds, want))


class _SpikingRate:
    """Rate 1 under a declared bound of 2, except the first event-round
    evaluation of sub-step ``spike_at`` reads 10, once: a halved retry of
    that sub-step would read 1 and absorb the false declaration."""

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


M, T, DT = 64, 1.0, 0.25  # four sub-steps of 0.25, one per cell
X0 = np.linspace(-1.0, 1.0, M)[:, None]


def _sweep(spec, tape, T=T, dt=DT):
    return simulate_ensemble(spec, T, dt, make_driver_bundle(5, PICARD_REPLICA, M), constant_flow(X0, T),
                             initial_positions=X0, tape=tape)


@pytest.mark.parametrize("replaying", [False, True])
def test_a_rate_above_the_declared_bound_raises_on_the_first_attempt(replaying, monkeypatch):
    # the default policy allows 8 halved retries, yet the spike in sub-step 2
    # of a sweep on an empty tape or on a filled one raises: that sub-step ran once
    assert StepPolicy().max_retries == 8
    rate = _SpikingRate(M)
    spec = _spiking_spec(rate)
    tape = []
    if replaying:
        _sweep(spec, tape)
    calls = []
    substep = limit._ensemble_substep
    monkeypatch.setattr(limit, "_ensemble_substep", lambda *args: calls.append(args[4]) or substep(*args))
    rate.substeps, rate.spike_at = 0, 2
    with pytest.raises(RateBoundViolation, match=r"^rate 10 above bound 2 for copy \d+ in system LIMIT at t=0\.[5-7]"):
        _sweep(spec, tape)
    assert calls == [0.0, 0.25, 0.5]
    assert len(tape) == 4  # an empty tape is filled whole before the first sub-step


def test_a_declared_bound_raise_takes_no_snapshot_in_either_engine(monkeypatch):
    # the raise is final, so neither engine copies its state to rewind a sub-step;
    # a spike in the first sub-step leaves the bundle where that sub-step put it
    snapshots = []
    snapshot = drivers.DriverBundle.snapshot
    monkeypatch.setattr(drivers.DriverBundle, "snapshot", lambda self: snapshots.append(1) or snapshot(self))
    rate = _SpikingRate(M)
    spec = _spiking_spec(rate)
    rate.spike_at = 2
    with pytest.raises(RateBoundViolation, match=r"^rate 10 above bound 2 for particle \d+ in system X at t=0\.[5-7]"):
        simulate_coupled(("X",), spec, T, DT, make_driver_bundle(5, 0, M), initial_positions=X0)
    rate.substeps, rate.spike_at = 0, 2
    with pytest.raises(RateBoundViolation, match=r"^rate 10 above bound 2 for copy \d+ in system LIMIT at t=0\.[5-7]"):
        _sweep(spec, None)
    rate.substeps, rate.spike_at = 0, 0
    bundle = make_driver_bundle(5, 0, M)
    sim = CoupledSimulator(spec, bundle, ("X",))
    sim.set_initial(X0)
    with pytest.raises(RateBoundViolation):
        sim.advance(DT)
    assert snapshots == []
    assert bundle.poisson.counters.any()
    # a rate-following bound still snapshots every sub-step, to rewind a halved retry
    simulate_coupled(("X",), build("neuronal"), T, DT, make_driver_bundle(5, 0, M), initial_positions=X0)
    assert len(snapshots) >= 4


def _drawn_one_by_one(bundle, grid, bound, bdim):
    """Each sub-step's Brownian increments, candidates and event rounds, drawn as the sub-step comes."""
    for t, h in grid:
        dW = None if bdim is None else bundle.brownian.normals_block(bdim) * math.sqrt(h)
        cands = collect_candidates(bundle, t, t + h, np.full(bundle.n, bound))
        yield dW, cands, limit._event_rounds(cands[1], cands[0], cands[1])


@pytest.mark.parametrize("model,params,m", [
    ("lipschitz-demo", {}, 256),  # one batched walk
    ("lipschitz-demo", {}, 4096),  # sub-step by sub-step
    ("lipschitz-demo", {"dim": 2}, 1024),  # n * bdim = 2,048, the widest batched bundle: walks of 32 and 8
    ("convex-potential", {}, 2048),
])
def test_a_predrawn_sweep_equals_drawing_each_substep_as_it_comes(model, params, m):
    # three Picard sweeps, each frozen at the one before: the first fills the tape and the
    # next two replay it, against sub-steps that draw on a fresh bundle as they come
    spec = build(model, params)
    T, dt, d, bound = 1.0, 0.1, spec.dim, float(spec.meta.rate_global_bound)
    x0 = np.random.default_rng(m).normal(0.3, 0.7, size=(m, d))
    flow = solve_limit(spec, 128, T, dt, seed=2, tol=1e-12, max_iter=1, init=InitSampler(mean=(0.3,) * d))
    policy = StepPolicy(candidate_cap=0.06)  # bound 2: 4 sub-steps a cell
    ends = output_grid(T, dt)
    grid = particle._substep_grid(spec, policy, ends)
    bounds, ceilings = particle._thinning_bounds(spec, policy, np.zeros(m), 0.0)
    tape = []
    for _ in range(3):
        res = simulate_ensemble(spec, T, dt, make_driver_bundle(4, PICARD_REPLICA, m), flow,
                                initial_positions=x0, policy=policy, tape=tape)
        assert len(grid) == len(tape) == 4 * len(ends)

        bundle = make_driver_bundle(4, PICARD_REPLICA, m)
        pos, snaps, jumps = x0.copy(), [x0.copy()], 0
        for (t, h), draws in zip(grid, _drawn_one_by_one(bundle, grid, bound, spec.brownian_dim)):
            jumps += limit._ensemble_substep(spec, pos, bundle, flow, t, h, bounds, ceilings, True, draws)
            if math.isclose(t + h, ends[len(snaps) - 1], rel_tol=1e-9):
                snaps.append(pos.copy())
        assert len(snaps) == len(ends) + 1
        assert res.ensemble.tobytes() == np.asarray(snaps).tobytes()
        assert res.meta["jumps"] == jumps > 0
        flow = res


@pytest.mark.parametrize("T,dt,entry", [(T, 0.5, "0 is not for the sub-step at t=0.0, h=0.5"),
                                        (2 * T, DT, "4 is not for the sub-step at t=1.0, h=0.25")])
def test_a_tape_recorded_on_another_grid_raises(T, dt, entry):
    # a tape of four sub-steps of 0.25 replayed on a grid of 0.5, and on one of eight sub-steps
    spec = _spiking_spec(_SpikingRate(M))
    tape = []
    _sweep(spec, tape)
    with pytest.raises(InvalidInputError, match=f"^draw tape entry {entry}: the tape was drawn for another grid$"):
        _sweep(spec, tape, T, dt)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: _digests(_solve(name)) for name in CASES}, indent=2, sort_keys=True) + "\n")
