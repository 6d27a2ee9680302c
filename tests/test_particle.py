import dataclasses
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from mfjump import particle
from mfjump.drivers import InvalidInputError, collect_candidates, make_driver_bundle, marks_uniforms
from mfjump.limit import FlowApproximation, constant_flow, simulate_ensemble, solve_limit
from mfjump.models import AssumptionMeta, EmpiricalMeasure, ModelSpec, collateral_drift, make_empirical
from mfjump.particle import (
    CoupledSimulator,
    InitSampler,
    NumericalBlowupError,
    RateBoundViolation,
    StepPolicy,
    _frozen_coefficients,
    apply_jump,
    output_grid,
    simulate,
    simulate_coupled,
)
from mfjump.zoo import build
from weak_step import (
    GeneratorQuadratureError,
    Observable,
    coordinate_function,
    generator_apply,
    single_step_weak_estimate,
)


def _zero_collateral(xj, tg, m, h1, h2):
    return np.zeros((tg.shape[0], 1))


def _spec(drift, rate, main, collateral=_zero_collateral, dim=1, sigma=None,
          cap=None, collateral_mean=None, main_jump_mean=None, exact=False, **meta_kw):
    if sigma is None:
        diffusion = lambda x, m: np.zeros((x.shape[0], dim, 0))
        d1 = 0
    else:
        diffusion = lambda x, m: np.broadcast_to(sigma * np.eye(dim), (x.shape[0], dim, dim))
        d1 = dim
    return ModelSpec(
        drift=drift,
        diffusion=diffusion,
        rate=rate,
        main_jump=main,
        collateral_jump=collateral,
        dim=dim,
        brownian_dim=d1,
        class_tag="lipschitz",
        meta=AssumptionMeta(rate_global_bound=cap, **meta_kw),
        collateral_mean=collateral_mean,
        main_jump_mean=main_jump_mean,
        exact_linear_ok=exact,
    )


def _one_step(system, spec, x0, h, bundle, policy=None):
    """One Euler step from t=0: ``T = dt = h`` gives one output cell ending at h."""
    return simulate(system, spec, h, h, bundle, initial_positions=x0,
                    scheme="euler", policy=policy).positions[-1]


def test_step_x_euler_arithmetic():
    # null jumps: one Euler step of F(x) = -x from 1 gives 0.9 regardless of
    # how many candidate events were accepted
    spec = _spec(
        drift=lambda x, m: -x,
        rate=lambda x, m: np.full(x.shape[0], 5.0),
        main=lambda x, m, h: np.zeros_like(x),
        cap=5.0,
    )
    for seed in range(5):
        pos = _one_step("X", spec, np.asarray([[1.0]]), 0.1, make_driver_bundle(seed, 0, 1))
        assert pos[0, 0] == pytest.approx(0.9, abs=0)


def test_forced_collateral_jump_shifts_by_theta_over_n():
    spec = _spec(
        drift=lambda x, m: np.zeros_like(x),
        rate=lambda x, m: np.zeros(x.shape[0]),
        main=lambda x, m, h: np.zeros_like(x),
        collateral=lambda xj, tg, m, h1, h2: np.ones((tg.shape[0], 1)),
        cap=0.0,
    )
    pos = np.asarray([[1.0], [2.0], [3.0], [4.0]])
    mu = make_empirical(pos)
    new = pos.copy()
    out, psi = apply_jump(spec, new, jumper=0, measure=mu, h_main=0.5, h_collateral=np.full(4, 0.5))
    assert out is new  # the jump is written into the positions passed in
    assert np.array_equal(psi, np.zeros(1))
    assert new[0, 0] == 1.0  # main jump is null
    assert np.allclose(new[1:, 0], pos[1:, 0] + 0.25)  # Theta / N with N = 4


def test_main_jump_uses_pre_jump_state_for_collateral():
    # collateral amplitude reads the jumper's pre-jump position
    spec = _spec(
        drift=lambda x, m: np.zeros_like(x),
        rate=lambda x, m: np.zeros(x.shape[0]),
        main=lambda x, m, h: -x,  # reset to zero
        collateral=lambda xj, tg, m, h1, h2: np.broadcast_to(xj, tg.shape).copy(),
        cap=0.0,
    )
    pos = np.asarray([[2.0], [0.0]])
    mu = make_empirical(pos)
    new, _ = apply_jump(spec, pos.copy(), 0, mu, 0.5, np.full(2, 0.5))
    assert new[0, 0] == 0.0
    assert new[1, 0] == pytest.approx(1.0)  # Theta(xj=2)/N=2


def test_compound_poisson_mean():
    # lambda = 2, psi = 0.3, no drift: E[X(T)] = x0 + 0.3 * 2 * T
    lam0, a, T = 2.0, 0.3, 1.0
    spec = _spec(
        drift=lambda x, m: np.zeros_like(x),
        rate=lambda x, m: np.full(x.shape[0], lam0),
        main=lambda x, m, h: np.full_like(x, a),
        cap=lam0,
    )
    vals = []
    for r in range(200):
        paths = simulate("X", spec, T, 0.05, make_driver_bundle(77, r, 4),
                         initial_positions=np.zeros((4, 1)))
        vals.extend(paths.positions[-1, :, 0].tolist())
    vals = np.asarray(vals)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - a * lam0 * T) < 3 * se


def test_step_y_equals_step_x_bitwise_when_no_collateral():
    spec = build("lipschitz-demo", {"collateral_amp": 0.0})
    x0 = np.asarray([[0.4], [-0.2], [1.1]])
    bx = make_driver_bundle(9, 0, 3)
    by = make_driver_bundle(9, 0, 3)
    sx = simulate("X", spec, 0.25, 0.25, bx, initial_positions=x0.copy(), scheme="euler")
    sy = simulate("Y", spec, 0.25, 0.25, by, initial_positions=x0.copy(), scheme="euler")
    assert sx.positions[-1].tobytes() == sy.positions[-1].tobytes()
    assert sx.jump_times.tolist() == sy.jump_times.tolist()


def test_y_collateral_drift_constant():
    # Theta with constant mark mean c and rate lambda0: collateral drift is
    # lambda0 * c per particle, independent of N
    lam0, cbar = 1.5, 0.7
    for n in (2, 5):
        spec = _spec(
            drift=lambda x, m: np.zeros_like(x),
            rate=lambda x, m: np.full(x.shape[0], lam0),
            main=lambda x, m, h: np.zeros_like(x),
            cap=lam0,
            collateral_mean=np.asarray([cbar]),
        )
        pos = _one_step("Y", spec, np.zeros((n, 1)), 0.1, make_driver_bundle(n, 0, n))
        assert np.allclose(pos, 0.1 * lam0 * cbar, atol=1e-15)


def test_y_collateral_drift_state_dependent_rate():
    # N=2, lambda(x) = |x|, constant mark mean: the mean jumper rate gives
    # drift (|Y1| + |Y2|) * theta_bar / 2 for both particles
    theta_bar = 0.4
    spec = _spec(
        drift=lambda x, m: np.zeros_like(x),
        rate=lambda x, m: np.abs(x[:, 0]),
        main=lambda x, m, h: np.zeros_like(x),
        cap=None,
        collateral_mean=np.asarray([theta_bar]),
    )
    y = np.asarray([[1.0], [-3.0]])
    # keep candidate bounds from seeing any accepted jumps: psi = 0 anyway
    pos = _one_step("Y", spec, y.copy(), 0.01, make_driver_bundle(4, 0, 2))
    expected = y + 0.01 * ((1.0 + 3.0) / 2.0) * theta_bar
    assert np.allclose(pos, expected, atol=1e-14)


def test_exact_integrator_ou_decay():
    spec = _spec(
        drift=lambda x, m: -x,
        rate=lambda x, m: np.zeros(x.shape[0]),
        main=lambda x, m, h: np.zeros_like(x),
        cap=0.0,
        exact=True,
    )
    x0 = np.full((3, 1), 1.7)
    paths = simulate("X", spec, 4.0, 0.1, make_driver_bundle(1, 0, 3),
                     initial_positions=x0, scheme="exact")
    target = 1.7 * np.exp(-4.0)
    assert np.all(np.abs(paths.positions[-1] - target) / target < 1e-12)


def test_permutation_equivariance():
    spec = build("lipschitz-demo", {})
    n = 6
    perm = np.asarray([3, 0, 5, 1, 4, 2])
    x0 = np.linspace(-1.0, 1.0, n).reshape(n, 1)
    a = simulate("X", spec, 0.5, 0.05, make_driver_bundle(31, 0, n),
                 initial_positions=x0)
    b = simulate("X", spec, 0.5, 0.05,
                 make_driver_bundle(31, 0, n, particle_ids=perm),
                 initial_positions=x0[perm])
    # slot i of run b lives on the streams and start of particle perm[i]
    assert np.allclose(b.positions[:, :, :], a.positions[:, perm, :], rtol=0, atol=1e-10)


def test_exchangeability_ks_across_seeds():
    spec = build("lipschitz-demo", {})
    first, third = [], []
    for r in range(200):
        paths = simulate("X", spec, 0.5, 0.05, make_driver_bundle(123, r, 4),
                         init=InitSampler(mean=(0.5,), std=0.5))
        first.append(paths.positions[-1, 0, 0])
        third.append(paths.positions[-1, 2, 0])
    assert ks_2samp(first, third).pvalue > 0.01


def test_jump_bookkeeping_counts_match():
    spec = build("lipschitz-demo", {})
    paths = simulate("X", spec, 1.0, 0.05, make_driver_bundle(8, 0, 16),
                     init=InitSampler(mean=(0.5,), std=0.5))
    assert paths.jump_count == len(paths.jump_times) == len(paths.jump_particles)
    assert paths.jump_count > 0
    assert np.all(np.diff(paths.jump_times) >= 0)
    assert np.all(paths.jump_times <= 1.0 + 1e-12)


def test_rate_bound_violation_surfaces():
    # the declared global bound is a lie: the first candidate evaluation sees
    # rate 2 above bound 1, retries cannot fix it, and the error surfaces
    spec = _spec(
        drift=lambda x, m: np.zeros_like(x),
        rate=lambda x, m: np.full(x.shape[0], 2.0),
        main=lambda x, m, h: np.zeros_like(x),
        cap=1.0,
    )
    with pytest.raises(RateBoundViolation):
        simulate("X", spec, 4.0, 0.5, make_driver_bundle(3, 0, 2),
                 initial_positions=np.zeros((2, 1)))


EDGE = 2.0 * (1.0 + 1e-12) + 1e-12  # the largest rate a thinning bound of 2 covers
PAST_EDGE = math.nextafter(EDGE, math.inf)


def _rate_after_first_jump(rate):
    """Global bound 2; a row's rate is 2 until its first +1 main jump and ``rate`` after it."""
    return _spec(
        drift=lambda x, m: np.zeros_like(x),
        rate=lambda x, m: np.where(x[:, 0] < 0.5, 2.0, rate),
        main=lambda x, m, h: np.ones_like(x),
        cap=2.0,
    )


def test_thinning_bounds_cover_a_rate_up_to_the_rounding_slack():
    spec = _rate_after_first_jump(EDGE)
    assert particle._thinning_bounds(spec, StepPolicy(), np.asarray([EDGE]), 0.0) == (2.0, EDGE)
    with pytest.raises(RateBoundViolation, match=r"^rate 2 already above bound 2 for particle 0 at t=0; "):
        particle._thinning_bounds(spec, StepPolicy(), np.asarray([PAST_EDGE]), 0.0)


@pytest.mark.parametrize("bad, message", [
    (math.nan, "rate nan for particle 3 at t=0 is not finite"),
    (math.inf, "rate inf for particle 3 at t=0 is not finite"),
    (-math.inf, "rate -inf for particle 3 at t=0 is not finite"),
    (PAST_EDGE, "rate 2 already above bound 2 for particle 3 at t=0; the declared rate bound does not hold"),
], ids=["nan", "inf", "-inf", "past-edge"])
def test_the_declared_bound_start_check_names_the_first_bad_row_in_both_engines(bad, message):
    # rows 3 and 5 start at 1 and read ``bad``, the others read 1 under the declared bound 2: the
    # check passes on the rows' max and min and searches the rows only when they fail
    spec = _spec(drift=lambda x, m: np.zeros_like(x), rate=lambda x, m: np.where(x[:, 0] > 0.5, bad, 1.0),
                 main=lambda x, m, h: np.zeros_like(x), cap=2.0)
    x0 = np.zeros((8, 1))
    x0[[3, 5]] = 1.0
    with pytest.raises(RateBoundViolation, match=f"^{re.escape(message)}$"):
        simulate_coupled(("X",), spec, 1.0, 0.5, make_driver_bundle(1, 0, 8), initial_positions=x0)
    with pytest.raises(RateBoundViolation, match=f"^{re.escape(message)}$"):
        simulate_ensemble(spec, 1.0, 0.5, make_driver_bundle(1, 0, 8), constant_flow(x0, 1.0), initial_positions=x0)


def test_a_start_rate_above_the_policy_envelope_names_the_envelope():
    # no declared bound: the envelope 0.5 * rate + 0 lies below every positive rate
    with pytest.raises(RateBoundViolation, match=r"^rate \S+ already above bound \S+ for particle 0 at t=0; "
                                                 r"the step policy's envelope 0\.5 \* rate \+ 0 does not hold$"):
        simulate("X", build("neuronal", {}), 0.2, 0.05, make_driver_bundle(1, 0, 8), init=InitSampler(kind="uniform"),
                 policy=StepPolicy(bound_mult=0.5, bound_add=0.0))


def test_event_loop_accepts_a_rate_up_to_the_rounding_slack():
    # one sub-step per cell: each particle draws about 2 candidates in it, and
    # the first jump lifts its rate from 2 to the value under test
    policy = StepPolicy(candidate_cap=50.0, max_retries=0)
    res = simulate_coupled(("X",), _rate_after_first_jump(EDGE), 1.0, 1.0, make_driver_bundle(1, 0, 8),
                           initial_positions=np.zeros((8, 1)), policy=policy)
    assert res["jump_counts"]["X"] > 8  # some particle jumped at the edge rate
    with pytest.raises(RateBoundViolation, match=r"^rate 2 above bound 2 for particle \d+ in system X at t="):
        simulate_coupled(("X",), _rate_after_first_jump(PAST_EDGE), 1.0, 1.0, make_driver_bundle(1, 0, 8),
                         initial_positions=np.zeros((8, 1)), policy=policy)


def test_limit_ensemble_accepts_a_rate_up_to_the_rounding_slack():
    policy = StepPolicy(candidate_cap=50.0, max_retries=0)
    x0 = np.zeros((8, 1))
    res = simulate_ensemble(_rate_after_first_jump(EDGE), 1.0, 1.0, make_driver_bundle(1, 0, 8),
                            constant_flow(x0, 1.0), initial_positions=x0, policy=policy)
    assert res.meta["jumps"] > 8
    with pytest.raises(RateBoundViolation, match=r"^rate 2 above bound 2 for copy \d+ in system LIMIT at t="):
        simulate_ensemble(_rate_after_first_jump(PAST_EDGE), 1.0, 1.0, make_driver_bundle(1, 0, 8),
                          constant_flow(x0, 1.0), initial_positions=x0, policy=policy)


@pytest.mark.parametrize("cap", [2.0, None], ids=["global-bound", "rate-following"])
def test_a_rate_that_is_not_a_number_from_the_start_raises_in_both_engines(cap):
    # at the sub-step start, before any candidate: the coupled stepper used to accept
    # every candidate at a NaN rate and the ensemble to reject every one
    spec = _spec(drift=lambda x, m: np.zeros_like(x), rate=lambda x, m: np.full(x.shape[0], np.nan),
                 main=lambda x, m, h: np.ones_like(x), cap=cap)
    x0 = np.zeros((8, 1))
    message = r"^rate nan for particle 0 at t=0 is not finite$"
    with pytest.raises(RateBoundViolation, match=message):
        simulate_coupled(("X",), spec, 1.0, 0.5, make_driver_bundle(1, 0, 8), initial_positions=x0)
    with pytest.raises(RateBoundViolation, match=message):
        simulate_ensemble(spec, 1.0, 0.5, make_driver_bundle(1, 0, 8), constant_flow(x0, 1.0), initial_positions=x0)


def test_a_rate_that_turns_nan_after_a_jump_raises_in_both_engines():
    # mid-sub-step, at a candidate's own time: the coupled stepper tests it per
    # candidate, the ensemble per round
    policy = StepPolicy(candidate_cap=50.0, max_retries=0)
    x0 = np.zeros((8, 1))
    with pytest.raises(RateBoundViolation, match=r"^rate nan above bound 2 for particle \d+ in system X at t=0\.\d+$"):
        simulate_coupled(("X",), _rate_after_first_jump(math.nan), 1.0, 1.0, make_driver_bundle(1, 0, 8),
                         initial_positions=x0, policy=policy)
    with pytest.raises(RateBoundViolation, match=r"^rate nan above bound 2 for copy \d+ in system LIMIT at t=0\.\d+$"):
        simulate_ensemble(_rate_after_first_jump(math.nan), 1.0, 1.0, make_driver_bundle(1, 0, 8),
                          constant_flow(x0, 1.0), initial_positions=x0, policy=policy)


def test_an_infinite_start_rate_names_the_particle_instead_of_overflowing():
    # neuronal's rate overflows to inf at 1e160; sizing the sub-step from it was an OverflowError
    spec = build("neuronal", {})
    with pytest.raises(RateBoundViolation, match=r"^rate inf for particle 0 at t=0 is not finite$"), \
            np.errstate(over="ignore"):
        simulate("X", spec, 0.1, 0.05, make_driver_bundle(0, 0, 4), init=InitSampler(kind="point", point=(1.0e160,)))


def test_rate_bound_retry_recovers():
    # outward main jumps push the rate above the start-of-sub-step envelope,
    # forcing halved retries; the run still completes with unbiased thinning
    spec = _spec(
        drift=lambda x, m: np.zeros_like(x),
        rate=lambda x, m: np.abs(x[:, 0]),
        main=lambda x, m, h: np.ones_like(x),
        cap=None,
    )
    policy = StepPolicy(bound_mult=1.0, bound_add=0.05, candidate_cap=8.0, max_retries=16)
    res = simulate_coupled(("X",), spec, 5.0, 0.5, make_driver_bundle(6, 0, 4),
                           initial_positions=np.full((4, 1), 1.0), policy=policy)
    assert res["retries"] > 0
    assert res["jump_counts"]["X"] > 0
    assert np.all(np.isfinite(res["paths"]["X"].positions))


def test_numerical_blowup_carries_state():
    spec = _spec(
        drift=lambda x, m: x**5,
        rate=lambda x, m: np.zeros(x.shape[0]),
        main=lambda x, m, h: np.zeros_like(x),
        cap=0.0,
    )
    with pytest.raises(NumericalBlowupError) as err, np.errstate(over="ignore", invalid="ignore"):
        simulate("X", spec, 40.0, 1.0, make_driver_bundle(2, 0, 2),
                 initial_positions=np.full((2, 1), 3.0))
    assert err.value.positions.shape == (2, 1)
    assert err.value.system == "X"


def test_invalid_dt_rejected():
    spec = build("lipschitz-demo", {})
    with pytest.raises(InvalidInputError):
        _one_step("X", spec, np.zeros((1, 1)), 0.0, make_driver_bundle(0, 0, 1))


@pytest.mark.parametrize("dim, shape", [(2, (16, 1)), (1, (8,)), (1, (1, 8))])
def test_initial_positions_of_another_shape_are_rejected_by_both_engines(dim, shape):
    # a reshape used to run 16 one-dimensional rows as 8 points in d=2
    spec = build("lipschitz-demo", {"dim": dim})
    x0 = np.zeros(shape)
    message = re.escape(f"initial positions must have shape {(8, dim)}, got {shape}")
    with pytest.raises(InvalidInputError, match=message):
        simulate_coupled(("X", "Y"), spec, 0.5, 0.25, make_driver_bundle(1, 0, 8), initial_positions=x0)
    with pytest.raises(InvalidInputError, match=message):
        simulate_ensemble(spec, 0.5, 0.25, make_driver_bundle(1, 0, 8), constant_flow(np.zeros((8, dim)), 0.5),
                          initial_positions=x0)


# zeros of both signs, subnormals, values whose squares overflow, infinities and NaN
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 2.2e-308, 1.3e-154, 1e154, -1.4e154, 3e154,
                                1e300, np.inf, -np.inf, np.nan])


@pytest.mark.parametrize("model, params", [
    ("lipschitz-demo", {}),
    ("convex-potential", {"rate_cap_radius": 1.5, "jump_scale": 0.8}),
    ("neuronal", {}),
])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_one_row_jump_has_the_bits_of_the_array_write(model, params, data):
    # the event loop jumps one d=1 row in Python floats; the reference evaluates the same row inside a
    # two-row batch and writes the jump with array operations (test_zoo pins the one-row rates)
    spec = build(model, params)
    n = data.draw(st.integers(1, 5))
    x = np.asarray(data.draw(st.lists(st.one_of(_EDGE_FLOATS, st.floats()), min_size=n, max_size=n)))[:, None]
    j = data.draw(st.integers(0, n - 1))
    h_main = data.draw(st.floats(0.0, 1.0, exclude_max=True))
    marks = st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 1.0, exclude_max=True))  # 0 and 0.5 zero a kick
    h_coll = np.asarray(data.draw(st.lists(marks, min_size=n, max_size=n)))
    if data.draw(st.booleans()):  # one mark for all rows: 0 (neuronal) or 0.5 (capped jumps) zeroes every kick
        h_coll[:] = h_coll[0]
    m = make_empirical(np.zeros((4, 1)))
    pair = np.vstack([x[j], x[j]])
    with np.errstate(over="ignore", invalid="ignore"):
        psi_ref = spec.main_jump(pair, m, np.full(2, h_main))[:1]
        theta = np.asarray(spec.collateral_jump(x[j], x, m, h_main, h_coll))
        for h in (h_coll, None):
            pos, ref = x.copy(), x.copy()
            _, psi = apply_jump(spec, pos, j, m, h_main, h, np.empty_like(x))
            if h is not None and theta.any():
                ref += theta / n
            np.add(x[j : j + 1], psi_ref, out=ref[j : j + 1])
            assert isinstance(psi, list)
            assert np.asarray(psi, dtype=np.float64).tobytes() == psi_ref[0].tobytes()
            assert pos.tobytes() == ref.tobytes()


_NOT_POWERS_OF_TWO = [3, 5, 6, 7, 12, 24, 100, 1000, 4095, 2**32 - 1, 2**32 + 1]


@settings(max_examples=300, deadline=None)
@given(theta=st.lists(st.one_of(_EDGE_FLOATS, st.floats()), min_size=1, max_size=8),
       n=st.one_of(st.integers(0, 32).map(lambda k: 2**k), st.sampled_from(_NOT_POWERS_OF_TWO)))
@example(theta=[5.0], n=12)  # 5 * (1 / 12) rounds to another float than 5 / 12: n = 12 must divide
@example(theta=[5e-324, -5e-324, 1.5e-323, -0.0], n=2)  # halfway subnormals round to even
@example(theta=[2.2e-308, 1.7976931348623157e308, -np.inf, np.nan], n=2**32)
def test_collateral_kick_has_the_bits_of_the_division(theta, n):
    # the kicks are theta / n; for n = 2**k the engine multiplies by the exact 2**-k instead,
    # which must round every theta, subnormal, huge, infinite, NaN or -0, to the quotient's bits
    theta = np.asarray(theta)[:, None]
    want = np.divide(theta, n).tobytes()
    assert particle._collateral_kick(theta, n).tobytes() == want
    out = np.empty_like(theta)
    assert particle._collateral_kick(theta, n, out) is out and out.tobytes() == want


class _ReferenceSimulator(CoupledSimulator):
    """The per-event loop before its scalar rewrite, kept as the oracle.

    Every candidate re-hashes the main mark on its own, hashes the
    collateral row again for X, and folds every row's ``np.linalg.norm``
    distance of every pair into a sup of its own after every candidate.
    Jumps and decays write new position arrays instead of updating them in
    place, and X's kicks are ``theta / N`` at every N.  LIMIT reads its
    flow cell and its rate afresh at every candidate.
    """

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self._norm_sup = {k: np.zeros(self.bundle.n) for k in self._sq}

    @property
    def sup(self):
        return self._norm_sup

    def _snapshot(self):
        return {**super()._snapshot(), "norm_sup": {k: v.copy() for k, v in self._norm_sup.items()}}

    def _restore(self, snap):
        super()._restore(snap)
        for k, v in snap["norm_sup"].items():
            self._norm_sup[k][:] = v

    @staticmethod
    def _measure_at(s, t):
        return s.flow.cell(t).measure if s.kind == "LIMIT" else EmpiricalMeasure(s.pos)

    def _update_sup(self, jumped=None, j=0) -> None:
        for (a, b), key in self.PAIR_KEYS.items():
            if key in self._norm_sup:
                d = np.linalg.norm(self.system(a).pos - self.system(b).pos, axis=1)
                np.maximum(self._norm_sup[key], d, out=self._norm_sup[key])

    def _substep(self, t, h, bounds, ceilings=None):
        spec = self.spec
        euler = self.scheme == "euler"
        drifts, diffs = [], []
        for s in self.systems:
            mu = self._measure_at(s, t)
            if s.kind == "Y":
                g = collateral_drift(spec, s.pos, mu)
            elif s.kind == "LIMIT":
                cell = s.flow.cell(t)
                lam_mean = float(s.flow.lam_mean[s.flow.cell_index(t)])
                g = collateral_drift(spec, s.pos, cell.quad, min(lam_mean, s.flow.trunc_c))
            else:
                g = None
            f, sig = _frozen_coefficients(spec, s.pos, mu, g, euler)
            drifts.append(f)
            diffs.append(sig)
        dW = None
        if euler and spec.has_diffusion():
            dW = self.bundle.brownian.normals_block(spec.brownian_dim) * math.sqrt(h)
        bounds = np.broadcast_to(bounds, self.bundle.n)  # a declared bound is one float for every row
        times, jumpers, us, ks = collect_candidates(self.bundle, t, t + h, bounds)
        t_last = t
        for tau, j, u, k in zip(times, jumpers, us, ks):
            j = int(j)
            if not euler and tau > t_last:
                self._decay_all(tau - t_last, drifts)
                t_last = tau
                self._update_sup()
            for s in self.systems:
                mu = self._measure_at(s, tau)
                lam_j = float(np.asarray(spec.rate(s.pos[j : j + 1], mu))[0])
                if lam_j > bounds[j] * (1.0 + 1e-12) + 1e-12:
                    raise RateBoundViolation(
                        f"rate {lam_j:.6g} above bound {bounds[j]:.6g} "
                        f"for particle {j} in system {s.kind} at t={tau:.6g}"
                    )
                if u <= lam_j:
                    pids = self.bundle.particle_ids
                    h_main = float(
                        marks_uniforms(int(self.bundle.marks_keys[j]), int(k), np.asarray([pids[j]]))[0]
                    )
                    new_pos, _psi = apply_jump(spec, s.pos.copy(), j, mu, h_main, None)
                    if s.kind == "X":  # every row but the jumper's takes its kick theta / N
                        h_coll = marks_uniforms(int(self.bundle.marks_keys[j]), int(k), pids)
                        theta = np.asarray(spec.collateral_jump(s.pos[j], s.pos, mu, h_main, h_coll))
                        if theta.any():
                            kicked = s.pos + theta / len(s.pos)
                            kicked[j] = new_pos[j]
                            new_pos = kicked
                    s.jump_times.append(float(tau))
                    s.jump_particles.append(j)
                    s.jump_pre.append(s.pos[j].copy())
                    s.jump_post.append(new_pos[j].copy())
                    s.jump_count += 1
                    s.pos[:] = new_pos
            self._update_sup()
        if euler:
            for s, f, sig in zip(self.systems, drifts, diffs):
                s.pos += h * f
                if dW is not None and sig is not None and sig.shape[-1] > 0:
                    s.pos += np.einsum("nij,nj->ni", sig, dW)
        else:
            self._decay_all(t + h - t_last, drifts)
        for s in self.systems:
            if not np.all(np.isfinite(s.pos)):
                raise NumericalBlowupError(t + h, s.pos.copy(), s.kind)
        self._update_sup()

    def _decay_all(self, s_dt, drifts):
        if s_dt <= 0:
            return
        factor = math.exp(-s_dt)
        for s, g in zip(self.systems, drifts):
            new = s.pos * factor
            if g is not None:
                new += g * (1.0 - factor)
            s.pos[:] = new


def _run_cells(cls, systems, spec, x0, T, dt, seed, particle_ids, **kw):
    sim = cls(spec, make_driver_bundle(seed, 0, len(x0), particle_ids=particle_ids), systems, **kw)
    sim.set_initial(x0)
    grid = []
    for end in output_grid(T, dt):
        sim.advance(end)
        grid.append(np.stack([s.pos.copy() for s in sim.systems]))
    return sim, np.stack(grid)


def _assert_same_run(systems, spec, x0, T, dt, seed, particle_ids=None, engine=CoupledSimulator, **kw):
    new, grid_new = _run_cells(engine, systems, spec, x0, T, dt, seed, particle_ids, **kw)
    ref, grid_ref = _run_cells(_ReferenceSimulator, systems, spec, x0, T, dt, seed, particle_ids, **kw)
    assert np.array_equal(grid_new, grid_ref)
    assert new.sup.keys() == ref.sup.keys()
    for key in ref.sup:
        assert np.array_equal(new.sup[key], ref.sup[key]), key
    for a, b in zip(new.systems, ref.systems):
        assert a.jump_times == b.jump_times
        assert a.jump_particles == b.jump_particles
        assert np.array_equal(np.asarray(a.jump_pre), np.asarray(b.jump_pre))
        assert np.array_equal(np.asarray(a.jump_post), np.asarray(b.jump_post))
    assert new.retry_count == ref.retry_count
    assert new.systems[0].jump_count > 0
    if len(systems) == 3:
        # some candidate is accepted by Y or LIMIT but not by X
        jumps = [set(zip(s.jump_times, s.jump_particles)) for s in new.systems]
        assert jumps[1] - jumps[0] and jumps[2] - jumps[0]
    return new


# strong collateral kicks and steep rates at small N: the three systems then
# often disagree on accepting a candidate, so jumps of Y or LIMIT alone occur
_STRONG_KICKS = {"collateral_amp": 3.0, "rate_slope": 3.0, "rate_cap_radius": 3.0}


@pytest.mark.parametrize("dim, n, sigma_of_x",
                         [(1, 16, False), (1, 12, False), (2, 16, False), (2, 257, False), (1, 16, True)],
                         ids=["1", "1-n12", "2", "2-n257", "1-sigma-of-x"])
def test_event_loop_matches_reference_lipschitz_triple(dim, n, sigma_of_x):
    # N=257: the reused mark and kick buffers and the per-pair sup fold at a
    # size where most rows do not move on a Y or LIMIT jump.  A diffusion that
    # reads x gives each system its own array, so no noise product is shared
    spec = build("lipschitz-demo", dict(_STRONG_KICKS, dim=dim))
    if sigma_of_x:
        spec = dataclasses.replace(spec, diffusion=lambda x, m: (0.3 + 0.2 * np.tanh(x))[:, :, None] * np.eye(dim))
    T, dt = 2.0, 0.1
    flow = solve_limit(spec, 96, T, dt, seed=5, tol=1e-12, max_iter=1)
    x0 = np.random.default_rng(dim).normal(0.3, 0.8, size=(n, dim))
    # relabeled particle ids: element j of the collateral row is then mark pids[j]
    pids = np.random.default_rng(11).permutation(n) if dim == 2 else None
    sim = _assert_same_run(("X", "Y", "LIMIT"), spec, x0, T, dt, 7, pids, flow=flow, scheme="euler")
    assert all(np.all(v > 0) for v in sim.sup.values())


def test_event_loop_matches_reference_limit_rates_across_flow_cells():
    # Euler triple whose rate reads m.mean, on a flow solved on a grid 4x finer
    # than the run's: every sub-step crosses three flow cell ends, so LIMIT's
    # rate vector from the sub-step start goes stale at each; jump_scale 1 and
    # four candidates per row per sub-step make a LIMIT row jump and meet a
    # later candidate in the same sub-step
    base = build("lipschitz-demo", dict(_STRONG_KICKS, jump_scale=1.0))
    # the rate reads the measure's mean, under lipschitz-demo's global bound 10
    spec = dataclasses.replace(base, rate=lambda x, m: 1.0 + 3.0 * np.minimum(np.abs(x[:, 0] - 2.0 * m.mean[0]), 3.0))
    T, dt = 2.0, 0.4
    flow = solve_limit(spec, 96, T, dt / 4, seed=5, tol=1e-12, max_iter=1)
    x0 = np.random.default_rng(3).normal(0.3, 0.8, size=(16, 1))
    policy = StepPolicy(candidate_cap=4.0)
    _assert_same_run(("X", "Y", "LIMIT"), spec, x0, T, dt, 7, flow=flow, scheme="euler", policy=policy)


def test_event_loop_matches_reference_candidate_at_flow_grid_time(monkeypatch):
    # a flow grid time inside each sub-step, with means alternating +1 and -1
    # by cell, and a rate that reads the mean: LIMIT's lies above 1 before the
    # grid time and below 1 from it on.  The first candidate at or after it is
    # moved onto it with u = 1, so LIMIT must read the next cell there
    # (side="right") and reject
    T, dt = 3.0, 0.1
    times = np.asarray([0.0, *output_grid(T, dt / 2)])
    signs = np.where(np.arange(len(times)) % 2 == 0, 1.0, -1.0)
    flow = FlowApproximation(times=times, ensemble=np.tile(signs[:, None, None], (1, 8, 1)),
                             lam_mean=np.zeros(len(times)), trunc_c=math.inf)
    base = build("lipschitz-demo", {"collateral_amp": 3.0, "rate_cap_radius": 2.0, "rate_slope": 0.5})  # bound 2
    spec = dataclasses.replace(base, rate=lambda x, m: 1.0 + 0.5 * math.tanh(4.0 * float(m.mean[0])) + 0.4 * np.tanh(x[:, 0]))
    placed, draw = [], collect_candidates

    def candidates_on_grid(bundle, t0, t1, bounds):
        ts, js, us, ks = draw(bundle, t0, t1, bounds)
        ts, us = ts.copy(), us.copy()
        for g in times[(times > t0) & (times < t1)]:
            k = int(np.searchsorted(ts, g))
            if k < len(ts):
                ts[k], us[k] = g, 1.0
                placed.append((float(g), int(js[k])))
        return ts, js, us, ks

    monkeypatch.setattr(particle, "collect_candidates", candidates_on_grid)
    monkeypatch.setattr(sys.modules[__name__], "collect_candidates", candidates_on_grid)
    x0 = np.random.default_rng(4).normal(0.0, 0.5, size=(16, 1))
    sim = _assert_same_run(("X", "Y", "LIMIT"), spec, x0, T, dt, 9, flow=flow, scheme="euler")
    lim = sim.system("LIMIT")
    assert len(placed) >= 10  # both runs place the same candidates
    assert not set(placed) & set(zip(lim.jump_times, lim.jump_particles))


def _count_per_substep_draws(monkeypatch) -> list:
    calls = []
    monkeypatch.setattr(particle, "collect_candidates", lambda *args: calls.append(1) or collect_candidates(*args))
    return calls


@pytest.mark.parametrize("model", ["lipschitz-demo", "convex-potential"])
@pytest.mark.parametrize("dim", [1, 2])
def test_coupled_run_on_the_predrawn_grid_equals_drawing_per_substep(model, dim, monkeypatch):
    # simulate_coupled draws a globally bounded model's whole sub-step grid before the run;
    # a bare CoupledSimulator advanced cell by cell draws in every sub-step
    spec = build(model, dict(_STRONG_KICKS, dim=dim))
    n, T, dt = 24, 1.0, 0.1
    flow = solve_limit(spec, 96, T, dt, seed=5, tol=1e-12, max_iter=1, init=InitSampler(mean=(0.3,) * dim))
    x0 = np.random.default_rng(dim).normal(0.3, 0.8, size=(n, dim))
    policy = StepPolicy(candidate_cap=0.3)  # 4 sub-steps a cell whose widths the remaining time sizes
    systems = ("X", "Y", "LIMIT")
    calls = _count_per_substep_draws(monkeypatch)
    res = simulate_coupled(systems, spec, T, dt, make_driver_bundle(7, 0, n), flow=flow,
                           initial_positions=x0, policy=policy)
    assert calls == []
    sim, grid = _run_cells(CoupledSimulator, systems, spec, x0, T, dt, 7, None, flow=flow, policy=policy)
    assert len(calls) == 4 * len(output_grid(T, dt))
    for i, s in enumerate(sim.systems):
        paths = res["paths"][s.kind]
        assert np.array_equal(paths.positions[1:], grid[:, i])
        assert paths.jump_times.tolist() == s.jump_times and paths.jump_particles.tolist() == s.jump_particles
        assert np.array_equal(paths.jump_pre, np.asarray(s.jump_pre).reshape(-1, dim))
        assert np.array_equal(paths.jump_post, np.asarray(s.jump_post).reshape(-1, dim))
        assert res["jump_counts"][s.kind] == s.jump_count > 0
    assert res["sup"].keys() == sim.sup.keys()
    for key, sup in sim.sup.items():
        assert sup.tobytes() == res["sup"][key].tobytes(), key


def test_a_predrawn_grid_entry_for_another_substep_raises(monkeypatch):
    spec = build("lipschitz-demo")
    policy = StepPolicy(candidate_cap=0.3)
    grid = particle._substep_grid(spec, policy, [0.1, 0.2])
    assert len(grid) == 2
    t, h = grid[1]
    monkeypatch.setattr(particle, "_substep_grid", lambda *args: [grid[0], (t, np.nextafter(h, 1.0))])
    with pytest.raises(InvalidInputError, match=rf"^draw tape entry 1 is not for the sub-step at t={t!r}, h={h!r}: "
                                                 "the tape was drawn for another grid$"):
        simulate("X", spec, 0.2, 0.1, make_driver_bundle(7, 0, 8), policy=policy)


@pytest.mark.parametrize("n", [64, 1024, 4096])
@pytest.mark.parametrize("bdim", [None, 1, 2])
@pytest.mark.parametrize("substeps", [1, 40])
def test_grid_draws_equal_drawing_substep_by_substep(n, bdim, substeps, monkeypatch):
    # the producer takes one batched walk per 2**16 numbers on a bundle of n * bdim <= 2,048 rows
    # asked for more than one sub-step, else draws each sub-step; either way its numbers and the
    # bundle's counters after it are those of normals_block and collect_candidates called per sub-step
    rng = np.random.default_rng(n + substeps)
    widths = rng.uniform(0.05, 0.5, size=substeps)
    grid = list(zip(np.concatenate(([0.0], np.cumsum(widths)[:-1])).tolist(), widths.tolist()))
    bounds = rng.uniform(0.0, 3.0, size=n)
    bounds[::7] = 0.0
    walks = {"batched": 0, "per sub-step": 0}
    for name, attr in (("batched", "_grid_candidates"), ("per sub-step", "collect_candidates")):
        fn = getattr(particle, attr)
        monkeypatch.setattr(particle, attr, lambda *a, fn=fn, name=name: walks.__setitem__(name, walks[name] + 1) or fn(*a))
    bundle, ref = make_driver_bundle(3, 1, n), make_driver_bundle(3, 1, n)
    drawn = list(particle._grid_draws(bundle, grid, bounds, bdim))
    batched = n * (bdim or 1) <= 2048 and substeps > 1
    assert walks == ({"batched": math.ceil(substeps / ((1 << 16) // (n * (bdim or 1)))), "per sub-step": 0}
                     if batched else {"batched": 0, "per sub-step": substeps})
    assert len(drawn) == substeps
    for (t, h), (t_, h_, dW, cands) in zip(grid, drawn):
        assert (t_, h_) == (t, h)
        if bdim is None:
            assert dW is None
        else:
            assert dW.tobytes() == (ref.brownian.normals_block(bdim) * math.sqrt(h)).tobytes()
        for a, b in zip(cands, collect_candidates(ref, t, t + h, bounds)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    for key, value in ref.snapshot().items():
        assert np.array_equal(bundle.snapshot()[key], value), key
    assert sum(len(c[0]) for *_, c in drawn) > substeps


class _PredictionLog(CoupledSimulator):
    """The engine, counting X's candidates of every finished sub-step by whether X's start rate predicted
    their acceptance (level at most the rate) and whether X accepted them; both recomputed here."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.kinds = {(p, a): 0 for p in (False, True) for a in (False, True)}  # (predicted, accepted) -> count

    def _substep(self, t, h, bounds, ceilings):
        x = self.system("X")
        lam = np.asarray(self.spec.rate(x.pos, x.measure_now(t)), dtype=np.float64)
        snap = self.bundle.snapshot()
        times, jumpers, us, _ = collect_candidates(self.bundle, t, t + h, np.broadcast_to(bounds, self.bundle.n))
        self.bundle.restore(snap)
        first = x.jump_count
        super()._substep(t, h, bounds, ceilings)
        accepted = set(zip(x.jump_times[first:], x.jump_particles[first:]))
        for tau, j, u in zip(times.tolist(), jumpers.tolist(), us.tolist()):
            self.kinds[(u <= lam[j], (tau, j) in accepted)] += 1


def _neuronal_triple():
    spec = build("neuronal", {"collateral_amp": 1.9})
    flow = solve_limit(spec, 96, 2.0, 0.1, seed=2, tol=1e-12, max_iter=1, init=InitSampler(kind="uniform"))
    return spec, flow, InitSampler(kind="uniform").sample(make_driver_bundle(4, 1, 16), 1), 1, {"scheme": "exact"}


def _lipschitz_triple():
    spec = build("lipschitz-demo", dict(_STRONG_KICKS, jump_scale=1.0))
    flow = solve_limit(spec, 96, 2.0, 0.1, seed=5, tol=1e-12, max_iter=1)
    return spec, flow, np.random.default_rng(1).normal(0.3, 0.8, size=(16, 1)), 0, {"scheme": "euler"}


def _rate_following_triple():
    # the same steep rates and strong kicks without the declared bound, under an envelope they often break
    base = build("lipschitz-demo", dict(_STRONG_KICKS, jump_scale=1.0))
    spec = dataclasses.replace(base, meta=dataclasses.replace(base.meta, rate_global_bound=None))
    policy = StepPolicy(bound_mult=1.0, bound_add=0.5, max_retries=16)
    flow = solve_limit(spec, 96, 2.0, 0.1, seed=5, tol=1e-12, max_iter=1, policy=policy)
    x0 = np.random.default_rng(1).normal(0.3, 0.8, size=(16, 1))
    return spec, flow, x0, 0, {"scheme": "euler", "policy": policy}


@pytest.mark.parametrize("batch", [CoupledSimulator.MARK_BATCH, 48], ids=["default-batch", "batch-48"])
@pytest.mark.parametrize("run", [_neuronal_triple, _lipschitz_triple, _rate_following_triple],
                         ids=["exact", "euler", "rate-following-retries"])
def test_event_loop_matches_reference_when_the_mark_prediction_fails(run, batch, monkeypatch):
    # X's mark rows are hashed in batches of the candidates its start rates predict it accepts; a predicted
    # candidate that X rejects leaves an unused row, and one that X accepts unpredicted is hashed alone,
    # keeping the batch in hand.  Decays, kicks and retried sub-steps make both happen; 48 numbers are
    # 3 rows at N=16, so a sub-step also opens several batches.  The oracle hashes every jump's row alone
    monkeypatch.setattr(CoupledSimulator, "MARK_BATCH", batch)
    spec, flow, x0, seed, kw = run()
    sim = _assert_same_run(("X", "Y", "LIMIT"), spec, x0, 2.0, 0.1, seed, engine=_PredictionLog, flow=flow, **kw)
    assert sim.kinds[(True, False)] > 0 and sim.kinds[(False, True)] > 0, sim.kinds
    assert sim.kinds[(True, True)] > 10 * sim.kinds[(False, True)]
    assert (run is _rate_following_triple) == (sim.retry_count > 0)


def test_event_loop_matches_reference_neuronal_triple():
    # X's kicks divide by N = 12 and multiply by 2**-4 at N = 16; the oracle divides at both
    spec = build("neuronal", {"collateral_amp": 1.9})
    T, dt = 2.0, 0.1
    flow = solve_limit(spec, 96, T, dt, seed=2, tol=1e-12, max_iter=1, init=InitSampler(kind="uniform"))
    for n in (12, 16):
        x0 = InitSampler(kind="uniform").sample(make_driver_bundle(4, 1, n), 1)
        _assert_same_run(("X", "Y", "LIMIT"), spec, x0, T, dt, 4, flow=flow, scheme="exact")


def test_exact_triple_folds_left_limits_only_at_accepted_jumps():
    # bound_add 20 lifts every thinning bound far above the rates, so most
    # candidates are rejected between two jumps; the oracle folds every row at
    # each of them, the engine only before an accepted jump and at sub-step ends
    spec = build("neuronal", {"collateral_amp": 1.9})
    n, T, dt = 24, 2.0, 0.1
    flow = solve_limit(spec, 96, T, dt, seed=2, tol=1e-12, max_iter=1, init=InitSampler(kind="uniform"))
    x0 = InitSampler(kind="uniform").sample(make_driver_bundle(4, 1, n), 1)
    sim = _assert_same_run(("X", "Y", "LIMIT"), spec, x0, T, dt, 8, flow=flow, scheme="exact",
                           policy=StepPolicy(bound_add=20.0))
    candidates = int(sim.bundle.cand_counts.sum())
    assert all(10 * s.jump_count < candidates for s in sim.systems)
    assert all(np.all(v > 0) for v in sim.sup.values())


def test_event_loop_matches_reference_with_halving_retries():
    spec = _spec(
        drift=lambda x, m: np.zeros_like(x),
        rate=lambda x, m: np.abs(x[:, 0]),
        main=lambda x, m, h: np.ones_like(x),
        cap=None,
    )
    policy = StepPolicy(bound_mult=1.0, bound_add=0.05, candidate_cap=8.0, max_retries=16)
    sim = _assert_same_run(("X", "Y"), spec, np.full((4, 1), 1.0), 3.0, 0.5, 6, policy=policy)
    assert sim.retry_count > 0


def test_event_loop_matches_reference_triple_with_halving_retries():
    # LIMIT's start-of-sub-step rates stay valid through a halved retry, which
    # rewinds the positions they were taken at
    spec = _spec(
        drift=lambda x, m: np.zeros_like(x),
        rate=lambda x, m: np.abs(x[:, 0] - 0.5 * m.mean[0]),
        main=lambda x, m, h: np.ones_like(x),
        collateral=lambda xj, tg, m, h1, h2: 4.0 * (np.asarray(h2)[:, None] - 0.5),
        cap=None,
    )
    policy = StepPolicy(bound_mult=1.0, bound_add=0.05, candidate_cap=8.0, max_retries=16)
    flow = constant_flow(np.linspace(-1.0, 3.0, 8).reshape(8, 1), 3.0)
    sim = _assert_same_run(("X", "Y", "LIMIT"), spec, np.ones((6, 1)), 3.0, 0.5, 6, flow=flow, policy=policy,
                           scheme="euler")
    assert sim.retry_count > 0


def test_unrecorded_triple_counts_jumps_across_retries():
    # without a jump log the systems only count their jumps; a halved retry
    # must rewind the count exactly as it rewinds the log
    spec = _spec(
        drift=lambda x, m: np.zeros_like(x),
        rate=lambda x, m: np.abs(x[:, 0]),
        main=lambda x, m, h: np.ones_like(x),
        cap=None,
    )
    policy = StepPolicy(bound_mult=1.0, bound_add=0.05, candidate_cap=8.0, max_retries=16)
    flow = constant_flow(np.ones((4, 1)), 3.0)
    runs = [
        simulate_coupled(("X", "Y", "LIMIT"), spec, 3.0, 0.5, make_driver_bundle(6, 0, 4), flow=flow,
                         initial_positions=np.ones((4, 1)), policy=policy, record_paths=record)
        for record in (False, True)
    ]
    assert runs[0]["retries"] == runs[1]["retries"] > 0
    assert runs[0]["jump_counts"] == runs[1]["jump_counts"]
    assert all(runs[1]["jump_counts"][k] == len(runs[1]["paths"][k].jump_times) > 0 for k in ("X", "Y", "LIMIT"))
    assert runs[0]["sup"].keys() == runs[1]["sup"].keys()
    assert all(np.array_equal(runs[0]["sup"][k], runs[1]["sup"][k]) for k in runs[0]["sup"])
    assert "paths" not in runs[0]


@pytest.mark.parametrize("run", [_neuronal_triple, _rate_following_triple], ids=["exact", "rate-following-retries"])
def test_a_run_without_a_jump_log_has_the_bits_of_the_logged_run(run):
    # the jump log is bookkeeping: without it the triple and X alone keep every grid position, jump count,
    # retry and sup bit for bit, and the path record keeps its jump count
    spec, flow, x0, seed, kw = run()
    n = len(x0)
    logged, bare = (simulate_coupled(("X", "Y", "LIMIT"), spec, 2.0, 0.1, make_driver_bundle(seed, 0, n), flow=flow,
                                     initial_positions=x0, jump_log=log, **kw) for log in (True, False))
    assert bare["retries"] == logged["retries"] and bare["jump_counts"] == logged["jump_counts"]
    assert bare["sup"].keys() == logged["sup"].keys()
    assert all(bare["sup"][k].tobytes() == logged["sup"][k].tobytes() for k in logged["sup"])
    alone = [simulate("X", spec, 2.0, 0.1, make_driver_bundle(seed, 0, n), initial_positions=x0, jump_log=log, **kw)
             for log in (True, False)]
    for with_log, without in [*((logged["paths"][k], bare["paths"][k]) for k in ("X", "Y", "LIMIT")), alone]:
        assert without.times.tobytes() == with_log.times.tobytes()
        assert without.positions.tobytes() == with_log.positions.tobytes()
        assert without.jump_count == with_log.jump_count == len(with_log.jump_times) > 0
        assert without.jump_times is without.jump_particles is without.jump_pre is without.jump_post is None
    assert logged["jump_counts"] == {k: logged["paths"][k].jump_count for k in ("X", "Y", "LIMIT")}


@pytest.mark.parametrize(
    "model, n, low, relabel",
    [("lipschitz-demo", 16, -1.0, False), ("lipschitz-demo", 12, -1.0, False), ("neuronal", 12, 0.0, False),
     ("neuronal", 16, 0.0, True), ("neuronal", 257, 0.0, True)],
    ids=["lipschitz-demo-n16", "lipschitz-demo-n12", "neuronal-n12", "neuronal-n16", "neuronal-n257"],
)
def test_event_loop_matches_reference_x_only(model, n, low, relabel):
    # neuronal: the exact scheme's in-place decays; ids spread over [0, 2**32)
    # check the cached per-particle mark offsets
    spec = build(model, {})
    x0 = np.linspace(low, 1.0, n).reshape(n, 1)
    pids = np.random.default_rng(n).choice(2**32, n, replace=False) if relabel else None
    sim = _assert_same_run(("X",), spec, x0, 1.0, 0.1, 3, pids)
    assert sim.sup == {}
    assert sim.scheme == ("exact" if model == "neuronal" else "euler")


@pytest.mark.parametrize("model, params, scheme", [
    ("lipschitz-demo", dict(_STRONG_KICKS, jump_scale=1.0), "euler"),
    ("convex-potential", dict(_STRONG_KICKS, dim=2), "euler"),
    ("neuronal", {"collateral_amp": 1.9}, "exact"),
])
def test_coupled_sups_keep_the_triangle_inequality(model, params, scheme):
    # at every fold |X - LIMIT| <= |X - Y| + |Y - LIMIT|, each at most its own sup, as long as every pair
    # folds each row that moved; steep rates and strong kicks make Y and LIMIT jump without X.  A missed
    # fold lowers a sup, so this sees only misses in xy or ylimit where xlimit folds: it fails when the
    # X-Y fold after a Y-only jump is skipped, not when X jumps fold row j alone (xy and xlimit both miss)
    spec = build(model, params)
    n, T, dt = 16, 2.0, 0.1
    init = InitSampler(kind="uniform") if model == "neuronal" else InitSampler(mean=(0.5,) * spec.dim, std=0.8)
    flow = solve_limit(spec, 64, T, dt, seed=3, tol=1e-12, max_iter=1, init=init)
    sups = [simulate_coupled(("X", "Y", "LIMIT"), spec, T, dt, make_driver_bundle(seed, 0, n), flow=flow, init=init,
                             scheme=scheme, record_paths=False)["sup"] for seed in range(16)]
    for sup in sups:
        assert np.all(sup["xlimit"] <= (sup["xy"] + sup["ylimit"]) * (1.0 + 1e-12))
        assert np.all(sup["xy"] > 0) and np.all(sup["ylimit"] > 0)


def test_step_policy_rejects_unusable_values():
    for bad in (
        {"candidate_cap": 0.0}, {"candidate_cap": float("nan")}, {"max_retries": -1},
        {"bound_mult": -1.0}, {"bound_mult": float("inf")}, {"bound_add": float("nan")}, {"bound_add": -0.5},
        {"candidate_cap": "abc"}, {"max_retries": 1.5}, {"bound_add": True},  # a TypeError, accepted, accepted
    ):
        with pytest.raises(InvalidInputError, match=next(iter(bad))):
            StepPolicy(**bad)


def test_init_sampler_rejects_unusable_values_when_built():
    # the config's init section is this type: a bad value fails at
    # construction with the key's name, not inside sample or in every cell
    for bad in (
        {"kind": "bogus"}, {"std": "abc"}, {"low": None}, {"high": float("nan")}, {"mean": 5}, {"point": ("a",)},
        {"std": 10**400},  # an integer above the largest float
    ):
        with pytest.raises(InvalidInputError, match=next(iter(bad))):
            InitSampler(**bad)
    init, policy = InitSampler(), StepPolicy()  # the shims bench/workloads.py calls
    assert init.sampler() is init and policy.policy() is policy


# -- generator -------------------------------------------------------------


def test_generator_kills_constants():
    spec = build("lipschitz-demo", {})
    phi = Observable(
        value=lambda x: np.ones(np.asarray(x).shape[:-2]) if np.asarray(x).ndim > 2 else 1.0,
        grad=lambda x: np.zeros_like(np.asarray(x, dtype=np.float64)),
        is_linear=True,
    )
    x = np.asarray([[0.7], [-0.3]])
    assert generator_apply(spec, phi, x) == pytest.approx(0.0, abs=1e-12)


def test_generator_first_order_term():
    # no jumps: L phi = F . grad phi = -x_1 for phi the first coordinate
    spec = _spec(
        drift=lambda x, m: -x,
        rate=lambda x, m: np.zeros(x.shape[0]),
        main=lambda x, m, h: np.zeros_like(x),
        cap=0.0,
        main_jump_mean=lambda x, m: np.zeros_like(x),
    )
    phi = coordinate_function(0, 0)
    x = np.asarray([[1.3], [0.2]])
    assert generator_apply(spec, phi, x) == pytest.approx(-1.3, abs=1e-12)


def test_generator_constant_jump():
    # lambda = lam0, psi = a, Theta = 0: L x_1 = lam0 * a
    lam0, a = 1.7, 0.45
    spec = _spec(
        drift=lambda x, m: np.zeros_like(x),
        rate=lambda x, m: np.full(x.shape[0], lam0),
        main=lambda x, m, h: np.full_like(x, a),
        cap=lam0,
    )
    phi = coordinate_function(0, 0)
    x = np.asarray([[0.0], [2.0], [-1.0]])
    # Monte Carlo route (constant integrand -> zero variance, exact)
    assert generator_apply(spec, phi, x) == pytest.approx(lam0 * a, abs=1e-12)
    # closed-form route
    spec2 = _spec(
        drift=lambda x, m: np.zeros_like(x),
        rate=lambda x, m: np.full(x.shape[0], lam0),
        main=lambda x, m, h: np.full_like(x, a),
        cap=lam0,
        main_jump_mean=lambda x, m: np.full_like(x, a),
    )
    assert generator_apply(spec2, phi, x) == pytest.approx(lam0 * a, abs=1e-12)


def test_generator_diffusion_term():
    # pure diffusion, phi = x_1^2: L phi = sigma^2
    s0 = 0.6
    spec = _spec(
        drift=lambda x, m: np.zeros_like(x),
        rate=lambda x, m: np.zeros(x.shape[0]),
        main=lambda x, m, h: np.zeros_like(x),
        cap=0.0,
        sigma=s0,
    )

    def value(x):
        x = np.asarray(x)
        return x[..., 0, 0] ** 2

    def grad(x):
        g = np.zeros_like(np.asarray(x, dtype=np.float64))
        g[0, 0] = 2.0 * x[0, 0]
        return g

    def hess(x):
        h = np.zeros((x.shape[0], 1, 1))
        h[0, 0, 0] = 2.0
        return h

    phi = Observable(value=value, grad=grad, hess=hess)
    assert generator_apply(spec, phi, np.asarray([[0.9], [0.1]])) == pytest.approx(s0**2, abs=1e-12)


def test_generator_monte_carlo_matches_closed_form():
    spec = build("lipschitz-demo", {"sigma0": 0.0})
    x = np.asarray([[1.0], [-0.5]])
    closed = generator_apply(spec, coordinate_function(0, 0), x)
    # forcing the Monte Carlo route must agree within its tolerance gate
    phi_mc = Observable(
        value=coordinate_function(0, 0).value,
        grad=coordinate_function(0, 0).grad,
        is_linear=False,
    )
    mc = generator_apply(spec, phi_mc, x, mark_draws=1 << 14, rel_tol=2e-2)
    assert mc == pytest.approx(closed, rel=5e-2, abs=2e-2)


def test_generator_quadrature_gate():
    spec = build("lipschitz-demo", {"sigma0": 0.0})
    phi_mc = Observable(
        value=coordinate_function(0, 0).value,
        grad=coordinate_function(0, 0).grad,
        is_linear=False,
    )
    with pytest.raises(GeneratorQuadratureError) as err:
        generator_apply(spec, phi_mc, np.asarray([[1.0], [-0.5]]), mark_draws=8, rel_tol=1e-6, abs_tol=1e-9)
    assert np.isfinite(err.value.estimate)


# -- weak error -------------------------------------------------------------


def test_weak_kernel_matches_reference_stepper():
    spec = build("lipschitz-demo", {"sigma0": 0.0})
    x0 = np.asarray([[1.0], [-0.5]])
    phi = coordinate_function(0, 0)
    h = 2.0**-4
    pos = single_step_weak_estimate(spec, phi, x0, h, samples=64, seed=9,
                                    replica_base=1 << 41, return_positions=True)
    for r in (0, 1, 7, 33, 63):
        b = make_driver_bundle(9, (1 << 41) + r, 2)
        assert np.array_equal(_one_step("X", spec, x0.copy(), h, b), pos[r])


def test_weak_kernel_with_diffusion_matches_reference_stepper():
    spec = build("lipschitz-demo", {"sigma0": 0.4})
    x0 = np.asarray([[1.0], [-0.5]])
    phi = coordinate_function(0, 0)
    pos = single_step_weak_estimate(spec, phi, x0, 2.0**-5, samples=16, seed=4,
                                    replica_base=1 << 42, return_positions=True)
    for r in (0, 5, 15):
        b = make_driver_bundle(4, (1 << 42) + r, 2)
        assert np.allclose(_one_step("X", spec, x0.copy(), 2.0**-5, b), pos[r], rtol=0, atol=1e-15)


def test_weak_error_first_order_slope():
    from mfjump.metrics import fit_rate

    spec = build(
        "lipschitz-demo",
        {"sigma0": 0.0, "mean_reversion": 2.0, "interaction": 1.0,
         "rate_base": 2.0, "rate_slope": 1.0, "jump_scale": 0.6},
    )
    x0 = np.asarray([[1.0], [-0.5]])
    phi = coordinate_function(0, 0)
    L = generator_apply(spec, phi, x0)
    phi0 = float(phi.value(x0))
    hs = [2.0**-k for k in range(4, 8)]
    res, ses = [], []
    for h in hs:
        est = single_step_weak_estimate(spec, phi, x0, h, samples=1 << 18, seed=501)
        res.append(abs((est.mean - phi0) / h - L))
        ses.append(est.se / h)
    # every point must be resolved above its Monte Carlo error
    assert all(r > 2 * s for r, s in zip(res, ses))
    fit = fit_rate([1.0 / h for h in hs], res, ses)
    assert -fit.slope >= 0.8
