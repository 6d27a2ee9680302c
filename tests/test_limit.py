import math
import zipfile

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import mfjump.limit as limit
from mfjump.drivers import InvalidInputError, make_driver_bundle
from mfjump.metrics import w1_capped
from mfjump.limit import (
    FlowApproximation,
    constant_flow,
    ensemble_noise_floor,
    flow_delta,
    picard_iterate,
    simulate_ensemble,
    solve_limit,
)
from mfjump.models import AssumptionMeta, ModelSpec
from mfjump.particle import (
    CoupledSimulator,
    InitSampler,
    NumericalBlowupError,
    RateBoundViolation,
    StepPolicy,
    simulate_coupled,
)
from mfjump.zoo import build

UNIF = InitSampler(kind="uniform", low=0.0, high=1.0)


def _reset_spec(lam0=None, reset_max=1.0, with_rate=None):
    """Pull-to-origin process whose main jump resets into [0, reset_max]."""
    rate = with_rate or (lambda x, m: np.full(x.shape[0], lam0))
    return ModelSpec(
        drift=lambda x, m: -x,
        diffusion=lambda x, m: np.zeros((x.shape[0], 1, 0)),
        rate=rate,
        main_jump=lambda x, m, h: reset_max * np.asarray(h, dtype=float).reshape(-1, 1) - x,
        collateral_jump=lambda xj, tg, m, h1, h2: np.zeros((tg.shape[0], 1)),
        dim=1,
        brownian_dim=0,
        class_tag="lipschitz",
        meta=AssumptionMeta(rate_global_bound=lam0),
        collateral_mean=None,
        main_jump_mean=lambda x, m: 0.5 * reset_max * np.ones_like(x) - x,
        exact_linear_ok=True,
    )


def test_picard_constant_rate_fixed_point():
    # constant rate: the flow's rate summary is exact immediately and the
    # second sweep reproduces the first pathwise, so its delta is zero
    lam0 = 1.3
    spec = _reset_spec(lam0=lam0)
    M, T, dt = 2000, 1.5, 0.05
    bundle = make_driver_bundle(4, 0, M)  # only for the initial sample shape
    flow0 = constant_flow(np.full((M, 1), 0.4), T, spec)
    flow1, d1 = picard_iterate(flow0, spec, T, dt, seed=4, initial_positions=np.full((M, 1), 0.4))
    flow2, d2 = picard_iterate(flow1, spec, T, dt, seed=4, initial_positions=np.full((M, 1), 0.4))
    assert np.allclose(flow1.lam_mean, lam0, atol=0)
    assert d1 > 0
    assert d2 == 0.0


def test_picard_no_jumps_collapses_to_decay():
    spec = _reset_spec(lam0=0.0)
    M, T, dt = 500, 2.0, 0.1
    x0 = np.full((M, 1), 1.0)
    flow0 = constant_flow(x0, T, spec)
    flow1, _ = picard_iterate(flow0, spec, T, dt, seed=1, initial_positions=x0)
    flow2, d2 = picard_iterate(flow1, spec, T, dt, seed=1, initial_positions=x0)
    assert d2 == 0.0
    decay = np.exp(-flow1.times)
    assert np.allclose(flow1.ensemble[:, :, 0], decay[:, None], rtol=1e-10)


def test_flow_delta_reads_the_cell_in_force_across_grids():
    # iteration 0's constant flow lives on the 2-point grid [0, T]; every
    # time of the finer grid reads its one ensemble, and the other way round
    # the fine flow's cell at each of the two times
    spec = _reset_spec(lam0=0.0)
    M, T = 64, 2.0
    x0 = np.full((M, 1), 1.0)
    flow0 = constant_flow(x0, T, spec)
    flow1, d1 = picard_iterate(flow0, spec, T, 0.1, seed=1, initial_positions=x0)
    assert len(flow1.times) == 21
    assert d1 == flow_delta(flow0, flow1) == pytest.approx(1.0 - math.exp(-T), rel=1e-10)
    assert flow_delta(flow1, flow0) == d1


def _plain_flow_delta(flow_a, flow_b, seed):
    # the per-grid-time loop that flow_delta replaced: the oracle
    worst = 0.0
    for t, ens in zip(flow_b.times, flow_b.ensemble):
        worst = max(worst, w1_capped(flow_a.ensemble[flow_a.cell_index(t)], ens, seed=seed))
    return worst


def _plain_noise_floor(flow, seed):
    worst = 0.0
    for ens in flow.ensemble:
        worst = max(worst, w1_capped(ens[0::2], ens[1::2], seed=seed) / math.sqrt(2.0))
    return worst


def _picard_flows(spec, M, seed, sweeps, T=0.3, dt=0.1):
    x0 = InitSampler(mean=(0.5,) * spec.dim, std=0.5).sample(make_driver_bundle(seed, 0, M), spec.dim)
    flows = [constant_flow(x0, T, spec)]
    for _ in range(sweeps):
        flows.append(picard_iterate(flows[-1], spec, T, dt, seed=seed, initial_positions=x0)[0])
    return flows


@pytest.mark.parametrize("model,d,M", [
    ("lipschitz-demo", 1, 4096), ("lipschitz-demo", 2, 1030), ("convex-potential", 3, 1030), ("neuronal", 1, 2048),
])
def test_flow_delta_and_noise_floor_equal_the_plain_loop(model, d, M):
    # first-sweep and converged pairs, and the even/odd halves: every bit
    spec = build(model, {"dim": d} if model != "neuronal" else {})
    for seed in (3, 11):
        flows = _picard_flows(spec, M, seed, sweeps=4)
        for flow_a, flow_b in zip(flows, flows[1:]):
            assert flow_delta(flow_a, flow_b, seed=seed) == _plain_flow_delta(flow_a, flow_b, seed)
        for flow in flows[1:]:
            assert ensemble_noise_floor(flow, seed=seed) == _plain_noise_floor(flow, seed)


def test_converged_flow_delta_solves_fewer_assignments(monkeypatch):
    import mfjump.metrics

    spec = build("lipschitz-demo", {"dim": 2})
    flows = _picard_flows(spec, 1030, 5, sweeps=2)
    solver = mfjump.metrics._linear_sum_assignment()
    solves = []

    def counting():
        def solve(cost):
            solves.append(cost.shape)
            return solver(cost)
        return solve

    monkeypatch.setattr(mfjump.metrics, "_linear_sum_assignment", counting)
    delta = flow_delta(flows[-2], flows[-1], seed=5)
    fast = len(solves)
    assert delta == _plain_flow_delta(flows[-2], flows[-1], 5)
    plain = len(solves) - fast
    # times 0 and 0.1 hold the same ensembles on both sides (the first cell
    # reads the start ensemble in every sweep) and need no solve; of 0.2 and
    # 0.3 only the one with the larger identity bound is solved
    assert len(flows[-1].times) == 4
    assert (fast, plain) == (1, 2)


@pytest.mark.parametrize("threads", [1, 2])
def test_noise_floor_solves_fewer_assignments(monkeypatch, threads):
    import mfjump.metrics

    spec = build("lipschitz-demo", {"dim": 2})
    flow = _picard_flows(spec, 1030, 5, sweeps=1)[-1]
    solver = mfjump.metrics._linear_sum_assignment()
    solves = []

    def counting():
        def solve(cost):
            solves.append(cost.shape)
            return solver(cost)
        return solve

    monkeypatch.setattr(mfjump.metrics, "_solver_threads", lambda: threads)
    monkeypatch.setattr(mfjump.metrics, "_linear_sum_assignment", counting)
    floor = ensemble_noise_floor(flow, seed=5)
    fast = solves.count((512, 512))
    assert floor == _plain_noise_floor(flow, 5)
    plain = solves.count((512, 512)) - fast
    # the even/odd halves' identity bounds are ~9x their W1 and skip nothing; once the threads are
    # busy or a W1 is known, the block bounds of the later grid times fall below a solved W1 (a
    # second thread may start a second solve before the first W1 is known)
    assert len(flow.times) == 4
    assert plain == 4 and 1 <= fast <= threads


def test_picard_contraction_neuronal():
    spec = build("neuronal", {})
    M, T, dt = 4000, 3.0, 0.05
    flow = solve_limit(spec, M, T, dt, seed=7, tol=1e-12, max_iter=5, init=UNIF)
    deltas = flow.meta["deltas"]
    assert len(deltas) >= 4
    ratios = [b / a for a, b in zip(deltas, deltas[1:]) if a > 0]
    assert all(r < 1.0 for r in ratios)


def test_picard_fixed_point_within_noise_floor():
    spec = build("neuronal", {})
    M, T, dt = 4000, 3.0, 0.05
    flow = solve_limit(spec, M, T, dt, seed=7, tol=1e-12, max_iter=6, init=UNIF)
    x0 = UNIF.sample(make_driver_bundle(7, 1 << 40, M), 1)
    _, delta = picard_iterate(flow, spec, T, dt, seed=7, initial_positions=x0)  # at the flow's own C
    assert delta <= 2.0 * flow.meta["noise_floor"]


def test_solve_limit_vacuous_tolerance():
    spec = _reset_spec(lam0=1.0)
    flow = solve_limit(spec, 200, 1.0, 0.1, seed=2, tol=math.inf, max_iter=5,
                       init=InitSampler(kind="point", point=(0.2,)))
    assert flow.meta["converged"] is True
    assert len(flow.meta["deltas"]) == 1


def test_solve_limit_rejects_bad_tol():
    spec = _reset_spec(lam0=1.0)
    with pytest.raises(InvalidInputError):
        solve_limit(spec, 100, 1.0, 0.1, tol=0.0)


@pytest.mark.parametrize("M", [1001, 1, 0])
def test_solve_limit_rejects_an_odd_or_tiny_ensemble_before_the_first_sweep(monkeypatch, M):
    # the noise floor compares the even and odd halves; an odd M used to fail
    # only after every sweep, and in d=2 with a raw IndexError
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr("mfjump.limit.picard_iterate", no_sweep)
    for d in (1, 2):
        with pytest.raises(InvalidInputError, match=f"ensemble size M must be even and >= 2, got {M}"):
            solve_limit(build("lipschitz-demo", {"dim": d}), M, 0.3, 0.1, seed=1, max_iter=2)


def test_solve_limit_ou_mean():
    # pure Ornstein-Uhlenbeck: ensemble mean at T matches x0 e^{-T}
    s0, x0, T = 0.5, 1.0, 1.0
    spec = ModelSpec(
        drift=lambda x, m: -x,
        diffusion=lambda x, m: np.broadcast_to(s0 * np.eye(1), (x.shape[0], 1, 1)),
        rate=lambda x, m: np.zeros(x.shape[0]),
        main_jump=lambda x, m, h: np.zeros_like(x),
        collateral_jump=lambda xj, tg, m, h1, h2: np.zeros((tg.shape[0], 1)),
        dim=1,
        brownian_dim=1,
        class_tag="lipschitz",
        meta=AssumptionMeta(rate_global_bound=0.0),
        main_jump_mean=lambda x, m: np.zeros_like(x),
    )
    M = 20_000
    flow = solve_limit(spec, M, T, 0.004, seed=10, tol=1e-9, max_iter=2,
                       init=InitSampler(kind="point", point=(x0,)))
    final = flow.ensemble[-1, :, 0]
    se = final.std(ddof=1) / np.sqrt(M)
    assert abs(final.mean() - x0 * np.exp(-T)) < 3 * se + 1e-3  # 1e-3 Euler-bias allowance


def test_solve_limit_stationary_mean_vs_master_equation():
    # reset process: dm/dt = -(1 + lam0) m + lam0 * ubar, so the stationary
    # mean is lam0 * ubar / (1 + lam0); the ODE oracle integrates the same
    # first-moment equation independently of the particle scheme
    lam0, u_max, T = 2.0, 1.0, 8.0
    ubar = u_max / 2
    spec = _reset_spec(lam0=lam0, reset_max=u_max)
    m_inf = lam0 * ubar / (1.0 + lam0)

    ode = solve_ivp(
        lambda t, y: -(1.0 + lam0) * y + lam0 * ubar, (0.0, T), [0.9],
        rtol=1e-10, atol=1e-12, dense_output=True,
    )
    assert abs(ode.y[0, -1] - m_inf) < 1e-6  # long horizon reached stationarity

    M = 20_000
    flow = solve_limit(spec, M, T, 0.05, seed=11, tol=1e-9, max_iter=3,
                       init=InitSampler(kind="point", point=(0.9,)))
    final = flow.ensemble[-1, :, 0]
    se = final.std(ddof=1) / np.sqrt(M)
    assert abs(final.mean() - ode.y[0, -1]) < 3 * se
    assert abs(final.mean() - m_inf) < 3 * se


def test_truncation_doubles_on_saturation(monkeypatch):
    monkeypatch.setattr(limit, "TRUNC_FACTOR", 0.2)
    spec = build("neuronal", {})
    flow = solve_limit(spec, 500, 2.0, 0.1, seed=3, tol=1e-12, max_iter=4,
                       init=UNIF)
    assert flow.meta["trunc_doublings"]


def test_solve_limit_records_the_truncation_it_simulated_with(monkeypatch):
    # the single sweep saturates, so the truncation doubles for a sweep that
    # never runs; the returned flow keeps the value it was simulated with
    monkeypatch.setattr(limit, "TRUNC_FACTOR", 0.2)
    spec = build("neuronal", {})
    flow = solve_limit(spec, 500, 2.0, 0.1, seed=3, tol=1e-12, max_iter=1,
                       init=UNIF)
    assert 2 * flow.trunc_c == flow.meta["trunc_doublings"][-1]
    assert flow.meta["trunc_c"] == flow.trunc_c


def test_coupled_limit_copies_follow_the_truncated_flow_drift(monkeypatch):
    # neuronal collateral marks have a constant mean, so the limit's absorbed
    # drift scales with the flow's rate summary, truncated at trunc_c.  With a
    # truncation that binds at every grid time, index-coupled limit copies on
    # the ensemble's drivers must reproduce the ensemble's paths
    monkeypatch.setattr(limit, "TRUNC_FACTOR", 0.2)
    spec = build("neuronal", {})
    M, T, dt = 64, 1.0, 0.1
    flow = solve_limit(spec, 500, T, dt, seed=3, tol=1e-12, max_iter=1,
                       init=UNIF)
    assert np.all(flow.lam_mean > flow.trunc_c)
    x0 = UNIF.sample(make_driver_bundle(9, 0, M), 1)
    ens = simulate_ensemble(spec, T, dt, make_driver_bundle(9, 0, M), flow, initial_positions=x0)
    sim = CoupledSimulator(spec, make_driver_bundle(9, 0, M), ("LIMIT",), flow=flow)
    sim.set_initial(x0)
    coupled = [x0]
    for end in flow.times[1:]:
        sim.advance(end)
        coupled.append(sim.system("LIMIT").pos.copy())
    assert ens.trunc_c == flow.trunc_c and ens.meta["jumps"] > 0
    np.testing.assert_allclose(np.asarray(coupled), ens.ensemble, rtol=0, atol=1e-12)


def test_coupled_limit_copies_read_the_flow_cell_of_each_grid_time(monkeypatch):
    # an untruncated flow's rate summary changes from cell to cell, so a
    # cell that starts a hair before its grid time (0.7 accumulated as
    # 0.1 + ... + 0.1 against the grid's 7 * 0.1) reads the previous cell's
    # drift; coupled limit copies must match the ensemble at every grid time
    monkeypatch.setattr(limit, "TRUNC_FACTOR", math.inf)
    spec = build("neuronal", {})
    M, T, dt = 64, 1.0, 0.1
    flow = solve_limit(spec, 500, T, dt, seed=3, tol=1e-12, max_iter=1, init=UNIF)
    assert flow.trunc_c == math.inf and np.ptp(flow.lam_mean) > 0
    x0 = UNIF.sample(make_driver_bundle(9, 0, M), 1)
    ens = simulate_ensemble(spec, T, dt, make_driver_bundle(9, 0, M), flow, initial_positions=x0)
    res = simulate_coupled(("LIMIT",), spec, T, dt, make_driver_bundle(9, 0, M),
                           flow=flow, initial_positions=x0)
    path = res["paths"]["LIMIT"]
    assert np.array_equal(path.times, ens.times)
    np.testing.assert_allclose(path.positions, ens.ensemble, rtol=0, atol=1e-12)


def test_ensemble_retry_recovers_and_surfaces():
    # outward main jumps push the rate above the start-of-sub-step envelope
    # (the spec of the particle stepper's retry test): halved retries let the
    # copies finish, and with no retries allowed the violation surfaces
    spec = ModelSpec(
        drift=lambda x, m: np.zeros_like(x),
        diffusion=lambda x, m: np.zeros((x.shape[0], 1, 0)),
        rate=lambda x, m: np.abs(x[:, 0]),
        main_jump=lambda x, m, h: np.ones_like(x),
        collateral_jump=lambda xj, tg, m, h1, h2: np.zeros((tg.shape[0], 1)),
        dim=1,
        brownian_dim=0,
        class_tag="lipschitz",
    )
    flow = constant_flow(np.ones((4, 1)), 5.0)

    def run(max_retries):
        policy = StepPolicy(bound_mult=1.0, bound_add=0.05, candidate_cap=8.0, max_retries=max_retries)
        return simulate_ensemble(spec, 5.0, 0.5, make_driver_bundle(6, 0, 4), flow,
                                 initial_positions=np.ones((4, 1)), policy=policy)

    with pytest.raises(RateBoundViolation, match=r"for copy \d+ in system LIMIT at t=0\.\d"):
        run(0)
    res = run(16)
    assert res.meta["jumps"] > 0
    assert np.all(np.isfinite(res.ensemble[-1]))


@pytest.mark.parametrize("model", [None, "lipschitz-demo"])
def test_constant_flow_rejects_non_finite_points_with_or_without_a_model(model):
    spec = build(model, {}) if model else None
    with pytest.raises(InvalidInputError, match="points must be finite"):
        constant_flow(np.asarray([[0.0], [np.nan]]), 1.0, spec)


def test_ensemble_blowup_reports_the_first_non_finite_sub_step():
    # x' = x**5 from 10 under Euler: the rate bound 5 cuts each unit cell
    # into five sub-steps of 0.2, and the fourth already overflows, so the
    # reported time lies inside the first cell, not at its end
    spec = ModelSpec(
        drift=lambda x, m: x**5,
        diffusion=lambda x, m: np.zeros((x.shape[0], 1, 0)),
        rate=lambda x, m: np.full(x.shape[0], 5.0),
        main_jump=lambda x, m, h: np.zeros_like(x),
        collateral_jump=lambda xj, tg, m, h1, h2: np.zeros((tg.shape[0], 1)),
        dim=1,
        brownian_dim=0,
        class_tag="lipschitz",
        meta=AssumptionMeta(rate_global_bound=5.0),
    )
    flow = constant_flow(np.zeros((4, 1)), 2.0)
    with pytest.raises(NumericalBlowupError) as err, np.errstate(over="ignore", invalid="ignore"):
        simulate_ensemble(spec, 2.0, 1.0, make_driver_bundle(1, 0, 4), flow,
                          initial_positions=np.full((4, 1), 10.0))
    assert err.value.system == "LIMIT"
    assert err.value.t == pytest.approx(0.8)
    assert not np.all(np.isfinite(err.value.positions))


def test_flow_save_load_roundtrip(tmp_path):
    spec = build("neuronal", {})
    flow = solve_limit(spec, 300, 1.0, 0.1, seed=5, tol=1e-3, max_iter=3, init=UNIF)
    path = tmp_path / "flow.npz"
    flow.save(path)
    # stored members: deflating float64 samples costs far more than it saves
    with zipfile.ZipFile(path) as zf:
        assert {i.compress_type for i in zf.infolist()} == {zipfile.ZIP_STORED}
    # files written before the format switched from deflated to stored
    old = tmp_path / "flow_deflated.npz"
    np.savez_compressed(
        old, format=np.asarray(["mfjump-flow-v1"]), times=flow.times, ensemble=flow.ensemble,
        lam_mean=flow.lam_mean, trunc_c=np.asarray([flow.trunc_c]),
    )
    for loaded in (FlowApproximation.load(path), FlowApproximation.load(old)):
        assert np.array_equal(loaded.times, flow.times)
        assert np.array_equal(loaded.ensemble, flow.ensemble)
        assert np.array_equal(loaded.lam_mean, flow.lam_mean)
        assert loaded.trunc_c == flow.trunc_c


def test_coupled_run_triangle_inequality_and_degeneracy():
    spec = build("lipschitz-demo", {})
    init = InitSampler(mean=(0.5,), std=0.5)
    flow = solve_limit(spec, 1024, 1.0, 0.05, seed=21, tol=5e-3, max_iter=6, init=init)
    s = simulate_coupled(("X", "Y", "LIMIT"), spec, 1.0, 0.05, make_driver_bundle(21, 3, 64), flow=flow, init=init)["sup"]
    assert np.all(s["xlimit"] <= s["xy"] + s["ylimit"] + 1e-12)
    assert np.all(s["xy"] >= 0) and s["xy"].max() > 0

    # collateral off: X and Y coincide exactly for every index
    spec0 = build("lipschitz-demo", {"collateral_amp": 0.0})
    flow0 = solve_limit(spec0, 1024, 1.0, 0.05, seed=21, tol=5e-3, max_iter=6, init=init)
    s0 = simulate_coupled(("X", "Y", "LIMIT"), spec0, 1.0, 0.05, make_driver_bundle(21, 3, 64), flow=flow0, init=init)["sup"]
    assert np.all(s0["xy"] == 0.0)


def test_synchronous_coupling_is_optimal_on_grid_paths():
    # on lipschitz-demo the optimal assignment between the X and LIMIT grid
    # paths is the identity the coupling uses, so the coupling's grid distance
    # is the path-space W1; d_xlimit also folds event times and bounds it
    from scipy.optimize import linear_sum_assignment

    spec = build("lipschitz-demo", {})
    init = InitSampler(mean=(0.5,), std=0.5)
    T, dt, N = 2.0, 0.01, 64
    flow = solve_limit(spec, 1024, T, dt, seed=3, max_iter=8, init=init)
    for r in range(4):
        res = simulate_coupled(("X", "LIMIT"), spec, T, dt, make_driver_bundle(3, r, N),
                               flow=flow, init=init, record_paths=True)
        x, lim = res["paths"]["X"].positions, res["paths"]["LIMIT"].positions  # (G, N, d)
        cost = np.linalg.norm(x[:, :, None, :] - lim[:, None, :, :], axis=3).max(axis=0)
        rows, cols = linear_sum_assignment(cost)
        assert np.array_equal(cols, rows)
        assert cost[rows, cols].mean() <= np.diag(cost).mean() <= res["sup"]["xlimit"].mean()


def test_neuronal_d_xlimit_bounds_the_grid_path_w1():
    # on neuronal the identity need not be the optimal assignment between the
    # X and LIMIT grid paths (it is not at this seed), so d_xlimit only bounds
    # the path-space W1 from above; the exact scheme also folds the left
    # limits at every candidate time into it
    from scipy.optimize import linear_sum_assignment

    spec = build("neuronal", {})
    T, dt, N = 2.0, 0.05, 64
    flow = solve_limit(spec, 1024, T, dt, seed=3, max_iter=4, init=UNIF)
    res = simulate_coupled(("X", "Y", "LIMIT"), spec, T, dt, make_driver_bundle(3, 0, N),
                           flow=flow, init=UNIF, scheme="exact", record_paths=True)
    x, lim = res["paths"]["X"].positions, res["paths"]["LIMIT"].positions  # (G, N, d)
    cost = np.linalg.norm(x[:, :, None, :] - lim[:, None, :, :], axis=3).max(axis=0)
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].mean() <= np.diag(cost).mean() <= res["sup"]["xlimit"].mean()


def test_coupled_run_measure_free_dynamics_degenerates():
    # measure-independent coefficients with mean-zero collateral: the
    # intermediate system and the limit copies follow identical dynamics on
    # identical streams, so their distance vanishes exactly
    spec = build("lipschitz-demo", {"interaction": 0.0})
    init = InitSampler(mean=(0.5,), std=0.5)
    flow = solve_limit(spec, 256, 1.0, 0.05, seed=33, tol=1e-3, max_iter=4, init=init)
    s = simulate_coupled(("X", "Y", "LIMIT"), spec, 1.0, 0.05, make_driver_bundle(33, 0, 32), flow=flow, init=init)["sup"]
    assert np.all(s["ylimit"] == 0.0)
    assert s["xy"].max() > 0  # collateral kicks still move the interacting system



def test_two_starts_are_rejected():
    # initial_positions used to win and init was dropped without a word
    spec = build("lipschitz-demo", {})
    flow = constant_flow(np.zeros((4, 1)), 1.0, spec)
    kw = dict(flow=flow, init=InitSampler(mean=(0.5,)), initial_positions=np.ones((4, 1)))
    with pytest.raises(InvalidInputError, match="at most one of init and initial_positions"):
        simulate_coupled(("X", "Y", "LIMIT"), spec, 1.0, 0.5, make_driver_bundle(1, 0, 4), **kw)

def test_moment_bound_transfer_neuronal():
    # ensemble estimates of E[rate^p] settle: no positive trend on the
    # second half of the horizon
    spec = build("neuronal", {})
    flow = solve_limit(spec, 4000, 6.0, 0.05, seed=13, tol=1e-4, max_iter=6, init=UNIF)
    for p in (1, 4):
        vals = []
        for i, t in enumerate(flow.times):
            lam = spec.rate(flow.ensemble[i], flow.cell(float(t)).measure)
            vals.append(float(np.mean(np.asarray(lam) ** p)))
        vals = np.asarray(vals)
        half = flow.times >= 3.0
        tc = flow.times[half] - flow.times[half].mean()
        slope = float(np.sum(tc * vals[half]) / np.sum(tc**2))
        resid = vals[half] - vals[half].mean() - slope * tc
        se = float(np.sqrt(resid.var(ddof=2) / np.sum(tc**2)))
        assert slope - 1.96 * se <= 0.0 or slope <= 0.02 * vals[half].mean()


def test_ensemble_noise_floor_positive():
    spec = build("neuronal", {})
    flow = solve_limit(spec, 1000, 1.0, 0.1, seed=17, tol=1e-3, max_iter=3, init=UNIF)
    floor = ensemble_noise_floor(flow)
    assert 0 < floor < 0.2
