"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Budgets are sized for a laptop-scale machine; the chaos-rate
sweep is the longest item.
"""

import dataclasses
from itertools import permutations

import numpy as np

import mfjump.limit as limit
from mfjump.drivers import PICARD_REPLICA, make_driver_bundle, StreamKey, StreamState
from mfjump.harness import SimConfig, run_chaos_sweep, run_diagnostics
from mfjump.limit import constant_flow, ensemble_noise_floor, picard_iterate, solve_limit
from mfjump.metrics import fit_rate, jump_count_stats, w1_1d, w1_assignment
from mfjump.models import AssumptionMeta, ModelSpec
from mfjump.particle import InitSampler, simulate, simulate_coupled
from mfjump.zoo import LipschitzDemoParams, build
from weak_step import coordinate_function, generator_apply, single_step_weak_estimate

DEMO_INIT = InitSampler(kind="gauss", mean=(0.5,), std=0.5)
NEURONAL_INIT = InitSampler(kind="uniform", low=0.0, high=1.0)


def _line(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance {num}] {name}: {status}  ({detail})")
    return ok


def test_criterion_1_chaos_rate(tmp_path):
    # lipschitz demo, d=1, T=2, N in {32..1024}, 32 replicas: fitted log-log
    # slope of the mean sup coupling distance in [-0.65, -0.35] with
    # R^2 >= 0.9, for each of the pairs X-Y, Y-limit and X-limit
    config = SimConfig.from_dict(
        {
            "schema": 1,
            "model": {"id": "lipschitz-demo", "params": {}},
            "run": {
                "T": 2.0, "dt": 0.01, "Ns": [32, 64, 128, 256, 512, 1024],
                "replicas": 32, "seed": 20240801, "workers": 4,
            },
            "init": {"kind": "gauss", "mean": [0.5], "std": 0.5},
            "limit": {"ensemble": 16384, "picard_tol": 1e-3, "picard_max_iter": 8},
            "output": {"dir": str(tmp_path / "chaos")},
        }
    )
    report = run_chaos_sweep(config)
    # both coupling steps of the paper (X to Y, Y to the limit) and their sum
    fits = {pair: report.fits[pair] for pair in ("d_xy", "d_ylimit", "d_xlimit")}
    ok = all(-0.65 <= f.slope <= -0.35 and f.r2 >= 0.9 for f in fits.values())
    detail = "; ".join(
        f"{pair} slope={f.slope:+.3f} (se {f.slope_se:.3f}), R2={f.r2:.3f}" for pair, f in fits.items()
    )
    assert _line(1, "chaos rate", ok, detail)


def test_criterion_2_coupling_degeneracy():
    # collateral amplitude identically zero: interacting and intermediate
    # systems coincide bit for bit, for every N and seed probed
    spec = build("lipschitz-demo", {"collateral_amp": 0.0})
    worst = None
    for N in (4, 32, 128):
        for seed in (0, 1, 2):
            res = simulate_coupled(
                ("X", "Y"), spec, 1.0, 0.05, make_driver_bundle(seed, 0, N), init=DEMO_INIT
            )
            px, py = res["paths"]["X"], res["paths"]["Y"]
            same = (
                px.positions.tobytes() == py.positions.tobytes()
                and np.array_equal(px.jump_times, py.jump_times)
                and np.array_equal(px.jump_post, py.jump_post)
                and float(res["sup"]["xy"].max()) == 0.0
            )
            if not same:
                worst = (N, seed)
    assert _line(2, "coupling degeneracy", worst is None,
                 "X == Y bit-exact on all (N, seed) probes" if worst is None else f"diverged at {worst}")


def test_criterion_3_w1_correctness():
    def brute(a, b):
        n = len(a)
        cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
        return min(sum(cost[i, p[i]] for i in range(n)) / n for p in permutations(range(n)))

    rng = StreamState(StreamKey(314159, 0, 0, "init").hash64())
    worst_nd = 0.0
    for _ in range(200):
        n = 2 + int(rng.uniforms(1)[0] * 7)
        d = 1 + int(rng.uniforms(1)[0] * 3)
        a = rng.uniforms(n * d).reshape(n, d) * 6 - 3
        b = rng.uniforms(n * d).reshape(n, d) * 6 - 3
        worst_nd = max(worst_nd, abs(w1_assignment(a, b) - brute(a, b)))
    worst_1d = 0.0
    for _ in range(200):
        n = 2 + int(rng.uniforms(1)[0] * 40)
        a = rng.uniforms(n) * 6 - 3
        b = rng.uniforms(n) * 6 - 3
        worst_1d = max(worst_1d, abs(w1_1d(a, b) - w1_assignment(a[:, None], b[:, None])))
    ok = worst_nd <= 1e-9 and worst_1d <= 1e-9
    assert _line(3, "W1 exactness", ok,
                 f"max |assignment - brute force| = {worst_nd:.2e}, max |1d - assignment| = {worst_1d:.2e}")


def test_criterion_4_generator_consistency():
    # finite-horizon weak error of the scheme against the generator: the
    # residual |(E[phi(X_h)] - phi(x0))/h - L phi(x0)| decays with slope
    # >= 0.8 over h in {2^-4 .. 2^-9} after subtracting the Monte Carlo CI
    spec = build(
        "lipschitz-demo",
        {"sigma0": 0.0, "mean_reversion": 2.0, "interaction": 1.0,
         "rate_base": 2.0, "rate_slope": 1.0, "jump_scale": 0.6},
    )
    x0 = np.asarray([[1.0], [-0.5]])
    phi = coordinate_function(0, 0)
    gen = generator_apply(spec, phi, x0)
    phi0 = float(phi.value(x0))
    hs = [2.0 ** -k for k in range(4, 10)]
    rows = []
    for h in hs:
        samples = 1 << 20 if h >= 2.0 ** -7 else 1 << 22
        est = single_step_weak_estimate(spec, phi, x0, h, samples=samples, seed=424242)
        resid = abs((est.mean - phi0) / h - gen)
        ci = 1.96 * est.se / h
        rows.append((h, resid, ci))
    adjusted = [max(r - c, 0.0) for _, r, c in rows]
    resolved = all(a > 0 for a in adjusted)
    fit = fit_rate([1.0 / h for h, _, _ in rows], adjusted) if resolved else None
    slope = -fit.slope if fit else float("nan")
    ok = resolved and slope >= 0.8
    assert _line(4, "generator consistency", ok,
                 f"CI-adjusted slope={slope:.3f}, residual/CI range "
                 f"[{min(r / c for _, r, c in rows):.1f}, {max(r / c for _, r, c in rows):.1f}]")


def test_criterion_5_ou_oracle():
    # no jumps, F(x) = -x, constant sigma: Monte Carlo mean and variance at
    # T=1 match the analytic e^{-1} x0 and sigma^2 (1 - e^{-2}) / 2 within
    # 3 standard errors at 1e5 samples
    s0, x0, T = 0.5, 1.0, 1.0
    spec = ModelSpec(
        drift=lambda x, m: -x,
        diffusion=lambda x, m: np.broadcast_to(s0 * np.eye(1), (x.shape[0], 1, 1)),
        rate=lambda x, m: np.zeros(x.shape[0]),
        main_jump=lambda x, m, h: np.zeros_like(x),
        collateral_jump=lambda xj, tg, m, h1, h2: np.zeros((tg.shape[0], 1)),
        dim=1, brownian_dim=1, class_tag="lipschitz",
        meta=AssumptionMeta(rate_global_bound=0.0),
        main_jump_mean=lambda x, m: np.zeros_like(x),
    )
    M = 100_000
    flow = solve_limit(spec, M, T, 0.004, seed=90210, tol=1e9, max_iter=1,
                       init=InitSampler(kind="point", point=(x0,)))
    final = flow.ensemble[-1, :, 0]
    mean_target = x0 * np.exp(-T)
    var_target = s0**2 * (1.0 - np.exp(-2.0 * T)) / 2.0
    mean_se = final.std(ddof=1) / np.sqrt(M)
    var_hat = final.var(ddof=1)
    var_se = var_hat * np.sqrt(2.0 / (M - 1))
    mean_ok = abs(final.mean() - mean_target) < 3 * mean_se
    var_ok = abs(var_hat - var_target) < 3 * var_se
    assert _line(5, "OU oracle", mean_ok and var_ok,
                 f"mean err {abs(final.mean() - mean_target):.2e} vs 3se {3 * mean_se:.2e}; "
                 f"var err {abs(var_hat - var_target):.2e} vs 3se {3 * var_se:.2e}")


# criterion 5's companion, with jumps and interaction: lipschitz-demo at a constant rate
# (rate_slope 0), whose limit's mean m and second moment S solve a closed linear ODE,
# m' = -(a + l0 b / 2) m and S' = -2 a S + 2 th (m^2 - S) + s0^2 + l0 S (b^2 / 3 - b)
CONSTANT_RATE = {"rate_slope": 0.0}
ODE_M, ODE_SEED, ODE_T, ODE_DT = 16_384, 20240801, 1.0, 0.01


def _moment_ode(t, spec_params, m0, s0_sq):
    """The closed form of the ODE above from m(0) = m0 and S(0) = s0_sq."""
    p = spec_params
    kappa = p.mean_reversion + p.rate_base * p.jump_scale / 2.0
    c = 2.0 * p.mean_reversion + 2.0 * p.interaction + p.rate_base * (p.jump_scale - p.jump_scale**2 / 3.0)
    m = m0 * np.exp(-kappa * t)
    S = (s0_sq * np.exp(-c * t) + p.sigma0**2 * (1.0 - np.exp(-c * t)) / c
         + 2.0 * p.interaction * m0**2 * (np.exp(-2.0 * kappa * t) - np.exp(-c * t)) / (c - 2.0 * kappa))
    return m, S


def _moment_z(max_iter):
    """Largest |z| over the grid of the flow's mean and second moment against the ODE."""
    flow = solve_limit(build("lipschitz-demo", CONSTANT_RATE), ODE_M, ODE_T, ODE_DT, seed=ODE_SEED,
                       tol=1e-3, max_iter=max_iter, init=DEMO_INIT)
    x = flow.ensemble[:, :, 0]
    m, S = _moment_ode(flow.times, LipschitzDemoParams(**CONSTANT_RATE), 0.5, 0.5**2 + 0.5**2)
    z_mean = (x.mean(axis=1) - m) / (x.std(axis=1, ddof=1) / np.sqrt(ODE_M))
    z_second = ((x**2).mean(axis=1) - S) / ((x**2).std(axis=1, ddof=1) / np.sqrt(ODE_M))
    return float(np.max(np.abs(z_mean))), float(np.max(np.abs(z_second))), len(flow.meta["deltas"])


def test_criterion_5_companion_picard_flow_matches_the_moment_ode():
    # M, seed and the 4 se tolerance at every grid time were fixed before the first run
    z_mean, z_second, sweeps = _moment_z(max_iter=8)
    ok = z_mean < 4.0 and z_second < 4.0
    assert _line("5b", "Picard flow moments match the constant-rate ODE", ok,
                 f"max |z| mean {z_mean:.2f}, second moment {z_second:.2f} after {sweeps} sweeps")


def test_criterion_5_companion_rejects_one_sweep_from_the_start():
    # one sweep frozen at the start's measure reads the wrong mean, so the interaction
    # no longer cancels in m' and the companion's statistic must reject the flow
    z_mean, z_second, _ = _moment_z(max_iter=1)
    ok = z_mean < 4.0 and z_second < 4.0
    assert not _line("5b", "one sweep from constant_flow matches the constant-rate ODE", ok,
                     f"max |z| mean {z_mean:.2f}, second moment {z_second:.2f}")


def test_criterion_6_moment_bound(tmp_path):
    # neuronal defaults, N=512, T=10: the cross-replica trend CI of the
    # empirical fourth rate moment on [T/2, T] excludes growth faster than
    # 5% of the series mean per unit time
    config = SimConfig.from_dict(
        {
            "schema": 1,
            "model": {"id": "neuronal", "params": {}},
            "run": {"T": 10.0, "dt": 0.05, "Ns": [512], "replicas": 8, "seed": 7071, "workers": 4},
            "init": {"kind": "uniform", "low": 0.0, "high": 1.0},
            "diagnostics": {"moment_powers": [4]},
            "output": {"dir": str(tmp_path / "moment")},
        }
    )
    bundle = run_diagnostics(config)
    v = bundle.moment_verdicts[(512, 4)]
    ok = v["verdict"] == "bounded"
    assert _line(6, "fourth-moment boundedness", ok,
                 f"slope CI upper {v['slope_ci'][1]:+.4g} vs threshold {v['threshold']:.4g} "
                 f"(series mean {v['series_mean']:.3f})")


def test_criterion_7_jump_count_concentration():
    # empirical P(C_N(T)/N >= H) with H = twice the largest-N sample mean is
    # non-increasing in N (point estimates decreasing, or Wilson intervals
    # overlapping)
    spec = build("neuronal", {})
    T, dt, reps = 5.0, 0.05, 24
    Ns = [64, 256, 1024]
    counts = {}
    for ni, N in enumerate(Ns):
        counts[N] = [
            simulate("X", spec, T, dt, make_driver_bundle(515, (ni << 20) | r, N),
                     init=NEURONAL_INIT).jump_count
            for r in range(reps)
        ]
    h_t = 2.0 * float(np.mean(counts[1024])) / 1024
    tables = {N: jump_count_stats(counts[N], N, [h_t]) for N in Ns}
    ok = True
    detail = []
    for a, b in zip(Ns, Ns[1:]):
        pa, pb = tables[a].tail_prob[0], tables[b].tail_prob[0]
        overlap = tables[b].wilson_lo[0] <= tables[a].wilson_hi[0]
        ok = ok and (pb <= pa or overlap)
        detail.append(f"P(N={a})={pa:.3f} -> P(N={b})={pb:.3f}")
    assert _line(7, "jump-count concentration", ok, f"H={h_t:.3f}; " + "; ".join(detail))
    # no replica may reach H at any N, and then every tail reads 0 whatever the model does; the
    # cross-replica sd of C_N(T)/N on the same runs must fall at criterion 1's rate
    sds = [float(np.std(np.asarray(counts[N]) / N, ddof=1)) for N in Ns]
    fit = fit_rate(Ns, sds)
    sd_ok = -0.65 <= fit.slope <= -0.35
    detail = ", ".join(f"sd(N={N})={sd:.3f}" for N, sd in zip(Ns, sds))
    assert _line(7, "jump-count sd rate", sd_ok, f"{detail}; slope={fit.slope:+.3f} in [-0.65, -0.35]")


def _picard_verdicts(deltas, floor):
    """Criterion 8's verdict and its companion's on a Picard delta sequence and its noise floor."""
    decreasing = sum(b < a for a, b in zip(deltas, deltas[1:]))
    detail = f"deltas={['%.2e' % d for d in deltas]}, noise floor={floor:.2e}"
    # the companion: sweeps on shared drivers converge pathwise, far below
    # the noise of a fresh ensemble; fresh-noise sweeps stall near it
    return decreasing >= 3 and deltas[-1] < 3.0 * floor, deltas[-1] < 0.1 * floor, detail


def test_criterion_8_picard_convergence():
    # neuronal defaults at ensemble size 1e4: successive flow deltas decrease
    # in at least 3 of the 5 sweep-to-sweep steps, not necessarily in a row,
    # and the final delta sits below 3x the Monte Carlo noise floor of the ensemble
    spec = build("neuronal", {})
    flow = solve_limit(spec, 10_000, 3.0, 0.05, seed=606, tol=1e-12, max_iter=6,
                       init=NEURONAL_INIT)
    ok, pathwise, detail = _picard_verdicts(flow.meta["deltas"], flow.meta["noise_floor"])
    assert _line(8, "Picard convergence", ok, detail)
    # companion: the final delta is below a tenth of the noise floor
    assert _line("8b", "Picard convergence is pathwise", pathwise, detail)


def test_criterion_8_companion_rejects_sweeps_on_fresh_noise():
    # criterion 8's solve, but sweep k draws on seed 606 + k: the flows then stop
    # converging pathwise and the deltas stall near the noise floor, which
    # criterion 8's own statistic does not catch and its companion must
    spec = build("neuronal", {})
    M, T, dt, seed = 10_000, 3.0, 0.05, 606
    x0 = NEURONAL_INIT.sample(make_driver_bundle(seed, PICARD_REPLICA, M), spec.dim)
    flow = constant_flow(x0, T, spec)
    flow = dataclasses.replace(flow, trunc_c=limit.TRUNC_FACTOR * float(np.max(flow.lam_mean)))
    deltas = []
    for k in range(6):
        flow, delta = picard_iterate(flow, spec, T, dt, seed=seed + k, initial_positions=x0)
        deltas.append(delta)
    ok, pathwise, detail = _picard_verdicts(deltas, ensemble_noise_floor(flow, seed=seed))
    _line(8, "Picard convergence on fresh-noise sweeps", ok, detail)
    assert not _line("8b", "Picard convergence on fresh-noise sweeps is pathwise", pathwise, detail)


def test_criterion_9_worker_determinism(tmp_path):
    # identical distances.csv bytes for 1 worker vs 8 workers
    def cfg(out, workers):
        return SimConfig.from_dict(
            {
                "schema": 1,
                "model": {"id": "lipschitz-demo", "params": {}},
                "run": {"T": 0.5, "dt": 0.05, "Ns": [8, 16, 32], "replicas": 4,
                        "seed": 2718, "workers": workers},
                "init": {"kind": "gauss", "mean": [0.5], "std": 0.5},
                "limit": {"ensemble": 512, "picard_tol": 1e-3, "picard_max_iter": 4},
                "output": {"dir": str(out)},
            }
        )

    run_chaos_sweep(cfg(tmp_path / "serial", 1))
    run_chaos_sweep(cfg(tmp_path / "pool", 8))
    a = (tmp_path / "serial" / "distances.csv").read_bytes()
    b = (tmp_path / "pool" / "distances.csv").read_bytes()
    assert _line(9, "worker-count determinism", a == b,
                 f"{len(a)} bytes, identical={a == b}")
