"""Cross-module behavior: coupling structure, general collateral means,
multi-dimensional runs, thinning law."""

import numpy as np
import yaml
from scipy.stats import kstest

from mfjump.cli import main as cli_main
from mfjump.drivers import make_driver_bundle, StreamKey, StreamState
from mfjump.limit import constant_flow, solve_limit
from mfjump.models import AssumptionMeta, ModelSpec, collateral_drift
from mfjump.particle import InitSampler, simulate, simulate_coupled
from mfjump.zoo import build
from scalar_walk import next_candidate_event


def test_thinned_interarrival_law():
    # accepted gaps of a thinned constant-rate stream are Exp(lambda)
    lam, bound = 1.0, 2.5
    gaps = []
    for r in range(300):
        s = StreamState(StreamKey(88, r, 0, "poisson").hash64())
        t, last = 0.0, 0.0
        while True:
            ev = next_candidate_event(s, t, 30.0, bound)
            if ev is None:
                break
            t = ev.time
            if ev.u <= lam:
                gaps.append(t - last)
                last = t
    assert kstest(gaps, "expon", args=(0, 1 / lam)).pvalue > 0.01


def test_x_marginal_unchanged_by_coupling():
    # with a declared global rate bound the candidate scaffolding does not
    # depend on which systems are coupled, so the interacting system's path
    # is bit-identical whether it runs alone or inside the coupled triple
    spec = build("lipschitz-demo", {})
    init = InitSampler(mean=(0.5,), std=0.5)
    solo = simulate("X", spec, 1.0, 0.05, make_driver_bundle(55, 2, 24), init=init)
    flow = solve_limit(spec, 256, 1.0, 0.05, seed=55, tol=1e-2, max_iter=3, init=init)
    res = simulate_coupled(("X", "Y", "LIMIT"), spec, 1.0, 0.05,
                           make_driver_bundle(55, 2, 24), flow=flow, init=init)
    assert solo.positions.tobytes() == res["paths"]["X"].positions.tobytes()
    assert np.array_equal(solo.jump_times, res["paths"]["X"].jump_times)


def _pairwise_spec(lam0=1.0):
    # collateral amplitude 2*h2*xj has mark mean equal to the jumper's
    # position, exercising the general pairwise mean declaration
    def collateral(xj, tg, m, h1, h2):
        h = np.asarray(h2, dtype=np.float64)
        if h.ndim == 0:
            h = np.full(tg.shape[0], float(h))
        return 2.0 * h[:, None] * np.broadcast_to(np.atleast_2d(xj), tg.shape)

    def collateral_mean(jumpers, targets, m):
        k, n = jumpers.shape[0], targets.shape[0]
        return np.broadcast_to(jumpers[:, None, :], (k, n, jumpers.shape[1])).copy()

    return ModelSpec(
        drift=lambda x, m: np.zeros_like(x),
        diffusion=lambda x, m: np.zeros((x.shape[0], 1, 0)),
        rate=lambda x, m: np.full(x.shape[0], lam0),
        main_jump=lambda x, m, h: np.zeros_like(x),
        collateral_jump=collateral,
        dim=1,
        brownian_dim=0,
        class_tag="lipschitz",
        meta=AssumptionMeta(rate_global_bound=lam0),
        collateral_mean=collateral_mean,
        main_jump_mean=lambda x, m: np.zeros_like(x),
    )


def test_general_collateral_mean_drives_y_drift():
    # jumper-rate reading: drift_i = (1/N) sum_j lam * E[Theta](Y_j, Y_i)
    # = lam * mean(Y), identical for every i here
    lam0 = 1.25
    spec = _pairwise_spec(lam0)
    y = np.asarray([[1.0], [3.0], [-1.0]])
    st = simulate("Y", spec, 0.01, 0.01, make_driver_bundle(5, 0, 3),
                  initial_positions=y.copy(), scheme="euler")
    expected = y + 0.01 * lam0 * y.mean()
    assert np.allclose(st.positions[-1], expected, atol=1e-14)


def test_general_collateral_mean_limit_drift_quadrature():
    spec = _pairwise_spec(2.0)
    flow = constant_flow(np.asarray([[1.0], [2.0], [3.0], [6.0]]), 1.0, spec)
    g = collateral_drift(spec, np.zeros((5, 1)), flow.cell(0.0).quad)
    # <mu, lam * E[Theta](., x)> = 2.0 * mean(flow points) = 6.0
    assert np.allclose(g, 6.0, atol=1e-12)


def test_two_dimensional_coupled_run():
    spec = build("lipschitz-demo", {"dim": 2})
    init = InitSampler(mean=(0.3, -0.2), std=0.4)
    flow = solve_limit(spec, 512, 0.8, 0.05, seed=66, tol=1e-2, max_iter=4, init=init)
    assert flow.ensemble.shape[2] == 2
    res = simulate_coupled(("X", "Y", "LIMIT"), spec, 0.8, 0.05, make_driver_bundle(66, 1, 32), flow=flow, init=init)
    sup = res["sup"]
    assert np.all(np.isfinite(sup["xlimit"]))
    assert np.all(sup["xlimit"] <= sup["xy"] + sup["ylimit"] + 1e-12)
    assert res["jump_counts"]["X"] > 0


def test_convex_potential_simulates():
    spec = build("convex-potential", {})
    paths = simulate("X", spec, 1.0, 0.01, make_driver_bundle(77, 0, 16),
                     init=InitSampler(mean=(0.2,), std=0.4))
    assert np.all(np.isfinite(paths.positions))
    # the quartic well keeps trajectories confined at this scale
    assert np.abs(paths.positions).max() < 5.0


def test_neuronal_coupled_distances_shrink_with_n():
    spec = build("neuronal", {})
    init = InitSampler(kind="uniform", low=0.0, high=1.0)
    flow = solve_limit(spec, 4096, 2.0, 0.05, seed=91, tol=1e-3, max_iter=6, init=init)
    means = []
    for ni, n in enumerate((32, 256)):
        vals = [
            simulate_coupled(("X", "Y", "LIMIT"), spec, 2.0, 0.05,
                             make_driver_bundle(91, (ni << 20) | r, n), flow=flow, init=init
                             )["sup"]["xlimit"].mean()
            for r in range(6)
        ]
        means.append(np.mean(vals))
    assert means[1] < means[0]


def test_cli_diagnostics_command(tmp_path, capsys):
    cfg = {
        "schema": 1,
        "model": {"id": "neuronal", "params": {}},
        "run": {"T": 2.0, "dt": 0.1, "Ns": [32], "replicas": 3, "seed": 12, "workers": 0},
        "init": {"kind": "uniform", "low": 0.0, "high": 1.0},
        "diagnostics": {"moment_powers": [4]},
        "output": {"dir": str(tmp_path / "d")},
    }
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert cli_main(["diagnostics", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "moment p=4" in out and "P(jumps/N >=" in out
    assert (tmp_path / "d" / "diagnostics.csv").read_text().startswith("# mfjump-diagnostics-v1")
