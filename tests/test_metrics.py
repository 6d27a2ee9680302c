import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfjump
from mfjump.drivers import (
    PICARD_REPLICA,
    PROBE_REPLICA,
    SUBSAMPLE_REPLICA,
    InvalidInputError,
    StreamKey,
    StreamState,
    make_driver_bundle,
)
from mfjump.harness import replica_stream_key
from mfjump.limit import solve_limit
from mfjump.metrics import (
    ASSIGNMENT_CAP,
    _block_bound,
    _linear_sum_assignment,
    _pairwise_cost,
    _solve,
    fit_rate,
    jump_count_stats,
    subsample_indices,
    w1_1d,
    w1_assignment,
    w1_capped,
    w1_sup,
    wilson_interval,
)
from mfjump.particle import InitSampler
from mfjump.zoo import build


def brute_force_w1(a: np.ndarray, b: np.ndarray) -> float:
    """Independent oracle: exhaustive minimum over all matchings (n <= 8)."""
    n = len(a)
    cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    best = np.inf
    for perm in permutations(range(n)):
        best = min(best, sum(cost[i, perm[i]] for i in range(n)) / n)
    return best


def _rng(seed):
    return StreamState(StreamKey(seed, 0, 0, "init").hash64())


def reference_lap_solve(cost: np.ndarray) -> np.ndarray:
    """A plain-numpy assignment solver, kept as the oracle for the compiled one.

    Augments one row at a time along shortest reduced-cost paths, updating
    the dual potentials u, v on every step of the path search.  Ties in the
    path search resolve to the lowest column index.
    """
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=np.int64)  # p[j] = row matched to column j, 0 = free
    way = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            free = np.flatnonzero(~used[1:]) + 1
            cur = cost[i0 - 1, free - 1] - u[i0] - v[free]
            better = cur < minv[free]
            if np.any(better):
                upd = free[better]
                minv[upd] = cur[better]
                way[upd] = j0
            k = int(np.argmin(minv[free]))
            delta = minv[free][k]
            j1 = int(free[k])
            used_cols = np.flatnonzero(used)
            u[p[used_cols]] += delta
            v[used_cols] -= delta
            minv[free] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = int(way[j0])
            p[j0] = p[j1]
            j0 = j1
    row_to_col = np.zeros(n, dtype=np.int64)
    for j in range(1, n + 1):
        row_to_col[p[j] - 1] = j - 1
    return row_to_col


def _cost(a, b):
    """The one-line cost ``w1_assignment`` used to build, kept as the oracle."""
    return np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)


def test_w1_1d_examples():
    assert w1_1d([0, 1], [0, 1]) == 0.0
    assert w1_1d([0], [1]) == 1.0
    # sorted matching |0-1| + |0-1| + |3-1| over 3; agrees with the
    # exhaustive-matching oracle
    a = np.asarray([[0.0], [0.0], [3.0]])
    b = np.asarray([[1.0], [1.0], [1.0]])
    assert w1_1d(a, b) == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert brute_force_w1(a, b) == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_w1_1d_errors():
    with pytest.raises(InvalidInputError):
        w1_1d([1, 2], [1])
    with pytest.raises(InvalidInputError):
        w1_1d([], [])


def test_w1_1d_rejects_samples_with_more_than_one_column():
    # flattened, these R^2 samples read 1.75; their W1 is 2.5
    a = [[0.0, 0.0], [3.0, 4.0]]
    b = [[0.0, 0.0], [0.0, 0.0]]
    assert w1_assignment(np.asarray(a), np.asarray(b)) == 2.5
    for x, y in ((a, b), ([0.0, 1.0], np.zeros((2, 1, 1))), (0.0, 1.0)):
        with pytest.raises(InvalidInputError, match=r"^w1_1d needs 1-D or \(n, 1\) samples, got shapes "):
            w1_1d(x, y)
    assert w1_1d(np.asarray([[0.0], [3.0]]), [1.0, 1.0]) == 1.5


def test_w1_assignment_identity_and_duplicates():
    a = np.asarray([[0.0, 1.0], [2.0, 2.0], [0.0, 1.0]])
    assert w1_assignment(a, a) == 0.0


def test_w1_assignment_matches_brute_force():
    rng = _rng(101)
    for trial in range(200):
        n = 2 + int(rng.uniforms(1)[0] * 7)  # 2..8
        d = 1 + int(rng.uniforms(1)[0] * 3)  # 1..3
        a = rng.uniforms(n * d).reshape(n, d) * 4 - 2
        b = rng.uniforms(n * d).reshape(n, d) * 4 - 2
        assert w1_assignment(a, b) == pytest.approx(brute_force_w1(a, b), abs=1e-9)


def test_w1_assignment_agrees_with_scipy():
    from scipy.optimize import linear_sum_assignment

    rng = _rng(55)
    for _ in range(25):
        n, d = 40, 3
        a = rng.uniforms(n * d).reshape(n, d)
        b = rng.uniforms(n * d).reshape(n, d)
        cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
        r, c = linear_sum_assignment(cost)
        assert w1_assignment(a, b) == pytest.approx(cost[r, c].sum() / n, abs=1e-9)


@pytest.mark.parametrize("case", ["independent", "near-identity", "identical", "n=1", "d=3"])
def test_lap_solve_matches_replaced_solver(case):
    # clouds in general position have one optimal permutation, so the library
    # solver must return exactly the oracle's and W1 the same bits
    rng = np.random.default_rng(2016)
    n, d = {"n=1": (1, 2), "d=3": (200, 3)}.get(case, (512, 2))
    a = rng.normal(size=(n, d))
    b = {
        "independent": rng.normal(size=(n, d)) + 0.3,
        "near-identity": a + 1e-3 * rng.normal(size=(n, d)),
        "identical": a.copy(),
    }.get(case, rng.normal(size=(n, d)))
    cost = _cost(a, b)
    ref = reference_lap_solve(cost)
    rows, cols = _linear_sum_assignment()(cost)
    assert np.array_equal(rows, np.arange(n))
    assert np.array_equal(cols, ref)
    assert w1_assignment(a, b) == float(cost[np.arange(n), ref].mean())


def test_lap_solve_with_ties_is_an_optimal_permutation():
    # duplicate and rounded points admit several optimal permutations: any
    # of them will do, at the oracle's optimal cost
    rng = np.random.default_rng(7)
    for n, d in [(300, 2), (66, 3), (9, 2)]:
        a = np.round(rng.normal(size=(n, d)), 0)
        b = np.repeat(rng.normal(size=(n // 3, d)), 3, axis=0)[rng.permutation(n)]
        for x, y in [(a, b), (a, a[rng.permutation(n)]), (b, b)]:
            cost = _cost(x, y)
            rows, cols = _linear_sum_assignment()(cost)
            assert np.array_equal(np.sort(cols), np.arange(n))
            best = cost[np.arange(n), reference_lap_solve(cost)].sum()
            assert cost[rows, cols].sum() == pytest.approx(best, rel=1e-12, abs=1e-12)


# magnitudes from 1e-300 (squares underflow) to 1e150 (squares near the top
# of float64), either sign; rows are drawn from a smaller pool, so they repeat
_COORD = st.builds(lambda m, s: s * m, st.floats(1e-300, 1e150), st.sampled_from([1.0, -1.0]))


@st.composite
def _cloud_pair(draw):
    d, n = draw(st.integers(2, 7)), draw(st.integers(1, 64))
    pool = np.asarray(draw(st.lists(st.lists(_COORD, min_size=d, max_size=d), min_size=1, max_size=n)))
    rows = st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n)
    return pool[draw(rows)], pool[draw(rows)]


@settings(max_examples=200, deadline=None)
@given(pair=_cloud_pair())
def test_pairwise_cost_is_bit_identical_to_norm(pair):
    a, b = pair
    assert np.array_equal(_pairwise_cost(a, b), _cost(a, b))


def test_pairwise_cost_in_64_row_blocks_is_bit_identical_to_norm():
    # rows past the first 64 go through the scratch block, a short last block included
    rng = np.random.default_rng(64)
    for n, m, d in [(512, 512, 2), (200, 150, 3), (65, 3, 7), (130, 64, 2)]:
        a, b = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, d)), rng.normal(size=(m, d))
        assert np.array_equal(_pairwise_cost(a, b), _cost(a, b))


def test_w1_assignment_matches_replaced_cost():
    # the old one-line cost fed to the same solver gives the same float
    rng = np.random.default_rng(2024)
    a, b = rng.normal(size=(512, 2)), rng.normal(size=(512, 2)) + 0.2
    cost = _cost(a, b)
    rows, cols = _linear_sum_assignment()(cost)
    assert w1_assignment(a, b) == float(cost[rows, cols].mean())


def test_identical_samples_skip_the_solve(monkeypatch):
    def no_solve():
        raise AssertionError("identical samples reached the solver")

    monkeypatch.setattr("mfjump.metrics._linear_sum_assignment", no_solve)
    rng = np.random.default_rng(5)
    a = np.repeat(rng.normal(size=(40, 3)), 3, axis=0)[rng.permutation(120)]
    assert w1_assignment(a, a.copy()) == 0.0
    assert w1_capped(a, a.copy()) == 0.0
    # finite rows whose pairwise distances overflow: 0.0 instead of the
    # overflow error, which distinct samples still get
    huge = np.asarray([[1e200, -1e200], [-1e200, 1e200], [1e200, -1e200]])
    assert w1_assignment(huge, huge.copy()) == 0.0
    with pytest.raises(InvalidInputError, match="overflow"), np.errstate(over="ignore"):
        w1_assignment(huge, huge[[1, 0, 2]])


def _solved(a, b):
    """``_solve`` on a copy of the pair's cost: its W1, whether it reduced the cost, and the columns it solved for."""
    solver, seen = _linear_sum_assignment(), []

    def spy(cost):
        seen.append(solver(cost))
        return seen[-1]

    cost = _pairwise_cost(a, b)
    work = cost.copy()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("mfjump.metrics._linear_sum_assignment", lambda: spy)
        w1 = _solve(work, a, b)
    return w1, not np.array_equal(work, cost), seen[0]


def _translated_pairs(d, n, rng):
    """Three pairs near a translation (Jensen bound at least half the identity cost) and one far from it."""
    a, shift = rng.normal(size=(n, d)), np.linspace(1.0, 0.3, d)
    return [
        (a, a + shift + 0.3 * rng.normal(size=(n, d))),
        (a, rng.normal(size=(n, d)) + 2.0 * shift),
        (a, 1.2 * a + 0.5 * shift),
        (a, rng.normal(size=(n, d))),
    ]


def _first_delta_pairs(seed):
    """The first Picard delta's pairs on limit-d2's model and start at 512 copies: x0 against sweep 1's flow."""
    flow = solve_limit(build("lipschitz-demo", {"dim": 2}), 512, 0.3, 0.1, seed=seed, tol=1e-12, max_iter=1,
                       init=InitSampler(mean=(0.5, 0.5), std=0.5))
    return [(flow.ensemble[0], ens) for ens in flow.ensemble[1:]]


@pytest.mark.parametrize("d", [2, 3, 7])
@pytest.mark.parametrize("n", [64, 65, 512])
def test_reduced_solve_equals_the_unreduced_solve_bit_for_bit(d, n):
    rng = np.random.default_rng(1000 * d + n)
    reduced = []
    for a, b in _translated_pairs(d, n, rng):
        cost = _pairwise_cost(a, b)
        rows, cols = _linear_sum_assignment()(cost)
        w1, was_reduced, (_, solved_cols) = _solved(a, b)
        assert w1 == float(cost[rows, cols].mean())
        assert np.array_equal(solved_cols, cols)
        reduced.append(was_reduced)
    assert reduced == [True, True, True, False]


def test_reduced_solve_equals_the_unreduced_solve_on_first_picard_delta_pairs():
    reduced = []
    for seed in range(4):
        for a, b in _first_delta_pairs(seed):
            cost = _pairwise_cost(a, b)
            w1, was_reduced, _ = _solved(a, b)
            assert w1 == float(cost[_linear_sum_assignment()(cost)].mean())
            reduced.append(was_reduced)
    # by grid time: no t = 0.1 pair is near enough a translation, every t = 0.3 pair is
    assert reduced[0::3] == [False] * 4 and reduced[2::3] == [True] * 4


def test_reduced_solve_is_exact_far_from_the_origin():
    # a potential k.a_i about the origin would round at 1e10's ulp, far above these distances,
    # and pick a permutation about 1e-8 worse; taken about a_0 it spans only the cloud
    rng = np.random.default_rng(10)
    for _ in range(4):
        a = 1e10 + rng.normal(size=(512, 2))
        b = a + [0.4, 0.1] + 0.3 * rng.normal(size=(512, 2))
        cost = _pairwise_cost(a, b)
        w1, was_reduced, _ = _solved(a, b)
        assert was_reduced and w1 == float(cost[_linear_sum_assignment()(cost)].mean())


def test_reduced_solve_leaves_a_cluster_beside_a_far_point_unreduced():
    # a potential spanning 1e12 would round the cluster's 1e-5 costs away, so that the identity
    # (9.4e-6) and the swap (the W1, 6.7e-6) tie; the gate on its span keeps the plain solve
    a = np.array([[1e12, 0.0], [0.0, 0.0], [0.0, 1e-5]])
    b = np.array([[1e12, 0.0], [1e-5, 1e-5], [1e-5, 0.0]])
    cost = _pairwise_cost(a, b)
    w1, was_reduced, _ = _solved(a, b)
    assert not was_reduced and w1 == float(cost[_linear_sum_assignment()(cost)].mean())
    assert w1_assignment(a, b) == w1 == pytest.approx(2e-5 / 3, rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(pair=_cloud_pair())
def test_solve_returns_the_mean_distance_of_the_permutation_it_solved_for(pair):
    # the distances are recomputed, not read off the reduced cost: on one row the W1 is the
    # unreduced cost itself, and on more rows the mean over the solved permutation, ties or not;
    # that permutation is optimal for the unreduced cost up to the reduction's rounding
    a, b = pair
    cost = _pairwise_cost(a, b)
    w1, _, (rows, cols) = _solved(a, b)
    assert w1 == float(cost[rows, cols].mean())
    assert w1 <= float(cost[_linear_sum_assignment()(cost)].mean()) * (1.0 + 1e-12)
    if len(a) == 1:
        assert w1 == cost[0, 0]


def test_translated_lattice_ties_keep_the_sup_equal_to_the_plain_loop(monkeypatch):
    # a lattice of spacing 0.1 translated by (0.3, 0): many permutations are optimal, and the reduced
    # cost may pick another one than the plain solve, whose mean differs in the last bits
    lattice = 0.1 * np.stack(np.meshgrid(np.arange(16.0), np.arange(16.0)), axis=-1).reshape(-1, 2)
    a, b = lattice, lattice + [0.3, 0.0]
    cost = _pairwise_cost(a, b)
    unreduced = float(cost[_linear_sum_assignment()(cost)].mean())
    w1, was_reduced, _ = _solved(a, b)
    assert was_reduced and abs(w1 - unreduced) <= 1e-15 * unreduced
    assert w1_assignment(a, b) == w1
    for threads in (1, 2):
        monkeypatch.setattr("mfjump.metrics._solver_threads", lambda: threads)
        pairs = [(a, b), (a, a + [0.2, 0.1]), (a[::2], b[::2])]
        assert w1_sup(pairs) == plain_w1_sup(pairs) == w1


def test_w1_assignment_peak_memory():
    n = 512
    rng = np.random.default_rng(9)
    a, b = rng.normal(size=(n, 2)), rng.normal(size=(n, 2))
    w1_assignment(a, b)  # loads the solver outside the measurement
    for other in (b, a + 0.5):  # the second is reduced in place
        tracemalloc.start()
        try:
            w1_assignment(a, other)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one n x n cost, a 64-row scratch and the finiteness mask
        assert peak < 1.5 * n * n * 8, peak


_SOLVER_PROBE = textwrap.dedent("""
    import importlib.machinery, sys
    import numpy as np
    from mfjump.metrics import _linear_sum_assignment, w1_assignment
    if sys.argv[1] == "fallback":
        importlib.machinery.EXTENSION_SUFFIXES.clear()  # no _lsap file is found
    rng = np.random.default_rng(11)
    a, b = rng.normal(size=(200, 2)), rng.normal(size=(200, 2))
    w1 = w1_assignment(a, b)
    package_loaded = "scipy.optimize" in sys.modules
    cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    cols = _linear_sum_assignment()(cost)[1]
    from scipy.optimize import linear_sum_assignment
    later = linear_sum_assignment(cost)[1]
    print(package_loaded, w1.hex(), np.array_equal(later, cols), " ".join(map(str, cols)))
""")


_CONCURRENT_FIRST_LOADS = textwrap.dedent("""
    import sys, threading
    from mfjump.metrics import _linear_sum_assignment
    sys.setswitchinterval(1e-6)
    barrier, errors = threading.Barrier(4), []
    def first_load():
        barrier.wait(timeout=60)
        try:
            _linear_sum_assignment()
        except Exception as exc:
            errors.append(repr(exc))
    threads = [threading.Thread(target=first_load) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
""")


def test_concurrent_first_solver_loads_never_see_the_stand_in_package():
    # four threads load the solver at once in a fresh interpreter: none may
    # read the transient scipy.optimize that stands in while _lsap loads
    src = str(Path(mfjump.__file__).resolve().parents[1])
    for _ in range(6):
        proc = subprocess.run(
            [sys.executable, "-c", _CONCURRENT_FIRST_LOADS],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr


def test_solver_loads_without_importing_scipy_optimize():
    # the compiled solver comes from its extension file, not through
    # scipy.optimize's __init__ (~22 MB); a later import of the package and
    # the package-import fallback give the same columns
    src = str(Path(mfjump.__file__).resolve().parents[1])
    out = {}
    for mode in ("direct", "fallback"):
        proc = subprocess.run(
            [sys.executable, "-c", _SOLVER_PROBE, mode],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        out[mode] = proc.stdout.split(maxsplit=3)
    assert out["direct"][0] == "False"
    assert out["fallback"][0] == "True"
    assert out["direct"][2] == out["fallback"][2] == "True"
    assert out["direct"][1] == out["fallback"][1]
    assert out["direct"][3] == out["fallback"][3]


def test_w1_rejects_non_finite_samples():
    a = np.zeros((5, 2))
    b = np.ones((5, 2))
    b[1, 0] = np.nan
    b[3] = np.inf
    with pytest.raises(InvalidInputError, match=r"0 rows of a and 2 rows of b"):
        w1_assignment(a, b)
    with pytest.raises(InvalidInputError, match=r"0 rows of a and 2 rows of b"):
        w1_capped(a, b)
    # identical samples are checked before they skip the solve
    with pytest.raises(InvalidInputError, match=r"2 rows of a and 2 rows of b"):
        w1_assignment(b, b.copy())
    with pytest.raises(InvalidInputError, match=r"1 rows of a and 0 rows of b"):
        w1_1d([0.0, np.nan, 1.0], [0.0, 1.0, 2.0])
    with pytest.raises(InvalidInputError, match=r"1 rows of a and 2 rows of b"):
        w1_1d([-np.inf, 0.0, 1.0], [np.nan, 1.0, np.inf])
    # finite samples whose distances overflow are rejected, not solved
    with pytest.raises(InvalidInputError, match="overflow"), np.errstate(over="ignore"):
        w1_assignment(np.full((3, 2), 1e200), np.full((3, 2), -1e200))


def test_w1_assignment_equals_sorted_in_1d():
    rng = _rng(77)
    for _ in range(200):
        n = 2 + int(rng.uniforms(1)[0] * 30)
        a = rng.uniforms(n) * 10 - 5
        b = rng.uniforms(n) * 10 - 5
        assert w1_assignment(a[:, None], b[:, None]) == pytest.approx(w1_1d(a, b), abs=1e-9)


def test_w1_metric_axioms_on_random_triples():
    rng = _rng(31)
    for _ in range(50):
        n, d = 6, 2
        a = rng.uniforms(n * d).reshape(n, d)
        b = rng.uniforms(n * d).reshape(n, d)
        c = rng.uniforms(n * d).reshape(n, d)
        dab = w1_assignment(a, b)
        dba = w1_assignment(b, a)
        dac = w1_assignment(a, c)
        dcb = w1_assignment(c, b)
        assert dab >= 0
        assert dab == pytest.approx(dba, abs=1e-12)
        assert dab <= dac + dcb + 1e-9


def test_w1_assignment_cap():
    a = np.zeros((600, 2))
    with pytest.raises(InvalidInputError):
        w1_assignment(a, a)
    # capped estimator subsamples deterministically
    idx1 = subsample_indices(600, 512, seed=5)
    idx2 = subsample_indices(600, 512, seed=5)
    assert np.array_equal(idx1, idx2)
    assert len(idx1) == 512 and len(np.unique(idx1)) == 512
    assert w1_capped(a, a) == 0.0


@pytest.mark.parametrize("seed", [0, 5, 20240801])
def test_subsample_stream_is_no_particles_init_stream(seed):
    # the permutation used to take particle 0's init stream of a sweep's first
    # cell and of mfjump simulate (replica 0); it has a reserved replica now
    key = StreamKey(seed, SUBSAMPLE_REPLICA, 0, "init").hash64()
    assert SUBSAMPLE_REPLICA > replica_stream_key(2**20 - 1, 2**20 - 1)
    assert SUBSAMPLE_REPLICA not in (PICARD_REPLICA, PROBE_REPLICA, (1 << 40) + 2)  # + 2: tests/weak_step.py
    replicas = [0, PICARD_REPLICA, PROBE_REPLICA] + [replica_stream_key(ni, r) for ni in range(4) for r in range(4)]
    init_keys = np.concatenate([make_driver_bundle(seed, rep, 600).init.keys for rep in replicas])
    assert key not in init_keys.tolist()
    order = np.argsort(StreamState(key).uniforms(600))
    assert np.array_equal(subsample_indices(600, 512, seed), np.sort(order[:512]))


def plain_w1_sup(pairs, seed=0):
    """Oracle for ``w1_sup``: solve every pair, keep the largest."""
    worst = 0.0
    for a, b in pairs:
        worst = max(worst, w1_capped(a, b, seed=seed))
    return worst


def _pair_sets(d, n, rng):
    """Pair lists that make the bounds order, tie and nearly tie."""
    base = rng.normal(size=(n, d))
    moved = [base + scale * rng.normal(size=(n, d)) for scale in (1.0, 0.3, 0.3, 0.01, 0.0)]
    shuffled = base[rng.permutation(n)]  # identity bound far above W1 = 0
    far = base + 0.5  # identity matching optimal: bound == W1
    # independent halves of a wider sample, and the same halves scaled by 1 + 1e-6 with their rows
    # in the optimal matching's order: the largest W1 comes last in the visit, with an identity bound
    # equal to its W1, and a block bound scaled by 0.9 skips it wherever the true one is within 1.11x
    halves = (2.0 * base[0::2], 2.0 * base[1::2])
    rows, cols = _linear_sum_assignment()(_pairwise_cost(*halves))
    matched = (halves[0][rows] * (1 + 1e-6), halves[1][cols] * (1 + 1e-6))
    return [
        [(base, m) for m in moved],
        [(base, shuffled), (base, moved[3]), (base, moved[1])],
        [(base, far), (base, far.copy()), (far, base), (base, moved[1])],
        [(base, moved[2]), (base, moved[1])] * 2,
        [(m[0::2], m[1::2]) for m in [base, *moved]] + [halves, matched],
        # a shuffled translation: identity bound far above W1 = the lower bound |mean(a - b)|,
        # and a plain translation whose W1 is 1% above it
        [(base, shuffled + 0.5), (base, base + 0.505)],
    ]


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize("d,n", [(1, 40), (1, 2000), (2, 30), (2, 700), (3, 24), (3, 600)])
def test_w1_sup_equals_the_plain_loop(monkeypatch, d, n, threads):
    monkeypatch.setattr("mfjump.metrics._solver_threads", lambda: threads)
    rng = np.random.default_rng(100 * d + n)
    for seed in (0, 7):
        for pairs in _pair_sets(d, n, rng):
            assert w1_sup(pairs, seed=seed) == plain_w1_sup(pairs, seed=seed)
    assert w1_sup([]) == plain_w1_sup([]) == 0.0


def test_w1_sup_differential_test_catches_a_block_bound_below_w1(monkeypatch):
    # a block bound scaled by 0.9 can fall below the W1 it bounds; the even/odd pair set then skips
    # its largest W1, so the differential test above would fail
    bound = _block_bound
    monkeypatch.setattr("mfjump.metrics._solver_threads", lambda: 1)
    monkeypatch.setattr("mfjump.metrics._block_bound", lambda a, b: 0.9 * bound(a, b))
    for d, n in [(2, 700), (3, 600)]:
        pairs = _pair_sets(d, n, np.random.default_rng(100 * d + n))[4]
        assert w1_sup(pairs) < plain_w1_sup(pairs)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [64, 65, 100, 512, 600])
def test_block_bound_is_at_least_the_w1_of_the_same_rows(d, n):
    rng = np.random.default_rng(10 * n + d)
    base = rng.normal(size=(n, d))
    ties = rng.integers(0, 3, size=(n, d)).astype(float)  # coordinates tie across the block splits
    dup = np.repeat(base[: (n + 3) // 4], 4, axis=0)[:n]  # every point four times
    pairs = [
        (base, rng.normal(size=(n, d))),
        (base, base + 0.3 * np.eye(d)[0]),
        (base, base[rng.permutation(n)]),
        (dup, dup[rng.permutation(n)] + 0.1),
        (dup, base),
        (ties, rng.integers(0, 3, size=(n, d)).astype(float)),
        (ties, ties[rng.permutation(n)]),
    ]
    idx = subsample_indices(n, ASSIGNMENT_CAP, 0)
    for a, b in pairs:
        w1 = w1_capped(a, b)
        # w1_sup widens the bound by 1e-9 for rounding before it skips a solve
        assert _block_bound(a[idx], b[idx]) * (1.0 + 1e-9) >= w1


def test_w1_sup_equals_the_plain_loop_when_later_solves_finish_first(monkeypatch):
    # the first solve of each call waits until a later one has finished, so
    # the W1s arrive out of visit order; the sup must not notice
    solver = _linear_sum_assignment()
    monkeypatch.setattr("mfjump.metrics._solver_threads", lambda: 4)
    overtaken = 0
    rng = np.random.default_rng(22)
    for d, n in [(2, 700), (3, 100)]:
        for pairs in _pair_sets(d, n, rng):
            submitted, finished, later_done = [], [], threading.Event()

            def delaying():
                k = len(submitted)
                submitted.append(k)

                def solve(cost):
                    if k == 0:
                        later_done.wait(timeout=0.5)
                    out = solver(cost)
                    finished.append(k)
                    if k:
                        later_done.set()
                    return out

                return solve

            monkeypatch.setattr("mfjump.metrics._linear_sum_assignment", delaying)
            assert w1_sup(pairs, seed=3) == plain_w1_sup(pairs, seed=3)
            overtaken += bool(finished) and finished[0] != 0
    assert overtaken >= 3


def test_w1_sup_leaves_no_thread_behind(monkeypatch):
    monkeypatch.setattr("mfjump.metrics._solver_threads", lambda: 4)
    before = set(threading.enumerate())
    pairs = _pair_sets(2, 200, np.random.default_rng(8))[0]
    assert w1_sup(pairs) == plain_w1_sup(pairs)
    assert set(threading.enumerate()) == before


def test_w1_capped_rejects_unequal_shapes_before_it_subsamples():
    # 501 against 500 rows was a raw IndexError, 700 against 600 solved the
    # shared 512-row subsample of both, and (5, 1) against (5, 2) compared first columns
    rng = np.random.default_rng(12)
    for na, nb, d in [(501, 500, 2), (700, 600, 2), (700, 600, 3), (5, 5, 1)]:
        with pytest.raises(InvalidInputError, match="w1_capped needs equal-shape"):
            w1_capped(rng.normal(size=(na, d)), rng.normal(size=(nb, d + (na == nb))))


def test_w1_sup_of_identical_pairs_is_zero():
    rng = np.random.default_rng(4)
    for d in (1, 2):
        a = rng.normal(size=(600, d))
        assert w1_sup([(a, a.copy()), (a, a), (a[::2], a[::2].copy())]) == 0.0


def test_w1_sup_raises_on_a_non_finite_row_whatever_its_bound():
    # the bad pair would otherwise sort after the near pair, past the point
    # where the far pair's W1 ends the visit
    rng = np.random.default_rng(6)
    for d in (1, 2):
        a = rng.normal(size=(50, d))
        bad = a.copy()
        bad[7, 0] = np.nan
        for b in (bad, np.where(np.isnan(bad), np.inf, bad)):
            with pytest.raises(InvalidInputError, match="rows of a and 1 rows of b hold NaN or inf"):
                w1_sup([(a, a + 10.0), (a, a + 0.1), (a, b)])
    # unequal sizes, and distances that overflow off the identity matching,
    # raise as in w1_capped
    with pytest.raises(InvalidInputError, match="equal size"):
        w1_sup([(a[:, :1] + 10.0, a[:, :1]), (a[:5, :1], a[:4, :1])])
    spread = np.asarray([[1e200, 0.0], [-1e200, 0.0], [0.0, 0.0]])
    with pytest.raises(InvalidInputError, match="overflow"), np.errstate(over="ignore"):
        w1_sup([(a[:3] + 10.0, a[:3]), (spread, spread + [0.0, 1e-3])])


def test_w1_assignment_in_1d_has_no_cap():
    # 1-D samples take the sorted matching at any n; only d >= 2 solves an assignment
    a = np.zeros((600, 1))
    b = np.ones((600, 1))
    assert w1_assignment(a, b) == w1_1d(a[:, 0], b[:, 0]) == 1.0
    assert w1_assignment(a, a.copy()) == 0.0
    bad = a.copy()
    bad[3] = np.nan
    with pytest.raises(InvalidInputError, match=r"w1_1d: 1 rows of a and 0 rows of b"):
        w1_assignment(bad, b)
    with pytest.raises(InvalidInputError, match="equal-shape"):
        w1_assignment(a, b[:-1])


def test_fit_rate_synthetic():
    Ns = [32, 64, 128, 256, 512, 1024]
    f = fit_rate(Ns, [3.0 / np.sqrt(n) for n in Ns])
    assert f.slope == pytest.approx(-0.5, abs=1e-12)
    assert f.r2 == pytest.approx(1.0, abs=1e-12)
    f = fit_rate(Ns, [0.7] * len(Ns))
    assert f.slope == pytest.approx(0.0, abs=1e-12)
    f = fit_rate(Ns, [2.0 / n for n in Ns])
    assert f.slope == pytest.approx(-1.0, abs=1e-12)


def test_fit_rate_scale_equivariance():
    Ns = [10, 20, 40, 80]
    errs = np.asarray([0.9, 0.55, 0.42, 0.31])
    ses = 0.05 * errs
    base = fit_rate(Ns, errs, ses)
    scaled = fit_rate(Ns, 3.7 * errs, 3.7 * ses)
    assert scaled.slope == pytest.approx(base.slope, abs=1e-12)
    assert scaled.intercept - base.intercept == pytest.approx(np.log(3.7), abs=1e-12)


def test_fit_rate_errors():
    with pytest.raises(InvalidInputError):
        fit_rate([8, 16], [1.0, 0.5])
    with pytest.raises(InvalidInputError):
        fit_rate([8, 16, 32], [1.0, -0.5, 0.1])


_NS, _ERRS, _SES = [32, 64, 128], [0.2, 0.15, 0.1], [0.01, 0.01, 0.01]


@pytest.mark.parametrize("Ns, errors, std_errs, name", [
    ([0, 64, 128], _ERRS, None, "N"),
    ([-32, 64, 128], _ERRS, None, "N"),
    ([32, 64, np.inf], _ERRS, None, "N"),
    (_NS, [0.2, np.nan, 0.1], None, "errors"),
    (_NS, [0.2, np.inf, 0.1], _SES, "errors"),
    (_NS, [0.2, 0.15], None, "errors"),
    (_NS, _ERRS, [0.01, np.nan, 0.01], "std_errs"),
    (_NS, _ERRS, [0.01, -0.01, 0.01], "std_errs"),
    (_NS, _ERRS, [0.01, 0.01], "std_errs"),
], ids=["n-zero", "n-negative", "n-inf", "error-nan", "error-inf", "errors-short", "se-nan", "se-negative", "se-short"])
def test_fit_rate_rejects_non_finite_or_mismatched_input(Ns, errors, std_errs, name):
    # unchecked, each of these returns an all-NaN fit with RuntimeWarnings
    with pytest.raises(InvalidInputError, match=f"^{name} must be"):
        fit_rate(Ns, errors, std_errs)


@pytest.mark.parametrize("N, thresholds", [(10, [1.0, np.nan]), (0, [1.0]), (np.inf, [1.0]), (np.nan, [1.0])],
                         ids=["threshold-nan", "n-zero", "n-inf", "n-nan"])
def test_jump_count_stats_rejects_a_nan_threshold_or_a_bad_n(N, thresholds):
    # unchecked, a NaN threshold reads a tail probability of 0
    with pytest.raises(InvalidInputError, match="N must be positive and finite and thresholds positive"):
        jump_count_stats([100, 110, 90], N, thresholds)


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0 and hi < 0.1
    lo, hi = wilson_interval(50, 50)
    assert hi == 1.0 and lo > 0.9
    lo, hi = wilson_interval(25, 50)
    assert lo < 0.5 < hi


def test_jump_count_stats():
    counts = [100, 110, 90, 105]
    table = jump_count_stats(counts, N=10, thresholds=[5.0, 10.0, np.inf])
    assert table.tail_prob[0] == 1.0  # all ratios >= 5
    assert table.tail_prob[2] == 0.0  # tail at infinity is empty
    assert np.all(table.wilson_lo <= table.tail_prob)
    assert np.all(table.tail_prob <= table.wilson_hi)
    with pytest.raises(InvalidInputError):
        jump_count_stats(counts, 10, [-1.0])


def test_moment_diagnostics_constant_rate_and_power_range():
    from mfjump.drivers import make_driver_bundle
    from mfjump.metrics import moment_diagnostics
    from mfjump.particle import InitSampler, simulate
    from mfjump.zoo import build

    spec = build("lipschitz-demo", {"rate_slope": 0.0, "rate_base": 1.5})
    paths = simulate("X", spec, 1.0, 0.1, make_driver_bundle(40, 0, 8),
                     init=InitSampler(mean=(0.5,), std=0.5))
    for p in (1, 2, 3, 4):
        series = moment_diagnostics(paths, spec, p)
        assert np.allclose(series.values, 1.5**p, atol=0)
        assert series.trend_slope == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(InvalidInputError):
        moment_diagnostics(paths, spec, 5)
