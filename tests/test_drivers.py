import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

import mfjump
from mfjump.drivers import (
    DriverBundle,
    InvalidInputError,
    StreamKey,
    StreamState,
    _grid_candidates,
    _uniform_from_raw,
    collect_candidates,
    make_driver_bundle,
    marks_uniforms,
    marks_uniforms_batch,
    mix64,
    stream_keys,
)
from scalar_walk import next_candidate_event

VECTORS = Path(__file__).parent / "data" / "stream_vectors.json"


def test_mix64_matches_known_splitmix_output():
    # finalizer applied to the golden-ratio increment is the first splitmix64
    # output for seed 0, a widely published constant
    s = StreamState(key=0)
    assert int(s.raw(1)[0]) == 0xE220A8397B1DCDAF
    assert mix64(0x9E3779B97F4A7C15) == 0xE220A8397B1DCDAF


def test_frozen_reference_vectors():
    data = json.loads(VECTORS.read_text())
    assert data["format"] == "mfjump-stream-vectors-v1"
    for e in data["entries"]:
        key = StreamKey(e["master_seed"], e["replica"], e["particle"], e["kind"])
        assert key.hash64() == e["key_hash"]
        s = StreamState(key.hash64())
        assert [int(x) for x in s.raw(4)] == e["raw_u64"]
        s = StreamState(key.hash64())
        assert np.allclose(s.uniforms(4), e["uniforms"], rtol=0, atol=0)


def test_same_key_bit_identical():
    key = StreamKey(123, 4, 5, "poisson")
    a = StreamState(key.hash64()).uniforms(100)
    b = StreamState(key.hash64()).uniforms(100)
    assert np.array_equal(a, b)


def test_vectorized_keys_match_scalar():
    reps = [0, 1, 2, 7, 12345]
    parts = [0, 9, 2, 3, 4]
    for kind in ("brownian", "poisson", "marks", "init"):
        vec = stream_keys(99, reps, parts, kind)
        for i, (r, p) in enumerate(zip(reps, parts)):
            assert int(vec[i]) == StreamKey(99, r, p, kind).hash64()


def test_distinct_particles_pass_chi_square_independence():
    # joint 8x8 histogram of paired uniforms from two streams that differ
    # only in the particle index, tested against the uniform product law
    n = 10_000
    k = 8
    a = StreamState(StreamKey(42, 0, 0, "brownian").hash64()).uniforms(n)
    b = StreamState(StreamKey(42, 0, 1, "brownian").hash64()).uniforms(n)
    counts, _, _ = np.histogram2d(a, b, bins=k, range=[[0, 1], [0, 1]])
    expected = n / k**2
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < chi2.ppf(0.99, k * k - 1)


def test_uniforms_in_open_interval():
    u = StreamState(StreamKey(1, 0, 0, "init").hash64()).uniforms(10_000)
    assert np.all(u > 0) and np.all(u < 1)


def test_brownian_increment_moments():
    n = 100_000
    dt = 0.01
    big = StreamState(StreamKey(7, 0, 0, "brownian").hash64()).normals(n) * np.sqrt(dt)
    assert abs(big.mean()) < 3 * np.sqrt(dt / n)
    assert abs(big.var() - dt) / dt < 0.05


def test_next_candidate_event_vanishing_bound():
    s = StreamState(StreamKey(3, 0, 0, "poisson").hash64())
    assert next_candidate_event(s, 0.0, 1.0, 1e-12) is None
    with pytest.raises(InvalidInputError):
        next_candidate_event(s, 0.0, 1.0, 0.0)
    with pytest.raises(InvalidInputError):
        next_candidate_event(s, 2.0, 1.0, 1.0)


def test_candidate_counts_match_poisson_law():
    # rate_bound=2, horizon 10 -> mean count 20, checked over 10^4 replicas
    rate, horizon, reps = 2.0, 10.0, 10_000
    total = 0
    for r in range(reps):
        s = StreamState(StreamKey(11, r, 0, "poisson").hash64())
        t = 0.0
        while True:
            ev = next_candidate_event(s, t, horizon, rate)
            if ev is None:
                break
            total += 1
            t = ev.time
    mean = total / reps
    assert abs(mean - rate * horizon) < 3 * np.sqrt(rate * horizon / reps)


def test_thinning_recovers_target_rate():
    # lambda = 1 under bound 2: accepted events form a Poisson(1) stream
    lam, bound, horizon, reps = 1.0, 2.0, 10.0, 4000
    accepted = 0
    for r in range(reps):
        s = StreamState(StreamKey(13, r, 0, "poisson").hash64())
        t = 0.0
        while True:
            ev = next_candidate_event(s, t, horizon, bound)
            if ev is None:
                break
            if ev.u <= lam:
                accepted += 1
            t = ev.time
    mean = accepted / reps
    assert abs(mean - lam * horizon) < 3 * np.sqrt(lam * horizon / reps)


def test_event_u_within_bound_and_times_increase():
    s = StreamState(StreamKey(17, 0, 0, "poisson").hash64())
    t = 0.0
    prev = -1.0
    for _ in range(50):
        ev = next_candidate_event(s, t, 1e9, 3.0)
        assert 0.0 < ev.u <= 3.0
        assert ev.time > prev
        prev = t = ev.time


def test_marks_are_stateless_and_lazy():
    key = StreamKey(21, 0, 5, "marks").hash64()
    idx = np.asarray([0, 3, 5, 9])
    a = marks_uniforms(key, 7, idx)
    b = marks_uniforms(key, 7, idx)
    assert np.array_equal(a, b)
    # a different event index gives fresh coordinates
    c = marks_uniforms(key, 8, idx)
    assert not np.array_equal(a, c)
    # single-coordinate access agrees with the batch
    assert marks_uniforms(key, 7, np.asarray([5]))[0] == a[2]
    # vectorized form agrees
    batch = marks_uniforms_batch(np.full(4, key, dtype=np.uint64), np.full(4, 7), idx)
    assert np.array_equal(batch, a)


_U64 = st.integers(0, 2**64 - 1)
_U32 = st.integers(0, 2**32 - 1)


def _scalar_uniform(key: int, i: int) -> float:
    """uniform(key, i) of the module docstring, on python ints."""
    raw = mix64(key + (i + 1) * 0x9E3779B97F4A7C15)
    return ((raw >> 11) + 0.5) * 2.0**-53


# the ends of [0, 2**63) and [2**63, 2**64), where a signed shift or a signed view before the shift goes wrong,
# and words whose 53 kept bits make the + 0.5 round
_RAW_EDGES = [0, 1, 2**11 - 1, 2**11, 2**63 - 1, 2**63, 2**63 + 2**11, 2**64 - 2**11, 2**64 - 1, 2**64 - 2**12]


@settings(max_examples=300, deadline=None)
@given(words=st.lists(st.one_of(st.sampled_from(_RAW_EDGES), _U64, st.integers(2**63, 2**64 - 1)), min_size=1,
                     max_size=64))
def test_uniform_from_raw_is_the_python_int_formula(words):
    # the conversion reads the shifted words through an int64 view; every word, the top half included,
    # must give ((raw >> 11) + 0.5) * 2**-53 on python ints, into a fresh array and into ``out``
    want = np.asarray([((w >> 11) + 0.5) * 2.0**-53 for w in words])
    assert _uniform_from_raw(np.asarray(words, dtype=np.uint64)).tobytes() == want.tobytes()
    out = np.empty(len(words) + 3)
    got = _uniform_from_raw(np.asarray(words, dtype=np.uint64), out[: len(words)])
    assert got.base is out and got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(key=_U64, k=_U32, pids=st.lists(_U32, min_size=1, max_size=16))
def test_mark_row_element_is_the_single_mark_and_the_scalar_uniform(key, k, pids):
    # the stepper takes an accepted jump's main mark as element j of the
    # collateral row: all three addressings must give the same bits
    ids = np.asarray(pids, dtype=np.int64)
    row = marks_uniforms(key, k, ids)
    for i, m in enumerate(pids):
        assert row[i] == marks_uniforms(key, k, ids[i : i + 1])[0] == _scalar_uniform(key, (k << 32) | m)
    # the stepper's form: several events in one call, cached per-particle offsets, hashed in the heads of
    # reused buffers; this row comes second, after the row of the next event
    out, scratch = np.empty(3 * len(ids)), np.empty((2, 3 * len(ids)), dtype=np.uint64)
    offsets = DriverBundle(0, 0, ids).mark_offsets
    for _ in range(2):
        got = marks_uniforms([key, key], [(k + 1) % 2**32, k], ids, offsets=offsets, out=out, scratch=scratch)
        assert got.base is out and got.tobytes() == marks_uniforms(key, (k + 1) % 2**32, ids).tobytes() + row.tobytes()


@pytest.mark.parametrize("n", [1, 3, 1000, 2**15 + 1])
def test_mark_rows_of_several_events_equal_their_one_event_rows(n):
    # the stepper's batch: up to 2**15 // n rows of events with different jumpers and event indices,
    # flat, event after event; 1,000 does not divide 2**15, and a count above it gets one row per call
    rng = np.random.default_rng(n)
    ids = rng.choice(2**32, n, replace=False)
    offsets = DriverBundle(0, 0, ids).mark_offsets
    rows = max(1, 2**15 // n)
    keys = rng.integers(0, 2**64, rows, dtype=np.uint64, endpoint=False)
    ks = rng.integers(0, 2**32, rows)
    out, scratch = np.empty(rows * n), np.empty((2, rows * n), dtype=np.uint64)
    got = marks_uniforms(keys, ks, ids, offsets=offsets, out=out, scratch=scratch)
    assert got.shape == (rows * n,) and got.base is out
    for r in range(rows):
        assert got[r * n : (r + 1) * n].tobytes() == marks_uniforms(int(keys[r]), int(ks[r]), ids).tobytes()
    for r, i in ((0, 0), (rows - 1, n - 1), (rows // 2, n // 2)):
        assert got[r * n + i] == _scalar_uniform(int(keys[r]), (int(ks[r]) << 32) | int(ids[i]))
    # fewer rows than the buffers hold use their heads; unbuffered calls allocate
    head = marks_uniforms(keys[:1], ks[:1], ids, offsets=offsets, out=out, scratch=scratch)
    assert head.base is out and head.size == n and head.tobytes() == got[:n].tobytes()
    assert marks_uniforms(keys, ks, ids).tobytes() == got.tobytes()


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(_U64, _U32, _U32), min_size=1, max_size=16))
def test_mark_batch_equals_per_row_marks(rows):
    keys, ks, ms = zip(*rows)
    batch = marks_uniforms_batch(
        np.asarray(keys, dtype=np.uint64), np.asarray(ks, dtype=np.int64), np.asarray(ms, dtype=np.int64)
    )
    for i, (key, k, m) in enumerate(rows):
        assert batch[i] == marks_uniforms(key, k, np.asarray([m]))[0]


@pytest.mark.parametrize(
    "ids",
    [[7 + 2**32, 1], [2**32], [-1, 0], [0.0, 1.0], [0.5, 1.5], [True, False]],
    ids=["above-2**32", "2**32", "negative", "integral-floats", "floats", "bools"],
)
def test_bundle_rejects_ids_outside_the_mark_address_space(ids):
    # id 7 + 2**32 at event 3 would read the marks of id 7 at event 4
    assert marks_uniforms(12345, 3, np.asarray([7 + 2**32])) == marks_uniforms(12345, 4, np.asarray([7]))
    with pytest.raises(InvalidInputError, match="2\\*\\*32"):
        DriverBundle(1, 0, np.asarray(ids))
    with pytest.raises(InvalidInputError, match="2\\*\\*32"):
        make_driver_bundle(1, 0, len(ids), particle_ids=ids)


def test_bundle_rejects_an_empty_particle_list():
    # an empty bundle used to step until numpy's empty-mean warnings and a raw ZeroDivisionError in the grid draws
    for make in (lambda: make_driver_bundle(0, 0, 0), lambda: DriverBundle(0, 0, np.arange(0))):
        with pytest.raises(InvalidInputError, match="^a driver bundle needs at least one particle$"):
            make()


def test_bundle_ids_distinct_within_one_replica():
    with pytest.raises(InvalidInputError, match="distinct"):
        make_driver_bundle(1, 0, 3, particle_ids=[4, 0, 4])
    # batched replicas repeat ids: rows (2, 0) and (7, 0) are different streams
    bundle = make_driver_bundle(1, np.asarray([2, 2, 7]), 3, particle_ids=[0, 1, 0])
    assert bundle.marks_keys[0] != bundle.marks_keys[2]
    assert make_driver_bundle(1, 0, 3, particle_ids=np.asarray([2**32 - 1, 0, 5], dtype=np.uint64)).n == 3


def test_poisson_event_lazy_marks():
    s = StreamState(StreamKey(5, 0, 2, "poisson").hash64())
    mkey = StreamKey(5, 0, 2, "marks").hash64()
    ev = next_candidate_event(s, 0.0, 100.0, 1.0, marks_key=mkey, event_index=0)
    assert ev.mark(2) == marks_uniforms(mkey, 0, np.asarray([2]))[0]


def test_collect_candidates_matches_scalar_walk():
    # the vectorized collector consumes streams exactly like the scalar walk,
    # also when the bundle's rows span several replicas
    n = 5
    bounds = np.asarray([2.0, 0.0, 1.0, 3.0, 0.5])
    reps, parts = np.asarray([2, 2, 7, 7, 11]), np.asarray([0, 1, 0, 3, 0])
    cases = [
        (make_driver_bundle(33, 2, n), np.full(n, 2), np.arange(n)),
        (make_driver_bundle(33, reps, n, particle_ids=parts), reps, parts),
    ]
    for bundle, row_reps, row_parts in cases:
        times, jumpers, us, ks = collect_candidates(bundle, 0.0, 4.0, bounds)
        assert np.all(np.diff(times) >= 0)
        for i in range(n):
            if bounds[i] == 0:
                assert not np.any(jumpers == i)
                continue
            s = StreamState(StreamKey(33, int(row_reps[i]), int(row_parts[i]), "poisson").hash64())
            t = 0.0
            expect = []
            while True:
                ev = next_candidate_event(s, t, 4.0, bounds[i])
                if ev is None:
                    break
                expect.append((ev.time, ev.u))
                t = ev.time
            got = [(float(t_), float(u_)) for t_, u_ in zip(times[jumpers == i], us[jumpers == i])]
            assert got == pytest.approx([e for e in expect], rel=0, abs=0)
            assert list(ks[jumpers == i]) == list(range(len(expect)))


def _two_call_candidates(bundle, t0, t1, rate_bounds):
    """The candidate walk before it drew a round's thinning levels and gaps in one hash: two
    ``uniforms_at`` calls a round, kept as the oracle of ``collect_candidates``."""
    n = bundle.n
    r = np.asarray(rate_bounds, dtype=np.float64)
    times_acc, jumps_acc, us_acc, ks_acc = [], [], [], []
    active = slice(None) if np.all(r > 0) else np.flatnonzero(r > 0)
    cur = np.full(n, np.inf)
    w = bundle.poisson.uniforms_at(active)
    cur[active] = t0 - np.log(w) / r[active]
    live = np.flatnonzero(cur <= t1)
    while live.size > 0:
        u = bundle.poisson.uniforms_at(live) * r[live]
        k = bundle.cand_counts[live].astype(np.int64)
        bundle.cand_counts[live] += np.uint64(1)
        times_acc.append(cur[live].copy())
        jumps_acc.append(live.copy())
        us_acc.append(u)
        ks_acc.append(k)
        w = bundle.poisson.uniforms_at(live)
        cur[live] = cur[live] - np.log(w) / r[live]
        live = live[cur[live] <= t1]
    if not times_acc:
        empty = np.empty(0)
        return empty, np.empty(0, dtype=np.int64), empty, np.empty(0, dtype=np.int64)
    times, jumpers = np.concatenate(times_acc), np.concatenate(jumps_acc)
    us, ks = np.concatenate(us_acc), np.concatenate(ks_acc)
    order = np.lexsort((jumpers, times))
    return times[order], jumpers[order], us[order], ks[order]


def _same_candidate_walk(seed, bounds, pids, steps):
    """``collect_candidates`` and the two-call oracle over ``steps`` successive windows, bit for bit;
    returns the largest number of candidates one particle had in one window."""
    new, old = (make_driver_bundle(seed, 3, len(bounds), particle_ids=pids) for _ in range(2))
    most = 0
    for t0, t1 in steps:
        with np.errstate(over="ignore"):  # a subnormal bound puts the first gap at inf in both
            got, want = collect_candidates(new, t0, t1, bounds), _two_call_candidates(old, t0, t1, bounds)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert np.array_equal(new.poisson.counters, old.poisson.counters)
        assert np.array_equal(new.cand_counts, old.cand_counts)
        most = max(most, int(np.bincount(got[1], minlength=1).max()))
    return most


_BOUND = st.one_of(st.sampled_from([0.0, 0.0, 25.0]), st.floats(0.0, 40.0))


@settings(max_examples=150, deadline=None)
@given(
    seed=_U32,
    bounds=st.lists(_BOUND, min_size=1, max_size=12),
    relabel=st.booleans(),
    widths=st.lists(st.floats(0.01, 0.6), min_size=1, max_size=3),
)
def test_collect_candidates_matches_the_two_call_walk(seed, bounds, relabel, widths):
    # zero bounds emit nothing; relabeled ids address other streams
    n = len(bounds)
    pids = np.random.default_rng(seed).choice(2**32, n, replace=False) if relabel else None
    ends = np.cumsum([0.0, *widths])
    _same_candidate_walk(seed, np.asarray(bounds), pids, list(zip(ends[:-1], ends[1:])))


def test_collect_candidates_matches_the_two_call_walk_over_many_rounds():
    # bound 30 over windows of 0.5: about 15 candidates a particle, so 3 or more rounds
    bounds = np.asarray([30.0, 0.0, 30.0, 2.0, 30.0, 0.0, 12.0])
    pids = np.asarray([9, 2**32 - 1, 4, 70000, 0, 5, 123456789])
    assert _same_candidate_walk(8, bounds, pids, [(0.0, 0.5), (0.5, 1.0)]) >= 3
    assert _same_candidate_walk(8, bounds, None, [(2.0, 2.5)]) >= 3


def _same_grid_walk(seed, bounds, pids, widths):
    """``_grid_candidates`` on the windows of ``widths`` against ``collect_candidates`` window by
    window, bit for bit; returns the largest number of candidates one particle had in one window."""
    t0s = np.cumsum([0.0, *widths[:-1]]).tolist()
    t1s = [t + h for t, h in zip(t0s, widths)]  # as a sub-step computes its end
    batched, single = (make_driver_bundle(seed, 3, len(bounds), particle_ids=pids) for _ in range(2))
    with np.errstate(over="ignore"):  # a subnormal bound puts the first gap at inf in both
        got = _grid_candidates(batched, t0s, t1s, bounds)
        assert len(got) == len(widths)
        most = 0
        for window, t0, t1 in zip(got, t0s, t1s):
            want = collect_candidates(single, t0, t1, bounds)
            for a, b in zip(window, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            most = max(most, int(np.bincount(want[1], minlength=1).max()))
    assert np.array_equal(batched.poisson.counters, single.poisson.counters)
    assert np.array_equal(batched.cand_counts, single.cand_counts)
    return most


@settings(max_examples=100, deadline=None)
@given(
    seed=_U32,
    bounds=st.lists(_BOUND, min_size=1, max_size=12),
    relabel=st.booleans(),
    widths=st.lists(st.floats(0.001, 0.3), min_size=50, max_size=70),
)
def test_grid_walk_matches_collect_candidates_window_by_window(seed, bounds, relabel, widths):
    # zero bounds emit nothing; relabeled ids address other streams
    n = len(bounds)
    pids = np.random.default_rng(seed).choice(2**32, n, replace=False) if relabel else None
    _same_grid_walk(seed, np.asarray(bounds), pids, widths)


def test_grid_walk_matches_collect_candidates_over_many_rounds():
    # bound 30 over 60 windows of 0.1 or 0.5: some window holds 3 or more candidates of one particle,
    # and the walk looks one window ahead; at bound 3 over windows of 0.05 it looks 14 ahead
    bounds = np.asarray([30.0, 0.0, 30.0, 2.0, 30.0, 0.0, 12.0])
    pids = np.asarray([9, 2**32 - 1, 4, 70000, 0, 5, 123456789])
    assert _same_grid_walk(8, bounds, pids, [0.5] * 60) >= 3
    assert _same_grid_walk(8, bounds, None, [0.1] * 60) >= 3
    assert _same_grid_walk(8, np.full(7, 3.0), pids, [0.05] * 60) >= 3
    assert _same_grid_walk(8, np.zeros(3), None, [0.1] * 60) == 0
    assert _same_grid_walk(8, np.full(2, 1e-308), None, [0.1] * 60) == 0  # 2 / busiest overflowed to inf


def test_grid_walk_keeps_a_candidate_at_its_window_end():
    # a first gap that lands exactly on a window's end is a candidate of that window in both walks
    tau = float(collect_candidates(make_driver_bundle(8, 3, 1), 0.0, 10.0, np.ones(1))[0][0])
    assert _same_grid_walk(8, np.ones(1), None, [tau, 0.5]) == 1


def test_bundle_snapshot_rewinds_exactly():
    bundle = make_driver_bundle(8, 0, 3)
    snap = bundle.snapshot()
    a = collect_candidates(bundle, 0.0, 2.0, np.full(3, 2.0))
    bundle.restore(snap)
    b = collect_candidates(bundle, 0.0, 2.0, np.full(3, 2.0))
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


_LOADER_PROBE = textwrap.dedent("""
    import hashlib, importlib.machinery, sys
    from pathlib import Path
    mode, out = sys.argv[1:]
    if mode == "raising":
        # _ufuncs runs its init (loading its siblings), then raises while the stand-in is in place
        exec_module = importlib.machinery.ExtensionFileLoader.exec_module
        def exec_then_raise(self, module):
            exec_module(self, module)
            if module.__name__ == "scipy.special._ufuncs" and not hasattr(sys.modules["scipy.special"], "__file__"):
                raise ImportError("injected")
        importlib.machinery.ExtensionFileLoader.exec_module = exec_then_raise
    import numpy as np
    import mfjump
    from mfjump.drivers import StreamState, scipy_extension
    normals = StreamState(12345).normals(1000)
    rng = np.random.default_rng(3)
    w1 = mfjump.w1_assignment(rng.normal(size=(64, 2)), rng.normal(size=(64, 2)))
    cfg = mfjump.SimConfig.from_dict({
        "schema": 1, "model": {"id": "neuronal"}, "init": {"kind": "uniform"},
        "run": {"T": 0.2, "dt": 0.05, "Ns": [4, 8], "replicas": 3, "seed": 5, "workers": 0},
        "output": {"dir": out},
    })
    mfjump.run_diagnostics(cfg)
    loaded = sorted(m for m in ("scipy.special", "scipy.optimize") if m in sys.modules)
    assert all(hasattr(sys.modules[m], "__file__") for m in loaded)  # no stand-in left
    if mode == "missing":
        package = scipy_extension("scipy.special._no_such_kernel")
        assert package is sys.modules["scipy.special"] and hasattr(package, "__file__")
        assert package.ndtri is mfjump.drivers.ndtri
        assert "scipy.special._no_such_kernel" not in sys.modules
    if mode == "raising":
        import scipy.special
        assert mfjump.drivers.ndtri is scipy.special.ndtri and mfjump.harness.stdtrit is scipy.special.stdtrit
    csv = hashlib.sha256(Path(out, "diagnostics.csv").read_bytes()).hexdigest()
    print(",".join(loaded) or "-", hashlib.sha256(normals.tobytes()).hexdigest(), w1.hex(), csv)
""")


def _run_loader_probe(mode: str, out: Path) -> list[str]:
    src = str(Path(mfjump.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _LOADER_PROBE, mode, str(out)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_scipy_kernels_load_without_package_inits(tmp_path):
    # a fresh interpreter draws normals, solves a d=2 assignment and runs the
    # diagnostics (Student t quantile) without scipy.special's or
    # scipy.optimize's __init__; the package-import fallback, taken when the
    # extension's load raises, gives the same bits
    direct = _run_loader_probe("direct", tmp_path / "direct")
    fallback = _run_loader_probe("raising", tmp_path / "raising")
    assert direct[0] == "-"
    assert fallback[0] == "scipy.special"
    assert direct[1:] == fallback[1:]
    assert direct[1] == hashlib.sha256(StreamState(12345).normals(1000).tobytes()).hexdigest()


def test_scipy_extension_falls_back_for_a_missing_file(tmp_path):
    # no such extension file: the package import is returned and no stand-in is left behind
    assert _run_loader_probe("missing", tmp_path)[0] == "-"


def test_loaded_kernels_are_the_ones_scipy_special_exports():
    import scipy.special

    assert scipy.special.ndtri is mfjump.drivers.ndtri
    assert scipy.special.stdtrit is mfjump.harness.stdtrit
