"""Reproducible, splittable random drivers.

Every random number consumed by a simulation is a pure function of a
64-bit master seed and a stream address ``(replica, particle, kind,
counter)``.  Streams are counter-based (stateless skip-ahead), so the
Brownian motion and the marked Poisson candidates of particle ``i`` can be
replayed bit-identically by any process that holds the same key -- this is
what lets two coupled systems consume literally the same drivers.

Derivation function (frozen, format v1)
---------------------------------------
All arithmetic is modulo 2**64.  ``mix64`` is the splitmix64 finalizer::

    GOLD = 0x9E3779B97F4A7C15
    mix64(z):
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB
        return z ^ (z >> 31)

    key(seed, replica, particle, kind):
        h = mix64(seed)
        h = mix64(h ^ ((replica + 1) * GOLD))
        h = mix64(h ^ ((particle + 1) * GOLD))
        h = mix64(h ^ (KIND_CODE[kind] * GOLD))
        return h

    raw(key, i)     = mix64(key + (i + 1) * GOLD)          # i = 0, 1, ...
    uniform(key, i) = ((raw(key, i) >> 11) + 0.5) * 2**-53 # in (0, 1)

with ``KIND_CODE = {"brownian": 1, "poisson": 2, "marks": 3, "init": 4}``.
Gaussians are ``ndtri(uniform)``; exponential inter-arrival times are
``-log(uniform) / rate``.

Mark coordinates are addressed statelessly: the mark for particle index
``m`` attached to candidate event number ``k`` of a given marks stream is
uniform number ``(k << 32) | m`` of that stream.  They are hashed on
demand, one event's row of particles at most, and rows hashed ahead for the
jumps the stepper predicts go unused when it mispredicts.  Because ``m``
fills the low 32 bits of that address, particle ids are distinct integers
in [0, 2**32); ``DriverBundle`` and ``make_driver_bundle`` reject others.

Reference vectors for ``(seed=42, replica=0, particle=0, kind="brownian")``
are frozen in ``tests/data/stream_vectors.json``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
import threading
import types
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy


_EXTENSION_LOCK = threading.Lock()


def scipy_extension(name: str) -> types.ModuleType:
    """scipy's compiled extension ``name`` (``scipy.special._ufuncs``), loaded from its file.

    This skips the package ``__init__``: ``scipy.special``'s costs ~0.28 s and
    ~20 MB (it imports ``numpy.f2py`` and ``numpy.testing``), ``scipy.optimize``'s
    ~0.26 s and ~22 MB, and neither ``_ufuncs`` (``ndtri``, ``stdtrit``) nor
    ``_lsap`` (``linear_sum_assignment``) needs them.  While the extension's init
    imports its siblings, a transient module with the package's ``__path__``
    stands in for the package.  The extension and its siblings stay registered
    under their real names, so a later package import re-exports these objects.  An imported package is
    returned as is; a missing file or a failed load removes every module it added
    and returns the package import.  A module lock makes concurrent first calls safe.
    """
    with _EXTENSION_LOCK:  # another thread must not see the stand-in package
        package, _, leaf = name.rpartition(".")
        if (loaded := sys.modules.get(package) or sys.modules.get(name)) is not None:
            return loaded
        folder = Path(scipy.__file__).parent.joinpath(*package.split(".")[1:])
        before = set(sys.modules)
        sys.modules[package] = stand_in = types.ModuleType(package)
        stand_in.__path__ = [str(folder)]
        try:
            path = next(p for s in importlib.machinery.EXTENSION_SUFFIXES if (p := folder / f"{leaf}{s}").is_file())
            spec = importlib.util.spec_from_file_location(name, path)
            module = sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except Exception:  # noqa: BLE001 - any failure falls back to the package import
            for added in set(sys.modules) - before:
                del sys.modules[added]
            return importlib.import_module(package)
        del sys.modules[package]
        return module


ndtri = scipy_extension("scipy.special._ufuncs").ndtri

_MASK = (1 << 64) - 1
_GOLD = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

KIND_CODES = {"brownian": 1, "poisson": 2, "marks": 3, "init": 4}

# Reserved replica namespaces so auxiliary consumers never collide with
# experiment replicas (which are small integers, or (n_index << 20) | r in
# sweep cells).  (1 << 40) + 2 is taken by the generator in tests/weak_step.py.
PICARD_REPLICA = 1 << 40
PROBE_REPLICA = (1 << 40) + 1
SUBSAMPLE_REPLICA = (1 << 40) + 3  # the W1 subsample's permutation (metrics.subsample_indices)

_U64_GOLD = np.uint64(_GOLD)
_U64_MIX1 = np.uint64(_MIX1)
_U64_MIX2 = np.uint64(_MIX2)
_U64_ONE, _U64_TWO = np.uint64(1), np.uint64(2)
_U64_PAIR = np.asarray([[0], [1]], dtype=np.uint64)  # plus c: the counters c and c + 1 as two rows
_U64_11, _U64_27, _U64_30, _U64_31 = (np.uint64(s) for s in (11, 27, 30, 31))
_U64_EVENT = np.uint64(((1 << 32) * _GOLD) & _MASK)  # times k: (k << 32) * GOLD mod 2**64, a mark event's part


class InvalidInputError(ValueError):
    """Raised when an operation is called with out-of-contract arguments."""


def _integer(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _number(x) -> bool:
    """An integer or a float (no bool, no string)."""
    return _integer(x) or isinstance(x, (float, np.floating))


def _finite(x) -> bool:
    """A number that a float holds: no NaN, no inf, no integer above the largest float."""
    return abs(x) <= sys.float_info.max if _integer(x) else _number(x) and -np.inf < x < np.inf


def _positive(x) -> bool:
    return _finite(x) and x > 0


def mix64(z: int) -> int:
    """Splitmix64 finalizer on python ints (mod 2**64)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _mix64_inplace(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """mix64 on a uint64 array, overwriting it, with one scratch buffer ``tmp``."""
    # uint64 array ops wrap mod 2**64, matching mix64 on scalars
    tmp = np.empty_like(z) if tmp is None else tmp
    np.right_shift(z, _U64_30, out=tmp)
    z ^= tmp
    z *= _U64_MIX1
    np.right_shift(z, _U64_27, out=tmp)
    z ^= tmp
    z *= _U64_MIX2
    np.right_shift(z, _U64_31, out=tmp)
    z ^= tmp
    return z


def _counter_offsets(counters) -> np.ndarray:
    """(c + 1) * GOLD mod 2**64: the counter's part of a raw draw's address."""
    z = np.array(counters, dtype=np.uint64)
    z += _U64_ONE
    z *= _U64_GOLD
    return z


def _raw_from_counters(key: int | np.ndarray, counters) -> np.ndarray:
    """Raw draw #c of the stream ``key``: mix64(key + (c + 1) * GOLD), mod 2**64."""
    offsets = _counter_offsets(counters)
    return _mix64_inplace(np.add(offsets, np.asarray(key, dtype=np.uint64), out=offsets))


def _uniform_from_raw(raw: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """((raw >> 11) + 0.5) * 2**-53 as float64, into ``out``; overwrites ``raw``."""
    raw >>= _U64_11
    u = np.add(raw.view(np.int64), 0.5, out=out)  # below 2**53 now: the same value, and int64 converts faster
    u *= 2.0**-53
    return u


@dataclass(frozen=True)
class StreamKey:
    """Address of one random stream.

    Distinct keys yield statistically independent streams; identical keys
    yield bit-identical streams.
    """

    master_seed: int
    replica: int
    particle: int
    kind: str

    def __post_init__(self):
        if self.kind not in KIND_CODES:
            raise InvalidInputError(f"unknown stream kind {self.kind!r}")

    def hash64(self) -> int:
        h = mix64(self.master_seed)
        h = mix64(h ^ (((self.replica + 1) * _GOLD) & _MASK))
        h = mix64(h ^ (((self.particle + 1) * _GOLD) & _MASK))
        h = mix64(h ^ ((KIND_CODES[self.kind] * _GOLD) & _MASK))
        return h


@dataclass
class StreamState:
    """A cursor into one counter-based stream.  Value-like: copy to fork."""

    key: int
    counter: int = 0

    def raw(self, n: int) -> np.ndarray:
        idx = np.arange(self.counter, self.counter + n, dtype=np.uint64)
        self.counter += n
        return _raw_from_counters(self.key, idx)

    def uniforms(self, n: int) -> np.ndarray:
        """n uniforms in (0, 1), advancing the cursor."""
        return _uniform_from_raw(self.raw(n))

    def normals(self, n: int) -> np.ndarray:
        return ndtri(self.uniforms(n))


def marks_uniforms(marks_keys, event_indices, particle_indices, *, offsets=None, out=None, scratch=(None, None)):
    """Mark coordinates of one or more events over the same particles, flat, event after event:
    uniform #((k << 32) | m) of each event's marks stream for every particle m.

    For m < 2**32, key + ((k << 32 | m) + 1) * GOLD equals (key + (k << 32) * GOLD) + (m + 1) * GOLD
    mod 2**64, so an event's part is one number added to the per-particle part.  ``offsets`` may hold that
    part (``DriverBundle.mark_offsets``), and ``out`` (float64) and the two rows of ``scratch`` (uint64)
    at least as many numbers as are hashed: their heads take the work.
    """
    bases = np.asarray(marks_keys, np.uint64).reshape(-1, 1) + np.asarray(event_indices, np.uint64).reshape(-1, 1) * _U64_EVENT
    offsets = _counter_offsets(particle_indices) if offsets is None else offsets
    raw, tmp = (b if b is None else b[: bases.size * offsets.size].reshape(-1, offsets.size) for b in scratch)
    raw = _mix64_inplace(np.add(offsets, bases, out=raw), tmp).reshape(-1)
    return _uniform_from_raw(raw, out if out is None else out[: raw.size])


def marks_uniforms_batch(marks_keys: np.ndarray, event_indices: np.ndarray, particle_indices: np.ndarray) -> np.ndarray:
    """Vectorized ``marks_uniforms``: one (key, event, particle) triple per row."""
    ks = np.asarray(event_indices, dtype=np.uint64)
    counters = (ks << np.uint64(32)) | np.asarray(particle_indices, dtype=np.uint64)
    return _uniform_from_raw(_raw_from_counters(marks_keys, counters))


def stream_keys(master_seed: int, replicas, particles, kind: str) -> np.ndarray:
    """Vectorized ``StreamKey.hash64`` over replica/particle arrays."""
    if kind not in KIND_CODES:
        raise InvalidInputError(f"unknown stream kind {kind!r}")
    reps = np.asarray(replicas, dtype=np.uint64)
    parts = np.asarray(particles, dtype=np.uint64)
    h = np.uint64(mix64(master_seed))
    h = _mix64_inplace(h ^ ((reps + _U64_ONE) * _U64_GOLD))
    h = _mix64_inplace(h ^ ((parts + _U64_ONE) * _U64_GOLD))
    kmix = np.uint64((KIND_CODES[kind] * _GOLD) & _MASK)
    h = _mix64_inplace(h ^ kmix)
    return h


class StreamArray:
    """Vectorized bundle of one stream per particle (same kind).

    Counters are value-like: ``snapshot``/``restore`` give exact rewind,
    which the steppers use when a sub-step is retried.
    """

    def __init__(self, keys: np.ndarray, counters: np.ndarray | None = None):
        self.keys = np.asarray(keys, dtype=np.uint64)
        n = self.keys.shape[0]
        self.counters = (
            np.zeros(n, dtype=np.uint64) if counters is None else counters.astype(np.uint64, copy=True)
        )

    @property
    def n(self) -> int:
        return self.keys.shape[0]

    def snapshot(self) -> np.ndarray:
        return self.counters.copy()

    def restore(self, snap: np.ndarray) -> None:
        self.counters = snap.copy()

    def uniforms_all(self) -> np.ndarray:
        return self.uniforms_at(slice(None))

    def uniforms_at(self, idx: np.ndarray | slice) -> np.ndarray:
        u = _uniform_from_raw(_raw_from_counters(self.keys[idx], self.counters[idx]))
        self.counters[idx] += _U64_ONE
        return u

    def normals_block(self, k: int) -> np.ndarray:
        """(n, k) standard normals; each stream advances by k."""
        ctr = self.counters[:, None] + np.arange(k, dtype=np.uint64)[None, :]
        raw = _raw_from_counters(self.keys[:, None], ctr)
        self.counters += np.uint64(k)
        return ndtri(_uniform_from_raw(raw))


@dataclass
class DriverBundle:
    """Per-particle streams for one replica: Brownian, Poisson, marks, init.

    The same bundle is handed to every process of a coupled set so all of
    them consume identical drivers particle by particle.  ``cand_counts``
    counts each particle's candidate events and ``mark_offsets`` holds its
    part of every mark address.  ``replica`` is one id for every row, or an
    array with one id per row (batched replicas, which may repeat ids).
    """

    master_seed: int
    replica: int | np.ndarray
    particle_ids: np.ndarray
    brownian: StreamArray = field(init=False)
    poisson: StreamArray = field(init=False)
    marks_keys: np.ndarray = field(init=False)
    init: StreamArray = field(init=False)
    cand_counts: np.ndarray = field(init=False)

    def __post_init__(self):
        ids = np.asarray(self.particle_ids)
        if not ids.size:
            raise InvalidInputError("a driver bundle needs at least one particle")
        if ids.dtype.kind not in "iu" or ids.min() < 0 or ids.max() >= 1 << 32:
            raise InvalidInputError("particle ids must be integers in [0, 2**32): the mark address is (k << 32) | id")
        self.particle_ids = ids
        reps = np.broadcast_to(self.replica, ids.shape)
        self.brownian = StreamArray(stream_keys(self.master_seed, reps, ids, "brownian"))
        self.poisson = StreamArray(stream_keys(self.master_seed, reps, ids, "poisson"))
        self.marks_keys = stream_keys(self.master_seed, reps, ids, "marks")
        self.init = StreamArray(stream_keys(self.master_seed, reps, ids, "init"))
        self.cand_counts = np.zeros(len(ids), dtype=np.uint64)

    @property
    def n(self) -> int:
        return len(self.particle_ids)

    @cached_property
    def mark_offsets(self) -> np.ndarray:  # only bundles that hash mark rows pay for it
        return _counter_offsets(self.particle_ids)

    def snapshot(self) -> dict:
        return {
            "brownian": self.brownian.snapshot(),
            "poisson": self.poisson.snapshot(),
            "init": self.init.snapshot(),
            "cand": self.cand_counts.copy(),
        }

    def restore(self, snap: dict) -> None:
        self.brownian.restore(snap["brownian"])
        self.poisson.restore(snap["poisson"])
        self.init.restore(snap["init"])
        self.cand_counts = snap["cand"].copy()


def make_driver_bundle(master_seed: int, replica: int, n: int, particle_ids=None) -> DriverBundle:
    ids = np.arange(n) if particle_ids is None else np.asarray(particle_ids)
    if len(ids) != n:
        raise InvalidInputError("particle_ids length must equal n")
    if particle_ids is not None and np.ndim(replica) == 0 and len(np.unique(ids)) != n:
        raise InvalidInputError("particle_ids of one replica must be distinct: equal ids share every stream")
    return DriverBundle(master_seed, replica, ids)


def collect_candidates(
    bundle: DriverBundle, t0: float, t1: float, rate_bounds: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All candidate events in (t0, t1] across the bundle's Poisson streams.

    Each particle's Poisson stream is consumed as alternating uniforms: an
    inter-arrival uniform w places the next candidate ``-log(w) / bound``
    later; if that lies in (t0, t1], a thinning-level uniform, scaled by
    the bound, follows.  The walk ends with the first candidate past t1.
    Returns (times, jumpers, u_levels, event_indices) sorted by time with
    ties broken by particle index.  Particles with zero bound emit nothing.
    """
    r = np.asarray(rate_bounds, dtype=np.float64)
    # a slice when every bound is positive: index arrays over all rows cost ~3x
    active = slice(None) if np.all(r > 0) else np.flatnonzero(r > 0)
    cur = np.full(bundle.n, np.inf)
    cur[active] = t0 - np.log(bundle.poisson.uniforms_at(active)) / r[active]
    live = np.flatnonzero(cur <= t1)
    rounds = _candidate_rounds(bundle, live, cur[live], np.full(bundle.n, t1), r)
    times, jumpers, us, ks = (np.concatenate(a) for a in zip(_NO_CANDIDATES, *rounds))
    order = np.lexsort((jumpers, times))
    return times[order], jumpers[order], us[order], ks[order]


_NO_CANDIDATES = (np.empty(0), np.empty(0, dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int64))


def _candidate_rounds(bundle: DriverBundle, live: np.ndarray, tl: np.ndarray, t1: np.ndarray, r: np.ndarray) -> list:
    """The candidates of the rows ``live`` from theirs at times ``tl`` through the rows' ends ``t1``
    under their bounds ``r``, as (times, rows, u_levels, event_indices) per round.  A round hashes
    each live row's thinning level and next gap, draws c and c + 1 of its stream, in one call."""
    poisson, rounds = bundle.poisson, []
    while live.size:
        c = poisson.counters[live]
        u, w = _uniform_from_raw(_raw_from_counters(poisson.keys[live], c + _U64_PAIR))
        poisson.counters[live] = c + _U64_TWO
        k = bundle.cand_counts[live].astype(np.int64)
        bundle.cand_counts[live] += _U64_ONE
        rl = r[live]
        rounds.append((tl, live, u * rl, k))
        nxt = tl - np.log(w) / rl
        keep = nxt <= t1[live]
        live, tl = live[keep], nxt[keep]
    return rounds


def _grid_candidates(bundle: DriverBundle, t0s, t1s, rate_bounds: np.ndarray) -> list[tuple]:
    """``collect_candidates`` on the windows (t0s[i], t1s[i]] in turn: its tuple per window, bit for bit,
    and its counters after the last, in one batched walk.  A pass hashes the first gaps of every row's
    next ``ahead`` windows, which are its draws up to its first window with a candidate; that window's
    candidates are walked in rounds as in ``collect_candidates``, and the row's next pass starts after it.
    """
    t0s, t1s = np.asarray(t0s, dtype=np.float64), np.asarray(t1s, dtype=np.float64)
    nw = len(t0s)
    poisson = bundle.poisson
    r = np.asarray(rate_bounds, dtype=np.float64)
    rows = np.flatnonzero(r > 0)
    nxt = np.zeros(rows.size, dtype=np.int64)  # each row's next window
    busiest = float(r[rows].max() * np.mean(t1s - t0s)) if rows.size and nw else 0.0  # candidates per window
    ahead = nw if busiest * nw <= 2.0 else max(1, math.ceil(2.0 / busiest))  # windows of ~2 candidates
    steps = np.arange(ahead)
    row_win, row_end = np.zeros(bundle.n, dtype=np.int64), np.empty(bundle.n)  # a walked row's window, its end
    acc = [(*_NO_CANDIDATES, np.empty(0, dtype=np.int64))]  # collect_candidates' tuple and the window
    while rows.size:
        win = nxt[:, None] + steps
        inside = win < nw
        np.minimum(win, nw - 1, out=win)
        c = poisson.counters[rows]
        w = _uniform_from_raw(_raw_from_counters(poisson.keys[rows, None], c[:, None] + steps.astype(np.uint64)))
        cur = t0s[win] - np.log(w) / r[rows, None]
        hit = inside & (cur <= t1s[win])
        first = hit.argmax(axis=1)
        live = np.flatnonzero(hit[np.arange(rows.size), first])
        used = np.minimum(ahead, nw - nxt)
        used[live] = first[live] + 1
        poisson.counters[rows] = c + used.astype(np.uint64)
        nxt += used
        jl = rows[live]
        row_win[jl] = nxt[live] - 1
        row_end[jl] = t1s[row_win[jl]]
        acc += [(*rd, row_win[rd[1]]) for rd in _candidate_rounds(bundle, jl, cur[live, first[live]], row_end, r)]
        more = nxt < nw
        rows, nxt = rows[more], nxt[more]

    times, jumpers, us, ks, wins = (np.concatenate(a) for a in zip(*acc))
    order = np.lexsort((jumpers, times, wins))
    cuts = np.searchsorted(wins[order], np.arange(nw + 1)).tolist()
    sorted_ = [a[order] for a in (times, jumpers, us, ks)]
    return [tuple(a[i:j] for a in sorted_) for i, j in zip(cuts[:-1], cuts[1:])]
