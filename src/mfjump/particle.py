"""Time stepping of the interacting system, the intermediate system, and
index-coupled limit copies, all on shared drivers.

Engines
-------
The library has two stepping engines.  ``CoupledSimulator`` steps the
interacting systems of one replica event by event; ``simulate_ensemble``
(in ``limit``) steps independent limit copies in rounds.  Both size their
sub-steps with ``_advance_substeps`` and freeze coefficients with
``_frozen_coefficients``.  The intermediate system replaces each
collateral kick by its mean-field drift, ``models.collateral_drift``.
Every sub-step's Brownian increments and Poisson candidates are drawn by
one producer, ``_grid_draws``.  A declared global rate bound fixes the
sub-step grid before the run, so both engines draw it whole before their
first sub-step and their sub-steps replay what they would draw; under a
rate-following bound each sub-step draws its own.

Scheme
------
Hybrid stepping: drift/diffusion advance by Euler using the start-of-step
empirical measure, while candidate Poisson events inside the step are
placed at their exact times and processed in time order (ties broken by
particle index).  The measure seen by jump evaluations is live: it
updates at every jump inside the step; LIMIT's is the flow cell in force.
In the Euler scheme a LIMIT row moves only at its own jump, so until
then, and until its cell ends, its thinning rate is read from its rate
vector taken at the sub-step start.  An accepted main jump of particle j
moves j by the main amplitude and every other particle by the collateral
amplitude over N, both evaluated at the pre-jump state.  For N = 2**k the
kick multiplies by 2**-k, which is exact, so it rounds to the quotient's
bits; any other N divides.  A system counts its jumps and, when the run
keeps a jump log (``jump_log``, on by default), logs each jump's time,
particle and pre- and post-jump rows; the log changes no other number,
and a lone system folds no sups.  The marks of a
candidate are hashed once: X's collateral row, whose element j is the main
mark that Y and LIMIT reuse, or the main mark alone when only Y or LIMIT
jump.  When X accepts a candidate that its sub-step start rates predicted
(level at most the rate) and that has no row yet, one call hashes the rows
of it and of the next predicted ones, up to ``MARK_BATCH`` numbers; an
unpredicted acceptance is hashed alone.  A wrong prediction changes no
output bit.  The running sups of coupled pairs fold squared distances, and
``sup`` takes the root when it is read: sqrt is correctly rounded and
monotone, so the root of the max is the max of the roots.  They fold only
rows that moved: a pair folds every row after an X jump in it, row j after
a Y or LIMIT jump in it, and every row at each sub-step end and, in the
exact scheme, before each accepted jump.  Between two accepted events a
difference of two exact-scheme rows moves along a straight segment, so its
sup there is at an end and a rejected candidate needs no fold.  A d=1 row
is read and written in Python floats wherever that gives the array code's
bits: the zoo's one-row rates and main jumps return lists (the neuronal
power is the float product r * r at alpha 2, numpy's square; other alphas
keep the array power, which libm's pow does not match bit for bit), and
``apply_jump`` writes such a jump with one float add.

For the pull-to-origin, diffusion-free class an exact integrator replaces
Euler: between events positions follow the closed-form exponential decay,
with any piecewise-constant drift (the intermediate system's absorbed
collateral term) folded in via an exponential integrator.

Thinning bounds are local per particle: an affine envelope of the current
rate, or the model's declared global rate bound, one float for the run.  A
rate above an envelope aborts the sub-step, which is rewound and retried
with a halved step a bounded number of times.  Halving cannot change a
declared bound, so a rate above it raises at once, with no rewind: the
systems are left where the failed sub-step put them.  Both engines pass a
rate only when it is at most its row's ceiling (``_thinning_bounds``; a
declared bound's start check reads the rates' max and min and searches
the rows only when they fail), so a NaN or infinite rate raises too:
violations surface, they are never silently absorbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .drivers import DriverBundle, InvalidInputError, _finite, _grid_candidates, _integer, _positive, collect_candidates, marks_uniforms
from .models import EmpiricalMeasure, ModelSpec, collateral_drift


class RateBoundViolation(RuntimeError):
    """A rate evaluation exceeded its thinning bound inside a sub-step."""


class NumericalBlowupError(RuntimeError):
    """Positions left the finite range; carries a state snapshot."""

    def __init__(self, t: float, positions: np.ndarray, system: str):
        super().__init__(f"non-finite positions in system {system} at t={t:.6g}")
        self.t = t
        self.positions = positions
        self.system = system


@dataclass(frozen=True)
class StepPolicy:
    """Knobs of the stepping scheme (all deterministic), and a config's ``stepping`` section; checked when built.
    ``max_retries`` caps the halved retries under a rate-following bound: a declared global bound gets none."""

    bound_mult: float = 2.0
    bound_add: float = 1.0
    candidate_cap: float = 1.0  # expected candidates per particle per sub-step
    max_retries: int = 8

    def __post_init__(self):
        if not _positive(self.candidate_cap):
            raise InvalidInputError(f"candidate_cap must be positive and finite, got {self.candidate_cap!r}")
        if not _integer(self.max_retries) or self.max_retries < 0:
            raise InvalidInputError(f"max_retries must be an integer >= 0, got {self.max_retries!r}")
        for name, value in (("bound_mult", self.bound_mult), ("bound_add", self.bound_add)):
            if not (_finite(value) and value >= 0):
                raise InvalidInputError(f"{name} must be finite and >= 0, got {value!r}")

    def policy(self) -> StepPolicy:
        return self  # kept for bench/workloads.py, which calls config.stepping.policy()


@dataclass(frozen=True)
class InitSampler:
    """Initial-condition sampler on the per-particle init streams, and a config's ``init`` section; checked when built."""

    kind: str = "gauss"  # gauss | uniform | point
    mean: tuple = (0.0,)
    std: float = 1.0
    low: float = 0.0
    high: float = 1.0
    point: tuple = (0.0,)

    def __post_init__(self):
        if self.kind not in ("gauss", "uniform", "point"):
            raise InvalidInputError(f"kind must be gauss, uniform or point, got {self.kind!r}")
        for name in ("std", "low", "high"):
            if not _finite(getattr(self, name)):
                raise InvalidInputError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        for name in ("mean", "point"):
            v = getattr(self, name)
            if not isinstance(v, (list, tuple)) or not all(_finite(c) for c in v):
                raise InvalidInputError(f"{name} must be a list of finite numbers, got {v!r}")

    def sampler(self) -> InitSampler:
        return self  # kept for bench/workloads.py, which calls config.init.sampler()

    def sample(self, bundle: DriverBundle, dim: int) -> np.ndarray:
        n = bundle.n
        if self.kind == "point":
            x0 = np.asarray(self.point, dtype=np.float64)
            return np.tile(x0.reshape(1, dim), (n, 1))
        if self.kind == "uniform":
            u = np.column_stack([bundle.init.uniforms_all() for _ in range(dim)])
            return self.low + (self.high - self.low) * u
        z = bundle.init.normals_block(dim)
        mean = np.asarray(self.mean, dtype=np.float64).reshape(1, dim)
        return mean + self.std * z


def apply_jump(
    spec: ModelSpec,
    positions: np.ndarray,
    jumper: int,
    measure: EmpiricalMeasure,
    h_main: float,
    h_collateral: np.ndarray | None,
    kick: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One main jump plus its simultaneous collateral kicks, written into ``positions``.

    All amplitudes are evaluated at the pre-jump positions and measure.
    ``h_collateral is None`` means the jump has no collateral channel (the
    intermediate system and limit copies); ``kick`` may hold an (n, d) buffer for the kicks.
    Returns (positions, main_amplitude); a measure over ``positions`` is stale after it.
    """
    n = positions.shape[0]
    row = positions[jumper : jumper + 1]
    xj = row.copy()
    psi = spec.main_jump(xj, measure, np.asarray([h_main]))
    if h_collateral is not None:
        theta = np.asarray(spec.collateral_jump(xj[0], positions, measure, h_main, h_collateral))
        if theta.item(0) != 0 or theta.any():  # the first element decides most kicks without a pass over all n
            positions += _collateral_kick(theta, n, kick)  # the jumper's row is overwritten below
    if type(psi) is list and row.shape == (1, 1):  # the shape test sends a user spec's d>1 list to the array add
        positions[jumper, 0] = xj.item(0) + psi[0][0]
    else:
        np.add(xj, psi, out=row)
    return positions, psi[0]


def _collateral_kick(theta: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """``theta / n``, into ``out``.  For n = 2**k it multiplies by 2**-k, which is exact, so both round
    the same real number to the same float; the multiply is the cheaper ufunc.  Any other n divides."""
    return np.multiply(theta, 1.0 / n, out=out) if n & (n - 1) == 0 else np.divide(theta, n, out=out)


class _LiveSystem:
    """One process in a coupled set: positions, jump log and, for LIMIT, the flow cell last read."""

    def __init__(self, kind: str, spec: ModelSpec, positions: np.ndarray, flow=None, record: bool = True):
        if kind not in ("X", "Y", "LIMIT"):
            raise InvalidInputError(f"unknown system kind {kind!r}")
        if kind == "LIMIT" and flow is None:
            raise InvalidInputError("LIMIT systems need a flow approximation")
        self.kind = kind
        self.spec = spec
        self.pos = np.array(positions, dtype=np.float64)
        self.flow = flow
        self.cell = flow.cell(0.0) if kind == "LIMIT" else None  # the flow cell last read
        self.record = record  # False: count the jumps, log none
        self.jump_count = 0
        self.jump_times: list[float] = []
        self.jump_particles: list[int] = []
        self.jump_pre: list[np.ndarray] = []
        self.jump_post: list[np.ndarray] = []

    def measure_now(self, t: float) -> EmpiricalMeasure:
        """The measure at time t: the flow cell's for LIMIT, else one over the current positions."""
        if self.kind != "LIMIT":
            return EmpiricalMeasure(self.pos)
        if not self.cell.start <= t < self.cell.end:
            self.cell = self.flow.cell(t)
        return self.cell.measure

    def rates(self, t: float) -> np.ndarray:
        return np.asarray(self.spec.rate(self.pos, self.measure_now(t)), dtype=np.float64)

    def snapshot(self) -> dict:
        return {"pos": self.pos.copy(), "jumps": self.jump_count}

    def restore(self, snap: dict) -> None:
        self.pos[:] = snap["pos"]
        k = self.jump_count = snap["jumps"]
        del self.jump_times[k:]
        del self.jump_particles[k:]
        del self.jump_pre[k:]
        del self.jump_post[k:]


def _resolve_scheme(spec: ModelSpec, scheme: str) -> str:
    """'auto' picks the exact integrator whenever the model allows it."""
    if scheme == "auto":
        scheme = "exact" if spec.exact_linear_ok else "euler"
    if scheme not in ("euler", "exact"):
        raise InvalidInputError(f"unknown scheme {scheme!r}")
    if scheme == "exact" and not spec.exact_linear_ok:
        raise InvalidInputError("exact integrator needs a pull-to-origin, diffusion-free model")
    return scheme


def _frozen_coefficients(spec: ModelSpec, pos: np.ndarray, mu, g: np.ndarray | None, euler: bool):
    """Drift and diffusion held fixed over a sub-step, from its start state.

    The Euler drift includes the absorbed collateral drift ``g``.  The
    exact integrator keeps only ``g``: it solves the pull to the origin in
    closed form.
    """
    if not euler:
        return g, None
    f = np.asarray(spec.drift(pos, mu), dtype=np.float64)
    sig = np.asarray(spec.diffusion(pos, mu), dtype=np.float64) if spec.has_diffusion() else None
    return (f if g is None else f + g), sig


def _thinning_bounds(spec: ModelSpec, policy: StepPolicy, lam: np.ndarray, t: float) -> tuple:
    """Thinning bounds valid at the current rates ``lam``, and their ceilings: under a declared global rate
    bound one float each for every row, fixed for the run, else one per row.  A ceiling is its bound plus
    rounding slack, and a rate passes only when ``lam <= ceiling``.  A start rate that fails or is not
    finite is a declaration failure that halving cannot repair, so it raises here.
    """
    cap = spec.meta.rate_global_bound
    bounds = float(cap) if cap is not None else policy.bound_mult * lam + policy.bound_add
    ceilings = bounds * (1.0 + 1e-12) + 1e-12
    if cap is not None and lam.max() <= ceilings and lam.min() > -math.inf:  # NaN fails the max
        return bounds, ceilings
    bad = np.flatnonzero(~(np.isfinite(lam) & (lam <= ceilings)))
    if bad.size:
        j = int(bad[0])
        if not math.isfinite(lam[j]):
            raise RateBoundViolation(f"rate {lam[j]:.6g} for particle {j} at t={t:.6g} is not finite")
        held = ("the declared rate bound" if cap is not None
                else f"the step policy's envelope {policy.bound_mult:g} * rate + {policy.bound_add:g}")
        raise RateBoundViolation(
            f"rate {lam[j]:.6g} already above bound {_at(bounds, j):.6g} for particle {j} "
            f"at t={t:.6g}; {held} does not hold"
        )
    return bounds, ceilings


def _at(bounds, rows):
    """``bounds`` from ``_thinning_bounds`` at ``rows``."""
    return bounds if isinstance(bounds, float) else bounds[rows]


def _advance_substeps(spec, policy, t, end, rates, substep, snapshot, restore) -> int:
    """Step from t to end in sub-steps sized to the thinning bounds.

    ``rates(t)`` gives the rates the bounds must cover, and
    ``substep(t, h, bounds, ceilings)`` advances the state on the bounds and
    their ceilings, made once per sub-step.  Under a declared global rate
    bound, which halving cannot change, a ``RateBoundViolation`` is final:
    the sub-step runs once, with no snapshot, and the error propagates.
    Under a rate-following bound a sub-step that raises is rewound with
    ``restore(snapshot())`` and retried at half the step at most
    ``policy.max_retries`` times.  Returns the number of retries.
    """
    final = spec.meta.rate_global_bound is not None
    retried = 0
    while True:
        rem = end - t
        if rem <= 1e-12 * max(1.0, abs(end)):
            return retried
        bounds, ceilings = _thinning_bounds(spec, policy, rates(t), t)
        rmax = bounds if final else float(bounds.max())
        nsub = max(1, int(math.ceil(rmax * rem / policy.candidate_cap))) if rmax > 0 else 1
        h = rem / nsub
        retries = 0
        while True:
            snap = None if final else snapshot()
            try:
                substep(t, h, bounds, ceilings)
                break
            except RateBoundViolation:
                if final:
                    raise
                restore(snap)
                retries += 1
                if retries > policy.max_retries:
                    raise
                h /= 2.0
        retried += retries
        t += h


def _substep_grid(spec: ModelSpec, policy: StepPolicy, ends) -> list[tuple[float, float]]:
    """Every sub-step (t, h) that ``_advance_substeps`` takes from 0 through the cell ends ``ends``
    under a declared global rate bound, which fixes them before the run."""
    grid, t, zero = [], 0.0, np.zeros(1)
    for end in ends:
        _advance_substeps(spec, policy, t, end, lambda t: zero, lambda t, h, *_: grid.append((t, h)), None, None)
        t = end
    return grid


def _grid_draws(bundle: DriverBundle, grid: list, bounds: float | np.ndarray, bdim: int | None):
    """(t, h, Brownian increments or None without ``bdim``, candidates) of every sub-step (t, h) of ``grid``
    under ``bounds``, one rate bound for every row or one per row: the numbers of every sub-step of both engines.

    A narrow bundle (n * bdim at most 2,048, so that 32 sub-steps fit in 2**16 numbers) asked for
    more than one sub-step draws as many as fit in 2**16 numbers at once, in one Brownian block and
    one batched candidate walk (``_grid_candidates``).  Anything else draws sub-step by sub-step
    (``normals_block``, ``collect_candidates``): the batched walk is slower on wide bundles and on
    a single window.  Both walks return the same numbers.
    """
    n = bundle.n
    bounds = np.full(n, bounds) if isinstance(bounds, float) else bounds
    width = n * (bdim or 1)
    step = (1 << 16) // width if width <= 2048 and len(grid) > 1 else 1
    for a in range(0, len(grid), step):
        part = grid[a : a + step]
        if step > 1:
            cands = _grid_candidates(bundle, [t for t, _ in part], [t + h for t, h in part], bounds)
        else:
            cands = [collect_candidates(bundle, t, t + h, bounds) for t, h in part]
        if bdim is not None:  # sub-step s takes the next bdim numbers of every Brownian stream
            z = bundle.brownian.normals_block(bdim * len(part)).reshape(n, len(part), bdim).transpose(1, 0, 2).copy()
        for s, ((t, h), c) in enumerate(zip(part, cands)):
            yield t, h, None if bdim is None else z[s] * math.sqrt(h), c


def _next_draws(replay, t: float, h: float) -> tuple:
    """The draws of the next entry of ``replay``, an ``enumerate`` over (t, h, *draws) entries that
    ends with (None, None); the entry must be for the sub-step (t, h)."""
    i, entry = next(replay)
    if entry[:2] != (t, h):
        raise InvalidInputError(f"draw tape entry {i} is not for the sub-step at t={t!r}, h={h!r}: "
                                "the tape was drawn for another grid")
    return entry[2:]


class CoupledSimulator:
    """Steps one or more systems on a shared driver bundle.

    All listed systems consume identical drivers particle by particle:
    one Brownian block per sub-step, one candidate stream per particle
    under a shared thinning bound, and the same lazily drawn marks.  That
    is the synchronous coupling the distance estimators rely on.  With
    ``record=False`` the systems count their jumps and keep no jump log.
    """

    PAIR_KEYS = {("X", "Y"): "xy", ("Y", "LIMIT"): "ylimit", ("X", "LIMIT"): "xlimit"}
    MARK_BATCH = 1 << 15  # the numbers of X's mark rows that one call hashes at most

    def __init__(
        self,
        spec: ModelSpec,
        drivers: DriverBundle,
        systems: tuple[str, ...] = ("X",),
        flow=None,
        policy: StepPolicy | None = None,
        scheme: str = "auto",
        record: bool = True,
    ):
        self.spec = spec
        self.bundle = drivers
        self.policy = policy or StepPolicy()
        self.scheme = _resolve_scheme(spec, scheme)
        self.systems = [_LiveSystem(k, spec, np.zeros((drivers.n, spec.dim)), flow, record) for k in systems]
        self.t = 0.0
        self.retry_count = 0
        self._sq: dict[str, np.ndarray] = {}  # per pair, the running sup of squared distances
        batch = max(1, self.MARK_BATCH // drivers.n) * drivers.n  # buffers for a batch of X's mark rows
        self._marks, self._mark_scratch = np.empty(batch), np.empty((2, batch), dtype=np.uint64)
        self._kick = np.empty((drivers.n, spec.dim))
        self._start_rates = (math.nan, {})  # (t, each system's rate vector at t), kept by _rates
        self._bdim = spec.brownian_dim if self.scheme == "euler" and spec.has_diffusion() else None
        self._replay = None  # simulate_coupled's pre-drawn grid (``_next_draws``), else each sub-step draws
        self._pairs = []  # (system a, system b, squared sup array, d=1 fold buffer) per coupled pair
        for (a, b), key in self.PAIR_KEYS.items():
            if a in systems and b in systems:
                self._sq[key] = np.zeros(drivers.n)
                self._pairs.append((self.system(a), self.system(b), self._sq[key], np.empty((drivers.n, 1)) if spec.dim == 1 else None))

    @property
    def sup(self) -> dict[str, np.ndarray]:
        """Per pair, the per-index running sup distance: the root of the squared sup, as sqrt is monotone."""
        return {k: np.sqrt(v) for k, v in self._sq.items()}

    def system(self, kind: str) -> _LiveSystem:
        for s in self.systems:
            if s.kind == kind:
                return s
        raise KeyError(kind)

    def set_initial(self, positions: np.ndarray) -> None:
        pos = np.asarray(positions, dtype=np.float64)
        if pos.shape != (self.bundle.n, self.spec.dim):
            raise InvalidInputError(f"initial positions must have shape {(self.bundle.n, self.spec.dim)}, got {pos.shape}")
        for s in self.systems:
            s.pos[:] = pos
        self._update_sup()

    # -- stepping ---------------------------------------------------------

    def _rates(self, t: float) -> np.ndarray:
        """Largest rate of each particle over the coupled systems; each system's own vector is kept for ``_substep``."""
        rates = {s.kind: s.rates(t) for s in self.systems}
        self._start_rates = (t, rates)
        return next(iter(rates.values())) if len(rates) == 1 else np.maximum.reduce(list(rates.values()))

    def _snapshot(self) -> dict:
        return {"bundle": self.bundle.snapshot(), "systems": [s.snapshot() for s in self.systems],
                "sq": {k: v.copy() for k, v in self._sq.items()}}

    def _restore(self, snap: dict) -> None:
        self.bundle.restore(snap["bundle"])
        for s, ssnap in zip(self.systems, snap["systems"]):
            s.restore(ssnap)
        for k in self._sq:
            self._sq[k][:] = snap["sq"][k]

    def _update_sup(self, jumped: list | None = None, j: int = 0) -> None:
        """Fold squared distances into each pair's sup; after a jump of particle j, only rows ``jumped`` systems moved."""
        for a, b, sq, buf in self._pairs:  # X comes first in its pairs
            if jumped is not None and a not in jumped and b not in jumped:
                continue
            every = jumped is None or (a.kind == "X" and a in jumped)
            if buf is None:
                rows = slice(None) if every else slice(j, j + 1)
                diff = a.pos[rows] - b.pos[rows]
                np.maximum(sq[rows], np.add.reduce(diff * diff, axis=1), out=sq[rows])
            elif every:  # d=1: the same operations in place, as a length-1 reduce returns its element
                np.maximum(sq, np.multiply(np.subtract(a.pos, b.pos, out=buf), buf, out=buf)[:, 0], out=sq)
            else:  # d=1, row j in Python floats, keeping np.maximum's NaN propagation
                dv = a.pos.item(j) - b.pos.item(j)
                if (q := dv * dv) > sq.item(j) or q != q:
                    sq[j] = q

    def advance(self, end: float) -> None:
        """Advance all systems to time ``end``, the end of one output cell."""
        if not end > self.t:
            raise InvalidInputError(f"cell end {end} is not after t={self.t}")
        self.retry_count += _advance_substeps(
            self.spec, self.policy, self.t, end, self._rates, self._substep, self._snapshot, self._restore
        )
        self.t = end

    def _substep(self, t: float, h: float, bounds: np.ndarray, ceilings: np.ndarray) -> None:
        spec = self.spec
        euler = self.scheme == "euler"

        # frozen start-of-sub-step drift/diffusion
        drifts: list[np.ndarray | None] = []
        diffs: list[np.ndarray | None] = []
        # Euler: LIMIT's rate is its entry in _rates(t)'s vector until its row jumps or its cell ends
        (t0, start), lim_end, lim_moved = self._start_rates, -math.inf, set()
        for s in self.systems:
            mu = s.measure_now(t)
            if s.kind == "Y":
                g = collateral_drift(spec, s.pos, mu)
            elif s.kind == "LIMIT":
                g = collateral_drift(spec, s.pos, s.cell.quad, s.cell.lam_mean)
                lim_end = s.cell.end if euler and t0 == t else -math.inf
            else:
                g = None
            f, sig = _frozen_coefficients(spec, s.pos, mu, g, euler)
            drifts.append(f)
            diffs.append(sig)

        if self._replay is not None:
            dW, cands = _next_draws(self._replay, t, h)
        else:
            (_, _, dW, cands), = _grid_draws(self.bundle, [(t, h)], bounds, self._bdim)
        ceils = [ceilings] * self.bundle.n if isinstance(ceilings, float) else ceilings.tolist()
        keys = self.bundle.marks_keys
        # marks are addressed by particle id, so relabeling the bundle
        # permutes trajectories exactly
        pids, n = self.bundle.particle_ids, self.bundle.n
        pred = np.flatnonzero(cands[2] <= (start["X"][cands[1]] if "X" in start and t0 == t else -math.inf))
        rows = {}  # X's mark rows by candidate, hashed in batches of the predicted candidates ``pred``
        fold = bool(self._pairs)  # a lone system has no sups to fold

        t_last = t
        decays = [(s.pos, g) for s, g in zip(self.systems, drifts)]
        events = zip(*(c.tolist() + [e] for c, e in zip(cands, (t + h, -1, 0.0, 0))))
        for i, (tau, j, u, k) in enumerate(events):  # j = -1: the sub-step end, where the exact scheme decays too
            if not euler and tau > t_last:
                factor = math.exp(-(tau - t_last))
                one_minus = 1.0 - factor
                for pos, g in decays:
                    pos *= factor
                    if g is not None:
                        pos += g * one_minus
                t_last = tau
            if j < 0:
                break
            h_main, h_coll, jumped = None, None, []
            for s in self.systems:
                if s.kind == "LIMIT" and tau < lim_end and j not in lim_moved:
                    mu, lam_j = None, start["LIMIT"].item(j)  # the measure is read only for a jump
                else:
                    mu = s.measure_now(tau)
                    lam_j = float(spec.rate(s.pos[j : j + 1], mu)[0])
                if not lam_j <= ceils[j]:
                    raise RateBoundViolation(
                        f"rate {lam_j:.6g} above bound {float(_at(bounds, j)):.6g} "
                        f"for particle {j} in system {s.kind} at t={tau:.6g}"
                    )
                if u > lam_j:
                    continue
                if fold and not euler and not jumped:
                    self._update_sup()  # the left limits: a difference moves on a segment, so its sup is at an end
                # one mark hash per candidate: the main mark is element j of X's row.  An unpredicted row is
                # hashed alone into the batch's first row, which the jump that opened the batch has used
                if s.kind == "X":
                    if (h_coll := rows.get(i)) is None:
                        r = pred.searchsorted(i)
                        sel = pred[r : r + self._marks.size // n] if i in pred[r : r + 1] else np.array([i])
                        block = marks_uniforms(keys[cands[1][sel]], cands[3][sel], pids, offsets=self.bundle.mark_offsets,
                                               out=self._marks, scratch=self._mark_scratch).reshape(-1, n)
                        rows.update(zip(sel.tolist(), block))
                        h_coll = block[0]
                    h_main = float(h_coll[j])
                elif h_main is None:
                    h_main = float(marks_uniforms(int(keys[j]), k, pids[j : j + 1])[0])
                if s.record:
                    s.jump_times.append(tau)
                    s.jump_particles.append(j)
                    s.jump_pre.append(s.pos[j].copy())
                apply_jump(spec, s.pos, j, mu or s.measure_now(tau), h_main, h_coll if s.kind == "X" else None, self._kick)
                if s.record:
                    s.jump_post.append(s.pos[j].copy())
                s.jump_count += 1
                jumped.append(s)
                if s.kind == "LIMIT":
                    lim_moved.add(j)
            if fold and jumped:
                self._update_sup(jumped, j)

        if euler:
            noise = (None, None)  # (diffusion array, its noise product): systems given one array share it
            for s, f, sig in zip(self.systems, drifts, diffs):
                s.pos += h * f
                if dW is not None:
                    noise = noise if sig is noise[0] else (sig, np.einsum("nij,nj->ni", sig, dW))
                    s.pos += noise[1]

        for s in self.systems:
            if not np.isfinite(s.pos).all():
                raise NumericalBlowupError(t + h, s.pos.copy(), s.kind)
        self._update_sup()


@dataclass
class PathRecordSet:
    """Grid paths of all particles of one system, its jump count and, when the run kept one, its jump log."""

    times: np.ndarray  # (G,)
    positions: np.ndarray  # (G, N, d)
    jump_count: int
    jump_times: np.ndarray | None = None  # the jump log: None when the run kept none
    jump_particles: np.ndarray | None = None
    jump_pre: np.ndarray | None = None
    jump_post: np.ndarray | None = None

    @property
    def n_particles(self) -> int:
        return self.positions.shape[1]


def _pathset_from(sim_times: list, sim_positions: list, sys: _LiveSystem, dim: int) -> PathRecordSet:
    paths = PathRecordSet(times=np.asarray(sim_times), positions=np.asarray(sim_positions), jump_count=sys.jump_count)
    if sys.record:
        e = len(sys.jump_times)
        paths.jump_times = np.asarray(sys.jump_times)
        paths.jump_particles = np.asarray(sys.jump_particles, dtype=np.int64)
        paths.jump_pre = np.asarray(sys.jump_pre).reshape(e, dim)
        paths.jump_post = np.asarray(sys.jump_post).reshape(e, dim)
    return paths


def output_grid(T: float, dt: float) -> list[float]:
    """The output cells' ends after 0, through T, with dt nudged to divide T exactly: every run steps
    to and records at these ends, so coupled runs and Picard sweeps on one T and dt meet the same cells."""
    if not (T > 0 and dt > 0):
        raise InvalidInputError("T and dt must be positive")
    n = max(1, int(round(T / dt)))
    return [T / n * (cell + 1) for cell in range(n)]


def simulate(
    system: str,
    spec: ModelSpec,
    T: float,
    dt: float,
    drivers: DriverBundle,
    *,
    init: InitSampler | None = None,
    initial_positions: np.ndarray | None = None,
    scheme: str = "auto",
    policy: StepPolicy | None = None,
    jump_log: bool = True,
) -> PathRecordSet:
    """Full path record of one system of ``drivers.n`` particles; deterministic given the args.

    At most one of ``init``/``initial_positions`` may be given; the default
    start is a standard Gaussian sampled from the init streams.  Without
    ``jump_log`` the record keeps the grid positions and the jump count and
    no jump log; every other number is the same.
    """
    res = simulate_coupled(
        (system,), spec, T, dt, drivers,
        init=init, initial_positions=initial_positions, scheme=scheme, policy=policy, jump_log=jump_log,
    )
    return res["paths"][system]


def simulate_coupled(
    systems: tuple[str, ...],
    spec: ModelSpec,
    T: float,
    dt: float,
    drivers: DriverBundle,
    *,
    flow=None,
    init: InitSampler | None = None,
    initial_positions: np.ndarray | None = None,
    scheme: str = "auto",
    policy: StepPolicy | None = None,
    record_paths: bool = True,
    jump_log: bool = True,
) -> dict:
    """Run several systems of ``drivers.n`` particles in lockstep on one driver bundle.

    At most one of ``init``/``initial_positions`` may be given.  Returns a
    dict: ``sup``, per pair, the per-index running sup distance at every
    grid point and every event time; ``jump_counts`` per system; ``retries``,
    the halved sub-steps; with ``record_paths``, ``paths`` per system, each
    with a jump log when ``jump_log`` is on.
    """
    if init is not None and initial_positions is not None:
        raise InvalidInputError("give at most one of init and initial_positions")
    sim = CoupledSimulator(spec, drivers, systems=systems, flow=flow, policy=policy, scheme=scheme,
                           record=record_paths and jump_log)
    if initial_positions is not None:
        x0 = initial_positions  # set_initial checks its shape
    else:
        x0 = (init or InitSampler(mean=tuple([0.0] * spec.dim))).sample(drivers, spec.dim)
    sim.set_initial(x0)
    ends = output_grid(T, dt)
    if spec.meta.rate_global_bound is not None:  # the bound fixes the grid: draw it whole before the run
        grid = _substep_grid(spec, sim.policy, ends)
        sim._replay = enumerate(chain(_grid_draws(drivers, grid, float(spec.meta.rate_global_bound), sim._bdim), [(None, None)]))
    times = [0.0]
    positions = {k: [sim.system(k).pos.copy()] for k in systems} if record_paths else None
    for end in ends:
        sim.advance(end)
        times.append(sim.t)
        if record_paths:
            for k in systems:
                positions[k].append(sim.system(k).pos.copy())
    out = {
        "sup": sim.sup,
        "jump_counts": {k: sim.system(k).jump_count for k in systems},
        "retries": sim.retry_count,
    }
    if record_paths:
        out["paths"] = {k: _pathset_from(times, positions[k], sim.system(k), spec.dim) for k in systems}
    return out
