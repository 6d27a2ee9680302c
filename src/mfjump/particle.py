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

Scheme
------
Hybrid stepping: drift/diffusion advance by Euler using the start-of-step
empirical measure, while candidate Poisson events inside the step are
placed at their exact times and processed in time order (ties broken by
particle index).  The measure seen by jump evaluations is live: it updates
at every jump inside the step; LIMIT's is the flow cell in force.  In the
Euler scheme a LIMIT row moves only at its own jump, so until then, and
until its cell ends, its thinning rate is read from its rate vector taken
at the sub-step start.  An accepted main jump of particle j moves
j by the main amplitude and every other particle by the collateral
amplitude over N, both evaluated at the pre-jump state.  The marks of a
candidate are hashed once: an accepted X jump hashes the collateral row
and takes its element j as the main mark, which Y and LIMIT reuse.  The
running sup distances of coupled pairs fold only rows that moved: a
pair folds every row after an X jump in it, row j after a Y or LIMIT
jump in it, and every row after each exact-scheme decay and sub-step.

For the pull-to-origin, diffusion-free class an exact integrator replaces
Euler: between events positions follow the closed-form exponential decay,
with any piecewise-constant drift (the intermediate system's absorbed
collateral term) folded in via an exponential integrator.

Thinning bounds are local per particle: a declared global rate bound when
the model has one, otherwise an affine envelope of the current rate.  If a
rate evaluation exceeds its bound the sub-step aborts and is retried with
a halved step, a bounded number of times; violations surface, they are
never silently absorbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .drivers import DriverBundle, InvalidInputError, collect_candidates, make_driver_bundle, marks_uniforms
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


def _integer(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _finite(x) -> bool:
    """A finite number (no bool, no string)."""
    return (_integer(x) or isinstance(x, (float, np.floating))) and -np.inf < x < np.inf


def _positive(x) -> bool:
    return _finite(x) and x > 0


@dataclass(frozen=True)
class StepPolicy:
    """Knobs of the stepping scheme (all deterministic), and a config's ``stepping`` section; checked when built."""

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
    Returns (positions, main_amplitude); the caller invalidates any measure built on them.
    """
    n = positions.shape[0]
    xj = positions[jumper].copy()
    psi = spec.main_jump(xj[None, :], measure, np.asarray([h_main]))[0]
    if h_collateral is not None:
        theta = np.asarray(spec.collateral_jump(xj, positions, measure, h_main, h_collateral))
        if theta.any():
            positions += np.divide(theta, n, out=kick)  # the jumper's row is overwritten below
    positions[jumper] = xj + psi
    return positions, psi


class _LiveSystem:
    """One process in a coupled set: positions plus measure bookkeeping."""

    def __init__(self, kind: str, spec: ModelSpec, positions: np.ndarray, flow=None, record: bool = True):
        if kind not in ("X", "Y", "LIMIT"):
            raise InvalidInputError(f"unknown system kind {kind!r}")
        if kind == "LIMIT" and flow is None:
            raise InvalidInputError("LIMIT systems need a flow approximation")
        self.kind = kind
        self.spec = spec
        self.pos = np.array(positions, dtype=np.float64)
        self.flow = flow
        self._measure = EmpiricalMeasure(self.pos)
        self.cell = flow.cell(0.0) if kind == "LIMIT" else None  # the flow cell last read
        self.record = record  # False: count the jumps, log none
        self.jump_count = 0
        self.jump_times: list[float] = []
        self.jump_particles: list[int] = []
        self.jump_pre: list[np.ndarray] = []
        self.jump_post: list[np.ndarray] = []

    def measure_now(self, t: float) -> EmpiricalMeasure:
        if self.kind == "LIMIT" and not self.cell.start <= t < self.cell.end:
            self.cell = self.flow.cell(t)
        return self.cell.measure if self.kind == "LIMIT" else self._measure

    def rates(self, t: float) -> np.ndarray:
        return np.asarray(self.spec.rate(self.pos, self.measure_now(t)), dtype=np.float64)

    def set_positions(self, new: np.ndarray) -> None:
        self.pos[:] = new
        self._measure.mark_dirty()

    def snapshot(self) -> dict:
        return {"pos": self.pos.copy(), "jumps": self.jump_count}

    def restore(self, snap: dict) -> None:
        self.pos[:] = snap["pos"]
        k = self.jump_count = snap["jumps"]
        del self.jump_times[k:]
        del self.jump_particles[k:]
        del self.jump_pre[k:]
        del self.jump_post[k:]
        self._measure.mark_dirty()


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


def _thinning_bounds(spec: ModelSpec, policy: StepPolicy, lam: np.ndarray, t: float) -> np.ndarray:
    """Per-row thinning bounds valid at the current rates ``lam``.

    A rate already above its bound here is a declaration failure that
    halving cannot repair, so it raises immediately.
    """
    cap = spec.meta.rate_global_bound
    bounds = np.full(lam.shape[0], float(cap)) if cap is not None else policy.bound_mult * lam + policy.bound_add
    over = lam > bounds * (1.0 + 1e-12) + 1e-12
    if np.any(over):
        j = int(np.flatnonzero(over)[0])
        raise RateBoundViolation(
            f"rate {lam[j]:.6g} already above bound {bounds[j]:.6g} for particle {j} "
            f"at t={t:.6g}; the declared rate bound does not hold"
        )
    return bounds


def _advance_substeps(spec, policy, t, end, rates, substep, snapshot, restore) -> int:
    """Step from t to end in sub-steps sized to the thinning bounds.

    ``rates(t)`` gives the rates the bounds must cover and
    ``substep(t, h, bounds)`` advances the state.  A sub-step that raises
    ``RateBoundViolation`` is rewound with ``restore(snapshot())`` and
    retried at half the step, at most ``policy.max_retries`` times before
    the violation surfaces.  Returns the number of retries.
    """
    retried = 0
    while True:
        rem = end - t
        if rem <= 1e-12 * max(1.0, abs(end)):
            return retried
        bounds = _thinning_bounds(spec, policy, rates(t), t)
        rmax = float(bounds.max()) if bounds.size else 0.0
        nsub = max(1, int(math.ceil(rmax * rem / policy.candidate_cap))) if rmax > 0 else 1
        h = rem / nsub
        retries = 0
        while True:
            snap = snapshot()
            try:
                substep(t, h, bounds)
                break
            except RateBoundViolation:
                restore(snap)
                retries += 1
                if retries > policy.max_retries:
                    raise
                h /= 2.0
        retried += retries
        t += h


class CoupledSimulator:
    """Steps one or more systems on a shared driver bundle.

    All listed systems consume identical drivers particle by particle:
    one Brownian block per sub-step, one candidate stream per particle
    under a shared thinning bound, and the same lazily drawn marks.  That
    is the synchronous coupling the distance estimators rely on.  With
    ``record=False`` the systems count their jumps and keep no jump log.
    """

    PAIR_KEYS = {("X", "Y"): "xy", ("Y", "LIMIT"): "ylimit", ("X", "LIMIT"): "xlimit"}

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
        self.sup: dict[str, np.ndarray] = {}
        self._marks = np.empty(drivers.n)  # buffers for every accepted X jump
        self._mark_scratch = np.empty((2, drivers.n), dtype=np.uint64)
        self._kick = np.empty((drivers.n, spec.dim))
        self._limit_rates = (math.nan, None)  # (t, LIMIT's rate vector at t), kept by _rates
        self._pairs = []  # (system a, system b, sup array, d=1 fold buffer) per coupled pair
        for (a, b), key in self.PAIR_KEYS.items():
            if a in systems and b in systems:
                self.sup[key] = np.zeros(drivers.n)
                self._pairs.append((self.system(a), self.system(b), self.sup[key], np.empty((drivers.n, 1)) if spec.dim == 1 else None))

    def system(self, kind: str) -> _LiveSystem:
        for s in self.systems:
            if s.kind == kind:
                return s
        raise KeyError(kind)

    def set_initial(self, positions: np.ndarray) -> None:
        pos = np.atleast_2d(np.asarray(positions, dtype=np.float64))
        if pos.shape != (self.bundle.n, self.spec.dim):
            raise InvalidInputError(f"initial positions must have shape {(self.bundle.n, self.spec.dim)}")
        for s in self.systems:
            s.set_positions(pos)
        self._update_sup()

    # -- stepping ---------------------------------------------------------

    def _rates(self, t: float) -> np.ndarray:
        """Largest rate of each particle over the coupled systems; LIMIT's own vector is kept for ``_substep``."""
        rates = {s.kind: s.rates(t) for s in self.systems}
        self._limit_rates = (t, rates.get("LIMIT"))
        return np.maximum.reduce(list(rates.values()))

    def _snapshot(self) -> dict:
        return {
            "bundle": self.bundle.snapshot(),
            "systems": [s.snapshot() for s in self.systems],
            "sup": {k: v.copy() for k, v in self.sup.items()},
        }

    def _restore(self, snap: dict) -> None:
        self.bundle.restore(snap["bundle"])
        for s, ssnap in zip(self.systems, snap["systems"]):
            s.restore(ssnap)
        for k in self.sup:
            self.sup[k][:] = snap["sup"][k]

    def _update_sup(self, jumped: list | None = None, j: int = 0) -> None:
        """Fold current distances into each pair's sup; after a jump of particle j, only rows ``jumped`` systems moved."""
        for a, b, sup, buf in self._pairs:  # X comes first in its pairs
            if jumped is not None and a not in jumped and b not in jumped:
                continue
            every = jumped is None or (a.kind == "X" and a in jumped)
            if buf is None:
                rows = slice(None) if every else slice(j, j + 1)
                diff = a.pos[rows] - b.pos[rows]
                np.maximum(sup[rows], np.sqrt(np.add.reduce(diff * diff, axis=1)), out=sup[rows])
            elif every:  # d=1: the same operations in place, as a length-1 reduce returns its element
                np.multiply(np.subtract(a.pos, b.pos, out=buf), buf, out=buf)
                np.maximum(sup, np.sqrt(buf, out=buf)[:, 0], out=sup)
            else:  # d=1, row j in Python floats, keeping np.maximum's NaN propagation
                dv = a.pos.item(j) - b.pos.item(j)
                if (r := math.sqrt(dv * dv)) > sup.item(j) or r != r:
                    sup[j] = r

    def advance(self, end: float) -> None:
        """Advance all systems to time ``end``, the end of one output cell."""
        if not end > self.t:
            raise InvalidInputError(f"cell end {end} is not after t={self.t}")
        self.retry_count += _advance_substeps(
            self.spec, self.policy, self.t, end, self._rates, self._substep, self._snapshot, self._restore
        )
        self.t = end

    def _substep(self, t: float, h: float, bounds: np.ndarray) -> None:
        spec = self.spec
        n = self.bundle.n
        euler = self.scheme == "euler"

        # frozen start-of-sub-step drift/diffusion
        drifts: list[np.ndarray | None] = []
        diffs: list[np.ndarray | None] = []
        # Euler: LIMIT's rate is its entry in _rates(t)'s vector until its row jumps or its cell ends
        lim_end, lim_lam, lim_moved = -math.inf, self._limit_rates[1], set()
        for s in self.systems:
            mu = s.measure_now(t)
            if s.kind == "Y":
                g = collateral_drift(spec, s.pos, mu)
            elif s.kind == "LIMIT":
                g = collateral_drift(spec, s.pos, s.cell.quad, min(s.cell.lam_mean, s.flow.trunc_c))
                lim_end = s.cell.end if euler and self._limit_rates[0] == t else -math.inf
            else:
                g = None
            f, sig = _frozen_coefficients(spec, s.pos, mu, g, euler)
            drifts.append(f)
            diffs.append(sig)

        dW = None
        if euler and spec.has_diffusion():
            dW = self.bundle.brownian.normals_block(spec.brownian_dim) * math.sqrt(h)

        times, jumpers, us, ks = collect_candidates(self.bundle, t, t + h, bounds)
        keys = self.bundle.marks_keys
        # marks are addressed by particle id, so relabeling the bundle
        # permutes trajectories exactly
        pids = self.bundle.particle_ids

        t_last = t
        for tau, j, u, k in zip(times.tolist(), jumpers.tolist(), us.tolist(), ks.tolist()):
            if not euler and tau > t_last:
                self._decay_all(tau - t_last, drifts)
                t_last = tau
                self._update_sup()  # left limits move in the exact scheme
            h_main, h_coll, jumped = None, None, []
            bound = float(bounds[j])
            for s in self.systems:
                mu = s.measure_now(tau)
                if s.kind == "LIMIT" and tau < lim_end and j not in lim_moved:
                    lam_j = float(lim_lam[j])
                else:
                    lam_j = float(np.asarray(spec.rate(s.pos[j : j + 1], mu))[0])
                if lam_j > bound * (1.0 + 1e-12) + 1e-12:
                    raise RateBoundViolation(
                        f"rate {lam_j:.6g} above bound {bound:.6g} "
                        f"for particle {j} in system {s.kind} at t={tau:.6g}"
                    )
                if u > lam_j:
                    continue
                # one mark hash per candidate: the main mark is element j of X's row
                if s.kind == "X":
                    h_coll = marks_uniforms(int(keys[j]), k, pids, offsets=self.bundle.mark_offsets,
                                            out=self._marks, scratch=self._mark_scratch)
                    h_main = float(h_coll[j])
                elif h_main is None:
                    h_main = float(marks_uniforms(int(keys[j]), k, pids[j : j + 1])[0])
                if s.record:
                    s.jump_times.append(tau)
                    s.jump_particles.append(j)
                    s.jump_pre.append(s.pos[j].copy())
                apply_jump(spec, s.pos, j, mu, h_main, h_coll if s.kind == "X" else None, self._kick)
                if s.record:
                    s.jump_post.append(s.pos[j].copy())
                s.jump_count += 1
                s._measure.mark_dirty()
                jumped.append(s)
                if s.kind == "LIMIT":
                    lim_moved.add(j)
            if jumped:
                self._update_sup(jumped, j)

        if euler:
            for s, f, sig in zip(self.systems, drifts, diffs):
                s.pos += h * f
                if dW is not None and sig is not None and sig.shape[-1] > 0:
                    s.pos += np.einsum("nij,nj->ni", sig, dW)
                s._measure.mark_dirty()
        else:
            self._decay_all(t + h - t_last, drifts)

        for s in self.systems:
            if not np.all(np.isfinite(s.pos)):
                raise NumericalBlowupError(t + h, s.pos.copy(), s.kind)
        self._update_sup()

    def _decay_all(self, s_dt: float, drifts: list) -> None:
        if s_dt <= 0:
            return
        factor = math.exp(-s_dt)
        one_minus = 1.0 - factor
        for s, g in zip(self.systems, drifts):
            s.pos *= factor
            if g is not None:
                s.pos += g * one_minus
            s._measure.mark_dirty()


@dataclass
class PathRecordSet:
    """Grid paths of all particles of one system plus its jump log."""

    times: np.ndarray  # (G,)
    positions: np.ndarray  # (G, N, d)
    jump_times: np.ndarray
    jump_particles: np.ndarray
    jump_pre: np.ndarray
    jump_post: np.ndarray

    @property
    def n_particles(self) -> int:
        return self.positions.shape[1]

    @property
    def jump_count(self) -> int:
        return len(self.jump_times)


def _pathset_from(sim_times: list, sim_positions: list, sys: _LiveSystem, dim: int) -> PathRecordSet:
    e = len(sys.jump_times)
    return PathRecordSet(
        times=np.asarray(sim_times),
        positions=np.asarray(sim_positions),
        jump_times=np.asarray(sys.jump_times),
        jump_particles=np.asarray(sys.jump_particles, dtype=np.int64),
        jump_pre=np.asarray(sys.jump_pre).reshape(e, dim),
        jump_post=np.asarray(sys.jump_post).reshape(e, dim),
    )


def output_grid(T: float, dt: float) -> tuple[int, float]:
    """Number of cells and effective dt; dt is nudged to divide T exactly."""
    if not (T > 0 and dt > 0):
        raise InvalidInputError("T and dt must be positive")
    n = max(1, int(round(T / dt)))
    return n, T / n


def simulate(
    system: str,
    spec: ModelSpec,
    N: int,
    T: float,
    dt: float,
    drivers: DriverBundle | None = None,
    *,
    seed: int = 0,
    replica: int = 0,
    init: InitSampler | None = None,
    initial_positions: np.ndarray | None = None,
    scheme: str = "auto",
    policy: StepPolicy | None = None,
) -> PathRecordSet:
    """Full path record of one system; deterministic given (args, seed).

    Exactly one of ``init``/``initial_positions`` decides the start; the
    default is a standard Gaussian sampled from the init streams.
    """
    bundle = drivers if drivers is not None else make_driver_bundle(seed, replica, N)
    if bundle.n != N:
        raise InvalidInputError("driver bundle size must match N")
    res = simulate_coupled(
        (system,), spec, N, T, dt, bundle,
        init=init, initial_positions=initial_positions, scheme=scheme, policy=policy,
    )
    return res["paths"][system]


def simulate_coupled(
    systems: tuple[str, ...],
    spec: ModelSpec,
    N: int,
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
) -> dict:
    """Run several systems in lockstep on one driver bundle.

    Returns a dict with per-system ``PathRecordSet`` (when recorded),
    per-pair running sup distances evaluated at every grid point and every
    event time, per-system jump counts and the number of halved sub-step
    retries.
    """
    sim = CoupledSimulator(spec, drivers, systems=systems, flow=flow, policy=policy, scheme=scheme, record=record_paths)
    if initial_positions is not None:
        x0 = np.asarray(initial_positions, dtype=np.float64).reshape(N, spec.dim)
    else:
        x0 = (init or InitSampler(mean=tuple([0.0] * spec.dim))).sample(drivers, spec.dim)
    sim.set_initial(x0)
    ncells, dt_eff = output_grid(T, dt)
    times = [0.0]
    positions = {k: [sim.system(k).pos.copy()] for k in systems} if record_paths else None
    for cell in range(ncells):
        sim.advance(dt_eff * (cell + 1))  # the flow's grid; summed widths drift off it
        times.append(sim.t)
        if record_paths:
            for k in systems:
                positions[k].append(sim.system(k).pos.copy())
    out = {
        "sup": {k: v.copy() for k, v in sim.sup.items()},
        "jump_counts": {k: sim.system(k).jump_count for k in systems},
        "retries": sim.retry_count,
    }
    if record_paths:
        out["paths"] = {k: _pathset_from(times, positions[k], sim.system(k), spec.dim) for k in systems}
    return out
