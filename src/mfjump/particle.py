"""Time stepping of the interacting system, the intermediate system, and
index-coupled limit copies, all on shared drivers.

Scheme
------
Hybrid stepping: drift/diffusion advance by Euler using the start-of-step
empirical measure, while candidate Poisson events inside the step are
placed at their exact times and processed in time order (ties broken by
particle index).  The measure seen by jump evaluations is live: it updates
at every jump inside the step.  An accepted main jump of particle j moves
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

from .drivers import (
    WEAK_TEST_REPLICA,
    DriverBundle,
    InvalidInputError,
    StreamKey,
    StreamState,
    collect_candidates,
    make_driver_bundle,
    marks_uniforms,
    marks_uniforms_batch,
)
from .models import EmpiricalMeasure, ModelSpec, collateral_drift, make_empirical


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
    """Knobs of the stepping scheme (all deterministic)."""

    bound_mult: float = 2.0
    bound_add: float = 1.0
    candidate_cap: float = 1.0  # expected candidates per particle per sub-step
    max_retries: int = 8
    ysystem_rate_arg: str = "jumper"  # jumper | target

    def __post_init__(self):
        if self.ysystem_rate_arg not in ("jumper", "target"):
            raise InvalidInputError("ysystem_rate_arg must be 'jumper' or 'target'")
        if not (math.isfinite(self.candidate_cap) and self.candidate_cap > 0):
            raise InvalidInputError(f"candidate_cap must be positive and finite, got {self.candidate_cap!r}")
        if self.max_retries < 0:
            raise InvalidInputError(f"max_retries must be >= 0, got {self.max_retries!r}")
        for name, value in (("bound_mult", self.bound_mult), ("bound_add", self.bound_add)):
            if not (math.isfinite(value) and value >= 0):
                raise InvalidInputError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class InitSampler:
    """Initial-condition sampler, drawing from the per-particle init streams."""

    kind: str = "gauss"  # gauss | uniform | point
    mean: tuple = (0.0,)
    std: float = 1.0
    low: float = 0.0
    high: float = 1.0
    point: tuple = (0.0,)

    def sample(self, bundle: DriverBundle, dim: int) -> np.ndarray:
        n = bundle.n
        if self.kind == "point":
            x0 = np.asarray(self.point, dtype=np.float64)
            return np.tile(x0.reshape(1, dim), (n, 1))
        if self.kind == "uniform":
            u = np.column_stack([bundle.init.uniforms_all() for _ in range(dim)])
            return self.low + (self.high - self.low) * u
        if self.kind == "gauss":
            z = bundle.init.normals_block(dim)
            mean = np.asarray(self.mean, dtype=np.float64).reshape(1, dim)
            return mean + self.std * z
        raise InvalidInputError(f"unknown init kind {self.kind!r}")


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

    def __init__(self, kind: str, spec: ModelSpec, positions: np.ndarray, flow=None):
        if kind not in ("X", "Y", "LIMIT"):
            raise InvalidInputError(f"unknown system kind {kind!r}")
        if kind == "LIMIT" and flow is None:
            raise InvalidInputError("LIMIT systems need a flow approximation")
        self.kind = kind
        self.spec = spec
        self.pos = np.array(positions, dtype=np.float64)
        self.flow = flow
        self._measure = EmpiricalMeasure(self.pos)
        self.jump_times: list[float] = []
        self.jump_particles: list[int] = []
        self.jump_pre: list[np.ndarray] = []
        self.jump_post: list[np.ndarray] = []

    @property
    def jump_count(self) -> int:
        return len(self.jump_times)

    def measure_now(self, t: float) -> EmpiricalMeasure:
        if self.kind == "LIMIT":
            return self.flow.measure_for(t)
        return self._measure

    def rates(self, t: float) -> np.ndarray:
        return np.asarray(self.spec.rate(self.pos, self.measure_now(t)), dtype=np.float64)

    def set_positions(self, new: np.ndarray) -> None:
        self.pos[:] = new
        self._measure.mark_dirty()

    def snapshot(self) -> dict:
        return {"pos": self.pos.copy(), "nlog": len(self.jump_times)}

    def restore(self, snap: dict) -> None:
        self.pos[:] = snap["pos"]
        k = snap["nlog"]
        del self.jump_times[k:]
        del self.jump_particles[k:]
        del self.jump_pre[k:]
        del self.jump_post[k:]
        self._measure.mark_dirty()


def _collateral_drift_y(spec: ModelSpec, pos: np.ndarray, mu: EmpiricalMeasure, rate_arg: str) -> np.ndarray | None:
    """The intermediate system's absorbed collateral drift (mu is pos's own measure)."""
    kind = spec.collateral_mean_kind()
    if rate_arg == "jumper" or kind == "zero":
        return collateral_drift(spec, pos, mu)
    # 'target' reading: each particle's own rate times the mark mean it receives
    lam = np.asarray(spec.rate(pos, mu), dtype=np.float64)
    if kind == "constant":
        return lam[:, None] * np.asarray(spec.collateral_mean, dtype=np.float64)[None, :]
    return lam[:, None] * np.mean(np.asarray(spec.collateral_mean(pos, pos, mu)), axis=0)


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


def _event_rounds(block: np.ndarray, time: np.ndarray, row: np.ndarray) -> list[np.ndarray]:
    """Candidates grouped in rounds: round r indexes the r-th event of every block.

    Blocks (independent copies or replicas) never interact, so one round is
    processed at once across blocks; inside a block events come in time
    order, ties broken by row.
    """
    order = np.lexsort((row, time, block))
    b = block[order]
    new_block = np.concatenate(([True], b[1:] != b[:-1]))
    seq = np.arange(len(b)) - np.flatnonzero(new_block)[np.cumsum(new_block) - 1]
    return [order[seq == r] for r in range(int(seq.max()) + 1)] if len(b) else []


class CoupledSimulator:
    """Steps one or more systems on a shared driver bundle.

    All listed systems consume identical drivers particle by particle:
    one Brownian block per sub-step, one candidate stream per particle
    under a shared thinning bound, and the same lazily drawn marks.  That
    is the synchronous coupling the distance estimators rely on.
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
    ):
        self.spec = spec
        self.bundle = drivers
        self.policy = policy or StepPolicy()
        self.scheme = _resolve_scheme(spec, scheme)
        self.systems = [_LiveSystem(k, spec, np.zeros((drivers.n, spec.dim)), flow) for k in systems]
        self.t = 0.0
        self.retry_count = 0
        self.sup: dict[str, np.ndarray] = {}
        self._marks = np.empty(drivers.n)  # buffers for every accepted X jump
        self._mark_scratch = np.empty((2, drivers.n), dtype=np.uint64)
        self._kick = np.empty((drivers.n, spec.dim))
        self._pairs = []  # (system a, system b, sup array) per coupled pair
        for (a, b), key in self.PAIR_KEYS.items():
            if a in systems and b in systems:
                self.sup[key] = np.zeros(drivers.n)
                self._pairs.append((self.system(a), self.system(b), self.sup[key]))

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
        """Largest rate of each particle over the coupled systems."""
        lam = self.systems[0].rates(t)
        for s in self.systems[1:]:
            lam = np.maximum(lam, s.rates(t))
        return lam

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
        for a, b, sup in self._pairs:  # X comes first in its pairs
            if jumped is not None and a not in jumped and b not in jumped:
                continue
            rows = slice(None) if jumped is None or (a.kind == "X" and a in jumped) else slice(j, j + 1)
            diff = a.pos[rows] - b.pos[rows]
            np.maximum(sup[rows], np.sqrt(np.add.reduce(diff * diff, axis=1)), out=sup[rows])

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
        for s in self.systems:
            mu = s.measure_now(t)
            if s.kind == "Y":
                g = _collateral_drift_y(spec, s.pos, mu, self.policy.ysystem_rate_arg)
            elif s.kind == "LIMIT":
                g = collateral_drift(spec, s.pos, s.flow.quad_measure_for(t), min(s.flow.lam_mean_for(t), s.flow.trunc_c))
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
                s.jump_times.append(tau)
                s.jump_particles.append(j)
                s.jump_pre.append(s.pos[j].copy())
                apply_jump(spec, s.pos, j, mu, h_main, h_coll if s.kind == "X" else None, self._kick)
                s.jump_post.append(s.pos[j].copy())
                s._measure.mark_dirty()
                jumped.append(s)
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
    sim = CoupledSimulator(spec, drivers, systems=systems, flow=flow, policy=policy, scheme=scheme)
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


# -- generator ------------------------------------------------------------


@dataclass(frozen=True)
class Observable:
    """Observable with declared derivatives for generator evaluation.

    ``value`` accepts batched states ``(..., N, d)`` and returns ``(...)``;
    ``grad``/``hess`` take a single state (N, d).
    """

    value: object
    grad: object
    hess: object = None
    is_linear: bool = False


class GeneratorQuadratureError(RuntimeError):
    def __init__(self, estimate: float, se: float):
        super().__init__(f"mark quadrature did not converge: estimate={estimate:.6g} se={se:.6g}")
        self.estimate = estimate
        self.se = se


def _jump_term_closed(spec: ModelSpec, grad: np.ndarray, x: np.ndarray, mu: EmpiricalMeasure, lam: np.ndarray) -> float:
    """Rate-weighted jump expectation for a linear observable, closed form.

    Particle i's event moves i by the mark mean of the main jump and every
    other particle by the collateral mark mean over n.
    """
    n = x.shape[0]
    psi_bar = np.asarray(spec.main_jump_mean(x, mu), dtype=np.float64)
    jump = float(np.sum(lam * np.sum(psi_bar * grad, axis=1)))
    if spec.collateral_mean_kind() == "constant":
        ev = np.asarray(spec.collateral_mean, dtype=np.float64)
        g_dot = grad @ ev  # (n,)
        jump += float(np.sum(lam * (np.sum(g_dot) - g_dot) / n))
    return jump


def coordinate_function(particle: int, coord: int = 0) -> Observable:
    """The linear observable x -> x[particle, coord]."""

    def value(x):
        return np.asarray(x)[..., particle, coord]

    def grad(x):
        g = np.zeros_like(np.asarray(x, dtype=np.float64))
        g[particle, coord] = 1.0
        return g

    return Observable(value=value, grad=grad, hess=None, is_linear=True)


def generator_apply(
    spec: ModelSpec,
    phi: Observable,
    x: np.ndarray,
    *,
    mark_draws: int = 4096,
    seed: int = 0,
    rel_tol: float = 5e-3,
    abs_tol: float = 1e-9,
) -> float:
    """Generator of the N-particle system applied to ``phi`` at state ``x``.

    Sum over particles of the drift term, the diffusion term, and the
    rate-weighted mark expectation of the jump displacement (main jump of
    the firing particle plus collateral over N on everyone else).  The
    mark expectation uses declared closed forms for linear observables and
    falls back to a deterministic Monte Carlo over marks otherwise; if the
    Monte Carlo standard error does not meet tolerance the call raises
    ``GeneratorQuadratureError`` with its estimate.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n, d = x.shape
    mu = make_empirical(x)
    grad = np.asarray(phi.grad(x), dtype=np.float64)
    drift = np.asarray(spec.drift(x, mu), dtype=np.float64)
    total = float(np.sum(drift * grad))

    if spec.has_diffusion():
        if phi.hess is not None:
            sig = np.asarray(spec.diffusion(x, mu), dtype=np.float64)
            a = np.einsum("nij,nkj->nik", sig, sig)
            hess = np.asarray(phi.hess(x), dtype=np.float64)
            total += 0.5 * float(np.einsum("nik,nik->", a, hess))
        elif not phi.is_linear:
            raise InvalidInputError("diffusive models need phi.hess unless phi is linear")

    lam = np.asarray(spec.rate(x, mu), dtype=np.float64)

    closed = (
        phi.is_linear
        and spec.main_jump_mean is not None
        and spec.collateral_mean_kind() != "general"
    )
    if closed:
        return total + _jump_term_closed(spec, grad, x, mu, lam)

    # Monte Carlo over the product mark law, one stream per firing particle
    base = phi.value(x)
    jump = 0.0
    var = 0.0
    for i in range(n):
        stream = StreamState(StreamKey(seed, WEAK_TEST_REPLICA, i, "marks").hash64())
        hmat = stream.uniforms(mark_draws * n).reshape(mark_draws, n)
        hi = hmat[:, i]
        pert = np.broadcast_to(x, (mark_draws, n, d)).copy()
        psi = np.asarray(spec.main_jump(np.tile(x[i], (mark_draws, 1)), mu, hi))
        theta = np.zeros((mark_draws, n, d))
        for j in range(n):
            if j == i:
                continue
            theta[:, j, :] = np.asarray(
                spec.collateral_jump(np.tile(x[i], (mark_draws, 1)), np.tile(x[j], (mark_draws, 1)), mu, hi, hmat[:, j])
            )
        pert += theta / n
        pert[:, i, :] = x[i] + psi
        vals = np.asarray(phi.value(pert), dtype=np.float64) - base
        jump += lam[i] * float(vals.mean())
        var += (lam[i] ** 2) * float(vals.var(ddof=1)) / mark_draws if mark_draws > 1 else 0.0
    se = math.sqrt(var)
    estimate = total + jump
    if se > abs_tol + rel_tol * max(abs(estimate), 1.0):
        raise GeneratorQuadratureError(estimate, se)
    return estimate


# -- vectorized single-step weak-error estimator ---------------------------


class _MeanOnlyMeasure:
    """Measure stand-in exposing only a (possibly batched) mean.

    Used by the replicated single-step estimator; models whose
    coefficients touch anything beyond the mean fail loudly.
    """

    def __init__(self, mean: np.ndarray):
        self._mean = mean

    @property
    def mean(self) -> np.ndarray:
        return self._mean

    @property
    def points(self):
        raise NotImplementedError("replicated estimator supports mean-dependent coefficients only")

    def integrate(self, g):
        raise NotImplementedError("replicated estimator supports mean-dependent coefficients only")


# replicas per vectorized batch of the single-step estimator
_WEAK_CHUNK = 1 << 17


@dataclass(frozen=True)
class WeakStepEstimate:
    h: float
    mean: float
    se: float
    samples: int


def single_step_weak_estimate(
    spec: ModelSpec,
    phi: Observable,
    x0: np.ndarray,
    h: float,
    samples: int,
    *,
    seed: int = 0,
    replica_base: int | None = None,
    control_variate: bool = True,
    return_positions: bool = False,
) -> WeakStepEstimate | np.ndarray:
    """Monte Carlo estimate of E[phi(X_h)] from state x0, replicated.

    Vectorizes the one-step scheme over independent replicas; each replica
    is a full N-particle copy with its own streams, addressed exactly like
    a solo run with that replica id (checked against one-cell ``simulate``
    runs in the tests).  Requires a declared global rate bound and
    coefficients that use the measure only through its mean.

    With ``control_variate`` (linear phi and declared mark means only),
    the first-order jump and Brownian contributions evaluated at the
    frozen start state are subtracted sample by sample and their exact
    expectations added back, which removes the O(sqrt(lam h) + sigma
    sqrt(h)) noise and leaves only the second-order fluctuation.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    n, d = x0.shape
    cap = spec.meta.rate_global_bound
    if cap is None:
        raise InvalidInputError("replicated estimator needs a declared global rate bound")
    if cap * h > 4.0:
        raise InvalidInputError("step too large for single-sub-step estimation")
    base = replica_base if replica_base is not None else (1 << 41)
    if control_variate and not (
        phi.is_linear and spec.main_jump_mean is not None and spec.collateral_mean_kind() != "general"
    ):
        raise InvalidInputError("control variates need a linear phi and declared mark means")

    mu0 = make_empirical(x0)
    lam0 = np.asarray(spec.rate(x0, mu0), dtype=np.float64)
    grad0 = np.asarray(phi.grad(x0), dtype=np.float64) if control_variate else None
    cv_mean = h * _jump_term_closed(spec, grad0, x0, mu0, lam0) if control_variate else 0.0
    gsig0 = None
    if control_variate and spec.has_diffusion():
        sig_x0 = np.asarray(spec.diffusion(x0, mu0), dtype=np.float64)
        gsig0 = np.einsum("nd,ndk->nk", grad0, sig_x0)  # (n, d1)

    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        m = min(_WEAK_CHUNK, samples - done)
        bundle = DriverBundle(
            seed,
            np.repeat(np.arange(done, done + m, dtype=np.int64) + base, n),
            np.tile(np.arange(n, dtype=np.int64), m),
        )
        pos = np.broadcast_to(x0, (m, n, d)).copy()
        mean = pos.mean(axis=1)  # (m, d)
        control = np.zeros(m)

        view0 = _MeanOnlyMeasure(np.repeat(mean, n, axis=0))
        drift0 = np.asarray(spec.drift(pos.reshape(m * n, d), view0), dtype=np.float64)
        sig0 = None
        if spec.has_diffusion():
            sig0 = np.asarray(spec.diffusion(pos.reshape(m * n, d), view0), dtype=np.float64)
            sig0 = np.broadcast_to(sig0, (m * n, d, spec.brownian_dim))

        ctime, crow, cu, ck = collect_candidates(bundle, 0.0, h, np.full(m * n, cap))
        crep, cpart = crow // n, crow % n
        mkeys = bundle.marks_keys

        if control_variate and len(crow):
            # frozen-state contribution of every candidate, exact mean h * L_jump
            h_main0 = marks_uniforms_batch(mkeys[crow], ck, cpart)
            frozen_acc = cu <= lam0[cpart]
            psi0 = np.asarray(spec.main_jump(x0[cpart], mu0, h_main0))
            contrib = np.einsum("ed,ed->e", psi0, grad0[cpart])
            for off in range(1, n):
                tgt = (cpart + off) % n
                h2 = marks_uniforms_batch(mkeys[crow], ck, tgt)
                theta0 = np.asarray(spec.collateral_jump(x0[cpart], x0[tgt], mu0, h_main0, h2))
                contrib += np.einsum("ed,ed->e", theta0, grad0[tgt]) / n
            # summed in the order the streams were walked: event index, then row
            walk = np.lexsort((crow, ck))
            np.add.at(control, crep[walk], np.where(frozen_acc, contrib, 0.0)[walk])

        for sel in _event_rounds(crep, ctime, crow):
            erow, er, ep, eu, ek = crow[sel], crep[sel], cpart[sel], cu[sel], ck[sel]
            xp = pos[er, ep]  # (E, d)
            lam = np.asarray(spec.rate(xp, _MeanOnlyMeasure(mean[er])), dtype=np.float64)
            if np.any(lam > cap * (1.0 + 1e-12)):
                raise RateBoundViolation("rate above declared global bound")
            acc = eu <= lam
            if not np.any(acc):
                continue
            erow, er, ep, ek, xp = erow[acc], er[acc], ep[acc], ek[acc], xp[acc]
            h_main = marks_uniforms_batch(mkeys[erow], ek, ep)
            psi = np.asarray(spec.main_jump(xp, _MeanOnlyMeasure(mean[er]), h_main))
            for off in range(1, n):
                tgt = (ep + off) % n
                h2 = marks_uniforms_batch(mkeys[erow], ek, tgt)
                theta = np.asarray(
                    spec.collateral_jump(xp, pos[er, tgt], _MeanOnlyMeasure(mean[er]), h_main, h2)
                )
                if np.any(theta):
                    pos[er, tgt] += theta / n
            pos[er, ep] = xp + psi
            upd = np.unique(er)
            mean[upd] = pos[upd].mean(axis=1)

        flat = pos.reshape(m * n, d)
        flat += h * drift0
        if sig0 is not None and spec.brownian_dim > 0:
            dw = bundle.brownian.normals_block(spec.brownian_dim) * math.sqrt(h)
            flat += np.einsum("nij,nj->ni", sig0, dw)
            if gsig0 is not None:
                control += np.einsum("nk,rnk->r", gsig0, dw.reshape(m, n, spec.brownian_dim))
        pos = flat.reshape(m, n, d)

        if return_positions:
            return pos

        vals = np.asarray(phi.value(pos), dtype=np.float64) - control
        total += float(vals.sum())
        total_sq += float((vals**2).sum())
        done += m

    mean_val = total / samples
    var = max(total_sq / samples - mean_val**2, 0.0) * samples / max(samples - 1, 1)
    return WeakStepEstimate(
        h=h, mean=mean_val + cv_mean, se=math.sqrt(var / samples), samples=samples
    )
