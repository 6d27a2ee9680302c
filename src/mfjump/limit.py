"""Nonlinear limit process via frozen-flow Picard iteration.

The law flow t -> mu_t is represented by an ensemble of M copies recorded
on the output grid.  One Picard sweep simulates M independent copies of
the SDE whose measure argument is frozen to the previous flow; the
iteration's contraction is measured as the sup over the grid of the W1
distance between successive ensembles.  All sweeps reuse the same drivers
(same replica namespace), so successive flows converge pathwise.  This sup and
the noise floor's solve W1 only where an upper bound on it can raise them
(``metrics.w1_sup``): the identity matching's cost, and in d >= 2 the cost of
an assignment restricted to matching blocks.

For a model with a declared global rate bound every sub-step's thinning
bound is that constant, and a rate above it raises instead of halving the
step, so the sub-step grid and every number drawn on it (Brownian blocks
and Poisson candidates) are the same in each sweep.  ``solve_limit``
draws them whole before the first sweep's first sub-step
(``particle._grid_draws``) and every sweep replays them without drawing.
The replayed numbers are the ones a draw would return, so the flow is
bit-identical to drawing in every sweep.

For the superlinear-rate class the only flow dependence is the scalar
summary t -> <mu_t, rate>, which enters the drift truncated at a constant
C.  C lives on the flow (``FlowApproximation.trunc_c``), whose cells hold
the truncated summary, so a sweep frozen at a flow reads that flow's C.
``solve_limit`` starts C at four times the initial summary's sup and
doubles it whenever the truncation binds on more than a configured fraction
of the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .drivers import PICARD_REPLICA, DriverBundle, InvalidInputError, make_driver_bundle, marks_uniforms_batch
from .metrics import w1_sup
from .models import EmpiricalMeasure, ModelSpec, collateral_drift, make_empirical
from .particle import (
    InitSampler,
    NumericalBlowupError,
    RateBoundViolation,
    StepPolicy,
    _advance_substeps,
    _at,
    _frozen_coefficients,
    _grid_draws,
    _next_draws,
    _resolve_scheme,
    _substep_grid,
    output_grid,
)

_QUAD_CAP = 512
TRUNC_FACTOR = 4.0  # trunc_c starts at this multiple of the initial rate summary's sup
SATURATION_FRACTION = 0.01  # share of grid times above trunc_c that doubles it


class FlowCell(NamedTuple):
    """A flow's grid cell: span [start, end), measure, capped quadrature sub-ensemble, and rate summary
    truncated at the flow's ``trunc_c``."""

    start: float
    end: float
    measure: EmpiricalMeasure
    quad: EmpiricalMeasure
    lam_mean: float


@dataclass
class FlowApproximation:
    """Time-marginal flow: per-grid-time ensemble plus scalar summaries, and the truncation C of
    the drift of a sweep frozen at it."""

    times: np.ndarray  # (G,)
    ensemble: np.ndarray  # (G, M, d)
    lam_mean: np.ndarray  # (G,)
    trunc_c: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self._cells: dict[int, FlowCell] = {}
        t, ens, lam = self.times, np.shape(self.ensemble), np.shape(self.lam_mean)  # O(G): each Picard sweep builds a flow
        if np.ndim(t) != 1 or not len(t) or not (np.isfinite(t).all() and (np.diff(t) > 0).all()):
            raise InvalidInputError(f"flow times must be 1-D, finite and strictly increasing, got {t!r}")
        if len(ens) != 3 or ens[0] != len(t) or min(ens) < 1 or lam != (len(t),):
            raise InvalidInputError(f"flow ensemble must be (G, M >= 1, d) and lam_mean (G,), G = {len(t)}: got {ens}, {lam}")
        if not self.trunc_c > 0:  # NaN fails; inf means no truncation
            raise InvalidInputError(f"trunc_c must be > 0 or inf, got {self.trunc_c!r}")

    @property
    def M(self) -> int:
        return self.ensemble.shape[1]

    def cell_index(self, t: float) -> int:
        i = int(np.searchsorted(self.times, t, side="right")) - 1
        return min(max(i, 0), len(self.times) - 1)

    def cell(self, t: float) -> FlowCell:
        """The cell in force at t; the last cell ends at inf."""
        i = self.cell_index(t)
        if i not in self._cells:
            mu = EmpiricalMeasure(self.ensemble[i])
            quad = mu if self.M <= _QUAD_CAP else EmpiricalMeasure(self.ensemble[i, :: self.M // _QUAD_CAP][:_QUAD_CAP])
            end = float(self.times[i + 1]) if i + 1 < len(self.times) else math.inf
            self._cells[i] = FlowCell(float(self.times[i]), end, mu, quad, min(float(self.lam_mean[i]), self.trunc_c))
        return self._cells[i]

    def save(self, path) -> None:
        # stored, not deflated: float64 samples shrink by under 5% and the
        # deflate costs ~30x the write; ``load`` reads either
        np.savez(
            path,
            format=np.asarray(["mfjump-flow-v1"]),
            times=self.times,
            ensemble=self.ensemble,
            lam_mean=self.lam_mean,
            trunc_c=np.asarray([self.trunc_c]),
        )

    @staticmethod
    def load(path) -> "FlowApproximation":
        data = np.load(path, allow_pickle=False)
        if str(data["format"][0]) != "mfjump-flow-v1":
            raise InvalidInputError("unrecognized flow file format")
        flow = FlowApproximation(times=data["times"], ensemble=data["ensemble"], lam_mean=data["lam_mean"],
                                 trunc_c=float(data["trunc_c"][0]))
        e, lam = flow.ensemble, flow.lam_mean  # min and max carry any NaN, with no temporary the ensemble's size
        if not np.isfinite([e.min(), e.max(), lam.min(), lam.max()]).all():
            raise InvalidInputError(f"flow file {path} holds a non-finite ensemble or lam_mean value")
        return flow


def constant_flow(points: np.ndarray, T: float, spec: ModelSpec | None = None) -> FlowApproximation:
    """Flow frozen at one ensemble of finite points for all times (the iteration's start)."""
    pts = make_empirical(points).points
    times = np.asarray([0.0, T])
    ens = np.stack([pts, pts])
    if spec is None:
        return FlowApproximation(times=times, ensemble=ens, lam_mean=np.zeros(2), trunc_c=math.inf)
    return _flow_from_snapshots(spec, times, ens, math.inf)


def simulate_ensemble(
    spec: ModelSpec,
    T: float,
    dt: float,
    drivers: DriverBundle,
    flow: FlowApproximation,
    *,
    initial_positions: np.ndarray,
    scheme: str = "auto",
    policy: StepPolicy | None = None,
    tape: list | None = None,
) -> FlowApproximation:
    """The flow of ``drivers.n`` independent copies of the SDE frozen at ``flow``, fully vectorized.

    Copies never interact: within a sub-step their candidate events are
    processed in per-copy time order (vectorized round by round across
    copies).  The measure argument is the frozen flow's cell, truncation
    included.  The returned flow is recorded at ``output_grid``'s cell ends
    after 0, keeps the frozen flow's ``trunc_c`` and counts the accepted
    jumps in ``meta["jumps"]``.
    A declared global rate bound fixes the sub-step grid, so the run draws
    every sub-step's numbers with their event rounds (``_ensemble_draws``)
    before its first sub-step.  An empty ``tape`` is filled with them, and
    a filled one is replayed without drawing or sorting again, as a run on
    the same grid and streams would draw the same numbers; a tape needs
    such a bound.  Under a rate-following bound each sub-step draws its own.
    """
    if tape is not None and spec.meta.rate_global_bound is None:
        raise InvalidInputError("a draw tape needs a declared global rate bound: other bounds vary by sweep")
    policy = policy or StepPolicy()
    euler = _resolve_scheme(spec, scheme) == "euler"
    bdim = spec.brownian_dim if euler and spec.has_diffusion() else None
    m = drivers.n
    d = spec.dim
    pos = np.array(initial_positions, dtype=np.float64)
    if pos.shape != (m, d):
        raise InvalidInputError(f"initial positions must have shape {(m, d)}, got {pos.shape}")
    ends = output_grid(T, dt)
    snaps = np.empty((len(ends) + 1, m, d))
    snaps[0] = pos
    jumps = 0
    replay = None
    if spec.meta.rate_global_bound is not None:  # the bound fixes the grid: draw it whole before the first sub-step
        tape = [] if tape is None else tape
        if not tape:
            grid = _substep_grid(spec, policy, ends)
            tape += _ensemble_draws(drivers, grid, float(spec.meta.rate_global_bound), bdim)
        replay = enumerate([*tape, (None, None)])

    def rates(t):
        return np.asarray(spec.rate(pos, flow.cell(t).measure), dtype=np.float64)

    def substep(t, h, bounds, ceilings):
        nonlocal jumps
        draws = _next_draws(replay, t, h) if replay else _ensemble_draws(drivers, [(t, h)], bounds, bdim)[0][2:]
        jumps += _ensemble_substep(spec, pos, drivers, flow, t, h, bounds, ceilings, euler, draws)

    def snapshot():
        return pos.copy(), drivers.snapshot()

    def restore(snap):
        pos[:, :] = snap[0]
        drivers.restore(snap[1])

    times = [0.0, *ends]
    for cell, (start, end) in enumerate(zip(times, ends)):
        _advance_substeps(spec, policy, start, end, rates, substep, snapshot, restore)
        snaps[cell + 1] = pos
    out = _flow_from_snapshots(spec, np.asarray(times), snaps, flow.trunc_c)
    out.meta["jumps"] = jumps
    return out


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


def _ensemble_draws(drivers, grid, bounds, bdim) -> list:
    """(t, h, Brownian increments or None, candidates, their ``_event_rounds``) of every sub-step of ``grid``
    (``particle._grid_draws``, ``bounds`` as there)."""
    return [(t, h, dW, c, _event_rounds(c[1], c[0], c[1])) for t, h, dW, c in _grid_draws(drivers, grid, bounds, bdim)]


def _ensemble_substep(spec, pos, drivers, flow, t, h, bounds, ceilings, euler, draws) -> int:
    """One sub-step of every copy in place on ``draws`` (``_ensemble_draws`` less t and h); returns its
    accepted jumps, raises if a copy blows up."""
    _, _, mu, quad, lam_mean = flow.cell(t)
    g = collateral_drift(spec, pos, quad, lam_mean)
    f, sig = _frozen_coefficients(spec, pos, mu, g, euler)
    dW, (times, copies, us, ks), rounds = draws
    t_last = None if euler else np.full(pos.shape[0], t)

    def decay(rows, until):
        # exact integrator: closed-form pull to the origin plus frozen drift g
        factor = np.exp(-(until - t_last[rows]))
        pos[rows] *= factor[:, None]
        if g is not None:
            pos[rows] += g[rows] * (1.0 - factor)[:, None]
        t_last[rows] = until

    jumps = 0
    for sel in rounds:
        ec, eu, ek, et = copies[sel], us[sel], ks[sel], times[sel]
        if not euler:
            decay(ec, et)
        lam_e = np.asarray(spec.rate(pos[ec], mu), dtype=np.float64)
        over = ~(lam_e <= _at(ceilings, ec))
        if np.any(over):
            i = int(np.flatnonzero(over)[0])
            raise RateBoundViolation(
                f"rate {lam_e[i]:.6g} above bound {_at(bounds, ec[i]):.6g} "
                f"for copy {ec[i]} in system LIMIT at t={et[i]:.6g}"
            )
        acc = eu <= lam_e
        if np.any(acc):
            ec_a, ek_a = ec[acc], ek[acc]
            h_main = marks_uniforms_batch(
                drivers.marks_keys[ec_a], ek_a, drivers.particle_ids[ec_a]
            )
            psi = np.asarray(spec.main_jump(pos[ec_a], mu, h_main))
            pos[ec_a] += psi
            jumps += int(acc.sum())

    if euler:
        pos += h * f
        if dW is not None:
            pos += np.einsum("nij,nj->ni", sig, dW)
    else:
        decay(slice(None), t + h)
    if not np.isfinite(pos).all():
        raise NumericalBlowupError(t + h, pos.copy(), "LIMIT")
    return jumps


def _flow_from_snapshots(spec: ModelSpec, times: np.ndarray, snaps: np.ndarray, trunc_c: float) -> FlowApproximation:
    """The flow of grid ensembles ``snaps``, finite as the engine's sub-steps or ``constant_flow`` checked them."""
    lam_mean = np.empty(len(times))
    for i in range(len(times)):
        mu = EmpiricalMeasure(snaps[i])
        lam_mean[i] = float(np.mean(np.asarray(spec.rate(snaps[i], mu))))
    return FlowApproximation(times=times, ensemble=snaps, lam_mean=lam_mean, trunc_c=trunc_c)


def flow_delta(flow_a: FlowApproximation, flow_b: FlowApproximation, seed: int = 0) -> float:
    """sup over flow_b's grid of W1 between its ensemble and flow_a's ensemble in force at that time.

    Exact, though ``w1_sup`` solves only the times whose identity-matching cost, and in d >= 2 block
    bound, can reach the running sup.
    """
    pairs = ((flow_a.ensemble[flow_a.cell_index(t)], ens) for t, ens in zip(flow_b.times, flow_b.ensemble))
    return w1_sup(pairs, seed)


def picard_iterate(
    flow_k: FlowApproximation,
    spec: ModelSpec,
    T: float,
    dt: float,
    *,
    seed: int = 0,
    scheme: str = "auto",
    policy: StepPolicy | None = None,
    initial_positions: np.ndarray,
    tape: list | None = None,
) -> tuple[FlowApproximation, float]:
    """One frozen-flow sweep: the next flow, one copy per row of ``initial_positions`` frozen at
    flow_k and its truncation C, and how far it moved from flow_k.

    Every sweep addresses the same driver namespace, so the returned delta
    is a pathwise contraction measure, not fresh-sample noise.  ``tape``
    is filled with the sweep's draws or replayed (``simulate_ensemble``).
    """
    bundle = make_driver_bundle(seed, PICARD_REPLICA, len(initial_positions))
    flow_next = simulate_ensemble(
        spec, T, dt, bundle, flow_k, initial_positions=initial_positions, scheme=scheme, policy=policy, tape=tape,
    )
    return flow_next, flow_delta(flow_k, flow_next, seed=seed)


def ensemble_noise_floor(flow: FlowApproximation, seed: int = 0) -> float:
    """Monte Carlo noise scale of the flow's W1 deltas at its ensemble size.

    Splits each grid ensemble into even/odd halves (independent copies of
    the same law at size M/2) and takes the sup over the grid of their W1
    over sqrt(2), the square-root size correction back to M.  ``w1_sup`` solves only the
    halves that can raise the sup; one division of it is exact, as division by sqrt(2) is monotone.
    Independent halves have an identity-matching cost far above their W1, so in d >= 2 it is their
    block bounds that skip solves, once a W1 is known or every solver thread is busy.
    """
    return w1_sup(((ens[0::2], ens[1::2]) for ens in flow.ensemble), seed) / math.sqrt(2.0)


def solve_limit(
    spec: ModelSpec,
    M: int,
    T: float,
    dt: float,
    *,
    seed: int = 0,
    tol: float = 1e-3,
    max_iter: int = 10,
    scheme: str = "auto",
    policy: StepPolicy | None = None,
    init: InitSampler | None = None,
) -> FlowApproximation:
    """Iterate frozen-flow sweeps until the flow moves less than tol.

    Non-convergence after max_iter returns the best flow flagged
    non-converged (in ``meta``) rather than raising; the delta sequence,
    truncation history and noise floor are recorded there.
    """
    if not tol > 0:
        raise InvalidInputError("tol must be positive")
    if not (M >= 2 and M % 2 == 0):  # the noise floor compares the even and odd halves
        raise InvalidInputError(f"ensemble size M must be even and >= 2, got {M!r}")
    bundle0 = make_driver_bundle(seed, PICARD_REPLICA, M)
    sampler = init or InitSampler(mean=tuple([0.0] * spec.dim))
    x0 = sampler.sample(bundle0, spec.dim)
    flow = constant_flow(x0, T, spec)
    trunc_c = TRUNC_FACTOR * float(np.max(flow.lam_mean)) if np.max(flow.lam_mean) > 0 else math.inf
    deltas: list[float] = []
    trunc_events: list[float] = []
    converged = False
    tape = [] if spec.meta.rate_global_bound is not None else None
    for _ in range(max_iter):
        flow, delta = picard_iterate(
            replace(flow, trunc_c=trunc_c), spec, T, dt,
            seed=seed, scheme=scheme, policy=policy, initial_positions=x0, tape=tape,
        )
        deltas.append(delta)
        if math.isfinite(trunc_c):
            saturated = float(np.mean(flow.lam_mean > trunc_c))
            if saturated > SATURATION_FRACTION:
                trunc_c *= 2.0
                trunc_events.append(trunc_c)
        if delta < tol:
            converged = True
            break
    floor = ensemble_noise_floor(flow, seed=seed)
    flow.meta = {
        "deltas": deltas,
        "converged": converged,
        "trunc_c": flow.trunc_c,
        "trunc_doublings": trunc_events,
        "noise_floor": floor,
        "M": M,
        "seed": seed,
    }
    return flow

