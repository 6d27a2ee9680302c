"""Coefficient model for all three system classes, plus assumption probing.

A model bundles the drift F, diffusion sigma, jump rate lambda, main-jump
amplitude psi and collateral amplitude Theta, all evaluated against finite
empirical measures.  Coefficients are batched: positions come in as
``(n, d)`` arrays and results broadcast accordingly.  Mark variables are
product-uniform on [0, 1] and materialized lazily, one coordinate per
touched particle.

Assumption checks are probabilistic probes, not proofs: sampled point /
measure pairs against the declared constants.  A "pass" means "no
violation found at this budget" and the report says so.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .drivers import PROBE_REPLICA, InvalidInputError, StreamKey, StreamState
from .metrics import w1_assignment


class EmpiricalMeasure:
    """Uniform probability measure on n points in R^d that do not move while it is in use.

    The mean is computed at its first read and kept.
    """

    __slots__ = ("points", "_mean")

    def __init__(self, points: np.ndarray):
        self.points = points
        self._mean = None

    @property
    def mean(self) -> np.ndarray:
        if self._mean is None:
            self._mean = np.add.reduce(self.points, axis=0) / len(self.points)  # ndarray.mean's float64 bits
        return self._mean


def make_empirical(points) -> EmpiricalMeasure:
    """Empirical measure of a nonempty list of finite points in R^d."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.size == 0:
        raise InvalidInputError("empirical measure needs at least one point")
    if not np.all(np.isfinite(pts)):
        raise InvalidInputError("empirical measure points must be finite")
    return EmpiricalMeasure(pts)


@dataclass(frozen=True)
class AssumptionMeta:
    """Declared constants the validator probes against.

    Only the fields relevant to the model class need to be set; unset
    fields make the corresponding check indeterminate.
    """

    lipschitz_drift: float | None = None
    lipschitz_diffusion: float | None = None
    lipschitz_jump_l1: float | None = None
    rate_gamma: float | None = None          # envelope b' <= gamma*b + c
    rate_c: float | None = None
    rate_margin_factor: float = 5.0          # admissibility: factor*gamma*E||V|| < 1
    mean_collateral_norm: float | None = None  # E||V||
    rate_global_bound: float | None = None   # sup lambda if finite
    rate_radial: Callable[[np.ndarray], np.ndarray] | None = None  # b(r)
    potential_grad: Callable[[np.ndarray], np.ndarray] | None = None
    interaction: Callable[[np.ndarray, EmpiricalMeasure], np.ndarray] | None = None
    interaction_bound: float | None = None


@dataclass(frozen=True)
class ModelSpec:
    """One model instance: coefficients, dimensions, class tag, metadata.

    Coefficient contracts (all pure, shareable across workers):

    - ``drift(x, m) -> (n, d)`` for x of shape (n, d)
    - ``diffusion(x, m) -> (n, d, d1)`` (or broadcastable to it)
    - ``rate(x, m) -> (n,)`` nonnegative
    - ``main_jump(x, m, h1) -> (n, d)`` with h1 of shape (n,)
    - ``collateral_jump(xj, targets, m, h1, h2) -> (n, d)`` with xj the
      jumper's point (d,), h1 scalar or (n,), h2 of shape (n,)

    ``collateral_mean`` declares E over marks of the collateral amplitude:
    None means identically zero, an array means a constant vector, and a
    callable ``(jumpers (k, d), targets (n, d), m) -> (k, n, d)`` covers the
    general case.  ``main_jump_mean(x, m) -> (n, d)`` is the optional
    closed-form mark mean of the main jump.
    """

    drift: Callable
    diffusion: Callable
    rate: Callable
    main_jump: Callable
    collateral_jump: Callable
    dim: int
    brownian_dim: int
    class_tag: str
    meta: AssumptionMeta = field(default_factory=AssumptionMeta)
    collateral_mean: object = None
    main_jump_mean: Callable | None = None
    exact_linear_ok: bool = False

    def __post_init__(self):
        if self.class_tag not in ("lipschitz", "convex_potential", "superlinear_rate"):
            raise InvalidInputError(f"unknown class_tag {self.class_tag!r}")
        if not self.meta.rate_margin_factor > 0:
            raise InvalidInputError(f"rate_margin_factor must be positive, got {self.meta.rate_margin_factor!r}")
        if self.class_tag == "superlinear_rate":
            g = self.meta.rate_gamma
            ev = self.meta.mean_collateral_norm
            if g is None or ev is None:
                raise InvalidInputError("superlinear_rate models must declare rate_gamma and E||V||")
            if not ev >= 0:
                raise InvalidInputError(f"superlinear_rate models need E||V|| >= 0, got {ev:.6g}")
            k = self.meta.rate_margin_factor
            if not k * g * ev < 1.0:
                raise InvalidInputError(
                    f"rate envelope inadmissible: {k:g} * gamma * E||V|| = {k * g * ev:.6g} >= 1"
                )

    def has_diffusion(self) -> bool:
        return self.brownian_dim > 0

    def collateral_mean_kind(self) -> str:
        if self.collateral_mean is None:
            return "zero"
        if callable(self.collateral_mean):
            return "general"
        return "constant"


def collateral_drift(
    spec: ModelSpec, targets: np.ndarray, mu: EmpiricalMeasure, lam_mean: float | None = None
) -> np.ndarray | None:
    """Collateral jumps absorbed into drift: < mu, rate(.) * E_marks[Theta(., x)] >.

    One row per target x, shape ``targets.shape``.  ``lam_mean``, when
    given, stands in for < mu, rate > under a constant mark mean (the
    limit's recorded, possibly truncated, rate summary).  Returns None
    when the collateral mark mean is zero.
    """
    kind = spec.collateral_mean_kind()
    if kind == "zero":
        return None
    if kind == "constant":
        if lam_mean is None:
            lam_mean = float(np.mean(np.asarray(spec.rate(mu.points, mu), dtype=np.float64)))
        ev = np.asarray(spec.collateral_mean, dtype=np.float64)
        return np.broadcast_to(lam_mean * ev, targets.shape).copy()
    lam = np.asarray(spec.rate(mu.points, mu), dtype=np.float64)
    cm = np.asarray(spec.collateral_mean(mu.points, targets, mu))  # (K, n, d)
    return np.mean(lam[:, None, None] * cm, axis=0)


PROBE_RADIUS = 3.0  # probe points and measure atoms are uniform on [-R, R]^d
PROBE_ATOMS = 8  # atoms per probe measure
PROBE_MARK_DRAWS = 64  # mark draws averaged by the main-jump L1 probe
FD_STEP = 1e-5  # finite-difference step of the rate-envelope check
REL_TOL = 0.05  # relative slack allowed over a declared constant


@dataclass(frozen=True)
class ProbeConfig:
    budget: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.budget < 1:  # a report with no probes would read "pass" on no evidence
            raise InvalidInputError(f"probe budget must be at least 1, got {self.budget}")


@dataclass(frozen=True)
class ConditionResult:
    name: str
    verdict: str  # pass | fail | indeterminate
    estimate: float | None = None
    declared: float | None = None
    witness: dict | None = None
    note: str = ""


@dataclass(frozen=True)
class AssumptionReport:
    model_class: str
    conditions: tuple[ConditionResult, ...]
    probe_budget: int

    @property
    def verdict(self) -> str:
        verdicts = [c.verdict for c in self.conditions]
        if "fail" in verdicts:
            return "fail"
        if "indeterminate" in verdicts:
            return "indeterminate"
        return "pass"

    def summary(self) -> str:
        lines = [f"model class: {self.model_class}  overall: {self.verdict}"]
        for c in self.conditions:
            line = f"  [{c.verdict:>13}] {c.name}"
            if c.estimate is not None:
                line += f"  estimate={c.estimate:.6g}"
            if c.declared is not None:
                line += f"  declared={c.declared:.6g}"
            if c.note:
                line += f"  ({c.note})"
            lines.append(line)
            if c.witness:
                lines.append(f"        witness: {c.witness}")
        return "\n".join(lines)


def _probe_stream(probe: ProbeConfig, channel: int) -> StreamState:
    return StreamState(StreamKey(probe.seed, PROBE_REPLICA, channel, "init").hash64())


def _probe_draws(dim: int, probe: ProbeConfig, channel: int, points: int, measures: int):
    """All probes of one condition from one draw of its channel's stream.

    Probe b takes ``points`` points, then ``measures`` measures of
    PROBE_ATOMS atoms, from the stream in that order, so the probes at
    budget B' <= B are a prefix of those at budget B for the same seed.
    Returns points (budget, points, d) and atoms (budget, measures, PROBE_ATOMS, d).
    """
    width = (points + measures * PROBE_ATOMS) * dim
    u = PROBE_RADIUS * (2.0 * _probe_stream(probe, channel).uniforms(probe.budget * width) - 1.0)
    u = u.reshape(probe.budget, width)
    split = points * dim
    return u[:, :split].reshape(probe.budget, points, dim), u[:, split:].reshape(probe.budget, measures, PROBE_ATOMS, dim)


def _jump_l1_gap(spec: ModelSpec, x, y, mx, my, marks) -> float:
    """L1 gap of the thinned main-jump kernel between states (x, mx), (y, my).

    The u-integral of ||psi_x 1_{u<=lam_x} - psi_y 1_{u<=lam_y}|| collapses
    to min(lam) * ||psi_x - psi_y|| + |lam_x - lam_y| * ||psi of the larger
    rate||; the mark integral is averaged over the probe's mark draws.
    """
    lx = float(spec.rate(x[None, :], mx)[0])
    ly = float(spec.rate(y[None, :], my)[0])
    m = len(marks)
    px = spec.main_jump(np.tile(x, (m, 1)), mx, marks)
    py = spec.main_jump(np.tile(y, (m, 1)), my, marks)
    common = min(lx, ly) * np.linalg.norm(px - py, axis=1)
    big = px if lx >= ly else py
    excess = abs(lx - ly) * np.linalg.norm(big, axis=1)
    return float(np.mean(common + excess))


def validate_model(spec: ModelSpec, probe: ProbeConfig | None = None) -> AssumptionReport:
    """Probe the declared assumptions of a model over sampled states.

    Verdicts are evidence, not proofs: conditions quantified over all
    probability measures are only checked on empirical measures inside the
    probe radius, and the report notes this restriction.
    """
    probe = probe or ProbeConfig()
    conditions: list[ConditionResult] = []
    tol = 1.0 + REL_TOL
    channels = itertools.count()  # stream channels in report order; the main-jump marks take their own
    quantifier_note = "probed over empirical measures within the probe radius only"

    def probes(points, measures):
        """(b, *points, *measures) per probe, drawn from the next channel now."""
        pts, atoms = _probe_draws(spec.dim, probe, next(channels), points, measures)
        return ((b, *pts[b], *map(EmpiricalMeasure, atoms[b])) for b in range(probe.budget))

    def first_witness_fails(name, witnesses, note=""):
        witness = next(filter(None, witnesses), None)
        return ConditionResult(name, "fail" if witness else "pass", witness=witness, note=note)

    def within_declared(name, worst, declared, witness, note):
        """Pass when the worst probe is within REL_TOL of the declared constant; a fail names its witness."""
        ok = worst <= declared * tol + 1e-12
        return ConditionResult(name, "pass" if ok else "fail", estimate=worst, declared=declared,
                               witness=None if ok else witness, note=note)

    def run_pairs(fn, name, declared):
        worst, witness = 0.0, None
        for b, x, y, mx, my in probes(2, 2):
            den = float(np.linalg.norm(x - y)) + w1_assignment(mx.points, my.points)
            if den < 1e-9:
                continue
            try:
                q = fn(x, y, mx, my) / den
                failure = None if np.isfinite(q) else "non-finite quotient"
            except Exception as exc:  # noqa: BLE001 - coefficient failures -> indeterminate
                failure = f"coefficient evaluation failed: {exc}"
            if failure:
                return ConditionResult(name, "indeterminate", note=failure, witness={"x": x.tolist(), "y": y.tolist()})
            if q > worst:
                worst = q
                witness = {"x": x.tolist(), "y": y.tolist(), "quotient": q, "probe_index": b}
        if declared is None:
            return ConditionResult(name, "indeterminate", estimate=worst, note="no declared constant")
        return within_declared(name, worst, declared, witness, quantifier_note)

    # rate nonnegativity, every class
    def negative_rate(b, x, m):
        lam = float(spec.rate(x[None, :], m)[0])
        return None if np.isfinite(lam) and lam >= 0 else {"x": x.tolist(), "rate": lam}

    conditions.append(first_witness_fails("rate-nonnegative", (negative_rate(*p) for p in probes(1, 1))))

    if spec.class_tag == "lipschitz":
        conditions.append(
            run_pairs(
                lambda x, y, mx, my: float(
                    np.linalg.norm(spec.drift(x[None, :], mx)[0] - spec.drift(y[None, :], my)[0])
                ),
                "drift-lipschitz",
                spec.meta.lipschitz_drift,
            )
        )

    if spec.class_tag == "convex_potential":
        grad = spec.meta.potential_grad
        if grad is None:
            conditions.append(
                ConditionResult("potential-monotone", "indeterminate", note="no potential gradient declared")
            )
        else:
            def non_monotone(b, x, y):
                g = float(np.dot(x - y, grad(x[None, :])[0] - grad(y[None, :])[0]))
                if g < -1e-9 * (1.0 + float(np.linalg.norm(x - y)) ** 2):
                    return {"x": x.tolist(), "y": y.tolist(), "inner": g, "probe_index": b}
                return None

            conditions.append(
                first_witness_fails("potential-monotone", (non_monotone(*p) for p in probes(2, 0)), quantifier_note)
            )
        inter = spec.meta.interaction
        if inter is None or spec.meta.interaction_bound is None:
            conditions.append(
                ConditionResult(
                    "interaction-bounded", "indeterminate",
                    note="boundedness over all measures cannot be probed; no declared interaction",
                )
            )
        else:
            sup, witness = 0.0, None
            for b, x, m in probes(1, 1):
                v = float(np.max(np.abs(inter(x[None, :], m)[0])))
                if v > sup:
                    sup = v
                    witness = {"x": x.tolist(), "value": v, "probe_index": b}
            conditions.append(within_declared(
                "interaction-bounded", sup, spec.meta.interaction_bound, witness,
                "boundedness over all measures probed on empirical measures only",
            ))

    if spec.class_tag in ("lipschitz", "convex_potential"):
        conditions.append(
            run_pairs(
                lambda x, y, mx, my: float(
                    np.linalg.norm(
                        np.asarray(spec.diffusion(x[None, :], mx))
                        - np.asarray(spec.diffusion(y[None, :], my))
                    )
                ),
                "diffusion-lipschitz",
                spec.meta.lipschitz_diffusion,
            )
        )
        marks = _probe_stream(probe, next(channels)).uniforms(PROBE_MARK_DRAWS)
        conditions.append(
            run_pairs(
                lambda x, y, mx, my: _jump_l1_gap(spec, x, y, mx, my, marks),
                "main-jump-l1-lipschitz",
                spec.meta.lipschitz_jump_l1,
            )
        )

        def collateral_gap(x, y, mx, my):
            gx = collateral_drift(spec, x[None, :], mx)
            return 0.0 if gx is None else float(np.linalg.norm(gx - collateral_drift(spec, y[None, :], my)))

        conditions.append(
            run_pairs(collateral_gap, "collateral-field-l1-lipschitz", spec.meta.lipschitz_jump_l1)
        )

    if spec.class_tag == "superlinear_rate":
        g, ev = spec.meta.rate_gamma, spec.meta.mean_collateral_norm
        k = spec.meta.rate_margin_factor
        margin = k * g * ev
        note = f"exact arithmetic check of {k:g} * gamma * E||V|| < 1"
        if k < 5.0:
            note += " (weakened margin factor; the supported constraint uses 5)"
        conditions.append(
            ConditionResult(
                "collateral-margin", "pass" if margin < 1.0 else "fail",
                estimate=margin, declared=1.0, note=note,
            )
        )
        b = spec.meta.rate_radial
        c = spec.meta.rate_c
        if b is None or c is None:
            conditions.append(
                ConditionResult("rate-envelope", "indeterminate", note="no radial rate declared")
            )
        else:
            rs = np.logspace(-3, 3, 61)
            eps = FD_STEP
            db = (np.asarray(b(rs + eps)) - np.asarray(b(np.maximum(rs - eps, 0.0)))) / (
                rs + eps - np.maximum(rs - eps, 0.0)
            )
            rhs = g * np.asarray(b(rs)) + c
            slack = db - rhs
            fd_tol = 1e-6 * (1.0 + np.abs(rhs))
            bad = np.flatnonzero(slack > fd_tol)
            note = "finite-difference b' vs gamma*b + c on log-spaced radii"
            if bad.size:
                i = int(bad[np.argmax(slack[bad])])
                conditions.append(
                    ConditionResult(
                        "rate-envelope", "fail", estimate=float(db[i]), declared=float(rhs[i]),
                        witness={"r": float(rs[i]), "b_prime": float(db[i]), "gamma_b_plus_c": float(rhs[i])},
                        note=note,
                    )
                )
            else:
                conditions.append(ConditionResult("rate-envelope", "pass", estimate=float(np.max(slack)), note=note))

    return AssumptionReport(
        model_class=spec.class_tag,
        conditions=tuple(conditions),
        probe_budget=probe.budget,
    )
