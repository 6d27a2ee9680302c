"""Generator of the N-particle system and a replicated one-step weak-error estimator.

The pair behind acceptance criterion 4: the residual
``|(E[phi(X_h)] - phi(x0)) / h - L phi(x0)|`` must decay with h.  The
estimator vectorizes one step of the library's scheme over independent
replicas, each addressed exactly like a solo run with that replica id, so
its positions are checked against one-cell ``simulate`` runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mfjump.drivers import (
    DriverBundle,
    InvalidInputError,
    StreamKey,
    StreamState,
    collect_candidates,
    marks_uniforms_batch,
)
from mfjump.limit import _event_rounds
from mfjump.models import EmpiricalMeasure, ModelSpec, make_empirical
from mfjump.particle import RateBoundViolation

# replica namespace of the generator's mark streams, next to the library's
# reserved PICARD_REPLICA, PROBE_REPLICA and SUBSAMPLE_REPLICA
WEAK_TEST_REPLICA = (1 << 40) + 2


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
    return_positions: bool = False,
) -> WeakStepEstimate | np.ndarray:
    """Monte Carlo estimate of E[phi(X_h)] from state x0, replicated.

    Vectorizes the one-step scheme over independent replicas; each replica
    is a full N-particle copy with its own streams, addressed exactly like
    a solo run with that replica id.  Requires a declared global rate bound,
    coefficients that use the measure only through its mean, a linear phi
    and declared mark means.

    The first-order jump and Brownian contributions evaluated at the frozen
    start state are subtracted sample by sample as a control variate and
    their exact expectations added back, which removes the O(sqrt(lam h) +
    sigma sqrt(h)) noise and leaves only the second-order fluctuation.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    n, d = x0.shape
    cap = spec.meta.rate_global_bound
    if cap is None:
        raise InvalidInputError("replicated estimator needs a declared global rate bound")
    if cap * h > 4.0:
        raise InvalidInputError("step too large for single-sub-step estimation")
    base = replica_base if replica_base is not None else (1 << 41)
    if not (phi.is_linear and spec.main_jump_mean is not None and spec.collateral_mean_kind() != "general"):
        raise InvalidInputError("control variates need a linear phi and declared mark means")

    mu0 = make_empirical(x0)
    lam0 = np.asarray(spec.rate(x0, mu0), dtype=np.float64)
    grad0 = np.asarray(phi.grad(x0), dtype=np.float64)
    cv_mean = h * _jump_term_closed(spec, grad0, x0, mu0, lam0)
    gsig0 = None
    if spec.has_diffusion():
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

        if len(crow):
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
