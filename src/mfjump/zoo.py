"""Built-in model families.

Three families, selectable by string id:

- ``lipschitz-demo``: mean reversion plus attraction to the empirical
  mean, constant diffusion, capped-linear jump rate, multiplicative main
  jump, mean-zero collateral kicks.
- ``convex-potential``: drift is minus the gradient of an even-power
  convex potential plus a bounded tanh interaction; jumps as in the demo.
- ``neuronal``: pull to the origin, no diffusion, superlinear radial rate
  b(r) = r**alpha plus a constant bounded term, main jump resets the state
  into [0, u_max]^d, collateral kicks of bounded random amplitude.

Default parameters are sized so desk-scale runs (N <= 1024, T <= 5) finish
in minutes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, asdict

import numpy as np

from .drivers import InvalidInputError
from .models import AssumptionMeta, EmpiricalMeasure, ModelSpec


def _as_rows(col: np.ndarray, d: int) -> np.ndarray:
    """An (n, 1) kick column as the (n, d) collateral amplitude; in d=1 it already is one."""
    return col if d == 1 else np.broadcast_to(col, (col.shape[0], d))


@dataclass(frozen=True)
class LipschitzDemoParams:
    dim: int = 1
    mean_reversion: float = 1.0      # a >= 0
    interaction: float = 0.5         # pull toward the empirical mean
    sigma0: float = 0.4
    rate_base: float = 1.0           # lambda0
    rate_slope: float = 0.5          # lambda1
    rate_cap_radius: float = 2.0     # R in lambda = lambda0 + lambda1 * min(||x||, R)
    jump_scale: float = 0.3          # beta in psi = -beta * x * h1
    collateral_amp: float = 0.4      # v0 in Theta = v0 * (2 h2 - 1) * ones

    def __post_init__(self):
        if self.mean_reversion < 0 or self.sigma0 < 0 or self.rate_base < 0 or self.rate_slope < 0:
            raise InvalidInputError("demo parameters must be nonnegative")
        if not 0.0 <= self.jump_scale <= 1.0:
            raise InvalidInputError("jump_scale must lie in [0, 1]")


def build_lipschitz_demo(params: LipschitzDemoParams) -> ModelSpec:
    p = params
    d = p.dim
    sig = p.sigma0 * np.eye(d)

    def drift(x, m: EmpiricalMeasure):
        return -p.mean_reversion * x + p.interaction * (m.mean - x)

    def diffusion(x, m):
        return np.broadcast_to(sig, (x.shape[0], d, d))

    def rate(x, m):
        r = np.sqrt(np.add.reduce(x * x, axis=-1))
        return p.rate_base + p.rate_slope * np.minimum(r, p.rate_cap_radius)

    def main_jump(x, m, h1):
        return -p.jump_scale * x * np.asarray(h1, dtype=np.float64)[:, None]

    def collateral_jump(xj, targets, m, h1, h2):
        return _as_rows(p.collateral_amp * (2.0 * np.asarray(h2, dtype=np.float64)[:, None] - 1.0), d)

    def main_jump_mean(x, m):
        return -0.5 * p.jump_scale * x

    rate_max = p.rate_base + p.rate_slope * p.rate_cap_radius
    meta = AssumptionMeta(
        lipschitz_drift=p.mean_reversion + p.interaction,
        lipschitz_diffusion=0.0,
        # thinned-jump L1 constant on the probe domain (radius 3):
        # rate_max * beta * E[h] + rate_slope * beta * E[h] * radius
        lipschitz_jump_l1=0.5 * p.jump_scale * (rate_max + 3.0 * p.rate_slope) + p.rate_slope * p.collateral_amp * math.sqrt(d),
        rate_global_bound=rate_max,
        mean_collateral_norm=0.5 * p.collateral_amp * math.sqrt(d),
    )
    return ModelSpec(
        drift=drift,
        diffusion=diffusion,
        rate=rate,
        main_jump=main_jump,
        collateral_jump=collateral_jump,
        dim=d,
        brownian_dim=d if p.sigma0 > 0 else 0,
        class_tag="lipschitz",
        meta=meta,
        collateral_mean=None,  # E[2 h2 - 1] = 0
        main_jump_mean=main_jump_mean,
    )


@dataclass(frozen=True)
class ConvexPotentialParams:
    dim: int = 1
    exponent: int = 2                # m >= 1 in U(x) = sum |x_k|^(2m) / (2m)
    interaction: float = 0.5         # theta in b = theta * tanh(mean - x)
    sigma0: float = 0.3
    rate_base: float = 1.0
    rate_slope: float = 0.5
    rate_cap_radius: float = 2.0
    jump_scale: float = 0.3
    collateral_amp: float = 0.4

    def __post_init__(self):
        if self.exponent < 1:
            raise InvalidInputError("exponent must be >= 1")


def build_convex_potential(params: ConvexPotentialParams) -> ModelSpec:
    p = params
    d = p.dim
    power = 2 * p.exponent - 1
    sig = p.sigma0 * np.eye(d)

    def grad_potential(x):
        return np.sign(x) * np.abs(x) ** power

    def interaction(x, m: EmpiricalMeasure):
        return p.interaction * np.tanh(m.mean - x)

    def drift(x, m):
        return -grad_potential(x) + interaction(x, m)

    def diffusion(x, m):
        return np.broadcast_to(sig, (x.shape[0], d, d))

    def rate(x, m):
        r = np.sqrt(np.add.reduce(x * x, axis=-1))
        return p.rate_base + p.rate_slope * np.minimum(r, p.rate_cap_radius)

    def main_jump(x, m, h1):
        return -p.jump_scale * x * np.asarray(h1, dtype=np.float64)[:, None]

    def collateral_jump(xj, targets, m, h1, h2):
        return _as_rows(p.collateral_amp * (2.0 * np.asarray(h2, dtype=np.float64)[:, None] - 1.0), d)

    def main_jump_mean(x, m):
        return -0.5 * p.jump_scale * x

    rate_max = p.rate_base + p.rate_slope * p.rate_cap_radius
    meta = AssumptionMeta(
        lipschitz_diffusion=0.0,
        lipschitz_jump_l1=0.5 * p.jump_scale * (rate_max + 3.0 * p.rate_slope) + p.rate_slope * p.collateral_amp * math.sqrt(d),
        rate_global_bound=rate_max,
        mean_collateral_norm=0.5 * p.collateral_amp * math.sqrt(d),
        potential_grad=grad_potential,
        interaction=interaction,
        interaction_bound=p.interaction,
    )
    return ModelSpec(
        drift=drift,
        diffusion=diffusion,
        rate=rate,
        main_jump=main_jump,
        collateral_jump=collateral_jump,
        dim=d,
        brownian_dim=d if p.sigma0 > 0 else 0,
        class_tag="convex_potential",
        meta=meta,
        collateral_mean=None,
        main_jump_mean=main_jump_mean,
    )


@dataclass(frozen=True)
class NeuronalParams:
    dim: int = 1
    rate_exponent: float = 2.0       # alpha in b(r) = r**alpha, alpha >= 1
    rate_gamma: float = 0.2          # user's gamma; c is derived
    rate_offset: float = 0.5         # constant bounded part of the rate
    reset_max: float = 1.0           # u_max: main jump resets into [0, u_max]^d
    collateral_amp: float = 0.5      # V = amp * h2 * ones(d)
    margin_factor: float = 5.0       # advanced override; below 5 weakens the admissibility margin

    def __post_init__(self):
        if self.rate_exponent < 1:
            raise InvalidInputError("rate_exponent must be >= 1")
        if self.rate_gamma <= 0:
            raise InvalidInputError("rate_gamma must be positive")


def derive_envelope_c(alpha: float, gamma: float) -> float:
    """Smallest c with alpha * r**(alpha-1) <= gamma * r**alpha + c on r > 0.

    The gap alpha*r**(a-1) - gamma*r**a is maximized at r = (alpha-1)/gamma,
    where it equals ((alpha-1)/gamma)**(alpha-1); for alpha = 1 the supremum
    is 1 (approached as r -> 0).
    """
    if alpha == 1.0:
        return 1.0
    return float(((alpha - 1.0) / gamma) ** (alpha - 1.0))


def build_neuronal(params: NeuronalParams) -> ModelSpec:
    p = params
    d = p.dim
    e_v_norm = 0.5 * p.collateral_amp * math.sqrt(d)
    margin = p.margin_factor * p.rate_gamma * e_v_norm
    if margin >= 1.0:
        raise InvalidInputError(
            f"inadmissible rate envelope: {p.margin_factor:g} * gamma * E||V|| = {margin:.6g} >= 1"
        )
    if p.margin_factor < 5.0:
        warnings.warn(
            f"margin_factor {p.margin_factor:g} is weaker than the supported factor 5; "
            "moment and jump-count bounds are no longer guaranteed",
            stacklevel=2,
        )
    c = derive_envelope_c(p.rate_exponent, p.rate_gamma)

    def b_radial(r):
        return np.asarray(r, dtype=np.float64) ** p.rate_exponent

    def drift(x, m):
        return -x

    def diffusion(x, m):
        return np.zeros((x.shape[0], d, 0))

    def rate(x, m):
        r = np.sqrt(np.add.reduce(x * x, axis=-1))
        return b_radial(r) + p.rate_offset

    def main_jump(x, m, h1):
        # reset: x + psi = U(h1) in [0, u_max]^d
        return p.reset_max * np.asarray(h1, dtype=np.float64)[:, None] * np.ones((x.shape[0], d)) - x

    def collateral_jump(xj, targets, m, h1, h2):
        return _as_rows(p.collateral_amp * np.asarray(h2, dtype=np.float64)[:, None], d)

    def main_jump_mean(x, m):
        return 0.5 * p.reset_max * np.ones_like(x) - x

    meta = AssumptionMeta(
        rate_gamma=p.rate_gamma,
        rate_c=c,
        rate_h_bound=p.rate_offset,
        rate_margin_factor=p.margin_factor,
        mean_collateral_norm=e_v_norm,
        rate_radial=b_radial,
    )
    return ModelSpec(
        drift=drift,
        diffusion=diffusion,
        rate=rate,
        main_jump=main_jump,
        collateral_jump=collateral_jump,
        dim=d,
        brownian_dim=0,
        class_tag="superlinear_rate",
        meta=meta,
        collateral_mean=0.5 * p.collateral_amp * np.ones(d),  # E[V]
        main_jump_mean=main_jump_mean,
        exact_linear_ok=True,
    )


PARAM_TYPES = {
    "lipschitz-demo": LipschitzDemoParams,
    "convex-potential": ConvexPotentialParams,
    "neuronal": NeuronalParams,
}

_BUILDERS = {
    "lipschitz-demo": build_lipschitz_demo,
    "convex-potential": build_convex_potential,
    "neuronal": build_neuronal,
}


def model_ids() -> list[str]:
    return sorted(_BUILDERS)


def default_params(model_id: str) -> dict:
    if model_id not in PARAM_TYPES:
        raise InvalidInputError(f"unknown model id {model_id!r}; known: {model_ids()}")
    return asdict(PARAM_TYPES[model_id]())


def build(model_id: str, params: dict | None = None) -> ModelSpec:
    """Build a zoo model from its id and a (possibly partial) parameter dict."""
    if model_id not in _BUILDERS:
        raise InvalidInputError(f"unknown model id {model_id!r}; known: {model_ids()}")
    ptype = PARAM_TYPES[model_id]
    params = dict(params or {})
    known = set(ptype.__dataclass_fields__)
    unknown = set(params) - known
    if unknown:
        raise InvalidInputError(f"unknown parameters for {model_id}: {sorted(unknown)}")
    return _BUILDERS[model_id](ptype(**params))
