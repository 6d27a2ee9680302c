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

The first two are the capped-jump families: they share one parameter
base with one check (nonnegative rate, diffusion and kick parameters,
``jump_scale`` in [0, 1]) and one builder of everything but the drift.
The neuronal margin 5 * gamma * E||V|| < 1 is checked by ``ModelSpec``.

Default parameters are sized so desk-scale runs (N <= 1024, T <= 5) finish
in minutes.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, asdict

import numpy as np

from .drivers import InvalidInputError, _finite, _integer, _number
from .models import AssumptionMeta, EmpiricalMeasure, ModelSpec


def _radius(x: np.ndarray) -> np.ndarray:
    """Row norms with the bits of ``np.linalg.norm(x, axis=-1)``; in d=1 it skips the length-1 sum, which returns its element."""
    sq = x * x
    return np.sqrt(sq[..., 0] if x.shape[-1] == 1 else np.add.reduce(sq, axis=-1))


def _as_rows(col: np.ndarray, d: int) -> np.ndarray:
    """An (n, 1) kick column as the (n, d) collateral amplitude; in d=1 it already is one."""
    return col if d == 1 else np.broadcast_to(col, (col.shape[0], d))


@dataclass(frozen=True)
class _CappedJumpParams:
    """Parameters shared by the two capped-jump families."""

    dim: int = 1
    interaction: float = 0.5         # pull toward the empirical mean (theta in theta * tanh(mean - x))
    sigma0: float = 0.4
    rate_base: float = 1.0           # lambda0
    rate_slope: float = 0.5          # lambda1
    rate_cap_radius: float = 2.0     # R in lambda = lambda0 + lambda1 * min(||x||, R)
    jump_scale: float = 0.3          # beta in psi = -beta * x * h1
    collateral_amp: float = 0.4      # v0 in Theta = v0 * (2 h2 - 1) * ones

    def __post_init__(self):
        for name in ("sigma0", "rate_base", "rate_slope", "rate_cap_radius", "collateral_amp"):
            if not getattr(self, name) >= 0:
                raise InvalidInputError(f"{name} must be nonnegative, got {getattr(self, name)!r}")
        if not 0.0 <= self.jump_scale <= 1.0:
            raise InvalidInputError(f"jump_scale must lie in [0, 1], got {self.jump_scale!r}")


def _capped_jump_model(p: _CappedJumpParams, drift, class_tag: str, **meta) -> ModelSpec:
    """A family's drift with the shared coefficients: diffusion sigma0 * I,
    the capped-linear rate, main jump -beta * x * h1 and mean-zero kicks."""
    d = p.dim
    sig = p.sigma0 * np.eye(d)
    sig_rows = functools.lru_cache(maxsize=8)(lambda n: np.broadcast_to(sig, (n, d, d)))  # read-only views

    def diffusion(x, m):
        return sig_rows(x.shape[0])

    def rate(x, m):
        if x.shape == (1, 1):  # one d=1 row in Python floats; np.minimum returns its second argument on a tie
            r, cap = math.sqrt(x.item(0) * x.item(0)), p.rate_cap_radius
            return [p.rate_base + p.rate_slope * (r if r < cap or r != r else cap)]
        return p.rate_base + p.rate_slope * np.minimum(_radius(x), p.rate_cap_radius)

    def main_jump(x, m, h1):
        if x.shape == (1, 1):
            return [[-p.jump_scale * x.item(0) * float(h1[0])]]
        return -p.jump_scale * x * np.asarray(h1, dtype=np.float64)[:, None]

    def collateral_jump(xj, targets, m, h1, h2):
        return _as_rows(p.collateral_amp * (2.0 * np.asarray(h2, dtype=np.float64)[:, None] - 1.0), d)

    def main_jump_mean(x, m):
        return -0.5 * p.jump_scale * x

    rate_max = p.rate_base + p.rate_slope * p.rate_cap_radius
    return ModelSpec(
        drift=drift,
        diffusion=diffusion,
        rate=rate,
        main_jump=main_jump,
        collateral_jump=collateral_jump,
        dim=d,
        brownian_dim=d if p.sigma0 > 0 else 0,
        class_tag=class_tag,
        meta=AssumptionMeta(
            lipschitz_diffusion=0.0,
            # thinned-jump L1 constant on the probe domain (radius 3):
            # rate_max * beta * E[h] + rate_slope * beta * E[h] * radius
            lipschitz_jump_l1=0.5 * p.jump_scale * (rate_max + 3.0 * p.rate_slope) + p.rate_slope * p.collateral_amp * math.sqrt(d),
            rate_global_bound=rate_max,
            mean_collateral_norm=0.5 * p.collateral_amp * math.sqrt(d),
            **meta,
        ),
        collateral_mean=None,  # E[2 h2 - 1] = 0
        main_jump_mean=main_jump_mean,
    )


@dataclass(frozen=True)
class LipschitzDemoParams(_CappedJumpParams):
    mean_reversion: float = 1.0      # a >= 0

    def __post_init__(self):
        super().__post_init__()
        if not self.mean_reversion >= 0:
            raise InvalidInputError(f"mean_reversion must be nonnegative, got {self.mean_reversion!r}")


def build_lipschitz_demo(p: LipschitzDemoParams) -> ModelSpec:
    def drift(x, m: EmpiricalMeasure):
        return -p.mean_reversion * x + p.interaction * (m.mean - x)

    return _capped_jump_model(p, drift, "lipschitz", lipschitz_drift=p.mean_reversion + p.interaction)


@dataclass(frozen=True)
class ConvexPotentialParams(_CappedJumpParams):
    sigma0: float = 0.3
    exponent: int = 2                # m >= 1 in U(x) = sum |x_k|^(2m) / (2m)

    def __post_init__(self):
        super().__post_init__()
        if not self.exponent >= 1:
            raise InvalidInputError(f"exponent must be >= 1, got {self.exponent!r}")


def build_convex_potential(p: ConvexPotentialParams) -> ModelSpec:
    power = 2 * p.exponent - 1

    def grad_potential(x):
        return np.sign(x) * np.abs(x) ** power

    def interaction(x, m: EmpiricalMeasure):
        return p.interaction * np.tanh(m.mean - x)

    def drift(x, m):
        return -grad_potential(x) + interaction(x, m)

    return _capped_jump_model(
        p, drift, "convex_potential",
        potential_grad=grad_potential, interaction=interaction, interaction_bound=p.interaction,
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
    c = derive_envelope_c(p.rate_exponent, p.rate_gamma)

    def b_radial(r):
        return np.asarray(r, dtype=np.float64) ** p.rate_exponent

    def drift(x, m):
        return -x

    def diffusion(x, m):
        return np.zeros((x.shape[0], d, 0))

    def rate(x, m):
        # one d=1 row in Python floats; at alpha 2 numpy's array power is np.square, so r * r has its bits;
        # other alphas keep numpy's array loop: libm's pow (Python's r ** alpha) differs in some last bits
        if x.shape == (1, 1):
            r = math.sqrt(x.item(0) * x.item(0))
            return [(r * r if p.rate_exponent == 2.0 else b_radial(np.array([r])).item(0)) + p.rate_offset]
        return b_radial(_radius(x)) + p.rate_offset

    def main_jump(x, m, h1):
        # reset: x + psi = U(h1) in [0, u_max]^d
        if x.shape == (1, 1):
            return [[p.reset_max * float(h1[0]) - x.item(0)]]
        return p.reset_max * np.asarray(h1, dtype=np.float64)[:, None] - x

    def collateral_jump(xj, targets, m, h1, h2):
        return _as_rows(p.collateral_amp * np.asarray(h2, dtype=np.float64)[:, None], d)

    def main_jump_mean(x, m):
        return 0.5 * p.reset_max - x

    meta = AssumptionMeta(
        rate_gamma=p.rate_gamma,
        rate_c=c,
        rate_margin_factor=p.margin_factor,
        mean_collateral_norm=0.5 * p.collateral_amp * math.sqrt(d),
        rate_radial=b_radial,
    )
    spec = ModelSpec(
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
    if p.margin_factor < 5.0:  # only a factor and margin that ModelSpec accepted
        warnings.warn(
            f"margin_factor {p.margin_factor:g} is weaker than the supported factor 5; "
            "moment and jump-count bounds are no longer guaranteed",
            stacklevel=2,
        )
    return spec


MAX_DIM = 1024  # the largest dim a model builds with; its d x d diffusion matrix is 8 MB there

# id -> (parameter type, builder)
_FAMILIES = {
    "lipschitz-demo": (LipschitzDemoParams, build_lipschitz_demo),
    "convex-potential": (ConvexPotentialParams, build_convex_potential),
    "neuronal": (NeuronalParams, build_neuronal),
}


def model_ids() -> list[str]:
    return sorted(_FAMILIES)


def _family(model_id: str):
    if model_id not in _FAMILIES:
        raise InvalidInputError(f"unknown model id {model_id!r}; known: {model_ids()}")
    return _FAMILIES[model_id]


def default_params(model_id: str) -> dict:
    return asdict(_family(model_id)[0]())


def build(model_id: str, params: dict | None = None) -> ModelSpec:
    """Build a zoo model from its id and a (possibly partial) parameter dict."""
    ptype, builder = _family(model_id)
    params = dict(params or {})
    unknown = set(params) - set(ptype.__dataclass_fields__)
    if unknown:
        raise InvalidInputError(f"unknown parameters for {model_id}: {sorted(unknown)}")
    for name, value in params.items():
        if name != "dim" and not _number(value):
            raise InvalidInputError(f"{name} must be a number, got {value!r}")
        if name != "dim" and not _finite(value):
            raise InvalidInputError(f"{name} must be finite, got {value}")
    p = ptype(**params)
    if not (_integer(p.dim) and 1 <= p.dim <= MAX_DIM):
        raise InvalidInputError(f"dim must be an integer >= 1 and <= {MAX_DIM}, got {p.dim!r}")
    return builder(p)
