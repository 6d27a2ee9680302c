import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfjump.drivers import InvalidInputError, StreamKey, StreamState
from mfjump.limit import FlowApproximation
from mfjump.models import (
    AssumptionMeta,
    EmpiricalMeasure,
    ModelSpec,
    ProbeConfig,
    collateral_drift,
    make_empirical,
    validate_model,
)
from mfjump.zoo import build


def test_make_empirical_mean_example():
    mu = make_empirical([[0.0], [2.0]])
    assert np.mean(mu.points) == pytest.approx(1.0)
    assert mu.mean[0] == pytest.approx(1.0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 20_000), d=st.integers(1, 3), step=st.integers(1, 3), spread=st.integers(0, 300),
       seed=st.integers(0, 2**32 - 1), head=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6))
def test_empirical_mean_has_the_bits_of_ndarray_mean(n, d, step, spread, seed, head):
    # mixed signs and magnitudes 10**-spread .. 10**spread, some drawn floats in the first rows, and
    # a strided view like a flow cell's quadrature sub-ensemble
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n * step, d)) * 10.0 ** rng.uniform(-spread, spread, (n * step, d))
    pts.flat[: len(head)] = head[: pts.size]
    pts = pts[::step]
    with np.errstate(over="ignore", invalid="ignore"):
        assert EmpiricalMeasure(pts).mean.tobytes() == pts.mean(axis=0).tobytes()


def test_make_empirical_constant_integration():
    mu = make_empirical([[1.0, 1.0]])
    c = 4.25
    assert np.mean(np.full(mu.points.shape[0], c)) == pytest.approx(c)


def test_make_empirical_monte_carlo_mean():
    # 1000 iid U(0,1) points: the integral of the identity lands within the
    # law-of-large-numbers band 3 * (1/sqrt(12)) / sqrt(1000) around 1/2
    s = StreamState(StreamKey(2024, 0, 0, "init").hash64())
    pts = s.uniforms(1000).reshape(-1, 1)
    mu = make_empirical(pts)
    band = 3.0 * (1.0 / np.sqrt(12.0)) / np.sqrt(1000.0)
    assert abs(float(np.mean(mu.points[:, 0])) - 0.5) < band


def test_make_empirical_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        make_empirical([])
    with pytest.raises(InvalidInputError):
        make_empirical([[np.inf]])
    with pytest.raises(InvalidInputError):
        make_empirical([[np.nan, 0.0]])


def test_integration_is_linear():
    s = StreamState(StreamKey(5, 0, 0, "init").hash64())
    pts = s.uniforms(40).reshape(20, 2)
    mu = make_empirical(pts)
    g1 = lambda x: x[:, 0] ** 2
    g2 = lambda x: np.sin(x[:, 1])
    x = mu.points
    lhs = np.mean(g1(x) + g2(x))
    assert lhs == pytest.approx(np.mean(g1(x)) + np.mean(g2(x)), abs=1e-12)
    c = -2.5
    assert np.mean(c * g1(x)) == pytest.approx(c * np.mean(g1(x)), abs=1e-12)


def _linear_model(lip=1.0):
    return ModelSpec(
        drift=lambda x, m: -x,
        diffusion=lambda x, m: np.full((x.shape[0], 1, 1), 0.5),
        rate=lambda x, m: np.ones(x.shape[0]),
        main_jump=lambda x, m, h: np.full_like(x, 0.1),
        collateral_jump=lambda xj, tg, m, h1, h2: np.zeros((tg.shape[0], 1)),
        dim=1,
        brownian_dim=1,
        class_tag="lipschitz",
        meta=AssumptionMeta(
            lipschitz_drift=lip, lipschitz_diffusion=0.0, lipschitz_jump_l1=0.5,
            rate_global_bound=1.0,
        ),
    )


def test_validate_linear_model_passes():
    report = validate_model(_linear_model(), ProbeConfig(budget=60, seed=1))
    assert report.verdict == "pass"
    drift = next(c for c in report.conditions if c.name == "drift-lipschitz")
    # F(x) = -x has Lipschitz quotient <= 1 against the combined metric
    assert drift.estimate <= 1.0 + 1e-9
    assert drift.estimate > 0.5


def test_validate_reports_failure_with_witness():
    report = validate_model(_linear_model(lip=0.2), ProbeConfig(budget=60, seed=1))
    assert report.verdict == "fail"
    drift = next(c for c in report.conditions if c.name == "drift-lipschitz")
    assert drift.verdict == "fail"
    assert drift.witness is not None and "x" in drift.witness


def test_validate_deterministic_and_monotone():
    r1 = validate_model(_linear_model(), ProbeConfig(budget=60, seed=3))
    r2 = validate_model(_linear_model(), ProbeConfig(budget=60, seed=3))
    assert r1.summary() == r2.summary()
    # evidence at a smaller budget is a prefix of the larger run: a passing
    # large-budget check cannot fail at a sub-budget with the same seed
    small = validate_model(_linear_model(), ProbeConfig(budget=20, seed=3))
    big = validate_model(_linear_model(), ProbeConfig(budget=60, seed=3))
    for cs, cb in zip(small.conditions, big.conditions):
        if cb.verdict == "pass" and cs.estimate is not None and cb.estimate is not None:
            assert cs.estimate <= cb.estimate + 1e-15


@pytest.mark.parametrize("class_tag", ["lipschitz", "superlinear_rate"])
def test_nonpositive_rate_margin_factor_rejected_at_construction(class_tag):
    meta = AssumptionMeta(rate_gamma=0.1, mean_collateral_norm=1.0, rate_margin_factor=-1.0)
    with pytest.raises(InvalidInputError, match="rate_margin_factor must be positive, got -1.0"):
        ModelSpec(
            drift=lambda x, m: -x,
            diffusion=lambda x, m: np.zeros((x.shape[0], 1, 0)),
            rate=lambda x, m: np.ones(x.shape[0]),
            main_jump=lambda x, m, h: -x,
            collateral_jump=lambda xj, tg, m, h1, h2: np.ones((tg.shape[0], 1)),
            dim=1,
            brownian_dim=0,
            class_tag=class_tag,
            meta=meta,
        )


def test_superlinear_margin_rejected_at_construction():
    # gamma = 1 with E||V|| = 1 gives 5 * gamma * E||V|| = 5 >= 1
    with pytest.raises(InvalidInputError):
        ModelSpec(
            drift=lambda x, m: -x,
            diffusion=lambda x, m: np.zeros((x.shape[0], 1, 0)),
            rate=lambda x, m: np.linalg.norm(x, axis=-1),
            main_jump=lambda x, m, h: -x,
            collateral_jump=lambda xj, tg, m, h1, h2: np.ones((tg.shape[0], 1)),
            dim=1,
            brownian_dim=0,
            class_tag="superlinear_rate",
            meta=AssumptionMeta(rate_gamma=1.0, mean_collateral_norm=1.0),
        )


def test_rate_envelope_grid_check():
    # b(r) = r^2 with gamma = 0.05, c = 20: 2r <= 0.05 r^2 + 20 for every r
    # (the quadratic 0.05 r^2 - 2r + 20 has discriminant 4 - 4 = 0, so the
    # inequality holds with equality exactly at r = 20)
    spec = ModelSpec(
        drift=lambda x, m: -x,
        diffusion=lambda x, m: np.zeros((x.shape[0], 1, 0)),
        rate=lambda x, m: np.linalg.norm(x, axis=-1) ** 2,
        main_jump=lambda x, m, h: -x,
        collateral_jump=lambda xj, tg, m, h1, h2: np.zeros((tg.shape[0], 1)),
        dim=1,
        brownian_dim=0,
        class_tag="superlinear_rate",
        meta=AssumptionMeta(
            rate_gamma=0.05, rate_c=20.0,
            mean_collateral_norm=0.1, rate_radial=lambda r: np.asarray(r) ** 2,
        ),
    )
    report = validate_model(spec, ProbeConfig(budget=40, seed=2))
    env = next(c for c in report.conditions if c.name == "rate-envelope")
    assert env.verdict == "pass"
    margin = next(c for c in report.conditions if c.name == "collateral-margin")
    assert margin.verdict == "pass"
    assert margin.estimate == pytest.approx(5 * 0.05 * 0.1)


def test_rate_envelope_grid_check_fails_when_c_too_small():
    spec = ModelSpec(
        drift=lambda x, m: -x,
        diffusion=lambda x, m: np.zeros((x.shape[0], 1, 0)),
        rate=lambda x, m: np.linalg.norm(x, axis=-1) ** 2,
        main_jump=lambda x, m, h: -x,
        collateral_jump=lambda xj, tg, m, h1, h2: np.zeros((tg.shape[0], 1)),
        dim=1,
        brownian_dim=0,
        class_tag="superlinear_rate",
        meta=AssumptionMeta(
            rate_gamma=0.05, rate_c=5.0,
            mean_collateral_norm=0.1, rate_radial=lambda r: np.asarray(r) ** 2,
        ),
    )
    report = validate_model(spec, ProbeConfig(budget=40, seed=2))
    env = next(c for c in report.conditions if c.name == "rate-envelope")
    assert env.verdict == "fail"
    assert env.witness is not None and "r" in env.witness


def test_validate_indeterminate_on_nonfinite_coefficient():
    bad = ModelSpec(
        drift=lambda x, m: np.where(x > 2.0, np.inf, -x),
        diffusion=lambda x, m: np.zeros((x.shape[0], 1, 1)),
        rate=lambda x, m: np.ones(x.shape[0]),
        main_jump=lambda x, m, h: np.zeros_like(x),
        collateral_jump=lambda xj, tg, m, h1, h2: np.zeros((tg.shape[0], 1)),
        dim=1,
        brownian_dim=1,
        class_tag="lipschitz",
        meta=AssumptionMeta(lipschitz_drift=1.0, lipschitz_diffusion=0.0, lipschitz_jump_l1=1.0),
    )
    report = validate_model(bad, ProbeConfig(budget=80, seed=4))
    drift = next(c for c in report.conditions if c.name == "drift-lipschitz")
    assert drift.verdict == "indeterminate"
    assert drift.witness is not None


# -- absorbed collateral drift ----------------------------------------------
# The per-module formulas that collateral_drift replaced, kept as oracles.


def _oracle_y(spec, pos, mu):
    lam = np.asarray(spec.rate(pos, mu), dtype=np.float64)
    if spec.collateral_mean_kind() == "constant":
        ev = np.asarray(spec.collateral_mean, dtype=np.float64)
        return np.broadcast_to(float(lam.mean()) * ev, pos.shape).copy()
    cm = np.asarray(spec.collateral_mean(pos, pos, mu))
    return np.mean(lam[:, None, None] * cm, axis=0)


def _oracle_limit(spec, pos, flow, t, trunc_c):
    if spec.collateral_mean_kind() == "constant":
        lm = min(float(flow.lam_mean[flow.cell_index(t)]), trunc_c)
        ev = np.asarray(spec.collateral_mean, dtype=np.float64)
        return np.broadcast_to(lm * ev, pos.shape).copy()
    mu = flow.cell(t).quad
    lam = np.asarray(spec.rate(mu.points, mu), dtype=np.float64)
    cm = np.asarray(spec.collateral_mean(mu.points, pos, mu))
    return np.mean(lam[:, None, None] * cm, axis=0)


def _oracle_field(spec, x, m):
    lam = np.asarray(spec.rate(m.points, m), dtype=np.float64)
    if spec.collateral_mean_kind() == "constant":
        return float(np.mean(lam)) * np.asarray(spec.collateral_mean, dtype=np.float64)
    cm = spec.collateral_mean(m.points, x[None, :], m)
    return np.mean(lam[:, None] * cm[:, 0, :], axis=0)


def _pairwise_mean_spec():
    # state-dependent rate: the mean over jumpers differs from any one rate
    return ModelSpec(
        drift=lambda x, m: -x,
        diffusion=lambda x, m: np.zeros((x.shape[0], 2, 0)),
        rate=lambda x, m: 0.5 + np.abs(x[:, 0]) + 0.1 * float(m.mean[1]),
        main_jump=lambda x, m, h: np.zeros_like(x),
        collateral_jump=lambda xj, tg, m, h1, h2: np.zeros_like(tg),
        dim=2,
        brownian_dim=0,
        class_tag="lipschitz",
        collateral_mean=lambda jumpers, targets, m: 0.3 * jumpers[:, None, :] - 0.1 * targets[None, :, :],
    )


@pytest.mark.parametrize("name", ["pairwise", "neuronal"])
def test_collateral_drift_matches_replaced_formulas(name):
    spec = _pairwise_mean_spec() if name == "pairwise" else build("neuronal", {})
    s = StreamState(StreamKey(17, 0, 0, "init").hash64())
    pos = 2.0 * s.uniforms(7 * spec.dim).reshape(7, spec.dim)
    mu = EmpiricalMeasure(pos)
    # intermediate system
    assert np.array_equal(collateral_drift(spec, pos, mu), _oracle_y(spec, pos, mu))
    # limit copies against a frozen flow larger than the quadrature cap
    ens = 2.0 * s.uniforms(3 * 600 * spec.dim).reshape(3, 600, spec.dim)
    flow = FlowApproximation(times=np.asarray([0.0, 0.5, 1.0]), ensemble=ens,
                             lam_mean=np.asarray([1.3, 2.9, 2.1]), trunc_c=math.inf)
    for trunc_c in (math.inf, 2.0):
        cut = dataclasses.replace(flow, trunc_c=trunc_c)  # its cells hold the truncated summary
        for t in (0.0, 0.6, 1.0):
            got = collateral_drift(spec, pos, cut.cell(t).quad, cut.cell(t).lam_mean)
            assert np.array_equal(got, _oracle_limit(spec, pos, flow, t, trunc_c))
    # the validator's field at a single target
    m = make_empirical(pos[:4])
    for x in pos:
        assert np.array_equal(collateral_drift(spec, x[None, :], m)[0], _oracle_field(spec, x, m))
