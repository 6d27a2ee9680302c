import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfjump.drivers import InvalidInputError, StreamKey, StreamState, make_driver_bundle
from mfjump.harness import ConfigError, SimConfig
from mfjump.models import ProbeConfig, make_empirical, validate_model
from mfjump.particle import InitSampler, simulate
from mfjump.zoo import MAX_DIM, _radius, build, default_params, derive_envelope_c, model_ids


def test_model_ids_and_defaults():
    assert model_ids() == ["convex-potential", "lipschitz-demo", "neuronal"]
    capped = {"dim": 1, "interaction": 0.5, "rate_base": 1.0, "rate_slope": 0.5, "rate_cap_radius": 2.0,
              "jump_scale": 0.3, "collateral_amp": 0.4}
    assert default_params("lipschitz-demo") == {**capped, "sigma0": 0.4, "mean_reversion": 1.0}
    assert default_params("convex-potential") == {**capped, "sigma0": 0.3, "exponent": 2}
    assert default_params("neuronal") == {
        "dim": 1, "rate_exponent": 2.0, "rate_gamma": 0.2, "rate_offset": 0.5, "reset_max": 1.0,
        "collateral_amp": 0.5, "margin_factor": 5.0,
    }


@pytest.mark.parametrize("model", ["lipschitz-demo", "convex-potential"])
@pytest.mark.parametrize("key,value", [
    ("sigma0", -0.3),  # convex-potential used to build with its diffusion switched off
    ("rate_base", -2.0),
    ("rate_slope", -0.5),
    ("rate_cap_radius", -1.0),
    ("collateral_amp", -0.4),
    ("jump_scale", 1.5),
    ("jump_scale", -0.1),
])
def test_capped_jump_families_reject_bad_parameters(model, key, value):
    with pytest.raises(InvalidInputError, match=key):
        build(model, {key: value})
    config = {"schema": 1, "model": {"id": model, "params": {key: value}}, "run": {"Ns": [4, 8]}}
    with pytest.raises(ConfigError, match=f"^model.params: {key}"):
        SimConfig.from_dict(config)


@pytest.mark.parametrize("model", ["lipschitz-demo", "convex-potential", "neuronal"])
@pytest.mark.parametrize("dim", [0, -1, 1.5, 2.0, True, "2"])
def test_every_family_rejects_a_dim_that_is_not_an_integer_of_at_least_1(model, dim):
    # dim=1.5 used to end in a TypeError from np.eye, dim=0 inside the probes
    with pytest.raises(InvalidInputError, match="dim must be an integer >= 1"):
        build(model, {"dim": dim})
    config = {"schema": 1, "model": {"id": model, "params": {"dim": dim}}, "run": {"Ns": [4, 8]}}
    with pytest.raises(ConfigError, match="^model.params: dim"):
        SimConfig.from_dict(config)


@pytest.mark.parametrize("model", ["lipschitz-demo", "convex-potential", "neuronal"])
@pytest.mark.parametrize("dim", [MAX_DIM + 1, 10**20, 10**400], ids=["ceiling+1", "1e20", "401-digits"])
def test_every_family_rejects_a_dim_above_the_ceiling(model, dim, capsys):
    # dim=10**20 ended in a ValueError traceback from np.eye (neuronal: an OverflowError
    # from math.sqrt), and in a config in "model.params: Maximum allowed dimension exceeded"
    from mfjump.cli import main as cli_main

    reason = f"dim must be an integer >= 1 and <= {MAX_DIM}, got {dim}"
    with pytest.raises(InvalidInputError, match=f"^{reason}$"):
        build(model, {"dim": dim})
    config = {"schema": 1, "model": {"id": model, "params": {"dim": dim}}, "run": {"Ns": [4, 8]}}
    with pytest.raises(ConfigError, match=f"^model.params: {reason}$"):
        SimConfig.from_dict(config)
    assert cli_main(["validate", "--model", model, "--param", f"dim={dim}"]) == 1
    assert capsys.readouterr().err == f"mfjump validate: {reason}\n"


def test_a_model_builds_at_the_dim_ceiling():
    assert build("lipschitz-demo", {"dim": MAX_DIM}).dim == MAX_DIM


@pytest.mark.parametrize("model,key", [
    (model, key) for model in model_ids() for key in default_params(model) if key != "dim"
])
def test_every_family_rejects_a_parameter_that_is_not_a_number(model, key):
    # a string rate_gamma or interaction used to end in a raw TypeError, and a
    # string reset_max built a model whose every simulation cell failed
    with pytest.raises(InvalidInputError, match=f"^{key} must be a number, got 'abc'$"):
        build(model, {key: "abc"})
    config = {"schema": 1, "model": {"id": model, "params": {key: "abc"}}, "run": {"Ns": [4, 8]}}
    with pytest.raises(ConfigError, match=f"^model.params: {key} must be a number, got 'abc'$"):
        SimConfig.from_dict(config)


@pytest.mark.parametrize("value", [True, None, [0.3]])
def test_a_bool_or_other_non_number_parameter_is_rejected(value):
    # jump_scale: true used to build as 1
    with pytest.raises(InvalidInputError, match=f"^jump_scale must be a number, got {re.escape(repr(value))}$"):
        build("lipschitz-demo", {"jump_scale": value})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=str)
@pytest.mark.parametrize("model,key", [
    (model, key) for model in model_ids() for key in default_params(model) if key != "dim"
])
def test_every_family_rejects_a_parameter_that_is_not_finite(model, key, value):
    # rate_exponent: nan ran diagnostics to nan moments, reset_max: inf
    # validated "pass", rate_base: inf built and failed in simulate with an
    # OverflowError; margin_factor: nan is rejected here, before any warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=f"^{key} must be finite, got {value}$"):
            build(model, {key: value})
    config = {"schema": 1, "model": {"id": model, "params": {key: value}}, "run": {"Ns": [4, 8]}}
    with pytest.raises(ConfigError, match=f"^model.params: {key} must be finite, got {value}$"):
        SimConfig.from_dict(config)


@pytest.mark.parametrize("model,key", [("lipschitz-demo", "rate_base"), ("neuronal", "reset_max")])
def test_an_integer_parameter_above_every_float_is_rejected(model, key, capsys):
    # rate_base=1e400 as an integer ended in an OverflowError traceback from
    # the builder's float arithmetic, and reset_max=<the same> validated "pass"
    from mfjump.cli import main as cli_main

    huge = 10**400
    for value in (huge, -huge, 2**1024 - 2**970):  # the last is above the largest float too
        with pytest.raises(InvalidInputError, match=f"^{key} must be finite, got {value}$"):
            build(model, {key: value})
    config = {"schema": 1, "model": {"id": model, "params": {key: huge}}, "run": {"Ns": [4, 8]}}
    with pytest.raises(ConfigError, match=f"^model.params: {key} must be finite, got {huge}$"):
        SimConfig.from_dict(config)
    assert cli_main(["validate", "--model", model, "--param", f"{key}={huge}"]) == 1
    assert capsys.readouterr().err == f"mfjump validate: {key} must be finite, got {huge}\n"
    # an integer that fits in a float still builds
    build(model, {key: 10**300})


def test_unknown_model_and_params_rejected():
    with pytest.raises(InvalidInputError):
        build("no-such-model")
    with pytest.raises(InvalidInputError):
        build("neuronal", {"bogus_knob": 1.0})


def test_neuronal_margin_check():
    # gamma=0.1 with E||V||=1 (amp=2, d=1): 5*0.1*1 = 0.5 < 1 builds fine
    build("neuronal", {"rate_gamma": 0.1, "collateral_amp": 2.0})
    # gamma=0.3: 5*0.3*1 = 1.5 >= 1 is rejected with the violated inequality
    with pytest.raises(InvalidInputError, match="5"):
        build("neuronal", {"rate_gamma": 0.3, "collateral_amp": 2.0})
    # a negative E||V|| = -2.5 would read as a margin of -0.25 < 1
    with pytest.raises(InvalidInputError, match=r"E\|\|V\|\| >= 0, got -2.5"):
        build("neuronal", {"collateral_amp": -5.0})


@pytest.mark.parametrize("factor", [0.0, -1.0])
def test_nonpositive_margin_factor_rejected_without_warning(factor):
    # -1 used to build and validate "pass" on a negative margin estimate
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="rate_margin_factor must be positive"):
            build("neuronal", {"margin_factor": factor})


def test_rejected_margin_does_not_warn():
    # a weak factor warns only once ModelSpec has accepted the margin:
    # 4 * 0.3 * 1 = 1.2 >= 1 is rejected with no warning before the reason
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="rate envelope inadmissible"):
            build("neuronal", {"margin_factor": 4.0, "rate_gamma": 0.3, "collateral_amp": 2.0})


def test_margin_factor_override_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build("neuronal", {"rate_gamma": 0.3, "collateral_amp": 2.0, "margin_factor": 3.0})
    assert any("margin" in str(w.message) for w in caught)


def test_envelope_c_closed_form():
    # alpha r^(a-1) - gamma r^a is maximized at r = (alpha-1)/gamma
    assert derive_envelope_c(2.0, 0.2) == pytest.approx(5.0)
    assert derive_envelope_c(1.0, 0.2) == pytest.approx(1.0)
    # numerical check on a grid (including the exact maximizer) for alpha = 3
    gamma = 0.1
    c = derive_envelope_c(3.0, gamma)
    r = np.append(np.logspace(-3, 4, 400), (3.0 - 1.0) / gamma)
    assert np.max(3 * r**2 - gamma * r**3) <= c * (1 + 1e-9)
    assert np.max(3 * r**2 - gamma * r**3) >= c * (1 - 1e-9)


# the conditions each model class is probed for, in report order
_CONDITIONS = {
    "lipschitz": ["rate-nonnegative", "drift-lipschitz", "diffusion-lipschitz",
                  "main-jump-l1-lipschitz", "collateral-field-l1-lipschitz"],
    "convex_potential": ["rate-nonnegative", "potential-monotone", "interaction-bounded", "diffusion-lipschitz",
                         "main-jump-l1-lipschitz", "collateral-field-l1-lipschitz"],
    "superlinear_rate": ["rate-nonnegative", "collateral-margin", "rate-envelope"],
}


def test_all_zoo_models_validate_at_default_budget():
    for mid in model_ids():
        report = validate_model(build(mid), ProbeConfig(budget=120, seed=9))
        assert report.verdict in ("pass", "indeterminate"), report.summary()
        assert not any(c.verdict == "fail" for c in report.conditions), report.summary()
        assert [c.name for c in report.conditions] == _CONDITIONS[report.model_class]


def test_demo_with_zero_amplitudes_reduces_to_diffusion():
    spec = build(
        "lipschitz-demo",
        {"jump_scale": 0.0, "collateral_amp": 0.0, "rate_base": 0.0, "rate_slope": 0.0},
    )
    report = validate_model(spec, ProbeConfig(budget=60, seed=1))
    assert report.verdict == "pass"
    paths = simulate("X", spec, 1.0, 0.1, make_driver_bundle(3, 0, 8))
    assert paths.jump_count == 0


def test_convex_potential_gradient_matches_finite_differences():
    spec = build("convex-potential", {"exponent": 2, "dim": 2})
    grad = spec.meta.potential_grad
    s = StreamState(StreamKey(12, 0, 0, "init").hash64())
    for _ in range(20):
        x = (s.uniforms(2) * 4 - 2).reshape(1, 2)
        g = grad(x)[0]
        eps = 1e-6
        for k in range(2):
            xp, xm = x.copy(), x.copy()
            xp[0, k] += eps
            xm[0, k] -= eps
            # U(x) = sum |x_k|^4 / 4
            fd = (np.sum(np.abs(xp) ** 4) / 4 - np.sum(np.abs(xm) ** 4) / 4) / (2 * eps)
            assert g[k] == pytest.approx(fd, abs=1e-6 * (1 + abs(fd)))


def test_convex_potential_monotonicity():
    spec = build("convex-potential", {"exponent": 3})
    grad = spec.meta.potential_grad
    s = StreamState(StreamKey(13, 0, 0, "init").hash64())
    for _ in range(100):
        x = (s.uniforms(1) * 6 - 3).reshape(1, 1)
        y = (s.uniforms(1) * 6 - 3).reshape(1, 1)
        inner = float(np.sum((x - y) * (grad(x) - grad(y))))
        assert inner >= -1e-12


def test_neuronal_reset_lands_in_box():
    spec = build("neuronal", {})
    bundle = make_driver_bundle(21, 0, 64)
    paths = simulate(
        "X", spec, 4.0, 0.05, bundle, init=InitSampler(kind="uniform", low=0.0, high=1.0)
    )
    assert paths.jump_count > 50
    # post-jump value of the jumper is independent of its pre-jump state and
    # lands in [0, reset_max]^d
    assert np.all(paths.jump_post >= 0.0)
    assert np.all(paths.jump_post <= 1.0 + 1e-12)


def test_neuronal_collateral_mean_declaration():
    spec = build("neuronal", {"collateral_amp": 0.5})
    # declared E[V] matches the mark average of the collateral amplitude
    s = StreamState(StreamKey(14, 0, 0, "init").hash64())
    h2 = s.uniforms(200_000)
    mu = make_empirical(np.zeros((1, 1)))
    vals = spec.collateral_jump(np.zeros(1), np.zeros((len(h2), 1)), mu, 0.5, h2)
    assert float(vals.mean()) == pytest.approx(float(np.asarray(spec.collateral_mean)[0]), abs=1e-3)


def test_demo_collateral_mean_is_zero():
    spec = build("lipschitz-demo", {})
    assert spec.collateral_mean_kind() == "zero"
    s = StreamState(StreamKey(15, 0, 0, "init").hash64())
    h2 = s.uniforms(200_000)
    mu = make_empirical(np.zeros((1, 1)))
    vals = spec.collateral_jump(np.zeros(1), np.zeros((len(h2), 1)), mu, 0.5, h2)
    assert abs(float(vals.mean())) < 1e-3


# zeros of both signs, subnormals, squares that overflow near 1e154, infinities and NaN
_EDGE = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 2.2e-308, 1.3e-154, 1e154, -1.4e154, 3e154,
                         np.inf, -np.inf, np.nan])


@settings(max_examples=300, deadline=None)
@given(d=st.integers(1, 4), rows=st.integers(1, 5), data=st.data())
def test_rate_radius_has_the_bits_of_the_linalg_norm(d, rows, data):
    values = data.draw(st.lists(st.one_of(_EDGE, st.floats()), min_size=rows * d, max_size=rows * d))
    x = np.asarray(values, dtype=np.float64).reshape(rows, d)
    with np.errstate(over="ignore", invalid="ignore"):  # squares of 1e154 and above overflow in both
        assert _radius(x).tobytes() == np.linalg.norm(x, axis=-1).tobytes()
        assert _radius(x[0]).tobytes() == np.linalg.norm(x[0], axis=-1).tobytes()  # one point


def _one_row_values() -> np.ndarray:
    """Zeros of both signs, subnormals, squares that overflow near 1e154, +-inf, NaN and the cap
    radii, then 40,000 values of every magnitude and sign and of the probe domain."""
    edge = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e154, -1e154,
            1.3407807929942596e154, 1.3407807929942597e154, -2e154, 1e300, np.inf, -np.inf, np.nan,
            2.0, -2.0, 1.5, -1.5, 1.0]
    rng = np.random.default_rng(28)
    spread = rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(-323, 308, 20_000)
    return np.concatenate([edge, spread, rng.uniform(-5.0, 5.0, 20_000)])


@pytest.mark.parametrize("model,params", [
    ("lipschitz-demo", {}),
    ("convex-potential", {"rate_base": 0.5, "rate_slope": 1.25, "rate_cap_radius": 1.5, "jump_scale": 0.8}),
    # a -0.0 cap ties with every radius 0: np.minimum returns its second argument there
    ("lipschitz-demo", {"rate_base": -0.0, "rate_cap_radius": -0.0}),
    *[("neuronal", {"rate_exponent": a, "reset_max": 0.7}) for a in (1.0, 1.5, 2.0, 3.0)],
])
def test_one_row_rate_and_main_jump_have_the_bits_of_the_vector_path(model, params):
    # the event loops evaluate one d=1 row per candidate and per jump, in Python floats
    spec = build(model, params)
    m = make_empirical(np.zeros((4, 1)))
    x = _one_row_values()[:, None]
    h = np.random.default_rng(29).uniform(size=len(x))
    h[:3] = 0.0, 5e-324, 1.0 - 2.0**-53
    assert isinstance(spec.rate(x[:1], m), list) and isinstance(spec.main_jump(x[:1], m, h[:1]), list)
    with np.errstate(over="ignore", invalid="ignore"):
        rates = np.asarray(spec.rate(x, m), dtype=np.float64)
        jumps = np.asarray(spec.main_jump(x, m, h), dtype=np.float64)[:, 0]
        one_rates = np.asarray([spec.rate(x[i : i + 1], m)[0] for i in range(len(x))])
        one_jumps = np.asarray([spec.main_jump(x[i : i + 1], m, h[i : i + 1])[0][0] for i in range(len(x))])
    assert one_rates.tobytes() == rates.tobytes()
    assert one_jumps.tobytes() == jumps.tobytes()


@pytest.mark.parametrize("model", ["lipschitz-demo", "convex-potential"])
@pytest.mark.parametrize("d", [1, 3])
def test_capped_jump_diffusion_is_a_read_only_broadcast_per_row_count(model, d):
    sigma0 = 0.7
    spec = build(model, {"dim": d, "sigma0": sigma0})
    m = make_empirical(np.zeros((4, d)))
    counts = [1, 5, 64, *range(100, 120), 5, 1]  # 1 and 5 again once twenty other counts have evicted them
    for n in counts:
        sig = spec.diffusion(np.ones((n, d)), m)
        assert sig.shape == (n, d, d) and sig.dtype == np.float64
        assert not sig.flags.writeable
        assert np.array_equal(sig, np.broadcast_to(sigma0 * np.eye(d), (n, d, d)))
    with pytest.raises(ValueError, match="read-only"):
        sig[0, 0, 0] = 1.0
