import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from jumpsde import (
    AssumptionViolation,
    InvalidModelError,
    ModelParams,
    Regime,
    custom_jump,
    diffusion,
    drift,
    linear_jump,
    make_jump,
    moment_admissible,
    one_sided_lipschitz,
    rational_jump,
    sine_jump,
    transformed_drift,
    transformed_drift_prime,
    transformed_drift_second,
    validate_jump,
    validate_params,
    zero_jump,
)
from jumpsde.model import (
    MAX_MEAN_JUMPS,
    default_probe_grid,
    drift_one_sided_lipschitz,
    sampled_jump_bounds,
)


def test_drift_direct_substitution(set1, set2):
    assert drift(set1, 1.0) == pytest.approx(-2.5, rel=1e-12)
    assert drift(set2, 1.0) == pytest.approx(-2.5, rel=1e-12)


def test_drift_sign_near_zero(set1):
    # the 1/x term dominates
    assert drift(set1, 1e-6) > 0.0


def test_drift_domain_error(set1):
    with pytest.raises(ValueError):
        drift(set1, 0.0)
    with pytest.raises(ValueError):
        drift(set1, -1.0)


def test_diffusion_values(set1, set2):
    assert diffusion(set1, 1.0) == pytest.approx(set1.alpha3, rel=1e-12)
    assert diffusion(set1, 4.0) == pytest.approx(8.0, rel=1e-12)
    assert diffusion(set2, 0.25) == pytest.approx(0.125, rel=1e-12)
    with pytest.raises(ValueError):
        diffusion(set1, 0.0)


def test_transformed_drift_substitution(set1, set2):
    assert transformed_drift(set1, 1.0) == pytest.approx(1.625, rel=1e-12)
    assert transformed_drift(set2, 1.0) == pytest.approx(1.625, rel=1e-12)


def test_transformed_drift_blows_up_near_zero(set1, set2):
    assert transformed_drift(set1, 1e-8) > 0.0
    assert transformed_drift(set2, 1e-8) > 0.0


def test_transformed_drift_prime_substitution(set1):
    assert transformed_drift_prime(set1, 1.0) == pytest.approx(-12.125, rel=1e-12)


def test_transformed_drift_prime_limits(set1, set2):
    for params in (set1, set2):
        assert transformed_drift_prime(params, 1e-6) < 0.0
        assert transformed_drift_prime(params, 1e6) < 0.0


def test_prime_matches_central_difference(set1):
    eps = 1e-6
    for z in (0.5, 1.0, 2.0):
        fd = (transformed_drift(set1, z + eps) - transformed_drift(set1, z - eps)) / (2 * eps)
        fp = transformed_drift_prime(set1, z)
        assert abs(fd - fp) <= 1e-6 * (1.0 + abs(fp))


def test_derivatives_match_central_differences_at_probes(set1, set2):
    # second-order accurate stencils; relative tolerance 1e-5 at the probes
    for params in (set1, set2):
        for z in (0.25, 0.5, 1.0, 2.0, 4.0):
            eps = 1e-6 * z
            fd1 = (transformed_drift(params, z + eps) - transformed_drift(params, z - eps)) / (2 * eps)
            fp = transformed_drift_prime(params, z)
            assert fd1 == pytest.approx(fp, rel=1e-5)
            fd2 = (
                transformed_drift_prime(params, z + eps)
                - transformed_drift_prime(params, z - eps)
            ) / (2 * eps)
            fpp = transformed_drift_second(params, z)
            assert fd2 == pytest.approx(fpp, rel=1e-5)


def test_second_derivative_substitution(set1):
    assert transformed_drift_second(set1, 1.0) == pytest.approx(13.75, rel=1e-12)
    # per-term hand evaluation at z = 4, frozen from the power-law oracle:
    # -1280.0 + 12.0 + 0.029296875 + 0.01171875
    assert transformed_drift_second(set1, 4.0) == pytest.approx(
        -1267.958984375, rel=1e-12
    )


def test_chain_rule_identity(set1, set2):
    # the transformed drift at z = x^(1-rho) must equal the Ito drift
    # phi' f + 0.5 phi'' g^2 of the change of variables phi(x) = x^(1-rho)
    for params in (set1, set2):
        rho = params.rho
        for x in np.logspace(-2, 2, 41):
            z = x ** (1.0 - rho)
            lhs = transformed_drift(params, z)
            rhs = (1.0 - rho) * x ** (-rho) * drift(params, x) + 0.5 * (1.0 - rho) * (
                -rho
            ) * x ** (-rho - 1.0) * diffusion(params, x) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-9)


def test_one_sided_bound_is_zero_for_both_sets(set1, set2):
    assert one_sided_lipschitz(set1) == 0.0
    assert one_sided_lipschitz(set2) == 0.0


def test_one_sided_bound_dominates_derivative(set1, set2):
    for params in (set1, set2):
        q = one_sided_lipschitz(params)
        for z in np.logspace(-6, 6, 4001):
            assert transformed_drift_prime(params, z) <= q + 1e-8


def test_one_sided_bound_positive_case_against_independent_oracle(set1):
    # large alpha0 pushes the derivative's supremum above zero
    params = ModelParams(
        alpha_m1=2.0, alpha0=50.0, alpha1=1.5, alpha2=5.0, alpha3=1.0,
        gamma=3.0, rho=1.5, lam=0.0, x0=1.0, T=1.0,
    )
    q = one_sided_lipschitz(params)
    assert q > 0.0
    res = minimize_scalar(
        lambda u: -transformed_drift_prime(params, math.exp(u)),
        bounds=(math.log(1e-6), math.log(1e6)),
        method="bounded",
        options={"xatol": 1e-12},
    )
    assert q == pytest.approx(-res.fun, rel=1e-8)
    for z in np.logspace(-6, 6, 4001):
        assert transformed_drift_prime(params, z) <= q + 1e-8


def test_one_sided_bound_clamps_at_zero(set1):
    # sup F' < 0 for set I, so the clamp must return exactly 0
    assert one_sided_lipschitz(set1) == 0.0


def test_drift_one_sided_bound(set1, set2):
    assert drift_one_sided_lipschitz(set1) == 0.0
    assert drift_one_sided_lipschitz(set2) == 0.0


def test_validate_params_regimes(set1, set2):
    assert validate_params(set1).regime is Regime.SUPERCRITICAL
    assert validate_params(set2).regime is Regime.SUPERCRITICAL
    critical = ModelParams(
        alpha_m1=2.0, alpha0=1.0, alpha1=1.5, alpha2=5.0, alpha3=1.0,
        gamma=2.0, rho=1.5, lam=1.0, x0=1.0, T=1.0,
    )
    check = validate_params(critical)
    assert check.regime is Regime.CRITICAL
    assert check.critical_moment_cap == pytest.approx(5.0, rel=1e-12)


def test_validate_params_rejects_invalid_regime(set1):
    from dataclasses import replace

    with pytest.raises(InvalidModelError, match="Invalid regime"):
        validate_params(replace(set1, gamma=1.8))


def test_validate_params_rejects_nonpositive_constants(set1):
    from dataclasses import replace

    for name in ("alpha_m1", "alpha0", "alpha1", "alpha2", "alpha3", "x0", "T"):
        with pytest.raises(InvalidModelError):
            validate_params(replace(set1, **{name: 0.0}))
    with pytest.raises(InvalidModelError):
        validate_params(replace(set1, lam=-1.0))
    with pytest.raises(InvalidModelError):
        validate_params(replace(set1, rho=1.0))


def test_validate_params_rejects_unusable_critical_cap():
    params = ModelParams(
        alpha_m1=2.0, alpha0=1.0, alpha1=1.5, alpha2=0.5, alpha3=1.0,
        gamma=2.0, rho=1.5, lam=1.0, x0=1.0, T=1.0,
    )
    with pytest.raises(InvalidModelError, match="critical moment cap"):
        validate_params(params)


def test_moment_admissibility():
    critical = ModelParams(
        alpha_m1=2.0, alpha0=1.0, alpha1=1.5, alpha2=5.0, alpha3=1.0,
        gamma=2.0, rho=1.5, lam=1.0, x0=1.0, T=1.0,
    )
    moment_admissible(critical, 4.9)
    moment_admissible(critical, -10.0)
    with pytest.raises(InvalidModelError, match="not admissible"):
        moment_admissible(critical, 5.0)


def test_moment_admissible_supercritical_any_p(set1):
    for p in (-50.0, -2.0, 0.0, 2.0, 50.0):
        moment_admissible(set1, p)


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
def test_moment_admissible_rejects_a_non_finite_order(set1, p):
    with pytest.raises(InvalidModelError, match=f"moment order p must be finite, got {p}"):
        moment_admissible(set1, p)


def test_validate_bounds_the_expected_jumps_per_path(set1):
    # lam * T, not lam, is what a path's mesh holds; 1e308 * 10 overflows
    validate_params(replace(set1, lam=MAX_MEAN_JUMPS / 2.0, T=2.0))
    for lam, T in ((MAX_MEAN_JUMPS, 1.0 + 2.0**-52), (1e308, 1.0), (1e308, 10.0)):
        with pytest.raises(InvalidModelError, match="expected jumps per path is above 1e"):
            validate_params(replace(set1, lam=lam, T=T))


def test_validate_jump_linear_minus_half(set1):
    bounds = validate_jump(linear_jump(-0.5), set1)
    assert bounds.mu == pytest.approx(0.5, rel=1e-12)
    assert bounds.r == pytest.approx(0.5, rel=1e-12)
    assert bounds.mu1 == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert bounds.mu2 == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert not bounds.sampled


def test_validate_jump_linear_plus_one(set1):
    bounds = validate_jump(linear_jump(1.0), set1)
    assert bounds.mu == pytest.approx(1.0, rel=1e-12)
    assert bounds.r == pytest.approx(2.0, rel=1e-12)
    assert bounds.mu1 == pytest.approx(2.0**-0.5, rel=1e-12)
    assert bounds.mu2 == pytest.approx(2.0**-0.5, rel=1e-12)


def test_validate_jump_zero(set1):
    bounds = validate_jump(zero_jump(), set1)
    assert (bounds.mu, bounds.r, bounds.mu1, bounds.mu2) == (0.0, 1.0, 1.0, 1.0)


def test_validate_jump_rejects_linear_below_minus_one(set1):
    with pytest.raises(AssumptionViolation):
        validate_jump(linear_jump(-1.5), set1)


def test_validate_jump_custom_growth_violation(set1):
    bad = custom_jump(lambda x: -1.5 * x, lambda x: -1.5)
    with pytest.raises(AssumptionViolation) as excinfo:
        validate_jump(bad, set1)
    assert excinfo.value.assumption == "growth"
    assert excinfo.value.point is not None


def test_validate_jump_sine_unit_coefficient(set1):
    # Assumption on |h'| and growth hold, but the band touches zero;
    # positivity experiments remain legal, convergence theory does not.
    bounds = validate_jump(sine_jump(1.0), set1)
    assert bounds.mu == pytest.approx(1.0, rel=1e-12)
    assert bounds.r == pytest.approx(1.0 - 0.2172336282112216, rel=1e-9)
    assert bounds.mu1 == 0.0
    assert not bounds.band_positive


def test_validate_jump_sine_small_coefficient(set1):
    bounds = validate_jump(sine_jump(0.5), set1)
    assert bounds.mu == pytest.approx(0.5, rel=1e-12)
    assert bounds.band_positive
    assert bounds.mu1 == pytest.approx(1.5**-1.5 * 0.5, rel=1e-12)
    assert bounds.mu2 == pytest.approx(0.5**-1.5 * 1.5, rel=1e-12)
    # conservative closed form must bracket the sampled evidence
    sampled = sampled_jump_bounds(sine_jump(0.5), set1.rho, default_probe_grid())
    assert bounds.mu1 <= sampled.mu1 and sampled.mu2 <= bounds.mu2


def test_validate_jump_rational(set1):
    bounds = validate_jump(rational_jump(0.5), set1)
    assert bounds.mu == pytest.approx(0.5, rel=1e-12)
    assert bounds.r == pytest.approx(1.0, rel=1e-12)
    assert bounds.band_positive
    sampled = sampled_jump_bounds(rational_jump(0.5), set1.rho, default_probe_grid())
    assert bounds.mu1 <= sampled.mu1 and sampled.mu2 <= bounds.mu2


def test_linear_closed_form_agrees_with_sampled_grid(set1):
    grid = default_probe_grid()
    for coeff in (-0.5, 0.3, 1.0):
        closed = validate_jump(linear_jump(coeff), set1)
        sampled = sampled_jump_bounds(linear_jump(coeff), set1.rho, grid)
        assert sampled.sampled
        assert closed.mu == pytest.approx(sampled.mu, abs=1e-12)
        assert closed.r == pytest.approx(sampled.r, abs=1e-12)
        assert closed.mu1 == pytest.approx(sampled.mu1, abs=1e-12)
        assert closed.mu2 == pytest.approx(sampled.mu2, abs=1e-12)


def test_custom_jump_is_sampled_only(set1):
    jump = custom_jump(lambda x: 0.2 * math.atan(x), lambda x: 0.2 / (1.0 + x * x))
    bounds = validate_jump(jump, set1)
    assert bounds.sampled
    assert bounds.mu <= 0.2 + 1e-12
    assert bounds.r > 0.0
    assert bounds.band_positive


def test_custom_jump_declared_bounds_checked(set1):
    from jumpsde import JumpBounds

    jump = custom_jump(
        lambda x: 0.5 * x,
        lambda x: 0.5,
        declared=JumpBounds(mu=0.1, r=1.5, mu1=0.0, mu2=1.0),
    )
    with pytest.raises(AssumptionViolation):
        validate_jump(jump, set1)


def test_make_jump_factory():
    assert make_jump("linear", -0.5).label == "linear:-0.5"
    assert make_jump("zero").label == "zero"
    with pytest.raises(InvalidModelError):
        make_jump("linear")
    with pytest.raises(InvalidModelError):
        make_jump("nope", 1.0)
