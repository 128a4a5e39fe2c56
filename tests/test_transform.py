import warnings
from dataclasses import replace

import numpy as np
import pytest

from jumpsde import (
    jump_map,
    make_jump,
    lamperti_forward,
    lamperti_inverse,
    linear_jump,
    sine_jump,
    validate_jump,
    zero_jump,
)
from jumpsde.solver import _LaneJump


def test_forward_fixed_point_and_values():
    assert lamperti_forward(1.5, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert lamperti_forward(1.5, 4.0) == pytest.approx(0.5, rel=1e-12)
    assert lamperti_forward(1.5, 0.25) == pytest.approx(2.0, rel=1e-12)


def test_inverse_fixed_point_and_values():
    assert lamperti_inverse(1.5, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert lamperti_inverse(1.5, 0.5) == pytest.approx(4.0, rel=1e-12)


def test_round_trip():
    for rho in (1.2, 1.5, 3.0):
        for x in np.logspace(-3, 3, 25):
            back = lamperti_inverse(rho, lamperti_forward(rho, x))
            assert back == pytest.approx(x, rel=1e-12)


def test_domain_errors():
    for fn in (lamperti_forward, lamperti_inverse):
        with pytest.raises(ValueError):
            fn(1.5, 0.0)
        with pytest.raises(ValueError):
            fn(1.5, -2.0)
        with pytest.raises(ValueError):
            fn(1.0, 1.0)


def test_underflow_raises_instead_of_returning_zero():
    # x^(1-rho) for huge x and large rho would silently hit 0.0
    with pytest.raises(OverflowError):
        lamperti_forward(3.0, 1e200)
    with pytest.raises(OverflowError):
        lamperti_forward(3.0, 1e-200)  # upward overflow of the same power


def test_jump_map_zero_jump_is_exact_identity(set1):
    jump = zero_jump()
    for z in (0.1, 1.0, 7.5):
        assert jump_map(set1, jump, z) == z


def test_jump_map_closed_form_values(set1):
    assert jump_map(set1, linear_jump(0.5), 1.0) == pytest.approx(
        0.8164965809277260, rel=1e-12
    )
    assert jump_map(set1, linear_jump(-0.5), 1.0) == pytest.approx(
        1.4142135623730951, rel=1e-12
    )


def test_jump_map_commutes_with_transform(set1):
    for jump in (linear_jump(-0.5), linear_jump(1.0), sine_jump(0.5)):
        for z in np.logspace(-2, 2, 17):
            x = lamperti_inverse(set1.rho, z)
            expected = lamperti_forward(set1.rho, x + jump.h(x))
            assert jump_map(set1, jump, z) == pytest.approx(expected, rel=1e-12)


def test_jump_map_positive_and_bounded_by_growth_constant(set1):
    # z-space contraction bound: jump_map(z) <= r^(1-rho) * z
    for coeff in (-0.5, 0.5, 1.0):
        jump = linear_jump(coeff)
        bounds = validate_jump(jump, set1)
        cap = bounds.r ** (1.0 - set1.rho)
        for z in np.logspace(-3, 3, 25):
            mapped = jump_map(set1, jump, z)
            assert mapped > 0.0
            assert mapped <= cap * z * (1.0 + 1e-12)


def test_jump_map_rejects_invalid_jump(set1):
    with pytest.raises(ValueError, match="positive domain"):
        jump_map(set1, linear_jump(-1.5), 1.0)


def test_jump_map_domain_error(set1):
    with pytest.raises(ValueError):
        jump_map(set1, zero_jump(), 0.0)


@pytest.mark.parametrize("width", [1, 128])
@pytest.mark.parametrize("rho", [2.0, 3.0, 1.5, 1.3])
@pytest.mark.parametrize("spec", [("linear", 0.7), ("linear", -0.5), ("sine", 1.0),
                                  ("rational", 2.5)])
def test_jump_map_has_the_bits_of_the_vector_map(set1, spec, rho, width):
    # 1 - rho is an integer (-1, -2) or not (-0.5, -0.3); jump_map on one
    # float must give every lane the bits the lanes' vector map gives it
    # on arrays of 1 and 128 lanes, and raise on every lane that map leaves
    # to it, from states of moderate and extreme size, without a warning
    params, jump = replace(set1, rho=rho, gamma=2.0 * rho), make_jump(*spec)
    rng = np.random.default_rng(23)
    z = np.concatenate([np.exp(rng.uniform(-5.0, 5.0, 892)),
                        np.exp(rng.uniform(-700.0, 700.0, 128)), [5e-324, 1e-310, 1e300, 1.7e308]])
    rng.shuffle(z)
    vector = _LaneJump([(params, jump)])
    for lanes in z.reshape(-1, width):
        with np.errstate(all="ignore"):
            out, ok = vector(lanes, np.zeros(width, dtype=np.intp))
        for z_lane, mapped, taken in zip(lanes.tolist(), out, ok):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    scalar = jump_map(params, jump, z_lane)
                except (ValueError, OverflowError):
                    assert not taken
                    continue
            assert taken
            assert np.float64(scalar).tobytes() == mapped.tobytes()
