"""Power-law change of variables between the original and additive-noise state.

The forward map z = x^(1-rho) turns the state-dependent diffusion into a
constant one; the inverse map x = z^(1/(1-rho)) recovers the original state.
Both are strictly positive on strictly positive inputs, and the jump update
is carried out in transformed coordinates, with the powers and the jump
coefficient's arithmetic of the solver's lanes.
"""

from __future__ import annotations

import math

import numpy as np

from .model import JumpCoefficient, ModelParams, array_h

__all__ = ["lamperti_forward", "lamperti_inverse", "jump_map"]


def _checked_pow(base: float, expo: float, what: str) -> float:
    """exp(expo*log(base)) with range errors instead of silent 0 or inf.

    A zero result would leave the positive domain, so underflow raises.
    """
    out = math.exp(expo * math.log(base))  # OverflowError on upward overflow
    if out == 0.0:
        raise OverflowError(f"{what}: result underflowed to 0 for base {base}")
    return out


def lamperti_forward(rho: float, x: float) -> float:
    """z = x^(1-rho) for x > 0, rho > 1."""
    if not rho > 1.0:
        raise ValueError(f"rho must exceed 1, got {rho}")
    if not x > 0.0:
        raise ValueError(f"x must be strictly positive, got {x}")
    return _checked_pow(x, 1.0 - rho, "forward transform")


def lamperti_inverse(rho: float, z: float) -> float:
    """x = z^(1/(1-rho)) for z > 0, rho > 1."""
    if not rho > 1.0:
        raise ValueError(f"rho must exceed 1, got {rho}")
    if not z > 0.0:
        raise ValueError(f"z must be strictly positive, got {z}")
    return _checked_pow(z, 1.0 / (1.0 - rho), "inverse transform")


def _chained(e: float) -> bool:
    """Whether _power takes base**e as a chain of multiplications."""
    return e == round(e) and 0 < abs(e) <= 64


def _power(base, e: float):
    """base**e elementwise: for an integer e with 0 < |e| <= 64 a chain of
    multiplications of base or of its reciprocal, by repeated squaring,
    which rounds the same way on every host; any other e goes to numpy's
    power."""
    if not _chained(e):
        return np.power(base, e)
    n, factor, out = int(abs(e)), base if e > 0 else 1.0 / base, None
    while True:
        if n & 1:
            out = factor if out is None else out * factor
        n >>= 1
        if not n:
            return out
        factor = factor * factor


def _finite_pow(base: float, expo: float, what: str) -> float:
    """_power(base, expo) on a float, with range errors instead of silent 0
    or inf. A chained power is Python-float arithmetic, which never warns;
    numpy's power is called without an error state where |expo*log(base)|
    < 700 leaves it no range error to report."""
    if _chained(expo) or abs(expo * math.log(base)) < 700.0:
        out = float(_power(base, expo))
    else:
        with np.errstate(all="ignore"):
            out = float(_power(base, expo))
    if out == 0.0:
        raise OverflowError(f"{what}: result underflowed to 0 for base {base}")
    if out == math.inf:
        raise OverflowError(f"{what}: result overflowed to inf for base {base}")
    return out


def jump_map(params: ModelParams, jump: JumpCoefficient, z: float) -> float:
    """Post-jump transformed state: (x + h(x))^(1-rho) with x = z^(1/(1-rho)).

    Exact identity when the jump size vanishes. A nonpositive x + h(x) means
    an invalid jump coefficient slipped past validation and raises, and so
    does a power that overflows or underflows to 0. The map runs on Python
    floats: an integer power is _power's chain of float multiplications,
    any other power numpy's power ufunc, and a built-in h its array form
    (model.array_h, whose sine is numpy's sin ufunc). Each of these rounds
    as on an array, so the result is, bit for bit, what the solver's lanes
    give a lane in one vector jump.
    """
    if not z > 0.0:
        raise ValueError(f"z must be strictly positive, got {z}")
    x = _finite_pow(float(z), 1.0 / (1.0 - params.rho), "inverse transform")
    form = array_h(jump)
    hx = jump.h(x) if form is None else float(form[0](x, float(form[1])))
    if hx == 0.0:
        return z
    moved = x + hx
    if not moved > 0.0:
        raise ValueError(
            f"jump leaves the positive domain: x + h(x) = {moved} at x = {x}"
        )
    return _finite_pow(moved, 1.0 - params.rho, "forward transform")
