"""Model constants, drift term tables, and assumption validators.

The underlying dynamics feature a mean-reverting drift with superlinear terms,
a power-law diffusion, and a deterministic jump coefficient driven by a
Poisson process:

    dX = (a_m1/X - a0 + a1*X - a2*X^gamma) dt + a3*X^rho dW + h(X-) dN

Each drift, the original f and the transformed F, is one (coefficient,
exponent) table, which the solver's lanes compile and make_drift and
make_transformed_drift evaluate on floats. Everything here is a pure
function of its inputs; no shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from functools import lru_cache, partial
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "ModelParams",
    "Regime",
    "RegimeCheck",
    "JumpCoefficient",
    "JumpBounds",
    "InvalidModelError",
    "AssumptionViolation",
    "make_transformed_drift",
    "make_drift",
    "one_sided_lipschitz",
    "drift_one_sided_lipschitz",
    "classify_regime",
    "validate_params",
    "moment_admissible",
    "linear_jump",
    "sine_jump",
    "rational_jump",
    "zero_jump",
    "custom_jump",
    "make_jump",
    "array_h",
    "validate_jump",
    "sampled_jump_bounds",
    "default_probe_grid",
]


class InvalidModelError(ValueError):
    """Configuration rejected by a validator (bad constants, regime, jump)."""


class AssumptionViolation(InvalidModelError):
    """A jump-coefficient hypothesis failed, with the offending probe point."""

    def __init__(self, message: str, assumption: str, point: float | None = None):
        super().__init__(message)
        self.assumption = assumption
        self.point = point


@dataclass(frozen=True)
class ModelParams:
    """The seven positive model constants plus jump intensity, start, horizon.

    gamma and rho must exceed 1; lam is the Poisson intensity (jumps per unit
    time, 0 allowed); x0 is the positive initial value; T the time horizon.
    """

    alpha_m1: float
    alpha0: float
    alpha1: float
    alpha2: float
    alpha3: float
    gamma: float
    rho: float
    lam: float
    x0: float
    T: float


class Regime(Enum):
    SUPERCRITICAL = "supercritical"  # gamma > 2*rho - 1
    CRITICAL = "critical"            # gamma = 2*rho - 1
    INVALID = "invalid"              # gamma < 2*rho - 1


@dataclass(frozen=True)
class RegimeCheck:
    """Outcome of parameter validation.

    critical_moment_cap is alpha2/alpha3^2 - rho + 3/2 in the critical regime
    (the supremum of admissible positive moment orders), None otherwise.
    """

    regime: Regime
    critical_moment_cap: Optional[float] = None


def classify_regime(gamma: float, rho: float) -> Regime:
    threshold = 2.0 * rho - 1.0
    if gamma > threshold:
        return Regime.SUPERCRITICAL
    if gamma == threshold:
        return Regime.CRITICAL
    return Regime.INVALID


# the smallest rho - 1 whose transformed state resolves x to at least half
# the digits of a double: dx/x = (dz/z) / (1 - rho), so z = x^(1-rho), known
# to a relative ulp at best, gives x to a relative ulp / (rho - 1), which
# is at most sqrt(ulp) from here on
RHO_MARGIN = math.sqrt(np.finfo(float).eps)

# the most jumps a path may expect on its horizon, lam * T. Each jump time
# is a node of the path's mesh, drawn, placed and stepped one at a time, so
# a run's time and memory grow with it: one-path simulate took 3.2 s at 1e4
# and 27 s at 1e5 on a 2-vCPU Xeon host, about 0.3 ms per expected jump, and
# the positivity table's batch of 512 paths holds arrays of a column per node
# (400 MB each at 1e5). Far above it, at 1 / DEDUP_RTOL = 1e12, the mean
# spacing between jumps, T / (lam * T), falls below the mesh's dedup
# tolerance DEDUP_RTOL * T, and at lam = 1e308 sample_jump_times' t stops
# moving near 1e-292 while its list of times grows without end
MAX_MEAN_JUMPS = 1e5


def validate_params(params: ModelParams) -> RegimeCheck:
    """Check positivity of all constants and classify the moment regime.

    Raises InvalidModelError for non-finite or non-positive constants,
    gamma/rho <= 1, rho - 1 below RHO_MARGIN, lam * T above
    MAX_MEAN_JUMPS, the invalid regime
    (gamma < 2*rho - 1), or a critical configuration whose moment cap is
    <= 1 (no usable moment order).
    """
    for field in fields(params):
        value = getattr(params, field.name)
        if not math.isfinite(value):
            # lam is the config key and flag `lambda`, as the messages below say
            name = "lambda" if field.name == "lam" else field.name
            raise InvalidModelError(f"{name} must be finite, got {value}")
    for name in ("alpha_m1", "alpha0", "alpha1", "alpha2", "alpha3"):
        value = getattr(params, name)
        if not (value > 0.0):
            raise InvalidModelError(f"{name} must be strictly positive, got {value}")
    if not (params.gamma > 1.0):
        raise InvalidModelError(f"gamma must exceed 1, got {params.gamma}")
    if not (params.rho > 1.0):
        raise InvalidModelError(f"rho must exceed 1, got {params.rho}")
    if params.rho - 1.0 < RHO_MARGIN:
        raise InvalidModelError(
            f"rho - 1 = {params.rho - 1.0:.3g} is below {RHO_MARGIN:.3g}: the "
            f"transformed state z = x^(1-rho) would resolve x only to a relative "
            f"{np.finfo(float).eps / (params.rho - 1.0):.3g}"
        )
    if not (params.x0 > 0.0):
        raise InvalidModelError(f"x0 must be strictly positive, got {params.x0}")
    if not (params.T > 0.0):
        raise InvalidModelError(f"T must be strictly positive, got {params.T}")
    if not (params.lam >= 0.0):
        raise InvalidModelError(f"lambda must be nonnegative, got {params.lam}")
    if params.lam * params.T > MAX_MEAN_JUMPS:
        raise InvalidModelError(
            f"lambda * T = {params.lam * params.T:.3g} expected jumps per path is above "
            f"{MAX_MEAN_JUMPS:.3g}: every jump is a node that a path draws and steps"
        )

    regime = classify_regime(params.gamma, params.rho)
    if regime is Regime.INVALID:
        raise InvalidModelError(
            f"Invalid regime: gamma < 2*rho - 1 ({params.gamma} < {2 * params.rho - 1})"
        )
    if regime is Regime.CRITICAL:
        cap = params.alpha2 / params.alpha3**2 - params.rho + 1.5
        if cap <= 1.0:
            raise InvalidModelError(
                f"critical moment cap {cap} <= 1: no usable moment order"
            )
        return RegimeCheck(regime, critical_moment_cap=cap)
    return RegimeCheck(regime)


def moment_admissible(params: ModelParams, p: float) -> RegimeCheck:
    """Validate a moment order p for this configuration's regime.

    All finite p are admissible in the supercritical regime; in the
    critical regime p must stay below the moment cap.
    """
    if not math.isfinite(p):
        raise InvalidModelError(f"moment order p must be finite, got {p}")
    check = validate_params(params)
    if check.regime is Regime.CRITICAL and p >= check.critical_moment_cap:
        raise InvalidModelError(
            f"moment order p={p} not admissible in the critical regime "
            f"(cap {check.critical_moment_cap})"
        )
    return check


# ---------------------------------------------------------------------------
# Drift term tables
# ---------------------------------------------------------------------------

def _original_drift_terms(params: ModelParams) -> tuple[tuple[float, float], ...]:
    """(coefficient, exponent) pairs of the original drift."""
    return (
        (params.alpha_m1, -1.0),
        (-params.alpha0, 0.0),
        (params.alpha1, 1.0),
        (-params.alpha2, params.gamma),
    )


def _drift_terms(params: ModelParams) -> tuple[tuple[float, float], ...]:
    """(coefficient, exponent) pairs of the transformed drift."""
    r = params.rho
    s = r - 1.0
    return (
        (-s * params.alpha_m1, (r + 1.0) / s),
        (s * params.alpha0, r / s),
        (-s * params.alpha1, 1.0),
        (s * params.alpha2, -(params.gamma - r) / s),
        (s * r * params.alpha3**2 / 2.0, -1.0),
    )


def _diff_terms(terms: Sequence[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    return tuple((c * e, e - 1.0) for c, e in terms if c * e != 0.0)


def _powsum(terms: Sequence[tuple[float, float]], z: float) -> float:
    """Evaluate sum(c * z^e) with overflow handled by the dominant term's sign.

    Powers are exp(e*log(z)), so no term divides (a subnormal z cannot raise
    ZeroDivisionError) and none raises OverflowError.
    """
    lz = math.log(z)
    overflow_t = None
    overflow_c = 0.0
    acc = 0.0
    for c, e in terms:
        t = e * lz
        if t > 709.0:
            if overflow_t is None or t > overflow_t:
                overflow_t, overflow_c = t, c
            continue
        acc += c * math.exp(t)
    if overflow_t is not None:
        return math.copysign(math.inf, overflow_c)
    return acc


def _value_and_slope(
    terms: tuple[tuple[float, float], ...],
) -> tuple[Callable[[float], float], Callable[[float], float]]:
    return partial(_powsum, terms), partial(_powsum, _diff_terms(terms))


def make_transformed_drift(
    params: ModelParams,
) -> tuple[Callable[[float], float], Callable[[float], float]]:
    """(F, F') of the transformed drift, both evaluated by _powsum."""
    return _value_and_slope(_drift_terms(params))


def make_drift(
    params: ModelParams,
) -> tuple[Callable[[float], float], Callable[[float], float]]:
    """(f, f') of the original drift, both evaluated by _powsum."""
    return _value_and_slope(_original_drift_terms(params))


# ---------------------------------------------------------------------------
# One-sided Lipschitz bounds
# ---------------------------------------------------------------------------

Q_PROBE_LO = 1e-6
Q_PROBE_HI = 1e6
Q_GRID_POINTS = 2048
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _sup_on_positive_axis(fn: Callable[[float], float]) -> float:
    """sup of fn over (0, inf) via a log-spaced grid scan plus golden-section.

    fn must tend to -inf at both endpoints so the supremum is interior.
    The grid argmax bracket is refined to a relative width below 1e-10.
    """
    logs = np.linspace(math.log(Q_PROBE_LO), math.log(Q_PROBE_HI), Q_GRID_POINTS)
    values = [fn(math.exp(u)) for u in logs]
    i = int(np.argmax(values))
    lo = logs[max(i - 1, 0)]
    hi = logs[min(i + 1, Q_GRID_POINTS - 1)]

    # golden-section maximization on the log axis
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = fn(math.exp(x1))
    f2 = fn(math.exp(x2))
    while (b - a) > 1e-10 * max(1.0, abs(a), abs(b)):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = fn(math.exp(x2))
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = fn(math.exp(x1))
    best = max(values[i], f1, f2)
    return best


def _slope_sup(terms: tuple[tuple[float, float], ...]) -> float:
    """max(0, sup over the positive axis of the table's derivative)."""
    _, slope = _value_and_slope(terms)
    return max(0.0, _sup_on_positive_axis(slope))


@lru_cache(maxsize=128)
def one_sided_lipschitz(params: ModelParams) -> float:
    """Q = max(0, sup of the transformed drift's derivative over z > 0).

    Q*dt < 1 guarantees a unique positive implicit step. Requires the
    supercritical or critical regime (both derivative limits are -inf there).
    """
    validate_params(params)
    return _slope_sup(_drift_terms(params))


@lru_cache(maxsize=128)
def drift_one_sided_lipschitz(params: ModelParams) -> float:
    """max(0, sup of the original drift's derivative over x > 0)."""
    validate_params(params)
    return _slope_sup(_original_drift_terms(params))


# ---------------------------------------------------------------------------
# Jump coefficient families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JumpBounds:
    """Constants certifying the jump hypotheses.

    mu bounds |h'|; r is the growth constant in x + h(x) >= r*x; [mu1, mu2]
    brackets (1 + h(x)/x)^(-rho) * (1 + h'(x)). sampled marks grid-only
    evidence (Custom family) as opposed to closed forms.
    """

    mu: float
    r: float
    mu1: float
    mu2: float
    sampled: bool = False

    @property
    def band_positive(self) -> bool:
        return self.mu1 > 0.0


@dataclass(frozen=True)
class JumpCoefficient:
    """Jump size h with derivative and family metadata.

    h maps the positive pre-jump state to the jump increment; dh is its
    derivative. family is one of linear/sine/rational/zero/custom, with param
    carrying the family coefficient where applicable. declared optionally
    carries user-asserted bounds, cross-checked by validate_jump.
    """

    h: Callable[[float], float]
    dh: Callable[[float], float]
    family: str
    param: Optional[float] = None
    declared: Optional[JumpBounds] = None

    @property
    def label(self) -> str:
        if self.param is None:
            return self.family
        return f"{self.family}:{self.param:g}"


def _linear_h(x: float, c: float) -> float:
    return c * x


def _linear_dh(x: float, c: float) -> float:
    return c


def _sine_h(x: float, c: float) -> float:
    return c * math.sin(x)


def _sine_dh(x: float, c: float) -> float:
    return c * math.cos(x)


def _rational_h(x: float, c: float) -> float:
    return c * x / (1.0 + x)


def _rational_dh(x: float, c: float) -> float:
    return c / (1.0 + x) ** 2


def _zero_h(x: float) -> float:
    return 0.0


def _sine_h_array(x: np.ndarray, c) -> np.ndarray:
    return c * np.sin(x)


def _zero_h_array(x: np.ndarray, c) -> np.ndarray:
    return np.zeros_like(x)


# the forms on arrays of the built-in h(x, c), for c a number or an array
# that broadcasts against x: the same operations in the same order, with
# numpy's sin for math's
_ARRAY_H = {_linear_h: _linear_h, _sine_h: _sine_h_array, _rational_h: _rational_h}


def array_h(jump: JumpCoefficient) -> Optional[tuple[Callable, float]]:
    """(h_array, c) such that h_array(x, c) is jump.h on each element of an
    array x, if jump.h is a built-in family's; None for any other h."""
    h = jump.h
    if h is _zero_h:
        return _zero_h_array, 0.0
    if (isinstance(h, partial) and h.func in _ARRAY_H and not h.args
            and h.keywords.keys() == {"c"}):
        return _ARRAY_H[h.func], h.keywords["c"]
    return None


def linear_jump(c: float) -> JumpCoefficient:
    """h(x) = c*x; requires c > -1 so that x + h(x) stays positive."""
    return JumpCoefficient(partial(_linear_h, c=c), partial(_linear_dh, c=c), "linear", c)


def sine_jump(c: float) -> JumpCoefficient:
    """h(x) = c*sin(x)."""
    return JumpCoefficient(partial(_sine_h, c=c), partial(_sine_dh, c=c), "sine", c)


def rational_jump(c: float) -> JumpCoefficient:
    """h(x) = c*x/(1+x)."""
    return JumpCoefficient(partial(_rational_h, c=c), partial(_rational_dh, c=c), "rational", c)


def zero_jump() -> JumpCoefficient:
    """h identically zero (pure-diffusion limit)."""
    return JumpCoefficient(_zero_h, _zero_h, "zero")


def custom_jump(
    h: Callable[[float], float],
    dh: Callable[[float], float],
    declared: JumpBounds | None = None,
) -> JumpCoefficient:
    """User-supplied jump coefficient; validation is sampled-only."""
    return JumpCoefficient(h, dh, "custom", declared=declared)


def make_jump(family: str, param: float | None = None) -> JumpCoefficient:
    """Build a jump coefficient from a family tag and optional coefficient."""
    family = family.lower()
    if param is not None and not math.isfinite(param):
        raise InvalidModelError(f"jump coefficient must be finite, got {param}")
    if family == "zero":
        return zero_jump()
    if param is None:
        raise InvalidModelError(f"jump family {family!r} needs a coefficient")
    builders = {"linear": linear_jump, "sine": sine_jump, "rational": rational_jump}
    if family not in builders:
        raise InvalidModelError(f"unknown jump family {family!r}")
    return builders[family](param)


def _sinc_minimum() -> float:
    """Global minimum of sin(x)/x over x > 0 (at the root of x*cos x = sin x).

    x*cos(x) - sin(x) crosses from negative to positive on (pi, 3*pi/2).
    """
    lo, hi = math.pi, 1.5 * math.pi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.cos(mid) - math.sin(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    return math.sin(x) / x


_SINC_MIN = _sinc_minimum()


def default_probe_grid(n: int = 512, lo: float = 1e-6, hi: float = 1e6) -> np.ndarray:
    """Log-spaced probe points used for sampled assumption checks."""
    return np.exp(np.linspace(math.log(lo), math.log(hi), n))


def _band_from_intervals(
    ratio_lo: float, ratio_hi: float, deriv_lo: float, deriv_hi: float, rho: float
) -> tuple[float, float]:
    """Bounds on (1 + h/x)^(-rho) * (1 + h') given intervals for both factors.

    ratio_* bound 1 + h(x)/x, deriv_* bound 1 + h'(x). The power factor is
    decreasing in its argument, the derivative factor increasing, so corners
    give the band. Nonpositive lower bounds collapse mu1 to 0.
    """
    if ratio_lo <= 0.0:
        return 0.0, math.inf
    power_hi = ratio_lo ** (-rho)
    power_lo = ratio_hi ** (-rho)
    mu1 = power_lo * max(deriv_lo, 0.0)
    mu2 = power_hi * max(deriv_hi, 0.0)
    return mu1, mu2


def _closed_form_bounds(jump: JumpCoefficient, rho: float) -> JumpBounds | None:
    c = jump.param
    if jump.family == "zero":
        return JumpBounds(mu=0.0, r=1.0, mu1=1.0, mu2=1.0)
    if c is not None and not math.isfinite(c):
        raise InvalidModelError(
            f"{jump.family} jump coefficient must be finite, got {c}"
        )
    if jump.family == "linear":
        if c <= -1.0:
            raise AssumptionViolation(
                f"linear jump with coefficient {c} <= -1 violates x + h(x) >= r*x",
                assumption="growth",
            )
        band = (1.0 + c) ** (1.0 - rho)
        return JumpBounds(mu=abs(c), r=1.0 + c, mu1=band, mu2=band)
    if jump.family == "sine":
        if c <= -1.0:
            raise AssumptionViolation(
                f"sine jump with coefficient {c} <= -1 violates x + h(x) >= r*x",
                assumption="growth",
            )
        r = 1.0 + c if c <= 0.0 else 1.0 + c * _SINC_MIN
        if r <= 0.0:
            raise AssumptionViolation(
                f"sine jump with coefficient {c} has no positive growth constant",
                assumption="growth",
            )
        a = abs(c)
        mu1, mu2 = _band_from_intervals(1.0 - a, 1.0 + a, 1.0 - a, 1.0 + a, rho)
        return JumpBounds(mu=a, r=r, mu1=mu1, mu2=mu2)
    if jump.family == "rational":
        if c <= -1.0:
            raise AssumptionViolation(
                f"rational jump with coefficient {c} <= -1 violates x + h(x) >= r*x",
                assumption="growth",
            )
        lo, hi = min(0.0, c), max(0.0, c)
        mu1, mu2 = _band_from_intervals(1.0 + lo, 1.0 + hi, 1.0 + lo, 1.0 + hi, rho)
        return JumpBounds(mu=abs(c), r=1.0 + lo, mu1=mu1, mu2=mu2)
    return None


def sampled_jump_bounds(
    jump: JumpCoefficient, rho: float, probes: np.ndarray
) -> JumpBounds:
    """Empirical (mu, r, mu1, mu2) over a probe grid; raises on violations."""
    mu = 0.0
    r = math.inf
    mu1 = math.inf
    mu2 = 0.0
    for x in probes:
        x = float(x)
        hx = jump.h(x)
        dhx = jump.dh(x)
        ratio = 1.0 + hx / x
        if ratio <= 0.0:
            raise AssumptionViolation(
                f"x + h(x) = {ratio * x} <= 0 at x = {x}",
                assumption="growth",
                point=x,
            )
        mu = max(mu, abs(dhx))
        r = min(r, ratio)
        band = ratio ** (-rho) * (1.0 + dhx)
        if band <= 0.0:
            raise AssumptionViolation(
                f"transform band value {band} <= 0 at x = {x}",
                assumption="band",
                point=x,
            )
        mu1 = min(mu1, band)
        mu2 = max(mu2, band)
    return JumpBounds(mu=mu, r=r, mu1=mu1, mu2=mu2, sampled=True)


def validate_jump(jump: JumpCoefficient, params: ModelParams) -> JumpBounds:
    """Derive and check the jump-coefficient constants.

    Built-in families return closed-form constants (conservative band bounds
    for sine/rational); Custom is verified on the probe grid and flagged
    sampled-only. A growth violation (x + h(x) <= 0 anywhere, or a family
    coefficient <= -1) raises AssumptionViolation. A band that cannot be
    bounded away from zero is reported via mu1 = 0, not raised: positivity
    of the scheme needs only the growth hypothesis.
    """
    probes = default_probe_grid()
    bounds = _closed_form_bounds(jump, params.rho)
    if bounds is None:
        bounds = sampled_jump_bounds(jump, params.rho, probes)
    if bounds.r <= 0.0:
        raise AssumptionViolation(
            f"growth constant r = {bounds.r} is not positive",
            assumption="growth",
        )
    declared = jump.declared
    if declared is not None:
        for x in probes:
            x = float(x)
            if abs(jump.dh(x)) > declared.mu * (1.0 + 1e-12):
                raise AssumptionViolation(
                    f"|h'({x})| exceeds declared mu = {declared.mu}",
                    assumption="derivative",
                    point=x,
                )
            if x + jump.h(x) < declared.r * x * (1.0 - 1e-12):
                raise AssumptionViolation(
                    f"x + h(x) < declared r*x at x = {x}",
                    assumption="growth",
                    point=x,
                )
    return bounds
