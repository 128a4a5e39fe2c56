"""Implicit steppers: transformed jump-adapted scheme and the regular-grid baseline.

Each step solves z - dt*F(z) = rhs for the unique positive root of a strictly
increasing map (the one-sided bound Q makes G' >= 1 - Q*dt > 0, and G spans
all of R). The path loops run a Newton-first step inline: plain Newton from
the previous state, with F and F' evaluated together from shared powers and
a bracket (lo, hi) narrowed by the sign of each residual. The step is
accepted at |residual| <= RESIDUAL_TOL * max(1, |rhs|), the same contract as
the bracketed solver. As soon as an iterate leaves (lo, hi), 1 - dt*F' is not
positive, a power overflows or MAX_ITER runs out, the unchanged step goes to
_implicit_solve: safeguarded Newton with a bisection fallback inside a
bracket that is expanded geometrically until it straddles the root. That
solver also backs implicit_step_z and is the tests' oracle. The loops take
their coefficients and exponents from the drift's term table in model, and
the fallback evaluates the same table with model's guarded evaluator. Every
step is refused when Q*dt exceeds STEP_SAFETY.

The lanes step many paths at once in numpy arrays. TjabemLanes takes
tjabem_path's step and BemLanes bem_path's, on states of shape (cells, n):
a lane whose previous state already has a residual within RESIDUAL_TOL
keeps it, as the path loops would; every other lane makes a fixed number of
Newton updates from it, then those not yet within the residual contract
continue alone; a lane that
leaves (0, inf), turns non-finite or meets 1 - dt*F' <= 0 goes to
_implicit_solve on its own, and jumps are per-lane calls. After a jump or a
fallback, F and F' are evaluated again on the lanes that moved only. A lane
group's F and F' are compiled once into a straight-line program of numpy
calls over a preallocated buffer, one call for every term's product with its
coefficient, so that a step costs few numpy calls. Every operation is
elementwise, so a lane never depends on the other lanes, and integer powers
are chains of multiplications, so a lane rounds the same on every host. A lane meets the same residual contract as the path loops,
which it therefore matches to within that contract.
tjabem_lanes runs the positivity table's (cells, paths) grid of lanes on
whole meshes of one grid, in a block's padded layout.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .mesh import JumpAdaptedMesh
from .model import (
    JumpCoefficient,
    ModelParams,
    Regime,
    _drift_terms,
    _original_drift_terms,
    classify_regime,
    drift_one_sided_lipschitz,
    make_drift,
    make_transformed_drift,
    one_sided_lipschitz,
)
from .transform import jump_map, lamperti_forward, lamperti_inverse

__all__ = [
    "RESIDUAL_TOL",
    "MAX_ITER",
    "STEP_SAFETY",
    "SolverError",
    "TrajectoryZ",
    "StepSizeDiagnostics",
    "implicit_step_z",
    "tjabem_path",
    "tjabem_lanes",
    "TjabemLanes",
    "BemLanes",
    "LaneFailure",
    "bem_path",
    "step_size_diagnostics",
]


class SolverError(RuntimeError):
    """A run failed: a nonlinear solve, a step-size guard or an order fit."""


# RESIDUAL_TOL bounds |z - dt*F(z) - rhs| relative to max(1, |rhs|);
# STEP_SAFETY is the required bound on Q*base_dt (it must stay below 1 for the
# implicit step to be well posed; solves are refused above it and warned
# about above 0.25); _BRACKET_FLOOR guards the bracket against underflow.
RESIDUAL_TOL = 1e-12
MAX_ITER = 200
STEP_SAFETY = 0.5
_BRACKET_FLOOR = 1e-300


@dataclass(frozen=True)
class TrajectoryZ:
    """Transformed-state trajectory: left limits and post-jump values per node.

    z_post equals z_pre at non-jump nodes and the jump-mapped value at jump
    nodes; every entry is strictly positive.
    """

    mesh: JumpAdaptedMesh
    z_pre: np.ndarray
    z_post: np.ndarray


@dataclass(frozen=True)
class StepSizeDiagnostics:
    """Advisory small-step checks for the inverse-moment theory.

    q_dt is the product gating the implicit solve (must stay below 1);
    the two booleans report sufficient inequalities evaluated at epsilon.
    They do not gate stepping.
    """

    q_dt: float
    power_condition_ok: bool
    epsilon_condition_ok: bool
    epsilon: float
    p: Optional[float] = None


_BRACKET_SPREAD = 1e3
_BRACKET_CAP = 1e300


def _implicit_solve(
    fval: Callable[[float], float],
    fslope: Callable[[float], float],
    dt: float,
    rhs: float,
    z_init: float | None,
) -> float:
    """Unique positive root of z - dt*fval(z) = rhs via safeguarded Newton."""
    tol = RESIDUAL_TOL * max(1.0, abs(rhs))
    floor = _BRACKET_FLOOR

    if z_init is not None and z_init > 0.0:
        z = z_init
    else:
        z = rhs if rhs > 1.0 else 1.0
    lo = max(floor, z / _BRACKET_SPREAD)
    hi = z * _BRACKET_SPREAD

    expansions = 0
    while (lo - rhs) - dt * fval(lo) > 0.0:
        if lo <= floor:
            raise SolverError(
                f"bracket expansion failed near zero (rhs={rhs}, dt={dt})"
            )
        lo = max(floor, lo / _BRACKET_SPREAD)
        expansions += 1
        if expansions > 200:
            raise SolverError(f"bracket expansion failed (rhs={rhs}, dt={dt})")
    while (hi - rhs) - dt * fval(hi) < 0.0:
        if hi >= _BRACKET_CAP:
            raise SolverError(
                f"bracket expansion failed toward infinity (rhs={rhs}, dt={dt})"
            )
        hi = min(_BRACKET_CAP, hi * _BRACKET_SPREAD)
        expansions += 1
        if expansions > 200:
            raise SolverError(f"bracket expansion failed (rhs={rhs}, dt={dt})")
    if not (lo <= z <= hi):
        z = math.sqrt(lo * hi)

    for _ in range(MAX_ITER):
        res = (z - rhs) - dt * fval(z)
        if abs(res) <= tol:
            return z
        if res < 0.0:
            lo = z
        else:
            hi = z
        d = 1.0 - dt * fslope(z)
        if math.isfinite(d) and d > 0.0:
            zn = z - res / d
            if not (lo < zn < hi):
                zn = 0.5 * (lo + hi)
        else:
            zn = 0.5 * (lo + hi)
        if zn == z:
            zn = 0.5 * (lo + hi)
            if zn == z:
                raise SolverError(
                    f"bracket collapsed with residual {res} above tolerance {tol}"
                )
        z = zn
    raise SolverError(
        f"implicit solve did not converge within {MAX_ITER} iterations "
        f"(rhs={rhs}, dt={dt})"
    )


def _check_step_guard(q: float, base_dt: float) -> float:
    q_dt = q * base_dt
    if q_dt > STEP_SAFETY:
        raise SolverError(
            f"step-size guard violated: Q*dt = {q_dt} exceeds step_safety = "
            f"{STEP_SAFETY}"
        )
    if q_dt > 0.25:
        warnings.warn(
            f"Q*dt = {q_dt:.4g} above 0.25; the implicit step is well posed "
            f"but poorly conditioned",
            RuntimeWarning,
            stacklevel=3,
        )
    return q_dt


def implicit_step_z(
    params: ModelParams,
    Q: float,
    rhs: float,
    dt: float,
    z_init: float | None = None,
) -> float:
    """Solve z - dt*F(z) = rhs for the unique positive z.

    Existence and uniqueness hold for every real rhs because G(z) = z - dt*F(z)
    is strictly increasing (G' >= 1 - Q*dt > 0) with G -> -inf as z -> 0+ and
    G -> +inf as z -> inf. z_init seeds the bracket (defaults to a heuristic).
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be strictly positive, got {dt}")
    _check_step_guard(Q, dt)
    value, slope = make_transformed_drift(params)
    return _implicit_solve(value, slope, dt, rhs, z_init)


def tjabem_path(
    params: ModelParams,
    jump: JumpCoefficient,
    mesh: JumpAdaptedMesh,
    increments: Sequence[float],
    Q: float | None = None,
) -> tuple[TrajectoryZ, float]:
    """Run the transformed jump-adapted implicit scheme along one path.

    Starting from z = x0^(1-rho), each interval solves the implicit relation
    z_pre[k+1] - dt_k*F(z_pre[k+1]) = z_post[k] + (1-rho)*a3*dW_k, then applies
    the transformed jump update at jump nodes. Returns the transformed
    trajectory and the terminal state mapped back to original coordinates.
    """
    if Q is None:
        Q = one_sided_lipschitz(params)
    n = mesh.n_intervals
    if len(increments) != n:
        raise ValueError(
            f"increments length {len(increments)} != mesh intervals {n}"
        )
    _check_step_guard(Q, mesh.base_dt)

    value, slope = make_transformed_drift(params)
    # the third and fifth terms are c3*z and c5/z
    (c1, e1), (c2, e2), (c3, _), (c4, e4), (c5, _) = _drift_terms(params)
    d1, d2, d4 = c1 * e1, c2 * e2, c4 * e4
    noise_coef = (1.0 - params.rho) * params.alpha3
    rtol, floor, cap = RESIDUAL_TOL, _BRACKET_FLOOR, _BRACKET_CAP
    iters = range(MAX_ITER)
    dt = mesh.dt.tolist()
    flags = mesh.is_jump.tolist()
    dws = np.asarray(increments, dtype=float).tolist()

    z = lamperti_forward(params.rho, params.x0)
    z_pre = [z]
    z_post = [z]
    # fz = F(z_eval) and fpz = F'(z_eval): a step starts where the previous
    # one was accepted, so its first iteration reuses them unless a jump or
    # the fallback moved z
    z_eval = 0.0
    for k in range(n):
        dt_k = dt[k]
        z_prev = z
        rhs = z + noise_coef * dws[k]
        # rtol * max(1, |rhs|), without the slower builtin calls
        tol = rtol * rhs if rhs > 1.0 else (-rtol * rhs if rhs < -1.0 else rtol)
        lo, hi = floor, cap
        solved = False
        # Newton starts only from a positive state; from any other (which
        # only a jump map leaving the domain makes) the bracketed solver
        # finds the unique positive root, as it does for the lanes
        for _ in iters if z > 0.0 else ():
            if z != z_eval:
                # F and F' share the powers z^e (z^(e-1) = z^e / z)
                inv = 1.0 / z
                try:
                    p1 = z**e1
                    p2 = z**e2
                    p4 = z**e4
                except OverflowError:
                    break
                fz = c1 * p1 + c2 * p2 + c3 * z + c4 * p4 + c5 * inv
                fpz = (d1 * p1 + d2 * p2 + d4 * p4 - c5 * inv) * inv + c3
                z_eval = z
            res = (z - rhs) - dt_k * fz
            if -tol <= res <= tol:
                solved = True
                break
            if res < 0.0:
                lo = z
            else:
                hi = z
            d = 1.0 - dt_k * fpz
            if not d > 0.0:
                break
            z_new = z - res / d
            if not lo < z_new < hi:
                break
            z = z_new
        if not solved:
            z = _implicit_solve(value, slope, dt_k, rhs, z_prev)
        z_pre.append(z)
        if flags[k + 1]:
            z = jump_map(params, jump, z)
        z_post.append(z)

    trajectory = TrajectoryZ(
        mesh=mesh, z_pre=np.asarray(z_pre), z_post=np.asarray(z_post)
    )
    return trajectory, lamperti_inverse(params.rho, z)


class LaneFailure(SolverError):
    """Lane (cell, path) of tjabem_lanes failed with error, whose message it keeps."""

    def __init__(self, error: Exception, cell: int, path: int):
        super().__init__(str(error))
        self.cell = cell
        self.path = path


# errors of one lane's guard, fallback solve or jump; anything else is a bug
_LANE_ERRORS = (SolverError, ValueError, OverflowError)


class _LaneDrift:
    """A drift and its slope on arrays of lanes, compiled once into a
    straight-line program of numpy calls over a preallocated buffer.

    Row c of the lanes takes the (coefficient, exponent) table tables[c].
    The buffer is 2-D, a row per coefficient column, power or term and a
    column per lane, the lanes flattened; the program's operands are views
    of it made once, and every call writes to one of them except the first
    of each sum, which makes the new array F or F' is returned in.
    The terms' powers fill consecutive rows: the slope terms', then the
    linear terms', then the constant terms' (rows of ones), each in table
    order, so that one call multiplies every term by its coefficient and
    one more every slope term by its c*e. An exponent that is the same
    integer in every row is a chain of multiplications, which rounds the
    same way on every host; any other exponent goes to numpy's power. The
    terms are summed in table order, and the slope is the sum of c*e*z^e
    over z plus the linear terms' coefficients, as in the path loops. A
    lane gets the same operations in the same order whatever the other
    lanes are.
    """

    def __init__(self, tables, shape: tuple[int, int]):
        table = np.array(tables, dtype=float).reshape(len(tables), -1, 2)
        n = table.shape[1]
        exponents = table[0, :, 1].tolist()
        uniform = [bool(np.all(e == e[0])) for e in table[:, :, 1].T]
        kinds = ["constant" if same and e == 0.0 else "linear" if same and e == 1.0
                 else "slope" for e, same in zip(exponents, uniform)]
        order = [j for kind in ("slope", "linear", "constant")
                 for j in range(n) if kinds[j] == kind]
        n_slope, n_plain = kinds.count("slope"), n - kinds.count("constant")
        varying = [j for j in order[:n_plain] if not uniform[j]]
        # coefficient rows: each term's c in power order, the slope terms'
        # c*e, then the exponents that differ between rows
        columns = ([table[:, j, 0] for j in order]
                   + [table[:, j, 0] * table[:, j, 1] for j in order[:n_slope]]
                   + [table[:, j, 1] for j in varying])
        k = len(columns)
        power = {j: k + r for r, j in enumerate(order)}  # the row of term j's power
        scratch = itertools.count(k + n).__next__  # the next free row
        # slots[e] is the row of z^e: z and 1/z first, then the chained
        # powers, each the product of two of one sign, the larger made first
        # if it can be (z^5 = z^3 * z^2), in the row of a term of that power
        # if there is one
        chained = {}
        for j in order:
            e = exponents[j]
            if uniform[j] and e == round(e) and 0 < abs(e) <= 64:
                chained.setdefault(int(e), power[j])
        slots = {e: chained[e] if e in chained else scratch() for e in (1, -1)}
        program = [(np.reciprocal, (slots[1], slots[-1]))]

        def chain(e):
            if e not in slots:
                sign = 1 if e > 0 else -1
                a = max(
                    (d for d in slots if 0 < d * sign < e * sign and e - d in slots),
                    key=abs,
                    default=e // 2 if e % 2 == 0 else e - sign,
                )
                chain(a)
                chain(e - a)
                slots[e] = chained[e] if e in chained else scratch()
                program.append((np.multiply, (slots[a], slots[e - a], slots[e])))

        for e in sorted(chained, key=abs):
            chain(e)
        # every other term's power: a copy of a chained one, or numpy's
        for j in order[:n_plain]:
            e = exponents[j]
            if uniform[j] and e in slots:
                if slots[e] != power[j]:
                    program.append((np.copyto, (power[j], slots[e])))
            else:
                e = e if uniform[j] else n + n_slope + varying.index(j)
                program.append((np.power, (slots[1], e, power[j])))
        # the terms, then the slope terms, each in rows of their own
        terms = scratch()
        slope = terms + n
        if n > 1:
            program.append((np.multiply, (slice(0, n), slice(k, k + n),
                                          slice(terms, terms + n))))
            f = [(np.add, terms + power[0] - k, terms + power[1] - k)]
            f += [(np.add, terms + power[j] - k) for j in range(2, n)]
        else:
            f = [(np.multiply, 0, k)]
        if n_slope:
            program.append((np.multiply, (slice(n, n + n_slope), slice(k, k + n_slope),
                                          slice(slope, slope + n_slope))))
        if n_slope > 1:
            fp = [(np.add, slope, slope + 1)]
            fp += [(np.add, slope + i) for i in range(2, n_slope)]
            fp.append((np.multiply, slots[-1]))
        elif n_slope:
            fp = [(np.multiply, slope, slots[-1])]
        else:
            fp = [(np.multiply, slots[-1], 0.0)]
        fp += [(np.add, power[j] - k) for j in order[n_slope:n_plain]]
        self._program, self._f, self._fp = program, f, fp
        self._rows, self._ones, self._z = slope + n_slope, slice(k + n_plain, k + n), slots[1]
        full = np.empty((self._rows, math.prod(shape)))
        for r, column in enumerate(columns):
            full[r].reshape(shape)[...] = column[:, None]
        self._coefs = full[:k].reshape(k, *shape)
        self._bound = self._bind(full, shape)
        # programs for subsets of lanes, by their number rounded up to a
        # power of two (an index can repeat a lane): a subset's lanes fill
        # the first columns, and the rest hold z = 1 and stale coefficients
        self._subsets: dict[int, tuple] = {}

    def _bind(self, buffer: np.ndarray, shape) -> tuple:
        """The program on this buffer, for lanes of this shape: its operands
        made views, a row given by its index and rows by a slice."""
        buffer[self._ones] = 1.0

        def view(ref):
            if type(ref) is int:
                return buffer[ref].reshape(shape)
            return buffer[ref] if type(ref) is slice else ref

        (u, *f), (v, *fp) = self._f, self._fp
        return (
            buffer,
            view(self._z),
            [(ufunc, tuple(map(view, args))) for ufunc, args in self._program],
            (u[0], *map(view, u[1:])),
            [(ufunc, view(x)) for ufunc, x in f],
            (v[0], *map(view, v[1:])),
            [(ufunc, view(x)) for ufunc, x in fp],
        )

    def __call__(self, z: np.ndarray, lanes=None) -> tuple[np.ndarray, np.ndarray]:
        """F(z) and F'(z) on every lane, or, given an index `lanes` into the
        lanes' shape, on those lanes only, z holding their states: each
        takes its own coefficients and exponents, so it gets the bits the
        full evaluation gives it. Both come back as new arrays."""
        if lanes is None:
            np.copyto(self._bound[1], z)
            return self._run(self._bound)
        m = z.size
        size = 1 << max(m - 1, 0).bit_length()
        bound = self._subsets.get(size)
        if bound is None:
            bound = self._subsets[size] = self._bind(np.ones((self._rows, size)), (size,))
        buffer, z_in = bound[:2]
        buffer[: len(self._coefs), :m] = self._coefs[(slice(None), *lanes)]
        z_in[:m] = z
        z_in[m:] = 1.0
        f, fp = self._run(bound)
        return f[:m], fp[:m]

    @staticmethod
    def _run(bound: tuple) -> tuple[np.ndarray, np.ndarray]:
        _, _, program, (u, a, b), f_rest, (v, c, d), fp_rest = bound
        for ufunc, args in program:
            ufunc(*args)
        f = u(a, b)
        for ufunc, x in f_rest:
            ufunc(f, x, f)
        fp = v(c, d)
        for ufunc, x in fp_rest:
            ufunc(fp, x, fp)
        return f, fp


class _Lanes:
    """Lanes of one scheme that take their implicit steps together.

    The states z have shape (cells, n), and lane (c, l) solves with cell
    c's drift, whose term table is tables[c] and whose scalar (value, slope)
    pair is drifts[c]. f and fp hold F(z) and F'(z) as the lanes' drift
    evaluates them, so that a step's first Newton update reuses them; once a
    lane's z is set on its own, the next step evaluates them again for the
    lanes that were set, with the bits a full evaluation gives them. A lane
    that fails keeps its last state, is recorded in `failures` with its
    first error, and idles from then on.
    """

    def __init__(self, tables, drifts, z: np.ndarray, updates: int):
        self.drift = _LaneDrift(tables, z.shape)
        self.drifts = drifts
        self.z = z
        self.f = self.fp = None  # F(z) and F'(z), once evaluated
        self._moved = []  # lanes set since f and fp were evaluated
        self.updates = updates
        self.failures: dict[tuple[int, int], Exception] = {}
        self._alive = None  # 1.0 per live lane and 0.0 per failed one, once any failed
        self._one = np.ones(z.shape)
        self._rtol = np.full(z.shape, RESIDUAL_TOL)
        # scratch for the residuals and the Newton update's temporaries
        self._res, self._scratch = np.empty(z.shape), np.empty(z.shape)

    def fail(self, lane: tuple[int, int], error: Exception) -> None:
        self.failures.setdefault(lane, error)
        if self._alive is None:
            self._alive = np.ones(self.z.shape)
        self._alive[lane] = 0.0

    def alive(self, lane: tuple[int, int]) -> bool:
        return self._alive is None or self._alive[lane] == 1.0

    def set(self, lane: tuple[int, int], z: float) -> None:
        self.z[lane] = z
        self._moved.append(lane)

    def refresh(self) -> None:
        """Make f and fp F(z) and F'(z): every lane's the first time, then
        those of the lanes set since."""
        if self.f is None:
            self.f, self.fp = self.drift(self.z)
        elif self._moved:
            moved = tuple(np.array(axis) for axis in zip(*self._moved))
            self.f[moved], self.fp[moved] = self.drift(self.z[moved], moved)
        self._moved = []

    def solve(self, rhs: np.ndarray, dt: np.ndarray) -> None:
        """Step every lane to the root of z - dt*F(z) = rhs.

        rhs and dt have the lanes' shape. A lane whose previous state already
        has a residual within RESIDUAL_TOL keeps it, as the path loops would,
        whose tolerance RESIDUAL_TOL*max(1, |rhs|) is no smaller. Every
        other lane takes `updates` Newton updates; one whose residual is
        then above RESIDUAL_TOL*max(1, |rhs|), or whose z is not positive,
        keeps updating alone until it meets that tolerance or MAX_ITER
        updates are made. A lane goes to _implicit_solve from its previous
        state once it leaves (0, inf), turns non-finite, meets
        1 - dt*F' <= 0 or runs out of updates. A lane with dt = 0 and
        rhs = z therefore keeps its z exactly; so does every failed lane.
        """
        self.refresh()
        z_prev, one, res, tmp = self.z, self._one, self._res, self._scratch
        if self._alive is not None:
            dt = dt * self._alive
            rhs = np.where(self._alive == 1.0, rhs, z_prev)
        z, f, fp = z_prev, self.f, self.fp
        # res = (z - rhs) - dt*f, in place (the reductions below are the
        # ufuncs' own, without the ndarray methods' wrappers)
        np.subtract(np.subtract(z, rhs, res), np.multiply(dt, f, tmp), res)
        # a lane whose previous state already has a residual within
        # RESIDUAL_TOL keeps it, as the path loops accept such a first
        # iterate; one at an exact root (a padded or failed lane) stays
        # there under Newton anyway, so it needs no keeping
        size = np.abs(res, tmp)
        kept = None
        if np.minimum.reduce(size, None) <= RESIDUAL_TOL:
            kept = (size <= self._rtol) & (size > 0.0)
        used = min(self.updates, MAX_ITER)
        for _ in range(used):
            # z - res / (1 - dt*fp)
            np.multiply(dt, fp, tmp)
            z = z - np.divide(res, np.subtract(one, tmp, tmp), tmp)
            f, fp = self.drift(z)
            np.subtract(np.subtract(z, rhs, res), np.multiply(dt, f, tmp), res)
        if kept is not None and kept.any():
            z, f, fp = (np.where(kept, old, new) for old, new in
                        ((z_prev, z), (self.f, f), (self.fp, fp)))
            np.subtract(np.subtract(z, rhs, res), np.multiply(dt, f, tmp), res)
        self.z, self.f, self.fp = z, f, fp
        # max(1, |rhs|) >= 1, so this is within the tolerance
        if (np.maximum.reduce(np.abs(res, tmp), None) <= RESIDUAL_TOL
                and np.minimum.reduce(z, None) > 0.0):
            return
        tol = np.maximum(one, np.abs(rhs)) * self._rtol
        pending = ~((np.abs(res) <= tol) & (z > 0.0))
        handed = np.zeros(z.shape, dtype=bool)
        if z is z_prev:
            # without updates z is still the previous state, which the
            # fallback below starts from
            z = z.copy()
        while pending.any():
            d = one - dt * fp
            sick = pending & ~((z > 0.0) & (d > 0.0) & np.isfinite(res))
            if used >= MAX_ITER:
                sick = pending
            handed |= sick
            pending &= ~sick
            if not pending.any():
                break
            # only the pending lanes move, so only theirs are evaluated again
            idx = np.nonzero(pending)
            z[idx] = z[idx] - res[idx] / d[idx]
            f[idx], fp[idx] = self.drift(z[idx], idx)
            res[idx] = (z[idx] - rhs[idx]) - dt[idx] * f[idx]
            used += 1
            pending &= ~((np.abs(res) <= tol) & (z > 0.0))
        self.z, self.f, self.fp = z, f, fp
        for lane in zip(*np.nonzero(handed)):
            if dt[lane] == 0.0:
                self.set(lane, float(z_prev[lane]))
                continue
            value, slope = self.drifts[lane[0]]
            try:
                z_lane = _implicit_solve(
                    value, slope, float(dt[lane]), float(rhs[lane]), float(z_prev[lane])
                )
            except _LANE_ERRORS as exc:
                z_lane = float(z_prev[lane])
                self.fail(lane, exc)
            self.set(lane, z_lane)


def _columns(rows: np.ndarray) -> np.ndarray:
    """The columns of a (lanes, steps) array, each as a (1, lanes) array."""
    return rows.T.copy()[:, None, :]


class TjabemLanes(_Lanes):
    """Lanes of tjabem_path's steps, in transformed coordinates.

    Row c of the lanes runs cell c of cells, a (params, jump) pair, from the
    states z of shape (cells, n).
    """

    def __init__(self, cells, z: np.ndarray, updates: int):
        super().__init__(
            [_drift_terms(params) for params, _ in cells],
            [make_transformed_drift(params) for params, _ in cells],
            z,
            updates,
        )
        self.cells = cells
        self.noise = np.ascontiguousarray(
            np.broadcast_to(
                np.array([(1.0 - p.rho) * p.alpha3 for p, _ in cells])[:, None], z.shape
            )
        )

    def step(self, dt: np.ndarray, dw: np.ndarray) -> None:
        """One step with these step sizes and Brownian increments per lane."""
        self.solve(self.z + self.noise * dw, dt)

    def jump(self, lane: tuple[int, int]) -> None:
        """Apply the transformed jump map to one live lane."""
        if self.alive(lane):
            params, jump = self.cells[lane[0]]
            try:
                self.set(lane, jump_map(params, jump, float(self.z[lane])))
            except _LANE_ERRORS as exc:
                self.fail(lane, exc)

    def run(self, dt: np.ndarray, dw: np.ndarray, jumps) -> None:
        """Step the one row of lanes through the columns of dt and dw.

        dt and dw have one row per lane; jumps maps a step k to the lanes
        that jump at its end.
        """
        dt, dw = _columns(dt), _columns(dw)
        for k in range(dt.shape[0]):
            self.step(dt[k], dw[k])
            for lane in jumps.get(k, ()):
                self.jump((0, lane))

    def terminal(self, lane: tuple[int, int]) -> float:
        """The lane's state in original coordinates; nan if the lane failed."""
        if self.alive(lane):
            try:
                return lamperti_inverse(self.cells[lane[0]][0].rho, float(self.z[lane]))
            except _LANE_ERRORS as exc:
                self.fail(lane, exc)
        return math.nan


class BemLanes(_Lanes):
    """Lanes of bem_path's steps, in original coordinates, for one model.

    x holds the states, of shape (1, n); jump counts enter a step's
    right-hand side through jump.h, as in bem_path.
    """

    def __init__(self, params: ModelParams, jump: JumpCoefficient, x: np.ndarray,
                 updates: int):
        super().__init__(
            [_original_drift_terms(params)], [make_drift(params)], x, updates
        )
        self.params = params
        self.h = jump.h
        self.alpha3 = np.full(x.shape, params.alpha3)

    def run(self, dt: np.ndarray, dw: np.ndarray, counts) -> None:
        """Step the lanes through the columns of dt and dw.

        dt and dw have one row per lane; counts maps a step k to the (lane,
        number of jumps) pairs of its interval.
        """
        a3, rho = self.alpha3, self.params.rho
        dt, dw = _columns(dt), _columns(dw)
        for k in range(dt.shape[0]):
            x = self.z
            rhs = x + a3 * x**rho * dw[k]
            for lane, dn in counts.get(k, ()):
                if self.alive((0, lane)):
                    try:
                        rhs[0, lane] += self.h(float(x[0, lane])) * dn
                    except _LANE_ERRORS as exc:
                        self.fail((0, lane), exc)
            self.solve(rhs, dt[k])


# Newton updates every lane takes before its residual is checked: enough for
# most lanes of the positivity table's steps (dt from 1/32 to 1/128)
_TABLE_UPDATES = 3


def tjabem_lanes(
    cells: Sequence[tuple[ModelParams, JumpCoefficient, float]], block
) -> tuple[np.ndarray, np.ndarray]:
    """Run tjabem_path on every (cell, path) lane at once.

    Cell c is (params, jump, Q). block holds whole meshes of one M-step grid
    on [0, T] in the padded layout of a paths.Block (grid intervals 0..M-1):
    lane (c, p) runs cell c on path p's steps, row p of block.dt and
    block.dw, and jumps at the nodes block.flags[p] marks. The lanes solve
    each step together by Newton's method on numpy arrays of shape (cells,
    paths); a lane goes to _implicit_solve on its own, and jumps are
    per-lane jump_map calls. The zero steps that pad shorter meshes leave a
    lane as it is. Each lane's step meets the residual contract of
    tjabem_path's, so the two agree to within it, and no lane depends on the
    others. Returns the lanes' terminal z and their counts of nonpositive
    post-jump states, both of shape (cells, paths). A failure raises
    LaneFailure for the lowest failing path and, within it, the first
    failing cell.
    """
    if block.lo != 0:
        raise ValueError(
            f"tjabem_lanes needs whole meshes, got a block from interval {block.lo}"
        )
    n_cells, n_paths = len(cells), block.dt.shape[0]
    shape = (n_cells, n_paths)
    z = np.ones(shape)
    failures = {}
    for c, (params, _, q) in enumerate(cells):
        try:
            # the guard, then the initial state, as in tjabem_path
            _check_step_guard(q, block.T / block.hi)
            z[c] = lamperti_forward(params.rho, params.x0)
        except _LANE_ERRORS as exc:
            failures.update(((c, p), exc) for p in range(n_paths))
    # jumps[k]: the paths that jump at the end of step k
    jumps: dict[int, list[int]] = {}
    for p in block.touched:
        for k in np.flatnonzero(block.flags[p][1:]).tolist():
            jumps.setdefault(k, []).append(p)
    n_nonpositive = (z <= 0.0).astype(int)
    dt_k, dw_k = np.empty(shape), np.empty(shape)
    with np.errstate(all="ignore"):
        lanes = TjabemLanes([cell[:2] for cell in cells], z, _TABLE_UPDATES)
        for lane, exc in failures.items():
            lanes.fail(lane, exc)
        for k in range(block.dt.shape[1]):
            dt_k[:] = block.dt[:, k]
            dw_k[:] = block.dw[:, k]
            lanes.step(dt_k, dw_k)
            jumped = jumps.get(k)
            if jumped:
                for p in jumped:
                    for c in range(n_cells):
                        lanes.jump((c, p))
                # a lane's jump sets its state alone, and each path is
                # listed once per step
                n_nonpositive[:, jumped] += lanes.z[:, jumped] <= 0.0
    if lanes.failures:
        c, p = min(lanes.failures, key=lambda lane: lane[::-1])
        error = lanes.failures[c, p]
        raise LaneFailure(error, c, p) from error
    return lanes.z, n_nonpositive


def bem_path(
    params: ModelParams,
    jump: JumpCoefficient,
    M: int,
    increments: Sequence[float],
    jump_counts: Sequence[int],
    q_drift: float | None = None,
) -> float:
    """Drift-implicit scheme on the uniform M-step grid, in original coordinates.

    Each step solves x_{k+1} - dt*f(x_{k+1}) = x_k + g(x_k)*dW_k + h(x_k)*dN_k
    with the same Newton-first step and fallback as the transformed scheme;
    the guard constant is the clamped supremum of f'. Jump counts may exceed
    one per interval. Returns the terminal state.
    """
    if M < 1:
        raise ValueError(f"M must be a positive integer, got {M}")
    if len(increments) != M or len(jump_counts) != M:
        raise ValueError("increments and jump_counts must have length M")
    if q_drift is None:
        q_drift = drift_one_sided_lipschitz(params)
    dt = params.T / M
    _check_step_guard(q_drift, dt)

    value, slope = make_drift(params)
    # the first three terms are c1/x, c2 and c3*x
    (c1, _), (c2, _), (c3, _), (c4, g) = _original_drift_terms(params)
    d4 = c4 * g
    a3, rho = params.alpha3, params.rho
    h = jump.h
    rtol, floor, cap = RESIDUAL_TOL, _BRACKET_FLOOR, _BRACKET_CAP
    iters = range(MAX_ITER)
    dws = np.asarray(increments, dtype=float).tolist()
    dns = np.asarray(jump_counts).tolist()

    x = params.x0
    # fx = f(x_eval) and fpx = f'(x_eval), reused as in tjabem_path
    x_eval = 0.0
    for k in range(M):
        x_prev = x
        rhs = x + a3 * x**rho * dws[k]
        dn = dns[k]
        if dn:
            rhs += h(x) * dn
        # rtol * max(1, |rhs|), without the slower builtin calls
        tol = rtol * rhs if rhs > 1.0 else (-rtol * rhs if rhs < -1.0 else rtol)
        lo, hi = floor, cap
        solved = False
        for _ in iters:
            if x != x_eval:
                # f and f' share the power x^g (x^(g-1) = x^g / x)
                inv = 1.0 / x
                try:
                    pg = x**g
                except OverflowError:
                    break
                fx = c1 * inv + c2 + c3 * x + c4 * pg
                fpx = (-c1 * inv + d4 * pg) * inv + c3
                x_eval = x
            res = (x - rhs) - dt * fx
            if -tol <= res <= tol:
                solved = True
                break
            if res < 0.0:
                lo = x
            else:
                hi = x
            d = 1.0 - dt * fpx
            if not d > 0.0:
                break
            x_new = x - res / d
            if not lo < x_new < hi:
                break
            x = x_new
        if not solved:
            x = _implicit_solve(value, slope, dt, rhs, x_prev)
    return x


def _epsilon_bound(params: ModelParams) -> float:
    """2(gamma+1-2rho)/(3rho(gamma-1)): the p-free upper end of epsilon's range."""
    gamma, rho = params.gamma, params.rho
    return 2.0 * (gamma + 1.0 - 2.0 * rho) / (3.0 * rho * (gamma - 1.0))


def step_size_diagnostics(
    params: ModelParams,
    Q: float,
    base_dt: float,
    epsilon: float,
    p: float | None = None,
) -> StepSizeDiagnostics:
    """Evaluate the two advisory small-step inequalities at a given epsilon.

    Only defined in the supercritical regime. epsilon must lie in the
    admissible open interval (0, 2(gamma+1-2rho)/(3rho(gamma-1))), further
    capped by (rho-1)/(8*rho*p) when a moment order p is supplied. Stepping
    itself is gated solely by Q*base_dt against STEP_SAFETY.
    """
    if classify_regime(params.gamma, params.rho) is not Regime.SUPERCRITICAL:
        raise SolverError("step-size diagnostics require the supercritical regime")
    gamma, rho = params.gamma, params.rho
    eps_max = _epsilon_bound(params)
    if p is not None:
        if not p >= 1.0:
            raise ValueError(f"moment order p must be >= 1, got {p}")
        eps_max = min(eps_max, (rho - 1.0) / (8.0 * rho * p))
    if not (0.0 < epsilon < eps_max):
        raise ValueError(
            f"epsilon = {epsilon} outside the admissible interval (0, {eps_max})"
        )

    m = (gamma - rho) / (rho - 1.0)
    a_m1, a1, a2, a3 = params.alpha_m1, params.alpha1, params.alpha2, params.alpha3

    power_lhs = base_dt ** ((m - 1.0) / (2.0 * m) + epsilon)
    power_rhs = a2 ** (1.0 / m) / (2.0 * (rho - 1.0) * a3 ** ((m + 1.0) / m))

    eps_lhs = base_dt**epsilon
    drift_sum = (rho - 1.0) * (a_m1 + a1)
    eps_rhs = min(
        (a2 * (rho - 1.0) / (2.0 * drift_sum + 2.0 * Q)) ** (1.0 / (m + 1.0)),
        1.0 / (2.0 + 4.0 * drift_sum + 4.0 * Q),
    )

    return StepSizeDiagnostics(
        q_dt=Q * base_dt,
        power_condition_ok=power_lhs <= power_rhs,
        epsilon_condition_ok=eps_lhs < eps_rhs,
        epsilon=epsilon,
        p=p,
    )
