"""Implicit steppers: transformed jump-adapted scheme and the regular-grid baseline.

Each step solves z - dt*F(z) = rhs for the unique positive root of a strictly
increasing map (the one-sided bound Q makes G' >= 1 - Q*dt > 0, and G spans
all of R), to |residual| <= RESIDUAL_TOL * max(1, |rhs|), and is refused
when Q*dt exceeds STEP_SAFETY. The lanes are the one stepping kernel:
TjabemLanes and BemLanes step many paths at once on numpy arrays, by
Newton's method and, for a lane that needs it, the bracketed solver
_implicit_solve, and no lane depends on the others. tjabem_lanes runs a
(cells, paths) grid of them on whole meshes of one grid. tjabem_path and
bem_path, the one-path API, are one lane of tjabem_lanes and of BemLanes.

Up to about a thousand lanes a numpy call costs about the same whatever its
width, so a step costs what its number of calls does, and the lanes are
built to make few calls: a drift makes paired powers in one call, a group
of at most _FULL_WIDTH lanes works at full width rather than gathering the
lanes a rule acts on, and a jump of fewer than _VECTOR_JUMPS lanes goes
through the scalar jump_map. None of these moves a lane's bits.
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
    array_h,
    classify_regime,
    drift_one_sided_lipschitz,
    make_drift,
    make_transformed_drift,
    one_sided_lipschitz,
)
from .paths import whole_block
from .transform import _chained, _power, jump_map, lamperti_forward, lamperti_inverse

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

    # rtsafe's progress test (Press et al., Numerical Recipes, section 9.4),
    # in log space: a Newton step more than half as long as the step before
    # last is not converging fast enough, and the bracket is bisected at its
    # geometric mean instead, which crosses decades where Newton creeps up
    # by a constant factor (G(z) = z - dt*F(z) like -c*z^-k far below the
    # root); near the root Newton's steps shrink fast and keep the bits
    last = before = math.log(hi) - math.log(lo)
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
            elif 2.0 * abs(math.log(zn / z)) > before:
                zn = math.sqrt(lo) * math.sqrt(hi)
        else:
            zn = 0.5 * (lo + hi)
        if zn == z:
            zn = 0.5 * (lo + hi)
            if zn == z:
                raise SolverError(
                    f"bracket collapsed with residual {res} above tolerance {tol}"
                )
        before, last = last, abs(math.log(zn / z))
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
    The path is one lane of tjabem_lanes, and a failure raises its error.
    """
    if Q is None:
        Q = one_sided_lipschitz(params)
    n = mesh.n_intervals
    if len(increments) != n:
        raise ValueError(
            f"increments length {len(increments)} != mesh intervals {n}"
        )
    try:
        block = whole_block([mesh], [increments])
        *_, z_pre, z_post = tjabem_lanes([(params, jump, Q)], block, states=True)
    except LaneFailure as exc:
        raise exc.__cause__ from None
    trajectory = TrajectoryZ(mesh=mesh, z_pre=z_pre[0, 0], z_post=z_post[0, 0])
    return trajectory, lamperti_inverse(params.rho, float(z_post[0, 0, -1]))


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
    linear terms', then the constant terms' (rows of ones), so that one
    call multiplies every term by its coefficient and one more every slope
    term by its c*e. An exponent that is the same integer in every row is a
    chain of multiplications, which rounds the same way on every host; any
    other exponent goes to numpy's power. The chain's products are made
    depth by depth, and z^-e and z^e in one call where the rows of each
    factor pair and of the result are adjacent: the slope terms' rows put
    z^-e just before z^e and z^-1 last, just before z in the first linear
    term's row, and the chain's own pairs take adjacent rows, so a drift
    with terms in z^3, z^-3 and z^-1 makes (z^-2, z^2) and then (z^-3, z^3)
    in two calls instead of four. A call over two rows that are not
    adjacent would cost more than two calls over one. The terms are summed
    in table order, and the slope is the sum of c*e*z^e over z, in table
    order, plus the linear terms' coefficients. For a given set of cells, a
    lane gets the same operations in the same order whatever the other
    lanes are. Other cells can change them: a power is a chain only where
    its exponent is the same integer in every row, so a set1 lane's z^-3 is
    a chain when set1 runs alone but numpy's power when set2, whose term
    there has exponent -4, shares its group.
    """

    def __init__(self, tables, shape: tuple[int, int]):
        table = np.array(tables, dtype=float).reshape(len(tables), -1, 2)
        n = table.shape[1]
        exponents = table[0, :, 1].tolist()
        uniform = [bool(np.all(e == e[0])) for e in table[:, :, 1].T]
        kinds = ["constant" if same and e == 0.0 else "linear" if same and e == 1.0
                 else "slope" for e, same in zip(exponents, uniform)]
        slopes = [j for j in range(n) if kinds[j] == "slope"]
        # the slope terms' rows: the first term of each chained power -e
        # just before that of e, and the first of power -1 last, just before
        # z in the first linear term's row, so that a chain can make z^-e
        # and z^e in one call; the sums below keep table order
        first = {}
        for j in slopes:
            if uniform[j] and _chained(exponents[j]):
                first.setdefault(int(exponents[j]), j)
        mirrored = [j for e in sorted(first) if e > 0 and -e in first
                    for j in (first[-e], first[e])]
        last = [first[-1]] if -1 in first else []
        order = ([j for j in slopes if j not in mirrored + last] + mirrored + last
                 + [j for kind in ("linear", "constant")
                    for j in range(n) if kinds[j] == kind])
        n_slope, n_plain = len(slopes), n - kinds.count("constant")
        varying = [j for j in order[:n_plain] if not uniform[j]]
        # coefficient rows: each term's c in power order, the slope terms'
        # c*e, then the exponents that differ between rows
        columns = ([table[:, j, 0] for j in order]
                   + [table[:, j, 0] * table[:, j, 1] for j in order[:n_slope]]
                   + [table[:, j, 1] for j in varying])
        k = len(columns)
        power = {j: k + r for r, j in enumerate(order)}  # the row of term j's power
        scratch = itertools.count(k + n).__next__  # the next free row
        # rows[e] is the row of z^e: z and 1/z first, then the chained
        # powers, each the product of two of one sign, the larger made first
        # if it can be (z^5 = z^3 * z^2), in the row of a term of that power
        # if there is one, else in a row of its own, z^-e's just before z^e's
        chained = {}
        for j in order:
            if uniform[j] and _chained(exponents[j]):
                chained.setdefault(int(exponents[j]), power[j])
        made = {1, -1}
        products = []  # (e, a, b): z^e = z^a * z^b

        def chain(e):
            if e not in made:
                sign = 1 if e > 0 else -1
                a = max(
                    (d for d in made if 0 < d * sign < e * sign and e - d in made),
                    key=abs,
                    default=e // 2 if e % 2 == 0 else e - sign,
                )
                chain(a)
                chain(e - a)
                made.add(e)
                products.append((e, a, e - a))

        for e in sorted(chained, key=abs):
            chain(e)
        rows = dict(chained)
        for e in sorted(made, key=lambda e: (abs(e), e)):
            if e not in rows:
                rows[e] = scratch()
                if e < 0 and -e in made and -e not in rows:
                    rows[-e] = scratch()
        program = [(np.reciprocal, (rows[1], rows[-1]))]
        # the products by depth, each once its factors are made; z^-e and
        # z^e in one call over two rows where each operand's rows are
        # adjacent, as the layout above makes them for a drift's own powers
        done = {1, -1}
        while products:
            ready = [p for p in products if p[1] in done and p[2] in done]
            done.update(p[0] for p in ready)
            products = [p for p in products if p[0] not in done]
            by_power = {p[0]: p for p in ready}
            paired = {e for e, a, b in ready if e < 0 and -e in by_power and all(
                rows[x] + 1 == rows[y] for x, y in zip((e, a, b), by_power[-e]))}
            for e, a, b in ready:
                if e in paired:
                    program.append((np.multiply, tuple(
                        slice(rows[x], rows[x] + 2) for x in (a, b, e))))
                elif -e not in paired:
                    program.append((np.multiply, (rows[a], rows[b], rows[e])))
        # every other term's power: a copy of a chained one, or numpy's
        for j in order[:n_plain]:
            e = exponents[j]
            if uniform[j] and e in rows:
                if rows[e] != power[j]:
                    program.append((np.copyto, (power[j], rows[e])))
            else:
                e = e if uniform[j] else n + n_slope + varying.index(j)
                program.append((np.power, (rows[1], e, power[j])))
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
        # the slope terms' rows, in table order
        slope_rows = [slope + order.index(j) for j in slopes]
        if n_slope > 1:
            fp = [(np.add, *slope_rows[:2])]
            fp += [(np.add, r) for r in slope_rows[2:]]
            fp.append((np.multiply, rows[-1]))
        elif n_slope:
            fp = [(np.multiply, slope, rows[-1])]
        else:
            fp = [(np.multiply, rows[-1], 0.0)]
        fp += [(np.add, power[j] - k) for j in order[n_slope:n_plain]]
        self._program, self._f, self._fp = program, f, fp
        self._rows, self._ones, self._z = slope + n_slope, slice(k + n_plain, k + n), rows[1]
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
            self._bound[1][...] = z
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


# the widest lane group that refreshes moved lanes and continues pending ones
# at full width: below it a numpy call costs about the same at any width, so
# one full-width call beats the gathers and scatters of a subset
_FULL_WIDTH = 1024


class _Lanes:
    """Lanes of one scheme that take their implicit steps together.

    The states z have shape (cells, n), and lane (c, l) solves with cell
    c's drift, whose term table is tables[c] and whose scalar (value, slope)
    pair is drifts[c]. f and fp hold F(z) and F'(z) as the lanes' drift
    evaluates them, so that a step's first Newton update reuses them; once a
    lane's z is set on its own, the next step evaluates them again. A group
    of at most _FULL_WIDTH lanes evaluates every lane then, and continues
    its pending lanes with masked full-width updates; a wider group
    evaluates and continues only the lanes concerned. The drift gives a lane
    the same bits either way, so the width moves no bit. A lane that fails
    keeps its last state, is recorded in `failures` with its first error,
    and idles from then on.
    """

    def __init__(self, tables, drifts, z: np.ndarray, updates: int):
        self.drift = _LaneDrift(tables, z.shape)
        self.drifts = drifts
        self.z = z
        self.f = self.fp = None  # F(z) and F'(z), once evaluated
        self._moved = []  # lanes set since f and fp were evaluated
        self._full = z.size <= _FULL_WIDTH
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
        """Make f and fp F(z) and F'(z): every lane's the first time, then,
        if lanes were set since, every lane's in a group of at most
        _FULL_WIDTH lanes, else those of the lanes set, which _moved holds
        as (row, column) pairs of ints or of index arrays."""
        if self.f is None or self._moved and self._full:
            self.f, self.fp = self.drift(self.z)
        elif self._moved:
            moved = tuple(map(np.hstack, zip(*self._moved)))
            self.f[moved], self.fp[moved] = self.drift(self.z[moved], moved)
        self._moved = []

    def solve(self, rhs: np.ndarray, dt: np.ndarray) -> None:
        """Step every lane to the root of z - dt*F(z) = rhs.

        rhs and dt have the lanes' shape. A lane whose previous state already
        has a residual within RESIDUAL_TOL keeps it, since the tolerance
        RESIDUAL_TOL*max(1, |rhs|) is no smaller. Every other lane takes
        `updates` Newton updates; one whose residual is then above
        RESIDUAL_TOL*max(1, |rhs|), or whose z is not positive, keeps
        updating alone until it meets that tolerance or MAX_ITER updates are
        made: in a group of at most _FULL_WIDTH lanes by full-width updates
        that only the pending lanes keep, else by updates of those lanes
        gathered by flat index. A lane goes to _implicit_solve from its
        previous state once it leaves (0, inf), turns non-finite, meets
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
        # RESIDUAL_TOL keeps it; one at an exact root (a padded or failed
        # lane) stays there under Newton anyway, so it needs no keeping
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
        size = np.abs(res, tmp)
        if (np.maximum.reduce(size, None) <= RESIDUAL_TOL
                and np.minimum.reduce(z, None) > 0.0):
            return
        if z is z_prev:
            # without updates z is still the previous state, which the
            # fallback below starts from
            self.z = z.copy()
        handed = (self._continue_full if self._full else self._continue_flat)(
            size, rhs, dt, used)
        self._hand_off(handed, z_prev, rhs, dt)

    def _continue_full(self, size, rhs, dt, used) -> np.ndarray:
        """Update the pending lanes at full width, each keeping its update
        while it is pending; returns the lanes to hand off, as sorted flat
        indices."""
        z, f, fp, res = self.z, self.f, self.fp, self._res
        tol = np.maximum(1.0, np.abs(rhs)) * RESIDUAL_TOL
        pending = ~((size <= tol) & (z > 0.0))
        handed = np.zeros(z.shape, dtype=bool)
        while pending.any():
            d = 1.0 - dt * fp
            sick = pending & ~((z > 0.0) & (d > 0.0) & np.isfinite(res))
            if used >= MAX_ITER:
                sick = pending
            if sick.any():
                handed |= sick
                pending &= ~sick
                if not pending.any():
                    break
            z_n = z - res / d
            f_n, fp_n = self.drift(z_n)
            r_n = (z_n - rhs) - dt * f_n
            z, f, fp, res = (np.where(pending, new, old) for new, old in
                             ((z_n, z), (f_n, f), (fp_n, fp), (r_n, res)))
            used += 1
            pending &= ~((np.abs(r_n) <= tol) & (z_n > 0.0))
        self.z, self.f, self.fp = z, f, fp
        return np.flatnonzero(handed)

    def _continue_flat(self, size, rhs, dt, used) -> np.ndarray:
        """Update the pending lanes alone, gathered by flat index: they are
        found once, and only they are tested and updated from then on;
        returns the lanes to hand off, as sorted flat indices."""
        z, f, fp = self.z, self.f, self.fp
        idx = np.flatnonzero(~((size <= RESIDUAL_TOL) & (z > 0.0)))
        zc, fc, fpc, rc, rhs_c, dt_c = (np.take(a, idx) for a in (z, f, fp, self._res, rhs, dt))
        tol = np.maximum(1.0, np.abs(rhs_c)) * RESIDUAL_TOL
        lanes = np.unravel_index(idx, z.shape)
        pending = np.flatnonzero(~((np.abs(rc) <= tol) & (zc > 0.0)))
        handed = []
        while pending.size:
            z_p = zc[pending]
            d = 1.0 - dt_c[pending] * fpc[pending]
            sick = ~((z_p > 0.0) & (d > 0.0) & np.isfinite(rc[pending]))
            if used >= MAX_ITER:
                sick[:] = True
            if sick.any():
                handed.append(pending[sick])
                well = ~sick
                pending, z_p, d = pending[well], z_p[well], d[well]
                if not pending.size:
                    break
            # only the pending lanes move, so only theirs are evaluated again
            z_p = z_p - rc[pending] / d
            f_p, fp_p = self.drift(z_p, tuple(axis[pending] for axis in lanes))
            r_p = (z_p - rhs_c[pending]) - dt_c[pending] * f_p
            zc[pending], fc[pending], fpc[pending], rc[pending] = z_p, f_p, fp_p, r_p
            used += 1
            pending = pending[~((np.abs(r_p) <= tol[pending]) & (z_p > 0.0))]
        np.put(z, idx, zc)
        np.put(f, idx, fc)
        np.put(fp, idx, fpc)
        return np.sort(idx[np.concatenate(handed)]) if handed else idx[:0]

    def _hand_off(self, handed: np.ndarray, z_prev, rhs, dt) -> None:
        """Solve the lanes at these flat indices with _implicit_solve from
        their previous states, in index order; a lane with dt = 0 keeps its
        previous state, and a lane whose solve fails keeps it and fails."""
        for lane in zip(*np.unravel_index(handed, self.z.shape)):
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


class _LaneJump:
    """The transformed jump map z -> (x + h(x))^(1-rho), x = z^(1/(1-rho)),
    on arrays of lanes, row c by cell c's map, every row at once.

    Both powers are _power's at the cell's exponents, taken for the rows of
    each rho together, and h is its family's array form (model.array_h) at
    the cell's coefficient, taken on every row and kept on those of its
    family. A lane whose h(x) is zero keeps its z, as jump_map does. A
    lane's operations thus depend on its cell alone, so it gets the same
    bits alone as with any other lanes and cells.
    """

    def __init__(self, cells):
        rhos = [params.rho for params, _ in cells]
        self._rows = [(slice(None) if len(set(rhos)) == 1
                       else np.flatnonzero(np.array(rhos) == rho), rho)
                      for rho in dict.fromkeys(rhos)]
        forms = [array_h(jump) for _, jump in cells]
        self._c = np.array([0.0 if form is None else form[1] for form in forms])[:, None]
        funcs = list(dict.fromkeys(form[0] for form in forms if form is not None))
        self._h = [(h, np.array([form is not None and form[0] is h for form in forms])[:, None])
                   for h in funcs]
        # rows with no array form, which jump_map maps one lane at a time
        self._scalar = np.array([form is None for form in forms])[:, None]
        self._any_scalar = bool(self._scalar.any())

    def _powers(self, values: np.ndarray, forward: bool) -> np.ndarray:
        if len(self._rows) == 1:
            ((_, rho),) = self._rows
            return _power(values, 1.0 - rho if forward else 1.0 / (1.0 - rho))
        out = np.empty_like(values)
        for rows, rho in self._rows:
            out[rows] = _power(values[rows], 1.0 - rho if forward else 1.0 / (1.0 - rho))
        return out

    def __call__(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The mapped states of the lanes z, and where they are jump_map's:
        where the cell's h has an array form and z, x, x + h(x) and the
        result are all finite and positive. The other lanes are left to the
        scalar jump_map, which maps them or raises its error."""
        if not self._h:
            return z, np.zeros(z.shape, dtype=bool)
        x = self._powers(z, forward=False)
        (h, _), *others = self._h
        hx = h(x, self._c)
        for h, rows in others:
            hx = np.where(rows, h(x, self._c), hx)
        moved = x + hx
        out = np.where(hx == 0.0, z, self._powers(moved, forward=True))
        ok = ((np.minimum(np.minimum(z, x), np.minimum(moved, out)) > 0.0)
              & (np.maximum(x, out) < math.inf))
        if self._any_scalar:
            ok &= ~self._scalar
        return out, ok


# the fewest lanes a jump step maps with _LaneJump: fewer go through jump_map
# one at a time, at about 5-7 us a lane against the vector map's fixed cost
# of about 25 us (measured on 128 lanes; the break-even is 3 to 4 lanes)
_VECTOR_JUMPS = 4


def _columns(rows: np.ndarray) -> np.ndarray:
    """The columns of a (lanes, steps) array, each as a (1, lanes) array."""
    return rows.T.copy()[:, None, :]


class TjabemLanes(_Lanes):
    """Lanes of the transformed scheme's steps.

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
        self._jump = _LaneJump(cells)
        self.noise = np.ascontiguousarray(
            np.broadcast_to(
                np.array([(1.0 - p.rho) * p.alpha3 for p, _ in cells])[:, None], z.shape
            )
        )

    def step(self, dt: np.ndarray, dw: np.ndarray) -> None:
        """One step with these step sizes and Brownian increments per lane."""
        self.solve(self.z + self.noise * dw, dt)

    def jump_columns(self, columns) -> None:
        """Apply the transformed jump map to the live lanes of the given
        columns in every row.

        Fewer than _VECTOR_JUMPS lanes go through jump one at a time.
        Otherwise the lanes that _LaneJump maps are set together, and every
        other live lane goes through jump; jump_map gives a lane the bits
        _LaneJump would, so the route moves no bit.
        """
        if len(columns) * len(self.cells) < _VECTOR_JUMPS:
            for row in range(len(self.cells)):
                for column in columns:
                    self.jump((row, int(column)))
            return
        columns = np.asarray(columns)
        out, done = self._jump(self.z[:, columns])
        if self._alive is not None:
            done &= self._alive[:, columns] == 1.0
        rows, at = np.nonzero(done)
        if rows.size:
            lanes = (rows, columns[at])
            self.z[lanes] = out[rows, at]
            self._moved.append(lanes)
        if rows.size < done.size:
            for row, at in zip(*np.nonzero(~done)):
                self.jump((int(row), int(columns[at])))

    def jump(self, lane: tuple[int, int]) -> None:
        """Apply the scalar jump map to one live lane, for jump_columns."""
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
        # the noise terms of every step in one call
        dt, noise = _columns(dt), _columns(dw) * self.noise
        for k in range(dt.shape[0]):
            self.solve(self.z + noise[k], dt[k])
            if k in jumps:
                self.jump_columns(jumps[k])

    def terminal(self, lane: tuple[int, int]) -> float:
        """The lane's state in original coordinates; nan if the lane failed."""
        if self.alive(lane):
            try:
                return lamperti_inverse(self.cells[lane[0]][0].rho, float(self.z[lane]))
            except _LANE_ERRORS as exc:
                self.fail(lane, exc)
        return math.nan


class BemLanes(_Lanes):
    """Lanes of the baseline scheme's steps, in original coordinates, for one model.

    x holds the states, of shape (1, n); jump counts enter a step's
    right-hand side through jump.h, on arrays for a built-in family.
    """

    def __init__(self, params: ModelParams, jump: JumpCoefficient, x: np.ndarray,
                 updates: int):
        super().__init__(
            [_original_drift_terms(params)], [make_drift(params)], x, updates
        )
        self.params = params
        self.h = jump.h
        self._h = array_h(jump)
        self.alpha3 = np.full(x.shape, params.alpha3)

    def run(self, dt: np.ndarray, dw: np.ndarray, counts) -> None:
        """Step the lanes through the columns of dt and dw.

        dt and dw have one row per lane; counts maps a step k to two
        arrays, the lanes with jumps in its interval and their numbers of
        jumps. A failed lane's right-hand side is not used, so every listed
        lane's h(x)*dn is added.
        """
        a3, rho = self.alpha3, self.params.rho
        dt, dw = _columns(dt), _columns(dw)
        for k in range(dt.shape[0]):
            x = self.z
            rhs = x + a3 * x**rho * dw[k]
            if k in counts:
                lanes, dn = counts[k]
                if self._h is not None:
                    h, c = self._h
                    rhs[0, lanes] += h(x[0, lanes], c) * dn
                else:
                    for lane, n in zip(lanes.tolist(), dn.tolist()):
                        if self.alive((0, lane)):
                            try:
                                rhs[0, lane] += self.h(float(x[0, lane])) * n
                            except _LANE_ERRORS as exc:
                                self.fail((0, lane), exc)
            self.solve(rhs, dt[k])


# Newton updates every lane takes before its residual is checked: enough for
# most lanes of the positivity table's steps (dt from 1/32 to 1/128), which
# the moment probe and the one-path API take too
_TABLE_UPDATES = 3


def tjabem_lanes(
    cells: Sequence[tuple[ModelParams, JumpCoefficient, float]], block,
    states: bool = False,
) -> tuple[np.ndarray, ...]:
    """Run the transformed scheme on every (cell, path) lane at once.

    Cell c is (params, jump, Q). block holds whole meshes of one M-step grid
    on [0, T] in the padded layout of a paths.Block (grid intervals 0..M-1):
    lane (c, p) runs cell c on path p's steps, row p of block.dt and
    block.dw, and jumps at the end of each step where block.jumps lists
    path p. The zero steps that pad shorter meshes leave a lane as it is.
    Returns the lanes' terminal z and their counts of nonpositive post-jump states, both of
    shape (cells, paths), and, given states, every node's state before and
    after its jump, of shape (cells, paths, nodes). A failure raises
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
            # the guard, then the initial state
            _check_step_guard(q, block.T / block.hi)
            z[c] = lamperti_forward(params.rho, params.x0)
        except _LANE_ERRORS as exc:
            failures.update(((c, p), exc) for p in range(n_paths))
    n_nonpositive = (z <= 0.0).astype(int)
    if states:
        z_pre = np.empty((*shape, block.dt.shape[1] + 1))
        z_pre[..., 0] = z
        z_post = z_pre.copy()
    dt_k, dw_k = np.empty(shape), np.empty(shape)
    with np.errstate(all="ignore"):
        lanes = TjabemLanes([cell[:2] for cell in cells], z, _TABLE_UPDATES)
        for lane, exc in failures.items():
            lanes.fail(lane, exc)
        for k in range(block.dt.shape[1]):
            dt_k[:] = block.dt[:, k]
            dw_k[:] = block.dw[:, k]
            lanes.step(dt_k, dw_k)
            if states:
                z_pre[..., k + 1] = lanes.z
            if k in block.jumps:
                jumped = np.array(block.jumps[k])
                lanes.jump_columns(jumped)
                # each path is listed once per step
                n_nonpositive[:, jumped] += lanes.z[:, jumped] <= 0.0
            if states:
                z_post[..., k + 1] = lanes.z
    if lanes.failures:
        c, p = min(lanes.failures, key=lambda lane: lane[::-1])
        error = lanes.failures[c, p]
        raise LaneFailure(error, c, p) from error
    if states:
        return lanes.z, n_nonpositive, z_pre, z_post
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

    Each step solves x_{k+1} - dt*f(x_{k+1}) = x_k + g(x_k)*dW_k + h(x_k)*dN_k;
    the guard constant is the clamped supremum of f'. Jump counts may exceed
    one per interval. Returns the terminal state. The path is one lane of
    BemLanes, and a failure raises its error.
    """
    if M < 1:
        raise ValueError(f"M must be a positive integer, got {M}")
    if len(increments) != M or len(jump_counts) != M:
        raise ValueError("increments and jump_counts must have length M")
    if q_drift is None:
        q_drift = drift_one_sided_lipschitz(params)
    dt = params.T / M
    _check_step_guard(q_drift, dt)
    lanes = BemLanes(params, jump, np.full((1, 1), params.x0), _TABLE_UPDATES)
    dn = np.asarray(jump_counts, dtype=np.int64)
    counts = {k: (np.zeros(1, dtype=np.intp), dn[k : k + 1]) for k in np.flatnonzero(dn).tolist()}
    with np.errstate(all="ignore"):
        lanes.run(np.full((1, M), dt), np.asarray(increments, dtype=float)[None], counts)
    for error in lanes.failures.values():
        raise error
    return float(lanes.z[0, 0])


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
