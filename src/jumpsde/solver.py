"""Implicit steppers: transformed jump-adapted scheme and the regular-grid baseline.

Each step solves z - dt*F(z) = rhs for the unique positive root of a strictly
increasing map (the one-sided bound Q makes G' >= 1 - Q*dt > 0, and G spans
all of R), to |residual| <= RESIDUAL_TOL * max(1, |rhs|), and is refused
when Q*dt exceeds STEP_SAFETY. The lanes are the one stepping kernel:
TjabemLanes and BemLanes step many paths at once on numpy arrays, by
Newton's method and, for a lane that needs it, the bracketed solver
_implicit_solve, and no lane depends on the others. tjabem_lanes runs
every (cell, path) pair of a block of whole meshes as flat lanes, with one
lane per model and path until the path's first jump, at the Newton count
its caller asks for. The lanes never guard a step: an experiment checks
its initial state and its steps once, before it opens a path
(harness.check_paths). The one-path tjabem_path and bem_path guard their
own step and are one lane of tjabem_lanes and of BemLanes; no command
calls them, and they are kept, unexported, only because the benchmark's
tracer and reference script look them up as names of jumpsde.harness.

Up to about a thousand lanes a numpy call costs about the same whatever its
width, so a step costs what its number of calls and the Python between them
do, and the lanes are built to make few of both: a step writes every array
to its group's workspace and runs the drift's program inline (a reference
step is 54 numpy calls, one copy and no new array), a drift makes paired
powers in one call, a group refreshes F and F' and continues its pending
lanes at full width, at any width, rather than gathering the lanes a rule
acts on, and a jump of fewer than _VECTOR_JUMPS lanes goes through the
scalar jump_map. None of these moves a lane's bits.
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
    "tjabem_lanes",
    "TjabemLanes",
    "BemLanes",
    "LaneFailure",
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
    The step is guarded here, and the path is one lane of tjabem_lanes,
    whose failure raises its error.
    """
    if Q is None:
        Q = one_sided_lipschitz(params)
    n = mesh.n_intervals
    if len(increments) != n:
        raise ValueError(
            f"increments length {len(increments)} != mesh intervals {n}"
        )
    _check_step_guard(Q, mesh.base_dt)
    try:
        block = whole_block([mesh], [increments])
        *_, z_pre, z_post = tjabem_lanes([(params, jump)], block, states=True)
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


# errors of one lane's fallback solve, jump or inverse transform; anything
# else is a bug
_LANE_ERRORS = (SolverError, ValueError, OverflowError)


class _LaneDrift:
    """A drift and its slope on arrays of lanes, compiled once into a
    straight-line program of numpy calls over a preallocated buffer.

    Lane l takes the (coefficient, exponent) table tables[cells[l]]. The
    program runs on the first lanes, as many as bind was last given: the
    buffer holds them contiguous, a row per coefficient column, power or
    term and a column per lane, and the program's operands are views of it
    made by bind. Every call writes to one of them but the first of each
    sum, which writes F or F' to the array it is given. The terms' powers
    fill consecutive rows: the slope terms', then the linear terms', then
    the constant terms' (rows of ones), so that one call multiplies every
    term by its coefficient and one more every slope term by its c*e. An
    exponent that is the same integer in every cell is a chain of
    multiplications, which rounds the same way on every host; any other
    exponent goes to numpy's power. The chain's products are made
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
    its exponent is the same integer in every cell, so a set1 lane's z^-3 is
    a chain when set1 runs alone but numpy's power when set2, whose term
    there has exponent -4, shares its group.
    """

    def __init__(self, tables, cells: np.ndarray):
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
        # each cell's coefficients, and the buffer, whose first rows * width
        # elements hold the rows of the first `width` lanes, contiguous,
        # once bind has bound the program for that width
        self._cells = cells
        self._coefs = np.array(columns)
        self._buffer = np.empty(self._rows * cells.size)
        self._bound = None

    def bind(self, width: int) -> tuple:
        """Evaluate the first `width` lanes from now on; returns the program
        bound, its operands made views of the buffer, which a lane group's
        step runs inline."""
        buffer = self._buffer[: self._rows * width].reshape(self._rows, width)
        buffer[: len(self._coefs)] = self._coefs[:, self._cells[:width]]
        buffer[self._ones] = 1.0

        def view(ref):
            return buffer[ref] if type(ref) in (int, slice) else ref

        (u, *f), (v, *fp) = self._f, self._fp
        self._bound = (
            buffer,
            view(self._z),
            [(ufunc, tuple(map(view, args))) for ufunc, args in self._program],
            (u[0], *map(view, u[1:])),
            [(ufunc, view(x)) for ufunc, x in f],
            (v[0], *map(view, v[1:])),
            [(ufunc, view(x)) for ufunc, x in fp],
        )
        return self._bound

    def __call__(self, z: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
        """F(z) and F'(z) on the lanes bound, into the pair of arrays out
        or new ones, z being any array or the program's z row."""
        _, z_row, program, (u, a, b), f_rest, (v, c, d), fp_rest = self._bound
        if z is not z_row:
            z_row[...] = z
        f, fp = out or (None, None)
        for ufunc, args in program:
            ufunc(*args)
        f = u(a, b, f)
        for ufunc, x in f_rest:
            ufunc(f, x, f)
        fp = v(c, d, fp)
        for ufunc, x in fp_rest:
            ufunc(fp, x, fp)
        return f, fp


# a step's comparison operands: numpy converts a float on every call, which
# costs half as much again as a comparison of 128 lanes with a 0-d array
_TOL, _ZERO = np.array(RESIDUAL_TOL), np.array(0.0)


class _Lanes:
    """Lanes of one scheme that take their implicit steps together.

    The states z are a flat array, a state per lane, and lane l solves with
    the drift of cell cells[l] (cell 0 for every lane if cells is None),
    whose term table is tables[cells[l]] and whose scalar (value, slope)
    pair is drifts[cells[l]]. cells may name more lanes than z holds: widen
    adds them later, each a copy of a lane there is. f and fp hold F(z) and
    F'(z) as the lanes' drift evaluates them, so that a step's first Newton
    update reuses them; once a lane's z is set on its own, the next step
    evaluates them again on every lane. Lanes still pending after a step's
    Newton updates continue by masked updates of every lane. Every call is
    elementwise, so neither the width nor the lanes beside a lane move its
    bits. A lane that fails keeps its last state, is recorded in `failures`
    with its first error, and idles from then on.

    The lanes step in a workspace of rows with a column per lane, which
    _size lays out: two (z, F, F') triples, used in turn for a step's start
    and its iterate (z, f and fp are views of the one that holds the state),
    and rows for the right-hand side, the residual and scratch. A step's
    Newton updates run the drift's program inline, each z in the program's
    z row and F and F' in the iterate triple, and make no new array.
    """

    def __init__(self, tables, drifts, z: np.ndarray, updates: int, cells=None):
        self.lane_cells = np.zeros(z.size, dtype=np.intp) if cells is None else cells
        self.drift = _LaneDrift(tables, self.lane_cells)
        self.drifts = drifts
        self._updates = min(updates, MAX_ITER)
        self.failures: dict[int, Exception] = {}
        self._alive = None  # 1.0 per live lane and 0.0 per failed one, once any failed
        self._size(z)

    def _size(self, z: np.ndarray, f=None, fp=None) -> None:
        """Lay the workspace out for the lanes of z, whose F and F' are f
        and fp if they are evaluated, and bind the drift to their width."""
        n = z.size
        self._program = self.drift.bind(n)
        work = self._work = np.empty((11, n))
        self._triples = (work[0], work[1], work[2]), (work[3], work[4], work[5])
        self._at = 0  # the triple that holds the state
        # the right-hand side, the residual, the Newton update's scratch, a
        # failed group's step sizes and the continuation's residual
        self._rhs, self._res, self._scratch, self._dt, self._next = work[6:11]
        self._kept = np.empty((2, n), dtype=bool)
        self._one = np.ones(n)
        self.z, self.f, self.fp = self._triples[0]
        self.z[...] = z
        # whether f and fp are stale: unevaluated, or a lane was set since
        self._stale = f is None
        if f is not None:
            self.f[...], self.fp[...] = f, fp

    def widen(self, source: np.ndarray) -> None:
        """Add the next lanes of cells, one a copy of each lane of source:
        state, F, F' and failure."""
        if self._stale:
            self.refresh()
        n = self.z.size
        z, f, fp = (np.concatenate([a, a[source]]) for a in (self.z, self.f, self.fp))
        if self._alive is not None:
            self._alive = np.concatenate([self._alive, self._alive[source]])
            for lane in np.flatnonzero(self._alive[n:] == 0.0).tolist():
                self.failures.setdefault(n + lane, self.failures[int(source[lane])])
        self._size(z, f, fp)

    def fail(self, lane: int, error: Exception) -> None:
        self.failures.setdefault(lane, error)
        if self._alive is None:
            self._alive = np.ones(self.z.size)
        self._alive[lane] = 0.0

    def alive(self, lane: int) -> bool:
        return self._alive is None or self._alive[lane] == 1.0

    def set(self, lane: int, z: float) -> None:
        self.z[lane] = z
        self._stale = True

    def refresh(self) -> None:
        """Make f and fp F(z) and F'(z), evaluated on every lane."""
        self.drift(self.z, out=(self.f, self.fp))
        self._stale = False

    def solve(self, rhs: np.ndarray, dt: np.ndarray) -> None:
        """Step every lane to the root of z - dt*F(z) = rhs.

        rhs and dt hold a value per lane. A lane whose previous state
        already has a residual within RESIDUAL_TOL keeps it, since the
        tolerance RESIDUAL_TOL*max(1, |rhs|) is no smaller. Every other lane
        takes `updates` Newton updates; one whose residual is then above
        RESIDUAL_TOL*max(1, |rhs|), or whose z is not positive, keeps
        updating alone until it meets that tolerance or MAX_ITER updates are
        made, by updates of every lane that only the pending lanes keep. A
        lane goes to _implicit_solve from its previous state once it leaves
        (0, inf), turns non-finite, meets 1 - dt*F' <= 0 or runs out of
        updates. A lane with dt = 0 and rhs = z therefore keeps its z
        exactly; so does every failed lane.
        """
        if self._stale:
            self.refresh()
        subtract, multiply = np.subtract, np.multiply
        # the triple that holds the state, then the other one
        (z_prev, f_prev, fp_prev), (z_it, f_it, fp_it) = self._triples[:: 1 - 2 * self._at]
        one, res, tmp = self._one, self._res, self._scratch
        if self._alive is not None:
            dt = multiply(dt, self._alive, self._dt)
            np.copyto(self._rhs, rhs)
            np.copyto(self._rhs, z_prev, where=self._alive != 1.0)
            rhs = self._rhs
        # res = (z - rhs) - dt*f
        subtract(subtract(z_prev, rhs, res), multiply(dt, f_prev, tmp), res)
        # a lane whose previous state already has a residual within
        # RESIDUAL_TOL keeps it; one at an exact root (a padded or failed
        # lane) stays there under Newton anyway, so it needs no keeping;
        # fmin passes over a nan residual, which keeps no other lane from it
        size = np.abs(res, tmp)
        kept = None
        if np.fmin.reduce(size, None) <= RESIDUAL_TOL:
            kept, positive = self._kept
            np.logical_and(np.less_equal(size, _TOL, kept),
                           np.greater(size, _ZERO, positive), kept)
        _, z, program, (u, a, b), f_rest, (v, c, d), fp_rest = self._program
        z_n, fp = z_prev, fp_prev
        for _ in range(self._updates):
            # z - res / (1 - dt*fp), in the program's z row
            multiply(dt, fp, tmp)
            np.divide(res, subtract(one, tmp, tmp), tmp)
            z_n = subtract(z_n, tmp, z)
            for ufunc, args in program:
                ufunc(*args)
            u(a, b, f_it)
            for ufunc, x in f_rest:
                ufunc(f_it, x, f_it)
            fp = v(c, d, fp_it)
            for ufunc, x in fp_rest:
                ufunc(fp, x, fp)
            subtract(subtract(z, rhs, res), multiply(dt, f_it, tmp), res)
        if z_n is z:
            z_it[...] = z
        else:
            z_it[...], f_it[...], fp_it[...] = z_prev, f_prev, fp_prev
        if kept is not None and np.count_nonzero(kept):
            for new, old in ((z_it, z_prev), (f_it, f_prev), (fp_it, fp_prev)):
                np.copyto(new, old, where=kept)
            subtract(subtract(z_it, rhs, res), multiply(dt, f_it, tmp), res)
        self._at = 1 - self._at
        self.z, self.f, self.fp = z_it, f_it, fp_it
        # max(1, |rhs|) >= 1, so this is within the tolerance; a comparison
        # and a count cost less than a reduction, and nan fails both
        size, done = np.abs(res, tmp), self._kept
        np.less_equal(size, _TOL, done[0])
        np.greater(z_it, _ZERO, done[1])
        if np.count_nonzero(done) == done.size:
            return
        handed = self._continue(size, rhs, dt, self._updates)
        self._hand_off(handed, z_prev, rhs, dt)

    def _continue(self, size, rhs, dt, used) -> np.ndarray:
        """Update every lane, each pending lane keeping its update while it
        is pending; returns the lanes to hand off, sorted."""
        z, f, fp, res = self.z, self.f, self.fp, self._res
        _, f_n, fp_n = self._triples[1 - self._at]  # the hand-off needs its z
        z_n, r_n = self._program[1], self._next
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
            np.subtract(z, res / d, z_n)
            self.drift(z_n, out=(f_n, fp_n))
            np.subtract(np.subtract(z_n, rhs, r_n), dt * f_n, r_n)
            for new, old in ((z_n, z), (f_n, f), (fp_n, fp), (r_n, res)):
                np.copyto(old, new, where=pending)
            used += 1
            pending &= ~((np.abs(r_n) <= tol) & (z_n > 0.0))
        return np.flatnonzero(handed)

    def _hand_off(self, handed: np.ndarray, z_prev, rhs, dt) -> None:
        """Solve the lanes handed with _implicit_solve from their previous
        states, in index order; a lane with dt = 0 keeps its previous
        state, and a lane whose solve fails keeps it and fails."""
        for lane in handed.tolist():
            if dt[lane] == 0.0:
                self.set(lane, float(z_prev[lane]))
                continue
            value, slope = self.drifts[self.lane_cells[lane]]
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
    on arrays of lanes, each by its cell's map, every lane at once.

    Both powers are _power's at the cell's exponents, taken for the lanes of
    each rho together, and h is its family's array form (model.array_h) at
    the cell's coefficient, taken on every lane and kept on those of its
    family. A lane whose h(x) is zero keeps its z, as jump_map does. A
    lane's operations thus depend on its cell alone, so it gets the same
    bits alone as with any other lanes and cells.
    """

    def __init__(self, cells):
        self._rho = np.array([params.rho for params, _ in cells])
        self._rhos = list(dict.fromkeys(self._rho.tolist()))
        forms = [array_h(jump) for _, jump in cells]
        self._c = np.array([0.0 if form is None else form[1] for form in forms])
        self._funcs = list(dict.fromkeys(form[0] for form in forms if form is not None))
        # each cell's family, -1 for a cell with no array form, whose lanes
        # jump_map maps one at a time
        self._family = np.array([-1 if form is None else self._funcs.index(form[0])
                                 for form in forms])
        self._any_scalar = bool((self._family < 0).any())

    def _powers(self, values: np.ndarray, cells: np.ndarray, forward: bool) -> np.ndarray:
        if len(self._rhos) == 1:
            (rho,) = self._rhos
            return _power(values, 1.0 - rho if forward else 1.0 / (1.0 - rho))
        out = np.empty_like(values)
        rho_of = self._rho[cells]
        for rho in self._rhos:
            lanes = rho_of == rho
            out[lanes] = _power(values[lanes], 1.0 - rho if forward else 1.0 / (1.0 - rho))
        return out

    def __call__(self, z: np.ndarray, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The mapped states of the lanes z, of cells `cells`, and where they
        are jump_map's: where the cell's h has an array form and z, x,
        x + h(x) and the result are all finite and positive. The other lanes
        are left to the scalar jump_map, which maps them or raises its
        error."""
        if not self._funcs:
            return z, np.zeros(z.shape, dtype=bool)
        c = self._c[cells]
        x = self._powers(z, cells, forward=False)
        h, *others = self._funcs
        hx = h(x, c)
        if others:
            family = self._family[cells]
            for i, h in enumerate(others, 1):
                hx = np.where(family == i, h(x, c), hx)
        moved = x + hx
        out = np.where(hx == 0.0, z, self._powers(moved, cells, forward=True))
        ok = ((np.minimum(np.minimum(z, x), np.minimum(moved, out)) > 0.0)
              & (np.maximum(x, out) < math.inf))
        if self._any_scalar:
            ok &= self._family[cells] >= 0
        return out, ok


# the fewest lanes a jump step maps with _LaneJump: fewer go through jump_map
# one at a time, at about 5-7 us a lane against the vector map's fixed cost
# of about 25 us (measured on 128 lanes; the break-even is 3 to 4 lanes)
_VECTOR_JUMPS = 4


class TjabemLanes(_Lanes):
    """Lanes of the transformed scheme's steps.

    cells lists (params, jump) pairs, and lane l runs cell lane_cells[l]
    (cell 0 for every lane if lane_cells is None) from its state in z.
    """

    def __init__(self, cells, z: np.ndarray, updates: int, lane_cells=None):
        super().__init__(
            [_drift_terms(params) for params, _ in cells],
            [make_transformed_drift(params) for params, _ in cells],
            z,
            updates,
            lane_cells,
        )
        self.cells = cells
        self._jump = _LaneJump(cells)
        self._noise = np.array([(1.0 - p.rho) * p.alpha3 for p, _ in cells])
        self.noise = self._noise[self.lane_cells[: z.size]]

    def widen(self, source: np.ndarray) -> None:
        super().widen(source)
        self.noise = self._noise[self.lane_cells[: self.z.size]]

    def step(self, dt: np.ndarray, dw: np.ndarray) -> None:
        """One step with these step sizes and Brownian increments per lane."""
        rhs = np.multiply(self.noise, dw, self._rhs)
        self.solve(np.add(self.z, rhs, rhs), dt)

    def jump_lanes(self, lanes) -> None:
        """Apply the transformed jump map to the live ones of these lanes.

        Fewer than _VECTOR_JUMPS lanes go through jump one at a time.
        Otherwise the lanes that _LaneJump maps are set together, and every
        other live lane goes through jump; jump_map gives a lane the bits
        _LaneJump would, so the route moves no bit.
        """
        if len(lanes) < _VECTOR_JUMPS:
            for lane in lanes:
                self.jump(int(lane))
            return
        lanes = np.asarray(lanes)
        out, done = self._jump(self.z[lanes], self.lane_cells[lanes])
        if self._alive is not None:
            done &= self._alive[lanes] == 1.0
        at = np.flatnonzero(done)
        if at.size:
            self.z[lanes[at]] = out[at]
            self._stale = True
        if at.size < lanes.size:
            for lane in lanes[~done].tolist():
                self.jump(lane)

    def jump(self, lane: int) -> None:
        """Apply the scalar jump map to one live lane, for jump_lanes."""
        if self.alive(lane):
            params, jump = self.cells[self.lane_cells[lane]]
            try:
                self.set(lane, jump_map(params, jump, float(self.z[lane])))
            except _LANE_ERRORS as exc:
                self.fail(lane, exc)

    def run(self, dt: np.ndarray, dw: np.ndarray, jumps) -> None:
        """Step every lane through the columns of dt and dw.

        dt and dw have one row per lane; jumps maps a step k to the lanes
        that jump at its end.
        """
        # the noise terms of every step in one call
        dt, noise = dt.T.copy(), dw.T.copy() * self.noise
        rhs = self._rhs
        for k in range(dt.shape[0]):
            self.solve(np.add(self.z, noise[k], rhs), dt[k])
            if k in jumps:
                self.jump_lanes(jumps[k])

    def terminal(self, lane: int) -> float:
        """The lane's state in original coordinates; nan if the lane failed."""
        if self.alive(lane):
            try:
                return lamperti_inverse(self.cells[self.lane_cells[lane]][0].rho,
                                        float(self.z[lane]))
            except _LANE_ERRORS as exc:
                self.fail(lane, exc)
        return math.nan


class BemLanes(_Lanes):
    """Lanes of the baseline scheme's steps, in original coordinates, for one model.

    x holds the states, a flat array; jump counts enter a step's right-hand
    side through jump.h, on arrays for a built-in family.
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
        dt, dw = dt.T.copy(), dw.T.copy()
        rhs, tmp = self._rhs, self._scratch
        for k in range(dt.shape[0]):
            # x + a3 * x**rho * dw
            x = self.z
            np.multiply(np.multiply(a3, np.power(x, rho, tmp), tmp), dw[k], tmp)
            np.add(x, tmp, rhs)
            if k in counts:
                lanes, dn = counts[k]
                if self._h is not None:
                    h, c = self._h
                    rhs[lanes] += h(x[lanes], c) * dn
                else:
                    for lane, n in zip(lanes.tolist(), dn.tolist()):
                        if self.alive(lane):
                            try:
                                rhs[lane] += self.h(float(x[lane])) * n
                            except _LANE_ERRORS as exc:
                                self.fail(lane, exc)
            self.solve(rhs, dt[k])


# Newton updates every lane of a tjabem_lanes run takes before its residual
# is checked, unless the run asks for another count: the moment probe and
# the one-path API take three, and the positivity table, whose groups of
# thousands of lanes almost always leave some lane pending after three,
# takes its own count (harness._POSITIVITY_UPDATES)
_TABLE_UPDATES = 3

# the most batches in which a tjabem_lanes run's lanes of other cells start
# stepping, each batch at the first jump of its first path: each start binds
# the drift's views again and costs about 75 us, and at the benchmark's
# table 8 batches step 62% of the lane-steps of one lane per cell, 16
# batches 61%, with about the same time
_WIDTHS = 8


class _TableLayout:
    """The lanes of a tjabem_lanes run, flat.

    The cells of one model (equal params) step a path's lanes alike
    until the path's first jump, where the jump map, the only part that
    depends on the cell, first acts. So a model's first cell in report
    order, its representative, steps a lane per path from the start:
    lane m * paths + p for model m and path p. The model's other cells get
    a lane per path that jumps, path-major in order of the first jump's
    step, and those lanes start stepping as copies of their
    representative's lane once their path has jumped; so the lanes that
    step are always a prefix. lane[c, p] is the lane that holds cell c on
    path p: the representative's one while the path never jumps.
    """

    def __init__(self, cells, block):
        n_paths, n_steps = block.dt.shape
        models: dict = {}
        model = np.array([models.setdefault(params, len(models)) for params, _ in cells])
        reps = [int(np.flatnonzero(model == m)[0]) for m in range(len(models))]
        others = np.array([c for c in range(len(cells)) if c not in reps], dtype=np.intp)
        first = np.full(n_paths, n_steps)
        for k in sorted(block.jumps, reverse=True):
            first[block.jumps[k]] = k
        order = np.argsort(first, kind="stable")
        jumping = order[: np.count_nonzero(first < n_steps)]
        self.reps, self.n_reps = reps, len(reps) * n_paths
        self.cells = np.concatenate([np.repeat(reps, n_paths),
                                     np.tile(others, jumping.size)]).astype(np.intp)
        self.paths = np.concatenate([np.tile(np.arange(n_paths), len(reps)),
                                     np.repeat(jumping, others.size)])
        self.lane = model[:, None] * n_paths + np.arange(n_paths)
        self.lane[others[:, None], jumping] = (
            self.n_reps + np.arange(jumping.size) * others.size + np.arange(others.size)[:, None])
        # the representative's lane of every lane
        self.source = model[self.cells] * n_paths + self.paths
        # the lanes that step after each step that adds lanes: each path's
        # lanes step from the end of the step of its first jump on, the
        # paths taken in at most _WIDTHS batches
        self.widths = {}
        if others.size and jumping.size:
            quantum = -(-jumping.size // _WIDTHS)
            jumped = np.searchsorted(first[jumping], np.arange(n_steps), side="right")
            batches = np.minimum(-(-jumped // quantum) * quantum, jumping.size)
            for k in np.flatnonzero(np.diff(batches, prepend=0)).tolist():
                self.widths[k] = self.n_reps + int(batches[k]) * others.size


def tjabem_lanes(
    cells: Sequence[tuple[ModelParams, JumpCoefficient]], block,
    states: bool = False, updates: int = _TABLE_UPDATES,
) -> tuple[np.ndarray, ...]:
    """Run the transformed scheme on every (cell, path) lane at once.

    Cell c is (params, jump). block holds whole meshes of one M-step grid
    on [0, T] in the padded layout of a paths.Block (grid intervals 0..M-1):
    cell c on path p runs path p's steps, row p of block.dt and block.dw,
    and jumps at the end of each step where block.jumps lists path p. The
    zero steps that pad shorter meshes leave a lane as it is. Cells of one
    model share a lane per path until its first jump (_TableLayout), which
    moves no bit, since each lane's operations are those of its own cell.
    Every lane takes `updates` Newton updates a step before its residual is
    checked (_Lanes.solve); the count moves a lane's bits within the
    residual contract, so it is the caller's, never the group's width.
    Each lane starts from its model's z0 = x0^(1-rho), and no step is
    guarded: the caller has checked both (harness.check_paths), and an
    initial state that lamperti_forward refuses raises its error. Returns
    the terminal z and the counts of nonpositive post-jump states, both of
    shape (cells, paths), and, given states, every node's state before and
    after its jump, of shape (cells, paths, nodes). A failure raises
    LaneFailure for the lowest failing path and, within it, the first
    failing cell.
    """
    if block.lo != 0:
        raise ValueError(
            f"tjabem_lanes needs whole meshes, got a block from interval {block.lo}"
        )
    layout = _TableLayout(cells, block)
    n_paths, n_steps = block.dt.shape
    n_lanes, n_reps = layout.cells.size, layout.n_reps
    z = np.repeat([lamperti_forward(cells[c][0].rho, cells[c][0].x0) for c in layout.reps],
                  n_paths)
    n_nonpositive = np.zeros((len(cells), n_paths), dtype=int)
    if states:
        z_pre = np.empty((n_lanes, n_steps + 1))
        z_pre[:n_reps, 0] = z
        z_post = z_pre.copy()
    # each step's sizes and increments per lane: the representatives' rows
    # are the block's columns, the other lanes' gathered by path
    dt_k, dw_k = np.empty(n_lanes), np.empty(n_lanes)
    rep_dt, rep_dw = (a[:n_reps].reshape(len(layout.reps), n_paths) for a in (dt_k, dw_k))
    other_paths = layout.paths[n_reps:]
    with np.errstate(all="ignore"):
        lanes = TjabemLanes(cells, z, updates, layout.cells)
        for k in range(n_steps):
            w = lanes.z.size
            rep_dt[...] = block.dt[:, k]
            rep_dw[...] = block.dw[:, k]
            if w > n_reps:
                block.dt[:, k].take(other_paths[: w - n_reps], out=dt_k[n_reps:w])
                block.dw[:, k].take(other_paths[: w - n_reps], out=dw_k[n_reps:w])
            lanes.step(dt_k[:w], dw_k[:w])
            if states:
                z_pre[:w, k + 1] = lanes.z
            if k in layout.widths:
                # before any jump map acts, the lanes of the paths that
                # jumped first start from their representatives' states
                source = layout.source[w : layout.widths[k]]
                lanes.widen(source)
                if states:
                    z_pre[w : lanes.z.size, : k + 2] = z_pre[source, : k + 2]
                    z_post[w : lanes.z.size, : k + 1] = z_post[source, : k + 1]
            if k in block.jumps:
                # each path is listed once per step, and all its lanes step
                jumped = layout.lane[:, block.jumps[k]]
                lanes.jump_lanes(jumped.ravel())
                n_nonpositive[:, block.jumps[k]] += lanes.z[jumped] <= 0.0
            if states:
                z_post[: lanes.z.size, k + 1] = lanes.z
    if lanes.failures:
        lane = min(lanes.failures, key=lambda lane: (layout.paths[lane], layout.cells[lane]))
        error = lanes.failures[lane]
        raise LaneFailure(error, int(layout.cells[lane]), int(layout.paths[lane])) from error
    if states:
        return lanes.z[layout.lane], n_nonpositive, z_pre[layout.lane], z_post[layout.lane]
    return lanes.z[layout.lane], n_nonpositive


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
    lanes = BemLanes(params, jump, np.full(1, params.x0), _TABLE_UPDATES)
    dn = np.asarray(jump_counts, dtype=np.int64)
    counts = {k: (np.zeros(1, dtype=np.intp), dn[k : k + 1]) for k in np.flatnonzero(dn).tolist()}
    with np.errstate(all="ignore"):
        lanes.run(np.full((1, M), dt), np.asarray(increments, dtype=float)[None], counts)
    for error in lanes.failures.values():
        raise error
    return float(lanes.z[0])


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
