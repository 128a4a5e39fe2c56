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

tjabem_lanes takes the transformed scheme's step on a (cells, paths) grid of
lanes held in numpy arrays, for many cells and paths at once. Each lane stops
on its own tolerance, falls back to _implicit_solve on its own and jumps
through jump_map on its own; only numpy's powers set it apart from
tjabem_path, which it therefore matches to rounding.
"""

from __future__ import annotations

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
        for _ in iters:
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


def tjabem_lanes(
    cells: Sequence[tuple[ModelParams, JumpCoefficient, float]],
    meshes: Sequence[JumpAdaptedMesh],
    increments: Sequence[Sequence[float]],
) -> tuple[np.ndarray, np.ndarray]:
    """Run tjabem_path on every (cell, path) lane at once.

    Cell c is (params, jump, Q); lane (c, p) runs it on meshes[p] with
    increments[p]. Lanes take the same Newton-first steps as tjabem_path,
    with numpy arrays of shape (cells, paths): each lane stops on its own
    tolerance and goes to _implicit_solve on its own, and jumps are per-lane
    jump_map calls. Shorter meshes are padded with zero steps, which no lane
    takes. Only the powers are numpy's rather than CPython's, so a lane
    matches tjabem_path to rounding, and no lane depends on the others.
    Returns the lanes' terminal z and their counts of nonpositive post-jump
    states, both of shape (cells, paths). A failure raises LaneFailure for
    the lowest failing path and, within it, the first failing cell.
    """
    steps = np.array([mesh.n_intervals for mesh in meshes], dtype=int)
    if len(increments) != len(meshes) or any(
        len(dw) != n for dw, n in zip(increments, steps.tolist())
    ):
        raise ValueError("increments must match the mesh intervals path by path")
    n_cells, n_paths = len(cells), len(meshes)
    width = int(steps.max(initial=0))
    dts = np.zeros((width, n_paths))
    dws = np.zeros((width, n_paths))
    # jumped[k, p]: path p jumps at node k + 1
    jumped = np.zeros((width, n_paths), dtype=bool)
    for p, (mesh, dw) in enumerate(zip(meshes, increments)):
        n = mesh.n_intervals
        dts[:n, p] = mesh.dt
        dws[:n, p] = dw
        jumped[:n, p] = mesh.is_jump[1:]

    shape = (n_cells, n_paths)

    def spread(column):
        # a (cells, 1) column over every lane: numpy is slower to broadcast
        # a small array than to combine two of the same shape
        return np.ascontiguousarray(np.broadcast_to(column, shape))

    # the third and fifth terms are c3*z and c5/z
    terms = np.array([_drift_terms(params) for params, _, _ in cells]).reshape(
        n_cells, 5, 2
    )
    (c1, e1), (c2, e2), (c3, _), (c4, e4), (c5, _) = (
        (spread(terms[:, j, 0:1]), spread(terms[:, j, 1:2])) for j in range(5)
    )
    d1, d2, d4 = c1 * e1, c2 * e2, c4 * e4
    noise_coef = spread(
        np.array([(1.0 - p.rho) * p.alpha3 for p, _, _ in cells]).reshape(n_cells, 1)
    )
    drifts = [make_transformed_drift(params) for params, _, _ in cells]
    rtol = RESIDUAL_TOL
    bracket = (np.full(shape, _BRACKET_FLOOR), np.full(shape, _BRACKET_CAP))
    dt_k = np.empty(shape)

    failures: dict[tuple[int, int], Exception] = {}  # (path, cell) -> error
    alive = np.ones(shape, dtype=bool)

    def fail(c, p, exc):
        failures.setdefault((p, c), exc)
        alive[c, p] = False

    by_base_dt: dict[float, list[int]] = {}
    for p, mesh in enumerate(meshes):
        by_base_dt.setdefault(mesh.base_dt, []).append(p)
    z = np.ones(shape)
    for c, (params, _, q) in enumerate(cells):
        for base_dt, paths in by_base_dt.items():
            try:
                # the guard, then the initial state, as in tjabem_path
                _check_step_guard(q, base_dt)
                z[c, paths] = lamperti_forward(params.rho, params.x0)
            except _LANE_ERRORS as exc:
                for p in paths:
                    fail(c, p, exc)
    n_nonpositive = (z <= 0.0).astype(int)
    # fz = F(z) and fpz = F'(z) for every lane; a step starts from them unless
    # a jump or a fallback moved some z since they were evaluated
    stale = True
    with np.errstate(all="ignore"):
        for k in range(width):
            live = alive & (k < steps)
            if not live.any():
                break
            dt_k[:] = dts[k]
            rhs = z + noise_coef * dws[k]
            tol = rtol * np.maximum(1.0, np.abs(rhs))
            lo, hi = bracket
            z_prev = z
            active = live
            for _ in range(MAX_ITER):
                if stale:
                    # F and F' share the powers z^e (z^(e-1) = z^e / z); an
                    # overflowing power makes them non-finite, so its lane
                    # stops unsolved at the bracket check
                    inv = 1.0 / z
                    p1 = z**e1
                    p2 = z**e2
                    p4 = z**e4
                    t5 = c5 * inv
                    fz = c1 * p1 + c2 * p2 + c3 * z + c4 * p4 + t5
                    fpz = (d1 * p1 + d2 * p2 + d4 * p4 - t5) * inv + c3
                res = (z - rhs) - dt_k * fz
                unsolved = ~(np.abs(res) <= tol)
                active = active & unsolved
                if not active.any():
                    break
                below = res < 0.0
                lo = np.where(below, z, lo)
                hi = np.where(below, hi, z)
                d = 1.0 - dt_k * fpz
                z_new = z - res / d
                active &= (d > 0.0) & (lo < z_new) & (z_new < hi)
                z = np.where(active, z_new, z)
                stale = True
            # a lane that stopped unsolved kept its z, so its last residual
            # is still unsolved; a lane still active ran out of iterations
            fallback = live & unsolved
            stale = bool(fallback.any())
            if stale:
                for c, p in np.argwhere(fallback).tolist():
                    value, slope = drifts[c]
                    try:
                        z[c, p] = _implicit_solve(
                            value, slope, float(dts[k, p]), float(rhs[c, p]),
                            float(z_prev[c, p]),
                        )
                    except _LANE_ERRORS as exc:
                        fail(c, p, exc)
            for p in np.flatnonzero(jumped[k]).tolist():
                stale = True
                for c, (params, jump, _) in enumerate(cells):
                    if alive[c, p]:
                        try:
                            z[c, p] = jump_map(params, jump, float(z[c, p]))
                        except _LANE_ERRORS as exc:
                            fail(c, p, exc)
            n_nonpositive += live & (z <= 0.0)
    if failures:
        p, c = min(failures)
        error = failures[p, c]
        raise LaneFailure(error, c, p) from error
    return z, n_nonpositive


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
