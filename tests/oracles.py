"""The tests' oracles: scalar loops of jumpsde's one-path schemes and increment
sums, which jumpsde runs on its lanes and coarse_block, and the one-path jump
placement, which jumpsde makes for a batch at once with place_batch. The loops
call solver's _implicit_solve, jump_map and lamperti_inverse, so a test's
stand-ins reach them; the oracles' meshes come from place_jumps."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import brentq

from jumpsde import paths, solver
from jumpsde.mesh import DEDUP_RTOL, JumpAdaptedMesh, MeshError, sample_jump_times
from jumpsde.model import (JumpCoefficient, ModelParams, _drift_terms, _original_drift_terms,
                           drift_one_sided_lipschitz, make_drift, make_transformed_drift,
                           one_sided_lipschitz, transformed_drift)
from jumpsde.paths import PathBundle, path_streams
from jumpsde.solver import (MAX_ITER, RESIDUAL_TOL, TrajectoryZ, _BRACKET_CAP, _BRACKET_FLOOR,
                            _check_step_guard)
from jumpsde.transform import lamperti_forward


@dataclass(frozen=True)
class JumpNodes:
    """Where a path's jump times sit on the uniform M-step grid on [0, T].

    inserted holds the jump times that become nodes of their own, in order,
    and cells[i] is the grid interval k that inserted[i] splits, between the
    grid nodes k*T/M and (k+1)*T/M. on_grid holds the grid nodes that a jump
    time within the dedup tolerance merged onto and flags.
    """

    M: int
    T: float
    inserted: tuple[float, ...]
    cells: tuple[int, ...]
    on_grid: tuple[int, ...]

    def nodes(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and jump flags of grid intervals lo..hi-1.

        The nodes are grid nodes lo..hi with the inserted times of those
        intervals between them, so lo = 0 and hi = M give the whole mesh;
        the flags mark inserted times and the grid nodes in on_grid.
        """
        grid = np.arange(lo, hi + 1, dtype=float) * (self.T / self.M)
        if hi == self.M:
            grid[-1] = self.T
        first, last = bisect_left(self.cells, lo), bisect_left(self.cells, hi)
        flags = np.zeros(hi - lo + 1 + last - first, dtype=bool)
        if first == last:
            nodes = grid
        else:
            # grid nodes up to each inserted time's interval, then the time
            nodes = np.empty(flags.size)
            start = 0
            for i in range(first, last):
                end = self.cells[i] - lo + 1
                at = start + i - first
                nodes[at : at + end - start] = grid[start:end]
                nodes[at + end - start] = self.inserted[i]
                flags[at + end - start] = True
                start = end
            nodes[start + last - first :] = grid[start:]
        for q in self.on_grid:
            if lo <= q <= hi:
                flags[q - lo + bisect_left(self.cells, q, first, last) - first] = True
        return nodes, flags

    def touches(self, lo: int, hi: int) -> bool:
        """Whether a step of grid intervals lo..hi-1 ends at a jump node.

        A flagged grid node ends the interval before it, so node lo belongs
        to the intervals before lo.
        """
        return bisect_left(self.cells, lo) < bisect_left(self.cells, hi) or (
            bisect_right(self.on_grid, lo) < bisect_right(self.on_grid, hi)
        )


def place_jumps(M: int, T: float, jump_times) -> JumpNodes:
    """Place sorted jump times on the uniform M-step grid on [0, T].

    A jump time within the dedup tolerance of a grid node merges onto the
    grid node and flags it; a jump time within the tolerance of the one
    before it collapses into it. Jump times at or beyond the domain ends
    (outside (0, T), up to tolerance at T) raise MeshError.
    """
    if M < 1:
        raise ValueError(f"M must be a positive integer, got {M}")
    if not T > 0.0:
        raise ValueError(f"T must be strictly positive, got {T}")
    base_dt = T / M
    tol = DEDUP_RTOL * T
    times = np.asarray(jump_times, dtype=float).tolist()
    inserted, cells, on_grid = [], [], []
    if times:
        if any(b < a for a, b in zip(times, times[1:])):
            raise MeshError("jump times must be sorted")
        if times[0] <= tol or times[-1] >= T + tol:
            raise MeshError(
                f"jump time outside (0, T): first={times[0]}, last={times[-1]}, T={T}"
            )
        before = -math.inf
        for t in times:
            if t - before > tol:
                # the nearest grid node, rounding half to even as numpy does
                n = min(max(round(t / base_dt), 0), M)
                node = T if n == M else n * base_dt
                if abs(t - node) <= tol:
                    on_grid.append(n)
                else:
                    inserted.append(t)
                    cells.append(n if t > node else n - 1)
            before = t
    return JumpNodes(M, T, tuple(inserted), tuple(cells), tuple(on_grid))


def build_mesh(M: int, T: float, jump_times) -> JumpAdaptedMesh:
    """The jump-adapted mesh of place_jumps's placement."""
    nodes, flags = place_jumps(M, T, jump_times).nodes(0, M)
    return JumpAdaptedMesh(nodes, flags, nodes[1:] - nodes[:-1], T / M)


def generate_bundle(params: ModelParams, m_ref: int, global_seed: int, i: int,
                    jump_times=None) -> PathBundle:
    """A path's bundle on its reference mesh: its sampled jump times, or the
    given ones, and the increments of its own Brownian stream."""
    jump_rng, brownian = path_streams(global_seed, i)
    if jump_times is None:
        jump_times = sample_jump_times(params.lam, params.T, jump_rng)
    times = np.asarray(jump_times, dtype=float)
    mesh = build_mesh(m_ref, params.T, times)
    dw = brownian.standard_normal(mesh.n_intervals) * np.sqrt(mesh.dt)
    return PathBundle(global_seed, i, m_ref, params.T, times, mesh, dw)


def block_steps(placements: Sequence[JumpNodes], lo: int, hi: int):
    """Each path's nodes over grid intervals lo..hi-1, its steps in a row
    padded with zeros, and the steps at whose ends each path jumps."""
    nodes, flags = zip(*(placed.nodes(lo, hi) for placed in placements))
    dt = np.zeros((len(nodes), max(node.size for node in nodes) - 1))
    jumps: dict[int, list[int]] = {}
    for p, (node, flag) in enumerate(zip(nodes, flags)):
        dt[p, : node.size - 1] = node[1:] - node[:-1]
        for k in np.flatnonzero(flag[1:]).tolist():
            jumps.setdefault(k, []).append(p)
    return nodes, dt, jumps


def tjabem_path(params: ModelParams, jump: JumpCoefficient, mesh: JumpAdaptedMesh,
                increments: Sequence[float], Q: float | None = None) -> tuple[TrajectoryZ, float]:
    """The transformed jump-adapted implicit scheme along one path."""
    if Q is None:
        Q = one_sided_lipschitz(params)
    n = mesh.n_intervals
    if len(increments) != n:
        raise ValueError(f"increments length {len(increments)} != mesh intervals {n}")
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
            z = solver._implicit_solve(value, slope, dt_k, rhs, z_prev)
        z_pre.append(z)
        if flags[k + 1]:
            z = solver.jump_map(params, jump, z)
        z_post.append(z)

    trajectory = TrajectoryZ(mesh=mesh, z_pre=np.asarray(z_pre), z_post=np.asarray(z_post))
    return trajectory, solver.lamperti_inverse(params.rho, z)


def bem_path(params: ModelParams, jump: JumpCoefficient, M: int, increments: Sequence[float],
             jump_counts: Sequence[int], q_drift: float | None = None) -> float:
    """The drift-implicit scheme on the uniform M-step grid, in x."""
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
            x = solver._implicit_solve(value, slope, dt, rhs, x_prev)
    return x


def _match_nodes(fine_nodes: np.ndarray, targets: np.ndarray, T: float) -> np.ndarray:
    """Indices of the fine nodes nearest the targets, within the dedup tolerance."""
    tol = DEDUP_RTOL * T
    idx = np.clip(np.searchsorted(fine_nodes, targets), 1, len(fine_nodes) - 1)
    idx -= targets - fine_nodes[idx - 1] < fine_nodes[idx] - targets
    far = np.abs(fine_nodes[idx] - targets) > tol
    if far.any():
        raise MeshError(f"coarse node {targets[far][0]} missing from the fine mesh")
    return idx


def _segment_sums(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Left-to-right sums of values[idx[j]:idx[j + 1]] from 0.0, by a segment plan."""
    rows = idx.reshape(-1, idx.shape[-1])
    (plan,) = paths._segment_plans(rows, np.arange(rows.shape[0]),
                                   np.zeros(rows.shape[0], int), 1)
    return plan.sums(values.reshape(-1, values.shape[-1])).reshape(idx.shape[:-1] + (-1,))


def _mesh_sums(bundle: PathBundle, m: int, name: str,
               jump_times) -> tuple[JumpAdaptedMesh, np.ndarray]:
    """The m-step mesh with these jump times and the fine increments' sums."""
    if m < 1:
        raise ValueError(f"{name} must be a positive integer, got {m}")
    if bundle.m_ref % m != 0:
        raise MeshError(f"{name} = {m} does not divide m_ref = {bundle.m_ref}")
    mesh = build_mesh(m, bundle.T, jump_times)
    idx = _match_nodes(bundle.fine_mesh.nodes, mesh.nodes, bundle.T)
    return mesh, _segment_sums(bundle.dw_fine, idx)


def coarsen_increments(bundle: PathBundle, m_coarse: int) -> tuple[JumpAdaptedMesh, np.ndarray]:
    """Coarse mesh plus per-interval sums of the fine Brownian increments."""
    coarse, out = _mesh_sums(bundle, m_coarse, "m_coarse", bundle.jump_times)
    out.setflags(write=False)
    return coarse, out


def regular_increments(bundle: PathBundle, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Brownian sums and jump counts on the uniform M-step grid."""
    grid, dw = _mesh_sums(bundle, M, "M", ())
    counts = np.diff(np.searchsorted(bundle.jump_times, grid.nodes, side="right"))
    return dw, counts.astype(np.int64)


def moment_rows(lo, hi, params, jump, p_list, q, M, global_seed) -> np.ndarray:
    """(sup, terminal) of x**p per order p, for each path lo..hi-1 in turn."""
    rows = []
    for i in range(lo, hi):
        bundle = generate_bundle(params, M, global_seed, i)
        trajectory, _ = tjabem_path(params, jump, bundle.fine_mesh, bundle.dw_fine, q)
        x = trajectory.z_post ** (1.0 / (1.0 - params.rho))
        row = np.empty((len(p_list), 2))
        for j, p in enumerate(p_list):
            powered = x**p
            row[j] = powered.max(), powered[-1]
        rows.append(row)
    return np.array(rows)


def lamperti_euler(params, mesh, increments, xtol=1e-14, maxiter=200):
    """Independent no-jump stepper: brentq on the implicit relation per step."""
    rho, a3 = params.rho, params.alpha3
    z = params.x0 ** (1.0 - rho)
    for k in range(mesh.n_intervals):
        rhs = z + (1.0 - rho) * a3 * increments[k]
        dt = mesh.dt[k]
        g = lambda y: y - dt * transformed_drift(params, y) - rhs
        lo, hi = 1e-12, 10.0
        while g(lo) > 0.0:
            lo *= 0.5
        while g(hi) < 0.0:
            hi *= 2.0
        z = brentq(g, lo, hi, xtol=xtol, rtol=8.9e-16, maxiter=maxiter)
    return z ** (1.0 / (1.0 - rho))
