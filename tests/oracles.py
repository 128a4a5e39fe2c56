"""The tests' oracles: the scalar drifts, written over jumpsde's own term
tables, scalar loops of jumpsde's one-path schemes and increment sums, which
jumpsde runs on its lanes and coarse_block, the one-path jump placement,
which jumpsde makes for a batch at once with place_batch, and numpy's
seeding of a path's streams, whose keys jumpsde derives for a batch at once
with stream_keys, and the lane kernels as they stepped on new arrays before
their workspace. The loops call solver's _implicit_solve, jump_map and
lamperti_inverse, so a test's stand-ins reach them; the oracles' meshes
come from place_jumps."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import brentq

from jumpsde import paths, solver
from jumpsde.mesh import DEDUP_RTOL, JumpAdaptedMesh, MeshError, sample_jump_times
from jumpsde.model import (JumpCoefficient, ModelParams, _diff_terms, _drift_terms,
                           _original_drift_terms, _powsum, drift_one_sided_lipschitz,
                           make_drift, make_transformed_drift, one_sided_lipschitz)
from jumpsde.paths import PathBundle
from jumpsde.solver import (MAX_ITER, RESIDUAL_TOL, TrajectoryZ, _BRACKET_CAP, _BRACKET_FLOOR,
                            _check_step_guard)
from jumpsde.transform import lamperti_forward


# The model's coefficients at one state, each the term table that the lanes
# compile and the fallback solve evaluates, through model's _powsum: a test
# of these checks those tables.

def drift(params: ModelParams, x: float) -> float:
    """a_m1/x - a0 + a1*x - a2*x^gamma."""
    return _powsum(_original_drift_terms(params), x)


def diffusion(params: ModelParams, x: float) -> float:
    """a3 * x^rho."""
    return _powsum(((params.alpha3, params.rho),), x)


def transformed_drift(params: ModelParams, z: float) -> float:
    """The drift F of z = x^(1-rho):
    (rho-1) * (-a_m1*z^((rho+1)/(rho-1)) + a0*z^(rho/(rho-1)) - a1*z
               + a2*z^(-(gamma-rho)/(rho-1)) + rho*a3^2/2 * z^(-1))."""
    return _powsum(_drift_terms(params), z)


def transformed_drift_prime(params: ModelParams, z: float) -> float:
    """F'(z)."""
    return _powsum(_diff_terms(_drift_terms(params)), z)


def transformed_drift_second(params: ModelParams, z: float) -> float:
    """F''(z)."""
    return _powsum(_diff_terms(_diff_terms(_drift_terms(params))), z)


def path_streams(
    global_seed: int, path_index: int
) -> tuple[np.random.Generator, np.random.Generator]:
    """Two disjoint counter-based substreams for one path: (jumps, Brownian)."""
    jump_seq = np.random.SeedSequence(entropy=global_seed, spawn_key=(path_index, 0))
    brownian_seq = np.random.SeedSequence(entropy=global_seed, spawn_key=(path_index, 1))
    return (
        np.random.Generator(np.random.Philox(jump_seq)),
        np.random.Generator(np.random.Philox(brownian_seq)),
    )


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


def moment_rows(lo, hi, params, jump, p_list, M, global_seed) -> np.ndarray:
    """(sup, terminal) of x**p per order p, for each path lo..hi-1 in turn."""
    rows = []
    for i in range(lo, hi):
        bundle = generate_bundle(params, M, global_seed, i)
        trajectory, _ = tjabem_path(params, jump, bundle.fine_mesh, bundle.dw_fine)
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


# The lane kernels as they stepped before their workspace: each Newton update
# makes new arrays for z, F and F', and the kept lanes are chosen with
# np.where, and a group wider than _FULL_WIDTH refreshes and continues only
# the lanes concerned, gathered by index. The differential kernel tests step
# them beside jumpsde's lanes, which work at full width at every width, and
# compare every step's bits. They share jumpsde's compiled drift and vector
# jump map, and reach _implicit_solve, jump_map, lamperti_inverse and array_h
# through the solver module, so a test's stand-ins reach them.

# the widest lane group that refreshes moved lanes and continues pending ones
# at full width; a wider one gathers them
_FULL_WIDTH = 1024


class _Lanes:
    """Lanes of one scheme that take their implicit steps together.

    The states z are a flat array, a state per lane, and lane l solves with
    the drift of cell cells[l] (cell 0 for every lane if cells is None),
    whose term table is tables[cells[l]] and whose scalar (value, slope)
    pair is drifts[cells[l]]. cells may name more lanes than z holds: widen
    adds them later, each a copy of a lane there is. f and fp hold F(z) and
    F'(z) as the lanes' drift evaluates them, so that a step's first Newton
    update reuses them; once a lane's z is set on its own, the next step
    evaluates them again. A group of at most _FULL_WIDTH lanes evaluates
    every lane then, and continues its pending lanes with masked full-width
    updates; a wider group evaluates and continues only the lanes
    concerned. The drift gives a lane the same bits either way, so neither
    the width nor the lanes beside a lane move its bits. A lane that fails
    keeps its last state, is recorded in `failures` with its first error,
    and idles from then on.
    """

    def __init__(self, tables, drifts, z: np.ndarray, updates: int, cells=None):
        self.lane_cells = np.zeros(z.size, dtype=np.intp) if cells is None else cells
        self.tables = tables
        self.drift = solver._LaneDrift(tables, self.lane_cells)
        self.drifts = drifts
        self.z = z
        self.f = self.fp = None  # F(z) and F'(z), once evaluated
        self._moved = []  # lanes set since f and fp were evaluated
        self.updates = updates
        self.failures: dict[int, Exception] = {}
        self._alive = None  # 1.0 per live lane and 0.0 per failed one, once any failed
        self._size()

    def _size(self) -> None:
        """Fit the per-lane constants and scratch to the lanes."""
        n = self.z.size
        self.drift.bind(n)
        self._full = n <= _FULL_WIDTH
        self._one = np.ones(n)
        self._rtol = np.full(n, RESIDUAL_TOL)
        # scratch for the residuals and the Newton update's temporaries
        self._res, self._scratch = np.empty(n), np.empty(n)

    def widen(self, source: np.ndarray) -> None:
        """Add the next lanes of cells, one a copy of each lane of source:
        state, F, F' and failure."""
        if self._moved:
            self.refresh()
        n = self.z.size
        self.z = np.concatenate([self.z, self.z[source]])
        if self.f is not None:
            self.f = np.concatenate([self.f, self.f[source]])
            self.fp = np.concatenate([self.fp, self.fp[source]])
        if self._alive is not None:
            self._alive = np.concatenate([self._alive, self._alive[source]])
            for lane in np.flatnonzero(self._alive[n:] == 0.0).tolist():
                self.failures.setdefault(n + lane, self.failures[int(source[lane])])
        self._size()

    def fail(self, lane: int, error: Exception) -> None:
        self.failures.setdefault(lane, error)
        if self._alive is None:
            self._alive = np.ones(self.z.size)
        self._alive[lane] = 0.0

    def alive(self, lane: int) -> bool:
        return self._alive is None or self._alive[lane] == 1.0

    def set(self, lane: int, z: float) -> None:
        self.z[lane] = z
        self._moved.append(lane)

    def refresh(self) -> None:
        """Make f and fp F(z) and F'(z): every lane's the first time, then,
        if lanes were set since, every lane's in a group of at most
        _FULL_WIDTH lanes, else those of the lanes set, which _moved holds
        as ints or index arrays."""
        if self.f is None or self._moved and self._full:
            self.f, self.fp = self.drift(self.z)
        elif self._moved:
            moved = np.hstack(self._moved)
            self.f[moved], self.fp[moved] = self.gathered(self.z[moved], moved)
        self._moved = []

    def gathered(self, z: np.ndarray, lanes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """F(z) and F'(z) of these lanes alone, z holding their states, by a
        drift over their cells: the tables are the group's, so each lane
        gets its cell's program and the bits the group's drift gives it."""
        drift = solver._LaneDrift(self.tables, self.lane_cells[lanes])
        drift.bind(lanes.size)
        return drift(z)

    def solve(self, rhs: np.ndarray, dt: np.ndarray) -> None:
        """Step every lane to the root of z - dt*F(z) = rhs.

        rhs and dt hold a value per lane. A lane whose previous state
        already has a residual within RESIDUAL_TOL keeps it, since the
        tolerance RESIDUAL_TOL*max(1, |rhs|) is no smaller. Every other lane
        takes `updates` Newton updates; one whose residual is then above
        RESIDUAL_TOL*max(1, |rhs|), or whose z is not positive, keeps
        updating alone until it meets that tolerance or MAX_ITER updates are
        made: in a group of at most _FULL_WIDTH lanes by full-width updates
        that only the pending lanes keep, else by updates of those lanes
        gathered by index. A lane goes to _implicit_solve from its previous
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
        while it is pending; returns the lanes to hand off, sorted."""
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
        """Update the pending lanes alone, gathered by index: they are
        found once, and only they are tested and updated from then on;
        returns the lanes to hand off, sorted."""
        z, f, fp = self.z, self.f, self.fp
        idx = np.flatnonzero(~((size <= RESIDUAL_TOL) & (z > 0.0)))
        zc, fc, fpc, rc, rhs_c, dt_c = (np.take(a, idx) for a in (z, f, fp, self._res, rhs, dt))
        tol = np.maximum(1.0, np.abs(rhs_c)) * RESIDUAL_TOL
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
            f_p, fp_p = self.gathered(z_p, idx[pending])
            r_p = (z_p - rhs_c[pending]) - dt_c[pending] * f_p
            zc[pending], fc[pending], fpc[pending], rc[pending] = z_p, f_p, fp_p, r_p
            used += 1
            pending = pending[~((np.abs(r_p) <= tol[pending]) & (z_p > 0.0))]
        np.put(z, idx, zc)
        np.put(f, idx, fc)
        np.put(fp, idx, fpc)
        return np.sort(idx[np.concatenate(handed)]) if handed else idx[:0]

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
                z_lane = solver._implicit_solve(
                    value, slope, float(dt[lane]), float(rhs[lane]), float(z_prev[lane])
                )
            except solver._LANE_ERRORS as exc:
                z_lane = float(z_prev[lane])
                self.fail(lane, exc)
            self.set(lane, z_lane)

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
        self._jump = solver._LaneJump(cells)
        self._noise = np.array([(1.0 - p.rho) * p.alpha3 for p, _ in cells])
        self.noise = self._noise[self.lane_cells[: z.size]]

    def widen(self, source: np.ndarray) -> None:
        super().widen(source)
        self.noise = self._noise[self.lane_cells[: self.z.size]]

    def step(self, dt: np.ndarray, dw: np.ndarray) -> None:
        """One step with these step sizes and Brownian increments per lane."""
        self.solve(self.z + self.noise * dw, dt)

    def jump_lanes(self, lanes) -> None:
        """Apply the transformed jump map to the live ones of these lanes.

        Fewer than _VECTOR_JUMPS lanes go through jump one at a time.
        Otherwise the lanes that _LaneJump maps are set together, and every
        other live lane goes through jump; jump_map gives a lane the bits
        _LaneJump would, so the route moves no bit.
        """
        if len(lanes) < solver._VECTOR_JUMPS:
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
            self._moved.append(lanes[at])
        if at.size < lanes.size:
            for lane in lanes[~done].tolist():
                self.jump(lane)

    def jump(self, lane: int) -> None:
        """Apply the scalar jump map to one live lane, for jump_lanes."""
        if self.alive(lane):
            params, jump = self.cells[self.lane_cells[lane]]
            try:
                self.set(lane, solver.jump_map(params, jump, float(self.z[lane])))
            except solver._LANE_ERRORS as exc:
                self.fail(lane, exc)

    def run(self, dt: np.ndarray, dw: np.ndarray, jumps) -> None:
        """Step every lane through the columns of dt and dw.

        dt and dw have one row per lane; jumps maps a step k to the lanes
        that jump at its end.
        """
        # the noise terms of every step in one call
        dt, noise = dt.T.copy(), dw.T.copy() * self.noise
        for k in range(dt.shape[0]):
            self.solve(self.z + noise[k], dt[k])
            if k in jumps:
                self.jump_lanes(jumps[k])

    def terminal(self, lane: int) -> float:
        """The lane's state in original coordinates; nan if the lane failed."""
        if self.alive(lane):
            try:
                return solver.lamperti_inverse(self.cells[self.lane_cells[lane]][0].rho,
                                        float(self.z[lane]))
            except solver._LANE_ERRORS as exc:
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
        self._h = solver.array_h(jump)
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
        for k in range(dt.shape[0]):
            x = self.z
            rhs = x + a3 * x**rho * dw[k]
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
                            except solver._LANE_ERRORS as exc:
                                self.fail(lane, exc)
            self.solve(rhs, dt[k])
