"""Reproducible coupled Brownian/Poisson path bundles and their coarsenings.

Each path derives two independent counter-based streams from
(global_seed, path_index), one for jump times and one for Brownian
increments, so results never depend on execution order or thread count and
changing the jump intensity never perturbs the Brownian draw sequence.
Coarse-resolution increments are left-to-right sums of fine increments, so
every resolution of a bundle sees exactly the same Brownian path.
fine_block draws a block of consecutive grid intervals for several paths
and coarse_block sums it for a coarser mesh and for the plain coarse grid;
drawing a path's blocks in time order gives its bundle's increments bit for
bit, and a bundle is the one-block case. open_shared_path opens a path once
for several (T, M) meshes, and mesh_block lays one of those meshes of many
paths out as a block, bit for bit as generate_bundle at that (T, M).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .mesh import (
    DEDUP_RTOL,
    JumpAdaptedMesh,
    JumpNodes,
    MeshError,
    build_mesh,
    place_jumps,
    sample_jump_times,
)
from .model import ModelParams

__all__ = [
    "PathBundle",
    "PathNoise",
    "SharedPath",
    "Block",
    "path_streams",
    "open_path",
    "open_shared_path",
    "fine_block",
    "mesh_block",
    "coarse_block",
    "generate_bundle",
    "coarsen_increments",
    "regular_increments",
]


@dataclass(frozen=True)
class PathBundle:
    """One path's jump times plus Brownian increments on the reference mesh.

    Regeneration from the same (global_seed, path_index) is bit-identical.
    dw_fine[k] is Normal(0, dt_k) on interval k of fine_mesh.
    """

    global_seed: int
    path_index: int
    m_ref: int
    T: float
    jump_times: np.ndarray
    fine_mesh: JumpAdaptedMesh
    dw_fine: np.ndarray


@dataclass(frozen=True)
class PathNoise:
    """One path's jump times, their nodes on the m_ref-step grid, and its
    Brownian stream, from which fine_block draws the increments in time order.
    """

    global_seed: int
    path_index: int
    m_ref: int
    T: float
    jump_times: np.ndarray
    jumps: JumpNodes
    brownian: np.random.Generator


@dataclass(frozen=True)
class SharedPath:
    """One path opened for several (T, M) meshes: its jump times placed on
    each mesh's grid (jumps[g] for mesh g), and the standard normals of its
    Brownian stream, as many as the longest mesh has steps."""

    global_seed: int
    path_index: int
    jumps: tuple
    normals: np.ndarray


@dataclass(frozen=True)
class Block:
    """Grid intervals lo..hi-1 of several paths' meshes on [0, T].

    Path p has n[p] steps there: nodes[p] and flags[p] are its n[p] + 1
    nodes and their jump flags, and row p of dt and dw holds its step sizes
    and Brownian increments, padded with zeros to a common width. Every
    path not in `touched` has no jump node among these steps, so its nodes
    are the grid's.
    """

    T: float
    lo: int
    hi: int
    n: np.ndarray
    nodes: list
    flags: list
    dt: np.ndarray
    dw: np.ndarray
    touched: list


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


def open_path(
    params: ModelParams, m_ref: int, global_seed: int, path_index: int
) -> PathNoise:
    """Sample a path's jump times and place them on its reference grid."""
    if m_ref < 1:
        raise ValueError(f"m_ref must be a positive integer, got {m_ref}")
    jump_rng, brownian_rng = path_streams(global_seed, path_index)
    jump_times = sample_jump_times(params.lam, params.T, jump_rng)
    jump_times.setflags(write=False)
    jumps = place_jumps(m_ref, params.T, jump_times)
    return PathNoise(
        global_seed, path_index, m_ref, params.T, jump_times, jumps, brownian_rng
    )


def _block(jumps: Sequence[JumpNodes], lo: int, hi: int, draw) -> Block:
    """Grid intervals lo..hi-1 of the meshes that these placements give.

    draw(p, out) fills out with path p's standard normals, one per step in
    node order; each increment is its normal times the square root of its
    step.
    """
    touched = [p for p, placed in enumerate(jumps) if placed.touches(lo, hi)]
    grid = no_flags = None
    if len(touched) < len(jumps):
        grid, no_flags = place_jumps(jumps[0].M, jumps[0].T, ()).nodes(lo, hi)
    nodes, flags = [grid] * len(jumps), [no_flags] * len(jumps)
    n = np.full(len(jumps), hi - lo)
    for p in touched:
        nodes[p], flags[p] = jumps[p].nodes(lo, hi)
        n[p] = nodes[p].size - 1
    dt = np.zeros((len(jumps), int(n.max())))
    if grid is not None:
        dt[:, : hi - lo] = grid[1:] - grid[:-1]
    for p in touched:
        dt[p, : n[p]] = nodes[p][1:] - nodes[p][:-1]
        dt[p, n[p] :] = 0.0
    dw = np.zeros_like(dt)
    for p, steps in enumerate(n.tolist()):
        draw(p, dw[p, :steps])
    dw *= np.sqrt(dt)
    return Block(jumps[0].T, lo, hi, n, nodes, flags, dt, dw, touched)


def fine_block(paths: Sequence[PathNoise], lo: int, hi: int) -> Block:
    """Draw grid intervals lo..hi-1 of every path's reference mesh.

    Each path's increments are standard normals from its own stream, in node
    order, times the square roots of its steps. A path's blocks drawn in
    time order therefore give its increments over [0, T] bit for bit, since
    the stream yields the same numbers in parts as in one draw; the whole
    mesh is the one-block case.
    """
    return _block([path.jumps for path in paths], lo, hi,
                  lambda p, out: paths[p].brownian.standard_normal(out=out))


def open_shared_path(
    lam: float, meshes: Sequence[tuple[float, int]], global_seed: int, path_index: int
) -> SharedPath:
    """Open a path once for several (T, M) meshes.

    The jump times are sampled for the longest horizon; a horizon T keeps
    those before T, which are the times its own draw gives. The normals
    are drawn for the longest mesh, and a mesh takes the first ones it
    needs. So mesh_block gives each mesh generate_bundle's result at that
    (T, M), bit for bit.
    """
    jump_rng, brownian_rng = path_streams(global_seed, path_index)
    times = sample_jump_times(lam, max(T for T, _ in meshes), jump_rng)
    jumps = tuple(
        place_jumps(M, T, times[: np.searchsorted(times, T)]) for T, M in meshes
    )
    normals = brownian_rng.standard_normal(
        max(placed.M + len(placed.inserted) for placed in jumps)
    )
    return SharedPath(global_seed, path_index, jumps, normals)


def mesh_block(paths: Sequence[SharedPath], g: int) -> Block:
    """Mesh g of every shared path, whole: grid intervals 0..M-1."""
    jumps = [path.jumps[g] for path in paths]
    return _block(jumps, 0, jumps[0].M,
                  lambda p, out: np.copyto(out, paths[p].normals[: out.size]))


def generate_bundle(
    params: ModelParams, m_ref: int, global_seed: int, path_index: int
) -> PathBundle:
    """Sample jump times, build the reference mesh, then sample increments."""
    path = open_path(params, m_ref, global_seed, path_index)
    block = fine_block([path], 0, m_ref)
    (dw,) = block.dw
    dw.setflags(write=False)
    return PathBundle(
        global_seed=global_seed,
        path_index=path_index,
        m_ref=m_ref,
        T=params.T,
        jump_times=path.jump_times,
        fine_mesh=JumpAdaptedMesh(
            block.nodes[0], block.flags[0], block.dt[0], params.T / m_ref
        ),
        dw_fine=dw,
    )


def _match_nodes(fine_nodes: np.ndarray, targets: np.ndarray, T: float) -> np.ndarray:
    """Indices of targets inside fine_nodes, matched within the dedup tolerance."""
    tol = DEDUP_RTOL * T
    idx = np.searchsorted(fine_nodes, targets - tol)
    idx = np.minimum(idx, len(fine_nodes) - 1)
    if np.any(np.abs(fine_nodes[idx] - targets) > tol):
        bad = targets[np.abs(fine_nodes[idx] - targets) > tol][0]
        raise MeshError(f"coarse node {bad} missing from the fine mesh")
    return idx


def _segment_sums(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Left-to-right sums of values[idx[j]:idx[j + 1]], each started from 0.0.

    values and idx may also be rows stacked along a leading axis, each row
    of idx cutting the same row of values. The segments become rows of a
    zero-padded matrix whose first column is 0.0; accumulating along the
    rows adds each value, in order, to its segment's running sum, and the
    padding adds exact zeros. The result is therefore bitwise that of a
    plain sequential loop, whatever summation algorithm the interpreter's
    sum() uses.
    """
    starts = idx[..., :-1]
    lengths = idx[..., 1:] - starts
    width = int(lengths.max(initial=0))
    *segment, col = np.nonzero(np.arange(width) < lengths[..., None])
    segment = tuple(segment)
    rows = np.zeros(starts.shape + (width + 1,))
    rows[(*segment, col + 1)] = values[(*segment[:-1], starts[segment] + col)]
    return np.add.accumulate(rows, axis=-1)[..., -1]


def coarse_block(
    block: Block,
    M: int,
    lo: int,
    hi: int,
    jumps: Sequence[JumpNodes],
    touched: Sequence[int],
) -> tuple[Block, np.ndarray]:
    """Each path's steps over grid intervals lo..hi-1 of an M-step mesh,
    and every path's increments over the plain grid's steps.

    The intervals span the same time as the fine block, and M divides m_ref,
    so that the mesh's nodes are fine nodes. jumps[p] places path p's jump
    times on the M-step grid, and touched lists the paths that have a jump
    node among these steps (JumpNodes.runs finds them); every other path's
    steps are the grid's. A step's increment is the left-to-right sum, from
    0.0, of the fine increments between its nodes, bitwise as
    coarsen_increments and regular_increments form it. The grid's sums are
    formed once for both results; only the paths with a jump node here or
    among the fine steps get their own.
    """
    T, paths = block.T, block.dt.shape[0]
    span = hi - lo
    fine = block.hi - block.lo
    grid, no_flags = place_jumps(M, T, ()).nodes(lo, hi)
    nodes, flags = [grid] * paths, [no_flags] * paths
    n = np.full(paths, span)
    for p in touched:
        nodes[p], flags[p] = jumps[p].nodes(lo, hi)
        n[p] = nodes[p].size - 1
    dt = np.zeros((paths, int(n.max())))
    dt[:, :span] = grid[1:] - grid[:-1]
    # accumulate starts from the first increment, not from 0.0; the two
    # differ only in the sign of a zero sum, which adding 0.0 makes +0.0
    regular = (
        np.add.accumulate(
            block.dw[:, :fine].reshape(paths, span, fine // span), axis=-1
        )[..., -1]
        + 0.0
    )
    dw = np.zeros_like(dt)
    dw[:, :span] = regular
    # the mesh's own sums of every path with a jump node here or among the
    # fine steps, then the grid's of every path with fine jump nodes
    rows = sorted(set(touched).union(block.touched))
    summed = rows + block.touched
    if summed:
        idx = np.empty((len(summed), dt.shape[1] + 1), dtype=int)
        ends = [nodes[p] for p in rows] + [grid] * len(block.touched)
        for row, p, targets in zip(idx, summed, ends):
            cuts = _match_nodes(block.nodes[p], targets, T)
            row[: cuts.size] = cuts
            row[cuts.size :] = cuts[-1]
        sums = _segment_sums(block.dw[summed], idx)
        for p in rows:
            dt[p, : n[p]] = nodes[p][1:] - nodes[p][:-1]
            dt[p, n[p] :] = 0.0
        dw[rows] = sums[: len(rows)]
        regular[block.touched] = sums[len(rows) :, :span]
    return Block(T, lo, hi, n, nodes, flags, dt, dw, list(touched)), regular


def _mesh_sums(
    bundle: PathBundle, m: int, name: str, jump_times
) -> tuple[JumpAdaptedMesh, np.ndarray]:
    """The m-step mesh with these jump times and the fine increments' sums.

    Interval j gets the left-to-right sum of the fine increments it contains.
    Its nodes must be a subset of the fine nodes, which m dividing m_ref
    guarantees; name labels m in the errors.
    """
    if m < 1:
        raise ValueError(f"{name} must be a positive integer, got {m}")
    if bundle.m_ref % m != 0:
        raise MeshError(f"{name} = {m} does not divide m_ref = {bundle.m_ref}")
    mesh = build_mesh(m, bundle.T, jump_times)
    idx = _match_nodes(bundle.fine_mesh.nodes, mesh.nodes, bundle.T)
    return mesh, _segment_sums(bundle.dw_fine, idx)


def coarsen_increments(
    bundle: PathBundle, m_coarse: int
) -> tuple[JumpAdaptedMesh, np.ndarray]:
    """Coarse mesh plus per-interval sums of the fine Brownian increments.

    Each coarse increment is the left-to-right sum of the fine increments its
    interval contains; coarse nodes must be a subset of fine nodes, which
    m_coarse dividing m_ref guarantees.
    """
    coarse, out = _mesh_sums(bundle, m_coarse, "m_coarse", bundle.jump_times)
    out.setflags(write=False)
    return coarse, out


def regular_increments(bundle: PathBundle, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Brownian sums and jump counts on the uniform M-step grid.

    Interval k gets the left-to-right sum of fine increments over
    (k*T/M, (k+1)*T/M] and the number of jump times in that half-open
    interval; used by regular-grid schemes on the same coupled bundle.
    """
    grid, dw = _mesh_sums(bundle, M, "M", ())
    counts = np.diff(np.searchsorted(bundle.jump_times, grid.nodes, side="right"))
    return dw, counts.astype(np.int64)
