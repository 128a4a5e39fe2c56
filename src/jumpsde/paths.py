"""Reproducible coupled Brownian/Poisson path bundles and their coarsenings.

Each path derives two independent counter-based streams from
(global_seed, path_index), one for jump times and one for Brownian
increments, so results never depend on execution order or thread count and
changing the jump intensity never perturbs the Brownian draw sequence.
Coarse-resolution increments are left-to-right sums of fine increments, so
every resolution of a bundle sees exactly the same Brownian path.
fine_block draws a block of consecutive grid intervals for several paths;
drawing a path's blocks in time order gives its bundle's increments bit for
bit, and a bundle is the one-block case. fine_blocks draws a batch's blocks
in time order, taking each block's paths with a jump node from the batch's
flat placement rather than asking every path. level_cuts finds, once for a
batch and by index arithmetic on its flat jump placements
(mesh.place_batch), where the meshes and plain grids of several coarser
levels cut each block, and coarse_block sums a block for all of them at
once, bit for bit as coarsen_increments and regular_increments. open_shared_path opens a path
once for several (T, M) meshes, and mesh_block lays one of those meshes of
many paths out as a block, bit for bit as generate_bundle at that (T, M).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .mesh import (
    DEDUP_RTOL,
    GridJumps,
    JumpAdaptedMesh,
    JumpNodes,
    MeshError,
    build_mesh,
    grid_nodes,
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
    "fine_blocks",
    "mesh_block",
    "LevelCuts",
    "Levels",
    "level_cuts",
    "coarse_block",
    "jump_steps",
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


def _block(jumps: Sequence[JumpNodes], lo: int, hi: int, draw, touched=None) -> Block:
    """Grid intervals lo..hi-1 of the meshes that these placements give.

    draw(p, out) fills out with path p's standard normals, one per step in
    node order; each increment is its normal times the square root of its
    step. touched lists, ascending, the paths with a jump node among these
    steps; if it is not given, each placement is asked.
    """
    if touched is None:
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


def fine_blocks(paths: Sequence[PathNoise], placed: GridJumps, blocks: int):
    """fine_block(paths, b * s, (b + 1) * s) for b = 0..blocks - 1 in turn,
    s being m_ref / blocks, bit for bit.

    placed is the paths' place_batch on their m_ref-step grid, whose
    entries give every block's touched paths at once: an entry's node ends
    a step of its interval.
    """
    jumps = [path.jumps for path in paths]
    n, s = len(paths), int(placed.M[0]) // blocks
    keys = np.unique(placed.interval // s * n + placed.lane)
    touched = np.split(keys % n, np.searchsorted(keys, np.arange(1, blocks) * n))
    for b in range(blocks):
        yield _block(jumps, b * s, (b + 1) * s,
                     lambda p, out: paths[p].brownian.standard_normal(out=out),
                     touched[b].tolist())


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
    """Indices of the fine nodes nearest the targets, each within the dedup
    tolerance. (Two kept jump times can lie a rounding over the tolerance
    apart, so the first node past a target less the tolerance can be the
    one before it.)"""
    tol = DEDUP_RTOL * T
    idx = np.clip(np.searchsorted(fine_nodes, targets), 1, len(fine_nodes) - 1)
    idx -= targets - fine_nodes[idx - 1] < fine_nodes[idx] - targets
    far = np.abs(fine_nodes[idx] - targets) > tol
    if far.any():
        raise MeshError(f"coarse node {targets[far][0]} missing from the fine mesh")
    return idx


class _SegmentPlan(NamedTuple):
    """How _segment_sums sums the segments that some rows of cut indices
    make, ready for any values.

    Its nonempty segments run in classes of windows of one width: segment
    i starts at column col[i] of row row[i] of the values, and class (a,
    c, w, o) is segments a..a+c-1, whose windows of width w fill buffer
    elements o..o+c*w-1. Segment i's sum is buffer element read[i], and
    element dest[i] of the flattened result of the given shape.
    """

    shape: tuple[int, int]
    row: np.ndarray
    col: np.ndarray
    classes: list
    read: np.ndarray
    dest: np.ndarray
    size: int
    longest: int

    def sums(self, values: np.ndarray) -> np.ndarray:
        """The segments' sums, in rows of the plan's shape."""
        out = np.zeros(self.shape[0] * self.shape[1])
        if self.dest.size:
            flat = np.concatenate([values.ravel(), np.zeros(self.longest)])
            windows = as_strided(flat, (flat.size - self.longest + 1, self.longest),
                                 flat.strides * 2, writeable=False)
            first = self.row * values.shape[-1] + self.col
            buffer = np.empty(self.size)
            for a, c, w, o in self.classes:
                np.add.accumulate(windows[first[a : a + c], :w], axis=-1,
                                  out=buffer[o : o + c * w].reshape(c, w))
            out[self.dest] = buffer[self.read]
            out += 0.0
        return out.reshape(self.shape)


def _segment_plans(idx: np.ndarray, source: np.ndarray, group: np.ndarray,
                   groups: int) -> list[_SegmentPlan]:
    """The plans of _segment_sums for each group of the rows of idx, at once.

    Row i of idx cuts row source[i] of the values; the rows of group g,
    ascending, are contiguous, and their sums are that plan's rows. Within
    a group, the windows are classed by the bit length of their segments'
    lengths, those under 16 together, so that no window but those few is
    twice its segment's length.
    """
    starts = idx[:, :-1]
    width = starts.shape[1]
    lengths = (idx[:, 1:] - starts).ravel()
    seg = np.flatnonzero(lengths)
    _, bits = np.frexp(lengths[seg])
    bits = np.maximum(bits, 4)
    order = np.lexsort((bits, group[seg // width]))
    seg, bits = seg[order], bits[order]
    seg_group, length = group[seg // width], lengths[seg]
    heads = np.flatnonzero(np.concatenate(
        ([True], (bits[1:] != bits[:-1]) | (seg_group[1:] != seg_group[:-1])))[: seg.size])
    count = np.diff(np.append(heads, seg.size))
    window = np.maximum.reduceat(length, heads) if seg.size else heads
    size = count * window
    class_group = seg_group[heads]
    bounds = np.searchsorted(class_group, np.arange(groups + 1))
    offset = np.cumsum(size) - size
    offset -= offset[bounds[class_group]]
    read = (np.repeat(offset - heads * window, count) + np.arange(seg.size) * np.repeat(window, count)
            + length - 1)
    first_row = np.searchsorted(group, np.arange(groups + 1))
    dest = seg - first_row[seg_group] * width
    row, col = source[seg // width], starts.ravel()[seg]
    ends = np.searchsorted(seg_group, np.arange(groups + 1))
    plans = []
    for g in range(groups):
        a, b, c, d = ends[g], ends[g + 1], bounds[g], bounds[g + 1]
        plans.append(_SegmentPlan(
            (int(first_row[g + 1] - first_row[g]), width), row[a:b], col[a:b],
            list(zip((heads[c:d] - a).tolist(), count[c:d].tolist(),
                     window[c:d].tolist(), offset[c:d].tolist())),
            read[a:b], dest[a:b], int(size[c:d].sum()), int(window[c:d].max(initial=0)),
        ))
    return plans


def _segment_sums(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Left-to-right sums of values[idx[j]:idx[j + 1]], each started from 0.0.

    values and idx may also be rows stacked along a leading axis, each row
    of idx cutting the same row of values. Each nonempty segment is read as
    a window of the flattened rows from its first value on. Accumulating
    along a window adds the segment's values in order, and its sum is read
    at its last value, so what follows it in the window does not enter.
    Accumulating from the first value instead of from 0.0 changes only the
    sign of a zero sum, which adding 0.0 makes +0.0. The result is
    therefore bitwise that of a plain sequential loop, whatever summation
    algorithm the interpreter's sum() uses, and an empty segment sums to
    0.0. _segment_plans makes the plan, for many groups of rows at once.
    """
    rows = idx.reshape(-1, idx.shape[-1])
    (plan,) = _segment_plans(rows, np.arange(rows.shape[0]), np.zeros(rows.shape[0], int), 1)
    return plan.sums(values.reshape(-1, values.shape[-1])).reshape(idx.shape[:-1] + (-1,))


def _cell_sums(values: np.ndarray, ratios: Sequence[int]) -> list[np.ndarray]:
    """For each r of ratios, each row's left-to-right sums, from 0.0, of its
    runs of r consecutive values, bitwise as _segment_sums forms them.

    The sum of a run continues the sum of its first r' values where a
    smaller ratio r' divides r, since a sequential sum's partial sums are
    those of its first values. Where there are many runs they are summed
    column by column, one numpy call adding one value to every run; where
    there are few, each run is accumulated on its own, one call but a
    dependent addition per value, several times a column's cost per value.
    Both add the same values in the same order; 512 runs is about where
    their costs cross, measured on 128 paths of 128 fine steps.
    """
    n, width = values.shape
    sums: dict[int, np.ndarray] = {}
    columns = None
    for r in sorted(set(ratios)):
        done = max((d for d in sums if r % d == 0), default=0)
        runs = width // r
        start = sums[done][:, :: r // done] if done else np.zeros((n, runs))
        if n * runs >= 512:
            if columns is None:
                columns = values.T.copy()
            cells = columns.reshape(runs, r, n)
            out = start.T.copy()
            for i in range(done, r):
                out += cells[:, i]
            sums[r] = out.T
        else:
            cells = values.reshape(n, runs, r)[..., done:]
            sums[r] = np.add.accumulate(
                np.concatenate([start[..., None], cells], axis=-1), axis=-1
            )[..., -1]
    return [sums[r] for r in ratios]


def _entry_blocks(placed: GridJumps, span: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's block, of span[g] intervals of its grid g, and its
    node's position among the block's nodes, the block's first grid node
    being node 0."""
    span = span[placed.lane // placed.n]
    block = placed.interval // span
    return block, placed.index - placed.grid_index(placed.lane, block * span)


def _schedules(placed: GridJumps, block: np.ndarray, pos: np.ndarray,
               blocks: int) -> list[dict[int, list[int]]]:
    """For each block, the lanes that jump at the end of each of its steps,
    each once and in lane order; two entries merged onto one grid node are
    neighbours in lane order, and stay so in block order."""
    order = np.argsort(block, kind="stable")
    block, lane, pos = block[order], placed.lane[order], pos[order]
    new = np.ones(block.size, dtype=bool)
    new[1:] = (block[1:] != block[:-1]) | (lane[1:] != lane[:-1]) | (pos[1:] != pos[:-1])
    schedules: list[dict[int, list[int]]] = [{} for _ in range(blocks)]
    for b, k, lane in zip(block[new].tolist(), (pos[new] - 1).tolist(), lane[new].tolist()):
        schedules[b].setdefault(k, []).append(lane)
    return schedules


def jump_steps(placed: GridJumps, blocks: int) -> list[dict[int, list[int]]]:
    """For each of blocks equal runs of the intervals of a one-grid
    placement, the lanes that jump at the end of each of the run's steps,
    as fine_block lays the steps out."""
    return _schedules(placed, *_entry_blocks(placed, placed.M // blocks), blocks)


class LevelCuts(NamedTuple):
    """Where the meshes of a ladder's levels cut a batch's fine blocks.

    The fine grid's intervals run in blocks of fine_steps, whose ends are
    nodes of every level's grid g, span[g] of its intervals long, each of
    ratio[g] fine intervals. Block b has rows at[b]..at[b + 1] - 1: first,
    up to own[b], the lanes g * n + p (path p of n on grid g) with a jump
    time inserted among the block's steps, then, per grid, one for each path
    with a fine node inserted there, which shifts the fine increments of the
    plain grid's steps. Row i cuts its path's fine increments into
    nodes[i] - 1 steps, and plans[b] sums block b's rows. Row i's steps
    before start[i] are the plain grid's, which no inserted node splits or
    shifts, and it sums none of them; from start[i] on, dt[i] holds its
    steps' sizes. grid_dt[g, b] holds the steps of grid g over block b, and
    jumps[b] maps a step of block b to the lanes that jump at its end.
    """

    fine_steps: int
    span: np.ndarray
    ratio: np.ndarray
    at: np.ndarray
    own: np.ndarray
    lane: np.ndarray
    start: np.ndarray
    nodes: np.ndarray
    plans: list
    dt: np.ndarray
    grid_dt: np.ndarray
    jumps: list


def level_cuts(fine: GridJumps, levels: GridJumps, blocks: int) -> LevelCuts:
    """The cuts of every level's mesh and plain grid in every block, found
    by integer arithmetic on the placements, all at once.

    fine places a batch's jump times on the fine grid of m_ref steps and
    levels the same times on grids of M[g] steps, each dividing m_ref and
    splitting into blocks equal blocks. Grid node k of grid g is fine grid
    node k * m_ref / M[g], and an inserted time is the fine node of the same
    entry: entry g * E + i of levels is entry i of fine's E. The position
    of a node among a block's nodes, on either grid, is its index in its
    lane's whole mesh less that of the block's first node. A node further
    than the dedup tolerance from its fine node raises MeshError.
    """
    T, n, tol = fine.T, fine.n, DEDUP_RTOL * fine.T
    m_ref, n_grids = int(fine.M[0]), levels.M.size
    ratio, rest = np.divmod(m_ref, levels.M)
    if rest.any() or (levels.M % blocks).any():
        raise MeshError(f"grids of {levels.M.tolist()} steps do not each divide "
                        f"m_ref = {m_ref} and split into {blocks} blocks")
    if levels.times.size != n_grids * fine.times.size:
        raise MeshError("the levels place other jump times than the fine mesh")
    span, fine_steps, lanes = levels.M // blocks, m_ref // blocks, n_grids * n
    fine_nodes = grid_nodes(m_ref, T)
    level_nodes = [grid_nodes(m, T) for m in levels.M.tolist()]
    ins = np.flatnonzero(~levels.on_grid)
    matched = ins % max(fine.times.size, 1)
    target = np.concatenate([*level_nodes, levels.times[ins]])
    found = np.concatenate([
        *(fine_nodes[::r] for r in ratio.tolist()),
        np.where(fine.on_grid[matched], fine_nodes[fine.interval[matched] + 1],
                 fine.times[matched]),
    ])
    far = np.abs(found - target) > tol
    if far.any():
        raise MeshError(f"coarse node {target[far][0]} missing from the fine mesh")
    block, pos = _entry_blocks(levels, span)
    # the first fine interval with an inserted node, per block and path
    fine_ins = np.flatnonzero(~fine.on_grid)
    shifted, shifted_at = np.unique(fine.interval[fine_ins] // fine_steps * n
                                    + fine.lane[fine_ins], return_index=True)
    shift = fine.interval[fine_ins[shifted_at]] - shifted // n * fine_steps
    # rows in order of block, then the meshes before the plain grids, then lane
    own, own_at = np.unique(block[ins] * 2 * lanes + levels.lane[ins], return_index=True)
    keys = np.sort(np.concatenate([
        own,
        ((shifted // n * 2 + 1) * lanes + shifted % n)[:, None] + np.arange(n_grids) * n,
    ], axis=None))
    row_block, rest = np.divmod(keys, 2 * lanes)
    meshed, lane = rest < lanes, rest % lanes
    row_grid, row_path = np.divmod(lane, n)
    lo = row_block * span[row_grid]
    # each row's first step that an inserted node, fine or its own, splits
    # or shifts
    row_key = row_block * n + row_path
    at_shift = np.searchsorted(shifted, row_key)
    start = np.where(np.append(shifted, -1)[at_shift] == row_key,
                     np.append(shift, 0)[at_shift] // ratio[row_grid], span[row_grid])
    start[meshed] = np.minimum(start[meshed], levels.interval[ins[own_at]] - lo[meshed])
    offset = fine.grid_index(row_path, row_block * fine_steps)
    # every row's grid nodes k from its start on, and fine grid nodes q
    count = span[row_grid] - start + 1
    item = np.repeat(np.arange(keys.size), count)
    k = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - lo - start, count)
    cut = fine.grid_index(row_path[item], k * ratio[row_grid[item]]) - offset[item]
    at = k - lo[item]
    mesh = np.flatnonzero(meshed[item])
    at[mesh] = (levels.grid_index(lane[item[mesh]], k[mesh])
                - levels.grid_index(lane, lo)[item[mesh]])
    node_at = np.cumsum(levels.M + 1) - levels.M - 1
    value = np.concatenate(level_nodes)[node_at[row_grid[item]] + k]
    # each inserted time at the fine node of its entry. A row's cuts before
    # its start are its start's, and after its last node its last node's,
    # so that they add empty segments; its times from its start on give
    # its steps' sizes.
    ins_row = np.searchsorted(keys, block[ins] * 2 * lanes + levels.lane[ins])
    nodes = span[row_grid] + 1 + np.bincount(ins_row, minlength=keys.size)
    first, last = np.cumsum(count) - count, np.cumsum(count) - 1
    columns = np.arange(nodes.max(initial=1))
    idx = np.where(columns < start[:, None], cut[first][:, None], cut[last][:, None])
    idx[item, at] = cut
    idx[ins_row, pos[ins]] = fine.index[matched] - offset[ins_row]
    times = np.repeat(value[last][:, None], columns.size, axis=1)
    times[item, at] = value
    times[ins_row, pos[ins]] = levels.times[ins]
    grid_dt = np.zeros((n_grids, blocks, int(span.max())))
    for g, node in enumerate(level_nodes):
        grid_dt[g, :, : span[g]] = (node[1:] - node[:-1]).reshape(blocks, span[g])
    return LevelCuts(
        fine_steps, span, ratio,
        np.searchsorted(row_block, np.arange(blocks + 1)),
        np.searchsorted(keys, (np.arange(blocks) * 2 + 1) * lanes),
        lane, start, nodes, _segment_plans(idx, row_path, row_block, blocks),
        times[:, 1:] - times[:, :-1], grid_dt, _schedules(levels, block, pos, blocks),
    )


class Levels(NamedTuple):
    """Several meshes over one block, stacked: lane g * n + p is path p of n
    on mesh g.

    Lane l has steps[l] steps there: row l of dt and dw holds their sizes
    and Brownian increments, padded with zeros to a common width, and jumps
    maps a step to the lanes that jump at its end. Row l of grid holds the
    increments over the plain grid's steps of mesh g, padded to the widest
    grid's.
    """

    steps: np.ndarray
    dt: np.ndarray
    dw: np.ndarray
    jumps: dict
    grid: np.ndarray


def coarse_block(block: Block, cuts: LevelCuts) -> Levels:
    """Every path's steps over a fine block on each level's mesh, and its
    increments over each level's plain grid steps.

    cuts holds where the levels cut the block's rows; the block is one of
    its blocks, as fine_block draws it. A step's increment is the
    left-to-right sum, from 0.0, of the fine increments between its nodes,
    bitwise as coarsen_increments and regular_increments form it. The plain
    grids' sums of every path are formed grid by grid, then one
    _segment_sums plan sums the rows of cuts: the meshes with a jump time
    inserted here and the plain grids that fine inserted nodes shift.
    """
    b, off = divmod(block.lo, cuts.fine_steps)
    if off or block.hi - block.lo != cuts.fine_steps:
        raise MeshError(f"fine intervals {block.lo}..{block.hi - 1} are not a block of "
                        f"{cuts.fine_steps}")
    n, n_grids = block.dw.shape[0], cuts.span.size
    a, m, z = cuts.at[b], cuts.own[b], cuts.at[b + 1]
    lane = cuts.lane[a:z]
    own = lane[: m - a]
    width = int(cuts.nodes[a:z].max(initial=1))
    sums = cuts.plans[b].sums(block.dw)[:, : width - 1]
    # the steps each row sums; before them, its steps are the plain grid's
    fresh = np.arange(width - 1) >= cuts.start[a:z, None]
    steps = np.repeat(cuts.span, n)
    steps[own] = cuts.nodes[a:m] - 1
    dt = np.zeros((n_grids * n, int(steps.max(initial=0))))
    grid = np.zeros((n_grids * n, int(cuts.span.max())))
    cells = _cell_sums(block.dw[:, : cuts.fine_steps], cuts.ratio.tolist())
    for g, (s, sums_g) in enumerate(zip(cuts.span.tolist(), cells)):
        dt[g * n : (g + 1) * n, :s] = cuts.grid_dt[g, b, :s]
        grid[g * n : (g + 1) * n, :s] = sums_g
    shifted = lane[m - a :]
    w = min(width - 1, grid.shape[1])
    grid[shifted, :w] = np.where(fresh[m - a :, :w], sums[m - a :, :w], grid[shifted, :w])
    dw = np.zeros_like(dt)
    dw[:, : grid.shape[1]] = grid
    dt[own, : width - 1] = np.where(fresh[: m - a], cuts.dt[a:m, : width - 1],
                                    dt[own, : width - 1])
    dw[own, : width - 1] = np.where(fresh[: m - a], sums[: m - a], dw[own, : width - 1])
    return Levels(steps, dt, dw, cuts.jumps[b], grid)


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
