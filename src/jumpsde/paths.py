"""Reproducible coupled Brownian/Poisson path bundles and their coarsenings.

Each path derives two independent counter-based streams from
(global_seed, path_index), one for jump times and one for Brownian
increments, so results never depend on execution order or thread count and
changing the jump intensity never perturbs the Brownian draw sequence.
Stream k of path i is a Philox generator keyed by numpy's
SeedSequence(global_seed, spawn_key=(i, k)).generate_state(2, np.uint64):
stream_keys runs that hash, plain uint32 arithmetic whose constants do not
depend on the data, for a whole batch of path indices at once, and each
generator is numpy's Philox(key=...) of its key, without a SeedSequence.
A path opens one of two ways, one per draw regime. open_path builds the
path's pair and keeps its Brownian generator, from which the ladder draws
block by block. open_shared_path draws all of a path's normals at once, on
a stream_pair that a chunk builds once and re-keys for each of its paths.
Coarse-resolution increments are left-to-right sums of fine increments, so
every resolution of a path sees exactly the same Brownian path. Every mesh
and block comes from the flat jump placement of mesh.place_batch, with the
steps at whose ends each lane jumps: fine_blocks draws a batch's blocks of
consecutive grid intervals in time order, bit for bit as their bundles;
level_cuts finds by index arithmetic where several coarser levels cut each
block, and coarse_block sums a block for all of them at once.
open_shared_path opens a path once for several (T, M) meshes, and
mesh_block lays one of them out for many paths, bit for bit as a path
opened for that (T, M) alone. The one-path generate_bundle,
coarsen_increments and regular_increments, with PathBundle, whole_block
and _coarsened, which only they use, are these on a one-path batch; no
command calls them, and they are kept, unexported, only because the
benchmark's tracer looks them up as names of jumpsde.harness.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .mesh import (
    DEDUP_RTOL,
    GridJumps,
    JumpAdaptedMesh,
    MeshError,
    build_mesh,
    grid_nodes,
    place_batch,
    sample_jump_times,
)
from .model import ModelParams

__all__ = [
    "PathNoise",
    "SharedPath",
    "Block",
    "stream_keys",
    "stream_pair",
    "open_path",
    "open_shared_path",
    "fine_blocks",
    "mesh_block",
    "LevelCuts",
    "Levels",
    "level_cuts",
    "coarse_block",
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
    """One path's jump times and its Brownian stream, from which fine_blocks
    draws the increments in time order."""

    global_seed: int
    path_index: int
    jump_times: np.ndarray
    brownian: np.random.Generator


@dataclass(frozen=True)
class SharedPath:
    """One path opened for several (T, M) meshes: its jump times over the
    longest horizon, and the standard normals of its Brownian stream, at
    least as many as any mesh has steps."""

    global_seed: int
    path_index: int
    jump_times: np.ndarray
    normals: np.ndarray


@dataclass(frozen=True)
class Block:
    """Grid intervals lo..hi-1 of several paths' meshes on [0, T].

    Path p has n[p] steps there: row p of dt and dw holds their sizes and
    Brownian increments, padded with zeros to a common width. jumps maps a
    step k to the paths that jump at its end, each once and in path order.
    """

    T: float
    lo: int
    hi: int
    n: np.ndarray
    dt: np.ndarray
    dw: np.ndarray
    jumps: dict


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): the constants
# of its two hash chains and of its mix, its pool size in 32-bit words and
# its shift
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_SHIFT = 16


def _words(n: int) -> list[int]:
    """n's 32-bit words, least significant first, at least one, as
    SeedSequence splits an integer."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK]
    while n > _MASK:
        n >>= 32
        words.append(n & _MASK)
    return words


def _keys(entropy: list) -> np.ndarray:
    """SeedSequence's pool and first four state words from its entropy
    words, each an int or a uint32 array of the lanes', packed as the two
    uint64 words of a Philox key, in an array of the lanes' shape plus 2.

    A column of ints stays ints, so the seed's words are hashed once for
    every lane; the arrays' uint32 arithmetic wraps as SeedSequence's does.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK
        value = value * const & _MASK
        return value ^ value >> _SHIFT

    def mix(x, y):
        out = ((_MIX_L * x & _MASK) - (_MIX_R * y & _MASK)) & _MASK
        return out ^ out >> _SHIFT

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, state = _INIT_B, []
    for word in pool:
        word = word ^ const
        const = const * _MULT_B & _MASK
        word = word * const & _MASK
        state.append(np.asarray(word ^ word >> _SHIFT, dtype=np.uint64))
    return np.stack([state[0] | state[1] << np.uint64(32),
                     state[2] | state[3] << np.uint64(32)], axis=-1)


def stream_keys(global_seed: int, indices: Sequence[int]) -> np.ndarray:
    """The Philox keys of both streams of each path, in one pass over them.

    keys[j, k] holds stream k's key (0 for the jump times, 1 for the
    Brownian increments) of path indices[j], two uint64 words, bit for bit
    numpy's SeedSequence(global_seed, spawn_key=(indices[j], k))
    .generate_state(2, np.uint64), which seeds a Philox. SeedSequence hashes
    the seed's words, padded with zeros to its pool of four, then the
    index's words and k's; only the last two differ between a batch's
    streams, and they are hashed for all of them at once.
    """
    seed = _words(global_seed)
    seed += [0] * (_POOL - len(seed))
    try:
        index = np.asarray(indices, dtype=np.uint64).reshape(-1)
        words = np.stack([index & np.uint64(_MASK), index >> np.uint64(32)])
        count = np.where(words[1] > 0, 2, 1)
    except OverflowError:
        # an index beyond 64 bits (or a negative one), word by word
        split = [_words(i) for i in indices]
        count = np.array([len(w) for w in split])
        words = np.zeros((count.max(), count.size), dtype=np.uint64)
        for j, w in enumerate(split):
            words[: len(w), j] = w
    words = words.astype(np.uint32)
    keys = np.empty((count.size, 2, 2), dtype=np.uint64)
    # the index's words in a row, k's in a column: the pool is hashed once
    # per path, then once per stream
    stream = np.arange(2, dtype=np.uint32)[:, None]
    for n in sorted(set(count.tolist())):
        at = np.flatnonzero(count == n)
        keys[at] = _keys([*seed, *words[:n, None, at], stream]).transpose(1, 0, 2)
    return keys


def stream_pair() -> tuple[np.random.Generator, np.random.Generator]:
    """A (jumps, Brownian) pair of generators, keyed with zeros, for
    open_shared_path to re-key for each path a chunk opens, so that the
    chunk builds two in all."""
    return tuple(np.random.Generator(np.random.Philox(key=0)) for _ in range(2))


# a fresh Philox's counter and buffer, four uint64 words of zeros each
_ZERO_WORDS = (0, 0, 0, 0)


def _rekey(streams, keys: np.ndarray):
    """streams, a stream_pair, re-keyed to the streams whose stream_keys row
    is keys: each Philox starts from its key with a zero counter and an
    empty buffer, as a new Philox does, so the pair draws what
    Philox(key=keys[k]) of stream k would, bit for bit."""
    for rng, key in zip(streams, keys.tolist()):
        rng.bit_generator.state = {
            "bit_generator": "Philox", "state": {"counter": _ZERO_WORDS, "key": key},
            "buffer": _ZERO_WORDS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return streams


def open_path(
    params: ModelParams, global_seed: int, path_index: int, keys: np.ndarray | None = None,
) -> PathNoise:
    """Sample a path's jump times and keep its Brownian stream. keys is the
    path's row of stream_keys, derived here if not given; stream k is a
    Philox keyed by its row k."""
    if keys is None:
        keys = stream_keys(global_seed, (path_index,))[0]
    jump_rng, brownian_rng = (np.random.Generator(np.random.Philox(key=key)) for key in keys)
    jump_times = sample_jump_times(params.lam, params.T, jump_rng)
    jump_times.setflags(write=False)
    return PathNoise(global_seed, path_index, jump_times, brownian_rng)


def _blocks(placed: GridJumps, blocks: int, draw):
    """The blocks of blocks equal runs of the intervals of a batch placed on
    one grid, in time order.

    A path with no inserted time among a block's steps steps on the grid
    there; any other path's steps are rebuilt from its nodes, the grid's
    and its inserted times, sorted. draw(out, n) fills row p of out with
    path p's standard normals, one for each of its n[p] steps in node
    order, and leaves the rest zero; each increment is its normal times the
    square root of its step.
    """
    M, T = int(placed.M[0]), placed.T
    span, nodes_all = M // blocks, grid_nodes(M, T)
    block, pos = _entry_blocks(placed, placed.M // blocks)
    schedules = _schedules(placed, block, pos, blocks)
    for b in range(blocks):
        lo, hi = b * span, (b + 1) * span
        grid = nodes_all[lo : hi + 1]
        entries = np.flatnonzero(~placed.on_grid & (block == b))
        lane = placed.lane[entries]
        n = span + np.bincount(lane, minlength=placed.n)
        dt = np.zeros((placed.n, int(n.max())))
        dt[:, :span] = grid[1:] - grid[:-1]
        rows, first = np.unique(lane, return_index=True)
        if rows.size:
            # the rows' nodes, padded with the block's last, which sort
            # after the rest and add zero steps
            nodes = np.full((rows.size, dt.shape[1] + 1), grid[-1])
            nodes[:, : span + 1] = grid
            row = np.searchsorted(rows, lane)
            nodes[row, span + 1 + np.arange(lane.size) - first[row]] = placed.times[entries]
            nodes.sort(axis=1)
            dt[rows] = nodes[:, 1:] - nodes[:, :-1]
        dw = np.zeros_like(dt)
        draw(dw, n)
        dw *= np.sqrt(dt)
        yield Block(T, lo, hi, n, dt, dw, schedules[b])


def fine_blocks(paths: Sequence[PathNoise], placed: GridJumps, blocks: int):
    """Draw the paths' reference meshes in blocks of m_ref / blocks grid
    intervals, in time order.

    placed is the paths' place_batch on their m_ref-step grid. Each path's
    increments are standard normals from its own stream, in node order,
    times the square roots of its steps. A path's blocks therefore give its
    increments over [0, T] bit for bit, since the stream yields the same
    numbers in parts as in one draw.
    """
    def draw(out, n):
        for path, row, steps in zip(paths, out, n.tolist()):
            path.brownian.standard_normal(out=row[:steps])

    return _blocks(placed, blocks, draw)


def open_shared_path(
    lam: float, meshes: Sequence[tuple[float, int]], global_seed: int, path_index: int,
    keys: np.ndarray | None = None, streams=None,
) -> SharedPath:
    """Open a path once for several (T, M) meshes.

    The jump times are sampled for the longest horizon; a horizon T keeps
    those before T, which are the times its own draw gives. The normals
    are drawn for the mesh with the most steps it could have, and a mesh
    takes the first ones it needs. So mesh_block gives each mesh what a
    path opened for that (T, M) alone gives, bit for bit. keys is the
    path's row of stream_keys, derived here if not given. The path's streams
    are streams, a stream_pair, re-keyed to keys: a new pair if not given.
    """
    if keys is None:
        keys = stream_keys(global_seed, (path_index,))[0]
    jump_rng, brownian_rng = _rekey(streams or stream_pair(), keys)
    horizons = [T for T, _ in meshes]
    times = sample_jump_times(lam, max(horizons), jump_rng)
    normals = brownian_rng.standard_normal(
        max(M + n for (_, M), n in zip(meshes, times.searchsorted(horizons).tolist()))
    )
    return SharedPath(global_seed, path_index, times, normals)


def mesh_block(paths: Sequence[SharedPath], T: float, M: int) -> Block:
    """The (T, M) mesh of every shared path, whole: grid intervals 0..M-1."""
    # a path's times are all before T when T is its longest horizon
    placed = place_batch((M,), T, [
        times if not times.size or times[-1] < T else times[: times.searchsorted(T)]
        for times in (path.jump_times for path in paths)])
    def draw(out, n):
        # each row's first n[p] columns, in row order, hold its first normals
        out[np.arange(out.shape[1]) < n[:, None]] = np.concatenate(
            [path.normals[:steps] for path, steps in zip(paths, n.tolist())])

    (block,) = _blocks(placed, 1, draw)
    return block


def generate_bundle(
    params: ModelParams, m_ref: int, global_seed: int, path_index: int
) -> PathBundle:
    """Sample jump times, build the reference mesh, then sample increments."""
    path = open_path(params, global_seed, path_index)
    mesh = build_mesh(m_ref, params.T, path.jump_times)
    dw = path.brownian.standard_normal(mesh.n_intervals) * np.sqrt(mesh.dt)
    dw.setflags(write=False)
    return PathBundle(global_seed, path_index, m_ref, params.T, path.jump_times, mesh, dw)


class _SegmentPlan(NamedTuple):
    """How to sum the segments values[idx[j]:idx[j + 1]] that some rows of
    cut indices make, each from 0.0, ready for any values.

    Its nonempty segments run in classes of windows of one width: segment
    i starts at column col[i] of row row[i] of the values, and class (a,
    c, w, o) is segments a..a+c-1, whose windows of width w fill buffer
    elements o..o+c*w-1. Segment i's sum is buffer element read[i], and
    element dest[i] of the flattened result of the given shape. A window
    adds its segment's values in order and is read at its last, and adding
    0.0 to a zero sum makes it +0.0, so every sum is bitwise a sequential
    loop's from 0.0.
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
    """The segment plans for each group of the rows of idx, at once.

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


def _cell_sums(values: np.ndarray, ratios: Sequence[int]) -> list[np.ndarray]:
    """For each r of ratios, each row's left-to-right sums, from 0.0, of its
    runs of r consecutive values, bitwise as a segment plan forms them.

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
    its blocks, as fine_blocks draws it. A step's increment is the
    left-to-right sum, from 0.0, of the fine increments between its nodes,
    bitwise as a sequential loop forms it. The plain grids' sums of every
    path are formed grid by grid, then one segment plan sums the rows of
    cuts: the meshes with a jump time inserted here and the plain grids
    that fine inserted nodes shift.
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


def whole_block(meshes: Sequence[JumpAdaptedMesh], increments) -> Block:
    """Whole meshes of one M-step grid on [0, T] and their increments, a
    row per mesh, as a Block."""
    n = np.array([mesh.n_intervals for mesh in meshes])
    dt, dw = np.zeros((2, len(meshes), n.max()))
    jumps: dict[int, list[int]] = {}
    for p, (mesh, row) in enumerate(zip(meshes, increments)):
        dt[p, : n[p]], dw[p, : n[p]] = mesh.dt, row
        for k in np.flatnonzero(mesh.is_jump[1:]).tolist():
            jumps.setdefault(k, []).append(p)
    T = meshes[0].T
    return Block(T, 0, round(T / meshes[0].base_dt), n, dt, dw, jumps)


def _coarsened(bundle: PathBundle, m: int, name: str) -> tuple[Levels, GridJumps]:
    """The bundle's increments summed on its m-step mesh and plain grid, by
    coarse_block on the one block of a one-path batch, and the jump times
    placed on the m-step grid; name labels m."""
    if m < 1:
        raise ValueError(f"{name} must be a positive integer, got {m}")
    if bundle.m_ref % m != 0:
        raise MeshError(f"{name} = {m} does not divide m_ref = {bundle.m_ref}")
    times = [bundle.jump_times]
    placed = place_batch((m,), bundle.T, times)
    cuts = level_cuts(place_batch((bundle.m_ref,), bundle.T, times), placed, 1)
    return coarse_block(whole_block([bundle.fine_mesh], [bundle.dw_fine]), cuts), placed


def coarsen_increments(
    bundle: PathBundle, m_coarse: int
) -> tuple[JumpAdaptedMesh, np.ndarray]:
    """Coarse mesh plus per-interval sums of the fine Brownian increments.

    Each coarse increment is the left-to-right sum of the fine increments its
    interval contains; coarse nodes must be a subset of fine nodes, which
    m_coarse dividing m_ref guarantees.
    """
    levels, placed = _coarsened(bundle, m_coarse, "m_coarse")
    out = levels.dw[0, : levels.steps[0]]
    out.setflags(write=False)
    return placed.mesh(), out


def regular_increments(bundle: PathBundle, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Brownian sums and jump counts on the uniform M-step grid.

    Interval k gets the left-to-right sum of fine increments over
    (k*T/M, (k+1)*T/M] and the number of jump times in that half-open
    interval; used by regular-grid schemes on the same coupled bundle.
    """
    dw = _coarsened(bundle, M, "M")[0].grid[0]
    counts = np.diff(np.searchsorted(bundle.jump_times, grid_nodes(M, bundle.T), "right"))
    return dw, counts.astype(np.int64)
