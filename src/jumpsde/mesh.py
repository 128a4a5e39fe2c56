"""Jump-adapted time discretization: deterministic grid merged with jump times.

Each realized Poisson jump time is inserted into the uniform grid so that no
step interior contains a jump; the maximum step size never exceeds the base
step T/M. Meshes are immutable after construction and safe to share.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "JumpAdaptedMesh",
    "JumpNodes",
    "GridJumps",
    "MeshError",
    "DEDUP_RTOL",
    "sample_jump_times",
    "place_jumps",
    "place_batch",
    "grid_nodes",
    "build_mesh",
]

# Two time points within DEDUP_RTOL * T are merged into one node (grid value
# wins); shorter intervals would ruin the implicit solve's conditioning.
DEDUP_RTOL = 1e-12


class MeshError(ValueError):
    """Inconsistent mesh construction or node matching."""


@dataclass(frozen=True)
class JumpAdaptedMesh:
    """Sorted nodes on [0, T] with per-node jump flags and per-interval steps.

    nodes[0] = 0 and nodes[-1] = T; every multiple of base_dt appears among
    the nodes (up to the dedup tolerance); every step is at most base_dt.
    """

    nodes: np.ndarray
    is_jump: np.ndarray
    dt: np.ndarray
    base_dt: float

    def __post_init__(self):
        for array in (self.nodes, self.is_jump, self.dt):
            array.setflags(write=False)

    @property
    def n_intervals(self) -> int:
        return len(self.nodes) - 1

    @property
    def T(self) -> float:
        return float(self.nodes[-1])


def sample_jump_times(lam: float, T: float, rng: np.random.Generator) -> np.ndarray:
    """Jump epochs of a Poisson process on (0, T).

    Cumulative sums of i.i.d. exponential interarrival times with mean 1/lam,
    truncated at T; empty for lam = 0.
    """
    if lam < 0.0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    if not T > 0.0:
        raise ValueError(f"T must be strictly positive, got {T}")
    if lam == 0.0:
        return np.empty(0, dtype=float)
    scale = 1.0 / lam
    times = []
    t = rng.exponential(scale)
    while t < T:
        times.append(t)
        t += rng.exponential(scale)
    return np.asarray(times, dtype=float)


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


# a NamedTuple, as are the records that paths.level_cuts builds from it, not
# a frozen dataclass: every import creates the class, and a dataclass costs
# several times as much to create
class GridJumps(NamedTuple):
    """A batch of n paths' jump times placed on uniform grids on [0, T], flat.

    Lane g * n + p is path p on the grid of M[g] steps. There is one entry
    per lane and jump time that place_jumps keeps, lane by lane in time
    order: lane[i] is the entry's lane and times[i] its time. An entry
    merged onto grid node q (on_grid[i]) ends interval q - 1, and an
    inserted one splits interval[i]; either way its node ends a step of
    interval[i]. index[i] is the node's index in the lane's whole mesh,
    JumpNodes.nodes(0, M); two entries merged onto one grid node share it.
    Every grid holds the same entries in the same order, so entry
    g * (entries per grid) + i is entry i on grid g.
    """

    T: float
    M: np.ndarray
    n: int
    lane: np.ndarray
    times: np.ndarray
    on_grid: np.ndarray
    interval: np.ndarray
    index: np.ndarray
    # lane * stride + interval of the inserted entries, ascending, and where
    # each lane's entries start in it
    keys: np.ndarray
    first: np.ndarray
    stride: int

    def grid_index(self, lane, k):
        """The index of grid node k in each lane's whole mesh: k plus the
        number of the lane's inserted times before it."""
        return k + np.searchsorted(self.keys, lane * self.stride + k) - self.first[lane]


def place_batch(ms: Sequence[int], T: float, jump_times: Sequence) -> GridJumps:
    """place_jumps for every path of a batch on every grid of ms steps.

    jump_times[p] holds path p's sorted jump times. The rules and errors are
    place_jumps's, and each decision is the same floating-point comparison,
    made for all entries at once.
    """
    ms = np.asarray(ms, dtype=np.int64)
    if not np.all(ms >= 1):
        raise ValueError(f"M must be a positive integer, got {ms.tolist()}")
    if not T > 0.0:
        raise ValueError(f"T must be strictly positive, got {T}")
    tol = DEDUP_RTOL * T
    n = len(jump_times)
    sizes = np.array([len(times) for times in jump_times], dtype=np.int64)
    times = np.concatenate([np.empty(0), *(np.asarray(t, dtype=float) for t in jump_times)])
    path = np.repeat(np.arange(n), sizes)
    same = path[1:] == path[:-1]
    gaps = times[1:] - times[:-1]
    if np.any(gaps[same] < 0.0):
        raise MeshError("jump times must be sorted")
    ends = np.cumsum(sizes)[sizes > 0]
    firsts, lasts = times[ends - sizes[sizes > 0]], times[ends - 1]
    outside = np.flatnonzero((firsts <= tol) | (lasts >= T + tol))
    if outside.size:
        k = outside[0]
        raise MeshError(f"jump time outside (0, T): first={float(firsts[k])}, "
                        f"last={float(lasts[k])}, T={T}")
    # a time within the tolerance of the one before it collapses into it
    keep = np.concatenate(([True], ~same | (gaps > tol)))[: times.size]
    times, path = times[keep], path[keep]
    lane = (np.arange(ms.size)[:, None] * n + path).ravel()
    M = np.repeat(ms, times.size)
    times = np.tile(times, ms.size)
    base_dt = T / M
    # the nearest grid node, rounding half to even as round() does
    near = np.clip(np.rint(times / base_dt), 0, M)
    node = np.where(near == M, T, near * base_dt)
    near = near.astype(np.int64)
    on_grid = np.abs(times - node) <= tol
    interval = np.where(~on_grid & (times > node), near, near - 1)
    inserted = ~on_grid
    before = np.concatenate(([0], np.cumsum(inserted)))
    first = before[np.searchsorted(lane, np.arange(ms.size * n))]
    index = np.where(on_grid, near, interval + 1) + before[:-1] - first[lane]
    stride = int(ms.max()) + 1
    return GridJumps(T, ms, n, lane, times, on_grid, interval, index,
                     (lane * stride + interval)[inserted], first, stride)


def grid_nodes(M: int, T: float) -> np.ndarray:
    """The uniform M-step grid's nodes on [0, T], as JumpNodes.nodes has them."""
    nodes = np.arange(M + 1) * (T / M)
    nodes[-1] = T
    return nodes


def build_mesh(M: int, T: float, jump_times) -> JumpAdaptedMesh:
    """Merge the uniform M-step grid on [0, T] with sorted jump times.

    The jump times are placed by place_jumps, whose dedup rule and domain
    checks apply.
    """
    nodes, flags = place_jumps(M, T, jump_times).nodes(0, M)
    return JumpAdaptedMesh(nodes, flags, nodes[1:] - nodes[:-1], T / M)
