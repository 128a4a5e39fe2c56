"""Jump-adapted time discretization: deterministic grid merged with jump times.

Each realized Poisson jump time is inserted into the uniform grid so that no
step interior contains a jump; the maximum step size never exceeds the base
step T/M. Meshes are immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "JumpAdaptedMesh",
    "GridJumps",
    "MeshError",
    "DEDUP_RTOL",
    "sample_jump_times",
    "place_batch",
    "grid_nodes",
    "build_mesh",
]

# Two time points within DEDUP_RTOL * T are merged into one node (grid value
# wins); shorter intervals would ruin the implicit solve's conditioning.
DEDUP_RTOL = 1e-12


class MeshError(ValueError):
    """Inconsistent mesh construction or node matching. Where place_batch
    rejects a path's jump times, path is that path's index in its batch."""

    def __init__(self, message: str, path: int | None = None):
        super().__init__(message)
        self.path = path


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


# a NamedTuple, as are the records that paths.level_cuts builds from it, not
# a frozen dataclass: every import creates the class, and a dataclass costs
# several times as much to create
class GridJumps(NamedTuple):
    """A batch of n paths' jump times placed on uniform grids on [0, T], flat.

    Lane g * n + p is path p on the grid of M[g] steps. There is one entry
    per lane and jump time that place_batch keeps, lane by lane in time
    order: lane[i] is the entry's lane and times[i] its time. An entry
    merged onto grid node q (on_grid[i]) ends interval q - 1, and an
    inserted one splits interval[i]; either way its node ends a step of
    interval[i]. index[i] is the node's index in the lane's whole mesh, the
    grid nodes and the lane's inserted times, sorted; two entries merged
    onto one grid node share it. Every grid holds the same entries in the
    same order, so entry g * (entries per grid) + i is entry i on grid g.
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

    def mesh(self) -> JumpAdaptedMesh:
        """The whole mesh of one path placed on one grid, its entries'
        nodes flagged."""
        M = int(self.M[0])
        nodes = np.sort(np.concatenate([grid_nodes(M, self.T), self.times[~self.on_grid]]))
        is_jump = np.zeros(nodes.size, dtype=bool)
        is_jump[self.index] = True
        return JumpAdaptedMesh(nodes, is_jump, nodes[1:] - nodes[:-1], self.T / M)


def place_batch(ms: Sequence[int], T: float, jump_times: Sequence) -> GridJumps:
    """Place every path's sorted jump times, jump_times[p] for path p, on
    the uniform grids of ms steps on [0, T], all at once.

    A jump time within the dedup tolerance of the one before it collapses
    into it; one within the tolerance of its nearest grid node merges onto
    that node and flags it; any other is inserted as a node of its own.
    Jump times out of order or at or beyond the domain ends (outside
    (0, T), up to the tolerance at T) raise MeshError for the first path
    of the batch that has them.
    """
    ms = np.asarray(ms, dtype=np.int64)
    if not np.all(ms >= 1):
        raise ValueError(f"M must be a positive integer, got {int(ms[ms < 1][0])}")
    if not T > 0.0:
        raise ValueError(f"T must be strictly positive, got {T}")
    tol = DEDUP_RTOL * T
    n = len(jump_times)
    sizes = np.array([len(times) for times in jump_times], dtype=np.int64)
    times = np.concatenate([np.empty(0), *(np.asarray(t, dtype=float) for t in jump_times)])
    path = np.repeat(np.arange(n), sizes)
    same = path[1:] == path[:-1]
    gaps = times[1:] - times[:-1]
    unsorted = np.flatnonzero(same & (gaps < 0.0))
    if unsorted.size:
        raise MeshError("jump times must be sorted", int(path[unsorted[0]]))
    ends = np.cumsum(sizes)[sizes > 0]
    firsts, lasts = times[ends - sizes[sizes > 0]], times[ends - 1]
    outside = np.flatnonzero((firsts <= tol) | (lasts >= T + tol))
    if outside.size:
        k = outside[0]
        raise MeshError(f"jump time outside (0, T): first={float(firsts[k])}, "
                        f"last={float(lasts[k])}, T={T}", int(np.flatnonzero(sizes)[k]))
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
    """The uniform M-step grid's nodes on [0, T], the last exactly T."""
    nodes = np.arange(M + 1) * (T / M)
    nodes[-1] = T
    return nodes


def build_mesh(M: int, T: float, jump_times) -> JumpAdaptedMesh:
    """Merge the uniform M-step grid on [0, T] with sorted jump times, as
    place_batch places them for one path."""
    return place_batch((M,), T, [jump_times]).mesh()
