"""Reproducible coupled Brownian/Poisson path bundles and their coarsenings.

Each path derives two independent counter-based streams from
(global_seed, path_index), one for jump times and one for Brownian
increments, so results never depend on execution order or thread count and
changing the jump intensity never perturbs the Brownian draw sequence.
Coarse-resolution increments are left-to-right sums of fine increments, so
every resolution of a bundle sees exactly the same Brownian path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import DEDUP_RTOL, JumpAdaptedMesh, MeshError, build_mesh, sample_jump_times
from .model import ModelParams

__all__ = [
    "PathBundle",
    "path_streams",
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


def generate_bundle(
    params: ModelParams, m_ref: int, global_seed: int, path_index: int
) -> PathBundle:
    """Sample jump times, build the reference mesh, then sample increments."""
    if m_ref < 1:
        raise ValueError(f"m_ref must be a positive integer, got {m_ref}")
    jump_rng, brownian_rng = path_streams(global_seed, path_index)
    jump_times = sample_jump_times(params.lam, params.T, jump_rng)
    fine_mesh = build_mesh(m_ref, params.T, jump_times)
    dw = brownian_rng.standard_normal(fine_mesh.n_intervals) * np.sqrt(fine_mesh.dt)
    dw.setflags(write=False)
    jump_times.setflags(write=False)
    return PathBundle(
        global_seed=global_seed,
        path_index=path_index,
        m_ref=m_ref,
        T=params.T,
        jump_times=jump_times,
        fine_mesh=fine_mesh,
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

    The segments become rows of a zero-padded matrix whose first column is
    0.0; accumulating along the rows adds each value, in order, to its
    segment's running sum, and the padding adds exact zeros. The result is
    therefore bitwise that of a plain sequential loop, whatever summation
    algorithm the interpreter's sum() uses.
    """
    starts = idx[:-1]
    lengths = np.diff(idx)
    width = int(lengths.max(initial=0))
    cols = np.arange(width)
    inside = cols < lengths[:, None]
    rows = np.zeros((starts.size, width + 1))
    rows[:, 1:][inside] = values[(starts[:, None] + cols)[inside]]
    return np.add.accumulate(rows, axis=1)[:, -1]


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
