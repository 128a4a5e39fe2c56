"""Monte Carlo experiments: strong-error ladders, positivity and moment tables.

Paths are independent work items distributed over contiguous index chunks;
every per-path quantity is assembled by path index before reduction, so
reports are bit-identical regardless of the worker count. A failed path
aborts the experiment carrying its (global_seed, path_index) for replay.
With parallelism > 1 the jump coefficient must be picklable (built-in
families always are; custom ones need module-level callables).
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .mesh import MeshError
from .model import (
    InvalidModelError,
    JumpCoefficient,
    ModelParams,
    drift_one_sided_lipschitz,
    moment_admissible,
    one_sided_lipschitz,
    validate_jump,
    validate_params,
)
from .paths import coarsen_increments, generate_bundle, regular_increments
from .solver import SolverConfig, SolverError, bem_path, tjabem_path

__all__ = [
    "SCHEMES",
    "PathFailure",
    "ConvergenceReport",
    "PositivityCell",
    "PositivityReport",
    "MomentRow",
    "MomentReport",
    "fit_order",
    "strong_error_ladder",
    "positivity_table",
    "moment_probe",
]

SCHEMES = ("tjabem", "bem")


class PathFailure(SolverError):
    """A single path aborted; carries the seed and index needed to replay it."""

    def __init__(self, message: str, global_seed: int, path_index: int):
        super().__init__(message)
        self.global_seed = global_seed
        self.path_index = path_index

    def __reduce__(self):
        return (PathFailure, (self.args[0], self.global_seed, self.path_index))


@dataclass(frozen=True)
class ConvergenceReport:
    """Strong errors over a step-size ladder with the fitted order.

    error_l1[j] is the sample mean of |X_T^ref - X_T^(dt_j)|, stderr its
    standard error, error_l2 the RMS companion; dt_list is strictly
    decreasing. monotone_pairs[j] records whether the error decreased from
    dt_list[j] to dt_list[j+1] (soft diagnostic, never a failure).
    """

    scheme: str
    m_list: tuple[int, ...]
    dt_list: tuple[float, ...]
    error_l1: tuple[float, ...]
    stderr: tuple[float, ...]
    error_l2: tuple[float, ...]
    slope: float
    intercept: float
    r_squared: float
    n_paths: int
    m_ref: int
    global_seed: int
    monotone_pairs: tuple[bool, ...]


@dataclass(frozen=True)
class PositivityCell:
    param_set: str
    h_family: str
    dt: float
    n_values: int
    n_nonpositive: int

    @property
    def percent(self) -> float:
        return 100.0 * self.n_nonpositive / self.n_values if self.n_values else 0.0


@dataclass(frozen=True)
class PositivityReport:
    """Counts of nonpositive trajectory values per (set, jump family, dt) cell."""

    cells: tuple[PositivityCell, ...]
    lam: float
    n_paths: int
    global_seed: int


@dataclass(frozen=True)
class MomentRow:
    p: float
    sup_moment: float
    sup_stderr: float
    terminal_moment: float
    terminal_stderr: float


@dataclass(frozen=True)
class MomentReport:
    """Empirical running-supremum and terminal moments over sampled orders."""

    rows: tuple[MomentRow, ...]
    M: int
    n_paths: int
    global_seed: int


# ---------------------------------------------------------------------------
# Work distribution
# ---------------------------------------------------------------------------

def _chunk_ranges(n: int, parallelism: int) -> list[tuple[int, int]]:
    n_chunks = max(1, min(n, parallelism * 4))
    size = math.ceil(n / n_chunks)
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _run_tasks(worker, tasks: list, parallelism: int) -> list:
    """worker's results in task order, inline or from one process pool."""
    if parallelism <= 1:
        return [worker(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(worker, tasks))


def _map_chunks(worker, payload, n_paths: int, parallelism: int) -> list:
    tasks = [(payload, lo, hi) for lo, hi in _chunk_ranges(n_paths, parallelism)]
    return _run_tasks(worker, tasks, parallelism)


# ---------------------------------------------------------------------------
# Order regression
# ---------------------------------------------------------------------------

def fit_order(points: Sequence[tuple[float, float]]) -> tuple[float, float, float]:
    """OLS of log(error) against log(dt): returns (slope, intercept, r_squared)."""
    if len(points) < 2:
        raise ValueError("order regression needs at least two points")
    dts = np.array([p[0] for p in points], dtype=float)
    errs = np.array([p[1] for p in points], dtype=float)
    if np.any(errs <= 0.0):
        raise ValueError("all errors must be strictly positive for a log-log fit")
    if np.any(dts <= 0.0):
        raise ValueError("all step sizes must be strictly positive")
    x = np.log(dts)
    y = np.log(errs)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r_squared


# ---------------------------------------------------------------------------
# Strong-error ladder
# ---------------------------------------------------------------------------

def _ladder_chunk(task):
    (params, jump, schemes, m_list, m_ref, global_seed, cfg, q_transformed,
     q_drift), lo, hi = task
    n_m = len(m_list)
    out = {s: np.empty((hi - lo, n_m)) for s in schemes}
    for i in range(lo, hi):
        try:
            bundle = generate_bundle(params, m_ref, global_seed, i)
            _, x_ref = tjabem_path(
                params, jump, bundle.fine_mesh, bundle.dw_fine, q_transformed, cfg
            )
            for j, m in enumerate(m_list):
                if "tjabem" in schemes:
                    mesh_c, dw_c = coarsen_increments(bundle, m)
                    _, x_num = tjabem_path(params, jump, mesh_c, dw_c, q_transformed, cfg)
                    out["tjabem"][i - lo, j] = abs(x_ref - x_num)
                if "bem" in schemes:
                    dw_r, dn_r = regular_increments(bundle, m)
                    x_num = bem_path(params, jump, m, dw_r, dn_r, cfg, q_drift)
                    out["bem"][i - lo, j] = abs(x_ref - x_num)
        except (SolverError, MeshError, ValueError, OverflowError) as exc:
            raise PathFailure(
                f"path failed: {exc} (replay with global_seed={global_seed}, "
                f"path_index={i})",
                global_seed,
                i,
            ) from exc
    return out


def strong_error_ladder(
    params: ModelParams,
    jump: JumpCoefficient,
    scheme: str,
    m_list: Sequence[int],
    m_ref: int,
    n_paths: int,
    global_seed: int,
    cfg: SolverConfig | None = None,
    parallelism: int = 1,
) -> dict[str, ConvergenceReport]:
    """Coupled multi-resolution strong errors against the fine reference.

    Every path builds one bundle at m_ref, computes the reference terminal
    state with the transformed jump-adapted scheme on the fine mesh, then
    reruns each requested scheme on coarsened versions of the same noise.
    scheme is "tjabem", "bem", or "both"; the result maps scheme name to its
    report (both schemes see identical bundles).
    """
    if cfg is None:
        cfg = SolverConfig()
    validate_params(params)
    bounds = validate_jump(jump, params)
    if not bounds.band_positive:
        raise InvalidModelError(
            "convergence experiments require the transform band to be bounded "
            f"away from zero (jump {jump.label} has band [{bounds.mu1}, {bounds.mu2}])"
        )
    if scheme == "both":
        schemes: tuple[str, ...] = SCHEMES
    elif scheme in SCHEMES:
        schemes = (scheme,)
    else:
        raise ValueError(f"unknown scheme {scheme!r}; expected tjabem, bem or both")
    m_list = tuple(int(m) for m in m_list)
    if len(m_list) < 2:
        raise ValueError("the ladder needs at least two step counts")
    if any(m2 <= m1 for m1, m2 in zip(m_list, m_list[1:])):
        raise ValueError("m_list must be strictly increasing")
    for m in m_list:
        if m_ref % m != 0:
            raise MeshError(f"ladder entry M = {m} does not divide m_ref = {m_ref}")
    if n_paths < 2:
        raise ValueError("n_paths must be at least 2")

    q_transformed = one_sided_lipschitz(params)
    q_drift = drift_one_sided_lipschitz(params) if "bem" in schemes else 0.0
    payload = (
        params, jump, schemes, m_list, m_ref, global_seed, cfg, q_transformed,
        q_drift,
    )
    chunks = _map_chunks(_ladder_chunk, payload, n_paths, parallelism)

    dt_list = tuple(params.T / m for m in m_list)
    reports: dict[str, ConvergenceReport] = {}
    for s in schemes:
        errors = np.vstack([c[s] for c in chunks])
        mean = errors.mean(axis=0)
        stderr = errors.std(axis=0, ddof=1) / math.sqrt(n_paths)
        l2 = np.sqrt((errors**2).mean(axis=0))
        slope, intercept, r_squared = fit_order(list(zip(dt_list, mean)))
        monotone = tuple(
            bool(mean[j] > mean[j + 1]) for j in range(len(m_list) - 1)
        )
        if s == "tjabem" and n_paths >= 1000 and len(m_list) >= 5:
            if sum(monotone) < len(monotone) - 1:
                warnings.warn(
                    f"strong error not monotone in dt for {s}: {monotone}",
                    RuntimeWarning,
                )
        reports[s] = ConvergenceReport(
            scheme=s,
            m_list=m_list,
            dt_list=dt_list,
            error_l1=tuple(float(v) for v in mean),
            stderr=tuple(float(v) for v in stderr),
            error_l2=tuple(float(v) for v in l2),
            slope=slope,
            intercept=intercept,
            r_squared=r_squared,
            n_paths=n_paths,
            m_ref=m_ref,
            global_seed=global_seed,
            monotone_pairs=monotone,
        )
    return reports


# ---------------------------------------------------------------------------
# Positivity table
# ---------------------------------------------------------------------------

def _positivity_chunk(task):
    """Per-cell (n_values, n_nonpositive) of one (T, m) group over paths lo..hi.

    Each path's bundle is built once and serves every cell of the group: a
    bundle depends only on (lam, T, m, global_seed, path_index), and all the
    group's cells share those.
    """
    (m, global_seed, cfg, cells), lo, hi = task
    bundle_params = cells[0][0]
    counts = [[0, 0] for _ in cells]
    for i in range(lo, hi):
        cell = cells[0]  # a failed bundle is reported against the group's first cell
        try:
            bundle = generate_bundle(bundle_params, m, global_seed, i)
            for cell, count in zip(cells, counts):
                params, jump, q, _ = cell
                trajectory, _ = tjabem_path(
                    params, jump, bundle.fine_mesh, bundle.dw_fine, q, cfg
                )
                count[0] += trajectory.z_post.size
                count[1] += int(np.count_nonzero(trajectory.z_post <= 0.0))
        except (SolverError, MeshError, ValueError, OverflowError) as exc:
            set_name, label, dt = cell[3]
            raise PathFailure(
                f"path failed in cell (set={set_name}, jump={label}, dt={dt!r}): "
                f"{exc} (replay with global_seed={global_seed}, path_index={i})",
                global_seed,
                i,
            ) from exc
    return counts


def _steps_for_dt(T: float, dt: float) -> int:
    m = round(T / dt)
    if m < 1 or abs(m * dt - T) > 1e-9 * T:
        raise InvalidModelError(f"dt = {dt} does not divide the horizon T = {T}")
    return m


def positivity_table(
    param_sets: Sequence[tuple[str, ModelParams]],
    jumps: Sequence[JumpCoefficient],
    dt_list: Sequence[float],
    lam: float,
    n_paths: int,
    global_seed: int,
    cfg: SolverConfig | None = None,
    parallelism: int = 1,
) -> PositivityReport:
    """Count nonpositive trajectory values per (set, jump, dt) cell.

    Counting is per node value over the post-jump states of every simulated
    trajectory (the original-state signs are identical). The jump intensity
    lam overrides the per-set value so all cells share one intensity. Cells
    are grouped by (T, M = T/dt): one bundle per path and group serves every
    (set, jump) cell of the group, since a bundle depends only on lam, T, M,
    the seed and the path index.
    """
    if cfg is None:
        cfg = SolverConfig()
    if n_paths < 1:
        raise InvalidModelError(f"n_paths must be at least 1, got {n_paths}")
    cells = []  # (params, jump, q, (set, jump label, dt)) in report order
    groups: dict[tuple[float, int], list[int]] = {}  # (T, M) -> cell indices
    for set_name, base_params in param_sets:
        params = replace(base_params, lam=lam)
        validate_params(params)
        q = one_sided_lipschitz(params)
        for jump in jumps:
            validate_jump(jump, params)
            for dt in dt_list:
                m = _steps_for_dt(params.T, dt)
                groups.setdefault((params.T, m), []).append(len(cells))
                cells.append((params, jump, q, (set_name, jump.label, dt)))
    # largest meshes first, so the pool's tail is made of the short tasks
    order = sorted(groups, key=lambda group: -group[1])
    ranges = _chunk_ranges(n_paths, parallelism)
    tasks = [
        ((m, global_seed, cfg, tuple(cells[c] for c in groups[(T, m)])), lo, hi)
        for T, m in order
        for lo, hi in ranges
    ]
    parts = iter(_run_tasks(_positivity_chunk, tasks, parallelism))
    totals = [(0, 0)] * len(cells)
    for group in order:
        chunk_parts = [next(parts) for _ in ranges]
        for j, c in enumerate(groups[group]):
            totals[c] = (
                sum(part[j][0] for part in chunk_parts),
                sum(part[j][1] for part in chunk_parts),
            )
    report_cells = tuple(
        PositivityCell(
            param_set=set_name,
            h_family=label,
            dt=dt,
            n_values=n_values,
            n_nonpositive=n_nonpositive,
        )
        for (_, _, _, (set_name, label, dt)), (n_values, n_nonpositive)
        in zip(cells, totals)
    )
    return PositivityReport(
        cells=report_cells, lam=lam, n_paths=n_paths, global_seed=global_seed
    )


# ---------------------------------------------------------------------------
# Moment probe
# ---------------------------------------------------------------------------

def _moment_chunk(task):
    (params, jump, m, p_list, global_seed, cfg, q), lo, hi = task
    inv_exp = 1.0 / (1.0 - params.rho)
    out = np.empty((hi - lo, len(p_list), 2))
    for i in range(lo, hi):
        try:
            bundle = generate_bundle(params, m, global_seed, i)
            trajectory, _ = tjabem_path(
                params, jump, bundle.fine_mesh, bundle.dw_fine, q, cfg
            )
        except (SolverError, MeshError, ValueError, OverflowError) as exc:
            raise PathFailure(
                f"path failed: {exc} (replay with global_seed={global_seed}, "
                f"path_index={i})",
                global_seed,
                i,
            ) from exc
        x = trajectory.z_post**inv_exp
        for j, p in enumerate(p_list):
            powered = x**p
            out[i - lo, j, 0] = powered.max()
            out[i - lo, j, 1] = powered[-1]
    return out


def moment_probe(
    params: ModelParams,
    jump: JumpCoefficient,
    M: int,
    n_paths: int,
    p_list: Sequence[float],
    global_seed: int,
    cfg: SolverConfig | None = None,
    parallelism: int = 1,
) -> MomentReport:
    """Sample running-supremum and terminal moments of the simulated state.

    Negative orders probe the inverse moments that control error propagation
    through the inverse transform. Every order must be admissible for the
    configuration's regime.
    """
    if cfg is None:
        cfg = SolverConfig()
    if n_paths < 1:
        raise InvalidModelError(f"n_paths must be at least 1, got {n_paths}")
    p_list = tuple(float(p) for p in p_list)
    for p in p_list:
        moment_admissible(params, p)
    validate_jump(jump, params)
    q = one_sided_lipschitz(params)
    payload = (params, jump, M, p_list, global_seed, cfg, q)
    parts = _map_chunks(_moment_chunk, payload, n_paths, parallelism)
    samples = np.vstack(parts)
    rows = []
    sqrt_n = math.sqrt(n_paths)
    for j, p in enumerate(p_list):
        sup_vals = samples[:, j, 0]
        term_vals = samples[:, j, 1]
        rows.append(
            MomentRow(
                p=p,
                sup_moment=float(sup_vals.mean()),
                sup_stderr=float(sup_vals.std(ddof=1) / sqrt_n),
                terminal_moment=float(term_vals.mean()),
                terminal_stderr=float(term_vals.std(ddof=1) / sqrt_n),
            )
        )
    return MomentReport(
        rows=tuple(rows), M=M, n_paths=n_paths, global_seed=global_seed
    )
