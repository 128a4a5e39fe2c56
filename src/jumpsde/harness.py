"""Monte Carlo experiments: strong-error ladders, positivity and moment tables.

Every experiment runs through one path runner: paths are independent work
items distributed over contiguous index chunks, and each chunk of each of
the experiment's runs goes to that run's chunk function. Every experiment
steps its paths as lanes, a batch at a time: the ladder in two lane groups,
the reference and the levels, drawing the noise block by block in time;
the positivity table and the moment probe through tjabem_lanes, each path
opened once for all of its (T, M) meshes. Rows are assembled in chunk order
before reduction, and no lane depends on the others of its batch, so
reports are bit-identical regardless of the worker count. Before it opens
a path, an experiment checks once what its configuration alone decides,
its initial state and its steps' guard among them (check_paths), and
raises InvalidModelError for a refusal. A path that fails at run time
aborts the experiment carrying its (global_seed, path_index) for replay;
every chunk runs to its end or its first failure, and the lowest failing
path is named, within it the first run's failure. With parallelism > 1 the
jump coefficient must be picklable (built-in families always are; custom
ones need module-level callables).
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .mesh import MeshError, grid_nodes, place_batch
from .model import (
    InvalidModelError,
    JumpBounds,
    JumpCoefficient,
    ModelParams,
    drift_one_sided_lipschitz,
    moment_admissible,
    one_sided_lipschitz,
    validate_jump,
    validate_params,
)
# generate_bundle, coarsen_increments, regular_increments, tjabem_path and
# bem_path have no caller here, since every experiment steps lanes; the
# benchmark's tracer (perfbench/tracing.py) looks them up as names of this
# module, with validate_params, validate_jump, one_sided_lipschitz,
# drift_one_sided_lipschitz and ProcessPoolExecutor
from .paths import (  # noqa: F401
    coarse_block,
    coarsen_increments,
    fine_blocks,
    generate_bundle,
    level_cuts,
    mesh_block,
    open_path,
    open_shared_path,
    regular_increments,
    stream_keys,
    stream_pair,
)
from .solver import (  # noqa: F401
    BemLanes,
    LaneFailure,
    SolverError,
    TjabemLanes,
    _check_step_guard,
    bem_path,
    tjabem_lanes,
    tjabem_path,
)
from .transform import lamperti_forward

__all__ = [
    "SCHEMES",
    "PathFailure",
    "ConvergenceReport",
    "PositivityCell",
    "PositivityReport",
    "MomentRow",
    "MomentReport",
    "fit_order",
    "check_band",
    "check_ladder",
    "check_seed",
    "check_paths",
    "check_schemes",
    "check_moments",
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

# errors of one path's bundle or solve; anything else is a bug and propagates
_PATH_ERRORS = (SolverError, MeshError, ValueError, OverflowError)


def _replay_failure(exc: Exception, global_seed: int, path_index: int) -> PathFailure:
    """exc as the failure of one path, naming the seed and index to replay it."""
    return PathFailure(
        f"path failed: {exc} (replay with global_seed={global_seed}, "
        f"path_index={path_index})",
        global_seed,
        path_index,
    )


def check_seed(global_seed: int) -> None:
    """Raise unless global_seed, the seed of every path's streams, is a
    non-negative integer."""
    if not isinstance(global_seed, (int, np.integer)) or global_seed < 0:
        raise InvalidModelError(
            f"global_seed must be a non-negative integer, got {global_seed!r}")


def _chunk_ranges(n: int, n_chunks: int) -> list[tuple[int, int]]:
    n_chunks = max(1, min(n, n_chunks))
    size = math.ceil(n / n_chunks)
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _batches(lo, hi, size, global_seed, open_one, run) -> list:
    """run(paths) on each batch of at most size paths of lo..hi-1, in path
    order, each path opened by open_one(i, keys) with its row of the
    batch's stream_keys. A path that fails to open, or whose jump times
    run's placement rejects, is named unless run fails on a lower path of
    its batch first."""
    results = []
    for start in range(lo, hi, size):
        paths = []
        indices = range(start, min(start + size, hi))
        for i, keys in zip(indices, stream_keys(global_seed, indices)):
            try:
                paths.append(open_one(i, keys))
            except _PATH_ERRORS as exc:
                failure = _replay_failure(exc, global_seed, i)
                if paths:
                    _run_batch(run, paths)
                raise failure from exc
        results.append(_run_batch(run, paths))
    return results


def _run_batch(run, paths):
    """run(paths), or, where its placement rejects path k's jump times, the
    failure of run(paths[:k]) or else path k's."""
    try:
        return run(paths)
    except MeshError as exc:
        if exc.path is None:
            raise
        path = paths[exc.path]
        failure = _replay_failure(exc, path.global_seed, path.path_index)
        if exc.path:
            _run_batch(run, paths[: exc.path])
        raise failure from exc


def _run_chunk(task):
    """The rows of paths lo..hi of one run, or the PathFailure that stopped
    them: a run (chunk_rows, args) gives chunk_rows(lo, hi, *args)."""
    (chunk_rows, args), lo, hi = task
    try:
        return chunk_rows(lo, hi, *args)
    except PathFailure as failure:
        return failure


def _map_runs(runs: list, n_paths: int, n_chunks: int, parallelism: int) -> list[np.ndarray]:
    """Each run's rows over paths 0..n_paths-1, in path order.

    Every run is split into the same n_chunks path chunks, and all the
    chunks of all the runs go through one process pool (inline at
    parallelism 1) of at most one worker per CPU. The chunks never depend
    on the CPUs. Every task's outcome is kept, its rows or the PathFailure
    that stopped it; if any failed, the failure of the lowest (path, run)
    is raised, so the lowest failing path is named and, within it, the
    failure of the first run.
    """
    ranges = _chunk_ranges(n_paths, n_chunks)
    tasks = [(run, lo, hi) for run in runs for lo, hi in ranges]
    if parallelism <= 1:
        outcomes = [_run_chunk(task) for task in tasks]
    else:
        workers = min(parallelism, os.cpu_count() or 1)
        # numpy.random, imported here once, is inherited by forked workers,
        # each of which would otherwise import it to build its first
        # generator; importing jumpsde does not import it
        import numpy.random  # noqa: F401
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_chunk, tasks))
    n = len(ranges)
    failures = [(outcome.path_index, k // n, outcome) for k, outcome in enumerate(outcomes)
                if isinstance(outcome, PathFailure)]
    if failures:
        raise min(failures, key=lambda failure: failure[:2])[2]
    return [np.concatenate(outcomes[k : k + n]) for k in range(0, len(outcomes), n)]


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

def check_band(jump: JumpCoefficient, bounds: JumpBounds) -> None:
    """Raise unless the jump's transform band is bounded away from zero,
    which the convergence theory behind the ladder needs."""
    if not bounds.band_positive:
        raise InvalidModelError(
            "convergence experiments require the transform band to be bounded "
            f"away from zero (jump {jump.label} has band [{bounds.mu1}, {bounds.mu2}])"
        )


def check_ladder(m_list: Sequence[int], m_ref: int) -> tuple[int, ...]:
    """The ladder's step counts as ints, once they pass the ladder's checks.

    m_list needs at least two strictly increasing entries, each at least 1
    and dividing m_ref, so that every coarse mesh is made of fine-mesh
    intervals, and each below m_ref, so that no level is the reference itself.
    """
    m_list = tuple(int(m) for m in m_list)
    if len(m_list) < 2:
        raise InvalidModelError("the ladder needs at least two step counts")
    if min(m_list) < 1:
        raise InvalidModelError(f"ladder entry M = {min(m_list)} is below 1")
    if any(m2 <= m1 for m1, m2 in zip(m_list, m_list[1:])):
        raise InvalidModelError("m_list must be strictly increasing")
    for m in m_list:
        if m_ref % m != 0:
            raise MeshError(f"ladder entry M = {m} does not divide m_ref = {m_ref}")
    if m_list[-1] >= m_ref:
        raise InvalidModelError(
            f"ladder entry M = {m_list[-1]} is not below m_ref = {m_ref}; the "
            "reference must be finer than every level"
        )
    return m_list


def check_schemes(scheme: str, n_paths: int) -> tuple[str, ...]:
    """The schemes a ladder runs for scheme, "tjabem", "bem" or "both",
    once n_paths is at least 2, which a standard error needs."""
    if scheme not in (*SCHEMES, "both"):
        raise InvalidModelError(f"unknown scheme {scheme!r}; expected tjabem, bem or both")
    if n_paths < 2:
        raise InvalidModelError(f"n_paths must be at least 2, got {n_paths}")
    return SCHEMES if scheme == "both" else (scheme,)


def check_moments(params: ModelParams, n_paths: int, p_list: Sequence[float]) -> tuple[float, ...]:
    """The moment probe's orders as floats, once n_paths is at least 2,
    which a standard error needs, and the orders are one or more, each
    admissible for params' regime."""
    if n_paths < 2:
        raise InvalidModelError(f"n_paths must be at least 2, got {n_paths}")
    p_list = tuple(float(p) for p in p_list)
    if not p_list:
        raise InvalidModelError("p_list needs at least one moment order")
    for p in p_list:
        moment_admissible(params, p)
    return p_list


def check_paths(params: ModelParams, steps: Sequence[tuple[str, int]]) -> list[float]:
    """Q*dt for each (scheme, M) of steps, once every path of params can
    start and take those steps: lamperti_forward must give z0 = x0^(1-rho),
    where every tjabem path starts, each M must be at least 1, and then
    _check_step_guard must accept each scheme's step on the M-step grid of
    [0, T] with its one-sided bound Q (tjabem's in z, bem's in x). A refusal
    raises InvalidModelError with the transform's or the guard's message."""
    try:
        lamperti_forward(params.rho, params.x0)
    except (ValueError, OverflowError) as exc:
        raise InvalidModelError(f"initial state z0 = x0^(1-rho): {exc}") from None
    q_dt = []
    for scheme, m in steps:
        if m < 1:
            raise InvalidModelError(f"{scheme} at M = {m}: the step count must be at least 1")
        bound = one_sided_lipschitz if scheme == "tjabem" else drift_one_sided_lipschitz
        try:
            q_dt.append(_check_step_guard(bound(params), params.T / m))
        except SolverError as exc:
            raise InvalidModelError(f"{scheme} at M = {m}: {exc}") from None
    return q_dt


# fine grid intervals per block of a ladder kernel call, which sets how many
# paths it takes: a memory bound, since each (paths, steps) float array of a
# block is then 256 KiB however long the block is
_LADDER_CELLS = 2**15
# the ladder's lane groups: a task steps one of them or, inline, both
_LADDER_GROUPS = ("reference", "levels")
# Newton updates each lane takes before its residual is checked: the
# reference's short steps converge in two, the levels' longer steps in four.
# The positivity table's steps (dt from 1/32 to 1/128) take four: at three,
# some lane of its groups of thousands of lanes is pending after almost every
# step, and continuing the pending lanes costs more than a fourth update of
# every lane. Measured when wide groups still continued by index, on one
# worker's 500 paths of the benchmark's table (global seed 1003, lambda 1, a
# 2-vCPU host) the meshes of 32, 64 and 128 steps continued pending lanes on
# 35, 67 and 111 steps at three updates and on 18, 3 and 1 at four, which
# took 0.86-0.93, 0.90-0.94 and 0.92-0.99 of the time of three; five took
# longer than four at 64 and 128 steps. The table's counts are the same at
# any count
_REF_UPDATES = 2
_LEVEL_UPDATES = 4
_POSITIVITY_UPDATES = 4


def _ladder_rows(lo, hi, groups, params, jump, schemes, m_list, m_ref, global_seed) -> np.ndarray:
    """The terminal states of paths lo..hi-1 from the lane groups in groups.

    The paths step through _ladder_batch in path order, in batches of
    _LADDER_CELLS fine intervals per block, so a failure names the lowest
    failing path.
    """
    batch = max(1, _LADDER_CELLS * math.gcd(*m_list) // m_ref)
    args = (groups, params, jump, schemes, m_list, m_ref)
    return np.concatenate(_batches(
        lo, hi, batch, global_seed,
        lambda i, keys: open_path(params, global_seed, i, keys),
        lambda paths: _ladder_batch(paths, *args)))


def _ladder_batch(paths, groups, params, jump, schemes, m_list, m_ref) -> np.ndarray:
    """Terminal states per path from the lane groups in groups, stepping the
    paths as lanes.

    The groups are "reference", whose lanes give each path's x_ref, and
    "levels": the tjabem levels and the bem levels, two groups of lanes in
    which lane j*n + p is path p at m_list[j]. Row p holds path p's x_ref if
    the reference is stepped, then its x per (scheme, M) if the levels are.
    Time runs in blocks, one per interval of the grid of gcd(m_list) steps,
    whose ends are nodes of every mesh: each block's fine increments are
    drawn, the reference steps through them, and the levels step through
    their sums, which coarse_block forms for every level at once from the
    batch's level_cuts.
    A failure names the lowest failing path and, within it, what the path
    run on its own would have run first: the reference, then each M's
    schemes in order.
    """
    T, n, n_levels = params.T, len(paths), len(m_list)
    blocks = math.gcd(*m_list)
    spans = [m // blocks for m in m_list]
    ref = coarse = bem = None
    # the schemes whose levels this batch steps
    level_schemes = schemes if "levels" in groups else ()
    times = [path.jump_times for path in paths]
    placed = place_batch((m_ref,), T, times)
    z0 = lamperti_forward(params.rho, params.x0)
    with np.errstate(all="ignore"):
        if "reference" in groups:
            ref = TjabemLanes([(params, jump)], np.full(n, z0), _REF_UPDATES)
        if level_schemes:
            # lane j * n + p of the levels is path p at m_list[j]
            cuts = level_cuts(placed, place_batch(m_list, T, times), blocks)
        if "tjabem" in level_schemes:
            coarse = TjabemLanes([(params, jump)], np.full(n_levels * n, z0),
                                 _LEVEL_UPDATES)
        if "bem" in level_schemes:
            bem = BemLanes(params, jump, np.full(n_levels * n, params.x0),
                           _LEVEL_UPDATES)
            bem_dt = np.zeros((n_levels * n, spans[-1]))
            for j, m in enumerate(m_list):
                bem_dt[j * n : (j + 1) * n, : spans[j]] = T / m
            counts = _jump_counts(times, T, m_list, spans, blocks)
        for b, block in enumerate(fine_blocks(paths, placed, blocks)):
            if ref is not None:
                ref.run(block.dt, block.dw, block.jumps)
            if not level_schemes:
                continue
            stacked = coarse_block(block, cuts)
            if coarse is not None:
                coarse.run(stacked.dt, stacked.dw, stacked.jumps)
            if bem is not None:
                bem.run(bem_dt, stacked.grid, counts[b])

        columns = []
        if ref is not None:
            columns.append([ref.terminal(p) for p in range(n)])
        for s in level_schemes:
            for lane in range(0, n_levels * n, n):
                columns.append([coarse.terminal(lane + p) for p in range(n)]
                               if s == "tjabem" else bem.z[lane : lane + n].copy())
    # (path, what a path run on its own runs first) of each failed lane
    failures = []
    if ref is not None:
        failures += [((p, 0), error) for p, error in ref.failures.items()]
    for k, s in enumerate(level_schemes):
        lanes = coarse if s == "tjabem" else bem
        failures += [((lane % n, 1 + (lane // n) * len(schemes) + k), error)
                     for lane, error in lanes.failures.items()]
    if failures:
        (p, _), error = min(failures, key=lambda failure: failure[0])
        raise _replay_failure(error, paths[p].global_seed, paths[p].path_index) from error
    # C order, so that the parts join into C-ordered rows at any worker
    # count: numpy sums the mean errors in an order that follows the layout
    return np.column_stack(columns)


def _jump_counts(jump_times, T, m_list, spans, blocks) -> list[dict]:
    """counts[b][k] holds the lanes of the bem levels with jumps in step k
    of block b and their numbers of jumps, as two arrays, lane j * n + p
    being path p at m_list[j]; a step counts the jump times in its interval
    (t, t']."""
    n = len(jump_times)
    times = np.concatenate([np.empty(0), *jump_times])
    path = np.repeat(np.arange(n), [len(t) for t in jump_times])
    steps, lanes, counts = [], [], []
    for j, (m, span) in enumerate(zip(m_list, spans)):
        # the step k whose interval (nodes[k], nodes[k + 1]] holds each time
        k = np.searchsorted(grid_nodes(m, T), times) - 1
        inside = (k >= 0) & (k < m)
        step, dn = np.unique(path[inside] * m + k[inside], return_counts=True)
        p, k = np.divmod(step, m)
        steps.append(k // span * max(spans) + k % span)
        lanes.append(j * n + p)
        counts.append(dn)
    # (block, step) keys, the jumps of each in level and path order
    step = np.concatenate(steps)
    order = np.argsort(step, kind="stable")
    step, lanes, dn = step[order], np.concatenate(lanes)[order], np.concatenate(counts)[order]
    keys, first = np.unique(step, return_index=True)
    out = [{} for _ in range(blocks)]
    for key, lo, hi in zip(keys.tolist(), first.tolist(), [*first[1:].tolist(), step.size]):
        b, k = divmod(key, max(spans))
        out[b][k] = (lanes[lo:hi], dn[lo:hi])
    return out


def strong_error_ladder(
    params: ModelParams,
    jump: JumpCoefficient,
    scheme: str,
    m_list: Sequence[int],
    m_ref: int,
    n_paths: int,
    global_seed: int,
    parallelism: int = 1,
) -> dict[str, ConvergenceReport]:
    """Coupled multi-resolution strong errors against the fine reference.

    Every path builds one bundle at m_ref, computes the reference terminal
    state with the transformed jump-adapted scheme on the fine mesh, then
    reruns each requested scheme on coarsened versions of the same noise.
    scheme is "tjabem", "bem", or "both"; the result maps scheme name to its
    report (both schemes see identical bundles). The initial state, each
    scheme's longest step and the reference's are checked before any path.
    """
    check_seed(global_seed)
    validate_params(params)
    check_band(jump, validate_jump(jump, params))
    m_list = check_ladder(m_list, m_ref)
    schemes = check_schemes(scheme, n_paths)
    check_paths(params, [*((s, m_list[0]) for s in schemes), ("tjabem", m_ref)])
    args = (params, jump, schemes, m_list, m_ref, global_seed)
    # lanes even out the work, so one chunk per worker balances the load: one
    # task for both groups inline, else each group's own chunks, a worker each
    if parallelism <= 1:
        runs = [(_ladder_rows, (_LADDER_GROUPS, *args))]
    else:
        runs = [(_ladder_rows, ((group,), *args)) for group in _LADDER_GROUPS]
    parts = _map_runs(runs, n_paths, math.ceil(parallelism / len(runs)), parallelism)
    # column 0 holds x_ref, the others x per (scheme, M)
    x = np.concatenate(parts, axis=1)
    rows = np.abs(x[:, :1] - x[:, 1:]).reshape(n_paths, len(schemes), len(m_list))

    dt_list = tuple(params.T / m for m in m_list)
    reports: dict[str, ConvergenceReport] = {}
    for k, s in enumerate(schemes):
        errors = rows[:, k]
        mean = errors.mean(axis=0)
        stderr = errors.std(axis=0, ddof=1) / math.sqrt(n_paths)
        l2 = np.sqrt((errors**2).mean(axis=0))
        try:
            slope, intercept, r_squared = fit_order(list(zip(dt_list, mean)))
        except ValueError as exc:
            # a degenerate model can leave a level's every path on the reference
            raise SolverError(
                f"scheme {s}: no order fit to mean errors {mean.tolist()}: {exc}"
            ) from exc
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

# paths per batch of the table: a memory bound, since a batch holds one
# normals row per path and one mesh's padded (paths, steps) arrays at a time
_LANE_PATHS = 512


def _lane_counts(paths, cells, groups) -> np.ndarray:
    """(n_values, n_nonpositive) per cell, summed over a batch of shared paths.

    The groups' meshes run one after another; a failure names the lowest
    failing path and, within it, the first failing cell in report order.
    """
    counts = np.zeros((len(cells), 2), dtype=np.int64)
    failures = []
    for mesh, members in groups:
        block = mesh_block(paths, *mesh)
        try:
            _, nonpositive = tjabem_lanes([cells[c][:2] for c in members], block,
                                          updates=_POSITIVITY_UPDATES)
            counts[members, 0] = int(block.n.sum()) + len(paths)
            counts[members, 1] = nonpositive.sum(axis=1)
        except LaneFailure as exc:
            failures.append((exc.path, members[exc.cell], exc))
        # so that the next mesh's arrays replace this one's
        del block
    if failures:
        p, c, exc = min(failures, key=lambda failure: failure[:2])
        error = SolverError(_in_cell(cells[c][2], exc))
        raise _replay_failure(error, paths[p].global_seed, paths[p].path_index) from exc
    return counts


def _positivity_rows(lo, hi, cells, groups, lam, global_seed) -> np.ndarray:
    """(n_values, n_nonpositive) per cell, summed over paths lo..hi-1.

    groups lists each (T, M) mesh with the indices of its cells. Every path
    is opened once, by open_shared_path on the chunk's one stream_pair, for
    all the meshes. The paths step through tjabem_lanes in path order, at
    most _LANE_PATHS at a time, so a failure names the lowest failing path
    and, within it, the first failing cell in report order. The result is
    one row of shape (cells, 2).
    """
    meshes = [mesh for mesh, _ in groups]
    streams = stream_pair()
    counts = _batches(lo, hi, _LANE_PATHS, global_seed,
                      lambda i, keys: open_shared_path(lam, meshes, global_seed, i, keys,
                                                       streams),
                      lambda paths: _lane_counts(paths, cells, groups))
    return sum(counts)[None]


def _in_cell(cell, exc) -> str:
    """exc's message, naming the cell (set, jump label, dt) it failed in."""
    return f"in cell (set={cell[0]}, jump={cell[1]}, dt={cell[2]!r}): {exc}"


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
    parallelism: int = 1,
) -> PositivityReport:
    """Count nonpositive trajectory values per (set, jump, dt) cell.

    Counting is per node value over the post-jump states of every simulated
    trajectory (the original-state signs are identical). The jump intensity
    lam overrides the per-set value so all cells share one intensity. Cells
    are grouped by (T, M = T/dt), and each path is opened once for every
    group: one mesh per path and group serves every (set, jump) cell of the
    group, since it depends only on lam, T, M, the seed and the path index.
    Each cell's initial state and step are checked in report order before
    any path, and a refusal names its cell. A failure names the lowest
    failing path and, within it, the first failing cell in report order.
    """
    if n_paths < 1:
        raise InvalidModelError(f"n_paths must be at least 1, got {n_paths}")
    check_seed(global_seed)
    cells = []  # (params, jump, (set, jump label, dt)) in report order
    groups: dict[tuple[float, int], list[int]] = {}  # (T, M) -> cell indices
    for set_name, base_params in param_sets:
        params = replace(base_params, lam=lam)
        validate_params(params)
        for jump in jumps:
            validate_jump(jump, params)
            for dt in dt_list:
                m, cell = _steps_for_dt(params.T, dt), (set_name, jump.label, dt)
                try:
                    check_paths(params, [("tjabem", m)])
                except InvalidModelError as exc:
                    raise InvalidModelError(_in_cell(cell, exc)) from None
                groups.setdefault((params.T, m), []).append(len(cells))
                cells.append((params, jump, cell))
    # lanes even out the work, so one chunk per worker balances the load
    args = (tuple(cells), tuple(groups.items()), lam, global_seed)
    (rows,) = _map_runs([(_positivity_rows, args)], n_paths, parallelism, parallelism)
    report_cells = tuple(
        PositivityCell(*cell[2], n_values, n_nonpositive)
        for cell, (n_values, n_nonpositive) in zip(cells, rows.sum(axis=0).tolist())
    )
    return PositivityReport(
        cells=report_cells, lam=lam, n_paths=n_paths, global_seed=global_seed
    )


# ---------------------------------------------------------------------------
# Moment probe
# ---------------------------------------------------------------------------

def _moment_rows(lo, hi, params, jump, p_list, M, global_seed) -> np.ndarray:
    """(sup, terminal) of x**p per order p, for each path lo..hi-1.

    The paths are opened by open_shared_path on the chunk's one stream_pair
    for the one (T, M) mesh and step through tjabem_lanes in path order, at
    most _LANE_PATHS at a time, so a failure names the lowest failing path.
    The zero steps that pad a shorter mesh repeat its terminal state, so
    that neither moment moves.
    """
    def rows(paths):
        try:
            block = mesh_block(paths, params.T, M)
            *_, z_post = tjabem_lanes([(params, jump)], block, states=True)
        except LaneFailure as exc:
            path = paths[exc.path]
            raise _replay_failure(exc, path.global_seed, path.path_index) from exc
        x = z_post[0] ** (1.0 / (1.0 - params.rho))
        out = np.empty((len(paths), len(p_list), 2))
        for j, p in enumerate(p_list):
            powered = x**p
            out[:, j, 0] = powered.max(axis=1)
            out[:, j, 1] = powered[:, -1]
        return out

    streams = stream_pair()
    return np.concatenate(_batches(
        lo, hi, _LANE_PATHS, global_seed,
        lambda i, keys: open_shared_path(params.lam, [(params.T, M)], global_seed, i, keys,
                                         streams),
        rows))


def moment_probe(
    params: ModelParams,
    jump: JumpCoefficient,
    M: int,
    n_paths: int,
    p_list: Sequence[float],
    global_seed: int,
    parallelism: int = 1,
) -> MomentReport:
    """Sample running-supremum and terminal moments of the simulated state.

    Negative orders probe the inverse moments that control error propagation
    through the inverse transform. Every order must be admissible for the
    configuration's regime, and the initial state and the step are checked
    before any path.
    """
    p_list = check_moments(params, n_paths, p_list)
    check_seed(global_seed)
    validate_jump(jump, params)
    check_paths(params, [("tjabem", M)])
    args = (params, jump, p_list, M, global_seed)
    # lanes even out the work, so one chunk per worker balances the load
    (samples,) = _map_runs([(_moment_rows, args)], n_paths, parallelism, parallelism)
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
