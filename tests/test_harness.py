import inspect
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import jumpsde.harness
import jumpsde.paths
import jumpsde.solver
import oracles
from jumpsde import (
    InvalidModelError,
    MeshError,
    PathFailure,
    PositivityReport,
    SolverError,
    fit_order,
    linear_jump,
    make_jump,
    moment_probe,
    one_sided_lipschitz,
    positivity_table,
    sine_jump,
    strong_error_ladder,
    zero_jump,
)
from jumpsde.harness import PositivityCell
from jumpsde.paths import SharedPath
from jumpsde.model import drift_one_sided_lipschitz
from jumpsde.solver import RESIDUAL_TOL
from test_cli import finite_configs
from test_views import _validated

DEFAULT_JUMPS = (("linear", -0.5), ("linear", 0.5), ("sine", 1.0))


def test_fit_order_two_point_exact():
    slope, intercept, r2 = fit_order([(1.0, 1.0), (0.5, 0.5)])
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert intercept == pytest.approx(0.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_order_half_order_exact():
    slope, _, _ = fit_order([(1.0, 1.0), (0.5, math.sqrt(0.5))])
    assert slope == pytest.approx(0.5, abs=1e-12)


def test_fit_order_manufactured_power_law():
    dts = [2.0**-k for k in range(5, 10)]
    slope, _, r2 = fit_order([(dt, 0.37 * dt) for dt in dts])
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_order_with_multiplicative_noise():
    rng = np.random.Generator(np.random.Philox(10))
    dts = [2.0**-k for k in range(5, 10)]
    for order in (0.5, 1.0):
        noisy = [
            (dt, 0.2 * dt**order * (1.0 + rng.uniform(-0.05, 0.05))) for dt in dts
        ]
        slope, _, _ = fit_order(noisy)
        assert abs(slope - order) <= 0.1


def test_fit_order_input_validation():
    with pytest.raises(ValueError):
        fit_order([(1.0, 1.0)])
    with pytest.raises(ValueError):
        fit_order([(1.0, 1.0), (0.5, 0.0)])
    with pytest.raises(ValueError):
        fit_order([(1.0, 1.0), (0.0, 0.5)])


def test_ladder_smoke(set1):
    reports = strong_error_ladder(
        set1, linear_jump(-0.5), "tjabem",
        m_list=(8, 16, 32), m_ref=256, n_paths=40, global_seed=314,
    )
    report = reports["tjabem"]
    assert report.scheme == "tjabem"
    assert report.dt_list == (1.0 / 8, 1.0 / 16, 1.0 / 32)
    assert all(e > 0.0 for e in report.error_l1)
    assert all(s > 0.0 for s in report.stderr)
    assert all(l2 >= l1 for l1, l2 in zip(report.error_l1, report.error_l2))
    assert len(report.monotone_pairs) == 2
    assert 0.4 < report.slope < 1.6
    assert report.n_paths == 40 and report.m_ref == 256


def test_ladder_both_schemes_share_bundles(set1):
    both = strong_error_ladder(
        set1, linear_jump(1.0), "both",
        m_list=(8, 16), m_ref=128, n_paths=20, global_seed=9,
    )
    assert set(both) == {"tjabem", "bem"}
    solo = strong_error_ladder(
        set1, linear_jump(1.0), "tjabem",
        m_list=(8, 16), m_ref=128, n_paths=20, global_seed=9,
    )
    assert both["tjabem"] == solo["tjabem"]


def test_ladder_reproducible_across_parallelism(set1):
    kwargs = dict(
        m_list=(8, 16), m_ref=64, n_paths=24, global_seed=77,
    )
    serial = strong_error_ladder(set1, linear_jump(-0.5), "both", **kwargs)
    # at 2 each lane group is one task, as inline; at 3 and 4 each group has
    # two chunks, whose lane batches differ from the inline one's
    for parallelism in (2, 3, 4):
        parallel = strong_error_ladder(
            set1, linear_jump(-0.5), "both", parallelism=parallelism, **kwargs
        )
        assert serial == parallel


def test_ladder_validates_inputs(set1):
    with pytest.raises(InvalidModelError, match="strictly increasing"):
        strong_error_ladder(set1, zero_jump(), "tjabem", (16, 8), 64, 4, 0)
    with pytest.raises(InvalidModelError, match="two step counts"):
        strong_error_ladder(set1, zero_jump(), "tjabem", (8,), 64, 4, 0)
    with pytest.raises(MeshError, match="does not divide"):
        strong_error_ladder(set1, zero_jump(), "tjabem", (8, 24), 64, 4, 0)
    with pytest.raises(InvalidModelError, match="scheme"):
        strong_error_ladder(set1, zero_jump(), "euler", (8, 16), 64, 4, 0)


def test_ladder_refuses_a_step_count_below_1(set1):
    # (0, 8) is strictly increasing; m_ref % 0 used to raise ZeroDivisionError
    with pytest.raises(InvalidModelError, match="ladder entry M = 0 is below 1"):
        strong_error_ladder(set1, linear_jump(-0.5), "tjabem", (0, 8), 64, 4, 1)


@pytest.mark.parametrize("M", [0, -4])
def test_moment_probe_refuses_a_step_count_below_1(set1, M):
    # M = 0 used to divide T by zero; M = -4 passed every gate and failed
    # inside the run with place_batch's bare ValueError
    with pytest.raises(InvalidModelError, match=f"tjabem at M = {M}: the step count must be"):
        moment_probe(set1, linear_jump(-0.5), M, 4, (1.0,), 1)


def test_ladder_rejects_degenerate_band(set1):
    with pytest.raises(InvalidModelError, match="band"):
        strong_error_ladder(set1, sine_jump(1.0), "tjabem", (8, 16), 64, 4, 0)


def test_ladder_path_failure_carries_replay_info(set1, monkeypatch):
    monkeypatch.setattr(jumpsde.solver, "MAX_ITER", 1)
    with pytest.raises(PathFailure) as excinfo:
        strong_error_ladder(
            set1, linear_jump(-0.5), "tjabem",
            m_list=(8, 16), m_ref=64, n_paths=4, global_seed=21,
        )
    assert excinfo.value.global_seed == 21
    assert excinfo.value.path_index == 0


def test_ladder_path_failure_through_worker_pool(set1, monkeypatch):
    # the forked workers inherit the patched limit
    monkeypatch.setattr(jumpsde.solver, "MAX_ITER", 1)
    with pytest.raises(PathFailure) as excinfo:
        strong_error_ladder(
            set1, linear_jump(-0.5), "tjabem",
            m_list=(8, 16), m_ref=64, n_paths=4, global_seed=21, parallelism=2,
        )
    assert excinfo.value.path_index >= 0


def test_positivity_small_run(set1, set2):
    report = positivity_table(
        [("set1", set1), ("set2", set2)],
        [make_jump(f, p) for f, p in (("linear", -0.5), ("linear", 0.5), ("sine", 1.0))],
        [1.0 / 8, 1.0 / 16],
        lam=1.0,
        n_paths=20,
        global_seed=42,
    )
    assert len(report.cells) == 12
    for cell in report.cells:
        assert cell.n_values > 0
        assert cell.n_nonpositive == 0
        assert cell.percent == 0.0


def test_positivity_zero_intensity(set1):
    report = positivity_table(
        [("set1", set1)], [zero_jump()], [0.25], lam=0.0, n_paths=10, global_seed=3
    )
    (cell,) = report.cells
    assert cell.percent == 0.0
    assert cell.n_values == 10 * 5  # uniform grid: 5 nodes per path


def test_positivity_rejects_bad_dt(set1):
    with pytest.raises(ValueError, match="does not divide"):
        positivity_table(
            [("set1", set1)], [zero_jump()], [0.3], lam=0.0, n_paths=4, global_seed=0
        )


def test_positivity_reproducible_across_parallelism(set1):
    kwargs = dict(dt_list=[0.125], lam=1.0, n_paths=16, global_seed=8)
    a = positivity_table([("set1", set1)], [linear_jump(0.5)], **kwargs)
    for parallelism in (2, 3):
        b = positivity_table(
            [("set1", set1)], [linear_jump(0.5)], parallelism=parallelism, **kwargs
        )
        assert a == b


class _CountingPool:
    """Inline stand-in for ProcessPoolExecutor that counts pool starts."""

    starts = 0
    max_workers = None

    def __init__(self, max_workers=None):
        type(self).starts += 1
        type(self).max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return map(fn, iterable)


def test_positivity_starts_one_pool_for_all_cells(set1, set2, monkeypatch):
    args = ([("set1", set1), ("set2", set2)], [linear_jump(0.5)], [0.125, 0.0625])
    kwargs = dict(lam=2.0, n_paths=10, global_seed=8)
    serial = positivity_table(*args, **kwargs)
    monkeypatch.setattr(jumpsde.harness, "ProcessPoolExecutor", _CountingPool)
    pooled = positivity_table(*args, parallelism=2, **kwargs)
    assert _CountingPool.starts == 1
    assert len(pooled.cells) == 4
    assert pooled == serial

    # the ladder and the moment probe share the path runner and its one pool
    for run in (
        lambda par: strong_error_ladder(
            set1, linear_jump(0.5), "both", (8, 16), 64, 10, 8, parallelism=par
        ),
        lambda par: moment_probe(set1, linear_jump(0.5), 8, 10, [2.0], 8,
                                 parallelism=par),
    ):
        serial = run(1)
        _CountingPool.starts = 0
        assert run(2) == serial
        assert _CountingPool.starts == 1


def test_pool_is_capped_at_the_cpus(set1, monkeypatch):
    # the chunks still follow parallelism, so the report cannot move
    kwargs = dict(lam=2.0, n_paths=10, global_seed=8)
    args = ([("set1", set1)], [linear_jump(0.5)], [0.125])
    serial = positivity_table(*args, **kwargs)
    monkeypatch.setattr(jumpsde.harness, "ProcessPoolExecutor", _CountingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert positivity_table(*args, parallelism=500, **kwargs) == serial
    assert _CountingPool.max_workers == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert positivity_table(*args, parallelism=2, **kwargs) == serial
    assert _CountingPool.max_workers == 1


def _failing(build):
    def failing(*args, **kwargs):
        if inspect.signature(build).bind(*args, **kwargs).arguments["path_index"] == 3:
            raise MeshError("forced bundle failure")
        return build(*args, **kwargs)

    return failing


EXPERIMENTS = {
    "ladder": lambda params, par: strong_error_ladder(
        params, linear_jump(-0.5), "both", (8, 16), 64, 6, 29, parallelism=par
    ),
    "positivity": lambda params, par: positivity_table(
        [("set1", params)], [linear_jump(-0.5), linear_jump(0.5)], [0.25, 0.125],
        lam=1.0, n_paths=6, global_seed=29, parallelism=par,
    ),
    "moments": lambda params, par: moment_probe(
        params, linear_jump(-0.5), 8, 6, [1.0, -1.0], 29, parallelism=par
    ),
}


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_bundle_failure_carries_replay_info(set1, monkeypatch, experiment,
                                            parallelism):
    # the ladder draws its noise block by block from each path's open_path,
    # and the table and the moment probe open each path once; none builds a
    # bundle
    name = "open_path" if experiment == "ladder" else "open_shared_path"
    monkeypatch.setattr(jumpsde.harness, name, _failing(getattr(jumpsde.harness, name)))
    monkeypatch.setattr(jumpsde.harness, "ProcessPoolExecutor", _CountingPool)
    monkeypatch.setattr(_CountingPool, "starts", 0)
    with pytest.raises(PathFailure) as excinfo:
        EXPERIMENTS[experiment](set1, parallelism)
    assert (excinfo.value.global_seed, excinfo.value.path_index) == (29, 3)
    assert "forced bundle failure" in str(excinfo.value)
    assert _CountingPool.starts == (1 if parallelism > 1 else 0)


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_a_negative_seed_is_rejected_before_any_path_opens(set1, monkeypatch, experiment):
    opened = []
    for name in ("open_path", "open_shared_path"):
        monkeypatch.setattr(jumpsde.harness, name, lambda *args, **_: opened.append(args))
    seeded = {
        "ladder": lambda: strong_error_ladder(
            set1, linear_jump(-0.5), "both", (8, 16), 64, 6, -1),
        "positivity": lambda: positivity_table(
            [("set1", set1)], [linear_jump(-0.5)], [0.25], lam=1.0, n_paths=6,
            global_seed=-1),
        "moments": lambda: moment_probe(set1, linear_jump(-0.5), 8, 6, [1.0], -1),
    }
    with pytest.raises(InvalidModelError, match="global_seed must be a non-negative integer"):
        seeded[experiment]()
    assert opened == []


def _positivity_oracle(param_sets, jumps, dt_list, lam, n_paths, global_seed):
    """The positivity table built cell by cell, one bundle per cell and path."""
    cells = []
    for set_name, base_params in param_sets:
        params = replace(base_params, lam=lam)
        q = one_sided_lipschitz(params)
        for jump in jumps:
            for dt in dt_list:
                m = round(params.T / dt)
                n_values = n_nonpositive = 0
                for i in range(n_paths):
                    bundle = oracles.generate_bundle(params, m, global_seed, i)
                    trajectory, _ = oracles.tjabem_path(
                        params, jump, bundle.fine_mesh, bundle.dw_fine, q
                    )
                    n_values += trajectory.z_post.size
                    n_nonpositive += int(np.count_nonzero(trajectory.z_post <= 0.0))
                cells.append(
                    PositivityCell(set_name, jump.label, dt, n_values, n_nonpositive)
                )
    return PositivityReport(tuple(cells), lam, n_paths, global_seed)


def test_positivity_shares_bundles_across_cells(set1, set2, monkeypatch):
    # different horizons: (T, M) groups (1, 8), (1, 16), (0.5, 4), (0.5, 8)
    sets = [("set1", set1), ("set2", replace(set2, T=0.5))]
    jumps = [make_jump(f, p) for f, p in DEFAULT_JUMPS]
    args = (sets, jumps, [1.0 / 8, 1.0 / 16])
    kwargs = dict(lam=3.0, n_paths=7, global_seed=19)
    expected = _positivity_oracle(*args, **kwargs)

    calls = []

    def counting_opening(lam, meshes, global_seed, path_index, *args, **kwargs):
        calls.append((path_index, tuple(meshes)))
        return jumpsde.paths.open_shared_path(lam, meshes, global_seed, path_index,
                                              *args, **kwargs)

    monkeypatch.setattr(jumpsde.harness, "open_shared_path", counting_opening)
    assert positivity_table(*args, **kwargs) == expected
    # one opening per path serves both horizons and every mesh
    groups = ((1.0, 8), (1.0, 16), (0.5, 4), (0.5, 8))
    assert calls == [(i, groups) for i in range(7)]


@pytest.mark.parametrize("lane_paths", [1, 7, 512])
@pytest.mark.parametrize("parallelism", [1, 2, 3])
def test_positivity_table_equals_the_oracle_in_any_batches(
    set1, set2, monkeypatch, parallelism, lane_paths
):
    # the workers' chunks and the batches of lanes in them split the 17
    # paths differently at every setting, over two horizons at lambda = 5;
    # the forked workers inherit the patched batch size
    sets = [("set1", set1), ("set2", replace(set2, T=0.5))]
    jumps = [make_jump(f, p) for f, p in DEFAULT_JUMPS]
    args = (sets, jumps, [1.0 / 8, 1.0 / 16], 5.0, 17, 37)
    monkeypatch.setattr(jumpsde.harness, "_LANE_PATHS", lane_paths)
    assert positivity_table(*args, parallelism=parallelism) == _positivity_oracle(*args)


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    n_paths=st.integers(1, 6),
    jump_indices=st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True),
    horizons=st.tuples(st.sampled_from([0.5, 1.0]), st.sampled_from([0.5, 1.0])),
    dt_list=st.lists(
        st.sampled_from([0.25, 0.125]), min_size=1, max_size=2, unique=True
    ),
    global_seed=st.integers(0, 2**32 - 1),
)
def test_positivity_table_equals_per_cell_oracle(
    set1, set2, n_paths, jump_indices, horizons, dt_list, global_seed
):
    sets = [
        ("set1", replace(set1, T=horizons[0])),
        ("set2", replace(set2, T=horizons[1])),
    ]
    jumps = [make_jump(*DEFAULT_JUMPS[j]) for j in jump_indices]
    args = (sets, jumps, dt_list, 2.0, n_paths, global_seed)
    assert positivity_table(*args) == _positivity_oracle(*args)


@pytest.mark.parametrize("lam", [1.0, 5.0])
def test_the_table_does_not_depend_on_the_newton_count(set1, set2, monkeypatch, lam):
    # both presets, every default jump and the benchmark's step sizes: the
    # same report at three Newton updates a step as at the table's four,
    # though the lanes continue pending lanes more often at three
    jumps = [make_jump(f, p) for f, p in DEFAULT_JUMPS]
    args = ([("set1", set1), ("set2", set2)], jumps, [2.0**-5, 2.0**-6, 2.0**-7], lam, 300, 43)
    continued = []
    route = jumpsde.solver._Lanes._continue

    def counted(self, *rest):
        continued[-1] += 1
        return route(self, *rest)

    monkeypatch.setattr(jumpsde.solver._Lanes, "_continue", counted)
    reports = []
    for updates in (3, jumpsde.harness._POSITIVITY_UPDATES):
        monkeypatch.setattr(jumpsde.harness, "_POSITIVITY_UPDATES", updates)
        continued.append(0)
        reports.append(positivity_table(*args))
    assert reports[0] == reports[1]
    assert continued[0] > continued[1] > 0


def test_positivity_counts_reach_their_own_cells(set1, set2, monkeypatch):
    # real cells of one (T, M) group all count the same mesh nodes and no
    # nonpositive value; stand-in lanes give every cell its own count
    jumps = [make_jump(f, p) for f, p in DEFAULT_JUMPS]

    def marked_lanes(cells, block, **_):
        counts = [
            [3 * int(params.alpha_m1) + jumps.index(jump) + n
             for n in block.n.tolist()]
            for params, jump in cells
        ]
        return np.ones((len(cells), len(block.n))), np.array(counts)

    monkeypatch.setattr(jumpsde.harness, "ProcessPoolExecutor", _CountingPool)
    monkeypatch.setattr(jumpsde.harness, "tjabem_lanes", marked_lanes)
    report = positivity_table(
        [("set1", set1), ("set2", set2)], jumps, [0.25, 0.125],
        lam=0.0, n_paths=5, global_seed=4, parallelism=2,
    )
    expected = [
        3 * a + j + m for a in (2, 1) for j in range(3) for m in (4, 8)
    ]
    assert [cell.n_nonpositive for cell in report.cells] == [5 * k for k in expected]
    assert [cell.n_values for cell in report.cells] == [
        5 * (m + 1) for _ in range(6) for m in (4, 8)
    ]


def test_positivity_failure_names_its_cell(set1, monkeypatch):
    # path 2 jumps first (t = 0.0014), path 0 later (t = 0.53): the failure
    # named is the lowest path's, in the first failing cell. Without an
    # array form of h, that cell's jumps go to the failing scalar map.
    real_map, real_form = jumpsde.solver.jump_map, jumpsde.solver.array_h

    def failing_map(params, jump, z):
        if jump.label == "linear:0.5":
            raise SolverError("forced failure")
        return real_map(params, jump, z)

    def failing_form(jump):
        return None if jump.label == "linear:0.5" else real_form(jump)

    monkeypatch.setattr(jumpsde.solver, "array_h", failing_form)
    monkeypatch.setattr(jumpsde.solver, "jump_map", failing_map)
    with pytest.raises(PathFailure) as excinfo:
        positivity_table(
            [("set1", set1)], [linear_jump(-0.5), linear_jump(0.5)], [0.125],
            lam=1.0, n_paths=12, global_seed=23,
        )
    assert (excinfo.value.global_seed, excinfo.value.path_index) == (23, 0)
    message = str(excinfo.value)
    assert "set=set1, jump=linear:0.5, dt=0.125" in message
    assert "forced failure" in message


@pytest.mark.parametrize("lane_paths", [512, 2])
def test_positivity_failure_names_the_lowest_failing_path(set1, monkeypatch,
                                                          lane_paths):
    # with rho = 3 a jump of size 1e300*x underflows the transform back to z:
    # path 4 jumps at t = 0.1, path 2 at t = 0.9, in one chunk of paths 0-4,
    # stepped as one batch or as batches (0, 1), (2, 3), (4,); path-by-path
    # stepping meets path 2's failure first, so it is named
    monkeypatch.setattr(jumpsde.harness, "_LANE_PATHS", lane_paths)
    params = replace(set1, rho=3.0, gamma=6.0)
    jump_times = {2: [0.9], 4: [0.1]}

    def staged_opening(lam, meshes, global_seed, i, *_, **__):
        times = np.array(jump_times.get(i, []))
        normals = np.full(max(m + times.size for _, m in meshes), 0.01)
        return SharedPath(global_seed, i, times, normals)

    monkeypatch.setattr(jumpsde.harness, "open_shared_path", staged_opening)
    with pytest.raises(PathFailure) as excinfo:
        positivity_table(
            [("set1", params)], [linear_jump(-0.5), make_jump("linear", 1e300)],
            [0.125], lam=1.0, n_paths=20, global_seed=31,
        )
    assert (excinfo.value.global_seed, excinfo.value.path_index) == (31, 2)
    message = str(excinfo.value)
    assert "in cell (set=set1, jump=linear:1e+300, dt=0.125)" in message
    assert "forward transform" in message


def test_positivity_failure_in_two_meshes_names_the_first_cell_in_report_order(
        set1, monkeypatch):
    # with rho = 3 the jump x -> (1 + 1e162) x underflows the transform back
    # to z where x > 0.64 before it. Path 0 jumps at T; from step 64 on its
    # normals are -3, which leave x at T near 0.48 on the 128-step mesh for
    # A and near 0.86 on the 64-step one, and near 0.88 on both for B, whose
    # noise is small. The 128-step mesh runs first and fails at (B, 2^-7),
    # the 64-step one at (A, 2^-6), which comes first in the report
    stiff = replace(set1, rho=3.0, gamma=6.0)
    sets = [("A", stiff), ("B", replace(stiff, alpha3=0.01))]

    def staged_opening(lam, meshes, global_seed, i, *_, **__):
        times = np.array([1.0 - 1e-13] if i == 0 else [])
        normals = np.concatenate([np.full(64, 0.01), np.full(66, -3.0 if i == 0 else 0.01)])
        return SharedPath(global_seed, i, times, normals)

    monkeypatch.setattr(jumpsde.harness, "open_shared_path", staged_opening)
    groups = []
    lane_counts = jumpsde.harness._lane_counts

    def recorded(paths, cells, mesh_groups):
        groups.extend(mesh for mesh, _ in mesh_groups)
        return lane_counts(paths, cells, mesh_groups)

    monkeypatch.setattr(jumpsde.harness, "_lane_counts", recorded)
    with pytest.raises(PathFailure) as excinfo:
        positivity_table(sets, [make_jump("linear", 1e162)], [2.0**-7, 2.0**-6],
                         lam=1.0, n_paths=3, global_seed=41)
    assert groups == [(1.0, 128), (1.0, 64)]
    assert (excinfo.value.global_seed, excinfo.value.path_index) == (41, 0)
    message = str(excinfo.value)
    assert "in cell (set=A, jump=linear:1e+162, dt=0.015625)" in message
    assert "forward transform: result underflowed to 0" in message
    # each mesh fails on its own at the cell named above
    for dt, name in ((2.0**-7, "B"), (2.0**-6, "A")):
        with pytest.raises(PathFailure, match=rf"in cell \(set={name}, "):
            positivity_table(sets, [make_jump("linear", 1e162)], [dt],
                             lam=1.0, n_paths=3, global_seed=41)


@pytest.mark.parametrize("n_paths", [0, -1, 1])
def test_empty_runs_rejected(set1, n_paths):
    # a table needs one path; a standard error needs two
    if n_paths < 1:
        with pytest.raises(InvalidModelError, match="n_paths"):
            positivity_table(
                [("set1", set1)], [zero_jump()], [0.25], lam=0.0, n_paths=n_paths,
                global_seed=0,
            )
    with pytest.raises(InvalidModelError, match="n_paths must be at least 2"):
        moment_probe(set1, zero_jump(), 8, n_paths, [1.0], global_seed=0)
    with pytest.raises(InvalidModelError, match="n_paths must be at least 2"):
        strong_error_ladder(set1, zero_jump(), "tjabem", (8, 16), 64, n_paths, 0)


def test_moment_zeroth_order_is_one(set1):
    report = moment_probe(set1, linear_jump(-0.5), 16, 12, [0.0], global_seed=1)
    (row,) = report.rows
    assert row.sup_moment == 1.0
    assert row.terminal_moment == 1.0
    assert row.sup_stderr == 0.0


def test_moment_stability_under_doubling(set1):
    # sample moments should be finite and stable within 3 combined standard
    # errors when the path count doubles
    kwargs = dict(M=128, p_list=[2.0, -2.0], global_seed=62)
    small = moment_probe(set1, linear_jump(-0.5), n_paths=2000, **kwargs)
    large = moment_probe(set1, linear_jump(-0.5), n_paths=4000, **kwargs)
    for row_s, row_l in zip(small.rows, large.rows):
        for attr in ("sup_moment", "terminal_moment"):
            a, b = getattr(row_s, attr), getattr(row_l, attr)
            assert math.isfinite(a) and math.isfinite(b)
        se = math.hypot(row_s.sup_stderr, row_l.sup_stderr)
        assert abs(row_s.sup_moment - row_l.sup_moment) <= 3.0 * se
        se_t = math.hypot(row_s.terminal_stderr, row_l.terminal_stderr)
        assert abs(row_s.terminal_moment - row_l.terminal_moment) <= 3.0 * se_t


def test_moment_inadmissible_order_rejected(set1):
    critical = replace(set1, gamma=2.0)
    with pytest.raises(InvalidModelError, match="not admissible"):
        moment_probe(critical, zero_jump(), 8, 4, [6.0], global_seed=0)


@pytest.mark.parametrize("lam", [1.0, 5.0])
def test_moment_rows_match_the_oracle_loop(set1, set2, lam, monkeypatch):
    # each path's (sup, terminal) of x**p from the lanes against the one-path
    # loop, at positive and negative orders: within 1e-9 relative, about 100
    # times the largest distance measured (9.2e-12 over 36,000 values), where
    # the residual contract alone allows some 1e-8 on these paths. Batches of
    # 7 lanes give the same bytes as one batch
    p_list = (4.0, 2.0, 1.0, -1.0, -2.0)
    for params in (replace(set1, lam=lam), replace(set2, lam=lam)):
        for spec in DEFAULT_JUMPS:
            args = (params, make_jump(*spec), p_list, 32, 61)
            lanes = jumpsde.harness._moment_rows(0, 40, *args)
            loop = oracles.moment_rows(0, 40, *args)
            assert lanes.shape == loop.shape == (40, 5, 2)
            assert np.all(np.abs(lanes - loop) <= 1e-9 * np.abs(loop))
    monkeypatch.setattr(jumpsde.harness, "_LANE_PATHS", 7)
    assert jumpsde.harness._moment_rows(0, 40, *args).tobytes() == lanes.tobytes()


def test_moment_negative_orders_finite(set1):
    report = moment_probe(
        set1, linear_jump(-0.5), 32, 200, [-1.0, -2.0], global_seed=5
    )
    for row in report.rows:
        assert math.isfinite(row.sup_moment)
        assert math.isfinite(row.terminal_moment)
        assert row.sup_moment >= 1.0  # x0 = 1 is in every trajectory


def test_moment_empty_order_list_rejected(set1):
    with pytest.raises(InvalidModelError, match="at least one moment order"):
        moment_probe(set1, linear_jump(-0.5), 8, 4, [], global_seed=0)


def _oracle_rows(params, jump, m_list, m_ref, global_seed, n_paths):
    """The ladder's rows from the one-path loops, with a bound on each row's
    distance from the lanes' row, fixed by the residual contract.

    Each implicit step of either side meets |residual| <= RESIDUAL_TOL *
    max(1, |rhs|). With G' >= g = 1 - Q*dt, two such solutions of one step
    differ by at most 2*that/g, plus their difference in rhs: an earlier
    difference e enters rhs as e*(1 + a3*rho*x^(rho-1)*|dW| + |h'|*dN) in
    bem's original coordinates, as e in tjabem's, and a tjabem jump scales
    a z-difference by |1 + h'| (x/(x + h))^rho. x = z^(1/(1 - rho)) then
    turns a z-difference e into at most |dx/dz| e. Each factor is taken at
    the oracle's states with room to spare for the distance of the lanes'
    states from them, which the differences (near 1e-12 against states near
    1) never use up.
    """
    rho, a3, tol = params.rho, params.alpha3, RESIDUAL_TOL
    q_z, q_x = one_sided_lipschitz(params), drift_one_sided_lipschitz(params)
    slope = max(abs(jump.dh(x)) for x in np.geomspace(1e-3, 1e3, 200))

    def tjabem(mesh, dw):
        trajectory, x = oracles.tjabem_path(params, jump, mesh, dw, q_z)
        z = trajectory.z_post
        e = 0.0
        for k in range(mesh.n_intervals):
            rhs = z[k] + (1.0 - rho) * a3 * dw[k]
            e = (e + 2.0 * tol * max(1.0, abs(rhs)) * 1.01) / (1.0 - q_z * mesh.dt[k])
            if mesh.is_jump[k + 1]:
                x_pre = trajectory.z_pre[k + 1] ** (1.0 / (1.0 - rho))
                e *= 1.01 * abs(1.0 + jump.dh(x_pre)) * (
                    x_pre / (x_pre + jump.h(x_pre))) ** rho
        dxdz = abs(1.0 / (1.0 - rho)) * (0.99 * z[-1]) ** (rho / (1.0 - rho))
        return x, dxdz * e

    def bem(m, dw, dn):
        dt = params.T / m
        x, e = params.x0, 0.0
        for k in range(m):
            rhs = x + a3 * x**rho * dw[k] + jump.h(x) * dn[k]
            # d(rhs)/dx, with room for the states' distance from x
            grow = abs(1.0 + a3 * rho * x ** (rho - 1.0) * dw[k] + jump.dh(x) * dn[k])
            grow += 1e-6 * (abs(dw[k]) + slope * dn[k])
            e = (e * grow + 2.0 * tol * max(1.0, abs(rhs)) * 1.01) / (1.0 - q_x * dt)
            # one step of bem_path from x, with its own arithmetic
            x = oracles.bem_path(replace(params, x0=x, T=dt), jump, 1, dw[k : k + 1],
                         dn[k : k + 1], q_x)
        return x, e

    rows = np.empty((n_paths, 2, len(m_list)))
    bounds = np.empty_like(rows)
    for i in range(n_paths):
        bundle = oracles.generate_bundle(params, m_ref, global_seed, i)
        x_ref, e_ref = tjabem(bundle.fine_mesh, bundle.dw_fine)
        for j, m in enumerate(m_list):
            for s, (x, e) in enumerate((tjabem(*oracles.coarsen_increments(bundle, m)),
                                        bem(m, *oracles.regular_increments(bundle, m)))):
                rows[i, s, j] = abs(x_ref - x)
                bounds[i, s, j] = e_ref + e
    return rows, bounds


def _lane_rows(params, jump, m_list, m_ref, global_seed, lo, hi):
    """|x_ref - x| per (path, scheme, M) of paths lo..hi-1, both lane groups
    stepped by one task, as the inline ladder steps them."""
    x = jumpsde.harness._ladder_rows(
        lo, hi, ("reference", "levels"), params, jump, ("tjabem", "bem"), m_list,
        m_ref, global_seed,
    )
    return np.abs(x[:, :1] - x[:, 1:]).reshape(hi - lo, 2, len(m_list))


# "uneven" is not nested: its blocks are the intervals of the 8-step grid
LADDERS = {"small": ((8, 16), 64, 3), "uneven": ((16, 24), 48, 3),
           "compare": ((64, 128, 256, 512, 1024), 8192, 1)}


@pytest.mark.parametrize("ladder", sorted(LADDERS))
@pytest.mark.parametrize("lam", [0.0, 5.0])
@pytest.mark.parametrize("spec", [("linear", -0.5), ("linear", 0.5), ("linear", 1.0),
                                  ("zero",)])
def test_ladder_lanes_match_the_path_loops(set1, set2, spec, lam, ladder):
    m_list, m_ref, n_paths = LADDERS[ladder]
    for params in (replace(set1, lam=lam), replace(set2, lam=lam)):
        jump = make_jump(*spec)
        rows, bounds = _oracle_rows(params, jump, m_list, m_ref, 41, n_paths)
        lanes = _lane_rows(params, jump, m_list, m_ref, 41, 0, n_paths)
        assert lanes.shape == rows.shape
        assert np.all(np.abs(lanes - rows) <= bounds)
        assert bounds.max() < 1e-6


@pytest.mark.filterwarnings("ignore:Q\\*dt = .* above 0.25")
@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=finite_configs(), lam=st.floats(0.0, 5.0), n_paths=st.integers(2, 3))
def test_ladder_lanes_match_the_path_loops_on_drawn_configs(values, lam, n_paths):
    # a tiny ladder of both schemes on each drawn config that validate passes
    m_list, m_ref = (8, 16), 64
    config = _validated({**values, "lambda": repr(lam), "m_list": "8, 16", "m_ref": m_ref})
    if config is not None:
        args = (config.params, config.jump, m_list, m_ref, config.global_seed)
        rows, bounds = _oracle_rows(*args, n_paths)
        lanes = _lane_rows(*args, 0, n_paths)
        assert lanes.shape == rows.shape
        assert np.all(np.abs(lanes - rows) <= bounds)


@pytest.mark.parametrize("spec", [("linear", 1.0), ("linear", -0.5)])
def test_ladder_lanes_do_not_depend_on_their_batch(set1, spec):
    # every path of a 64-path batch alone, in batches of 8 and in a batch of
    # 13 that starts elsewhere: the batches' blocks pad their paths' steps
    # to different widths
    params = replace(set1, lam=5.0)
    args = (params, make_jump(*spec), (8, 16, 32), 256, 43)
    batch = _lane_rows(*args, 0, 64)
    eights = np.concatenate([_lane_rows(*args, lo, lo + 8) for lo in range(0, 64, 8)])
    assert eights.tobytes() == batch.tobytes()
    assert _lane_rows(*args, 51, 64).tobytes() == batch[51:].tobytes()
    for p in range(64):
        assert _lane_rows(*args, p, p + 1).tobytes() == batch[p : p + 1].tobytes()


def test_ladder_failure_names_the_lowest_failing_path(set1, monkeypatch):
    # path 4 jumps at t = 0.1 and path 2 at t = 0.9, in one batch; every jump
    # goes to the failing scalar map, without an array form of h, and fails,
    # so path 4 fails first in time, but path 2 is named
    jump_times = {2: [0.9], 4: [0.1]}

    def staged_path(params, global_seed, i, keys=None):
        path = jumpsde.paths.open_path(replace(params, lam=0.0), global_seed, i, keys)
        return replace(path, jump_times=np.array(jump_times.get(i, [])))

    def failing_map(params, jump, z):
        raise SolverError("forced failure")

    monkeypatch.setattr(jumpsde.harness, "open_path", staged_path)
    monkeypatch.setattr(jumpsde.solver, "array_h", lambda jump: None)
    monkeypatch.setattr(jumpsde.solver, "jump_map", failing_map)
    with pytest.raises(PathFailure) as excinfo:
        strong_error_ladder(set1, linear_jump(0.5), "both", (8, 16), 64, 12, 47)
    assert (excinfo.value.global_seed, excinfo.value.path_index) == (47, 2)
    assert "forced failure" in str(excinfo.value)


def _failing_lanes(lanes, name, fail_path, n_paths):
    """lanes whose runs fail path fail_path's lanes, lane l being path
    l % n_paths of a batch of n_paths paths."""

    class Failing(lanes):
        def run(self, dt, dw, jumps):
            super().run(dt, dw, jumps)
            for lane in range(fail_path, self.z.size, n_paths):
                self.fail(lane, SolverError(f"forced {name} failure"))

    return Failing


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("ref_path, level_path, named_path, named", [
    (5, 2, 2, "level"),
    (3, 3, 3, "reference"),
])
def test_ladder_failure_order_across_lane_groups(set1, monkeypatch, parallelism,
                                                 ref_path, level_path, named_path,
                                                 named):
    # with scheme bem the reference is the only TjabemLanes and the bem
    # levels the only BemLanes; inline both step in one task, at parallelism
    # 2 each group is its own task, and either way the lowest failing path
    # is named and, within it, the reference
    n_paths = 8
    monkeypatch.setattr(jumpsde.harness, "TjabemLanes", _failing_lanes(
        jumpsde.harness.TjabemLanes, "reference", ref_path, n_paths))
    monkeypatch.setattr(jumpsde.harness, "BemLanes", _failing_lanes(
        jumpsde.harness.BemLanes, "level", level_path, n_paths))
    with pytest.raises(PathFailure) as excinfo:
        strong_error_ladder(set1, linear_jump(0.5), "bem", (8, 16), 64, n_paths, 53,
                            parallelism=parallelism)
    assert (excinfo.value.global_seed, excinfo.value.path_index) == (53, named_path)
    assert f"forced {named} failure" in str(excinfo.value)
