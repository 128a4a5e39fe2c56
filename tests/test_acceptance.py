"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavyweight Monte Carlo criteria use the experiment scales stated in the
criteria (1000 paths, the dyadic ladders with their fine references) and pin
every tolerance. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from jumpsde import (
    ModelParams,
    build_mesh,
    lamperti_inverse,
    linear_jump,
    make_jump,
    moment_probe,
    one_sided_lipschitz,
    positivity_table,
    strong_error_ladder,
    zero_jump,
)
import oracles
from jumpsde.mesh import grid_nodes, place_batch
from jumpsde.model import make_transformed_drift
from jumpsde.paths import coarse_block, fine_blocks, level_cuts, open_path, stream_keys
from jumpsde.reports import (
    write_convergence_reports,
    write_moment_report,
    write_positivity_report,
)
from jumpsde.solver import _check_step_guard, _implicit_solve, tjabem_lanes

SET1 = ModelParams(
    alpha_m1=2.0, alpha0=1.0, alpha1=1.5, alpha2=5.0, alpha3=1.0,
    gamma=3.0, rho=1.5, lam=1.0, x0=1.0, T=1.0,
)
SET2 = ModelParams(
    alpha_m1=1.0, alpha0=2.0, alpha1=1.5, alpha2=3.0, alpha3=1.0,
    gamma=3.5, rho=1.5, lam=1.0, x0=1.0, T=1.0,
)


def test_criterion_1_positivity_table():
    """Table cells all report exactly zero nonpositive values."""
    start = time.perf_counter()
    report = positivity_table(
        [("set1", SET1), ("set2", SET2)],
        [make_jump(f, p) for f, p in (("linear", -0.5), ("linear", 0.5), ("sine", 1.0))],
        [2.0**-5, 2.0**-6, 2.0**-7],
        lam=1.0,
        n_paths=1000,
        global_seed=20240801,
    )
    elapsed = time.perf_counter() - start
    assert len(report.cells) == 18
    for cell in report.cells:
        assert cell.n_values >= 1000 * 33
        assert cell.n_nonpositive == 0
        assert cell.percent == 0.0
    assert elapsed < 120.0, f"positivity table took {elapsed:.1f}s (target 120s)"
    print(
        f"ACCEPTANCE 1: PASS - 18/18 cells at 0% nonpositive "
        f"({sum(c.n_values for c in report.cells)} values, {elapsed:.1f}s)"
    )


@pytest.mark.parametrize("name,params", [("set1", SET1), ("set2", SET2)])
def test_criterion_2_first_order_convergence(name, params):
    """Transformed scheme converges with order one against the fine reference."""
    start = time.perf_counter()
    reports = strong_error_ladder(
        params,
        linear_jump(-0.5),
        "tjabem",
        m_list=(32, 64, 128, 256, 512),
        m_ref=4096,
        n_paths=1000,
        global_seed=20240802,
    )
    elapsed = time.perf_counter() - start
    report = reports["tjabem"]
    assert 0.85 <= report.slope <= 1.15, f"{name} slope {report.slope}"
    assert report.r_squared >= 0.98, f"{name} r^2 {report.r_squared}"
    assert elapsed < 900.0, f"ladder took {elapsed:.1f}s (target 900s)"
    print(
        f"ACCEPTANCE 2 ({name}): PASS - slope {report.slope:.4f} in [0.85, 1.15], "
        f"r^2 {report.r_squared:.5f} >= 0.98 ({elapsed:.1f}s)"
    )


def test_criterion_3_scheme_comparison():
    """Transformed scheme beats the regular-grid baseline on shared bundles."""
    start = time.perf_counter()
    reports = strong_error_ladder(
        SET1,
        linear_jump(1.0),
        "both",
        m_list=(64, 128, 256, 512, 1024),
        m_ref=8192,
        n_paths=1000,
        global_seed=20240803,
    )
    elapsed = time.perf_counter() - start
    tj, bem = reports["tjabem"], reports["bem"]
    assert 0.85 <= tj.slope <= 1.15, f"tjabem slope {tj.slope}"
    assert 0.35 <= bem.slope <= 0.65, f"bem slope {bem.slope}"
    assert tj.slope - bem.slope >= 0.3, f"gap {tj.slope - bem.slope}"
    print(
        f"ACCEPTANCE 3: PASS - tjabem {tj.slope:.4f} in [0.85, 1.15], "
        f"bem {bem.slope:.4f} in [0.35, 0.65], gap {tj.slope - bem.slope:.4f} "
        f">= 0.3 ({elapsed:.1f}s)"
    )


def test_criterion_4_solver_property_suite():
    """1e5 implicit solves: residual contract, positivity, monotonicity."""
    rng = np.random.Generator(np.random.Philox(20240804))
    n_per_combo = 6250  # 2 params x 8 step sizes x 6250 = 1e5 solves
    total = 0
    for params in (SET1, SET2):
        q = one_sided_lipschitz(params)
        # the bracketed solve of the lanes' fallback on F's term table
        value, slope = make_transformed_drift(params)
        for k in range(5, 13):
            dt = 2.0**-k
            _check_step_guard(q, dt)
            # jittered grid: random values with a guaranteed minimum gap, so
            # strict monotonicity is meaningful at solver resolution
            base = np.linspace(-10.0, 10.0, n_per_combo)
            gap = 20.0 / (n_per_combo - 1)
            rhs_values = base + rng.uniform(-0.4, 0.4, n_per_combo) * gap
            rhs_values.sort()
            prev_z = None
            for rhs in rhs_values:
                z = _implicit_solve(value, slope, dt, float(rhs), prev_z)
                assert z > 0.0
                residual = z - dt * oracles.transformed_drift(params, z) - rhs
                assert abs(residual) <= 1e-12 * max(1.0, abs(rhs))
                if prev_z is not None:
                    assert z > prev_z
                prev_z = z
                total += 1
    assert total == 100_000
    print(f"ACCEPTANCE 4: PASS - {total} solves met the 1e-12 residual contract, "
          f"all positive, all strictly monotone in rhs")


def test_criterion_5_formula_oracles():
    """Derivative stencils, chain-rule identity, and the clamped bound."""
    F, F1, F2 = (oracles.transformed_drift, oracles.transformed_drift_prime,
                 oracles.transformed_drift_second)
    for params in (SET1, SET2):
        for z in (0.25, 0.5, 1.0, 2.0, 4.0):
            eps = 1e-6 * z
            fd1 = (F(params, z + eps) - F(params, z - eps)) / (2 * eps)
            assert fd1 == pytest.approx(F1(params, z), rel=1e-5)
            fd2 = (F1(params, z + eps) - F1(params, z - eps)) / (2 * eps)
            assert fd2 == pytest.approx(F2(params, z), rel=1e-5)
        rho = params.rho
        for x in np.logspace(-2, 2, 33):
            lhs = F(params, x ** (1.0 - rho))
            rhs = (1.0 - rho) * x ** (-rho) * oracles.drift(params, x) + 0.5 * (1.0 - rho) * (
                -rho
            ) * x ** (-rho - 1.0) * oracles.diffusion(params, x) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-9)
    assert one_sided_lipschitz(SET1) == 0.0
    assert (SET1.gamma - SET1.rho) / (SET1.rho - 1.0) == 3.0
    print(
        "ACCEPTANCE 5: PASS - stencils at 1e-5, chain rule at 1e-9, "
        "Q(set1) = 0, step exponent m(set1) = 3"
    )


def _fine_batch(params, m_ref, global_seed, indices):
    """The paths of these indices, opened as the ladder opens them, and
    their m_ref-step meshes' placement and one whole Block."""
    paths = [open_path(params, global_seed, i, keys)
             for i, keys in zip(indices, stream_keys(global_seed, indices))]
    placed = place_batch((m_ref,), params.T, [path.jump_times for path in paths])
    (block,) = fine_blocks(paths, placed, 1)
    return paths, placed, block


def _mesh_nodes(placed):
    """The whole mesh of each path of a one-grid placement, a row per path
    padded with nan: the grid's nodes and the path's inserted times, each at
    its index in the path's mesh."""
    (M,) = placed.M.tolist()
    inserted = ~placed.on_grid
    extra = np.bincount(placed.lane[inserted], minlength=placed.n)
    nodes = np.full((placed.n, M + 1 + int(extra.max(initial=0))), np.nan)
    path = np.arange(placed.n)[:, None]
    nodes[path, placed.grid_index(path, np.arange(M + 1))] = grid_nodes(M, placed.T)
    nodes[placed.lane[inserted], placed.index[inserted]] = placed.times[inserted]
    return nodes


def _row_sums(values):
    """Each row's left-to-right sum from 0.0, a column at a time; the zeros
    that pad a row add nothing."""
    total = np.zeros(values.shape[0])
    for column in values.T:
        total += column
    return total


def test_criterion_6_coupling_and_mesh_suite():
    """Node-subset, telescoping, and max-step invariants on 1e4 bundles."""
    n_bundles = 0
    for lam, count in ((0.0, 3334), (1.0, 3333), (5.0, 3333)):
        params = replace(SET1, lam=lam)
        # path i coarsens to (8, 16, 32)[i % 3] steps: a batch per coarse grid
        for first, m in enumerate((8, 16, 32)):
            paths, placed, block = _fine_batch(params, 64, 20240806, range(first, count, 3))
            coarse = place_batch((m,), params.T, [path.jump_times for path in paths])
            levels = coarse_block(block, level_cuts(placed, coarse, 1))
            assert block.dt.max() <= params.T / 64
            assert levels.dt.max() <= params.T / m
            fine_nodes, coarse_nodes = _mesh_nodes(placed), _mesh_nodes(coarse)
            for p in range(placed.n):
                mesh = fine_nodes[p, : block.n[p] + 1]
                nodes = coarse_nodes[p, : levels.steps[p] + 1]
                pos = np.searchsorted(mesh, nodes)
                assert np.array_equal(mesh[pos], nodes)
            flat, total = _row_sums(block.dw), _row_sums(levels.dw)
            assert np.all(np.abs(total - flat) <= 1e-10)
            n_bundles += placed.n
    assert n_bundles == 10_000
    print(
        "ACCEPTANCE 6: PASS - 10000 bundles over lambda in {0, 1, 5}: "
        "coarse nodes subset of fine, telescoping within 1e-10, steps <= T/M"
    )


def test_criterion_7_degeneration_suite():
    """Zero intensity reduces to the no-jump scheme; zero jumps are neutral."""
    params = replace(SET1, lam=0.0)

    paths, _, block = _fine_batch(params, 128, 20240807, range(20))
    z, _ = tjabem_lanes([(params, zero_jump())], block)
    worst = 0.0
    for p, path in enumerate(paths):
        x_fast = lamperti_inverse(params.rho, float(z[0, p]))
        x_oracle = oracles.lamperti_euler(params, build_mesh(128, params.T, path.jump_times),
                                          block.dw[p], xtol=1e-15, maxiter=300)
        worst = max(worst, abs(x_fast - x_oracle))
    assert worst <= 1e-10

    jumped = replace(SET1, lam=2.0)
    _, _, block = _fine_batch(jumped, 64, 20240808, range(20))
    cells = [(jumped, zero_jump())]
    # the same steps with their jump nodes flagged, and with none flagged
    *_, z_jump = tjabem_lanes(cells, block, states=True)
    *_, z_flat = tjabem_lanes(cells, replace(block, jumps={}), states=True)
    neutral_worst = max(
        float(np.abs(a[: n + 1] - b[: n + 1]).max())
        for a, b, n in zip(z_jump[0], z_flat[0], block.n.tolist())
    )
    assert neutral_worst <= 1e-12
    print(
        f"ACCEPTANCE 7: PASS - zero-intensity deviation {worst:.2e} <= 1e-10, "
        f"zero-jump node deviation {neutral_worst:.2e} <= solver tolerance"
    )


def test_criterion_8_byte_identical_reports(tmp_path):
    """Reports rerun at parallelism 1 and 8 are byte-identical."""
    echo = {"note": "reproducibility check"}
    paths = {}
    for par in (1, 8):
        out = tmp_path / f"par{par}"
        ladder = strong_error_ladder(
            SET1, linear_jump(-0.5), "both",
            m_list=(16, 32), m_ref=256, n_paths=64, global_seed=20240809,
            parallelism=par,
        )
        written = write_convergence_reports(ladder, out, echo)
        pos = positivity_table(
            [("set1", SET1)], [linear_jump(0.5)], [0.125], lam=1.0,
            n_paths=32, global_seed=20240810, parallelism=par,
        )
        written += write_positivity_report(pos, out, echo)
        mom = moment_probe(
            SET1, linear_jump(-0.5), 32, 48, [2.0, -2.0],
            global_seed=20240811, parallelism=par,
        )
        written += write_moment_report(mom, out, echo)
        paths[par] = sorted(written)
    assert [p.name for p in paths[1]] == [p.name for p in paths[8]]
    for a, b in zip(paths[1], paths[8]):
        assert a.read_bytes() == b.read_bytes(), f"{a.name} differs"
    print(
        f"ACCEPTANCE 8: PASS - {len(paths[1])} report files byte-identical "
        f"at parallelism 1 and 8"
    )
