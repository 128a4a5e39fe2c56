"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavyweight Monte Carlo criteria use the experiment scales stated in the
criteria (1000 paths, the dyadic ladders with their fine references) and pin
every tolerance. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from jumpsde import (
    ModelParams,
    coarsen_increments,
    drift,
    diffusion,
    generate_bundle,
    implicit_step_z,
    linear_jump,
    make_jump,
    moment_probe,
    one_sided_lipschitz,
    positivity_table,
    strong_error_ladder,
    tjabem_path,
    transformed_drift,
    transformed_drift_prime,
    transformed_drift_second,
    zero_jump,
)
from jumpsde.mesh import JumpAdaptedMesh
from jumpsde.reports import (
    write_convergence_reports,
    write_moment_report,
    write_positivity_report,
)

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
        for k in range(5, 13):
            dt = 2.0**-k
            # jittered grid: random values with a guaranteed minimum gap, so
            # strict monotonicity is meaningful at solver resolution
            base = np.linspace(-10.0, 10.0, n_per_combo)
            gap = 20.0 / (n_per_combo - 1)
            rhs_values = base + rng.uniform(-0.4, 0.4, n_per_combo) * gap
            rhs_values.sort()
            prev_z = None
            for rhs in rhs_values:
                z = implicit_step_z(params, q, float(rhs), dt, z_init=prev_z)
                assert z > 0.0
                residual = z - dt * transformed_drift(params, z) - rhs
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
    for params in (SET1, SET2):
        for z in (0.25, 0.5, 1.0, 2.0, 4.0):
            eps = 1e-6 * z
            fd1 = (
                transformed_drift(params, z + eps) - transformed_drift(params, z - eps)
            ) / (2 * eps)
            assert fd1 == pytest.approx(transformed_drift_prime(params, z), rel=1e-5)
            fd2 = (
                transformed_drift_prime(params, z + eps)
                - transformed_drift_prime(params, z - eps)
            ) / (2 * eps)
            assert fd2 == pytest.approx(transformed_drift_second(params, z), rel=1e-5)
        rho = params.rho
        for x in np.logspace(-2, 2, 33):
            lhs = transformed_drift(params, x ** (1.0 - rho))
            rhs = (1.0 - rho) * x ** (-rho) * drift(params, x) + 0.5 * (1.0 - rho) * (
                -rho
            ) * x ** (-rho - 1.0) * diffusion(params, x) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-9)
    assert one_sided_lipschitz(SET1) == 0.0
    assert (SET1.gamma - SET1.rho) / (SET1.rho - 1.0) == 3.0
    print(
        "ACCEPTANCE 5: PASS - stencils at 1e-5, chain rule at 1e-9, "
        "Q(set1) = 0, step exponent m(set1) = 3"
    )


def test_criterion_6_coupling_and_mesh_suite():
    """Node-subset, telescoping, and max-step invariants on 1e4 bundles."""
    n_bundles = 0
    for lam, count in ((0.0, 3334), (1.0, 3333), (5.0, 3333)):
        params = replace(SET1, lam=lam)
        for i in range(count):
            bundle = generate_bundle(params, 64, 20240806, i)
            mesh = bundle.fine_mesh
            assert mesh.dt.max() <= mesh.base_dt
            flat = 0.0
            for v in bundle.dw_fine.tolist():
                flat += v
            m = (8, 16, 32)[i % 3]
            coarse, inc = coarsen_increments(bundle, m)
            assert coarse.dt.max() <= coarse.base_dt
            pos = np.searchsorted(mesh.nodes, coarse.nodes)
            assert np.array_equal(mesh.nodes[pos], coarse.nodes)
            total = 0.0
            for v in inc.tolist():
                total += v
            assert abs(total - flat) <= 1e-10
            n_bundles += 1
    assert n_bundles == 10_000
    print(
        "ACCEPTANCE 6: PASS - 10000 bundles over lambda in {0, 1, 5}: "
        "coarse nodes subset of fine, telescoping within 1e-10, steps <= T/M"
    )


def test_criterion_7_degeneration_suite():
    """Zero intensity reduces to the no-jump scheme; zero jumps are neutral."""
    params = replace(SET1, lam=0.0)

    def lamperti_euler_oracle(mesh, increments):
        rho, a3 = params.rho, params.alpha3
        z = params.x0 ** (1.0 - rho)
        for k in range(mesh.n_intervals):
            rhs = z + (1.0 - rho) * a3 * increments[k]
            dt = mesh.dt[k]
            g = lambda y: y - dt * transformed_drift(params, y) - rhs
            lo, hi = 1e-12, 10.0
            while g(lo) > 0.0:
                lo *= 0.5
            while g(hi) < 0.0:
                hi *= 2.0
            z = brentq(g, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=300)
        return z ** (1.0 / (1.0 - rho))

    worst = 0.0
    for i in range(20):
        bundle = generate_bundle(params, 128, 20240807, i)
        _, x_fast = tjabem_path(params, zero_jump(), bundle.fine_mesh, bundle.dw_fine)
        x_oracle = lamperti_euler_oracle(bundle.fine_mesh, bundle.dw_fine)
        worst = max(worst, abs(x_fast - x_oracle))
    assert worst <= 1e-10

    jumped = replace(SET1, lam=2.0)
    neutral_worst = 0.0
    for i in range(20):
        bundle = generate_bundle(jumped, 64, 20240808, i)
        mesh = bundle.fine_mesh
        flat = JumpAdaptedMesh(
            nodes=mesh.nodes,
            is_jump=np.zeros_like(mesh.is_jump),
            dt=mesh.dt,
            base_dt=mesh.base_dt,
        )
        t_a, _ = tjabem_path(jumped, zero_jump(), mesh, bundle.dw_fine)
        t_b, _ = tjabem_path(jumped, zero_jump(), flat, bundle.dw_fine)
        neutral_worst = max(
            neutral_worst, float(np.abs(t_a.z_post - t_b.z_post).max())
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
