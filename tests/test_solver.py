from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from jumpsde import (
    ModelParams,
    custom_jump,
    SolverError,
    build_mesh,
    bem_path,
    drift,
    generate_bundle,
    implicit_step_z,
    jump_map,
    lamperti_forward,
    lamperti_inverse,
    linear_jump,
    make_jump,
    one_sided_lipschitz,
    regular_increments,
    step_size_diagnostics,
    tjabem_path,
    transformed_drift,
    zero_jump,
)
import jumpsde.solver
import oracles
from jumpsde.mesh import JumpAdaptedMesh
from jumpsde.paths import whole_block
from jumpsde.model import (
    drift_one_sided_lipschitz,
    make_drift,
    make_transformed_drift,
)
from jumpsde.solver import (
    BemLanes,
    RESIDUAL_TOL,
    TjabemLanes,
    _implicit_solve,
    _LaneDrift,
    tjabem_lanes,
)


def test_constructed_root(set1):
    for dt in (2.0**-5, 2.0**-8):
        rhs = 1.0 - dt * transformed_drift(set1, 1.0)
        z = implicit_step_z(set1, 0.0, rhs, dt)
        assert abs(z - 1.0) <= 1e-11


def test_vanishing_implicit_term(set1):
    z = implicit_step_z(set1, 0.0, 2.0, 1e-14)
    assert abs(z - 2.0) <= 1e-10


def test_frozen_regression_root(set1):
    # bisection oracle on [1e-8, 10] run before the build, 200 halvings
    z = implicit_step_z(set1, 0.0, 1.0, 2.0**-5)
    assert z == pytest.approx(1.0370017918908809876, abs=1e-11)
    assert z > 1.0


def test_residual_contract_random_battery(set1, set2):
    rng = np.random.Generator(np.random.Philox(5))
    for params in (set1, set2):
        for _ in range(250):
            rhs = float(rng.uniform(-10.0, 10.0))
            dt = float(2.0 ** -rng.integers(5, 13))
            z = implicit_step_z(params, 0.0, rhs, dt)
            assert z > 0.0
            residual = z - dt * transformed_drift(params, z) - rhs
            assert abs(residual) <= RESIDUAL_TOL * max(1.0, abs(rhs))


def test_monotone_in_rhs(set1):
    zs = [
        implicit_step_z(set1, 0.0, rhs, 2.0**-6)
        for rhs in np.linspace(-10.0, 10.0, 101)
    ]
    assert all(a < b for a, b in zip(zs, zs[1:]))


def _stiff_params():
    # large alpha0 gives a strictly positive one-sided bound
    return ModelParams(
        alpha_m1=2.0, alpha0=50.0, alpha1=1.5, alpha2=5.0, alpha3=1.0,
        gamma=3.0, rho=1.5, lam=0.0, x0=1.0, T=1.0,
    )


def test_step_guard_violation_and_warning():
    params = _stiff_params()
    q = one_sided_lipschitz(params)
    assert q > 0.0
    with pytest.raises(SolverError, match="step-size guard"):
        implicit_step_z(params, q, 1.0, 0.6 / q)
    with pytest.warns(RuntimeWarning, match="above 0.25"):
        implicit_step_z(params, q, 1.0, 0.3 / q)


def test_single_step_unrolled(set1):
    params = replace(set1, lam=0.0)
    mesh = build_mesh(1, 1.0, [])
    trajectory, x_terminal = tjabem_path(params, zero_jump(), mesh, [0.0])
    z0 = lamperti_forward(params.rho, params.x0)
    expected = lamperti_inverse(
        params.rho, implicit_step_z(params, 0.0, z0, 1.0)
    )
    assert x_terminal == pytest.approx(expected, rel=1e-14)
    assert trajectory.z_pre[0] == z0
    assert trajectory.z_post[-1] == trajectory.z_pre[-1]


def test_zero_intensity_matches_direct_lamperti_euler(set1):
    params = replace(set1, lam=0.0)
    for i in range(5):
        bundle = generate_bundle(params, 64, 99, i)
        _, x_fast = tjabem_path(params, zero_jump(), bundle.fine_mesh, bundle.dw_fine)
        x_oracle = oracles.lamperti_euler(params, bundle.fine_mesh, bundle.dw_fine)
        assert abs(x_fast - x_oracle) <= 1e-10


def test_zero_jump_coefficient_neutralizes_jump_nodes(set1):
    params = replace(set1, lam=2.0)
    bundle = generate_bundle(params, 32, 17, 4)
    mesh = bundle.fine_mesh
    assert mesh.is_jump.any()
    flat = JumpAdaptedMesh(
        nodes=mesh.nodes,
        is_jump=np.zeros_like(mesh.is_jump),
        dt=mesh.dt,
        base_dt=mesh.base_dt,
    )
    t_jump, x_jump = tjabem_path(params, zero_jump(), mesh, bundle.dw_fine)
    t_flat, x_flat = tjabem_path(params, zero_jump(), flat, bundle.dw_fine)
    assert np.allclose(t_jump.z_post, t_flat.z_post, rtol=0.0, atol=1e-12)
    assert abs(x_jump - x_flat) <= 1e-12


def test_left_limit_bookkeeping(set1):
    bundle = generate_bundle(set1, 32, 2024, 2)
    jump = linear_jump(-0.5)
    trajectory, _ = tjabem_path(set1, jump, bundle.fine_mesh, bundle.dw_fine)
    flags = bundle.fine_mesh.is_jump
    assert flags.any()
    for k in range(len(flags)):
        if flags[k]:
            assert trajectory.z_post[k] == jump_map(set1, jump, trajectory.z_pre[k])
        else:
            assert trajectory.z_post[k] == trajectory.z_pre[k]


def test_trajectory_positivity_battery(set1, set2):
    for params in (set1, set2):
        stepped = replace(params, lam=5.0)
        for i in range(50):
            bundle = generate_bundle(stepped, 32, 555, i)
            trajectory, x_terminal = tjabem_path(
                stepped, linear_jump(-0.5), bundle.fine_mesh, bundle.dw_fine
            )
            assert (trajectory.z_pre > 0.0).all()
            assert (trajectory.z_post > 0.0).all()
            assert x_terminal > 0.0


def test_tjabem_frozen_regression(set1):
    # pinned by an independent bisection reimplementation of the recursion
    bundle = generate_bundle(set1, 32, 2024, 2)
    assert bundle.jump_times.size == 3
    for run in (tjabem_path, oracles.tjabem_path):
        _, x_terminal = run(set1, linear_jump(-0.5), bundle.fine_mesh, bundle.dw_fine)
        assert x_terminal == pytest.approx(0.8741282984427632, abs=1e-10)


def test_increment_length_mismatch(set1):
    bundle = generate_bundle(set1, 8, 3, 0)
    with pytest.raises(ValueError, match="increments length"):
        tjabem_path(set1, zero_jump(), bundle.fine_mesh, bundle.dw_fine[:-1])


def test_bem_unrolled_single_step(set1):
    x1 = bem_path(set1, zero_jump(), 1, [0.0], [0])
    residual = x1 - 1.0 * drift(set1, x1) - set1.x0
    assert abs(residual) <= RESIDUAL_TOL
    oracle = brentq(
        lambda x: x - drift(set1, x) - set1.x0, 1e-8, 10.0, xtol=1e-14, rtol=8.9e-16
    )
    assert x1 == pytest.approx(oracle, abs=1e-11)


def test_bem_zero_jump_matches_drift_implicit_euler(set1):
    params = replace(set1, lam=0.0)
    bundle = generate_bundle(params, 16, 12, 0)
    dw, dn = regular_increments(bundle, 16)
    x_fast = bem_path(params, zero_jump(), 16, dw, dn)
    # independent drift-implicit oracle
    x = params.x0
    dt = params.T / 16
    for k in range(16):
        rhs = x + params.alpha3 * x**params.rho * dw[k]
        x = brentq(
            lambda y: y - dt * drift(params, y) - rhs,
            1e-10, 50.0, xtol=1e-14, rtol=8.9e-16, maxiter=200,
        )
    assert abs(x_fast - x) <= 1e-10


def test_bem_frozen_regression(set1):
    bundle = generate_bundle(set1, 64, 2024, 2)
    dw, dn = regular_increments(bundle, 64)
    assert dn.sum() == 3
    for run in (bem_path, oracles.bem_path):
        x_terminal = run(set1, linear_jump(-0.5), 64, dw, dn)
        assert x_terminal == pytest.approx(0.6894105912649875, abs=1e-10)
        assert x_terminal > 0.0


def test_bem_positivity_with_jumps(set1):
    params = replace(set1, lam=5.0)
    for i in range(25):
        bundle = generate_bundle(params, 64, 31, i)
        dw, dn = regular_increments(bundle, 64)
        assert bem_path(params, linear_jump(1.0), 64, dw, dn) > 0.0


def test_diagnostics_exponent_value(set1):
    assert (set1.gamma - set1.rho) / (set1.rho - 1.0) == 3.0


def test_diagnostics_frozen_booleans(set1):
    # direct substitution oracle at dt = 2^-5, eps = 0.01 (with p = 1 the
    # admissible interval is (0, 1/24), so 0.01 is legal)
    diag = step_size_diagnostics(set1, 0.0, 2.0**-5, 0.01, p=1.0)
    assert diag.power_condition_ok is True
    assert diag.epsilon_condition_ok is False
    assert diag.q_dt == 0.0


def test_diagnostics_hold_for_small_steps(set1):
    # both inequalities are monotone in dt and hold by dt = 2^-20 for an
    # epsilon in the p-free admissible range
    diag = step_size_diagnostics(set1, 0.0, 2.0**-20, 0.2)
    assert diag.power_condition_ok and diag.epsilon_condition_ok


def test_diagnostics_epsilon_gate(set1):
    with pytest.raises(ValueError, match="admissible"):
        step_size_diagnostics(set1, 0.0, 2.0**-5, 0.25)  # above the p-free cap 2/9
    with pytest.raises(ValueError, match="admissible"):
        step_size_diagnostics(set1, 0.0, 2.0**-5, 0.05, p=1.0)  # above 1/24
    step_size_diagnostics(set1, 0.0, 2.0**-5, 0.04, p=1.0)


def test_diagnostics_require_supercritical(set1):
    critical = replace(set1, gamma=2.0)
    with pytest.raises(SolverError, match="supercritical"):
        step_size_diagnostics(critical, 0.0, 2.0**-5, 0.01)


def _count_fallbacks(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _implicit_solve(*args)

    monkeypatch.setattr(jumpsde.solver, "_implicit_solve", counted)
    return calls


def _assert_step_matches_oracle(fval, fslope, dt, rhs, z_new, z_start, q):
    # both roots meet the residual contract, and G' >= 1 - q*dt bounds their gap
    tol = RESIDUAL_TOL * max(1.0, abs(rhs))
    assert abs((z_new - rhs) - dt * fval(z_new)) <= tol
    z_oracle = _implicit_solve(fval, fslope, dt, rhs, z_start)
    assert abs(z_new - z_oracle) <= 2.0 * tol / (1.0 - q * dt)


@pytest.mark.parametrize("jump", [linear_jump(-0.5), linear_jump(1.0)])
def test_tjabem_nodes_match_the_bracketed_oracle(set1, set2, jump, monkeypatch):
    fallbacks = _count_fallbacks(monkeypatch)
    for params in (replace(set1, lam=5.0), replace(set2, lam=5.0)):
        q = one_sided_lipschitz(params)
        fval, fslope = make_transformed_drift(params)
        noise_coef = (1.0 - params.rho) * params.alpha3
        for i in range(3):
            bundle = generate_bundle(params, 256, 71, i)
            mesh = bundle.fine_mesh
            assert mesh.is_jump.any()
            trajectory, _ = oracles.tjabem_path(params, jump, mesh, bundle.dw_fine, q)
            for k in range(mesh.n_intervals):
                z_start = trajectory.z_post[k]
                rhs = z_start + noise_coef * bundle.dw_fine[k]
                _assert_step_matches_oracle(
                    fval, fslope, mesh.dt[k], rhs, trajectory.z_pre[k + 1],
                    z_start, q,
                )
    assert fallbacks == []  # every step above was solved by the Newton-first step


@pytest.mark.parametrize("jump", [linear_jump(-0.5), linear_jump(1.0)])
def test_bem_nodes_match_the_bracketed_oracle(set1, set2, jump, monkeypatch):
    fallbacks = _count_fallbacks(monkeypatch)
    M = 64
    for params in (replace(set1, lam=5.0), replace(set2, lam=5.0)):
        q = drift_one_sided_lipschitz(params)
        fval, fslope = make_drift(params)
        dt = params.T / M
        bundle = generate_bundle(params, M, 72, 0)
        dw, dn = oracles.regular_increments(bundle, M)
        assert dn.any()
        # node k is the terminal state of the first k steps: with T = 1 and M
        # a power of two, the prefix horizon k*dt split into k steps is dt
        # exactly, so the prefix run repeats the full run's arithmetic
        nodes = [params.x0] + [
            oracles.bem_path(replace(params, T=k * dt), jump, k, dw[:k], dn[:k], q)
            for k in range(1, M + 1)
        ]
        for k in range(M):
            x = nodes[k]
            rhs = x + params.alpha3 * x**params.rho * dw[k] + jump.h(x) * dn[k]
            _assert_step_matches_oracle(fval, fslope, dt, rhs, nodes[k + 1], x, q)
    assert fallbacks == []


def test_tjabem_hands_a_failed_newton_step_to_the_bracketed_solver(
    set1, monkeypatch
):
    fallbacks = _count_fallbacks(monkeypatch)
    params = replace(set1, lam=0.0)
    fval, _ = make_transformed_drift(params)
    noise_coef = (1.0 - params.rho) * params.alpha3
    z0 = lamperti_forward(params.rho, params.x0)
    # a large negative rhs: the first Newton iterate from z0 lands below zero;
    # a huge positive one: the iterates reach z where z^5 overflows
    for T, dw in ((2.0**-10, 100.0), (1.0, -1e70)):
        mesh = build_mesh(1, T, [])
        trajectory, _ = oracles.tjabem_path(replace(params, T=T), zero_jump(), mesh, [dw], 0.0)
        rhs = z0 + noise_coef * dw
        z = trajectory.z_pre[-1]
        assert z > 0.0
        assert abs((z - rhs) - T * fval(z)) <= RESIDUAL_TOL * max(1.0, abs(rhs))
    assert len(fallbacks) == 2


def test_newton_step_falls_back_on_the_stiff_model(monkeypatch):
    # Q > 0 lets G' fall to 1 - Q*dt; a negative rhs sends the first Newton
    # iterate out of the bracket, while rhs > 0 stays on the Newton path
    fallbacks = _count_fallbacks(monkeypatch)
    params = replace(_stiff_params(), T=2.0**-11)
    q = one_sided_lipschitz(params)
    assert 0.0 < q * params.T < 0.25
    fval, _ = make_transformed_drift(params)
    noise_coef = (1.0 - params.rho) * params.alpha3
    mesh = build_mesh(1, params.T, [])
    for dw, expected_fallbacks in ((0.0, 0), (1.0, 0), (2.5, 1), (20.0, 2)):
        trajectory, _ = oracles.tjabem_path(params, zero_jump(), mesh, [dw], q)
        rhs = trajectory.z_post[0] + noise_coef * dw
        z = trajectory.z_pre[1]
        assert z > 0.0
        tol = RESIDUAL_TOL * max(1.0, abs(rhs))
        assert abs((z - rhs) - params.T * fval(z)) <= tol
        assert len(fallbacks) == expected_fallbacks


def test_bem_hands_a_failed_newton_step_to_the_bracketed_solver(set1, monkeypatch):
    fallbacks = _count_fallbacks(monkeypatch)
    params = replace(set1, lam=0.0, T=2.0**-10)
    fval, _ = make_drift(params)
    # rhs = 1 + 1*(-50) = -49: Newton from x0 = 1 overshoots below zero
    x = oracles.bem_path(params, zero_jump(), 1, [-50.0], [0])
    assert x > 0.0
    assert abs((x + 49.0) - params.T * fval(x)) <= RESIDUAL_TOL * 49.0
    assert len(fallbacks) == 1


DEFAULT_JUMPS = (("linear", -0.5), ("linear", 0.5), ("sine", 1.0))


def _lane_cells(param_sets, jump_specs):
    return [
        (params, make_jump(*spec), one_sided_lipschitz(params))
        for params in param_sets
        for spec in jump_specs
    ]


def _run_lanes(cells, bundles):
    return tjabem_lanes(
        cells, whole_block([b.fine_mesh for b in bundles], [b.dw_fine for b in bundles])
    )


@pytest.mark.parametrize("lam", [0.0, 5.0])
@pytest.mark.parametrize("M", [8, 64])
def test_lanes_match_the_path_loop(set1, set2, lam, M):
    # Q = 0 for both sets, so G' >= 1: two solutions of one step that both meet
    # |residual| <= RESIDUAL_TOL*max(1, |rhs|) differ by at most twice that,
    # and a solve does not amplify an earlier difference; each default jump
    # at most doubles a z-difference (|dz'/dz| = |1 + h'(x)| (x/(x+h(x)))^rho)
    sets = [replace(set1, lam=lam), replace(set2, lam=lam)]
    cells = _lane_cells(sets, DEFAULT_JUMPS + (("zero",),))
    assert all(q == 0.0 for _, _, q in cells)
    bundles = [generate_bundle(sets[0], M, 83, i) for i in range(12)]
    z_lanes, n_nonpositive = _run_lanes(cells, bundles)
    assert z_lanes.shape == n_nonpositive.shape == (len(cells), len(bundles))
    assert not n_nonpositive.any()
    for c, (params, jump, q) in enumerate(cells):
        noise_coef = (1.0 - params.rho) * params.alpha3
        for p, bundle in enumerate(bundles):
            mesh = bundle.fine_mesh
            trajectory, _ = oracles.tjabem_path(params, jump, mesh, bundle.dw_fine, q)
            rhs = trajectory.z_post[:-1] + noise_coef * bundle.dw_fine
            n_jumps = int(mesh.is_jump.sum())
            bound = (2.0**n_jumps * mesh.n_intervals * 2.0 * RESIDUAL_TOL
                     * max(1.0, float(np.abs(rhs).max())))
            assert abs(z_lanes[c, p] - trajectory.z_post[-1]) <= bound
    if lam:
        assert any(b.fine_mesh.is_jump.any() for b in bundles)


def test_lanes_fall_back_on_the_stiff_model(monkeypatch):
    # the lanes of test_newton_step_falls_back_on_the_stiff_model, side by side:
    # dW = 2.5 and 20 leave Newton's bracket and go to the bracketed solver
    fallbacks = _count_fallbacks(monkeypatch)
    params = replace(_stiff_params(), T=2.0**-11)
    q = one_sided_lipschitz(params)
    assert 0.0 < q * params.T < 0.25
    fval, _ = make_transformed_drift(params)
    dws = [0.0, 1.0, 2.5, 20.0]
    mesh = build_mesh(1, params.T, [])
    z, n_nonpositive = tjabem_lanes(
        [(params, zero_jump(), q)], whole_block([mesh] * 4, [[dw] for dw in dws])
    )
    assert not n_nonpositive.any()
    z0 = lamperti_forward(params.rho, params.x0)
    noise_coef = (1.0 - params.rho) * params.alpha3
    for z_lane, dw in zip(z[0].tolist(), dws):
        rhs = z0 + noise_coef * dw
        assert z_lane > 0.0
        tol = RESIDUAL_TOL * max(1.0, abs(rhs))
        assert abs((z_lane - rhs) - params.T * fval(z_lane)) <= tol
    assert [call[3] for call in fallbacks] == [z0 + noise_coef * dw for dw in (2.5, 20.0)]


def test_lanes_do_not_depend_on_their_chunk(set1, set2):
    # a path's lanes alone, in a chunk of 7 and at other positions in a
    # reversed chunk of 125 paths, all of whose meshes have their own lengths
    sets = [replace(set1, lam=5.0), replace(set2, lam=5.0)]
    cells = _lane_cells(sets, DEFAULT_JUMPS)
    bundles = [generate_bundle(sets[0], 32, 84, i) for i in range(125)]
    assert len({b.fine_mesh.n_intervals for b in bundles[:7]}) > 1
    z7, n7 = _run_lanes(cells, bundles[:7])
    z125, n125 = _run_lanes(cells, bundles[::-1])
    for p in range(7):
        z1, n1 = _run_lanes(cells, bundles[p : p + 1])
        assert np.array_equal(z1[:, 0], z7[:, p])
        assert np.array_equal(z1[:, 0], z125[:, 124 - p])
        assert np.array_equal(n1[:, 0], n125[:, 124 - p])


def test_lanes_count_their_nonpositive_states(set1, set2, monkeypatch):
    # a stand-in jump map that flips the sign of z makes nonpositive states;
    # the lanes count them as the path loop's trajectories show them (whose
    # terminal x, undefined for z <= 0, is left out). The first path jumps
    # at its last node, T, and is shorter than the second, so its negative
    # terminal state must not be counted again on the padded steps. Without
    # an array form of h, every lane's jump goes to the stand-in.
    monkeypatch.setattr(jumpsde.solver, "array_h", lambda jump: None)
    monkeypatch.setattr(jumpsde.solver, "jump_map", lambda params, jump, z: -z)
    monkeypatch.setattr(jumpsde.solver, "lamperti_inverse", lambda rho, z: z)
    sets = [replace(set1, lam=5.0), replace(set2, lam=5.0)]
    cells = _lane_cells(sets, DEFAULT_JUMPS[:1])
    meshes = [build_mesh(16, 1.0, [1.0 - 1e-13]), build_mesh(16, 1.0, [0.3, 0.6])]
    increments = [np.full(mesh.n_intervals, 0.05) for mesh in meshes]
    for i in range(6):
        bundle = generate_bundle(sets[0], 16, 85, i)
        meshes.append(bundle.fine_mesh)
        increments.append(bundle.dw_fine)
    _, n_nonpositive = tjabem_lanes(cells, whole_block(meshes, increments))
    for c, (params, jump, q) in enumerate(cells):
        for p, (mesh, dw) in enumerate(zip(meshes, increments)):
            trajectory, _ = oracles.tjabem_path(params, jump, mesh, dw, q)
            assert n_nonpositive[c, p] == np.count_nonzero(trajectory.z_post <= 0.0)
    assert n_nonpositive.min() > 0


def _halving_h(x):
    return -0.5 * x


def _halving_dh(x):
    return -0.5


def test_a_lanes_jump_has_the_same_bits_alone_as_with_other_lanes_and_cells(
    set1, set2, monkeypatch
):
    # cells of three rhos (chained and numpy powers), every built-in family
    # and a custom one; a lane whose x overflows and a cell whose jump
    # underflows the forward power go to the scalar map, which fails them
    rho2 = replace(set2, rho=2.0, gamma=5.0)
    rho125 = replace(set1, rho=1.25)
    rho3 = replace(set1, rho=3.0, gamma=6.0)
    cells = [
        (set1, linear_jump(-0.5)), (rho2, make_jump("sine", 1.0)),
        (rho125, make_jump("rational", 0.5)), (set2, zero_jump()),
        (rho3, make_jump("sine", -0.3)), (set1, custom_jump(_halving_h, _halving_dh)),
        (rho3, make_jump("linear", 1e300)), (rho125, linear_jump(0.5)),
    ]
    n = 67
    rng = np.random.Generator(np.random.Philox(13))
    z0 = rng.uniform(0.05, 20.0, (len(cells), n))
    z0[:, 5] = 1e-200
    scalar_calls = []
    real_map = jumpsde.solver.jump_map

    def counted_map(params, jump, z):
        scalar_calls.append(z)
        return real_map(params, jump, z)

    monkeypatch.setattr(jumpsde.solver, "jump_map", counted_map)
    with np.errstate(all="ignore"):
        together = TjabemLanes(cells, z0.copy(), 3)
        together.jump_columns(list(range(n)))
        # the custom cell's lanes, the cell whose jump underflows and the
        # lanes of column 5 whose x overflows (all but rho = 2's x = 1/z and
        # rho = 3's x = z^-0.5) are mapped one at a time
        overflowing = {0, 2, 3, 5, 6, 7}
        assert len(scalar_calls) == 2 * n + len(overflowing) - 2
        subset = TjabemLanes(cells[::-1], z0[::-1].copy(), 3)
        columns = [40, 3, 5, 66, 0]
        subset.jump_columns(columns)
        for c, (params, jump) in enumerate(cells):
            for p in range(n):
                alone = TjabemLanes([(params, jump)], z0[c : c + 1, p : p + 1].copy(), 3)
                alone.jump_columns([0])
                assert alone.z.tobytes() == together.z[c : c + 1, p : p + 1].tobytes()
                assert ((0, 0) in alone.failures) == ((c, p) in together.failures)
                if p in columns:
                    assert subset.z[len(cells) - 1 - c, p] == alone.z[0, 0]
                try:
                    mapped = real_map(params, jump, z0[c, p])
                except (ValueError, OverflowError):
                    assert (c, p) in together.failures
                else:
                    assert together.z[c, p] == mapped
    assert set(together.failures) == {(c, 5) for c in overflowing} | {(6, p) for p in range(n)}


def test_lanes_refresh_only_the_lanes_that_moved(set1, set2, monkeypatch):
    # jumps and a fallback set single lanes between steps; the next step's
    # F and F' of those lanes alone must be the bits of an evaluation of
    # every lane. A group this narrow evaluates every lane, unless its
    # full-width limit is below its width, as here
    fallbacks = _count_fallbacks(monkeypatch)
    stiff = replace(_stiff_params(), T=2.0**-11)
    cells = [(stiff, zero_jump()), (set1, linear_jump(0.5)), (set2, make_jump("sine", 1.0))]
    z0 = np.array([[lamperti_forward(p.rho, p.x0)] * 6 for p, _ in cells])
    monkeypatch.setattr(jumpsde.solver, "_FULL_WIDTH", z0.size - 1)
    moved, full = (TjabemLanes(cells, z0.copy(), 3) for _ in range(2))
    rng = np.random.Generator(np.random.Philox(7))
    dt = np.full(z0.shape, stiff.T)
    set_lanes = []
    with np.errstate(all="ignore"):
        for k in range(12):
            dw = rng.normal(0.0, 0.05, z0.shape)
            if k == 4:
                dw[0, 2] = 20.0  # the stiff lane's step leaves Newton's bracket
            for lanes in (moved, full):
                lanes.step(dt, dw)
                for lane in ((1, k % 6), (2, (k + 3) % 6), (0, 5)):
                    lanes.jump(lane)
            set_lanes.append(sorted(set(moved._moved)))
            moved.refresh()
            full.f = None
            full.refresh()
            for a, b in ((moved.z, full.z), (moved.f, full.f), (moved.fp, full.fp)):
                assert a.tobytes() == b.tobytes()
    # the stiff lane's step 4 went to the bracketed solver, once per object
    assert len(fallbacks) == 2 and (0, 2) in set_lanes[4]
    assert all(len(lanes) < z0.size for lanes in set_lanes)


def test_lanes_continue_only_the_pending_lanes(set1, set2, monkeypatch):
    # after three Newton updates the lanes with large increments still miss
    # the residual contract; the updates that continue them evaluate F and
    # F' of those lanes alone, which must be the bits of an evaluation of
    # every lane. A group this narrow continues at full width, unless its
    # full-width limit is below its width, as here
    cells = [(set1, linear_jump(0.5)), (set2, make_jump("sine", 1.0))]
    z0 = np.array([[lamperti_forward(p.rho, p.x0)] * 64 for p, _ in cells])
    monkeypatch.setattr(jumpsde.solver, "_FULL_WIDTH", z0.size - 1)
    subset, full = (TjabemLanes(cells, z0.copy(), 3) for _ in range(2))
    sizes = []
    evaluate, every = subset.drift, full.drift

    def counted(z, lanes=None):
        if lanes is not None:
            sizes.append(z.size)
        return evaluate(z, lanes)

    def every_lane(z, lanes=None):
        if lanes is None:
            return every(z)
        whole = np.ones(z0.shape)
        whole[lanes] = z
        f, fp = every(whole)
        return f[lanes], fp[lanes]

    subset.drift, full.drift = counted, every_lane
    rng = np.random.Generator(np.random.Philox(11))
    dt = np.full(z0.shape, 0.05)
    with np.errstate(all="ignore"):
        for k in range(6):
            dw = rng.normal(0.0, 0.01, z0.shape)
            dw[k % 2, [3, 17, 40]] = (0.6, -0.5, 0.9)
            for lanes in (subset, full):
                lanes.step(dt, dw)
            for a, b in ((subset.z, full.z), (subset.f, full.f), (subset.fp, full.fp)):
                assert a.tobytes() == b.tobytes()
    # a few lanes continued, on their own
    assert sizes and max(sizes) < z0.size // 10
    assert np.all(subset.z > 0.0) and not subset.failures


def _width_cases(set1, set2):
    """name: (cells, lanes per cell, dt, Brownian increments per step,
    columns that jump after each listed step)"""
    stiff = replace(_stiff_params(), T=2.0**-11)
    rho3 = replace(set1, rho=3.0, gamma=6.0)
    rng = np.random.Generator(np.random.Philox(19))

    def dws(shape, steps, scale, large=()):
        dw = rng.normal(0.0, scale, (steps, *shape))
        for k, lane, value in large:
            dw[(k, *lane)] = value
        return dw

    sine = make_jump("sine", 1.0)
    return {
        "single_lane": (
            [(set1, linear_jump(0.5))], 1, 0.05,
            dws((1, 1), 8, 0.01, [(2, (0, 0), 0.9), (5, (0, 0), -0.5)]), {1: [0], 4: [0]}),
        "two_cells_pending": (
            [(set1, linear_jump(0.5)), (set2, sine)], 64, 0.05,
            dws((2, 64), 6, 0.01, [(k, (k % 2, lane), value) for k in range(6)
                                   for lane, value in ((3, 0.6), (17, -0.5), (40, 0.9))]),
            {2: [3, 40], 4: list(range(64))}),
        "forced_fallback": (
            [(stiff, zero_jump()), (set1, linear_jump(0.5))], 6, stiff.T,
            dws((2, 6), 8, 0.05, [(4, (0, 2), 20.0)]), {3: [1], 6: [0, 2, 5]}),
        "failed_lane": (
            [(set1, linear_jump(0.5)), (rho3, linear_jump(1e300))], 6, 0.05,
            dws((2, 6), 6, 0.01), {1: [2], 3: list(range(6))}),
        "jumps": (
            [(set1, linear_jump(-0.5)), (set2, sine), (set1, make_jump("rational", 0.5))],
            20, 0.05, dws((3, 20), 8, 0.05),
            {k: list(range(k, 20, 1 + 3 * k)) for k in range(8)}),
    }


@pytest.mark.parametrize("case", ["single_lane", "two_cells_pending", "forced_fallback",
                                  "failed_lane", "jumps"])
def test_the_width_rule_moves_no_bit(set1, set2, monkeypatch, case):
    # the same steps, with the group's full-width limit at its width (full-
    # width refreshes and continuations) and just below it (those of the
    # lanes concerned alone): every step's z, F and F', the failures and
    # the fallbacks must be the same
    cells, n, dt, dws, jumps = _width_cases(set1, set2)[case]
    fallbacks = _count_fallbacks(monkeypatch)
    z0 = np.array([[lamperti_forward(p.rho, p.x0)] * n for p, _ in cells])
    runs = []
    for limit in (z0.size, z0.size - 1):
        monkeypatch.setattr(jumpsde.solver, "_FULL_WIDTH", limit)
        lanes = TjabemLanes(cells, z0.copy(), 3)
        subsets = []
        evaluate = lanes.drift

        def counted(z, idx=None, evaluate=evaluate, subsets=subsets):
            if idx is not None:
                subsets.append(z.size)
            return evaluate(z, idx)

        lanes.drift = counted
        steps = []
        with np.errstate(all="ignore"):
            for k, dw in enumerate(dws):
                lanes.step(np.full(z0.shape, dt), dw)
                if k in jumps:
                    lanes.jump_columns(jumps[k])
                lanes.refresh()
                steps.append(tuple(a.tobytes() for a in (lanes.z, lanes.f, lanes.fp)))
        failures = {lane: (type(e), str(e)) for lane, e in lanes.failures.items()}
        runs.append((steps, failures, len(subsets), len(fallbacks)))
        fallbacks.clear()
    (full, full_failures, full_subsets, full_fallbacks), (flat, *rest) = runs
    assert full == flat
    assert [full_failures, full_fallbacks] == [rest[0], rest[2]]
    # the full-width group evaluated no subset, the other one did
    assert full_subsets == 0 < rest[1]
    if case == "forced_fallback":
        assert full_fallbacks > 0
    if case == "failed_lane":
        assert set(full_failures) == {(1, p) for p in range(n)}


def test_bem_lanes_hand_a_failed_newton_step_to_the_bracketed_solver(set1, monkeypatch):
    # the lanes of test_bem_hands_a_failed_newton_step_to_the_bracketed_solver
    # beside ones that Newton solves: rhs = 1 + 1*(-50) = -49 sends Newton
    # below zero, and only that lane goes to the bracketed solver
    fallbacks = _count_fallbacks(monkeypatch)
    params = replace(set1, lam=0.0, T=2.0**-10)
    fval, _ = make_drift(params)
    dws = np.array([[-50.0, 0.01, -0.02, 0.0]])
    lanes = BemLanes(params, zero_jump(), np.ones((1, 4)), 4)
    with np.errstate(all="ignore"):
        lanes.run(np.full((4, 1), params.T), dws.T, {})
    assert [call[3] for call in fallbacks] == [-49.0]
    for x_lane, dw in zip(lanes.z[0].tolist(), dws[0].tolist()):
        assert x_lane > 0.0
        x_path = oracles.bem_path(params, zero_jump(), 1, [dw], [0])
        rhs = 1.0 + dw
        tol = RESIDUAL_TOL * max(1.0, abs(rhs))
        assert abs((x_lane - rhs) - params.T * fval(x_lane)) <= tol
        assert abs(x_lane - x_path) <= 2.0 * tol / (
            1.0 - drift_one_sided_lipschitz(params) * params.T
        )



class _PerTermDrift:
    """The lanes' drift evaluated term by term, each term a new array: the
    evaluation that the compiled program must reproduce bit for bit."""

    def __init__(self, tables, shape):
        table = np.array(tables, dtype=float).reshape(len(tables), -1, 2)
        columns = []

        def spread(column):
            columns.append(column)
            return len(columns) - 1

        slots = {1: 0, -1: 1}
        self._chain = []

        def chain(n):
            if n not in slots:
                sign = 1 if n > 0 else -1
                a = max(
                    (k for k in slots if 0 < k * sign < n * sign and n - k in slots),
                    key=abs,
                    default=n // 2 if n % 2 == 0 else n - sign,
                )
                chain(a)
                chain(n - a)
                slots[n] = len(slots)
                self._chain.append((slots[a], slots[n - a]))

        uniform = [bool(np.all(e == e[0])) for e in table[:, :, 1].T]
        exponents = table[0, :, 1]
        for n in sorted({int(e) for e, same in zip(exponents, uniform)
                         if same and e == round(e) and 0 < abs(e) <= 64}, key=abs):
            chain(n)
        self._real, self._value, self._slope, self._linear = [], [], [], []
        for j, same in enumerate(uniform):
            c, e = table[:, j, 0], table[:, j, 1]
            if same and e[0] == 0.0:
                self._value.append((None, spread(c)))
                continue
            if same and e[0] in slots:
                slot = slots[e[0]]
            else:
                slot = len(slots) + len(self._real)
                self._real.append((e[0], None) if same else (None, spread(e)))
            self._value.append((slot, spread(c)))
            if same and e[0] == 1.0:
                self._linear.append(spread(c))
            else:
                self._slope.append((slot, spread(c * e)))
        self._coefs = np.ascontiguousarray(
            np.broadcast_to(np.array(columns)[:, :, None], (len(columns), *shape))
        )

    def __call__(self, z, lanes=None):
        cols = self._coefs if lanes is None else self._coefs[(slice(None), *lanes)]
        powers = [z, np.reciprocal(z)]
        for a, b in self._chain:
            powers.append(powers[a] * powers[b])
        for e, column in self._real:
            powers.append(np.power(z, e if column is None else cols[column]))
        f = None
        for slot, c in self._value:
            term = cols[c] if slot is None else cols[c] * powers[slot]
            f = term if f is None else f + term
        fp = None
        for slot, d in self._slope:
            term = cols[d] * powers[slot]
            fp = term if fp is None else fp + term
        fp = powers[1] * 0.0 if fp is None else fp * powers[1]
        for c in self._linear:
            fp = fp + cols[c]
        return f, fp


# integer exponents from -8 to 8 (0 a constant term, 1 a linear one),
# non-integer ones, and integers beyond the chained powers' 64
_EXPONENTS = st.one_of(
    st.integers(-8, 8).map(float),
    st.sampled_from([0.5, -0.5, 2.5, -3.25, 1.0 / 3.0, 64.0, -64.0, 65.0, -66.0, 80.0]),
)
_COEFS = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False, allow_subnormal=False)


@st.composite
def _drift_tables(draw):
    """(cells, lanes per cell, term tables): each term's exponent is shared by
    every cell or differs from cell to cell, and exponents may repeat."""
    cells = draw(st.integers(1, 3))
    n_terms = draw(st.integers(1, 6))
    pool = draw(st.lists(_EXPONENTS, min_size=1, max_size=n_terms))
    exponent = st.sampled_from(pool) | _EXPONENTS
    columns = []
    for _ in range(n_terms):
        if cells > 1 and draw(st.booleans()):
            columns.append(draw(st.lists(exponent, min_size=cells, max_size=cells)))
        else:
            columns.append([draw(exponent)] * cells)
    tables = [[(draw(_COEFS), columns[j][c]) for j in range(n_terms)] for c in range(cells)]
    return cells, draw(st.integers(1, 7)), tables


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_drift_tables(), st.integers(0, 2**32 - 1))
def test_compiled_drift_equals_the_per_term_evaluation(drawn, seed):
    # every lane's F and F', on all lanes and on subsets (whose lanes can
    # repeat, as a refresh's can), bit for bit as the per-term evaluation,
    # at states of every sign and size (so nan and inf too); each call's
    # results are new arrays that a later call leaves
    cells, n, tables = drawn
    rng = np.random.default_rng(seed)
    shape = (cells, n)
    compiled, oracle = _LaneDrift(tables, shape), _PerTermDrift(tables, shape)

    def states():
        z = np.exp(rng.uniform(-6.0, 6.0, shape)) * rng.choice([1.0, 1.0, 1.0, -1.0], shape)
        z[rng.random(shape) < 0.1] = 0.0
        return z

    with np.errstate(all="ignore"):
        z = states()
        f, fp = compiled(z)
        kept = f.copy(), fp.copy()
        f_ref, fp_ref = oracle(z)
        assert f.shape == fp.shape == shape
        assert f.tobytes() == f_ref.tobytes() and fp.tobytes() == fp_ref.tobytes()
        # a subset, then lanes drawn with repeats, up to twice as many as lanes
        size = rng.integers(1, 2 * z.size + 1)
        for idx in (np.nonzero(rng.random(shape) < 0.5),
                    tuple(rng.integers(0, k, size) for k in shape)):
            zs = states()[idx]
            fs, fps = compiled(zs, idx)
            fs_ref, fps_ref = oracle(zs, idx)
            assert fs.tobytes() == fs_ref.tobytes() and fps.tobytes() == fps_ref.tobytes()
        f2, fp2 = compiled(states())
        assert f.tobytes() == kept[0].tobytes() and fp.tobytes() == kept[1].tobytes()
        assert not np.shares_memory(f, f2) and not np.shares_memory(fp, fp2)
