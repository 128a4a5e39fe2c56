import itertools
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
import jumpsde.harness
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
    LaneFailure,
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
    return [(params, make_jump(*spec)) for params in param_sets for spec in jump_specs]


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
    assert all(one_sided_lipschitz(params) == 0.0 for params, _ in cells)
    bundles = [generate_bundle(sets[0], M, 83, i) for i in range(12)]
    z_lanes, n_nonpositive = _run_lanes(cells, bundles)
    assert z_lanes.shape == n_nonpositive.shape == (len(cells), len(bundles))
    assert not n_nonpositive.any()
    for c, (params, jump) in enumerate(cells):
        noise_coef = (1.0 - params.rho) * params.alpha3
        for p, bundle in enumerate(bundles):
            mesh = bundle.fine_mesh
            trajectory, _ = oracles.tjabem_path(params, jump, mesh, bundle.dw_fine)
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
        [(params, zero_jump())], whole_block([mesh] * 4, [[dw] for dw in dws])
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


def _fan_out_block(params, M, seed):
    """Paths on the M-step grid of params' horizon: one that never jumps,
    one that jumps in its first step and one in its last (at T), with
    increments of both signs, then bundles' paths at lambda 5 and 1."""
    T = params.T
    meshes = [build_mesh(M, T, []), build_mesh(M, T, [0.3 * T / M]),
              build_mesh(M, T, [T - 1e-13 * T])]
    rng = np.random.Generator(np.random.Philox(seed))
    increments = [rng.normal(0.0, np.sqrt(mesh.dt)) for mesh in meshes]
    for lam, i in itertools.product((5.0, 1.0), range(4)):
        bundle = generate_bundle(replace(params, lam=lam), M, seed, i)
        meshes.append(bundle.fine_mesh)
        increments.append(bundle.dw_fine)
    block = whole_block(meshes, increments)
    assert 1 in block.jumps[0] and 2 in block.jumps[M - 1]
    assert not any(0 in paths for paths in block.jumps.values())
    return block


def _stiff_fan_out_block(params, M):
    """The fan-out block of the stiff model, whose first path's step 2 sends
    its lane to the bracketed solver before the path's first jump (step 7)."""
    T = params.T
    mesh = build_mesh(M, T, [0.45 * T])
    dw = np.full(mesh.n_intervals, 1e-3)
    dw[2] = 20.0
    return whole_block([mesh, build_mesh(M, T, [])], [dw, np.full(M, -1e-3)])


@pytest.mark.parametrize("case", ["sets", "stiff"])
def test_a_models_cells_share_lanes_bit_for_bit(set1, set2, monkeypatch, case):
    # cells [A/h1, A/h2, A/h3, B/h1, B/h2, B/h3] step one lane per model and
    # path until the path's first jump. Every lane, count and state must
    # have the bits of the runs [A/hj, B/hj], whose cells are each the only
    # one of its model; those hold the same models, so each run's drift
    # makes the same chain and power choices
    fallbacks = _count_fallbacks(monkeypatch)
    if case == "sets":
        models, block = (set1, set2), _fan_out_block(set1, 16, 88)
    else:
        stiff = replace(_stiff_params(), T=2.0**-11)
        models = (stiff, replace(set1, T=stiff.T))
        block = _stiff_fan_out_block(stiff, 16)
    cells = _lane_cells(models, DEFAULT_JUMPS)
    z, n_nonpositive, z_pre, z_post = tjabem_lanes(cells, block, states=True)
    shared = len(fallbacks)
    for j in range(len(DEFAULT_JUMPS)):
        runs = tjabem_lanes([cells[j], cells[3 + j]], block, states=True)
        for i in range(2):
            c = 3 * i + j
            for fanned, alone in zip((z, n_nonpositive, z_pre, z_post), runs):
                assert fanned[c].tobytes() == alone[i].tobytes()
    if case == "stiff":
        # each model's fallback ran once for its three cells, and once per
        # cell in the runs of one cell each
        assert shared == 2 and len(fallbacks) == 4 * shared


def test_a_lane_that_fails_before_its_paths_first_jump_fails_its_models_cells(
        set1, monkeypatch):
    # on the stiff fan-out block, path 0's step 2 sends each model's lane to
    # the bracketed solver, which fails here, before the path's first jump
    # (step 7): the model's other cells start there as copies of the failed
    # lane, so every cell fails on path 0, each with that error, and is
    # named for its first cell, while path 1 never fails
    groups = []

    class Recorded(TjabemLanes):
        def __init__(self, *args):
            super().__init__(*args)
            groups.append(self)

    def failing_solve(*args):
        raise SolverError("forced failure")

    monkeypatch.setattr(jumpsde.solver, "TjabemLanes", Recorded)
    monkeypatch.setattr(jumpsde.solver, "_implicit_solve", failing_solve)
    stiff = replace(_stiff_params(), T=2.0**-11)
    block = _stiff_fan_out_block(stiff, 16)
    cells = _lane_cells((stiff, replace(set1, T=stiff.T)), DEFAULT_JUMPS)
    with pytest.raises(LaneFailure, match="forced failure") as excinfo:
        tjabem_lanes(cells, block)
    assert (excinfo.value.cell, excinfo.value.path) == (0, 0)
    (lanes,) = groups
    lane = jumpsde.solver._TableLayout(cells, block).lane
    assert lanes.z.size == 2 * 2 + 4
    for c in range(len(cells)):
        for p in range(2):
            failure = lanes.failures.get(int(lane[c, p]))
            assert (failure is not None) == (p == 0)
            if failure is not None:
                assert str(failure) == "forced failure"


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_a_models_cells_step_one_lane_until_the_first_jump(set1, set2, monkeypatch, lam):
    # the lanes stepped: at lambda 0 no path jumps, so each of the two
    # models steps one lane per path and step; at lambda 1 the other cells'
    # lanes step only from their paths' first jumps on
    sets = [replace(set1, lam=lam), replace(set2, lam=lam)]
    cells = _lane_cells(sets, DEFAULT_JUMPS)
    bundles = [generate_bundle(sets[0], 32, 87, i) for i in range(40)]
    block = whole_block([b.fine_mesh for b in bundles], [b.dw_fine for b in bundles])
    stepped = []
    solve = TjabemLanes.solve

    def counted(self, rhs, dt):
        stepped.append(rhs.size)
        solve(self, rhs, dt)

    monkeypatch.setattr(TjabemLanes, "solve", counted)
    tjabem_lanes(cells, block)
    n_paths, n_steps = block.dt.shape
    if lam == 0.0:
        assert sum(stepped) == 2 * n_paths * n_steps
    else:
        assert 2 * n_paths * n_steps < sum(stepped) < len(cells) * n_paths * n_steps


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
    for c, (params, jump) in enumerate(cells):
        for p, (mesh, dw) in enumerate(zip(meshes, increments)):
            trajectory, _ = oracles.tjabem_path(params, jump, mesh, dw)
            assert n_nonpositive[c, p] == np.count_nonzero(trajectory.z_post <= 0.0)
    assert n_nonpositive.min() > 0


def _grid_lanes(cells, z0):
    """TjabemLanes of cells on the rows of z0, row c's lane p being lane
    c * n + p of the group, n lanes per row."""
    n = z0.shape[1]
    return TjabemLanes(cells, z0.ravel().copy(), 3, np.repeat(np.arange(len(cells)), n))


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
        together = _grid_lanes(cells, z0)
        together.jump_lanes(np.arange(z0.size))
        # the custom cell's lanes, the cell whose jump underflows and the
        # lanes of column 5 whose x overflows (all but rho = 2's x = 1/z and
        # rho = 3's x = z^-0.5) are mapped one at a time
        overflowing = {0, 2, 3, 5, 6, 7}
        assert len(scalar_calls) == 2 * n + len(overflowing) - 2
        subset = _grid_lanes(cells[::-1], z0[::-1])
        columns = [40, 3, 5, 66, 0]
        subset.jump_lanes([c * n + p for c in range(len(cells)) for p in columns])
        for c, (params, jump) in enumerate(cells):
            for p in range(n):
                lane = c * n + p
                alone = TjabemLanes([(params, jump)], z0[c, p : p + 1].copy(), 3)
                alone.jump_lanes([0])
                assert alone.z.tobytes() == together.z[lane : lane + 1].tobytes()
                assert (0 in alone.failures) == (lane in together.failures)
                if p in columns:
                    assert subset.z[(len(cells) - 1 - c) * n + p] == alone.z[0]
                try:
                    mapped = real_map(params, jump, z0[c, p])
                except (ValueError, OverflowError):
                    assert lane in together.failures
                else:
                    assert together.z[lane] == mapped
    assert set(together.failures) == {c * n + 5 for c in overflowing} | {6 * n + p for p in range(n)}


def test_bem_lanes_hand_a_failed_newton_step_to_the_bracketed_solver(set1, monkeypatch):
    # the lanes of test_bem_hands_a_failed_newton_step_to_the_bracketed_solver
    # beside ones that Newton solves: rhs = 1 + 1*(-50) = -49 sends Newton
    # below zero, and only that lane goes to the bracketed solver
    fallbacks = _count_fallbacks(monkeypatch)
    params = replace(set1, lam=0.0, T=2.0**-10)
    fval, _ = make_drift(params)
    dws = np.array([[-50.0, 0.01, -0.02, 0.0]])
    lanes = BemLanes(params, zero_jump(), np.ones(4), 4)
    with np.errstate(all="ignore"):
        lanes.run(np.full((4, 1), params.T), dws.T, {})
    assert [call[3] for call in fallbacks] == [-49.0]
    for x_lane, dw in zip(lanes.z.tolist(), dws[0].tolist()):
        assert x_lane > 0.0
        x_path = oracles.bem_path(params, zero_jump(), 1, [dw], [0])
        rhs = 1.0 + dw
        tol = RESIDUAL_TOL * max(1.0, abs(rhs))
        assert abs((x_lane - rhs) - params.T * fval(x_lane)) <= tol
        assert abs(x_lane - x_path) <= 2.0 * tol / (
            1.0 - drift_one_sided_lipschitz(params) * params.T
        )


def _kernel_cells(set1, set2, n):
    """The cells of a differential kernel run of n lanes: the stiff model
    alone for one lane, else set1, set2, the stiff model, a rho = 3 cell
    whose jump fails its lanes, and set1 with another jump (one model with
    cell 0, so widened lanes of cell 4 start as copies of cell 0's)."""
    stiff = replace(_stiff_params(), T=2.0**-11)
    if n == 1:
        return [(stiff, zero_jump())]
    rho3 = replace(set1, rho=3.0, gamma=6.0)
    return [(set1, linear_jump(0.5)), (set2, make_jump("sine", 1.0)), (stiff, zero_jump()),
            (rho3, linear_jump(1e300)), (set1, make_jump("sine", 1.0))]


def _kernel_steps(cells, n, steps, seed):
    """(dt, dw) per lane and step, and the lanes that jump after each step.
    The stiff lanes step by its T and the others by 0.05, so large
    increments leave the others' lanes pending after three updates, and a
    stiff lane's increment of 20 sends it to the bracketed solver; every
    seventh lane is padding from step 4 on (dt = dw = 0), and every
    eleventh takes steps of 1e-14 without noise at steps 2 and 5, which its
    previous state meets within RESIDUAL_TOL, so the kept rule keeps it."""
    cell = np.arange(n) % len(cells)
    stiff = np.array([params.alpha0 == 50.0 for params, _ in cells])[cell]
    rng = np.random.Generator(np.random.Philox(seed))
    dt = np.where(stiff, 2.0**-11, 0.05)[:, None].repeat(steps, 1)
    dw = rng.normal(0.0, 1.0, (n, steps)) * np.where(stiff, 0.05, 0.01)[:, None]
    for k in range(steps):
        dw[(3 * k + np.arange(0, n, 97)) % n, k] = (0.6, -0.5, 0.9, 0.7)[k % 4]
    dw[np.flatnonzero(stiff)[::5], 3] = 20.0
    dt[::7, 4:] = dw[::7, 4:] = 0.0
    dt[::11, [2, 5]], dw[::11, [2, 5]] = 1e-14, 0.0
    jumps = {1: [0, 1, 2][:n], 2: np.flatnonzero(cell == 3).tolist(),
             4: list(range(0, n, 3)), 6: [n - 1]}
    return dt, dw, jumps


def _step_side_by_side(kernel, oracle, actions, monkeypatch):
    """Run each action on the kernel's lane group and then on the oracle's,
    and compare after every one: z, F and F' bit for bit, the failures'
    types and messages, and the bracketed solver's calls (dt, rhs, start).
    Returns the kernel group, its fallback calls and the continuations of
    pending lanes run on each route: the kernel's one and the oracle's
    full-width and gather routes."""
    calls, stepping = ([], []), []
    routes = {(jumpsde.solver._Lanes, "_continue"): 0,
              (oracles._Lanes, "_continue_full"): 0, (oracles._Lanes, "_continue_flat"): 0}

    def recorded(*args):
        stepping[-1].append(args[2:])
        return _implicit_solve(*args)

    def counted(owner, name):
        route = getattr(owner, name)

        def count(self, *args):
            routes[owner, name] += 1
            return route(self, *args)
        return count

    monkeypatch.setattr(jumpsde.solver, "_implicit_solve", recorded)
    for owner, name in routes:
        monkeypatch.setattr(owner, name, counted(owner, name))
    for k, action in enumerate(actions):
        seen = []
        for lanes, made in zip((kernel, oracle), calls):
            stepping.append([])
            with np.errstate(all="ignore"):
                action(lanes)
            made += stepping[-1]
            seen.append((lanes.z.tobytes(), lanes.f.tobytes(), lanes.fp.tobytes(),
                         {lane: (type(e), str(e)) for lane, e in lanes.failures.items()},
                         stepping[-1]))
        assert seen[0] == seen[1], f"action {k}"
    return kernel, calls[0], {name: count for (_, name), count in routes.items()}


@pytest.mark.parametrize("n", [1, 128, 640, 1024, 1025, 3000])
def test_tjabem_lane_steps_have_the_oracles_bits(set1, set2, monkeypatch, n):
    # the workspace kernel beside the kernel of new arrays (oracles), whose
    # groups of more than 1,024 lanes refresh and continue only the lanes
    # concerned, through step and run, with jumps of few and many lanes, a
    # failing jump, the kept rule, padding, pending lanes, fallbacks and a
    # widening
    cells = _kernel_cells(set1, set2, n)
    steps = 8
    dt, dw, jumps = _kernel_steps(cells, n, steps, seed=n)
    start = n - n // 4  # lanes from the start; the others are added after step 3
    lane_cells = np.arange(n) % len(cells)
    lane_cells[start:] = np.where(lane_cells[start:] == 4, 4, 0)
    source = np.resize(np.flatnonzero(lane_cells[:start] == 0), n - start)
    z0 = np.array([lamperti_forward(params.rho, params.x0) for params, _ in cells])

    def make(module):
        return module.TjabemLanes(cells, z0[lane_cells[:start]], 3, lane_cells)

    def action(k):
        # even steps through run, which jumps too, odd ones through step,
        # then the widening after step 3 and the step's jumps
        def act(lanes):
            w = lanes.z.size
            jumped = [lane for lane in jumps.get(k, ()) if lane < w]
            if k % 2 == 0:
                lanes.run(dt[:w, k : k + 1], dw[:w, k : k + 1], {0: jumped} if jumped else {})
                return
            lanes.step(dt[:w, k], dw[:w, k])
            if k == 3 and n > 1:
                lanes.widen(source)
            lanes.jump_lanes(jumped)
        return act

    lanes, fallbacks, routes = _step_side_by_side(
        make(jumpsde.solver), make(oracles), [action(k) for k in range(steps)], monkeypatch)
    assert lanes.z.size == n and fallbacks
    # the kernel continued pending lanes on its one route as often as the
    # oracle on its two, which gathered them once its group was widened
    # past 1,024 lanes
    full, flat = routes["_continue_full"], routes["_continue_flat"]
    assert routes["_continue"] == full + flat > 0
    assert (flat > 0) == (n > oracles._FULL_WIDTH)
    if n > 1:
        # the rho = 3 cell's lanes failed; every other lane is live
        assert set(lanes.failures) == set(np.flatnonzero(lane_cells == 3).tolist())


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
    # the kernel's one route beside the oracle kernel with its full-width
    # limit at the group's width (full-width refreshes and continuations)
    # and just below it (refreshes and continuations of the lanes concerned
    # alone, gathered by index): after every step, jump and refresh, z, F
    # and F', the failures and the fallbacks must be the kernel's
    cells, n, dt, dws, jumps = _width_cases(set1, set2)[case]
    z0 = np.array([[lamperti_forward(p.rho, p.x0)] * n for p, _ in cells])
    gathered = []
    evaluate = oracles._Lanes.gathered

    def counted(self, z, lanes):
        gathered.append(z.size)
        return evaluate(self, z, lanes)

    def action(k, dw):
        def act(lanes):
            lanes.step(np.full(z0.size, dt), dw.ravel())
            if k in jumps:
                lanes.jump_lanes([c * n + p for c in range(len(cells)) for p in jumps[k]])
            lanes.refresh()
        return act

    monkeypatch.setattr(oracles._Lanes, "gathered", counted)
    for limit in (z0.size, z0.size - 1):
        monkeypatch.setattr(oracles, "_FULL_WIDTH", limit)
        gathered.clear()
        oracle = oracles.TjabemLanes(cells, z0.ravel().copy(), 3,
                                     np.repeat(np.arange(len(cells)), n))
        lanes, fallbacks, _ = _step_side_by_side(
            _grid_lanes(cells, z0), oracle, [action(k, dw) for k, dw in enumerate(dws)],
            monkeypatch)
        # the oracle gathered lanes below its limit only
        assert bool(gathered) == (limit < z0.size)
        if case == "forced_fallback":
            assert fallbacks
        if case == "failed_lane":
            assert set(lanes.failures) == {n + p for p in range(n)}


def test_bem_lane_steps_have_the_oracles_bits(set1, monkeypatch):
    # 640 bem lanes, five levels of 128 as in the ladder: the coarser levels'
    # lanes are padded with zero steps, jump counts of one to three enter the
    # right-hand side, and an increment of -50 sends a lane to the bracketed
    # solver
    params = replace(set1, lam=5.0)
    n, steps = 640, 8
    rng = np.random.Generator(np.random.Philox(23))
    span = np.repeat([1, 2, 4, 8, 8], 128)
    dt = np.where(np.arange(steps) < span[:, None], params.T / (8 * span[:, None]), 0.0)
    dw = rng.normal(0.0, 1.0, (n, steps)) * np.sqrt(dt)
    dw[600, 2] = -50.0
    counts = {}
    for k in range(steps):
        lanes = np.flatnonzero((rng.random(n) < 0.05) & (dt[:, k] > 0.0))
        counts[k] = (lanes, rng.integers(1, 4, lanes.size))

    def make(module):
        return module.BemLanes(params, linear_jump(0.5), np.full(n, params.x0), 4)

    def action(k):
        return lambda lanes: lanes.run(dt[:, k : k + 1], dw[:, k : k + 1], {0: counts[k]})

    lanes, fallbacks, _ = _step_side_by_side(
        make(jumpsde.solver), make(oracles), [action(k) for k in range(steps)], monkeypatch)
    # lane 600's step 2 went to the bracketed solver, once
    assert len(fallbacks) == 1 and fallbacks[0][1] < -49.0
    assert all(counts[k][0].size for k in range(steps)) and not lanes.failures


@pytest.mark.parametrize("case", ["sets", "stiff"])
def test_a_widened_table_has_the_oracles_bits(set1, set2, monkeypatch, case):
    # tjabem_lanes on the oracle's kernel and on the workspace kernel: the
    # table widens its group as paths first jump, and every output, every
    # node's state and every fallback must be the same
    fallbacks = _count_fallbacks(monkeypatch)
    if case == "sets":
        models, block = (set1, set2), _fan_out_block(set1, 16, 90)
    else:
        stiff = replace(_stiff_params(), T=2.0**-11)
        models = (stiff, replace(set1, T=stiff.T))
        block = _stiff_fan_out_block(stiff, 16)
    cells = _lane_cells(models, DEFAULT_JUMPS)
    # at the default Newton count and at the positivity table's
    for updates in (jumpsde.solver._TABLE_UPDATES, jumpsde.harness._POSITIVITY_UPDATES):
        runs = []
        for kernel in (jumpsde.solver.TjabemLanes, oracles.TjabemLanes):
            monkeypatch.setattr(jumpsde.solver, "TjabemLanes", kernel)
            runs.append(([a.tobytes() for a in
                          tjabem_lanes(cells, block, states=True, updates=updates)],
                         [call[2:] for call in fallbacks]))
            fallbacks.clear()
        assert runs[0] == runs[1]
        if case == "stiff":
            assert runs[0][1]
    assert len(jumpsde.solver._TableLayout(cells, block).widths) > 0


def _recorded_groups(monkeypatch, module):
    """The lane groups that module makes from now on."""
    groups = []
    for name in ("TjabemLanes", "BemLanes"):
        kernel = getattr(module, name)

        class Recorded(kernel):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                groups.append(self)

        monkeypatch.setattr(module, name, Recorded)
    return groups


def _workspace(lanes):
    """Every array a lane group steps in."""
    return [lanes._work, lanes._kept, lanes._one, lanes.drift._buffer]


def test_no_result_shares_memory_with_a_workspace(set1, set2, monkeypatch):
    # what tjabem_lanes returns or records and the columns _ladder_batch
    # stacks are arrays of their own, so later steps, runs and groups leave
    # them as they were read
    harness = jumpsde.harness
    groups = _recorded_groups(monkeypatch, jumpsde.solver)
    cells = _lane_cells((set1, set2), DEFAULT_JUMPS)
    block = _fan_out_block(set1, 16, 91)
    results = [tjabem_lanes(cells, block, states=True), tjabem_lanes(cells, block)]
    stacked = []
    column_stack = np.column_stack

    def recorded(columns):
        stacked.append([(column, np.array(column).tobytes()) for column in columns])
        return column_stack(columns)

    monkeypatch.setattr(harness, "TjabemLanes", jumpsde.solver.TjabemLanes)
    monkeypatch.setattr(harness, "BemLanes", jumpsde.solver.BemLanes)
    monkeypatch.setattr(harness.np, "column_stack", recorded)
    monkeypatch.setattr(harness, "_LADDER_CELLS", 64)
    params = replace(set1, lam=5.0)
    rows = harness._ladder_rows(0, 8, ("reference", "levels"), params, linear_jump(1.0),
                                ("tjabem", "bem"), (4, 8), 64, 92)
    monkeypatch.undo()
    assert rows.shape == (8, 5) and len(stacked) == 2
    kept = [(a, a.tobytes()) for result in results for a in result]
    assert len(groups) == 2 + 3 * len(stacked)
    for lanes in groups:
        for work in _workspace(lanes):
            for a, _ in kept:
                assert not np.shares_memory(a, work)
            for column, _ in itertools.chain(*stacked):
                assert not isinstance(column, np.ndarray) or not np.shares_memory(column, work)
    # what the first batch's groups gave is unchanged after the second's run
    for a, data in kept:
        assert a.tobytes() == data
    for column, data in itertools.chain(*stacked):
        assert np.array(column).tobytes() == data


def test_a_step_without_pending_lanes_allocates_no_lane_array(set1):
    # a step of 4,096 lanes writes every array it makes to its workspace: the
    # traced peak rises by less than one lane array (32,768 bytes), where
    # the kernel of new arrays raises it by about six
    import tracemalloc

    n = 4096
    z0 = lamperti_forward(set1.rho, set1.x0)
    lanes = TjabemLanes([(set1, linear_jump(0.5))], np.full(n, z0), 2)
    rng = np.random.Generator(np.random.Philox(29))
    dt = np.full(n, 2.0**-13)
    dt[::3] = 0.0  # padding, which the kept rule's test sees
    dws = rng.normal(0.0, 2.0**-6.5, (3, n)) * (dt > 0.0)
    lanes.step(dt, dws[0])
    tracemalloc.start()
    try:
        for dw in dws[1:]:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            lanes.step(dt, dw)
            assert tracemalloc.get_traced_memory()[1] - before < 8 * n
    finally:
        tracemalloc.stop()
    assert not lanes.failures and np.all(lanes.z > 0.0)


def test_a_nan_start_residual_keeps_no_other_lane_from_its_state(set1):
    # a lane at z = 1 whose step of 1e-14 without noise starts within the
    # residual tolerance keeps z = 1 exactly. Beside it, a zero-step lane at
    # z = 1e-300, whose F is inf, starts with the residual 0 * inf = nan; it
    # must not stop the first lane from keeping its state
    cells = [(set1, linear_jump(-0.5))]
    with np.errstate(all="ignore"):
        alone = TjabemLanes(cells, np.array([1.0]), 3)
        alone.step(np.array([1e-14]), np.array([0.0]))
        beside = TjabemLanes(cells, np.array([1.0, 1e-300]), 3)
        assert np.isinf(beside.drift(beside.z)[0][1])
        beside.step(np.array([1e-14, 0.0]), np.zeros(2))
    assert alone.z[0] == beside.z[0] == 1.0 and beside.z[1] == 1e-300


def test_each_experiment_steps_at_its_own_newton_count(set1):
    # the positivity table's lanes take _POSITIVITY_UPDATES updates a step,
    # the moment probe's and the one-path view's the default _TABLE_UPDATES
    counts = []

    class Counted(jumpsde.solver.TjabemLanes):
        def __init__(self, cells, z, updates, lane_cells=None):
            counts[-1].add(updates)
            super().__init__(cells, z, updates, lane_cells)

    def run(experiment):
        counts.append(set())
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(jumpsde.solver, "TjabemLanes", Counted)
            experiment()
        return counts[-1]

    jump = linear_jump(-0.5)
    table = jumpsde.harness.positivity_table
    assert jumpsde.harness._POSITIVITY_UPDATES != jumpsde.solver._TABLE_UPDATES
    assert run(lambda: table([("set1", set1)], [jump], [0.125], 1.0, 4, 7)) == {
        jumpsde.harness._POSITIVITY_UPDATES}
    assert run(lambda: jumpsde.harness.moment_probe(set1, jump, 8, 4, [1.0], 7)) == {
        jumpsde.solver._TABLE_UPDATES}
    bundle = generate_bundle(set1, 8, 7, 0)
    assert run(lambda: tjabem_path(set1, jump, bundle.fine_mesh, bundle.dw_fine)) == {
        jumpsde.solver._TABLE_UPDATES}


class _PerTermDrift:
    """The lanes' drift evaluated term by term, each term a new array: the
    evaluation that the compiled program must reproduce bit for bit."""

    def __init__(self, tables, cells):
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
        self._coefs = np.array(columns)[:, cells]

    def __call__(self, z, lanes=None):
        cols = self._coefs[:, : z.size] if lanes is None else self._coefs[:, lanes]
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
    # every lane's F and F', on all lanes and on subsets by a drift over
    # their cells (whose lanes can repeat, as the oracle kernel's gathered
    # refresh's can), bit for bit as the per-term evaluation,
    # at states of every sign and size (so nan and inf too); each call's
    # results are new arrays that a later call leaves
    cells, n, tables = drawn
    rng = np.random.default_rng(seed)
    shape = (cells * n,)
    lane_cells = np.repeat(np.arange(cells), n)
    compiled, oracle = _LaneDrift(tables, lane_cells), _PerTermDrift(tables, lane_cells)
    compiled.bind(lane_cells.size)

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
        # the first lanes, as many as step, on views bound for that width
        for width in (rng.integers(1, z.size + 1), z.size):
            zw = states()[:width]
            compiled.bind(width)
            fw, fpw = compiled(zw)
            fw_ref, fpw_ref = oracle(zw)
            assert fw.tobytes() == fw_ref.tobytes() and fpw.tobytes() == fpw_ref.tobytes()
        # a subset, then lanes drawn with repeats, up to twice as many as lanes
        size = rng.integers(1, 2 * z.size + 1)
        for idx in (np.flatnonzero(rng.random(shape) < 0.5), rng.integers(0, z.size, size)):
            zs = states()[idx]
            subset = _LaneDrift(tables, lane_cells[idx])
            subset.bind(idx.size)
            fs, fps = subset(zs)
            fs_ref, fps_ref = oracle(zs, idx)
            assert fs.tobytes() == fs_ref.tobytes() and fps.tobytes() == fps_ref.tobytes()
        f2, fp2 = compiled(states())
        assert f.tobytes() == kept[0].tobytes() and fp.tobytes() == kept[1].tobytes()
        assert not np.shares_memory(f, f2) and not np.shares_memory(fp, fp2)
