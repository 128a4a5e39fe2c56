"""The one-path API and the lane table against the scalar loops of
tests/oracles.py.

tjabem_path and bem_path are one lane of the lane kernels,
coarsen_increments and regular_increments are coarse_block on a one-path
batch, and every lane of a tjabem_lanes run on a mesh_block is one path. Configs are drawn as the CLI's property tests draw them and kept if
`validate` passes them; each one's bounds are fixed from the oracle's run
before the view runs.
"""

import contextlib
import io
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jumpsde.harness as harness
import oracles
from jumpsde import (
    PathFailure,
    SolverError,
    bem_path,
    coarsen_increments,
    generate_bundle,
    positivity_table,
    regular_increments,
    tjabem_path,
)
from jumpsde.cli import load_config, main
from jumpsde.model import (
    InvalidModelError,
    custom_jump,
    drift_one_sided_lipschitz,
    make_jump,
    one_sided_lipschitz,
    validate_jump,
)
from jumpsde.paths import mesh_block, open_shared_path
from jumpsde.solver import RESIDUAL_TOL, tjabem_lanes
from test_cli import JUMP_COEFFICIENTS, _config_text, finite_configs

# a path's runtime errors; anything else is a bug
_ERRORS = (SolverError, ValueError, OverflowError)
# room for the distance of the view's states from the oracle's, at which
# the bounds' factors are taken
_ROOM = 1.01


def _validated(values):
    """The drawn config, with bem's step-size gate, once validate passes it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.cfg"
        path.write_text(_config_text({**values, "scheme": "both"}))
        with contextlib.redirect_stdout(io.StringIO()):
            if main(["validate", "--config", str(path)]) != 0:
                return None
        return load_config(path)


def _outcome(run, *args):
    """run(*args), or the type of the path error it raised."""
    try:
        return run(*args)
    except _ERRORS as exc:
        return type(exc)


def _step_bound(e, rhs, dt, q):
    """How far two solutions of a step can be apart, their right-hand sides
    e apart: each meets |residual| <= RESIDUAL_TOL*max(1, |rhs|), and
    G' >= 1 - q*dt."""
    return (e + 2.0 * _ROOM * RESIDUAL_TOL * max(1.0, abs(rhs))) / (1.0 - q * dt)


def _tjabem_bounds(params, jump, mesh, dw, trajectory, q):
    """Per node, the bounds on the pre- and post-jump z of another run of the
    same steps, from the oracle's trajectory: a jump scales a z-difference
    by |dz'/dz| = |1 + h'(x)| (x / (x + h(x)))^rho."""
    rho, noise = params.rho, (1.0 - params.rho) * params.alpha3
    pre, post = np.zeros(mesh.n_intervals + 1), np.zeros(mesh.n_intervals + 1)
    e = 0.0
    for k in range(mesh.n_intervals):
        e = pre[k + 1] = _step_bound(e, trajectory.z_post[k] + noise * dw[k], mesh.dt[k], q)
        if mesh.is_jump[k + 1]:
            x = trajectory.z_pre[k + 1] ** (1.0 / (1.0 - rho))
            e *= _ROOM * abs(1.0 + jump.dh(x)) * (x / (x + jump.h(x))) ** rho
        post[k + 1] = e
    return pre, post


def _check_tjabem(params, jump, mesh, dw):
    q = one_sided_lipschitz(params)
    expected = _outcome(oracles.tjabem_path, params, jump, mesh, dw, q)
    if isinstance(expected, type):
        # the view may fail too, or meet the contract where the loop did not
        assert isinstance(_outcome(tjabem_path, params, jump, mesh, dw, q), (tuple, type))
        return
    trajectory, x = expected
    pre, post = _tjabem_bounds(params, jump, mesh, dw, trajectory, q)
    z_end = trajectory.z_post[-1]
    x_bound = _ROOM * abs(x / ((1.0 - params.rho) * z_end)) * post[-1]
    view, x_view = tjabem_path(params, jump, mesh, dw, q)
    assert view.mesh is mesh
    assert np.all(np.abs(view.z_pre - trajectory.z_pre) <= pre)
    assert np.all(np.abs(view.z_post - trajectory.z_post) <= post)
    assert abs(x_view - x) <= x_bound


def _check_bem(params, jump, M, dw, dn):
    q, dt = drift_one_sided_lipschitz(params), params.T / M
    a3, rho = params.alpha3, params.rho
    # the oracle one step at a time (T = dt keeps its step), with the bound:
    # an earlier difference e enters rhs as e*|d(rhs)/dx|
    x, e = params.x0, 0.0
    try:
        for k in range(M):
            with np.errstate(all="ignore"):
                power = np.float64(x) ** (rho - 1.0)
                noise, jumped = a3 * rho * power * dw[k], jump.dh(x) * dn[k]
                grow = abs(1.0 + noise + jumped) + (_ROOM - 1.0) * (
                    1.0 + abs(noise) + abs(jumped))
                e = _step_bound(e * grow, x + a3 * power * x * dw[k] + jump.h(x) * dn[k],
                                dt, q)
            x = oracles.bem_path(replace(params, x0=x, T=dt), jump, 1, dw[k : k + 1],
                                 dn[k : k + 1], q)
    except _ERRORS:
        assert isinstance(_outcome(bem_path, params, jump, M, dw, dn, q), (float, type))
        return
    assert oracles.bem_path(params, jump, M, dw, dn, q) == x
    assert abs(bem_path(params, jump, M, dw, dn, q) - x) <= e


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.filterwarnings("ignore:Q\\*dt = .* above 0.25")
@settings(max_examples=100, deadline=None, derandomize=True)
@given(values=finite_configs(), refine=st.sampled_from([1, 2, 4]),
       path_index=st.integers(0, 1000))
def test_views_equal_the_oracles(values, refine, path_index):
    # a validated config's first grid, and a bundle on a grid refine times
    # finer; the increments bit for bit, the states within the contract
    config = _validated(values)
    if config is None:
        return
    params, jump, M = config.params, config.jump, config.m_list[0]
    bundle = generate_bundle(params, M * refine, config.global_seed, path_index)
    mesh, dw = coarsen_increments(bundle, M)
    mesh_o, dw_o = oracles.coarsen_increments(bundle, M)
    assert _same(mesh.nodes, mesh_o.nodes) and _same(mesh.is_jump, mesh_o.is_jump)
    assert _same(dw, dw_o) and not dw.flags.writeable
    grid_dw, dn = regular_increments(bundle, M)
    grid_dw_o, dn_o = oracles.regular_increments(bundle, M)
    assert _same(grid_dw, grid_dw_o) and _same(dn, dn_o)
    _check_tjabem(params, jump, bundle.fine_mesh, bundle.dw_fine)
    _check_tjabem(params, jump, mesh, dw)
    _check_bem(params, jump, M, grid_dw, dn)


def _check_lane_table(first, candidates, first_path):
    """Every (cell, path) lane of one tjabem_lanes run is the oracle's path
    within its bounds: the cells are the candidate (params, jump) pairs on
    the first config's horizon and grid, and the first config's intensity
    and seed open four paths. Cells where the oracle fails on some path are
    left out, so that the run's lanes all step to the end."""
    T, M, lam, seed = first.params.T, first.m_list[0], first.params.lam, first.global_seed
    indices = range(first_path, first_path + 4)
    bundles = [oracles.generate_bundle(first.params, M, seed, i) for i in indices]
    cells, expected = [], []
    for params, jump in candidates:
        q = one_sided_lipschitz(params)
        runs = [_outcome(oracles.tjabem_path, params, jump, bundle.fine_mesh, bundle.dw_fine, q)
                for bundle in bundles]
        if not any(isinstance(run, type) for run in runs):
            cells.append((params, jump))
            expected.append(runs)
    if not cells:
        return
    block = mesh_block([open_shared_path(lam, [(T, M)], seed, i) for i in indices], T, M)
    z, _, z_pre, z_post = tjabem_lanes(cells, block, states=True)
    for c, ((params, jump), runs) in enumerate(zip(cells, expected)):
        for p, (bundle, (trajectory, _)) in enumerate(zip(bundles, runs)):
            mesh, n = bundle.fine_mesh, block.n[p]
            assert n == mesh.n_intervals
            pre, post = _tjabem_bounds(params, jump, mesh, bundle.dw_fine, trajectory,
                                       one_sided_lipschitz(params))
            assert np.all(np.abs(z_pre[c, p, : n + 1] - trajectory.z_pre) <= pre)
            assert np.all(np.abs(z_post[c, p, : n + 1] - trajectory.z_post) <= post)
            # the padding repeats the terminal state
            assert np.all(z_post[c, p, n:] == z[c, p])


def _validated_on(drawn):
    """The drawn configs that validate on the first one's horizon and grid."""
    shared = {key: drawn[0][key] for key in ("T", "m_list")}
    return [config for config in (_validated({**values, **shared}) for values in drawn)
            if config is not None]


@pytest.mark.filterwarnings("ignore:Q\\*dt = .* above 0.25")
@settings(max_examples=100, deadline=None, derandomize=True)
@given(drawn=st.lists(finite_configs(), min_size=2, max_size=3),
       first_path=st.integers(0, 1000))
def test_lane_table_equals_the_oracle_lane_by_lane(drawn, first_path):
    # validated configs on the first one's horizon and grid are the cells
    configs = _validated_on(drawn)
    if configs:
        _check_lane_table(configs[0], [(c.params, c.jump) for c in configs], first_path)


def _halving_h(x):
    return -0.5 * x


def _halving_dh(x):
    return -0.5


# the jump families a drawn model repeats with: the built-in ones at drawn
# coefficients, and a custom h, which the lanes map one lane at a time
_FAMILIES = st.one_of(
    st.tuples(st.sampled_from(["linear", "sine", "rational", "zero"]), JUMP_COEFFICIENTS),
    st.just(("custom", None)),
)


def _jump_or_none(family, param, params):
    """The family's jump at param, if validate_jump passes it for params."""
    if family == "custom":
        return custom_jump(_halving_h, _halving_dh)
    try:
        jump = make_jump(family) if family == "zero" else make_jump(family, param)
        validate_jump(jump, params)
    except InvalidModelError:
        return None
    return jump


@pytest.mark.filterwarnings("ignore:Q\\*dt = .* above 0.25")
@settings(max_examples=100, deadline=None, derandomize=True)
@given(drawn=st.lists(finite_configs(), min_size=1, max_size=2),
       families=st.lists(_FAMILIES, min_size=1, max_size=2),
       first_path=st.integers(0, 1000))
def test_shared_model_table_equals_the_oracle_lane_by_lane(drawn, families, first_path):
    # the first validated config's model repeats with 2-3 jump families, its
    # own first, beside the other configs' cells: its cells step one lane
    # per path until the path's first jump, and every lane is still the
    # oracle's path
    configs = _validated_on(drawn)
    if not configs:
        return
    params = configs[0].params
    repeated = [jump for jump in (_jump_or_none(*family, params) for family in families)
                if jump is not None]
    _check_lane_table(configs[0], [(params, configs[0].jump)]
                      + [(params, jump) for jump in repeated]
                      + [(c.params, c.jump) for c in configs[1:]], first_path)


@pytest.mark.filterwarnings("ignore:Q\\*dt = .* above 0.25")
@settings(max_examples=150, deadline=None, derandomize=True)
@given(values=finite_configs())
def test_drawn_tables_do_not_depend_on_the_newton_count(values):
    # a validated config's table over its step sizes, on 12 paths (about a
    # quarter of the drawn configs pass validate): the same
    # counts at three Newton updates a step as at the table's count, or a
    # failure of the same path at both
    config = _validated(values)
    if config is None:
        return
    params = config.params
    args = ([("drawn", params)], [config.jump], [params.T / m for m in config.m_list],
            params.lam, 12, config.global_seed)
    outcomes = []
    for updates in (3, harness._POSITIVITY_UPDATES):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "_POSITIVITY_UPDATES", updates)
            try:
                outcomes.append(positivity_table(*args))
            except PathFailure as failure:
                outcomes.append(failure.path_index)
    assert outcomes[0] == outcomes[1]
