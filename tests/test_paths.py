import bisect
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jumpsde
import jumpsde.harness
import jumpsde.paths
import oracles
from jumpsde import (
    MeshError,
    ModelParams,
    build_mesh,
    linear_jump,
    moment_probe,
    positivity_table,
)
from jumpsde.harness import _jump_counts, check_ladder
from jumpsde.mesh import DEDUP_RTOL, place_batch, sample_jump_times
from jumpsde.paths import (
    PathBundle,
    PathNoise,
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


def _left_to_right(values):
    total = 0.0
    for v in values:
        total += v
    return total


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5]
# a model whose paths jump about five times each, so that the draws of a
# jump stream show
_JUMPING = ModelParams(alpha_m1=2.0, alpha0=1.0, alpha1=1.5, alpha2=5.0, alpha3=1.0,
                       gamma=3.0, rho=1.5, lam=5.0, x0=1.0, T=1.0)
INDICES = [0, 2**32 - 1, 5_000_000_000]


def _assert_streams_are_numpys(global_seed, indices):
    """stream_keys of a batch, open_path's two generators and a stream_pair
    that open_shared_path re-keys are those of numpy's SeedSequence for each
    path: the keys, the jump times and the normals after them."""
    keys = stream_keys(global_seed, indices)
    assert keys.shape == (len(indices), 2, 2) and keys.dtype == np.uint64
    lam, T = _JUMPING.lam, _JUMPING.T
    streams = stream_pair()
    for i, row in zip(indices, keys):
        jumps, brownian = oracles.path_streams(global_seed, i)
        for k, theirs in enumerate((jumps, brownian)):
            assert row[k].tobytes() == theirs.bit_generator.state["state"]["key"].tobytes()
        times = sample_jump_times(lam, T, jumps).tobytes()
        normals = brownian.standard_normal(3).tobytes()
        # derived on its own, a path's keys are the batch's
        for path in (open_path(_JUMPING, global_seed, i, row),
                     open_path(_JUMPING, global_seed, i)):
            assert path.jump_times.tobytes() == times
            assert path.brownian.standard_normal(3).tobytes() == normals
        shared = open_shared_path(lam, [(T, 1)], global_seed, i, row, streams)
        jumps, brownian = oracles.path_streams(global_seed, i)
        assert shared.jump_times.tobytes() == sample_jump_times(lam, T, jumps).tobytes()
        assert shared.normals.tobytes() == brownian.standard_normal(shared.normals.size).tobytes()
        # the re-keyed pair goes on drawing numpy's streams
        for mine, theirs in zip(streams, (jumps, brownian)):
            assert mine.standard_normal(3).tobytes() == theirs.standard_normal(3).tobytes()


@pytest.mark.parametrize("global_seed", SEEDS)
def test_stream_keys_are_numpys_at_word_boundaries(global_seed):
    _assert_streams_are_numpys(global_seed, INDICES + [1, 7, 2**32, 2**64 - 1, 2**64 + 3])


@settings(max_examples=50, deadline=None, derandomize=True)
@given(global_seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**200)),
       indices=st.lists(st.one_of(st.integers(0, 10**6), st.integers(0, 2**70)),
                        min_size=1, max_size=6))
def test_stream_keys_are_numpys_for_drawn_seeds_and_indices(global_seed, indices):
    _assert_streams_are_numpys(global_seed, indices + INDICES)


def test_stream_keys_reject_a_negative_seed_or_index():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        stream_keys(-1, [0])
    with pytest.raises(ValueError, match="expected non-negative integer"):
        stream_keys(3, [0, -2])


def test_importing_jumpsde_does_not_import_numpy_random():
    # the stream keys are derived without numpy.random, whose import costs
    # every worker memory; it is imported when a first path opens
    code = ("import sys, jumpsde, jumpsde.cli; "
            "assert 'numpy.random' not in sys.modules, 'numpy.random imported'")
    src = str(Path(jumpsde.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr


def test_streams_pickle_as_numpys():
    brownian = open_path(_JUMPING, 5, 3).brownian
    brownian.standard_normal(4)
    copy = pickle.loads(pickle.dumps(brownian))
    assert copy.standard_normal(5).tobytes() == brownian.standard_normal(5).tobytes()


def test_bundle_regeneration_is_bit_identical(set1):
    a = generate_bundle(set1, 64, 777, 3)
    b = generate_bundle(set1, 64, 777, 3)
    assert np.array_equal(a.jump_times, b.jump_times)
    assert np.array_equal(a.fine_mesh.nodes, b.fine_mesh.nodes)
    assert np.array_equal(a.dw_fine, b.dw_fine)


def test_bundles_differ_across_indices(set1):
    a = generate_bundle(set1, 64, 777, 0)
    b = generate_bundle(set1, 64, 777, 1)
    assert not np.array_equal(a.dw_fine[:8], b.dw_fine[:8])


def test_zero_intensity_gives_uniform_mesh(set1):
    params = replace(set1, lam=0.0)
    bundle = generate_bundle(params, 16, 1, 0)
    assert bundle.fine_mesh.n_intervals == 16
    assert not bundle.fine_mesh.is_jump.any()


def test_terminal_brownian_variance(set1):
    params = replace(set1, lam=0.0)
    n = 10_000
    totals = np.array(
        [generate_bundle(params, 4, 2024, i).dw_fine.sum() for i in range(n)]
    )
    var = totals.var(ddof=1)
    assert abs(var - set1.T) <= 0.05 * set1.T


def test_increment_marginals_scale_with_dt(set1):
    params = replace(set1, lam=0.0)
    draws = np.array(
        [generate_bundle(params, 8, 5, i).dw_fine[0] for i in range(4000)]
    )
    assert abs(draws.var(ddof=1) - 1.0 / 8.0) <= 0.08 / 8.0


def test_lambda_change_preserves_brownian_draw_sequence(set1):
    lo = generate_bundle(replace(set1, lam=0.0), 16, 42, 5)
    hi = generate_bundle(replace(set1, lam=3.0), 16, 42, 5)
    z_lo = lo.dw_fine[0] / math.sqrt(lo.fine_mesh.dt[0])
    z_hi = hi.dw_fine[0] / math.sqrt(hi.fine_mesh.dt[0])
    assert z_lo == pytest.approx(z_hi, rel=1e-15)


def test_coarsen_uniform_pairwise_sums(set1):
    params = replace(set1, lam=0.0)
    bundle = generate_bundle(params, 4, 9, 0)
    a, b, c, d = bundle.dw_fine
    coarse_mesh, inc = coarsen_increments(bundle, 2)
    assert coarse_mesh.n_intervals == 2
    assert inc[0] == a + b
    assert inc[1] == c + d


def test_coarsen_identity(set1):
    bundle = generate_bundle(set1, 8, 11, 2)
    mesh, inc = coarsen_increments(bundle, 8)
    assert np.array_equal(inc, bundle.dw_fine)
    assert np.array_equal(mesh.nodes, bundle.fine_mesh.nodes)


def test_coarsen_with_jump_interval_cover():
    # manual bundle: fine mesh at M_ref=4 with one jump at t=0.3
    fine = build_mesh(4, 1.0, [0.3])
    dw = np.array([0.1, -0.2, 0.05, 0.4, -0.3])
    assert fine.n_intervals == 5
    bundle = PathBundle(
        global_seed=0, path_index=0, m_ref=4, T=1.0,
        jump_times=np.array([0.3]), fine_mesh=fine, dw_fine=dw,
    )
    coarse, inc = coarsen_increments(bundle, 2)
    assert coarse.nodes == pytest.approx([0.0, 0.3, 0.5, 1.0], abs=0.0)
    # index-range oracle: fine nodes [0, .25, .3, .5, .75, 1]
    assert inc[0] == dw[0] + dw[1]
    assert inc[1] == dw[2]
    assert inc[2] == dw[3] + dw[4]


def test_coarsen_requires_divisibility(set1):
    bundle = generate_bundle(set1, 4, 1, 0)
    with pytest.raises(MeshError, match="does not divide"):
        coarsen_increments(bundle, 3)


def test_node_subset_and_telescoping(set1):
    for lam in (0.0, 1.0, 5.0):
        params = replace(set1, lam=lam)
        for i in range(40):
            bundle = generate_bundle(params, 64, 31337, i)
            fine_nodes = bundle.fine_mesh.nodes
            flat_total = _left_to_right(bundle.dw_fine.tolist())
            for m in (8, 16, 32):
                coarse, inc = coarsen_increments(bundle, m)
                # exact node subset for the dyadic family
                pos = np.searchsorted(fine_nodes, coarse.nodes)
                assert np.array_equal(fine_nodes[pos], coarse.nodes)
                # independent blocked left-to-right oracle, exactly equal
                idx = np.searchsorted(fine_nodes, coarse.nodes)
                expected = [
                    _left_to_right(bundle.dw_fine[idx[j]:idx[j + 1]].tolist())
                    for j in range(coarse.n_intervals)
                ]
                assert np.array_equal(inc, np.array(expected))
                # and the telescoped total agrees with the flat sum to rounding
                assert _left_to_right(inc.tolist()) == pytest.approx(
                    flat_total, abs=1e-10
                )
                # jump nodes are shared across resolutions
                assert np.array_equal(
                    coarse.nodes[coarse.is_jump],
                    fine_nodes[bundle.fine_mesh.is_jump],
                )


def test_regular_increments_match_manual_sums(set1):
    params = replace(set1, lam=5.0)
    bundle = generate_bundle(params, 32, 4242, 1)
    dw, dn = regular_increments(bundle, 8)
    assert dw.shape == (8,) and dn.shape == (8,)
    # jump counts from a histogram oracle over half-open intervals (lo, hi]
    bounds = np.arange(9) / 8.0
    expected_counts = np.histogram(
        bundle.jump_times, bins=np.nextafter(bounds, bounds + 1)
    )[0]
    assert np.array_equal(dn, expected_counts)
    assert dn.sum() == bundle.jump_times.size
    # Brownian sums telescope to the same terminal value
    assert dw.sum() == pytest.approx(bundle.dw_fine.sum(), abs=1e-12)


def test_regular_increments_zero_intensity(set1):
    params = replace(set1, lam=0.0)
    bundle = generate_bundle(params, 16, 5, 0)
    dw, dn = regular_increments(bundle, 4)
    assert not dn.any()
    mesh_c, inc = coarsen_increments(bundle, 4)
    assert np.array_equal(dw, inc)


def test_regular_increments_requires_divisibility(set1):
    bundle = generate_bundle(set1, 16, 5, 0)
    with pytest.raises(MeshError):
        regular_increments(bundle, 3)


def test_segment_sums_equal_a_sequential_loop():
    rng = np.random.Generator(np.random.Philox(11))
    # wide magnitude range, so that any reordering or compensation shows
    values = rng.standard_normal(400) * np.exp(rng.uniform(-30.0, 30.0, 400))
    cuts = np.sort(rng.choice(np.arange(1, 400), 37, replace=False))
    idx = np.concatenate(([0], cuts, [400]))
    idx[5] = idx[4]  # an empty segment sums to 0.0
    sums = oracles._segment_sums(values, idx)
    expected = [_left_to_right(values[a:b].tolist()) for a, b in zip(idx, idx[1:])]
    assert sums.tobytes() == np.array(expected).tobytes()


def test_coarse_and_regular_sums_are_sequential(set1):
    params = replace(set1, lam=5.0)
    bundle = generate_bundle(params, 256, 99, 7)
    fine = bundle.dw_fine.tolist()
    nodes = bundle.fine_mesh.nodes
    for m in (1, 4, 32, 256):
        coarse, inc = coarsen_increments(bundle, m)
        idx = np.searchsorted(nodes, coarse.nodes)
        expected = [_left_to_right(fine[a:b]) for a, b in zip(idx, idx[1:])]
        assert inc.tobytes() == np.array(expected).tobytes()
        dw, _ = regular_increments(bundle, m)
        idx = np.searchsorted(nodes, np.arange(m + 1) / m)
        expected = [_left_to_right(fine[a:b]) for a, b in zip(idx, idx[1:])]
        assert dw.tobytes() == np.array(expected).tobytes()


def _staged_path(global_seed, i, jump_times):
    """open_path's result for given jump times, with the path's own stream."""
    _, brownian = oracles.path_streams(global_seed, i)
    return PathNoise(global_seed, i, np.asarray(jump_times, dtype=float), brownian)


def _assert_block_is_the_oracles(block, T, M, staged, lo, hi):
    """The block's steps and the steps at whose ends its paths jump are
    those of the oracle's placements of the staged jump times."""
    placements = [oracles.place_jumps(M, T, times) for times in staged]
    nodes, dt, jumps = oracles.block_steps(placements, lo, hi)
    assert (block.T, block.lo, block.hi, block.jumps) == (T, lo, hi, jumps)
    assert block.n.tolist() == [node.size - 1 for node in nodes]
    assert block.dt.tobytes() == dt.tobytes() and block.dw.shape == dt.shape


@pytest.mark.parametrize(
    "m_ref, m_list, staged",
    [
        # a jump within the dedup tolerance of fine grid node 3/64, which no
        # level's grid has; a jump exactly on the coarse node 1/4, a block
        # end; two jumps in one fine interval
        (64, (8, 16, 32), [[3 / 64 + 0.5e-12], [0.25, 0.61], [0.3001, 0.3002, 0.9]]),
        # a ladder that is not nested: blocks are the 8 intervals of the
        # grid of gcd(16, 24) steps; 1/24 is a node of the 24-step grid
        # only, 1/8 a block end
        (48, (16, 24), [[5 / 48 + 0.5e-12], [1 / 24, 1 / 8, 0.61], [0.3001, 0.3002, 0.9]]),
    ],
)
def test_streamed_blocks_equal_the_bundle_and_its_sums(set1, m_ref, m_list, staged):
    # the staged jumps, then sampled paths at lambda = 5
    params = replace(set1, lam=5.0)
    paths = [_staged_path(5, i, times) for i, times in enumerate(staged)]
    paths += [open_path(params, 5, i) for i in range(len(staged), 12)]
    times = [path.jump_times for path in paths]
    bundles = [oracles.generate_bundle(params, m_ref, 5, i, t) for i, t in enumerate(times)]
    blocks = math.gcd(*m_list)
    fine = m_ref // blocks
    drawn = list(fine_blocks(paths, place_batch((m_ref,), params.T, times), blocks))
    # a batch's blocks drawn from its flat placement are the oracle's, and
    # give each path's mesh and increments
    assert len(drawn) == blocks
    for b, blk in enumerate(drawn):
        _assert_block_is_the_oracles(blk, params.T, m_ref, times, b * fine, (b + 1) * fine)
    for p, bundle in enumerate(bundles):
        dw = [blk.dw[p, : blk.n[p]] for blk in drawn]
        dt = [blk.dt[p, : blk.n[p]] for blk in drawn]
        assert np.concatenate(dt).tobytes() == bundle.fine_mesh.dt.tobytes()
        assert np.concatenate(dw).tobytes() == bundle.dw_fine.tobytes()
    # a staged jump's path jumps in the block of the fine interval that the
    # jump splits or, on a grid node, ends
    for p, times_p in enumerate(staged):
        for t in times_p:
            q = t * m_ref
            cell = round(q) - 1 if abs(q - round(q)) < 1e-6 else math.floor(q)
            assert any(p in lanes for lanes in drawn[cell // fine].jumps.values())
    cuts = level_cuts(place_batch((m_ref,), params.T, times),
                      place_batch(m_list, params.T, times), blocks)
    n_paths = len(paths)
    for b, blk in enumerate(drawn):
        coarse = coarse_block(blk, cuts)
        assert coarse.grid.shape == (len(m_list) * n_paths, m_list[-1] // blocks)
        for j, m in enumerate(m_list):
            span = m // blocks
            lo, hi = b * span, (b + 1) * span
            placed = [oracles.place_jumps(m, params.T, t) for t in times]
            # the lanes that jump here are those whose jumps touch the block
            jumping = sorted({lane for lanes in coarse.jumps.values() for lane in lanes})
            assert [lane % n_paths for lane in jumping if lane // n_paths == j] == [
                p for p, jumps in enumerate(placed) if jumps.touches(lo, hi)]
            for p, bundle in enumerate(bundles):
                lane = j * n_paths + p
                c_mesh, c_dw = oracles.coarsen_increments(bundle, m)
                start = np.flatnonzero(
                    np.abs(c_mesh.nodes - lo * params.T / m) <= 1e-12
                )[0]
                n = coarse.steps[lane]
                assert coarse.dw[lane, :n].tobytes() == c_dw[start : start + n].tobytes()
                assert coarse.dt[lane, :n].tobytes() == c_mesh.dt[start : start + n].tobytes()
                # a block's first node is the previous block's last
                ends = c_mesh.is_jump[start + 1 : start + n + 1]
                jumped = [k for k, lanes in coarse.jumps.items() for other in lanes
                          if other == lane]
                assert sorted(jumped) == np.flatnonzero(ends).tolist()
                r_dw, _ = oracles.regular_increments(bundle, m)
                assert coarse.grid[lane, :span].tobytes() == r_dw[lo:hi].tobytes()


# the positivity table's (T, M) meshes of two horizons
SHARED_MESHES = ((1.0, 8), (1.0, 16), (0.5, 4), (0.5, 8))


def _assert_block_is_the_bundles(block, p, bundle):
    mesh, n = bundle.fine_mesh, block.n[p]
    assert block.dt[p, :n].tobytes() == mesh.dt.tobytes()
    assert block.dw[p, :n].tobytes() == bundle.dw_fine.tobytes()
    assert not block.dt[p, n:].any() and not block.dw[p, n:].any()
    # path p jumps at the end of each step that ends at a flagged node
    jumped = [k for k, lanes in block.jumps.items() if p in lanes]
    assert sorted(jumped) == np.flatnonzero(mesh.is_jump[1:]).tolist()


@pytest.mark.parametrize("lam", [0.0, 1.0, 5.0])
def test_shared_opening_gives_each_mesh_its_bundle(set1, lam):
    paths = [open_shared_path(lam, SHARED_MESHES, 13, i) for i in range(40)]
    for T, M in SHARED_MESHES:
        block = mesh_block(paths, T, M)
        times = [path.jump_times[path.jump_times < T] for path in paths]
        _assert_block_is_the_oracles(block, T, M, times, 0, M)
        for p, path in enumerate(paths):
            bundle = generate_bundle(replace(set1, lam=lam, T=T), M, 13, p)
            _assert_block_is_the_bundles(block, p, bundle)
    if lam:
        assert all(mesh_block(paths, T, M).jumps for T, M in SHARED_MESHES)


def test_shared_opening_places_edge_jumps_as_each_bundle(set1, monkeypatch):
    # a jump within the dedup tolerance of 1/16, a node of the 16-step grid
    # only; one exactly on the grid node 1/4 of every mesh; one within the
    # tolerance of the short horizon's end, 0.5, which only the long
    # horizon's grids have as an interior node; and jumps that only the long
    # horizon sees. The opening samples them for the long horizon, T = 1
    staged = [
        [1 / 16 + 0.2e-12, 0.7],
        [0.25, 0.5 - 0.2e-12],
        [0.3001, 0.3002, 0.9],
        [],
    ]
    paths = []
    for i, times in enumerate(staged):
        def sample(lam, T, rng, times=times):
            assert T == 1.0
            return np.array(times, dtype=float)

        monkeypatch.setattr(jumpsde.paths, "sample_jump_times", sample)
        paths.append(open_shared_path(5.0, SHARED_MESHES, 5, i))
    for T, M in SHARED_MESHES:
        block = mesh_block(paths, T, M)
        for p, times in enumerate(staged):
            times = [t for t in times if t < T]
            bundle = oracles.generate_bundle(replace(set1, T=T), M, 5, p, times)
            _assert_block_is_the_bundles(block, p, bundle)
    jumping = [lanes for lanes in mesh_block(paths, *SHARED_MESHES[0]).jumps.values()]
    assert any(0 in lanes for lanes in jumping) and not any(3 in lanes for lanes in jumping)


def test_a_rekeyed_pair_opens_every_path_as_numpys_streams():
    # one stream_pair opens path after path: each path's jump times and
    # normals are those of numpy's own seeding of its streams, bit for bit,
    # and so are the float32 draws after them, which leave half a word
    # buffered for the next path's re-keying to drop. The first batch of
    # indices takes stream_keys' uint64 route, beyond 2**32 too; the
    # second, beyond 2**64, its word-by-word route
    streams = stream_pair()
    batches = (list(range(40)) + [2**32 - 1, 2**32, 5_000_000_000, 2**64 - 1],
               [2**64, 7, 2**64 + 3, 2**70])
    for global_seed in (0, 2**32 + 5):
        for indices in batches:
            for i, keys in zip(indices, stream_keys(global_seed, indices)):
                shared = open_shared_path(5.0, SHARED_MESHES, global_seed, i, keys, streams)
                jumps, brownian = oracles.path_streams(global_seed, i)
                assert shared.jump_times.tobytes() == sample_jump_times(5.0, 1.0, jumps).tobytes()
                assert shared.normals.tobytes() == brownian.standard_normal(
                    shared.normals.size).tobytes()
                for mine, theirs in zip(streams, (jumps, brownian)):
                    assert mine.random(3, dtype=np.float32).tobytes() == theirs.random(
                        3, dtype=np.float32).tobytes()


@pytest.mark.parametrize("experiment", ["positivity", "moments"])
def test_a_chunk_opens_its_paths_on_one_stream_pair(set1, monkeypatch, experiment):
    # one chunk of 40 paths, in batches of 7, builds two generators, not 80
    built = []
    generator = np.random.Generator

    def counted(bit_generator):
        built.append(bit_generator)
        return generator(bit_generator)

    monkeypatch.setattr(np.random, "Generator", counted)
    monkeypatch.setattr(jumpsde.harness, "_LANE_PATHS", 7)
    if experiment == "positivity":
        positivity_table([("set1", set1)], [linear_jump(-0.5)], [0.125, 0.25], 5.0, 40, 3)
    else:
        moment_probe(set1, linear_jump(-0.5), 8, 40, [1.0], 3)
    assert len(built) == 2


_WATCHED_WORKERS = """
import sys
import jumpsde.harness as harness
from jumpsde import ModelParams, linear_jump, positivity_table

run_chunk = harness._run_chunk

def watched_chunk(task):
    before = set(sys.modules)
    outcome = run_chunk(task)
    new = sorted(m for m in set(sys.modules) - before if m.startswith("numpy.random"))
    # one write of the whole line: the two workers share the pipe, and
    # stderr writes each piece of a print through at once
    sys.stderr.write(f"chunk imported {new}\\n")
    return outcome

harness._run_chunk = watched_chunk
assert "numpy.random" not in sys.modules
params = ModelParams(alpha_m1=2.0, alpha0=1.0, alpha1=1.5, alpha2=5.0, alpha3=1.0,
                     gamma=3.0, rho=1.5, lam=1.0, x0=1.0, T=1.0)
positivity_table([("set1", params)], [linear_jump(-0.5)], [0.125], 1.0, 6, 3, parallelism=2)
"""


def test_forked_workers_inherit_numpy_random():
    # the pool's parent imports numpy.random before it forks, so no worker
    # imports a numpy.random module while it runs its chunk
    if multiprocessing.get_context().get_start_method() != "fork":
        pytest.skip("the workers are not forked")
    src = str(Path(jumpsde.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-c", _WATCHED_WORKERS],
                            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr
    chunks = [line for line in result.stderr.splitlines() if line.startswith("chunk imported")]
    assert chunks == ["chunk imported []"] * 2


def _params(T):
    return ModelParams(alpha_m1=2.0, alpha0=1.0, alpha1=1.5, alpha2=5.0, alpha3=1.0,
                       gamma=3.0, rho=1.5, lam=5.0, x0=1.0, T=T)


@st.composite
def staged_ladders(draw):
    """A ladder that passes check_ladder, nested or not, a horizon, and each
    path's jump times: drawn near fine grid nodes that no level's grid has,
    exactly on level grid nodes and block ends, in pairs within a fine step
    or the dedup tolerance of each other, near T, and anywhere."""
    m_ref = draw(st.sampled_from([6, 12, 16, 24, 32, 48, 64, 96]))
    divisors = [m for m in range(1, m_ref) if m_ref % m == 0]
    m_list = check_ladder(sorted(draw(
        st.lists(st.sampled_from(divisors), min_size=2, max_size=4, unique=True))), m_ref)
    T = draw(st.sampled_from([1.0, 0.5, 0.3, 2.5]))
    tol = DEDUP_RTOL * T
    blocks = math.gcd(*m_list)

    def node(M, k):
        return T if k == M else k * (T / M)

    # offsets of up to twice the dedup tolerance, the tolerance itself included
    offset = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([-1.0, 1.0, 0.0])).map(
        lambda u: u * tol)
    fine_only = [k for k in range(1, m_ref) if all(k * m % m_ref for m in m_list)]
    times = [
        st.floats(0.0, T),
        st.builds(lambda M, u: node(M, round(u * M)), st.sampled_from(m_list),
                  st.floats(0.0, 1.0)),
        st.integers(1, blocks).map(lambda k: node(blocks, k)),
        offset.map(lambda d: T + d),
    ]
    if fine_only:
        times.append(st.builds(lambda k, d: node(m_ref, k) + d,
                               st.sampled_from(fine_only), offset))
    time = st.one_of(times)
    # a second time within a fine step of the first, or within the tolerance
    # of it
    pair = st.builds(lambda t, d: [t, t + d], time,
                     st.one_of(offset.map(abs), st.floats(0.0, T / m_ref)))
    paths = []
    for _ in range(draw(st.integers(1, 4))):
        drawn = draw(st.lists(time, max_size=4)) + draw(st.lists(pair, max_size=2).map(
            lambda pairs: [t for two in pairs for t in two]))
        paths.append(sorted(t for t in drawn if tol < t < T + tol))
    return m_ref, m_list, T, paths


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ladder=staged_ladders())
def test_level_cuts_equal_the_bundles_coarsenings(ladder):
    m_ref, m_list, T, staged = ladder
    n, blocks = len(staged), math.gcd(*m_list)
    fine_steps = m_ref // blocks
    fine = place_batch((m_ref,), T, staged)
    levels = place_batch(m_list, T, staged)
    # the flat placements are the oracle's, and index each node's place
    for g, (M, placed) in enumerate([(m_ref, fine)] + [(m, levels) for m in m_list]):
        for p, times in enumerate(staged):
            lane = (g - 1 if g else 0) * n + p
            jumps = oracles.place_jumps(M, T, times)
            nodes, flags = jumps.nodes(0, M)
            mine = placed.lane == lane
            ins, on = mine & ~placed.on_grid, mine & placed.on_grid
            assert placed.times[ins].tobytes() == np.array(jumps.inserted).tobytes()
            assert placed.interval[ins].tolist() == list(jumps.cells)
            assert (placed.interval[on] + 1).tolist() == list(jumps.on_grid)
            assert nodes[placed.index[ins]].tobytes() == placed.times[ins].tobytes()
            assert flags[placed.index[mine]].all()
            assert (placed.index[on] - placed.interval[on] - 1).tolist() == [
                bisect.bisect_left(jumps.cells, q) for q in jumps.on_grid]
    params = _params(T)
    paths = [_staged_path(9, p, times) for p, times in enumerate(staged)]
    bundles = [oracles.generate_bundle(params, m_ref, 9, p, times)
               for p, times in enumerate(staged)]
    cuts = level_cuts(fine, levels, blocks)
    spans = [m // blocks for m in m_list]
    counts = _jump_counts(staged, T, m_list, spans, blocks)
    sums = [[(oracles.coarsen_increments(bundle, m), oracles.regular_increments(bundle, m))
             for bundle in bundles] for m in m_list]
    streamed = list(fine_blocks(paths, fine, blocks))
    assert len(streamed) == blocks
    for b, block in enumerate(streamed):
        _assert_block_is_the_oracles(block, T, m_ref, staged, b * fine_steps,
                                     (b + 1) * fine_steps)
        coarse = coarse_block(block, cuts)
        width = coarse.dt.shape[1]
        for j, (m, span) in enumerate(zip(m_list, spans)):
            for p, ((mesh, dw), (r_dw, r_dn)) in enumerate(sums[j]):
                lane, k = j * n + p, coarse.steps[j * n + p]
                # the mesh's steps from grid node b * span on
                start = oracles.place_jumps(m, T, staged[p]).nodes(0, b * span)[0].size - 1
                assert coarse.dt[lane].tobytes() == (
                    mesh.dt[start : start + k].tobytes() + bytes(8 * (width - k)))
                assert coarse.dw[lane].tobytes() == (
                    dw[start : start + k].tobytes() + bytes(8 * (width - k)))
                # each lane once per jump node
                jumped = [step for step, lanes in coarse.jumps.items()
                          for other in lanes if other == lane]
                assert sorted(jumped) == np.flatnonzero(
                    mesh.is_jump[start + 1 : start + k + 1]).tolist()
                assert coarse.grid[lane].tobytes() == (
                    r_dw[b * span : (b + 1) * span].tobytes()
                    + bytes(8 * (spans[-1] - span)))
                bem = {step: int(dn[lanes == lane][0]) for step, (lanes, dn)
                       in counts[b].items() if lane in lanes}
                expected = r_dn[b * span : (b + 1) * span]
                assert bem == {step: int(expected[step])
                               for step in np.flatnonzero(expected).tolist()}


@pytest.mark.parametrize("moved", [0.35, 0.3 + 2 * DEDUP_RTOL])
def test_level_cuts_reject_a_level_node_missing_from_the_fine_mesh(moved):
    # the fine grid places a jump at 0.3, the levels one at `moved` instead:
    # an inserted node of theirs that no fine node matches within the
    # dedup tolerance
    fine = place_batch((64,), 1.0, [[0.3], [0.7]])
    levels = place_batch((8, 16), 1.0, [[moved], [0.7]])
    with pytest.raises(MeshError, match=f"coarse node {moved} missing from the fine mesh"):
        level_cuts(fine, levels, 8)
