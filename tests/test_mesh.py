import math

import numpy as np
import pytest

from jumpsde import MeshError, build_mesh, sample_jump_times


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def test_sample_zero_intensity_is_empty():
    assert sample_jump_times(0.0, 1.0, _rng()).size == 0


def test_sample_negative_intensity_rejected():
    with pytest.raises(ValueError):
        sample_jump_times(-1.0, 1.0, _rng())


def test_sample_mean_count_matches_poisson():
    rng = _rng(123)
    n = 100_000
    total = sum(sample_jump_times(5.0, 1.0, rng).size for _ in range(n))
    mean = total / n
    assert abs(mean - 5.0) <= 3.0 * math.sqrt(5.0 / n)


def test_sample_zero_count_probability():
    rng = _rng(456)
    n = 100_000
    zeros = sum(sample_jump_times(1.0, 1.0, rng).size == 0 for _ in range(n))
    assert abs(zeros / n - math.exp(-1.0)) <= 0.005


def test_sample_times_sorted_within_domain():
    rng = _rng(7)
    for _ in range(200):
        times = sample_jump_times(5.0, 1.0, rng)
        assert np.all(np.diff(times) > 0.0)
        assert times.size == 0 or (times[0] > 0.0 and times[-1] < 1.0)


def test_build_plain_grid():
    mesh = build_mesh(2, 1.0, [])
    assert np.array_equal(mesh.nodes, [0.0, 0.5, 1.0])
    assert not mesh.is_jump.any()
    assert np.array_equal(mesh.dt, [0.5, 0.5])
    assert mesh.base_dt == 0.5


def test_build_merges_single_jump():
    mesh = build_mesh(2, 1.0, [0.3])
    assert mesh.nodes == pytest.approx([0.0, 0.3, 0.5, 1.0], abs=0.0)
    assert list(mesh.is_jump) == [False, True, False, False]
    assert mesh.dt == pytest.approx([0.3, 0.2, 0.5], abs=1e-15)
    assert mesh.n_intervals == 3


def test_build_dedups_onto_grid_node():
    mesh = build_mesh(4, 1.0, [0.25 + 1e-15])
    assert len(mesh.nodes) == 5
    assert mesh.nodes[1] == 0.25  # grid value wins
    assert mesh.is_jump[1]
    assert mesh.n_intervals == 4


def test_build_jump_at_terminal_merges_with_flag():
    mesh = build_mesh(4, 1.0, [1.0 - 1e-16])
    assert len(mesh.nodes) == 5
    assert mesh.nodes[-1] == 1.0
    assert mesh.is_jump[-1]


def test_build_rejects_jumps_outside_domain():
    with pytest.raises(MeshError):
        build_mesh(4, 1.0, [1.5])
    with pytest.raises(MeshError):
        build_mesh(4, 1.0, [0.0])
    with pytest.raises(MeshError):
        build_mesh(4, 1.0, [1e-14])  # inside the dedup tolerance of t=0
    with pytest.raises(MeshError):
        build_mesh(4, 1.0, [0.7, 0.3])


def test_build_collapses_colliding_jump_times():
    mesh = build_mesh(4, 1.0, [0.3, 0.3 + 1e-14])
    assert np.count_nonzero(mesh.is_jump) == 1
    assert mesh.n_intervals == 5


def test_build_is_deterministic():
    jumps = sample_jump_times(5.0, 1.0, _rng(99))
    a = build_mesh(16, 1.0, jumps)
    b = build_mesh(16, 1.0, jumps)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.is_jump, b.is_jump)


def test_invariants_on_random_meshes():
    rng = _rng(2718)
    for lam in (0.0, 1.0, 5.0):
        for m in (1, 2, 7, 32):
            for _ in range(50):
                jumps = sample_jump_times(lam, 1.0, rng)
                mesh = build_mesh(m, 1.0, jumps)
                assert mesh.nodes[0] == 0.0
                assert mesh.nodes[-1] == 1.0
                assert np.all(np.diff(mesh.nodes) > 0.0)
                assert not mesh.is_jump[0]
                assert mesh.dt.max() <= mesh.base_dt * (1.0 + 1e-12)
                # every grid multiple appears among the nodes
                grid = np.arange(m + 1) * mesh.base_dt
                pos = np.searchsorted(mesh.nodes, grid - 1e-12)
                assert np.all(np.abs(mesh.nodes[pos] - grid) <= 1e-12)
                # interval count = m + jumps that missed the grid
                collisions = sum(
                    np.any(np.abs(g - jumps) <= 1e-12) for g in grid
                )
                assert mesh.n_intervals == m + len(jumps) - collisions


def test_invariants_with_nondyadic_horizon():
    rng = _rng(31415)
    for _ in range(50):
        jumps = sample_jump_times(2.0, 2.5, rng)
        mesh = build_mesh(7, 2.5, jumps)
        assert mesh.dt.max() <= mesh.base_dt * (1.0 + 1e-12)
        assert mesh.nodes[-1] == 2.5


def _frozen_build_mesh(M, T, jump_times):
    """build_mesh as it was before the jump placement was factored out."""
    base_dt = T / M
    tol = 1e-12 * T
    grid = np.arange(M + 1, dtype=float) * base_dt
    grid[-1] = T
    jt = np.asarray(jump_times, dtype=float)
    if jt.size:
        if np.any(np.diff(jt) < 0.0):
            raise MeshError("jump times must be sorted")
        if jt[0] <= tol or jt[-1] >= T + tol:
            raise MeshError("jump time outside (0, T)")
        keep = np.empty(jt.size, dtype=bool)
        keep[0] = True
        keep[1:] = np.diff(jt) > tol
        jt = jt[keep]
    if jt.size == 0:
        return grid, np.zeros(M + 1, dtype=bool)
    nearest = np.clip(np.rint(jt / base_dt).astype(int), 0, M)
    collides = np.abs(jt - grid[nearest]) <= tol
    inserted = jt[~collides]
    nodes = np.insert(grid, np.searchsorted(grid, inserted), inserted)
    flags = np.zeros(nodes.size, dtype=bool)
    if inserted.size:
        flags[np.searchsorted(nodes, inserted)] = True
    if np.any(collides):
        flags[np.searchsorted(nodes, grid[nearest[collides]])] = True
    return nodes, flags


def _edge_cases():
    # the dedup cases of the tests above, at several grids and horizons
    for M, T in ((4, 1.0), (2, 1.0), (7, 2.5), (32, 1.0), (3, 1.0 / 3.0)):
        g = T / M
        yield M, T, []
        yield M, T, [0.3 * T]
        yield M, T, [g + 1e-15 * T]
        yield M, T, [g - 0.9e-12 * T, 2 * g + 0.9e-12 * T]
        yield M, T, [g + 1.1e-12 * T]
        yield M, T, [T - 1e-16 * T]
        yield M, T, [0.3 * T, 0.3 * T + 1e-14 * T]
        yield M, T, [0.3 * T, 0.3 * T + 0.6e-12 * T, 0.3 * T + 1.2e-12 * T]
        yield M, T, [0.5 * g, 0.5 * g + 1e-9 * T, g]


def test_build_mesh_matches_its_frozen_copy():
    rng = _rng(4242)
    cases = list(_edge_cases())
    for _ in range(3000):
        M = int(rng.choice([1, 2, 3, 7, 32, 100]))
        T = float(rng.choice([1.0, 2.5, 1.0 / 3.0]))
        times = np.sort(rng.uniform(0.0, T, int(rng.integers(0, 6))))
        if times.size and rng.random() < 0.5:
            # onto a grid node, within or just beyond the tolerance
            j, node = int(rng.integers(times.size)), int(rng.integers(1, M + 1))
            offset = rng.choice([0.0, 0.5, 0.99, 1.01, 2.0]) * rng.choice([-1, 1])
            times[j] = node * (T / M) + offset * 1e-12 * T
            times = np.sort(times)
        cases.append((M, T, times[(times > 1e-12 * T) & (times < T + 1e-12 * T)]))
    for M, T, times in cases:
        nodes, flags = _frozen_build_mesh(M, T, times)
        mesh = build_mesh(M, T, times)
        assert mesh.nodes.tobytes() == nodes.tobytes(), (M, T, times)
        assert mesh.is_jump.tobytes() == flags.tobytes(), (M, T, times)
        assert mesh.dt.tobytes() == np.diff(nodes).tobytes()
        assert mesh.base_dt == T / M
