import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from shellprop import (
    ConfigError,
    DenseMatrix,
    FusedPropagator,
    InputError,
    adjacency_matrix,
    build_graph,
    cumulative_matrix,
    fuse_shells,
    fused_propagate,
    fused_shell_propagator,
    normalize_shell,
    ppr_coefficients,
    residual_propagator,
    rw_norm_propagator,
    shell_decompose,
    shell_degree_profile,
    shell_report,
    shell_union,
    sym_norm_propagator,
)

from helpers import (
    complete_graph,
    dense_adjacency,
    dense_fused,
    dense_shells,
    dense_sym_norm,
    floyd_warshall,
    path_graph,
    random_connected_graph,
    random_graph,
    star_graph,
    to_dense,
)


def entries(m: sp.csr_array) -> set[tuple[int, int]]:
    rows, cols = m.nonzero()
    return set(zip(rows.tolist(), cols.tolist()))


class TestCumulativeMatrix:
    def test_path_one_hop(self):
        c1 = cumulative_matrix(path_graph(3), 1)
        assert entries(c1) == {(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1)}

    def test_path_two_hops_saturates(self):
        c2 = cumulative_matrix(path_graph(3), 2)
        assert c2.nnz == 9

    def test_zero_hops_is_identity(self):
        c0 = cumulative_matrix(path_graph(3), 0)
        assert np.array_equal(c0.toarray(), np.eye(3))

    def test_negative_hops(self):
        with pytest.raises(InputError):
            cumulative_matrix(path_graph(3), -1)

    @pytest.mark.parametrize("seed", range(6))
    def test_off_diagonal_matches_summed_powers(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 41))
        g = random_connected_graph(seed, n, float(rng.uniform(0.1, 0.4)))
        a = dense_adjacency(g)
        running = np.zeros_like(a)
        power = np.eye(g.n)
        for level in range(1, 6):
            power = power @ a
            running += power
            got = cumulative_matrix(g, level).toarray()
            np.fill_diagonal(got, 0)
            want = (running > 0).astype(float)
            np.fill_diagonal(want, 0)
            assert np.array_equal(got, want)


class TestShellDecompose:
    def test_path(self):
        d = shell_decompose(path_graph(3))
        assert d.l_max == 2
        assert entries(d.shells[0]) == {(0, 1), (1, 0), (1, 2), (2, 1)}
        assert entries(d.shells[1]) == {(0, 2), (2, 0)}

    def test_triangle_single_shell(self):
        d = shell_decompose(complete_graph(3))
        assert d.l_max == 1
        assert d.shell_sizes == (6,)

    def test_star(self):
        d = shell_decompose(star_graph(3))
        assert d.shell_sizes == (6, 6)
        assert sum(d.shell_sizes) == 4 * 3

    def test_cap_truncates(self):
        d = shell_decompose(path_graph(5), l_cap=2)
        assert d.l_max == 2
        assert len(d.shells) == 2

    def test_cap_beyond_diameter_drops_trailing_levels(self):
        d = shell_decompose(path_graph(3), l_cap=10)
        assert d.l_max == 2

    def test_bad_cap(self):
        with pytest.raises(InputError):
            shell_decompose(path_graph(3), l_cap=0)

    def test_edgeless_graph_has_no_shells(self):
        d = shell_decompose(build_graph([], 4))
        assert d.l_max == 0
        assert d.shells == ()

    @pytest.mark.parametrize("seed", range(8))
    def test_shells_match_distance_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 61))
        g = random_graph(seed + 11, n, float(rng.uniform(0.05, 0.4)))
        oracle = floyd_warshall(g)
        d = shell_decompose(g)
        seen: set[tuple[int, int]] = set()
        for level, shell in enumerate(d.shells, start=1):
            got = entries(shell)
            want = set(zip(*np.nonzero(oracle == level)))
            assert got == {(int(i), int(j)) for i, j in want}
            assert not (got & seen)  # pairwise disjoint
            seen |= got

    @pytest.mark.parametrize("seed", range(5))
    def test_connected_cover_count(self, seed):
        g = random_connected_graph(seed + 100, 40, 0.15)
        d = shell_decompose(g)
        assert sum(d.shell_sizes) == g.n * (g.n - 1)

    def test_consistent_with_cumulative_differences(self):
        g = random_connected_graph(3, 25, 0.15)
        d = shell_decompose(g)
        prev = cumulative_matrix(g, 0)
        for level, shell in enumerate(d.shells, start=1):
            cur = cumulative_matrix(g, level)
            assert entries(cur) - entries(prev) == entries(shell)
            prev = cur

    def test_permutation_equivariance(self):
        g = random_connected_graph(9, 15, 0.25)
        rng = np.random.default_rng(0)
        perm = rng.permutation(g.n)
        relabeled = build_graph(
            [(perm[u], perm[v]) for u in range(g.n) for v in g.neighbors(u) if u < v],
            g.n,
        )
        d, dp = shell_decompose(g), shell_decompose(relabeled)
        assert d.l_max == dp.l_max
        for shell, shell_p in zip(d.shells, dp.shells):
            mapped = {(int(perm[i]), int(perm[j])) for i, j in entries(shell)}
            assert mapped == entries(shell_p)


class TestNormalizeShell:
    def test_empty_shell_becomes_identity(self):
        empty = sp.csr_array(([], ([], [])), shape=(2, 2))
        assert np.array_equal(normalize_shell(empty).toarray(), np.eye(2))

    def test_single_edge_shell(self):
        t = shell_decompose(complete_graph(2)).shells[0]
        assert np.allclose(normalize_shell(t).toarray(), np.full((2, 2), 0.5))

    def test_path_first_shell_hand_values(self):
        t1 = shell_decompose(path_graph(3)).shells[0]
        got = normalize_shell(t1).toarray()
        assert got[0, 1] == pytest.approx(1.0 / np.sqrt(6.0), abs=1e-15)
        assert np.allclose(np.diag(got), [0.5, 1.0 / 3.0, 0.5])

    def test_asymmetric_input_rejected(self):
        with pytest.raises(InputError):
            normalize_shell(sp.csr_array(([1.0], ([0], [1])), shape=(2, 2)))

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(InputError):
            normalize_shell(sp.eye_array(2, format="csr"))

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetric_and_spectral_radius_bounded(self, seed):
        g = random_connected_graph(seed + 20, 20, 0.2)
        for shell in shell_decompose(g).shells:
            dense = normalize_shell(shell).toarray()
            assert np.max(np.abs(dense - dense.T)) < 1e-12
            # power iteration for the dominant eigenvalue
            v = np.random.default_rng(0).standard_normal(g.n)
            for _ in range(400):
                v = dense @ v
                v /= np.linalg.norm(v)
            top = float(v @ dense @ v)
            assert abs(top) <= 1.0 + 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_oracle(self, seed):
        g = random_connected_graph(seed + 40, 15, 0.25)
        for shell, oracle_shell in zip(shell_decompose(g).shells, dense_shells(g)):
            got = normalize_shell(shell).toarray()
            assert np.max(np.abs(got - dense_sym_norm(oracle_shell))) < 1e-12


class TestPprCoefficients:
    def test_alpha_two(self):
        assert np.allclose(ppr_coefficients(2, 3), [0.5, 0.25, 0.125])
        assert ppr_coefficients(2, 3)[2] == 0.125  # exact powers of two

    def test_alpha_ten(self):
        assert ppr_coefficients(10, 2) == pytest.approx([0.9, 0.81])

    def test_alpha_one_rejected(self):
        with pytest.raises(ConfigError):
            ppr_coefficients(1, 3)
        with pytest.raises(ConfigError):
            ppr_coefficients(0.5, 3)

    def test_zero_levels_give_no_coefficients(self):
        assert ppr_coefficients(2, 0).shape == (0,)
        with pytest.raises(ConfigError):
            ppr_coefficients(1, 0)

    def test_strictly_decreasing(self):
        for alpha in (1.5, 2.0, 5.0, 10.0):
            c = ppr_coefficients(alpha, 8)
            assert np.all(np.diff(c) < 0)
            assert np.all((c > 0) & (c < 1))
            assert np.allclose(c, [(1 - 1 / alpha) ** l for l in range(1, 9)])


class TestFusedPropagate:
    def test_single_shell_identity_coefficient(self):
        d = shell_decompose(complete_graph(2))
        that = normalize_shell(d.shells[0])
        shells = fuse_shells(d, 2.0).normalized_shells
        p = FusedPropagator(2, shells, np.array([1.0]), 2.0)
        assert np.allclose(fused_propagate(p, np.eye(2)), that.toarray())

    def test_path_alpha_two_matches_dense_oracle(self):
        g = path_graph(3)
        p = fuse_shells(shell_decompose(g), 2.0)
        got = fused_propagate(p, np.eye(3))
        assert np.max(np.abs(got - dense_fused(g, 2.0))) < 1e-12

    @pytest.mark.parametrize("alpha", [2.0, 5.0])
    def test_disconnected_graph_matches_dense_oracle(self, alpha):
        # a 4-path, a separate edge and an isolated node: the diagonal sums
        # every level up to l_max = 3, past each node's own eccentricity
        g = build_graph([(0, 1), (1, 2), (2, 3), (4, 5)], 7)
        want = dense_fused(g, alpha)
        z = np.random.default_rng(3).standard_normal((7, 4))
        got = fused_propagate(fuse_shells(shell_decompose(g), alpha), z)
        assert np.max(np.abs(got - want @ z)) < 1e-10
        merged = to_dense(fused_shell_propagator(shell_decompose(g), alpha).matrix)
        assert np.max(np.abs(merged - want)) < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_matrix_is_decayed_sum_of_normalized_shells(self, seed):
        g = random_graph(seed + 90, 16, 0.15)
        d = shell_decompose(g)
        p = fuse_shells(d, 3.0)
        want = np.zeros((g.n, g.n))
        for theta, t in zip(p.coefficients, d.shells):
            want += theta * normalize_shell(t).toarray()
        assert np.max(np.abs(to_dense(p.matrix) - want)) < 1e-15

    def test_perturbed_coefficients_change_the_operator(self):
        # full diameter gives a dense P, a 3-hop cap on a 30-path a CSR one
        for g, l_cap, backend in ((path_graph(4), None, DenseMatrix), (path_graph(30), 3, sp.csr_array)):
            p = fuse_shells(shell_decompose(g, l_cap), 2.0)
            theta = p.coefficients * [1.0, 1.0, 2.0]
            q = FusedPropagator(p.n, p.normalized_shells, theta, p.alpha)
            assert isinstance(p.matrix, backend) and isinstance(q.matrix, backend)
            want = to_dense(p.matrix) + theta[2] / 2 * p.normalized_shells[2].toarray()
            assert np.allclose(to_dense(q.matrix), want, rtol=0, atol=1e-15)

    def test_shells_must_come_from_fuse_shells_one_per_coefficient(self):
        p = fuse_shells(shell_decompose(path_graph(4)), 2.0)
        with pytest.raises(InputError):
            FusedPropagator(p.n, p.normalized_shells, p.coefficients[:2], p.alpha)
        with pytest.raises(InputError):
            FusedPropagator(p.n, tuple(p.normalized_shells), p.coefficients, p.alpha)

    def test_edgeless_graph_fuses_to_zero(self):
        d = shell_decompose(build_graph([], 4))
        assert not to_dense(fuse_shells(d, 2.0).matrix).any()
        with pytest.raises(ConfigError):
            fuse_shells(d, 1.0)

    def test_zero_input(self):
        p = fuse_shells(shell_decompose(path_graph(4)), 2.0)
        assert np.array_equal(fused_propagate(p, np.zeros((4, 3))), np.zeros((4, 3)))

    def test_shape_mismatch(self):
        p = fuse_shells(shell_decompose(path_graph(4)), 2.0)
        with pytest.raises(InputError):
            fused_propagate(p, np.zeros((5, 2)))

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_explicit_dense_product(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(seed + 60, 20, 0.2)
        p = fuse_shells(shell_decompose(g), 5.0)
        z = rng.standard_normal((20, 7))
        assert np.max(np.abs(fused_propagate(p, z) - dense_fused(g, 5.0) @ z)) < 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(1)
        g = random_connected_graph(70, 18, 0.2)
        p = fuse_shells(shell_decompose(g), 2.0)
        z1, z2 = rng.standard_normal((2, 18, 5))
        a, b = 0.7, -2.3
        lhs = fused_propagate(p, a * z1 + b * z2)
        rhs = a * fused_propagate(p, z1) + b * fused_propagate(p, z2)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_permutation_equivariance(self):
        g = random_connected_graph(71, 12, 0.3)
        rng = np.random.default_rng(2)
        perm = rng.permutation(g.n)
        relabeled = build_graph(
            [(perm[u], perm[v]) for u in range(g.n) for v in g.neighbors(u) if u < v],
            g.n,
        )
        z = rng.standard_normal((g.n, 4))
        out = fused_propagate(fuse_shells(shell_decompose(g), 2.0), z)
        zp = np.empty_like(z)
        zp[perm] = z
        outp = fused_propagate(fuse_shells(shell_decompose(relabeled), 2.0), zp)
        assert np.max(np.abs(outp[perm] - out)) < 1e-12



class TestOperatorBackend:
    """P is dense when 8 n**2 <= 16 nnz + 8 (n + 1), else CSR."""

    def test_connected_full_diameter_is_dense(self):
        g = random_connected_graph(4, 40, 0.1)
        p = fuse_shells(shell_decompose(g), 3.0).matrix
        assert isinstance(p, DenseMatrix)
        assert p.nnz == g.n * g.n
        assert np.max(np.abs(p.to_dense() - dense_fused(g, 3.0))) < 1e-15
        assert np.array_equal(p.diagonal(), np.diag(p.to_dense()))

    def test_one_hop_cap_on_a_sparse_graph_is_csr(self):
        g = path_graph(20)
        p = fuse_shells(shell_decompose(g, 1), 2.0).matrix
        assert isinstance(p, sp.csr_array)
        assert p.nnz == g.n + 2 * g.edge_count
        assert np.max(np.abs(p.toarray() - dense_fused(g, 2.0, l_cap=1))) < 1e-15

    @pytest.mark.parametrize(
        "edges, backend",
        [
            # three 4-paths: 48 stored pairs of 144, CSR is smaller
            ([(i, i + 1) for i in range(11) if i % 4 != 3], sp.csr_array),
            # a 9-path and three isolated nodes: 84 of 144, dense is smaller
            ([(i, i + 1) for i in range(8)], DenseMatrix),
        ],
        # stable case ids, from when the CSR carrier was a SparseMatrix class
        ids=["edges0-SparseMatrix", "edges1-DenseMatrix"],
    )
    def test_disconnected_graph_is_decided_by_its_fill(self, edges, backend):
        g = build_graph(edges, 12)
        p = fuse_shells(shell_decompose(g), 2.0)
        assert isinstance(p.matrix, backend)
        want = dense_fused(g, 2.0)
        assert np.max(np.abs(to_dense(p.matrix) - want)) < 1e-15
        z = np.random.default_rng(5).standard_normal((12, 3))
        assert np.max(np.abs(fused_propagate(p, z) - want @ z)) < 1e-14

    def test_dense_values_are_read_only_and_replace_shows_through(self):
        g = random_connected_graph(8, 15, 0.2)
        p = fuse_shells(shell_decompose(g), 2.0).matrix
        assert isinstance(p, DenseMatrix)
        with pytest.raises(ValueError):
            p.values[0, 0] = 1.0
        copy = p.to_dense()
        copy[0, 0] = -1.0
        assert p.values[0, 0] > 0
        scaled = dataclasses.replace(p, values=p.values * 2.0)
        assert np.array_equal(scaled.to_dense(), 2.0 * p.to_dense())
        assert not scaled.values.flags.writeable


class TestReadOnlyCsr:
    """Every sparse builder returns a csr_array with int64, read-only buffers."""

    def test_every_sparse_builder(self):
        g = path_graph(30)
        d = shell_decompose(g)
        sym = sym_norm_propagator(g)
        built = {
            "binary shell": d.shells[1],
            "adjacency_matrix": adjacency_matrix(g),
            "normalize_shell": normalize_shell(d.shells[1]),
            "sym": sym.matrix,
            "rw": rw_norm_propagator(g).matrix,
            "residual": residual_propagator(sym, 0.5).matrix,
            "capped fused": fuse_shells(shell_decompose(g, 3), 2.0).matrix,
            "shell_union": shell_union(d),
            "cumulative_matrix": cumulative_matrix(g, 2),
        }
        for name, m in built.items():
            assert type(m) is sp.csr_array, name
            assert m.indices.dtype == np.int64 and m.indptr.dtype == np.int64, name
            for buffer in (m.data, m.indices, m.indptr):
                assert not buffer.flags.writeable, name
                with pytest.raises(ValueError):
                    buffer[0] = buffer[0]


class TestShellSummaries:
    def test_profile_path(self):
        d = shell_decompose(path_graph(3))
        assert shell_degree_profile(d) == pytest.approx([4 / 3, 2 / 3])

    def test_profile_triangle(self):
        assert shell_degree_profile(shell_decompose(complete_graph(3))) == [2.0]

    def test_profile_star(self):
        assert shell_degree_profile(shell_decompose(star_graph(3))) == [1.5, 1.5]

    def test_union_covers_reachable_pairs(self):
        g = random_connected_graph(80, 30, 0.15)
        union = shell_union(shell_decompose(g))
        assert union.nnz == g.n * (g.n - 1)
        assert float(union.data.sum()) == g.n * (g.n - 1)

    def test_report_fields(self):
        report = shell_report(path_graph(3))
        assert report == {
            "n": 3,
            "l_max": 2,
            "shell_sizes": [4, 2],
            "avg_degree_per_layer": pytest.approx([4 / 3, 2 / 3]),
            "diameter": 2,
        }

    def test_report_cap_keeps_true_diameter(self):
        report = shell_report(path_graph(5), l_cap=1)
        assert report["l_max"] == 1
        assert len(report["shell_sizes"]) == 1
        assert report["diameter"] == 4
