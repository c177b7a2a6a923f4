import dataclasses
import functools
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from shellprop import (
    ConfigError,
    DenseMatrix,
    FusedPropagator,
    InputError,
    ResourceError,
    ShellDecomposition,
    SparseGraph,
    adjacency_matrix,
    build_graph,
    cumulative_matrix,
    fuse_shells,
    fused_propagate,
    fused_shell_propagator,
    ppr_coefficients,
    residual_propagator,
    rw_norm_propagator,
    shell_decompose,
    shell_degree_profile,
    shell_report,
    shell_union,
    sym_norm_propagator,
)

from shellprop.graph import _bfs_blocks, stores_dense
from shellprop.shells import _csr_bytes, _DistanceShells, _distance_bytes

from helpers import (
    BIG,
    assert_peak_within_checks,
    bag_of_words,
    complete_graph,
    component_graphs,
    dense_adjacency,
    dense_fused,
    dense_shells,
    dense_sym_norm,
    fake_physical_memory,
    floyd_warshall,
    path_graph,
    random_connected_graph,
    random_graph,
    random_tree,
    reference_fill,
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

    @pytest.mark.parametrize("build, need", [
        # a star of 501 nodes at 2 hops, the largest check: a dense uint8
        # record and a bool mask of its cells, 2 bytes a cell; 16 bytes for
        # each of the e pairs and diagonal entries; 8 n (2 + 3) of row
        # counts, each row's count and the row pointers
        (lambda: cumulative_matrix(star_graph(500), 2), lambda e: 2 * 501**2 + 16 * e + 8 * 501 * 5 + 16),
        # a 600-node tree at 3 hops: a CSR record of e + 600 entries, uint8
        # levels, int64 columns and a bool mask, 10 bytes an entry; 16 bytes
        # for each of the e pairs; 8 n (3 + 3)
        (
            lambda: shell_union(shell_decompose(random_tree(7, 600), 3)),
            lambda e: 10 * (e + 600) + 16 * e + 8 * 600 * 6 + 16,
        ),
    ], ids=["dense-record", "csr-record"])
    def test_pattern_is_read_once_within_its_check(self, build, need):
        # the pattern is checked last, beside its record, before it is made
        build()
        pattern, needs = assert_peak_within_checks(("graph", "shells"), build)
        assert needs[-1] == need(pattern.nnz)


@pytest.mark.parametrize("normalized", [False, True], ids=["binary", "normalized"])
@pytest.mark.parametrize("cap", [None, 3], ids=["dense-record", "csr-record"])
class TestShellRead:
    """Reading one shell is checked before it is built: the record and its
    row counts, a 1-byte mask of the record's cells (two for a CSR record's
    level and diagonal), 16 bytes for each of the shell's e entries, or 24
    for That_l, which gathers r[j], and 8 n (L + 3) of row counts, each
    row's count and the row pointers."""

    @staticmethod
    def largest_level(cap, normalized):
        d = shell_decompose(random_tree(7, 300), cap)
        assert sp.issparse(d.shells.distances) == (cap is not None)
        shells = fuse_shells(d, 2.0).normalized_shells if normalized else d.shells
        return shells, int(np.argmax(d.shell_sizes))

    @staticmethod
    def need(shells, e, normalized):
        levels, csr = shells.distances, sp.issparse(shells.distances)
        cells = levels.nnz if csr else 300**2
        mask = 1 + (csr and normalized)
        return (1 + mask + 8 * csr) * cells + (16 + 8 * normalized) * e + 8 * 300 * (len(shells) + 3) + 16

    def test_peak_is_within_the_check(self, cap, normalized):
        shells, level = self.largest_level(cap, normalized)
        shells[level]
        t, needs = assert_peak_within_checks(("graph", "shells"), lambda: shells[level])
        assert needs == [self.need(shells, t.nnz, normalized)]

    def test_refusal_names_the_figure(self, cap, normalized, monkeypatch):
        shells, level = self.largest_level(cap, normalized)
        need = self.need(shells, shells[level].nnz, normalized)
        monkeypatch.setattr("shellprop.shells.require_memory", refuse_above(need - 1))
        with pytest.raises(ResourceError, match=f"pattern of .* pairs of 300 nodes, about {need} bytes"):
            shells[level]


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
        assert len(d.shells) == 0 and d.shells[:] == ()

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


def normalized_shells(d: ShellDecomposition):
    """The That_l of a decomposition, as its fused operator reads them."""
    return fuse_shells(d, 2.0).normalized_shells


class TestNormalizedShell:
    def test_empty_shell_becomes_identity(self):
        empty = sp.csr_array(([], ([], [])), shape=(2, 2))
        d = ShellDecomposition(2, (empty,), 1, (0,))
        assert np.array_equal(normalized_shells(d)[0].toarray(), np.eye(2))

    def test_single_edge_shell(self):
        that = normalized_shells(shell_decompose(complete_graph(2)))[0]
        assert np.allclose(that.toarray(), np.full((2, 2), 0.5))

    def test_path_first_shell_hand_values(self):
        got = normalized_shells(shell_decompose(path_graph(3)))[0].toarray()
        assert got[0, 1] == pytest.approx(1.0 / np.sqrt(6.0), abs=1e-15)
        assert np.allclose(np.diag(got), [0.5, 1.0 / 3.0, 0.5])

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetric_and_spectral_radius_bounded(self, seed):
        g = random_connected_graph(seed + 20, 20, 0.2)
        for that in normalized_shells(shell_decompose(g)):
            dense = that.toarray()
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
        for that, oracle_shell in zip(normalized_shells(shell_decompose(g)), dense_shells(g)):
            got = that.toarray()
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
        that = dense_sym_norm(d.shells[0].toarray())
        shells = fuse_shells(d, 2.0).normalized_shells
        p = FusedPropagator(2, shells, np.array([1.0]), 2.0)
        assert np.allclose(fused_propagate(p, np.eye(2)), that)

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
            want += theta * dense_sym_norm(t.toarray())
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


def built_csr() -> dict[str, sp.csr_array]:
    """Each csr_array the library builds, by name, on a 30-node path: its
    full-diameter record is dense and its record at 3 hops CSR."""
    g = path_graph(30)
    d, capped = shell_decompose(g), shell_decompose(g, 3)
    sym = sym_norm_propagator(g)
    return {
        "binary shell": d.shells[1],
        "adjacency_matrix": adjacency_matrix(g),
        "normalized shell": fuse_shells(d, 2.0).normalized_shells[1],
        "capped normalized shell": fuse_shells(capped, 2.0).normalized_shells[1],
        "sym": sym.matrix,
        "rw": rw_norm_propagator(g).matrix,
        "residual": residual_propagator(sym, 0.5).matrix,
        "capped record": capped.shells.distances,
        "capped fused": fuse_shells(capped, 2.0).matrix,
        "shell_union": shell_union(d),
        "capped shell_union": shell_union(capped),
        "cumulative_matrix": cumulative_matrix(g, 2),
        "feature_matrix": bag_of_words(1).feature_matrix,
    }


def columns_ascend(m: sp.csr_array) -> bool:
    """Whether each row of ``m`` lists its columns in strictly increasing
    order, read off its buffers as stored."""
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    return bool(np.all((np.diff(rows) > 0) | (np.diff(m.indices) > 0)))


class TestReadOnlyCsr:
    """Every sparse builder returns a canonical csr_array with int64,
    read-only buffers."""

    def test_every_sparse_builder(self):
        for name, m in built_csr().items():
            assert type(m) is sp.csr_array, name
            assert m.indices.dtype == np.int64 and m.indptr.dtype == np.int64, name
            for buffer in (m.data, m.indices, m.indptr):
                assert not buffer.flags.writeable, name
                with pytest.raises(ValueError):
                    buffer[0] = buffer[0]

    def test_every_csr_lists_each_rows_columns_in_order(self):
        for name, m in built_csr().items():
            assert columns_ascend(m), name

    def test_the_read_only_record_compares_in_place(self):
        # scipy sorts a comparison's operand first unless its rows are
        # canonical, which a read-only record could not allow
        record = shell_decompose(random_tree(7, 600), 3).shells.distances
        assert isinstance(record, sp.csr_array)
        reached = record > 0
        assert np.array_equal(reached.toarray(), record.toarray() > 0)
        assert reached.nnz == record.nnz - 600


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


def tuple_backed(d: ShellDecomposition) -> ShellDecomposition:
    return ShellDecomposition(d.n, tuple(d.shells), d.l_max, d.shell_sizes)


class TestDistanceShells:
    """A decomposition is one record of hop levels in P's carrier, a
    distance matrix or a CSR array of levels, and the shells are built from
    it on each read."""

    @given(
        g=component_graphs(),
        alpha=st.sampled_from([1.5, 2.0, 5.0]),
        l_cap=st.sampled_from([None, 1, 2, 3]),
    )
    @settings(max_examples=80, deadline=None)
    def test_operator_is_that_of_the_shells_bit_for_bit(self, g, alpha, l_cap):
        d = shell_decompose(g, l_cap)
        p = fuse_shells(d, alpha).matrix
        dense = stores_dense((g.n, g.n), g.n + sum(d.shell_sizes))
        assert isinstance(p, DenseMatrix if dense else sp.csr_array)
        # the record's carrier is P's carrier
        assert isinstance(d.shells.distances, np.ndarray if dense else sp.csr_array)
        assert np.array_equal(to_dense(fuse_shells(tuple_backed(d), alpha).matrix), to_dense(p))
        # theta_l * That_l adds the same products in the same order
        want = np.zeros((g.n, g.n))
        for theta, t in zip(ppr_coefficients(alpha, d.l_max), d.shells):
            want += theta * dense_sym_norm(t.toarray())
        assert np.array_equal(to_dense(p), want)
        # the oracle's (1 - 1/alpha)**l may differ from ppr_coefficients' in
        # the last bit, except for the exact powers of alpha = 2
        if alpha == 2.0:
            assert np.array_equal(to_dense(p), dense_fused(g, alpha, l_cap))
        assert np.max(np.abs(to_dense(p) - dense_fused(g, alpha, l_cap)), initial=0) < 1e-15

    @given(
        g=component_graphs(),
        alpha=st.sampled_from([1.5, 2.0, 5.0]),
        l_cap=st.sampled_from([None, 1, 2, 3]),
        fill_rows=st.sampled_from([1, 3, 256]),
    )
    @settings(max_examples=80, deadline=None)
    def test_fill_is_the_entry_by_entry_rule_bit_for_bit(self, g, alpha, l_cap, fill_rows):
        # a dense P fills the tiles on and right of its diagonal and mirrors
        # them, a CSR P fills every entry; blocks of 1 or 3 rows end on empty
        # rows and lone nodes in both carriers
        d = shell_decompose(g, l_cap)
        with mock.patch("shellprop.shells._FILL_ROWS", fill_rows):
            p = fuse_shells(d, alpha).matrix
        assert np.array_equal(to_dense(p), reference_fill(g, ppr_coefficients(alpha, d.l_max), l_cap))
        if isinstance(p, DenseMatrix):
            assert np.array_equal(p.values, p.values.T)

    @given(g=component_graphs(), l_cap=st.sampled_from([None, 1, 2, 3]))
    @settings(max_examples=60, deadline=None)
    def test_fill_within_its_check(self, g, l_cap):
        # fusing checks the figure the record's stream ends on, which counts
        # the record, P and the fill's temporaries
        d = shell_decompose(g, l_cap)
        fuse_shells(d, 2.0)
        p, needs = assert_peak_within_checks(("shells",), lambda: fuse_shells(d, 2.0).matrix)
        pairs = sum(d.shell_sizes)
        assert needs == [_csr_bytes(g.n, d.l_max, pairs) if sp.issparse(p) else _distance_bytes(g.n, d.l_max)]

    @given(g=component_graphs(), l_cap=st.sampled_from([None, 1, 2, 3]))
    @settings(max_examples=60, deadline=None)
    def test_shells_are_the_oracle_shells_by_index_and_slice(self, g, l_cap):
        d = shell_decompose(g, l_cap)
        want = dense_shells(g)[:l_cap]
        assert len(d.shells) == d.l_max == len(want)
        assert d.shell_sizes == tuple(int(w.sum()) for w in want)
        for level in range(-d.l_max, d.l_max):
            shell = d.shells[level]
            assert shell.has_canonical_format and not shell.data.flags.writeable
            assert np.array_equal(shell.toarray(), want[level])
        for part in (slice(None), slice(1, None, 2), slice(None, -1), slice(-2, None)):
            got = d.shells[part]
            assert isinstance(got, tuple) and len(got) == len(want[part])
            assert all(np.array_equal(t.toarray(), w) for t, w in zip(got, want[part]))
        with pytest.raises(IndexError):
            d.shells[d.l_max]

    def test_lone_nodes_count_toward_a_dense_carrier(self):
        # an 8-path and 4 isolated nodes: 68 of 144 entries are stored, and
        # 8 * 144 <= 16 * 68 + 8 * 13 makes P dense; the path alone would not
        g = build_graph([(i, i + 1) for i in range(7)], 12)
        d = shell_decompose(g)
        assert not isinstance(d.shells, tuple)
        assert np.array_equal(fuse_shells(d, 2.0).matrix.values, dense_fused(g, 2.0))

    def test_path_past_255_levels_widens_the_distances(self):
        g = path_graph(300)
        d = shell_decompose(g)
        assert d.l_max == 299 and d.shells.distances.dtype == np.uint16
        assert entries(d.shells[-1]) == {(0, 299), (299, 0)}
        assert d.shell_sizes == tuple(2 * (300 - level) for level in range(1, 300))
        p = fuse_shells(d, 2.0).matrix
        assert np.array_equal(p.values, fuse_shells(tuple_backed(d), 2.0).matrix.values)
        assert np.array_equal(p.values, dense_fused(g, 2.0))

    def test_switch_in_a_later_bfs_block_gives_the_oracle_bit_for_bit(self):
        # at cap 88 a 300-path's P turns dense at level 79 of its second BFS
        # block, sources 256-299, after 44528 pairs were kept as CSR
        g = path_graph(300)
        d = shell_decompose(g, 88)
        assert d.shells.distances.dtype == np.uint8
        assert np.array_equal(fuse_shells(d, 2.0).matrix.values, dense_fused(g, 2.0, 88))

    def test_replacing_the_shells_gives_a_record(self):
        g = random_connected_graph(5, 30, 0.15)
        d = shell_decompose(g)
        dropped = dataclasses.replace(
            d, shells=d.shells[:-1], l_max=d.l_max - 1, shell_sizes=d.shell_sizes[:-1]
        )
        assert isinstance(dropped.shells, _DistanceShells) and len(dropped.shells) == d.l_max - 1
        p = fuse_shells(dropped, 2.0).matrix
        assert np.array_equal(p.values, dense_fused(g, 2.0, l_cap=d.l_max - 1))

    def test_holds_distances_not_pairs(self):
        # the binary shells would hold 16 bytes a pair, 5.76 MB here
        g = random_tree(7, 600)
        shell_decompose(g)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            d = shell_decompose(g)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert d.shell_sizes and sum(d.shell_sizes) == 600 * 599
        assert held <= 600**2 + 8 * 600 * (d.l_max + 2) + 16384

    def test_capped_record_holds_levels_and_its_check_bounds_the_fill(self, monkeypatch):
        # at cap 3 P is CSR: the record holds an int64 column and a uint8
        # level a pair, where the binary shells held 16 bytes
        g = random_tree(7, 600)
        fuse_shells(shell_decompose(g, 3), 2.0)
        needs = {}
        for module in ("graph", "shells"):
            monkeypatch.setattr(
                f"shellprop.{module}.require_memory", lambda need, what, m=module: needs.update({m: need})
            )
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            d = shell_decompose(g, 3)
            held = tracemalloc.get_traced_memory()[0] - before
            decompose_peak = tracemalloc.get_traced_memory()[1] - before
            tracemalloc.reset_peak()
            fuse_shells(d, 2.0)
            fill_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        pairs = sum(d.shell_sizes)
        # and so does each row's diagonal, which leads the row
        assert held <= 9 * (600 + pairs) + 8 * 600 * d.l_max + 16384
        # the last check of the stream counts the record, the CSR P and the
        # fill's temporaries; while the stream runs, the BFS block, checked
        # on its own, is held too
        assert fill_peak <= needs["shells"] + 16384
        assert decompose_peak <= needs["shells"] + needs["graph"] + 16384
        assert isinstance(d.shells.distances, sp.csr_array) and d.shells.distances.data.dtype == np.uint8


    @pytest.mark.parametrize("g, l_cap", [
        (path_graph(20), 1),
        (random_tree(7, 600), 3),
        (build_graph([(0, 1), (3, 4)], 6), None),
    ], ids=["path-20-cap-1", "tree-600-cap-3", "two-edges-two-lone-nodes"])
    def test_csr_p_shares_the_records_structure(self, g, l_cap):
        d = shell_decompose(g, l_cap)
        record, p = d.shells.distances, fuse_shells(d, 2.0).matrix
        assert isinstance(record, sp.csr_array) and isinstance(p, sp.csr_array)
        assert np.shares_memory(p.indices, record.indices)
        assert np.shares_memory(p.indptr, record.indptr)
        # every record row lists its columns in order, its diagonal among
        # them at level 0, as P's does
        assert columns_ascend(record)
        rows = np.repeat(np.arange(g.n), np.diff(record.indptr))
        assert np.array_equal(record.indices[record.data == 0], np.arange(g.n))
        assert np.array_equal(rows[record.data == 0], np.arange(g.n))

    def test_capped_propagator_holds_only_values_beyond_its_record(self):
        # P's columns and row pointers are the record's, so fusing adds 8
        # bytes an entry, P's values, where a copy of the columns took 16
        g = random_tree(7, 600)
        fuse_shells(shell_decompose(g, 3), 2.0)
        d = shell_decompose(g, 3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            p = fuse_shells(d, 2.0).matrix
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert isinstance(p, sp.csr_array)
        assert held <= 8 * p.nnz + 16384


def assert_same_csr(got: sp.csr_array, want: sp.csr_array) -> None:
    for mine, theirs in ((got.data, want.data), (got.indices, want.indices), (got.indptr, want.indptr)):
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)


def oracle_pattern(mask: np.ndarray) -> sp.csr_array:
    """The canonical binary float64 CSR array, int64 indices, of ``mask``."""
    rows, cols = np.nonzero(mask)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=len(mask)))])
    return sp.csr_array((np.ones(len(cols)), cols.astype(np.int64), indptr.astype(np.int64)), shape=mask.shape)


class TestOneRecord:
    """Every decomposition holds one record of hop levels, also one given
    as shells, and the shells' union is read off that record's pattern."""

    @given(
        g=component_graphs(),
        l_cap=st.sampled_from([None, 1, 2, 3]),
        dense=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_union_and_cumulative_are_the_oracles_and_build_no_shell(self, g, l_cap, dense):
        # the record's carrier is forced either way, so both are read
        reads, real = [], _DistanceShells.__getitem__
        with mock.patch("shellprop.shells.stores_dense", lambda shape, nnz: dense), mock.patch.object(
            _DistanceShells, "__getitem__", lambda shells, l: reads.append(l) or real(shells, l)
        ):
            d = shell_decompose(g, l_cap)
            assert isinstance(d.shells.distances, np.ndarray if dense else sp.csr_array)
            union, within = shell_union(d), cumulative_matrix(g, l_cap or g.n)
        assert reads == []
        dist = floyd_warshall(g)
        reached = (dist < BIG) & (dist <= (l_cap or g.n))
        assert_same_csr(union, oracle_pattern(reached & (dist > 0)))
        assert_same_csr(within, oracle_pattern(reached))

    @given(g=component_graphs(), l_cap=st.sampled_from([None, 1, 2, 3]))
    @settings(max_examples=60, deadline=None)
    def test_given_shells_are_recorded_once(self, g, l_cap):
        d = shell_decompose(g, l_cap)
        given = {"tuple": (tuple_backed(d), d)}
        if d.l_max >= 2:
            dropped = dataclasses.replace(
                d, shells=d.shells[:-1], l_max=d.l_max - 1, shell_sizes=d.shell_sizes[:-1]
            )
            given["replace"] = dropped, shell_decompose(g, d.l_max - 1)
        for name, (mine, want) in given.items():
            assert isinstance(mine.shells, _DistanceShells), name
            # one block of all rows, level by level, is the stream's record
            if sp.issparse(want.shells.distances):
                assert_same_csr(mine.shells.distances, want.shells.distances)
            else:
                got = mine.shells.distances
                assert got.dtype == want.shells.distances.dtype and np.array_equal(got, want.shells.distances)
            assert len(mine.shells) == len(want.shells)
            for t, w in zip(mine.shells, want.shells):
                assert_same_csr(t, w)

    def test_one_empty_shell_is_recorded(self):
        empty = sp.csr_array(([], ([], [])), shape=(5, 5))
        d = ShellDecomposition(5, (empty,), 1, (0,))
        assert isinstance(d.shells, _DistanceShells) and len(d.shells) == 1
        assert d.shells[0].nnz == 0 and d.shells[0].shape == (5, 5)
        assert np.array_equal(to_dense(fuse_shells(d, 2.0).matrix), np.eye(5) / 2)


def oracle_record(g: SparseGraph, l_cap: int | None):
    """The record of hop levels by its rule, from Floyd-Warshall: an n x n
    distance matrix in the narrowest unsigned type of its levels when
    ``stores_dense`` makes P dense, else canonical CSR rows of its pairs and
    each row's diagonal, at level 0; and each level's row counts."""
    d = floyd_warshall(g)
    d[(d >= BIG) | (d > (l_cap or g.n))] = 0
    top = int(d.max())
    counts = [np.count_nonzero(d == level, axis=1) for level in range(1, top + 1)]
    levels = d.astype(np.min_scalar_type(top))
    if stores_dense((g.n, g.n), g.n + int(np.count_nonzero(d))):
        return levels, counts
    rows, cols = np.nonzero((d > 0) | np.eye(g.n, dtype=bool))
    offsets = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=g.n))])
    return sp.csr_array((levels[rows, cols], cols, offsets)), counts


class TestRecordByBlock:
    """A BFS block whose own pairs make its rows dense by P's byte rule
    comes as one slab of levels, any other level by level; the record is
    the same either way."""

    @given(
        g=component_graphs(max_nodes=150),
        block_size=st.sampled_from([1, 3, 64, 256]),
        l_cap=st.sampled_from([None, 1, 2, 3]),
    )
    @settings(max_examples=80, deadline=None)
    def test_record_is_that_of_its_rule_at_any_block_size(self, g, block_size, l_cap):
        blocks = functools.partial(_bfs_blocks, block_size=block_size)
        with mock.patch("shellprop.shells._bfs_blocks", blocks):
            d = shell_decompose(g, l_cap)
        want, counts = oracle_record(g, l_cap)
        got = d.shells.distances
        assert type(got) is type(want) and got.dtype == want.dtype
        if sp.issparse(want):
            for mine, theirs in ((got.data, want.data), (got.indices, want.indices), (got.indptr, want.indptr)):
                assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
        else:
            assert np.array_equal(got, want)
        assert len(d.shells.row_counts) == len(counts)
        for mine, theirs in zip(d.shells.row_counts, counts):
            assert mine.dtype == np.int64 and np.array_equal(mine, theirs)

    def test_hand_built_sparse_shells_keep_no_slab(self):
        # a 20,000-node path at cap 2, its two shells built by hand: the one
        # record builder reads them level by level, so its largest check is
        # the CSR record's, and no n x n or block-wide array is made
        n = 20000
        shells = tuple(
            adjacency_matrix(build_graph([(i, i + hop) for i in range(n - hop)], n)) for hop in (1, 2)
        )

        def build():
            # the record is made on construction
            d = ShellDecomposition(n, shells, 2, tuple(t.nnz for t in shells))
            return fuse_shells(d, 2.0).matrix

        build()
        p, needs = assert_peak_within_checks(("graph", "shells"), build)
        assert sp.issparse(p) and max(needs) == _csr_bytes(n, 2, 4 * n - 6)
        assert max(needs) < _distance_bytes(n, 2)
        want = fuse_shells(shell_decompose(path_graph(n), 2), 2.0).matrix
        for mine, theirs in ((p.data, want.data), (p.indices, want.indices), (p.indptr, want.indptr)):
            assert np.array_equal(mine, theirs)


def spider_graph(arm: int) -> SparseGraph:
    """Four paths of ``arm`` nodes from node 0, numbered outward: node
    4 (d - 1) + a + 1 lies on arm a, d hops from node 0."""
    edges = [(max(0, node - 4), node) for node in range(1, 4 * arm + 1)]
    return build_graph(edges, 4 * arm + 1)


class TestDecomposeBytes:
    """The record streams as CSR, and before each part, a block's slab or
    one level's pairs, is kept it is checked at the smaller of the two
    carriers' peaks; the moment P's byte rule makes P dense, the distance
    matrix and the dense P are checked before the matrix is allocated, and
    at every part after; a record that ends as CSR is checked at the CSR
    peak before its sort."""

    @pytest.mark.parametrize("g, levels, need", [
        # n = 300: sources 0-255 reach all 299 levels and come as one slab of
        # 76544 pairs, past the 44550 at which P turns dense; 3 n**2 of
        # distances, uint8 and widened to uint16, 8 n**2 of P, 8 n (2 * 299
        # + 3) of row counts and the fill's r table, diagonal and node ids,
        # and 24 * 256**2 of one fill tile
        (path_graph(300), 299, 270000 + 720000 + 1442400 + 1572864),
        # n = 40: level 1 stores 1560 pairs and P turns dense; a fill tile
        # of 40 x 40
        (complete_graph(40), 1, 1600 + 12800 + 1600 + 38400),
    ], ids=["path-300", "complete-40"])
    def test_dense_p_refused_where_it_turns_dense(self, monkeypatch, g, levels, need):
        # the distance matrix is the one n x n array that shells' np.zeros
        # makes; a block's slab of all 40 rows is made in graph
        shapes, real_zeros = [], np.zeros

        def zeros(shape, *args, **kwargs):
            if sys._getframe(1).f_globals["__name__"] == "shellprop.shells":
                shapes.append(shape)
            return real_zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", zeros)
        shell_decompose(g)
        assert (g.n, g.n) in shapes
        shapes.clear()
        # every check before the switch, and the BFS block's, fits below it
        fake_physical_memory(monkeypatch, (need - 1) // 4096 * 4096)
        message = f"dense P of {g.n} nodes .* at {levels} levels, about {need} bytes"
        with pytest.raises(ResourceError, match=message):
            shell_decompose(g)
        assert (g.n, g.n) not in shapes

    def test_dense_path_refused_where_the_distances_widen(self, monkeypatch):
        # four 128-node arms: sources 0-255 lie within 64 hops of node 0 and
        # reach 192 levels, and their 131072 pairs make P dense in uint8,
        # checked at 5529633 bytes; sources 256-511 take in three arm tips,
        # which reach 256 levels and widen the distances to uint16: 3 n**2 of
        # distances, 8 n**2 of P, 8 n (2 * 256 + 3) of row counts and r table
        # and 24 * 256**2 of a fill tile, 6581283 bytes.  That block's own
        # slab is checked at 6592000 before it, in graph, so the record's
        # check is refused on its own
        g = spider_graph(128)
        d = shell_decompose(g)
        assert d.l_max == 256 and d.shells.distances.dtype == np.uint16
        assert np.array_equal(fuse_shells(d, 2.0).matrix.values, dense_fused(g, 2.0))
        monkeypatch.setattr("shellprop.shells.require_memory", refuse_above(6581282))
        with pytest.raises(ResourceError, match="at 256 levels, about 6581283 bytes"):
            shell_decompose(g)

    def test_capped_shells_refused_mid_stream(self, monkeypatch):
        # a 1000-path at cap 30 passes the BFS blocks' checks (at most 973 kB); its
        # sources 0-255 store 512 - l pairs at level l, sources 256-767 512
        # and sources 768-999 464 - l.  With 30 levels found, 41 bytes an
        # entry (the pairs and 1000 diagonal entries, all in one fill block)
        # and 8 n (2 * 30 + 4) of row counts, r table, node ids and row
        # pointers pass 2465792 bytes at level 3 of the fourth block:
        # 41 * (1000 + 14895 + 2 * 15360 + 463 + 462 + 461) + 512000
        fake_physical_memory(monkeypatch, 602 * 4096)
        with pytest.raises(ResourceError, match=r"store 47001 pairs, about 2480041 bytes"):
            shell_decompose(path_graph(1000), 30)

    def test_capped_p_turning_dense_mid_stream_is_checked_as_dense(self):
        # a 1500-node random graph at cap 6, with 1830332 pairs: P turns
        # dense in its fourth BFS block, sources 768-1023, once 1122750 are
        # stored.  No check asks more than the distance matrix and the dense
        # P it fills, and that figure bounds the peak of decomposing and
        # fusing
        g = random_graph(1, 1500, 4 / 1500)
        fuse_shells(shell_decompose(g, 6), 2.0)

        def run():
            d = shell_decompose(g, 6)
            return d, fuse_shells(d, 2.0).matrix

        (d, p), needs = assert_peak_within_checks(("graph", "shells"), run)
        assert d.l_max == 6 and sum(d.shell_sizes) == 1830332
        assert isinstance(d.shells.distances, np.ndarray) and isinstance(p, DenseMatrix)
        assert max(needs) <= _distance_bytes(g.n, 6)

    @pytest.mark.parametrize("g, apart", [
        (random_graph(1, 1200, 6 / 1200), False),
        (spider_graph(128), True),
    ], ids=["random-1200", "spider-128"])
    def test_dense_record_and_fill_within_one_tile(self, g, apart):
        # the fill holds one 256 x 256 tile at a time, so the check counts
        # 24 * 256**2 bytes of it, not 24 * 256 * n, and fusing stays within
        # that figure alone.  Decomposing holds a BFS block beside the
        # record, each checked on its own: on the spider, whose 256 levels
        # need uint16, a block's slab and the record together pass either
        # figure (7.23 MB against 6.59 and 6.58 MB), so there the bound is
        # their sum
        def run():
            d = shell_decompose(g)
            return d, fuse_shells(d, 2.0).matrix

        run()
        (d, p), needs = assert_peak_within_checks(("graph", "shells"), run, apart=apart)
        assert isinstance(d.shells.distances, np.ndarray) and isinstance(p, DenseMatrix)
        _, needs = assert_peak_within_checks(("shells",), lambda: fuse_shells(d, 2.0))
        assert needs == [_distance_bytes(g.n, d.l_max)]

    def test_capped_p_staying_csr_is_checked_as_csr_before_its_sort(self, monkeypatch):
        # the same graph at cap 5 stores 1109350 pairs: P stays CSR, 1110850
        # entries against the 1124250 at which it turns dense, so every
        # stream check asks the smaller _distance_bytes(1500, 5) = 21978864.
        # Sorting the record holds 29 bytes an entry, and with 8 n (2 * 5 + 4)
        # of row counts, r table, node ids and row pointers that is 32382650
        g = random_graph(1, 1500, 4 / 1500)
        fuse_shells(shell_decompose(g, 5), 2.0)

        def run():
            d = shell_decompose(g, 5)
            return d, fuse_shells(d, 2.0).matrix

        (d, p), needs = assert_peak_within_checks(("graph", "shells"), run)
        assert sum(d.shell_sizes) == 1109350 and sp.issparse(p)
        assert max(needs) == 32382650 > _distance_bytes(g.n, 5) == 21978864
        monkeypatch.setattr("shellprop.shells.require_memory", refuse_above(31000000))
        with pytest.raises(ResourceError, match="store 1109350 pairs as CSR, about 32382650 bytes"):
            shell_decompose(g, 5)

    def test_csr_full_diameter_checks_its_pairs(self, monkeypatch):
        # 500 disjoint edges: P is CSR, and 1000 pairs at one level and the
        # 1000 diagonal entries take 41 * 2000 + 8 * 1000 * (2 + 4) = 130000
        # bytes with their P
        g = build_graph([(2 * i, 2 * i + 1) for i in range(500)], 1000)
        fake_physical_memory(monkeypatch, 10**9 // 4096 * 4096)
        assert shell_decompose(g).shell_sizes == (1000,)
        monkeypatch.setattr("shellprop.shells.require_memory", refuse_above(129999))
        with pytest.raises(ResourceError, match="store 1000 pairs, about 130000 bytes"):
            shell_decompose(g)

    def test_capped_dense_p_checked_before_the_distances(self, monkeypatch):
        # 88 is the least cap at which a 300-path's P is dense: it stores
        # 44968 pairs, more than half of P's 90000 entries.  Sources 0-255
        # store 40150 of them, which make their own rows dense, so they come
        # as one slab, kept beside the CSR stream; sources 256-299 come level
        # by level, 44528 pairs by level 78, whose check needs 41 * (300 + 44528) +
        # 8 * 300 * (2 * 88 + 4) = 2269948 bytes.  Level 79 brings 44572
        # pairs, P turns dense, and the distance matrix and the dense P need
        # _distance_bytes(300, 88) = 2812464
        monkeypatch.setattr("shellprop.shells.require_memory", refuse_above(2500000))
        with pytest.raises(ResourceError, match="dense P of 300 nodes .* at 88 levels, about 2812464 bytes"):
            fuse_shells(shell_decompose(path_graph(300), 88), 2.0)


def refuse_above(limit: int):
    """A ``require_memory`` that refuses any need above ``limit`` bytes."""
    def check(need, what):
        if need > limit:
            raise ResourceError(f"{what}, about {need} bytes, but the limit is {limit} bytes")
    return check


class TestShellReportCounts:
    @given(g=component_graphs(), cap=st.sampled_from([None, 1, 2, 3]))
    @settings(max_examples=60, deadline=None)
    def test_sizes_and_l_max_are_those_of_the_decomposition(self, g, cap):
        report, d = shell_report(g, cap), shell_decompose(g, cap)
        assert report["l_max"] == d.l_max
        assert report["shell_sizes"] == list(d.shell_sizes)
        assert report["avg_degree_per_layer"] == shell_degree_profile(d)

    def test_stores_no_pair(self, monkeypatch):
        def no_shells(*args, **kwargs):
            raise AssertionError("shells were built")

        monkeypatch.setattr("shellprop.shells.shell_decompose", no_shells)
        assert shell_report(path_graph(5), 2)["shell_sizes"] == [8, 6]
        assert shell_report(star_graph(3))["shell_sizes"] == [6, 6]

    def test_capped_report_runs_one_bfs(self, monkeypatch):
        streams = []

        def counted(*args, **kwargs):
            streams.append(args)
            return _bfs_blocks(*args, **kwargs)

        monkeypatch.setattr("shellprop.graph._bfs_blocks", counted)
        monkeypatch.setattr("shellprop.shells._bfs_blocks", counted)
        report = shell_report(path_graph(10), 2)
        assert report["shell_sizes"] == [18, 16] and report["diameter"] == 9
        assert len(streams) == 1

    def test_bad_cap(self):
        with pytest.raises(InputError):
            shell_report(path_graph(3), 0)
