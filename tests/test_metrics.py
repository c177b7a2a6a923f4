from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from shellprop import (
    adjacency_matrix,
    ConfigError,
    DenseMatrix,
    InputError,
    NumericError,
    Propagator,
    ResourceError,
    SparseGraph,
    aggregation_bounds_check,
    avg_nat,
    build_graph,
    diameter,
    fused_shell_propagator,
    raw_adjacency_propagator,
    residual_propagator,
    rw_norm_propagator,
    sas,
    sas_trajectory,
    shell_decompose,
    shell_union,
    sym_norm_propagator,
)
from shellprop.graph import as_array
from shellprop.metrics import _residual_trajectories

from helpers import (
    assert_peak_within_checks,
    complete_graph,
    component_graphs,
    dense_adjacency,
    dense_fused,
    dense_sym_norm,
    exact_walk_total,
    fake_physical_memory,
    path_graph,
    power_trajectory,
    random_connected_graph,
    random_graph,
    random_tree,
    star_graph,
    to_dense,
)


def isolated_plus_edge() -> SparseGraph:
    return build_graph([(0, 1)], 3)


class TestPropagators:
    def test_sym_norm_pair(self):
        m = sym_norm_propagator(complete_graph(2)).matrix.toarray()
        assert np.allclose(m, np.full((2, 2), 0.5))

    def test_sym_norm_isolated_node(self):
        m = sym_norm_propagator(isolated_plus_edge()).matrix.toarray()
        assert m[2, 2] == 1.0

    def test_sym_norm_path_hand_values(self):
        got = sym_norm_propagator(path_graph(3)).matrix.toarray()
        want = dense_sym_norm(dense_adjacency(path_graph(3)))
        assert np.max(np.abs(got - want)) < 1e-15

    def test_rw_norm_pair(self):
        m = rw_norm_propagator(complete_graph(2)).matrix.toarray()
        assert np.allclose(m, np.full((2, 2), 0.5))

    def test_rw_norm_star_center_row(self):
        m = rw_norm_propagator(star_graph(3)).matrix.toarray()
        assert np.allclose(m[0], [0.25, 0.25, 0.25, 0.25])

    @pytest.mark.parametrize("seed", range(4))
    def test_rw_norm_rows_stochastic(self, seed):
        g = random_connected_graph(seed, 25, 0.15)
        m = rw_norm_propagator(g).matrix.toarray()
        assert np.max(np.abs(m.sum(axis=1) - 1.0)) < 1e-12

    def test_residual_pair(self):
        p = residual_propagator(sym_norm_propagator(complete_graph(2)), 0.5)
        assert np.allclose(p.matrix.toarray(), [[0.75, 0.25], [0.25, 0.75]])

    def test_residual_preserves_symmetry(self):
        g = random_connected_graph(1, 15, 0.2)
        m = residual_propagator(sym_norm_propagator(g), 0.9).matrix.toarray()
        assert np.max(np.abs(m - m.T)) < 1e-15

    def test_residual_preserves_stochasticity(self):
        g = random_connected_graph(2, 15, 0.2)
        m = residual_propagator(rw_norm_propagator(g), 0.3).matrix.toarray()
        assert np.max(np.abs(m.sum(axis=1) - 1.0)) < 1e-12

    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.1, 1.5])
    def test_residual_beta_range(self, beta):
        with pytest.raises(ConfigError):
            residual_propagator(sym_norm_propagator(complete_graph(2)), beta)

    def test_fused_propagator_matches_dense_oracle(self):
        g = random_connected_graph(3, 18, 0.2)
        merged = to_dense(fused_shell_propagator(shell_decompose(g), 2.0).matrix)
        assert np.max(np.abs(merged - dense_fused(g, 2.0))) < 1e-12

    def test_residual_of_a_dense_fused_propagator(self):
        g = random_connected_graph(3, 18, 0.2)
        fused = fused_shell_propagator(shell_decompose(g), 2.0)
        assert isinstance(fused.matrix, DenseMatrix)
        m = residual_propagator(fused, 0.3).matrix
        assert isinstance(m, DenseMatrix)
        want = 0.3 * dense_fused(g, 2.0) + 0.7 * np.eye(g.n)
        assert np.max(np.abs(m.to_dense() - want)) < 1e-15


class TestClassicalPropagatorBits:
    """sym and rw hold, bit for bit, the dense oracles' D^-1/2 (A + I) D^-1/2
    and (A + I) / (d + 1), as canonical CSR, on every graph: connected,
    in components, with isolated nodes and edgeless."""

    @given(g=component_graphs(), lone=st.integers(0, 5), edgeless=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_sym_and_rw_are_the_dense_oracles(self, g, lone, edgeless):
        edges = [] if edgeless else [(u, v) for u in range(g.n) for v in g.neighbors(u) if u < v]
        g = build_graph(edges, g.n + lone)
        a = dense_adjacency(g)
        sym, rw = sym_norm_propagator(g).matrix, rw_norm_propagator(g).matrix
        for m in (sym, rw):
            assert type(m) is sp.csr_array and m.has_canonical_format
            assert m.indices.dtype == m.indptr.dtype == np.int64
        assert np.array_equal(sym.toarray(), dense_sym_norm(a))
        assert np.array_equal(rw.toarray(), (a + np.eye(g.n)) / (a.sum(axis=1) + 1)[:, None])


class TestClassicalPropagatorBytes:
    """The sym and rw builds peak within their byte checks, and a refusal
    names the adjacency's record before it is built."""

    @pytest.mark.parametrize("make", [sym_norm_propagator, rw_norm_propagator], ids=["sym", "rw"])
    @pytest.mark.parametrize(
        "graph",
        [
            lambda: random_graph(5, 600, 0.02),
            lambda: build_graph([(2 * i, 2 * i + 1) for i in range(5000)], 10000),
            lambda: complete_graph(60),
        ],
        ids=["random", "5000-pairs", "K60"],
    )
    def test_peak_is_within_the_checks(self, make, graph):
        g = graph()
        make(g)  # the graph builds its adjacency once, on first use
        assert_peak_within_checks(["shells"], lambda: make(g))

    def test_refusal_names_the_record(self, monkeypatch):
        # a 2100-path's 4198 pairs and 2100 diagonal entries: the fill holds
        # 41 bytes an entry, the record's 9, P's 8 and 24 of a block of rows,
        # and 8 n (2 L + 4) more at L = 1
        need = 41 * 6298 + 8 * 2100 * 6
        fake_physical_memory(monkeypatch, 50 * 4096)
        with pytest.raises(ResourceError, match=f"2100 nodes and their P store 4198 pairs, about {need} bytes"):
            sym_norm_propagator(path_graph(2100))


class TestAvgNat:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_complete_graph_one_hop(self, n):
        assert avg_nat(complete_graph(n), 1) == n - 1

    def test_path_two_hops(self):
        assert avg_nat(path_graph(3), 2) == 2.0

    def test_k2(self):
        assert avg_nat(complete_graph(2), 1) == 1.0

    def test_matches_dense_power_oracle(self):
        g = random_connected_graph(5, 20, 0.2)
        a = dense_adjacency(g)
        for depth in (1, 2, 3):
            want = np.linalg.matrix_power(a, depth).sum() / g.n
            assert avg_nat(g, depth) == pytest.approx(want, rel=1e-12)

    def test_exact_mode_agrees_with_float(self):
        g = random_connected_graph(6, 12, 0.3)
        assert avg_nat(g, 3, exact=True) == pytest.approx(avg_nat(g, 3), rel=1e-12)

    def test_shell_union_mass_is_n_minus_one(self):
        for seed in range(5):
            g = random_connected_graph(seed + 200, 30, 0.15)
            assert avg_nat(shell_union(shell_decompose(g)), 1) == float(g.n - 1)

    def test_depth_validation(self):
        with pytest.raises(InputError):
            avg_nat(complete_graph(3), 0)

    def test_walk_count_overflow_guard(self):
        g = path_graph(60)
        with pytest.raises(NumericError):
            avg_nat(g, 59)
        assert avg_nat(g, 1, exact=True) > 0  # exact mode stays available

    def test_no_node_cap(self):
        eye = sp.eye_array(2001, format="csr")
        assert avg_nat(eye, 1) == 1.0
        assert [v for _, v in sas_trajectory(eye, 3).sas_trajectory] == [1.0] * 3

    def test_exact_mode_matches_dense_object_power(self):
        for g in (random_connected_graph(7, 15, 0.4), random_tree(3, 60), path_graph(60)):
            diam = diameter(g)
            if g.n > 55:
                with pytest.raises(NumericError):
                    avg_nat(g, diam)
            totals = {depth: exact_walk_total(g, depth) for depth in (1, 2, diam)}
            for depth, total in totals.items():
                assert avg_nat(g, depth, exact=True) == float(Fraction(total, g.n))
            assert aggregation_bounds_check(g).walk_total == totals[diam]

    def test_exact_requires_binary(self):
        with pytest.raises(InputError):
            avg_nat(sp.csr_array(([0.5, 0.5], ([0, 1], [1, 0])), shape=(2, 2)), 1, exact=True)

    def test_dense_fused_operator(self):
        g = random_connected_graph(9, 16, 0.25)
        p = fused_shell_propagator(shell_decompose(g), 2.0).matrix
        assert isinstance(p, DenseMatrix)
        oracle = dense_fused(g, 2.0)
        for depth in (1, 2, 5):
            want = np.linalg.matrix_power(oracle, depth).sum() / g.n
            assert avg_nat(p, depth) == pytest.approx(want, rel=1e-12)
        with pytest.raises(InputError):
            avg_nat(p, 2, exact=True)

    def test_dense_binary_matrix_counts_walks(self):
        g = random_connected_graph(6, 12, 0.3)
        a = DenseMatrix(dense_adjacency(g))
        assert avg_nat(a, 3, exact=True) == avg_nat(g, 3, exact=True)
        assert avg_nat(a, 3) == avg_nat(g, 3)


class TestSas:
    def test_identity(self):
        for k in (1, 3, 10):
            assert sas(sp.eye_array(4, format="csr"), k) == 1.0

    def test_k2_rw_fixed_point(self):
        m = rw_norm_propagator(complete_graph(2)).matrix
        for k in (1, 2, 5, 50):
            assert sas(m, k) == pytest.approx(0.5, abs=1e-12)

    def test_path_sym_converges_to_third(self):
        m = sym_norm_propagator(path_graph(3)).matrix
        assert abs(sas(m, 200) - 1.0 / 3.0) < 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_power_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 41))
        g = random_connected_graph(seed + 300, n, 0.2)
        m = sym_norm_propagator(g).matrix
        dense = m.toarray()
        for k in (1, 3, 7):
            power = np.linalg.matrix_power(dense, k)
            want = float(np.mean(np.diag(power) / power.sum(axis=1)))
            assert abs(sas(m, k) - want) < 1e-10

    def test_zero_row_sum_names_row(self):
        # node 2 is isolated: its raw-adjacency row is all zero
        m = raw_adjacency_propagator(isolated_plus_edge()).matrix
        with pytest.raises(NumericError, match="row 2"):
            sas(m, 1)

    def test_identity_beyond_2000_nodes(self):
        assert sas(sp.eye_array(3000, format="csr"), 3) == 1.0

    def test_depth_validation(self):
        with pytest.raises(InputError):
            sas(sp.eye_array(3, format="csr"), 0)


class TestSasTrajectory:
    def test_identity_constant(self):
        report = sas_trajectory(sp.eye_array(5, format="csr"), 10)
        assert [v for _, v in report.sas_trajectory] == [1.0] * 10
        assert report.limit_gap == pytest.approx(1.0 - 0.2)

    @pytest.mark.parametrize("kind", ["sym", "rw"])
    def test_converges_to_uniform_limit(self, kind):
        g = random_connected_graph(0, 20, 0.2)
        prop = sym_norm_propagator(g) if kind == "sym" else rw_norm_propagator(g)
        report = sas_trajectory(prop, 500)
        assert report.limit_gap < 1e-6
        assert all(0.0 < v <= 1.0 for _, v in report.sas_trajectory)

    def test_stop_tol_exits_early(self):
        g = random_connected_graph(0, 20, 0.2)
        report = sas_trajectory(sym_norm_propagator(g), 10_000, stop_tol=1e-6)
        assert report.sas_trajectory[-1][0] < 10_000
        assert report.limit_gap < 1e-6

    def test_kmax_validation(self):
        with pytest.raises(InputError):
            sas_trajectory(sp.eye_array(3, format="csr"), 0)

    def test_dense_power_past_physical_memory_raises(self):
        # a path of 10**6 nodes is one component: past depth 1 syevd's
        # workspace does not fit, and syevr's dense block and V apart take
        # 8 * (2 * (10**6)**2 + 40 * 10**6) bytes, 16 TB, the node ids and
        # eigenvalues 16 * 10**6, the component's objects 512, and two
        # depths beside the row sums 24 * 3 * 10**6 bytes more
        ones = np.ones(10**6 - 1)
        path = sp.diags_array([ones, ones], offsets=[-1, 1], format="csr")
        with pytest.raises(ResourceError, match="16000408000512 bytes"):
            sas_trajectory(path, 2)

    def test_path_of_a_million_nodes_at_depth_one_holds_no_block(self):
        # depth 1 is diag(M) / M 1: the check counts the vectors of one
        # depth, 48 * 10**6 bytes, and nothing more is held
        ones = np.ones(10**6 - 1)
        path = sp.diags_array([ones, ones], offsets=[-1, 1], format="csr")
        report, needs = assert_peak_within_checks(("metrics",), lambda: sas_trajectory(path, 1), slack=0)
        assert report.sas_trajectory == [(1, 0.0)]
        assert needs == [48 * 10**6]

    @pytest.mark.parametrize("k_max", [1, 2, 30])
    @pytest.mark.parametrize("make", [sym_norm_propagator, rw_norm_propagator])
    def test_peak_stays_within_the_check(self, make, k_max):
        # one 300-node component: its dense block, for rw turned into S in
        # place, V written over it and syevd's workspace beside it
        prop = make(random_connected_graph(3, 300, 4.0 / 300))
        sas_trajectory(prop, k_max)
        _, needs = assert_peak_within_checks(("metrics",), lambda: sas_trajectory(prop, k_max), slack=0)
        assert len(needs) == 1

    @pytest.mark.parametrize("k_max", [2, 30])
    @pytest.mark.parametrize("cliques, size", [(1, 120), (200, 40)], ids=["clique-120", "cliques-200x40"])
    def test_csr_components_within_the_checks(self, cliques, size, k_max):
        # raw adjacency of disjoint cliques held as CSR: csgraph's transpose
        # of it, 16 bytes an entry, and 40 bytes a node are checked before
        # the components are found, and no copy of it is made beside
        a = adjacency_matrix(build_graph(
            [(c * size + i, c * size + j) for c in range(cliques) for i in range(size) for j in range(i)],
            cliques * size,
        ))
        sas_trajectory(a, k_max)
        _, needs = assert_peak_within_checks(("graph", "metrics"), lambda: sas_trajectory(a, k_max))
        assert 16 * a.nnz + 40 * a.shape[0] in needs

    @pytest.mark.parametrize("make", [sym_norm_propagator, rw_norm_propagator])
    def test_syevr_decomposes_where_only_it_fits(self, monkeypatch, make):
        # one 400-node component at k_max 2 holds its block, its node ids
        # and eigenvalues, its objects and a depth block,
        # 8 * 400**2 + 16 * 400 + 512 + 24 * 3 * 400 = 1315712 bytes; syevd
        # adds 8 * 400 * (2 * 400 + 10) = 2592000 and syevr the larger of
        # 8 * 400 * (400 + 40) and 20 * 256 * 400, 2048000
        import scipy.linalg

        prop = make(random_connected_graph(3, 400, 8.0 / 400))
        want = sas_trajectory(prop, 2).sas_trajectory
        drivers = []
        real_eigh = scipy.linalg.eigh
        monkeypatch.setattr(
            "scipy.linalg.eigh", lambda *args, **kw: drivers.append(kw["driver"]) or real_eigh(*args, **kw)
        )
        fake_physical_memory(monkeypatch, 855 * 4096)
        report, needs = assert_peak_within_checks(("metrics",), lambda: sas_trajectory(prop, 2), slack=0)
        got = report.sas_trajectory
        assert drivers == ["evr"] and needs == [1315712 + 2048000]
        assert [k for k, _ in got] == [1, 2]
        assert max(abs(x - y) for (_, x), (_, y) in zip(got, want)) <= 1e-10
        fake_physical_memory(monkeypatch, 819 * 4096)
        with pytest.raises(ResourceError, match="about 3363712 bytes, but physical memory is 3354624 bytes"):
            sas_trajectory(prop, 2)

    @pytest.mark.parametrize("make", [sym_norm_propagator, rw_norm_propagator])
    def test_many_components_within_the_checks(self, make):
        # 5000 disjoint pairs: each listed component keeps a tuple, a node
        # view and two small arrays, about 490 bytes beside its 48 of data,
        # which the check counts with each node's id and eigenvalue
        prop = make(build_graph([(2 * i, 2 * i + 1) for i in range(5000)], 10000))
        sas_trajectory(prop, 2)
        report, needs = assert_peak_within_checks(("graph", "metrics"), lambda: sas_trajectory(prop, 2))
        assert [k for k, _ in report.sas_trajectory] == [1, 2]
        assert max(needs) == 8 * 4 * 5000 + 16 * 10000 + 512 * 5000 + 24 * 3 * 10000 + 20 * 256 * 2

    def test_residual_of_many_components_within_the_checks(self):
        # the residual's trajectory reads the baseline's spectrum, shifted in
        # place, so no second spectrum is held; the check counts the
        # residual matrix beside it: 20000 entries of 16 bytes and 10001 row
        # pointers, 400008 bytes
        prop = sym_norm_propagator(build_graph([(2 * i, 2 * i + 1) for i in range(5000)], 10000))
        _residual_trajectories(prop, 0.5, 2)
        (residual, baseline), needs = assert_peak_within_checks(
            ("graph", "metrics"), lambda: _residual_trajectories(prop, 0.5, 2)
        )
        assert [k for k, _ in residual.sas_trajectory] == [k for k, _ in baseline.sas_trajectory] == [1, 2]
        assert max(needs) == 8 * 4 * 5000 + 16 * 10000 + 512 * 5000 + 24 * 3 * 10000 + 20 * 256 * 2 + 400008

    def test_identity_of_a_million_nodes_runs(self):
        # 10**6 lone nodes hold no dense block, only the 48 MB of one depth
        report = sas_trajectory(sp.eye_array(10**6, format="csr"), 1)
        assert report.sas_trajectory == [(1, 1.0)]


@st.composite
def propagators(draw):
    """Every propagator kind on graphs of 1 to 60 nodes, about a tenth of
    them isolated and the rest often in several components, in either
    matrix carrier."""
    prop = draw(propagators_as_built())
    if draw(st.booleans()):
        return Propagator(DenseMatrix(to_dense(prop.matrix)), prop.kind, prop.beta)
    return prop


@st.composite
def propagators_as_built(draw):
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ends = rng.integers(0, n, size=(int(draw(st.sampled_from([0.0, 0.5, 1, 2, 4])) * n / 2), 2))
    kept = rng.random(n) >= 0.1
    g = build_graph(ends[kept[ends].all(axis=1)], n)
    kind = draw(st.sampled_from(["sym", "rw", "residual", "fused", "raw_adjacency"]))
    if kind == "sym":
        return sym_norm_propagator(g)
    if kind == "rw":
        return rw_norm_propagator(g)
    if kind == "residual":
        base = draw(st.sampled_from([sym_norm_propagator, rw_norm_propagator]))(g)
        return residual_propagator(base, draw(st.sampled_from([0.1, 0.5, 0.9])))
    if kind == "fused":
        l_cap = draw(st.sampled_from([None, 1, 2, 3]))
        return fused_shell_propagator(shell_decompose(g, l_cap), draw(st.sampled_from([2.0, 5.0])))
    return raw_adjacency_propagator(g)


class TestEigenTrajectory:
    """The closed-form trajectory against the dense power loop it replaced."""

    @given(prop=propagators())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_power_loop_at_every_depth(self, prop):
        try:
            want = power_trajectory(prop.matrix, 30)
        except NumericError as err:
            # raw adjacency with an isolated node, or an edgeless fused
            # operator: both name the same row and depth
            with pytest.raises(NumericError) as got:
                sas_trajectory(prop, 30)
            assert str(got.value) == str(err)
            return
        got = sas_trajectory(prop, 30)
        assert [k for k, _ in got.sas_trajectory] == list(range(1, 31))
        for (k, score), (_, oracle) in zip(got.sas_trajectory, want.sas_trajectory):
            assert abs(score - oracle) <= 1e-10, f"{prop.kind} at depth {k}"
        assert got.avg_nat == pytest.approx(want.avg_nat, rel=1e-10)

    @pytest.mark.parametrize(
        "make", [sym_norm_propagator, rw_norm_propagator, raw_adjacency_propagator]
    )
    def test_depth_blocks_join_without_a_gap(self, make):
        # 300 depths span three blocks of diagonals
        prop = make(random_connected_graph(12, 20, 0.2))
        got = sas_trajectory(prop, 300).sas_trajectory
        want = power_trajectory(prop.matrix, 300).sas_trajectory
        assert [k for k, _ in got] == list(range(1, 301))
        assert max(abs(x - y) for (_, x), (_, y) in zip(got, want)) <= 1e-10

    @pytest.mark.parametrize("carrier", ["csr", "dense"])
    def test_bare_rw_matrix_of_a_non_regular_graph(self, carrier):
        g = random_connected_graph(11, 30, 0.15)
        assert len(set(g.degrees.tolist())) > 1
        m = rw_norm_propagator(g).matrix
        if carrier == "dense":
            m = DenseMatrix(m.toarray())
        got = sas_trajectory(m, 30).sas_trajectory
        want = power_trajectory(m, 30).sas_trajectory
        assert max(abs(x - y) for (_, x), (_, y) in zip(got, want)) <= 1e-10

    @pytest.mark.parametrize("carrier", [sp.csr_array, DenseMatrix])
    @pytest.mark.parametrize("rows, match", [
        # M_01 / M_10 and M_12 / M_21 are 1, so M_02 / M_20 would have to be 1 too
        ([[0, 1, 2], [1, 0, 1], [1, 1, 0]], r"inconsistent around a cycle through \(1, 2\)"),
        ([[1, 1], [0, 1]], r"pattern is not symmetric: \(0, 1\) is nonzero, \(1, 0\) is 0"),
        ([[1, 0], [1, 1]], r"pattern is not symmetric: \(1, 0\) is nonzero, \(0, 1\) is 0"),
        ([[1, 1], [-1, 3]], r"entries \(0, 1\) and \(1, 0\) differ in sign"),
        # the same faults inside the second component name its own nodes
        ([[1, 0, 0], [0, 1, 2], [0, 0, 1]], r"\(1, 2\) is nonzero, \(2, 1\) is 0"),
        ([[2, 0, 0], [0, 2, -1], [0, 1, 3]], r"entries \(1, 2\) and \(2, 1\) differ in sign"),
    ], ids=["cycle", "one-sided", "one-sided-below", "sign", "one-sided-later", "sign-later"])
    def test_no_symmetric_form_raises(self, rows, match, carrier):
        with pytest.raises(InputError, match=match):
            sas_trajectory(carrier(np.array(rows, dtype=float)), 3)

    @pytest.mark.parametrize("carrier", ["csr", "csr with a stored 0", "dense"])
    @pytest.mark.parametrize("seed", range(5))
    def test_rounding_stays_in_its_component(self, seed, carrier):
        # raw adjacency of K_40 and a disjoint K_2, nodes shuffled: one
        # decomposition of the whole matrix let the clique's eigenvalue 39
        # reach the K_2 rows as about eps**2 * 39**k (1e15 at depth 30, seed 2),
        # and a 0 stored between the two must not join them
        edges = np.array([*zip(*np.triu_indices(40, 1)), (40, 41)])
        perm = np.random.default_rng(seed).permutation(42)
        m = raw_adjacency_propagator(build_graph(perm[edges], 42)).matrix
        if carrier == "dense":
            m = DenseMatrix(m.toarray())
        elif carrier == "csr with a stored 0":
            a, ends = m.tocoo(), perm[[0, 40]]
            m = sp.csr_array(
                (np.r_[a.data, 0.0, 0.0], (np.r_[a.row, ends], np.r_[a.col, ends[::-1]])),
                shape=a.shape,
            )
            assert m.nnz == a.nnz + 2
        got = sas_trajectory(m, 30).sas_trajectory
        want = power_trajectory(m, 30).sas_trajectory
        assert max(abs(x - y) for (_, x), (_, y) in zip(got, want)) <= 1e-10

    def test_nan_entry_names_its_row(self):
        m = sym_norm_propagator(path_graph(4)).matrix.toarray()
        m[1, 2] = m[2, 1] = np.nan
        with pytest.raises(NumericError, match="row 1 of the depth-1 power is non-finite"):
            sas_trajectory(sp.csr_array(m), 3)


def _never(name):
    def call(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    return call


class TestDepthOne:
    @given(prop=propagators())
    @settings(max_examples=150, deadline=None)
    def test_is_the_diagonal_over_the_row_sums(self, prop):
        a = as_array(prop.matrix)
        sums = a @ np.ones(a.shape[0])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("scipy.linalg.eigh", _never("eigh"))
            mp.setattr("shellprop.metrics.components", _never("components"))
            if np.any(sums == 0):
                row = int(np.flatnonzero(sums == 0)[0])
                with pytest.raises(NumericError, match=f"row {row} of the depth-1 power sums to zero"):
                    sas_trajectory(prop, 1)
                return
            got = sas_trajectory(prop, 1).sas_trajectory
        want = [(1, float(np.mean(a.diagonal() / sums)))]
        assert got == want
        assert sas_trajectory(prop, 3).sas_trajectory[:1] == want

    def test_needs_no_symmetric_form(self):
        # past depth 1 this matrix is refused (test_no_symmetric_form_raises)
        m = sp.csr_array(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert sas_trajectory(m, 1).sas_trajectory == [(1, 0.75)]


class TestResidualTrajectories:
    """One decomposition of p for the residual and p itself, against a
    ``sas_trajectory`` of each."""

    @pytest.mark.parametrize("k_max", [1, 30])
    @pytest.mark.parametrize("carrier", ["csr", "dense"])
    @pytest.mark.parametrize("make", [sym_norm_propagator, rw_norm_propagator])
    @pytest.mark.parametrize("g", [
        random_connected_graph(5, 30, 0.15),
        build_graph([(0, 1), (1, 2), (2, 0), (4, 5), (5, 6)], 8),
    ], ids=["connected", "components-and-lone-nodes"])
    def test_match_separate_trajectories(self, g, make, carrier, k_max):
        p = make(g)
        if carrier == "dense":
            p = Propagator(DenseMatrix(to_dense(p.matrix)), p.kind)
        residual, baseline = _residual_trajectories(p, 0.3, k_max)
        want = sas_trajectory(residual_propagator(p, 0.3), k_max)
        assert baseline.sas_trajectory == sas_trajectory(p, k_max).sas_trajectory
        assert [k for k, _ in residual.sas_trajectory] == list(range(1, k_max + 1))
        for (k, got), (_, oracle) in zip(residual.sas_trajectory, want.sas_trajectory):
            assert abs(got - oracle) <= 1e-10, f"depth {k}"
        assert residual.avg_nat == want.avg_nat
        assert abs(residual.limit_gap - want.limit_gap) <= 1e-10


class TestResidualRaisesSelfAttention:
    @pytest.mark.parametrize("seed", range(3))
    def test_strictly_above_plain(self, seed):
        g = random_connected_graph(seed + 400, 20, 0.2)
        plain = sym_norm_propagator(g)
        for beta in (0.1, 0.5, 0.9):
            boosted = residual_propagator(plain, beta)
            for k in range(1, 6):
                assert sas(boosted.matrix, k) > sas(plain.matrix, k)


class TestFusedSelfAttention:
    def _diam3_graphs(self, count):
        picked = []
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(10, 31))
            g = random_connected_graph(seed + 500, n, 0.12)
            if diameter(g) >= 3:
                picked.append(g)
            if len(picked) == count:
                return picked
        raise AssertionError("not enough diameter>=3 samples")

    def test_at_least_uniform_at_depth_one(self):
        for g in self._diam3_graphs(5):
            for alpha in (2.0, 10.0):
                fused = fused_shell_propagator(shell_decompose(g), alpha)
                assert sas(fused.matrix, 1) >= 1.0 / g.n - 1e-12

    def test_dominates_plain_beyond_diameter(self):
        # marginal violations exist at diameter 2, hence the diameter>=3 family
        for g in self._diam3_graphs(5):
            diam = diameter(g)
            plain = sym_norm_propagator(g).matrix
            for alpha in (2.0, 5.0):
                score = sas(fused_shell_propagator(shell_decompose(g), alpha).matrix, 1)
                for k in (diam, diam + 3):
                    assert score >= sas(plain, k) - 1e-12


class TestAggregationBounds:
    def test_complete_four(self):
        verdict = aggregation_bounds_check(complete_graph(4))
        assert verdict.diameter == 1
        assert verdict.avg_nat == 3.0
        assert verdict.lower_ok and verdict.upper_ok

    def test_star_sits_on_lower_bound(self):
        verdict = aggregation_bounds_check(star_graph(3))
        assert verdict.avg_nat == 3.0
        assert verdict.lower_ok and verdict.upper_ok

    def test_chain_exceeds_upper_bound(self):
        # recorded boundary behavior: the 5-chain genuinely breaks the strict
        # upper bound (walk total 42, mean 8.4 vs 2**3 = 8), so only the lower
        # bound is asserted for chains
        verdict = aggregation_bounds_check(path_graph(5))
        assert verdict.walk_total == 42
        assert verdict.avg_nat == pytest.approx(8.4)
        assert verdict.lower_ok
        assert not verdict.upper_ok

    def test_random_trees_hold(self):
        for seed in range(10):
            assert aggregation_bounds_check(random_tree(seed, 10)).holds

    def test_exact_arithmetic_matches_avg_nat(self):
        g = random_connected_graph(7, 15, 0.4)
        verdict = aggregation_bounds_check(g)
        assert verdict.avg_nat == pytest.approx(
            avg_nat(g, verdict.diameter, exact=True), rel=1e-12
        )

    def test_disconnected_rejected(self):
        with pytest.raises(InputError):
            aggregation_bounds_check(build_graph([(0, 1), (2, 3)], 4))
