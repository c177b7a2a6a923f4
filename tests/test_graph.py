import resource

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from shellprop import (
    UNREACHABLE,
    InputError,
    ResourceError,
    adjacency_matrix,
    build_graph,
    component_count,
    diameter,
    is_connected,
    read_edge_list,
    shell_decompose,
    shell_report,
    spmm,
)
from shellprop import graph
from shellprop.graph import _bfs_blocks, components, distance_blocks

from helpers import (
    BIG,
    assert_peak_within_checks,
    complete_graph,
    fake_address_space_limit,
    fake_physical_memory,
    floyd_warshall,
    path_graph,
    random_graph,
    star_graph,
    two_disjoint_edges,
)


class TestBuildGraph:
    def test_dedup_symmetrize_strip_loops(self):
        g = build_graph([(0, 1), (1, 0), (1, 1), (1, 2)], 3)
        assert g.edge_count == 2
        assert list(np.diff(g.row_offsets)) == [1, 2, 1]
        assert list(g.neighbors(1)) == [0, 2]

    def test_empty_edge_list(self):
        g = build_graph([], 4)
        assert g.edge_count == 0
        assert list(np.diff(g.row_offsets)) == [0, 0, 0, 0]

    def test_star(self):
        g = build_graph([(0, 1), (0, 2), (0, 3)], 4)
        assert list(np.diff(g.row_offsets)) == [3, 1, 1, 1]

    def test_id_out_of_range(self):
        with pytest.raises(InputError):
            build_graph([(0, 3)], 3)
        with pytest.raises(InputError):
            build_graph([(-1, 0)], 3)

    def test_zero_nodes(self):
        with pytest.raises(InputError):
            build_graph([], 0)

    def test_node_count_beyond_memory_is_refused_before_allocating(self):
        with pytest.raises(ResourceError, match=r"about 16000000000016 bytes, but physical memory"):
            build_graph([(0, 1)], 10**12)

    def test_buffers_are_read_only(self):
        g = build_graph([(0, 1)], 2)
        with pytest.raises(ValueError):
            g.col_indices[0] = 1

    @given(
        n=st.integers(min_value=1, max_value=12),
        raw=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_structural_invariants(self, n, raw):
        edges = [(u % n, v % n) for u, v in raw]
        g = build_graph(edges, n)
        assert g.row_offsets[0] == 0
        assert g.row_offsets[-1] == 2 * g.edge_count
        assert np.all(np.diff(g.row_offsets) >= 0)
        dense = adjacency_matrix(g).toarray()
        assert np.array_equal(dense, dense.T)
        assert np.all(np.diag(dense) == 0)
        for u in range(n):
            row = g.neighbors(u)
            assert np.all(np.diff(row) > 0)  # sorted, no duplicates


def oracle_distances(g, cap=None):
    """Floyd-Warshall hop counts in the library's UNREACHABLE convention."""
    d = floyd_warshall(g)
    far = d >= BIG if cap is None else d > cap
    return np.where(far, UNREACHABLE, d)


def all_distances(g, cap=None):
    """The n x n distances, ``distance_blocks``' blocks concatenated by rows."""
    return np.concatenate([block for _, block in distance_blocks(g, cap)])


class TestBfs:
    def test_path(self):
        assert list(all_distances(path_graph(3))[0]) == [0, 1, 2]

    def test_star_from_leaf(self):
        assert list(all_distances(star_graph(3))[1]) == [1, 0, 2, 2]

    def test_disconnected(self):
        d = all_distances(two_disjoint_edges())[0]
        assert list(d) == [0, 1, UNREACHABLE, UNREACHABLE]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_floyd_warshall(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 61))
        g = random_graph(seed, n, float(rng.uniform(0.03, 0.4)))
        full = all_distances(g)
        want = oracle_distances(g)
        for source in range(n):
            assert np.array_equal(full[source].astype(np.int64), want[source])

    @pytest.mark.parametrize("seed", range(6))
    def test_distance_matrix_matches_single_source(self, seed):
        g = random_graph(seed, 30, 0.1)
        full = all_distances(g)
        for sources, block in distance_blocks(g, block_size=1):
            assert np.array_equal(full[sources[0]], block[0])

    def test_distance_matrix_spans_source_blocks(self):
        # n=300 exceeds the vectorized BFS block width, so this crosses blocks
        g = random_graph(42, 300, 0.02)
        full = all_distances(g)
        assert np.array_equal(full.astype(np.int64), oracle_distances(g))

    @pytest.mark.parametrize("cap", [1, 2, 3, 5])
    def test_capped_distance_matrix_matches_floyd_warshall(self, cap):
        g = random_graph(11, 40, 0.06)
        capped = all_distances(g, cap=cap)
        assert np.array_equal(capped.astype(np.int64), oracle_distances(g, cap))

    def test_edge_lipschitz_invariant(self):
        g = random_graph(3, 25, 0.15)
        d = all_distances(g)[0].astype(np.int64)
        for u in range(g.n):
            for v in g.neighbors(u):
                if d[u] != UNREACHABLE and d[v] != UNREACHABLE:
                    assert abs(d[u] - d[v]) <= 1


@st.composite
def sparse_graphs(draw):
    """Graphs of 1 to 300 nodes, about a tenth of them isolated and the rest
    often in several components; n is drawn near a 64-bit word or 256-source
    block edge as often as uniformly."""
    n = draw(st.one_of(
        st.integers(1, 300), st.sampled_from([1, 2, 63, 64, 65, 128, 255, 256, 257, 300])
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ends = rng.integers(0, n, size=(int(draw(st.sampled_from([0.0, 0.5, 1, 2, 4])) * n / 2), 2))
    kept = rng.random(n) >= 0.1
    return build_graph(ends[kept[ends].all(axis=1)], n)


class TestBlockEdges:
    """The bit-parallel BFS across word and block edges, empty neighbour
    lists and disconnected components, against Floyd-Warshall."""

    @given(
        g=sparse_graphs(),
        block_size=st.sampled_from([1, 63, 64, 65, 256]),
        cap=st.one_of(st.none(), st.integers(1, 5)),
    )
    @settings(max_examples=60, deadline=None)
    def test_distance_blocks_match_floyd_warshall(self, g, block_size, cap):
        want = oracle_distances(g, cap)
        starts = []
        for sources, block in distance_blocks(g, cap=cap, block_size=block_size):
            starts.append(int(sources[0]))
            assert block.dtype == np.int32
            assert np.array_equal(block, want[sources])
        assert starts == list(range(0, g.n, block_size))

    @given(g=sparse_graphs(), cap=st.one_of(st.none(), st.integers(1, 5)))
    @settings(max_examples=60, deadline=None)
    def test_shells_are_the_oracle_buckets_in_row_major_order(self, g, cap):
        want = oracle_distances(g, cap)
        d = shell_decompose(g, cap)
        assert d.l_max == int(want[want != UNREACHABLE].max())
        for level, shell in enumerate(d.shells, start=1):
            at = want == level
            assert np.array_equal(shell.indptr, np.concatenate([[0], np.cumsum(at.sum(axis=1))]))
            assert np.array_equal(shell.indices, np.nonzero(at)[1])


class TestBfsWorkingSet:
    # one edge on 1000 nodes: a block of 256 sources holds 4 words a node,
    # and before the first block its working set and the stream's unpack
    # buffer are checked, 8 * 4 * (6 * 1000 + 2) + 72 * 4 * 1000 = 480064
    # bytes.  The buffer, 64 * 4 * 1000, is held from then on, and the
    # block's one level, node 999 at 48 bytes and 512 for the level's
    # arrays, once it is yielded; the distance stream then checks its int32
    # block, 4 * 256 * 1000, beside those 256560 bytes
    def test_distance_block_counted_only_where_it_is_held(self, monkeypatch):
        g = build_graph([(0, 999)], 1000)
        fake_physical_memory(monkeypatch, 200 * 4096)
        assert shell_decompose(g).shell_sizes == (2,)
        assert diameter(g) == 1
        with pytest.raises(
            ResourceError, match=r"about 1024000 bytes beside 256560 bytes held, but physical memory is 819200 "
        ):
            next(distance_blocks(g))

    def test_refused_before_the_first_block(self, monkeypatch):
        fake_physical_memory(monkeypatch, 50 * 4096)
        with pytest.raises(ResourceError, match=r"256 sources over 1000 nodes .* about 480064 bytes"):
            shell_decompose(build_graph([(0, 999)], 1000))

    @pytest.mark.parametrize("soft, bound", [
        (100 * 4096, "the address-space limit is 409600 bytes"),
        (300 * 4096, "physical memory is 819200 bytes"),
        (resource.RLIM_INFINITY, "physical memory is 819200 bytes"),
    ])
    def test_address_space_limit_bounds_when_lower(self, monkeypatch, soft, bound):
        # below the first block's 480064 bytes the limit refuses that check,
        # above them the int32 block's
        fake_physical_memory(monkeypatch, 200 * 4096)
        fake_address_space_limit(monkeypatch, soft)
        need = "480064 bytes" if soft == 100 * 4096 else "1024000 bytes beside 256560 bytes held"
        with pytest.raises(ResourceError, match=f"about {need}, but {bound}"):
            next(distance_blocks(build_graph([(0, 999)], 1000)))

    def test_stream_peak_within_its_check(self):
        # 500 disjoint edges: a block of 256 sources over 1000 nodes is
        # checked at 8 * 4 * (6 * 1000 + 1000) + 72 * 4 * 1000 = 512000
        # bytes before the first block.  Before it keeps its one level it is
        # checked again: the 224000 of its working set and its level, 256
        # nodes reached (232 in the last block) at 16 + 8 * 4 bytes each and
        # 512 for the level's arrays, beside the 256000-byte unpack buffer
        # held and, from the second block on, the level of the block before,
        # held while the consumer still holds that block.  A consumer that
        # reads the pairs unpacks one level at a time into the buffer
        g = build_graph([(2 * i, 2 * i + 1) for i in range(500)], 1000)

        def drain():
            for block in _bfs_blocks(g, None):
                for level, flat in block.positions():
                    assert level == 1 and flat.size == block.sizes[0]

        for consumer in (drain, lambda: diameter(g), lambda: shell_report(g)):
            _, needs = assert_peak_within_checks(("graph",), consumer, slack=0)
            base, full, last = 256000 + 224000, 48 * 256 + 512, 48 * 232 + 512
            assert needs == [512000, base + full] + [base + 2 * full] * 2 + [base + full + last]

    def test_distance_stream_counts_the_block_a_consumer_holds(self):
        # 500 disjoint edges: the working set and kept level as above; the
        # int32 block of 4 * 256 * 1000 bytes checked before it is made; and
        # before each block's distances one plane and its byte-transposed
        # copy, 16 * 4 * 1000, the uint8 slab and shifted plane, 2 * b * 1000,
        # and the buffers of one ufunc step, 2 * 8192.  Each check counts
        # what is held beside it: the unpack buffer, the BFS block being
        # read, and from the second block on the int32 block the consumer
        # still holds, 1024000 bytes
        g = build_graph([(2 * i, 2 * i + 1) for i in range(500)], 1000)
        held = []

        def consume():
            for _, block in distance_blocks(g):
                held[:] = [block]

        _, needs = assert_peak_within_checks(("graph",), consume)
        buffer, full, last, dist = 256000, 48 * 256 + 512, 48 * 232 + 512, 1024000
        level, unpack = buffer + 224000, 64000 + 16384
        assert needs == [
            512000, level + full, buffer + full + dist, buffer + full + dist + unpack + 512000
        ] + [
            level + dist + 2 * full, buffer + full + 2 * dist, buffer + full + 2 * dist + unpack + 512000
        ] * 2 + [
            level + dist + full + last, buffer + last + dist + 928000, buffer + last + dist + 928000 + unpack + 464000
        ]

    @given(g=sparse_graphs(), cap=st.one_of(st.none(), st.integers(1, 5)))
    @settings(max_examples=40, deadline=None)
    def test_every_consumer_within_its_checks(self, g, cap):
        # every check counts what is held beside it: the blocks a consumer
        # holds, and the record beside the BFS block that feeds it
        def blocks():
            for _ in distance_blocks(g, cap):
                pass

        for call in (blocks, lambda: shell_report(g, cap)):
            call()
            assert_peak_within_checks(("graph",), call)
        shell_decompose(g, cap)
        assert_peak_within_checks(("graph", "shells"), lambda: shell_decompose(g, cap))


class TestBfsWork:
    """What a block unpacks: its distances as bit-sliced planes, one unpack
    per bit of its depth, or its pairs one level at a time."""

    @staticmethod
    def counted_unpacks(monkeypatch):
        calls = []
        real = graph._unpack
        monkeypatch.setattr(graph, "_unpack", lambda *args: calls.append(args) or real(*args))
        return calls

    def test_diameter_unpacks_nothing(self, monkeypatch):
        calls = self.counted_unpacks(monkeypatch)
        for g in (path_graph(300), random_graph(3, 200, 0.02), build_graph([], 5)):
            want = floyd_warshall(g)
            assert diameter(g) == int(want[want < BIG].max())
        assert calls == []

    def test_dense_block_unpacks_each_bit_of_its_depth_once(self, monkeypatch):
        # a 300-path at full diameter: both blocks, sources 0-255 and
        # 256-299, reach depth 299, a uint16 slab of (299).bit_length() = 9
        # planes of all 300 nodes each; one mask per level would be 299 each
        calls = self.counted_unpacks(monkeypatch)
        d = shell_decompose(path_graph(300))
        assert d.shells.distances.dtype == np.uint16 and d.l_max == 299
        assert [b for _, b, _ in calls] == [256] * 9 + [44] * 9
        assert all(words.shape[0] == 300 for words, _, _ in calls)

    def test_sparse_block_unpacks_each_level_once(self, monkeypatch):
        # 500 disjoint edges: each of the 4 blocks reaches one level, whose
        # pairs are read from its 256 (last block 232) reached nodes alone
        calls = self.counted_unpacks(monkeypatch)
        d = shell_decompose(build_graph([(2 * i, 2 * i + 1) for i in range(500)], 1000))
        assert d.shell_sizes == (1000,)
        assert [words.shape[0] for words, _, _ in calls] == [256, 256, 256, 232]


class TestDiameter:
    def test_path(self):
        assert diameter(path_graph(3)) == 2

    def test_complete(self):
        assert diameter(complete_graph(5)) == 1

    def test_per_component_max(self):
        assert diameter(two_disjoint_edges()) == 1

    def test_edgeless(self):
        assert diameter(build_graph([], 5)) == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_max_finite_bfs(self, seed):
        g = random_graph(seed + 50, 35, 0.08)
        oracle = floyd_warshall(g)
        assert diameter(g) == int(oracle[oracle < BIG].max())


class TestConnectivity:
    def test_connected(self):
        assert is_connected(path_graph(4))
        assert not is_connected(two_disjoint_edges())

    def test_component_count(self):
        assert component_count(two_disjoint_edges()) == 2
        assert component_count(build_graph([], 3)) == 3
        assert component_count(complete_graph(4)) == 1


class TestComponents:
    @given(g=sparse_graphs())
    @settings(max_examples=40, deadline=None)
    def test_nodes_of_each_component_against_floyd_warshall(self, g):
        reach = floyd_warshall(g) < BIG
        lone, grouped, offsets = components(adjacency_matrix(g))
        assert np.array_equal(lone, np.flatnonzero(reach.sum(axis=1) == 1))
        groups = [grouped[start:end] for start, end in zip(offsets[:-1], offsets[1:])]
        assert [int(c[0]) for c in groups] == sorted(int(c[0]) for c in groups)
        for nodes in groups:
            assert nodes.size > 1 and np.all(np.diff(nodes) > 0)
            assert np.array_equal(nodes, np.flatnonzero(reach[nodes[0]]))
        assert offsets[0] == 0 and offsets[-1] == grouped.size
        assert lone.size + grouped.size == g.n
        assert component_count(g) == lone.size + len(groups)

    def test_dense_and_one_sided_patterns(self):
        # entries (0, 2) and (4, 3) join their nodes one way only; the zero
        # stored at (1, 5) joins nothing
        a = sp.csr_array(([1.0, 2.0, 0.0], ([0, 4, 1], [2, 3, 5])), shape=(6, 6))
        for m in (a, a.toarray()):
            lone, grouped, offsets = components(m)
            assert lone.tolist() == [1, 5]
            assert grouped.tolist() == [0, 2, 3, 4] and offsets.tolist() == [0, 2, 4]

    def test_listed_components_counted_within_the_checks(self):
        # 50,000 disjoint pairs held as CSR: csgraph's transpose of the 10^5
        # entries and the node arrays, 56 bytes a node, bound the peak; once
        # the labels are known, the node arrays and each listed pair's offset
        # and the sum it comes from, 16 bytes, are checked again
        a = adjacency_matrix(build_graph(np.arange(10**5).reshape(-1, 2), 10**5))
        components(a)
        (lone, grouped, offsets), needs = assert_peak_within_checks(("graph",), lambda: components(a))
        assert lone.size == 0 and grouped.size == 10**5 and offsets.size == 50001
        assert needs == [16 * 10**5 + 40 * 10**5, 40 * 10**5 + 16 * 50000]

    def test_lone_nodes_of_a_million_node_identity_are_one_array(self):
        lone, grouped, offsets = components(sp.eye_array(10**6, format="csr"))
        assert type(lone) is np.ndarray and lone.shape == (10**6,)
        assert np.array_equal(lone, np.arange(10**6))
        assert grouped.size == 0 and offsets.tolist() == [0]


class TestSpmm:
    def test_identity_round_trip(self):
        x = np.random.default_rng(0).random((5, 3))
        assert np.array_equal(spmm(sp.eye_array(5, format="csr"), x), x)

    def test_path_degrees(self):
        a = adjacency_matrix(path_graph(3))
        out = spmm(a, np.ones((3, 1)))
        assert np.array_equal(out, np.array([[1.0], [2.0], [1.0]]))

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(7)
        dense = np.where(rng.random((10, 10)) < 0.3, rng.standard_normal((10, 10)), 0.0)
        rows, cols = np.nonzero(dense)
        m = sp.csr_array((dense[rows, cols], (rows, cols)), shape=(10, 10))
        x = rng.standard_normal((10, 4))
        assert np.max(np.abs(spmm(m, x) - dense @ x)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            spmm(sp.eye_array(3, format="csr"), np.ones((4, 2)))

    def test_scipy_twin_shares_index_arrays(self):
        g = path_graph(4)
        m = adjacency_matrix(g)
        assert m is adjacency_matrix(g)
        assert np.shares_memory(m.indices, g.col_indices)
        assert np.shares_memory(m.indptr, g.row_offsets)


class TestEdgeListFormat:
    def test_round_trip_with_comments(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("# a comment\n0\t1\n\n1\t2\n", encoding="utf-8")
        assert read_edge_list(path) == [(0, 1), (1, 2)]

    def test_malformed_line_names_position(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("0\t1\n1 2\n", encoding="utf-8")
        with pytest.raises(InputError, match="line 2"):
            read_edge_list(path)

    def test_non_integer_id(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("0\tx\n", encoding="utf-8")
        with pytest.raises(InputError, match="line 1"):
            read_edge_list(path)
