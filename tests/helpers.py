"""Shared graph factories and independent test oracles.

Everything here deliberately avoids the library's BFS/CSR machinery so the
oracles stay independent of the code paths they check: distances come from
Floyd-Warshall, matrix powers from numpy dense algebra, and normalizations
from dense hand arithmetic.
"""
from __future__ import annotations

import importlib
import os
import resource
import tracemalloc
from contextlib import ExitStack
from dataclasses import replace
from unittest import mock

import numpy as np
import scipy.sparse as sp
from hypothesis import strategies as st

from shellprop import (
    Dataset, InputError, MetricReport, NumericError, SparseGraph, build_graph, is_connected,
    synth_planted_partition,
)
from shellprop import graph
from shellprop.graph import as_array, open_text

BIG = 10**9  # oracle-side unreachable marker


def path_graph(n: int) -> SparseGraph:
    return build_graph([(i, i + 1) for i in range(n - 1)], n)


def complete_graph(n: int) -> SparseGraph:
    return build_graph([(i, j) for i in range(n) for j in range(i + 1, n)], n)


def star_graph(leaves: int) -> SparseGraph:
    return build_graph([(0, i) for i in range(1, leaves + 1)], leaves + 1)


def spider_graph(arm: int) -> SparseGraph:
    """Four paths of ``arm`` nodes from node 0, numbered outward: node
    4 (d - 1) + a + 1 lies on arm a, d hops from node 0."""
    edges = [(max(0, node - 4), node) for node in range(1, 4 * arm + 1)]
    return build_graph(edges, 4 * arm + 1)


def two_disjoint_edges() -> SparseGraph:
    return build_graph([(0, 1), (2, 3)], 4)


def random_graph(seed: int, n: int, p: float) -> SparseGraph:
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    take = rng.random(len(iu)) < p
    return build_graph(np.column_stack([iu[take], ju[take]]), n)


def random_connected_graph(seed: int, n: int, p: float) -> SparseGraph:
    """Rejection-sample a connected G(n, p); deterministic per seed."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    for _ in range(500):
        take = rng.random(len(iu)) < p
        g = build_graph(np.column_stack([iu[take], ju[take]]), n)
        if is_connected(g):
            return g
    raise AssertionError(f"no connected sample for seed={seed} n={n} p={p}")


def random_tree(seed: int, n: int) -> SparseGraph:
    """Random recursive tree: each node attaches to a uniform earlier node."""
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    return build_graph(edges, n)


@st.composite
def component_graphs(draw, max_nodes: int = 40):
    """Graphs of 1 to ``max_nodes`` nodes under a random labelling: a random
    tree plus extra edges on a drawn share of the nodes, often three
    quarters or more, so that P is dense, and the rest in small components
    or isolated."""
    n = draw(st.integers(1, max_nodes))
    big = draw(st.one_of(st.integers(-(-3 * n // 4), n), st.integers(1, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tree = [(int(rng.integers(0, i)), i) for i in range(1, big)]
    extra = rng.integers(0, big, size=(draw(st.integers(0, 2 * big)), 2))
    rest = big + rng.integers(0, n - big, size=(draw(st.integers(0, n - big)), 2))
    edges = np.concatenate([np.reshape(tree, (-1, 2)), extra, rest]).astype(np.int64)
    return build_graph(rng.permutation(n)[edges], n)


def bag_of_words(
    seed: int,
    n_per_class: int = 10,
    classes: int = 3,
    features: int = 60,
    words: int = 2,
    labels_per_class: int = 4,
) -> Dataset:
    """``synth_planted_partition``'s graph, labels and split with sparse
    binary bag-of-words features: each node turns on up to ``words``
    columns, each drawn from its class's block of ``features // classes``
    columns with chance 0.7 and from all columns otherwise."""
    ds = synth_planted_partition(
        n_per_class, classes, 0.5, 0.05, seed=seed, labels_per_block=labels_per_class
    )
    rng = np.random.default_rng(seed)
    topic = features // classes
    rows = np.repeat(np.arange(ds.n), words)
    on_topic = rng.random(rows.size) < 0.7
    cols = np.where(
        on_topic,
        ds.labels[rows] * topic + rng.integers(0, topic, rows.size),
        rng.integers(0, features, rows.size),
    )
    x = np.zeros((ds.n, features))
    x[rows, cols] = 1.0
    return replace(ds, features=x)


def parse_features_by_line(path) -> np.ndarray:
    """The feature parser as it read one line at a time, converting each
    value with ``float``: the oracle of ``data._parse_features``."""
    rows = []
    width = None
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split("\t")
            if width is None:
                width = len(parts)
            elif len(parts) != width:
                raise InputError(
                    f"{path}: line {lineno}: expected {width} values, got {len(parts)}"
                )
            try:
                row = [float(v) for v in parts]
            except ValueError:
                raise InputError(f"{path}: line {lineno}: non-numeric feature value") from None
            if not all(np.isfinite(row)):
                raise InputError(f"{path}: line {lineno}: non-finite feature value")
            rows.append(row)
    if not rows:
        raise InputError(f"{path}: file is empty")
    return np.asarray(rows, dtype=np.float64)


def fake_physical_memory(monkeypatch, nbytes: int) -> None:
    """Make the physical-memory reading return ``nbytes``, in 4096-byte pages
    (``nbytes`` a multiple of 4096)."""
    real = os.sysconf
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": nbytes // 4096}
    monkeypatch.setattr(os, "sysconf", lambda name: pages.get(name) or real(name))


def fake_address_space_limit(monkeypatch, soft) -> None:
    """Make the process's address-space soft limit read ``soft`` (bytes, or
    ``resource.RLIM_INFINITY``)."""
    real = resource.getrlimit

    def getrlimit(which):
        return (soft, resource.RLIM_INFINITY) if which == resource.RLIMIT_AS else real(which)

    monkeypatch.setattr(resource, "getrlimit", getrlimit)


def assert_peak_within_checks(modules, call, slack: int = 16384):
    """Run ``call()`` under tracemalloc with ``require_memory`` spied on (and
    still enforced) in each ``shellprop.<module>`` named in ``modules``, and
    assert that the traced peak is at most the largest total checked, the
    bytes held (``graph.hold``) beside the check's own need, plus ``slack``
    bytes.  Returns the call's result and the totals of the checks that
    passed, in order.  Warm the call up first where a first run imports or
    caches."""
    needs = []
    with ExitStack() as stack:
        for name in modules:
            real = importlib.import_module(f"shellprop.{name}").require_memory

            def spy(need, what, real=real):
                real(need, what)
                needs.append(graph._held() + need)

            stack.enter_context(mock.patch(f"shellprop.{name}.require_memory", spy))
        tracemalloc.start()
        try:
            result = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert needs, "no byte check ran"
    assert peak <= max(needs) + slack, f"peak {peak} bytes above the checks' {max(needs)}"
    return result, needs


def floyd_warshall(g: SparseGraph) -> np.ndarray:
    """All-pairs shortest hop counts; BIG marks unreachable pairs."""
    n = g.n
    dist = np.full((n, n), BIG, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    for u in range(n):
        for v in g.neighbors(u):
            dist[u, v] = 1
    for k in range(n):
        dist = np.minimum(dist, dist[:, [k]] + dist[[k], :])
    return dist


def to_dense(m) -> np.ndarray:
    """Either matrix carrier, a scipy sparse array or a DenseMatrix, as a
    plain 2-D array."""
    return m.toarray() if sp.issparse(m) else m.to_dense()


def dense_adjacency(g: SparseGraph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for u in range(g.n):
        a[u, g.neighbors(u)] = 1.0
    return a


def dense_sym_norm(t_dense: np.ndarray) -> np.ndarray:
    """Hand normalization oracle: D^{-1/2} (T + I) D^{-1/2}, dense."""
    n = t_dense.shape[0]
    with_loops = t_dense + np.eye(n)
    inv_sqrt = 1.0 / np.sqrt(with_loops.sum(axis=1))
    return with_loops * np.outer(inv_sqrt, inv_sqrt)


def dense_shells(g: SparseGraph) -> list[np.ndarray]:
    """Exact-distance shells straight from the Floyd-Warshall oracle."""
    dist = floyd_warshall(g)
    finite = dist[dist < BIG]
    top = int(finite.max()) if finite.size else 0
    return [(dist == level).astype(float) for level in range(1, top + 1)]


def dense_fused(g: SparseGraph, alpha: float, l_cap: int | None = None) -> np.ndarray:
    """Dense fusion oracle: sum of decayed normalized shells up to l_cap."""
    out = np.zeros((g.n, g.n))
    for level, shell in enumerate(dense_shells(g)[:l_cap], start=1):
        out += (1.0 - 1.0 / alpha) ** level * dense_sym_norm(shell)
    return out


def reference_fill(g: SparseGraph, theta: np.ndarray, l_cap: int | None = None) -> np.ndarray:
    """P = sum_l theta_l That_l written entry by entry from Floyd-Warshall
    levels, pairs past ``l_cap`` or unreachable at level 0: with r_l =
    (k_l + 1)**-1/2 for k_l each node's count of level-l pairs and weight
    (0, theta_1, ..., theta_L), weight[d] * (r[d, i] * r[d, j]) at each pair
    (i, j) of level d, and theta_l * (r_l[i] * r_l[i]) summed over l = 1..L
    in order on the diagonal: the operations, in the order, that
    normalizing each shell and summing theta_l That_l perform."""
    levels = floyd_warshall(g)
    levels[(levels >= BIG) | (levels > (l_cap or g.n))] = 0
    weight = np.concatenate([[0.0], theta])
    r = np.ones((len(weight), g.n))
    for level in range(1, len(weight)):
        r[level] = 1.0 / np.sqrt(np.count_nonzero(levels == level, axis=1) + 1.0)
    p = np.zeros((g.n, g.n))
    for i in range(g.n):
        for j in range(g.n):
            d = levels[i, j]
            p[i, j] = weight[d] * (r[d, i] * r[d, j])
        p[i, i] = 0.0
        for level in range(1, len(weight)):
            p[i, i] += weight[level] * (r[level, i] * r[level, i])
    return p


def exact_walk_total(g: SparseGraph, l: int) -> int:
    """Total of all entries of A^l by dense powers in Python integers."""
    a = dense_adjacency(g).astype(np.int64).astype(object)
    power = np.eye(g.n, dtype=object)
    for _ in range(l):
        power = power @ a
    return int(power.sum())


def reference_forward(params, x, fused_dense: np.ndarray) -> np.ndarray:
    """Independent dense forward pass (dropout off); returns probabilities."""
    z = np.maximum(x @ params.w1 + params.b1, 0.0)
    s = fused_dense @ z
    logits = s @ params.w2 + params.b2
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


def power_trajectory(m, k_max: int) -> MetricReport:
    """Self-attention scores at depths 1..k_max from the tracked dense power.

    Each depth is one product of the matrix with the dense power; the
    checks and their NumericError wording are those of ``sas_trajectory``.
    """
    n = m.shape[0]
    a = as_array(m)
    power = np.eye(n)
    trajectory: list[tuple[int, float]] = []
    for k in range(1, k_max + 1):
        power = a @ power
        row_sums = power.sum(axis=1)
        if not np.all(np.isfinite(row_sums)):
            bad = int(np.flatnonzero(~np.isfinite(row_sums))[0])
            raise NumericError(f"row {bad} of the depth-{k} power is non-finite")
        if np.any(row_sums == 0):
            bad = int(np.flatnonzero(row_sums == 0)[0])
            raise NumericError(f"row {bad} of the depth-{k} power sums to zero")
        score = float(np.mean(np.einsum("ii->i", power) / row_sums))
        trajectory.append((k, score))
    gap = abs(trajectory[-1][1] - 1.0 / n)
    return MetricReport(
        avg_nat=float(power.sum() / n), sas_trajectory=trajectory, limit_gap=gap
    )
