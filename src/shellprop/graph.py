"""Immutable graph type, BFS distance machinery, and matrix carriers.

Graphs are undirected, unweighted and simple; every edge is stored in both
directions with column indices sorted inside each row.  A real matrix is
carried as a scipy ``csr_array`` with int64 indices or, where that takes
no more bytes (``stores_dense``), a ``DenseMatrix``; ``as_array`` hands a
product either the ``csr_array`` itself or the plain 2-D float64 values.
All containers here are frozen and their buffers (a ``csr_array``'s
``data``, ``indices`` and ``indptr``) are marked read-only, so they are
safe to share across threads and worker processes.

Hop distances come from one bit-parallel BFS per block of sources
(``_bfs_blocks``).  A block keeps, for each level, the nodes it reached and
their source bits; its distances are unpacked as bit-sliced planes, one
per bit of its depth, and its pairs one level at a time.
"""
from __future__ import annotations

import io
import os
import resource
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator

import numpy as np
import scipy.sparse as sp

from .errors import InputError, ResourceError

#: Sentinel distance, strictly greater than any valid hop count.
UNREACHABLE = int(np.iinfo(np.int32).max)

_BFS_BLOCK = 256


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


def memory_limit() -> tuple[int, str]:
    """The bytes a run may hold and what bounds them: the machine's physical
    memory or, when lower, the process's address-space limit (``ulimit -v``)."""
    limit, bound = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"), "physical memory"
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY and soft < limit:
        limit, bound = soft, "the address-space limit"
    return limit, bound


def require_memory(need: int, what: str) -> None:
    """Raise ResourceError, before allocating, when ``need`` bytes exceed
    ``memory_limit``; ``what`` names the allocation, and the message names
    the bound."""
    limit, bound = memory_limit()
    if need > limit:
        raise ResourceError(f"{what}, about {need} bytes, but {bound} is {limit} bytes")


@dataclass(frozen=True, eq=False)
class SparseGraph:
    """Undirected simple graph in CSR form.

    Attributes
    ----------
    n : int
        Node count (positive).
    row_offsets : ndarray, int64, shape (n+1,)
        Monotone row pointers; final entry equals 2 * edge_count.
    col_indices : ndarray, int64, shape (2*edge_count,)
        Neighbor lists, sorted within each row; no self-loops, no duplicates.
    edge_count : int
        Number of undirected edges.
    """

    n: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    edge_count: int

    def __post_init__(self) -> None:
        _freeze(self.row_offsets, self.col_indices)

    @cached_property
    def degrees(self) -> np.ndarray:
        d = np.diff(self.row_offsets)
        _freeze(d)
        return d

    def neighbors(self, i: int) -> np.ndarray:
        return self.col_indices[self.row_offsets[i] : self.row_offsets[i + 1]]

    @cached_property
    def _adjacency(self) -> sp.csr_array:
        ones = np.ones(self.col_indices.shape[0], dtype=np.float64)
        return frozen_csr(ones, self.col_indices, self.row_offsets)


@dataclass(frozen=True, eq=False)
class DenseMatrix:
    """Real-valued matrix held as one read-only 2-D float64 array.

    The carrier of an operator whose stored entries would take more bytes
    in CSR form (16 per entry) than the 8 per entry of the full array.
    ``nnz`` counts the nonzero entries.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        _freeze(self.values)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @cached_property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.values))

    def to_dense(self) -> np.ndarray:
        return self.values.copy()

    def diagonal(self) -> np.ndarray:
        return self.values.diagonal().copy()


#: Either carrier of a real matrix; products read it through ``as_array``.
Matrix = sp.csr_array | DenseMatrix


def as_array(m: Matrix) -> sp.csr_array | np.ndarray:
    """What a product or row slice of ``m`` reads: the csr_array itself, or
    the read-only values of a DenseMatrix."""
    return m.values if isinstance(m, DenseMatrix) else m


def frozen_csr(
    data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, shape: tuple[int, int] | None = None
) -> sp.csr_array:
    """The csr_array on these buffers as written, marked read-only; square
    unless ``shape`` is given.

    Nothing is copied or reordered, so a row keeps the order of its stored
    entries; ``indices`` and ``indptr`` are int64.
    """
    _freeze(data, indices, indptr)
    n = indptr.shape[0] - 1
    return sp.csr_array((data, indices, indptr), shape=shape or (n, n))


def stores_dense(shape: tuple[int, int], nnz: int) -> bool:
    """Whether a matrix of ``shape`` with ``nnz`` stored entries is carried
    dense: when its full float64 array takes no more bytes than CSR, 16 per
    entry (a float64 value and an int64 index) plus the row pointers."""
    rows, cols = shape
    return 8 * rows * cols <= 16 * nnz + 8 * (rows + 1)


def by_bytes(a) -> Matrix:
    """A copy of the 2-D array ``a`` in the carrier ``stores_dense`` picks for
    its nonzero entries."""
    a = np.asarray(a, dtype=np.float64)
    return from_array(a if stores_dense(a.shape, np.count_nonzero(a)) else sp.csr_array(a))


def from_array(a) -> Matrix:
    """The carrier of a scipy sparse result or a 2-D array.

    A sparse input is copied into canonical CSR form (duplicates summed,
    rows sorted) with float64 values and int64 indices; anything else is
    copied into a DenseMatrix.
    """
    if not sp.issparse(a):
        return DenseMatrix(np.array(a, dtype=np.float64))
    m = sp.csr_array(a, dtype=np.float64, copy=True)
    m.sum_duplicates()
    return frozen_csr(
        m.data,
        m.indices.astype(np.int64, copy=False),
        m.indptr.astype(np.int64, copy=False),
        m.shape,
    )


def build_graph(edges, n: int) -> SparseGraph:
    """Build a SparseGraph from a raw edge list.

    The input may contain duplicates, self-loops, and single-direction
    entries; the result is symmetrized, deduplicated, and self-loop free.
    ResourceError is raised before allocating when the row pointers and
    degree counts, about 16 * (n + 1) bytes, exceed ``require_memory``'s bound.

    Parameters
    ----------
    edges : sequence of (u, v) pairs or (m, 2) array
        Node ids in [0, n).
    n : int
        Node count.
    """
    if n <= 0:
        raise InputError(f"node count must be positive, got {n}")
    require_memory(16 * (n + 1), f"a graph of {n} nodes holds its row pointers and degrees")
    e = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
    if e.size and (e.min() < 0 or e.max() >= n):
        bad = e[(e < 0).any(axis=1) | (e >= n).any(axis=1)][0]
        raise InputError(f"edge ({bad[0]}, {bad[1]}) out of range for n={n}")
    e = e[e[:, 0] != e[:, 1]]
    if e.size:
        both = np.concatenate([e, e[:, ::-1]])
        both = np.unique(both, axis=0)
        rows, cols = both[:, 0], both[:, 1]
    else:
        rows = cols = np.empty(0, dtype=np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    offsets[1:] = np.cumsum(np.bincount(rows, minlength=n))
    return SparseGraph(n, offsets, cols.copy(), edge_count=len(cols) // 2)


def adjacency_matrix(g: SparseGraph) -> sp.csr_array:
    """The graph's binary adjacency (values all 1.0), built once per graph
    on its own index arrays."""
    return g._adjacency


def open_text(path) -> io.StringIO:
    """A UTF-8 text file, decoded whole, to iterate by line as ``open`` would.

    Raises InputError naming the file and the offending byte offset when it
    is not valid UTF-8.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as err:
        raise InputError(f"{path}: not UTF-8 text (byte {err.start})") from None
    return io.StringIO(text, newline=None)


def read_edge_list(path) -> list[tuple[int, int]]:
    """Parse the tab-separated edge-list format: ``u<TAB>v`` per line.

    Lines starting with ``#`` and blank lines are ignored.  Raises InputError
    naming the file and line on malformed content.
    """
    edges: list[tuple[int, int]] = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise InputError(
                    f"{path}: line {lineno}: expected 'u<TAB>v', got {line!r}"
                )
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise InputError(
                    f"{path}: line {lineno}: non-integer node id in {line!r}"
                ) from None
            if u < 0 or v < 0:
                raise InputError(f"{path}: line {lineno}: negative node id")
            edges.append((u, v))
    return edges


def _unpack(words: np.ndarray, b: int, out: np.ndarray) -> np.ndarray:
    """The contiguous (b, m) bool mask whose entry (s, i) is bit s of row i
    of the (m, w) uint64 ``words``, written over the first 64 w m bytes of
    the flat uint8 buffer ``out``."""
    # in little-endian order, byte j of a row's words holds bits 8j .. 8j + 7
    by_byte = np.ascontiguousarray(words.astype("<u8", copy=False).view(np.uint8).T)
    mask = out[: 8 * by_byte.size].reshape(8 * by_byte.shape[0], by_byte.shape[1])
    for k in range(8):
        np.right_shift(by_byte, k, out=mask[k::8])
    mask &= 1
    return mask[:b].view(bool)


@dataclass(frozen=True, eq=False)
class _BfsBlock:
    """The BFS of one block of consecutive sources, as the levels it reached.

    ``levels[l-1]`` is (nodes, words, counts) for the pairs first reached
    at level l: the ascending nodes reached, each one's w uint64 words with
    bit s set for ``sources[s]``, and each one's count of those bits.
    ``sizes[l-1]`` is the level's pair count.  ``need`` is the bytes the
    stream checked last for the block: its working set, its levels and the
    last block's; a slab is checked on top of it.  ``buffer`` is the stream's one unpack buffer, so only
    one mask of a stream is valid at a time.
    """

    sources: np.ndarray
    n: int
    levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    sizes: list[int]
    need: int
    buffer: np.ndarray

    @property
    def depth(self) -> int:
        return len(self.levels)

    def slab(self) -> np.ndarray:
        """The (b, n) levels of the block's pairs, in the narrowest unsigned
        type that holds its depth, 0 for each source itself and for pairs
        not reached.  The levels are bit-sliced: plane k ORs the words of
        every level whose bit k is set, and each of the depth.bit_length()
        planes is unpacked once.  ResourceError is raised first when the
        block's bytes, the plane, the slab and one shifted plane exceed
        ``require_memory``'s bound."""
        b, n = len(self.sources), self.n
        w, dtype = -(-b // 64), np.min_scalar_type(self.depth)
        require_memory(
            self.need + 8 * w * n + 2 * dtype.itemsize * b * n,
            f"the {b} x {n} distances of a BFS block at {self.depth} levels",
        )
        slab = np.zeros((b, n), dtype=dtype)
        plane, shifted = np.empty((n, w), dtype=np.uint64), np.empty_like(slab)
        for k in range(self.depth.bit_length()):
            plane.fill(0)
            for level, (nodes, words, _) in enumerate(self.levels, start=1):
                if level >> k & 1:
                    plane[nodes] |= words
            bits = _unpack(plane, b, self.buffer).view(np.uint8)
            np.left_shift(bits, k, out=shifted, dtype=dtype)
            slab |= shifted
        return slab

    def fill(self, out: np.ndarray) -> None:
        """Write the block's distances over the (b, n) ``out``: 0 for each
        source itself and its slab's level for each pair reached; a pair
        not reached keeps its entry."""
        slab = self.slab()
        np.copyto(out, slab, where=slab > 0)
        out[np.arange(len(self.sources)), self.sources] = 0

    def positions(self) -> Iterator[tuple[int, np.ndarray]]:
        """(level, flat) for each level: the row-major positions in the n x n
        matrix of the pairs first reached there, ascending, from one unpack
        of the level's reached nodes alone."""
        start, b = int(self.sources[0]), len(self.sources)
        for level, (nodes, words, _) in enumerate(self.levels, start=1):
            flat = np.flatnonzero(_unpack(words, b, self.buffer))
            at = flat % nodes.size
            flat //= nodes.size
            flat += start
            flat *= self.n
            flat += nodes[at]
            yield level, flat


def _bfs_blocks(
    g: SparseGraph, cap: int | None, block_size: int = _BFS_BLOCK, held: int = 0
) -> Iterator[_BfsBlock]:
    """Stream the BFS of every source, one ``_BfsBlock`` per block of
    ``block_size`` sources, blocks in ascending order.

    The BFS of a block of b sources runs bit-parallel: each node holds
    w = ceil(b/64) uint64 words of ``seen`` and ``frontier`` bits, bit s for
    ``sources[s]``, and a level ORs each node's neighbours' frontier words.
    A block keeps only the nodes each level reaches and their words, and
    ends at its deepest level, or at ``cap``.  ResourceError is raised
    before the first block when its working set, plus the ``held`` bytes a
    consumer keeps beside it, exceeds ``require_memory``'s bound, and again
    before each level is kept, counting the levels the block keeps and
    those of the block before it, which a consumer may still hold.
    """
    b = min(block_size, g.n)
    w = -(-b // 64)
    # six (n, w) word arrays while a level forms, the words gathered per edge
    # entry, and the unpack buffer's byte-transposed words and mask
    need = 8 * w * (6 * g.n + len(g.col_indices)) + 72 * w * g.n + held
    what = f"a BFS block of {b} sources over {g.n} nodes holds its bit frontier"
    require_memory(need, what + (f" beside {held} bytes of distances" if held else ""))
    has = np.diff(g.row_offsets) > 0
    starts = g.row_offsets[:-1][has]
    buffer = np.empty(64 * w * g.n, dtype=np.uint8)
    last = 0
    for start in range(0, g.n, block_size):
        sources = np.arange(start, min(start + block_size, g.n), dtype=np.int64)
        bit = np.arange(len(sources), dtype=np.uint64)
        frontier = np.zeros((g.n, -(-len(sources) // 64)), dtype=np.uint64)
        frontier[sources, bit // 64] = np.uint64(1) << bit % 64
        seen, reached = frontier.copy(), np.zeros_like(frontier)
        levels, sizes, kept = [], [], 0
        for level in range(1, g.n if cap is None else cap + 1):
            reached[has] = np.bitwise_or.reduceat(frontier[g.col_indices], starts)
            frontier = reached & ~seen
            nodes = np.flatnonzero(frontier.any(axis=1))
            if not nodes.size:
                break
            # a reached node's id, count and words, and a level's three arrays and tuple
            kept += (16 + 8 * w) * nodes.size + 512
            require_memory(need + last + kept, f"{what} and the nodes of the {level} levels it reached")
            seen |= frontier
            words = frontier[nodes]
            counts = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
            levels.append((nodes, words, counts))
            sizes.append(int(counts.sum()))
        del frontier, seen, reached
        yield _BfsBlock(sources, g.n, levels, sizes, need + last + kept, buffer)
        last = kept


def distance_blocks(
    g: SparseGraph, cap: int | None = None, block_size: int = _BFS_BLOCK
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stream all-pairs hop distances as (sources, dist_block) chunks.

    Runs one BFS per source, bit-parallel across a block of sources.
    ``dist_block`` is int32 with shape (len(sources), n) and UNREACHABLE
    beyond ``cap`` levels or outside the component.  Blocks are yielded in
    ascending source order, so concatenated output is identical regardless
    of scheduling.  The stream's byte checks count the block it fills, the
    mask of the pairs its slab reached, and the block a consumer still
    holds from the last step.
    """
    b = min(block_size, g.n)
    for block in _bfs_blocks(g, cap, block_size, held=9 * b * g.n):
        dist = np.full((len(block.sources), g.n), UNREACHABLE, dtype=np.int32)
        block.fill(dist)
        yield block.sources, dist


def distance_matrix(g: SparseGraph, cap: int | None = None) -> np.ndarray:
    """Full all-pairs distance matrix (n x n, int32, UNREACHABLE sentinel),
    filled block by block; the BFS stream's byte checks count it and one
    block's mask of reached pairs."""
    d = None
    b = min(_BFS_BLOCK, g.n)
    for block in _bfs_blocks(g, cap, held=4 * g.n * g.n + b * g.n):
        if d is None:  # allocated once the stream's check has passed
            d = np.full((g.n, g.n), UNREACHABLE, dtype=np.int32)
        block.fill(d[block.sources[0] : block.sources[-1] + 1])
    return d


def diameter(g: SparseGraph) -> int:
    """Largest finite pairwise distance (per-component maximum eccentricity),
    the deepest level of any block's word BFS; nothing is unpacked."""
    return max(block.depth for block in _bfs_blocks(g, None))


def is_connected(g: SparseGraph) -> bool:
    return component_count(g) == 1


def component_count(g: SparseGraph) -> int:
    lone, _, offsets = components(adjacency_matrix(g))
    return lone.size + len(offsets) - 1


#: Frontier rows one step of ``_bfs_forest`` reads at a time.
_BFS_ROWS = 256


def _bfs_forest(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each node's component root and BFS parent in the pattern of the dense
    a + a^T, a root being its own parent."""
    n = a.shape[0]
    root, parent = np.full(n, -1), np.arange(n)
    for r in range(n):
        if root[r] >= 0:
            continue
        root[r] = r
        frontier = np.array([r])
        while frontier.size:
            found = []
            for rows in np.array_split(frontier, -(-frontier.size // _BFS_ROWS)):
                linked = (a[rows] != 0) | (a[:, rows].T != 0)
                new = np.flatnonzero(linked.any(axis=0) & (root < 0))
                root[new] = r
                parent[new] = rows[linked[:, new].argmax(axis=0)]
                found.append(new)
            frontier = np.concatenate(found)
    return root, parent


def _components_bytes(a: sp.csr_array, zeros: bool) -> int:
    """Bytes that ``components`` holds for a CSR a: csgraph's float64
    transpose of a, 16 bytes an entry, 8 more when it casts a's values to
    float64 and 16 more for a copy without a's stored zeros; and 40 bytes a
    node, for csgraph's 12 and then for the labels and the arrays the lists
    are cut from."""
    per_entry = 16 + 8 * (a.dtype != np.float64) + 16 * zeros
    return per_entry * a.nnz + 40 * a.shape[0]


def components(a: sp.csr_array | np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The connected components of the nonzero pattern of a + a^T, as
    (lone, grouped, offsets): the nodes of every one-node component in one
    ascending array, and the ascending nodes of each larger component one
    after another, in the order of their smallest nodes, component c being
    ``grouped[offsets[c]:offsets[c + 1]]``.

    The labels come from csgraph on a CSR a, or from ``_bfs_forest`` for a
    dense a, which is not copied into CSR; the groups come from one stable
    argsort and the label counts, so no component costs a Python object of
    its own.  csgraph reads a CSR a itself unless it stores zeros, and
    ResourceError is raised first when the bytes it holds
    (``_components_bytes``) exceed ``require_memory``'s bound, and again,
    once the labels give the number of components, when 40 bytes a node
    and 16 a listed component, for its offset and the sum it comes from,
    do.
    """
    if sp.issparse(a):
        # imported on first use: csgraph adds about 75 ms and 11 MB to every CLI start-up
        from scipy.sparse.csgraph import connected_components

        zeros = not a.data.all()
        require_memory(
            _components_bytes(a, zeros),
            f"the connected components of a {a.shape[0]} x {a.shape[1]} matrix of {a.nnz} stored entries",
        )
        pattern = a
        if zeros:  # csgraph reads every stored entry as an edge
            pattern = a.copy()
            pattern.eliminate_zeros()
        labels = connected_components(pattern, directed=False)[1]
    else:
        labels = _bfs_forest(a)[0]
    counts = np.bincount(labels)
    listed = counts[counts > 1]
    n = labels.size
    require_memory(40 * n + 16 * listed.size, f"{listed.size} components of {n} nodes are listed")
    size = counts[labels]
    order = np.argsort(labels, kind="stable")
    grouped = order[size[order] > 1]
    return np.flatnonzero(size == 1), grouped, np.concatenate([[0], np.cumsum(listed)])


def spmm(m: Matrix, x: np.ndarray) -> np.ndarray:
    """The product m @ x, by scipy for CSR and by BLAS for a dense m."""
    x = np.asarray(x)
    if x.shape[0] != m.shape[1]:
        raise InputError(
            f"shape mismatch: matrix is {m.shape[0]}x{m.shape[1]}, operand has"
            f" {x.shape[0]} rows"
        )
    return as_array(m) @ x
