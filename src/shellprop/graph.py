"""Immutable graph and matrix types, BFS distance machinery, and products.

Graphs are undirected, unweighted and simple; every edge is stored in both
directions with column indices sorted inside each row.  A real matrix is
carried as a CSR ``SparseMatrix`` or, where that takes fewer bytes, a
``DenseMatrix``; both hand their products to ``array``, a scipy CSR array or
a plain 2-D float64 numpy array.  All containers here are frozen and their
buffers are marked read-only, so they are safe to share across threads and
worker processes.
"""
from __future__ import annotations

import io
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator

import numpy as np
import scipy.sparse as sp

from .errors import InputError

#: Sentinel distance, strictly greater than any valid hop count.
UNREACHABLE = int(np.iinfo(np.int32).max)

_BFS_BLOCK = 256


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


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
    def _scipy(self) -> sp.csr_array:
        data = np.ones(self.col_indices.shape[0], dtype=np.float64)
        return sp.csr_array(
            (data, self.col_indices, self.row_offsets), shape=(self.n, self.n)
        )

    def to_scipy(self) -> sp.csr_array:
        """Binary adjacency as a scipy CSR array (shared, do not mutate)."""
        return self._scipy


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """Real-valued CSR matrix used as the carrier for shells and propagators."""

    n_rows: int
    n_cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        _freeze(self.row_offsets, self.col_indices, self.values)

    @property
    def nnz(self) -> int:
        return int(self.col_indices.shape[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @cached_property
    def array(self) -> sp.csr_array:
        """The matrix as a scipy CSR array (shared, do not mutate)."""
        # csr_array keeps the int64 index arrays and shares them, where
        # csr_matrix makes int32 copies
        return sp.csr_array(
            (self.values, self.col_indices, self.row_offsets),
            shape=(self.n_rows, self.n_cols),
        )

    def to_dense(self) -> np.ndarray:
        return self.array.toarray()

    def row_entries(self) -> np.ndarray:
        """Row index of every stored entry (COO expansion of the pointers)."""
        return np.repeat(
            np.arange(self.n_rows, dtype=np.int64), np.diff(self.row_offsets)
        )

    def diagonal(self) -> np.ndarray:
        return self.array.diagonal()

    @staticmethod
    def from_coo(
        rows: np.ndarray, cols: np.ndarray, values: np.ndarray, shape: tuple[int, int]
    ) -> "SparseMatrix":
        """Build a CSR matrix from coordinate triplets.

        Entries are sorted row-major and duplicates are summed.
        """
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        return from_array(sp.csr_matrix((values, (rows, cols)), shape=shape))

    @staticmethod
    def identity(n: int) -> "SparseMatrix":
        idx = np.arange(n, dtype=np.int64)
        return SparseMatrix(
            n,
            n,
            np.arange(n + 1, dtype=np.int64),
            idx,
            np.ones(n, dtype=np.float64),
        )


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

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @cached_property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.values))

    @property
    def array(self) -> np.ndarray:
        """The read-only values themselves."""
        return self.values

    def to_dense(self) -> np.ndarray:
        return self.values.copy()

    def diagonal(self) -> np.ndarray:
        return self.values.diagonal().copy()


#: Either carrier of a real matrix; products go through its ``array``.
Matrix = SparseMatrix | DenseMatrix


def from_array(a) -> Matrix:
    """The carrier of an ``array``: a scipy sparse array or a 2-D array.

    A sparse input is put in canonical CSR form (duplicates summed, rows
    sorted) with int64 indices; anything else is copied into a DenseMatrix.
    """
    if not sp.issparse(a):
        return DenseMatrix(np.array(a, dtype=np.float64))
    m = sp.csr_matrix(a)
    m.sum_duplicates()
    m.sort_indices()
    return SparseMatrix(
        m.shape[0],
        m.shape[1],
        m.indptr.astype(np.int64),
        m.indices.astype(np.int64),
        m.data.astype(np.float64),
    )


def build_graph(edges, n: int) -> SparseGraph:
    """Build a SparseGraph from a raw edge list.

    The input may contain duplicates, self-loops, and single-direction
    entries; the result is symmetrized, deduplicated, and self-loop free.

    Parameters
    ----------
    edges : sequence of (u, v) pairs or (m, 2) array
        Node ids in [0, n).
    n : int
        Node count.
    """
    if n <= 0:
        raise InputError(f"node count must be positive, got {n}")
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


def adjacency_matrix(g: SparseGraph) -> SparseMatrix:
    """The graph's binary adjacency as a SparseMatrix (values all 1.0)."""
    return SparseMatrix(
        g.n,
        g.n,
        g.row_offsets,
        g.col_indices,
        np.ones(g.col_indices.shape[0], dtype=np.float64),
    )


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


def distance_blocks(
    g: SparseGraph, cap: int | None = None, block_size: int = _BFS_BLOCK
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stream all-pairs hop distances as (sources, dist_block) chunks.

    Runs one BFS per source, vectorized across a block of sources via sparse
    frontier products.  ``dist_block`` has shape (len(sources), n) with
    UNREACHABLE beyond ``cap`` levels or outside the component.  Blocks are
    yielded in ascending source order, so concatenated output is identical
    regardless of scheduling.
    """
    a = g.to_scipy()
    for start in range(0, g.n, block_size):
        sources = np.arange(start, min(start + block_size, g.n), dtype=np.int64)
        b = len(sources)
        dist = np.full((b, g.n), UNREACHABLE, dtype=np.int32)
        dist[np.arange(b), sources] = 0
        frontier = np.zeros((g.n, b), dtype=np.float64)
        frontier[sources, np.arange(b)] = 1.0
        unseen = dist.T == UNREACHABLE
        level = 0
        while cap is None or level < cap:
            level += 1
            reached = a @ frontier
            new = (reached > 0) & unseen
            if not new.any():
                break
            dist.T[new] = level
            unseen &= ~new
            frontier = new.astype(np.float64)
        yield sources, dist


def distance_matrix(g: SparseGraph, cap: int | None = None) -> np.ndarray:
    """Full all-pairs distance matrix (n x n, int32, UNREACHABLE sentinel)."""
    return np.concatenate([block for _, block in distance_blocks(g, cap=cap)])


def diameter(g: SparseGraph) -> int:
    """Largest finite pairwise distance (per-component maximum eccentricity)."""
    best = 0
    for _, block in distance_blocks(g):
        finite = np.where(block == UNREACHABLE, -1, block)
        best = max(best, int(finite.max()))
    return best


def is_connected(g: SparseGraph) -> bool:
    return component_count(g) == 1


def component_count(g: SparseGraph) -> int:
    # imported on first use: csgraph adds about 75 ms and 11 MB to every CLI
    # start-up, and no CLI command counts components
    from scipy.sparse.csgraph import connected_components

    return int(connected_components(g.to_scipy(), directed=False, return_labels=False))


def spmm(m: Matrix, x: np.ndarray) -> np.ndarray:
    """The product m @ x, by scipy for CSR and by BLAS for a dense m."""
    x = np.asarray(x)
    if x.shape[0] != m.n_cols:
        raise InputError(
            f"shape mismatch: matrix is {m.n_rows}x{m.n_cols}, operand has"
            f" {x.shape[0]} rows"
        )
    return m.array @ x


def is_symmetric(m: SparseMatrix) -> bool:
    if m.n_rows != m.n_cols:
        return False
    d = m.array - m.array.T
    return (d != 0).nnz == 0
