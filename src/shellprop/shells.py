"""Distance-shell decomposition and the PPR-weighted fused propagator.

A graph's reachable ordered pairs are partitioned into disjoint hop shells:
shell l holds exactly the pairs (i, j), i != j, at shortest-path distance l.
Each shell is symmetrically normalized after adding self-loops, and the
shells are combined with geometrically decaying coefficients into a single
propagation operator P, built once and applied as one product.  Shells,
normalized shells and a sparse P are read-only scipy ``csr_array``s with
int64 indices, built with scipy algebra and canonicalized by
``graph.from_array``, except where a shell or P is written in order
straight into its CSR buffers.  A dense P at full diameter is filled from
one hop-distance matrix, and its shells are built only when read.
"""
from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, InputError
from .graph import (
    DenseMatrix,
    Matrix,
    SparseGraph,
    _bfs_levels,
    _freeze,
    adjacency_matrix,
    components,
    diameter,
    from_array,
    frozen_csr,
    is_symmetric,
    require_memory,
    spmm,
    stores_dense,
)

#: Rows of P that one step of ``_dense_fill`` writes.
_FILL_ROWS = 256


@dataclass(frozen=True, eq=False)
class ShellDecomposition:
    """Ordered disjoint distance shells T_1..T_L of one graph.

    ``shells[l-1]`` is the binary read-only csr_array of ordered pairs at
    distance exactly l; the diagonal is empty in every shell.  For a
    connected graph the shell sizes sum to n*(n-1).  Trailing levels past
    the largest realized distance are never materialized.

    ``shells`` is a tuple of those arrays, except where ``shell_decompose``
    ran to full diameter and P is carried dense: there it is a read-only
    ``_DistanceShells`` sequence over one n x n distance matrix, which
    builds T_l anew on each read (a slice gives a tuple), and
    ``fuse_shells`` fills P from the distances without building a shell.
    """

    n: int
    shells: Sequence[sp.csr_array]
    l_max: int
    shell_sizes: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class _DistanceShells(Sequence):
    """The binary shells T_1..T_L of a distance matrix, built on each read.

    ``distances[i, j]`` is the hop distance of (i, j), 0 for i = j and for
    an unreachable pair, in the narrowest unsigned type that holds the
    largest level the BFS could reach; ``row_counts[l-1]`` is each row's
    entry count in T_l, int64.  Both are read-only.
    """

    distances: np.ndarray
    row_counts: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.row_counts)

    def __getitem__(self, l):
        if isinstance(l, slice):
            return tuple(self[i] for i in range(*l.indices(len(self))))
        level = range(1, len(self) + 1)[l]
        offsets = np.zeros(len(self.distances) + 1, dtype=np.int64)
        np.cumsum(self.row_counts[level - 1], out=offsets[1:])
        cols = np.nonzero(self.distances == level)[1]
        return frozen_csr(np.ones(len(cols)), cols, offsets)


@dataclass(frozen=True, eq=False)
class FusedPropagator:
    """The fused operator P = sum_l theta_l * That_l, held as one matrix.

    ``normalized_shells`` are the That_l of a ``fuse_shells`` result, a view
    that normalizes each binary shell anew on every read, and
    ``coefficients[l-1]`` is the weight theta_l.  ``matrix`` is P, assembled
    on construction: symmetric and non-negative, with a positive diagonal
    whenever there is a shell.  It is a DenseMatrix when the n x n array
    takes no more bytes than CSR would, else a read-only csr_array.
    """

    n: int
    normalized_shells: _NormalizedShells
    coefficients: np.ndarray
    alpha: float
    matrix: Matrix = field(init=False)

    def __post_init__(self) -> None:
        theta = np.array(self.coefficients, dtype=np.float64)
        theta.flags.writeable = False
        object.__setattr__(self, "coefficients", theta)
        shells = self.normalized_shells
        if not isinstance(shells, _NormalizedShells) or len(shells) != len(theta):
            raise InputError(
                "normalized_shells must be those of a fuse_shells result,"
                f" one per coefficient ({len(theta)} given)"
            )
        object.__setattr__(self, "matrix", _fuse(self.n, theta, shells.binary))


@dataclass(frozen=True)
class _NormalizedShells:
    """A sequence of the That_l of binary shells, normalized anew on each read."""

    binary: Sequence[sp.csr_array]

    def __len__(self) -> int:
        return len(self.binary)

    def __getitem__(self, l: int) -> sp.csr_array:
        return normalize_shell(self.binary[l])


def cumulative_matrix(g: SparseGraph, l: int) -> sp.csr_array:
    """Binary reachability-within-l matrix: entry (i, j) iff dist(i, j) <= l.

    The identity plus the union of the shells up to l.  The diagonal is
    always present (dist(i, i) = 0), and l = 0 yields the identity.
    """
    if l < 0:
        raise InputError(f"hop count must be non-negative, got {l}")
    union = shell_union(shell_decompose(g, l)) if l else sp.csr_array((g.n, g.n))
    return from_array(sp.eye_array(g.n) + union)


def _check_cap(l_cap: int | None) -> None:
    if l_cap is not None and l_cap < 1:
        raise InputError(f"l_cap must be >= 1 when given, got {l_cap}")


def shell_decompose(g: SparseGraph, l_cap: int | None = None) -> ShellDecomposition:
    """Partition all reachable ordered pairs into exact-distance shells.

    One bit-parallel BFS per source, in blocks of sources in ascending
    order, so the result is deterministic.  ``l_cap`` truncates the
    decomposition at that depth.

    At full diameter P stores exactly sum |C|**2 entries over the connected
    components C, so the components fix P's carrier before any BFS.  Where
    it is dense, the levels go into one distance matrix
    (``_distance_decompose``).  Otherwise, and under ``l_cap``, each
    level's new pairs go to its shell in row-major order, and ResourceError
    is raised before a level's pairs are appended once all pairs stored so
    far, 16 bytes each, exceed ``require_memory``'s bound.
    """
    _check_cap(l_cap)
    if l_cap is None:
        lone, groups = components(adjacency_matrix(g))
        if stores_dense((g.n, g.n), lone.size + sum(c.size**2 for c in groups)):
            return _distance_decompose(g)
    row_counts = defaultdict(lambda: np.zeros(g.n, dtype=np.int64))
    buckets = defaultdict(list)
    stored = 0
    for sources, level, new in _bfs_levels(g, l_cap):
        if level:
            counts = np.count_nonzero(new, axis=1)
            stored += int(counts.sum())
            require_memory(16 * stored, f"the shells of {g.n} nodes store {stored} pairs")
            row_counts[level][sources] = counts
            buckets[level].append(np.flatnonzero(new) % g.n)
    shells = []
    for level in sorted(buckets):
        offsets = np.zeros(g.n + 1, dtype=np.int64)
        np.cumsum(row_counts[level], out=offsets[1:])
        cols = np.concatenate(buckets[level])
        shells.append(frozen_csr(np.ones(len(cols)), cols, offsets))
    sizes = tuple(t.nnz for t in shells)
    return ShellDecomposition(g.n, tuple(shells), len(shells), sizes)


def _distance_decompose(g: SparseGraph) -> ShellDecomposition:
    """The full-diameter decomposition as one n x n distance matrix and its
    per-level row counts (``_DistanceShells``).

    ResourceError is raised before the first BFS block, and again before
    the row counts of each new level are allocated, when what this
    decomposition and the dense P of ``_fuse`` hold at L levels exceeds
    ``require_memory``'s bound (``_distance_bytes``).  The check grows with
    the levels found rather than bounding L by n - 1 up front, which would
    count 16 n**2 bytes of row counts that a graph of small diameter never
    holds.
    """
    n = g.n
    what = f"a dense P of {n} nodes is filled from their hop distances"
    require_memory(_distance_bytes(n, 0), f"{what} before any level")
    distances = np.zeros((n, n), dtype=np.uint8)
    row_counts = []
    for sources, level, new in _bfs_levels(g, None):
        if not level:
            continue
        if level > len(row_counts):
            require_memory(_distance_bytes(n, level), f"{what} at {level} levels")
            if level > np.iinfo(distances.dtype).max:
                distances = distances.astype(np.min_scalar_type(level))
            row_counts.append(np.zeros(n, dtype=np.int64))
        row_counts[level - 1][sources] = np.count_nonzero(new, axis=1)
        distances[sources[0] : sources[-1] + 1].reshape(-1)[np.flatnonzero(new)] = level
    _freeze(distances, *row_counts)
    sizes = tuple(int(k.sum()) for k in row_counts)
    return ShellDecomposition(n, _DistanceShells(distances, tuple(row_counts)), len(sizes), sizes)


def _distance_bytes(n: int, levels: int) -> int:
    """Bytes that a distance-backed decomposition of n nodes at ``levels``
    levels and the dense P filled from it hold together.

    With L = ``levels`` and b = min(256, n): n**2 bytes of uint8 distances,
    or (1 + w) n**2 once L passes 255, the uint8 matrix and its copy widened
    to w bytes a pair; 8 n L of int64 row counts; 8 n**2 of P; 8 n (L + 3)
    for the fill's table of r_l, its diagonal and column ids; and 32 b n
    for one fill block: an intp index and two float64 operands of b x n,
    and the intp copy of the block's distances that ``np.take`` makes.
    """
    width = 1 if levels <= 255 else 1 + np.min_scalar_type(levels).itemsize
    return width * n * n + 8 * n * n + 8 * n * (2 * levels + 3) + 32 * min(_FILL_ROWS, n) * n


def normalize_shell(t: sp.csr_array) -> sp.csr_array:
    """Symmetric normalization of a binary shell with self-loops added.

    Returns D^{-1/2} (T + I) D^{-1/2} where D is the row-degree diagonal of
    T + I.  The output is symmetric and non-negative with spectral radius
    at most 1; there is no fixed row-sum contract.
    """
    if t.shape[0] != t.shape[1]:
        raise InputError("shell matrix must be square")
    if not is_symmetric(t):
        raise InputError("shell matrix must be structurally symmetric")
    if t.nnz and not np.all(t.data == 1.0):
        raise InputError("shell matrix must be binary")
    if np.any(t.diagonal() != 0):
        raise InputError("shell matrix must have an empty diagonal")
    d = sp.diags_array(1.0 / np.sqrt(np.diff(t.indptr) + 1.0))
    return from_array(d @ (t + sp.eye_array(t.shape[0])) @ d)


def ppr_coefficients(alpha: float, l_max: int) -> np.ndarray:
    """Decay coefficients (1 - 1/alpha)**l for l = 1..l_max (empty at 0)."""
    if not np.isfinite(alpha) or alpha <= 1.0:
        raise ConfigError(
            f"alpha must be > 1 (got {alpha}): at alpha = 1 every decay"
            " coefficient (1 - 1/alpha)**l vanishes and the propagator"
            " annihilates all input"
        )
    if l_max < 0:
        raise ConfigError(f"l_max must be >= 0, got {l_max}")
    base = 1.0 - 1.0 / alpha
    return base ** np.arange(1, l_max + 1, dtype=np.float64)


def _fuse(n: int, theta: np.ndarray, binary: Sequence[sp.csr_array]) -> Matrix:
    """P = sum_l theta_l * That_l, assembled in one pass from the binary T_l.

    With r = (k + 1)**-1/2, k each node's degree in T_l, That_l holds
    r[i] * r[j] at each entry (i, j) of T_l and r**2 on its diagonal, as
    ``normalize_shell`` gives.  A pair lies in one shell only, so each
    off-diagonal entry is written once; the diagonal sums every level up
    to l_max, also past a node's own eccentricity.

    P stores its diagonal and every shell entry, and ``graph.stores_dense``
    carries it dense when the n x n float64 array takes no more bytes than
    those entries in CSR, as a connected graph at full diameter always does.
    A dense P is filled by ``_dense_fill`` from a distance matrix: that of
    ``_DistanceShells``, or one the shells are written into first, a later
    shell over an earlier one.  Otherwise row i of the CSR P stores its
    diagonal first, then its entries in shells 1, 2, ... in turn, which
    fixes the per-row summation order of every product.
    """
    if isinstance(binary, _DistanceShells):
        # shell_decompose makes these only where this byte rule picks dense
        return DenseMatrix(_dense_fill(binary.distances, binary.row_counts, theta))
    degrees = [np.diff(t.indptr) for t in binary]
    if stores_dense((n, n), n + sum(t.nnz for t in binary)):
        distances = np.zeros((n, n), dtype=np.min_scalar_type(len(binary)))
        for level, (t, k) in enumerate(zip(binary, degrees), start=1):
            distances[np.repeat(np.arange(n), k), t.indices] = level
        return DenseMatrix(_dense_fill(distances, degrees, theta))
    offsets = np.zeros(n + 1, dtype=np.int64)
    offsets[1:] = np.cumsum(sum(degrees, np.ones(n, dtype=np.int64)))
    cols = np.empty(offsets[-1], dtype=np.int64)
    vals = np.empty(offsets[-1], dtype=np.float64)
    cols[offsets[:-1]] = np.arange(n)
    cursor = offsets[:-1] + 1
    diag = np.zeros(n)
    for theta_l, t, k in zip(theta, binary, degrees):
        r = 1.0 / np.sqrt(k + 1.0)
        diag += theta_l * (r * r)
        dest = np.arange(t.nnz) + np.repeat(cursor - t.indptr[:-1], k)
        cols[dest] = t.indices
        vals[dest] = theta_l * (r[np.repeat(np.arange(n), k)] * r[t.indices])
        cursor += k
    vals[offsets[:-1]] = diag
    return frozen_csr(vals, cols, offsets)


def _dense_fill(
    distances: np.ndarray, degrees: Sequence[np.ndarray], theta: np.ndarray
) -> np.ndarray:
    """The dense P of a distance matrix (0 for i = j and for an unreachable
    pair) and each level's row degrees, in blocks of rows.

    Off the diagonal P[i, j] = theta_d * (r_d[i] * r_d[j]) for d the
    distance of (i, j), and 0 where d is 0; the diagonal sums
    theta_l * (r_l * r_l) over l = 1..l_max in order.  These are the
    operations, in the same order, of the CSR branch of ``_fuse`` and of
    ``normalize_shell``'s values, so both carriers hold the same bits.
    """
    n = len(distances)
    r = np.ones((len(theta) + 1, n))
    diag = np.zeros(n)
    for level, (theta_l, k) in enumerate(zip(theta, degrees), start=1):
        r[level] = 1.0 / np.sqrt(k + 1.0)
        diag += theta_l * (r[level] * r[level])
    weight = np.concatenate([[0.0], theta])
    cols = np.arange(n)
    p = np.empty((n, n))
    for start in range(0, n, _FILL_ROWS):
        d = distances[start : start + _FILL_ROWS]
        rows = np.arange(start, start + len(d))[:, None]
        # flat positions in r of (d, i) and then of (d, j)
        at = d.astype(np.intp)
        at *= n
        at += rows
        r_i = np.take(r, at)
        at -= rows
        at += cols
        r_j = np.take(r, at)
        del at
        np.multiply(r_i, r_j, out=r_i)
        np.multiply(np.take(weight, d, out=r_j, mode="clip"), r_i, out=p[start : start + len(d)])
    np.fill_diagonal(p, diag)
    return p


def fuse_shells(decomposition: ShellDecomposition, alpha: float) -> FusedPropagator:
    """The fused propagator of a decomposition; its That_l are not kept beside P."""
    theta = ppr_coefficients(alpha, decomposition.l_max)
    shells = _NormalizedShells(decomposition.shells)
    return FusedPropagator(decomposition.n, shells, theta, float(alpha))


def fused_propagate(p: FusedPropagator, z: np.ndarray) -> np.ndarray:
    """Apply the fused operator: P @ z (also the adjoint, as P is symmetric)."""
    return spmm(p.matrix, np.asarray(z, dtype=np.float64))


def shell_degree_profile(d: ShellDecomposition) -> list[float]:
    """Average degree of each shell: entry count divided by node count."""
    return [size / d.n for size in d.shell_sizes]


def shell_union(d: ShellDecomposition) -> sp.csr_array:
    """Binary union of all shells: every reachable ordered pair, i != j."""
    return from_array(sum(d.shells, sp.csr_array((d.n, d.n))))


def shell_report(g: SparseGraph, l_cap: int | None = None) -> dict:
    """JSON-ready shell summary: sizes, per-layer average degree, diameter.

    The sizes and l_max are those of ``shell_decompose(g, l_cap)``, counted
    level by level from the BFS stream, so no pair is stored.
    """
    _check_cap(l_cap)
    counts = defaultdict(int)
    for _, level, new in _bfs_levels(g, l_cap):
        counts[level] += int(np.count_nonzero(new))
    sizes = [counts[level] for level in range(1, len(counts))]
    # a stream that stops short of its cap has already found the diameter
    capped = l_cap is not None and len(sizes) == l_cap
    return {
        "n": g.n,
        "l_max": len(sizes),
        "shell_sizes": sizes,
        "avg_degree_per_layer": [size / g.n for size in sizes],
        "diameter": diameter(g) if capped else len(sizes),
    }
