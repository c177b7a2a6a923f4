"""Distance-shell decomposition and the PPR-weighted fused propagator.

A graph's reachable ordered pairs are partitioned into disjoint hop shells:
shell l holds exactly the pairs (i, j), i != j, at shortest-path distance l.
Each shell is symmetrically normalized after adding self-loops, and the
shells are combined with geometrically decaying coefficients into a single
propagation operator P, built once and applied as one product.  Shells,
normalized shells and a sparse P are read-only scipy ``csr_array``s with
int64 indices, built with scipy algebra and canonicalized by
``graph.from_array``, except where a shell or P is written in order
straight into its CSR buffers.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, InputError
from .graph import (
    DenseMatrix,
    Matrix,
    SparseGraph,
    _bfs_levels,
    diameter,
    from_array,
    frozen_csr,
    is_symmetric,
    spmm,
    stores_dense,
)


@dataclass(frozen=True, eq=False)
class ShellDecomposition:
    """Ordered disjoint distance shells T_1..T_L of one graph.

    ``shells[l-1]`` is the binary read-only csr_array of ordered pairs at
    distance exactly l; the diagonal is empty in every shell.  For a
    connected graph the shell sizes sum to n*(n-1).  Trailing levels past
    the largest realized distance are never materialized.
    """

    n: int
    shells: tuple[sp.csr_array, ...]
    l_max: int
    shell_sizes: tuple[int, ...]


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

    binary: tuple[sp.csr_array, ...]

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


def shell_decompose(g: SparseGraph, l_cap: int | None = None) -> ShellDecomposition:
    """Partition all reachable ordered pairs into exact-distance shells.

    One bit-parallel BFS per source, in blocks of sources; each level's new
    pairs go to its shell in row-major order and blocks come in ascending
    source order, so the result is deterministic.  ``l_cap`` truncates the
    decomposition at that depth.
    """
    if l_cap is not None and l_cap < 1:
        raise InputError(f"l_cap must be >= 1 when given, got {l_cap}")
    row_counts = defaultdict(lambda: np.zeros(g.n, dtype=np.int64))
    buckets = defaultdict(list)
    for sources, level, new in _bfs_levels(g, l_cap):
        if level:
            row_counts[level][sources] = np.count_nonzero(new, axis=1)
            buckets[level].append(np.flatnonzero(new) % g.n)
    shells = []
    for level in sorted(buckets):
        offsets = np.zeros(g.n + 1, dtype=np.int64)
        np.cumsum(row_counts[level], out=offsets[1:])
        cols = np.concatenate(buckets[level])
        shells.append(frozen_csr(np.ones(len(cols)), cols, offsets))
    sizes = tuple(t.nnz for t in shells)
    return ShellDecomposition(g.n, tuple(shells), len(shells), sizes)


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


def _fuse(n: int, theta: np.ndarray, binary: tuple[sp.csr_array, ...]) -> Matrix:
    """P = sum_l theta_l * That_l, assembled in one pass from the binary T_l.

    With r = (k + 1)**-1/2, k each node's degree in T_l, That_l holds
    r[i] * r[j] at each entry (i, j) of T_l and r**2 on its diagonal, as
    ``normalize_shell`` gives.  A pair lies in one shell only, so each
    off-diagonal entry is written once; the diagonal sums every level up
    to l_max, also past a node's own eccentricity.

    P stores its diagonal and every shell entry, and ``graph.stores_dense``
    carries it dense when the n x n float64 array takes no more bytes than
    those entries in CSR, as a connected graph at full diameter always does.
    Otherwise row i of the CSR P stores its diagonal first, then its entries
    in shells 1, 2, ... in turn, which fixes the per-row summation order of
    every product.
    """
    stored = n + sum(t.nnz for t in binary)
    degrees = [np.diff(t.indptr) for t in binary]
    dense = stores_dense((n, n), stored)
    if dense:
        p = np.zeros((n, n))
    else:
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
        rows = np.repeat(np.arange(n), k)
        shell_vals = theta_l * (r[rows] * r[t.indices])
        if dense:
            p[rows, t.indices] = shell_vals
            continue
        dest = np.arange(t.nnz) + np.repeat(cursor - t.indptr[:-1], k)
        cols[dest] = t.indices
        vals[dest] = shell_vals
        cursor += k
    if dense:
        np.fill_diagonal(p, diag)
        return DenseMatrix(p)
    vals[offsets[:-1]] = diag
    return frozen_csr(vals, cols, offsets)


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
    """JSON-ready shell summary: sizes, per-layer average degree, diameter."""
    d = shell_decompose(g, l_cap)
    # a decomposition that stops short of its cap has already found the diameter
    capped = l_cap is not None and d.l_max == l_cap
    return {
        "n": g.n,
        "l_max": d.l_max,
        "shell_sizes": list(d.shell_sizes),
        "avg_degree_per_layer": shell_degree_profile(d),
        "diameter": diameter(g) if capped else d.l_max,
    }
