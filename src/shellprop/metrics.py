"""Aggregation-redundancy diagnostics and classical propagators.

Two measurements drive everything here.  The aggregation count of a matrix
at depth l is the mean total mass of its l-th power, (1/N) * sum_ij M^l_ij.
The self-attention score at depth k is the mean fraction of each row's mass
sitting on the diagonal of M^k; for the classical symmetric and random-walk
propagators of a connected graph it converges to 1/N as k grows, which is
what the trajectory helpers verify numerically.

The classical propagators read the one-level record of hop levels of the
graph's own adjacency, the kind of record the fused operator is filled on,
through the shells' one checked reader, in reads that take no level and
share the record's column indices: ``sym`` is its normalized read, r[i] *
r[j] with r = (k + 1)**-1/2 on A + I's pattern, which is its That_1, and
``rw`` puts 1/(k_i + 1) on row i of that pattern.  A residual
beta M + (1 - beta) I is built in M's carrier, checked first.

The aggregation count takes l sparse matrix-vector products.  The
trajectory reads depth 1 off M's own diagonal, with no decomposition.
Deeper depths decompose a symmetric matrix once per connected component,
M itself or the symmetric S that a diagonal similarity carries M to (for
``rw``, written over M's dense block), by LAPACK's divide-and-conquer
``syevd``, which writes the eigenvectors over that block but needs
2 |C|**2 doubles of workspace (``syevr``, which needs O(|C|), where only
that fits the memory limit), and read the diagonal of every power from
the eigenpairs.  Only the row sums are tracked, by one matrix-vector
product per depth.  A residual beta M + (1 - beta) I shares M's
eigenvectors, so ``_residual_trajectories`` reads it and M from one
decomposition.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, InputError, NumericError, ResourceError
from .graph import (
    _BFS_ROWS, DenseMatrix, Matrix, SparseGraph, _bfs_forest, adjacency_matrix, as_array,
    components, diameter, from_array, frozen_csr, hold, is_connected, require_memory,
)
from .shells import ShellDecomposition, _DistanceShells, _pattern, fuse_shells

#: float64 loses walk-count exactness past 2**53; n**(l+2) bounds every value
#: a binary matrix's walk count reaches, so that is the rejection test.
_WALK_COUNT_LIMIT_BITS = 53

SYM_NORM = "sym_norm"
RW_NORM = "rw_norm"
RESIDUAL = "residual"
FUSED_SHELL = "fused_shell"


@dataclass(frozen=True, eq=False)
class Propagator:
    """A named n x n non-negative propagation matrix."""

    matrix: Matrix
    kind: str


@dataclass(frozen=True, eq=False)
class MetricReport:
    """Self-attention trajectory plus its gap to the 1/N limit."""

    avg_nat: float
    sas_trajectory: list[tuple[int, float]]
    limit_gap: float


@dataclass(frozen=True, eq=False)
class AggregationBoundsVerdict:
    """Exact aggregation count at the diameter, checked against both bounds."""

    n: int
    diameter: int
    walk_total: int
    avg_nat: float
    lower_bound: float
    upper_bound: float
    lower_ok: bool
    upper_ok: bool

    @property
    def holds(self) -> bool:
        return self.lower_ok and self.upper_ok


def _adjacency_record(g: SparseGraph) -> _DistanceShells:
    """The one-level record of hop levels of g's own adjacency: each edge at
    level 1 and each (i, i) at level 0, so its pattern is that of A + I."""
    return ShellDecomposition(g.n, (adjacency_matrix(g),), 1, (2 * g.edge_count,)).shells


def sym_norm_propagator(g: SparseGraph) -> Propagator:
    """Symmetric normalization of the self-looped adjacency, SGC's S.

    It is the normalized read of the adjacency's record with its diagonal,
    which takes no level: the record's only levels are 0 and 1, so it is
    That_1 and shares the record's column indices.  With r = (k + 1)**-1/2
    for k each node's degree, entry (i, j) of A + I's pattern is r[i] * r[j],
    so the diagonal is 1/(k_i + 1).  ResourceError is raised before the
    record, or the read, is built when ``require_memory`` refuses it.
    """
    return Propagator(_pattern(_adjacency_record(g), diagonal=True, normalized=True), SYM_NORM)


def rw_norm_propagator(g: SparseGraph) -> Propagator:
    """Row-stochastic normalization of the self-looped adjacency: each entry
    of row i of A + I's pattern, read off the adjacency's record with its
    diagonal, is 1/(k_i + 1).  The record and the pattern are checked as
    ``sym_norm_propagator``'s are; the pattern's all-ones values are dropped
    before the rows' are made, which keeps the build within those checks."""
    pattern = _pattern(_adjacency_record(g), diagonal=True)
    indices, indptr = pattern.indices, pattern.indptr
    del pattern
    counts = np.diff(indptr)
    return Propagator(frozen_csr(np.repeat(1.0 / counts, counts), indices, indptr), RW_NORM)


def residual_propagator(p: Propagator, beta: float) -> Propagator:
    """Convex combination beta * P + (1 - beta) * I of a propagator, in P's
    carrier.

    A dense P's copy is scaled and its diagonal raised in place.  A CSR P's
    scaled values, on its own indices, are added by scipy to the CSR of the
    diagonal, in a sum with room for both operands' entries, which is then
    copied into canonical form (``from_array``).  ResourceError is raised
    before the first of these is built when ``require_memory`` refuses P
    and them: 16 n**2 bytes for a dense P, and 48 e + 56 n + 24 for a CSR P
    of e entries with int64 indices, its 16 e + 8 (n + 1) beside the larger
    of the sum's two steps: the scaled values, the diagonal and the sum,
    24 e + 48 n + 16, or the sum and its copy, at most 32 e + 48 n + 16.
    """
    if not 0.0 < beta < 1.0:
        raise ConfigError(f"beta must be strictly inside (0, 1), got {beta}")
    a, n = as_array(p.matrix), p.matrix.shape[0]
    if sp.issparse(a):
        require_memory(48 * a.nnz + 56 * n + 24, f"the residual of a CSR {n} x {n} matrix of {a.nnz} entries")
        merged = sp.csr_array((a.data * beta, a.indices, a.indptr), shape=a.shape) + frozen_csr(
            np.full(n, 1.0 - beta), np.arange(n), np.arange(n + 1)
        )
        return Propagator(from_array(merged), RESIDUAL)
    require_memory(16 * n * n, f"the residual of a dense {n} x {n} matrix")
    merged = a * beta
    merged.reshape(-1)[:: n + 1] += 1.0 - beta  # the diagonal, in place
    return Propagator(DenseMatrix(merged), RESIDUAL)


def fused_shell_propagator(
    decomposition: ShellDecomposition, alpha: float
) -> Propagator:
    """The fused shell operator P of ``fuse_shells`` as a named propagator."""
    return Propagator(fuse_shells(decomposition, alpha).matrix, FUSED_SHELL)


def _as_matrix(a: SparseGraph | Matrix) -> Matrix:
    return adjacency_matrix(a) if isinstance(a, SparseGraph) else a


def _is_binary(m: Matrix) -> bool:
    values = m.data if sp.issparse(m) else m.values
    return bool(np.all((values == 0.0) | (values == 1.0)))


def _walk_total(m: Matrix, l: int) -> int:
    """1^T M^l 1 of a binary matrix, by l products on a vector of Python ints."""
    rows, cols = as_array(m).nonzero()
    x = np.ones(m.shape[0], dtype=object)
    for _ in range(l):
        y = np.zeros(m.shape[0], dtype=object)
        np.add.at(y, rows, x[cols])
        x = y
    return int(x.sum())


def avg_nat(a: SparseGraph | Matrix, l: int, exact: bool = False) -> float:
    """Mean total mass of the l-th matrix power: (1/N) * sum_ij M^l_ij.

    Evaluated as 1^T M^l 1 by l matrix-vector products, so it costs
    l * nnz operations and O(n) memory and never forms the power.  Binary
    matrices count walks, and walk counts outgrow the 2**53 float64 integer
    range once n**(l+2) does (around 55 nodes at diameter-scale depths);
    pass ``exact=True`` to count in Python integers there.
    """
    m = _as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise InputError("avg_nat requires a square matrix")
    if l < 1:
        raise InputError(f"depth must be >= 1, got {l}")
    n = m.shape[0]
    binary = _is_binary(m)
    if exact:
        if not binary:
            raise InputError("exact mode requires a binary matrix")
        return float(Fraction(_walk_total(m, l), n))
    if binary and (l + 2) * np.log2(max(n, 2)) > _WALK_COUNT_LIMIT_BITS:
        raise NumericError(
            f"walk counts for n = {n}, depth {l} can exceed 2**53 and lose"
            " exactness in float64; re-run with exact=True"
        )
    a, x = as_array(m), np.ones(n)
    for _ in range(l):
        x = a @ x
    return float(x.sum() / n)


def sas(a: Matrix | Propagator, k: int) -> float:
    """Mean diagonal mass fraction of the k-th matrix power.

    The depth-k point of ``sas_trajectory``, with its cost, memory and
    accepted matrices.
    """
    return sas_trajectory(a, k).sas_trajectory[-1][1]


def _row_sums(sums: np.ndarray, k: int) -> np.ndarray:
    """``sums``, the row sums of the depth-k power, once each is finite and nonzero."""
    if not np.all(np.isfinite(sums)):
        bad = int(np.flatnonzero(~np.isfinite(sums))[0])
        raise NumericError(f"row {bad} of the depth-{k} power is non-finite")
    if np.any(sums == 0):
        bad = int(np.flatnonzero(sums == 0)[0])
        raise NumericError(f"row {bad} of the depth-{k} power sums to zero")
    return sums


def _not_similar(why: str) -> InputError:
    return InputError(
        "sas_trajectory needs a symmetric matrix or a diagonal similarity"
        f" diag(1/a) S diag(a) of one, but {why}"
    )


def _first(mask: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> tuple[int, int]:
    """The (row, column) of the first True entry of a block's mask, as the
    node ids ``rows`` and ``cols`` give them."""
    i, j = np.unravel_index(np.argmax(mask), mask.shape)
    return int(rows[i]), int(cols[j])


def _dense_block(a: sp.csr_array | np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """A fresh dense copy of a's rows and columns ``nodes``."""
    if nodes.size == a.shape[0]:
        return a.toarray() if sp.issparse(a) else a.copy()
    return a[nodes][:, nodes].toarray() if sp.issparse(a) else a[np.ix_(nodes, nodes)]


def _symmetric_block(m: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """m, the dense block of one connected component's ``nodes``, overwritten
    with the symmetric S of m = diag(1/a) S diag(a).

    m's pattern must be symmetric and m_ij, m_ji of one sign.  a is read off
    the ratios m_ij / m_ji = a_j**2 / a_i**2 along a BFS tree of the
    pattern, S = diag(a) m diag(1/a) is written over m, and S_ij is checked
    against S_ji on every entry to a relative 1e-10.  InputError names the
    first entry where a condition fails.
    """
    nonzero = m != 0
    lopsided = nonzero != nonzero.T
    if lopsided.any():
        i, j = _first(lopsided & nonzero, nodes, nodes)
        raise _not_similar(f"its pattern is not symmetric: ({i}, {j}) is nonzero, ({j}, {i}) is 0")
    del nonzero, lopsided
    crossed = (m < 0) != (m.T < 0)
    if crossed.any():
        i, j = _first(crossed, nodes, nodes)
        raise _not_similar(f"entries ({i}, {j}) and ({j}, {i}) differ in sign")
    del crossed
    # log a by pointer jumping: step[j] is log a_j - log a_up[j] until every
    # up[j] is the root, where log a is 0
    up = _bfs_forest(m)[1]
    step = np.zeros(len(m))
    child = np.flatnonzero(up != np.arange(len(m)))
    step[child] = 0.5 * np.log(m[up[child], child] / m[child, up[child]])
    while np.any(up != up[up]):
        step += step[up]
        up = up[up]
    scale = np.exp(step)
    m *= scale[:, None]
    m /= scale
    # S_ij against S_ji, a block of rows at a time with one float and one
    # bool temporary; 0 / 0 off the pattern is nan, which is never wrong
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, len(m), _BFS_ROWS):
            mirror = m[:, lo : lo + _BFS_ROWS].T
            gap = m[lo : lo + _BFS_ROWS] - mirror
            wrong = np.abs(np.divide(gap, mirror, out=gap), out=gap) > 1e-10
            if wrong.any():
                i, j = _first(wrong, nodes[lo:], nodes)
                raise _not_similar(
                    f"its ratios M_ij / M_ji are inconsistent around a cycle through ({i}, {j})"
                )
    return m


#: Depths whose diagonals one matrix product computes.
_DEPTH_BLOCK = 128
#: Bytes that each listed component's spectrum holds beside its arrays'
#: data: its tuple and list slot, its node view, its eigenvalue and
#: eigenvector array objects and its split point (about 490 under
#: tracemalloc).
_COMPONENT_BYTES = 512


def _decompose_bytes(c: int, driver: str) -> int:
    """Bytes held beside the dense blocks while a component of c nodes is
    made symmetric and decomposed by ``driver``: the larger of the row
    blocks that ``_bfs_forest`` and the S_ij check copy, about 20 bytes a
    pair over 256 rows, and the eigensolver's own -- ``syevd``'s workspace
    of 1 + 6c + 2c**2 doubles and 3 + 5c int32, or ``syevr``'s V apart in
    c**2 doubles and about 34c doubles of workspace -- with c eigenvalues."""
    solver = 8 * c * (2 * c + 10) if driver == "evd" else 8 * c * (c + 40)
    return max(solver, 20 * _BFS_ROWS * c)


def _power_diagonals(spectra, n: int, k_max: int):
    """diag(S^k) for k = 2..k_max, with S block diagonal and each block
    (nodes, eigenvalues, V * V) of ``spectra``, one product per block of
    depths and of S; V * V is None for a block of lone nodes, whose
    eigenvectors are the unit vectors."""
    for first in range(2, k_max + 1, _DEPTH_BLOCK):
        depths = np.arange(first, min(first + _DEPTH_BLOCK, k_max + 1))
        diagonals = np.empty((depths.size, n))
        for nodes, eigenvalues, squares in spectra:
            powers = eigenvalues ** depths[:, None]
            diagonals[:, nodes] = powers if squares is None else powers @ squares.T
        yield from diagonals


def _vetted(m: Matrix, k_max: int) -> tuple[sp.csr_array | np.ndarray, np.ndarray]:
    """What products of m read, and its row sums, once m is square, k_max
    is at least 1 and every row sum is finite and nonzero."""
    if m.shape[0] != m.shape[1]:
        raise InputError("sas_trajectory requires a square matrix")
    if k_max < 1:
        raise InputError(f"k_max must be >= 1, got {k_max}")
    a = as_array(m)
    # a non-finite entry makes its row sum non-finite, so this also vets M
    return a, _row_sums(a @ np.ones(m.shape[0]), 1)


def _spectrum(a: sp.csr_array | np.ndarray, k_max: int) -> list[tuple]:
    """The eigenpairs that depths 2..k_max read: a block (nodes, eigenvalues,
    V * V) per connected component of a's pattern, of its symmetric form
    S_C = V diag(lam) V^T, and one block of the lone nodes with V * V None.
    None is needed at k_max 1, so none is computed there.  The bytes the
    trajectory holds, with 16 a node for its id and eigenvalue and
    ``_COMPONENT_BYTES`` a listed component, are checked first, beside what
    a caller holds (``hold``)."""
    n = a.shape[0]
    depths = 24 * (min(k_max, _DEPTH_BLOCK) + 1) * n
    if k_max == 1:
        require_memory(depths, f"sas_trajectory holds one depth of a {n} x {n} matrix")
        return []
    lone, grouped, offsets = components(a)
    sizes = np.diff(offsets)
    largest = int(sizes.max(initial=0))
    held = 8 * int(sizes @ sizes) + 16 * n + _COMPONENT_BYTES * sizes.size + depths
    # syevd writes V over the block it decomposes but needs 2 |C|**2 doubles
    # of workspace; syevr keeps V apart in |C|**2, so it decomposes the
    # components that fit only that way
    what = (
        f"sas_trajectory holds the dense blocks of the {len(sizes)} connected"
        f" components of a {n} x {n} matrix and their eigenvectors"
    )
    try:
        driver = "evd"
        require_memory(held + _decompose_bytes(largest, driver), what)
    except ResourceError:
        driver = "evr"
        require_memory(held + _decompose_bytes(largest, driver), what)
    # imported on first use: scipy.linalg adds 80-155 ms to every CLI start-up
    from scipy.linalg import eigh

    # a lone node is its own eigenpair, eigenvalue M_ii and eigenvector 1
    spectra = [(lone, a.diagonal()[lone], None)]
    for start, end in zip(offsets[:-1], offsets[1:]):
        nodes = grouped[start:end]
        s = _dense_block(a, nodes)
        if not np.array_equal(s, s.T):
            s = _symmetric_block(s, nodes)
        # s is symmetric, so its transpose is the same matrix in the Fortran
        # order LAPACK works in, in place; syevd leaves V there
        eigenvalues, v = eigh(s.T, driver=driver, overwrite_a=True, check_finite=False)
        del s
        spectra.append((nodes, eigenvalues, np.square(v, out=v)))
    return spectra


def _read(
    a: sp.csr_array | np.ndarray, sums: np.ndarray, spectra, k_max: int, stop_tol: float | None
) -> MetricReport:
    """The trajectory of a, whose row sums are ``sums``: depth 1 from a's
    own diagonal, depths 2..k_max from ``spectra``."""
    n = a.shape[0]
    diagonals = chain([a.diagonal()], _power_diagonals(spectra, n, k_max))
    trajectory: list[tuple[int, float]] = []
    target = 1.0 / n
    for k, diagonal in enumerate(diagonals, start=1):
        if k > 1:
            sums = _row_sums(a @ sums, k)
        score = float(np.mean(diagonal / sums))
        trajectory.append((k, score))
        if stop_tol is not None and abs(score - target) < stop_tol:
            break
    gap = abs(trajectory[-1][1] - target)
    return MetricReport(avg_nat=float(sums.sum() / n), sas_trajectory=trajectory, limit_gap=gap)


def sas_trajectory(
    p: Propagator | Matrix, k_max: int, stop_tol: float | None = None
) -> MetricReport:
    """Self-attention scores at every depth 1..k_max plus the gap to 1/N.

    ``stop_tol`` ends the sweep early once the score is within that distance
    of 1/N, recording the trajectory up to the entry point.

    Depth 1 is read, not decomposed: its score is mean(diag(M) / M 1), for
    any square M.  Deeper scores need M symmetric, as ``sym_norm``,
    ``residual``, ``fused_shell`` and raw adjacency are, or a diagonal
    similarity diag(1/a) S diag(a) of a symmetric S, as ``rw_norm`` is; any
    other matrix raises InputError naming an entry.  Each connected
    component of M's pattern is decomposed apart, S_C = V diag(lam) V^T
    (LAPACK's divide-and-conquer ``syevd``), and on its nodes
    diag(M^k) = diag(S^k) = (V * V) lam**k, a block of depths per matrix
    product.  The row sums are M^k 1, one matrix-vector product per depth,
    so an empty row sums to exactly 0 and raises NumericError naming the
    row and depth.  A diagonal entry is off by about n * eps * max|lam|**k
    of its own component, whose row sums of a non-negative M grow at that
    rate too, so rounding in a component with a large spectral radius never
    reaches the scores of another.

    Memory is checked by ``require_memory`` before any dense block
    (ResourceError).  A block of D = min(k_max, 128) depths holds
    diagonals, powers and their product, at most 24 D n bytes, beside 24 n
    of row sums, a diagonal and their ratio; at k_max 1 these 48 n are all
    the check counts.  Past depth 1 the components are found first.  Each
    component C of two or more nodes keeps its squared eigenvectors,
    8 |C|**2 bytes, in the dense block it was copied into: for ``rw`` S is
    written over that copy, and ``syevd`` writes V over S.  Every node keeps
    its id and its eigenvalue, 16 n bytes, and each of the K listed
    components about 512 bytes of objects: its tuple, node view, array
    objects and split point.  The one being decomposed holds ``syevd``'s
    workspace beside them, 1 + 6 |C| + 2 |C|**2 doubles and 3 + 5 |C|
    int32, and its |C| eigenvalues.  So the check is 8 (sum |C|**2 +
    2 max |C|**2 + 10 max |C|) + 16 n + 512 K + 24 (D + 1) n bytes.  When
    that exceeds the memory limit the components go to ``syevr`` instead,
    which keeps V apart in |C|**2 doubles beside about 34 |C| of workspace,
    and the check is 8 (sum |C|**2 + max |C|**2 + 40 max |C|) + 16 n +
    512 K + 24 (D + 1) n; the largest component that fits is the one
    ``syevr`` alone fits.  Below a few hundred nodes, 20 * 256 max |C|
    bytes, the row blocks the symmetric-form checks copy, stand in for the
    solver's bytes when larger.
    """
    m = p.matrix if isinstance(p, Propagator) else p
    a, sums = _vetted(m, k_max)
    return _read(a, sums, _spectrum(a, k_max), k_max, stop_tol)


def _residual_trajectories(
    p: Propagator, beta: float, k_max: int
) -> tuple[MetricReport, MetricReport]:
    """``sas_trajectory`` of ``residual_propagator(p, beta)`` and of p, from
    one decomposition of p.

    beta M + (1 - beta) I is a diagonal similarity of beta S + (1 - beta) I
    by the same a as M is of S, and that matrix has S's eigenvectors and the
    eigenvalues beta lam + 1 - beta.  So both trajectories read p's
    spectrum, and the residual's scores equal those of its own
    decomposition to rounding.  p's trajectory is read first; then each
    eigenvalue array is shifted in place, so no second spectrum is held.
    Costs and checks are those of one ``sas_trajectory`` and the residual
    matrix, which is held (``hold``) beside p's spectrum and read by its
    products.
    """
    residual = residual_propagator(p, beta)
    r, r_sums = _vetted(residual.matrix, k_max)
    a, sums = _vetted(p.matrix, k_max)
    for array in (r.data, r.indices, r.indptr) if sp.issparse(r) else (r,):
        hold(array)  # freed with the residual on return
    spectra = _spectrum(a, k_max)
    baseline = _read(a, sums, spectra, k_max, None)
    for _, lam, _ in spectra:
        lam *= beta
        lam += 1.0 - beta
    return _read(r, r_sums, spectra, k_max, None), baseline


def aggregation_bounds_check(g: SparseGraph) -> AggregationBoundsVerdict:
    """Check N-1 <= avg_nat(A, diameter) < 2**(N-2) with exact arithmetic.

    Walk totals are counted in Python integers, so the comparisons are
    exact.  The strict upper bound does not hold for every connected graph
    (chains exceed it), and the verdict reports each bound separately.
    """
    if not is_connected(g):
        raise InputError("aggregation_bounds_check requires a connected graph")
    diam = diameter(g)
    total = _walk_total(adjacency_matrix(g), diam)
    value = Fraction(total, g.n)
    upper = Fraction(2) ** (g.n - 2)
    return AggregationBoundsVerdict(
        n=g.n,
        diameter=diam,
        walk_total=total,
        avg_nat=float(value),
        lower_bound=float(g.n - 1),
        upper_bound=float(upper),
        lower_ok=value >= g.n - 1,
        upper_ok=value < upper,
    )
