"""Aggregation-redundancy diagnostics and classical propagators.

Two measurements drive everything here.  The aggregation count of a matrix
at depth l is the mean total mass of its l-th power, (1/N) * sum_ij M^l_ij.
The self-attention score at depth k is the mean fraction of each row's mass
sitting on the diagonal of M^k; for the classical symmetric and random-walk
propagators of a connected graph it converges to 1/N as k grows, which is
what the trajectory helpers verify numerically.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, InputError, NumericError
from .graph import (
    Matrix, SparseGraph, adjacency_matrix, as_array, diameter, from_array, is_connected,
    require_memory,
)
from .shells import ShellDecomposition, fuse_shells, normalize_shell

#: float64 loses walk-count exactness past 2**53; n**(l+2) bounds every value
#: a binary matrix's walk count reaches, so that is the rejection test.
_WALK_COUNT_LIMIT_BITS = 53

SYM_NORM = "sym_norm"
RW_NORM = "rw_norm"
RESIDUAL = "residual"
FUSED_SHELL = "fused_shell"
RAW_ADJACENCY = "raw_adjacency"


@dataclass(frozen=True, eq=False)
class Propagator:
    """A named n x n non-negative propagation matrix."""

    matrix: Matrix
    kind: str
    beta: float | None = None


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


def sym_norm_propagator(g: SparseGraph) -> Propagator:
    """Symmetric normalization of the self-looped adjacency.

    Entry (i, j) of the matrix is 1/sqrt(d_i * d_j) where d is the degree
    in A + I; the diagonal is 1/d_i.
    """
    return Propagator(normalize_shell(adjacency_matrix(g)), SYM_NORM)


def rw_norm_propagator(g: SparseGraph) -> Propagator:
    """Row-stochastic normalization of the self-looped adjacency."""
    inv_deg = sp.diags_array(1.0 / (g.degrees + 1.0))
    m = from_array(inv_deg @ (adjacency_matrix(g) + sp.eye_array(g.n)))
    return Propagator(m, RW_NORM)


def residual_propagator(p: Propagator, beta: float) -> Propagator:
    """Convex combination beta * P + (1 - beta) * I of a propagator."""
    if not 0.0 < beta < 1.0:
        raise ConfigError(f"beta must be strictly inside (0, 1), got {beta}")
    m = p.matrix
    merged = beta * as_array(m) + (1.0 - beta) * sp.eye_array(m.shape[0])
    return Propagator(from_array(merged), RESIDUAL, beta=beta)


def raw_adjacency_propagator(g: SparseGraph) -> Propagator:
    return Propagator(adjacency_matrix(g), RAW_ADJACENCY)


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

    The depth-k point of ``sas_trajectory``, with its cost and memory.
    """
    return sas_trajectory(a, k).sas_trajectory[-1][1]


def sas_trajectory(
    p: Propagator | Matrix, k_max: int, stop_tol: float | None = None
) -> MetricReport:
    """Self-attention scores at every depth 1..k_max plus the gap to 1/N.

    ``stop_tol`` ends the sweep early once the score is within that distance
    of 1/N, recording the trajectory up to the entry point.  The dense power
    is tracked, so each depth is one product of the matrix with a dense
    array (a BLAS product when the matrix is dense) and the loop holds
    16 * n**2 bytes; ResourceError is raised before allocating when that
    exceeds the machine's physical memory.
    """
    m = p.matrix if isinstance(p, Propagator) else p
    if m.shape[0] != m.shape[1]:
        raise InputError("sas_trajectory requires a square matrix")
    if k_max < 1:
        raise InputError(f"k_max must be >= 1, got {k_max}")
    n = m.shape[0]
    # the dense power and its product, float64 each
    require_memory(16 * n * n, f"sas_trajectory holds two dense {n} x {n} powers")
    a = as_array(m)
    power = np.eye(n)
    trajectory: list[tuple[int, float]] = []
    target = 1.0 / n
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
        if stop_tol is not None and abs(score - target) < stop_tol:
            break
    gap = abs(trajectory[-1][1] - target)
    return MetricReport(
        avg_nat=float(power.sum() / n), sas_trajectory=trajectory, limit_gap=gap
    )


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
