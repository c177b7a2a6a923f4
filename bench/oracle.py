"""Independent oracles for the benchmark's correctness checks.

Nothing here calls shellprop: distances come from scipy's csgraph BFS, the
operators are written out densely from their defining formulas, and matrix
powers are plain numpy products.  Inputs are the fixture's own arrays (the
edge list as generated), not the graph the program parsed.
"""
from __future__ import annotations

import struct

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import shortest_path


def adjacency(edges: np.ndarray, n: int) -> np.ndarray:
    """Dense symmetric 0/1 adjacency, no self-loops."""
    a = np.zeros((n, n))
    a[edges[:, 0], edges[:, 1]] = 1.0
    a[edges[:, 1], edges[:, 0]] = 1.0
    np.fill_diagonal(a, 0.0)
    return a


def distances(edges: np.ndarray, n: int) -> np.ndarray:
    """All-pairs hop counts (int64); -1 marks unreachable pairs."""
    m = sp.coo_matrix(
        (np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n)
    ).tocsr()
    d = shortest_path(m, directed=False, unweighted=True)
    out = np.full(d.shape, -1, dtype=np.int64)
    finite = np.isfinite(d)
    out[finite] = d[finite].astype(np.int64)
    return out


def shell_histogram(dist: np.ndarray, cap: int | None) -> list[int]:
    """Ordered-pair count at each distance 1..l_max, truncated at ``cap``."""
    counts = np.bincount(dist[dist > 0])[1:]
    if cap is not None:
        counts = counts[:cap]
    return [int(c) for c in counts]


def fused_operator(dist: np.ndarray, alpha: float, cap: int | None) -> np.ndarray:
    """Dense P = sum_l theta_l * That_l, written entry by entry.

    With k_l(i) the number of nodes at distance exactly l from i,
    P[i, j] = theta_d / sqrt((k_d(i) + 1) (k_d(j) + 1)) for d = dist(i, j)
    in 1..L, and P[i, i] = sum_{l <= L} theta_l / (k_l(i) + 1).
    """
    n = dist.shape[0]
    levels = len(shell_histogram(dist, cap))
    theta = (1.0 - 1.0 / alpha) ** np.arange(levels + 1, dtype=np.float64)
    k = np.zeros((levels + 1, n))
    for level in range(1, levels + 1):
        k[level] = (dist == level).sum(axis=1)
    r = 1.0 / np.sqrt(k + 1.0)
    d = np.where((dist > 0) & (dist <= levels), dist, 0)
    rows = np.arange(n)[:, None]
    p = theta[d]
    p *= r[d, rows]
    p *= r[d, rows.T]
    p[d == 0] = 0.0
    p[np.arange(n), np.arange(n)] = (theta[1:, None] * r[1:] ** 2).sum(axis=0)
    return p


def sym_operator(a: np.ndarray) -> np.ndarray:
    """D^-1/2 (A + I) D^-1/2 with D the degree of A + I."""
    s = a + np.eye(a.shape[0])
    inv = 1.0 / np.sqrt(s.sum(axis=1))
    return inv[:, None] * s * inv[None, :]


def rw_operator(a: np.ndarray) -> np.ndarray:
    """D^-1 (A + I), row-stochastic."""
    s = a + np.eye(a.shape[0])
    return s / s.sum(axis=1, keepdims=True)


def residual_operator(a: np.ndarray, beta: float) -> np.ndarray:
    return beta * sym_operator(a) + (1.0 - beta) * np.eye(a.shape[0])


def self_attention(power: np.ndarray) -> float:
    """Mean share of each row's mass on the diagonal of a matrix power."""
    return float(np.mean(np.diag(power) / power.sum(axis=1)))


def sas_at(m: np.ndarray, depths) -> dict[int, float]:
    """Self-attention score of dense numpy powers m**k at each depth k.

    Powers are built in ascending order from the previous one; a depth that
    doubles the previous one is a single squaring.
    """
    scores = {}
    power, done = None, 0
    for k in sorted(depths):
        if power is not None and k == 2 * done:
            power = power @ power
        else:
            step = np.linalg.matrix_power(m, k - done)
            power = step if power is None else power @ step
        done = k
        scores[k] = self_attention(power)
    return scores


def forward_predictions(arrays, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Argmax of the dropout-free forward pass through the dense operator."""
    w1, b1, w2, b2 = arrays
    z = np.maximum(x @ w1 + b1, 0.0)
    return ((p @ z) @ w2 + b2).argmax(axis=1)


def checkpoint_bytes(arrays) -> bytes:
    """The documented layout: magic SHLP, version 1, d, h, C, then the four
    arrays as little-endian float64."""
    w1, _, w2, _ = arrays
    d, h = w1.shape
    c = w2.shape[1]
    head = struct.pack("<4sIIII", b"SHLP", 1, d, h, c)
    return head + b"".join(np.asarray(a, dtype="<f8").tobytes() for a in arrays)
