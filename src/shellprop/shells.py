"""Distance-shell decomposition and the PPR-weighted fused propagator.

A graph's reachable ordered pairs are partitioned into disjoint hop shells:
shell l holds exactly the pairs (i, j), i != j, at shortest-path distance l.
Each shell is symmetrically normalized after adding self-loops, and the
shells are combined with geometrically decaying coefficients into a single
propagation operator P, built once and applied as one product.  A pair lies
in one shell only, so a decomposition is one record of hop levels, held in
P's carrier and with P's structure; P is filled as values on it, and a
shell is built from it only when read.  The record reads the BFS one block
of sources at a time: a block whose own pairs make its rows dense by P's
byte rule as one slab of levels, any other level by level.  Shells,
normalized shells, a CSR record and a sparse P are read-only canonical
scipy ``csr_array``s with int64 indices, each row's columns in order.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, InputError
from .graph import (
    DenseMatrix, Matrix, SparseGraph, _bfs_blocks, _freeze, from_array, frozen_csr, is_symmetric,
    require_memory, spmm, stores_dense,
)

#: Rows of P that one block of the fill writes, and for a dense P the
#: columns of one of the block's tiles.
_FILL_ROWS = 256


@dataclass(frozen=True, eq=False)
class ShellDecomposition:
    """Ordered disjoint distance shells T_1..T_L of one graph.

    ``shells[l-1]`` is the binary read-only csr_array of ordered pairs at
    distance exactly l; the diagonal is empty in every shell.  For a
    connected graph the shell sizes sum to n*(n-1).  Trailing levels past
    the largest realized distance are never materialized.  ``shells`` is
    always a view of one record of hop levels (``_DistanceShells``): binary
    csr shells given any other way, by hand or by ``dataclasses.replace``
    with a slice of another decomposition's shells, go through
    ``_level_record`` on construction as one block of all rows, each shell
    one level, so that the record is checked as the stream's records are.
    """

    n: int
    shells: Sequence[sp.csr_array]
    l_max: int
    shell_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if isinstance(self.shells, _DistanceShells):
            return
        n, rows = self.n, np.arange(self.n)
        record = _level_record(n, (
            ([(l, rows, np.diff(t.indptr))], l, np.repeat(rows * n, np.diff(t.indptr)) + t.indices)
            for l, t in enumerate(self.shells, start=1)
        ))
        object.__setattr__(self, "shells", record.shells)


@dataclass(frozen=True, eq=False)
class _DistanceShells(Sequence):
    """The shells T_1..T_L of one record of hop levels, built anew on each
    read and normalized (That_l) when ``normalized``; a slice gives a tuple.
    A read is the record's pattern at its level (``_pattern``), checked
    before it is built.

    ``distances`` holds each reachable pair's level, in the narrowest
    unsigned type that holds them, in P's carrier and with P's entries: an
    n x n array, 0 for i = j and for an unreachable pair, or a canonical
    csr_array with int64 indices, row i listing its pairs and (i, i), at
    level 0, by column.
    ``row_counts[l-1]`` is each row's entry count in T_l.  All are read-only.
    """

    distances: np.ndarray | sp.csr_array
    row_counts: tuple[np.ndarray, ...]
    normalized: bool = False

    def __post_init__(self) -> None:
        _freeze(*self.row_counts, *([] if sp.issparse(self.distances) else [self.distances]))

    def __len__(self) -> int:
        return len(self.row_counts)

    def __getitem__(self, l):
        if isinstance(l, slice):
            return tuple(self[i] for i in range(*l.indices(len(self))))
        level = range(1, len(self) + 1)[l]
        return _pattern(self, diagonal=self.normalized, level=level, normalized=self.normalized)


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
    normalized_shells: _DistanceShells
    coefficients: np.ndarray
    alpha: float
    matrix: Matrix = field(init=False)

    def __post_init__(self) -> None:
        theta = np.array(self.coefficients, dtype=np.float64)
        theta.flags.writeable = False
        object.__setattr__(self, "coefficients", theta)
        shells = self.normalized_shells
        if not (isinstance(shells, _DistanceShells) and shells.normalized) or len(shells) != len(theta):
            raise InputError(
                "normalized_shells must be those of a fuse_shells result,"
                f" one per coefficient ({len(theta)} given)"
            )
        object.__setattr__(self, "matrix", _fuse(theta, shells))


def cumulative_matrix(g: SparseGraph, l: int) -> sp.csr_array:
    """Binary reachability-within-l matrix: entry (i, j) iff dist(i, j) <= l.

    The pattern of the decomposition capped at l with its diagonal, read off
    its record with no shell built (``_pattern``).  The diagonal is always
    present (dist(i, i) = 0), and l = 0 yields the identity.
    """
    if l < 0:
        raise InputError(f"hop count must be non-negative, got {l}")
    d = shell_decompose(g, l) if l else ShellDecomposition(g.n, (), 0, ())
    return _pattern(d.shells, diagonal=True)


def _check_cap(l_cap: int | None) -> None:
    if l_cap is not None and l_cap < 1:
        raise InputError(f"l_cap must be >= 1 when given, got {l_cap}")


def shell_decompose(g: SparseGraph, l_cap: int | None = None) -> ShellDecomposition:
    """Partition all reachable ordered pairs into exact-distance shells, held
    as one record of hop levels in P's carrier.

    One bit-parallel BFS per source, in blocks of sources in ascending
    order, so the result is deterministic.  ``l_cap`` truncates the
    decomposition at that depth.  ``_level_record`` picks P's carrier as
    the pairs arrive.
    """
    _check_cap(l_cap)
    return _level_record(g.n, _bfs_parts(g, l_cap))


def _bfs_parts(g: SparseGraph, l_cap: int | None) -> Iterator[tuple]:
    """The BFS blocks as ``_level_record`` reads them.  A block whose own
    pairs make its rows dense by P's byte rule comes as one slab of levels;
    any other comes level by level, as its pairs' positions."""
    for block in _bfs_blocks(g, l_cap):
        b = len(block.sources)
        tally = [(level, nodes, counts) for level, (nodes, _, counts) in enumerate(block.levels, start=1)]
        if stores_dense((b, g.n), b + sum(block.sizes)):
            yield tally, int(block.sources[0]), block.slab()
        else:
            for counted, (level, flat) in zip(tally, block.positions()):
                yield [counted], level, flat


def _level_record(n: int, parts: Iterable[tuple]) -> ShellDecomposition:
    """The decomposition of a stream of parts (tally, at, pairs): either a
    level's pairs, ``at`` the level and ``pairs`` their ascending row-major
    positions, each row's pairs coming level by level; or a slab, the (b, n)
    levels of rows ``at`` .. ``at`` + b - 1, 0 where no pair is.  ``tally``
    lists (level, nodes, counts) of the part's pairs: ``counts[i]`` of them
    in node ``nodes[i]``'s row, or, for a BFS block, in its column, which
    sums over all blocks to the same row counts because distances are
    symmetric.

    The parts P has not placed yet are kept in one list, as they came.
    While the stream is CSR every part is kept there; a stream that ends as
    CSR turns each kept part, one at a time, into positions and level tags,
    with each row's diagonal at level 0, and sorts them by position into
    canonical rows that hold exactly a CSR P's entries.  The moment
    ``stores_dense`` makes P dense, also before any pair, an n x n distance
    matrix is made, uint8 until a level passes 255, and from then on one
    loop writes the kept parts, and each later part as it comes, into it.
    As each part comes, and before it is placed, ResourceError is raised
    when ``require_memory`` refuses the record and the P it fills: while the
    stream is CSR, the smaller of the two carriers' peaks (``_csr_bytes``,
    ``_distance_bytes``), a lower bound whichever way the rule turns; from
    the switch on, and before the matrix is allocated, ``_distance_bytes``.
    A stream that ends as CSR is checked at ``_csr_bytes`` before its sort."""
    # each CSR row holds its diagonal, at level 0, as P's rows do
    diagonal = ([], 0, np.arange(n) * (n + 1))
    row_counts, kept, stored, distances = [], [], 0, None
    for tally, at, pairs in chain([diagonal], parts):
        for level, nodes, counts in tally:
            if level > len(row_counts):
                row_counts.append(np.zeros(n, dtype=np.int64))
            row_counts[level - 1][nodes] += counts
            stored += int(counts.sum())
        top, what = len(row_counts), f"the levels of {n} nodes and their P store {stored} pairs"
        kept.append((at, pairs))
        if distances is None and not stores_dense((n, n), n + stored):
            require_memory(min(_csr_bytes(n, top, stored), _distance_bytes(n, top)), what)
            continue
        require_memory(_distance_bytes(n, top), f"a dense P of {n} nodes and its distances at {top} levels")
        if distances is None:
            distances = np.zeros((n, n), dtype=np.min_scalar_type(top))
        distances = distances.astype(np.min_scalar_type(top), copy=False)
        for start, part in kept:  # a slab of rows, or a level's pairs by position
            if part.ndim == 2:
                distances[start : start + len(part)] = part
            else:
                distances.reshape(-1)[part] = start
        kept.clear()
    if distances is None:  # P stays CSR: its record is sorted, and P filled, as CSR
        require_memory(_csr_bytes(n, top, stored), f"{what} as CSR")
        cols, data = [], []
        while kept:  # a slab is freed as its pairs are listed; the sort orders each row's columns
            start, part = kept.pop()
            if part.ndim == 2:
                flat = np.flatnonzero(part)
                data.append(part.reshape(-1)[flat])
                flat += start * n
            else:
                flat = part
                data.append(np.full(len(part), start, dtype=np.min_scalar_type(start)))
            cols.append(flat)
        del part
        flat, tags = np.concatenate(cols), np.concatenate(data)
        del cols, data
        order = np.argsort(flat, kind="stable")  # unique keys; timsort merges the stream's ascending runs
        flat = flat[order]
        flat %= n
        offsets = np.concatenate([[0], np.cumsum(sum(row_counts, np.ones(n, dtype=np.int64)))])
        distances = frozen_csr(tags[order], flat, offsets)
        del flat, tags, order
    sizes = tuple(int(k.sum()) for k in row_counts)
    return ShellDecomposition(n, _DistanceShells(distances, tuple(row_counts)), len(sizes), sizes)


def _distance_bytes(n: int, levels: int) -> int:
    """Bytes that a distance-backed decomposition of n nodes at ``levels``
    levels and the dense P filled from it hold together: with L = ``levels``
    and b = min(256, n), n**2 bytes of uint8 distances, or (1 + w) n**2 once
    L passes 255, the uint8 matrix and its copy widened to w bytes a pair;
    8 n L of int64 row counts; 8 n**2 of P; 8 n (L + 3) for the fill's table
    of r_l, its diagonal and node ids; and 24 b**2 for the fill, which holds
    24 bytes an entry of one b x b tile at a time: the tile, the intp index
    its lookups read and one gathered float64 operand (``_entries``)."""
    width = 1 if levels <= 255 else 1 + np.min_scalar_type(levels).itemsize
    return width * n * n + 8 * n * n + 8 * n * (2 * levels + 3) + 24 * min(_FILL_ROWS, n) ** 2


def _csr_bytes(n: int, levels: int, pairs: int) -> int:
    """Bytes that a CSR record of ``pairs`` pairs and the n diagonal entries
    among its rows, e = n + pairs entries with w-byte levels, and the CSR P
    filled from it hold at the peak of the sort that makes the record or of
    the fill, whichever is larger.  The sort holds at most 24 + w bytes an
    entry, and 28 + w are counted: the stream's int64 position and level,
    their int64 order, and 4 of sort buffer or, once that is freed, 8 of
    the positions in order.  The fill holds the record's 8 + w and P's 8
    bytes an entry, and 24 an entry of one block of b = min(256, n) rows:
    its int64 row ids, the intp index its lookups read and one gathered
    float64 operand (``_entries``).  With L = ``levels``, 8 n (2 L + 4) more
    hold the row counts, r, the diagonal, the node ids and the row
    pointers."""
    entries, width = n + pairs, np.min_scalar_type(levels).itemsize
    fill = (16 + width) * entries + 24 * min(entries, _FILL_ROWS * n)
    return max((28 + width) * entries, fill) + 8 * n * (2 * levels + 4)


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


def _fuse(theta: np.ndarray, shells: _DistanceShells) -> Matrix:
    """P = sum_l theta_l * That_l, filled as values on the structure of one
    record of hop levels, in the record's carrier.

    With r_l = (k_l + 1)**-1/2, k_l each node's degree in T_l, That_l holds
    r_l[i] * r_l[j] at each entry (i, j) of T_l and r_l**2 on its diagonal,
    as ``normalize_shell`` gives.  A pair lies in one shell only, so off the
    diagonal P[i, j] = theta_d * (r_d[i] * r_d[j]) for d the pair's level,
    and the diagonal sums theta_l * (r_l * r_l) over l = 1..l_max in order,
    also past a node's own eccentricity.  ``_entries`` computes the
    off-diagonal rule, with weight 0 at level 0: over blocks of
    ``_FILL_ROWS`` rows of a CSR record, each block's diagonal then written
    over its rows' level-0 entries, and over the tiles of ``_FILL_ROWS``
    rows and columns on and right of a dense record's diagonal, each tile
    also written, transposed, over its mirror, and the diagonal written
    last.  The distances are symmetric and fl(a * b) = fl(b * a), so the
    mirror holds the bits its own entries would; both carriers do these
    operations in this order, as ``normalize_shell`` does, so both hold the
    same bits.  A CSR P shares the record's read-only indices and row
    pointers, so it is canonical too.  ResourceError is raised first when
    ``require_memory`` refuses the record, P and the fill's temporaries, at
    the figure the record's own stream ends on (``_csr_bytes`` or
    ``_distance_bytes``).
    """
    d = shells.distances
    n, csr = d.shape[0], sp.issparse(d)
    levels = len(theta)
    require_memory(
        _csr_bytes(n, levels, d.nnz - n) if csr else _distance_bytes(n, levels),
        f"a {'CSR' if csr else 'dense'} P of {n} nodes filled from {levels} levels",
    )
    weight = np.concatenate([[0.0], theta])
    r, diag = _r_table(n, shells.row_counts, theta)
    ids = np.arange(n)
    p = np.empty(d.nnz if csr else (n, n))
    for start in range(0, n, _FILL_ROWS):
        rows = slice(start, start + _FILL_ROWS)
        if csr:
            ptr = d.indptr[start : start + _FILL_ROWS + 1]
            at = slice(ptr[0], ptr[-1])
            _entries(d.data[at], np.repeat(ids[rows], np.diff(ptr)), d.indices[at], r, weight, p[at])
            p[at][d.data[at] == 0] = diag[rows]
            continue
        for corner in range(start, n, _FILL_ROWS):
            cols = slice(corner, corner + _FILL_ROWS)
            tile = np.empty((ids[rows].size, ids[cols].size))
            _entries(d[rows, cols], ids[rows, None], ids[cols], r, weight, tile)
            p[rows, cols] = tile
            p[cols, rows] = tile.T
    if csr:
        return frozen_csr(p, d.indices, d.indptr)
    np.fill_diagonal(p, diag)
    return DenseMatrix(p)


def _r_table(
    n: int, row_counts: Sequence[np.ndarray], theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The (L + 1) x n table r of the fill, r[0] = 1 and r[l] = r_l, so that
    r_d[j] is entry d n + j of its flat view, and P's diagonal,
    theta_l * (r_l * r_l) summed over l = 1..L in order."""
    r, diag = np.ones((len(theta) + 1, n)), np.zeros(n)
    for level, (theta_l, k) in enumerate(zip(theta, row_counts), start=1):
        r[level] = 1.0 / np.sqrt(k + 1.0)
        diag += theta_l * (r[level] * r[level])
    return r, diag


def _entries(
    levels: np.ndarray, rows: np.ndarray, cols: np.ndarray, r: np.ndarray, weight: np.ndarray,
    out: np.ndarray,
) -> None:
    """Write weight[d] * (r[d, i] * r[d, j]) into ``out``, a contiguous array
    of ``levels``' shape, at each entry (i, j) of level d, with ``rows`` and
    ``cols`` the intp node ids i and j broadcast against ``levels``.

    Every lookup is a 1-D ``np.take`` through one intp index: d n + j, then
    d n + i, then d; every index is in range, and ``clip`` lets numpy write
    ``out`` in place.  Beside ``out`` that index and one gathered float64
    operand hold 16 bytes an entry, and the broadcast sums' buffers, at most
    8 more, are gone before the operand is made.
    """
    index = levels.astype(np.intp)
    index *= r.shape[1]
    index += cols
    np.take(r, index, out=out, mode="clip")
    index -= cols
    index += rows
    operand = np.take(r, index, mode="clip")
    out *= operand  # r[d, j] * r[d, i], the bits of r[d, i] * r[d, j]
    np.copyto(index, levels)
    np.take(weight, index, out=operand, mode="clip")
    out *= operand


def fuse_shells(decomposition: ShellDecomposition, alpha: float) -> FusedPropagator:
    """The fused propagator of a decomposition, filled on its record of hop
    levels; its That_l are not kept beside P."""
    theta = ppr_coefficients(alpha, decomposition.l_max)
    shells = replace(decomposition.shells, normalized=True)
    return FusedPropagator(decomposition.n, shells, theta, float(alpha))


def fused_propagate(p: FusedPropagator, z: np.ndarray) -> np.ndarray:
    """Apply the fused operator: P @ z (also the adjoint, as P is symmetric)."""
    return spmm(p.matrix, np.asarray(z, dtype=np.float64))


def shell_degree_profile(d: ShellDecomposition) -> list[float]:
    """Average degree of each shell: entry count divided by node count."""
    return [size / d.n for size in d.shell_sizes]


def shell_union(d: ShellDecomposition) -> sp.csr_array:
    """Binary union of all shells: every reachable ordered pair, i != j.

    Read off the pattern of the record's levels (level > 0), so no shell is
    built (``_pattern``)."""
    return _pattern(d.shells, diagonal=False)


def _pattern(
    shells: _DistanceShells, diagonal: bool, level: int | None = None, normalized: bool = False
) -> sp.csr_array:
    """The binary canonical csr_array of the record's pairs, or of its pairs
    at ``level`` only, and of each (i, i) too when ``diagonal``, read once
    off its levels.  With ``normalized`` (and ``diagonal``) it is That_l, the
    level's shell normalized as ``normalize_shell`` does: with r = (k + 1)**-1/2,
    k each node's degree in T_l, entry (i, j) is r[i] * r[j].

    A CSR record's entries are its pairs and each row's diagonal, so with
    ``diagonal`` and every level the pattern shares the record's column
    indices; otherwise the columns are read through a 1-byte mask of the
    record's entries, or of a dense record's cells, and a CSR record's
    level with its diagonal through a second such mask.  ResourceError is
    raised first when ``require_memory`` refuses the record, its row counts,
    those masks and 16 bytes for each entry of the pattern, its int64 column
    and float64 one, or 24 for That_l, which gathers r[j] into an operand."""
    levels, n = shells.distances, shells.distances.shape[0]
    counts = shells.row_counts if level is None else shells.row_counts[level - 1 : level]
    nnz, csr = sum(int(k.sum()) for k in counts) + n * diagonal, sp.issparse(levels)
    cells, masks = (levels.nnz, 1 + (diagonal and level is not None)) if csr else (n * n, 1)
    need = (levels.dtype.itemsize + masks + 8 * csr) * cells + (16 + 8 * normalized) * nnz
    require_memory(need + 8 * n * (len(shells) + 3) + 16, f"the pattern of {nnz} pairs of {n} nodes")
    if csr and diagonal and level is None:
        cols = levels.indices
    else:
        stored = levels.data if csr else levels  # each diagonal entry is at level 0
        keep = stored > 0 if level is None else stored == level
        if diagonal and csr:
            keep |= stored == 0
        elif diagonal:
            np.fill_diagonal(keep, True)
        cols = levels.indices[keep] if csr else np.flatnonzero(keep) % n
    counts = sum(counts, np.full(n, int(diagonal)))
    if normalized:  # r[i] * r[j], as D^-1/2 (T + I) D^-1/2 forms it
        r = 1.0 / np.sqrt(counts)
        values = np.repeat(r, counts)
        values *= r[cols]
    else:
        values = np.ones(nnz)
    return frozen_csr(values, cols, np.concatenate([[0], np.cumsum(counts)]))


def shell_report(g: SparseGraph, l_cap: int | None = None) -> dict:
    """JSON-ready shell summary: sizes, per-layer average degree, diameter.

    One BFS stream is counted level by level from each block's bit counts,
    so no pair is stored or unpacked: the sizes and l_max are those of
    ``shell_decompose(g, l_cap)``, and the diameter is the deepest level."""
    _check_cap(l_cap)
    sizes = []
    for block in _bfs_blocks(g, None):
        sizes += [0] * (block.depth - len(sizes))
        for level, size in enumerate(block.sizes):
            sizes[level] += size
    kept = sizes[:l_cap]
    return {
        "n": g.n,
        "l_max": len(kept),
        "shell_sizes": kept,
        "avg_degree_per_layer": [size / g.n for size in kept],
        "diameter": len(sizes),
    }
