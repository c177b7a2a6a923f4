"""Dataset ingestion, split generation, and synthetic graph generation.

On-disk layout is plain UTF-8 TSV: ``edges.tsv`` (``u<TAB>v`` per line,
``#`` comments allowed), ``features.tsv`` (one row of tab-separated reals
per node), ``labels.tsv`` (one class id per node), and an optional
``split.json`` with train/val/test index lists.  Row i of every file refers
to node i.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, InputError
from .graph import (
    Matrix, SparseGraph, build_graph, by_bytes, component_count, open_text, read_edge_list,
    require_memory,
)


@dataclass(frozen=True, eq=False)
class Split:
    """Disjoint train/val/test node index sets."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    shrunk: bool = False


@dataclass(frozen=True, eq=False)
class Dataset:
    graph: SparseGraph
    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    split: Split | None = None
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def feature_matrix(self) -> Matrix:
        """A read-only copy of ``features`` in the carrier P's byte rule
        picks, ``graph.by_bytes``; built once per dataset."""
        return by_bytes(self.features)


def _parse_features(path: Path) -> np.ndarray:
    """The rows of tab-separated reals, one per line, parsed in one
    ``np.loadtxt`` pass; a file it refuses is scanned line by line for the
    first faulty line."""
    with open_text(path) as fh:
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise InputError(f"{path}: file is empty")
    values = _loadtxt(lines)
    # loadtxt skips blank lines, so a row count short of the line count marks one
    if values is None or len(values) != len(lines) or not np.isfinite(values).all():
        raise _feature_fault(path, lines)
    return values


def _loadtxt(lines: list[str]) -> np.ndarray | None:
    """The float64 rows of tab-separated lines, or None where loadtxt
    refuses them."""
    try:
        with warnings.catch_warnings():
            # a blank line alone is "no data", which the caller counts as a fault
            warnings.simplefilter("ignore", UserWarning)
            return np.loadtxt(lines, delimiter="\t", comments=None, ndmin=2)
    except ValueError:
        return None


def _feature_fault(path: Path, lines: list[str]) -> InputError:
    """The InputError of the first line that is ragged, holds a value that
    is not a number, or holds one that is not finite."""
    width = lines[0].count("\t") + 1
    for lineno, line in enumerate(lines, start=1):
        parts = line.count("\t") + 1
        if parts != width:
            return InputError(f"{path}: line {lineno}: expected {width} values, got {parts}")
        row = _loadtxt([line])
        if row is None or len(row) != 1:
            return InputError(f"{path}: line {lineno}: non-numeric feature value")
        if not np.isfinite(row).all():
            return InputError(f"{path}: line {lineno}: non-finite feature value")
    return InputError(f"{path}: unreadable feature rows")


def _parse_labels(path: Path, n: int) -> np.ndarray:
    labels = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            try:
                value = int(text)
            except ValueError:
                raise InputError(
                    f"{path}: line {lineno}: non-integer label {text!r}"
                ) from None
            if not 0 <= value < n:
                # the largest label sizes the model's output layer, and n
                # nodes carry at most n classes
                raise InputError(
                    f"{path}: line {lineno}: label out of range: {text} is not"
                    f" in [0, {n})"
                )
            labels.append(value)
    if len(labels) != n:
        raise InputError(
            f"{path}: has {len(labels)} labels but features.tsv defines {n} nodes"
        )
    return np.asarray(labels, dtype=np.int64)


def node_ids(values, n: int, what: str) -> np.ndarray:
    """``values`` as an int64 array of node ids, once it is a 1-D sequence
    of integers in [0, n) with no repeat; InputError names ``what`` else."""
    try:
        idx = np.asarray(values)
    except ValueError:  # a ragged nesting
        idx = None
    if idx is None or idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise InputError(f"{what} must be a list of integer node ids")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise InputError(f"{what} index out of range for n={n}")
    if np.unique(idx).size != idx.size:
        raise InputError(f"{what} contains duplicate indices")
    return idx.astype(np.int64, copy=False)


def _parse_split(path: Path, n: int) -> Split:
    with open_text(path) as fh:
        try:
            payload = json.load(fh)
        except (ValueError, RecursionError) as err:
            # ValueError covers JSONDecodeError and over-long integer literals
            raise InputError(f"{path}: invalid JSON ({err})") from None
    if not isinstance(payload, dict):
        raise InputError(f"{path}: expected a JSON object of index lists")
    parts = {}
    for key in ("train", "val", "test"):
        if key not in payload:
            raise InputError(f"{path}: missing key {key!r}")
        values = payload[key]
        if not isinstance(values, list) or not all(type(i) is int for i in values):
            raise InputError(f"{path}: {key} must be a list of integer node ids")
        # JSON integers are unbounded, so their range is read before numpy holds them
        if values and (min(values) < 0 or max(values) >= n):
            raise InputError(f"{path}: {key} index out of range for n={n}")
        parts[key] = np.sort(node_ids(values, n, f"{path}: {key}"))
    if parts["train"].size == 0:
        raise InputError(f"{path}: train set must be non-empty")
    for a, b in (("train", "val"), ("train", "test"), ("val", "test")):
        if np.intersect1d(parts[a], parts[b]).size:
            raise InputError(f"{path}: {a} and {b} sets overlap")
    return Split(parts["train"], parts["val"], parts["test"])


def _dataset_dir(directory, names: tuple[str, ...]) -> Path:
    """The dataset directory, once it and each named file are known to exist."""
    directory = Path(directory)
    if not directory.is_dir():
        raise InputError(f"dataset directory not found: {directory}")
    for name in names:
        if not (directory / name).is_file():
            raise InputError(f"missing dataset file: {directory / name}")
    return directory


def _read_graph(path: Path, n: int) -> SparseGraph:
    """The graph of an edge list whose node ids must lie below n."""
    edges = read_edge_list(path)
    if edges:
        top = max(max(u, v) for u, v in edges)
        if top >= n:
            raise InputError(
                f"{path}: references node {top} but features.tsv defines"
                f" only {n} rows"
            )
    return build_graph(edges, n)


def load_graph(directory) -> SparseGraph:
    """Load only the graph of a dataset directory.

    Reads ``edges.tsv`` and counts the lines of ``features.tsv`` for n, so
    the features and labels are neither parsed nor validated.
    """
    directory = _dataset_dir(directory, ("edges.tsv", "features.tsv"))
    with open_text(directory / "features.tsv") as fh:
        n = sum(1 for _ in fh)
    return _read_graph(directory / "edges.tsv", n)


def load_dataset(directory) -> Dataset:
    """Load and validate a TSV dataset directory."""
    directory = _dataset_dir(directory, ("edges.tsv", "features.tsv", "labels.tsv"))
    features = _parse_features(directory / "features.tsv")
    n = features.shape[0]
    labels = _parse_labels(directory / "labels.tsv", n)
    graph = _read_graph(directory / "edges.tsv", n)
    split_path = directory / "split.json"
    split = _parse_split(split_path, n) if split_path.is_file() else None
    return Dataset(
        graph=graph,
        features=features,
        labels=labels,
        num_classes=int(labels.max()) + 1,
        split=split,
    )


def write_dataset(directory, dataset: Dataset) -> None:
    """Write a dataset in the TSV layout; round-trips exactly through load."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    g = dataset.graph
    with open(directory / "edges.tsv", "w", encoding="utf-8") as fh:
        for u in range(g.n):
            for v in g.neighbors(u):
                if v > u:
                    fh.write(f"{u}\t{v}\n")
    with open(directory / "features.tsv", "w", encoding="utf-8") as fh:
        for row in dataset.features:
            fh.write("\t".join(repr(float(v)) for v in row) + "\n")
    with open(directory / "labels.tsv", "w", encoding="utf-8") as fh:
        for label in dataset.labels:
            fh.write(f"{int(label)}\n")
    if dataset.split is not None:
        payload = {
            "train": [int(i) for i in dataset.split.train],
            "val": [int(i) for i in dataset.split.val],
            "test": [int(i) for i in dataset.split.test],
        }
        with open(directory / "split.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def make_split(
    labels,
    per_class: int = 20,
    val: int = 500,
    test: int = 1000,
    seed: int = 0,
) -> Split:
    """Sample the labeled-per-class protocol: per_class training nodes from
    each class, then val and test drawn uniformly from the remainder.

    When the requested sizes exceed the node count, val and test shrink
    proportionally to the leftover nodes and the result is flagged.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.shape[0]
    if per_class < 1:
        raise InputError(f"per_class must be >= 1, got {per_class}")
    if val < 0 or test < 0:
        raise InputError("val and test sizes must be non-negative")
    num_classes = int(labels.max()) + 1 if n else 0
    rng = np.random.default_rng(seed)
    train_parts = []
    for c in range(num_classes):
        members = np.flatnonzero(labels == c)
        if len(members) < per_class:
            raise InputError(
                f"class {c} has {len(members)} nodes, fewer than"
                f" per_class={per_class}"
            )
        train_parts.append(rng.choice(members, size=per_class, replace=False))
    train = np.sort(np.concatenate(train_parts))
    rest = np.setdiff1d(np.arange(n), train)
    shuffled = rng.permutation(rest)
    shrunk = len(train) + val + test > n
    if shrunk:
        avail = n - len(train)
        val_n = avail * val // (val + test) if val + test else 0
        test_n = avail - val_n
    else:
        val_n, test_n = val, test
    return Split(
        train=train,
        val=np.sort(shuffled[:val_n]),
        test=np.sort(shuffled[val_n : val_n + test_n]),
        shrunk=shrunk,
    )


def synth_planted_partition(
    n_per_block: int,
    blocks: int,
    p_in: float,
    p_out: float,
    seed: int = 0,
    noise: float = 0.1,
    labels_per_block: int = 4,
) -> Dataset:
    """Block-structured random graph with block ids as labels.

    Features are one-hot block indicators plus Gaussian noise.  The split
    follows the labeled-per-class protocol (shrunk to the graph size), and
    ``meta`` records the connected-component check.  Every node pair draws
    one uniform, so ResourceError is raised first when 33 bytes a pair (two
    int64 node ids, a probability, a uniform and the masks and labels they
    are drawn by) and the 8 n of labels exceed ``require_memory``'s bound.
    """
    if not 0.0 <= p_out < p_in <= 1.0:
        raise ConfigError(
            f"need 0 <= p_out < p_in <= 1, got p_in={p_in}, p_out={p_out}"
        )
    if n_per_block < 1 or blocks < 1:
        raise ConfigError("n_per_block and blocks must be positive")
    n = n_per_block * blocks
    labels = np.repeat(np.arange(blocks, dtype=np.int64), n_per_block)
    rng = np.random.default_rng(seed)
    pairs = n * (n - 1) // 2
    require_memory(33 * pairs + 8 * n, f"a planted partition of {n} nodes draws a uniform for {pairs} pairs")
    iu, ju = np.triu_indices(n, k=1)
    probs = np.where(labels[iu] == labels[ju], p_in, p_out)
    chosen = rng.random(len(iu)) < probs
    edges = np.column_stack([iu[chosen], ju[chosen]])
    graph = build_graph(edges, n)
    features = np.eye(blocks)[labels] + rng.normal(0.0, noise, size=(n, blocks))
    split = make_split(labels, per_class=labels_per_block, seed=seed)
    components = component_count(graph)
    return Dataset(
        graph=graph,
        features=features,
        labels=labels,
        num_classes=blocks,
        split=split,
        meta={"n_components": components, "connected": components == 1},
    )
