"""Seeded sparse fixtures in the shellprop TSV dataset layout.

Edges are sampled per pair of classes (a planted partition), so the cost is
proportional to the edge count and never to n**2.  Every small component is
then joined to the largest one by a single edge, so distances are finite
everywhere and a full-diameter operator stores exactly n**2 pairs.  Features
are sparse binary bag-of-words rows whose active columns lean towards a
per-class topic, which gives the classifier a learnable signal.

The program under test only ever sees the written files.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

#: Class shares of the Cora citation graph.
CORA_CLASS_SIZES = (351, 217, 418, 818, 426, 298, 180)
#: Share of sampled edges that join two nodes of the same class.
HOMOPHILY = 0.8
#: Chance that an active feature column is drawn from the node's class topic.
TOPIC_SHARE = 0.35
#: Mean active feature columns per node, less one.
WORDS_PER_NODE = 9.0


@dataclass(frozen=True)
class FixtureSpec:
    name: str
    n: int
    edges: int
    classes: int
    features: int
    topic_width: int = 30
    train_per_class: int = 20
    val: int = 500
    test: int = 1000


CORA = FixtureSpec("cora", n=2708, edges=5000, classes=7, features=300)
DIAG = FixtureSpec("diag", n=1000, edges=1850, classes=7, features=8)


def class_sizes(spec: FixtureSpec) -> np.ndarray:
    """Cora's class shares scaled to ``spec.n`` (largest-remainder rounding)."""
    shares = np.resize(np.asarray(CORA_CLASS_SIZES, dtype=np.float64), spec.classes)
    raw = shares / shares.sum() * spec.n
    sizes = np.floor(raw).astype(np.int64)
    order = np.argsort(-(raw - sizes), kind="stable")
    sizes[order[: spec.n - sizes.sum()]] += 1
    return sizes


def _pair_counts(sizes: np.ndarray, spec: FixtureSpec) -> dict[tuple[int, int], int]:
    """Edge count per unordered class pair, summing exactly to ``spec.edges``."""
    c = len(sizes)
    intra = sizes * (sizes - 1) / 2.0
    inter = np.outer(sizes, sizes)
    pairs, weights = [], []
    for a in range(c):
        for b in range(a, c):
            pairs.append((a, b))
            if a == b:
                weights.append(HOMOPHILY * intra[a] / intra.sum())
            else:
                weights.append(
                    (1 - HOMOPHILY) * inter[a, b] / np.triu(inter, 1).sum()
                )
    raw = np.asarray(weights) * spec.edges
    counts = np.floor(raw).astype(np.int64)
    order = np.argsort(-(raw - counts), kind="stable")
    counts[order[: spec.edges - counts.sum()]] += 1
    return dict(zip(pairs, counts.tolist()))


def _sample_edges(rng, members: list[np.ndarray], counts) -> np.ndarray:
    chunks = []
    for (a, b), k in counts.items():
        if k == 0:
            continue
        got = np.empty((0, 2), dtype=np.int64)
        while len(got) < k:
            u = rng.choice(members[a], size=2 * k)
            v = rng.choice(members[b], size=2 * k)
            cand = np.column_stack([np.minimum(u, v), np.maximum(u, v)])
            cand = cand[cand[:, 0] != cand[:, 1]]
            merged = np.concatenate([got, cand])
            _, first = np.unique(merged, axis=0, return_index=True)
            got = merged[np.sort(first)]
        chunks.append(got[:k])
    # pairs drawn for different class pairs never collide
    return np.concatenate(chunks)


def _join_components(rng, n: int, edges: np.ndarray) -> np.ndarray:
    """Link every component but the largest to it by one random edge."""
    a = sp.coo_matrix(
        (np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n)
    ).tocsr()
    count, comp = connected_components(a, directed=False)
    if count == 1:
        return edges
    giant = np.bincount(comp).argmax()
    giant_nodes = np.flatnonzero(comp == giant)
    extra = []
    for c in range(count):
        if c == giant:
            continue
        u = int(rng.choice(np.flatnonzero(comp == c)))
        v = int(rng.choice(giant_nodes))
        extra.append((min(u, v), max(u, v)))
    return np.concatenate([edges, np.asarray(extra, dtype=np.int64)])


def generate(spec: FixtureSpec, seed: int) -> dict:
    """Arrays of one fixture: edges (u < v), features, labels and split."""
    rng = np.random.default_rng(seed)
    sizes = class_sizes(spec)
    labels = rng.permutation(np.repeat(np.arange(spec.classes), sizes))
    members = [np.flatnonzero(labels == c) for c in range(spec.classes)]
    edges = _sample_edges(rng, members, _pair_counts(sizes, spec))
    edges = _join_components(rng, spec.n, edges)

    x = np.zeros((spec.n, spec.features), dtype=np.int8)
    words = 1 + rng.poisson(WORDS_PER_NODE, size=spec.n)
    for i in range(spec.n):
        topic = (labels[i] * spec.topic_width + np.arange(spec.topic_width)) % spec.features
        on_topic = rng.random(words[i]) < TOPIC_SHARE
        cols = np.where(
            on_topic,
            rng.choice(topic, size=words[i]),
            rng.integers(0, spec.features, size=words[i]),
        )
        x[i, cols] = 1

    train = np.sort(np.concatenate([
        rng.choice(m, size=spec.train_per_class, replace=False) for m in members
    ]))
    rest = rng.permutation(np.setdiff1d(np.arange(spec.n), train))
    split = {
        "train": train.tolist(),
        "val": np.sort(rest[: spec.val]).tolist(),
        "test": np.sort(rest[spec.val : spec.val + spec.test]).tolist(),
    }
    return {"edges": edges, "features": x, "labels": labels, "split": split}


def write(directory: Path, arrays: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "edges.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(f"{u}\t{v}\n" for u, v in arrays["edges"].tolist())
    with open(directory / "features.tsv", "w", encoding="utf-8") as fh:
        fh.writelines("\t".join(map(str, row)) + "\n" for row in arrays["features"].tolist())
    with open(directory / "labels.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(f"{c}\n" for c in arrays["labels"].tolist())
    with open(directory / "split.json", "w", encoding="utf-8") as fh:
        json.dump(arrays["split"], fh, sort_keys=True)


def materialize(directory: Path, spec: FixtureSpec, seed: int) -> dict:
    """Generate the fixture for ``seed``, write it under ``directory`` and
    return its arrays, which the oracles use."""
    arrays = generate(spec, seed)
    write(directory, arrays)
    return arrays
