"""Two-stage MLP classifier over fused shell propagation.

The forward pass is: transform features, propagate once through the fused
shell operator, transform again, softmax.  Gradients are derived by hand and
updated with Adam; the loss is the plain sum of per-node negative
log-likelihoods over the labeled set, so the learning rate is interpreted
against the summed (not averaged) loss.  Dropout uses the inverted-scaling
convention on the input of each affine stage and is active only in training
mode.

The features X are an ndarray or a matrix carrier; ``train`` and
``evaluate`` use the dataset's ``feature_matrix``, which P's byte rule
stores as CSR for sparse bag-of-words rows and dense otherwise.  Input
dropout draws one uniform per stored entry of X, so a CSR X keeps its
pattern and a dense X draws all n * d values in C order.

A loss reads only its masked rows of P @ z and a score only its scored
rows, so only those rows of P are multiplied: an epoch of ``train`` costs
two products of P's |train| rows with h columns (the forward pass and its
adjoint, where the second dropout mask sits between P and W2) and one of
its |val| rows with C columns, about 2 |train| n h + |val| n C
multiply-adds in P, not two n x n products.  A score has no dropout, so it
multiplies P's rows by z @ W2, n x C, instead of z, and its logits differ
from (P @ z) @ W2 + b2 by rounding only; ``evaluate`` reads its mask's rows
in blocks of at most 256.  ``forward`` alone reads all of P.  A CSR P is
canonical, each row listing its columns in order, so its row slice, and
that slice's transpose, which carries the adjoint, give the full
products' entries bit for bit when the rows ascend; on a dense P they are
smaller BLAS products, so the gradients, and with them the trained
parameters, differ from a full-width product's in the last bits (about
1e-16).
"""
from __future__ import annotations

import struct
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data import node_ids
from .errors import ConfigError, InputError, NumericError
from .graph import DenseMatrix, Matrix, as_array, spmm
from .shells import FusedPropagator, fuse_shells, shell_decompose

_CHECKPOINT_MAGIC = b"SHLP"
_CHECKPOINT_VERSION = 1

#: Rows of P that one product of ``evaluate`` and of validation reads.
_SCORE_ROWS = 256


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Weights and biases of the two affine stages."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    @property
    def hidden(self) -> int:
        return self.w1.shape[1]

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (self.w1, self.b1, self.w2, self.b2)


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 2.0
    l_cap: int | None = None
    hidden: int = 64
    dropout: float = 0.5
    lr: float = 1e-2
    weight_decay: float = 5e-3
    epochs: int = 500
    patience: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if not np.isfinite(self.alpha) or self.alpha <= 1.0:
            raise ConfigError(f"alpha must be > 1, got {self.alpha}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.hidden < 1:
            raise ConfigError(f"hidden width must be >= 1, got {self.hidden}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.l_cap is not None and self.l_cap < 1:
            raise ConfigError(f"l_cap must be >= 1 when given, got {self.l_cap}")


@dataclass(frozen=True, eq=False)
class TrainHistory:
    train_loss: list[float]
    val_accuracy: list[float]
    best_epoch: int
    wall_time: float


@dataclass(frozen=True, eq=False)
class AdamState:
    step: int
    m: ModelParams
    v: ModelParams


def init_params(d: int, hidden: int, num_classes: int, rng) -> ModelParams:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""

    def glorot(fan_in, fan_out):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_in, fan_out))

    return ModelParams(
        w1=glorot(d, hidden),
        b1=np.zeros(hidden),
        w2=glorot(hidden, num_classes),
        b2=np.zeros(num_classes),
    )


def init_adam(params: ModelParams) -> AdamState:
    zeros = ModelParams(*(np.zeros_like(a) for a in params.arrays()))
    zeros2 = ModelParams(*(np.zeros_like(a) for a in params.arrays()))
    return AdamState(step=0, m=zeros, v=zeros2)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _dropout_mask(uniforms: np.ndarray, rate: float) -> np.ndarray:
    """The inverted-dropout scale of each uniform draw: 1 / (1 - rate) where
    it keeps the entry, else 0."""
    keep = 1.0 - rate
    return (uniforms < keep).astype(np.float64) / keep


def _features(x: np.ndarray | Matrix, params: ModelParams) -> np.ndarray | sp.csr_array:
    """The array or csr_array that the first stage multiplies, once it is
    2-D with the first stage's input width."""
    x = as_array(x) if isinstance(x, (DenseMatrix, sp.csr_array)) else np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.w1.shape[0]:
        raise InputError(
            f"feature matrix must be 2-D with {params.w1.shape[0]} columns,"
            f" got shape {x.shape}"
        )
    return x


def _dropped(x: np.ndarray | sp.csr_array, rng, rate: float) -> np.ndarray | sp.csr_array:
    """x after inverted dropout of its stored entries: one uniform per entry
    of a CSR x's ``data``, in place in its pattern, or per entry of a dense x
    in C order."""
    if sp.issparse(x):
        kept = x.data * _dropout_mask(rng.random(x.data.shape), rate)
        return sp.csr_array((kept, x.indices, x.indptr), shape=x.shape)
    return x * _dropout_mask(rng.random(x.shape), rate)


@dataclass(frozen=True, eq=False)
class _Rows:
    """The rows ``index`` of P that a forward pass reads: ``matrix`` is
    P[index], whose transpose carries a gradient on those rows back to all
    n nodes.  For all of P, ``index`` is a full slice and ``matrix`` P."""

    index: np.ndarray | slice
    matrix: np.ndarray | sp.csr_array


def _rows_of(p: FusedPropagator, index: np.ndarray | None = None) -> _Rows:
    """P's rows ``index``, or all of P when it is None.  The transpose of
    either slice is a view.  A CSR P is symmetric and lists each row's
    columns in order, so for ascending ``index`` P[index]^T @ d sums each
    row of P @ d' in its order and equals it bit for bit, d' being d on the
    rows ``index`` and zero elsewhere."""
    m = as_array(p.matrix)
    return _Rows(slice(None), m) if index is None else _Rows(index, m[index])


def _row_blocks(p: FusedPropagator, index: np.ndarray) -> Iterator[np.ndarray | sp.csr_array]:
    """P's rows ``index`` in turn, at most ``_SCORE_ROWS`` of them at a time."""
    m = as_array(p.matrix)
    for start in range(0, index.size, _SCORE_ROWS):
        yield m[index[start : start + _SCORE_ROWS]]


def _row_logits(
    params: ModelParams, x: np.ndarray | Matrix, blocks: Iterable[np.ndarray | sp.csr_array]
) -> np.ndarray:
    """The dropout-free logits (P @ z) @ W2 + b2 of the rows that ``blocks``,
    row blocks of P, select, one block's product at a time; z is the first
    stage's output on every node.  With no dropout between P and W2 they are
    P[rows] @ (z @ W2) + b2, so each block multiplies the n x C operand
    z @ W2, not the n x h z; the two orders agree to rounding."""
    z = np.maximum(_features(x, params) @ params.w1 + params.b1, 0.0)
    scores = z @ params.w2
    return np.concatenate([spmm(rows, scores) + params.b2 for rows in blocks])


def _forward_cache(
    params: ModelParams,
    x: np.ndarray | Matrix,
    rows: _Rows,
    dropout: float,
    rng,
) -> dict:
    """One forward pass, kept for its gradient, on P's ``rows``: the first
    stage runs on every node, and the rest on those rows only."""
    x = _features(x, params)
    if dropout > 0.0:
        if rng is None:
            raise InputError("dropout requires a seeded rng")
        x_in = _dropped(x, rng, dropout)
    else:
        x_in = x
    a1 = x_in @ params.w1 + params.b1
    z = np.maximum(a1, 0.0)
    s = spmm(rows.matrix, z)
    if dropout > 0.0:
        # drawn over every node, as on all of P, so the rng stream is the
        # same, and turned into a mask on ``rows`` only
        mask2 = _dropout_mask(rng.random(z.shape)[rows.index], dropout)
        s_in = s * mask2
    else:
        mask2 = None
        s_in = s
    logits = s_in @ params.w2 + params.b2
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite values in logits")
    probs = _softmax(logits)
    return {
        "x_in": x_in,
        "a1": a1,
        "s_in": s_in,
        "mask2": mask2,
        "logits": logits,
        "probs": probs,
    }


def forward(
    params: ModelParams,
    x: np.ndarray | Matrix,
    p: FusedPropagator,
    train_mode: bool = False,
    rng=None,
    dropout: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the model; returns (logits, probabilities).

    ``x`` is an ndarray, a DenseMatrix or a csr_array.  Dropout is applied
    to the input of both affine stages, only when ``train_mode`` is set,
    with inverted scaling so evaluation needs no rescale; on a CSR x it
    drops stored entries only.
    """
    rate = dropout if train_mode else 0.0
    cache = _forward_cache(params, x, _rows_of(p), rate, rng)
    return cache["logits"], cache["probs"]


def _mask(mask, n: int, what: str) -> np.ndarray:
    """A non-empty mask of distinct node ids below n, as int64."""
    mask = node_ids(mask, n, what)
    if mask.size == 0:
        raise InputError(f"{what} must be non-empty")
    return mask


def _nll(probs: np.ndarray, truth: np.ndarray) -> float:
    """Summed negative log-likelihood of ``truth`` under the rows ``probs``,
    clamped at 1e-12 before the log."""
    p_true = probs[np.arange(truth.size), truth]
    return float(-np.log(np.maximum(p_true, 1e-12)).sum())


def loss(probabilities: np.ndarray, y: np.ndarray, mask: np.ndarray) -> float:
    """Summed negative log-likelihood over the masked nodes.

    Probabilities are clamped at 1e-12 before the log.  The mask must hold
    distinct node ids, each a row of ``probabilities``.
    """
    mask = _mask(mask, len(probabilities), "loss mask")
    return _nll(probabilities[mask], np.asarray(y, dtype=np.int64)[mask])


def _grads_from_cache(
    cache: dict,
    params: ModelParams,
    rows: _Rows,
    truth: np.ndarray,
    weight_decay: float,
) -> ModelParams:
    """Gradients of the summed loss of ``truth`` on the ``rows`` of P that
    ``cache`` was formed on."""
    g = cache["probs"].copy()
    g[np.arange(truth.size), truth] -= 1.0
    grad_w2 = cache["s_in"].T @ g + weight_decay * params.w2
    grad_b2 = g.sum(axis=0)
    ds_in = g @ params.w2.T
    ds = ds_in * cache["mask2"] if cache["mask2"] is not None else ds_in
    dz = spmm(rows.matrix.T, ds)
    da1 = dz * (cache["a1"] > 0.0)
    grad_w1 = cache["x_in"].T @ da1 + weight_decay * params.w1
    grad_b1 = da1.sum(axis=0)
    return ModelParams(grad_w1, grad_b1, grad_w2, grad_b2)


def backward(
    params: ModelParams,
    x: np.ndarray | Matrix,
    p: FusedPropagator,
    y: np.ndarray,
    mask: np.ndarray,
    rng=None,
    dropout: float = 0.5,
    weight_decay: float = 0.0,
) -> ModelParams:
    """Analytic gradients of the summed loss plus (weight_decay/2)*||W||^2.

    The same rng seeding as the paired forward call reproduces the same
    dropout masks.  Weight decay applies to the two weight matrices only.
    The loss reads only the masked rows of P @ z, so only those rows of P
    are multiplied, and the mask must hold distinct node ids.
    """
    mask = _mask(mask, p.n, "loss mask")
    rows = _rows_of(p, mask)
    cache = _forward_cache(params, x, rows, dropout, rng)
    return _grads_from_cache(cache, params, rows, np.asarray(y, dtype=np.int64)[mask], weight_decay)


def adam_step(
    state: AdamState,
    params: ModelParams,
    gradients: ModelParams,
    lr: float,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
) -> tuple[ModelParams, AdamState]:
    """One bias-corrected Adam update; returns (new params, new state)."""
    b1, b2 = betas
    t = state.step + 1
    new_p, new_m, new_v = [], [], []
    for theta, g, m, v in zip(
        params.arrays(), gradients.arrays(), state.m.arrays(), state.v.arrays()
    ):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        new_p.append(theta - lr * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m)
        new_v.append(v)
    return ModelParams(*new_p), AdamState(t, ModelParams(*new_m), ModelParams(*new_v))


def evaluate(params: ModelParams, dataset, p: FusedPropagator, mask) -> tuple[float, float]:
    """Accuracy and macro-F1 of argmax predictions on the masked nodes.

    Argmax ties break toward the lowest class index.  Macro-F1 averages
    per-class F1 over all classes, scoring 0 for a class absent from both
    prediction and truth.  The mask must hold distinct node ids; only its
    rows of P are read, ``_SCORE_ROWS`` at a time.
    """
    mask = _mask(mask, p.n, "evaluation mask")
    logits = _row_logits(params, dataset.feature_matrix, _row_blocks(p, mask))
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite values in logits")
    preds = logits.argmax(axis=1)
    truth = np.asarray(dataset.labels, dtype=np.int64)[mask]
    accuracy = float((preds == truth).mean())
    f1s = []
    for c in range(dataset.num_classes):
        tp = int(((preds == c) & (truth == c)).sum())
        fp = int(((preds == c) & (truth != c)).sum())
        fn = int(((preds != c) & (truth == c)).sum())
        f1s.append(0.0 if tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn))
    return accuracy, float(np.mean(f1s))


def train(
    dataset, config: TrainConfig, propagator: FusedPropagator | None = None
) -> tuple[ModelParams, TrainHistory]:
    """Full-graph training with early stopping on validation accuracy.

    The shell decomposition happens once, before the epoch loop.  Parameters
    from the best validation epoch are returned; runs are deterministic for
    a fixed seed.  Each split part must hold distinct node ids.  P's train
    and validation rows are sliced once; an epoch multiplies only the train
    rows, forward and adjoint, and scores only the validation rows.
    """
    started = time.perf_counter()
    split = dataset.split
    if split is None:
        raise InputError("dataset has no split; build one with make_split")
    train_mask = _mask(split.train, dataset.n, "split train")
    val_mask = node_ids(split.val, dataset.n, "split val")
    node_ids(split.test, dataset.n, "split test")
    if val_mask.size == 0:
        raise InputError("validation set must be non-empty for early stopping")
    if not np.all(np.isfinite(dataset.features)):
        raise InputError("features must be finite")
    if propagator is None:
        decomposition = shell_decompose(dataset.graph, config.l_cap)
        propagator = fuse_shells(decomposition, config.alpha)
    x = as_array(dataset.feature_matrix)
    y = np.asarray(dataset.labels, dtype=np.int64)
    train_rows, train_truth = _rows_of(propagator, train_mask), y[train_mask]
    val_blocks, val_truth = list(_row_blocks(propagator, val_mask)), y[val_mask]

    seeds = np.random.SeedSequence(config.seed).spawn(config.epochs + 1)
    params = init_params(x.shape[1], config.hidden, dataset.num_classes, np.random.default_rng(seeds[0]))
    adam = init_adam(params)

    losses: list[float] = []
    val_accs: list[float] = []
    best_acc = -1.0
    best_epoch = 0
    best_params = params
    for epoch in range(config.epochs):
        rng = np.random.default_rng(seeds[epoch + 1])
        cache = _forward_cache(params, x, train_rows, config.dropout, rng)
        epoch_loss = _nll(cache["probs"], train_truth)
        if not np.isfinite(epoch_loss):
            raise NumericError(f"non-finite training loss at epoch {epoch}")
        grads = _grads_from_cache(cache, params, train_rows, train_truth, config.weight_decay)
        params, adam = adam_step(adam, params, grads, config.lr)
        val_acc = float((_row_logits(params, x, val_blocks).argmax(axis=1) == val_truth).mean())
        losses.append(epoch_loss)
        val_accs.append(val_acc)
        if val_acc > best_acc:
            best_acc = val_acc
            best_epoch = epoch
            best_params = params
        elif epoch - best_epoch >= config.patience:
            break
    history = TrainHistory(
        train_loss=losses,
        val_accuracy=val_accs,
        best_epoch=best_epoch,
        wall_time=time.perf_counter() - started,
    )
    return best_params, history


def save_checkpoint(path, params: ModelParams) -> None:
    """Write the versioned little-endian checkpoint layout."""
    d, h = params.w1.shape
    c = params.w2.shape[1]
    if params.b1.shape != (h,) or params.w2.shape != (h, c) or params.b2.shape != (c,):
        raise InputError("inconsistent parameter shapes")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIIII", _CHECKPOINT_MAGIC, _CHECKPOINT_VERSION, d, h, c))
        for a in params.arrays():
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_checkpoint(path) -> ModelParams:
    with open(path, "rb") as fh:
        raw = fh.read()
    header = struct.calcsize("<4sIIII")
    if len(raw) < header:
        raise InputError(f"{path}: truncated checkpoint")
    magic, version, d, h, c = struct.unpack_from("<4sIIII", raw)
    if magic != _CHECKPOINT_MAGIC:
        raise InputError(f"{path}: not a checkpoint file")
    if version != _CHECKPOINT_VERSION:
        raise InputError(f"{path}: unsupported checkpoint version {version}")
    counts = (d * h, h, h * c, c)
    if len(raw) != header + 8 * sum(counts):
        raise InputError(f"{path}: checkpoint size does not match its header")
    out = []
    offset = header
    for count, shape in zip(counts, ((d, h), (h,), (h, c), (c,))):
        a = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
        out.append(a.astype(np.float64).reshape(shape))
        offset += 8 * count
    return ModelParams(*out)
