import copy
import struct

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from shellprop import (
    ConfigError,
    DenseMatrix,
    FusedPropagator,
    InputError,
    ModelParams,
    ShellDecomposition,
    TrainConfig,
    adam_step,
    backward,
    build_graph,
    evaluate,
    forward,
    fuse_shells,
    init_adam,
    init_params,
    load_checkpoint,
    loss,
    save_checkpoint,
    shell_decompose,
    synth_planted_partition,
    train,
)
from shellprop.data import Dataset, Split
from shellprop.graph import as_array, by_bytes, from_array, stores_dense
from shellprop.model import _dropped, _forward_cache, _row_blocks, _row_logits, _rows_of

from helpers import bag_of_words, dense_fused, random_connected_graph, reference_forward


def identity_propagator(n: int) -> FusedPropagator:
    """Single empty shell normalized to I with unit coefficient."""
    empty = sp.csr_array(([], ([], [])), shape=(n, n))
    shells = fuse_shells(ShellDecomposition(n, (empty,), 1, (0,)), 2.0).normalized_shells
    return FusedPropagator(n, shells, np.array([1.0]), 2.0)


def small_instance(seed: int, n=12, d=5, h=8, c=3, p=0.3):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(seed + 700, n, p)
    x = rng.standard_normal((n, d))
    y = rng.integers(0, c, n)
    mask = np.sort(rng.choice(n, size=max(2, n // 2), replace=False))
    prop = fuse_shells(shell_decompose(g), 2.0)
    params = init_params(d, h, c, rng)
    return g, x, y, mask, prop, params


def sparse_instance(seed: int, h=8):
    """``small_instance``'s tuple for 12 nodes of bag-of-words features in
    their CSR carrier."""
    ds = bag_of_words(seed, n_per_class=4, features=20)
    x = ds.feature_matrix
    assert isinstance(x, sp.csr_array)
    prop = fuse_shells(shell_decompose(ds.graph), 2.0)
    params = init_params(x.shape[1], h, ds.num_classes, np.random.default_rng(seed))
    return ds.graph, x, ds.labels, ds.split.train, prop, params


class FieldRng:
    """Hands out fixed uniform arrays in turn, reshaped to each request."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self, shape):
        return self.draws.pop(0).reshape(shape)


class TestForward:
    def test_zero_params_give_uniform_probabilities(self):
        g, x, _, _, prop, params = small_instance(0)
        zeros = ModelParams(*(np.zeros_like(a) for a in params.arrays()))
        _, probs = forward(zeros, x, prop)
        assert np.allclose(probs, 1.0 / probs.shape[1])

    def test_identity_propagator_reduces_to_plain_mlp(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 4))
        params = init_params(4, 5, 3, rng)
        _, probs = forward(params, x, identity_propagator(6))
        logits = np.maximum(x @ params.w1 + params.b1, 0.0) @ params.w2 + params.b2
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        assert np.max(np.abs(probs - e / e.sum(axis=1, keepdims=True))) < 1e-12

    def test_matches_reference_implementation(self):
        g, x, _, _, prop, params = small_instance(2)
        _, probs = forward(params, x, prop)
        want = reference_forward(params, x, dense_fused(g, 2.0))
        assert np.max(np.abs(probs - want)) < 1e-10

    def test_rows_sum_to_one(self):
        _, x, _, _, prop, params = small_instance(3)
        _, probs = forward(params, x, prop)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-6
        assert np.all((probs >= 0) & (probs <= 1))

    def test_dropout_only_in_train_mode(self):
        _, x, _, _, prop, params = small_instance(4)
        _, eval_probs = forward(params, x, prop, train_mode=False)
        _, eval_probs2 = forward(params, x, prop, train_mode=False)
        assert np.array_equal(eval_probs, eval_probs2)
        rng = np.random.default_rng(0)
        _, train_probs = forward(params, x, prop, train_mode=True, rng=rng)
        assert not np.allclose(train_probs, eval_probs)

    def test_train_mode_requires_rng(self):
        _, x, _, _, prop, params = small_instance(5)
        with pytest.raises(InputError):
            forward(params, x, prop, train_mode=True, rng=None)

    def test_shape_mismatch(self):
        _, x, _, _, prop, params = small_instance(6)
        with pytest.raises(InputError):
            forward(params, x[:, :2], prop)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_intermediate_raises(self):
        from shellprop import NumericError

        _, x, _, _, prop, params = small_instance(6)
        broken = ModelParams(params.w1 * np.inf, params.b1, params.w2, params.b2)
        with pytest.raises(NumericError):
            forward(broken, x, prop)

    def test_permutation_equivariance(self):
        g, x, _, _, prop, params = small_instance(7)
        rng = np.random.default_rng(7)
        perm = rng.permutation(g.n)
        relabeled = build_graph(
            [(perm[u], perm[v]) for u in range(g.n) for v in g.neighbors(u) if u < v],
            g.n,
        )
        xp = np.empty_like(x)
        xp[perm] = x
        _, probs = forward(params, x, prop)
        _, probs_p = forward(params, xp, fuse_shells(shell_decompose(relabeled), 2.0))
        assert np.max(np.abs(probs_p[perm] - probs)) < 1e-12
        assert np.array_equal(probs_p[perm].argmax(axis=1), probs.argmax(axis=1))


class TestLoss:
    def test_perfect_predictions(self):
        probs = np.eye(3)
        assert loss(probs, np.array([0, 1, 2]), np.arange(3)) == 0.0

    def test_uniform_predictions(self):
        probs = np.full((4, 5), 0.2)
        got = loss(probs, np.zeros(4, dtype=int), np.arange(4))
        assert got == pytest.approx(4 * np.log(5.0), rel=1e-12)

    def test_hand_built_three_nodes(self):
        probs = np.array([[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]])
        got = loss(probs, np.array([0, 1, 0]), np.array([0, 2]))
        assert got == pytest.approx(-(np.log(0.7) + np.log(0.5)), rel=1e-12)

    def test_empty_mask(self):
        with pytest.raises(InputError):
            loss(np.full((2, 2), 0.5), np.array([0, 1]), np.array([], dtype=int))

    def test_clamps_tiny_probabilities(self):
        probs = np.array([[1.0, 0.0]])
        got = loss(probs, np.array([1]), np.array([0]))
        assert np.isfinite(got)
        assert got == pytest.approx(-np.log(1e-12))


class TestBackward:
    def test_zero_gradient_at_symmetric_stationary_point(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([0, 1])
        params = ModelParams(np.zeros((2, 4)), np.zeros(4), np.zeros((4, 2)), np.zeros(2))
        grads = backward(params, x, identity_propagator(2), y, np.array([0, 1]), dropout=0.0)
        for g in grads.arrays():
            assert np.allclose(g, 0.0)

    @pytest.mark.parametrize(
        "seed, sparse",
        [*((seed, False) for seed in range(6)), (0, True), (1, True)],
        ids=[*map(str, range(6)), "sparse-0", "sparse-1"],
    )
    def test_matches_central_differences(self, seed, sparse):
        _, x, y, mask, prop, params = (sparse_instance if sparse else small_instance)(seed)
        wd = 0.01 if seed % 2 else 0.0
        grads = backward(params, x, prop, y, mask, dropout=0.0, weight_decay=wd)

        def objective(p: ModelParams) -> float:
            _, probs = forward(p, x, prop)
            reg = 0.5 * wd * (np.sum(p.w1**2) + np.sum(p.w2**2))
            return loss(probs, y, mask) + reg

        eps = 1e-5
        for name in ("w1", "b1", "w2", "b2"):
            base = getattr(params, name)
            analytic = getattr(grads, name)
            it = np.nditer(base, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                arrays = {k: getattr(params, k).copy() for k in ("w1", "b1", "w2", "b2")}
                arrays[name][idx] += eps
                up = objective(ModelParams(**arrays))
                arrays[name][idx] -= 2 * eps
                down = objective(ModelParams(**arrays))
                fd = (up - down) / (2 * eps)
                rel = abs(fd - analytic[idx]) / max(abs(fd), abs(analytic[idx]), 1e-6)
                assert rel < 1e-4, f"{name}{idx}: analytic {analytic[idx]} vs fd {fd}"

    def test_output_bias_gradient_identity(self):
        _, x, y, mask, prop, params = small_instance(8)
        grads = backward(params, x, prop, y, mask, dropout=0.0)
        _, probs = forward(params, x, prop)
        delta = probs[mask].copy()
        delta[np.arange(len(mask)), y[mask]] -= 1.0
        assert np.max(np.abs(grads.b2 - delta.sum(axis=0))) < 1e-12

    def test_zero_weight_decay_is_pure_cross_entropy(self):
        _, x, y, mask, prop, params = small_instance(9)
        plain = backward(params, x, prop, y, mask, dropout=0.0, weight_decay=0.0)
        decayed = backward(params, x, prop, y, mask, dropout=0.0, weight_decay=0.1)
        assert np.array_equal(plain.b1, decayed.b1)
        assert np.array_equal(plain.b2, decayed.b2)
        assert np.max(np.abs(decayed.w1 - plain.w1 - 0.1 * params.w1)) < 1e-12

    def test_same_rng_reproduces_dropout_mask(self):
        _, x, y, mask, prop, params = small_instance(10)
        g1 = backward(params, x, prop, y, mask, rng=np.random.default_rng(5), dropout=0.5)
        g2 = backward(params, x, prop, y, mask, rng=np.random.default_rng(5), dropout=0.5)
        for a, b in zip(g1.arrays(), g2.arrays()):
            assert np.array_equal(a, b)


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        params = ModelParams(
            np.array([[1.0, -2.0]]), np.array([0.5]), np.array([[3.0]]), np.array([-1.0])
        )
        grads = ModelParams(
            np.array([[0.3, -0.7]]), np.array([2.0]), np.array([[-0.1]]), np.array([0.0])
        )
        new, state = adam_step(init_adam(params), params, grads, lr=0.05)
        for p, g, q in zip(params.arrays(), grads.arrays(), new.arrays()):
            step = q - p
            expected = -0.05 * np.sign(g) * (np.abs(g) > 0)
            assert np.max(np.abs(step - expected)) < 1e-6
        assert state.step == 1

    def test_zero_gradient_leaves_parameters(self):
        params = ModelParams(np.ones((2, 2)), np.ones(2), np.ones((2, 2)), np.ones(2))
        zero = ModelParams(*(np.zeros_like(a) for a in params.arrays()))
        new, _ = adam_step(init_adam(params), params, zero, lr=0.1)
        for a, b in zip(params.arrays(), new.arrays()):
            assert np.array_equal(a, b)

    def test_matches_scalar_simulation_on_quadratic(self):
        # independent scalar implementation of the same update rule
        x_ref, m_ref, v_ref = 1.0, 0.0, 0.0
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        ref_path = []
        for t in range(1, 11):
            grad = 2.0 * x_ref
            m_ref = b1 * m_ref + (1 - b1) * grad
            v_ref = b2 * v_ref + (1 - b2) * grad * grad
            x_ref -= lr * (m_ref / (1 - b1**t)) / (np.sqrt(v_ref / (1 - b2**t)) + eps)
            ref_path.append(x_ref)

        params = ModelParams(np.array([[1.0]]), np.zeros(1), np.zeros((1, 1)), np.zeros(1))
        state = init_adam(params)
        objective = []
        for _ in range(10):
            grads = ModelParams(
                2.0 * params.w1, np.zeros(1), np.zeros((1, 1)), np.zeros(1)
            )
            params, state = adam_step(state, params, grads, lr=lr)
            objective.append(float(params.w1[0, 0] ** 2))
        assert params.w1[0, 0] == pytest.approx(ref_path[-1], rel=1e-12)
        assert all(b < a for a, b in zip([1.0] + objective, objective))


class TestTrainAndEvaluate:
    def test_planted_partition_is_learnable(self):
        ds = synth_planted_partition(10, 2, 0.8, 0.05, seed=0)
        config = TrainConfig(alpha=2.0, epochs=200, patience=200, seed=0)
        params, history = train(ds, config)
        prop = fuse_shells(shell_decompose(ds.graph), 2.0)
        acc, _ = evaluate(params, ds, prop, ds.split.test)
        assert acc >= 0.9

    def test_deterministic_histories(self):
        ds = synth_planted_partition(10, 2, 0.8, 0.05, seed=1)
        config = TrainConfig(alpha=2.0, epochs=40, patience=40, seed=3)
        p1, h1 = train(ds, config)
        p2, h2 = train(ds, config)
        assert h1.train_loss == h2.train_loss
        assert h1.val_accuracy == h2.val_accuracy
        assert h1.best_epoch == h2.best_epoch
        for a, b in zip(p1.arrays(), p2.arrays()):
            assert np.array_equal(a, b)

    def test_dense_operator_checkpoints_are_byte_identical(self, tmp_path):
        ds = synth_planted_partition(60, 3, 0.1, 0.01, seed=4, labels_per_block=5)
        assert isinstance(fuse_shells(shell_decompose(ds.graph), 2.0).matrix, DenseMatrix)
        config = TrainConfig(alpha=2.0, epochs=15, patience=15, seed=2)
        for name in ("a.bin", "b.bin"):
            save_checkpoint(tmp_path / name, train(ds, config)[0])
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    @pytest.mark.parametrize("width", [7, 64])
    def test_sliced_validation_rows_match_the_full_product(self, width):
        # a CSR row slice keeps each row's summation order; a dense slice is
        # a smaller BLAS product, whose blocking may change the order
        ds = synth_planted_partition(100, 3, 0.05, 0.005, seed=3, labels_per_block=5)
        val = ds.split.val
        z = np.maximum(np.random.default_rng(width).standard_normal((ds.n, width)), 0.0)
        dense = fuse_shells(shell_decompose(ds.graph), 2.0).matrix
        csr = fuse_shells(shell_decompose(ds.graph, 1), 2.0).matrix
        assert isinstance(dense, DenseMatrix) and isinstance(csr, sp.csr_array)
        assert np.array_equal(csr[val] @ z, (csr @ z)[val])
        full = (dense.values @ z)[val]
        bound = 4 * np.finfo(float).eps * ((np.abs(dense.values) @ z)[val]).max()
        assert np.max(np.abs(dense.values[val] @ z - full)) <= bound

    def test_loss_decreases_over_first_ten_epochs(self):
        ds = synth_planted_partition(10, 2, 0.8, 0.05, seed=0)
        _, hist = train(ds, TrainConfig(alpha=2.0, dropout=0.0, epochs=10, patience=10, seed=0))
        assert all(b < a for a, b in zip(hist.train_loss, hist.train_loss[1:]))

    def test_early_stopping_respects_patience(self):
        ds = synth_planted_partition(10, 2, 0.8, 0.05, seed=2)
        config = TrainConfig(alpha=2.0, epochs=500, patience=5, seed=0)
        _, hist = train(ds, config)
        assert len(hist.train_loss) <= hist.best_epoch + 5 + 1

    def test_tracked_validation_accuracy_matches_evaluate(self):
        # the loop scores validation through row-sliced shells; the public
        # evaluator must agree at the returned parameters, with dense and
        # with CSR features
        dense = synth_planted_partition(12, 3, 0.7, 0.05, seed=6, labels_per_block=3)
        sparse = bag_of_words(6, n_per_class=12, labels_per_class=3)
        assert isinstance(sparse.feature_matrix, sp.csr_array)
        for ds in (dense, sparse):
            config = TrainConfig(alpha=2.0, epochs=25, patience=25, seed=1)
            params, hist = train(ds, config)
            prop = fuse_shells(shell_decompose(ds.graph), 2.0)
            acc, _ = evaluate(params, ds, prop, ds.split.val)
            assert acc == hist.val_accuracy[hist.best_epoch]

    def test_dataset_without_split_rejected(self):
        ds = synth_planted_partition(10, 2, 0.8, 0.05, seed=0)
        bare = Dataset(ds.graph, ds.features, ds.labels, ds.num_classes, split=None)
        with pytest.raises(InputError):
            train(bare, TrainConfig(alpha=2.0))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(alpha=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(alpha=2.0, dropout=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(alpha=2.0, lr=0.0)

    def test_evaluate_perfect_predictions(self):
        x = np.vstack([np.eye(2)] * 3)
        labels = np.array([0, 1] * 3)
        g = build_graph([], 6)
        ds = Dataset(g, x, labels, 2, Split(np.arange(2), np.arange(2, 4), np.arange(4, 6)))
        params = ModelParams(10 * np.eye(2), np.zeros(2), 10 * np.eye(2), np.zeros(2))
        acc, f1 = evaluate(params, ds, identity_propagator(6), np.arange(6))
        assert (acc, f1) == (1.0, 1.0)

    def test_evaluate_single_class_collapse(self):
        x = np.vstack([np.eye(2)] * 2)
        labels = np.array([0, 1, 0, 1])
        g = build_graph([], 4)
        ds = Dataset(g, x, labels, 2, None)
        params = ModelParams(
            np.zeros((2, 2)), np.zeros(2), np.zeros((2, 2)), np.array([1.0, 0.0])
        )
        acc, f1 = evaluate(params, ds, identity_propagator(4), np.arange(4))
        assert acc == 0.5
        assert f1 == pytest.approx(1.0 / 3.0)

    def test_evaluate_permutation_invariant(self):
        ds = synth_planted_partition(8, 2, 0.7, 0.1, seed=4)
        prop = fuse_shells(shell_decompose(ds.graph), 2.0)
        params, _ = train(ds, TrainConfig(alpha=2.0, epochs=30, patience=30, seed=0))
        base = evaluate(params, ds, prop, ds.split.test)

        perm = np.random.default_rng(0).permutation(ds.n)
        g = ds.graph
        relabeled = build_graph(
            [(perm[u], perm[v]) for u in range(g.n) for v in g.neighbors(u) if u < v],
            g.n,
        )
        xp = np.empty_like(ds.features)
        xp[perm] = ds.features
        yp = np.empty_like(ds.labels)
        yp[perm] = ds.labels
        permuted = Dataset(relabeled, xp, yp, ds.num_classes, None)
        prop_p = fuse_shells(shell_decompose(relabeled), 2.0)
        assert evaluate(params, permuted, prop_p, perm[ds.split.test]) == base

    def test_evaluate_empty_mask(self):
        ds = synth_planted_partition(8, 2, 0.7, 0.1, seed=4)
        prop = fuse_shells(shell_decompose(ds.graph), 2.0)
        params = init_params(2, 4, 2, np.random.default_rng(0))
        with pytest.raises(InputError):
            evaluate(params, ds, prop, np.array([], dtype=int))


class TestSparseFeatures:
    def test_carrier_follows_the_byte_rule(self):
        sparse = bag_of_words(0, n_per_class=40, features=300, words=10)
        assert 0.02 < np.count_nonzero(sparse.features) / sparse.features.size < 0.04
        x = sparse.feature_matrix
        assert isinstance(x, sp.csr_array) and x is sparse.feature_matrix
        assert x.indices.dtype == x.indptr.dtype == np.int64
        assert not x.data.flags.writeable
        assert np.array_equal(x.toarray(), sparse.features)
        synth = synth_planted_partition(10, 2, 0.8, 0.05, seed=0)
        assert isinstance(synth.feature_matrix, DenseMatrix)
        assert np.array_equal(synth.feature_matrix.values, synth.features)

    def test_byte_rule_boundary(self):
        # dense takes 8 * 3 * 4 = 96 bytes, CSR 16 nnz + 32: a tie is dense
        assert stores_dense((3, 4), 4) and not stores_dense((3, 4), 3)
        x = np.zeros((3, 4))
        x.flat[:4] = 1.0
        assert isinstance(by_bytes(x), DenseMatrix)
        x.flat[3] = 0.0
        assert isinstance(by_bytes(x), sp.csr_array)

    def test_dropout_writes_only_inside_the_pattern(self):
        x = bag_of_words(1, n_per_class=20, features=60, words=3).feature_matrix
        rng = np.random.default_rng(4)
        dropped = _dropped(x, rng, 0.5)
        assert np.array_equal(dropped.indices, x.indices)
        assert np.array_equal(dropped.indptr, x.indptr)
        assert set(np.unique(dropped.data)) == {0.0, 2.0}
        # one uniform per stored entry
        replay = np.random.default_rng(4)
        replay.random(x.nnz)
        assert rng.random() == replay.random()

    def test_dense_features_draw_every_entry_in_c_order(self):
        _, x, _, _, prop, params = small_instance(11)
        _, from_array = forward(params, x, prop, train_mode=True, rng=np.random.default_rng(2))
        _, from_carrier = forward(
            params, by_bytes(x), prop, train_mode=True, rng=np.random.default_rng(2)
        )
        assert isinstance(by_bytes(x), DenseMatrix)
        assert np.array_equal(from_array, from_carrier)

    def test_csr_and_dense_paths_agree_with_the_same_kept_entries(self):
        _, x, y, mask, prop, params = sparse_instance(3)
        rng = np.random.default_rng(9)
        field = rng.random(x.shape)
        hidden = rng.random((x.shape[0], params.hidden))
        stored = field[np.repeat(np.arange(x.shape[0]), np.diff(x.indptr)), x.indices]
        dense = x.toarray()
        for train_mode in (False, True):
            _, csr_probs = forward(params, x, prop, train_mode, FieldRng(stored, hidden))
            _, dense_probs = forward(params, dense, prop, train_mode, FieldRng(field, hidden))
            assert np.max(np.abs(csr_probs - dense_probs)) < 1e-13
        csr_grads = backward(params, x, prop, y, mask, FieldRng(stored, hidden), weight_decay=0.1)
        dense_grads = backward(params, dense, prop, y, mask, FieldRng(field, hidden), weight_decay=0.1)
        for a, b in zip(csr_grads.arrays(), dense_grads.arrays()):
            assert np.max(np.abs(a - b)) < 1e-12 * max(1.0, np.abs(b).max())


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = init_params(7, 4, 3, np.random.default_rng(0))
        path = tmp_path / "model.bin"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        for a, b in zip(params.arrays(), loaded.arrays()):
            assert np.array_equal(a, b)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "model.bin"
        params = init_params(2, 2, 2, np.random.default_rng(0))
        save_checkpoint(path, params)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(InputError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_rejects_truncated_file(self, tmp_path):
        path = tmp_path / "model.bin"
        params = init_params(2, 2, 2, np.random.default_rng(0))
        save_checkpoint(path, params)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(InputError, match="size"):
            load_checkpoint(path)


def _checkpoint_bytes(d: int, h: int, c: int) -> bytes:
    params = init_params(d, h, c, np.random.default_rng(d + h + c))
    return struct.pack("<4sIIII", b"SHLP", 1, d, h, c) + b"".join(
        a.astype("<f8").tobytes() for a in params.arrays()
    )


_DIM = st.sampled_from([0, 1, 2, 3, 2**16, 2**31, 2**32 - 1])
_CHECKPOINTS = st.one_of(
    st.binary(max_size=200),
    # a valid checkpoint cut short at any byte
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 300))
    .map(lambda t: _checkpoint_bytes(*t[:3])[: t[3]]),
    # the valid magic and version with any dimensions, huge or zero
    st.tuples(_DIM, _DIM, _DIM, st.binary(max_size=100))
    .map(lambda t: struct.pack("<4sIIII", b"SHLP", 1, *t[:3]) + t[3]),
)


class TestCheckpointFuzz:
    @given(raw=_CHECKPOINTS)
    @settings(max_examples=300, deadline=None)
    def test_only_input_errors_escape(self, raw, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "fuzz-checkpoint.bin"
        path.write_bytes(raw)
        try:
            params = load_checkpoint(path)
        except InputError:
            return
        assert len(raw) == 20 + 8 * sum(a.size for a in params.arrays())


def in_carrier(prop: FusedPropagator, dense: bool) -> FusedPropagator:
    """``prop`` with its P held in the dense or the CSR carrier."""
    m = as_array(prop.matrix)
    if dense != sp.issparse(m):
        return prop
    other = copy.copy(prop)
    object.__setattr__(other, "matrix", DenseMatrix(m.toarray()) if dense else from_array(sp.csr_array(m)))
    return other


@st.composite
def split_datasets(draw):
    """A dataset of 3 to 60 nodes, about a tenth of them isolated and the rest
    often in several components, with Gaussian features, three classes and a
    random split, and its P in a drawn carrier."""
    n = draw(st.integers(3, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ends = rng.integers(0, n, size=(int(draw(st.sampled_from([0.0, 0.5, 1, 2, 4])) * n / 2), 2))
    kept = rng.random(n) >= 0.1
    g = build_graph(ends[kept[ends].all(axis=1)], n)
    order = rng.permutation(n)
    train_size = draw(st.integers(1, n - 2))
    val_size = draw(st.integers(1, n - train_size - 1))
    split = Split(
        np.sort(order[:train_size]),
        np.sort(order[train_size : train_size + val_size]),
        np.sort(order[train_size + val_size :]),
    )
    ds = Dataset(g, rng.standard_normal((n, 4)), rng.integers(0, 3, n), 3, split)
    prop = fuse_shells(shell_decompose(g, draw(st.sampled_from([None, 1, 2]))), 2.0)
    return ds, in_carrier(prop, draw(st.booleans()))


def reference_train(ds, config: TrainConfig, prop: FusedPropagator):
    """``train``'s loop on all of P: the full forward pass, the gradient of
    the loss rows padded with zeros and carried back through all of P, and
    validation on every row of the logits."""
    x, y = ds.features, ds.labels
    train_mask, val_mask = ds.split.train, ds.split.val
    p = as_array(prop.matrix)
    seeds = np.random.SeedSequence(config.seed).spawn(config.epochs + 1)
    params = init_params(x.shape[1], config.hidden, ds.num_classes, np.random.default_rng(seeds[0]))
    adam = init_adam(params)
    losses, val_accs, best = [], [], (-1.0, 0, params)
    for epoch in range(config.epochs):
        cache = _forward_cache(params, x, _rows_of(prop), config.dropout, np.random.default_rng(seeds[epoch + 1]))
        losses.append(loss(cache["probs"], y, train_mask))
        g = np.zeros_like(cache["probs"])
        g[train_mask] = cache["probs"][train_mask]
        g[train_mask, y[train_mask]] -= 1.0
        ds_ = (g @ params.w2.T) * cache["mask2"]
        da1 = (p @ ds_) * (cache["a1"] > 0.0)
        grads = ModelParams(
            cache["x_in"].T @ da1 + config.weight_decay * params.w1,
            da1.sum(axis=0),
            cache["s_in"].T @ g + config.weight_decay * params.w2,
            g.sum(axis=0),
        )
        params, adam = adam_step(adam, params, grads, config.lr)
        logits, _ = forward(params, x, prop)
        val_accs.append(float((logits[val_mask].argmax(axis=1) == y[val_mask]).mean()))
        if val_accs[-1] > best[0]:
            best = (val_accs[-1], epoch, params)
        elif epoch - best[1] >= config.patience:
            break
    return best[2], losses, val_accs, best[1]


def spy_products(monkeypatch) -> list[tuple[tuple[int, int], int]]:
    """The shape of each matrix that the model multiplies through ``spmm``,
    with the width of the operand it multiplies."""
    import shellprop.model as model_module

    products = []
    real = model_module.spmm

    def spmm(m, x):
        products.append((m.shape, x.shape[1]))
        return real(m, x)

    monkeypatch.setattr("shellprop.model.spmm", spmm)
    return products


class TestRowRestriction:
    """Training and scoring multiply only the rows of P that a loss or a
    score reads, with the result of training on all of P."""

    @given(case=split_datasets(), seed=st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_same_checkpoint_as_training_on_all_of_p(self, case, seed):
        ds, prop = case
        config = TrainConfig(alpha=2.0, hidden=6, epochs=8, patience=3, seed=seed)
        params, hist = train(ds, config, prop)
        want, losses, val_accs, best_epoch = reference_train(ds, config, prop)
        assert hist.val_accuracy == val_accs and hist.best_epoch == best_epoch
        assert np.allclose(hist.train_loss, losses, rtol=1e-12, atol=0.0)
        for got, ref in zip(params.arrays(), want.arrays()):
            assert np.max(np.abs(got - ref)) <= 1e-12

    @given(case=split_datasets())
    @settings(max_examples=60, deadline=None)
    def test_csr_rows_and_adjoint_are_the_full_products_bit_for_bit(self, case):
        ds, prop = case
        prop = in_carrier(prop, dense=False)
        p, rows = prop.matrix, ds.split.train
        sliced = _rows_of(prop, rows)
        rng = np.random.default_rng(rows.size)
        z = rng.standard_normal((ds.n, 5))
        d = rng.standard_normal((rows.size, 5))
        padded = np.zeros((ds.n, 5))
        padded[rows] = d
        assert np.array_equal(sliced.matrix @ z, (p @ z)[rows])
        assert np.array_equal(sliced.matrix.T @ d, p @ padded)

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "csr"])
    def test_forward_through_all_of_p_is_the_full_product(self, dense):
        _, x, _, _, prop, params = small_instance(4, n=30)
        prop = in_carrier(prop, dense)
        rng = np.random.default_rng(1)
        logits, _ = forward(params, x, prop, train_mode=True, rng=np.random.default_rng(1), dropout=0.5)
        x_in = x * ((rng.random(x.shape) < 0.5) / 0.5)
        z = np.maximum(x_in @ params.w1 + params.b1, 0.0)
        s = as_array(prop.matrix) @ z
        want = (s * ((rng.random(s.shape) < 0.5) / 0.5)) @ params.w2 + params.b2
        assert np.array_equal(logits, want)

    @pytest.mark.parametrize("l_cap", [None, 1], ids=["dense", "csr"])
    def test_no_product_reads_all_of_p(self, monkeypatch, l_cap):
        # 300 nodes and 15 train rows; scoring all 300 takes two row blocks.
        # An epoch's forward pass and adjoint read the train rows at the
        # hidden width, 64; validation and evaluate read their rows at the
        # 3 classes' width
        ds = synth_planted_partition(100, 3, 0.05, 0.005, seed=3, labels_per_block=5)
        n, train_size = ds.n, ds.split.train.size
        prop = fuse_shells(shell_decompose(ds.graph, l_cap), 2.0)
        products = spy_products(monkeypatch)
        params, _ = train(ds, TrainConfig(alpha=2.0, epochs=3, patience=3), prop)
        trained = len(products)
        evaluate(params, ds, prop, ds.split.test)
        evaluate(params, ds, prop, np.arange(n))
        shapes = [shape for shape, _ in products]
        assert shapes and (n, n) not in shapes
        assert {(train_size, n), (n, train_size), (256, n), (n - 256, n)} <= set(shapes)
        assert all(shape in {(train_size, n), (n, train_size)} or shape[0] <= 256 for shape in shapes)
        epoch = [((train_size, n), 64), ((n, train_size), 64), ((ds.split.val.size, n), 3)]
        assert products[:trained] == epoch * 3
        assert all(width == 3 for _, width in products[trained:])

    def test_backward_multiplies_only_the_loss_rows(self, monkeypatch):
        _, x, y, mask, prop, params = small_instance(5, n=20)
        products = spy_products(monkeypatch)
        backward(params, x, prop, y, mask, rng=np.random.default_rng(0))
        assert products == [((mask.size, 20), 8), ((20, mask.size), 8)]

    @given(case=split_datasets(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_class_width_scores_are_the_hidden_width_logits_to_rounding(self, case, seed):
        # each order of (P z) W2 is within (n + h) u (|P| |z|) |W2| of the
        # exact product, to first order, with u = eps / 2
        ds, prop = case
        rng = np.random.default_rng(seed)
        params = init_params(4, 6, 3, rng)
        params = ModelParams(params.w1, rng.standard_normal(6), params.w2, np.zeros(3))
        rows = np.sort(rng.choice(ds.n, size=rng.integers(1, ds.n + 1), replace=False))
        got = _row_logits(params, ds.features, _row_blocks(prop, rows))
        p = as_array(prop.matrix)[rows]
        p = p.toarray() if sp.issparse(p) else p
        z = np.maximum(ds.features @ params.w1 + params.b1, 0.0)
        want = (p @ z) @ params.w2
        bound = (ds.n + 6) * np.finfo(float).eps * ((np.abs(p) @ z) @ np.abs(params.w2))
        assert got.shape == want.shape and np.all(np.abs(got - want) <= bound)
        shifted = ModelParams(params.w1, params.b1, params.w2, rng.standard_normal(3))
        assert np.array_equal(_row_logits(shifted, ds.features, _row_blocks(prop, rows)), got + shifted.b2)


_BAD_MASKS = [
    ([0.0, 1.0], "must be a list of integer node ids"),
    ([-1], "index out of range for n="),
    (None, "index out of range for n="),  # n itself
    ([1, 1], "contains duplicate indices"),
]


class TestMasksAreValidated:
    """Every mask is a list of distinct integer node ids below n, checked as
    ``data`` checks a split file."""

    @staticmethod
    def bad(mask, n):
        return [n] if mask is None else mask

    @pytest.mark.parametrize("mask, message", _BAD_MASKS, ids=["float", "negative", "n", "duplicate"])
    def test_loss(self, mask, message):
        probs = np.full((4, 2), 0.5)
        with pytest.raises(InputError, match=f"loss mask {message}"):
            loss(probs, np.zeros(4, dtype=int), self.bad(mask, 4))

    @pytest.mark.parametrize("mask, message", _BAD_MASKS, ids=["float", "negative", "n", "duplicate"])
    def test_backward(self, mask, message):
        _, x, y, _, prop, params = small_instance(2)
        with pytest.raises(InputError, match=f"loss mask {message}"):
            backward(params, x, prop, y, self.bad(mask, 12), dropout=0.0)

    @pytest.mark.parametrize("mask, message", _BAD_MASKS, ids=["float", "negative", "n", "duplicate"])
    def test_evaluate(self, mask, message):
        ds = synth_planted_partition(8, 2, 0.7, 0.1, seed=4)
        prop = fuse_shells(shell_decompose(ds.graph), 2.0)
        params = init_params(ds.features.shape[1], 4, 2, np.random.default_rng(0))
        with pytest.raises(InputError, match=f"evaluation mask {message}"):
            evaluate(params, ds, prop, self.bad(mask, ds.n))

    @pytest.mark.parametrize("part", ["train", "val", "test"])
    @pytest.mark.parametrize("mask, message", _BAD_MASKS, ids=["float", "negative", "n", "duplicate"])
    def test_train(self, part, mask, message):
        ds = synth_planted_partition(8, 2, 0.7, 0.1, seed=4)
        parts = {"train": ds.split.train, "val": ds.split.val, "test": ds.split.test}
        parts[part] = np.asarray(self.bad(mask, ds.n))
        bad = Dataset(ds.graph, ds.features, ds.labels, ds.num_classes, Split(**parts))
        with pytest.raises(InputError, match=f"split {part} {message}"):
            train(bad, TrainConfig(alpha=2.0, epochs=2))
