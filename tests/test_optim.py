"""Tests for the sparse-aware Adam and SGD optimisers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.layer as layer_module
import repro.kernels.fused as fused_module
from repro.config import (
    LayerConfig,
    LSHConfig,
    OptimizerConfig,
    SamplingConfig,
    SlideNetworkConfig,
    TrainingConfig,
)
from repro.core.network import SlideNetwork
from repro.kernels import Workspace
from repro.optim.adam import AdamOptimizer
from repro.optim.factory import make_optimizer
from repro.optim.sgd import SGDOptimizer
from repro.types import SparseBatch, SparseExample, SparseVector


def reference_adam_step(param, grad, m, v, lr, b1, b2, eps, t):
    """Textbook Adam update used as ground truth."""
    m = b1 * m + (1 - b1) * grad
    v = b2 * v + (1 - b2) * grad**2
    m_hat = m / (1 - b1**t)
    v_hat = v / (1 - b2**t)
    return param - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


class TestAdamDense:
    def test_matches_reference_formula(self, rng):
        opt = AdamOptimizer(learning_rate=0.01)
        param = rng.normal(size=(4, 3))
        opt.register("w", param.shape)
        expected = param.copy()
        m = np.zeros_like(param)
        v = np.zeros_like(param)
        for t in range(1, 4):
            grad = rng.normal(size=param.shape)
            opt.begin_step()
            opt.step("w", param, grad)
            expected, m, v = reference_adam_step(
                expected, grad, m, v, 0.01, 0.9, 0.999, 1e-8, t
            )
            np.testing.assert_allclose(param, expected, atol=1e-12)

    def test_minimises_quadratic(self):
        opt = AdamOptimizer(learning_rate=0.1)
        param = np.array([5.0, -3.0])
        opt.register("x", param.shape)
        for _ in range(300):
            opt.begin_step()
            opt.step("x", param, 2 * param)  # gradient of ||x||^2
        assert np.linalg.norm(param) < 0.05

    def test_duplicate_registration_raises(self):
        opt = AdamOptimizer()
        opt.register("w", (2, 2))
        with pytest.raises(ValueError):
            opt.register("w", (2, 2))

    def test_invalid_hyperparameters_raise(self):
        with pytest.raises(ValueError):
            AdamOptimizer(learning_rate=0.0)
        with pytest.raises(ValueError):
            AdamOptimizer(beta1=1.0)
        with pytest.raises(ValueError):
            AdamOptimizer(epsilon=0.0)


class TestAdamSparse:
    def test_sparse_step_equals_dense_on_touched_block(self, rng):
        """A sparse step on a block must equal the dense step restricted to
        that block when the gradient is zero everywhere else."""
        shape = (6, 5)
        grad = np.zeros(shape)
        rows = np.array([1, 4])
        cols = np.array([0, 2, 3])
        block = rng.normal(size=(rows.size, cols.size))
        grad[np.ix_(rows, cols)] = block

        dense_opt = AdamOptimizer(learning_rate=0.05)
        sparse_opt = AdamOptimizer(learning_rate=0.05)
        dense_param = rng.normal(size=shape)
        sparse_param = dense_param.copy()
        dense_opt.register("w", shape)
        sparse_opt.register("w", shape)

        dense_opt.begin_step()
        dense_opt.step("w", dense_param, grad)
        sparse_opt.begin_step()
        sparse_opt.sparse_step("w", sparse_param, rows, cols, block)

        np.testing.assert_allclose(
            sparse_param[np.ix_(rows, cols)], dense_param[np.ix_(rows, cols)], atol=1e-12
        )
        # Untouched coordinates stay exactly as they were.
        untouched = np.ones(shape, dtype=bool)
        untouched[np.ix_(rows, cols)] = False
        np.testing.assert_array_equal(sparse_param[untouched], dense_param[untouched])

    def test_sparse_step_on_bias_vector(self, rng):
        opt = AdamOptimizer(learning_rate=0.01)
        bias = np.zeros(10)
        opt.register("b", bias.shape)
        rows = np.array([2, 7])
        opt.begin_step()
        opt.sparse_step("b", bias, rows, None, np.array([1.0, -1.0]))
        assert bias[2] != 0 and bias[7] != 0
        assert np.all(bias[[0, 1, 3, 4, 5, 6, 8, 9]] == 0)

    def test_empty_rows_is_noop(self, rng):
        opt = AdamOptimizer()
        param = rng.normal(size=(3, 3))
        before = param.copy()
        opt.register("w", param.shape)
        opt.begin_step()
        opt.sparse_step("w", param, np.array([], dtype=np.int64), None, np.zeros((0,)))
        np.testing.assert_array_equal(param, before)

    def test_repeated_sparse_updates_accumulate_moments(self, rng):
        opt = AdamOptimizer(learning_rate=0.1)
        param = np.zeros((4, 4))
        opt.register("w", param.shape)
        rows, cols = np.array([0]), np.array([0])
        for _ in range(50):
            opt.begin_step()
            opt.sparse_step("w", param, rows, cols, np.array([[1.0]]))
        # Persistent positive gradient must drive the weight down monotonically.
        assert param[0, 0] < -1.0
        state = opt.state_of("w")
        assert state["m"][0, 0] > 0
        assert state["v"][0, 0] > 0


class TestSGD:
    def test_plain_sgd_step(self):
        opt = SGDOptimizer(learning_rate=0.5)
        param = np.array([1.0, 2.0])
        opt.register("x", param.shape)
        opt.begin_step()
        opt.step("x", param, np.array([1.0, -1.0]))
        np.testing.assert_allclose(param, [0.5, 2.5])

    def test_momentum_accelerates(self):
        plain = SGDOptimizer(learning_rate=0.1)
        momentum = SGDOptimizer(learning_rate=0.1, momentum=0.9)
        p1 = np.array([1.0])
        p2 = np.array([1.0])
        plain.register("x", (1,))
        momentum.register("x", (1,))
        for _ in range(5):
            plain.begin_step()
            momentum.begin_step()
            plain.step("x", p1, np.array([1.0]))
            momentum.step("x", p2, np.array([1.0]))
        assert p2[0] < p1[0]

    def test_sparse_step_matches_dense_block(self, rng):
        opt_a = SGDOptimizer(learning_rate=0.2, momentum=0.5)
        opt_b = SGDOptimizer(learning_rate=0.2, momentum=0.5)
        shape = (5, 4)
        dense = rng.normal(size=shape)
        sparse = dense.copy()
        opt_a.register("w", shape)
        opt_b.register("w", shape)
        rows, cols = np.array([0, 3]), np.array([1, 2])
        block = rng.normal(size=(2, 2))
        grad = np.zeros(shape)
        grad[np.ix_(rows, cols)] = block
        for _ in range(3):
            opt_a.begin_step()
            opt_b.begin_step()
            opt_a.step("w", dense, grad)
            opt_b.sparse_step("w", sparse, rows, cols, block)
        np.testing.assert_allclose(sparse, dense, atol=1e-12)

    def test_invalid_momentum_raises(self):
        with pytest.raises(ValueError):
            SGDOptimizer(momentum=1.0)


class TestFactory:
    def test_builds_adam(self):
        opt = make_optimizer(OptimizerConfig(name="adam", learning_rate=0.01))
        assert isinstance(opt, AdamOptimizer)
        assert opt.learning_rate == 0.01

    def test_builds_sgd(self):
        opt = make_optimizer(OptimizerConfig(name="sgd", learning_rate=0.1, momentum=0.5))
        assert isinstance(opt, SGDOptimizer)
        assert opt.momentum == 0.5


@given(
    lr=st.floats(min_value=1e-4, max_value=0.5),
    steps=st.integers(min_value=1, max_value=20),
)
@settings(max_examples=30, deadline=None)
def test_adam_sparse_dense_equivalence_property(lr, steps):
    """Property: for gradients supported on a fixed block, sparse and dense
    Adam trajectories coincide on that block."""
    rng = np.random.default_rng(0)
    shape = (4, 4)
    rows, cols = np.array([1, 2]), np.array([0, 3])
    dense_opt = AdamOptimizer(learning_rate=lr)
    sparse_opt = AdamOptimizer(learning_rate=lr)
    dense_param = rng.normal(size=shape)
    sparse_param = dense_param.copy()
    dense_opt.register("w", shape)
    sparse_opt.register("w", shape)
    for _ in range(steps):
        block = rng.normal(size=(2, 2))
        grad = np.zeros(shape)
        grad[np.ix_(rows, cols)] = block
        dense_opt.begin_step()
        sparse_opt.begin_step()
        dense_opt.step("w", dense_param, grad)
        sparse_opt.sparse_step("w", sparse_param, rows, cols, block)
    np.testing.assert_allclose(sparse_param, dense_param, atol=1e-10)


# ----------------------------------------------------------------------
# Bitwise parity with the expression-form block updates
# ----------------------------------------------------------------------
def _reference_view(rows, cols):
    return (rows,) if cols is None else np.ix_(rows, cols)


def reference_adam_sparse_step(self, name, param, rows, cols, grad_block):
    """``AdamOptimizer.sparse_step`` as an ``np.ix_`` expression, frozen."""
    if rows.size == 0:
        return
    state = self._state[name]
    view = _reference_view(rows, cols)
    m_block = state["m"][view]
    v_block = state["v"][view]
    m_block *= self.beta1
    m_block += (1.0 - self.beta1) * grad_block
    v_block *= self.beta2
    v_block += (1.0 - self.beta2) * np.square(grad_block)
    state["m"][view] = m_block
    state["v"][view] = v_block
    bc1, bc2 = self._bias_correction()
    m_hat = m_block / bc1
    v_hat = v_block / bc2
    delta = self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
    param[view] = param[view] - self._clip_delta(delta)


def reference_sgd_sparse_step(self, name, param, rows, cols, grad_block):
    """``SGDOptimizer.sparse_step`` as an ``np.ix_`` expression, frozen."""
    if rows.size == 0:
        return
    view = _reference_view(rows, cols)
    if self.momentum == 0.0:
        param[view] = param[view] - self.learning_rate * grad_block
        return
    velocity = self._state[name]["velocity"]
    v_block = self.momentum * velocity[view] + grad_block
    velocity[view] = v_block
    param[view] = param[view] - self.learning_rate * v_block


def reference_gather_block(array, index):
    """The forward/backward weight gather as an ``np.ix_`` expression."""
    if isinstance(index[0], slice):
        index = np.ix_(np.arange(array.shape[0]), index[1])
    elif len(index) == 1 and array.ndim == 2:
        index = np.ix_(index[0], np.arange(array.shape[1]))
    return array[index]


# (shape, rows, cols): every index form block_index can choose.
PARITY_BLOCKS = {
    "full_rows": ((6, 40), np.arange(6), np.array([0, 3, 7, 19, 20, 38])),
    "full_cols": ((50, 5), np.array([1, 4, 9, 33, 49]), np.arange(5)),
    "both_full": ((4, 5), np.arange(4), np.arange(5)),
    "general": ((10, 12), np.array([0, 2, 7]), np.array([1, 5, 6, 11])),
    "bias": ((10,), np.array([2, 3, 8]), None),
    "unsorted_duplicate_rows": ((8, 9), np.array([5, 1, 5, 0]), np.array([2, 4, 8])),
    "duplicate_rows_full_cols": ((8, 3), np.array([6, 2, 6]), np.arange(3)),
    "rows_permuted_full_size": ((5, 30), np.array([4, 3, 2, 1, 0]), np.array([7, 9])),
    "cols_permuted_full_size": ((7, 4), np.array([1, 6]), np.array([3, 0, 1, 2])),
}


def _parity_optimizers():
    return {
        "adam": (AdamOptimizer(learning_rate=0.05), reference_adam_sparse_step),
        "adam_clipped": (
            AdamOptimizer(learning_rate=0.05, update_clip=0.4),
            reference_adam_sparse_step,
        ),
        "sgd": (SGDOptimizer(learning_rate=0.1), reference_sgd_sparse_step),
        "sgd_momentum": (
            SGDOptimizer(learning_rate=0.1, momentum=0.7),
            reference_sgd_sparse_step,
        ),
    }


def _grad_block(rng, shape, from_workspace):
    if not from_workspace:
        return rng.normal(scale=3.0, size=shape)
    workspace = Workspace()
    workspace.take("grad", (shape[0] + 2, shape[1] + 3))
    grad = workspace.take("grad", shape)
    assert not grad.flags.c_contiguous
    grad[...] = rng.normal(scale=3.0, size=shape)
    return grad


def _assert_states_equal(new, reference):
    assert new.parameter_names() == reference.parameter_names()
    for (_, key, array), (_, ref_key, ref_array) in zip(
        new.state_items(), reference.state_items()
    ):
        assert key == ref_key
        assert np.array_equal(array, ref_array), key


class TestSparseStepBitwiseParity:
    @pytest.mark.parametrize("kind", sorted(_parity_optimizers()))
    @pytest.mark.parametrize(
        "block, from_workspace",
        [(block, False) for block in PARITY_BLOCKS]
        # Workspace buffers are two-dimensional, so no bias case.
        + [(block, True) for block, (_, _, cols) in PARITY_BLOCKS.items() if cols is not None],
    )
    def test_matches_frozen_expression_form(self, kind, block, from_workspace):
        shape, rows, cols = PARITY_BLOCKS[block]
        new, reference_step = _parity_optimizers()[kind]
        reference, _ = _parity_optimizers()[kind]
        rng = np.random.default_rng(5)
        param = rng.normal(size=shape)
        ref_param = param.copy()
        new.register("w", shape)
        reference.register("w", shape)
        block_shape = (rows.size,) if cols is None else (rows.size, cols.size)
        for _ in range(4):
            grad = _grad_block(rng, block_shape, from_workspace)
            new.begin_step()
            reference.begin_step()
            new.sparse_step("w", param, rows, cols, grad)
            reference_step(reference, "w", ref_param, rows, cols, grad)
        assert np.array_equal(param, ref_param)
        _assert_states_equal(new, reference)

    def test_update_clip_is_active_in_parity_case(self):
        """The clipped parity case really clips (else it tests nothing)."""
        opt = AdamOptimizer(learning_rate=0.05, update_clip=0.4)
        param = np.zeros((3, 3))
        opt.register("w", param.shape)
        opt.begin_step()
        opt.sparse_step("w", param, np.arange(3), np.arange(3), np.full((3, 3), 2.0))
        np.testing.assert_array_equal(param, np.full((3, 3), -0.4 * 0.05))


def _parity_network(seed: int) -> SlideNetwork:
    # Hidden layer without LSH: layer 0 updates every row, layer 1 every
    # column, so both single-axis index forms run.  Wide enough that BLAS
    # products over a Fortran-ordered block would round differently.
    layers = (
        LayerConfig(size=48, activation="relu"),
        LayerConfig(
            size=300,
            activation="softmax",
            lsh=LSHConfig(hash_family="simhash", k=4, l=10, bucket_size=32),
            sampling=SamplingConfig(strategy="vanilla", target_active=60, min_active=16),
        ),
    )
    return SlideNetwork(SlideNetworkConfig(input_dim=2000, layers=layers, seed=seed))


def _parity_batches(count: int, size: int = 16) -> list[SparseBatch]:
    rng = np.random.default_rng(8)
    batches = []
    for _ in range(count):
        examples = [
            SparseExample(
                features=SparseVector(
                    indices=np.sort(rng.choice(2000, size=60, replace=False)),
                    values=rng.normal(size=60),
                    dimension=2000,
                ),
                labels=rng.choice(300, size=3, replace=False),
            )
            for _ in range(size)
        ]
        batches.append(SparseBatch.from_examples(examples, feature_dim=2000, label_dim=300))
    return batches


@pytest.mark.parametrize("hogwild", [False, True])
def test_training_matches_frozen_expression_form(monkeypatch, hogwild):
    """20 fused or HOGWILD steps end bitwise equal to the ``np.ix_`` form."""
    batches = _parity_batches(20)

    def train():
        network = _parity_network(seed=4)
        optimizer = network.build_optimizer(TrainingConfig())
        for batch in batches:
            network.train_batch(batch, optimizer, hogwild=hogwild)
        return network, optimizer

    network, optimizer = train()
    with monkeypatch.context() as patch:
        patch.setattr(AdamOptimizer, "sparse_step", reference_adam_sparse_step)
        patch.setattr(layer_module, "gather_block", reference_gather_block)
        patch.setattr(fused_module, "gather_block", reference_gather_block)
        ref_network, ref_optimizer = train()
    for layer, ref_layer in zip(network.layers, ref_network.layers):
        assert np.array_equal(layer.weights, ref_layer.weights)
        assert np.array_equal(layer.biases, ref_layer.biases)
    _assert_states_equal(optimizer, ref_optimizer)
