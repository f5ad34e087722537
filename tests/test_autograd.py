"""Engine tests: frozen arithmetic examples plus finite-difference oracles."""

import gc
import math
import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    check_op_gradient,
    mul,
    numeric_gradient,
    reference_attend,
    reference_bn_mlp,
    reference_lstm,
    reference_prefix_max,
    reference_relu,
    relative_error,
    sigmoid,
    softmax,
    sum_reduce,
)
from pointseq import autograd as ag
from pointseq import model, training
from pointseq.errors import ConfigError, DataError, ShapeError

# Added by a pass-through layer's batch norm and taken off after its pool, so
# the layer's relu passes every input above -LIFT
LIFT = 10.0


def passthrough(width, shift=0.0):
    """One ``bn_mlp`` layer whose relu input equals its input plus ``shift``.

    The weight is the identity, and eval-mode batch norm with zero running
    mean, unit running variance and eps 0 is exactly ``x * 1 + shift``.
    """
    state = ag.BatchNormState(width, eps=0.0)
    state.beta.values[:] = shift
    return ag.Tensor(np.eye(width)), state


def relu(x):
    """A relu node, as a building block of composite graphs."""
    return reference_relu(ag.tensor(x))


def pooled(x, *prefixes):
    """A prefix max-pool node of ``x`` over groups of ``prefixes[-1]`` rows,
    as a building block of composite graphs; ties route to the lowest row."""
    return reference_prefix_max(ag.tensor(x), prefixes)


def fused_pooled(x, *prefixes):
    """The fused op's prefix max-pool of ``x``, forward only: one pass-through
    layer in eval mode (exact for small integers)."""
    x = ag.tensor(x)
    return ag.add(ag.bn_mlp(x, [passthrough(x.shape[1], LIFT)], pool=prefixes), -LIFT)


class TestMatmul:
    def test_small_product(self):
        out = ag.matmul(ag.Tensor([[1.0, 2.0]]), ag.Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.values, [[11.0]])

    def test_identity(self):
        a = np.arange(6.0).reshape(2, 3)
        out = ag.matmul(ag.Tensor(a), ag.Tensor(np.eye(3)))
        np.testing.assert_array_equal(out.values, a)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ag.matmul(ag.Tensor(np.ones((2, 3))), ag.Tensor(np.ones((2, 3))))

    def test_gradient_of_sum_against_b(self):
        # loss = sum(a @ b) with b = [[3], [4]] gives d loss/d a = [[3, 4]]
        a = ag.Tensor([[1.0, 2.0]])
        b = ag.Tensor([[3.0], [4.0]])
        ag.backward(sum_reduce(ag.matmul(a, b)))
        np.testing.assert_allclose(a.grad, [[3.0, 4.0]])
        np.testing.assert_allclose(b.grad, [[1.0], [2.0]])

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, (3, 4))
        b = rng.uniform(-1, 1, (4, 2))
        check_op_gradient(ag.matmul, [a, b])


class TestElementwise:
    def test_add_sub_mul_values(self):
        a, b = ag.Tensor([1.0, -2.0]), ag.Tensor([3.0, 5.0])
        np.testing.assert_array_equal(ag.add(a, b).values, [4.0, 3.0])
        np.testing.assert_array_equal(mul(a, b).values, [3.0, -10.0])

    def test_bias_vector_broadcasts_and_gradient_sums(self):
        x = ag.Tensor(np.zeros((4, 3)))
        bias = ag.Tensor([1.0, 2.0, 3.0])
        out = ag.add(x, bias)
        np.testing.assert_array_equal(out.values, np.tile([1.0, 2.0, 3.0], (4, 1)))
        ag.backward(sum_reduce(out))
        np.testing.assert_array_equal(bias.grad, [4.0, 4.0, 4.0])

    def test_incompatible_shapes(self):
        with pytest.raises(ShapeError):
            ag.add(ag.Tensor(np.ones((2, 3))), ag.Tensor(np.ones((4, 3))))

    def test_relu_clamps_negatives(self):
        out = relu(ag.Tensor([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out.values, [[0.0, 0.0, 2.0]])

    def test_relu_gradient_is_indicator(self):
        x = ag.Tensor([[-1.0, 0.0, 2.0]])
        ag.backward(sum_reduce(relu(x)))
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0, 1.0]])

    def test_sigmoid_at_zero(self):
        x = ag.Tensor([0.0])
        out = sigmoid(x)
        np.testing.assert_allclose(out.values, [0.5])
        ag.backward(sum_reduce(out))
        np.testing.assert_allclose(x.grad, [0.25])

    def test_sigmoid_extremes_stay_finite(self):
        out = sigmoid(ag.Tensor([-1e4, 1e4]))
        np.testing.assert_allclose(out.values, [0.0, 1.0], atol=1e-12)

    def test_tanh_matches_numpy(self):
        x = np.linspace(-2, 2, 7)
        np.testing.assert_allclose(ag.tanh(ag.Tensor(x)).values, np.tanh(x))

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("op", [ag.add, mul, ag.maximum])
    def test_binary_gradients(self, op, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, (3, 4))
        b = rng.uniform(-1, 1, (3, 4))
        check_op_gradient(op, [a, b])

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("op", [relu, ag.tanh, sigmoid])
    def test_unary_gradients(self, op, seed):
        rng = np.random.default_rng(100 + seed)
        # keep values away from the relu kink at 0
        x = rng.uniform(-1, 1, (4, 3))
        x[np.abs(x) < 1e-3] = 0.5
        check_op_gradient(op, [x])


class TestSoftmax:
    def test_uniform_for_equal_inputs(self):
        out = softmax(ag.Tensor([1.0, 1.0, 1.0, 1.0]))
        np.testing.assert_allclose(out.values, np.full(4, 0.25))

    def test_single_element(self):
        np.testing.assert_allclose(softmax(ag.Tensor([3.7])).values, [1.0])

    def test_log_ratio_inputs(self):
        out = softmax(ag.Tensor([math.log(1.0), math.log(3.0)]))
        np.testing.assert_allclose(out.values, [0.25, 0.75], rtol=1e-12)

    def test_large_inputs_do_not_overflow(self):
        out = softmax(ag.Tensor([1e6, 1e6 + 1.0]))
        assert np.isfinite(out.values).all()
        np.testing.assert_allclose(out.values.sum(), 1.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(50))
    def test_sums_to_one(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-50, 50, rng.integers(1, 9))
        total = softmax(ag.Tensor(x)).values.sum()
        assert abs(total - 1.0) < 1e-12

    def test_empty_input_rejected(self):
        with pytest.raises(ShapeError):
            softmax(ag.Tensor(np.zeros(0)))

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(300 + seed)
        x = rng.uniform(-1, 1, 6)
        w = rng.uniform(-1, 1, 6)
        # weight the outputs so the checked gradient exercises off-diagonal terms
        check_op_gradient(lambda t: mul(softmax(t), w), [x])

    def test_rowwise_gradient(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, (3, 5))
        w = rng.uniform(-1, 1, (3, 5))
        check_op_gradient(lambda t: mul(softmax(t, axis=1), w), [x])


def max_over_rows(x):
    """Columnwise max of a [k, d] matrix: one group of all its rows."""
    return ag.reshape(pooled(x, x.shape[0]), (x.shape[1],))


def routed_rows(x, group_size):
    """Per group and column, the row a unit output gradient reaches: [m, d]."""
    x = ag.Tensor(x)
    ag.backward(sum_reduce(pooled(x, group_size)))
    grad = x.grad.reshape(-1, group_size, x.shape[1])
    assert np.all(grad.sum(axis=1) == 1.0), "each output must route to exactly one row"
    return grad.argmax(axis=1)


class TestMaxReduce:
    def test_columnwise_max_and_argmax(self):
        x = [[1.0, 5.0], [3.0, 2.0]]
        out = max_over_rows(ag.Tensor(x))
        np.testing.assert_array_equal(out.values, [3.0, 5.0])
        np.testing.assert_array_equal(routed_rows(x, 2), [[1, 0]])

    def test_single_row_identity(self):
        x = [[7.0, -1.0, 0.5]]
        out = max_over_rows(ag.Tensor(x))
        np.testing.assert_array_equal(out.values, [7.0, -1.0, 0.5])
        np.testing.assert_array_equal(routed_rows(x, 1), [[0, 0, 0]])

    def test_ties_pick_lowest_row(self):
        np.testing.assert_array_equal(routed_rows([[2.0], [2.0], [1.0]], 3), [[0]])

    def test_gradient_routes_to_argmax_only(self):
        x = ag.Tensor([[1.0, 5.0], [3.0, 2.0]])
        out = max_over_rows(x)
        ag.backward(sum_reduce(mul(out, [2.0, 7.0])))
        np.testing.assert_array_equal(x.grad, [[0.0, 7.0], [2.0, 0.0]])

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            fused_pooled(ag.Tensor(np.zeros((0, 3))), 0)

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(400 + seed)
        x = rng.uniform(-1, 1, (5, 4))
        check_op_gradient(max_over_rows, [x])

    def test_pool_rows_matches_blockwise_max_reduce(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (12, 5))
        out = fused_pooled(ag.Tensor(x), 4)
        routed = routed_rows(x, 4)
        for block in range(3):
            rows = x[4 * block : 4 * block + 4]
            np.testing.assert_array_equal(out.values[block], (rows + LIFT).max(axis=0) - LIFT)
            np.testing.assert_array_equal(routed[block], rows.argmax(axis=0))

    @pytest.mark.parametrize("seed", range(6))
    def test_pool_rows_gradient(self, seed):
        rng = np.random.default_rng(500 + seed)
        x = rng.uniform(-1, 1, (8, 3))
        check_op_gradient(lambda t: pooled(t, 2), [x])

    def test_pool_rows_rejects_ragged_groups(self):
        with pytest.raises(ShapeError):
            fused_pooled(ag.Tensor(np.ones((7, 2))), 2)


class TestPrefixMaxPool:
    PREFIXES = (1, 3, 4)

    def test_each_block_is_the_max_over_its_prefix(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, (12, 5))
        out = fused_pooled(ag.Tensor(x), *self.PREFIXES)
        blocks = x.reshape(3, 4, 5) + LIFT
        expected = np.concatenate([blocks[:, :k].max(axis=1) for k in self.PREFIXES]) - LIFT
        np.testing.assert_array_equal(out.values, expected)

    def test_gradient_routes_like_one_pool_per_prefix(self):
        # integer-valued rows force ties within and across prefix segments
        rng = np.random.default_rng(8)
        x = rng.integers(0, 3, (12, 5)).astype(float)
        g = rng.uniform(-1, 1, (9, 5))
        prefix = ag.Tensor(x)
        ag.backward(sum_reduce(mul(pooled(prefix, *self.PREFIXES), g)))
        expected = np.zeros((3, 4, 5))
        for t, k in enumerate(self.PREFIXES):
            head = ag.Tensor(x.reshape(3, 4, 5)[:, :k].reshape(3 * k, 5))
            ag.backward(sum_reduce(mul(pooled(head, k), g[3 * t : 3 * t + 3])))
            expected[:, :k] += head.grad.reshape(3, k, 5)
        np.testing.assert_array_equal(prefix.grad, expected.reshape(12, 5))

    def test_ties_go_to_the_lowest_row(self):
        x = ag.Tensor([[2.0], [1.0], [2.0], [2.0]])
        ag.backward(sum_reduce(pooled(x, 1, 2, 4)))
        np.testing.assert_array_equal(x.grad, [[3.0], [0.0], [0.0], [0.0]])

    @pytest.mark.parametrize("seed", range(6))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(900 + seed)
        x = rng.uniform(-1, 1, (12, 3))
        # weight the outputs so every prefix contributes its own gradient
        w = rng.uniform(-1, 1, (9, 3))
        check_op_gradient(lambda t: mul(pooled(t, *self.PREFIXES), w), [x])

    # no prefix, a repeated one, a last prefix that does not divide the 8
    # rows, a prefix of no rows, a decreasing pair, and one prefix that does
    # not divide the rows
    @pytest.mark.parametrize("prefixes", [(), (2, 2), (3, 5), (0, 2), (4, 2), (3,)])
    def test_bad_prefixes_rejected(self, prefixes):
        with pytest.raises(ShapeError):
            fused_pooled(ag.Tensor(np.ones((8, 2))), *prefixes)

    def test_the_last_prefix_is_the_group(self):
        # prefixes 1 and 3 pool 12 rows as 4 groups of 3
        x = np.random.default_rng(9).integers(0, 5, (12, 2)).astype(float)
        out = fused_pooled(ag.Tensor(x), 1, 3)
        groups = x.reshape(4, 3, 2)
        want = np.concatenate([groups[:, 0], groups.max(axis=1)])
        np.testing.assert_array_equal(out.values, want)


class TestConcatAndSlicing:
    def test_concat_rows(self):
        out = ag.concat([ag.Tensor([[1.0, 2.0]]), ag.Tensor([[3.0, 4.0]])], axis=0)
        np.testing.assert_array_equal(out.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_concat_with_empty(self):
        out = ag.concat([ag.Tensor(np.zeros((0, 2))), ag.Tensor([[1.0, 2.0]])], axis=0)
        np.testing.assert_array_equal(out.values, [[1.0, 2.0]])

    def test_concat_mismatched_shapes(self):
        with pytest.raises(ShapeError):
            ag.concat([ag.Tensor(np.ones((1, 2))), ag.Tensor(np.ones((1, 3)))], axis=0)

    def test_concat_gradient_partitions(self):
        a = ag.Tensor([[1.0, 2.0]])
        b = ag.Tensor([[3.0, 4.0], [5.0, 6.0]])
        out = ag.concat([a, b], axis=0)
        ag.backward(sum_reduce(mul(out, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])))
        np.testing.assert_array_equal(a.grad, [[1.0, 2.0]])
        np.testing.assert_array_equal(b.grad, [[3.0, 4.0], [5.0, 6.0]])

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("seed", range(5))
    def test_concat_gradient_matches_finite_differences(self, axis, seed):
        rng = np.random.default_rng(600 + seed)
        a = rng.uniform(-1, 1, (3, 3))
        b = rng.uniform(-1, 1, (3, 3))
        check_op_gradient(lambda x, y: ag.concat([x, y], axis=axis), [a, b])

    @pytest.mark.parametrize("seed", range(5))
    def test_slice_reshape_repeat_gradients(self, seed):
        rng = np.random.default_rng(700 + seed)
        x = rng.uniform(-1, 1, (4, 6))
        check_op_gradient(lambda t: ag.slice_axis(t, 1, 2, 5), [x])
        check_op_gradient(lambda t: ag.reshape(t, (2, 12)), [x])
        check_op_gradient(lambda t: ag.repeat_rows(t, 3), [x])

    def test_slice_bounds_checked(self):
        with pytest.raises(ShapeError):
            ag.slice_axis(ag.Tensor(np.ones((2, 2))), 1, 0, 3)

    def test_repeat_rows_values(self):
        out = ag.repeat_rows(ag.Tensor([[1.0, 2.0], [3.0, 4.0]]), 2)
        np.testing.assert_array_equal(out.values, [[1, 2], [1, 2], [3, 4], [3, 4]])


class TestBackward:
    def test_chain_through_composite_expression(self):
        x = ag.Tensor([[0.5, -0.3]])
        w = ag.Tensor([[0.2], [0.7]])
        loss = sum_reduce(ag.tanh(ag.matmul(x, w)))
        ag.backward(loss)
        pre = 0.5 * 0.2 + -0.3 * 0.7
        d = 1.0 - math.tanh(pre) ** 2
        np.testing.assert_allclose(x.grad, [[0.2 * d, 0.7 * d]], rtol=1e-12)

    def test_reused_tensor_accumulates_both_paths(self):
        x = ag.Tensor([2.0])
        ag.backward(sum_reduce(mul(x, x)))
        np.testing.assert_allclose(x.grad, [4.0])

    @pytest.mark.parametrize("shared_first", [True, False])
    def test_shared_gradient_lands_unaliased(self, shared_first):
        # add hands one gradient array to both parents; a then receives a
        # second gradient, which must not be added into b's copy
        a = ag.Tensor([[1.0, 2.0]])
        b = ag.Tensor([[3.0, 4.0]])
        through_add = sum_reduce(mul(ag.add(a, b), [[2.0, 5.0]]))
        direct = sum_reduce(mul(a, [[10.0, 20.0]]))
        pair = (through_add, direct) if shared_first else (direct, through_add)
        ag.backward(ag.add(*pair))
        np.testing.assert_array_equal(a.grad, [[12.0, 25.0]])
        np.testing.assert_array_equal(b.grad, [[2.0, 5.0]])
        assert not np.shares_memory(a.grad, b.grad)

    def test_only_leaves_keep_gradients(self):
        x = ag.Tensor([[0.5, -0.3]])
        hidden = ag.tanh(x)
        loss = sum_reduce(mul(hidden, hidden))
        ag.backward(loss)
        assert hidden.grad is None
        assert loss.grad is None
        np.testing.assert_allclose(x.grad, 2 * np.tanh(x.values) * (1 - np.tanh(x.values) ** 2))

    def test_new_leaf_gradients_are_kept_without_a_copy(self):
        # a matmul's gradients are arrays of its own, so the leaves keep them
        rng = np.random.default_rng(12)
        x = ag.Tensor(rng.uniform(-1, 1, (3, 4)))
        w = ag.Tensor(rng.uniform(-1, 1, (4, 2)))
        out = ag.matmul(x, w)
        grad_fn = out.grad_fn
        returned = []

        def recording(g):
            grads = grad_fn(g)
            returned.extend(grads)
            return grads

        out.grad_fn = recording
        ag.backward(sum_reduce(mul(out, rng.uniform(-1, 1, (3, 2)))))
        assert x.grad is returned[0]
        assert w.grad is returned[1]

    def test_view_gradients_land_unaliased(self):
        # add hands one array to the concat and to c; the concat and the
        # reshape pass views of theirs on, so a, b and d must get copies
        a, b = ag.Tensor([[1.0, 2.0]]), ag.Tensor([[3.0, 4.0]])
        c, d = ag.Tensor(np.zeros((2, 2))), ag.Tensor(np.zeros(4))
        total = ag.add(ag.add(ag.concat([a, b], axis=0), c), ag.reshape(d, (2, 2)))
        ag.backward(sum_reduce(mul(total, [[1.0, 2.0], [3.0, 4.0]])))
        grads = [a.grad, b.grad, c.grad, d.grad]
        np.testing.assert_array_equal(np.concatenate([a.grad, b.grad]), c.grad)
        np.testing.assert_array_equal(d.grad, [1.0, 2.0, 3.0, 4.0])
        for i, first in enumerate(grads):
            for second in grads[i + 1:]:
                assert not np.shares_memory(first, second)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ShapeError):
            ag.backward(ag.Tensor([1.0, 2.0]))

    def test_repeat_without_zeroing_accumulates(self):
        x = ag.Tensor([1.0, 2.0])
        loss = sum_reduce(mul(x, x))
        ag.backward(loss)
        once = x.grad.copy()
        ag.backward(loss)
        np.testing.assert_allclose(x.grad, 2.0 * once)

    def test_identical_gradients_after_zeroing(self):
        rng = np.random.default_rng(11)
        x = ag.Tensor(rng.uniform(-1, 1, (3, 3)))
        w = ag.Tensor(rng.uniform(-1, 1, (3, 3)))
        loss = sum_reduce(sigmoid(ag.matmul(x, w)))
        ag.backward(loss)
        first = (x.grad.copy(), w.grad.copy())
        x.grad = None
        w.grad = None
        ag.backward(loss)
        np.testing.assert_array_equal(x.grad, first[0])
        np.testing.assert_array_equal(w.grad, first[1])

    @pytest.mark.parametrize("seed", range(100))
    def test_composite_graph_matches_finite_differences(self, seed):
        # the blanket engine invariant: random inputs in [-1, 1], rel err < 1e-4
        rng = np.random.default_rng(10_000 + seed)
        x = rng.uniform(-1, 1, (3, 4))
        w1 = rng.uniform(-1, 1, (4, 5))
        w2 = rng.uniform(-1, 1, (5, 2))
        bias = rng.uniform(-1, 1, 5)

        def network(xt, w1t, w2t, bt):
            hidden = ag.tanh(ag.add(ag.matmul(xt, w1t), bt))
            gated = mul(hidden, sigmoid(hidden))
            pooled = max_over_rows(ag.matmul(gated, w2t))
            return softmax(pooled)

        check_op_gradient(network, [x, w1, w2, bias])


def dropout_stack(x, ratio, training=True, rng=None):
    """One layer whose batch norm maps a constant column to 1, then dropout."""
    state = ag.BatchNormState(x.shape[1])
    state.beta.values[:] = 1.0
    return ag.bn_mlp(x, [(ag.Tensor(np.eye(x.shape[1])), state)], training=training,
                     dropout=ratio, rng=rng)


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = ag.Tensor(np.arange(6.0).reshape(3, 2))
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        out = ag.bn_mlp(x, [passthrough(2)], dropout=0.4, rng=rng)
        np.testing.assert_array_equal(out.values, x.values)
        assert rng.bit_generator.state == before

    def test_zero_ratio_is_identity(self):
        x = ag.Tensor(np.arange(6.0).reshape(3, 2))
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        out = dropout_stack(x, 0.0, rng=rng)
        np.testing.assert_array_equal(out.values, dropout_stack(x, 0.0).values)
        assert rng.bit_generator.state == before

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ConfigError):
            dropout_stack(ag.Tensor([[1.0]]), 1.0, rng=np.random.default_rng(0))

    def test_training_needs_rng(self):
        with pytest.raises(ValueError):
            dropout_stack(ag.Tensor([[1.0]]), 0.5)

    def test_mean_preserved_monte_carlo(self):
        rng = np.random.default_rng(42)
        out = dropout_stack(ag.Tensor(np.ones((10_000, 1))), 0.4, rng=rng)
        assert abs(out.values.mean() - 1.0) < 0.02

    def test_surviving_entries_scaled(self):
        rng = np.random.default_rng(1)
        out = dropout_stack(ag.Tensor(np.ones((100, 1))), 0.4, rng=rng)
        kept = out.values[out.values != 0.0]
        np.testing.assert_allclose(kept, 1.0 / 0.6)

    def test_gradient_uses_same_mask(self):
        x_arr = np.linspace(-1, 1, 50).reshape(25, 2)
        w = np.random.default_rng(6).uniform(-1, 1, (25, 2))

        def apply(t):
            return mul(dropout_stack(t, 0.3, rng=np.random.default_rng(5)), w)

        check_op_gradient(apply, [x_arr])


def stack_from(tensors, training, **kwargs):
    """``bn_mlp`` over [x, weight0, gamma0, beta0, weight1, ...] tensors.

    Each layer gets a fresh batch-norm state holding the given gamma and
    beta, running mean 0.25 and running variance 0.8.
    """
    layers = []
    for weight, gamma, beta in zip(*[iter(tensors[1:])] * 3):
        state = ag.BatchNormState(weight.shape[1])
        state.gamma, state.beta = gamma, beta
        state.running_mean[:] = 0.25
        state.running_var[:] = 0.8
        layers.append((weight, state))
    return ag.bn_mlp(tensors[0], layers, training, **kwargs)


BN_CASES = [(seed, 6, None) for seed in range(5)] + [(5, 1, None), (6, 6, 1e3)]
BN_CASE_IDS = [*map(str, range(5)), "one_row", "far_mean"]


def _bn_gradient_case(seed, rows, center, training, widths=(3,), **kwargs):
    """(build, arrays) for check_op_gradient over the input and every
    layer's weight, gamma and beta of a ``bn_mlp`` stack."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (rows, 3))
    if center is not None:
        x[:, 0] = center + 1e-2 * x[:, 0]
    arrays = [x]
    fan_in = 3
    for width in widths:
        arrays += [rng.uniform(-1, 1, (fan_in, width)), rng.uniform(0.5, 1.5, width),
                   rng.uniform(-1, 1, width)]
        fan_in = width
    pool = kwargs.get("pool")
    out_rows = rows if pool is None else rows // pool[-1] * len(pool)
    # weight the outputs; a plain sum has an identically-zero input gradient
    w = rng.uniform(-1, 1, (out_rows, fan_in))

    def apply(*tensors):
        # a fresh generator per call fixes any dropout mask
        return mul(stack_from(tensors, training, rng=np.random.default_rng(17), **kwargs), w)

    return apply, arrays


class TestBatchNorm:
    """Batch norm as the fused op's first stage, behind an identity weight."""

    @staticmethod
    def norm(x, state, training, **kwargs):
        x = ag.tensor(x)
        return ag.bn_mlp(x, [(ag.Tensor(np.eye(x.shape[1])), state)], training, **kwargs)

    def test_two_sample_batch_normalizes_to_unit(self):
        state = ag.BatchNormState(1)
        state.beta.values[:] = 2.0
        out = self.norm([[0.0], [2.0]], state, training=True)
        np.testing.assert_allclose(out.values, [[1.0], [3.0]], atol=1e-5)

    def test_constant_batch_collapses_to_shift(self):
        state = ag.BatchNormState(2)
        state.beta.values[:] = [5.0, 3.0]
        out = self.norm(np.full((4, 2), 7.0), state, training=True)
        np.testing.assert_allclose(out.values, np.tile([5.0, 3.0], (4, 1)))

    def test_running_stats_update_by_momentum(self):
        state = ag.BatchNormState(1)
        self.norm([[0.0], [2.0]], state, training=True, momentum=0.5)
        np.testing.assert_allclose(state.running_mean, [0.5])  # 0.5*0 + 0.5*1
        np.testing.assert_allclose(state.running_var, [1.0])  # 0.5*1 + 0.5*1

    def test_eval_mode_uses_running_stats(self):
        state = ag.BatchNormState(1)
        state.running_mean[:] = 1.0
        state.running_var[:] = 4.0
        out = self.norm([[3.0]], state, training=False)
        np.testing.assert_allclose(out.values, [[1.0]], atol=1e-5)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            self.norm(np.ones((2, 3)), ag.BatchNormState(2), training=True)

    @pytest.mark.parametrize("training", [True, False])
    def test_one_node_with_input_scale_and_shift_parents(self, training):
        state = ag.BatchNormState(2)
        x = ag.Tensor(np.arange(6.0).reshape(3, 2))
        weight = ag.Tensor(np.eye(2))
        out = ag.bn_mlp(x, [(weight, state)], training)
        assert out.parents == (x, weight, state.gamma, state.beta)

    # beyond the random batches: a one-row training batch, and a column whose
    # mean sits far from zero next to its spread, where cancellation would show
    @pytest.mark.parametrize("seed,rows,center", BN_CASES, ids=BN_CASE_IDS)
    def test_gradients_including_scale_and_shift(self, seed, rows, center):
        check_op_gradient(*_bn_gradient_case(800 + seed, rows, center, True))

    @pytest.mark.parametrize("seed,rows,center", BN_CASES[:5] + BN_CASES[6:],
                             ids=BN_CASE_IDS[:5] + BN_CASE_IDS[6:])
    def test_nested_pool_gradients_including_scale_and_shift(self, seed, rows, center):
        # pool prefixes 1, 2 and 3 count a group's rows 3, 2 and 1 times
        check_op_gradient(*_bn_gradient_case(850 + seed, rows, center, True, pool=(1, 2, 3)))


# (training, pool, dropout) for two-layer stacks of 8 rows. In training mode
# several pool prefixes count a row once per prefix that holds it
STACK_CASES = [
    (True, None, 0.0),
    (False, None, 0.0),
    (True, (1, 3, 4), 0.0),
    (False, (1, 3, 4), 0.0),
    (True, (2, 4), 0.0),
    (True, None, 0.3),
    (True, (4, 8), 0.3),
]
STACK_IDS = ["train", "eval", "pool", "eval_pool", "two_prefix_pool", "dropout",
             "two_prefix_pool_dropout"]
# the training cases alone: an eval-mode stack has no backward
TRAIN_STACK_CASES = [case for case in STACK_CASES if case[0]]
TRAIN_STACK_IDS = [i for case, i in zip(STACK_CASES, STACK_IDS) if case[0]]


def _stack_run(arrays, training, op=ag.bn_mlp, **kwargs):
    """Output, running statistics and, in training mode, every gradient of an
    ``op`` stack (``bn_mlp`` or its reference chain) over [x, weight0, gamma0,
    beta0, ...] arrays, for a fixed output gradient. An eval-mode stack is
    forward-only, so its run takes no backward."""
    tensors = [ag.Tensor(a) for a in arrays]
    layers = _stack_layers(tensors[1:])
    out = op(tensors[0], layers, training, 0.3, rng=np.random.default_rng(17), **kwargs)
    stats = [*(s.running_mean for _, s in layers), *(s.running_var for _, s in layers)]
    if not training:
        return [out.values, *stats]
    g = np.random.default_rng(32).uniform(-1, 1, out.shape)
    ag.backward(sum_reduce(mul(out, g)))
    return [out.values, *(t.grad for t in tensors), *stats]


def _stack_layers(tensors):
    """``bn_mlp`` layers over [weight0, gamma0, beta0, ...] tensors, with
    running statistics other than the initial ones."""
    layers = []
    for weight, gamma, beta in zip(*[iter(tensors)] * 3):
        state = ag.BatchNormState(weight.shape[1])
        state.gamma, state.beta = gamma, beta
        state.running_mean[:] = 0.25
        state.running_var[:] = 0.8
        layers.append((weight, state))
    return layers


def _prefixes_stacked(x, layers, training, momentum, rng=None, pool=None):
    """``bn_mlp`` pooled over the prefixes ``pool`` as the unpooled stack over
    every prefix's rows stacked, each row once, then one max-pool per prefix."""
    group = pool[-1]
    starts = range(0, x.shape[0], group)
    copies = [ag.concat([ag.slice_axis(x, 0, i, i + k) for i in starts], axis=0) for k in pool]
    out = ag.bn_mlp(ag.concat(copies, axis=0), layers, training, momentum, rng=rng)
    blocks, start = [], 0
    for k, copy in zip(pool, copies):
        stop = start + copy.shape[0]
        blocks.append(reference_prefix_max(ag.slice_axis(out, 0, start, stop), (k,)))
        start = stop
    return ag.concat(blocks, axis=0)


def _eval_output(arrays, **kwargs):
    """The output of an eval-mode ``bn_mlp`` stack over [x, weight0, gamma0,
    beta0, ...] arrays, built under ``no_grad``."""
    tensors = [ag.Tensor(a) for a in arrays]
    with ag.no_grad():
        out = ag.bn_mlp(tensors[0], _stack_layers(tensors[1:]), False, **kwargs)
    assert out.grad_fn is None
    return out.values


def _stack_arrays(seed, rows, widths):
    """[x, weight0, gamma0, beta0, ...] for a stack over ``rows`` rows of 3
    inputs, one layer per width."""
    rng = np.random.default_rng(seed)
    arrays = [rng.uniform(-1, 1, (rows, 3))]
    fan_in = 3
    for width in widths:
        arrays += [rng.uniform(-1, 1, (fan_in, width)), rng.uniform(0.5, 1.5, width),
                   rng.uniform(-1, 1, width)]
        fan_in = width
    return arrays


class TestBnMlp:
    @pytest.mark.parametrize("training,pool,dropout", TRAIN_STACK_CASES,
                             ids=TRAIN_STACK_IDS)
    def test_gradients_match_finite_differences(self, training, pool, dropout):
        check_op_gradient(*_bn_gradient_case(700, 8, None, training, (4, 3), pool=pool,
                                             dropout=dropout))

    @pytest.mark.parametrize("seed,rows,center", BN_CASES[-2:], ids=BN_CASE_IDS[-2:])
    def test_pooled_extremes_match_finite_differences(self, seed, rows, center):
        # one row or a far-off column mean, through two layers and a pool
        pool = (1, rows) if rows > 1 else (1,)
        check_op_gradient(*_bn_gradient_case(750 + seed, rows, center, True, (4, 3),
                                             pool=pool))

    @pytest.mark.parametrize("training,pool,dropout", STACK_CASES, ids=STACK_IDS)
    def test_matches_reference_chain(self, training, pool, dropout):
        # values, running statistics and every gradient against the chain of
        # separate matmul, batch norm, relu, dropout and pool nodes
        arrays = _stack_arrays(31, 8, (4, 5))
        runs = [_stack_run(arrays, training, op, pool=pool, dropout=dropout)
                for op in (ag.bn_mlp, reference_bn_mlp)]
        for got, want in zip(*runs):
            assert relative_error(got, want, floor=1e-300) < 1e-12

    def test_one_node_per_stack(self):
        rng = np.random.default_rng(3)
        x = ag.Tensor(rng.uniform(-1, 1, (4, 3)))
        layers = [(ag.Tensor(rng.uniform(-1, 1, (3, 2))), ag.BatchNormState(2)),
                  (ag.Tensor(rng.uniform(-1, 1, (2, 5))), ag.BatchNormState(5))]
        out = ag.bn_mlp(x, layers, training=True, pool=(1, 2))
        assert out.shape == (4, 5)
        assert out.parents == (x, layers[0][0], layers[0][1].gamma, layers[0][1].beta,
                               layers[1][0], layers[1][1].gamma, layers[1][1].beta)

    @pytest.mark.parametrize("training,pool,dropout", STACK_CASES, ids=STACK_IDS)
    def test_plain_array_input_is_a_constant(self, training, pool, dropout):
        # the input is no parent, and the output, every running statistic
        # and, in training mode, every parameter gradient is the same bits as
        # with the input wrapped in a leaf
        arrays = _stack_arrays(35, 8, (4, 5))
        kwargs = {"pool": pool, "dropout": dropout}
        runs = []
        for wrap in (ag.Tensor, lambda a: a):
            params = [ag.Tensor(a) for a in arrays[1:]]
            layers = _stack_layers(params)
            x = wrap(arrays[0])
            out = ag.bn_mlp(x, layers, training, 0.3, rng=np.random.default_rng(17), **kwargs)
            if training:
                g = np.random.default_rng(32).uniform(-1, 1, out.shape)
                ag.backward(sum_reduce(mul(out, g)))
            runs.append((out, x, params, layers))
        (leaf_out, leaf, leaf_params, leaf_layers), (out, _, params, layers) = runs
        assert leaf_out.parents == (leaf, *leaf_params)
        assert out.parents == tuple(params)
        assert out.values.tobytes() == leaf_out.values.tobytes()
        if training:
            for got, want in zip(params, leaf_params):
                assert got.grad.tobytes() == want.grad.tobytes()
        for (_, got), (_, want) in zip(layers, leaf_layers):
            assert got.running_mean.tobytes() == want.running_mean.tobytes()
            assert got.running_var.tobytes() == want.running_var.tobytes()

    def test_relu_subgradient_is_zero_at_zero(self):
        # a constant column normalizes to its shift exactly: with shift 0 its
        # relu input is 0 in every row, and no gradient passes there
        x = ag.Tensor(np.column_stack([np.full(4, 7.0), np.arange(4.0)]))
        state = ag.BatchNormState(2)
        state.beta.values[:] = [0.0, LIFT]
        out = ag.bn_mlp(x, [(ag.Tensor(np.eye(2)), state)], training=True)
        assert np.all(out.values[:, 0] == 0.0)
        ag.backward(sum_reduce(mul(out, np.arange(1.0, 9.0).reshape(4, 2))))
        assert state.beta.grad[0] == 0.0 and state.gamma.grad[0] == 0.0
        np.testing.assert_array_equal(x.grad[:, 0], 0.0)
        # the other column's relu passes every row: 2 + 4 + 6 + 8
        assert state.beta.grad[1] == 20.0

    @pytest.mark.parametrize("prefixes", [(4,), (1, 3, 4), (1, 2, 4)],
                             ids=["4", "1_3_4", "1_2_4"])
    def test_pool_ties_and_prefix_carry_match_the_reference(self, prefixes):
        # integer rows tie within and across prefix segments. Behind an
        # identity weight and a shift that clears the relu, batch norm keeps
        # every tie, and the reference routes each prefix's gradient to the
        # lowest of its tied rows: a winner taken from another row, or a
        # gradient carried to the wrong prefix, moves the input gradient by a
        # whole share
        rng = np.random.default_rng(8)
        arrays = [rng.integers(0, 3, (12, 5)).astype(float), np.eye(5),
                  rng.uniform(0.5, 1.5, 5), np.full(5, LIFT)]
        runs = [_stack_run(arrays, True, op, pool=prefixes)
                for op in (ag.bn_mlp, reference_bn_mlp)]
        for got, want in zip(*runs):
            _assert_close_to_scale(got, want)

    @pytest.mark.parametrize("prefixes", [(1, 3, 4), (2, 4), (2, 3, 5, 6)],
                             ids=["1_3_4", "2_4", "2_3_5_6"])
    def test_nested_prefixes_match_every_prefix_stacked(self, prefixes):
        # values, running statistics and every gradient of a pooled training
        # stack against the same stack over each prefix's rows stacked, every
        # row once, then max-pooled per prefix
        arrays = _stack_arrays(48, 4 * prefixes[-1], (4, 5))
        runs = [_stack_run(arrays, True, op, pool=prefixes)
                for op in (ag.bn_mlp, _prefixes_stacked)]
        for got, want in zip(*runs):
            _assert_close_to_scale(got, want)

    def test_one_prefix_is_the_unpooled_stack_and_a_max(self):
        # one prefix counts every row once: the values and running statistics
        # are the bits of the unpooled stack, max-pooled
        def unpooled_then_max(x, layers, training, momentum, rng=None, pool=None):
            return reference_prefix_max(ag.bn_mlp(x, layers, training, momentum, rng=rng), pool)

        arrays = _stack_arrays(50, 12, (4, 5))
        got, want = (_stack_run(arrays, True, op, pool=(4,))
                     for op in (ag.bn_mlp, unpooled_then_max))
        grads = range(1, 1 + len(arrays))
        for i, (g, w) in enumerate(zip(got, want)):
            if i in grads:
                _assert_close_to_scale(g, w)
            else:
                assert g.tobytes() == w.tobytes()

    def test_needs_a_layer(self):
        with pytest.raises(ShapeError):
            ag.bn_mlp(ag.Tensor(np.ones((2, 2))), [])
        with pytest.raises(ShapeError, match="2-d input"):
            ag.bn_mlp(np.ones(3), [])


# every eval variant of STACK_CASES over 24 rows in tiles of 8 elements, and
# the area block's shape at the shipped tile size (BLAS may round much smaller
# products differently)
EVAL_TILE_CASES = [(24, (4, 5), {"pool": pool, "dropout": dropout}, 8)
                   for training, pool, dropout in STACK_CASES if not training]
EVAL_TILE_CASES.append((4096, (64, 128), {"pool": (16, 64, 128)}, 1 << 17))
EVAL_TILE_IDS = [i for (training, *_), i in zip(STACK_CASES, STACK_IDS) if not training]
EVAL_TILE_IDS.append("area_block")


@pytest.fixture(params=[1, 2, 4], ids=["1_worker", "2_workers", "4_workers"])
def tile_pool(request, monkeypatch, helper_pool):
    """Returns ``split(on, tile=8)``, which makes stacks of ``tile`` or more
    elements run in tiles of about ``tile`` elements on the calling thread
    and 1, 2 or 4 helper threads (see ``helper_pool``), or, with ``on``
    false, every stack one tile."""
    helper_pool(request.param)

    def split(on, tile=8):
        monkeypatch.setattr(ag, "_POOL_MIN_ELEMENTS", tile if on else 1 << 62)
        monkeypatch.setattr(ag, "_TILE_ELEMENTS", tile)

    return split


def _assert_close_to_scale(got, want, tol=1e-12):
    """Every entry of ``got`` within ``tol`` of ``want``'s largest magnitude
    (an absolute 1e-14 where that is below 1e-14), as TestFusedStacks
    compares whole models."""
    scale = np.abs(want).max() if np.size(want) else 0.0
    atol = tol * scale if scale > 1e-14 else 1e-14
    np.testing.assert_allclose(got, want, rtol=0, atol=atol)


# every training variant of STACK_CASES over 24 rows in tiles of 8 elements;
# a two-prefix pooled and dropped-out stack of 96 rows whose weight-gradient
# partials each cover a run of several tiles; and the area block's shape at
# the shipped tile size
TRAIN_TILE_CASES = [(24, (4, 5), {"pool": pool, "dropout": dropout}, 8)
                    for training, pool, dropout in STACK_CASES if training]
TRAIN_TILE_CASES += [
    (96, (4, 5), {"pool": (2, 4), "dropout": 0.3}, 8),
    (4096, (64, 128), {"pool": (16, 64, 128)}, 1 << 17),
]
TRAIN_TILE_IDS = [i for (training, *_), i in zip(STACK_CASES, STACK_IDS) if training]
TRAIN_TILE_IDS += ["runs_of_tiles", "area_block"]


def _reversed_tiles(count, fn):
    """``_each_tile`` on the calling thread alone, last task first."""
    for i in reversed(range(count)):
        fn(i)


class TestTiles:
    @pytest.mark.parametrize("training,pool,dropout", STACK_CASES, ids=STACK_IDS)
    def test_several_tiles_give_the_bits_of_one(self, tile_pool, training, pool, dropout):
        # 24 rows: 6 groups of 4 or 3 groups of 8, so every case has 3 or more
        # tiles. Eval mode takes no column sum, so its tiles give one tile's
        # bits; training adds per-tile partial sums in tile order, which round
        # otherwise than one sum over every row
        arrays = _stack_arrays(31, 24, (4, 5))
        kwargs = {"pool": pool, "dropout": dropout}
        tile_pool(False)
        one = _stack_run(arrays, training, **kwargs)
        assert ag._pool.submitted == 0
        tile_pool(True)
        assert len(ag._row_tiles(24, 1 if pool is None else pool[-1], 5)) >= 3
        several = _stack_run(arrays, training, **kwargs)
        assert ag._pool.submitted > 0
        for got, want in zip(several, one):
            if training:
                _assert_close_to_scale(got, want)
            else:
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("training", [True, False])
    def test_reference_widths_split_weight_gradients(self, tile_pool, training):
        # the area block's shape at the shipped tile size: groups of 128 rows,
        # layers 64 and 128 wide, so four tiles of 1024 rows, each with a
        # weight-gradient partial of its own in training. (BLAS may round
        # much smaller products differently, so this case keeps the real
        # tile size.)
        arrays = _stack_arrays(33, 4096, (64, 128))
        kwargs = {"pool": (16, 64, 128)}
        tile_pool(False)
        one = _stack_run(arrays, training, **kwargs)
        tile_pool(True, 1 << 17)
        assert len(ag._row_tiles(4096, 128, 128)) == 4
        several = _stack_run(arrays, training, **kwargs)
        assert ag._pool.submitted > 0
        for got, want in zip(several, one):
            if training:
                _assert_close_to_scale(got, want)
            else:
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows,widths,kwargs,tile", TRAIN_TILE_CASES, ids=TRAIN_TILE_IDS)
    def test_training_bits_depend_on_no_schedule(self, monkeypatch, helper_pool, rows, widths,
                                                 kwargs, tile):
        # the same tiles on the calling thread alone, with 1, 2 or 4 helpers,
        # and one by one from the last: the same values, running statistics
        # and gradients, bit for bit
        arrays = _stack_arrays(36, rows, widths)
        monkeypatch.setattr(ag, "_POOL_MIN_ELEMENTS", tile)
        monkeypatch.setattr(ag, "_TILE_ELEMENTS", tile)
        group = 1 if kwargs["pool"] is None else kwargs["pool"][-1]
        assert len(ag._row_tiles(rows, group, max(widths))) >= 3
        runs = []
        for helpers in (0, 1, 2, 4):
            threads = helper_pool(helpers)
            runs.append(_stack_run(arrays, True, **kwargs))
            assert threads is None or threads.submitted > 0
        monkeypatch.setattr(ag, "_each_tile", _reversed_tiles)
        runs.append(_stack_run(arrays, True, **kwargs))
        for run in runs[1:]:
            for got, want in zip(run, runs[0]):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("layout", ["far_from_zero", "far_apart"])
    def test_moments_of_distant_tiles_match_the_reference(self, monkeypatch, layout, weighted):
        # four tiles of 8 rows with unit spread inside each. The first layer
        # adds 1e6 times a constant input column, so its outputs sit about
        # 1e6 from zero ("far_from_zero", tiles a few units apart) or about
        # 1e6 apart ("far_apart"). A merge of per-tile sums of z and z**2
        # would cancel away most digits of the first case's variance
        rows = 32
        rng = np.random.default_rng(37)
        arrays = _stack_arrays(37, rows, (4, 5))
        tile = np.arange(rows) // 8
        x = arrays[0]
        if layout == "far_from_zero":
            x[:, 0] = 1.0
            x[:, 1] += 3.0 * tile
        else:
            x[:, 0] = tile
        arrays[1][0] = 1e6 * rng.uniform(0.5, 1.5, 4)
        # two pool prefixes count a group's first half twice
        pool = (4, 8) if weighted else None
        monkeypatch.setattr(ag, "_POOL_MIN_ELEMENTS", 8 * 5)
        monkeypatch.setattr(ag, "_TILE_ELEMENTS", 8 * 5)
        monkeypatch.setattr(ag, "_tile_pool", lambda: None)
        group = 1 if pool is None else pool[-1]
        assert ag._row_tiles(rows, group, 5) == [(lo, lo + 8) for lo in range(0, rows, 8)]
        got = _stack_run(arrays, True, pool=pool)
        want = _stack_run(arrays, True, reference_bn_mlp, pool=pool)
        for g, w in zip(got, want):
            _assert_close_to_scale(g, w, 1e-9)

    @pytest.mark.parametrize("pool", [None, (2, 4)], ids=["unpooled", "pooled_weighted"])
    def test_dropout_stack_matches_finite_differences(self, tile_pool, pool):
        tile_pool(True)
        assert len(ag._row_tiles(24, 1 if pool is None else pool[-1], 4)) >= 3
        check_op_gradient(*_bn_gradient_case(761, 24, None, True, (4, 3), pool=pool,
                                             dropout=0.3))
        assert ag._pool.submitted > 0

    @pytest.mark.parametrize("rows,widths,kwargs,tile", EVAL_TILE_CASES, ids=EVAL_TILE_IDS)
    def test_evaluation_without_a_graph_gives_the_bits_of_one_tile(self, tile_pool, rows,
                                                                   widths, kwargs, tile):
        # each tile runs through the whole stack and its pool on its own
        arrays = _stack_arrays(34, rows, widths)
        tile_pool(False)
        one = _eval_output(arrays, **kwargs)
        tile_pool(True, tile)
        group = 1 if kwargs["pool"] is None else kwargs["pool"][-1]
        assert len(ag._row_tiles(rows, group, max(widths))) >= 3
        several = _eval_output(arrays, **kwargs)
        assert ag._pool.submitted > 0
        recorded = _stack_run(arrays, False, **kwargs)[0]
        assert several.tobytes() == one.tobytes()
        assert recorded.tobytes() == one.tobytes()

    def test_weighted_pooled_stack_matches_finite_differences(self, tile_pool):
        # two pool prefixes count a group's first half twice
        tile_pool(True)
        pool = (2, 4)
        assert len(ag._row_tiles(24, 4, 4)) >= 3
        check_op_gradient(*_bn_gradient_case(760, 24, None, True, (4, 3), pool=pool))
        assert ag._pool.submitted > 0

    def test_tiles_are_whole_groups_and_never_one_row(self):
        assert ag._row_tiles(16384, 128, 128) == [(lo, lo + 1024) for lo in range(0, 16384, 1024)]
        assert ag._row_tiles(100, 1, 128) == [(0, 100)]
        # a last tile of one row joins the tile before it
        assert ag._row_tiles(4097, 1, 128)[-2:] == [(2048, 3072), (3072, 4097)]
        # a group wider than a tile is a tile of its own
        assert ag._row_tiles(8192, 4096, 128) == [(0, 4096), (4096, 8192)]

    def test_a_failing_tile_raises_after_every_tile_has_run(self, tile_pool):
        # a failure stops no other tile, and is raised only once every
        # started tile has finished
        started, finished = set(), set()

        def task(i):
            started.add(i)
            if i in (1, 5):
                # the later tile fails first; the lowest index wins
                time.sleep(0.02 if i == 1 else 0.0)
                raise FloatingPointError(f"tile {i}")
            time.sleep(0.01)
            finished.add(i)

        with pytest.raises(FloatingPointError, match="tile 1"):
            ag._each_tile(8, task)
        assert started == set(range(8))
        assert finished == started - {1, 5}

    def test_every_tile_runs_once_and_the_caller_works_too(self, tile_pool):
        ran = []

        def task(i):
            time.sleep(0.002)
            ran.append((i, threading.get_ident()))

        ag._each_tile(16, task)
        assert sorted(i for i, _ in ran) == list(range(16))
        assert threading.get_ident() in {ident for _, ident in ran}
        # one helper per worker of the pool, never more than tiles after the first
        assert ag._pool.submitted == ag._pool._max_workers
        ag._each_tile(2, task)
        assert ag._pool.submitted == ag._pool._max_workers + 1

    def test_no_two_threads_share_a_scratch_buffer(self, tile_pool):
        # every thread has buffers of its own, one per slot, and gets the same
        # ones back on its next call
        got = []

        def task(i):
            time.sleep(0.005)
            buffers = (ag._scratch(0, 4), ag._scratch(1, 4), ag._scratch(0, 4, dtype=bool))
            got.append((threading.get_ident(), tuple(b.ctypes.data for b in buffers)))

        for _ in range(2):
            ag._each_tile(16, task)
        owned = dict(got)
        assert len(owned) > 1
        assert all(owned[ident] == addresses for ident, addresses in got)
        addresses = [address for per_thread in owned.values() for address in per_thread]
        assert len(set(addresses)) == len(addresses)

    @pytest.mark.parametrize("work", ["eval_area_block", "adam_step"])
    def test_a_repeated_call_allocates_no_scratch(self, helper_pool, work):
        # the second of two identical calls works in the scratch the first
        # made, and allocates its results and bookkeeping only: less than
        # half of one tile's (or Adam chunk's) scratch buffer
        helper_pool(0)
        if work == "eval_area_block":
            arrays = _stack_arrays(40, 4096, (64, 128))
            assert len(ag._row_tiles(4096, 128, 128)) == 4

            def call():
                _eval_output(arrays, pool=(16, 64, 128))

            buffer = 1024 * 128 * 8
        else:
            params = model.ModelParams()
            w = params.add("w", np.random.default_rng(40).normal(size=ag._POOL_MIN_ELEMENTS))
            w.grad = np.random.default_rng(41).normal(size=w.shape)
            state = training.AdamState()
            assert len(training._adam_chunks(params, state)) > 1

            def call():
                training.adam_step(params, state, lr=0.01)

            buffer = training._ADAM_CHUNK * 8
        call()
        held = dict(vars(ag._held))
        gc.collect()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < buffer / 2, f"{peak} bytes"
        assert vars(ag._held).keys() == held.keys()
        assert all(vars(ag._held)[key] is kept for key, kept in held.items())

    def test_scratch_views_reuse_and_grow_one_buffer_per_slot(self):
        # in a new thread, which holds no scratch yet
        views = {}

        def take():
            views["first"] = ag._scratch(0, 3, 4)
            views["smaller"] = ag._scratch(0, 2, 5)
            views["larger"] = ag._scratch(0, 5, 5)
            views["again"] = ag._scratch(0, 2)
            views["other_slot"] = ag._scratch(1, 2)
            views["mask"] = ag._scratch(0, 2, 3, dtype=bool)

        thread = threading.Thread(target=take)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        shapes = {name: view.shape for name, view in views.items()}
        assert shapes == {"first": (3, 4), "smaller": (2, 5), "larger": (5, 5),
                          "again": (2, 1), "other_slot": (2, 1), "mask": (2, 3)}
        assert views["mask"].dtype == bool
        assert all(view.dtype == np.float64 for name, view in views.items() if name != "mask")
        assert all(view.flags.c_contiguous for view in views.values())
        base = views["first"].ctypes.data
        # a smaller view reuses the buffer; a larger one replaces it, and
        # later views reuse that
        assert views["smaller"].ctypes.data == base
        assert views["larger"].ctypes.data != base
        assert views["again"].ctypes.data == views["larger"].ctypes.data
        for name in ("other_slot", "mask"):
            assert not np.shares_memory(views[name], views["larger"])

    def test_chunked_work_is_scheduled_from_the_stack_threshold(self, monkeypatch):
        monkeypatch.setattr(ag, "_POOL_MIN_ELEMENTS", 100)
        assert ag._chunk_tiles(3, 99) == [(0, 3)]
        assert ag._chunk_tiles(3, 100) == [(0, 1), (1, 2), (2, 3)]
        assert ag._chunk_tiles(0, 0) == [(0, 0)]

    def test_a_tile_that_runs_tiles_itself_completes(self, tile_pool):
        # every worker may be busy with an outer tile when an inner call
        # asks for helpers; each inner call's own thread works its tiles
        ran = []

        def outer(i):
            ag._each_tile(4, lambda j: ran.append(4 * i + j))

        runner = threading.Thread(target=ag._each_tile, args=(4, outer), daemon=True)
        runner.start()
        runner.join(timeout=30)
        assert not runner.is_alive()
        assert sorted(ran) == list(range(16))

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    def test_one_cpu_starts_no_thread(self):
        # a tiled training stack, its backward, a tiled evaluation and a
        # scheduled Adam step all run on the calling thread alone
        script = textwrap.dedent("""
            import os
            import threading
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            import numpy as np
            from pointseq import autograd as ag, model, training
            rng = np.random.default_rng(0)
            x = ag.Tensor(rng.uniform(-1, 1, (4096, 3)))
            layers = [(ag.Tensor(rng.uniform(-1, 1, (3, 128)), trainable=True),
                       ag.BatchNormState(128))]
            assert len(ag._row_tiles(4096, 128, 128)) > 1
            out = ag.bn_mlp(x, layers, training=True, pool=(64, 128))
            ag.backward(ag.cross_entropy_mean(out, np.zeros(out.shape[0], dtype=int)))
            with ag.no_grad():
                ag.bn_mlp(x, layers, pool=(64, 128))
            params = model.ModelParams()
            w = params.add("w", rng.normal(size=ag._POOL_MIN_ELEMENTS))
            w.grad = rng.normal(size=w.shape)
            training.adam_step(params, training.AdamState(), lr=0.01)
            assert ag._pool is None
            print(threading.active_count())
            """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(ag.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) == 1

    def test_pool_threads_do_not_keep_the_process_alive(self):
        script = textwrap.dedent("""
            import threading
            import numpy as np
            from pointseq import autograd as ag
            rng = np.random.default_rng(0)
            x = ag.Tensor(rng.uniform(-1, 1, (4096, 3)))
            layers = [(ag.Tensor(rng.uniform(-1, 1, (3, 128))), ag.BatchNormState(128))]
            out = ag.bn_mlp(x, layers, training=True, pool=(64, 128))
            ag.backward(ag.cross_entropy_mean(out, np.zeros(out.shape[0], dtype=int)))
            assert ag._pool is not None
            print(threading.active_count())
            """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(ag.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) > 1


# (rows, widths, pool, tile elements): the area block's layers in tiles of one
# pool group, and wide layers over tiles of 16 rows, where a weight-gradient
# partial per tile would hold four [rows, widest] arrays
BACKWARD_MEMORY_CASES = [
    (16384, (64, 128, 128), (16, 64, 128), 1 << 14),
    (4096, (64, 256), (16,), 1 << 12),
]


class TestTrainingBackwardMemory:
    @pytest.mark.parametrize("rows,widths,pool,tile", BACKWARD_MEMORY_CASES,
                             ids=["area_block", "wide_layers"])
    def test_backward_holds_one_full_array(self, monkeypatch, helper_pool, rows, widths, pool,
                                           tile):
        # beyond what the forward keeps, the backward of a tiled training
        # stack on three runners allocates at most one [rows, widest]
        # gradient store (a pooled one no wider than its top layer none),
        # the weight-gradient partials of one layer at a time (at most an
        # eighth of that layer's [rows, width] array), and tile- or
        # pool-output-sized change: together under 1 + 1/8 + 1/4 of a
        # [rows, widest] array
        monkeypatch.setattr(ag, "_POOL_MIN_ELEMENTS", tile)
        monkeypatch.setattr(ag, "_TILE_ELEMENTS", tile)
        helpers = helper_pool(2)
        assert len(ag._row_tiles(rows, pool[-1], max(widths))) >= 64
        arrays = _stack_arrays(38, rows, widths)
        layers = _stack_layers([ag.Tensor(a) for a in arrays[1:]])
        out = ag.bn_mlp(arrays[0], layers, True, pool=pool)
        g = np.random.default_rng(39).uniform(-1, 1, out.shape)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            grads = out.grad_fn(g)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert helpers.submitted > 0
        assert len(grads) == 3 * len(widths)
        full = rows * max(widths) * 8
        assert peak <= full * (1 + 1 / 8 + 1 / 4), f"{peak} bytes, {peak / full:.2f} arrays"


    @pytest.mark.parametrize("widths", [(64, 128), (64, 128, 128)], ids=["two", "area_block"])
    def test_pooled_constant_stack_keeps_no_gradient_buffer_or_first_layer(
            self, monkeypatch, helper_pool, widths):
        # the forward keeps the normalized block of every layer above the
        # first, and forward and backward together allocate less than half
        # of the top layer's [rows, width] block beyond those: a [rows,
        # widest] gradient buffer (a whole block) or the first layer's
        # [rows, 64] block (half of one) would break the bound
        rows, pool = 16384, (16, 64, 128)
        monkeypatch.setattr(ag, "_POOL_MIN_ELEMENTS", 1 << 14)
        monkeypatch.setattr(ag, "_TILE_ELEMENTS", 1 << 14)
        helpers = helper_pool(2)
        assert len(ag._row_tiles(rows, pool[-1], max(widths))) >= 64
        arrays = _stack_arrays(42, rows, widths)
        layers = _stack_layers([ag.Tensor(a) for a in arrays[1:]])
        g = np.random.default_rng(43).uniform(-1, 1, (rows // pool[-1] * 3, widths[-1]))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = ag.bn_mlp(arrays[0], layers, True, pool=pool)
            grads = out.grad_fn(g)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert helpers.submitted > 0
        assert len(grads) == 3 * len(widths)
        block = rows * widths[-1] * 8
        kept = rows * sum(widths[1:]) * 8
        assert peak < kept + block / 2, f"{(peak - kept) / block:.2f} blocks beyond the kept ones"


# (widths, dropout) of 24-row stacks pooled over prefixes 2 and 4, which
# count a group's first half twice, and no wider than their top layer, whose
# backward writes over the top layer's activations: two layers, three
# layers, and dropout
SPENT_CASES = {
    "weighted": ((4, 5), 0.0),
    "three_layers": ((4, 3, 5), 0.0),
    "dropout": ((4, 5), 0.3),
}


class TestSpentActivations:
    @pytest.mark.parametrize("constant", [True, False], ids=["constant", "tensor"])
    @pytest.mark.parametrize("case", SPENT_CASES)
    def test_multi_tile_stack_matches_finite_differences(self, tile_pool, case, constant):
        # 6 tiles of one pool group each; a constant input's first layer
        # keeps no block, and the backward remakes its tiles
        widths, dropout = SPENT_CASES[case]
        pool = (2, 4)
        tile_pool(True)
        assert len(ag._row_tiles(24, pool[-1], max(widths))) == 6
        build, arrays = _bn_gradient_case(770, 24, None, True, widths, pool=pool,
                                          dropout=dropout)
        if constant:
            x = arrays.pop(0)
            check_op_gradient(lambda *params: build(x, *params), arrays)
        else:
            check_op_gradient(build, arrays)
        assert ag._pool.submitted > 0

    @pytest.mark.parametrize("split", [False, True], ids=["one_tile", "tiles"])
    @pytest.mark.parametrize("constant", [True, False], ids=["constant", "tensor"])
    def test_a_second_backward_through_a_spent_stack_raises(self, tile_pool, split, constant):
        tile_pool(split)
        arrays = _stack_arrays(44, 24, (4, 5))
        layers = _stack_layers([ag.Tensor(a) for a in arrays[1:]])
        x = arrays[0] if constant else ag.Tensor(arrays[0])
        loss = sum_reduce(ag.bn_mlp(x, layers, True, pool=(2, 4)))
        ag.backward(loss)
        with pytest.raises(RuntimeError, match="bn_mlp"):
            ag.backward(loss)

    @pytest.mark.parametrize("widths,pool", [((4, 5), None), ((5, 4), (2, 4))],
                             ids=["unpooled", "pooled_narrower_top"])
    def test_stacks_that_keep_a_buffer_run_backward_twice(self, widths, pool):
        # an unpooled stack, or a pooled one with a layer wider than its top
        # layer, keeps its activations: a second backward adds the same
        # gradients again
        arrays = _stack_arrays(45, 24, widths)
        params = [ag.Tensor(a) for a in arrays[1:]]
        loss = sum_reduce(ag.bn_mlp(arrays[0], _stack_layers(params), True, pool=pool))
        ag.backward(loss)
        once = [p.grad.copy() for p in params]
        ag.backward(loss)
        for p, first in zip(params, once):
            assert p.grad.tobytes() == (first + first).tobytes()


class TestEvalModeIsForwardOnly:
    @pytest.mark.parametrize("pool", [None, (2, 4)], ids=["unpooled", "pooled"])
    @pytest.mark.parametrize("constant", [True, False], ids=["constant", "tensor"])
    def test_a_backward_through_a_recorded_eval_stack_raises(self, constant, pool):
        # the node keeps its parents, so a backward reaches it and raises
        # instead of leaving the stack's parameters without a gradient
        arrays = _stack_arrays(46, 24, (4, 5))
        params = [ag.Tensor(a) for a in arrays[1:]]
        x = arrays[0] if constant else ag.Tensor(arrays[0])
        out = ag.bn_mlp(x, _stack_layers(params), False, pool=pool)
        assert out.parents == ((() if constant else (x,)) + tuple(params))
        with pytest.raises(RuntimeError, match="bn_mlp"):
            ag.backward(sum_reduce(out))
        assert all(p.grad is None for p in params)

    def test_a_recorded_tiled_forward_keeps_no_block_or_winners(self, monkeypatch, helper_pool):
        # the area block's widths in 128 tiles: beyond its output, a recorded
        # eval-mode forward allocates less than half an output more (NumPy's
        # in-place broadcasts take a 64 KiB buffer per running thread). A kept
        # [rows, width] block per layer (8 and 16 MiB), or the pool winners
        # (as large as the output, 1.5 MiB), would break the bound
        rows, widths, pool = 16384, (64, 128), (8, 16, 32)
        monkeypatch.setattr(ag, "_POOL_MIN_ELEMENTS", 1 << 14)
        monkeypatch.setattr(ag, "_TILE_ELEMENTS", 1 << 14)
        helpers = helper_pool(2)
        assert len(ag._row_tiles(rows, pool[-1], max(widths))) >= 64
        arrays = _stack_arrays(47, rows, widths)
        layers = _stack_layers([ag.Tensor(a) for a in arrays[1:]])
        x = ag.Tensor(arrays[0])
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = ag.bn_mlp(x, layers, False, pool=pool)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert helpers.submitted > 0
        assert out.parents and out.shape == (rows // pool[-1] * 3, widths[-1])
        size = out.values.nbytes
        assert peak < 1.5 * size, f"{peak} bytes, {peak / size:.2f} outputs"


def _lstm_arrays(seed, steps, rows, saturate=False, one_step=False):
    """Input [steps*rows, 3], weight [2+3, 8] and bias [8] of a width-2 LSTM,
    or with ``one_step`` the one-step form's weight [3, 6] and bias [6];
    ``saturate`` drives every gate and the candidate with a bias of +-30."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (steps * rows, 3))
    cols = 6 if one_step else 8
    weight = rng.uniform(-1, 1, (3 if one_step else 5, cols))
    bias = 30.0 * rng.choice([-1.0, 1.0], cols) if saturate else rng.uniform(-1, 1, cols)
    return [x, weight, bias]


LSTM_CASES = ([(steps, 3, False, False) for steps in range(1, 5)]
              + [(3, 1, False, False), (3, 2, True, False)]
              + [(1, 3, False, True), (1, 1, False, True), (1, 2, True, True)])
LSTM_IDS = ([f"steps{steps}" for steps in range(1, 5)] + ["one_row", "saturated"]
            + ["one_step", "one_step_one_row", "one_step_saturated"])


class TestLstm:
    @pytest.mark.parametrize("steps,rows,saturate,one_step", LSTM_CASES, ids=LSTM_IDS)
    def test_gradients_match_finite_differences(self, steps, rows, saturate, one_step):
        arrays = _lstm_arrays(1100 + steps, steps, rows, saturate, one_step)
        # weight the outputs so every step's hidden state has its own gradient
        w = np.random.default_rng(1200 + steps).uniform(-1, 1, (steps * rows, 2))
        check_op_gradient(lambda x, wt, b: mul(ag.lstm(x, steps, wt, b), w), arrays)

    @pytest.mark.parametrize("steps,rows,saturate,one_step", LSTM_CASES, ids=LSTM_IDS)
    def test_matches_reference_chain(self, steps, rows, saturate, one_step):
        # the same values bit for bit, and every gradient within 1e-12
        arrays = _lstm_arrays(1300 + steps, steps, rows, saturate, one_step)
        g = np.random.default_rng(1400).uniform(-1, 1, (steps * rows, 2))
        runs = []
        for op in (ag.lstm, reference_lstm):
            tensors = [ag.Tensor(a) for a in arrays]
            out = op(tensors[0], steps, *tensors[1:])
            ag.backward(sum_reduce(mul(out, g)))
            runs.append([out.values, *(t.grad for t in tensors)])
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        for got, want in zip(*runs):
            assert relative_error(got, want, floor=1e-300) < 1e-12

    def test_one_node_with_input_weight_and_bias_parents(self):
        x, w, b = (ag.Tensor(a) for a in _lstm_arrays(3, 2, 2))
        out = ag.lstm(x, 2, w, b)
        assert out.shape == (4, 2)
        assert out.parents == (x, w, b)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_one_step_form_matches_full_weight_with_zero_recurrent_rows(self, rows):
        # columns of the input, output and candidate blocks of the full layout
        live = [0, 1, 4, 5, 6, 7]
        x, full, full_bias = _lstm_arrays(1450 + rows, 1, rows)
        full[:2] = 0.0
        g = np.random.default_rng(1460).uniform(-1, 1, (rows, 2))
        runs = []
        for weight, bias in ((full, full_bias), (full[2:, live], full_bias[live])):
            tensors = [ag.Tensor(a) for a in (x, weight, bias)]
            out = ag.lstm(tensors[0], 1, *tensors[1:])
            ag.backward(sum_reduce(mul(out, g)))
            runs.append([out.values, *(t.grad for t in tensors)])
        full_run, one_step_run = runs
        # the recurrent rows and the forget gate get no gradient from a first step
        assert not full_run[2][:2].any() and not full_run[2][:, 2:4].any()
        assert not full_run[3][2:4].any()
        full_run[2], full_run[3] = full_run[2][2:, live], full_run[3][live]
        for got, want in zip(one_step_run, full_run):
            assert relative_error(got, want, floor=1e-300) < 1e-12

    @pytest.mark.parametrize("steps,weight_shape", [(4, (5, 8)), (0, (5, 8)), (2, (4, 8))])
    def test_shapes_checked(self, steps, weight_shape):
        with pytest.raises(ShapeError):
            ag.lstm(np.ones((6, 3)), steps, np.ones(weight_shape), np.ones(8))

    @pytest.mark.parametrize("steps,bias_size", [(2, 6), (1, 8)],
                             ids=["over_two_steps", "four_block_bias"])
    def test_one_step_shapes_checked(self, steps, bias_size):
        with pytest.raises(ShapeError):
            ag.lstm(np.ones((6, 3)), steps, np.ones((3, 6)), np.ones(bias_size))


def _attend_arrays(seed, steps, rows, identical=False, peak=1.0):
    """Query [rows, 3], states [steps*rows, 4] and score weight [3, 4]; with
    ``identical`` every step holds the same states, and ``peak`` scales the
    score weight, so a large one gives a near one-hot softmax."""
    rng = np.random.default_rng(seed)
    states = rng.uniform(-1, 1, (steps * rows, 4))
    if identical:
        states = np.tile(states[:rows], (steps, 1))
    return [rng.uniform(-1, 1, (rows, 3)), states, peak * rng.uniform(-1, 1, (3, 4))]


ATTEND_CASES = [(3, 2, False, 1.0), (1, 3, False, 1.0), (3, 2, True, 1.0), (4, 2, False, 25.0)]
ATTEND_IDS = ["random", "one_step", "identical_states", "peaked"]


class TestAttend:
    @pytest.mark.parametrize("steps,rows,identical,peak", ATTEND_CASES, ids=ATTEND_IDS)
    def test_gradients_match_finite_differences(self, steps, rows, identical, peak):
        arrays = _attend_arrays(1500 + steps, steps, rows, identical, peak)
        w = np.random.default_rng(1600).uniform(-1, 1, (rows, 4))
        check_op_gradient(lambda q, s, sw: mul(ag.attend(q, s, sw)[0], w), arrays)

    @pytest.mark.parametrize("steps,rows,identical,peak", ATTEND_CASES, ids=ATTEND_IDS)
    def test_matches_reference_chain(self, steps, rows, identical, peak):
        arrays = _attend_arrays(1700 + steps, steps, rows, identical, peak)
        g = np.random.default_rng(1800).uniform(-1, 1, (rows, 4))
        runs = []
        for op in (ag.attend, reference_attend):
            tensors = [ag.Tensor(a) for a in arrays]
            context, alpha = op(*tensors)
            ag.backward(sum_reduce(mul(context, g)))
            runs.append([context.values, alpha, *(t.grad for t in tensors)])
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        np.testing.assert_array_equal(runs[0][1], runs[1][1])
        for got, want in zip(*runs):
            assert relative_error(got, want, floor=1e-300) < 1e-12

    def test_identical_states_give_uniform_weights_and_that_state(self):
        query, states, score_weight = _attend_arrays(5, 3, 2, identical=True)
        context, alpha = ag.attend(query, states, score_weight)
        np.testing.assert_allclose(alpha, np.full((2, 3), 1 / 3), rtol=1e-15)
        np.testing.assert_allclose(context.values, states[:2], rtol=1e-15)

    def test_one_node_and_plain_weights(self):
        query, states, score_weight = (ag.Tensor(a) for a in _attend_arrays(6, 2, 3))
        context, alpha = ag.attend(query, states, score_weight)
        assert context.parents == (query, states, score_weight)
        assert isinstance(alpha, np.ndarray) and alpha.shape == (3, 2)
        np.testing.assert_allclose(alpha.sum(axis=1), np.ones(3), atol=1e-15)

    @pytest.mark.parametrize("state_rows,score_shape", [(0, (3, 4)), (6, (4, 4))],
                             ids=["no_steps", "score_shape"])
    def test_shapes_checked(self, state_rows, score_shape):
        with pytest.raises(ShapeError):
            ag.attend(np.ones((2, 3)), np.ones((state_rows, 4)), np.ones(score_shape))

    @pytest.mark.parametrize("state_rows", [1, 5, 7])
    def test_states_must_split_into_whole_steps(self, state_rows):
        # the steps are the state rows over the two query rows
        with pytest.raises(ShapeError, match="whole steps"):
            ag.attend(np.ones((2, 3)), np.ones((state_rows, 4)), np.ones((3, 4)))


class TestBlockMatmul:
    @staticmethod
    def blocks(seed):
        # clouds of 5, 3 and 7 points over 4, 2 and 4 centroids
        rng = np.random.default_rng(seed)
        return [rng.uniform(0, 1, (n, m)) for n, m in ((5, 4), (3, 2), (7, 4))]

    def test_values_equal_one_matmul_per_block(self):
        matrices = self.blocks(1)
        x = np.random.default_rng(2).uniform(-1, 1, (10, 6))
        out = ag.block_matmul(matrices, x)
        want = np.concatenate([matrices[0] @ x[:4], matrices[1] @ x[4:6],
                               matrices[2] @ x[6:]])
        np.testing.assert_array_equal(out.values, want)

    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_matches_finite_differences(self, seed):
        matrices = self.blocks(1900 + seed)
        x = np.random.default_rng(2000 + seed).uniform(-1, 1, (10, 6))
        w = np.random.default_rng(2100 + seed).uniform(-1, 1, (15, 6))
        check_op_gradient(lambda t: mul(ag.block_matmul(matrices, t), w), [x])

    def test_one_node_with_only_the_input_as_parent(self):
        x = ag.Tensor(np.ones((10, 2)))
        assert ag.block_matmul(self.blocks(3), x).parents == (x,)

    def test_rows_must_match(self):
        with pytest.raises(ShapeError):
            ag.block_matmul(self.blocks(4), np.ones((9, 2)))


class TestNoGrad:
    @staticmethod
    def stack(training, pool=None):
        rng = np.random.default_rng(41)
        x = ag.Tensor(rng.uniform(-1, 1, (8, 3)))
        layers = [(ag.Tensor(rng.uniform(-1, 1, (3, 4))), ag.BatchNormState(4))]
        layers[0][1].running_mean[:] = 0.1
        return ag.bn_mlp(x, layers, training, pool=pool), layers[0][1]

    @pytest.mark.parametrize("pool", [None, (2, 4)])
    @pytest.mark.parametrize("training", [True, False])
    def test_same_values_and_statistics_without_a_graph(self, training, pool):
        built, state = self.stack(training, pool)
        with ag.no_grad():
            free, free_state = self.stack(training, pool)
        assert free.parents == () and free.grad_fn is None
        assert built.parents
        np.testing.assert_array_equal(free.values, built.values)
        np.testing.assert_array_equal(free_state.running_mean, state.running_mean)
        np.testing.assert_array_equal(free_state.running_var, state.running_var)

    @pytest.mark.parametrize("op", ["lstm", "attend"])
    def test_same_values_from_recurrent_ops_without_a_graph(self, op):
        def run():
            rng = np.random.default_rng(42)
            if op == "lstm":
                return ag.lstm(rng.uniform(-1, 1, (6, 3)), 3, rng.uniform(-1, 1, (5, 8)),
                               rng.uniform(-1, 1, 8))
            context, alpha = ag.attend(rng.uniform(-1, 1, (2, 3)), rng.uniform(-1, 1, (6, 4)),
                                       rng.uniform(-1, 1, (3, 4)))
            assert isinstance(alpha, np.ndarray)
            return context

        built = run()
        with ag.no_grad():
            free = run()
        assert free.parents == () and free.grad_fn is None
        assert built.parents and built.grad_fn is not None
        np.testing.assert_array_equal(free.values, built.values)

    def test_every_op_records_nothing(self):
        with ag.no_grad():
            x = ag.Tensor([[1.0, -2.0]])
            hidden = ag.tanh(ag.matmul(x, ag.Tensor(np.eye(2))))
            states = ag.lstm(ag.concat([hidden, hidden], axis=0), 2, np.ones((4, 8)), np.zeros(8))
            out, _ = ag.attend(hidden, states, np.eye(2))
        assert out.parents == () and out.grad_fn is None

    def test_mode_comes_back_after_an_exception(self):
        with pytest.raises(ShapeError):
            with ag.no_grad():
                ag.matmul(ag.Tensor(np.ones((2, 3))), ag.Tensor(np.ones((2, 3))))
        x = ag.Tensor([1.0])
        assert ag.add(x, x).parents == (x, x)

    def test_blocks_nest(self):
        with ag.no_grad():
            with ag.no_grad():
                pass
            inner = ag.add(ag.Tensor([1.0]), 1.0)
        assert inner.parents == ()
        assert ag.add(ag.Tensor([1.0]), 1.0).parents


class TestCrossEntropy:
    def test_uniform_logits_give_log_classes(self):
        loss = ag.cross_entropy_mean(ag.Tensor([[0.0, 0.0, 0.0]]), [1])
        np.testing.assert_allclose(loss.values, math.log(3.0), rtol=1e-12)

    def test_log_ratio_example(self):
        # softmax of [0, ln 3] is [0.25, 0.75]; -ln 0.75 follows
        loss = ag.cross_entropy_mean(ag.Tensor([[0.0, math.log(3.0)]]), [1])
        np.testing.assert_allclose(loss.values, -math.log(0.75), rtol=1e-12)
        np.testing.assert_allclose(loss.values, 0.2876820724517809, rtol=1e-12)

    def test_confident_correct_logit_drives_loss_to_zero(self):
        loss = ag.cross_entropy_mean(ag.Tensor([[30.0, 0.0]]), [0])
        assert loss.values < 1e-12

    def test_batch_mean(self):
        single_a = ag.cross_entropy_mean(ag.Tensor([[1.0, 2.0]]), [0]).values
        single_b = ag.cross_entropy_mean(ag.Tensor([[0.5, -0.5]]), [1]).values
        both = ag.cross_entropy_mean(ag.Tensor([[1.0, 2.0], [0.5, -0.5]]), [0, 1]).values
        np.testing.assert_allclose(both, (single_a + single_b) / 2.0, rtol=1e-12)

    def test_out_of_range_target_rejected(self):
        with pytest.raises(DataError):
            ag.cross_entropy_mean(ag.Tensor([[0.0, 0.0]]), [2])

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(900 + seed)
        logits = rng.uniform(-1, 1, (4, 5))
        targets = rng.integers(0, 5, 4)

        def scalar(x):
            return float(ag.cross_entropy_mean(ag.Tensor(x), targets).values)

        t = ag.Tensor(logits)
        ag.backward(ag.cross_entropy_mean(t, targets))
        numeric = numeric_gradient(scalar, logits.copy())
        assert relative_error(t.grad, numeric) < 1e-4


class TestReductions:
    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True)])
    @pytest.mark.parametrize("seed", range(4))
    def test_sum_and_mean_gradients(self, axis, keepdims, seed):
        rng = np.random.default_rng(1000 + seed)
        x = rng.uniform(-1, 1, (3, 4))
        w_shape = np.sum(x, axis=axis, keepdims=keepdims).shape
        w = rng.uniform(-1, 1, w_shape)
        check_op_gradient(lambda t: mul(sum_reduce(t, axis, keepdims), w), [x])

    def test_values(self):
        x = ag.Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert sum_reduce(x).values == 10.0
