"""Engine tests: frozen arithmetic examples plus finite-difference oracles."""

import math

import numpy as np
import pytest

from helpers import check_op_gradient, numeric_gradient, relative_error
from pointseq import autograd as ag
from pointseq.errors import ConfigError, DataError, ShapeError


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
        ag.backward(ag.sum_reduce(ag.matmul(a, b)))
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
        np.testing.assert_array_equal(ag.sub(a, b).values, [-2.0, -7.0])
        np.testing.assert_array_equal(ag.mul(a, b).values, [3.0, -10.0])

    def test_bias_vector_broadcasts_and_gradient_sums(self):
        x = ag.Tensor(np.zeros((4, 3)))
        bias = ag.Tensor([1.0, 2.0, 3.0])
        out = ag.add(x, bias)
        np.testing.assert_array_equal(out.values, np.tile([1.0, 2.0, 3.0], (4, 1)))
        ag.backward(ag.sum_reduce(out))
        np.testing.assert_array_equal(bias.grad, [4.0, 4.0, 4.0])

    def test_incompatible_shapes(self):
        with pytest.raises(ShapeError):
            ag.add(ag.Tensor(np.ones((2, 3))), ag.Tensor(np.ones((4, 3))))

    def test_relu_clamps_negatives(self):
        out = ag.relu(ag.Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.values, [0.0, 0.0, 2.0])

    def test_relu_gradient_is_indicator(self):
        x = ag.Tensor([-1.0, 0.0, 2.0])
        ag.backward(ag.sum_reduce(ag.relu(x)))
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_sigmoid_at_zero(self):
        x = ag.Tensor([0.0])
        out = ag.sigmoid(x)
        np.testing.assert_allclose(out.values, [0.5])
        ag.backward(ag.sum_reduce(out))
        np.testing.assert_allclose(x.grad, [0.25])

    def test_sigmoid_extremes_stay_finite(self):
        out = ag.sigmoid(ag.Tensor([-1e4, 1e4]))
        np.testing.assert_allclose(out.values, [0.0, 1.0], atol=1e-12)

    def test_tanh_matches_numpy(self):
        x = np.linspace(-2, 2, 7)
        np.testing.assert_allclose(ag.tanh(ag.Tensor(x)).values, np.tanh(x))

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("op", [ag.add, ag.sub, ag.mul, ag.maximum])
    def test_binary_gradients(self, op, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, (3, 4))
        b = rng.uniform(-1, 1, (3, 4))
        check_op_gradient(op, [a, b])

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("op", [ag.relu, ag.tanh, ag.sigmoid])
    def test_unary_gradients(self, op, seed):
        rng = np.random.default_rng(100 + seed)
        # keep values away from the relu kink at 0
        x = rng.uniform(-1, 1, (4, 3))
        x[np.abs(x) < 1e-3] = 0.5
        check_op_gradient(op, [x])

    @pytest.mark.parametrize("seed", range(8))
    def test_div_and_sqrt_gradients(self, seed):
        rng = np.random.default_rng(200 + seed)
        a = rng.uniform(-1, 1, (3, 3))
        b = rng.uniform(0.5, 1.5, (3, 3))
        check_op_gradient(ag.div, [a, b])
        check_op_gradient(ag.sqrt, [b])


class TestSoftmax:
    def test_uniform_for_equal_inputs(self):
        out = ag.softmax(ag.Tensor([1.0, 1.0, 1.0, 1.0]))
        np.testing.assert_allclose(out.values, np.full(4, 0.25))

    def test_single_element(self):
        np.testing.assert_allclose(ag.softmax(ag.Tensor([3.7])).values, [1.0])

    def test_log_ratio_inputs(self):
        out = ag.softmax(ag.Tensor([math.log(1.0), math.log(3.0)]))
        np.testing.assert_allclose(out.values, [0.25, 0.75], rtol=1e-12)

    def test_large_inputs_do_not_overflow(self):
        out = ag.softmax(ag.Tensor([1e6, 1e6 + 1.0]))
        assert np.isfinite(out.values).all()
        np.testing.assert_allclose(out.values.sum(), 1.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(50))
    def test_sums_to_one(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-50, 50, rng.integers(1, 9))
        total = ag.softmax(ag.Tensor(x)).values.sum()
        assert abs(total - 1.0) < 1e-12

    def test_empty_input_rejected(self):
        with pytest.raises(ShapeError):
            ag.softmax(ag.Tensor(np.zeros(0)))

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(300 + seed)
        x = rng.uniform(-1, 1, 6)
        w = rng.uniform(-1, 1, 6)
        # weight the outputs so the checked gradient exercises off-diagonal terms
        check_op_gradient(lambda t: ag.mul(ag.softmax(t), w), [x])

    def test_rowwise_gradient(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, (3, 5))
        w = rng.uniform(-1, 1, (3, 5))
        check_op_gradient(lambda t: ag.mul(ag.softmax(t, axis=1), w), [x])


def max_over_rows(x):
    """Columnwise max of a [k, d] matrix: one group of all its rows."""
    out, arg = ag.pool_rows_max(x, x.shape[0])
    return ag.reshape(out, (x.shape[1],)), arg[0]


class TestMaxReduce:
    def test_columnwise_max_and_argmax(self):
        out, arg = max_over_rows(ag.Tensor([[1.0, 5.0], [3.0, 2.0]]))
        np.testing.assert_array_equal(out.values, [3.0, 5.0])
        np.testing.assert_array_equal(arg, [1, 0])

    def test_single_row_identity(self):
        out, arg = max_over_rows(ag.Tensor([[7.0, -1.0, 0.5]]))
        np.testing.assert_array_equal(out.values, [7.0, -1.0, 0.5])
        np.testing.assert_array_equal(arg, [0, 0, 0])

    def test_ties_pick_lowest_row(self):
        _, arg = max_over_rows(ag.Tensor([[2.0], [2.0], [1.0]]))
        np.testing.assert_array_equal(arg, [0])

    def test_gradient_routes_to_argmax_only(self):
        x = ag.Tensor([[1.0, 5.0], [3.0, 2.0]])
        out, _ = max_over_rows(x)
        ag.backward(ag.sum_reduce(ag.mul(out, [2.0, 7.0])))
        np.testing.assert_array_equal(x.grad, [[0.0, 7.0], [2.0, 0.0]])

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            ag.pool_rows_max(ag.Tensor(np.zeros((0, 3))), 0)

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(400 + seed)
        x = rng.uniform(-1, 1, (5, 4))
        check_op_gradient(lambda t: max_over_rows(t)[0], [x])

    def test_pool_rows_matches_blockwise_max_reduce(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (12, 5))
        pooled, arg = ag.pool_rows_max(ag.Tensor(x), 4)
        for block in range(3):
            rows = x[4 * block : 4 * block + 4]
            np.testing.assert_array_equal(pooled.values[block], rows.max(axis=0))
            np.testing.assert_array_equal(arg[block], rows.argmax(axis=0))

    @pytest.mark.parametrize("seed", range(6))
    def test_pool_rows_gradient(self, seed):
        rng = np.random.default_rng(500 + seed)
        x = rng.uniform(-1, 1, (8, 3))
        check_op_gradient(lambda t: ag.pool_rows_max(t, 2)[0], [x])

    def test_pool_rows_rejects_ragged_groups(self):
        with pytest.raises(ShapeError):
            ag.pool_rows_max(ag.Tensor(np.ones((7, 2))), 2)


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
        ag.backward(ag.sum_reduce(ag.mul(out, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])))
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
        loss = ag.sum_reduce(ag.tanh(ag.matmul(x, w)))
        ag.backward(loss)
        pre = 0.5 * 0.2 + -0.3 * 0.7
        d = 1.0 - math.tanh(pre) ** 2
        np.testing.assert_allclose(x.grad, [[0.2 * d, 0.7 * d]], rtol=1e-12)

    def test_reused_tensor_accumulates_both_paths(self):
        x = ag.Tensor([2.0])
        ag.backward(ag.sum_reduce(ag.mul(x, x)))
        np.testing.assert_allclose(x.grad, [4.0])

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ShapeError):
            ag.backward(ag.Tensor([1.0, 2.0]))

    def test_repeat_without_zeroing_accumulates(self):
        x = ag.Tensor([1.0, 2.0])
        loss = ag.sum_reduce(ag.mul(x, x))
        ag.backward(loss)
        once = x.grad.copy()
        ag.backward(loss)
        np.testing.assert_allclose(x.grad, 2.0 * once)

    def test_identical_gradients_after_zeroing(self):
        rng = np.random.default_rng(11)
        x = ag.Tensor(rng.uniform(-1, 1, (3, 3)))
        w = ag.Tensor(rng.uniform(-1, 1, (3, 3)))
        loss = ag.sum_reduce(ag.sigmoid(ag.matmul(x, w)))
        ag.backward(loss)
        first = (x.grad.copy(), w.grad.copy())
        x.zero_grad()
        w.zero_grad()
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
            gated = ag.mul(hidden, ag.sigmoid(hidden))
            pooled, _ = max_over_rows(ag.matmul(gated, w2t))
            return ag.softmax(pooled)

        check_op_gradient(network, [x, w1, w2, bias])


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = ag.Tensor([1.0, 2.0])
        assert ag.dropout(x, 0.4, training=False) is x

    def test_zero_ratio_is_identity(self):
        x = ag.Tensor([1.0, 2.0])
        rng = np.random.default_rng(0)
        assert ag.dropout(x, 0.0, training=True, rng=rng) is x

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ConfigError):
            ag.dropout(ag.Tensor([1.0]), 1.0, training=True, rng=np.random.default_rng(0))

    def test_training_needs_rng(self):
        with pytest.raises(ValueError):
            ag.dropout(ag.Tensor([1.0]), 0.5, training=True)

    def test_mean_preserved_monte_carlo(self):
        rng = np.random.default_rng(42)
        x = ag.Tensor(np.ones(10_000))
        out = ag.dropout(x, 0.4, training=True, rng=rng)
        assert abs(out.values.mean() - 1.0) < 0.02

    def test_surviving_entries_scaled(self):
        rng = np.random.default_rng(1)
        out = ag.dropout(ag.Tensor(np.ones(100)), 0.4, training=True, rng=rng)
        kept = out.values[out.values != 0.0]
        np.testing.assert_allclose(kept, 1.0 / 0.6)

    def test_gradient_uses_same_mask(self):
        x_arr = np.linspace(-1, 1, 50)

        def apply(t):
            return ag.dropout(t, 0.3, training=True, rng=np.random.default_rng(5))

        check_op_gradient(apply, [x_arr])


class TestBatchNorm:
    def test_two_sample_batch_normalizes_to_unit(self):
        state = ag.BatchNormState(1)
        out = ag.batch_norm(ag.Tensor([[0.0], [2.0]]), state, training=True)
        np.testing.assert_allclose(out.values, [[-1.0], [1.0]], atol=1e-5)

    def test_constant_batch_collapses_to_shift(self):
        state = ag.BatchNormState(2)
        state.beta.values[:] = [5.0, -3.0]
        out = ag.batch_norm(ag.Tensor(np.full((4, 2), 7.0)), state, training=True)
        np.testing.assert_allclose(out.values, np.tile([5.0, -3.0], (4, 1)))

    def test_running_stats_update_by_momentum(self):
        state = ag.BatchNormState(1)
        ag.batch_norm(ag.Tensor([[0.0], [2.0]]), state, training=True, momentum=0.5)
        np.testing.assert_allclose(state.running_mean, [0.5])  # 0.5*0 + 0.5*1
        np.testing.assert_allclose(state.running_var, [1.0])  # 0.5*1 + 0.5*1

    def test_eval_mode_uses_running_stats(self):
        state = ag.BatchNormState(1)
        state.running_mean[:] = 1.0
        state.running_var[:] = 4.0
        out = ag.batch_norm(ag.Tensor([[3.0]]), state, training=False)
        np.testing.assert_allclose(out.values, [[1.0]], atol=1e-5)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ag.batch_norm(ag.Tensor(np.ones((2, 3))), ag.BatchNormState(2), training=True)

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_including_scale_and_shift(self, training, seed):
        rng = np.random.default_rng(800 + seed)
        x = rng.uniform(-1, 1, (6, 3))
        gamma = rng.uniform(0.5, 1.5, 3)
        beta = rng.uniform(-1, 1, 3)
        # weight the outputs; a plain sum has an identically-zero input gradient
        w = rng.uniform(-1, 1, (6, 3))

        def apply(xt, gt, bt):
            state = ag.BatchNormState(3)
            state.gamma = gt
            state.beta = bt
            state.running_mean[:] = 0.25
            state.running_var[:] = 0.8
            return ag.mul(ag.batch_norm(xt, state, training=training), w)

        check_op_gradient(apply, [x, gamma, beta])


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
        check_op_gradient(lambda t: ag.mul(ag.sum_reduce(t, axis, keepdims), w), [x])
        check_op_gradient(lambda t: ag.mul(ag.mean_reduce(t, axis, keepdims), w), [x])

    def test_values(self):
        x = ag.Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert ag.sum_reduce(x).values == 10.0
        np.testing.assert_array_equal(ag.mean_reduce(x, axis=0).values, [2.0, 3.0])
