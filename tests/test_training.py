"""Optimizer, schedule, metric, and training-loop tests."""

import dataclasses
import gc
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from helpers import reference_adam_step
from pointseq import autograd as ag
from pointseq import model, training
from pointseq.autograd import Tensor
from pointseq.config import AGGREGATORS, TASKS, ModelConfig, TrainConfig, load_run_config
from pointseq.data import synthetic_splits
from pointseq.errors import ConfigError, DataError
from pointseq.geometry import PointCloud
from pointseq.model import (
    ForwardContext,
    ModelParams,
    build_params,
    classify_batch,
    classify_forward,
    prepare_cloud,
)
from pointseq.training import (
    AdamState,
    _batch_logits,
    _gradcheck_setup,
    adam_step,
    apply_schedules,
    classification_metrics,
    cross_entropy_loss,
    evaluate_classification,
    evaluate_segmentation,
    gradient_check,
    network_gradient_check,
    predict_parts,
    shape_miou,
    train,
)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def one_param(values):
    p = ModelParams()
    t = p.add("w", np.asarray(values, dtype=np.float64))
    return p, t


class TestCrossEntropyLoss:
    def test_uniform_logits_give_log_class_count(self):
        for c in (2, 3, 7):
            loss = cross_entropy_loss(np.zeros((4, c)), np.zeros(4, dtype=int))
            assert_allclose(float(loss.values), np.log(c), rtol=1e-15)

    def test_frozen_two_class_example(self):
        loss = cross_entropy_loss(np.array([[0.0, np.log(3.0)]]), np.array([1]))
        assert_allclose(float(loss.values), -np.log(0.75), rtol=1e-14)

    def test_saturated_correct_logit_drives_loss_to_zero(self):
        loss = cross_entropy_loss(np.array([[60.0, 0.0]]), np.array([0]))
        assert float(loss.values) < 1e-20

    def test_out_of_range_target_rejected(self):
        with pytest.raises(DataError):
            cross_entropy_loss(np.zeros((2, 3)), np.array([0, 3]))
        with pytest.raises(DataError):
            cross_entropy_loss(np.zeros((1, 3)), np.array([-1]))


class TestAdam:
    def test_first_step_is_signwise(self):
        # bias correction makes step one exactly lr * g / (|g| + eps)
        p, w = one_param([1.0, -2.0])
        w.grad = np.array([2.0, -0.5])
        adam_step(p, AdamState(), lr=0.1)
        want = np.array([1.0, -2.0]) - 0.1 * np.array([2.0, -0.5]) / (np.array([2.0, 0.5]) + 1e-8)
        assert_allclose(w.values, want, rtol=1e-15)

    def test_constant_gradient_gives_constant_steps(self):
        p, w = one_param([0.5])
        state = AdamState()
        for k in range(1, 6):
            w.grad = np.array([3.0])
            adam_step(p, state, lr=0.01)
            assert_allclose(w.values, 0.5 - k * 0.01 * 3.0 / (3.0 + 1e-8), rtol=1e-12)

    def test_zero_gradient_leaves_parameter(self):
        p, w = one_param([1.5, -0.5])
        w.grad = np.zeros(2)
        state = AdamState()
        for _ in range(3):
            adam_step(p, state, lr=0.1)
        assert_array_equal(w.values, [1.5, -0.5])

    def test_missing_gradient_rejected(self):
        p, w = one_param([2.0])
        with pytest.raises(ValueError, match="no gradient"):
            adam_step(p, AdamState(), lr=0.1)

    def test_zero_learning_rate_is_exact_fixed_point(self):
        p, w = one_param([1.25, -3.5])
        before = w.values.copy()
        state = AdamState()
        for _ in range(3):
            w.grad = np.array([2.0, -1.0])
            adam_step(p, state, lr=0.0)
        assert_array_equal(w.values, before)

    def test_step_counter_shared_across_parameters(self):
        p = ModelParams()
        a = p.add("a", np.array([1.0]))
        b = p.add("b", np.array([1.0]))
        state = AdamState()
        a.grad = np.array([1.0])
        b.grad = np.array([1.0])
        adam_step(p, state, lr=0.1)
        assert state.step == 1
        assert set(state.first) == {"a", "b"}


    def test_matches_the_textbook_update_bit_for_bit(self):
        # parameters of different sizes share the scratch buffers
        rng = np.random.default_rng(70)
        p = ModelParams()
        shapes = [(3, 4), (7,), (2, 2), (1,)]
        tensors = [p.add(f"w{i}", rng.normal(size=shape)) for i, shape in enumerate(shapes)]
        want = [t.values.copy() for t in tensors]
        first = [np.zeros(shape) for shape in shapes]
        second = [np.zeros(shape) for shape in shapes]
        state = AdamState()
        for t in range(1, 4):
            for i, tensor in enumerate(tensors):
                g = tensor.grad = rng.normal(size=shapes[i])
                m, v = first[i], second[i]
                m *= 0.9
                m += (1 - 0.9) * g
                v *= 0.999
                v += (1 - 0.999) * g * g
                m_hat = m / (1 - 0.9**t)
                v_hat = v / (1 - 0.999**t)
                want[i] -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
            adam_step(p, state, lr=0.01)
            for tensor, w in zip(tensors, want):
                assert tensor.values.tobytes() == w.tobytes()


ADAM_SHAPES = [(3, 4), (7,), (2, 2), (1,), (4, 6)]


def _adam_case(seed):
    """Two copies of a model of ADAM_SHAPES parameters and three steps of
    gradients for them, spread over sixteen orders of magnitude."""
    rng = np.random.default_rng(seed)
    copies = []
    values = [rng.normal(size=shape) for shape in ADAM_SHAPES]
    for _ in range(2):
        p = ModelParams()
        for i, v in enumerate(values):
            p.add(f"w{i}", v.copy())
        copies.append(p)
    grads = [[rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
              for shape in ADAM_SHAPES] for _ in range(3)]
    return copies, grads


class TestAdamChunks:
    @pytest.mark.parametrize("helpers", [0, 1, 2, 4])
    @pytest.mark.parametrize("chunk", [5, 8, 1 << 15])
    def test_matches_the_per_parameter_update_bit_for_bit(self, monkeypatch, helper_pool, chunk,
                                                          helpers):
        # chunks of 5 and 8 elements end inside tensors; with helpers, every
        # chunk is a scheduler task
        monkeypatch.setattr(training, "_ADAM_CHUNK", chunk)
        monkeypatch.setattr(ag, "_POOL_MIN_ELEMENTS", 1 if helpers else 1 << 62)
        helper_pool(helpers)
        (p, want), grads = _adam_case(71)
        state, reference = AdamState(), AdamState()
        for step_grads in grads:
            for (_, t), (_, w), g in zip(p.items(), want.items(), step_grads):
                t.grad, w.grad = g.copy(), g.copy()
            adam_step(p, state, lr=0.01)
            reference_adam_step(want, reference, lr=0.01)
            for (name, t), (_, w) in zip(p.items(), want.items()):
                assert t.values.tobytes() == w.values.tobytes(), name
                assert state.first[name].tobytes() == reference.first[name].tobytes()
                assert state.second[name].tobytes() == reference.second[name].tobytes()
        assert state.step == reference.step == 3

    def test_chunks_cut_the_flat_parameters_every_chunk_size(self, monkeypatch):
        monkeypatch.setattr(training, "_ADAM_CHUNK", 5)
        (p, _), grads = _adam_case(72)
        for (_, t), g in zip(p.items(), grads[0]):
            t.grad = g
        state = AdamState()
        chunks = training._adam_chunks(p, state)
        # each parameter is cut on its own: w0 (12 elements) into 5, 5 and 2
        sizes = [(name, len(values)) for name, values, *_ in chunks]
        assert sizes == [(name, size) for name, t in p.items()
                         for size in [5] * (t.size // 5) + [t.size % 5] * (t.size % 5 > 0)]
        # no chunk spans two parameters, and every element is covered once,
        # at the same offset in the values, both moments and the gradient
        covered = {name: np.zeros(t.size, dtype=int) for name, t in p.items()}
        for name, *views in chunks:
            owners = [p[name].values, state.first[name], state.second[name], p[name].grad]
            starts = {(view.ctypes.data - owner.ctypes.data) // 8
                      for view, owner in zip(views, owners)}
            assert len(starts) == 1
            start = starts.pop()
            covered[name][start:start + len(views[0])] += 1
            for other, t in p.items():
                assert np.shares_memory(views[0], t.values) == (other == name)
        assert all((count == 1).all() for count in covered.values())

    @pytest.mark.parametrize("scheduled", [False, True])
    def test_a_non_finite_gradient_moves_nothing(self, monkeypatch, helper_pool, scheduled):
        monkeypatch.setattr(training, "_ADAM_CHUNK", 5)
        monkeypatch.setattr(ag, "_POOL_MIN_ELEMENTS", 1 if scheduled else 1 << 62)
        helper_pool(2)
        (p, _), grads = _adam_case(73)
        state = AdamState()
        for (_, t), g in zip(p.items(), grads[0]):
            t.grad = g
        adam_step(p, state, lr=0.01)
        before = {name: t.values.copy() for name, t in p.items()}
        moments = {name: state.first[name].copy() for name in before}
        for bad in (np.nan, np.inf, -np.inf):
            for (_, t), g in zip(p.items(), grads[1]):
                t.grad = g.copy()
            p["w4"].grad[2, 3] = bad
            with pytest.raises(FloatingPointError, match="'w4'"):
                adam_step(p, state, lr=0.01)
            assert state.step == 1
            for name, t in p.items():
                assert t.values.tobytes() == before[name].tobytes()
                assert state.first[name].tobytes() == moments[name].tobytes()


class TestSchedules:
    # the schedule's constants as they were when each was a [train] key:
    # lr_floor 1e-5, bn_momentum 0.5, bn_momentum_decay 0.5, bn_momentum_floor 0.01
    @pytest.mark.parametrize("epoch,want", [
        (0, (0.001, 0.5)), (19, (0.001, 0.5)), (20, (0.0003, 0.25)),
        (40, (8.999999999999999e-05, 0.125)), (100, (1e-05, 0.015625)), (200, (1e-05, 0.01)),
    ])
    def test_default_schedule_keeps_its_values(self, epoch, want):
        assert apply_schedules(TrainConfig(), epoch) == want

    def test_frozen_decay_table(self):
        tcfg = TrainConfig()
        assert apply_schedules(tcfg, 0) == (0.001, 0.5)
        assert apply_schedules(tcfg, 19) == (0.001, 0.5)
        assert apply_schedules(tcfg, 20) == (0.001 * 0.3, 0.25)
        assert apply_schedules(tcfg, 40) == (0.001 * 0.09, 0.125)

    def test_floors(self):
        tcfg = TrainConfig()
        lr, m = apply_schedules(tcfg, 200)
        assert lr == 1e-5
        assert m == 0.01

    def test_custom_period(self):
        tcfg = TrainConfig(decay_every=5, lr=0.01, lr_decay=0.5)
        assert apply_schedules(tcfg, 4)[0] == 0.01
        assert apply_schedules(tcfg, 5)[0] == 0.005

    def test_zero_period_turns_decay_off(self):
        tcfg = TrainConfig(decay_every=0)
        assert apply_schedules(tcfg, 0) == (0.001, 0.5)
        assert apply_schedules(tcfg, 500) == (0.001, 0.5)


class TestClassificationMetrics:
    def test_frozen_two_class_example(self):
        # class 0: 10 samples all right; class 1: 90 samples, 45 right
        true = np.array([0] * 10 + [1] * 90)
        pred = np.array([0] * 10 + [1] * 45 + [0] * 45)
        instance, class_avg = classification_metrics(pred, true, num_classes=2)
        assert instance == 0.55
        assert class_avg == 0.75

    def test_absent_class_excluded(self):
        true = np.array([0, 0, 2])
        pred = np.array([0, 2, 2])
        _, class_avg = classification_metrics(pred, true, num_classes=3)
        assert_allclose(class_avg, (0.5 + 1.0) / 2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            classification_metrics(np.zeros(3), np.zeros(4), 2)


class TestShapeMiou:
    def test_frozen_example(self):
        # part 0: intersection 1, union 2; part 1: intersection 2, union 3
        got = shape_miou([0, 1, 1, 1], [0, 0, 1, 1], parts=(0, 1))
        assert_allclose(got, 7 / 12)

    def test_absent_part_scores_one(self):
        assert shape_miou([0, 0], [0, 0], parts=(0, 1)) == 1.0

    def test_perfect_prediction(self):
        assert shape_miou([2, 0, 1], [2, 0, 1], parts=(0, 1, 2)) == 1.0

    def test_disjoint_prediction(self):
        assert shape_miou([1, 1], [0, 0], parts=(0, 1)) == 0.0


class TestPredictParts:
    def test_unrestricted_argmax(self):
        rows = np.array([[0.1, 0.9, 0.0], [2.0, -1.0, 0.5]])
        assert_array_equal(predict_parts(rows), [1, 0])

    def test_range_restriction(self):
        rows = np.array([[9.0, 0.2, 0.1], [9.0, -1.0, 0.5]])
        assert_array_equal(predict_parts(rows, (1, 3)), [1, 2])


def tiny_cfg(**over):
    base = dict(task="classification", num_classes=2, m=4, scales=(2, 4),
                feature_dim=12, hidden_dim=12, area_hidden=(8, 8),
                agg_widths=(16, 16), head_widths=(16, 8))
    base.update(over)
    return ModelConfig(**base)


def two_class_clouds(count, points, rng):
    """Spheres (class 0) versus uniform cubes (class 1)."""
    clouds, labels = [], []
    for i in range(count):
        if i % 2 == 0:
            v = rng.normal(size=(points, 3))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            labels.append(0)
        else:
            v = rng.uniform(-1, 1, size=(points, 3))
            labels.append(1)
        clouds.append(PointCloud(v))
    return clouds, np.array(labels)


class TestEvaluate:
    def test_classification_loss_matches_single_forwards(self):
        cfg = tiny_cfg()
        params = build_params(cfg, np.random.default_rng(5))
        rng = np.random.default_rng(6)
        clouds, labels = two_class_clouds(5, 16, rng)
        geoms = [prepare_cloud(c, cfg) for c in clouds]
        out = evaluate_classification(geoms, labels, params, cfg, batch_size=2)
        per_cloud = []
        for c, y in zip(clouds, labels):
            logits = classify_forward(c, params, cfg)
            row = ag.reshape(logits, (1, cfg.num_classes))
            per_cloud.append(float(ag.cross_entropy_mean(row, np.array([y])).values))
        assert_allclose(out["loss"], np.mean(per_cloud), rtol=1e-9)
        assert 0.0 <= out["instance_acc"] <= 1.0
        assert 0.0 <= out["class_acc"] <= 1.0

    def test_instance_accuracy_is_frequency_weighted_class_mean(self):
        rng = np.random.default_rng(9)
        true = rng.integers(0, 3, size=60)
        pred = rng.integers(0, 3, size=60)
        instance, _ = classification_metrics(pred, true, 3)
        weighted = sum(
            np.mean(pred[true == c] == c) * np.mean(true == c)
            for c in range(3) if np.any(true == c)
        )
        assert_allclose(instance, weighted, rtol=1e-12)

    def test_segmentation_label_outside_range_rejected(self):
        cfg = tiny_cfg(task="segmentation", num_parts=4, seg_point_width=8,
                       seg_prop1_widths=(16, 8), seg_prop2_widths=(16, 8),
                       seg_head_widths=(8,))
        params = build_params(cfg, np.random.default_rng(7))
        rng = np.random.default_rng(8)
        cloud = PointCloud(rng.normal(size=(12, 3)), labels=rng.integers(2, 4, size=12))
        geoms = [prepare_cloud(cloud, cfg)]
        with pytest.raises(DataError, match="outside its category range"):
            evaluate_segmentation(geoms, params, cfg, part_ranges=[(0, 2)])

    def test_segmentation_category_breakdown(self):
        cfg = tiny_cfg(task="segmentation", num_parts=2, seg_point_width=8,
                       seg_prop1_widths=(16, 8), seg_prop2_widths=(16, 8),
                       seg_head_widths=(8,))
        params = build_params(cfg, np.random.default_rng(10))
        rng = np.random.default_rng(11)
        geoms = [prepare_cloud(PointCloud(rng.normal(size=(10, 3)),
                                          labels=rng.integers(0, 2, size=10)), cfg)
                 for _ in range(4)]
        out = evaluate_segmentation(geoms, params, cfg, categories=["a", "a", "b", "b"])
        assert set(out["category_iou"]) == {"a", "b"}
        assert_allclose(out["mean_iou"],
                        np.mean([out["category_iou"]["a"], out["category_iou"]["b"]]),
                        rtol=1e-12)

    def test_segmentation_part_range_restricts_predictions(self):
        cfg = tiny_cfg(task="segmentation", num_parts=4, seg_point_width=8,
                       seg_prop1_widths=(16, 8), seg_prop2_widths=(16, 8),
                       seg_head_widths=(8,))
        params = build_params(cfg, np.random.default_rng(7))
        rng = np.random.default_rng(8)
        clouds = [PointCloud(rng.normal(size=(12, 3)), labels=rng.integers(2, 4, size=12))
                  for _ in range(2)]
        geoms = [prepare_cloud(c, cfg) for c in clouds]
        full = evaluate_segmentation(geoms, params, cfg, batch_size=2)
        restricted = evaluate_segmentation(geoms, params, cfg, batch_size=2,
                                           part_ranges=[(2, 4), (2, 4)])
        assert 0.0 <= full["mean_iou"] <= 1.0
        # with random parameters the unrestricted argmax strays outside the
        # category's parts, so restriction can only help point accuracy
        assert restricted["point_acc"] >= full["point_acc"]
        assert 0.0 <= restricted["mean_iou"] <= 1.0


class TestGradientCheck:
    @pytest.mark.parametrize("task", ["classification", "segmentation"])
    def test_network_gradients_match(self, task):
        worst, report = network_gradient_check(task, coords_per_tensor=4)
        assert worst < 1e-4, report

    def test_probes_a_non_contiguous_parameter_in_place(self):
        # a Fortran-order weight: a probe of a flattened copy would read no
        # change in the loss and blame the backward with error 1.0
        cfg, params, geoms, labels = _gradcheck_setup("classification", 0)
        weight = params["head.out.weight"]
        weight.values = np.asfortranarray(weight.values)
        assert not weight.values.flags.c_contiguous

        def loss_fn():
            ctx = ForwardContext(training=True, rng=np.random.default_rng(123))
            return ag.cross_entropy_mean(classify_batch(geoms, params, cfg, ctx), labels)

        worst, report = gradient_check(params, loss_fn, coords_per_tensor=4)
        assert report["head.out.weight"] < 1e-4, report
        assert worst < 1e-4, report

    def test_detects_corrupted_backward(self):
        p, w = one_param([0.7, -1.2, 0.4])

        def loss_fn():
            # deliberately wrong backward: claims d(w*w)/dw = 3w, not 2w
            out = Tensor(np.sum(w.values * w.values), parents=(w,),
                         grad_fn=lambda g: (g * 3.0 * w.values,))
            return out

        worst, _ = gradient_check(p, loss_fn, coords_per_tensor=3)
        assert worst > 1e-2

    def test_detects_zeroed_backward(self):
        p, w = one_param([0.7, -1.2])

        def loss_fn():
            return Tensor(np.sum(w.values ** 2), parents=(w,),
                          grad_fn=lambda g: (np.zeros_like(w.values),))

        worst, _ = gradient_check(p, loss_fn, coords_per_tensor=2)
        assert worst > 1e-2

    @pytest.mark.parametrize("op", ["lstm", "attend"])
    def test_detects_small_planted_backward_error(self, monkeypatch, op):
        # a 0.1% error in one op's backward must stay visible above 1e-4,
        # whatever the retries at other step sizes find
        real = getattr(ag, op)

        def faulty(*args, **kwargs):
            result = real(*args, **kwargs)
            # attend returns (context, weights); only the context is a node
            out = result[0] if isinstance(result, tuple) else result
            grad_fn = out.grad_fn
            out.grad_fn = lambda g: tuple(
                None if gi is None else gi * 1.001 for gi in grad_fn(g)
            )
            return result

        monkeypatch.setattr(ag, op, faulty)
        worst, _ = network_gradient_check("classification", coords_per_tensor=4)
        assert worst > 1e-4

    @pytest.mark.parametrize("aggregator", ["no_attention", "no_decoder"])
    def test_every_recurrent_aggregator_gradients_match(self, aggregator):
        # the network gradient check itself runs attention_ed; these two
        # reach the loss through the decoder alone or the last encoder state
        cfg = tiny_cfg(aggregator=aggregator, num_classes=3)
        rng = np.random.default_rng(70)
        params = build_params(cfg, rng)
        geoms = [prepare_cloud(PointCloud(rng.normal(size=(16, 3))), cfg) for _ in range(3)]
        labels = np.array([0, 1, 2])

        def loss_fn():
            ctx = ForwardContext(training=True, rng=np.random.default_rng(71))
            return ag.cross_entropy_mean(classify_batch(geoms, params, cfg, ctx), labels)

        worst, report = gradient_check(params, loss_fn, coords_per_tensor=4)
        assert worst < 1e-4, report

    @pytest.mark.parametrize("aggregator,scales", [
        ("attention_ed", (2, 4)), ("no_attention", (2, 4)), ("no_decoder", (2, 4)),
        ("attention_ed", (4,)), ("no_attention", (4,)), ("no_decoder", (4,)),
    ], ids=["attention_ed-two_scales", "no_attention-two_scales", "no_decoder-two_scales",
            "attention_ed-one_scale", "no_attention-one_scale", "no_decoder-one_scale"])
    def test_every_recurrent_parameter_gets_a_gradient(self, aggregator, scales):
        # a one-step LSTM stores no recurrent rows and no forget gate, which
        # would meet only the zero state, and attention over one scale stores
        # no score weight, as its softmax over one step is always 1
        cfg = tiny_cfg(aggregator=aggregator, scales=scales)
        rng = np.random.default_rng(72)
        params = build_params(cfg, rng)
        geoms = [prepare_cloud(PointCloud(rng.normal(size=(24, 3))), cfg) for _ in range(4)]
        ctx = ForwardContext(training=True, rng=np.random.default_rng(73))
        ag.backward(cross_entropy_loss(classify_batch(geoms, params, cfg, ctx),
                                       np.array([0, 1, 0, 1])))
        recurrent = [name for name in params.names() if name.split(".")[0] in
                     ("encoder", "decoder")]
        assert len(recurrent) == (2 if aggregator == "no_decoder" else 4)
        attention = [name for name in params.names() if name.startswith("attn_")]
        if aggregator == "attention_ed":
            assert attention == ["attn_score.weight"] * (len(scales) > 1) + ["attn_combine.weight"]
        for name in recurrent + attention:
            assert params[name].grad.all(), name

    @pytest.mark.parametrize("aggregator", AGGREGATORS)
    @pytest.mark.parametrize("task", TASKS)
    def test_every_stored_projection_bias_gets_a_gradient(self, task, aggregator):
        # batch norm subtracts a shift shared by every region, so a bias that
        # adds only such a shift would read a gradient of rounding noise
        cfg, _, geoms, labels = _gradcheck_setup(task)
        cfg = dataclasses.replace(cfg, aggregator=aggregator)
        params = build_params(cfg, np.random.default_rng(74))
        ctx = ForwardContext(training=True, rng=np.random.default_rng(75))
        ag.backward(cross_entropy_loss(*_batch_logits(geoms, labels, params, cfg, ctx)))
        for name in params.names():
            if name.endswith("_proj.bias"):
                assert np.abs(params[name].grad).max() > 1e-10, name

    def test_zero_parameter_model_gives_empty_report(self):
        worst, report = gradient_check(ModelParams(), lambda: ag.tensor(1.5))
        assert worst == 0.0
        assert report == {}


class TestTrain:
    def _run(self, seed=3, epochs=4):
        cfg = tiny_cfg()
        tcfg = TrainConfig(lr=0.005, batch_size=4, epochs=epochs, seed=seed)
        rng = np.random.default_rng(40)
        train_clouds, train_labels = two_class_clouds(8, 24, rng)
        test_clouds, test_labels = two_class_clouds(4, 24, rng)
        return train(train_clouds, train_labels, test_clouds, test_labels, cfg, tcfg)

    def test_same_seed_is_bit_identical(self):
        a = self._run()
        b = self._run()
        assert a.log_lines == b.log_lines
        for name, t in a.params.items():
            assert_array_equal(t.values, b.params[name].values)
        for name, s in a.params.batch_norms.items():
            assert_array_equal(s.running_mean, b.params.batch_norms[name].running_mean)
        assert a.best_epoch == b.best_epoch

    def test_different_seed_differs(self):
        a = self._run(seed=3)
        b = self._run(seed=4)
        assert a.log_lines != b.log_lines

    def test_history_and_log_shape(self):
        r = self._run(epochs=3)
        assert len(r.history) == 3
        assert [h["epoch"] for h in r.history] == [0, 1, 2]
        for line, h in zip(r.log_lines, r.history):
            assert line.startswith(f"epoch={h['epoch']} loss=")
            assert "train_acc=" in line and "test_acc=" in line
            assert "lr=" in line and "bn_momentum=" in line

    def test_best_tracking_prefers_earliest(self):
        r = self._run(epochs=4)
        metrics = [h["test_acc"] for h in r.history]
        assert r.best_metric == max(metrics)
        assert r.best_epoch == metrics.index(max(metrics))
        assert set(r.best_snapshot["params"]) == set(dict(r.params.items()))

    def test_single_sample_loss_converges_monotonically(self):
        # one repeated sample memorizes; identical batch rows zero out the
        # batch-normalized features, so only the bias path can learn and
        # dropout is disabled to keep the per-epoch loss deterministic
        cfg = tiny_cfg(dropout=0.0)
        tcfg = TrainConfig(lr=0.15, batch_size=4, epochs=250, seed=2, decay_every=1000)
        rng = np.random.default_rng(43)
        cloud, label = two_class_clouds(1, 24, rng)
        clouds = cloud * 4
        labels = np.repeat(label, 4)
        r = train(clouds, labels, cloud, label, cfg, tcfg)
        losses = [h["loss"] for h in r.history]
        assert losses[-1] < 1e-3
        for e in range(5, len(losses) - 1):
            assert losses[e + 1] <= losses[e] + 1e-9, (e, losses[e], losses[e + 1])

    def test_memorizes_tiny_classification_problem(self):
        cfg = tiny_cfg()
        tcfg = TrainConfig(lr=0.005, batch_size=4, epochs=25, seed=0)
        rng = np.random.default_rng(41)
        clouds, labels = two_class_clouds(8, 24, rng)
        r = train(clouds, labels, clouds, labels, cfg, tcfg)
        assert r.history[-1]["loss"] < r.history[0]["loss"]
        assert max(h["train_acc"] for h in r.history) == 1.0

    def test_segmentation_smoke(self):
        cfg = tiny_cfg(task="segmentation", num_parts=2, seg_point_width=8,
                       seg_prop1_widths=(16, 8), seg_prop2_widths=(16, 8),
                       seg_head_widths=(8,))
        tcfg = TrainConfig(lr=0.005, batch_size=2, epochs=2, seed=1)
        rng = np.random.default_rng(42)
        clouds = []
        for _ in range(4):
            pts = rng.normal(size=(16, 3))
            clouds.append(PointCloud(pts, labels=(pts[:, 2] > 0).astype(int)))
        r = train(clouds, None, clouds[:2], None, cfg, tcfg)
        assert len(r.history) == 2
        assert "train_miou=" in r.log_lines[0]
        assert 0.0 <= r.history[-1]["test_miou"] <= 1.0

    @pytest.mark.parametrize("task", ["classification", "segmentation"])
    def test_no_graph_outlives_its_batch(self, task, monkeypatch):
        # every array a forward computed is unreachable once the next forward
        # begins: training steps and evaluation batches alike
        live = []

        def interior_values(root):
            seen, stack, found = set(), [root], []
            while stack:
                node = stack.pop()
                if id(node) in seen or not node.parents:
                    continue
                seen.add(id(node))
                found.append(node.values)
                stack.extend(node.parents)
            return found

        def tracked(forward):
            def wrapper(geoms, params, cfg, ctx=None):
                assert all(ref() is None for ref in live), "the previous batch's graph is alive"
                out = forward(geoms, params, cfg, ctx)
                logits = out[0] if isinstance(out, tuple) else out
                interior = interior_values(logits)
                if interior:  # evaluation batches build no graph at all
                    live[:] = [weakref.ref(v) for v in interior]
                return out
            return wrapper

        monkeypatch.setattr(training, "classify_batch", tracked(training.classify_batch))
        monkeypatch.setattr(training, "segment_batch", tracked(training.segment_batch))
        rng = np.random.default_rng(44)
        tcfg = TrainConfig(lr=0.005, batch_size=2, epochs=2, seed=5)
        if task == "classification":
            clouds, labels = two_class_clouds(4, 24, rng)
            train(clouds, labels, clouds[:3], labels[:3], tiny_cfg(), tcfg)
        else:
            cfg = tiny_cfg(task="segmentation", num_parts=2, seg_point_width=8,
                           seg_prop1_widths=(16, 8), seg_prop2_widths=(16, 8),
                           seg_head_widths=(8,))
            clouds = [PointCloud(pts, labels=(pts[:, 2] > 0).astype(int))
                      for pts in rng.normal(size=(4, 16, 3))]
            train(clouds, None, clouds[:3], None, cfg, tcfg)
        assert live

    def test_empty_training_set_rejected(self):
        with pytest.raises(ConfigError):
            train([], [], [], [], tiny_cfg(), TrainConfig(epochs=1))

    @pytest.mark.parametrize("task", ["classification", "segmentation"])
    def test_empty_test_split_rejected_before_any_work(self, task, monkeypatch):
        def no_work(*args):
            raise AssertionError("parameters were built before the splits were checked")

        monkeypatch.setattr(training, "build_params", no_work)
        rng = np.random.default_rng(41)
        if task == "classification":
            cfg = tiny_cfg()
            clouds, labels = two_class_clouds(2, 16, rng)
        else:
            cfg = seg_cfg()
            clouds = [PointCloud(pts, labels=(pts[:, 2] > 0).astype(int))
                      for pts in rng.normal(size=(2, 16, 3))]
            labels = None
        with pytest.raises(ConfigError, match="test cloud"):
            train(clouds, labels, [], [], cfg, TrainConfig(epochs=1))


def seg_cfg(**over):
    return tiny_cfg(task="segmentation", num_parts=2, seg_point_width=8,
                    seg_prop1_widths=(16, 8), seg_prop2_widths=(16, 8),
                    seg_head_widths=(8,), **over)


class TestMemoryGuard:
    """What forwards keep alive: the saving of the fused dense stacks and of
    graph-free evaluation must not silently come back."""

    def test_training_area_block_keeps_one_array_per_layer(self):
        cfg = tiny_cfg(m=32, scales=(8, 16, 32), area_hidden=(32, 64), feature_dim=64)
        rng = np.random.default_rng(60)
        params = build_params(cfg, rng)
        geoms = [prepare_cloud(PointCloud(rng.normal(size=(96, 3))), cfg) for _ in range(2)]
        ctx = ForwardContext(training=True, rng=rng)
        rows = len(geoms) * cfg.m * cfg.scales[-1]
        widths = sum(cfg.area_hidden) + cfg.feature_dim
        # the normalized activations of every layer, plus small change for
        # the pooled blocks, their routing and the centroid projection
        budget = 1.5 * rows * widths * 8
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sequences = model._area_sequences(geoms, params, cfg, ctx)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert sequences.shape == (cfg.num_scales * len(geoms) * cfg.m, cfg.feature_dim)
        assert held <= budget, f"area block keeps {held} bytes, budget {budget:.0f}"

    def test_evaluation_area_block_never_holds_a_full_layer(self, monkeypatch, helper_pool):
        # eval runs each row tile through the whole stack and its pool in
        # per-thread scratch buffers, so at no moment does a [rows, widest]
        # array exist
        cfg = tiny_cfg(m=32, scales=(8, 16, 32), area_hidden=(32, 64), feature_dim=64)
        rng = np.random.default_rng(62)
        params = build_params(cfg, rng)
        geoms = [prepare_cloud(PointCloud(rng.normal(size=(96, 3))), cfg) for _ in range(2)]
        rows = len(geoms) * cfg.m * cfg.scales[-1]
        widest = max(*cfg.area_hidden, cfg.feature_dim)
        tile = 1 << 12
        monkeypatch.setattr(ag, "_TILE_ELEMENTS", tile)
        monkeypatch.setattr(ag, "_POOL_MIN_ELEMENTS", tile)
        helper_pool(2)
        assert len(ag._row_tiles(rows, cfg.scales[-1], widest)) >= 8
        budget = rows * widest * 8
        gc.collect()
        tracemalloc.start()
        try:
            with ag.no_grad():
                before = tracemalloc.get_traced_memory()[0]
                sequences = model._area_sequences(geoms, params, cfg, ForwardContext())
                peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert sequences.shape == (cfg.num_scales * len(geoms) * cfg.m, cfg.feature_dim)
        assert peak < budget, f"eval area block peaks at {peak} bytes, budget {budget}"

    @pytest.mark.parametrize("task", ["classification", "segmentation"])
    def test_evaluation_builds_no_graph_and_matches_graph_forward(self, task, monkeypatch):
        cfg = tiny_cfg() if task == "classification" else seg_cfg()
        rng = np.random.default_rng(61)
        params = build_params(cfg, rng)
        geoms = [prepare_cloud(PointCloud(rng.normal(size=(16, 3)),
                                          labels=rng.integers(0, 2, size=16)), cfg)
                 for _ in range(3)]
        forward_name = "classify_batch" if task == "classification" else "segment_batch"
        forward = getattr(training, forward_name)
        seen = []

        def recorded(batch, *args):
            out = forward(batch, *args)
            seen.append((batch, out[0] if isinstance(out, tuple) else out))
            return out

        monkeypatch.setattr(training, forward_name, recorded)
        if task == "classification":
            evaluate_classification(geoms, np.array([0, 1, 0]), params, cfg, batch_size=2)
        else:
            evaluate_segmentation(geoms, params, cfg, batch_size=2)
        assert len(seen) == 2
        for batch, logits in seen:
            assert logits.parents == () and logits.grad_fn is None
            out = forward(batch, params, cfg, ForwardContext(training=False))
            graph_logits = out[0] if isinstance(out, tuple) else out
            assert graph_logits.parents
            assert_array_equal(logits.values, graph_logits.values)

    @pytest.mark.parametrize("task", ["classification", "segmentation"])
    def test_train_step_frees_its_graph_before_adam(self, task, monkeypatch):
        # Adam's moment arrays can then reuse the step's activations
        cfg = tiny_cfg() if task == "classification" else seg_cfg()
        rng = np.random.default_rng(66)
        params = build_params(cfg, rng)
        geoms = [prepare_cloud(PointCloud(rng.normal(size=(16, 3)),
                                          labels=rng.integers(0, 2, size=16)), cfg)
                 for _ in range(3)]
        forward_name = "classify_batch" if task == "classification" else "segment_batch"
        forward, real_adam = getattr(training, forward_name), training.adam_step
        logits, alive = [], []

        def recorded(*args):
            out = forward(*args)
            logits.append(weakref.ref((out[0] if isinstance(out, tuple) else out).values))
            return out

        def checking(*args):
            alive.append(logits[0]() is not None)
            return real_adam(*args)

        monkeypatch.setattr(training, forward_name, recorded)
        monkeypatch.setattr(training, "adam_step", checking)
        ctx = ForwardContext(training=True, rng=np.random.default_rng(67))
        training._train_step(geoms, np.array([0, 1, 0]), params, cfg, ctx, AdamState(),
                             0.01, "epoch 0")
        assert alive == [False]

    def test_lstm_keeps_no_copy_of_its_input_or_output(self):
        # per step the gates (3h), candidate, previous cell and tanh(cell),
        # plus the h-wide output; a copy of [h_{t-1} | x_t] would add h + d
        steps, rows, h, d = 4, 256, 32, 32
        rng = np.random.default_rng(64)
        x = Tensor(rng.uniform(-1, 1, (steps * rows, d)))
        weight, bias = rng.uniform(-1, 1, (h + d, 4 * h)), np.zeros(4 * h)
        budget = 7.5 * steps * rows * h * 8
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            states = ag.lstm(x, steps, weight, bias)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert states.shape == (steps * rows, h)
        assert held <= budget, f"lstm keeps {held} bytes, budget {budget:.0f}"

    def test_graph_mode_returns_after_a_failing_evaluation(self, monkeypatch):
        cfg = tiny_cfg()
        params = build_params(cfg, np.random.default_rng(62))
        geoms = [prepare_cloud(PointCloud(np.random.default_rng(63).normal(size=(16, 3))), cfg)]

        def failing(*args):
            raise MemoryError

        monkeypatch.setattr(training, "classify_batch", failing)
        with pytest.raises(MemoryError):
            evaluate_classification(geoms, np.array([0]), params, cfg)
        x = Tensor([1.0])
        assert ag.add(x, x).parents == (x, x)


class TestThreads:
    @pytest.mark.parametrize("name", ["desk_classification", "desk_segmentation"])
    def test_desk_training_starts_no_thread(self, name, monkeypatch):
        # every dense stack of the desk configs is one tile on the calling thread
        cfg = load_run_config(CONFIGS / f"{name}.ini", sets=[("train.epochs", "1")])
        monkeypatch.setattr(ag, "_pool", None)
        threads = threading.active_count()
        train(*synthetic_splits(cfg.data, cfg.model.task), cfg.model, cfg.train)
        assert ag._pool is None
        assert threading.active_count() == threads
