"""Optimizer, schedule, metric, and training-loop tests."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pointseq import autograd as ag
from pointseq.autograd import Tensor
from pointseq.config import ModelConfig, TrainConfig
from pointseq.errors import ConfigError, DataError
from pointseq.geometry import PointCloud
from pointseq.model import ModelParams, build_params, classify_forward, prepare_cloud
from pointseq.training import (
    AdamState,
    adam_step,
    apply_schedules,
    classification_gradient_check,
    classification_metrics,
    cross_entropy_loss,
    evaluate_classification,
    evaluate_segmentation,
    gradient_check,
    predict_parts,
    shape_miou,
    train,
)


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


class TestSchedules:
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
    def test_network_gradients_match(self):
        worst, report = classification_gradient_check(coords_per_tensor=4)
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

    @pytest.mark.parametrize("op", ["sigmoid", "softmax"])
    def test_detects_small_planted_backward_error(self, monkeypatch, op):
        # a 0.1% error in one op's backward must stay visible above 1e-4,
        # whatever the retries at other step sizes find
        real = getattr(ag, op)

        def faulty(*args, **kwargs):
            out = real(*args, **kwargs)
            grad_fn = out.grad_fn
            out.grad_fn = lambda g: tuple(
                None if gi is None else gi * 1.001 for gi in grad_fn(g)
            )
            return out

        monkeypatch.setattr(ag, op, faulty)
        worst, _ = classification_gradient_check(coords_per_tensor=4)
        assert worst > 1e-4

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

    def test_empty_training_set_rejected(self):
        with pytest.raises(ConfigError):
            train([], [], [], [], tiny_cfg(), TrainConfig(epochs=1))
