"""Optimization, schedules, metrics, and the training loop.

Everything here is deterministic given a seed: one generator drives
initialization, epoch shuffling, and dropout in that order, so two runs with
the same seed produce identical logs and identical parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .config import ModelConfig, TrainConfig
from .errors import ConfigError, DataError
from .geometry import PointCloud
from .model import (
    ForwardContext,
    ModelParams,
    build_params,
    classify_batch,
    prepare_cloud,
    segment_batch,
)

__all__ = [
    "cross_entropy_loss",
    "AdamState",
    "adam_step",
    "apply_schedules",
    "classification_metrics",
    "shape_miou",
    "predict_parts",
    "evaluate_classification",
    "evaluate_segmentation",
    "TrainResult",
    "train",
    "gradient_check",
    "classification_gradient_check",
    "segmentation_gradient_check",
]


def cross_entropy_loss(logits, targets):
    """Mean of -log softmax(logits)[target] over rows.

    For segmentation the rows are points, so the loss averages over points.
    Targets outside [0, classes) raise a data error.
    """
    return ag.cross_entropy_mean(logits, targets)


@dataclass
class AdamState:
    """First and second moment estimates, keyed like the parameters."""

    step: int = 0
    first: dict = field(default_factory=dict)
    second: dict = field(default_factory=dict)


def adam_step(params: ModelParams, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One bias-corrected Adam update from the accumulated gradients."""
    state.step += 1
    t = state.step
    for name, tensor in params.items():
        g = tensor.grad
        if g is None:
            raise ValueError(f"parameter {name!r} has no gradient; "
                             "zero the gradients and run backward first")
        m = state.first.get(name)
        if m is None:
            m = np.zeros_like(tensor.values)
            state.first[name] = m
            state.second[name] = np.zeros_like(tensor.values)
        v = state.second[name]
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        tensor.values -= lr * m_hat / (np.sqrt(v_hat) + eps)


def apply_schedules(tcfg: TrainConfig, epoch: int) -> tuple[float, float]:
    """Stepped learning-rate and batch-norm-momentum values for ``epoch``.

    ``decay_every = 0`` turns both decays off.
    """
    steps = epoch // tcfg.decay_every if tcfg.decay_every else 0
    lr = max(tcfg.lr * tcfg.lr_decay**steps, tcfg.lr_floor)
    momentum = max(tcfg.bn_momentum * tcfg.bn_momentum_decay**steps, tcfg.bn_momentum_floor)
    return lr, momentum


def classification_metrics(pred, true, num_classes: int) -> tuple[float, float]:
    """Instance accuracy and the mean of per-class accuracies.

    Classes absent from ``true`` are left out of the class average.
    """
    pred = np.asarray(pred)
    true = np.asarray(true)
    if pred.shape != true.shape:
        raise ValueError(f"prediction shape {pred.shape} != label shape {true.shape}")
    instance = float(np.mean(pred == true))
    per_class = []
    for c in range(num_classes):
        mask = true == c
        if mask.any():
            per_class.append(float(np.mean(pred[mask] == c)))
    return instance, float(np.mean(per_class))


def shape_miou(pred, true, parts) -> float:
    """Mean intersection-over-union across ``parts`` for one shape.

    A part missing from both the prediction and the labels scores 1.
    """
    pred = np.asarray(pred)
    true = np.asarray(true)
    ious = []
    for part in parts:
        in_pred = pred == part
        in_true = true == part
        union = np.logical_or(in_pred, in_true).sum()
        if union == 0:
            ious.append(1.0)
        else:
            ious.append(float(np.logical_and(in_pred, in_true).sum() / union))
    return float(np.mean(ious))


def predict_parts(logit_rows: np.ndarray, part_range=None) -> np.ndarray:
    """Per-row argmax, restricted to ``part_range = (start, stop)`` if given."""
    if part_range is None:
        return np.argmax(logit_rows, axis=1)
    start, stop = part_range
    return start + np.argmax(logit_rows[:, start:stop], axis=1)


def _batches(n: int, size: int):
    for lo in range(0, n, size):
        yield np.arange(lo, min(lo + size, n))


def evaluate_classification(geoms, labels, params: ModelParams, cfg: ModelConfig,
                            batch_size: int = 16) -> dict:
    """Loss and accuracies over prepared clouds, in evaluation mode."""
    labels = np.asarray(labels)
    ctx = ForwardContext(training=False)
    total_loss = 0.0
    pred = np.empty(len(geoms), dtype=np.int64)
    for idx in _batches(len(geoms), batch_size):
        logits = classify_batch([geoms[i] for i in idx], params, cfg, ctx)
        loss = cross_entropy_loss(logits, labels[idx])
        total_loss += float(loss.values) * len(idx)
        pred[idx] = np.argmax(logits.values, axis=1)
    instance, class_avg = classification_metrics(pred, labels, cfg.num_classes)
    return {"loss": total_loss / len(geoms), "instance_acc": instance, "class_acc": class_avg}


def evaluate_segmentation(geoms, params: ModelParams, cfg: ModelConfig,
                          batch_size: int = 8, part_ranges=None, categories=None) -> dict:
    """Loss, point accuracy, and mean per-shape IoU in evaluation mode.

    ``part_ranges`` optionally restricts each cloud's prediction (and its IoU
    average) to a ``(start, stop)`` slice of the part ids; labels outside a
    cloud's range raise a data error. With ``categories`` (one name per
    cloud) the result also carries a per-category IoU breakdown; the overall
    number stays the unweighted mean over shapes.
    """
    for i, g in enumerate(geoms):
        lo, hi = (0, cfg.num_parts) if part_ranges is None else part_ranges[i]
        if g.labels.min() < lo or g.labels.max() >= hi:
            raise DataError(
                f"cloud {i} has part labels outside its category range [{lo}, {hi})"
            )
    ctx = ForwardContext(training=False)
    total_loss = 0.0
    total_points = 0
    correct = 0
    ious = []
    for idx in _batches(len(geoms), batch_size):
        batch = [geoms[i] for i in idx]
        logits, counts = segment_batch(batch, params, cfg, ctx)
        labels = np.concatenate([g.labels for g in batch])
        loss = cross_entropy_loss(logits, labels)
        total_loss += float(loss.values) * len(labels)
        total_points += len(labels)
        offset = 0
        for g, i, n in zip(batch, idx, counts):
            rows = logits.values[offset : offset + n]
            offset += n
            part_range = None if part_ranges is None else part_ranges[i]
            pred = predict_parts(rows, part_range)
            correct += int(np.sum(pred == g.labels))
            parts = range(cfg.num_parts) if part_range is None else range(*part_range)
            ious.append(shape_miou(pred, g.labels, parts))
    result = {
        "loss": total_loss / total_points,
        "point_acc": correct / total_points,
        "mean_iou": float(np.mean(ious)),
    }
    if categories is not None:
        by_cat = {}
        for name, iou in zip(categories, ious):
            by_cat.setdefault(name, []).append(iou)
        result["category_iou"] = {k: float(np.mean(v)) for k, v in sorted(by_cat.items())}
    return result


@dataclass
class TrainResult:
    """Final parameters plus the per-epoch history and the best snapshot."""

    params: ModelParams
    cfg: ModelConfig
    history: list
    log_lines: list
    best_epoch: int
    best_metric: float
    best_snapshot: dict


def _format_line(epoch: int, stats: dict) -> str:
    parts = [f"epoch={epoch}"]
    parts += [f"{k}={v:.12g}" for k, v in stats.items()]
    return " ".join(parts)


def train(train_clouds, train_labels, test_clouds, test_labels,
          cfg: ModelConfig, tcfg: TrainConfig, log=None) -> TrainResult:
    """Train from scratch and return the result with per-epoch history.

    For classification ``*_labels`` are per-cloud class ids; for segmentation
    they are ignored and per-point labels ride in the clouds themselves.
    """
    if not train_clouds:
        raise ConfigError("training requires at least one cloud")
    rng = np.random.default_rng(tcfg.seed)
    params = build_params(cfg, rng)
    adam = AdamState()

    train_geoms = [prepare_cloud(c, cfg) for c in train_clouds]
    test_geoms = [prepare_cloud(c, cfg) for c in test_clouds]
    classification = cfg.task == "classification"
    if classification:
        train_labels = np.asarray(train_labels)
        test_labels = np.asarray(test_labels)

    history = []
    lines = []
    best_epoch = -1
    best_metric = -np.inf
    best_snapshot = None

    for epoch in range(tcfg.epochs):
        lr, bn_momentum = apply_schedules(tcfg, epoch)
        order = rng.permutation(len(train_geoms))
        epoch_loss = 0.0
        denom = 0
        for idx in _batches(len(order), tcfg.batch_size):
            batch = order[idx]
            ctx = ForwardContext(training=True, rng=rng, bn_momentum=bn_momentum)
            geoms = [train_geoms[i] for i in batch]
            if classification:
                logits = classify_batch(geoms, params, cfg, ctx)
                loss = cross_entropy_loss(logits, train_labels[batch])
                weight = len(batch)
            else:
                logits, _ = segment_batch(geoms, params, cfg, ctx)
                labels = np.concatenate([g.labels for g in geoms])
                loss = cross_entropy_loss(logits, labels)
                weight = len(labels)
            params.zero_grads()
            ag.backward(loss)
            adam_step(params, adam, lr)
            epoch_loss += float(loss.values) * weight
            denom += weight

        if classification:
            tr = evaluate_classification(train_geoms, train_labels, params, cfg, tcfg.batch_size)
            te = evaluate_classification(test_geoms, test_labels, params, cfg, tcfg.batch_size)
            stats = {
                "loss": epoch_loss / denom,
                "train_acc": tr["instance_acc"], "train_cacc": tr["class_acc"],
                "test_acc": te["instance_acc"], "test_cacc": te["class_acc"],
                "lr": lr, "bn_momentum": bn_momentum,
            }
            metric = te["instance_acc"]
        else:
            tr = evaluate_segmentation(train_geoms, params, cfg, tcfg.batch_size)
            te = evaluate_segmentation(test_geoms, params, cfg, tcfg.batch_size)
            stats = {
                "loss": epoch_loss / denom,
                "train_acc": tr["point_acc"], "train_miou": tr["mean_iou"],
                "test_acc": te["point_acc"], "test_miou": te["mean_iou"],
                "lr": lr, "bn_momentum": bn_momentum,
            }
            metric = te["mean_iou"]

        # evaluation-mode losses ride in the history (not the log) so the
        # monotone-convergence property can be checked without dropout noise
        history.append({"epoch": epoch, **stats,
                        "train_loss": tr["loss"], "test_loss": te["loss"]})
        line = _format_line(epoch, stats)
        lines.append(line)
        if log is not None:
            log(line)
        if metric > best_metric:
            best_metric = metric
            best_epoch = epoch
            best_snapshot = params.snapshot()

    if best_snapshot is None:
        best_snapshot = params.snapshot()
        best_epoch = 0
        best_metric = float("nan")
    return TrainResult(params, cfg, history, lines, best_epoch, best_metric, best_snapshot)


# ---------------------------------------------------------------------------
# finite-difference gradient verification


def gradient_check(params: ModelParams, loss_fn, coords_per_tensor: int = 20,
                   step: float = 1e-5, seed: int = 0) -> tuple[float, dict]:
    """Compare backward gradients against central differences.

    ``loss_fn`` must rebuild the loss from the current parameter values and be
    deterministic (fix any dropout generator inside it). Up to
    ``coords_per_tensor`` coordinates are probed per tensor; returns the worst
    relative error and a per-tensor breakdown.

    A coordinate that fails at ``step`` is probed again at ``step * 10`` and
    then at ``step / 10``, and keeps its best reading. Each retry answers one
    artifact of the central difference: on small gradients the roundoff in
    the loss difference grows as 1/h and passes at the larger step, and a
    probe interval that straddles a max-pool or relu kink passes at the
    smaller one. A genuine backward error is step-independent and fails at
    all three. When both readings of a probe sit below 1e-8 the coordinate
    counts as a matching zero: batch norm cancels some shift parameters
    exactly, and the ratio of finite-difference noise to the 1e-6 floor would
    otherwise dominate the report.
    """
    rng = np.random.default_rng(seed)
    params.zero_grads()
    ag.backward(loss_fn())

    def central_difference(flat, i, h):
        original = flat[i]
        flat[i] = original + h
        hi = float(loss_fn().values)
        flat[i] = original - h
        lo = float(loss_fn().values)
        flat[i] = original
        return (hi - lo) / (2 * h)

    worst = 0.0
    report = {}
    for name, tensor in params.items():
        flat = tensor.values.reshape(-1)
        grad = tensor.grad.reshape(-1)
        if flat.size <= coords_per_tensor:
            picks = np.arange(flat.size)
        else:
            picks = np.sort(rng.choice(flat.size, coords_per_tensor, replace=False))
        tensor_worst = 0.0
        for i in picks:
            analytic = grad[i]
            rel = np.inf
            for h in (step, step * 10, step / 10):
                numeric = central_difference(flat, i, h)
                if abs(analytic) < 1e-8 and abs(numeric) < 1e-8:
                    rel = 0.0
                else:
                    rel = min(rel, abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6))
                if rel < 2.5e-5:
                    break
            tensor_worst = max(tensor_worst, rel)
        report[name] = tensor_worst
        worst = max(worst, tensor_worst)
    return worst, report


def _gradcheck_cls_setup(seed: int = 0):
    cfg = ModelConfig(
        task="classification", num_classes=3, m=4, scales=(2, 4),
        feature_dim=8, hidden_dim=8, area_hidden=(8, 8),
        agg_widths=(16, 16), head_widths=(16, 8),
    )
    rng = np.random.default_rng(seed)
    params = build_params(cfg, rng)
    geoms = [prepare_cloud(PointCloud(rng.normal(size=(16, 3))), cfg) for _ in range(3)]
    labels = np.array([0, 1, 2])
    return cfg, params, geoms, labels


def classification_gradient_check(coords_per_tensor: int = 20, seed: int = 0):
    """Worst relative gradient error of the classification network."""
    cfg, params, geoms, labels = _gradcheck_cls_setup(seed)

    def loss_fn():
        ctx = ForwardContext(training=True, rng=np.random.default_rng(seed + 123))
        return ag.cross_entropy_mean(classify_batch(geoms, params, cfg, ctx), labels)

    return gradient_check(params, loss_fn, coords_per_tensor, seed=seed)


def _gradcheck_seg_setup(seed: int = 0):
    cfg = ModelConfig(
        task="segmentation", num_parts=2, m=4, scales=(2, 4),
        feature_dim=8, hidden_dim=8, area_hidden=(8, 8),
        agg_widths=(16, 16), seg_point_width=8,
        seg_prop1_widths=(16, 8), seg_prop2_widths=(16, 8), seg_head_widths=(8,),
    )
    rng = np.random.default_rng(seed)
    params = build_params(cfg, rng)
    geoms = [
        prepare_cloud(
            PointCloud(rng.normal(size=(16, 3)), labels=rng.integers(0, 2, size=16)), cfg
        )
        for _ in range(2)
    ]
    return cfg, params, geoms


def segmentation_gradient_check(coords_per_tensor: int = 20, seed: int = 0):
    """Worst relative gradient error of the segmentation network."""
    cfg, params, geoms = _gradcheck_seg_setup(seed)
    labels = np.concatenate([g.labels for g in geoms])

    def loss_fn():
        ctx = ForwardContext(training=True, rng=np.random.default_rng(seed + 123))
        logits, _ = segment_batch(geoms, params, cfg, ctx)
        return ag.cross_entropy_mean(logits, labels)

    return gradient_check(params, loss_fn, coords_per_tensor, seed=seed)
