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
    "network_gradient_check",
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


# Adam works through the parameters in chunks of at most _ADAM_CHUNK elements,
# sized to stay in cache
_ADAM_CHUNK = 1 << 15

# Adam's moment decay rates and the offset of its denominator
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8

# the learning-rate floor; batch-norm momentum's factor per decay step and
# floor (its start is autograd._BN_MOMENTUM)
_LR_FLOOR = 1e-5
_BN_MOMENTUM_DECAY, _BN_MOMENTUM_FLOOR = 0.5, 0.01


def _adam_chunks(params: ModelParams, state: AdamState) -> list:
    """The parameters cut into chunks of at most ``_ADAM_CHUNK`` elements.

    Each parameter is cut on its own, every ``_ADAM_CHUNK`` elements of its
    flat values, so no chunk spans two parameters. A chunk is one ``(name,
    values, first, second, grad)`` tuple: flat views of the parameter's
    values and moments and of its gradient over the chunk's element range,
    the whole of each for a parameter that fits in one chunk. Moments start
    at zero.
    """
    chunks = []
    for name, tensor in params.items():
        values, g = tensor.values, tensor.grad
        if g is None:
            raise ValueError(f"parameter {name!r} has no gradient; run backward first")
        if not values.flags.c_contiguous:
            # ravel() copies a strided array, and the update must land in place
            values = tensor.values = np.ascontiguousarray(values)
        m = state.first.get(name)
        if m is None:
            m = state.first[name] = np.zeros(values.shape)
            state.second[name] = np.zeros(values.shape)
        flat = (values.ravel(), m.ravel(), state.second[name].ravel(), g.ravel())
        chunks += [(name, *(a[lo:lo + _ADAM_CHUNK] for a in flat))
                   for lo in range(0, values.size, _ADAM_CHUNK)]
    return chunks


def adam_step(params: ModelParams, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update from the accumulated gradients.

    Every gradient is checked first: a non-finite one raises
    ``FloatingPointError`` naming its parameter before any parameter, moment
    or the step count moves.

    The check and the update work through each parameter in chunks of at
    most 2**15 elements (see :func:`_adam_chunks`), so each chunk stays in
    cache. Both work in the scratch buffers of the thread that runs the
    chunk (``autograd._scratch``) and allocate nothing per parameter. Every
    element goes through the same operations in the same order as in a
    whole-tensor update, so the result is the same bits however the chunks
    fall. A model of 2**18 or more parameters has each chunk worked as a
    task of the tile scheduler (``autograd._chunk_tiles``); a smaller one
    runs on the calling thread and starts no thread.
    """
    chunks = _adam_chunks(params, state)
    runs = ag._chunk_tiles(len(chunks), sum(len(g) for *_, g in chunks))

    finite = np.ones(len(chunks), dtype=bool)

    def check(r):
        for k in range(*runs[r]):
            g = chunks[k][-1]
            finite[k] = np.isfinite(g, out=ag._scratch(0, len(g), dtype=bool)[:, 0]).all()

    ag._each_tile(len(runs), check)
    if not finite.all():
        bad = chunks[int(np.argmin(finite))][0]
        raise FloatingPointError(f"parameter {bad!r} has a non-finite gradient")

    state.step += 1
    t = state.step
    first_share, second_share = 1 - _BETA1, 1 - _BETA2
    first_unbias, second_unbias = 1 - _BETA1**t, 1 - _BETA2**t

    def update(r):
        for _, values, m, v, g in chunks[slice(*runs[r])]:
            step, root = ag._scratch(0, len(g))[:, 0], ag._scratch(1, len(g))[:, 0]
            m *= _BETA1
            m += np.multiply(g, first_share, out=step)
            v *= _BETA2
            np.multiply(g, second_share, out=step)
            step *= g
            v += step
            # lr * m_hat / (sqrt(v_hat) + eps)
            np.divide(m, first_unbias, out=step)
            step *= lr
            np.divide(v, second_unbias, out=root)
            np.sqrt(root, out=root)
            root += _ADAM_EPS
            step /= root
            values -= step

    ag._each_tile(len(runs), update)


def apply_schedules(tcfg: TrainConfig, epoch: int) -> tuple[float, float]:
    """Stepped learning-rate and batch-norm-momentum values for ``epoch``.

    ``decay_every = 0`` turns both decays off.
    """
    steps = epoch // tcfg.decay_every if tcfg.decay_every else 0
    lr = max(tcfg.lr * tcfg.lr_decay**steps, _LR_FLOOR)
    momentum = max(ag._BN_MOMENTUM * _BN_MOMENTUM_DECAY**steps, _BN_MOMENTUM_FLOOR)
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
    """Loss and accuracies over prepared clouds, in evaluation mode.

    The forward builds no graph (see :func:`autograd.no_grad`).
    """
    labels = np.asarray(labels)
    ctx = ForwardContext(training=False)
    total_loss = 0.0
    pred = np.empty(len(geoms), dtype=np.int64)
    with ag.no_grad():
        for idx in _batches(len(geoms), batch_size):
            logits = classify_batch([geoms[i] for i in idx], params, cfg, ctx)
            total_loss += float(cross_entropy_loss(logits, labels[idx]).values) * len(idx)
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
    number stays the unweighted mean over shapes. The forward builds no graph.
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
    with ag.no_grad():
        for idx in _batches(len(geoms), batch_size):
            batch = [geoms[i] for i in idx]
            logits, counts = segment_batch(batch, params, cfg, ctx)
            labels = np.concatenate([g.labels for g in batch])
            total_loss += float(cross_entropy_loss(logits, labels).values) * len(labels)
            total_points += len(labels)
            offset = 0
            for g, i, n in zip(batch, idx, counts):
                part_range = None if part_ranges is None else part_ranges[i]
                pred = predict_parts(logits.values[offset : offset + n], part_range)
                offset += n
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


def _batch_logits(geoms, labels, params: ModelParams, cfg: ModelConfig, ctx: ForwardContext):
    """A batch's logits and the targets of its loss: ``labels``, one class id
    per cloud, for classification; the clouds' own per-point labels for
    segmentation."""
    if cfg.task == "classification":
        return classify_batch(geoms, params, cfg, ctx), labels
    logits, _ = segment_batch(geoms, params, cfg, ctx)
    return logits, np.concatenate([g.labels for g in geoms])


def _train_step(geoms, labels, params: ModelParams, cfg: ModelConfig, ctx: ForwardContext,
                adam: AdamState, lr: float, where: str) -> float:
    """Forward, backward and one Adam update for one batch; returns its loss.

    The step's graph is freed before the Adam update, so Adam's arrays can
    reuse its activations. A non-finite loss or parameter gradient raises a
    ConfigError before any parameter moves. ``labels`` are per-cloud class
    ids; segmentation reads the clouds' own.
    """
    # a diverging step overflows long before its loss is checked; the check
    # below reports it, so NumPy's floating-point warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        logits, targets = _batch_logits(geoms, labels, params, cfg, ctx)
        loss = cross_entropy_loss(logits, targets)
        params.clear_grads()
        ag.backward(loss)
    diverged = (f"training diverged at {where}: the loss or a parameter gradient "
                "is not finite; lower train.lr")
    if not np.isfinite(loss.values):
        raise ConfigError(diverged)
    value = float(loss.values)
    del logits, loss
    try:
        adam_step(params, adam, lr)
    except FloatingPointError as exc:
        raise ConfigError(diverged) from exc
    return value


def train(train_clouds, train_labels, test_clouds, test_labels,
          cfg: ModelConfig, tcfg: TrainConfig, log=None, part_ranges=None) -> TrainResult:
    """Train from scratch and return the result with per-epoch history.

    For classification ``*_labels`` are per-cloud class ids. For
    segmentation the per-point labels ride in the clouds themselves, and
    ``*_labels`` are per-cloud category ids that index ``part_ranges``, each
    category's ``(start, stop)`` part ids: every epoch scores each cloud
    within its category's range, as :func:`evaluate_segmentation` does with
    ``part_ranges``. Without ``part_ranges`` every part counts, and the
    labels are ignored.

    Every cloud is prepared once, before the first epoch, and kept for the
    whole run: besides its points and labels a :class:`model.CloudGeometry`
    holds its centroids, its [m, K] int32 area indices and, for
    segmentation, its [n, 3] int32 interpolation indices and float64
    weights (0.20 MiB for a 1024-point cloud at m=384, K=128). The dense
    area and interpolation blocks are rebuilt for each batch.
    """
    if not train_clouds or not test_clouds:
        raise ConfigError("training requires at least one train and one test cloud")
    rng = np.random.default_rng(tcfg.seed)
    params = build_params(cfg, rng)
    adam = AdamState()

    train_geoms = [prepare_cloud(c, cfg) for c in train_clouds]
    test_geoms = [prepare_cloud(c, cfg) for c in test_clouds]
    classification = cfg.task == "classification"
    if classification:
        train_labels = np.asarray(train_labels)
        test_labels = np.asarray(test_labels)
    elif part_ranges is not None:
        train_ranges = [part_ranges[c] for c in train_labels]
        test_ranges = [part_ranges[c] for c in test_labels]
    else:
        train_ranges = test_ranges = None

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
        for b, idx in enumerate(_batches(len(order), tcfg.batch_size)):
            batch = order[idx]
            ctx = ForwardContext(training=True, rng=rng, bn_momentum=bn_momentum)
            geoms = [train_geoms[i] for i in batch]
            labels = train_labels[batch] if classification else None
            where = f"epoch {epoch}, batch {b} (train.lr={tcfg.lr!r})"
            loss = _train_step(geoms, labels, params, cfg, ctx, adam, lr, where)
            weight = len(batch) if classification else sum(len(g.points) for g in geoms)
            epoch_loss += loss * weight
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
            tr = evaluate_segmentation(train_geoms, params, cfg, tcfg.batch_size, train_ranges)
            te = evaluate_segmentation(test_geoms, params, cfg, tcfg.batch_size, test_ranges)
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

    return TrainResult(params, cfg, history, lines, best_epoch, best_metric, best_snapshot)


# ---------------------------------------------------------------------------
# finite-difference gradient verification

# the central difference's first step
_FD_STEP = 1e-5


def gradient_check(params: ModelParams, loss_fn, coords_per_tensor: int = 20,
                   seed: int = 0) -> tuple[float, dict]:
    """Compare backward gradients against central differences.

    ``loss_fn`` must rebuild the loss from the current parameter values and be
    deterministic (fix any dropout generator inside it). Up to
    ``coords_per_tensor`` coordinates are probed per tensor; returns the worst
    relative error and a per-tensor breakdown.

    A coordinate that fails at ``_FD_STEP`` is probed again at ten times that
    step and then at a tenth of it, and keeps its best reading. Each retry
    answers one artifact of the central difference: on small gradients the
    roundoff in the loss difference grows as 1/h and passes at the larger
    step, and a probe interval that straddles a max-pool or relu kink passes
    at the smaller one. A genuine backward error is step-independent and fails at
    all three. When both readings of a probe sit below 1e-8 the coordinate
    counts as a matching zero: batch norm cancels some shift parameters
    exactly, and the ratio of finite-difference noise to the 1e-6 floor would
    otherwise dominate the report.
    """
    rng = np.random.default_rng(seed)
    params.clear_grads()
    ag.backward(loss_fn())

    def central_difference(values, index, h):
        original = values[index]
        values[index] = original + h
        hi = float(loss_fn().values)
        values[index] = original - h
        lo = float(loss_fn().values)
        values[index] = original
        return (hi - lo) / (2 * h)

    worst = 0.0
    report = {}
    for name, tensor in params.items():
        # coordinate i is the i-th in C order, probed in the parameter's own
        # memory: a flattening reshape of a non-contiguous array is a copy
        values = tensor.values
        if values.size <= coords_per_tensor:
            picks = np.arange(values.size)
        else:
            picks = np.sort(rng.choice(values.size, coords_per_tensor, replace=False))
        tensor_worst = 0.0
        for i in picks:
            index = np.unravel_index(i, values.shape)
            analytic = tensor.grad[index]
            rel = np.inf
            for h in (_FD_STEP, _FD_STEP * 10, _FD_STEP / 10):
                numeric = central_difference(values, index, h)
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


def _gradcheck_setup(task: str, seed: int = 0):
    """A tiny ``task`` model, its parameters and a batch to check them on:
    ``(cfg, params, geoms, labels)``, with ``labels`` None for segmentation,
    which reads the clouds' own. One generator draws the parameters, then
    each cloud's points (and part labels)."""
    shared = dict(task=task, m=4, scales=(2, 4), feature_dim=8, hidden_dim=8,
                  area_hidden=(8, 8), agg_widths=(16, 16))
    segmentation = task == "segmentation"
    if segmentation:
        cfg = ModelConfig(num_parts=2, seg_point_width=8, seg_prop1_widths=(16, 8),
                          seg_prop2_widths=(16, 8), seg_head_widths=(8,), **shared)
    else:
        cfg = ModelConfig(num_classes=3, head_widths=(16, 8), **shared)
    rng = np.random.default_rng(seed)
    params = build_params(cfg, rng)
    geoms = [
        prepare_cloud(PointCloud(rng.normal(size=(16, 3)),
                                 labels=rng.integers(0, 2, size=16) if segmentation else None),
                      cfg)
        for _ in range(2 if segmentation else 3)
    ]
    return cfg, params, geoms, None if segmentation else np.array([0, 1, 2])


def network_gradient_check(task: str, coords_per_tensor: int = 20, seed: int = 0):
    """Worst relative gradient error of the tiny ``task`` network, and its
    per-tensor report (see :func:`gradient_check`)."""
    cfg, params, geoms, labels = _gradcheck_setup(task, seed)

    def loss_fn():
        ctx = ForwardContext(training=True, rng=np.random.default_rng(seed + 123))
        return cross_entropy_loss(*_batch_logits(geoms, labels, params, cfg, ctx))

    return gradient_check(params, loss_fn, coords_per_tensor, seed=seed)
