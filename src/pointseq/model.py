"""The network: multi-scale area features fed through a recurrent
encoder with an attention decoder, then global aggregation and task heads.

Every forward function accepts a batch laid out as stacked rows, with regions
grouped per cloud and area points grouped per region. Parameters live in a
:class:`ModelParams` registry keyed by layer name.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import BatchNormState, Tensor
from .config import INTERP_SOURCES, ModelConfig, model_config_from_dict, section_text
from .errors import ConfigError, DataError, ShapeError
from .geometry import (
    PointCloud,
    farthest_point_sample,
    group_areas,
    nearest_candidates,
    square_distances,
)

__all__ = [
    "ModelParams",
    "ForwardContext",
    "CloudGeometry",
    "build_params",
    "prepare_cloud",
    "area_pooled_feature",
    "encode_sequence",
    "attention_scores",
    "classify_batch",
    "classify_forward",
    "interpolation_neighbors",
    "interpolation_weights",
    "interpolate_features",
    "segment_batch",
    "save_checkpoint",
    "load_checkpoint",
]

_EXACT_MATCH_DIST = 1e-10


class ModelParams:
    """Named trainable tensors plus the batch-norm running state."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}
        self.batch_norms: dict[str, BatchNormState] = {}

    def add(self, name: str, values) -> Tensor:
        if name in self._tensors:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(values, trainable=True)
        self._tensors[name] = t
        return t

    def add_batch_norm(self, name: str, dim: int) -> BatchNormState:
        state = BatchNormState(dim)
        self.batch_norms[name] = state
        for suffix, t in (("gamma", state.gamma), ("beta", state.beta)):
            key = f"{name}.{suffix}"
            if key in self._tensors:
                raise ValueError(f"duplicate parameter name {key!r}")
            self._tensors[key] = t
        return state

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __len__(self) -> int:
        return len(self._tensors)

    def names(self):
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def clear_grads(self) -> None:
        """Drop every gradient, so the next backward stores fresh ones."""
        for t in self._tensors.values():
            t.grad = None

    def snapshot(self) -> dict:
        """Deep copy of all values and running statistics."""
        return {
            "params": {k: t.values.copy() for k, t in self._tensors.items()},
            "bn": {
                k: (s.running_mean.copy(), s.running_var.copy())
                for k, s in self.batch_norms.items()
            },
        }

    def restore(self, snap: dict) -> None:
        for k, values in snap["params"].items():
            self._tensors[k].values = values.copy()
        for k, (mean, var) in snap["bn"].items():
            self.batch_norms[k].running_mean = mean.copy()
            self.batch_norms[k].running_var = var.copy()


@dataclass
class ForwardContext:
    """Mode flags threaded through a forward pass."""

    training: bool = False
    rng: np.random.Generator | None = None
    bn_momentum: float = ag._BN_MOMENTUM


def _uniform(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    if rng is None:
        return np.zeros(shape)
    return rng.uniform(-bound, bound, shape)


def build_params(cfg: ModelConfig, rng=None) -> ModelParams:
    """Create every parameter for ``cfg``.

    With an rng, weights draw from uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)),
    biases start at zero, and the forget gates of an LSTM that runs more than
    one step at +1; rng consumption follows the fixed creation order below.
    An LSTM that runs one step from a zero state (the decoder, and the
    encoder over a single scale) keeps only the live part of the full
    [hidden + width, 4*hidden] block it draws: the [width, 3*hidden] form of
    :func:`autograd.lstm` with a zero [3*hidden] bias. ``attention_ed`` over
    one scale draws its score weight but keeps none: attention over one step
    weighs it by 1 whatever the scores. ``concat_proj``, and ``centroid_proj``
    unless an LSTM reads it, keep no bias: it would shift every region by one
    constant, which batch norm subtracts. Without an rng all values are zeros
    (checkpoint loading overwrites them).
    """
    p = ModelParams()
    d, h = cfg.feature_dim, cfg.hidden_dim

    def linear(name, fan_in, fan_out, bias=True):
        p.add(f"{name}.weight", _uniform(rng, (fan_in, fan_out), fan_in))
        if bias:
            p.add(f"{name}.bias", np.zeros(fan_out))

    def mlp(prefix, in_dim, widths):
        for i, width in enumerate(widths):
            # batch norm supplies the shift, so these layers carry no bias
            linear(f"{prefix}.{i}", in_dim, width, bias=False)
            p.add_batch_norm(f"{prefix}.{i}", width)
            in_dim = width
        return in_dim

    def lstm(name, in_dim, state_dim, steps):
        weight = _uniform(rng, (state_dim + in_dim, 4 * state_dim), state_dim + in_dim)
        bias = np.zeros(4 * state_dim)
        bias[state_dim : 2 * state_dim] = 1.0  # forget gate opens at init
        if steps == 1:
            # one step from a zero state never uses the recurrent rows or the
            # forget block: keep autograd.lstm's one-step form, a new C-order array
            forget = np.s_[state_dim : 2 * state_dim]
            weight = np.delete(weight[state_dim:], forget, axis=1)
            bias = np.delete(bias, forget)
        p.add(f"{name}.weight", weight)
        p.add(f"{name}.bias", bias)

    recurrent = cfg.aggregator in ("attention_ed", "no_attention", "no_decoder")
    mlp("area_mlp", 3, (*cfg.area_hidden, d))
    linear("centroid_proj", d + 3, d, bias=recurrent)

    if recurrent:
        lstm("encoder", d, h, cfg.num_scales)
        if cfg.aggregator != "no_decoder":
            lstm("decoder", h, h, 1)
        if cfg.aggregator == "no_attention":
            linear("decoder_out_proj", h, d, bias=False)
        if cfg.aggregator == "attention_ed":
            score = _uniform(rng, (h, h), h)  # drawn at one scale too, for the rng stream
            if cfg.num_scales > 1:
                p.add("attn_score.weight", score)
            linear("attn_combine", 2 * h, h, bias=False)
            linear("region_out_proj", h, d, bias=False)
    elif cfg.aggregator == "concat":
        linear("concat_proj", cfg.num_scales * d, d, bias=False)

    mlp("agg_mlp", cfg.region_dim + 3, cfg.agg_widths)

    if cfg.task == "classification":
        linear("head.out", mlp("head", cfg.global_dim, cfg.head_widths), cfg.num_classes)
    else:
        mlp("seg_point_mlp", 3, (cfg.seg_point_width,))
        mlp("seg_prop1", cfg.global_dim + cfg.region_dim, cfg.seg_prop1_widths)
        width = mlp("seg_prop2", cfg.seg_prop1_widths[-1] + cfg.seg_point_width,
                    cfg.seg_prop2_widths)
        linear("seg_head.out", mlp("seg_head", width, cfg.seg_head_widths), cfg.num_parts)
    return p


@dataclass
class CloudGeometry:
    """Geometry of one cloud, precomputed once; it has no parameters.

    Besides the points and labels it keeps only the centroid coordinates and
    int32 indices: ``neighbors`` holds each region's largest area as [m, K]
    point indices in ascending distance order (scale k_t's area is the first
    k_t of a row), and for segmentation ``interp_index`` and
    ``interp_weight`` hold each point's k interpolation sources among the
    centroids and their weights, [n, k] each. The dense blocks the forward
    multiplies are rebuilt per batch; :attr:`relative` and
    :attr:`interp_weights` derive the same values for one cloud.
    """

    points: np.ndarray
    labels: np.ndarray | None
    centroid_coords: np.ndarray
    neighbors: np.ndarray
    scales: tuple[int, ...]
    interp_index: np.ndarray | None = None
    interp_weight: np.ndarray | None = None

    @property
    def relative(self) -> list:
        """Per scale: [m, k_t, 3] centroid-relative area coordinates, views
        of one [m, K, 3] block gathered afresh on each read."""
        areas, _ = _gather_areas([self])
        return [areas[:, :k] for k in self.scales]

    @property
    def interp_weights(self) -> np.ndarray:
        """The dense [n, m] interpolation matrix, built afresh on each read."""
        return _dense_weights(self.interp_index, self.interp_weight, len(self.centroid_coords))


def prepare_cloud(cloud: PointCloud, cfg: ModelConfig) -> CloudGeometry:
    """Sample centroids, group multi-scale areas, and cache their indices.

    The scales are nested, so one [m, K] int32 index block of the largest
    areas holds every scale. A segmentation cloud also caches its
    :func:`interpolation_neighbors`. Nothing of [m, K, 3] or [n, m] size is
    kept: :func:`classify_batch` and :func:`segment_batch` rebuild those per
    batch.
    """
    centroids = farthest_point_sample(cloud, cfg.m)
    neighbors = group_areas(cloud, centroids, cfg.scales[-1]).astype(np.int32)
    index = weight = None
    if cfg.task == "segmentation":
        index, weight = interpolation_neighbors(cloud.points, centroids.coords, INTERP_SOURCES)
    return CloudGeometry(cloud.points, cloud.labels, centroids.coords, neighbors,
                         cfg.scales, index, weight)


def _bn_mlp(x, params: ModelParams, prefix: str, n_layers: int, ctx: ForwardContext,
            dropout: float = 0.0, pool=None):
    """``n_layers`` of matmul, batch norm, relu and dropout (none at ratio 0),
    as one :func:`autograd.bn_mlp` node; ``pool`` passes through."""
    layers = [(params[f"{prefix}.{i}.weight"], params.batch_norms[f"{prefix}.{i}"])
              for i in range(n_layers)]
    return ag.bn_mlp(x, layers, ctx.training, ctx.bn_momentum, dropout, ctx.rng, pool)


def _linear(x, params: ModelParams, name: str) -> Tensor:
    """``x`` times ``name``'s weight, plus its bias where one is kept."""
    y = ag.matmul(x, params[f"{name}.weight"])
    return y + params[f"{name}.bias"] if f"{name}.bias" in params else y


def _gather_areas(geoms):
    """The batch's largest areas, [b*m, K, 3] coordinates relative to their
    centroids, gathered by one take from the cached indices, and the
    [b*m, 3] centroids."""
    points = np.concatenate([g.points for g in geoms], axis=0)
    centroids = np.concatenate([g.centroid_coords for g in geoms], axis=0)
    index = np.concatenate([g.neighbors for g in geoms], axis=0)
    index += np.repeat(np.cumsum([0] + [len(g.points) for g in geoms[:-1]]),
                       len(geoms[0].neighbors))[:, None]
    areas = np.take(points, index, axis=0)
    areas -= centroids[:, None, :]
    return areas, centroids


def _area_sequences(geoms, params, cfg, ctx):
    """Region features at every scale for a batch: one [scales*b*m, d] tensor,
    stacked by scale (scale t's b*m rows follow scale t-1's).

    The scales are nested (each smaller area is a prefix of the largest), so
    only the largest area's points go through the shared point MLP, with the
    scales as its pool prefixes: :func:`autograd.bn_mlp` then takes the batch
    statistics of stacking every scale's copy and max-pools each scale's
    neighborhood. A linear layer folds the centroid coordinates back in.
    """
    # the areas go in as a plain array: the coordinates are a constant of
    # the dense stack
    areas, centroids = _gather_areas(geoms)
    pooled = _bn_mlp(areas.reshape(-1, 3), params, "area_mlp", len(cfg.area_hidden) + 1, ctx,
                     pool=cfg.scales)
    x = ag.concat([pooled, ag.tensor(np.tile(centroids, (cfg.num_scales, 1)))], axis=1)
    return _linear(x, params, "centroid_proj")


def area_pooled_feature(relative_points, params: ModelParams, cfg: ModelConfig, ctx=None) -> Tensor:
    """Pooled area descriptor before the centroid is concatenated back in."""
    ctx = ctx or ForwardContext()
    relative_points = np.asarray(relative_points, dtype=np.float64)
    if relative_points.ndim != 2 or relative_points.shape[0] < 1 or relative_points.shape[1] != 3:
        raise ShapeError(
            f"an area needs at least one relative [k, 3] point row, got {relative_points.shape}"
        )
    pooled = _bn_mlp(relative_points, params, "area_mlp", len(cfg.area_hidden) + 1,
                     ctx, pool=(len(relative_points),))
    return ag.reshape(pooled, (cfg.feature_dim,))


def encode_sequence(sequence, params: ModelParams) -> Tensor:
    """Run the encoder over one region's [steps, feature] sequence and return
    its [steps, hidden] hidden states, one row per step."""
    sequence = ag.tensor(sequence)
    if sequence.ndim != 2 or sequence.shape[0] < 1:
        raise ShapeError(f"encode_sequence expects [steps >= 1, features], got {sequence.shape}")
    return ag.lstm(sequence, sequence.shape[0], params["encoder.weight"], params["encoder.bias"])


def attention_scores(decoder_hidden, states, score_weight) -> Tensor:
    """Attention over encoder steps: softmax of bilinear alignment scores.

    ``decoder_hidden`` is [rows, hidden]; ``states`` stacks one [rows, hidden]
    block per step, as :func:`encode_sequence` returns them, and
    :func:`autograd.attend` works out the steps from the two shapes. The
    result is a [rows, steps] leaf.
    """
    _, alpha = ag.attend(decoder_hidden, states, score_weight)
    return ag.tensor(alpha)


def _region_features(sequences, params: ModelParams, cfg: ModelConfig) -> Tensor:
    """Collapse the scale-stacked sequences into one [rows, region_dim] matrix.

    ``max_pool`` and ``concat`` combine the scales directly. The recurrent
    aggregators run the encoder LSTM over the scales; ``no_decoder`` returns
    its last state. Otherwise one decoder step from a zero state reads that
    last state: ``no_attention`` projects the decoder state, and
    ``attention_ed`` attends from it over every encoder state, then projects
    tanh of the combined context and decoder state.
    """
    steps = cfg.num_scales
    rows = sequences.shape[0] // steps
    if cfg.aggregator in ("max_pool", "concat"):
        per_scale = [ag.slice_axis(sequences, 0, t * rows, (t + 1) * rows)
                     for t in range(steps)]
        if cfg.aggregator == "concat":
            stacked = ag.concat(per_scale, axis=1)
            return _linear(stacked, params, "concat_proj")
        out = per_scale[0]
        for s in per_scale[1:]:
            out = ag.maximum(out, s)
        return out
    states = ag.lstm(sequences, steps, params["encoder.weight"], params["encoder.bias"])
    last = ag.slice_axis(states, 0, (steps - 1) * rows, steps * rows)
    if cfg.aggregator == "no_decoder":
        return last
    dec_hidden = ag.lstm(last, 1, params["decoder.weight"], params["decoder.bias"])
    if cfg.aggregator == "no_attention":
        return _linear(dec_hidden, params, "decoder_out_proj")
    # the softmax over one step is 1: the context is that step's state
    context = (states if steps == 1
               else ag.attend(dec_hidden, states, params["attn_score.weight"])[0])
    combined = ag.tanh(_linear(ag.concat([context, dec_hidden], axis=1), params, "attn_combine"))
    return _linear(combined, params, "region_out_proj")


def _global_features(region_feats, geoms, params, cfg, ctx) -> Tensor:
    centroids = ag.tensor(np.concatenate([g.centroid_coords for g in geoms], axis=0))
    x = ag.concat([region_feats, centroids], axis=1)
    return _bn_mlp(x, params, "agg_mlp", len(cfg.agg_widths), ctx, pool=(cfg.m,))


def _trunk(geoms, params, cfg, ctx):
    sequences = _area_sequences(geoms, params, cfg, ctx)
    regions = _region_features(sequences, params, cfg)
    globals_ = _global_features(regions, geoms, params, cfg, ctx)
    return regions, globals_


def classify_batch(geoms, params: ModelParams, cfg: ModelConfig, ctx=None) -> Tensor:
    """Class logits for a batch of prepared clouds: [batch, num_classes]."""
    ctx = ctx or ForwardContext()
    _, globals_ = _trunk(geoms, params, cfg, ctx)
    x = _bn_mlp(globals_, params, "head", len(cfg.head_widths), ctx, cfg.dropout)
    return _linear(x, params, "head.out")


def classify_forward(cloud: PointCloud, params: ModelParams, cfg: ModelConfig, ctx=None) -> Tensor:
    """Class logits for one cloud (eval mode unless a context says otherwise)."""
    logits = classify_batch([prepare_cloud(cloud, cfg)], params, cfg, ctx)
    return ag.reshape(logits, (cfg.num_classes,))


def interpolation_neighbors(targets, sources, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each target's k interpolation sources and their inverse-square-distance
    weights: [n, k] int32 indices, distinct within a row, and [n, k] weights.

    Rows of weights are convex: non-negative and summing to one. A target
    within 1e-10 of a source copies that source exactly: its row holds the
    first such source with weight 1 and other sources with weight 0. The k
    nearest are the first k in (distance, index) order, the order a stable
    sort of the whole row gives, and their weights are summed in that order:
    a partial selection (:func:`geometry.nearest_candidates`) keeps the k
    candidates, or every candidate tied with the k-th distance, and only
    those are sorted by (distance, index). Coordinates must be finite.
    """
    targets = np.asarray(targets, dtype=np.float64)
    sources = np.asarray(sources, dtype=np.float64)
    s = len(sources)
    if not 1 <= k <= s:
        raise ValueError(f"cannot interpolate from {k} of {s} sources")
    if not (np.isfinite(targets).all() and np.isfinite(sources).all()):
        raise ValueError("interpolation coordinates must be finite")
    d2 = square_distances(targets, np.asfortranarray(sources))
    exact = d2 < _EXACT_MATCH_DIST * _EXACT_MATCH_DIST
    snapped = exact.any(axis=1)
    rows = np.arange(len(targets))[:, None]
    cand = nearest_candidates(d2, k)
    nearest = cand[rows, np.lexsort((cand, d2[rows, cand]), axis=1)[:, :k]]
    # snapped rows get placeholder distances so no division by zero happens
    inv = 1.0 / np.where(snapped[:, None], 1.0, d2[rows, nearest])
    weights = inv / inv.sum(axis=1, keepdims=True)
    if snapped.any():
        # the first exact source takes the place of the k-th nearest in a
        # row that does not hold it already
        first = exact[snapped].argmax(axis=1)[:, None]
        index = nearest[snapped]
        absent = (index != first).all(axis=1)
        index[absent, -1] = first[absent, 0]
        nearest[snapped] = index
        weights[snapped] = index == first
    return nearest.astype(np.int32), weights


def _dense_weights(index, weights, sources: int) -> np.ndarray:
    """The [n, sources] matrix holding each row's ``weights`` at its ``index``
    columns and zero elsewhere; a row's indices must be distinct."""
    dense = np.zeros((len(index), sources))
    dense[np.arange(len(index))[:, None], index] = weights
    return dense


def interpolation_weights(targets, sources, k: int) -> np.ndarray:
    """The dense [targets, sources] form of :func:`interpolation_neighbors`."""
    return _dense_weights(*interpolation_neighbors(targets, sources, k), len(sources))


def interpolate_features(targets, sources, features, k: int) -> np.ndarray:
    """Features carried from ``sources`` onto ``targets``: the
    :func:`interpolation_weights` over the k nearest sources times the
    [sources, width] ``features`` array."""
    return interpolation_weights(targets, sources, k) @ np.asarray(features, dtype=np.float64)


def segment_batch(geoms, params: ModelParams, cfg: ModelConfig, ctx=None):
    """Per-point part logits for a batch: ([sum n_i, num_parts], row counts)."""
    ctx = ctx or ForwardContext()
    regions, globals_ = _trunk(geoms, params, cfg, ctx)
    spread = ag.repeat_rows(globals_, cfg.m)
    x = ag.concat([spread, regions], axis=1)
    x = _bn_mlp(x, params, "seg_prop1", len(cfg.seg_prop1_widths), ctx)

    # each cloud's dense [n_i, m] weights, scattered from its cached k per point
    up = ag.block_matmul([g.interp_weights for g in geoms], x)

    points = np.concatenate([g.points for g in geoms], axis=0)
    skip = _bn_mlp(points, params, "seg_point_mlp", 1, ctx)
    x = ag.concat([up, skip], axis=1)
    x = _bn_mlp(x, params, "seg_prop2", len(cfg.seg_prop2_widths), ctx)
    x = _bn_mlp(x, params, "seg_head", len(cfg.seg_head_widths), ctx, cfg.dropout)
    logits = _linear(x, params, "seg_head.out")
    return logits, [len(g.points) for g in geoms]


# ---------------------------------------------------------------------------
# checkpoints
#
# Layout (all integers little-endian, documented byte-exactly in
# docs/FORMATS.md):
#   magic "PSEQCKPT" | u32 version | u32 header_len | header JSON (utf-8,
#   the model config as {field: config-file text})
#   u64 record_count | records
# record: u32 name_len | name utf-8 | u8 ndim | u64 dims... | f64le values
# Records hold every parameter in registry order, then every batch-norm
# running mean and variance.

_MAGIC = b"PSEQCKPT"
_VERSION = 5


def _records(params: ModelParams):
    for name, t in params.items():
        yield name, t.values
    for name, state in params.batch_norms.items():
        yield f"{name}.running_mean", state.running_mean
        yield f"{name}.running_var", state.running_var


def save_checkpoint(path, params: ModelParams, cfg: ModelConfig) -> None:
    """Write parameters and running stats; loading restores them bit-exactly."""
    header = json.dumps(
        {"format_version": _VERSION, "config": section_text(cfg)},
        sort_keys=True,
    ).encode("utf-8")
    records = list(_records(params))
    with open(path, "wb") as out:
        out.write(_MAGIC)
        out.write(struct.pack("<I", _VERSION))
        out.write(struct.pack("<I", len(header)))
        out.write(header)
        out.write(struct.pack("<Q", len(records)))
        for name, values in records:
            encoded = name.encode("utf-8")
            out.write(struct.pack("<I", len(encoded)))
            out.write(encoded)
            out.write(struct.pack("<B", values.ndim))
            for dim in values.shape:
                out.write(struct.pack("<Q", dim))
            out.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[ModelParams, ModelConfig]:
    """Read a checkpoint written by :func:`save_checkpoint`.

    A file that is not a checkpoint, whose header config fails the checks of
    a config file's [model] section, whose records do not match its config,
    or that holds a non-finite value or a negative running variance raises a
    DataError naming the file (and the key or record).
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc

    view = memoryview(blob)
    pos = 0

    def take(n, what):
        nonlocal pos
        if pos + n > len(view):
            raise DataError(f"corrupt checkpoint {path}: truncated while reading {what}")
        chunk = view[pos : pos + n]
        pos += n
        return chunk

    if bytes(take(len(_MAGIC), "magic")) != _MAGIC:
        raise DataError(f"{path} is not a checkpoint (bad magic)")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != _VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    (header_len,) = struct.unpack("<I", take(4, "header length"))
    try:
        header = json.loads(bytes(take(header_len, "header")).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"corrupt checkpoint {path}: bad header ({exc})") from exc
    if not isinstance(header, dict):
        raise DataError(f"corrupt checkpoint {path}: header is not a JSON object")
    try:
        cfg = model_config_from_dict(header.get("config", {}))
    except ConfigError as exc:
        raise DataError(f"corrupt checkpoint {path}: header config: {exc}") from None
    params = build_params(cfg)
    expected = dict(_records(params))
    (count,) = struct.unpack("<Q", take(8, "record count"))
    if count != len(expected):
        raise DataError(
            f"corrupt checkpoint {path}: {count} records, expected {len(expected)}"
        )
    loaded = []
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4, "record name length"))
        try:
            name = bytes(take(name_len, "record name")).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"corrupt checkpoint {path}: bad record name") from exc
        if name not in expected:
            raise DataError(f"corrupt checkpoint {path}: unexpected record {name!r}")
        (ndim,) = struct.unpack("<B", take(1, "record rank"))
        shape = tuple(
            struct.unpack("<Q", take(8, "record dims"))[0] for _ in range(ndim)
        )
        target = expected.pop(name)
        if shape != target.shape:
            raise DataError(
                f"corrupt checkpoint {path}: record {name!r} has shape {shape}, "
                f"expected {target.shape}"
            )
        nbytes = 8 * int(np.prod(shape, dtype=np.int64)) if shape else 8
        data = np.frombuffer(take(nbytes, f"record {name!r}"), dtype="<f8")
        target[...] = data.reshape(shape)
        loaded.append((name, data))
    if expected:
        raise DataError(
            f"corrupt checkpoint {path}: missing records {sorted(expected)[:3]}"
        )
    if pos != len(view):
        raise DataError(f"corrupt checkpoint {path}: trailing bytes")
    bad = _bad_record(loaded)
    if bad is not None:
        raise DataError(f"corrupt checkpoint {path}: record {bad[0]!r} holds {bad[1]}")
    return params, cfg


# a record is checked in pieces of _CHECK_ELEMENTS values through one small
# flag buffer: a flag array the size of a large record is a fresh mapping whose
# page faults cost several times the check itself
_CHECK_ELEMENTS = 1 << 15


def _bad_record(records):
    """``(name, what)`` for the first of the ``(name, flat values)`` records
    that holds a NaN or infinite value, or a negative running variance; None
    if every record is sound."""
    flags = np.empty(_CHECK_ELEMENTS, dtype=bool)
    for name, values in records:
        for lo in range(0, values.size, _CHECK_ELEMENTS):
            piece = values[lo:lo + _CHECK_ELEMENTS]
            if not np.isfinite(piece, out=flags[:piece.size]).all():
                return name, "a non-finite value"
        if name.endswith(".running_var") and (values < 0.0).any():
            return name, "a negative variance"
    return None
