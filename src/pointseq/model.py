"""The network: multi-scale area features fed through a recurrent
encoder with an attention decoder, then global aggregation and task heads.

Every forward function accepts a batch laid out as stacked rows, with regions
grouped per cloud and area points grouped per region. Parameters live in a
:class:`ModelParams` registry keyed by layer name.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, fields

import numpy as np

from . import autograd as ag
from .autograd import BatchNormState, Tensor
from .config import ModelConfig
from .errors import DataError, ShapeError
from .geometry import PointCloud, ScaleSpec, farthest_point_sample, group_areas

__all__ = [
    "ModelParams",
    "ForwardContext",
    "CloudGeometry",
    "EncoderTrace",
    "build_params",
    "prepare_cloud",
    "area_pooled_feature",
    "lstm_step",
    "encode_sequence",
    "attention_scores",
    "classify_batch",
    "classify_forward",
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

    def add_batch_norm(self, name: str, dim: int, eps: float) -> BatchNormState:
        state = BatchNormState(dim, eps)
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

    def zero_grads(self) -> None:
        for t in self._tensors.values():
            t.zero_grad()

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
    bn_momentum: float = 0.5


def _uniform(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    if rng is None:
        return np.zeros(shape)
    return rng.uniform(-bound, bound, shape)


def build_params(cfg: ModelConfig, rng=None) -> ModelParams:
    """Create every parameter for ``cfg``.

    With an rng, weights draw from uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)),
    biases start at zero and forget gates at +1; rng consumption follows the
    fixed creation order below. Without an rng all values are zeros
    (checkpoint loading overwrites them).
    """
    p = ModelParams()
    d, h = cfg.feature_dim, cfg.hidden_dim

    def linear(name, fan_in, fan_out, bias=True):
        p.add(f"{name}.weight", _uniform(rng, (fan_in, fan_out), fan_in))
        if bias:
            p.add(f"{name}.bias", np.zeros(fan_out))

    def bn_layer(prefix, i, fan_in, width):
        # batch norm supplies the shift, so these layers carry no bias
        linear(f"{prefix}.{i}", fan_in, width, bias=False)
        p.add_batch_norm(f"{prefix}.{i}", width, cfg.bn_eps)

    def mlp(prefix, in_dim, widths):
        for i, width in enumerate(widths):
            bn_layer(prefix, i, in_dim, width)
            in_dim = width

    def lstm(name, in_dim, state_dim):
        p.add(f"{name}.weight", _uniform(rng, (state_dim + in_dim, 4 * state_dim), state_dim + in_dim))
        bias = np.zeros(4 * state_dim)
        bias[state_dim : 2 * state_dim] = 1.0  # forget gate opens at init
        p.add(f"{name}.bias", bias)

    mlp("area_mlp", 3, (*cfg.area_hidden, d))
    linear("centroid_proj", d + 3, d)

    if cfg.aggregator in ("attention_ed", "no_attention", "no_decoder"):
        lstm("encoder", d, h)
        if cfg.aggregator != "no_decoder":
            lstm("decoder", h, h)
        if cfg.aggregator == "no_attention":
            linear("decoder_out_proj", h, d, bias=False)
        if cfg.aggregator == "attention_ed":
            linear("attn_score", h, h, bias=False)
            linear("attn_combine", 2 * h, h, bias=False)
            linear("region_out_proj", h, d, bias=False)
    elif cfg.aggregator == "concat":
        linear("concat_proj", cfg.num_scales * d, d)

    mlp("agg_mlp", cfg.region_dim + 3, cfg.agg_widths)

    if cfg.task == "classification":
        width = cfg.global_dim
        for i, w in enumerate(cfg.head_widths):
            bn_layer("head", i, width, w)
            width = w
        linear("head.out", width, cfg.num_classes)
    else:
        mlp("seg_point_mlp", 3, (cfg.seg_point_width,))
        mlp("seg_prop1", cfg.global_dim + cfg.region_dim, cfg.seg_prop1_widths)
        mlp("seg_prop2", cfg.seg_prop1_widths[-1] + cfg.seg_point_width, cfg.seg_prop2_widths)
        width = cfg.seg_prop2_widths[-1]
        for i, w in enumerate(cfg.seg_head_widths):
            bn_layer("seg_head", i, width, w)
            width = w
        linear("seg_head.out", width, cfg.num_parts)
    return p


@dataclass
class CloudGeometry:
    """Geometry of one cloud, precomputed once; it has no parameters."""

    points: np.ndarray
    labels: np.ndarray | None
    centroid_coords: np.ndarray
    relative: list  # per scale: [m * k_t, 3] centroid-relative area points
    interp_weights: np.ndarray | None = None


def prepare_cloud(cloud: PointCloud, cfg: ModelConfig) -> CloudGeometry:
    """Sample centroids, group multi-scale areas, and cache relative coords."""
    centroids = farthest_point_sample(cloud, cfg.m)
    grouping = group_areas(cloud, centroids, ScaleSpec(cfg.scales))
    relative = []
    for k in cfg.scales:
        idx = grouping.neighbor_indices[:, :k]
        rel = cloud.points[idx] - centroids.coords[:, None, :]
        relative.append(rel.reshape(cfg.m * k, 3))
    interp = None
    if cfg.task == "segmentation":
        interp = interpolation_weights(cloud.points, centroids.coords, cfg.interp_k)
    return CloudGeometry(cloud.points, cloud.labels, centroids.coords, relative, interp)


def _bn_mlp(x, params: ModelParams, prefix: str, n_layers: int, ctx: ForwardContext):
    for i in range(n_layers):
        x = ag.matmul(x, params[f"{prefix}.{i}.weight"])
        x = ag.batch_norm(
            x, params.batch_norms[f"{prefix}.{i}"], training=ctx.training, momentum=ctx.bn_momentum
        )
        x = ag.relu(x)
    return x


def _area_sequences(geoms, params, cfg, ctx):
    """Per-scale region features for a batch: a list of [b*m, d] tensors.

    All scales' area points go through the shared point MLP in one stack, a
    per-area max pool collapses each neighborhood, and a linear layer folds
    the centroid coordinates back in.
    """
    stacked = ag.tensor(np.concatenate(
        [g.relative[t] for t in range(cfg.num_scales) for g in geoms], axis=0
    ))
    feats = _bn_mlp(stacked, params, "area_mlp", len(cfg.area_hidden) + 1, ctx)
    centroids = ag.tensor(np.concatenate([g.centroid_coords for g in geoms], axis=0))
    rows_per_scale = [len(geoms) * cfg.m * k for k in cfg.scales]
    out = []
    offset = 0
    for t, k in enumerate(cfg.scales):
        block = ag.slice_axis(feats, 0, offset, offset + rows_per_scale[t])
        offset += rows_per_scale[t]
        pooled, _ = ag.pool_rows_max(block, k)
        with_centroid = ag.concat([pooled, centroids], axis=1)
        s_t = ag.matmul(with_centroid, params["centroid_proj.weight"]) + params["centroid_proj.bias"]
        out.append(s_t)
    return out


def area_pooled_feature(relative_points, params: ModelParams, cfg: ModelConfig, ctx=None) -> Tensor:
    """Pooled area descriptor before the centroid is concatenated back in."""
    ctx = ctx or ForwardContext()
    relative_points = np.asarray(relative_points, dtype=np.float64)
    if relative_points.ndim != 2 or relative_points.shape[0] < 1 or relative_points.shape[1] != 3:
        raise ShapeError(
            f"an area needs at least one relative [k, 3] point row, got {relative_points.shape}"
        )
    feats = _bn_mlp(ag.tensor(relative_points), params, "area_mlp", len(cfg.area_hidden) + 1, ctx)
    pooled, _ = ag.pool_rows_max(feats, len(relative_points))
    return ag.reshape(pooled, (cfg.feature_dim,))


def lstm_step(prev_hidden, prev_cell, x, weight, bias):
    """One step of a standard LSTM cell over a batch of rows.

    Gate order in the fused weight is input, forget, output, candidate;
    the input row is concatenated after the previous hidden state.
    """
    prev_hidden, prev_cell, x = ag.tensor(prev_hidden), ag.tensor(prev_cell), ag.tensor(x)
    squeeze = prev_hidden.ndim == 1
    if squeeze:
        prev_hidden = ag.reshape(prev_hidden, (1, -1))
        prev_cell = ag.reshape(prev_cell, (1, -1))
        x = ag.reshape(x, (1, -1))
    state_dim = prev_hidden.shape[1]
    z = ag.matmul(ag.concat([prev_hidden, x], axis=1), weight) + bias
    gate_in = ag.sigmoid(ag.slice_axis(z, 1, 0, state_dim))
    gate_forget = ag.sigmoid(ag.slice_axis(z, 1, state_dim, 2 * state_dim))
    gate_out = ag.sigmoid(ag.slice_axis(z, 1, 2 * state_dim, 3 * state_dim))
    candidate = ag.tanh(ag.slice_axis(z, 1, 3 * state_dim, 4 * state_dim))
    cell = gate_forget * prev_cell + gate_in * candidate
    hidden = gate_out * ag.tanh(cell)
    if squeeze:
        hidden = ag.reshape(hidden, (state_dim,))
        cell = ag.reshape(cell, (state_dim,))
    return hidden, cell


@dataclass
class EncoderTrace:
    """Recurrent encoder hidden states, one entry per step; rows are regions."""

    hidden: list

    @property
    def steps(self) -> int:
        return len(self.hidden)


def _encode_steps(step_inputs, params: ModelParams) -> EncoderTrace:
    rows = step_inputs[0].shape[0]
    state_dim = params["encoder.weight"].shape[1] // 4
    hidden = ag.tensor(np.zeros((rows, state_dim)))
    cell = ag.tensor(np.zeros((rows, state_dim)))
    trace = EncoderTrace([])
    for x in step_inputs:
        hidden, cell = lstm_step(hidden, cell, x, params["encoder.weight"], params["encoder.bias"])
        trace.hidden.append(hidden)
    return trace


def encode_sequence(sequence, params: ModelParams) -> EncoderTrace:
    """Run the encoder over one region's [steps, feature] sequence."""
    sequence = ag.tensor(sequence)
    if sequence.ndim != 2 or sequence.shape[0] < 1:
        raise ShapeError(f"encode_sequence expects [steps >= 1, features], got {sequence.shape}")
    steps = [ag.slice_axis(sequence, 0, t, t + 1) for t in range(sequence.shape[0])]
    return _encode_steps(steps, params)


def _attention_weights(decoder_hidden, encoder_hidden, score_weight) -> Tensor:
    projected = ag.matmul(decoder_hidden, score_weight)
    scores = ag.concat(
        [ag.sum_reduce(ag.mul(projected, ht), axis=1, keepdims=True) for ht in encoder_hidden],
        axis=1,
    )
    return ag.softmax(scores, axis=1)


def attention_scores(decoder_hidden, trace: EncoderTrace, score_weight) -> Tensor:
    """Attention over encoder steps: softmax of bilinear alignment scores."""
    decoder_hidden = ag.tensor(decoder_hidden)
    squeeze = decoder_hidden.ndim == 1
    if squeeze:
        decoder_hidden = ag.reshape(decoder_hidden, (1, -1))
    alpha = _attention_weights(decoder_hidden, trace.hidden, ag.tensor(score_weight))
    return ag.reshape(alpha, (trace.steps,)) if squeeze else alpha


def _decoder_step(trace: EncoderTrace, params: ModelParams) -> Tensor:
    """The decoder's single step from a zero state, fed the last encoder state."""
    zeros = ag.tensor(np.zeros(trace.hidden[-1].shape))
    hidden, _ = lstm_step(zeros, zeros, trace.hidden[-1],
                          params["decoder.weight"], params["decoder.bias"])
    return hidden


def _decode_regions(trace: EncoderTrace, params: ModelParams):
    """Batched one-step decoder with content attention over encoder states.

    Returns the [rows, feature] region features, the [rows, steps] attention
    weights, and the attended [rows, hidden] context.
    """
    dec_hidden = _decoder_step(trace, params)
    alpha = _attention_weights(dec_hidden, trace.hidden, params["attn_score.weight"])
    context = None
    for t, ht in enumerate(trace.hidden):
        term = ag.mul(ag.slice_axis(alpha, 1, t, t + 1), ht)
        context = term if context is None else ag.add(context, term)
    combined = ag.tanh(ag.matmul(ag.concat([context, dec_hidden], axis=1),
                                 params["attn_combine.weight"]))
    region = ag.matmul(combined, params["region_out_proj.weight"])
    return region, alpha, context


def _region_features(sequences, params: ModelParams, cfg: ModelConfig) -> Tensor:
    """Collapse per-scale sequences into one [rows, region_dim] feature matrix."""
    if cfg.aggregator == "max_pool":
        out = sequences[0]
        for s in sequences[1:]:
            out = ag.maximum(out, s)
        return out
    if cfg.aggregator == "concat":
        stacked = ag.concat(sequences, axis=1)
        return ag.matmul(stacked, params["concat_proj.weight"]) + params["concat_proj.bias"]
    trace = _encode_steps(sequences, params)
    if cfg.aggregator == "no_decoder":
        return trace.hidden[-1]
    if cfg.aggregator == "no_attention":
        return ag.matmul(_decoder_step(trace, params), params["decoder_out_proj.weight"])
    region, _alpha, _context = _decode_regions(trace, params)
    return region


def _global_features(region_feats, geoms, params, cfg, ctx) -> Tensor:
    centroids = ag.tensor(np.concatenate([g.centroid_coords for g in geoms], axis=0))
    x = ag.concat([region_feats, centroids], axis=1)
    x = _bn_mlp(x, params, "agg_mlp", len(cfg.agg_widths), ctx)
    pooled, _ = ag.pool_rows_max(x, cfg.m)
    return pooled


def _classifier_head(x, params, cfg, ctx) -> Tensor:
    for i in range(len(cfg.head_widths)):
        x = ag.matmul(x, params[f"head.{i}.weight"])
        x = ag.batch_norm(x, params.batch_norms[f"head.{i}"],
                          training=ctx.training, momentum=ctx.bn_momentum)
        x = ag.relu(x)
        x = ag.dropout(x, cfg.dropout, training=ctx.training, rng=ctx.rng)
    return ag.matmul(x, params["head.out.weight"]) + params["head.out.bias"]


def _trunk(geoms, params, cfg, ctx):
    sequences = _area_sequences(geoms, params, cfg, ctx)
    regions = _region_features(sequences, params, cfg)
    globals_ = _global_features(regions, geoms, params, cfg, ctx)
    return regions, globals_


def classify_batch(geoms, params: ModelParams, cfg: ModelConfig, ctx=None) -> Tensor:
    """Class logits for a batch of prepared clouds: [batch, num_classes]."""
    ctx = ctx or ForwardContext()
    _, globals_ = _trunk(geoms, params, cfg, ctx)
    return _classifier_head(globals_, params, cfg, ctx)


def classify_forward(cloud: PointCloud, params: ModelParams, cfg: ModelConfig, ctx=None) -> Tensor:
    """Class logits for one cloud (eval mode unless a context says otherwise)."""
    logits = classify_batch([prepare_cloud(cloud, cfg)], params, cfg, ctx)
    return ag.reshape(logits, (cfg.num_classes,))


def interpolation_weights(targets, sources, k: int) -> np.ndarray:
    """Inverse-square-distance weights over each target's k nearest sources.

    Rows are convex: non-negative and summing to one. A target within
    1e-10 of a source copies that source exactly.
    """
    targets = np.asarray(targets, dtype=np.float64)
    sources = np.asarray(sources, dtype=np.float64)
    n, s = len(targets), len(sources)
    if not 1 <= k <= s:
        raise ValueError(f"cannot interpolate from {k} of {s} sources")
    d2 = ((targets[:, None, :] - sources[None, :, :]) ** 2).sum(axis=2)
    exact = d2 < _EXACT_MATCH_DIST * _EXACT_MATCH_DIST
    snapped = exact.any(axis=1)
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
    # snapped rows get placeholder distances so no division by zero happens
    inv = 1.0 / np.where(snapped[:, None], 1.0, np.take_along_axis(d2, nearest, axis=1))
    weights = np.zeros((n, s))
    np.put_along_axis(weights, nearest, inv / inv.sum(axis=1, keepdims=True), axis=1)
    weights[snapped] = 0.0
    weights[snapped, exact[snapped].argmax(axis=1)] = 1.0
    return weights


def interpolate_features(targets, sources, features, k: int):
    """Features carried from ``sources`` onto ``targets`` by inverse-square
    distance over the k nearest sources. Differentiable in ``features``."""
    w = interpolation_weights(targets, sources, k)
    if isinstance(features, Tensor):
        return ag.matmul(ag.tensor(w), features)
    return w @ np.asarray(features, dtype=np.float64)


def segment_batch(geoms, params: ModelParams, cfg: ModelConfig, ctx=None):
    """Per-point part logits for a batch: ([sum n_i, num_parts], row counts)."""
    ctx = ctx or ForwardContext()
    regions, globals_ = _trunk(geoms, params, cfg, ctx)
    spread = ag.repeat_rows(globals_, cfg.m)
    x = ag.concat([spread, regions], axis=1)
    x = _bn_mlp(x, params, "seg_prop1", len(cfg.seg_prop1_widths), ctx)

    upsampled = []
    for b, geom in enumerate(geoms):
        block = ag.slice_axis(x, 0, b * cfg.m, (b + 1) * cfg.m)
        upsampled.append(ag.matmul(ag.tensor(geom.interp_weights), block))
    up = ag.concat(upsampled, axis=0)

    points = ag.tensor(np.concatenate([g.points for g in geoms], axis=0))
    skip = _bn_mlp(points, params, "seg_point_mlp", 1, ctx)
    x = ag.concat([up, skip], axis=1)
    x = _bn_mlp(x, params, "seg_prop2", len(cfg.seg_prop2_widths), ctx)
    for i in range(len(cfg.seg_head_widths)):
        x = ag.matmul(x, params[f"seg_head.{i}.weight"])
        x = ag.batch_norm(x, params.batch_norms[f"seg_head.{i}"],
                          training=ctx.training, momentum=ctx.bn_momentum)
        x = ag.relu(x)
        x = ag.dropout(x, cfg.dropout, training=ctx.training, rng=ctx.rng)
    logits = ag.matmul(x, params["seg_head.out.weight"]) + params["seg_head.out.bias"]
    return logits, [len(g.points) for g in geoms]


# ---------------------------------------------------------------------------
# checkpoints
#
# Layout (all integers little-endian, documented byte-exactly in
# docs/FORMATS.md):
#   magic "PSEQCKPT" | u32 version | u32 header_len | header JSON (utf-8)
#   u64 record_count | records
# record: u32 name_len | name utf-8 | u8 ndim | u64 dims... | f64le values
# Records hold every parameter in registry order, then every batch-norm
# running mean and variance.

_MAGIC = b"PSEQCKPT"
_VERSION = 2

_TUPLE_FIELDS = {
    "scales", "area_hidden", "agg_widths", "head_widths",
    "seg_prop1_widths", "seg_prop2_widths", "seg_head_widths",
}


def _config_to_dict(cfg: ModelConfig) -> dict:
    return {f.name: list(v) if isinstance(v := getattr(cfg, f.name), tuple) else v
            for f in fields(cfg)}


def _config_from_dict(raw: dict) -> ModelConfig:
    known = {f.name for f in fields(ModelConfig)}
    unknown = set(raw) - known
    if unknown:
        raise DataError(f"checkpoint config has unknown fields: {sorted(unknown)}")
    kwargs = {k: tuple(v) if k in _TUPLE_FIELDS else v for k, v in raw.items()}
    return ModelConfig(**kwargs)


def _records(params: ModelParams):
    for name, t in params.items():
        yield name, t.values
    for name, state in params.batch_norms.items():
        yield f"{name}.running_mean", state.running_mean
        yield f"{name}.running_var", state.running_var


def save_checkpoint(path, params: ModelParams, cfg: ModelConfig) -> None:
    """Write parameters and running stats; loading restores them bit-exactly."""
    header = json.dumps(
        {"format_version": _VERSION, "config": _config_to_dict(cfg)},
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
    """Read a checkpoint written by :func:`save_checkpoint`."""
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
        raise DataError(f"unsupported checkpoint version {version}")
    (header_len,) = struct.unpack("<I", take(4, "header length"))
    try:
        header = json.loads(bytes(take(header_len, "header")).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"corrupt checkpoint {path}: bad header ({exc})") from exc
    cfg = _config_from_dict(header.get("config", {}))
    params = build_params(cfg)
    expected = dict(_records(params))
    (count,) = struct.unpack("<Q", take(8, "record count"))
    if count != len(expected):
        raise DataError(
            f"corrupt checkpoint {path}: {count} records, expected {len(expected)}"
        )
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
        data = np.frombuffer(take(nbytes, f"record {name!r}"), dtype="<f8").reshape(shape)
        target[...] = data
    if expected:
        raise DataError(
            f"corrupt checkpoint {path}: missing records {sorted(expected)[:3]}"
        )
    if pos != len(view):
        raise DataError(f"corrupt checkpoint {path}: trailing bytes")
    return params, cfg
