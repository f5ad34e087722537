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
from .config import ModelConfig, model_config_from_dict
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
    "EncoderTrace",
    "build_params",
    "prepare_cloud",
    "area_pooled_feature",
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

    def mlp(prefix, in_dim, widths):
        for i, width in enumerate(widths):
            # batch norm supplies the shift, so these layers carry no bias
            linear(f"{prefix}.{i}", in_dim, width, bias=False)
            p.add_batch_norm(f"{prefix}.{i}", width, cfg.bn_eps)
            in_dim = width
        return in_dim

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
    """Geometry of one cloud, precomputed once; it has no parameters."""

    points: np.ndarray
    labels: np.ndarray | None
    centroid_coords: np.ndarray
    relative: list  # per scale: [m, k_t, 3] views of one centroid-relative [m, K, 3] block
    interp_weights: np.ndarray | None = None


def prepare_cloud(cloud: PointCloud, cfg: ModelConfig) -> CloudGeometry:
    """Sample centroids, group multi-scale areas, and cache relative coords.

    The scales are nested, so one [m, K, 3] block of the largest areas holds
    every scale; scale t's areas are its first k_t points per region.
    """
    centroids = farthest_point_sample(cloud, cfg.m)
    idx = group_areas(cloud, centroids, cfg.scales[-1])
    areas = cloud.points[idx] - centroids.coords[:, None, :]
    relative = [areas[:, :k] for k in cfg.scales]
    interp = None
    if cfg.task == "segmentation":
        interp = interpolation_weights(cloud.points, centroids.coords, cfg.interp_k)
    return CloudGeometry(cloud.points, cloud.labels, centroids.coords, relative, interp)


def _bn_mlp(x, params: ModelParams, prefix: str, n_layers: int, ctx: ForwardContext,
            dropout: float = 0.0, weights=None, pool=None):
    """``n_layers`` of matmul, batch norm, relu and dropout (none at ratio 0),
    as one :func:`autograd.bn_mlp` node; ``weights`` and ``pool`` pass through."""
    layers = [(params[f"{prefix}.{i}.weight"], params.batch_norms[f"{prefix}.{i}"])
              for i in range(n_layers)]
    return ag.bn_mlp(x, layers, ctx.training, ctx.bn_momentum, weights, dropout, ctx.rng, pool)


def _area_sequences(geoms, params, cfg, ctx):
    """Region features at every scale for a batch: one [scales*b*m, d] tensor,
    stacked by scale (scale t's b*m rows follow scale t-1's).

    The scales are nested (each smaller area is a prefix of the largest), so
    only the largest area's points go through the shared point MLP. Its batch
    norms count row j once per scale whose area holds it, which gives the
    statistics of stacking every scale's copy; its prefix max pool then
    collapses each scale's neighborhood, and a linear layer folds the
    centroid coordinates back in.
    """
    largest = cfg.scales[-1]
    regions = len(geoms) * cfg.m
    # a plain array: the coordinates are a constant of the dense stack
    points = np.concatenate([g.relative[-1].reshape(-1, 3) for g in geoms], axis=0)
    multiplicity = (np.arange(largest)[:, None] < np.asarray(cfg.scales)).sum(axis=1)
    weights = np.tile(multiplicity.astype(np.float64), regions)
    pooled = _bn_mlp(points, params, "area_mlp", len(cfg.area_hidden) + 1, ctx,
                     weights=weights, pool=(largest, cfg.scales))
    centroids = np.concatenate([g.centroid_coords for g in geoms], axis=0)
    x = ag.concat([pooled, ag.tensor(np.tile(centroids, (cfg.num_scales, 1)))], axis=1)
    return ag.matmul(x, params["centroid_proj.weight"]) + params["centroid_proj.bias"]


def area_pooled_feature(relative_points, params: ModelParams, cfg: ModelConfig, ctx=None) -> Tensor:
    """Pooled area descriptor before the centroid is concatenated back in."""
    ctx = ctx or ForwardContext()
    relative_points = np.asarray(relative_points, dtype=np.float64)
    if relative_points.ndim != 2 or relative_points.shape[0] < 1 or relative_points.shape[1] != 3:
        raise ShapeError(
            f"an area needs at least one relative [k, 3] point row, got {relative_points.shape}"
        )
    k = len(relative_points)
    pooled = _bn_mlp(relative_points, params, "area_mlp", len(cfg.area_hidden) + 1,
                     ctx, pool=(k, (k,)))
    return ag.reshape(pooled, (cfg.feature_dim,))


@dataclass
class EncoderTrace:
    """Recurrent encoder hidden states, [steps*rows, hidden], stacked by step
    as :func:`autograd.lstm` returns them; rows are regions."""

    states: Tensor
    steps: int

    def last(self) -> Tensor:
        """The final step's [rows, hidden] states, sliced off as a new node."""
        rows = self.states.shape[0] // self.steps
        return ag.slice_axis(self.states, 0, (self.steps - 1) * rows, self.steps * rows)


def _encode(stacked, steps, params: ModelParams) -> EncoderTrace:
    states = ag.lstm(stacked, steps, params["encoder.weight"], params["encoder.bias"])
    return EncoderTrace(states, steps)


def encode_sequence(sequence, params: ModelParams) -> EncoderTrace:
    """Run the encoder over one region's [steps, feature] sequence."""
    sequence = ag.tensor(sequence)
    if sequence.ndim != 2 or sequence.shape[0] < 1:
        raise ShapeError(f"encode_sequence expects [steps >= 1, features], got {sequence.shape}")
    return _encode(sequence, sequence.shape[0], params)


def attention_scores(decoder_hidden, trace: EncoderTrace, score_weight) -> Tensor:
    """Attention over encoder steps: softmax of bilinear alignment scores.

    ``decoder_hidden`` is [rows, hidden]; the result is a [rows, steps] leaf.
    """
    _, alpha = ag.attend(decoder_hidden, trace.states, trace.steps, score_weight)
    return ag.tensor(alpha)


def _decode_regions(trace: EncoderTrace, params: ModelParams):
    """Batched one-step decoder with content attention over encoder states.

    Returns the [rows, feature] region features, the [rows, steps] attention
    weights (an array), and the attended [rows, hidden] context.
    """
    # one decoder step from a zero state, fed the last encoder state
    dec_hidden = ag.lstm(trace.last(), 1, params["decoder.weight"], params["decoder.bias"])
    context, alpha = ag.attend(dec_hidden, trace.states, trace.steps,
                               params["attn_score.weight"])
    combined = ag.tanh(ag.matmul(ag.concat([context, dec_hidden], axis=1),
                                 params["attn_combine.weight"]))
    region = ag.matmul(combined, params["region_out_proj.weight"])
    return region, alpha, context


def _region_features(sequences, params: ModelParams, cfg: ModelConfig) -> Tensor:
    """Collapse the scale-stacked sequences into one [rows, region_dim] matrix."""
    if cfg.aggregator in ("max_pool", "concat"):
        rows = sequences.shape[0] // cfg.num_scales
        per_scale = [ag.slice_axis(sequences, 0, t * rows, (t + 1) * rows)
                     for t in range(cfg.num_scales)]
        if cfg.aggregator == "concat":
            stacked = ag.concat(per_scale, axis=1)
            return ag.matmul(stacked, params["concat_proj.weight"]) + params["concat_proj.bias"]
        out = per_scale[0]
        for s in per_scale[1:]:
            out = ag.maximum(out, s)
        return out
    trace = _encode(sequences, cfg.num_scales, params)
    if cfg.aggregator == "no_decoder":
        return trace.last()
    if cfg.aggregator == "no_attention":
        dec_hidden = ag.lstm(trace.last(), 1, params["decoder.weight"], params["decoder.bias"])
        return ag.matmul(dec_hidden, params["decoder_out_proj.weight"])
    region, _alpha, _context = _decode_regions(trace, params)
    return region


def _global_features(region_feats, geoms, params, cfg, ctx) -> Tensor:
    centroids = ag.tensor(np.concatenate([g.centroid_coords for g in geoms], axis=0))
    x = ag.concat([region_feats, centroids], axis=1)
    return _bn_mlp(x, params, "agg_mlp", len(cfg.agg_widths), ctx, pool=(cfg.m, (cfg.m,)))


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
    return ag.matmul(x, params["head.out.weight"]) + params["head.out.bias"]


def classify_forward(cloud: PointCloud, params: ModelParams, cfg: ModelConfig, ctx=None) -> Tensor:
    """Class logits for one cloud (eval mode unless a context says otherwise)."""
    logits = classify_batch([prepare_cloud(cloud, cfg)], params, cfg, ctx)
    return ag.reshape(logits, (cfg.num_classes,))


def interpolation_weights(targets, sources, k: int) -> np.ndarray:
    """Inverse-square-distance weights over each target's k nearest sources.

    Rows are convex: non-negative and summing to one. A target within
    1e-10 of a source copies that source exactly. The k nearest are the
    first k in (distance, index) order, the order a stable sort of the whole
    row gives, and their weights are summed in that order: a partial
    selection (:func:`geometry.nearest_candidates`) keeps the k candidates, or
    every candidate tied with the k-th distance, and only those are sorted
    by (distance, index). Coordinates must be finite.
    """
    targets = np.asarray(targets, dtype=np.float64)
    sources = np.asarray(sources, dtype=np.float64)
    n, s = len(targets), len(sources)
    if not 1 <= k <= s:
        raise ValueError(f"cannot interpolate from {k} of {s} sources")
    if not (np.isfinite(targets).all() and np.isfinite(sources).all()):
        raise ValueError("interpolation coordinates must be finite")
    d2 = square_distances(targets, np.asfortranarray(sources))
    exact = d2 < _EXACT_MATCH_DIST * _EXACT_MATCH_DIST
    snapped = exact.any(axis=1)
    rows = np.arange(n)[:, None]
    cand = nearest_candidates(d2, k)
    nearest = cand[rows, np.lexsort((cand, d2[rows, cand]), axis=1)[:, :k]]
    # snapped rows get placeholder distances so no division by zero happens
    inv = 1.0 / np.where(snapped[:, None], 1.0, d2[rows, nearest])
    weights = np.zeros((n, s))
    weights[rows, nearest] = inv / inv.sum(axis=1, keepdims=True)
    if snapped.any():
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

    up = ag.block_matmul([g.interp_weights for g in geoms], x)

    points = np.concatenate([g.points for g in geoms], axis=0)
    skip = _bn_mlp(points, params, "seg_point_mlp", 1, ctx)
    x = ag.concat([up, skip], axis=1)
    x = _bn_mlp(x, params, "seg_prop2", len(cfg.seg_prop2_widths), ctx)
    x = _bn_mlp(x, params, "seg_head", len(cfg.seg_head_widths), ctx, cfg.dropout)
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


def _config_to_dict(cfg: ModelConfig) -> dict:
    return {f.name: list(v) if isinstance(v := getattr(cfg, f.name), tuple) else v
            for f in fields(cfg)}


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
