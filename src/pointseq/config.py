"""Run configuration: dataclasses, the `section.key = value` file format,
and command-line overrides.

Defaults reproduce the reference training setup (384 regions over scales
16/32/64/128, 128-wide features and recurrent state, Adam at 0.001 with decay
0.3 and batch-norm momentum decay 0.5 every 20 epochs, dropout 0.4).
"""

from __future__ import annotations

import configparser
import io
import math
import os
from dataclasses import dataclass, field, fields

from .errors import ConfigError

TASKS = ("classification", "segmentation")
AGGREGATORS = ("attention_ed", "no_attention", "no_decoder", "concat", "max_pool")


@dataclass
class ModelConfig:
    task: str = "classification"
    num_classes: int = 40
    num_parts: int = 50
    m: int = 384
    scales: tuple[int, ...] = (16, 32, 64, 128)
    feature_dim: int = 128
    hidden_dim: int = 128
    area_hidden: tuple[int, ...] = (64, 128)
    agg_widths: tuple[int, ...] = (256, 512, 1024)
    head_widths: tuple[int, ...] = (512, 256)
    dropout: float = 0.4
    aggregator: str = "attention_ed"
    seg_point_width: int = 64
    seg_prop1_widths: tuple[int, ...] = (256, 128)
    seg_prop2_widths: tuple[int, ...] = (256, 128)
    seg_head_widths: tuple[int, ...] = (128,)
    interp_k: int = 3
    bn_eps: float = 1e-5

    @property
    def num_scales(self) -> int:
        return len(self.scales)

    @property
    def global_dim(self) -> int:
        return self.agg_widths[-1]

    @property
    def region_dim(self) -> int:
        # the no-decoder variant hands the raw recurrent state to aggregation
        return self.hidden_dim if self.aggregator == "no_decoder" else self.feature_dim


@dataclass
class TrainConfig:
    lr: float = 0.001
    batch_size: int = 16
    epochs: int = 200
    seed: int = 0
    lr_decay: float = 0.3
    lr_floor: float = 1e-5
    bn_momentum: float = 0.5
    bn_momentum_decay: float = 0.5
    bn_momentum_floor: float = 0.01
    decay_every: int = 20


@dataclass
class DataConfig:
    """Dataset source: a manifest path, or the built-in synthetic generator.

    When ``manifest`` is empty, commands draw the configured synthetic set
    (``train_count``/``test_count`` clouds per class of ``points`` points).
    """

    manifest: str = ""
    points: int = 64
    noise: float = 0.02
    train_count: int = 20
    test_count: int = 10
    seed: int = 0


@dataclass
class RunSection:
    out: str = ""


@dataclass
class AblateConfig:
    m_values: tuple[int, ...] = (128, 256, 384, 512)
    t_values: tuple[int, ...] = (1, 2, 3, 4)
    hidden_values: tuple[int, ...] = (64, 128, 256)
    lr_values: tuple[float, ...] = (0.0005, 0.001, 0.002)
    epochs: int = 0  # 0 keeps the [train] epoch count


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)
    run: RunSection = field(default_factory=RunSection)
    ablate: AblateConfig = field(default_factory=AblateConfig)


_SECTIONS = ("model", "train", "data", "run", "ablate")


def _parse_scalar(raw: str, kind, where: str):
    try:
        if kind is int:
            return int(raw)
        if kind is not float:
            return raw
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {kind.__name__}") from None
    # nan compares False with everything, so it would slip past the range checks
    if not math.isfinite(value):
        raise ConfigError(f"{where}: must be a finite number, got {raw!r}")
    return value


def _assign(obj, key: str, raw: str, where: str):
    spec = {f.name: f for f in fields(obj)}
    if key not in spec:
        raise ConfigError(f"unknown configuration key {where}")
    current = getattr(obj, key)
    if isinstance(current, tuple):
        elem = float if key == "lr_values" else int
        parts = [p for p in raw.replace(",", " ").split() if p]
        value = tuple(_parse_scalar(p, elem, where) for p in parts)
    elif isinstance(current, int):
        value = _parse_scalar(raw, int, where)
    elif isinstance(current, float):
        value = _parse_scalar(raw, float, where)
    else:
        value = raw.strip()
    setattr(obj, key, value)


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(repr(v) if isinstance(v, float) else str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dump_run_config(cfg: RunConfig) -> str:
    """Render the configuration in the file format it is read from."""
    out = io.StringIO()
    for section in _SECTIONS:
        obj = getattr(cfg, section)
        out.write(f"[{section}]\n")
        for f in fields(obj):
            out.write(f"{f.name} = {_format_value(getattr(obj, f.name))}\n")
        out.write("\n")
    return out.getvalue()


def apply_setting(cfg: RunConfig, dotted_key: str, raw: str) -> None:
    """Apply one `section.key = value` override."""
    if "." not in dotted_key:
        raise ConfigError(f"override key {dotted_key!r} must look like section.key")
    section, key = dotted_key.split(".", 1)
    if section not in _SECTIONS:
        raise ConfigError(f"unknown configuration section {section!r}")
    _assign(getattr(cfg, section), key, raw, f"{section}.{key}")


def load_run_config(path=None, sets=(), seed=None, out=None) -> RunConfig:
    """Defaults, then the config file, then --set pairs, then flag shorthands."""
    cfg = RunConfig()
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, encoding="utf-8") as handle:
                parser.read_file(handle, source=str(path))
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8 text ({exc.reason})") from None
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file: {exc}") from exc
        for section in parser.sections():
            if section not in _SECTIONS:
                raise ConfigError(f"unknown configuration section [{section}]")
            for key, raw in parser.items(section):
                _assign(getattr(cfg, section), key, raw, f"{section}.{key}")
    for dotted_key, raw in sets:
        apply_setting(cfg, dotted_key, raw)
    if seed is not None:
        # the shorthand reseeds both training and synthetic generation
        cfg.train.seed = int(seed)
        cfg.data.seed = int(seed)
    if out is not None:
        cfg.run.out = str(out)
    validate_run_config(cfg)
    return cfg


def parse_set_flag(text: str) -> tuple[str, str]:
    """Split one --set SECTION.KEY=VALUE argument."""
    if "=" not in text:
        raise ConfigError(f"--set expects SECTION.KEY=VALUE, got {text!r}")
    dotted_key, raw = text.split("=", 1)
    return dotted_key.strip(), raw.strip()


def _physical_memory():
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _synthetic_bytes(cfg: RunConfig) -> int:
    """About the most memory the synthetic set takes: every cloud's float64
    points (and int64 part labels), plus the largest temporaries of one
    cloud's neighborhood search, its [m, points] float64 distances and
    [m, points] argpartition indices."""
    dc, classification = cfg.data, cfg.model.task == "classification"
    # a classification set draws each count once per class, of three
    clouds = (dc.train_count + dc.test_count) * (3 if classification else 1)
    per_point = 24 if classification else 32
    return dc.points * (clouds * per_point + 16 * cfg.model.m)


def _json_value(default, value):
    """A JSON ``value`` in the type of the field ``default``, or None where it
    has another: a bool is no number, an int may stand for a float, a float
    must be finite, and a tuple field lists ints."""
    if isinstance(default, tuple):
        items = [_json_value(0, v) for v in value] if isinstance(value, list) else [None]
        return None if None in items else tuple(items)
    if isinstance(default, float):
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        return float(value) if number and math.isfinite(value) else None
    return value if type(value) is type(default) else None


def model_config_from_dict(raw) -> ModelConfig:
    """The model config a JSON object holds, checked as the [model] section
    of a config file is: a known key, a value of its field's type, then
    :func:`validate_model_config`. A missing key keeps its default."""
    if not isinstance(raw, dict):
        raise ConfigError(f"the model config must be a JSON object, got {raw!r}")
    cfg = ModelConfig()
    known = {f.name for f in fields(cfg)}
    for key, value in raw.items():
        if key not in known:
            raise ConfigError(f"unknown configuration key model.{key}")
        typed = _json_value(getattr(cfg, key), value)
        if typed is None:
            raise ConfigError(f"model.{key}: {value!r} is not of the type of "
                              f"its default {getattr(cfg, key)!r}")
        setattr(cfg, key, typed)
    validate_model_config(cfg)
    return cfg


def validate_model_config(mc: ModelConfig) -> None:
    if mc.task not in TASKS:
        raise ConfigError(f"model.task must be one of {TASKS}, got {mc.task!r}")
    if mc.aggregator not in AGGREGATORS:
        raise ConfigError(f"model.aggregator must be one of {AGGREGATORS}, got {mc.aggregator!r}")
    if not mc.scales:
        raise ConfigError("model.scales must list at least one neighborhood size")
    if any(s < 1 for s in mc.scales) or any(
        b <= a for a, b in zip(mc.scales, mc.scales[1:])
    ):
        raise ConfigError(f"model.scales must be strictly increasing and positive, got {mc.scales}")
    for name in ("num_classes", "num_parts", "m", "feature_dim", "hidden_dim",
                 "seg_point_width", "interp_k"):
        if getattr(mc, name) < 1:
            raise ConfigError(f"model.{name} must be positive")
    for name in ("area_hidden", "agg_widths", "head_widths",
                 "seg_prop1_widths", "seg_prop2_widths", "seg_head_widths"):
        widths = getattr(mc, name)
        if not widths or any(w < 1 for w in widths):
            raise ConfigError(f"model.{name} must list positive widths")
    if mc.task == "segmentation" and mc.interp_k > mc.m:
        raise ConfigError(
            f"model.interp_k={mc.interp_k} exceeds model.m={mc.m}: "
            "each point interpolates from that many of the m centroids"
        )
    if not 0.0 <= mc.dropout < 1.0:
        raise ConfigError(f"model.dropout must be in [0, 1), got {mc.dropout}")
    if mc.bn_eps <= 0.0:
        raise ConfigError("model.bn_eps must be positive")


def validate_run_config(cfg: RunConfig) -> None:
    validate_model_config(cfg.model)
    tc = cfg.train
    if tc.lr <= 0.0 or tc.lr_floor <= 0.0:
        raise ConfigError("train.lr and train.lr_floor must be positive")
    if tc.batch_size < 1:
        raise ConfigError("train.batch_size must be at least 1")
    if tc.epochs < 1:
        raise ConfigError("train.epochs must be at least 1")
    if tc.decay_every < 0:
        raise ConfigError("train.decay_every must be 0 (off) or positive")
    if not 0.0 < tc.bn_momentum <= 1.0:
        raise ConfigError("train.bn_momentum must be in (0, 1]")
    if not 0.0 < tc.lr_decay <= 1.0 or not 0.0 < tc.bn_momentum_decay <= 1.0:
        raise ConfigError("decay factors must be in (0, 1]")
    dc = cfg.data
    if tc.seed < 0 or dc.seed < 0:
        raise ConfigError("seeds must be non-negative")
    if dc.points < 8:
        raise ConfigError(f"data.points must be at least 8, got {dc.points}")
    if dc.noise < 0.0:
        raise ConfigError(f"data.noise must be non-negative, got {dc.noise}")
    if dc.train_count < 1 or dc.test_count < 1:
        raise ConfigError("data.train_count and data.test_count must be at least 1")
    need, memory = _synthetic_bytes(cfg), _physical_memory()
    if not dc.manifest and memory is not None and need > memory:
        raise ConfigError(
            f"data.points = {dc.points} needs about {need / 2**30:.1f} GiB "
            f"for the synthetic set and its neighborhood search, more than the "
            f"{memory / 2**30:.1f} GiB of physical memory")
