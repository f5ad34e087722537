"""Command-line entry point: train, eval, gradcheck, ablate, and synth.

Every command echoes its effective configuration (defaults, then the config
file, then ``--set`` overrides) before doing any work, so a run can be
reproduced bit-exactly from its own log. Exit codes: 0 success, 2 for
configuration errors (a training run whose loss or gradients turn non-finite,
or that runs out of memory, included), 3 for data or IO errors; gradcheck
exits 1 when the measured gradient error exceeds the tolerance.
"""

from __future__ import annotations

import argparse
import copy
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .config import (
    AGGREGATORS,
    RunConfig,
    dump_run_config,
    load_run_config,
    parse_set_flag,
    validate_run_config,
)
from .data import CLASS_KINDS, SEG_PARTS, load_manifest, synthetic_splits, write_synthetic_dataset
from .errors import ConfigError, DataError
from .model import load_checkpoint, prepare_cloud, save_checkpoint
from .training import (
    classification_gradient_check,
    evaluate_classification,
    evaluate_segmentation,
    segmentation_gradient_check,
    train,
)

__all__ = ["main", "build_arg_parser", "ABLATE_AXES"]

ABLATE_AXES = ("M", "T", "rnn-hidden", "aggregation", "lr")


def _tolerance(text: str) -> float:
    """A positive finite number: nan, inf or a bound of 0 or less would make
    every gradient pass or every one fail."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointseq",
        description="Point-cloud classification and part segmentation "
        "with sequence-attention region features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "train": "train a model and write its metrics log and best checkpoint",
        "eval": "evaluate a saved checkpoint on the configured test split",
        "gradcheck": "verify backward gradients against finite differences",
        "ablate": "train one model per value of a hyperparameter axis",
        "synth": "materialize the configured synthetic dataset as files",
    }
    for name, text in commands.items():
        cmd = sub.add_parser(name, help=text, description=text)
        if name == "ablate":
            cmd.add_argument("axis", choices=ABLATE_AXES, help="which axis to sweep")
        if name == "gradcheck":
            cmd.add_argument("--tolerance", type=_tolerance, default=1e-4, metavar="X",
                             help="failure threshold, a positive finite number (default 1e-4)")
        cmd.add_argument("--config", metavar="PATH", help="configuration file")
        cmd.add_argument(
            "--set",
            dest="sets",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override one configuration value (repeatable)",
        )
        cmd.add_argument("--out", metavar="DIR", help="output directory (run.out)")
        cmd.add_argument("--seed", type=int, metavar="N", help="train and data seed")
    return parser


def _echo_config(cfg: RunConfig, out_dir=None) -> None:
    """Print the effective configuration; optionally persist it with outputs."""
    text = dump_run_config(cfg)
    sys.stdout.write(text)
    sys.stdout.flush()
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "effective_config.ini")
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _require_out(cfg: RunConfig) -> str:
    if not cfg.run.out:
        raise ConfigError("an output directory is required: pass --out DIR or set run.out")
    return cfg.run.out


@dataclass
class _Dataset:
    train_clouds: list
    train_labels: np.ndarray
    test_clouds: list
    test_labels: np.ndarray
    names: tuple[str, ...]
    part_ranges: dict | None
    files: list  # (path, cloud) per manifest sample; empty for synthetic data


def _load_dataset(cfg: RunConfig, task: str) -> _Dataset:
    """The configured manifest if one is set, else the synthetic splits."""
    if cfg.data.manifest:
        manifest = load_manifest(cfg.data.manifest)
        if manifest.task != task:
            raise ConfigError(
                f"manifest task {manifest.task!r} does not match the model task {task!r}"
            )
        train_clouds, train_labels = manifest.split("train")
        test_clouds, test_labels = manifest.split("test")
        ranges = manifest.part_ranges if task == "segmentation" else None
        files = [(s.path, s.cloud) for split in manifest.samples.values() for s in split]
        return _Dataset(
            train_clouds, train_labels, test_clouds, test_labels, manifest.names, ranges, files
        )
    splits = synthetic_splits(cfg.data, task)
    if task == "classification":
        return _Dataset(*splits, CLASS_KINDS, None, [])
    return _Dataset(*splits, ("composite",), {"composite": SEG_PARTS}, [])


def _check_cloud_sizes(model_cfg, cfg: RunConfig, ds: _Dataset) -> None:
    """Every cloud must hold ``m`` centroids and the largest neighborhood."""
    needs = (("model.m", model_cfg.m), ("model.scales", model_cfg.scales[-1]))
    for key, need in needs:
        if not cfg.data.manifest and need > cfg.data.points:
            raise ConfigError(
                f"{key} needs {need} points per cloud but data.points is {cfg.data.points}"
            )
        for path, cloud in ds.files:
            if len(cloud) < need:
                raise DataError(f"{path} has {len(cloud)} points but {key} needs {need}")


def _check_splits(cfg: RunConfig, ds: _Dataset, splits) -> None:
    """Each of ``splits`` must hold a cloud. Synthetic counts are validated
    as at least 1, so only a manifest can leave a split empty."""
    for split in splits:
        clouds = ds.train_clouds if split == "train" else ds.test_clouds
        if not clouds:
            raise DataError(f"manifest {cfg.data.manifest} has no {split} records")


def _check_dims(model_cfg, ds: _Dataset, task: str) -> None:
    if task == "classification":
        if model_cfg.num_classes != len(ds.names):
            raise ConfigError(
                f"model.num_classes={model_cfg.num_classes} but the dataset "
                f"declares {len(ds.names)} classes"
            )
    else:
        top = max(hi for _, hi in ds.part_ranges.values())
        if model_cfg.num_parts != top:
            raise ConfigError(
                f"model.num_parts={model_cfg.num_parts} but the dataset's "
                f"part ids reach {top}"
            )


def cmd_train(args, cfg: RunConfig) -> int:
    out = _require_out(cfg)
    _echo_config(cfg, out)
    task = cfg.model.task
    ds = _load_dataset(cfg, task)
    _check_splits(cfg, ds, ("train", "test"))
    _check_dims(cfg.model, ds, task)
    _check_cloud_sizes(cfg.model, cfg, ds)
    result = train(
        ds.train_clouds, ds.train_labels, ds.test_clouds, ds.test_labels,
        cfg.model, cfg.train, log=print,
    )
    log_path = os.path.join(out, "metrics.log")
    with open(log_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(result.log_lines) + "\n")
    result.params.restore(result.best_snapshot)
    ckpt_path = os.path.join(out, "checkpoint.bin")
    save_checkpoint(ckpt_path, result.params, cfg.model)
    metric = "test_miou" if task == "segmentation" else "test_acc"
    print(f"best_epoch={result.best_epoch} best_{metric}={result.best_metric:.12g}")
    print(f"wrote {ckpt_path} and {log_path}")
    return 0


def cmd_eval(args, cfg: RunConfig) -> int:
    out = _require_out(cfg)
    _echo_config(cfg)
    params, model_cfg = load_checkpoint(os.path.join(out, "checkpoint.bin"))
    ds = _load_dataset(cfg, model_cfg.task)
    _check_dims(model_cfg, ds, model_cfg.task)
    _check_splits(cfg, ds, ("test",))
    _check_cloud_sizes(model_cfg, cfg, ds)
    geoms = [prepare_cloud(c, model_cfg) for c in ds.test_clouds]
    if model_cfg.task == "classification":
        stats = evaluate_classification(
            geoms, ds.test_labels, params, model_cfg, cfg.train.batch_size
        )
        print(
            f"samples={len(geoms)} loss={stats['loss']:.12g} "
            f"instance_acc={stats['instance_acc']:.12g} "
            f"class_acc={stats['class_acc']:.12g}"
        )
        return 0
    cats = [ds.names[int(i)] for i in ds.test_labels]
    ranges = [ds.part_ranges[c] for c in cats]
    stats = evaluate_segmentation(
        geoms, params, model_cfg, cfg.train.batch_size,
        part_ranges=ranges, categories=cats,
    )
    print(f"samples={len(geoms)} loss={stats['loss']:.12g} point_acc={stats['point_acc']:.12g}")
    width = max(len("category"), max(len(n) for n in stats["category_iou"]))
    print(f"{'category':<{width}}  miou")
    for name, iou in stats["category_iou"].items():
        print(f"{name:<{width}}  {iou:.12g}")
    print(f"{'mean':<{width}}  {stats['mean_iou']:.12g}")
    return 0


def cmd_gradcheck(args, cfg: RunConfig) -> int:
    _echo_config(cfg)
    checks = (
        ("classification", classification_gradient_check),
        ("segmentation", segmentation_gradient_check),
    )
    worst_overall = 0.0
    for label, check in checks:
        worst, report = check(seed=cfg.train.seed)
        print(f"{label} tiny config: max relative gradient error per tensor")
        width = max(len(name) for name in report)
        for name in sorted(report):
            print(f"  {name:<{width}}  {report[name]:.3e}")
        print(f"{label} worst: {worst:.3e}")
        worst_overall = max(worst_overall, worst)
    ok = worst_overall < args.tolerance
    print(f"tolerance {args.tolerance:g}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _axis_values(cfg: RunConfig, axis: str) -> list:
    ab = cfg.ablate
    if axis == "M":
        return list(ab.m_values)
    if axis == "T":
        limit = len(cfg.model.scales)
        bad = [t for t in ab.t_values if not 1 <= t <= limit]
        if bad:
            raise ConfigError(
                f"ablate.t_values {bad} exceed the {limit} configured scales"
            )
        return list(ab.t_values)
    if axis == "rnn-hidden":
        return list(ab.hidden_values)
    if axis == "lr":
        return list(ab.lr_values)
    return list(AGGREGATORS)


def _apply_axis(run_cfg: RunConfig, axis: str, value) -> None:
    if axis == "M":
        run_cfg.model.m = value
    elif axis == "T":
        run_cfg.model.scales = run_cfg.model.scales[:value]
    elif axis == "rnn-hidden":
        run_cfg.model.hidden_dim = value
    elif axis == "lr":
        run_cfg.train.lr = value
    else:
        run_cfg.model.aggregator = value


def cmd_ablate(args, cfg: RunConfig) -> int:
    _echo_config(cfg, cfg.run.out or None)
    task = cfg.model.task
    values = _axis_values(cfg, args.axis)
    ds = _load_dataset(cfg, task)
    _check_splits(cfg, ds, ("train", "test"))
    _check_dims(cfg.model, ds, task)
    runs = []
    for value in values:
        run_cfg = copy.deepcopy(cfg)
        _apply_axis(run_cfg, args.axis, value)
        if cfg.ablate.epochs > 0:
            run_cfg.train.epochs = cfg.ablate.epochs
        # every value is checked before the first run starts
        try:
            validate_run_config(run_cfg)
            _check_cloud_sizes(run_cfg.model, run_cfg, ds)
        except ConfigError as exc:
            raise ConfigError(f"ablate {args.axis}={value}: {exc}") from None
        runs.append((value, run_cfg))
    rows = []
    for value, run_cfg in runs:
        result = train(
            ds.train_clouds, ds.train_labels, ds.test_clouds, ds.test_labels,
            run_cfg.model, run_cfg.train,
        )
        print(f"# {args.axis}={value} best_epoch={result.best_epoch} "
              f"best={result.best_metric:.12g}", flush=True)
        rows.append((str(value), result.best_metric))
    metric = "best_test_miou" if task == "segmentation" else "best_test_acc"
    width = max(len("value"), max(len(label) for label, _ in rows))
    table = [f"{'value':<{width}}  {metric}"]
    table += [f"{label:<{width}}  {best:.6f}" for label, best in rows]
    text = "\n".join(table) + "\n"
    sys.stdout.write(text)
    if cfg.run.out:
        path = os.path.join(cfg.run.out, f"ablate_{args.axis}.log")
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    return 0


def cmd_synth(args, cfg: RunConfig) -> int:
    out = _require_out(cfg)
    # echo without persisting: the output directory is a dataset, and its
    # contents must be byte-identical across re-runs with one seed
    _echo_config(cfg)
    manifest_path = write_synthetic_dataset(out, cfg.data, cfg.model.task)
    per_class = 3 if cfg.model.task == "classification" else 1
    count = per_class * (cfg.data.train_count + cfg.data.test_count)
    print(f"wrote {count} point files and {manifest_path}")
    return 0


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "ablate": cmd_ablate,
    "synth": cmd_synth,
}


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        cfg = load_run_config(
            args.config, [parse_set_flag(s) for s in args.sets],
            seed=args.seed, out=args.out,
        )
        return _COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; lower train.batch_size or model.m "
              "(activation memory grows with both)", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
