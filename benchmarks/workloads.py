"""The benchmark's workloads and the measurements made on each.

A workload is a run configuration built from the workload seed, plus the
quality targets its training runs must meet. Every measurement goes through
the package's public functions only, exactly as ``pointseq train`` and
``pointseq eval`` call them.
"""

from __future__ import annotations

import contextlib
import math
import os
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pointseq import config, data, geometry, model, training

import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

E2E_METRICS = {
    "setup_s": "s",
    "train_clouds_per_s": "clouds/s",
    "eval_clouds_per_s": "clouds/s",
    "peak_rss_mb": "MB",
}

# Minimum repetitions in every run, however short ``--seconds`` is. Two
# training repetitions are needed to compare same-seed logs.
MIN_SETUPS = 3
MIN_TRAINS = 2
MIN_EVALS = 3
# Neighborhoods per cloud compared against the exhaustive kNN oracle.
KNN_SAMPLE = 8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config_file: str | None
    sets: tuple[tuple[str, str], ...]
    # (history key, minimum of its best value over epochs)
    targets: tuple[tuple[str, float], ...]

    def run_config(self, seed: int) -> config.RunConfig:
        path = None if self.config_file is None else ROOT / self.config_file
        return config.load_run_config(path, sets=self.sets, seed=seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk_cls",
            "shipped desk classification config: tiny arrays, so op dispatch and "
            "graph bookkeeping in autograd dominate, and in-epoch eval is a large share",
            "configs/desk_classification.ini",
            (),
            (("train_acc", 0.99), ("test_acc", 0.90)),
        ),
        Workload(
            "desk_seg",
            "shipped desk segmentation config: per-point propagation, interpolation "
            "weights in set-up, and IoU scoring",
            "configs/desk_segmentation.ini",
            (),
            (("test_miou", 0.80),),
        ),
        Workload(
            "ref128_cls",
            "reference model widths and scales at m=128 on 1024-point clouds, batch 1: "
            "BLAS- and memory-bound, kd-tree kNN dominates set-up",
            None,
            (
                ("model.num_classes", "3"),
                ("model.m", "128"),
                ("train.batch_size", "1"),
                ("train.epochs", "2"),
                ("data.points", "1024"),
                ("data.train_count", "1"),
                ("data.test_count", "1"),
            ),
            (),
        ),
    )
}


class Checks:
    """Operations attempted and failed; an operation fails if any check on it fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, operation: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures += [f"{operation}: {p}" for p in problems]


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def setup(cfg: config.RunConfig):
    """The work ``train()`` does before its loop: data, geometry and parameters."""
    splits = data.synthetic_splits(cfg.data, cfg.model.task)
    train_clouds, _, test_clouds, _ = splits
    geoms = [model.prepare_cloud(c, cfg.model) for c in train_clouds + test_clouds]
    model.build_params(cfg.model, np.random.default_rng(cfg.train.seed))
    return splits, geoms


def check_neighborhoods(clouds, geoms, cfg: config.RunConfig, seed: int) -> list[str]:
    """A sample of each cloud's largest-scale areas equals the exhaustive kNN."""
    m, k = cfg.model.m, cfg.model.scales[-1]
    rng = np.random.default_rng(seed)
    problems = []
    for i, (cloud, geom) in enumerate(zip(clouds, geoms)):
        areas = geom.relative[-1].reshape(m, k, 3)
        for j in rng.choice(m, size=min(KNN_SAMPLE, m), replace=False):
            centroid = geom.centroid_coords[j]
            expected = cloud.points[geometry.brute_force_knn(cloud, centroid, k)] - centroid
            if not np.array_equal(areas[j], expected):
                problems.append(f"cloud {i} region {j} differs from brute_force_knn")
    return problems


def train_once(cfg: config.RunConfig):
    """One ``train()`` call; returns the result and the log-callback times."""
    splits = data.synthetic_splits(cfg.data, cfg.model.task)
    stamps = []
    result = training.train(*splits, cfg.model, cfg.train,
                            log=lambda _line: stamps.append(time.perf_counter()))
    return result, stamps


def check_training(workload: Workload, result, reference_lines) -> list[str]:
    problems = []
    for h in result.history:
        if not _finite(h["loss"], h["train_loss"], h["test_loss"]):
            problems.append(f"non-finite loss at epoch {h['epoch']}")
    for key, minimum in workload.targets:
        best = max(h[key] for h in result.history)
        if best < minimum:
            problems.append(f"best {key} {best:.4f} < {minimum}")
    if reference_lines is not None and result.log_lines != reference_lines:
        problems.append("log lines differ from the first same-seed run")
    return problems


def epoch_seconds(stamps) -> list[float]:
    """Wall time of each epoch after epoch 0, from consecutive log callbacks."""
    return [b - a for a, b in zip(stamps, stamps[1:])]


def evaluate(cfg: config.RunConfig, params, splits, geoms) -> list[dict]:
    """``pointseq eval`` on both splits over prepared clouds."""
    _, train_labels, _, test_labels = splits
    n_train = len(splits[0])
    parts = ((geoms[:n_train], train_labels), (geoms[n_train:], test_labels))
    batch = cfg.train.batch_size
    if cfg.model.task == "classification":
        return [training.evaluate_classification(g, y, params, cfg.model, batch)
                for g, y in parts]
    return [training.evaluate_segmentation(g, params, cfg.model, batch) for g, _ in parts]


def save(cfg: config.RunConfig, result, directory) -> str:
    """The best snapshot written the way ``pointseq train`` writes it."""
    result.params.restore(result.best_snapshot)
    path = os.path.join(directory, "checkpoint.bin")
    model.save_checkpoint(path, result.params, cfg.model)
    return path


def reload_and_evaluate(cfg: config.RunConfig, path, splits, geoms):
    params, _ = model.load_checkpoint(path)
    return evaluate(cfg, params, splits, geoms)


def check_eval(stats: list[dict], reference: list[dict]) -> list[str]:
    problems = []
    if not _finite(*(s["loss"] for s in stats)):
        problems.append("non-finite eval loss")
    if stats != reference:
        problems.append("reloaded checkpoint evaluates differently from in-memory parameters")
    return problems


def _temp_dir():
    OUT_DIR.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=OUT_DIR)


@dataclass
class Samples:
    """Per-metric samples of one run; each metric reports their median."""

    setup_s: list
    train_clouds_per_s: list
    eval_clouds_per_s: list
    peak_rss_mb: list


def measure(workload: Workload, seed: int, seconds: float, checks: Checks) -> Samples:
    """End-to-end measurement with tracing off.

    Training repetitions alternate with blocks of set-up and reload-and-
    evaluate repetitions, so every metric draws its samples from the whole
    run rather than from one stretch of it: the speed of a shared host
    drifts over seconds. Each block lasts half as long as the training
    repetition before it, and ends by the deadline. A repetition starts only
    while the previous one of its kind still fits; after the last training
    repetition, blocks fill the rest of ``seconds``. Minimum counts hold
    however short ``seconds`` is.
    """
    cfg = workload.run_config(seed)
    deadline = time.perf_counter() + seconds
    setups, train_rates, eval_rates = [], [], []

    def set_up():
        t0 = time.perf_counter()
        splits, geoms = setup(cfg)
        setups.append(time.perf_counter() - t0)
        checks.record("setup", check_neighborhoods(
            splits[0] + splits[2], geoms, cfg, seed + len(setups)))
        return splits, geoms

    splits, geoms = set_up()
    n_train, n_eval = len(splits[0]), len(geoms)

    def reload_eval(path, in_memory):
        t0 = time.perf_counter()
        stats = reload_and_evaluate(cfg, path, splits, geoms)
        eval_rates.append(n_eval / (time.perf_counter() - t0))
        checks.record("eval", check_eval(stats, in_memory))

    def block(until, path, in_memory):
        pair = 0.0
        while (len(setups) < MIN_SETUPS or len(eval_rates) < MIN_EVALS
               or time.perf_counter() + pair <= until):
            t0 = time.perf_counter()
            reload_eval(path, in_memory)
            set_up()
            pair = time.perf_counter() - t0

    reference = None
    trains = 0
    with _temp_dir() as tmp:
        while True:
            t0 = time.perf_counter()
            result, stamps = train_once(cfg)
            last = time.perf_counter() - t0
            trains += 1
            train_rates += [n_train / s for s in epoch_seconds(stamps)]
            checks.record("train", check_training(workload, result, reference))
            if reference is None:
                reference = result.log_lines
                path = save(cfg, result, tmp)
                in_memory = evaluate(cfg, result.params, splits, geoms)
            del result
            block(min(time.perf_counter() + last / 2, deadline), path, in_memory)
            if trains >= MIN_TRAINS and time.perf_counter() + last > deadline:
                break
        block(deadline, path, in_memory)

    return Samples(setups, train_rates, eval_rates, [tracing.peak_rss_mb()])


def e2e_metrics(samples: Samples) -> dict:
    return {
        name: {"value": statistics.median(getattr(samples, name)), "unit": unit}
        for name, unit in E2E_METRICS.items()
    }


# ---------------------------------------------------------------------------
# the traced run

# (metric name, unit) in the order printed; see README.md for what each
# should move.
LAYER_METRICS = (
    ("data.synthetic_splits.s", "s"),
    ("data.clouds", "count"),
    ("data.points", "count"),
    ("geometry.farthest_point_sample.s", "s"),
    ("geometry.group_areas.s", "s"),
    ("geometry.knn_search.s", "s"),
    ("geometry.knn_search.calls", "count"),
    ("model.prepare_cloud.s", "s"),
    ("model.prepare_cloud.self_s", "s"),
    ("model.interpolation_weights.s", "s"),
    ("model.interpolation_weights.calls", "count"),
    ("model.build_params.s", "s"),
    ("model.forward_train.s", "s"),
    ("model.forward_train.self_s", "s"),
    ("model.forward_eval.s", "s"),
    ("model.forward_eval.self_s", "s"),
    ("model.save_checkpoint.s", "s"),
    ("model.load_checkpoint.s", "s"),
    ("model.checkpoint_bytes", "bytes"),
    *((f"autograd.op.{op}.{kind}", unit)
      for op in tracing.REPORTED_OPS for kind, unit in (("calls", "count"), ("s", "s"))),
    ("autograd.op.batch_norm.self_s", "s"),
    ("autograd.backward.s", "s"),
    ("autograd.nodes_created", "count"),
    ("autograd.nodes_reached", "count"),
    ("autograd.useful_node_ratio", "ratio"),
    ("training.step.s", "s"),
    ("training.step.calls", "count"),
    ("training.adam_step.s", "s"),
    ("training.cross_entropy_loss.s", "s"),
    ("training.evaluate.s", "s"),
    ("training.evaluate.calls", "count"),
    *((f"layer.{layer}.self_s", "s") for layer in tracing.LAYERS),
    ("mem.rss_after_setup_mb", "MB"),
    ("mem.peak_after_first_step_mb", "MB"),
    ("mem.peak_mb", "MB"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
)


def measure_traced(workload: Workload, seed: int, checks: Checks, trace_path=None) -> dict:
    """One traced pass (set-up, train, save, reload and evaluate), then
    untraced, traced and untraced training runs of the same seed to price
    the tracing.

    The traced pass runs first so the memory probes see a fresh process.
    Layer metrics are totals over the traced pass.
    """
    cfg = workload.run_config(seed)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        with tracer.run("setup"):
            splits, geoms = setup(cfg)
        rss_after_setup = tracing.current_rss_mb()
        with tracer.run("train"):
            traced, _ = train_once(cfg)
        with _temp_dir() as tmp:
            with tracer.run("eval"):
                path = save(cfg, traced, tmp)
                stats = reload_and_evaluate(cfg, path, splits, geoms)
            checkpoint_bytes = os.path.getsize(path)
    peak = tracing.peak_rss_mb()
    checks.record("setup", check_neighborhoods(splits[0] + splits[2], geoms, cfg, seed))
    checks.record("train", check_training(workload, traced, None))
    checks.record("eval", check_eval(stats, evaluate(cfg, traced.params, splits, geoms)))
    traced_lines = traced.log_lines
    del traced

    # The overhead compares warm runs only (the first run in a process is
    # slower, traced or not), and a traced run against the mean of the
    # untraced runs on either side of it, which cancels a steady drift in
    # the host's speed.
    def epochs_time(traced):
        with tracing.instrument(tracing.Tracer()) if traced else contextlib.nullcontext():
            result, stamps = train_once(cfg)
        checks.record("train", check_training(workload, result, traced_lines))
        return sum(epoch_seconds(stamps))

    before, traced_s, after = epochs_time(False), epochs_time(True), epochs_time(False)
    untraced_s = (before + after) / 2

    if trace_path is not None:
        tracer.write(trace_path)

    summary = tracing.summarize(tracer.spans)

    def span(name, kind="s"):
        return summary.get(name, {}).get(kind, 0)

    created = tracer.counts["autograd.nodes_created"]
    reached = tracer.counts["autograd.nodes_reached"]
    values = {
        "data.clouds": tracer.counts["data.clouds"],
        "data.points": tracer.counts["data.points"],
        "model.checkpoint_bytes": checkpoint_bytes,
        "autograd.nodes_created": created,
        "autograd.nodes_reached": reached,
        "autograd.useful_node_ratio": reached / created if created else 0.0,
        "mem.rss_after_setup_mb": rss_after_setup,
        "mem.peak_after_first_step_mb": tracer.probes.get("peak_after_first_step_mb", 0.0),
        "mem.peak_mb": peak,
        "trace.spans": len(tracer.spans),
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s if untraced_s else 0.0,
    }
    for layer, seconds in tracing.layer_self_times(summary).items():
        values[f"layer.{layer}.self_s"] = seconds
    metrics = {}
    for name, unit in LAYER_METRICS:
        if name not in values:
            span_name, kind = name.rsplit(".", 1)
            values[name] = span(span_name, kind)
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics
