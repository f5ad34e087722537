"""Spans and counts recorded from outside the pointseq package.

The benchmark never edits the package. It replaces public functions on the
package's modules with timing wrappers for the length of a ``with
instrument(tracer):`` block and puts the originals back when the block ends,
also when it ends by an exception. This works because every call inside the
package goes through a module attribute (``ag.matmul``, ``training.adam_step``,
``model.group_areas``, ...), so a wrapper installed on the attribute sees
every call, nested ones included.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from collections import Counter
from contextlib import contextmanager

# The ops an optimisation of the autograd layer is most likely to move; they
# get per-op metrics. Every other op in ``autograd.__all__`` is still wrapped,
# so its time is not billed to the caller's self time.
REPORTED_OPS = (
    "matmul", "batch_norm", "pool_rows_max", "concat", "slice_axis", "relu",
    "sigmoid", "tanh", "softmax", "mul", "add", "dropout",
)

# Public functions wrapped under a span of their own name; each entry is
# (span name, module, attribute).
PLAIN_SPANS = (
    ("geometry.farthest_point_sample", "geometry", "farthest_point_sample"),
    ("geometry.group_areas", "geometry", "group_areas"),
    ("geometry.knn_search", "geometry", "knn_search"),
    ("model.prepare_cloud", "model", "prepare_cloud"),
    ("model.interpolation_weights", "model", "interpolation_weights"),
    ("model.build_params", "model", "build_params"),
    ("model.save_checkpoint", "model", "save_checkpoint"),
    ("model.load_checkpoint", "model", "load_checkpoint"),
    ("training.train", "training", "train"),
    ("training.evaluate", "training", "evaluate_classification"),
    ("training.evaluate", "training", "evaluate_segmentation"),
    ("training.cross_entropy_loss", "training", "cross_entropy_loss"),
)

LAYERS = ("data", "geometry", "model", "autograd", "training")


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_mb() -> float:
    """Resident set size now, in MiB; the high-water mark where /proc is absent."""
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
    except (OSError, IndexError, ValueError):
        return peak_rss_mb()
    return pages * resource.getpagesize() / (1024.0 * 1024.0)


class Tracer:
    """Spans (id, name, start, end, parent id, run id) and named counts, in memory.

    Spans open and close in stack order; times are ``time.perf_counter``
    seconds. ``write`` saves everything as JSON lines once the run is over.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.probes: dict[str, float] = {}
        self.run_id = ""
        self._stack: list[list] = []
        self._next_id = 0
        self.step_open = False

    def open(self, name: str) -> int:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([span_id, name, time.perf_counter(), parent])
        return span_id

    def close(self, span_id: int) -> None:
        end = time.perf_counter()
        top = self._stack.pop()
        if top[0] != span_id:
            raise RuntimeError(f"span {top[1]!r} closed out of order")
        self.spans.append((span_id, top[1], top[2], end, top[3], self.run_id))

    @contextmanager
    def span(self, name: str):
        span_id = self.open(name)
        try:
            yield
        finally:
            self.close(span_id)

    @contextmanager
    def run(self, run_id: str):
        """A root span named ``bench.<run_id>``; spans inside carry ``run_id``."""
        self.run_id = run_id
        try:
            with self.span(f"bench.{run_id}"):
                yield
        finally:
            self.run_id = ""

    def begin_step(self) -> None:
        """Open ``training.step``; the end of the next ``adam_step`` closes it."""
        self._step_id = self.open("training.step")
        self.step_open = True

    def end_step(self) -> None:
        self.step_open = False
        self.close(self._step_id)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"counts": dict(self.counts), "probes": self.probes}) + "\n")
            for record in self.spans:
                out.write(json.dumps(record) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict = {}
    for span in spans:
        children.setdefault(span[4], []).append(span)
    out = {}
    for span_id, _name, start, end, _parent, _run in spans:
        covered = 0.0
        reach = start
        for _, _, c_start, c_end, _, _ in sorted(children.get(span_id, ()), key=lambda s: s[2]):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span_id] = (end - start) - covered
    return out


def summarize(spans) -> dict:
    """Per span name: total seconds, self seconds and call count."""
    selfs = self_times(spans)
    out: dict = {}
    for span_id, name, start, end, _parent, _run in spans:
        entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["s"] += end - start
        entry["self_s"] += selfs[span_id]
        entry["calls"] += 1
    return out


def layer_self_times(summary: dict) -> dict:
    """Self seconds summed over every span of each package layer."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for name, entry in summary.items():
        layer = name.split(".", 1)[0]
        if layer in totals:
            totals[layer] += entry["self_s"]
    return totals


def reachable_nodes(loss) -> int:
    """Graph nodes (tensors made by an op) reachable from ``loss`` via parents."""
    seen = set()
    stack = [loss]
    count = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.parents:
            count += 1
            stack.extend(node.parents)
    return count


def _package_bindings(fn):
    """Every (module, attribute) of the loaded pointseq package bound to ``fn``."""
    found = []
    for name, module in list(sys.modules.items()):
        if name == "pointseq" or name.startswith("pointseq."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    found.append((module, attr))
    return found


def _timed(tracer: Tracer, name: str, fn, before=None, after=None):
    """``fn`` inside a span; ``before`` sees the arguments, ``after`` the result."""
    def wrapper(*args, **kwargs):
        if before is not None:
            before(*args, **kwargs)
        span_id = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span_id)
        if after is not None:
            after(result)
        return result
    return wrapper


def _wrappers(tracer: Tracer):
    """(original function, wrapper) for every call the trace records."""
    from pointseq import autograd, data, geometry, model, training

    modules = {"data": data, "geometry": geometry, "model": model, "training": training}
    pairs = []
    for span_name, module, attr in PLAIN_SPANS:
        fn = getattr(modules[module], attr)
        pairs.append((fn, _timed(tracer, span_name, fn)))

    for op in autograd.__all__:
        fn = getattr(autograd, op)
        if op in ("Tensor", "tensor", "BatchNormState", "backward"):
            continue
        pairs.append((fn, _timed(tracer, f"autograd.op.{op}", fn)))

    def count_clouds(splits):
        clouds = splits[0] + splits[2]
        tracer.counts["data.clouds"] += len(clouds)
        tracer.counts["data.points"] += sum(len(c) for c in clouds)

    def count_reached(loss):
        tracer.counts["autograd.nodes_reached"] += reachable_nodes(loss)

    def end_step(_):
        if tracer.step_open:
            tracer.end_step()
            tracer.probes.setdefault("peak_after_first_step_mb", peak_rss_mb())

    for span_name, fn, before, after in (
        ("data.synthetic_splits", data.synthetic_splits, None, count_clouds),
        ("autograd.backward", autograd.backward, count_reached, None),
        ("training.adam_step", training.adam_step, None, end_step),
    ):
        pairs.append((fn, _timed(tracer, span_name, fn, before, after)))

    def forward(fn):
        # one function, two spans: training-mode calls also open the step
        def wrapper(geoms, params, cfg, ctx=None):
            training_mode = ctx is not None and ctx.training
            if training_mode and not tracer.step_open:
                tracer.begin_step()
            name = "model.forward_train" if training_mode else "model.forward_eval"
            span_id = tracer.open(name)
            try:
                return fn(geoms, params, cfg, ctx)
            finally:
                tracer.close(span_id)
        return wrapper

    for fn in (model.classify_batch, model.segment_batch):
        pairs.append((fn, forward(fn)))
    return pairs


@contextmanager
def instrument(tracer: Tracer):
    """Route the package's public calls through ``tracer`` inside the block.

    Also counts graph nodes built during training steps by wrapping
    ``Tensor.__init__``. Every replaced attribute is restored on exit.
    """
    from pointseq.autograd import Tensor

    saved = []
    try:
        for fn, wrapper in _wrappers(tracer):
            for module, attr in _package_bindings(fn):
                saved.append((module, attr, fn))
                setattr(module, attr, wrapper)

        tensor_init = Tensor.__dict__["__init__"]

        def counting_init(self, values, parents=(), grad_fn=None, trainable=False):
            tensor_init(self, values, parents, grad_fn, trainable)
            if parents and tracer.step_open:
                tracer.counts["autograd.nodes_created"] += 1

        saved.append((Tensor, "__init__", tensor_init))
        Tensor.__init__ = counting_init
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
