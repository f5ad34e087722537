"""Reverse-mode automatic differentiation on dense float64 arrays.

Operations build a DAG as they execute. ``backward`` walks the graph once in
reverse topological order and accumulates gradients into every tensor it
reaches. All gradients are exact analytic derivatives; the test suite
cross-checks them against central finite differences.
"""

from __future__ import annotations

import mmap
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, DataError, ShapeError

__all__ = [
    "Tensor",
    "tensor",
    "no_grad",
    "backward",
    "matmul",
    "add",
    "maximum",
    "tanh",
    "concat",
    "slice_axis",
    "reshape",
    "repeat_rows",
    "cross_entropy_mean",
    "BatchNormState",
    "bn_mlp",
    "lstm",
    "attend",
    "block_matmul",
]


# False inside a ``no_grad`` block: ops then record no graph edges
_recording = True


@contextmanager
def no_grad():
    """Run the block without building a graph.

    Tensors made inside have no parents and no ``grad_fn``, so an op's
    backward closure, and every array only it held, is freed as soon as the
    op returns; a training-mode :func:`bn_mlp` does not even compute what
    its backward would need. The previous mode comes back when the block
    exits, also by an exception.
    """
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


class Tensor:
    """A float64 array plus the graph edge that produced it.

    ``parents`` and ``grad_fn`` record the producing operation; leaves have
    neither, and neither does any tensor made under :func:`no_grad`.
    ``grad_fn(out_grad)`` returns one gradient array (or None) per parent:
    a new array of its own, or ``out_grad`` itself or a view of it. The
    graph is acyclic by construction, since edges only ever point at tensors
    that already exist.
    """

    __slots__ = ("values", "grad", "parents", "grad_fn", "trainable")

    def __init__(self, values, parents=(), grad_fn=None, trainable=False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self.parents = tuple(parents) if _recording else ()
        self.grad_fn = grad_fn if _recording else None
        self.trainable = trainable

    @property
    def shape(self):
        return self.values.shape

    @property
    def ndim(self):
        return self.values.ndim

    @property
    def size(self):
        return self.values.size

    def __repr__(self):
        kind = "param" if self.trainable else ("leaf" if not self.parents else "node")
        return f"Tensor(shape={self.shape}, {kind})"

    def __add__(self, other):
        return add(self, other)


def tensor(values) -> Tensor:
    """Wrap ``values`` as a leaf tensor (no gradient history)."""
    return values if isinstance(values, Tensor) else Tensor(values)


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` after a broadcast binary op."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _binary(a, b, forward, grad_a, grad_b):
    a, b = tensor(a), tensor(b)
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"operands with shapes {a.shape} and {b.shape} do not broadcast") from None
    out = forward(a.values, b.values)

    def grad_fn(g):
        return (
            _unbroadcast(grad_a(g, a.values, b.values), a.shape),
            _unbroadcast(grad_b(g, a.values, b.values), b.shape),
        )

    return Tensor(out, (a, b), grad_fn)


def add(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g)


def maximum(a, b) -> Tensor:
    """Elementwise max; on ties the gradient routes to the first operand."""
    return _binary(
        a,
        b,
        np.maximum,
        lambda g, x, y: g * (x >= y),
        lambda g, x, y: g * (x < y),
    )


def matmul(a, b) -> Tensor:
    a, b = tensor(a), tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul operands with shapes {a.shape} and {b.shape} do not align")
    out = a.values @ b.values

    def grad_fn(g):
        return g @ b.values.T, a.values.T @ g

    return Tensor(out, (a, b), grad_fn)


def tanh(x) -> Tensor:
    x = tensor(x)
    out = np.tanh(x.values)

    def grad_fn(g):
        return (g * (1.0 - out * out),)

    return Tensor(out, (x,), grad_fn)


def concat(tensors, axis=0) -> Tensor:
    """Concatenate along ``axis``; the gradient splits back at the seams."""
    parts = [tensor(t) for t in tensors]
    if not parts:
        raise ShapeError("concat of an empty sequence")
    try:
        out = np.concatenate([p.values for p in parts], axis=axis)
    except ValueError:
        shapes = [p.shape for p in parts]
        raise ShapeError(f"concat shapes {shapes} do not align on axis {axis}") from None
    bounds = np.cumsum([p.shape[axis] for p in parts])[:-1]

    def grad_fn(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, bounds, axis=axis))

    return Tensor(out, tuple(parts), grad_fn)


def slice_axis(x, axis, start, stop) -> Tensor:
    """Contiguous slice ``[start:stop)`` along ``axis``."""
    x = tensor(x)
    if not (0 <= start < stop <= x.shape[axis]):
        raise ShapeError(f"slice [{start}:{stop}) out of bounds for axis {axis} of shape {x.shape}")
    index = tuple(slice(start, stop) if i == axis else slice(None) for i in range(x.ndim))
    out = x.values[index].copy()

    def grad_fn(g):
        gx = np.zeros_like(x.values)
        gx[index] = g
        return (gx,)

    return Tensor(out, (x,), grad_fn)


def reshape(x, shape) -> Tensor:
    x = tensor(x)
    out = x.values.reshape(shape)

    def grad_fn(g):
        return (g.reshape(x.shape),)

    return Tensor(out, (x,), grad_fn)


def repeat_rows(x, times) -> Tensor:
    """Repeat each row of a 2-d tensor ``times`` times (``np.repeat`` order)."""
    x = tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"repeat_rows expects a 2-d input, got shape {x.shape}")
    if times < 1:
        raise ShapeError("repeat_rows needs times >= 1")
    out = np.repeat(x.values, times, axis=0)
    n, d = x.shape

    def grad_fn(g):
        return (g.reshape(n, times, d).sum(axis=1),)

    return Tensor(out, (x,), grad_fn)


def cross_entropy_mean(logits, targets) -> Tensor:
    """Mean of -log softmax(logits)[target] over the rows of ``logits``."""
    logits = tensor(logits)
    if logits.ndim != 2 or logits.shape[0] < 1:
        raise ShapeError(f"cross entropy expects [n, classes] logits, got shape {logits.shape}")
    targets = np.asarray(targets)
    if targets.shape != (logits.shape[0],):
        raise ShapeError(
            f"targets shape {targets.shape} does not match {logits.shape[0]} logit rows"
        )
    n, c = logits.shape
    if targets.min() < 0 or targets.max() >= c:
        raise DataError(f"target labels must lie in [0, {c}), got range "
                        f"[{targets.min()}, {targets.max()}]")
    v = logits.values
    shifted = v - v.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    rows = np.arange(n)
    losses = np.log(e.sum(axis=1)) - shifted[rows, targets]
    out = losses.mean()

    def grad_fn(g):
        gx = probs.copy()
        gx[rows, targets] -= 1.0
        return (gx * (g / n),)

    return Tensor(out, (logits,), grad_fn)


class BatchNormState:
    """Learnable per-feature affine plus running statistics for inference.

    Running statistics track the population (biased) batch moments, the same
    moments used to normalize in training mode.
    """

    def __init__(self, dim, eps=1e-5):
        self.dim = dim
        self.eps = eps
        self.gamma = Tensor(np.ones(dim), trainable=True)
        self.beta = Tensor(np.zeros(dim), trainable=True)
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)


# batch norm's running-statistic momentum, and where training's schedule of
# it starts
_BN_MOMENTUM = 0.5


# A dense stack whose widest layer holds at least _POOL_MIN_ELEMENTS elements
# runs its row-wise work in row tiles of about _TILE_ELEMENTS such elements on
# the tile scheduler; chunked work of _POOL_MIN_ELEMENTS elements or more
# (Adam's) goes on the scheduler a chunk per task
_TILE_ELEMENTS = 1 << 17
_POOL_MIN_ELEMENTS = 1 << 18

# the scheduler's helper threads, made on first need (never with one CPU); a
# forked child makes its own
_pool = None


def _forget_pool():
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _tile_pool():
    """The helper pool: one thread per CPU the process may run on beyond the
    calling thread's, made on first need; None on one CPU."""
    global _pool
    if _pool is None:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        if (cpus or 1) > 1:
            _pool = ThreadPoolExecutor(cpus - 1, thread_name_prefix="pointseq-tile")
    return _pool


def _each_tile(count, fn):
    """Call ``fn(i)`` for every task index ``i`` in ``range(count)``.

    A caller-runs scheduler: the calling thread and up to one helper per
    further CPU (never more helpers than tasks after the first) take indices
    from one shared iterator until it runs out. The calling thread then
    cancels every helper that has not started yet, so a helper the host has
    not scheduled stalls nothing, and a task that itself calls
    ``_each_tile`` cannot deadlock: its own caller works every task no helper
    takes. A single task, or any number on one CPU, runs on the calling
    thread alone and starts no thread. Each caller indexes its own list of
    tiles or runs, and a task takes its working buffers from
    :func:`_scratch`, which gives each thread its own.

    A failing task does not stop the others. The call returns once every
    started task has finished, then raises the exception of the failed task
    of lowest index, if any.
    """
    if count == 1:
        fn(0)
        return
    pool = _tile_pool()
    helpers = 0 if pool is None else min(pool._max_workers, count - 1)
    tasks = iter(range(count))
    take = threading.Lock()
    failures = []

    def run():
        while True:
            with take:
                i = next(tasks, None)
            if i is None:
                return
            try:
                fn(i)
            except Exception as exc:
                failures.append((i, exc))

    started = [pool.submit(run) for _ in range(helpers)]
    run()
    running = [future for future in started if not future.cancel()]
    wait(running)
    for future in running:
        future.result()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]


def _chunk_tiles(count, elements):
    """Runs ``[(start, stop), ...]`` over ``count`` independent chunks of work
    that hold ``elements`` elements in all: a run per chunk, each a task on
    the scheduler, from _POOL_MIN_ELEMENTS elements on; else one run of every
    chunk, on the calling thread alone."""
    return _runs(count, 1 if elements < _POOL_MIN_ELEMENTS else count)


def _row_tiles(rows, group, width):
    """Row bounds ``[(lo, hi), ...]`` for a stack of ``rows`` rows whose widest
    layer is ``width`` wide: one tile under _POOL_MIN_ELEMENTS elements, else
    tiles of whole groups of ``group`` rows, about _TILE_ELEMENTS elements
    each. No tile of several is a single row, which BLAS would multiply as a
    vector, with other rounding."""
    if rows * width < _POOL_MIN_ELEMENTS:
        return [(0, rows)]
    step = max(max(_TILE_ELEMENTS // (width * group), 1) * group, 2)
    starts = list(range(0, rows, step))
    if len(starts) > 1 and rows - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [rows]))


def _runs(count, parts):
    """``parts`` runs ``[(start, stop), ...]`` of consecutive indices that
    split ``range(count)`` as evenly as they can."""
    cuts = [k * count // parts for k in range(parts + 1)]
    return list(zip(cuts, cuts[1:]))


def _rows(buffer, n, d):
    """The first ``n * d`` elements of a contiguous buffer, as [n, d]."""
    return buffer.reshape(-1)[:n * d].reshape(n, d)


def _tile_sum(partials):
    """Per-tile partials added up along axis 0 in tile order; a single
    partial comes back as it is."""
    return partials[0] if len(partials) == 1 else np.add.reduce(partials, axis=0)


# each thread's scratch buffers by (slot, dtype): see _scratch
_held = threading.local()
# private mappings, so a forked child writes to copies of its own
_PRIVATE = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}


def _scratch(slot, n, d=1, dtype=np.float64):
    """The calling thread's scratch buffer ``slot`` of ``dtype``, as an [n, d]
    view.

    Every tile task takes its working buffers here. A thread's buffers live
    as long as the thread and only grow, so no two threads ever share one,
    and a task allocates nothing once its thread has worked a tile as large.
    The one rule: a task never uses one slot for two arrays it needs at
    once, and never runs tiled work while it holds a slot, since its own
    thread would work some of those tiles in the same buffers. Nothing in
    the program nests tiled work.

    Each buffer is an anonymous memory mapping of its own, not heap memory:
    a long-lived heap block keeps the heap from shrinking below it, so the
    large arrays of later calls would grow the heap past it.
    """
    buffers = vars(_held)
    buffer = buffers.get((slot, dtype))
    if buffer is None or len(buffer) < n * d:
        size = max(n * d, 1) * np.dtype(dtype).itemsize
        buffer = buffers[slot, dtype] = np.frombuffer(mmap.mmap(-1, size, **_PRIVATE), dtype)
    return _rows(buffer, n, d)


def _merge_moments(counts, stats):
    """The row count, mean and population variance of row tiles, from each
    tile's positive (counted) row count and ``stats[t] = (mean, sum of
    squared deviations about that mean)``.

    The tiles merge in order by the pairwise update of Chan, Golub & LeVeque
    ("Algorithms for computing the sample variance", 1983), which loses no
    precision to a mean far from zero. A single tile's moments come back as
    they are.
    """
    n = counts[0]
    mean, m2 = stats[0]
    for t in range(1, len(counts)):
        total = n + counts[t]
        share = counts[t] / total
        delta = stats[t, 0] - mean
        mean = mean + delta * share
        m2 = m2 + stats[t, 1] + delta * delta * (n * share)
        n = total
    return n, mean, m2 / n


def _stack_plan(rows, widths, pool, training, constant):
    """Every shape-only fact of a :func:`bn_mlp` call over ``rows`` rows whose
    input and layers are ``widths`` wide, worked out once, as a namespace:

    - ``steps``: each pool prefix's new rows ``(k_{t-1}, k_t)`` within a
      group, and ``group``, the groups' size k_T; no steps and groups of one
      row without a pool. Prefixes that do not strictly increase from 1, or
      a group size that does not divide the rows, raise ``ShapeError``.
    - ``tiles``: the row tiles ``[(lo, hi), ...]`` of :func:`_row_tiles`. A
      stack whose widest layer (input included) holds 2**18 or more
      elements runs in tiles of about 2**17 elements, whole groups each; a
      smaller one in one tile.

    In training mode also:

    - ``row_counts``: with two or more prefixes, how many prefixes hold each
      row, which counts it once per prefix (else None: every row counts
      once); ``counts``: each tile's counted rows.
    - ``remade``: a first layer fed by a constant, below other layers, keeps
      no [rows, width] block; each pass remakes its tiles from the input, a
      matmul 3 columns deep in the area block.
    - ``runs``: per layer, the runs of consecutive tiles that each own one
      weight-gradient partial: one run per tile, or fewer, as many as keep
      the layer's partials within an eighth of its [rows, width] block.
    - ``spends``: the backward writes every gradient over the top layer's
      normalized activations. That holds for a pooled stack whose layers,
      and whose input if it takes a gradient, are no wider than its top
      layer. Otherwise ``store`` is the width of the [rows, store] gradient
      buffer each backward allocates, the widest of those.
    """
    steps = []
    if pool is not None:
        bounds = (0, *pool)
        steps = list(zip(bounds, bounds[1:]))
        if not steps or any(b <= a for a, b in steps):
            raise ShapeError(f"pool prefixes {tuple(pool)} must strictly increase from 1")
        if rows % bounds[-1] != 0:
            raise ShapeError(f"cannot pool {rows} rows in groups of {bounds[-1]}")
    group = steps[-1][1] if steps else 1
    tiles = _row_tiles(rows, group, max(widths))
    plan = SimpleNamespace(steps=steps, group=group, tiles=tiles)
    if not training:
        return plan
    plan.row_counts = None
    counts = [hi - lo for lo, hi in tiles]
    if len(steps) > 1:
        nested = (np.arange(group)[:, None] < np.asarray(pool)).sum(axis=1)
        plan.row_counts = np.tile(nested.astype(np.float64), rows // group)
        counts = [plan.row_counts[lo:hi].sum() for lo, hi in tiles]
    plan.counts = counts
    plan.remade = constant and len(widths) > 2
    plan.runs = [_runs(len(tiles), max(1, min(len(tiles), rows // (8 * fan_in))))
                 for fan_in in widths[:-1]]
    plan.store = max(widths[1:] if constant else widths)
    plan.spends = pool is not None and plan.store == widths[-1]
    return plan


def _column_sums(rows, counted, out):
    """The column sums of ``rows`` into ``out``, row i counted ``counted[i]``
    times unless ``counted`` is None."""
    if counted is None:
        return np.add.reduce(rows, axis=0, out=out)
    return np.matmul(counted, rows, out=out)


def _beta_gamma_sums(rows_g, hat, sums, buffer):
    """A layer's beta and gamma gradients over a tile: the column sums of its
    gradient ``rows_g`` and of that times its normalized activations ``hat``
    (formed in ``buffer``), into ``sums[0]`` and ``sums[1]``."""
    np.add.reduce(rows_g, axis=0, out=sums[0])
    np.add.reduce(np.multiply(rows_g, hat, out=buffer), axis=0, out=sums[1])


def _gate(layer, lo, hi, g, positive, hat, sums, out):
    """The gradient ``g`` over a layer's output rows [lo, hi), where that
    output is ``positive`` and times its dropout mask, into ``out``; then the
    layer's beta and gamma sums over the tile."""
    np.multiply(g, positive, out=out)
    if layer.mask is not None:
        out *= layer.mask[lo:hi]
    _beta_gamma_sums(out, hat, sums, _scratch(0, hi - lo, layer.dim))


def _normalized(layer, t, lo, hi, slot, first):
    """Tile t's (rows [lo, hi)) normalized activations of a training layer.

    A layer that keeps its block holds the tile's deviations from the tile's
    mean there until pass B normalizes them in place (``first``), and the
    normalized rows after. A layer that keeps none remakes the deviations in
    scratch ``slot`` by pass A's matmul of the same input rows, minus the
    same tile mean, and normalizes them the same way.
    """
    if layer.hat is None:
        hat = np.matmul(layer.x[lo:hi], layer.weight, out=_scratch(slot, hi - lo, layer.dim))
        hat -= layer.means[t]
    else:
        hat = layer.hat[lo:hi]
        if not first:
            return hat
    if layer.offsets is not None:
        hat -= layer.offsets[t]
    hat /= layer.std
    return hat


def _activate(layer, hat, lo, hi, out):
    """relu(hat * scale + shift) over rows [lo, hi) of a layer, times its
    dropout mask there if it has one, into ``out``. Pass B, eval mode (with
    ``hat`` the matmul's output itself) and the backward's recompute of the
    layer below all run this one kernel."""
    np.multiply(hat, layer.scale, out=out)
    out += layer.shift
    np.maximum(out, 0.0, out=out)
    if layer.mask is not None:
        out *= layer.mask[lo:hi]
    return out


def _pool_groups(blocks, first, steps, out, winners):
    """Max-pool the groups ``first, first + 1, ...`` whose last outputs
    ``blocks`` holds as [groups, group, d] into ``out[t]`` per prefix t and,
    unless ``winners`` is None, each output's winning row, counted from the
    stack's first row, into ``winners[t]``.

    Every output is >= +0 after the relu (or NaN), so its max is the
    winner's value bit for bit. The winners come from each window's
    transpose in scratch slot 1, which pass B leaves free: argmax over a
    last axis makes no temporary.
    """
    n, group, d = blocks.shape
    s = slice(first, first + n)
    for t, (k0, k1) in enumerate(steps):
        window = blocks[:, k0:k1]
        if winners is not None:
            moved = _scratch(1, n * d, k1 - k0).reshape(n, d, k1 - k0)
            np.copyto(moved, window.transpose(0, 2, 1))
            found = np.argmax(moved, axis=2, out=winners[t, s])
            found += (np.arange(first, first + n) * group + k0)[:, None]
        np.max(window, axis=1, out=out[t, s])
        if t:
            np.maximum(out[t - 1, s], out[t, s], out=out[t, s])


def _route(g, out):
    """The pooled gradient ``g`` owed to each prefix's winning row, times the
    last relu's mask there, read from the pooled output ``out``: both
    [prefixes, groups, d], the result [groups, prefixes, d].

    Walking the prefixes from the longest down, ``carry`` is the gradient
    owed to prefix t's running max, which either rows [k_{t-1}, k_t) or the
    shorter prefix won.
    """
    prefixes, m, d = out.shape
    owed = np.empty((m, prefixes, d))
    carry = g[-1].copy()
    for t in range(prefixes - 1, -1, -1):
        won = owed[:, t]
        if t:
            took = out[t] > out[t - 1]
            won[...] = 0.0
            np.copyto(won, carry, where=took)
            np.copyto(carry, 0.0, where=took)
            carry += g[t - 1]
        else:
            won[...] = carry
        won *= out[t] > 0.0
    return owed


def bn_mlp(x, layers, training=False, momentum=_BN_MOMENTUM, dropout=0.0, rng=None,
           pool=None) -> Tensor:
    """A stack of dense layers as one graph node.

    Each ``(weight, state)`` pair in ``layers`` is a layer: a matmul by
    ``weight``, batch norm with the :class:`BatchNormState` ``state``, relu
    (subgradient 0 at 0), and in training mode at a positive ``dropout``
    ratio, inverted dropout: a mask drawn from ``rng`` and scaled by
    1/(1-ratio), so a fixed generator state fixes the mask.

    Batch norm follows Ioffe & Szegedy (arXiv 1502.03167). Training mode
    normalizes by the batch moments and folds them into the running
    statistics with weight ``momentum``; eval mode uses the running
    statistics. A constant batch normalizes to the shift parameter exactly.

    ``pool=(k_1, ..., k_T)``, strictly increasing, max-pools the last layer's
    output over groups of k_T consecutive rows (k_T must divide the rows):
    for each k_t, the max over every group's first k_t rows. The result
    stacks one [rows/k_T, d] block per prefix, in order. Prefix t extends
    prefix t-1's max by rows [k_{t-1}, k_t), and a later row wins only when
    strictly greater, so ties go to the lowest row. The prefixes are nested
    areas, so training mode counts row j of a group once per prefix that
    holds it: moments, outputs and gradients are those of every prefix's
    rows stacked, run unpooled, then max-pooled per prefix.

    Parents are ``x``, then each layer's weight, gamma and beta. An ``x``
    passed as a plain array, not a :class:`Tensor`, is a constant: it is no
    parent, and the backward skips the first layer's input-gradient matmul.

    :func:`_stack_plan` decides the row tiles, the row counts, the kept
    blocks, the weight-gradient runs and the gradient buffer from the shapes
    alone. A tile task, on the caller-runs scheduler :func:`_each_tile`,
    writes only its own rows of arrays allocated before it, its thread's
    :func:`_scratch` buffers, and its own tile's partial results.

    In training mode a layer takes two passes over the tiles. Pass A
    multiplies the tile by the weight and, while the tile is in cache, takes
    its (counted) mean, leaves the deviations from that mean in place of
    the product, and sums their squares. The calling thread merges the
    tiles' moments (:func:`_merge_moments`), updates the running statistics
    and draws the dropout mask. Pass B normalizes each tile's deviations in
    place and runs :func:`_activate` into scratch. It shares a task with the
    next layer's pass A, and the last layer's pass B writes the output or,
    pooled, pools straight from scratch, so no layer's full output exists
    but an unpooled stack's result. A layer that keeps no block remakes its
    tiles from the input (:func:`_normalized`).

    Per layer the node keeps only the normalized activations, the batch-norm
    affine and the dropout mask, and with a pool the winning row of every
    output. The backward recomputes each layer's output from those and
    repeats no matmul but a remade layer's: the activation recomputation of
    Chen et al. (arXiv 1604.06174). It reads where the last relu passed from
    the output (a pooled one at each winning row), which is positive exactly
    where that relu's input was and dropout kept the element.

    The backward takes one pass per layer over one gradient buffer, in which
    each tile owns its own rows. A tile assembles its ``dz`` in scratch from
    the gradient there, recomputes the layer below's activations over that
    gradient, and adds their product into its run's weight-gradient
    partial. Then it writes ``dz @ W.T``, times the lower relu and dropout
    masks, over the activations, and takes the lower layer's partial beta
    and gamma sums. A pooled top layer takes its sums from the pool winners
    alone, and each of its tiles spreads the winners' gradients over zeros
    in scratch. The calling thread adds all partials in tile order. Where
    the plan ``spends`` the top layer's activations as that buffer (a tile
    reads its rows of them before it writes there), in the spirit of
    In-Place Activated BatchNorm (Rota Bulo et al., CVPR 2018), the backward
    runs once: a second raises ``RuntimeError``.

    So a training result depends only on the shapes: it is the same bits
    for any number of threads and any order in which the tiles run. A stack
    of one tile does the arithmetic of whole-array operations, op for op;
    only a pooled top layer's sums over the pool winners may give an exact
    zero another sign than a sum over every row.

    Eval mode needs no column reduction, so one task per tile takes the tile
    through every layer and the pool, alternating between two scratch slots,
    and writes only the output rows: the same bits with or without a graph.
    At inference batch norm is a fixed affine map that nothing is trained
    through, so eval mode keeps nothing, and neither does any mode under
    :func:`no_grad`. A recorded eval-mode node still has the parents above,
    and its backward raises ``RuntimeError``, so a backward through it
    cannot silently leave the stack's parameters out.
    """
    constant = not isinstance(x, Tensor)
    x_values = np.asarray(x, dtype=np.float64) if constant else x.values
    if x_values.ndim != 2:
        raise ShapeError(f"a dense stack expects a 2-d input, got shape {x_values.shape}")
    if not layers:
        raise ShapeError("a dense stack needs at least one layer")
    rows, width = x_values.shape
    widths = [width]
    for weight, state in layers:
        if weight.ndim != 2 or weight.shape != (widths[-1], state.dim):
            raise ShapeError(f"layer weight of shape {weight.shape} does not map width "
                             f"{widths[-1]} to batch norm width {state.dim}")
        widths.append(state.dim)
    if not 0.0 <= dropout < 1.0:
        raise ConfigError(f"dropout ratio must be in [0, 1), got {dropout}")
    drop = training and dropout > 0.0
    if drop and rng is None:
        raise ValueError("dropout in training mode needs an rng")
    plan = _stack_plan(rows, widths, pool, training, constant)
    tiles, steps, group, d = plan.tiles, plan.steps, plan.group, widths[-1]
    keep = _recording and training
    if pool is None:
        a = np.empty((rows, d))
    else:
        out = np.empty((len(steps), rows // group, d))
        winners = np.empty(out.shape, dtype=np.intp) if keep else None
        a = out.reshape(-1, d)

    if training:
        # one record per layer; its relu input is hat * scale + shift
        saved = []
        for i, (weight, state) in enumerate(layers):
            below = saved[-1] if saved else None
            z = None if i == 0 and plan.remade else np.empty((rows, state.dim))
            stats = np.empty((len(tiles), 2, state.dim))

            def pass_a(t):
                # the layer below's pass B, then this layer's pass A; a layer
                # that keeps no block centres its tile in scratch slot 1
                lo, hi = tiles[t]
                rows_a = x_values[lo:hi]
                if below is not None:
                    rows_a = _activate(below, _normalized(below, t, lo, hi, 1, True), lo, hi,
                                       _scratch(0, hi - lo, below.dim))
                rows_z = np.matmul(rows_a, weight.values,
                                   out=_scratch(1, hi - lo, state.dim) if z is None else z[lo:hi])
                counted = None if plan.row_counts is None else plan.row_counts[lo:hi]
                mean, m2 = stats[t]
                _column_sums(rows_z, counted, mean)
                mean /= plan.counts[t]
                rows_z -= mean
                # the layer below's output is used up: its slot takes the squares
                _column_sums(np.multiply(rows_z, rows_z, out=_scratch(0, hi - lo, state.dim)),
                             counted, m2)

            _each_tile(len(tiles), pass_a)
            total, mean, var = _merge_moments(plan.counts, stats)
            state.running_mean = (1.0 - momentum) * state.running_mean + momentum * mean
            state.running_var = (1.0 - momentum) * state.running_var + momentum * var
            std = np.sqrt(var + state.eps)
            inv_std = 1.0 / std
            mask = None
            if drop:
                mask = (rng.random((rows, state.dim)) >= dropout) / (1.0 - dropout)
            # ``offsets``: what each tile's deviations lack of those from the
            # stack's mean
            saved.append(SimpleNamespace(
                weight=weight.values, dim=state.dim, x=x_values, hat=z, means=stats[:, 0],
                offsets=None if len(tiles) == 1 else mean - stats[:, 0], std=std,
                scale=state.gamma.values.copy(), shift=state.beta.values.copy(),
                gain=state.gamma.values * inv_std, mask=mask))
        top = saved[-1]

        def pass_b(t):
            lo, hi = tiles[t]
            rows_y = _activate(top, _normalized(top, t, lo, hi, 1, True), lo, hi,
                               a[lo:hi] if pool is None else _scratch(0, hi - lo, d))
            if pool is not None:
                _pool_groups(rows_y.reshape(-1, group, d), lo // group, steps, out, winners)

        _each_tile(len(tiles), pass_b)
    else:
        # batch norm is one fixed scale and shift per column, so each tile
        # runs through every layer and the pool while it is in cache
        affine = []
        for weight, state in layers:
            scale = state.gamma.values * (1.0 / np.sqrt(state.running_var + state.eps))
            affine.append(SimpleNamespace(weight=weight.values, dim=state.dim, scale=scale,
                                          shift=state.beta.values - state.running_mean * scale,
                                          mask=None))
        # every layer but an unpooled last one writes its tile into scratch
        # slot 0 or 1, alternating
        buffered = len(layers) - (pool is None)

        def eval_tile(t):
            lo, hi = tiles[t]
            rows_a = x_values[lo:hi]
            for i, layer in enumerate(affine):
                rows_y = _scratch(i % 2, hi - lo, layer.dim) if i < buffered else a[lo:hi]
                rows_a = _activate(layer, np.matmul(rows_a, layer.weight, out=rows_y), lo, hi,
                                   rows_y)
            if pool is not None:
                _pool_groups(rows_a.reshape(-1, group, d), lo // group, steps, out, None)

        _each_tile(len(tiles), eval_tile)
    parents = [] if constant else [x]
    for weight, state in layers:
        parents += (weight, state.gamma, state.beta)
    if not keep:
        # a recorded eval-mode node keeps its parents, so a backward through
        # it raises instead of skipping the stack's parameters
        return Tensor(a, parents, _forward_only)

    spent = False

    def grad_fn(g):
        nonlocal spent
        # tile [lo, hi) reads its layer's gradient in the buffer's rows [lo,
        # hi) as [hi - lo, width], then writes the layer below's over it; the
        # input gradient, last, takes the buffer's first columns
        if plan.spends:
            if spent:
                raise RuntimeError("bn_mlp: a pooled training stack's backward spends its saved "
                                   "activations, so it runs only once; run the forward again")
            spent = True
            store = top.hat
        else:
            store = np.empty((rows, plan.store))

        if pool is None:
            sums = np.empty((len(tiles), 2, d))

            def gate_top(t):
                # the last relu's and dropout's masks on the gradient handed
                # in; the output is positive exactly where both passed
                lo, hi = tiles[t]
                positive = np.greater(a[lo:hi], 0.0, out=_scratch(0, hi - lo, d, bool))
                _gate(top, lo, hi, g[lo:hi], positive, top.hat[lo:hi], sums[t],
                      _rows(store[lo:hi], hi - lo, d))

            _each_tile(len(tiles), gate_top)
        else:
            owed, columns = _route(g.reshape(out.shape), out), np.arange(d)
            hats = np.empty_like(owed)
            for t in range(len(steps)):
                if top.mask is not None:
                    owed[:, t] *= top.mask[winners[t], columns]
                hats[:, t] = top.hat[winners[t], columns]
            sums = np.empty((1, 2, d))
            hats = hats.reshape(-1, d)
            _beta_gamma_sums(owed.reshape(-1, d), hats, sums[0], hats)
            del hats
        dbeta, dgamma = _tile_sum(sums)

        param_grads = []
        gx = None
        for i in range(len(saved) - 1, -1, -1):
            layer, runs = saved[i], plan.runs[i]
            lower = saved[i - 1] if i else None
            gamma_share, beta_share = dgamma / total, dbeta / total
            partials = np.empty((len(runs), widths[i], layer.dim))
            if lower is not None:
                sums = np.empty((len(tiles), 2, lower.dim))
            elif not constant:
                gx = store[:, :widths[0]]

            def layer_pass(k):
                first, stop = runs[k]
                for t in range(first, stop):
                    lo, hi = tiles[t]
                    n = hi - lo
                    if layer is top and pool is not None:
                        # each owed gradient at its winning row, zero elsewhere,
                        # in scratch slot 1, as the buffer may be the
                        # activations read below
                        rows_g = _scratch(1, n, d)
                        rows_g[...] = 0.0
                        s = slice(lo // group, hi // group)
                        for step in range(len(steps)):
                            rows_g[winners[step, s] - lo, columns] = owed[s, step]
                    else:
                        rows_g = _rows(store[lo:hi], n, layer.dim)
                    # the batch moments depend on the input as well: remove the
                    # gradient's (counted) column mean and its component along
                    # the normalized column
                    dz = np.multiply(_normalized(layer, t, lo, hi, 2, False), gamma_share,
                                     out=_scratch(0, n, layer.dim))
                    dz += beta_share
                    if plan.row_counts is not None:
                        dz *= plan.row_counts[lo:hi, None]
                    np.subtract(rows_g, dz, out=dz)
                    dz *= layer.gain
                    if lower is None:
                        rows_a = x_values[lo:hi]
                    else:
                        # the layer below's output, over the rows of the
                        # gradient just used, and where it is positive
                        lower_hat = _normalized(lower, t, lo, hi, 2, False)
                        rows_a = _activate(lower, lower_hat, lo, hi,
                                           _rows(store[lo:hi], n, lower.dim))
                        positive = np.greater(rows_a, 0.0, out=_scratch(0, n, lower.dim, bool))
                    if t == first:
                        np.matmul(rows_a.T, dz, out=partials[k])
                    else:
                        partials[k] += np.matmul(rows_a.T, dz,
                                                 out=_scratch(1, widths[i], layer.dim))
                    if lower is not None:
                        # the layer below's gradient, over its output
                        _gate(lower, lo, hi, np.matmul(dz, layer.weight.T, out=rows_a), positive,
                              lower_hat, sums[t], rows_a)
                    elif gx is not None:
                        np.matmul(dz, layer.weight.T, out=gx[lo:hi])

            _each_tile(len(runs), layer_pass)
            param_grads[:0] = (_tile_sum(partials), dgamma, dbeta)
            del partials
            if lower is not None:
                dbeta, dgamma = _tile_sum(sums)
        return tuple(param_grads) if constant else (gx, *param_grads)

    return Tensor(a, parents, grad_fn)


def _forward_only(g):
    # the backward of a recorded eval-mode bn_mlp node
    raise RuntimeError("bn_mlp: an eval-mode stack is forward-only and keeps nothing for a "
                       "backward; run it in training mode to take gradients")


def _sigmoid(v):
    # with e = exp(-|v|) <= 1, max(e, v >= 0) is 1 for v >= 0 and e = exp(v)
    # otherwise, so each sign gets its overflow-free textbook form,
    # 1/(1+exp(-v)) or exp(v)/(1+exp(v)), without a select
    e = np.abs(v)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, v >= 0)
    e += 1.0
    out /= e
    return out


def lstm(x, steps, weight, bias) -> Tensor:
    """A whole LSTM sequence from a zero state as one graph node.

    ``x`` stacks the steps' inputs by step: with r = rows/steps, rows
    [t*r, (t+1)*r) are step t's. Each step computes z = [h | x_t] @ weight +
    bias, whose four column blocks are the input, forget and output gates
    (sigmoid) and the candidate (tanh); then c = i*g + f*c and h = o*tanh(c)
    (Hochreiter & Schmidhuber, 1997). The result stacks every step's hidden
    state the same way: [steps*r, hidden].

    A one-step weight, [width, 3*hidden] with a [3*hidden] bias, leaves out
    the recurrent rows and the forget block, which a first step from the
    zero state never uses: z = x @ weight + bias and c = i*g. It raises
    ShapeError unless ``steps == 1``.

    Per step the node keeps the gate activations, c_{t-1} and tanh(c_t).
    The forward and the backward each build every step's matmul input
    [h_{t-1} | x_t] in one buffer made once per call; the backward rebuilds
    it from the input and the node's own output, and runs backpropagation
    through time in closed form. Parents are ``x``, ``weight`` and
    ``bias``. Under :func:`no_grad` nothing is kept.
    """
    x, weight, bias = tensor(x), tensor(weight), tensor(bias)
    if x.ndim != 2 or steps < 1 or x.shape[0] % steps:
        raise ShapeError(f"cannot split input of shape {x.shape} into {steps} steps")
    rows, width = x.shape[0] // steps, x.shape[1]
    # a one-step weight has no recurrent rows and no forget block
    one_step = weight.ndim == 2 and weight.shape[0] == width
    blocks = 3 if one_step else 4
    h = weight.shape[-1] // blocks
    lead = 0 if one_step else h
    if weight.shape != (lead + width, blocks * h) or bias.shape != (blocks * h,):
        raise ShapeError(f"lstm weight {weight.shape} and bias {bias.shape} do not fit "
                         f"input width {width}")
    if one_step and steps != 1:
        raise ShapeError(f"a one-step lstm weight {weight.shape} cannot run {steps} steps")
    # column offsets of the output gate and the candidate
    out_gate, cand = (blocks - 2) * h, (blocks - 1) * h
    keep = _recording
    out = np.empty((steps * rows, h))
    # [h_{t-1} | x_t], rebuilt in place every step
    joined = np.zeros((rows, lead + width))
    z = np.empty((rows, blocks * h))
    cell = np.zeros((rows, h))
    saved = []
    for t in range(steps):
        joined[:, lead:] = x.values[t * rows:(t + 1) * rows]
        np.matmul(joined, weight.values, out=z)
        z += bias.values
        gates = _sigmoid(z[:, :cand])
        candidate = np.tanh(z[:, cand:])
        prev_cell = cell
        cell = gates[:, :h] * candidate
        if not one_step:
            cell += gates[:, h:2 * h] * prev_cell
        tanh_cell = np.tanh(cell)
        hidden = np.multiply(gates[:, out_gate:], tanh_cell, out=out[t * rows:(t + 1) * rows])
        if t + 1 < steps:
            joined[:, :h] = hidden
        if keep:
            saved.append((gates, candidate, prev_cell, tanh_cell))
    if not keep:
        return Tensor(out)

    def grad_fn(g):
        gx = np.empty_like(x.values)
        gw = np.zeros_like(weight.values)
        gb = np.zeros_like(bias.values)
        dh = np.zeros((rows, h))
        dc = np.zeros((rows, h))
        dz = np.empty((rows, blocks * h))
        joined = np.empty((rows, lead + width))
        for t in range(steps - 1, -1, -1):
            gates, candidate, prev_cell, tanh_cell = saved[t]
            dh += g[t * rows:(t + 1) * rows]
            dc += dh * gates[:, out_gate:] * (1.0 - tanh_cell * tanh_cell)
            # d/dz of each block: the gates' partials, then the sigmoid and
            # tanh derivatives
            np.multiply(dc, candidate, out=dz[:, :h])
            if not one_step:
                np.multiply(dc, prev_cell, out=dz[:, h:2 * h])
            np.multiply(dh, tanh_cell, out=dz[:, out_gate:cand])
            np.multiply(dc, gates[:, :h], out=dz[:, cand:])
            dz[:, :cand] *= gates
            dz[:, :cand] *= 1.0 - gates
            dz[:, cand:] *= 1.0 - candidate * candidate
            if t:
                joined[:, :h] = out[(t - 1) * rows:t * rows]
                dc *= gates[:, h:2 * h]
            else:
                joined[:, :lead] = 0.0
            joined[:, lead:] = x.values[t * rows:(t + 1) * rows]
            gw += joined.T @ dz
            gb += dz.sum(axis=0)
            d_joined = dz @ weight.values.T
            gx[t * rows:(t + 1) * rows] = d_joined[:, lead:]
            dh = d_joined[:, :lead]
        return gx, gw, gb

    return Tensor(out, (x, weight, bias), grad_fn)


def attend(query, states, score_weight):
    """Content attention of each query row over its encoder states.

    ``states`` stacks one block of one row per query row for each step, as
    :func:`lstm` returns them, so the steps are its rows over the query's;
    states that do not split into whole steps raise ``ShapeError``. Row i
    scores step t with the bilinear "general" form (query_i @ score_weight)
    . state_{t,i} of Luong et al. (arXiv 1508.04025), takes a max-shifted
    softmax over steps, and averages its states with those weights.

    Returns ``(context, alpha)``: the [rows, hidden] context as one graph
    node with parents ``query``, ``states`` and ``score_weight``, and the
    [rows, steps] weights as a plain array. The node keeps the projected
    query and the weights; under :func:`no_grad` it keeps nothing.
    """
    query, states, score_weight = tensor(query), tensor(states), tensor(score_weight)
    if query.ndim != 2 or states.ndim != 2 or score_weight.ndim != 2:
        raise ShapeError("attention expects 2-d query, states and score weight")
    rows, width = query.shape
    steps = states.shape[0] // max(rows, 1)
    if (steps < 1 or states.shape[0] != steps * rows
            or score_weight.shape != (width, states.shape[1])):
        raise ShapeError(f"cannot attend from query {query.shape} through score weight "
                         f"{score_weight.shape} over whole steps of states {states.shape}")
    blocks = states.values.reshape(steps, rows, -1)
    projected = query.values @ score_weight.values
    scores = (blocks * projected).sum(axis=2).T
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    alpha = e / e.sum(axis=1, keepdims=True)
    context = (alpha.T[:, :, None] * blocks).sum(axis=0)
    if not _recording:
        return Tensor(context), alpha

    def grad_fn(g):
        d_alpha = (blocks * g).sum(axis=2).T
        d_scores = alpha * (d_alpha - (d_alpha * alpha).sum(axis=1, keepdims=True))
        d_projected = (d_scores.T[:, :, None] * blocks).sum(axis=0)
        g_states = alpha.T[:, :, None] * g
        g_states += d_scores.T[:, :, None] * projected
        return (d_projected @ score_weight.values.T, g_states.reshape(states.shape),
                query.values.T @ d_projected)

    return Tensor(context, (query, states, score_weight), grad_fn), alpha


def block_matmul(matrices, x) -> Tensor:
    """Each consecutive row block of ``x`` multiplied on the left by its own
    constant matrix, stacked in order, as one graph node.

    Matrix i of shape [n_i, m_i] takes the next m_i rows of ``x``; the result
    has sum n_i rows. Only ``x`` is a parent. No block-diagonal matrix is
    built, so the blocks may differ in size at the cost of one matmul each.
    """
    x = tensor(x)
    if x.ndim != 2 or any(np.ndim(w) != 2 for w in matrices):
        raise ShapeError("block_matmul expects a 2-d input and 2-d matrices")
    starts = np.cumsum([0] + [w.shape[1] for w in matrices])
    if starts[-1] != x.shape[0]:
        raise ShapeError(f"matrices spanning {starts[-1]} rows do not fit input {x.shape}")
    out_starts = np.cumsum([0] + [w.shape[0] for w in matrices])
    out = np.empty((out_starts[-1], x.shape[1]))
    for w, lo, hi, out_lo, out_hi in zip(matrices, starts, starts[1:], out_starts,
                                         out_starts[1:]):
        np.matmul(w, x.values[lo:hi], out=out[out_lo:out_hi])

    def grad_fn(g):
        gx = np.empty_like(x.values)
        for w, lo, hi, out_lo, out_hi in zip(matrices, starts, starts[1:], out_starts,
                                             out_starts[1:]):
            np.matmul(w.T, g[out_lo:out_hi], out=gx[lo:hi])
        return (gx,)

    return Tensor(out, (x,), grad_fn)


def _topo_order(root):
    # two-phase DFS; marking at pop time keeps parents ahead of children
    # even when several consumers share a parent
    order = []
    done = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in done:
            continue
        done.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in done:
                stack.append((parent, False))
    return order


def backward(loss) -> None:
    """Accumulate d(loss)/d(tensor) into ``.grad`` of every leaf reachable
    from ``loss`` (every tensor without a ``grad_fn``, parameters included).

    ``loss`` must be a scalar. Gradients add into any existing ``.grad``
    buffers, so repeated calls without zeroing accumulate, except through a
    pooled training :func:`bn_mlp` stack that writes its gradients over its
    saved activations: a second call through one raises ``RuntimeError``.
    An eval-mode :func:`bn_mlp` stack is forward-only: a call that reaches
    one raises ``RuntimeError``.
    Intermediate nodes keep ``.grad`` unset: each one's gradient is dropped
    as soon as its ``grad_fn`` has used it.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
    order = _topo_order(loss)
    grads = {id(loss): np.ones_like(loss.values)}
    # ids whose buffer no other gradient shares: a new array from a
    # ``grad_fn``, or a sum this walk made. A view of the gradient its
    # producer received (``add`` hands that one array to both parents,
    # ``reshape`` and ``concat`` pass views of it) may be shared, so it is
    # never added into, and a leaf keeps a copy of it
    owned = {id(loss)}
    for node in reversed(order):
        if node.grad_fn is None:
            continue
        g = grads.pop(id(node), None)
        if g is None:
            continue
        for parent, pg in zip(node.parents, node.grad_fn(g)):
            if pg is None:
                continue
            key = id(parent)
            acc = grads.get(key)
            if acc is None:
                grads[key] = pg
                if not np.may_share_memory(pg, g):
                    owned.add(key)
            elif key in owned:
                acc += pg
            else:
                grads[key] = acc + pg
                owned.add(key)
    for node in order:
        g = grads.get(id(node))
        if g is None:
            continue
        if node.grad is not None:
            node.grad = node.grad + g
        else:
            node.grad = g if id(node) in owned else np.array(g)
