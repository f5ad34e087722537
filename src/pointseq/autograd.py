"""Reverse-mode automatic differentiation on dense float64 arrays.

Operations build a DAG as they execute. ``backward`` walks the graph once in
reverse topological order and accumulates gradients into every tensor it
reaches. All gradients are exact analytic derivatives; the test suite
cross-checks them against central finite differences.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager

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
    op returns; :func:`bn_mlp` does not even compute what its backward would
    need. An eval-mode :func:`bn_mlp` then holds no full-size intermediate at
    all: each row tile passes through every layer and the pool in scratch
    buffers of its own tile's size, one pair for the calling thread and one
    for each helper thread of the tile scheduler. The previous mode comes
    back when the block exits, also by an exception.
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

    __radd__ = __add__

    def __matmul__(self, other):
        return matmul(self, other)


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


# A dense stack whose widest layer holds at least _POOL_MIN_ELEMENTS elements
# runs its row-wise work in row tiles of about _TILE_ELEMENTS such elements on
# the tile scheduler, and splits each weight gradient into blocks of
# _GRAD_COLUMNS output columns; chunked work of _POOL_MIN_ELEMENTS elements or
# more (Adam's) goes on the scheduler a chunk per tile
_TILE_ELEMENTS = 1 << 17
_POOL_MIN_ELEMENTS = 1 << 18
_GRAD_COLUMNS = 64

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


def _each_tile(bounds, fn, scratch=None):
    """Call ``fn(lo, hi)`` for every ``(lo, hi)`` in ``bounds``.

    A caller-runs scheduler: the calling thread and up to one helper per
    further CPU (never more helpers than tiles after the first) take tiles
    from one shared iterator until it runs out. The calling thread then
    cancels every helper that has not started yet, so a helper the host has
    not scheduled stalls nothing, and a tile that itself calls
    ``_each_tile`` cannot deadlock: its own caller works every tile no helper
    takes. A single tile, or any number on one CPU, runs on the calling
    thread alone and starts no thread.

    With ``scratch``, a function of no arguments, the calling thread makes
    one ``scratch()`` per runner before any tile runs, and each runner calls
    ``fn(lo, hi, s)`` with its own ``s`` for every tile it takes, so tile
    tasks need allocate nothing.

    A failing tile does not stop the others. The call returns once every
    started tile has finished, then raises the exception of the first
    failed tile in ``bounds`` order, if any.
    """
    if len(bounds) == 1:
        fn(*bounds[0], *(() if scratch is None else (scratch(),)))
        return
    pool = _tile_pool()
    helpers = 0 if pool is None else min(pool._max_workers, len(bounds) - 1)
    own = [() if scratch is None else (scratch(),) for _ in range(helpers + 1)]
    tiles = iter(enumerate(bounds))
    take = threading.Lock()
    failures = []

    def run():
        with take:
            extra = own.pop()
        while True:
            with take:
                tile = next(tiles, None)
            if tile is None:
                return
            i, (lo, hi) = tile
            try:
                fn(lo, hi, *extra)
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
    """Tile bounds over ``count`` independent chunks of work that hold
    ``elements`` elements in all: one tile per chunk, worked on the
    scheduler, from _POOL_MIN_ELEMENTS elements on; else one tile of every
    chunk, on the calling thread alone."""
    if elements < _POOL_MIN_ELEMENTS:
        return [(0, count)]
    return [(k, k + 1) for k in range(count)]


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


def bn_mlp(x, layers, training=False, momentum=0.5, weights=None, dropout=0.0, rng=None,
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
    ``weights`` (one non-negative count per row) make training mode treat
    row j as ``weights[j]`` identical rows, so moments, outputs and gradients
    equal those of the batch with every row repeated; eval mode ignores them.

    ``pool=(group, prefixes)`` max-pools the last layer's output over groups
    of ``group`` consecutive rows: for each ``k`` in ``prefixes`` (strictly
    increasing, at most ``group``), the max over every group's first ``k``
    rows. The result stacks one [rows/group, d] block per prefix, in order.
    Prefix t extends prefix t-1's max by rows [k_{t-1}, k_t), and a later
    row wins only when strictly greater, so ties go to the lowest row.

    Per layer the node keeps only the normalized activations (the matmul
    output in eval mode), the batch-norm affine and the dropout mask; with a
    pool it keeps the winning row of every output, not the last activations.
    The backward recomputes each layer's output from those in one
    elementwise pass and never repeats a matmul: the activation
    recomputation of Chen et al. (arXiv 1604.06174). A pooled stack reads
    its last relu's mask at each winning row from the pooled output, which
    is positive exactly where that relu's input was, so it recomputes no
    last-layer activations at all. Parents are ``x``, then each layer's
    weight, gamma and beta. An ``x`` passed as a plain array, not a
    :class:`Tensor`, is a constant: it is no parent, and the backward skips
    the first layer's input-gradient matmul. Under :func:`no_grad` nothing
    is kept.

    A stack whose widest layer (input included) holds 2**18 or more
    elements runs its row-wise work in row tiles of about 2**17 elements,
    whole pool groups each, on the caller-runs tile scheduler
    (:func:`_each_tile`): the calling thread works the tiles together with
    one helper thread per further CPU the process may run on. That covers
    the matmuls, centring and squaring, the affine, relu and dropout, the
    pool, the gradient routing and the batch-norm backward. Tile tasks
    store their results only in arrays allocated before them. The column
    reductions (batch moments, beta and gamma gradients) stay on the calling
    thread in one pass each, dropout masks are drawn there, weight gradients
    split by blocks of 64 output columns, and the tiles depend only on the
    shapes, so the result is the same bits for any number of threads, and
    the same as one tile wherever BLAS rounds a product independently of how
    many rows or column blocks it is given. Smaller stacks are one tile on
    the calling thread.

    Eval mode needs no column reduction, so one task per tile takes the tile
    through every layer's matmul, scale and shift and relu, then the pool,
    and writes only the output rows (plus, when a graph is recorded, each
    layer's matmul output and the pool's winners). A layer's tile goes into
    one of two alternating scratch buffers, of the largest tile's size; the
    scheduler makes one pair per runner (the calling thread and each helper)
    before any tile runs. The tile bounds are the ones above, so the result
    is the same bits with or without a graph and for any number of threads.
    """
    constant = not isinstance(x, Tensor)
    x_values = np.asarray(x, dtype=np.float64) if constant else x.values
    if x_values.ndim != 2:
        raise ShapeError(f"a dense stack expects a 2-d input, got shape {x_values.shape}")
    if not layers:
        raise ShapeError("a dense stack needs at least one layer")
    rows, width = x_values.shape
    widest = width
    for weight, state in layers:
        if weight.ndim != 2 or weight.shape != (width, state.dim):
            raise ShapeError(f"layer weight of shape {weight.shape} does not map width "
                             f"{width} to batch norm width {state.dim}")
        width = state.dim
        widest = max(widest, width)
    if weights is not None and np.shape(weights) != (rows,):
        raise ShapeError(f"batch norm weights of shape {np.shape(weights)} do not match "
                         f"{rows} rows")
    if not 0.0 <= dropout < 1.0:
        raise ConfigError(f"dropout ratio must be in [0, 1), got {dropout}")
    drop = training and dropout > 0.0
    if drop and rng is None:
        raise ValueError("dropout in training mode needs an rng")
    group = 1
    if pool is not None:
        group, prefixes = pool
        if group < 1 or rows % group != 0:
            raise ShapeError(f"cannot pool {rows} rows in groups of {group}")
        # prefix t extends prefix t-1's max by rows [k_{t-1}, k_t)
        bounds = (0, *prefixes)
        steps = list(zip(bounds, bounds[1:]))
        if not steps or any(b <= a for a, b in steps) or bounds[-1] > group:
            raise ShapeError(f"prefixes {tuple(prefixes)} must strictly increase within "
                             f"groups of {group}")

    keep = _recording
    total = rows if weights is None else weights.sum()
    tiles = _row_tiles(rows, group, widest)
    if pool is not None:
        m, d = rows // group, width
        out = np.empty((len(steps), m, d))
        winners = [np.empty((m, 1, d), dtype=np.intp) for _ in steps] if keep else None

    def pool_groups(blocks, lo, hi):
        # the prefix maxima of the groups in rows [lo, hi), whose last
        # outputs ``blocks`` holds as [groups, group, d]. Every output is >= +0
        # after the relu (or NaN), so its max is the winner's value bit for bit
        s = slice(lo // group, hi // group)
        for t, (k0, k1) in enumerate(steps):
            window = blocks[:, k0:k1]
            if keep:
                np.argmax(window, axis=1, out=winners[t][s], keepdims=True)
            np.max(window, axis=1, out=out[t, s])
            if t:
                np.maximum(out[t - 1, s], out[t, s], out=out[t, s])

    # per layer: (x-hat or z, scale, shift, gain, inv_std, running mean, mask);
    # the layer's relu input is x-hat * scale + shift in either mode
    saved = []
    if training:
        a = x_values
        for weight, state in layers:
            z = np.empty((rows, state.dim))
            _each_tile(tiles, lambda lo, hi: np.matmul(a[lo:hi], weight.values, out=z[lo:hi]))
            mean = z.mean(axis=0) if weights is None else (weights @ z) / total
            # holds the squared deviations, then the layer's output
            y = np.empty_like(z)

            def centre(lo, hi):
                z[lo:hi] -= mean
                np.multiply(z[lo:hi], z[lo:hi], out=y[lo:hi])

            _each_tile(tiles, centre)
            var = y.mean(axis=0) if weights is None else (weights @ y) / total
            state.running_mean = (1.0 - momentum) * state.running_mean + momentum * mean
            state.running_var = (1.0 - momentum) * state.running_var + momentum * var
            std = np.sqrt(var + state.eps)
            inv_std = 1.0 / std
            gain = state.gamma.values * inv_std
            scale, shift = state.gamma.values.copy(), state.beta.values.copy()
            mask = None
            if drop:
                mask = (rng.random(z.shape) >= dropout) / (1.0 - dropout)

            def activate(lo, hi):
                z[lo:hi] /= std
                rows_y = np.multiply(z[lo:hi], scale, out=y[lo:hi])
                rows_y += shift
                np.maximum(rows_y, 0.0, out=rows_y)
                if mask is not None:
                    rows_y *= mask[lo:hi]

            _each_tile(tiles, activate)
            if keep:
                saved.append((z, scale, shift, gain, inv_std, None, mask))
            a = y
        if pool is not None:
            blocks = a.reshape(m, group, d)
            _each_tile(tiles, lambda lo, hi: pool_groups(blocks[lo // group:hi // group], lo, hi))
    else:
        # batch norm is one fixed scale and shift per column, so each tile
        # runs through every layer and the pool while it is in cache
        for _, state in layers:
            inv_std = 1.0 / np.sqrt(state.running_var + state.eps)
            scale = state.gamma.values * inv_std
            shift = state.beta.values - state.running_mean * scale
            z = np.empty((rows, state.dim)) if keep else None
            saved.append((z, scale, shift, scale, inv_std, state.running_mean, None))
        a = None if pool is not None else np.empty((rows, width))
        # every layer but an unpooled last one writes its tile into one of two
        # alternating scratch buffers, a pair per runner
        buffered = len(layers) - (pool is None)
        span = max(hi - lo for lo, hi in tiles) * widest

        def eval_tile(lo, hi, buffers):
            n = hi - lo
            rows_a = x_values[lo:hi]
            for i, (weight, state) in enumerate(layers):
                z, scale, shift = saved[i][:3]
                if i < buffered:
                    rows_y = buffers[i % 2][:n * state.dim].reshape(n, state.dim)
                else:
                    rows_y = a[lo:hi]
                rows_z = rows_y if z is None else z[lo:hi]
                np.matmul(rows_a, weight.values, out=rows_z)
                np.multiply(rows_z, scale, out=rows_y)
                rows_y += shift
                np.maximum(rows_y, 0.0, out=rows_y)
                rows_a = rows_y
            if pool is not None:
                pool_groups(rows_a.reshape(n // group, group, width), lo, hi)

        _each_tile(tiles, eval_tile,
                   lambda: [np.empty(span) for _ in range(min(buffered, 2))])
    if pool is not None:
        a = out.reshape(len(steps) * m, d)
    if not keep:
        return Tensor(a)

    def relu_input(layer, y, positive, lo, hi):
        # the layer's relu input into rows [lo, hi) of ``y``, and where it is > 0
        hat, scale, shift = layer[:3]
        rows_y = np.multiply(hat[lo:hi], scale, out=y[lo:hi])
        rows_y += shift
        np.greater(rows_y, 0.0, out=positive[lo:hi])

    def route(g):
        # the pooled gradient at each prefix's winning rows, times the last
        # relu's mask there, read from the pooled output
        routed = np.zeros((m, group, d))
        carry, won = np.empty((m, d)), np.empty((m, d))
        flag = np.empty((m, d), dtype=bool)

        def route_tile(lo, hi):
            s = slice(lo // group, hi // group)
            # walk the prefixes from the longest down: ``carry`` is the
            # gradient owed to prefix t's running max, which either rows
            # [k_{t-1}, k_t) or the shorter prefix won
            carry[s] = g[-1, s]
            for t in range(len(steps) - 1, -1, -1):
                k0, k1 = steps[t]
                if t:
                    took = np.greater(out[t, s], out[t - 1, s], out=flag[s])
                    rows_won = won[s]
                    rows_won[...] = 0.0
                    np.copyto(rows_won, carry[s], where=took)
                    np.copyto(carry[s], 0.0, where=took)
                    carry[s] += g[t - 1, s]
                else:
                    rows_won = carry[s]
                rows_won *= np.greater(out[t, s], 0.0, out=flag[s])
                np.put_along_axis(routed[s, k0:k1], winners[t][s], rows_won[:, None, :], axis=1)

        _each_tile(tiles, route_tile)
        return routed.reshape(rows, d)

    def weight_grad(a, dz):
        n = dz.shape[1]
        if len(tiles) == 1 or n < 2 * _GRAD_COLUMNS:
            return a.T @ dz
        starts = list(range(0, n - _GRAD_COLUMNS + 1, _GRAD_COLUMNS))
        gw = np.empty((a.shape[1], n))
        _each_tile(list(zip(starts, starts[1:] + [n])),
                   lambda lo, hi: np.matmul(a.T, dz[:, lo:hi], out=gw[:, lo:hi]))
        return gw

    def gate(g, positive, mask, owned):
        # ``g`` times the relu's and the dropout's masks; in place only when
        # owned, since a gradient handed in may be shared
        gated = g if owned else np.empty_like(g)

        def gate_tile(lo, hi):
            rows_g = gated[lo:hi]
            if positive is not None:
                np.multiply(g[lo:hi], positive[lo:hi], out=rows_g)
            if mask is not None:
                rows_g *= mask[lo:hi]

        _each_tile(tiles, gate_tile)
        return gated

    def grad_fn(g):
        if pool is None:
            # the last relu's mask, from its recomputed input
            positive = np.empty(g.shape, dtype=bool)
            y = np.empty(g.shape)
            _each_tile(tiles, lambda lo, hi: relu_input(saved[-1], y, positive, lo, hi))
            del y
            owned = False
        else:
            g, positive, owned = route(g.reshape(out.shape)), None, True
        param_grads = []
        for i in range(len(layers) - 1, -1, -1):
            hat, _, _, gain, inv_std, center, mask = saved[i]
            if positive is not None or mask is not None:
                g = gate(g, positive, mask, owned)
            positive = None
            dbeta = g.sum(axis=0)
            dz = np.empty_like(g)
            if training:
                _each_tile(tiles, lambda lo, hi: np.multiply(g[lo:hi], hat[lo:hi],
                                                             out=dz[lo:hi]))
                dgamma = dz.sum(axis=0)
                gamma_share, beta_share = dgamma / total, dbeta / total

                def assemble(lo, hi):
                    # the batch moments depend on the input as well: remove the
                    # gradient's (weighted) column mean and its component along
                    # the normalized column
                    rows_dz = np.multiply(hat[lo:hi], gamma_share, out=dz[lo:hi])
                    rows_dz += beta_share
                    if weights is not None:
                        rows_dz *= weights[lo:hi, None]
                    np.subtract(g[lo:hi], rows_dz, out=rows_dz)
                    rows_dz *= gain
            else:
                def normalized(lo, hi):
                    rows_dz = np.subtract(hat[lo:hi], center, out=dz[lo:hi])
                    rows_dz *= inv_std
                    rows_dz *= g[lo:hi]

                _each_tile(tiles, normalized)
                dgamma = dz.sum(axis=0)

                def assemble(lo, hi):
                    np.multiply(g[lo:hi], gain, out=dz[lo:hi])

            _each_tile(tiles, assemble)
            del g
            if i:
                below = saved[i - 1]
                a = np.empty((rows, layers[i - 1][1].dim))
                positive = np.empty(a.shape, dtype=bool)

                def recompute(lo, hi):
                    relu_input(below, a, positive, lo, hi)
                    np.maximum(a[lo:hi], 0.0, out=a[lo:hi])
                    if below[-1] is not None:
                        a[lo:hi] *= below[-1][lo:hi]

                _each_tile(tiles, recompute)
            else:
                a = x_values
            param_grads[:0] = (weight_grad(a, dz), dgamma, dbeta)
            del a
            if not i and constant:
                return tuple(param_grads)
            g = np.empty((rows, layers[i][0].shape[0]))
            weight_t = layers[i][0].values.T
            _each_tile(tiles, lambda lo, hi: np.matmul(dz[lo:hi], weight_t, out=g[lo:hi]))
            del dz
            owned = True
        return (g, *param_grads)

    parents = [] if constant else [x]
    for weight, state in layers:
        parents += (weight, state.gamma, state.beta)
    return Tensor(a, parents, grad_fn)


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
    (sigmoid) and the candidate (tanh); then c = f*c + i*g and h = o*tanh(c)
    (Hochreiter & Schmidhuber, 1997). The result stacks every step's hidden
    state the same way: [steps*r, hidden].

    Per step the node keeps the four gate activations, c_{t-1} and
    tanh(c_t). The forward and the backward each build every step's matmul
    input [h_{t-1} | x_t] in one buffer made once per call; the backward
    rebuilds it from the input and the node's own output, and runs
    backpropagation through time in closed form. Parents are ``x``,
    ``weight`` and ``bias``. Under :func:`no_grad` nothing is kept.
    """
    x, weight, bias = tensor(x), tensor(weight), tensor(bias)
    if x.ndim != 2 or steps < 1 or x.shape[0] % steps:
        raise ShapeError(f"cannot split input of shape {x.shape} into {steps} steps")
    rows, width = x.shape[0] // steps, x.shape[1]
    h = weight.shape[-1] // 4
    if weight.shape != (h + width, 4 * h) or bias.shape != (4 * h,):
        raise ShapeError(f"lstm weight {weight.shape} and bias {bias.shape} do not fit "
                         f"input width {width}")
    keep = _recording
    out = np.empty((steps * rows, h))
    # [h_{t-1} | x_t], rebuilt in place every step
    joined = np.zeros((rows, h + width))
    z = np.empty((rows, 4 * h))
    cell = np.zeros((rows, h))
    saved = []
    for t in range(steps):
        joined[:, h:] = x.values[t * rows:(t + 1) * rows]
        np.matmul(joined, weight.values, out=z)
        z += bias.values
        gates = _sigmoid(z[:, :3 * h])
        candidate = np.tanh(z[:, 3 * h:])
        prev_cell = cell
        cell = gates[:, h:2 * h] * prev_cell
        cell += gates[:, :h] * candidate
        tanh_cell = np.tanh(cell)
        hidden = np.multiply(gates[:, 2 * h:], tanh_cell, out=out[t * rows:(t + 1) * rows])
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
        dz = np.empty((rows, 4 * h))
        joined = np.empty((rows, h + width))
        for t in range(steps - 1, -1, -1):
            gates, candidate, prev_cell, tanh_cell = saved[t]
            dh += g[t * rows:(t + 1) * rows]
            dc += dh * gates[:, 2 * h:] * (1.0 - tanh_cell * tanh_cell)
            # d/dz of each block: the input, forget and output gates'
            # partials, then the sigmoid and tanh derivatives
            np.multiply(dc, candidate, out=dz[:, :h])
            np.multiply(dc, prev_cell, out=dz[:, h:2 * h])
            np.multiply(dh, tanh_cell, out=dz[:, 2 * h:3 * h])
            np.multiply(dc, gates[:, :h], out=dz[:, 3 * h:])
            dz[:, :3 * h] *= gates
            dz[:, :3 * h] *= 1.0 - gates
            dz[:, 3 * h:] *= 1.0 - candidate * candidate
            if t:
                joined[:, :h] = out[(t - 1) * rows:t * rows]
            else:
                joined[:, :h] = 0.0
            joined[:, h:] = x.values[t * rows:(t + 1) * rows]
            gw += joined.T @ dz
            gb += dz.sum(axis=0)
            d_joined = dz @ weight.values.T
            gx[t * rows:(t + 1) * rows] = d_joined[:, h:]
            dh = d_joined[:, :h]
            dc *= gates[:, h:2 * h]
        return gx, gw, gb

    return Tensor(out, (x, weight, bias), grad_fn)


def attend(query, states, steps, score_weight):
    """Content attention of each query row over its encoder states.

    ``states`` stacks ``steps`` blocks of one row per query row, as
    :func:`lstm` returns them. Row i scores step t with the bilinear
    "general" form (query_i @ score_weight) . state_{t,i} of Luong et al.
    (arXiv 1508.04025), takes a max-shifted softmax over steps, and averages
    its states with those weights.

    Returns ``(context, alpha)``: the [rows, hidden] context as one graph
    node with parents ``query``, ``states`` and ``score_weight``, and the
    [rows, steps] weights as a plain array. The node keeps the projected
    query and the weights; under :func:`no_grad` it keeps nothing.
    """
    query, states, score_weight = tensor(query), tensor(states), tensor(score_weight)
    if query.ndim != 2 or states.ndim != 2 or score_weight.ndim != 2:
        raise ShapeError("attention expects 2-d query, states and score weight")
    rows, width = query.shape
    if (steps < 1 or states.shape[0] != steps * rows
            or score_weight.shape != (width, states.shape[1])):
        raise ShapeError(f"cannot attend from query {query.shape} through score weight "
                         f"{score_weight.shape} over {steps} steps of states {states.shape}")
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
    buffers, so repeated calls without zeroing accumulate. Intermediate nodes
    keep ``.grad`` unset: each one's gradient is dropped as soon as its
    ``grad_fn`` has used it.
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
