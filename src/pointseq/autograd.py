"""Reverse-mode automatic differentiation on dense float64 arrays.

Operations build a DAG as they execute. ``backward`` walks the graph once in
reverse topological order and accumulates gradients into every tensor it
reaches. All gradients are exact analytic derivatives; the test suite
cross-checks them against central finite differences.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError, ShapeError

__all__ = [
    "Tensor",
    "tensor",
    "backward",
    "matmul",
    "add",
    "sub",
    "mul",
    "div",
    "maximum",
    "relu",
    "tanh",
    "sigmoid",
    "sqrt",
    "softmax",
    "pool_rows_max",
    "sum_reduce",
    "mean_reduce",
    "concat",
    "slice_axis",
    "reshape",
    "repeat_rows",
    "dropout",
    "cross_entropy_mean",
    "BatchNormState",
    "batch_norm",
]


class Tensor:
    """A float64 array plus the graph edge that produced it.

    ``parents`` and ``grad_fn`` record the producing operation; leaves have
    neither. ``grad_fn(out_grad)`` returns one gradient array (or None) per
    parent. The graph is acyclic by construction, since edges only ever point
    at tensors that already exist.
    """

    __slots__ = ("values", "grad", "parents", "grad_fn", "trainable")

    def __init__(self, values, parents=(), grad_fn=None, trainable=False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self.parents = tuple(parents)
        self.grad_fn = grad_fn
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

    def zero_grad(self):
        self.grad = np.zeros_like(self.values)

    def __repr__(self):
        kind = "param" if self.trainable else ("leaf" if not self.parents else "node")
        return f"Tensor(shape={self.shape}, {kind})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return mul(self, -1.0)


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


def sub(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b) -> Tensor:
    return _binary(
        a,
        b,
        lambda x, y: x / y,
        lambda g, x, y: g / y,
        lambda g, x, y: -g * x / (y * y),
    )


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


def relu(x) -> Tensor:
    x = tensor(x)
    out = np.maximum(x.values, 0.0)

    # subgradient at 0 is taken as 0
    def grad_fn(g):
        return (g * (x.values > 0.0),)

    return Tensor(out, (x,), grad_fn)


def tanh(x) -> Tensor:
    x = tensor(x)
    out = np.tanh(x.values)

    def grad_fn(g):
        return (g * (1.0 - out * out),)

    return Tensor(out, (x,), grad_fn)


def sigmoid(x) -> Tensor:
    x = tensor(x)
    v = x.values
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)

    def grad_fn(g):
        return (g * out * (1.0 - out),)

    return Tensor(out, (x,), grad_fn)


def sqrt(x) -> Tensor:
    """Elementwise square root; inputs must be strictly positive."""
    x = tensor(x)
    out = np.sqrt(x.values)

    def grad_fn(g):
        return (g * 0.5 / out,)

    return Tensor(out, (x,), grad_fn)


def softmax(x, axis=-1) -> Tensor:
    """Numerically stable softmax along ``axis`` (max is subtracted first)."""
    x = tensor(x)
    if x.size == 0:
        raise ShapeError("softmax of an empty input")
    shifted = x.values - x.values.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return Tensor(out, (x,), grad_fn)


def pool_rows_max(x, group_size):
    """Max over consecutive row groups of a [m*group_size, d] matrix.

    Returns ``([m, d] values, [m, d] argmax within group)``; ties go to the
    lowest row of the group, and the gradient routes to the winning entries
    only.
    """
    x = tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"pool_rows_max expects a 2-d input, got shape {x.shape}")
    rows, d = x.shape
    if group_size < 1 or rows % group_size != 0:
        raise ShapeError(f"cannot pool {rows} rows in groups of {group_size}")
    m = rows // group_size
    blocks = x.values.reshape(m, group_size, d)
    arg = np.argmax(blocks, axis=1)
    out = np.take_along_axis(blocks, arg[:, None, :], axis=1)[:, 0, :]

    def grad_fn(g):
        gx = np.zeros((m, group_size, d))
        np.put_along_axis(gx, arg[:, None, :], g[:, None, :], axis=1)
        return (gx.reshape(rows, d),)

    return Tensor(out, (x,), grad_fn), arg.copy()


def sum_reduce(x, axis=None, keepdims=False) -> Tensor:
    x = tensor(x)
    out = x.values.sum(axis=axis, keepdims=keepdims)

    def grad_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.shape).copy(),)

    return Tensor(out, (x,), grad_fn)


def mean_reduce(x, axis=None, keepdims=False) -> Tensor:
    x = tensor(x)
    count = x.size if axis is None else x.shape[axis]
    if count == 0:
        raise ShapeError("mean over an empty axis")
    out = x.values.mean(axis=axis, keepdims=keepdims)

    def grad_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / count, x.shape).copy(),)

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


def dropout(x, ratio, training=False, rng=None) -> Tensor:
    """Inverted dropout: scaling by 1/(1-ratio) keeps the expectation.

    Identity when not training or when ratio is 0. The mask is drawn from
    ``rng``, so a fixed generator state fixes the mask.
    """
    if not 0.0 <= ratio < 1.0:
        raise ConfigError(f"dropout ratio must be in [0, 1), got {ratio}")
    x = tensor(x)
    if not training or ratio == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    mask = (rng.random(x.shape) >= ratio) / (1.0 - ratio)
    out = x.values * mask

    def grad_fn(g):
        return (g * mask,)

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


def batch_norm(x, state, training=False, momentum=0.5) -> Tensor:
    """Normalize the rows of ``x`` per feature column.

    Training mode normalizes by the current batch moments and folds them into
    the running statistics with weight ``momentum``; eval mode normalizes by
    the stored running statistics. A constant batch normalizes to the shift
    parameter exactly.
    """
    x = tensor(x)
    if x.ndim != 2 or x.shape[1] != state.dim:
        raise ShapeError(f"batch_norm expects [n, {state.dim}] input, got shape {x.shape}")
    if training:
        mean = mean_reduce(x, axis=0, keepdims=True)
        centered = sub(x, mean)
        var = mean_reduce(mul(centered, centered), axis=0, keepdims=True)
        state.running_mean = (1.0 - momentum) * state.running_mean + momentum * mean.values[0]
        state.running_var = (1.0 - momentum) * state.running_var + momentum * var.values[0]
        normalized = div(centered, sqrt(add(var, state.eps)))
    else:
        scale = 1.0 / np.sqrt(state.running_var + state.eps)
        normalized = mul(sub(x, state.running_mean), scale)
    return add(mul(normalized, state.gamma), state.beta)


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
    """Accumulate d(loss)/d(tensor) into ``.grad`` of every reachable tensor.

    ``loss`` must be a scalar. Gradients add into any existing ``.grad``
    buffers, so repeated calls without zeroing accumulate.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
    order = _topo_order(loss)
    grads = {id(loss): np.ones_like(loss.values)}
    for node in reversed(order):
        g = grads.get(id(node))
        if g is None or node.grad_fn is None:
            continue
        for parent, pg in zip(node.parents, node.grad_fn(g)):
            if pg is None:
                continue
            acc = grads.get(id(parent))
            if acc is None:
                grads[id(parent)] = np.array(pg)
            else:
                acc += pg
    for node in order:
        g = grads.get(id(node))
        if g is not None:
            node.grad = g if node.grad is None else node.grad + g
