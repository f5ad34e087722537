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
    "mul",
    "maximum",
    "relu",
    "tanh",
    "sigmoid",
    "softmax",
    "pool_rows_max",
    "pool_prefix_max",
    "sum_reduce",
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

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

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


def mul(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x)


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


def pool_rows_max(x, group_size) -> Tensor:
    """Max over consecutive row groups of a [m*group_size, d] matrix: [m, d].

    The gradient routes to the winning entries only; ties go to the lowest
    row of the group.
    """
    return pool_prefix_max(x, group_size, (group_size,))


def pool_prefix_max(x, group_size, prefixes) -> Tensor:
    """Max over the first ``k`` rows of each row group, for every ``k`` in ``prefixes``.

    ``x`` is [m*group_size, d] and ``prefixes`` strictly increase up to
    ``group_size``. The result stacks one [m, d] block per prefix, in
    ``prefixes`` order: [len(prefixes)*m, d]. Each row is read once: prefix t
    extends prefix t-1's max by rows [k_{t-1}, k_t), and a later row wins only
    when strictly greater, so ties go to the lowest row as in
    :func:`pool_rows_max`, and the gradient routes the same way.
    """
    x = tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"row pooling expects a 2-d input, got shape {x.shape}")
    rows, d = x.shape
    if group_size < 1 or rows % group_size != 0:
        raise ShapeError(f"cannot pool {rows} rows in groups of {group_size}")
    bounds = (0, *prefixes)
    steps = list(zip(bounds, bounds[1:]))
    if not steps or any(b <= a for a, b in steps) or bounds[-1] > group_size:
        raise ShapeError(f"prefixes {tuple(prefixes)} must strictly increase within "
                         f"groups of {group_size}")
    m = rows // group_size
    blocks = x.values.reshape(m, group_size, d)
    out = np.empty((len(prefixes), m, d))
    for t, (lo, hi) in enumerate(steps):
        np.max(blocks[:, lo:hi], axis=1, out=out[t])
        if t:
            np.maximum(out[t - 1], out[t], out=out[t])

    def grad_fn(g):
        g = g.reshape(out.shape)
        gx = np.zeros((m, group_size, d))
        # walk the prefixes from the longest down: ``carry`` is the gradient
        # owed to prefix t's running max, which either rows [k_{t-1}, k_t) or
        # the shorter prefix won
        carry = g[-1]
        for t in range(len(steps) - 1, -1, -1):
            lo, hi = steps[t]
            if t:
                took = out[t] > out[t - 1]
                won = np.where(took, carry, 0.0)
                carry = np.where(took, 0.0, carry)
                carry += g[t - 1]
            else:
                won = carry
            arg = np.argmax(blocks[:, lo:hi], axis=1)
            np.put_along_axis(gx[:, lo:hi], arg[:, None, :], won[:, None, :], axis=1)
        return (gx.reshape(rows, d),)

    return Tensor(out.reshape(len(prefixes) * m, d), (x,), grad_fn)


def sum_reduce(x, axis=None, keepdims=False) -> Tensor:
    x = tensor(x)
    out = x.values.sum(axis=axis, keepdims=keepdims)

    def grad_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.shape).copy(),)

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


def batch_norm(x, state, training=False, momentum=0.5, weights=None) -> Tensor:
    """Normalize the rows of ``x`` per feature column.

    Training mode normalizes by the current batch moments and folds them into
    the running statistics with weight ``momentum``; eval mode normalizes by
    the stored running statistics. A constant batch normalizes to the shift
    parameter exactly. One graph node with parents ``(x, gamma, beta)``; the
    backward is the closed form of Ioffe & Szegedy (arXiv 1502.03167).

    ``weights`` (one non-negative count per row) makes training mode treat
    row j as ``weights[j]`` identical rows: the moments are weighted means
    over ``W = sum(weights)`` rows, so statistics, outputs and gradients equal
    those of the batch with every row repeated that many times. Eval mode
    ignores them.
    """
    x = tensor(x)
    if x.ndim != 2 or x.shape[1] != state.dim:
        raise ShapeError(f"batch_norm expects [n, {state.dim}] input, got shape {x.shape}")
    if weights is not None and np.shape(weights) != (x.shape[0],):
        raise ShapeError(f"batch_norm weights of shape {np.shape(weights)} do not match "
                         f"{x.shape[0]} rows")
    gamma, beta = state.gamma, state.beta
    if training:
        if weights is None:
            total = len(x.values)
            mean = x.values.mean(axis=0)
            normalized = x.values - mean
            var = (normalized * normalized).mean(axis=0)
        else:
            total = weights.sum()
            mean = (weights @ x.values) / total
            normalized = x.values - mean
            var = (weights @ (normalized * normalized)) / total
        state.running_mean = (1.0 - momentum) * state.running_mean + momentum * mean
        state.running_var = (1.0 - momentum) * state.running_var + momentum * var
        std = np.sqrt(var + state.eps)
        normalized /= std
        inv_std = 1.0 / std
        out = normalized * gamma.values
        out += beta.values
        gain = gamma.values * inv_std
    else:
        # one scale and one shift; x-hat is only needed if backward runs
        running_mean = state.running_mean
        inv_std = 1.0 / np.sqrt(state.running_var + state.eps)
        gain = gamma.values * inv_std
        out = x.values * gain
        out += beta.values - running_mean * gain

    def grad_fn(g):
        dbeta = g.sum(axis=0)
        if not training:
            dgamma = (g * ((x.values - running_mean) * inv_std)).sum(axis=0)
            return g * gain, dgamma, dbeta
        dgamma = (g * normalized).sum(axis=0)
        # the batch moments depend on x as well: remove the gradient's
        # (weighted) column mean and its component along the normalized column
        dx = normalized * (dgamma / total)
        dx += dbeta / total
        if weights is not None:
            dx *= weights[:, None]
        np.subtract(g, dx, out=dx)
        dx *= gain
        return dx, dgamma, dbeta

    return Tensor(out, (x, gamma, beta), grad_fn)


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
    # ids whose buffer this walk allocated; any other gradient may be shared
    # (``add`` hands one array to both parents), so it is never added into
    owned = set()
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
