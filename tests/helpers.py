"""Shared test utilities: finite-difference oracles and brute-force geometry."""

import numpy as np

from pointseq import autograd as ag
from pointseq.errors import ShapeError


# Ops the engine does not provide: probes that weight or reduce an op's
# output in gradient tests, and parts of the reference recurrent chain.


def mul(a, b):
    """Broadcasting elementwise product."""
    return ag._binary(a, b, lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x)


def sum_reduce(x, axis=None, keepdims=False):
    x = ag.tensor(x)
    out = x.values.sum(axis=axis, keepdims=keepdims)

    def grad_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.shape).copy(),)

    return ag.Tensor(out, (x,), grad_fn)


def sigmoid(x):
    """Logistic function, each sign through its overflow-free form."""
    x = ag.tensor(x)
    v = x.values
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)

    def grad_fn(g):
        return (g * out * (1.0 - out),)

    return ag.Tensor(out, (x,), grad_fn)


def softmax(x, axis=-1):
    """Numerically stable softmax along ``axis`` (max is subtracted first)."""
    x = ag.tensor(x)
    if x.size == 0:
        raise ShapeError("softmax of an empty input")
    shifted = x.values - x.values.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return ag.Tensor(out, (x,), grad_fn)


def numeric_gradient(fn, x, step=1e-5):
    """Central finite differences of scalar ``fn`` at array ``x``."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = fn(x)
        flat[i] = orig - step
        lo = fn(x)
        flat[i] = orig
        out[i] = (hi - lo) / (2.0 * step)
    return grad


def relative_error(a, b, floor=1e-6):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / scale)) if a.size else 0.0


def check_op_gradient(build, arrays, step=1e-5, tol=1e-4):
    """Compare analytic and numeric gradients of ``sum(build(*tensors))``.

    ``build`` maps Tensors to one output Tensor; gradients are checked for
    every input array.
    """
    tensors = [ag.Tensor(a) for a in arrays]
    out = build(*tensors)
    loss = sum_reduce(out)
    ag.backward(loss)

    for pos, t in enumerate(tensors):
        def scalar(x, pos=pos):
            probe = [ag.Tensor(a) for a in arrays]
            probe[pos] = ag.Tensor(x)
            return float(sum_reduce(build(*probe)).values)

        numeric = numeric_gradient(scalar, arrays[pos].copy(), step)
        err = relative_error(t.grad, numeric)
        assert err < tol, f"input {pos}: analytic/numeric gradient mismatch, rel err {err:.3g}"


def fps_exhaustive(points, m):
    """Greedy farthest-point reference written with plain Python loops."""
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    mean = points[sorted(range(n), key=lambda i: tuple(points[i]))].mean(axis=0)

    def sq(a, b):
        d = a - b
        return float(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])

    dist = [sq(points[i], mean) for i in range(n)]
    chosen = []
    for step in range(m):
        best = None
        for i in range(n):
            if i in chosen:
                continue
            key = (-dist[i], points[i][0], points[i][1], points[i][2], i)
            if best is None or key < best[0]:
                best = (key, i)
        pick = best[1]
        chosen.append(pick)
        fresh = [sq(points[i], points[pick]) for i in range(n)]
        dist = fresh if step == 0 else [min(a, b) for a, b in zip(dist, fresh)]
    return np.array(chosen, dtype=np.int64)


def knn_exhaustive(points, query, k):
    """Nearest-neighbor reference: sort every point by the full tie key."""
    points = np.asarray(points, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)

    def key(i):
        d = points[i] - query
        return (
            float(d[0] * d[0] + d[1] * d[1] + d[2] * d[2]),
            points[i][0],
            points[i][1],
            points[i][2],
            i,
        )

    order = sorted(range(len(points)), key=key)
    return np.array(order[:k], dtype=np.int64)


def interpolation_weights_loop(targets, sources, k, exact_match_dist=1e-10):
    """Per-target reference for inverse-square-distance interpolation weights.

    A target within ``exact_match_dist`` of a source copies the first such
    source; every other target weights its k nearest sources (stable order)
    by 1/d^2, normalized to sum to one.
    """
    targets = np.asarray(targets, dtype=np.float64)
    sources = np.asarray(sources, dtype=np.float64)
    d2 = ((targets[:, None, :] - sources[None, :, :]) ** 2).sum(axis=2)
    weights = np.zeros((len(targets), len(sources)))
    for i in range(len(targets)):
        exact = np.flatnonzero(d2[i] < exact_match_dist * exact_match_dist)
        if exact.size:
            weights[i, exact[0]] = 1.0
            continue
        nearest = np.argsort(d2[i], kind="stable")[:k]
        w = 1.0 / d2[i, nearest]
        weights[i, nearest] = w / w.sum()
    return weights


# Reference geometry kernels that sum [.., 3] squares over the last axis and
# sort every row by its full key: the package's kernels, which take the
# squares term by term and the full key only where distances tie, must match
# them bit for bit.


def reference_farthest_point_sample(points, m):
    """Farthest-point indices, masking chosen points and summing [n, 3] squares."""
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    chosen = np.empty(m, dtype=np.int64)
    taken = np.zeros(n, dtype=bool)
    order = np.lexsort((points[:, 2], points[:, 1], points[:, 0]))
    diff = points - points[order].mean(axis=0)
    dist = (diff * diff).sum(axis=1)
    for step in range(m):
        d = np.where(taken, -np.inf, dist)
        candidates = np.flatnonzero(d == d.max())
        c = points[candidates]
        pick = int(candidates[np.lexsort((candidates, c[:, 2], c[:, 1], c[:, 0]))[0]])
        chosen[step] = pick
        taken[pick] = True
        diff = points - points[pick]
        fresh = (diff * diff).sum(axis=1)
        dist = fresh if step == 0 else np.minimum(dist, fresh)
    return chosen


def reference_knn_search(points, queries, k):
    """[q, k] nearest indices: one partial selection, then every row sorted
    by the full key (distance, x, y, z, index)."""
    points = np.asarray(points, dtype=np.float64)
    rows = np.asarray(queries, dtype=np.float64).reshape(-1, 3)
    d = ((points[None, :, :] - rows[:, None, :]) ** 2).sum(axis=2)
    kth = np.partition(d, k - 1, axis=1)[:, k - 1 : k]
    width = int((d <= kth).sum(axis=1).max())
    cand = np.argpartition(d, width - 1, axis=1)[:, :width]
    coords = points[cand]
    order = np.lexsort(
        (cand, coords[..., 2], coords[..., 1], coords[..., 0],
         np.take_along_axis(d, cand, axis=1)),
        axis=1,
    )
    return np.take_along_axis(cand, order[:, :k], axis=1).astype(np.int64)


def reference_interpolation_weights(targets, sources, k, exact_match_dist=1e-10):
    """Interpolation weights from a stable sort of every target's whole row."""
    targets = np.asarray(targets, dtype=np.float64)
    sources = np.asarray(sources, dtype=np.float64)
    n, s = len(targets), len(sources)
    d2 = ((targets[:, None, :] - sources[None, :, :]) ** 2).sum(axis=2)
    exact = d2 < exact_match_dist * exact_match_dist
    snapped = exact.any(axis=1)
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
    inv = 1.0 / np.where(snapped[:, None], 1.0, np.take_along_axis(d2, nearest, axis=1))
    weights = np.zeros((n, s))
    np.put_along_axis(weights, nearest, inv / inv.sum(axis=1, keepdims=True), axis=1)
    weights[snapped] = 0.0
    weights[snapped, exact[snapped].argmax(axis=1)] = 1.0
    return weights


def reference_batch_norm(x, state, training=False, momentum=0.5, weights=None):
    """Batch norm as its own graph node, with optional per-row multiplicities."""
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
        inv_std = 1.0 / np.sqrt(var + state.eps)
        normalized = normalized * inv_std
        out = normalized * gamma.values + beta.values
    else:
        inv_std = 1.0 / np.sqrt(state.running_var + state.eps)
        normalized = (x.values - state.running_mean) * inv_std
        out = normalized * gamma.values + beta.values
    gain = gamma.values * inv_std

    def grad_fn(g):
        dbeta = g.sum(axis=0)
        dgamma = (g * normalized).sum(axis=0)
        if not training:
            return g * gain, dgamma, dbeta
        w = np.ones(len(g)) if weights is None else weights
        centred = g - w[:, None] * (dbeta + normalized * dgamma) / total
        return centred * gain, dgamma, dbeta

    return ag.Tensor(out, (x, gamma, beta), grad_fn)


def reference_relu(x):
    def grad_fn(g):
        return (g * (x.values > 0.0),)

    return ag.Tensor(np.maximum(x.values, 0.0), (x,), grad_fn)


def reference_dropout(x, ratio, rng):
    mask = (rng.random(x.shape) >= ratio) / (1.0 - ratio)

    def grad_fn(g):
        return (g * mask,)

    return ag.Tensor(x.values * mask, (x,), grad_fn)


def reference_prefix_max(x, prefixes):
    """Per prefix k, the max over the first k rows of each group of
    ``prefixes[-1]`` rows, written as one independent pool per prefix; ties
    route to the lowest row."""
    rows, d = x.shape
    group = prefixes[-1]
    blocks = x.values.reshape(rows // group, group, d)
    args = [np.argmax(blocks[:, :k], axis=1) for k in prefixes]
    out = np.concatenate([np.take_along_axis(blocks, a[:, None, :], axis=1)[:, 0]
                          for a in args])

    def grad_fn(g):
        gx = np.zeros_like(blocks)
        for a, gt in zip(args, np.split(g, len(prefixes))):
            for col in range(d):
                np.add.at(gx[:, :, col], (np.arange(len(a)), a[:, col]), gt[:, col])
        return (gx.reshape(rows, d),)

    return ag.Tensor(out, (x,), grad_fn)


def reference_bn_mlp(x, layers, training=False, momentum=0.5, dropout=0.0, rng=None,
                     pool=None):
    """The dense stack as a chain of separate nodes: matmul, batch norm,
    relu and dropout per layer, then the prefix max-pool.

    Same signature and semantics as ``ag.bn_mlp``, so it can stand in for it:
    in training mode, several pool prefixes weight row j of a group by the
    number of prefixes that hold it.
    """
    x = ag.tensor(x)
    weights = None
    if training and pool is not None and len(pool) > 1:
        nested = [sum(j < k for k in pool) for j in range(pool[-1])]
        weights = np.tile(np.array(nested, dtype=np.float64), x.shape[0] // pool[-1])
    for weight, state in layers:
        x = reference_batch_norm(ag.matmul(x, weight), state, training, momentum, weights)
        x = reference_relu(x)
        if training and dropout > 0.0:
            x = reference_dropout(x, dropout, rng)
    return x if pool is None else reference_prefix_max(x, pool)


def area_sequences_per_scale(geoms, params, cfg, ctx):
    """Reference area block: every scale's copy of its area points.

    Stacks each scale's relative points (scale-major, then cloud, region and
    point) through the reference point MLP with plain batch norms, then
    max-pools and projects each scale's block on its own. Returns the
    [scales*b*m, d] scale-stacked tensor that the forward feeds to the
    aggregator.
    """
    n_layers = len(cfg.area_hidden) + 1
    layers = [(params[f"area_mlp.{i}.weight"], params.batch_norms[f"area_mlp.{i}"])
              for i in range(n_layers)]
    stacked = ag.tensor(np.concatenate(
        [g.relative[t].reshape(-1, 3) for t in range(cfg.num_scales) for g in geoms], axis=0
    ))
    feats = reference_bn_mlp(stacked, layers, ctx.training, ctx.bn_momentum)
    centroids = ag.tensor(np.concatenate([g.centroid_coords for g in geoms], axis=0))
    out = []
    offset = 0
    for k in cfg.scales:
        rows = len(geoms) * cfg.m * k
        pooled = reference_prefix_max(ag.slice_axis(feats, 0, offset, offset + rows), (k,))
        offset += rows
        with_centroid = ag.concat([pooled, centroids], axis=1)
        out.append(ag.matmul(with_centroid, params["centroid_proj.weight"])
                   + params["centroid_proj.bias"])
    return ag.concat(out, axis=0)


def reference_lstm_step(prev_hidden, prev_cell, x, weight, bias):
    """One LSTM step as a chain of separate nodes: concat, matmul, bias, a
    slice and activation per gate (input, forget, output, candidate), then
    the cell and hidden-state products."""
    prev_hidden, prev_cell, x = ag.tensor(prev_hidden), ag.tensor(prev_cell), ag.tensor(x)
    state_dim = prev_hidden.shape[1]
    z = ag.matmul(ag.concat([prev_hidden, x], axis=1), weight) + bias
    gate_in = sigmoid(ag.slice_axis(z, 1, 0, state_dim))
    gate_forget = sigmoid(ag.slice_axis(z, 1, state_dim, 2 * state_dim))
    gate_out = sigmoid(ag.slice_axis(z, 1, 2 * state_dim, 3 * state_dim))
    candidate = ag.tanh(ag.slice_axis(z, 1, 3 * state_dim, 4 * state_dim))
    cell = ag.add(mul(gate_forget, prev_cell), mul(gate_in, candidate))
    hidden = mul(gate_out, ag.tanh(cell))
    return hidden, cell


def reference_first_step(x, weight, bias):
    """``ag.lstm``'s one-step form as a chain of separate nodes: matmul,
    bias, a slice and activation per gate (input, output, candidate), then
    the cell and hidden-state products."""
    state_dim = weight.shape[1] // 3
    z = ag.matmul(x, weight) + bias
    gate_in = sigmoid(ag.slice_axis(z, 1, 0, state_dim))
    gate_out = sigmoid(ag.slice_axis(z, 1, state_dim, 2 * state_dim))
    candidate = ag.tanh(ag.slice_axis(z, 1, 2 * state_dim, 3 * state_dim))
    return mul(gate_out, ag.tanh(mul(gate_in, candidate)))


def reference_lstm(x, steps, weight, bias):
    """``ag.lstm`` unrolled into :func:`reference_lstm_step` chains, or
    :func:`reference_first_step` for a one-step weight; same signature and
    stacked layout, so it can stand in for it."""
    x = ag.tensor(x)
    if weight.shape[0] == x.shape[1]:
        return reference_first_step(x, weight, bias)
    rows = x.shape[0] // steps
    state_dim = weight.shape[1] // 4
    hidden = ag.tensor(np.zeros((rows, state_dim)))
    cell = ag.tensor(np.zeros((rows, state_dim)))
    out = []
    for t in range(steps):
        step_input = ag.slice_axis(x, 0, t * rows, (t + 1) * rows)
        hidden, cell = reference_lstm_step(hidden, cell, step_input, weight, bias)
        out.append(hidden)
    return ag.concat(out, axis=0)


def reference_attention(query, hidden, score_weight):
    """Attention weights [rows, steps] over the per-step [rows, h] tensors
    ``hidden``: a softmax of bilinear scores, one sum node per step."""
    projected = ag.matmul(query, score_weight)
    scores = ag.concat(
        [sum_reduce(mul(projected, ht), axis=1, keepdims=True) for ht in hidden], axis=1
    )
    return softmax(scores, axis=1)


def reference_attend(query, states, score_weight):
    """``ag.attend`` as a chain of separate nodes: per-step slices,
    :func:`reference_attention`, and one product and sum per step."""
    query, states = ag.tensor(query), ag.tensor(states)
    rows = query.shape[0]
    steps = states.shape[0] // rows
    hidden = [ag.slice_axis(states, 0, t * rows, (t + 1) * rows) for t in range(steps)]
    alpha = reference_attention(query, hidden, score_weight)
    context = None
    for t, ht in enumerate(hidden):
        term = mul(ag.slice_axis(alpha, 1, t, t + 1), ht)
        context = term if context is None else ag.add(context, term)
    return context, alpha.values


def reference_block_matmul(matrices, x):
    """``ag.block_matmul`` as one slice and one matmul per block, then a concat."""
    x = ag.tensor(x)
    out = []
    start = 0
    for w in matrices:
        block = ag.slice_axis(x, 0, start, start + w.shape[1])
        out.append(ag.matmul(ag.tensor(w), block))
        start += w.shape[1]
    return ag.concat(out, axis=0)


def reference_adam_step(params, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """``training.adam_step`` as one whole-tensor update per parameter, in
    parameter order, through two scratch buffers of the largest one's size."""
    state.step += 1
    t = state.step
    largest = max((tensor.size for _, tensor in params.items()), default=0)
    scratch = np.empty(largest), np.empty(largest)
    for name, tensor in params.items():
        g = tensor.grad
        m = state.first.get(name)
        if m is None:
            m = np.zeros_like(tensor.values)
            state.first[name] = m
            state.second[name] = np.zeros_like(tensor.values)
        v = state.second[name]
        step, root = (buf[:g.size].reshape(g.shape) for buf in scratch)
        m *= beta1
        m += np.multiply(g, 1 - beta1, out=step)
        v *= beta2
        np.multiply(g, 1 - beta2, out=step)
        step *= g
        v += step
        np.divide(m, 1 - beta1**t, out=step)
        step *= lr
        np.divide(v, 1 - beta2**t, out=root)
        np.sqrt(root, out=root)
        root += eps
        step /= root
        tensor.values -= step
