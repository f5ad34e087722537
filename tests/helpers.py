"""Shared test utilities: finite-difference oracles and brute-force geometry."""

import numpy as np

from pointseq import autograd as ag


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
    loss = ag.sum_reduce(out)
    ag.backward(loss)

    for pos, t in enumerate(tensors):
        def scalar(x, pos=pos):
            probe = [ag.Tensor(a) for a in arrays]
            probe[pos] = ag.Tensor(x)
            return float(ag.sum_reduce(build(*probe)).values)

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
