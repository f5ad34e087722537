"""Deterministic point-cloud geometry: normalization, sampling, grouping.

Every selection here is a pure function of point *coordinates*: distance ties
break on lexicographic (x, y, z) first and on index only between exact
duplicates. Reductions over points run in a sorted order, so the outcome of
the whole pipeline is invariant under permutations of the input, up to index
relabeling between duplicate points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PointCloud",
    "Centroids",
    "ScaleSpec",
    "MultiScaleGrouping",
    "normalize_unit_ball",
    "farthest_point_sample",
    "knn_search",
    "brute_force_knn",
    "square_distances",
    "nearest_candidates",
    "group_areas",
]


@dataclass(eq=False)
class PointCloud:
    """N points in R^3 with optional integer per-point labels."""

    points: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError(f"points must have shape [n, 3], got {self.points.shape}")
        if len(self.points) < 1:
            raise ValueError("a point cloud needs at least one point")
        if not np.isfinite(self.points).all():
            raise ValueError("point coordinates must be finite")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (len(self.points),):
                raise ValueError(
                    f"labels shape {self.labels.shape} does not match {len(self.points)} points"
                )

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class Centroids:
    """Region centers selected from a cloud; coords mirror indices."""

    indices: np.ndarray
    coords: np.ndarray

    def __len__(self):
        return len(self.indices)


@dataclass(frozen=True)
class ScaleSpec:
    """Strictly increasing neighborhood sizes, smallest to largest."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if not sizes:
            raise ValueError("at least one scale is required")
        if any(s < 1 for s in sizes):
            raise ValueError(f"scales must be positive, got {sizes}")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError(f"scales must be strictly increasing, got {sizes}")

    def __len__(self):
        return len(self.sizes)


@dataclass(frozen=True)
class MultiScaleGrouping:
    """Per-region neighbor indices, nested across scales.

    ``neighbor_indices[j]`` holds the largest-scale neighborhood of region j
    in ascending distance order; each smaller scale is a prefix of it.
    """

    neighbor_indices: np.ndarray
    scales: ScaleSpec


def _stable_mean(points):
    # summed in lexicographic point order so the result is permutation-free
    order = np.lexsort((points[:, 2], points[:, 1], points[:, 0]))
    return points[order].mean(axis=0)


def square_distances(queries, points) -> np.ndarray:
    """[q, n] squared distances from each of ``queries`` [q, 3] to each of ``points`` [n, 3].

    The three terms are added as NumPy adds a length-3 last axis,
    (dx*dx + dy*dy) + dz*dz, so the bits equal those of
    ``((points[None] - queries[:, None]) ** 2).sum(axis=2)`` without its
    [q, n, 3] temporaries. ``points`` with contiguous columns (Fortran order)
    are read fastest.
    """
    qx, qy, qz = np.asarray(queries).T[:, :, None]
    px, py, pz = np.asarray(points).T
    total = qx - px
    total *= total
    term = qy - py
    term *= term
    total += term
    np.subtract(qz, pz, out=term)
    term *= term
    total += term
    return total


def nearest_candidates(d, k) -> np.ndarray:
    """Column indices, per row of ``d``, that include its k smallest entries.

    Every row gets the same number of columns: k, unless ties straddle some
    row's k-th smallest value, and then as many as the largest count of
    entries at or below it. Every entry at or below the k-th smallest value
    is among its row's columns, in no particular order. One partial
    selection finds the k-th values; a second one runs only for a straddling
    tie.
    """
    part = np.argpartition(d, k - 1, axis=1)
    kth = d[np.arange(len(d))[:, None], part[:, k - 1 : k]]
    width = int((d <= kth).sum(axis=1).max())
    if width > k:
        part = np.argpartition(d, width - 1, axis=1)
    return part[:, :width]


def _argbest(distances, points):
    """Index maximizing distance; ties prefer low (x, y, z) then low index."""
    pick = int(distances.argmax())
    tied = distances == distances[pick]
    if np.count_nonzero(tied) == 1:
        return pick
    candidates = np.flatnonzero(tied)
    c = points[candidates]
    order = np.lexsort((candidates, c[:, 2], c[:, 1], c[:, 0]))
    return int(candidates[order[0]])


def normalize_unit_ball(cloud: PointCloud) -> PointCloud:
    """Center the cloud on its mean and scale it into the unit ball.

    A cloud of identical points maps to all zeros. Labels carry over.
    """
    centered = cloud.points - _stable_mean(cloud.points)
    radius = np.sqrt((centered * centered).sum(axis=1)).max()
    if radius > 0.0:
        centered = centered / radius
    else:
        centered = np.zeros_like(centered)
    return PointCloud(centered, cloud.labels)


def farthest_point_sample(cloud: PointCloud, m: int) -> Centroids:
    """Greedy farthest-point selection of ``m`` distinct indices.

    The walk starts at the point farthest from the cloud mean and repeatedly
    takes the point with the largest distance to the chosen set, so the
    selected coordinates depend only on cloud content. Chosen points stay at
    -inf in the running distance, so each step is one ``argmax``; the
    (x, y, z, index) tie-break runs only on a step where another point has
    the largest distance too.
    """
    points = cloud.points
    n = len(points)
    if not 1 <= m <= n:
        raise ValueError(f"cannot sample {m} centroids from {n} points")
    chosen = np.empty(m, dtype=np.int64)
    columns = np.asfortranarray(points)
    dist = square_distances(_stable_mean(points)[None], columns)[0]
    for step in range(m):
        pick = _argbest(dist, points)
        chosen[step] = pick
        fresh = square_distances(points[pick : pick + 1], columns)[0]
        if step == 0:
            dist = fresh
        else:
            np.minimum(dist, fresh, out=dist)
        dist[pick] = -np.inf
    return Centroids(chosen, points[chosen].copy())


def knn_search(cloud: PointCloud, queries, k) -> np.ndarray:
    """Exact k nearest cloud points, ordered as :func:`brute_force_knn` orders them.

    ``queries`` is one [3] point, which gives [k] indices, or [q, 3] finite
    points, which give [q, k]. :func:`nearest_candidates` keeps, per row,
    every point at or below the k-th distance (more than k only when ties
    straddle it), and a stable sort orders the candidates by distance alone.
    Only rows where two of the first k+1 sorted distances are equal, so that
    the tie key decides the order or the membership of the first k, are
    sorted again by the full key (distance, x, y, z, index).
    """
    points = cloud.points
    n = len(points)
    if not 1 <= k <= n:
        raise ValueError(f"cannot search {k} neighbors among {n} points")
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim not in (1, 2) or q.shape[-1] != 3:
        raise ValueError(f"queries must have shape [3] or [q, 3], got {q.shape}")
    if not np.isfinite(q).all():
        raise ValueError("query coordinates must be finite")
    rows = q.reshape(-1, 3)
    d = square_distances(rows, np.asfortranarray(points))
    cand = nearest_candidates(d, k)
    index = np.arange(len(d))[:, None]
    cand_d = d[index, cand]
    order = np.argsort(cand_d, axis=1, kind="stable")
    lead = cand_d[index, order[:, : k + 1]]
    tied = np.flatnonzero((lead[:, 1:] == lead[:, :-1]).any(axis=1))
    if len(tied):
        c, coords = cand[tied], points[cand[tied]]
        order[tied] = np.lexsort(
            (c, coords[..., 2], coords[..., 1], coords[..., 0], cand_d[tied]), axis=1
        )
    nearest = cand[index, order[:, :k]].astype(np.int64)
    return nearest[0] if q.ndim == 1 else nearest


def brute_force_knn(cloud: PointCloud, query_point, k) -> np.ndarray:
    """Oracle nearest-neighbor search: full sort with the same tie rules."""
    points = cloud.points
    n = len(points)
    if not 1 <= k <= n:
        raise ValueError(f"cannot search {k} neighbors among {n} points")
    q = np.asarray(query_point, dtype=np.float64)
    d = ((points - q) ** 2).sum(axis=1)
    order = np.lexsort((np.arange(n), points[:, 2], points[:, 1], points[:, 0], d))
    return order[:k].astype(np.int64)


def group_areas(cloud: PointCloud, centroids: Centroids, scales: ScaleSpec) -> MultiScaleGrouping:
    """Multi-scale areas around each centroid; scales nest by construction."""
    return MultiScaleGrouping(knn_search(cloud, centroids.coords, scales.sizes[-1]), scales)
