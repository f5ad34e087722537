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


def _argbest(distances, points, exclude=None):
    """Index maximizing distance; ties prefer low (x, y, z) then low index."""
    d = distances
    if exclude is not None:
        d = np.where(exclude, -np.inf, d)
    best = d.max()
    candidates = np.flatnonzero(d == best)
    if len(candidates) == 1:
        return int(candidates[0])
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
    selected coordinates depend only on cloud content.
    """
    points = cloud.points
    n = len(points)
    if not 1 <= m <= n:
        raise ValueError(f"cannot sample {m} centroids from {n} points")
    chosen = np.empty(m, dtype=np.int64)
    taken = np.zeros(n, dtype=bool)
    diff = points - _stable_mean(points)
    dist = (diff * diff).sum(axis=1)
    for step in range(m):
        pick = _argbest(dist, points, exclude=taken)
        chosen[step] = pick
        taken[pick] = True
        diff = points - points[pick]
        fresh = (diff * diff).sum(axis=1)
        dist = fresh if step == 0 else np.minimum(dist, fresh)
    return Centroids(chosen, points[chosen].copy())


def knn_search(cloud: PointCloud, queries, k) -> np.ndarray:
    """Exact k nearest cloud points, ordered as :func:`brute_force_knn` orders them.

    ``queries`` is one [3] point, which gives [k] indices, or [q, 3] points,
    which give [q, k]. A partial selection keeps, per row, every point at or
    below the k-th distance (more than k only when ties straddle it), and
    only those candidates are sorted by (distance, x, y, z, index).
    """
    points = cloud.points
    n = len(points)
    if not 1 <= k <= n:
        raise ValueError(f"cannot search {k} neighbors among {n} points")
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim not in (1, 2) or q.shape[-1] != 3:
        raise ValueError(f"queries must have shape [3] or [q, 3], got {q.shape}")
    rows = q.reshape(-1, 3)
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
    nearest = np.take_along_axis(cand, order[:, :k], axis=1).astype(np.int64)
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
