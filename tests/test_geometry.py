"""Geometry tests: worked examples plus exhaustive-search oracles."""

import numpy as np
import pytest

from helpers import (
    fps_exhaustive,
    knn_exhaustive,
    reference_farthest_point_sample,
    reference_knn_search,
)
from pointseq import geometry as geo
from pointseq.config import ModelConfig
from pointseq.model import prepare_cloud


def random_cloud(rng, n, duplicates=False):
    points = rng.uniform(-1, 1, (n, 3))
    if duplicates and n >= 4:
        # copy a few rows on top of others to force exact distance ties
        k = max(1, n // 8)
        src = rng.integers(0, n, k)
        dst = rng.integers(0, n, k)
        points[dst] = points[src]
    return geo.PointCloud(points)


class TestPointCloud:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            geo.PointCloud(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            geo.PointCloud(np.zeros((0, 3)))

    def test_rejects_non_finite(self):
        points = np.zeros((2, 3))
        points[1, 1] = np.nan
        with pytest.raises(ValueError):
            geo.PointCloud(points)

    def test_labels_must_match_length(self):
        with pytest.raises(ValueError):
            geo.PointCloud(np.zeros((2, 3)), labels=[1])

    def test_scale_spec_strictly_increasing(self):
        geo.ScaleSpec((16, 32, 64, 128))
        with pytest.raises(ValueError):
            geo.ScaleSpec((16, 16))
        with pytest.raises(ValueError):
            geo.ScaleSpec((32, 16))
        with pytest.raises(ValueError):
            geo.ScaleSpec(())


class TestNormalizeUnitBall:
    def test_two_point_example(self):
        cloud = geo.PointCloud([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        out = geo.normalize_unit_ball(cloud)
        np.testing.assert_allclose(out.points, [[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])

    def test_identical_points_collapse_to_zero(self):
        cloud = geo.PointCloud(np.full((5, 3), 3.25))
        out = geo.normalize_unit_ball(cloud)
        np.testing.assert_array_equal(out.points, np.zeros((5, 3)))

    def test_single_point_maps_to_origin(self):
        out = geo.normalize_unit_ball(geo.PointCloud([[9.0, -2.0, 4.0]]))
        np.testing.assert_array_equal(out.points, [[0.0, 0.0, 0.0]])

    @pytest.mark.parametrize("seed", range(20))
    def test_norms_bounded_by_one(self, seed):
        rng = np.random.default_rng(seed)
        cloud = random_cloud(rng, int(rng.integers(2, 200)))
        out = geo.normalize_unit_ball(cloud)
        norms = np.linalg.norm(out.points, axis=1)
        assert norms.max() <= 1.0 + 1e-9

    def test_labels_preserved(self):
        cloud = geo.PointCloud(np.eye(3), labels=[0, 1, 2])
        out = geo.normalize_unit_ball(cloud)
        np.testing.assert_array_equal(out.labels, [0, 1, 2])


class TestFarthestPointSample:
    def test_unit_square_example(self):
        cloud = geo.PointCloud(
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]
        )
        picked = geo.farthest_point_sample(cloud, 2)
        # all corners tie on distance to the mean, so the walk starts at the
        # lexicographic minimum and jumps to the opposite corner
        np.testing.assert_array_equal(picked.coords[0], [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(picked.coords[1], [1.0, 1.0, 0.0])

    def test_m_equals_n_exhausts_cloud(self):
        rng = np.random.default_rng(0)
        cloud = random_cloud(rng, 17)
        picked = geo.farthest_point_sample(cloud, 17)
        assert sorted(picked.indices.tolist()) == list(range(17))

    def test_m_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            geo.farthest_point_sample(geo.PointCloud(np.eye(3)), 4)

    def test_duplicate_points_still_give_distinct_indices(self):
        points = np.zeros((6, 3))
        points[3:] = 1.0
        picked = geo.farthest_point_sample(geo.PointCloud(points), 4)
        assert len(set(picked.indices.tolist())) == 4

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_exhaustive_greedy(self, seed):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(2, 120))
        cloud = random_cloud(rng, n, duplicates=bool(seed % 3 == 0))
        m = int(rng.integers(1, n + 1))
        picked = geo.farthest_point_sample(cloud, m)
        np.testing.assert_array_equal(picked.indices, fps_exhaustive(cloud.points, m))

    @pytest.mark.parametrize("seed", range(10))
    def test_coverage_radius_equals_next_gain(self, seed):
        # after M picks, the farthest remaining point defines the coverage
        # radius, and it is exactly the point the next step would select
        rng = np.random.default_rng(3000 + seed)
        cloud = random_cloud(rng, 64)
        m = 8
        picked = geo.farthest_point_sample(cloud, m + 1)
        centroids = cloud.points[picked.indices[:m]]
        d = ((cloud.points[:, None, :] - centroids[None, :, :]) ** 2).sum(-1).min(axis=1)
        gain = ((cloud.points[picked.indices[m]] - centroids) ** 2).sum(-1).min()
        assert np.isclose(d.max(), gain, rtol=0, atol=0)
        assert (d <= gain + 1e-15).all()


class TestKnnSearch:
    def test_k_equals_n_sorts_cloud(self):
        rng = np.random.default_rng(1)
        cloud = random_cloud(rng, 40)
        q = rng.uniform(-1, 1, 3)
        got = geo.knn_search(cloud, q, 40)
        np.testing.assert_array_equal(got, knn_exhaustive(cloud.points, q, 40))

    def test_query_on_a_cloud_point_returns_it_first(self):
        rng = np.random.default_rng(2)
        cloud = random_cloud(rng, 25)
        got = geo.knn_search(cloud, cloud.points[7], 3)
        assert got[0] == 7

    def test_k_out_of_range(self):
        cloud = geo.PointCloud(np.eye(3))
        with pytest.raises(ValueError):
            geo.knn_search(cloud, [0.0, 0.0, 0.0], 4)
        with pytest.raises(ValueError):
            geo.knn_search(cloud, [0.0, 0.0, 0.0], 0)

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(4000 + seed)
        n = int(rng.integers(1, 257))
        cloud = random_cloud(rng, n, duplicates=bool(seed % 2))
        k = int(rng.integers(1, n + 1))
        q = rng.uniform(-1.2, 1.2, 3)
        got = geo.knn_search(cloud, q, k)
        np.testing.assert_array_equal(got, geo.brute_force_knn(cloud, q, k))
        np.testing.assert_array_equal(got, knn_exhaustive(cloud.points, q, k))

    @pytest.mark.parametrize("seed", range(20))
    def test_batched_rows_match_brute_force(self, seed):
        rng = np.random.default_rng(4500 + seed)
        n = int(rng.integers(1, 200))
        if seed % 2:
            # lattice coordinates: duplicate points and ties at the k-th distance
            cloud = geo.PointCloud(rng.integers(-2, 3, size=(n, 3)).astype(np.float64))
            queries = rng.integers(-2, 3, size=(12, 3)).astype(np.float64)
        else:
            cloud = random_cloud(rng, n, duplicates=True)
            queries = rng.uniform(-1.2, 1.2, (12, 3))
            queries[::4] = cloud.points[rng.integers(0, n, 3)]
        for k in (1, int(rng.integers(1, n + 1)), n):
            got = geo.knn_search(cloud, queries, k)
            assert got.shape == (12, k)
            for row, q in zip(got, queries):
                np.testing.assert_array_equal(row, geo.brute_force_knn(cloud, q, k))

    def test_single_query_is_first_batched_row(self):
        rng = np.random.default_rng(11)
        cloud = random_cloud(rng, 30)
        queries = rng.uniform(-1, 1, (3, 3))
        batched = geo.knn_search(cloud, queries, 5)
        np.testing.assert_array_equal(geo.knn_search(cloud, queries[0], 5), batched[0])
        assert geo.knn_search(cloud, queries[0], 5).shape == (5,)

    def test_bad_query_shape_rejected(self):
        cloud = geo.PointCloud(np.eye(3))
        with pytest.raises(ValueError):
            geo.knn_search(cloud, np.zeros((2, 2)), 1)

    def test_brute_force_orders_by_distance(self):
        rng = np.random.default_rng(5)
        cloud = random_cloud(rng, 50)
        q = np.zeros(3)
        idx = geo.brute_force_knn(cloud, q, 50)
        d = ((cloud.points[idx] - q) ** 2).sum(axis=1)
        assert (np.diff(d) >= 0).all()


def reference_shape_cloud(kind, seed):
    """1024 points: Gaussian; an integer lattice, whose duplicates and equal
    distances give ties; or a lattice cluster beside a far Gaussian one, so
    that one batch of queries has rows with and rows without ties."""
    rng = np.random.default_rng(seed)
    gaussian = rng.normal(size=(1024, 3))
    lattice = rng.integers(-4, 5, size=(1024, 3)).astype(np.float64)
    if kind == "gaussian":
        return gaussian
    if kind == "lattice":
        return lattice
    return np.concatenate([lattice[:512], gaussian[:512] + [100.0, 0.0, 0.0]])


def tied_rows(points, queries, k):
    """Rows whose k+1 smallest squared distances hold two equal values."""
    d = np.sort(((points[None] - queries[:, None]) ** 2).sum(axis=2), axis=1)[:, : k + 1]
    return (d[:, 1:] == d[:, :-1]).any(axis=1)


class TestReferenceShape:
    """FPS and kNN at the reference sizes (1024 points, m=384, k=128) against
    the oracles that sum [n, 3] squares and sort every row by the full key."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("kind", ["gaussian", "lattice", "mixed"])
    def test_kernels_match_the_full_key_oracles(self, kind, seed):
        points = reference_shape_cloud(kind, 7300 + seed)
        cloud = geo.PointCloud(points)
        picked = geo.farthest_point_sample(cloud, 384)
        want = reference_farthest_point_sample(points, 384)
        assert picked.indices.dtype == want.dtype
        assert picked.indices.tobytes() == want.tobytes()
        assert picked.coords.tobytes() == points[want].tobytes()
        queries = picked.coords
        got = geo.knn_search(cloud, queries, 128)
        assert got.dtype == np.int64
        assert got.tobytes() == reference_knn_search(points, queries, 128).tobytes()
        tied = tied_rows(points, queries, 128)
        if kind == "gaussian":
            assert not tied.any()
        elif kind == "mixed":
            # one batch: some rows take the full-key sort, others do not
            assert 0 < tied.sum() < len(tied)

    @pytest.mark.parametrize("k", [1, 16, 129, 1024])
    def test_every_k_matches_on_a_lattice_with_off_lattice_queries(self, k):
        points = reference_shape_cloud("mixed", 7310)
        rng = np.random.default_rng(7311)
        queries = np.concatenate([points[rng.integers(0, 1024, 64)],
                                  rng.integers(-4, 5, size=(32, 3)) + 0.5,
                                  rng.normal(size=(32, 3)) * 3.0])
        got = geo.knn_search(geo.PointCloud(points), queries, k)
        assert got.tobytes() == reference_knn_search(points, queries, k).tobytes()

    def test_overflowing_distances_tie_at_infinity(self):
        # finite coordinates whose squared distances overflow to inf tie there
        rng = np.random.default_rng(7315)
        points = rng.normal(size=(200, 3))
        points[::7] *= 1e200
        cloud = geo.PointCloud(points)
        with np.errstate(over="ignore"):
            picked = geo.farthest_point_sample(cloud, 60)
            want = reference_farthest_point_sample(points, 60)
            assert picked.indices.tobytes() == want.tobytes()
            for k in (1, 40, 200):
                got = geo.knn_search(cloud, picked.coords, k)
                assert got.tobytes() == reference_knn_search(points, picked.coords, k).tobytes()

    def test_square_distances_sum_the_terms_in_axis_order(self):
        rng = np.random.default_rng(7320)
        points = rng.normal(size=(300, 3)) * 10.0 ** rng.integers(-3, 4, size=(300, 3))
        queries = rng.normal(size=(40, 3)) * 10.0 ** rng.integers(-3, 4, size=(40, 3))
        want = ((points[None] - queries[:, None]) ** 2).sum(axis=2)
        for layout in (points, np.asfortranarray(points)):
            assert geo.square_distances(queries, layout).tobytes() == want.tobytes()

    def test_candidates_widen_only_for_a_straddling_tie(self):
        d = np.array([[3.0, 1.0, 2.0, 5.0], [4.0, 1.0, 2.0, 2.0]])
        assert geo.nearest_candidates(d[:1], 2).shape == (1, 2)
        assert sorted(geo.nearest_candidates(d[:1], 2)[0]) == [1, 2]
        # row 1 ties at its 2nd distance: every row gets three columns
        wide = geo.nearest_candidates(d, 2)
        assert wide.shape == (2, 3)
        assert sorted(wide[1]) == [1, 2, 3]

    def test_candidates_hold_every_entry_tied_with_the_kth(self):
        # small integer distances: ties straddle the k-th value in most rows
        d = np.random.default_rng(7330).integers(0, 40, size=(200, 1024)).astype(np.float64)
        for k in (1, 3, 128):
            cand = geo.nearest_candidates(d, k)
            kth = np.sort(d, axis=1)[:, k - 1 : k]
            assert cand.shape[1] == (d <= kth).sum(axis=1).max()
            for row, c, t in zip(d, cand, kth):
                assert len(set(c)) == len(c)
                assert set(np.flatnonzero(row <= t)) <= set(c)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_queries_rejected(self, bad):
        cloud = geo.PointCloud(np.eye(3))
        queries = np.zeros((2, 3))
        queries[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            geo.knn_search(cloud, queries, 1)


class TestGroupAreas:
    def test_prefix_nesting(self):
        rng = np.random.default_rng(8)
        cloud = random_cloud(rng, 64)
        centroids = geo.farthest_point_sample(cloud, 6)
        grouping = geo.group_areas(cloud, centroids, geo.ScaleSpec((4, 8, 16)))
        # each smaller scale's own search equals a prefix of the largest area
        assert grouping.neighbor_indices.shape == (6, 16)
        for k in (4, 8):
            small = geo.knn_search(cloud, centroids.coords, k)
            np.testing.assert_array_equal(grouping.neighbor_indices[:, :k], small)

    def test_eight_point_cloud_against_brute_force(self):
        rng = np.random.default_rng(9)
        cloud = random_cloud(rng, 8)
        centroids = geo.farthest_point_sample(cloud, 2)
        grouping = geo.group_areas(cloud, centroids, geo.ScaleSpec((2, 4)))
        for j in range(2):
            for t, k in enumerate((2, 4)):
                expect = knn_exhaustive(cloud.points, centroids.coords[j], k)
                np.testing.assert_array_equal(grouping.neighbor_indices[j, :k], expect)

    def test_scale_exceeding_cloud_rejected(self):
        cloud = geo.PointCloud(np.eye(3))
        centroids = geo.farthest_point_sample(cloud, 1)
        with pytest.raises(ValueError):
            geo.group_areas(cloud, centroids, geo.ScaleSpec((2, 4)))

    def test_k_equals_n_exhausts_cloud(self):
        rng = np.random.default_rng(10)
        cloud = random_cloud(rng, 12)
        centroids = geo.farthest_point_sample(cloud, 3)
        grouping = geo.group_areas(cloud, centroids, geo.ScaleSpec((4, 12)))
        for j in range(3):
            assert sorted(grouping.neighbor_indices[j, :12].tolist()) == list(range(12))


def relative_areas(points, m, scales):
    """Centroids and the [m, k, 3] centroid-relative areas prepare_cloud caches."""
    geom = prepare_cloud(geo.PointCloud(points), ModelConfig(m=m, scales=scales))
    return geom.centroid_coords, geom.relative


class TestToRelative:
    def test_example(self):
        # (1, 2, 3) lies farthest from the mean, so it is the one centroid
        points = np.array([[3.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
        centroids, (area,) = relative_areas(points, 1, (3,))
        np.testing.assert_array_equal(centroids, [[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(area[0], [[0.0, 0.0, 0.0], [-1.0, -2.0, -3.0],
                                                [2.0, -2.0, -3.0]])

    def test_zero_centroid_is_identity(self):
        points = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.5], [0.5, 1.0, 1.0]])
        centroids, (area,) = relative_areas(points, 1, (3,))
        np.testing.assert_array_equal(centroids, np.zeros((1, 3)))
        cloud = geo.PointCloud(points)
        np.testing.assert_array_equal(area[0], points[geo.brute_force_knn(cloud, np.zeros(3), 3)])

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_exact(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.uniform(-1, 1, (10, 3))
        centroids, areas = relative_areas(points, 3, (4, 10))
        cloud = geo.PointCloud(points)
        for j, c in enumerate(centroids):
            for area in areas:
                gathered = points[geo.brute_force_knn(cloud, c, area.shape[1])]
                np.testing.assert_array_equal(area[j], gathered - c)
                np.testing.assert_array_equal(area[j] + c, gathered)


class TestPermutationInvariance:
    @pytest.mark.parametrize("seed", range(20))
    def test_pipeline_through_grouping(self, seed):
        rng = np.random.default_rng(6000 + seed)
        n = int(rng.integers(16, 128))
        base = geo.normalize_unit_ball(random_cloud(rng, n))
        perm = rng.permutation(n)
        shuffled = geo.PointCloud(base.points[perm])

        m, scales = 5, geo.ScaleSpec((3, 7))
        cent_a = geo.farthest_point_sample(base, m)
        cent_b = geo.farthest_point_sample(shuffled, m)
        np.testing.assert_array_equal(cent_a.coords, cent_b.coords)

        group_a = geo.group_areas(base, cent_a, scales)
        group_b = geo.group_areas(shuffled, cent_b, scales)
        for j in range(m):
            for k in scales.sizes:
                coords_a = base.points[group_a.neighbor_indices[j, :k]]
                coords_b = shuffled.points[group_b.neighbor_indices[j, :k]]
                np.testing.assert_array_equal(coords_a, coords_b)

    @pytest.mark.parametrize("seed", range(10))
    def test_normalization_is_permutation_equivariant(self, seed):
        rng = np.random.default_rng(7000 + seed)
        n = int(rng.integers(4, 100))
        points = rng.uniform(-5, 5, (n, 3))
        perm = rng.permutation(n)
        a = geo.normalize_unit_ball(geo.PointCloud(points)).points
        b = geo.normalize_unit_ball(geo.PointCloud(points[perm])).points
        np.testing.assert_array_equal(a[perm], b)
