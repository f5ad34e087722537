"""Point-file and manifest IO, synthetic shapes, and batch slicing."""

import os

import numpy as np
import pytest

from pointseq.config import DataConfig, load_run_config
from pointseq.data import (
    CLASS_KINDS,
    SyntheticSpec,
    composite_two_part,
    cube_surface,
    generate_synthetic,
    load_manifest,
    load_point_file,
    oriented_disc,
    sphere_surface,
    synthetic_classification,
    synthetic_segmentation,
    synthetic_splits,
    write_manifest,
    write_point_file,
    write_synthetic_dataset,
)
from pointseq.errors import ConfigError, DataError, ParseError
from pointseq.geometry import PointCloud
from pointseq.training import _batches


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestPointFiles:
    def test_two_point_file_parses_and_normalizes(self, tmp_path):
        path = _write(tmp_path / "pair.pts", "0 0 0\n1 0 0\n")
        cloud = load_point_file(path)
        assert cloud.labels is None
        np.testing.assert_array_equal(
            cloud.points, [[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        )

    def test_four_column_file_attaches_labels(self, tmp_path):
        path = _write(tmp_path / "seg.pts", "0 0 0 1\n1 0 0 0\n0 1 0 1\n")
        cloud = load_point_file(path)
        np.testing.assert_array_equal(cloud.labels, [1, 0, 1])

    def test_blank_lines_skipped(self, tmp_path):
        path = _write(tmp_path / "gaps.pts", "\n0 0 0\n\n1 0 0\n\n")
        assert len(load_point_file(path)) == 2

    def test_malformed_first_line_reports_line_one(self, tmp_path):
        path = _write(tmp_path / "bad.pts", "a b c\n")
        with pytest.raises(ParseError) as err:
            load_point_file(path)
        assert err.value.line == 1
        assert "line 1" in str(err.value)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = _write(tmp_path / "bad.pts", "0 0 0\n\n1 0 x\n")
        with pytest.raises(ParseError) as err:
            load_point_file(path)
        assert err.value.line == 3

    def test_wrong_column_count_rejected(self, tmp_path):
        path = _write(tmp_path / "bad.pts", "0 0\n")
        with pytest.raises(ParseError, match="3 or 4 columns"):
            load_point_file(path)

    def test_mixed_column_count_rejected(self, tmp_path):
        path = _write(tmp_path / "bad.pts", "0 0 0\n1 1 1 2\n")
        with pytest.raises(ParseError) as err:
            load_point_file(path)
        assert err.value.line == 2

    def test_non_finite_coordinate_rejected(self, tmp_path):
        path = _write(tmp_path / "bad.pts", "0 0 inf\n1 0 0\n")
        with pytest.raises(ParseError, match="non-finite"):
            load_point_file(path)

    def test_fractional_label_rejected(self, tmp_path):
        path = _write(tmp_path / "bad.pts", "0 0 0 1.5\n")
        with pytest.raises(ParseError, match="part label"):
            load_point_file(path)

    def test_empty_file_rejected(self, tmp_path):
        path = _write(tmp_path / "empty.pts", "")
        with pytest.raises(DataError, match="no points"):
            load_point_file(path)

    def test_whitespace_only_file_rejected(self, tmp_path):
        path = _write(tmp_path / "blank.pts", "\n  \n")
        with pytest.raises(DataError, match="no points"):
            load_point_file(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_point_file(tmp_path / "absent.pts")

    def test_loaded_cloud_lands_in_unit_ball(self, tmp_path):
        rng = np.random.default_rng(7)
        raw = 5.0 * rng.normal(size=(40, 3)) + 2.0
        lines = "\n".join(f"{x:.17g} {y:.17g} {z:.17g}" for x, y, z in raw)
        cloud = load_point_file(_write(tmp_path / "big.pts", lines + "\n"))
        norms = np.linalg.norm(cloud.points, axis=1)
        assert norms.max() <= 1.0 + 1e-12
        np.testing.assert_allclose(norms.max(), 1.0, rtol=1e-12)

    def test_writer_keeps_full_float64_precision(self, tmp_path):
        rng = np.random.default_rng(3)
        cloud = PointCloud(rng.normal(size=(25, 3)) / 3.0)
        path = tmp_path / "precise.pts"
        write_point_file(path, cloud)
        parsed = np.array(
            [[float(c) for c in line.split()] for line in path.read_text().splitlines()]
        )
        np.testing.assert_array_equal(parsed, cloud.points)

    def test_round_trip_identity_on_normalized_clouds(self, tmp_path):
        spec = SyntheticSpec("sphere", points=32, noise=0.05, seed=11)
        cloud = generate_synthetic(spec, 1)[0]
        path = tmp_path / "sphere.pts"
        write_point_file(path, cloud)
        again = load_point_file(path)
        np.testing.assert_allclose(again.points, cloud.points, rtol=0, atol=1e-12)

    def test_round_trip_preserves_labels_exactly(self, tmp_path):
        spec = SyntheticSpec("composite", points=24, noise=0.02, seed=5)
        cloud = generate_synthetic(spec, 1)[0]
        path = tmp_path / "composite.pts"
        write_point_file(path, cloud)
        again = load_point_file(path)
        np.testing.assert_array_equal(again.labels, cloud.labels)


def _point_file(tmp_path, rel, text):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    return _write(path, text)


class TestManifests:
    def _classification(self, tmp_path):
        _point_file(tmp_path, "a0.pts", "0 0 0\n1 0 0\n0 1 0\n")
        _point_file(tmp_path, "b0.pts", "0 0 1\n1 1 0\n0 1 1\n")
        return _write(
            tmp_path / "manifest.txt",
            "task = classification\n"
            "classes = ball box\n"
            "\n"
            "train a0.pts ball\n"
            "train b0.pts box\n",
        )

    def test_minimal_classification_manifest(self, tmp_path):
        manifest = load_manifest(self._classification(tmp_path))
        assert manifest.task == "classification"
        assert manifest.names == ("ball", "box")
        clouds, labels = manifest.split("train")
        assert len(clouds) == 2
        np.testing.assert_array_equal(labels, [0, 1])
        assert len(manifest.split("test")[0]) == 0

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        _point_file(tmp_path, "a0.pts", "0 0 0\n1 0 0\n")
        path = _write(
            tmp_path / "manifest.txt",
            "# synthetic smoke set\ntask = classification\n\nclasses = ball\n"
            "\n# records\ntrain a0.pts ball\n",
        )
        manifest = load_manifest(path)
        assert len(manifest.split("train")[0]) == 1

    def test_missing_file_reference_rejected(self, tmp_path):
        _point_file(tmp_path, "a0.pts", "0 0 0\n1 0 0\n")
        path = _write(
            tmp_path / "manifest.txt",
            "task = classification\nclasses = ball\ntrain gone.pts ball\n",
        )
        with pytest.raises(DataError, match="missing file"):
            load_manifest(path)

    def test_unknown_class_name_rejected_with_line(self, tmp_path):
        _point_file(tmp_path, "a0.pts", "0 0 0\n1 0 0\n")
        path = _write(
            tmp_path / "manifest.txt",
            "task = classification\nclasses = ball\ntrain a0.pts cube\n",
        )
        with pytest.raises(ParseError, match="unknown class 'cube'") as err:
            load_manifest(path)
        assert err.value.line == 3

    def test_bad_task_rejected(self, tmp_path):
        path = _write(tmp_path / "manifest.txt", "task = regression\nclasses = a\n")
        with pytest.raises(DataError, match="task"):
            load_manifest(path)

    def test_missing_task_rejected(self, tmp_path):
        path = _write(tmp_path / "manifest.txt", "classes = a\n")
        with pytest.raises(DataError, match="task"):
            load_manifest(path)

    def test_missing_names_rejected(self, tmp_path):
        path = _write(tmp_path / "manifest.txt", "task = classification\n")
        with pytest.raises(DataError, match="classes"):
            load_manifest(path)

    def test_duplicate_name_rejected(self, tmp_path):
        path = _write(
            tmp_path / "manifest.txt", "task = classification\nclasses = ball ball\n"
        )
        with pytest.raises(DataError, match="repeats"):
            load_manifest(path)

    def test_unknown_header_key_rejected(self, tmp_path):
        path = _write(
            tmp_path / "manifest.txt",
            "task = classification\nclasses = ball\nflavor = vanilla\n",
        )
        with pytest.raises(DataError, match="unknown header key"):
            load_manifest(path)

    def test_duplicate_header_key_rejected(self, tmp_path):
        path = _write(
            tmp_path / "manifest.txt",
            "task = classification\nclasses = a\nclasses = b\n",
        )
        with pytest.raises(ParseError, match="duplicate"):
            load_manifest(path)

    def test_short_record_rejected(self, tmp_path):
        path = _write(
            tmp_path / "manifest.txt",
            "task = classification\nclasses = ball\ntrain a0.pts\n",
        )
        with pytest.raises(ParseError, match="three fields"):
            load_manifest(path)

    def _segmentation(self, tmp_path, labels="0 1 1 0"):
        parts = labels.split()
        lines = "\n".join(
            f"{i} {i} {i} {p}" for i, p in enumerate(parts)
        )
        _point_file(tmp_path, "c0.pts", lines + "\n")
        return _write(
            tmp_path / "manifest.txt",
            "task = segmentation\n"
            "categories = dome\n"
            "parts.dome = 0 2\n"
            "train c0.pts dome\n",
        )

    def test_segmentation_manifest_parses(self, tmp_path):
        manifest = load_manifest(self._segmentation(tmp_path))
        assert manifest.part_ranges == {"dome": (0, 2)}
        clouds, ids = manifest.split("train")
        np.testing.assert_array_equal(clouds[0].labels, [0, 1, 1, 0])
        np.testing.assert_array_equal(ids, [0])

    def test_segmentation_label_out_of_range_rejected(self, tmp_path):
        path = self._segmentation(tmp_path, labels="0 1 2 0")
        with pytest.raises(DataError, match="outside"):
            load_manifest(path)

    def test_segmentation_requires_point_labels(self, tmp_path):
        _point_file(tmp_path, "c0.pts", "0 0 0\n1 0 0\n")
        path = _write(
            tmp_path / "manifest.txt",
            "task = segmentation\ncategories = dome\nparts.dome = 0 2\n"
            "train c0.pts dome\n",
        )
        with pytest.raises(DataError, match="no part labels"):
            load_manifest(path)

    def test_missing_part_range_rejected(self, tmp_path):
        path = _write(
            tmp_path / "manifest.txt", "task = segmentation\ncategories = dome\n"
        )
        with pytest.raises(DataError, match="parts.dome"):
            load_manifest(path)

    def test_empty_part_range_rejected(self, tmp_path):
        path = _write(
            tmp_path / "manifest.txt",
            "task = segmentation\ncategories = dome\nparts.dome = 2 2\n",
        )
        with pytest.raises(DataError, match="empty or negative"):
            load_manifest(path)

    def test_part_ranges_checked_per_category(self, tmp_path):
        # label 1 is fine for wing [0, 2) but out of range for fin [2, 4)
        _point_file(tmp_path, "w.pts", "0 0 0 0\n1 0 0 1\n")
        _point_file(tmp_path, "f.pts", "0 0 0 1\n1 0 0 2\n")
        path = _write(
            tmp_path / "manifest.txt",
            "task = segmentation\n"
            "categories = wing fin\n"
            "parts.wing = 0 2\n"
            "parts.fin = 2 4\n"
            "train w.pts wing\n"
            "train f.pts fin\n",
        )
        with pytest.raises(DataError, match="'fin' range"):
            load_manifest(path)

    def test_paths_resolve_relative_to_manifest(self, tmp_path):
        _point_file(tmp_path, "clouds/a0.pts", "0 0 0\n1 0 0\n")
        path = _write(
            tmp_path / "manifest.txt",
            "task = classification\nclasses = ball\ntrain clouds/a0.pts ball\n",
        )
        manifest = load_manifest(path)
        assert len(manifest.split("train")[0]) == 1

    def test_write_then_load_round_trip(self, tmp_path):
        clouds, _ = synthetic_segmentation(16, 0.01, 3, seed=9)
        records = []
        for i, cloud in enumerate(clouds):
            rel = f"c{i}.pts"
            write_point_file(tmp_path / rel, cloud)
            split = "train" if i < 2 else "test"
            records.append((split, rel, "dome"))
        write_manifest(
            tmp_path / "manifest.txt", "segmentation", ("dome",), records,
            part_ranges={"dome": (0, 2)},
        )
        manifest = load_manifest(tmp_path / "manifest.txt")
        assert manifest.part_ranges == {"dome": (0, 2)}
        train, _ = manifest.split("train")
        test, _ = manifest.split("test")
        assert (len(train), len(test)) == (2, 1)
        np.testing.assert_allclose(train[0].points, clouds[0].points, atol=1e-12)


class TestSyntheticShapes:
    def test_sphere_norms_are_unit_before_normalization(self):
        pts = sphere_surface(np.random.default_rng(0), 512)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, rtol=0, atol=1e-12)

    def test_cube_points_sit_on_the_surface(self):
        pts = cube_surface(np.random.default_rng(1), 512)
        assert np.abs(pts).max() <= 1.0
        np.testing.assert_allclose(np.abs(pts).max(axis=1), 1.0, rtol=0, atol=0)

    def test_cube_uses_all_six_faces(self):
        pts = cube_surface(np.random.default_rng(2), 600)
        faces = set()
        for p in pts:
            axis = int(np.argmax(np.abs(p)))
            faces.add((axis, p[axis] > 0))
        assert len(faces) == 6

    def test_disc_is_planar_with_unit_radius(self):
        pts = oriented_disc(np.random.default_rng(3), 256)
        # rank 2: the smallest singular value vanishes for coplanar points
        assert np.linalg.svd(pts, compute_uv=False)[2] < 1e-12
        assert np.linalg.norm(pts, axis=1).max() <= 1.0 + 1e-12

    def test_disc_orientation_varies_by_draw(self):
        rng = np.random.default_rng(4)
        first = oriented_disc(rng, 64)
        second = oriented_disc(rng, 64)

        def normal(pts):
            return np.linalg.svd(pts)[2][2]

        cosine = abs(float(normal(first) @ normal(second)))
        assert cosine < 0.999

    def test_composite_label_counts_match_allocations(self):
        pts, labels = composite_two_part(np.random.default_rng(5), 65)
        assert pts.shape == (65, 3)
        np.testing.assert_array_equal(np.bincount(labels), [32, 33])
        assert (pts[labels == 0][:, 2] >= 0).all()
        np.testing.assert_array_equal(pts[labels == 1][:, 2], 0.0)

    def test_generate_is_deterministic_per_seed(self):
        spec = SyntheticSpec("composite", points=32, noise=0.03, seed=17)
        first = generate_synthetic(spec, 4)
        second = generate_synthetic(spec, 4)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.points, b.points)
            np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = generate_synthetic(SyntheticSpec("sphere", points=16, seed=0), 1)[0]
        b = generate_synthetic(SyntheticSpec("sphere", points=16, seed=1), 1)[0]
        assert not np.array_equal(a.points, b.points)

    def test_generated_clouds_satisfy_unit_ball(self):
        spec = SyntheticSpec("cube", points=48, noise=0.1, seed=2)
        for cloud in generate_synthetic(spec, 5):
            norms = np.linalg.norm(cloud.points, axis=1)
            np.testing.assert_allclose(norms.max(), 1.0, rtol=1e-12)

    def test_spec_validation(self):
        with pytest.raises(ConfigError, match="kind"):
            SyntheticSpec("torus")
        with pytest.raises(ConfigError, match="at least 8"):
            SyntheticSpec("sphere", points=4)
        with pytest.raises(ConfigError, match="non-negative"):
            SyntheticSpec("sphere", noise=-0.1)

    def test_classification_set_is_exactly_balanced(self):
        clouds, labels = synthetic_classification(16, 0.02, 5, seed=0)
        assert len(clouds) == 15
        np.testing.assert_array_equal(np.bincount(labels), [5, 5, 5])
        # labels follow CLASS_KINDS order and arrive in contiguous blocks
        np.testing.assert_array_equal(labels, np.repeat([0, 1, 2], 5))
        assert CLASS_KINDS == ("cube", "plane", "sphere")

    def test_segmentation_set_single_category(self):
        clouds, ids = synthetic_segmentation(24, 0.02, 4, seed=1)
        assert len(clouds) == 4
        np.testing.assert_array_equal(ids, [0, 0, 0, 0])
        for cloud in clouds:
            assert set(np.unique(cloud.labels)) == {0, 1}

    def test_splits_draw_from_disjoint_streams(self):
        cfg = DataConfig(points=16, noise=0.0, train_count=2, test_count=2, seed=0)
        train_clouds, _, test_clouds, _ = synthetic_splits(cfg, "classification")
        assert len(train_clouds) == 6
        assert len(test_clouds) == 6
        assert not np.array_equal(train_clouds[0].points, test_clouds[0].points)

    def test_splits_deterministic(self):
        cfg = DataConfig(points=16, noise=0.05, train_count=2, test_count=1, seed=4)
        a = synthetic_splits(cfg, "segmentation")
        b = synthetic_splits(cfg, "segmentation")
        np.testing.assert_array_equal(a[0][0].points, b[0][0].points)


class TestSyntheticFiles:
    def test_classification_file_count(self, tmp_path):
        cfg = DataConfig(points=16, noise=0.02, train_count=4, test_count=2, seed=3)
        manifest_path = write_synthetic_dataset(tmp_path, cfg, "classification")
        files = sorted(p.name for p in tmp_path.iterdir())
        assert len([f for f in files if f.endswith(".pts")]) == 18
        assert "manifest.txt" in files
        manifest = load_manifest(manifest_path)
        assert len(manifest.split("train")[0]) == 12
        assert len(manifest.split("test")[0]) == 6

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = DataConfig(points=16, noise=0.02, train_count=2, test_count=1, seed=8)
        first = tmp_path / "one"
        second = tmp_path / "two"
        write_synthetic_dataset(first, cfg, "segmentation")
        write_synthetic_dataset(second, cfg, "segmentation")
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_segmentation_files_carry_labels(self, tmp_path):
        cfg = DataConfig(points=16, noise=0.0, train_count=1, test_count=1, seed=0)
        manifest_path = write_synthetic_dataset(tmp_path, cfg, "segmentation")
        first_line = (tmp_path / "train_composite_000.pts").read_text().splitlines()[0]
        assert len(first_line.split()) == 4
        manifest = load_manifest(manifest_path)
        assert manifest.split("train")[0][0].labels is not None

    def test_loaded_matches_generated(self, tmp_path):
        cfg = DataConfig(points=16, noise=0.05, train_count=2, test_count=1, seed=6)
        manifest = load_manifest(write_synthetic_dataset(tmp_path, cfg, "classification"))
        train_clouds, train_labels, _, _ = synthetic_splits(cfg, "classification")
        loaded, labels = manifest.split("train")
        np.testing.assert_array_equal(labels, train_labels)
        for a, b in zip(loaded, train_clouds):
            np.testing.assert_allclose(a.points, b.points, rtol=0, atol=1e-12)


class TestBatchIterator:
    # training and evaluation cut each pass into consecutive index batches
    def test_partition_sizes(self):
        assert [len(b) for b in _batches(10, 4)] == [4, 4, 2]

    def test_every_item_appears_once(self):
        flat = [i for b in _batches(23, 5) for i in b]
        assert flat == list(range(23))

    def test_large_batch_yields_single_batch(self):
        batches = list(_batches(5, 99))
        assert len(batches) == 1
        assert batches[0].tolist() == list(range(5))

    def test_zero_batch_size_rejected(self):
        with pytest.raises(ConfigError, match="at least 1"):
            load_run_config(sets=[("train.batch_size", "0")])
