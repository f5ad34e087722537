"""Release acceptance: eight binding end-to-end checks with pinned bounds.

Run as ``pytest tests/test_acceptance.py -v -s`` to see one PASS marker per
check with the measured value next to its bound. The desk-scale runs load
the example configuration files from configs/, so the README quick-start
commands and this gate exercise identical settings.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from helpers import fps_exhaustive, knn_exhaustive
from pointseq.cli import main as cli_main
from pointseq.config import AGGREGATORS, ModelConfig
from pointseq.data import SyntheticSpec, generate_synthetic, load_point_file, write_point_file
from pointseq.geometry import PointCloud, brute_force_knn, farthest_point_sample, knn_search
from pointseq.model import (
    ModelParams,
    area_pooled_feature,
    attention_scores,
    build_params,
    classify_forward,
    encode_sequence,
    interpolate_features,
    interpolation_weights,
    load_checkpoint,
    prepare_cloud,
    save_checkpoint,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _train_cli(config_name, out):
    code = cli_main(["train", "--config", str(CONFIGS / config_name), "--out", str(out)])
    assert code == 0
    return (out / "metrics.log").read_text().splitlines()


def _column(lines, key):
    return [float(line.split(f"{key}=")[1].split()[0]) for line in lines]


@pytest.fixture(scope="module")
def desk_cls_runs(tmp_path_factory):
    """The desk classification run, performed twice with one seed."""
    base = tmp_path_factory.mktemp("desk_cls")
    start = time.monotonic()
    lines = _train_cli("desk_classification.ini", base / "a")
    elapsed = time.monotonic() - start
    _train_cli("desk_classification.ini", base / "b")
    return base, lines, elapsed


class TestGradientFidelity:
    def test_criterion_1_finite_difference_agreement(self, capsys):
        start = time.monotonic()
        code = cli_main(["gradcheck"])
        elapsed = time.monotonic() - start
        out = capsys.readouterr().out
        worsts = {
            label: float(out.split(f"{label} worst: ")[1].splitlines()[0])
            for label in ("classification", "segmentation")
        }
        assert code == 0
        assert worsts["classification"] < 1e-4
        assert worsts["segmentation"] < 1e-4
        assert elapsed < 120.0
        print(
            f"[criterion 1] PASS gradcheck cls={worsts['classification']:.3e} "
            f"seg={worsts['segmentation']:.3e} (<1e-4) in {elapsed:.1f}s (<120s)"
        )


class TestGeometryOracles:
    def test_criterion_2_search_and_sampling_match_exhaustive(self):
        rng = np.random.default_rng(2024)
        start = time.monotonic()
        for i in range(100):
            n = int(rng.integers(16, 257))
            if i % 5 == 0:
                # lattice coordinates force duplicate points and distance ties
                points = rng.integers(-2, 3, size=(n, 3)).astype(np.float64)
            else:
                points = rng.normal(size=(n, 3))
            cloud = PointCloud(points)
            m = int(rng.integers(4, min(n, 48) + 1))
            np.testing.assert_array_equal(
                farthest_point_sample(cloud, m).indices, fps_exhaustive(points, m)
            )
            for _ in range(4):
                query = rng.normal(size=3)
                k = int(rng.integers(1, n + 1))
                expected = knn_exhaustive(points, query, k)
                np.testing.assert_array_equal(knn_search(cloud, query, k), expected)
                np.testing.assert_array_equal(brute_force_knn(cloud, query, k), expected)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        print(
            f"[criterion 2] PASS 100 clouds, exact FPS and kNN agreement "
            f"in {elapsed:.1f}s (<60s)"
        )


def _invariance_setup(seed=0):
    cfg = ModelConfig(
        num_classes=3, m=8, scales=(4, 8), feature_dim=16, hidden_dim=16,
        area_hidden=(8, 16), agg_widths=(32, 32), head_widths=(32, 16),
    )
    rng = np.random.default_rng(seed)
    return cfg, build_params(cfg, rng), rng


class TestInvarianceSuite:
    def test_criterion_3_permutation_invariant_logits(self):
        cfg, params, rng = _invariance_setup()
        worst = 0.0
        for _ in range(20):
            points = rng.normal(size=(64, 3))
            perm = rng.permutation(64)
            base = classify_forward(PointCloud(points), params, cfg).values
            shuffled = classify_forward(PointCloud(points[perm]), params, cfg).values
            rel = np.max(np.abs(base - shuffled)) / max(np.max(np.abs(base)), 1e-12)
            worst = max(worst, rel)
        assert worst <= 1e-6
        print(f"[criterion 3] PASS permutation: logits rel err {worst:.3e} (<=1e-6)")

    def test_criterion_3_translation_invariant_area_features(self):
        cfg, params, rng = _invariance_setup()
        worst = 0.0
        for shift in ([0.5, -0.3, 0.2], [5.0, 4.0, -3.0]):
            for _ in range(10):
                points = rng.normal(size=(64, 3))
                moved = points + np.asarray(shift)
                geom_a = prepare_cloud(PointCloud(points), cfg)
                geom_b = prepare_cloud(PointCloud(moved), cfg)
                for rel_a, rel_b in zip(geom_a.relative, geom_b.relative):
                    for j in range(cfg.m):
                        fa = area_pooled_feature(rel_a[j], params, cfg).values
                        fb = area_pooled_feature(rel_b[j], params, cfg).values
                        worst = max(worst, float(np.max(np.abs(fa - fb))))
        assert worst <= 1e-9
        print(f"[criterion 3] PASS translation: area feature abs err {worst:.3e} (<=1e-9)")

    def test_criterion_3_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(1000):
            steps = int(rng.integers(1, 7))
            in_dim = int(rng.integers(2, 10))
            hidden = int(rng.integers(2, 10))
            params = ModelParams()
            params.add("encoder.weight", rng.normal(size=(in_dim + hidden, 4 * hidden)))
            params.add("encoder.bias", rng.normal(size=(4 * hidden,)))
            trace = encode_sequence(rng.normal(size=(steps, in_dim)), params)
            score_weight = rng.normal(size=(hidden, hidden)) * rng.uniform(0.1, 5.0)
            alpha = attention_scores(rng.normal(size=(1, hidden)), trace, score_weight).values
            assert (alpha >= 0.0).all()
            worst = max(worst, abs(float(alpha.sum()) - 1.0))
        assert worst <= 1e-9
        print(f"[criterion 3] PASS attention: worst |sum - 1| {worst:.3e} (<=1e-9)")

    def test_criterion_3_interpolation_is_convex(self):
        rng = np.random.default_rng(11)
        for i in range(1000):
            n_sources = int(rng.integers(1, 10))
            n_targets = int(rng.integers(1, 12))
            k = int(rng.integers(1, n_sources + 1))
            sources = rng.normal(size=(n_sources, 3))
            targets = rng.normal(size=(n_targets, 3))
            if i % 7 == 0:
                targets[0] = sources[rng.integers(n_sources)]  # exact-match path
            weights = interpolation_weights(targets, sources, k)
            assert (weights >= 0.0).all()
            np.testing.assert_allclose(weights.sum(axis=1), 1.0, rtol=0, atol=1e-12)
            assert (np.count_nonzero(weights, axis=1) <= k).all()
            features = rng.normal(size=(n_sources, 5))
            carried = interpolate_features(targets, sources, features, k)
            assert (carried >= features.min(axis=0) - 1e-12).all()
            assert (carried <= features.max(axis=0) + 1e-12).all()
        print("[criterion 3] PASS interpolation: 1000 convex combinations")


class TestDeskClassification:
    def test_criterion_4_desk_accuracy_targets(self, desk_cls_runs):
        _, lines, elapsed = desk_cls_runs
        train_best = max(_column(lines, "train_acc"))
        test_best = max(_column(lines, "test_acc"))
        assert len(lines) <= 200
        assert train_best >= 0.99
        assert test_best >= 0.90
        assert elapsed < 900.0
        print(
            f"[criterion 4] PASS train_acc {train_best:.3f} (>=0.99), "
            f"test_acc {test_best:.3f} (>=0.90), {len(lines)} epochs in "
            f"{elapsed:.1f}s (<900s)"
        )


class TestDeskSegmentation:
    def test_criterion_5_desk_miou_target(self, tmp_path):
        start = time.monotonic()
        lines = _train_cli("desk_segmentation.ini", tmp_path / "run")
        elapsed = time.monotonic() - start
        miou_best = max(_column(lines, "test_miou"))
        assert len(lines) <= 200
        assert miou_best >= 0.80
        assert elapsed < 1200.0
        print(
            f"[criterion 5] PASS test_miou {miou_best:.3f} (>=0.80), "
            f"{len(lines)} epochs in {elapsed:.1f}s (<1200s)"
        )


class TestAblationDirection:
    def test_criterion_6_aggregation_sweep_and_ordering(self, capsys):
        code = cli_main([
            "ablate", "aggregation", "--config", str(CONFIGS / "desk_classification.ini"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        start = lines.index(next(l for l in lines if l.startswith("value")))
        rows = [line.split() for line in lines[start + 1 : start + 6]]
        table = {name: float(acc) for name, acc in rows}
        assert list(table) == list(AGGREGATORS)
        assert table["attention_ed"] >= table["max_pool"] - 0.02
        report = " ".join(f"{name}={acc:.4f}" for name, acc in table.items())
        print(f"[criterion 6] PASS {report}; attention_ed >= max_pool - 0.02")


class TestDeterminism:
    def test_criterion_7_same_seed_runs_are_bit_identical(self, desk_cls_runs):
        base, _, _ = desk_cls_runs
        log_a = (base / "a" / "metrics.log").read_bytes()
        log_b = (base / "b" / "metrics.log").read_bytes()
        ckpt_a = (base / "a" / "checkpoint.bin").read_bytes()
        ckpt_b = (base / "b" / "checkpoint.bin").read_bytes()
        assert log_a == log_b
        assert ckpt_a == ckpt_b
        print(
            f"[criterion 7] PASS two same-seed runs: metrics.log "
            f"({len(log_a)} bytes) and checkpoint.bin ({len(ckpt_a)} bytes) identical"
        )


class TestRoundTrips:
    def test_criterion_8_point_file_values_survive(self, tmp_path):
        for kind in ("sphere", "composite"):
            cloud = generate_synthetic(SyntheticSpec(kind, points=64, noise=0.05, seed=3), 1)[0]
            path = tmp_path / f"{kind}.pts"
            write_point_file(path, cloud)
            again = load_point_file(path)
            np.testing.assert_allclose(again.points, cloud.points, rtol=0, atol=1e-12)
            if cloud.labels is not None:
                np.testing.assert_array_equal(again.labels, cloud.labels)
        print("[criterion 8] PASS point files round-trip within 1e-12")

    def test_criterion_8_checkpoints_round_trip_bit_exactly(self, tmp_path):
        cfg = ModelConfig(
            num_classes=3, m=4, scales=(2, 4), feature_dim=8, hidden_dim=8,
            area_hidden=(8, 8), agg_widths=(16, 16), head_widths=(16, 8),
        )
        params = build_params(cfg, np.random.default_rng(5))
        first = tmp_path / "a.bin"
        save_checkpoint(first, params, cfg)
        loaded, loaded_cfg = load_checkpoint(first)
        assert loaded_cfg == cfg
        for name, tensor in params.items():
            np.testing.assert_array_equal(loaded[name].values, tensor.values)
        second = tmp_path / "b.bin"
        save_checkpoint(second, loaded, loaded_cfg)
        assert first.read_bytes() == second.read_bytes()
        print("[criterion 8] PASS checkpoint round-trip is bit-exact")
