"""Oracle and invariance tests for the network blocks."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pointseq import autograd as ag
from pointseq.config import ModelConfig
from pointseq.errors import DataError, ShapeError
from pointseq.geometry import PointCloud
from pointseq.model import (
    EncoderTrace,
    ForwardContext,
    ModelParams,
    _decode_regions,
    area_pooled_feature,
    attention_scores,
    build_params,
    classify_batch,
    classify_forward,
    encode_sequence,
    interpolate_features,
    interpolation_weights,
    lstm_step,
    load_checkpoint,
    prepare_cloud,
    save_checkpoint,
    segment_batch,
)

from helpers import interpolation_weights_loop


def tiny_cls_config(**overrides):
    base = dict(
        task="classification", num_classes=3, m=4, scales=(2, 4),
        feature_dim=8, hidden_dim=8, area_hidden=(8, 8),
        agg_widths=(16, 16), head_widths=(16, 8),
    )
    base.update(overrides)
    return ModelConfig(**base)


def tiny_seg_config(**overrides):
    base = dict(
        task="segmentation", num_parts=4, m=4, scales=(2, 4),
        feature_dim=8, hidden_dim=8, area_hidden=(8, 8),
        agg_widths=(16, 16), seg_point_width=8,
        seg_prop1_widths=(16, 8), seg_prop2_widths=(16, 8),
        seg_head_widths=(8,),
    )
    base.update(overrides)
    return ModelConfig(**base)


class TestBuildParams:
    def test_core_shapes(self):
        cfg = tiny_cls_config()
        p = build_params(cfg, np.random.default_rng(0))
        assert p["area_mlp.0.weight"].shape == (3, 8)
        assert p["area_mlp.2.weight"].shape == (8, 8)
        assert p["centroid_proj.weight"].shape == (8 + 3, 8)
        assert p["encoder.weight"].shape == (8 + 8, 4 * 8)
        assert p["attn_combine.weight"].shape == (16, 8)
        assert p["agg_mlp.0.weight"].shape == (8 + 3, 16)
        assert p["head.out.weight"].shape == (8, 3)

    def test_layers_before_batch_norm_have_no_bias(self):
        p = build_params(tiny_cls_config(), np.random.default_rng(0))
        for name in ("area_mlp.0", "area_mlp.1", "agg_mlp.0", "head.0"):
            assert f"{name}.bias" not in p
            assert f"{name}.gamma" in p and f"{name}.beta" in p

    def test_forget_gate_bias_starts_at_one(self):
        p = build_params(tiny_cls_config(hidden_dim=8), np.random.default_rng(0))
        bias = p["encoder.bias"].values
        assert_array_equal(bias[8:16], np.ones(8))
        assert_array_equal(bias[:8], np.zeros(8))
        assert_array_equal(bias[16:], np.zeros(16))

    def test_init_respects_fan_in_bound(self):
        p = build_params(tiny_cls_config(), np.random.default_rng(3))
        w = p["centroid_proj.weight"].values
        assert np.all(np.abs(w) <= 1.0 / np.sqrt(11))

    def test_variant_parameter_sets(self):
        present = {
            "attention_ed": {"encoder.weight", "decoder.weight", "attn_score.weight"},
            "no_attention": {"encoder.weight", "decoder.weight", "decoder_out_proj.weight"},
            "no_decoder": {"encoder.weight"},
            "concat": {"concat_proj.weight"},
            "max_pool": set(),
        }
        absent = {
            "attention_ed": {"encoder_out_proj.weight", "decoder_out_proj.weight"},
            "no_attention": {"attn_score.weight", "encoder_out_proj.weight"},
            "no_decoder": {"decoder.weight", "attn_score.weight", "decoder_out_proj.weight"},
            "concat": {"encoder.weight"},
            "max_pool": {"encoder.weight", "concat_proj.weight"},
        }
        for agg, names in present.items():
            p = build_params(tiny_cls_config(aggregator=agg), np.random.default_rng(0))
            for name in names:
                assert name in p, (agg, name)
            for name in absent.get(agg, set()):
                assert name not in p, (agg, name)

    def test_no_decoder_widens_aggregation_input(self):
        cfg = tiny_cls_config(aggregator="no_decoder", hidden_dim=16)
        p = build_params(cfg, np.random.default_rng(0))
        assert p["agg_mlp.0.weight"].shape == (16 + 3, 16)

    def test_segmentation_parameter_sets(self):
        p = build_params(tiny_seg_config(), np.random.default_rng(0))
        assert "seg_point_mlp.0.weight" in p
        assert "seg_prop1.0.weight" in p
        assert "seg_head.out.weight" in p
        assert "head.out.weight" not in p
        assert p["seg_prop1.0.weight"].shape == (16 + 8, 16)
        assert p["seg_prop2.0.weight"].shape == (8 + 8, 16)
        assert p["seg_head.out.weight"].shape == (8, 4)

    def test_without_rng_weights_are_zero(self):
        p = build_params(tiny_cls_config())
        assert_array_equal(p["area_mlp.0.weight"].values, np.zeros((3, 8)))
        assert p["encoder.bias"].values[8:16].sum() == 8.0

    def test_duplicate_name_rejected(self):
        p = ModelParams()
        p.add("w", np.zeros(2))
        with pytest.raises(ValueError):
            p.add("w", np.zeros(2))


class TestLstmStep:
    def test_scalar_oracle(self):
        # state_dim 1, input_dim 1; z = [h, x] @ W + b with gate order
        # input, forget, output, candidate
        w = np.array([[0.5, -0.3, 0.2, 0.7],
                      [0.1, 0.4, -0.6, 0.8]])
        b = np.array([0.05, -0.1, 0.2, 0.0])
        h_prev, c_prev, x = 0.3, -0.4, 0.9

        z = np.array([h_prev, x]) @ w + b
        sig = lambda v: 1.0 / (1.0 + math.exp(-v))
        c_want = sig(z[1]) * c_prev + sig(z[0]) * math.tanh(z[3])
        h_want = sig(z[2]) * math.tanh(c_want)

        h, c = lstm_step(np.array([h_prev]), np.array([c_prev]), np.array([x]),
                         ag.tensor(w), ag.tensor(b))
        assert_allclose(h.values, [h_want], rtol=1e-15)
        assert_allclose(c.values, [c_want], rtol=1e-15)

    def test_zero_parameters_give_zero_state(self):
        w = ag.tensor(np.zeros((6, 8)))
        b = ag.tensor(np.zeros(8))
        h, c = lstm_step(np.zeros((3, 2)), np.zeros((3, 2)),
                         np.random.default_rng(0).normal(size=(3, 4)), w, b)
        # all gates sit at 1/2 and the candidate at tanh(0) = 0
        assert_array_equal(c.values, np.zeros((3, 2)))
        assert_array_equal(h.values, np.zeros((3, 2)))

    def test_geometric_cell_accumulation(self):
        # zero weights, candidate bias arctanh(0.8), all gates at 1/2:
        # c_t = c_{t-1}/2 + 0.4, so from zero c_t = 0.8 (1 - 2^-t)
        b = np.zeros(4)
        b[3] = math.atanh(0.8)
        w = ag.tensor(np.zeros((2, 4)))
        bias = ag.tensor(b)
        h = np.zeros((1, 1))
        c = np.zeros((1, 1))
        for t in range(1, 6):
            h, c = lstm_step(h, c, np.ones((1, 1)), w, bias)
            assert_allclose(c.values[0, 0], 0.8 * (1 - 0.5**t), rtol=1e-14)
            assert_allclose(h.values[0, 0], 0.5 * math.tanh(0.8 * (1 - 0.5**t)),
                            rtol=1e-14)

    def test_batch_rows_independent(self):
        rng = np.random.default_rng(7)
        w = ag.tensor(rng.normal(size=(10, 16)))
        b = ag.tensor(rng.normal(size=16))
        hp = rng.normal(size=(5, 4))
        cp = rng.normal(size=(5, 4))
        x = rng.normal(size=(5, 6))
        h_all, c_all = lstm_step(hp, cp, x, w, b)
        for i in range(5):
            h_i, c_i = lstm_step(hp[i : i + 1], cp[i : i + 1], x[i : i + 1], w, b)
            # blocked matmul may differ from the single-row product by an ulp
            assert_allclose(h_all.values[i], h_i.values[0], rtol=1e-13, atol=1e-15)
            assert_allclose(c_all.values[i], c_i.values[0], rtol=1e-13, atol=1e-15)

    def test_one_dimensional_state_round_trip(self):
        rng = np.random.default_rng(9)
        w = ag.tensor(rng.normal(size=(7, 12)))
        b = ag.tensor(rng.normal(size=12))
        h, c = lstm_step(rng.normal(size=3), rng.normal(size=3),
                         rng.normal(size=4), w, b)
        assert h.shape == (3,)
        assert c.shape == (3,)


class TestEncodeSequence:
    def test_matches_manual_unroll(self):
        cfg = tiny_cls_config()
        p = build_params(cfg, np.random.default_rng(11))
        rng = np.random.default_rng(12)
        seq = rng.normal(size=(2, cfg.feature_dim))
        trace = encode_sequence(seq, p)
        assert trace.steps == 2

        h = np.zeros((1, cfg.hidden_dim))
        c = np.zeros((1, cfg.hidden_dim))
        for t in range(2):
            h_t, c_t = lstm_step(h, c, seq[t : t + 1], p["encoder.weight"], p["encoder.bias"])
            assert_allclose(trace.hidden[t].values, h_t.values, rtol=1e-15)
            h, c = h_t.values, c_t.values

    def test_rejects_flat_input(self):
        p = build_params(tiny_cls_config(), np.random.default_rng(0))
        with pytest.raises(ShapeError):
            encode_sequence(np.zeros(8), p)


class TestAttention:
    def test_basis_aligned_oracle(self):
        # identity score weight and one-hot encoder states reduce the scores
        # to the decoder state's coordinates: alpha = softmax([ln 3, 0])
        trace = EncoderTrace(
            hidden=[ag.tensor([[1.0, 0.0]]), ag.tensor([[0.0, 1.0]])],
        )
        alpha = attention_scores(np.array([math.log(3.0), 0.0]), trace, np.eye(2))
        assert_allclose(alpha.values, [0.75, 0.25], rtol=1e-14)

    def test_weights_form_distribution(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            steps = int(rng.integers(1, 5))
            h = int(rng.integers(1, 6))
            trace = EncoderTrace(
                hidden=[ag.tensor(rng.normal(size=(1, h))) for _ in range(steps)],
            )
            alpha = attention_scores(rng.normal(size=h), trace, rng.normal(size=(h, h)))
            assert np.all(alpha.values >= 0)
            assert_allclose(alpha.values.sum(), 1.0, atol=1e-12)

    def test_uniform_when_states_identical(self):
        state = np.random.default_rng(3).normal(size=(1, 4))
        trace = EncoderTrace(hidden=[ag.tensor(state)] * 3)
        alpha = attention_scores(np.ones(4), trace, np.eye(4))
        assert_allclose(alpha.values, np.full(3, 1 / 3), rtol=1e-14)

    def test_single_step_collapses_to_one(self):
        trace = EncoderTrace(hidden=[ag.tensor([[0.3, -2.0]])])
        alpha = attention_scores(np.array([5.0, 1.0]), trace, np.eye(2))
        assert_array_equal(alpha.values, [1.0])

    def test_zero_score_weight_gives_uniform(self):
        rng = np.random.default_rng(4)
        trace = EncoderTrace(
            hidden=[ag.tensor(rng.normal(size=(1, 3))) for _ in range(4)],
        )
        alpha = attention_scores(rng.normal(size=3), trace, np.zeros((3, 3)))
        assert_allclose(alpha.values, np.full(4, 0.25), rtol=1e-15)

    def test_scaled_states_match_direct_softmax(self):
        rng = np.random.default_rng(5)
        h = rng.normal(size=(1, 3))
        states = [rng.normal(size=(1, 3)) for _ in range(3)]
        w = rng.normal(size=(3, 3))
        for s in (0.5, 2.0, 7.0):
            trace = EncoderTrace(hidden=[ag.tensor(s * x) for x in states])
            alpha = attention_scores(h.ravel(), trace, w)
            scores = np.array([((h @ w) @ (s * x).T).item() for x in states])
            e = np.exp(scores - scores.max())
            assert_allclose(alpha.values, e / e.sum(), rtol=1e-12)


class TestDecodeRegion:
    def test_shapes_and_distribution(self):
        cfg = tiny_cls_config()
        p = build_params(cfg, np.random.default_rng(31))
        seq = np.random.default_rng(32).normal(size=(2, cfg.feature_dim))
        region, alpha, context = _decode_regions(encode_sequence(seq, p), p)
        assert region.shape == (1, cfg.feature_dim)
        assert alpha.shape == (1, 2)
        assert context.shape == (1, cfg.hidden_dim)
        assert_allclose(alpha.values.sum(), 1.0, atol=1e-12)

    def test_context_is_attention_average_of_states(self):
        cfg = tiny_cls_config()
        p = build_params(cfg, np.random.default_rng(33))
        seq = np.random.default_rng(34).normal(size=(3, cfg.feature_dim))
        trace = encode_sequence(seq, p)
        _, alpha, context = _decode_regions(trace, p)
        states = np.concatenate([h.values for h in trace.hidden], axis=0)
        assert_allclose(context.values, alpha.values @ states, rtol=1e-12, atol=1e-14)

    def test_single_step_context_equals_first_state(self):
        cfg = tiny_cls_config()
        p = build_params(cfg, np.random.default_rng(35))
        seq = np.random.default_rng(36).normal(size=(1, cfg.feature_dim))
        trace = encode_sequence(seq, p)
        _, alpha, context = _decode_regions(trace, p)
        assert_array_equal(alpha.values, [[1.0]])
        assert_array_equal(context.values, trace.hidden[0].values)

    def test_zero_output_projection_zeroes_feature(self):
        cfg = tiny_cls_config()
        p = build_params(cfg, np.random.default_rng(37))
        p["region_out_proj.weight"].values[...] = 0.0
        seq = np.random.default_rng(38).normal(size=(2, cfg.feature_dim))
        region, _, _ = _decode_regions(encode_sequence(seq, p), p)
        assert_array_equal(region.values, np.zeros((1, cfg.feature_dim)))

    def test_decoder_steps_once_per_forward(self, monkeypatch):
        # encoder steps plus one decoder step; no second, discarded decoder step
        import pointseq.model as model

        calls = []
        real = model.lstm_step

        def counting_step(prev_hidden, prev_cell, x, weight, bias):
            calls.append(weight)
            return real(prev_hidden, prev_cell, x, weight, bias)

        monkeypatch.setattr(model, "lstm_step", counting_step)
        cfg = tiny_cls_config()
        p = build_params(cfg, np.random.default_rng(39))
        geom = prepare_cloud(PointCloud(np.random.default_rng(40).normal(size=(16, 3))), cfg)
        classify_batch([geom], p, cfg)
        assert [w is p["decoder.weight"] for w in calls] == [False, False, True]


class TestAreaFeature:
    def test_eval_mode_matches_manual_forward(self):
        cfg = tiny_cls_config(area_hidden=(4,), feature_dim=5)
        p = build_params(cfg, np.random.default_rng(41))
        rng = np.random.default_rng(42)
        # nontrivial running stats so the oracle exercises the affine form
        for name in ("area_mlp.0", "area_mlp.1"):
            s = p.batch_norms[name]
            s.running_mean = rng.normal(size=s.running_mean.shape)
            s.running_var = rng.uniform(0.5, 2.0, size=s.running_var.shape)
        pts = rng.normal(size=(6, 3))

        x = pts
        for name in ("area_mlp.0", "area_mlp.1"):
            s = p.batch_norms[name]
            z = x @ p[f"{name}.weight"].values
            z = (z - s.running_mean) / np.sqrt(s.running_var + cfg.bn_eps)
            x = np.maximum(z * s.gamma.values + s.beta.values, 0.0)
        want = x.max(axis=0)

        got = area_pooled_feature(pts, p, cfg)
        assert_allclose(got.values, want, rtol=1e-12)

    def test_point_order_irrelevant(self):
        cfg = tiny_cls_config()
        p = build_params(cfg, np.random.default_rng(43))
        rng = np.random.default_rng(44)
        pts = rng.normal(size=(8, 3))
        base = area_pooled_feature(pts, p, cfg).values
        for _ in range(5):
            perm = rng.permutation(8)
            assert_array_equal(area_pooled_feature(pts[perm], p, cfg).values, base)

    def test_centroid_shifts_feature(self):
        # same centroid-relative areas, different centroid coordinates
        cfg = tiny_cls_config()
        p = build_params(cfg, np.random.default_rng(45))
        geom = prepare_cloud(PointCloud(np.random.default_rng(46).normal(size=(16, 3))), cfg)
        moved = dataclasses.replace(geom, centroid_coords=geom.centroid_coords + 1.0)
        a = classify_batch([geom], p, cfg).values
        b = classify_batch([moved], p, cfg).values
        assert not np.array_equal(a, b)

    def test_single_point_pool_is_identity(self):
        cfg = tiny_cls_config()
        p = build_params(cfg, np.random.default_rng(47))
        pt = np.random.default_rng(48).normal(size=(1, 3))
        pooled = area_pooled_feature(pt, p, cfg).values
        # row count changes the matmul kernel, so bitwise equality is too strict
        doubled = area_pooled_feature(np.vstack([pt, pt]), p, cfg).values
        assert_allclose(pooled, doubled, rtol=1e-12, atol=1e-15)

    def test_duplicated_points_leave_feature_unchanged(self):
        cfg = tiny_cls_config()
        p = build_params(cfg, np.random.default_rng(49))
        pts = np.random.default_rng(50).normal(size=(5, 3))
        base = area_pooled_feature(pts, p, cfg).values
        got = area_pooled_feature(np.vstack([pts, pts]), p, cfg).values
        assert_allclose(got, base, rtol=1e-12, atol=1e-15)

    def test_empty_area_rejected(self):
        cfg = tiny_cls_config()
        p = build_params(cfg, np.random.default_rng(51))
        with pytest.raises(ShapeError):
            area_pooled_feature(np.zeros((0, 3)), p, cfg)

    def test_translation_cancels_in_pooled_feature(self):
        # relative coordinates are centroid-relative, so shifting the whole
        # cloud only perturbs them through floating-point subtraction
        cfg = tiny_cls_config()
        p = build_params(cfg, np.random.default_rng(52))
        rng = np.random.default_rng(53)
        pts = rng.normal(size=(9, 3))
        centroid = pts[0]
        base = area_pooled_feature(pts - centroid, p, cfg).values
        for _ in range(5):
            shift = rng.uniform(-10, 10, size=3)
            moved = (pts + shift) - (centroid + shift)
            got = area_pooled_feature(moved, p, cfg).values
            assert_allclose(got, base, atol=1e-9)


class TestInterpolation:
    def test_frozen_two_source_example(self):
        sources = np.array([[1.0, 0, 0], [2.0, 0, 0], [100.0, 0, 0]])
        w = interpolation_weights(np.zeros((1, 3)), sources, k=2)
        # squared distances 1 and 4: weights 1 and 1/4 normalize to 0.8, 0.2
        assert_allclose(w, [[0.8, 0.2, 0.0]], rtol=1e-15)

    def test_rows_are_convex(self):
        rng = np.random.default_rng(51)
        for _ in range(30):
            t = rng.normal(size=(12, 3))
            s = rng.normal(size=(6, 3))
            w = interpolation_weights(t, s, k=3)
            assert np.all(w >= 0)
            assert_allclose(w.sum(axis=1), np.ones(12), atol=1e-12)
            assert np.all((w > 0).sum(axis=1) <= 3)

    def test_exact_match_copies_source(self):
        s = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        w = interpolation_weights(np.array([[1.0, 0, 0]]), s, k=3)
        assert_array_equal(w, [[0.0, 1.0, 0.0]])

    def test_duplicate_sources_pick_lowest_index(self):
        s = np.array([[1.0, 0, 0], [1.0, 0, 0]])
        w = interpolation_weights(np.array([[1.0, 0, 0]]), s, k=1)
        assert_array_equal(w, [[1.0, 0.0]])

    def test_k_bounds_checked(self):
        s = np.zeros((2, 3))
        with pytest.raises(ValueError):
            interpolation_weights(np.zeros((1, 3)), s, k=3)
        with pytest.raises(ValueError):
            interpolation_weights(np.zeros((1, 3)), s, k=0)

    def test_feature_carry_matches_weights(self):
        rng = np.random.default_rng(52)
        t = rng.normal(size=(5, 3))
        s = rng.normal(size=(4, 3))
        f = rng.normal(size=(4, 6))
        w = interpolation_weights(t, s, k=3)
        assert_allclose(interpolate_features(t, s, f, k=3), w @ f, rtol=1e-15)

    def test_equidistant_sources_average(self):
        s = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0]])
        f = np.array([[0.0], [3.0], [9.0]])
        got = interpolate_features(np.zeros((1, 3)), s, f, k=3)
        assert_allclose(got, [[4.0]], rtol=1e-15)

    def test_frozen_inverse_square_value(self):
        # distances 1 and 2 to features 0 and 3: (1*0 + 0.25*3) / 1.25 = 0.6
        s = np.array([[1.0, 0, 0], [2.0, 0, 0]])
        f = np.array([[0.0], [3.0]])
        got = interpolate_features(np.zeros((1, 3)), s, f, k=2)
        assert_allclose(got, [[0.6]], rtol=1e-15)

    def test_all_points_as_centroids_degenerates_to_passthrough(self):
        cfg = tiny_seg_config(m=12, scales=(2, 4))
        rng = np.random.default_rng(54)
        cloud = PointCloud(rng.normal(size=(12, 3)), labels=np.zeros(12, dtype=int))
        geom = prepare_cloud(cloud, cfg)
        # every target coincides with a source, so each weight row is one-hot
        assert_array_equal(geom.interp_weights.sum(axis=1), np.ones(12))
        assert_array_equal((geom.interp_weights == 1.0).sum(axis=1), np.ones(12))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_per_target_loop_exactly(self, seed):
        rng = np.random.default_rng(600 + seed)
        n_sources = int(rng.integers(1, 40))
        k = int(rng.integers(1, n_sources + 1))
        if seed % 2:
            # lattice points force distance ties and duplicate sources
            sources = rng.integers(-2, 3, size=(n_sources, 3)).astype(np.float64)
            targets = rng.integers(-2, 3, size=(50, 3)).astype(np.float64)
        else:
            sources = rng.normal(size=(n_sources, 3))
            targets = rng.normal(size=(50, 3))
            targets[::3] = sources[rng.integers(n_sources, size=len(targets[::3]))]
            targets[1] = sources[0] + 1e-11  # within the exact-match distance
        got = interpolation_weights(targets, sources, k)
        assert_array_equal(got, interpolation_weights_loop(targets, sources, k))

    def test_feature_carry_differentiable(self):
        rng = np.random.default_rng(53)
        t = rng.normal(size=(5, 3))
        s = rng.normal(size=(4, 3))
        f = ag.tensor(rng.normal(size=(4, 2)))
        out = interpolate_features(t, s, f, k=2)
        ag.backward(ag.sum_reduce(out))
        w = interpolation_weights(t, s, k=2)
        assert_allclose(f.grad, w.T @ np.ones((5, 2)), rtol=1e-12)


class TestAggregateGlobal:
    def test_shape(self):
        # one global vector per cloud: changing cloud 1 leaves cloud 0 alone
        cfg = tiny_cls_config()
        p = build_params(cfg, np.random.default_rng(61))
        rng = np.random.default_rng(62)
        geoms = [prepare_cloud(PointCloud(rng.normal(size=(16, 3))), cfg) for _ in range(3)]
        logits = classify_batch(geoms[:2], p, cfg)
        assert logits.shape == (2, cfg.num_classes)
        other = classify_batch([geoms[0], geoms[2]], p, cfg)
        assert_allclose(other.values[0], logits.values[0], rtol=1e-12, atol=1e-12)
        assert not np.array_equal(other.values[1], logits.values[1])

    def test_region_order_irrelevant(self):
        cfg = tiny_cls_config()
        p = build_params(cfg, np.random.default_rng(63))
        rng = np.random.default_rng(64)
        geom = prepare_cloud(PointCloud(rng.normal(size=(16, 3))), cfg)
        base = classify_batch([geom], p, cfg).values
        for _ in range(5):
            perm = rng.permutation(cfg.m)
            relative = [r.reshape(cfg.m, k, 3)[perm].reshape(-1, 3)
                        for r, k in zip(geom.relative, cfg.scales)]
            shuffled = dataclasses.replace(
                geom, centroid_coords=geom.centroid_coords[perm], relative=relative
            )
            assert_array_equal(classify_batch([shuffled], p, cfg).values, base)


class TestClassifyForward:
    def test_shape_and_determinism(self):
        cfg = tiny_cls_config()
        p = build_params(cfg, np.random.default_rng(71))
        cloud = PointCloud(np.random.default_rng(72).normal(size=(16, 3)))
        a = classify_forward(cloud, p, cfg)
        b = classify_forward(cloud, p, cfg)
        assert a.shape == (cfg.num_classes,)
        assert_array_equal(a.values, b.values)

    def test_point_permutation_invariance(self):
        cfg = tiny_cls_config()
        p = build_params(cfg, np.random.default_rng(73))
        rng = np.random.default_rng(74)
        pts = rng.normal(size=(20, 3))
        base = classify_forward(PointCloud(pts), p, cfg).values
        for _ in range(5):
            perm = rng.permutation(20)
            got = classify_forward(PointCloud(pts[perm]), p, cfg).values
            assert_array_equal(got, base)

    def test_batch_matches_single(self):
        cfg = tiny_cls_config()
        p = build_params(cfg, np.random.default_rng(75))
        rng = np.random.default_rng(76)
        clouds = [PointCloud(rng.normal(size=(16, 3))) for _ in range(3)]
        batched = classify_batch([prepare_cloud(c, cfg) for c in clouds], p, cfg)
        for i, c in enumerate(clouds):
            assert_allclose(batched.values[i], classify_forward(c, p, cfg).values,
                            rtol=1e-12, atol=1e-12)

    def test_every_aggregator_runs_and_trains(self):
        rng = np.random.default_rng(77)
        clouds = [PointCloud(rng.normal(size=(16, 3))) for _ in range(2)]
        for agg in ("attention_ed", "no_attention", "no_decoder", "concat", "max_pool"):
            cfg = tiny_cls_config(aggregator=agg)
            p = build_params(cfg, np.random.default_rng(78))
            p.zero_grads()
            geoms = [prepare_cloud(c, cfg) for c in clouds]
            ctx = ForwardContext(training=True, rng=np.random.default_rng(79))
            logits = classify_batch(geoms, p, cfg, ctx)
            assert logits.shape == (2, cfg.num_classes)
            ag.backward(ag.cross_entropy_mean(logits, np.array([0, 1])))
            grads = sum(np.abs(t.grad).sum() for _, t in p.items())
            assert grads > 0


def _segment_one(cloud, params, cfg):
    logits, _ = segment_batch([prepare_cloud(cloud, cfg)], params, cfg)
    return logits


class TestSegmentForward:
    def test_shape_and_determinism(self):
        cfg = tiny_seg_config()
        p = build_params(cfg, np.random.default_rng(81))
        cloud = PointCloud(np.random.default_rng(82).normal(size=(16, 3)))
        a = _segment_one(cloud, p, cfg)
        assert a.shape == (16, cfg.num_parts)
        assert_array_equal(a.values, _segment_one(cloud, p, cfg).values)

    def test_point_permutation_equivariance(self):
        cfg = tiny_seg_config()
        p = build_params(cfg, np.random.default_rng(83))
        rng = np.random.default_rng(84)
        pts = rng.normal(size=(20, 3))
        base = _segment_one(PointCloud(pts), p, cfg).values
        for _ in range(5):
            perm = rng.permutation(20)
            got = _segment_one(PointCloud(pts[perm]), p, cfg).values
            assert_array_equal(got, base[perm])

    def test_batch_row_counts(self):
        cfg = tiny_seg_config()
        p = build_params(cfg, np.random.default_rng(85))
        rng = np.random.default_rng(86)
        clouds = [PointCloud(rng.normal(size=(n, 3))) for n in (10, 14)]
        logits, counts = segment_batch([prepare_cloud(c, cfg) for c in clouds], p, cfg)
        assert counts == [10, 14]
        assert logits.shape == (24, cfg.num_parts)


class TestCheckpoint:
    def _params(self):
        cfg = tiny_cls_config()
        p = build_params(cfg, np.random.default_rng(91))
        rng = np.random.default_rng(92)
        for s in p.batch_norms.values():
            s.running_mean = rng.normal(size=s.running_mean.shape)
            s.running_var = rng.uniform(0.5, 2.0, size=s.running_var.shape)
        return p, cfg

    def test_round_trip_bit_exact(self, tmp_path):
        p, cfg = self._params()
        path = tmp_path / "ck.bin"
        save_checkpoint(path, p, cfg)
        loaded, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == cfg
        assert sorted(loaded.names()) == sorted(p.names())
        for name, t in p.items():
            assert_array_equal(loaded[name].values, t.values)
        for name, s in p.batch_norms.items():
            assert_array_equal(loaded.batch_norms[name].running_mean, s.running_mean)
            assert_array_equal(loaded.batch_norms[name].running_var, s.running_var)

    def test_rewrite_is_byte_identical(self, tmp_path):
        p, cfg = self._params()
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(a, p, cfg)
        loaded, loaded_cfg = load_checkpoint(a)
        save_checkpoint(b, loaded, loaded_cfg)
        assert a.read_bytes() == b.read_bytes()

    def test_segmentation_round_trip(self, tmp_path):
        cfg = tiny_seg_config()
        p = build_params(cfg, np.random.default_rng(93))
        path = tmp_path / "seg.bin"
        save_checkpoint(path, p, cfg)
        loaded, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg.task == "segmentation"
        for name, t in p.items():
            assert_array_equal(loaded[name].values, t.values)

    def test_bad_magic_rejected(self, tmp_path):
        p, cfg = self._params()
        path = tmp_path / "ck.bin"
        save_checkpoint(path, p, cfg)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        p, cfg = self._params()
        path = tmp_path / "ck.bin"
        save_checkpoint(path, p, cfg)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 9])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        p, cfg = self._params()
        path = tmp_path / "ck.bin"
        save_checkpoint(path, p, cfg)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(DataError, match="trailing"):
            load_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_checkpoint(tmp_path / "absent.bin")

    def test_shape_mismatch_rejected(self, tmp_path):
        p, cfg = self._params()
        path = tmp_path / "ck.bin"
        save_checkpoint(path, p, cfg)
        blob = bytearray(path.read_bytes())
        # first record: magic(8) + version(4) + header_len(4) + header +
        # count(8) + name_len(4) + name + ndim(1) + first dim (u64)
        header_len = int.from_bytes(blob[12:16], "little")
        pos = 16 + header_len + 8
        name_len = int.from_bytes(blob[pos : pos + 4], "little")
        dim_pos = pos + 4 + name_len + 1
        blob[dim_pos] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError):
            load_checkpoint(path)
