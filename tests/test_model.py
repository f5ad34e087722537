"""Oracle and invariance tests for the network blocks."""

import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pointseq import autograd as ag
from pointseq.config import INTERP_SOURCES, ModelConfig
from pointseq.errors import DataError, ShapeError
from pointseq.geometry import PointCloud, farthest_point_sample, group_areas
from pointseq.model import (
    ForwardContext,
    ModelParams,
    _region_features,
    area_pooled_feature,
    attention_scores,
    build_params,
    classify_batch,
    classify_forward,
    encode_sequence,
    interpolate_features,
    interpolation_neighbors,
    interpolation_weights,
    load_checkpoint,
    prepare_cloud,
    save_checkpoint,
    segment_batch,
)

from helpers import (
    area_sequences_per_scale,
    interpolation_weights_loop,
    reference_interpolation_weights,
    reference_attend,
    reference_block_matmul,
    reference_bn_mlp,
    reference_lstm,
    reference_lstm_step,
)
from pointseq import model


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

    @pytest.mark.parametrize("scales,one_step", [((2, 4), {"decoder"}),
                                                 ((4,), {"encoder", "decoder"})],
                             ids=["two_scales", "one_scale"])
    def test_one_step_lstms_keep_only_their_live_block(self, scales, one_step, monkeypatch):
        # an LSTM that runs one step from a zero state keeps the input rows
        # and the input, output and candidate columns of the full block it
        # draws, so the rng stream and every later parameter stay as they were
        drawn = []
        real = model._uniform
        monkeypatch.setattr(model, "_uniform",
                            lambda *args: drawn.append(real(*args)) or drawn[-1])
        p = build_params(tiny_cls_config(scales=scales), np.random.default_rng(0))
        full = dict(zip(("encoder", "decoder"), [w for w in drawn if w.shape == (16, 32)]))
        for name, block in full.items():
            weight, bias = p[f"{name}.weight"].values, p[f"{name}.bias"].values
            if name in one_step:
                assert weight.flags.c_contiguous
                assert_array_equal(weight, np.concatenate([block[8:, :8], block[8:, 16:]], 1))
                assert_array_equal(bias, np.zeros(24))
            else:
                assert_array_equal(weight, block)
                assert bias.shape == (32,)

    def test_one_scale_attention_keeps_no_score_weight(self):
        # attention over one step weighs it by 1 whatever the scores, so a
        # score weight would get no gradient; it is still drawn, so every
        # later parameter is the one a two-scale model draws
        one = build_params(tiny_cls_config(scales=(4,)), np.random.default_rng(0))
        two = build_params(tiny_cls_config(scales=(2, 4)), np.random.default_rng(0))
        assert "attn_score.weight" not in one and "attn_score.weight" in two
        assert [name for name in two.names() if name != "attn_score.weight"] == one.names()
        later = one.names()[one.names().index("attn_combine.weight"):]
        for name in later:
            assert_array_equal(one[name].values, two[name].values, err_msg=name)

    def test_init_respects_fan_in_bound(self):
        p = build_params(tiny_cls_config(), np.random.default_rng(3))
        w = p["centroid_proj.weight"].values
        assert np.all(np.abs(w) <= 1.0 / np.sqrt(11))

    def test_variant_parameter_sets(self):
        # batch norm cancels a bias that shifts every region by one constant:
        # concat_proj's, and centroid_proj's unless an LSTM reads it
        present = {
            "attention_ed": {"encoder.weight", "decoder.weight", "attn_score.weight",
                             "centroid_proj.bias"},
            "no_attention": {"encoder.weight", "decoder.weight", "decoder_out_proj.weight",
                             "centroid_proj.bias"},
            "no_decoder": {"encoder.weight", "centroid_proj.bias"},
            "concat": {"concat_proj.weight"},
            "max_pool": set(),
        }
        absent = {
            "attention_ed": {"encoder_out_proj.weight", "decoder_out_proj.weight"},
            "no_attention": {"attn_score.weight", "encoder_out_proj.weight"},
            "no_decoder": {"decoder.weight", "attn_score.weight", "decoder_out_proj.weight"},
            "concat": {"encoder.weight", "concat_proj.bias", "centroid_proj.bias"},
            "max_pool": {"encoder.weight", "concat_proj.weight", "centroid_proj.bias"},
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


def lstm_unroll(steps, weight, bias, x):
    """Hidden states of ``ag.lstm`` over ``x``, as [steps, rows, hidden]."""
    out = ag.lstm(x, steps, ag.tensor(weight), ag.tensor(bias)).values
    return out.reshape(steps, len(x) // steps, -1)


class TestLstmStep:
    def test_scalar_oracle(self):
        # state_dim 1, input_dim 1; z = [h, x] @ W + b with gate order
        # input, forget, output, candidate, two steps from a zero state
        w = np.array([[0.5, -0.3, 0.2, 0.7],
                      [0.1, 0.4, -0.6, 0.8]])
        b = np.array([0.05, -0.1, 0.2, 0.0])
        xs = (0.9, -0.4)
        sig = lambda v: 1.0 / (1.0 + math.exp(-v))
        h_want, c_want = 0.0, 0.0
        want = []
        for x in xs:
            z = np.array([h_want, x]) @ w + b
            c_want = sig(z[1]) * c_want + sig(z[0]) * math.tanh(z[3])
            h_want = sig(z[2]) * math.tanh(c_want)
            want.append(h_want)

        got = lstm_unroll(2, w, b, np.array([[xs[0]], [xs[1]]]))
        assert_allclose(got.reshape(2), want, rtol=1e-15)

    def test_zero_parameters_give_zero_state(self):
        x = np.random.default_rng(0).normal(size=(6, 4))
        # all gates sit at 1/2 and the candidate at tanh(0) = 0
        assert_array_equal(lstm_unroll(2, np.zeros((6, 8)), np.zeros(8), x),
                           np.zeros((2, 3, 2)))

    def test_geometric_cell_accumulation(self):
        # zero weights, candidate bias arctanh(0.8), all gates at 1/2:
        # c_t = c_{t-1}/2 + 0.4, so from zero c_t = 0.8 (1 - 2^-t)
        b = np.zeros(4)
        b[3] = math.atanh(0.8)
        hidden = lstm_unroll(5, np.zeros((2, 4)), b, np.ones((5, 1)))
        for t in range(1, 6):
            assert_allclose(hidden[t - 1, 0, 0], 0.5 * math.tanh(0.8 * (1 - 0.5**t)),
                            rtol=1e-14)

    def test_batch_rows_independent(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(10, 16))
        b = rng.normal(size=16)
        x = rng.normal(size=(2, 5, 6))
        h_all = lstm_unroll(2, w, b, x.reshape(10, 6))
        for i in range(5):
            h_i = lstm_unroll(2, w, b, x[:, i])
            # blocked matmul may differ from the single-row product by an ulp
            assert_allclose(h_all[:, i], h_i[:, 0], rtol=1e-13, atol=1e-15)


class TestEncodeSequence:
    def test_matches_manual_unroll(self):
        cfg = tiny_cls_config()
        p = build_params(cfg, np.random.default_rng(11))
        rng = np.random.default_rng(12)
        seq = rng.normal(size=(2, cfg.feature_dim))
        states = encode_sequence(seq, p)
        assert states.shape == (2, cfg.hidden_dim)

        h = np.zeros((1, cfg.hidden_dim))
        c = np.zeros((1, cfg.hidden_dim))
        for t in range(2):
            h_t, c_t = reference_lstm_step(h, c, seq[t : t + 1], p["encoder.weight"],
                                           p["encoder.bias"])
            assert_array_equal(states.values[t : t + 1], h_t.values)
            h, c = h_t.values, c_t.values

    def test_rejects_flat_input(self):
        p = build_params(tiny_cls_config(), np.random.default_rng(0))
        with pytest.raises(ShapeError):
            encode_sequence(np.zeros(8), p)


def trace_of(states):
    """Encoder states over one row per step, from a list of [1, h] states."""
    return ag.tensor(np.concatenate(states, axis=0))


class TestAttention:
    def test_basis_aligned_oracle(self):
        # identity score weight and one-hot encoder states reduce the scores
        # to the decoder state's coordinates: alpha = softmax([ln 3, 0])
        trace = trace_of([[[1.0, 0.0]], [[0.0, 1.0]]])
        alpha = attention_scores(np.array([[math.log(3.0), 0.0]]), trace, np.eye(2))
        assert_allclose(alpha.values, [[0.75, 0.25]], rtol=1e-14)

    def test_weights_form_distribution(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            steps = int(rng.integers(1, 5))
            h = int(rng.integers(1, 6))
            trace = trace_of([rng.normal(size=(1, h)) for _ in range(steps)])
            alpha = attention_scores(rng.normal(size=(1, h)), trace, rng.normal(size=(h, h)))
            assert np.all(alpha.values >= 0)
            assert_allclose(alpha.values.sum(), 1.0, atol=1e-12)

    def test_uniform_when_states_identical(self):
        state = np.random.default_rng(3).normal(size=(1, 4))
        alpha = attention_scores(np.ones((1, 4)), trace_of([state] * 3), np.eye(4))
        assert_allclose(alpha.values, np.full((1, 3), 1 / 3), rtol=1e-14)

    def test_single_step_collapses_to_one(self):
        alpha = attention_scores(np.array([[5.0, 1.0]]), trace_of([[[0.3, -2.0]]]), np.eye(2))
        assert_array_equal(alpha.values, [[1.0]])

    def test_zero_score_weight_gives_uniform(self):
        rng = np.random.default_rng(4)
        trace = trace_of([rng.normal(size=(1, 3)) for _ in range(4)])
        alpha = attention_scores(rng.normal(size=(1, 3)), trace, np.zeros((3, 3)))
        assert_allclose(alpha.values, np.full((1, 4), 0.25), rtol=1e-15)

    def test_scaled_states_match_direct_softmax(self):
        rng = np.random.default_rng(5)
        h = rng.normal(size=(1, 3))
        states = [rng.normal(size=(1, 3)) for _ in range(3)]
        w = rng.normal(size=(3, 3))
        for s in (0.5, 2.0, 7.0):
            alpha = attention_scores(h, trace_of([s * x for x in states]), w)
            scores = np.array([((h @ w) @ (s * x).T).item() for x in states])
            e = np.exp(scores - scores.max())
            assert_allclose(alpha.values, [e / e.sum()], rtol=1e-12)

    def test_states_that_do_not_split_over_the_query_rows_raise(self):
        # three state rows over two query rows is no whole number of steps
        states = np.random.default_rng(6).normal(size=(3, 2))
        with pytest.raises(ShapeError):
            attention_scores(np.ones((2, 2)), states, np.eye(2))


class TestDecodeRegion:
    def test_shapes_and_distribution(self):
        cfg = tiny_cls_config()
        p = build_params(cfg, np.random.default_rng(31))
        seq = np.random.default_rng(32).normal(size=(2, cfg.feature_dim))
        region = _region_features(ag.tensor(seq), p, cfg)
        assert region.shape == (1, cfg.feature_dim)

    def test_zero_output_projection_zeroes_feature(self):
        cfg = tiny_cls_config()
        p = build_params(cfg, np.random.default_rng(37))
        p["region_out_proj.weight"].values[...] = 0.0
        seq = np.random.default_rng(38).normal(size=(2, cfg.feature_dim))
        region = _region_features(ag.tensor(seq), p, cfg)
        assert_array_equal(region.values, np.zeros((1, cfg.feature_dim)))

    def test_decoder_steps_once_per_forward(self, monkeypatch):
        # the encoder runs once over every scale and the decoder once for one
        # step; no second, discarded decoder step
        calls = []
        real = ag.lstm

        def counting_lstm(x, steps, weight, bias):
            calls.append((weight, steps))
            return real(x, steps, weight, bias)

        monkeypatch.setattr(ag, "lstm", counting_lstm)
        cfg = tiny_cls_config()
        p = build_params(cfg, np.random.default_rng(39))
        geom = prepare_cloud(PointCloud(np.random.default_rng(40).normal(size=(16, 3))), cfg)
        classify_batch([geom], p, cfg)
        assert [(w is p["decoder.weight"], steps) for w, steps in calls] == [
            (False, cfg.num_scales), (True, 1)]


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
            z = (z - s.running_mean) / np.sqrt(s.running_var + s.eps)
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
        # the same centroid-relative areas up to rounding, different centroid
        # coordinates
        cfg = tiny_cls_config()
        p = build_params(cfg, np.random.default_rng(45))
        geom = prepare_cloud(PointCloud(np.random.default_rng(46).normal(size=(16, 3))), cfg)
        moved = dataclasses.replace(geom, points=geom.points + 1.0,
                                    centroid_coords=geom.centroid_coords + 1.0)
        for a, b in zip(geom.relative, moved.relative):
            assert_allclose(a, b, atol=1e-15)
        a = classify_batch([geom], p, cfg).values
        b = classify_batch([moved], p, cfg).values
        assert not np.allclose(a, b)

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


class TestNestedAreaPass:
    """The one pass over each region's largest area against the per-scale stack."""

    @staticmethod
    def _run(monkeypatch, area_fn, cfg, clouds, training):
        params = build_params(cfg, np.random.default_rng(0))
        geoms = [prepare_cloud(c, cfg) for c in clouds]
        sequences = []

        def recorded(*args):
            sequences.append(area_fn(*args))
            return sequences[0]

        monkeypatch.setattr(model, "_area_sequences", recorded)
        ctx = ForwardContext(training=training, rng=np.random.default_rng(5))
        if cfg.task == "classification":
            logits = classify_batch(geoms, params, cfg, ctx)
            labels = np.arange(len(geoms)) % cfg.num_classes
        else:
            logits, _ = segment_batch(geoms, params, cfg, ctx)
            labels = np.concatenate([g.labels for g in geoms])
        per_scale = np.split(sequences[0].values, cfg.num_scales)
        tensors = {f"sequence.{t}": s for t, s in enumerate(per_scale)}
        tensors["logits"] = logits.values
        # an eval-mode forward is forward-only: its dense stacks have no backward
        if training:
            params.clear_grads()
            ag.backward(ag.cross_entropy_mean(logits, labels))
            tensors.update({f"{name}.grad": t.grad for name, t in params.items()})
        for name, state in params.batch_norms.items():
            tensors[f"{name}.running_mean"] = state.running_mean
            tensors[f"{name}.running_var"] = state.running_var
        return tensors

    @pytest.mark.parametrize("scales", [(4,), (2, 4), (4, 8, 16)])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("task", ["classification", "segmentation"])
    def test_matches_per_scale_stack(self, monkeypatch, task, training, scales):
        make = tiny_cls_config if task == "classification" else tiny_seg_config
        cfg = make(scales=scales)
        rng = np.random.default_rng(11)
        clouds = [PointCloud(rng.normal(size=(20, 3)), labels=rng.integers(0, 4, size=20))
                  for _ in range(3)]
        got = self._run(monkeypatch, model._area_sequences, cfg, clouds, training)
        want = self._run(monkeypatch, area_sequences_per_scale, cfg, clouds, training)
        assert got.keys() == want.keys()
        for name, ref in want.items():
            # agg_mlp.1.beta's gradient is zero in exact arithmetic in training
            # mode (the batch norm after the global pool centres its columns),
            # so both sides hold only ~1e-16 rounding noise there
            scale = np.abs(ref).max()
            atol = 1e-12 * scale if scale > 1e-14 else 1e-14
            assert_allclose(got[name], ref, rtol=0, atol=atol, err_msg=name)


class TestFusedStacks:
    """Every dense stack as one fused node against today's chain of separate
    matmul, batch norm, relu, dropout and pool nodes."""

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("task", ["classification", "segmentation"])
    def test_matches_reference_chain(self, monkeypatch, task, training):
        # the area block brings a pool over nested prefixes, which count its
        # rows, the aggregation MLP a one-prefix pool, and the heads dropout
        # (ratio 0.4) in training
        make = tiny_cls_config if task == "classification" else tiny_seg_config
        cfg = make(scales=(2, 3, 4))
        rng = np.random.default_rng(12)
        clouds = [PointCloud(rng.normal(size=(20, 3)), labels=rng.integers(0, 4, size=20))
                  for _ in range(3)]
        run, area = TestNestedAreaPass._run, model._area_sequences
        got = run(monkeypatch, area, cfg, clouds, training)
        monkeypatch.setattr(ag, "bn_mlp", reference_bn_mlp)
        want = run(monkeypatch, area, cfg, clouds, training)
        assert got.keys() == want.keys()
        for name, ref in want.items():
            scale = np.abs(ref).max()
            atol = 1e-12 * scale if scale > 1e-14 else 1e-14
            assert_allclose(got[name], ref, rtol=0, atol=atol, err_msg=name)


class TestFusedRecurrence:
    """The recurrent aggregators and the segmentation interpolation as fused
    nodes against the chain of separate nodes they replace: one LSTM step
    of concat, matmul, gate slices and products per scale, per-step scores
    and products for the attention, and one slice and matmul per cloud."""

    @pytest.mark.parametrize("aggregator", ["attention_ed", "no_attention", "no_decoder"])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("task", ["classification", "segmentation"])
    def test_matches_reference_chain(self, monkeypatch, task, training, aggregator):
        make = tiny_cls_config if task == "classification" else tiny_seg_config
        cfg = make(scales=(2, 3, 4), aggregator=aggregator)
        rng = np.random.default_rng(13)
        clouds = [PointCloud(rng.normal(size=(n, 3)), labels=rng.integers(0, 4, size=n))
                  for n in (20, 17, 24)]
        run, area = TestNestedAreaPass._run, model._area_sequences
        got = run(monkeypatch, area, cfg, clouds, training)
        monkeypatch.setattr(ag, "lstm", reference_lstm)
        monkeypatch.setattr(ag, "attend", reference_attend)
        monkeypatch.setattr(ag, "block_matmul", reference_block_matmul)
        want = run(monkeypatch, area, cfg, clouds, training)
        assert got.keys() == want.keys()
        assert_array_equal(got["logits"], want["logits"])
        for name, ref in want.items():
            scale = np.abs(ref).max()
            atol = 1e-12 * scale if scale > 1e-14 else 1e-14
            assert_allclose(got[name], ref, rtol=0, atol=atol, err_msg=name)


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

    @pytest.mark.parametrize("kind", ["gaussian", "lattice", "snapped"])
    def test_reference_shape_matches_the_stable_sort_oracle(self, kind):
        # 1024 targets and 384 sources, k=3, as prepare_cloud interpolates
        rng = np.random.default_rng(7400)
        if kind == "lattice":
            # duplicates and ties straddling the 3rd distance in some rows only
            targets = rng.integers(-4, 5, size=(1024, 3)).astype(np.float64) + 0.5
            targets[::2] = rng.normal(size=(512, 3)) * 4.0
            sources = rng.integers(-4, 5, size=(384, 3)).astype(np.float64)
        else:
            targets = rng.normal(size=(1024, 3))
            sources = rng.normal(size=(384, 3))
            if kind == "snapped":
                # a third of the targets sit on a source, one within 1e-10 of one
                targets[::3] = sources[rng.integers(0, 384, len(targets[::3]))]
                targets[1] = sources[5] + 1e-11
        got = interpolation_weights(targets, sources, 3)
        assert got.tobytes() == reference_interpolation_weights(targets, sources, 3).tobytes()
        d2 = ((targets[:, None] - sources[None]) ** 2).sum(axis=2)
        straddling = (d2 <= np.sort(d2, axis=1)[:, 2:3]).sum(axis=1) > 3
        snapped = (got == 1.0).sum(axis=1) == 1
        if kind == "lattice":
            assert 0 < straddling.sum() < len(targets)
        if kind == "snapped":
            assert snapped.sum() >= len(targets[::3])

    def test_overflowing_distances_match_the_oracle(self):
        rng = np.random.default_rng(7401)
        targets = rng.normal(size=(60, 3))
        targets[::5] *= 1e200
        sources = rng.normal(size=(20, 3))
        sources[::3] *= 1e200
        for k in (1, 3, 20):
            with np.errstate(over="ignore", invalid="ignore"):
                got = interpolation_weights(targets, sources, k)
                want = reference_interpolation_weights(targets, sources, k)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coordinates_rejected(self, bad):
        s = np.zeros((3, 3))
        t = np.ones((2, 3))
        t[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            interpolation_weights(t, s, k=2)
        with pytest.raises(ValueError, match="finite"):
            interpolation_weights(s, t, k=2)


class TestCachedGeometry:
    """A prepared cloud keeps int32 indices; the forward rebuilds the dense
    blocks from them per batch, with the values it used to cache."""

    @staticmethod
    def _owned_bytes(geom):
        arrays = [v for k, v in vars(geom).items()
                  if isinstance(v, np.ndarray) and k not in ("points", "labels")]
        assert all(a.base is None for a in arrays)
        return sum(a.nbytes for a in arrays)

    @pytest.mark.parametrize("task,points,limit", [
        ("classification", 1024, 0.2), ("segmentation", 2048, 0.3)])
    def test_a_reference_cloud_keeps_a_fraction_of_a_mebibyte(self, task, points, limit):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 50, points) if task == "segmentation" else None
        geom = prepare_cloud(PointCloud(rng.normal(size=(points, 3)), labels),
                             ModelConfig(task=task))
        assert geom.neighbors.dtype == np.int32
        assert self._owned_bytes(geom) <= limit * 2**20

    @pytest.mark.parametrize("seed", range(3))
    def test_relative_is_the_gathered_areas_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(40, 3))
        points[::4] = points[1::4]  # duplicate points tie every distance to them
        cloud, cfg = PointCloud(points), tiny_cls_config(m=6, scales=(3, 7, 12))
        geom = prepare_cloud(cloud, cfg)
        centroids = farthest_point_sample(cloud, cfg.m)
        want = points[group_areas(cloud, centroids, 12)] - centroids.coords[:, None, :]
        assert [r.shape for r in geom.relative] == [(6, 3, 3), (6, 7, 3), (6, 12, 3)]
        for area, k in zip(geom.relative, cfg.scales):
            assert area.tobytes() == np.ascontiguousarray(want[:, :k]).tobytes()

    def test_the_batch_area_block_stacks_each_clouds_relative_areas(self, monkeypatch):
        cfg = tiny_cls_config(m=5, scales=(2, 6))
        rng = np.random.default_rng(8)
        geoms = [prepare_cloud(PointCloud(rng.normal(size=(n, 3))), cfg) for n in (9, 14, 6)]
        blocks = []
        real = model._bn_mlp

        def recorded(x, params, prefix, *args, **kwargs):
            if prefix == "area_mlp":
                blocks.append(x)
            return real(x, params, prefix, *args, **kwargs)

        monkeypatch.setattr(model, "_bn_mlp", recorded)
        classify_batch(geoms, build_params(cfg, np.random.default_rng(9)), cfg)
        want = np.concatenate([g.relative[-1].reshape(-1, 3) for g in geoms])
        assert blocks[0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", ["gaussian", "duplicates", "every_point_a_centroid"])
    def test_each_rebuilt_interpolation_block_equals_the_dense_weights(self, monkeypatch, case):
        rng = np.random.default_rng(12)
        m = 10 if case == "every_point_a_centroid" else 4
        cfg = tiny_seg_config(m=m, scales=(2, 4))
        clouds = []
        for n in ((10, 10) if case == "every_point_a_centroid" else (12, 17)):
            points = rng.normal(size=(n, 3))
            if case == "duplicates":
                # points on a centroid or within 1e-10 of one snap to it
                points[5::5] = points[0]
                points[1] = points[0] + 1e-11
            clouds.append(PointCloud(points, rng.integers(0, cfg.num_parts, n)))
        geoms = [prepare_cloud(c, cfg) for c in clouds]
        blocks = []
        real = ag.block_matmul

        def recorded(matrices, x):
            blocks.extend(matrices)
            return real(matrices, x)

        monkeypatch.setattr(ag, "block_matmul", recorded)
        segment_batch(geoms, build_params(cfg, np.random.default_rng(13)), cfg)
        assert len(blocks) == len(geoms)
        for block, g in zip(blocks, geoms):
            want = interpolation_weights(g.points, g.centroid_coords, INTERP_SOURCES)
            assert block.tobytes() == want.tobytes()
            assert (g.interp_index.dtype, g.interp_index.shape) == (np.int32, (len(g.points), 3))
            snapped = (want == 1.0).sum(axis=1) == 1
            assert snapped.sum() >= m
            if case == "every_point_a_centroid":
                assert snapped.all()

    def test_a_first_exact_source_beyond_the_k_nearest_is_kept(self):
        # three sources lie closer than source 0, all within 1e-10 of the
        # target: the target copies source 0, the lowest-index exact one
        sources = np.array([[5e-11, 0, 0], [1e-11, 0, 0], [2e-11, 0, 0], [3e-11, 0, 0],
                            [1.0, 0, 0]])
        targets = np.array([[0.0, 0, 0], [0.9, 0, 0]])
        index, weights = interpolation_neighbors(targets, sources, 3)
        assert index[0].tolist() == [1, 2, 0] and weights[0].tolist() == [0.0, 0.0, 1.0]
        dense = interpolation_weights(targets, sources, 3)
        assert dense.tobytes() == reference_interpolation_weights(targets, sources, 3).tobytes()


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
            shuffled = dataclasses.replace(
                geom, centroid_coords=geom.centroid_coords[perm], neighbors=geom.neighbors[perm]
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
            p.clear_grads()
            geoms = [prepare_cloud(c, cfg) for c in clouds]
            ctx = ForwardContext(training=True, rng=np.random.default_rng(79))
            logits = classify_batch(geoms, p, cfg, ctx)
            assert logits.shape == (2, cfg.num_classes)
            ag.backward(ag.cross_entropy_mean(logits, np.array([0, 1])))
            grads = sum(np.abs(t.grad).sum() for _, t in p.items())
            assert grads > 0

    def test_a_backward_through_an_eval_forward_raises(self):
        cfg = tiny_cls_config()
        p = build_params(cfg, np.random.default_rng(87))
        geom = prepare_cloud(PointCloud(np.random.default_rng(88).normal(size=(16, 3))), cfg)
        logits = classify_batch([geom], p, cfg, ForwardContext(training=False))
        with pytest.raises(RuntimeError, match="bn_mlp"):
            ag.backward(ag.cross_entropy_mean(logits, np.array([0])))

    def test_a_recorded_eval_forward_keeps_no_stack_activations(self):
        # reference widths at m=128 over one 1024-point cloud: the recorded
        # graph holds about 7.4 MiB, and no dense stack's activations or pool
        # winners (50.3 MiB in all when it kept them)
        cfg = ModelConfig(num_classes=3, m=128)
        p = build_params(cfg, np.random.default_rng(89))
        geom = prepare_cloud(PointCloud(np.random.default_rng(90).normal(size=(1024, 3))), cfg)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            logits = classify_batch([geom], p, cfg, ForwardContext(training=False))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert logits.parents
        assert held < 10 * 2**20, f"{held / 2**20:.1f} MiB"


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

    @pytest.mark.parametrize("record,value,message", [
        ("running_var", np.nan, "non-finite"),
        ("running_var", -1e-3, "negative variance"),
        ("running_mean", np.inf, "non-finite"),
        ("gamma", -np.inf, "non-finite"),
        ("weight", np.nan, "non-finite"),
    ])
    def test_non_finite_or_negative_variance_record_rejected(self, tmp_path, record, value,
                                                            message):
        p, cfg = self._params()
        name = sorted(p.batch_norms)[-1]
        if record.startswith("running"):
            getattr(p.batch_norms[name], record)[1] = value
            key = f"{name}.{record}"
        else:
            key = next(k for k in p.names() if k.endswith(f".{record}"))
            p[key].values.reshape(-1)[-1] = value
        path = tmp_path / "ck.bin"
        save_checkpoint(path, p, cfg)
        with pytest.raises(DataError, match=message) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)
        assert repr(key) in str(err.value)

    @pytest.mark.parametrize("size", [3, 1 << 12, (1 << 15) + 5])
    def test_bad_values_are_found_in_small_and_large_records(self, size):
        # the largest size puts c.weight's last value in a second check piece
        records = [("a.weight", np.ones(size)), ("b.running_var", np.ones(3)),
                   ("c.weight", np.ones(size))]
        assert model._bad_record(records) is None
        records[2][1][-1] = np.inf
        assert model._bad_record(records) == ("c.weight", "a non-finite value")
        records[1][1][0] = -0.5
        assert model._bad_record(records) == ("b.running_var", "a negative variance")
        records[0][1][0] = np.nan
        assert model._bad_record(records) == ("a.weight", "a non-finite value")

    def test_zero_running_variance_loads(self, tmp_path):
        p, cfg = self._params()
        for state in p.batch_norms.values():
            state.running_var[:] = 0.0
        path = tmp_path / "ck.bin"
        save_checkpoint(path, p, cfg)
        loaded, _ = load_checkpoint(path)
        for state in loaded.batch_norms.values():
            assert not state.running_var.any()

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
