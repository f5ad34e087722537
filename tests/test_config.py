"""Configuration parsing, dumping, overrides, and validation."""

import numpy as np
import pytest

from pointseq.config import (
    AGGREGATORS,
    MAX_SIZE,
    ModelConfig,
    RunConfig,
    _synthetic_bytes,
    apply_setting,
    dump_run_config,
    load_run_config,
    model_config_from_dict,
    parse_set_flag,
    section_text,
    validate_run_config,
)
from pointseq.data import synthetic_splits
from pointseq.errors import ConfigError
from pointseq.model import prepare_cloud


class TestDefaults:
    def test_defaults_validate(self):
        validate_run_config(RunConfig())

    def test_defaults_are_the_reference_setup(self):
        cfg = RunConfig()
        assert cfg.model.m == 384
        assert cfg.model.scales == (16, 32, 64, 128)
        assert cfg.model.feature_dim == 128
        assert cfg.model.hidden_dim == 128
        assert cfg.model.dropout == 0.4
        assert cfg.train.lr == 0.001
        assert cfg.train.batch_size == 16
        assert cfg.train.epochs == 200
        assert cfg.ablate.m_values == (128, 256, 384, 512)
        assert cfg.ablate.t_values == (1, 2, 3, 4)

    def test_region_dim_tracks_aggregator(self):
        assert ModelConfig().region_dim == 128
        assert ModelConfig(aggregator="no_decoder", hidden_dim=96).region_dim == 96


class TestRoundTrip:
    def test_dump_then_load_is_identity(self, tmp_path):
        cfg = RunConfig()
        cfg.model.scales = (4, 8)
        cfg.model.dropout = 0.25
        cfg.train.lr = 0.003
        cfg.data.manifest = "somewhere/manifest.txt"
        cfg.ablate.lr_values = (0.001, 0.004)
        path = tmp_path / "run.ini"
        path.write_text(dump_run_config(cfg), encoding="utf-8")
        assert load_run_config(path) == cfg

    def test_dump_covers_every_section(self):
        text = dump_run_config(RunConfig())
        for section in ("[model]", "[train]", "[data]", "[run]", "[ablate]"):
            assert section in text


class TestFileLoading:
    def test_file_values_override_defaults(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[model]\nnum_classes = 3\nscales = 4, 8\n[train]\nlr = 0.002\n",
            encoding="utf-8",
        )
        cfg = load_run_config(path)
        assert cfg.model.num_classes == 3
        assert cfg.model.scales == (4, 8)
        assert cfg.train.lr == 0.002

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[universe]\nanswer = 42\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown configuration section"):
            load_run_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[model]\nbogus = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown configuration key"):
            load_run_config(path)

    def test_bad_int_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[model]\nm = many\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="cannot parse"):
            load_run_config(path)

    @pytest.mark.parametrize("raw", ["3_84", "\u0663\u0668\u0664"])
    def test_int_in_file_must_be_ascii_decimal_text(self, tmp_path, raw):
        path = tmp_path / "run.ini"
        path.write_text(f"[model]\nm = {raw}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"model\.m: cannot parse"):
            load_run_config(path)

    def test_non_finite_float_in_file_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[data]\nnoise = nan\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"data\.noise: must be a finite number"):
            load_run_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_run_config(tmp_path / "absent.ini")

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("scales = 4\n", encoding="utf-8")  # key before any section
        with pytest.raises(ConfigError, match="malformed"):
            load_run_config(path)


class TestOverrides:
    def test_set_pairs_apply_after_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[train]\nlr = 0.001\n", encoding="utf-8")
        cfg = load_run_config(path, sets=[("train.lr", "0.002")])
        assert cfg.train.lr == 0.002

    def test_seed_flag_sets_train_and_data_seeds(self):
        cfg = load_run_config(seed=7, out="runs/x")
        assert cfg.train.seed == 7
        assert cfg.data.seed == 7
        assert cfg.run.out == "runs/x"

    def test_tuple_values_accept_commas_or_spaces(self):
        cfg = RunConfig()
        apply_setting(cfg, "model.scales", "4, 8")
        assert cfg.model.scales == (4, 8)
        apply_setting(cfg, "model.scales", "2 4 6")
        assert cfg.model.scales == (2, 4, 6)
        apply_setting(cfg, "ablate.lr_values", "0.001 0.002")
        assert cfg.ablate.lr_values == (0.001, 0.002)

    @pytest.mark.parametrize("key", ["data.noise", "train.lr_decay", "model.dropout",
                                     "train.lr"])
    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "Infinity", "+inf"])
    def test_non_finite_floats_rejected_naming_the_key(self, key, raw):
        # nan would pass every range check in validation, inf some of them
        with pytest.raises(ConfigError, match=f"{key}: must be a finite number"):
            apply_setting(RunConfig(), key, raw)

    @pytest.mark.parametrize("raw", ["0.001, nan", "inf 0.002", "0.001 -inf"])
    def test_non_finite_lr_values_element_rejected(self, raw):
        with pytest.raises(ConfigError, match="ablate.lr_values: must be a finite number"):
            apply_setting(RunConfig(), "ablate.lr_values", raw)

    # int() and float() read digit-group underscores and non-ASCII digits
    @pytest.mark.parametrize("key,raw", [
        ("model.m", "3_84"), ("model.m", "\u0663\u0668\u0664"), ("train.epochs", "\uff11"),
        ("train.lr", "0.00_1"), ("data.noise", "\u0660.5"), ("model.scales", "16, 3_2"),
        ("ablate.lr_values", "0.001 0.00_2"),
    ])
    def test_numbers_must_be_ascii_decimal_text(self, key, raw):
        with pytest.raises(ConfigError, match=f"{key}: cannot parse"):
            apply_setting(RunConfig(), key, raw)

    def test_finite_extremes_still_parse(self):
        cfg = RunConfig()
        apply_setting(cfg, "train.lr", "1e300")
        apply_setting(cfg, "data.noise", "-0.0")
        assert cfg.train.lr == 1e300 and cfg.data.noise == 0.0

    def test_dotless_key_rejected(self):
        with pytest.raises(ConfigError, match="section.key"):
            apply_setting(RunConfig(), "lr", "0.1")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration section"):
            apply_setting(RunConfig(), "optimizer.lr", "0.1")

    def test_parse_set_flag(self):
        assert parse_set_flag("train.lr=0.002") == ("train.lr", "0.002")
        assert parse_set_flag(" model.scales = 4, 8 ") == ("model.scales", "4, 8")
        with pytest.raises(ConfigError, match="SECTION.KEY=VALUE"):
            parse_set_flag("train.lr")


class TestValidation:
    def _reject(self, match, **overrides):
        cfg = RunConfig()
        for dotted, value in overrides.items():
            section, key = dotted.split(".")
            setattr(getattr(cfg, section), key, value)
        with pytest.raises(ConfigError, match=match):
            validate_run_config(cfg)

    def test_bad_task(self):
        self._reject("task", **{"model.task": "regression"})

    def test_bad_aggregator(self):
        self._reject("aggregator", **{"model.aggregator": "mean_pool"})

    def test_scales_must_increase(self):
        self._reject("strictly increasing", **{"model.scales": (8, 4)})
        self._reject("strictly increasing", **{"model.scales": (4, 4)})

    def test_empty_scales(self):
        self._reject("at least one", **{"model.scales": ()})

    def test_positive_dims(self):
        self._reject("must be positive", **{"model.m": 0})
        self._reject("positive widths", **{"model.agg_widths": (64, 0)})

    # every count, width and scale, with a value one above the bound
    SIZES = {
        "num_classes": MAX_SIZE + 1, "num_parts": MAX_SIZE + 1, "m": MAX_SIZE + 1,
        "feature_dim": MAX_SIZE + 1, "hidden_dim": MAX_SIZE + 1,
        "seg_point_width": MAX_SIZE + 1,
        "scales": (16, MAX_SIZE + 1), "area_hidden": (64, MAX_SIZE + 1),
        "agg_widths": (MAX_SIZE + 1, 512), "head_widths": (512, MAX_SIZE + 1),
        "seg_prop1_widths": (MAX_SIZE + 1,), "seg_prop2_widths": (256, MAX_SIZE + 1),
        "seg_head_widths": (10**23,),
    }

    @pytest.mark.parametrize("key", SIZES)
    def test_size_above_the_bound_names_the_key(self, key):
        value = self.SIZES[key]
        largest = value if isinstance(value, int) else max(value)
        self._reject(f"model.{key} holds {largest}, above the largest size 2\\*\\*20",
                     **{f"model.{key}": value})

    def test_sizes_at_the_bound_validate(self):
        cfg = RunConfig()
        # a manifest run draws no synthetic set, so memory is not checked
        cfg.data.manifest = "data/manifest.txt"
        for key in self.SIZES:
            value = getattr(cfg.model, key)
            setattr(cfg.model, key,
                    MAX_SIZE if isinstance(value, int) else (*value[:-1], MAX_SIZE))
        validate_run_config(cfg)

    def test_segmentation_needs_3_centroids(self):
        # each point interpolates from its 3 nearest centroids
        self._reject(r"model.m=2 is below 3", **{"model.task": "segmentation", "model.m": 2})
        cfg = RunConfig()
        cfg.model.task, cfg.model.m = "segmentation", 3
        validate_run_config(cfg)
        cfg.model.task, cfg.model.m = "classification", 1
        validate_run_config(cfg)

    def test_dropout_range(self):
        self._reject("dropout", **{"model.dropout": 1.0})
        self._reject("dropout", **{"model.dropout": -0.1})

    def test_train_bounds(self):
        self._reject("lr", **{"train.lr": 0.0})
        self._reject("batch_size", **{"train.batch_size": 0})
        self._reject("epochs", **{"train.epochs": 0})
        self._reject("decay_every", **{"train.decay_every": -1})
        for decay in (1.5, 0.0, -0.3):
            self._reject(r"train.lr_decay must be in \(0, 1\]", **{"train.lr_decay": decay})

    def test_seeds_non_negative(self):
        self._reject("non-negative", **{"train.seed": -1})
        self._reject("non-negative", **{"data.seed": -3})

    def test_data_bounds(self):
        self._reject("at least 8", **{"data.points": 4})
        self._reject("non-negative", **{"data.noise": -0.5})
        self._reject("at least 1", **{"data.train_count": 0})
        self._reject("at least 1", **{"data.test_count": 0})

    @pytest.mark.parametrize("task", ["classification", "segmentation"])
    def test_synthetic_points_beyond_physical_memory(self, task):
        # checked from the sizes alone, before anything is drawn
        self._reject(r"data.points = 1000000000000 needs about .* GiB of physical memory",
                     **{"model.task": task, "data.points": 10**12})
        # a manifest run draws no synthetic set
        cfg = RunConfig()
        cfg.data.manifest, cfg.data.points = "data/manifest.txt", 10**12
        validate_run_config(cfg)

    @pytest.mark.parametrize("task", ["classification", "segmentation"])
    def test_synthetic_bytes_bound_what_a_prepared_set_keeps(self, task):
        # points, labels and the geometry train() keeps for every cloud; with
        # this many clouds the search temporaries alone do not cover them
        cfg = RunConfig()
        cfg.model.task, cfg.model.m, cfg.model.scales = task, 16, (8, 16)
        train_clouds, _, test_clouds, _ = synthetic_splits(cfg.data, task)
        kept = sum(a.nbytes for c in train_clouds + test_clouds
                   for a in vars(prepare_cloud(c, cfg.model)).values()
                   if isinstance(a, np.ndarray))
        assert kept <= _synthetic_bytes(cfg) < 1.1 * kept

    def test_aggregators_cover_the_five_variants(self):
        assert AGGREGATORS == (
            "attention_ed", "no_attention", "no_decoder", "concat", "max_pool"
        )


class TestModelConfigFromDict:
    def test_a_saved_config_comes_back_equal(self):
        cfg = ModelConfig(task="segmentation", m=8, scales=(2, 4), dropout=0.25)
        assert model_config_from_dict(section_text(cfg)) == cfg
        assert model_config_from_dict({}) == ModelConfig()

    def test_an_int_stands_for_a_float(self):
        cfg = model_config_from_dict({"dropout": "0"})
        assert cfg.dropout == 0.0 and isinstance(cfg.dropout, float)

    @pytest.mark.parametrize("key,value", [
        ("dropout", float("nan")), ("dropout", float("inf")), ("dropout", True),
        ("m", 3.0), ("task", 1), ("head_widths", [64, 32.0]), ("bogus", 1),
    ])
    def test_a_value_of_another_type_names_its_key(self, key, value):
        with pytest.raises(ConfigError, match=f"model.{key}"):
            model_config_from_dict({key: value})

    def test_a_size_above_the_bound_names_its_key(self):
        with pytest.raises(ConfigError, match="model.hidden_dim holds 1048577"):
            model_config_from_dict({"hidden_dim": "1048577"})

    def test_the_model_rules_apply(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            model_config_from_dict({"scales": "4, 4"})
