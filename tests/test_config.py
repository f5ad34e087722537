"""Configuration parsing, dumping, overrides, and validation."""

import pytest

from pointseq.config import (
    AGGREGATORS,
    ModelConfig,
    RunConfig,
    apply_setting,
    dump_run_config,
    load_run_config,
    model_config_from_dict,
    parse_set_flag,
    validate_run_config,
)
from pointseq.errors import ConfigError


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

    @pytest.mark.parametrize("key", ["data.noise", "model.bn_eps", "model.dropout",
                                     "train.lr", "train.lr_floor", "train.bn_momentum"])
    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "Infinity", "+inf"])
    def test_non_finite_floats_rejected_naming_the_key(self, key, raw):
        # nan would pass every range check in validation, inf some of them
        with pytest.raises(ConfigError, match=f"{key}: must be a finite number"):
            apply_setting(RunConfig(), key, raw)

    @pytest.mark.parametrize("raw", ["0.001, nan", "inf 0.002", "0.001 -inf"])
    def test_non_finite_lr_values_element_rejected(self, raw):
        with pytest.raises(ConfigError, match="ablate.lr_values: must be a finite number"):
            apply_setting(RunConfig(), "ablate.lr_values", raw)

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

    def test_dropout_range(self):
        self._reject("dropout", **{"model.dropout": 1.0})
        self._reject("dropout", **{"model.dropout": -0.1})

    def test_train_bounds(self):
        self._reject("lr", **{"train.lr": 0.0})
        self._reject("batch_size", **{"train.batch_size": 0})
        self._reject("epochs", **{"train.epochs": 0})
        self._reject("decay_every", **{"train.decay_every": -1})
        self._reject("bn_momentum", **{"train.bn_momentum": 0.0})
        self._reject("decay factors", **{"train.lr_decay": 1.5})

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

    def test_aggregators_cover_the_five_variants(self):
        assert AGGREGATORS == (
            "attention_ed", "no_attention", "no_decoder", "concat", "max_pool"
        )


class TestModelConfigFromDict:
    def test_a_saved_config_comes_back_equal(self):
        cfg = ModelConfig(task="segmentation", m=8, scales=(2, 4), dropout=0.25)
        raw = {name: list(value) if isinstance(value, tuple) else value
               for name, value in vars(cfg).items()}
        assert model_config_from_dict(raw) == cfg
        assert model_config_from_dict({}) == ModelConfig()

    def test_an_int_stands_for_a_float(self):
        cfg = model_config_from_dict({"dropout": 0})
        assert cfg.dropout == 0.0 and isinstance(cfg.dropout, float)

    @pytest.mark.parametrize("key,value", [
        ("bn_eps", float("nan")), ("dropout", float("inf")), ("dropout", True),
        ("interp_k", 3.0), ("task", 1), ("head_widths", [64, 32.0]), ("bogus", 1),
    ])
    def test_a_value_of_another_type_names_its_key(self, key, value):
        with pytest.raises(ConfigError, match=f"model.{key}"):
            model_config_from_dict({key: value})

    def test_the_model_rules_apply(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            model_config_from_dict({"scales": [4, 4]})
