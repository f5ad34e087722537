"""Command-line behavior: verbs, exit codes, outputs, and reproducibility."""

import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from pointseq.cli import main
from pointseq.config import AGGREGATORS, ModelConfig
from pointseq.data import load_manifest
from pointseq.model import load_checkpoint, save_checkpoint

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DESK_CLS = ["--config", str(CONFIGS / "desk_classification.ini")]
DESK_SEG = ["--config", str(CONFIGS / "desk_segmentation.ini")]

TINY_CLS = [
    "--set", "model.num_classes=3",
    "--set", "model.m=4",
    "--set", "model.scales=2 4",
    "--set", "model.feature_dim=8",
    "--set", "model.hidden_dim=8",
    "--set", "model.area_hidden=8 8",
    "--set", "model.agg_widths=16 16",
    "--set", "model.head_widths=16 8",
    "--set", "model.dropout=0.2",
    "--set", "data.points=16",
    "--set", "data.train_count=2",
    "--set", "data.test_count=1",
    "--set", "train.epochs=3",
    "--set", "train.batch_size=4",
]

TINY_SEG = [
    "--set", "model.task=segmentation",
    "--set", "model.num_parts=2",
    "--set", "model.m=4",
    "--set", "model.scales=2 4",
    "--set", "model.feature_dim=8",
    "--set", "model.hidden_dim=8",
    "--set", "model.area_hidden=8 8",
    "--set", "model.agg_widths=16 16",
    "--set", "model.seg_point_width=8",
    "--set", "model.seg_prop1_widths=16 8",
    "--set", "model.seg_prop2_widths=16 8",
    "--set", "model.seg_head_widths=8",
    "--set", "model.dropout=0.2",
    "--set", "data.points=16",
    "--set", "data.train_count=2",
    "--set", "data.test_count=2",
    "--set", "train.epochs=2",
    "--set", "train.batch_size=4",
]


def _train(out, extra=(), config=TINY_CLS):
    return main(["train", "--out", str(out), *config, *extra])


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """The bytes of a checkpoint trained on TINY_CLS."""
    out = tmp_path_factory.mktemp("tiny") / "run"
    assert _train(out) == 0
    return (out / "checkpoint.bin").read_bytes()


def _with_header(blob, edit):
    """The checkpoint ``blob`` with its header JSON replaced by
    ``edit(header)``: magic(8) + version(4) + header_len(4) + header + rest."""
    size = int.from_bytes(blob[12:16], "little")
    text = json.dumps(edit(json.loads(blob[16:16 + size]))).encode("utf-8")
    return blob[:12] + len(text).to_bytes(4, "little") + text + blob[16 + size:]


def _set_config(key, value):
    def edit(header):
        header["config"][key] = value
        return header
    return edit


# (edit of the header, the key the error names, or None)
BAD_HEADERS = {
    "scales_not_a_list": (_set_config("scales", 5), "model.scales"),
    "string_inside_scales": (_set_config("scales", [2, "4"]), "model.scales"),
    "m_a_string": (_set_config("m", "eight"), "model.m"),
    "m_a_bool": (_set_config("m", True), "model.m"),
    "m_zero": (_set_config("m", 0), "model.m"),
    "m_text_fraction": (_set_config("m", "1.5"), "model.m"),
    "m_text_zero": (_set_config("m", "0"), "model.m"),
    "scales_text_not_increasing": (_set_config("scales", "4, 4"), "model.scales"),
    "dropout_text_nan": (_set_config("dropout", "nan"), "model.dropout"),
    "m_text_underscore": (_set_config("m", "3_84"), "model.m"),
    "m_text_arabic_indic_digits": (_set_config("m", "\u0663\u0668\u0664"), "model.m"),
    "dropout_text_underscore": (_set_config("dropout", "0.2_5"), "model.dropout"),
    "hidden_dim_above_the_size_bound": (_set_config("hidden_dim", "1048577"), "model.hidden_dim"),
    "bn_eps_a_removed_key": (_set_config("bn_eps", "1e-05"), "model.bn_eps"),
    "header_a_list": (lambda header: [], None),
    "config_a_list": (lambda header: {**header, "config": [1]}, None),
}


class TestTrainCommand:
    def test_quick_start_writes_checkpoint_and_log(self, tmp_path, capsys):
        assert _train(tmp_path / "run") == 0
        out = capsys.readouterr().out
        assert (tmp_path / "run" / "checkpoint.bin").exists()
        lines = (tmp_path / "run" / "metrics.log").read_text().splitlines()
        assert len(lines) == 3
        assert all(line.startswith("epoch=") for line in lines)
        assert "[model]" in out and "epoch=0 " in out

    def test_override_shows_in_echoed_config_before_work(self, tmp_path, capsys):
        assert _train(tmp_path / "run", ["--set", "train.lr=0.002"]) == 0
        out = capsys.readouterr().out
        assert out.index("lr = 0.002") < out.index("epoch=0")

    def test_rerun_from_echoed_config_is_bit_identical(self, tmp_path, capsys):
        one = tmp_path / "one"
        two = tmp_path / "two"
        assert _train(one) == 0
        ini = one / "effective_config.ini"
        assert main(["train", "--config", str(ini), "--out", str(two)]) == 0
        capsys.readouterr()
        assert (one / "metrics.log").read_bytes() == (two / "metrics.log").read_bytes()
        assert (one / "checkpoint.bin").read_bytes() == (two / "checkpoint.bin").read_bytes()

    def test_checkpoint_header_holds_the_effective_config_model_lines(self, tmp_path, capsys):
        assert _train(tmp_path / "run") == 0
        capsys.readouterr()
        blob = (tmp_path / "run" / "checkpoint.bin").read_bytes()
        header = json.loads(blob[16:16 + int.from_bytes(blob[12:16], "little")])["config"]
        ini = (tmp_path / "run" / "effective_config.ini").read_text(encoding="utf-8")
        lines = ini.split("\n\n")[0].splitlines()
        names = [f.name for f in fields(ModelConfig)]
        assert lines[0] == "[model]" and sorted(header) == sorted(names)
        assert [f"{name} = {header[name]}" for name in names] == lines[1:]
        assert header["scales"] == "2, 4" and header["dropout"] == "0.2"

    def test_missing_out_rejected(self, capsys):
        assert main(["train", *TINY_CLS]) == 2
        assert "output directory" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        assert main(["train", "--out", str(tmp_path), "--set", "model.bogus=1"]) == 2
        assert "unknown configuration key" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["data.noise=inf", "data.noise=nan",
                                         "train.lr_decay=inf", "model.dropout=nan"])
    def test_non_finite_float_exits_2_naming_the_key(self, tmp_path, capsys, setting):
        assert _train(tmp_path / "run", ["--set", setting]) == 2
        err = capsys.readouterr().err
        assert f"{setting.split('=')[0]}: must be a finite number" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    # each held the one value every run used, and is now a constant
    @pytest.mark.parametrize("key,text", [
        ("model.bn_eps", "1e-05"), ("model.interp_k", "3"), ("train.lr_floor", "1e-05"),
        ("train.bn_momentum", "0.5"), ("train.bn_momentum_decay", "0.5"),
        ("train.bn_momentum_floor", "0.01"),
    ])
    @pytest.mark.parametrize("source", ["file", "set"])
    def test_a_removed_key_exits_2_as_unknown(self, tmp_path, capsys, source, key, text):
        if source == "file":
            section, name = key.split(".")
            path = tmp_path / "run.ini"
            path.write_text(f"[{section}]\n{name} = {text}\n", encoding="utf-8")
            extra = ["--config", str(path)]
        else:
            extra = ["--set", f"{key}={text}"]
        assert _train(tmp_path / "run", extra) == 2
        err = capsys.readouterr().err
        assert f"unknown configuration key {key}" in err
        assert not (tmp_path / "run").exists()

    def test_class_count_mismatch_rejected(self, tmp_path, capsys):
        # default num_classes=40 against the 3-class synthetic set
        argv = [a for a in TINY_CLS if a != "model.num_classes=3"]
        argv.remove("--set")
        assert main(["train", "--out", str(tmp_path), *argv]) == 2
        assert "declares 3 classes" in capsys.readouterr().err

    def test_trains_from_a_materialized_manifest(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert main(["synth", "--out", str(data_dir), *TINY_CLS]) == 0
        manifest = data_dir / "manifest.txt"
        code = _train(
            tmp_path / "run", ["--set", f"data.manifest={manifest}"]
        )
        capsys.readouterr()
        assert code == 0


    def test_out_of_memory_exits_2_naming_the_keys(self, tmp_path, capsys, monkeypatch):
        from pointseq import cli

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 5.00 GiB for an array")

        monkeypatch.setattr(cli, "train", exhausted)
        assert _train(tmp_path / "run") == 2
        err = capsys.readouterr().err
        assert "out of memory" in err
        assert "train.batch_size" in err and "model.m" in err
        assert "Traceback" not in err

    def test_zero_decay_period_keeps_rates_constant(self, tmp_path, capsys):
        assert _train(tmp_path / "run", ["--set", "train.decay_every=0"]) == 0
        capsys.readouterr()
        lines = (tmp_path / "run" / "metrics.log").read_text().splitlines()
        assert {line.split("lr=")[1].split()[0] for line in lines} == {"0.001"}

    def test_non_finite_training_exits_2_without_checkpoint(self, tmp_path, capsys):
        run = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = _train(run, ["--set", "train.lr=1e200", "--set", "train.epochs=2"])
        err = capsys.readouterr().err
        assert code == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "RuntimeWarning" not in err
        assert "training diverged at epoch 0, batch 1" in err
        assert "train.lr=1e+200" in err
        assert not (run / "checkpoint.bin").exists()
        assert not (run / "metrics.log").exists()

    @pytest.mark.parametrize("config", [TINY_CLS, TINY_SEG], ids=["cls", "seg"])
    @pytest.mark.parametrize("split", ["train", "test"])
    def test_manifest_without_a_split_exits_3_naming_it(self, tmp_path, capsys, split, config):
        manifest = _manifest_without(tmp_path, split, config)
        run = tmp_path / "run"
        assert _train(run, ["--set", f"data.manifest={manifest}"], config=config) == 3
        err = capsys.readouterr().err
        assert f"manifest {manifest} has no {split} records" in err
        assert "Traceback" not in err
        assert not (run / "checkpoint.bin").exists()


    def test_point_file_coordinate_too_large_exits_3_naming_the_line(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert main(["synth", "--out", str(data_dir), *TINY_CLS]) == 0
        huge = data_dir / "test_cube_000.pts"
        lines = huge.read_text().splitlines()
        lines[4] = "1e200 0 0"
        huge.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = _train(tmp_path / "run",
                          ["--set", f"data.manifest={data_dir / 'manifest.txt'}"])
        assert code == 3
        err = capsys.readouterr().err
        assert f"{huge}: coordinate '1e200' is too large" in err
        assert "(line 5)" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("target", ["point_file", "manifest"])
    def test_data_file_not_utf8_exits_3_naming_it(self, tmp_path, capsys, target):
        data_dir = tmp_path / "data"
        assert main(["synth", "--out", str(data_dir), *TINY_CLS]) == 0
        manifest = data_dir / "manifest.txt"
        bad = data_dir / "test_cube_000.pts" if target == "point_file" else manifest
        bad.write_bytes(bad.read_bytes() + b"0 0 \xff\n")
        assert _train(tmp_path / "run", ["--set", f"data.manifest={manifest}"]) == 3
        err = capsys.readouterr().err
        assert f"{bad}: not UTF-8 text" in err
        assert "Traceback" not in err

    def test_config_file_not_utf8_exits_2_naming_it(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_bytes(b"[train]\nepochs = 1\n# \xe9t\xe9\n")
        assert main(["train", "--out", str(tmp_path / "run"), "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"config file {config} is not UTF-8 text" in err
        assert "Traceback" not in err

    def test_noise_that_overflows_the_coordinates_exits_2_naming_it(self, tmp_path, capsys):
        assert _train(tmp_path / "run", ["--set", "data.noise=1e308"]) == 2
        err = capsys.readouterr().err
        assert "data.noise = 1e+308 gives point coordinates that are not finite" in err
        assert "Traceback" not in err

def _manifest_without(tmp_path, split, config=TINY_CLS):
    """A materialized synthetic manifest with every ``split`` record removed."""
    data_dir = tmp_path / "data"
    assert main(["synth", "--out", str(data_dir), *config]) == 0
    manifest = data_dir / "manifest.txt"
    lines = manifest.read_text().splitlines()
    manifest.write_text("".join(f"{line}\n" for line in lines
                                if not line.startswith(f"{split} ")))
    return manifest


class TestSizeLimits:
    """Model sizes the data cannot supply fail before any work starts."""

    def test_m_beyond_synthetic_points_exits_2(self, tmp_path, capsys):
        code = main(["train", *DESK_CLS, "--out", str(tmp_path), "--set", "model.m=100"])
        assert code == 2
        assert "model.m needs 100 points per cloud but data.points is 64" in (
            capsys.readouterr().err
        )

    def test_synthetic_points_beyond_physical_memory_exit_2(self, tmp_path, capsys):
        code = main(["train", *DESK_CLS, "--out", str(tmp_path),
                     "--set", "data.points=1000000000000"])
        assert code == 2
        assert "data.points = 1000000000000 needs about" in capsys.readouterr().err

    def test_largest_scale_beyond_synthetic_points_exits_2(self, tmp_path, capsys):
        code = main(["train", *DESK_CLS, "--out", str(tmp_path), "--set", "model.scales=4,80"])
        assert code == 2
        assert "model.scales needs 80 points per cloud" in capsys.readouterr().err

    def test_segmentation_with_fewer_than_3_centroids_exits_2(self, tmp_path, capsys):
        # each point interpolates from its 3 nearest centroids
        code = main(["train", *DESK_SEG, "--out", str(tmp_path), "--set", "model.m=2"])
        assert code == 2
        assert "model.m=2 is below 3" in capsys.readouterr().err

    def test_ablate_m_values_checked_before_the_first_run(self, capsys):
        # the default m_values (128-512) exceed the desk clouds' 64 points
        assert main(["ablate", "M", *DESK_CLS]) == 2
        captured = capsys.readouterr()
        assert "ablate M=128: model.m needs 128 points" in captured.err
        assert "# M=" not in captured.out

    def test_ablate_t_values_checked_before_the_first_run(self, capsys):
        code = main(["ablate", "T", *TINY_CLS, "--set", "model.scales=2 4 32",
                     "--set", "ablate.t_values=1 3"])
        assert code == 2
        captured = capsys.readouterr()
        assert "ablate T=3: model.scales needs 32 points" in captured.err
        assert "# T=" not in captured.out

    @pytest.mark.parametrize("axis,key", [("M", "m_values"), ("T", "t_values"),
                                          ("rnn-hidden", "hidden_values"), ("lr", "lr_values")])
    def test_ablate_empty_value_list_exits_2_naming_the_key(self, capsys, axis, key):
        assert main(["ablate", axis, *DESK_CLS, "--set", f"ablate.{key}="]) == 2
        captured = capsys.readouterr()
        assert f"ablate.{key} is empty" in captured.err
        assert "Traceback" not in captured.err
        assert f"# {axis}=" not in captured.out

    def test_ablate_negative_epochs_exits_2_naming_the_key(self, capsys):
        code = main(["ablate", "T", *TINY_CLS, "--set", "ablate.t_values=1 2",
                     "--set", "ablate.epochs=-3"])
        assert code == 2
        captured = capsys.readouterr()
        assert "ablate.epochs must be 0 (keep train.epochs) or positive, got -3" in captured.err
        assert "# T=" not in captured.out

    @pytest.mark.parametrize("key", ["hidden_dim", "feature_dim"])
    def test_size_too_large_to_allocate_exits_2_naming_the_key(self, tmp_path, capsys, key):
        code = main(["train", *DESK_CLS, "--out", str(tmp_path),
                     "--set", f"model.{key}=100000000000"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: model.{key} holds 100000000000, above the largest size 2**20" in err
        assert "Traceback" not in err

    def test_part_count_too_large_to_allocate_exits_2_naming_the_key(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert main(["synth", "--out", str(data_dir), *TINY_SEG]) == 0
        manifest = data_dir / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("parts.composite = 0 2",
                                                         f"parts.composite = 0 {10**23}"))
        code = _train(tmp_path / "run", ["--set", f"data.manifest={manifest}",
                                         "--set", f"model.num_parts={10**23}"], config=TINY_SEG)
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: model.num_parts holds {10**23}, above the largest size" in err
        assert "Traceback" not in err

    def test_part_label_beyond_int64_exits_3_naming_the_file(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert main(["synth", "--out", str(data_dir), *TINY_SEG]) == 0
        bad = data_dir / "test_composite_001.pts"
        lines = bad.read_text().splitlines()
        lines[2] = f"{lines[2].rsplit(' ', 1)[0]} 99999999999999999999999"
        bad.write_text("\n".join(lines) + "\n")
        code = _train(tmp_path / "run", ["--set", f"data.manifest={data_dir / 'manifest.txt'}"],
                      config=TINY_SEG)
        assert code == 3
        err = capsys.readouterr().err
        assert (f"error: {bad}: part label '99999999999999999999999' is outside the int64 "
                "range (line 3)") in err
        assert "Traceback" not in err

    def test_small_manifest_cloud_exits_3_naming_the_file(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert main(["synth", "--out", str(data_dir), *TINY_CLS]) == 0
        small = data_dir / "test_cube_000.pts"
        small.write_text("0 0 0\n1 0 0\n0 1 0\n")
        code = _train(tmp_path / "run", ["--set", f"data.manifest={data_dir / 'manifest.txt'}"])
        assert code == 3
        assert f"{small} has 3 points but model.m needs 4" in capsys.readouterr().err


class TestEvalCommand:
    def _trained(self, tmp_path, capsys, config=TINY_CLS):
        out = tmp_path / "run"
        assert _train(out, config=config) == 0
        stdout = capsys.readouterr().out
        best_epoch = int(stdout.split("best_epoch=")[1].split()[0])
        log_line = (out / "metrics.log").read_text().splitlines()[best_epoch]
        return out, log_line

    def test_eval_matches_the_checkpoint_epoch_log_line(self, tmp_path, capsys):
        out, log_line = self._trained(tmp_path, capsys)
        assert main(["eval", "--out", str(out), *TINY_CLS]) == 0
        report = capsys.readouterr().out.splitlines()[-1]
        logged_acc = log_line.split("test_acc=")[1].split()[0]
        assert f"instance_acc={logged_acc}" in report
        assert "samples=3" in report

    def test_segmentation_report_lists_categories_and_mean(self, tmp_path, capsys):
        out, log_line = self._trained(tmp_path, capsys, config=TINY_SEG)
        assert main(["eval", "--out", str(out), *TINY_SEG]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("composite") for line in lines)
        mean_line = [line for line in lines if line.startswith("mean")][-1]
        logged_miou = log_line.split("test_miou=")[1].split()[0]
        assert mean_line.split()[-1] == logged_miou

    def test_task_mismatch_rejected(self, tmp_path, capsys):
        out, _ = self._trained(tmp_path, capsys)
        seg_dir = tmp_path / "segdata"
        assert main(["synth", "--out", str(seg_dir), *TINY_SEG]) == 0
        code = main([
            "eval", "--out", str(out), *TINY_CLS,
            "--set", f"data.manifest={seg_dir / 'manifest.txt'}",
        ])
        assert code == 2
        assert "does not match" in capsys.readouterr().err

    def test_corrupt_checkpoint_exits_3(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "checkpoint.bin").write_bytes(b"not a checkpoint")
        assert main(["eval", "--out", str(run), *TINY_CLS]) == 3
        assert "not a checkpoint" in capsys.readouterr().err

    def test_non_finite_running_variance_exits_3_naming_the_record(self, tmp_path, capsys):
        out, _ = self._trained(tmp_path, capsys)
        path = out / "checkpoint.bin"
        params, cfg = load_checkpoint(path)
        name = sorted(params.batch_norms)[0]
        params.batch_norms[name].running_var[0] = np.nan
        save_checkpoint(path, params, cfg)
        assert main(["eval", "--out", str(out), *TINY_CLS]) == 3
        captured = capsys.readouterr()
        assert f"{path}: record '{name}.running_var' holds a non-finite value" in captured.err
        assert "loss=" not in captured.out

    @pytest.mark.parametrize("case", BAD_HEADERS)
    def test_bad_header_config_exits_3_naming_the_file(self, tmp_path, capsys,
                                                       tiny_checkpoint, case):
        edit, key = BAD_HEADERS[case]
        path = tmp_path / "checkpoint.bin"
        path.write_bytes(_with_header(tiny_checkpoint, edit))
        assert main(["eval", "--out", str(tmp_path), *TINY_CLS]) == 3
        err = capsys.readouterr().err
        assert f"corrupt checkpoint {path}: header" in err
        assert key is None or key in err
        assert "Traceback" not in err

    def test_version_2_checkpoint_exits_3_naming_the_file_and_version(self, tmp_path, capsys,
                                                                      tiny_checkpoint):
        # version 2 stored every LSTM's full block, recurrent rows and forget gate
        # included; version 3 stored the header config as typed JSON values;
        # version 4 held model.bn_eps and model.interp_k
        path = tmp_path / "checkpoint.bin"
        for version in (2, 3, 4):
            blob = _with_header(tiny_checkpoint,
                                lambda header: {**header, "format_version": version})
            path.write_bytes(blob[:8] + version.to_bytes(4, "little") + blob[12:])
            assert main(["eval", "--out", str(tmp_path), *TINY_CLS]) == 3
            err = capsys.readouterr().err
            assert f"{path}: unsupported checkpoint version {version}" in err
            assert "Traceback" not in err

    def test_missing_split_is_reported_before_a_class_count_mismatch(self, tmp_path, capsys,
                                                                     tiny_checkpoint):
        # eval checks the data in train's order: splits, then counts, then sizes
        manifest = _manifest_without(tmp_path, "test")
        manifest.write_text(manifest.read_text().replace("sphere\n", "sphere cone\n", 1))
        out = tmp_path / "run"
        out.mkdir()
        (out / "checkpoint.bin").write_bytes(tiny_checkpoint)
        code = main(["eval", "--out", str(out), *TINY_CLS, "--set", f"data.manifest={manifest}"])
        assert code == 3
        assert f"manifest {manifest} has no test records" in capsys.readouterr().err

    def test_missing_checkpoint_exits_3(self, tmp_path, capsys):
        assert main(["eval", "--out", str(tmp_path), *TINY_CLS]) == 3
        capsys.readouterr()


class TestGradcheckCommand:
    def test_default_run_passes_and_lists_each_tensor_once(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "tolerance 0.0001: PASS" in out
        for header in ("classification tiny config", "segmentation tiny config"):
            assert header in out
        # tensor rows are indented; no name repeats within a section
        section = None
        seen = {}
        for line in out.splitlines():
            if "tiny config" in line:
                section = line.split()[0]
                seen[section] = set()
            elif line.startswith("  ") and section is not None:
                name = line.split()[0]
                assert name not in seen[section]
                seen[section].add(name)
        assert all(len(names) > 20 for names in seen.values())

    def test_seed_6_passes(self, capsys):
        # small gradients there once read as failures from finite-difference roundoff
        assert main(["gradcheck", "--seed", "6"]) == 0
        assert "tolerance 0.0001: PASS" in capsys.readouterr().out

    def test_unreachable_tolerance_fails_with_exit_1(self, capsys):
        assert main(["gradcheck", "--tolerance", "1e-12"]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1", "1_0e-4", "\u0661e-4"])
    def test_tolerance_must_be_positive_and_finite(self, capsys, value):
        with pytest.raises(SystemExit) as err:
            main(["gradcheck", f"--tolerance={value}"])
        assert err.value.code == 2
        assert "--tolerance: must be a positive finite number" in capsys.readouterr().err

    def test_only_gradcheck_takes_a_tolerance(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["train", "--out", str(tmp_path), *TINY_CLS, "--tolerance", "5"])
        assert err.value.code == 2
        assert "unrecognized arguments: --tolerance 5" in capsys.readouterr().err
        assert not (tmp_path / "metrics.log").exists()


class TestAblateCommand:
    def test_aggregation_axis_emits_five_variant_table(self, tmp_path, capsys):
        code = main([
            "ablate", "aggregation", "--out", str(tmp_path), *TINY_CLS,
            "--set", "ablate.epochs=2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        start = lines.index(next(l for l in lines if l.startswith("value")))
        rows = lines[start + 1 : start + 6]
        assert [row.split()[0] for row in rows] == list(AGGREGATORS)
        for row in rows:
            assert 0.0 <= float(row.split()[1]) <= 1.0
        assert (tmp_path / "ablate_aggregation.log").exists()

    def test_manifest_without_a_test_split_exits_3_before_the_first_run(self, tmp_path,
                                                                          capsys):
        manifest = _manifest_without(tmp_path, "test")
        code = main(["ablate", "aggregation", *TINY_CLS, "--set", f"data.manifest={manifest}"])
        captured = capsys.readouterr()
        assert code == 3
        assert f"manifest {manifest} has no test records" in captured.err
        assert "# aggregation=" not in captured.out

    def test_m_axis_uses_configured_values(self, capsys):
        code = main([
            "ablate", "M", *TINY_CLS,
            "--set", "ablate.m_values=2 4", "--set", "ablate.epochs=2",
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        start = lines.index(next(l for l in lines if l.startswith("value")))
        assert [row.split()[0] for row in lines[start + 1 : start + 3]] == ["2", "4"]

    def test_t_axis_sweeps_scale_prefixes(self, capsys):
        code = main([
            "ablate", "T", *TINY_CLS,
            "--set", "ablate.t_values=1 2", "--set", "ablate.epochs=2",
        ])
        capsys.readouterr()
        assert code == 0

    def test_t_values_beyond_configured_scales_rejected(self, capsys):
        # default t_values reach 4 but the tiny model configures two scales
        assert main(["ablate", "T", *TINY_CLS]) == 2
        assert "lie outside [1, 2]" in capsys.readouterr().err

    def test_t_values_below_one_rejected(self, capsys):
        assert main(["ablate", "T", *TINY_CLS, "--set", "ablate.t_values=0"]) == 2
        assert "ablate.t_values [0] lie outside [1, 2]" in capsys.readouterr().err

    def test_unknown_axis_rejected_by_the_parser(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["ablate", "Q"])
        assert err.value.code == 2
        capsys.readouterr()


class TestSynthCommand:
    def test_writes_counted_files_and_a_loadable_manifest(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "d"), *TINY_CLS]) == 0
        assert "wrote 9 point files" in capsys.readouterr().out
        manifest = load_manifest(tmp_path / "d" / "manifest.txt")
        assert len(manifest.split("train")[0]) == 6
        assert len(manifest.split("test")[0]) == 3

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        for sub in ("a", "b"):
            assert main(["synth", "--out", str(tmp_path / sub), *TINY_SEG]) == 0
        assert capsys.readouterr().out.count("wrote 4 point files") == 2
        names = sorted(os.listdir(tmp_path / "a"))
        assert names == sorted(os.listdir(tmp_path / "b"))
        for name in names:
            a = (tmp_path / "a" / name).read_bytes()
            assert a == (tmp_path / "b" / name).read_bytes()

    def test_seed_flag_changes_the_generated_data(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "a"), *TINY_CLS]) == 0
        assert main(["synth", "--out", str(tmp_path / "b"), *TINY_CLS, "--seed", "9"]) == 0
        capsys.readouterr()
        name = "train_cube_000.pts"
        assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("value", ["1_0", "\u0669", "nine"])
    def test_seed_flag_must_be_an_ascii_integer(self, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as err:
            main(["synth", "--out", str(tmp_path), *TINY_CLS, "--seed", value])
        assert err.value.code == 2
        assert f"--seed: must be an integer, got {value!r}" in capsys.readouterr().err

    def test_missing_out_rejected(self, capsys):
        assert main(["synth", *TINY_CLS]) == 2
        capsys.readouterr()


class TestParser:
    def test_a_command_is_required(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2
        capsys.readouterr()

    def test_malformed_set_flag_rejected(self, capsys):
        assert main(["train", "--set", "train.lr"]) == 2
        assert "SECTION.KEY=VALUE" in capsys.readouterr().err


class TestBlasThreads:
    """Importing the package asks for one BLAS thread unless the user chose."""

    def _child_env(self, **blas):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env.update(blas)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        script = ("import os, pointseq; print(os.environ['OPENBLAS_NUM_THREADS'], "
                  "os.environ['OMP_NUM_THREADS'])")
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        return done.stdout.split()

    def test_unset_variables_become_one(self):
        assert self._child_env() == ["1", "1"]

    def test_a_value_the_user_set_stays(self):
        assert self._child_env(OPENBLAS_NUM_THREADS="3", OMP_NUM_THREADS="2") == ["3", "2"]
