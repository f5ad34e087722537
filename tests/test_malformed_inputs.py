"""Malformed-input corpus: seeded byte flips and truncations of a valid desk
checkpoint, point file, manifest and config file, each run in-process
through ``pointseq eval``; the point file, manifest and config file also
through a one-epoch ``pointseq train``, and the config file through
``pointseq synth``.

Every case must exit 0, 2 or 3 and print no traceback; a flip can leave a
file valid, so exit 0 is allowed. An exit of 2 or 3 must name the damaged
file, or, for the checkpoint, point file and config file, a key. A second
table puts hand-written lines into the point file and the manifest, run
through ``eval`` and ``train``: wrong column counts, an overflowing number,
negative zero, a number of a million digits, and numbers that are not ASCII
decimal text. A third puts such numbers into the config file, run through
every entry point.
"""

import random
import re
import shutil
from pathlib import Path

import pytest

from pointseq.cli import main

DESK_CLS = Path(__file__).resolve().parent.parent / "configs" / "desk_classification.ini"
# one train and one test cloud per class keeps every case a few milliseconds
SMALL = ["--set", "data.train_count=1", "--set", "data.test_count=1"]

# the damaged file of each kind, relative to a copy of the valid tree
TARGETS = {
    "checkpoint": "run/checkpoint.bin",
    "point_file": "data/test_cube_000.pts",
    "manifest": "data/manifest.txt",
    "config": "config.ini",
}
SEEDS = range(30)
KEY = re.compile(r"\b(run|model|train|data|ablate)\.[a-z_]+")


def flip(blob, rng):
    """``blob`` with one to three bytes XOR-ed with a non-zero byte: half the
    draws flip anywhere, half in the first 512 bytes, where a checkpoint
    keeps its header."""
    out = bytearray(blob)
    span = len(out) if rng.random() < 0.5 else min(len(out), 512)
    for _ in range(rng.randint(1, 3)):
        out[rng.randrange(span)] ^= rng.randint(1, 255)
    return bytes(out)


def truncate(blob, rng):
    """The first ``0 <= n < len(blob)`` bytes of ``blob``."""
    return blob[:rng.randrange(len(blob))]


MUTATIONS = {"flip": flip, "truncate": truncate}


@pytest.fixture(scope="module")
def valid_tree(tmp_path_factory):
    """A config file, a small desk dataset as point files with their
    manifest, and a checkpoint trained on it for one epoch."""
    root = tmp_path_factory.mktemp("valid")
    shutil.copyfile(DESK_CLS, root / "config.ini")
    config = ["--config", str(root / "config.ini"), *SMALL]
    assert main(["synth", "--out", str(root / "data"), *config]) == 0
    assert main(["train", "--out", str(root / "run"), *config,
                 "--set", f"data.manifest={root / 'data' / 'manifest.txt'}",
                 "--set", "train.epochs=1"]) == 0
    return root


def _eval(root):
    return main(["eval", "--config", str(root / "config.ini"), "--out", str(root / "run"),
                 "--set", f"data.manifest={root / 'data' / 'manifest.txt'}"])


def _train(root):
    return main(["train", "--config", str(root / "config.ini"), "--out", str(root / "retrain"),
                 "--set", f"data.manifest={root / 'data' / 'manifest.txt'}",
                 "--set", "train.epochs=1"])


def _synth(root):
    return main(["synth", "--config", str(root / "config.ini"), "--out", str(root / "resynth"),
                 *SMALL])


# (entry point, kind of the damaged file) beyond eval, which reads every kind
ENTRY_CASES = [("train", "point_file"), ("train", "manifest"), ("train", "config"),
               ("synth", "config")]
ENTRIES = {"eval": _eval, "train": _train, "synth": _synth}


def test_the_valid_tree_evaluates(valid_tree, capsys):
    assert _eval(valid_tree) == 0
    assert "samples=3" in capsys.readouterr().out


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("kind", TARGETS)
def test_damaged_input_exits_cleanly_naming_it(valid_tree, tmp_path, capsys,
                                               kind, mutation, seed):
    _check_damaged(valid_tree, tmp_path, capsys, "eval", kind, mutation, seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("entry,kind", ENTRY_CASES, ids=[f"{e}-{k}" for e, k in ENTRY_CASES])
def test_damaged_input_to_train_and_synth_exits_cleanly_naming_it(valid_tree, tmp_path, capsys,
                                                                  entry, kind, mutation, seed):
    _check_damaged(valid_tree, tmp_path, capsys, entry, kind, mutation, seed)


def _check_damaged(valid_tree, tmp_path, capsys, entry, kind, mutation, seed):
    root = tmp_path / "tree"
    shutil.copytree(valid_tree, root)
    target = root / TARGETS[kind]
    rng = random.Random(f"{kind}-{mutation}-{seed}")
    target.write_bytes(MUTATIONS[mutation](target.read_bytes(), rng))
    code = ENTRIES[entry](root)
    err = capsys.readouterr().err
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code:
        # the data of a damaged manifest are at fault, whatever key they fail
        assert str(target) in err or (kind != "manifest" and KEY.search(err)), err


# a hand-written point-file line: (line, exit code as the first line, exit
# code as a line appended to a valid file)
POINT_LINES = {
    "two_columns": ("0.5 0.25", 3, 3),
    "four_columns": ("0.5 0.25 0.125 1", 3, 3),
    "overflow": ("1e309 0.25 0.125", 3, 3),
    "negative_zero": ("-0 -0 -0", 0, 0),
    "million_digits": (f"{'9' * 10**6} 0.25 0.125", 3, 3),
    "underscore_digits": ("1_5 0.25 0.125", 3, 3),
    "arabic_indic_digit": ("\u0663 0.25 0.125", 3, 3),
}
# a hand-written manifest line in place of a valid one: (replaced line, new
# line, exit code)
CUBE_RECORD = "test test_cube_000.pts cube"
CLASSES = "classes = cube plane sphere"
MANIFEST_LINES = {
    "two_columns": (CUBE_RECORD, "test test_cube_000.pts", 3),
    "four_columns": (CUBE_RECORD, f"{CUBE_RECORD} 1", 3),
    "overflow_class": (CLASSES, f"{CLASSES} 1e309", 2),
    "negative_zero_class": (CUBE_RECORD, "test test_cube_000.pts -0", 3),
    "million_digit_path": (CUBE_RECORD, f"test {'9' * 10**6} cube", 3),
    "million_digit_class": (CLASSES, f"classes = cube plane {'9' * 10**6}", 3),
}


def _run_edited(valid_tree, tmp_path, entry, kind, edit):
    """``entry`` run on a copy of the valid tree whose ``kind`` file went
    through ``edit(text)``: (exit code, the edited file's path)."""
    root = tmp_path / "tree"
    shutil.copytree(valid_tree, root)
    target = root / TARGETS[kind]
    target.write_text(edit(target.read_text(encoding="utf-8")), encoding="utf-8")
    return ENTRIES[entry](root), target


def _assert_clean_exit(code, err, want, target):
    assert code == want, err[:500]
    assert "Traceback" not in err
    if code:
        assert str(target) in err, err[:500]
    # no message repeats a field of a million characters
    assert len(err) < 8192, err[:500]


@pytest.mark.parametrize("place", ["first", "appended"])
@pytest.mark.parametrize("case", POINT_LINES)
def test_point_file_line_exits_cleanly_naming_the_file(valid_tree, tmp_path, capsys, case,
                                                       place):
    _check_point_line(valid_tree, tmp_path, capsys, "eval", case, place)


@pytest.mark.parametrize("place", ["first", "appended"])
@pytest.mark.parametrize("case", POINT_LINES)
def test_point_file_line_to_train_exits_cleanly_naming_the_file(valid_tree, tmp_path, capsys,
                                                                case, place):
    _check_point_line(valid_tree, tmp_path, capsys, "train", case, place)


def _check_point_line(valid_tree, tmp_path, capsys, entry, case, place):
    line, first, appended = POINT_LINES[case]
    if place == "first":
        code, target = _run_edited(valid_tree, tmp_path, entry, "point_file",
                                   lambda text: text.replace(text.split("\n")[0], line, 1))
    else:
        code, target = _run_edited(valid_tree, tmp_path, entry, "point_file",
                                   lambda text: f"{text}{line}\n")
    _assert_clean_exit(code, capsys.readouterr().err, first if place == "first" else appended,
                       target)


@pytest.mark.parametrize("case", MANIFEST_LINES)
def test_manifest_line_exits_cleanly_naming_the_file(valid_tree, tmp_path, capsys, case):
    _check_manifest_line(valid_tree, tmp_path, capsys, "eval", case)


@pytest.mark.parametrize("case", MANIFEST_LINES)
def test_manifest_line_to_train_exits_cleanly_naming_the_file(valid_tree, tmp_path, capsys,
                                                              case):
    _check_manifest_line(valid_tree, tmp_path, capsys, "train", case)


def _check_manifest_line(valid_tree, tmp_path, capsys, entry, case):
    old, new, want = MANIFEST_LINES[case]

    def edit(text):
        assert old in text
        return text.replace(old, new, 1)

    code, target = _run_edited(valid_tree, tmp_path, entry, "manifest", edit)
    _assert_clean_exit(code, capsys.readouterr().err, want, target)


# a hand-written config line in place of a valid one: (replaced line, new
# line, the key the exit-2 error names)
CONFIG_LINES = {
    "underscore_int": ("\nm = 8\n", "\nm = 0_8\n", "model.m"),
    "arabic_indic_int": ("\nm = 8\n", "\nm = \u0668\n", "model.m"),
    "underscore_float": ("\nlr = 0.003\n", "\nlr = 0.00_3\n", "train.lr"),
}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("case", CONFIG_LINES)
def test_config_line_exits_2_naming_the_key(valid_tree, tmp_path, capsys, case, entry):
    old, new, key = CONFIG_LINES[case]

    def edit(text):
        assert old in text
        return text.replace(old, new, 1)

    code, _ = _run_edited(valid_tree, tmp_path, entry, "config", edit)
    err = capsys.readouterr().err
    assert code == 2, err[:500]
    assert f"{key}: cannot parse" in err
    assert "Traceback" not in err


def test_size_too_large_to_allocate_to_train_exits_2_naming_the_key(valid_tree, tmp_path,
                                                                    capsys):
    def edit(text):
        assert "\nhidden_dim = 32\n" in text
        return text.replace("\nhidden_dim = 32\n", "\nhidden_dim = 100000000000\n", 1)

    code, _ = _run_edited(valid_tree, tmp_path, "train", "config", edit)
    err = capsys.readouterr().err
    assert code == 2, err[:500]
    assert "error: model.hidden_dim holds 100000000000" in err
    assert "Traceback" not in err
