#!/bin/sh
# Hash the outputs of a fixed set of pointseq runs, to tell whether two
# source trees compute the same bits:
#
#   tools/same_bits.sh TREE OUTDIR
#
# runs the package in TREE/src on the configs in TREE/configs and leaves
# every output under OUTDIR:
#
#   - both desk trainings (metrics.log, checkpoint.bin, effective_config.ini
#     and stdout) and a `pointseq eval` of each;
#   - a one-scale desk classification run (model.scales=8, 10 epochs);
#   - a one-epoch train and an eval of each task at the default (reference)
#     widths over 1024-point clouds at model.m=64, batches of 2, whose area
#     stack runs in 16 row tiles;
#   - `pointseq gradcheck --seed N` for N in 0..7;
#   - `pointseq synth` for both desk configs (every written file).
#
# It prints one "sha256  artifact" line per file, artifacts named relative to
# OUTDIR. Captured stdout ends with the command's exit status. Lines that
# hold OUTDIR (the echoed run.out, the "wrote ..." lines) are dropped before
# hashing, so runs into different directories compare equal. Two trees keep
# their bits when the printed lines are identical.
#
# So that a change to the config keys shows which parts kept their bits, two
# kinds of output are hashed in two parts: each command's echoed config
# (NAME.config.txt) apart from the rest of its stdout (NAME.txt), and each
# checkpoint.bin's header (checkpoint.bin.header: magic, version, header
# length and header JSON) apart from its records (checkpoint.bin.records:
# the record count and every record; see docs/FORMATS.md).
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 TREE OUTDIR" >&2
    exit 2
fi
tree=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
cls=$tree/configs/desk_classification.ini
seg=$tree/configs/desk_segmentation.ini

# drop the lines of FILE that hold OUTDIR
strip() {
    grep -vF "$out" "$1" > "$1.tmp" || true
    mv "$1.tmp" "$1"
}

# run NAME ARGS...: `pointseq ARGS`, its echoed config kept as NAME.config.txt
# (empty if it echoed none) and the rest of its stdout and its exit status as
# NAME.txt; the echoed config ends at the blank line after its [ablate] section
run() {
    name=$1
    shift
    status=0
    PYTHONPATH="$tree/src" python3 -m pointseq "$@" > "$out/$name.all" || status=$?
    echo "exit $status" >> "$out/$name.all"
    strip "$out/$name.all"
    : > "$out/$name.config.txt"
    awk -v cfg="$out/$name.config.txt" -v rest="$out/$name.txt" '
        NR == 1 && $0 == "[model]" { echo = 1 }
        echo {
            print > cfg
            if ($0 == "[ablate]") last = 1
            else if (last && $0 == "") echo = 0
            next
        }
        { print > rest }' "$out/$name.all"
    rm "$out/$name.all"
}

# split_checkpoint FILE: FILE.header holds its first 16 + H bytes, H the
# little-endian u32 at byte 12, and FILE.records the rest; FILE goes
split_checkpoint() {
    set -- "$1" $(od -An -tu1 -j12 -N4 "$1")
    start=$((16 + $2 + 256 * $3 + 65536 * $4 + 16777216 * $5))
    dd if="$1" of="$1.header" bs="$start" count=1 2> /dev/null
    dd if="$1" of="$1.records" bs="$start" skip=1 2> /dev/null
    rm "$1"
}

run train_cls train --config "$cls" --out "$out/cls"
run eval_cls eval --config "$cls" --out "$out/cls"
run train_seg train --config "$seg" --out "$out/seg"
run eval_seg eval --config "$seg" --out "$out/seg"
strip "$out/cls/effective_config.ini"
strip "$out/seg/effective_config.ini"

run train_cls_one_scale train --config "$cls" --out "$out/cls_one_scale" \
    --set model.scales=8 --set train.epochs=10
strip "$out/cls_one_scale/effective_config.ini"

ref="--set model.m=64 --set data.points=1024 --set train.batch_size=2 --set train.epochs=1"
ref="$ref --set data.test_count=1"
ref_cls="$ref --set data.train_count=1 --set model.num_classes=3"
ref_seg="$ref --set model.task=segmentation --set data.train_count=2 --set model.num_parts=2"
run train_ref_cls train $ref_cls --out "$out/ref_cls"
run eval_ref_cls eval $ref_cls --out "$out/ref_cls"
run train_ref_seg train $ref_seg --out "$out/ref_seg"
run eval_ref_seg eval $ref_seg --out "$out/ref_seg"
strip "$out/ref_cls/effective_config.ini"
strip "$out/ref_seg/effective_config.ini"

for seed in 0 1 2 3 4 5 6 7; do
    run "gradcheck_seed$seed" gradcheck --seed "$seed"
done

run synth_cls synth --config "$cls" --out "$out/synth_cls"
run synth_seg synth --config "$seg" --out "$out/synth_seg"

for ckpt in "$out"/*/checkpoint.bin; do
    if [ -f "$ckpt" ]; then
        split_checkpoint "$ckpt"
    fi
done

cd "$out"
find . -type f | LC_ALL=C sort | sed 's|^\./||' | xargs sha256sum
