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
#   - `pointseq gradcheck --seed N` for N in 0..7;
#   - `pointseq synth` for both desk configs (every written file).
#
# It prints one "sha256  artifact" line per file, artifacts named relative to
# OUTDIR. Captured stdout ends with the command's exit status. Lines that
# hold OUTDIR (the echoed run.out, the "wrote ..." lines) are dropped before
# hashing, so runs into different directories compare equal. Two trees keep
# their bits when the printed lines are identical.
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

# run NAME ARGS...: `pointseq ARGS`, its stdout and exit status kept as NAME.txt
run() {
    name=$1
    shift
    status=0
    PYTHONPATH="$tree/src" python3 -m pointseq "$@" > "$out/$name.txt" || status=$?
    echo "exit $status" >> "$out/$name.txt"
    strip "$out/$name.txt"
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

for seed in 0 1 2 3 4 5 6 7; do
    run "gradcheck_seed$seed" gradcheck --seed "$seed"
done

run synth_cls synth --config "$cls" --out "$out/synth_cls"
run synth_seg synth --config "$seg" --out "$out/synth_seg"

cd "$out"
find . -type f | LC_ALL=C sort | sed 's|^\./||' | xargs sha256sum
