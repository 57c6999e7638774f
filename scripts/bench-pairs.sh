#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload, then `compare`.
#
#   scripts/bench-pairs.sh <parent-rev> <workload> [pairs]
#
# Steps 2-3 of docs/BENCHMARKING.md "Reproducing a before/after claim":
# exports <parent-rev> with `git archive`, builds the benchmark of both
# sides (each into its own target directory, `--locked`), runs `pairs`
# (default 10, at least 10 for a claim) alternating pairs on seeds 1..pairs
# (the parent goes first on odd seeds, the change on even ones) and ends
# with `compare parent change`, whose exit status it returns.
#
# The change side is the working tree this script sits in. Everything goes
# under $BENCH_DIR (default: ${TMPDIR:-/tmp}/saber-bench-pairs): the
# exported parent and both target directories are reused by later calls,
# the runs land in $BENCH_DIR/<workload>/{parent,change}, which a call
# empties first. Run nothing else meanwhile: a build beside a run skews it.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 <parent-rev> <workload> [pairs]" >&2
    exit 1
fi
rev=$1 workload=$2 pairs=${3:-10}
repo=$(cd "$(dirname "$0")/.." && pwd)
dir=${BENCH_DIR:-${TMPDIR:-/tmp}/saber-bench-pairs}
short=$(git -C "$repo" rev-parse --short=7 "$rev^{commit}")
parent_src=$dir/parent-$short

if [ ! -d "$parent_src" ]; then
    mkdir -p "$parent_src.partial"
    git -C "$repo" archive "$short" | tar -x -C "$parent_src.partial"
    mv "$parent_src.partial" "$parent_src"
fi
CARGO_TARGET_DIR=$dir/parent-target cargo build -q --release --locked \
    --manifest-path "$parent_src/benchmark/Cargo.toml"
CARGO_TARGET_DIR=$dir/change-target cargo build -q --release --locked \
    --manifest-path "$repo/benchmark/Cargo.toml"
parent_bin=$dir/parent-target/release/benchmark
change_bin=$dir/change-target/release/benchmark

out=$dir/$workload
rm -rf "$out"
mkdir -p "$out/parent" "$out/change"
for seed in $(seq 1 "$pairs"); do
    if [ $((seed % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        bin=$parent_bin
        [ "$side" = change ] && bin=$change_bin
        echo "== pair $seed/$pairs: $side" >&2
        "$bin" run --workload "$workload" --seed "$seed" --out "$out/$side" \
            >"$out/$side/seed$seed.log"
    done
done
"$change_bin" compare "$out/parent" "$out/change"
