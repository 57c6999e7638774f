#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload, then `compare`.
#
#   scripts/bench-pairs.sh [--record <pr>] <parent-rev> <workload> [pairs]
#
# Steps 2-3 of docs/BENCHMARKING.md "Reproducing a before/after claim":
# exports <parent-rev> with `git archive`, builds the benchmark of both
# sides (each into its own target directory, `--locked`), runs `pairs`
# (default 10, at least 10 for a claim) alternating pairs on seeds 1..pairs
# (the parent goes first on odd seeds, the change on even ones) and ends
# with `compare parent change`, whose exit status it returns. After the
# verdicts it prints each ungated diagnostic of the runs: both sides'
# medians and the pairs in which the change reads lower.
#
# The change side is the working tree this script sits in. Everything goes
# under $BENCH_DIR (default: ${TMPDIR:-/tmp}/saber-bench-pairs): the
# exported parent and both target directories are reused by later calls,
# the runs land in $BENCH_DIR/<workload>/{parent,change}, which a call
# empties first. Run nothing else meanwhile: a build beside a run skews it.
#
# With `--record <pr>` it also writes `compare`'s rows into the root
# BENCH_trajectory.json (schema: docs/BENCHMARKING.md) with `jq`: the
# workload's entry (per gated metric, both sides' median / q1 / q3, the
# verdict and `pairs_ahead`, plus its failed operations) goes into the
# record of PR <pr>,
# which is appended, with the parent, the date, the seeds and pairs and
# the machine, when the newest record is another PR's. Recording a
# workload again replaces its entry. A newest record without a `commit`
# gets the parent's when a new record is appended after it: the parent is
# the commit it measured.
set -euo pipefail

record=
if [ "${1:-}" = --record ]; then
    record=${2:?--record needs a PR number}
    shift 2
fi
if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 [--record <pr>] <parent-rev> <workload> [pairs]" >&2
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
"$change_bin" compare "$out/parent" "$out/change" >"$out/compare.txt" || status=$?
cat "$out/compare.txt"
# The ungated diagnostics (e.g. a pipeline's `tick_p50_s` and
# `publish_epoch_p50_s`), which show the layer a saving came from: each
# side's median over its runs and the pairs in which the change reads lower.
jq -r -n --argjson pairs "$pairs" \
    --slurpfile parent <(cat "$out"/parent/run_*.json) \
    --slurpfile change <(cat "$out"/change/run_*.json) '
    def by_seed: map({key: (.seed | tostring),
        value: (.diagnostics | map({key: .name, value: .value}) | from_entries)}) | from_entries;
    def median: sort | length as $n | if $n == 0 then null
        else (.[($n - 1) / 2 | floor] + .[$n / 2 | floor]) / 2 end;
    ($parent | by_seed) as $p | ($change | by_seed) as $c
    | ([$parent[].diagnostics[] | {key: .name, value: .unit}] | from_entries) as $unit
    | [$p[] | keys[]] | unique[] as $d
    | ([$p[][$d] | numbers] | median) as $pm | ([$c[][$d] | numbers] | median) as $cm
    | ([$p | keys[] | select(($c[.][$d] | type) == "number" and ($p[.][$d] | type) == "number")
        | select($c[.][$d] < $p[.][$d])] | length) as $lower
    | "diagnostic \($d): parent median \($pm) \($unit[$d]), change median \($cm) \($unit[$d]), change lower in \($lower) of \($pairs) pairs"'
[ -z "$record" ] && exit "${status:-0}"

# A row reads `<workload> <metric> <verdict> A n=N median [q1, q3]  B n=N
# median [q1, q3] <unit> ...`; the bracket-free fields 6-8 and 11-13 are
# the two sides.
metrics=$(awk -v w="$workload" '$1 == w && $4 == "A" && $9 == "B" {
    gsub(/[][,]/, ""); print $2, $3, $6, $7, $8, $11, $12, $13 }' "$out/compare.txt" |
    jq -R -s 'def side(m; a; b): {median: (m | tonumber), q1: (a | tonumber), q3: (b | tonumber)};
        [split("\n")[] | select(length > 0) | split(" ")
         | {key: .[0], value: {parent: side(.[2]; .[3]; .[4]),
                               change: side(.[5]; .[6]; .[7]), verdict: .[1]}}]
        | from_entries')
# Per gated metric, the seeds on which the change's run beats the parent's
# in BENCHMARK.json's `better` direction (a tie counts for neither side):
# the count the claim rule asks for, which `compare`'s verdict does not give.
metrics=$(jq -n --argjson metrics "$metrics" --slurpfile spec "$repo/BENCHMARK.json" \
    --slurpfile parent <(cat "$out"/parent/run_*.json) \
    --slurpfile change <(cat "$out"/change/run_*.json) '
    def by_seed: map({key: (.seed | tostring),
        value: (.metrics | map({key: .name, value: .value}) | from_entries)}) | from_entries;
    ($parent | by_seed) as $p | ($change | by_seed) as $c
    | ($spec[0].end_to_end | map({key: .name, value: .better}) | from_entries) as $better
    | $metrics | with_entries(.key as $m | .value.pairs_ahead =
        ([$p | keys[] | select($c[.] != null) | [$p[.][$m], $c[.][$m]]
          | select(if $better[$m] == "higher" then .[1] > .[0] else .[1] < .[0] end)]
         | length))')
jq -r --argjson pairs "$pairs" \
    'to_entries[] | "\(.key): change ahead in \(.value.pairs_ahead) of \($pairs) pairs"' <<<"$metrics"
failed() { jq -s '[.[].phases[].failed] | add // 0' "$out/$1"/run_*.json; }
trajectory=$repo/BENCH_trajectory.json
open=$(jq --argjson pr "$record" '.records[-1].pr == $pr' "$trajectory")
# The record, written in the file's own layout: one line per gated metric.
record_text=$(jq -r --argjson pr "$record" --argjson open "$open" --arg parent "$short" \
    --arg date "$(date -u +%F)" --argjson nproc "$(nproc)" \
    --arg cpu "$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -1)" \
    --argjson pairs "$pairs" --argjson seeds "$(seq 1 "$pairs" | jq -s -c .)" \
    --arg workload "$workload" --argjson metrics "$metrics" \
    --argjson failed "{\"parent\": $(failed parent), \"change\": $(failed change)}" '
    def c: tojson | gsub("\":"; "\": ") | gsub(",(?=[\"\\[{0-9-])"; ", ");
    def lines(ind; f): "{\n" + ([to_entries[] | ind + "  " + (.key | tojson) + ": " + f]
        | join(",\n")) + "\n" + ind + "}";
    def layout: "    " + lines("    "; if .key == "workloads"
        then .value | lines("      "; .value | lines("        "; if .key == "metrics"
            then .value | lines("          "; .value | c) else .value | c end))
        else .value | c end);
    (if $open then .records[-1] else
        {pr: $pr, parent: $parent, date: $date,
         machine: {nproc: $nproc, cpu_model: $cpu}, pairs: $pairs, seeds: $seeds,
         source: "benchmark compare", workloads: {}} end) as $base
    | ({metrics: $metrics, failed_operations: $failed}
       + (if $base.pairs == $pairs then {} else {pairs: $pairs, seeds: $seeds} end)) as $entry
    | $base | .workloads[$workload] = $entry
    | .failed_operations = (reduce (.workloads[] | .failed_operations // empty) as $f
        ({parent: 0, change: 0}; .parent += $f.parent | .change += $f.change))
    | layout' "$trajectory")
# Splice it in as text, so every other record keeps its bytes: replace the
# newest record (`    {` up to the `  ]` closing the list), or append
# after it, first giving it the parent as its commit if it has none.
first=$(grep -n '^    {$' "$trajectory" | tail -1 | cut -d: -f1)
close=$(grep -n '^  \]$' "$trajectory" | tail -1 | cut -d: -f1)
needs_commit=$(jq '.records[-1] | has("commit") | not' "$trajectory")
{
    if [ "$open" = true ]; then
        head -n $((first - 1)) "$trajectory"
    else
        head -n $((close - 2)) "$trajectory" | awk -v from="$first" -v add="$needs_commit" \
            -v commit="$short" '{ print }
            NR >= from && add == "true" && /^      "pr": / { print "      \"commit\": \"" commit "\","; add = "" }'
        echo "    },"
    fi
    printf '%s\n' "$record_text"
    tail -n +"$close" "$trajectory"
} >"$trajectory.partial"
jq -e '.records[-1].pr' "$trajectory.partial" >/dev/null
mv "$trajectory.partial" "$trajectory"
echo "recorded $workload in PR $record's record of $trajectory" >&2
exit "${status:-0}"
