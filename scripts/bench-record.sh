#!/usr/bin/env bash
# Records one point of the benchmark's trajectory as a JSON file. Usage
# (or `make bench-record BENCH_OUT=<file>`):
#
#   bash scripts/bench-record.sh <out.json>
#
# It runs `bash bench/run.sh --workload all --seed 1 --seconds 12` twice
# in this checkout, untraced (the end-to-end metrics) and traced (the
# per-layer metrics, `--trace 1`), and writes:
#
#   commit, seed, seconds   what was measured;
#   host                    CPU model, core count, memory, kernel, Go
#                           version, and each run's own host line;
#   workloads.<w>           each run's result line (correct, attempted,
#                           failed, metrics), untraced and traced;
#   assign_hash.<w>         the traced run's driver.assign_hash;
#   tier1                   tier-1's wall clock: `go build ./... && go test
#                           -count=1 -json ./...` end to end (wall_s) and
#                           each package's test binary (packages.<pkg>,
#                           the Elapsed of its pass event, in seconds);
#   loc                     `make loc`'s rows;
#   ab.<w>                  the pairs scripts/bench-ab.sh left in
#                           .bench_build/ab-<w>/values.tsv, as
#                           {metric: {parent: [...], change: [...]}}
#                           indexed by pair, and its summary table.
#
# A run whose outputs are not correct, or a failing tier-1 package,
# fails the script. Needs git, jq and awk.
set -euo pipefail

out=${1:?usage: bench-record.sh <out.json>}
root=$(git rev-parse --show-toplevel)
cd "$root"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# results <run output>: one {"<workload>": <result line>} object per
# workload, keyed by the "workload <name> ..." header before it.
results() {
	awk '/^workload / { w = $2 } /^\{/ { printf "{\"%s\": %s}\n", w, $0 }' "$1" | jq -s 'add'
}
hostlines() {
	awk '/^workload / { w = $2 } /^host: / { sub(/^host: /, ""); printf "{\"%s\": \"%s\"}\n", w, $0 }' "$1" | jq -s 'add'
}

for mode in untraced traced; do
	flags=()
	[ "$mode" = traced ] && flags=(--trace 1)
	echo "bench-record: all workloads, $mode" >&2
	bash bench/run.sh --workload all --seed 1 --seconds 12 "${flags[@]}" >"$tmp/$mode.txt"
	results "$tmp/$mode.txt" >"$tmp/$mode.json"
	hostlines "$tmp/$mode.txt" >"$tmp/$mode-host.json"
done

echo "bench-record: tier-1, go test -count=1 -json ./..." >&2
t0=$(date +%s%N)
go build ./...
go test -count=1 -json ./... >"$tmp/tier1.jsonl" || true
t1=$(date +%s%N)
module=$(go list -m)
jq -s --arg mod "$module" --argjson wall "$(((t1 - t0) / 1000000))" '
	map(select(.Test == null and (.Action == "pass" or .Action == "fail")))
	| (map(select(.Action == "fail") | .Package)) as $failed
	| {wall_s: ($wall / 1000), failed: $failed,
	   packages: (map({((.Package | ltrimstr($mod) | ltrimstr("/")) | if . == "" then "." else . end): .Elapsed}) | add)}' \
	"$tmp/tier1.jsonl" >"$tmp/tier1.json"
if [ "$(jq '.failed | length' "$tmp/tier1.json")" != 0 ]; then
	echo "bench-record: tier-1 failed in $(jq -c .failed "$tmp/tier1.json")" >&2
	exit 1
fi

make -s loc | awk '{ printf "{\"%s\": %d}\n", $2, $1 }' | jq -s 'add' >"$tmp/loc.json"

echo '{}' >"$tmp/ab.json"
for tsv in .bench_build/ab-*/values.tsv; do
	[ -e "$tsv" ] || continue
	dir=$(dirname "$tsv")
	w=${dir##*/ab-}
	summary=$(cat "$dir/summary.md" 2>/dev/null || true)
	jq -R -s --arg w "$w" --arg summary "$summary" --slurpfile ab "$tmp/ab.json" '
		split("\n") | map(select(length > 0) | split("\t"))
		| reduce .[] as $r ({}; .[$r[2]][$r[0]][($r[1] | tonumber) - 1] = ($r[3] | tonumber))
		| $ab[0] + {($w): {pairs: (.attempted.parent | length), metrics: ., summary: $summary}}' \
		"$tsv" >"$tmp/ab.next.json"
	mv "$tmp/ab.next.json" "$tmp/ab.json"
done

commit="$(git rev-parse HEAD)$(git diff --quiet HEAD || echo ' + working tree')"
jq -n \
	--arg commit "$commit" \
	--arg cpu "$(awk -F': ' '/^model name/ { print $2; exit }' /proc/cpuinfo)" \
	--argjson nproc "$(nproc)" \
	--argjson mem_kb "$(awk '/^MemTotal:/ { print $2 }' /proc/meminfo)" \
	--arg kernel "$(uname -sr)" \
	--arg go "$(go version)" \
	--slurpfile untraced "$tmp/untraced.json" --slurpfile traced "$tmp/traced.json" \
	--slurpfile uhost "$tmp/untraced-host.json" --slurpfile thost "$tmp/traced-host.json" \
	--slurpfile tier1 "$tmp/tier1.json" --slurpfile loc "$tmp/loc.json" --slurpfile ab "$tmp/ab.json" '
	{
		commit: $commit, seed: 1, seconds: 12,
		host: {cpu: $cpu, nproc: $nproc, mem_kb: $mem_kb, kernel: $kernel, go: $go,
			runs: {untraced: $uhost[0], traced: $thost[0]}},
		workloads: ($untraced[0] | with_entries(.value = {untraced: .value, traced: $traced[0][.key]})),
		assign_hash: ($traced[0] | with_entries(.value = .value.metrics["driver.assign_hash"].value)),
		tier1: ($tier1[0] | del(.failed)),
		loc: $loc[0],
		ab: $ab[0]
	}' >"$out"
echo "bench-record: wrote $out" >&2
