#!/usr/bin/env bash
# A/B benchmark: this checkout's working tree against a parent revision
# on one workload. Usage (or `make bench-ab PARENT=<rev> W=<workload> N=<n>`):
#
#   bash scripts/bench-ab.sh <parent-rev> <workload> [N]
#
# It checks the parent out with `git worktree add --detach` under
# .bench_build/, runs `bash bench/run.sh --workload W --seed 1 --seconds 12`
# N times in each checkout, alternating which side goes first in each pair
# (parent change, change parent, …) so drift in the host lands on both,
# and prints, per end-to-end metric of BENCHMARK.json: both medians with
# quartiles, change/parent, how many of the N pairs the change was ahead
# in with the exact two-sided sign-test p-value of that count, and the
# verdict against the metric's bound. Then it runs each side once more,
# traced (`--trace 1`), prints both sides' driver.assign_hash and exits
# non-zero if they differ: a change that moves an assignment fails. The
# result lines are kept in .bench_build/ab-<workload>/. Needs git, jq and
# awk.
#
# The sign test: under "no difference" each pair is a fair coin, so k of
# N ahead has p = min(1, 2·P[X ≥ max(k, N−k)]) with X ~ Binomial(N, ½).
# At N = 10, 9/10 reads 0.021 and 10/10 reads 0.002.
#
# Verdicts, as the acceptance driver reads a pair of run sets:
#   WORSE       the change's median is worse than the parent's by more
#               than the bound;
#   unresolved  either side's spread — interquartile distance over the
#               median — exceeds the bound (not judged for setup_s);
#   gain        ahead in at least nine of ten pairs and better in the
#               median by more than the parent's interquartile distance;
#   ok          otherwise.
set -euo pipefail

parent=${1:?usage: bench-ab.sh <parent-rev> <workload> [N]}
workload=${2:?usage: bench-ab.sh <parent-rev> <workload> [N]}
n=${3:-10}

root=$(git rev-parse --show-toplevel)
cd "$root"
rev=$(git rev-parse --verify "$parent^{commit}")
wt="$root/.bench_build/ab-parent"
out="$root/.bench_build/ab-$workload"
git worktree remove --force "$wt" >/dev/null 2>&1 || true
git worktree prune
git worktree add --quiet --detach "$wt" "$rev"
trap 'git -C "$root" worktree remove --force "$wt" >/dev/null 2>&1 || true' EXIT
rm -rf "$out"
mkdir -p "$out"

bench() { # bench <side> <output file> [flag...]: one run in that side's checkout
	local dir=$root side=$1 dst=$2
	shift 2
	[ "$side" = parent ] && dir=$wt
	(cd "$dir" && bash bench/run.sh --workload "$workload" --seed 1 --seconds 12 "$@") >"$dst"
}
run() { # run <side> <pair>
	echo "bench-ab: $workload pair $2/$n: $1" >&2
	bench "$1" "$out/$1-$2.txt"
	tail -n 1 "$out/$1-$2.txt" | jq -r --arg side "$1" --arg pair "$2" '
		(.metrics | to_entries[] | [$side, $pair, .key, .value.value]),
		[$side, $pair, "attempted", .attempted], [$side, $pair, "failed", .failed]
		| @tsv' >>"$out/values.tsv"
}
for i in $(seq 1 "$n"); do
	if [ $((i % 2)) = 1 ]; then run parent "$i"; run change "$i"; else run change "$i"; run parent "$i"; fi
done

jq -r '.end_to_end[] | [.name, .unit, .better, .bound] | @tsv' BENCHMARK.json >"$out/metrics.tsv"
echo "# bench-ab: $workload, $n alternating pairs, seed 1, 12 s"
echo "parent $rev"
echo "change $(git rev-parse HEAD)$(git diff --quiet HEAD || echo ' + working tree')"
echo
awk -F'\t' -v n="$n" '
	# q(s, k, m): the k-th quartile of sorted s[1..m], exclusive method
	# (as bench/aa.go and Python statistics.quantiles(xs, n=4)).
	function q(s, k, m,   pos, lo) {
		if (m == 1) return s[1]
		pos = k * (m + 1) / 4; lo = int(pos)
		if (lo < 1) return s[1]
		if (lo >= m) return s[m]
		return s[lo] + (pos - lo) * (s[lo + 1] - s[lo])
	}
	# sign(k, n): exact two-sided sign-test p-value of k of n pairs ahead.
	function sign(k, n,   m, i, c, tail) {
		m = k > n - k ? k : n - k
		c = 1; tail = 0
		for (i = 0; i <= n; i++) { if (i >= m) tail += c; c = c * (n - i) / (i + 1) }
		tail /= 2 ^ n
		return 2 * tail < 1 ? 2 * tail : 1
	}
	function sorted(side, name, s,   i, j, m, t) {
		m = 0
		for (i = 1; i <= n; i++) if ((side, i, name) in v) s[++m] = v[side, i, name]
		for (i = 2; i <= m; i++) for (j = i; j > 1 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
		return m
	}
	FILENAME ~ /metrics.tsv$/ { names[++nm] = $1; unit[$1] = $2; better[$1] = $3; bound[$1] = $4; next }
	{ v[$1, $2, $3] = $4 }
	END {
		for (side = 0; side < 2; side++) {
			sd = side ? "change" : "parent"; a = f = 0
			for (i = 1; i <= n; i++) { a += v[sd, i, "attempted"]; f += v[sd, i, "failed"] }
			printf "%s: %d of %d operations failed\n", sd, f, a
		}
		print ""
		print "| metric | unit | parent median [q1, q3] | change median [q1, q3] | change/parent | change ahead | sign p | bound | verdict |"
		print "|---|---|---|---|---|---|---|---|---|"
		for (k = 1; k <= nm; k++) {
			name = names[k]
			delete p; delete c
			mp = sorted("parent", name, p); mc = sorted("change", name, c)
			if (mp == 0 || mc == 0) { printf "| %s | %s | — | — | | | | | missing |\n", name, unit[name]; continue }
			p1 = q(p, 1, mp); p2 = q(p, 2, mp); p3 = q(p, 3, mp)
			c1 = q(c, 1, mc); c2 = q(c, 2, mc); c3 = q(c, 3, mc)
			up = better[name] == "higher"
			ahead = 0
			for (i = 1; i <= n; i++)
				if ((("parent", i, name) in v) && (("change", i, name) in v) && \
				    (up ? v["change", i, name] > v["parent", i, name] : v["change", i, name] < v["parent", i, name])) ahead++
			worse = p2 == 0 ? 0 : (up ? (p2 - c2) / p2 : (c2 - p2) / p2)
			gainBy = up ? c2 - p2 : p2 - c2
			verdict = "ok"
			if (worse > bound[name]) verdict = "WORSE"
			else if (name != "setup_s" && ((p3 - p1) / p2 > bound[name] || (c3 - c1) / c2 > bound[name])) verdict = "unresolved"
			else if (ahead >= 0.9 * n && gainBy > p3 - p1) verdict = "gain"
			printf "| %s | %s | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %.3f | %d/%d | %.3g | %.0f%% | %s |\n", \
				name, unit[name], p2, p1, p3, c2, c1, c3, p2 == 0 ? 0 : c2 / p2, ahead, n, sign(ahead, n), 100 * bound[name], verdict
		}
	}' "$out/metrics.tsv" "$out/values.tsv" | tee "$out/summary.md"

# One traced run per side: the assignments must be the same.
declare -A hash
for side in parent change; do
	echo "bench-ab: $workload traced: $side" >&2
	bench "$side" "$out/$side-traced.txt" --trace 1
	hash[$side]=$(tail -n 1 "$out/$side-traced.txt" | jq -r '.metrics["driver.assign_hash"].value // "missing"')
done
echo
echo "driver.assign_hash: parent ${hash[parent]}, change ${hash[change]}" | tee -a "$out/summary.md"
if [ "${hash[parent]}" = missing ] || [ "${hash[parent]}" != "${hash[change]}" ]; then
	echo "bench-ab: the change moved the assignments" | tee -a "$out/summary.md" >&2
	exit 1
fi
