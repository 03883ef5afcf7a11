#!/usr/bin/env bash
# Appends one row per bench/ workload to BENCH_history.jsonl, the kept
# trajectory of the benchmark. Each workload runs once through
# `bash bench/run.sh --workload W --seed 1 --seconds <run_seconds> --trace 0`
# (run_seconds from BENCHMARK.json), and its row is one JSON line:
#
#   {"commit": "<HEAD>", "dirty": <tree differs from HEAD>,
#    "tree": "<the tree measured>", "date": "<UTC>",
#    "nproc": N, "workload": "W", "seed": 1, "seconds": S,
#    "slowdown": <the run's "machine N× slower than the reference">,
#    "result": <the run's result line>}
#
#   scripts/bench_history.sh
#
# "tree" names what was measured: HEAD's tree for a clean checkout, and for a
# dirty one the tree `git write-tree` gives for the working tree staged in a
# scratch index, BENCH_history.jsonl left at HEAD's version and ignored files
# left out. The file is only ever appended to. Exits non-zero, appending nothing more,
# when a run fails or prints no result line.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
history="$root/BENCH_history.jsonl"
workloads=(incast47 fabric-stride mice-churn vswitch-10k)
seed=1

seconds="$(sed -n 's/^ *"run_seconds": *\([0-9.]*\).*/\1/p' "$root/BENCHMARK.json")"
[ -n "$seconds" ] || { echo "$0: no run_seconds in BENCHMARK.json" >&2; exit 2; }
commit="$(git -C "$root" rev-parse HEAD)"
dirty=false
[ -z "$(git -C "$root" status --porcelain -- . ':!BENCH_history.jsonl')" ] || dirty=true
if $dirty; then
	scratch="$(mktemp -d)"
	trap 'rm -rf "$scratch"' EXIT
	export GIT_INDEX_FILE="$scratch/index"
	git -C "$root" read-tree HEAD
	git -C "$root" add -A -- . ':!BENCH_history.jsonl'
	tree="$(git -C "$root" write-tree)"
	unset GIT_INDEX_FILE
else
	tree="$(git -C "$root" rev-parse 'HEAD^{tree}')"
fi
cpus="$(nproc)"

for w in "${workloads[@]}"; do
	out="$(bash "$root/bench/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0)"
	result="$(tail -n 1 <<<"$out")"
	[[ "$result" == "{"*"}" ]] || { echo "$0: no result line from $w" >&2; exit 1; }
	slowdown="$(sed -nE 's/.*information only:.* machine ([0-9.]+)× slower.*/\1/p' <<<"$out")"
	[ -n "$slowdown" ] || { echo "$0: no slowdown in the output of $w" >&2; exit 1; }
	printf '{"commit":"%s","dirty":%s,"tree":"%s","date":"%s","nproc":%s,"workload":"%s","seed":%s,"seconds":%s,"slowdown":%s,"result":%s}\n' \
		"$commit" "$dirty" "$tree" "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$cpus" "$w" "$seed" "$seconds" "$slowdown" "$result" >>"$history"
	echo "bench_history: $w appended" >&2
done
