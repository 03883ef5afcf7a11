#!/usr/bin/env bash
# A/B comparison of this checkout against a base commit on one bench/
# workload. The base's committed files are unpacked under
# .bench_build/ab/base (git archive, so no worktree is registered), each side
# runs `bash bench/run.sh` in its own tree, and the pairs alternate which side
# runs first. scripts/benchab then prints, for every end-to-end metric of
# BENCHMARK.json, each side's median and quartiles, the ratio of the medians,
# the pairs the change wins and a verdict against the metric's bound.
#
#   scripts/bench_ab.sh [-base REV] [-pairs N] [-workload W] [-seed S]
#                       [-claim METRIC]
#
# Every run lasts BENCHMARK.json's run_seconds. -base defaults to HEAD~1 (the
# parent of a committed change; pass HEAD to measure uncommitted work). -claim
# names a metric the change claims to improve: it must win at least 9 of 10
# pairs and move its median by more than the base's quartile spread. Exits 1
# when a metric is worse than its bound ("worse"), either side's quartile
# spread on a metric exceeds its bound ("spread", too noisy to tell; noisy
# vswitch-10k runs reach it with no claim at all), a claimed gain does not
# show ("no gain"), a run is marked incorrect, or the change fails a larger
# share of operations; exits 2 on bad usage or a result line that lacks a
# metric. Each run is kept as one line of .bench_build/ab/{base,change}.jsonl,
# {"slowdown": S, "raw": R, "result": <the run's result line>}, S being the
# run's "machine S× slower than the reference" (null if it printed none), as
# scripts/bench_history.sh records it, and R its packet rate before
# normalisation, "raw (not normalised) R 1/s" (null if it printed none).
# benchab prints each side's slowdowns and raw rates, so a machine that
# switched speed between runs can be told from a change.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
base=HEAD~1 pairs=10 workload=mice-churn seed=1 claim=
while [ $# -gt 0 ]; do
	case "$1" in
	-base) base="$2" ;;
	-pairs) pairs="$2" ;;
	-workload) workload="$2" ;;
	-seed) seed="$2" ;;
	-claim) claim="$2" ;;
	*) echo "usage: $0 [-base REV] [-pairs N] [-workload W] [-seed S] [-claim METRIC]" >&2; exit 2 ;;
	esac
	shift 2
done

out="$root/.bench_build/ab"
seconds="$(sed -n 's/^ *"run_seconds": *\([0-9.]*\).*/\1/p' "$root/BENCHMARK.json")"
[ -n "$seconds" ] || { echo "$0: no run_seconds in BENCHMARK.json" >&2; exit 2; }
rev="$(git -C "$root" rev-parse --verify "$base^{commit}")"
rm -rf "$out/base"
mkdir -p "$out/base"
git -C "$root" archive "$rev" | tar -x -C "$out/base"
: >"$out/base.jsonl"
: >"$out/change.jsonl"

run() { # run SIDE TREE: one timed window, its slowdown, raw rate and result line appended to SIDE.jsonl
	local o result slowdown raw
	o="$(bash "$2/bench/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0)"
	result="$(tail -n 1 <<<"$o")"
	slowdown="$(sed -nE 's/.*information only:.* machine ([0-9.]+)× slower.*/\1/p' <<<"$o")"
	raw="$(sed -nE 's/.*raw \(not normalised\) ([0-9.e+]+) 1\/s.*/\1/p' <<<"$o" | tail -n 1)"
	printf '{"slowdown":%s,"raw":%s,"result":%s}\n' "${slowdown:-null}" "${raw:-null}" "$result" >>"$out/$1.jsonl"
}
echo "bench_ab: $workload seed $seed, ${seconds}s windows, $pairs pairs, base ${rev:0:12}" >&2
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run base "$out/base"
		run change "$root"
	else
		run change "$root"
		run base "$out/base"
	fi
	echo "bench_ab: pair $i/$pairs done" >&2
done

mkdir -p "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go run -C "$root" ./scripts/benchab -claim "$claim" \
	"$out/base.jsonl" "$out/change.jsonl"
