#!/usr/bin/env bash
# Exact gate over the benchmark's deterministic outputs. Runs every bench/
# workload at --seed 1 --seconds 1 --trace 0 and compares what two runs of the
# same behaviour must agree on to the last digit — the digest, the simulated
# results and the operation counts — with the checked-in BENCH_exact.json.
# Timings and memory are not compared here; BENCHMARK.json bounds those.
#
#   scripts/bench_exact.sh            compare, exit 1 on any difference
#   scripts/bench_exact.sh -update    rewrite BENCH_exact.json (a re-bless)
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
want="$root/BENCH_exact.json"
workloads=(incast47 fabric-stride mice-churn vswitch-10k)

# field NAME: the number after "NAME": or "NAME":{"value": in the result line.
field() { sed -E "s/.*\"$1\":(\\{\"value\":)?([-+.eE0-9]+).*/\\2/" <<<"$line"; }

got="{"
for i in "${!workloads[@]}"; do
	w="${workloads[$i]}"
	out="$(bash "$root/bench/run.sh" --workload "$w" --seed 1 --seconds 1 --trace 0)"
	line="$(tail -n 1 <<<"$out")"
	digest="$(sed -nE 's/.*\[timed pass\] digest ([0-9a-f]+).*/\1/p' <<<"$out")"
	[ -n "$digest" ] || { echo "bench_exact: no digest in the output of $w" >&2; exit 1; }
	[ "$i" -gt 0 ] && got+=","
	got+=$'\n'"  \"$w\": {\"digest\": \"$digest\""
	for m in sim_goodput_gbps sim_fairness sim_tail_us attempted failed; do
		got+=", \"$m\": $(field "$m")"
	done
	got+="}"
done
got+=$'\n'"}"

if [ "${1:-}" = "-update" ]; then
	printf '%s\n' "$got" >"$want"
	echo "bench_exact: wrote $want"
	exit 0
fi
if ! diff -u "$want" <(printf '%s\n' "$got"); then
	echo "bench_exact: deterministic outputs differ from BENCH_exact.json (behaviour moved; re-bless with -update only in a PR that says so)" >&2
	exit 1
fi
echo "bench_exact: ${#workloads[@]} workloads match BENCH_exact.json"
