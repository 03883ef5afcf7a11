#!/usr/bin/env bash
# One command for a re-bless: rewrites the records of simulated behaviour in
# SCENARIOS.md's order ("Every artefact a behaviour change moves"), each step
# on the code the previous one accepted, then checks what it cannot rewrite.
#
#   1. the figure, report, datapath-metrics and daemon flow-listing goldens
#      (go test -update);
#   2. SUITE_baselines.json, full and smoke mode (acdcsuite -bless);
#   3. BENCH_exact.json (scripts/bench_exact.sh -update);
#   4. the five Test*PinsParentCommit pins and the two snapshot pins: their
#      values are constants in the tests, so this step only runs them and
#      prints each failure, whose message carries the new values to copy in;
#
# then tier-1 (go build ./... && go test ./...), both acdcsuite modes without
# -bless, and `git diff --stat` of what moved. On an unchanged tree it
# rewrites nothing. Exits 1 if a pin, tier-1 or a suite check failed.
#
#   scripts/rebless.sh
set -uo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root" || exit 2
failed=()

# step NAME CMD...: run one step, remember it if it fails.
step() {
	local name="$1"
	shift
	echo "rebless: $name" >&2
	"$@" || failed+=("$name")
}

step "1. figure, report, datapath-metrics and flow-listing goldens" \
	go test -count=1 -run 'TestDumbbellFiguresGolden|TestReportGolden|TestDatapathSnapshotGolden|TestFlowsGolden' \
	./internal/experiments/ ./internal/core/ ./internal/daemon/ -update
step "2. SUITE_baselines.json, full mode" go run ./cmd/acdcsuite -parallel 0 -quiet -bless
step "2. SUITE_baselines.json, smoke mode" go run ./cmd/acdcsuite -smoke -parallel 0 -quiet -bless
step "3. BENCH_exact.json" bash scripts/bench_exact.sh -update

if ! out="$(go test -count=1 -run 'Pins?ParentCommit' \
	./internal/tcpstack/ ./internal/topo/ ./internal/core/ ./internal/workload/ 2>&1)"; then
	echo "rebless: 4. pins to copy by hand — each failure prints the new values:" >&2
	grep -vE '^(ok|PASS|FAIL$)' <<<"$out" >&2
	failed+=("4. pins")
fi

step "tier-1" bash -c 'go build ./... && go test ./...'
step "acdcsuite, full mode" go run ./cmd/acdcsuite -parallel 0 -quiet
step "acdcsuite, smoke mode" go run ./cmd/acdcsuite -smoke -parallel 0 -quiet

echo "rebless: what moved:" >&2
git diff --stat
if [ ${#failed[@]} -gt 0 ]; then
	printf 'rebless: failed: %s\n' "${failed[@]}" >&2
	exit 1
fi
echo "rebless: every step clean" >&2
