#!/usr/bin/env bash
# covprod.sh — the functions of internal/ that no program runs.
#
# Builds every main package with coverage of the whole module
# (go build -cover -coverpkg=./...), runs the drivers' sweep below with
# GOCOVERDIR set, and lists each function of internal/ whose coverage stays
# 0.0 % as "<file> <function>" (no line numbers, so the list survives edits
# above a function). testdata/zero_run.txt holds that list; the script fails
# when a function joins it, and reports the ones that left it (they ran, or
# are gone) so the list can shrink.
#
# The sweep:
#   acdcsim -report -metrics -all -parallel 0, and its -list, -faults list,
#     -restart list and -fabric list queries;
#   acdcsuite -quiet, -quiet -smoke, -scenario list and
#     -soak -soak-duration 10s;
#   acdctrace, with and without -noacdc;
#   every program under examples/.
# About 3.5 minutes on 2 cores, most of it the figure report.
#
# Usage: bash scripts/covprod.sh [-update]
#   -update  rewrite testdata/zero_run.txt from this run instead of checking.
set -euo pipefail

update=0
case "${1:-}" in
"") ;;
-update) update=1 ;;
*)
	echo "usage: $0 [-update]" >&2
	exit 2
	;;
esac

cd "$(dirname "$0")/.."
list=testdata/zero_run.txt
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/bin" "$work/cov"

mod=$(go list -m)
for pkg in $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do
	go build -cover -coverpkg=./... -o "$work/bin/$(basename "$pkg")" "$pkg"
done

export GOCOVERDIR=$work/cov
run() {
	echo "covprod: $*" >&2
	"$work/bin/$1" "${@:2}" >/dev/null
}
run acdcsim -report -metrics -all -parallel 0
run acdcsim -list
run acdcsim -faults list
run acdcsim -restart list
run acdcsim -fabric list
run acdcsuite -quiet
run acdcsuite -quiet -smoke
run acdcsuite -scenario list
run acdcsuite -soak -soak-duration 10s
run acdctrace
run acdctrace -noacdc
for ex in examples/*/; do
	run "$(basename "$ex")"
done

go tool covdata textfmt -i="$GOCOVERDIR" -o "$work/cov.txt"
go tool cover -func="$work/cov.txt" |
	awk -v pre="$mod/" '$NF == "0.0%" && index($1, pre "internal/") == 1 {
		file = substr($1, length(pre) + 1); sub(/:[0-9]+:$/, "", file); print file, $2
	}' | LC_ALL=C sort >"$work/zero.txt"

if [ "$update" = 1 ]; then
	cp "$work/zero.txt" "$list"
	echo "covprod: wrote $(wc -l <"$list") functions to $list"
	exit 0
fi
LC_ALL=C comm -13 "$list" "$work/zero.txt" >"$work/joined.txt"
LC_ALL=C comm -23 "$list" "$work/zero.txt" >"$work/left.txt"
echo "covprod: $(wc -l <"$work/zero.txt") functions of internal/ never ran ($(wc -l <"$list") listed); by package:"
cut -d/ -f2 "$work/zero.txt" | uniq -c | sort -rn | awk '{ printf "  %-12s %d\n", $2, $1 }'
if [ -s "$work/left.txt" ]; then
	echo "covprod: ran or gone, drop from $list (or run with -update):"
	sed 's/^/  /' "$work/left.txt"
fi
if [ -s "$work/joined.txt" ]; then
	echo "covprod: FAIL: no program runs these any more:"
	sed 's/^/  /' "$work/joined.txt"
	exit 1
fi
