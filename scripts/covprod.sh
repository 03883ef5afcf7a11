#!/usr/bin/env bash
# covprod.sh — the functions of internal/ that no program runs.
#
# Builds every main package with coverage of the whole module
# (go build -cover -coverpkg=./...), runs the drivers' sweep below with
# GOCOVERDIR set, and lists each function of internal/ whose coverage stays
# 0.0 % as "<file> <function>" (no line numbers, so the list survives edits
# above a function). testdata/zero_run.txt holds that list, one
# "<file> <function>\t<reason>" line each, the reason from a short
# vocabulary (numbers are ROADMAP.md items):
#   close path: 11(b)            connection close and TIME_WAIT, which only
#                                bench/ and the tests run until 11(b)'s
#                                scenario does
#   knob: <Field>                runs only at a value of a knobAllow field
#                                (dead_test.go), which only tests set
#   error path                   a rejection, failure or violation report a
#                                clean run never takes
#   test-only export: deadAllow  on deadAllow, or called only from there
#   test-only export: interface  reached only through an interface a program
#                                calls; only tests pass it there
#   tunnel: item 6               the UDP tunnel's feedback timeout
#   vet: noCopy                  go vet's copylocks marker
#   no-op default                an empty method that completes an interface
#   diagnostics                  a String or formatter only logs, errors,
#                                tests or a spec written back as JSON use
#   off sweep: <program>         only bench/ (its own module) or acdcd (a
#                                server) runs it
# The script fails when a function joins the list or an entry has no
# reason, and reports the ones that left it (they ran, or are gone) so the
# list can shrink.
#
# The sweep:
#   acdcsim -report -metrics -all -parallel 0, plain-text fig8 (clean, under
#     -faults chaos and under -faults strip-options), and its -list,
#     -faults list, -restart list and -fabric list queries;
#   acdcsuite -quiet, -quiet -smoke, -scenario list, the shallow-buffer
#     spec file (-smoke -no-baseline -config), a smoke bless into a
#     scratch baseline file and -soak -soak-duration 10s;
#   acdctrace, with and without -noacdc;
#   every program under examples/;
#   three mistyped values, each of which must exit 2: acdcsim -faults chaso,
#     acdcsim -fabric gary@1ms and acdcsuite -scenario baselin.
# About 4 minutes on 2 cores, most of it the figure report.
#
# Usage: bash scripts/covprod.sh [-update]
#   -update  rewrite testdata/zero_run.txt from this run instead of checking;
#            an entry keeps its reason, a new one gets none (fill it in).
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
# usage runs a program on a mistyped value, which must exit 2.
usage() {
	echo "covprod: $* (must exit 2)" >&2
	local code=0
	"$work/bin/$1" "${@:2}" >/dev/null 2>&1 || code=$?
	if [ "$code" != 2 ]; then
		echo "covprod: FAIL: $* exited $code, want 2" >&2
		exit 1
	fi
}
run acdcsim -report -metrics -all -parallel 0
run acdcsim fig8
run acdcsim -faults chaos fig8
run acdcsim -faults strip-options fig8
run acdcsim -list
run acdcsim -faults list
run acdcsim -restart list
run acdcsim -fabric list
run acdcsuite -quiet
run acdcsuite -quiet -smoke
run acdcsuite -quiet -smoke -no-baseline -config internal/scenario/testdata/shallow_buffer.json
run acdcsuite -quiet -smoke -bless -baseline "$work/bless.json"
run acdcsuite -scenario list
run acdcsuite -soak -soak-duration 10s
run acdctrace
run acdctrace -noacdc
for ex in examples/*/; do
	run "$(basename "$ex")"
done
usage acdcsim -faults chaso fig8
usage acdcsim -fabric gary@1ms fig8
usage acdcsuite -scenario baselin

go tool covdata textfmt -i="$GOCOVERDIR" -o "$work/cov.txt"
go tool cover -func="$work/cov.txt" |
	awk -v pre="$mod/" '$NF == "0.0%" && index($1, pre "internal/") == 1 {
		file = substr($1, length(pre) + 1); sub(/:[0-9]+:$/, "", file); print file, $2
	}' | LC_ALL=C sort >"$work/zero.txt"

if [ "$update" = 1 ]; then
	# A function listed twice (two methods of one name in one file) keeps
	# its reasons in order.
	awk -F '\t' 'NR == FNR { reason[$1, ++n[$1]] = $2; next }
		{ print $0 "\t" reason[$0, ++m[$0]] }' "$list" "$work/zero.txt" >"$work/new.txt"
	cp "$work/new.txt" "$list"
	echo "covprod: wrote $(wc -l <"$list") functions to $list; $(awk -F '\t' '$2 == ""' "$list" | wc -l) need a reason"
	exit 0
fi
cut -f1 "$list" >"$work/listed.txt"
LC_ALL=C comm -13 "$work/listed.txt" "$work/zero.txt" >"$work/joined.txt"
LC_ALL=C comm -23 "$work/listed.txt" "$work/zero.txt" >"$work/left.txt"
awk -F '\t' '$2 == ""' "$list" >"$work/unreasoned.txt"
echo "covprod: $(wc -l <"$work/zero.txt") functions of internal/ never ran ($(wc -l <"$list") listed); by package:"
cut -d/ -f2 "$work/zero.txt" | uniq -c | sort -rn | awk '{ printf "  %-12s %d\n", $2, $1 }'
if [ -s "$work/left.txt" ]; then
	echo "covprod: ran or gone, drop from $list (or run with -update):"
	sed 's/^/  /' "$work/left.txt"
fi
fail=0
if [ -s "$work/joined.txt" ]; then
	echo "covprod: FAIL: no program runs these any more:"
	sed 's/^/  /' "$work/joined.txt"
	fail=1
fi
if [ -s "$work/unreasoned.txt" ]; then
	echo "covprod: FAIL: $list entries without a reason:"
	sed 's/^/  /' "$work/unreasoned.txt"
	fail=1
fi
exit "$fail"
