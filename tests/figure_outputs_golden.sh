#!/bin/sh
# Golden check of the figure, table and ablation reproductions: runs
# every program named in the md5 list and fails, naming each one,
# when its stdout no longer hashes to the recorded md5 (or when it
# exits non-zero). The model's outputs are bit-identical across
# thread counts, so the list holds for any SMART_THREADS.
#
# Usage:
#   figure_outputs_golden.sh BUILD_DIR MD5_LIST
#   figure_outputs_golden.sh --update BUILD_DIR MD5_LIST
#       Rewrite MD5_LIST from the current outputs (a deliberate
#       re-pin; review the diff of the list like any other change).
#
# MD5_LIST has md5sum's format: "<md5>  <program>" per line.
# Skips (exit 77) when md5sum is not installed.

set -eu

update=0
if [ "${1:-}" = "--update" ]; then
    update=1
    shift
fi
bin="${1:?usage: $0 [--update] BUILD_DIR MD5_LIST}"
list="${2:?usage: $0 [--update] BUILD_DIR MD5_LIST}"

if ! command -v md5sum >/dev/null 2>&1; then
    echo "SKIP: md5sum not found"
    exit 77
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

failures=0
while read -r want prog; do
    [ -n "$prog" ] || continue
    if [ ! -x "$bin/$prog" ]; then
        echo "FAIL $prog: not built in $bin"
        failures=$((failures + 1))
        continue
    fi
    if ! "$bin/$prog" >"$tmp/$prog.out" 2>"$tmp/$prog.err"; then
        echo "FAIL $prog: exited non-zero"
        cat "$tmp/$prog.err"
        failures=$((failures + 1))
        continue
    fi
    got=$(md5sum <"$tmp/$prog.out" | cut -d' ' -f1)
    if [ "$update" -eq 1 ]; then
        printf '%s  %s\n' "$got" "$prog" >>"$tmp/list"
    elif [ "$got" != "$want" ]; then
        echo "FAIL $prog: stdout md5 $got, golden $want"
        failures=$((failures + 1))
    fi
done <"$list"

if [ "$failures" -ne 0 ]; then
    echo "$failures figure output(s) moved or failed"
    exit 1
fi
if [ "$update" -eq 1 ]; then
    cp "$tmp/list" "$list"
    echo "rewrote $list"
else
    echo "all figure outputs match $list"
fi
