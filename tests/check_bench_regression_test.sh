#!/usr/bin/env sh
# Smoke test for scripts/check_bench_regression.sh, run from CTest.
#
# Usage: check_bench_regression_test.sh /path/to/check_bench_regression.sh
#
# Exercises the gate's edge contracts: first runs (missing, empty,
# single-line, and newline-less histories) must pass cleanly and say
# so; comparable lines must pass when flat, fail on a wall-time
# regression, fail on a >10-point ratio drop, and tolerate a small
# ratio dip; host-stamp mismatches must skip rather than judge. Work
# counts (solver work, figure-grid ILP pivots, B&B nodes and LP
# replays, memo entries, the layer schedules a warm serve replay adds,
# the scheduler tasks memo-hit submits run and the configuration costs
# the figure grids derive) fail on any rise, on any host.
set -eu

script="${1:?usage: $0 /path/to/check_bench_regression.sh}"
[ -f "$script" ] || { echo "no script at $script" >&2; exit 1; }

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
failures=0

check() {
    desc="$1"; want="$2"; shift 2
    set +e
    out=$(sh "$script" "$@" 2>&1)
    got=$?
    set -e
    if [ "$got" -ne "$want" ]; then
        echo "FAIL [$desc]: exit $got, wanted $want"
        echo "$out" | sed 's/^/    /'
        failures=$((failures + 1))
    else
        echo "  ok [$desc]"
    fi
}

line() {
    # One history line for host "$1" with the given metric overrides;
    # "$7" is an optional boot stamp (two boot-less lines compare by
    # host alone, matching the gate's legacy fallback).
    printf '{"sha": "%s", "host": "%s", "boot": "%s", "report": {"metrics": {"serve_replay_cold_ms": %s, "serve_replay_warm_ms": 1.0, "serve_mt_replay_cold_ms": 2.0, "serve_mt_replay_warm_ms": 1.0, "serve_tslo_replay_ms": %s, "serve_degrade_rate": %s, "serve_tslo_resubmit_ok_rate": %s}}}\n' \
        "$2" "$1" "${7:-}" "$3" "$4" "$5" "$6"
}

# --- first-run shapes must pass cleanly and say why -----------------
check "missing history" 0 "$tmp/absent.jsonl" 25

: > "$tmp/empty.jsonl"
check "empty history" 0 "$tmp/empty.jsonl" 25

line hostA aaaa 5.0 5.0 0.9 1.0 > "$tmp/single.jsonl"
check "single-line history" 0 "$tmp/single.jsonl" 25

printf '%s' "$(line hostA aaaa 5.0 5.0 0.9 1.0)" > "$tmp/noeol.jsonl"
check "single line without trailing newline" 0 "$tmp/noeol.jsonl" 25

sh "$script" "$tmp/empty.jsonl" 25 | grep -q "first run passes" || {
    echo "FAIL [empty history message]: missing first-run wording"
    failures=$((failures + 1))
}

# --- candidate mode against an empty history ------------------------
printf '{"metrics": {"serve_replay_cold_ms": 5.0}}\n' > "$tmp/cand.json"
check "candidate vs empty history" 0 "$tmp/cand.json" "$tmp/empty.jsonl" 25

# --- comparable lines ------------------------------------------------
{
    line hostA aaaa 5.0 5.0 0.9 1.0
    line hostA bbbb 5.1 5.1 0.9 1.0
} > "$tmp/flat.jsonl"
check "flat trajectory passes" 0 "$tmp/flat.jsonl" 25

{
    line hostA aaaa 5.0 5.0 0.9 1.0
    line hostA bbbb 50.0 5.0 0.9 1.0
} > "$tmp/wallreg.jsonl"
check "wall-time regression fails" 1 "$tmp/wallreg.jsonl" 25

{
    line hostA aaaa 5.0 5.0 0.9 1.0
    line hostA bbbb 5.0 50.0 0.9 1.0
} > "$tmp/tsloreg.jsonl"
check "serve_tslo wall regression fails" 1 "$tmp/tsloreg.jsonl" 25

{
    line hostA aaaa 5.0 5.0 0.9 1.0
    line hostA bbbb 5.0 5.0 0.6 1.0
} > "$tmp/ratioreg.jsonl"
check "degrade-rate drop > 10 pts fails" 1 "$tmp/ratioreg.jsonl" 25

{
    line hostA aaaa 5.0 5.0 0.9 1.0
    line hostA bbbb 5.0 5.0 0.9 0.5
} > "$tmp/resubreg.jsonl"
check "resubmit-ok-rate drop > 10 pts fails" 1 "$tmp/resubreg.jsonl" 25

{
    line hostA aaaa 5.0 5.0 0.9 1.0
    line hostA bbbb 5.0 5.0 0.85 0.95
} > "$tmp/ratiodip.jsonl"
check "ratio dip within 10 pts passes" 0 "$tmp/ratiodip.jsonl" 25

{
    line hostA aaaa 5.0 5.0 0.9 1.0
    line hostB bbbb 500.0 500.0 0.9 1.0
} > "$tmp/hosts.jsonl"
check "host mismatch skips the wall-time gate" 0 "$tmp/hosts.jsonl" 25

{
    line hostA aaaa 5.0 5.0 0.9 1.0
    line hostB bbbb 5.0 5.0 0.9 0.5
} > "$tmp/hostsratio.jsonl"
check "ratio drop still fails across hosts" 1 "$tmp/hostsratio.jsonl" 25

# --- work counts: any rise fails, on any host ------------------------
counts() {
    # History line for host "$1" with knapsack-batch counts "$2"/"$3".
    printf '{"sha": "x", "host": "%s", "report": {"metrics": {"ilp_bnb_batch_nodes": %s, "ilp_bnb_batch_pivots": %s}}}\n' \
        "$1" "$2" "$3"
}
{
    counts hostA 400 9000
    counts hostA 400 8000
} > "$tmp/countsdown.jsonl"
check "falling pivot count passes" 0 "$tmp/countsdown.jsonl" 25

{
    counts hostA 400 9000
    counts hostA 400 9001
} > "$tmp/countsup.jsonl"
check "rising pivot count fails" 1 "$tmp/countsup.jsonl" 25

{
    counts hostA 400 9000
    counts hostB 401 9000
} > "$tmp/countshosts.jsonl"
check "rising node count fails across hosts" 1 "$tmp/countshosts.jsonl" 25

gridpivots() {
    # History line for host "$1" with figure-grid ILP pivots "$2".
    printf '{"sha": "x", "host": "%s", "report": {"metrics": {"ilp_grid_pivots": %s}}}\n' \
        "$1" "$2"
}
{
    gridpivots hostA 365585
    gridpivots hostA 365585
} > "$tmp/gridflat.jsonl"
check "flat grid pivot count passes" 0 "$tmp/gridflat.jsonl" 25

{
    gridpivots hostA 365585
    gridpivots hostB 365586
} > "$tmp/gridup.jsonl"
check "rising grid pivot count fails across hosts" 1 \
      "$tmp/gridup.jsonl" 25

gridnodes() {
    # History line for host "$1" with figure-grid B&B nodes "$2".
    printf '{"sha": "x", "host": "%s", "report": {"metrics": {"ilp_grid_nodes": %s}}}\n' \
        "$1" "$2"
}
{
    gridnodes hostA 6381
    gridnodes hostA 6381
} > "$tmp/nodesflat.jsonl"
check "flat grid node count passes" 0 "$tmp/nodesflat.jsonl" 25

{
    gridnodes hostA 6381
    gridnodes hostB 6382
} > "$tmp/nodesup.jsonl"
check "rising grid node count fails across hosts" 1 \
      "$tmp/nodesup.jsonl" 25

gridreplays() {
    # History line for host "$1" with figure-grid LP replays "$2".
    printf '{"sha": "x", "host": "%s", "report": {"metrics": {"ilp_grid_lp_replays": %s}}}\n' \
        "$1" "$2"
}
{
    gridreplays hostA 0
    gridreplays hostA 0
} > "$tmp/replaysflat.jsonl"
check "flat grid LP replay count passes" 0 "$tmp/replaysflat.jsonl" 25

{
    gridreplays hostA 0
    gridreplays hostB 1
} > "$tmp/replaysup.jsonl"
check "rising grid LP replay count fails across hosts" 1 \
      "$tmp/replaysup.jsonl" 25

memo() {
    # History line for host "$1" with figure-grid memo entries "$2".
    printf '{"sha": "x", "host": "%s", "report": {"metrics": {"figure_grid_memo_entries": %s}}}\n' \
        "$1" "$2"
}
{
    memo hostA 102
    memo hostA 102
} > "$tmp/memoflat.jsonl"
check "flat memo entry count passes" 0 "$tmp/memoflat.jsonl" 25

{
    memo hostA 102
    memo hostB 103
} > "$tmp/memoup.jsonl"
check "rising memo entry count fails across hosts" 1 \
      "$tmp/memoup.jsonl" 25

warmsched() {
    # History line for host "$1" with warm-replay layer schedules "$2"
    # (single-tenant) and "$3" (two-tenant).
    printf '{"sha": "x", "host": "%s", "report": {"metrics": {"serve_replay_warm_schedules": %s, "serve_mt_replay_warm_schedules": %s}}}\n' \
        "$1" "$2" "$3"
}
{
    warmsched hostA 0 0
    warmsched hostA 0 0
} > "$tmp/warmflat.jsonl"
check "flat warm-replay schedule counts pass" 0 "$tmp/warmflat.jsonl" 25

{
    warmsched hostA 0 0
    warmsched hostB 3 0
} > "$tmp/warmup.jsonl"
check "rising warm-replay schedule count fails across hosts" 1 \
      "$tmp/warmup.jsonl" 25

{
    warmsched hostA 0 0
    warmsched hostA 0 1
} > "$tmp/mtwarmup.jsonl"
check "rising two-tenant warm-replay schedule count fails" 1 \
      "$tmp/mtwarmup.jsonl" 25

memotasks() {
    # History line for host "$1" with memo-hit serve tasks "$2".
    printf '{"sha": "x", "host": "%s", "report": {"metrics": {"serve_memo_hit_tasks": %s}}}\n' \
        "$1" "$2"
}
{
    memotasks hostA 0
    memotasks hostA 0
} > "$tmp/memotasksflat.jsonl"
check "flat memo-hit task count passes" 0 "$tmp/memotasksflat.jsonl" 25

{
    memotasks hostA 0
    memotasks hostB 64
} > "$tmp/memotasksup.jsonl"
check "rising memo-hit task count fails across hosts" 1 \
      "$tmp/memotasksup.jsonl" 25

configbuilds() {
    # History line for host "$1" with grid configuration builds "$2".
    printf '{"sha": "x", "host": "%s", "report": {"metrics": {"figure_grid_config_builds": %s}}}\n' \
        "$1" "$2"
}
{
    configbuilds hostA 4
    configbuilds hostA 4
} > "$tmp/configflat.jsonl"
check "flat grid config-build count passes" 0 "$tmp/configflat.jsonl" 25

{
    configbuilds hostA 4
    configbuilds hostB 24
} > "$tmp/configup.jsonl"
check "rising grid config-build count fails across hosts" 1 \
      "$tmp/configup.jsonl" 25

# --- boot stamps: a hostname alone is not a machine identity --------
{
    line hostA aaaa 5.0 5.0 0.9 1.0 boot1
    line hostA bbbb 50.0 5.0 0.9 1.0 boot1
} > "$tmp/bootsame.jsonl"
check "same host+boot still judges wall times" 1 "$tmp/bootsame.jsonl" 25

{
    line hostA aaaa 5.0 5.0 0.9 1.0 boot1
    line hostA bbbb 500.0 500.0 0.9 1.0 boot2
} > "$tmp/bootdiff.jsonl"
check "same host, different boot skips the wall-time gate" 0 \
      "$tmp/bootdiff.jsonl" 25

{
    line hostA aaaa 5.0 5.0 0.9 1.0
    line hostA bbbb 500.0 500.0 0.9 1.0 boot2
} > "$tmp/bootone.jsonl"
check "boot stamp on one side only skips the wall-time gate" 0 \
      "$tmp/bootone.jsonl" 25

{
    line hostA aaaa 5.0 5.0 0.9 1.0 boot1
    line hostA bbbb 5.0 5.0 0.6 1.0 boot2
} > "$tmp/bootratio.jsonl"
check "ratio drop still fails across boots" 1 "$tmp/bootratio.jsonl" 25

{
    line hostA aaaa 5.0 5.0 0.9 1.0
    line hostA bbbb 5.1 5.1 0.9 1.0
    printf '\n'
} > "$tmp/blanktail.jsonl"
check "trailing blank line compares the real lines" 0 "$tmp/blanktail.jsonl" 25

{
    line hostA aaaa 5.0 5.0 0.9 1.0
    printf '\n'
} > "$tmp/blanksingle.jsonl"
check "single line plus blank tail is a first run" 0 "$tmp/blanksingle.jsonl" 25

if [ "$failures" -ne 0 ]; then
    echo "$failures smoke case(s) failed" >&2
    exit 1
fi
echo "all check_bench_regression smoke cases passed"
