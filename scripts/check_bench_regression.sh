#!/usr/bin/env sh
# Perf-regression gate over the tracked trajectory (BENCH_history.jsonl).
#
# Usage:
#   scripts/check_bench_regression.sh [HISTORY] [MAX_PCT]
#       Compare the newest committed history line against the one
#       before it (the per-PR gate CI runs: both lines were measured
#       on the builder's machine, so the comparison is like-for-like).
#   scripts/check_bench_regression.sh REPORT.json HISTORY [MAX_PCT]
#       Candidate mode: compare a fresh (not yet appended) report
#       against the newest committed line — run this locally before
#       committing a new trajectory line.
#
# Three metric families are gated:
#
#  - Wall times: the deterministic serving-path replay wall times
#    plus the figure-grid evaluation (figure_grid_single_ms /
#    figure_grid_batch_ms are each a median of N cold-cache runs
#    emitted by bench_micro, so one noisy run cannot trip the gate)
#    (serve_slo_replay_ms is deliberately NOT gated: its burst
#    admission count is timing-dependent by design, so its wall time
#    is not a regression signal; serve_tslo_replay_ms IS gated — its
#    arrivals are trace-paced and its retry phase is serialized
#    against a drained queue, so its wall clock tracks the serve path
#    rather than the admission lottery). A metric fails when it is more than
#    MAX_PCT percent slower (default 25) than the baseline AND at
#    least 2 ms slower in absolute terms — the floor keeps
#    millisecond-scale warm-cache timings from tripping the gate on
#    scheduler noise while still catching a cache that stopped
#    working (~100x, not 1.25x).
#  - Ratios: the tenant-SLO resubmit success rate and the
#    graceful-degradation rescue rate (the fraction of a hopeless
#    burst served degraded under degradePolicy Auto) live in [0, 1]
#    and regress by dropping, not slowing; a ratio fails when it
#    falls more than 10 points (0.10) below the baseline. Ratios do
#    not depend on machine speed, so they are judged even when the
#    host stamps differ.
#  - Counts: deterministic work counters (the knapsack ILP batch's
#    B&B nodes and simplex pivots, the simplex pivots, B&B nodes and
#    LP replays (node LPs re-run with the simplex stall objective
#    tracked, expected 0) of the single-image figure grid's ILP
#    schedules, the
#    schedule-memo entries one cold single-image figure grid leaves
#    behind — a rise there means a memo-key change split layers that
#    share a schedule — and the layer schedules each warm serve replay
#    computes into the memo (serve_replay_warm_schedules and
#    serve_mt_replay_warm_schedules, expected 0: the memo is the cache
#    that serves repeated requests, and a rise means repeats stopped
#    reaching it), the scheduler tasks 64 sequential memo-hit
#    submits run (serve_memo_hit_tasks, expected 0 at any thread
#    count: a one-group wave is served on the dispatcher and memo-hit
#    layers evaluate inline), and the configuration costs one cold and
#    five warm single-image grids derive (figure_grid_config_builds,
#    expected 4: one per configuration with derived costs, so a rise
#    means warm passes re-derive them). They are exact functions of
#    the code, so a count fails as soon as it rises at all, and counts
#    are judged across hosts like ratios.
#
# figure_grid_warm_ms (the warm-memo grid re-run) is charted by
# plot_bench_history.py but not gated yet.
#
# One within-line guard rides along: the tracer-overhead check
# compares serve_traced_replay_ms against serve_traced_untraced_ms
# from the SAME (current) report line — a machine-independent pair —
# and fails when 1-in-16 sampling costs more than 5% (and 2 ms) over
# the untraced twin.
#
# First runs pass cleanly: a missing, empty, or single-line history
# has nothing to compare against, and the gate says so instead of
# erroring. Metrics absent from either side are skipped, and lines
# stamped by different machines skip the WALL comparison only (wall
# times measured on different machines are not comparable): the gate
# only judges comparable measurements. "Same machine" means the host
# AND boot stamps both match — a hostname alone is not a machine
# identity, because freshly provisioned builders (containers, VMs)
# routinely share one hostname while differing wildly in speed; the
# kernel boot id disambiguates them. A boot stamp present on only
# one side is a mismatch (legacy boot-less lines age out after one
# PR, like unstamped hosts did); two boot-less lines fall back to
# the host-only comparison.
set -eu

WALL_METRICS="serve_replay_cold_ms serve_replay_warm_ms \
serve_mt_replay_cold_ms serve_mt_replay_warm_ms serve_tslo_replay_ms \
serve_degrade_wall_ms serve_traced_untraced_ms serve_traced_replay_ms \
figure_grid_single_ms figure_grid_batch_ms"
RATIO_METRICS="serve_tslo_resubmit_ok_rate serve_degrade_rate"
COUNT_METRICS="ilp_bnb_batch_nodes ilp_bnb_batch_pivots ilp_grid_pivots \
ilp_grid_nodes ilp_grid_lp_replays figure_grid_memo_entries \
serve_replay_warm_schedules serve_mt_replay_warm_schedules \
serve_memo_hit_tasks figure_grid_config_builds"
MIN_DELTA_MS=2
MAX_RATIO_DROP=0.10
# Tracer-overhead budget: the traced uncached replay may cost at
# most this percent over its untraced twin (same line, same machine).
MAX_TRACE_OVERHEAD_PCT=5

# Committed (non-blank) lines in a history file; robust to a missing
# trailing newline, which `wc -l` would undercount.
lines_of() {
    grep -c . "$1" 2>/dev/null || true
}

# The machine stamp a history line was measured on ("" when absent).
host_of() {
    printf '%s\n' "$1" |
        sed -n 's/.*"host": "\([^"]*\)".*/\1/p' | head -n 1
}

# The kernel boot id a history line was measured under ("" when
# absent). Paired with the host stamp to decide wall comparability.
boot_of() {
    printf '%s\n' "$1" |
        sed -n 's/.*"boot": "\([^"]*\)".*/\1/p' | head -n 1
}

case "${1:-}" in
  *.json)
    report="$1"
    history="${2:-BENCH_history.jsonl}"
    pct="${3:-25}"
    [ -f "$report" ] || { echo "no report at $report" >&2; exit 1; }
    [ -f "$history" ] || { echo "no history at $history; skipping"; exit 0; }
    lines=$(lines_of "$history")
    if [ "$lines" -lt 1 ]; then
        echo "history $history has no committed lines; nothing to" \
             "compare yet — first run passes"
        exit 0
    fi
    # Non-blank selection, matched to lines_of: a stray blank tail
    # line must not desynchronize the guard from the compared lines.
    base_line=$(grep . "$history" | tail -n 1)
    cur_line=$(tr '\n' ' ' < "$report")
    base_label="$history:$lines"
    cur_label="$report"
    base_host=$(host_of "$base_line")
    cur_host=$(uname -n 2>/dev/null || echo "")
    base_boot=$(boot_of "$base_line")
    cur_boot=$(cat /proc/sys/kernel/random/boot_id 2>/dev/null || echo "")
    ;;
  *)
    history="${1:-BENCH_history.jsonl}"
    pct="${2:-25}"
    [ -f "$history" ] || { echo "no history at $history; skipping"; exit 0; }
    lines=$(lines_of "$history")
    if [ "$lines" -lt 2 ]; then
        echo "history $history has $lines committed line(s); nothing" \
             "to compare yet — first run passes"
        exit 0
    fi
    # Non-blank selection, matched to lines_of (see candidate mode).
    base_line=$(grep . "$history" | tail -n 2 | head -n 1)
    cur_line=$(grep . "$history" | tail -n 1)
    base_label="$history:$((lines - 1))"
    cur_label="$history:$lines"
    base_host=$(host_of "$base_line")
    cur_host=$(host_of "$cur_line")
    base_boot=$(boot_of "$base_line")
    cur_boot=$(boot_of "$cur_line")
    ;;
esac

# Pull one numeric metric out of a single-line JSON blob.
metric_of() {
    printf '%s\n' "$1" |
        sed -n 's/.*"'"$2"'":[[:space:]]*\(-\{0,1\}[0-9.][0-9.eE+-]*\).*/\1/p' |
        head -n 1
}

status=0

# Ratios first: they do not depend on machine speed, so they are
# judged regardless of the host stamps.
for m in $RATIO_METRICS; do
    base=$(metric_of "$base_line" "$m")
    cur=$(metric_of "$cur_line" "$m")
    if [ -z "$base" ] || [ -z "$cur" ]; then
        echo "  $m: not in both sides; skipped"
        continue
    fi
    if awk -v c="$cur" -v b="$base" -v d="$MAX_RATIO_DROP" \
           'BEGIN { exit !(b - c > d) }'; then
        echo "FAIL $m: $base -> $cur (dropped more than ${MAX_RATIO_DROP})"
        status=1
    else
        echo "  ok $m: $base -> $cur"
    fi
done

# Counts: exact work counters, also host-independent.
for m in $COUNT_METRICS; do
    base=$(metric_of "$base_line" "$m")
    cur=$(metric_of "$cur_line" "$m")
    if [ -z "$base" ] || [ -z "$cur" ]; then
        echo "  $m: not in both sides; skipped"
        continue
    fi
    if awk -v c="$cur" -v b="$base" 'BEGIN { exit !(c > b) }'; then
        echo "FAIL $m: $base -> $cur (work count rose)"
        status=1
    else
        echo "  ok $m: $base -> $cur"
    fi
done

# Tracer overhead next: serve_traced_replay_ms and
# serve_traced_untraced_ms come from the SAME report line, measured
# back-to-back on one machine, so their ratio is comparable no matter
# what the host stamps say — judge it before the stamp gate. The
# absolute floor mirrors the wall gate: a few-ms warm replay must not
# fail on scheduler noise.
untraced=$(metric_of "$cur_line" "serve_traced_untraced_ms")
traced=$(metric_of "$cur_line" "serve_traced_replay_ms")
if [ -n "$untraced" ] && [ -n "$traced" ]; then
    if awk -v t="$traced" -v u="$untraced" \
           -v p="$MAX_TRACE_OVERHEAD_PCT" -v f="$MIN_DELTA_MS" \
           'BEGIN { exit !(t > u * (1 + p / 100) && t - u > f) }'; then
        echo "FAIL tracer overhead: untraced $untraced ms ->" \
             "traced $traced ms (> ${MAX_TRACE_OVERHEAD_PCT}% and" \
             "> ${MIN_DELTA_MS} ms slower)"
        status=1
    else
        echo "  ok tracer overhead: untraced $untraced ms ->" \
             "traced $traced ms"
    fi
else
    echo "  tracer overhead: serve_traced_* not in the current line; skipped"
fi

# Wall times only compare when both sides are known to come from the
# same machine; an unstamped (pre-gate) or mismatched line is not a
# comparable baseline. Same machine = same host stamp AND same boot
# stamp (two boot-less lines fall back to host-only; a boot on one
# side only is a mismatch). Legacy part-stamped lines age out after
# one PR.
if [ -z "$base_host" ] || [ -z "$cur_host" ] ||
   [ "$base_host" != "$cur_host" ] ||
   [ "${base_boot:-}" != "${cur_boot:-}" ]; then
    echo "machine stamps missing or different" \
         "(host '${base_host:-?}' vs '${cur_host:-?}'," \
         "boot '${base_boot:-?}' vs '${cur_boot:-?}');" \
         "wall times are not comparable — skipping the wall-time gate"
    if [ "$status" -ne 0 ]; then
        echo "perf regression: $cur_label vs $base_label ratio drop" \
             "or count rise" >&2
    fi
    exit "$status"
fi

for m in $WALL_METRICS; do
    base=$(metric_of "$base_line" "$m")
    cur=$(metric_of "$cur_line" "$m")
    if [ -z "$base" ] || [ -z "$cur" ]; then
        echo "  $m: not in both sides; skipped"
        continue
    fi
    if awk -v c="$cur" -v b="$base" -v t="$pct" -v f="$MIN_DELTA_MS" \
           'BEGIN { exit !(c > b * (1 + t / 100) && c - b > f) }'; then
        echo "FAIL $m: $base -> $cur ms (> ${pct}% and > ${MIN_DELTA_MS} ms slower)"
        status=1
    else
        echo "  ok $m: $base -> $cur ms"
    fi
done

if [ "$status" -ne 0 ]; then
    echo "perf regression: $cur_label vs $base_label exceeds the gate" >&2
else
    echo "no serve-path regression ($cur_label vs $base_label, ${pct}% wall / ${MAX_RATIO_DROP} ratio gate)"
fi
exit "$status"
