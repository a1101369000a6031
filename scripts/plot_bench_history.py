#!/usr/bin/env python3
"""Render the perf trajectory (BENCH_history.jsonl) as SVG charts.

One chart per metric family — wall times, cache hit rates, rescue
rates, task scheduler counters — with one polyline per
metric across the committed history
lines (x axis: commit sha, oldest left). Standard library only: the
SVG is emitted by hand, so the script runs on any Python 3 without
matplotlib or numpy.

Usage:
    scripts/plot_bench_history.py [HISTORY] [OUTDIR]

Defaults: BENCH_history.jsonl -> bench_charts/. Wall-time values are
plotted on a log scale (the families span ~1 ms warm replays to
~1 s figure grids); rates are plotted linearly on [0, 1]. Metrics
absent from a line (older history predating the metric) simply skip
that point, so a family chart stays renderable across schema growth.
"""

import json
import math
import os
import sys

FAMILIES = {
    "wall_times": {
        "title": "Serve-path wall times (ms, log scale)",
        "log": True,
        "metrics": [
            "figure_grid_single_ms",
            "figure_grid_batch_ms",
            "figure_grid_warm_ms",
            "serve_replay_cold_ms",
            "serve_replay_warm_ms",
            "serve_mt_replay_cold_ms",
            "serve_mt_replay_warm_ms",
            "serve_tslo_replay_ms",
            "serve_degrade_wall_ms",
            "serve_traced_untraced_ms",
            "serve_traced_replay_ms",
        ],
    },
    "rescue_rates": {
        "title": "Rescue / retry success rates",
        "log": False,
        "metrics": [
            "serve_tslo_resubmit_ok_rate",
            "serve_degrade_rate",
        ],
    },
    "scheduler": {
        "title": "Task scheduler counters (log scale)",
        "log": True,
        "metrics": [
            "sched_tasks_run",
            "sched_steals",
            "sched_steal_failures",
            "sched_max_queue_depth",
            "figure_grid_sched_steals",
        ],
    },
}

# A qualitative palette that stays readable on white; cycled when a
# family outgrows it.
PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]

WIDTH, HEIGHT = 960, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 230, 40, 60


def load_history(path):
    """Parse the jsonl trajectory into [(sha, {metric: value})]."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            metrics = rec.get("report", {}).get("metrics", {})
            rows.append((rec.get("sha", "?"), metrics))
    return rows


def fmt(v):
    """Short tick label for a metric value."""
    if v >= 1000:
        return f"{v:.0f}"
    if v >= 10:
        return f"{v:.1f}"
    return f"{v:.3g}"


def render_family(rows, title, metric_names, log_scale):
    """Return the SVG text for one family chart ('' when no data)."""
    series = []  # (name, [(row_index, value)])
    for name in metric_names:
        pts = [(i, m[name]) for i, (_, m) in enumerate(rows)
               if name in m and isinstance(m[name], (int, float))]
        if pts:
            series.append((name, pts))
    if not series:
        return ""

    values = [v for _, pts in series for _, v in pts]
    if log_scale:
        floor = min((v for v in values if v > 0), default=1e-3)
        values = [max(v, floor) for v in values]
        lo = math.log10(min(values))
        hi = math.log10(max(values))
    else:
        lo, hi = 0.0, max(1.0, max(values))
    if hi - lo < 1e-9:
        hi = lo + 1.0

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B
    n = len(rows)

    def x_of(i):
        if n == 1:
            return MARGIN_L + plot_w / 2
        return MARGIN_L + plot_w * i / (n - 1)

    def y_of(v):
        if log_scale:
            v = math.log10(max(v, 10 ** lo))
        frac = (v - lo) / (hi - lo)
        return MARGIN_T + plot_h * (1 - frac)

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">')
    out.append(
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    out.append(
        f'<text x="{MARGIN_L}" y="24" font-family="sans-serif" '
        f'font-size="16" font-weight="bold">{title}</text>')

    # Horizontal gridlines with value labels.
    for k in range(5):
        frac = k / 4
        y = MARGIN_T + plot_h * (1 - frac)
        val = lo + (hi - lo) * frac
        label = fmt(10 ** val) if log_scale else fmt(val)
        out.append(
            f'<line x1="{MARGIN_L}" y1="{y:.1f}" '
            f'x2="{MARGIN_L + plot_w}" y2="{y:.1f}" '
            f'stroke="#dddddd" stroke-width="1"/>')
        out.append(
            f'<text x="{MARGIN_L - 8}" y="{y + 4:.1f}" '
            f'font-family="sans-serif" font-size="11" '
            f'text-anchor="end">{label}</text>')

    # X ticks: one per history line, labelled by sha.
    for i, (sha, _) in enumerate(rows):
        x = x_of(i)
        out.append(
            f'<line x1="{x:.1f}" y1="{MARGIN_T + plot_h}" '
            f'x2="{x:.1f}" y2="{MARGIN_T + plot_h + 5}" '
            f'stroke="#888888" stroke-width="1"/>')
        out.append(
            f'<text x="{x:.1f}" y="{MARGIN_T + plot_h + 20}" '
            f'font-family="monospace" font-size="10" '
            f'text-anchor="middle">{sha[:7]}</text>')

    # One polyline (plus point markers) per metric, and a legend row.
    for s, (name, pts) in enumerate(series):
        color = PALETTE[s % len(PALETTE)]
        coords = " ".join(
            f"{x_of(i):.1f},{y_of(v):.1f}" for i, v in pts)
        if len(pts) > 1:
            out.append(
                f'<polyline points="{coords}" fill="none" '
                f'stroke="{color}" stroke-width="2"/>')
        for i, v in pts:
            out.append(
                f'<circle cx="{x_of(i):.1f}" cy="{y_of(v):.1f}" '
                f'r="3" fill="{color}"/>')
        ly = MARGIN_T + 16 * s
        lx = WIDTH - MARGIN_R + 16
        out.append(
            f'<rect x="{lx}" y="{ly - 9}" width="12" height="12" '
            f'fill="{color}"/>')
        out.append(
            f'<text x="{lx + 18}" y="{ly + 2}" '
            f'font-family="sans-serif" font-size="11">{name}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def main(argv):
    history = argv[1] if len(argv) > 1 else "BENCH_history.jsonl"
    outdir = argv[2] if len(argv) > 2 else "bench_charts"
    if not os.path.exists(history):
        print(f"no history at {history}; nothing to plot")
        return 0
    rows = load_history(history)
    if not rows:
        print(f"{history} has no committed lines; nothing to plot")
        return 0
    os.makedirs(outdir, exist_ok=True)
    written = 0
    for fam, spec in FAMILIES.items():
        svg = render_family(rows, spec["title"], spec["metrics"],
                            spec["log"])
        if not svg:
            print(f"  {fam}: no data in any line; skipped")
            continue
        path = os.path.join(outdir, f"{fam}.svg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(svg)
        print(f"  wrote {path} ({len(rows)} lines)")
        written += 1
    print(f"{written} chart(s) from {history}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
