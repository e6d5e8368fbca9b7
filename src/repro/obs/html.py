"""Self-contained HTML run/sweep reports (``python -m repro report``).

Everything is inlined -- CSS and SVG charts, no external assets or
scripts -- so a report file can be attached to an issue or archived
with a sweep cache and still render anywhere.

Two entry points:

* :func:`render_run_report` -- one simulation: headline gauges, the
  per-primitive cycle attribution table, the OMU transition timeline,
  the NoC latency distribution, and the top counters.
* :func:`render_sweep_report` -- a grid of cached results: cycles and
  speedup per (workload, cores) x config, MSA coverage, checker
  verdicts, and aggregate sync/NoC activity.  Built purely from
  :class:`~repro.harness.runner.RunResult` data, so it renders straight
  from the result cache without re-simulating.
"""

from __future__ import annotations

import html as _html
from typing import Dict, List, Optional, Sequence, Tuple

_CSS = """
body { font: 14px/1.45 system-ui, -apple-system, sans-serif;
       margin: 2em auto; max-width: 72em; padding: 0 1em; color: #1a1a2e; }
h1 { font-size: 1.5em; border-bottom: 2px solid #3b4cca; padding-bottom: .3em; }
h2 { font-size: 1.15em; margin-top: 1.8em; color: #3b4cca; }
table { border-collapse: collapse; margin: .8em 0; }
th, td { border: 1px solid #ccd; padding: .3em .7em; text-align: right; }
th { background: #eef; }
td.l, th.l { text-align: left; }
td.best { background: #e7f7e7; font-weight: 600; }
td.bad { background: #fde8e8; }
.kpi { display: inline-block; margin: .4em 1.6em .4em 0; }
.kpi b { display: block; font-size: 1.4em; }
.bar { fill: #3b4cca; }
.note { color: #667; font-size: .92em; }
svg { overflow: visible; }
"""


def _esc(value) -> str:
    if isinstance(value, _SafeHtml):
        return str(value)
    return _html.escape(str(value))


def _page(title: str, body: List[str]) -> str:
    return (
        "<!DOCTYPE html>\n<html><head><meta charset='utf-8'>"
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head>\n"
        f"<body><h1>{_esc(title)}</h1>\n" + "\n".join(body) + "\n</body></html>\n"
    )


def _table(
    headers: Sequence[str], rows: Sequence[Sequence], left_cols: int = 1
) -> str:
    head = "".join(
        f"<th class='l'>{_esc(h)}</th>" if i < left_cols else f"<th>{_esc(h)}</th>"
        for i, h in enumerate(headers)
    )
    body = []
    for row in rows:
        cells = []
        for i, cell in enumerate(row):
            css = "l" if i < left_cols else ""
            if isinstance(cell, tuple):  # (text, extra-class)
                text, extra = cell
                css = (css + " " + extra).strip()
            else:
                text = cell
            cells.append(f"<td class='{css}'>{_esc(text)}</td>" if css else f"<td>{_esc(text)}</td>")
        body.append("<tr>" + "".join(cells) + "</tr>")
    return (
        "<table><thead><tr>" + head + "</tr></thead><tbody>"
        + "".join(body) + "</tbody></table>"
    )


def _hbar(fraction: float, width: int = 120) -> str:
    w = max(0, min(width, int(round(fraction * width))))
    return (
        f"<svg width='{width}' height='10'>"
        f"<rect class='bar' width='{w}' height='10' rx='2'/></svg>"
    )


def _kpi(label: str, value: str) -> str:
    return f"<span class='kpi'><b>{_esc(value)}</b>{_esc(label)}</span>"


# ---------------------------------------------------------------------------
# Per-run report
# ---------------------------------------------------------------------------
def render_run_report(result, obs=None, title: Optional[str] = None) -> str:
    """Render one run (a :class:`RunResult`, optionally with the
    :class:`~repro.obs.collect.ObsResult` of an observed run) as a
    self-contained HTML page."""
    title = title or f"repro run report: {result.workload} on {result.config}"
    body: List[str] = ["<div>"]
    body.append(_kpi("cycles", f"{result.cycles:,}"))
    body.append(_kpi("cores", str(result.n_cores)))
    if result.msa_coverage is not None:
        body.append(_kpi("MSA coverage", f"{100 * result.msa_coverage:.1f}%"))
    sent = result.noc_counters.get("messages_sent", 0)
    if sent:
        body.append(_kpi("NoC messages", f"{sent:,}"))
    if result.check_report is not None:
        verdict = "ok" if result.check_report.get("ok") else "VIOLATIONS"
        body.append(_kpi("checkers", verdict))
    body.append("</div>")

    if obs is not None:
        body.append("<h2>Cycle attribution (spans)</h2>")
        attribution = obs.attribution()
        if attribution:
            total = sum(a["cycles"] for a in attribution.values()) or 1
            rows = []
            for name in sorted(
                attribution, key=lambda n: -attribution[n]["cycles"]
            ):
                a = attribution[name]
                rows.append(
                    [
                        name,
                        f"{int(a['count']):,}",
                        f"{int(a['cycles']):,}",
                        f"{a['mean']:.1f}",
                        f"{int(a['max']):,}",
                        _SafeHtml(_hbar(a["cycles"] / total)),
                    ]
                )
            body.append(
                _table(
                    ("span", "count", "cycles", "mean", "max", "share"), rows
                )
            )
            body.append(
                "<p class='note'>Cycle sums overlap (a held lock spans the "
                "waits of its contenders); shares are of the summed span "
                "cycles, not of the run.</p>"
            )
        body.append(_omu_timeline_svg(obs.omu_timeline, result.cycles))
        if obs.dropped_spans:
            drops = ", ".join(
                f"{k}: {v:,}" for k, v in sorted(obs.dropped_spans.items())
            )
            body.append(
                f"<p class='note'>Span retention cap hit ({drops}); "
                "attribution above remains exact.</p>"
            )

    traffic = _traffic_run_html(result)
    if traffic:
        body.append("<h2>Request latency SLOs (open-loop traffic)</h2>")
        body.append(traffic)

    body.append("<h2>NoC latency</h2>")
    body.append(_noc_latency_html(result, obs))

    body.append("<h2>Top counters</h2>")
    merged: Dict[str, float] = {}
    for prefix, counters in (
        ("msa.", result.msa_counters),
        ("sync.", result.sync_unit_counters),
        ("noc.", result.noc_counters),
        ("fault.", result.fault_counters),
    ):
        for name, value in counters.items():
            if value:
                merged[prefix + name] = merged.get(prefix + name, 0) + value
    rows = [
        [name, f"{int(value):,}"]
        for name, value in sorted(merged.items(), key=lambda kv: -kv[1])[:40]
    ]
    body.append(_table(("counter", "value"), rows))
    return _page(title, body)


class _SafeHtml(str):
    """Marker so _table leaves pre-rendered HTML (SVG bars) unescaped."""


def _noc_latency_html(result, obs) -> str:
    if obs is not None:
        metric = None
        for m in obs.registry.metrics():
            if m.name == "noc.latency" and m.kind == "histogram":
                metric = m
                break
        if metric is not None and metric.summary and metric.summary["count"]:
            s = metric.summary
            return _table(
                ("messages", "mean", "p50", "p90", "p99", "max"),
                [[
                    f"{int(s['count']):,}",
                    f"{s['sum'] / s['count']:.1f}",
                    f"{s['p50']:.0f}",
                    f"{s['p90']:.0f}",
                    f"{s['p99']:.0f}",
                    f"{int(s['max']):,}",
                ]],
                left_cols=0,
            )
    count = result.noc_counters.get("latency.count")
    mean = result.noc_counters.get("latency.mean")
    if count:
        return _table(
            ("messages", "mean latency"),
            [[f"{int(count):,}", f"{mean:.1f}" if mean else "-"]],
            left_cols=0,
        )
    return "<p class='note'>No NoC latency distribution in this result.</p>"


def _traffic_run_html(result) -> str:
    """SLO table for one open-loop traffic run; '' for other workloads."""
    m = getattr(result, "workload_metrics", None) or {}
    if "traffic.p99" not in m:
        return ""
    offered = int(m.get("traffic.offered", 0))
    parts = [
        _kpi("p50 sojourn", f"{m['traffic.p50']:,.0f} cy"),
        _kpi("p99", f"{m['traffic.p99']:,.0f} cy"),
        _kpi("p999", f"{m['traffic.p999']:,.0f} cy"),
        _kpi("goodput", f"{m.get('traffic.goodput_rpk', 0):.2f} req/kcy"),
    ]
    rows = [
        [
            f"{offered:,}",
            f"{m.get('traffic.offered_rpk', 0):.2f}",
            f"{int(m.get('traffic.done', 0)):,}",
            (
                f"{int(m.get('traffic.shed', 0)):,}",
                "bad" if m.get("traffic.shed") else "",
            ),
            (
                f"{int(m.get('traffic.timeout', 0)):,}",
                "bad" if m.get("traffic.timeout") else "",
            ),
            f"{m.get('traffic.mean', 0):,.0f}",
        ]
    ]
    table = _table(
        ("offered", "offered rate", "done", "shed", "timeout", "mean sojourn"),
        rows,
        left_cols=0,
    )
    note = (
        "<p class='note'>Sojourn = completion minus scheduled arrival "
        "(queueing included); rates in requests per kilocycle. "
        "Shed = dropped at admission, timeout = queueing delay exceeded "
        "the deadline (see docs/TRAFFIC.md).</p>"
    )
    return "<div>" + "".join(parts) + "</div>" + table + note


#: Per-config line colors for the load-latency chart (cycled).
_CURVE_COLORS = ("#3b4cca", "#cc3b3b", "#2e8b57", "#b8860b", "#8b3bcc", "#666")


def _traffic_sweep_html(points) -> str:
    """Load-vs-p99 section for sweeps containing traffic points."""
    traffic_points = [
        p
        for p in points
        if "traffic.p99" in (p.result.workload_metrics or {})
    ]
    if not traffic_points:
        return ""
    configs = sorted({p.config for p in traffic_points})
    loads = sorted({p.scale for p in traffic_points})
    by_key = {(p.config, p.scale): p for p in traffic_points}

    def metric(p, key):
        return (p.result.workload_metrics or {}).get(key)

    rows = []
    for load in loads:
        row: List = [f"x{load:g}"]
        for config in configs:
            p = by_key.get((config, load))
            if p is None:
                row.append("-")
                continue
            p99 = metric(p, "traffic.p99") or 0
            goodput = metric(p, "traffic.goodput_rpk") or 0
            shed = int(metric(p, "traffic.shed") or 0)
            timeout = int(metric(p, "traffic.timeout") or 0)
            text = f"{p99:,.0f} cy / {goodput:.2f} rpk"
            row.append((text, "bad") if (shed or timeout) else text)
        rows.append(row)
    table = _table(["offered load"] + configs, rows)

    series = []
    for i, config in enumerate(configs):
        pts = [
            (load, metric(by_key[(config, load)], "traffic.p99") or 0.0)
            for load in loads
            if (config, load) in by_key
        ]
        if pts:
            series.append((config, _CURVE_COLORS[i % len(_CURVE_COLORS)], pts))
    svg = _load_curve_svg(series)
    note = (
        "<p class='note'>Cells: p99 sojourn latency / goodput "
        "(requests per kilocycle); red = the point shed or timed out "
        "requests.  Offered load is the arrival-rate multiplier "
        "(JobSpec scale).</p>"
    )
    return table + note + svg


def _load_curve_svg(series) -> str:
    """Inline SVG: one p99-vs-offered-load polyline per config."""
    if not series:
        return ""
    width, height, pad = 560, 220, 40
    xs = sorted({x for _, _, pts in series for x, _ in pts})
    y_max = max(y for _, _, pts in series for _, y in pts) or 1.0
    x_min, x_max = min(xs), max(xs)
    x_span = (x_max - x_min) or 1.0

    def sx(x):
        return round(pad + (x - x_min) / x_span * (width - 2 * pad), 1)

    def sy(y):
        return round(height - pad - y / y_max * (height - 2 * pad), 1)

    parts = [
        f"<rect x='{pad}' y='{pad}' width='{width - 2 * pad}' "
        f"height='{height - 2 * pad}' fill='none' stroke='#ccd'/>"
    ]
    for x in xs:
        parts.append(
            f"<text x='{sx(x)}' y='{height - pad + 14}' font-size='10' "
            f"text-anchor='middle'>x{x:g}</text>"
        )
    for frac in (0.0, 0.5, 1.0):
        y_val = frac * y_max
        parts.append(
            f"<text x='{pad - 6}' y='{sy(y_val) + 3}' font-size='10' "
            f"text-anchor='end'>{y_val:,.0f}</text>"
        )
    legend_y = pad
    for config, color, pts in series:
        path = " ".join(f"{sx(x)},{sy(y)}" for x, y in sorted(pts))
        parts.append(
            f"<polyline points='{path}' fill='none' stroke='{color}' "
            f"stroke-width='2'/>"
        )
        for x, y in pts:
            parts.append(
                f"<circle cx='{sx(x)}' cy='{sy(y)}' r='2.5' fill='{color}'/>"
            )
        parts.append(
            f"<rect x='{width - pad + 6}' y='{legend_y}' width='10' "
            f"height='10' fill='{color}'/>"
            f"<text x='{width - pad + 20}' y='{legend_y + 9}' "
            f"font-size='11'>{_esc(config)}</text>"
        )
        legend_y += 16
    return (
        f"<svg width='{width + 120}' height='{height + 6}'>"
        + "".join(parts)
        + f"</svg><p class='note'>p99 sojourn latency (cycles) vs offered "
        f"load, one line per configuration.</p>"
    )


def _omu_timeline_svg(
    timeline: List[Tuple[int, int, str, int]], cycles: int
) -> str:
    """An inline SVG strip chart of OMU activity: one row per tile,
    charge (inc) / discharge (dec) ticks and software-steer marks over
    simulated time."""
    if not timeline:
        return (
            "<h2>OMU transitions</h2><p class='note'>No OMU activity "
            "observed (no overflow pressure, or OMU disabled).</p>"
        )
    tiles = sorted({t for _, t, _, _ in timeline})
    width, row_h = 720, 14
    height = row_h * len(tiles)
    span = max(cycles, max(c for c, _, _, _ in timeline), 1)
    colors = {"inc": "#3b4cca", "dec": "#9bb0e8", "steer": "#cc3b3b"}
    marks = []
    for cycle, tile, event, _amount in timeline:
        x = round(cycle / span * width, 1)
        y = tiles.index(tile) * row_h
        marks.append(
            f"<rect x='{x}' y='{y + 2}' width='2' height='{row_h - 4}' "
            f"fill='{colors.get(event, '#888')}'/>"
        )
    labels = "".join(
        f"<text x='-6' y='{tiles.index(t) * row_h + row_h - 3}' "
        f"text-anchor='end' font-size='9'>tile {t}</text>"
        for t in tiles
    )
    counts: Dict[str, int] = {}
    for _, _, event, _a in timeline:
        counts[event] = counts.get(event, 0) + 1
    legend = ", ".join(
        f"{event}: {count:,}" for event, count in sorted(counts.items())
    )
    return (
        "<h2>OMU transitions</h2>"
        f"<svg width='{width + 60}' height='{height + 4}' "
        f"viewBox='-60 0 {width + 60} {height + 4}'>"
        f"{labels}{''.join(marks)}</svg>"
        f"<p class='note'>blue = charge (inc), light = discharge (dec), "
        f"red = steered to software; x = cycle 0..{span:,}. {legend}.</p>"
    )


# ---------------------------------------------------------------------------
# Cross-sweep report
# ---------------------------------------------------------------------------
def render_sweep_report(
    points,
    baseline: Optional[str] = None,
    title: str = "repro sweep report",
    resilience: Optional[Dict[str, int]] = None,
) -> str:
    """Render a list of :class:`~repro.harness.sweep.SweepPoint` (e.g.
    loaded from the result cache) as a self-contained HTML page.

    With ``baseline`` (a config name present in the points), each cell
    also shows the speedup over the same (workload, cores) baseline
    run.  ``resilience`` (the job store's lifetime counters -- leases,
    retries, quarantines) appends the harness-resilience section.
    """
    points = list(points)
    configs = sorted({p.config for p in points})
    groups = sorted({(p.workload, p.n_cores) for p in points})
    by_key = {(p.workload, p.n_cores, p.config): p for p in points}

    body: List[str] = ["<div>"]
    body.append(_kpi("points", str(len(points))))
    body.append(_kpi("configs", str(len(configs))))
    body.append(_kpi("workload grids", str(len(groups))))
    checked = sum(1 for p in points if p.result.check_report is not None)
    if checked:
        bad = sum(
            1
            for p in points
            if p.result.check_report is not None
            and not p.result.check_report.get("ok")
        )
        body.append(_kpi("checked", f"{checked} ({bad} failed)"))
    body.append("</div>")

    body.append("<h2>Cycles" + (f" and speedup over {_esc(baseline)}" if baseline else "") + "</h2>")
    rows = []
    for workload, cores in groups:
        row: List = [f"{workload} @{cores}"]
        base = by_key.get((workload, cores, baseline)) if baseline else None
        best_config, best_cycles = None, None
        for config in configs:
            p = by_key.get((workload, cores, config))
            if p is not None and (best_cycles is None or p.result.cycles < best_cycles):
                best_config, best_cycles = config, p.result.cycles
        for config in configs:
            p = by_key.get((workload, cores, config))
            if p is None:
                row.append("-")
                continue
            text = f"{p.result.cycles:,}"
            if base is not None and base.result.cycles and p.result.cycles:
                text += f" ({base.result.cycles / p.result.cycles:.2f}x)"
            row.append((text, "best") if config == best_config else text)
        rows.append(row)
    body.append(_table(["workload @cores"] + configs, rows))

    traffic = _traffic_sweep_html(points)
    if traffic:
        body.append("<h2>Tail latency under offered load (repro.traffic)</h2>")
        body.append(traffic)

    body.append("<h2>MSA coverage</h2>")
    cov_configs = [
        c
        for c in configs
        if any(
            by_key.get((w, n, c)) is not None
            and by_key[(w, n, c)].result.msa_coverage is not None
            for w, n in groups
        )
    ]
    if cov_configs:
        rows = []
        for workload, cores in groups:
            row: List = [f"{workload} @{cores}"]
            for config in cov_configs:
                p = by_key.get((workload, cores, config))
                coverage = p.result.msa_coverage if p is not None else None
                if coverage is None:
                    row.append("-")
                else:
                    row.append((f"{100 * coverage:.1f}%", "bad" if coverage < 0.5 else ""))
            rows.append(row)
        body.append(_table(["workload @cores"] + cov_configs, rows))
    else:
        body.append("<p class='note'>No MSA configurations in this sweep.</p>")

    body.append("<h2>Sync and NoC activity (per config, summed)</h2>")
    agg_rows = []
    for config in configs:
        totals: Dict[str, int] = {}
        for p in points:
            if p.config != config:
                continue
            for key in (
                "entries_allocated",
                "omu_steered_sw",
                "omu_saturations",
                "ops_aborted",
            ):
                totals[key] = totals.get(key, 0) + p.result.msa_counters.get(key, 0)
            totals["noc_sent"] = totals.get("noc_sent", 0) + p.result.noc_counters.get(
                "messages_sent", 0
            )
        agg_rows.append(
            [
                config,
                f"{totals.get('noc_sent', 0):,}",
                f"{totals.get('entries_allocated', 0):,}",
                f"{totals.get('omu_steered_sw', 0):,}",
                f"{totals.get('omu_saturations', 0):,}",
                f"{totals.get('ops_aborted', 0):,}",
            ]
        )
    body.append(
        _table(
            (
                "config",
                "NoC msgs",
                "MSA entries",
                "OMU steers",
                "OMU saturations",
                "ABORTs",
            ),
            agg_rows,
        )
    )

    if resilience:
        body.append("<h2>Harness resilience (job store)</h2>")
        highlight = {"quarantined", "stale_completions", "leases_expired"}
        rows = [
            [name, (f"{value:,}", "bad") if name in highlight and value else f"{value:,}"]
            for name, value in sorted(resilience.items())
            if value
        ]
        if rows:
            body.append(_table(("counter", "value"), rows))
        else:
            body.append(
                "<p class='note'>Store present, all counters zero.</p>"
            )
        body.append(
            "<p class='note'>Lifetime counters of the durable job store "
            "next to this cache: lease grants/expiries track worker "
            "supervision, retries/quarantines track failing points "
            "(see docs/HARNESS.md).</p>"
        )

    return _page(title, body)
