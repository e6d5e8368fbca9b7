"""repro.obs -- unified observability: spans, metrics, exporters, reports.

The simulator already *produces* everything an investigation needs --
``Stats`` counters and histograms in every subsystem, the
:class:`~repro.verify.events.Probe` event bus (synchronization
episodes, MSA responses, scheduler moves, fault/retry/degrade
decisions), fault counters, checker verdicts -- but each spoke its own
dialect.  This package is the hub, and the probe → collector →
exporter path below is the one way events leave a run:

* :class:`~repro.obs.collect.Collector` -- attaches to a
  :class:`~repro.machine.Machine` *before threads spawn*, subscribes to
  the probe bus, and assembles hierarchical :class:`~repro.obs.spans.Span`
  intervals over simulated time (run > phase > sync episode / MSA entry
  / NoC message).  Zero-cost when not attached: the default machine
  keeps ``machine.probe is None`` and every emit site is a single
  attribute test.
* :class:`~repro.obs.registry.MetricsRegistry` -- one schema over all
  counters, gauges, and histogram summaries, whatever subsystem they
  came from; merges across runs; exports JSONL (lossless round-trip)
  and Prometheus text format.
* :mod:`~repro.obs.export` -- span JSONL and Chrome trace-event JSON
  (Perfetto-loadable, schema-valid pid/tid on every record).
* :mod:`~repro.obs.html` / :mod:`~repro.obs.report` -- self-contained
  HTML reports: one run (cycle attribution, OMU timeline, NoC latency)
  or a whole cached sweep (``python -m repro report``), rendered
  without re-simulating.

Quickstart (see also ``examples/observability.py`` and
``docs/OBSERVABILITY.md``)::

    from repro.harness.configs import build_machine
    from repro.harness.runner import run_workload
    from repro.workloads.kernels import KERNELS
    from repro.obs import Collector

    machine = build_machine("msa-omu-2", n_cores=4)
    collector = Collector.attach(machine)     # before threads spawn
    result = run_workload(machine, KERNELS["streamcluster"](4, scale=0.1),
                          config="msa-omu-2")
    obs = collector.finalize()
    print(obs.describe())
    obs.to_chrome_trace("trace.json")         # open in Perfetto
    obs.registry.to_prometheus("metrics.prom")
"""

from repro.obs.collect import DEFAULT_SPAN_LIMIT, Collector, ObsResult
from repro.obs.export import (
    spans_from_jsonl,
    spans_to_chrome_trace,
    spans_to_jsonl,
)
from repro.obs.html import render_run_report, render_sweep_report
from repro.obs.registry import Metric, MetricsRegistry, summarize_histogram
from repro.obs.report import load_cache_points, report_from_cache
from repro.obs.spans import Span

__all__ = [
    "Collector",
    "ObsResult",
    "DEFAULT_SPAN_LIMIT",
    "Span",
    "Metric",
    "MetricsRegistry",
    "summarize_histogram",
    "spans_to_jsonl",
    "spans_from_jsonl",
    "spans_to_chrome_trace",
    "render_run_report",
    "render_sweep_report",
    "load_cache_points",
    "report_from_cache",
]
