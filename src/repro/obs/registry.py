"""The unified metric schema: one registry for every number a run emits.

Before this module, a run's numbers lived in three disconnected shapes:
``StatSet`` counters/histograms on each component, fault counters merged
by the machine, and checker verdicts inside a ``CheckReport`` dict.
:class:`MetricsRegistry` unifies them behind one record type:

* **name** -- dotted metric name (``msa.entries_allocated``,
  ``noc.latency``, ``verify.violations``);
* **kind** -- ``counter`` (monotonic sum), ``gauge`` (point-in-time
  value), or ``histogram`` (distribution summary: count, sum, min, max,
  p50, p90, p99);
* **labels** -- string key/value dimensions (``config``, ``workload``,
  ``tile``, ``core``...), so the same metric from different runs or
  tiles aggregates cleanly.

Ingest from any source -- a live :class:`~repro.machine.Machine`
(:meth:`MetricsRegistry.from_machine`), a cached
:class:`~repro.harness.runner.RunResult`
(:meth:`MetricsRegistry.from_run_result`) -- then export as JSONL
(:meth:`to_jsonl`) or Prometheus text format (:meth:`to_prometheus`).  The JSONL form round-trips losslessly:

>>> reg = MetricsRegistry()
>>> reg.counter("msa.ops_hw", 42, config="msa-omu-2", tile="3")
>>> reg.gauge("run.cycles", 1000, config="msa-omu-2")
>>> back = MetricsRegistry.from_jsonl(reg.to_jsonl())
>>> back.to_jsonl() == reg.to_jsonl()
True
>>> print(back.to_prometheus().splitlines()[0])
# TYPE repro_msa_ops_hw counter
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.common.stats import Histogram, StatSet

#: Metric kinds the registry accepts.
KINDS = ("counter", "gauge", "histogram")

#: Histogram summary statistics carried by a ``histogram`` metric.
SUMMARY_FIELDS = ("count", "sum", "min", "max", "p50", "p90", "p99")


@dataclass
class Metric:
    """One named, labelled measurement."""

    name: str
    kind: str
    labels: Dict[str, str] = field(default_factory=dict)
    value: float = 0.0
    """Scalar for ``counter``/``gauge``; unused for histograms."""

    summary: Optional[Dict[str, float]] = None
    """:data:`SUMMARY_FIELDS` statistics; histograms only."""

    def key(self) -> Tuple:
        return (self.name, tuple(sorted(self.labels.items())))

    def to_dict(self) -> Dict:
        data = {"name": self.name, "kind": self.kind, "labels": self.labels}
        if self.kind == "histogram":
            data["summary"] = self.summary
        else:
            data["value"] = self.value
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "Metric":
        return cls(
            name=data["name"],
            kind=data["kind"],
            labels=dict(data.get("labels", {})),
            value=data.get("value", 0.0),
            summary=data.get("summary"),
        )


def summarize_histogram(hist: Histogram) -> Dict[str, float]:
    """Collapse a :class:`~repro.common.stats.Histogram` into the
    registry's summary form (moments and percentiles exact)."""
    return {
        "count": hist.count,
        "sum": hist.total,
        "min": hist.minimum,
        "max": hist.maximum,
        "p50": hist.percentile(50),
        "p90": hist.percentile(90),
        "p99": hist.percentile(99),
    }


class MetricsRegistry:
    """A mergeable collection of :class:`Metric` records.

    Same-key counters sum, gauges overwrite, and histogram summaries
    merge conservatively (counts/sums add, min/max extend, percentiles
    take the larger -- exact percentile merging would need the samples).
    """

    def __init__(self):
        self._metrics: Dict[Tuple, Metric] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def counter(self, name: str, value: float, **labels) -> None:
        self._scalar("counter", name, value, labels, add=True)

    def gauge(self, name: str, value: float, **labels) -> None:
        self._scalar("gauge", name, value, labels, add=False)

    def histogram(self, name: str, summary: Dict[str, float], **labels) -> None:
        """Record a histogram from its summary dict (see
        :func:`summarize_histogram` for building one from a live
        :class:`~repro.common.stats.Histogram`)."""
        metric = Metric(
            name=name,
            kind="histogram",
            labels={k: str(v) for k, v in labels.items()},
            summary={f: float(summary.get(f, 0.0)) for f in SUMMARY_FIELDS},
        )
        seen = self._metrics.get(metric.key())
        if seen is None:
            self._metrics[metric.key()] = metric
        else:
            merged, new = seen.summary, metric.summary
            if not new["count"]:
                return
            if not merged["count"]:
                merged.update(new)
                return
            merged["count"] += new["count"]
            merged["sum"] += new["sum"]
            merged["min"] = min(merged["min"], new["min"])
            merged["max"] = max(merged["max"], new["max"])
            for p in ("p50", "p90", "p99"):
                merged[p] = max(merged[p], new[p])

    def _scalar(self, kind, name, value, labels, add) -> None:
        metric = Metric(
            name=name,
            kind=kind,
            labels={k: str(v) for k, v in labels.items()},
            value=float(value),
        )
        seen = self._metrics.get(metric.key())
        if seen is None:
            self._metrics[metric.key()] = metric
        elif add:
            seen.value += metric.value
        else:
            seen.value = metric.value

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def add_statset(self, stats: StatSet, prefix: str = "", **labels) -> None:
        """Ingest every counter and histogram of one StatSet."""
        for name, value in stats.counters.items():
            self.counter(prefix + name, value, **labels)
        for name, hist in stats.histograms.items():
            self.histogram(prefix + name, summarize_histogram(hist), **labels)

    def add_counters(self, counters: Dict[str, int], prefix: str = "", **labels) -> None:
        for name, value in counters.items():
            self.counter(prefix + name, value, **labels)

    @classmethod
    def from_machine(cls, machine, **labels) -> "MetricsRegistry":
        """Snapshot every StatSet a live machine owns (MSA slices, sync
        units, NoC, caches, directories, futex, fault plane), labelled
        by component tile/core, plus the run-level gauges."""
        reg = cls()
        for prefix, stats, set_labels in machine.stat_sets():
            merged = dict(labels)
            merged.update(set_labels)
            reg.add_statset(stats, prefix=prefix, **merged)
        if machine.fault_plan is not None:
            reg.add_counters(machine.fault_counters(), prefix="fault.", **labels)
        reg.gauge("run.cycles", machine.sim.now, **labels)
        reg.gauge("run.events", machine.sim.events_processed, **labels)
        coverage = machine.msa_coverage()
        if coverage is not None:
            reg.gauge("run.msa_coverage", coverage, **labels)
        return reg

    @classmethod
    def from_run_result(cls, result, **labels) -> "MetricsRegistry":
        """Ingest a (possibly cache-loaded) RunResult: the aggregated
        counter groups, workload metrics, fault counters, and -- when
        the run was checked -- the checker verdict as metrics."""
        reg = cls()
        labels = dict(labels)
        labels.setdefault("config", result.config)
        labels.setdefault("workload", result.workload)
        labels.setdefault("cores", str(result.n_cores))
        reg.gauge("run.cycles", result.cycles, **labels)
        if result.msa_coverage is not None:
            reg.gauge("run.msa_coverage", result.msa_coverage, **labels)
        reg.add_counters(result.msa_counters, prefix="msa.", **labels)
        reg.add_counters(result.sync_unit_counters, prefix="sync.", **labels)
        reg.add_counters(result.noc_counters, prefix="noc.", **labels)
        reg.add_counters(result.fault_counters, prefix="fault.", **labels)
        for name, value in result.workload_metrics.items():
            reg.gauge("workload." + name, value, **labels)
        report = result.check_report
        if report is not None:
            reg.gauge("verify.ok", 1.0 if report.get("ok") else 0.0, **labels)
            reg.gauge(
                "verify.violations", len(report.get("violations", [])), **labels
            )
            reg.gauge("verify.races", len(report.get("races", [])), **labels)
            reg.gauge(
                "verify.events_observed",
                report.get("events_observed", 0),
                **labels,
            )
        return reg

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in (counters sum, gauges overwrite,
        histogram summaries merge)."""
        for metric in other.metrics():
            if metric.kind == "histogram":
                self.histogram(metric.name, metric.summary, **metric.labels)
            elif metric.kind == "counter":
                self.counter(metric.name, metric.value, **metric.labels)
            else:
                self.gauge(metric.name, metric.value, **metric.labels)

    # ------------------------------------------------------------------
    # Access / export
    # ------------------------------------------------------------------
    def metrics(self) -> List[Metric]:
        """All metrics in deterministic (name, labels) order."""
        return [self._metrics[k] for k in sorted(self._metrics)]

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str, **labels) -> Optional[Metric]:
        return self._metrics.get(
            (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        )

    def to_jsonl(self, path=None) -> str:
        """One JSON object per metric, sorted keys, deterministic order;
        writes to ``path`` when given and returns the text either way."""
        lines = [
            json.dumps(m.to_dict(), sort_keys=True) for m in self.metrics()
        ]
        text = "\n".join(lines) + ("\n" if lines else "")
        if path is not None:
            with open(path, "w") as f:
                f.write(text)
        return text

    @classmethod
    def from_jsonl(cls, text: str) -> "MetricsRegistry":
        """Inverse of :meth:`to_jsonl`."""
        reg = cls()
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            metric = Metric.from_dict(json.loads(line))
            reg._metrics[metric.key()] = metric
        return reg

    def to_prometheus(self, path=None, prefix: str = "repro_") -> str:
        """Prometheus text exposition format.

        Counter/gauge metrics map directly; histogram summaries map to
        the ``summary`` type (``_count``/``_sum`` plus ``quantile``
        lines).  Names are sanitized to the Prometheus charset with the
        given ``prefix``.
        """
        by_name: Dict[str, List[Metric]] = {}
        for metric in self.metrics():
            by_name.setdefault(metric.name, []).append(metric)
        lines: List[str] = []
        for name in sorted(by_name):
            group = by_name[name]
            prom = prefix + _sanitize(name)
            kind = group[0].kind
            lines.append(
                f"# TYPE {prom} "
                + {"counter": "counter", "gauge": "gauge", "histogram": "summary"}[kind]
            )
            for metric in group:
                if kind == "histogram":
                    s = metric.summary or {}
                    for q, pf in (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99")):
                        lines.append(
                            prom
                            + _label_str(metric.labels, quantile=q)
                            + f" {_fmt(s.get(pf, 0.0))}"
                        )
                    lines.append(
                        prom + "_count" + _label_str(metric.labels)
                        + f" {_fmt(s.get('count', 0.0))}"
                    )
                    lines.append(
                        prom + "_sum" + _label_str(metric.labels)
                        + f" {_fmt(s.get('sum', 0.0))}"
                    )
                else:
                    lines.append(
                        prom + _label_str(metric.labels) + f" {_fmt(metric.value)}"
                    )
        text = "\n".join(lines) + ("\n" if lines else "")
        if path is not None:
            with open(path, "w") as f:
                f.write(text)
        return text


_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _sanitize(name: str) -> str:
    clean = _SANITIZE_RE.sub("_", name)
    if clean and clean[0].isdigit():
        clean = "_" + clean
    return clean


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_str(labels: Dict[str, str], **extra) -> str:
    items = sorted(labels.items()) + sorted(extra.items())
    if not items:
        return ""
    body = ",".join(
        f'{_sanitize(k)}="{_escape_label(str(v))}"' for k, v in items
    )
    return "{" + body + "}"


def _fmt(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))
