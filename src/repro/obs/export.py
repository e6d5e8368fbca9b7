"""Span exporters: JSONL and Chrome trace-event format.

Three interchange formats leave the observability layer:

* **Spans as JSONL** -- one :class:`~repro.obs.spans.Span` dict per
  line plus a final metadata line (retention drops), the lossless form
  (:func:`spans_to_jsonl` / :func:`spans_from_jsonl` round-trip).
* **Chrome trace-event JSON** -- complete duration events (``ph: "X"``)
  loadable in Perfetto / ``chrome://tracing``; one process per span
  category, one virtual thread per ``tid``/``tile``
  (:func:`spans_to_chrome_trace`).  Every record carries integer
  ``pid``/``tid`` fields, which the viewers require.
* **Prometheus / metrics JSONL** -- see
  :class:`repro.obs.registry.MetricsRegistry`.

Unpaired probe events (MSA responses, scheduler moves, fault, retry
and degrade decisions) arrive here as zero-length spans named
``<kind>.<what>``; there is no second exporter for raw events.

>>> from repro.obs.spans import Span
>>> spans = [Span(1, "run", "run", 0, 90), Span(2, "lock.acquire",
...          "sync", 5, 17, tid=0, parent=1, attrs={"addr": 64})]
>>> spans_from_jsonl(spans_to_jsonl(spans)) == spans
True
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.obs.spans import Span


def spans_to_jsonl(
    spans: List[Span], path=None, dropped: Optional[Dict[str, int]] = None
) -> str:
    """Serialize spans as JSON Lines (one span per line, sorted keys);
    a final ``{"meta": "obs.spans", ...}`` line records retention
    drops.  Writes to ``path`` when given; returns the text."""
    lines = [json.dumps(s.to_dict(), sort_keys=True) for s in spans]
    if dropped:
        lines.append(
            json.dumps(
                {"meta": "obs.spans", "dropped": dict(sorted(dropped.items()))},
                sort_keys=True,
            )
        )
    text = "\n".join(lines) + ("\n" if lines else "")
    if path is not None:
        with open(path, "w") as f:
            f.write(text)
    return text


def spans_from_jsonl(text: str) -> List[Span]:
    """Inverse of :func:`spans_to_jsonl` (metadata lines are skipped)."""
    spans = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        data = json.loads(line)
        if "meta" in data:
            continue
        spans.append(Span.from_dict(data))
    return spans


def spans_to_chrome_trace(spans: List[Span], path=None) -> str:
    """Export spans as Chrome trace-event JSON.

    Layout: one *process* per span category (``run``, ``phase``,
    ``sync``, ``msa``, ``noc``), one *thread* per ``tid`` (sync spans)
    or ``tile`` (msa/noc spans); closed spans are complete events
    (``ph: "X"`` with ``dur``), still-open spans instants (``ph: "i"``).
    Cycle timestamps map onto the microsecond field.  Every event
    carries integer ``pid`` and ``tid`` fields (viewers drop records
    without them).
    """
    categories = sorted({s.cat for s in spans})
    pids = {cat: index + 1 for index, cat in enumerate(categories)}
    out = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pids[cat],
            "tid": 0,
            "args": {"name": f"obs.{cat}"},
        }
        for cat in categories
    ]
    thread_names = {}
    for span in spans:
        pid = pids[span.cat]
        tid, tname = _virtual_thread(span)
        if (pid, tid) not in thread_names:
            thread_names[(pid, tid)] = tname
            out.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": tname},
                }
            )
        name = span.name
        if span.name == "phase" and span.attrs.get("label"):
            name = f"phase:{span.attrs['label']}"
        record = {
            "name": name,
            "cat": span.cat,
            "pid": pid,
            "tid": tid,
            "ts": span.start,
            "args": {
                k: (v if isinstance(v, (int, float, str, bool)) else str(v))
                for k, v in span.attrs.items()
            },
        }
        if span.end is None:
            record["ph"] = "i"
            record["s"] = "t"
        else:
            record["ph"] = "X"
            record["dur"] = span.duration
        out.append(record)
    text = json.dumps({"traceEvents": out, "displayTimeUnit": "ns"})
    if path is not None:
        with open(path, "w") as f:
            f.write(text)
    return text


def _virtual_thread(span: Span):
    """(tid number, display name) for a span's virtual thread."""
    if span.tid is not None:
        return int(span.tid), f"thread {span.tid}"
    if span.tile is not None:
        return int(span.tile), f"tile {span.tile}"
    return 0, "machine"
