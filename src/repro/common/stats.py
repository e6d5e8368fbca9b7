"""Lightweight statistics primitives used by every hardware model.

Each component owns a :class:`StatSet`; the harness aggregates them into
experiment reports.  Keeping these tiny (plain ints and dicts) matters:
they sit on the hot path of the event simulation.  Hot components bind
what they touch per event to attributes at construction, so the
per-event cost is one inline update, not a registry lookup or a call:

* a counter: ``self._hits = stats.counter("hits")``, then
  ``self._hits.value += 1``;
* a histogram's value counts:
  ``self._lat = stats.histogram("latency").counts``, then
  ``lat[v] = lat.get(v, 0) + 1`` (``lat = self._lat``).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List


class Counter:
    """A monotonically increasing event counter.

    ``value`` is public on purpose: hot paths do ``c.value += n``
    directly; :meth:`inc` is the convenience form for cold paths.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Histogram:
    """Records samples as value counts; reports count/mean/min/max and
    nearest-rank percentiles.

    ``counts`` maps each distinct sampled value to how many times it
    was seen, so memory is bounded by the number of distinct values,
    not by the run's length.  Every read is derived from ``counts`` when
    it is made; for integer-valued samples (every histogram the machine
    records: NoC and L1 latencies, span durations, request sojourns)
    each read is exactly what a list of the samples would give.

    ``counts`` is public on purpose, like :attr:`Counter.value`: hot
    paths bind it once and count inline,
    ``counts[v] = counts.get(v, 0) + 1``, saving the :meth:`add` call
    per sample.  :meth:`reset` clears it in place, so a bound ``counts``
    stays live.
    """

    __slots__ = ("name", "counts")

    def __init__(self, name: str):
        self.name = name
        self.counts: Dict[float, int] = {}

    def add(self, value: float) -> None:
        counts = self.counts
        counts[value] = counts.get(value, 0) + 1

    def reset(self) -> None:
        self.counts.clear()

    @property
    def count(self) -> int:
        return sum(self.counts.values())

    @property
    def total(self) -> float:
        return float(sum(v * n for v, n in self.counts.items()))

    @property
    def mean(self) -> float:
        count = self.count
        return self.total / count if count else 0.0

    @property
    def maximum(self) -> float:
        return max(self.counts) if self.counts else 0.0

    @property
    def minimum(self) -> float:
        return min(self.counts) if self.counts else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100]."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        return self._ranked([p / 100.0])[0]

    def quantiles(self, qs: Iterable[float]) -> List[float]:
        """Nearest-rank values for a batch of quantiles, each in [0, 1].

        One walk of the sorted distinct values serves the whole batch,
        so SLO reporting asks for ``quantiles([0.5, 0.99, 0.999])``
        instead of three independent percentile calls.

        >>> h = Histogram("lat")
        >>> for v in range(1, 101):
        ...     h.add(float(v))
        >>> h.quantiles([0.5, 0.99, 0.999])
        [50.0, 99.0, 100.0]
        """
        qs = list(qs)
        for q in qs:
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"quantile must be in [0, 1], got {q}")
        return self._ranked(qs)

    def _ranked(self, qs: List[float]) -> List[float]:
        """The sample at nearest rank ``ceil(q * count)`` for each ``q``:
        walk the distinct values in order, accumulating their counts,
        until the running count passes the (zero-based) rank."""
        counts = self.counts
        if not counts:
            return [0.0 for _ in qs]
        n = sum(counts.values())
        order = sorted(range(len(qs)), key=qs.__getitem__)
        out: List[float] = [0.0] * len(qs)
        values = iter(sorted(counts))
        value = next(values)
        seen = counts[value]
        for i in order:
            rank = max(0, math.ceil(qs[i] * n) - 1)
            while seen <= rank:
                value = next(values)
                seen += counts[value]
            out[i] = value
        return out

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name}, n={self.count}, mean={self.mean:.1f})"
        )


class StatSet:
    """A named collection of counters and histograms.

    Components create their stats once at construction::

        stats = StatSet("msa.tile3")
        stats.counter("lock_requests")
        ...
        stats["lock_requests"].inc()
    """

    def __init__(self, name: str):
        self.name = name
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def histogram(self, name: str) -> Histogram:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(name)
        return hist

    def __getitem__(self, name: str):
        if name in self._counters:
            return self._counters[name]
        if name in self._histograms:
            return self._histograms[name]
        raise KeyError(f"{self.name} has no stat {name!r}")

    def __contains__(self, name: str) -> bool:
        return name in self._counters or name in self._histograms

    @property
    def counters(self) -> Dict[str, int]:
        return {k: c.value for k, c in self._counters.items()}

    @property
    def histograms(self) -> Dict[str, Histogram]:
        return dict(self._histograms)

    def reset(self) -> None:
        for c in self._counters.values():
            c.reset()
        for h in self._histograms.values():
            h.reset()

    def as_dict(self) -> Dict[str, float]:
        """Flattened snapshot, suitable for reports."""
        snapshot: Dict[str, float] = {
            k: c.value for k, c in self._counters.items()
        }
        for key, hist in self._histograms.items():
            snapshot[f"{key}.count"] = hist.count
            snapshot[f"{key}.mean"] = hist.mean
            snapshot[f"{key}.max"] = hist.maximum
        return snapshot


def merge_counters(stat_sets: Iterable[StatSet]) -> Dict[str, int]:
    """Sum same-named counters across a collection of StatSets."""
    merged: Dict[str, int] = {}
    get = merged.get
    for stats in stat_sets:
        for key, counter in stats._counters.items():
            merged[key] = get(key, 0) + counter.value
    return merged


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; ignores non-positive values defensively."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))
