"""The span model: hierarchical intervals over *simulated* time.

A :class:`Span` is one named interval of simulated cycles -- a lock
acquisition, a barrier episode, an MSA entry's hardware residency, a
NoC message in flight, a workload phase, or the whole run.  Spans form
a forest through ``parent`` references (span ids); the root of every
observed run is the ``run`` span the collector opens at attach time.

Canonical span names (``Span.name``), grouped by category
(``Span.cat``):

===========  =================  =======================================
category     name               interval
===========  =================  =======================================
run          run                collector attach .. finalize
phase        phase              an explicit ``collector.phase("...")``
sync         lock.acquire       ``lock_req`` .. ``lock_acq``
sync         lock.held          ``lock_acq`` .. ``lock_rel`` (includes
                                any ``cond_wait`` inside, which
                                releases the lock internally)
sync         barrier.wait       ``barrier_enter`` .. ``barrier_exit``
sync         cond.wait          ``cond_wait_begin`` .. ``cond_wait_end``
msa          msa.entry          ``msa_alloc`` .. ``msa_free``
noc          noc.msg            ``noc_send`` .. ``noc_deliver``
traffic      request.ok         scheduled arrival .. ``req_done``
                                (sojourn: queueing + service)
traffic      request.timeout    scheduled arrival .. deadline drop
traffic      request.shed       scheduled arrival .. ``req_shed``
<kind>       <kind>.<what>      zero length, at one ``msa_respond``,
                                ``sched``, ``fault``, ``retry`` or
                                ``degrade`` probe event (e.g.
                                ``msa_respond.success``,
                                ``sched.migrate``, ``fault.drop``)
===========  =================  =======================================

Spans serialize to plain dicts (:meth:`Span.to_dict` /
:meth:`Span.from_dict`) so they survive JSONL files and the exporters
in :mod:`repro.obs.export`.

>>> s = Span(sid=1, name="lock.acquire", cat="sync", start=10, end=42,
...          tid=3, attrs={"addr": 4096})
>>> s.duration
32
>>> Span.from_dict(s.to_dict()) == s
True
"""

from __future__ import annotations

from typing import Dict, Optional

#: Field order of the serialized form (kept stable for JSONL readers).
_FIELDS = ("sid", "name", "cat", "start", "end", "tid", "tile", "parent", "attrs")


class Span:
    """One named interval of simulated time.  ``end`` is ``None`` while
    the span is open; :meth:`close` sets it."""

    __slots__ = _FIELDS

    def __init__(
        self,
        sid: int,
        name: str,
        cat: str,
        start: int,
        end: Optional[int] = None,
        tid: Optional[int] = None,
        tile: Optional[int] = None,
        parent: Optional[int] = None,
        attrs: Optional[Dict] = None,
    ):
        self.sid = sid
        self.name = name
        self.cat = cat
        self.start = start
        self.end = end
        self.tid = tid
        self.tile = tile
        self.parent = parent
        self.attrs = attrs or {}

    @property
    def open(self) -> bool:
        return self.end is None

    @property
    def duration(self) -> int:
        """Closed duration in cycles (0 while the span is still open)."""
        return 0 if self.end is None else self.end - self.start

    def close(self, now: int) -> "Span":
        self.end = now
        return self

    def to_dict(self) -> Dict:
        """JSON-ready dict (insertion order = :data:`_FIELDS` order)."""
        return {f: getattr(self, f) for f in _FIELDS}

    @classmethod
    def from_dict(cls, data: Dict) -> "Span":
        return cls(**{f: data.get(f) for f in _FIELDS})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Span):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in _FIELDS)

    def __repr__(self) -> str:
        span = f"{self.start}..{'open' if self.end is None else self.end}"
        who = f" tid={self.tid}" if self.tid is not None else ""
        where = f" tile={self.tile}" if self.tile is not None else ""
        return f"Span({self.sid} {self.name} [{span}]{who}{where})"
