"""NoC message type.

One message class serves both the coherence protocol and the MSA: the
``kind`` string namespaces the protocol ("coh.*" vs "msa.*") and the
``payload`` carries protocol-specific fields: the line number alone for
coherence traffic (the requester is ``src``), a dict for the MSA.
Keeping this generic lets the network layer stay protocol-agnostic.

The routing prefix (the part of ``kind`` before the first dot) is
computed once at construction and memoized per kind string: the network
consults it at injection (per-protocol counters), coverage checks
(reliable transport), and dispatch, and messages outnumber kinds by many
orders of magnitude.
"""

from __future__ import annotations

import sys
from typing import Any, Dict

from repro.common.types import TileId

#: kind -> interned prefix; kinds form a small closed set, so this stays
#: tiny and makes prefix lookup a single dict hit per construction.
_prefix_of: Dict[str, str] = {}


class Message:
    """A point-to-point NoC message.

    A slotted hand-written class rather than a dataclass: one instance
    is allocated per protocol message (hundreds of thousands per run),
    and ``__slots__`` drops the per-instance dict while the explicit
    ``__init__`` skips dataclass ``__post_init__`` dispatch.  Identity
    semantics (no value ``__eq__``) are intentional -- two distinct
    messages are never "the same message", and nothing ever compared
    them by value.
    """

    __slots__ = (
        "src",
        "dst",
        "kind",
        "payload",
        "injected_at",
        "rel_seq",
        "prefix",
    )

    def __init__(
        self,
        src: TileId,
        dst: TileId,
        kind: str,
        payload: Any = None,
    ):
        self.src = src
        self.dst = dst
        self.kind = kind
        #: Protocol-specific fields (``None`` becomes an empty dict).
        self.payload = {} if payload is None else payload
        #: Cycle the message entered the network (set by the Network).
        self.injected_at = -1
        #: Reliable-transport channel sequence number; ``None`` for
        #: traffic outside the transport (coherence, acks, fault-free
        #: machines).
        self.rel_seq = None
        kp = _prefix_of.get(kind)
        if kp is None:
            kp = _prefix_of[kind] = sys.intern(kind.partition(".")[0])
        #: Interned routing prefix: ``kind`` up to the first dot.
        self.prefix = kp

    def __repr__(self) -> str:
        return (
            f"Message({self.kind} {self.src}->{self.dst} "
            f"{self.payload})"
        )
