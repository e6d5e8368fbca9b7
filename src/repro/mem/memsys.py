"""Memory-system assembly.

:class:`MemoryFabric` builds one directory slice per tile and one L1 per
core over a shared :class:`~repro.noc.network.Network`; a thread issues
its memory operations straight to its core's L1 (``l1s[core]``).
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.params import MachineParams
from repro.mem.address import AddressMap
from repro.mem.directory import DirectorySlice
from repro.mem.l1 import L1Cache
from repro.noc.network import Network
from repro.sim.kernel import Simulator


class MemoryFabric:
    """All caches, directories, and the backing store of one machine."""

    def __init__(self, sim: Simulator, network: Network, params: MachineParams):
        self.sim = sim
        self.network = network
        self.params = params
        self.amap = AddressMap(params.n_cores, params.l1.line_size)
        self.backing_store: Dict[int, int] = {}
        self.directories: List[DirectorySlice] = [
            DirectorySlice(sim, network, tile, params.llc)
            for tile in range(params.n_cores)
        ]
        self.l1s: List[L1Cache] = [
            L1Cache(
                sim,
                network,
                core,
                params.l1,
                self.backing_store,
                self.amap.home_of_line,
            )
            for core in range(params.n_cores)
        ]

    def stat_sets(self):
        """Yield ``(prefix, StatSet, labels)`` for every stats-bearing
        memory component (the observability registry's ingest shape)."""
        for tile, directory in enumerate(self.directories):
            yield "dir.", directory.stats, {"tile": tile}
        for core, l1 in enumerate(self.l1s):
            yield "l1.", l1.stats, {"core": core}

    def peek(self, addr: int) -> int:
        """Read the backing store without any simulated traffic
        (debug/verification only)."""
        return self.backing_store.get(addr, 0)

    def poke(self, addr: int, value: int) -> None:
        """Write the backing store directly (workload initialization)."""
        self.backing_store[addr] = value

    def check_invariants(self) -> None:
        """MESI safety: at most one owner per line, owner excludes
        sharers at other cores, directory sharers are a superset of the
        caches actually holding the line.  Raises on violation."""
        from repro.common.errors import ProtocolError
        from repro.common.types import CacheState

        holders: Dict[int, List] = {}
        for l1 in self.l1s:
            for bucket in l1._sets.values():
                for line, state in bucket.items():
                    holders.setdefault(line, []).append((l1.core_id, state))
        for line, who in holders.items():
            writers = [c for c, s in who if s.can_write]
            if len(writers) > 1:
                raise ProtocolError(f"line {line}: multiple writers {writers}")
            if writers and len(who) > 1:
                raise ProtocolError(
                    f"line {line}: writer {writers[0]} coexists with {who}"
                )
