"""Unit and property tests for the 2D-mesh NoC."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError, SimulationError
from repro.common.params import NocParams
from repro.common.stats import StatSet
from repro.common.types import TileCoord
from repro.noc.message import Message
from repro.noc.network import Network
from repro.noc.router import Link
from repro.noc.topology import MeshTopology
from repro.sim.kernel import HOP, Simulator


class TestTopology:
    def test_requires_square_tile_count(self):
        with pytest.raises(ConfigError):
            MeshTopology(10)

    def test_coords_row_major(self):
        mesh = MeshTopology(16)
        assert (mesh.coord(0).x, mesh.coord(0).y) == (0, 0)
        assert (mesh.coord(5).x, mesh.coord(5).y) == (1, 1)
        assert (mesh.coord(15).x, mesh.coord(15).y) == (3, 3)

    def test_coord_roundtrip(self):
        mesh = MeshTopology(64)
        for tile in range(64):
            assert mesh.tile_at(mesh.coord(tile)) == tile

    def test_hops_manhattan(self):
        mesh = MeshTopology(16)
        assert mesh.hops(0, 15) == 6
        assert mesh.hops(0, 0) == 0
        assert mesh.hops(0, 3) == 3

    def test_route_is_xy(self):
        mesh = MeshTopology(16)
        # From (0,0) to (2,1): x first, then y.
        assert mesh.route(0, 6) == [0, 1, 2, 6]

    def test_route_endpoints_and_length(self):
        mesh = MeshTopology(64)
        for src, dst in [(0, 63), (17, 42), (5, 5), (63, 0)]:
            path = mesh.route(src, dst)
            assert path[0] == src and path[-1] == dst
            assert len(path) == mesh.hops(src, dst) + 1

    def test_neighbors_corner_edge_center(self):
        mesh = MeshTopology(16)
        assert sorted(mesh.neighbors(0)) == [1, 4]
        assert sorted(mesh.neighbors(1)) == [0, 2, 5]
        assert sorted(mesh.neighbors(5)) == [1, 4, 6, 9]

    @pytest.mark.parametrize("n_tiles", [16, 64])
    def test_integer_route_matches_coordinate_walk(self, n_tiles):
        """``route`` steps tile ids; it must equal the XY walk over
        TileCoords for every (src, dst) pair."""
        mesh = MeshTopology(n_tiles)

        def walk(src, dst):
            path = [src]
            cur, goal = mesh.coord(src), mesh.coord(dst)
            while cur.x != goal.x:
                cur = TileCoord(cur.x + (1 if goal.x > cur.x else -1), cur.y)
                path.append(mesh.tile_at(cur))
            while cur.y != goal.y:
                cur = TileCoord(cur.x, cur.y + (1 if goal.y > cur.y else -1))
                path.append(mesh.tile_at(cur))
            return path

        for src in range(n_tiles):
            for dst in range(n_tiles):
                assert mesh.route(src, dst) == walk(src, dst)

    @pytest.mark.parametrize("src, dst", [(-1, 3), (3, 16), (16, 0), (0, -1)])
    def test_route_out_of_range_raises(self, src, dst):
        with pytest.raises(ConfigError):
            MeshTopology(16).route(src, dst)

    @given(st.integers(0, 63), st.integers(0, 63))
    def test_route_hops_symmetric_count(self, src, dst):
        mesh = MeshTopology(64)
        assert mesh.hops(src, dst) == mesh.hops(dst, src)


def _make_network(n_tiles=16, **noc_kwargs):
    sim = Simulator()
    network = Network(sim, n_tiles, NocParams(**noc_kwargs))
    return sim, network


class TestNetworkDelivery:
    def test_message_delivered_to_registered_handler(self):
        sim, net = _make_network()
        got = []
        net.register(5, "test", got.append)
        net.send(Message(src=0, dst=5, kind="test.ping", payload={"x": 1}))
        sim.run()
        assert len(got) == 1 and got[0].payload == {"x": 1}

    def test_unregistered_destination_raises(self):
        sim, net = _make_network()
        net.send(Message(src=0, dst=3, kind="test.ping"))
        with pytest.raises(Exception):
            sim.run()

    def test_local_delivery_pays_injection_latency(self):
        sim, net = _make_network()
        seen = []
        net.register(2, "t", lambda m: seen.append(sim.now))
        net.send(Message(src=2, dst=2, kind="t.x"))
        sim.run()
        assert seen == [net.params.injection_latency]

    def test_latency_proportional_to_hops(self):
        sim, net = _make_network()
        seen = {}
        net.register(1, "t", lambda m: seen.setdefault(1, sim.now))
        net.register(15, "t", lambda m: seen.setdefault(15, sim.now))
        net.send(Message(src=0, dst=1, kind="t.x"))
        net.send(Message(src=0, dst=15, kind="t.x"))
        sim.run()
        assert seen[15] > seen[1]

    def test_fifo_order_same_source_destination(self):
        """Messages from one source to one destination arrive in send
        order -- the property the MSA's silent/revoke protocols rely on."""
        sim, net = _make_network()
        got = []
        net.register(12, "t", lambda m: got.append(m.payload["seq"]))
        for seq in range(20):
            net.send(Message(src=3, dst=12, kind="t.x", payload={"seq": seq}))
        sim.run()
        assert got == list(range(20))

    def test_fifo_order_holds_with_staggered_injection(self):
        sim, net = _make_network()
        got = []
        net.register(15, "t", lambda m: got.append(m.payload["seq"]))

        def inject(seq):
            net.send(Message(src=0, dst=15, kind="t.x", payload={"seq": seq}))

        for seq in range(10):
            sim.schedule(seq * 2, lambda s=seq: inject(s))
        sim.run()
        assert got == list(range(10))

    def test_exactly_once_delivery_under_load(self):
        sim, net = _make_network(n_tiles=16)
        received = []
        for tile in range(16):
            net.register(tile, "t", received.append)
        sent = []
        for src in range(16):
            for dst in range(16):
                msg = Message(src=src, dst=dst, kind="t.x")
                sent.append(msg)
                net.send(msg)
        sim.run()
        # Messages compare by identity; every one is kept alive in
        # ``sent``, so their ids are distinct.
        assert len(received) == len(sent)
        assert {id(m) for m in received} == {id(m) for m in sent}

    def test_contention_delays_hotspot_traffic(self):
        """Many senders to one destination must see queuing delay."""
        sim1, quiet = _make_network()
        done = {}
        quiet.register(0, "t", lambda m: done.setdefault("quiet", sim1.now))
        quiet.send(Message(src=15, dst=0, kind="t.x"))
        sim1.run()

        sim2, busy = _make_network()
        arrivals = []
        busy.register(0, "t", lambda m: arrivals.append(sim2.now))
        for src in range(1, 16):
            busy.send(Message(src=src, dst=0, kind="t.x"))
        busy.send(Message(src=15, dst=0, kind="t.y"))
        sim2.run()
        assert max(arrivals) > done["quiet"]
        assert busy.stats.counter("link_stall_cycles").value > 0


def _hotspot(sim, net):
    """Every other tile sends twice to tile 0 at cycle 0: the links into
    tile 0 queue.  Returns the delivery log, filled as the run goes."""
    got = []
    net.register(0, "t", lambda m: got.append((sim.now, m.payload["seq"])))
    for seq, src in enumerate(list(range(1, 16)) * 2):
        net.send(Message(src=src, dst=0, kind="t.x", payload={"seq": seq}))
    return got


class TestKernelHop:
    """A hop is a kernel event kind (``HOP``) the simulator's drain loop
    runs inline, with the timing the link fabric registered."""

    def test_uncontended_network_registers_no_stall_counter(self):
        sim, net = _make_network()
        net.register(3, "t", lambda m: None)
        net.send(Message(src=12, dst=3, kind="t.x"))
        sim.run()
        assert "link_stall_cycles" not in net.stats.counters

    def test_contended_network_counts_stall_cycles(self):
        sim, net = _make_network()
        got = _hotspot(sim, net)
        sim.run()
        # Pinned: stall total, event count and delivery order belong to
        # the determinism contract (values from the per-hop callback
        # this kernel event kind replaced).
        assert net.stats.counters["link_stall_cycles"] == 121
        assert sim.events_processed == 126
        assert got[:3] == [(4, 0), (4, 3), (5, 15)]
        assert got[-1] == (28, 29)

    def test_single_event_chunks_match_run(self):
        """Drained one event at a time, a multi-hop program delivers at
        the same cycles and in the same order as one ``run()``."""
        sim, net = _make_network()
        whole = _hotspot(sim, net)
        sim.run()
        sim, net = _make_network()
        chunked = _hotspot(sim, net)
        steps = 0
        while sim.run_chunk(1):
            steps += 1
        assert chunked == whole
        assert steps == sim.events_processed == 126

    @staticmethod
    def _same_cycle_program(sim, preexisting):
        """Hop A, a plain callback and hop C, all in cycle 0, each
        queueing an event for cycle 3 (occupancy 2 + router latency 1,
        on two free links); ``preexisting`` first queues an event there
        from outside the bucket.  Returns the delivery log."""
        sim.attach_links(2, 1, StatSet("noc"))
        log = []

        def deliver(name):
            log.append((sim.now, name))

        if preexisting:
            sim.schedule(3, deliver, "pre")
        sim.schedule(0, HOP, [[Link()], -1, deliver, "A'"])
        sim.schedule(0, lambda: sim.schedule(3, deliver, "callback'"))
        sim.schedule(0, HOP, [[Link()], -1, deliver, "C'"])
        return log

    @pytest.mark.parametrize("preexisting", [False, True])
    def test_hops_into_one_cycle_keep_scheduling_order(self, preexisting):
        """The drain loop reuses the bucket a hop of the current cycle
        last appended to; a callback scheduling into that bucket between
        two such hops must still land between their events."""
        sim = Simulator()
        log = self._same_cycle_program(sim, preexisting)
        sim.run()
        expected = [(3, "A'"), (3, "callback'"), (3, "C'")]
        if preexisting:
            expected.insert(0, (3, "pre"))
        assert log == expected
        whole_events = sim.events_processed
        sim = Simulator()
        chunked = self._same_cycle_program(sim, preexisting)
        while sim.run_chunk(1):
            pass
        assert chunked == log
        assert sim.events_processed == whole_events

    def test_second_network_on_one_simulator_raises(self):
        sim, _net = _make_network()
        with pytest.raises(SimulationError):
            Network(sim, 16)


class TestNetworkStats:
    def test_counters_track_sends_and_deliveries(self):
        sim, net = _make_network()
        net.register(1, "coh", lambda m: None)
        net.register(1, "msa", lambda m: None)
        net.send(Message(src=0, dst=1, kind="coh.gets"))
        net.send(Message(src=0, dst=1, kind="msa.req"))
        sim.run()
        assert net.stats.counter("messages_sent").value == 2
        assert net.stats.counter("messages_delivered").value == 2
        assert net.stats.counter("sent.coh").value == 1
        assert net.stats.counter("sent.msa").value == 1

    def test_round_trip_estimate_monotonic_in_distance(self):
        _, net = _make_network(n_tiles=64)
        estimates = [net.round_trip_estimate(0, d) for d in (0, 1, 9, 63)]
        assert estimates == sorted(estimates)
        assert estimates[0] < estimates[-1]


@settings(max_examples=25, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15), st.integers(0, 50)),
        min_size=1,
        max_size=40,
    )
)
def test_property_all_messages_delivered_exactly_once(pairs):
    sim = Simulator()
    net = Network(sim, 16)
    delivered = []
    for tile in range(16):
        net.register(tile, "t", delivered.append)
    sent = []
    for src, dst, when in pairs:
        def send(s=src, d=dst):
            msg = Message(src=s, dst=d, kind="t.x")
            sent.append(msg)
            net.send(msg)
        sim.schedule(when, send)
    sim.run()
    assert len(delivered) == len(sent)
    assert {id(m) for m in delivered} == {id(m) for m in sent}
