"""Dropping a simulation mid-run frees it in one garbage collection."""

import gc

from repro.cluster import Cluster
from repro.sim import Simulator
from repro.verbs import WorkRequest
from tests.conftest import quick_rc_pair, register


def _window_ending_mid_service():
    """A cluster whose run stops with READs holding (and queued for) the
    responder's inbound engine, dropped on return."""
    sim = Simulator()
    cluster = Cluster(sim, num_nodes=2)
    client, server = cluster.node(0), cluster.node(1)
    laddr, lmr = register(client, 4096)
    raddr, rmr = register(server, 4096)
    for _ in range(4):
        qp, _ = quick_rc_pair(client, server)
        qp.post_send_batch(
            [WorkRequest.read(laddr, 4096, lmr.lkey, raddr, rmr.rkey) for _ in range(32)]
        )
    sim.run(until=3_000)
    engine = server.rnic.inbound_engine
    assert engine.in_use == 1 and engine.queue_length > 0


def _live_simulators():
    return sum(isinstance(obj, Simulator) for obj in gc.get_objects())


def test_dropped_simulation_does_not_survive_one_collection():
    """Closing a generator that holds an RNIC engine must not run
    scheduler code: from the garbage collector's finalizer that would
    resurrect the whole dropped cluster until the next collection.
    (A weak reference cannot show it: the collector clears weak
    references before it runs finalizers.)"""
    gc.collect()
    gc.collect()
    before = _live_simulators()
    _window_ending_mid_service()
    gc.collect()
    assert _live_simulators() == before
