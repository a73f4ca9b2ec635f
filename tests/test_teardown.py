"""Dropping a simulation mid-run frees it in one garbage collection."""

import gc

from repro.cluster import Cluster, timing
from repro.sim import MS, US, Simulator
from repro.verbs import WorkRequest
from tests.conftest import krcore_cluster, quick_rc_pair, register


def _window_ending_mid_service():
    """A cluster whose run stops with READs booked on the responder's
    inbound engine past ``sim.now``, dropped on return."""
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
    assert server.rnic._inbound_free_at > sim.now


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


def _mr_check_stopped_mid_backoff():
    """A KRCORE cluster whose run stops while an MR check, its first meta
    lookup failed by an outage, sleeps out its retry backoff."""
    sim = Simulator()
    _cluster, meta, modules = krcore_cluster(sim, num_nodes=3)
    sim.run()
    meta.set_outage(10 * MS)
    began = sim.now
    check = sim.process(modules[1].mr_store.check(modules[2].node.gid, 12345, 0, 8))
    # The first lookup fails after one outage probe; the backoff after it
    # lasts at least three quarters of the base.
    stop = timing.META_OUTAGE_PROBE_NS + 6 * US
    assert stop < timing.META_OUTAGE_PROBE_NS + timing.KRCORE_BACKOFF_BASE_NS * 3 // 4
    sim.run(until=began + stop)
    assert check.is_alive


def test_dropped_simulation_mid_backoff_does_not_survive_one_collection():
    """A retry loop must not sleep inside its ``except`` block: the
    suspended frame would keep the error's traceback, and through it the
    frames it names, alive; closing it from the collector then hands
    those frames a new, tracked owner and resurrects the cluster."""
    gc.collect()
    gc.collect()
    before = _live_simulators()
    _mr_check_stopped_mid_backoff()
    gc.collect()
    assert _live_simulators() == before
