"""Exact work counters for the hot paths: scheduler hops per operation.

Host time tracks dispatch count (a generator resume costs about the same
as the bookkeeping around it), so the number of events one operation
dispatches is a noise-free regression gate.  Each count is the whole
life of the operation on an otherwise idle simulator, completion
included.

Counts at three points: before the callback-driven NIC issue; after it
(no per-QP sender process or send-queue Store, the flight started in
the issue callback, the response's wire time and RX cost fused into one
delay, kernel messages applied inline by the daemon); and with the
inbound engine booked in closed form (``Rnic.book_inbound``: the
responder's service and pipeline latency are one delay, with no grant
event, service timer or release):

=========================  ======  ========  ======
operation                  before  callback  booked
=========================  ======  ========  ======
RC READ                        15         9       7
DC READ (retargets)            17         9       7
16-WR doorbell batch          240       144     112
``publish_mr`` kernel msg      26        16      13
=========================  ======  ========  ======

Both event cores count the same.
"""

from repro.cluster import Cluster
from repro.krcore.meta import mr_key
from repro.sim import Simulator
from repro.verbs import WorkRequest
from tests.conftest import krcore_cluster, quick_dc_qp, quick_rc_pair, register


def _dispatched(sim, action):
    """Events dispatched from ``action()`` until the simulator idles."""
    sim.run()
    before = sim.events_dispatched
    action()
    sim.run()
    return sim.events_dispatched - before


def _rc_setup():
    sim = Simulator()
    cluster = Cluster(sim, num_nodes=2)
    client, server = cluster.node(0), cluster.node(1)
    qp, _ = quick_rc_pair(client, server)
    laddr, lmr = register(client, 4096)
    raddr, rmr = register(server, 4096)

    def read(**kwargs):
        return WorkRequest.read(laddr, 8, lmr.lkey, raddr, rmr.rkey, **kwargs)

    return sim, qp, read


def test_rc_read_hops():
    sim, qp, read = _rc_setup()
    assert _dispatched(sim, lambda: qp.post_send(read())) == 7


def test_dc_read_hops():
    sim = Simulator()
    cluster = Cluster(sim, num_nodes=2)
    client, server = cluster.node(0), cluster.node(1)
    qp = quick_dc_qp(client)
    target = server.rnic.create_dct_target(dc_key=5)
    laddr, lmr = register(client, 4096)
    raddr, rmr = register(server, 4096)
    wr = WorkRequest.read(
        laddr, 8, lmr.lkey, raddr, rmr.rkey,
        dct_gid=server.gid, dct_number=target.number, dct_key=target.key,
    )
    assert _dispatched(sim, lambda: qp.post_send(wr)) == 7
    assert qp.stats_reconnects == 1


def test_doorbell_batch_hops():
    sim, qp, read = _rc_setup()
    batch = [read(signaled=index == 15) for index in range(16)]
    assert _dispatched(sim, lambda: qp.post_send_batch(batch)) == 112


def test_publish_mr_kernel_message_hops():
    sim = Simulator()
    _cluster, meta, modules = krcore_cluster(sim, num_nodes=3, background_rc=False)
    sender, meta_node = modules[1], modules[0].node
    header = {
        "type": "publish_mr", "gid": sender.node.gid, "rkey": 99, "addr": 0, "len": 64,
    }

    def send():
        sim.process(sender.send_kernel_msg(meta_node.gid, header))

    assert _dispatched(sim, send) == 13
    assert meta.store.get_local(mr_key(sender.node.gid, 99)) is not None
