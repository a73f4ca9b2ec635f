"""The closed-form inbound engine equals a queued FIFO server.

``Rnic.book_inbound`` starts each op at ``max(arrival, free_at)`` and
moves ``free_at`` to its end.  The reference below is the engine it
replaced: a capacity-1 ``Resource`` that each op acquires, holds for its
service and releases, with the same degrade window and fractional-ns
carry.  For random arrivals, fractional services, inbound stalls and
duplicated requests (re-served once the original's service ends), both
must give every op the same start and end, and count the same ops
served.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.sim import Resource, Simulator
from repro.verbs import Opcode


class ReferenceEngine:
    """The queued inbound engine: acquire, hold for the service, release."""

    def __init__(self, sim, degraded_until, factor):
        self.sim = sim
        self.resource = Resource(sim, capacity=1)
        self.degraded_until = degraded_until
        self.factor = factor
        self.carry = 0.0
        self.ends = []  # end of every served op (stalls excluded)

    def whole(self, service_ns):
        if self.sim.now < self.degraded_until:
            service_ns = service_ns * self.factor
        total = service_ns + self.carry
        whole = int(total)
        self.carry = total - whole
        return whole

    def serve(self, whole, intervals, counted=True):
        grant = yield self.resource.acquire()
        start = self.sim.now
        yield whole
        self.resource.release(grant)
        intervals.append((start, self.sim.now))
        if counted:
            self.ends.append(self.sim.now)


def _reference(ops, degraded_until, factor):
    sim = Simulator()
    engine = ReferenceEngine(sim, degraded_until, factor)
    intervals = [[] for _ in ops]

    def op(index, arrival, kind, amount):
        yield arrival
        if kind == "stall":
            yield from engine.serve(amount, intervals[index], counted=False)
            return
        whole = engine.whole(amount)
        yield from engine.serve(whole, intervals[index])
        if kind == "dup":
            yield from engine.serve(whole, intervals[index])

    for index, (arrival, kind, amount) in enumerate(ops):
        sim.process(op(index, arrival, kind, amount))
    sim.run()
    return intervals, engine.ends


def _booked(ops, degraded_until, factor, probes):
    sim = Simulator()
    rnic = Cluster(sim, num_nodes=1).node(0).rnic
    if degraded_until:
        rnic.set_degraded(degraded_until, factor)
    intervals = [[] for _ in ops]
    served = {}

    def op(index, arrival, kind, amount):
        yield arrival
        if kind == "stall":
            yield from rnic.stall(amount, engine="inbound")
            intervals[index].append((sim.now - amount, sim.now))
            return
        whole = rnic.inbound_ns(amount)
        wait = rnic.book_inbound(whole, Opcode.READ)
        intervals[index].append((sim.now + wait - whole, sim.now + wait))
        if kind == "dup":
            yield wait
            wait = rnic.book_inbound(whole, Opcode.READ)
            intervals[index].append((sim.now + wait - whole, sim.now + wait))
        yield wait

    def probe(at):
        yield at
        served[at] = rnic.stats_inbound_ops

    for index, (arrival, kind, amount) in enumerate(ops):
        sim.process(op(index, arrival, kind, amount))
    for at in probes:
        sim.process(probe(at))
    sim.run()
    return intervals, served, rnic


_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.integers(0, 300),
            st.sampled_from(["op", "dup"]),
            st.floats(0.2, 40.0, allow_nan=False, allow_infinity=False),
        ),
        st.tuples(st.integers(0, 300), st.just("stall"), st.integers(1, 80)),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    ops=_OPS,
    degraded_until=st.sampled_from([0, 50, 150]),
    factor=st.sampled_from([2.0, 8.0]),
    probes=st.lists(st.integers(0, 2_000), max_size=8, unique=True),
)
def test_booking_matches_the_queued_engine(ops, degraded_until, factor, probes):
    ref_intervals, ref_ends = _reference(ops, degraded_until, factor)
    intervals, served, rnic = _booked(ops, degraded_until, factor, probes)
    assert intervals == ref_intervals
    # An op whose service ends exactly at the reading instant counts once
    # its end has been booked (the queued engine: once its holder resumed),
    # so within that nanosecond the count depends on dispatch order.
    for at, count in served.items():
        ended_before = sum(1 for end in ref_ends if end < at)
        assert ended_before <= count <= ended_before + ref_ends.count(at)
    assert rnic.stats_inbound_ops == len(ref_ends)
    # Finished bookings are pruned: nothing is kept once all have ended.
    assert not rnic._inbound_ends
