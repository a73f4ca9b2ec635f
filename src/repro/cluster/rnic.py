"""The RDMA NIC model.

Two serialized engines reproduce the two bottlenecks the paper measures:

* the **command processor** handles control-path work (building hardware
  queues for create_qp, configuring QPs to RTR/RTS).  Its occupancy per
  connection setup yields the ~712 QP/s server-side ceiling of Fig 8a.
* the **inbound engine** handles responder-side data-path work.  Its per-op
  occupancy yields the async peaks of Fig 10 (138M/s READ, 145M/s WRITE,
  lower for DCT).

Latency and occupancy are modelled separately: an op holds the engine for
its (few-ns) service time, then pays a fixed pipeline latency that does not
block other ops.

The inbound engine is booked in closed form: a FIFO single server whose
service time is known on arrival starts each op at ``max(arrival,
free_at)`` and moves ``free_at`` to its end (Lindley's recursion) -- the
start and end a queue with grant events gives, for one update per op.
"""

from collections import deque

from repro.check import hooks as _check
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.sim import Resource


class Rnic:
    """One ConnectX-4-like RNIC attached to a node."""

    def __init__(self, sim, node):
        self.sim = sim
        self.node = node
        self.command_processor = Resource(sim, capacity=1)
        #: When the inbound engine finishes everything booked on it.
        self._inbound_free_at = 0
        #: Ends (non-decreasing) of booked ops not yet counted as served.
        self._inbound_ends = deque()
        self._inbound_served = 0
        self._qps = {}
        self._dct_targets = {}
        self._next_qpn = 1
        self._next_dctn = 1
        #: Fractional-ns remainder so sub-ns service times still add up to
        #: the right aggregate rate (sim time is integer ns).
        self._service_carry = 0.0
        #: Admission bound on the command queue (repro.degrade): when
        #: this many ops already wait for the command processor, further
        #: control-path work is rejected instead of queued.  None (the
        #: default) keeps the queue unbounded.
        self.command_queue_limit = None
        #: Gray-failure window: until this timestamp both engines serve
        #: ``_degrade_factor`` times slower (alive, just sick); 0 = never.
        self._degraded_until = 0
        self._degrade_factor = 1.0
        self.stats_command_rejects = 0
        #: CPU nanoseconds burned by cores busy-polling CQs on this node
        #: (``CompletionQueue`` poll modes ``busy``/``adaptive``).  This is
        #: host CPU, not engine occupancy -- it never queues behind the
        #: command processor or inbound engine; it is what a dedicated
        #: polling core costs the node.
        self.stats_cq_poll_busy_ns = 0

    @property
    def stats_inbound_ops(self):
        """Inbound ops whose service has ended by now (benchmarks read this
        for unbiased rates)."""
        self._prune_inbound(self.sim.now)
        return self._inbound_served

    def _prune_inbound(self, now):
        ends = self._inbound_ends
        while ends and ends[0] <= now:
            ends.popleft()
            self._inbound_served += 1

    # -- registries -----------------------------------------------------------

    def register_qp(self, qp):
        qpn = self._next_qpn
        self._next_qpn += 1
        self._qps[qpn] = qp
        return qpn

    def unregister_qp(self, qp):
        self._qps.pop(qp.qpn, None)

    def qp(self, qpn):
        return self._qps.get(qpn)

    def create_dct_target(self, dc_key):
        """Create a DCT target (cheap: hardware context only, §3)."""
        number = self._next_dctn
        self._next_dctn += 1
        from repro.verbs.qp import DctTarget  # local import to avoid a cycle

        target = DctTarget(self.node, number, dc_key)
        self._dct_targets[number] = target
        return target

    def dct_target(self, number):
        return self._dct_targets.get(number)

    # -- engines ---------------------------------------------------------------

    def set_degraded(self, duration_ns, factor):
        """Gray failure: both engines run ``factor`` times slower for the
        next ``duration_ns`` (thermal throttling, firmware gone sick --
        the RNIC still answers, so nothing binary ever trips).
        Overlapping windows extend; the latest factor wins."""
        self._degraded_until = max(
            self._degraded_until, self.sim.now + int(duration_ns)
        )
        self._degrade_factor = float(factor)

    def account_cq_poll(self, spent_ns):
        """Charge ``spent_ns`` of host CPU burned spinning on a CQ."""
        self.stats_cq_poll_busy_ns += int(spent_ns)
        if _metrics.METRICS is not None:
            _metrics.METRICS.counter("rnic.cq_poll_busy_ns").inc(int(spent_ns))

    def _release(self, resource, grant, label, start):
        """Hand an engine back and report its busy interval to the checker."""
        resource.release(grant)
        if _check.CHECKER is not None:
            _check.CHECKER.rnic_busy(self, label, resource, start, self.sim.now)

    def command(self, service_ns):
        """Process: occupy the command processor for ``service_ns``."""
        limit = self.command_queue_limit
        if limit is not None and self.command_processor.queue_length >= limit:
            # Bounded command queue: reject before joining a line that
            # already guarantees a blown budget (EAGAIN, not a stall).
            self.stats_command_rejects += 1
            if _metrics.METRICS is not None:
                _metrics.METRICS.counter("rnic.command_rejects").inc()
            from repro.verbs.errors import OverloadRejectedError

            raise OverloadRejectedError(
                f"rnic@{self.node.gid}: command queue at its bound ({limit})"
            )
        if self._degraded_until and self.sim.now < self._degraded_until:
            service_ns = int(service_ns * self._degrade_factor)
        # Resource.serve inlined: this runs per control-path op and the
        # extra generator frame of ``yield from serve()`` is measurable.
        resource = self.command_processor
        grant = yield resource.acquire()
        start = self.sim.now
        if _trace.TRACER is not None:
            _trace.TRACER.begin(
                self.sim.now, f"rnic.cmd@{self.node.gid}", "rnic.command"
            )
        try:
            yield int(service_ns)
        except GeneratorExit:
            raise  # a dropped simulation: see Resource
        except BaseException:
            self._release(resource, grant, "command", start)
            raise
        self._release(resource, grant, "command", start)
        if _trace.TRACER is not None:
            _trace.TRACER.end(self.sim.now, f"rnic.cmd@{self.node.gid}", "rnic.command")
        if _metrics.METRICS is not None:
            registry = _metrics.METRICS
            registry.counter("rnic.command_ops").inc()
            registry.counter("rnic.command_busy_ns").inc(int(service_ns))

    def stall(self, duration_ns, engine="command"):
        """Process: wedge one engine for ``duration_ns`` (fault injection).

        Models a firmware/command-engine hiccup: the engine finishes its
        current op, then sits occupied, so queued work (connection setups,
        QP repairs, inbound ops) backs up behind the stall and drains in
        FIFO order afterwards -- no work is lost.  An inbound stall books
        the engine's clock like any inbound op.
        """
        duration_ns = int(duration_ns)
        if engine == "inbound":
            now = self.sim.now
            start = max(now, self._inbound_free_at)
            end = self._inbound_free_at = start + duration_ns
            if _trace.TRACER is not None:
                track = f"rnic@{self.node.gid}"
                _trace.TRACER.begin(start, track, "rnic.stall", engine=engine)
                _trace.TRACER.end(end, track, "rnic.stall")
            if _check.CHECKER is not None:
                _check.CHECKER.rnic_busy(self, "stall:inbound", self, start, end)
            if _metrics.METRICS is not None:
                _metrics.METRICS.counter("rnic.stall_ns").inc(duration_ns)
            yield end - now
            return
        resource = self.command_processor
        grant = yield resource.acquire()
        start = self.sim.now
        if _trace.TRACER is not None:
            _trace.TRACER.begin(
                self.sim.now, f"rnic.cmd@{self.node.gid}", "rnic.stall", engine=engine
            )
        try:
            yield duration_ns
        except GeneratorExit:
            raise  # a dropped simulation: see Resource
        except BaseException:
            self._release(resource, grant, f"stall:{engine}", start)
            raise
        self._release(resource, grant, f"stall:{engine}", start)
        if _trace.TRACER is not None:
            _trace.TRACER.end(self.sim.now, f"rnic.cmd@{self.node.gid}", "rnic.stall")
        if _metrics.METRICS is not None:
            _metrics.METRICS.counter("rnic.stall_ns").inc(duration_ns)

    def inbound_ns(self, service_ns):
        """One inbound op's service time, in whole ns, on this engine now.

        Accepts fractional nanoseconds; the remainder is carried so that
        aggregate throughput matches the configured rate exactly.  A
        gray-failure window slows every opcode alike.
        """
        if self._degraded_until and self.sim.now < self._degraded_until:
            service_ns = service_ns * self._degrade_factor
        total = service_ns + self._service_carry
        whole = int(total)
        self._service_carry = total - whole
        return whole

    def book_inbound(self, whole, opcode):
        """Book ``whole`` ns (from :meth:`inbound_ns`) of one ``opcode``
        op on the inbound engine; returns the ns from now until its
        service ends.

        The service starts once everything booked before it has ended
        (FIFO), so the caller just waits out the returned delay -- no
        queue, grant event or release.
        """
        now = self.sim.now
        start = self._inbound_free_at
        if start < now:
            start = now
        end = self._inbound_free_at = start + whole
        self._prune_inbound(now)
        self._inbound_ends.append(end)
        if _trace.TRACER is not None:
            track = f"rnic@{self.node.gid}"
            _trace.TRACER.begin(start, track, "rnic.inbound", opcode=opcode.value)
            _trace.TRACER.end(end, track, "rnic.inbound")
        if _metrics.METRICS is not None:
            _metrics.METRICS.counter("rnic.inbound_busy_ns").inc(whole)
        if _check.CHECKER is not None:
            _check.CHECKER.rnic_busy(self, "inbound", self, start, end)
        return end - now
