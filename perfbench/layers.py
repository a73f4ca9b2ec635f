"""Per-layer accounting for the traced run.

Two sides, both gathered while one traced repetition runs:

* **host** -- cProfile self time (``tottime``) grouped by ``repro.<package>``.
  A C builtin (``heapq``, list and dict methods, ...) has no package of
  its own; its time is charged to the package of each caller, in the
  proportion the profile's caller edges record.
* **simulated** -- :class:`SpanTracer`, a :class:`repro.obs.Tracer` that
  records the usual events and also keeps one span stack per simulated
  process, so that a span's self time (its duration minus the spans it
  encloses in the same process) is well defined even when many
  processes interleave their spans on one node's track.
"""

import re
import sys
from collections import defaultdict

from repro.obs import Tracer
from repro.sim import Process

#: The layers the benchmark reports host self time for.
HOST_LAYERS = ("sim", "verbs", "krcore", "cluster", "kvs", "faults", "degrade", "obs")

#: Synchronous spans whose simulated self time is reported.
SPANS = ("bench.op", "syscall", "meta.rpc", "rnic.inbound")

#: Wrapper spans whose whole duration is reported instead: their self
#: time is zero, because all their simulated time is spent in meta.rpc.
WRAPPERS = ("qconnect", "meta.lookup_dct", "mrstore.check")

#: The responder track of the meta server (``krcore_cluster`` puts the
#: single meta shard on node 0).  Its ``rnic.inbound`` spans are the
#: shard's busy time: a lookup is one-sided READs that never touch the
#: meta server's CPU.
META_TRACK = "rnic@node0"

_RESUME = Process._resume.__code__
_PACKAGE = re.compile(r"[/\\]repro[/\\]([A-Za-z_]+)[/\\]")
_FLIGHT = "_flight"


def _owner():
    """The top generator frame of the simulated process now running (the
    frame ``Process._resume`` drives), or None outside any process."""
    frame = sys._getframe(1)
    below = None
    while frame is not None:
        if frame.f_code is _RESUME:
            return below
        below = frame
        frame = frame.f_back
    return None


class SpanTracer(Tracer):
    """A Tracer that also computes simulated self time per span name.

    ``self_ns[name]`` sums, over every closed span called ``name``, its
    duration minus the durations of the spans opened inside it by the
    same simulated process.  Asynchronous ``wr.*`` spans (post to
    completion) are summed under ``"wr"``, less the ``rnic.inbound``
    service their flights spent on the responder.
    """

    def __init__(self):
        super().__init__()
        self._stacks = defaultdict(list)  # process frame id -> open spans
        self._async = {}  # async id -> begin ts
        self.self_ns = defaultdict(int)
        self.total_ns = defaultdict(int)
        self._wr_ns = 0
        self._flight_inbound_ns = 0
        self._meta_busy = []  # (begin, end) of the meta server's inbound service
        self._meta_rpcs = []  # begin ts of every meta.rpc span

    def begin(self, ts, track, name, **args):
        super().begin(ts, track, name, **args)
        if name == "meta.rpc":
            self._meta_rpcs.append(ts)
        owner = _owner()
        self._stacks[id(owner)].append([name, ts, 0, owner])

    def end(self, ts, track, name, **args):
        super().end(ts, track, name, **args)
        owner = _owner()
        stack = self._stacks.get(id(owner))
        if not stack:
            return
        for depth in range(len(stack) - 1, -1, -1):
            if stack[depth][0] == name:
                break
        else:
            return
        _name, begin_ts, child_ns, frame = stack.pop(depth)
        duration = ts - begin_ts
        self.self_ns[name] += duration - child_ns
        self.total_ns[name] += duration
        if depth:
            stack[depth - 1][2] += duration
        elif not stack:
            del self._stacks[id(owner)]
        if name == "rnic.inbound":
            if frame is not None and frame.f_code.co_name == _FLIGHT:
                self._flight_inbound_ns += duration
            if track == META_TRACK:
                self._meta_busy.append((begin_ts, ts))

    def async_begin(self, ts, track, name, async_id, **args):
        super().async_begin(ts, track, name, async_id, **args)
        self._async[async_id] = ts

    def async_end(self, ts, track, name, async_id, **args):
        super().async_end(ts, track, name, async_id, **args)
        begin_ts = self._async.pop(async_id, None)
        if begin_ts is not None and name.startswith("wr."):
            self._wr_ns += ts - begin_ts

    def sim_shares(self):
        """Simulated time per unit of op time: the self time of
        :data:`SPANS` and of the ``wr.*`` spans, and the whole duration of
        :data:`WRAPPERS`, each over the summed duration of the
        ``bench.op`` spans.  A share above 1 means the span runs
        concurrently with several ops (a batch's WRs, say)."""
        ops_ns = self.total_ns.get("bench.op", 0) or 1
        out = {f"simself.{name}_share": self.self_ns.get(name, 0) / ops_ns for name in SPANS}
        out["simself.wr_share"] = (self._wr_ns - self._flight_inbound_ns) / ops_ns
        for name in WRAPPERS:
            out[f"simtotal.{name}_share"] = self.total_ns.get(name, 0) / ops_ns
        return out

    def meta_load(self, start, stop, ops):
        """The meta shard's load over the window ``[start, stop]``: the
        share of it its responder was busy, and meta lookups per op."""
        busy = sum(
            min(end, stop) - max(begin, start)
            for begin, end in self._meta_busy
            if end > start and begin < stop
        )
        rpcs = sum(1 for ts in self._meta_rpcs if start <= ts < stop)
        return {
            "meta.busy_share": busy / (stop - start),
            "krcore.meta_rpcs_per_op": rpcs / ops if ops else 0.0,
        }


def _layer(filename):
    match = _PACKAGE.search(filename)
    return match.group(1) if match else "other"


def host_self_s(stats):
    """``{layer: seconds}`` from a ``pstats.Stats(...).stats`` table."""
    totals = defaultdict(float)
    for (filename, _line, _func), (_cc, _nc, tottime, _ct, callers) in stats.items():
        if filename != "~":
            totals[_layer(filename)] += tottime
            continue
        # A builtin: split its self time over its callers' layers.
        for (caller_file, _l, _f), edge in callers.items():
            totals[_layer(caller_file) if caller_file != "~" else "other"] += edge[2]
    return {layer: totals.get(layer, 0.0) for layer in HOST_LAYERS}
