"""The benchmark's three seeded workloads, driven through KRCORE's public API.

Every workload is a class built from a parameter dict that
:func:`generate` derives from the seed alone; the simulator only ever
sees the cluster, targets, sizes, payloads and fault plan generated
here.  A workload instance is used once:

* :meth:`setup` builds the cluster, registers memory, starts the fault
  injector and runs the simulated warm-up (all of it is ``setup_s``);
* ``run.py`` runs the timed window up to each of :meth:`ends`, then
  :meth:`finish` returns an :class:`Outcome` whose correctness oracle
  has already been applied.

Everything here is deterministic for a given parameter dict, so two
instances built from the same seed produce identical outcomes and
identical :meth:`Outcome.digest` values.
"""

import bisect
import hashlib
import random

from repro import obs
from repro.bench.setups import krcore_cluster
from repro.degrade import DegradePolicy
from repro.faults import FaultInjector, FaultPlan
from repro.krcore import KrcoreLib
from repro.sim import MS, US, percentile
from repro.verbs import RecvBuffer, WcStatus, WorkRequest
from repro.verbs.errors import KrcoreError, MetaUnavailableError, VerbsError

#: The order in which :func:`generate` and the CLI list the workloads.
NAMES = ("onesided", "connect_storm", "rpc_churn")

#: Deadline budget every module applies to its control-path ops.  Far
#: above any healthy op, so it only bites inside the injected faults.
DEADLINE_NS = 2 * MS

#: A closed-loop client silent this long at the end of the window is stuck.
STUCK_NS = 200 * US


class Outcome:
    """What one timed simulation did, after the correctness oracle."""

    def __init__(self):
        self.ops = 0  # completed ops (WRs, qconnect+READ workers, RPCs)
        self.ops_failed = 0  # expected, fault-induced failures
        self.ops_rejected = 0  # refused by design (retracted MR)
        self.unexpected = []  # oracle violations and surprise errors
        self.latencies = []  # per-op simulated latency, ns
        self.measure_from = 0  # simulated start of the timed window
        self.window_ns = 0  # simulated length of the timed window
        self.events = 0  # callbacks the event core dispatched in the window

    def digest(self):
        """Hash of everything the model decided in the timed window."""
        hasher = hashlib.sha256()
        hasher.update(
            f"{self.ops} {self.ops_failed} {self.ops_rejected} "
            f"{len(self.unexpected)} {self.window_ns} {self.events}\n".encode()
        )
        hasher.update(",".join(map(str, self.latencies)).encode())
        return hasher.hexdigest()

    def sim_metrics(self):
        """The deterministic model outputs (simulated time)."""
        return {
            "sim_p50_us": percentile(self.latencies, 0.5) / 1000.0,
            "sim_p99_us": percentile(self.latencies, 0.99) / 1000.0,
            "sim_ops_per_s": self.ops / (self.window_ns / 1e9),
        }


def generate(name, seed, scale=1.0):
    """The workload's generated inputs for ``seed`` (a JSON-able dict).

    ``scale`` shrinks the amount of simulated work for short test runs;
    the benchmark proper always uses 1.0.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "onesided":
        return OneSided.generate(rng, seed, scale)
    if name == "connect_storm":
        return ConnectStorm.generate(rng, seed, scale)
    if name == "rpc_churn":
        return RpcChurn.generate(rng, seed, scale)
    raise ValueError(f"unknown workload {name!r}")


def build(name, params):
    return {"onesided": OneSided, "connect_storm": ConnectStorm, "rpc_churn": RpcChurn}[
        name
    ](params)


class Workload:
    """What the three workloads share: a timed window of simulated time,
    ``[measure_from, stop_at]``, that ``run.py`` may run in slices, and a
    liveness check of closed-loop clients.

    A closed-loop client is listed in :attr:`progress` (set to
    ``measure_from`` before it starts) and stamps it with the simulated
    time whenever one of its ops returns, whatever the result.
    :meth:`finish` flags every client silent for more than
    :meth:`stuck_ns` at the end of the window, including one that hung
    before its first op returned.
    """

    #: Slices ``run.py`` runs the timed window in, one calibration chunk
    #: before each: about one per 65 ms of simulation on the reference
    #: host, so that the host's speed is sampled as densely for every
    #: workload.
    slices = 16

    def __init__(self, params):
        self.params = params
        self.outcome = Outcome()
        self.progress = {}  # closed-loop client -> time its latest op returned

    def ends(self, slices):
        """``slices`` simulated times to run to, one after the other; the
        last one ends the timed window."""
        span = self.stop_at - self.measure_from
        return [self.measure_from + span * (i + 1) // slices for i in range(slices)]

    def stuck_ns(self, client):
        return STUCK_NS

    def finish(self):
        """Close the timed window: apply the end-of-run oracle, return the outcome."""
        out = self.outcome
        out.events = self.sim.events_dispatched - self.events_from
        out.measure_from = self.measure_from
        out.window_ns = self.stop_at - self.measure_from
        for client, last in self.progress.items():
            if last < self.stop_at - self.stuck_ns(client):
                out.unexpected.append(f"client {client} stuck: no op returned after t={last}")
        return out


def _op(node, gen):
    """Process: run ``gen``, inside a ``bench.op`` span on the node's
    track when a tracer is installed (the root of the op's span tree)."""
    tracer = obs.current_tracer()
    if tracer is None:
        return (yield from gen)
    track = f"krcore@{node.gid}"
    tracer.begin(node.sim.now, track, "bench.op")
    try:
        return (yield from gen)
    finally:
        tracer.end(node.sim.now, track, "bench.op")


def _post_batch(lib, vqp, wrs):
    """Process: one doorbell-batched post, then wait for its signaled tail."""
    yield from lib.post_send_batch(vqp, wrs)
    return (yield from vqp.wait_send_completion())


# ---------------------------------------------------------------------------
# onesided: the data path
# ---------------------------------------------------------------------------

_LANES = 16  # doorbell batch size; one remote lane per WR of a batch
_LANE_BYTES = 4096
_SIZES = tuple(8 << k for k in range(10))  # 8 B .. 4 KB
_WRITE_SHARE = 0.3


class OneSided(Workload):
    """KRCORE-over-DC clients issuing seeded READ/WRITE batches to one server.

    Async clients post doorbell batches of 16 WRs (about 70% READ, 30%
    WRITE, 8 B to 4 KB) and wait for the batch; WR ``i`` of a batch
    touches only lane ``i`` of the client's remote slot, so every READ
    must return exactly what the previous batches wrote there.  A few
    sync clients alternate ``write_sync`` and ``read_sync`` on their own
    slot.  Closed loop: a client posts its next batch when the last one
    completes.
    """

    @staticmethod
    def generate(rng, seed, scale):
        async_clients = 24
        batches = 64  # per client, replayed cyclically
        schedule = []
        for _ in range(async_clients):
            client = []
            for _ in range(batches):
                client.append(
                    [
                        (rng.random() < _WRITE_SHARE, rng.choice(_SIZES), rng.randrange(32))
                        for _ in range(_LANES)
                    ]
                )
            schedule.append(client)
        return {
            "seed": seed,
            "num_nodes": 10,
            "async_clients": async_clients,
            "sync_clients": 4,
            "batch": _LANES,
            "write_share": _WRITE_SHARE,
            "sizes": list(_SIZES),
            "warmup_ns": 60 * US,
            "measure_ns": int(2500 * US * scale),
            "pattern_seed": rng.getrandbits(32),
            "gray_link_at_ns": 60 * US + rng.randrange(2000 * US),
            "gray_link_client": rng.randrange(8),
            "schedule": schedule,
        }

    def setup(self):
        p = self.params
        self.sim, cluster, meta, _modules = krcore_cluster(
            num_nodes=p["num_nodes"],
            memory_size=32 << 20,
            background_rc=False,
            degrade=DegradePolicy(deadline_ns=DEADLINE_NS),
        )
        sim = self.sim
        self.server = cluster.nodes[1]
        client_nodes = cluster.nodes[2:]
        prng = random.Random(p["pattern_seed"])
        self.patterns = [prng.randbytes(_LANE_BYTES) for _ in range(32)]
        slot_bytes = _LANES * _LANE_BYTES
        total = p["async_clients"] + p["sync_clients"]
        self.server_lib = KrcoreLib(self.server)
        self.clients = []

        def boot():
            base = self.server.memory.alloc(slot_bytes * total)
            region = yield from self.server_lib.reg_mr(base, slot_bytes * total)
            self.server_rkey = region.rkey
            for index in range(total):
                node = client_nodes[index % len(client_nodes)]
                cpu = (index // len(client_nodes)) % node.cores
                lib = KrcoreLib(node, cpu_id=cpu)
                local = node.memory.alloc(2 * slot_bytes)
                mr = yield from lib.reg_mr(local, 2 * slot_bytes)
                self.clients.append((lib, local, mr.lkey, base + index * slot_bytes))

        sim.run_process(boot())
        plan = FaultPlan(seed=p["seed"]).gray_link(
            p["gray_link_at_ns"],
            client_nodes[p["gray_link_client"]].gid,
            self.server.gid,
            duration_ns=200 * US,
            latency_mult=2.0,
        )
        FaultInjector(cluster, meta, plan).start()
        self.stop_at = sim.now + p["warmup_ns"] + p["measure_ns"]
        self.measure_from = sim.now + p["warmup_ns"]
        self.progress = dict.fromkeys(range(len(self.clients)), self.measure_from)
        for index, client in enumerate(self.clients):
            if index < p["async_clients"]:
                proc = self._async_client(client, index, p["schedule"][index])
            else:
                proc = self._sync_client(client, index)
            sim.process(proc, name=f"onesided-client{index}")
        sim.run(until=self.measure_from)
        self.events_from = sim.events_dispatched

    def _connect(self, lib, local, lkey, remote):
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, self.server.gid)
        # Warm the MRStore (the data path is measured with caches warm).
        yield from lib.read_sync(vqp, local, lkey, remote, self.server_rkey, 8)
        return vqp

    def _async_client(self, client, index, schedule):
        lib, local, lkey, remote = client
        sim, out, rkey = self.sim, self.outcome, self.server_rkey
        memory = lib.node.memory
        read_base = local + _LANES * _LANE_BYTES
        vqp = yield from self._connect(lib, local, lkey, remote)
        image = [bytes(_LANE_BYTES)] * _LANES  # what each remote lane holds
        batch_index = 0
        while sim.now < self.stop_at:
            batch = schedule[batch_index % len(schedule)]
            batch_index += 1
            wrs = []
            for lane, (is_write, size, pat) in enumerate(batch):
                offset = lane * _LANE_BYTES
                signaled = lane == _LANES - 1
                if is_write:
                    memory.write(local + offset, self.patterns[pat][:size])
                    wrs.append(
                        WorkRequest.write(
                            local + offset, size, lkey, remote + offset, rkey,
                            signaled=signaled,
                        )
                    )
                else:
                    wrs.append(
                        WorkRequest.read(
                            read_base + offset, size, lkey, remote + offset, rkey,
                            signaled=signaled,
                        )
                    )
            start = sim.now
            entry = yield from _op(lib.node, _post_batch(lib, vqp, wrs))
            done = sim.now
            self.progress[index] = done
            counted = start >= self.measure_from and done <= self.stop_at
            if not entry.ok:
                out.unexpected.append(f"batch failed: {entry.status}")
                continue
            for lane, (is_write, size, pat) in enumerate(batch):
                if is_write:
                    image[lane] = self.patterns[pat][:size] + image[lane][size:]
                elif memory.read(read_base + lane * _LANE_BYTES, size) != image[lane][:size]:
                    out.unexpected.append(f"read-back mismatch lane {lane} size {size}")
            if counted:
                out.ops += _LANES
                out.latencies.extend([done - start] * _LANES)

    def _sync_client(self, client, index):
        lib, local, lkey, remote = client
        sim, out, rkey = self.sim, self.outcome, self.server_rkey
        memory = lib.node.memory
        read_at = local + _LANES * _LANE_BYTES
        vqp = yield from self._connect(lib, local, lkey, remote)
        rng = random.Random(self.params["pattern_seed"] + index)
        while sim.now < self.stop_at:
            size = rng.choice(_SIZES)
            data = self.patterns[rng.randrange(32)][:size]
            memory.write(local, data)
            start = sim.now
            yield from _op(lib.node, lib.write_sync(vqp, local, lkey, remote, rkey, size))
            middle = sim.now
            yield from _op(lib.node, lib.read_sync(vqp, read_at, lkey, remote, rkey, size))
            done = sim.now
            self.progress[index] = done
            if memory.read(read_at, size) != data:
                out.unexpected.append(f"sync read-back mismatch size {size}")
            if start >= self.measure_from and done <= self.stop_at:
                out.ops += 2
                out.latencies.append(middle - start)
                out.latencies.append(done - middle)


# ---------------------------------------------------------------------------
# connect_storm: the control path
# ---------------------------------------------------------------------------

_STORM_NODES = 48
_STORM_SLACK_NS = 1 * MS
_ID_BYTES = 8
#: Each node's arena for its workers' buffers; a worker registers a
#: prefix of it (registrations may overlap, as with real MRs).
_ARENA_BYTES = 4 << 20
_SLOTS = 4096  # 8 B READ landing slots in the arena
_STORM_WORKERS = 4500
#: Mean Poisson inter-arrival gap: keeps the meta shard's responder about
#: half busy (``meta.busy_share`` 0.51-0.53 over seeds 1-5), below the
#: knee where queueing at the meta plane takes over the tail (at 60 ns
#: it is 0.69 busy and p99 nearly doubles; at 50 ns, 0.86 and 4x).
_STORM_MEAN_GAP_NS = 80


def _zipf_cdf(n, skew):
    weights = [1.0 / (rank + 1) ** skew for rank in range(n)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for weight in weights:
        acc += weight / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return cdf


class ConnectStorm(Workload):
    """A serverless burst of fresh workers, open loop in simulated time.

    Workers arrive at Poisson times on random nodes and CPUs.  Each runs
    ``create_vqp`` + ``qconnect`` to a Zipf-chosen target, registers its
    own buffer (4 KB to 4 MB, as a fresh process must), READs the
    target's 8 B identity word into it (which must come back intact),
    then deregisters the buffer and exits.  Latency runs from each
    arrival's due time to the READ's completion.
    """

    slices = 48  # its window takes three times as long as the others'

    @staticmethod
    def generate(rng, seed, scale):
        workers = int(_STORM_WORKERS * scale)
        mean_gap_ns = _STORM_MEAN_GAP_NS
        cdf = _zipf_cdf(_STORM_NODES - 1, 0.9)
        targets = list(range(1, _STORM_NODES))
        rng.shuffle(targets)  # which node is hottest is seeded too
        arrivals = []
        at = 0.0
        for _ in range(workers):
            at += rng.expovariate(1.0 / mean_gap_ns)
            source = rng.randrange(1, _STORM_NODES)
            target = targets[bisect.bisect_left(cdf, rng.random())]
            if target == source:
                target = targets[(targets.index(target) + 1) % len(targets)]
            buffer_bytes = int(2 ** rng.uniform(12, 22))
            arrivals.append((int(at), source, rng.randrange(8), target, buffer_bytes))
        return {
            "seed": seed,
            "num_nodes": _STORM_NODES,
            "workers": workers,
            "mean_gap_ns": mean_gap_ns,
            "zipf_skew": 0.9,
            "warmup_ns": 50 * US,
            "meta_lag_at_ns": rng.randrange(workers * mean_gap_ns // 2),
            "meta_lag_ns": 500,
            "arrivals": arrivals,
        }

    def setup(self):
        p = self.params
        self.sim, cluster, meta, _modules = krcore_cluster(
            num_nodes=p["num_nodes"],
            memory_size=8 << 20,
            degrade=DegradePolicy(deadline_ns=DEADLINE_NS, breaker_enabled=True),
        )
        sim = self.sim
        self.nodes = cluster.nodes
        self.identity = {}
        self.arena = {}

        def boot():
            for index, node in enumerate(self.nodes):
                if index == 0:
                    continue  # the meta server
                word = node.gid.encode().ljust(_ID_BYTES, b".")
                addr = node.memory.alloc(_ID_BYTES)
                node.memory.write(addr, word)
                region = yield from KrcoreLib(node).reg_mr(addr, _ID_BYTES)
                self.identity[index] = (addr, region.rkey, word)
                self.arena[index] = node.memory.alloc(_ARENA_BYTES)

        sim.run_process(boot())
        plan = FaultPlan(seed=p["seed"]).lag_meta(
            sim.now + p["warmup_ns"] + p["meta_lag_at_ns"],
            duration_ns=100 * US,
            extra_ns=p["meta_lag_ns"],
        )
        FaultInjector(cluster, meta, plan).start()
        sim.run(until=sim.now + p["warmup_ns"])
        self.measure_from = sim.now
        self.events_from = sim.events_dispatched
        # Every worker finishes long before this (p99.9 is tens of us).
        self.stop_at = self.measure_from + p["arrivals"][-1][0] + _STORM_SLACK_NS
        self.pending = len(p["arrivals"])
        self.last_done = self.measure_from
        sim.process(self._generator(), name="storm-generator")

    def finish(self):
        out = super().finish()
        if self.pending:
            out.unexpected.append(f"{self.pending} workers never finished")
        out.window_ns = self.last_done - self.measure_from
        return out

    def _generator(self):
        sim = self.sim
        for index, arrival in enumerate(self.params["arrivals"]):
            due = self.measure_from + arrival[0]
            if due > sim.now:
                yield due - sim.now
            sim.process(self._worker(index, due, *arrival[1:]))

    def _connect_and_read(self, lib, target, buffer, buffer_bytes, landing):
        raddr, rkey, _word = self.identity[target]
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, self.nodes[target].gid)
        region = yield from lib.reg_mr(buffer, buffer_bytes)
        yield from lib.read_sync(vqp, landing, region.lkey, raddr, rkey, _ID_BYTES)
        return region

    def _worker(self, index, due, source, cpu, target, buffer_bytes):
        sim, out = self.sim, self.outcome
        node = self.nodes[source]
        lib = KrcoreLib(node, cpu_id=cpu)
        word = self.identity[target][2]
        buffer = self.arena[source]
        landing = buffer + (index % _SLOTS) * _ID_BYTES
        buffer_bytes = max(buffer_bytes, _SLOTS * _ID_BYTES)
        try:
            region = yield from _op(
                node, self._connect_and_read(lib, target, buffer, buffer_bytes, landing)
            )
        except (KrcoreError, VerbsError) as err:
            out.unexpected.append(f"worker {index}: {type(err).__name__}: {err}")
        else:
            if node.memory.read(landing, _ID_BYTES) != word:
                out.unexpected.append(f"worker {index}: READ returned the wrong bytes")
            else:
                out.ops += 1
                out.latencies.append(sim.now - due)
            yield from lib.dereg_mr(region)
        self.pending -= 1
        self.last_done = max(self.last_done, sim.now)


# ---------------------------------------------------------------------------
# rpc_churn: two-sided RPC plus MR churn under faults
# ---------------------------------------------------------------------------

_ECHO_PORT = 42
_MSG_SIZES = (64, 512, 2048, 8192)  # 8 KB exceeds the kernel buffer: zero-copy
_MAX_MSG = max(_MSG_SIZES)
_CHURN_SLOTS = 8
_CHURN_BYTES = 256
_WORD = 8
#: Readers may go quiet for longer: a READ that exhausts its meta retries
#: inside the outage, then backs off, returns after about 380 us.
_READER_STUCK_NS = 500 * US


def _churn_word(server, slot, generation):
    return ((server << 48) | (slot << 32) | generation).to_bytes(_WORD, "big")


class RpcChurn(Workload):
    """Two-sided echo RPCs beside MR churn, under a seeded fault plan.

    Echo clients ``send_and_recv`` a seeded payload (64 B to 8 KB, the
    largest over the zero-copy protocol) to a server whose workers
    ``qpop`` and reply with the same bytes; every reply must equal its
    request.  Reader clients ``read_sync`` MRs that the servers retract
    and re-register on a seeded schedule, through rkeys they refresh only
    every ~300 us (so some are older than the 150 us lease): a READ either returns the
    intact image of the generation it was aimed at, is refused because
    the MR was retracted (``ops_rejected``), or fails with a meta-plane
    error inside the injected outage (``ops_failed``).  A READ that
    succeeds although it started more than one lease after its MR's
    retraction began is unexpected: ``dereg_mr`` frees the MR one lease
    after retraction, so such a READ would have touched freed memory.
    """

    @staticmethod
    def generate(rng, seed, scale):
        measure_ns = int(1600 * US * scale)
        return {
            "seed": seed,
            "num_nodes": 12,
            "servers": 2,
            "echo_clients": 24,
            "readers": 9,
            "msg_sizes": list(_MSG_SIZES),
            "msg_seed": rng.getrandbits(32),
            "warmup_ns": 100 * US,
            "measure_ns": measure_ns,
            "mr_lease_ns": 150 * US,
            "churn_every_ns": 20 * US,
            "reader_view_ns": 300 * US,
            "churn_seed": rng.getrandbits(32),
            "drop_prob": 0.02,
            "dup_prob": 0.01,
            "link_fault_at_ns": rng.randrange(measure_ns // 64),
            "link_fault_ns": measure_ns,
            "meta_outage_at_ns": measure_ns // 4 + rng.randrange(measure_ns // 64),
            "meta_outage_ns": 1200 * US,
        }

    def setup(self):
        p = self.params
        self.sim, cluster, meta, _modules = krcore_cluster(
            num_nodes=p["num_nodes"],
            memory_size=64 << 20,
            mr_lease_ns=p["mr_lease_ns"],
            degrade=DegradePolicy(deadline_ns=DEADLINE_NS, breaker_enabled=True),
        )
        sim = self.sim
        servers = cluster.nodes[1 : 1 + p["servers"]]
        clients = cluster.nodes[1 + p["servers"] :]
        self.servers = servers
        #: (server index, slot) -> (addr, rkey, generation, region) of its live MR
        self.directory = {}
        prng = random.Random(p["msg_seed"])
        self.payloads = [prng.randbytes(_MAX_MSG) for _ in range(16)]
        self.ready = []
        #: (server index, slot, generation) -> when its retraction began
        self.retracted = {}

        def boot():
            for s, server in enumerate(servers):
                yield from self._boot_server(server)
                for slot in range(_CHURN_SLOTS):
                    yield from self._register(s, slot, 0)
            for index in range(p["echo_clients"] + p["readers"]):
                node = clients[index % len(clients)]
                cpu = index // len(clients)
                lib = KrcoreLib(node, cpu_id=cpu)
                local = node.memory.alloc(_MAX_MSG * 9)
                mr = yield from lib.reg_mr(local, _MAX_MSG * 9)
                self.ready.append((index, lib, local, mr.lkey))

        sim.run_process(boot())
        base = sim.now + p["warmup_ns"]
        plan = FaultPlan(seed=p["seed"])
        for client in clients:
            plan.degrade_link(
                base + p["link_fault_at_ns"], client.gid, servers[0].gid,
                duration_ns=p["link_fault_ns"], drop_prob=p["drop_prob"],
                dup_prob=p["dup_prob"], both_ways=True,
            )
        plan.meta_outage(base + p["meta_outage_at_ns"], p["meta_outage_ns"])
        FaultInjector(cluster, meta, plan).start()
        self.measure_from = base
        self.stop_at = base + p["measure_ns"]
        self.progress = {index: base for index, _lib, _local, _lkey in self.ready}
        for index, lib, local, lkey in self.ready:
            if index < p["echo_clients"]:
                proc = self._echo_client(index, lib, local, lkey)
            else:
                proc = self._reader(index, lib, local, lkey)
            sim.process(proc, name=f"rpc-client{index}")
        for s in range(len(servers)):
            sim.process(self._churner(s), name=f"mr-churn{s}")
        sim.run(until=self.measure_from)
        self.events_from = sim.events_dispatched

    def stuck_ns(self, client):
        return STUCK_NS if client < self.params["echo_clients"] else _READER_STUCK_NS

    # -- servers -----------------------------------------------------------

    def _boot_server(self, server):
        lib = KrcoreLib(server)
        vqp = yield from lib.create_vqp()
        yield from lib.qbind(vqp, _ECHO_PORT)
        depth = 256
        addr = server.memory.alloc(_MAX_MSG * depth)
        mr = yield from lib.reg_mr(addr, _MAX_MSG * depth)
        bufs = {}
        for i in range(depth):
            bufs[i] = RecvBuffer(addr + i * _MAX_MSG, _MAX_MSG, mr.lkey, wr_id=i)
            vqp.post_recv(bufs[i])
        for worker in range(4):
            self.sim.process(
                self._server_worker(KrcoreLib(server, cpu_id=worker), vqp, bufs),
                name=f"echo-worker{worker}@{server.gid}",
            )

    def _server_worker(self, lib, vqp, bufs):
        replies = []
        while True:
            results = yield from lib.post_and_qpop(vqp, replies, max_msgs=8)
            replies = []
            for src_vqp, completion in results:
                buf = bufs[completion.wr_id]
                replies.append(
                    (
                        src_vqp,
                        [WorkRequest.send(buf.addr, completion.byte_len, buf.lkey, signaled=False)],
                    )
                )
                vqp.post_recv(buf)

    def _register(self, s, slot, generation):
        server = self.servers[s]
        addr = server.memory.alloc(_CHURN_BYTES)
        server.memory.write(addr, _churn_word(s, slot, generation) * (_CHURN_BYTES // _WORD))
        region = yield from KrcoreLib(server).reg_mr(addr, _CHURN_BYTES)
        self.directory[(s, slot)] = (addr, region.rkey, generation, region)

    def _churner(self, s):
        sim, p = self.sim, self.params
        rng = random.Random(p["churn_seed"] * 31 + s)
        lib = KrcoreLib(self.servers[s])
        while sim.now < self.stop_at:
            yield p["churn_every_ns"] // 2 + rng.randrange(p["churn_every_ns"])
            slot = rng.randrange(_CHURN_SLOTS)
            _addr, _rkey, generation, region = self.directory[(s, slot)]
            self.retracted[(s, slot, generation)] = sim.now
            yield from lib.dereg_mr(region)
            yield from self._register(s, slot, generation + 1)

    # -- clients -----------------------------------------------------------

    def _echo_client(self, index, lib, local, lkey):
        sim, out = self.sim, self.outcome
        memory = lib.node.memory
        server = self.servers[index % len(self.servers)]
        rng = random.Random(self.params["msg_seed"] + index)
        vqp = yield from lib.create_vqp()
        yield from lib.qconnect(vqp, server.gid, _ECHO_PORT)
        recv_base = local + _MAX_MSG
        for i in range(8):
            vqp.post_recv(RecvBuffer(recv_base + i * _MAX_MSG, _MAX_MSG, lkey, wr_id=i))
        while sim.now < self.stop_at:
            size = rng.choice(_MSG_SIZES)
            request = self.payloads[rng.randrange(16)][:size]
            memory.write(local, request)
            start = sim.now
            completion = yield from _op(
                lib.node,
                lib.send_and_recv(vqp, WorkRequest.send(local, size, lkey, signaled=False)),
            )
            done = sim.now
            slot_addr = recv_base + completion.wr_id * _MAX_MSG
            if completion.byte_len != size or memory.read(slot_addr, size) != request:
                out.unexpected.append(f"echo {index}: reply differs from request")
            vqp.post_recv(RecvBuffer(slot_addr, _MAX_MSG, lkey, wr_id=completion.wr_id))
            self.progress[index] = done
            if start >= self.measure_from and done <= self.stop_at:
                out.ops += 1
                out.latencies.append(done - start)

    def _reader(self, index, lib, local, lkey):
        sim, out = self.sim, self.outcome
        memory = lib.node.memory
        lease_ns, view_ns = self.params["mr_lease_ns"], self.params["reader_view_ns"]
        rng = random.Random(self.params["churn_seed"] + index)
        vqps = []
        for server in self.servers:
            vqp = yield from lib.create_vqp()
            yield from lib.qconnect(vqp, server.gid)
            vqps.append(vqp)
        refresh_at = 0
        while sim.now < self.stop_at:
            if sim.now >= refresh_at:
                # The reader learns rkeys out of band and keeps using them
                # until its next refresh, so some are older than a lease.
                view = dict(self.directory)
                refresh_at = sim.now + view_ns // 2 + rng.randrange(view_ns)
            s = rng.randrange(len(self.servers))
            slot = rng.randrange(_CHURN_SLOTS)
            addr, rkey, generation, _region = view[(s, slot)]
            start = sim.now
            outcome = "ok"
            try:
                yield from _op(
                    lib.node, lib.read_sync(vqps[s], local, lkey, addr, rkey, _CHURN_BYTES)
                )
            except MetaUnavailableError:
                outcome = "failed"
            except KrcoreError as err:
                outcome = "rejected" if err.code is WcStatus.REM_ACCESS_ERR else "failed"
            done = sim.now
            self.progress[index] = done
            if outcome == "ok":
                word = _churn_word(s, slot, generation)
                if memory.read(local, _CHURN_BYTES) != word * (_CHURN_BYTES // _WORD):
                    out.unexpected.append(f"reader {index}: torn or foreign MR image")
                retracted = self.retracted.get((s, slot, generation))
                if retracted is not None and start > retracted + lease_ns:
                    out.unexpected.append(
                        f"reader {index}: READ started {start - retracted} ns after "
                        f"its MR was retracted, past the {lease_ns} ns lease"
                    )
            if start < self.measure_from or done > self.stop_at:
                continue
            if outcome == "ok":
                out.ops += 1
                out.latencies.append(done - start)
            elif outcome == "rejected":
                out.ops_rejected += 1
            else:
                out.ops_failed += 1
                yield 10 * US  # back off while the meta plane is dark
