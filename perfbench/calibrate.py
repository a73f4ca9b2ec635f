"""Host-speed calibration: a fixed piece of pure-Python work.

On a shared 2-vCPU VM (KVM, Intel Xeon) the host's speed drifts by up
to 1.7x over tens of seconds, as neighbours come and go.  ``run.py``
runs a :func:`chunk` of fixed work before every slice of the
timed window, so the host's speed is sampled over the same seconds as
the workload, and reports host seconds scaled to the speed at which a
chunk takes :data:`REFERENCE_S`.

The chunk is shaped like the simulator's inner loop: heap-ordered
generator resumes, one part over a tiny working set and one part that
touches an 8 MB buffer and a 32K-entry dict at random (the random part
is what tracks neighbours contending for the shared cache and memory).
It must measure the host and not the program, so it uses none of the
simulator's code, and the state it starts from does not depend on what
the program did before it: an untimed warm-up touches its whole working
set (which then sits in the cache, whatever the simulator slice run
just before it evicted), and the garbage collector is off while it runs
(a collection would scan the simulator's heap).
"""

import gc
import heapq
import time

#: Seconds one :func:`chunk` takes at the reference host speed.
REFERENCE_S = 0.010

_BYTES = 8 << 20
_BUF = bytearray(_BYTES)
_TABLE = dict.fromkeys(range(1 << 15), 0)


def _small(step):
    state = {"n": 0}
    while True:
        state["n"] += step
        yield state["n"] % 97 + 1


def _scattered(step):
    n = 0
    buf, table, mask = _BUF, _TABLE, _BYTES - 1
    while True:
        n += step
        at = (n * 2654435761) & mask
        buf[at] = (buf[at] + 1) & 255
        table[at & 32767] += 1
        yield buf[at ^ 4096] % 97 + 1


_SMALL = [_small(step) for step in range(1, 33)]
_SCATTERED = [_scattered(step) for step in range(1, 1025)]


def _drive(procs, rounds):
    heap = [(next(proc), index) for index, proc in enumerate(procs)]
    heapq.heapify(heap)
    for _ in range(rounds):
        when, index = heapq.heappop(heap)
        heapq.heappush(heap, (when + procs[index].send(None), index))


def chunk():
    """Run one chunk of calibration work; returns the seconds it took."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _BUF.count(1)
        sum(_TABLE.values())
        _drive(_SMALL, 100)
        _drive(_SCATTERED, 100)
        start = time.perf_counter()
        _drive(_SMALL, 3000)
        _drive(_SCATTERED, 3000)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
