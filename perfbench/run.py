"""Seeded benchmark of the KRCORE simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload onesided --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload, each in a fresh process, one
after the other.

One invocation runs one workload in this (fresh) process and one OS
thread.  Its inputs are generated from ``--seed`` (see
``perfbench/workloads.py``).  With ``--trace 0`` it repeats the seeded
simulation -- set-up, then the timed window -- until ``--seconds`` have
passed, and reports the median of each end-to-end metric over the
repetitions, host seconds scaled by an interleaved calibration chunk
(see ``calibrate.py`` and ``METRICS.md``).  With ``--trace 1`` it does the same untraced repetitions,
then one traced repetition (``repro.obs`` installed, cProfile on) that
gives the per-layer metrics; the traced run must reproduce the untraced
run's simulated outcome exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed``
counts unexpected failures: oracle violations and errors the workload
does not provoke on purpose.  The failures ``rpc_churn`` provokes with
its fault plan are reported as ``ops_failed`` on the lines above it.
"""

import argparse
import cProfile
import gc
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: name -> unit of the end-to-end metrics (``--trace 0``).
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "ops_per_s": "ops/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "sim_p50_us": "us",
    "sim_p99_us": "us",
    "sim_ops_per_s": "ops/s",
}

#: Counters read from the metrics registry of the traced run.
COUNTERS = (
    "sim.timer_fires",
    "verbs.wr_posted",
    "verbs.doorbell_batches",
    "verbs.retransmits",
    "rnic.inbound_busy_ns",
    "fabric.hops",
    "krcore.qconnects",
    "krcore.meta_rpcs",
    "krcore.pool_rc_grabs",
    "krcore.pool_dc_grabs",
    "krcore.rc_fallbacks",
    "krcore.mrstore_stale_accepts",
    "faults.injected",
)


def per_layer_units():
    """name -> unit of the per-layer metrics (``--trace 1``)."""
    from layers import HOST_LAYERS, SPANS, WRAPPERS

    units = {"sim.events": "count", "sim.events_per_s": "1/s"}
    units.update({name: "count" for name in COUNTERS})
    units["rnic.inbound_busy_ns"] = "ns"
    units["krcore.dc_cache_hit_ratio"] = "ratio"
    units["krcore.mrstore_hit_ratio"] = "ratio"
    units["meta.busy_share"] = "ratio"
    units["krcore.meta_rpcs_per_op"] = "rpcs/op"
    units.update({f"host.{layer}.self_s": "s" for layer in HOST_LAYERS})
    units.update({f"simself.{span}_share": "ratio" for span in SPANS + ("wr",)})
    units.update({f"simtotal.{span}_share": "ratio" for span in WRAPPERS})
    units["trace_overhead"] = "ratio"
    return units


def _git_revision():
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _refuse_if_observed():
    """Timed repetitions must run with no probe and no profiler."""
    from repro import obs

    if obs.current_tracer() is not None or obs.current_metrics() is not None:
        raise SystemExit("error: repro.obs is installed; timed runs need it off")
    if sys.getprofile() is not None or sys.gettrace() is not None:
        raise SystemExit("error: a profiler or tracer is active; timed runs need it off")


def run_once(workloads, name, params, slices=None):
    """Build, set up and measure one repetition.

    The timed window runs in ``slices`` pieces (by default the
    workload's :attr:`~workloads.Workload.slices`) with a calibration chunk
    before each, so the host speed is sampled over the same seconds as
    the workload; set-up is bracketed by a chunk before it and the
    window's first chunk after it.  Returns ``(timings, outcome,
    end_ns)``; ``timings`` holds the raw host seconds, the host ``speed``
    over the window and the ``setup_speed`` around set-up (reference
    chunk time over measured chunk time, see ``calibrate.py``).
    """
    gc.collect()
    before = calibrate.chunk()
    t0 = time.perf_counter()
    workload = workloads.build(name, params)
    workload.setup()
    t1 = time.perf_counter()
    wall = cpu = 0.0
    chunks = []
    slices = slices or workload.slices
    for until in workload.ends(slices):
        chunks.append(calibrate.chunk())
        w0, p0 = time.perf_counter(), time.process_time()
        workload.sim.run(until=until)
        wall += time.perf_counter() - w0
        cpu += time.process_time() - p0
    outcome = workload.finish()
    timings = {
        "setup_s": t1 - t0,
        "wall_s": wall,
        "cpu_s": cpu,
        "speed": calibrate.REFERENCE_S * slices / sum(chunks),
        "setup_speed": calibrate.REFERENCE_S * 2 / (before + chunks[0]),
    }
    return timings, outcome, workload.sim.now


def timed_reps(workloads, name, params, seconds, min_reps=3):
    """Untraced repetitions until ``seconds`` have passed (at least ``min_reps``)."""
    reps = []
    deadline = time.perf_counter() + seconds
    while len(reps) < min_reps or time.perf_counter() < deadline:
        _refuse_if_observed()
        reps.append(run_once(workloads, name, params))
    return reps


def traced_rep(workloads, name, params):
    """One repetition with obs installed and cProfile on."""
    from layers import SpanTracer
    from repro import obs

    tracer = SpanTracer()
    profiler = cProfile.Profile()
    with obs.observe(tracer=tracer) as (_tracer, registry):
        profiler.enable()
        try:
            # One slice: no calibration needed, and the outcome must still
            # equal the sliced untraced repetitions'.
            timings, outcome, end_ns = run_once(workloads, name, params, slices=1)
        finally:
            profiler.disable()
    return timings, outcome, end_ns, tracer, registry, pstats.Stats(profiler).stats


def _ratio(hits, misses):
    total = hits + misses
    return hits / total if total else 0.0


def layer_metrics(traced, untraced_wall_s, untraced_raw_wall_s):
    from layers import host_self_s

    timings, outcome, _end, tracer, registry, stats = traced
    values = {
        "sim.events": outcome.events,
        "sim.events_per_s": outcome.events / untraced_wall_s,
    }
    for name in COUNTERS:
        values[name] = registry.value(name)
    values["krcore.dc_cache_hit_ratio"] = _ratio(
        registry.value("krcore.dc_cache_hits"), registry.value("krcore.dc_cache_misses")
    )
    values["krcore.mrstore_hit_ratio"] = _ratio(
        registry.value("krcore.mrstore_hits"), registry.value("krcore.mrstore_misses")
    )
    for layer, seconds in host_self_s(stats).items():
        values[f"host.{layer}.self_s"] = seconds
    values.update(tracer.sim_shares())
    window_end = outcome.measure_from + outcome.window_ns
    values.update(tracer.meta_load(outcome.measure_from, window_end, outcome.ops))
    values["trace_overhead"] = timings["wall_s"] / untraced_raw_wall_s
    return values


def manifest(name, seed, params, reps):
    from repro.sim import ENGINE

    # Long generated lists (schedules, arrivals) are summarized by length.
    inputs = {
        key: len(value) if isinstance(value, list) and len(value) > 16 else value
        for key, value in params.items()
    }
    return {
        "workload": name,
        "seed": seed,
        "inputs": inputs,
        "engine": ENGINE,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": _git_revision(),
        "repetitions": len(reps),
    }


def run_all(names, args):
    """Run each workload in its own process, so that ``peak_rss_mb`` and
    ``setup_s`` belong to it alone; returns the worst exit code."""
    worst = 0
    for name in names:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", str(args.scale),
        ]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(command, check=False).returncode)
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink the simulated work (tests only; the benchmark uses 1.0)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the simulator sources are missing ({SRC})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload == "all":
        return run_all(workloads.NAMES, args)
    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be all or one of {', '.join(workloads.NAMES)}")

    params = workloads.generate(args.workload, args.seed, args.scale)
    reps = timed_reps(workloads, args.workload, params, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcomes = [outcome for _t, outcome, _e in reps]
    first = outcomes[0]
    problems = [text for outcome in outcomes for text in outcome.unexpected]
    digests = {(outcome.digest(), end) for _t, outcome, end in reps}
    if len(digests) != 1:
        problems.append("repetitions of one seed disagree on the simulated outcome")

    def median(key, speed="speed"):
        return statistics.median(t[key] * (t[speed] if speed else 1.0) for t, _o, _e in reps)

    values = {
        "wall_s": median("wall_s"),
        "cpu_s": median("cpu_s"),
        "ops_per_s": statistics.median(o.ops / (t["wall_s"] * t["speed"]) for t, o, _e in reps),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": median("setup_s", "setup_speed"),
    }
    values.update(first.sim_metrics())
    raw = {
        "raw_wall_s": median("wall_s", None),
        "raw_cpu_s": median("cpu_s", None),
        "raw_setup_s": median("setup_s", None),
        "host_speed": median("speed", None),
    }
    units = END_TO_END
    if args.trace:
        traced = traced_rep(workloads, args.workload, params)
        if (traced[1].digest(), traced[2]) not in digests:
            problems.append("the traced run changed the simulated outcome")
        problems.extend(traced[1].unexpected)
        values = layer_metrics(traced, values["wall_s"], raw["raw_wall_s"])
        units = per_layer_units()

    info = manifest(args.workload, args.seed, params, reps)
    info.update(
        ops=first.ops,
        ops_failed=first.ops_failed,
        ops_rejected=first.ops_rejected,
        latency_samples=len(first.latencies),
        p99_samples_beyond=len(first.latencies) // 100,
        events=first.events,
        sim_window_ns=first.window_ns,
        digest=first.digest(),
        **raw,
    )
    print("manifest " + json.dumps(info, sort_keys=True))
    for name, unit in units.items():
        print(f"{name:32s} {values[name]:>16.6g} {unit}")
    if problems:
        for text in problems[:20]:
            print(f"problem: {text}", file=sys.stderr)
    attempted = sum(o.ops + o.ops_failed + o.ops_rejected + len(o.unexpected) for o in outcomes)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
