"""Perf-budget gate: fail CI when fast-suite host speed or work regresses.

``benchmarks/perf_floor.json`` commits the aggregate fast-suite
``sim_ns_per_sec`` (simulated nanoseconds per host second) the default
engine sustained when the floor was last recorded, and each fast
figure's ``events_dispatched``.  This module reads a ``BENCH_<date>.json`` trajectory (as
written by ``python -m repro.bench --perf-json``), aggregates the most
recent run's fast-mode figure records, and exits non-zero when the
measured rate falls more than ``--slack`` (default 20%) below the floor,
or when any figure dispatches more events than its floor.

Event counts are exact -- a figure's simulation is deterministic -- so
their gate has no slack and no noise: it catches a change that adds
scheduler hops even when host timing hides it.  They are recorded per
event core (the two cores may dispatch a few events apart), and a run
is gated only against the counts of its own core.  Figures that
dispatch fewer events than their floor are reported, so the floor can
be tightened with ``--write-floor``.

    python -m repro.bench.budget benchmarks/BENCH_2026-08-09.json
    python -m repro.bench.budget BENCH.json --floor benchmarks/perf_floor.json
    python -m repro.bench.budget BENCH.json --label bench-fast --slack 0.2

Aggregate rate = sum(sim_ns) / sum(wall_s) over the run's fast-mode
records, so long figures weigh in proportionally instead of each figure
voting once.  The fast suite simulates a fixed span, so this ratio is
inverse wall time: a change that dispatches fewer events for the same
simulation reads as the speed-up it is (events/s would read it as a
slowdown).  Records tagged ``"profiled"`` carry cProfile
overhead and are excluded.  To re-baseline after an intentional change,
rerun the fast suite on a quiet machine and update the floor file with
the new aggregate (``--write-floor`` does this).
"""

import argparse
import json
import pathlib
import sys
import time

from repro.bench.perf import load_trajectory

DEFAULT_FLOOR = "benchmarks/perf_floor.json"
DEFAULT_SLACK = 0.2


def aggregate_rate(run):
    """Sum of simulated ns over sum of wall for a run's clean fast records.

    Returns ``(rate, n_records)``; ``(None, 0)`` when the run holds no
    usable fast-mode records (all full-mode, profiled, or zero wall).
    """
    sim_ns = 0
    wall = 0.0
    used = 0
    for record in run.get("figures", []):
        if record.get("mode") != "fast" or record.get("profiled"):
            continue
        if not record.get("wall_s") or record.get("sim_ns") is None:
            continue
        sim_ns += record["sim_ns"]
        wall += record["wall_s"]
        used += 1
    if not used or wall <= 0:
        return None, 0
    return sim_ns / wall, used


def figure_events(run):
    """``{engine: {figure: events_dispatched}}`` over a run's fast-mode
    records (profiling slows a figure down but does not change its
    events)."""
    events = {}
    for record in run.get("figures", []):
        if record.get("mode") == "fast" and record.get("events_dispatched") is not None:
            by_figure = events.setdefault(record.get("engine"), {})
            by_figure[record["figure"]] = record["events_dispatched"]
    return events


def compare_events(events, floor_events):
    """Figures dispatching more and fewer events than the floor:
    ``(over, under)``, each a sorted list of ``(figure, events, floor)``.
    Figures missing from either side are skipped."""
    over, under = [], []
    for figure in sorted(events.keys() & floor_events.keys()):
        count, floor = events[figure], floor_events[figure]
        if count > floor:
            over.append((figure, count, floor))
        elif count < floor:
            under.append((figure, count, floor))
    return over, under


def select_run(data, label=None):
    """The most recent run in the trajectory, optionally filtered by label."""
    runs = data.get("runs", [])
    if label is not None:
        runs = [run for run in runs if run.get("label") == label]
    return runs[-1] if runs else None


def load_floor(path):
    data = json.loads(pathlib.Path(path).read_text())
    if "fast_suite_sim_ns_per_sec" not in data:
        raise ValueError(f"{path} is not a perf floor file")
    return data


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.budget",
        description="Gate on fast-suite simulated ns per host second and per-figure "
                    "events dispatched vs the committed floor.",
    )
    parser.add_argument("trajectory", help="BENCH_<date>.json trajectory file")
    parser.add_argument(
        "--floor", default=DEFAULT_FLOOR, metavar="PATH",
        help=f"committed floor file (default: {DEFAULT_FLOOR})",
    )
    parser.add_argument(
        "--label", metavar="TEXT",
        help="gate on the latest run with this label (default: latest run)",
    )
    parser.add_argument(
        "--slack", type=float, default=DEFAULT_SLACK, metavar="FRAC",
        help="tolerated fractional regression below the floor "
             f"(default: {DEFAULT_SLACK:g} = {DEFAULT_SLACK:.0%})",
    )
    parser.add_argument(
        "--write-floor", action="store_true",
        help="re-baseline: write the measured aggregate to the floor file "
             "instead of gating",
    )
    args = parser.parse_args(argv)

    data = load_trajectory(args.trajectory)
    run = select_run(data, args.label)
    if run is None:
        print(f"perf-budget: no matching run in {args.trajectory}", file=sys.stderr)
        return 2
    rate, used = aggregate_rate(run)
    if rate is None:
        print(f"perf-budget: run has no clean fast-mode records", file=sys.stderr)
        return 2

    if args.write_floor:
        floor_doc = {
            "schema": 1,
            "fast_suite_sim_ns_per_sec": round(rate),
            "records_aggregated": used,
            "fast_figure_events": {
                engine: dict(sorted(events.items()))
                for engine, events in sorted(figure_events(run).items())
            },
            "recorded": time.strftime("%Y-%m-%d"),
            "source": str(args.trajectory),
            "note": "aggregate simulated ns per host second over the fast "
                    "figure suite; gate fails below (1 - slack) * floor, slack 0.2; "
                    "and when a figure dispatches more events than recorded here",
        }
        pathlib.Path(args.floor).write_text(json.dumps(floor_doc, indent=2) + "\n")
        print(f"perf-budget: floor re-baselined to {round(rate):,} sim-ns/s "
              f"({used} records) and {len(floor_doc['fast_figure_events'])} "
              f"figure event counts in {args.floor}")
        return 0

    floor_doc = load_floor(args.floor)
    floor = floor_doc["fast_suite_sim_ns_per_sec"]
    cutoff = floor * (1.0 - args.slack)
    verdict = "OK" if rate >= cutoff else "FAIL"
    print(
        f"perf-budget: {rate:,.0f} sim-ns/s over {used} fast records "
        f"(floor {floor:,} - {args.slack:.0%} slack = cutoff {cutoff:,.0f}) "
        f"{verdict}"
    )
    status = 0
    if rate < cutoff:
        print(
            "perf-budget: fast-suite host speed regressed past the budget; "
            "investigate before merging (or re-baseline the floor with "
            "--write-floor if the regression is intended and justified)",
            file=sys.stderr,
        )
        status = 1
    over, under = [], []
    floor_events = floor_doc.get("fast_figure_events", {})
    for engine, events in sorted(figure_events(run).items()):
        if engine not in floor_events:
            print(f"perf-budget: no event-count floor for the {engine} core; not gated")
            continue
        engine_over, engine_under = compare_events(events, floor_events[engine])
        over += engine_over
        under += engine_under
    for figure, count, floor_count in over:
        print(f"perf-budget: {figure} dispatched {count:,} events, "
              f"floor {floor_count:,} FAIL")
    for figure, count, floor_count in under:
        print(f"perf-budget: {figure} dispatched {count:,} events, "
              f"floor {floor_count:,} (below: tighten with --write-floor)")
    if over:
        print(
            "perf-budget: a figure dispatches more events than its floor; "
            "the simulation does more scheduler work than before",
            file=sys.stderr,
        )
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
