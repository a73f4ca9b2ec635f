"""``python -m repro.bench.budget``: the host-speed gate and the exact
per-figure event-count gate against a committed floor file."""

import json

from repro.bench.budget import compare_events, figure_events, main


def _record(figure, events, wall_s=1.0, sim_ns=1_000_000, engine="flat", **extra):
    return {
        "figure": figure, "mode": "fast", "engine": engine, "wall_s": wall_s,
        "events_dispatched": events, "sim_ns": sim_ns, **extra,
    }


def _trajectory(tmp_path, records, label="bench"):
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps({"schema": 1, "runs": [{"label": label, "figures": records}]}))
    return str(path)


def _floor(tmp_path, rate, events):
    path = tmp_path / "floor.json"
    path.write_text(json.dumps(
        {"schema": 1, "fast_suite_sim_ns_per_sec": rate, "fast_figure_events": {"flat": events}}
    ))
    return str(path)


def test_figure_events_reads_fast_records_per_engine_profiled_or_not():
    run = {"figures": [
        _record("fig01", 10),
        _record("fig03", 20, profiled=True),
        _record("fig03", 21, engine="classic"),
        dict(_record("fig10", 30), mode="full"),
    ]}
    assert figure_events(run) == {"flat": {"fig01": 10, "fig03": 20}, "classic": {"fig03": 21}}


def test_compare_events_splits_over_and_under_and_skips_unmatched():
    over, under = compare_events(
        {"a": 11, "b": 9, "c": 5, "new": 1}, {"a": 10, "b": 10, "c": 5, "gone": 3}
    )
    assert over == [("a", 11, 10)]
    assert under == [("b", 9, 10)]


def test_gate_fails_on_one_extra_event_even_when_fast(tmp_path, capsys):
    trajectory = _trajectory(tmp_path, [_record("fig01", 101), _record("fig03", 50)])
    floor = _floor(tmp_path, 1, {"fig01": 100, "fig03": 60})
    assert main([trajectory, "--floor", floor]) == 1
    out = capsys.readouterr().out
    assert "fig01 dispatched 101 events, floor 100 FAIL" in out
    assert "fig03 dispatched 50 events, floor 60 (below" in out


def test_gate_passes_at_or_below_the_event_floor(tmp_path):
    trajectory = _trajectory(tmp_path, [_record("fig01", 100), _record("fig03", 50)])
    floor = _floor(tmp_path, 1, {"fig01": 100, "fig03": 60})
    assert main([trajectory, "--floor", floor]) == 0


def test_a_core_without_an_event_floor_is_not_gated(tmp_path, capsys):
    trajectory = _trajectory(tmp_path, [_record("fig01", 999, engine="classic")])
    floor = _floor(tmp_path, 1, {"fig01": 100})
    assert main([trajectory, "--floor", floor]) == 0
    assert "no event-count floor for the classic core" in capsys.readouterr().out


def test_write_floor_records_rate_and_event_counts(tmp_path):
    trajectory = _trajectory(tmp_path, [_record("fig01", 100), _record("fig03", 50)])
    floor = str(tmp_path / "floor.json")
    assert main([trajectory, "--floor", floor, "--write-floor"]) == 0
    doc = json.loads((tmp_path / "floor.json").read_text())
    assert doc["fast_figure_events"] == {"flat": {"fig01": 100, "fig03": 50}}
    assert doc["fast_suite_sim_ns_per_sec"] == 1_000_000
    assert main([trajectory, "--floor", floor]) == 0
