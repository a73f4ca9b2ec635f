"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

Each test runs ``run.py`` on a shrunken variant of a workload (``--scale``),
so the whole file takes well under a minute.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SCALE = "0.05"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, seed=3, trace=0):
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
            "--scale", SCALE,
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    manifest = json.loads(next(line for line in lines if line.startswith("manifest "))[9:])
    return manifest, json.loads(lines[-1])


@pytest.fixture(scope="module", params=workloads.NAMES)
def short_runs(request):
    name = request.param
    return name, _run(name), _run(name, trace=1), _run(name)


def test_short_variant_runs_correctly(short_runs):
    name, (manifest, result), (_m, traced), _again = short_runs
    assert result["correct"] and traced["correct"], name
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert manifest["ops"] > 0
    assert manifest["workload"] == name and manifest["seed"] == 3


def test_metric_names_match_benchmark_json(short_runs):
    _name, (_m, result), (_mt, traced), _again = short_runs
    assert set(SPEC["workloads"][i]["name"] for i in range(len(SPEC["workloads"]))) == set(
        workloads.NAMES
    )
    expected = {(m["name"], m["unit"]) for m in SPEC["end_to_end"]}
    assert {(k, v["unit"]) for k, v in result["metrics"].items()} == expected
    expected = {(m["name"], m["unit"]) for m in SPEC["per_layer"]}
    assert {(k, v["unit"]) for k, v in traced["metrics"].items()} == expected


def test_same_seed_repeats_model_outputs_exactly(short_runs):
    _name, (manifest, result), (traced_manifest, traced), (again_manifest, again) = short_runs
    for key in ("sim_p50_us", "sim_p99_us", "sim_ops_per_s"):
        assert result["metrics"][key] == again["metrics"][key]
    assert manifest["digest"] == again_manifest["digest"] == traced_manifest["digest"]
    counters = {
        k: v for k, v in traced["metrics"].items()
        if v["unit"] in ("count", "ns", "us") or k.endswith("_ratio")
    }
    _m, traced_again = _run(_name, trace=1)
    for key, value in counters.items():
        assert traced_again["metrics"][key] == value, key


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seed_changes_generated_inputs(name):
    assert workloads.generate(name, 1) == workloads.generate(name, 1)
    assert workloads.generate(name, 1) != workloads.generate(name, 2)


def test_missing_sources_fail_without_a_result():
    # A checkout holding only BENCHMARK.json and the benchmark's files.
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "BENCHMARK.json").write_text(json.dumps(SPEC))
        (root / "perfbench").mkdir()
        for path in HERE.glob("*.py"):
            (root / "perfbench" / path.name).write_text(path.read_text())
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "onesided", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=root, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_timed_runs_refuse_an_installed_probe():
    import run
    from repro import obs

    params = workloads.generate("onesided", 1, 0.05)
    with obs.observe(), pytest.raises(SystemExit):
        run.timed_reps(workloads, "onesided", params, 0)
