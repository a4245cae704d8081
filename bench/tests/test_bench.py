"""Tests of the benchmark's own logic.

    python3 -m pytest bench/tests -q

The smoke tests run every workload for one short request, plain and
traced, from the package sources of this checkout.
"""

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from benchstats import (REFERENCE_KERNEL_S, calibrate,  # noqa: E402
                        calibration_kernel, highest_supported_percentile,
                        metric_problems, min_samples_for, percentile,
                        self_time)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_union_of_children():
    assert self_time(0.0, 10.0, []) == 10.0
    assert self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == 7.0
    # overlapping children are counted once
    assert self_time(0.0, 10.0, [(1.0, 4.0), (2.0, 5.0)]) == 6.0
    # parts outside the parent do not count
    assert self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]) == 2.0
    assert self_time(0.0, 4.0, [(0.0, 4.0)]) == 0.0
    with pytest.raises(ValueError):
        self_time(3.0, 1.0, [])


def test_tracer_self_times_follow_nesting():
    from spans import Tracer
    tracer = Tracer()
    with tracer.span("batch", "b") as batch:
        with tracer.span("trial", "b/0") as trial:
            with tracer.span("sample", "b/0") as sample:
                pass
    selfs = tracer.self_times()
    assert sample.parent == trial.span_id and trial.parent == batch.span_id
    assert tracer.root_of(sample) is batch
    assert selfs[trial.span_id] == pytest.approx(
        trial.duration - sample.duration)
    assert selfs[batch.span_id] == pytest.approx(
        batch.duration - trial.duration)


def test_percentile_matches_statistics():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    assert percentile(values, 50) == statistics.median(values)
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    for q in (10, 25, 75, 90):
        assert percentile(values, q) == pytest.approx(cuts[q - 1])
    assert percentile([4.0], 90) == 4.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_sample_count_rule():
    assert min_samples_for(90) == 100
    assert min_samples_for(50) == 20
    assert highest_supported_percentile(100) == pytest.approx(90)
    assert highest_supported_percentile(9) == 0.0
    from workloads import WORKLOADS
    for wl in WORKLOADS.values():
        assert wl.min_requests == 100


def test_calibrate_uses_the_kernels_on_both_sides():
    k = REFERENCE_KERNEL_S["narrow"]
    # a machine at half speed between two requests doubles their kernels
    assert calibrate([0.4, 0.2], [k, k, 2 * k], k) == pytest.approx(
        [0.4, 0.2 / 1.5])
    with pytest.raises(ValueError):
        calibrate([0.4], [k], k)
    for kind in REFERENCE_KERNEL_S:
        assert 0 < calibration_kernel(kind) < 1
    with pytest.raises(ValueError):
        calibration_kernel("other")
    from workloads import WORKLOADS
    assert {w.kernel for w in WORKLOADS.values()} <= set(REFERENCE_KERNEL_S)


def test_benchmark_json_follows_the_metric_grammar():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics + SPEC["workloads"]]
    assert len(names) == len(set(names))
    for m in metrics:
        assert metric_problems(m["name"], m["unit"]) == []
        assert m["better"] in ("higher", "lower")
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert metric_problems("_x", "s")
    assert metric_problems("x" * 65, "s")
    assert metric_problems("x", "m s")
    assert metric_problems("x", "u" * 17)
    assert metric_problems("a.b-c_1", "1/s") == []


def test_workloads_match_benchmark_json():
    from workloads import WORKLOADS
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def _quick(name):
    from workloads import WORKLOADS
    wl = type(WORKLOADS[name])()
    wl.min_requests = 1
    wl.curve_horizons = (20, 40, 80)
    return wl


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_smoke_every_workload(name, tmp_path):
    import run
    wl = _quick(name)
    plain = run.run_plain(wl, 7, 0.0, tmp_path / "plain", setup_runs=1)
    assert plain["failed"] == 0 and not plain["problems"]
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        value, unit = plain["metrics"][m["name"]]
        assert unit == m["unit"] and value > 0

    traced = run.run_traced(wl, 7, 0.0, tmp_path / "traced")
    assert traced["failed"] == 0 and not traced["problems"]
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert traced["metrics"][m["name"]][1] == m["unit"]
    spans = [json.loads(line) for line in
             (tmp_path / "traced" / "spans.jsonl").read_text().splitlines()]
    by_id = {s["span_id"]: s for s in spans}
    layer_spans = [s for s in spans
                   if s["name"] in ("sample", "propagate", "witness")]
    assert layer_spans
    for s in layer_spans:
        # each layer span sits in a trial (or check) and shares its trace
        parent = by_id[s["parent"]]
        assert parent["name"] in ("trial", "check")
        assert s["trace_id"] == parent["trace_id"]


def test_traced_package_restores_the_package():
    from probes import Counters, traced_package
    from shadowing import experiment, shadowcheck
    from spans import Tracer
    before = (experiment._run_trial, experiment.emit,
              shadowcheck.shadow_set_forward)
    with traced_package(Tracer(), Counters()):
        assert experiment.emit is not before[1]
    assert (experiment._run_trial, experiment.emit,
            shadowcheck.shadow_set_forward) == before


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload",
         SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
