"""The traced benchmark run's result line keeps its contract: on every
workload, ``bench/run.py --trace 1`` ends with one strict JSON line whose
run is correct, whose metric names are exactly BENCHMARK.json's
``per_layer`` names and whose values are all finite.  A name drops out
when a function in bench/tracer.py's TARGETS is deleted or renamed, or
is no longer reached through its module-global name."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import check_result  # noqa: E402  (tools module)

WORKLOADS = ("sweep-small", "dual-q", "dual-gfp", "cli")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    run = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert check_result.problems(run.stdout, "per_layer") == []


def _line(metrics, correct=True):
    return "record\n" + json.dumps({
        "correct": correct, "attempted": 1, "failed": 0,
        "metrics": {k: {"value": v, "unit": "s"} for k, v in
                    metrics.items()}})


def _end_to_end(**changed):
    values = dict.fromkeys(check_result.expected_names("end_to_end"), 1.0)
    values.update(changed)
    return values


def test_a_complete_result_passes():
    assert check_result.problems(_line(_end_to_end()), "end_to_end") == []


@pytest.mark.parametrize("text", [
    "", "{\"correct\": true", "[1]", "{\"correct\": true}"])
def test_a_line_that_is_not_a_result_fails(text):
    assert check_result.problems(text, "end_to_end")


def test_nan_infinity_and_overflow_fail():
    for bad in ("NaN", "Infinity", "-Infinity", "1e999"):
        text = _line(_end_to_end()).replace("1.0", bad, 1)
        found = check_result.problems(text, "end_to_end")
        assert found and ("finite" in found[0]), (bad, found)


def test_a_dropped_extra_or_bad_metric_fails():
    values = _end_to_end()
    dropped = dict(list(values.items())[1:])
    assert check_result.problems(_line(dropped), "end_to_end")
    assert check_result.problems(_line({**values, "x": 1.0}), "end_to_end")
    assert check_result.problems(_line(_end_to_end(setup_s=True)),
                                 "end_to_end")
    assert check_result.problems(_line(values), "per_layer")


def test_an_incorrect_run_fails():
    assert check_result.problems(_line(_end_to_end(), correct=False),
                                 "end_to_end") == ["correct is False"]
