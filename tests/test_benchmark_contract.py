"""The benchmark's output contract: its last stdout line is the result.

`perfbench/run.py` must end its standard output with one strict-JSON
line (no NaN or Infinity) holding `correct`, `attempted`, `failed` and
exactly the end-to-end metrics that BENCHMARK.json names; a traced run
holds exactly its per-layer metrics instead. A run of zero seconds does
one pass of a workload, so this checks the contract and the reference
MAEs without timing anything.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def last_line_result(workload, trace):
    """Run one zero-second pass of `workload`; its parsed last stdout line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1], parse_constant=refuse_constant)
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", ["sweep-w1", "sweep-w8"])
def test_last_stdout_line_is_the_strict_json_result(workload):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    result = last_line_result(workload, "0")
    assert set(result["metrics"]) == end_to_end


@pytest.mark.parametrize("workload", ["sweep-w1", "sweep-w8"])
def test_a_traced_run_reports_every_per_layer_metric(workload):
    # the tracer counts some metrics only from what fxbench returns (parsed
    # rows from the length of a list), so a change of return type can drop
    # a metric from a run that still exits 0 and is correct
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in bench["per_layer"]}
    result = last_line_result(workload, "1")
    assert set(result["metrics"]) == per_layer
