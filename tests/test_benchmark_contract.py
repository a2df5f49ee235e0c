"""The benchmark's output contract: its last stdout line is the result.

`perfbench/run.py` must end its standard output with one strict-JSON
line (no NaN or Infinity) holding `correct`, `attempted`, `failed` and
exactly the end-to-end metrics that BENCHMARK.json names. A run of zero
seconds does one pass of a workload, so this checks the contract and the
reference MAEs without timing anything.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("workload", ["sweep-w1", "sweep-w8"])
def test_last_stdout_line_is_the_strict_json_result(workload):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1], parse_constant=refuse_constant)
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0
    assert set(result["metrics"]) == end_to_end
