"""The benchmark's own checks: each workload stresses the layer it is meant
to, and the tracer leaves no trace of itself. Run on demand (about a
minute; the repository's test suite does not collect this file):

    python3 -m pytest perfbench/test_layer_split.py
"""

import functools
import importlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer  # noqa: E402


@functools.lru_cache(maxsize=None)
def traced(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.splitlines()
    detail = json.loads(next(line for line in lines if line.startswith("detail "))[7:])
    result = json.loads(lines[-1])
    assert result["failed"] == 0, detail["failures"]
    return detail


def test_optimizer_share_is_larger_at_window_1():
    w1 = traced("sweep-w1")["per_layer"]
    w8 = traced("sweep-w8")["per_layer"]
    assert w1["optim.step_share"] > w8["optim.step_share"]
    assert w8["cells.share"] > w1["cells.share"]


def test_data_and_serialize_dominate_scoring():
    detail = traced("score-series")
    shares = detail["per_layer"]
    assert shares["data.share"] + shares["serialize.share"] > 0.5
    for never_called in ("optim.step_calls", "cells.backward_calls", "experiment.train_self_s"):
        assert never_called in detail["per_layer_missing"]


def test_tracer_wraps_every_binding_and_restores_it():
    experiment = importlib.import_module("fxbench.experiment")
    cells = importlib.import_module("fxbench.cells")
    optim = importlib.import_module("fxbench.optim")
    originals = (experiment.forward_batch, cells.forward_batch, optim.Optimizer.step)
    tracer = Tracer()
    assert tracer.install() > 0
    try:
        wrapped = (experiment.forward_batch, cells.forward_batch, optim.Optimizer.step)
        assert all(w is not o for w, o in zip(wrapped, originals))
        assert experiment.forward_batch is cells.forward_batch
    finally:
        assert tracer.uninstall()
    assert (experiment.forward_batch, cells.forward_batch, optim.Optimizer.step) == originals
    assert tracer.stats == {}
