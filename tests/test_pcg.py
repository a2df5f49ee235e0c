"""fxbench's PCG64 stream against numpy's `default_rng(seed).uniform`, the
reference it reproduces, and a training run that never imports numpy's
random package."""

import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fxbench import ARCHS, TrainConfig
from fxbench._pcg import PCG64
from fxbench.experiment import trial_seed

# the word-count edges of the seed, a seed of 520 words, and the 36 trial
# seeds of the paper grid at the default base seed
EDGE_SEEDS = {
    "0": 0, "1": 1, "2**32-1": 2**32 - 1, "2**32": 2**32,
    "2**64-1": 2**64 - 1, "2**64": 2**64, "10**5000": 10**5000,
}
SEEDS = [pytest.param(seed, id=name) for name, seed in EDGE_SEEDS.items()] + [
    pytest.param(trial_seed(TrainConfig().seed, arch, hidden), id=f"trial-{arch}-{hidden}")
    for arch in ARCHS
    for hidden in range(2, 11)
]
SHAPES = [(0,), (1,), (7,), (5, 2), (3, 4)]


def same_bytes(ours, numpy_):
    same_kind = ours.dtype == numpy_.dtype and ours.shape == numpy_.shape
    return same_kind and ours.tobytes() == numpy_.tobytes()


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_matches_numpy(seed, shape):
    assert same_bytes(
        PCG64(seed).uniform(-0.3, 0.7, shape),
        np.random.default_rng(seed).uniform(-0.3, 0.7, size=shape),
    )


@pytest.mark.parametrize("seed", [0, 7, 10**5000], ids=["0", "7", "10**5000"])
def test_one_stream_continues_across_calls(seed):
    # the walk's steps then pads, and init_model's matrices, are such calls
    ours, reference = PCG64(seed), np.random.default_rng(seed)
    for low, high, shape in [(-0.001, 0.001, (9,)), (0.0, 0.0005, (9, 2)), (-1.0, 1.0, (4, 3))]:
        assert same_bytes(ours.uniform(low, high, shape), reference.uniform(low, high, size=shape))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**300),
    n=st.integers(min_value=0, max_value=40),
    low=st.floats(-1e6, 1e6),
    width=st.floats(0.0, 1e6),
)
def test_any_seed_size_and_range_match_numpy(seed, n, low, width):
    assert same_bytes(
        PCG64(seed).uniform(low, low + width, (n,)),
        np.random.default_rng(seed).uniform(low, low + width, size=n),
    )


@pytest.mark.parametrize("seed", [-1, -(2**64)], ids=["-1", "-2**64"])
def test_a_negative_seed_is_refused(seed):
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -"):
        PCG64(seed)


def test_training_never_imports_numpy_random(tmp_path):
    # a fresh interpreter, as the pytest process has numpy.random loaded
    script = textwrap.dedent(
        """
        import sys
        from fxbench import random_walk_ohlc, write_ohlc_csv
        from fxbench.cli import main

        out = sys.argv[1]
        write_ohlc_csv(random_walk_ohlc(60, seed=7), f"{out}/walk.csv")
        common = ["--data", f"{out}/walk.csv", "--hidden", "2", "--epochs", "1"]
        codes = [
            main(["sweep", *common, "--archs", "mlp,lstm", "--report", f"{out}/report.csv"]),
            main(["train", *common, "--arch", "lstm", "--model-out", f"{out}/model.json"]),
        ]
        print(codes, "numpy.random" in sys.modules)
        """
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0] False"
    assert (tmp_path / "report.csv").is_file() and (tmp_path / "model.json").is_file()
