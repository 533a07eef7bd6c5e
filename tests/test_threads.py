"""The thread-count contract: a seed-fixed run reproduces itself bit for bit
at a fixed BLAS thread count, and runs at different thread counts agree to
THREADS_RTOL. A threaded GEMM may split its sums differently, so across
counts the last bits can differ (up to 1.7e-15 relative in SMALL logits)."""

import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREADS_RTOL = 1e-12

# A SMALL forward at batch 16 and a short MICRO training, both seed-fixed;
# writes the logits, the metrics and the trained parameters to argv[1].
RUN = """
import sys
import numpy as np
from eit.data import generate_synthetic
from eit.model import ModelConfig, PatchStage, forward, init_params
from eit.train import TrainConfig, train

small = ModelConfig(channels=250, layers=5, heads=10, classes=10,
                    image=(32, 32, 3), eitp=PatchStage(3, 1, 1, 4))
micro = ModelConfig(channels=8, layers=2, heads=2, classes=2, image=(8, 8, 3),
                    eitp=PatchStage(3, 1, 1, 2))
images = np.random.default_rng(0).random((16, 3, 32, 32))
logits = forward(images, init_params(small, 0), small).data
params, metrics = train(micro, TrainConfig(epochs=2, batch_size=4,
                                           base_lr=0.01, min_lr=0.001),
                        generate_synthetic(8, 8, seed=1))
np.savez(sys.argv[1], logits=logits,
         metrics=[[row[k] for k in sorted(row)] for row in metrics],
         **{name: p.data for name, p in params.items()})
"""


def run_at(threads: int, path) -> dict[str, np.ndarray]:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OPENBLAS_NUM_THREADS=str(threads))
    run = subprocess.run([sys.executable, "-c", RUN, str(path)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    with np.load(path) as arrays:
        return dict(arrays)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("threads")
    return {threads: [run_at(threads, tmp / f"{threads}-{i}.npz")
                      for i in range(2)] for threads in (1, 2)}


@pytest.mark.parametrize("threads", [1, 2])
def test_a_thread_count_reproduces_itself_bit_for_bit(runs, threads):
    first, second = runs[threads]
    assert first.keys() == second.keys()
    for name in first:
        assert np.array_equal(first[name], second[name]), name


def test_thread_counts_agree_to_the_stated_tolerance(runs):
    one, two = runs[1][0], runs[2][0]
    assert one.keys() == two.keys()
    for name in one:
        # relative to the array's scale: a near-zero element inherits the
        # rounding of the larger terms it was summed from
        scale = np.abs(one[name]).max()
        assert np.abs(one[name] - two[name]).max() <= THREADS_RTOL * scale, name
