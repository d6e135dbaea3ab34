"""The benchmark's view of the package: each perfbench workload's set-up,
and the training plan the train-short workload builds, run against the
package as it stands, so a change that would break the benchmark fails
here rather than in a benchmark run."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """perfbench's ``bench`` module, which imports its siblings by name."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import bench
    finally:
        sys.path.remove(str(PERFBENCH))
    return bench


@pytest.mark.parametrize("name", ["infer-long", "train-short", "audio-decode"])
def test_workload_setup_runs(bench, name):
    workload = bench.WORKLOADS[name](seed=1)
    workload.setup()
    assert set(workload.configs) == set(bench.CONFIGS)


def test_train_short_plan_builds(bench):
    plan = bench.TrainShort(seed=1)._plan(1, 0)
    assert plan.steps == 1 and plan.fixed is None
