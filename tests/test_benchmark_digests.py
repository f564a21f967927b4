"""The benchmark's outcome digests at seed 11, pinned.

Each workload of ``perfbench/workloads.py`` answers its 400-query digest
window in-process, as ``perfbench/run.py --seed 11`` does, so a change that
moves any Root / NoRoot / NonGeneric outcome fails here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name, expected", [
    ("planted-n7", "705c04a70e58b004"),
    ("random-n6", "71e33dd57f7117fa"),
])
def test_outcome_digest_at_seed_11(workloads, name, expected):
    workload = workloads.WORKLOADS[name]
    cases, _ = workloads.draw_cases(workload, 11)
    loop = workloads.run_loop(workload, workloads.Inputs(workload, 11, cases),
                              0.0, workload.window)
    assert loop.failures == []
    assert len(loop.window) == workload.window
    assert workloads.digest(loop.window) == expected
