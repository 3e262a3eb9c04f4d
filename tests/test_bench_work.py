"""Same work: the counters of one benchmark pass per workload and mode.

Each workload of ``perfbench/workloads.py`` at seed 3 is replayed once
per mode, as ``perfbench/run.py`` replays it, and the counters that
``passes.counts`` reads afterwards must equal the pinned ones.  They
count comparisons, answers, diagram nodes and path orderings, so a
change meant to keep the work (a new data layout, a refactor) keeps
them exactly.  A change meant to alter the work updates them and says
why in CHANGES.md.
"""

import functools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import passes  # noqa: E402
import workloads  # noqa: E402

SEED = 3

COUNTS = {
    ("swap_lpo", "off"): {"answers": 2944, "created": 0, "naive_steps": 14994, "processed": 0, "queries": 2000, "reachable_nodes": 0, "tpo_pool": 0, "traversed": 0},
    ("swap_lpo", "on"): {"answers": 4944, "created": 11, "naive_steps": 0, "processed": 8, "queries": 2000, "reachable_nodes": 8, "tpo_pool": 7, "traversed": 4944},
    ("swap_lpo", "shared"): {"answers": 2944, "created": 19, "naive_steps": 0, "processed": 12, "queries": 2000, "reachable_nodes": 6, "tpo_pool": 12, "traversed": 4206},
    ("poly_kbo", "off"): {"answers": 70718, "created": 0, "naive_steps": 98189, "processed": 0, "queries": 16000, "reachable_nodes": 0, "tpo_pool": 0, "traversed": 0},
    ("poly_kbo", "on"): {"answers": 150718, "created": 468, "naive_steps": 0, "processed": 329, "queries": 16000, "reachable_nodes": 550, "tpo_pool": 143, "traversed": 153038},
    ("poly_kbo", "shared"): {"answers": 70718, "created": 2105, "naive_steps": 0, "processed": 1719, "queries": 16000, "reachable_nodes": 1582, "tpo_pool": 317, "traversed": 121235},
    ("churn_kbo", "off"): {"answers": 4439, "created": 0, "naive_steps": 9919, "processed": 0, "queries": 1200, "reachable_nodes": 0, "tpo_pool": 0, "traversed": 0},
    ("churn_kbo", "on"): {"answers": 4967, "created": 611, "naive_steps": 8138, "processed": 316, "queries": 1200, "reachable_nodes": 0, "tpo_pool": 0, "traversed": 2541},
    ("churn_kbo", "shared"): {"answers": 3239, "created": 288, "naive_steps": 9919, "processed": 0, "queries": 1200, "reachable_nodes": 0, "tpo_pool": 0, "traversed": 0},
}


@functools.cache
def workload(name):
    return workloads.GENERATORS[name](SEED)


@pytest.mark.parametrize("name, mode", list(COUNTS))
def test_one_pass_does_the_pinned_work(name, mode):
    prep = passes.prepare(workload(name), mode)
    assert passes.timed_pass(prep).failed == 0
    assert passes.counts(prep) == COUNTS[name, mode]
