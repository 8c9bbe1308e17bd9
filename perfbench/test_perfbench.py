"""Tests of the benchmark itself, on a small workload of every job kind.

Run with `python -m pytest perfbench` from the repository root.
"""

from __future__ import annotations

import dataclasses

import pytest

import harness
from workloads import ALL_DET, Job, StarFile, Workload, audit, linear_oa, search_max

OA5_WITNESS = tuple(f"1:0,2:{i},3:{i}" for i in range(5))

# one short job of each kind the real workloads use
SMALL = Workload(
    "small",
    (linear_oa("oa5", 5, 3),),
    (
        search_max("oa5", 1, *ALL_DET, exit=0, optimum=5, all_max_count=15, witness=OA5_WITNESS),
        Job(("check-design", "--json", "--design", "@oa5"), {"exit": 0, "verified": True, "indices": [25, 5, 1]}),
        Job(("dr", "--json", "--design", "@oa5", "--s", "1", "--r", "0"), {"exit": 0, "d_r": 2, "bound": 3}),
        Job(
            ("verify-extremal", "--json", "--design", "@oa5", "--family-file", "@star5", "--s", "1"),
            {"exit": 0, "status": "extremal-star", "center": "1:0"},
        ),
        audit("johnson:v=6,m=3", exit=0, passed=True),
        Job(("audit", "--json", "--family", "johnson:v=6,m=3", "--budget", "1000"), {"exit": 3}),
    ),
    stars=(StarFile("star5", "oa5", "hamming:m=3,n=5", "1:0,"),),
)


def run_small(workload=SMALL, seed=1):
    # the reference process only scales timings; a constant keeps these tests short
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "reference", lambda log, env, work: log.sequence.append(("ref", 1.0)))
        mp.setattr(harness, "SETUP_REPEATS", 1)
        return harness.run_workload(workload, seed, seconds=0)


@pytest.fixture(scope="module")
def seed1():
    return run_small(seed=1)


def outputs(log):
    """Checked fields per job, in job-definition order."""
    by_job = {e.job.name: harness.checked_fields(e.job, harness.report_result(e.proc.stdout) or {}) for e in log.executions}
    return [by_job[job.name] for job in log.workload.jobs]


def test_small_workload_passes_its_oracle(seed1):
    assert seed1.attempted == len(SMALL.jobs)
    assert [e.problems for e in seed1.executions] == [[]] * len(SMALL.jobs)
    metrics = harness.end_to_end(seed1)
    assert metrics["jobs_failed"] == (0, "count")
    assert metrics["dr_s"][0] > 0 and metrics["wall_s"][0] >= metrics["search_max_s"][0]


def test_corrupted_expected_value_counts_as_failed():
    good = SMALL.jobs[0]
    bad = dataclasses.replace(good, expect=dict(good.expect, optimum=6))
    log = run_small(dataclasses.replace(SMALL, jobs=(bad, good)))
    assert (log.attempted, log.failed) == (2, 1)
    assert [e.problems for e in log.executions if e.job is bad] == [["optimum = 5, expected 6"]]


def test_two_seeds_give_identical_checked_outputs(seed1):
    seed2 = run_small(seed=2)
    assert seed2.failed == 0
    assert outputs(seed1) == outputs(seed2)
    order = lambda log: [e.job.name for e in log.executions]  # noqa: E731
    assert order(seed1) != order(seed2)


def test_traced_results_are_identical_to_untraced():
    log = harness.trace_workload(SMALL, seed=3)
    assert log.failed == 0
    plain = {e.job.name: harness.comparable_result(e.proc.stdout) for e in log.executions if not e.traced}
    traced = {e.job.name: harness.comparable_result(e.proc.stdout) for e in log.executions if e.traced}
    assert plain == traced and len(traced) == len(SMALL.jobs)
    layers = harness.per_layer(log)
    assert layers["search.nodes"][0] > 0
    assert layers["audit.refusals"][0] == 1 and layers["audit.errors"][0] == 1
    assert layers["ekr.compute_dr.s"][0] > 0
    assert layers["cli.start_s"][0] > 0
