"""Self-checks of the benchmark's deterministic counts.

    python3 -m pytest perfbench/test_bench.py

Two traced passes at the same seed must give identical counts, and the
rewrite steps on ``programs`` must match the baseline recorded in ROADMAP.md.
"""
import sys
from collections import Counter

import pytest

import run
from spans import Recorder

sys.path.insert(0, str(run.SRC))

SEED = 1
STEADY = ("rewrite.steps", "proofnet.canonicalize_calls", "translate.net_cells")
SUITE_STEPS = 2670
READER_STEPS = {"readers-1": 20, "readers-2": 119, "readers-3": 683, "readers-4": 3339}


def traced_pass(workload: str, seed: int = SEED):
    """One traced pass; returns (metrics, steps per case label, loop)."""
    cases = run.setup(workload, seed)
    loop = run.Loop(cases, seed)
    rec = Recorder()
    rec.install()
    try:
        loop.one_pass(rec.op)
    finally:
        rec.uninstall()
    steps = Counter(
        cases[op].label for name, _, _, _, op in rec.spans if name == "rewrite.apply_redex"
    )
    return rec.metrics(1, 1.0), steps, loop


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_counts_repeat_at_the_same_seed(workload):
    first, _, loop1 = traced_pass(workload)
    second, _, loop2 = traced_pass(workload)
    assert loop1.failed == loop2.failed == 0
    assert {m: first[m] for m in STEADY} == {m: second[m] for m in STEADY}


def test_program_steps_match_the_roadmap_baseline():
    metrics, steps, loop = traced_pass("programs")
    assert loop.failed == 0
    suite = sum(n for label, n in steps.items() if label not in READER_STEPS)
    assert suite == SUITE_STEPS
    assert {k: steps[k] for k in READER_STEPS} == READER_STEPS
    assert metrics["rewrite.steps"] == SUITE_STEPS + sum(READER_STEPS.values())
    assert metrics["lang.typecheck_calls"] == 4 * len(loop.cases)
