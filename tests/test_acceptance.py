"""Acceptance gate: ten integer-exact criteria at full scale.

Each test is one criterion; the `pytest -v` report gives one pass/fail line
per criterion.  All comparisons are exact (no tolerances); the timed
criteria assert their wall-clock bounds.  Criteria 1 to 9 run their checks
through `gen.run_suite`, the runner of `routenet verify`.
"""
import random
import time

from routenet.gen import PROGRAM_SUITE, gen_routing_net, gen_typed_net, run_suite
from routenet.proofnet import parse, serialize

SEED = 2024


def _run(suite, cases, seed=SEED):
    """Run a `verify` suite, assert that every case passes and return its
    wall-clock seconds and its messages."""
    start = time.monotonic()
    results = run_suite(suite, seed, cases)
    elapsed = time.monotonic() - start
    failures = [msg for _, ok, msg in results if not ok]
    assert failures == [], failures[:5]
    return elapsed, [msg for _, _, msg in results]


def test_criterion_01_trace_of_area_matches_trace_formula():
    elapsed, _ = _run("trace", 200)
    assert elapsed < 10.0, f"trace suite took {elapsed:.1f}s"


def test_criterion_02_path_counting_matches_net_semantics():
    # the same 200 seeded areas as criterion 1, then 200 generated nets
    elapsed = _run("paths-area", 200)[0] + _run("paths", 200, seed=SEED + 1)[0]
    assert elapsed < 30.0, f"path suite took {elapsed:.1f}s"


def test_criterion_03_area_composition_is_matrix_product():
    elapsed, _ = _run("compose", 100)
    assert elapsed < 10.0, f"composition suite took {elapsed:.1f}s"


def test_criterion_04_routing_net_normal_forms_are_areas():
    _run("characterize", 200, seed=SEED + 1)


def test_criterion_05_single_steps_preserve_free_path_counts():
    _run("path-preservation", 200, seed=SEED + 1)


def test_criterion_06_transit_delivers_semantics_row_and_keeps_area():
    _run("transit", 50)


def test_criterion_07_reduction_graphs_have_unique_sink_no_cycle():
    _, messages = _run("confluence", 100)
    skipped = sum(msg.startswith("skipped") for msg in messages)
    assert skipped < 10, f"{skipped}/100 graphs truncated: raise routenet.gen.CONFLUENCE_MAX_NODES"


def test_criterion_08_source_steps_simulated_in_compiled_nets():
    names = [n for n, _, _ in PROGRAM_SUITE]
    assert len(names) >= 15 and "proj" in names
    elapsed, _ = _run("simulate", 0)  # every suite program
    assert elapsed < 60.0, f"simulation suite took {elapsed:.1f}s"


def test_criterion_09_value_summands_biject_with_interpreter_values():
    _run("adequacy", 0)


def test_criterion_10_serialization_round_trips_bit_exactly():
    rng = random.Random(SEED)
    for k in range(500):
        net = gen_typed_net(rng) if k % 2 else gen_routing_net(rng)
        data = serialize(net)
        (back,) = parse(data)
        assert serialize(back) == data
