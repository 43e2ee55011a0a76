"""Alternating-path counting and acyclicity on box-free nets."""
import random

import pytest

from routenet.errors import CyclicNet, HasBoxes
from routenet.multirel import from_rows
from routenet.paths import (
    PortGraph,
    _acyclic_walks,
    _is_acyclic,
    _successor_map,
    build_graph,
    check_acyclic,
    count_paths,
    count_paths_all,
)
from routenet.proofnet import Cell, Net, ONE, Wire, bang
from routenet.routing import RoutingArea, build_area

A = bang(ONE)


def _is_acyclic_naive(g: PortGraph, succ) -> bool:
    """Definitional check, the oracle for `_is_acyclic`: per start port,
    search for a returning walk."""
    for u in g.vertices:
        # the start states out of u are exactly the successors of u's states
        starts = list(succ[(u, "w")]) + list(succ[(u, "c")])
        seen = set(starts)
        stack = starts
        while stack:
            s = stack.pop()
            if s[0] == u:
                return False
            for t in succ[s]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
    return True


def count_paths_exhaustive(n: Net, i: int, o: int) -> int:
    """The oracle for `count_paths`: explicit enumeration of every
    alternating walk."""
    wire_other, succ = _acyclic_walks(n)
    if i not in wire_other or o not in wire_other:
        raise KeyError("ports must be wired")
    if i == o:
        return 0
    found = 0
    stack = [(wire_other[i], "w")]
    while stack:
        s = stack.pop()
        if s[1] == "w" and s[0] == o:
            found += 1
        stack.extend(succ[s])
    return found


def test_single_wire_has_one_path():
    n = Net([], [Wire(1, 2, A)], [(1, "i"), (2, "o")])
    assert check_acyclic(n)
    assert count_paths(n, 1, 2) == 1
    assert count_paths(n, 2, 1) == 1
    assert count_paths(n, 1, 1) == 0


def test_contraction_fans_out():
    # i -> contraction -> two outputs: one path to each, none between outputs
    n = Net(
        [Cell(1, "Contraction", 2, [3, 4])],
        [Wire(1, 2, A), Wire(3, 5, A), Wire(4, 6, A)],
        [(1, "i"), (5, "o1"), (6, "o2")],
    )
    assert count_paths(n, 1, 5) == 1
    assert count_paths(n, 1, 6) == 1
    # o1 -> o2 crosses aux-principal-aux: alternating paths pass through the
    # principal, so aux-to-aux is connected via two cell edges -- blocked
    assert count_paths(n, 5, 6) == 0


def test_area_multiplicity_equals_path_count():
    r = from_rows(["i"], ["o"], [[3]])
    net = build_area(RoutingArea(r))
    pi = net.free_port("i")
    po = net.free_port("o")
    assert count_paths(net, pi, po) == 3
    assert count_paths_exhaustive(net, pi, po) == 3


def test_boxes_rejected():
    inner = Net([Cell(1, "One", 1)], [Wire(1, 2, ONE)], [(2, "main")])
    n = Net([Cell(1, "Box", 1, [], inner)], [Wire(1, 2, bang(ONE))], [(2, "out")])
    with pytest.raises(HasBoxes):
        count_paths(n, 1, 2)


def test_cycle_detected():
    # a contraction whose principal wire feeds back into its own aux
    n = Net(
        [Cell(1, "Contraction", 1, [2, 3])],
        [Wire(1, 2, A), Wire(4, 3, A)],
        [(4, "x")],
    )
    assert not check_acyclic(n)
    with pytest.raises(CyclicNet):
        count_paths(n, 4, 4)


def _random_graph(rng):
    g = PortGraph()
    nport = rng.randrange(4, 14)
    ports = list(range(1, nport + 1))
    g.vertices = set(ports)
    rng.shuffle(ports)
    for i in range(0, nport - 1, 2):
        if rng.random() < 0.9:
            g.wire_edges.append((ports[i], ports[i + 1]))
    for _ in range(rng.randrange(0, nport)):
        a, p = rng.sample(list(g.vertices), 2)
        g.cell_edges.append((a, p))
    return g


def test_fast_acyclicity_matches_definitional_check():
    rng = random.Random(0)
    seen = {True: 0, False: 0}
    for _ in range(300):
        g = _random_graph(rng)
        _, succ = _successor_map(g)
        fast = _is_acyclic(g, succ)
        naive = _is_acyclic_naive(g, succ)
        assert fast == naive
        seen[fast] += 1
    assert seen[True] > 10 and seen[False] > 10  # both outcomes exercised


def test_dp_counts_match_exhaustive_enumeration():
    rng = random.Random(1)
    checked = 0
    for seed in range(40):
        r = from_rows(
            ["i1", "i2"],
            ["o1", "o2"],
            [[rng.randint(0, 3) for _ in range(2)] for _ in range(2)],
        )
        net = build_area(RoutingArea(r))
        free = [p for p, _ in net.free]
        table = count_paths_all(net, free, free)
        for i in free:
            for o in free:
                if i != o:
                    assert table[(i, o)] == count_paths_exhaustive(net, i, o)
                    checked += 1
    assert checked > 0
