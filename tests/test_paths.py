"""Alternating-path counting and acyclicity on box-free nets."""
import random

import pytest

from routenet.errors import CyclicNet, HasBoxes, UnwiredPort
from routenet.multirel import from_rows
from routenet.paths import check_acyclic, count_paths, count_paths_all
from routenet.proofnet import Cell, Net, ONE, Wire, bang
from routenet.routing import RoutingArea, build_area

A = bang(ONE)


def _walk_relation(n: Net):
    """The edges of the port graph, read off the net as the `paths` module
    docstring defines them: each port's wire partner (the last wire at a
    port wins) and its partners over cell edges (aux <-> principal)."""
    wire, cell = {}, {}
    for w in n.wires:
        wire[w.a], wire[w.b] = w.b, w.a
    for c in n.cells:
        for a in c.aux:
            cell.setdefault(a, []).append(c.principal)
            cell.setdefault(c.principal, []).append(a)
    return wire, cell


def _is_acyclic_naive(n: Net) -> bool:
    """Definitional check, the oracle for `check_acyclic`: per start port,
    search for an alternating walk that returns to it."""
    wire, cell = _walk_relation(n)
    for u in wire:
        # a search state is (port, whether the walk leaves it over its wire)
        stack = [(u, True), (u, False)]
        seen = set(stack)
        while stack:
            port, over_wire = stack.pop()
            for q in [wire[port]] if over_wire else cell.get(port, []):
                if q == u:
                    return False
                if (q, not over_wire) not in seen:
                    seen.add((q, not over_wire))
                    stack.append((q, not over_wire))
    return True


def count_paths_exhaustive(n: Net, i: int, o: int) -> int:
    """The oracle for `count_paths`: explicit enumeration of every
    alternating walk from free port i that ends at o over a wire."""
    assert _is_acyclic_naive(n)
    wire, cell = _walk_relation(n)
    if i == o:
        return 0
    found = 0
    stack = [wire[i]]  # ports reached over a wire; a cell edge comes next
    while stack:
        p = stack.pop()
        found += p == o
        stack.extend(wire[q] for q in cell.get(p, []))
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
    ports = {label: p for p, label in net.free}
    pi, po = ports["i"], ports["o"]
    assert count_paths(net, pi, po) == 3
    assert count_paths_exhaustive(net, pi, po) == 3


def test_boxes_rejected():
    inner = Net([Cell(1, "One", 1)], [Wire(1, 2, ONE)], [(2, "main")])
    n = Net([Cell(1, "Box", 1, [], inner)], [Wire(1, 2, bang(ONE))], [(2, "out")])
    with pytest.raises(HasBoxes):
        count_paths(n, 1, 2)
    with pytest.raises(HasBoxes):
        check_acyclic(n)
    with pytest.raises(HasBoxes):
        count_paths_all(n, [2], [2])


def test_cycle_detected():
    # a contraction whose principal wire feeds back into its own aux
    n = Net(
        [Cell(1, "Contraction", 1, [2, 3])],
        [Wire(1, 2, A), Wire(4, 3, A)],
        [(4, "x")],
    )
    assert not check_acyclic(n)
    assert not _is_acyclic_naive(n)
    with pytest.raises(CyclicNet):
        count_paths(n, 4, 4)


def test_self_wire_is_a_returning_walk():
    n = Net([], [Wire(1, 1, A), Wire(2, 3, A)], [(2, "i"), (3, "o")])
    assert not check_acyclic(n)
    assert not _is_acyclic_naive(n)
    with pytest.raises(CyclicNet):
        count_paths_all(n, [2], [3])


def test_last_wire_at_a_port_wins():
    # port 1 ends two wires; its walk follows the later one, to 3
    n = Net([], [Wire(1, 2, A), Wire(1, 3, A)], [(2, "a"), (3, "b")])
    assert check_acyclic(n) and _is_acyclic_naive(n)
    for i, o, k in ((1, 3, 1), (1, 2, 0), (2, 1, 1), (3, 1, 1), (2, 3, 0)):
        assert count_paths(n, i, o) == count_paths_exhaustive(n, i, o) == k


def test_unwired_ports():
    # a cell port without a wire is refused; an unwired source or target
    # of a count is a KeyError
    n = Net(
        [Cell(1, "Contraction", 2, [3, 4])],
        [Wire(1, 2, A), Wire(3, 5, A)],
        [(1, "i"), (5, "o")],
    )
    for op in (
        lambda: check_acyclic(n),
        lambda: count_paths(n, 1, 5),
        lambda: count_paths_all(n, [1], [5]),
    ):
        with pytest.raises(UnwiredPort, match="Contraction cell 1 has an unwired aux port 1"):
            op()
    wired = Net([], [Wire(1, 2, A)], [(1, "i"), (2, "o")])
    with pytest.raises(KeyError, match="ports must be wired"):
        count_paths(wired, 1, 3)
    with pytest.raises(KeyError, match="ports must be wired"):
        count_paths_all(wired, [3], [2])


def _random_net(rng):
    """A box-free net: random wires over 4 to 13 ports, and unary cells on
    random wired ports (two cells may share a port)."""
    nport = rng.randrange(4, 14)
    ports = list(range(1, nport + 1))
    rng.shuffle(ports)
    wires = [Wire(ports[i], ports[i + 1], A) for i in range(0, nport - 1, 2)]
    wired = ports[: nport - nport % 2]
    cells = []
    for k in range(1, rng.randrange(0, nport) + 1):
        p, a = rng.sample(wired, 2)
        cells.append(Cell(k, rng.choice(["Contraction", "Cocontraction"]), p, [a]))
    return Net(cells, wires, [])


def test_fast_acyclicity_matches_definitional_check():
    rng = random.Random(0)
    seen = {True: 0, False: 0}
    for _ in range(300):
        n = _random_net(rng)
        fast = check_acyclic(n)
        assert fast == _is_acyclic_naive(n)
        seen[fast] += 1
    assert seen[True] > 10 and seen[False] > 10  # both outcomes exercised


def test_dp_counts_match_exhaustive_enumeration():
    rng = random.Random(1)
    checked = 0
    nets = [
        build_area(RoutingArea(from_rows(
            ["i1", "i2"],
            ["o1", "o2"],
            [[rng.randint(0, 3) for _ in range(2)] for _ in range(2)],
        )))
        for _ in range(40)
    ]
    # acyclic random nets, between every pair of wired ports
    nets += [n for n in (_random_net(rng) for _ in range(100)) if _is_acyclic_naive(n)]
    for net in nets:
        ports = [p for p, _ in net.free] or sorted(_walk_relation(net)[0])
        table = count_paths_all(net, ports, ports)
        for i in ports:
            for o in ports:
                if i != o:
                    assert table[(i, o)] == count_paths_exhaustive(net, i, o)
                    checked += 1
    assert checked > 1000
