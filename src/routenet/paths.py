"""Alternating-path machinery on box-free nets.

The port graph of a net has one vertex per port, one wire edge per wire and
one cell edge per auxiliary port (connecting it to the principal port of its
cell).  A path alternates wire and cell edges.  Acyclicity means no
alternating path returns to its start port; on acyclic nets, free-to-free
paths (starting and ending on wire edges) can be counted.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CyclicNet, HasBoxes
from .proofnet import Net


@dataclass
class PortGraph:
    vertices: set[int] = field(default_factory=set)
    wire_edges: list[tuple[int, int]] = field(default_factory=list)
    cell_edges: list[tuple[int, int]] = field(default_factory=list)  # (aux, principal)


def build_graph(n: Net) -> PortGraph:
    if any(c.sym == "Box" for c in n.cells):
        raise HasBoxes("path machinery requires a box-free net")
    g = PortGraph()
    for w in n.wires:
        g.vertices.add(w.a)
        g.vertices.add(w.b)
        g.wire_edges.append((w.a, w.b))
    for c in n.cells:
        for a in c.aux:
            g.cell_edges.append((a, c.principal))
    return g


def _adjacency(g: PortGraph):
    """wire_other: port -> far end; cross: port -> ports over cell edges."""
    wire_other: dict[int, int] = {}
    for a, b in g.wire_edges:
        wire_other[a] = b
        wire_other[b] = a
    cross: dict[int, list[int]] = {v: [] for v in g.vertices}
    for a, p in g.cell_edges:
        cross[a].append(p)
        cross[p].append(a)
    return wire_other, cross


def _successor_map(g: PortGraph):
    """Traversal states are (port, kind-of-edge-just-traversed).

    From a 'w' state the walk must cross a cell edge; from a 'c' state it
    must follow the port's wire.  Returns wire_other plus the full state
    successor map, precomputed once.
    """
    wire_other, cross = _adjacency(g)
    succ: dict[tuple[int, str], tuple] = {}
    for v in g.vertices:
        succ[(v, "w")] = tuple((q, "c") for q in sorted(cross.get(v, ())))
        far = wire_other.get(v)
        succ[(v, "c")] = ((far, "w"),) if far is not None else ()
    return wire_other, succ


def _is_acyclic(g: PortGraph, succ) -> bool:
    """A returning walk exists iff the state graph has a cycle, or it is a
    DAG in which one state of some port reaches the port's other state.
    Reachability over the DAG is computed with integer bitsets."""
    states = list(succ)
    index = {s: k for k, s in enumerate(states)}
    nexts = [[index[t] for t in succ[s]] for s in states]

    # cycle detection / topological order by iterative colouring
    color = [0] * len(states)  # 0 new, 1 open, 2 done
    topo: list[int] = []
    for root in range(len(states)):
        if color[root]:
            continue
        stack = [(root, 0)]
        color[root] = 1
        while stack:
            s, idx = stack[-1]
            if idx < len(nexts[s]):
                stack[-1] = (s, idx + 1)
                t = nexts[s][idx]
                if color[t] == 1:
                    return False  # state cycle => infinite returning walk
                if color[t] == 0:
                    color[t] = 1
                    stack.append((t, 0))
            else:
                color[s] = 2
                topo.append(s)
                stack.pop()

    reach = [0] * len(states)  # bitset of states reachable by nonempty paths
    for s in topo:  # reverse topological (children first)
        r = 0
        for t in nexts[s]:
            r |= (1 << t) | reach[t]
        reach[s] = r
    for u in g.vertices:
        a, b = index[(u, "w")], index[(u, "c")]
        if reach[a] >> b & 1 or reach[b] >> a & 1:
            return False
    return True


def check_acyclic(n: Net) -> bool:
    g = build_graph(n)
    _, succ = _successor_map(g)
    return _is_acyclic(g, succ)


def _acyclic_walks(n: Net):
    """wire_other and the successor map of an acyclic net, built once;
    raises CyclicNet on a cyclic one."""
    g = build_graph(n)
    wire_other, succ = _successor_map(g)
    if not _is_acyclic(g, succ):
        raise CyclicNet("path counting requires an acyclic net")
    return wire_other, succ


def _count_to(succ, start, o, memo) -> int:
    """Paths from `start` state to arrival-at-`o`-over-a-wire, memoized."""
    stack = [start]
    while stack:
        s = stack[-1]
        if s in memo:
            stack.pop()
            continue
        pending = [t for t in succ[s] if t not in memo]
        if pending:
            stack.extend(pending)
            continue
        total = sum(memo[t] for t in succ[s])
        if s[1] == "w" and s[0] == o:
            total += 1
        memo[s] = total
        stack.pop()
    return memo[start]


def count_paths(n: Net, i: int, o: int) -> int:
    """Number of alternating paths from free port i to free port o.

    Paths start and end with wire edges.  Requires an acyclic net.
    """
    wire_other, succ = _acyclic_walks(n)
    if i not in wire_other or o not in wire_other:
        raise KeyError("ports must be wired")
    if i == o:
        return 0
    return _count_to(succ, (wire_other[i], "w"), o, {})


def count_paths_all(n: Net, sources, targets) -> dict[tuple[int, int], int]:
    """Path counts for every (source, target) port pair, sharing one
    acyclicity check and one memo table per target."""
    wire_other, succ = _acyclic_walks(n)
    out: dict[tuple[int, int], int] = {}
    for o in targets:
        if o not in wire_other:
            raise KeyError("ports must be wired")
        memo: dict = {}
        for i in sources:
            if i not in wire_other:
                raise KeyError("ports must be wired")
            out[(i, o)] = (
                0 if i == o else _count_to(succ, (wire_other[i], "w"), o, memo)
            )
    return out
