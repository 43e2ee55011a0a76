"""Alternating-path machinery on box-free nets.

The port graph of a net has one vertex per port, one wire edge per wire and
one cell edge per auxiliary port (connecting it to the principal port of its
cell).  A path alternates wire and cell edges.  Acyclicity means no
alternating path returns to its start port; on acyclic nets, free-to-free
paths (starting and ending on wire edges) can be counted.

Walks run on one numbered state graph.  Each wired port gets a number k;
state 2k means "reached over a wire, a cell edge comes next" and state
2k + 1 "reached over a cell edge, the port's wire comes next".  A walk that
leaves port k over its wire starts in state 2k + 1, one that leaves over a
cell edge starts in state 2k, and it returns to k exactly when it reaches
state 2k or 2k + 1 again.  So a returning walk exists iff the state graph
has a cycle, or it is a DAG in which a state s reaches its partner s ^ 1;
the bitset reachability below tests exactly that.
"""
from __future__ import annotations

from .errors import CyclicNet, HasBoxes, UnwiredPort
from .proofnet import Net


def _walks(n: Net):
    """The port -> k numbering of the wired ports of `n` and the successor
    list of every state.  The last wire at a port wins."""
    if any(c.sym == "Box" for c in n.cells):
        raise HasBoxes("path machinery requires a box-free net")
    num: dict[int, int] = {}
    for w in n.wires:
        num.setdefault(w.a, len(num))
        num.setdefault(w.b, len(num))
    succ: list[list[int]] = [[] for _ in range(2 * len(num))]
    for w in n.wires:
        succ[2 * num[w.a] + 1] = [2 * num[w.b]]
        succ[2 * num[w.b] + 1] = [2 * num[w.a]]

    def state(c, port, what) -> int:
        if port not in num:
            raise UnwiredPort(f"{c.sym} cell {c.id} has an unwired {what}")
        return 2 * num[port]

    for c in n.cells:
        p = state(c, c.principal, "principal port")
        for i, a in enumerate(c.aux):
            k = state(c, a, f"aux port {i}")
            succ[k].append(p + 1)
            succ[p].append(k + 1)
    return num, succ


def _is_acyclic(succ: list[list[int]]) -> bool:
    # cycle detection / topological order by iterative colouring
    color = [0] * len(succ)  # 0 new, 1 open, 2 done
    topo: list[int] = []
    for root in range(len(succ)):
        if color[root]:
            continue
        stack = [(root, 0)]
        color[root] = 1
        while stack:
            s, idx = stack[-1]
            if idx < len(succ[s]):
                stack[-1] = (s, idx + 1)
                t = succ[s][idx]
                if color[t] == 1:
                    return False  # state cycle => infinite returning walk
                if color[t] == 0:
                    color[t] = 1
                    stack.append((t, 0))
            else:
                color[s] = 2
                topo.append(s)
                stack.pop()

    reach = [0] * len(succ)  # bitset of states reachable by nonempty paths
    for s in topo:  # reverse topological (children first)
        r = 0
        for t in succ[s]:
            r |= (1 << t) | reach[t]
        reach[s] = r
    return not any(r >> (s ^ 1) & 1 for s, r in enumerate(reach))


def check_acyclic(n: Net) -> bool:
    return _is_acyclic(_walks(n)[1])


def _count_to(succ, start: int, goal: int, memo: list) -> int:
    """Walks from state `start` that end in state `goal`, memoized."""
    stack = [start]
    while stack:
        s = stack[-1]
        if memo[s] is not None:
            stack.pop()
            continue
        pending = [t for t in succ[s] if memo[t] is None]
        if pending:
            stack.extend(pending)
            continue
        memo[s] = sum(memo[t] for t in succ[s]) + (s == goal)
        stack.pop()
    return memo[start]


def count_paths(n: Net, i: int, o: int) -> int:
    """Number of alternating paths from free port i to free port o.

    Paths start and end with wire edges.  Requires an acyclic net.
    """
    return count_paths_all(n, [i], [o])[(i, o)]


def count_paths_all(n: Net, sources, targets) -> dict[tuple[int, int], int]:
    """Path counts for every (source, target) port pair, sharing one
    acyclicity check and one memo table per target."""
    num, succ = _walks(n)
    if not _is_acyclic(succ):
        raise CyclicNet("path counting requires an acyclic net")
    out: dict[tuple[int, int], int] = {}
    for o in targets:
        if o not in num:
            raise KeyError("ports must be wired")
        memo: list = [None] * len(succ)
        for i in sources:
            if i not in num:
                raise KeyError("ports must be wired")
            # a path from i leaves over i's wire: it starts in state 2k + 1
            out[(i, o)] = 0 if i == o else _count_to(succ, 2 * num[i] + 1, 2 * num[o], memo)
    return out
