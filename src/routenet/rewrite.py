"""Cut elimination for differential nets.

A redex is a wire whose two endpoints are principal ports of cells forming a
reducible pair (or, for the box-commutation rule, the principal of a closed
box against an auxiliary door of another box).  Reduction of a net yields a
formal sum of nets: most rules produce one net, the codereliction/
cocontraction-versus-dereliction rule produces two, and the coweakening-
versus-dereliction rule produces the empty sum.

Exponential rules only fire on closed boxes (no auxiliary doors).
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExhausted, StaleRedex
from .proofnet import Builder, Cell, Net, NetSum, Wire

SURFACE = "surface"
ANYDEPTH_EER = "anydepth_eer"
ALL = "all"

_DEEP_RULES = {"e", "er"}

_PAIR_RULE = {
    ("Tensor", "Par"): "m",
    ("Box", "Dereliction"): "e",
    ("Box", "Contraction"): "d",
    ("Box", "Weakening"): "er",
    ("Cocontraction", "Dereliction"): "nd",
    ("Cocontraction", "Contraction"): "ba",
    ("Cocontraction", "Weakening"): "s2",
    ("Coweakening", "Dereliction"): "zero_wd",
    ("Coweakening", "Contraction"): "s1",
    ("Coweakening", "Weakening"): "eps_ww",
}

RULES = set(_PAIR_RULE.values()) | {"c"}


@dataclass(frozen=True)
class Redex:
    path: tuple[int, ...]  # box cell ids from the outermost level inwards
    rule: str
    wire: tuple[int, int]  # (port on first cell, port on second cell)
    cells: tuple[int, int]  # cell ids; first is the symbol listed first
    door: int = -1  # auxiliary door index, for rule c only

    def key(self):
        return (len(self.path), self.path, self.cells, self.wire)


def _closed(c: Cell) -> bool:
    return c.sym == "Box" and not c.aux


def _classify(net: Net, w: Wire, owner=None):
    """Return (rule, port_x, port_y, cell_x, cell_y, door) or None."""
    if owner is None:
        owner = net.owner()
    for x, y in ((w.a, w.b), (w.b, w.a)):
        ox, oy = owner.get(x), owner.get(y)
        if ox is None or oy is None:
            continue
        (cx, sx), (cy, sy) = ox, oy
        if sx == "p" and sy == "p":
            rule = _PAIR_RULE.get((cx.sym, cy.sym))
            if rule is None:
                continue
            if cx.sym == "Box" and not _closed(cx):
                continue
            return rule, x, y, cx, cy, -1
        if sx == "p" and isinstance(sy, int) and _closed(cx) and cy.sym == "Box":
            return "c", x, y, cx, cy, sy
    return None


def find_redexes(net: Net, policy: str = SURFACE) -> list[Redex]:
    out: list[Redex] = []

    def walk(n: Net, path: tuple[int, ...]):
        owner = n.owner()
        for w in n.wires:
            hit = _classify(n, w, owner)
            if hit is None:
                continue
            rule, x, y, cx, cy, door = hit
            if path and policy == SURFACE:
                continue
            if path and policy == ANYDEPTH_EER and rule not in _DEEP_RULES:
                continue
            out.append(Redex(path, rule, (x, y), (cx.id, cy.id), door))
        if policy != SURFACE:
            for c in n.cells:
                if c.sym == "Box":
                    walk(c.inner, path + (c.id,))

    walk(net, ())
    return sorted(out, key=Redex.key)


# ---------------------------------------------------------------------------
# Surgery helpers


def _level(net: Net, path: tuple[int, ...]) -> Net:
    for cid in path:
        net = net.cell_by_id(cid).inner
    return net


def _resplice(n: Net, dead: set[int], pairs: dict[int, int]):
    """Rewire around removed cells.

    `dead` are ports of deleted cells; `pairs` identifies dead ports in both
    directions.  Chains of wires through identified dead ports become single
    wires; all-dead chains and cycles vanish.
    """
    keep, visited = [], set()
    wire_at = n.wire_of()
    for w in n.wires:
        if w.a not in dead and w.b not in dead:
            keep.append(w)
            visited.add(id(w))
    for w in n.wires:
        if id(w) in visited:
            continue
        for start in (w.a, w.b):
            if start in dead:
                continue
            # walk from the live end through identified dead ports
            cur, at = w, w.other(start)
            ty = w.toward(at)  # formula read start -> far end
            visited.add(id(cur))
            while at in pairs:
                nxt = pairs[at]
                cur = wire_at[nxt]
                visited.add(id(cur))
                at = cur.other(nxt)
            if at in dead:
                raise StaleRedex("chain ended on an unidentified dead port")
            keep.append(Wire(start, at, ty))
            break
    # wires never reached from a live end are dropped
    n.wires = keep


def _remove_cells(n: Net, cells):
    ids = {c.id for c in cells}
    n.cells = [c for c in n.cells if c.id not in ids]


# ---------------------------------------------------------------------------
# Rule application


def _need_wired(n: Net, ports):
    """Raise StaleRedex unless every port in `ports` ends a wire of `n`."""
    ends = {p for w in n.wires for p in (w.a, w.b)}
    loose = [p for p in ports if p not in ends]
    if loose:
        raise StaleRedex(f"ports {loose} not wired")


def apply_redex(net: Net, redex: Redex) -> list[Net]:
    """Apply one reduction step; returns the resulting summands."""
    out = net.copy()
    lvl = _level(out, redex.path)
    try:
        cx = lvl.cell_by_id(redex.cells[0])
        cy = lvl.cell_by_id(redex.cells[1])
    except KeyError as exc:
        raise StaleRedex(str(exc)) from exc
    px, py = redex.wire
    cut = next(
        (w for w in lvl.wires if {w.a, w.b} == {px, py}), None
    )
    if cut is None:
        raise StaleRedex("cut wire vanished")
    check = _classify(lvl, cut)
    if check is None or check[0] != redex.rule:
        raise StaleRedex("wire no longer matches the rule")
    # the rules below re-end or splice the wires at these ports
    _need_wired(lvl, cx.aux + cy.aux)

    rule = redex.rule
    if rule == "m":
        _remove_cells(lvl, [cx, cy])
        dead = set(cx.ports()) | set(cy.ports())
        pairs = {}
        for a, b in zip(cx.aux, cy.aux):
            pairs[a] = b
            pairs[b] = a
        _resplice(lvl, dead, pairs)
        return [out]

    if rule == "e":
        _remove_cells(lvl, [cx, cy])
        off = Builder(lvl).merge(cx.inner)
        f0 = cx.inner.free[0][0] + off
        dead = {cx.principal, cy.principal, cy.aux[0], f0}
        pairs = {cy.aux[0]: f0, f0: cy.aux[0]}
        _resplice(lvl, dead, pairs)
        return [out]

    if rule == "d":
        _remove_cells(lvl, [cx, cy])
        lvl.wires.remove(cut)
        b = Builder(lvl)
        for aux in cy.aux:
            b.reend(aux, b.cell("Box", 0, cx.inner.copy()).principal)
        return [out]

    if rule == "er":
        _remove_cells(lvl, [cx, cy])
        lvl.wires.remove(cut)
        return [out]

    if rule == "c":
        # cx: closed box entering through door redex.door of box cy
        _remove_cells(lvl, [cx])
        lvl.wires.remove(cut)
        door = redex.door
        cy.aux = cy.aux[:door] + cy.aux[door + 1 :]
        inner = cy.inner
        b = Builder(inner)
        door_port = inner.free[door + 1][0]
        _need_wired(inner, [door_port])
        inner.free = inner.free[: door + 1] + inner.free[door + 2 :]
        b.reend(door_port, b.cell("Box", 0, cx.inner.copy()).principal)
        return [out]

    if rule == "nd":
        res = []
        for i in (0, 1):
            alt = net.copy()
            lv = _level(alt, redex.path)
            k = lv.cell_by_id(cx.id)
            _remove_cells(lv, [k])
            lv.wires.remove(next(w for w in lv.wires if {w.a, w.b} == {px, py}))
            # re-end onto the dereliction first, so that py counts as used
            # when the builder picks the weakening's port
            Builder(lv).reend(k.aux[i], py)
            b = Builder(lv)
            b.reend(k.aux[1 - i], b.cell("Weakening", 0).principal)
            res.append(alt)
        return res

    if rule == "ba":
        lvl.wires.remove(cut)
        _remove_cells(lvl, [cx, cy])
        bang_b = cut.toward(cy.principal)  # the !B flowing out of cx
        b = Builder(lvl)
        contr = [b.cell("Contraction", 2) for _ in cx.aux]
        cocontr = [b.cell("Cocontraction", 2) for _ in cy.aux]
        for aux, c in zip(cx.aux + cy.aux, contr + cocontr):
            b.reend(aux, c.principal)
        for i in (0, 1):
            for j in (0, 1):
                b.wire(contr[i].aux[j], cocontr[j].aux[i], bang_b)
        return [out]

    if rule in ("s2", "s1"):
        lvl.wires.remove(cut)
        _remove_cells(lvl, [cx, cy])
        cap_sym = "Weakening" if rule == "s2" else "Coweakening"
        branching = cx if rule == "s2" else cy
        b = Builder(lvl)
        for aux in branching.aux:
            b.reend(aux, b.cell(cap_sym, 0).principal)
        return [out]

    if rule == "zero_wd":
        return []

    if rule == "eps_ww":
        lvl.wires.remove(cut)
        _remove_cells(lvl, [cx, cy])
        return [out]

    raise StaleRedex(f"unknown rule {rule}")


# ---------------------------------------------------------------------------
# Strategies


def step(net: Net, policy: str = ANYDEPTH_EER):
    """Apply the least redex under (depth, cell ids, wire); None if normal."""
    rs = find_redexes(net, policy)
    if not rs:
        return None
    return apply_redex(net, rs[0])


def normalize(x, budget: int = 10000, policy: str = ANYDEPTH_EER) -> NetSum:
    """Reduce to normal form under the given policy.

    The budget counts rule applications over the whole sum; running out
    raises BudgetExhausted carrying the partial sum (normal summands found
    so far plus the unfinished work items).
    """
    if isinstance(x, Net):
        x = [x]
    # Intermediate nets are kept raw: the sum is idempotent, so NetSum.add
    # dedups normal forms by certificate, and the budget bounds any work
    # duplicated by converging branches.  Canonicalizing every intermediate
    # step would dominate the running time.
    work: list = [n.copy() for n in x]
    done = NetSum()
    steps = 0
    while work:
        n = work.pop()
        rs = find_redexes(n, policy)
        if not rs:
            done.add(n)
            continue
        if steps >= budget:
            partial = NetSum(work + [n])
            raise BudgetExhausted(partial.union(done))
        steps += 1
        work.extend(apply_redex(n, rs[0]))
    return done


def reduction_graph(x, policy: str = ALL, max_nodes: int = 2000):
    """Breadth-first graph of sums under single-step reduction.

    Nodes are canonical sums; an edge per (summand, redex) choice.  Returns
    (nodes, edges, truncated) with nodes[0] the start and edges as index
    pairs.
    """
    start = x if isinstance(x, NetSum) else NetSum([x] if isinstance(x, Net) else x)
    index = {start.certs(): 0}
    nodes = [start]
    edges = set()
    queue = [0]
    truncated = False
    while queue:
        i = queue.pop(0)
        s = nodes[i]
        for summand in s.summands:
            rest = [m for m in s.summands if m is not summand]
            for r in find_redexes(summand, policy):
                nxt = NetSum(rest + apply_redex(summand, r))
                key = nxt.certs()
                if key not in index:
                    if len(nodes) >= max_nodes:
                        truncated = True
                        continue
                    index[key] = len(nodes)
                    nodes.append(nxt)
                    queue.append(index[key])
                edges.add((i, index[key]))
    return nodes, edges, truncated
