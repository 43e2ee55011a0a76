"""Cut elimination for differential nets.

A redex is a wire whose two endpoints are principal ports of cells forming a
reducible pair (or, for the box-commutation rule, the principal of a closed
box against an auxiliary door of another box).  Reduction of a net yields a
formal sum of nets: most rules produce one net, the cocontraction-versus-
dereliction rule `nd` produces one per aux port of the cocontraction (two
on binary cells), and the coweakening-versus-dereliction rule produces the
empty sum.

The bialgebra rule `ba` and its (co)weakening cases `s1`, `s2` and `eps_ww`
share one right-hand side for any arity, `bialgebra`.  The rules hang
binary combs on the ends of the cut; `routing` fires the same right-hand
side on whole (co)contraction trees and hangs one n-ary cell on each end.

Exponential rules only fire on closed boxes (no auxiliary doors).
"""
from __future__ import annotations

import heapq
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import count

from .errors import BudgetExhausted, StaleRedex, UnwiredPort
from .proofnet import (
    _NOBODY,
    Builder,
    Cell,
    Formula,
    Net,
    NetSum,
    Wire,
    certificate,
)

ANYDEPTH_EER = "anydepth_eer"
ALL = "all"
_POLICIES = (ANYDEPTH_EER, ALL)

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


@dataclass(slots=True)
class Redex:
    path: tuple[int, ...]  # box cell ids from the outermost level inwards
    rule: str
    wire: tuple[int, int]  # (port on first cell, port on second cell)
    cells: tuple[int, int]  # cell ids; first is the symbol listed first
    door: int = -1  # auxiliary door index, for rule c only
    # the objects the redex was classified from: the wire and the cells
    # named by `wire` and `cells`
    cut: Wire | None = field(default=None, compare=False, repr=False)
    cx: Cell | None = field(default=None, compare=False, repr=False)
    cy: Cell | None = field(default=None, compare=False, repr=False)

    def key(self):
        return (len(self.path), self.path, self.cells, self.wire)


def _closed(c: Cell) -> bool:
    return c.sym == "Box" and not c.aux


def _classify(owner: dict, w: Wire):
    """The redex on wire `w` of the level whose `owner()` is `owner`, as a
    candidate ((id_x, id_y), (port_x, port_y), rule, door, cell_x, cell_y),
    or None."""
    ea, eb = owner.get(w.a), owner.get(w.b)
    if ea is None or eb is None:
        return None
    (ca, sa), (cb, sb) = ea, eb
    if sa == "p" and sb == "p":
        # the first symbols of _PAIR_RULE are never second ones, so at most
        # one orientation has a rule
        rule = _PAIR_RULE.get((ca.sym, cb.sym))
        if rule is not None:
            x, y, cx, cy = w.a, w.b, ca, cb
        else:
            rule = _PAIR_RULE.get((cb.sym, ca.sym))
            if rule is None:
                return None
            x, y, cx, cy = w.b, w.a, cb, ca
        if cx.sym == "Box" and not _closed(cx):
            return None
        return (cx.id, cy.id), (x, y), rule, -1, cx, cy
    if sa == "p":
        x, y, cx, cy, door = w.a, w.b, ca, cb, sb
    elif sb == "p":
        x, y, cx, cy, door = w.b, w.a, cb, ca, sa
    else:
        return None
    if _closed(cx) and cy.sym == "Box":
        return (cx.id, cy.id), (x, y), "c", door, cx, cy
    return None


def _redex(path: tuple[int, ...], w: Wire, cand) -> Redex:
    cells, wire, rule, door, cx, cy = cand
    return Redex(path, rule, wire, cells, door, w, cx, cy)


def _check_policy(policy: str):
    if policy not in _POLICIES:
        raise ValueError(
            f"unknown policy {policy!r}: expected ANYDEPTH_EER ({ANYDEPTH_EER!r}) or ALL ({ALL!r})"
        )


def find_redexes(net: Net, policy: str = ANYDEPTH_EER) -> list[Redex]:
    _check_policy(policy)
    out: list[Redex] = []

    def walk(n: Net, path: tuple[int, ...]):
        owner = n.owner()
        for w in n.wires:
            hit = _classify(owner, w)
            if hit is None:
                continue
            if path and policy == ANYDEPTH_EER and hit[2] not in _DEEP_RULES:
                continue
            out.append(_redex(path, w, hit))
        for c in n.cells:
            if c.sym == "Box":
                walk(c.inner, path + (c.id,))

    walk(net, ())
    return sorted(out, key=Redex.key)


# ---------------------------------------------------------------------------
# Redex index
#
# Each level of a net carries its redex candidates in two heaps ordered like
# Redex.key within the level: the rules that also fire inside boxes under
# ANYDEPTH_EER (e, er), and the others.  A candidate keeps the wire and the
# two cells it was classified from; since no cell or wire is edited in place
# (see Net), it is a redex exactly while its level `_holds` them.  Before a
# level is searched, the wires at the ports its edits touched are
# classified and pushed, so every redex of the level is a candidate; stale
# candidates are dropped when they reach the top.  The push count breaks
# ties, so objects are never compared.  Box contents, and so their
# candidates, are shared between a net and its reducts.
#
# A step reads each index entry once: the search reads a level's `_maps`
# once and checks every candidate it tries against them, and the touched
# ports name their wires straight through the wire-key map.

_PUSHES = count()


def _maps(level: Net) -> tuple[dict, dict, dict]:
    """The level's indexes, built if need be: port -> wire key, wire key ->
    wire, and port -> (cell, slot)."""
    owner = level.owner()
    return level._wire_key, level._wires, owner


def _candidates(n: Net, maps) -> tuple[list, list]:
    """The level's candidate heaps, brought up to date with its edits;
    `maps` are the level's `_maps`."""
    wire_key, wires, owner = maps
    heaps = n.redexes
    if heaps is None:
        heaps = n.redexes = ([], [])
        for w in wires.values():
            _push(heaps, w, _classify(owner, w))
    elif n.touched:
        for k in {wire_key[p] for p in n.touched if p in wire_key}:
            w = wires[k]
            _push(heaps, w, _classify(owner, w))
        n.touched.clear()
    return heaps


def _push(heaps, w: Wire, cand):
    """Push the candidate `cand` of wire `w` as the heap entry (cells, ports,
    push count, w, cand)."""
    if cand is not None:
        h = heaps[0] if cand[2] in _DEEP_RULES else heaps[1]
        heapq.heappush(h, (cand[0], cand[1], next(_PUSHES), w, cand))


def _holds(maps, x: int, y: int, wire: Wire, cx: Cell, cy: Cell) -> bool:
    """Whether the level whose `_maps` are `maps` still holds the redex
    classified from `wire`, on ports x and y of cells cx and cy."""
    wire_key, wires, owner = maps
    k = wire_key.get(x)
    return (
        k is not None
        and wires[k] is wire
        and owner.get(x, _NOBODY)[0] is cx
        and owner.get(y, _NOBODY)[0] is cy
    )


def _least_at(n: Net, deep_only: bool):
    """The level's least valid heap entry (of rule e or er only, when
    `deep_only`), or None."""
    maps = _maps(n)
    heaps = _candidates(n, maps)
    best = None
    for h in heaps[:1] if deep_only else heaps:
        while h:
            _, (x, y), _, w, cand = h[0]
            if _holds(maps, x, y, w, cand[4], cand[5]):
                break
            heapq.heappop(h)
        if h and (best is None or h[0] < best):
            best = h[0]
    return best


def _least(net: Net, policy: str) -> Redex | None:
    """find_redexes(net, policy)[0] from the candidates, or None: the
    surface first, then the boxes depth by depth in path order."""
    hit = _least_at(net, False)
    if hit is not None:
        return _redex((), *hit[3:])
    deep_only = policy == ANYDEPTH_EER
    levels = [((), net)]
    while levels:
        levels = [
            (path + (c.id,), c.inner)
            for path, n in levels
            for c in sorted((c for c in n.cells if c.sym == "Box"), key=lambda c: c.id)
        ]
        for path, n in levels:
            hit = _least_at(n, deep_only)
            if hit is not None:
                return _redex(path, *hit[3:])
    return None


# ---------------------------------------------------------------------------
# Surgery helpers


def _level(net: Net, path: tuple[int, ...]) -> Net:
    for cid in path:
        net = net.cell_by_id(cid).inner
    return net


def _open(net: Net, path: tuple[int, ...], owned: bool) -> tuple[Net, Net]:
    """A copy of `net` (`net` itself when `owned`) and its level at `path`,
    which may be edited: the box levels along the path are copies, everything
    else is shared."""
    out = lvl = net if owned else net.copy()
    for cid in path:
        box = lvl.cell_by_id(cid)
        inner = box.inner.copy()
        Builder(lvl).replace_cell(Cell(box.id, box.sym, box.principal, box.aux, inner))
        lvl = inner
    return out, lvl


def _cut(lvl: Net, cells, wire: Wire | None = None) -> Builder:
    """Remove `cells` and the cut `wire` from `lvl`; returns a builder made
    after the removals, so its counters continue from what is left."""
    for c in cells:
        lvl._remove_cell(c.id)
    if wire is not None:
        lvl._remove_wire(wire)
    return Builder(lvl)


def _resplice(b: Builder, dead: set[int], pairs: dict[int, int]):
    """Rewire around removed cells.

    `dead` are ports of deleted cells; `pairs` identifies dead ports in both
    directions.  Chains of wires through identified dead ports become single
    wires, appended in the list order of their first wire; all-dead chains
    and cycles vanish.
    """
    chained = b.net.wires_at(dead)
    wire_at = {p: w for w in chained for p in (w.a, w.b)}
    spliced, visited = [], set()
    for w in chained:
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
            spliced.append((start, at, ty))
            break
    # wires never reached from a live end are dropped
    for w in chained:
        b.remove_wire(w)
    for start, at, ty in spliced:
        b.wire(start, at, ty)


# ---------------------------------------------------------------------------
# Rule application


def bialgebra(b: Builder, xs: list[int], ys: list[int], ty: Formula, nary: bool = False):
    """Build with `b` the bialgebra right-hand side at any arity, in place
    of a removed cut of a cocontraction side against a contraction side:
    `xs` are the dangling ends that entered the first, `ys` those that
    left the second, and `ty` is the !B the cut carried.  A contraction
    comb with len(ys) leaves hangs on each x and a cocontraction comb with
    len(xs) leaves on each y, and leaf j of comb i meets leaf i of comb j.
    A comb is a chain of binary cells, or with `nary` one cell with all
    its leaves as aux ports (`_comb`).  A comb with no leaves is a
    (co)weakening (`s1`, `s2`, `eps_ww`), one with one leaf the end
    itself; a lone x and a lone y that end one wire close a loop, which
    vanishes.  Ports, cell ids and wires come in the order of the binary
    `ba`: every x, then every y."""
    if not xs or not ys:
        for x in xs:
            b.reend(x, b.cell("Weakening", 0).principal)
        for y in ys:
            b.reend(y, b.cell("Coweakening", 0).principal)
        return
    rows = [_comb(b, "Contraction", x, len(ys), ty, nary) for x in xs]
    cols = [_comb(b, "Cocontraction", y, len(xs), ty, nary) for y in ys]
    many_x, many_y = len(xs) > 1, len(ys) > 1
    for i, row in enumerate(rows):
        for j, col in enumerate(cols):
            p, q = row[j], col[i]
            if many_x and many_y:
                b.wire(p, q, ty)
            elif many_x:  # each row is its end x alone
                b.reend(p, q)
            elif many_y:  # each column is its end y alone
                b.reend(q, p)
            elif (w := b.wire_at(p)) is b.wire_at(q):
                b.remove_wire(w)  # x and y end one wire: the loop vanishes
            else:
                b.join(p, q)


def _comb(b: Builder, sym: str, end: int, k: int, ty: Formula, nary: bool) -> list[int]:
    """The k >= 1 leaves of a comb of `sym` cells hung on the dangling end
    `end`: `end` itself for k = 1; else the first cell takes the wire of
    `end` and its aux ports take that leaf's place.  With `nary` the first
    cell has k aux ports and is the whole comb.  Else each cell is binary,
    and each next one hangs on the last leaf by a new wire, `ty` flowing
    into a contraction's principal and out of a cocontraction's."""
    leaves = [end]
    while len(leaves) < k:
        c = b.cell(sym, k if nary else 2)
        leaf = leaves.pop()
        if leaf == end:
            b.reend(end, c.principal)
        elif sym == "Contraction":
            b.wire(leaf, c.principal, ty)
        else:
            b.wire(c.principal, leaf, ty)
        leaves += c.aux
    return leaves


def _need_wired(n: Net, ports):
    """Raise StaleRedex unless every port in `ports` ends a wire of `n`."""
    loose = [p for p in ports if not n.is_wired(p)]
    if loose:
        raise StaleRedex(f"ports {loose} not wired")


def apply_redex(net: Net, redex: Redex, *, owned: bool = False) -> list[Net]:
    """Apply one reduction step; returns the resulting summands.

    A redex applies to the net it was found on (by `find_redexes` or the
    index of `normalize`) and to copies of that net, as long as the level
    on its path still holds the very wire and cells it was found at: they
    share those objects.  On any other net, for instance one parsed from
    the serialized net, or once an edit has replaced its wire or one of its
    cells, even by an equal object, it raises StaleRedex.  So it does when
    an aux port of the two cells has no wire.  Two cells that give one port
    twice, such as an aux port that also ends the cut at a principal,
    raise UnwiredPort.

    By default `net` is left as it was: a reduct is a copy of the levels on
    the redex's path and shares every other level, cell and wire with `net`.
    With `owned`, the caller holds the only reference to `net` and gives it
    up: its surface level is edited in place and returned as the reduct (at
    `nd`, as the last one; the others are built on copies).  Box levels on
    the path are still copies, since box contents are shared.
    """
    try:
        lvl = _level(net, redex.path)
    except KeyError as exc:
        raise StaleRedex(f"no box {exc} on the redex's path") from None
    cut, cx, cy = redex.cut, redex.cx, redex.cy
    px, py = redex.wire
    if not _holds(_maps(lvl), px, py, cut, cx, cy):
        raise StaleRedex("the net no longer holds the redex's wire and cells")
    # the rules below re-end or splice the wires at these ports, each of
    # them once: they must be wired, and no two ports of the two cells may
    # be one port
    aux = cx.aux + cy.aux
    ports = set(aux)
    if not lvl.all_wired(ports):
        _need_wired(lvl, aux)  # raises StaleRedex naming the loose ports
    if len(ports) != len(aux) or cx.principal in ports or cy.principal in ports:
        raise UnwiredPort(f"cells {cx.id} and {cy.id} give one port twice")

    rule = redex.rule
    if rule == "zero_wd":
        return []
    if rule == "nd":
        res = []
        for i, leaf in enumerate(cx.aux):
            # the copies for all reducts but the last are made before the
            # net is edited
            alt, lv = _open(net, redex.path, owned and i == len(cx.aux) - 1)
            _cut(lv, [cx], cut)
            # re-end onto the dereliction first, so that py counts as used
            # when the builder picks the weakenings' ports
            Builder(lv).reend(leaf, py)
            b = Builder(lv)
            for other in cx.aux[:i] + cx.aux[i + 1 :]:
                b.reend(other, b.cell("Weakening", 0).principal)
            res.append(alt)
        return res

    out, lvl = _open(net, redex.path, owned)
    if rule in ("ba", "s1", "s2", "eps_ww"):  # most steps, so tested first
        b = _cut(lvl, [cx, cy], cut)
        bialgebra(b, cx.aux, cy.aux, cut.toward(cy.principal))

    elif rule == "m":
        b = _cut(lvl, [cx, cy])
        pairs = {}
        for a, c in zip(cx.aux, cy.aux):
            pairs[a] = c
            pairs[c] = a
        _resplice(b, set(cx.ports()) | set(cy.ports()), pairs)

    elif rule == "e":
        if len(cy.aux) != 1:
            raise StaleRedex(f"dereliction {cy.id} has {len(cy.aux)} aux ports")
        b = _cut(lvl, [cx, cy])
        off = b.merge(cx.inner)
        f0 = cx.inner.free[0][0] + off
        dead = {cx.principal, cy.principal, cy.aux[0], f0}
        _resplice(b, dead, {cy.aux[0]: f0, f0: cy.aux[0]})

    elif rule == "d":
        b = _cut(lvl, [cx, cy], cut)
        for aux in cy.aux:
            b.reend(aux, b.cell("Box", 0, cx.inner).principal)

    elif rule == "er":
        _cut(lvl, [cx, cy], cut)

    elif rule == "c":
        # cx: closed box entering through door redex.door of box cy
        door = redex.door
        if door + 1 >= len(cy.inner.free):
            raise StaleRedex(f"box {cy.id} has no content port for door {door}")
        b = _cut(lvl, [cx], cut)
        inner = cy.inner.copy()
        b.replace_cell(Cell(cy.id, cy.sym, cy.principal, cy.aux[:door] + cy.aux[door + 1 :], inner))
        ib = Builder(inner)
        door_port = inner.free[door + 1][0]
        _need_wired(inner, [door_port])
        inner.free = inner.free[: door + 1] + inner.free[door + 2 :]
        ib.reend(door_port, ib.cell("Box", 0, cx.inner).principal)

    else:
        raise StaleRedex(f"unknown rule {rule}")
    return [out]


# ---------------------------------------------------------------------------
# Strategies


def normal_nets(x, budget: int = 10000, policy: str = ANYDEPTH_EER):
    """Yield the normal nets that reducing `x` reaches, raw, in the order
    they are found; nets equal up to structural equivalence may repeat.

    Each step fires the least redex under (depth, cell ids, wire), found
    from the redex index that the nets carry; `find_redexes` confirms each
    normal net.  The input nets are copied once and left as they were; the
    work list owns those copies, so each step rewrites its net in place
    (`apply_redex(..., owned=True)`) and copies it only at an `nd` split.
    The budget counts rule applications over the whole sum; running out
    raises BudgetExhausted carrying the unfinished raw nets and the steps
    taken per rule.  An unknown policy raises ValueError at the call.
    """
    _check_policy(policy)
    return _normal_nets([x] if isinstance(x, Net) else x, budget, policy)


def _normal_nets(x, budget: int, policy: str):
    # Intermediate nets are kept raw: canonicalizing every intermediate
    # step would dominate the running time, and the budget bounds any work
    # duplicated by converging branches.
    work: list = [n.copy() for n in x]
    steps: Counter = Counter()
    taken = 0
    while work:
        n = work.pop()
        r = _least(n, policy)
        if r is None:
            if find_redexes(n, policy):
                raise AssertionError("the redex index missed a redex")
            yield n
            continue
        if taken >= budget:
            raise BudgetExhausted(work + [n], steps)
        taken += 1
        steps[r.rule] += 1
        work.extend(apply_redex(n, r, owned=True))


def normalize(x, budget: int = 10000, policy: str = ANYDEPTH_EER) -> NetSum:
    """Reduce to normal form under the given policy: the sum of
    `normal_nets`, deduplicated by certificate.  On BudgetExhausted,
    `partial` holds the normal summands found so far followed by the
    unfinished raw nets.
    """
    done = NetSum()
    try:
        for n in normal_nets(x, budget, policy):
            done.add(n)
    except BudgetExhausted as exc:
        raise BudgetExhausted(done.summands + exc.partial, exc.steps) from None
    return done


def normal_certs(x, budget: int = 10000, policy: str = ANYDEPTH_EER) -> frozenset:
    """`normalize(x, budget, policy).certs()` with no net rebuilt: the
    certificates of `normal_nets`.  On BudgetExhausted, `partial` holds the
    unfinished raw nets."""
    return frozenset(certificate(n) for n in normal_nets(x, budget, policy))


def reduction_graph(x, policy: str = ALL, max_nodes: int = 2000):
    """Breadth-first graph of sums under single-step reduction.

    Nodes are canonical sums; an edge per (summand, redex) choice.  Returns
    (nodes, edges, truncated) with nodes[0] the start and edges as index
    pairs.  A successor keeps the other summands of its node as they are,
    with the reducts joined after them (a node's summand wins over an equal
    reduct).  Its key, its set of certificates, is its node's less the
    reduced one joined with the reduct's, and its sum is built only when
    that key is a new node's.  Each distinct summand is reduced once per
    call, and each of its reducts is labelled the first time it is used:
    summands with one certificate are the same canonical net, so their
    reducts are too.  The sums of a call share one entry per certificate
    (see `NetSum`), and a summand's canonical net is rebuilt when it is
    first read: by the search for the summands it reduces, by the caller
    for the others.  Every node then holds the one net kept for each
    certificate.

    The search stops at the first successor that would be node
    `max_nodes` + 1 and returns `truncated` True: the graph then holds the
    first `max_nodes` nodes in breadth-first order and the edges found
    before the stop, among them.  `max_nodes` below 1 raises ValueError.
    """
    _check_policy(policy)
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be at least 1, not {max_nodes!r}")
    start = x if isinstance(x, NetSum) else NetSum([x] if isinstance(x, Net) else x)
    known = start.table()  # the entries of every certificate met so far
    index = {start.certs(): 0}
    nodes = [start]
    edges = set()
    queue = deque([0])
    # summand certificate -> per redex, in order: the raw reduct nets, or
    # their NetSum once used
    reducts: dict = {}
    while queue:
        i = queue.popleft()
        s = nodes[i]
        held = s.certs()
        for cert in s.cert_list():
            if cert not in reducts:
                summand = s.summand(cert)
                reducts[cert] = [apply_redex(summand, r) for r in find_redexes(summand, policy)]
            made = reducts[cert]
            rest = held - {cert}
            for k, red in enumerate(made):
                if isinstance(red, list):
                    red = made[k] = NetSum(red, known)
                key = rest | red.certs()
                j = index.get(key)
                if j is None:  # a new node: only now build its sum
                    if len(nodes) >= max_nodes:
                        return nodes, edges, True
                    j = index[key] = len(nodes)
                    nodes.append(s.without(cert).union(red))
                    queue.append(j)
                edges.add((i, j))
    return nodes, edges, False
