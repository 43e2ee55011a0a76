"""Routing areas: nets of (co)contraction trees realizing a multirelation.

An area for R : I x O -> N has one contraction tree per input (rooted at the
input's free wire), one cocontraction tree per output, and exactly R(i,o)
wires crossing from the tree of i to the tree of o.  All wires carry the
same formula !A oriented from inputs to outputs; a free port is an input
when the !A flows from it into the net, an output when it flows out, and
`free_io` is the one place that tells them apart.

The operations on areas are made of three steps, each written once:

* feedback (`feedback`) checks a net and wires outputs back into inputs,
  all pairs in one pass, leaving the cuts it makes unreduced.  A cycle
  closed by feedback runs from a fed input to a fed output, so every fed
  input and fed output must have no path between them: the crossings of
  an area are its path counts, and any other net has the direction of
  !A checked on each wire (`_check_flow`), then is checked acyclic and
  counted by `count_paths_all`;
* reduction (`_normal_area`) reaches the one normal net: it first fires
  each cut of a cocontraction tree against a contraction tree as one
  n-ary bialgebra step over both whole trees (`_tree_cuts`), which hands
  the leaves of both to `rewrite.bialgebra`, the right-hand side the
  binary rules share, and hangs one n-ary cell on each leaf end where the
  rules hang a comb of binary cells.  An area is then its own normal
  form; anything else, such as the payload copies of `transit`, goes
  through `normal_nets` within the fixed budget of `BUDGET` rewriting steps.
  The normal net comes back with its crossings, or None if it is not an
  area;
* reading (`_crossings`) is the one test of what an area is: it takes a
  net as two forests and a matching.  One walk (`_forest`, which also
  gathers the trees of a tree cut) from the free ports gives each leaf of
  the contraction trees and of the cocontraction trees its root, past the
  neutral (co)weakening leaves and unary nodes that canonical form would
  remove, and checks that !A flows along each wire it passes from the
  input side.  The crossing wires must match the leaves of the two
  forests one to one, and the ports and wires must pair one to one.

An area is acyclic and has no cut, so it is its own normal form, and the
normal nets of routing nets are exactly the areas (the source paper's
Theorem `mrarea-charact`): `read_area` reads the raw net it is given,
and `semantics` reads its net first and checks, reduces and takes the
crossings of the reduced net only for a net the reader refuses.
`trace_net` and `compose_areas` are feedback, then reduction, then
canonical form (`_canonical`), which only builds the nets they return,
labelling the input built from the crossings (`proofnet._flat_area`);
a net that does not reduce to an area is NotAreaShaped.  Composition
feeds all its pairs back at once, as the vanishing axiom of traced
monoidal categories allows.  `transit` validates its payload, reduces an
area with the payload fed in and finds the payload copies on the leaves
of the same walk.  `path_semantics` counts free-to-free paths instead,
and agrees with `semantics` on routing nets.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import multirel
from .errors import (
    BadPayload,
    CycleRisk,
    CyclicNet,
    NotAreaShaped,
    RoutenetError,
    UnknownLabel,
    UnwiredPort,
)
from .multirel import LabelSet, Multirelation
from .paths import check_acyclic, count_paths_all
from .proofnet import (
    _NOBODY,
    Builder,
    Cell,
    Net,
    NetSum,
    ONE,
    Wire,
    _flat_area,
    _labelled,
    bang,
    dual,
    fmt_formula,
    validate,
)
from .rewrite import bialgebra, normal_nets

# each tree symbol -> its nullary (co)weakening
_NEUTRAL = {"Contraction": "Weakening", "Cocontraction": "Coweakening"}
# each structural symbol -> the kind of tree it is a node of; routing nets
# hold only these cells
_KIND = {
    "Contraction": "Contraction",
    "Weakening": "Contraction",
    "Cocontraction": "Cocontraction",
    "Coweakening": "Cocontraction",
}
_TREE_PAIR = {"Cocontraction", "Contraction"}  # the kinds a tree cut joins

BUDGET = 10000  # rewriting steps for one area operation


@dataclass(frozen=True)
class RoutingArea:
    rel: Multirelation
    payload: "Formula" = field(default=bang(ONE))  # the common !A

    def __post_init__(self):
        if self.payload.kind != "bang":
            raise ValueError("payload formula must be an exponential !A")


# ---------------------------------------------------------------------------
# Construction


def build_area(area: RoutingArea) -> Net:
    """Left-comb trees in label order; degenerate arities become a bare
    wire (1) or a (co)weakening (0)."""
    R, A = area.rel, area.payload
    b = Builder()
    # one crossing wire per unit of R(i,o); endpoints dangle until combed
    in_leaves: dict[str, list[int]] = {i: [] for i in R.domain}
    out_leaves: dict[str, list[int]] = {o: [] for o in R.codomain}
    for i in R.domain:
        for o in R.codomain:
            for _ in range(R(i, o)):
                u, v = b.port(), b.port()
                b.wire(u, v, A)
                in_leaves[i].append(u)
                out_leaves[o].append(v)

    free = []
    for leaves_of, sym in ((in_leaves, "Contraction"), (out_leaves, "Cocontraction")):
        for label, leaves in leaves_of.items():
            free.append((_comb(b, sym, leaves, A), label))
    return b.finish(free)


def _comb(b: Builder, sym: str, leaves: list[int], A: "Formula") -> int:
    """A left comb of `sym` cells on the dangling wire ends `leaves`, each
    cell taking the last result and the next leaf: a bare wire for one leaf
    and a (co)weakening for none.  Returns the comb's root, the dangling
    end of the wire out of its last cell (or the one leaf)."""
    if len(leaves) == 1:
        return leaves[0]
    q = leaves[0] if leaves else None
    for leaf in leaves[1:] or [None]:
        pr = b.port()
        if leaf is None:
            b.cell_on(_NEUTRAL[sym], pr, [])
        else:
            b.cell_on(sym, pr, [q, leaf])
        # each cell's result wire ends at a new port, the next cell's first
        # aux or else the root; !A flows into a contraction and out of a
        # cocontraction
        q = b.port()
        if sym == "Contraction":
            b.wire(q, pr, A)
        else:
            b.wire(pr, q, A)
    return q


def gamma(payload: "Formula" = bang(ONE)) -> Net:
    """The 3-way communication area: every input reaches every other output."""
    return build_area(RoutingArea(multirel.comm_relation(3), payload))


def delta(payload: "Formula" = bang(ONE)) -> Net:
    """The 4-way area sequencing plug 3 after plugs 1 and 2: the
    communication relation on {1..4} minus (3,1) and (3,2)."""
    r = multirel.comm_relation(4)
    ent = dict(r.entries)
    del ent[("3", "1")]
    del ent[("3", "2")]
    return build_area(RoutingArea(Multirelation(r.domain, r.codomain, ent), payload))


# ---------------------------------------------------------------------------
# Recognition


def _structural(n: Net):
    """The one !A on every wire of a net of structural cells only (!1 if
    it has no wire), or None if the net is not one."""
    if any(c.sym not in _KIND for c in n.cells):
        return None
    payload = None
    for w in n.wires:
        f = w.ty if w.ty.kind == "bang" else dual(w.ty)
        if f.kind != "bang" or payload not in (None, f):
            return None
        payload = f
    return bang(ONE) if payload is None else payload


def free_io(n: Net):
    """Split free ports into inputs (consume !A) and outputs (emit !A)."""
    ins, outs = [], []
    for p, lbl in n.free:
        if not n.is_wired(p):
            raise UnwiredPort(f"free port {lbl!r} has no wire")
        if n.outward(p).kind == "bang":
            outs.append((p, lbl))
        else:
            ins.append((p, lbl))
    return ins, outs


def _check_labels(ins, outs):
    if len({l for _, l in ins}) != len(ins) or len({l for _, l in outs}) != len(outs):
        raise NotAreaShaped("duplicate free labels within a direction")


def read_area(n: Net) -> RoutingArea:
    """Decompose a normal routing net into its multirelation."""
    if (payload := _structural(n)) is None:
        raise NotAreaShaped("not a routing net")
    return RoutingArea(_read(n), payload)


def _read(n: Net) -> Multirelation:
    """The relation of a structural net, or NotAreaShaped if it is not an area."""
    ins, outs = free_io(n)
    _check_labels(ins, outs)
    return _relation(ins, outs, _crossings(n, ins, outs))


def _relation(ins, outs, counts: dict[tuple[int, int], int]) -> Multirelation:
    """The relation from the labels of the input ports `ins` to those of
    the output ports `outs` that `counts` gives per port pair."""
    ent = {(i, o): counts.get((pi, po), 0) for pi, i in ins for po, o in outs}
    return Multirelation(
        LabelSet(tuple(l for _, l in ins)), LabelSet(tuple(l for _, l in outs)), ent
    )


def _crossings(n: Net, ins, outs) -> dict[tuple[int, int], int]:
    """Wires from the tree of each input port to the tree of each output
    port, or NotAreaShaped if `n` is not an area: each leaf of the
    contraction forest meets its own leaf of the cocontraction forest, the
    forests hold every cell, and the ports and wires pair one to one, so
    that every wire is one the walk passes.  An area is acyclic and has no
    cut, and its crossings are its path counts."""
    seen = set()
    src = _forest(n, [p for p, _ in ins], "Contraction", seen)
    dst = _forest(n, [p for p, _ in outs], "Cocontraction", seen)
    routes: dict[tuple[int, int], int] = {}
    for leaf, pi in src.items():
        po = dst.pop(n.wire_at(leaf).other(leaf), None)
        if po is None:
            raise NotAreaShaped(f"input {dict(n.free)[pi]} leaks outside the output trees")
        routes[(pi, po)] = routes.get((pi, po), 0) + 1
    if dst:
        raise NotAreaShaped(f"output {dict(n.free)[dst.popitem()[1]]} meets no input tree")
    cells, owner, free = n.cells, n.owner(), {p for p, _ in n.free}
    if len(seen) != len(cells):
        raise NotAreaShaped("stray cells outside the tree-of-trees shape")
    if (
        len(free) != len(n.free)
        or not free.isdisjoint(owner)
        or len(owner) != sum(1 + len(c.aux) for c in cells)
        or 2 * len(n.wires) != len(owner) + len(free)
    ):
        raise NotAreaShaped("ports and wires do not pair up")
    return routes


def _forest(n: Net, roots, kind: str, seen: set) -> dict[int, int]:
    """Each leaf port of the trees of `kind` on the wired ports `roots` ->
    its root, left to right.  The walk goes down from a port over its wire
    into the principal of a cell of that kind, (co)weakenings included,
    adds the cell's id to `seen` and goes on from its aux ports; any other
    far end makes the port a leaf, the root itself too.  !A flows out of
    each port the walk leaves by in a contraction tree and into it in a
    cocontraction tree, so along every wire from an input, a contraction's
    aux port or a cocontraction's principal.  A wire against the flow or a
    cell already in `seen` is NotAreaShaped, an unwired aux port UnwiredPort."""
    owner, wire_at, is_wired = n.owner(), n.wire_at, n.is_wired
    outward = kind == "Contraction"
    leaves: dict[int, int] = {}
    for root in roots:
        stack = [root]
        while stack:
            p = stack.pop()
            w = wire_at(p)
            if ((w.a == p) == (w.ty.kind == "bang")) != outward:
                raise NotAreaShaped("!A flows against a wire")
            cell, slot = owner.get(w.other(p), _NOBODY)
            if slot != "p" or _KIND.get(cell.sym) != kind:
                leaves[p] = root
                continue
            if cell.id in seen:
                raise NotAreaShaped(f"{cell.sym} cell {cell.id} met twice")
            seen.add(cell.id)
            for k, a in enumerate(cell.aux):
                if not is_wired(a):
                    raise UnwiredPort(f"{kind} cell {cell.id} has an unwired aux port {k}")
            stack.extend(reversed(cell.aux))
    return leaves


# ---------------------------------------------------------------------------
# Semantics


def _normal_area(n: Net, what: str):
    """(the one raw normal net of `n`, its crossings, or None if it is not
    an area).  Its tree cuts are fired whole; an area is then its own
    normal form, and anything else, such as the payload copies of
    `transit`, goes through `normal_nets` and is read after it.  Nets are
    counted up to equivalence, as a NetSum counts them; `what` names the
    operation in the error."""
    n = _tree_cuts(n)
    if (crossings := _crossings_of(n)) is None:
        nets = list(normal_nets(n, BUDGET))
        if len(nets) != 1:
            count = len(NetSum(nets))
            if count != 1:
                raise NotAreaShaped(f"{what} {count} summands")
        n = nets[0]
        crossings = _crossings_of(n)
    return n, crossings


def _crossings_of(n: Net):
    """The crossings of `n` if it is an area, else None."""
    if _structural(n) is None:
        return None
    try:
        return _crossings(n, *free_io(n))
    except (NotAreaShaped, UnwiredPort):
        return None


def _canonical(n: Net, crossings) -> tuple[Net, object]:
    """(canonical net, certificate) of the normal net `n`, labelled
    straight from its `crossings`, with the bytes and the certificate that
    `canonicalize` gives; NotAreaShaped if `_normal_area` gave None."""
    if crossings is None:
        raise NotAreaShaped("trace produced a net that is no area")
    ins, _ = free_io(n)
    entry = _labelled(*_flat_area(n.free, {p for p, _ in ins}, crossings, _structural(n)))
    return entry.net(), entry.cert


def _tree_cuts(n: Net) -> Net:
    """`n` with each cut between the principals of a cocontraction tree
    and a contraction tree fired as one n-ary bialgebra step, on a copy;
    `n` itself if it has no such cut.  A tree is a cell and the cells of
    its kind, (co)weakenings included, whose principals hang from its aux
    ports; the step removes both trees and the cut and hands their leaves
    to `rewrite.bialgebra`, which hangs one contraction with an aux port
    per leaf of the contraction tree on each leaf end of the cocontraction
    tree, and one cocontraction with an aux port per leaf of the
    cocontraction tree on each leaf end of the contraction tree.  The
    canonical form and the reader see trees, not the cells that make
    them, so every result is the one that binary combs give.  A cut whose
    trees meet a cell twice, an unwired aux port or each other by a wire,
    or lost a cell to a tree fired before, is left to `normal_nets`."""
    owner = n.owner()
    cuts = []
    for w in n.wires:
        (x, sx), (y, sy) = owner.get(w.a, _NOBODY), owner.get(w.b, _NOBODY)
        if sx == sy == "p" and {_KIND.get(x.sym), _KIND.get(y.sym)} == _TREE_PAIR:
            cuts.append((w, x, y) if _KIND[x.sym] == "Cocontraction" else (w, y, x))
    if not cuts:
        return n
    n = n.copy()
    b, owner = Builder(n), n.owner()
    for cut, x, y in cuts:
        if any(owner.get(c.principal, _NOBODY)[0] is not c for c in (x, y)):
            continue  # a tree fired before took a cell of this cut
        seen = set()
        try:
            # from each side of the cut, the walk goes down the other tree
            xs = list(_forest(n, [y.principal], "Cocontraction", seen))
            ys = list(_forest(n, [x.principal], "Contraction", seen))
        except (NotAreaShaped, UnwiredPort):
            continue
        if not set(xs).isdisjoint(n.wire_at(p).other(p) for p in ys):
            continue  # a cycle through the cut, which reduction never ends
        for cid in seen:
            c = n.cell_by_id(cid)
            if n.is_wired(c.principal):  # the cut is at two principals
                b.remove_wire(n.wire_at(c.principal))
            b.remove_cell(c)
        bialgebra(b, xs, ys, cut.toward(y.principal), nary=True)
    return n


def semantics(n: Net) -> Multirelation:
    """The multirelation of a routing net: read at once if `n` is a normal
    area, else checked acyclic and reduced, and read from the crossings
    of the normal net."""
    if _structural(n) is None:
        raise NotAreaShaped("not a routing net")
    try:
        return _read(n)
    except (NotAreaShaped, UnwiredPort):
        pass  # not normal, or not an area: the full path decides
    if not check_acyclic(n):
        raise NotAreaShaped("not a routing net")
    n, crossings = _normal_area(n, "routing net reduced to")
    ins, outs = free_io(n)
    _check_labels(ins, outs)
    if crossings is None:
        raise NotAreaShaped("routing net reduced to a net that is no area")
    return _relation(ins, outs, crossings)


def path_semantics(n: Net) -> Multirelation:
    """The count of free-to-free paths from each input to each output."""
    ins, outs = free_io(n)
    _check_labels(ins, outs)
    return _relation(ins, outs, count_paths_all(n, [p for p, _ in ins], [p for p, _ in outs]))


# ---------------------------------------------------------------------------
# Algebra


def juxtapose(a: Net, b: Net) -> Net:
    """Disjoint union; free labels tagged 'L.'/'R.' like multirel.coproduct."""
    out = a.copy()
    off = Builder(out).merge(b)
    out.free = [(p, "L." + l) for p, l in a.free] + [(p + off, "R." + l) for p, l in b.free]
    return out


def feedback(a: Net, pairs: list[tuple[str, str]]) -> Net:
    """`a` with the output o of each (i, o) in `pairs` wired back into input
    i, all pairs in one pass, not reduced.  `a` must be a routing net with
    distinct labels in each direction, and no pair may close a cycle."""
    if _structural(a) is None:
        raise NotAreaShaped("not a routing net")
    ins, outs = free_io(a)
    _check_labels(ins, outs)
    in_port, out_port = {l: p for p, l in ins}, {l: p for p, l in outs}
    try:  # popping refuses a label fed back twice
        links = [(in_port.pop(i), out_port.pop(o)) for i, o in pairs]
    except KeyError as e:
        raise UnknownLabel(e.args[0]) from None
    # a cycle closed by feedback runs from a fed input to a fed output,
    # whether or not the two are fed into each other, so no such pair may
    # have a path.  An area's crossings are its path counts; any other net
    # has its flow checked, since paths ignore formulas, then is checked
    # acyclic and its paths counted.
    # Outputs outer and inputs inner, as path counting lists them, so that
    # max names the same pair
    sources, targets = [pi for pi, _ in links], [po for _, po in links]
    try:
        crossings = _crossings(a, ins, outs)
    except (NotAreaShaped, UnwiredPort):
        _check_flow(a)
        try:
            paths = count_paths_all(a, sources, targets)
        except CyclicNet:
            raise NotAreaShaped("not a routing net") from None
    else:
        paths = {(pi, po): crossings.get((pi, po), 0) for po in targets for pi in sources}
    if any(paths.values()):
        i, o = (dict(a.free)[p] for p in max(paths, key=paths.get))
        raise CycleRisk(f"semantics({i},{o}) >= 1")
    n = a.copy()
    b = Builder(n)
    fed = set(sum(links, ()))
    n.free = [(p, l) for p, l in n.free if p not in fed]
    for pi, po in links:
        # two distinct wires, since one joining pi and po would be a path;
        # flow leaves the net at o and re-enters at i
        b.join(po, pi)
    return n


def _check_flow(n: Net):
    """NotAreaShaped unless !A runs along every wire of the structural net
    `n` from an input, a contraction's aux port, or a cocontraction's or
    coweakening's principal into an output, a contraction's or weakening's
    principal, or a cocontraction's aux port: the direction that `_forest`
    checks on the wires of an area, and that path counting, which reads no
    formula, cannot see.  A wire end that no free or cell port owns is
    UnwiredPort."""
    owner, free = n.owner(), {p for p, _ in n.free}
    for w in n.wires:
        src, dst = (w.a, w.b) if w.ty.kind == "bang" else (w.b, w.a)
        for p, into in ((src, False), (dst, True)):
            if p in free:
                continue
            cell, slot = owner.get(p, _NOBODY)
            if cell is None:
                raise UnwiredPort(f"wire end {p} is no free or cell port")
            if (_KIND[cell.sym] == "Contraction") != ((slot == "p") == into):
                raise NotAreaShaped("!A flows against a wire")


def trace_net(a: Net, i: str, o: str) -> Net:
    """Wire output o back into input i and normalize; the canonical net."""
    return _canonical(*_normal_area(feedback(a, [(i, o)]), "trace produced"))[0]


def compose_areas(a: Net, outs: list[str], b: Net, ins: list[str]) -> Net:
    """Juxtapose, feed each of a's listed outputs back into b's inputs in one
    pass, reduce, and canonicalize the result once.  Tags introduced by the
    juxtaposition are stripped from the labels of each direction unless two
    of them would then be equal, so a full composition exposes a's inputs
    and b's outputs under their own names.  They are stripped before
    canonicalizing, so the result is canonical under the labels it carries."""
    if len(outs) != len(ins):
        raise ValueError("output and input pairing lists differ in length")
    pairs = [("R." + i, "L." + o) for o, i in zip(outs, ins)]
    n, crossings = _normal_area(feedback(juxtapose(a, b), pairs), "trace produced")
    untagged = {}
    for side in free_io(n):
        names = [l[2:] for _, l in side]
        if len(set(names)) == len(names):
            untagged.update(zip((p for p, _ in side), names))
    n.free = [(p, untagged.get(p, l)) for p, l in n.free]
    return _canonical(n, crossings)[0]


# ---------------------------------------------------------------------------
# Transit


def boxed_one() -> Net:
    """The smallest closed box: !1 with content a One cell."""
    inner = Net([Cell(1, "One", 1)], [Wire(1, 2, ONE)], [(2, "c")])
    return Net([Cell(1, "Box", 1, [], inner)], [Wire(1, 2, bang(ONE))], [(2, "out")])


def transit(a: Net, i: str, payload: Net | None = None):
    """Feed one boxed payload into input i and count deliveries per output.

    The payload must have one free port, emitting the area's !A, and pass
    `validate` (else BadPayload) before it is merged.  It enters through a
    fresh cocontraction so the input port stays free.  Returns {output
    label: copies}; the counts equal row i of the semantics, and the net
    left over once the copies are removed is checked to be the original area
    again: the same payload and, port by port, the same crossings, since
    rewriting keeps the free ports.
    """
    if (A := _structural(a)) is None:
        raise RoutenetError("transit needs a normal routing area")
    ins, outs = free_io(a)
    try:
        before = _crossings(a, ins, outs)
    except NotAreaShaped:
        raise RoutenetError("transit needs a normal routing area") from None
    if payload is None:
        payload = boxed_one()
    pi = next((p for p, l in ins if l == i), None)
    if pi is None:
        raise NotAreaShaped(f"no free input {i!r}")
    pf = payload.free[0][0] if len(payload.free) == 1 else None
    if pf is None or not payload.is_wired(pf) or payload.outward(pf) != A:
        raise RoutenetError(f"payload must have one free port, emitting {fmt_formula(A)}")
    if problems := validate(payload):
        raise BadPayload(f"payload is not a well-formed net: {problems[0]}")
    n = a.copy()
    b = Builder(n)
    far = b.wire_at(pi).other(pi)
    cc = b.cell("Cocontraction", 2)
    # input wire now feeds aux 1; the principal takes the old far end
    b.reend(far, cc.aux[0])
    b.wire(cc.principal, far, A)
    # merge the payload net, fusing its free port onto aux 2
    off = b.merge(payload)
    b.reend(pf + off, cc.aux[1])

    m, _ = _normal_area(n, "transit produced")  # its payload copies make it no area

    # each payload copy hangs on a leaf of an output tree; replacing every
    # copy by a coweakening must give the area back
    label, counts = dict(outs), {l: 0 for _, l in outs}
    root_of = _forest(m, list(label), "Cocontraction", set())
    residual = m.copy()
    b = Builder(residual)
    for c in m.cells:
        if c.sym != "Box":
            continue
        po = root_of.get(m.wire_at(c.principal).other(c.principal))
        if po is None:
            raise NotAreaShaped("payload copy not delivered to an output")
        counts[label[po]] += 1
        b.replace_cell(Cell(c.id, "Coweakening", c.principal, c.aux))
    if _structural(residual) != A or _crossings_of(residual) != before:
        raise RoutenetError("transit disturbed the area")
    return counts
