"""Cut elimination: every rule exercised on a hand-built redex, with the
expected result constructed independently and compared canonically."""
import itertools
import random
from collections import Counter, deque

import pytest

from routenet import proofnet, rewrite, routing
from routenet.errors import BudgetExhausted, StaleRedex
from routenet.gen import PROGRAM_SUITE, gen_typed_net, suite_program
from routenet.lang import parse_region_ctx, parse_term
from routenet.multirel import from_rows
from routenet.proofnet import (
    BOT,
    Builder,
    Cell,
    Net,
    NetSum,
    ONE,
    Wire,
    bang,
    canonical_equal,
    certificate,
    dual,
    parse,
    serialize,
    tensor,
    validate,
    whynot,
)
from routenet.rewrite import (
    ALL,
    ANYDEPTH_EER,
    apply_redex,
    find_redexes,
    normalize,
    reduction_graph,
)
from routenet.routing import path_semantics, semantics
from routenet.translate import compile_program

A = bang(ONE)
B = bang(bang(ONE))


def _check(n: Net) -> Net:
    assert validate(n) == [], validate(n)
    return n


def one_box() -> Net:
    """Closed box emitting !1 (content: a One cell)."""
    inner = Net([Cell(1, "One", 1)], [Wire(1, 2, ONE)], [(2, "main")])
    return Net([Cell(1, "Box", 1, [], inner)], [Wire(1, 2, bang(ONE))], [(2, "out")])


def _single(net, rule):
    rs = find_redexes(net, ALL)
    assert [r.rule for r in rs] == [rule], rs
    return apply_redex(net, rs[0])


def test_multiplicative():
    n = Net(
        [Cell(1, "Tensor", 5, [3, 4]), Cell(2, "Par", 6, [7, 8])],
        [
            Wire(1, 3, A),  # free x1 feeds tensor aux 1
            Wire(2, 4, B),  # free x2 feeds tensor aux 2
            Wire(5, 6, tensor(A, B)),  # the cut
            Wire(7, 9, A),  # par aux 1 out to free x3 (aux receives dual A)
            Wire(8, 10, B),  # par aux 2 out to free x4
        ],
        [(1, "x1"), (2, "x2"), (9, "x3"), (10, "x4")],
    )
    _check(n)
    (m,) = _single(n, "m")
    want = Net(
        [],
        [Wire(1, 2, A), Wire(3, 4, B)],
        [(1, "x1"), (2, "x3"), (3, "x2"), (4, "x4")],
    )
    assert canonical_equal(_check(m), _check(want))


def test_box_dereliction_opens_box():
    n = one_box()
    n.cells = [*n.cells, Cell(2, "Dereliction", 3, [4])]
    n.wires = [Wire(1, 3, bang(ONE)), Wire(5, 4, BOT)]
    n.free = [(5, "x")]
    _check(n)
    (m,) = _single(n, "e")
    want = Net([Cell(1, "One", 1)], [Wire(1, 2, ONE)], [(2, "x")])
    assert canonical_equal(_check(m), _check(want))


def _box_against_contraction():
    """A closed !1 box cut against a contraction."""
    n = one_box()
    n.cells = [*n.cells, Cell(2, "Contraction", 3, [4, 5])]
    n.wires = [Wire(1, 3, bang(ONE)), Wire(6, 4, whynot(BOT)), Wire(7, 5, whynot(BOT))]
    n.free = [(6, "x1"), (7, "x2")]
    return _check(n)


def test_box_contraction_duplicates_box():
    n = _box_against_contraction()
    (m,) = _single(n, "d")
    b1, b2 = one_box(), one_box()
    want = Net(
        [b1.cells[0], Cell(2, "Box", 3, [], b2.cells[0].inner)],
        [Wire(1, 5, bang(ONE)), Wire(3, 6, bang(ONE))],
        [(5, "x1"), (6, "x2")],
    )
    assert canonical_equal(_check(m), _check(want))


def test_box_weakening_erases_box():
    n = one_box()
    n.cells = [*n.cells, Cell(2, "Weakening", 3)]
    n.wires = [Wire(1, 3, bang(ONE))]
    n.free = []
    _check(n)
    (m,) = _single(n, "er")
    assert canonical_equal(m, Net())


def _door_redex():
    """A closed !1 box entering the one door of a pass-through box."""
    inner = Net([], [Wire(1, 2, bang(ONE))], [(2, "main"), (1, "door")])
    outer = Cell(2, "Box", 3, [4], inner)
    n = one_box()
    n.cells = [*n.cells, outer]
    n.wires = [Wire(1, 4, bang(ONE)), Wire(3, 5, bang(bang(ONE)))]
    n.free = [(5, "out")]
    return _check(n)


def test_closed_box_enters_door():
    n = _door_redex()
    (m,) = _single(n, "c")
    # the closed !1 box has moved inside; the outer box is now closed
    inner2 = one_box()
    inner2.free = [(2, "main")]
    want = Net(
        [Cell(1, "Box", 1, [], inner2)], [Wire(1, 2, bang(bang(ONE)))], [(2, "out")]
    )
    assert canonical_equal(_check(m), _check(want))


def _cocontr_two_boxes():
    """Two closed !1 boxes packed by a cocontraction."""
    b1, b2 = one_box(), one_box()
    b2c = Cell(2, "Box", 3, [], b2.cells[0].inner)
    cc = Cell(3, "Cocontraction", 5, [6, 7])
    n = Net(
        [b1.cells[0], b2c, cc],
        [Wire(1, 6, bang(ONE)), Wire(3, 7, bang(ONE)), Wire(5, 8, bang(ONE))],
        [(8, "out")],
    )
    return _check(n)


def _cocontr_against_dereliction():
    """The two-box cocontraction cut against a dereliction."""
    n = _cocontr_two_boxes()
    n.cells = [*n.cells, Cell(4, "Dereliction", 9, [10])]
    n.wires = [w for w in n.wires if w != Wire(5, 8, bang(ONE))]
    n.wires = [*n.wires, Wire(5, 9, bang(ONE)), Wire(11, 10, BOT)]
    n.free = [(11, "x")]
    return _check(n)


def test_cocontraction_dereliction_sums_choices():
    n = _cocontr_against_dereliction()
    res = _single(n, "nd")
    assert len(res) == 2
    # each choice: one box consumed by the dereliction, the other weakened
    want = one_box()
    want.cells = [
        *want.cells,
        Cell(2, "Dereliction", 3, [4]),
        Cell(3, "Weakening", 5),
        Cell(4, "Box", 6, [], one_box().cells[0].inner),
    ]
    want.wires = [Wire(1, 3, bang(ONE)), Wire(7, 4, BOT), Wire(6, 5, bang(ONE))]
    want.free = [(7, "x")]
    _check(want)
    for m in res:
        assert canonical_equal(_check(m), want)
    # both summands are canonically equal here, so the idempotent sum merges
    assert len(NetSum(res)) == 1


def test_nd_weakening_port_avoids_the_dereliction_principal():
    # the dereliction's principal (12) is the highest port and one above every
    # other wired port once the cut is gone; the new weakening must not take it
    n = _cocontr_two_boxes()
    n.cells = [*n.cells, Cell(4, "Dereliction", 12, [10])]
    n.wires = [w for w in n.wires if w != Wire(5, 8, bang(ONE))]
    n.wires = [*n.wires, Wire(5, 12, bang(ONE)), Wire(11, 10, BOT)]
    n.free = [(11, "x")]
    _check(n)
    res = _single(n, "nd")
    assert len(res) == 2
    for m in res:
        _check(m)
        assert canonical_equal(m, _single(_cocontr_against_dereliction(), "nd")[0])


def _boxes_against_dereliction(k: int) -> tuple[Net, list[int], int]:
    """A cocontraction of k closed !1 boxes cut against a dereliction, the
    principals of the boxes in aux order, and that of the dereliction."""
    b = Builder()
    cc, d = b.cell("Cocontraction", k), b.cell("Dereliction", 1)
    b.wire(cc.principal, d.principal, bang(ONE))
    boxes = []
    for aux in cc.aux:
        box = one_box()
        off = b.merge(box)
        b.reend(box.free[0][0] + off, aux)
        boxes.append(box.cells[0].principal + off)
    q = b.port()
    b.wire(q, d.aux[0], BOT)
    return b.finish([(q, "x")]), boxes, d.principal


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_nd_fires_at_any_arity(k):
    """`nd` on a cocontraction with k aux ports, which `validate` refuses
    unless k = 2, makes one summand per aux port: in summand i the
    dereliction takes box i and each other box meets a weakening.  A
    cocontraction with no aux port gives the empty sum, as a coweakening
    does (`zero_wd`)."""
    n, boxes, der = _boxes_against_dereliction(k)
    assert (validate(n) == []) == (k == 2)
    res = _single(n, "nd")
    assert len(res) == k
    for box, m in zip(boxes, res):
        _check(m)
        assert m.wire_at(der).other(der) == box
        assert Counter(c.sym for c in m.cells) == Counter(
            {"Box": k, "Dereliction": 1, "Weakening": k - 1}
        )
    # every summand normalizes to the One that a box holds
    want = normalize(_cocontr_against_dereliction()).certs() if k else frozenset()
    assert normalize(n).certs() == want


def test_coweakening_dereliction_is_zero():
    n = Net(
        [Cell(1, "Coweakening", 1), Cell(2, "Dereliction", 2, [3])],
        [Wire(1, 2, bang(ONE)), Wire(4, 3, BOT)],
        [(4, "x")],
    )
    _check(n)
    assert _single(n, "zero_wd") == []
    assert len(normalize(n)) == 0


def test_bialgebra_square_preserves_paths():
    # cocontraction against contraction: 2 inputs, 2 outputs, all paths
    n = Net(
        [Cell(1, "Cocontraction", 1, [2, 3]), Cell(2, "Contraction", 4, [5, 6])],
        [
            Wire(7, 2, A),
            Wire(8, 3, A),
            Wire(1, 4, A),
            Wire(5, 9, A),  # contraction aux receives ?A-dual, free emits !A
            Wire(6, 10, A),
        ],
        [(7, "i1"), (8, "i2"), (9, "o1"), (10, "o2")],
    )
    _check(n)
    before = path_semantics(n)
    (m,) = _single(n, "ba")
    _check(m)
    assert path_semantics(m) == before
    assert all(v == 1 for v in before.entries.values())
    assert len(before.entries) == 4
    # the square has two cells of each kind
    syms = sorted(c.sym for c in m.cells)
    assert syms == ["Cocontraction", "Cocontraction", "Contraction", "Contraction"]


def test_coweakening_contraction_splits():
    n = Net(
        [Cell(1, "Coweakening", 1), Cell(2, "Contraction", 2, [3, 4])],
        [Wire(1, 2, A), Wire(5, 3, dual(A)), Wire(6, 4, dual(A))],
        [(5, "o1"), (6, "o2")],
    )
    _check(n)
    (m,) = _single(n, "s1")
    want = Net(
        [Cell(1, "Coweakening", 1), Cell(2, "Coweakening", 2)],
        [Wire(1, 3, A), Wire(2, 4, A)],
        [(3, "o1"), (4, "o2")],
    )
    assert canonical_equal(_check(m), _check(want))


def test_cocontraction_weakening_splits():
    n = Net(
        [Cell(1, "Cocontraction", 1, [2, 3]), Cell(2, "Weakening", 4)],
        [Wire(5, 2, A), Wire(6, 3, A), Wire(1, 4, A)],
        [(5, "i1"), (6, "i2")],
    )
    _check(n)
    (m,) = _single(n, "s2")
    want = Net(
        [Cell(1, "Weakening", 1), Cell(2, "Weakening", 2)],
        [Wire(3, 1, A), Wire(4, 2, A)],
        [(3, "i1"), (4, "i2")],
    )
    assert canonical_equal(_check(m), _check(want))


def test_coweakening_weakening_cancels():
    n = Net(
        [Cell(1, "Coweakening", 1), Cell(2, "Weakening", 2)],
        [Wire(1, 2, A)],
        [],
    )
    _check(n)
    (m,) = _single(n, "eps_ww")
    assert canonical_equal(m, Net())


def _cocontraction_against_contraction(k: int, l: int) -> Net:
    """A cocontraction with k aux ports cut against a contraction with l:
    free inputs i0, i1, ... enter the first, outputs o0, o1, ... leave the
    second."""
    b = Builder()
    x, y = b.cell("Cocontraction", k), b.cell("Contraction", l)
    b.wire(x.principal, y.principal, A)
    free = []
    for j, aux in enumerate(x.aux):
        q = b.port()
        b.wire(q, aux, A)
        free.append((q, f"i{j}"))
    for j, aux in enumerate(y.aux):
        q = b.port()
        b.wire(aux, q, A)
        free.append((q, f"o{j}"))
    return b.finish(free)


@pytest.mark.parametrize("k, l", list(itertools.product(range(4), repeat=2)))
def test_bialgebra_fires_at_any_arity(k, l):
    """A k-ary cocontraction against an l-ary contraction reduces by
    `rewrite.bialgebra` to one well-formed net, the normal net of the
    routing tree step, which relates every input to every output once by
    `semantics` and by path counting alike."""
    n = _cocontraction_against_contraction(k, l)
    nf = normalize(n)
    (m,) = nf.summands
    _check(m)
    assert nf.certs() == {certificate(routing._normal_area(n, "reduced to")[0])}
    ins, outs = [f"i{j}" for j in range(k)], [f"o{j}" for j in range(l)]
    assert semantics(n) == path_semantics(n) == from_rows(ins, outs, [[1] * l] * k)


def test_a_unary_bialgebra_loop_vanishes():
    """A unary cocontraction cut against a unary contraction whose aux
    ports end one wire: the step joins the two ends of that wire, which
    close a loop, and the loop vanishes as `_resplice` drops cycles.  The
    free wire beside the cut stays."""
    b = Builder()
    k, c = b.cell("Cocontraction", 1), b.cell("Contraction", 1)
    b.wire(k.principal, c.principal, A)
    b.wire(c.aux[0], k.aux[0], A)
    i, o = b.port(), b.port()
    b.wire(i, o, A)
    n = b.finish([(i, "i"), (o, "o")])
    (m,) = normalize(n).summands
    assert canonical_equal(m, Net([], [Wire(1, 2, A)], [(1, "i"), (2, "o")]))
    assert validate(m) == []


@pytest.mark.parametrize(
    "make, unwire",
    [(_box_against_contraction, 4), (_cocontr_against_dereliction, 6), (_door_redex, 1)],
    ids=["d", "nd", "c"],
)
def test_unwired_port_to_reend_is_a_stale_redex(make, unwire):
    n = make()
    (r,) = find_redexes(n, ALL)
    level = n.cells[1].inner if r.rule == "c" else n
    level.wires = [w for w in level.wires if unwire not in (w.a, w.b)]
    with pytest.raises(StaleRedex):
        apply_redex(n, r)


# ---------------------------------------------------------------------------
# policies, budget, reduction graph


def test_surface_policy_ignores_deep_redexes():
    # an m-redex inside a box reduces under ALL but not under the default EER
    inner = Net(
        [Cell(1, "One", 1), Cell(2, "Tensor", 6, [4, 5]), Cell(3, "Par", 7, [8, 9])],
        [
            Wire(1, 4, ONE),
            Wire(2, 5, ONE),
            Wire(6, 7, tensor(ONE, ONE)),
            Wire(8, 10, BOT),
            Wire(9, 3, BOT),
        ],
        [(10, "main"), (2, "d1"), (3, "d2")],
    )
    # close it off: doors would complicate things, so test redex search only
    n = Net([Cell(1, "Box", 11, [12, 13], inner)], [], [])
    assert [r.rule for r in find_redexes(n, ALL) if r.path] == ["m"]
    assert find_redexes(n) == find_redexes(n, ANYDEPTH_EER) == []


def test_budget_exhaustion_carries_partial():
    n = one_box()
    n.cells = [*n.cells, Cell(2, "Dereliction", 3, [4])]
    n.wires = [Wire(1, 3, bang(ONE)), Wire(5, 4, BOT)]
    n.free = [(5, "x")]
    with pytest.raises(BudgetExhausted) as exc:
        normalize(n, budget=0)
    assert len(exc.value.partial) == 1


def test_step_none_on_normal():
    assert find_redexes(one_box(), ANYDEPTH_EER) == []


def test_reduction_graph_nd_diamond():
    n = _cocontr_against_dereliction()
    nodes, edges, truncated = reduction_graph(n)
    assert not truncated
    sinks = [i for i in range(len(nodes)) if all(a != i for a, b in edges)]
    assert len(sinks) == 1
    # the unique sink is the opened box content on the free wire
    want = Net([Cell(1, "One", 1)], [Wire(1, 2, ONE)], [(2, "x")])
    assert nodes[sinks[0]] == NetSum([want])


def _all_canonicalizing_graph(x, policy=ALL, max_nodes=2000):
    """reduction_graph without sharing: every successor sum reduces its
    summand again and canonicalizes all of its summands from a fresh parse,
    so no canonical form remembered on a box is read.  It stops at the
    first successor that would be node `max_nodes` + 1."""
    start = NetSum([x])
    index = {start.certs(): 0}
    nodes, edges, queue = [start], set(), [0]
    while queue:
        i = queue.pop(0)
        s = nodes[i]
        for summand in s.summands:
            rest = [m for m in s.summands if m is not summand]
            for r in find_redexes(summand, policy):
                nxt = NetSum(parse(serialize(rest + apply_redex(summand, r))))
                key = nxt.certs()
                if key not in index:
                    if len(nodes) >= max_nodes:
                        return nodes, edges, True
                    index[key] = len(nodes)
                    nodes.append(nxt)
                    queue.append(index[key])
                edges.add((i, index[key]))
    return nodes, edges, False


def _assert_same_graph(net, cap):
    nodes, edges, truncated = reduction_graph(net, max_nodes=cap)
    want_nodes, want_edges, want_truncated = _all_canonicalizing_graph(net, max_nodes=cap)
    assert [serialize(s) for s in nodes] == [serialize(s) for s in want_nodes]
    assert [s.certs() for s in nodes] == [s.certs() for s in want_nodes]
    assert (edges, truncated) == (want_edges, want_truncated)
    return truncated


@pytest.mark.parametrize(
    "name, cap",
    [("store-get", 2000), ("discard", 2000), ("nested-beta", 2000), ("second", 2000),
     ("set-get", 2000), ("race", 2000), ("latent-get", 40), ("two-readers", 40),
     ("stored-fn", 40)]
    + [(name, cap) for cap in (3, 10) for name, _, _ in PROGRAM_SUITE],
)
def test_reduction_graph_matches_the_all_canonicalizing_construction(name, cap):
    _assert_same_graph(compile_program(*reversed(suite_program(name))), cap)


def test_reduction_graph_matches_the_all_canonicalizing_construction_on_typed_nets():
    """150 seeded typed nets at caps 2, 3 and 5: many graphs fill up in the
    middle of a summand's reducts."""
    truncated = 0
    for seed in range(150):
        net = gen_typed_net(random.Random(seed))
        for cap in (2, 3, 5):
            truncated += _assert_same_graph(net, cap)
    assert truncated > 150


def _watch_graph(monkeypatch) -> list:
    """A list that records, in order, ("rebuilt", certificate) for each net
    rebuilt but box contents, which are rebuilt inside the rebuild of a net
    that holds the box, and ("reduced", certificate) for each summand the
    graph search reduces."""
    events, in_contents = [], []
    real_rebuild, real_contents = proofnet._rebuild, proofnet._contents

    def contents(inner):
        in_contents.append(inner)
        try:
            return real_contents(inner)
        finally:
            in_contents.pop()

    def rebuild(nodes, edges, pos):
        if not in_contents:
            events.append(("rebuilt", proofnet._certificate(nodes, edges, pos)[0]))
        return real_rebuild(nodes, edges, pos)

    def searched(net, policy):
        events.append(("reduced", proofnet.certificate(net)))
        return find_redexes(net, policy)

    monkeypatch.setattr(proofnet, "_contents", contents)
    monkeypatch.setattr(proofnet, "_rebuild", rebuild)
    monkeypatch.setattr(rewrite, "find_redexes", searched)
    return events


def _each_rebuilt_then_reduced(events) -> bool:
    return events[::2] == [("rebuilt", c) for _, c in events[1::2]] and all(
        what == "reduced" for what, _ in events[1::2]
    )


@pytest.mark.parametrize("name", ["latent-get", "stored-fn", "two-readers"])
def test_a_full_reduction_graph_rebuilds_nothing(monkeypatch, name):
    """A capped search rebuilds only the summands it reduces: the summands
    of the nodes it never reached and the reduct of the successor that
    stops it are labelled, and nothing reads them.  Once the graph holds
    its 40 nodes, nothing is rebuilt but a summand the search still
    reduces, just before it does."""
    events = _watch_graph(monkeypatch)
    full = []

    class Queue(deque):
        def append(self, i):
            if i == 39:  # the 40th node
                full.append(len(events))
            super().append(i)

    monkeypatch.setattr(rewrite, "deque", Queue)
    net = compile_program(*reversed(suite_program(name)))
    nodes, _, truncated = reduction_graph(net, max_nodes=40)
    assert truncated and full
    held = {cert for s in nodes for cert in s.certs()}
    rebuilt = {cert for what, cert in events if what == "rebuilt"}
    assert rebuilt == {cert for what, cert in events if what == "reduced"} < held
    assert _each_rebuilt_then_reduced(events[full[0]:])


def test_reduction_graph_reduces_each_distinct_summand_once(monkeypatch):
    searched = []

    def counted(net, policy):
        searched.append(net)
        return find_redexes(net, policy)

    monkeypatch.setattr(rewrite, "find_redexes", counted)
    net = compile_program(*reversed(suite_program("race")))
    nodes, _, truncated = reduction_graph(net)
    assert not truncated
    held = [cert for s in nodes for cert, _ in s.items()]
    certs = [proofnet.certificate(n) for n in searched]
    assert len(set(certs)) == len(certs) and set(certs) == set(held)  # each one, once
    assert len(certs) < len(held)


@pytest.mark.parametrize("name, cap", [("race", 2000), ("stored-fn", 40)])
def test_reduction_graph_rebuilds_each_certificate_once(monkeypatch, name, cap):
    """During the call a summand's canonical net is rebuilt only just before
    the search reduces it, so once per certificate; reading the nodes
    afterwards rebuilds each other certificate once, and every node holds
    the one net kept for each certificate."""
    events = _watch_graph(monkeypatch)
    net = compile_program(*reversed(suite_program(name)))
    nodes, _, _ = reduction_graph(net, max_nodes=cap)
    assert _each_rebuilt_then_reduced(events)
    reduced = {cert for _, cert in events}
    assert len(reduced) == len(events) // 2  # each summand reduced once
    held = {cert for s in nodes for cert in s.certs()}
    assert (reduced < held) == (cap < 2000)  # a capped search stops early
    del events[:]
    one = {}
    # every node holds the one net kept for each certificate
    assert all(one.setdefault(cert, m) is m for s in nodes for cert, m in s.items())
    later = [cert for _, cert in events]
    assert len(set(later)) == len(later) and set(later) == held - reduced


def _chain(depth):
    src = "*"
    for _ in range(depth):
        src = rf"(\x. x) ({src})"
    return compile_program(parse_term(src), parse_region_ctx(""))


def test_budget_exhaustion_canonicalizes_nothing(monkeypatch):
    calls = []
    for name in ("_labelled", "_rebuild"):
        monkeypatch.setattr(proofnet, name, lambda *args, name=name: calls.append(name))
    net = _chain(40)  # one summand, normal only after 80 steps
    with pytest.raises(BudgetExhausted) as exc:
        normalize(net, budget=10)
    assert calls == []
    (raw,) = exc.value.partial
    assert isinstance(raw, Net) and find_redexes(raw, ANYDEPTH_EER)
    assert exc.value.steps == Counter({"e": 10})  # the chain opens its boxes first


def test_budget_partial_lists_normal_forms_then_raw_nets():
    net = compile_program(*reversed(suite_program("race")))
    with pytest.raises(BudgetExhausted) as exc:
        normalize(net, budget=10)
    partial = exc.value.partial
    assert sum(exc.value.steps.values()) == 10
    # the normal form found so far first, then the raw unfinished nets
    assert [find_redexes(n, ANYDEPTH_EER) == [] for n in partial] == [True, False, False]
