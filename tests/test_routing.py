"""Routing areas: construction, recognition, trace, composition, transit."""
import itertools
import random
from collections import Counter

import pytest

from routenet import gen, proofnet, rewrite, routing
from routenet.errors import (
    BadPayload,
    BudgetExhausted,
    CycleRisk,
    NotAreaShaped,
    RoutenetError,
    StaleRedex,
    UnknownLabel,
    UnwiredPort,
)
from routenet.gen import gen_relation, gen_routing_net
from routenet.multirel import (
    comm_relation,
    compose,
    coproduct,
    from_rows,
    rows_of,
    trace_formula,
)
from routenet.paths import check_acyclic
from routenet.proofnet import (
    Builder,
    Cell,
    Net,
    ONE,
    Wire,
    bang,
    canonical_equal,
    canonicalize,
    canonicalize_with_cert,
    certificate,
    dual,
    serialize,
    tensor,
    validate,
)
from routenet.rewrite import ALL, find_redexes, normal_certs, normal_nets
from routenet.routing import (
    RoutingArea,
    _crossings,
    _structural,
    boxed_one,
    build_area,
    compose_areas,
    delta,
    feedback,
    free_io,
    gamma,
    juxtapose,
    path_semantics,
    read_area,
    semantics,
    trace_net,
    transit,
)

A = bang(ONE)


def test_build_area_round_trips_through_read_area():
    r = from_rows(["a", "b"], ["x", "y"], [[2, 0], [1, 3]])
    net = build_area(RoutingArea(r))
    assert validate(net) == []
    back = read_area(net)
    assert back.rel == r
    assert back.payload == bang(ONE)


def test_payload_formula_kept():
    payload = bang(tensor(ONE, ONE))
    area = RoutingArea(from_rows(["a"], ["x"], [[2]]), payload)
    assert read_area(build_area(area)).payload == payload
    with pytest.raises(ValueError):
        RoutingArea(from_rows(["a"], ["x"], [[1]]), ONE)


def test_gamma_is_the_3_communication_area():
    g = gamma()
    assert read_area(g).rel == comm_relation(3)
    # 3 bidirectional plugs = 6 free wires
    assert len(g.free) == 6


def test_delta_sequences_plug_3():
    d = read_area(delta()).rel
    assert d("3", "1") == 0 and d("3", "2") == 0
    assert d("1", "3") == 1 and d("2", "3") == 1
    assert d("3", "4") == 1 and d("4", "3") == 1
    assert d("1", "2") == 1 and d("2", "1") == 1


def test_trace_comm3_oracle():
    # tracing plug 1 of the 3-communication area leaves [[1,2],[2,1]]
    g = gamma()
    t = trace_net(g, "1", "1")
    assert rows_of(read_area(t).rel) == [[1, 2], [2, 1]]
    assert rows_of(trace_formula(comm_relation(3), "1", "1")) == [[1, 2], [2, 1]]


def test_trace_refuses_connected_pair():
    with pytest.raises(CycleRisk):
        trace_net(gamma(), "1", "2")


def test_compose_is_matrix_product():
    # [[3,5]] . [[5],[0]] = [[15]]
    r = from_rows(["i"], ["m1", "m2"], [[3, 5]])
    s = from_rows(["m1", "m2"], ["o"], [[5], [0]])
    net = compose_areas(
        build_area(RoutingArea(r)), ["m1", "m2"], build_area(RoutingArea(s)), ["m1", "m2"]
    )
    assert rows_of(semantics(net)) == [[15]]


def test_path_semantics_agrees_on_areas():
    for rel in (
        comm_relation(3),
        from_rows(["a", "b"], ["x"], [[2], [3]]),
        from_rows(["a"], ["x", "y"], [[0, 1]]),
    ):
        net = build_area(RoutingArea(rel))
        assert path_semantics(net) == rel
        assert semantics(net) == rel


def test_juxtapose_tags_labels():
    a = build_area(RoutingArea(from_rows(["i"], ["o"], [[1]])))
    n = juxtapose(a, a)
    assert sorted(l for _, l in n.free) == ["L.i", "L.o", "R.i", "R.o"]
    assert validate(n) == []


def test_transit_counts_and_residual():
    r = from_rows(["i1", "i2"], ["o1", "o2"], [[2, 1], [0, 3]])
    net = build_area(RoutingArea(r))
    assert transit(net, "i1") == {"o1": 2, "o2": 1}
    assert transit(net, "i2") == {"o1": 0, "o2": 3}


def test_transit_through_gamma():
    # one boxed payload into plug 1 of the hub: one copy to each other plug
    counts = transit(gamma(), "1", boxed_one())
    assert counts == {"1": 0, "2": 1, "3": 1}


def test_read_area_rejects_non_structural():
    with pytest.raises(NotAreaShaped):
        read_area(boxed_one())


def test_compose_chain_associative_on_nets():
    r = from_rows(["i"], ["a", "b"], [[1, 2]])
    s = from_rows(["a", "b"], ["c"], [[2], [1]])
    t = from_rows(["c"], ["o"], [[3]])
    rs_then_t = compose_areas(
        compose_areas(build_area(RoutingArea(r)), ["a", "b"], build_area(RoutingArea(s)), ["a", "b"]),
        ["c"],
        build_area(RoutingArea(t)),
        ["c"],
    )
    s_then_t = compose_areas(
        build_area(RoutingArea(s)), ["c"], build_area(RoutingArea(t)), ["c"]
    )
    r_then_st = compose_areas(
        build_area(RoutingArea(r)), ["a", "b"], s_then_t, ["a", "b"]
    )
    assert semantics(rs_then_t) == semantics(r_then_st)
    assert rows_of(semantics(rs_then_t)) == [[(1 * 2 + 2 * 1) * 3]]
    assert canonical_equal(rs_then_t, r_then_st)


def _compose_pair_by_pair(a: Net, outs, b: Net, ins) -> Net:
    """Composition as a chain of trace_net calls, one per pair, each checked,
    normalized and canonicalized: the oracle of the one-pass compose_areas.
    The tags are stripped before the last canonicalization."""
    n = juxtapose(a, b)
    for o, i in zip(outs, ins):
        n = trace_net(n, "R." + i, "L." + o)
    # a direction keeps its tags where stripping them would make two equal
    keep = set()
    for side in free_io(n):
        if len({l[2:] for _, l in side}) < len(side):
            keep.update(p for p, _ in side)
    n.free = [(p, l if p in keep else l[2:]) for p, l in n.free]
    return canonicalize(n)


def test_one_pass_composition_equals_pair_by_pair_traces():
    """Full pairings on even seeds, partial ones on odd seeds; the pairs
    are shuffled so that outputs meet inputs in any order."""
    for seed in range(200):
        rng = random.Random(seed)
        k = rng.randint(1, 3) if seed % 2 == 0 else rng.randint(2, 3)
        r = gen_relation(rng, max_in=rng.randint(1, 3), max_out=k, exact=True)
        s = gen_relation(rng, max_in=k, max_out=rng.randint(1, 3), exact=True)
        m = k if seed % 2 == 0 else rng.randint(1, k - 1)
        outs, ins = rng.sample(list(r.codomain), m), rng.sample(list(s.domain), m)
        a, b = build_area(RoutingArea(r)), build_area(RoutingArea(s))
        assert serialize(compose_areas(a, outs, b, ins)) == serialize(
            _compose_pair_by_pair(a, outs, b, ins)
        )
    # a label paired twice is gone after its first trace
    a = build_area(RoutingArea(from_rows(["i"], ["x", "y"], [[1, 1]])))
    with pytest.raises(UnknownLabel):
        compose_areas(a, ["x", "x"], a, ["i", "i"])


def test_partial_composition_keeps_tags_where_labels_would_clash():
    r = from_rows(["i1", "i2"], ["o1", "o2"], [[1, 0], [0, 1]])
    s = from_rows(["i1", "i2"], ["o1", "o2"], [[1, 2], [0, 1]])
    net = compose_areas(build_area(RoutingArea(r)), ["o1"], build_area(RoutingArea(s)), ["i1"])
    ins, outs = free_io(net)
    assert sorted(l for _, l in ins) == ["L.i1", "L.i2", "R.i2"]
    assert sorted(l for _, l in outs) == ["L.o2", "R.o1", "R.o2"]
    assert semantics(net) == trace_formula(coproduct(r, s), "R.i1", "L.o1")
    # one direction clashes, the other does not: only the clashing one is tagged
    t = from_rows(["a", "b"], ["o1", "o2"], [[1, 0], [0, 1]])
    net = compose_areas(build_area(RoutingArea(t)), ["o1"], build_area(RoutingArea(s)), ["i1"])
    ins, outs = free_io(net)
    assert sorted(l for _, l in ins) == ["a", "b", "i2"]
    assert sorted(l for _, l in outs) == ["L.o2", "R.o1", "R.o2"]
    untag = {"L.a": "a", "L.b": "b", "R.i2": "i2"}
    want = trace_formula(coproduct(t, s), "R.i1", "L.o1")
    assert semantics(net).entries == {(untag[x], y): v for (x, y), v in want.entries.items()}


def test_compose_without_pairs_checks_and_canonicalizes():
    """No pairs is a composition too: both areas are checked, and the result
    is the canonical juxtaposition, its labels untagged."""
    r = from_rows(["a", "b"], ["x"], [[2], [1]])
    s = from_rows(["i"], ["o", "p"], [[1, 3]])
    a, b = build_area(RoutingArea(r)), build_area(RoutingArea(s))
    with pytest.raises(NotAreaShaped):
        compose_areas(boxed_one(), [], b, [])
    net = compose_areas(a, [], b, [])
    both = juxtapose(a, b)
    both.free = [(p, l[2:]) for p, l in both.free]
    assert serialize(net) == serialize(canonicalize(both))
    assert semantics(net).entries == {("a", "x"): 2, ("b", "x"): 1, ("i", "o"): 1, ("i", "p"): 3}


def test_composition_is_canonical_under_its_own_labels():
    """The tags are stripped before canonicalizing: canonicalizing a
    composition again changes no byte, over seeded compositions of 0 to 3
    pairs."""
    for seed in range(60):
        rng = random.Random(seed)
        k = rng.randint(1, 3)
        r = gen_relation(rng, max_in=rng.randint(1, 3), max_out=k, exact=True)
        s = gen_relation(rng, max_in=k, max_out=rng.randint(1, 3), exact=True)
        m = rng.randint(0, k)
        outs, ins = rng.sample(list(r.codomain), m), rng.sample(list(s.domain), m)
        net = compose_areas(build_area(RoutingArea(r)), outs, build_area(RoutingArea(s)), ins)
        assert serialize(canonicalize(net)) == serialize(net), seed


def test_compose_checks_and_reduces_once_whatever_the_pairs(monkeypatch):
    """One check, one reduction and one canonical form for three pairs:
    feedback reads the crossings of the juxtaposed areas instead of
    counting paths, reduction reads those of the area it reaches instead
    of running the rewriter, and the canonical form is labelled from them."""
    r = from_rows(["a"], ["x", "y", "z"], [[1, 2, 3]])
    s = from_rows(["x", "y", "z"], ["o"], [[1], [1], [2]])
    steps = ("_crossings", "count_paths_all", "_normal_area", "normal_nets", "_canonical")
    counted = _calls(monkeypatch, *((routing, name) for name in steps))
    net = compose_areas(
        build_area(RoutingArea(r)), ["x", "y", "z"], build_area(RoutingArea(s)), ["x", "y", "z"]
    )
    assert counted == ["_crossings", "_normal_area", "_crossings", "_canonical"]
    assert rows_of(read_area(net).rel) == [[9]]


# ---------------------------------------------------------------------------
# Reading areas from raw normal nets


def is_routing_net(n: Net) -> bool:
    """Whether `n` is a net of structural cells only, one !A on every wire,
    and acyclic."""
    return _structural(n) is not None and check_acyclic(n)


def _check_normal_routing(n: Net):
    """The check read_area made before it read raw nets: a routing net
    without redexes."""
    assert is_routing_net(n)
    assert find_redexes(n, ALL) == []


def _neutral_leaves(n: Net) -> int:
    """Weakenings on a contraction's aux ports and coweakenings on a
    cocontraction's: the leaves that canonical form removes."""
    owner = n.owner()
    pairs = {"Weakening": "Contraction", "Coweakening": "Cocontraction"}
    count = 0
    for c in n.cells:
        if c.sym in pairs:
            far = owner.get(n.wire_at(c.principal).other(c.principal))
            count += far is not None and far[0].sym == pairs[c.sym] and far[1] != "p"
    return count


def _leafy_area():
    """Inputs a, b, e and outputs x, y, w with a -> x, a -> y and b -> x,
    past a neutral leaf in an input tree and one in an output tree."""
    b = Builder()
    qa, qb, qe, qx, qy, qw = (b.port() for _ in range(6))
    c, c2 = b.cell("Contraction", 2), b.cell("Contraction", 2)
    k, k2 = b.cell("Cocontraction", 2), b.cell("Cocontraction", 2)
    b.wire(qa, c.principal, A)
    b.wire(c.aux[0], b.cell("Weakening", 0).principal, A)
    b.wire(c.aux[1], c2.principal, A)
    b.wire(c2.aux[0], k.aux[0], A)
    b.wire(c2.aux[1], k2.aux[0], A)
    b.wire(b.cell("Coweakening", 0).principal, k2.aux[1], A)
    b.wire(k2.principal, qy, A)
    b.wire(qb, k.aux[1], A)
    b.wire(k.principal, qx, A)
    b.wire(qe, b.cell("Weakening", 0).principal, A)
    b.wire(b.cell("Coweakening", 0).principal, qw, A)
    return b.finish([(qa, "a"), (qb, "b"), (qe, "e"), (qx, "x"), (qy, "y"), (qw, "w")])


def _empty_trees():
    """Input i into a contraction whose leaves are both weakenings, and
    output o out of a cocontraction fed only by coweakenings."""
    b = Builder()
    qi, qo = b.port(), b.port()
    c, k = b.cell("Contraction", 2), b.cell("Cocontraction", 2)
    b.wire(qi, c.principal, A)
    for aux in c.aux:
        b.wire(aux, b.cell("Weakening", 0).principal, A)
    for aux in k.aux:
        b.wire(b.cell("Coweakening", 0).principal, aux, A)
    b.wire(k.principal, qo, A)
    return b.finish([(qi, "i"), (qo, "o")])


def _unary_chains():
    """Unary (co)contractions, which `validate` rejects but canonical form
    dissolves: i through two unary contractions into a unary cocontraction
    to o, and j into a unary contraction onto a weakening."""
    b = Builder()
    qi, qo, qj = b.port(), b.port(), b.port()
    u1, u2 = b.cell("Contraction", 1), b.cell("Contraction", 1)
    k, u3 = b.cell("Cocontraction", 1), b.cell("Contraction", 1)
    b.wire(qi, u1.principal, A)
    b.wire(u1.aux[0], u2.principal, A)
    b.wire(u2.aux[0], k.aux[0], A)
    b.wire(k.principal, qo, A)
    b.wire(qj, u3.principal, A)
    b.wire(u3.aux[0], b.cell("Weakening", 0).principal, A)
    return b.finish([(qi, "i"), (qo, "o"), (qj, "j")])


HAND_BUILT = {
    "leafy": (_leafy_area, [[1, 1, 0], [1, 0, 0], [0, 0, 0]]),
    "empty-trees": (_empty_trees, [[0]]),
    "unary-chains": (_unary_chains, [[1], [0]]),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_reader_sees_past_neutral_leaves_and_unary_nodes(name):
    make, rows = HAND_BUILT[name]
    net = make()
    if name != "unary-chains":
        assert validate(net) == []
    _check_normal_routing(net)
    ins, outs = free_io(net)
    want = from_rows([l for _, l in ins], [l for _, l in outs], rows)
    assert read_area(net).rel == want == path_semantics(net) == semantics(net)
    assert read_area(net) == read_area(canonicalize(net))


def _one_raw_normal_net(n: Net) -> Net:
    (m,) = normal_nets(n)
    return m


def _zero_pair(n: Net):
    """An (input, output) pair of `n` without a path, or None."""
    rel = path_semantics(n)
    return next(((i, o) for i in rel.domain for o in rel.codomain if rel(i, o) == 0), None)


def test_reader_on_raw_normal_nets_equals_canonical_read_area():
    """The reader on raw normal nets against the reader on their canonical
    forms: 200 generator nets and a raw trace of each, the raw steps of
    seeded compositions, each trace and step also as `_normal_area` leaves
    it (tree cuts fired whole), and the hand-built nets above."""
    corpus = [make() for make, _ in HAND_BUILT.values()]
    for seed in range(200):
        net = gen_routing_net(random.Random(seed))
        corpus.append(_one_raw_normal_net(net))
        pair = _zero_pair(net)
        if pair is not None:
            fed = feedback(net, [pair])
            corpus += [_one_raw_normal_net(fed), routing._normal_area(fed, "trace produced")[0]]
    for seed in range(40):
        rng = random.Random(seed)
        r = gen_relation(rng, max_in=3, max_out=3, exact=True)
        s = gen_relation(rng, max_in=3, max_out=3, exact=True)
        n = juxtapose(build_area(RoutingArea(r)), build_area(RoutingArea(s)))
        for o, i in zip(r.codomain, s.domain):
            fed = feedback(n, [("R." + i, "L." + o)])
            corpus.append(routing._normal_area(fed, "trace produced")[0])
            n = _one_raw_normal_net(fed)
            corpus.append(n)
    assert len(corpus) > 600
    # raw normal forms do hold the leaves that canonical form removes
    assert sum(_neutral_leaves(m) > 0 for m in corpus) > 50
    for m in corpus:
        _check_normal_routing(m)
        assert read_area(m) == read_area(canonicalize(m))
        assert read_area(m).rel == path_semantics(m)


def test_transit_on_raw_normal_nets_delivers_the_path_semantics():
    """Transit on raw normal nets, past their (co)weakenings: feeding input
    i delivers row i of the path semantics.  The normal forms of 60
    generator nets hang (co)weakenings on free ports; a raw trace of each
    also leaves neutral leaves in the trees, which canonical form removes."""
    nets = []
    for seed in range(60):
        net = gen_routing_net(random.Random(seed))
        nets.append(_one_raw_normal_net(net))
        pair = _zero_pair(net)
        if pair is not None:
            nets.append(_one_raw_normal_net(feedback(net, [pair])))
    assert sum(_neutral_leaves(m) > 0 for m in nets) > 10
    for m in nets:
        rel = path_semantics(m)
        for i in rel.domain:
            assert transit(m, i) == {o: rel(i, o) for o in rel.codomain}


# ---------------------------------------------------------------------------
# Areas: their crossings are their path counts, their normal form and their
# canonical form


def _agrees_with_canonicalize(n: Net, crossings) -> bool:
    """Whether the canonical net labelled from the crossings of `n` has the
    bytes and the certificate that `canonicalize` gives."""
    assert crossings is not None
    net, cert = routing._canonical(n, crossings)
    want, want_cert = canonicalize_with_cert(n)
    return serialize(net) == serialize(want) and cert == want_cert


def test_canonical_form_from_crossings_equals_canonicalize():
    """On 2,400 `gen_area` areas at two seeds, 1 x 1 to 4 x 4 with entries
    0 to 3, a third of them of payload !(1*1) and a third !!1, each as built
    and as the raw normal net of a trace at a zero entry: the net labelled
    from the crossings has the bytes and the certificate of `canonicalize`."""
    payloads = [bang(ONE), bang(tensor(ONE, ONE)), bang(bang(ONE))]
    shapes = Counter()
    for seed in (1, 7):
        rng = random.Random(seed)
        for k in range(1200):
            r = gen.gen_relation(rng)
            a = build_area(RoutingArea(r, payloads[k % 3]))
            assert _agrees_with_canonicalize(a, _crossings(a, *free_io(a))), (seed, k)
            rows = [[r(i, o) for o in r.codomain] for i in r.domain]
            shapes.update(
                {
                    "zero row": any(not any(row) for row in rows),
                    "zero column": any(not any(col) for col in zip(*rows)),
                    "single unit": any(1 in row for row in rows),
                }
            )
            zeros = [(i, o) for i in r.domain for o in r.codomain if r(i, o) == 0]
            if zeros:
                traced = feedback(a, [rng.choice(zeros)])
                assert _agrees_with_canonicalize(*routing._normal_area(traced, "traced")), (seed, k)
                shapes["traced"] += 1
    assert min(shapes.values()) > 300, shapes


def test_area_suites_return_the_canonical_form_of_their_normal_areas(monkeypatch):
    """Every net that trace_net and compose_areas return in the seven area
    suites at their default counts is labelled from its crossings, with the
    bytes and the certificate of `canonicalize`."""
    normal = []
    real = routing._canonical
    monkeypatch.setattr(routing, "_canonical", lambda n, c: normal.append((n, c)) or real(n, c))
    for suite in AREA_SUITES:
        assert all(ok for _, ok, _ in gen.run_suite(suite, 7, gen.SUITES[suite].cases)), suite
    monkeypatch.undo()
    assert len(normal) > 250
    for n, crossings in normal:
        assert _agrees_with_canonicalize(n, crossings)


def test_feedback_checks_every_fed_pair_against_a_cycle():
    """Pairs can close a cycle across each other: fed back 1 -> 1 and
    2 -> 2, gamma runs 2 into 1 and 1 into 2.  The pair named is the first
    greatest in path counting's order, outputs outer and inputs inner."""
    with pytest.raises(CycleRisk) as exc:
        feedback(gamma(), [("1", "1"), ("2", "2")])
    assert str(exc.value) == "semantics(2,1) >= 1"
    a = build_area(RoutingArea(from_rows(["a", "b"], ["x", "y"], [[0, 2], [2, 0]])))
    with pytest.raises(CycleRisk) as exc:
        feedback(a, [("a", "x"), ("b", "y")])
    assert str(exc.value) == "semantics(b,x) >= 1"


def test_feedback_counts_paths_on_a_net_the_reader_refuses(monkeypatch):
    """A fed-back net not yet reduced still has its cut, so the reader
    refuses it and feedback counts paths: a -> y runs through the fed
    pair, c -> y does not.  A cyclic net is no routing net."""
    r = from_rows(["a", "b", "c"], ["x", "y", "z"], [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    n = feedback(build_area(RoutingArea(r)), [("b", "x")])
    assert find_redexes(n, ALL)
    counted = _calls(monkeypatch, (routing, "count_paths_all"))
    with pytest.raises(CycleRisk) as exc:
        feedback(n, [("a", "y")])
    assert str(exc.value) == "semantics(a,y) >= 1"
    fed = feedback(n, [("c", "y")])
    assert counted == ["count_paths_all"] * 2
    assert semantics(fed) == from_rows(["a"], ["z"], [[8]])
    cyclic, i, o = _non_areas()["cyclic"]
    with pytest.raises(NotAreaShaped, match="not a routing net"):
        feedback(cyclic, [(i, o)])


def _stray_wire() -> Net:
    """gamma with a wire between two ports that no cell or free port owns."""
    g = gamma()
    top = g.max_port()
    return Net(g.cells, list(g.wires) + [Wire(top + 1, top + 2, A)], g.free)


def _reversed_crossing() -> Net:
    """A 2 x 2 area with a crossing between two trees of two leaves along
    which !A flows backwards, which `validate` refuses."""
    a = build_area(RoutingArea(from_rows(["a", "b"], ["x", "y"], [[2, 1], [1, 2]])))
    owner = a.owner()
    wires = list(a.wires)
    k = next(
        k for k, w in enumerate(wires) if all(owner.get(p, ("", "p"))[1] != "p" for p in (w.a, w.b))
    )
    wires[k] = Wire(wires[k].a, wires[k].b, dual(wires[k].ty))
    return Net(a.cells, wires, a.free)


def test_area_operations_refuse_stray_wires_and_backward_crossings():
    """A stray wire and a crossing along which !A runs backwards make nets
    that `validate` refuses and the reader does too: read_area, semantics,
    trace_net (of the net beside another area) and compose_areas raise
    NotAreaShaped or UnwiredPort, and transit says that it needs an area."""
    other = build_area(RoutingArea(from_rows(["x"], ["z"], [[1]])))
    for net in (_stray_wire(), _reversed_crossing()):
        assert validate(net) != []
        ins, outs = free_io(net)
        i, o = ins[0][1], outs[0][1]
        with pytest.raises(NotAreaShaped):
            _crossings(net, ins, outs)
        for op in (
            read_area,
            semantics,
            lambda n: trace_net(juxtapose(n, other), "R.x", "L." + o),
            lambda n: compose_areas(n, [o], other, ["x"]),
        ):
            with pytest.raises((NotAreaShaped, UnwiredPort)):
                op(net)
        with pytest.raises(RoutenetError, match="transit needs a normal routing area") as exc:
            transit(net, i)
        assert type(exc.value) is RoutenetError


def _mutants(a: Net, rng: random.Random) -> dict:
    """name -> a mutant of the area `a`: one wire's formula turned round
    with `dual`, a stray wire added, and the far ends of two wires swapped."""
    wires = list(a.wires)
    k = rng.randrange(len(wires))
    flip = wires[:k] + [Wire(wires[k].a, wires[k].b, dual(wires[k].ty))] + wires[k + 1 :]
    top = a.max_port()
    x, y = rng.sample(range(len(wires)), 2) if len(wires) > 1 else (0, 0)
    swap = list(wires)
    swap[x] = Wire(wires[x].a, wires[y].b, wires[x].ty)
    swap[y] = Wire(wires[y].a, wires[x].b, wires[y].ty)
    stray = wires + [Wire(top + 1, top + 2, A)]
    mutated = {"flip": flip, "stray": stray, "swap": swap}
    return {name: Net(a.cells, w, a.free) for name, w in mutated.items()}


def test_area_operations_on_mutated_areas():
    """1,500 `gen_relation` areas at each of seeds 1 and 7, each mutated
    three ways: no area operation accepts a mutant that `validate`
    refuses, and every one returns or raises a RoutenetError."""
    other = build_area(RoutingArea(from_rows(["x"], ["z"], [[1]])))
    refused, read = Counter(), Counter()
    for seed in (1, 7):
        rng = random.Random(seed)
        for _ in range(1500):
            r = gen_relation(rng)
            a = build_area(RoutingArea(r))
            i, o = rng.choice(list(r.domain)), rng.choice(list(r.codomain))
            ops = (
                read_area,
                semantics,
                lambda n: trace_net(n, i, o),
                lambda n: compose_areas(n, [o], other, ["x"]),
                lambda n: transit(n, i),
            )
            for name, m in _mutants(a, rng).items():
                valid = validate(m) == []
                refused[name] += not valid
                for k, op in enumerate(ops):
                    try:
                        op(m)
                    except RoutenetError:
                        continue
                    assert valid, (seed, name, k)
                    read[name] += op in (read_area, semantics)
    assert refused["stray"] == 3000 and refused["flip"] > 2500, refused
    assert read["swap"] > 1000, read


def test_feedback_refuses_a_wire_against_the_flow():
    """A net that is no area is checked for cycles by path counting, which
    reads no formula; the direction of !A is checked on its own.  Here one
    wire of a contraction tree is turned round with `dual`, so !A runs from
    a principal into an aux.  Tracing the zero column o3 into i1 cuts that
    tree against an empty one, and the step that erases both would erase
    the wire too and return an area."""
    a = build_area(RoutingArea(from_rows(["i1"], ["o1", "o2", "o3"], [[2, 1, 0]])))
    tree = {p for c in a.cells if c.sym == "Contraction" for p in c.ports()}
    w = next(w for w in a.wires if w.a in tree and w.b in tree)
    flipped = Net(a.cells, [Wire(v.a, v.b, dual(v.ty)) if v is w else v for v in a.wires], a.free)
    assert validate(flipped)
    with pytest.raises(NotAreaShaped, match="against a wire"):
        feedback(flipped, [("i1", "o3")])
    with pytest.raises(NotAreaShaped):
        trace_net(flipped, "i1", "o3")


# ---------------------------------------------------------------------------
# Tree cuts fired whole: the n-ary bialgebra step of `_normal_area`

AREA_SUITES = (
    "trace", "compose", "paths", "transit", "characterize", "path-preservation", "paths-area",
)


def _empty_tree_cuts():
    """rule -> an area with a zero column x or a zero row b, x fed back
    into b: the one redex is a cut of a tree against an empty tree."""
    rows = {"s1": [[0, 1], [0, 2]], "s2": [[2, 1], [0, 0]], "eps_ww": [[0, 1], [0, 0]]}
    return {
        rule: feedback(build_area(RoutingArea(from_rows(["a", "b"], ["x", "y"], r))), [("b", "x")])
        for rule, r in rows.items()
    }


def test_tree_cuts_reach_the_normal_form_of_the_binary_rules(monkeypatch):
    """The binary rules alone as the oracle: on every net that the area
    suites hand to reduction (`_normal_area`) at their default counts, on
    300 `gen_cut_net` nets and on a cut against each kind of empty tree,
    `normal_certs` finds one normal form, and it is that of `_normal_area`."""
    nets = []
    real = routing._normal_area
    monkeypatch.setattr(routing, "_normal_area", lambda n, what: nets.append(n) or real(n, what))
    for suite in AREA_SUITES:
        assert all(ok for _, ok, _ in gen.run_suite(suite, 7, gen.SUITES[suite].cases)), suite
    monkeypatch.undo()
    assert len(nets) > 500
    nets += [gen.gen_cut_net(random.Random(seed)) for seed in range(300)]
    for rule, net in _empty_tree_cuts().items():
        assert [r.rule for r in find_redexes(net)] == [rule]
        nets.append(net)
    for n in nets:
        (cert,) = normal_certs(n)
        assert certificate(routing._normal_area(n, "reduced to")[0]) == cert


def _rules_fired(monkeypatch) -> Counter:
    fired = Counter()
    real = rewrite.apply_redex
    monkeypatch.setattr(
        rewrite, "apply_redex", lambda net, r, **kw: fired.update([r.rule]) or real(net, r, **kw)
    )
    return fired


def test_area_operations_fire_no_binary_tree_rule(monkeypatch):
    """Composing 3 x 3 areas with entries up to 3 and tracing a zero entry
    of a 4 x 4 area take no `ba`, `s1`, `s2` or `eps_ww` step: each tree
    cut is one step outside the binary rules.  Transit of a boxed One fires
    only `d`, and `er` where the payload meets an empty row."""
    fired = _rules_fired(monkeypatch)
    for seed in range(20):
        rng = random.Random(seed)
        r = gen_relation(rng, max_in=3, max_out=3, max_entry=3, exact=True)
        s = gen_relation(rng, max_in=3, max_out=3, max_entry=3, exact=True)
        s = s.relabel(dict(zip(s.domain, r.codomain)), {o: "z" + o for o in s.codomain})
        net = compose_areas(
            build_area(RoutingArea(r)), list(r.codomain), build_area(RoutingArea(s)), list(s.domain)
        )
        assert semantics(net) == compose(r, s)
        t = gen_relation(rng, max_in=4, max_out=4, exact=True)
        zeros = [(i, o) for i in t.domain for o in t.codomain if t(i, o) == 0]
        if zeros:
            i, o = rng.choice(zeros)
            assert semantics(trace_net(build_area(RoutingArea(t)), i, o)) == trace_formula(t, i, o)
    assert not fired
    r = from_rows(["a", "b", "c"], ["x", "y"], [[2, 3], [0, 0], [1, 0]])
    for i in r.domain:
        assert transit(build_area(RoutingArea(r)), i) == {o: r(i, o) for o in r.codomain}
    assert set(fired) == {"d", "er"}


def test_a_tree_cut_takes_cells_of_any_arity():
    """A unary cocontraction cut against a contraction, which `validate`
    refuses: `semantics` reduces it with the tree step and agrees with
    `path_semantics`.  The `ba` rule fires on such cells too, through the
    same `rewrite.bialgebra` (`test_bialgebra_fires_at_any_arity`)."""
    b = Builder()
    qi, qx, qy = b.port(), b.port(), b.port()
    k, c = b.cell("Cocontraction", 1), b.cell("Contraction", 2)
    b.wire(qi, k.aux[0], A)
    b.wire(k.principal, c.principal, A)
    b.wire(c.aux[0], qx, A)
    b.wire(c.aux[1], qy, A)
    net = b.finish([(qi, "i"), (qx, "x"), (qy, "y")])
    assert validate(net) == ["BadArity: cell 1 Cocontraction arity 1"]
    assert semantics(net) == path_semantics(net) == from_rows(["i"], ["x", "y"], [[1, 1]])


def _merge_into_parent(n: Net, rng: random.Random):
    """Merge a random (co)contraction of `n` into the cell of its kind whose
    aux port its principal is wired to, which then has arity 3 or more;
    nothing if there is no such pair."""
    owner, pairs = n.owner(), []
    for c in n.cells:
        if c.sym in ("Contraction", "Cocontraction"):
            parent, k = owner.get(n.wire_at(c.principal).other(c.principal), (None, "p"))
            if k != "p" and parent.sym == c.sym:
                pairs.append((c, parent, k))
    if pairs:
        c, parent, k = rng.choice(pairs)
        b = Builder(n)
        b.remove_wire(n.wire_at(c.principal))
        b.remove_cell(c)
        aux = parent.aux[:k] + c.aux + parent.aux[k + 1 :]
        b.replace_cell(Cell(parent.id, parent.sym, parent.principal, aux))


def _unary_cells_on_wires(n: Net, rng: random.Random):
    """Put a unary contraction or cocontraction, each the identity, on
    about a quarter of the wires of `n`."""
    b = Builder(n)
    for w in list(n.wires):
        if rng.random() < 0.25:
            # the !A flows from src to dst, into a contraction's principal
            # and out of a cocontraction's
            src, dst, bang_a = (w.a, w.b, w.ty) if w.ty.kind == "bang" else (w.b, w.a, dual(w.ty))
            c = b.cell(rng.choice(("Contraction", "Cocontraction")), 1)
            ends = [c.principal, c.aux[0]]
            if c.sym == "Cocontraction":
                ends.reverse()
            b.remove_wire(w)
            b.wire(src, ends[0], bang_a)
            b.wire(ends[1], dst, bang_a)


def test_tree_cuts_on_cells_of_any_arity_agree_with_path_counting(monkeypatch):
    """300 `gen_cut_net` nets, with (co)contractions merged into their
    parents and unary cells put on some wires, so that the tree step
    hangs cells with three or more aux ports and joins single leaves: the
    relation of `semantics` is the path count, which shares no code with
    `rewrite.bialgebra`, and the normal net of `_normal_area` is the one
    that the rules reach step by step."""
    shapes = []
    real = routing.bialgebra

    def bialgebra(b, xs, ys, ty, nary=False):
        assert nary
        shapes.append((len(xs), len(ys)))
        real(b, xs, ys, ty, nary)

    monkeypatch.setattr(routing, "bialgebra", bialgebra)
    arities = Counter()
    for seed in range(300):
        rng = random.Random(seed)
        n = gen.gen_cut_net(rng)
        for _ in range(rng.randint(1, 3)):
            _merge_into_parent(n, rng)
        _unary_cells_on_wires(n, rng)
        arities.update(len(c.aux) for c in n.cells)
        assert semantics(n) == path_semantics(n)
        assert normal_certs(n) == {certificate(routing._normal_area(n, "reduced to")[0])}
    assert arities[1] > 300 and sum(v for k, v in arities.items() if k >= 3) > 300
    assert sum(max(s) >= 3 for s in shapes) > 100
    assert sum(1 in s and 0 not in s for s in shapes) > 100


@pytest.mark.parametrize("k, l", [(2, 2), (2, 3), (3, 4), (4, 2)])
def test_a_tree_cut_hangs_one_cell_on_each_leaf_end(k, l):
    """Output o, whose tree of k leaves all come from input j, fed back
    into input i, whose tree of l leaves all go to output p: a cut of a
    cocontraction tree with k leaves against a contraction tree with l.
    The tree step builds k + l cells, one contraction with l aux ports on
    each of the k leaf ends and one cocontraction with k aux ports on each
    of the l, while `apply_redex` at the roots still hangs binary combs."""
    r = from_rows(["i", "j"], ["o", "p"], [[0, l], [k, 0]])
    net = feedback(build_area(RoutingArea(r)), [("i", "o")])
    reduced = routing._tree_cuts(net)
    made = [c for c in reduced.cells if c.id > max(c.id for c in net.cells)]
    shapes = Counter((c.sym, len(c.aux)) for c in made)
    assert shapes == {("Contraction", l): k, ("Cocontraction", k): l}
    assert semantics(reduced) == semantics(net) == from_rows(["j"], ["p"], [[k * l]])
    (redex,) = [x for x in find_redexes(net, ALL) if x.rule == "ba"]
    (step,) = rewrite.apply_redex(net, redex)
    # the roots are binary, so the step trades them for four binary cells
    assert {len(c.aux) for c in step.cells} == {2}
    assert len(step.cells) == len(net.cells) + 2


def _broken_tree_payloads():
    """Payloads with cuts the tree step leaves alone: a cocontraction in
    the tree of transit's cut with an unwired aux port, one whose aux port
    1 is wired into its own principal, which so ends two wires, a boxed One
    beside a well-typed cut whose trees are wired to each other, a cycle
    that reduction never ends, and a cut whose root another tree takes."""
    payloads = {}
    for name in ("unwired-aux", "own-principal"):
        b = Builder()
        q, k = b.port(), b.cell("Cocontraction", 2)
        b.wire(k.principal, q, A)
        b.wire(b.cell("Coweakening", 0).principal, k.aux[0], A)
        if name == "own-principal":
            b.wire(k.aux[1], k.principal, A)
        payloads[name] = b.finish([(q, "out")])
    b = Builder()
    k, c = b.cell("Cocontraction", 2), b.cell("Contraction", 2)
    b.wire(k.principal, c.principal, A)
    b.wire(c.aux[0], k.aux[1], A)
    b.wire(b.cell("Coweakening", 0).principal, k.aux[0], A)
    b.wire(c.aux[1], b.cell("Weakening", 0).principal, A)
    off = b.merge(boxed_one())
    payloads["cycle"] = b.finish([(boxed_one().free[0][0] + off, "out")])
    assert validate(payloads["cycle"]) == []
    # the principal of a coweakening cut against a contraction also ends a
    # wire into the tree of transit's cut, which takes the coweakening
    b = Builder()
    q, k = b.port(), b.cell("Cocontraction", 2)
    z, c = b.cell("Coweakening", 0), b.cell("Contraction", 2)
    b.wire(k.principal, q, A)
    b.wire(b.cell("Coweakening", 0).principal, k.aux[0], A)
    b.wire(z.principal, c.principal, A)
    b.wire(z.principal, k.aux[1], A)
    for aux in c.aux:
        b.wire(aux, b.cell("Weakening", 0).principal, A)
    payloads["taken-root"] = b.finish([(q, "out")])
    return payloads


@pytest.mark.parametrize(
    "name, error, message",
    [
        ("unwired-aux", StaleRedex, r"ports \[\d+\] not wired"),
        ("own-principal", RoutenetError, "transit disturbed the area"),
        ("cycle", BudgetExhausted, "reduction budget exhausted"),
        ("taken-root", RoutenetError, "transit disturbed the area"),
    ],
)
def test_a_tree_cut_on_a_broken_tree_is_left_to_the_binary_rules(name, error, message, monkeypatch):
    """The tree step does not fire a cut whose tree has an unwired aux port
    or meets a cell twice, whose trees are wired to each other, or whose
    cell a tree fired before took, so the rewriter meets the net as it is.
    Transit's `validate` of its payload, which refuses three of these, is
    switched off to let them through."""
    monkeypatch.setattr(routing, "validate", lambda net: [])
    net = build_area(RoutingArea(from_rows(["a"], ["x"], [[2]])))
    with pytest.raises(error, match=message) as exc:
        transit(net, "a", _broken_tree_payloads()[name])
    assert type(exc.value) is error


def _payloads():
    """Payloads that transit refuses: two free ports, an unwired free port,
    and a box of !(1*1) for a !1 area."""
    ones = Net(
        [Cell(1, "One", 1), Cell(2, "One", 2), Cell(3, "Tensor", 3, [4, 5])],
        [Wire(1, 4, ONE), Wire(2, 5, ONE), Wire(3, 6, tensor(ONE, ONE))],
        [(6, "c")],
    )
    return {
        "two-free-ports": juxtapose(boxed_one(), boxed_one()),
        "unwired": Net([], [], [(1, "out")]),
        "ill-typed": Net(
            [Cell(1, "Box", 1, [], ones)], [Wire(1, 2, bang(tensor(ONE, ONE)))], [(2, "out")]
        ),
    }


@pytest.mark.parametrize("name", sorted(_payloads()))
def test_transit_checks_its_payload(name):
    payload = _payloads()[name]
    if name == "ill-typed":
        assert validate(payload) == []
    net = build_area(RoutingArea(from_rows(["a"], ["x"], [[2]])))
    with pytest.raises(RoutenetError) as exc:
        transit(net, "a", payload)
    assert type(exc.value) is RoutenetError
    assert str(exc.value) == "payload must have one free port, emitting !1"


@pytest.mark.parametrize("name", ["own-principal", "taken-root", "unwired-aux"])
def test_transit_validates_its_payload(name):
    """A payload that `validate` refuses is refused before it is merged,
    by BadPayload with the first problem, not deep in the rewriter."""
    payload = _broken_tree_payloads()[name]
    problems = validate(payload)
    net = build_area(RoutingArea(from_rows(["a"], ["x"], [[2]])))
    with pytest.raises(BadPayload) as exc:
        transit(net, "a", payload)
    assert str(exc.value) == f"payload is not a well-formed net: {problems[0]}"


def _calls(monkeypatch, *where):
    """The names of the calls made to each (module, name) in `where`, in
    the order they are made."""
    calls = []
    for module, name in where:
        real = getattr(module, name)
        monkeypatch.setattr(
            module,
            name,
            lambda *args, real=real, name=name, **kw: calls.append(name) or real(*args, **kw),
        )
    return calls


def test_area_operations_canonicalize_only_the_nets_they_return(monkeypatch):
    """semantics and transit label no net; trace_net and compose_areas
    label the net they return once each, from its crossings, and flatten
    nothing."""
    r = from_rows(["a", "b"], ["x", "y"], [[2, 0], [1, 3]])
    s = from_rows(["x", "y"], ["z"], [[1], [2]])
    net, other = build_area(RoutingArea(r)), build_area(RoutingArea(s))
    calls = _calls(
        monkeypatch, (proofnet, "_flatten"), (proofnet, "_labelled"), (routing, "_labelled")
    )
    assert semantics(net) == r
    assert transit(net, "b") == {"x": 1, "y": 3}
    assert calls == []
    trace_net(net, "a", "y")
    assert calls == ["_labelled"]
    composed = compose_areas(net, ["x", "y"], other, ["x", "y"])
    assert calls == ["_labelled"] * 2
    assert semantics(composed) == from_rows(["a", "b"], ["z"], [[2], [7]])
    assert calls == ["_labelled"] * 2


def test_semantics_walks_a_normal_area_once(monkeypatch):
    """semantics reads a normal area at once: one walk, no acyclicity
    check and no reduction.  A net the reader refuses takes the full path,
    and the reduced net is walked once, its crossings giving the relation."""
    steps = ("_crossings", "check_acyclic", "_normal_area", "normal_nets")
    counted = _calls(monkeypatch, *((routing, name) for name in steps))
    r = from_rows(["a", "b"], ["x", "y"], [[2, 0], [1, 3]])
    s = from_rows(["x", "y"], ["z"], [[1], [2]])
    net, other = build_area(RoutingArea(r)), build_area(RoutingArea(s))
    assert semantics(net) == r
    assert counted == ["_crossings"]
    composed = compose_areas(net, ["x", "y"], other, ["x", "y"])
    counted.clear()
    assert semantics(composed) == from_rows(["a", "b"], ["z"], [[2], [7]])
    assert counted == ["_crossings"]
    counted.clear()
    cut, _, _ = _non_areas()["cut"]
    assert semantics(cut) == trace_formula(
        coproduct(from_rows(["a"], ["x"], [[2]]), from_rows(["i"], ["o", "p"], [[2, 0]])),
        "R.i",
        "L.x",
    )
    assert counted == ["_crossings", "check_acyclic", "_normal_area", "_crossings"]


def test_semantics_checks_reduces_and_reads_fed_back_areas(monkeypatch):
    """The full path of semantics on 100 seeded areas, each with a zero
    entry (i, o) fed back and left unreduced: semantics and path_semantics
    both give the trace formula, most of the nets are reduced first, and
    each reduced net is walked once, without the rewriter."""
    counted = _calls(monkeypatch, *((routing, name) for name in ("_crossings", "_normal_area")))
    walks = Counter()
    checked, seed = 0, 0
    while checked < 100:
        rng, seed = random.Random(seed), seed + 1
        r = gen_relation(rng, max_in=3, max_out=3, max_entry=2)
        zeros = [(i, o) for i in r.domain for o in r.codomain if r(i, o) == 0]
        if not zeros:
            continue
        i, o = rng.choice(zeros)
        net = feedback(build_area(RoutingArea(r)), [(i, o)])
        want = trace_formula(r, i, o)
        counted.clear()
        assert semantics(net) == want, seed
        walks[tuple(counted)] += 1
        assert path_semantics(net) == want, seed
        checked += 1
    reduced = ("_crossings", "_normal_area", "_crossings")
    assert set(walks) <= {("_crossings",), reduced}, walks
    assert walks[reduced] > 50


# The function of `gen` to which each suite first hands its generated net.
SUITE_NET_READERS = {
    "paths": "path_semantics",
    "characterize": "normalize",
    "path-preservation": "find_redexes",
}


@pytest.mark.parametrize("suite", sorted(SUITE_NET_READERS))
def test_path_suites_run_on_nets_with_cuts(suite, monkeypatch):
    """Criteria 02, 04 and 05 check nets that still reduce: at seed 2025,
    the acceptance seed, at least half of each suite's 200 nets have a
    redex."""
    nets = []
    name = SUITE_NET_READERS[suite]
    real = getattr(gen, name)
    monkeypatch.setattr(gen, name, lambda net, *args: nets.append(net) or real(net, *args))
    assert all(ok for _, ok, _ in gen.run_suite(suite, 2025, 200))
    assert len(nets) == 200
    assert sum(bool(find_redexes(n, ALL)) for n in nets) >= 100


def _wire_swaps(n: Net):
    """Every net made from `n` by swapping the ends into which !A flows of
    two of its wires: still structural, and seldom an area."""
    flows = [(w.a, w.b, w.ty) if w.ty.kind == "bang" else (w.b, w.a, dual(w.ty)) for w in n.wires]
    for x, y in itertools.combinations(range(len(flows)), 2):
        (s1, d1, f), (s2, d2, _) = flows[x], flows[y]
        kept = [Wire(*flow) for k, flow in enumerate(flows) if k not in (x, y)]
        yield Net(n.cells, kept + [Wire(s1, d2, f), Wire(s2, d1, f)], n.free)


def test_tree_reader_accepts_only_acyclic_cut_free_nets():
    """The tree-of-trees reader is the only check that semantics, trace_net,
    compose_areas and transit make after reducing, and the first check that
    semantics makes: every structural net it accepts is acyclic and has no
    redex, so it is its own normal form.  Checked on the wire-swap mutants
    of built areas and of generator normal forms."""
    nets = [
        build_area(RoutingArea(gen_relation(random.Random(seed), 3, 3, 2)))
        for seed in range(40)
    ]
    nets += [_one_raw_normal_net(gen_routing_net(random.Random(seed))) for seed in range(25)]
    accepted = rejected = 0
    for net in nets:
        for m in _wire_swaps(net):
            assert _structural(m)
            ins, outs = free_io(m)
            try:
                _crossings(m, ins, outs)
            except NotAreaShaped:
                rejected += 1
                continue
            accepted += 1
            assert check_acyclic(m)
            assert find_redexes(m, ALL) == []
    assert accepted > 1000 and rejected > 1000


def _relabelled(n: Net, labels: dict) -> Net:
    out = n.copy()
    out.free = [(p, labels.get(l, l)) for p, l in n.free]
    return out


def _wired(n: Net, i: str, o: str) -> Net:
    """Output o wired back into input i, not normalized."""
    n = n.copy()
    ins, outs = free_io(n)
    pi = next(p for p, l in ins if l == i)
    po = next(p for p, l in outs if l == o)
    b = Builder(n)
    wa, wb = b.wire_at(pi), b.wire_at(po)
    n.free = [(p, l) for p, l in n.free if p not in (pi, po)]
    b.remove_wire(wa)
    b.remove_wire(wb)
    b.wire(wb.other(po), wa.other(pi), wb.toward(po))
    return n


def _non_areas():
    """name -> (net, input, output); the output has no path from the input
    unless the net is cyclic."""
    m2x2 = build_area(RoutingArea(from_rows(["a", "b"], ["x", "y"], [[2, 0], [1, 3]])))
    return {
        "box": (juxtapose(m2x2, boxed_one()), "L.a", "L.y"),
        "duplicate-inputs": (_relabelled(m2x2, {"b": "a"}), "a", "y"),
        "duplicate-outputs": (_relabelled(m2x2, {"y": "x"}), "a", "x"),
        # a contraction feeding its own aux port, beside a bare wire a -> x
        "cyclic": (
            Net(
                [Cell(1, "Contraction", 3, [4, 5])],
                [Wire(1, 2, A), Wire(4, 3, A), Wire(5, 6, A)],
                [(1, "a"), (2, "x"), (6, "y")],
            ),
            "a",
            "y",
        ),
        # a's output x wired into the contraction of i: a cut remains
        "cut": (
            _wired(
                juxtapose(
                    build_area(RoutingArea(from_rows(["a"], ["x"], [[2]]))),
                    build_area(RoutingArea(from_rows(["i"], ["o", "p"], [[2, 0]]))),
                ),
                "R.i",
                "L.x",
            ),
            "L.a",
            "R.p",
        ),
        # a's output x wired back into a: a cycle through a cut
        "cyclic-cut": (_wired(m2x2, "a", "x"), "b", "y"),
        # port 3 is on two wires, and the one from aux 4 leads the tree of a
        # back into its own root
        "double-wired": (
            Net(
                [Cell(1, "Contraction", 3, [4, 5])],
                [Wire(1, 3, A), Wire(4, 3, A), Wire(5, 6, A)],
                [(1, "a"), (6, "x")],
            ),
            "a",
            "x",
        ),
    }


# What each operation does on each non-area: an exception class, or the
# transit counts.  Each entry is what the operation did before reading
# areas from raw normal forms, except for transit on the cyclic net, which
# returned {"x": 1, "y": 0} and now refuses a net that is not an area, and
# transit on the double-wired net, whose tree walk never returned.  On
# cyclic-cut, semantics and transit refuse the net before reducing it:
# reduction would grow it until the budget runs out.
NON_AREA_OUTCOMES = {
    "box": (NotAreaShaped, NotAreaShaped, RoutenetError),
    "duplicate-inputs": (NotAreaShaped, NotAreaShaped, {"x": 2, "y": 0}),
    "duplicate-outputs": (NotAreaShaped, NotAreaShaped, {"x": 2}),
    "cyclic": (NotAreaShaped, NotAreaShaped, RoutenetError),
    "cut": (None, None, RoutenetError),
    "cyclic-cut": (NotAreaShaped, NotAreaShaped, RoutenetError),
    "double-wired": (NotAreaShaped, NotAreaShaped, RoutenetError),
}


@pytest.mark.parametrize("name", sorted(NON_AREA_OUTCOMES))
def test_non_areas_raise_the_same_exceptions(name):
    net, i, o = _non_areas()[name]
    for op, want in zip(
        (lambda: trace_net(net, i, o), lambda: semantics(net), lambda: transit(net, i)),
        NON_AREA_OUTCOMES[name],
    ):
        if isinstance(want, type):
            with pytest.raises(RoutenetError) as exc:
                op()
            assert type(exc.value) is want
        elif want is None:
            op()
        else:
            assert op() == want


@pytest.mark.parametrize("name", sorted(NON_AREA_OUTCOMES))
def test_read_area_refuses_every_non_area(name):
    net, _, _ = _non_areas()[name]
    with pytest.raises(NotAreaShaped):
        read_area(net)


@pytest.mark.parametrize("name", sorted(NON_AREA_OUTCOMES))
def test_both_semantics_refuse_every_non_area(name):
    """semantics and path_semantics raise a RoutenetError on every non-area,
    NotAreaShaped on repeated labels; the cut reduces to an area, and both
    read it alike."""
    net, _, _ = _non_areas()[name]
    if NON_AREA_OUTCOMES[name][1] is None:
        assert path_semantics(net) == semantics(net)
        return
    for op in (semantics, path_semantics):
        with pytest.raises(RoutenetError) as exc:
            op(net)
        if name.startswith("duplicate-"):
            assert type(exc.value) is NotAreaShaped


def _unwired(name: str) -> Net:
    if name == "aux":  # a contraction whose aux port 1 has no wire
        return Net(
            [Cell(1, "Contraction", 2, [3, 4])],
            [Wire(1, 2, A), Wire(3, 5, A)],
            [(1, "a"), (5, "x")],
        )
    n = build_area(RoutingArea(from_rows(["a"], ["x"], [[2]])))
    n.free = list(n.free) + [(n.max_port() + 1, "z")]
    return n


UNWIRED_OPS = {
    "is_routing_net": is_routing_net,
    "semantics": semantics,
    "path_semantics": path_semantics,
    "transit": lambda n: transit(n, "a"),
    "trace_net": lambda n: trace_net(n, "a", "x"),
}


@pytest.mark.parametrize(
    "op, name, message",
    [
        ("is_routing_net", "aux", "Contraction cell 1 has an unwired aux port 1"),
        ("semantics", "aux", "Contraction cell 1 has an unwired aux port 1"),
        ("path_semantics", "aux", "Contraction cell 1 has an unwired aux port 1"),
        ("transit", "aux", "Contraction cell 1 has an unwired aux port 1"),
        ("trace_net", "aux", "Contraction cell 1 has an unwired aux port 1"),
        ("semantics", "free", "free port 'z' has no wire"),
        ("path_semantics", "free", "free port 'z' has no wire"),
        ("transit", "free", "free port 'z' has no wire"),
        ("trace_net", "free", "free port 'z' has no wire"),
    ],
)
def test_unwired_ports_raise_unwired_port(op, name, message):
    with pytest.raises(UnwiredPort, match=message):
        UNWIRED_OPS[op](_unwired(name))
