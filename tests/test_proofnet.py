"""Net model: formulas, validation, canonical form, serialization."""
import copy
import gc
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from routenet import proofnet
from routenet.errors import CyclicNet, DerivationMismatch, ParseError, RoutenetError, UnwiredPort
from routenet.gen import (
    PROGRAM_SUITE,
    gen_cut_net,
    gen_routing_net,
    gen_typed_net,
    suite_program,
)
from routenet.multirel import from_rows
from routenet.proofnet import (
    BOT,
    Builder,
    Cell,
    Formula,
    Net,
    NetSum,
    ONE,
    Wire,
    bang,
    canonical_equal,
    canonicalize,
    certificate,
    dual,
    fmt_formula,
    par,
    parse,
    parse_formula,
    serialize,
    tensor,
    validate,
    whynot,
)
from routenet.rewrite import ALL, apply_redex, find_redexes, normalize, reduction_graph
from routenet.routing import RoutingArea, build_area
from routenet.translate import compile_program

# ---------------------------------------------------------------------------
# formulas

formulas = st.recursive(
    st.sampled_from([ONE, BOT]),
    lambda inner: st.one_of(
        inner.map(bang),
        inner.map(whynot),
        st.tuples(inner, inner).map(lambda ab: tensor(*ab)),
        st.tuples(inner, inner).map(lambda ab: par(*ab)),
    ),
    max_leaves=8,
)


@given(formulas)
def test_dual_involution(f):
    assert dual(dual(f)) == f
    assert (f == dual(f)) is False


@given(formulas)
def test_formula_text_round_trip(f):
    assert parse_formula(fmt_formula(f)) == f


def test_formula_oracles():
    assert fmt_formula(dual(bang(ONE))) == "?bot"
    assert fmt_formula(dual(tensor(bang(ONE), BOT))) == "(?bot%1)"
    assert parse_formula("!(?bot%!1)") == bang(par(whynot(BOT), bang(ONE)))
    with pytest.raises(ParseError):
        parse_formula("!(")


def test_equal_formulas_are_one_object():
    f = bang(par(whynot(BOT), bang(ONE)))
    made = [
        Formula("bang", Formula("par", Formula("whynot", Formula("bot")), Formula("bang", ONE))),
        parse_formula("!(?bot%!1)"),
        dual(dual(f)),
        dual(parse_formula("?(!1*?bot)")),
        copy.copy(f),
        copy.deepcopy(f),
        copy.deepcopy([f, {"ty": f}])[1]["ty"],
        pickle.loads(pickle.dumps(f)),
    ]
    assert all(g is f for g in made)
    assert Formula.__eq__ is object.__eq__ and Formula.__hash__ is object.__hash__


def test_formulas_are_immutable_and_have_no_dict():
    f = tensor(ONE, BOT)
    assert not hasattr(f, "__dict__")
    with pytest.raises(AttributeError):
        f.kind = "par"
    with pytest.raises(AttributeError):
        del f.left
    assert fmt_formula(f) == "(1*bot)"


def test_unreferenced_formulas_leave_the_table():
    gc.collect()
    before = len(proofnet._FORMULAS)
    f = ONE
    for i in range(200):
        f = tensor(f, bang(f)) if i % 50 == 0 else whynot(f)
    fmt_formula(f), fmt_formula(dual(f))  # fill the dual and text slots too
    assert len(proofnet._FORMULAS) > before + 400
    del f
    gc.collect()
    assert len(proofnet._FORMULAS) == before


def test_deep_formula_needs_no_recursion():
    f = ONE
    for i in range(10_000):
        f = (bang, whynot, lambda g: par(BOT, g), lambda g: tensor(g, ONE))[i % 4](f)
    text = fmt_formula(f)
    assert parse_formula(text) is f
    swap = {"!": "?", "?": "!", "*": "%", "%": "*", "1": "bot", "b": "1", "o": "", "t": ""}
    assert fmt_formula(dual(f)) == "".join(swap.get(c, c) for c in text)
    assert dual(dual(f)) is f
    net = Net([], [Wire(1, 2, f)], [(1, "a"), (2, "b")])
    data = serialize(net)
    (back,) = parse(data)
    assert back.wires[0].ty is f
    assert serialize(back) == data


def _recursive_parse_formula(text):
    """The recursive-descent parser formulas had before: an oracle only."""
    pos = 0

    def fail(reason):
        raise ParseError(reason, pos)

    def atom():
        nonlocal pos
        if pos >= len(text):
            fail("unexpected end of formula")
        c = text[pos]
        if c == "1":
            pos += 1
            return ONE
        if text.startswith("bot", pos):
            pos += 3
            return BOT
        if c == "!":
            pos += 1
            return bang(atom())
        if c == "?":
            pos += 1
            return whynot(atom())
        if c == "(":
            pos += 1
            a = atom()
            if pos >= len(text) or text[pos] not in "*%":
                fail("expected '*' or '%'")
            op = text[pos]
            pos += 1
            b = atom()
            if pos >= len(text) or text[pos] != ")":
                fail("expected ')'")
            pos += 1
            return tensor(a, b) if op == "*" else par(a, b)
        fail(f"unexpected character {c!r}")

    f = atom()
    if pos != len(text):
        raise ParseError("trailing characters in formula", pos)
    return f


_FORMULA_TOKENS = ["1", "bot", "!", "?", "(", ")", "*", "%", "b", "bo", "o", "t", " ", "x", "()"]


def _random_formula_text(rng, depth):
    r = rng.random()
    if depth == 0 or r < 0.25:
        return rng.choice(["1", "bot"])
    if r < 0.55:
        return rng.choice("!?") + _random_formula_text(rng, depth - 1)
    a, b = _random_formula_text(rng, depth - 1), _random_formula_text(rng, depth - 1)
    return f"({a}{rng.choice('*%')}{b})"


def _mutated_formula_text(rng):
    text = _random_formula_text(rng, rng.randrange(1, 7))
    for _ in range(rng.randrange(4)):
        i = rng.randrange(len(text) + 1)
        how = rng.randrange(4)
        if how == 0:  # delete a character
            text = text[:i] + text[i + 1:]
        elif how == 1:  # insert a token
            text = text[:i] + rng.choice(_FORMULA_TOKENS) + text[i:]
        elif how == 2:  # replace a character by a token
            text = text[:i] + rng.choice(_FORMULA_TOKENS) + text[i + 1:]
        else:  # cut
            text = text[:i]
    return text


def _parse_outcome(parser, text):
    try:
        return parser(text)
    except ParseError as exc:
        return (exc.reason, exc.offset)


def test_formula_parser_agrees_with_the_recursive_oracle():
    rng = random.Random(17)
    accepted = 0
    for k in range(100_000):
        if k % 2:
            text = "".join(rng.choice(_FORMULA_TOKENS) for _ in range(rng.randrange(12)))
        else:
            text = _mutated_formula_text(rng)
        want = _parse_outcome(_recursive_parse_formula, text)
        got = _parse_outcome(parse_formula, text)
        assert got == want, text
        accepted += isinstance(want, Formula)
    # both kinds of outcome are well represented
    assert 10_000 < accepted < 90_000


# ---------------------------------------------------------------------------
# nets and validation


def boxed_one(label="out") -> Net:
    inner = Net([Cell(1, "One", 1)], [Wire(1, 2, ONE)], [(2, "main")])
    return Net([Cell(1, "Box", 1, [], inner)], [Wire(1, 2, bang(ONE))], [(2, label)])


def test_validate_accepts_boxed_one():
    assert validate(boxed_one()) == []


def test_validate_flags_type_mismatch():
    bad = Net([Cell(1, "One", 1)], [Wire(1, 2, BOT)], [(2, "out")])
    assert validate(bad)


def test_validate_flags_unwired_port():
    bad = Net([Cell(1, "One", 1)], [], [])
    assert validate(bad)


def test_validate_names_each_field_of_the_wrong_type_in_order():
    inner = Net([Cell("c", "One", 1.0)], [Wire(1.0, 2, ONE)], [(2, "main")])
    bad = Net(
        [Cell(1, "Box", "1", [], inner), Cell(2.5, 7, 3, [4, None])],
        [Wire("1", 2, bang(ONE)), Wire(3, 4, ONE)],
        [("2", "out"), (5, 6)],
    )
    assert validate(bad) == [
        "BadField: free port '2' is not int",
        "BadField: free label 6 is not str",
        "BadField: cell 1 port '1' is not int",
        "BadField: cell id 2.5 is not int",
        "BadField: cell 2.5 sym 7 is not str",
        "BadField: cell 2.5 port None is not int",
        "BadField: wire end '1' is not int",
        "box1/BadField: cell id 'c' is not int",
        "box1/BadField: cell 'c' port 1.0 is not int",
        "box1/BadField: wire end 1.0 is not int",
    ]


# ---------------------------------------------------------------------------
# canonical form

A = bang(ONE)
WN = whynot(dual(A))


def _comb_left(labels, root="r"):
    """((l0 ?c l1) ?c l2): contraction comb associating to the left."""
    n = Net()
    p = [0]

    def newp():
        p[0] += 1
        return p[0]

    leaves, cells, wires = [], [], []
    for lbl in labels:
        q = newp()
        leaves.append(q)
        n.free.append((q, lbl))
    acc = leaves[0]  # dangling end feeding the next comb cell
    for k, leaf in enumerate(leaves[1:], start=1):
        pr = newp()
        a1, a2 = newp(), newp()
        cells.append(Cell(k, "Contraction", pr, [a1, a2]))
        wires.append(Wire(acc, a1, WN))
        wires.append(Wire(leaf, a2, WN))
        acc = pr
    q = newp()
    wires.append(Wire(acc, q, WN))
    n.free.append((q, root))
    n.cells, n.wires = cells, wires
    return n


def _comb_right(labels, root="r"):
    return _comb_left(list(reversed(labels)), root)


def test_canonical_contraction_associativity_commutativity():
    a = _comb_left(["x", "y", "z"])
    b = _comb_right(["x", "y", "z"])
    assert validate(a) == [] and validate(b) == []
    assert canonical_equal(a, b)
    assert serialize(canonicalize(a)) == serialize(canonicalize(b))


def test_canonical_distinguishes_leaf_labels():
    a = _comb_left(["x", "y", "z"])
    b = _comb_left(["x", "y", "w"])
    assert not canonical_equal(a, b)


def test_canonical_weakening_neutrality():
    # (x ?c weakening) == plain wire x -> r
    n = Net()
    n.cells = [Cell(1, "Contraction", 3, [4, 5]), Cell(2, "Weakening", 1)]
    n.wires = [
        Wire(2, 4, WN),  # free x into aux 1
        Wire(1, 5, WN),  # weakening principal into aux 2
        Wire(3, 6, WN),  # principal to free r
    ]
    n.free = [(2, "x"), (6, "r")]
    assert validate(n) == []
    plain = Net([], [Wire(1, 2, WN)], [(1, "x"), (2, "r")])
    assert canonical_equal(n, plain)


def test_canonical_rejects_contraction_fed_by_its_own_root():
    # the principal feeds aux 1 and aux 2 holds a weakening: well typed,
    # but flattening leaves a unary node looped onto itself
    n = Net(
        [Cell(1, "Contraction", 1, [2, 3]), Cell(2, "Weakening", 4), Cell(3, "One", 5)],
        [Wire(1, 2, WN), Wire(4, 3, WN), Wire(5, 6, ONE)],
        [(6, "o")],
    )
    assert validate(n) == []
    with pytest.raises(CyclicNet):
        canonicalize(n)


def test_canonical_rejects_a_contraction_feeding_its_own_aux():
    # the principal feeds aux 0, and aux 1 is a free leaf: the looped node
    # keeps two aux slots, so it never becomes unary
    n = Net([Cell(1, "Contraction", 1, [2, 3])], [Wire(1, 2, WN), Wire(4, 3, WN)], [(4, "x")])
    assert validate(n) == []
    with pytest.raises(CyclicNet):
        canonicalize(n)


def test_canonical_rejects_two_contractions_feeding_each_other():
    # each principal feeds an aux of the other; the second fusion of the two
    # trees closes the cycle
    n = Net(
        [Cell(1, "Contraction", 1, [2, 3]), Cell(2, "Contraction", 4, [5, 6])],
        [Wire(1, 5, WN), Wire(4, 2, WN), Wire(7, 3, WN), Wire(8, 6, WN)],
        [(7, "x"), (8, "y")],
    )
    assert validate(n) == []
    with pytest.raises(CyclicNet):
        canonicalize(n)


def test_canonicalize_names_a_cell_with_an_unwired_principal():
    # a box holding a weakening left without a wire
    inner = Net([Cell(1, "One", 1), Cell(2, "Weakening", 3)], [Wire(1, 2, ONE)], [(2, "c")])
    n = Net([Cell(1, "Box", 1, [], inner)], [Wire(1, 2, bang(ONE))], [(2, "out")])
    assert validate(n) != []
    with pytest.raises(UnwiredPort, match="Weakening cell 2"):
        canonicalize(n)
    # a unary contraction without a wire on its principal
    lone = Net([Cell(1, "Contraction", 1, [3])], [Wire(3, 2, A)], [(2, "out")])
    with pytest.raises(UnwiredPort, match="Contraction cell 1"):
        canonicalize(lone)
    # a free port without a wire
    with pytest.raises(UnwiredPort, match="free port 'y'"):
        canonicalize(Net([], [Wire(1, 2, A)], [(1, "x"), (2, "z"), (3, "y")]))


class _KnowsEverything(dict):
    """A certificate table that holds, for every certificate, the entry of
    `boxed_one()`."""

    def get(self, cert, default=None):
        (entry,) = NetSum([boxed_one()]).table().values()
        return entry


def test_canonicalize_names_an_unwired_aux_port():
    # x * y -> out, and the same tensor with y's wire gone
    whole = Net(
        [Cell(1, "Tensor", 1, [2, 3])],
        [Wire(4, 2, ONE), Wire(5, 3, ONE), Wire(1, 6, tensor(ONE, ONE))],
        [(4, "x"), (5, "y"), (6, "out")],
    )
    assert validate(whole) == []
    torn = Net(whole.cells, [whole.wires[0], whole.wires[2]], [(4, "x"), (6, "out")])
    with pytest.raises(UnwiredPort, match="Tensor cell 1 has an unwired aux port 1"):
        canonicalize(torn)
    # an n-ary cell alike: flattening would read it as a unary contraction
    contraction = Net(
        [Cell(1, "Contraction", 1, [2, 3])], [Wire(4, 2, WN), Wire(1, 6, WN)], [(4, "x"), (6, "r")]
    )
    with pytest.raises(UnwiredPort, match="Contraction cell 1 has an unwired aux port 1"):
        canonicalize(contraction)
    # a table that holds a net of the same shape does not skip the check
    s = NetSum([whole])
    with pytest.raises(UnwiredPort, match="aux port 1"):
        s.add(torn)
    assert len(s) == 1
    with pytest.raises(UnwiredPort, match="aux port 1"):
        NetSum([torn], known=s.table())


_DER = Cell(1, "Dereliction", 1, [2])
_MISWIRED = {
    "two-wires": (
        Net([_DER], [Wire(1, 3, WN), Wire(2, 3, ONE), Wire(2, 4, ONE)], [(3, "x"), (4, "y")]),
        "port 3 is the end of two wires",
    ),
    "self-wire": (Net([], [Wire(3, 3, ONE)], [(3, "x")]), "port 3 is both ends of one wire"),
    "foreign-end": (
        Net([_DER], [Wire(1, 3, WN), Wire(2, 5, ONE)], [(3, "x")]),
        "wire end 5 is no free or cell port",
    ),
}


@pytest.mark.parametrize("case", list(_MISWIRED))
def test_canonicalize_refuses_a_port_on_two_wire_ends(case):
    """Library callers skip `validate`; flattening still refuses wiring that
    gives a port two wire ends, or a wire an end that nothing owns, and so
    does `normalize`."""
    n, says = _MISWIRED[case]
    assert validate(n) != []
    for run in (canonicalize, normalize):
        with pytest.raises(UnwiredPort, match=says):
            run(n)


def test_certificate_table_hits_keep_every_check(monkeypatch):
    """Every check of the wiring comes before the table lookup: a table that
    knows every certificate changes no outcome but the summand held, and a
    table's entry is rebuilt once, when first read, for every sum that
    shares it."""
    unary = Net([Cell(1, "Contraction", 1, [3])], [Wire(3, 2, A)], [(2, "out")])
    looped = Net(
        [Cell(1, "Contraction", 1, [2, 3]), Cell(2, "Weakening", 4), Cell(3, "One", 5)],
        [Wire(1, 2, WN), Wire(4, 3, WN), Wire(5, 6, ONE)],
        [(6, "o")],
    )
    no_free_wire = Net([], [Wire(1, 2, A)], [(1, "x"), (2, "z"), (3, "y")])
    # port 2 is both a free port and a cell's aux port
    shared = Net([Cell(1, "Dereliction", 1, [2])], [Wire(1, 2, whynot(ONE))], [(2, "x")])
    bad = [(unary, UnwiredPort), (looped, CyclicNet), (no_free_wire, UnwiredPort),
           (shared, UnwiredPort)]
    for n, err in bad:
        for known in (None, {}, _KnowsEverything()):
            with pytest.raises(err):
                NetSum([n], known)
    rebuilt = []
    real_rebuild = proofnet._rebuild
    monkeypatch.setattr(
        proofnet, "_rebuild", lambda *args: rebuilt.append(args) or real_rebuild(*args)
    )
    rng = random.Random(3)
    for _ in range(40):
        n = gen_typed_net(rng)
        canon, cert = proofnet.canonicalize_with_cert(n)
        hit = NetSum([n], _KnowsEverything())
        assert hit.cert_list() == [cert] and serialize(hit) == serialize(boxed_one())
        known = {}
        first, again = NetSum([n], known), NetSum([parse(serialize(n))[0]], known)
        assert list(known) == [cert]
        del rebuilt[:]
        assert serialize(first) == serialize(canon) and again.summand(cert) is first.summand(cert)
        assert len(rebuilt) == 1  # n's box contents are rebuilt by canonicalize above


def test_canonical_invariant_under_port_renaming():
    base = _comb_left(["x", "y", "z"])
    rng = random.Random(7)
    ports = sorted({w.a for w in base.wires} | {w.b for w in base.wires})
    for _ in range(10):
        perm = ports[:]
        rng.shuffle(perm)
        m = {old: new for old, new in zip(ports, perm)}
        shuffled = Net(
            [Cell(c.id, c.sym, m[c.principal], [m[p] for p in c.aux]) for c in base.cells],
            [Wire(m[w.a], m[w.b], w.ty) for w in base.wires],
            [(m[p], l) for p, l in base.free],
        )
        assert certificate(shuffled) == certificate(base)


def test_canonicalize_idempotent():
    for n in (boxed_one(), _comb_left(["x", "y", "z"])):
        c1 = canonicalize(n)
        assert serialize(canonicalize(c1)) == serialize(c1)


def _two_door_box(doors) -> Net:
    """A box emitting !1 whose doors, listed after the content in the order
    of `doors` as (label, "w" or "d") pairs, feed a Weakening and a
    Dereliction; door i meets the outer free port x, then y."""
    inner = Net(
        [Cell(1, "One", 1), Cell(2, "Weakening", 3), Cell(3, "One", 5), Cell(4, "Dereliction", 7, [6])],
        [Wire(1, 2, ONE), Wire(3, 4, whynot(ONE)), Wire(5, 6, ONE), Wire(7, 8, whynot(ONE))],
        [(2, "main")] + [({"w": 4, "d": 8}[cell], lbl) for lbl, cell in doors],
    )
    net = Net(
        [Cell(1, "Box", 1, [2, 3], inner)],
        [Wire(1, 12, bang(ONE)), Wire(10, 2, bang(BOT)), Wire(11, 3, bang(BOT))],
        [(12, "out"), (10, "x"), (11, "y")],
    )
    assert validate(net) == []
    return net


@pytest.mark.parametrize("a, b", [("a", "b"), ("v:a", "v:b"), ("v:x", "v:x")])
def test_box_doors_are_certified_by_position(a, b):
    """The rules and `validate` match door i with aux port i, so listing
    the doors of one box in another order, with the outer wiring kept,
    gives another net and another certificate: also when the labels sort
    before the content's, follow the compiler's v: form, or repeat."""
    n1 = _two_door_box([(a, "w"), (b, "d")])
    n2 = _two_door_box([(b, "d"), (a, "w")])
    assert certificate(n1) != certificate(n2)
    assert len(normalize([n1, n2])) == 2
    for n in (n1, n2):
        canon = canonicalize(n)
        assert validate(canon) == [] and certificate(canon) == certificate(n)
        assert serialize(canonicalize(canon)) == serialize(canon)


def test_a_box_with_a_door_label_that_is_no_string_is_certified_by_position():
    """`validate` refuses a free label of box contents that is no string,
    and the library still certifies and canonicalizes such a net: the
    contents are keyed by position, since labels of several types have no
    order to give."""
    inner = Net(
        [Cell(1, "One", 1), Cell(2, "Weakening", 3), Cell(3, "One", 5), Cell(4, "Dereliction", 7, [6])],
        [Wire(1, 2, ONE), Wire(3, 4, whynot(ONE)), Wire(5, 6, ONE), Wire(7, 8, whynot(ONE))],
        [(2, "main"), (4, 7), (8, "a")],
    )
    net = Net(
        [Cell(1, "Box", 1, [2, 3], inner)],
        [Wire(1, 12, bang(ONE)), Wire(10, 2, bang(BOT)), Wire(11, 3, bang(BOT))],
        [(12, "out"), (10, "x"), (11, "y")],
    )
    assert validate(net) == ["box1/BadField: free label 7 is not str"]
    canon = canonicalize(net)
    assert certificate(canon) == certificate(net)
    assert [lbl for _, lbl in canon.cells[0].inner.free] == ["main", 7, "a"]
    assert serialize(canonicalize(canon)) == serialize(canon)


def test_reduce_prints_a_box_with_early_door_labels_it_accepts(tmp_path, capsys):
    """Door labels that sort before the content's keep their door order in
    the canonical box, so `routenet reduce` accepts its own output."""
    from routenet.cli import main

    first_in = tmp_path / "n.json"
    first_in.write_bytes(serialize(_two_door_box([("a", "w"), ("b", "d")])))
    assert main(["reduce", str(first_in)]) == 0
    first = capsys.readouterr().out
    (net,) = parse(first.encode())
    assert validate(net) == []
    again_in = tmp_path / "nf.json"
    again_in.write_text(first)
    assert main(["reduce", str(again_in)]) == 0
    assert capsys.readouterr().out == first


# ---------------------------------------------------------------------------
# certificates without rebuilding


def _fresh(n: Net) -> Net:
    """`n` parsed again: none of its boxes remembers a canonical form."""
    return parse(serialize(n))[0]


def test_certificate_and_canonical_equal_rebuild_nothing(monkeypatch):
    """`certificate` gives the certificate of `canonicalize_with_cert` on the
    compiled suite programs and on 100 seeded typed nets, and neither it nor
    `canonical_equal` nor `is_value_net` rebuilds a net or a box's contents."""
    from routenet.translate import is_value_net

    nets = [compile_program(*reversed(suite_program(name))) for name, _, _ in PROGRAM_SUITE]
    nets += [gen_typed_net(random.Random(seed)) for seed in range(100)]
    want = [proofnet.canonicalize_with_cert(_fresh(n))[1] for n in nets]
    fresh = [(_fresh(n), _fresh(n)) for n in nets]
    assert sum(c.sym == "Box" for a, _ in fresh for c in a.cells) > 50

    def rebuild(*args):
        raise AssertionError("a net was rebuilt")

    monkeypatch.setattr(proofnet, "_rebuild", rebuild)
    assert [certificate(a) for a, _ in fresh] == want
    assert all(canonical_equal(a, b) for a, b in fresh)
    assert all(is_value_net(b, {cert}) for (_, b), cert in zip(fresh, want))
    assert not canonical_equal(fresh[0][0], fresh[1][1])


def test_the_adequacy_and_simulation_suites_rebuild_nothing(monkeypatch):
    """They compare certificates of normal forms only."""
    from routenet.gen import check_adequacy, check_simulation

    def rebuild(*args):
        raise AssertionError("a net was rebuilt")

    monkeypatch.setattr(proofnet, "_rebuild", rebuild)
    for name, _, _ in PROGRAM_SUITE:
        assert check_adequacy(name)[0] and check_simulation(name)[0], name


def _reordered(n: Net, rng: random.Random) -> Net:
    """`n` with its cells, wires and free ports in another order, and some
    wires read the other way."""
    cells, wires, free = list(n.cells), list(n.wires), list(n.free)
    for part in (cells, wires, free):
        rng.shuffle(part)
    wires = [Wire(w.b, w.a, dual(w.ty)) if rng.random() < 0.5 else w for w in wires]
    return Net(cells, wires, free)


def test_a_unary_node_joins_only_dual_formulas():
    """A unary (co)contraction splices into one edge only when it types:
    what flows out of its principal is what flows into its aux.  In this
    wire-swap mutant of a typed net, a Contraction and an ill-typed
    Cocontraction, each left unary by a neutral leaf, lie between a Box and
    a Weakening; splicing them in cell order without the check gave the net
    a certificate that depended on the order of its cells, wires and ports.
    With !(1*1), the other wire's formula, on the wire between the two aux
    ports, the Contraction is the ill-typed one: splicing the Cocontraction
    first would hand it the Weakening and leave it nullary unchecked, so
    every unary node is typed before the first splice."""
    n = gen_typed_net(random.Random(413))
    wires = list(n.wires)
    # two wires trade far ends: a contraction's aux now meets a
    # cocontraction's aux, and the coweakening that did meets a weakening
    (a, b), (c, d) = (wires[0].a, wires[0].b), (wires[3].a, wires[3].b)
    assert fmt_formula(wires[3].ty) == "!(1*1)"
    for ty, ill in ((wires[0].ty, "Cocontraction"), (wires[3].ty, "Contraction")):
        swapped = list(wires)
        swapped[0], swapped[3] = Wire(a, d, ty), Wire(c, b, wires[3].ty)
        mutant = Net(n.cells, swapped, n.free)
        assert [p.split()[-1] for p in validate(mutant)] == [ill]
        rng = random.Random(0)
        for _ in range(40):
            with pytest.raises(DerivationMismatch):
                certificate(_reordered(mutant, rng))


def test_a_wire_between_two_unordered_slots_of_one_node_is_read_one_way():
    """A wire from one unordered aux slot of a flattened (co)contraction to
    another of the same node has ends with one node and one slot text; the
    certificate reads it from the end whose formula text is least, so it
    does not depend on the way the wire was read.  Over the wire-swap
    mutants of 1,000 typed nets and 20 reordered copies of each, every
    mutant gets one certificate; before the tie was broken, none of the 217
    that hold such a wire did.  The copies that raise are left out: their
    mutants are ill-typed in another way, refused on some orders only."""
    loops = 0
    for seed in range(1000):
        rng = random.Random(seed)
        for m in _swap_mutants(gen_typed_net(random.Random(seed)), rng):
            try:
                _, flat = proofnet._flatten(m)
            except RoutenetError:
                continue
            loops += any(e.n0 == e.n1 and e.s0 == e.s1 == "a" for e in flat)
            certs = set()
            for _ in range(20):
                try:
                    certs.add(certificate(_reordered(m, rng)))
                except RoutenetError:
                    pass
            assert len(certs) <= 1, seed
    assert loops > 200  # 217 mutants hold such a wire


# ---------------------------------------------------------------------------
# the labelling against the unpruned search


def _reference_refine(adj, colors):
    """Colour refinement that signs every node in every round."""
    while True:
        sigs = {}
        for n, nbrs in adj.items():
            sigs[n] = (colors[n], tuple(sorted([code + colors[v] for code, v in nbrs])))
        ranking = {s: i for i, s in enumerate(sorted(set(sigs.values())))}
        new = {n: ranking[sigs[n]] for n in adj}
        if new == colors:
            return colors
        colors = new


class _TooLong(Exception):
    pass


def _reference_labelling(nodes, edges, budget):
    """The search that individualizes every node of a class and never
    prunes; it checks `_refine` against `_reference_refine` on the initial
    colouring and after each individualization, and gives up after `budget`
    refinements."""
    adj, initial = proofnet._coded(nodes, edges)
    spent = [0]

    def refine(colors, moved=None):
        spent[0] += 1
        if spent[0] > budget:
            raise _TooLong
        want = _reference_refine(adj, colors)
        assert proofnet._refine(adj, colors, moved) == want
        return want

    def finish(colors):
        classes: dict[int, list[int]] = {}
        for n, c in colors.items():
            classes.setdefault(c, []).append(n)
        target = next((classes[c] for c in sorted(classes) if len(classes[c]) > 1), None)
        if target is None:
            return proofnet._certificate(nodes, edges, colors)
        best = None
        for pick in target:
            c2 = dict(colors)
            c2[pick] = max(colors.values()) + 1
            cert, pos = finish(refine(c2, (pick,)))
            if best is None or cert < best[0]:
                best = (cert, pos)
        return best

    return finish(refine(initial))


def _trace_nets():
    """Every tenth raw trace net of each suite program."""
    import test_golden

    for name, _, _ in PROGRAM_SUITE:
        R, p = suite_program(name)
        nets = [n for res in test_golden._raw_steps(compile_program(p, R)) for n in res]
        yield from nets[::10]


@pytest.fixture(scope="module")
def oracle_flat():
    """The flattened oracle nets: seeded typed and routing nets, their
    one-step reducts, built areas, and the raw trace nets of at most 30
    flattened nodes."""
    nets = []
    for seed in range(150):
        rng = random.Random(seed)
        for n in (gen_typed_net(rng), gen_routing_net(rng)):
            nets += [n] + [m for r in find_redexes(n, ALL) for m in apply_redex(n, r)]
    for seed in range(20):
        rng = random.Random(seed)
        rows = [[rng.randint(0, 2) for _ in range(3)] for _ in range(2)]
        nets.append(build_area(RoutingArea(from_rows(["a", "b"], ["x", "y", "z"], rows))))
    flat = [proofnet._flatten(n) for n in nets]
    return flat + [f for f in map(proofnet._flatten, _trace_nets()) if len(f[0]) <= 30]


def test_labelling_equals_the_unpruned_search(oracle_flat):
    """Refining only around a split gives the colours of signing every node,
    and pruning by automorphisms gives the certificate and position map of
    the search that visits every leaf: on the oracle nets on which the
    unpruned search takes at most 300 refinements."""
    compared = 0
    for nodes, fe in oracle_flat:
        edges = [proofnet._ends(e) for e in fe]
        try:
            want = _reference_labelling(nodes, edges, budget=300)
        except _TooLong:
            continue
        assert proofnet._canonical_labelling(nodes, edges) == want
        compared += 1
    assert compared > 590


def _sorted_rank_certificate(nodes, edges, order):
    """`_certificate` by sorting the nodes by colour and numbering them in
    that order."""
    ranked = sorted(nodes, key=order.__getitem__)
    pos = {n: i for i, n in enumerate(ranked)}
    node_part = tuple(nodes[n].key for n in ranked)
    return (node_part, tuple(entry for entry, _, _ in proofnet._oriented(edges, pos))), pos


def test_certificate_reads_positions_off_a_discrete_colouring(oracle_flat):
    """On the oracle nets, for the labelling's own colouring and for a
    seeded renumbering of the nodes, `_certificate` gives the certificate
    and position map of sorting the nodes by colour; the map it returns is
    the colouring itself."""
    rng = random.Random(0)
    for nodes, fe in oracle_flat:
        edges = [proofnet._ends(e) for e in fe]
        _, pos = proofnet._canonical_labelling(nodes, edges)
        shuffled = list(nodes)
        rng.shuffle(shuffled)
        for order in (pos, {n: i for i, n in enumerate(shuffled)}):
            cert, got = proofnet._certificate(nodes, edges, order)
            assert (cert, got) == _sorted_rank_certificate(nodes, edges, order)
            assert got is order


def _disjoint_pairs(k: int) -> Net:
    """k closed coweakening-weakening pairs: k! leaves without pruning."""
    return Net(
        [Cell(2 * i + 1, "Coweakening", 2 * i + 1) for i in range(k)]
        + [Cell(2 * i + 2, "Weakening", 2 * i + 2) for i in range(k)],
        [Wire(2 * i + 1, 2 * i + 2, A) for i in range(k)],
        [],
    )


def test_labelling_of_symmetric_nets_is_polynomial(monkeypatch):
    """Orbit pruning keeps the refinements of k interchangeable components
    at k(k + 1)/2 (the unpruned search takes 1,237 for k = 6), and the
    labelling is still the unpruned search's."""
    calls = []
    real = proofnet._refine
    monkeypatch.setattr(proofnet, "_refine", lambda *a: calls.append(1) or real(*a))
    for k in (6, 12, 24):
        del calls[:]
        canonicalize(_disjoint_pairs(k))
        assert len(calls) <= k * k
    nodes, flat = proofnet._flatten(_disjoint_pairs(6))
    edges = [proofnet._ends(e) for e in flat]
    want = _reference_labelling(nodes, edges, budget=2000)
    assert proofnet._canonical_labelling(nodes, edges) == want


# ---------------------------------------------------------------------------
# canonical forms remembered on box contents


@pytest.fixture(scope="module")
def corpus():
    """Compiled suite programs, a built area, seeded generator nets, the
    nodes of a capped reduction graph, and the one-step reducts of the
    canonical form of each, which share its canonical box contents.  The
    three largest programs are left out: they passed, at twice the time."""
    large = ("stored-effectful-fn", "two-refs", "proj")
    nets = [
        compile_program(*reversed(suite_program(name)))
        for name, _, _ in PROGRAM_SUITE
        if name not in large
    ]
    nets.append(build_area(RoutingArea(from_rows(["a", "b"], ["x", "y"], [[2, 0], [1, 3]]))))
    for seed in range(30):
        rng = random.Random(seed)
        nets += [gen_typed_net(rng), gen_routing_net(rng)]
    two_readers = compile_program(*reversed(suite_program("two-readers")))
    nodes, _, _ = reduction_graph(two_readers, max_nodes=10)
    nets += [m for s in nodes for m in s]
    for n in list(nets):
        c = canonicalize(n)
        nets += [m for r in find_redexes(c, ALL) for m in apply_redex(c, r)]
    return nets


def test_warm_box_cache_gives_the_cold_canonical_form(corpus, monkeypatch):
    """Canonicalized once, a net labels only its top level the next time:
    the contents of every box are read from the entry they keep, with the
    bytes and the certificate of a cold run.  So does the canonical net,
    whose box contents were rebuilt from that entry and were handed it."""
    assert sum(c.sym == "Box" for n in corpus for c in n.cells) > 100
    calls = []
    real = proofnet._labelled
    monkeypatch.setattr(
        proofnet, "_labelled", lambda nodes, flat: calls.append(nodes) or real(nodes, flat)
    )
    for n in corpus:
        cold = proofnet.canonicalize_with_cert(parse(serialize(n))[0])
        proofnet.canonicalize_with_cert(n)
        del calls[:]
        warm = proofnet.canonicalize_with_cert(n)
        assert len(calls) == 1  # the top level
        assert (serialize(warm[0]), warm[1]) == (serialize(cold[0]), cold[1])
        del calls[:]
        assert proofnet.canonicalize_with_cert(warm[0])[1] == cold[1]
        assert len(calls) == 1


def test_a_box_key_text_is_made_once_per_contents_entry(corpus, monkeypatch):
    """The text a labelling ranks a box node by spells out the certificate
    of its contents, so it is kept on their entry: labelling a net again,
    labelling another net that holds the same boxes, and labelling the
    canonical net, whose box contents were handed the same entries, format
    no box key again."""
    made = []

    def counting(x):
        if type(x) is tuple and x[:2] == ("cell", "Box"):
            made.append(id(x[2]))
        return repr(x)

    monkeypatch.setattr(proofnet, "repr", counting, raising=False)
    formatted = 0
    for n in corpus:
        fresh = parse(serialize(n))[0]
        twin = Net(fresh.cells, fresh.wires, fresh.free)  # the same box cells
        del made[:]
        certificate(fresh)
        first = len(made)
        certificate(twin)
        canon, _ = proofnet.canonicalize_with_cert(fresh)
        certificate(canon)
        assert len(made) == first == len(set(made))
        formatted += first
    assert formatted > 100


def test_canonicalize_returns_a_canonical_net_byte_for_byte(corpus):
    # a canonical box content is its own cache entry, which needs this
    for n in corpus:
        c, cert = proofnet.canonicalize_with_cert(parse(serialize(n))[0])
        again = proofnet.canonicalize_with_cert(parse(serialize(c))[0])
        assert (serialize(again[0]), again[1]) == (serialize(c), cert)


def test_equal_certificates_rebuild_to_equal_bytes(monkeypatch):
    """A certificate table hands out the net of the first summand with a
    certificate for every later one, which relies on this: on the raw nets
    that tests/test_golden.py pins and on 200 generator nets, nets with
    one certificate canonicalize to the same bytes."""
    import test_golden

    raw = []
    real = test_golden.canonicalize_with_cert
    monkeypatch.setattr(
        test_golden, "canonicalize_with_cert", lambda n: raw.append(serialize(n)) or real(n)
    )
    names = [name for name, _ in test_golden.golden_outputs()]
    assert len(raw) == sum(name.startswith("canonical/") for name in names) == 561
    raw += [serialize(gen_typed_net(random.Random(seed))) for seed in range(200)]
    by_cert: dict = {}
    for blob in raw:
        canon, cert = proofnet.canonicalize_with_cert(parse(blob)[0])
        by_cert.setdefault(cert, {}).setdefault(serialize(canon), set()).add(blob)
    assert all(len(forms) == 1 for forms in by_cert.values())
    shared = [forms for forms in by_cert.values() if len(next(iter(forms.values()))) > 1]
    assert len(shared) > 30  # 42 certificates are each met on several raw nets


def _builder_left_comb(b: Builder, sym: str, leaves: list[int], ty: Formula):
    """The left comb that the oracle rebuild below grows through a Builder."""
    pr, acc = None, leaves[0]
    for leaf in leaves[1:]:
        if pr is not None:  # the previous cell's result wire
            if sym == "Cocontraction":
                b.wire(pr, acc, ty)
            else:
                b.wire(acc, pr, ty)
        pr = b.port()
        b.cell_on(sym, pr, [acc, leaf])
        acc = b.port()
    return pr, acc


def _builder_rebuild(nodes, edges, pos) -> Net:
    """The oracle for `proofnet._rebuild`: the canonical representative
    built through a Builder, then every wire made again to re-end the comb
    roots and orient the formulas, and sorted into a second net."""
    b = Builder()
    wire_of: dict[int, Wire] = {}
    slots: dict[int, dict] = {n: {"a": []} for n in nodes}
    for k, (_, e0, e1) in enumerate(proofnet._oriented(edges, pos)):
        p0, p1 = b.port(), b.port()
        if e0.ty_text <= e1.ty_text:
            wire_of[p0] = wire_of[p1] = b.wire(p0, p1, e0.ty)
        else:
            wire_of[p0] = wire_of[p1] = b.wire(p1, p0, e1.ty)
        for e, p, other in ((e0, p0, e1), (e1, p1, e0)):
            if e.slot == "a":
                slots[e.node]["a"].append((pos[other.node], k, p))
            else:
                slots[e.node][e.slot] = p

    comb_root: dict[int, int] = {}  # root port -> principal of its comb
    for n in sorted(nodes, key=lambda n: pos[n]):
        node = nodes[n]
        if node.sym == "free":
            continue
        if node.sym in proofnet._NEUTRAL:
            leaves = [p for (_, _, p) in sorted(slots[n]["a"])]
            sym = "Contraction" if node.sym == "NContr" else "Cocontraction"
            root = slots[n]["p"]
            into = wire_of[root].toward(root)
            comb_root[root], _ = _builder_left_comb(
                b, sym, leaves, into if sym == "Contraction" else dual(into)
            )
        else:
            ordered = [(s, p) for s, p in slots[n].items() if isinstance(s, tuple)]
            aux = [p for (s, p) in sorted(ordered, key=lambda kv: kv[0][1])]
            inner = None if node.inner is None else proofnet._contents(node.inner)
            b.cell_on(node.sym, slots[n]["p"], aux, inner)

    free = sorted((nodes[n].key[1], slots[n]["f"]) for n in nodes if nodes[n].sym == "free")
    wires = []
    for w in b.net.wires:
        a, c = comb_root.get(w.a, w.a), comb_root.get(w.b, w.b)
        if fmt_formula(w.ty) <= fmt_formula(dual(w.ty)):
            wires.append(Wire(a, c, w.ty))
        else:
            wires.append(Wire(c, a, dual(w.ty)))
    wires.sort(key=lambda w: (w.a, w.b))
    return Net(b.net.cells, wires, [(p, lbl) for (lbl, p) in free])


def _swap_mutants(n: Net, rng: random.Random, count: int = 3):
    """`count` nets that each swap a random end of one wire of `n` with a
    random end of another, each wire keeping its formula read from its
    first end.  Most are ill-typed, and in some a comb's formula runs
    against the direction the canonical form reads it."""
    wires = list(n.wires)
    for _ in range(count if len(wires) > 1 else 0):
        x, y = rng.sample(range(len(wires)), 2)
        ends = {k: [wires[k].a, wires[k].b] for k in (x, y)}
        i, j = rng.randrange(2), rng.randrange(2)
        ends[x][i], ends[y][j] = ends[y][j], ends[x][i]
        out = list(wires)
        for k, (a, b) in ends.items():
            out[k] = Wire(a, b, wires[k].ty)
        yield Net(n.cells, out, n.free)


def _dropped_wire(n: Net, rng: random.Random) -> Net:
    """`n` without one random wire."""
    wires = list(n.wires)
    if wires:
        del wires[rng.randrange(len(wires))]
    return Net(n.cells, wires, n.free)


def _arity_changed(n: Net, rng: random.Random) -> Net:
    """`n` with one random cell given one aux port fewer, or one more: a
    random port number up to the net's highest, which may be a port of
    that cell or of another."""
    cells = list(n.cells)
    k = rng.randrange(len(cells))
    c = cells[k]
    if c.aux and rng.random() < 0.5:
        aux = c.aux[:-1]
    else:
        aux = c.aux + [rng.randint(1, n.max_port())]
    cells[k] = Cell(c.id, c.sym, c.principal, aux, c.inner)
    return Net(cells, n.wires, n.free)


def test_normal_form_and_certificates_of_mutated_nets():
    """Wire-swap, dropped-wire and arity-change mutants of `gen_typed_net`
    and `gen_cut_net` nets at seeds 0-399: `normalize` (budget 300),
    `canonicalize` and `certificate` each return or raise a RoutenetError.
    Before the rules checked that the two cells of a redex give no port
    twice, `normalize` raised a KeyError on 15 arity-change mutants, where
    the rule re-ended a wire it had already moved or removed."""
    ops = (lambda m: normalize(m, budget=300), canonicalize, certificate)
    calls, twice, raised = 0, 0, Counter()
    for seed in range(400):
        for make in (gen_typed_net, gen_cut_net):
            n = make(random.Random(seed))
            rng = random.Random(seed)
            mutants = [*_swap_mutants(n, rng), _dropped_wire(n, rng), _arity_changed(n, rng)]
            for m in mutants:
                for op in ops:
                    calls += 1
                    try:
                        op(m)
                    except RoutenetError as exc:
                        raised[type(exc).__name__] += 1
                        twice += "give one port twice" in str(exc)
    # 11,523 calls, 5,975 of them raise; the check of the redex's ports
    # refuses 16 arity-change mutants
    assert calls > 11000 and sum(raised.values()) > 5500, raised
    assert twice >= 15


def _rebuilt(rebuild, nodes, edges, pos):
    try:
        return serialize(rebuild(nodes, edges, pos))
    except RoutenetError as exc:
        return type(exc)


def test_one_pass_rebuild_equals_the_builder_rebuild():
    """On one labelling, `_rebuild` gives the bytes of the Builder-based
    rebuild it replaced, or the same error, on generator nets with and
    without cuts, their one-step reducts, the contents of their boxes (both
    rebuilds take a box's canonical contents from `_contents`, so each
    content is checked as a net of its own) and wire-swap mutants of all of
    these."""
    nets = []
    for seed in range(300):
        rng = random.Random(seed)
        nets += [gen_typed_net(rng), gen_cut_net(rng)]
    nets += [m for n in list(nets) for r in find_redexes(n, ALL) for m in apply_redex(n, r)]
    boxes = [c.inner for n in nets for c in n.cells if c.inner is not None]
    while boxes:
        nets.append(inner := boxes.pop())
        boxes += [c.inner for c in inner.cells if c.inner is not None]
    rng = random.Random(0)
    nets += [m for n in list(nets) for m in _swap_mutants(n, rng)]
    rebuilt = ill_typed = 0
    for net in nets:
        try:
            nodes, flat = proofnet._flatten(net)
            edges = [proofnet._ends(e) for e in flat]
            _, pos = proofnet._canonical_labelling(nodes, edges)
        except RoutenetError:
            continue  # refused before any rebuild
        new = _rebuilt(proofnet._rebuild, nodes, edges, pos)
        assert new == _rebuilt(_builder_rebuild, nodes, edges, pos)
        rebuilt += isinstance(new, bytes)
        ill_typed += isinstance(new, bytes) and validate(net) != []
    # 5,703 nets: 5,245 rebuilt, 2,077 of them ill-typed; in 410 combs the
    # formula runs against the reading direction
    assert len(nets) > 5000 and rebuilt > 4500 and ill_typed > 1500


def test_box_cache_follows_edits_of_the_contents():
    outer = boxed_one()
    inner = outer.cells[0].inner

    def cert_now():
        cert = certificate(outer)  # fills the cache, which the next edit clears
        assert cert == certificate(parse(serialize(outer))[0])
        return cert

    before = cert_now()
    b = Builder(inner)  # add a closed !w-?w pair
    cw, wk = b.cell("Coweakening", 0), b.cell("Weakening", 0)
    b.wire(cw.principal, wk.principal, A)
    paired = cert_now()
    assert paired != before
    # replace a cell: a !w-!w pair is ill-typed but still a port graph
    b.replace_cell(Cell(wk.id, "Coweakening", wk.principal))
    assert cert_now() != paired
    b.replace_cell(wk)
    assert cert_now() == paired
    wk2 = b.cell("Weakening", 0)  # replace the wire: move its end to wk2
    b.reend(wk.principal, wk2.principal)
    b.remove_cell(wk)
    assert cert_now() == paired
    b.remove_wire(b.wire_at(cw.principal))
    b.remove_cell(cw)
    b.remove_cell(wk2)
    assert cert_now() == before
    inner.free = [(inner.free[0][0], "other")]  # reassign the free list
    assert cert_now() != before
    inner.free[0] = (inner.free[0][0], "main")  # or edit it in place
    assert cert_now() == before


def test_netsum_idempotent_and_zero():
    s = NetSum([boxed_one(), boxed_one()])
    assert len(s) == 1
    assert len(NetSum()) == 0
    assert s.union(NetSum()) == s


def test_netsum_union_keeps_the_receivers_summand():
    a, b = NetSum([boxed_one()]), NetSum([boxed_one(), _comb_left(["x", "y"])])
    assert a.summands[0] is not b.summands[0]
    ab, ba = a.union(b), b.union(a)
    assert ab == ba and len(ab) == 2
    assert [id(m) for m in ab] == [id(a.summands[0]), id(b.summands[1])]
    assert [id(m) for m in ba] == [id(m) for m in b]


# ---------------------------------------------------------------------------
# serialization


def test_serialize_round_trip_bit_exact():
    for n in (boxed_one(), _comb_left(["x", "y", "z"])):
        blob = serialize(n)
        again = serialize(parse(blob))
        assert blob == again


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse(b"{}")
    with pytest.raises(ParseError):
        parse(b"not json")
    with pytest.raises(ParseError):
        parse(b'{"sum": [{"free": []}]}')
