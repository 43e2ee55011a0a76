"""Net model: formulas, validation, canonical form, serialization."""
import random

import pytest
from hypothesis import given, strategies as st

from routenet.errors import CyclicNet, ParseError
from routenet.proofnet import (
    BOT,
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


def test_netsum_idempotent_and_zero():
    s = NetSum([boxed_one(), boxed_one()])
    assert len(s) == 1
    assert NetSum().is_zero()
    assert s.union(NetSum()) == s


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
