"""Multirelation algebra: frozen oracles plus algebraic property tests."""
import pytest
from hypothesis import given, strategies as st

from routenet.errors import CycleRisk, DomainMismatch, ParseError, UnknownLabel
from routenet.multirel import (
    MAX_TEXT_MULTIPLICITY,
    LabelSet,
    Multirelation,
    comm_relation,
    compose,
    coproduct,
    from_rows,
    from_text,
    identity,
    profile,
    rows_of,
    support,
    to_text,
    trace_formula,
    zero,
)


# ---------------------------------------------------------------------------
# frozen oracles


def test_compose_matrix_product():
    # [[0,3],[5,0]] . [[1],[2]] computed by hand: [0*1+3*2, 5*1+0*2] = [6, 5]
    r = from_rows(["a", "b"], ["x", "y"], [[0, 3], [5, 0]])
    s = from_rows(["x", "y"], ["z"], [[1], [2]])
    got = compose(r, s)
    assert rows_of(got) == [[6], [5]]
    # and the 1x2 . 2x1 full contraction: [[0,3],[5,0]] squashed to [[15]]
    u = from_rows(["i"], ["x", "y"], [[3, 5]])
    v = from_rows(["x", "y"], ["o"], [[5], [0]])
    assert rows_of(compose(u, v)) == [[15]]


def test_trace_formula_hand_computed():
    # R = [[0,1,2],[1,0,1],[2,1,0]] traced at (1,1) (a zero entry):
    # T(x,y) = R(x,y) + R(x,1)R(1,y) on the remaining labels
    r = comm_relation(3).relabel({}, {})
    r = from_rows(["1", "2", "3"], ["1", "2", "3"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    t = trace_formula(r, "1", "1")
    assert rows_of(t) == [[0 + 1 * 1, 1 + 1 * 2], [1 + 2 * 1, 0 + 2 * 2]]


def test_trace_comm3_oracle():
    # tracing the 3-communication relation at (1,1) leaves [[1,2],[2,1]]
    t = trace_formula(comm_relation(3), "1", "1")
    assert rows_of(t) == [[1, 2], [2, 1]]


def test_trace_rejects_nonzero_entry():
    with pytest.raises(CycleRisk):
        trace_formula(comm_relation(3), "1", "2")


def test_comm_relation_shape():
    r = comm_relation(4)
    assert rows_of(r) == [
        [0, 1, 1, 1],
        [1, 0, 1, 1],
        [1, 1, 0, 1],
        [1, 1, 1, 0],
    ]


def test_profile_arities():
    r = from_rows(["a", "b"], ["x", "y"], [[2, 0], [1, 3]])
    ar_in, ar_out, conn_in, conn_out = profile(r)
    assert ar_in == {"a": 2, "b": 4}
    assert ar_out == {"x": 3, "y": 3}
    assert conn_in == {"a": {"x"}, "b": {"x", "y"}}
    assert conn_out == {"x": {"a", "b"}, "y": {"b"}}


def test_label_set_rejects_duplicates():
    with pytest.raises(ValueError):
        LabelSet(("a", "a"))


def test_unknown_label_and_mismatch():
    r = from_rows(["a"], ["x"], [[1]])
    with pytest.raises(UnknownLabel):
        r("b", "x")
    with pytest.raises(DomainMismatch):
        compose(r, r)


def test_text_format_round_trip_and_errors():
    r = from_rows(["a", "b"], ["x", "y"], [[2, 0], [1, 3]])
    assert from_text(to_text(r)) == r
    assert to_text(r) == "in: a b\nout: x y\n2 0\n1 3\n"
    with pytest.raises(ParseError):
        from_text("nonsense")
    with pytest.raises(ParseError):
        from_text("in: a\nout: x\n1\n2\n")


def test_text_format_row_errors_name_their_line():
    # line numbers count blank lines; the offset is the line's first character
    text = "in: a b\nout: x y\n\n1 2\n3\n"
    with pytest.raises(ParseError, match="line 5: expected 2 entries, got 1") as e:
        from_text(text)
    assert e.value.offset == text.index("3\n")
    with pytest.raises(ParseError, match="line 3: bad matrix row '1 q'") as e:
        from_text("in: a\nout: x y\n1 q\n")
    assert e.value.offset == 15
    with pytest.raises(ParseError, match="line 4: negative entry -2") as e:
        from_text("in: a b\nout: x\n1\n-2\n")
    assert e.value.offset == 17
    with pytest.raises(ParseError, match="expected 1 rows, got 2") as e:
        from_text("in: a\nout: x\n1\n2\n")
    assert e.value.offset == 0


def test_text_format_bounds_the_total_multiplicity():
    at = f"in: a b\nout: x\n{MAX_TEXT_MULTIPLICITY - 1}\n1\n"
    assert sum(from_text(at).entries.values()) == MAX_TEXT_MULTIPLICITY
    with pytest.raises(ParseError, match="total multiplicity"):
        from_text(f"in: a b\nout: x\n{MAX_TEXT_MULTIPLICITY}\n1\n")


# ---------------------------------------------------------------------------
# property tests


def _rels(max_n=3, max_v=4):
    @st.composite
    def rel(draw, dom=None, cod=None):
        ni = len(dom) if dom else draw(st.integers(1, max_n))
        no = len(cod) if cod else draw(st.integers(1, max_n))
        dom = dom or [f"i{k}" for k in range(ni)]
        cod = cod or [f"o{k}" for k in range(no)]
        rows = draw(
            st.lists(
                st.lists(st.integers(0, max_v), min_size=no, max_size=no),
                min_size=ni,
                max_size=ni,
            )
        )
        return from_rows(dom, cod, rows)

    return rel


_rel = _rels()


@given(st.data())
def test_compose_associative(data):
    a = data.draw(_rel())
    b = data.draw(_rel(dom=list(a.codomain)))
    c = data.draw(_rel(dom=list(b.codomain)))
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@given(_rel())
def test_identity_neutral(r):
    assert compose(identity(r.domain), r) == r
    assert compose(r, identity(r.codomain)) == r


@given(_rel())
def test_zero_annihilates(r):
    z = zero(r.codomain, LabelSet(("z",)))
    assert compose(r, z) == zero(r.domain, LabelSet(("z",)))


@given(_rel())
def test_support_idempotent_and_bounded(r):
    s = support(r)
    assert support(s) == s
    assert all(v == 1 for v in s.entries.values())
    assert set(s.entries) == set(r.entries)


@given(st.data())
def test_trace_commutes_with_relabelling(data):
    r = data.draw(_rels(max_n=3)())
    zeros = [(i, o) for i in r.domain for o in r.codomain if r(i, o) == 0]
    if not zeros:
        return
    i, o = zeros[0]
    dom_map = {x: "d_" + x for x in r.domain}
    cod_map = {y: "c_" + y for y in r.codomain}
    lhs = trace_formula(r, i, o).relabel(dom_map, cod_map)
    rhs = trace_formula(r.relabel(dom_map, cod_map), dom_map[i], cod_map[o])
    assert lhs == rhs


@given(st.data())
def test_coproduct_blocks(data):
    a = data.draw(_rel())
    b = data.draw(_rel())
    c = coproduct(a, b)
    for (x, y), v in a.entries.items():
        assert c("L." + x, "L." + y) == v
    for (x, y), v in b.entries.items():
        assert c("R." + x, "R." + y) == v
    assert sum(c.entries.values()) == sum(a.entries.values()) + sum(b.entries.values())


@given(_rel())
def test_text_round_trip(r):
    assert from_text(to_text(r)) == r
