"""Compilation of programs to nets: type translation, interfaces, values."""
import random

import pytest

from routenet.errors import DerivationMismatch, InterfaceMismatch, RoutenetError
from routenet.gen import PROGRAM_SUITE, gen_routing_net, gen_typed_net, suite_program
from routenet.lang import (
    Behavior,
    DownSubst,
    Get,
    Lam,
    LamSubst,
    Star,
    SumL,
    UpSubst,
    Var,
    VarSubst,
    parse_region_ctx,
    parse_term,
    parse_type,
    step,
    typecheck_lthis,
)
from routenet.proofnet import (
    Cell,
    dual,
    Net,
    ONE,
    Wire,
    bang,
    canonical_equal,
    canonicalize,
    certificate,
    fmt_formula,
    serialize,
    validate,
    whynot,
)
from routenet.rewrite import normal_certs, normalize
from routenet.translate import (
    _Translator,
    close,
    compile_program,
    is_value_net,
    ref_wire_type,
    translate,
    translate_type,
    value_certs,
)
from routenet.lang import embed_lthis


def _outward(net: Net, label: str):
    """The formula `net` carries out through its free port `label`."""
    return net.outward({l: p for p, l in net.free}[label])


def _compile(ctx: str, src: str) -> Net:
    return compile_program(parse_term(src), parse_region_ctx(ctx))


# ---------------------------------------------------------------------------
# type translation


def test_translate_type_unit():
    R = parse_region_ctx("")
    assert fmt_formula(translate_type(parse_type("Unit"), R)) == "!1"


def test_translate_type_pure_arrow():
    R = parse_region_ctx("")
    got = translate_type(parse_type("Unit -> Unit"), R)
    assert fmt_formula(got) == "!(?bot%!1)"


def test_translate_type_effectful_arrow_threads_ref_wires():
    R = parse_region_ctx("r : Unit")
    w = ref_wire_type("r", R)
    assert fmt_formula(w) == "!!1"  # one exponential around the stored Unit
    got = translate_type(parse_type("Unit -{r}> Unit"), R)
    # argument and ref wire enter (dualized), ref wire and result leave
    assert fmt_formula(got) == "!((?bot%??bot)%(!!1*!1))"
    # currying nests on the right
    curried = translate_type(parse_type("Unit -> Unit -> Unit"), R)
    assert fmt_formula(curried) == "!(?bot%!(?bot%!1))"


def test_translate_type_rejects_behavior():
    R = parse_region_ctx("")
    with pytest.raises(RoutenetError):
        translate_type(Behavior(), R)


# ---------------------------------------------------------------------------
# compilation


def boxed_one() -> Net:
    inner = Net([Cell(1, "One", 1)], [Wire(1, 2, ONE)], [(2, "main")])
    return Net([Cell(1, "Box", 1, [], inner)], [Wire(1, 2, bang(ONE))], [(2, "out")])


def test_compile_star_is_boxed_one():
    assert canonical_equal(_compile("", "*"), boxed_one())


def test_compile_validates():
    for ctx, src in [
        ("", r"(\x. x) *"),
        ("r : Unit", "set r * || get r"),
        ("r : Unit", r"(\u. set r u) * || get r"),
    ]:
        assert validate(_compile(ctx, src)) == []


def test_identity_application_normalizes_to_star():
    n = normalize(_compile("", r"(\x. x) *"))
    m = normalize(_compile("", "*"))
    assert n == m
    assert len(n) == 1


def test_interface_labels_of_open_translation():
    R = parse_region_ctx("r : Unit")
    p = parse_term("set r * || get r")
    net = translate(embed_lthis(p, R), R)
    labels = sorted(l for _, l in net.free)
    assert labels == ["out", "ri:r", "ro:r"]
    # the reference wires carry the stored type under one exponential:
    # ro emits the boxed value, ri consumes it
    w = ref_wire_type("r", R)
    assert _outward(net, "ro:r") == w
    assert _outward(net, "ri:r") == dual(w)
    # a two-thread program's output pairs the branch outputs structurally
    assert fmt_formula(_outward(net, "out")) == "(!1%!1)"


def test_closed_program_interface_is_out_only():
    net = _compile("r : Unit", "set r * || get r")
    assert [l for _, l in net.free] == ["out"]


def test_value_recognition():
    R = parse_region_ctx("r : Unit")
    p = parse_term("set r * || get r")
    certs = value_certs(p, R)
    assert len(certs) == 1
    nf = normalize(compile_program(p, R))
    matched = [s for s in nf.summands if is_value_net(s, certs)]
    assert len(matched) == 1
    # the pure unit program's net is NOT a value of the two-thread program
    assert not is_value_net(normalize(_compile("", "*")).summands[0], certs)


def test_certificate_needs_no_canonicalize_first():
    # is_value_net certifies a summand as it is
    nets = []
    for name, _, _ in PROGRAM_SUITE:
        R, p = suite_program(name)
        nets += normalize(compile_program(p, R), budget=200000).summands
    for seed in range(10):
        rng = random.Random(seed)
        nets += [gen_typed_net(rng), gen_routing_net(rng)]
    for n in nets:
        assert certificate(canonicalize(n)) == certificate(n)


def test_starved_get_compiles_to_zero():
    # a lone get can never fire: its net normalizes to the empty sum
    nf = normalize(_compile("r : Unit", "get r"))
    assert len(nf) == 0


def test_race_summands_cover_both_values():
    ctx = "r : Unit -> Unit"
    src = r"get r || r <= (\z. z) || r <= (\z. (\w. w) z)"
    R = parse_region_ctx(ctx)
    p = parse_term(src)
    nf = normalize(compile_program(p, R), budget=100000)
    certs = value_certs(p, R)
    matched = {c for c in certs for s in nf.summands if is_value_net(s, {c})}
    assert matched == certs  # every source outcome appears among the summands


def test_upward_substitution_of_no_values_exposes_an_empty_stream():
    # the body writes nothing and no value is stored: ro:r is a coweakening
    R = parse_region_ctx("r : Unit")
    net = translate(UpSubst((("r", ()),), Star()), R)
    assert validate(net) == []
    assert [l for _, l in net.free] == ["out", "ri:r", "ro:r"]
    assert _outward(net, "ro:r") == ref_wire_type("r", R)
    assert sorted(c.sym for c in net.cells) == ["Box", "Coweakening", "Weakening"]


def test_close_refuses_an_effect_other_than_the_interface():
    R = parse_region_ctx("r : Unit\ns : Unit")
    net = translate(embed_lthis(parse_term("set r * || get r"), R), R)
    for effect in ({"s"}, set(), {"r", "s"}):
        with pytest.raises(InterfaceMismatch):
            close(net, effect)
    assert [l for _, l in close(net, {"r"}).free] == ["out"]


def test_only_singleton_sums_translate():
    R = parse_region_ctx("")
    assert canonical_equal(translate(SumL((Star(),)), R), translate(Star(), R))
    with pytest.raises(DerivationMismatch, match="only singleton sums"):
        translate(SumL((Star(), Star())), R)


def test_stored_value_of_another_type_than_its_reference_is_refused():
    # typed where r holds Unit, translated where r holds functions: the
    # stored * no longer fits its reference at any injection site
    typed_in = parse_region_ctx("r : Unit")
    R = parse_region_ctx("r : Unit -> Unit")
    vals = (("r", (Star(),)),)
    for term in (
        DownSubst(vals, Get("r")),
        UpSubst(vals, Star()),
        LamSubst(vals, Lam("y", Get("r")), Star()),
    ):
        _, inf = typecheck_lthis(typed_in, {}, term, want_infer=True)
        with pytest.raises(DerivationMismatch, match="does not match its reference"):
            _Translator(R, inf).tr(inf.term)


def test_one_value_object_stored_at_references_of_two_types_compiles():
    # the same lambda fits s as Unit -> Unit and t as an instance of its
    # polymorphic type; each position keeps its own type
    R = parse_region_ctx("s : Unit -> Unit\nt : (Unit -> Unit) -> Unit -> Unit")
    v = Lam("x", Var("x"))
    shared = DownSubst((("s", (v,)), ("t", (v,))), Get("s"))
    distinct = DownSubst((("s", (v,)), ("t", (Lam("x", Var("x")),))), Get("s"))
    assert serialize(translate(shared, R)) == serialize(translate(distinct, R))


def test_variable_substitution_translates_as_the_substituted_term():
    """A VarSubst of x := * has the normal forms of its body with * put for
    x: a used variable, an unused one, one a λ captures, and one a λ is
    applied to."""
    R = parse_region_ctx("")
    x, ident = Var("x"), Lam("y", Var("y"))
    for body, substituted in (
        (x, Star()),
        (Star(), Star()),
        (Lam("y", x), Lam("y", Star())),
        (LamSubst((), ident, x), LamSubst((), ident, Star())),
    ):
        got = translate(VarSubst((("x", Star()),), body), R)
        assert normal_certs(got) == normal_certs(translate(substituted, R)), body


def _cells(net: Net):
    """The cells of `net` and of its boxes, at every depth."""
    for c in net.cells:
        yield c
        if c.inner is not None:
            yield from _cells(c.inner)


@pytest.mark.parametrize(
    "ctx, src",
    [
        ("", r"(\x. (\y. x) x) *"),
        ("", r"(\f. f (f *)) (\u. u)"),
        ("r : Unit", r"(\x. (\y. set r x) x) * || get r"),
    ],
)
def test_a_variable_used_twice_compiles_through_a_contraction(ctx, src):
    """Programs whose translation joins two uses of one variable in a
    contraction compile to valid nets whose normal forms hold the values,
    and every step of the program keeps to those normal forms."""
    R, P = parse_region_ctx(ctx), parse_term(src)
    net = compile_program(P, R)
    assert validate(net) == []
    assert any(c.sym == "Contraction" for c in _cells(net))
    certs = normal_certs(net)
    assert value_certs(P, R) <= certs
    for reduct in step(P):
        assert normal_certs(compile_program(reduct, R)) <= certs, reduct
