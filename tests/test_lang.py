"""Source language: parsing, types and effects, stratification, interpreter."""
from dataclasses import dataclass

import pytest
from hypothesis import given, strategies as st

from routenet import lang
from routenet.errors import BudgetExhausted, NotStratified, ParseError, TypingError
from routenet.gen import PROGRAM_SUITE
from routenet.lang import (
    App,
    Arrow,
    Behavior,
    DownSubst,
    Get,
    Lam,
    LamSubst,
    Par,
    Set,
    Star,
    Store,
    SumL,
    UnitT,
    UpSubst,
    Var,
    VarSubst,
    alpha_normalize,
    check_stratified,
    embed_lthis,
    eff_of_type,
    fmt_term,
    fmt_type,
    free_vars,
    is_value,
    normal_forms,
    parse_region_ctx,
    parse_term,
    parse_type,
    step,
    subst,
    typecheck_amadio,
    typecheck_lthis,
    value_trees,
    values,
)
from routenet.translate import compile_program

# ---------------------------------------------------------------------------
# term syntax


def test_application_left_associative():
    assert parse_term("f x y") == App(App(Var("f"), Var("x")), Var("y"))


def test_lambda_extends_right():
    assert parse_term(r"\x. f x") == Lam("x", App(Var("f"), Var("x")))
    assert parse_term(r"\x. x || y") == Lam("x", Par(Var("x"), Var("y")))


def test_par_binds_loosest():
    assert parse_term("f x || g y") == Par(
        App(Var("f"), Var("x")), App(Var("g"), Var("y"))
    )


def test_store_binding_takes_value_atoms():
    assert parse_term("r <= *") == Store("r", Star())
    assert parse_term(r"r <= (\x. x)") == Store("r", Lam("x", Var("x")))
    with pytest.raises(ParseError):
        parse_term("r <= (f x)")
    with pytest.raises(ParseError):
        parse_term("f x <= *")


def test_get_set_forms():
    assert parse_term("get r") == Get("r")
    assert parse_term("set r *") == Set("r", Star())
    assert parse_term("get s x") == App(Get("s"), Var("x"))
    with pytest.raises(ParseError):
        parse_term("set r (f x)")


def test_parse_errors():
    for bad in ["", "(", "x )", r"\. x", "||", r"\x x"]:
        with pytest.raises(ParseError):
            parse_term(bad)


@pytest.mark.parametrize(
    "parse, text, offset, reason",
    [
        (parse_term, "", 0, "unexpected end of input"),
        (parse_term, "(", 1, "unexpected end of input"),
        (parse_term, "(x", 2, "expected ')', found end of input"),
        (parse_term, r"\x  ", 4, "expected '.', found end of input"),
        (parse_term, "* #", 2, "bad character '#'"),
        (parse_term, "x\t\n@", 3, "bad character '@'"),
        (parse_type, "", 0, "unexpected end of input in type"),
        (parse_type, "(Unit", 5, "expected ')', found end of input"),
        (parse_type, "Unit ->", 7, "unexpected end of input in type"),
        (parse_type, "Unit  %", 6, "bad character '%' in type"),
        # a context file's errors name the line and the offset in the file
        (parse_region_ctx, "r : Unit\ns : (Unit", 18, "line 2: expected ')', found end of input"),
        (parse_region_ctx, "# r : (\nr : Unit ->", 19, "line 2: unexpected end of input in type"),
        (parse_region_ctx, "r : Unit\r\ns : Unit %\n", 19, "line 2: bad character '%' in type"),
        (parse_region_ctx, "r : Unit\n  bad line # c\n", 11, "line 2: expected 'r : type'"),
        (parse_region_ctx, "r : Unit\n# again\n r  : Unit\n", 18, "line 3: reference 'r' declared twice"),
    ],
)
def test_parse_errors_name_the_end_of_input_and_the_bad_character(parse, text, offset, reason):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.offset, exc.value.reason) == (offset, reason)


# terms via a hypothesis grammar: fmt_term must parse back to the same tree
_names = st.sampled_from(["x", "y", "z", "f"])
_values_st = st.deferred(
    lambda: st.one_of(
        st.just(Star()),
        _names.map(Var),
        st.tuples(_names, _terms).map(lambda p: Lam(*p)),
    )
)
_terms = st.recursive(
    st.one_of(st.just(Star()), _names.map(Var), st.sampled_from(["r", "s"]).map(Get)),
    lambda inner: st.one_of(
        st.tuples(_names, inner).map(lambda p: Lam(*p)),
        st.tuples(inner, inner).map(lambda p: App(*p)),
        st.tuples(inner, inner).map(lambda p: Par(*p)),
        st.tuples(st.sampled_from(["r", "s"]), _values_st).map(lambda p: Set(*p)),
        st.tuples(st.sampled_from(["r", "s"]), _values_st).map(lambda p: Store(*p)),
    ),
    max_leaves=12,
)


@given(_terms)
def test_fmt_term_round_trip(t):
    assert parse_term(fmt_term(t)) == t


# ---------------------------------------------------------------------------
# types and stratification


def test_type_syntax():
    assert parse_type("Unit -> Unit") == Arrow(UnitT(), frozenset(), UnitT())
    assert parse_type("Unit -{r,s}> Unit") == Arrow(
        UnitT(), frozenset({"r", "s"}), UnitT()
    )
    arr = parse_type("Unit -> Unit -> Unit")
    assert arr == Arrow(UnitT(), frozenset(), Arrow(UnitT(), frozenset(), UnitT()))
    assert parse_type(fmt_type(arr)) == arr


def test_eff_of_type_collects_latent_effects():
    t = parse_type("(Unit -{r}> Unit) -{s}> Unit")
    assert eff_of_type(t) == {"r", "s"}


def test_region_ctx_parsing_and_comments():
    R = parse_region_ctx("# store of unit\nr : Unit\ns : Unit -{r}> Unit\n")
    assert set(R) == {"r", "s"}
    ok, order = check_stratified(R)
    assert ok and order.index("r") < order.index("s")


def test_region_ctx_refuses_a_reference_declared_twice():
    with pytest.raises(ParseError, match=r"line 3: reference 'r' declared twice"):
        parse_region_ctx("r : Unit\n# again\n r  : Unit -> Unit\n")


def test_stratification_rejects_cycles():
    bad = parse_region_ctx("r : Unit -{r}> Unit")
    assert check_stratified(bad)[0] is False
    mutual = parse_region_ctx("r : Unit -{s}> Unit\ns : Unit -{r}> Unit")
    assert check_stratified(mutual)[0] is False


# ---------------------------------------------------------------------------
# typing


def _tc(ctx: str, src: str):
    return typecheck_amadio(parse_region_ctx(ctx), {}, parse_term(src))


def test_typing_basics():
    ty, eff = _tc("", "*")
    assert ty == UnitT() and eff == frozenset()
    ty, eff = _tc("", r"(\x. x) *")
    assert ty == UnitT() and eff == frozenset()


def test_typing_effects():
    _, eff = _tc("r : Unit", "set r *")
    assert eff == {"r"}
    _, eff = _tc("r : Unit", "get r")
    assert eff == {"r"}
    # latent effect released at application, inferred through the function var
    _, eff = _tc("r : Unit", r"(\f. f *) (\u. set r u)")
    assert eff == {"r"}
    # storing an effectful function records the effect in the arrow, not here
    ty, eff = _tc("f : Unit -{r}> Unit\nr : Unit", r"set f (\u. get r)")
    assert eff == {"f"}


def test_typing_behavior_for_threads():
    ty, eff = _tc("r : Unit", "set r * || get r")
    assert ty == Behavior() and eff == {"r"}


def test_typing_errors():
    with pytest.raises(TypingError):
        _tc("", "x")  # unbound variable
    with pytest.raises(TypingError):
        _tc("", "set r *")  # unknown reference
    with pytest.raises(TypingError):
        _tc("r : Unit", r"set r (\x. x)")  # value type mismatch
    with pytest.raises(TypingError):
        _tc("", r"(* *)")  # unit applied


def test_embedding_is_well_typed():
    for ctx, src in [("r : Unit", r"set r * || get r")] + [p[1:] for p in PROGRAM_SUITE]:
        R = parse_region_ctx(ctx)
        p = parse_term(src)
        ty_a, eff_a = typecheck_amadio(R, {}, p)
        lt = embed_lthis(p, R)
        ty_l, eff_l = typecheck_lthis(R, {}, lt)
        assert eff_a <= eff_l  # embedding may widen by the store domain


def test_each_language_rejects_the_others_nodes():
    R = parse_region_ctx("r : Unit")
    for node in (App(Lam("x", Var("x")), Star()), Set("r", Star()), Store("r", Star())):
        for t in (node, SumL((node,)), UpSubst((("r", (Star(),)),), node)):
            with pytest.raises(TypingError) as exc:
                typecheck_lthis(R, {}, t)
            assert exc.value.rule == "?"
    for node in (
        VarSubst((("x", Star()),), Star()),
        LamSubst((), Star(), Star()),
        DownSubst((("r", (Star(),)),), Star()),
        UpSubst((("r", (Star(),)),), Star()),
        SumL((Star(),)),
    ):
        for t in (node, Par(Star(), node), App(Lam("x", Var("x")), node)):
            with pytest.raises(TypingError) as exc:
                typecheck_amadio(R, {}, t)
            assert exc.value.rule == "?"


def test_a_checker_copies_its_term_only_if_a_node_is_shared():
    R = parse_region_ctx("r : Unit")
    p = parse_term("get r || get r || r <= *")
    _, inf = typecheck_amadio(R, {}, p, want_infer=True)
    assert inf.term is p  # parser output shares no node
    ir = embed_lthis(p, R)
    # both gets receive the one embedded store value
    assert ir.left.vals[0][1][0] is ir.right.vals[0][1][0]
    _, inf = typecheck_lthis(R, {}, ir, want_infer=True)
    assert inf.term is not ir and inf.term == ir
    assert inf.term.left.vals[0][1][0] is not inf.term.right.vals[0][1][0]


# ---------------------------------------------------------------------------
# effect bookkeeping against eagerly copied effect sets
#
# The oracle is the bookkeeping that `Infer` replaced: every union copied its
# operands' sets, and each effect was evaluated whenever it was asked for.
# It runs the same walker, so the type and effect variables are numbered
# alike and the lower bounds can be compared variable by variable.


@dataclass(frozen=True)
class _EagerEff:
    consts: frozenset = frozenset()
    evars: frozenset = frozenset()

    def union(self, other):
        return _EagerEff(self.consts | other.consts, self.evars | other.evars)


class _EagerInfer(lang.Infer):
    def fresh_e(self):
        v = next(self.counter)
        self.evar_lb[v] = frozenset()
        return _EagerEff(frozenset(), frozenset({v}))

    def union(self, a, b):
        return _EagerEff(a.consts, a.evars).union(b)

    @staticmethod
    def _as_eff(e):
        return e if isinstance(e, (_EagerEff, lang._Eff)) else _EagerEff(frozenset(e))

    def _eval_eff(self, e):
        out = e.consts
        for v in e.evars:
            out = out | self.evar_lb[self._eroot(v)]
        return out

    def solve(self):
        for a, b in self.eqs:
            if not a.consts and len(a.evars) == 1 and not b.consts and len(b.evars) == 1:
                ra, rb = self._eroot(next(iter(a.evars))), self._eroot(next(iter(b.evars)))
                if ra != rb:
                    self.evar_alias[ra] = rb
                    self.evar_lb[rb] |= self.evar_lb.pop(ra)
        changed = True
        while changed:
            changed = False
            for a, b in self.eqs:
                for side, other in ((a, b), (b, a)):
                    missing = self._eval_eff(other) - self._eval_eff(side)
                    if missing and side.evars:
                        self.evar_lb[self._eroot(next(iter(side.evars)))] |= missing
                        changed = True
        for a, b in self.eqs:
            if self._eval_eff(a) != self._eval_eff(b):
                raise TypingError("sub", "effect mismatch")

    def final_type(self, t):
        t = self.resolve(t)
        if isinstance(t, lang._TMeta):
            return UnitT()
        if isinstance(t, Arrow):
            return Arrow(
                self.final_type(t.dom),
                self._eval_eff(self._as_eff(t.effect)),
                self.final_type(t.cod),
            )
        if isinstance(t, lang.Reg):
            return lang.Reg(t.ref, self.final_type(t.ty))
        return t

    def effect_of(self, node):
        return self._eval_eff(self.annot[id(node)][1])


def _nodes(t):
    todo, out = [t], []
    while todo:
        s = todo.pop()
        if isinstance(s, tuple):
            todo += s
        elif isinstance(s, lang.TermA):
            out.append(s)
            todo += vars(s).values()
    return out


def _agrees_with_eager_sets(check, R, t, foreign):
    """Assert that `check` types every node of t as the oracle does; returns
    whether some effect variable received a missing effect."""
    result, inf = check(R, {}, t, want_infer=True)
    assert check(R, {}, t) == result
    eager = _EagerInfer(R)
    ty, e = lang._infer(eager, {}, inf.term, foreign)
    eager.solve()
    assert result == (eager.final_type(ty), eager._eval_eff(e))
    assert (inf.evar_lb, inf.evar_alias) == (eager.evar_lb, eager.evar_alias)
    assert inf.annot.keys() == eager.annot.keys()
    for node in _nodes(inf.term):
        assert inf.effect_of(node) == eager.effect_of(node)
        assert inf.type_of(node) == eager.type_of(node)
    return any(inf.evar_lb.values())


def _chain(depth: int) -> str:
    src = "*"
    for k in range(depth):
        src = rf"(\v{k}. v{k}) ({src})"
    return src


# The missing {r} goes to one of the two latent effects of f, the first that
# the side's variable set yields; the other choice types f as
# Unit -{}> (Unit -{r}> Unit).
_SPLIT_LATENT = ("split-latent", "s : Unit -{r}> Unit\nr : Unit", r"\f. set s (\u. f u *)")

_EFFECT_CASES = (
    [(name, ctx, src) for name, ctx, src in PROGRAM_SUITE]
    + [_SPLIT_LATENT]
    + [(f"readers-{k}", "r : Unit", " || ".join(["set r *"] + ["get r"] * k)) for k in range(1, 7)]
    + [(f"chain-{d}", "", _chain(d)) for d in (40, 80, 120, 160, 200)]
)


@pytest.mark.parametrize("name, ctx, src", _EFFECT_CASES, ids=[c[0] for c in _EFFECT_CASES])
def test_shared_effects_agree_with_eager_sets(name, ctx, src):
    R, p = parse_region_ctx(ctx), parse_term(src)
    _agrees_with_eager_sets(typecheck_amadio, R, p, lang._IR_ONLY)
    _agrees_with_eager_sets(typecheck_lthis, R, embed_lthis(p, R), lang._SOURCE_ONLY)


def test_the_suite_programs_that_assign_missing_effects():
    assigned = {
        name
        for name, ctx, src in PROGRAM_SUITE
        if _agrees_with_eager_sets(
            typecheck_amadio, parse_region_ctx(ctx), parse_term(src), lang._IR_ONLY
        )
    }
    assert assigned == {
        "latent-set", "latent-get", "captured-set", "stored-effectful-fn", "ho-latent"
    }
    _, ctx, src = _SPLIT_LATENT
    ty, _ = typecheck_amadio(parse_region_ctx(ctx), {}, parse_term(src))
    assert fmt_type(ty) == "((Unit -{r}> (Unit -{}> Unit)) -{s}> Unit)"


def test_effect_variable_lookups_grow_linearly_with_chain_depth(monkeypatch):
    calls = [0]
    eroot = lang.Infer._eroot

    def counted(self, v):
        calls[0] += 1
        return eroot(self, v)

    monkeypatch.setattr(lang.Infer, "_eroot", counted)
    counts = []
    for depth in (50, 100, 200):
        calls[0] = 0
        compile_program(parse_term(_chain(depth)), {})
        counts.append(calls[0])
    # eagerly copied effect sets made these ratios 3.2 and 3.5
    assert counts[1] <= 2.2 * counts[0] and counts[2] <= 2.2 * counts[1]


# ---------------------------------------------------------------------------
# substitution, alpha


def test_subst_capture_avoiding():
    t = parse_term(r"\y. x y")
    out = subst(t, "x", parse_term(r"\z. y"))
    # the binder y is renamed so the free y of the substitute stays free
    assert isinstance(out, Lam) and out.var != "y"
    assert "y" in free_vars(out)


def test_alpha():
    assert alpha_normalize(parse_term(r"\x. x")) == alpha_normalize(parse_term(r"\y. y"))
    assert alpha_normalize(parse_term(r"\x. x")) != alpha_normalize(parse_term(r"\x. *"))
    a = alpha_normalize(parse_term(r"\x. \y. x y"))
    assert a == alpha_normalize(parse_term(r"\u. \v. u v"))


# ---------------------------------------------------------------------------
# operational semantics


def test_beta_value_only():
    p = parse_term(r"(\x. x) ((\y. y) *)")
    # two redex orders allowed by E ::= [.] | E M | M E, same final value
    assert values(p) == {("Star()",)}


def test_set_get_interleavings():
    p = parse_term("set r * || get r")
    assert values(p) == {("Star()", "Star()")}


def test_get_blocks_on_empty_store():
    p = parse_term("get r")
    assert values(p) == set()  # no all-value normal form
    assert step(p) == set()


def test_store_bindings_persist():
    # two readers can both observe the single write
    p = parse_term("set r * || get r || get r")
    assert values(p) == {("Star()", "Star()", "Star()")}


def test_bound_names_do_not_capture_free_variables():
    # the binders are renamed past v1, which is free in a stored value
    p = parse_term(r"(\a. a) || get r || r <= (\b. v1) || r <= (\b. b)")
    assert len(values(p)) == 2


def test_race_two_outcomes():
    p = parse_term(r"get r || r <= (\z. z) || r <= (\w. \u. u) ")
    outs = values(p)
    assert len(outs) == 2


def test_proj_two_outcomes():
    p = parse_term(
        r"get s (\z. z) (\z. (\w. w) z) || s <= (\x. \y. x) || s <= (\x. \y. y)"
    )
    outs = values(p)
    assert len(outs) == 2
    trees = value_trees(p)
    assert len(trees) == 2
    for tree in trees:
        assert is_value(tree)
        assert isinstance(tree, Lam)


def test_budget_exhaustion():
    # a growing self-application loop: untypeable but executable by the
    # untyped interpreter, and never repeats a state
    p = parse_term(r"(\x. x x x) (\x. x x x)")
    with pytest.raises(BudgetExhausted):
        normal_forms(p, budget=50)
    # the plain fixed loop has one state and no normal form: empty, no raise
    assert values(parse_term(r"(\x. x x) (\x. x x)"), budget=50) == set()


def test_latent_effect_through_application():
    p = parse_term(r"(\u. set r u) * || get r")
    assert values(p) == {("Star()", "Star()")}
