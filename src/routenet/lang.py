"""A concurrent call-by-value λ-calculus with global references, and its
explicit-substitution intermediate form.

Surface terms: variables, ∗, λ-abstraction, application, `get r`, `set r V`,
parallel composition and store bindings `r <= V`.  The IR is one term family
with the source: it keeps the nodes `Var`, `Star`, `Lam` (with an IR body),
`Get` and `Par`.  Embedding turns each application into a `LamSubst`, wraps
each get in a `DownSubst` and each set in an `UpSubst`; these carry
reference-substitution multisets, the store bindings' values.  The IR adds
variable substitutions and formal sums.  One inference walker types both
languages.

The type-and-effect system assigns every term a type and the set of
references it may touch; reference contexts must be stratified (no reference
reachable from its own stored type).  Asked for its inference, a type checker
returns an `Infer` whose `type_of` and `effect_of` answer for the nodes of
`inf.term`, the term it typed, copied first if a node object occurs at two
positions: one value object stored at two references of different types
would otherwise have only one type.
"""
from __future__ import annotations

import graphlib
import itertools
import re
from collections import deque
from dataclasses import dataclass, fields

from .errors import BudgetExhausted, NotStratified, ParseError, TypingError

# ---------------------------------------------------------------------------
# Surface terms


@dataclass(frozen=True)
class TermA:
    pass


@dataclass(frozen=True)
class Var(TermA):
    name: str


@dataclass(frozen=True)
class Star(TermA):
    pass


@dataclass(frozen=True)
class Lam(TermA):
    var: str
    body: "TermA"


@dataclass(frozen=True)
class App(TermA):
    fun: "TermA"
    arg: "TermA"


@dataclass(frozen=True)
class Get(TermA):
    ref: str


@dataclass(frozen=True)
class Set(TermA):
    ref: str
    value: "TermA"


@dataclass(frozen=True)
class Par(TermA):
    left: "TermA"
    right: "TermA"


@dataclass(frozen=True)
class Store(TermA):
    ref: str
    value: "TermA"


def is_value(t: TermA) -> bool:
    return isinstance(t, (Var, Star, Lam))


def fmt_term(t: TermA) -> str:
    """Concrete syntax matching the term parser; minimal parentheses."""

    def atom(s: TermA) -> str:
        if isinstance(s, (Var, Star)):
            return fmt_term(s)
        return "(" + fmt_term(s) + ")"

    def head(s: TermA) -> str:
        # application heads may be chains, gets, or atoms
        if isinstance(s, (App, Get, Var, Star)):
            return fmt_term(s)
        return "(" + fmt_term(s) + ")"

    if isinstance(t, Var):
        return t.name
    if isinstance(t, Star):
        return "*"
    if isinstance(t, Lam):
        return f"\\{t.var}. {fmt_term(t.body)}"
    if isinstance(t, App):
        return f"{head(t.fun)} {atom(t.arg)}"
    if isinstance(t, Get):
        return f"get {t.ref}"
    if isinstance(t, Set):
        return f"set {t.ref} {atom(t.value)}"
    if isinstance(t, Par):
        # a bare lambda on the left would swallow the '||' into its body
        def ends_lam(s: TermA) -> bool:
            if isinstance(s, Lam):
                return True
            return isinstance(s, Par) and ends_lam(s.right)

        left = ("(" + fmt_term(t.left) + ")") if ends_lam(t.left) else fmt_term(t.left)
        right = (
            ("(" + fmt_term(t.right) + ")")
            if isinstance(t.right, Par)
            else fmt_term(t.right)
        )
        return f"{left} || {right}"
    if isinstance(t, Store):
        return f"{t.ref} <= {atom(t.value)}"
    raise TypeError(f"not a source term: {t!r}")


# ---------------------------------------------------------------------------
# IR terms.  The IR reuses the surface nodes Var, Star, Lam (with an IR
# body), Get and Par; App, Set and Store do not occur in it.

RefVals = tuple[tuple[str, tuple], ...]  # sorted (ref, (values...)) pairs


def ref_vals(m: dict) -> RefVals:
    return tuple(sorted((r, tuple(vs)) for r, vs in m.items()))


@dataclass(frozen=True)
class VarSubst(TermA):
    subst: tuple[tuple[str, "TermA"], ...]  # variable -> value
    body: "TermA"


@dataclass(frozen=True)
class LamSubst(TermA):
    vals: RefVals
    fun: "TermA"
    arg: "TermA"


@dataclass(frozen=True)
class DownSubst(TermA):
    vals: RefVals
    body: "TermA"


@dataclass(frozen=True)
class UpSubst(TermA):
    vals: RefVals
    body: "TermA"


@dataclass(frozen=True)
class SumL(TermA):
    terms: tuple["TermA", ...]


# ---------------------------------------------------------------------------
# Types and effects


@dataclass(frozen=True)
class TypeExpr:
    pass


@dataclass(frozen=True)
class Behavior(TypeExpr):
    pass


@dataclass(frozen=True)
class UnitT(TypeExpr):
    pass


@dataclass(frozen=True)
class Arrow(TypeExpr):
    dom: TypeExpr
    effect: frozenset[str]
    cod: TypeExpr

    def __repr__(self):
        return fmt_type(self)


@dataclass(frozen=True)
class Reg(TypeExpr):
    ref: str
    ty: TypeExpr


def eff_of_type(t: TypeExpr) -> frozenset[str]:
    if isinstance(t, (Behavior, UnitT)):
        return frozenset()
    if isinstance(t, Arrow):
        return eff_of_type(t.dom) | t.effect | eff_of_type(t.cod)
    if isinstance(t, Reg):
        return frozenset({t.ref}) | eff_of_type(t.ty)
    raise TypeError(t)


def fmt_type(t: TypeExpr) -> str:
    if isinstance(t, Behavior):
        return "B"
    if isinstance(t, UnitT):
        return "Unit"
    if isinstance(t, Reg):
        return f"Reg {t.ref} {fmt_type(t.ty)}"
    if isinstance(t, Arrow):
        e = t.effect
        eff = ",".join(sorted(e)) if isinstance(e, frozenset) else "?"
        return f"({fmt_type(t.dom)} -{{{eff}}}> {fmt_type(t.cod)})"
    return repr(t)


RegionCtx = dict  # ref -> TypeExpr, insertion ordered


def check_stratified(R: RegionCtx):
    """Return (True, witness order) or (False, None)."""
    ts = graphlib.TopologicalSorter()
    for r, ty in R.items():
        eff = eff_of_type(ty)
        if not eff <= R.keys():
            return False, None
        ts.add(r, *sorted(eff))  # r depends on everything in Eff(A_r)
        if r in eff:
            return False, None
    try:
        order = list(ts.static_order())
    except graphlib.CycleError:
        return False, None
    return True, order


# ---------------------------------------------------------------------------
# Parsing

_TERM_TOKEN = re.compile(r"\s*(\|\||<=|[\\.()*]|[A-Za-z_][A-Za-z0-9_']*)")
_TYPE_TOKEN = re.compile(r"\s*(-\{[^}]*\}>|->|[()]|[A-Za-z_][A-Za-z0-9_']*)")


def _tokenize(token: re.Pattern, text: str, where: str = ""):
    toks, pos = [], 0
    while pos < len(text):
        m = token.match(text, pos)
        if not m:
            rest = text[pos:]
            if rest.strip():
                # the spaces before the character are not at fault
                bad = pos + len(rest) - len(rest.lstrip())
                raise ParseError(f"bad character {text[bad]!r}{where}", bad)
            break
        toks.append((m.group(1), m.start(1)))
        pos = m.end()
    return toks


class _Cursor:
    """A position in the (token, offset) pairs of a text: the token cursor
    of both the term and the type parser.  Past the last token, the offset
    is the length of the text and the token is None, reported as the end of
    input."""

    def __init__(self, token: re.Pattern, text: str, where: str = ""):
        self.toks = _tokenize(token, text, where)
        self.end = len(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok[0]

    def offset(self):
        return self.toks[self.i][1] if self.i < len(self.toks) else self.end

    def found(self) -> str:
        """The next token, quoted, or "end of input"."""
        tok = self.peek()
        return "end of input" if tok is None else repr(tok)

    def expect(self, tok):
        if self.peek() != tok:
            raise ParseError(f"expected {tok!r}, found {self.found()}", self.offset())
        return self.next()


class _TermParser(_Cursor):
    def __init__(self, text: str):
        super().__init__(_TERM_TOKEN, text)

    def parse(self) -> TermA:
        t = self.term()
        if self.peek() is not None:
            raise ParseError(f"trailing input {self.peek()!r}", self.offset())
        return t

    def term(self) -> TermA:
        # lambda extends as far right as possible; '||' binds loosest
        if self.peek() == "\\":
            return self.lam()
        left = self.app()
        while self.peek() == "||":
            self.next()
            if self.peek() == "\\":
                return Par(left, self.lam())
            left = Par(left, self.app())
        return left

    def lam(self) -> TermA:
        self.next()
        x = self.ident()
        self.expect(".")
        return Lam(x, self.term())

    def app(self) -> TermA:
        t = self.atom()
        while self.peek() not in (None, ")", "||"):
            if self.peek() == "<=":
                # store binding: the previous atom must be a reference name
                if not isinstance(t, Var):
                    raise ParseError("store binding needs a reference name", self.offset())
                self.next()
                return Store(t.name, self.value())
            t = App(t, self.atom())
        return t

    def value(self) -> TermA:
        v = self.atom()
        if not is_value(v):
            raise ParseError("expected a value (variable, * or lambda)", self.offset())
        return v

    def atom(self) -> TermA:
        tok = self.peek()
        if tok == "(":
            self.next()
            t = self.term()
            self.expect(")")
            return t
        if tok == "*":
            self.next()
            return Star()
        if tok == "\\":
            return self.lam()
        if tok == "get":
            self.next()
            return Get(self.ident())
        if tok == "set":
            self.next()
            r = self.ident()
            return Set(r, self.value())
        if tok is not None and tok[0].isalpha() or tok == "_":
            self.next()
            return Var(tok)
        raise ParseError(
            "unexpected end of input" if tok is None else f"unexpected token {tok!r}",
            self.offset(),
        )

    def ident(self) -> str:
        tok = self.peek()
        if tok is None or not (tok[0].isalpha() or tok[0] == "_"):
            raise ParseError("expected an identifier", self.offset())
        return self.next()


def parse_term(text: str) -> TermA:
    parser = _TermParser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("term nested too deeply", parser.offset()) from None


class _TypeParser(_Cursor):
    def __init__(self, text: str):
        super().__init__(_TYPE_TOKEN, text, " in type")

    def arrow(self) -> TypeExpr:
        left = self.atom()
        tok = self.peek()
        if tok == "->" or (tok and tok.startswith("-{")):
            self.next()
            eff = frozenset() if tok == "->" else frozenset(
                s.strip() for s in tok[2:-2].split(",") if s.strip()
            )
            return Arrow(left, eff, self.arrow())
        return left

    def atom(self) -> TypeExpr:
        tok = self.peek()
        if tok == "(":
            self.next()
            t = self.arrow()
            self.expect(")")
            return t
        if tok == "Unit":
            self.next()
            return UnitT()
        if tok == "B":
            self.next()
            return Behavior()
        if tok == "Reg":
            self.next()
            r = self.peek()
            if r is None or not (r[0].isalpha() or r[0] == "_"):
                raise ParseError("expected a reference name after 'Reg'", self.offset())
            self.next()
            return Reg(r, self.atom())
        raise ParseError(
            "unexpected end of input in type" if tok is None else f"unexpected type token {tok!r}",
            self.offset(),
        )


def parse_type(text: str) -> TypeExpr:
    parser = _TypeParser(text)
    try:
        t = parser.arrow()
    except RecursionError:
        raise ParseError("type nested too deeply", parser.offset()) from None
    if parser.peek() is not None:
        raise ParseError(f"trailing type input {parser.peek()!r}", parser.offset())
    return t


def parse_region_ctx(text: str) -> RegionCtx:
    """`r : type` lines and `#` comments; errors give line and offset."""
    ctx: RegionCtx = {}
    start = 0  # the offset of the line in text
    for k, raw in enumerate(text.splitlines(keepends=True)):
        code = raw.split("#", 1)[0]
        line = code.strip()
        at = start + len(code) - len(code.lstrip())  # the line's first character
        start += len(raw)
        if not line:
            continue
        if ":" not in line:
            raise ParseError(f"line {k + 1}: expected 'r : type'", at)
        name, ty = line.split(":", 1)
        ref = name.strip()
        if ref in ctx:
            raise ParseError(f"line {k + 1}: reference {ref!r} declared twice", at)
        try:
            ctx[ref] = parse_type(ty)
        except ParseError as exc:
            offset = at + len(name) + 1 + exc.offset
            raise ParseError(f"line {k + 1}: {exc.reason}", offset) from None
    return ctx


# ---------------------------------------------------------------------------
# Type-and-effect inference
#
# Lambda binders get type metavariables resolved by unification at
# application sites; latent effects of unknown arrows get effect variables
# solved afterwards by a least fixpoint over the recorded constraints.
# Unresolved metavariables default to Unit / the empty effect.


class _TMeta(TypeExpr):
    __slots__ = ("id", "bound")

    def __init__(self, ident: int):
        object.__setattr__(self, "id", ident)
        object.__setattr__(self, "bound", None)

    def bind(self, t: TypeExpr):
        object.__setattr__(self, "bound", t)

    def __hash__(self):
        return id(self)

    def __eq__(self, other):
        return self is other

    def __repr__(self):
        return f"_TMeta({self.id})"


class _Eff:
    """An effect during inference: a leaf of constant references `consts`
    and effect variables `evars`, or the union of the two effects in
    `parts`, which it refers to instead of copying.  A union's `consts` and
    `evars` are None until `_flatten` builds them.  `value`, the set of
    references the effect denotes, is known at once for a leaf without
    variables and is set by `Infer.solve` for the others."""

    __slots__ = ("consts", "evars", "parts", "value")

    def __init__(self, consts=frozenset(), evars=frozenset(), parts=None):
        self.consts = consts
        self.evars = evars
        self.parts = parts
        self.value = consts if parts is None and not evars else None


_PURE = _Eff()


def _flatten(e: _Eff):
    """Give a union and the unions below it their `consts` and `evars`.
    Each is the `|` of its operands' sets, left then right, so the sets
    iterate in the order that copying them at every union gave."""
    todo = [e]
    while todo:
        u = todo[-1]
        if u.evars is not None:
            todo.pop()
            continue
        a, b = u.parts
        if a.evars is None or b.evars is None:
            todo += [p for p in (b, a) if p.evars is None]
            continue
        u.consts = a.consts | b.consts
        u.evars = a.evars | b.evars
        todo.pop()


class Infer:
    """Shared engine: walks a term, synthesizing (type, effect) per node.

    Effects are shared, not copied: `union` makes a node that refers to its
    two operands, so the effects of a term take space linear in the term.
    `solve` flattens only the sides of effect equations into sets, then
    evaluates every effect once, in the order `made` lists them, which puts
    operands before the unions over them.  `type_of`, `effect_of` and the
    checkers' result read those values.  Nodes are noted by identity, so a
    checker asked for its inference types a term with one node object per
    position (`_unshared`), kept as `term`."""

    def __init__(self, R: RegionCtx):
        ok, _ = check_stratified(R)
        if not ok:
            raise NotStratified(f"region context {list(R)} is not stratified")
        self.R = R
        self.counter = itertools.count()
        self.evar_lb: dict[int, frozenset[str]] = {}  # per root variable
        self.evar_alias: dict[int, int] = {}
        self.eqs: list[tuple[_Eff, _Eff]] = []
        self.made: list[_Eff] = []  # effects valued by `solve`, operands first
        self.annot: dict[int, tuple[TypeExpr, _Eff]] = {}
        self.term: TermA | None = None  # the typed term, when one is kept

    # -- metavariables ------------------------------------------------------

    def fresh_t(self) -> _TMeta:
        return _TMeta(next(self.counter))

    def fresh_e(self) -> _Eff:
        v = next(self.counter)
        self.evar_lb[v] = frozenset()
        e = _Eff(frozenset(), frozenset({v}))
        self.made.append(e)
        return e

    def union(self, a: _Eff, b: _Eff) -> _Eff:
        e = _Eff(None, None, (a, b))
        self.made.append(e)
        return e

    def resolve(self, t: TypeExpr) -> TypeExpr:
        while isinstance(t, _TMeta) and t.bound is not None:
            t = t.bound
        return t

    def _eroot(self, v: int) -> int:
        while v in self.evar_alias:
            v = self.evar_alias[v]
        return v

    # -- unification --------------------------------------------------------

    def unify(self, a: TypeExpr, b: TypeExpr, rule: str):
        a, b = self.resolve(a), self.resolve(b)
        if a is b:
            return
        if isinstance(a, _TMeta):
            if self._occurs(a, b):
                raise TypingError(rule, "infinite type")
            a.bind(b)
            return
        if isinstance(b, _TMeta):
            self.unify(b, a, rule)
            return
        if isinstance(a, UnitT) and isinstance(b, UnitT):
            return
        if isinstance(a, Behavior) and isinstance(b, Behavior):
            return
        if isinstance(a, Reg) and isinstance(b, Reg) and a.ref == b.ref:
            self.unify(a.ty, b.ty, rule)
            return
        if isinstance(a, Arrow) and isinstance(b, Arrow):
            self.unify(a.dom, b.dom, rule)
            self.unify(a.cod, b.cod, rule)
            self.eqs.append((self._as_eff(a.effect), self._as_eff(b.effect)))
            return
        raise TypingError(rule, f"cannot unify {fmt_type(a)} with {fmt_type(b)}")

    def _occurs(self, m: _TMeta, t: TypeExpr) -> bool:
        t = self.resolve(t)
        if t is m:
            return True
        if isinstance(t, Arrow):
            return self._occurs(m, t.dom) or self._occurs(m, t.cod)
        if isinstance(t, Reg):
            return self._occurs(m, t.ty)
        return False

    @staticmethod
    def _as_eff(e) -> _Eff:
        return e if isinstance(e, _Eff) else _Eff(frozenset(e))

    # -- finalization --------------------------------------------------------

    def _eval_eff(self, e: _Eff) -> frozenset[str]:
        out = e.consts
        for v in e.evars:
            out = out | self.evar_lb[self._eroot(v)]
        return out

    def solve(self):
        """Effect equations: alias variable-only sides, then grow lower
        bounds to a fixpoint, then check every equation holds; then value
        every effect.  The fixpoint visits the equations round-robin: a
        missing effect goes to the first variable of its side's set, and
        which one that is depends on what the others already hold."""
        for a, b in self.eqs:
            _flatten(a)
            _flatten(b)
        # alias pure-variable equations
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
                    want = self._eval_eff(other)
                    have = self._eval_eff(side)
                    missing = want - have
                    if missing and side.evars:
                        self.evar_lb[self._eroot(next(iter(side.evars)))] |= missing
                        changed = True
        for a, b in self.eqs:
            if self._eval_eff(a) != self._eval_eff(b):
                raise TypingError(
                    "sub",
                    f"effect mismatch {sorted(self._eval_eff(a))} vs {sorted(self._eval_eff(b))}",
                )
        lb = self.evar_lb
        for e in self.made:
            if e.parts is None:
                (v,) = e.evars
                e.value = lb[self._eroot(v)]
            else:
                x, y = e.parts[0].value, e.parts[1].value
                e.value = x | y if x and y else x or y

    def final_type(self, t: TypeExpr) -> TypeExpr:
        t = self.resolve(t)
        if isinstance(t, _TMeta):
            return UnitT()
        if isinstance(t, Arrow):
            e = t.effect
            return Arrow(
                self.final_type(t.dom),
                e.value if isinstance(e, _Eff) else frozenset(e),
                self.final_type(t.cod),
            )
        if isinstance(t, Reg):
            return Reg(t.ref, self.final_type(t.ty))
        return t

    def type_of(self, node: TermA) -> TypeExpr:
        return self.final_type(self.annot[id(node)][0])

    def effect_of(self, node: TermA) -> frozenset[str]:
        return self.annot[id(node)][1].value

    # -- judgement helpers ---------------------------------------------------

    def note(self, node, t: TypeExpr, e: _Eff):
        self.annot[id(node)] = (t, e)
        return t, e

    def ref_type(self, r: str, rule: str) -> TypeExpr:
        if r not in self.R:
            raise TypingError(rule, f"unknown reference {r!r}")
        return self.R[r]


# Nodes of one language only; each entry point rejects the other's.
_SOURCE_ONLY = (App, Set, Store)
_IR_ONLY = (VarSubst, LamSubst, DownSubst, UpSubst, SumL)


def _payload(inf: Infer, env: dict, r: str, v: TermA, rule: str, foreign: tuple):
    """Type a value stored at reference r."""
    if not is_value(v):
        raise TypingError(rule, "payload must be a value")
    ty, _ = _infer(inf, env, v, foreign)
    inf.unify(ty, inf.ref_type(r, rule), rule)


def _subst_r(inf: Infer, env: dict, t: TermA, ty: TypeExpr, e: _Eff, foreign: tuple):
    """Reference substitution over a body of type ty and effect e: the
    values must fit their references, which all join the effect."""
    for r, vs in t.vals:
        for v in vs:
            _payload(inf, env, r, v, "subst-r", foreign)
    return inf.note(t, ty, inf.union(e, _Eff(frozenset(r for r, _ in t.vals))))


def _infer(inf: Infer, env: dict, t: TermA, foreign: tuple):
    """Synthesize (type, effect) of t, rejecting the `foreign` node classes."""
    if isinstance(t, Var):
        if t.name not in env:
            raise TypingError("var", f"unbound variable {t.name!r}")
        return inf.note(t, env[t.name], _PURE)
    if isinstance(t, Star):
        return inf.note(t, UnitT(), _PURE)
    if isinstance(t, Lam):
        a = inf.fresh_t()
        ty, e = _infer(inf, {**env, t.var: a}, t.body, foreign)
        return inf.note(t, Arrow(a, e, ty), _PURE)
    if isinstance(t, Get):
        return inf.note(t, inf.ref_type(t.ref, "get"), _Eff(frozenset({t.ref})))
    if isinstance(t, Par):
        _, e1 = _infer(inf, env, t.left, foreign)
        _, e2 = _infer(inf, env, t.right, foreign)
        return inf.note(t, Behavior(), inf.union(e1, e2))
    if isinstance(t, foreign):
        raise TypingError("?", f"unknown term {t!r}")
    if isinstance(t, (App, LamSubst)):
        f, e1 = _infer(inf, env, t.fun, foreign)
        a, e2 = _infer(inf, env, t.arg, foreign)
        beta = inf.fresh_t()
        lat = inf.fresh_e()
        inf.unify(f, Arrow(a, lat, beta), "app")
        e = inf.union(inf.union(e1, e2), lat)
        if isinstance(t, App):
            return inf.note(t, beta, e)
        return _subst_r(inf, env, t, beta, e, foreign)
    if isinstance(t, (DownSubst, UpSubst)):
        ty, e = _infer(inf, env, t.body, foreign)
        return _subst_r(inf, env, t, ty, e, foreign)
    if isinstance(t, Set):
        _payload(inf, env, t.ref, t.value, "set", foreign)
        return inf.note(t, UnitT(), _Eff(frozenset({t.ref})))
    if isinstance(t, Store):
        _payload(inf, env, t.ref, t.value, "store", foreign)
        return inf.note(t, Behavior(), _PURE)
    if isinstance(t, VarSubst):
        env2 = dict(env)
        for x, v in t.subst:
            if not is_value(v):
                raise TypingError("subst", "substituted term must be a value")
            tv, _ = _infer(inf, env, v, foreign)
            env2[x] = tv
        ty, e = _infer(inf, env2, t.body, foreign)
        return inf.note(t, ty, e)
    if isinstance(t, SumL):
        if not t.terms:
            raise TypingError("sum", "empty sums have no type")
        ty, e = _infer(inf, env, t.terms[0], foreign)
        for s in t.terms[1:]:
            ty2, e2 = _infer(inf, env, s, foreign)
            inf.unify(ty, ty2, "sum")
            e = inf.union(e, e2)
        return inf.note(t, ty, e)
    raise TypingError("?", f"unknown term {t!r}")


def _copy(t):
    """A copy of t with its own node object at every position."""
    if isinstance(t, tuple):
        return tuple(map(_copy, t))
    if isinstance(t, TermA):
        return type(t)(*map(_copy, (getattr(t, f.name) for f in fields(t))))
    return t


def _unshared(t: TermA) -> TermA:
    """t itself if no node object occurs at two of its positions, else a
    copy with one node object per position.  Parser output never shares a
    node; the IR shares the store values it injects."""
    seen = set()
    todo = [t]
    while todo:
        s = todo.pop()
        if isinstance(s, tuple):
            todo += s
        elif isinstance(s, TermA):
            if id(s) in seen:
                return _copy(t)
            seen.add(id(s))
            todo += vars(s).values()
    return t


def _typecheck(R: RegionCtx, gamma: dict, t: TermA, want_infer: bool, foreign: tuple):
    inf = Infer(R)
    if want_infer:
        t = inf.term = _unshared(t)
    ty, e = _infer(inf, dict(gamma), t, foreign)
    inf.solve()
    result = (inf.final_type(ty), e.value)
    if want_infer:
        return result, inf
    return result


def typecheck_amadio(R: RegionCtx, gamma: dict, t: TermA, want_infer: bool = False):
    """Type a source term; IR nodes fail with rule "?"."""
    return _typecheck(R, gamma, t, want_infer, _IR_ONLY)


def typecheck_lthis(R: RegionCtx, gamma: dict, t: TermA, want_infer: bool = False):
    """Type an IR term; App, Set and Store fail with rule "?"."""
    return _typecheck(R, gamma, t, want_infer, _SOURCE_ONLY)


# ---------------------------------------------------------------------------
# Embedding into the IR


def split_stores(p: TermA):
    """Separate the thread tree from the store bindings (AC of ∥)."""
    stores: list[tuple[str, TermA]] = []

    def walk(t: TermA):
        if isinstance(t, Store):
            stores.append((t.ref, t.value))
            return None
        if isinstance(t, Par):
            l, r = walk(t.left), walk(t.right)
            if l is None:
                return r
            if r is None:
                return l
            return Par(l, r)
        return t

    tree = walk(p)
    return tree, stores


def embed_term(t: TermA, store_vals: dict, inf: Infer) -> TermA:
    """Rewrite one thread of `inf.term`; store multisets are injected at
    application and get sites, restricted to each site's inferred effect
    set.  Lambda bodies and stored values are embedded with an empty store."""

    def vals_for(eff: frozenset[str]) -> RefVals:
        return ref_vals({r: vs for r, vs in store_vals.items() if r in eff and vs})

    if isinstance(t, (Var, Star)):
        return t
    if isinstance(t, Lam):
        return Lam(t.var, embed_term(t.body, {}, inf))
    if isinstance(t, App):
        return LamSubst(
            vals_for(inf.effect_of(t)) if store_vals else (),
            embed_term(t.fun, store_vals, inf),
            embed_term(t.arg, store_vals, inf),
        )
    if isinstance(t, Get):
        return DownSubst(vals_for(frozenset({t.ref})), Get(t.ref))
    if isinstance(t, Set):
        return UpSubst(ref_vals({t.ref: [embed_term(t.value, {}, inf)]}), Star())
    if isinstance(t, Par):
        return Par(
            embed_term(t.left, store_vals, inf),
            embed_term(t.right, store_vals, inf),
        )
    raise TypingError("embed", f"cannot embed {t!r}")


def embed_lthis(p: TermA, R: RegionCtx) -> TermA:
    """Full program embedding: strip stores into substitution multisets."""
    (_, _), inf = typecheck_amadio(R, {}, p, want_infer=True)
    tree, stores = split_stores(inf.term)
    store_vals: dict[str, list[TermA]] = {}
    for r, v in stores:
        store_vals.setdefault(r, []).append(embed_term(v, {}, inf))
    if tree is None:
        tree = Star()  # a program of stores alone behaves as a finished unit
    return embed_term(tree, store_vals, inf)


# ---------------------------------------------------------------------------
# Operational semantics (exhaustive, non-deterministic)


def free_vars(t: TermA) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset({t.name})
    if isinstance(t, Lam):
        return free_vars(t.body) - {t.var}
    if isinstance(t, App):
        return free_vars(t.fun) | free_vars(t.arg)
    if isinstance(t, (Set, Store)):
        return free_vars(t.value)
    if isinstance(t, Par):
        return free_vars(t.left) | free_vars(t.right)
    return frozenset()


_FRESH = itertools.count()


def subst(t: TermA, x: str, v: TermA) -> TermA:
    if isinstance(t, Var):
        return v if t.name == x else t
    if isinstance(t, (Star, Get)):
        return t
    if isinstance(t, Lam):
        if t.var == x:
            return t
        if t.var in free_vars(v):
            fresh = f"{t.var}_{next(_FRESH)}"
            body = subst(t.body, t.var, Var(fresh))
            return Lam(fresh, subst(body, x, v))
        return Lam(t.var, subst(t.body, x, v))
    if isinstance(t, App):
        return App(subst(t.fun, x, v), subst(t.arg, x, v))
    if isinstance(t, Set):
        return Set(t.ref, subst(t.value, x, v))
    if isinstance(t, Store):
        return Store(t.ref, subst(t.value, x, v))
    if isinstance(t, Par):
        return Par(subst(t.left, x, v), subst(t.right, x, v))
    raise TypeError(t)


def alpha_normalize(t: TermA, env=None, names=None) -> TermA:
    """Rename bound variables to a canonical left-to-right numbering v0, v1,
    …, skipping the names of the free variables so that none is captured."""
    env = env or {}
    if names is None:
        free = free_vars(t)
        names = (f"v{k}" for k in itertools.count() if f"v{k}" not in free)
    if isinstance(t, Var):
        return Var(env.get(t.name, t.name))
    if isinstance(t, Star):
        return t
    if isinstance(t, Lam):
        fresh = next(names)
        return Lam(fresh, alpha_normalize(t.body, {**env, t.var: fresh}, names))
    if isinstance(t, App):
        return App(
            alpha_normalize(t.fun, env, names), alpha_normalize(t.arg, env, names)
        )
    if isinstance(t, Get):
        return t
    if isinstance(t, Set):
        return Set(t.ref, alpha_normalize(t.value, env, names))
    if isinstance(t, Store):
        return Store(t.ref, alpha_normalize(t.value, env, names))
    if isinstance(t, Par):
        return Par(
            alpha_normalize(t.left, env, names), alpha_normalize(t.right, env, names)
        )
    raise TypeError(t)


def _thread_steps(t: TermA, stores: list[tuple[str, TermA]]):
    """All one-step reducts of a single thread.

    Yields (new_thread, new_store or None).  Evaluation contexts reach into
    either side of an application but never under a λ or into payloads.
    """
    out = []
    if isinstance(t, App):
        if isinstance(t.fun, Lam) and is_value(t.arg):
            out.append((subst(t.fun.body, t.fun.var, t.arg), None))
        for m, s in _thread_steps(t.fun, stores):
            out.append((App(m, t.arg), s))
        for m, s in _thread_steps(t.arg, stores):
            out.append((App(t.fun, m), s))
    elif isinstance(t, Get):
        for r, v in stores:
            if r == t.ref:
                out.append((v, None))
    elif isinstance(t, Set):
        if is_value(t.value):
            out.append((Star(), (t.ref, t.value)))
    elif isinstance(t, Par):
        for m, s in _thread_steps(t.left, stores):
            out.append((Par(m, t.right), s))
        for m, s in _thread_steps(t.right, stores):
            out.append((Par(t.left, m), s))
    return out


def _rebuild(tree: TermA | None, stores) -> TermA:
    t = tree
    for r, v in stores:
        binding = Store(r, v)
        t = binding if t is None else Par(t, binding)
    return t if t is not None else Star()


def _state_key(tree, stores):
    tn = alpha_normalize(tree) if tree is not None else None
    sn = tuple(sorted((r, repr(alpha_normalize(v))) for r, v in stores))
    return (tn, sn)


def step(p: TermA) -> set[TermA]:
    tree, stores = split_stores(p)
    out = {}
    if tree is not None:
        for m, new_store in _thread_steps(tree, stores):
            st = stores + [new_store] if new_store else stores
            out[_state_key(m, st)] = _rebuild(m, st)
    return set(out.values())


def normal_forms(p: TermA, budget: int = 20000):
    """All states with no reduct, as (thread tree, stores) pairs."""
    tree, stores = split_stores(p)
    start = (tree, tuple(stores))
    seen = {_state_key(*start)}
    queue = deque([start])
    normals = []
    steps = 0
    while queue:
        tr, st = queue.popleft()
        succs = _thread_steps(tr, list(st)) if tr is not None else []
        if not succs:
            normals.append((tr, st))
            continue
        for m, new_store in succs:
            steps += 1
            if steps > budget:
                raise BudgetExhausted(normals)
            st2 = st + (new_store,) if new_store else st
            key = _state_key(m, st2)
            if key not in seen:
                seen.add(key)
                queue.append((m, st2))
    return normals


def _threads(tree: TermA):
    if isinstance(tree, Par):
        return _threads(tree.left) + _threads(tree.right)
    return [tree]


def outcome(tree: TermA) -> tuple[str, ...]:
    """The key of a finished state: its threads' alpha-normal forms, sorted."""
    return tuple(sorted(repr(alpha_normalize(t)) for t in _threads(tree)))


def values(p: TermA, budget: int = 20000):
    """Multisets of final thread values over all runs; stores are stripped
    and only fully finished (all-value) normal forms count."""
    return {outcome(tree) for tree in value_trees(p, budget)}


def value_trees(p: TermA, budget: int = 20000):
    """The all-value normal-form thread trees themselves (stores stripped)."""
    out, seen = [], set()
    for tree, _stores in normal_forms(p, budget):
        if tree is None:
            continue
        if all(is_value(t) for t in _threads(tree)):
            key = repr(alpha_normalize(tree))
            if key not in seen:
                seen.add(key)
                out.append(tree)
    return out
