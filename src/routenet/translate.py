"""Compiling the explicit-substitution language into nets.

Every term denotes a net with a labelled interface:

  * ``out``   — the output wire, carrying the translated type of the term;
  * ``v:x``   — one wire per free variable, consuming the variable's value;
  * ``ri:r``  — one input wire per reference in the effect set, receiving
                the stream of values stored at ``r``;
  * ``ro:r``  — one output wire per reference, emitting the values the term
                stores at ``r``.

Value types translate to exponential formulas: ``Unit`` becomes ``!1`` and
an arrow thunks its body together with the reference bundles of its latent
effect.  Reference wires carry ``!X_r`` where ``X_r`` is the translation of
the reference's content type; the extra exponential layer is opened by the
dereliction of ``get`` and added by the boxing of stored values.

Applications route the reference streams of the function, the argument, the
function body and the environment through a fresh 4-way area whose relation
forbids body-to-operand communication; parallel composition uses the 3-way
communication area.  ``close`` caps the reference interface so only the
output wire remains.
"""
from __future__ import annotations

from .errors import DerivationMismatch, InterfaceMismatch, NotStratified, TypingError
from .lang import (
    Arrow,
    Behavior,
    DownSubst,
    Get,
    Infer,
    Lam,
    LamSubst,
    Par,
    Reg,
    RegionCtx,
    Star,
    SumL,
    TermA,
    TypeExpr,
    UnitT,
    UpSubst,
    Var,
    VarSubst,
    check_stratified,
    embed_lthis,
    typecheck_amadio,
    typecheck_lthis,
    value_trees,
)
from .proofnet import (
    Builder,
    Formula,
    Net,
    ONE,
    bang,
    certificate,
    dual,
    par,
    tensor,
    validate,
)
from .routing import delta as delta_area
from .routing import free_io
from .routing import gamma as gamma_area

# ---------------------------------------------------------------------------
# Type translation


def translate_type(t: TypeExpr, R: RegionCtx) -> Formula:
    ok, _ = check_stratified(R)
    if not ok:
        raise NotStratified("region context is not stratified")
    return _ttype(t, R)


def _ttype(t: TypeExpr, R: RegionCtx) -> Formula:
    if isinstance(t, UnitT):
        return bang(ONE)
    if isinstance(t, Arrow):
        din = _ttype(t.dom, R)
        ws = [ref_wire_type(s, R) for s in sorted(t.effect)]
        left = _tensor_chain([din] + ws)
        right = _tensor_chain(ws + [_ttype(t.cod, R)])
        return bang(par(dual(left), right))
    if isinstance(t, Reg):
        return bang(_ttype(t.ty, R))
    if isinstance(t, Behavior):
        raise TypingError("translate", "behaviours have no standalone formula")
    raise TypingError("translate", f"cannot translate {t!r}")


def ref_wire_type(r: str, R: RegionCtx) -> Formula:
    """The formula carried by reference wires: one exponential above the
    translation of the stored type."""
    return bang(_ttype(R[r], R))


def _tensor_chain(fs: list[Formula]) -> Formula:
    acc = fs[0]
    for f in fs[1:]:
        acc = tensor(acc, f)
    return acc


# ---------------------------------------------------------------------------
# Wiring helpers

Iface = dict  # label -> dangling wire-end port


def _contract_shared(b: Builder, if1: Iface, if2: Iface) -> Iface:
    """Merge two interfaces; shared variable wires join in a contraction."""
    out = dict(if1)
    for label, q2 in if2.items():
        if label not in out:
            out[label] = q2
            continue
        if not label.startswith("v:"):
            raise DerivationMismatch(f"duplicate interface wire {label!r}")
        q1 = out[label]
        f = b.end_ty(q1)  # ?(dual of the value type)
        c = b.cell("Contraction", 2)
        b.reend(q1, c.aux[0])
        b.reend(q2, c.aux[1])
        qn = b.port()
        b.wire(c.principal, qn, f)
        out[label] = qn
    return out


def _attach(b: Builder, item, target: int, ty_toward_target: Formula):
    """Connect a tree result (dangling end or bare cell port) to a port."""
    kind, p = item
    if kind == "end":
        b.reend(p, target)
    else:
        b.wire(p, target, ty_toward_target)


def _tree(b: Builder, sym: str, tys: list[Formula], ends: list[int]):
    """Left comb of binary `sym` cells over `ends`, whose formulas are `tys`.

    A `Tensor` tree emits the left-associated tensor of producer ends; a
    `Par` tree takes consumer ends and consumes that tensor (emits its
    dual).  Returns ("end", q) for one end, else ("cell", principal)."""
    acc, ty = ("end", ends[0]), tys[0]
    for t, q in zip(tys[1:], ends[1:]):
        c = b.cell(sym, 2)
        _attach(b, acc, c.aux[0], ty if sym == "Tensor" else dual(ty))
        b.reend(q, c.aux[1])
        acc, ty = ("cell", c.principal), tensor(ty, t)
    return acc


def _stream(b: Builder, ends: list[int], ty: Formula) -> int:
    """Merge producer ends of a common !X into one stream by a left comb of
    cocontractions; returns its dangling producer end.  Of zero ends, a
    coweakening: the empty stream."""
    if not ends:
        return _stub(b, "Coweakening", ty)
    acc = ("end", ends[0])
    for q in ends[1:]:
        c = b.cell("Cocontraction", 2)
        _attach(b, acc, c.aux[0], ty)
        b.reend(q, c.aux[1])
        acc = ("cell", c.principal)
    kind, p = acc
    if kind == "end":
        return p
    q = b.port()
    b.wire(p, q, ty)
    return q


def _stub(b: Builder, sym: str, ty: Formula) -> int:
    """A fresh dangling end on a new (co)weakening: a `Coweakening` emits
    the empty stream of `ty`, a `Weakening` consumes and discards `ty`."""
    c = b.cell(sym, 0)
    q = b.port()
    if sym == "Weakening":
        b.wire(q, c.principal, ty)
    else:
        b.wire(c.principal, q, ty)
    return q


def _cap_weakening(b: Builder, q: int):
    """Absorb an unconsumed producer end (its formula must be a bang)."""
    f = b.end_ty(q)
    if f.kind != "bang":
        raise DerivationMismatch(f"cannot discard a {f.kind} wire")
    wk = b.cell("Weakening", 0)
    b.reend(q, wk.principal)


def _cap_coweakening(b: Builder, q: int):
    """Feed an unsupplied consumer end with the empty stream."""
    f = b.end_ty(q)
    if f.kind != "whynot":
        raise DerivationMismatch(f"cannot source a {f.kind} wire")
    cw = b.cell("Coweakening", 0)
    b.reend(q, cw.principal)


def _box(b: Builder, inner: Net) -> Iface:
    """Box `inner`, whose free list is its main end and then its doors.

    Returns the outer end of each door under the door's label, and `out`,
    emitting the bang of the formula `inner` emits at its main end."""
    (main, _), *doors = inner.free
    box = b.cell("Box", len(doors), inner)
    iface: Iface = {}
    for aux, (p, label) in zip(box.aux, doors):
        q = b.port()
        b.wire(q, aux, dual(inner.outward(p)))
        iface[label] = q
    q = b.port()
    b.wire(box.principal, q, bang(inner.outward(main)))
    iface["out"] = q
    return iface


def _area_ports(b: Builder, area: Net):
    """Merge a routing area; returns ({label: in_end}, {label: out_end})."""
    off = b.merge(area)
    ins, outs = free_io(area)
    return {l: p + off for p, l in ins}, {l: p + off for p, l in outs}


# ---------------------------------------------------------------------------
# The translation proper


class _Translator:
    def __init__(self, R: RegionCtx, inf: Infer, fmlas: dict | None = None):
        self.R = R
        self.inf = inf
        self.b = Builder()
        # type -> formula, shared with the translators of boxed subterms
        self.fmlas = {} if fmlas is None else fmlas

    def wtype(self, r: str) -> Formula:
        return bang(self.fmla(self.R[r]))

    def fmla(self, t: TypeExpr) -> Formula:
        f = self.fmlas.get(t)
        if f is None:
            f = self.fmlas[t] = _ttype(t, self.R)
        return f

    # -- value boxing -------------------------------------------------------

    def value_net(self, v: TermA, want: Formula | None = None) -> Net:
        """A value as a standalone net, free ports in the order `_box`
        takes: the `main` output wire, then one wire per captured variable
        (values are pure, so no reference wires)."""
        sub = _Translator(self.R, self.inf, self.fmlas)
        iface = sub.tr(v)
        if any(not (k == "out" or k.startswith("v:")) for k in iface):
            raise DerivationMismatch("injected values must be pure")
        q = iface.pop("out")
        net = sub.b.finish([(q, "main")] + [(iface[lbl], lbl) for lbl in sorted(iface)])
        if want is not None and net.outward(q) != want:
            raise DerivationMismatch("stored value type does not match its reference")
        return net

    # -- injections ---------------------------------------------------------

    def inject_ends(self, r: str, values) -> tuple[list[int], Iface]:
        """Producer ends (one per stored value) emitting !X_r, together with
        the interface of any variables the values capture."""
        xr = self.fmla(self.R[r])
        ends = []
        var_iface: Iface = {}
        for v in values:
            boxed = _box(self.b, self.value_net(v, want=xr))
            ends.append(boxed.pop("out"))
            var_iface = _contract_shared(self.b, var_iface, boxed)
        return ends, var_iface

    def ri_ends(self, r: str, values) -> tuple[int, list[int], Iface]:
        """A node's own `ri:r` end and the producer ends of the stream it
        feeds: the environment's leaf, then the injected values; with the
        interface of any variables the values capture."""
        q_ri, leaf = self.b.port(), self.b.port()
        self.b.wire(q_ri, leaf, self.wtype(r))  # environment stream enters here
        vends, var_iface = self.inject_ends(r, values)
        return q_ri, [leaf] + vends, var_iface

    # -- dispatch -----------------------------------------------------------

    def tr(self, t: TermA) -> Iface:
        b = self.b
        if isinstance(t, Var):
            f = self.fmla(self.inf.type_of(t))
            qv, qo = b.port(), b.port()
            b.wire(qv, qo, f)
            return {"v:" + t.name: qv, "out": qo}
        if isinstance(t, Star):
            ib = Builder()
            one = ib.cell("One", 0)
            q = ib.port()
            ib.wire(one.principal, q, ONE)
            return _box(b, ib.finish([(q, "main")]))
        if isinstance(t, Lam):
            return self.tr_lam(t)
        if isinstance(t, Get):
            w = self.wtype(t.ref)
            der = b.cell("Dereliction", 1)
            q_ri, q_out = b.port(), b.port()
            b.wire(q_ri, der.principal, w)
            b.wire(der.aux[0], q_out, w.left)
            q_ro = _stub(b, "Coweakening", w)
            return {"out": q_out, "ri:" + t.ref: q_ri, "ro:" + t.ref: q_ro}
        if isinstance(t, Par):
            return self.tr_par(t)
        if isinstance(t, LamSubst):
            return self.tr_app(t)
        if isinstance(t, VarSubst):
            return self.tr_varsubst(t)
        if isinstance(t, DownSubst):
            return self.tr_down(t)
        if isinstance(t, UpSubst):
            return self.tr_up(t)
        if isinstance(t, SumL):
            if len(t.terms) == 1:
                return self.tr(t.terms[0])
            raise DerivationMismatch("only singleton sums have a net translation")
        raise DerivationMismatch(f"cannot translate {t!r}")

    # -- abstraction --------------------------------------------------------

    def tr_lam(self, t: Lam) -> Iface:
        arrow = self.inf.type_of(t)
        if not isinstance(arrow, Arrow):
            raise DerivationMismatch("abstraction without an arrow type")
        refs = sorted(arrow.effect)
        ws = [self.wtype(s) for s in refs]
        in_tys = [self.fmla(arrow.dom)] + ws
        out_tys = ws + [self.fmla(arrow.cod)]
        content = self.fmla(arrow).left

        sub = _Translator(self.R, self.inf, self.fmlas)
        iface = sub.tr(t.body)
        ib = sub.b

        top = ib.cell("Par", 2)
        # input side: argument value then one reference stream per effect
        vx = "v:" + t.var
        arg = iface.pop(vx) if vx in iface else _stub(ib, "Weakening", in_tys[0])
        in_ends = [arg] + [iface.pop("ri:" + s) for s in refs]
        _attach(ib, _tree(ib, "Par", in_tys, in_ends), top.aux[0], content.left)
        # output side: the reference streams written, then the result
        out_ends = [iface.pop("ro:" + s) for s in refs] + [iface.pop("out")]
        _attach(ib, _tree(ib, "Tensor", out_tys, out_ends), top.aux[1], content.right)
        f0 = ib.port()
        ib.wire(top.principal, f0, content)

        # remaining wires are captured variables and leave through doors
        doors = [(q, l) for l, q in sorted(iface.items())]
        return _box(self.b, ib.finish([(f0, "main")] + doors))

    # -- reference plumbing shared by application and parallel --------------

    def sides(self, left: TermA, right: TermA) -> tuple[Iface, Iface, Iface]:
        """Translate both sides of a binary node.  Returns both interfaces
        and their variable wires, shared ones joined in contractions;
        reference wires stay per side."""
        if1, if2 = self.tr(left), self.tr(right)
        vars1 = {k: q for k, q in if1.items() if k.startswith("v:")}
        vars2 = {k: q for k, q in if2.items() if k.startswith("v:")}
        return if1, if2, _contract_shared(self.b, vars1, vars2)

    def plug(self, area_in_end: int, area_out_end: int, iface: Iface, s: str):
        """Wire one plug of an area to a subterm's reference interface,
        stubbing absent directions."""
        b = self.b
        if "ro:" + s in iface:
            b.fuse(iface.pop("ro:" + s), area_in_end)
        else:
            _cap_coweakening(b, area_in_end)
        if "ri:" + s in iface:
            b.fuse(iface.pop("ri:" + s), area_out_end)
        else:
            _cap_weakening(b, area_out_end)

    def external_plug(self, area_in_end: int, area_out_end: int, s: str, values):
        """Expose a plug as the node's own ri/ro pair, merging any injected
        store values into the incoming stream."""
        b = self.b
        q_ri, ends, var_iface = self.ri_ends(s, values)
        b.fuse(_stream(b, ends, self.wtype(s)), area_in_end)
        q_ro = b.port()
        b.reend(area_out_end, q_ro)
        return {"ri:" + s: q_ri, "ro:" + s: q_ro}, var_iface

    # -- application --------------------------------------------------------

    def tr_app(self, t: LamSubst) -> Iface:
        b = self.b
        if1, if2, out_iface = self.sides(t.fun, t.arg)
        arrow = self.inf.type_of(t.fun)
        if not isinstance(arrow, Arrow):
            raise DerivationMismatch("application head is not an arrow")
        refs3 = sorted(arrow.effect)
        ws3 = [self.wtype(s) for s in refs3]
        a_res = self.fmla(arrow.cod)
        content = self.fmla(arrow).left
        vals = dict(t.vals)

        # open the function value
        der = b.cell("Dereliction", 1)
        b.reend(if1.pop("out"), der.principal)
        tsr = b.cell("Tensor", 2)
        b.wire(tsr.principal, der.aux[0], dual(content))

        # one 4-way area per reference in scope
        plumbing: dict[str, tuple[dict, dict]] = {}
        for s in sorted(self.inf.effect_of(t)):
            ins, outs = _area_ports(b, delta_area(self.wtype(s)))
            self.plug(ins["1"], outs["1"], if1, s)
            self.plug(ins["2"], outs["2"], if2, s)
            plumbing[s] = (ins, outs)
            refs, var_iface = self.external_plug(ins["4"], outs["4"], s, vals.get(s, ()))
            out_iface.update(refs)
            out_iface = _contract_shared(b, out_iface, var_iface)

        # caller side of the opened function: bundle the argument with the
        # reference streams the body may read ...
        in_tys = [self.fmla(arrow.dom)] + ws3
        in_ends = [if2.pop("out")] + [plumbing[s][1]["3"] for s in refs3]
        _attach(b, _tree(b, "Tensor", in_tys, in_ends), tsr.aux[0], dual(content.left))
        # ... and split the returned streams from the result
        qa, q_out = b.port(), b.port()
        b.wire(qa, q_out, a_res)
        out_tys = ws3 + [a_res]
        out_ends = [plumbing[s][0]["3"] for s in refs3] + [qa]
        _attach(b, _tree(b, "Par", out_tys, out_ends), tsr.aux[1], dual(content.right))

        # plugs 3 of references outside the latent effect see no traffic
        for s, (ins, outs) in plumbing.items():
            if s not in arrow.effect:
                _cap_coweakening(b, ins["3"])
                _cap_weakening(b, outs["3"])

        out_iface["out"] = q_out
        return out_iface

    # -- parallel -----------------------------------------------------------

    def tr_par(self, t: Par) -> Iface:
        b = self.b
        if1, if2, out_iface = self.sides(t.left, t.right)
        for s in sorted(self.inf.effect_of(t)):
            ins, outs = _area_ports(b, gamma_area(self.wtype(s)))
            self.plug(ins["1"], outs["1"], if1, s)
            self.plug(ins["2"], outs["2"], if2, s)
            q_ri = b.port()
            b.reend(ins["3"], q_ri)
            q_ro = b.port()
            b.reend(outs["3"], q_ro)
            out_iface["ri:" + s] = q_ri
            out_iface["ro:" + s] = q_ro
        p = b.cell("Par", 2)
        f1 = b.end_ty(if1["out"])
        f2 = b.end_ty(if2["out"])
        b.reend(if1.pop("out"), p.aux[0])
        b.reend(if2.pop("out"), p.aux[1])
        q = b.port()
        b.wire(p.principal, q, par(f1, f2))
        out_iface["out"] = q
        return out_iface

    # -- substitutions ------------------------------------------------------

    def tr_varsubst(self, t: VarSubst) -> Iface:
        b = self.b
        iface = self.tr(t.body)
        for x, v in t.subst:
            vnet = self.value_net(v)
            off = b.merge(vnet)
            (q_out, _), *captured = vnet.free
            if "v:" + x in iface:
                b.fuse(q_out + off, iface.pop("v:" + x))
            else:
                _cap_weakening(b, q_out + off)
            iface = _contract_shared(b, iface, {lbl: p + off for p, lbl in captured})
        return iface

    def tr_down(self, t: DownSubst) -> Iface:
        b = self.b
        iface = self.tr(t.body)
        for r, vs in t.vals:
            w = self.wtype(r)
            q_ri, ends, var_iface = self.ri_ends(r, vs)
            iface = _contract_shared(b, iface, var_iface)
            merged = _stream(b, ends, w)
            if "ri:" + r in iface:
                b.fuse(merged, iface.pop("ri:" + r))
            else:
                _cap_weakening(b, merged)
            iface["ri:" + r] = q_ri
            if "ro:" + r not in iface:
                iface["ro:" + r] = _stub(b, "Coweakening", w)
        return iface

    def tr_up(self, t: UpSubst) -> Iface:
        b = self.b
        iface = self.tr(t.body)
        for r, vs in t.vals:
            w = self.wtype(r)
            ends, var_iface = self.inject_ends(r, vs)
            iface = _contract_shared(b, iface, var_iface)
            if "ro:" + r in iface:
                ends = [iface.pop("ro:" + r)] + ends
            iface["ro:" + r] = _stream(b, ends, w)
            if "ri:" + r not in iface:
                iface["ri:" + r] = _stub(b, "Weakening", w)
        return iface


# ---------------------------------------------------------------------------
# Entry points


_IFACE_ORDER = {"out": 0, "v": 1, "ri": 2, "ro": 3}


def _sorted_iface(iface: Iface) -> list[tuple[int, str]]:
    def key(item):
        label, _ = item
        head = label.split(":", 1)[0]
        return (_IFACE_ORDER[head], label)

    return [(q, label) for label, q in sorted(iface.items(), key=key)]


def translate(term: TermA, R: RegionCtx) -> Net:
    """Compile a typed term; free ports follow the labelled interface."""
    (_ty, _eff), inf = typecheck_lthis(R, {}, term, want_infer=True)
    tr = _Translator(R, inf)
    iface = tr.tr(inf.term)
    net = tr.b.finish(_sorted_iface(iface))
    problems = validate(net)
    if problems:
        raise DerivationMismatch("; ".join(problems))
    return net


def close(net: Net, effect) -> Net:
    """Cap the reference interface, leaving only the output wire free.

    `net` is a valid net, as `translate` returns it.  Each cap checks the
    formula it takes, a `?` on a reference input and a `!` on a reference
    output, so the capped net is valid too and is not walked again."""
    n = net.copy()
    labels = {l for _, l in n.free}
    want = {"ri:" + s for s in effect} | {"ro:" + s for s in effect} | {"out"}
    if labels != want:
        raise InterfaceMismatch(f"interface {sorted(labels)} != {sorted(want)}")
    b = Builder(n)
    keep = []
    for q, label in n.free:
        if label == "out":
            keep.append((q, label))
        elif label.startswith("ri:"):
            _cap_coweakening(b, q)
        else:
            f = b.end_ty(q)
            if f.kind != "bang":
                raise InterfaceMismatch(f"{label} does not emit an exponential")
            wk = b.cell("Weakening", 0)
            b.reend(q, wk.principal)
    n.free = keep
    return n


def compile_program(P: TermA, R: RegionCtx) -> Net:
    """Typecheck, embed, translate and close a whole program."""
    (_ty, eff) = typecheck_amadio(R, {}, P)
    term = embed_lthis(P, R)
    (_tyl, effl) = typecheck_lthis(R, {}, term)
    net = translate(term, R)
    return close(net, effl)


def value_certs(P: TermA, R: RegionCtx, budget: int = 20000) -> set:
    """Certificates of the normal forms of all final parallel-of-values
    states, under the same policy used to run programs."""
    from .rewrite import normal_certs

    certs = set()
    for tree in value_trees(P, budget):
        certs.update(normal_certs(compile_program(tree, R), budget=budget))
    return certs


def is_value_net(n: Net, certs: set) -> bool:
    """Whether a normal summand is one of the program's value nets."""
    return certificate(n) in certs
