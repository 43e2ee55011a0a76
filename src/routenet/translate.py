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
    """Connect a chain result (dangling end or bare cell port) to a port."""
    kind, p = item
    if kind == "end":
        b.reend(p, target)
    else:
        b.wire(p, target, ty_toward_target)


def _bundle(b: Builder, tys: list[Formula], ends: list[int]):
    """Left-associated tensor of producer ends; result emits the bundle."""
    if len(ends) == 1:
        return ("end", ends[0])
    left = _bundle(b, tys[:-1], ends[:-1])
    t = b.cell("Tensor", 2)
    _attach(b, left, t.aux[0], _tensor_chain(tys[:-1]))
    b.reend(ends[-1], t.aux[1])
    return ("cell", t.principal)


def _split(b: Builder, tys: list[Formula], ends: list[int]):
    """Dual of _bundle: ends consume the components; the result consumes
    the left-associated tensor bundle (emits its dual)."""
    if len(ends) == 1:
        return ("end", ends[0])
    left = _split(b, tys[:-1], ends[:-1])
    s = b.cell("Par", 2)
    _attach(b, left, s.aux[0], dual(_tensor_chain(tys[:-1])))
    b.reend(ends[-1], s.aux[1])
    return ("cell", s.principal)


def _cocontract(b: Builder, ends: list[int], ty: Formula):
    """Merge producer ends of a common !X into one stream."""
    acc = ("end", ends[0])
    for q in ends[1:]:
        c = b.cell("Cocontraction", 2)
        _attach(b, acc, c.aux[0], ty)
        b.reend(q, c.aux[1])
        acc = ("cell", c.principal)
    return acc


def _producer_end(b: Builder, item, ty: Formula) -> int:
    kind, p = item
    if kind == "end":
        return p
    q = b.port()
    b.wire(p, q, ty)
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


def _boxed_value_end(b: Builder, vnet: Net, content: Formula):
    """Box a value net; returns (producer end of !content, variable iface).

    Captured variables of the value leave the box through auxiliary doors.
    """
    inner = vnet.copy()
    doors = [(p, lbl) for p, lbl in inner.free if lbl != "out"]
    out_p = inner.free_port("out")
    inner.free = [(out_p, "main")] + doors
    box = b.cell("Box", len(doors), inner)
    var_iface: Iface = {}
    iw = inner.wire_of()
    for i, (p, lbl) in enumerate(doors):
        qo = b.port()
        b.wire(qo, box.aux[i], dual(iw[p].toward(p)))
        var_iface[lbl] = qo
    q = b.port()
    b.wire(box.principal, q, bang(content))
    return q, var_iface


def _area_ports(b: Builder, area: Net):
    """Merge a routing area; returns ({label: in_end}, {label: out_end})."""
    off = b.merge(area)
    ins, outs = {}, {}
    for p, lbl in area.free:
        if area.outward(p).kind == "whynot":
            ins[lbl] = p + off
        else:
            outs[lbl] = p + off
    return ins, outs


# ---------------------------------------------------------------------------
# The translation proper


class _Translator:
    def __init__(self, R: RegionCtx, ann):
        self.R = R
        self.ann = ann
        self.b = Builder()

    def wtype(self, r: str) -> Formula:
        return ref_wire_type(r, self.R)

    def type_of(self, node) -> TypeExpr:
        return self.ann[id(node)][0]

    def eff_of(self, node) -> frozenset[str]:
        return self.ann[id(node)][1]

    def fmla(self, t: TypeExpr) -> Formula:
        return _ttype(t, self.R)

    # -- value boxing -------------------------------------------------------

    def value_net(self, v: TermA, want: Formula | None = None) -> Net:
        """A value as a standalone net: an `out` wire plus one wire per
        captured variable (values are pure, so no reference wires)."""
        sub = _Translator(self.R, self.ann)
        iface = sub.tr(v)
        if any(not (k == "out" or k.startswith("v:")) for k in iface):
            raise DerivationMismatch("injected values must be pure")
        free = [(iface["out"], "out")] + sorted(
            ((q, lbl) for lbl, q in iface.items() if lbl != "out"), key=lambda t: t[1]
        )
        net = sub.b.finish(free)
        if want is not None and net.outward(iface["out"]) != want:
            raise DerivationMismatch("stored value type does not match its reference")
        return net

    # -- injections ---------------------------------------------------------

    def inject_ends(self, r: str, values) -> tuple[list[int], Iface]:
        """Producer ends (one per stored value) emitting !X_r, together with
        the interface of any variables the values capture."""
        xr = _ttype(self.R[r], self.R)
        ends = []
        var_iface: Iface = {}
        for v in values:
            vnet = self.value_net(v, want=xr)
            q, vi = _boxed_value_end(self.b, vnet, xr)
            ends.append(q)
            var_iface = _contract_shared(self.b, var_iface, vi)
        return ends, var_iface

    # -- dispatch -----------------------------------------------------------

    def tr(self, t: TermA) -> Iface:
        b = self.b
        if isinstance(t, Var):
            f = self.fmla(self.type_of(t))
            qv, qo = b.port(), b.port()
            b.wire(qv, qo, f)
            return {"v:" + t.name: qv, "out": qo}
        if isinstance(t, Star):
            ib = Builder()
            one = ib.cell("One", 0)
            q = ib.port()
            ib.wire(one.principal, q, ONE)
            inner = ib.finish([(q, "main")])
            box = b.cell("Box", 0, inner)
            qo = b.port()
            b.wire(box.principal, qo, bang(ONE))
            return {"out": qo}
        if isinstance(t, Lam):
            return self.tr_lam(t)
        if isinstance(t, Get):
            w = self.wtype(t.ref)
            der = self.b.cell("Dereliction", 1)
            q_ri, q_out = b.port(), b.port()
            b.wire(q_ri, der.principal, w)
            b.wire(der.aux[0], q_out, w.left)
            cw = b.cell("Coweakening", 0)
            q_ro = b.port()
            b.wire(cw.principal, q_ro, w)
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
        arrow = self.type_of(t)
        if not isinstance(arrow, Arrow):
            raise DerivationMismatch("abstraction without an arrow type")
        refs = sorted(arrow.effect)
        a_in = self.fmla(arrow.dom)
        ws = [self.wtype(s) for s in refs]
        a_out = self.fmla(arrow.cod)

        sub = _Translator(self.R, self.ann)
        iface = sub.tr(t.body)
        ib = sub.b

        top = ib.cell("Par", 2)
        # input side: argument value then one reference stream per effect
        in_tys = [a_in] + ws
        in_ends = []
        vx = "v:" + t.var
        if vx in iface:
            in_ends.append(iface.pop(vx))
        else:
            wk = ib.cell("Weakening", 0)
            q = ib.port()
            ib.wire(q, wk.principal, a_in)
            in_ends.append(q)
        for s, w in zip(refs, ws):
            in_ends.append(iface.pop("ri:" + s))
        _attach(ib, _split(ib, in_tys, in_ends), top.aux[0], dual(_tensor_chain(in_tys)))
        # output side: the reference streams written, then the result
        out_tys = ws + [a_out]
        out_ends = [iface.pop("ro:" + s) for s in refs] + [iface.pop("out")]
        _attach(ib, _bundle(ib, out_tys, out_ends), top.aux[1], _tensor_chain(out_tys))
        f0 = ib.port()
        content = par(dual(_tensor_chain(in_tys)), _tensor_chain(out_tys))
        ib.wire(top.principal, f0, content)

        # remaining wires are captured variables and leave through doors
        doors = sorted(iface.items())
        inner = ib.finish([(f0, "main")] + [(q, l) for l, q in doors])
        box = self.b.cell("Box", len(doors), inner)
        out_iface: Iface = {}
        for i, (label, q) in enumerate(doors):
            qo = self.b.port()
            self.b.wire(qo, box.aux[i], dual(ib.end_ty(q)))
            out_iface[label] = qo
        qo = self.b.port()
        self.b.wire(box.principal, qo, bang(content))
        out_iface["out"] = qo
        return out_iface

    # -- reference plumbing shared by application and parallel --------------

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
        w = self.wtype(s)
        q_ri = b.port()
        leaf = b.port()
        b.wire(q_ri, leaf, w)  # environment stream enters here
        vends, var_iface = self.inject_ends(s, values)
        stream = _cocontract(b, [leaf] + vends, w)
        merged = _producer_end(b, stream, w)
        b.fuse(merged, area_in_end)
        q_ro = b.port()
        b.reend(area_out_end, q_ro)
        # keep the end dangling: relabel by returning it
        return {"ri:" + s: q_ri, "ro:" + s: q_ro}, var_iface

    # -- application --------------------------------------------------------

    def tr_app(self, t: LamSubst) -> Iface:
        b = self.b
        if1 = self.tr(t.fun)
        if2 = self.tr(t.arg)
        # shared variables contract; reference wires stay per-branch
        out_iface: Iface = _contract_shared(
            b,
            {k: v for k, v in if1.items() if k.startswith("v:")},
            {k: v for k, v in if2.items() if k.startswith("v:")},
        )
        arrow = self.type_of(t.fun)
        if not isinstance(arrow, Arrow):
            raise DerivationMismatch("application head is not an arrow")
        refs3 = sorted(arrow.effect)
        a_in = self.fmla(arrow.dom)
        ws3 = {s: self.wtype(s) for s in refs3}
        a_res = self.fmla(arrow.cod)

        vals = dict(t.vals)
        all_refs = sorted(self.eff_of(t))

        # open the function value
        der = b.cell("Dereliction", 1)
        b.reend(if1.pop("out"), der.principal)
        tsr = b.cell("Tensor", 2)
        content = par(
            dual(_tensor_chain([a_in] + [ws3[s] for s in refs3])),
            _tensor_chain([ws3[s] for s in refs3] + [a_res]),
        )
        b.wire(tsr.principal, der.aux[0], dual(content))

        # one 4-way area per reference in scope
        plumbing: dict[str, tuple[dict, dict]] = {}
        for s in all_refs:
            ins, outs = _area_ports(b, delta_area(self.wtype(s)))
            self.plug(ins["1"], outs["1"], if1, s)
            self.plug(ins["2"], outs["2"], if2, s)
            plumbing[s] = (ins, outs)
            refs, var_iface = self.external_plug(ins["4"], outs["4"], s, vals.get(s, ()))
            out_iface.update(refs)
            out_iface = _contract_shared(b, out_iface, var_iface)

        # caller side of the opened function: bundle the argument with the
        # reference streams the body may read ...
        in_tys = [a_in] + [ws3[s] for s in refs3]
        in_ends = [if2.pop("out")] + [plumbing[s][1]["3"] for s in refs3]
        _attach(b, _bundle(b, in_tys, in_ends), tsr.aux[0], _tensor_chain(in_tys))
        # ... and split the returned streams from the result
        out_tys = [ws3[s] for s in refs3] + [a_res]
        out_ends = [plumbing[s][0]["3"] for s in refs3]
        qa = b.port()
        q_out = b.port()
        b.wire(qa, q_out, a_res)
        out_ends.append(qa)
        _attach(b, _split(b, out_tys, out_ends), tsr.aux[1], dual(_tensor_chain(out_tys)))

        # plugs 3 of references outside the latent effect see no traffic
        for s in all_refs:
            if s not in refs3:
                ins, outs = plumbing[s]
                _cap_coweakening(b, ins["3"])
                _cap_weakening(b, outs["3"])

        out_iface["out"] = q_out
        return out_iface

    # -- parallel -----------------------------------------------------------

    def tr_par(self, t: Par) -> Iface:
        b = self.b
        if1 = self.tr(t.left)
        if2 = self.tr(t.right)
        # keep the branch ref wires apart; only variables are shared
        shared_vars = _contract_shared(
            b,
            {k: v for k, v in if1.items() if k.startswith("v:")},
            {k: v for k, v in if2.items() if k.startswith("v:")},
        )
        out_iface: Iface = dict(shared_vars)
        for s in sorted(self.eff_of(t)):
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
            q_out = vnet.free[0][0] + off
            if "v:" + x in iface:
                b.fuse(q_out, iface.pop("v:" + x))
            else:
                _cap_weakening(b, q_out)
            captured = {lbl: p + off for p, lbl in vnet.free if lbl != "out"}
            iface = _contract_shared(b, iface, captured)
        return iface

    def tr_down(self, t: DownSubst) -> Iface:
        b = self.b
        iface = self.tr(t.body)
        for r, vs in t.vals:
            w = self.wtype(r)
            q_ri = b.port()
            leaf = b.port()
            b.wire(q_ri, leaf, w)
            vends, var_iface = self.inject_ends(r, vs)
            iface = _contract_shared(b, iface, var_iface)
            stream = _cocontract(b, [leaf] + vends, w)
            merged = _producer_end(b, stream, w)
            if "ri:" + r in iface:
                b.fuse(merged, iface.pop("ri:" + r))
            else:
                _cap_weakening(b, merged)
            iface["ri:" + r] = q_ri
            if "ro:" + r not in iface:
                cw = b.cell("Coweakening", 0)
                q_ro = b.port()
                b.wire(cw.principal, q_ro, w)
                iface["ro:" + r] = q_ro
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
            stream = _cocontract(b, ends, w)
            iface["ro:" + r] = _producer_end(b, stream, w)
            if "ri:" + r not in iface:
                wk = b.cell("Weakening", 0)
                q_ri = b.port()
                b.wire(q_ri, wk.principal, w)
                iface["ri:" + r] = q_ri
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


def translate(term: TermA, R: RegionCtx, gamma: dict | None = None) -> Net:
    """Compile a typed term; free ports follow the labelled interface."""
    (_ty, _eff), inf = typecheck_lthis(R, gamma or {}, term, want_infer=True)
    tr = _Translator(R, inf.annotations())
    iface = tr.tr(term)
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
    from .rewrite import normalize

    certs = set()
    for tree in value_trees(P, budget):
        certs.update(normalize(compile_program(tree, R), budget=budget).certs())
    return certs


def is_value_net(n: Net, certs: set) -> bool:
    """Whether a normal summand is one of the program's value nets."""
    return certificate(n) in certs
