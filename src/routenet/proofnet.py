"""Typed port-graph model for differential MELL proof nets.

A net is a set of ports partitioned into wires, some ports being grouped
into cells.  Wires carry a formula read in the direction src -> dst; the
reversed wire carries the dual formula.  Exponential boxes are cells with a
nested net whose first free wire is the content and whose remaining free
wires correspond to the auxiliary doors.

Equality of nets is taken modulo associativity/commutativity of
(co)contraction trees, neutrality of (co)weakening, and port renaming; it is
decided through an exact canonical form.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple
from weakref import KeyedRef

from .errors import CyclicNet, DerivationMismatch, ParseError, UnwiredPort

# ---------------------------------------------------------------------------
# Formulas


class Formula:
    """A MELL formula: `kind` is one of one, bot, bang, whynot, tensor, par,
    with `left` set for the four connectives and `right` for the binary ones.

    Formulas are hash-consed: `Formula(kind, left, right)`, the constructors
    below, `dual` and `parse_formula` return the one live object for that
    value, so equal formulas are the same object and `==` and `hash` go by
    identity.  The objects live in a table of weak references keyed by kind
    and the identities of the children; a formula that nothing else refers
    to leaves it.
    A formula is immutable.  Its dual and its text are filled in on first
    use, and `copy`, `deepcopy` and `pickle` give back the interned object.

    Making a formula reads and fills the table, and reading its dual or text
    fills those slots, so, as with `Net`, formulas are not to be made or read
    from several threads at once.
    """

    __slots__ = ("kind", "left", "right", "_dual", "_text", "__weakref__")

    def __new__(cls, kind: str, left: "Formula | None" = None, right: "Formula | None" = None):
        return _formula(kind, left, right)

    def __setattr__(self, name, value):
        raise AttributeError("a Formula is immutable")

    def __delattr__(self, name):
        raise AttributeError("a Formula is immutable")

    def __repr__(self):
        return f"Formula({fmt_formula(self)!r})"

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        # the text, not the tree: unpickling goes through the flat parser
        return parse_formula, (fmt_formula(self),)


# (kind, id(left), id(right)) -> weak reference to the live Formula of that
# value.  A live formula keeps its children alive, so a key that is found
# alive names the children by their ids.  A key holding the children
# themselves would keep them alive until the parent's entry goes, and a
# formula and its dual refer to each other, so a deep formula would take one
# garbage collection per level to leave the table.
_FORMULAS: dict = {}
_set_slot = object.__setattr__  # fills a slot past Formula.__setattr__


def _forget(ref):
    # a newer object of the same value may already have taken the key
    if _FORMULAS.get(ref.key) is ref:
        del _FORMULAS[ref.key]


def _formula(kind, left, right) -> Formula:
    key = (kind, id(left), id(right))
    ref = _FORMULAS.get(key)
    if ref is not None:
        f = ref()
        if f is not None:
            return f
    f = object.__new__(Formula)
    _set_slot(f, "kind", kind)
    _set_slot(f, "left", left)
    _set_slot(f, "right", right)
    _set_slot(f, "_dual", None)
    _set_slot(f, "_text", None)
    _FORMULAS[key] = KeyedRef(f, _forget, key)
    return f


ONE = Formula("one")
BOT = Formula("bot")


def bang(a: Formula) -> Formula:
    return _formula("bang", a, None)


def whynot(a: Formula) -> Formula:
    return _formula("whynot", a, None)


def tensor(a: Formula, b: Formula) -> Formula:
    return _formula("tensor", a, b)


def par(a: Formula, b: Formula) -> Formula:
    return _formula("par", a, b)


_DUAL_KIND = {
    "one": "bot", "bot": "one", "bang": "whynot", "whynot": "bang",
    "tensor": "par", "par": "tensor",
}


def dual(f: Formula) -> Formula:
    d = f._dual
    if d is not None:
        return d
    # children first: a node is made once the duals of its children are known
    todo = [f]
    while todo:
        g = todo[-1]
        if g._dual is not None:
            todo.pop()
            continue
        l, r = g.left, g.right
        if l is not None and l._dual is None:
            todo.append(l)
        elif r is not None and r._dual is None:
            todo.append(r)
        else:
            todo.pop()
            d = _formula(
                _DUAL_KIND[g.kind],
                None if l is None else l._dual,
                None if r is None else r._dual,
            )
            _set_slot(g, "_dual", d)
            _set_slot(d, "_dual", g)
    return f._dual


_SYMBOL = {"one": "1", "bot": "bot", "bang": "!", "whynot": "?", "tensor": "*", "par": "%"}


def fmt_formula(f: Formula) -> str:
    s = f._text
    if s is not None:
        return s
    # left to right over the tree, taking a subformula's text where it is
    # known; only `f` keeps its text, so a deep formula costs linear memory
    out = []
    todo = [f]
    while todo:
        g = todo.pop()
        if g.__class__ is str:
            out.append(g)
        elif g._text is not None:
            out.append(g._text)
        elif g.right is not None:
            out.append("(")
            todo += (")", g.right, _SYMBOL[g.kind], g.left)
        else:
            out.append(_SYMBOL[g.kind])
            if g.left is not None:
                todo.append(g.left)
    s = "".join(out)
    _set_slot(f, "_text", s)
    return s


def parse_formula(text: str) -> Formula:
    """The formula written `text`, in the syntax fmt_formula writes:
    1, bot, !A, ?A, (A*B), (A%B) and nothing else, not even spaces."""
    end, pos = len(text), 0
    # open prefixes and parentheses: "!", "?", "(" or (left operand, operator)
    stack = []
    while True:
        if pos >= end:
            raise ParseError("unexpected end of formula", pos)
        c = text[pos]
        if c == "1":
            pos += 1
            f = ONE
        elif text.startswith("bot", pos):
            pos += 3
            f = BOT
        elif c in ("!", "?", "("):
            pos += 1
            stack.append(c)
            continue
        else:
            raise ParseError(f"unexpected character {c!r}", pos)
        # close what the finished operand f completes
        while stack:
            top = stack[-1]
            if top == "!":
                f = bang(f)
            elif top == "?":
                f = whynot(f)
            elif top == "(":
                if pos >= end or text[pos] not in "*%":
                    raise ParseError("expected '*' or '%'", pos)
                stack[-1] = (f, text[pos])
                pos += 1
                break
            else:
                if pos >= end or text[pos] != ")":
                    raise ParseError("expected ')'", pos)
                pos += 1
                a, op = top
                f = tensor(a, f) if op == "*" else par(a, f)
            stack.pop()
        else:
            break
    if pos != end:
        raise ParseError("trailing characters in formula", pos)
    return f


# ---------------------------------------------------------------------------
# Nets

# Arity of each cell symbol (Box is variable and handled separately).
ARITY = {
    "One": 0,
    "Tensor": 2,
    "Par": 2,
    "Dereliction": 1,
    "Contraction": 2,
    "Weakening": 0,
    "Cocontraction": 2,
    "Coweakening": 0,
}
SYMBOLS = set(ARITY) | {"Box"}


@dataclass(slots=True)
class Cell:
    id: int
    sym: str
    principal: int
    aux: list[int] = field(default_factory=list)
    inner: "Net | None" = None

    def ports(self) -> list[int]:
        return [self.principal] + list(self.aux)


@dataclass(slots=True)
class Wire:
    a: int
    b: int
    ty: Formula  # read a -> b

    def other(self, port: int) -> int:
        return self.b if port == self.a else self.a

    def toward(self, port: int) -> Formula:
        """Formula read in the direction of `port`."""
        return self.ty if port == self.b else dual(self.ty)


# the owner entry of a port that no cell holds
_NOBODY = (None, None)


class Net:
    """One level of a net: its cells and wires, in the order they were added,
    and its labelled free ports.  `cells` and `wires` read as tuples, and
    assigning either replaces it whole; `free` is a plain list.

    Invariant: a `Cell` or `Wire` object, once in a net, never changes.
    `copy()` shares the level's cells, wires and box contents, and `Builder`
    edits only the containers of one level, putting a changed cell or wire
    in the old one's position.  Whoever holds the only reference to a level
    may edit it that way (`apply_redex(..., owned=True)` in rewrite.py);
    every other caller edits a copy.  The redex index rests on the
    invariant: a redex holds exactly while its level still holds, by
    identity, the wire and the two cells it was classified from.

    From the first query by port or cell id on, the net keeps current the
    maps port -> wire, port -> (cell, slot) with slot 'p' or an aux index,
    and cell id -> cell, and the highest wired port and cell id, which the
    Builder's numbering contract reads.  An edit updates only the entries it
    changes: re-ending a wire moves the entry of the one end it moves.
    `redexes` holds the rewriter's candidates for this level, and `touched`
    the ports edited since those were brought up to date; both are copied
    with the net.

    The inner net of a box keeps the `_Canon` entry of its contents (see
    `_contents_entry`).

    The indexes, the candidates and the canonical form are filled in by
    reads, so nets that share box contents are not to be read or rewritten
    from several threads at once.
    """

    __slots__ = (
        "free", "redexes", "touched", "_cells", "_wires", "_next",
        "_owner", "_cell_key", "_wire_key", "_top_port", "_top_cid", "_canon",
    )

    def __init__(self, cells=(), wires=(), free=()):
        self._next = 0
        self.free = list(free)
        self.cells = cells
        self.wires = wires

    # -- contents -----------------------------------------------------------

    @property
    def cells(self) -> tuple[Cell, ...]:
        return tuple(self._cells.values())

    @cells.setter
    def cells(self, cells):
        self._cells = self._keyed(cells)
        self._unindex()

    @property
    def wires(self) -> tuple[Wire, ...]:
        return tuple(self._wires.values())

    @wires.setter
    def wires(self, wires):
        self._wires = self._keyed(wires)
        self._unindex()

    def _keyed(self, items) -> dict:
        # keys grow with insertion and a replaced item keeps its key, so the
        # dict order is the list order
        start = self._next
        out = dict(enumerate(items, start))
        self._next = start + len(out)
        return out

    def _unindex(self):
        self._owner = self._canon = None
        self.redexes = None
        self.touched = set()

    def __eq__(self, other):
        if not isinstance(other, Net):
            return NotImplemented
        return (self.cells, self.wires, self.free) == (other.cells, other.wires, other.free)

    __hash__ = None

    def __repr__(self):
        return f"Net(cells={list(self.cells)!r}, wires={list(self.wires)!r}, free={self.free!r})"

    def copy(self) -> "Net":
        """A net with the same contents, sharing every cell, wire and box."""
        n = Net.__new__(Net)
        n.free = list(self.free)
        n._cells, n._wires, n._next = dict(self._cells), dict(self._wires), self._next
        n._owner = n._canon = None
        if self._owner is not None:
            n._owner, n._cell_key = dict(self._owner), dict(self._cell_key)
            n._wire_key = dict(self._wire_key)
            n._top_port, n._top_cid = self._top_port, self._top_cid
        n.redexes = None if self.redexes is None else tuple(list(h) for h in self.redexes)
        n.touched = set(self.touched)
        return n

    # -- indexes ------------------------------------------------------------

    def _indexed(self) -> "Net":
        """Build the indexes on first use (a parsed net may carry ports of
        the wrong type until `validate` has looked at it)."""
        if self._owner is None:
            self._owner, self._cell_key, self._wire_key = {}, {}, {}
            self._top_port = self._top_cid = 0
            for k, c in self._cells.items():
                self._index_cell(k, c)
            for k, w in self._wires.items():
                self._index_wire(k, w)
        return self

    def _index_cell(self, k: int, c: Cell):
        if not self._cell_key or c.id > self._top_cid:
            self._top_cid = c.id
        self._cell_key[c.id] = k
        owner = self._owner
        owner[c.principal] = (c, "p")
        for i, p in enumerate(c.aux):
            owner[p] = (c, i)
        if self.redexes is not None:
            self.touched.add(c.principal)
            self.touched.update(c.aux)

    def _unindex_cell(self, c: Cell):
        owner = self._owner
        if owner.get(c.principal, _NOBODY)[0] is c:
            del owner[c.principal]
        for p in c.aux:
            if owner.get(p, _NOBODY)[0] is c:
                del owner[p]

    def _index_wire(self, k: int, w: Wire):
        wire_key = self._wire_key
        wire_key[w.a] = wire_key[w.b] = k
        top = w.a if w.a > w.b else w.b
        if top > self._top_port:
            self._top_port = top
        if self.redexes is not None:
            self.touched.add(w.a)  # one end names the wire

    def _unindex_wire(self, k: int, w: Wire):
        wire_key = self._wire_key
        for p in (w.a, w.b):
            if wire_key.get(p) == k:
                del wire_key[p]

    # -- edits, made through Builder ------------------------------------------

    def _add_cell(self, c: Cell):
        self._canon = None
        k = self._next
        self._next += 1
        self._cells[k] = c
        if self._owner is not None:
            self._index_cell(k, c)

    def _remove_cell(self, cid: int):
        self._canon = None
        k = self._indexed()._cell_key.pop(cid)
        self._unindex_cell(self._cells.pop(k))

    def _replace_cell(self, c: Cell):
        self._canon = None
        k = self._indexed()._cell_key[c.id]
        self._unindex_cell(self._cells[k])
        self._cells[k] = c
        self._index_cell(k, c)

    def _add_wire(self, w: Wire):
        self._canon = None
        k = self._next
        self._next += 1
        self._wires[k] = w
        if self._owner is not None:
            self._index_wire(k, w)

    def _remove_wire(self, w: Wire):
        self._canon = None
        k = self._indexed()._wire_key[w.a]
        self._unindex_wire(k, self._wires.pop(k))

    # -- queries ------------------------------------------------------------

    def is_wired(self, port: int) -> bool:
        return port in self._indexed()._wire_key

    def all_wired(self, ports: set[int]) -> bool:
        """Whether every port in the set `ports` ends a wire."""
        return self._indexed()._wire_key.keys() >= ports

    def wire_at(self, port: int) -> Wire:
        """The wire ending at `port`; KeyError if there is none."""
        return self._wires[self._indexed()._wire_key[port]]

    def wires_at(self, ports) -> list[Wire]:
        """The distinct wires ending at `ports`, in list order."""
        wire_key, wires = self._indexed()._wire_key, self._wires
        return [wires[k] for k in sorted({wire_key[p] for p in ports if p in wire_key})]

    def wire_of(self) -> dict[int, Wire]:
        wires = self._wires
        return {p: wires[k] for p, k in self._indexed()._wire_key.items()}

    def owner(self) -> dict[int, tuple[Cell, object]]:
        """Map port -> (cell, slot) with slot 'p' or aux index; the net's own
        index, to be read and not edited."""
        return self._indexed()._owner

    def max_port(self) -> int:
        """The highest wired port, or 0."""
        top = self._indexed()._top_port
        if top and top not in self._wire_key:
            top = self._top_port = max(_highest_below(top, self._wire_key), 0)
        return top

    def max_cid(self) -> int:
        """The highest cell id, or 0 for a net without cells."""
        top = self._indexed()._top_cid
        if top not in self._cell_key:
            top = self._top_cid = _highest_below(top, self._cell_key)
        return top

    def cell_by_id(self, cid: int) -> Cell:
        return self._cells[self._indexed()._cell_key[cid]]

    def outward(self, port: int) -> Formula:
        """Formula carried out of the net through a free port."""
        return self.wire_at(port).toward(port)


def _highest_below(top: int, used: dict) -> int:
    """The highest key of `used`, all of which are below `top` (0 if there
    is none): a short walk down from `top`, or a scan past a wide gap."""
    if not used:
        return 0
    for k in range(top - 1, top - 33, -1):
        if k in used:
            return k
    return max(used)


class Builder:
    """Grows and edits a net: the one place that allocates ports and cell
    ids, adds, removes and replaces cells and wires, re-ends wires and copies
    one net into another.  A rewrite rule removes its redex through the
    level itself (`_cut` in rewrite.py), since removing allocates nothing,
    and makes its builder after that; `_rebuild` makes canonical nets whole.

    Numbering contract:

    * ports continue after the highest wired port of `net` at the moment
      the builder is made (from 1 for a new net);
    * cell ids continue after the highest cell id of `net`;
    * `merge` shifts the ports of the copied net by the port counter and
      gives its cells the ids counter+1, counter+2, ... in list order.

    The net keeps both highest values as it is edited: an insertion raises
    them, and when the port or cell holding one goes, the next value in use
    is found by a short walk down, so making a builder scans nothing.

    New cells only need names fresh for the net they join, and a rewrite
    rule only touches the wires at its interface, so rules, area algebra
    and the compiler all build through this class.  `cell` takes its ports
    as one range, principal first, and `reend` looks its wire up once and
    takes only the moved end out of the index.  The
    builder edits `net` itself, so it is given a net that no one else reads:
    a new one, a copy, or one its caller owns.

    Invariant: edits never change a cell or wire object in place; a changed
    one is a new object put in the old one's position.  Nets copied from one
    another share these objects, and the rewriter's redex index takes an
    unchanged object to mean an unchanged redex (see `Net`).
    """

    def __init__(self, net: Net | None = None):
        if net is None:
            self.net, self.nport, self.ncid = Net(), 0, 0
        else:
            self.net, self.nport, self.ncid = net, net.max_port(), net.max_cid()

    def finish(self, free: list[tuple[int, str]]) -> Net:
        """The built net, with `free` as its interface."""
        self.net.free = free
        return self.net

    def port(self) -> int:
        self.nport += 1
        return self.nport

    def cell(self, sym: str, naux: int, inner: Net | None = None) -> Cell:
        """A new cell on fresh ports, principal first."""
        p = self.nport + 1
        self.nport = p + naux
        return self.cell_on(sym, p, list(range(p + 1, p + 1 + naux)), inner)

    def cell_on(self, sym: str, principal: int, aux: list[int], inner: Net | None = None) -> Cell:
        """A new cell on the given ports."""
        self.ncid += 1
        c = Cell(self.ncid, sym, principal, aux, inner)
        self.net._add_cell(c)
        return c

    def replace_cell(self, c: Cell):
        """Put `c` in the place of the cell with its id."""
        self.net._replace_cell(c)

    def remove_cell(self, c: Cell):
        self.net._remove_cell(c.id)

    def wire(self, a: int, b: int, ty: Formula) -> Wire:
        w = Wire(a, b, ty)
        self.net._add_wire(w)
        return w

    def remove_wire(self, w: Wire):
        self.net._remove_wire(w)

    def wire_at(self, q: int) -> Wire:
        return self.net.wire_at(q)

    def end_ty(self, q: int) -> Formula:
        """Formula flowing toward the dangling end q."""
        return self.wire_at(q).toward(q)

    def reend(self, q: int, newp: int):
        """Move the end of the wire at q to port newp, keeping its formula:
        one lookup, and a new wire in the old one's position whose moved end
        alone leaves the index.  `_index_wire` writes the other end's entry
        too, so on a net that gives a port two wires (which `validate`
        refuses) the port names the re-ended one."""
        net = self.net
        net._canon = None
        k = net._indexed()._wire_key.pop(q)
        w = net._wires[k]
        w = net._wires[k] = Wire(newp, w.b, w.ty) if w.a == q else Wire(w.a, newp, w.ty)
        net._index_wire(k, w)

    def join(self, p: int, q: int):
        """Join the wires dangling at ports p and q into one, which keeps
        the formula of p's wire: what flowed toward p flows past q."""
        wp, wq = self.wire_at(p), self.wire_at(q)
        self.remove_wire(wp)
        self.remove_wire(wq)
        self.wire(wp.other(p), wq.other(q), wp.toward(p))

    def fuse(self, q1: int, q2: int):
        """Join two dangling ends; their formulas must be dual."""
        w1, w2 = self.wire_at(q1), self.wire_at(q2)
        if w1 is w2:
            raise DerivationMismatch("cannot fuse the two ends of one wire")
        if w1.toward(q1) != dual(w2.toward(q2)):
            raise DerivationMismatch(
                f"interface type clash: {w1.toward(q1)!r} vs {w2.toward(q2)!r}"
            )
        self.join(q1, q2)

    def merge(self, n: Net) -> int:
        """Copy the cells and wires of `n` in (not its free list), sharing
        its box contents; returns the shift added to its port numbers."""
        off = self.nport
        self.nport += n.max_port()
        for c in n.cells:
            self.ncid += 1
            self.net._add_cell(
                Cell(self.ncid, c.sym, c.principal + off, [a + off for a in c.aux], c.inner)
            )
        for w in n.wires:
            self.wire(w.a + off, w.b + off, w.ty)
        return off


# ---------------------------------------------------------------------------
# Validation


def validate(net: Net) -> list[str]:
    """Return the list of well-formedness violations (empty if valid)."""
    out = _bad_fields(net, "")
    if not out:  # the structural checks assume the field types
        _validate(net, out, "")
    return out


def _bad_fields(net: Net, where: str) -> list[str]:
    """JSON fields of the wrong type, in `net` and its boxes: ports and cell
    ids must be ints, labels and symbols strings."""
    out, inner = [], []

    def bad(v, t: type, what: str):
        out.append(f"{where}BadField: {what} {v!r} is not {t.__name__}")

    for p, _ in net.free:
        if type(p) is not int:
            bad(p, int, "free port")
    for _, lbl in net.free:
        if type(lbl) is not str:
            bad(lbl, str, "free label")
    for c in net.cells:
        if type(c.id) is not int:
            bad(c.id, int, "cell id")
        if type(c.sym) is not str:
            bad(c.sym, str, f"cell {c.id!r} sym")
        for p in c.ports():
            if type(p) is not int:
                bad(p, int, f"cell {c.id!r} port")
        if c.inner is not None:
            inner += _bad_fields(c.inner, where + f"box{c.id}/")
    for w in net.wires:
        for p in (w.a, w.b):
            if type(p) is not int:
                bad(p, int, "wire end")
    return out + inner


def _validate(net: Net, out: list[str], where: str):
    seen: dict[int, int] = {}
    for w in net.wires:
        if w.a == w.b:
            out.append(f"{where}SelfWire: wire on single port {w.a}")
        for p in (w.a, w.b):
            seen[p] = seen.get(p, 0) + 1
    for p, n in seen.items():
        if n > 1:
            out.append(f"{where}PortReuse: port {p} on {n} wires")

    slot_of: dict[int, str] = {}
    ids = set()
    for c in net.cells:
        if c.id in ids:
            out.append(f"{where}DupCellId: {c.id}")
        ids.add(c.id)
        if c.sym not in SYMBOLS:
            out.append(f"{where}BadSymbol: cell {c.id} {c.sym}")
            continue
        if c.sym != "Box" and len(c.aux) != ARITY[c.sym]:
            out.append(f"{where}BadArity: cell {c.id} {c.sym} arity {len(c.aux)}")
        ps = c.ports()
        if len(set(ps)) != len(ps):
            out.append(f"{where}DupPort: cell {c.id}")
        for p in ps:
            if p in slot_of:
                out.append(f"{where}SharedPort: port {p}")
            slot_of[p] = c.sym
            if p not in seen:
                out.append(f"{where}Unwired: port {p} of cell {c.id}")
    for p, lbl in net.free:
        if p in slot_of:
            out.append(f"{where}FreeInCell: port {p} ({lbl})")
        if p not in seen:
            out.append(f"{where}Unwired: free port {p} ({lbl})")
    free_ports = {p for p, _ in net.free}
    if len(free_ports) != len(net.free):
        out.append(f"{where}DupFreePort")
    for p in seen:
        if p not in slot_of and p not in free_ports:
            out.append(f"{where}Dangling: port {p} neither in a cell nor free")

    wire_of = net.wire_of()

    def toward(p):
        return wire_of[p].toward(p)

    def away(p):
        return dual(wire_of[p].toward(p))

    for c in net.cells:
        if any(p not in seen for p in c.ports()):
            continue
        if c.sym in ARITY and len(c.aux) != ARITY[c.sym]:
            continue
        tag = f"{where}TypeMismatch: cell {c.id} {c.sym}"
        if c.sym == "One":
            if away(c.principal).kind != "one":
                out.append(tag)
        elif c.sym in ("Tensor", "Par"):
            want = "tensor" if c.sym == "Tensor" else "par"
            f = away(c.principal)
            if f.kind != want or f.left != toward(c.aux[0]) or f.right != toward(c.aux[1]):
                out.append(tag)
        elif c.sym == "Dereliction":
            # the aux emits A; the principal concludes ?(dual A), the cut
            # partner of !A
            if away(c.principal) != whynot(toward(c.aux[0])):
                out.append(tag)
        elif c.sym == "Contraction":
            f = away(c.principal)
            if f.kind != "whynot" or toward(c.aux[0]) != f or toward(c.aux[1]) != f:
                out.append(tag)
        elif c.sym == "Weakening":
            if away(c.principal).kind != "whynot":
                out.append(tag)
        elif c.sym == "Cocontraction":
            f = away(c.principal)
            if f.kind != "bang" or toward(c.aux[0]) != f or toward(c.aux[1]) != f:
                out.append(tag)
        elif c.sym == "Coweakening":
            if away(c.principal).kind != "bang":
                out.append(tag)
        elif c.sym == "Box":
            inner = c.inner
            if inner is None:
                out.append(f"{where}BoxNoInner: cell {c.id}")
                continue
            if len(inner.free) != len(c.aux) + 1 or not inner.free:
                out.append(f"{where}BoxDoorCount: cell {c.id}")
                continue
            iw = inner.wire_of()
            fp = {p for p, _ in inner.free}
            for w in inner.wires:
                # the content wire may run straight to a door (boxed axiom),
                # but a fully disconnected floating wire is malformed
                if w.a in fp and w.b in fp and inner.free[0][0] not in (w.a, w.b):
                    out.append(f"{where}BoxFloatingWire: cell {c.id}")
            bad = False
            for p, _ in inner.free:
                if p not in iw:
                    bad = True
            if bad:
                out.append(f"{where}BoxDoorUnwired: cell {c.id}")
            else:
                content = iw[inner.free[0][0]].toward(inner.free[0][0])
                if away(c.principal) != bang(content):
                    out.append(tag)
                for i, (p, _) in enumerate(inner.free[1:]):
                    door = dual(iw[p].toward(p))
                    if door.kind != "bang" or toward(c.aux[i]) != door:
                        out.append(tag + f" door {i}")
            _validate(inner, out, where + f"box{c.id}/")
    return out


# ---------------------------------------------------------------------------
# Canonical form
#
# Strategy: recursively canonicalize box contents, flatten maximal
# (co)contraction trees into n-ary unordered nodes, absorb neutral
# (co)weakening leaves, then compute an exact canonical labelling of the
# resulting multigraph by colour refinement with individualisation.
# Refinement re-signs only the classes next to a class that just split, and
# the search skips the branches that an automorphism found between two
# leaves maps onto branches already searched (McKay & Piperno, "Practical
# graph isomorphism, II", 2014); the labelling is the one the full search
# gives, so pruning changes no byte and keeps symmetric nets polynomial.  The
# canonical certificate decides equality and comes first: flattening and
# labelling make it, and make every check of the net's wiring.  A concrete
# representative (left combs, numbered by `_rebuild`) is rebuilt from the
# labelling when something reads it (`_Canon`).  Nets with one certificate
# rebuild to the same bytes, so which net of a certificate is rebuilt
# changes no output.  `certificate` labels and never rebuilds, box contents
# included: a box's contents are rebuilt only when a net holding the box is.


class _FlatNode:
    __slots__ = ("key", "sym", "inner", "cell", "text")

    def __init__(self, key, sym, inner=None, cell=None, text=None):
        self.key = key  # hashable initial colour
        self.sym = sym
        self.inner = inner  # the box's contents, as the cell holds them
        self.cell = cell  # the cell the node was made from; None if free
        self.text = text  # repr(key) if made in advance: a box's, see _Canon

    def unwired(self, what: str) -> UnwiredPort:
        if self.cell is None:
            return UnwiredPort(f"free port {self.key[1]!r} has no wire")
        return UnwiredPort(f"{self.cell.sym} cell {self.cell.id} has an unwired {what}")


class _FlatEdge:
    """Endpoint slots: 'p', ('a', i) for ordered aux, 'a' unordered, 'f'."""

    __slots__ = ("n0", "s0", "n1", "s1", "ty")

    def __init__(self, n0, s0, n1, s1, ty):
        self.n0, self.s0, self.n1, self.s1, self.ty = n0, s0, n1, s1, ty

    def end(self, i):
        return (self.n0, self.s0, self.ty) if i == 0 else (self.n1, self.s1, dual(self.ty))


class _End(NamedTuple):
    """One end of a flattened edge, with the texts the labelling compares."""

    node: int
    slot: object
    slot_text: str  # repr(slot)
    ty: Formula  # read from this end toward the other
    ty_text: str  # fmt_formula(ty)


class _SlotTexts(dict):
    """repr of each slot value, made on first use: there are only a few."""

    def __missing__(self, slot):
        text = self[slot] = repr(slot)
        return text


_SLOT_TEXT = _SlotTexts()


# makes an _End without the NamedTuple constructor's argument handling
_new_tuple = tuple.__new__


def _ends(e: _FlatEdge) -> tuple[_End, _End]:
    back = dual(e.ty)
    return (
        _new_tuple(_End, (e.n0, e.s0, _SLOT_TEXT[e.s0], e.ty, fmt_formula(e.ty))),
        _new_tuple(_End, (e.n1, e.s1, _SLOT_TEXT[e.s1], back, fmt_formula(back))),
    )


_NARY = {"Contraction": "NContr", "Cocontraction": "NCocontr"}
_NEUTRAL = {"NContr": "Weakening", "NCocontr": "Coweakening"}


def _flatten(net: Net):
    """Return (nodes: dict id -> _FlatNode, edges: list[_FlatEdge]).

    Raises UnwiredPort for a free or cell port without a wire of its own
    (none ends there, another free or cell port is the same port, or the
    port is two wire ends), for a wire end that no free or cell port owns,
    CyclicNet for a (co)contraction tree that feeds its own root: an
    edge from the principal of a flattened node into its own aux, and
    DerivationMismatch for a unary (co)contraction node whose two edges
    carry formulas it cannot type, which no splice could join."""
    wired = net._indexed()._wire_key
    if len(wired) < 2 * len(net.wires):  # some port is two wire ends
        ends: set[int] = set()
        for w in net.wires:
            if w.a == w.b:
                raise UnwiredPort(f"port {w.a} is both ends of one wire")
            for p in (w.a, w.b):
                if p in ends:
                    raise UnwiredPort(f"port {p} is the end of two wires")
                ends.add(p)
    nodes: dict[int, _FlatNode] = {}
    nid = 0
    loose = None  # the first unwired port, raised once the wires are read

    port_node: dict[int, tuple[int, object]] = {}
    # keyed by label only: a net's interface is a labelled set (a box's
    # contents add the position where it matters, see _contents_entry)
    for p, lbl in net.free:
        nodes[nid] = node = _FlatNode(("free", lbl), "free")
        if p not in wired or p in port_node:
            loose = loose or node.unwired("free port")
        port_node[p] = (nid, "f")
        nid += 1
    for c in net.cells:
        if c.sym == "Box":
            entry = _contents_entry(c.inner)
            node = _FlatNode(("cell", "Box", entry.cert), "Box", c.inner, c, entry.box_text())
        elif c.sym in _NARY:
            node = _FlatNode(("cell", _NARY[c.sym]), _NARY[c.sym], cell=c)
        else:
            node = _FlatNode(("cell", c.sym), c.sym, cell=c)
        nodes[nid] = node
        if c.principal not in wired or c.principal in port_node:
            loose = loose or node.unwired("principal port")
        port_node[c.principal] = (nid, "p")
        for i, p in enumerate(c.aux):
            if p not in wired or p in port_node:
                loose = loose or node.unwired(f"aux port {i}")
            port_node[p] = (nid, "a" if node.sym in _NEUTRAL else ("a", i))
        nid += 1

    edges: list[_FlatEdge] = []
    try:
        for w in net.wires:
            (na, sa) = port_node[w.a]
            (nb, sb) = port_node[w.b]
            edges.append(_FlatEdge(na, sa, nb, sb, w.ty))
    except KeyError as e:
        raise UnwiredPort(f"wire end {e.args[0]} is no free or cell port") from None
    if loose is not None:
        raise loose

    def simplify(candidates):
        # Associativity: an edge from the principal of u into an aux slot
        # of v, both the same n-ary kind, fuses u into the root of v's tree,
        # by union-find.  Neutrality: a (co)weakening on an aux slot of the
        # matching n-ary node disappears together with its edge.  A
        # principal has one edge, so neither makes or spoils another, and
        # all of `candidates` are settled in one pass.  An edge whose ends
        # are already one tree closes a cycle: the tree feeds its own root.
        root: dict[int, int] = {}

        def find(n: int) -> int:
            while n in root:
                root[n] = root.get(root[n], root[n])  # path halving
                n = root[n]
            return n

        dropped = set()
        for e in candidates:
            if e.s0 == "p" and e.s1 == "a":
                nu, nv = e.n0, e.n1
            elif e.s1 == "p" and e.s0 == "a":
                nu, nv = e.n1, e.n0
            else:
                continue
            usym, vsym = nodes[nu].sym, nodes[nv].sym
            if usym == vsym:
                if (ru := find(nu)) == (rv := find(nv)):
                    raise CyclicNet("a (co)contraction tree feeds its own root")
                root[ru] = rv
                dropped.add(e)
            elif usym == _NEUTRAL[vsym]:
                del nodes[nu]
                dropped.add(e)
        if dropped:
            edges[:] = [e for e in edges if e not in dropped]
        if root:
            top = {n: find(n) for n in root}
            for e in edges:
                e.n0, e.n1 = top.get(e.n0, e.n0), top.get(e.n1, e.n1)
            for n in top:
                del nodes[n]

    def degenerate():
        # Degenerate n-ary nodes: arity 0 becomes the neutral cell, arity 1
        # dissolves by splicing its principal edge with its only aux edge.
        # Their edge ends, in edge order, are read from one index.  Every
        # unary node is typed before the first is spliced: a splice can
        # hand another a neutral leaf, which would leave it nullary
        # unchecked.  Returns the edges that may now simplify, or None when
        # no node is degenerate.
        ends_at = {n: [] for n, node in nodes.items() if node.sym in _NEUTRAL}
        if not ends_at:
            return None
        for e in edges:
            if e.n0 in ends_at:
                ends_at[e.n0].append((e, 0, e.s0))
            if e.n1 in ends_at:
                ends_at[e.n1].append((e, 1, e.s1))
        splice = None
        for n, at in ends_at.items():
            aux_edges = [(e, i) for e, i, s in at if s == "a"]
            if len(aux_edges) == 0 and splice is None:
                node = nodes[n]
                node.sym = _NEUTRAL[node.sym]
                node.key = ("cell", node.sym)
                # no leaf yet: its principal edge, were it into an aux of
                # its former kind, would have fused
                return []
            if len(aux_edges) == 1:
                (ea, ia) = aux_edges[0]
                # every principal port is wired, and flattening keeps it so
                (ep, ip) = next((e, i) for e, i, s in at if s == "p")
                if ep is ea:  # the principal looped onto the only aux
                    raise CyclicNet("a (co)contraction tree feeds its own root")
                (xn, xs, xty) = ep.end(1 - ip)  # xty reads x -> principal
                (yn, ys, yty) = ea.end(1 - ia)
                # the new edge y -> x carries what flowed out of the
                # principal, which a unary node types as what flows into
                # its aux
                if yty is not (ty := dual(xty)):
                    c = nodes[n].cell
                    raise DerivationMismatch(
                        f"{c.sym} cell {c.id}, left unary, takes {fmt_formula(yty)} "
                        f"into its aux and gives {fmt_formula(ty)} out of its principal"
                    )
                splice = splice or (n, ep, ea, _FlatEdge(yn, ys, xn, xs, ty))
        if splice is None:
            return None
        n, ep, ea, spliced = splice
        edges.remove(ep)
        edges.remove(ea)
        edges.append(spliced)
        del nodes[n]
        return [spliced]

    simplify(edges)
    while (made := degenerate()) is not None:
        simplify(made)
    return nodes, edges


# the n-ary node over the leaves of a tree, and the cell of a tree without
# any, by whether the tree's root is an input
_TREE_NODE = {True: ("NContr", "Weakening"), False: ("NCocontr", "Coweakening")}


def _flat_area(free, inputs, crossings: dict, payload: Formula):
    """What `_flatten` returns for a normal routing area, built from its
    interface and its crossings alone: `free` is the area's free list,
    `inputs` the set of its input ports, `crossings` the number of crossing
    wires per (input port, output port) pair, and `payload` the !A that
    every wire carries from the inputs to the outputs.

    One free node per entry of `free`, in order; one n-ary node per tree
    with two or more leaves, on an edge from its root, and a (co)weakening
    for a tree with none; then one edge per crossing between the "a" slots
    of the nodes of its two trees, or the free node of a tree with one
    leaf, which the tree's root edge becomes.  Every edge reads `payload`
    in the direction of flow."""
    leaves = Counter()
    for (pi, po), k in crossings.items():
        leaves[pi] += k
        leaves[po] += k
    nodes = {nid: _FlatNode(("free", lbl), "free") for nid, (_, lbl) in enumerate(free)}
    ends: dict[int, tuple[int, object]] = {}  # root port -> where its crossings end
    edges: list[_FlatEdge] = []
    for root, (p, _) in enumerate(free):
        into = p in inputs
        if leaves[p] == 1:
            ends[p] = (root, "f")
            continue
        n_ary, empty = _TREE_NODE[into]
        sym, nid = n_ary if leaves[p] else empty, len(nodes)
        nodes[nid] = _FlatNode(("cell", sym), sym)
        edge = (root, "f", nid, "p") if into else (nid, "p", root, "f")
        edges.append(_FlatEdge(*edge, payload))
        ends[p] = (nid, "a")
    for (pi, po), k in crossings.items():
        edges += [_FlatEdge(*ends[pi], *ends[po], payload) for _ in range(k)]
    return nodes, edges


def _contents_entry(inner: Net) -> "_Canon":
    """The entry of a box's contents, labelled on first use and kept in
    `inner._canon` with the free list it was labelled for.  Every Builder
    edit and every assignment of `cells` or `wires` clears it, `copy()`
    starts without one, and an entry made for another free list is not
    used.

    The rules and `validate` match door i with aux port i, so the free
    ports of the contents are keyed by their position as well, unless their
    labels are strings in strictly increasing order, as the compiler and
    the rules make them: then the labels alone give the order."""
    free = tuple(inner.free)
    hit = inner._canon
    if hit is None or hit[0] != free:
        nodes, flat = _flatten(inner)
        labels = [lbl for _, lbl in free]
        if not all(type(lbl) is str for lbl in labels) or any(
            a >= b for a, b in zip(labels, labels[1:])
        ):
            for i, lbl in enumerate(labels):  # the free ports are nodes 0, 1, ...
                nodes[i].key = ("free", lbl, i)
        hit = inner._canon = (free, _labelled(nodes, flat))
    return hit[1]


def _contents(inner: Net) -> Net:
    """The canonical net of a box's contents.  On its rebuild it gets the
    same entry, since reducts share it with their parents; that relies on
    canonicalize returning a canonical net byte for byte."""
    entry = _contents_entry(inner)
    canon = entry.net()
    if canon._canon is None:  # just rebuilt
        canon._canon = (tuple(canon.free), entry)
    return canon


def _refine(adj, colors, moved=None):
    """Iterated colour refinement; returns stable colours (dense ranks).

    `adj` lists each node's (edge code, far node) pairs; an edge code plus
    the far node's colour orders as the pair (edge rank, colour).  Each
    round signs a node by its colour and the sorted codes of its edges, and
    ranks the signatures densely: class by class in colour order, the parts
    of a split class in the order of their sorted codes.  A class can split
    only when a member has an edge to a node whose class split in the round
    before: every other colour moved by one order-preserving relabelling,
    so equal signatures stay equal.  Only those classes are signed again.
    `moved` lists the nodes that left their class since `colors` was
    stable (an individualized node); None signs every class once."""
    colors = dict(colors)
    classes: list[list[int]] = [[] for _ in range(max(colors.values(), default=-1) + 1)]
    for n, c in colors.items():  # each class in node order
        classes[c].append(n)
    if moved is None:
        touched = range(len(classes))
    else:
        touched = {colors[v] for n in moved for _, v in adj[n]}
    while True:
        parts = {}
        for c in touched:
            members = classes[c]
            if len(members) < 2:
                continue
            by_tail: dict[tuple, list[int]] = {}
            for n in members:
                tail = tuple(sorted([code + colors[v] for code, v in adj[n]]))
                by_tail.setdefault(tail, []).append(n)
            if len(by_tail) > 1:
                parts[c] = [by_tail[t] for t in sorted(by_tail)]
        if not parts:
            return colors
        ranked: list[list[int]] = []
        for c, members in enumerate(classes):
            for part in parts.get(c, (members,)):
                if len(ranked) != c or part is not members:
                    for n in part:
                        colors[n] = len(ranked)
                ranked.append(part)
        classes = ranked
        touched = {colors[v] for split in parts.values() for part in split for n in part
                   for _, v in adj[n]}


def _coded(nodes, edges):
    """(adjacency, initial colours) that refinement reads.

    Each edge end is coded by the rank of its (slot text, far slot text,
    formula text) among those of the net, times a width above every colour,
    so refinement sorts integers in the order of the texts; a node lists
    its ends in edge order.  A node's initial colour is the rank of the
    text of its key, its repr: a box's is kept on its contents entry
    (`_Canon.box_text`), the others are made here.  Labels are strings, as
    `validate` asks, so keys are tuples of strings, integers and
    certificates made of those: two keys have one text exactly when they
    are equal."""
    width = len(nodes) + 1  # above every colour, individualized ones too
    ends = [
        ((e0.slot_text, e1.slot_text, e0.ty_text), (e1.slot_text, e0.slot_text, e1.ty_text))
        for e0, e1 in edges
    ]
    code = {t: i * width for i, t in enumerate(sorted({t for pair in ends for t in pair}))}
    adj: dict[int, list] = {n: [] for n in nodes}
    for (e0, e1), (t0, t1) in zip(edges, ends):
        adj[e0.node].append((code[t0], e1.node))
        adj[e1.node].append((code[t1], e0.node))
    texts = {n: node.text or repr(node.key) for n, node in nodes.items()}
    rank = {t: i for i, t in enumerate(sorted(set(texts.values())))}
    return adj, {n: rank[t] for n, t in texts.items()}


def _canonical_labelling(nodes, edges):
    """Exact canonical labelling; returns (certificate, node -> position)."""
    adj, colors = _coded(nodes, edges)
    # Depth-first search: a branch individualizes, one pick at a time, each
    # node of its least class of two or more, giving the pick the top colour,
    # and the first least leaf certificate wins.  A leaf with the best leaf's
    # certificate maps onto it by an automorphism, which joins the orbits of
    # every branch on the path whose picks above it the automorphism fixes.
    # A pick in the orbit of a finished pick is skipped, and the search backs
    # up to the first branch whose current pick now is in one: each skipped
    # leaf is the image of one already seen, with its certificate, so the
    # same leaf wins.
    best = None  # (certificate, position map) of the first least leaf
    stack: list[_Branch] = []
    picks: list[int] = []  # the current pick of each branch on the stack

    def visit(colors):
        nonlocal best
        top = max(colors.values(), default=-1) + 1
        if top < len(colors):
            stack.append(_Branch(colors, top))
            return
        cert, pos = _certificate(nodes, edges, colors)
        if best is None or cert < best[0]:
            best = (cert, pos)
        elif cert == best[0]:
            at = {i: n for n, i in best[1].items()}
            gamma = {n: at[i] for n, i in pos.items()}
            for depth, branch in enumerate(stack):
                for n in branch.cell:
                    branch.join(n, gamma[n])
                if branch.find(picks[depth]) in branch.done:
                    del stack[depth + 1:], picks[depth + 1:]
                    return
                if gamma[picks[depth]] != picks[depth]:
                    return

    visit(_refine(adj, colors))
    while stack:
        branch = stack[-1]
        if len(picks) == len(stack):  # the current pick is finished
            branch.done.add(branch.find(picks.pop()))
        pick = branch.next_pick()
        if pick is None:
            stack.pop()
            continue
        picks.append(pick)
        colors = dict(branch.colors)
        colors[pick] = branch.top
        visit(_refine(adj, colors, (pick,)))
    return best


class _Branch:
    """A search node of the labelling: its stable colours, the least class
    of two or more in node order, the index of its next pick, and the orbits
    of that class under the automorphisms found below it (a union-find
    forest) with the roots of those that hold a finished pick."""

    __slots__ = ("colors", "top", "cell", "next", "orbit", "done")

    def __init__(self, colors, top):
        self.colors, self.top = colors, top
        least = min(c for c, size in Counter(colors.values()).items() if size > 1)
        self.cell = [n for n, c in colors.items() if c == least]
        self.next = 0
        self.orbit: dict[int, int] = {}
        self.done: set[int] = set()

    def find(self, n: int) -> int:
        while n in self.orbit:
            n = self.orbit[n]
        return n

    def join(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.orbit[ra] = rb
            if ra in self.done:
                self.done.add(rb)

    def next_pick(self):
        while self.next < len(self.cell):
            pick = self.cell[self.next]
            self.next += 1
            if self.find(pick) not in self.done:
                return pick
        return None


_FIRST = itemgetter(0)


def _oriented(edges, pos):
    """Each edge read from its lesser end by (position, slot text, formula
    text), as (certificate entry, near end, far end), in certificate order.
    The formula text decides only between two ends with one node and one
    slot text, a wire between two unordered aux slots of one n-ary node:
    a formula and its dual never share a text, so the entry does not
    depend on the way the wire was read, just as `_rebuild` reads each wire
    in the direction whose text is least."""
    out = []
    for e0, e1 in edges:
        i, j = pos[e0.node], pos[e1.node]
        if i > j or i == j and (e0.slot_text, e0.ty_text) > (e1.slot_text, e1.ty_text):
            e0, e1, i, j = e1, e0, j, i
        out.append(((i, j, e0.slot_text, e1.slot_text, e0.ty_text), e0, e1))
    out.sort(key=_FIRST)
    return out


def _certificate(nodes, edges, order):
    """(certificate, node -> position) of a discrete colouring `order`.
    Refinement ranks colours densely, so a discrete colouring numbers the
    nodes 0, 1, ...: each node's colour is its position, and inverting the
    map lists the nodes in position order without a sort."""
    ranked = [None] * len(order)
    for n, i in order.items():
        ranked[i] = n
    node_part = tuple(nodes[n].key for n in ranked)
    return (node_part, tuple(entry for entry, _, _ in _oriented(edges, order))), order


def _rebuild(nodes, edges, pos) -> Net:
    """Build the concrete canonical representative, making each cell and
    wire once.  Its numbering, which `routenet reduce` prints:

    * edge k in certificate order is the wire on ports 2k + 1, at its end
      with the lesser (position, slot text), and 2k + 2;
    * cells take ids 1, 2, ... in position order;
    * an n-ary node becomes a left comb of binary cells over its leaves,
      ordered by the position of the far node, then by edge.  Each comb cell
      takes the next two ports after the edges': its principal, then the end
      of the wire into the next cell's first aux.  The last principal takes
      over the root wire, so the root port and the last cell's second port
      stay unused;
    * every wire reads its formula in the direction whose text is least (a
      formula and its dual never share a text), and the wires are listed by
      their first port.

    `_flatten` has checked the wiring: every port has its own wire and every
    n-ary node at least two leaves."""

    def wire(p, q, near, far):  # near: the edge end at p
        return Wire(p, q, near.ty) if near.ty_text <= far.ty_text else Wire(q, p, far.ty)

    oriented = _oriented(edges, pos)
    slots: dict[int, dict] = {n: {"a": []} for n in nodes}  # node -> slot -> port
    for k, (_, e0, e1) in enumerate(oriented):
        for e, p, far in ((e0, 2 * k + 1, e1), (e1, 2 * k + 2, e0)):
            if e.slot == "a":
                slots[e.node]["a"].append((pos[far.node], k, p))
            else:
                slots[e.node][e.slot] = p

    cells, wires, free = [], [], []  # free: (key[2:], label, port)
    port = 2 * len(oriented)
    for n in sorted(nodes, key=pos.__getitem__):
        node, at = nodes[n], slots[n]
        if node.sym == "free":
            free.append((node.key[2:], node.key[1], at["f"]))
        elif node.sym in _NEUTRAL:
            sym = "Contraction" if node.sym == "NContr" else "Cocontraction"
            root = at["p"]
            _, e0, e1 = oriented[(root - 1) // 2]
            near, far = (e0, e1) if root % 2 else (e1, e0)
            leaves = [p for *_, p in sorted(at["a"])]
            acc = leaves[0]
            for i, leaf in enumerate(leaves[1:], 2):
                cells.append(Cell(len(cells) + 1, sym, port + 1, [acc, leaf]))
                if i < len(leaves):  # the result wire into the next cell
                    wires.append(wire(port + 1, port + 2, near, far))
                acc = port = port + 2
            at["p"] = port - 1  # the last cell's principal ends the root wire
        else:
            aux = sorted((s[1], p) for s, p in at.items() if isinstance(s, tuple))
            inner = None if node.inner is None else _contents(node.inner)
            cells.append(Cell(len(cells) + 1, node.sym, at["p"], [p for _, p in aux], inner))

    for k, (_, e0, e1) in enumerate(oriented):
        p0 = slots[e0.node]["p"] if e0.slot == "p" else 2 * k + 1
        p1 = slots[e1.node]["p"] if e1.slot == "p" else 2 * k + 2
        wires.append(wire(p0, p1, e0, e1))
    wires.sort(key=lambda w: w.a)
    return Net(cells, wires, [(p, lbl) for _, lbl, p in sorted(free)])


def canonicalize_with_cert(net: Net):
    """(canonical net, certificate) of `net`; the certificate comes first."""
    entry = _labelled(*_flatten(net))
    return entry.net(), entry.cert


def canonicalize(net: Net) -> Net:
    return canonicalize_with_cert(net)[0]


def certificate(net: Net):
    """The certificate of `net`, with every check of `canonicalize_with_cert`
    and no net rebuilt: it labels `net` and the contents of its boxes."""
    return _labelled(*_flatten(net)).cert


def _labelled(nodes, flat) -> "_Canon":
    """The entry of the net flattened to (nodes, flat): the one step that
    labels a net."""
    edges = [_ends(e) for e in flat]
    cert, pos = _canonical_labelling(nodes, edges)
    return _Canon(cert, (nodes, edges, pos))


class _Canon:
    """A net's canonical entry: its certificate, and the labelled form
    (nodes, edge ends, node -> position) it was made from until `net()`
    first reads the canonical net; then that net, rebuilt once and kept.
    `_labelled` makes every entry.  A `NetSum` keeps one per certificate,
    in a table that sums may share, and a box's contents keep one
    (`_contents_entry`), which also keeps the key text of the box
    (`box_text`).

    Invariant: an entry is not edited in place after labelling.  Its
    labelled form refers to the box contents of the labelled net, which a
    rebuild reads, so those are not edited in place either; the compiler
    and the rules edit box contents only on a copy (`_open` and rule `c`
    in rewrite.py).  Every holder of an entry thus reads one net from it."""

    __slots__ = ("cert", "_net", "_labelled", "_text")

    def __init__(self, cert, labelled):
        self.cert, self._net, self._labelled, self._text = cert, None, labelled, None

    def box_text(self) -> str:
        """The text `_coded` ranks a box holding these contents by, the repr
        of its node key, made on first use: it spells out the whole
        certificate, so each labelling of a net holding the box reads it
        here instead of formatting it again."""
        text = self._text
        if text is None:
            text = self._text = repr(("cell", "Box", self.cert))
        return text

    def net(self) -> Net:
        net = self._net
        if net is None:
            net = self._net = _rebuild(*self._labelled)
            self._labelled = None
        return net


# ---------------------------------------------------------------------------
# Sums of nets


class NetSum:
    """An idempotent formal sum of nets; the empty sum is the zero net.

    A sum keeps one `_Canon` entry per certificate, which sums may share
    (through `union`, `without` or a `known` table).  A summand's canonical
    net is rebuilt the first time something reads it: `summand`,
    `summands`, iteration, and through them `serialize`.  Counting,
    comparing and the certificates read no net."""

    def __init__(self, nets=(), known: dict | None = None):
        self._by_cert: dict = {}
        for n in nets:
            self.add(n, known)

    def add(self, net: Net, known: dict | None = None):
        """Add `net` unless a summand has its certificate.  `known`, a table
        of entries shared with other sums (empty, or made by `table`),
        supplies the entry when it holds the certificate and learns it when
        not; by default the sum's own entries are the table.  The checks of
        the net's wiring come before the lookup, so a hit skips none."""
        new = _labelled(*_flatten(net))
        cert = new.cert
        table = self._by_cert if known is None else known
        entry = table.get(cert)
        if entry is None:
            entry = table[cert] = new
        if known is not None:
            self._by_cert.setdefault(cert, entry)

    def table(self) -> dict:
        """A new table holding this sum's entries, for `add`'s `known`."""
        return dict(self._by_cert)

    def union(self, other: "NetSum") -> "NetSum":
        """Both sums; on a shared certificate this sum's summand is kept,
        as `add` keeps the summand already there."""
        s = NetSum()
        s._by_cert = dict(self._by_cert)
        for cert, entry in other._by_cert.items():
            s._by_cert.setdefault(cert, entry)
        return s

    def without(self, cert) -> "NetSum":
        """The sum less the summand with certificate `cert`; the summands
        kept are not canonicalized again."""
        s = NetSum()
        s._by_cert = {c: e for c, e in self._by_cert.items() if c != cert}
        return s

    def summand(self, cert) -> Net:
        """The canonical summand with certificate `cert`."""
        return self._by_cert[cert].net()

    def cert_list(self) -> list:
        """The certificates of the summands, in the order they were added."""
        return list(self._by_cert)

    @property
    def summands(self) -> list[Net]:
        return [entry.net() for entry in self._by_cert.values()]

    def certs(self):
        return frozenset(self._by_cert)

    def __len__(self):
        return len(self._by_cert)

    def __iter__(self):
        return (entry.net() for entry in self._by_cert.values())

    def __eq__(self, other):
        if not isinstance(other, NetSum):
            return NotImplemented
        return self.certs() == other.certs()

    def __hash__(self):
        return hash(self.certs())


def canonical_equal(a, b) -> bool:
    """Equality of nets or sums modulo the structural equivalence; no net is
    rebuilt."""
    def certs(x):
        return frozenset([certificate(x)]) if isinstance(x, Net) else x.certs()

    return certs(a) == certs(b)


# ---------------------------------------------------------------------------
# Serialization


def _net_to_obj(net: Net) -> dict:
    return {
        "free": [{"port": p, "label": l} for p, l in net.free],
        "cells": [
            {
                "id": c.id,
                "sym": c.sym,
                "pal": c.principal,
                "aux": list(c.aux),
                **({"box": _net_to_obj(c.inner)} if c.inner is not None else {}),
            }
            for c in net.cells
        ],
        "wires": [
            {"a": w.a, "b": w.b, "ty": fmt_formula(w.ty), "dir": "ab"} for w in net.wires
        ],
    }


def serialize(s) -> bytes:
    """Serialize a Net, a NetSum, or a plain list of Nets to JSON bytes."""
    if isinstance(s, Net):
        s = [s]
    obj = {"sum": [_net_to_obj(n) for n in s]}
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode()


def _net_from_obj(obj, formulas: dict, where="") -> Net:
    """`formulas` maps each formula text already read to its formula."""
    try:
        free = [(f["port"], f["label"]) for f in obj["free"]]
        cells = []
        for c in obj["cells"]:
            inner = _net_from_obj(c["box"], formulas, where + "box/") if "box" in c else None
            cells.append(Cell(c["id"], c["sym"], c["pal"], list(c["aux"]), inner))
        wires = []
        for w in obj["wires"]:
            text, d = w["ty"], w.get("dir", "ab")
            ty = formulas.get(text)
            if ty is None:
                ty = formulas[text] = parse_formula(text)
            if d not in ("ab", "ba"):
                raise ParseError(f"{where}bad wire dir {d!r}: expected 'ab' or 'ba'")
            wires.append(Wire(w["a"], w["b"], ty) if d == "ab" else Wire(w["b"], w["a"], ty))
        return Net(cells, wires, free)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{where}bad net object: {exc}") from exc


def parse(data: bytes):
    """Parse a serialized sum of nets.  Returns a list of Nets (kept as
    written, without canonicalization) wrapped so iteration works."""
    try:
        obj = json.loads(data)
        if not isinstance(obj, dict) or "sum" not in obj or not isinstance(obj["sum"], list):
            raise ParseError("expected top-level object with 'sum' list")
        formulas = {}
        return [_net_from_obj(o, formulas) for o in obj["sum"]]
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.pos) from exc
    except RecursionError:
        raise ParseError("net nested too deeply") from None


# ---------------------------------------------------------------------------
# Graphviz export

_DOT_LABEL = {
    "One": "1",
    "Tensor": "*",
    "Par": "%",
    "Dereliction": "?d",
    "Contraction": "?c",
    "Weakening": "?w",
    "Cocontraction": "!c",
    "Coweakening": "!w",
}


def to_dot(net: Net) -> str:
    lines = ["digraph net {", "  node [shape=circle];"]
    _dot_net(net, lines, "n", "  ")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_net(net: Net, lines, prefix, indent):
    port_home = {}
    for c in net.cells:
        name = f"{prefix}c{c.id}"
        if c.sym == "Box":
            lines.append(f"{indent}subgraph cluster_{name} {{")
            lines.append(f'{indent}  label="!";')
            _dot_net(c.inner, lines, name + "_", indent + "  ")
            lines.append(f'{indent}  {name} [label="!p" shape=box];')
            lines.append(f"{indent}}}")
        else:
            lines.append(f'{indent}{name} [label="{_DOT_LABEL[c.sym]}"];')
        for p in c.ports():
            port_home[p] = name
    for p, lbl in net.free:
        name = f"{prefix}f{p}"
        lines.append(f'{indent}{name} [label="{lbl}" shape=plaintext];')
        port_home[p] = name
    for w in net.wires:
        a = port_home.get(w.a, f"{prefix}p{w.a}")
        b = port_home.get(w.b, f"{prefix}p{w.b}")
        lines.append(f'{indent}{a} -> {b} [label="{fmt_formula(w.ty)}"];')
