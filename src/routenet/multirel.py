"""Finite multirelations as non-negative integer matrices between labelled sets.

A multirelation between label sets A and B is a map A x B -> N.  Composition
is integer matrix product, the coproduct is the direct sum of matrices, and
the trace closes a feedback pair (i, o) provided they are not already related.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CycleRisk, DomainMismatch, ParseError, UnknownLabel


@dataclass(frozen=True)
class LabelSet:
    """An ordered list of pairwise-distinct opaque labels.

    Order only matters for serialization; all operations treat the labels
    as a set.
    """

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate labels in {self.labels}")

    def __contains__(self, label: str) -> bool:
        return label in self.labels

    def __iter__(self):
        return iter(self.labels)

    def __len__(self):
        return len(self.labels)

    def as_set(self) -> frozenset[str]:
        return frozenset(self.labels)

    def without(self, label: str) -> "LabelSet":
        if label not in self.labels:
            raise UnknownLabel(label)
        return LabelSet(tuple(x for x in self.labels if x != label))

    def tagged(self, prefix: str) -> "LabelSet":
        return LabelSet(tuple(prefix + x for x in self.labels))


def _clean(entries: dict[tuple[str, str], int]) -> dict[tuple[str, str], int]:
    for (x, y), v in entries.items():
        if v < 0:
            raise ValueError(f"negative multiplicity at ({x},{y})")
    return {k: v for k, v in entries.items() if v != 0}


@dataclass(frozen=True)
class Multirelation:
    """Integer matrix between two labelled finite sets; zero entries absent."""

    domain: LabelSet
    codomain: LabelSet
    entries: dict[tuple[str, str], int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "entries", _clean(dict(self.entries)))
        for x, y in self.entries:
            if x not in self.domain or y not in self.codomain:
                raise UnknownLabel(f"({x},{y}) outside domain x codomain")

    def __call__(self, x: str, y: str) -> int:
        if x not in self.domain:
            raise UnknownLabel(x)
        if y not in self.codomain:
            raise UnknownLabel(y)
        return self.entries.get((x, y), 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multirelation):
            return NotImplemented
        return (
            self.domain.as_set() == other.domain.as_set()
            and self.codomain.as_set() == other.codomain.as_set()
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(
            (
                self.domain.as_set(),
                self.codomain.as_set(),
                frozenset(self.entries.items()),
            )
        )

    def relabel(self, dom_map: dict[str, str], cod_map: dict[str, str]) -> "Multirelation":
        """Apply bijective renamings to the domain and codomain labels."""
        dom = LabelSet(tuple(dom_map.get(x, x) for x in self.domain))
        cod = LabelSet(tuple(cod_map.get(y, y) for y in self.codomain))
        ent = {
            (dom_map.get(x, x), cod_map.get(y, y)): v
            for (x, y), v in self.entries.items()
        }
        return Multirelation(dom, cod, ent)


def zero(domain: LabelSet, codomain: LabelSet) -> Multirelation:
    return Multirelation(domain, codomain, {})


def identity(labels: LabelSet) -> Multirelation:
    return Multirelation(labels, labels, {(x, x): 1 for x in labels})


def from_rows(in_labels: list[str], out_labels: list[str], rows: list[list[int]]) -> Multirelation:
    dom, cod = LabelSet(tuple(in_labels)), LabelSet(tuple(out_labels))
    if len(rows) != len(in_labels) or any(len(r) != len(out_labels) for r in rows):
        raise ValueError("row shape does not match the label sets")
    ent = {
        (x, y): rows[i][j]
        for i, x in enumerate(in_labels)
        for j, y in enumerate(out_labels)
    }
    return Multirelation(dom, cod, ent)


def rows_of(r: Multirelation) -> list[list[int]]:
    return [[r(x, y) for y in r.codomain] for x in r.domain]


def compose(r: Multirelation, s: Multirelation) -> Multirelation:
    """(s . r)(x, z) = sum over y of r(x, y) * s(y, z)."""
    if r.codomain.as_set() != s.domain.as_set():
        raise DomainMismatch(
            f"codomain {sorted(r.codomain)} != domain {sorted(s.domain)}"
        )
    ent: dict[tuple[str, str], int] = {}
    for x in r.domain:
        for z in s.codomain:
            total = sum(r(x, y) * s(y, z) for y in r.codomain)
            if total:
                ent[(x, z)] = total
    return Multirelation(r.domain, s.codomain, ent)


def coproduct(r: Multirelation, s: Multirelation) -> Multirelation:
    """Block-diagonal sum; labels are tagged 'L.'/'R.' to force disjointness."""
    dom = LabelSet(r.domain.tagged("L.").labels + s.domain.tagged("R.").labels)
    cod = LabelSet(r.codomain.tagged("L.").labels + s.codomain.tagged("R.").labels)
    ent = {("L." + x, "L." + y): v for (x, y), v in r.entries.items()}
    ent.update({("R." + x, "R." + y): v for (x, y), v in s.entries.items()})
    return Multirelation(dom, cod, ent)


def trace_formula(r: Multirelation, i: str, o: str) -> Multirelation:
    """Close the feedback pair (i, o): T(x,y) = R(x,y) + R(x,o)R(i,y)."""
    if i not in r.domain:
        raise UnknownLabel(i)
    if o not in r.codomain:
        raise UnknownLabel(o)
    if r(i, o) >= 1:
        raise CycleRisk(f"R({i},{o}) = {r(i, o)} >= 1")
    dom, cod = r.domain.without(i), r.codomain.without(o)
    ent: dict[tuple[str, str], int] = {}
    for x in dom:
        for y in cod:
            v = r(x, y) + r(x, o) * r(i, y)
            if v:
                ent[(x, y)] = v
    return Multirelation(dom, cod, ent)


def profile(r: Multirelation):
    """Arity and connection sets per input and output.

    ar(i) = sum over o of R(i,o); conn(i) = outputs with R(i,o) >= 1; dually
    for outputs.  ar(x) >= |conn(x)| always, equality iff R is a relation.
    """
    ar_in = {x: sum(r(x, y) for y in r.codomain) for x in r.domain}
    ar_out = {y: sum(r(x, y) for x in r.domain) for y in r.codomain}
    conn_in = {x: {y for y in r.codomain if r(x, y) >= 1} for x in r.domain}
    conn_out = {y: {x for x in r.domain if r(x, y) >= 1} for y in r.codomain}
    return ar_in, ar_out, conn_in, conn_out


def support(r: Multirelation) -> Multirelation:
    """Forget multiplicities: the underlying 0/1 relation."""
    return Multirelation(
        r.domain, r.codomain, {k: 1 for k in r.entries}
    )


def comm_relation(n: int) -> Multirelation:
    """The n-communication relation on {1..n}: x R y iff x != y."""
    labels = [str(k) for k in range(1, n + 1)]
    return from_rows(
        labels, labels, [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    )


def to_text(r: Multirelation) -> str:
    """Serialize in the matrix text format (labels sorted lexicographically)."""
    ins = sorted(r.domain)
    outs = sorted(r.codomain)
    lines = ["in: " + " ".join(ins), "out: " + " ".join(outs)]
    for x in ins:
        lines.append(" ".join(str(r(x, y)) for y in outs))
    return "\n".join(lines) + "\n"


MAX_TEXT_MULTIPLICITY = 10_000
"""The largest sum of entries `from_text` accepts: a routing area has one
wire per unit of every entry, so a single large entry would exhaust memory."""


def from_text(text: str) -> Multirelation:
    """Parse the matrix text format.  An error in one row names its line,
    counting blank lines, and gives the line's first character as offset."""
    lines, at = [], 0  # (line number, offset of its first character, line)
    for k, ln in enumerate(text.splitlines(keepends=True), 1):
        if ln.strip():
            lines.append((k, at, ln))
        at += len(ln)
    heads = [ln for _, _, ln in lines[:2]]
    if len(heads) < 2 or not heads[0].startswith("in:") or not heads[1].startswith("out:"):
        raise ParseError("expected 'in:' and 'out:' header lines")
    ins, outs = heads[0][3:].split(), heads[1][4:].split()
    rows = []
    for k, at, ln in lines[2:]:
        try:
            row = [int(tok) for tok in ln.split()]
        except ValueError as exc:
            raise ParseError(f"line {k}: bad matrix row {ln.strip()!r}", at) from exc
        if len(row) != len(outs):
            raise ParseError(f"line {k}: expected {len(outs)} entries, got {len(row)}", at)
        if min(row, default=0) < 0:
            raise ParseError(f"line {k}: negative entry {min(row)}", at)
        rows.append(row)
    if len(rows) != len(ins):
        raise ParseError(f"expected {len(ins)} rows, got {len(rows)}")
    try:
        rel = from_rows(ins, outs, rows)
    except ValueError as exc:  # a duplicate label
        raise ParseError(str(exc)) from None
    total = sum(rel.entries.values())
    if total > MAX_TEXT_MULTIPLICITY:
        raise ParseError(f"total multiplicity {total} exceeds {MAX_TEXT_MULTIPLICITY}")
    return rel
