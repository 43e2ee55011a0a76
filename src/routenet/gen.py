"""Seeded random generators and the verification suites shared by the CLI
and the acceptance tests.

Generators cover multirelations/areas, routing nets built by juxtaposing two
areas and feeding outputs back into inputs (traced into normal areas, or
left with their cuts unreduced), and small arbitrary well-typed nets (built
as producer/consumer pairs joined by cuts).  The program suite
is a fixed list of closed well-typed source programs exercising β-reduction,
store writes, reads, races and the two-outcome projection example.
"""
from __future__ import annotations

import random
from typing import Callable, NamedTuple

from .errors import CycleRisk, NotAreaShaped, RoutenetError
from .lang import outcome, parse_region_ctx, parse_term, step, value_trees, values
from .multirel import LabelSet, Multirelation, compose, trace_formula
from .paths import count_paths_all
from .proofnet import (
    Builder,
    Formula,
    Net,
    ONE,
    bang,
    tensor,
    validate,
)
from .rewrite import ALL, apply_redex, find_redexes, normal_certs, normalize, reduction_graph
from .routing import (
    RoutingArea,
    build_area,
    compose_areas,
    feedback,
    free_io,
    juxtapose,
    path_semantics,
    read_area,
    semantics,
    trace_net,
    transit,
)
from .translate import compile_program, value_certs

# ---------------------------------------------------------------------------
# Random multirelations and areas


def gen_relation(
    rng: random.Random,
    max_in: int = 4,
    max_out: int = 4,
    max_entry: int = 3,
    exact: bool = False,
) -> Multirelation:
    ni = max_in if exact else rng.randint(1, max_in)
    no = max_out if exact else rng.randint(1, max_out)
    dom = LabelSet(tuple(f"i{k}" for k in range(1, ni + 1)))
    cod = LabelSet(tuple(f"o{k}" for k in range(1, no + 1)))
    entries = {}
    for i in dom:
        for o in cod:
            v = rng.randint(0, max_entry)
            if v:
                entries[(i, o)] = v
    return Multirelation(dom, cod, entries)


def gen_area(rng: random.Random, **kw) -> RoutingArea:
    return RoutingArea(gen_relation(rng, **kw))


# ---------------------------------------------------------------------------
# Random routing nets: two areas side by side, outputs fed back into inputs


ROUTING_NET_MAX_CELLS = 25  # cells in a generated routing net
TYPED_NET_MAX_CELLS = 12  # cells in a generated well-typed net


def gen_routing_net(rng: random.Random) -> Net:
    """A normal area: one or two pairs traced across two areas."""
    return _fed_back_areas(rng, trace_net)


def gen_cut_net(rng: random.Random) -> Net:
    """A routing net with cuts: the areas of `gen_routing_net`, drawn the
    same way, with one or two pairs fed back and left unreduced."""
    return _fed_back_areas(rng, lambda n, i, o: feedback(n, [(i, o)]))


def _fed_back_areas(rng: random.Random, feed: Callable) -> Net:
    """Juxtapose two areas and apply `feed(net, i, o)` one or two times,
    each to the first shuffled input-output pair that closes no cycle."""
    for _ in range(50):
        a = build_area(gen_area(rng, max_in=3, max_out=3, max_entry=2))
        b = build_area(gen_area(rng, max_in=3, max_out=3, max_entry=2))
        n = juxtapose(a, b)
        for _ in range(rng.randint(1, 2)):
            ins, outs = ([l for _, l in side] for side in free_io(n))
            rng.shuffle(ins)
            rng.shuffle(outs)
            n = _feed_first(n, ins, outs, feed)
            if n is None:
                break
        else:
            if len(n.cells) <= ROUTING_NET_MAX_CELLS:
                return n
    raise RoutenetError("could not generate a routing net within bounds")


def _feed_first(n: Net, ins: list[str], outs: list[str], feed: Callable) -> Net | None:
    for i in ins:
        for o in outs:
            try:
                return feed(n, i, o)
            except CycleRisk:
                continue
    return None


# ---------------------------------------------------------------------------
# Random well-typed nets: producer/consumer pairs joined by cuts


def _gen_formula(rng: random.Random, depth: int) -> Formula:
    """Cut formulas: exponentials and tensors of exponentials."""
    if depth <= 0 or rng.random() < 0.7:
        return bang(_gen_content(rng, depth - 1))
    return tensor(_gen_formula(rng, depth - 1), _gen_formula(rng, depth - 1))


def _gen_content(rng: random.Random, depth: int) -> Formula:
    if depth <= 0:
        return ONE
    r = rng.random()
    if r < 0.5:
        return ONE
    if r < 0.8:
        return _gen_formula(rng, depth)
    return tensor(_gen_content(rng, depth - 1), _gen_content(rng, depth - 1))


def _consumable(f: Formula) -> bool:
    if f.kind == "bang":
        return True
    if f.kind == "tensor":
        return _consumable(f.left) and _consumable(f.right)
    return False


def _producible(f: Formula) -> bool:
    if f.kind in ("one", "bang"):
        return True
    if f.kind == "tensor":
        return _producible(f.left) and _producible(f.right)
    return False


def _producer(b: Builder, rng: random.Random, f: Formula, depth: int) -> int:
    """A dangling end emitting f."""
    if f.kind == "bang":
        r = rng.random()
        if depth > 0 and r < 0.45 and _producible(f.left):
            ib = Builder()
            q = _producer(ib, rng, f.left, depth - 1)
            inner = ib.finish([(q, "main")])
            box = b.cell("Box", 0, inner)
            qo = b.port()
            b.wire(box.principal, qo, f)
            return qo
        if depth > 0 and r < 0.7:
            c = b.cell("Cocontraction", 2)
            b.reend(_producer(b, rng, f, depth - 1), c.aux[0])
            b.reend(_producer(b, rng, f, depth - 1), c.aux[1])
            qo = b.port()
            b.wire(c.principal, qo, f)
            return qo
        cw = b.cell("Coweakening", 0)
        qo = b.port()
        b.wire(cw.principal, qo, f)
        return qo
    if f.kind == "one":
        one = b.cell("One", 0)
        qo = b.port()
        b.wire(one.principal, qo, ONE)
        return qo
    if f.kind == "tensor":
        t = b.cell("Tensor", 2)
        b.reend(_producer(b, rng, f.left, depth - 1), t.aux[0])
        b.reend(_producer(b, rng, f.right, depth - 1), t.aux[1])
        qo = b.port()
        b.wire(t.principal, qo, f)
        return qo
    raise RoutenetError(f"cannot produce {f!r}")


def _consumer(b: Builder, rng: random.Random, f: Formula, depth: int) -> int:
    """A dangling end consuming f (its outward formula is dual(f))."""
    if f.kind == "bang":
        r = rng.random()
        if depth > 0 and r < 0.35 and _consumable(f.left):
            d = b.cell("Dereliction", 1)
            b.reend(_consumer(b, rng, f.left, depth - 1), d.aux[0])
            q = b.port()
            b.wire(q, d.principal, f)
            return q
        if depth > 0 and r < 0.65:
            c = b.cell("Contraction", 2)
            b.reend(_consumer(b, rng, f, depth - 1), c.aux[0])
            b.reend(_consumer(b, rng, f, depth - 1), c.aux[1])
            q = b.port()
            b.wire(q, c.principal, f)
            return q
        wk = b.cell("Weakening", 0)
        q = b.port()
        b.wire(q, wk.principal, f)
        return q
    if f.kind == "tensor":
        p = b.cell("Par", 2)
        b.reend(_consumer(b, rng, f.left, depth - 1), p.aux[0])
        b.reend(_consumer(b, rng, f.right, depth - 1), p.aux[1])
        q = b.port()
        b.wire(q, p.principal, f)
        return q
    raise RoutenetError(f"cannot consume {f!r}")


def gen_typed_net(rng: random.Random) -> Net:
    for _ in range(100):
        b = Builder()
        for _ in range(rng.randint(1, 2)):
            f = _gen_formula(rng, rng.randint(1, 2))
            qp = _producer(b, rng, f, rng.randint(1, 2))
            qc = _consumer(b, rng, f, rng.randint(1, 2))
            b.fuse(qp, qc)
        n = b.net
        if len(n.cells) <= TYPED_NET_MAX_CELLS:
            problems = validate(n)
            if problems:
                raise RoutenetError(f"generator made an invalid net: {problems}")
            return n
    raise RoutenetError("could not generate a typed net within bounds")


# ---------------------------------------------------------------------------
# Fixed program suite

PROGRAM_SUITE: list[tuple[str, str, str]] = [
    ("unit", "", "*"),
    ("id-unit", "", r"(\x. x) *"),
    ("nested-beta", "", r"(\x. x) ((\y. y) *)"),
    ("first", "", r"(\x. \y. x) * *"),
    ("second", "", r"(\x. \y. y) * *"),
    ("apply-id", "", r"(\f. f *) (\y. y)"),
    ("discard", "", r"(\x. (\y. x) *) *"),
    ("set-get", "r : Unit", r"set r * || get r"),
    ("store-get", "r : Unit", r"get r || r <= *"),
    (
        "race",
        "r : Unit -> Unit",
        r"get r || r <= (\z. z) || r <= (\z. (\w. w) z)",
    ),
    ("latent-set", "r : Unit", r"(\u. set r u) * || get r"),
    ("latent-get", "r : Unit", r"(\u. get r) * || r <= *"),
    ("captured-set", "r : Unit", r"(\x. (\u. set r x) *) * || get r"),
    ("two-readers", "r : Unit", r"set r * || get r || get r"),
    ("stored-fn", "f : Unit -> Unit", r"set f (\u. u) || get f *"),
    (
        "stored-effectful-fn",
        "f : Unit -{r}> Unit\nr : Unit",
        r"set f (\u. get r) || get f * || r <= *",
    ),
    (
        "two-refs",
        "a : Unit\nb : Unit",
        r"set a * || set b * || (\u. \w. u) (get a) (get b)",
    ),
    ("ho-latent", "r : Unit", r"(\g. g *) (\u. set r *) || get r"),
    (
        "proj",
        "r : Unit -> Unit\n"
        "s : (Unit -> Unit) -> ((Unit -> Unit) -> (Unit -> Unit))",
        r"get s (\z. z) (\z. (\w. w) z) || s <= (\x. \y. x) || s <= (\x. \y. y)",
    ),
]


def suite_program(name: str):
    for n, ctx, src in PROGRAM_SUITE:
        if n == name:
            return parse_region_ctx(ctx), parse_term(src)
    raise KeyError(name)


# ---------------------------------------------------------------------------
# Verification checks, one case each

CONFLUENCE_MAX_NODES = 3000  # reduction graph nodes before a case is skipped
PROGRAM_BUDGET = 200000  # rewriting steps for one compiled suite program


def check_trace(rng: random.Random):
    """Tracing a zero entry of an area: net semantics == trace formula."""
    for _ in range(50):
        area = gen_area(rng)
        r = area.rel
        zeros = [(i, o) for i in r.domain for o in r.codomain if r(i, o) == 0]
        if not (len(r.domain) > 1 and len(r.codomain) > 1 and zeros):
            continue
        i, o = rng.choice(zeros)
        net = build_area(area)
        got = semantics(trace_net(net, i, o))
        want = trace_formula(r, i, o)
        return got == want, f"trace at ({i},{o}): {got.entries} vs {want.entries}"
    return True, "skipped: no traceable area drawn"


def check_paths_area(rng: random.Random):
    area = gen_area(rng)
    net = build_area(area)
    return path_semantics(net) == area.rel, "area path counting"


def check_paths_net(rng: random.Random):
    net = gen_cut_net(rng)
    return path_semantics(net) == semantics(net), "routing net path counting"


def check_compose(rng: random.Random):
    r = gen_relation(rng, max_in=3, max_out=3, exact=True)
    s_raw = gen_relation(rng, max_in=3, max_out=3, exact=True)
    # align s's inputs with r's outputs and keep its own outputs distinct
    s = s_raw.relabel(
        {i: o for i, o in zip(s_raw.domain, r.codomain)},
        {o: "z" + o[1:] for o in s_raw.codomain},
    )
    net = compose_areas(
        build_area(RoutingArea(r)),
        list(r.codomain),
        build_area(RoutingArea(s)),
        list(s.domain),
    )
    got = semantics(net)
    want = compose(r, s)
    return got == want, f"composition: {got.entries} vs {want.entries}"


def check_characterize(rng: random.Random):
    """The normal form of a routing net, in canonical form, is an area."""
    net = gen_cut_net(rng)
    nf = normalize(net)
    if len(nf) != 1:
        return False, f"normal form has {len(nf)} summands"
    try:
        read_area(nf.summands[0])
    except NotAreaShaped as e:
        return False, f"normal form not an area: {e}"
    return True, "characterization"


def check_path_preservation(rng: random.Random):
    net = gen_cut_net(rng)
    free = [p for p, _ in net.free]
    pairs = [(i, o) for i in free for o in free if i != o]
    base = count_paths_all(net, free, free)
    for r in find_redexes(net, ALL):
        results = apply_redex(net, r)
        if len(results) != 1:
            return False, f"structural rule {r.rule} produced a sum"
        m = results[0]
        after = count_paths_all(m, free, free)
        for pr in pairs:
            if after[pr] != base[pr]:
                return False, f"rule {r.rule} changed paths at {pr}"
    return True, "path preservation"


def check_transit(rng: random.Random):
    area = gen_area(rng)
    i = rng.choice(list(area.rel.domain))
    net = build_area(area)
    counts = transit(net, i)  # raises if the residual area is disturbed
    want = {o: area.rel(i, o) for o in area.rel.codomain}
    if counts != want:
        return False, f"transit counts {counts} vs {want}"
    return True, "transit"


def check_confluence(rng: random.Random):
    net = gen_typed_net(rng)
    nodes, edges, truncated = reduction_graph(net, policy=ALL, max_nodes=CONFLUENCE_MAX_NODES)
    outgoing = {i: set() for i in range(len(nodes))}
    for i, j in edges:
        outgoing[i].add(j)
    sinks = [i for i, outs in outgoing.items() if not outs]
    if truncated:
        return True, "skipped: graph truncated"
    if not sinks:
        return False, "finite graph with no sink (reduction cycle)"
    if len(sinks) != 1:
        return False, f"{len(sinks)} distinct normal forms"
    # a sink exists: the graph must be acyclic (weak implies strong)
    if _reaches_cycle(outgoing, 0):
        return False, "sink exists but the graph has a cycle"
    return True, "confluence"


def _reaches_cycle(outgoing: dict, start) -> bool:
    """Whether a cycle is reachable from `start` in `outgoing` (node ->
    successors): a depth-first search on a stack of its own, not Python's."""
    on_path = {start: True}  # False once the node is done
    stack = [(start, iter(outgoing[start]))]
    while stack:
        i, succ = stack[-1]
        j = next(succ, None)
        if j is None:
            stack.pop()
            on_path[i] = False
        elif on_path.get(j):
            return True
        elif j not in on_path:
            on_path[j] = True
            stack.append((j, iter(outgoing[j])))
    return False


def check_simulation(name: str):
    R, p = suite_program(name)
    nf = normal_certs(compile_program(p, R), budget=PROGRAM_BUDGET)
    for q in step(p):
        if not normal_certs(compile_program(q, R), budget=PROGRAM_BUDGET) <= nf:
            return False, f"{name}: reduct {q!r} not contained"
    if name == "proj":
        matched = nf & value_certs(p, R)
        if len(matched) != 2:
            return False, f"proj: {len(matched)} value summands, wanted 2"
    return True, f"{name}: simulation"


def check_adequacy(name: str):
    R, p = suite_program(name)
    # the value nets of every final interpreter state, and its outcome
    by_cert = {}
    for tree in value_trees(p):
        for cert in normal_certs(compile_program(tree, R), budget=PROGRAM_BUDGET):
            by_cert[cert] = outcome(tree)
    certs = set(by_cert)
    matched = normal_certs(compile_program(p, R), budget=PROGRAM_BUDGET) & certs
    if matched != certs:
        return False, f"{name}: value summands {len(matched)} != targets {len(certs)}"
    # every source outcome is realized by at least one value summand
    realized = {by_cert[c] for c in matched}
    if realized != values(p):
        return False, f"{name}: realized outcomes differ from the interpreter"
    return True, f"{name}: adequacy"


# ---------------------------------------------------------------------------
# Suite runners (shared by `verify` and the acceptance gate)


class Suite(NamedTuple):
    check: Callable
    per_program: bool  # the check takes a program name, else a seeded generator
    cases: int  # default case count; 0 runs every suite program


SUITES = {
    "trace": Suite(check_trace, False, 200),
    "compose": Suite(check_compose, False, 100),
    "paths": Suite(check_paths_net, False, 200),
    "transit": Suite(check_transit, False, 200),
    "characterize": Suite(check_characterize, False, 200),
    "path-preservation": Suite(check_path_preservation, False, 200),
    "confluence": Suite(check_confluence, False, 100),
    "paths-area": Suite(check_paths_area, False, 200),
    "simulate": Suite(check_simulation, True, 0),
    "adequacy": Suite(check_adequacy, True, 0),
}


def run_suite(suite: str, seed: int, cases: int):
    """Returns a list of (index, ok, message).  A program suite runs on the
    first `cases` suite programs, or on all of them when `cases` is 0."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    check, per_program, _ = SUITES[suite]
    if per_program:
        names = [n for n, _, _ in PROGRAM_SUITE]
        args = names[:cases] if cases else names
    else:
        args = [random.Random(seed)] * cases
    return [(k, *check(arg)) for k, arg in enumerate(args)]
