"""The four benchmark workloads.

Each workload turns a seed into a list of cases.  A case is one op (the
timed unit of work), plus an oracle that computes the expected result once
and a predicate that compares an op's output with it.  The oracle and the
predicate run outside the timed region and with span recording off.

Every routenet function is looked up through the module objects in ``rn`` at
call time, so the span recorder in ``spans.py`` sees the calls it wraps.

Why these four (see README.md for the prediction table):

* ``programs``: rewriting dominates and the ``nd`` rule fires; a reduction
  strategy change shows here.
* ``chain``: a single summand whose per-step cost grows with net size; the
  front end is a visible share.  Depth stops at 200: depth 400 hits the
  parser's recursion limit, a known defect this benchmark does not measure.
  The depths are fixed and the seed draws only the variable names and the
  order, so op cost does not depend on the seed.
* ``areas``: the only workload using routing, paths and multirel; only
  structural rules fire.
* ``graph``: canonicalization of large intermediate sums dominates.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

BUDGET = 200000
READERS = (1, 2, 3, 4)  # k = 5 takes 6-7 s per op
CHAIN_DEPTHS = (40, 80, 120, 160, 200)
AREA_CASES_PER_KIND = 48
GRAPH_UNCAPPED = ("store-get", "discard", "nested-beta", "second", "set-get", "race")
GRAPH_CAPPED = ("latent-get", "stored-fn", "two-readers")
GRAPH_CAP = 40
GRAPH_NO_CAP = 2000


@dataclass
class Case:
    label: str
    op: Callable[[], Any]
    oracle: Callable[[], Any]
    agrees: Callable[[Any, Any], bool]


def readers_program(k: int) -> tuple[str, str]:
    return "r : Unit", " || ".join(["set r *"] + ["get r"] * k)


def chain_program(depth: int, names: list[str]) -> str:
    src = "*"
    for v in names[:depth]:
        src = f"(\\{v}. {v}) ({src})"
    return src


# ---------------------------------------------------------------------------
# programs: parse -> compile_program -> normalize -> lang.values


def _program_case(rn, label: str, ctx: str, src: str) -> Case:
    def op():
        R = rn.lang.parse_region_ctx(ctx)
        p = rn.lang.parse_term(src)
        nf = rn.rewrite.normalize(rn.translate.compile_program(p, R), budget=BUDGET)
        return nf, rn.lang.values(p)

    def oracle():
        # the value nets of every final interpreter state, as gen.check_adequacy
        R = rn.lang.parse_region_ctx(ctx)
        p = rn.lang.parse_term(src)
        by_cert = {}
        for tree in rn.lang.value_trees(p):
            outcome = tuple(
                sorted(repr(rn.lang.alpha_normalize(t)) for t in rn.lang._threads(tree))
            )
            nf = rn.rewrite.normalize(rn.translate.compile_program(tree, R), budget=BUDGET)
            for s in nf:
                by_cert[rn.proofnet.certificate(s)] = outcome
        return by_cert

    def agrees(out, by_cert):
        nf, vals = out
        certs = set(by_cert)
        matched = {
            rn.proofnet.certificate(s)
            for s in nf.summands
            if rn.translate.is_value_net(s, certs)
        }
        return matched == certs and {by_cert[c] for c in matched} == vals

    return Case(label, op, oracle, agrees)


def programs(rn, rng: random.Random) -> list[Case]:
    progs = [(n, c, s) for n, c, s in rn.gen.PROGRAM_SUITE]
    progs += [(f"readers-{k}", *readers_program(k)) for k in READERS]
    rng.shuffle(progs)
    return [_program_case(rn, n, c, s) for n, c, s in progs]


# ---------------------------------------------------------------------------
# chain: parse -> compile_program -> serialize -> parse -> normalize -> serialize


def chain(rn, rng: random.Random) -> list[Case]:
    def star_certs():
        R = rn.lang.parse_region_ctx("")
        net = rn.translate.compile_program(rn.lang.parse_term("*"), R)
        return rn.rewrite.normalize(net, budget=BUDGET).certs()

    def agrees(out, want):
        return rn.proofnet.NetSum(rn.proofnet.parse(out)).certs() == want

    cases = []
    for depth in CHAIN_DEPTHS:
        names = [f"v{rng.randrange(1000)}" for _ in range(depth)]
        src = chain_program(depth, names)

        def op(src=src):
            R = rn.lang.parse_region_ctx("")
            net = rn.translate.compile_program(rn.lang.parse_term(src), R)
            data = rn.proofnet.serialize(net)
            nf = rn.rewrite.normalize(rn.proofnet.parse(data), budget=BUDGET)
            return rn.proofnet.serialize(nf)

        cases.append(Case(f"chain-{depth}", op, star_certs, agrees))
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# areas: composition, trace, transit and path counting on small areas


def _relation(rn, rng: random.Random, n_in: int, n_out: int, values: list[int], tag: str = "o"):
    """An n_in x n_out relation whose entries are a seeded permutation of a
    fixed multiset, so the net size (and the op cost) does not depend on the
    seed while the wiring does."""
    vals = list(values)
    rng.shuffle(vals)
    dom = [f"i{k}" for k in range(1, n_in + 1)]
    cod = [f"{tag}{k}" for k in range(1, n_out + 1)]
    rows = [vals[r * n_out:(r + 1) * n_out] for r in range(n_in)]
    return rn.multirel.from_rows(dom, cod, rows)


def _compose_case(rn, rng: random.Random, k: int) -> Case:
    r = _relation(rn, rng, 3, 3, [0, 0, 1, 1, 1, 2, 2, 3, 3])
    s = _relation(rn, rng, 3, 3, [0, 0, 1, 1, 1, 2, 2, 3, 3], tag="z")
    s = s.relabel(dict(zip(s.domain, r.codomain)), {})

    def op():
        a = rn.routing.build_area(rn.routing.RoutingArea(r))
        b = rn.routing.build_area(rn.routing.RoutingArea(s))
        net = rn.routing.compose_areas(a, list(r.codomain), b, list(s.domain))
        return rn.routing.semantics(net)

    return Case(f"compose-{k}", op, lambda: rn.multirel.compose(r, s), _eq)


def _trace_case(rn, rng: random.Random, k: int) -> Case:
    r = _relation(rn, rng, 4, 4, [0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3])
    i, o = rng.choice([(i, o) for i in r.domain for o in r.codomain if r(i, o) == 0])

    def op():
        net = rn.routing.build_area(rn.routing.RoutingArea(r))
        return rn.routing.semantics(rn.routing.trace_net(net, i, o))

    return Case(f"trace-{k}", op, lambda: rn.multirel.trace_formula(r, i, o), _eq)


def _transit_case(rn, rng: random.Random, k: int) -> Case:
    r = _relation(rn, rng, 3, 3, [0, 1, 1, 1, 2, 2, 2, 3, 3])
    i = rng.choice(list(r.domain))

    def op():
        return rn.routing.transit(rn.routing.build_area(rn.routing.RoutingArea(r)), i)

    return Case(f"transit-{k}", op, lambda: {o: r(i, o) for o in r.codomain}, _eq)


def _paths_case(rn, rng: random.Random, k: int) -> Case:
    net = rn.gen.gen_routing_net(rng)

    def op():
        return rn.routing.path_semantics(net), rn.routing.semantics(net)

    # the two semantics are computed independently (criterion 02)
    return Case(f"paths-{k}", op, lambda: None, lambda out, _: out[0] == out[1])


def _eq(out, want) -> bool:
    return out == want


def areas(rn, rng: random.Random) -> list[Case]:
    cases = []
    for k in range(AREA_CASES_PER_KIND):
        for make in (_compose_case, _trace_case, _transit_case, _paths_case):
            cases.append(make(rn, rng, k))
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# graph: reduction_graph(policy=ALL) over compiled small suite programs


def _graph_case(rn, name: str, cap: int) -> Case:
    R, p = rn.gen.suite_program(name)
    net = rn.translate.compile_program(p, R)

    def op():
        return rn.rewrite.reduction_graph(net, policy=rn.rewrite.ALL, max_nodes=cap)

    def oracle():
        if cap < GRAPH_NO_CAP:
            return None
        return rn.rewrite.normalize(net, budget=BUDGET, policy=rn.rewrite.ALL).certs()

    def agrees(out, want):
        nodes, edges, truncated = out
        if want is None:  # capped: the exploration must stop exactly at the cap
            return truncated and len(nodes) == cap
        has_out = {i for i, _ in edges}
        sinks = [i for i in range(len(nodes)) if i not in has_out]
        return not truncated and len(sinks) == 1 and nodes[sinks[0]].certs() == want

    return Case(f"graph-{name}", op, oracle, agrees)


def graph(rn, rng: random.Random) -> list[Case]:
    picks = [(n, GRAPH_NO_CAP) for n in GRAPH_UNCAPPED]
    picks += [(n, GRAPH_CAP) for n in GRAPH_CAPPED]
    rng.shuffle(picks)
    return [_graph_case(rn, n, cap) for n, cap in picks]


WORKLOADS = {"programs": programs, "chain": chain, "areas": areas, "graph": graph}
