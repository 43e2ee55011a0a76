"""The incremental redex index, shared box contents and owned nets, checked
against the plain copying engine kept as the oracle: `find_redexes(n)[0]`
then `apply_redex`, over the same depth-first work list as `normalize`."""
import random
from collections import Counter

import pytest

from routenet import rewrite
from routenet.gen import PROGRAM_SUITE, gen_relation, gen_typed_net, suite_program
from routenet.lang import parse_region_ctx, parse_term
from routenet.errors import BudgetExhausted, StaleRedex
from routenet.proofnet import (
    ONE,
    Builder,
    Cell,
    Net,
    NetSum,
    Wire,
    bang,
    dual,
    parse,
    serialize,
    validate,
)
from routenet.rewrite import (
    ALL,
    ANYDEPTH_EER,
    apply_redex,
    find_redexes,
    normal_nets,
    normalize,
    reduction_graph,
)
from routenet.routing import RoutingArea, build_area, compose_areas
from routenet.translate import compile_program

BUDGET = 200000
TYPED_SEEDS = range(80)


def _chain(depth: int):
    src = "*"
    for _ in range(depth):
        src = rf"(\x. x) ({src})"
    return compile_program(parse_term(src), parse_region_ctx(""))


def _readers(k: int):
    src = " || ".join(["set r *"] + ["get r"] * k)
    return compile_program(parse_term(src), parse_region_ctx("r : Unit"))


def _oracle_steps(net, policy) -> list:
    """(redex, serialized reducts) of every step, firing find_redexes(n)[0]."""
    out, work = [], [net]
    while work:
        n = work.pop()
        rs = find_redexes(n, policy)
        if rs:
            res = apply_redex(n, rs[0])
            out.append((rs[0], [serialize(m) for m in res]))
            work.extend(res)
    return out


def _fired_steps(net, policy, monkeypatch) -> list:
    """(redex, serialized reducts) of every step `normalize` fires."""
    out = []

    def recording(n, r, *args, **kwargs):
        res = apply_redex(n, r, *args, **kwargs)
        out.append((r, [serialize(m) for m in res]))
        return res

    monkeypatch.setattr(rewrite, "apply_redex", recording)
    normalize(net, budget=BUDGET, policy=policy)
    return out


def _deep_cuts():
    """Closed boxes with a coweakening-weakening cut inside, listed against id
    order: two at depth 1 sharing their content, and one whose content holds
    another at depth 2."""
    inner = Net(
        [Cell(1, "One", 1), Cell(2, "Coweakening", 3), Cell(3, "Weakening", 4)],
        [Wire(1, 2, ONE), Wire(3, 4, bang(ONE))],
        [(2, "main")],
    )
    nested = Net(
        [Cell(5, "Box", 11, [], inner), Cell(6, "Coweakening", 13), Cell(7, "Weakening", 14)],
        [Wire(11, 12, bang(ONE)), Wire(13, 14, bang(ONE))],
        [(12, "main")],
    )
    return Net(
        [
            Cell(9, "Box", 31, [], nested),
            Cell(7, "Box", 21, [], inner),
            Cell(4, "Box", 11, [], inner),
        ],
        [Wire(31, 32, bang(bang(ONE))), Wire(21, 22, bang(ONE)), Wire(11, 12, bang(ONE))],
        [(32, "a"), (22, "b"), (12, "c")],
    )


def _door_beside_deep_cut():
    """A closed box against a door of box 3, with a weakening cut inside
    box 3, all in box 1.  Under ANYDEPTH_EER the door cut never fires, and
    firing the deep cut replaces box 3 by a new cell with the same id and
    ports.  The door wire then has two candidates that differ only in that
    cell, which the heap must not compare."""
    one = Net([Cell(1, "One", 1)], [Wire(1, 2, ONE)], [(2, "main")])
    inner = Net(
        [Cell(1, "Box", 1, [], one), Cell(2, "Weakening", 2), Cell(3, "One", 3), Cell(4, "Weakening", 5)],
        [Wire(1, 2, bang(ONE)), Wire(3, 4, ONE), Wire(6, 5, bang(ONE))],
        [(4, "main"), (6, "d")],
    )
    level = Net(
        [Cell(2, "Box", 10, [], one), Cell(3, "Box", 11, [12], inner)],
        [Wire(10, 12, bang(ONE)), Wire(11, 13, bang(ONE))],
        [(13, "main")],
    )
    return Net([Cell(1, "Box", 100, [], level)], [Wire(100, 101, bang(bang(ONE)))], [(101, "o")])


def _inputs():
    for name, _, _ in PROGRAM_SUITE:
        R, p = suite_program(name)
        yield name, compile_program(p, R), ANYDEPTH_EER
    for k in (1, 2, 3, 4):
        yield f"readers-{k}", _readers(k), ANYDEPTH_EER
    for depth in (40, 200):
        yield f"chain-{depth}", _chain(depth), ANYDEPTH_EER
    for seed in TYPED_SEEDS:
        yield f"typed-{seed}", gen_typed_net(random.Random(seed)), ALL
    yield "deep-cuts", _deep_cuts(), ALL
    yield "door-beside-deep-cut", _door_beside_deep_cut(), ANYDEPTH_EER


def test_deep_cuts_net_is_valid():
    assert validate(_deep_cuts()) == []
    paths = [r.path for r in find_redexes(_deep_cuts(), ALL)]
    assert paths == [(4,), (7,), (9,), (9, 5)]


def test_door_beside_deep_cut_net_is_valid():
    assert validate(_door_beside_deep_cut()) == []
    redexes = [(r.path, r.rule) for r in find_redexes(_door_beside_deep_cut(), ALL)]
    assert redexes == [((1,), "c"), ((1, 3), "er")]


INPUTS = list(_inputs())


@pytest.mark.parametrize("net, policy", [i[1:] for i in INPUTS], ids=[i[0] for i in INPUTS])
def test_normalize_fires_the_oracle_redexes(net, policy, monkeypatch):
    want = _oracle_steps(net, policy)
    assert _fired_steps(net, policy, monkeypatch) == want


def _typed_nets_and_reducts():
    for seed in TYPED_SEEDS:
        net = gen_typed_net(random.Random(seed))
        yield net
        for r in find_redexes(net, ALL):
            yield from apply_redex(net, r)


def test_apply_redex_leaves_its_input_untouched():
    for net in _typed_nets_and_reducts():
        before = serialize(net)
        for r in find_redexes(net, ALL):
            for m in apply_redex(net, r):
                # a reduct shares structure with its input; rewriting it
                # further must not reach back either
                m_before = serialize(m)
                for r2 in find_redexes(m, ALL):
                    apply_redex(m, r2)
                assert serialize(m) == m_before
            assert serialize(net) == before


def _classify_both_ways(net: Net, w: Wire):
    """The classifier that reads a wire in each orientation in turn: the
    oracle of the one-look rewrite._classify."""
    owner = net.owner()
    for x, y in ((w.a, w.b), (w.b, w.a)):
        ox, oy = owner.get(x), owner.get(y)
        if ox is None or oy is None:
            continue
        (cx, sx), (cy, sy) = ox, oy
        if sx == "p" and sy == "p":
            rule = rewrite._PAIR_RULE.get((cx.sym, cy.sym))
            if rule is None:
                continue
            if cx.sym == "Box" and cx.aux:
                continue
            return (cx.id, cy.id), (x, y), rule, -1, cx, cy
        if sx == "p" and isinstance(sy, int) and cx.sym == "Box" and not cx.aux and cy.sym == "Box":
            return (cx.id, cy.id), (x, y), "c", sy, cx, cy
    return None


def _levels(net: Net):
    yield net
    for c in net.cells:
        if c.sym == "Box":
            yield from _levels(c.inner)


def _reducts(nets) -> list:
    return [m for n in nets for r in find_redexes(n, ALL) for m in apply_redex(n, r)]


def test_classify_agrees_with_the_two_orientation_oracle():
    """On every wire of the generator nets, the suite programs, and their
    reducts under ALL: one step deep for the generator nets, two for the
    programs, where the first door wires of rule c appear."""
    typed = [gen_typed_net(random.Random(seed)) for seed in TYPED_SEEDS]
    programs = []
    for name, _, _ in PROGRAM_SUITE:
        R, p = suite_program(name)
        programs.append(compile_program(p, R))
    once = _reducts(programs)
    nets = typed + _reducts(typed) + programs + once + _reducts(once)
    rules, open_box_wires = Counter(), 0
    for net in nets:
        for lvl in _levels(net):
            owner = lvl.owner()
            for w in lvl.wires:
                # each wire from both ends, so every case meets both orders
                for v in (w, Wire(w.b, w.a, dual(w.ty))):
                    want = _classify_both_ways(lvl, v)
                    assert rewrite._classify(owner, v) == want
                if want is not None:
                    rules[want[2]] += 1
                ends = [owner.get(w.a), owner.get(w.b)]
                if any(e and e[1] == "p" and e[0].sym == "Box" and e[0].aux for e in ends):
                    open_box_wires += 1
    assert set(rules) == rewrite.RULES
    assert open_box_wires > 0


def _classifications_per_step(net: Net, monkeypatch) -> float:
    calls = [0]
    classify = rewrite._classify

    def counting(*args):
        calls[0] += 1
        return classify(*args)

    monkeypatch.setattr(rewrite, "_classify", counting)
    steps = [0]
    apply = rewrite.apply_redex

    def counting_steps(*args, **kwargs):
        steps[0] += 1
        return apply(*args, **kwargs)

    monkeypatch.setattr(rewrite, "apply_redex", counting_steps)
    normalize(net, budget=BUDGET)
    monkeypatch.undo()
    return calls[0] / steps[0]


def test_per_step_classifications_do_not_grow_with_depth(monkeypatch):
    shallow = _classifications_per_step(_chain(40), monkeypatch)
    deep = _classifications_per_step(_chain(160), monkeypatch)
    assert deep <= 1.25 * shallow, (shallow, deep)


def test_candidates_are_checked_not_classified_again(monkeypatch):
    """A candidate is checked by the identity of its wire and cells: on
    readers k = 4 a step classifies 2.18 wires, and 5.02 when each heap top
    and each applied redex was classified again."""
    per_step = _classifications_per_step(_readers(4), monkeypatch)
    assert per_step <= 2.5, per_step


def _copies_and_fired(net, policy, monkeypatch) -> tuple[int, list]:
    """The `Net.copy` calls `normalize(net)` makes, and the redexes it fires."""
    copies, fired = [0], []
    copy, apply = Net.copy, rewrite.apply_redex

    def counting_copy(n):
        copies[0] += 1
        return copy(n)

    def recording(n, r, *args, **kwargs):
        fired.append(r)
        return apply(n, r, *args, **kwargs)

    monkeypatch.setattr(Net, "copy", counting_copy)
    monkeypatch.setattr(rewrite, "apply_redex", recording)
    normalize(net, budget=BUDGET, policy=policy)
    monkeypatch.undo()
    return copies[0], fired


def test_normalize_copies_do_not_grow_with_depth(monkeypatch):
    shallow, fired = _copies_and_fired(_chain(40), ANYDEPTH_EER, monkeypatch)
    assert len(fired) == 80
    deep, fired = _copies_and_fired(_chain(160), ANYDEPTH_EER, monkeypatch)
    assert len(fired) == 320
    assert shallow == deep == 1  # the input, once


@pytest.mark.parametrize(
    "name",
    ["readers-3", "race", "proj", "captured-set", "deep-cuts"],
)
def test_normalize_copies_only_the_input_splits_and_box_levels(name, monkeypatch):
    """One copy of the input, one per `nd` split, and one per box level a
    fired redex edits: the levels on its path, and the contents rule `c`
    enters."""
    ((net, policy),) = [i[1:] for i in INPUTS if i[0] == name]
    copies, fired = _copies_and_fired(net, policy, monkeypatch)
    rules = Counter(r.rule for r in fired)
    assert copies == 1 + rules["nd"] + sum(len(r.path) for r in fired) + rules["c"]
    if name == "readers-3":
        assert (copies, len(fired), rules["nd"]) == (49, 683, 48)


PRESERVED = [i for i in INPUTS if i[0] not in ("readers-4", "chain-200")]


@pytest.mark.parametrize("net, policy", [i[1:] for i in PRESERVED], ids=[i[0] for i in PRESERVED])
def test_reduction_leaves_its_input_nets_as_they_were(net, policy):
    other = _readers(1)
    nets = [net, other, net]
    total = NetSum([net, other])
    before = [serialize(n) for n in nets], serialize(total)
    normalize(net, budget=BUDGET, policy=policy)
    list(normal_nets(nets, budget=BUDGET, policy=policy))
    normalize(total, budget=BUDGET, policy=policy)
    assert ([serialize(n) for n in nets], serialize(total)) == before


def test_budget_partial_does_not_alias_the_input():
    exhausted = 0
    for name, net, policy in PRESERVED:
        before = serialize(net)
        try:
            normalize([net, net], budget=3, policy=policy)
        except BudgetExhausted as exc:
            partial = exc.partial
        else:
            continue
        exhausted += 1
        assert all(p is not net for p in partial), name
        # rewriting the unfinished nets in place does not reach the input
        for p in partial:
            rs = find_redexes(p, policy)
            if rs:
                apply_redex(p, rs[0], owned=True)
        assert serialize(net) == before, name
    assert exhausted >= 20


def _contract_nets():
    """Generator nets under ALL and the suite programs under ANYDEPTH_EER."""
    for seed in TYPED_SEEDS:
        yield gen_typed_net(random.Random(seed)), ALL
    for name, _, _ in PROGRAM_SUITE:
        R, p = suite_program(name)
        yield compile_program(p, R), ANYDEPTH_EER


def test_a_redex_applies_to_its_net_and_its_copies_only():
    """A redex holds the wire and cells it was found at: it applies to its
    net and to copies, which share them, and is stale on a parsed net, on a
    net without its path's boxes, and once its cut wire is replaced by an
    equal wire."""
    checked = 0
    for net, policy in _contract_nets():
        (parsed,) = parse(serialize(net))
        for r in find_redexes(net, policy):
            want = [serialize(m) for m in apply_redex(net, r)]
            assert [serialize(m) for m in apply_redex(net.copy(), r)] == want
            assert [serialize(m) for m in apply_redex(net, r)] == want
            for other in (parsed, Net()):
                with pytest.raises(StaleRedex):
                    apply_redex(other, r)
            if r.path:
                continue  # box contents are shared, so only edited on a copy
            checked += 1
            cut = net.wire_at(r.wire[0])
            moved = net.copy()
            b = Builder(moved)
            b.remove_wire(cut)
            b.wire(cut.a, cut.b, cut.ty)
            in_place = net.copy()
            Builder(in_place).reend(cut.a, cut.a)
            for m in (moved, in_place):
                assert m.wire_at(r.wire[0]) == cut
                with pytest.raises(StaleRedex):
                    apply_redex(m, r)
    assert checked >= 100


def _fields(o):
    if isinstance(o, Net):  # a level: which cells and wires it holds
        return tuple(map(id, o.cells)), tuple(map(id, o.wires)), list(o.free)
    if isinstance(o, Cell):
        return o.id, o.sym, o.principal, list(o.aux), o.inner
    return o.a, o.b, o.ty


def _reachable(nets) -> dict:
    """id -> object for every level, Cell and Wire reachable from `nets`."""
    out, todo = {}, list(nets)
    while todo:
        n = todo.pop()
        if id(n) in out:
            continue
        out[id(n)] = n
        for c in n.cells:
            out[id(c)] = c
            if c.inner is not None:
                todo.append(c.inner)
        for w in n.wires:
            out[id(w)] = w
    return out


def _areas():
    for seed in range(6):
        rng = random.Random(seed)
        r = gen_relation(rng, max_in=3, max_out=3, exact=True)
        s = gen_relation(rng, max_in=3, max_out=3, exact=True)
        s = s.relabel(dict(zip(s.domain, r.codomain)), {o: "z" + o[1:] for o in s.codomain})
        k = 1 + seed % 3
        yield build_area(RoutingArea(r)), list(r.codomain)[:k], build_area(RoutingArea(s)), list(s.domain)[:k]


def test_no_cell_or_wire_changes_in_place():
    """The rule the redex index rests on: normalizing, reduction graphs and
    composing areas change no Cell, Wire or level reachable from their
    inputs, field by field."""
    inputs = list(_contract_nets()) + [(_readers(k), ANYDEPTH_EER) for k in (1, 2, 3, 4)]
    areas = list(_areas())
    objects = _reachable([n for n, _ in inputs] + [n for a, _, b, _ in areas for n in (a, b)])
    before = {k: _fields(o) for k, o in objects.items()}
    for net, policy in inputs:
        normalize(net, budget=BUDGET, policy=policy)
        reduction_graph(net, max_nodes=40)
    for a, outs, b, ins in areas:
        compose_areas(a, outs, b, ins)
    assert {k: _fields(o) for k, o in objects.items()} == before



def _indexes(n: Net) -> tuple:
    """What the indexes of level `n` answer, by object identity: owner(),
    wire_of(), max_port(), max_cid() and cell_by_id up to the highest id."""

    def cell(cid):
        try:
            return id(n.cell_by_id(cid))
        except KeyError:
            return None

    top = n.max_cid()
    return (
        {p: (id(c), slot) for p, (c, slot) in n.owner().items()},
        {p: id(w) for p, w in n.wire_of().items()},
        n.max_port(),
        top,
        [cell(cid) for cid in range(top + 2)],
    )


def test_incremental_indexes_equal_fresh_ones(monkeypatch):
    """After every reduct `normalize` makes, each level on the redex's path
    answers index queries as a net built afresh from its cells, wires and
    free ports: the rules edit the indexes in place, one end or one cell at
    a time."""
    checked = [0]
    apply = rewrite.apply_redex

    def checking(n, r, *args, **kwargs):
        res = apply(n, r, *args, **kwargs)
        for m in res:
            for depth in range(len(r.path) + 1):
                lvl = rewrite._level(m, r.path[:depth])
                fresh = Net(lvl.cells, lvl.wires, lvl.free)
                assert _indexes(lvl) == _indexes(fresh), (r.rule, r.path[:depth])
            checked[0] += 1
        return res

    monkeypatch.setattr(rewrite, "apply_redex", checking)
    for name, net, policy in INPUTS:
        if not name.startswith("chain-"):
            normalize(net, budget=BUDGET, policy=policy)
    assert checked[0] >= 7000, checked[0]
