"""The incremental redex index and shared box contents, checked against the
plain engine kept as the oracle: `find_redexes(n)[0]` then `apply_redex`,
over the same depth-first work list as `normalize`."""
import random

import pytest

from routenet import rewrite
from routenet.gen import PROGRAM_SUITE, gen_typed_net, suite_program
from routenet.lang import parse_region_ctx, parse_term
from routenet.proofnet import ONE, Cell, Net, Wire, bang, serialize, validate
from routenet.rewrite import ALL, ANYDEPTH_EER, apply_redex, find_redexes, normalize
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

    def recording(n, r):
        res = apply_redex(n, r)
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


def _inputs():
    for name, _, _ in PROGRAM_SUITE:
        R, p = suite_program(name)
        yield name, compile_program(p, R), ANYDEPTH_EER
    for k in (1, 2, 3):
        yield f"readers-{k}", _readers(k), ANYDEPTH_EER
    yield "chain-40", _chain(40), ANYDEPTH_EER
    for seed in TYPED_SEEDS:
        yield f"typed-{seed}", gen_typed_net(random.Random(seed)), ALL
    yield "deep-cuts", _deep_cuts(), ALL


def test_deep_cuts_net_is_valid():
    assert validate(_deep_cuts()) == []
    paths = [r.path for r in find_redexes(_deep_cuts(), ALL)]
    assert paths == [(4,), (7,), (9,), (9, 5)]


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


def _classifications_per_step(depth: int, monkeypatch) -> float:
    calls = [0]
    classify = rewrite._classify

    def counting(*args):
        calls[0] += 1
        return classify(*args)

    monkeypatch.setattr(rewrite, "_classify", counting)
    steps = [0]
    apply = rewrite.apply_redex

    def counting_steps(n, r):
        steps[0] += 1
        return apply(n, r)

    monkeypatch.setattr(rewrite, "apply_redex", counting_steps)
    normalize(_chain(depth), budget=BUDGET)
    monkeypatch.undo()
    return calls[0] / steps[0]


def test_per_step_classifications_do_not_grow_with_depth(monkeypatch):
    shallow = _classifications_per_step(40, monkeypatch)
    deep = _classifications_per_step(160, monkeypatch)
    assert deep <= 1.25 * shallow, (shallow, deep)
