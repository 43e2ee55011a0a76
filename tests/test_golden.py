"""Golden bytes: SHA-256 of fixed outputs, pinned so a refactor of net
construction or rewriting shows any change in port or cell numbering.

The raw reduction traces and one-step reducts are not canonicalized, so they
pin the exact ports and cell ids each rule allocates; the normal forms pin
the canonical representatives.  The `canonical/...` entries pin, for each of
several hundred raw nets, both the canonical net and its certificate.  The
`areas/...` entries pin what the area operations return on seeded areas:
the nets of `trace_net` and `compose_areas`, the `semantics` of fed-back
areas, and the texts of the CycleRisk and NotAreaShaped errors they raise.
The `graph/...` entries pin the `reduction_graph` of each suite program at
several node caps: every node serialized, the sorted edges and `truncated`.
To print the table after an intended change of output bytes:

    PYTHONPATH=src python tests/test_golden.py
"""
import hashlib
import json
import random

from routenet.errors import RoutenetError
from routenet.gen import (
    PROGRAM_SUITE,
    gen_cut_net,
    gen_relation,
    gen_routing_net,
    gen_typed_net,
    suite_program,
)
from routenet.lang import parse_region_ctx, parse_term
from routenet.multirel import from_rows, to_text
from routenet.proofnet import Net, Wire, canonicalize_with_cert, dual, serialize
from routenet.rewrite import (
    ALL,
    ANYDEPTH_EER,
    apply_redex,
    find_redexes,
    normalize,
    reduction_graph,
)
from routenet.routing import (
    RoutingArea,
    build_area,
    compose_areas,
    feedback,
    juxtapose,
    read_area,
    semantics,
    trace_net,
    transit,
)
from routenet.translate import compile_program

MATRICES = {
    "m2x2": (["a", "b"], ["x", "y"], [[2, 0], [1, 3]]),
    "m3x3": (["i1", "i2", "i3"], ["o1", "o2", "o3"], [[1, 0, 2], [0, 0, 0], [3, 1, 0]]),
    "m1x1": (["i"], ["o"], [[1]]),
}

# Every 10th net of each raw trace pins its canonical net and certificate.
TRACE_PICK_STEP = 10
CANONICAL_SEEDS = 80
AREA_SEEDS = 24
GRAPH_CAPS = (3, 10, 40, 2000)


def _programs():
    for name, _, _ in PROGRAM_SUITE:
        yield name, *suite_program(name)
    for k in (1, 2, 3, 4):
        src = " || ".join(["set r *"] + ["get r"] * k)
        yield f"readers-{k}", parse_region_ctx("r : Unit"), parse_term(src)
    src = "*"
    for _ in range(40):
        src = rf"(\x. x) ({src})"
    yield "chain-40", parse_region_ctx(""), parse_term(src)


def _raw_steps(net) -> list:
    """The summands of every step `normalize` takes, in the order it takes
    them."""
    out, work = [], [net]
    while work:
        n = work.pop()
        rs = find_redexes(n, ANYDEPTH_EER)
        if rs:
            res = apply_redex(n, rs[0])
            out.append(res)
            work.extend(res)
    return out


def _one_step(net) -> bytes:
    """The net and each of its one-step reducts under every redex."""
    out = [serialize(net)]
    out += [serialize(apply_redex(net, r)) for r in find_redexes(net, ALL)]
    return b"\n".join(out)


def _reducts(net) -> list:
    return [m for r in find_redexes(net, ALL) for m in apply_redex(net, r)]


def _canonical(net) -> bytes:
    canon, cert = canonicalize_with_cert(net)
    return serialize(canon) + b"\n" + repr(cert).encode()


def _graph(net, cap: int) -> bytes:
    nodes, edges, truncated = reduction_graph(net, max_nodes=cap)
    out = [serialize(s) for s in nodes]
    out += [repr(sorted(edges)).encode(), repr(truncated).encode()]
    return b"\n".join(out)


def _compositions():
    """Seeded compositions of two areas over one to three outputs."""
    for seed in range(4):
        rng = random.Random(seed)
        r = gen_relation(rng, max_in=3, max_out=3, exact=True)
        s = gen_relation(rng, max_in=3, max_out=3, exact=True)
        s = s.relabel(dict(zip(s.domain, r.codomain)), {o: "z" + o[1:] for o in s.codomain})
        k = 1 + seed % 3
        yield seed, compose_areas(
            build_area(RoutingArea(r)), list(r.codomain)[:k],
            build_area(RoutingArea(s)), list(s.domain)[:k],
        )


def _area_text(op) -> bytes:
    """The bytes of what `op()` returns, or the type and text of the
    RoutenetError, such as CycleRisk or NotAreaShaped, that it raises."""
    try:
        out = op()
    except RoutenetError as exc:
        return f"{type(exc).__name__}: {exc}".encode()
    if isinstance(out, Net):
        return serialize(out)
    if isinstance(out, dict):  # transit counts
        return json.dumps(out, sort_keys=True).encode()
    return to_text(out).encode()


def _mutated(a: Net, rng: random.Random) -> list[Net]:
    """`a` with a random end of one wire swapped with a random end of
    another, twice, and `a` with one wire's formula turned round."""
    out = []
    for _ in range(2):
        wires = list(a.wires)
        x, y = rng.sample(range(len(wires)), 2)
        ends = {k: [wires[k].a, wires[k].b] for k in (x, y)}
        i, j = rng.randrange(2), rng.randrange(2)
        ends[x][i], ends[y][j] = ends[y][j], ends[x][i]
        for k, (p, q) in ends.items():
            wires[k] = Wire(p, q, wires[k].ty)
        out.append(Net(a.cells, wires, a.free))
    wires = list(a.wires)
    k = rng.randrange(len(wires))
    wires[k] = Wire(wires[k].a, wires[k].b, dual(wires[k].ty))
    return out + [Net(a.cells, wires, a.free)]


def _area_results(seed: int):
    """Yield (kind, output bytes) for the area operations on the areas of
    `seed`: a trace of every pair of a 4 x 4 area (CycleRisk where the
    entry is not 0), a full and a partial composition of two 3 x 3 areas,
    the semantics of two fed-back `gen_cut_net` nets and of each pair of
    the 3 x 3 area fed back alone, and five operations on three mutants of
    the 4 x 4 area."""
    rng = random.Random(seed)
    t = gen_relation(rng, exact=True)
    a = build_area(RoutingArea(t))
    yield "trace", b"\n".join(
        _area_text(lambda: trace_net(a, i, o)) for i in t.domain for o in t.codomain
    )
    r = gen_relation(rng, max_in=3, max_out=3, exact=True)
    s = gen_relation(rng, max_in=3, max_out=3, exact=True)
    s = s.relabel(dict(zip(s.domain, r.codomain)), {o: "z" + o[1:] for o in s.codomain})
    b, c = build_area(RoutingArea(r)), build_area(RoutingArea(s))
    outs = list(r.codomain)
    yield "compose", b"\n".join(
        _area_text(lambda: compose_areas(b, outs[:k], c, list(s.domain)[:k])) for k in (3, 1 + seed % 2)
    )
    fed = [gen_cut_net(rng), gen_cut_net(rng)]
    fed += [feedback(b, [(i, o)]) for i in r.domain for o in outs if r(i, o) == 0]
    yield "semantics", b"\n".join(_area_text(lambda: semantics(n)) for n in fed)
    ops = (
        lambda n, i, o: read_area(n).rel,
        lambda n, i, o: semantics(n),
        trace_net,
        lambda n, i, o: compose_areas(n, [o], b, [list(r.domain)[0]]),
        lambda n, i, o: transit(n, i),
    )
    texts = []
    for m in _mutated(a, rng):
        i, o = rng.choice(list(t.domain)), rng.choice(list(t.codomain))
        texts += [_area_text(lambda: op(m, i, o)) for op in ops]
    yield "errors", b"\n".join(texts)


def golden_outputs():
    """Yield (name, output bytes) for every pinned input."""
    suite = {name for name, _, _ in PROGRAM_SUITE}
    for name, R, p in _programs():
        net = compile_program(p, R)
        yield f"compile/{name}", serialize(net)
        if name in suite or name == "chain-40":
            yield f"normalize/{name}", serialize(normalize(net, budget=200000))
            steps = _raw_steps(net)
            yield f"trace/{name}", b"\n".join(serialize(res) for res in steps)
            nets = [n for res in steps for n in res]
            for k in range(0, len(nets), TRACE_PICK_STEP):
                yield f"canonical/trace-{name}-{k}", _canonical(nets[k])
        if name in suite:
            for cap in GRAPH_CAPS:
                yield f"graph/{name}-{cap}", _graph(net, cap)
    areas = {}
    for name, (dom, cod, rows) in MATRICES.items():
        area = RoutingArea(from_rows(dom, cod, rows))
        areas[name] = build_area(area)
        yield f"area/{name}", serialize(areas[name])
        counts = {i: transit(areas[name], i) for i in dom}
        yield f"transit/{name}", json.dumps(counts, sort_keys=True).encode()
    names = list(MATRICES)
    for a, b in zip(names, names[1:] + names[:1]):
        yield f"juxtapose/{a}+{b}", serialize(juxtapose(areas[a], areas[b]))
    for seed in range(CANONICAL_SEEDS):
        rng = random.Random(seed)
        typed, routing = gen_typed_net(rng), gen_routing_net(rng)
        if seed < 8:
            yield f"step/typed-{seed}", _one_step(typed)
            yield f"step/routing-{seed}", _one_step(routing)
        for kind, net in (("typed", typed), ("routing", routing)):
            yield f"canonical/{kind}-{seed}", _canonical(net)
            for k, m in enumerate(_reducts(net)):
                yield f"canonical/{kind}-{seed}-{k}", _canonical(m)
    for seed, net in _compositions():
        yield f"canonical/compose-{seed}", _canonical(net)
    for seed in range(AREA_SEEDS):
        for kind, data in _area_results(seed):
            yield f"areas/{kind}-{seed}", data


def digests() -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in golden_outputs()}


GOLDEN = {
    "compile/unit": "13d42ccac61cd26a69ce9ae36cad2934d1f532806233a0228407a5312382ad26",
    "normalize/unit": "13d42ccac61cd26a69ce9ae36cad2934d1f532806233a0228407a5312382ad26",
    "trace/unit": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "graph/unit-3": "73db7b3bacb2e9826da6fba52c3691fe88ac817831d974b0548e0277891c2f2c",
    "graph/unit-10": "73db7b3bacb2e9826da6fba52c3691fe88ac817831d974b0548e0277891c2f2c",
    "graph/unit-40": "73db7b3bacb2e9826da6fba52c3691fe88ac817831d974b0548e0277891c2f2c",
    "graph/unit-2000": "73db7b3bacb2e9826da6fba52c3691fe88ac817831d974b0548e0277891c2f2c",
    "compile/id-unit": "4e4bae3672ef866fbf26903d95a42dc0db53f41f8c22875ea0f5a0286304dd65",
    "normalize/id-unit": "13d42ccac61cd26a69ce9ae36cad2934d1f532806233a0228407a5312382ad26",
    "trace/id-unit": "974263c8192f2194839e821709849f31f720a9664c6bb5dcb3d34ffaa3a65999",
    "canonical/trace-id-unit-0": "93890b30869911c21afc5b0101d91df0eeb7020b65367cf9dd7a74776e83d323",
    "graph/id-unit-3": "6a4127f7fef2493ad9b10e1de9c5e119c28482e6a806067cadbde7eb5719ca93",
    "graph/id-unit-10": "6a4127f7fef2493ad9b10e1de9c5e119c28482e6a806067cadbde7eb5719ca93",
    "graph/id-unit-40": "6a4127f7fef2493ad9b10e1de9c5e119c28482e6a806067cadbde7eb5719ca93",
    "graph/id-unit-2000": "6a4127f7fef2493ad9b10e1de9c5e119c28482e6a806067cadbde7eb5719ca93",
    "compile/nested-beta": "80766f6e4544bb73a040221351a8af96471354e54d8401392e6275573a0e4c5d",
    "normalize/nested-beta": "13d42ccac61cd26a69ce9ae36cad2934d1f532806233a0228407a5312382ad26",
    "trace/nested-beta": "5fb838af7bccdbe2efb2befe0e1effe4735a2efc5396fc916543543fd8153f45",
    "canonical/trace-nested-beta-0": "ec6f8cc7a2ac18529adb4770fbd3cab7e4af8e4076d36df8576154433bbed011",
    "graph/nested-beta-3": "39d5903a9cc2016cd8e0ddc635a398472e971b7f218497d4937b4460046e136c",
    "graph/nested-beta-10": "11b12eb06dd444b981e6840214b5de14078362d4d19e00e15d9a8c97540826dc",
    "graph/nested-beta-40": "11b12eb06dd444b981e6840214b5de14078362d4d19e00e15d9a8c97540826dc",
    "graph/nested-beta-2000": "11b12eb06dd444b981e6840214b5de14078362d4d19e00e15d9a8c97540826dc",
    "compile/first": "e38103b3862ec14af29ee7d58b82feceb941bc806aedba8e33b8e30db20ee35f",
    "normalize/first": "13d42ccac61cd26a69ce9ae36cad2934d1f532806233a0228407a5312382ad26",
    "trace/first": "b82c7c63a4a98947abb8030ab0a5a57bb50f0053893bd20e4fdea50e9d8a1af6",
    "canonical/trace-first-0": "b39d990c5b6d94b29116a48aefa00c638f8794b04322677a44d05037ed077af9",
    "graph/first-3": "0d4039fe63381d287508966ff6ee9d2b5c1f8d7a86a3777a1d2b630ae5ee64aa",
    "graph/first-10": "f949034c27a75640c236db6f44b448ef20314f7090ede0747d8b78dc11c8bb00",
    "graph/first-40": "f949034c27a75640c236db6f44b448ef20314f7090ede0747d8b78dc11c8bb00",
    "graph/first-2000": "f949034c27a75640c236db6f44b448ef20314f7090ede0747d8b78dc11c8bb00",
    "compile/second": "222ae7734ff467100455b68663547175f7b92ba5856b4dbfcc30b251cfc43ef3",
    "normalize/second": "13d42ccac61cd26a69ce9ae36cad2934d1f532806233a0228407a5312382ad26",
    "trace/second": "5f430e7a89fe99075562aaccedeed3959ef0f8324a1c61e3b1831f1542e93c99",
    "canonical/trace-second-0": "3b691f8b723c233868312b4b4f8ecad787ecf983d6d2938775ea9a42dfca79a7",
    "graph/second-3": "f7a9983cd9020cccfb0e721af1ed61b2a54848bbf084e1b8828a1efe4386b0cc",
    "graph/second-10": "72f12c4a1529edaf7f185c301e63c61e8a2d560bb2191362417bb25fbcd8395e",
    "graph/second-40": "72f12c4a1529edaf7f185c301e63c61e8a2d560bb2191362417bb25fbcd8395e",
    "graph/second-2000": "72f12c4a1529edaf7f185c301e63c61e8a2d560bb2191362417bb25fbcd8395e",
    "compile/apply-id": "3eb2371d2cb83c142d95a02307bb561aefb627e9ae65fc4476282b92d4cd0871",
    "normalize/apply-id": "13d42ccac61cd26a69ce9ae36cad2934d1f532806233a0228407a5312382ad26",
    "trace/apply-id": "4cca4a7261ed05c604be1b9bf032bf892c47f7320b16537d93d9039c1e2cb8ff",
    "canonical/trace-apply-id-0": "4dacead123b5af0d55d5bdf2f68fcbc21384cb3c074eb4889b1074eb9d21a19e",
    "graph/apply-id-3": "3b69d149b4f59fa0b93c4e6f6266063e83f7d2f814ed2b6a6930e0d148fb8802",
    "graph/apply-id-10": "f777f6a094c9aa3bb55e66861146832bafd844daa2ad3be00606ed08d2b38670",
    "graph/apply-id-40": "f777f6a094c9aa3bb55e66861146832bafd844daa2ad3be00606ed08d2b38670",
    "graph/apply-id-2000": "f777f6a094c9aa3bb55e66861146832bafd844daa2ad3be00606ed08d2b38670",
    "compile/discard": "35afe5eeb0b8389673148fe2b97381b7d951253e815851d3a8bcd86d7287bf63",
    "normalize/discard": "13d42ccac61cd26a69ce9ae36cad2934d1f532806233a0228407a5312382ad26",
    "trace/discard": "7b81f7efcd5fe0b4b1dba644d5d2fea756acddcd8d6a49c3d8f16ed6ca010a9a",
    "canonical/trace-discard-0": "d066dbcb4b9d4bdf967c5db47346225cfc4f39ff8b28f8008f967b986c2db087",
    "graph/discard-3": "c3ddbe3552912054094d93dc300eae834dc7679c5e3a6ff4669207b180af69c7",
    "graph/discard-10": "ca0eab0ed7fd55e3b3201b25d1b97f6d243fefc30e84a6dced576126e238e080",
    "graph/discard-40": "ca0eab0ed7fd55e3b3201b25d1b97f6d243fefc30e84a6dced576126e238e080",
    "graph/discard-2000": "ca0eab0ed7fd55e3b3201b25d1b97f6d243fefc30e84a6dced576126e238e080",
    "compile/set-get": "9eea791df0bae00f47bc17adbdcca4daa329f982cfd665aaddf9cb2a835f742f",
    "normalize/set-get": "9f2c3c82452ea003062b209bab8be27d6e4df548d3019a8d19719fa24c5a22e6",
    "trace/set-get": "8ddc759c63ee95745d157a739482d40c24a394117202b3ff72ef541165c54c63",
    "canonical/trace-set-get-0": "5ace1a950f0af2ec0bed9943d3c0c751d4e8c8369132680870ebe9dad864d810",
    "canonical/trace-set-get-10": "fa63b3b17818be864c49c179f798b59eab1175fc82ce7c5100f3ae646bd8ff05",
    "graph/set-get-3": "950016c72e7202bcc87615820f00b0f6359e6d2d56a8e0ec991a7973c5f84025",
    "graph/set-get-10": "fc851715bb3f8e6cf7be26bacefcdb89ada105f944d629affa506f871222eefa",
    "graph/set-get-40": "c95c04bd8c4dc952048d608d573d0caac0acbb35aa25227a8114c55628dc931b",
    "graph/set-get-2000": "c95c04bd8c4dc952048d608d573d0caac0acbb35aa25227a8114c55628dc931b",
    "compile/store-get": "6540be7649c7df8f15443a0e3430cfb0bcb44ffd3e126949bd0989d6c0e70e67",
    "normalize/store-get": "13d42ccac61cd26a69ce9ae36cad2934d1f532806233a0228407a5312382ad26",
    "trace/store-get": "b4b017a6592cf8e9c3120becbd6fd3896a4aebf55691641fdd78cc14256bc4ef",
    "canonical/trace-store-get-0": "d72b69418d0f97613d09429bbe7257aba730c06ee8066c87fc4533da78293f0e",
    "graph/store-get-3": "cec2a9e2cb20d6b214b2ad05bf9052c0859faf74bc0383dd4f2d530bc87946f5",
    "graph/store-get-10": "62f0b50e5d1d7d2609efab21b388e77d237fd08c856a92eb1516e9ab6b3cbc01",
    "graph/store-get-40": "62f0b50e5d1d7d2609efab21b388e77d237fd08c856a92eb1516e9ab6b3cbc01",
    "graph/store-get-2000": "62f0b50e5d1d7d2609efab21b388e77d237fd08c856a92eb1516e9ab6b3cbc01",
    "compile/race": "3449e45b554ba2b5a0d311e2256b229018501c404bd48b82a07a7f8ab35a0f8c",
    "normalize/race": "0b79c75558c04d0365045f0085d49e285b4b62dd4cf5b9a4ea64bd46d162d636",
    "trace/race": "73e156eb4447da2291b4c70b1f31672d53415a50ed1669d5edbf69354beaf66d",
    "canonical/trace-race-0": "aa8d656f3c086a6c70dced36ed7d9f4fd9a5e3f35774537650ee0319f2821caf",
    "canonical/trace-race-10": "e7cecd006462df5342d747deb4934b283dbe85f263c892a395b738a274a58236",
    "graph/race-3": "809a5540f76eb9e08806e5b1056364c0d8002d3a3ac4de2528951b7f21b6ebbf",
    "graph/race-10": "71fbf9ca2f72246a2524a0aaac21489d11df4fa18feee92ccc6886ce5fe52d9e",
    "graph/race-40": "bbaea0ed9e0ffef60133944c1fb15ebaf594aada82d996f9c1edf7137c5bb4ab",
    "graph/race-2000": "6b9217f2f047351fc32b3fdc3fd6f2dc2254ef6427a59cf8e9ae276eb8b664cc",
    "compile/latent-set": "63da830f25fd0fd16246bb786a0d877414b497c14d6ebcc79a9d7eba22aadf94",
    "normalize/latent-set": "9f2c3c82452ea003062b209bab8be27d6e4df548d3019a8d19719fa24c5a22e6",
    "trace/latent-set": "4763c51abb24a8cb2359525d1f2866524c04b4e03e082bf6e07619e4b1f5e085",
    "canonical/trace-latent-set-0": "aa411c4bea947e6e8bad5ecbb5ff7412f82acc06bb1e25fe0ab99076653f557c",
    "canonical/trace-latent-set-10": "560cd710ebca7a3ba0c5d2664afa627c531db8e7f31fcd7d36fae65c7c9df69b",
    "canonical/trace-latent-set-20": "98eba25de22b2505d8454e217699699e223e1863115418f4a8c293a7bac24118",
    "canonical/trace-latent-set-30": "d0bba8e58188acc85a4b484c6a85009f769f27926c9bf68f4af15eb456864328",
    "canonical/trace-latent-set-40": "e463adf52fb47d89273b05660f2bcaceca302d99c98a305815360323b5fdd843",
    "canonical/trace-latent-set-50": "0283a8fa15678ee2e05616c5953f7e3512c3357218e41c352d218d1893924e29",
    "canonical/trace-latent-set-60": "db8f00185a3c2bc569af8ee29910980fbd4e95e0b73be8c2dafb8ba54603a13f",
    "canonical/trace-latent-set-70": "fe435e64e37be46199d6bb8a25fff737352d0aa080c3a19f914b8d6068de4be1",
    "canonical/trace-latent-set-80": "2f3aae55546125c40310bed5decf193a9df5412bb895f10cc4e1af394c22a160",
    "canonical/trace-latent-set-90": "f0b039d66368037a7da9d0c908375648a12527c61e52e9e8d7d504c3a5daef11",
    "canonical/trace-latent-set-100": "9b62bcbcfaf9d5efd47987ba24a010aeeb9144502241aa8310dcc8a105554913",
    "graph/latent-set-3": "91d776490d311eb325ad5eb8a209d37ed65338d27f096cfda597be6288a813a9",
    "graph/latent-set-10": "2c56ea8cd9177aa48198f9e35d3d46164a3358fb84c82c26a77101083c9eb3dc",
    "graph/latent-set-40": "3d9bd821eed7a34b01ba10374b8cecb3def8b09b2940b03f7240fcae8742349e",
    "graph/latent-set-2000": "e3c0ecbca126492b0a34be897a235dacaf6c12e6be9c188c2fcf9d5b7a5ab4f8",
    "compile/latent-get": "91f7841fb601ed21f94b566f55f3a1d14bc4b29d23e5d33855b9114c83c6648b",
    "normalize/latent-get": "13d42ccac61cd26a69ce9ae36cad2934d1f532806233a0228407a5312382ad26",
    "trace/latent-get": "f06080a1bdf7218d857033bc30144311179e52b58a25c4491ce65ac08ea8ebdb",
    "canonical/trace-latent-get-0": "8ddafa72c78031d2d07dfcfacaa644fafdd53a908a18634b26253230d09b58b1",
    "canonical/trace-latent-get-10": "1b8c725d05ebf635e0522b97c04122c547f534f6adac4515623247bf35b5afe6",
    "canonical/trace-latent-get-20": "af61f87992c12894e18a74dcef1b926e27c818fb70012b3f8f4c59730333db34",
    "canonical/trace-latent-get-30": "815557e38d2312ae960dd23656a3e69256dcab5be42328ba275808161e99c844",
    "canonical/trace-latent-get-40": "c0d11e200a88a938e2c9a385b378cb9f6938bc326d04e49f06c68249757355a6",
    "canonical/trace-latent-get-50": "349d09ef6116eb86bdfab587f62e3993f41070720fff8c549666276bb9f790a4",
    "canonical/trace-latent-get-60": "fa418592f16b3eac2d6c682f14133244d1296613531b4ea2e58c0a27e2a3feab",
    "canonical/trace-latent-get-70": "c0d11e200a88a938e2c9a385b378cb9f6938bc326d04e49f06c68249757355a6",
    "graph/latent-get-3": "5a5d1593b23b5f144ce755fc895fa7417520707140a96147689a2c448fea8ecb",
    "graph/latent-get-10": "6dedc1ba1f0eaa01fd6cbee68b6da8612439272c9663c4df116aab36e6c065c1",
    "graph/latent-get-40": "c4bd988d94ae0356c101d9c4c1df75b9618e54e235cdebb29404f6c6c1adaea1",
    "graph/latent-get-2000": "0420c8ebbf3d633367f8ef317a4a33a34c0a91cfafc1eaa8d7d85c03acbe7c94",
    "compile/captured-set": "dd8bf9bc8963ef49bb0ebf80c31247e4551a40f49561b10a74e429093de5a324",
    "normalize/captured-set": "9f2c3c82452ea003062b209bab8be27d6e4df548d3019a8d19719fa24c5a22e6",
    "trace/captured-set": "dd039af320d6e441900ee03334548b6b7ff93b9c9218826c7d01bb7e2b8fda05",
    "canonical/trace-captured-set-0": "21d506fce61de8f7d98c2d9e32e8e5038b56e20b78e37d00b4f547793908bcf5",
    "canonical/trace-captured-set-10": "5f051098f087d530140d0f497a15e4723fe8adfa4693b7faac8f8b256386790a",
    "canonical/trace-captured-set-20": "02bdc7870ae42956043091c63d7a095df087541e16ef0577a43ce9325bb6b8d7",
    "canonical/trace-captured-set-30": "7f6711c9da20aa300c259aeb6349f43ad331f5f7327267bfec10727a1ac348e4",
    "canonical/trace-captured-set-40": "f18764de1501abaeaf404b3852a3b5ca8f2ff92b7762e37069169bb01d2a490a",
    "canonical/trace-captured-set-50": "bab3cc1c5e1de4c80b562b149dddbabe18aa86855690e6cbaf0c6972f20a677e",
    "canonical/trace-captured-set-60": "35fe855fbb4ecb24b0e140c1c82ba67d5d5070128bd4daa5d9dc208c825f8bd4",
    "canonical/trace-captured-set-70": "57c1f53cf9b588c6c5c181671e3a624a152603a9ab8ead83182597a416573adb",
    "canonical/trace-captured-set-80": "513ccc7d589531bb85218a46e9fa81f4d155a20841be2b91f70c1e92cec60770",
    "canonical/trace-captured-set-90": "50217afddf86113b6170a900db499529402dc498eb60a9037d7c6de599627688",
    "canonical/trace-captured-set-100": "50217afddf86113b6170a900db499529402dc498eb60a9037d7c6de599627688",
    "canonical/trace-captured-set-110": "d1fedd1aeb1c26d01e1475a6b7488dd7e8c8e1e007e9bc525a300b6ab6bb5414",
    "canonical/trace-captured-set-120": "853b2744a17afcf7d7eb3a0093ff24fbaf2faf4d921618d23936f3e6945b6e49",
    "canonical/trace-captured-set-130": "0a172e2f1ee83acf81af6d48f469c99017568739979e21c5866c67593977ca0b",
    "canonical/trace-captured-set-140": "06e72d9d60a52e60c97addd40e2c9701d7ce3b0c8ced6eb4fa66082927fde0d9",
    "canonical/trace-captured-set-150": "84b94a5b9fc441be9b90c73e3c679fede626fa8ecc45b7de379d3539a1f03dfc",
    "canonical/trace-captured-set-160": "a0d9014d9133c11cb64007d44d1bb2bb0532d10ed340952da87ea67b6b49b1f6",
    "canonical/trace-captured-set-170": "ab66aed1a96b171d4b09447e2c369fdb6bebf84130c146103c9a633d41e2d9ca",
    "canonical/trace-captured-set-180": "22e0452c18ccc2b347924ef32a8a8ef13f2e0aa6af6188017ff15b928fbe1014",
    "canonical/trace-captured-set-190": "c64ef75f3ebd8dff7105f779afca62b2e0165de74b6388e70bdb22b57291e326",
    "canonical/trace-captured-set-200": "f7e3e336455cd8a0c3abe15f3c4022478d4b98b6d3e66cdebf24b8ab7820543c",
    "canonical/trace-captured-set-210": "62806d705fad6ef18ebf9b9349b05c9d89a8fb9960e381fc4f7448a370105a0c",
    "canonical/trace-captured-set-220": "cc88e6761de93adfb310ca9a684d2a606812e5f3388b926e4d0e3c973bdca299",
    "canonical/trace-captured-set-230": "84b94a5b9fc441be9b90c73e3c679fede626fa8ecc45b7de379d3539a1f03dfc",
    "canonical/trace-captured-set-240": "6b12f9cc8a9838e1bb04d2830737c6eb43a713573e4e6c740a7a37b69442035e",
    "canonical/trace-captured-set-250": "f5beb491f62650e927c7fed5aa708c7a96efb2f45a06e88af37ebbd160b9b7f3",
    "canonical/trace-captured-set-260": "de99db1f5891b2ae4b2ade9d34846dcbd2829845e1657f0649e5cdb595716839",
    "graph/captured-set-3": "1466b0e0ba826935a7d23f98d8b46d736bb58b3d4f045311120a2563c0c76568",
    "graph/captured-set-10": "254f143d14fac7d1c466771f567542bb3b10dc40594837dc67805103005536be",
    "graph/captured-set-40": "f8b0dd5cf3d38772f05880ee9c62ae929169f03eed2f975fafa8ef18dff5dbb8",
    "graph/captured-set-2000": "c7a8db7ac351c69047065349a062fba0e2ea372ac34ce85954f6a1ce26dd7ee8",
    "compile/two-readers": "5471921465d3a3f92cce08362221c9a9ff6969d8db0e483b35fede60070c03e4",
    "normalize/two-readers": "01633a367dc7e654446a6f011cee1bbbed8638a9a38279b7822cc4d2f885d369",
    "trace/two-readers": "a2cd89eaa94b8bf7daaffe8981d389991a564b00d7250c6e078848ba9106c030",
    "canonical/trace-two-readers-0": "66f0182cfb24f6caa9e7e352facc175bdc9729c2300d3fdb43b2022a223407c9",
    "canonical/trace-two-readers-10": "56f794005aed2ce4ce62daac280de1bb4346d3d783a747af84587ce43fcc2eb6",
    "canonical/trace-two-readers-20": "8614c1b3bafc3e0919b20a5c9d4ebbf00cdb0e774bdd19001369cec6c3b7dd07",
    "canonical/trace-two-readers-30": "715daac291832401ded0c3659e6b577d1b50b74d4665b0f7dd06283eb920146b",
    "canonical/trace-two-readers-40": "5f2f0505072baf0dba4e56e7b80972da53e08a2497fb151e1cf988fe752b8752",
    "canonical/trace-two-readers-50": "003160fd9d2249e6817d6c682168b99e2218580725c7748aa457021e0199ebb8",
    "canonical/trace-two-readers-60": "8abcdf283d31c052124f8c76db635a428cdb66990cd4f9b1f1fb04e32c686e8e",
    "canonical/trace-two-readers-70": "bca0de353ece7436fc56da7337a85d810748a9b655876ee14a5728640c99fd0f",
    "canonical/trace-two-readers-80": "1e3b26c73120f12210e30400a988213fb79280151ceef7ba966213d0749d7ce5",
    "canonical/trace-two-readers-90": "8dcd16874566dc09f4acdddd47cfa227df33bc4629d0fdb1ad434f7638c68c27",
    "canonical/trace-two-readers-100": "21df83adebb46a5e7fea01d049b483adf79fbd4b4950a1577576bb3fb34f460d",
    "canonical/trace-two-readers-110": "466af6dddbd3834a3df24f56ba2589c93de7320ebed9852ac29b0ce1f105353f",
    "graph/two-readers-3": "dda165cc788181ed7bf2eb398ef5493579c62553cd22ccc3f1903d2c5d8bc099",
    "graph/two-readers-10": "2ee30dcb6ddeb87df5a79069dee774462d0700bb4d04d7b6fd51b1e3556ef87e",
    "graph/two-readers-40": "b7a3be92f95bac64e527e284eec36e8b3c822ce105412826c7500a87d750dae4",
    "graph/two-readers-2000": "9a83a6c543c4d794dacd2f23360c2b398a26ca9d949a1f1638806e480a1e163d",
    "compile/stored-fn": "5e213bf68af7311dd930c56b23b54bbd96018e1659c324dd643bb7da4126610d",
    "normalize/stored-fn": "9f2c3c82452ea003062b209bab8be27d6e4df548d3019a8d19719fa24c5a22e6",
    "trace/stored-fn": "6f46216cf6a49284764a8ef21090faa44990d7e30f7de1f1464fd112beff65cf",
    "canonical/trace-stored-fn-0": "14cfe67d3d21a3eab2891e041a02315cae49337477592acd7d890563d2650e01",
    "canonical/trace-stored-fn-10": "7377859b461d0424f303045a75ede9cb0a2a599ce12285e8706a2f4d286082f3",
    "canonical/trace-stored-fn-20": "a9b4eda5d63578f5102091d5af56bc8ee1bd2ad662263febe3784ad851b6ccd1",
    "canonical/trace-stored-fn-30": "b24768a0fbb711dd5e84a4a98514b15f03ccccdca15d1c8c8a3c7b0f575a09e5",
    "canonical/trace-stored-fn-40": "76e8258d0f8d103fc1d0ed349e97f672696234e1f7094378cff4bd74e488f2b9",
    "canonical/trace-stored-fn-50": "35b376ef79edcffec1e1c3b53a8f9fd9124f9c31b2a82901e6951dccde0f5cd7",
    "canonical/trace-stored-fn-60": "206a62909d27ee0f640a4cb96fcaa86ad355070e70893442b569b8086828cd4f",
    "canonical/trace-stored-fn-70": "c4e8eb444a97fe543f3104114ada025d86d9baafd42c4f469ba7e5f8a7caacea",
    "canonical/trace-stored-fn-80": "3674999af8b94c2dc3d4b979ee82a97e7f2157e04ec519dcf2ed7efd17629b18",
    "graph/stored-fn-3": "d3c65541fcbb512ec3c2171665bd22451cf538d2072189044fba86ed2dba79a9",
    "graph/stored-fn-10": "637152f954f8a982057c3b30fbd7787a24af70d27ba101eba6c400f7ce222fef",
    "graph/stored-fn-40": "a35416441a05c1b8bc9274686ee51117115af8b02f63f62969c757aade478e6f",
    "graph/stored-fn-2000": "966a09b184d3e24371cb91ef998aad946e472ee1af45a074cd7a3617847bb48d",
    "compile/stored-effectful-fn": "7286960c99ab737bb5e05219967a4052aabdef052958d79d61afc30abd70131c",
    "normalize/stored-effectful-fn": "9f2c3c82452ea003062b209bab8be27d6e4df548d3019a8d19719fa24c5a22e6",
    "trace/stored-effectful-fn": "ef6dbf1dd88174d1582aa68793ed1ada6ecdc2ff420b96e183cbfdfc9b2b0c16",
    "canonical/trace-stored-effectful-fn-0": "76e8ed34fa4a9c757c099f9edbb7d20ad2956b30eff99a9b0830c2039fe758e0",
    "canonical/trace-stored-effectful-fn-10": "68d2c22c5d84db45a63b7ed0f0add72e27368cf134abffbc31ba92564a650833",
    "canonical/trace-stored-effectful-fn-20": "999a1931715057419d55c98fe32ce4a6307fe786771c8615c970764a7c3cbc2d",
    "canonical/trace-stored-effectful-fn-30": "57ef74b62a5af897ec56545f324c423a52de049c076c487df3d3ec572fad80d0",
    "canonical/trace-stored-effectful-fn-40": "49362fd11ab3b86d5aa528e93c5fe40099ac5ea76056a2eec513e6ff3493229f",
    "canonical/trace-stored-effectful-fn-50": "f705f74e71889e8324546b8ab22a6fe380f0bb4cf2c6bb3e9860b4f192daf99d",
    "canonical/trace-stored-effectful-fn-60": "8d66f8ec13c968ed1b49a006b32bc26f49326bf96fa443c5091caafe8929f462",
    "canonical/trace-stored-effectful-fn-70": "a06bd14c4b82f4523b18413cba19f4efbf181576ad3932c2b0e2b2532a4d0b86",
    "canonical/trace-stored-effectful-fn-80": "1465e4e0422fa4b9aec13eea8cab09ebce5cc3fdc5f02b93b764369a964f022e",
    "canonical/trace-stored-effectful-fn-90": "4a814ef78bd54bc88efb412b7a22df2d252f1fe9a755878cc958b2483a9d8bba",
    "canonical/trace-stored-effectful-fn-100": "4d650cfeecc5034a2fd9d3c4414a7db4cd779d5f684ed975f8cb3510ef71036c",
    "canonical/trace-stored-effectful-fn-110": "577470ff191aef53d495d4ebc7125830849d286ab7b7cf5968aea9db6aca0912",
    "canonical/trace-stored-effectful-fn-120": "57e8dad786e7389ef16fcab8ed809e8c896b65696c77f71403cf92656e1b2c10",
    "canonical/trace-stored-effectful-fn-130": "53026527f21e556829d44d98894f003afc1861155065a842fb31de702ceac121",
    "canonical/trace-stored-effectful-fn-140": "74e3fc1f9102a119e1d7b79c5a83d4e2559f78fb5ab255543110f7c0c5e025bb",
    "canonical/trace-stored-effectful-fn-150": "808e284a65693c5113de5b977e8d0447a4b235acc29f6e442965249e61d24a1a",
    "canonical/trace-stored-effectful-fn-160": "0cf4227c5d3c81791bd2cec675a4a2b10cc9aee9f347ff899dd37eef1f96b9df",
    "canonical/trace-stored-effectful-fn-170": "24d081bfc765acd1813541033f5e51f0a8d90a6cb65e288deb1d05cd4c8cc7c0",
    "canonical/trace-stored-effectful-fn-180": "98e84dbc48a45fb6fb99b3e4c55bd791a7ab8d3e6e8d6ea9a462efb15ec27715",
    "canonical/trace-stored-effectful-fn-190": "22ae698f418591b48da22cfbe277d4c210e9304587fc3afa0f89d50207ecb6ce",
    "canonical/trace-stored-effectful-fn-200": "81377de8015e4bf92873957c069cd7cd8363811235e142f1cb06dc57d49cbcb7",
    "graph/stored-effectful-fn-3": "a15c4806af72d993fe44bc0feb24f9c4485d0f47c278eb199d629d3094d3f020",
    "graph/stored-effectful-fn-10": "a9b0234e9f2a61b3ed90a6e0938e8cdb72805c7791e437a14d92a24223138e46",
    "graph/stored-effectful-fn-40": "29c9e1c2bed53f2278c89c15d4e4424c6a04dc0fbc47ca0e40065162c631b339",
    "graph/stored-effectful-fn-2000": "d0b2cdcc2e166d848b37fd83ab937ac305535c3f614acf2e9c3e0b8f1ce1ff1a",
    "compile/two-refs": "679e1b5e7ad00edcc5f2e8940f29bd47455afd9bd9cfd1f43d69048a758b5b33",
    "normalize/two-refs": "01633a367dc7e654446a6f011cee1bbbed8638a9a38279b7822cc4d2f885d369",
    "trace/two-refs": "efb6610daecd74b856c4f7270e3f416b587836d4cc2122ccdfc8819d93c30149",
    "canonical/trace-two-refs-0": "f50671d855cd15a55dbf0ec48f69525b8feadf61f0b7562942b5c93892e66a2a",
    "canonical/trace-two-refs-10": "353588b608577dff61b97f06b55695b20824a96465e6788ce0244c8475a664dc",
    "canonical/trace-two-refs-20": "0ce9d8c5a4e9114d13121849c989207bb66451f0c61d3cd52fe442313ad54311",
    "canonical/trace-two-refs-30": "b1d370a89c729f4f8392c8edc7a8b9eb27319ba607fbc701086180b74085e0ca",
    "canonical/trace-two-refs-40": "93996d68f18226469fadc5273bdea39a0fffd448b0c6f4dd7ddc3512d31e5b07",
    "canonical/trace-two-refs-50": "d0ee7d2f97e3ab779d59539d5774a792d7ebd3feaaf7f10a5c2bf4859eab9f20",
    "canonical/trace-two-refs-60": "cc240faf66b80aae0ba89cc8a9510759589115d4e3684413f4c76ab74eeb7036",
    "canonical/trace-two-refs-70": "8aa4d6269797f0d4217f932496f17c83939869e75e343e4140c04ed318cb2ba2",
    "canonical/trace-two-refs-80": "26e11469ad8ff1a2de8acab3b00bc653e5cfed4edb3501c7f76b8ec695b17fc3",
    "canonical/trace-two-refs-90": "bc91fffdf5909f85fc6de5e24a6c12ab997ea8bc14c7e64fcc2a294ab7a0c3b3",
    "canonical/trace-two-refs-100": "f66145dcc5669116e3b58d83e21bf3a02125a3f338bf651728454fd6870e0c8d",
    "canonical/trace-two-refs-110": "cb65947b839a8123b829466813f53ab0511b6d44f8e2d1e742978f4337793e1c",
    "canonical/trace-two-refs-120": "7e74d6ea2337970f197a3b4052844718f489317b2ca79c59bf9eae6007e17b13",
    "canonical/trace-two-refs-130": "d72d281e83d6cbf9ce3602b7901c36525e17f98186ca8230fa4ae88257f6d440",
    "canonical/trace-two-refs-140": "49493168c04600d49d49c6b6a71ea6f4751ea240a6f41ceb37f0fc9705cf0841",
    "canonical/trace-two-refs-150": "6ad6cc92f7b3ce5fd352dae285a716176c6f52b029ea130315fbb2ab985337fc",
    "canonical/trace-two-refs-160": "f8829a6de3207359a1042d3b57c1a6e65d7aacf8de658d2e8c5bb7b86079daed",
    "canonical/trace-two-refs-170": "85e9788e71f6a9a60583bc46a7c6f2aa4c0f3cad183003a96719d8027786ae9c",
    "canonical/trace-two-refs-180": "674ca31514db46c5f0b9d7ebfb3cd29d40d18401111f032f82037e231f23f6f8",
    "canonical/trace-two-refs-190": "8b48250e297bd392bff4876f78926c0dfe0f6b5726535a5eac24dd737c4f3a8a",
    "canonical/trace-two-refs-200": "a800b7f6d39cffc3abbf13e5d2dad51ed2fc4e3c81d71c76aaa1445d7a49dc89",
    "canonical/trace-two-refs-210": "9b80d3028b0749828d576ac40916cdea69b95c1811d7c28818f39ca9cbff957f",
    "canonical/trace-two-refs-220": "0c43f78fe05fdd076fe5dc6814e08792cf294c3c76cde2756a881ebca6d2dca0",
    "canonical/trace-two-refs-230": "f1ce9d7385ac2ae9eb398b92da6042a870e00df0848648ec6ba3dd53d0ffa7b7",
    "canonical/trace-two-refs-240": "28a2f6d717217a9d2c36946b1fdda947e3039dc3b22e25f814d0d80a9226079c",
    "canonical/trace-two-refs-250": "3ff927dbe7b60407a9af070937901b9360a09d417127da6b64e63cddd17a6dc3",
    "canonical/trace-two-refs-260": "e920d5b0c4ab622266c420ff66d481635b57d6385fcae22d65efeece72c7d6b3",
    "canonical/trace-two-refs-270": "56dfd9244ec763301ee2207d4fdc73edf4506211403128e649b9c262bc26d761",
    "canonical/trace-two-refs-280": "9b6dffd6c48e8bf1bb0f3318aa8b32f9dd8ff6245e8153cf73be504bdf0a5032",
    "canonical/trace-two-refs-290": "b4ca8c2fa5f6532af788f3be79bea21b29643d4c571d396c7abb25389018e7f5",
    "canonical/trace-two-refs-300": "8d601f5c6497cf9050e2da906e242d9c34f99ff6350dcb5c49691d447533ac1d",
    "canonical/trace-two-refs-310": "3fa18c40c192c90650d25167e9a8e2be6cb7fc530b3fab530739e463e5f7d58b",
    "canonical/trace-two-refs-320": "8b48250e297bd392bff4876f78926c0dfe0f6b5726535a5eac24dd737c4f3a8a",
    "canonical/trace-two-refs-330": "8b48250e297bd392bff4876f78926c0dfe0f6b5726535a5eac24dd737c4f3a8a",
    "canonical/trace-two-refs-340": "09b1194b67edb2b442826bca433ebdb4f90dc10257610286beded7bcaaec0372",
    "canonical/trace-two-refs-350": "5091cd6e64bdd40e89014a303e72d1e0ba75237b808c01a6896fe16211e1909f",
    "canonical/trace-two-refs-360": "0359454903434f383c3e1ea4041d012e0ada0dbd2a643644794f582543dbbbdd",
    "canonical/trace-two-refs-370": "e0313d4fc339a4a71e3835a573e5d7709bd8e20272bd35b60b33192147ff37ee",
    "canonical/trace-two-refs-380": "1fc7f242c43b6cfb5392a187866242b4e5eb1835769c0396d105a4bb758177cc",
    "canonical/trace-two-refs-390": "53f19a04724fe513187ef9c7e0820ffa5503c089f16caa962d1c24f078192e5f",
    "canonical/trace-two-refs-400": "2bf10d75f276b92321497f0c4df2869c22a9de65f20982208cac0bc50f82afab",
    "canonical/trace-two-refs-410": "bb78d18be2d09557b466552657481e204705cdf7b02f67a35f918060029c9809",
    "canonical/trace-two-refs-420": "e0c2d0375ed6625af0e3e3ed8141a965836c41431dbe77fac7ea82798f6f904f",
    "canonical/trace-two-refs-430": "247ba068c760e1c432b475d3b31f03436410809cd1eb79c97bb8996641a2b3ec",
    "canonical/trace-two-refs-440": "ba079db8c3195a5fcfc7dbbfe740ab4552a5ec25eb2f864b978cf246f079b708",
    "canonical/trace-two-refs-450": "3aa13bd948e5aa99491d9dcdddc0df23cf655b9ccb7727abd81aeb198689259a",
    "canonical/trace-two-refs-460": "3aa13bd948e5aa99491d9dcdddc0df23cf655b9ccb7727abd81aeb198689259a",
    "canonical/trace-two-refs-470": "cd49e65af41c7f2eb280a30ce703140d5f1380c7e397a1cd833aac724701754e",
    "canonical/trace-two-refs-480": "8c24d867dd1ccc5e0c60c5ac3353a8b308045e278e28f36290f889b8adcc271f",
    "canonical/trace-two-refs-490": "885fdc6f6604c447aefde5ff9cc5a1852e46a22abe65c5a84edd3f53cf2ab0e8",
    "canonical/trace-two-refs-500": "3f5b78ba39f33c1e581fc6f5ac5b8c6b1a5acc47180ee27608d07e9151a0c787",
    "canonical/trace-two-refs-510": "d155adbfa6e6089413e9db455f23005f062d7cb7e2eb759ea617bbee7eca71c2",
    "canonical/trace-two-refs-520": "08b879983d35309fff283c15d35f09751c1ca4355412d4d20af0c975c2eaec71",
    "canonical/trace-two-refs-530": "e5cb89bf0f0bb6cf7c7ac2675093604e775f5923c3b79e0f77944f59b05181fc",
    "canonical/trace-two-refs-540": "fd90014186011b29b6d843a8e539efdfd9d33e19726ac3384254869e7ab4aa4e",
    "canonical/trace-two-refs-550": "1e05a662d44b4e175e52345d1678bf2d05db4615b933649b90ae9abe5f89ba49",
    "canonical/trace-two-refs-560": "1aabf800a3dcb884b00682cc66f778db6fdb6f93bcb669211b677948a208841b",
    "canonical/trace-two-refs-570": "54e60a8e6bc6c570723ffe6f322ab5102c2b2425881d64ae71f41e4b2013c4cf",
    "canonical/trace-two-refs-580": "27b9553c515fe7f1665a8d7c0aab767e104ec536d0cd978f6c624ce51993fe2f",
    "canonical/trace-two-refs-590": "2775c4a919bd091518b08981dff674b8d20b10056c134108f209150320a37726",
    "canonical/trace-two-refs-600": "eee72acf2a1d69dd19983cc64a97d441ae021f74373f71999706d1ea4088e932",
    "canonical/trace-two-refs-610": "6ee33db6325063cc014ca6d8ac6103c27b7eb8d66d998aa7ed1365fed19d1186",
    "canonical/trace-two-refs-620": "1adb59d4e0562171818e932ffc8feef9222df505a113ab50cde091ffc31af088",
    "canonical/trace-two-refs-630": "6d695bc1aa5e33f235b1c3a19acef1aa741134a79f4b31661c6d7e059a9f3065",
    "canonical/trace-two-refs-640": "04bea73796bb68dc368e0493e51573dc7ccfa2b0c389ebe6e76be88db2c6b30f",
    "canonical/trace-two-refs-650": "ea9db1b546db0c1b88e0c6ecc4428fb80821ac6924a170c58465a9ce570c591a",
    "canonical/trace-two-refs-660": "142bca7a8edf6f57865c4a76d0f202eaeec1e7712a78b2fe98a585fc1620d46e",
    "canonical/trace-two-refs-670": "ce7b6428cd2a4c1c0f942b6efcd184dbe4c4168f2bd14fba42326f096b595f13",
    "canonical/trace-two-refs-680": "338cc0ff0c160394eafe263fab65cd933577a934db6ae32da959bf817efd8000",
    "canonical/trace-two-refs-690": "4592a69808326b8a05cecc0660acee7df843161e2ac8488a231d16ff390bbc66",
    "canonical/trace-two-refs-700": "40c83f6b2bef98dc793fe320fc1d1ea768929ab104fa898302cf7dcb629caec3",
    "canonical/trace-two-refs-710": "a2d64d254a8e15d25bbeed2deb3df5468c47c70cbed2463c61a326d7eb562e2a",
    "canonical/trace-two-refs-720": "c2bdbbb45ac58afa38868eba0285fec70836bff5275a3193764db4504d4e77d5",
    "canonical/trace-two-refs-730": "b3fbf0a280bca0802a35473f3359fe3f4c8c2a835a73c89cc9148c010b40f032",
    "canonical/trace-two-refs-740": "0d8aa3004d00d7161186bc605a12ffa1edd3b8cf26ebfc4ad44bde11fd16a419",
    "canonical/trace-two-refs-750": "03b90acdc39eaba1a0adbd8fbbf6ea9d6bc896e9081a560643a0277017d26643",
    "canonical/trace-two-refs-760": "052c3adbdc269942667c9754efbdcea991e967ddfbd30dcdbe4a2c7132e82236",
    "canonical/trace-two-refs-770": "abbf5c1ee91c9f825352f0524f5a5e7bff593bc7afcd815a2214c4e2b0e79f79",
    "canonical/trace-two-refs-780": "1c54ded23510c0c5cc824f21120603cc6db57550a9ef5ddc0bb62edc5c0365a1",
    "canonical/trace-two-refs-790": "2b2c675ac922f42f01b9bc351265e5a1709130f444aecd45b4ab91b1828abb20",
    "canonical/trace-two-refs-800": "caecd8d2ddf1464321df6eb46ceed6a0758f752431f8016c8c7eae77d13ea04d",
    "canonical/trace-two-refs-810": "794c8044cc63a40eb9dbe82bf377a29989b0ee7ecd9c214637169f15711e43e3",
    "canonical/trace-two-refs-820": "4bc2414eeda44dcfb927591bfd533bd062ed4a59acb957c18d569718100fc48d",
    "canonical/trace-two-refs-830": "2e71d66a0b9db21bccf0eeb98107cca7486f2fa0f80994bc08d131b2c527de1e",
    "canonical/trace-two-refs-840": "9062c80cb3c271e1ecb43b04572c61c335bc037badf3214e84f74e444aa4f09d",
    "canonical/trace-two-refs-850": "8a1cfc36bcd64d69143dea60151271ed086524f437d0173aad15540618d95121",
    "canonical/trace-two-refs-860": "36e3a2754b64761d33bb21eadd8ea82a92964f2e97149bec909a50f99136d0fb",
    "graph/two-refs-3": "49b55aaa9332da390d457ecb446b85582847b939780d2b32c26fd48ad1352f47",
    "graph/two-refs-10": "1e8a0341a2bdb9c33126314854302a9a7d44cfd25cca43fa323c3654f031bf1a",
    "graph/two-refs-40": "cabf08941ebc35affef3ef1c849b922a8970aeea5978747398f3f9a81b6c96c2",
    "graph/two-refs-2000": "26c97a63edfa7ad099fa6e0dd70b52149c676eb3d90ee6ce1f1c48e501313952",
    "compile/ho-latent": "fbf78a364046624a67107aa1b8f62257812be9bf7434d8da0890d8170d816e73",
    "normalize/ho-latent": "9f2c3c82452ea003062b209bab8be27d6e4df548d3019a8d19719fa24c5a22e6",
    "trace/ho-latent": "c61e94c14bc7d707a6f097ff3bbb74a1d6b3dd5bd834d536f91a082fea5cce09",
    "canonical/trace-ho-latent-0": "a5578b37ead20db42e953984b514cda91ecc0dcf9fd288af193265dd3ccb03ae",
    "canonical/trace-ho-latent-10": "f8d35c2c769cbe8d9c81f92d2be18331afded680a2809c1e970fce5c31fb01df",
    "canonical/trace-ho-latent-20": "c57561bb7b72c46d22325c139efb94a01ac0dc1aa1a4118bf238314f534536e3",
    "canonical/trace-ho-latent-30": "78981edb5df4928e8c850eb563c51656d0f49b3b08076da1416313b267eb246c",
    "canonical/trace-ho-latent-40": "9093a24020ee71ce3acb08ce17f3ac6f65751d8e27e7ff7df0d28add156ec91c",
    "canonical/trace-ho-latent-50": "db6da5b81da29c82ddd4e0aa6a4d39622af908e363a9d70373ba3144166b3ef3",
    "canonical/trace-ho-latent-60": "cab7b4e5c49d193836f6c4218e0bd453e98bd8789fa7b1a793fb8683da88ee26",
    "canonical/trace-ho-latent-70": "db3ce8b44f7bc6a191d42853fcbd79f1ede150124216effca781abd01dcbce46",
    "canonical/trace-ho-latent-80": "ad9d8f2bbe07259093d0763a34bd84fcef6ef94352ba28819dc3df759346cecd",
    "canonical/trace-ho-latent-90": "b9dd746ca1a4d283f4931468b0aa12874401f4fc392be08a1deec731d47f301d",
    "canonical/trace-ho-latent-100": "23d22a095c0b926a368312dfe0cb5b8d91603bc65956ad21afa77df7d07a6f15",
    "canonical/trace-ho-latent-110": "b2c306959b61ee44c3dd2ca997cf28d4715b11d0d7633ea4fcfc24dc7bfb554f",
    "canonical/trace-ho-latent-120": "76367a40ba0ec974d4d14ee5b600d991ac5fa164d206d42e54282f64c3c9c3a1",
    "canonical/trace-ho-latent-130": "0b89bca288680302ebf65e352bab27c3b6e4f2d51b42bb0e3335634f3bea0423",
    "canonical/trace-ho-latent-140": "c0a241b46d2ebbb567e94750b27bb5d5c22f9d26f6ff69076e2847bbfa52ef54",
    "canonical/trace-ho-latent-150": "22e0452c18ccc2b347924ef32a8a8ef13f2e0aa6af6188017ff15b928fbe1014",
    "canonical/trace-ho-latent-160": "75f98c03fd8c5b1d98e91c27f751244da207cf0b5dfb5e04ea64650453f6d18e",
    "canonical/trace-ho-latent-170": "f7e3e336455cd8a0c3abe15f3c4022478d4b98b6d3e66cdebf24b8ab7820543c",
    "canonical/trace-ho-latent-180": "84b94a5b9fc441be9b90c73e3c679fede626fa8ecc45b7de379d3539a1f03dfc",
    "canonical/trace-ho-latent-190": "cfbf70304a308458d0eaafafbf7e2d6629fc4cdc68bbebbffbe41ea612a9ad0f",
    "canonical/trace-ho-latent-200": "5dc3b70c66913e5fb95697ae4350532421956b699b0ca32f1f3176bfa3ecb9fb",
    "canonical/trace-ho-latent-210": "47d4b51250fbc459678353b5445f29c80cc9600fa1e46b664d1f1c3a205f4d25",
    "canonical/trace-ho-latent-220": "679d00401877b69e34cd8efe81da20f555a3d06c811a6f864c8b7e40636d540a",
    "canonical/trace-ho-latent-230": "84b94a5b9fc441be9b90c73e3c679fede626fa8ecc45b7de379d3539a1f03dfc",
    "canonical/trace-ho-latent-240": "a939920c17d84f349b6e82e620878298456d7f50f158144727f242c2b9661ee0",
    "canonical/trace-ho-latent-250": "2aab5ba3908871ea5025e9723b2a2075d0d95ba6a318b1ce9c234eacc98ba2ba",
    "canonical/trace-ho-latent-260": "22e0452c18ccc2b347924ef32a8a8ef13f2e0aa6af6188017ff15b928fbe1014",
    "graph/ho-latent-3": "e48aee12206c059e84e3a81d1343396679c52e643faa4bd5075544ddf4c0ab7e",
    "graph/ho-latent-10": "0abec093eb33c9c3690c1eab30372fb8aca7a07b2c0de8d38a428651560e9300",
    "graph/ho-latent-40": "8d63969926c6fd81319205f667834c2318dd954a45ce0e9c32ca80a358c3cf2e",
    "graph/ho-latent-2000": "0e45ba35cc799ceaa6efc59fa2786fb67ba1930a8b8c7319137d716a26075b8d",
    "compile/proj": "ba5a3f6b3ff3091810d71db5355d1d1a05cdca1310aae051a6d56e2d67b86498",
    "normalize/proj": "0b79c75558c04d0365045f0085d49e285b4b62dd4cf5b9a4ea64bd46d162d636",
    "trace/proj": "035b53356bbb3bd56fe94ba8f5c6502e44601ba91441514151113d80c37a7025",
    "canonical/trace-proj-0": "2631bdadd19e5ea0384a3f72f8f2e9449ac45cb3eed7ae7932baee6e36d5b8bd",
    "canonical/trace-proj-10": "c538c5c9b9d66e159f796625f5fcf7dee6b7a4d7150b486c1850724dec38e3e0",
    "canonical/trace-proj-20": "78b7c3742b096e55aa3014438bce6e63491932222016921118cbe02de17490f3",
    "canonical/trace-proj-30": "29b9a531b9bc78766d5cb10dfd072b1ee321a74c4f76df2aec5ab8c598b3903e",
    "canonical/trace-proj-40": "9321d15dbe160fb7683d40012287857b3604a259f750699447ac778c549b306c",
    "canonical/trace-proj-50": "06af9d506701bc1dd88381a8326f4e1ce849d690a0125856ffe86848676729a9",
    "canonical/trace-proj-60": "044715617d2070aa528f8b5e102c0a0c9ff13852e601e17ef959b4f8ec61efb3",
    "canonical/trace-proj-70": "4d558ce9b39983a432c9db8f1667a704ae4dce1f67e0a96beaca151c2de1c755",
    "canonical/trace-proj-80": "fde0dde7596090bb2225c86d12e062bc9083033cf85a88b014a6405aaea44fba",
    "canonical/trace-proj-90": "43726436aee310937c1b3318623a2ac93ce3177bd5177826e02d070e41c8c15d",
    "canonical/trace-proj-100": "4c70ecdab3276bb050e646c09d6ea478da64784c35e87073a478327e27ba19a3",
    "canonical/trace-proj-110": "0819706a11463d2c38245e6a11eae3aeb76c0bb8c5c84b67b20add4f0d84dd7c",
    "canonical/trace-proj-120": "2b3cbb033c72e86a78ae36ab328f4fff7b583cc701876752d928774ba14737b4",
    "canonical/trace-proj-130": "dbc18317ec03209de6d362439048aacb2ce13f17785126646eb562404b77abc8",
    "canonical/trace-proj-140": "7593ff443d7db1dc97d29f86587a7e8c3de5f1bf06beb9eedb93b0ba55892094",
    "canonical/trace-proj-150": "dfa514fd1564d89c3c55952148ba7df485398fc15f9e5398d511fa408105349f",
    "canonical/trace-proj-160": "e587f5a879386b65d22f87dc9463ffbd7759b349d3c5dd3581b6610cb0014409",
    "canonical/trace-proj-170": "44a42813b010ab245ec8336685a114af9c26812641c53391b73a5ff3843713fd",
    "canonical/trace-proj-180": "254c30769faf37fc778b70ba9ee7b2b60126ffe193dba29f00ee20bcc25199a6",
    "canonical/trace-proj-190": "d991a7d1fc50e2e657f4387b5652e07fcc4e18ce984ff500759c570ad1334fc8",
    "canonical/trace-proj-200": "8e44de495fc624fba020298f42e6a607d87b6fd7f15830d76587f1ba7c0aa7bb",
    "canonical/trace-proj-210": "ac0f02d52ab47b27eecc6047bdc500f82bbdb957fbe8ffd8077ea808b6e42413",
    "canonical/trace-proj-220": "b8cf3a82d55a58186bcce40f7295341d14ac54a77d1b7266307b02c8c3a6e6a7",
    "canonical/trace-proj-230": "f00fab1fe014af38f0fcdc6621b0877353d4c5d692a02f8ded058bdd0c53a24f",
    "canonical/trace-proj-240": "cde403a71c7113560eae93f83242a3548fc683970377d016352b6fdaa496f926",
    "canonical/trace-proj-250": "cde403a71c7113560eae93f83242a3548fc683970377d016352b6fdaa496f926",
    "canonical/trace-proj-260": "58785db694295dbcec1ec7b5e7933f1580a9b01beeb030fd0b0eb07df0583b70",
    "canonical/trace-proj-270": "663641a4aa78ded9deb1820cc5c2a39b6c6d9d98ed9529fee35c5bfddc0e8be2",
    "canonical/trace-proj-280": "cc7bd8e5a12261c31fef05f1719c21466b379480916e891faaf6f6c487d33a1a",
    "canonical/trace-proj-290": "2087e5f45c8ad9df0ef4447ad24b7fb79288a5852d6bc371e766f8bea2961fff",
    "canonical/trace-proj-300": "58a9c61dc2c5f6884581819d1b54e26f5b5b3a64fb3785ace1125523128e8aca",
    "canonical/trace-proj-310": "9c50525c1c3f7d76933466e5c5ce9563f513cd5afd073b674cf6d4b0c5d6e690",
    "canonical/trace-proj-320": "329ef0aa6758810a7cd4b52083ce5ed06a3cc73e335f3c27690727c6b210562a",
    "canonical/trace-proj-330": "3081624dc0a901299a9713cbc09e6a2a334e9a655e110640c28254026b902a09",
    "canonical/trace-proj-340": "9e36a298a9b964944a9d7e3ed0e45f2e370b95b821a76e94e79794d197e4690c",
    "canonical/trace-proj-350": "11d6a470a0b485a81002f9e594a284d31d0b2c979cf91d6fd67606feeba1e2c4",
    "canonical/trace-proj-360": "c172ae78c59727718a35fd405c12ff1069587a082f059b619cfa0617e4707431",
    "canonical/trace-proj-370": "1751f7ffbf8714bf2a71d17ac8955d121b080296c36b15091447ede5f5aabe85",
    "canonical/trace-proj-380": "0cac60608a6bf040d4007c0981bfe64ac521766d49b6514ff0c5759b4b0c3a06",
    "canonical/trace-proj-390": "8aaea504384c191d6cde3c444f63f451c0369376a191d276f166882e6794cd9f",
    "canonical/trace-proj-400": "81a5d36bfe62cc38835947ca6eba8c4faf8720a0999a2a5e0b31e8c50383071d",
    "canonical/trace-proj-410": "4859d680c9cf1510fad09d781860d7b82565d63b1dded8a2a554c3cf0aabaca6",
    "canonical/trace-proj-420": "c6b63ce609f7c49bbc80a93ead4dff66464b63b5eeed9ebc8f827aed9d83d3c1",
    "canonical/trace-proj-430": "3513846e9adffa15c425907273d6f155686fafdcb8a14e3cdebda8c55ee33ddd",
    "canonical/trace-proj-440": "25f363abfbcf12f16e3d7ae245827943aed284b46e144e47bf1cba9899370572",
    "canonical/trace-proj-450": "25adad90043681e7b234f3e318b0e8035a62d93d5cf80459df1751cb59547c1c",
    "canonical/trace-proj-460": "c02b4a03c5c07c2ffaf68859c80c5fdfd049a5a26013d1d0bec96aefe98239f0",
    "canonical/trace-proj-470": "c02b4a03c5c07c2ffaf68859c80c5fdfd049a5a26013d1d0bec96aefe98239f0",
    "canonical/trace-proj-480": "78dd1b4731a88a2adcccbef0badf881aacb30101e723e4987a27ea87f233c698",
    "canonical/trace-proj-490": "bc52aff7a533ab1cc54a5841b2d8091378ba0401f16395ec82fd44419e2d64bc",
    "canonical/trace-proj-500": "3b360528dfa69c4c7f48d114bafba89488524a3e2fad7ea5aad5b4a2090fac68",
    "canonical/trace-proj-510": "609017195cdb37ae9ea3a1bfda86616016c371c6a4e38ed4639fb5912a21ff2e",
    "canonical/trace-proj-520": "5d25992df25d8e1beddee0f34b53475db0a4d3963432ca2a6c0ba645047da0ee",
    "canonical/trace-proj-530": "977aa27a5e1579d53ebea2ec313e0d97c52d661cee819ec189344b539fa709e7",
    "canonical/trace-proj-540": "28903ce15ef06118331f135d139800417ba10d511e7e8979fa5f4a5ae6832e97",
    "canonical/trace-proj-550": "49c63a991e51aa7671f019b79da6461829786dd7c1d5e27268bdea3a3d3c7846",
    "canonical/trace-proj-560": "4cab1c177a9618f1b63ccf22c0591f2f32c04a7e915556a56de1158a2b0d9ce5",
    "canonical/trace-proj-570": "f29dcc33152e6c51bc1c2538bd4531f633888eb590c58544dab224eb995447ee",
    "canonical/trace-proj-580": "196821a00faf82adc74223296b23677251da4a7358742c37a7067256ed2aef3f",
    "canonical/trace-proj-590": "fd4f617235c5f7b64e1e5130e7d58abf2df40aa08b636a32ade7a94a0ecc3ef0",
    "canonical/trace-proj-600": "caa0d661c63cd7bd69f2247e5c9fbade4ce93e3df233e583cd428b42e6115b8c",
    "canonical/trace-proj-610": "caa0d661c63cd7bd69f2247e5c9fbade4ce93e3df233e583cd428b42e6115b8c",
    "graph/proj-3": "9dfddd28a930f49ad8227775b5cca9bd2334ca782d82ca847ed089e506c8ea84",
    "graph/proj-10": "8aa466b1c641c7bac20ffabf2357f05e9f392322b0a1c58c551fad08d912db34",
    "graph/proj-40": "31bcc584a53184e3240b2b27df34e9e0022d0a102011affb78c442a55e8bb218",
    "graph/proj-2000": "8e0a46f94ffff0ffab7bd0319952e428d268255a12deb520d015027f14b64b6e",
    "compile/readers-1": "9eea791df0bae00f47bc17adbdcca4daa329f982cfd665aaddf9cb2a835f742f",
    "compile/readers-2": "5471921465d3a3f92cce08362221c9a9ff6969d8db0e483b35fede60070c03e4",
    "compile/readers-3": "8bd3176fd1da6e353fe6dd295be48280381ce9bbe755a6e5ffba6f68242cbcbf",
    "compile/readers-4": "8a9c61696e06909082c8f8a30dd7f3b13e17a77ebb51aafabb3e4bd1038a1cb3",
    "compile/chain-40": "ae9bb507ef8eb259eb876a07e054b674d31bbdeb2e964ceb77a4b4c739d6e5aa",
    "normalize/chain-40": "13d42ccac61cd26a69ce9ae36cad2934d1f532806233a0228407a5312382ad26",
    "trace/chain-40": "42de9e2190f229d4487da62d17d5baebcc1861fe965ea250a068291029a1c61a",
    "canonical/trace-chain-40-0": "587d9863768c3cb748668637ea492358235ae9161273b7784891abf6b63023c1",
    "canonical/trace-chain-40-10": "2996b25021417dfe8f87f171092242fa6e486dd1ab943f01933ed924bb284dbe",
    "canonical/trace-chain-40-20": "aaeb73ecd3154882b5fd3ac28f109b32fd30307f81cb4f5ce31f24a12e6296ef",
    "canonical/trace-chain-40-30": "071604ec5729bbce227f9bd871ae918da2b84eebddb1f7d8d558af7d2635259a",
    "canonical/trace-chain-40-40": "48e5e5dc2d9d35af27d137664a3e212aabec4537915827c7552d6b4ac72ceb4a",
    "canonical/trace-chain-40-50": "5c33dbc95f462a7815e5608472540263611ff0bc30f39d9dfb06bb61d9e987a0",
    "canonical/trace-chain-40-60": "75a97427d8da69e11c3ecd2243c6eb8b55d5267a48450de5cc390b62b3de920d",
    "canonical/trace-chain-40-70": "8a61fbe95b7163b8afced897cad7117d01d8fda6597856028b18cde5e1746349",
    "area/m2x2": "e1065aef497ddf4d2e50f16206464294c8e0d01d107922c6e71a0ffb76ba13a1",
    "transit/m2x2": "063314507a8921ec8083ebff69ecb86888f173088f3a038caf6ff4c608351588",
    "area/m3x3": "eb06e7242c612efc96a5ba87cb3c638f434afa19f2b519fc7622ed47ca201f48",
    "transit/m3x3": "9d1e8f3b67d9634b2d715ae20b20823135e01066ac41cfd63f2b5ad48f8c678b",
    "area/m1x1": "d610eb78dc733bc543d2e0b3f7363255392fed9ed84deb47bf42a9b92b27b14e",
    "transit/m1x1": "670281ca4db1340aa4045e04d8b757d7d247268847c1fa19f08211b2c319fc91",
    "juxtapose/m2x2+m3x3": "759cacb2affbac973957d1455cd5b77454b5167f275f1d15879d019792794484",
    "juxtapose/m3x3+m1x1": "a58a7d633c563a259f20e255bba2cf49b5b295e04fe44c14b6f359d6d3bcde9c",
    "juxtapose/m1x1+m2x2": "5decb8cd93e36a03d6434abe8497e0b043406433b39c2d552b8dd2f1ec0de7f0",
    "step/typed-0": "5a53d20fbde37fccd513ce4054ab4dac157057afe4e09df85f192572535c0e78",
    "step/routing-0": "f0a71dfc366ccc65ad79d979398e73901ff1cb48555c68195761c9020c6227dd",
    "canonical/typed-0": "16de7a13c91117862107f3efcf1214342b6c75ff2ba60ae3fc4dd99cdafd55c7",
    "canonical/typed-0-0": "bbf671a5e8f36b3c01d10acff15f77950f6ba371404e614044fc85b660cfc26a",
    "canonical/typed-0-1": "e3ae9de694e3c548abe52c4bb046447a122694176c4110058baa735398dcf369",
    "canonical/routing-0": "d0501623120f478a9b6d2e106c1101e8337e651f87e017021b54ea7a6f6bb528",
    "step/typed-1": "2124c746e72f4f6069e508723820330cf954d4553a19124cf38eb615ca4e9a9a",
    "step/routing-1": "dea6d53a2832b72c7a78eefd4d98bffac7cb9bd68b30fa68af1dfe8c3c2eade2",
    "canonical/typed-1": "f5737934fd5627847294e238c9e01c11f1c445bbede74086b68a65b578fe2ef8",
    "canonical/typed-1-0": "ad8cde0b3038e8fc332154df58ad97ea735d5ac7770496413fff33dc0876ec94",
    "canonical/routing-1": "488c2f4e74cbda4226a038fdf17d8b620e011445e37beb9c9fc1c05ec00a2322",
    "step/typed-2": "ad1c481b1e77a222db6ce15a03d91780166d20f45b715cce76c0ce6866a39f27",
    "step/routing-2": "8e45a1d9d69fe565594ce3c9110454925113ce14fcf08c0cff6905286685f9f9",
    "canonical/typed-2": "f5737934fd5627847294e238c9e01c11f1c445bbede74086b68a65b578fe2ef8",
    "canonical/typed-2-0": "5830f69b1eaef5c8e2d4b166f0f76bc0a14638ab7f14d10e7fd814057614f51a",
    "canonical/routing-2": "cbfdb1092f008bf4f5481b0ee88d91b5886b603c1df86f2f7b12d34d301f3c7f",
    "step/typed-3": "716ac7bbaf46e94d8b6e46285d11f5075991ae5762fc24b0a696124b2668988c",
    "step/routing-3": "63770740c10975449b09747e131a3cb84df1f2da3a71f3509ed2a2df355e5177",
    "canonical/typed-3": "a534952ae3eef3062aeedf93b4823adf63188052d14669391786eab823c43e6a",
    "canonical/typed-3-0": "74665c24b976fb66428df398c23ded72677325cb8d1477b548acd77175b893fd",
    "canonical/routing-3": "d57a54c42cb9dbcc80522917833eeaa01e6c77783fd471e7573ded3843892f92",
    "step/typed-4": "63fb335b51b66c58cbdb950381724c400d05f7266aea3e7a7d9462ab201b4e4d",
    "step/routing-4": "6edc2f5a2ebe3f0f0fca9da6ba178ceaaae40a7d34b8cd4ea9144ded47d0b634",
    "canonical/typed-4": "87c12163cee76500958d2cf656a0b0e7b4c870f6614055c864cb1b0259e7c280",
    "canonical/typed-4-0": "d5b6802c7e2a687f766ef67658acb6fc21df19c537de8ed00ba5c80b001ab8ab",
    "canonical/routing-4": "78df50a698f8431d7b12196dc267ec45be70a5130ee785be1dad953339c27b28",
    "step/typed-5": "5c1ce71f9385a9632a29b222f313328ea354de4daddb1e45f3c54f5c8930859b",
    "step/routing-5": "0cc57dc3ede696b0e8fb751ae6a7360f07d3a6ed165dc03d76b63e36ee44d8ea",
    "canonical/typed-5": "3ff1284acf73cd5e3b6281106f450d2d8b1d65ca7bef06c1a1d1fb41d79863b3",
    "canonical/typed-5-0": "b5aa615d96464972cfe0fce7ed7c730a74571093074e6d4c19f04a5cb5798220",
    "canonical/typed-5-1": "669ef00c7498405365a82ffaa7a39a56b9dc778858db2a26d231b8dae5eb6361",
    "canonical/routing-5": "915a3a668c235bcf18726ff0924d96e1ebbfc14126f44a850574de28e39f4cd4",
    "step/typed-6": "397a52418a71ef3977c167a513200f014a882dbfe862c9c6f2e4b9c591a85bfc",
    "step/routing-6": "d9a013eb2a412450b05f3694380ff1785212e2adc269413f68e7ce9fadac7633",
    "canonical/typed-6": "669ef00c7498405365a82ffaa7a39a56b9dc778858db2a26d231b8dae5eb6361",
    "canonical/typed-6-0": "5830f69b1eaef5c8e2d4b166f0f76bc0a14638ab7f14d10e7fd814057614f51a",
    "canonical/routing-6": "0302676075c56bd3ed147ae12671f6f6064ac26ea8aa358fd982a9cdee930dfd",
    "step/typed-7": "377e511db169e661fec0ad2f886adf8ea9c6372d1256a01eea0979b423c93aa7",
    "step/routing-7": "e39e9181ce6a95b2355fc7abc76bdabb533975df32f84befdb638782d8d742ee",
    "canonical/typed-7": "d5b6802c7e2a687f766ef67658acb6fc21df19c537de8ed00ba5c80b001ab8ab",
    "canonical/typed-7-0": "42bb85e85b7f65b23936eabfa14b4cd9e882799986df7aa8706c480006bdfdd7",
    "canonical/typed-7-1": "42bb85e85b7f65b23936eabfa14b4cd9e882799986df7aa8706c480006bdfdd7",
    "canonical/routing-7": "b874ca40c08e0e4f9d5eff13d86cd9ad27fa223f531d320a9f2300c743ab6f99",
    "canonical/typed-8": "281c8054a257d54f3682099fe921a8114d071334a925ad209d86a1381f8f4be1",
    "canonical/typed-8-0": "3ff1284acf73cd5e3b6281106f450d2d8b1d65ca7bef06c1a1d1fb41d79863b3",
    "canonical/routing-8": "6b7e08754217fb01bc4e156ddf67f586311625269ea1c7bf7bc39df6e7c466dc",
    "canonical/typed-9": "5847587fab66d26b6d9fc20d667603012833276d84658fcd5763ff7ef08300e4",
    "canonical/typed-9-0": "f5737934fd5627847294e238c9e01c11f1c445bbede74086b68a65b578fe2ef8",
    "canonical/typed-9-1": "87c12163cee76500958d2cf656a0b0e7b4c870f6614055c864cb1b0259e7c280",
    "canonical/routing-9": "e33f1daa50b46789ae8eff8b069aa9717b5b9f170cbceb6dd9dc47ee85f96dfd",
    "canonical/typed-10": "f5737934fd5627847294e238c9e01c11f1c445bbede74086b68a65b578fe2ef8",
    "canonical/typed-10-0": "ad8cde0b3038e8fc332154df58ad97ea735d5ac7770496413fff33dc0876ec94",
    "canonical/routing-10": "373dd9001b905ae8d130f2c0d0f21b4ffe267ee92820010398d1adfa41cfd25b",
    "canonical/typed-11": "e1acc7888b25f72004765b66cfb2491eef83976c0ede81116f8d1d8529780642",
    "canonical/typed-11-0": "d2cebe40e04638226bdc4aed22a3ff1691dc772728894adb28ad90ec16ee69e2",
    "canonical/typed-11-1": "ae41da9dc9d2d4097ef091cb5ca613a0301ee73cb6d50c262baaeed0690daec3",
    "canonical/routing-11": "262055dc45b9695454aba9c97aaf8da4fca08b450d7d2993de31a5508f7db015",
    "canonical/typed-12": "9ce538f7ee91013a3e83360332544a80a965f30025c6e6ffe9e03df28ddbc2a1",
    "canonical/typed-12-0": "3204dcb3dd4f37a9ff887688b5f2cb0c163d3ae03887f918676451b3ed300a85",
    "canonical/routing-12": "40ce3feb5bdfbc11703adee3733b24e0e00d9c243779982916f294024f51cf29",
    "canonical/typed-13": "e3168f7cb1a3ecfa7d596cb4377c8d1a083bd79c5bde059270ddcbf22e7e058c",
    "canonical/typed-13-0": "ada70020620e526597bb6246486e43b8bb9c9f45dc4ceec94edf6ff16a5ca5e5",
    "canonical/typed-13-1": "ada70020620e526597bb6246486e43b8bb9c9f45dc4ceec94edf6ff16a5ca5e5",
    "canonical/typed-13-2": "c14762c250adee6f03dbc456fdb3d74792177f1247ab34a44433a85204519530",
    "canonical/routing-13": "6b3a021748d31d6a472e63065586033222f5b2458706f2b7c8b6830a4597814b",
    "canonical/typed-14": "87c12163cee76500958d2cf656a0b0e7b4c870f6614055c864cb1b0259e7c280",
    "canonical/typed-14-0": "ad8cde0b3038e8fc332154df58ad97ea735d5ac7770496413fff33dc0876ec94",
    "canonical/routing-14": "b0fb5b2a4fd8d75952f4658251089ae1c6076ec3b9cf7923014d0741b9bf5553",
    "canonical/typed-15": "87c12163cee76500958d2cf656a0b0e7b4c870f6614055c864cb1b0259e7c280",
    "canonical/typed-15-0": "d5b6802c7e2a687f766ef67658acb6fc21df19c537de8ed00ba5c80b001ab8ab",
    "canonical/routing-15": "0038b67a09216c0ba527426ed91d78e2bfed39ce35f2c450120f53aee7cfedea",
    "canonical/typed-16": "d5b6802c7e2a687f766ef67658acb6fc21df19c537de8ed00ba5c80b001ab8ab",
    "canonical/typed-16-0": "42bb85e85b7f65b23936eabfa14b4cd9e882799986df7aa8706c480006bdfdd7",
    "canonical/typed-16-1": "87c12163cee76500958d2cf656a0b0e7b4c870f6614055c864cb1b0259e7c280",
    "canonical/routing-16": "ab737b7786d8f2553a33db8fc0a41c8e8991717c5bf2e0b8b6d46fac4dfc16ae",
    "canonical/typed-17": "3eebedfbc60d73192e8cce59050035a1abb821fcb293accb8fbc407b4f988813",
    "canonical/typed-17-0": "9c7fcd3abb8aa21d64108724c3dc5ca6ceafe9a668841cdb161db5c353192740",
    "canonical/typed-17-1": "9c7fcd3abb8aa21d64108724c3dc5ca6ceafe9a668841cdb161db5c353192740",
    "canonical/routing-17": "9ea3eac8a39e4ef3df6acf2836f7c7b4f7c2c576d59fed8c405149582df4ed59",
    "canonical/typed-18": "87c12163cee76500958d2cf656a0b0e7b4c870f6614055c864cb1b0259e7c280",
    "canonical/typed-18-0": "d5b6802c7e2a687f766ef67658acb6fc21df19c537de8ed00ba5c80b001ab8ab",
    "canonical/routing-18": "6d6a95f0d02f00778ab4ed268f52428fc958be765d318e2a50130c076bcfef6b",
    "canonical/typed-19": "87c12163cee76500958d2cf656a0b0e7b4c870f6614055c864cb1b0259e7c280",
    "canonical/typed-19-0": "d5b6802c7e2a687f766ef67658acb6fc21df19c537de8ed00ba5c80b001ab8ab",
    "canonical/routing-19": "bebf0f95a701d5acc60b5b20fbd614d16a5c9a6d8395979d1957d19213daae1d",
    "canonical/typed-20": "f0626f31dd57904d15856799ce730ce035bc78956372fe168dc43f7eef9b12ff",
    "canonical/typed-20-0": "22713ea9997029b59913211b959b3441ea42679e3fb056f220cd48040473bb31",
    "canonical/routing-20": "bc8e5b7fd5e233e8dfa36ca5b95e4e3d6f134278f6a62ee82a4db45be710b763",
    "canonical/typed-21": "104d071e806f552de25305aa250e94154c687b3f8ac98eaf44c170e4eabacfbd",
    "canonical/typed-21-0": "ad8cde0b3038e8fc332154df58ad97ea735d5ac7770496413fff33dc0876ec94",
    "canonical/routing-21": "eb08152e162a9bfb0030140506fedf46635eb7e56edc46b4844543daf5299ec5",
    "canonical/typed-22": "87c12163cee76500958d2cf656a0b0e7b4c870f6614055c864cb1b0259e7c280",
    "canonical/typed-22-0": "ad8cde0b3038e8fc332154df58ad97ea735d5ac7770496413fff33dc0876ec94",
    "canonical/routing-22": "ac03738f54367245da7af6ba89887e59b4915e7472c96f45ec8c9abe1538d422",
    "canonical/typed-23": "51888bb84091627783aab37d22a56974f1d8884e4985430fa493e8a9c70f50dc",
    "canonical/typed-23-0": "f98f4e1cf720d416b1f0f8f6528964d48bfdf65a8065d9e69730b25ad81e8473",
    "canonical/typed-23-1": "87c12163cee76500958d2cf656a0b0e7b4c870f6614055c864cb1b0259e7c280",
    "canonical/routing-23": "78ffd9729cd771ad7907c3fdf29f82ad396e9263a7a78fbb1c1f9f4551430846",
    "canonical/typed-24": "2b0e09e6689856a1193eb5550e58f00b080564a079e3be6a4d68e2062fba579a",
    "canonical/typed-24-0": "669ef00c7498405365a82ffaa7a39a56b9dc778858db2a26d231b8dae5eb6361",
    "canonical/typed-24-1": "0e0a9d4813a80e7d3471fb31b25e97ffbbb1a0607aaa0421c47c5b6a1a6d437a",
    "canonical/routing-24": "b0c675868c6bf78d971753edc377539446ab02a26acccf468540dad7b27fc439",
    "canonical/typed-25": "f5737934fd5627847294e238c9e01c11f1c445bbede74086b68a65b578fe2ef8",
    "canonical/typed-25-0": "ad8cde0b3038e8fc332154df58ad97ea735d5ac7770496413fff33dc0876ec94",
    "canonical/routing-25": "9c85689665090dac452419c4cd5992fff45b748792b26d56a015054f4b7981ef",
    "canonical/typed-26": "87c12163cee76500958d2cf656a0b0e7b4c870f6614055c864cb1b0259e7c280",
    "canonical/typed-26-0": "d5b6802c7e2a687f766ef67658acb6fc21df19c537de8ed00ba5c80b001ab8ab",
    "canonical/routing-26": "2e7316875ec972245d84ffa3dedf06b996785e1f92a418e7b828f953a77dae44",
    "canonical/typed-27": "bc9eaa7e2a2e88aea31adda1735b4c32636522f00f11d7f19f85faff0737a958",
    "canonical/typed-27-0": "0e0a9d4813a80e7d3471fb31b25e97ffbbb1a0607aaa0421c47c5b6a1a6d437a",
    "canonical/typed-27-1": "2c526cfcf85d1363e81c4b1e056f7650c60ad1c881f91d279b5c614d77f29fe5",
    "canonical/routing-27": "be5d0bd7778feae6eddf6bf674fb32e11c34486642a5aca14c44cbced4e572db",
    "canonical/typed-28": "87c12163cee76500958d2cf656a0b0e7b4c870f6614055c864cb1b0259e7c280",
    "canonical/typed-28-0": "ad8cde0b3038e8fc332154df58ad97ea735d5ac7770496413fff33dc0876ec94",
    "canonical/routing-28": "0483a3a929110cb698e0f29fad9da62ba2c90a863f7b19a95e5f8c1a2ed2947b",
    "canonical/typed-29": "74cbdeedb98529539a799f822bdc125aa402a0814c345e043c05328e47d7312d",
    "canonical/typed-29-0": "87c12163cee76500958d2cf656a0b0e7b4c870f6614055c864cb1b0259e7c280",
    "canonical/routing-29": "87a4f64375f25dec1f6f7000f6ce804413b9a624fe7e953c8c41d2833d54441f",
    "canonical/typed-30": "0192d11efbd239c0ab113c7bc7aa75279463d919da8f88b05519d69bad0c6a5d",
    "canonical/typed-30-0": "b3ac1d9f4d820148eb60270bbbeff79177681223ef2358b84a138778ccbed15b",
    "canonical/typed-30-1": "f5737934fd5627847294e238c9e01c11f1c445bbede74086b68a65b578fe2ef8",
    "canonical/routing-30": "1fff2b1e4c8df108ba9e2a4bc2e01c874983b5d254e6d0cc4570f27da1789b00",
    "canonical/typed-31": "87c12163cee76500958d2cf656a0b0e7b4c870f6614055c864cb1b0259e7c280",
    "canonical/typed-31-0": "d5b6802c7e2a687f766ef67658acb6fc21df19c537de8ed00ba5c80b001ab8ab",
    "canonical/routing-31": "f6fe628388dd2190ae5484c8aaec2f4a8d195e79d6e755132f3c7f194937634b",
    "canonical/typed-32": "f5737934fd5627847294e238c9e01c11f1c445bbede74086b68a65b578fe2ef8",
    "canonical/typed-32-0": "5830f69b1eaef5c8e2d4b166f0f76bc0a14638ab7f14d10e7fd814057614f51a",
    "canonical/routing-32": "66f0c7d1a09e56884aeedb85050f1b6f9f1face1e45d94b777443b90a04e55a0",
    "canonical/typed-33": "669ef00c7498405365a82ffaa7a39a56b9dc778858db2a26d231b8dae5eb6361",
    "canonical/typed-33-0": "5830f69b1eaef5c8e2d4b166f0f76bc0a14638ab7f14d10e7fd814057614f51a",
    "canonical/routing-33": "7fa623c8e252a1ba8eeee806fb3606d98234884ea5df6db3f2b5add3f19d1cc6",
    "canonical/typed-34": "2b0e09e6689856a1193eb5550e58f00b080564a079e3be6a4d68e2062fba579a",
    "canonical/typed-34-0": "0e0a9d4813a80e7d3471fb31b25e97ffbbb1a0607aaa0421c47c5b6a1a6d437a",
    "canonical/typed-34-1": "bc7bd226b743e2b80e1521d407a8ef5ecc323c907e1742e92598c6876385337d",
    "canonical/routing-34": "715ababf80d6801dc84770b6e8d06965f6e86d030fdc810a15d39580ad0f04d4",
    "canonical/typed-35": "d47c4a2e664104abb33a8a366eb722388f1cc5e6f139241500e9ffb851c10092",
    "canonical/typed-35-0": "ae41da9dc9d2d4097ef091cb5ca613a0301ee73cb6d50c262baaeed0690daec3",
    "canonical/typed-35-1": "be0d6b243a75f76b8550c9764cd84040be6eef655f9e2624bb3748a0b86cc44a",
    "canonical/routing-35": "90f017aac5fb461dd938e7b9a9a610770e0c478d81bcd16d5f5d842294401051",
    "canonical/typed-36": "e20eefb562168d6657bda6458128740fad6e29652e22a397a4c11c136d1cc088",
    "canonical/typed-36-0": "0e0a9d4813a80e7d3471fb31b25e97ffbbb1a0607aaa0421c47c5b6a1a6d437a",
    "canonical/typed-36-1": "41f00a54d35170f059050f8398ee145f56960438c0dc487eaf31794b92aa00e2",
    "canonical/routing-36": "c9dcbadbbf8c10ab7a8ce166a25d4702ee4c1aed2144b9e4df1e278d49f57216",
    "canonical/typed-37": "87c12163cee76500958d2cf656a0b0e7b4c870f6614055c864cb1b0259e7c280",
    "canonical/typed-37-0": "ad8cde0b3038e8fc332154df58ad97ea735d5ac7770496413fff33dc0876ec94",
    "canonical/routing-37": "58f20fee18732248e4fcafbabc85677a5e1a553317f132ffe96a1d06b3f2fd51",
    "canonical/typed-38": "5830f69b1eaef5c8e2d4b166f0f76bc0a14638ab7f14d10e7fd814057614f51a",
    "canonical/typed-38-0": "e06ec29390a0316a3c29ae0de1640dc116a7d1bc11cf62625af0ae3e70b0f537",
    "canonical/typed-38-1": "b5aa615d96464972cfe0fce7ed7c730a74571093074e6d4c19f04a5cb5798220",
    "canonical/routing-38": "fca84d71ed1616bc3399232a873c9332a7e8a799947c76f1de653f36f9d7d8b8",
    "canonical/typed-39": "f5737934fd5627847294e238c9e01c11f1c445bbede74086b68a65b578fe2ef8",
    "canonical/typed-39-0": "5830f69b1eaef5c8e2d4b166f0f76bc0a14638ab7f14d10e7fd814057614f51a",
    "canonical/routing-39": "3f38332c6d2a4da9bd8d80d7a1b48bb1dabfd6960777d9f2c540ab4299baff55",
    "canonical/typed-40": "5847587fab66d26b6d9fc20d667603012833276d84658fcd5763ff7ef08300e4",
    "canonical/typed-40-0": "29dfe580512f00b0fafeadd885719f3a03f3556fbb0b480747aea754d9723f36",
    "canonical/typed-40-1": "0e0a9d4813a80e7d3471fb31b25e97ffbbb1a0607aaa0421c47c5b6a1a6d437a",
    "canonical/routing-40": "aa21e44e359e8808d9711a22f6eaff27046131b2d15816fe380702fd1a6b12b7",
    "canonical/typed-41": "5830f69b1eaef5c8e2d4b166f0f76bc0a14638ab7f14d10e7fd814057614f51a",
    "canonical/typed-41-0": "b5aa615d96464972cfe0fce7ed7c730a74571093074e6d4c19f04a5cb5798220",
    "canonical/typed-41-1": "b5aa615d96464972cfe0fce7ed7c730a74571093074e6d4c19f04a5cb5798220",
    "canonical/routing-41": "cffd61f8b79cbe1e3daebb33cdcc59a1f99577efb9f94ddd6696d79dd4bd1121",
    "canonical/typed-42": "669ef00c7498405365a82ffaa7a39a56b9dc778858db2a26d231b8dae5eb6361",
    "canonical/typed-42-0": "5830f69b1eaef5c8e2d4b166f0f76bc0a14638ab7f14d10e7fd814057614f51a",
    "canonical/routing-42": "5d033e2be08dd9d32bfa38818bbbc82bc7bb7d3d9b84f4d7f117f7a58b3c19af",
    "canonical/typed-43": "87c12163cee76500958d2cf656a0b0e7b4c870f6614055c864cb1b0259e7c280",
    "canonical/typed-43-0": "d5b6802c7e2a687f766ef67658acb6fc21df19c537de8ed00ba5c80b001ab8ab",
    "canonical/routing-43": "0afb0f5212903cd004236c2ef2ffffc906c63c5eccb291daa93a7578b5463b57",
    "canonical/typed-44": "5847587fab66d26b6d9fc20d667603012833276d84658fcd5763ff7ef08300e4",
    "canonical/typed-44-0": "29dfe580512f00b0fafeadd885719f3a03f3556fbb0b480747aea754d9723f36",
    "canonical/typed-44-1": "0e0a9d4813a80e7d3471fb31b25e97ffbbb1a0607aaa0421c47c5b6a1a6d437a",
    "canonical/routing-44": "e524683e38e1152ad26651da1c9f0f3258d962d92b1934637e40fe079b60aa7d",
    "canonical/typed-45": "2b0e09e6689856a1193eb5550e58f00b080564a079e3be6a4d68e2062fba579a",
    "canonical/typed-45-0": "bc7bd226b743e2b80e1521d407a8ef5ecc323c907e1742e92598c6876385337d",
    "canonical/typed-45-1": "0e0a9d4813a80e7d3471fb31b25e97ffbbb1a0607aaa0421c47c5b6a1a6d437a",
    "canonical/routing-45": "1f502b64d68196b314235013a2ecd5a775f432e67949cb6759fe22502ee50a54",
    "canonical/typed-46": "fad1dafdf97c31fb8c3f56263e67567d38092db723f17af854bde25dc31609cf",
    "canonical/typed-46-0": "596bd73c2f9a72e8f48ef3368be676dbfc08a17140929c02def764492d93b6c2",
    "canonical/routing-46": "fe9fe264e835d58153437f5e1d91984b2e79174a4abcb2e902889e8921cddd3c",
    "canonical/typed-47": "94c0d5fea45cab4475fb9961776556e684ac50d04198a90b0f6f6008ed16c6fa",
    "canonical/typed-47-0": "bc7bd226b743e2b80e1521d407a8ef5ecc323c907e1742e92598c6876385337d",
    "canonical/typed-47-1": "18447d503914f3586fef72c852387f96b348a29b02ade5241050c621ffb8535e",
    "canonical/routing-47": "a79cc40176178a01e01a12a352e86b05215bbd6ac0c62e64d1551e9a3423a733",
    "canonical/typed-48": "b28561518b1be0c28374f35bee6f596723a0c7eb8009fcdd33cc7ee3a54a420f",
    "canonical/typed-48-0": "f0626f31dd57904d15856799ce730ce035bc78956372fe168dc43f7eef9b12ff",
    "canonical/typed-48-1": "d549668711183deffd9ab9f954e9df2de3309cea192b4a282845d326a5b61b16",
    "canonical/routing-48": "caf5643f8ac328fc7e9ec9443211dbe2d19770ddb1fc5fcc073dd2790b6c06d1",
    "canonical/typed-49": "f5737934fd5627847294e238c9e01c11f1c445bbede74086b68a65b578fe2ef8",
    "canonical/typed-49-0": "5830f69b1eaef5c8e2d4b166f0f76bc0a14638ab7f14d10e7fd814057614f51a",
    "canonical/routing-49": "a5d4cb6f7c70e3b7d98991a3014cd0b384197a81c852c7e4750b1b8b2125be23",
    "canonical/typed-50": "b28561518b1be0c28374f35bee6f596723a0c7eb8009fcdd33cc7ee3a54a420f",
    "canonical/typed-50-0": "3a38ca2ee0c764f64d2a04d44d0e6bf259fa4d5a488237c423c06d44e18603e3",
    "canonical/typed-50-1": "fa3dc43c0724655ab5d1d6176179f9f207e8fef51689acd5fc88eb7f5a186dc6",
    "canonical/routing-50": "2e959a21741357349ac11b3a72f9a6115c8e23408c0d94d8e4b6f9ce6ca600ae",
    "canonical/typed-51": "f5737934fd5627847294e238c9e01c11f1c445bbede74086b68a65b578fe2ef8",
    "canonical/typed-51-0": "ad8cde0b3038e8fc332154df58ad97ea735d5ac7770496413fff33dc0876ec94",
    "canonical/routing-51": "38caeda7f222949f61f5af697e4f5753db33860c2f88f62a63d50339872dacf3",
    "canonical/typed-52": "4bf7e685549f968dd63064ca64e033065fa143a9b21f576c6b4516719d0fd7e7",
    "canonical/typed-52-0": "87c12163cee76500958d2cf656a0b0e7b4c870f6614055c864cb1b0259e7c280",
    "canonical/typed-52-1": "152aefb9bc0a9c47af1bd19c134c57c4d57ff8329c5803c75391a1afaa4ccefe",
    "canonical/routing-52": "fe092030f012c4e55c5254e171e66bb196f399483dbbf0aa1d16edb55949e4f3",
    "canonical/typed-53": "f5737934fd5627847294e238c9e01c11f1c445bbede74086b68a65b578fe2ef8",
    "canonical/typed-53-0": "ad8cde0b3038e8fc332154df58ad97ea735d5ac7770496413fff33dc0876ec94",
    "canonical/routing-53": "da5e89df87244c5ccb71f6205f2729c3b09a807e8d6a8283c670c715c2597c13",
    "canonical/typed-54": "87c12163cee76500958d2cf656a0b0e7b4c870f6614055c864cb1b0259e7c280",
    "canonical/typed-54-0": "d5b6802c7e2a687f766ef67658acb6fc21df19c537de8ed00ba5c80b001ab8ab",
    "canonical/routing-54": "db0a06f265558bee576fa4441eb759424d8c0acf31bed053d4fca32d53cbe60b",
    "canonical/typed-55": "f5737934fd5627847294e238c9e01c11f1c445bbede74086b68a65b578fe2ef8",
    "canonical/typed-55-0": "5830f69b1eaef5c8e2d4b166f0f76bc0a14638ab7f14d10e7fd814057614f51a",
    "canonical/routing-55": "7ad91ceac44c55b2ac62c8c7132d80e96e17480974eeb94233dfc1c8f800f2ce",
    "canonical/typed-56": "f5737934fd5627847294e238c9e01c11f1c445bbede74086b68a65b578fe2ef8",
    "canonical/typed-56-0": "5830f69b1eaef5c8e2d4b166f0f76bc0a14638ab7f14d10e7fd814057614f51a",
    "canonical/routing-56": "a6319d6af82cb1e331b9d06f6f3ff9a6a3381b3577a2923463d3813c7dceff0d",
    "canonical/typed-57": "f5737934fd5627847294e238c9e01c11f1c445bbede74086b68a65b578fe2ef8",
    "canonical/typed-57-0": "ad8cde0b3038e8fc332154df58ad97ea735d5ac7770496413fff33dc0876ec94",
    "canonical/routing-57": "4131953d63c89a257588c984574c6deeacaa06a0216791c3dbd69ad2b518c6b4",
    "canonical/typed-58": "669ef00c7498405365a82ffaa7a39a56b9dc778858db2a26d231b8dae5eb6361",
    "canonical/typed-58-0": "5830f69b1eaef5c8e2d4b166f0f76bc0a14638ab7f14d10e7fd814057614f51a",
    "canonical/routing-58": "36f8cbc72a7d420fac16752090370eb07e902eb615dc3966dabd0b755fd45249",
    "canonical/typed-59": "2c526cfcf85d1363e81c4b1e056f7650c60ad1c881f91d279b5c614d77f29fe5",
    "canonical/typed-59-0": "5847587fab66d26b6d9fc20d667603012833276d84658fcd5763ff7ef08300e4",
    "canonical/routing-59": "016ed7a30e9aebf3071cffe0454bf1b2118e6210cfabf6be8fd1dfc46642a4e3",
    "canonical/typed-60": "d5b6802c7e2a687f766ef67658acb6fc21df19c537de8ed00ba5c80b001ab8ab",
    "canonical/typed-60-0": "29dfe580512f00b0fafeadd885719f3a03f3556fbb0b480747aea754d9723f36",
    "canonical/typed-60-1": "42bb85e85b7f65b23936eabfa14b4cd9e882799986df7aa8706c480006bdfdd7",
    "canonical/routing-60": "987104adcbcb8b4f3426d8fc824bf6161e146f3c3f871cb4bc29aac6451159bd",
    "canonical/typed-61": "2b0e09e6689856a1193eb5550e58f00b080564a079e3be6a4d68e2062fba579a",
    "canonical/typed-61-0": "bc7bd226b743e2b80e1521d407a8ef5ecc323c907e1742e92598c6876385337d",
    "canonical/typed-61-1": "0e0a9d4813a80e7d3471fb31b25e97ffbbb1a0607aaa0421c47c5b6a1a6d437a",
    "canonical/routing-61": "cbf4f6baa2f0554b23a423ddf7ed0e1deeff4b908e993a1412a915fee4fe1e61",
    "canonical/typed-62": "669ef00c7498405365a82ffaa7a39a56b9dc778858db2a26d231b8dae5eb6361",
    "canonical/typed-62-0": "5830f69b1eaef5c8e2d4b166f0f76bc0a14638ab7f14d10e7fd814057614f51a",
    "canonical/routing-62": "b5b9de3e7f18e62f7e04696c4c269a48e7ee2c02fb9a0dc1a0fa03ef934ffca0",
    "canonical/typed-63": "f5737934fd5627847294e238c9e01c11f1c445bbede74086b68a65b578fe2ef8",
    "canonical/typed-63-0": "5830f69b1eaef5c8e2d4b166f0f76bc0a14638ab7f14d10e7fd814057614f51a",
    "canonical/routing-63": "a782a77570041db102ff339e1b3561ad9b995952ac0bed9d3cda0707c55fb25b",
    "canonical/typed-64": "5847587fab66d26b6d9fc20d667603012833276d84658fcd5763ff7ef08300e4",
    "canonical/typed-64-0": "0e0a9d4813a80e7d3471fb31b25e97ffbbb1a0607aaa0421c47c5b6a1a6d437a",
    "canonical/typed-64-1": "29dfe580512f00b0fafeadd885719f3a03f3556fbb0b480747aea754d9723f36",
    "canonical/routing-64": "00e861d095c09af24d7f57c421a7c4cba879fd05d6787f0cb69e24981da0a4e0",
    "canonical/typed-65": "8981f421bbc8072f491866b03c4517d74c5a5e6a2cd011e0b9e581ce7ee19db5",
    "canonical/typed-65-0": "05af3848ffa95cde525cd2f720538be3727727637330f1995034f627c646d46e",
    "canonical/typed-65-1": "0644acb8ecab03bed92a08909353101661acac38eb6c126d6e588acc30dda8e7",
    "canonical/routing-65": "2fe35eeec2de41e6e69d0a09139f764e541cdda52714b7e32e1a49084833b6fe",
    "canonical/typed-66": "87c12163cee76500958d2cf656a0b0e7b4c870f6614055c864cb1b0259e7c280",
    "canonical/typed-66-0": "ad8cde0b3038e8fc332154df58ad97ea735d5ac7770496413fff33dc0876ec94",
    "canonical/routing-66": "9c260a3a0e945b4ea727aa0a07651840b7e0713bee7b1d9cdef17d60dfa6245b",
    "canonical/typed-67": "2c526cfcf85d1363e81c4b1e056f7650c60ad1c881f91d279b5c614d77f29fe5",
    "canonical/typed-67-0": "5847587fab66d26b6d9fc20d667603012833276d84658fcd5763ff7ef08300e4",
    "canonical/routing-67": "a989ddee547daaf37194077251c520b451750ad9d06a280992cc1453d850d3fe",
    "canonical/typed-68": "2701ff15dc7363978a0ce3bf024654a69b9831c4e4f8ab327c84e2d300dcd07c",
    "canonical/typed-68-0": "9cd2fb18f654b9f33b563fd93ca7afb9ac1e639d5c0afd6eaaf351dd026c54db",
    "canonical/typed-68-1": "87c12163cee76500958d2cf656a0b0e7b4c870f6614055c864cb1b0259e7c280",
    "canonical/routing-68": "27eada8e32e1ba8ad193b6e62dc9aff25330bd20dac5f1fbe2707982986a2d83",
    "canonical/typed-69": "669ef00c7498405365a82ffaa7a39a56b9dc778858db2a26d231b8dae5eb6361",
    "canonical/typed-69-0": "5830f69b1eaef5c8e2d4b166f0f76bc0a14638ab7f14d10e7fd814057614f51a",
    "canonical/routing-69": "7b8c179bbfc4f6f163528d899f6b908a8b72b9970dbf105bc64595dc21e97c2a",
    "canonical/typed-70": "669ef00c7498405365a82ffaa7a39a56b9dc778858db2a26d231b8dae5eb6361",
    "canonical/typed-70-0": "5830f69b1eaef5c8e2d4b166f0f76bc0a14638ab7f14d10e7fd814057614f51a",
    "canonical/routing-70": "7fd0b9c65707cb6f6848245c9ed0cb3a61ec4f52f30dd3074deae9d558766f21",
    "canonical/typed-71": "5830f69b1eaef5c8e2d4b166f0f76bc0a14638ab7f14d10e7fd814057614f51a",
    "canonical/typed-71-0": "b5aa615d96464972cfe0fce7ed7c730a74571093074e6d4c19f04a5cb5798220",
    "canonical/typed-71-1": "f5737934fd5627847294e238c9e01c11f1c445bbede74086b68a65b578fe2ef8",
    "canonical/routing-71": "7ca7073be63e6b0fd3cfde6ccd09caade33c4637243549fe9de23bd6a0c1e21a",
    "canonical/typed-72": "87c12163cee76500958d2cf656a0b0e7b4c870f6614055c864cb1b0259e7c280",
    "canonical/typed-72-0": "ad8cde0b3038e8fc332154df58ad97ea735d5ac7770496413fff33dc0876ec94",
    "canonical/routing-72": "f052969b8aa4de462ba7895f9c3b502131c62c11ea84a0513566033161e76b1c",
    "canonical/typed-73": "5847587fab66d26b6d9fc20d667603012833276d84658fcd5763ff7ef08300e4",
    "canonical/typed-73-0": "ba78f572ec02e49e3eb6f4e44eb88cb1309a366c2fe4108efee1f0d421f59e08",
    "canonical/typed-73-1": "0e0a9d4813a80e7d3471fb31b25e97ffbbb1a0607aaa0421c47c5b6a1a6d437a",
    "canonical/routing-73": "71f819a9bfa6c9629ae49e652ed50dd0cd59d345984fe4db173d095aec472d33",
    "canonical/typed-74": "87c12163cee76500958d2cf656a0b0e7b4c870f6614055c864cb1b0259e7c280",
    "canonical/typed-74-0": "ad8cde0b3038e8fc332154df58ad97ea735d5ac7770496413fff33dc0876ec94",
    "canonical/routing-74": "1d3b8d82afd50c346515ef8f890c052a26704bb96f0b2c339c54796853c6de31",
    "canonical/typed-75": "2b0e09e6689856a1193eb5550e58f00b080564a079e3be6a4d68e2062fba579a",
    "canonical/typed-75-0": "0e0a9d4813a80e7d3471fb31b25e97ffbbb1a0607aaa0421c47c5b6a1a6d437a",
    "canonical/typed-75-1": "bc7bd226b743e2b80e1521d407a8ef5ecc323c907e1742e92598c6876385337d",
    "canonical/routing-75": "3e3bcd9099c810f6746d4569b339a76b94a07d83a041871ae2f8650b697aced1",
    "canonical/typed-76": "87c12163cee76500958d2cf656a0b0e7b4c870f6614055c864cb1b0259e7c280",
    "canonical/typed-76-0": "ad8cde0b3038e8fc332154df58ad97ea735d5ac7770496413fff33dc0876ec94",
    "canonical/routing-76": "a35743aa7986f495cce263dab0aa8de142578eb1165fec9408f5aa243d557335",
    "canonical/typed-77": "4bf7e685549f968dd63064ca64e033065fa143a9b21f576c6b4516719d0fd7e7",
    "canonical/typed-77-0": "152aefb9bc0a9c47af1bd19c134c57c4d57ff8329c5803c75391a1afaa4ccefe",
    "canonical/typed-77-1": "a9222582f8c44b774cb6f06dffc892d2ef430eeaa724a0e96d82b5eb1389de97",
    "canonical/routing-77": "1e35096316bed0b62a79daca8a092a2a79d48f81a0e3a9dc485e2e718865ec54",
    "canonical/typed-78": "f5737934fd5627847294e238c9e01c11f1c445bbede74086b68a65b578fe2ef8",
    "canonical/typed-78-0": "ad8cde0b3038e8fc332154df58ad97ea735d5ac7770496413fff33dc0876ec94",
    "canonical/routing-78": "cf281cdeb1687c20a10f4f27651d01dd5dc0f2cc3fdacebd9b4b6dcd64123dae",
    "canonical/typed-79": "f5737934fd5627847294e238c9e01c11f1c445bbede74086b68a65b578fe2ef8",
    "canonical/typed-79-0": "5830f69b1eaef5c8e2d4b166f0f76bc0a14638ab7f14d10e7fd814057614f51a",
    "canonical/routing-79": "ad212b06b9b025b0b7c22392598dc49df4e06fecee9292bf4a4e9da5ce0fad58",
    "canonical/compose-0": "48e99f388c31b87589ffdf3f5bb109452244a17689485c1e8ec8c89561fe0b5d",
    "canonical/compose-1": "627e9d84f5185788289cff13ec3485dd4069215b0344e3ca92bdc4b1800344b3",
    "canonical/compose-2": "569b86d7838705a5830dca03b88073dd27ad1d74e37c2958d114996aa9c720c0",
    "canonical/compose-3": "c317d0d9c0112cf67315aa8beeb5bf2ef9fe928afa844e2df8bcb66c300cbb57",
    "areas/trace-0": "0fd0433eda138a543c8dd06a7527f4dc2f26bb659f08eaf6af4d769d69de621b",
    "areas/compose-0": "769427aa432ab9f1f6036f0db6008d40c40fccaa8a3cce2f8af058798b09f32f",
    "areas/semantics-0": "5e1ca8b8d79713a6d43658137ad152f871545d47a604f2fa8509894db7986b25",
    "areas/errors-0": "170f4aff60b4025d248a5850cb4674616cac79de41fb114ec9b867240c4a9c5d",
    "areas/trace-1": "02d16097e98e2f2d6463c485276695984ee34e89c6622d3aa8eaaacdfa4f4b58",
    "areas/compose-1": "3d381692599277d8a232004b03f3470533f6a412c2ba055a75e38d1149296d81",
    "areas/semantics-1": "135cf90525afce70ce26d69f516c27c4d4116949eb608bc2b866f6c972f2843c",
    "areas/errors-1": "600495d41fc34adf7e07fbce8ff16ff8cae7c268f5425619d220961166425e41",
    "areas/trace-2": "0b37c2078a8037565870bd55917ac555f11956c09154d10b408d278a3c0ded02",
    "areas/compose-2": "f9f32bc6d7848e3fb11510b982ca2ed8fa2f9e447caaa9412c67511e1b49c1b1",
    "areas/semantics-2": "e90984187253698e2f2d8e8337da55d34b23b6eadd05a4abe778ec8a7fcfc9e5",
    "areas/errors-2": "2c8fa66f7a015ff440a50db2dba51973b83c509ff0a3a9ec155ef3bdcd61fc76",
    "areas/trace-3": "401b49415c9ecd2efae00b3c9e0684aff445630907ad558522bd5ab864398462",
    "areas/compose-3": "2018252e6dd19f2c740231e628ac73ee7916df3c432ee875926487ab4d6c01b3",
    "areas/semantics-3": "fbe079858c8131b8c23ed2fafefb88838c951cbbc4b701921c96b80fdb56ba40",
    "areas/errors-3": "2c5e1af7fb1e39ab8110d6365e846e584771b1bc6b78d21bfbe82913e8a9b935",
    "areas/trace-4": "4c8e6d23fd7d048d085c3183c6205975a4beac5eae587d79ffd92b7700b5d8f8",
    "areas/compose-4": "c721839e9c9b4e4bf9f552cb455851734b52a58951bc2f42c5de231c220ce169",
    "areas/semantics-4": "3725c9987faea222661be123c8c5dfc113307ba132b27f4983f00db26b3cbb76",
    "areas/errors-4": "1571faff6b4f62d308d90aaba25bc1630af0e25fcda6eebb55d55a823269780f",
    "areas/trace-5": "5020c71c7371160b2022e59121e7b9a175ba57200621c59907daf171cc360ade",
    "areas/compose-5": "28d777c70b839b6cb27125c616a7408f5ca0baae70dcc0c517e07a2c98855532",
    "areas/semantics-5": "3623850481fcea3aa481c081e653377baccaa78167ed488e4e39eebbf1ab4a78",
    "areas/errors-5": "346e224f140951ff07417f71a80c461c207e981e9a9d8ba969a26ee13dd8e335",
    "areas/trace-6": "1d236cd8ed98773cbee88c0e290ef88a3066c640a899be09a6a437395df0051f",
    "areas/compose-6": "071a10081e1a2aef44f21872ae446496e7bf3ea0f4d7a4ec4231cbd7e228072d",
    "areas/semantics-6": "cda3a3b29b56e6cc849a5dba7f96b8fece9889ddb8f551beeee163e7b5924aca",
    "areas/errors-6": "ed1a3db7b647b247853ee305fc0b55ea837ab3e99cc64dfc57502f7fb6e8730e",
    "areas/trace-7": "4d8bcc8c6bfd5e8510892720d54a4a696f6847e2a3ccadf19b5f19e9554ce35c",
    "areas/compose-7": "19d84d02ba8fb8f8c4f4268125c278bc358b246486cd618df9539d02067fd531",
    "areas/semantics-7": "cba56c1384be84bccdafd374d543ed2035997f071d8eb5c224bd6e0b1aac1215",
    "areas/errors-7": "03efba4565ba198e56083aadae6785adbbb9c3b78a77f49336a8721ab4521555",
    "areas/trace-8": "a2fe1b4e4f77db424b80c5fe0797fdbfbf6c1975576381793c90d5ac3cb3105b",
    "areas/compose-8": "9b2b9c223a61e6fde147a52f74064d02dfe0979a3a70f95bcbadb2aef46800ac",
    "areas/semantics-8": "453cbbccf26009e8dab77640cfca5ab51beb66c99d8736458837c4b77fc9dd2b",
    "areas/errors-8": "e584ac3d739c2b35fc13afa65b6033dba2b9237c08a7c24f8ce5d27493589794",
    "areas/trace-9": "7b8a69a06cb4d13fd0c8fb4e732eac9a89006ef487acff1047e718da180b2264",
    "areas/compose-9": "9e7c7dfdba6751a2790557adf9f87d4d64c88e5d71770301816cc268ad345a8f",
    "areas/semantics-9": "a4f4c76cd613e118ef5fccd4e7994da6a4dd0e12fcf511d04f07c9837049aa37",
    "areas/errors-9": "c04b49eda8e84e766d3e68c1c67a6b03ca2947269771999902f9792ccb985fc2",
    "areas/trace-10": "970be9a08c745b2d02ac7c99bd2a742642edb645ca15cce4853cc397e5386d25",
    "areas/compose-10": "bc18e7e2c4a70dce8820cae05ae808be1669a5c3d68f78c2086a5b8abbb7a151",
    "areas/semantics-10": "ef4c92518b7f8e7f0b18016b7634f31e97558567523f876376b5e50c5a389887",
    "areas/errors-10": "f123e8e9a83eb28ec4773c98386342e636aa58b1fda2022af6ac4892466daaf3",
    "areas/trace-11": "526190f9d9fb9e412734e1e97370b912182e1079debdc93029d078f39febad8b",
    "areas/compose-11": "ad0dd4142d44460c17dccfb03ce2ae1dfcb955ca3375026ed9108cfececeaa1b",
    "areas/semantics-11": "fe8799c30e25cbc48bd701c2e3fe67e2a36d74dc402d466b380948f1d45835ed",
    "areas/errors-11": "37ee75efd16497d5101720fa2d006224e2c6880213e946b1bee72f42d15ab8ac",
    "areas/trace-12": "e2fbf42b06297d0e3e5e4b03440a52f9371f6ccf2c79d59355fce1354724d852",
    "areas/compose-12": "535d414bad21ccc8716573f68ce16ce9d0f3e061bfc5ff7bbc129a5d5421d4c9",
    "areas/semantics-12": "58ce2e7d07c8e0dddb8aceff766f60a5158bd6492aeed8d8f5900447957f1830",
    "areas/errors-12": "8bbfa37b9686bcf16a3825f890df3804fea61479a154ec9037b8bbac885c6fdb",
    "areas/trace-13": "2f98c6fd792976166aaffa1c87c5c496bc11ea8186cad163ecbcfa51515847a7",
    "areas/compose-13": "f298de60baf3cb651ac2cce1b811395b85db4ce6a185a45ca1dd9b3b49cc930a",
    "areas/semantics-13": "57f95d3b4f92130f67ab81cab2c379a559fd2d2611617d1d043b147321f13f62",
    "areas/errors-13": "f300a1714ce51ef934df7eb770a41a587cacda2c39af8af42bf0158f60db0176",
    "areas/trace-14": "46e1ce18d07d5c3c6b243003533db896315acf283cd773ac04d6a374c1d1aecf",
    "areas/compose-14": "2f874e32fa3ccd0af9c52347ce835af6bc8832f8810e35daaa750f1f64c18c72",
    "areas/semantics-14": "07f2d4e6a8904ff59327c384a1048adc0b73998c4abbf8a20a6175c95b751b23",
    "areas/errors-14": "72db4a4d73e084416f73df99785dcf9a5546415d5827c8cc9d974908c2e807b6",
    "areas/trace-15": "fc5921c64e9c0c5ad63b8cf1d4108d72c36fe8702818324b73df6849171f3b9f",
    "areas/compose-15": "7804cdf06701a7abf3e0913465d6b3991427a2f12d128808eb865327b385a188",
    "areas/semantics-15": "850ce5addda0f269c89b07547f5f6b3c1a6a8c977ffadafe28a740c304f7652b",
    "areas/errors-15": "207eb22840f1831d62786c9eff9154975f0dd699b13925a3916489861110d264",
    "areas/trace-16": "a3efb11a3c9282077a246c74fb8b23eee0577c06d27ba142b98baa0658df98fc",
    "areas/compose-16": "48449e8006f8fec342afe1094f6a2374c04cbe1588c32765e8515e3b8fdd6441",
    "areas/semantics-16": "7931d188bbd8abe41ab209db6ee2bce0c4a5593d49c072a31e6aeb5957c275c9",
    "areas/errors-16": "0fd052ff3244e32490a889d518c1c545811a76cd9e89646d4666a7f80e69596a",
    "areas/trace-17": "fbdda41a3c74cfd1c7df6c0186bf9176658078141b8e6ac223b733005d78eccc",
    "areas/compose-17": "e6e174f72fd6a93b24f8b6ca19ffe16dcb1cf91217fbea3db6dec8f2b9195db3",
    "areas/semantics-17": "2d3f7de5800542dbbd36df1ecc584ce299d5d483286ea65586bb32f54dff42d5",
    "areas/errors-17": "207eb22840f1831d62786c9eff9154975f0dd699b13925a3916489861110d264",
    "areas/trace-18": "2178fc007ccb2414d53176409136e0187258c301d9960494dd8f96f796d0fea8",
    "areas/compose-18": "3df970f529656f08f4bb1682b1c399d3e126cb7e67cf666d78dc29a17530d248",
    "areas/semantics-18": "378893719ae0c4adb6d0ad6b951ff76c6cb476a21aa2a32175f273115726416e",
    "areas/errors-18": "207eb22840f1831d62786c9eff9154975f0dd699b13925a3916489861110d264",
    "areas/trace-19": "07aaf7c29f06449f3fc00076d37eb3752cefc7086793bdc69902f3bfe8dc7ded",
    "areas/compose-19": "185730a6623a415494324da42f1af5720de91e9b19b46dbacea96bc03d1254ff",
    "areas/semantics-19": "2b457fa65b7d4a4e2d79438afe8bd05d0c4564fa99f3b1b2fad93cc7955c42d9",
    "areas/errors-19": "207eb22840f1831d62786c9eff9154975f0dd699b13925a3916489861110d264",
    "areas/trace-20": "f30590589f8c6bd3a0759fa4cb951aa89b971c83025ab4757989850001d786e7",
    "areas/compose-20": "1fcea2fe161780f6626805b6791d8eb5dba684f22a93c7ebaaf10be0012a7fa5",
    "areas/semantics-20": "a607a004f3dd40eba3db427d32ecaf3e6edb5b72ac83feab173206be23a4a545",
    "areas/errors-20": "63c6539adac2529f50e914da0892847c1a05c28b69a22e6ad01dc5957e17b355",
    "areas/trace-21": "e1fd7c65ef232cf69bb68c47ad1104b1a6d2ac07ed581da4cbb659cc114e83c4",
    "areas/compose-21": "fa86e7f88ed1bf1f1412b432db3300fff98b24000e86ffd19ea331fc01bf6a6b",
    "areas/semantics-21": "c23cbe954eebf24578a78aca31904bb52bc9097e456b66c42fb58a078cf7cff1",
    "areas/errors-21": "e945294dbc78c4415db494bde8905a1a9d78e9785531d6cfb11a12576548337d",
    "areas/trace-22": "b5f0de0ebb9b060ae16775e5074b96e50868065bae7414dac2c2c56829607627",
    "areas/compose-22": "88aecdbc1a2115c535571c71a0b5d4ed9221eb3a4944cdd34ee0975b86593f60",
    "areas/semantics-22": "cfbfaa8754aa521dcad4cc8dfabdfa3c16301b204eb318aa0beed9ac2acad649",
    "areas/errors-22": "1f8e4b0cf57466eac19480ec94a01afc15632fb6dbd15a273b7c35a023a953ea",
    "areas/trace-23": "328bc936a4efa49bebee8cd08c1825c7238ca41d8e97b0f18253138ca234d60e",
    "areas/compose-23": "d144789c425fb6b4078b1eb4d27b49ab5f29784a0eab0330522c905b70a8f9c9",
    "areas/semantics-23": "2c876c2631530ff28285454b695419b6c734ff9a8f70400b1a3e9f63ee4fe007",
    "areas/errors-23": "6a7fac46d330befc2c5cc929b6dafb71ec041f64ae4c985822d4c300b5e0ab02",
}


def test_golden_bytes_are_unchanged():
    got = digests()
    assert sorted(got) == sorted(GOLDEN)
    changed = sorted(name for name in GOLDEN if got[name] != GOLDEN[name])
    assert changed == []


if __name__ == "__main__":
    print("GOLDEN = {")
    for name, digest in digests().items():
        print(f'    "{name}": "{digest}",')
    print("}")
