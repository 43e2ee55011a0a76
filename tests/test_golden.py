"""Golden bytes: SHA-256 of fixed outputs, pinned so a refactor of net
construction or rewriting shows any change in port or cell numbering.

The raw reduction traces and one-step reducts are not canonicalized, so they
pin the exact ports and cell ids each rule allocates; the normal forms pin
the canonical representatives.  The `canonical/...` entries pin, for each of
several hundred raw nets, both the canonical net and its certificate.  To
print the table after an intended change of output bytes:

    PYTHONPATH=src python tests/test_golden.py
"""
import hashlib
import json
import random

from routenet.gen import (
    PROGRAM_SUITE,
    gen_relation,
    gen_routing_net,
    gen_typed_net,
    suite_program,
)
from routenet.lang import parse_region_ctx, parse_term
from routenet.multirel import from_rows
from routenet.proofnet import canonicalize_with_cert, serialize
from routenet.rewrite import ALL, ANYDEPTH_EER, apply_redex, find_redexes, normalize
from routenet.routing import RoutingArea, build_area, compose_areas, juxtapose, transit
from routenet.translate import compile_program

MATRICES = {
    "m2x2": (["a", "b"], ["x", "y"], [[2, 0], [1, 3]]),
    "m3x3": (["i1", "i2", "i3"], ["o1", "o2", "o3"], [[1, 0, 2], [0, 0, 0], [3, 1, 0]]),
    "m1x1": (["i"], ["o"], [[1]]),
}

# Positions in each suite program's raw trace (every 10th net) whose net
# canonicalizes in well under a second; the others take seconds or more.
TRACE_PICKS = {
    "id-unit": (0,),
    "nested-beta": (0,),
    "first": (0,),
    "second": (0,),
    "apply-id": (0,),
    "discard": (0,),
    "set-get": (0, 10),
    "store-get": (0,),
    "race": (0, 10),
    "latent-set": (0, 10, 20, 60, 70),
    "latent-get": (0, 10, 20, 30, 40, 50, 60, 70),
    "captured-set": (0, 10, 20, 50, 140),
    "two-readers": (0, 10, 20, 30, 40, 50, 60, 70, 80, 90),
    "stored-fn": (0, 10, 40, 50, 60, 70),
    "stored-effectful-fn": (0, 10, 20, 80, 90, 100, 110, 120, 130, 140, 150, 160),
    "two-refs": (0, 10, 280, 290, 300, 310, 490),
    "ho-latent": (0, 10, 20, 50, 140),
    "proj": (
        0, 10, 20, 30, 110, 120, 130, 140, 150, 160, 240, 250, 260, 270, 280, 290,
        370, 380, 390, 420, 430, 440, 450, 480, 490, 500, 510, 520, 540, 550, 560,
        570, 580,
    ),
}
CANONICAL_SEEDS = 80


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
            for k in TRACE_PICKS.get(name, ()):
                yield f"canonical/trace-{name}-{k}", _canonical(nets[k])
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


def digests() -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in golden_outputs()}


GOLDEN = {
    "compile/unit": "13d42ccac61cd26a69ce9ae36cad2934d1f532806233a0228407a5312382ad26",
    "normalize/unit": "13d42ccac61cd26a69ce9ae36cad2934d1f532806233a0228407a5312382ad26",
    "trace/unit": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "compile/id-unit": "4e4bae3672ef866fbf26903d95a42dc0db53f41f8c22875ea0f5a0286304dd65",
    "normalize/id-unit": "13d42ccac61cd26a69ce9ae36cad2934d1f532806233a0228407a5312382ad26",
    "trace/id-unit": "974263c8192f2194839e821709849f31f720a9664c6bb5dcb3d34ffaa3a65999",
    "canonical/trace-id-unit-0": "93890b30869911c21afc5b0101d91df0eeb7020b65367cf9dd7a74776e83d323",
    "compile/nested-beta": "80766f6e4544bb73a040221351a8af96471354e54d8401392e6275573a0e4c5d",
    "normalize/nested-beta": "13d42ccac61cd26a69ce9ae36cad2934d1f532806233a0228407a5312382ad26",
    "trace/nested-beta": "5fb838af7bccdbe2efb2befe0e1effe4735a2efc5396fc916543543fd8153f45",
    "canonical/trace-nested-beta-0": "ec6f8cc7a2ac18529adb4770fbd3cab7e4af8e4076d36df8576154433bbed011",
    "compile/first": "e38103b3862ec14af29ee7d58b82feceb941bc806aedba8e33b8e30db20ee35f",
    "normalize/first": "13d42ccac61cd26a69ce9ae36cad2934d1f532806233a0228407a5312382ad26",
    "trace/first": "b82c7c63a4a98947abb8030ab0a5a57bb50f0053893bd20e4fdea50e9d8a1af6",
    "canonical/trace-first-0": "b39d990c5b6d94b29116a48aefa00c638f8794b04322677a44d05037ed077af9",
    "compile/second": "222ae7734ff467100455b68663547175f7b92ba5856b4dbfcc30b251cfc43ef3",
    "normalize/second": "13d42ccac61cd26a69ce9ae36cad2934d1f532806233a0228407a5312382ad26",
    "trace/second": "5f430e7a89fe99075562aaccedeed3959ef0f8324a1c61e3b1831f1542e93c99",
    "canonical/trace-second-0": "3b691f8b723c233868312b4b4f8ecad787ecf983d6d2938775ea9a42dfca79a7",
    "compile/apply-id": "3eb2371d2cb83c142d95a02307bb561aefb627e9ae65fc4476282b92d4cd0871",
    "normalize/apply-id": "13d42ccac61cd26a69ce9ae36cad2934d1f532806233a0228407a5312382ad26",
    "trace/apply-id": "4cca4a7261ed05c604be1b9bf032bf892c47f7320b16537d93d9039c1e2cb8ff",
    "canonical/trace-apply-id-0": "4dacead123b5af0d55d5bdf2f68fcbc21384cb3c074eb4889b1074eb9d21a19e",
    "compile/discard": "35afe5eeb0b8389673148fe2b97381b7d951253e815851d3a8bcd86d7287bf63",
    "normalize/discard": "13d42ccac61cd26a69ce9ae36cad2934d1f532806233a0228407a5312382ad26",
    "trace/discard": "7b81f7efcd5fe0b4b1dba644d5d2fea756acddcd8d6a49c3d8f16ed6ca010a9a",
    "canonical/trace-discard-0": "d066dbcb4b9d4bdf967c5db47346225cfc4f39ff8b28f8008f967b986c2db087",
    "compile/set-get": "9eea791df0bae00f47bc17adbdcca4daa329f982cfd665aaddf9cb2a835f742f",
    "normalize/set-get": "9f2c3c82452ea003062b209bab8be27d6e4df548d3019a8d19719fa24c5a22e6",
    "trace/set-get": "8ddc759c63ee95745d157a739482d40c24a394117202b3ff72ef541165c54c63",
    "canonical/trace-set-get-0": "5ace1a950f0af2ec0bed9943d3c0c751d4e8c8369132680870ebe9dad864d810",
    "canonical/trace-set-get-10": "fa63b3b17818be864c49c179f798b59eab1175fc82ce7c5100f3ae646bd8ff05",
    "compile/store-get": "6540be7649c7df8f15443a0e3430cfb0bcb44ffd3e126949bd0989d6c0e70e67",
    "normalize/store-get": "13d42ccac61cd26a69ce9ae36cad2934d1f532806233a0228407a5312382ad26",
    "trace/store-get": "b4b017a6592cf8e9c3120becbd6fd3896a4aebf55691641fdd78cc14256bc4ef",
    "canonical/trace-store-get-0": "d72b69418d0f97613d09429bbe7257aba730c06ee8066c87fc4533da78293f0e",
    "compile/race": "3449e45b554ba2b5a0d311e2256b229018501c404bd48b82a07a7f8ab35a0f8c",
    "normalize/race": "0b79c75558c04d0365045f0085d49e285b4b62dd4cf5b9a4ea64bd46d162d636",
    "trace/race": "73e156eb4447da2291b4c70b1f31672d53415a50ed1669d5edbf69354beaf66d",
    "canonical/trace-race-0": "aa8d656f3c086a6c70dced36ed7d9f4fd9a5e3f35774537650ee0319f2821caf",
    "canonical/trace-race-10": "e7cecd006462df5342d747deb4934b283dbe85f263c892a395b738a274a58236",
    "compile/latent-set": "63da830f25fd0fd16246bb786a0d877414b497c14d6ebcc79a9d7eba22aadf94",
    "normalize/latent-set": "9f2c3c82452ea003062b209bab8be27d6e4df548d3019a8d19719fa24c5a22e6",
    "trace/latent-set": "4763c51abb24a8cb2359525d1f2866524c04b4e03e082bf6e07619e4b1f5e085",
    "canonical/trace-latent-set-0": "aa411c4bea947e6e8bad5ecbb5ff7412f82acc06bb1e25fe0ab99076653f557c",
    "canonical/trace-latent-set-10": "560cd710ebca7a3ba0c5d2664afa627c531db8e7f31fcd7d36fae65c7c9df69b",
    "canonical/trace-latent-set-20": "98eba25de22b2505d8454e217699699e223e1863115418f4a8c293a7bac24118",
    "canonical/trace-latent-set-60": "db8f00185a3c2bc569af8ee29910980fbd4e95e0b73be8c2dafb8ba54603a13f",
    "canonical/trace-latent-set-70": "fe435e64e37be46199d6bb8a25fff737352d0aa080c3a19f914b8d6068de4be1",
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
    "compile/captured-set": "dd8bf9bc8963ef49bb0ebf80c31247e4551a40f49561b10a74e429093de5a324",
    "normalize/captured-set": "9f2c3c82452ea003062b209bab8be27d6e4df548d3019a8d19719fa24c5a22e6",
    "trace/captured-set": "dd039af320d6e441900ee03334548b6b7ff93b9c9218826c7d01bb7e2b8fda05",
    "canonical/trace-captured-set-0": "21d506fce61de8f7d98c2d9e32e8e5038b56e20b78e37d00b4f547793908bcf5",
    "canonical/trace-captured-set-10": "5f051098f087d530140d0f497a15e4723fe8adfa4693b7faac8f8b256386790a",
    "canonical/trace-captured-set-20": "02bdc7870ae42956043091c63d7a095df087541e16ef0577a43ce9325bb6b8d7",
    "canonical/trace-captured-set-50": "bab3cc1c5e1de4c80b562b149dddbabe18aa86855690e6cbaf0c6972f20a677e",
    "canonical/trace-captured-set-140": "06e72d9d60a52e60c97addd40e2c9701d7ce3b0c8ced6eb4fa66082927fde0d9",
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
    "compile/stored-fn": "5e213bf68af7311dd930c56b23b54bbd96018e1659c324dd643bb7da4126610d",
    "normalize/stored-fn": "9f2c3c82452ea003062b209bab8be27d6e4df548d3019a8d19719fa24c5a22e6",
    "trace/stored-fn": "6f46216cf6a49284764a8ef21090faa44990d7e30f7de1f1464fd112beff65cf",
    "canonical/trace-stored-fn-0": "14cfe67d3d21a3eab2891e041a02315cae49337477592acd7d890563d2650e01",
    "canonical/trace-stored-fn-10": "7377859b461d0424f303045a75ede9cb0a2a599ce12285e8706a2f4d286082f3",
    "canonical/trace-stored-fn-40": "76e8258d0f8d103fc1d0ed349e97f672696234e1f7094378cff4bd74e488f2b9",
    "canonical/trace-stored-fn-50": "35b376ef79edcffec1e1c3b53a8f9fd9124f9c31b2a82901e6951dccde0f5cd7",
    "canonical/trace-stored-fn-60": "206a62909d27ee0f640a4cb96fcaa86ad355070e70893442b569b8086828cd4f",
    "canonical/trace-stored-fn-70": "c4e8eb444a97fe543f3104114ada025d86d9baafd42c4f469ba7e5f8a7caacea",
    "compile/stored-effectful-fn": "7286960c99ab737bb5e05219967a4052aabdef052958d79d61afc30abd70131c",
    "normalize/stored-effectful-fn": "9f2c3c82452ea003062b209bab8be27d6e4df548d3019a8d19719fa24c5a22e6",
    "trace/stored-effectful-fn": "ef6dbf1dd88174d1582aa68793ed1ada6ecdc2ff420b96e183cbfdfc9b2b0c16",
    "canonical/trace-stored-effectful-fn-0": "76e8ed34fa4a9c757c099f9edbb7d20ad2956b30eff99a9b0830c2039fe758e0",
    "canonical/trace-stored-effectful-fn-10": "68d2c22c5d84db45a63b7ed0f0add72e27368cf134abffbc31ba92564a650833",
    "canonical/trace-stored-effectful-fn-20": "999a1931715057419d55c98fe32ce4a6307fe786771c8615c970764a7c3cbc2d",
    "canonical/trace-stored-effectful-fn-80": "1465e4e0422fa4b9aec13eea8cab09ebce5cc3fdc5f02b93b764369a964f022e",
    "canonical/trace-stored-effectful-fn-90": "4a814ef78bd54bc88efb412b7a22df2d252f1fe9a755878cc958b2483a9d8bba",
    "canonical/trace-stored-effectful-fn-100": "4d650cfeecc5034a2fd9d3c4414a7db4cd779d5f684ed975f8cb3510ef71036c",
    "canonical/trace-stored-effectful-fn-110": "577470ff191aef53d495d4ebc7125830849d286ab7b7cf5968aea9db6aca0912",
    "canonical/trace-stored-effectful-fn-120": "57e8dad786e7389ef16fcab8ed809e8c896b65696c77f71403cf92656e1b2c10",
    "canonical/trace-stored-effectful-fn-130": "53026527f21e556829d44d98894f003afc1861155065a842fb31de702ceac121",
    "canonical/trace-stored-effectful-fn-140": "74e3fc1f9102a119e1d7b79c5a83d4e2559f78fb5ab255543110f7c0c5e025bb",
    "canonical/trace-stored-effectful-fn-150": "808e284a65693c5113de5b977e8d0447a4b235acc29f6e442965249e61d24a1a",
    "canonical/trace-stored-effectful-fn-160": "0cf4227c5d3c81791bd2cec675a4a2b10cc9aee9f347ff899dd37eef1f96b9df",
    "compile/two-refs": "679e1b5e7ad00edcc5f2e8940f29bd47455afd9bd9cfd1f43d69048a758b5b33",
    "normalize/two-refs": "01633a367dc7e654446a6f011cee1bbbed8638a9a38279b7822cc4d2f885d369",
    "trace/two-refs": "efb6610daecd74b856c4f7270e3f416b587836d4cc2122ccdfc8819d93c30149",
    "canonical/trace-two-refs-0": "f50671d855cd15a55dbf0ec48f69525b8feadf61f0b7562942b5c93892e66a2a",
    "canonical/trace-two-refs-10": "353588b608577dff61b97f06b55695b20824a96465e6788ce0244c8475a664dc",
    "canonical/trace-two-refs-280": "9b6dffd6c48e8bf1bb0f3318aa8b32f9dd8ff6245e8153cf73be504bdf0a5032",
    "canonical/trace-two-refs-290": "b4ca8c2fa5f6532af788f3be79bea21b29643d4c571d396c7abb25389018e7f5",
    "canonical/trace-two-refs-300": "8d601f5c6497cf9050e2da906e242d9c34f99ff6350dcb5c49691d447533ac1d",
    "canonical/trace-two-refs-310": "3fa18c40c192c90650d25167e9a8e2be6cb7fc530b3fab530739e463e5f7d58b",
    "canonical/trace-two-refs-490": "885fdc6f6604c447aefde5ff9cc5a1852e46a22abe65c5a84edd3f53cf2ab0e8",
    "compile/ho-latent": "fbf78a364046624a67107aa1b8f62257812be9bf7434d8da0890d8170d816e73",
    "normalize/ho-latent": "9f2c3c82452ea003062b209bab8be27d6e4df548d3019a8d19719fa24c5a22e6",
    "trace/ho-latent": "c61e94c14bc7d707a6f097ff3bbb74a1d6b3dd5bd834d536f91a082fea5cce09",
    "canonical/trace-ho-latent-0": "a5578b37ead20db42e953984b514cda91ecc0dcf9fd288af193265dd3ccb03ae",
    "canonical/trace-ho-latent-10": "f8d35c2c769cbe8d9c81f92d2be18331afded680a2809c1e970fce5c31fb01df",
    "canonical/trace-ho-latent-20": "c57561bb7b72c46d22325c139efb94a01ac0dc1aa1a4118bf238314f534536e3",
    "canonical/trace-ho-latent-50": "db6da5b81da29c82ddd4e0aa6a4d39622af908e363a9d70373ba3144166b3ef3",
    "canonical/trace-ho-latent-140": "c0a241b46d2ebbb567e94750b27bb5d5c22f9d26f6ff69076e2847bbfa52ef54",
    "compile/proj": "ba5a3f6b3ff3091810d71db5355d1d1a05cdca1310aae051a6d56e2d67b86498",
    "normalize/proj": "0b79c75558c04d0365045f0085d49e285b4b62dd4cf5b9a4ea64bd46d162d636",
    "trace/proj": "035b53356bbb3bd56fe94ba8f5c6502e44601ba91441514151113d80c37a7025",
    "canonical/trace-proj-0": "2631bdadd19e5ea0384a3f72f8f2e9449ac45cb3eed7ae7932baee6e36d5b8bd",
    "canonical/trace-proj-10": "c538c5c9b9d66e159f796625f5fcf7dee6b7a4d7150b486c1850724dec38e3e0",
    "canonical/trace-proj-20": "78b7c3742b096e55aa3014438bce6e63491932222016921118cbe02de17490f3",
    "canonical/trace-proj-30": "29b9a531b9bc78766d5cb10dfd072b1ee321a74c4f76df2aec5ab8c598b3903e",
    "canonical/trace-proj-110": "0819706a11463d2c38245e6a11eae3aeb76c0bb8c5c84b67b20add4f0d84dd7c",
    "canonical/trace-proj-120": "2b3cbb033c72e86a78ae36ab328f4fff7b583cc701876752d928774ba14737b4",
    "canonical/trace-proj-130": "dbc18317ec03209de6d362439048aacb2ce13f17785126646eb562404b77abc8",
    "canonical/trace-proj-140": "7593ff443d7db1dc97d29f86587a7e8c3de5f1bf06beb9eedb93b0ba55892094",
    "canonical/trace-proj-150": "dfa514fd1564d89c3c55952148ba7df485398fc15f9e5398d511fa408105349f",
    "canonical/trace-proj-160": "e587f5a879386b65d22f87dc9463ffbd7759b349d3c5dd3581b6610cb0014409",
    "canonical/trace-proj-240": "cde403a71c7113560eae93f83242a3548fc683970377d016352b6fdaa496f926",
    "canonical/trace-proj-250": "cde403a71c7113560eae93f83242a3548fc683970377d016352b6fdaa496f926",
    "canonical/trace-proj-260": "58785db694295dbcec1ec7b5e7933f1580a9b01beeb030fd0b0eb07df0583b70",
    "canonical/trace-proj-270": "663641a4aa78ded9deb1820cc5c2a39b6c6d9d98ed9529fee35c5bfddc0e8be2",
    "canonical/trace-proj-280": "cc7bd8e5a12261c31fef05f1719c21466b379480916e891faaf6f6c487d33a1a",
    "canonical/trace-proj-290": "2087e5f45c8ad9df0ef4447ad24b7fb79288a5852d6bc371e766f8bea2961fff",
    "canonical/trace-proj-370": "1751f7ffbf8714bf2a71d17ac8955d121b080296c36b15091447ede5f5aabe85",
    "canonical/trace-proj-380": "0cac60608a6bf040d4007c0981bfe64ac521766d49b6514ff0c5759b4b0c3a06",
    "canonical/trace-proj-390": "8aaea504384c191d6cde3c444f63f451c0369376a191d276f166882e6794cd9f",
    "canonical/trace-proj-420": "c6b63ce609f7c49bbc80a93ead4dff66464b63b5eeed9ebc8f827aed9d83d3c1",
    "canonical/trace-proj-430": "3513846e9adffa15c425907273d6f155686fafdcb8a14e3cdebda8c55ee33ddd",
    "canonical/trace-proj-440": "25f363abfbcf12f16e3d7ae245827943aed284b46e144e47bf1cba9899370572",
    "canonical/trace-proj-450": "25adad90043681e7b234f3e318b0e8035a62d93d5cf80459df1751cb59547c1c",
    "canonical/trace-proj-480": "78dd1b4731a88a2adcccbef0badf881aacb30101e723e4987a27ea87f233c698",
    "canonical/trace-proj-490": "bc52aff7a533ab1cc54a5841b2d8091378ba0401f16395ec82fd44419e2d64bc",
    "canonical/trace-proj-500": "3b360528dfa69c4c7f48d114bafba89488524a3e2fad7ea5aad5b4a2090fac68",
    "canonical/trace-proj-510": "609017195cdb37ae9ea3a1bfda86616016c371c6a4e38ed4639fb5912a21ff2e",
    "canonical/trace-proj-520": "5d25992df25d8e1beddee0f34b53475db0a4d3963432ca2a6c0ba645047da0ee",
    "canonical/trace-proj-540": "28903ce15ef06118331f135d139800417ba10d511e7e8979fa5f4a5ae6832e97",
    "canonical/trace-proj-550": "49c63a991e51aa7671f019b79da6461829786dd7c1d5e27268bdea3a3d3c7846",
    "canonical/trace-proj-560": "4cab1c177a9618f1b63ccf22c0591f2f32c04a7e915556a56de1158a2b0d9ce5",
    "canonical/trace-proj-570": "f29dcc33152e6c51bc1c2538bd4531f633888eb590c58544dab224eb995447ee",
    "canonical/trace-proj-580": "196821a00faf82adc74223296b23677251da4a7358742c37a7067256ed2aef3f",
    "compile/readers-1": "9eea791df0bae00f47bc17adbdcca4daa329f982cfd665aaddf9cb2a835f742f",
    "compile/readers-2": "5471921465d3a3f92cce08362221c9a9ff6969d8db0e483b35fede60070c03e4",
    "compile/readers-3": "8bd3176fd1da6e353fe6dd295be48280381ce9bbe755a6e5ffba6f68242cbcbf",
    "compile/readers-4": "8a9c61696e06909082c8f8a30dd7f3b13e17a77ebb51aafabb3e4bd1038a1cb3",
    "compile/chain-40": "ae9bb507ef8eb259eb876a07e054b674d31bbdeb2e964ceb77a4b4c739d6e5aa",
    "normalize/chain-40": "13d42ccac61cd26a69ce9ae36cad2934d1f532806233a0228407a5312382ad26",
    "trace/chain-40": "42de9e2190f229d4487da62d17d5baebcc1861fe965ea250a068291029a1c61a",
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
