"""Golden bytes: SHA-256 of fixed outputs, pinned so a refactor of net
construction or rewriting shows any change in port or cell numbering.

The raw reduction traces and one-step reducts are not canonicalized, so they
pin the exact ports and cell ids each rule allocates; the normal forms pin
the canonical representatives.  To print the table after an intended change
of output bytes:

    PYTHONPATH=src python tests/test_golden.py
"""
import hashlib
import json
import random

from routenet.gen import PROGRAM_SUITE, gen_routing_net, gen_typed_net, suite_program
from routenet.lang import parse_region_ctx, parse_term
from routenet.multirel import from_rows
from routenet.proofnet import serialize
from routenet.rewrite import ALL, ANYDEPTH_EER, apply_redex, find_redexes, normalize
from routenet.routing import RoutingArea, build_area, juxtapose, transit
from routenet.translate import compile_program

MATRICES = {
    "m2x2": (["a", "b"], ["x", "y"], [[2, 0], [1, 3]]),
    "m3x3": (["i1", "i2", "i3"], ["o1", "o2", "o3"], [[1, 0, 2], [0, 0, 0], [3, 1, 0]]),
    "m1x1": (["i"], ["o"], [[1]]),
}


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


def _raw_trace(net) -> bytes:
    """Every summand `normalize` creates, in the order it creates them."""
    out, work = [], [net]
    while work:
        n = work.pop()
        rs = find_redexes(n, ANYDEPTH_EER)
        if rs:
            res = apply_redex(n, rs[0])
            out.append(serialize(res))
            work.extend(res)
    return b"\n".join(out)


def _one_step(net) -> bytes:
    """The net and each of its one-step reducts under every redex."""
    out = [serialize(net)]
    out += [serialize(apply_redex(net, r)) for r in find_redexes(net, ALL)]
    return b"\n".join(out)


def golden_outputs():
    """Yield (name, output bytes) for every pinned input."""
    suite = {name for name, _, _ in PROGRAM_SUITE}
    for name, R, p in _programs():
        net = compile_program(p, R)
        yield f"compile/{name}", serialize(net)
        if name in suite or name == "chain-40":
            yield f"normalize/{name}", serialize(normalize(net, budget=200000))
            yield f"trace/{name}", _raw_trace(net)
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
    for seed in range(8):
        rng = random.Random(seed)
        yield f"step/typed-{seed}", _one_step(gen_typed_net(rng))
        yield f"step/routing-{seed}", _one_step(gen_routing_net(rng))


def digests() -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in golden_outputs()}


GOLDEN = {
    "compile/unit": "13d42ccac61cd26a69ce9ae36cad2934d1f532806233a0228407a5312382ad26",
    "normalize/unit": "13d42ccac61cd26a69ce9ae36cad2934d1f532806233a0228407a5312382ad26",
    "trace/unit": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "compile/id-unit": "4e4bae3672ef866fbf26903d95a42dc0db53f41f8c22875ea0f5a0286304dd65",
    "normalize/id-unit": "13d42ccac61cd26a69ce9ae36cad2934d1f532806233a0228407a5312382ad26",
    "trace/id-unit": "974263c8192f2194839e821709849f31f720a9664c6bb5dcb3d34ffaa3a65999",
    "compile/nested-beta": "80766f6e4544bb73a040221351a8af96471354e54d8401392e6275573a0e4c5d",
    "normalize/nested-beta": "13d42ccac61cd26a69ce9ae36cad2934d1f532806233a0228407a5312382ad26",
    "trace/nested-beta": "5fb838af7bccdbe2efb2befe0e1effe4735a2efc5396fc916543543fd8153f45",
    "compile/first": "e38103b3862ec14af29ee7d58b82feceb941bc806aedba8e33b8e30db20ee35f",
    "normalize/first": "13d42ccac61cd26a69ce9ae36cad2934d1f532806233a0228407a5312382ad26",
    "trace/first": "b82c7c63a4a98947abb8030ab0a5a57bb50f0053893bd20e4fdea50e9d8a1af6",
    "compile/second": "222ae7734ff467100455b68663547175f7b92ba5856b4dbfcc30b251cfc43ef3",
    "normalize/second": "13d42ccac61cd26a69ce9ae36cad2934d1f532806233a0228407a5312382ad26",
    "trace/second": "5f430e7a89fe99075562aaccedeed3959ef0f8324a1c61e3b1831f1542e93c99",
    "compile/apply-id": "3eb2371d2cb83c142d95a02307bb561aefb627e9ae65fc4476282b92d4cd0871",
    "normalize/apply-id": "13d42ccac61cd26a69ce9ae36cad2934d1f532806233a0228407a5312382ad26",
    "trace/apply-id": "4cca4a7261ed05c604be1b9bf032bf892c47f7320b16537d93d9039c1e2cb8ff",
    "compile/discard": "35afe5eeb0b8389673148fe2b97381b7d951253e815851d3a8bcd86d7287bf63",
    "normalize/discard": "13d42ccac61cd26a69ce9ae36cad2934d1f532806233a0228407a5312382ad26",
    "trace/discard": "7b81f7efcd5fe0b4b1dba644d5d2fea756acddcd8d6a49c3d8f16ed6ca010a9a",
    "compile/set-get": "9eea791df0bae00f47bc17adbdcca4daa329f982cfd665aaddf9cb2a835f742f",
    "normalize/set-get": "9f2c3c82452ea003062b209bab8be27d6e4df548d3019a8d19719fa24c5a22e6",
    "trace/set-get": "8ddc759c63ee95745d157a739482d40c24a394117202b3ff72ef541165c54c63",
    "compile/store-get": "6540be7649c7df8f15443a0e3430cfb0bcb44ffd3e126949bd0989d6c0e70e67",
    "normalize/store-get": "13d42ccac61cd26a69ce9ae36cad2934d1f532806233a0228407a5312382ad26",
    "trace/store-get": "b4b017a6592cf8e9c3120becbd6fd3896a4aebf55691641fdd78cc14256bc4ef",
    "compile/race": "3449e45b554ba2b5a0d311e2256b229018501c404bd48b82a07a7f8ab35a0f8c",
    "normalize/race": "0b79c75558c04d0365045f0085d49e285b4b62dd4cf5b9a4ea64bd46d162d636",
    "trace/race": "73e156eb4447da2291b4c70b1f31672d53415a50ed1669d5edbf69354beaf66d",
    "compile/latent-set": "63da830f25fd0fd16246bb786a0d877414b497c14d6ebcc79a9d7eba22aadf94",
    "normalize/latent-set": "9f2c3c82452ea003062b209bab8be27d6e4df548d3019a8d19719fa24c5a22e6",
    "trace/latent-set": "4763c51abb24a8cb2359525d1f2866524c04b4e03e082bf6e07619e4b1f5e085",
    "compile/latent-get": "91f7841fb601ed21f94b566f55f3a1d14bc4b29d23e5d33855b9114c83c6648b",
    "normalize/latent-get": "13d42ccac61cd26a69ce9ae36cad2934d1f532806233a0228407a5312382ad26",
    "trace/latent-get": "f06080a1bdf7218d857033bc30144311179e52b58a25c4491ce65ac08ea8ebdb",
    "compile/captured-set": "dd8bf9bc8963ef49bb0ebf80c31247e4551a40f49561b10a74e429093de5a324",
    "normalize/captured-set": "9f2c3c82452ea003062b209bab8be27d6e4df548d3019a8d19719fa24c5a22e6",
    "trace/captured-set": "dd039af320d6e441900ee03334548b6b7ff93b9c9218826c7d01bb7e2b8fda05",
    "compile/two-readers": "5471921465d3a3f92cce08362221c9a9ff6969d8db0e483b35fede60070c03e4",
    "normalize/two-readers": "01633a367dc7e654446a6f011cee1bbbed8638a9a38279b7822cc4d2f885d369",
    "trace/two-readers": "a2cd89eaa94b8bf7daaffe8981d389991a564b00d7250c6e078848ba9106c030",
    "compile/stored-fn": "5e213bf68af7311dd930c56b23b54bbd96018e1659c324dd643bb7da4126610d",
    "normalize/stored-fn": "9f2c3c82452ea003062b209bab8be27d6e4df548d3019a8d19719fa24c5a22e6",
    "trace/stored-fn": "6f46216cf6a49284764a8ef21090faa44990d7e30f7de1f1464fd112beff65cf",
    "compile/stored-effectful-fn": "7286960c99ab737bb5e05219967a4052aabdef052958d79d61afc30abd70131c",
    "normalize/stored-effectful-fn": "9f2c3c82452ea003062b209bab8be27d6e4df548d3019a8d19719fa24c5a22e6",
    "trace/stored-effectful-fn": "ef6dbf1dd88174d1582aa68793ed1ada6ecdc2ff420b96e183cbfdfc9b2b0c16",
    "compile/two-refs": "679e1b5e7ad00edcc5f2e8940f29bd47455afd9bd9cfd1f43d69048a758b5b33",
    "normalize/two-refs": "01633a367dc7e654446a6f011cee1bbbed8638a9a38279b7822cc4d2f885d369",
    "trace/two-refs": "efb6610daecd74b856c4f7270e3f416b587836d4cc2122ccdfc8819d93c30149",
    "compile/ho-latent": "fbf78a364046624a67107aa1b8f62257812be9bf7434d8da0890d8170d816e73",
    "normalize/ho-latent": "9f2c3c82452ea003062b209bab8be27d6e4df548d3019a8d19719fa24c5a22e6",
    "trace/ho-latent": "c61e94c14bc7d707a6f097ff3bbb74a1d6b3dd5bd834d536f91a082fea5cce09",
    "compile/proj": "ba5a3f6b3ff3091810d71db5355d1d1a05cdca1310aae051a6d56e2d67b86498",
    "normalize/proj": "0b79c75558c04d0365045f0085d49e285b4b62dd4cf5b9a4ea64bd46d162d636",
    "trace/proj": "035b53356bbb3bd56fe94ba8f5c6502e44601ba91441514151113d80c37a7025",
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
    "step/typed-1": "2124c746e72f4f6069e508723820330cf954d4553a19124cf38eb615ca4e9a9a",
    "step/routing-1": "dea6d53a2832b72c7a78eefd4d98bffac7cb9bd68b30fa68af1dfe8c3c2eade2",
    "step/typed-2": "ad1c481b1e77a222db6ce15a03d91780166d20f45b715cce76c0ce6866a39f27",
    "step/routing-2": "8e45a1d9d69fe565594ce3c9110454925113ce14fcf08c0cff6905286685f9f9",
    "step/typed-3": "716ac7bbaf46e94d8b6e46285d11f5075991ae5762fc24b0a696124b2668988c",
    "step/routing-3": "63770740c10975449b09747e131a3cb84df1f2da3a71f3509ed2a2df355e5177",
    "step/typed-4": "63fb335b51b66c58cbdb950381724c400d05f7266aea3e7a7d9462ab201b4e4d",
    "step/routing-4": "6edc2f5a2ebe3f0f0fca9da6ba178ceaaae40a7d34b8cd4ea9144ded47d0b634",
    "step/typed-5": "5c1ce71f9385a9632a29b222f313328ea354de4daddb1e45f3c54f5c8930859b",
    "step/routing-5": "0cc57dc3ede696b0e8fb751ae6a7360f07d3a6ed165dc03d76b63e36ee44d8ea",
    "step/typed-6": "397a52418a71ef3977c167a513200f014a882dbfe862c9c6f2e4b9c591a85bfc",
    "step/routing-6": "d9a013eb2a412450b05f3694380ff1785212e2adc269413f68e7ce9fadac7633",
    "step/typed-7": "377e511db169e661fec0ad2f886adf8ea9c6372d1256a01eea0979b423c93aa7",
    "step/routing-7": "e39e9181ce6a95b2355fc7abc76bdabb533975df32f84befdb638782d8d742ee",
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
