"""Command-line interface: exit codes, output formats, determinism."""
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import routenet

from routenet.cli import main
from routenet.gen import PROGRAM_SUITE, gen_routing_net, gen_typed_net
from routenet.proofnet import canonical_equal, fmt_formula, parse, serialize, validate
from routenet.translate import compile_program
from routenet.lang import parse_region_ctx, parse_term


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_check_reports_type_and_effect(tmp_path, capsys):
    ctx = _write(tmp_path, "R.ctx", "r : Unit\n")
    prog = _write(tmp_path, "M.term", "set r * || get r\n")
    assert main(["check", ctx, prog]) == 0
    out = capsys.readouterr().out
    assert "type: B" in out
    assert "effect: {r}" in out


def test_check_type_error_exits_1(tmp_path, capsys):
    prog = _write(tmp_path, "M.term", "x\n")
    assert main(["check", prog]) == 1
    assert "type error" in capsys.readouterr().out


def test_compile_refuses_a_lambda_returning_a_behaviour(tmp_path, capsys):
    """`(\\x. x || x) *` type checks, but a λ whose body is a behaviour has no
    formula, so `compile` exits 1."""
    prog = _write(tmp_path, "M.term", "(\\x. x || x) *\n")
    assert main(["check", prog]) == 0
    assert "type: B" in capsys.readouterr().out
    assert main(["compile", prog]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "behaviours have no standalone formula" in captured.err


def test_compile_emits_parseable_net(tmp_path, capsys):
    prog = _write(tmp_path, "M.term", "*\n")
    assert main(["compile", prog]) == 0
    out = capsys.readouterr().out
    (net,) = parse(out.encode())
    want = compile_program(parse_term("*"), parse_region_ctx(""))
    assert canonical_equal(net, want)


def test_compile_emits_dot(tmp_path, capsys):
    prog = _write(tmp_path, "M.term", "*\n")
    assert main(["compile", "--emit", "dot", prog]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")


def test_reduce_round_trip(tmp_path, capsys):
    prog = _write(tmp_path, "M.term", r"(\x. x) *")
    assert main(["compile", prog]) == 0
    netfile = _write(tmp_path, "n.json", capsys.readouterr().out)
    assert main(["reduce", netfile]) == 0
    reduced = parse(capsys.readouterr().out.encode())
    assert main(["compile", _write(tmp_path, "star.term", "*")]) == 0
    star = parse(capsys.readouterr().out.encode())
    from routenet.rewrite import normalize

    assert normalize(reduced) == normalize(star)


def test_values_json(tmp_path, capsys):
    prog = _write(tmp_path, "M.term", "set r * || get r\n")
    assert main(["values", prog]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got == {"values": [["*", "*"]]}


def test_values_type_checks_in_the_given_context(tmp_path, capsys):
    ctx = _write(tmp_path, "R.ctx", "r : Unit\n")
    prog = _write(tmp_path, "M.term", "get q\n")
    assert main(["values", ctx, prog]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "unknown reference 'q'" in err
    assert main(["check", ctx, prog]) == 1
    assert "unknown reference 'q'" in capsys.readouterr().out


def test_area_command(tmp_path, capsys):
    mat = _write(tmp_path, "R.mat", "in: a b\nout: x\n2\n1\n")
    assert main(["area", mat]) == 0
    (net,) = parse(capsys.readouterr().out.encode())
    labels = sorted(l for _, l in net.free)
    assert labels == ["a", "b", "x"]


@pytest.mark.parametrize(
    "mat, error",
    [
        # a row's error names its line and starts at the line's offset
        ("in: a b\nout: x\n-1\n2\n", "at offset 15: line 3: negative entry -1"),
        ("in: a a\nout: x\n1\n1\n", "at offset 0: duplicate labels"),
        ("in: a\nout: x y\n\n1\n", "at offset 16: line 4: expected 2 entries, got 1"),
        ("in: a b\nout: x\n5000\n5001\n", "at offset 0: total multiplicity 10001"),
    ],
    ids=["negative-entry", "duplicate-label", "short-row", "multiplicity-over-limit"],
)
def test_malformed_matrix_is_65(tmp_path, capsys, mat, error):
    assert main(["area", _write(tmp_path, "R.mat", mat)]) == 65
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("routenet: parse error " + error)


def test_verify_pass_and_determinism(capsys):
    assert main(["verify", "--suite", "compose", "--seed", "7", "--cases", "3"]) == 0
    first = capsys.readouterr().out
    assert "suite: compose" in first
    assert "seed: 7" in first
    assert "result: 3/3 pass" in first
    assert main(["verify", "--suite", "compose", "--seed", "7", "--cases", "3"]) == 0
    assert capsys.readouterr().out == first


def test_verify_simulate_programs(capsys):
    assert main(["verify", "--suite", "simulate", "--cases", "2"]) == 0
    out = capsys.readouterr().out
    assert "result: 2/2 pass" in out


def test_verify_transit(capsys):
    assert main(["verify", "--suite", "transit", "--seed", "7", "--cases", "5"]) == 0
    out = capsys.readouterr().out
    assert "suite: transit" in out
    assert "result: 5/5 pass" in out


def test_verify_confluence(capsys):
    assert main(["verify", "--suite", "confluence", "--seed", "7", "--cases", "5"]) == 0
    out = capsys.readouterr().out
    assert "suite: confluence" in out
    assert "result: 5/5 pass" in out


def test_confluence_cycle_check_is_iterative():
    # deeper than the recursion limit and than CONFLUENCE_MAX_NODES
    from routenet.gen import _reaches_cycle

    n = 5000
    path = {i: {i + 1} for i in range(n - 1)} | {n - 1: set()}
    assert not _reaches_cycle(path, 0)
    assert _reaches_cycle(path | {n - 1: {0}}, 0)
    # a node met again off the current path closes no cycle
    assert not _reaches_cycle({0: {1, 2}, 1: {2}, 2: set()}, 0)


def test_cli_offers_every_suite(monkeypatch):
    from routenet import gen
    from routenet.cli import _build_parser

    commands = next(a for a in _build_parser()._actions if a.dest == "command")
    verify = commands.choices["verify"]
    suite = next(a for a in verify._actions if a.dest == "suite")
    assert list(suite.choices) == list(gen.SUITES)
    # without --cases, verify runs the suite's default count
    seen = {}

    def run_suite(name, seed, cases):
        seen[name] = cases
        return []

    monkeypatch.setattr(gen, "run_suite", run_suite)
    for name in gen.SUITES:
        assert main(["verify", "--suite", name]) == 0
    assert seen == {name: entry.cases for name, entry in gen.SUITES.items()}


def test_usage_error_is_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 64


def test_missing_file_is_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "/nonexistent/M.term"])
    assert exc.value.code == 64


def test_malformed_term_is_65(tmp_path, capsys):
    prog = _write(tmp_path, "M.term", "((\n")
    assert main(["check", prog]) == 65


@pytest.mark.parametrize(
    "term, error",
    [
        ("", "parse error at offset 0: unexpected end of input"),
        ("((\n", "parse error at offset 3: unexpected end of input"),
        ("* #", "parse error at offset 2: bad character '#'"),
    ],
)
def test_malformed_term_names_where_it_fails(tmp_path, capsys, term, error):
    ctx = _write(tmp_path, "R.ctx", "r : Unit\n")
    assert main(["check", ctx, _write(tmp_path, "M.term", term)]) == 65
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"routenet: {error}\n")


def test_budget_exhausted_is_75(tmp_path, capsys, monkeypatch):
    prog = _write(tmp_path, "M.term", r"(\x. x x x) (\x. x x x)")
    monkeypatch.setenv("ROUTENET_BUDGET", "20")
    assert main(["values", prog]) == 75


def test_reduce_budget_exhausted_names_rule_counts(tmp_path, capsys):
    ctx = _write(tmp_path, "R.ctx", "r : Unit\n")
    prog = _write(tmp_path, "M.term", "set r * || get r || get r || get r || get r\n")
    assert main(["compile", ctx, prog]) == 0
    netfile = _write(tmp_path, "n.json", capsys.readouterr().out)
    assert main(["--budget", "1000", "reduce", netfile]) == 75
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("routenet: reduction budget exhausted after 1000 steps (ba ")
    counts = dict(item.split() for item in err.strip()[:-1].split("(", 1)[1].split(", "))
    assert sum(map(int, counts.values())) == 1000 and "nd" in counts


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "trace", "--cases", "-3"],
        ["verify", "--suite", "simulate", "--cases", "-17"],
        ["--budget", "-1", "verify", "--suite", "trace", "--cases", "1"],
    ],
)
def test_negative_counts_are_64(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert "expected a non-negative integer, got '-" in err


def test_negative_budget_in_the_environment_is_64(capsys, monkeypatch):
    monkeypatch.setenv("ROUTENET_BUDGET", "-1")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "trace", "--cases", "1"])
    assert exc.value.code == 64
    assert capsys.readouterr().err == "routenet: bad ROUTENET_BUDGET '-1'\n"


def test_zero_cases_still_runs_nothing_or_every_program(capsys):
    assert main(["verify", "--suite", "trace", "--cases", "0"]) == 0
    assert capsys.readouterr().out.endswith("result: 0/0 pass\n")
    assert main(["verify", "--suite", "simulate", "--cases", "0"]) == 0
    assert capsys.readouterr().out.endswith(f"result: {len(PROGRAM_SUITE)}/{len(PROGRAM_SUITE)} pass\n")


def test_budget_flag_overrides_env(tmp_path, capsys, monkeypatch):
    prog = _write(tmp_path, "M.term", r"(\x. x) *")
    monkeypatch.setenv("ROUTENET_BUDGET", "not-a-number")
    # an explicit flag bypasses the bad environment value
    assert main(["--budget", "100", "values", prog]) == 0
    capsys.readouterr()


def _net_file(tmp_path, free, cells, wires):
    obj = {"sum": [{"free": free, "cells": cells, "wires": wires}]}
    return _write(tmp_path, "bad.json", json.dumps(obj))


def _wire(a, b, ty):
    return {"a": a, "b": b, "ty": ty, "dir": "ab"}


_OUT = {"port": 2, "label": "o"}
_ONE = {"id": 1, "sym": "One", "pal": 1, "aux": []}

MALFORMED_NETS = {
    "tensor-unwired-aux": (
        [_OUT],
        [{"id": 1, "sym": "Tensor", "pal": 1, "aux": [3, 4]}],
        [_wire(1, 2, "(1*1)")],
    ),
    "tensor-missing-aux": (
        [_OUT, {"port": 5, "label": "x"}],
        [{"id": 1, "sym": "Tensor", "pal": 1, "aux": [3]}],
        [_wire(1, 2, "(1*1)"), _wire(5, 3, "1")],
    ),
    "unknown-symbol": ([_OUT], [dict(_ONE, sym="Frob")], [_wire(1, 2, "1")]),
    "one-on-bang-wire": ([_OUT], [_ONE], [_wire(1, 2, "!1")]),
    "self-wire": ([_OUT], [_ONE], [_wire(1, 2, "1"), _wire(3, 3, "!1")]),
    "box-without-box": ([_OUT], [dict(_ONE, sym="Box")], [_wire(1, 2, "!1")]),
    "port-not-int": ([_OUT], [dict(_ONE, pal=[1])], [_wire(1, 2, "1")]),
    # `routenet area` output for "in: a / out: x y / 1 1", label x replaced by 7
    "label-not-str": (
        [{"port": 6, "label": "a"}, {"port": 2, "label": 7}, {"port": 4, "label": "y"}],
        [{"id": 1, "sym": "Contraction", "pal": 5, "aux": [1, 3]}],
        [_wire(1, 2, "!1"), _wire(3, 4, "!1"), _wire(6, 5, "!1")],
    ),
    # the parser used to read any "dir" other than "ab" as "ba"
    "wire-dir-unknown": ([_OUT], [_ONE], [dict(_wire(1, 2, "1"), dir="zz")]),
    # a wire type that is not a text used to end in an AttributeError
    "wire-type-not-text": ([_OUT], [_ONE], [_wire(1, 2, ["bot"])]),
}


def _cli(*argv, module="routenet.cli"):
    """Run the CLI in a fresh interpreter, as a user would."""
    src = str(Path(routenet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", module, *argv], capture_output=True, text=True, env=env
    )


def test_python_dash_m_routenet_runs_the_cli(tmp_path):
    mat = _write(tmp_path, "R.mat", "in: a\nout: x\n1\n")
    got = _cli("area", mat, module="routenet")
    assert got.returncode == 0, got.stderr
    (net,) = parse(got.stdout.encode())
    assert sorted(l for _, l in net.free) == ["a", "x"]


@pytest.mark.parametrize("case", sorted(MALFORMED_NETS))
def test_reduce_rejects_malformed_net_with_65(tmp_path, case):
    path = _net_file(tmp_path, *MALFORMED_NETS[case])
    got = _cli("reduce", path)
    assert got.returncode == 65
    assert got.stdout == ""
    assert "Traceback" not in got.stderr
    # a net the parser refuses never reaches validation
    want = {
        "wire-dir-unknown": "bad wire dir 'zz'",
        "wire-type-not-text": "bad net object",
    }.get(case, "invalid net")
    assert want in got.stderr


def test_reduce_accepts_its_own_output(tmp_path, capsys):
    prog = _write(tmp_path, "M.term", "set r * || get r\n")
    ctx = _write(tmp_path, "R.ctx", "r : Unit\n")
    assert main(["compile", ctx, prog]) == 0
    netfile = _write(tmp_path, "n.json", capsys.readouterr().out)
    assert main(["reduce", netfile]) == 0
    first = capsys.readouterr().out
    assert main(["reduce", _write(tmp_path, "nf.json", first)]) == 0
    assert capsys.readouterr().out == first


DEEP_INPUTS = {
    "term": ("check", {"M.term": "(" * 3000 + "*" + ")" * 3000}),
    "type": ("check", {"R.ctx": "r : " + "(" * 3000 + "Unit" + ")" * 3000, "M.term": "*"}),
    "json": ("reduce", {"n.json": "[" * 100000 + "]" * 100000}),
    # accepted by the parser, too deep for the walkers after it
    "application-spine": ("check", {"M.term": r"(\x. x)" + " *" * 1000}),
    "lambdas-compile": ("compile", {"M.term": "\\x. " * 400 + "x"}),
    "lambdas-values": ("values", {"M.term": "\\x. " * 400 + "x"}),
}


@pytest.mark.parametrize("case", sorted(DEEP_INPUTS))
def test_deeply_nested_input_is_65(tmp_path, case):
    cmd, files = DEEP_INPUTS[case]
    got = _cli(cmd, *(_write(tmp_path, name, text) for name, text in files.items()))
    assert got.returncode == 65
    assert got.stdout == ""
    assert "Traceback" not in got.stderr
    assert "nested too deeply" in got.stderr


def test_300_nested_lambdas_compile(tmp_path):
    got = _cli("compile", _write(tmp_path, "M.term", "\\x. " * 300 + "x"))
    assert got.returncode == 0, got.stderr
    (net,) = parse(got.stdout.encode())
    assert validate(net) == []


def test_reduce_reads_a_deeply_nested_formula(tmp_path):
    ty = "!" * 3000 + "1"
    cow = {"id": 1, "sym": "Coweakening", "pal": 1, "aux": []}
    path = _net_file(tmp_path, [_OUT], [cow], [_wire(1, 2, ty)])
    got = _cli("reduce", path)
    assert got.returncode == 0, got.stderr
    assert "Traceback" not in got.stderr
    (nf,) = parse(got.stdout.encode())
    assert fmt_formula(nf.outward({label: p for p, label in nf.free}["o"])) == ty
    assert canonical_equal(nf, parse(Path(path).read_bytes())[0])


@pytest.mark.parametrize("ctx", ["r : Reg\n", "r : Reg ( Unit\n"])
def test_reference_type_without_a_name_is_65(tmp_path, ctx):
    got = _cli("check", _write(tmp_path, "R.ctx", ctx), _write(tmp_path, "M.term", "*"))
    assert got.returncode == 65
    assert got.stdout == ""
    assert "Traceback" not in got.stderr
    assert "expected a reference name after 'Reg'" in got.stderr


# ---------------------------------------------------------------------------
# Fuzzing: mutated well-formed inputs of every command that reads a file

# (command, file texts, index of the text to mutate), by kind of input
FUZZ_SEEDS = {
    "term": [
        (cmd, (ctx, src), 1)
        for _, ctx, src in PROGRAM_SUITE
        for cmd in ("check", "compile", "values")
    ],
    "ctx": [("check", (ctx, src), 0) for _, ctx, src in PROGRAM_SUITE if ctx],
    "matrix": [
        ("area", ("in: a b\nout: x y\n1 0\n2 1\n",), 0),
        ("area", ("in: i1 i2 i3\nout: o1\n1\n0\n3\n",), 0),
    ],
    "net": [
        ("reduce", (serialize(gen(random.Random(seed))).decode(),), 0)
        for seed in range(3)
        for gen in (gen_typed_net, gen_routing_net)
    ],
}
# spliced in by the mutator: pieces of the four input languages.  Digits
# come one at a time, so a matrix entry stays below 10,000 crossing wires.
FUZZ_TOKENS = [
    "", "(", ")", "\\x. ", " x", " *", " || ", " <= ", "get ", "set ", " r", ":",
    "\n", "#", "Reg ", " -> ", " -{r}> ", "Unit", "B", " a", " -1", " 0", " 2", "7",
    "-", "[", "]", "{", "}", ",", '"', "null", '"sym":"Box"',
]


@st.composite
def _mutated_input(draw):
    kind = draw(st.sampled_from(sorted(FUZZ_SEEDS)))
    cmd, texts, k = draw(st.sampled_from(FUZZ_SEEDS[kind]))
    text = texts[k]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 4)))
        text = text[:i] + draw(st.sampled_from(FUZZ_TOKENS)) + text[j:]
    return cmd, texts[:k] + (text,) + texts[k + 1 :]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_mutated_input())
def test_mutated_input_exits_with_a_documented_code(case):
    cmd, texts = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, text in enumerate(texts):
            paths.append(os.path.join(tmp, f"in{k}"))
            Path(paths[-1]).write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(["--budget", "300", cmd, *paths])
            except SystemExit as exc:
                code = exc.code
    assert code in {0, 1, 2, 64, 65, 75}
