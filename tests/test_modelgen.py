import itertools
from pathlib import Path

import pytest

from wherecheck.modelgen import (
    FINAL_SYMBOL,
    ModelSkeleton,
    build_model,
    dump_model,
    index_width,
    site_symbol,
)
from wherecheck.parser import parse_program
from wherecheck.compose import self_compose
from wherecheck.policy import gather_downgrades, parse_policy
from wherecheck.randprog import GenConfig, generate
from wherecheck.semantics import OUTCOME_HALTED, run_program
from wherecheck.spds import HAVOC
from wherecheck.syntax import (
    Assign,
    BinOp,
    DeclassAssign,
    If,
    Num,
    Output,
    Program,
    Seq,
    SiteLabel,
    Skip,
    Var,
    While,
)
from explicit import successors, valuation
from reference import format_program, same_command

CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "table3"


def load(name: str):
    program = parse_program((CORPUS / name).read_text())
    policy = parse_policy((CORPUS / f"{name}.policy").read_text())
    return program, gather_downgrades(program, policy)


def prog(text: str, pol: str):
    program = parse_program(text)
    policy = parse_policy(pol)
    return program, gather_downgrades(program, policy)


def count_globals(skeleton: ModelSkeleton) -> dict[str, int]:
    """Bit budget of the skeleton's globals, grouped by purpose."""
    bits = skeleton.bits
    report: dict[str, int] = {}
    report["vars"] = len(skeleton.program.variables) * bits
    for spec in skeleton.inputs:
        report[f"in {spec.name}"] = spec.length * bits + index_width(spec.length)
    for spec in skeleton.outputs:
        report[f"out {spec.name}"] = spec.length * bits + index_width(spec.length)
    report["downgrades"] = len(skeleton.rho) * bits
    report["total"] = sum(report.values())
    assert report["total"] == skeleton.spds.globals.total_bits
    return report


def test_index_width():
    assert index_width(0) == 1
    assert index_width(1) == 2
    assert index_width(8) == 4


def test_rules_hold_the_parsers_expression_objects():
    program, policy = prog(
        "if l < h then l := h + 1 else l := declass(h) fi; "
        "while l do l := l - 1 od; output(l * 2, o)",
        "lattice: L < H\nvar l : L\nvar h : H\nchannel o : L output\n",
    )
    skel = build_model(program, policy, "L", bits=2)
    assert skel.rho  # the downgrade's expression goes into its store rule
    held = []
    for rule in self_compose(skel).spds.rules:
        guard = rule.spec.guard
        held.append(guard)
        if isinstance(guard, BinOp):
            held.append(guard.left)  # a branch not taken guards on "g == 0"
        held += [e for _, e in rule.spec.updates]
        held += [w.expr for w in rule.spec.writes]
    parsed = []
    for cmd in program.sites:
        match cmd:
            case Assign(_, _, e) | DeclassAssign(_, _, e) | If(_, e, _, _) | While(_, e, _):
                parsed.append(e)
            case Output(_, e, _):
                parsed.append(e)
    assert len(parsed) == 6
    for e in parsed:
        assert any(h is e for h in held), e


def test_p1_bit_budget_frozen():
    program, policy = load("P1")
    skel = build_model(program, policy, "L", bits=3)
    report = count_globals(skel)
    assert report["vars"] == 6
    assert report["downgrades"] == 3
    assert report["total"] == 9


def test_skip_has_no_globals():
    program, policy = prog("skip", "lattice: L < H\n")
    skel = build_model(program, policy, "L", bits=3)
    assert count_globals(skel)["total"] == 0
    assert skel.spds.globals.names == []


def test_capacity_scales_only_channel_cells():
    text = "output(l, out0)"
    pol = "lattice: L < H\nvar l : L\nchannel out0 : L output\n"
    program, policy = prog(text, pol)
    small = count_globals(build_model(program, policy, "L", bits=3, capacity=4))
    big = count_globals(build_model(program, policy, "L", bits=3, capacity=8))
    assert big["vars"] == small["vars"]
    assert big["downgrades"] == small["downgrades"]
    # Cell payload doubles; the index needs one extra bit.
    assert small["out out0"] == 4 * 3 + index_width(4)
    assert big["out out0"] == 8 * 3 + index_width(8)


def test_p0_skeleton_shape():
    program, policy = load("P0")
    skel = build_model(program, policy, "L", bits=3)
    assert skel.rho == {1: 0}
    assert skel.observable_vars == ("l",)
    assert skel.outputs == ()
    assert "D[0]" in skel.spds.globals.names
    # The last command, the downgrade site, leads straight to the final symbol.
    assert [r.rhs for r in skel.spds.rules if r.lhs == "g1"] == [FINAL_SYMBOL]


def test_high_output_is_frame_rule_without_channel_state():
    program, policy = prog(
        "output(l, outH)",
        "lattice: L < H\nvar l : L\nchannel outH : H output\n",
    )
    skel = build_model(program, policy, "L", bits=3)
    names = skel.spds.globals.names
    assert not any("outH" in n for n in names)
    site_rules = [r for r in skel.spds.rules if r.lhs == "g0"]
    assert len(site_rules) == 1
    rule = site_rules[0]
    assert rule.rhs == FINAL_SYMBOL
    assert rule.spec.guard is None and rule.spec.updates == ()


def test_low_input_rule_shape():
    program, policy = prog(
        "input(x, in0)",
        "lattice: L < H\nvar x : L\nchannel in0 : L input length 2\n",
    )
    skel = build_model(program, policy, "L", bits=3)
    spec = skel.inputs[0]
    assert spec.cells == ("in0[0]", "in0[1]")
    (rule,) = [r for r in skel.spds.rules if r.lhs == "g0"]
    updates = dict(rule.spec.updates)
    assert "x" in updates and "p[in0]" in updates
    # a read past the end has no successor, as in the interpreter
    g = skel.spds.globals
    assert list(successors(skel.spds, valuation(g, {"p[in0]": 1}), "g0"))
    assert not list(successors(skel.spds, valuation(g, {"p[in0]": 2}), "g0"))


def test_high_input_havocs_target():
    program, policy = prog(
        "input(x, hin); l := x",
        "lattice: L < H\nvar x : H\nvar l : L\nchannel hin : H input\n",
    )
    skel = build_model(program, policy, "L", bits=2)
    assert not any("hin" in n for n in skel.spds.globals.names)
    rule = [r for r in skel.spds.rules if r.lhs == "g0"][0]
    assert dict(rule.spec.updates)["x"] is HAVOC
    # Post-states project onto every value of x.
    g = skel.spds.globals
    val = valuation(g, {})
    seen = {g.as_dict(nxt)["x"] for nxt, _ in successors(skel.spds, val, "g0")}
    assert seen == {0, 1, 2, 3}


def test_downgrade_and_low_output_sites_are_plain_rules():
    # self-composition fills in what a site does in each run
    program, policy = prog(
        "l := declass(h); output(l, o); output(h, oH)",
        "lattice: L < H\nvar l : L\nvar h : H\nchannel o : L output\nchannel oH : H output\n",
    )
    skel = build_model(program, policy, "L", bits=2)
    assert [(r.lhs, r.rhs, r.note) for r in skel.spds.rules] == [
        ("g0", "g1", "downgrade site"),
        ("g1", "g2", "write o"),
        ("g2", FINAL_SYMBOL, "unobservable write"),
    ]
    assert all(r.spec.guard is None and not r.spec.updates for r in skel.spds.rules)


def test_two_declass_sites_get_distinct_cells():
    program, policy = load("P4")
    skel = build_model(program, policy, "L", bits=3)
    assert skel.rho == {2: 0, 3: 1}
    assert "D[0]" in skel.spds.globals.names and "D[1]" in skel.spds.globals.names


def test_start_and_final_symbols():
    program, policy = load("P3")
    skel = build_model(program, policy, "L", bits=3)
    assert skel.spds.start == "g0"
    # the program's end is a symbol without rules; composition continues it
    assert FINAL_SYMBOL in {r.rhs for r in skel.spds.rules}
    assert not [r for r in skel.spds.rules if r.lhs == FINAL_SYMBOL]


def site_bodies(skeleton: ModelSkeleton) -> dict:
    """Reference for the site table: every real downgrade and observable output, by site."""
    observable = {spec.name for spec in skeleton.outputs}
    return {
        site_symbol(cmd.site.id): cmd
        for cmd in skeleton.program.sites
        if (isinstance(cmd, DeclassAssign) and cmd.site.id in skeleton.rho)
        or (isinstance(cmd, Output) and cmd.channel in observable)
    }


def site_table_cases():
    """(name, program text, policy text) over table3, iobench and randprog seeds 0-59."""
    root = CORPUS.parent
    for name in [f"table3/P{i}" for i in range(8)] + [f"iobench/B{i}" for i in range(8)]:
        yield name, (root / name).read_text(), (root / f"{name}.policy").read_text()
    for seed in range(60):
        for io in (False, True):
            gen = generate(seed, GenConfig(io=io))
            yield f"randprog/{seed}{'io' if io else ''}", gen.text, gen.policy_text


def test_the_site_table_lists_every_real_downgrade_and_observable_output():
    filled = 0
    for name, text, pol in site_table_cases():
        program, policy = prog(text, pol)
        for level in sorted(policy.domains):
            skel = build_model(program, policy, level, bits=2, capacity=2)
            assert skel.sites == site_bodies(skel), (name, level)
            filled += bool(skel.sites)
    assert filled > 90  # 98 of the 272 (program, level) tables hold a site


def test_dump_model_deterministic_and_annotated():
    program, policy = load("P0")
    skel = build_model(program, policy, "L", bits=3)
    text = dump_model(skel)
    assert text == dump_model(build_model(program, policy, "L", bits=3))
    assert "# site g1: l := declass(h)" in text
    assert "# downgrade g1 -> D[0]" in text


def test_code_built_program_dumps_like_its_parsed_text():
    # the site table is derived from the root, so a program built in code
    # lists its sites as the parser's program of the same text does
    g = SiteLabel
    root = Seq(
        DeclassAssign(g(0), "l", Var("h")),
        Seq(
            If(g(1), Var("h"), Output(g(2), Var("l"), "o"), Skip(g(3))),
            While(g(4), Var("l"), Assign(g(5), "l", BinOp("-", Var("l"), Num(1)))),
        ),
    )
    built = Program(root)
    parsed = parse_program(format_program(root))
    assert same_command(parsed.root, root)
    pol = parse_policy("lattice: L < H\nvar h : H\nvar l : L\nchannel o : L output\n")
    for level in ("L", "H"):
        dumps = [
            dump_model(build_model(p, gather_downgrades(p, pol), level, bits=2, capacity=2))
            for p in (built, parsed)
        ]
        assert dumps[0] == dumps[1]
        assert "# site g5: l := l - 1" in dumps[0]


# Lockstep differential: for downgrade-free, channel-free programs the model
# is a deterministic chain whose store evolution must match the interpreter.

LOCKSTEP_PROGRAMS = [
    "x := 1; y := x + 1",
    "skip; x := x + y; skip",
    "if x then y := 1 else y := 2 fi",
    "if x < y then x := y else y := x fi; x := x + 1",
    "x := 0; while x < 2 do x := x + 1; y := y + x od",
    "while x != 0 do x := x - 1 od; y := 1",
    "if x then if y then x := 0 else x := 1 fi else skip fi",
    "x := y * y; y := x == y",
]


def _spds_store_trace(skel, store, max_steps=200):
    g = skel.spds.globals
    val = valuation(g, store)
    symbol = skel.spds.start
    names = skel.program.variables
    seen = [{n: g.as_dict(val)[n] for n in names}]
    for _ in range(max_steps):
        nexts = list(successors(skel.spds, val, symbol))
        if not nexts:
            break
        assert len(nexts) == 1, f"nondeterministic at {symbol}"
        val, symbol = nexts[0]
        snap = {n: g.as_dict(val)[n] for n in names}
        if snap != seen[-1]:
            seen.append(snap)
    return seen


def _interp_store_trace(program, policy, store, bits):
    trace = run_program(program, policy, store=store, bits=bits)
    assert trace.outcome == OUTCOME_HALTED
    seen = [dict(trace.initial.mu)]
    for key, _ in trace.entries:
        mu = trace.table.view(key).mu
        if mu != seen[-1]:
            seen.append(mu)
    return seen


@pytest.mark.parametrize("text", LOCKSTEP_PROGRAMS)
def test_model_matches_interpreter_stepwise(text):
    pol = "lattice: L < H\nvar x : L\nvar y : L\n"
    program, policy = prog(text, pol)
    skel = build_model(program, policy, "L", bits=2)
    for x, y in itertools.product(range(4), repeat=2):
        store = {"x": x, "y": y}
        assert _spds_store_trace(skel, store) == _interp_store_trace(
            program, policy, store, bits=2
        )
