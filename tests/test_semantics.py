from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from wherecheck import syntax
from wherecheck.parser import parse_program
from wherecheck.policy import gather_downgrades, parse_policy
from wherecheck.semantics import (
    CAPACITY_EXCEEDED,
    DECLASS,
    HALTED,
    INPUT_EXHAUSTED,
    OUTCOME_DIVERGES,
    OUTCOME_FUEL,
    OUTCOME_HALTED,
    PLAIN,
    StepLabel,
    eval_expr,
    format_trace,
    initial_configuration,
    low_equiv_store,
    run,
    run_program,
    step,
)
from test_oracle import low_equiv_channels

CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "table3"


def load(name: str, corpus: Path = CORPUS):
    program = parse_program((corpus / name).read_text())
    policy = parse_policy((corpus / f"{name}.policy").read_text())
    return program, gather_downgrades(program, policy)


def test_values_wrap_modulo_width():
    assert eval_expr(parse_program("x := 7 + 3").root.expr, {}, 3) == 2
    assert eval_expr(parse_program("x := 0 - 1").root.expr, {}, 3) == 7
    assert eval_expr(parse_program("x := 5 * 5").root.expr, {}, 3) == 1
    assert eval_expr(parse_program("x := 9").root.expr, {}, 3) == 1


def test_comparisons_and_bitops():
    e = parse_program("x := (2 < 3) & (3 <= 3) & (1 == 1) & (1 != 2)").root.expr
    assert eval_expr(e, {}, 3) == 1
    assert eval_expr(parse_program("x := 6 & 3").root.expr, {}, 3) == 2
    assert eval_expr(parse_program("x := 4 | 1").root.expr, {}, 3) == 5


def test_skip_program_trace():
    program = parse_program("skip")
    policy = gather_downgrades(program, parse_policy("lattice: L < H\n"))
    trace = run_program(program, policy)
    assert trace.outcome == OUTCOME_HALTED
    assert len(trace.entries) == 1
    assert trace.entries[0][1].kind == HALTED


def test_p3_run_from_h2_equal_1():
    # Straight-line five-assignment chain: h2's initial value must reappear
    # in l2 while l1 sees only the zeroed intermediate.
    program, policy = load("P3")
    trace = run_program(program, policy, store={"h2": 1})
    assert trace.outcome == OUTCOME_HALTED
    final = trace.final.mu
    assert final["l1"] == 0
    assert final["l2"] == 1
    assert trace.declass_events() == [(2, 0)]


def test_declass_label_carries_site_and_value():
    program, policy = load("P0")
    trace = run_program(program, policy, store={"h": 5})
    labels = [lab for _, lab in trace.entries if lab.kind == DECLASS]
    assert len(labels) == 1
    assert labels[0].site.id == 1 and labels[0].value == 5


def test_ordinary_declass_is_plain():
    program = parse_program("h := declass(l)")
    policy = gather_downgrades(
        program, parse_policy("lattice: L < H\nvar h : H\nvar l : L\n")
    )
    trace = run_program(program, policy, store={"l": 3})
    assert all(lab.kind != DECLASS for _, lab in trace.entries)
    assert trace.final.mu["h"] == 3


def test_if_branches_and_while_loop():
    program = parse_program("x := 0; while x < 3 do x := x + 1 od; y := x == 3")
    policy = gather_downgrades(
        program, parse_policy("lattice: L < H\nvar x : L\nvar y : L\n")
    )
    trace = run_program(program, policy)
    assert trace.final.mu == {"x": 3, "y": 1}


def test_input_consumption_and_exhaustion():
    program = parse_program("input(x, in0); input(y, in0); input(x, in0)")
    policy = gather_downgrades(
        program,
        parse_policy(
            "lattice: L < H\nvar x : L\nvar y : L\nchannel in0 : L input\n"
        ),
    )
    trace = run_program(program, policy, inputs={"in0": (4, 5)})
    assert trace.outcome == INPUT_EXHAUSTED
    assert trace.final.mu["x"] == 4 and trace.final.mu["y"] == 5
    assert trace.final.p["in0"] == 2


def test_output_capacity_diagnostic():
    program = parse_program("x := 0; while 1 do output(x, out0); x := x + 1 od")
    policy = gather_downgrades(
        program,
        parse_policy("lattice: L < H\nvar x : L\nchannel out0 : L output\n"),
    )
    trace = run_program(program, policy, capacity=4)
    assert trace.outcome == CAPACITY_EXCEEDED
    assert trace.final.outs["out0"] == (0, 1, 2, 3)


def test_divergence_detected_exactly():
    program = parse_program("while 1 do skip od")
    policy = gather_downgrades(program, parse_policy("lattice: L < H\n"))
    trace = run_program(program, policy)
    assert trace.outcome == OUTCOME_DIVERGES
    # The run stops at the first repeated configuration: back at the loop
    # head after one unrolling.
    loop = program.root
    assert [(config.cmd, label) for config, label in trace.entries] == [
        (syntax.Seq(loop.body, loop), StepLabel(PLAIN, loop.site)),
        (loop, StepLabel(PLAIN, loop.body.site)),
    ]
    assert trace.lines == ["g0 | while-true | plain | ", "g1 | seq-skip | plain | "]


def test_ins_are_immutable_and_indices_monotone():
    program = parse_program("input(x, in0); output(x, out0); input(x, in0)")
    policy = gather_downgrades(
        program,
        parse_policy(
            "lattice: L < H\nvar x : L\nchannel in0 : L input\nchannel out0 : L output\n"
        ),
    )
    config = initial_configuration(program, inputs={"in0": (1, 2)})
    seen_p, seen_q = 0, 0
    trace = run(config, policy)
    for entry, _ in trace.entries:
        assert entry.ins["in0"] == (1, 2)
        p, q = entry.p["in0"], len(entry.outs["out0"])
        assert p >= seen_p and q >= seen_q
        assert (p - seen_p) + (q - seen_q) <= 1
        seen_p, seen_q = p, q


def test_trace_dump_format():
    program, policy = load("P0")
    trace = run_program(program, policy, store={"h": 2})
    text = format_trace(trace)
    lines = text.splitlines()
    assert lines[0] == "g0 | assign | plain | l=2"
    assert lines[1] == "g0 | seq-skip | plain | "
    assert lines[2] == "g1 | declass | declass(g1, 2) | l=2"
    assert lines[-1] == "outcome: halted"


TRACE_CASES = {
    OUTCOME_HALTED: (
        "input(x, in0); if x < 2 then y := declass(x) else y := declass(h) fi; "
        "while y < 3 do y := y + 1 od; output(y, out0)",
        "var x : H\nvar h : H\nvar y : L\nchannel in0 : H input\nchannel out0 : L output\n",
        {"store": {"h": 1}, "inputs": {"in0": (1,)}},
        [
            "g0 | input | plain | x=1 p[in0]=1",
            "g0 | seq-skip | plain | ",
            "g1 | if-true | plain | ",
            "g2 | declass | declass(g2, 1) | y=1",
            "g2 | seq-skip | plain | ",
            "g4 | while-true | plain | ",
            "g5 | assign | plain | y=2",
            "g5 | seq-skip | plain | ",
            "g4 | while-true | plain | ",
            "g5 | assign | plain | y=3",
            "g5 | seq-skip | plain | ",
            "g4 | while-false | plain | ",
            "g4 | seq-skip | plain | ",
            "g6 | output | plain | out0[0]=3 q[out0]=1",
            "g6 | halt | halted |",
        ],
    ),
    OUTCOME_DIVERGES: (
        "while 1 do skip od",
        "",
        {},
        ["g0 | while-true | plain | ", "g1 | seq-skip | plain | "],
    ),
    CAPACITY_EXCEEDED: (
        "x := 0; while 1 do output(x, out0); x := x + 1 od",
        "var x : L\nchannel out0 : L output\n",
        {"capacity": 2},
        [
            "g0 | assign | plain | x=0",
            "g0 | seq-skip | plain | ",
            "g1 | while-true | plain | ",
            "g2 | output | plain | out0[0]=0 q[out0]=1",
            "g2 | seq-skip | plain | ",
            "g3 | assign | plain | x=1",
            "g3 | seq-skip | plain | ",
            "g1 | while-true | plain | ",
            "g2 | output | plain | out0[1]=1 q[out0]=2",
            "g2 | seq-skip | plain | ",
            "g3 | assign | plain | x=2",
            "g3 | seq-skip | plain | ",
            "g1 | while-true | plain | ",
            "g2 | output | capacity-exceeded | ",
        ],
    ),
    INPUT_EXHAUSTED: (
        "input(x, in0); input(y, in0)",
        "var x : L\nvar y : L\nchannel in0 : L input\n",
        {"inputs": {"in0": (3,)}},
        [
            "g0 | input | plain | x=3 p[in0]=1",
            "g0 | seq-skip | plain | ",
            "g1 | input | input-exhausted | ",
        ],
    ),
    OUTCOME_FUEL: (
        "x := 0; while 1 do x := x + 1 od",
        "var x : L\n",
        {"fuel": 5},
        [
            "g0 | assign | plain | x=0",
            "g0 | seq-skip | plain | ",
            "g1 | while-true | plain | ",
            "g2 | assign | plain | x=1",
            "g2 | seq-skip | plain | ",
        ],
    ),
}


@pytest.mark.parametrize("outcome", list(TRACE_CASES))
def test_trace_text_for_each_outcome(outcome):
    text, declarations, options, lines = TRACE_CASES[outcome]
    program = parse_program(text)
    policy = gather_downgrades(program, parse_policy("lattice: L < H\n" + declarations))
    trace = run_program(program, policy, **options)
    assert trace.outcome == outcome
    assert format_trace(trace) == "\n".join(lines + [f"outcome: {outcome}"])


def test_step_is_total_and_deterministic():
    program, policy = load("P5")
    config = initial_configuration(program, {"h": 1, "l": 1})
    (c1, l1), (c2, l2) = step(config, policy), step(config, policy)
    assert c1 == c2 and l1 == l2 and (l1.rule, l1.changed) == (l2.rule, l2.changed)


def test_low_equiv_store_is_equivalence():
    policy = parse_policy("lattice: L < H\nvar h : H\nvar l : L\n")
    a = {"h": 1, "l": 2}
    b = {"h": 5, "l": 2}
    c = {"h": 0, "l": 2}
    assert low_equiv_store(a, a, "L", policy)
    assert low_equiv_store(a, b, "L", policy) == low_equiv_store(b, a, "L", policy) == True
    assert low_equiv_store(a, b, "L", policy) and low_equiv_store(b, c, "L", policy)
    assert low_equiv_store(a, c, "L", policy)
    assert not low_equiv_store(a, {"h": 1, "l": 3}, "L", policy)
    # At the top level everything is visible.
    assert not low_equiv_store(a, b, "H", policy)


def test_low_equiv_channels_prefix_and_index():
    policy = parse_policy(
        "lattice: L < H\nchannel lo : L output\nchannel hi : H output\n"
    )
    ok = low_equiv_channels(
        {"lo": (1, 2), "hi": (9,)},
        {"lo": 2, "hi": 1},
        {"lo": (1, 2), "hi": (4,)},
        {"lo": 2, "hi": 1},
        "L",
        policy,
    )
    assert ok
    assert not low_equiv_channels(
        {"lo": (1, 2)}, {"lo": 2}, {"lo": (1,)}, {"lo": 1}, "L", policy
    )
    assert not low_equiv_channels(
        {"lo": (1, 2)}, {"lo": 2}, {"lo": (1, 3)}, {"lo": 2}, "L", policy
    )


@settings(max_examples=60)
@given(
    st.dictionaries(st.sampled_from(["h", "l"]), st.integers(0, 7), min_size=2, max_size=2),
    st.dictionaries(st.sampled_from(["h", "l"]), st.integers(0, 7), min_size=2, max_size=2),
)
def test_low_equiv_symmetric(a, b):
    policy = parse_policy("lattice: L < H\nvar h : H\nvar l : L\n")
    assert low_equiv_store(a, b, "L", policy) == low_equiv_store(b, a, "L", policy)


def test_run_twice_identical():
    program, policy = load("P7")
    t1 = run_program(program, policy, store={"h": 3, "h1": 2})
    t2 = run_program(program, policy, store={"h": 3, "h1": 2})
    assert format_trace(t1) == format_trace(t2)
    assert t1.final.mu == {"h": 3, "h1": 2, "l": 1, "l1": 2}


def test_program_variables_walk_the_tree_once(monkeypatch):
    walks = []

    def counting(c):
        walks.append(c)
        return real(c)

    real = syntax.command_vars
    monkeypatch.setattr(syntax, "command_vars", counting)
    programs = [load("P3"), load("P7")]
    for program, policy in programs:
        for h in range(4):
            run_program(program, policy, store={"h": h}, bits=2)
            assert program.variables == tuple(sorted(real(program.root)))
    assert len(walks) == len(programs)


def test_program_channels_walk_the_tree_once(monkeypatch):
    walks = []

    def counting(c):
        walks.append(c)
        return real(c)

    real = syntax.command_channels
    monkeypatch.setattr(syntax, "command_channels", counting)
    iobench = CORPUS.parent / "iobench"
    programs = [load("B4", iobench), load("B6", iobench)]
    for program, policy in programs:
        for h in range(4):
            run_program(program, policy, store={"h": h}, inputs={"hid": (h,)}, bits=2)
            assert program.channels == real(program.root)
    assert len(walks) == len(programs)
