"""The interpreter's table of program points against the tree-rewriting step.

``semantics.step_point`` steps a configuration through the point of its
remaining command.  ``tree_step`` (the tests' reference) rewrites the
command tree instead.  From every initial state of the oracle's inputs, at
bits 2, both step every reachable configuration to an equal configuration
and an equal label, trace text included: the text ``Trace.lines`` renders
for the step is the text the reference built as it stepped.
"""

from pathlib import Path

import pytest

from wherecheck import randprog
from wherecheck.oracle import _Runs
from wherecheck.parser import parse_program
from wherecheck.policy import gather_downgrades, parse_policy
from wherecheck.semantics import (
    CAPACITY_EXCEEDED,
    DECLASS,
    DEFAULT_FUEL,
    HALTED,
    INPUT_EXHAUSTED,
    OUTCOME_HALTED,
    PLAIN,
    Known,
    Points,
    Trace,
    initial_configuration,
    run_program,
    step_point,
)
from wherecheck.syntax import Assign, Skip
from tree_step import tree_step

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
BITS = 2


def prog(text, policy_text):
    program = parse_program(text)
    return program, gather_downgrades(program, parse_policy(policy_text))


def _corpus(name):
    programs = []
    for path in sorted((CORPUS / name).glob("[PB][0-7]")):
        programs.append(prog(path.read_text(), path.with_suffix(".policy").read_text()))
    return programs


def _config_key(c):
    return (
        tuple(c.mu.values()), tuple(c.p.values()), tuple(c.outs.values()),
        tuple(c.ins.values()), c.cmd,
    )


def compare_steps(program, policy, capacity) -> set[tuple[str, str]]:
    """Step every configuration reachable from every initial state both ways.

    Returns the (kind, rule) of every label the steps gave.  One point table
    serves the program, as one ``Known`` serves the runs of an oracle check.
    """
    points, seen, labels = Points(), set(), set()
    runs = _Runs(program, policy, BITS, capacity, DEFAULT_FUEL)
    todo = []
    for i in range(runs.count):
        config = initial_configuration(program, *runs.state(i))
        todo.append((config, points.of(config.cmd)))
    while todo:
        config, point = todo.pop()
        key = _config_key(config)
        if key in seen:
            continue
        seen.add(key)
        assert point.cmd == config.cmd
        new, label, after = step_point(config, point, points, policy, BITS, capacity)
        ref, ref_label, ref_changed = tree_step(config, policy, BITS, capacity)
        assert new == ref, config
        assert after.cmd == new.cmd
        assert label == ref_label and label.rule == ref_label.rule, config
        expected = (
            f"g{config.cmd.site.id} | halt | halted |"
            if label.kind == HALTED
            else f"g{label.site.id} | {label.rule} | {label} | {ref_changed}"
        )
        assert Trace([(new, label)], "", config, new, []).lines == [expected], config
        labels.add((label.kind, label.rule))
        if label.kind not in (HALTED, INPUT_EXHAUSTED, CAPACITY_EXCEEDED):
            todo.append((new, after))
    return labels


ALL_LABELS = {
    *(
        (PLAIN, rule)
        for rule in (
            "seq-skip", "assign", "declass-ordinary", "if-true", "if-false",
            "while-true", "while-false", "input", "output",
        )
    ),
    (DECLASS, "declass"),
    (HALTED, ""),
    (INPUT_EXHAUSTED, "input"),
    (CAPACITY_EXCEEDED, "output"),
}


def test_point_table_matches_tree_step_on_the_corpora():
    for program, policy in _corpus("table3") + _corpus("iobench"):
        compare_steps(program, policy, capacity=8)


@pytest.mark.parametrize("io", [False, True], ids=["plain", "io"])
@pytest.mark.parametrize("first", range(0, 400, 50))
def test_point_table_matches_tree_step_on_randprog(first, io):
    for seed in range(first, first + 50):
        gen = randprog.generate(seed, randprog.GenConfig(io=io))
        compare_steps(*prog(gen.text, gen.policy_text), capacity=4)


def test_point_table_matches_tree_step_at_each_rule_and_diagnostic():
    # Every rule, both channel diagnostics, and a loop nested in a loop
    # under a sequence, whose remaining commands nest Seq spines.
    cases = [
        (
            "i := 0; while i < 2 do j := 0; while j < 2 do j := j + 1 od; i := i + 1 od;"
            " if h then l := declass(h) else h := declass(l) fi; skip",
            "lattice: L < H\nvar h : H\nvar l : L\nvar i : L\nvar j : L\n",
        ),
        (
            "input(x, cin); output(x, cout); input(x, cin)",
            "lattice: L < H\nvar x : L\nchannel cin : L input length 1\n"
            "channel cout : L output\n",
        ),
        (
            "while 1 do output(x, cout) od",
            "lattice: L < H\nvar x : L\nchannel cout : L output\n",
        ),
    ]
    labels = set()
    for text, policy_text in cases:
        labels |= compare_steps(*prog(text, policy_text), capacity=2)
    assert labels == ALL_LABELS


# Program D of the ROADMAP baseline, with n loop iterations.
D_TEXT = "i := 0; while (i < {n}) do i := i + 1; l := l + 1 od; l := l + h"
D_POLICY = "lattice: L < H\nvar h : H\nvar l : L\nvar i : L\n"


def test_a_loop_interns_the_same_points_at_any_iteration_count():
    sizes = []
    for n in (10, 4000):
        program, policy = prog(D_TEXT.format(n=n), D_POLICY)
        known = Known()
        trace = run_program(program, policy, {"h": 1}, bits=12, fuel=30_000, known=known)
        assert trace.outcome == OUTCOME_HALTED and trace.final.mu["i"] == n
        sizes.append(len(known.points))
    assert sizes[0] == sizes[1] <= 12


# A point is found by its command: the contract the table interns by.


def test_equal_roots_of_two_parses_intern_to_one_point():
    first, second = parse_program(D_TEXT.format(n=3)), parse_program(D_TEXT.format(n=3))
    assert first.root is not second.root and first.root == second.root
    points = Points()
    assert points.of(first.root) is points.of(second.root)
    assert len(points) == 1


def test_an_assignment_and_the_skip_it_steps_to_are_two_points():
    program, policy = prog("x := x", "lattice: L < H\nvar x : L\n")
    points = Points()
    assign = points.of(program.root)
    skip = points.successor(assign, 0)
    assert type(assign.cmd) is Assign and type(skip.cmd) is Skip
    assert assign.cmd.site == skip.cmd.site and assign is not skip
    assert run_program(program, policy, {"x": 1}).outcome == OUTCOME_HALTED


def test_a_successor_equal_to_a_point_is_that_point_and_registers_no_id():
    # The loop's body runs and its Seq(Skip, loop) drops the Skip: the
    # remaining command is built afresh, equal to the root.
    program, _ = prog("while c do c := 0 od; y := 2", "lattice: L < H\nvar c : L\nvar y : L\n")
    points = Points()
    root = points.of(program.root)
    body = points.successor(root, 0)  # while-true
    done = points.successor(body, 0)  # the assignment
    back = points.successor(done, 0)  # seq-skip
    assert back is root and back.cmd is program.root
    assert len(points) == 3


def test_a_long_sequence_runs_and_interns_without_recursing_per_statement():
    # Three times the default recursion limit: a recursive parse, hash or
    # comparison of the spine would pass it.
    text = "; ".join(["x := x + 1"] * 3000)
    program, policy = prog(text, "lattice: L < H\nvar x : L\n")
    trace = run_program(program, policy, bits=12, known=Known())
    assert trace.outcome == OUTCOME_HALTED and trace.final.mu["x"] == 3000
    points = Points()
    assert points.of(program.root) is points.of(parse_program(text).root)


# A step's label is its point's: built once per point and branch, and only
# a real downgrade, a diagnostic or a halt gives another.


def test_stepping_a_point_twice_returns_its_one_label():
    program, policy = prog(
        "x := 1; h := declass(x); output(x, o); input(x, i)",
        "lattice: L < H\nvar h : H\nvar x : L\nchannel o : L output\n"
        "channel i : L input length 1\n",
    )
    points = Points()
    config = initial_configuration(program, inputs={"i": (2,)})
    point = points.of(config.cmd)
    rules = []
    while type(point.cmd) is not Skip:
        (new, label, after), (_, again, _) = (
            step_point(config, point, points, policy, BITS, 2) for _ in range(2)
        )
        assert label is again is point.labels[0]
        rules.append(label.rule)
        config, point = new, after
    assert rules == [
        "assign", "seq-skip", "declass-ordinary", "seq-skip", "output", "seq-skip", "input",
    ]


def test_one_check_builds_a_label_per_point_and_branch_and_per_release(monkeypatch):
    from wherecheck import semantics
    from wherecheck.oracle import check_where_security

    # A counting loop with a real downgrade, an ordinary one, an output
    # that outgrows its capacity and an input that runs out.
    program, policy = prog(
        "i := 0; while i < 3 do l := declass(h); h := declass(l);"
        " if h then output(i, o) else input(x, c) fi; i := i + 1 od",
        "lattice: L < H\nvar h : H\nvar l : L\nvar i : L\nvar x : L\n"
        "channel o : L output\nchannel c : L input length 1\n",
    )
    built, tables, returned = [], [], []
    real_label, real_points, real_step = semantics.StepLabel, semantics.Points, semantics.step_point

    def label(kind, *args, **kwargs):
        built.append(kind)
        return real_label(kind, *args, **kwargs)

    class Table(real_points):
        def __init__(self):
            super().__init__()
            tables.append(self)

    def step(*args):
        stepped = real_step(*args)
        returned.append(stepped[1].kind)
        return stepped

    monkeypatch.setattr(semantics, "StepLabel", label)
    monkeypatch.setattr(semantics, "Points", Table)
    monkeypatch.setattr(semantics, "step_point", step)
    check_where_security(program, policy, bits=BITS, capacity=2)
    branches = sum(
        label is not None for table in tables for point in table._by_cmd.values()
        for label in point.labels
    )
    assert 0 < built.count(PLAIN) == branches < returned.count(PLAIN)
    for kind in (DECLASS, INPUT_EXHAUSTED, CAPACITY_EXCEEDED):
        assert 0 < built.count(kind) == returned.count(kind), kind
    assert len(built) == branches + sum(
        returned.count(kind) for kind in (DECLASS, INPUT_EXHAUSTED, CAPACITY_EXCEEDED)
    )
