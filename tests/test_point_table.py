"""The interpreter's table of program points against the tree-rewriting step.

``semantics.step_point`` steps a configuration through the point of its
remaining command.  ``tree_step`` (the tests' reference) rewrites the
command tree instead.  From every initial state of the oracle's inputs, at
bits 2, both step every reachable configuration to an equal configuration
and an equal label, trace text included.
"""

from pathlib import Path

import pytest

from wherecheck import randprog
from wherecheck.oracle import _all_states, default_input_lengths
from wherecheck.parser import parse_program
from wherecheck.policy import gather_downgrades, parse_policy
from wherecheck.semantics import (
    CAPACITY_EXCEEDED,
    DECLASS,
    HALTED,
    INPUT_EXHAUSTED,
    OUTCOME_HALTED,
    PLAIN,
    Known,
    Points,
    initial_configuration,
    run_program,
    step_point,
)
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
    lengths = default_input_lengths(program, policy)
    todo = []
    for store, ins in _all_states(program, BITS, lengths):
        config = initial_configuration(
            program, dict(zip(program.variables, store)),
            dict(zip(program.input_channels, ins)),
        )
        todo.append((config, points.of(config.cmd)))
    while todo:
        config, point = todo.pop()
        key = _config_key(config)
        if key in seen:
            continue
        seen.add(key)
        assert point.cmd == config.cmd
        new, label, after = step_point(config, point, points, policy, BITS, capacity)
        ref, ref_label = tree_step(config, policy, BITS, capacity)
        assert new == ref, config
        assert after.cmd == new.cmd
        assert label == ref_label and (label.rule, label.changed) == (
            ref_label.rule, ref_label.changed,
        ), config
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
