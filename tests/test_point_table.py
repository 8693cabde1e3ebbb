"""The interpreter's table of program points against the tree-rewriting step.

``semantics.step_point`` steps a configuration, its key, through its
point, one of the two points of a site of ``Program.flow``.  ``tree_step`` (the tests'
reference) rewrites the command tree instead, and ``residual`` gives the
remaining command a point stands for.  From every initial state of the
oracle's inputs, at bits 2, both step every reachable configuration to an
equal configuration, remaining command included, and an equal label,
trace text included: the text ``Trace.lines`` renders for the step is the
text the reference built as it stepped.
"""

import pytest

from wherecheck.oracle import _Runs
from wherecheck.parser import parse_program
from wherecheck.semantics import (
    CAPACITY_EXCEEDED,
    DECLASS,
    DEFAULT_FUEL,
    HALTED,
    INPUT_EXHAUSTED,
    OUTCOME_HALTED,
    PLAIN,
    Ending,
    Known,
    Table,
    Trace,
    run_program,
    step_point,
)
from wherecheck.syntax import Assign, DeclassAssign, Seq, SiteLabel, Skip, Var
from programs import corpus, load_text, random_program
from reference import same_command
from tree_step import residual, tree_configuration, tree_step, tree_successors

BITS = 2


def compare_steps(program, policy, capacity) -> set[tuple[str, str]]:
    """Step every configuration reachable from every initial state both ways.

    Returns the (kind, rule) of every label the steps gave.  One point table
    serves the program, as one ``Known`` serves the runs of an oracle check.
    """
    table, seen, labels = Table(program), set(), set()
    runs = _Runs(program, policy, BITS, capacity, DEFAULT_FUEL)
    todo = [table.start(*runs.values(i)) for i in range(runs.count)]
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        tree = tree_configuration(program, table.view(key))
        new, label = step_point(key, table.points, policy, BITS, capacity)
        ref, ref_label, ref_changed = tree_step(tree, policy, BITS, capacity)
        got = tree_configuration(program, table.view(new))
        assert got == ref and same_command(got.cmd, ref.cmd), tree
        assert label == ref_label and label.rule == ref_label.rule, tree
        expected = (
            f"g{tree.cmd.site.id} | halt | halted |"
            if label.kind == HALTED
            else f"g{label.site.id} | {label.rule} | {label} | {ref_changed}"
        )
        assert Trace([(new, label)], key, Ending("", new, []), table).lines == [expected], tree
        labels.add((label.kind, label.rule))
        if label.kind not in (HALTED, INPUT_EXHAUSTED, CAPACITY_EXCEEDED):
            todo.append(new)
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
    for _, text, policy_text in corpus("table3") + corpus("iobench"):
        compare_steps(*load_text(text, policy_text), capacity=8)


@pytest.mark.parametrize("io", [False, True], ids=["plain", "io"])
@pytest.mark.parametrize("first", range(0, 400, 50))
def test_point_table_matches_tree_step_on_randprog(first, io):
    for seed in range(first, first + 50):
        _, program, policy = random_program(seed, io)
        compare_steps(program, policy, capacity=4)


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
        labels |= compare_steps(*load_text(text, policy_text), capacity=2)
    assert labels == ALL_LABELS


# Program D of the ROADMAP baseline, with n loop iterations.
D_TEXT = "i := 0; while (i < {n}) do i := i + 1; l := l + 1 od; l := l + h"
D_POLICY = "lattice: L < H\nvar h : H\nvar l : L\nvar i : L\n"


def test_a_loop_interns_the_same_points_at_any_iteration_count():
    sizes = []
    for n in (10, 4000):
        program, policy = load_text(D_TEXT.format(n=n), D_POLICY)
        known = Known(program)
        trace = run_program(program, policy, {"h": 1}, bits=12, fuel=30_000, known=known)
        assert trace.outcome == OUTCOME_HALTED and trace.final.mu["i"] == n
        sizes.append(len(known.table.points))
    assert sizes[0] == sizes[1] == 2 * len(program.sites)


# The table: two points per site, whose ids are fixed by the site and the
# phase, linked as the tree-rewriting step goes.


def test_the_table_has_two_points_per_site_with_fixed_ids():
    program, policy = load_text(D_TEXT.format(n=3), D_POLICY)
    points = Table(program).points
    assert len(points) == 2 * len(program.sites)
    for site, cmd in enumerate(program.sites):
        to_run, done = points[2 * site], points[2 * site + 1]
        assert (to_run.id, done.id) == (2 * site, 2 * site + 1)
        assert to_run.cmd is cmd and same_command(done.cmd, Skip(cmd.site))
    # A second table of the program, or of another parse of its text, names
    # each configuration by the same ids.
    again = parse_program(D_TEXT.format(n=3))
    first, second = (
        [key[0] for key, _ in run_program(p, policy, {"h": 1}).entries]
        for p in (program, again)
    )
    assert first == second


def test_each_point_links_to_the_points_of_the_tree_step():
    cases = corpus("table3") + corpus("iobench") + [
        ("", "if x then skip else while x do skip od fi; skip", "lattice: L < H\nvar x : L\n")
    ]
    for _, text, policy_text in cases:
        program, _ = load_text(text, policy_text)
        points = Table(program).points
        for point in points:
            expected = tree_successors(residual(program, point))
            if not expected:  # a finished site with nothing after it halts
                assert point.next == (None,)
                continue
            assert len(point.next) == len(point.labels) == len(expected)
            for after, label, (cmd, ref_label) in zip(point.next, point.labels, expected):
                assert same_command(residual(program, points[after]), cmd)
                assert label == ref_label and label.rule == ref_label.rule


def test_same_command_tells_a_downgrade_from_an_assignment():
    # Commands compare as tuples: l := h and l := declass(h) at one site
    # have equal fields, so == calls them equal, and so do Seqs of them.
    plain, declass = Assign(SiteLabel(0), "l", Var("h")), DeclassAssign(SiteLabel(0), "l", Var("h"))
    skip = Skip(SiteLabel(1))
    assert plain == declass and Seq(plain, skip) == Seq(declass, skip)
    assert not same_command(plain, declass)
    assert not same_command(Seq(plain, skip), Seq(declass, skip))
    assert same_command(Seq(plain, skip), Seq(plain, skip))


def test_an_assignment_and_the_skip_it_steps_to_are_two_points():
    program, policy = load_text("x := x", "lattice: L < H\nvar x : L\n")
    assign, skip = Table(program).points
    assert assign.next == (skip.id,) and assign.labels[0].rule == "assign"
    assert type(assign.cmd) is Assign and type(skip.cmd) is Skip
    assert assign.cmd.site == skip.cmd.site and assign is not skip
    assert run_program(program, policy, {"x": 1}).outcome == OUTCOME_HALTED


def test_a_long_sequence_runs_without_recursing_per_statement():
    # Three times the default recursion limit: a recursive parse, hash or
    # comparison of the spine would pass it.
    text = "; ".join(["x := x + 1"] * 3000)
    program, policy = load_text(text, "lattice: L < H\nvar x : L\n")
    trace = run_program(program, policy, bits=12, known=Known(program))
    assert trace.outcome == OUTCOME_HALTED and trace.final.mu["x"] == 3000


# A step's label is its point's: built once per point and branch with the
# table, and only a real downgrade, a diagnostic or a halt gives another.


def test_stepping_a_point_twice_returns_its_one_label():
    program, policy = load_text(
        "x := 1; h := declass(x); output(x, o); input(x, i)",
        "lattice: L < H\nvar h : H\nvar x : L\nchannel o : L output\n"
        "channel i : L input length 1\n",
    )
    table = Table(program)
    key = table.start([0, 0], [(2,)])  # h and x are 0, and i holds 2
    rules = []
    while table.points[key[0]].next != (None,):
        point = table.points[key[0]]
        (new, label), (_, again) = (
            step_point(key, table.points, policy, BITS, 2) for _ in range(2)
        )
        assert label is again is point.labels[0]
        rules.append(label.rule)
        key = new
    assert rules == [
        "assign", "seq-skip", "declass-ordinary", "seq-skip", "output", "seq-skip", "input",
    ]


def test_one_check_builds_a_label_per_point_and_branch_and_per_release(monkeypatch):
    from wherecheck import semantics
    from wherecheck.oracle import check_where_security

    # A counting loop with a real downgrade, an ordinary one, an output
    # that outgrows its capacity and an input that runs out.
    program, policy = load_text(
        "i := 0; while i < 3 do l := declass(h); h := declass(l);"
        " if h then output(i, o) else input(x, c) fi; i := i + 1 od",
        "lattice: L < H\nvar h : H\nvar l : L\nvar i : L\nvar x : L\n"
        "channel o : L output\nchannel c : L input length 1\n",
    )
    built, tables, returned = [], [], []
    real_label, real_table, real_step = (
        semantics.StepLabel, semantics.point_table, semantics.step_point,
    )

    def label(kind, *args, **kwargs):
        built.append(kind)
        return real_label(kind, *args, **kwargs)

    def table(layout):
        tables.append(real_table(layout))
        return tables[-1]

    def step(*args):
        stepped = real_step(*args)
        returned.append(stepped[1].kind)
        return stepped

    monkeypatch.setattr(semantics, "StepLabel", label)
    monkeypatch.setattr(semantics, "point_table", table)
    monkeypatch.setattr(semantics, "step_point", step)
    check_where_security(program, policy, bits=BITS, capacity=2)
    # One table serves the check, built with a label per site and branch.
    [points] = tables
    branches = sum(
        len(point.labels) for point in points if type(point.cmd) is not Skip or point.id % 2
    )
    assert 0 < built.count(PLAIN) == branches < returned.count(PLAIN)
    for kind in (DECLASS, INPUT_EXHAUSTED, CAPACITY_EXCEEDED):
        assert 0 < built.count(kind) == returned.count(kind), kind
    assert len(built) == branches + sum(
        returned.count(kind) for kind in (DECLASS, INPUT_EXHAUSTED, CAPACITY_EXCEEDED)
    )
