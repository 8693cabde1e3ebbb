import re
from pathlib import Path

import pytest

from wherecheck.compose import (
    ComposedModel,
    ERROR_SYMBOL,
    INIT_SYMBOL,
    MISMATCH,
    self_compose,
    tr_compose,
)
from wherecheck.modelgen import FINAL_SYMBOL, build_model, index_width, xi_name
from wherecheck.parser import parse_program
from wherecheck.policy import gather_downgrades, parse_policy
from wherecheck.randprog import GenConfig, generate
from wherecheck.spds import dump_spds
from wherecheck.syntax import BinOp, CellRef, Output, Var, subst_vars, walk_commands

from explicit import explicit_error_search
from test_pinned_outputs import _cases
from test_spds import written_globals

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
TABLE3 = [f"P{i}" for i in range(8)]
IOBENCH = [f"B{i}" for i in range(8)]


def load(name: str, corpus: str = "table3"):
    path = CORPUS / corpus / name
    program = parse_program(path.read_text())
    policy = parse_policy(path.with_suffix(".policy").read_text())
    return program, gather_downgrades(program, policy)


def prog(text: str, pol: str):
    program = parse_program(text)
    policy = parse_policy(pol)
    return program, gather_downgrades(program, policy)


def compose(text: str, pol: str, mode, bits=1, capacity=2) -> ComposedModel:
    program, policy = prog(text, pol)
    return mode(build_model(program, policy, "L", bits=bits, capacity=capacity))


def outgoing(model: ComposedModel, symbol: str):
    return [r for r in model.spds.rules if r.lhs == symbol]


def symbols(spds) -> set[str]:
    return {s for rule in spds.rules for s in (rule.lhs, rule.rhs)}


def test_p0_storematch_rule_count_frozen():
    program, policy = load("P0")
    skel = build_model(program, policy, "L", bits=3)
    assert len(skel.spds.rules) == 2
    assert len(self_compose(skel).spds.rules) == 7


@pytest.mark.parametrize("name", TABLE3)
def test_storematch_rule_count_law(name):
    program, policy = load(name)
    skel = build_model(program, policy, "L", bits=2, capacity=2)
    model = self_compose(skel)
    base = len(skel.spds.rules)
    observable = {spec.name for spec in skel.outputs}
    writes = [c for c in walk_commands(program.root) if isinstance(c, Output)]
    low_writes = sum(c.channel in observable for c in writes)
    # each run keeps every rule, run two splits each low write in two; plus
    # init, restart and the end check
    assert len(model.spds.rules) == 2 * base + low_writes + 3


def dead_ends(spds) -> list:
    """The rules whose rhs cannot reach error in the control graph."""
    preds: dict[str, set[str]] = {}
    for rule in spds.rules:
        preds.setdefault(rule.rhs, set()).add(rule.lhs)
    live, work = {spds.error}, [spds.error]
    while work:
        for sym in preds.get(work.pop(), ()):
            if sym not in live:
                live.add(sym)
                work.append(sym)
    return [rule for rule in spds.rules if rule.rhs not in live]


@pytest.mark.parametrize(
    "path", [f"table3/{n}" for n in TABLE3] + [f"iobench/{n}" for n in IOBENCH]
)
@pytest.mark.parametrize("mode", [self_compose, tr_compose])
def test_every_rule_can_reach_error(path, mode):
    # a run whose downgrade premise fails, or whose channels all agree under
    # tr, blocks: no rule leads only to a symbol that cannot reach error
    corpus, name = path.split("/")
    bits = 3 if corpus == "table3" else 2
    program, policy = load(name, corpus)
    for level in sorted(policy.domains):
        model = mode(build_model(program, policy, level, bits=bits, capacity=8))
        assert model.spds.start == INIT_SYMBOL
        assert outgoing(model, ERROR_SYMBOL) == []
        assert dead_ends(model.spds) == [], level


def test_every_random_rule_can_reach_error_unless_nothing_is_observable():
    # a model with no rule into error at all observes nothing at its level;
    # every other model has no dead end
    for seed in range(400):
        for io in (False, True):
            gen = generate(seed, GenConfig(io=io))
            program, policy = prog(gen.text, gen.policy_text)
            for level in sorted(policy.domains):
                skel = build_model(program, policy, level, bits=2, capacity=4)
                for model in (self_compose(skel), tr_compose(skel)):
                    spds = model.spds
                    assert outgoing(model, ERROR_SYMBOL) == []
                    if any(rule.rhs == ERROR_SYMBOL for rule in spds.rules):
                        assert dead_ends(spds) == [], (seed, io, level, model.mode)


@pytest.mark.parametrize("name", TABLE3)
@pytest.mark.parametrize("mode", [self_compose, tr_compose])
def test_run_separation(name, mode):
    # First-run rules leave every companion alone; second-run rules leave
    # every original program variable alone.  Channels and the downgrade
    # cells are the only shared mutable state.
    program, policy = load(name)
    skel = build_model(program, policy, "L", bits=2, capacity=2)
    model = mode(skel)
    program_vars = set(skel.program.variables)
    for rule in model.spds.rules:
        written = written_globals(rule.spec)
        if rule.lhs == INIT_SYMBOL:
            continue
        if rule.lhs.startswith("xi(") or rule.lhs.startswith("chk"):
            assert not written & program_vars, rule
        else:
            assert not {w for w in written if w.startswith("xi(")}, rule


def test_init_constrains_only_observable_companions():
    program, policy = load("P4")
    model = self_compose(build_model(program, policy, "L", bits=2))
    (rule,) = outgoing(model, INIT_SYMBOL)
    assert rule.rhs == model.skeleton.spds.start
    assert rule.spec.updates == ((xi_name("l"), Var("l")),)


@pytest.mark.parametrize(
    "mode,resets_outputs", [(self_compose, True), (tr_compose, False)]
)
def test_restart_rewinds_channel_indices(mode, resets_outputs):
    pol = (
        "lattice: L < H\nvar l : L\nvar h : H\n"
        "channel src : L input length 1\nchannel snk : L output\n"
    )
    model = compose("input(l, src); output(l, snk)", pol, mode, bits=1)
    skel = model.skeleton
    (rst,) = outgoing(model, FINAL_SYMBOL)
    assert rst.rhs == xi_name(skel.spds.start)
    reset_names = {name for name, _ in rst.spec.updates}
    expected = {spec.index for spec in skel.inputs}
    # a duplicated channel keeps its first-run index for the checker
    if resets_outputs:
        expected |= {spec.index for spec in skel.outputs}
    assert reset_names == expected


def test_downgrade_stuffing_shape():
    # each run replaces the site's plain rule with its own, evaluating the
    # site's expression where the value is stored or matched
    program, policy = load("P4")
    skel = build_model(program, policy, "L", bits=2)
    model = self_compose(skel)
    assert len(skel.rho) == 2
    for site in sorted(skel.rho):
        sym = f"g{site}"
        (plain,) = [r for r in skel.spds.rules if r.lhs == sym]
        cmd = program.site_command(site)
        cell = f"D[{skel.rho[site]}]"
        (store,) = outgoing(model, sym)
        assert store.rhs == plain.rhs
        assert store.spec.updates == tuple(sorted({cell: cmd.expr, cmd.target: cmd.expr}.items()))
        # a second run whose downgrade does not match blocks here
        (advance,) = outgoing(model, xi_name(sym))
        renamed = subst_vars(cmd.expr, {x: xi_name(x) for x in program.variables})
        assert renamed != cmd.expr
        assert advance.rhs == xi_name(plain.rhs)
        assert advance.spec.guard == BinOp("==", Var(cell), renamed)
        assert advance.spec.updates == ((xi_name(cmd.target), renamed),)


def test_output_match_shape():
    program, policy = prog("l := h; output(l, snk)", SINK_POLICY)
    skel = build_model(program, policy, "L", bits=2)
    model = self_compose(skel)
    (spec,) = skel.outputs
    (store,) = outgoing(model, "g1")
    assert store.rhs == FINAL_SYMBOL
    assert store.spec.writes[0].cells == spec.cells
    assert store.spec.writes[0].expr == Var("l")
    second = outgoing(model, xi_name("g1"))
    # a differing output only sets the mismatch cell: the second run goes on
    assert [r.rhs for r in second] == [xi_name(FINAL_SYMBOL)] * 2
    differ, agree = second
    assert isinstance(differ.spec.guard.right.left, CellRef)
    assert differ.spec.guard.right.right == Var(xi_name("l"))
    assert {n for n, _ in differ.spec.updates} == {spec.index, MISMATCH}
    assert {n for n, _ in agree.spec.updates} == {spec.index}


@pytest.mark.parametrize("mode", [self_compose, tr_compose])
def test_second_run_end_is_the_only_way_into_error(mode):
    program, policy = load("P0")
    model = mode(build_model(program, policy, "L", bits=2))
    end = xi_name(FINAL_SYMBOL)
    into_error = [r for r in model.spds.rules if r.rhs == ERROR_SYMBOL]
    if mode is tr_compose:
        into_error = [r for r in into_error if not r.lhs.startswith("chk")]
    assert [r.lhs for r in into_error] == [end]
    # the end check comes first, so under tr final values are compared
    # before the channel checker
    assert [r.rhs for r in outgoing(model, end)][0] == ERROR_SYMBOL
    guard = into_error[0].spec.guard
    assert guard == BinOp("!=", Var("l"), Var(xi_name("l")))


def test_end_check_reads_the_mismatch_cell_and_every_observable():
    pol = "lattice: L < H\nvar l : L\nvar m : L\nvar h : H\nchannel snk : L output\n"
    model = compose("output(h, snk); l := m", pol, self_compose)
    (check,) = outgoing(model, xi_name(FINAL_SYMBOL))
    assert check.rhs == ERROR_SYMBOL
    assert check.spec.guard == BinOp(
        "|",
        BinOp("|", Var(MISMATCH), BinOp("!=", Var("l"), Var(xi_name("l")))),
        BinOp("!=", Var("m"), Var(xi_name("m"))),
    )
    assert model.spds.globals.width_of(MISMATCH) == 1
    assert dict(model.spds.initial_fixed)[MISMATCH] == 0


def test_mismatch_cell_only_in_storematch_models_with_a_low_output_channel():
    low = "lattice: L < H\nvar h : H\nchannel snk : L output\n"
    high = "lattice: L < H\nvar h : H\nchannel snk : H output\n"
    assert MISMATCH in compose("output(h, snk)", low, self_compose).spds.globals.names
    assert MISMATCH not in compose("output(h, snk)", low, tr_compose).spds.globals.names
    assert MISMATCH not in compose("output(h, snk)", high, self_compose).spds.globals.names


SINK_POLICY = "lattice: L < H\nvar l : L\nvar h : H\nchannel snk : L output\n"


def test_tr_duplicates_output_channels():
    program, policy = prog("l := h; output(l, snk)", SINK_POLICY)
    skel = build_model(program, policy, "L", bits=3)
    store = self_compose(skel)
    tr = tr_compose(skel)
    names = set(tr.spds.globals.names)
    snk = skel.output_spec("snk")
    assert xi_name(snk.index) in names
    assert all(xi_name(c) in names for c in snk.cells)
    assert store.spds.globals.total_bits < tr.spds.globals.total_bits
    assert dict(tr.spds.initial_fixed)[xi_name(snk.index)] == 0


def test_composed_order_puts_control_first_and_pairs_copies():
    program, policy = prog(
        "input(l, src); h := l; output(h, snk)",
        "lattice: L < H\nvar l : L\nvar h : H\n"
        "channel src : L input length 2\nchannel snk : L output\n",
    )
    skel = build_model(program, policy, "L", bits=3, capacity=2)
    src, snk = skel.inputs[0], skel.output_spec("snk")
    shared = {src.index, snk.index}
    for model, control in (
        (self_compose(skel), shared | {MISMATCH}),
        (tr_compose(skel), shared | {xi_name(snk.index)}),
    ):
        g = model.spds.globals
        assert g.control == control

        def slots(name):
            return [lvl // 2 for lvl in g.cur_levels(name)]

        control_bits = sum(g.width_of(name) for name in control)
        assert sorted(t for name in control for t in slots(name)) == list(range(control_bits))
        copies = [name for name in g.names if name.startswith("xi(") and name not in control]
        assert copies
        for copy in copies:
            original = copy[3:-1]
            assert [t + 1 for t in slots(original)] == slots(copy)


def test_tr_overhead_is_one_channel_copy():
    # a single low output channel: the baseline pays exactly one copy,
    # store-match its 1-bit mismatch cell
    program, policy = prog(
        "while 0 do output(0, snk) od", "lattice: L < H\nchannel snk : L output\n"
    )
    skel = build_model(program, policy, "L", bits=3, capacity=8)
    delta = (
        tr_compose(skel).spds.globals.total_bits
        - self_compose(skel).spds.globals.total_bits
    )
    assert delta == 8 * 3 + index_width(8) - 1


def test_tr_matches_storematch_bits_without_channels():
    program, policy = load("P0")
    skel = build_model(program, policy, "L", bits=3)
    assert (
        self_compose(skel).spds.globals.total_bits
        == tr_compose(skel).spds.globals.total_bits
    )


def test_tr_checker_chain_shape():
    program, policy = prog("l := h; output(l, snk)", SINK_POLICY)
    model = tr_compose(build_model(program, policy, "L", bits=2))
    end = outgoing(model, xi_name(FINAL_SYMBOL))
    assert [r.rhs for r in end] == [ERROR_SYMBOL, "chk0"]
    first = outgoing(model, "chk0")
    assert [r.rhs for r in first] == [ERROR_SYMBOL, ERROR_SYMBOL]
    # once the last channel agrees the run blocks: nothing enters chk1
    assert [r for r in model.spds.rules if "chk1" in (r.lhs, r.rhs)] == []
    # second run of the output body writes the duplicated cells
    skel = model.skeleton
    snk = skel.output_spec("snk")
    (writer,) = outgoing(model, xi_name("g1"))
    assert writer.spec.writes[0].cells == tuple(xi_name(c) for c in snk.cells)


@pytest.mark.parametrize("name", TABLE3)
def test_tr_equals_storematch_without_a_low_output(name):
    program, policy = load(name)
    for level in sorted(policy.domains):
        skel = build_model(program, policy, level, bits=3)
        assert not skel.outputs
        assert dump_spds(tr_compose(skel).spds) == dump_spds(self_compose(skel).spds), level


def test_stack_renaming_is_fresh_and_total():
    # the composed symbols are the skeleton's, their second-run copies and
    # the pair-run symbols, and no copy names a skeleton symbol
    program, policy = load("P7")
    skel = build_model(program, policy, "L", bits=2)
    first = symbols(skel.spds)
    copies = {xi_name(s) for s in first}
    assert not first & copies
    pair = {INIT_SYMBOL, ERROR_SYMBOL}
    assert symbols(self_compose(skel).spds) == first | copies | pair


@pytest.mark.parametrize("mode", [self_compose, tr_compose])
def test_construction_is_deterministic(mode):
    program, policy = load("P5")
    a = mode(build_model(program, policy, "L", bits=2))
    b = mode(build_model(program, policy, "L", bits=2))
    assert dump_spds(a.spds) == dump_spds(b.spds)


@pytest.mark.parametrize("mode", [self_compose, tr_compose])
def test_explicit_reachability_agrees_on_tiny_programs(mode):
    pol = "lattice: L < H\nvar h : H\nvar l : L\n"
    leak = compose("l := h", pol, mode, bits=1)
    assert explicit_error_search(leak)
    sanctioned = compose("l := declass(h)", pol, mode, bits=1)
    assert not explicit_error_search(sanctioned)
    noop = compose("skip", pol, mode, bits=1)
    assert not explicit_error_search(noop)


def test_no_model_holds_a_finals_stream_or_exhaustion_flags():
    stale = re.compile(r"finalvars|exh\[|fv\d")
    for name, text, pol, bits, capacity, _ in _cases():
        program, policy = prog(text, pol)
        for level in sorted(policy.domains):
            skel = build_model(program, policy, level, bits=bits, capacity=capacity)
            for model in (self_compose(skel), tr_compose(skel)):
                names = [*model.spds.globals.names, *symbols(model.spds)]
                assert not [n for n in names if stale.search(n)], (name, level)


def test_every_rule_moves_to_one_symbol_without_tmp_or_site_bodies():
    body = re.compile(r"^(xi\()?(de\d|dx\d|oe\[|ox\[)")
    for name, text, pol, bits, capacity, _ in _cases():
        program, policy = prog(text, pol)
        for level in sorted(policy.domains):
            skel = build_model(program, policy, level, bits=bits, capacity=capacity)
            for spds in (skel.spds, self_compose(skel).spds, tr_compose(skel).spds):
                assert all(isinstance(rule.rhs, str) for rule in spds.rules), (name, level)
                assert "tmp" not in spds.globals.names, (name, level)
                assert not [s for s in symbols(spds) if body.match(s)], (name, level)
