import itertools
from collections import deque
from pathlib import Path

import pytest

from wherecheck.bdd import BudgetExceeded
from wherecheck.compose import self_compose, tr_compose
from wherecheck.modelgen import build_model
from wherecheck.parser import parse_program
from wherecheck.policy import gather_downgrades, parse_policy
from wherecheck.randprog import GenConfig, generate
from wherecheck.reach import (
    Witness,
    explicit_error_search,
    extract_witness,
    is_error_reachable,
    post_star,
    replay_witness,
)
from wherecheck.semantics import run_program
from wherecheck.spds import GlobalsDecl, Rule, RuleSpec, SPDS, successors
from wherecheck.syntax import Var

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus" / "table3"

# Table row: error reachable at the default precision?
EXPECTED = {
    "P0": False,
    "P1": False,
    "P2": False,
    "P3": True,
    "P4": True,
    "P5": True,
    "P6": False,
    "P7": False,
}


def load(name: str):
    program = parse_program((CORPUS / name).read_text())
    policy = parse_policy((CORPUS / f"{name}.policy").read_text())
    return program, gather_downgrades(program, policy)


def build(text: str, pol: str, bits=1, capacity=2, mode=self_compose):
    program = parse_program(text)
    policy = gather_downgrades(program, parse_policy(pol))
    return mode(build_model(program, policy, "L", bits=bits, capacity=capacity))


def corpus_model(name: str, bits=3, capacity=8, mode=self_compose):
    program, policy = load(name)
    return mode(build_model(program, policy, "L", bits=bits, capacity=capacity))


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_corpus_error_reachability(name):
    model = corpus_model(name)
    auto = post_star(model)
    assert is_error_reachable(auto, model) == EXPECTED[name]


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_tr_mode_agrees_on_corpus(name):
    model = corpus_model(name, bits=2, capacity=4, mode=tr_compose)
    assert is_error_reachable(post_star(model), model) == EXPECTED[name]


@pytest.mark.parametrize("name", ["P0", "P3", "P4", "P5"])
def test_explicit_search_agrees(name):
    model = corpus_model(name, bits=1, capacity=2)
    symbolic = is_error_reachable(post_star(model), model)
    assert explicit_error_search(model) == symbolic


@pytest.mark.parametrize("bits", [1, 2, 3])
def test_monotone_bits_spot_check(bits):
    insecure = corpus_model("P4", bits=bits, capacity=2)
    assert is_error_reachable(post_star(insecure), insecure)
    secure = corpus_model("P0", bits=bits, capacity=2)
    assert not is_error_reachable(post_star(secure), secure)


def tiny_spds(rules, start="a", alphabet=("a", "b"), fixed=(("x", 0),)):
    return SPDS(
        GlobalsDecl((("x", 2),)),
        tuple(alphabet),
        tuple(rules),
        start,
        tuple(fixed),
        error=None,
    )


def accepts(auto, valuation: tuple[int, ...], word: tuple[str, ...]) -> bool:
    """Membership under the chain convention (reachability of the config)."""
    alg, mgr = auto.algebra, auto.algebra.mgr
    every_cell = frozenset(alg.g.names)
    if not word:
        emptied = exists(alg, auto.eps.get(auto.final, mgr.FALSE), alg.g.block_levels(2))
        return mgr.conj(alg.set_from_valuation(valuation), emptied) != mgr.FALSE
    reach: dict[str, int] = {auto.initial: alg.set_from_valuation(valuation)}
    for sym in word:
        step: dict[str, int] = {}
        for (p, s, q), rel in auto.trans.items():
            if s != sym or p not in reach:
                continue
            img = alg.transpose_compose(rel, reach[p], every_cell)
            if img != mgr.FALSE:
                step[q] = mgr.disj(step.get(q, mgr.FALSE), img)
        if not step:
            return False
        reach = step
    return reach.get(auto.final, mgr.FALSE) != mgr.FALSE


def exists(alg, u, levels):
    return alg.mgr.relprod(u, alg.mgr.TRUE, alg.mgr.step(3 * alg.g.total_bits, drop=levels))


def lift_to_nxt(alg, set_cur):
    """The set with every bit moved to the next block."""
    step = alg.mgr.step(3 * alg.g.total_bits, umap=alg.g.block_map(0, 2))
    return alg.mgr.relprod(set_cur, alg.mgr.TRUE, step)


def test_no_rules_accepts_exactly_initial():
    spds = tiny_spds(())
    auto = post_star(spds)
    assert auto.steps == 1  # the seeded transition itself
    assert accepts(auto, (0,), ("a",))
    assert not accepts(auto, (1,), ("a",))
    assert not accepts(auto, (0,), ("b",))
    assert not accepts(auto, (0,), ("a", "a"))


def test_self_loop_fixpoint_after_one_iteration():
    loop = Rule("a", ("a",), RuleSpec.make(), "spin")
    auto = post_star(tiny_spds((loop,)))
    assert auto.steps == 1  # re-derived relation adds nothing new
    assert accepts(auto, (0,), ("a",))


def test_counting_loop_saturates_values():
    from wherecheck.syntax import BinOp, Num

    bump = Rule(
        "a",
        ("a",),
        RuleSpec.make(updates={"x": BinOp("+", Var("x"), Num(1))}),
        "bump",
    )
    auto = post_star(tiny_spds((bump,)))
    for v in range(4):
        assert accepts(auto, (v,), ("a",))


def test_pop_to_empty_stack():
    done = Rule("a", (), RuleSpec.make(), "done")
    auto = post_star(tiny_spds((done,)))
    assert accepts(auto, (0,), ())
    assert not accepts(auto, (1,), ())


def test_budget_exceeded_propagates():
    model = corpus_model("P1", bits=2, capacity=2)
    with pytest.raises(BudgetExceeded):
        post_star(model, node_budget=200)


def test_saturation_is_deterministic():
    a = post_star(corpus_model("P3", bits=2, capacity=2))
    b = post_star(corpus_model("P3", bits=2, capacity=2))
    assert a.steps == b.steps
    assert a.edge_count == b.edge_count
    assert list(a.trans) == list(b.trans)


def explicit_reach_sets(spds, cap=60000):
    seen = {}
    work = deque((val, (spds.start,)) for val in spds.initial_valuations())
    while work:
        val, stack = work.popleft()
        if val in seen.get(stack, ()):
            continue
        seen.setdefault(stack, set()).add(val)
        assert sum(len(v) for v in seen.values()) < cap
        work.extend(successors(spds, val, stack))
    return seen


def test_acceptance_matches_explicit_reachability():
    # The automaton's language must be exactly the reachable configurations.
    model = build(
        "l := declass(h); output(l, snk)",
        "lattice: L < H\nvar h : H\nvar l : L\nchannel snk : L output\n",
        bits=1,
        capacity=1,
    )
    spds = model.spds
    auto = post_star(model)
    reached = explicit_reach_sets(spds)
    for stack, vals in reached.items():
        for val in vals:
            assert accepts(auto, val, stack), (val, stack)
    universe = list(spds.globals.all_valuations())
    for stack, vals in reached.items():
        for val in itertools.islice((v for v in universe if v not in vals), 5):
            assert not accepts(auto, val, stack), (val, stack)
    assert not accepts(auto, universe[0], ("no-such-symbol",))


def test_nested_pushes_match_explicit_reachability():
    # A push inside a called procedure: the inner push's entry edge is built
    # from a delta whose promise is already constrained by the outer push.
    from wherecheck.syntax import BinOp, Num

    bump = RuleSpec.make(updates={"x": BinOp("+", Var("x"), Num(1))})
    rules = (
        Rule("a", ("b", "r"), bump, "call b"),
        Rule("b", ("c", "s"), bump, "call c"),
        Rule("c", (), RuleSpec.make(updates={"x": BinOp("*", Var("x"), Num(3))}), "c returns"),
        Rule("s", (), bump, "b returns"),
        Rule("r", ("a",), RuleSpec.make(guard=BinOp("<", Var("x"), Num(2))), "again"),
    )
    spds = tiny_spds(rules, alphabet=("a", "b", "c", "r", "s"))
    auto = post_star(spds)
    reached = explicit_reach_sets(spds)
    universe = list(spds.globals.all_valuations())
    stacks = set(reached) | {(sym,) for sym in spds.alphabet} | {("c", "s", "r"), ("s", "r")}
    for stack in stacks:
        for val in universe:
            assert accepts(auto, val, stack) == (val in reached.get(stack, ())), (val, stack)


def test_leak_witness_decodes_and_replays():
    model = build("l := h", "lattice: L < H\nvar h : H\nvar l : L\n")
    auto = post_star(model)
    w = extract_witness(auto, model)
    assert w.mu1["h"] != w.mu2["h"]
    assert w.mu1["l"] == w.mu2["l"]
    assert w.channel is None
    assert model.skeleton.observable_vars[w.index] == "l"
    assert w.replay_ok
    assert w.inputs1 == {} and w.inputs2 == {}
    assert w.length == len(w.steps) - 1 > 0


def test_witness_steps_form_a_rule_path():
    model = build("l := h", "lattice: L < H\nvar h : H\nvar l : L\n")
    auto = post_star(model)
    w = extract_witness(auto, model)
    assert w.steps[0].rule_index is None
    assert w.steps[0].stack == (model.spds.start,)
    assert w.steps[-1].stack[0] == model.spds.error
    for step in w.steps[1:]:
        rule = model.spds.rules[step.rule_index]
        assert step.stack[: len(rule.rhs)] == rule.rhs


def test_witness_extraction_is_deterministic():
    model = build("l := h", "lattice: L < H\nvar h : H\nvar l : L\n")
    w1 = extract_witness(post_star(model), model)
    w2 = extract_witness(post_star(model), model)
    assert (w1.mu1, w1.mu2, w1.channel, w1.index) == (w2.mu1, w2.mu2, w2.channel, w2.index)
    assert [s.stack for s in w1.steps] == [s.stack for s in w2.steps]


def test_p5_witness_skips_declass_branch():
    program, policy = load("P5")
    model = self_compose(build_model(program, policy, "L", bits=1, capacity=2))
    w = extract_witness(post_star(model), model)
    assert w.replay_ok
    t1 = run_program(program, policy, store=w.mu1, bits=1, capacity=2)
    t2 = run_program(program, policy, store=w.mu2, bits=1, capacity=2)
    assert t1.declass_events() == t2.declass_events() == []
    assert t1.final.mu["l"] != t2.final.mu["l"]


def test_p3_witness_launders_through_equal_downgrades():
    program, policy = load("P3")
    model = self_compose(build_model(program, policy, "L", bits=1, capacity=2))
    w = extract_witness(post_star(model), model)
    assert w.replay_ok
    t1 = run_program(program, policy, store=w.mu1, bits=1, capacity=2)
    t2 = run_program(program, policy, store=w.mu2, bits=1, capacity=2)
    values1 = [v for _, v in t1.declass_events()]
    values2 = [v for _, v in t2.declass_events()]
    assert values1 == values2 == [0]
    assert t1.final.mu["l2"] != t2.final.mu["l2"]


def test_p4_witness_comes_from_unmatched_branch():
    # The two runs take different branches, so each run's downgrade is
    # matched against a recorded value the other run never wrote.
    program, policy = load("P4")
    model = self_compose(build_model(program, policy, "L", bits=1, capacity=2))
    w = extract_witness(post_star(model), model)
    assert w.replay_ok
    assert model.skeleton.observable_vars[w.index] == "l"


def test_output_channel_witness():
    model = build(
        "output(h, snk)",
        "lattice: L < H\nvar h : H\nchannel snk : L output\n",
        bits=1,
        capacity=2,
    )
    w = extract_witness(post_star(model), model)
    assert w.channel == "snk"
    assert w.index == 0
    assert w.replay_ok


def test_high_input_witness_decodes_streams():
    model = build(
        "input(h, src); l := h",
        "lattice: L < H\nvar h : H\nvar l : L\nchannel src : H input length 1\n",
        bits=1,
        capacity=2,
    )
    w = extract_witness(post_star(model), model)
    assert w.replay_ok
    assert w.inputs1["src"] != w.inputs2["src"]


def test_witness_on_secure_model_is_rejected():
    model = build("l := declass(h)", "lattice: L < H\nvar h : H\nvar l : L\n")
    auto = post_star(model)
    assert not is_error_reachable(auto, model)
    with pytest.raises(ValueError):
        extract_witness(auto, model)


def test_replay_rejects_bogus_mismatch():
    model = build("l := h", "lattice: L < H\nvar h : H\nvar l : L\n")
    w = extract_witness(post_star(model), model)
    w.mu2 = dict(w.mu1)  # identical runs cannot differ
    ok, outcomes = replay_witness(model, w)
    assert not ok
    assert outcomes == ("halted", "halted")


def test_replay_rejects_witness_breaking_the_downgrade_premise():
    # the two runs release different values at the downgrade site, so the
    # gap in l proves nothing
    model = build("l := declass(h)", "lattice: L < H\nvar h : H\nvar l : L\n")
    w = Witness([], {"h": 0, "l": 0}, {"h": 1, "l": 0}, {}, {}, channel=None, index=0)
    ok, outcomes = replay_witness(model, w)
    assert not ok
    assert outcomes == ("halted", "halted")


@pytest.mark.parametrize("mode", [self_compose, tr_compose])
def test_an_output_gap_counts_only_if_the_second_run_halts(mode):
    # a run with h != 0 never halts, so two halting runs write the same value
    model = build(
        "output(h, snk); while h do skip od",
        "lattice: L < H\nvar h : H\nchannel snk : L output\n",
        mode=mode,
    )
    assert not is_error_reachable(post_star(model), model)
    assert not explicit_error_search(model)


@pytest.mark.parametrize("mode", [self_compose, tr_compose])
def test_read_past_the_end_blocks(mode):
    # only the run with h == 0 can read y; the other run is stuck, not done
    model = build(
        "if h then input(x, src) else skip fi; input(y, src); l := y",
        "lattice: L < H\nvar h : H\nvar x : L\nvar y : L\nvar l : L\n"
        "channel src : L input length 1\n",
        mode=mode,
    )
    assert not is_error_reachable(post_star(model), model)
    assert not explicit_error_search(model)


def test_first_mismatched_output_names_the_witness_channel():
    # the output differs first, then l; the step that set the mismatch cell wins
    model = build(
        "output(h, snk); l := h",
        "lattice: L < H\nvar h : H\nvar l : L\nchannel snk : L output\n",
    )
    w = extract_witness(post_star(model), model)
    assert (w.channel, w.index) == ("snk", 0)
    assert w.mu1["h"] != w.mu2["h"]
    assert w.replay_ok


def test_tr_witness_decodes():
    program, policy = load("P3")
    model = tr_compose(build_model(program, policy, "L", bits=1, capacity=2))
    w = extract_witness(post_star(model), model)
    assert w.channel is None
    assert model.skeleton.observable_vars[w.index] == "l2"
    assert w.replay_ok


# The decision reads only the edge keys.  The reference below is the least
# fixpoint that decided before: per state, the promise values from which a
# path can complete at final.  Every promise on every edge must lie in the
# reference set of its target, and the two decisions must agree.


def feasible_chains(auto):
    alg, mgr = auto.algebra, auto.algebra.mgr
    feas = {state: mgr.FALSE for p, _, q in auto.trans for state in (p, q)}
    feas[auto.final] = mgr.TRUE
    every_cell = frozenset(alg.g.names)
    entering = {}
    for edge in auto.trans:
        entering.setdefault(edge[2], []).append(edge)
    work = deque(entering.get(auto.final, ()))
    queued = set(work)
    while work:
        edge = work.popleft()
        queued.discard(edge)
        p, q = edge[0], edge[2]
        merged = mgr.disj(feas[p], alg.preimage(auto.trans[edge], feas[q], every_cell))
        if merged != feas[p]:
            feas[p] = merged
            for e in entering.get(p, ()):
                if e not in queued:
                    queued.add(e)
                    work.append(e)
    return feas


def reference_decision(auto, feas):
    alg, mgr = auto.algebra, auto.algebra.mgr
    return any(
        mgr.conj(rel, lift_to_nxt(alg, feas[q])) != mgr.FALSE
        for (p, sym, q), rel in auto.trans.items()
        if p == auto.initial and sym == auto.spds.error
    )


def _feasibility_cases():
    """(name, program text, policy text, bits, capacity, compose)."""
    for i in range(8):
        text = (CORPUS / f"P{i}").read_text()
        pol = (CORPUS / f"P{i}.policy").read_text()
        for bits in (2, 3):
            yield f"table3/P{i}@{bits}", text, pol, bits, 8, self_compose
    for i in range(8):
        path = ROOT / "corpus" / "iobench" / f"B{i}"
        for mode in (self_compose, tr_compose):
            name = f"iobench/B{i}/{'tr' if mode is tr_compose else 'storematch'}"
            yield name, path.read_text(), path.with_suffix(".policy").read_text(), 2, 8, mode
    for seed in range(60):
        for io in (False, True):
            gen = generate(seed, GenConfig(io=io))
            name = f"randprog/{seed}{'io' if io else ''}"
            yield name, gen.text, gen.policy_text, 2, 4, self_compose


FEASIBILITY_CASES = list(_feasibility_cases())


@pytest.mark.parametrize(
    "case", FEASIBILITY_CASES, ids=[case[0] for case in FEASIBILITY_CASES]
)
def test_every_promise_is_feasible_and_the_decision_matches(case):
    _, text, pol, bits, capacity, mode = case
    program = parse_program(text)
    policy = gather_downgrades(program, parse_policy(pol))
    for level in sorted(policy.domains):
        model = mode(build_model(program, policy, level, bits=bits, capacity=capacity))
        auto = post_star(model)
        alg, mgr = auto.algebra, auto.algebra.mgr
        feas = feasible_chains(auto)
        drop_cur = mgr.step(3 * alg.g.total_bits, drop=alg.g.block_levels(0))
        for (p, sym, q), rel in auto.trans.items():
            promises = mgr.relprod(rel, mgr.TRUE, drop_cur)
            assert mgr.diff(promises, lift_to_nxt(alg, feas[q])) == mgr.FALSE, (level, p, sym, q)
        assert is_error_reachable(auto, model) == reference_decision(auto, feas), level
