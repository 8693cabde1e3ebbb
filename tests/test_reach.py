from pathlib import Path

import pytest

from wherecheck.bdd import BudgetExceeded
from wherecheck.compose import self_compose, tr_compose
from wherecheck.modelgen import build_model
from wherecheck.parser import parse_program
from wherecheck.policy import OBSERVES_EVERYTHING, gather_downgrades, parse_policy, typable
from wherecheck.randprog import GenConfig, generate
from wherecheck.reach import (
    Witness,
    _backward_path,
    extract_witness,
    is_error_reachable,
    post_star,
    replay_witness,
)
from wherecheck.semantics import run_program
from wherecheck.spds import HAVOC, GlobalsDecl, RelationAlgebra, Rule, RuleSpec, SPDS
from wherecheck.syntax import BinOp, Num, Var
from explicit import decode, explicit_error_search, initial_valuations, successors
from reference import preimage_walk
from test_bdd import sat_all

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


def test_relational_steps_stay_small_and_are_reused():
    # A channel write makes one written set per cell, so B3 at capacity 64
    # makes many steps; each holds only its own written bits.  Level L
    # observes everything, so the bare system is searched.
    folder = ROOT / "corpus" / "iobench"
    program = parse_program((folder / "B3").read_text())
    policy = gather_downgrades(program, parse_policy((folder / "B3.policy").read_text()))
    model = self_compose(build_model(program, policy, "L", bits=2, capacity=64))
    auto = post_star(model.spds)
    alg, mgr = auto.algebra, auto.algebra.mgr
    assert len(alg._written) > 64
    for written, steps in alg._written.items():
        written_bits = sum(alg.g.width_of(name) for name in written)
        for step in steps:
            assert len(step.vmap) + len(step.drop) + len(step.out) <= 2 * written_bits
    # Imaging again through the same piece finds every answer in the cache.
    (i, (rel, written)), *_ = [
        (i, piece) for i, pieces in enumerate(auto.rule_relations) for piece in pieces if piece[1]
    ]
    s = auto.reached[model.spds.rules[i].lhs]
    first = alg.transpose_compose(rel, s, written)
    sizes = len(mgr), len(mgr._cache)
    assert alg.transpose_compose(rel, s, written) == first
    assert (len(mgr), len(mgr._cache)) == sizes


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_corpus_error_reachability(name):
    model = corpus_model(name)
    auto = post_star(model.spds)  # P2 and P7 type at L; search them anyway
    assert is_error_reachable(auto, model) == EXPECTED[name]


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_tr_mode_agrees_on_corpus(name):
    model = corpus_model(name, bits=2, capacity=4, mode=tr_compose)
    assert is_error_reachable(post_star(model.spds), model) == EXPECTED[name]


@pytest.mark.parametrize("name", ["P0", "P3", "P4", "P5"])
def test_explicit_search_agrees(name):
    model = corpus_model(name, bits=1, capacity=2)
    # the bare system, so P0, which types at L, is searched too
    symbolic = is_error_reachable(post_star(model.spds), model)
    assert explicit_error_search(model) == symbolic


@pytest.mark.parametrize("bits", [1, 2, 3])
def test_monotone_bits_spot_check(bits):
    insecure = corpus_model("P4", bits=bits, capacity=2)
    assert is_error_reachable(post_star(insecure), insecure)
    secure = corpus_model("P0", bits=bits, capacity=2)
    assert not is_error_reachable(post_star(secure.spds), secure)  # P0 types; search it


def tiny_spds(rules, start="a", fixed=(("x", 0),)):
    return SPDS(GlobalsDecl((("x", 2),)), tuple(rules), start, tuple(fixed), error=None)


BUMP = RuleSpec.make(updates={"x": BinOp("+", Var("x"), Num(1))})
TRIPLE = RuleSpec.make(updates={"x": BinOp("*", Var("x"), Num(3))})


def valuations(alg, set_cur):
    """The valuations of a set over the current levels."""
    levels = list(range(0, 2 * alg.g.total_bits, 2))
    return {
        decode(alg.g, dict(zip(levels, bits)), alg.g.cur_levels)
        for bits in sat_all(alg.mgr, set_cur, levels)
    }


def symbolic_layers(auto):
    return [
        {sym: valuations(auto.algebra, node) for sym, node in layer.items()}
        for layer in auto.layers
    ]


def explicit_layers(spds, cap=60000):
    """Per distance k: symbol -> the valuations whose shortest explicit distance is k.

    Like post_star, it stops after the first layer that holds the error symbol.
    """
    frontier = {(val, spds.start) for val in initial_valuations(spds)}
    seen = set(frontier)
    layers = []
    while frontier:
        layer = {}
        for val, sym in frontier:
            layer.setdefault(sym, set()).add(val)
        layers.append(layer)
        if spds.error in layer:
            break
        frontier = {nxt for config in frontier for nxt in successors(spds, *config)} - seen
        seen |= frontier
        assert len(seen) < cap
    return layers


def test_no_rules_accepts_exactly_initial():
    spds = tiny_spds(())
    auto = post_star(spds)
    assert auto.steps == 1  # the initial frontier itself
    assert auto.edge_count == 1
    assert symbolic_layers(auto) == [{"a": {(0,)}}]


def test_self_loop_fixpoint_after_one_iteration():
    loop = Rule("a", "a", RuleSpec.make(), "spin")
    auto = post_star(tiny_spds((loop,)))
    assert auto.steps == 1  # re-derived valuations add nothing new
    assert symbolic_layers(auto) == [{"a": {(0,)}}]


def test_counting_loop_reaches_one_value_per_layer():
    auto = post_star(tiny_spds((Rule("a", "a", BUMP, "bump"),)))
    assert symbolic_layers(auto) == [{"a": {(v,)}} for v in range(4)]
    assert valuations(auto.algebra, auto.reached["a"]) == {(v,) for v in range(4)}


def test_a_run_ends_in_a_symbol_without_rules():
    # as at the program's end symbol, the search stops once a layer adds nothing
    done = Rule("a", "b", RuleSpec.make(guard=BinOp("==", Var("x"), Num(0))), "done")
    auto = post_star(tiny_spds((done,), fixed=()))
    assert symbolic_layers(auto) == [{"a": {(0,), (1,), (2,), (3,)}}, {"b": {(0,)}}]
    assert auto.steps == 2


def test_budget_exceeded_propagates():
    # P1 types at L, so its bare system is searched: 138 nodes unbounded
    model = corpus_model("P1", bits=2, capacity=2)
    with pytest.raises(BudgetExceeded):
        post_star(model.spds, node_budget=100)


def test_channel_writes_grow_linearly_with_capacity():
    # A write is one piece per cell, so storematch B3 at capacity 128 makes
    # about 13,000 nodes; a relation framing every cell made 92,466 at 32.
    # Every level of B3 observes everything, so the bare system is searched.
    path = ROOT / "corpus" / "iobench" / "B3"
    program = parse_program(path.read_text())
    policy = gather_downgrades(program, parse_policy(path.with_suffix(".policy").read_text()))
    for level in sorted(policy.domains):
        verdicts = []
        for capacity in (8, 128):
            model = self_compose(build_model(program, policy, level, bits=2, capacity=capacity))
            auto = post_star(model.spds)
            verdicts.append(is_error_reachable(auto, model))
        assert verdicts[0] == verdicts[1], level
        assert auto.node_count < 20_000, level


def test_the_search_is_deterministic():
    a = post_star(corpus_model("P3", bits=2, capacity=2))
    b = post_star(corpus_model("P3", bits=2, capacity=2))
    assert a.steps == b.steps
    assert a.edge_count == b.edge_count
    assert a.layers == b.layers


def test_acceptance_matches_explicit_reachability():
    # Every layer must hold exactly the configurations first reached there.
    model = build(
        "l := declass(h); output(l, snk)",
        "lattice: L < H\nvar h : H\nvar l : L\nchannel snk : L output\n",
        bits=1,
        capacity=1,
    )
    auto = post_star(model.spds)  # level L types, so the bare system is searched
    assert symbolic_layers(auto) == explicit_layers(model.spds)
    assert "no-such-symbol" not in auto.reached


def test_a_cycle_through_five_symbols_matches_explicit_reachability():
    # a loop body spread over several symbols, left by a guard on the way back
    rules = (
        Rule("a", "b", BUMP, "bump"),
        Rule("b", "c", BUMP, "bump"),
        Rule("c", "s", TRIPLE, "triple"),
        Rule("s", "r", BUMP, "bump"),
        Rule("r", "a", RuleSpec.make(guard=BinOp("<", Var("x"), Num(2))), "again"),
    )
    spds = tiny_spds(rules)
    assert symbolic_layers(post_star(spds)) == explicit_layers(spds)


@pytest.mark.parametrize(
    "rules",
    [
        (Rule("a", "b", RuleSpec.make(updates={"x": HAVOC}), "any"),),
        (
            Rule("a", "b", RuleSpec.make(guard=BinOp("<", Var("x"), Num(3))), "small"),
            Rule("b", "a", BUMP, "bump"),
            Rule("b", "b", TRIPLE, "triple"),
        ),
        (
            Rule("a", "a", BUMP, "bump"),
            Rule("a", "b", RuleSpec.make(guard=BinOp("==", Var("x"), Num(2))), "two"),
            Rule("b", "a", RuleSpec.make(updates={"x": Num(0)}), "reset"),
        ),
    ],
    ids=["havoc", "branching", "reset"],
)
@pytest.mark.parametrize("fixed", [(("x", 0),), ()], ids=["x=0", "free"])
def test_layers_are_shortest_distance_sets_on_tiny_systems(rules, fixed):
    spds = tiny_spds(rules, fixed=fixed)
    assert symbolic_layers(post_star(spds)) == explicit_layers(spds)


def test_the_search_stops_at_the_first_layer_that_holds_error():
    rules = (
        Rule("a", "a", BUMP, "bump"),
        Rule("a", "e", RuleSpec.make(guard=BinOp("==", Var("x"), Num(1))), "fail"),
    )
    spds = SPDS(GlobalsDecl((("x", 2),)), rules, "a", (("x", 0),), error="e")
    auto = post_star(spds)
    assert is_error_reachable(auto, spds)
    assert symbolic_layers(auto) == [{"a": {(0,)}}, {"a": {(1,)}}, {"a": {(2,)}, "e": {(1,)}}]
    assert symbolic_layers(auto) == explicit_layers(spds)


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
    assert w.steps[0].symbol == model.spds.start
    assert w.steps[-1].symbol == model.spds.error
    for before, step in zip(w.steps, w.steps[1:]):
        rule = model.spds.rules[step.rule_index]
        assert (before.symbol, step.symbol) == (rule.lhs, rule.rhs)


def test_witness_extraction_is_deterministic():
    model = build("l := h", "lattice: L < H\nvar h : H\nvar l : L\n")
    w1 = extract_witness(post_star(model), model)
    w2 = extract_witness(post_star(model), model)
    assert (w1.mu1, w1.mu2, w1.channel, w1.index) == (w2.mu1, w2.mu2, w2.channel, w2.index)
    assert [s.symbol for s in w1.steps] == [s.symbol for s in w2.steps]


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
    w = w._replace(mu2=dict(w.mu1))  # identical runs cannot differ
    ok, runs = replay_witness(model, w)
    assert not ok
    assert tuple(trace.outcome for trace in runs) == ("halted", "halted")


def test_replay_rejects_witness_breaking_the_downgrade_premise():
    # the two runs release different values at the downgrade site, so the
    # gap in l proves nothing
    model = build("l := declass(h)", "lattice: L < H\nvar h : H\nvar l : L\n")
    w = Witness([], {"h": 0, "l": 0}, {"h": 1, "l": 0}, {}, {}, channel=None, index=0)
    ok, runs = replay_witness(model, w)
    assert not ok
    assert tuple(trace.outcome for trace in runs) == ("halted", "halted")


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


# The search against explicit breadth-first search on 152 corpus and random
# inputs.  Layer k promises that each of its valuations is first reached in
# exactly k rule applications; the promise is feasible when the explicit
# search finds the same sets at distance k.  The explicit side enumerates
# every configuration, so each input runs at one bit and capacity 2,
# whatever the width its name gives.  The bare system is searched, so a
# level that observes everything is held to the full search as well.


def _layer_cases():
    """(name, program text, policy text, compose)."""
    for i in range(8):
        text = (CORPUS / f"P{i}").read_text()
        pol = (CORPUS / f"P{i}.policy").read_text()
        for bits in (2, 3):
            yield f"table3/P{i}@{bits}", text, pol, self_compose
    for i in range(8):
        path = ROOT / "corpus" / "iobench" / f"B{i}"
        for mode in (self_compose, tr_compose):
            name = f"iobench/B{i}/{'tr' if mode is tr_compose else 'storematch'}"
            yield name, path.read_text(), path.with_suffix(".policy").read_text(), mode
    for seed in range(60):
        for io in (False, True):
            gen = generate(seed, GenConfig(io=io))
            name = f"randprog/{seed}{'io' if io else ''}"
            yield name, gen.text, gen.policy_text, self_compose


LAYER_CASES = list(_layer_cases())


@pytest.mark.parametrize("case", LAYER_CASES, ids=[case[0] for case in LAYER_CASES])
def test_every_promise_is_feasible_and_the_decision_matches(case):
    _, text, pol, mode = case
    program = parse_program(text)
    policy = gather_downgrades(program, parse_policy(pol))
    for level in sorted(policy.domains):
        model = mode(build_model(program, policy, level, bits=1, capacity=2))
        auto = post_star(model.spds)
        assert symbolic_layers(auto) == explicit_layers(model.spds), level
        assert is_error_reachable(auto, model) == explicit_error_search(model), level


# A level that observes every variable and channel types trivially, and
# policy.typable gives it its own reason.  The gate holds that argument
# against the full search of the bare system, on both corpora at bits 2 /
# capacity 8 and randprog seeds 0-399 with and without I/O at bits 2 /
# capacity 4, in both modes.

OBSERVING_GROUPS = ("table3", "iobench", "randprog", "randprog-io")


def _observing_cases(group: str):
    """(name, program text, policy text, bits, capacity) of one group."""
    if group in ("table3", "iobench"):
        stem = "P" if group == "table3" else "B"
        for i in range(8):
            path = ROOT / "corpus" / group / f"{stem}{i}"
            pol = path.with_suffix(".policy").read_text()
            yield f"{group}/{stem}{i}", path.read_text(), pol, 2, 8
        return
    io = group == "randprog-io"
    for seed in range(400):
        gen = generate(seed, GenConfig(io=io))
        yield f"randprog/{seed}{'io' if io else ''}", gen.text, gen.policy_text, 2, 4


@pytest.mark.parametrize("mode", [self_compose, tr_compose], ids=["storematch", "tr"])
@pytest.mark.parametrize("group", OBSERVING_GROUPS)
def test_a_level_that_observes_everything_is_secure_without_a_search(group, mode):
    decided = 0
    for name, text, pol, bits, capacity in _observing_cases(group):
        program = parse_program(text)
        policy = gather_downgrades(program, parse_policy(pol))
        for level in sorted(policy.domains):
            model = mode(build_model(program, policy, level, bits=bits, capacity=capacity))
            names = [*program.variables, *program.channels]
            everything = all(policy.observable(n, level) for n in names)
            reason = typable(program, policy, level, bits)
            assert (reason == OBSERVES_EVERYTHING) == everything, (name, level)
            if not everything:
                continue
            full = post_star(model.spds)
            assert not is_error_reachable(full, model), (name, level)
            auto = post_star(model)
            start = {model.spds.start: auto.algebra.set_from_fixed(dict(model.spds.initial_fixed))}
            assert auto.layers == [start], (name, level)
            assert (auto.steps, auto.edge_count, auto.rule_relations) == (0, 1, []), (name, level)
            assert auto.reason == OBSERVES_EVERYTHING
            assert not is_error_reachable(auto, model)
            decided += 1
    assert decided > 0


# Each program is secure at L but does not type there, so L is searched.
@pytest.mark.parametrize(
    "text, pol",
    [
        ("h := h + 1;\nl := (h + 1) - (1 + h)\n", "lattice: L < H\nvar l : L\nvar h : H\n"),
        (
            "input(l, hi);\nl := (l + 1) - (1 + l)\n",
            "lattice: L < H\nvar l : L\nchannel hi : H input length 1\n",
        ),
    ],
    ids=["one-variable-above", "one-channel-above"],
)
@pytest.mark.parametrize("mode", [self_compose, tr_compose], ids=["storematch", "tr"])
def test_a_level_that_misses_one_item_is_searched(text, pol, mode):
    program = parse_program(text)
    policy = gather_downgrades(program, parse_policy(pol))
    model = mode(build_model(program, policy, "L", bits=2, capacity=4))
    assert not typable(program, policy, "L", 2)
    auto = post_star(model)
    assert auto.steps > 0 and auto.reason == ""
    assert not is_error_reachable(auto, model)


# The witness walk reads most of its picks in one walk of a cube.  On a
# counting loop (program D of the ROADMAP) the greedy walks it still takes
# do not grow with the loop's length, so the walk is linear in the witness.

D_SHAPE = "i := 0;\nwhile (i < {n}) do\n  i := i + 1;\n  l := l + 1\nod;\nl := l + h\n"
D_POLICY = "lattice: L < H\nvar h : H\nvar l : L\nvar i : L\n"


def test_a_deep_witness_takes_as_many_greedy_walks_at_any_depth(monkeypatch):
    walks = [0]
    path = RelationAlgebra._path

    def counted(self, u, fixed):
        walks[0] += 1
        return path(self, u, fixed)

    monkeypatch.setattr(RelationAlgebra, "_path", counted)
    counts = []
    for n in (50, 100):
        model = build(D_SHAPE.format(n=n), D_POLICY, bits=8)
        auto = post_star(model)
        walks[0] = 0
        w = extract_witness(auto, model)
        assert w.length == 6 * n + 9 and w.replay_ok
        counts.append(walks[0])
    assert counts[0] == counts[1]


# Every set the witness walk picks from gives the same valuation through the
# cube walk and through the greedy walk, and the walk gives the path of the
# pre-image walk it replaced (tests/reference.py), on the benchmark inputs
# and on program D.

WALK_GROUPS = ("table3", "iobench", "randprog", "randprog-io", "D")


def _walk_cases(group: str):
    """(program text, policy text, bits, capacity, compose) of one group."""
    if group == "table3":
        for i in range(8):
            path = CORPUS / f"P{i}"
            for bits in (1, 2, 3, 4):
                yield path.read_text(), path.with_suffix(".policy").read_text(), bits, 8, self_compose
    elif group == "iobench":
        for i in range(8):
            path = ROOT / "corpus" / "iobench" / f"B{i}"
            for mode in (self_compose, tr_compose):
                yield path.read_text(), path.with_suffix(".policy").read_text(), 2, 8, mode
    elif group == "D":
        yield D_SHAPE.format(n=100), D_POLICY, 10, 4, self_compose
    else:
        for seed in range(400):
            gen = generate(seed, GenConfig(io=group == "randprog-io"))
            yield gen.text, gen.policy_text, 2, 4, self_compose


def _insecure_levels(group: str):
    """The automaton of every insecure level of one group."""
    for text, pol, bits, capacity, mode in _walk_cases(group):
        program = parse_program(text)
        policy = gather_downgrades(program, parse_policy(pol))
        for level in sorted(policy.domains):
            model = mode(build_model(program, policy, level, bits=bits, capacity=capacity))
            auto = post_star(model)
            if is_error_reachable(auto, model):
                yield auto


@pytest.mark.parametrize("group", WALK_GROUPS)
def test_the_cube_walk_picks_what_the_greedy_walk_picks(group, monkeypatch):
    picked = []
    pick_point = RelationAlgebra.pick_point

    def recorded(self, set_cur):
        picked.append(set_cur)
        return pick_point(self, set_cur)

    monkeypatch.setattr(RelationAlgebra, "pick_point", recorded)
    walks = 0
    for auto in _insecure_levels(group):
        picked.clear()
        _backward_path(auto)
        alg = auto.algebra
        for s in picked:
            assert pick_point(alg, s) == alg._pick_greedy(s)
        walks += 1
    assert walks > 0


@pytest.mark.parametrize("group", WALK_GROUPS)
def test_the_walk_takes_the_path_of_the_preimage_walk(group):
    walks = 0
    for auto in _insecure_levels(group):
        assert _backward_path(auto) == preimage_walk(auto)
        walks += 1
    assert walks > 0


def test_the_witness_walk_adds_no_computed_table_entry():
    model = build(D_SHAPE.format(n=100), D_POLICY, bits=10)
    auto = post_star(model)
    mgr = auto.algebra.mgr
    entries = len(mgr._cache)
    w = extract_witness(auto, model)
    assert w.length == 6 * 100 + 9 and w.replay_ok
    assert len(mgr._cache) == entries
