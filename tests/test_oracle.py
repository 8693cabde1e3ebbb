import itertools

import pytest

from wherecheck import oracle, randprog
from wherecheck.cli import analyze
from wherecheck.oracle import (
    INCONCLUSIVE,
    INSECURE,
    SECURE,
    InitialState,
    OracleVerdict,
    OracleWitness,
    check_noninterference,
    check_where_security,
)
from wherecheck.modelgen import build_model
from wherecheck.parser import parse_program
from wherecheck.policy import Policy, PolicyError, gather_downgrades, input_length, parse_policy
from wherecheck.semantics import (
    DECLASS,
    DEFAULT_FUEL,
    OUTCOME_FUEL,
    OUTCOME_HALTED,
    Known,
    low_equiv_store,
    run_program,
)
from wherecheck.syntax import While
from programs import corpus, load, load_text, random_program


TWO_LEVEL = "lattice: L < H\nvar h : H\nvar l : L\n"


def layout(program, policy, bits=2, capacity=4):
    """The oracle's initial states of one check, each named by its index."""
    return oracle._Runs(program, policy, bits, capacity, DEFAULT_FUEL)


def level_pairs(runs, level):
    """The number of pairs the oracle counts at one level."""
    return oracle._Level(runs, level, "noninterference").pairs


def test_noninterference_direct_leak():
    program, policy = load_text("l := h", TWO_LEVEL)
    verdict = check_noninterference(program, policy, bits=2)
    assert verdict.status == INSECURE
    w = verdict.witness
    assert w is not None and w.level == "L"
    assert w.first.store["l"] == w.second.store["l"]
    assert w.first.store["h"] != w.second.store["h"]


def test_noninterference_constant_secure():
    program, policy = load_text("l := 0; h := h + 1", TWO_LEVEL)
    verdict = check_noninterference(program, policy, bits=2)
    assert verdict.status == SECURE
    assert verdict.witness is None
    assert verdict.pairs_checked > 0


def test_noninterference_laundering_loop():
    program, policy = load_text(
        "l := 0; while h != 0 do h := h - 1; l := l + 1 od", TWO_LEVEL
    )
    verdict = check_noninterference(program, policy, bits=2)
    assert verdict.status == INSECURE


def test_termination_leak_is_ignored():
    # h = 0 halts, h != 0 spins forever.  Only halted runs are compared, so
    # the leak through termination behaviour is invisible to both checkers.
    program, policy = load_text("while h != 0 do skip od; l := 0", TWO_LEVEL)
    assert check_noninterference(program, policy, bits=2).status == SECURE
    assert check_where_security(program, policy, bits=2).status == SECURE


def test_where_p0_secure_but_ni_insecure():
    program, policy = load("P0")
    assert check_noninterference(program, policy, bits=2).status == INSECURE
    assert check_where_security(program, policy, bits=2).status == SECURE


def test_where_p1_secure():
    program, policy = load("P1")
    assert check_where_security(program, policy, bits=2).status == SECURE


def test_where_p2_secure():
    program, policy = load("P2")
    assert check_where_security(program, policy, bits=2).status == SECURE


def test_where_p3_insecure_via_l2():
    program, policy = load("P3")
    verdict = check_where_security(program, policy, bits=2)
    assert verdict.status == INSECURE
    w = verdict.witness
    assert "l2" in w.reason
    # Both runs declassify the constant 0 at the single site.
    assert w.declass_trace_1 == [(2, 0)]
    assert w.declass_trace_2 == [(2, 0)]


def test_where_p4_secure_under_positional_pairing():
    # Mixed-branch pairs always declassify different values (a nonzero h1
    # against the zeroed h2), so they fail the premise; same-branch pairs
    # end with identical l.  The exhaustive check therefore finds nothing.
    program, policy = load("P4")
    verdict = check_where_security(program, policy, bits=2)
    assert verdict.status == SECURE


def test_where_p5_insecure_dead_declass():
    program, policy = load("P5")
    verdict = check_where_security(program, policy, bits=2)
    assert verdict.status == INSECURE
    assert verdict.witness.declass_trace_1 == []


def test_where_p6_secure():
    program, policy = load("P6")
    assert check_where_security(program, policy, bits=2).status == SECURE


def test_where_p7_secure():
    program, policy = load("P7")
    assert check_where_security(program, policy, bits=2).status == SECURE


def test_clause_a_post_state_divergence():
    # h = 2 against h = 0 declassifies 0 on both sides from observably equal
    # pre-states, but each branch writes a different target variable, so the
    # post-states differ when l starts nonzero.
    program, policy = load_text(
        "if h then l := declass(h & 1) else l2 := declass(h & 1) fi; "
        "l := 0; l2 := 0",
        "lattice: L < H\nvar h : H\nvar l : L\nvar l2 : L\n",
    )
    verdict = check_where_security(program, policy, bits=2)
    assert verdict.status == INSECURE
    # Finals are scrubbed, so only the mid-trace comparison can catch it.
    assert "downgrade" in verdict.witness.reason


def test_unequal_declass_counts_unconstrained():
    # One run declassifies h twice, the other once; such pairs are exempt,
    # and the equal-count pairs (h = h') carry no difference.
    program, policy = load_text(
        "if h then l := declass(h) else skip fi; l := declass(h)", TWO_LEVEL
    )
    assert check_where_security(program, policy, bits=2).status == SECURE


def test_repeated_site_value_sequence_mismatch():
    # Known oracle/model divergence: the loop revisits one site with varying
    # values.  Positional pairing constrains the whole sequence, so h = 0
    # against h = 2 satisfies the premise (0&1, 1&1) = (0, 1) on both sides
    # yet ends with l = h < 2 differing.
    program, policy = load_text(
        "i := 0; while i < 2 do l := declass(h & 1); h := h + 1; i := i + 1 od; "
        "l := h < 2",
        "lattice: L < H\nvar h : H\nvar i : L\nvar l : L\n",
    )
    verdict = check_where_security(program, policy, bits=2)
    assert verdict.status == INSECURE


def test_high_input_channel_leak():
    program, policy = load_text(
        "input(x, hin); l := x",
        "lattice: L < H\nvar x : H\nvar l : L\nchannel hin : H input\n",
    )
    assert check_noninterference(program, policy, bits=2).status == INSECURE


def test_low_input_channel_shared():
    program, policy = load_text(
        "input(x, lin); l := x",
        "lattice: L < H\nvar x : L\nvar l : L\nchannel lin : L input\n",
    )
    assert check_noninterference(program, policy, bits=2).status == SECURE


def test_low_output_mismatch_detected():
    program, policy = load_text(
        "output(h, out)",
        "lattice: L < H\nvar h : H\nchannel out : L output\n",
    )
    verdict = check_noninterference(program, policy, bits=2)
    assert verdict.status == INSECURE
    assert "out" in verdict.witness.reason


def test_high_output_invisible():
    program, policy = load_text(
        "output(h, hout)",
        "lattice: L < H\nvar h : H\nchannel hout : H output\n",
    )
    assert check_noninterference(program, policy, bits=2).status == SECURE


def test_three_level_lattice_intermediate_observer():
    pol = "lattice: L < M\nlattice: M < H\nvar h : H\nvar m : M\nvar l : L\n"
    program, policy = load_text("m := h", pol)
    verdict = check_noninterference(program, policy, bits=1)
    assert verdict.status == INSECURE
    assert verdict.witness.level == "M"
    # The L observer alone would accept this program.
    program2, policy2 = load_text("l := m", pol)
    verdict2 = check_noninterference(program2, policy2, bits=1)
    assert verdict2.status == INSECURE
    assert verdict2.witness.level == "L"


def test_budget_exhaustion_is_inconclusive():
    program, policy = load("P3")
    verdict = check_where_security(program, policy, bits=3, budget=4)
    assert verdict.status == INCONCLUSIVE
    assert verdict.note


def test_a_scan_past_the_budget_is_inconclusive():
    # Level H sees everything (16 pairs); level L's first violation is its
    # 50th pair: l = 3, h = 0 against l = 3, h = 1.
    program, policy = load_text("if l == 3 then l := h else skip fi", TWO_LEVEL)
    full = check_noninterference(program, policy, bits=2)
    assert (full.status, full.pairs_checked) == (INSECURE, 16 + 50)
    assert check_noninterference(program, policy, bits=2, budget=50) == full
    cut = check_noninterference(program, policy, bits=2, budget=49)
    assert (cut.status, cut.pairs_checked) == (INCONCLUSIVE, 16 + 49)
    assert cut.note == "budget-exceeded: level L scanned 49 pairs"


@pytest.mark.parametrize("seed", [133, 262])
def test_the_budget_counts_states_not_the_pairs_of_clean_levels(seed):
    # Both programs have more pairs than the default budget, and far fewer
    # states; 133 is secure, 262 insecure.
    _, program, policy = random_program(seed, io=True)
    runs = layout(program, policy, bits=3, capacity=8)
    pairs = sum(level_pairs(runs, level) for level in policy.domains)
    assert pairs > oracle.DEFAULT_PAIR_BUDGET
    verdict = check_where_security(program, policy, bits=3, capacity=8)
    assert verdict.status != INCONCLUSIVE
    assert verdict.status == analyze(program, policy, bits=3, capacity=8).overall


def test_witness_is_lexicographically_first():
    program, policy = load_text("l := h", TWO_LEVEL)
    v1 = check_noninterference(program, policy, bits=2)
    v2 = check_noninterference(program, policy, bits=2)
    assert v1.witness.first == v2.witness.first
    assert v1.witness.second == v2.witness.second
    # Smallest differing pair: l = 0 shared, h = 0 versus h = 1, each store
    # listing its observable variables first.
    assert list(v1.witness.first.store.items()) == [("l", 0), ("h", 0)]
    assert list(v1.witness.second.store.items()) == [("l", 0), ("h", 1)]


def test_channel_facts_and_input_length():
    program = parse_program(
        "input(x, a); while x do input(x, a); input(y, b) od; output(x, o); output(y, c)"
    )
    assert program.input_channels == ("a", "b")
    assert program.output_channels == ("c", "o")
    # The input in the loop body counts once, however often the loop runs.
    assert program.input_counts == {"a": 2, "b": 1}
    policy = parse_policy(
        "lattice: L < H\nvar x : L\nvar y : L\nchannel a : L input\n"
        "channel b : L input length 3\nchannel o : L output\nchannel c : L output\n"
        "channel z : L input\n"
    )
    policy = gather_downgrades(program, policy)
    # A declared length ignores the floor.
    assert [input_length(program, policy, "b", floor) for floor in (0, 2, 5)] == [3, 3, 3]
    # An undeclared length is the larger of the floor and the channel's input statements.
    assert [input_length(program, policy, "a", floor) for floor in (0, 1, 2, 4)] == [2, 2, 2, 4]
    assert [input_length(program, policy, "z", floor) for floor in (0, 3)] == [0, 3]
    # The oracle's floor is 0 and the model's its capacity.
    assert layout(program, policy, capacity=4).lengths == [2, 3]
    model = build_model(program, policy, "L", bits=2, capacity=4)
    assert [spec.length for spec in model.inputs] == [4, 3]
    assert [spec.name for spec in model.outputs] == ["c", "o"]


@pytest.mark.parametrize("check", [check_where_security, check_noninterference])
def test_a_policy_that_does_not_cover_the_program_is_rejected(check):
    # As build_model does: the channel i has no declaration.
    program = parse_program("input(l, i); l := h")
    with pytest.raises(PolicyError, match="'i'"):
        check(program, parse_policy(TWO_LEVEL), bits=1)
    with pytest.raises(PolicyError, match="'i'"):
        build_model(program, parse_policy(TWO_LEVEL), "L", bits=1)


def test_where_implies_relaxation_of_ni():
    # Any program that never declassifies must get identical verdicts.
    for text in ("l := 0", "l := h", "l := 0; while h != 0 do h := h - 1; l := l + 1 od"):
        program, policy = load_text(text, TWO_LEVEL)
        ni = check_noninterference(program, policy, bits=2)
        wh = check_where_security(program, policy, bits=2)
        assert ni.status == wh.status


# ---------------------------------------------------------------------------
# The pairwise checker the memoised oracle replaced: two fresh runs per pair,
# compared on full traces.  Every verdict of the oracle must equal its own.


def low_equiv_channels(
    contents1: dict[str, tuple[int, ...]],
    index1: dict[str, int],
    contents2: dict[str, tuple[int, ...]],
    index2: dict[str, int],
    level: str,
    policy: Policy,
) -> bool:
    """Channel states agree at the observer level.

    Observable channels need equal indices and an equal consumed/produced
    prefix; channels above the observer are vacuously equivalent.
    """
    for name in set(index1) | set(index2):
        if not policy.observable(name, level):
            continue
        i1, i2 = index1.get(name, 0), index2.get(name, 0)
        if i1 != i2:
            return False
        if contents1.get(name, ())[:i1] != contents2.get(name, ())[:i2]:
            return False
    return True


def _ref_declass_records(trace):
    records = []
    view = trace.table.view
    for idx, (key, label) in enumerate(trace.entries):
        if label.kind == DECLASS:
            pre = view(trace.entries[idx - 1][0] if idx > 0 else trace.start).mu
            records.append((label.site.id, label.value, pre, view(key).mu))
    return records


def _ref_final_mismatch(policy, level, trace1, trace2):
    f1, f2 = trace1.final, trace2.final
    if not low_equiv_store(f1.mu, f2.mu, level, policy):
        diffs = [
            f"{n}: {f1.mu.get(n)} vs {f2.mu.get(n)}"
            for n in sorted(set(f1.mu) | set(f2.mu))
            if policy.observable(n, level) and f1.mu.get(n) != f2.mu.get(n)
        ]
        return "final store differs on " + ", ".join(diffs)
    # A stream's length is its write index.
    q1 = {name: len(stream) for name, stream in f1.outs.items()}
    q2 = {name: len(stream) for name, stream in f2.outs.items()}
    if not low_equiv_channels(f1.outs, q1, f2.outs, q2, level, policy):
        diffs = []
        for name in sorted(set(q1) | set(q2)):
            if not policy.observable(name, level):
                continue
            if q1.get(name, 0) != q2.get(name, 0) or f1.outs.get(
                name, ()
            ) != f2.outs.get(name, ()):
                diffs.append(
                    f"{name}: {list(f1.outs.get(name, ()))} vs {list(f2.outs.get(name, ()))}"
                )
        return "final outputs differ on " + ", ".join(diffs)
    return None


def _ref_violation(policy, level, property_name, trace1, trace2):
    if property_name == "noninterference":
        return _ref_final_mismatch(policy, level, trace1, trace2)
    rec1 = _ref_declass_records(trace1)
    rec2 = _ref_declass_records(trace2)
    for k, ((s1, v1, pre1, post1), (s2, v2, pre2, post2)) in enumerate(zip(rec1, rec2)):
        if (
            low_equiv_store(pre1, pre2, level, policy)
            and v1 == v2
            and not low_equiv_store(post1, post2, level, policy)
        ):
            return (
                f"downgrade pair {k} (sites g{s1}/g{s2}, value {v1}) breaks "
                "observable equivalence of the post-states"
            )
    if len(rec1) != len(rec2):
        return None
    if any(v1 != v2 for (_, v1, _, _), (_, v2, _, _) in zip(rec1, rec2)):
        return None
    return _ref_final_mismatch(policy, level, trace1, trace2)


def reference_check(program, policy, property_name, bits, capacity, fuel=DEFAULT_FUEL):
    lengths = _ref_lengths(program, policy)
    saw_fuel_limit = False
    pairs_checked = 0
    for level in sorted(policy.domains):
        for first, second in _ref_enumerate_pairs(program, policy, level, bits, lengths):
            pairs_checked += 1
            trace1 = run_program(program, policy, first.store, first.inputs, bits, capacity, fuel)
            trace2 = run_program(program, policy, second.store, second.inputs, bits, capacity, fuel)
            if OUTCOME_FUEL in (trace1.outcome, trace2.outcome):
                saw_fuel_limit = True
                continue
            if trace1.outcome != OUTCOME_HALTED or trace2.outcome != OUTCOME_HALTED:
                continue
            reason = _ref_violation(policy, level, property_name, trace1, trace2)
            if reason is not None:
                witness = OracleWitness(
                    level, first, second, reason,
                    trace1.declass_events(), trace2.declass_events(),
                )
                return OracleVerdict(property_name, INSECURE, witness, pairs_checked)
    if saw_fuel_limit:
        return OracleVerdict(
            property_name, INCONCLUSIVE, pairs_checked=pairs_checked,
            note="nonterminating-within-budget run encountered",
        )
    return OracleVerdict(property_name, SECURE, pairs_checked=pairs_checked)


def assert_matches_reference(program, policy, bits, capacity, fuel=DEFAULT_FUEL):
    for name, check in (
        ("noninterference", check_noninterference),
        ("where-security", check_where_security),
    ):
        got = check(program, policy, bits=bits, capacity=capacity, fuel=fuel)
        assert got == reference_check(program, policy, name, bits, capacity, fuel), name


@pytest.mark.parametrize("io", [False, True], ids=["plain", "io"])
@pytest.mark.parametrize("seed", range(60))
def test_matches_pairwise_reference_on_randprog(seed, io):
    _, program, policy = random_program(seed, io)
    assert_matches_reference(program, policy, bits=2, capacity=4)


@pytest.mark.parametrize("name", [f"P{i}" for i in range(8)])
def test_matches_pairwise_reference_on_table3(name):
    program, policy = load(name)
    assert_matches_reference(program, policy, bits=2, capacity=4)


HAND_WRITTEN = {
    # Only the mid-trace comparison of paired downgrades can catch this one.
    "clause-a": (
        "if h then l := declass(h & 1) else l2 := declass(h & 1) fi; l := 0; l2 := 0",
        "lattice: L < H\nvar h : H\nvar l : L\nvar l2 : L\n",
    ),
    "unequal-counts": ("if h then l := declass(h) else skip fi; l := declass(h)", TWO_LEVEL),
    "repeated-site": (
        "i := 0; while i < 2 do l := declass(h & 1); h := h + 1; i := i + 1 od; l := h < 2",
        "lattice: L < H\nvar h : H\nvar i : L\nvar l : L\n",
    ),
    "three-level": (
        "m := h; l := declass(m & 1)",
        "lattice: L < M\nlattice: M < H\nvar h : H\nvar m : M\nvar l : L\n",
    ),
    "channels": (
        "input(x, lin); input(y, hin); output(x + y, out); l := declass(y & 1)",
        "lattice: L < H\nvar x : L\nvar y : H\nvar l : L\n"
        "channel lin : L input\nchannel hin : H input\nchannel out : L output\n",
    ),
}


@pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
def test_matches_pairwise_reference_on_hand_written(name):
    program, policy = load_text(*HAND_WRITTEN[name])
    assert_matches_reference(program, policy, bits=2, capacity=4)


@pytest.mark.parametrize("seed", [262, 295])
def test_matches_pairwise_reference_on_a_bits_3_scan(seed):
    # Each scans a violated level at bits 3 and capacity 8: 4,098 and 4,609
    # pairs checked.
    _, program, policy = random_program(seed, io=True)
    assert_matches_reference(program, policy, bits=3, capacity=8)


def _ref_lengths(program, policy):
    """Each input channel's length in the oracle: floor 0."""
    return {ch: input_length(program, policy, ch) for ch in program.input_channels}


def _ref_enumerate_pairs(program, policy, level, bits, input_lengths):
    """One loop per component, outermost first: the order ``_enumerate_pairs`` keeps."""
    values = range(1 << bits)
    names = list(program.variables)
    low_vars = [n for n in names if policy.observable(n, level)]
    high_vars = [n for n in names if not policy.observable(n, level)]
    in_channels = program.input_channels
    low_ch = [n for n in in_channels if policy.observable(n, level)]
    high_ch = [n for n in in_channels if not policy.observable(n, level)]

    def channel_space(chans):
        return [
            [tuple(c) for c in itertools.product(values, repeat=input_lengths.get(ch, 0))]
            for ch in chans
        ]

    low_ch_space = channel_space(low_ch)
    high_ch_space = channel_space(high_ch)
    for low_vals in itertools.product(values, repeat=len(low_vars)):
        for high1 in itertools.product(values, repeat=len(high_vars)):
            for high2 in itertools.product(values, repeat=len(high_vars)):
                for low_contents in itertools.product(*low_ch_space):
                    for hc1 in itertools.product(*high_ch_space):
                        for hc2 in itertools.product(*high_ch_space):
                            store1 = dict(zip(low_vars, low_vals)) | dict(zip(high_vars, high1))
                            store2 = dict(zip(low_vars, low_vals)) | dict(zip(high_vars, high2))
                            ins1 = dict(zip(low_ch, low_contents)) | dict(zip(high_ch, hc1))
                            ins2 = dict(zip(low_ch, low_contents)) | dict(zip(high_ch, hc2))
                            yield InitialState(store1, ins1), InitialState(store2, ins2)


def _ref_all_states(program, bits, input_lengths):
    """Every initial state as (store, inputs), one nested product per part:
    the order of the oracle's state indices."""
    values = range(1 << bits)
    names = list(program.variables)
    in_channels = program.input_channels
    contents = [
        list(itertools.product(values, repeat=input_lengths.get(ch, 0))) for ch in in_channels
    ]
    for store in itertools.product(values, repeat=len(names)):
        for ins in itertools.product(*contents):
            yield dict(zip(names, store)), dict(zip(in_channels, ins))


def _keys(runs, pairs):
    """Each pair of initial states as two state indices of ``runs``."""
    program = runs.program

    def key(store, inputs):
        return (
            tuple(store[n] for n in program.variables),
            tuple(inputs[n] for n in program.input_channels),
        )

    index = {key(*runs.state(i)): i for i in range(runs.count)}
    return [
        (index[key(first.store, first.inputs)], index[key(second.store, second.inputs)])
        for first, second in pairs
    ]


LAYOUT_CASES = ["channels", "iobench/B4", "two-by-two"]


def _layout_case(case):
    if case == "channels":
        return load_text(*HAND_WRITTEN["channels"])
    if case == "iobench/B4":
        return load("B4", "iobench")
    return load_text(
        "h1 := l1 + h2; l2 := declass(h1 & 1)",
        "lattice: L < H\nvar l1 : L\nvar l2 : L\nvar h1 : H\nvar h2 : H\n",
    )


@pytest.mark.parametrize("bits", [1, 2])
@pytest.mark.parametrize("case", LAYOUT_CASES)
def test_state_indices_decode_in_nested_product_order(case, bits):
    program, policy = _layout_case(case)
    runs = layout(program, policy, bits)
    lengths = _ref_lengths(program, policy)
    assert [runs.state(i) for i in range(runs.count)] == list(
        _ref_all_states(program, bits, lengths)
    )


@pytest.mark.parametrize("bits", [1, 2])
@pytest.mark.parametrize("case", LAYOUT_CASES)
def test_pair_order_matches_the_nested_loop_reference(case, bits):
    program, policy = _layout_case(case)
    runs = layout(program, policy, bits)
    lengths = _ref_lengths(program, policy)
    for level in sorted(policy.domains):
        view = oracle._Level(runs, level, "noninterference")
        got = list(view.pair_order())
        reference = _ref_enumerate_pairs(program, policy, level, bits, lengths)
        assert got == _keys(runs, reference), level
        assert len(got) == view.pairs


def test_fuel_exhausted_secure_program_is_inconclusive():
    program, policy = load_text("l := 0; while h != 0 do h := h - 1 od", TWO_LEVEL)
    assert check_where_security(program, policy, bits=2, fuel=13).status == SECURE
    verdict = check_where_security(program, policy, bits=2, fuel=8)
    assert verdict.status == INCONCLUSIVE
    assert verdict.pairs_checked == 80
    assert verdict.note == "nonterminating-within-budget run encountered"
    assert_matches_reference(program, policy, bits=2, capacity=4, fuel=8)


def test_fuel_exhausted_runs_do_not_hide_a_violation():
    program, policy = load_text("l := h; while h != 0 do h := h - 1 od", TWO_LEVEL)
    assert run_program(program, policy, {"h": 3}, bits=2, fuel=8).outcome == OUTCOME_FUEL
    verdict = check_where_security(program, policy, bits=2, fuel=8)
    assert verdict.status == INSECURE
    assert verdict.pairs_checked == 18
    assert_matches_reference(program, policy, bits=2, capacity=4, fuel=8)


def test_one_run_per_initial_state_across_levels(monkeypatch):
    program, policy = load_text(
        "input(x, lin); m := x + m; x := declass(h & 1)",
        "lattice: L < M\nlattice: M < H\nvar h : H\nvar m : M\nvar x : L\n"
        "channel lin : L input\n",
    )
    started = _count_runs(monkeypatch)
    verdict = check_where_security(program, policy, bits=2)
    assert verdict.status == SECURE
    runs = layout(program, policy)
    assert verdict.pairs_checked == sum(level_pairs(runs, level) for level in policy.domains)
    # Three variables and one input cell of 2 bits each.
    assert len(started) == len(set(started)) == 4**4


# ---------------------------------------------------------------------------
# Shared futures: a run that meets a configuration of an earlier run of the
# same check takes the rest of that run (``semantics.run``).  A run that
# shares a ``Known`` lists no steps, but its summary must equal that of a
# run on its own: the outcome always, and for a halted run its final
# observables and downgrades too, each downgrade at the same index in the
# run, and the declassified values that ``declass_events`` reads off its
# downgrades, its own and those it joined.


def initial_states(program, policy, bits=2):
    """(store, inputs) of every initial state, in the oracle's order."""
    runs = layout(program, policy, bits)
    return [runs.state(i) for i in range(runs.count)]


def _downgrade_record(trace):
    view = trace.table.view
    return [(k, view(pre).mu, view(post).mu, label) for k, pre, post, label in trace.downgrades]


def assert_shared_runs_exact(program, policy, fuels, bits=2, capacity=4):
    states = initial_states(program, policy, bits)
    for fuel in fuels:
        for order in (states, states[::-1]):
            known = Known(program)
            for store, inputs in order:
                args = (program, policy, store, inputs, bits, capacity, fuel)
                shared, alone = run_program(*args, known), run_program(*args)
                assert shared.entries == [], (fuel, store, inputs)  # a shared run lists no step
                assert shared.outcome == alone.outcome, (fuel, store, inputs)
                if alone.outcome == OUTCOME_HALTED:
                    assert (shared.final.mu, shared.final.outs) == (
                        alone.final.mu, alone.final.outs,
                    ), (fuel, store, inputs)
                    assert _downgrade_record(shared) == _downgrade_record(alone), (
                        fuel, store, inputs,
                    )
                    assert shared.declass_events() == alone.declass_events(), (fuel, store, inputs)


@pytest.mark.parametrize("io", [False, True], ids=["plain", "io"])
@pytest.mark.parametrize("seed", range(0, 400, 7))
def test_shared_runs_match_runs_alone_on_randprog(seed, io):
    _, program, policy = random_program(seed, io)
    assert_shared_runs_exact(program, policy, (3, 6, 11, DEFAULT_FUEL))


def test_shared_runs_match_runs_alone_entering_a_cycle_anywhere():
    # A tail of h steps, then a cycle through every value of l: the runs
    # enter the cycle at every point, after tails of every length, and the
    # fuels cut them before, inside and after their first lap.
    program, policy = load_text(
        "while h != 0 do h := h - 1 od; while 1 do l := l + 1 od", TWO_LEVEL
    )
    assert_shared_runs_exact(program, policy, range(1, 40))


def test_one_check_steps_each_distinct_configuration_once(monkeypatch):
    from wherecheck import semantics

    # Every run sets x first, so the 64 initial states share their futures.
    program, policy = load_text(
        "x := 0; l := declass(h & 1); while x < 2 do x := x + 1 od",
        "lattice: L < H\nvar h : H\nvar l : L\nvar x : L\n",
    )
    distinct, total = set(), 0
    for store, inputs in initial_states(program, policy):
        trace = run_program(program, policy, store, inputs, bits=2)
        stepped = [trace.start] + [key for key, _ in trace.entries[:-1]]
        total += len(stepped)
        distinct.update(stepped)
    steps = []

    def counted(key, *args):
        steps.append(key)
        return real(key, *args)

    real = semantics.step_point
    monkeypatch.setattr(semantics, "step_point", counted)
    assert check_where_security(program, policy, bits=2).status == SECURE
    assert len(steps) == len(distinct) < total


# ---------------------------------------------------------------------------
# A level with one initial state per low class builds no observations: each
# of its pairs is a state with itself (``oracle`` part 1).


def _count_bucket_passes(monkeypatch):
    passes = []

    def counted(view):
        passes.append(view)
        return real(view)

    real = oracle._Level.conflict
    monkeypatch.setattr(oracle._Level, "conflict", counted)
    return passes


def test_a_bottom_level_program_out_of_fuel_stays_inconclusive(monkeypatch):
    program, policy = load_text(
        "i := 0; while i < 3 do i := i + 1; l := l + 1 od",
        "lattice: L < H\nvar i : L\nvar l : L\n",
    )
    passes = _count_bucket_passes(monkeypatch)
    verdict = check_where_security(program, policy, bits=2, capacity=4, fuel=5)
    assert (verdict.status, verdict.pairs_checked) == (INCONCLUSIVE, 16 + 16)
    assert passes == []
    assert_matches_reference(program, policy, bits=2, capacity=4, fuel=5)


@pytest.mark.parametrize("length", [0, 1])
def test_an_unobservable_input_takes_the_shortcut_only_when_empty(monkeypatch, length):
    program, policy = load_text(
        "input(l, hin)",
        f"lattice: L < H\nvar l : L\nchannel hin : H input length {length}\n",
    )
    passes = _count_bucket_passes(monkeypatch)
    verdict = check_noninterference(program, policy, bits=2, capacity=4)
    assert verdict.status == (SECURE if length == 0 else INSECURE)
    assert len(passes) == length  # level L's, when hin has a cell
    assert_matches_reference(program, policy, bits=2, capacity=4)


def _count_runs(monkeypatch):
    """The start key of each run the oracle starts, in order."""
    started = []

    def counted(*args, start, **kwargs):
        started.append(start)
        return run_program(*args, start=start, **kwargs)

    monkeypatch.setattr(oracle, "run_program", counted)
    return started


def test_a_shortcut_level_makes_no_run_of_its_own(monkeypatch):
    # Level H takes the shortcut; level L's bucket pass stops at its fifth
    # state and its scan at its second pair, whose two states the pass ran.
    program, policy = load_text("l := h", TWO_LEVEL)
    started = _count_runs(monkeypatch)
    verdict = check_noninterference(program, policy, bits=2)
    assert (verdict.status, verdict.pairs_checked) == (INSECURE, 16 + 2)
    assert len(started) == len(set(started)) == 5


def test_a_secure_check_with_a_shortcut_level_runs_every_state(monkeypatch):
    # Both levels take the shortcut, so every state runs in the final check
    # for a run out of fuel, once.
    program, policy = load_text(
        "i := 0; while i < 3 do i := i + 1; l := l + 1 od",
        "lattice: L < H\nvar i : L\nvar l : L\n",
    )
    started = _count_runs(monkeypatch)
    verdict = check_where_security(program, policy, bits=2, capacity=4)
    assert (verdict.status, verdict.pairs_checked) == (SECURE, 16 + 16)
    assert len(started) == len(set(started)) == 16


# Without a ``while`` no run can run out of fuel once the fuel covers
# 2 * len(program.flow) iterations, so a secure check runs no final sweep
# (``oracle`` part 1).

IF_PROGRAM = "l := 1; if l then l := 2 else skip fi"  # 4 sites: the bound is 8
IF_POLICY = "lattice: L < H\nvar l : L\n"


@pytest.mark.parametrize("check", [check_noninterference, check_where_security])
def test_a_secure_check_without_a_loop_makes_no_run(monkeypatch, check):
    # Both levels take the shortcut, so no level makes a run of its own.
    program, policy = load_text("l := l + 1; m := l", "lattice: L < H\nvar l : L\nvar m : L\n")
    started = _count_runs(monkeypatch)
    verdict = check(program, policy, bits=2)
    assert (verdict.status, verdict.pairs_checked, verdict.note) == (SECURE, 16 + 16, "")
    assert started == []


@pytest.mark.parametrize("fuel", range(1, 11))
@pytest.mark.parametrize("check", [check_noninterference, check_where_security])
def test_the_sweep_runs_only_below_the_bound(monkeypatch, check, fuel):
    # A lone run of IF_PROGRAM ends at its fifth iteration, index 4.
    program, policy = load_text(IF_PROGRAM, IF_POLICY)
    started = _count_runs(monkeypatch)
    verdict = check(program, policy, bits=2, fuel=fuel)
    if fuel <= 4:
        expected = (INCONCLUSIVE, 4 + 4, "nonterminating-within-budget run encountered", 1)
    else:
        expected = (SECURE, 4 + 4, "", 4 if fuel < 8 else 0)
    assert (verdict.status, verdict.pairs_checked, verdict.note, len(started)) == expected


# The benchmark's randprog-sweep inputs (perfbench/workloads.py): seeds
# 0-99, odd seeds with I/O, and I/O seeds 113, 135 and 141.
BENCHMARK_SEEDS = [(seed, seed % 2 == 1) for seed in range(100)] + [
    (113, True), (135, True), (141, True),
]


def test_the_oracle_does_pinned_work_on_the_benchmark_programs(monkeypatch):
    # At bits 2 and capacity 4: the runs and interpreter steps the oracle
    # made when a configuration was three dicts, so holding it as a key
    # changed what a step costs, not how many there are.
    from wherecheck import semantics

    started, steps = _count_runs(monkeypatch), []

    def counted(key, *args):
        steps.append(key)
        return real(key, *args)

    real = semantics.step_point
    monkeypatch.setattr(semantics, "step_point", counted)
    verdicts = []
    for seed, io in BENCHMARK_SEEDS:
        _, program, policy = random_program(seed, io)
        verdict = check_where_security(program, policy, bits=2, capacity=4)
        verdicts.append((verdict.status, verdict.pairs_checked))
    assert (len(started), len(steps)) == (1731, 6612)
    statuses = [status for status, _ in verdicts]
    assert (statuses.count(SECURE), statuses.count(INSECURE)) == (82, 21)
    assert sum(pairs for _, pairs in verdicts) == 14478


@pytest.mark.parametrize("io", [False, True], ids=["plain", "io"])
def test_the_oracle_decides_randprog_seeds(io):
    # Seeds 0-99 at bits 2 and capacity 4: every run ends within the default
    # fuel, so neither check is inconclusive.
    for seed in range(100):
        _, program, policy = random_program(seed, io)
        for check in (check_where_security, check_noninterference):
            verdict = check(program, policy, bits=2, capacity=4)
            assert verdict.status != INCONCLUSIVE, (seed, check.__name__, verdict.note)


@pytest.mark.parametrize("fuel", [4, 8])
def test_the_bound_holds_against_the_reference(fuel):
    program, policy = load_text(IF_PROGRAM, IF_POLICY)
    assert_matches_reference(program, policy, bits=2, capacity=4, fuel=fuel)


def test_every_lone_run_without_a_loop_ends_within_the_bound():
    # Both corpora at capacity 8 and randprog seeds 0-399, with and without
    # I/O, at capacity 4, all at bits 2: every initial state of every program
    # without a while.
    checked = 0
    for group in SHORTCUT_GROUPS:
        for name, text, pol, capacity in _shortcut_cases(group):
            program, policy = load_text(text, pol)
            if While in map(type, program.sites):
                continue
            runs = layout(program, policy, capacity=capacity)
            for i in range(runs.count):
                trace = run_program(program, policy, *runs.state(i), 2, capacity)
                assert len(trace.entries) <= 2 * len(program.flow), (name, i)
            checked += 1
    assert checked > 500


def test_a_run_leaves_the_shared_start_as_it_found_it():
    # The runs of one Known start from keys of one table; the first run
    # writes an output and reads an input.
    program, policy = load_text(
        "input(x, i); output(x, o)",
        "lattice: L < H\nvar x : L\nchannel i : L input length 1\nchannel o : L output\n",
    )
    known = Known(program)
    first = run_program(program, policy, {}, {"i": (3,)}, bits=2, known=known)
    assert (first.final.outs, first.final.p) == ({"o": (3,)}, {"i": 1})
    second = run_program(program, policy, {}, {"i": (2,)}, bits=2, known=known)
    assert (second.initial.outs, second.initial.p) == ({"o": ()}, {"i": 0})
    assert (second.final.outs, second.final.p) == ({"o": (2,)}, {"i": 1})


# The shortcut against the bucket pass it skips, on both corpora at bits 2 /
# capacity 8 and randprog seeds 0-399 with and without I/O at bits 2 /
# capacity 4: on every level that takes it, the pass finds no conflict.

SHORTCUT_GROUPS = ("table3", "iobench", "randprog", "randprog-io")


def _shortcut_cases(group):
    """(name, program text, policy text, capacity) of one group."""
    if group in ("table3", "iobench"):
        for name, text, pol in corpus(group):
            yield f"{group}/{name}", text, pol, 8
        return
    io = group == "randprog-io"
    for seed in range(400):
        gen = randprog.generate(seed, randprog.GenConfig(io=io))
        yield f"randprog/{seed}{'io' if io else ''}", gen.text, gen.policy_text, 4


# The bucket pass starts each state's run from the product of its digits
# (``_Runs.starts``), not from its index; both must name the same key.


@pytest.mark.parametrize("group", ["table3", "iobench", "randprog-io"])
def test_the_bucket_pass_starts_each_state_from_its_index(monkeypatch, group):
    started, cells = _count_runs(monkeypatch), 0
    for name, text, pol, capacity in _shortcut_cases(group):
        program, policy = load_text(text, pol)
        runs = layout(program, policy, capacity=capacity)
        expected = [runs.known.table.start(*runs.values(i)) for i in range(runs.count)]
        assert list(runs.starts()) == expected, name
        cells += sum(runs.lengths)
        for level in sorted(policy.domains):
            runs, started[:] = layout(program, policy, capacity=capacity), []
            oracle._Level(runs, level, "where-security").conflict()
            # State i ran i-th, from its own start key.
            assert started == expected[: len(started)], (name, level)
            assert sorted(runs.endings) == list(range(len(started))), (name, level)
    assert cells or group == "table3"  # input cells are digits too


@pytest.mark.parametrize("group", SHORTCUT_GROUPS)
def test_the_bucket_pass_finds_no_conflict_where_the_shortcut_is_taken(group):
    taken = 0
    for name, text, pol, capacity in _shortcut_cases(group):
        program, policy = load_text(text, pol)
        runs = layout(program, policy, capacity=capacity)
        for level in sorted(policy.domains):
            if level_pairs(runs, level) != runs.count:
                continue
            taken += 1
            for prop in ("noninterference", "where-security"):
                assert not oracle._Level(runs, level, prop).conflict(), (name, level, prop)
    assert taken
