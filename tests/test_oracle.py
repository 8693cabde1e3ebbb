import itertools
from pathlib import Path

import pytest

from wherecheck import oracle, randprog
from wherecheck.oracle import (
    INCONCLUSIVE,
    INSECURE,
    SECURE,
    InitialState,
    OracleVerdict,
    OracleWitness,
    _enumerate_pairs,
    _pair_count,
    check_noninterference,
    check_where_security,
    default_input_lengths,
    static_input_counts,
)
from wherecheck.parser import parse_program
from wherecheck.policy import Policy, gather_downgrades, parse_policy
from wherecheck.semantics import (
    DECLASS,
    DEFAULT_FUEL,
    OUTCOME_FUEL,
    OUTCOME_HALTED,
    Known,
    low_equiv_store,
    run_program,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "table3"


def load(name: str):
    program = parse_program((CORPUS / name).read_text())
    policy = parse_policy((CORPUS / f"{name}.policy").read_text())
    return program, gather_downgrades(program, policy)


def prog(text: str, pol: str):
    program = parse_program(text)
    policy = parse_policy(pol)
    return program, gather_downgrades(program, policy)


TWO_LEVEL = "lattice: L < H\nvar h : H\nvar l : L\n"


def test_noninterference_direct_leak():
    program, policy = prog("l := h", TWO_LEVEL)
    verdict = check_noninterference(program, policy, bits=2)
    assert verdict.status == INSECURE
    w = verdict.witness
    assert w is not None and w.level == "L"
    assert w.first.store["l"] == w.second.store["l"]
    assert w.first.store["h"] != w.second.store["h"]


def test_noninterference_constant_secure():
    program, policy = prog("l := 0; h := h + 1", TWO_LEVEL)
    verdict = check_noninterference(program, policy, bits=2)
    assert verdict.status == SECURE
    assert verdict.witness is None
    assert verdict.pairs_checked > 0


def test_noninterference_laundering_loop():
    program, policy = prog(
        "l := 0; while h != 0 do h := h - 1; l := l + 1 od", TWO_LEVEL
    )
    verdict = check_noninterference(program, policy, bits=2)
    assert verdict.status == INSECURE


def test_termination_leak_is_ignored():
    # h = 0 halts, h != 0 spins forever.  Only halted runs are compared, so
    # the leak through termination behaviour is invisible to both checkers.
    program, policy = prog("while h != 0 do skip od; l := 0", TWO_LEVEL)
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
    program, policy = prog(
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
    program, policy = prog(
        "if h then l := declass(h) else skip fi; l := declass(h)", TWO_LEVEL
    )
    assert check_where_security(program, policy, bits=2).status == SECURE


def test_repeated_site_value_sequence_mismatch():
    # Known oracle/model divergence: the loop revisits one site with varying
    # values.  Positional pairing constrains the whole sequence, so h = 0
    # against h = 2 satisfies the premise (0&1, 1&1) = (0, 1) on both sides
    # yet ends with l = h < 2 differing.
    program, policy = prog(
        "i := 0; while i < 2 do l := declass(h & 1); h := h + 1; i := i + 1 od; "
        "l := h < 2",
        "lattice: L < H\nvar h : H\nvar i : L\nvar l : L\n",
    )
    verdict = check_where_security(program, policy, bits=2)
    assert verdict.status == INSECURE


def test_high_input_channel_leak():
    program, policy = prog(
        "input(x, hin); l := x",
        "lattice: L < H\nvar x : H\nvar l : L\nchannel hin : H input\n",
    )
    assert check_noninterference(program, policy, bits=2).status == INSECURE


def test_low_input_channel_shared():
    program, policy = prog(
        "input(x, lin); l := x",
        "lattice: L < H\nvar x : L\nvar l : L\nchannel lin : L input\n",
    )
    assert check_noninterference(program, policy, bits=2).status == SECURE


def test_low_output_mismatch_detected():
    program, policy = prog(
        "output(h, out)",
        "lattice: L < H\nvar h : H\nchannel out : L output\n",
    )
    verdict = check_noninterference(program, policy, bits=2)
    assert verdict.status == INSECURE
    assert "out" in verdict.witness.reason


def test_high_output_invisible():
    program, policy = prog(
        "output(h, hout)",
        "lattice: L < H\nvar h : H\nchannel hout : H output\n",
    )
    assert check_noninterference(program, policy, bits=2).status == SECURE


def test_three_level_lattice_intermediate_observer():
    pol = "lattice: L < M\nlattice: M < H\nvar h : H\nvar m : M\nvar l : L\n"
    program, policy = prog("m := h", pol)
    verdict = check_noninterference(program, policy, bits=1)
    assert verdict.status == INSECURE
    assert verdict.witness.level == "M"
    # The L observer alone would accept this program.
    program2, policy2 = prog("l := m", pol)
    verdict2 = check_noninterference(program2, policy2, bits=1)
    assert verdict2.status == INSECURE
    assert verdict2.witness.level == "L"


def test_budget_exhaustion_is_inconclusive():
    program, policy = load("P3")
    verdict = check_where_security(program, policy, bits=3, budget=4)
    assert verdict.status == INCONCLUSIVE
    assert verdict.secure is None
    assert verdict.note


def test_witness_is_lexicographically_first():
    program, policy = prog("l := h", TWO_LEVEL)
    v1 = check_noninterference(program, policy, bits=2)
    v2 = check_noninterference(program, policy, bits=2)
    assert v1.witness.first == v2.witness.first
    assert v1.witness.second == v2.witness.second
    # Smallest differing pair: l = 0 shared, h = 0 versus h = 1.
    assert v1.witness.first.store == {"h": 0, "l": 0}
    assert v1.witness.second.store == {"h": 1, "l": 0}


def test_static_input_counts_and_lengths():
    program = parse_program(
        "input(x, a); while x do input(x, a); input(y, b) od"
    )
    assert static_input_counts(program) == {"a": 2, "b": 1}
    policy = parse_policy(
        "lattice: L < H\nvar x : L\nvar y : L\n"
        "channel a : L input\nchannel b : L input length 3\n"
    )
    policy = gather_downgrades(program, policy)
    assert default_input_lengths(program, policy) == {"a": 2, "b": 3}


def test_where_implies_relaxation_of_ni():
    # Any program that never declassifies must get identical verdicts.
    for text in ("l := 0", "l := h", "l := 0; while h != 0 do h := h - 1; l := l + 1 od"):
        program, policy = prog(text, TWO_LEVEL)
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
    for idx, (config, label) in enumerate(trace.entries):
        if label.kind == DECLASS:
            pre = trace.entries[idx - 1][0].mu if idx > 0 else trace.initial.mu
            records.append((label.site.id, label.value, pre, config.mu))
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
    lengths = default_input_lengths(program, policy)
    saw_fuel_limit = False
    pairs_checked = 0
    for level in sorted(policy.domains):
        for first, second in _enumerate_pairs(program, policy, level, bits, lengths):
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
    gen = randprog.generate(seed, randprog.GenConfig(io=io))
    program, policy = prog(gen.text, gen.policy_text)
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
    program, policy = prog(*HAND_WRITTEN[name])
    assert_matches_reference(program, policy, bits=2, capacity=4)


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


def _items(pairs):
    # Dict equality ignores key order; the listed items keep it.
    return [
        tuple((list(s.store.items()), list(s.inputs.items())) for s in pair) for pair in pairs
    ]


IOBENCH = CORPUS.parent / "iobench"


@pytest.mark.parametrize("bits", [1, 2])
@pytest.mark.parametrize("case", ["channels", "iobench/B4", "two-by-two"])
def test_pair_order_matches_the_nested_loop_reference(case, bits):
    if case == "channels":
        program, policy = prog(*HAND_WRITTEN["channels"])
    elif case == "iobench/B4":
        program = parse_program((IOBENCH / "B4").read_text())
        policy = gather_downgrades(program, parse_policy((IOBENCH / "B4.policy").read_text()))
    else:
        program, policy = prog(
            "h1 := l1 + h2; l2 := declass(h1 & 1)",
            "lattice: L < H\nvar l1 : L\nvar l2 : L\nvar h1 : H\nvar h2 : H\n",
        )
    lengths = default_input_lengths(program, policy)
    for level in sorted(policy.domains):
        args = (program, policy, level, bits, lengths)
        got = _items(_enumerate_pairs(*args))
        assert got == _items(_ref_enumerate_pairs(*args)), level
        assert len(got) == _pair_count(*args)


def test_fuel_exhausted_secure_program_is_inconclusive():
    program, policy = prog("l := 0; while h != 0 do h := h - 1 od", TWO_LEVEL)
    assert check_where_security(program, policy, bits=2, fuel=13).status == SECURE
    verdict = check_where_security(program, policy, bits=2, fuel=8)
    assert verdict.status == INCONCLUSIVE
    assert verdict.pairs_checked == 80
    assert verdict.note == "nonterminating-within-budget run encountered"
    assert_matches_reference(program, policy, bits=2, capacity=4, fuel=8)


def test_fuel_exhausted_runs_do_not_hide_a_violation():
    program, policy = prog("l := h; while h != 0 do h := h - 1 od", TWO_LEVEL)
    assert run_program(program, policy, {"h": 3}, bits=2, fuel=8).outcome == OUTCOME_FUEL
    verdict = check_where_security(program, policy, bits=2, fuel=8)
    assert verdict.status == INSECURE
    assert verdict.pairs_checked == 18
    assert_matches_reference(program, policy, bits=2, capacity=4, fuel=8)


def test_one_run_per_initial_state_across_levels(monkeypatch):
    program, policy = prog(
        "input(x, lin); m := x + m; x := declass(h & 1)",
        "lattice: L < M\nlattice: M < H\nvar h : H\nvar m : M\nvar x : L\n"
        "channel lin : L input\n",
    )
    started = []

    def counted(program, policy, store, inputs, *args):
        started.append((tuple(sorted(store.items())), tuple(sorted(inputs.items()))))
        return run_program(program, policy, store, inputs, *args)

    monkeypatch.setattr(oracle, "run_program", counted)
    verdict = check_where_security(program, policy, bits=2)
    assert verdict.status == SECURE
    lengths = default_input_lengths(program, policy)
    assert verdict.pairs_checked == sum(
        _pair_count(program, policy, level, 2, lengths) for level in policy.domains
    )
    # Three variables and one input cell of 2 bits each.
    assert len(started) == len(set(started)) == 4**4


# ---------------------------------------------------------------------------
# Shared futures: a run that meets a configuration of an earlier run of the
# same check takes the rest of that run (``semantics.run``).  Its summary
# must equal that of a run on its own: the outcome always, and for a halted
# run its final observables and downgrades too, each downgrade at the same
# index in the run.


def initial_states(program, policy, bits=2):
    """(store, inputs) of every initial state, in the oracle's order."""
    lengths = default_input_lengths(program, policy)
    channels = program.input_channels
    return [
        (dict(zip(program.variables, store)), dict(zip(channels, ins)))
        for store, ins in oracle._all_states(program, bits, lengths)
    ]


def _downgrade_record(trace):
    return [(k, before.mu, after.mu, label) for k, before, after, label in trace.downgrades]


def assert_shared_runs_exact(program, policy, fuels, bits=2, capacity=4):
    states = initial_states(program, policy, bits)
    for fuel in fuels:
        for order in (states, states[::-1]):
            known = Known()
            for store, inputs in order:
                args = (program, policy, store, inputs, bits, capacity, fuel)
                shared_trace, alone_trace = run_program(*args, known), run_program(*args)
                shared = oracle._summarise(shared_trace)
                alone = oracle._summarise(alone_trace)
                assert shared.outcome == alone.outcome, (fuel, store, inputs)
                if alone.outcome == OUTCOME_HALTED:
                    assert (shared.mu, shared.outs, shared.declass) == (
                        alone.mu, alone.outs, alone.declass,
                    ), (fuel, store, inputs)
                    assert _downgrade_record(shared_trace) == _downgrade_record(
                        alone_trace
                    ), (fuel, store, inputs)


@pytest.mark.parametrize("io", [False, True], ids=["plain", "io"])
@pytest.mark.parametrize("seed", range(0, 400, 7))
def test_shared_runs_match_runs_alone_on_randprog(seed, io):
    gen = randprog.generate(seed, randprog.GenConfig(io=io))
    program, policy = prog(gen.text, gen.policy_text)
    assert_shared_runs_exact(program, policy, (3, 6, 11, DEFAULT_FUEL))


def test_shared_runs_match_runs_alone_entering_a_cycle_anywhere():
    # A tail of h steps, then a cycle through every value of l: the runs
    # enter the cycle at every point, after tails of every length, and the
    # fuels cut them before, inside and after their first lap.
    program, policy = prog(
        "while h != 0 do h := h - 1 od; while 1 do l := l + 1 od", TWO_LEVEL
    )
    assert_shared_runs_exact(program, policy, range(1, 40))


def test_one_check_steps_each_distinct_configuration_once(monkeypatch):
    from wherecheck import semantics

    # Every run sets x first, so the 64 initial states share their futures.
    program, policy = prog(
        "x := 0; l := declass(h & 1); while x < 2 do x := x + 1 od",
        "lattice: L < H\nvar h : H\nvar l : L\nvar x : L\n",
    )
    distinct, total = set(), 0
    for store, inputs in initial_states(program, policy):
        trace = run_program(program, policy, store, inputs, bits=2)
        stepped = [trace.initial] + [config for config, _ in trace.entries[:-1]]
        total += len(stepped)
        distinct.update(
            (
                tuple(sorted(c.mu.items())),
                tuple(sorted(c.p.items())),
                tuple(sorted(c.outs.items())),
                tuple(sorted(c.ins.items())),
                c.cmd,
            )
            for c in stepped
        )
    steps = []

    def counted(config, *args):
        steps.append(config)
        return real(config, *args)

    real = semantics.step_point
    monkeypatch.setattr(semantics, "step_point", counted)
    assert check_where_security(program, policy, bits=2).status == SECURE
    assert len(steps) == len(distinct) < total
