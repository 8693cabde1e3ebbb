"""Brute-force ground truth for the two security properties.

Both checkers consider, per observer level, every ordered pair of initial
states that agree on the observable part (stores equal on observable
variables, observable input channels with identical contents, unobservable
inputs independent), and compare the observations of the two runs.

``_observations`` is the one statement of the property and of its downgrade
premise; both passes below read it.  Downgrade pairing is positional: the
k-th downgrade step of one run is paired with the k-th of the other.  Runs
with unequal downgrade counts, or with differing declassified values at some
pair, fail the property's premise and impose no constraint.  Runs that
diverge or end in a channel diagnostic never reach a final configuration and
are likewise unconstrained; divergence is decided exactly by repeated-state
detection, so "inconclusive" only arises from the enumeration budget or from
a run that exhausts its fuel.

A run does not depend on the observer, so each initial state runs once per
check and its ``semantics.Ending`` (outcome, final configuration,
downgrades) serves every level; the rest of its trace is not kept.  The
runs of one check also share their futures through one map of the
configurations they stepped: the interpreter is deterministic, so a run
that reaches a configuration of an earlier run takes that run's outcome,
final configuration and later downgrades (``semantics.run`` gives the fuel
arithmetic).  Each distinct configuration is then stepped once per check,
unless a run out of fuel leaves a future unknown.  The ending of a halted
run is exact; of the other runs only the outcome is read.  Each level lists
its observable variables and output channels once, and the views below
read values over those lists; an output stream's length is its write index.

The pairs of a level are all ordered pairs inside one low class (one choice
of observable variable values and observable input contents), so a level is
violated iff two halted runs of one class share a bucket key but differ in
the observation filed under it (see ``_observations``).  A clean level is
proved in one pass over the states.  A violated level is scanned pair by
pair in lexicographic order, over the memoised runs, because the verdict
names the first violating pair, its reason, and the number of pairs checked
up to it.  A pair is judged by the same buckets (``_violation``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .policy import Policy
from .semantics import (
    DEFAULT_BITS,
    DEFAULT_CAPACITY,
    DEFAULT_FUEL,
    OUTCOME_FUEL,
    OUTCOME_HALTED,
    Ending,
    Known,
    run_program,
)
from .syntax import Input, Program, walk_commands

SECURE = "secure"
INSECURE = "insecure"
INCONCLUSIVE = "inconclusive"

DEFAULT_PAIR_BUDGET = 1 << 21


@dataclass(frozen=True)
class InitialState:
    store: dict[str, int]
    inputs: dict[str, tuple[int, ...]]


@dataclass
class OracleWitness:
    level: str
    first: InitialState
    second: InitialState
    reason: str  # human-readable description of the differing observable
    declass_trace_1: list[tuple[int, int]] = field(default_factory=list)
    declass_trace_2: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class OracleVerdict:
    property_name: str  # "noninterference" | "where-security"
    status: str  # SECURE | INSECURE | INCONCLUSIVE
    witness: Optional[OracleWitness] = None
    pairs_checked: int = 0
    note: str = ""


def static_input_counts(program: Program) -> dict[str, int]:
    """Input statements per channel, counting loop bodies once."""
    counts: dict[str, int] = {}
    for cmd in walk_commands(program.root):
        if isinstance(cmd, Input):
            counts[cmd.channel] = counts.get(cmd.channel, 0) + 1
    return counts


def default_input_lengths(program: Program, policy: Policy) -> dict[str, int]:
    counts = static_input_counts(program)
    lengths: dict[str, int] = {}
    for name, ch in policy.channels.items():
        if ch.direction != "input":
            continue
        if ch.length is not None:
            lengths[name] = ch.length
        else:
            lengths[name] = counts.get(name, 0)
    return lengths


def _pair_count(
    program: Program,
    policy: Policy,
    level: str,
    bits: int,
    input_lengths: dict[str, int],
) -> int:
    values = 1 << bits
    total = 1
    for name in program.variables:
        total *= values if policy.observable(name, level) else values * values
    for name, direction in program.channels.items():
        if direction != "input":
            continue
        length = input_lengths.get(name, 0)
        cells = values**length
        total *= cells if policy.observable(name, level) else cells * cells
    return total


def _enumerate_pairs(
    program: Program,
    policy: Policy,
    level: str,
    bits: int,
    input_lengths: dict[str, int],
) -> Iterator[tuple[InitialState, InitialState]]:
    """Observer-equivalent initial pairs, in lexicographic order."""
    values = range(1 << bits)
    names = list(program.variables)
    low_vars = [n for n in names if policy.observable(n, level)]
    high_vars = [n for n in names if not policy.observable(n, level)]
    in_channels = program.input_channels
    low_ch = [n for n in in_channels if policy.observable(n, level)]
    high_ch = [n for n in in_channels if not policy.observable(n, level)]

    def contents(chans: list[str]) -> Iterator[tuple]:
        return itertools.product(
            *[itertools.product(values, repeat=input_lengths.get(ch, 0)) for ch in chans]
        )

    lows = itertools.product(values, repeat=len(low_vars))
    highs = list(itertools.product(values, repeat=len(high_vars)))
    high_ins = list(contents(high_ch))
    # Outermost first: low values, high stores, low contents, high contents.
    for low_vals, high1, high2, low_ins, hc1, hc2 in itertools.product(
        lows, highs, highs, contents(low_ch), high_ins, high_ins
    ):
        store1 = dict(zip(low_vars, low_vals)) | dict(zip(high_vars, high1))
        store2 = dict(zip(low_vars, low_vals)) | dict(zip(high_vars, high2))
        ins1 = dict(zip(low_ch, low_ins)) | dict(zip(high_ch, hc1))
        ins2 = dict(zip(low_ch, low_ins)) | dict(zip(high_ch, hc2))
        yield InitialState(store1, ins1), InitialState(store2, ins2)


def _all_states(
    program: Program, bits: int, input_lengths: dict[str, int]
) -> Iterator[tuple[tuple, tuple]]:
    """Every initial state, as the values of its store and of its inputs.

    The store lists ``program.variables`` in order, the inputs the sorted
    input channels.  Each level's pairs draw on exactly this set.
    """
    values = range(1 << bits)
    names = list(program.variables)
    in_channels = program.input_channels
    contents = [
        list(itertools.product(values, repeat=input_lengths.get(ch, 0)))
        for ch in in_channels
    ]
    for store in itertools.product(values, repeat=len(names)):
        for ins in itertools.product(*contents):
            yield store, ins


@dataclass(frozen=True)
class _Observer:
    """One observer level, and what it sees of a run, each list sorted."""

    variables: tuple[str, ...]  # observable variables with a declared level
    outputs: tuple[str, ...]  # observable output channels

    @classmethod
    def at(cls, program: Program, policy: Policy, level: str) -> "_Observer":
        return cls(
            tuple(
                n
                for n in sorted(program.variables)
                if n in policy.sigma and policy.observable(n, level)
            ),
            tuple(
                n
                for n, d in sorted(program.channels.items())
                if d != "input" and policy.observable(n, level)
            ),
        )


def _store_view(observer: _Observer, mu: dict[str, int]) -> tuple:
    """Equal for two stores iff ``low_equiv_store`` holds."""
    return tuple([(n, mu[n]) for n in observer.variables])


def _final_view(observer: _Observer, run: Ending) -> tuple:
    """Equal for two runs iff both observational equivalences of the finals hold.

    A stream's length is its write index.  An empty stream is left out: the
    tests' reference checker (``low_equiv_channels``) reads an absent index
    as 0 with an empty prefix.
    """
    outs = run.final.outs
    channels = tuple([(n, outs[n]) for n in observer.outputs if outs[n]])
    return _store_view(observer, run.final.mu), channels


def _observations(
    observer: _Observer, property_name: str, run: Ending
) -> Iterator[tuple[tuple, tuple]]:
    """(bucket key, observation) pairs of one halted run.

    Two halted runs of one low class violate the property iff they share a
    bucket key with different observations: for where-security, the key
    (k, observable pre-store, value) of a paired downgrade against its
    observable post-store, and the downgrade value sequence against the
    final observation; for noninterference, one key against the final
    observation.
    """
    if property_name == "noninterference":
        yield (), _final_view(observer, run)
        return
    for k, (_, pre, post, label) in enumerate(run.downgrades):
        yield (k, _store_view(observer, pre.mu), label.value), _store_view(observer, post.mu)
    yield (tuple([label.value for _, _, _, label in run.downgrades]),), _final_view(observer, run)


def _check_pairs(
    program: Program,
    policy: Policy,
    property_name: str,
    bits: int,
    capacity: int,
    fuel: int,
    input_lengths: dict[str, int],
    budget: int,
) -> OracleVerdict:
    total = 0
    for level in sorted(policy.domains):
        total += _pair_count(program, policy, level, bits, input_lengths)
    if total > budget:
        return OracleVerdict(
            property_name,
            INCONCLUSIVE,
            note=f"budget-exceeded: {total} pairs > {budget}",
        )

    runs: dict[tuple, Ending] = {}  # one run per initial state, shared by the levels
    known = Known()  # each configuration stepped, shared by the runs
    names = program.variables
    in_channels = program.input_channels

    def run_of(key: tuple) -> Ending:
        found = runs.get(key)
        if found is None:
            store, inputs = dict(zip(names, key[0])), dict(zip(in_channels, key[1]))
            trace = run_program(program, policy, store, inputs, bits, capacity, fuel, known)
            found = runs[key] = Ending(trace.outcome, trace.final, trace.downgrades)
        return found

    def key_of(state: InitialState) -> tuple:
        # A pair's stores list their low variables first.
        return (
            tuple([state.store[n] for n in names]),
            tuple([state.inputs[n] for n in in_channels]),
        )

    states = list(_all_states(program, bits, input_lengths))  # the keys of ``runs``
    saw_fuel_limit = False
    pairs_checked = 0
    for level in sorted(policy.domains):
        low_vars = [i for i, n in enumerate(names) if policy.observable(n, level)]
        low_ch = [i for i, n in enumerate(in_channels) if policy.observable(n, level)]
        observer = _Observer.at(program, policy, level)
        buckets: dict[tuple, tuple] = {}
        clean = True
        for key in states:
            run = run_of(key)
            if run.outcome == OUTCOME_FUEL:
                saw_fuel_limit = True
                continue
            if run.outcome != OUTCOME_HALTED:
                continue
            store, ins = key
            low = (tuple([store[i] for i in low_vars]), tuple([ins[i] for i in low_ch]))
            if any(
                buckets.setdefault((low, bucket), seen) != seen
                for bucket, seen in _observations(observer, property_name, run)
            ):
                clean = False
                break
        if clean:
            pairs_checked += _pair_count(program, policy, level, bits, input_lengths)
            continue

        # Some pair violates: scan in order for the lexicographically first.
        for first, second in _enumerate_pairs(program, policy, level, bits, input_lengths):
            pairs_checked += 1
            run1, run2 = run_of(key_of(first)), run_of(key_of(second))
            if OUTCOME_FUEL in (run1.outcome, run2.outcome):
                saw_fuel_limit = True
                continue
            if run1.outcome != OUTCOME_HALTED or run2.outcome != OUTCOME_HALTED:
                continue  # no final configuration: premise unsatisfied
            reason = _violation(observer, property_name, run1, run2)
            if reason is not None:
                witness = OracleWitness(
                    level=level,
                    first=first,
                    second=second,
                    reason=reason,
                    declass_trace_1=run1.declass_events(),
                    declass_trace_2=run2.declass_events(),
                )
                return OracleVerdict(
                    property_name, INSECURE, witness, pairs_checked
                )
    if saw_fuel_limit:
        return OracleVerdict(
            property_name,
            INCONCLUSIVE,
            pairs_checked=pairs_checked,
            note="nonterminating-within-budget run encountered",
        )
    return OracleVerdict(property_name, SECURE, pairs_checked=pairs_checked)


def _violation(
    observer: _Observer,
    property_name: str,
    run1: Ending,
    run2: Ending,
) -> Optional[str]:
    """Why two halted runs of one low class violate the property, or None.

    They violate it iff they file different observations under one bucket
    key of ``_observations``; the reason names the first such key of run 2.
    """
    seen = dict(_observations(observer, property_name, run1))
    for key, observation in _observations(observer, property_name, run2):
        if seen.get(key, observation) == observation:
            continue
        if len(key) == 3:  # (k, observable pre-store, value) of a paired downgrade
            k, _, value = key
            site1, site2 = run1.downgrades[k][3].site.id, run2.downgrades[k][3].site.id
            return (
                f"downgrade pair {k} (sites g{site1}/g{site2}, "
                f"value {value}) breaks observable equivalence of the post-states"
            )
        mu1, mu2 = run1.final.mu, run2.final.mu
        if seen[key][0] != observation[0]:
            return "final store differs on " + ", ".join(
                f"{n}: {mu1[n]} vs {mu2[n]}" for n in observer.variables if mu1[n] != mu2[n]
            )
        outs1, outs2 = run1.final.outs, run2.final.outs
        return "final outputs differ on " + ", ".join(
            f"{n}: {list(outs1[n])} vs {list(outs2[n])}"
            for n in observer.outputs
            if outs1[n] != outs2[n]
        )
    return None


def check_noninterference(
    program: Program,
    policy: Policy,
    bits: int = DEFAULT_BITS,
    capacity: int = DEFAULT_CAPACITY,
    fuel: int = DEFAULT_FUEL,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> OracleVerdict:
    """Exhaustively test observational equivalence of final states."""
    lengths = default_input_lengths(program, policy)
    return _check_pairs(
        program, policy, "noninterference", bits, capacity, fuel, lengths, budget
    )


def check_where_security(
    program: Program,
    policy: Policy,
    bits: int = DEFAULT_BITS,
    capacity: int = DEFAULT_CAPACITY,
    fuel: int = DEFAULT_FUEL,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> OracleVerdict:
    """Exhaustively test that only declassified values are released.

    ``_observations`` states the property and its positional downgrade
    premise.  Violations: (a) a positionally paired downgrade with
    observably equal pre-states and equal declassified values whose
    post-states differ observably; (b) runs whose paired declassified values
    all agree (and counts match) but whose final stores or outputs differ
    observably.
    """
    lengths = default_input_lengths(program, policy)
    return _check_pairs(
        program, policy, "where-security", bits, capacity, fuel, lengths, budget
    )
