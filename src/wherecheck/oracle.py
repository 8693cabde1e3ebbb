"""Brute-force ground truth for the two security properties.

Both checkers consider, per observer level, every ordered pair of initial
states that agree on the observable part (stores equal on observable
variables, observable input channels with identical contents, unobservable
inputs independent), and compare the observations of the two runs.

``_Level.observations`` is the one statement of the property and of its
downgrade premise; every pass below reads it.  Downgrade pairing is
positional: the k-th downgrade step of one run is paired with the k-th of
the other.  Runs
with unequal downgrade counts, or with differing declassified values at some
pair, fail the property's premise and impose no constraint.  Runs that
diverge or end in a channel diagnostic never reach a final configuration and
are likewise unconstrained; divergence is decided exactly by repeated-state
detection, so "inconclusive" only arises from the budget or from a run that
exhausts its fuel.

A run does not depend on the observer, so each initial state runs once per
check, on first use, and its ``semantics.Ending`` (outcome, final
configuration, downgrades) serves every level (``_Runs``); the rest of its
trace is not kept.  The runs of one check also share their futures through
one map of the configurations they stepped: the interpreter is
deterministic, so a run that reaches a configuration of an earlier run takes
that run's outcome, final configuration and later downgrades
(``semantics.run`` gives the fuel arithmetic).  The ending of a halted run
is exact; of the other runs only the outcome is read.  A state is named by
its index in ``_all_states``, and a pair by two indices.

A level costs what its states cost, in three ways:

1. A level that sees everything but empty inputs has one state per low
   class (``_pair_count`` equals the number of states), so each of its
   pairs is a state paired with itself.  A deterministic run cannot differ
   from itself, so such a level builds no observations: it reads each
   state's outcome, since a run out of fuel still makes the verdict
   inconclusive, and adds its pairs.
2. Any other level is violated iff two halted runs of one low class file
   different observations under one bucket key, so a clean level is proved
   in one pass over the states (``_Level.conflict``).
3. A violated level is scanned pair by pair in lexicographic order, because
   the verdict names the first violating pair, its reason, and the number
   of pairs checked up to it.  The scan runs over pairs of state indices
   and judges a pair by the same bucket keys; each state's observations are
   made once per level and shared with the bucket pass.  Only the witness
   becomes an ``InitialState``.

The budget counts that work: a check of more initial states than the
budget is inconclusive before it runs any, and a scan that passes the
budget in pairs is inconclusive too.  Clean levels are not counted in
pairs, since their pass is linear in the states.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import mul
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


def _state_count(program: Program, bits: int, input_lengths: dict[str, int]) -> int:
    """The number of initial states: the length of ``_all_states``."""
    cells = sum(input_lengths.get(ch, 0) for ch in program.input_channels)
    return (1 << bits) ** (len(program.variables) + cells)


def _all_states(
    program: Program, bits: int, input_lengths: dict[str, int]
) -> Iterator[tuple[tuple, tuple]]:
    """Every initial state, as the values of its store and of its inputs.

    The store lists ``program.variables`` in order, the inputs the sorted
    input channels.  Each level's pairs draw on exactly this set.  A
    state's index in this order reads its store's values, then its input
    cells, as the digits of one number in base ``2**bits``.
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


def _enumerate_pairs(
    program: Program,
    policy: Policy,
    level: str,
    bits: int,
    input_lengths: dict[str, int],
) -> Iterator[tuple[int, int]]:
    """Observer-equivalent initial pairs, as indices into ``_all_states``,
    in lexicographic order: outermost the low values, then the high stores
    of the first and of the second state, the low contents, and the high
    contents of the first and of the second state."""
    values = range(1 << bits)
    digits = [*program.variables] + [
        ch for ch in program.input_channels for _ in range(input_lengths.get(ch, 0))
    ]
    # The weight of each digit of a state's index, by part: (is an input, observable).
    parts: dict[tuple[bool, bool], list[int]] = {
        (False, True): [], (False, False): [], (True, True): [], (True, False): []
    }
    for k, name in enumerate(digits):
        parts[k >= len(program.variables), policy.observable(name, level)].append(
            len(values) ** (len(digits) - 1 - k)
        )
    lows, highs, low_ins, high_ins = [
        [sum(map(mul, d, w)) for d in itertools.product(values, repeat=len(w))]
        for w in parts.values()
    ]
    for low, high1, high2, low_in, hc1, hc2 in itertools.product(
        lows, highs, highs, low_ins, high_ins, high_ins
    ):
        yield low + high1 + low_in + hc1, low + high2 + low_in + hc2


def _conflict(seen1: dict[tuple, tuple], seen2: dict[tuple, tuple]) -> Optional[tuple]:
    """The first bucket key of run 2 under which run 1 files another
    observation, or None: two halted runs of one low class violate the
    property iff there is one."""
    for key, observation in seen2.items():
        if seen1.get(key, observation) != observation:
            return key
    return None


class _Runs:
    """The initial states of one check, in ``_all_states`` order, and the
    ending of each state's run, made on first use and shared by the levels."""

    def __init__(
        self,
        program: Program,
        policy: Policy,
        bits: int,
        capacity: int,
        fuel: int,
        input_lengths: dict[str, int],
    ) -> None:
        self.program, self.policy = program, policy
        self.limits = (bits, capacity, fuel)
        self.states = list(_all_states(program, bits, input_lengths))
        self.endings: list[Optional[Ending]] = [None] * len(self.states)
        self.known = Known()  # each configuration stepped, shared by the runs

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, i: int) -> Ending:
        found = self.endings[i]
        if found is None:
            store, ins = self.states[i]
            program = self.program
            store, ins = dict(zip(program.variables, store)), dict(zip(program.input_channels, ins))
            trace = run_program(program, self.policy, store, ins, *self.limits, self.known)
            found = self.endings[i] = Ending(trace.outcome, trace.final, trace.downgrades)
        return found

    def all(self) -> list[Ending]:
        """Every state's ending, in order."""
        return [self[i] for i in range(len(self.states))]


_UNSEEN = object()


class _Level:
    """What one observer level sees of the runs of a check: each state's
    observations, made once on first use and shared by the bucket pass and
    the scan."""

    def __init__(self, runs: _Runs, level: str, property_name: str) -> None:
        self.runs, self.level, self.property_name = runs, level, property_name
        program, policy = runs.program, runs.policy
        names, in_channels = program.variables, program.input_channels
        self.low_vars = [i for i, n in enumerate(names) if policy.observable(n, level)]
        self.low_ch = [i for i, n in enumerate(in_channels) if policy.observable(n, level)]
        self.variables = tuple([names[i] for i in self.low_vars])
        self.outputs = tuple(
            n
            for n, d in sorted(program.channels.items())
            if d != "input" and policy.observable(n, level)
        )
        self.seen: list = [_UNSEEN] * len(runs)

    def observations(self, run: Ending) -> dict[tuple, tuple]:
        """The observation of one halted run under each bucket key.

        Two halted runs of one low class violate the property iff they file
        different observations under one key: for where-security, the key
        (k, observable pre-store, value) of a paired downgrade against its
        observable post-store, and the downgrade value sequence against the
        final observation; for noninterference, one key against the final
        observation.  A view of a store lists the values of the observable
        variables, so two views are equal iff ``low_equiv_store`` holds; the
        final observation adds the observable output streams, whose lengths
        are their write indices.
        """
        variables, final = self.variables, run.final

        def view(mu: dict[str, int]) -> tuple:
            return tuple([mu[n] for n in variables])

        outcome = view(final.mu), tuple([final.outs[n] for n in self.outputs])
        if self.property_name == "noninterference":
            return {(): outcome}
        seen = {
            (k, view(pre.mu), label.value): view(post.mu)
            for k, (_, pre, post, label) in enumerate(run.downgrades)
        }
        seen[(tuple([label.value for _, _, _, label in run.downgrades]),)] = outcome
        return seen

    def observed(self, i: int) -> Optional[dict[tuple, tuple]]:
        """State i's observations by bucket key, or None if its run did not halt."""
        seen = self.seen[i]
        if seen is _UNSEEN:
            run = self.runs[i]
            halted = run.outcome == OUTCOME_HALTED
            seen = self.seen[i] = self.observations(run) if halted else None
        return seen

    def conflict(self) -> bool:
        """Whether some pair of the level violates the property: two halted
        runs of one low class that file different observations under one
        bucket key.  One pass over the states."""
        low_vars, low_ch = self.low_vars, self.low_ch
        buckets: dict[tuple, tuple] = {}
        for i, (store, ins) in enumerate(self.runs.states):
            seen = self.observed(i)
            if seen is None:
                continue
            low = (tuple([store[k] for k in low_vars]), tuple([ins[k] for k in low_ch]))
            for bucket, observation in seen.items():
                if buckets.setdefault((low, bucket), observation) != observation:
                    return True
        return False

    def scan(self, pairs: Iterator[tuple[int, int]], checked: int, budget: int) -> OracleVerdict:
        """The verdict of a violated level: the first violating pair of the
        level's ``pairs`` in order, found within ``budget`` of them, after
        ``checked`` pairs of the levels before."""
        runs = self.runs
        for scanned, (i, j) in enumerate(itertools.islice(pairs, budget), 1):
            seen1, seen2 = self.observed(i), self.observed(j)
            if seen1 is None or seen2 is None:
                continue  # no final configuration: premise unsatisfied
            key = _conflict(seen1, seen2)
            if key is not None:
                witness = OracleWitness(
                    level=self.level,
                    first=self.initial_state(i),
                    second=self.initial_state(j),
                    reason=self.reason(i, j, key),
                    declass_trace_1=runs[i].declass_events(),
                    declass_trace_2=runs[j].declass_events(),
                )
                return OracleVerdict(self.property_name, INSECURE, witness, checked + scanned)
        return OracleVerdict(
            self.property_name,
            INCONCLUSIVE,
            pairs_checked=checked + budget,
            note=f"budget-exceeded: level {self.level} scanned {budget} pairs",
        )

    def initial_state(self, i: int) -> InitialState:
        """State i, its observable names first, as the pair order lists them."""
        store, ins = self.runs.states[i]
        program, policy, level = self.runs.program, self.runs.policy, self.level

        def low_first(names: tuple[str, ...], values: tuple) -> dict:
            items = zip(names, values)
            return dict(sorted(items, key=lambda item: not policy.observable(item[0], level)))

        return InitialState(
            low_first(program.variables, store), low_first(program.input_channels, ins)
        )

    def reason(self, i: int, j: int, key: tuple) -> str:
        """Why states i and j violate the property, given the first
        conflicting bucket key of j (``_conflict``)."""
        run1, run2 = self.runs[i], self.runs[j]
        if len(key) == 3:  # (k, observable pre-store, value) of a paired downgrade
            k, _, value = key
            site1, site2 = run1.downgrades[k][3].site.id, run2.downgrades[k][3].site.id
            return (
                f"downgrade pair {k} (sites g{site1}/g{site2}, "
                f"value {value}) breaks observable equivalence of the post-states"
            )
        mu1, mu2 = run1.final.mu, run2.final.mu
        store = [f"{n}: {mu1[n]} vs {mu2[n]}" for n in self.variables if mu1[n] != mu2[n]]
        if store:
            return "final store differs on " + ", ".join(store)
        outs1, outs2 = run1.final.outs, run2.final.outs
        return "final outputs differ on " + ", ".join(
            f"{n}: {list(outs1[n])} vs {list(outs2[n])}"
            for n in self.outputs
            if outs1[n] != outs2[n]
        )


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
    count = _state_count(program, bits, input_lengths)
    if count > budget:
        return OracleVerdict(
            property_name,
            INCONCLUSIVE,
            note=f"budget-exceeded: {count} states > {budget}",
        )

    runs = _Runs(program, policy, bits, capacity, fuel, input_lengths)
    pairs_checked = 0
    for level in sorted(policy.domains):
        pairs = _pair_count(program, policy, level, bits, input_lengths)
        if pairs == count:
            # Each pair is a state with itself, which no run can violate.
            # The runs are still made: one out of fuel makes the verdict
            # inconclusive below.
            runs.all()
        elif (view := _Level(runs, level, property_name)).conflict():
            scan = _enumerate_pairs(program, policy, level, bits, input_lengths)
            return view.scan(scan, pairs_checked, budget)
        pairs_checked += pairs
    if any(run.outcome == OUTCOME_FUEL for run in runs.all()):
        return OracleVerdict(
            property_name,
            INCONCLUSIVE,
            pairs_checked=pairs_checked,
            note="nonterminating-within-budget run encountered",
        )
    return OracleVerdict(property_name, SECURE, pairs_checked=pairs_checked)


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

    ``_Level.observations`` states the property and its positional downgrade
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
