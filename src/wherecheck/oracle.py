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

A run does not depend on the observer, so each initial state runs at most
once per check, on first use, and its ``semantics.Ending`` (outcome, final
key, downgrades) serves every level (``_Runs``).  The run builds that
``Ending`` once and records no step list.  The runs of one check also
share one ``Known``: the program's ``semantics.Table``, and the keys they
stepped, through which they share their futures.  The interpreter is
deterministic, so a run that reaches a key of an earlier run takes that
run's outcome, final key and later downgrades (``semantics.run`` gives the
fuel arithmetic).  The ending of a halted run is exact; of the other runs
only the outcome is read.  On the benchmark's 103 random programs (bits
2, capacity 4) the checks make 1731 runs of 6,612 steps, at about 15 us
of check time a run (``oracle_s``, ``BENCH_oracle_classes.json``).

A state is its index.  ``_Runs`` fixes the layout once: one ``bits``-wide
digit per variable of ``program.variables``, then one per input cell of the
sorted input channels, most significant first, which is the order of a
key's slots.  A state's run starts from a key built straight from its
digits, and its observations are views of keys, the ``operator.itemgetter``
of the slots that ``_Level.observations`` reads; a key is decoded, and an
index into a store and input contents, only to name a witness.  Every fact
of a level reads the same digits.  A state's low class is its index masked
to the level's observable digits, a level's pair count is the state count
shifted by ``bits`` per unobservable digit, and a pair is two indices.

A level costs what its states cost, in three ways:

1. A level with no unobservable digit has one state per low class, so each
   of its pairs is a state paired with itself.  A deterministic run cannot
   differ from itself, so such a level makes no run of its own; it adds its
   pairs.  Once no level is violated, a run out of fuel still makes the
   verdict inconclusive, so every state that has not run runs, unless no
   run can run out of fuel.  In a program with no ``While`` in
   ``Program.flow``, each step goes on to a later site or to its own site's
   finished point, so each iteration of ``semantics.run`` sits at a
   distinct point of the flow, and a run that joins an earlier run
   (``Known``) ends at an index on that same path.  So every run ends
   within ``2 * len(program.flow)`` iterations, and when that bound is at
   most the fuel, the check is secure without running the rest.
2. Any other level is violated iff two halted runs of one low class file
   different observations under one bucket key, so a clean level is proved
   in one pass over the states (``_Level.conflict``).  The pass, like the
   sweep of part 1, walks the states in index order alongside the product
   of their digits (``_Runs.starts``), so it decodes no index.
3. A violated level is scanned pair by pair in lexicographic order
   (``_Level.pair_order``), because the verdict names the first violating
   pair, its reason, and the number of pairs checked up to it.  The scan
   judges a pair by the same bucket keys; each state's observations are
   made once per level and shared with the bucket pass, and interned as
   classes for the scan alone: a pair of one class cannot conflict, and
   two classes are compared once.  Only the witness becomes an
   ``InitialState``.  A violated level's verdict reads only the runs of
   its pass and its scan.

The budget counts states: a check of more initial states than the budget
is inconclusive before it runs any, and a scan that passes the budget in
pairs is inconclusive too.  Clean levels are not counted in pairs, since
their pass is linear in the states.
"""

from __future__ import annotations

import functools
import itertools
from operator import itemgetter
from typing import Iterator, NamedTuple, Optional

from .policy import Policy, input_length, validate_bindings
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
from .syntax import Program, While

SECURE = "secure"
INSECURE = "insecure"
INCONCLUSIVE = "inconclusive"

DEFAULT_PAIR_BUDGET = 1 << 21


class InitialState(NamedTuple):
    store: dict[str, int]
    inputs: dict[str, tuple[int, ...]]


class OracleWitness(NamedTuple):
    level: str
    first: InitialState
    second: InitialState
    reason: str  # human-readable description of the differing observable
    declass_trace_1: list[tuple[int, int]]
    declass_trace_2: list[tuple[int, int]]


class OracleVerdict(NamedTuple):
    property_name: str  # "noninterference" | "where-security"
    status: str  # SECURE | INSECURE | INCONCLUSIVE
    witness: Optional[OracleWitness] = None
    pairs_checked: int = 0
    note: str = ""


def _conflict(seen1: dict[tuple, tuple], seen2: dict[tuple, tuple]) -> Optional[tuple]:
    """The first bucket key of run 2 under which run 1 files another
    observation, or None: two halted runs of one low class violate the
    property iff there is one."""
    for key, observation in seen2.items():
        if seen1.get(key, observation) != observation:
            return key
    return None


class _Runs:
    """The initial states of one check, each named by its index, and the
    ending of each state's run, made on first use and shared by the levels.

    The layout is fixed here once: an index has one ``bits``-wide digit per
    variable of ``program.variables``, then one per input cell of the sorted
    input channels (``policy.input_length``), most significant first.
    """

    def __init__(
        self, program: Program, policy: Policy, bits: int, capacity: int, fuel: int
    ) -> None:
        self.program, self.policy = program, policy
        self.limits = (bits, capacity, fuel)
        self.lengths = [input_length(program, policy, ch) for ch in program.input_channels]
        # The variable or input channel each digit reads, most significant first.
        self.digits = [*program.variables] + [
            ch for ch, n in zip(program.input_channels, self.lengths) for _ in range(n)
        ]
        self.shifts = [bits * k for k in reversed(range(len(self.digits)))]
        self.count = 1 << bits * len(self.digits)
        self.endings: dict[int, Ending] = {}
        self.known = Known(program)  # its table, and each key stepped

    def values(self, i: int) -> tuple[list[int], list[tuple[int, ...]]]:
        """State i's variable values and input contents, in a key's slot order."""
        mask, cells = (1 << self.limits[0]) - 1, len(self.program.variables)
        values = [(i >> shift) & mask for shift in self.shifts]
        rest = iter(values[cells:])
        return values[:cells], [tuple(itertools.islice(rest, n)) for n in self.lengths]

    def state(self, i: int) -> tuple[dict[str, int], dict[str, tuple[int, ...]]]:
        """The store and the input contents of state i, decoded off its start key."""
        config = self.known.table.view(self.known.table.start(*self.values(i)))
        return config.mu, config.ins

    def starts(self) -> Iterator[tuple]:
        """Each state's start key, in index order: the product of its digits,
        the variables' values, then each input channel's contents."""
        values, table = range(1 << self.limits[0]), self.known.table
        contents = [itertools.product(values, repeat=n) for n in self.lengths]
        for digits in itertools.product(*[values] * len(self.program.variables), *contents):
            yield (table.entry, *digits, *table.tail)

    def ending(self, i: int, start: Optional[tuple] = None) -> Ending:
        """State i's ending, run on first use from ``start``, its start key."""
        found = self.endings.get(i)
        if found is None:
            if start is None:
                start = self.known.table.start(*self.values(i))
            trace = run_program(
                self.program, self.policy, None, None, *self.limits, self.known, start=start
            )
            found = self.endings[i] = trace.ending
        return found


_UNSEEN = object()


def _view(slots: list[int]):
    """The values of a key at ``slots``, compared as a whole."""
    return itemgetter(*slots) if slots else lambda key: ()


class _Level:
    """What one observer level sees of the runs of a check: the digits of a
    state's index it observes, and each state's observations, made once on
    first use and shared by the bucket pass and the scan."""

    def __init__(self, runs: _Runs, level: str, property_name: str) -> None:
        self.runs, self.level, self.property_name = runs, level, property_name
        program, policy, bits = runs.program, runs.policy, runs.limits[0]
        # A state's low class is its index masked to the observable digits.
        self.low_mask = hidden = 0
        for k, name in enumerate(reversed(runs.digits)):
            if policy.observable(name, level):
                self.low_mask |= ((1 << bits) - 1) << bits * k
            else:
                hidden += 1
        # Each state pairs with every state of its low class.
        self.pairs = runs.count << bits * hidden
        self.variables = tuple([n for n in program.variables if policy.observable(n, level)])
        self.outputs = tuple([n for n in program.output_channels if policy.observable(n, level)])
        # A key's observable variables, and at the end its observable streams.
        table = runs.known.table
        variables = [table.variables[n] for n in self.variables]
        self.store = _view(variables)
        self.final = _view(variables + [table.streams[n] for n in self.outputs])
        self.seen: dict[int, Optional[dict[tuple, tuple]]] = {}

    def observations(self, run: Ending) -> dict[tuple, tuple]:
        """The observation of one halted run under each bucket key.

        Two halted runs of one low class violate the property iff they file
        different observations under one key: for where-security, the key
        (k, observable pre-store, value) of a paired downgrade against its
        observable post-store, and the downgrade value sequence against the
        final observation; for noninterference, one key against the final
        observation.  A view of a key reads the slots of the observable
        variables, so two views are equal iff ``low_equiv_store`` holds of
        their stores; the final observation adds the observable output
        streams, whose lengths are their write indices.
        """
        view, outcome = self.store, self.final(run.end)
        if self.property_name == "noninterference":
            return {(): outcome}
        seen = {
            (k, view(pre), label.value): view(post)
            for k, (_, pre, post, label) in enumerate(run.downgrades)
        }
        seen[(tuple([label.value for _, _, _, label in run.downgrades]),)] = outcome
        return seen

    def observed(self, i: int, start: Optional[tuple] = None) -> Optional[dict[tuple, tuple]]:
        """State i's observations by bucket key, or None if its run did not
        halt; ``start`` is its start key, if known."""
        seen = self.seen.get(i, _UNSEEN)
        if seen is _UNSEEN:
            run = self.runs.ending(i, start)
            halted = run.outcome == OUTCOME_HALTED
            seen = self.seen[i] = self.observations(run) if halted else None
        return seen

    def conflict(self) -> bool:
        """Whether some pair of the level violates the property: two halted
        runs of one low class that file different observations under one
        bucket key.  One pass over the states."""
        low_mask = self.low_mask
        buckets: dict[tuple, tuple] = {}
        for i, start in enumerate(self.runs.starts()):
            seen = self.observed(i, start)
            if seen is None:
                continue
            low = i & low_mask
            for bucket, observation in seen.items():
                if buckets.setdefault((low, bucket), observation) != observation:
                    return True
        return False

    def pair_order(self) -> Iterator[tuple[int, int]]:
        """The level's pairs in lexicographic order: outermost the low
        values, then the high stores of the first and of the second state,
        the low contents, and the high contents of the first and of the
        second state."""

        def indices(mask: int) -> list[int]:
            # Every index whose digits outside mask are 0, in increasing order:
            # the product of mask's digits, the most significant outermost.
            found = [0]
            while found[-1] != mask:
                found.append((found[-1] - mask) & mask)
            return found

        runs, low_mask = self.runs, self.low_mask
        ins = (1 << runs.limits[0] * sum(runs.lengths)) - 1  # the input cells' digits
        store = runs.count - 1 - ins
        lows, highs = indices(low_mask & store), indices(store & ~low_mask)
        low_ins, high_ins = indices(low_mask & ins), indices(ins & ~low_mask)
        for low, high1, high2, low_in, hc1, hc2 in itertools.product(
            lows, highs, highs, low_ins, high_ins, high_ins
        ):
            yield low | high1 | low_in | hc1, low | high2 | low_in | hc2

    def scan(self, checked: int, budget: int) -> OracleVerdict:
        """The verdict of a violated level: its first violating pair in
        ``pair_order``, found within ``budget`` pairs, after ``checked``
        pairs of the levels before."""
        runs, classes, conflicts = self.runs, {}, {}

        @functools.cache
        def of(i: int) -> Optional[dict[tuple, tuple]]:
            """State i's class: its observations, interned; None if it did not halt."""
            seen = self.observed(i)
            return seen if seen is None else classes.setdefault(tuple(seen.items()), seen)

        for scanned, (i, j) in enumerate(itertools.islice(self.pair_order(), budget), 1):
            seen1, seen2 = of(i), of(j)
            if seen1 is seen2 or seen1 is None or seen2 is None:
                continue  # one class, or no final configuration: no violation
            pair = (id(seen1), id(seen2))
            key = conflicts.get(pair, _UNSEEN)
            if key is _UNSEEN:
                key = conflicts[pair] = _conflict(seen1, seen2)
            if key is not None:
                witness = OracleWitness(
                    level=self.level,
                    first=self.initial_state(i),
                    second=self.initial_state(j),
                    reason=self.reason(i, j, key),
                    declass_trace_1=runs.ending(i).declass_events(),
                    declass_trace_2=runs.ending(j).declass_events(),
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
        policy, level = self.runs.policy, self.level

        def low_first(values: dict) -> dict:
            items = values.items()
            return dict(sorted(items, key=lambda item: not policy.observable(item[0], level)))

        return InitialState(*map(low_first, self.runs.state(i)))

    def reason(self, i: int, j: int, key: tuple) -> str:
        """Why states i and j violate the property, given the first
        conflicting bucket key of j (``_conflict``)."""
        run1, run2 = self.runs.ending(i), self.runs.ending(j)
        if len(key) == 3:  # (k, observable pre-store, value) of a paired downgrade
            k, _, value = key
            site1, site2 = run1.downgrades[k][3].site.id, run2.downgrades[k][3].site.id
            return (
                f"downgrade pair {k} (sites g{site1}/g{site2}, "
                f"value {value}) breaks observable equivalence of the post-states"
            )
        final1, final2 = (self.runs.known.table.view(run.end) for run in (run1, run2))
        mu1, mu2 = final1.mu, final2.mu
        store = [f"{n}: {mu1[n]} vs {mu2[n]}" for n in self.variables if mu1[n] != mu2[n]]
        if store:
            return "final store differs on " + ", ".join(store)
        outs1, outs2 = final1.outs, final2.outs
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
    budget: int,
) -> OracleVerdict:
    validate_bindings(program, policy)  # PolicyError, as in build_model
    runs = _Runs(program, policy, bits, capacity, fuel)
    if runs.count > budget:
        return OracleVerdict(
            property_name,
            INCONCLUSIVE,
            note=f"budget-exceeded: {runs.count} states > {budget}",
        )

    pairs_checked = 0
    for level in sorted(policy.domains):
        view = _Level(runs, level, property_name)
        # A level with no unobservable digit pairs each state with itself,
        # which no run can violate, so it makes no run of its own.
        if view.pairs > runs.count and view.conflict():
            return view.scan(pairs_checked, budget)
        pairs_checked += view.pairs
    # A run of a program without ``while`` ends within 2 * len(program.flow)
    # iterations (part 1 above); otherwise every state not run yet runs here,
    # and one out of fuel makes the verdict inconclusive.
    bounded = 2 * len(program.flow) <= fuel and While not in map(type, program.sites)
    endings = itertools.starmap(runs.ending, enumerate(runs.starts()))
    if not bounded and any(run.outcome == OUTCOME_FUEL for run in endings):
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
    return _check_pairs(program, policy, "noninterference", bits, capacity, fuel, budget)


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
    return _check_pairs(program, policy, "where-security", bits, capacity, fuel, budget)
