"""Concrete small-step semantics over fixed-width unsigned values.

Values are unsigned integers reduced modulo 2**bits (bits defaults to 3):
a run's initial store, each input read, each constant and each operator's
result; zero is false, anything else true.  Input channels are finite
lists consumed by a read index p; output channels are append-only lists
guarded by a capacity bound, and a stream's length is its write index.
Reading past an input or writing past the capacity ends the run with a
terminal diagnostic label rather than an error.

A configuration is its key, one flat tuple in the slots a program's
``Table`` lays out: its point's id, then the values of the variables, the
input contents, the read indices and the output streams.  The interpreter
steps keys: ``step_point`` reads a key by slot and builds the next, and
``run`` hashes each as it is, to find a repeat or a join.  A run is
recorded once: ``Trace.entries`` lists each step's key and label (a run
that shares a ``Known`` lists none), and an ``Ending`` (outcome, final
key, downgrade steps), built once, says how the run ended; the same
``Ending`` is what a later run that joins this one takes, and what the
oracle keeps.  ``Configuration`` is a key decoded by name
(``Table.view``), only for a reader: a trace's initial and final
configuration, and its text, rendered when it is read.

The points are built once per program by one loop over ``Program.flow``.
Each site has two points, to run and finished, whose ids are fixed as
``2 * site + finished``; no command is rewritten, hashed or compared.  A
point knows the ids of the points its step can reach and their labels:
every step's label but a real downgrade's, which carries the released
value, and a diagnostic's or a halt's.  A point to run holds its guard or
expression with each variable named by its slot, and the slots it writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Optional

from .policy import Policy
from .syntax import (
    Assign,
    Command,
    DeclassAssign,
    If,
    Input,
    Output,
    Program,
    SiteLabel,
    Skip,
    Var,
    While,
    eval_nodes,
    first_site,
    postfix,
    site_expr,
)

DEFAULT_BITS = 3
DEFAULT_CAPACITY = 8
DEFAULT_FUEL = 10_000

# Step labels.
PLAIN = "plain"
DECLASS = "declass"
HALTED = "halted"
INPUT_EXHAUSTED = "input-exhausted"
CAPACITY_EXCEEDED = "capacity-exceeded"

# Run outcomes.
OUTCOME_HALTED = HALTED
OUTCOME_DIVERGES = "diverges"
OUTCOME_FUEL = "nonterminating-within-budget"


@dataclass(frozen=True)
class StepLabel:
    kind: str  # PLAIN | DECLASS | HALTED | INPUT_EXHAUSTED | CAPACITY_EXCEEDED
    site: Optional[SiteLabel] = None
    value: Optional[int] = None  # declassified expression value for DECLASS
    # The rule applied, for the trace text.
    rule: str = field(default="", compare=False, repr=False)

    def __str__(self) -> str:
        if self.kind == DECLASS:
            return f"declass(g{self.site.id}, {self.value})"
        return self.kind


# The rule of a step by the type of its command; a real downgrade's is "declass".
_RULES = {Assign: "assign", DeclassAssign: "declass-ordinary", Input: "input", Output: "output"}


class Configuration(NamedTuple):
    """A key decoded, for a reader (``Table.view``): store, channels with
    their read indices, program point.

    ins maps each input channel to its full (immutable) contents; p is the
    per-channel read index.  outs holds the values written so far, so a
    stream's length is its write index.  point is where control is; a
    finished point with no successor means done.
    """

    mu: dict[str, int]
    ins: dict[str, tuple[int, ...]]
    outs: dict[str, tuple[int, ...]]
    p: dict[str, int]
    point: Point


class Point:
    """A program point: a site of ``Program.flow`` to run, or finished.

    Site i's points have the ids ``2 * i`` (to run) and ``2 * i + 1``
    (finished).  ``cmd`` is the site's command to run, or ``Skip`` of its
    site once finished; a source ``skip`` is entered finished.  ``next[k]``
    is the id of the point a step reaches by branch k (0 taken, 1 not
    taken, for an ``if`` or a ``while``; 0 for any other step), None where
    a finished point halts, and ``labels[k]`` that step's label, which a
    real downgrade's step replaces by one carrying the released value.
    ``nodes`` is the ``postfix`` list of a point to run's guard or
    expression, each variable named by its slot, and ``slots`` what it
    writes: a target, an output stream, or an input's target, contents
    and read index.
    """

    __slots__ = ("id", "cmd", "next", "labels", "nodes", "slots")

    def __init__(self, id: int) -> None:
        self.id = id  # point_table sets the rest


def _entry(cmd: Command) -> int:
    """The id of the point control enters ``cmd`` at: its first site's, to
    run, or finished for a ``skip``, which has nothing to run."""
    cmd = first_site(cmd)
    return 2 * cmd.site.id + (type(cmd) is Skip)


def point_table(table: Table) -> list[Point]:
    """The points of ``table.program`` by id, linked in one loop over its
    flow: a finished site goes to the entry of the next site (``seq-skip``)
    or halts; an ``if`` to a branch's entry; a ``while`` to its body's
    entry or to its finished point; any other command to its finished
    point.  Each point to run is compiled against the table's slots."""
    variables, contents, streams = table.variables, table.contents, table.streams
    flow = table.program.flow
    points = [Point(i) for i in range(2 * len(flow))]
    for (cmd, nxt, _), to_run, done in zip(flow, points[::2], points[1::2]):
        site, kind = cmd.site, type(cmd)
        done.cmd = Skip(site)
        done.next = (None if nxt is None else _entry(nxt),)
        done.labels = (StepLabel(PLAIN, site, rule="seq-skip"),)
        to_run.cmd = cmd
        e = site_expr(cmd)
        if e is not None:
            to_run.nodes = [Var(variables[n.name]) if type(n) is Var else n for n in postfix(e)]
        if kind is If:
            to_run.next = (_entry(cmd.then_branch), _entry(cmd.else_branch))
            rules = ("if-true", "if-false")
        elif kind is While:
            to_run.next, rules = (_entry(cmd.body), done.id), ("while-true", "while-false")
        elif kind is Skip:
            to_run.next, to_run.labels = done.next, done.labels
            continue
        else:  # an assignment, a downgrade, an input or an output
            to_run.next, rules = (done.id,), (_RULES[kind],)
            if kind is Output:
                to_run.slots = (streams[cmd.channel],)
            elif kind is Input:
                c = contents[cmd.channel]
                to_run.slots = (variables[cmd.target], c, c + len(contents))
            else:
                to_run.slots = (variables[cmd.target],)
        to_run.labels = tuple(StepLabel(PLAIN, site, rule=rule) for rule in rules)
    return points


class Table:
    """The slots of a program's keys, and its points (``point_table``),
    built on the first step.  A key is its point's id, then the values of
    ``program.variables``, the contents of each input channel, the read
    index of each, ``len(contents)`` slots after the contents, and the
    stream of each output channel, channels sorted by name.  ``view``
    decodes a key for a reader.
    """

    def __init__(self, program: Program) -> None:
        names, inputs, outputs = program.variables, program.input_channels, program.output_channels
        self.program, self.entry, first = program, _entry(program.sites[0]), 1 + len(names)
        self.variables = {name: slot for slot, name in enumerate(names, 1)}
        self.contents = {name: slot for slot, name in enumerate(inputs, first)}
        self.streams = {name: slot for slot, name in enumerate(outputs, first + 2 * len(inputs))}
        self.tail = (0,) * len(inputs) + ((),) * len(outputs)

    def start(self, values: Iterable[int], contents: Iterable[tuple[int, ...]]) -> tuple:
        """The key at the entry with the variables' ``values`` and the input
        ``contents``, in slot order, before any read or write."""
        return (self.entry, *values, *contents, *self.tail)

    @cached_property
    def points(self) -> list[Point]:
        return point_table(self)

    def view(self, key: tuple) -> Configuration:
        values, layout = iter(key[1:]), (self.variables, self.contents, self.contents, self.streams)
        mu, ins, p, outs = (dict(zip(slots, values)) for slots in layout)
        return Configuration(mu, ins, outs, p, self.points[key[0]])


def _is_real_declass(cmd: DeclassAssign, policy: Policy) -> bool:
    try:
        return policy.declass_real[cmd.site.id]
    except KeyError:
        raise ValueError(
            "declass site not classified; run gather_downgrades first"
        ) from None


_HALTED = StepLabel(HALTED)


def step_point(
    key: tuple, points: list[Point], policy: Policy, bits: int, capacity: int
) -> tuple[tuple, StepLabel]:
    """Apply the unique applicable rule to the configuration ``key`` at its
    point in ``points``.  A terminal configuration yields HALTED.

    A channel diagnostic or a halt leaves the key as it is.  Every other
    step's label is the point's, unless it is a real downgrade.
    """
    point = points[key[0]]
    cmd = point.cmd
    kind = type(cmd)
    nxt = point.next
    if kind is Assign or kind is DeclassAssign:
        (t,) = point.slots
        value = eval_nodes(point.nodes, key, bits)
        label = point.labels[0]
        if kind is DeclassAssign and _is_real_declass(cmd, policy):
            label = StepLabel(DECLASS, cmd.site, value, "declass")
        return (nxt[0], *key[1:t], value, *key[t + 1 :]), label
    if kind is If or kind is While:
        k = 0 if eval_nodes(point.nodes, key, bits) != 0 else 1
        return (nxt[k], *key[1:]), point.labels[k]
    if kind is Input:
        t, c, i = point.slots
        idx = key[i]
        if idx >= len(key[c]):
            return key, StepLabel(INPUT_EXHAUSTED, cmd.site, rule="input")
        value = key[c][idx] & ((1 << bits) - 1)  # t < i: a variable's slot, a read index's
        return (nxt[0], *key[1:t], value, *key[t + 1 : i], idx + 1, *key[i + 1 :]), point.labels[0]
    if kind is Output:
        (o,) = point.slots
        if len(key[o]) >= capacity:
            return key, StepLabel(CAPACITY_EXCEEDED, cmd.site, rule="output")
        stream = key[o] + (eval_nodes(point.nodes, key, bits),)
        return (nxt[0], *key[1:o], stream, *key[o + 1 :]), point.labels[0]
    if nxt[0] is None:  # a finished site with nothing after it
        return key, _HALTED
    return (nxt[0], *key[1:]), point.labels[0]


def _changed(label: StepLabel, before: Configuration, after: Configuration) -> str:
    """What a step wrote, as trace text: read off the command of the point
    it left and the configuration after it.  A diagnostic, and a finished
    point's step, write nothing."""
    if label.kind not in (PLAIN, DECLASS):
        return ""
    cmd = before.point.cmd
    kind = type(cmd)
    if kind is Assign or kind is DeclassAssign:
        return f"{cmd.target}={after.mu[cmd.target]}"
    if kind is Input:
        c = cmd.channel
        return f"{cmd.target}={after.mu[cmd.target]} p[{c}]={after.p[c]}"
    if kind is Output:
        c, q = cmd.channel, len(after.outs[cmd.channel])
        return f"{c}[{q - 1}]={after.outs[c][-1]} q[{c}]={q}"
    return ""


Downgrade = tuple[int, tuple, tuple, StepLabel]


class Ending(NamedTuple):
    """How a run ended: its outcome, its final key, and (index in the run,
    key before, key after, label) of each downgrade step, in order."""

    outcome: str
    end: tuple
    downgrades: list[Downgrade]

    def declass_events(self) -> list[tuple[int, int]]:
        """(site id, declassified value) for each downgrade step, in order."""
        return [(label.site.id, label.value) for _, _, _, label in self.downgrades]


@dataclass
class Trace:
    """Result of run(): the steps it took, and how it ended.

    ``entries`` is the one record of the steps: each step's key after it
    and its label; a run that shares a ``Known`` records none.  ``ending``
    holds its ``outcome``, ``end`` and ``downgrades``, the same as the run
    made alone; ``start`` is the key it started from.  Keys are decoded
    only when read: ``table.view`` decodes one, ``initial`` and ``final``
    the first and the last, and ``lines`` renders each step from its label
    and the configurations before and after it.
    """

    entries: list[tuple[tuple, StepLabel]]
    start: tuple
    ending: Ending = field(repr=False)
    table: Table = field(repr=False, compare=False)

    outcome = property(lambda self: self.ending.outcome)
    end = property(lambda self: self.ending.end)
    downgrades = property(lambda self: self.ending.downgrades)
    initial = property(lambda self: self.table.view(self.start))
    final = property(lambda self: self.table.view(self.end))

    @property
    def lines(self) -> list[str]:
        # A step's label names the site it left; a halted entry's point is
        # a finished site with nothing after it.
        view = self.table.view
        configs = [view(key) for key in (self.start, *(key for key, _ in self.entries))]
        return [
            f"g{after.point.cmd.site.id} | halt | halted |"
            if label.kind == HALTED
            else f"g{label.site.id} | {label.rule} | {label} | {_changed(label, before, after)}"
            for before, after, (_, label) in zip(configs, configs[1:], self.entries)
        ]

    def declass_events(self) -> list[tuple[int, int]]:
        """(site id, declassified value) for each downgrade step, in order:
        read off the labels of ``entries``, then of the downgrades after
        them: a join's, or all of a shared run's, which lists no entries."""
        own = len(self.entries)
        labels = [label for _, label in self.entries if label.kind == DECLASS]
        labels += [label for k, _, _, label in self.downgrades if k >= own]
        return [(label.site.id, label.value) for label in labels]


class Known:
    """What the runs of one program under one fuel share: the program's
    ``Table``, and the keys they stepped."""

    __slots__ = ("configs", "table")

    def __init__(self, program: Program) -> None:
        # key -> (ending, index in the run, distance to the end); see run
        self.configs: dict[tuple, tuple[Ending, int, int]] = {}
        self.table = Table(program)


def run(
    start: tuple,
    table: Table,
    policy: Policy,
    bits: int = DEFAULT_BITS,
    capacity: int = DEFAULT_CAPACITY,
    fuel: int = DEFAULT_FUEL,
    known: Optional[Known] = None,
) -> Trace:
    """Run from the key ``start`` of ``table`` to termination, a
    diagnostic, a repeated state, or fuel exhaustion.

    The machine is deterministic over a finite state space, so a repeated
    key proves divergence exactly; fuel is the fallback bound.

    ``known``, shared by the runs of one program under one fuel, lets a run
    take the rest of an earlier run: the machine is deterministic, so the
    future of a configuration is the same whichever run reaches it.  A run
    that did not run out of fuel registers each key it stepped with the
    run's ``Ending``, the key's index k, and the distance d from it to the
    run's end: the key whose step ended the run (halted or a channel
    diagnostic), or the one that repeated.  So d = end - k, except inside
    a diverging run's cycle, where d is the cycle length wherever the key
    sits: a run that enters the cycle there meets it again after one lap.
    A run out of fuel registers nothing, so every known future is exact.
    A run that meets a known key at its own index n ends at n + d, with
    the earlier outcome if n + d < fuel and out of fuel otherwise; its own
    earlier keys were not known, so they are not on the earlier run's path
    and cannot repeat first.  A run that ends at a join takes the earlier
    run's final key, and its downgrades from the meeting point on, each
    re-indexed into this run; they are a lone run's if the run ends by a
    step, not by a repeat or out of fuel.  A run that shares ``known``
    lists no step in its trace's ``entries``; without ``known`` a run is on
    its own, and its trace is complete.  Each step goes through
    ``step_point``.
    """
    points = table.points
    entries: list[tuple[tuple, StepLabel]] = []
    downgrades: list[Downgrade] = []
    seen: dict[tuple, int] = {}  # key -> index of each configuration stepped
    outcome = OUTCOME_FUEL
    configs = known.configs if known is not None else {}
    key = start
    for n in range(fuel):
        first = seen.setdefault(key, n)
        if first != n:
            outcome, end, loop = OUTCOME_DIVERGES, n, first
            break
        hit = configs.get(key)
        if hit is not None:
            earlier, i, d = hit
            del seen[key]  # registered by the earlier run
            outcome = earlier.outcome if n + d < fuel else OUTCOME_FUEL
            end, loop, key = n + d, n + d, earlier.end  # where it ended
            downgrades += [(n + j - i, *step) for j, *step in earlier.downgrades if j >= i]
            break
        after, label = step_point(key, points, policy, bits, capacity)
        if known is None:
            entries.append((after, label))
        kind = label.kind
        if kind == DECLASS:
            downgrades.append((n, key, after, label))
        key = after
        # Each terminal label is also the outcome it ends the run with.
        if kind in (HALTED, INPUT_EXHAUSTED, CAPACITY_EXCEEDED):
            outcome, end, loop = kind, n, n
            break
    ending = Ending(outcome, key, downgrades)
    if known is not None and outcome != OUTCOME_FUEL:
        for stepped, k in seen.items():
            configs[stepped] = (ending, k, end - (k if k < loop else loop))
    return Trace(entries, start, ending, table)


def run_program(
    program: Program,
    policy: Policy,
    store: dict[str, int] | None = None,
    inputs: dict[str, Iterable[int]] | None = None,
    bits: int = DEFAULT_BITS,
    capacity: int = DEFAULT_CAPACITY,
    fuel: int = DEFAULT_FUEL,
    known: Optional[Known] = None,
    *,
    table: Optional[Table] = None,
    start: Optional[tuple] = None,
) -> Trace:
    """Run ``program`` from ``start``, a key of its table, or else from its
    entry with ``store`` and ``inputs``: each store value wraps, as a
    read's does, and a store that names no variable of the program raises
    ValueError.  The table is ``known``'s, else ``table``, else a new one."""
    table = known.table if known is not None else table or Table(program)
    if start is None:
        values = dict.fromkeys(program.variables, 0)
        for name, value in (store or {}).items():
            if name not in values:
                raise ValueError(f"the store names {name!r}, which is no variable of the program")
            values[name] = value & ((1 << bits) - 1)
        contents = [tuple(inputs.get(n, ())) if inputs else () for n in program.input_channels]
        start = table.start(values.values(), contents)
    return run(start, table, policy, bits, capacity, fuel, known)


# ---------------------------------------------------------------------------
# Observational equivalence at a level


def low_equiv_store(
    mu1: dict[str, int], mu2: dict[str, int], level: str, policy: Policy
) -> bool:
    """Stores agree on every variable whose level flows to the observer."""
    for name in set(mu1) | set(mu2):
        if name in policy.sigma and policy.observable(name, level):
            if mu1.get(name) != mu2.get(name):
                return False
    return True


def format_trace(trace: Trace) -> str:
    return "\n".join(trace.lines + [f"outcome: {trace.outcome}"])

