"""Concrete small-step semantics over fixed-width unsigned values.

Values are unsigned integers reduced modulo 2**bits (bits defaults to 3);
zero is false, anything else true.  Input channels are finite lists consumed
by a read index p; output channels are append-only lists guarded by a
capacity bound, and a stream's length is its write index.  Reading past an
input or writing past the capacity ends the run with a terminal diagnostic
label rather than an error.

A run is recorded once: ``Trace.entries`` lists each step's configuration
and label, the label carries the step's trace text, and
``Trace.downgrades`` is the one definition of a run's downgrade steps,
computed once per run.

The interpreter steps through a table of program points.  A point is one
remaining command of a program, interned once with an int id: it knows its
redex, the points its step can reach and the labels that depend on nothing
but the point.  A step evaluates only the redex's expressions; the next
remaining command is the successor point's, built when that point was
interned, so ``Configuration.cmd`` is the same structural command as a
tree-rewriting step would build, and a configuration's key names its
command by the point id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

from .policy import Policy
from .syntax import (
    Assign,
    BinOp,
    Command,
    DeclassAssign,
    Expr,
    If,
    Input,
    Num,
    Output,
    Program,
    Seq,
    SiteLabel,
    Skip,
    Var,
    While,
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


def eval_expr(e: Expr, store: dict[str, int], bits: int) -> int:
    """Evaluate an expression; arithmetic wraps modulo 2**bits."""
    mask = (1 << bits) - 1
    match e:
        case Num(value):
            return value & mask
        case Var(name):
            return store[name]
        case BinOp(op, left, right):
            a = eval_expr(left, store, bits)
            b = eval_expr(right, store, bits)
            if op == "+":
                return (a + b) & mask
            if op == "-":
                return (a - b) & mask
            if op == "*":
                return (a * b) & mask
            if op == "==":
                return int(a == b)
            if op == "!=":
                return int(a != b)
            if op == "<":
                return int(a < b)
            if op == "<=":
                return int(a <= b)
            if op == "&":
                return a & b
            if op == "|":
                return a | b
            raise ValueError(f"unknown operator {op!r}")
    raise TypeError(f"not an expression: {e!r}")


@dataclass(frozen=True)
class StepLabel:
    kind: str  # PLAIN | DECLASS | HALTED | INPUT_EXHAUSTED | CAPACITY_EXCEEDED
    site: Optional[SiteLabel] = None
    value: Optional[int] = None  # declassified expression value for DECLASS
    # The step's trace text: the rule applied and what it changed.
    rule: str = field(default="", compare=False, repr=False)
    changed: str = field(default="", compare=False, repr=False)

    def __str__(self) -> str:
        if self.kind == DECLASS:
            return f"declass(g{self.site.id}, {self.value})"
        return self.kind


@dataclass(frozen=True)
class Configuration:
    """Machine state: store, channels with their read indices, remaining command.

    ins maps each input channel to its full (immutable) contents; p is the
    per-channel read index.  outs holds the values written so far, so a
    stream's length is its write index.  cmd is the remaining command; a
    lone Skip means done.
    """

    mu: dict[str, int]
    ins: dict[str, tuple[int, ...]]
    outs: dict[str, tuple[int, ...]]
    p: dict[str, int]
    cmd: Command


def id_free_command_key(cmd: Command):
    """Structural key of the remaining command.

    The node type matters: a reduced Skip reuses the site id of the command
    it replaced, so the id alone would conflate pre- and post-states of
    assignments that happen to leave the store unchanged.
    """
    match cmd:
        case Seq(first, second):
            return ("seq", id_free_command_key(first), id_free_command_key(second))
        case _:
            return (type(cmd).__name__, cmd.site.id)


class Point:
    """A remaining command of a program, interned once in a ``Points`` table.

    ``key`` is the command's ``id_free_command_key``.  ``redex`` is what a
    step reduces: the head of ``cmd`` below its ``Seq`` spine, or the
    ``Seq(Skip, rest)`` that drops a finished head, or the lone ``Skip`` of a
    finished run; ``redex_key`` is its key.  ``next[k]`` is the point a step
    reaches by branch k (0 taken, 1 not taken, for an ``if`` or a ``while``;
    0 for any other step), and ``labels[k]`` its step label when that
    depends on nothing but the point; both are set on the first step by
    that branch.
    """

    __slots__ = ("id", "cmd", "key", "redex", "redex_key", "next", "labels")

    def __init__(self, id: int, cmd: Command, key: tuple) -> None:
        self.id, self.cmd, self.key = id, cmd, key
        while type(cmd) is Seq and type(cmd.first) is not Skip:
            cmd, key = cmd.first, key[1]
        self.redex, self.redex_key = cmd, key
        self.next: list[Optional[Point]] = [None, None]
        self.labels: list[Optional[StepLabel]] = [None, None]


def _plug(cmd: Command, key: tuple, result: Command, result_key: tuple) -> tuple[Command, tuple]:
    """``cmd``, whose key is ``key``, with its redex replaced by ``result``;
    and the key of that, built from the keys of the parts it keeps."""
    if type(cmd) is Seq and type(cmd.first) is not Skip:
        first, first_key = _plug(cmd.first, key[1], result, result_key)
        return Seq(first, cmd.second), ("seq", first_key, key[2])
    return result, result_key


class Points:
    """The program points of one program, each interned once by its key.

    A successor's key is built from the keys of the parts of the command
    that it keeps (``_plug``), so ``id_free_command_key`` walks only a run's
    first command and the branches and loop bodies a step enters.
    """

    def __init__(self) -> None:
        self._by_key: dict[tuple, Point] = {}
        # A run's first command, usually the program's root, is found by
        # identity; the point holds the command, so its id is not reused.
        self._by_id: dict[int, Point] = {}

    def __len__(self) -> int:
        return len(self._by_key)

    def of(self, cmd: Command) -> Point:
        """The point of ``cmd``, interned on first sight."""
        found = self._by_id.get(id(cmd))
        if found is None:
            key = id_free_command_key(cmd)
            found = self._by_key.get(key)
            if found is None:
                found = self._by_key[key] = Point(len(self._by_key), cmd, key)
                self._by_id[id(cmd)] = found
        return found

    def successor(self, point: Point, k: int) -> Point:
        """Set and return ``point.next[k]``, and ``point.labels[k]``."""
        redex = point.redex
        kind = type(redex)
        if kind is Seq:
            result, result_key = redex.second, point.redex_key[2]
            point.labels[k] = StepLabel(PLAIN, redex.first.site, rule="seq-skip")
        elif kind is If:
            result = redex.else_branch if k else redex.then_branch
            result_key = id_free_command_key(result)
            point.labels[k] = StepLabel(PLAIN, redex.site, rule=("if-true", "if-false")[k])
        elif kind is While:
            if k:
                result = Skip(redex.site)
                result_key = ("Skip", redex.site.id)
            else:
                result = Seq(redex.body, redex)
                result_key = ("seq", id_free_command_key(redex.body), point.redex_key)
            point.labels[k] = StepLabel(PLAIN, redex.site, rule=("while-true", "while-false")[k])
        else:  # an assignment, a downgrade, an input or an output
            result = Skip(redex.site)
            result_key = ("Skip", redex.site.id)  # as id_free_command_key(result)
        cmd, key = _plug(point.cmd, point.key, result, result_key)
        found = self._by_key.get(key)
        if found is None:
            found = self._by_key[key] = Point(len(self._by_key), cmd, key)
        point.next[k] = found
        return found


def initial_configuration(
    program: Program,
    store: dict[str, int] | None = None,
    inputs: dict[str, Iterable[int]] | None = None,
) -> Configuration:
    mu = {name: 0 for name in program.variables}
    if store:
        mu.update(store)
    ins: dict[str, tuple[int, ...]] = {}
    outs: dict[str, tuple[int, ...]] = {}
    p: dict[str, int] = {}
    for name, direction in sorted(program.channels.items()):
        if direction == "input":
            ins[name] = tuple(inputs.get(name, ())) if inputs else ()
            p[name] = 0
        else:
            outs[name] = ()
    return Configuration(mu=mu, ins=ins, outs=outs, p=p, cmd=program.root)


def _is_real_declass(cmd: DeclassAssign, policy: Policy) -> bool:
    try:
        return policy.declass_real[cmd.site.id]
    except KeyError:
        raise ValueError(
            "declass site not classified; run gather_downgrades first"
        ) from None


_HALTED = StepLabel(HALTED)


def step_point(
    config: Configuration,
    point: Point,
    points: Points,
    policy: Policy,
    bits: int,
    capacity: int,
) -> tuple[Configuration, StepLabel, Point]:
    """Apply the unique applicable rule to ``config``, whose remaining
    command is ``point``'s; also returns the point after.  A terminal
    configuration yields HALTED.

    A channel diagnostic or a halt leaves the configuration and the point.
    """
    redex = point.redex
    kind = type(redex)
    mu, ins, outs, p = config.mu, config.ins, config.outs, config.p
    if kind is Assign or kind is DeclassAssign:
        target, site = redex.target, redex.site
        after = point.next[0] or points.successor(point, 0)
        value = eval_expr(redex.expr, mu, bits)
        mu = dict(mu)
        mu[target] = value
        changed = f"{target}={value}"
        if kind is Assign:
            label = StepLabel(PLAIN, site, None, "assign", changed)
        elif _is_real_declass(redex, policy):
            label = StepLabel(DECLASS, site, value, "declass", changed)
        else:
            label = StepLabel(PLAIN, site, None, "declass-ordinary", changed)
        return Configuration(mu, ins, outs, p, after.cmd), label, after
    if kind is If or kind is While:
        k = 0 if eval_expr(redex.guard, mu, bits) != 0 else 1
        after = point.next[k] or points.successor(point, k)
        return Configuration(mu, ins, outs, p, after.cmd), point.labels[k], after
    if kind is Seq:
        after = point.next[0] or points.successor(point, 0)
        return Configuration(mu, ins, outs, p, after.cmd), point.labels[0], after
    if kind is Skip:
        return config, _HALTED, point
    if kind is Input:
        target, channel, site = redex.target, redex.channel, redex.site
        idx = p[channel]
        contents = ins[channel]
        if idx >= len(contents):
            return config, StepLabel(INPUT_EXHAUSTED, site, rule="input"), point
        after = point.next[0] or points.successor(point, 0)
        value = contents[idx] & ((1 << bits) - 1)
        mu = dict(mu)
        mu[target] = value
        p = dict(p)
        p[channel] = idx + 1
        changed = f"{target}={value} p[{channel}]={idx + 1}"
        label = StepLabel(PLAIN, site, None, "input", changed)
        return Configuration(mu, ins, outs, p, after.cmd), label, after
    if kind is not Output:
        raise TypeError(f"not a command: {redex!r}")
    channel, site = redex.channel, redex.site
    idx = len(outs[channel])
    if idx >= capacity:
        return config, StepLabel(CAPACITY_EXCEEDED, site, rule="output"), point
    after = point.next[0] or points.successor(point, 0)
    value = eval_expr(redex.expr, mu, bits)
    outs = dict(outs)
    outs[channel] = outs[channel] + (value,)
    changed = f"{channel}[{idx}]={value} q[{channel}]={idx + 1}"
    label = StepLabel(PLAIN, site, None, "output", changed)
    return Configuration(mu, ins, outs, p, after.cmd), label, after


Downgrade = tuple[int, Configuration, Configuration, StepLabel]


@dataclass
class Trace:
    """Result of run(): per-step entries plus the overall outcome.

    ``entries`` is the one record of the steps: each step's configuration
    after it and its label, which carries the step's rule and changed text;
    ``lines`` joins them into trace lines only when read.  A run that took
    the rest of an earlier run (see ``run``) holds only its own steps in
    ``entries``.  ``joined`` is then the earlier run's final configuration,
    and ``later`` its downgrade steps from the meeting point on, in the form
    of ``downgrades``.
    """

    entries: list[tuple[Configuration, StepLabel]]
    outcome: str
    initial: Optional[Configuration] = None
    joined: Optional[Configuration] = field(default=None, repr=False)
    later: list[Downgrade] = field(default_factory=list, repr=False)

    @property
    def final(self) -> Configuration:
        if self.joined is not None:
            return self.joined
        return self.entries[-1][0] if self.entries else self.initial

    @property
    def lines(self) -> list[str]:
        # A step's label names the command it reduced, the head of the
        # remaining command; a halted entry's command is a lone Skip.
        return [
            f"g{config.cmd.site.id} | halt | halted |"
            if label.kind == HALTED
            else f"g{label.site.id} | {label.rule} | {label} | {label.changed}"
            for config, label in self.entries
        ]

    @cached_property
    def downgrades(self) -> list[Downgrade]:
        """(index in the run, configuration before, after, label) of each
        downgrade step, in order: the run's own entries, then ``later``.
        Computed once per trace; ``run`` and the oracle both read it."""
        own, before = [], self.initial
        for k, (after, label) in enumerate(self.entries):
            if label.kind == DECLASS:
                own.append((k, before, after, label))
            before = after
        return own + self.later

    def declass_events(self) -> list[tuple[int, int]]:
        """(site id, declassified value) for each downgrade step, in order."""
        return [(label.site.id, label.value) for _, _, _, label in self.downgrades]


# What a run registers in ``Known.configs`` for each configuration it
# stepped: the run's (outcome, final configuration, downgrades), then the
# configuration's index in the run and its distance to the run's end.
Ending = tuple[tuple[str, Configuration, list[Downgrade]], int, int]


class Known:
    """What the runs of one program under one fuel share: the configurations
    they stepped, by key, and the program points those keys name."""

    __slots__ = ("configs", "points")

    def __init__(self) -> None:
        self.configs: dict[tuple, Ending] = {}
        self.points = Points()


def run(
    config: Configuration,
    policy: Policy,
    bits: int = DEFAULT_BITS,
    capacity: int = DEFAULT_CAPACITY,
    fuel: int = DEFAULT_FUEL,
    known: Optional[Known] = None,
) -> Trace:
    """Run to termination, a diagnostic, a repeated state, or fuel exhaustion.

    The machine is deterministic over a finite state space, so a repeated
    configuration proves divergence exactly; fuel is the fallback bound.
    A configuration's key lists the values of its store, read indices,
    outputs and input contents without their names, and the id of its
    remaining command's point: every configuration of one run holds the
    same names in the same order, and so does every run of one program
    whose store names only the program's variables.  The points come from
    ``known.points``, or from a table of the run's own without ``known``.

    ``known``, shared by the runs of one program under one fuel, lets a run
    take the rest of an earlier run: the machine is deterministic, so the
    future of a configuration is the same whichever run reaches it.  A run
    registers each configuration it stepped, at its index k, with the
    distance d from it to the run's end: the configuration whose step ended
    the run (halted or a channel diagnostic), or the one that repeated.  So
    d = end - k, except inside a diverging run's cycle, where d is the cycle
    length wherever the configuration sits: a run that enters the cycle
    there meets it again after one lap.  For a run out of fuel, d = fuel - k
    is only a lower bound.  A run that meets a known configuration at its
    own index n ends at n + d, with the earlier outcome if n + d < fuel and
    out of fuel otherwise; its own earlier configurations were not known,
    so they are not on the earlier run's path and cannot repeat first.  If
    the earlier run ran out of fuel and n + d < fuel, the rest is unknown:
    the run steps on and joins no other run, since its next configurations
    may lie on known paths.  A run that ends at a join takes the earlier
    run's final configuration and its downgrades from the meeting point on
    (``joined`` and ``later``); they are a lone run's if the run ends by a
    step, not by a repeat or out of fuel.  Without ``known`` a run is on
    its own, and its trace is complete.  Each step goes through
    ``step_point``.
    """
    entries: list[tuple[Configuration, StepLabel]] = []
    seen: dict[tuple, int] = {}  # key -> index of each configuration stepped
    ins = tuple(config.ins.values())
    outcome, end, loop, joined, later = OUTCOME_FUEL, fuel, fuel, None, []
    points = known.points if known is not None else Points()
    lookup = known.configs if known is not None else None
    current, point = config, points.of(config.cmd)
    for n in range(fuel):
        key = (
            tuple(current.mu.values()),
            tuple(current.p.values()),
            tuple(current.outs.values()),
            ins,
            point.id,
        )
        first = seen.setdefault(key, n)
        if first != n:
            outcome, end, loop = OUTCOME_DIVERGES, n, first
            break
        hit = lookup.get(key) if lookup is not None else None
        if hit is not None:
            (ended, final, rest), i, d = hit
            if n + d < fuel and ended == OUTCOME_FUEL:
                lookup = None  # the rest is unknown: step on, and join no more
            else:
                del seen[key]  # registered by the earlier run
                outcome = ended if n + d < fuel else OUTCOME_FUEL
                end, loop, joined = n + d, n + d, final
                later = [(n + j - i, pre, post, label) for j, pre, post, label in rest if j >= i]
                break
        current, label, point = step_point(current, point, points, policy, bits, capacity)
        entries.append((current, label))
        # Each terminal label is also the outcome it ends the run with.
        if label.kind in (HALTED, INPUT_EXHAUSTED, CAPACITY_EXCEEDED):
            outcome, end, loop = label.kind, n, n
            break
    trace = Trace(entries, outcome, config, joined, later)
    if known is not None:
        ending = (outcome, trace.final, trace.downgrades)
        configs = known.configs
        for key, k in seen.items():
            configs[key] = (ending, k, end - (k if k < loop else loop))
    return trace


def run_program(
    program: Program,
    policy: Policy,
    store: dict[str, int] | None = None,
    inputs: dict[str, Iterable[int]] | None = None,
    bits: int = DEFAULT_BITS,
    capacity: int = DEFAULT_CAPACITY,
    fuel: int = DEFAULT_FUEL,
    known: Optional[Known] = None,
) -> Trace:
    config = initial_configuration(program, store, inputs)
    return run(config, policy, bits, capacity, fuel, known)


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

