"""Concrete small-step semantics over fixed-width unsigned values.

Values are unsigned integers reduced modulo 2**bits (bits defaults to 3);
zero is false, anything else true.  Input channels are finite lists consumed
by a read index p; output channels are append-only lists guarded by a
capacity bound, and a stream's length is its write index.  Reading past an
input or writing past the capacity ends the run with a terminal diagnostic
label rather than an error.

A run is recorded once: ``Trace.entries`` lists each step's configuration
and label, the label carries the step's trace text, and
``Trace.downgrades`` is the one definition of a run's downgrade steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

    def terminated(self) -> bool:
        return isinstance(self.cmd, Skip)


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


def step(
    config: Configuration,
    policy: Policy,
    bits: int = DEFAULT_BITS,
    capacity: int = DEFAULT_CAPACITY,
) -> tuple[Configuration, StepLabel]:
    """Apply the unique applicable rule; terminal configs yield HALTED."""
    if config.terminated():
        return config, StepLabel(HALTED)
    return _step_command(config, config.cmd, policy, bits, capacity)


def _step_command(
    config: Configuration,
    cmd: Command,
    policy: Policy,
    bits: int,
    capacity: int,
) -> tuple[Configuration, StepLabel]:
    match cmd:
        case Seq(first, second):
            if isinstance(first, Skip):
                new = Configuration(config.mu, config.ins, config.outs, config.p, second)
                return new, StepLabel(PLAIN, first.site, rule="seq-skip")
            inner, label = _step_command(config, first, policy, bits, capacity)
            if label.kind in (INPUT_EXHAUSTED, CAPACITY_EXCEEDED):
                return inner, label
            new = Configuration(inner.mu, inner.ins, inner.outs, inner.p, Seq(inner.cmd, second))
            return new, label
        case Assign(site, target, expr):
            value = eval_expr(expr, config.mu, bits)
            mu = dict(config.mu)
            mu[target] = value
            new = Configuration(mu, config.ins, config.outs, config.p, Skip(site))
            return new, StepLabel(PLAIN, site, None, "assign", f"{target}={value}")
        case DeclassAssign(site, target, expr):
            value = eval_expr(expr, config.mu, bits)
            mu = dict(config.mu)
            mu[target] = value
            new = Configuration(mu, config.ins, config.outs, config.p, Skip(site))
            if _is_real_declass(cmd, policy):
                return new, StepLabel(DECLASS, site, value, "declass", f"{target}={value}")
            return new, StepLabel(PLAIN, site, None, "declass-ordinary", f"{target}={value}")
        case If(site, guard, then_branch, else_branch):
            taken = eval_expr(guard, config.mu, bits) != 0
            branch = then_branch if taken else else_branch
            new = Configuration(config.mu, config.ins, config.outs, config.p, branch)
            return new, StepLabel(PLAIN, site, rule="if-true" if taken else "if-false")
        case While(site, guard, body):
            if eval_expr(guard, config.mu, bits) != 0:
                new = Configuration(config.mu, config.ins, config.outs, config.p, Seq(body, cmd))
                return new, StepLabel(PLAIN, site, rule="while-true")
            new = Configuration(config.mu, config.ins, config.outs, config.p, Skip(site))
            return new, StepLabel(PLAIN, site, rule="while-false")
        case Input(site, target, channel):
            idx = config.p[channel]
            contents = config.ins[channel]
            if idx >= len(contents):
                return config, StepLabel(INPUT_EXHAUSTED, site, rule="input")
            value = contents[idx] & ((1 << bits) - 1)
            mu = dict(config.mu)
            mu[target] = value
            p = dict(config.p)
            p[channel] = idx + 1
            new = Configuration(mu, config.ins, config.outs, p, Skip(site))
            changed = f"{target}={value} p[{channel}]={idx + 1}"
            return new, StepLabel(PLAIN, site, None, "input", changed)
        case Output(site, expr, channel):
            idx = len(config.outs[channel])
            if idx >= capacity:
                return config, StepLabel(CAPACITY_EXCEEDED, site, rule="output")
            value = eval_expr(expr, config.mu, bits)
            outs = dict(config.outs)
            outs[channel] = outs[channel] + (value,)
            new = Configuration(config.mu, config.ins, outs, config.p, Skip(site))
            changed = f"{channel}[{idx}]={value} q[{channel}]={idx + 1}"
            return new, StepLabel(PLAIN, site, None, "output", changed)
    raise TypeError(f"not a command: {cmd!r}")


Downgrade = tuple[int, Configuration, Configuration, StepLabel]


@dataclass
class Trace:
    """Result of run(): per-step entries plus the overall outcome.

    ``entries`` is the one record of the steps: each step's configuration
    after it and its label, whose trace text ``lines`` formats only when
    read.  A run that took the rest of an earlier run (see ``run``) holds
    only its own steps in ``entries``.  ``joined`` is then the earlier run's
    final configuration, and ``later`` its downgrade steps from the meeting
    point on, in the form of ``downgrades``.
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

    @property
    def downgrades(self) -> list[Downgrade]:
        """(index in the run, configuration before, after, label) of each
        downgrade step, in order: the run's own entries, then ``later``."""
        own, before = [], self.initial
        for k, (after, label) in enumerate(self.entries):
            if label.kind == DECLASS:
                own.append((k, before, after, label))
            before = after
        return own + self.later

    def declass_events(self) -> list[tuple[int, int]]:
        """(site id, declassified value) for each downgrade step, in order."""
        return [(label.site.id, label.value) for _, _, _, label in self.downgrades]


# What a run registers in ``known`` for each configuration it stepped: the
# run's (outcome, final configuration, downgrades), then the configuration's
# index in the run and its distance to the run's end.
Known = dict[tuple, tuple[tuple[str, Configuration, list[Downgrade]], int, int]]


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
    outputs and input contents without their names: every configuration of
    one run holds the same names in the same order, and so does every run
    of one program whose store names only the program's variables.

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
    its own, and its trace is complete.
    """
    entries: list[tuple[Configuration, StepLabel]] = []
    seen: dict[tuple, int] = {}  # key -> index of each configuration stepped
    ins = tuple(config.ins.values())
    outcome, end, loop, joined, later = OUTCOME_FUEL, fuel, fuel, None, []
    lookup = known
    current = config
    for n in range(fuel):
        key = (
            tuple(current.mu.values()),
            tuple(current.p.values()),
            tuple(current.outs.values()),
            ins,
            id_free_command_key(current.cmd),
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
        current, label = step(current, policy, bits, capacity)
        entries.append((current, label))
        # Each terminal label is also the outcome it ends the run with.
        if label.kind in (HALTED, INPUT_EXHAUSTED, CAPACITY_EXCEEDED):
            outcome, end, loop = label.kind, n, n
            break
    trace = Trace(entries, outcome, config, joined, later)
    if known is not None:
        ending = (outcome, trace.final, trace.downgrades)
        for key, k in seen.items():
            known[key] = (ending, k, end - (k if k < loop else loop))
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

