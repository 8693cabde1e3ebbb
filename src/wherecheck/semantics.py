"""Concrete small-step semantics over fixed-width unsigned values.

Values are unsigned integers reduced modulo 2**bits (bits defaults to 3);
zero is false, anything else true.  Input channels are finite lists consumed
by a read index p; output channels are append-only lists guarded by a
capacity bound, tracked by a write index q.  Reading past an input or
writing past the capacity ends the run with a terminal diagnostic label
rather than an error.
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

    def __str__(self) -> str:
        if self.kind == DECLASS:
            return f"declass(g{self.site.id}, {self.value})"
        return self.kind


@dataclass(frozen=True)
class Configuration:
    """Machine state: store, channels with their indices, remaining command.

    ins maps each input channel to its full (immutable) contents; p is the
    per-channel read index.  outs holds values written so far; q mirrors the
    written count.  cmd is the remaining command; a lone Skip means done.
    """

    mu: dict[str, int]
    ins: dict[str, tuple[int, ...]]
    outs: dict[str, tuple[int, ...]]
    p: dict[str, int]
    q: dict[str, int]
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
    q: dict[str, int] = {}
    for name, direction in sorted(program.channels.items()):
        if direction == "input":
            ins[name] = tuple(inputs.get(name, ())) if inputs else ()
            p[name] = 0
        else:
            outs[name] = ()
            q[name] = 0
    return Configuration(mu=mu, ins=ins, outs=outs, p=p, q=q, cmd=program.root)


@dataclass
class _StepResult:
    config: Configuration
    label: StepLabel
    rule: str
    changed: str


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
) -> _StepResult:
    """Apply the unique applicable rule; terminal configs yield HALTED."""
    if config.terminated():
        return _StepResult(config, StepLabel(HALTED), "halt", "")
    return _step_command(config, config.cmd, policy, bits, capacity)


def _step_command(
    config: Configuration,
    cmd: Command,
    policy: Policy,
    bits: int,
    capacity: int,
) -> _StepResult:
    match cmd:
        case Seq(first, second):
            if isinstance(first, Skip):
                new = Configuration(config.mu, config.ins, config.outs, config.p, config.q, second)
                return _StepResult(new, StepLabel(PLAIN, first.site), "seq-skip", "")
            inner = _step_command(config, first, policy, bits, capacity)
            if inner.label.kind in (INPUT_EXHAUSTED, CAPACITY_EXCEEDED):
                return inner
            c = inner.config
            new = Configuration(c.mu, c.ins, c.outs, c.p, c.q, Seq(c.cmd, second))
            return _StepResult(new, inner.label, inner.rule, inner.changed)
        case Assign(site, target, expr):
            value = eval_expr(expr, config.mu, bits)
            mu = dict(config.mu)
            mu[target] = value
            new = Configuration(mu, config.ins, config.outs, config.p, config.q, Skip(site))
            return _StepResult(new, StepLabel(PLAIN, site), "assign", f"{target}={value}")
        case DeclassAssign(site, target, expr):
            value = eval_expr(expr, config.mu, bits)
            mu = dict(config.mu)
            mu[target] = value
            new = Configuration(mu, config.ins, config.outs, config.p, config.q, Skip(site))
            if _is_real_declass(cmd, policy):
                label = StepLabel(DECLASS, site, value)
                return _StepResult(new, label, "declass", f"{target}={value}")
            return _StepResult(new, StepLabel(PLAIN, site), "declass-ordinary", f"{target}={value}")
        case If(site, guard, then_branch, else_branch):
            taken = eval_expr(guard, config.mu, bits) != 0
            branch = then_branch if taken else else_branch
            new = Configuration(config.mu, config.ins, config.outs, config.p, config.q, branch)
            rule = "if-true" if taken else "if-false"
            return _StepResult(new, StepLabel(PLAIN, site), rule, "")
        case While(site, guard, body):
            if eval_expr(guard, config.mu, bits) != 0:
                new = Configuration(
                    config.mu, config.ins, config.outs, config.p, config.q, Seq(body, cmd)
                )
                return _StepResult(new, StepLabel(PLAIN, site), "while-true", "")
            new = Configuration(config.mu, config.ins, config.outs, config.p, config.q, Skip(site))
            return _StepResult(new, StepLabel(PLAIN, site), "while-false", "")
        case Input(site, target, channel):
            idx = config.p[channel]
            contents = config.ins[channel]
            if idx >= len(contents):
                return _StepResult(config, StepLabel(INPUT_EXHAUSTED, site), "input", "")
            value = contents[idx] & ((1 << bits) - 1)
            mu = dict(config.mu)
            mu[target] = value
            p = dict(config.p)
            p[channel] = idx + 1
            new = Configuration(mu, config.ins, config.outs, p, config.q, Skip(site))
            changed = f"{target}={value} p[{channel}]={idx + 1}"
            return _StepResult(new, StepLabel(PLAIN, site), "input", changed)
        case Output(site, expr, channel):
            idx = config.q[channel]
            if idx >= capacity:
                return _StepResult(config, StepLabel(CAPACITY_EXCEEDED, site), "output", "")
            value = eval_expr(expr, config.mu, bits)
            outs = dict(config.outs)
            outs[channel] = outs[channel] + (value,)
            q = dict(config.q)
            q[channel] = idx + 1
            new = Configuration(config.mu, config.ins, outs, config.p, q, Skip(site))
            changed = f"{channel}[{idx}]={value} q[{channel}]={idx + 1}"
            return _StepResult(new, StepLabel(PLAIN, site), "output", changed)
    raise TypeError(f"not a command: {cmd!r}")


Downgrade = tuple[int, Configuration, Configuration, StepLabel]


@dataclass
class Trace:
    """Result of run(): per-step entries plus the overall outcome.

    ``steps`` keeps the step result behind each entry, and ``lines`` formats
    their text only when read.  A run that took the rest of an earlier run
    (see ``run``) holds only its own steps in ``entries``, ``steps`` and
    ``lines``.  ``joined`` is then the earlier run's final configuration,
    and ``later`` its downgrade steps from the meeting point on, each as
    (index in this run, configuration before, after, label).
    """

    entries: list[tuple[Configuration, StepLabel]]
    outcome: str
    steps: list[_StepResult] = field(default_factory=list, repr=False)
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
            f"g{r.config.cmd.site.id} | halt | halted |"
            if r.label.kind == HALTED
            else f"g{r.label.site.id} | {r.rule} | {r.label} | {r.changed}"
            for r in self.steps
        ]

    def declass_events(self) -> list[tuple[int, int]]:
        """(site id, declassified value) for each downgrade step, in order."""
        return [
            (label.site.id, label.value)
            for _, label in self.entries
            if label.kind == DECLASS
        ] + [(label.site.id, label.value) for _, _, _, label in self.later]


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
    steps: list[_StepResult] = []
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
        result = step(current, policy, bits, capacity)
        entries.append((result.config, result.label))
        steps.append(result)
        # Each terminal label is also the outcome it ends the run with.
        if result.label.kind in (HALTED, INPUT_EXHAUSTED, CAPACITY_EXCEEDED):
            outcome, end, loop = result.label.kind, n, n
            break
        current = result.config
    trace = Trace(entries, outcome, steps, config, joined, later)
    if known is not None:
        downgrades = [
            (k, entries[k - 1][0] if k else config, after, label)
            for k, (after, label) in enumerate(entries)
            if label.kind == DECLASS
        ]
        ending = (outcome, trace.final, downgrades + later)
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

