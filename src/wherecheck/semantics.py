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


@dataclass
class Trace:
    """Result of run(): per-step entries plus the overall outcome.

    ``steps`` keeps the step result behind each entry, and ``lines`` formats
    their text only when read.
    """

    entries: list[tuple[Configuration, StepLabel]]
    outcome: str
    steps: list[_StepResult] = field(default_factory=list, repr=False)
    initial: Optional[Configuration] = None

    @property
    def final(self) -> Configuration:
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
        ]


def run(
    config: Configuration,
    policy: Policy,
    bits: int = DEFAULT_BITS,
    capacity: int = DEFAULT_CAPACITY,
    fuel: int = DEFAULT_FUEL,
) -> Trace:
    """Run to termination, a diagnostic, a repeated state, or fuel exhaustion.

    The machine is deterministic over a finite state space, so a repeated
    configuration proves divergence exactly; fuel is the fallback bound.
    A configuration's key lists the values of its store, read indices and
    outputs without their names: every configuration of one run holds the
    same names in the same order, and its input contents never change.
    """
    entries: list[tuple[Configuration, StepLabel]] = []
    steps: list[_StepResult] = []
    seen: set[tuple] = set()
    current = config
    for _ in range(fuel):
        if not current.terminated():
            key = (
                tuple(current.mu.values()),
                tuple(current.p.values()),
                tuple(current.outs.values()),
                id_free_command_key(current.cmd),
            )
            if key in seen:
                return Trace(entries, OUTCOME_DIVERGES, steps, initial=config)
            seen.add(key)
        result = step(current, policy, bits, capacity)
        entries.append((result.config, result.label))
        steps.append(result)
        # Each terminal label is also the outcome it ends the run with.
        if result.label.kind in (HALTED, INPUT_EXHAUSTED, CAPACITY_EXCEEDED):
            return Trace(entries, result.label.kind, steps, initial=config)
        current = result.config
    return Trace(entries, OUTCOME_FUEL, steps, initial=config)


def run_program(
    program: Program,
    policy: Policy,
    store: dict[str, int] | None = None,
    inputs: dict[str, Iterable[int]] | None = None,
    bits: int = DEFAULT_BITS,
    capacity: int = DEFAULT_CAPACITY,
    fuel: int = DEFAULT_FUEL,
) -> Trace:
    config = initial_configuration(program, store, inputs)
    return run(config, policy, bits, capacity, fuel)


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


def format_trace(trace: Trace) -> str:
    return "\n".join(trace.lines + [f"outcome: {trace.outcome}"])

