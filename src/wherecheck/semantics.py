"""Concrete small-step semantics over fixed-width unsigned values.

Values are unsigned integers reduced modulo 2**bits (bits defaults to 3):
a run's initial store, each input read, each constant and each operator's
result; zero is false, anything else true.  Input channels are finite
lists consumed by a read index p; output channels are append-only lists
guarded by a capacity bound, and a stream's length is its write index.  Reading past an
input or writing past the capacity ends the run with a terminal diagnostic
label rather than an error.

A run is recorded once: ``Trace.entries`` lists each step's configuration
and label, and an ``Ending`` (outcome, final configuration, downgrade
steps) says how the run ended.  ``run`` fills the downgrades in as it
steps; the same ``Ending`` is what a later run that joins this one takes,
and what the oracle keeps.  A trace's text is rendered only when it is
read, from each step's label and the configurations before and after it.

The interpreter steps through a table of program points, built once per
program by one loop over ``Program.flow``.  Each site has two points, to
run and finished, whose ids are fixed as ``2 * site + finished``; no
command is rewritten, hashed or compared.  A point knows the points its
step can reach and their labels: every step's label but a real
downgrade's, which carries the released value, and a diagnostic's or a
halt's.  A step evaluates only its point's expressions, and
``Configuration.point`` is the point it reaches, so a configuration's key
names its point by id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

from .policy import Policy
from .syntax import (
    Assign,
    Command,
    DeclassAssign,
    Expr,
    If,
    Input,
    Output,
    Program,
    SiteLabel,
    Skip,
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
    """Machine state: store, channels with their read indices, program point.

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
    is the point a step reaches by branch k (0 taken, 1 not taken, for an
    ``if`` or a ``while``; 0 for any other step), None where a finished
    point halts, and ``labels[k]`` that step's label, which a real
    downgrade's step replaces by one carrying the released value.
    ``nodes`` is the ``postfix`` list of a point to run's guard or
    expression, which its every step evaluates.
    """

    __slots__ = ("id", "cmd", "next", "labels", "nodes")

    def __init__(self, id: int) -> None:
        self.id = id  # point_table sets cmd, next, labels and nodes


def _entry(points: list[Point], cmd: Command) -> Point:
    """The point control enters ``cmd`` at: its first site's, to run, or
    finished for a ``skip``, which has nothing to run."""
    cmd = first_site(cmd)
    return points[2 * cmd.site.id + (type(cmd) is Skip)]


def point_table(program: Program) -> list[Point]:
    """The points of ``program`` by id, linked in one loop over its flow:
    a finished site goes to the entry of the next site (``seq-skip``) or
    halts; an ``if`` to a branch's entry; a ``while`` to its body's entry
    or to its finished point; any other command to its finished point."""
    points = [Point(i) for i in range(2 * len(program.flow))]
    for (cmd, nxt, _), to_run, done in zip(program.flow, points[::2], points[1::2]):
        site, kind = cmd.site, type(cmd)
        done.cmd = Skip(site)
        done.next = (None if nxt is None else _entry(points, nxt),)
        done.labels = (StepLabel(PLAIN, site, rule="seq-skip"),)
        to_run.cmd = cmd
        e = site_expr(cmd)
        if e is not None:
            to_run.nodes = postfix(e)
        if kind is If:
            to_run.next = (_entry(points, cmd.then_branch), _entry(points, cmd.else_branch))
            rules = ("if-true", "if-false")
        elif kind is While:
            to_run.next, rules = (_entry(points, cmd.body), done), ("while-true", "while-false")
        elif kind is Skip:
            to_run.next, to_run.labels = done.next, done.labels
            continue
        else:  # an assignment, a downgrade, an input or an output
            to_run.next, rules = (done,), (_RULES[kind],)
        to_run.labels = tuple(StepLabel(PLAIN, site, rule=rule) for rule in rules)
    return points


def initial_configuration(
    program: Program,
    store: dict[str, int] | None = None,
    inputs: dict[str, Iterable[int]] | None = None,
    points: Optional[list[Point]] = None,
) -> Configuration:
    """The configuration at the program's entry, in ``points``, or in a
    table of its own without them."""
    mu = {name: 0 for name in program.variables}
    if store:
        mu.update(store)
    ins = {n: tuple(inputs.get(n, ())) if inputs else () for n in program.input_channels}
    outs = {n: () for n in program.output_channels}
    p = dict.fromkeys(program.input_channels, 0)
    if points is None:
        points = point_table(program)
    return Configuration(mu, ins, outs, p, _entry(points, program.sites[0]))


def _is_real_declass(cmd: DeclassAssign, policy: Policy) -> bool:
    try:
        return policy.declass_real[cmd.site.id]
    except KeyError:
        raise ValueError(
            "declass site not classified; run gather_downgrades first"
        ) from None


_HALTED = StepLabel(HALTED)


def step_point(
    config: Configuration, policy: Policy, bits: int, capacity: int
) -> tuple[Configuration, StepLabel]:
    """Apply the unique applicable rule to ``config`` at its point.  A
    terminal configuration yields HALTED.

    A channel diagnostic or a halt leaves the configuration as it is.
    Every other step's label is the point's, unless it is a real downgrade.
    """
    point = config.point
    cmd = point.cmd
    kind = type(cmd)
    mu, ins, outs, p = config.mu, config.ins, config.outs, config.p
    k = 0
    if kind is Assign or kind is DeclassAssign:
        value = eval_nodes(point.nodes, mu, bits)
        mu = dict(mu)
        mu[cmd.target] = value
    elif kind is If or kind is While:
        k = 0 if eval_nodes(point.nodes, mu, bits) != 0 else 1
    elif kind is Input:
        channel = cmd.channel
        idx = p[channel]
        if idx >= len(ins[channel]):
            return config, StepLabel(INPUT_EXHAUSTED, cmd.site, rule="input")
        mu = dict(mu)
        mu[cmd.target] = ins[channel][idx] & ((1 << bits) - 1)
        p = dict(p)
        p[channel] = idx + 1
    elif kind is Output:
        channel = cmd.channel
        if len(outs[channel]) >= capacity:
            return config, StepLabel(CAPACITY_EXCEEDED, cmd.site, rule="output")
        outs = dict(outs)
        outs[channel] += (eval_nodes(point.nodes, mu, bits),)
    elif point.next[0] is None:  # a finished site with nothing after it
        return config, _HALTED
    label = point.labels[k]
    if kind is DeclassAssign and _is_real_declass(cmd, policy):
        label = StepLabel(DECLASS, cmd.site, value, "declass")
    return Configuration(mu, ins, outs, p, point.next[k]), label


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


Downgrade = tuple[int, Configuration, Configuration, StepLabel]


class Ending(NamedTuple):
    """How a run ended: its outcome, its final configuration, and (index in
    the run, configuration before, after, label) of each downgrade step, in
    order."""

    outcome: str
    final: Configuration
    downgrades: list[Downgrade]

    def declass_events(self) -> list[tuple[int, int]]:
        """(site id, declassified value) for each downgrade step, in order."""
        return [(label.site.id, label.value) for _, _, _, label in self.downgrades]


@dataclass
class Trace:
    """Result of run(): the steps it took, and how it ended.

    ``entries`` is the one record of the steps: each step's configuration
    after it and its label.  ``lines`` renders them as trace lines only when
    read, each from its label and the configurations before and after it.
    ``outcome``, ``final`` and ``downgrades`` are the run's ``Ending``.  A
    run that took the rest of an earlier run (see ``run``) holds only its
    own steps in ``entries``, but its ending is the whole run's.
    """

    entries: list[tuple[Configuration, StepLabel]]
    outcome: str
    initial: Configuration
    final: Configuration
    downgrades: list[Downgrade] = field(repr=False)

    @property
    def lines(self) -> list[str]:
        # A step's label names the site it left; a halted entry's point is
        # a finished site with nothing after it.
        befores = [self.initial] + [config for config, _ in self.entries]
        return [
            f"g{after.point.cmd.site.id} | halt | halted |"
            if label.kind == HALTED
            else f"g{label.site.id} | {label.rule} | {label} | {_changed(label, before, after)}"
            for before, (after, label) in zip(befores, self.entries)
        ]

    def declass_events(self) -> list[tuple[int, int]]:
        """(site id, declassified value) for each downgrade step, in order:
        read off the labels of ``entries``, then of the downgrades a join
        took after them."""
        own = len(self.entries)
        labels = [label for _, label in self.entries if label.kind == DECLASS]
        labels += [label for k, _, _, label in self.downgrades if k >= own]
        return [(label.site.id, label.value) for label in labels]


class Known:
    """What the runs of one program under one fuel share: the configurations
    they stepped, by key, the program's point table, and its start: the
    configuration at its entry with a zero store and no input.  The first
    run builds the table and the start; every run starts from the start's
    entry point, empty output streams and zero read indices, which no step
    writes in place (``step_point`` copies what it writes)."""

    __slots__ = ("configs", "points", "start")

    def __init__(self) -> None:
        # key -> (ending, index in the run, distance to the end); see run
        self.configs: dict[tuple, tuple[Ending, int, int]] = {}
        self.points: Optional[list[Point]] = None
        self.start: Optional[Configuration] = None


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
    A configuration's key is one flat tuple: its point's id, its input
    contents, and the values of its store, read indices and outputs
    without their names.  Every configuration of one run holds the same
    names in the same order, and so does every run of one program whose
    store names only the program's variables, so each value keeps its
    position.  A point's id is fixed by its site and phase, so the key is
    the same whichever table of the program the point is in.

    ``known``, shared by the runs of one program under one fuel, lets a run
    take the rest of an earlier run: the machine is deterministic, so the
    future of a configuration is the same whichever run reaches it.  A run
    that did not run out of fuel registers each configuration it stepped
    with the run's ``Ending``, the configuration's index k, and the distance
    d from it to the run's end: the configuration whose step ended the run
    (halted or a channel diagnostic), or the one that repeated.  So
    d = end - k, except inside a diverging run's cycle, where d is the cycle
    length wherever the configuration sits: a run that enters the cycle
    there meets it again after one lap.  A run out of fuel registers
    nothing, so every known future is exact.  A run that meets a known
    configuration at its own index n ends at n + d, with the earlier outcome
    if n + d < fuel and out of fuel otherwise; its own earlier
    configurations were not known, so they are not on the earlier run's
    path and cannot repeat first.  A run that ends at a join takes the
    earlier run's final configuration, and its downgrades from the meeting
    point on, each re-indexed into this run; they are a lone run's if the
    run ends by a step, not by a repeat or out of fuel.  Without ``known``
    a run is on its own, and its trace is complete.  Each step goes through
    ``step_point``.
    """
    entries: list[tuple[Configuration, StepLabel]] = []
    downgrades: list[Downgrade] = []
    seen: dict[tuple, int] = {}  # key -> index of each configuration stepped
    ins = tuple(config.ins.values())
    outcome = OUTCOME_FUEL
    configs = known.configs if known is not None else {}
    current = config
    for n in range(fuel):
        key = (
            current.point.id, ins, *current.mu.values(), *current.p.values(),
            *current.outs.values(),
        )
        first = seen.setdefault(key, n)
        if first != n:
            outcome, end, loop = OUTCOME_DIVERGES, n, first
            break
        hit = configs.get(key)
        if hit is not None:
            earlier, i, d = hit
            del seen[key]  # registered by the earlier run
            outcome = earlier.outcome if n + d < fuel else OUTCOME_FUEL
            end, loop, current = n + d, n + d, earlier.final  # where it ended
            downgrades += [(n + j - i, *step) for j, *step in earlier.downgrades if j >= i]
            break
        after, label = step_point(current, policy, bits, capacity)
        entries.append((after, label))
        kind = label.kind
        if kind == DECLASS:
            downgrades.append((n, current, after, label))
        current = after
        # Each terminal label is also the outcome it ends the run with.
        if kind in (HALTED, INPUT_EXHAUSTED, CAPACITY_EXCEEDED):
            outcome, end, loop = kind, n, n
            break
    if known is not None and outcome != OUTCOME_FUEL:
        ending = Ending(outcome, current, downgrades)
        for key, k in seen.items():
            configs[key] = (ending, k, end - (k if k < loop else loop))
    return Trace(entries, outcome, config, current, downgrades)


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
    """Run ``program`` from its entry; each store value wraps, as a read's does.
    With ``known``, the run builds only its store and its input contents."""
    store = {name: value & ((1 << bits) - 1) for name, value in (store or {}).items()}
    if known is None:
        config = initial_configuration(program, store, inputs)
    else:
        if known.start is None:
            known.points = point_table(program)
            known.start = initial_configuration(program, points=known.points)
        start = known.start
        mu = dict(start.mu)
        mu.update(store)
        ins = {n: tuple(inputs.get(n, ())) for n in start.ins} if inputs else start.ins
        config = Configuration(mu, ins, start.outs, start.p, start.point)
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

