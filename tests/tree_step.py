"""The tree-rewriting small step, the tests' reference for the point table.

``tree_step`` reduces the head of the remaining command and rebuilds the
``Seq`` spine around the result, as the interpreter did before it stepped
through a table of program points (``semantics.step_point``).  It also
builds the text of what each step changed as it steps, which the
interpreter renders only when a trace is read (``Trace.lines``).
``residual`` gives the remaining command a point stands for, so the tests
can compare the two at every configuration they reach.
"""

from __future__ import annotations

from typing import NamedTuple

from wherecheck.semantics import (
    CAPACITY_EXCEEDED,
    DECLASS,
    HALTED,
    INPUT_EXHAUSTED,
    PLAIN,
    Point,
    StepLabel,
)
from wherecheck.syntax import (
    Assign,
    Command,
    DeclassAssign,
    If,
    Input,
    Output,
    Program,
    Seq,
    Skip,
    While,
    eval_nodes,
    first_site,
    postfix,
)


class Configuration(NamedTuple):
    """A configuration of the reference: ``semantics.Configuration`` with
    the remaining command where the interpreter has a point."""

    mu: dict[str, int]
    ins: dict[str, tuple[int, ...]]
    outs: dict[str, tuple[int, ...]]
    p: dict[str, int]
    cmd: Command


def tree_configuration(program: Program, config) -> Configuration:
    """``config`` of the interpreter with its point's remaining command."""
    return Configuration(*config[:4], residual(program, config.point))


def residual(program: Program, point: Point) -> Command:
    """The remaining command ``point`` stands for: the path from the root
    down to the point's site, folded back up around the point's command.

    The first child of a ``Seq`` keeps the ``Seq``'s second, a body keeps
    its ``while`` after it, and a second child or a branch has nothing
    after it in its parent.
    """
    site, path, cmd = point.cmd.site.id, [], program.root
    while type(cmd) is Seq or cmd.site.id != site:
        path.append(cmd)
        match cmd:
            case Seq(first, second):
                cmd = first if site < first_site(second).site.id else second
            case If(_, _, then_branch, else_branch):
                cmd = then_branch if site < first_site(else_branch).site.id else else_branch
            case While(_, _, body):
                cmd = body
    cur = point.cmd
    for parent, child in zip(reversed(path), reversed([*path[1:], cmd])):
        if type(parent) is Seq and parent.first is child:
            cur = Seq(cur, parent.second)
        elif type(parent) is While:
            cur = Seq(cur, parent)
    return cur


def tree_successors(cmd: Command) -> list[tuple[Command, StepLabel]]:
    """The remaining command and label after each branch of a step of
    ``cmd``, whatever the store: both of an ``if``'s or a ``while``'s, and
    none for a lone ``Skip``, which halts."""
    match cmd:
        case Seq(Skip(site), second):
            return [(second, StepLabel(PLAIN, site, rule="seq-skip"))]
        case Seq(first, second):
            return [(Seq(c, second), label) for c, label in tree_successors(first)]
        case If(site, _, then_branch, else_branch):
            return [
                (then_branch, StepLabel(PLAIN, site, rule="if-true")),
                (else_branch, StepLabel(PLAIN, site, rule="if-false")),
            ]
        case While(site, _, body):
            return [
                (Seq(body, cmd), StepLabel(PLAIN, site, rule="while-true")),
                (Skip(site), StepLabel(PLAIN, site, rule="while-false")),
            ]
        case Skip():
            return []
    rules = {Assign: "assign", DeclassAssign: "declass-ordinary", Input: "input", Output: "output"}
    return [(Skip(cmd.site), StepLabel(PLAIN, cmd.site, rule=rules[type(cmd)]))]


def tree_step(config, policy, bits, capacity) -> tuple[Configuration, StepLabel, str]:
    """Apply the unique applicable rule; terminal configs yield HALTED.

    Also returns the step's changed text, empty where it changes nothing.
    """
    if isinstance(config.cmd, Skip):
        return config, StepLabel(HALTED), ""
    return _step_command(config, config.cmd, policy, bits, capacity)


def _step_command(
    config: Configuration, cmd: Command, policy, bits: int, capacity: int
) -> tuple[Configuration, StepLabel, str]:
    match cmd:
        case Seq(first, second):
            if isinstance(first, Skip):
                new = Configuration(config.mu, config.ins, config.outs, config.p, second)
                return new, StepLabel(PLAIN, first.site, rule="seq-skip"), ""
            inner, label, changed = _step_command(config, first, policy, bits, capacity)
            if label.kind in (INPUT_EXHAUSTED, CAPACITY_EXCEEDED):
                return inner, label, changed
            new = Configuration(inner.mu, inner.ins, inner.outs, inner.p, Seq(inner.cmd, second))
            return new, label, changed
        case Assign(site, target, expr):
            value = eval_nodes(postfix(expr), config.mu, bits)
            mu = dict(config.mu)
            mu[target] = value
            new = Configuration(mu, config.ins, config.outs, config.p, Skip(site))
            return new, StepLabel(PLAIN, site, None, "assign"), f"{target}={value}"
        case DeclassAssign(site, target, expr):
            value = eval_nodes(postfix(expr), config.mu, bits)
            mu = dict(config.mu)
            mu[target] = value
            new = Configuration(mu, config.ins, config.outs, config.p, Skip(site))
            if policy.declass_real[site.id]:
                return new, StepLabel(DECLASS, site, value, "declass"), f"{target}={value}"
            return new, StepLabel(PLAIN, site, None, "declass-ordinary"), f"{target}={value}"
        case If(site, guard, then_branch, else_branch):
            taken = eval_nodes(postfix(guard), config.mu, bits) != 0
            branch = then_branch if taken else else_branch
            new = Configuration(config.mu, config.ins, config.outs, config.p, branch)
            return new, StepLabel(PLAIN, site, rule="if-true" if taken else "if-false"), ""
        case While(site, guard, body):
            if eval_nodes(postfix(guard), config.mu, bits) != 0:
                new = Configuration(config.mu, config.ins, config.outs, config.p, Seq(body, cmd))
                return new, StepLabel(PLAIN, site, rule="while-true"), ""
            new = Configuration(config.mu, config.ins, config.outs, config.p, Skip(site))
            return new, StepLabel(PLAIN, site, rule="while-false"), ""
        case Input(site, target, channel):
            idx = config.p[channel]
            contents = config.ins[channel]
            if idx >= len(contents):
                return config, StepLabel(INPUT_EXHAUSTED, site, rule="input"), ""
            value = contents[idx] & ((1 << bits) - 1)
            mu = dict(config.mu)
            mu[target] = value
            p = dict(config.p)
            p[channel] = idx + 1
            new = Configuration(mu, config.ins, config.outs, p, Skip(site))
            changed = f"{target}={value} p[{channel}]={idx + 1}"
            return new, StepLabel(PLAIN, site, None, "input"), changed
        case Output(site, expr, channel):
            idx = len(config.outs[channel])
            if idx >= capacity:
                return config, StepLabel(CAPACITY_EXCEEDED, site, rule="output"), ""
            value = eval_nodes(postfix(expr), config.mu, bits)
            outs = dict(config.outs)
            outs[channel] = outs[channel] + (value,)
            new = Configuration(config.mu, config.ins, outs, config.p, Skip(site))
            changed = f"{channel}[{idx}]={value} q[{channel}]={idx + 1}"
            return new, StepLabel(PLAIN, site, None, "output"), changed
    raise TypeError(f"not a command: {cmd!r}")
