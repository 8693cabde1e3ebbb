"""The tree-rewriting small step, the tests' reference for the point table.

``tree_step`` reduces the head of the remaining command and rebuilds the
``Seq`` spine around the result, as the interpreter did before it stepped
through a table of program points (``semantics.step_point``).  The tests
compare the two at every configuration they reach.
"""

from __future__ import annotations

from wherecheck.semantics import (
    CAPACITY_EXCEEDED,
    DECLASS,
    HALTED,
    INPUT_EXHAUSTED,
    PLAIN,
    Configuration,
    StepLabel,
    eval_expr,
)
from wherecheck.syntax import (
    Assign,
    Command,
    DeclassAssign,
    If,
    Input,
    Output,
    Seq,
    Skip,
    While,
)


def tree_step(config, policy, bits, capacity) -> tuple[Configuration, StepLabel]:
    """Apply the unique applicable rule; terminal configs yield HALTED."""
    if isinstance(config.cmd, Skip):
        return config, StepLabel(HALTED)
    return _step_command(config, config.cmd, policy, bits, capacity)


def _step_command(
    config: Configuration, cmd: Command, policy, bits: int, capacity: int
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
            if policy.declass_real[site.id]:
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
