"""Seeded random program generator for the property suites.

Programs stay tiny on purpose: at most a handful of variables, a bounded
command count, at most one loop.  Every profile keeps generated programs
inside the zone where the analyzer's per-site downgrade matching and the
oracle's positional pairing of downgrade events provably agree:

  - at most one declass command per program,
  - declass never inside a while body,
  - input commands only at top level (so consumption counts are equal
    across paired runs and declared lengths can equal static counts).

Generation builds a small command sketch first, then renders concrete
syntax, so a variant with one assignment upgraded to a declassification
can be rendered from the same sketch (the release-monotonicity suite
needs exactly that substitution).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Optional

VAR_NAMES = ("x0", "x1", "x2")
MAX_COMMANDS = 6
CONSTS = (0, 1, 2, 3)
ARITH = ("+", "-", "*", "&", "|")
CMP = ("==", "!=", "<", "<=")


@dataclass(frozen=True)
class GenConfig:
    max_declass: int = 1
    io: bool = False  # one input and one output channel


@dataclass
class Sketch:
    """One command; sequences are lists of sketches."""

    kind: str  # assign declass skip if while input output
    var: Optional[str] = None
    expr: Optional[str] = None
    channel: Optional[str] = None
    then_body: list["Sketch"] = field(default_factory=list)
    else_body: list["Sketch"] = field(default_factory=list)


@dataclass
class GeneratedProgram:
    seed: int
    text: str
    policy_text: str
    body: list[Sketch]
    variables: tuple[str, ...]

    def assign_slots(self) -> list[int]:
        """Top-level plain assignments eligible for declass substitution."""
        return [i for i, cmd in enumerate(self.body) if cmd.kind == "assign"]

    def with_declass(self, slot: int) -> str:
        clone = [
            Sketch(
                kind="declass" if i == slot else cmd.kind,
                var=cmd.var,
                expr=cmd.expr,
                channel=cmd.channel,
                then_body=cmd.then_body,
                else_body=cmd.else_body,
            )
            for i, cmd in enumerate(self.body)
        ]
        assert self.body[slot].kind == "assign"
        return render(clone)


def render(body: list[Sketch], depth: int = 0) -> str:
    pad = "  " * depth
    parts = []
    for cmd in body:
        if cmd.kind == "skip":
            parts.append(f"{pad}skip")
        elif cmd.kind == "assign":
            parts.append(f"{pad}{cmd.var} := {cmd.expr}")
        elif cmd.kind == "declass":
            parts.append(f"{pad}{cmd.var} := declass({cmd.expr})")
        elif cmd.kind == "input":
            parts.append(f"{pad}input({cmd.var}, {cmd.channel})")
        elif cmd.kind == "output":
            parts.append(f"{pad}output({cmd.expr}, {cmd.channel})")
        elif cmd.kind == "if":
            parts.append(
                f"{pad}if {cmd.expr} then\n"
                f"{render(cmd.then_body, depth + 1)}\n"
                f"{pad}else\n"
                f"{render(cmd.else_body, depth + 1)}\n"
                f"{pad}fi"
            )
        elif cmd.kind == "while":
            parts.append(
                f"{pad}while {cmd.expr} do\n"
                f"{render(cmd.then_body, depth + 1)}\n"
                f"{pad}od"
            )
        else:
            raise ValueError(cmd.kind)
    return ";\n".join(parts)


class _Budget:
    def __init__(self, cfg: GenConfig, rng: random.Random):
        self.rng = rng
        self.commands = rng.randint(1, MAX_COMMANDS)
        self.loops = 1
        self.declass = cfg.max_declass
        self.input_sites: dict[str, int] = {}


def _expr(rng: random.Random, variables: tuple[str, ...], depth: int = 2) -> str:
    leaf = rng.random()
    if depth == 0 or leaf < 0.35:
        return rng.choice(variables)
    if leaf < 0.5:
        return str(rng.choice(CONSTS))
    op = rng.choice(ARITH + CMP if rng.random() < 0.5 else ARITH)
    a = _expr(rng, variables, depth - 1)
    b = _expr(rng, variables, depth - 1)
    return f"({a} {op} {b})"


def _guard(rng: random.Random, variables: tuple[str, ...]) -> str:
    # comparisons keep most loops terminating at small widths
    a = rng.choice(variables)
    b = rng.choice([str(rng.choice(CONSTS)), rng.choice(variables)])
    return f"({a} {rng.choice(CMP)} {b})"


def _command(
    b: _Budget,
    variables: tuple[str, ...],
    inputs: list[str],
    outputs: list[str],
    in_loop: bool,
    at_top: bool,
) -> Sketch:
    rng = b.rng
    choices = ["assign", "assign", "skip"]
    if b.declass > 0 and not in_loop:
        choices.append("declass")
    if b.commands >= 2:
        choices.append("if")
    if b.loops > 0 and b.commands >= 2 and not in_loop:
        choices.append("while")
    if inputs and at_top:
        choices.append("input")
    if outputs:
        choices.append("output")
    kind = rng.choice(choices)
    b.commands -= 1

    if kind == "skip":
        return Sketch("skip")
    if kind == "assign":
        return Sketch("assign", var=rng.choice(variables), expr=_expr(rng, variables))
    if kind == "declass":
        b.declass -= 1
        # the designated release target is the first (observable) variable
        return Sketch("declass", var=variables[0], expr=_expr(rng, variables))
    if kind == "input":
        chan = rng.choice(inputs)
        b.input_sites[chan] = b.input_sites.get(chan, 0) + 1
        return Sketch("input", var=rng.choice(variables), channel=chan)
    if kind == "output":
        return Sketch("output", expr=_expr(rng, variables), channel=rng.choice(outputs))
    if kind == "while":
        b.loops -= 1
        body = _sequence(b, variables, inputs, outputs, True, False, limit=2)
        return Sketch("while", expr=_guard(rng, variables), then_body=body)
    then = _sequence(b, variables, inputs, outputs, in_loop, False, limit=2)
    orelse = _sequence(b, variables, inputs, outputs, in_loop, False, limit=1)
    return Sketch("if", expr=_guard(rng, variables), then_body=then, else_body=orelse)


def _sequence(b, variables, inputs, outputs, in_loop, at_top, limit) -> list[Sketch]:
    n = b.rng.randint(1, max(1, min(limit, b.commands)))
    out = []
    for _ in range(n):
        if b.commands <= 0:
            break
        out.append(_command(b, variables, inputs, outputs, in_loop, at_top))
    return out or [Sketch("skip")]


def generate(seed: int, cfg: GenConfig = GenConfig()) -> GeneratedProgram:
    rng = random.Random(seed)
    nvars = rng.randint(2, len(VAR_NAMES))
    variables = VAR_NAMES[:nvars]
    # the first variable is observable so verdicts are rarely vacuous
    levels = {variables[0]: "L"}
    for name in variables[1:]:
        levels[name] = rng.choice(("L", "H", "H"))

    inputs = ["in0"] if cfg.io else []
    outputs = ["out0"] if cfg.io else []

    b = _Budget(cfg, rng)
    body = _sequence(
        b, variables, inputs, outputs, in_loop=False, at_top=True, limit=MAX_COMMANDS
    )

    lines = ["lattice: L < H"]
    for name in variables:
        lines.append(f"var {name} : {levels[name]}")
    for chan in inputs:
        level = rng.choice(("L", "H"))
        count = b.input_sites.get(chan, 0)
        lines.append(f"channel {chan} : {level} input length {count}")
    for chan in outputs:
        lines.append(f"channel {chan} : {rng.choice(('L', 'H'))} output")
    policy_text = "\n".join(lines) + "\n"

    return GeneratedProgram(
        seed=seed,
        text=render(body),
        policy_text=policy_text,
        body=body,
        variables=variables,
    )


def declass_free(cfg: GenConfig = GenConfig()) -> GenConfig:
    return replace(cfg, max_declass=0)
