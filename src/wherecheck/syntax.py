"""Abstract syntax for the source language, plus site labels and printing.

Expressions are also the model's: model rules hold these same objects,
with model globals (channel cells, indices, companions) as Var names.
CellRef is the one model-only leaf, a read of a channel cell at a runtime
index; the parser never builds it and the interpreter never sees it.

Commands are immutable dataclasses.  Every command occurrence except
sequencing carries a SiteLabel; ";" is a binary operator on commands and has
no site of its own.  Site ids are assigned by preorder traversal, so they
coincide with source order, and a site's id names its model control symbol
and the interpreter's two points of it.  ``Program.flow`` is the one walk of
a command tree: every pass loops over it, and none hashes or compares a
command, so the depth of a command built in code costs no recursion.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

# The parser's identifier token, which build_model asks of every name: each
# model cell name holds a bracket or a parenthesis, so none can alias one.
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# ---------------------------------------------------------------------------
# Expressions


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class CellRef:
    """Read of cells[i] where i is the runtime value of the index global."""

    cells: tuple[str, ...]
    index: str
    label: str


Expr = Union[Num, Var, BinOp, CellRef]


def expr_vars(e: Expr) -> set[str]:
    """Free variables of an expression."""
    match e:
        case Num():
            return set()
        case Var(name):
            return {name}
        case BinOp(_, left, right):
            return expr_vars(left) | expr_vars(right)
    raise TypeError(f"not an expression: {e!r}")


def subst_vars(e: Expr, mapping: dict[str, str]) -> Expr:
    """Rename variables in an expression, and a cell read's cells and index."""
    match e:
        case Num():
            return e
        case Var(name):
            return Var(mapping.get(name, name))
        case BinOp(op, left, right):
            return BinOp(op, subst_vars(left, mapping), subst_vars(right, mapping))
        case CellRef(cells, index, label):
            return CellRef(
                tuple(mapping.get(c, c) for c in cells), mapping.get(index, index), label
            )
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Site labels


@dataclass(frozen=True)
class SiteLabel:
    """Unique label of a command occurrence.

    id is the index of the command in a fixed preorder traversal of the
    program.
    """

    id: int


# ---------------------------------------------------------------------------
# Commands


@dataclass(frozen=True)
class Skip:
    site: SiteLabel


@dataclass(frozen=True)
class Assign:
    site: SiteLabel
    target: str
    expr: Expr


@dataclass(frozen=True)
class DeclassAssign:
    site: SiteLabel
    target: str
    expr: Expr


@dataclass(frozen=True)
class If:
    site: SiteLabel
    guard: Expr
    then_branch: "Command"
    else_branch: "Command"


@dataclass(frozen=True)
class While:
    site: SiteLabel
    guard: Expr
    body: "Command"


@dataclass(frozen=True)
class Seq:
    """``first; second``."""

    first: "Command"
    second: "Command"


@dataclass(frozen=True)
class Input:
    site: SiteLabel
    target: str
    channel: str


@dataclass(frozen=True)
class Output:
    site: SiteLabel
    expr: Expr
    channel: str


Command = Union[Skip, Assign, DeclassAssign, If, While, Seq, Input, Output]


# ---------------------------------------------------------------------------
# Programs


def first_site(cmd: Command) -> Command:
    """The site control reaches first in ``cmd``: its head below any ``Seq``."""
    while type(cmd) is Seq:
        cmd = cmd.first
    return cmd


@dataclass(frozen=True)
class Program:
    """A program: its root command, and the site table derived from it."""

    root: Command

    @cached_property
    def flow(self) -> tuple[tuple[Command, Optional[Command], Optional[int]], ...]:
        """The one walk of the tree, a loop over a stack: per command but Seq,
        in preorder, the command, the site control reaches after it (None at
        the end) and the position of its innermost enclosing if or while (None
        at top level).  Labels that are not dense preorder raise ValueError."""
        out: list[tuple] = []
        stack = [(self.root, None, None)]
        while stack:
            cmd, nxt, block = stack.pop()
            match cmd:
                case Seq(first, second):
                    stack += ((second, nxt, block), (first, first_site(second), block))
                    continue
                case If(_, _, then_branch, else_branch):
                    stack += ((else_branch, nxt, len(out)), (then_branch, nxt, len(out)))
                case While(_, _, body):
                    stack.append((body, cmd, len(out)))
            if cmd.site.id != len(out):
                raise ValueError(f"site {cmd.site.id} is at position {len(out)}, not dense preorder")
            out.append((cmd, nxt, block))
        return tuple(out)

    @cached_property
    def sites(self) -> tuple[Command, ...]:
        """Every command but Seq, in preorder, so sites[i] has site id i."""
        return tuple(cmd for cmd, _, _ in self.flow)

    @cached_property
    def variables(self) -> tuple[str, ...]:
        """Every variable of the program, sorted."""
        out: set[str] = set()
        for cmd in self.sites:
            match cmd:
                case Assign(_, target, expr) | DeclassAssign(_, target, expr):
                    out.add(target)
                    out |= expr_vars(expr)
                case If(_, guard, _, _) | While(_, guard, _):
                    out |= expr_vars(guard)
                case Input(_, target, _):
                    out.add(target)
                case Output(_, expr, _):
                    out |= expr_vars(expr)
        return tuple(sorted(out))

    @cached_property
    def channels(self) -> dict[str, str]:
        """Channels used by the program, mapped to the direction ("input" or
        "output") of their first use."""
        out: dict[str, str] = {}
        for cmd in self.sites:
            if isinstance(cmd, (Input, Output)):
                out.setdefault(cmd.channel, "input" if isinstance(cmd, Input) else "output")
        return out

    @cached_property
    def input_channels(self) -> tuple[str, ...]:
        """The input channels' names, sorted."""
        return tuple(sorted(n for n, d in self.channels.items() if d == "input"))

    @cached_property
    def output_channels(self) -> tuple[str, ...]:
        """The output channels' names, sorted."""
        return tuple(sorted(n for n, d in self.channels.items() if d == "output"))

    @cached_property
    def input_counts(self) -> dict[str, int]:
        """Input statements per channel, counting loop bodies once."""
        return Counter(cmd.channel for cmd in self.sites if isinstance(cmd, Input))


# ---------------------------------------------------------------------------
# Printing

_PREC = {"|": 1, "&": 2, "==": 3, "!=": 3, "<": 3, "<=": 3, "+": 4, "-": 4, "*": 5}


def format_expr(e: Expr, parent_prec: int = 0) -> str:
    match e:
        case Num(value):
            return str(value)
        case Var(name):
            return name
        case CellRef(_, index, label):
            return f"{label}[{index}]"
        case BinOp(op, left, right):
            prec = _PREC[op]
            # Left-associative rendering: right subtree needs parens at equal
            # precedence.
            text = f"{format_expr(left, prec)} {op} {format_expr(right, prec + 1)}"
            if prec < parent_prec:
                return f"({text})"
            return text
    raise TypeError(f"not an expression: {e!r}")


def format_command(c: Command) -> str:
    match c:
        case Skip():
            return "skip"
        case Assign(_, target, expr):
            return f"{target} := {format_expr(expr)}"
        case DeclassAssign(_, target, expr):
            return f"{target} := declass({format_expr(expr)})"
        case If(_, guard, then_branch, else_branch):
            return (
                f"if {format_expr(guard)} then {format_command(then_branch)} "
                f"else {format_command(else_branch)} fi"
            )
        case While(_, guard, body):
            return f"while {format_expr(guard)} do {format_command(body)} od"
        case Seq(first, second):
            return f"{format_command(first)}; {format_command(second)}"
        case Input(_, target, channel):
            return f"input({target}, {channel})"
        case Output(_, expr, channel):
            return f"output({format_expr(expr)}, {channel})"
    raise TypeError(f"not a command: {c!r}")
