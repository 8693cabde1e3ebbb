"""Abstract syntax for the source language, plus site labels and printing.

Expressions are also the model's: model rules hold these same objects,
with model globals (channel cells, indices, companions) as Var names.
CellRef is the one model-only leaf, a read of a channel cell at a runtime
index; the parser never builds it and the interpreter never sees it.

Commands are immutable dataclasses.  Every command occurrence except
sequencing carries a SiteLabel; ";" is a binary operator on commands and has
no site of its own.  Site ids are assigned by preorder traversal, so they
coincide with source order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Union

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


def walk_commands(c: Command) -> Iterator[Command]:
    """Preorder traversal over command occurrences (Seq nodes included)."""
    yield c
    match c:
        case If(_, _, then_branch, else_branch):
            yield from walk_commands(then_branch)
            yield from walk_commands(else_branch)
        case While(_, _, body):
            yield from walk_commands(body)
        case Seq(first, second):
            yield from walk_commands(first)
            yield from walk_commands(second)
        case _:
            pass


def command_vars(c: Command) -> set[str]:
    """All variable names occurring in a command."""
    out: set[str] = set()
    for node in walk_commands(c):
        match node:
            case Assign(_, target, expr) | DeclassAssign(_, target, expr):
                out.add(target)
                out |= expr_vars(expr)
            case If(_, guard, _, _) | While(_, guard, _):
                out |= expr_vars(guard)
            case Input(_, target, _):
                out.add(target)
            case Output(_, expr, _):
                out |= expr_vars(expr)
            case _:
                pass
    return out


def command_channels(c: Command) -> dict[str, str]:
    """Channels used by a command, mapped to direction ("input"/"output")."""
    out: dict[str, str] = {}
    for node in walk_commands(c):
        match node:
            case Input(_, _, channel):
                out.setdefault(channel, "input")
            case Output(_, _, channel):
                out.setdefault(channel, "output")
            case _:
                pass
    return out


# ---------------------------------------------------------------------------
# Programs


@dataclass(frozen=True)
class Program:
    """A program: its root command, and the site table derived from it."""

    root: Command

    @cached_property
    def sites(self) -> tuple[Command, ...]:
        """Every command but Seq, in preorder; sites[i] has site id i when the
        labels are dense preorder, as the parser makes them."""
        return tuple(c for c in walk_commands(self.root) if not isinstance(c, Seq))

    @cached_property
    def variables(self) -> tuple[str, ...]:
        """Every variable of the program, sorted; walked once per program."""
        return tuple(sorted(command_vars(self.root)))

    @cached_property
    def channels(self) -> dict[str, str]:
        return command_channels(self.root)

    @cached_property
    def input_channels(self) -> tuple[str, ...]:
        """The input channels' names, sorted."""
        return tuple(sorted(n for n, d in self.channels.items() if d == "input"))


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
