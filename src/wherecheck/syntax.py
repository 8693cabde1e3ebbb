"""Abstract syntax for the source language, plus site labels and printing.

Expressions are also the model's: model rules hold these same objects,
with model globals (channel cells, indices, companions) as Var names.
CellRef is the one model-only leaf, a read of a channel cell at a runtime
index; the parser never builds it and the interpreter never sees it.

Expressions, site labels and commands are immutable NamedTuples.  They
hash and compare as the tuples of their fields, so records of two types
with equal fields are equal: ``Assign`` and ``DeclassAssign``, or
``SiteLabel(k)`` and ``Num(k)``.  Every command occurrence except
sequencing carries a SiteLabel; ";" is a binary operator on commands and has
no site of its own.  Site ids are assigned by preorder traversal, so they
coincide with source order, and a site's id names its model control symbol
and the interpreter's two points of it.  ``Program.flow`` is the one walk of
a command tree: every pass loops over it, and none hashes or compares a
command or an expression (a tuple's hash and ``==`` recurse down the tree),
so the depth of a command built in code costs no recursion.
Likewise ``postfix`` is the one walk of an expression: every expression
pass loops over it with a stack, so no expression's depth costs recursion.
``PRECEDENCE`` and ``COMPARISONS`` state the operators once, and
``eval_nodes`` is the interpreter's evaluation of an expression and the
typing check's.  ``node_widths`` states once the widths the model reads
an expression at.
"""

from __future__ import annotations

import operator
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Union

# The parser's identifier token, which build_model asks of every name: each
# model cell name holds a bracket or a parenthesis, so none can alias one.
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# ---------------------------------------------------------------------------
# Expressions


class Num(NamedTuple):
    value: int


class Var(NamedTuple):
    name: str


class BinOp(NamedTuple):
    op: str
    left: "Expr"
    right: "Expr"


class CellRef(NamedTuple):
    """Read of cells[i] where i is the runtime value of the index global."""

    cells: tuple[str, ...]
    index: str
    label: str


Expr = Union[Num, Var, BinOp, CellRef]


# Each operator's precedence, loosest first, for the parser and the printer.
# A comparison's 0/1 result takes its context's width, any other result its operands'.
PRECEDENCE = {"|": 1, "&": 2, "==": 3, "!=": 3, "<": 3, "<=": 3, "+": 4, "-": 4, "*": 5}
COMPARISONS = frozenset({"==", "!=", "<", "<="})
_LEAF = max(PRECEDENCE.values()) + 1  # a leaf binds tighter than any operator


def postfix(e: Expr) -> list[Expr]:
    """The nodes of ``e`` operands first, each BinOp after its left and then
    its right operand: the one walk of an expression, a loop over a stack."""
    out, stack = [], [e]
    while stack:
        node = stack.pop()
        out.append(node)
        if type(node) is BinOp:
            stack += (node.left, node.right)
    return out[::-1]


def operand_widths(
    nodes: list[Expr], leaf_width: Callable[[Expr], Optional[int]]
) -> tuple[list[Optional[int]], Optional[int]]:
    """Per node of a postfix list, from the leaves, a leaf's width (``leaf_width``) or the one a
    BinOp's operands share; and the root's own width.  None is a width left to the context, as a
    constant's or a comparison's.  Operands of two widths raise ValueError."""
    shared: list[Optional[int]] = []
    stack: list[Optional[int]] = []  # each operand's own width
    for node in nodes:
        if type(node) is BinOp:
            b, a = stack.pop(), stack.pop()
            if a is not None and b is not None and a != b:
                raise ValueError(f"width mismatch in {format_expr(node)}: {a} vs {b}")
            width = a if a is not None else b
            stack.append(None if node.op in COMPARISONS else width)
        else:
            width = leaf_width(node)
            stack.append(width)
        shared.append(width)
    return shared, stack[0]


def node_widths(
    nodes: list[Expr], leaf_width: Callable[[Expr], Optional[int]], width: int
) -> list[int]:
    """Each node's width in a postfix list, from the root, which is read at its own width, or
    at ``width`` when it has none: an arithmetic node's operands take its own width, and a
    comparison's the one they share, else its own."""
    shared, own = operand_widths(nodes, leaf_width)
    widths, pending = [0] * len(nodes), [width if own is None else own]  # pending: operands' widths
    for i in reversed(range(len(nodes))):
        widths[i] = w = pending.pop()
        if type(nodes[i]) is BinOp:
            common = shared[i] if nodes[i].op in COMPARISONS else None
            pending += [w if common is None else common] * 2
    return widths


# Each operator as a Python function; eval_nodes wraps its result.
_APPLY = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "&": operator.and_, "|": operator.or_,
    "==": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
}


def eval_nodes(nodes: list[Expr], store: dict[str, int] | tuple, bits: int) -> int:
    """Evaluate an expression in one loop over its ``postfix`` list: each constant and
    each operator's result wraps modulo 2**bits, and a variable reads as stored, by name,
    or by slot in the interpreter's key (``semantics.point_table``)."""
    mask = (1 << bits) - 1
    stack: list[int] = []
    for node in nodes:
        kind = type(node)
        if kind is BinOp:
            b = stack.pop()
            stack[-1] = _APPLY[node.op](stack[-1], b) & mask
        elif kind is Var:
            stack.append(store[node.name])
        else:
            stack.append(node.value & mask)
    return stack[0]


def expr_vars(e: Expr) -> set[str]:
    """Free variables of an expression."""
    return {node.name for node in postfix(e) if type(node) is Var}


def subst_vars(e: Expr, mapping: dict[str, str]) -> Expr:
    """Rename variables in an expression, and a cell read's cells and index."""
    stack: list[Expr] = []
    for node in postfix(e):
        kind = type(node)
        if kind is BinOp:
            right = stack.pop()
            node = BinOp(node.op, stack.pop(), right)
        elif kind is Var:
            node = Var(mapping.get(node.name, node.name))
        elif kind is CellRef:
            cells = tuple(mapping.get(c, c) for c in node.cells)
            node = CellRef(cells, mapping.get(node.index, node.index), node.label)
        stack.append(node)
    return stack.pop()


# ---------------------------------------------------------------------------
# Site labels


class SiteLabel(NamedTuple):
    """Unique label of a command occurrence.

    id is the index of the command in a fixed preorder traversal of the
    program.
    """

    id: int


# ---------------------------------------------------------------------------
# Commands


class Skip(NamedTuple):
    site: SiteLabel


class Assign(NamedTuple):
    site: SiteLabel
    target: str
    expr: Expr


class DeclassAssign(NamedTuple):
    site: SiteLabel
    target: str
    expr: Expr


class If(NamedTuple):
    site: SiteLabel
    guard: Expr
    then_branch: "Command"
    else_branch: "Command"


class While(NamedTuple):
    site: SiteLabel
    guard: Expr
    body: "Command"


class Seq(NamedTuple):
    """``first; second``."""

    first: "Command"
    second: "Command"


class Input(NamedTuple):
    site: SiteLabel
    target: str
    channel: str


class Output(NamedTuple):
    site: SiteLabel
    expr: Expr
    channel: str


Command = Union[Skip, Assign, DeclassAssign, If, While, Seq, Input, Output]


# ---------------------------------------------------------------------------
# Programs


def site_expr(cmd: Command) -> Optional[Expr]:
    """The guard or the expression a site evaluates; None for a skip or an input."""
    return getattr(cmd, "guard", getattr(cmd, "expr", None))


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
        """Every variable of the program, sorted: the sites' targets, and the
        variables of their guards and expressions."""
        out = {cmd.target for cmd in self.sites if hasattr(cmd, "target")}
        exprs = (site_expr(cmd) for cmd in self.sites)
        out.update(*(expr_vars(e) for e in exprs if e is not None))
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


def format_expr(e: Expr) -> str:
    """The text the parser reads back as ``e``: every operator associates to the left, so a
    left operand that binds looser than its operator and a right one that binds no tighter
    get parentheses."""
    stack: list[tuple[str, int]] = []  # (text, precedence)
    for node in postfix(e):
        kind = type(node)
        if kind is BinOp:
            prec = PRECEDENCE[node.op]
            right, rprec = stack.pop()
            left, lprec = stack.pop()
            left = f"({left})" if lprec < prec else left
            right = f"({right})" if rprec <= prec else right
            stack.append((f"{left} {node.op} {right}", prec))
        elif kind is CellRef:
            stack.append((f"{node.label}[{node.index}]", _LEAF))
        else:
            stack.append((node.name if kind is Var else str(node.value), _LEAF))
    return stack.pop()[0]


def format_command(c: Command) -> str:
    """The command at one site: an if or a while by its header only."""
    match c:
        case Skip():
            return "skip"
        case Assign(_, target, expr):
            return f"{target} := {format_expr(expr)}"
        case DeclassAssign(_, target, expr):
            return f"{target} := declass({format_expr(expr)})"
        case If(_, guard, _, _):
            return f"if {format_expr(guard)}"
        case While(_, guard, _):
            return f"while {format_expr(guard)}"
        case Input(_, target, channel):
            return f"input({target}, {channel})"
        case Output(_, expr, channel):
            return f"output({format_expr(expr)}, {channel})"
    raise TypeError(f"not a site: {c!r}")
