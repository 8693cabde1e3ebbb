"""Explicit-state evaluation of the symbolic systems, the tests' reference.

A valuation is a tuple of cell values in declaration order.  These
functions give a rule's meaning by enumeration: its guard, its updates and
writes, and the frame condition that every cell not written keeps its
value.  The tests compare the compiled relations and the layered
post_star search against them, so they stay independent of the BDD code
and are usable only at small widths.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Iterator, Union

from wherecheck.bdd import BudgetExceeded, bv_value
from wherecheck.compose import ComposedModel
from wherecheck.spds import (
    _COMPARISONS,
    HAVOC,
    GlobalsDecl,
    RuleSpec,
    SPDS,
    guard_width,
    infer_width,
)
from wherecheck.syntax import BinOp, CellRef, Expr, Num, Var


def valuation(globals_decl: GlobalsDecl, values: dict[str, int]) -> tuple[int, ...]:
    """The named values, each masked to its cell's width; unnamed cells are 0."""
    out = []
    for name, width in globals_decl.cells:
        out.append(values.get(name, 0) & ((1 << width) - 1))
    return tuple(out)


def decode(globals_decl: GlobalsDecl, assignment: dict[int, int], levels_of) -> tuple[int, ...]:
    """The valuation that a {level: bit} assignment gives on levels_of(cell), per cell."""
    return tuple(bv_value(assignment.__getitem__, levels_of(name)) for name in globals_decl.names)


def all_valuations(globals_decl: GlobalsDecl) -> Iterator[tuple[int, ...]]:
    spaces = [range(1 << width) for _, width in globals_decl.cells]
    yield from itertools.product(*spaces)


def initial_valuations(spds: SPDS) -> Iterator[tuple[int, ...]]:
    fixed = dict(spds.initial_fixed)
    spaces = []
    for name, width in spds.globals.cells:
        if name in fixed:
            spaces.append((fixed[name] & ((1 << width) - 1),))
        else:
            spaces.append(tuple(range(1 << width)))
    yield from itertools.product(*spaces)


def eval_gexpr(e: Expr, globals_decl: GlobalsDecl, val: tuple[int, ...], width: int) -> int:
    mask = (1 << width) - 1
    match e:
        case Num(value):
            return value & mask
        case Var(name):
            return val[globals_decl.index_of(name)] & mask
        case CellRef(cells, index, _):
            idx = val[globals_decl.index_of(index)]
            if idx < len(cells):
                return val[globals_decl.index_of(cells[idx])] & mask
            return 0
        case BinOp(op, left, right):
            if op in _COMPARISONS:
                # Comparison operands carry their own width; the 0/1 result
                # coerces to whatever width the context needs.
                w = infer_width(left, globals_decl) or infer_width(right, globals_decl) or width
            else:
                w = width
            a = eval_gexpr(left, globals_decl, val, w)
            b = eval_gexpr(right, globals_decl, val, w)
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


def eval_guard(spec: RuleSpec, globals_decl: GlobalsDecl, val: tuple[int, ...]) -> bool:
    if spec.guard is None:
        return True
    return eval_gexpr(spec.guard, globals_decl, val, guard_width(spec.guard, globals_decl)) != 0


def spec_successors(
    spec: RuleSpec, globals_decl: GlobalsDecl, val: tuple[int, ...]
) -> Iterator[tuple[int, ...]]:
    """All next valuations from val; empty when the guard fails.

    Havoc'd globals branch over their whole range (ascending), so this is
    only usable at small widths.
    """
    if not eval_guard(spec, globals_decl, val):
        return
    base = list(val)
    havocs: list[int] = []
    for name, e in spec.updates:
        i = globals_decl.index_of(name)
        if e is HAVOC:
            havocs.append(i)
        else:
            base[i] = eval_gexpr(e, globals_decl, val, globals_decl.width_of(name))
    for w in spec.writes:
        idx = val[globals_decl.index_of(w.index)]
        if idx < len(w.cells):
            i = globals_decl.index_of(w.cells[idx])
            base[i] = eval_gexpr(w.expr, globals_decl, val, globals_decl.width_of(w.cells[idx]))
    if not havocs:
        yield tuple(base)
        return
    spaces = [range(1 << globals_decl.cells[i][1]) for i in havocs]
    for choice in itertools.product(*spaces):
        nxt = list(base)
        for i, v in zip(havocs, choice):
            nxt[i] = v
        yield tuple(nxt)


def successors(
    spds: SPDS, val: tuple[int, ...], symbol: str
) -> Iterator[tuple[tuple[int, ...], str]]:
    """One-step successors of a concrete configuration (valuation, control symbol)."""
    for rule in spds.rules:
        if rule.lhs != symbol:
            continue
        for nxt in spec_successors(rule.spec, spds.globals, val):
            yield nxt, rule.rhs


def explicit_error_search(
    model: Union[ComposedModel, SPDS], max_configs: int = 250_000
) -> bool:
    """Concrete breadth-first search; the independent check on post_star."""
    spds = model if isinstance(model, SPDS) else model.spds
    if spds.error is None:
        raise ValueError("system declares no error symbol")
    seen: set[tuple[tuple[int, ...], str]] = set()
    work: deque[tuple[tuple[int, ...], str]] = deque(
        (val, spds.start) for val in initial_valuations(spds)
    )
    while work:
        config = work.popleft()
        if config in seen:
            continue
        seen.add(config)
        if len(seen) > max_configs:
            raise BudgetExceeded(f"explicit search budget {max_configs} exhausted")
        if config[1] == spds.error:
            return True
        for nxt in successors(spds, *config):
            if nxt not in seen:
                work.append(nxt)
    return False
