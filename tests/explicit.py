"""Explicit-state evaluation of the symbolic systems, the tests' reference.

A valuation is a tuple of cell values in declaration order.  These
functions give a rule's meaning by enumeration: its guard, its updates and
writes, and the frame condition that every cell not written keeps its
value.  The tests compare the compiled relations and the layered
post_star search against them, so they stay independent of the BDD code
and are usable only at small widths.  Widths are read here on their own
(``reference.infer_width``, ``value_width``), not with the model's code.
One breadth-first search, ``explicit_layers``, decides reachability too;
``eval_node``, ``eval_bv``, ``sat_all``, ``enumerate_set`` and
``enumerate_pairs`` read BDDs back.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Sequence, Union

from wherecheck.bdd import BDD, BudgetExceeded
from wherecheck.compose import ComposedModel
from wherecheck.spds import (
    HAVOC,
    GlobalsDecl,
    RelationAlgebra,
    RuleSpec,
    SPDS,
)
from wherecheck.syntax import (
    COMPARISONS,
    BinOp,
    CellRef,
    Expr,
    Num,
    Var,
)
from reference import OPERATORS, infer_width

Valuation = tuple[int, ...]
Layer = dict[str, set[Valuation]]


def value_width(globals_decl: GlobalsDecl) -> int:
    """The width of a program value: the widest cell that is not a control
    cell, or 1 where there is none."""
    widths = [width for name, width in globals_decl.cells if name not in globals_decl.control]
    return max(widths, default=1)


def guard_width(e: Expr, globals_decl: GlobalsDecl) -> int:
    """The width a guard is read at: its own, or a program value's when it
    has none, as the interpreter reads every guard."""
    own = infer_width(e, globals_decl)
    return value_width(globals_decl) if own is None else own


def index_of(globals_decl: GlobalsDecl, name: str) -> int:
    """A cell's position in a valuation: its place in declaration order."""
    return globals_decl.names.index(name)


def valuation(globals_decl: GlobalsDecl, values: dict[str, int]) -> Valuation:
    """The named values, each masked to its cell's width; unnamed cells are 0."""
    return tuple(values.get(name, 0) & ((1 << width) - 1) for name, width in globals_decl.cells)


def written_globals(spec: RuleSpec) -> frozenset[str]:
    """Every cell the rule may change: updated, havoc'd or in a written channel."""
    return frozenset(name for name, _ in spec.updates) | {c for w in spec.writes for c in w.cells}


def all_valuations(globals_decl: GlobalsDecl, fixed=()) -> Iterator[Valuation]:
    """Every valuation that holds the (name, value) pairs of ``fixed``, each
    value masked to its cell's width, in ascending order."""
    pinned = dict(fixed)
    spaces = [
        (pinned[name] & ((1 << width) - 1),) if name in pinned else range(1 << width)
        for name, width in globals_decl.cells
    ]
    return itertools.product(*spaces)


def initial_valuations(spds: SPDS) -> Iterator[Valuation]:
    return all_valuations(spds.globals, spds.initial_fixed)


def eval_gexpr(e: Expr, globals_decl: GlobalsDecl, val: Valuation, width: int) -> int:
    mask = (1 << width) - 1
    match e:
        case Num(value):
            return value & mask
        case Var(name):
            return val[index_of(globals_decl, name)] & mask
        case CellRef(cells, index, _):
            idx = val[index_of(globals_decl, index)]
            if idx < len(cells):
                return val[index_of(globals_decl, cells[idx])] & mask
            return 0
        case BinOp(op, left, right):
            if op in COMPARISONS:
                # Comparison operands carry their own width; the 0/1 result
                # coerces to whatever width the context needs.
                w = infer_width(left, globals_decl) or infer_width(right, globals_decl) or width
            else:
                w = width
            a = eval_gexpr(left, globals_decl, val, w)
            b = eval_gexpr(right, globals_decl, val, w)
            return OPERATORS[op](a, b, mask)
    raise TypeError(f"not an expression: {e!r}")


def eval_guard(spec: RuleSpec, globals_decl: GlobalsDecl, val: Valuation) -> bool:
    if spec.guard is None:
        return True
    return eval_gexpr(spec.guard, globals_decl, val, guard_width(spec.guard, globals_decl)) != 0


def spec_successors(
    spec: RuleSpec, globals_decl: GlobalsDecl, val: Valuation
) -> Iterator[Valuation]:
    """All next valuations from val; empty when the guard fails.

    Havoc'd globals branch over their whole range (ascending), so this is
    only usable at small widths.
    """
    if not eval_guard(spec, globals_decl, val):
        return
    base = list(val)
    havocs: list[int] = []
    for name, e in spec.updates:
        i = index_of(globals_decl, name)
        if e is HAVOC:
            havocs.append(i)
        else:
            base[i] = eval_gexpr(e, globals_decl, val, globals_decl.width_of(name))
    for w in spec.writes:
        idx = val[index_of(globals_decl, w.index)]
        if idx < len(w.cells):
            i = index_of(globals_decl, w.cells[idx])
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


def successors(spds: SPDS, val: Valuation, symbol: str) -> Iterator[tuple[Valuation, str]]:
    """One-step successors of a concrete configuration (valuation, control symbol)."""
    for rule in spds.rules:
        if rule.lhs != symbol:
            continue
        for nxt in spec_successors(rule.spec, spds.globals, val):
            yield nxt, rule.rhs


def explicit_layers(spds: SPDS, max_configs: int = 250_000) -> list[Layer]:
    """Per distance k: symbol -> the valuations whose shortest distance from
    an initial configuration is k rule applications, by breadth-first search.

    Like post_star, it stops after the first layer that holds the error
    symbol.  More than ``max_configs`` configurations raise BudgetExceeded.
    """
    frontier = {(val, spds.start) for val in initial_valuations(spds)}
    seen = set(frontier)
    layers = []
    while frontier:
        layer: Layer = {}
        for val, sym in frontier:
            layer.setdefault(sym, set()).add(val)
        layers.append(layer)
        if spds.error in layer:
            break
        frontier = {nxt for config in frontier for nxt in successors(spds, *config)} - seen
        seen |= frontier
        if len(seen) > max_configs:
            raise BudgetExceeded(f"explicit search budget {max_configs} exhausted")
    return layers


def explicit_error_search(model: Union[ComposedModel, SPDS]) -> bool:
    """Whether the error symbol is reachable: the independent check on post_star."""
    spds = model if isinstance(model, SPDS) else model.spds
    if spds.error is None:
        raise ValueError("system declares no error symbol")
    return spds.error in explicit_layers(spds)[-1]


# Reading BDDs back.  Slot t of a declaration is levels 2t (current) and
# 2t + 1 (next), whatever cell the layout gives it.


def bv_value(bits_assignment: Callable[[int], bool], levels: Sequence[int]) -> int:
    """Decode an integer from a level->bool assignment (MSB first)."""
    value = 0
    for lvl in levels:
        value = (value << 1) | (1 if bits_assignment(lvl) else 0)
    return value


def decode(globals_decl: GlobalsDecl, assignment: dict[int, bool], levels_of) -> Valuation:
    """The valuation that a {level: bit} assignment gives on levels_of(cell), per cell."""
    return tuple(bv_value(assignment.__getitem__, levels_of(name)) for name in globals_decl.names)


def eval_node(mgr: BDD, u: int, assignment: dict[int, bool]) -> bool:
    """u under a {level: bit} assignment; a level it leaves out is 0."""
    while mgr.level[u] < 1 << 60:
        u = mgr.hi[u] if assignment.get(mgr.level[u], False) else mgr.lo[u]
    return u == mgr.TRUE


def eval_bv(mgr: BDD, vec: Sequence[int], assignment: dict[int, bool]) -> int:
    """A bit vector's value under the assignment, most significant bit first."""
    return bv_value(lambda u: eval_node(mgr, u, assignment), vec)


def cur_all(g: GlobalsDecl) -> list[int]:
    return list(range(0, 2 * g.total_bits, 2))


def nxt_all(g: GlobalsDecl) -> list[int]:
    return list(range(1, 2 * g.total_bits, 2))


def sat_all(mgr: BDD, u: int, levels: Sequence[int]) -> list[tuple[bool, ...]]:
    """Every assignment to the given levels, in ascending level order, that satisfies u,
    in ascending order.  The levels must cover the support of u."""
    rows = [((), u)]  # each prefix of an assignment, and the node it leads to
    for lvl in sorted(levels):
        rows = [
            (bits + (bit,), (mgr.hi[n] if bit else mgr.lo[n]) if mgr.level[n] == lvl else n)
            for bits, n in rows
            for bit in (False, True)
        ]
        rows = [(bits, n) for bits, n in rows if n != mgr.FALSE]
    return [bits for bits, n in rows if n == mgr.TRUE]


def enumerate_set(alg: RelationAlgebra, set_cur: int) -> set[Valuation]:
    """The valuations of a set over the current levels."""
    g, levels = alg.g, cur_all(alg.g)
    rows = sat_all(alg.mgr, set_cur, levels)
    return {decode(g, dict(zip(levels, bits)), g.cur_levels) for bits in rows}


def enumerate_pairs(alg: RelationAlgebra, rel: int) -> set[tuple[Valuation, Valuation]]:
    """The (current, next) valuation pairs of a relation over every level."""
    g, levels = alg.g, range(2 * alg.g.total_bits)
    out = set()
    for bits in sat_all(alg.mgr, rel, levels):
        assignment = dict(zip(levels, bits))
        out.add((decode(g, assignment, g.cur_levels), decode(g, assignment, g.nxt_levels)))
    return out
