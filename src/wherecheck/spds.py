"""Symbolic finite-state systems over fixed-width global state.

A system is a set of control symbols plus rules <lhs> -> <rhs> that move
from one control symbol to exactly one other, each rule carrying a
RuleSpec: a guard over the current valuation and next-state updates
(expression, havoc, or indexed channel write).  The source language has no
procedures, so no model needs a stack.  The class keeps the name SPDS
because the benchmark reads model.spds and patches spds.RelationAlgebra.
Expressions are the source language's own (syntax.Expr): a Var reads a
global of any name and a CellRef reads a channel cell.

Globals not mentioned keep their value; that frame condition is part of
the spec's meaning, and the explicit evaluator below implements it
directly.  The compiled relation leaves it out: it is the guard and one
equation per written cell, over the current bits and the next bits of the
written cells only.  Each relational step that takes a rule relation also
takes the rule's written cells and quantifies just their current bits, so
every unwritten bit stands for itself on both sides, which is exactly what
the frame nxt == cur would force.  A full relation is the case where every
cell is written.

Level layout: global bit slot t occupies levels 2t (current) and 2t+1
(next).  A step moves a written bit only between the two levels of its
slot, over a level it quantifies, so every level map is order-preserving.
Slots are handed out control cells first (channel indices and the
store-match mismatch cell), then in bands: band j holds bit j, counted from
the most significant bit, of every remaining cell wider than j, in
declaration order.  A cell and its second-run copy therefore sit side by
side in every band, which keeps the equalities that self-composition
builds between them linear in the width.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Optional

from .bdd import (
    BDD,
    Step,
    bv_add,
    bv_bitand,
    bv_bitor,
    bv_bool,
    bv_const,
    bv_eq,
    bv_from_levels,
    bv_ite,
    bv_le,
    bv_lt,
    bv_mul,
    bv_ne,
    bv_nonzero,
    bv_sub,
    bv_value,
)
from .syntax import BinOp, CellRef, Expr, Num, Var, format_expr, subst_vars


class HavocType:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "HAVOC"


HAVOC = HavocType()


_COMPARISONS = ("==", "!=", "<", "<=")


@dataclass(frozen=True)
class ArrayWrite:
    """cells[index] := expr; the other cells of the channel keep their value."""

    cells: tuple[str, ...]
    index: str
    expr: Expr
    label: str

    def renamed(self, mapping: dict[str, str]) -> "ArrayWrite":
        return ArrayWrite(
            tuple(mapping.get(c, c) for c in self.cells),
            mapping.get(self.index, self.index),
            subst_vars(self.expr, mapping),
            self.label,
        )


@dataclass(frozen=True)
class RuleSpec:
    guard: Optional[Expr] = None  # truthy when nonzero; None means true
    updates: tuple[tuple[str, object], ...] = ()  # (global, Expr | HAVOC), sorted
    writes: tuple[ArrayWrite, ...] = ()

    @staticmethod
    def make(
        guard: Optional[Expr] = None,
        updates: Optional[dict[str, object]] = None,
        writes: tuple[ArrayWrite, ...] = (),
    ) -> "RuleSpec":
        pairs = tuple(sorted((updates or {}).items()))
        return RuleSpec(guard=guard, updates=pairs, writes=writes)

    def renamed(self, mapping: dict[str, str]) -> "RuleSpec":
        guard = subst_vars(self.guard, mapping) if self.guard is not None else None
        updates = tuple(
            sorted(
                (mapping.get(name, name), e if e is HAVOC else subst_vars(e, mapping))
                for name, e in self.updates
            )
        )
        return RuleSpec(guard, updates, tuple(w.renamed(mapping) for w in self.writes))

    def written_globals(self) -> frozenset[str]:
        """Every cell the rule may change: updated, havoc'd or in a written channel."""
        out = {name for name, _ in self.updates}
        for w in self.writes:
            out |= set(w.cells)
        return frozenset(out)


@dataclass(frozen=True)
class Rule:
    lhs: str
    rhs: str  # the one control symbol the rule moves to
    spec: RuleSpec
    note: str = ""


@dataclass(frozen=True)
class GlobalsDecl:
    cells: tuple[tuple[str, int], ...]  # (name, width) in declaration order
    control: frozenset[str] = frozenset()  # cells whose bits take the first slots

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, (name, _) in enumerate(self.cells)}

    @cached_property
    def _slots(self) -> dict[str, list[int]]:
        """Bit slots of each cell, most significant bit first."""
        order = sorted(
            (name not in self.control, j, i)
            for i, (name, width) in enumerate(self.cells)
            for j in range(width)
        )
        out: dict[str, list[int]] = {name: [0] * width for name, width in self.cells}
        for t, (_, j, i) in enumerate(order):
            out[self.cells[i][0]][j] = t
        return out

    @property
    def names(self) -> list[str]:
        return [name for name, _ in self.cells]

    @property
    def total_bits(self) -> int:
        return sum(width for _, width in self.cells)

    def width_of(self, name: str) -> int:
        return self.cells[self._index[name]][1]

    def index_of(self, name: str) -> int:
        return self._index[name]

    def cur_levels(self, name: str) -> list[int]:
        return [2 * t for t in self._slots[name]]

    def nxt_levels(self, name: str) -> list[int]:
        return [2 * t + 1 for t in self._slots[name]]

    def valuation(self, values: dict[str, int]) -> tuple[int, ...]:
        out = []
        for name, width in self.cells:
            out.append(values.get(name, 0) & ((1 << width) - 1))
        return tuple(out)

    def as_dict(self, valuation: tuple[int, ...]) -> dict[str, int]:
        return {name: valuation[i] for i, (name, _) in enumerate(self.cells)}

    def all_valuations(self) -> Iterator[tuple[int, ...]]:
        spaces = [range(1 << width) for _, width in self.cells]
        yield from itertools.product(*spaces)


@dataclass(frozen=True)
class SPDS:
    globals: GlobalsDecl
    rules: tuple[Rule, ...]
    start: str
    initial_fixed: tuple[tuple[str, int], ...]  # pinned initial globals; rest free
    error: Optional[str] = None

    def initial_valuations(self) -> Iterator[tuple[int, ...]]:
        fixed = dict(self.initial_fixed)
        spaces = []
        for name, width in self.globals.cells:
            if name in fixed:
                spaces.append((fixed[name] & ((1 << width) - 1),))
            else:
                spaces.append(tuple(range(1 << width)))
        yield from itertools.product(*spaces)


def format_rule(rule: Rule) -> str:
    guard = format_expr(rule.spec.guard) if rule.spec.guard is not None else "1"
    parts = []
    for name, e in rule.spec.updates:
        parts.append(f"{name}:=*" if e is HAVOC else f"{name}:={format_expr(e)}")
    for w in rule.spec.writes:
        parts.append(f"{w.label}[{w.index}]:={format_expr(w.expr)}")
    effect = ", ".join(parts) if parts else "-"
    # no expression or effect prints a semicolon, so the three columns split back
    return f"<{rule.lhs}> -> <{rule.rhs}> ; {guard} ; {effect}"


def dump_spds(spds: SPDS) -> str:
    lines = [
        "globals: " + " ".join(f"{name}:{width}" for name, width in spds.globals.cells),
        "start: " + spds.start,
        "initial: "
        + (" ".join(f"{name}={value}" for name, value in spds.initial_fixed) or "-"),
    ]
    lines.extend(format_rule(rule) for rule in spds.rules)
    return "\n".join(lines)


# Explicit evaluation.  Used by the interpreter-backed test oracle for rule
# compilation and by the enumerative reachability backend.


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


def infer_width(e: Expr, globals_decl: GlobalsDecl) -> Optional[int]:
    match e:
        case Num(_):
            return None
        case Var(name):
            return globals_decl.width_of(name)
        case CellRef(cells, _, _):
            # an empty array reads as the constant 0 and adapts to context
            return globals_decl.width_of(cells[0]) if cells else None
        case BinOp(op, left, right):
            a = infer_width(left, globals_decl)
            b = infer_width(right, globals_decl)
            if a is not None and b is not None and a != b:
                raise ValueError(f"width mismatch in {format_expr(e)}: {a} vs {b}")
            if op in _COMPARISONS:
                return None  # 0/1 result adapts to the context width
            return a if a is not None else b
    raise TypeError(f"not an expression: {e!r}")


def guard_width(e: Expr, globals_decl: GlobalsDecl) -> int:
    width = infer_width(e, globals_decl)
    return width if width is not None else 1


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
    updates = dict(spec.updates)
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


class _WrittenSteps(NamedTuple):
    """The relational steps that take a rule relation writing one set of cells."""

    transpose_compose: Step
    preimage: Step


class RelationAlgebra:
    """BDD-backed sets of valuations and rule relations over them.

    Sets live on the current levels.  A rule relation puts its first
    component on the current levels and carries next levels for its
    written cells only (see compile_spec), so the steps that take one also
    take its written set; every cell is the case of a full relation.  Each
    step is one relprod call.  Node indices are canonical, so equality of
    results is integer equality.
    """

    def __init__(self, globals_decl: GlobalsDecl, mgr: Optional[BDD] = None):
        self.g = globals_decl
        self.mgr = mgr if mgr is not None else BDD()
        self._size = 2 * globals_decl.total_bits
        self._written: dict[frozenset[str], _WrittenSteps] = {}

    # Sets over the current levels.

    def set_from_fixed(self, fixed: dict[str, int]) -> int:
        mgr = self.mgr
        out = mgr.TRUE
        for name, value in sorted(fixed.items()):
            vec = bv_from_levels(mgr, self.g.cur_levels(name))
            out = mgr.conj(out, bv_eq(mgr, vec, bv_const(mgr, value, self.g.width_of(name))))
        return out

    def set_from_valuation(self, val: tuple[int, ...]) -> int:
        return self.set_from_fixed(self.g.as_dict(val))

    def compile_value(self, e: Expr, width: int) -> list[int]:
        mgr = self.mgr
        match e:
            case Num(value):
                return bv_const(mgr, value, width)
            case Var(name):
                assert self.g.width_of(name) == width, f"{name} width mismatch"
                return bv_from_levels(mgr, self.g.cur_levels(name))
            case CellRef(cells, index, _):
                idx_w = self.g.width_of(index)
                idx = bv_from_levels(mgr, self.g.cur_levels(index))
                acc = bv_const(mgr, 0, width)
                for k in range(len(cells) - 1, -1, -1):
                    hit = bv_eq(mgr, idx, bv_const(mgr, k, idx_w))
                    acc = bv_ite(mgr, hit, self.compile_value(Var(cells[k]), width), acc)
                return acc
            case BinOp(op, left, right):
                if op in _COMPARISONS:
                    w = infer_width(left, self.g) or infer_width(right, self.g) or width
                    a = self.compile_value(left, w)
                    b = self.compile_value(right, w)
                    bit = {
                        "==": bv_eq,
                        "!=": bv_ne,
                        "<": bv_lt,
                        "<=": bv_le,
                    }[op](mgr, a, b)
                    return bv_bool(mgr, bit, width)
                a = self.compile_value(left, width)
                b = self.compile_value(right, width)
                fn = {
                    "+": bv_add,
                    "-": bv_sub,
                    "*": bv_mul,
                    "&": bv_bitand,
                    "|": bv_bitor,
                }[op]
                return fn(mgr, a, b)
        raise TypeError(f"not an expression: {e!r}")

    def compile_guard(self, e: Optional[Expr]) -> int:
        if e is None:
            return self.mgr.TRUE
        width = guard_width(e, self.g)
        return bv_nonzero(self.mgr, self.compile_value(e, width))

    # Rule relations: current levels x the written cells' next levels.

    def compile_spec(self, spec: RuleSpec) -> int:
        """The guard and one equation nxt == value per written cell, without a frame.

        The next bits of the unwritten cells stay free (a havoc'd cell is
        written but gets no equation); see the module docstring.
        """
        mgr = self.mgr
        out = self.compile_guard(spec.guard)
        updates = dict(spec.updates)
        write_by_cell = {name: w for w in spec.writes for name in w.cells}
        for name, width in self.g.cells:
            if name in updates:
                e = updates[name]
                if e is HAVOC:
                    continue
                value = self.compile_value(e, width)
            elif name in write_by_cell:
                w = write_by_cell[name]
                idx = bv_from_levels(mgr, self.g.cur_levels(w.index))
                hit = bv_eq(mgr, idx, bv_const(mgr, w.cells.index(name), self.g.width_of(w.index)))
                cur = bv_from_levels(mgr, self.g.cur_levels(name))
                value = bv_ite(mgr, hit, self.compile_value(w.expr, width), cur)
            else:
                continue
            out = mgr.conj(out, bv_eq(mgr, bv_from_levels(mgr, self.g.nxt_levels(name)), value))
        return out

    def _bits(self, written: frozenset[str]) -> _WrittenSteps:
        found = self._written.get(written)
        if found is None:
            cur = [lvl for name in sorted(written) for lvl in self.g.cur_levels(name)]
            step = self.mgr.step
            found = self._written[written] = _WrittenSteps(
                step(self._size, drop=cur, out={lvl + 1: lvl for lvl in cur}),
                step(self._size, vmap={lvl: lvl + 1 for lvl in cur}, drop=[lvl + 1 for lvl in cur]),
            )
        return found

    def transpose_compose(self, r: int, s: int, written: frozenset[str]) -> int:
        """{b | exists a: (a, b) in r and a in s}, r writing only written: the image of s.

        The written cells' current bits are quantified and their next bits
        land on the current levels as the result is built; an unwritten bit
        of a is the same bit of b, so it stays where it is.  s must be a
        set: a next bit of s would meet the next bit of r.
        """
        return self.mgr.relprod(r, s, self._bits(written).transpose_compose)

    def preimage(self, r: int, set_cur: int, written: frozenset[str]) -> int:
        """{a | exists b: (a, b) in r and b in set_cur}, r writing only written.

        The set's written bits move to the next levels, where they are
        quantified; its unwritten bits stand for themselves on both sides.
        """
        return self.mgr.relprod(r, set_cur, self._bits(written).preimage)

    # Witness decoding.

    def _decode(self, assignment: dict[int, bool], levels_of) -> tuple[int, ...]:
        out = []
        for name, _ in self.g.cells:
            levels = levels_of(name)
            out.append(bv_value(lambda lvl: assignment.get(lvl, False), levels))
        return tuple(out)

    def _least(self, u: int, levels: list[int]) -> Optional[dict[int, bool]]:
        """The least assignment satisfying u, read as a number over levels.

        Levels come most significant first and need not follow the BDD
        order, so each bit is fixed by one conjunction with a literal.
        """
        mgr = self.mgr
        if u == mgr.FALSE:
            return None
        out: dict[int, bool] = {}
        for lvl in levels:
            if u == mgr.TRUE:
                break
            low = mgr.conj(u, mgr.nvar(lvl))
            out[lvl] = low == mgr.FALSE
            u = mgr.conj(u, mgr.var(lvl)) if out[lvl] else low
        return out

    def pick_set(self, set_cur: int) -> Optional[tuple[int, ...]]:
        """The least valuation in the set: cells in declaration order, MSB first."""
        levels = [lvl for name in self.g.names for lvl in self.g.cur_levels(name)]
        assignment = self._least(set_cur, levels)
        if assignment is None:
            return None
        return self._decode(assignment, self.g.cur_levels)
