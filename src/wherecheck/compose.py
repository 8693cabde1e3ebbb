"""Self-composition of a model skeleton into a pair-run finite-state system.

The composed system runs the program twice in sequence over one shared set
of channels.  Run one executes the original rules and additionally records
every downgraded value in the 𝒟 array and every observable output in the
channel cells.  A restart rule then rewinds the channel indices and starts
the renamed copy, whose downgrade sites must match the recorded 𝒟 entry
and whose output sites compare with the recorded cells.  A downgrade that
does not match puts the pair outside the property's premise, so the run
blocks there, as it does on a read past the end of an input.  A differing
output does not end the run: it sets the 1-bit control cell MISMATCH and
the second run goes on, since an observation difference is a leak only if
the second run also halts.  Each downgrade and observable-output site rule
of the skeleton is replaced, in each run and in its own place, by the
site's store, match or compare rules, which evaluate the site's own
expression, so every composed rule still moves to exactly one symbol.

The second run's normal end is the one place where the system can enter
error: the end check fires when MISMATCH is set or when some observable
variable x differs from its copy xi(x).  A run that blocks, for instance
on a read past the end of an observable input, never gets there.

The alternative transformer keeps two disjoint copies of the low output
channels, lets both runs write freely, and after the end check compares
the streams in a checker chain, one symbol per channel, which enters error
on the first difference and blocks once every channel agrees.  Either way
the composed globals are the skeleton's, each cell the second run owns
followed by its copy, and MISMATCH exists only in store-match models with
a low output channel, so on a program without one the two modes build the
same system.  The baseline exists for comparison: verdicts must coincide
while the store-match encoding uses fewer bits whenever a low channel
exists.

Initial valuations pin only the channel indices and MISMATCH to zero.
Everything else, in particular the 𝒟 cells and the unwritten channel
cells, starts unconstrained; that slack is what lets the match phase catch
output-count mismatches and downgrades the first run never reached.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .modelgen import FINAL_SYMBOL, ModelSkeleton, d_name, xi_name
from .spds import ArrayWrite, GlobalsDecl, Rule, RuleSpec, SPDS
from .syntax import BinOp, CellRef, Command, DeclassAssign, Expr, Num, Var, subst_vars

MODE_STORE_MATCH = "storematch"
MODE_TR = "tr"

INIT_SYMBOL = "init"
ERROR_SYMBOL = "error"

# No program variable or channel cell can carry this name: build_model takes
# only identifier names (syntax.IDENTIFIER), and channel cells are numbered.
MISMATCH = "mismatch[]"


class ComposedModel(NamedTuple):
    spds: SPDS
    skeleton: ModelSkeleton


def _fold(op: str, parts: list[Expr]) -> Expr:
    """parts joined by op, nested to the left."""
    return functools.reduce(lambda out, p: BinOp(op, out, p), parts)


def _composed_globals(skeleton: ModelSkeleton, tr: bool, mismatch_cell: bool) -> GlobalsDecl:
    """The skeleton's cells, each one the second run owns followed by its copy.

    The second run owns the program variables and, under tr, the cells and
    index of every output channel.  A copy right after its original shares
    every bit band of the variable order with it, and it is a control cell
    when its original is one.  With mismatch_cell the globals end with the
    control cell MISMATCH.
    """
    decl = skeleton.spds.globals
    copied = set(skeleton.program.variables)
    if tr:
        for spec in skeleton.outputs:
            copied |= {*spec.cells, spec.index}
    cells: list[tuple[str, int]] = []
    control = set(decl.control)
    for name, width in decl.cells:
        cells.append((name, width))
        if name in copied:
            cells.append((xi_name(name), width))
            if name in decl.control:
                control.add(xi_name(name))
    if mismatch_cell:
        cells.append((MISMATCH, 1))
        control.add(MISMATCH)
    return GlobalsDecl(tuple(cells), frozenset(control))


def _channel_write(cells: tuple[str, ...], index: str, expr: Expr, label: str) -> RuleSpec:
    """cells[index] := expr and index += 1, while a cell is left."""
    return RuleSpec.make(
        guard=BinOp("<", Var(index), Num(len(cells))),
        updates={index: BinOp("+", Var(index), Num(1))},
        writes=(ArrayWrite(cells, index, expr, label),),
    )


def _first_run_body(skeleton: ModelSkeleton, cmd: Command, lhs: str, rhs: str) -> list[Rule]:
    """Run one records the downgraded value in its 𝒟 cell and the output in its channel."""
    if isinstance(cmd, DeclassAssign):
        cell = d_name(skeleton.rho[cmd.site.id])
        store = RuleSpec.make(updates={cell: cmd.expr, cmd.target: cmd.expr})
        return [Rule(lhs, rhs, store, "record downgrade")]
    spec = skeleton.output_spec(cmd.channel)
    if not spec.cells:
        # At capacity 0 no write fits and the run blocks here.
        return []
    store = _channel_write(spec.cells, spec.index, cmd.expr, f"O({spec.name})")
    return [Rule(lhs, rhs, store, "record output")]


def _second_run_body(
    skeleton: ModelSkeleton, cmd: Command, var_map: dict[str, str], lhs: str, rhs: str, tr: bool
) -> list[Rule]:
    """Run two matches run one's record, or under tr writes its own channel copy."""
    expr = subst_vars(cmd.expr, var_map)
    if isinstance(cmd, DeclassAssign):
        cell = d_name(skeleton.rho[cmd.site.id])
        match = RuleSpec.make(
            guard=BinOp("==", Var(cell), expr), updates={xi_name(cmd.target): expr}
        )
        return [Rule(lhs, rhs, match, "downgrade matches")]
    spec = skeleton.output_spec(cmd.channel)
    if not spec.cells:
        return []
    q = spec.index
    if tr:
        xcells = tuple(xi_name(c) for c in spec.cells)
        write2 = _channel_write(xcells, xi_name(q), expr, f"O'({spec.name})")
        return [Rule(lhs, rhs, write2, "second-run output")]
    in_cap = BinOp("<", Var(q), Num(spec.length))
    recorded = CellRef(spec.cells, q, f"O({spec.name})")
    differ = RuleSpec.make(
        guard=BinOp("&", in_cap, BinOp("!=", recorded, expr)),
        updates={q: BinOp("+", Var(q), Num(1)), MISMATCH: Num(1)},
    )
    agree = RuleSpec.make(
        guard=BinOp("&", in_cap, BinOp("==", recorded, expr)),
        updates={q: BinOp("+", Var(q), Num(1))},
    )
    return [
        Rule(lhs, rhs, differ, "observation differs"),
        Rule(lhs, rhs, agree, "output matches"),
    ]


def _compose(skeleton: ModelSkeleton, mode: str) -> ComposedModel:
    var_map = {name: xi_name(name) for name in skeleton.program.variables}
    tr = mode == MODE_TR

    mismatch_cell = not tr and bool(skeleton.outputs)
    globals_decl = _composed_globals(skeleton, tr, mismatch_cell)

    rules: list[Rule] = []

    init_spec = RuleSpec.make(
        updates={xi_name(x): Var(x) for x in skeleton.observable_vars}
    )
    rules.append(Rule(INIT_SYMBOL, skeleton.spds.start, init_spec, "pair start"))

    for rule in skeleton.spds.rules:
        cmd = skeleton.sites.get(rule.lhs)
        if cmd is None:
            rules.append(rule)
        else:
            rules += _first_run_body(skeleton, cmd, rule.lhs, rule.rhs)

    resets: dict[str, Expr] = {spec.index: Num(0) for spec in skeleton.inputs}
    if not tr:
        # The match phase re-reads first-run data in place from index 0;
        # duplicated channels keep their first-run index for the checker.
        resets |= {spec.index: Num(0) for spec in skeleton.outputs}
    rules.append(
        Rule(
            FINAL_SYMBOL,
            xi_name(skeleton.spds.start),
            RuleSpec.make(updates=resets),
            "restart as second run",
        )
    )

    for rule in skeleton.spds.rules:
        lhs, rhs = xi_name(rule.lhs), xi_name(rule.rhs)
        cmd = skeleton.sites.get(rule.lhs)
        if cmd is None:
            note = f"second-run {rule.note}" if rule.note else ""
            rules.append(Rule(lhs, rhs, rule.spec.renamed(var_map), note))
        else:
            rules += _second_run_body(skeleton, cmd, var_map, lhs, rhs, tr)

    end = xi_name(FINAL_SYMBOL)
    differs: list[Expr] = [Var(MISMATCH)] if mismatch_cell else []
    differs += [BinOp("!=", Var(x), Var(xi_name(x))) for x in skeleton.observable_vars]
    if differs:
        rules.append(
            Rule(end, ERROR_SYMBOL, RuleSpec.make(guard=_fold("|", differs)), "runs differ")
        )
    if tr and skeleton.outputs:
        rules.append(Rule(end, "chk0", RuleSpec.make(), "begin comparison"))
        for i, spec in enumerate(skeleton.outputs):
            here, nxt = f"chk{i}", f"chk{i + 1}"
            q, xq = spec.index, xi_name(spec.index)
            rules.append(
                Rule(
                    here,
                    ERROR_SYMBOL,
                    RuleSpec.make(guard=BinOp("!=", Var(q), Var(xq))),
                    f"{spec.name} counts differ",
                )
            )
            ok_parts: list[Expr] = [BinOp("==", Var(q), Var(xq))]
            bad_parts: list[Expr] = []
            for k, cname in enumerate(spec.cells):
                written = BinOp("<", Num(k), Var(q))
                unwritten = BinOp("<=", Var(q), Num(k))
                same = BinOp("==", Var(cname), Var(xi_name(cname)))
                diff = BinOp("!=", Var(cname), Var(xi_name(cname)))
                bad_parts.append(BinOp("&", written, diff))
                ok_parts.append(BinOp("|", unwritten, same))
            if bad_parts:
                rules.append(
                    Rule(
                        here,
                        ERROR_SYMBOL,
                        RuleSpec.make(guard=_fold("|", bad_parts)),
                        f"{spec.name} cells differ",
                    )
                )
            # past the last channel nothing is left to compare: the run blocks
            if i + 1 < len(skeleton.outputs):
                rules.append(
                    Rule(
                        here, nxt, RuleSpec.make(guard=_fold("&", ok_parts)), f"{spec.name} agrees"
                    )
                )

    initial_fixed = list(skeleton.spds.initial_fixed)
    if tr:
        initial_fixed += [(xi_name(spec.index), 0) for spec in skeleton.outputs]
    if mismatch_cell:
        initial_fixed.append((MISMATCH, 0))

    spds = SPDS(
        globals_decl, tuple(rules), INIT_SYMBOL, tuple(initial_fixed), error=ERROR_SYMBOL
    )
    return ComposedModel(spds=spds, skeleton=skeleton)


def self_compose(skeleton: ModelSkeleton) -> ComposedModel:
    return _compose(skeleton, MODE_STORE_MATCH)


def tr_compose(skeleton: ModelSkeleton) -> ComposedModel:
    return _compose(skeleton, MODE_TR)
