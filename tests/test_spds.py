import pytest
from hypothesis import example, given, settings, strategies as st

from wherecheck.bdd import bv_const, bv_eq, bv_from_levels

from wherecheck.parser import parse_program
from wherecheck.spds import (
    HAVOC,
    ArrayWrite,
    GlobalsDecl,
    RelationAlgebra,
    Rule,
    RuleSpec,
    SPDS,
    dump_spds,
    format_rule,
    infer_width,
)
from wherecheck.syntax import BinOp, CellRef, Num, Var, format_expr, subst_vars
from explicit import (
    all_valuations,
    decode,
    eval_gexpr,
    eval_guard,
    initial_valuations,
    spec_successors,
    successors,
    valuation,
)
from test_bdd import sat_all

G3 = GlobalsDecl((("x", 2), ("y", 1)))


def test_globals_layout():
    g = GlobalsDecl((("a", 2), ("b", 3)))
    assert g.total_bits == 5
    assert g.width_of("b") == 3
    # MSB bands: slots a0 b0 a1 b1 b2; slot t is levels 2t (cur) and 2t+1 (nxt)
    assert g.cur_levels("a") == (0, 4)
    assert g.nxt_levels("a") == (1, 5)
    assert g.cur_levels("b") == (2, 6, 8)
    assert g.nxt_levels("b") == (3, 7, 9)
    assert valuation(g, {"a": 5, "b": 3}) == (1, 3)
    assert g.as_dict((1, 3)) == {"a": 1, "b": 3}
    assert len(list(all_valuations(g))) == 32


def test_control_first_band_layout():
    g = GlobalsDecl(
        (("x", 3), ("xi(x)", 3), ("c[0]", 3), ("q[c]", 2), ("xi(q[c])", 2), ("f", 1)),
        frozenset({"q[c]", "xi(q[c])", "f"}),
    )

    def slots(name):
        return [lvl // 2 for lvl in g.cur_levels(name)]

    # control bits take the first slots, themselves banded MSB first
    assert slots("q[c]") == [0, 3]
    assert slots("xi(q[c])") == [1, 4]
    assert slots("f") == [2]
    # then one band per bit position over the data cells, in declaration order
    assert slots("x") == [5, 8, 11]
    assert slots("xi(x)") == [6, 9, 12]
    assert slots("c[0]") == [7, 10, 13]
    assert sorted(t for name in g.names for t in slots(name)) == list(range(g.total_bits))
    # the valuation keeps declaration order
    assert valuation(g, {"x": 5, "f": 1}) == (5, 0, 0, 0, 0, 1)


def test_subst_vars_renames_a_cell_reads_cells_and_index():
    e = parse_program("z := h + l * 2").root.expr
    g = subst_vars(e, {"l": "xi_l"})
    assert format_expr(g) == "h + xi_l * 2"
    assert format_expr(subst_vars(g, {"h": "xi_h"})) == "xi_h + xi_l * 2"
    read = CellRef(("c[0]", "c[1]"), "q[c]", "O(c)")
    mapping = {"c[0]": "xi(c[0])", "c[1]": "xi(c[1])", "q[c]": "xi(q[c])"}
    assert subst_vars(read, mapping) == CellRef(("xi(c[0])", "xi(c[1])"), "xi(q[c])", "O(c)")
    assert subst_vars(read, {"c[0]": "d"}) == CellRef(("d", "c[1]"), "q[c]", "O(c)")
    differ = subst_vars(BinOp("!=", read, Var("tmp")), mapping)
    assert format_expr(differ) == "O(c)[xi(q[c])] != tmp"


def test_format_expr_parens():
    x, y = Var("x"), Var("y")
    assert format_expr(BinOp("*", BinOp("+", x, y), Num(2))) == "(x + y) * 2"
    assert format_expr(BinOp("+", x, BinOp("+", y, Num(1)))) == "x + (y + 1)"
    assert format_expr(CellRef(("c0", "c1"), "idx", "C")) == "C[idx]"


def test_infer_width_rules():
    g = GlobalsDecl((("x", 2), ("p", 4)))
    assert infer_width(Var("p"), g) == 4
    assert infer_width(Num(3), g) is None
    assert infer_width(BinOp("+", Var("x"), Num(1)), g) == 2
    # Comparisons adapt to any context, so mixing them is fine.
    mixed = BinOp("&", BinOp("<", Var("p"), Num(2)), BinOp("==", Var("x"), Num(0)))
    assert infer_width(mixed, g) is None
    with pytest.raises(ValueError):
        infer_width(BinOp("+", Var("x"), Var("p")), g)


def test_eval_gexpr_cells_and_mixed_guard():
    g = GlobalsDecl((("c0", 2), ("c1", 2), ("idx", 2), ("t", 2)))
    val = valuation(g, {"c0": 1, "c1": 3, "idx": 1, "t": 3})
    assert eval_gexpr(CellRef(("c0", "c1"), "idx", "C"), g, val, 2) == 3
    out_of_range = valuation(g, {"c0": 1, "c1": 3, "idx": 2})
    assert eval_gexpr(CellRef(("c0", "c1"), "idx", "C"), g, out_of_range, 2) == 0
    guard = BinOp(
        "&",
        BinOp("!=", CellRef(("c0", "c1"), "idx", "C"), Var("t")),
        BinOp("<", Var("idx"), Num(2)),
    )
    assert eval_guard(RuleSpec.make(guard), g, val) is False
    val2 = valuation(g, {"c0": 1, "c1": 2, "idx": 1, "t": 3})
    assert eval_guard(RuleSpec.make(guard), g, val2) is True


def test_spec_successors_frame_and_havoc():
    spec = RuleSpec.make(
        guard=BinOp("==", Var("y"), Num(1)),
        updates={"x": HAVOC},
    )
    assert list(spec_successors(spec, G3, valuation(G3, {"x": 2, "y": 0}))) == []
    outs = list(spec_successors(spec, G3, valuation(G3, {"x": 2, "y": 1})))
    # y is framed, x ranges over 0..3 ascending.
    assert outs == [(0, 1), (1, 1), (2, 1), (3, 1)]


def written_globals(spec):
    """Every cell the rule may change: updated, havoc'd or in a written channel."""
    return frozenset(name for name, _ in spec.updates) | {c for w in spec.writes for c in w.cells}


def test_a_cell_written_twice_is_rejected():
    # Two writers leave the cell's next value undefined, and the symbolic
    # and explicit evaluators could each pick another one.
    z_plus_1 = BinOp("+", Var("z"), Num(1))
    with pytest.raises(ValueError, match="written twice by one rule: x"):
        RuleSpec.make(updates={"x": Num(3)}, writes=(ArrayWrite(("x", "z"), "y", z_plus_1, "C"),))
    twice = (ArrayWrite(("x",), "y", Num(1), "C"), ArrayWrite(("z", "x"), "y", Num(2), "D"))
    with pytest.raises(ValueError, match="written twice by one rule: x"):
        RuleSpec.make(writes=twice)
    # the index may be updated; a renaming that merges two writers is caught too
    fine = RuleSpec.make(updates={"y": Num(1)}, writes=(ArrayWrite(("x", "z"), "y", z_plus_1, "C"),))
    with pytest.raises(ValueError, match="written twice by one rule: z"):
        fine.renamed({"y": "z"})


def test_spec_successors_array_write():
    g = GlobalsDecl((("c0", 2), ("c1", 2), ("q", 2), ("v", 2)))
    spec = RuleSpec.make(
        guard=BinOp("<", Var("q"), Num(2)),
        updates={"q": BinOp("+", Var("q"), Num(1))},
        writes=(ArrayWrite(("c0", "c1"), "q", Var("v"), "C"),),
    )
    val = valuation(g, {"c0": 0, "c1": 0, "q": 1, "v": 3})
    outs = list(spec_successors(spec, g, val))
    assert outs == [valuation(g, {"c0": 0, "c1": 3, "q": 2, "v": 3})]
    # Guard blocks the out-of-range write.
    assert list(spec_successors(spec, g, valuation(g, {"q": 2}))) == []


def test_rule_format_and_dump():
    spec = RuleSpec.make(
        guard=BinOp("<", Var("y"), Num(1)),
        updates={"x": BinOp("+", Var("x"), Num(1)), "y": HAVOC},
    )
    rule = Rule("g0", "g1", spec)
    assert format_rule(rule) == "<g0> -> <g1> ; y < 1 ; x:=x + 1, y:=*"
    back = Rule("g1", "g0", RuleSpec.make())
    assert format_rule(back) == "<g1> -> <g0> ; 1 ; -"
    spds = SPDS(G3, (rule, back), "g0", (("y", 0),))
    text = dump_spds(spds)
    assert text.splitlines()[0] == "globals: x:2 y:1"
    assert text.splitlines()[1] == "start: g0"
    assert text.splitlines()[2] == "initial: y=0"
    assert dump_spds(spds) == text  # deterministic


def test_spds_initial_valuations_and_successors():
    rule1 = Rule("g0", "g1", RuleSpec.make(updates={"x": Num(3)}))
    rule2 = Rule("g1", "g2", RuleSpec.make(guard=BinOp("==", Var("x"), Num(3))))
    spds = SPDS(G3, (rule1, rule2), "g0", (("x", 0),))
    inits = list(initial_valuations(spds))
    assert inits == [(0, 0), (0, 1)]
    nexts = list(successors(spds, (0, 1), "g0"))
    assert nexts == [((3, 1), "g1")]
    assert list(successors(spds, (3, 1), "g1")) == [((3, 1), "g2")]
    assert list(successors(spds, (2, 1), "g1")) == []
    assert list(successors(spds, (3, 1), "g2")) == []


# Differential check: the BDD compilation of a spec, with the frame of its
# unwritten cells conjoined, and the explicit evaluator must induce exactly
# the same transition pairs.


def cur_all(g):
    return list(range(0, 2 * g.total_bits, 2))


def nxt_all(g):
    return list(range(1, 2 * g.total_bits, 2))


def enumerate_set(ra, set_cur):
    levels = cur_all(ra.g)
    return {
        decode(ra.g, dict(zip(levels, bits)), ra.g.cur_levels)
        for bits in sat_all(ra.mgr, set_cur, levels)
    }


def enumerate_pairs(ra, r):
    levels = sorted(cur_all(ra.g) + nxt_all(ra.g))
    out = set()
    for bits in sat_all(ra.mgr, r, levels):
        assignment = dict(zip(levels, bits))
        out.add((decode(ra.g, assignment, ra.g.cur_levels), decode(ra.g, assignment, ra.g.nxt_levels)))
    return out


def frame(ra, written):
    """nxt == cur on every bit of every cell outside written, built bottom-up."""
    mgr, out = ra.mgr, ra.mgr.TRUE
    kept = [name for name in ra.g.names if name not in written]
    levels = sorted(lvl for name in kept for lvl in ra.g.cur_levels(name))
    for cur in reversed(levels):
        nxt = cur + 1
        out = mgr.node(cur, mgr.node(nxt, out, mgr.FALSE), mgr.node(nxt, mgr.FALSE, out))
    return out


def framed(ra, spec):
    """The spec's full relation: the union of its pieces, each with its frame."""
    mgr = ra.mgr
    return mgr.disj_all(mgr.conj(rel, frame(ra, written)) for rel, written in ra.compile_spec(spec))


def exists(ra, u, levels):
    return ra.mgr.relprod(u, ra.mgr.TRUE, ra.mgr.step(drop=levels))


def lift_to_nxt(ra, set_cur):
    """The set with every bit moved to its next level."""
    step = ra.mgr.step(vmap={lvl: lvl + 1 for lvl in cur_all(ra.g)})
    return ra.mgr.relprod(ra.mgr.TRUE, set_cur, step)


CATALOGUE = [
    RuleSpec.make(),
    RuleSpec.make(guard=BinOp("<", Var("x"), Num(2))),
    RuleSpec.make(updates={"x": BinOp("+", Var("x"), Num(1))}),
    RuleSpec.make(updates={"x": BinOp("-", Var("x"), Var("x"))}),
    RuleSpec.make(updates={"x": BinOp("*", Var("x"), Num(3))}),
    RuleSpec.make(updates={"x": HAVOC, "y": Num(1)}),
    RuleSpec.make(
        guard=BinOp("!=", Var("y"), Num(0)),
        updates={"y": BinOp("<=", Var("x"), Num(1))},
    ),
    RuleSpec.make(
        guard=BinOp("|", BinOp("==", Var("x"), Num(0)), Var("y")),
        updates={"x": BinOp("&", Var("x"), Num(1))},
    ),
    RuleSpec.make(updates={"y": BinOp("|", Var("y"), Num(1)), "x": HAVOC}),
]


@pytest.mark.parametrize("spec", CATALOGUE, ids=range(len(CATALOGUE)))
def test_compile_spec_matches_explicit(spec):
    ra = RelationAlgebra(G3)
    symbolic = enumerate_pairs(ra, framed(ra, spec))
    explicit = {
        (val, nxt)
        for val in all_valuations(G3)
        for nxt in spec_successors(spec, G3, val)
    }
    assert symbolic == explicit


# Drawn specs over three cells: the written set ranges from no cell to all
# of them, so the frame covers every cell, some of them or none.

G5 = GlobalsDecl((("x", 2), ("y", 1), ("z", 2)))
UPDATES = {
    "x": [Num(3), BinOp("+", Var("x"), Var("z")), HAVOC],
    "y": [BinOp("<", Var("z"), Var("x")), HAVOC],
    "z": [BinOp("*", Var("z"), Num(3)), BinOp("-", Var("x"), Num(1)), HAVOC],
}
GUARDS = [None, BinOp("!=", Var("y"), Num(0)), BinOp("<=", Var("x"), Var("z"))]
drawn_spec_st = st.builds(
    lambda guard, chosen: RuleSpec.make(guard=guard, updates=chosen),
    st.sampled_from(GUARDS),
    st.fixed_dictionaries({}, optional={name: st.sampled_from(es) for name, es in UPDATES.items()}),
)


def per_cell_relation(ra, spec):
    """The relation built cell by cell, nxt == cur for each unwritten cell."""
    mgr = ra.mgr
    out = ra.compile_guard(spec.guard)
    updates = dict(spec.updates)
    for name, width in ra.g.cells:
        e = updates.get(name)
        if e is HAVOC:
            continue
        if e is None:
            value = bv_from_levels(mgr, ra.g.cur_levels(name))
        else:
            value = ra.compile_value(e, width)
        out = mgr.conj(out, bv_eq(mgr, bv_from_levels(mgr, ra.g.nxt_levels(name)), value))
    return out


@settings(max_examples=60, deadline=None)
@given(drawn_spec_st)
@example(RuleSpec.make())
@example(RuleSpec.make(updates={"z": Num(1)}))
@example(RuleSpec.make(updates={"x": HAVOC, "y": Num(1), "z": Var("x")}))
def test_drawn_spec_compiles_to_explicit_pairs(spec):
    ra = RelationAlgebra(G5)
    node = framed(ra, spec)
    assert node == per_cell_relation(ra, spec)
    explicit = {
        (val, nxt)
        for val in all_valuations(G5)
        for nxt in spec_successors(spec, G5, val)
    }
    assert enumerate_pairs(ra, node) == explicit


def test_compiled_rule_leaves_unwritten_next_bits_free():
    ra = RelationAlgebra(G5)
    spec = RuleSpec.make(guard=Var("y"), updates={"x": BinOp("+", Var("x"), Var("z"))})
    ((node, written),) = ra.compile_spec(spec)
    assert written == {"x"}
    unwritten_nxt = ra.g.nxt_levels("y") + ra.g.nxt_levels("z")
    assert exists(ra, node, unwritten_nxt) == node
    assert exists(ra, node, ra.g.nxt_levels("x")) != node
    assert enumerate_pairs(ra, frame(ra, written)) == {
        (a, b) for a in all_valuations(G5) for b in all_valuations(G5) if a[1:] == b[1:]
    }
    assert enumerate_pairs(ra, frame(ra, frozenset())) == {(v, v) for v in all_valuations(G5)}


def test_compile_spec_array_write_matches_explicit():
    g = GlobalsDecl((("c0", 1), ("c1", 1), ("q", 2), ("v", 1)))
    spec = RuleSpec.make(
        guard=BinOp("<", Var("q"), Num(2)),
        updates={"q": BinOp("+", Var("q"), Num(1))},
        writes=(ArrayWrite(("c0", "c1"), "q", Var("v"), "C"),),
    )
    ra = RelationAlgebra(g)
    symbolic = enumerate_pairs(ra, framed(ra, spec))
    explicit = {
        (val, nxt)
        for val in all_valuations(g)
        for nxt in spec_successors(spec, g, val)
    }
    assert symbolic == explicit


# A channel write is one piece per cell the index can name, plus one for an
# index past the last cell, which writes no cell of the channel.
WRITE_CASES = {
    # guard-free: q = 2 and q = 3 run past the last cell
    "past-the-end": (
        (("c0", 1), ("c1", 1), ("q", 2), ("v", 1)),
        RuleSpec.make(writes=(ArrayWrite(("c0", "c1"), "q", Var("v"), "C"),)),
        [{"c0"}, {"c1"}, set()],
    ),
    "three-cells-2-bit-index": (
        (("c0", 1), ("c1", 1), ("c2", 1), ("q", 2), ("v", 1)),
        RuleSpec.make(
            guard=BinOp("!=", Var("v"), Num(0)),
            updates={"q": BinOp("+", Var("q"), Num(1))},
            writes=(ArrayWrite(("c0", "c1", "c2"), "q", BinOp("+", Var("c0"), Var("v")), "C"),),
        ),
        [{"q", "c0"}, {"q", "c1"}, {"q", "c2"}, {"q"}],
    ),
    "one-cell": (
        (("c0", 2), ("q", 1), ("v", 2)),
        RuleSpec.make(
            guard=BinOp("<", Var("q"), Num(1)),
            updates={"v": HAVOC},
            writes=(ArrayWrite(("c0",), "q", BinOp("*", Var("v"), Num(3)), "C"),),
        ),
        [{"v", "c0"}],  # the guard empties the out-of-range piece
    ),
    # every value of the 1-bit index names a cell: no out-of-range piece
    "index-covers-the-cells": (
        (("c0", 1), ("c1", 1), ("q", 1), ("v", 1)),
        RuleSpec.make(writes=(ArrayWrite(("c0", "c1"), "q", Var("v"), "C"),)),
        [{"c0"}, {"c1"}],
    ),
}


@pytest.mark.parametrize("case", WRITE_CASES.values(), ids=WRITE_CASES)
def test_channel_write_pieces_match_explicit(case):
    cells, spec, written_sets = case
    g = GlobalsDecl(cells)
    ra = RelationAlgebra(g)
    assert [set(written) for _, written in ra.compile_spec(spec)] == written_sets
    explicit = {(val, nxt) for val in all_valuations(g) for nxt in spec_successors(spec, g, val)}
    assert enumerate_pairs(ra, framed(ra, spec)) == explicit


def test_compile_cellref_matches_explicit():
    g = GlobalsDecl((("c0", 1), ("c1", 1), ("q", 2), ("v", 1)))
    spec = RuleSpec.make(
        guard=BinOp("!=", CellRef(("c0", "c1"), "q", "C"), Var("v")),
    )
    ra = RelationAlgebra(g)
    symbolic = enumerate_pairs(ra, framed(ra, spec))
    explicit = {
        (val, nxt)
        for val in all_valuations(g)
        for nxt in spec_successors(spec, g, val)
    }
    assert symbolic == explicit


# Relation algebra laws against plain set arithmetic.

VALS = list(all_valuations(G3))
val_st = st.sampled_from(VALS)
pairs_st = st.frozensets(st.tuples(val_st, val_st), max_size=12)


def rel_from_pairs(ra, pairs):
    out = ra.mgr.FALSE
    for a, b in sorted(pairs):
        node = ra.mgr.conj(
            ra.set_from_valuation(a), lift_to_nxt(ra, ra.set_from_valuation(b))
        )
        out = ra.mgr.disj(out, node)
    return out


set_st = st.frozensets(val_st, max_size=8)


@settings(max_examples=60)
@given(pairs_st, set_st)
def test_transpose_compose_matches_sets(p1, vals):
    ra = RelationAlgebra(G3)
    r = rel_from_pairs(ra, p1)
    some = ra.mgr.disj_all(ra.set_from_valuation(v) for v in sorted(vals))
    expected = {b for a, b in p1 if a in vals}
    assert enumerate_set(ra, ra.transpose_compose(r, some, frozenset(G3.names))) == expected


@settings(max_examples=60)
@given(pairs_st)
def test_dom_image_preimage(p1):
    ra = RelationAlgebra(G3)
    r = rel_from_pairs(ra, p1)
    every_cell = frozenset(G3.names)
    assert enumerate_set(ra, exists(ra, r, nxt_all(G3))) == {a for a, _ in p1}
    some = {a for a, _ in sorted(p1)[: len(p1) // 2]}
    node = ra.mgr.disj_all(ra.set_from_valuation(v) for v in sorted(some))
    image = {b for a, b in p1 if a in some}
    assert enumerate_set(ra, ra.transpose_compose(r, node, every_cell)) == image
    assert enumerate_set(ra, ra.preimage(r, node, every_cell)) == {a for a, b in p1 if b in some}


# The partitioned steps against the framed ones: the union over a rule's
# pieces, each without its frame and stepped with its written set, must give
# the very node that the framed relation gives when every current bit is
# quantified, and the image and pre-image the explicit evaluator gives.

G5_VALS = list(all_valuations(G5))
CHANNEL = ArrayWrite(("x", "z"), "y", BinOp("+", Var("z"), Num(1)), "C")


def _with_writes(spec, writes):
    """spec plus writes, less the updates of the cells the writes write."""
    cells = {c for w in writes for c in w.cells}
    updates = tuple((name, e) for name, e in spec.updates if name not in cells)
    return RuleSpec(spec.guard, updates, writes)


partitioned_spec_st = st.builds(_with_writes, drawn_spec_st, st.sampled_from([(), (CHANNEL,)]))
SOME = frozenset({(0, 1, 2), (3, 0, 1), (2, 1, 2)})


@settings(max_examples=80, deadline=None)
@given(partitioned_spec_st, st.frozensets(st.sampled_from(G5_VALS), max_size=8))
@example(RuleSpec.make(guard=Var("y")), SOME)
@example(RuleSpec.make(updates={"z": BinOp("-", Var("x"), Num(1))}), SOME)
@example(RuleSpec.make(updates={"x": Num(3), "y": HAVOC, "z": Var("x")}), SOME)
@example(RuleSpec.make(updates={"x": HAVOC}), SOME)
@example(RuleSpec.make(guard=Var("y"), writes=(CHANNEL,)), SOME)
def test_partitioned_steps_equal_framed_steps(spec, vals):
    ra = RelationAlgebra(G5)
    mgr = ra.mgr
    pieces = ra.compile_spec(spec)
    assert all(written <= written_globals(spec) for _, written in pieces)
    full = framed(ra, spec)
    explicit = {(val, nxt) for val in G5_VALS for nxt in spec_successors(spec, G5, val)}
    assert enumerate_pairs(ra, full) == explicit
    some = mgr.disj_all(ra.set_from_valuation(v) for v in sorted(vals))
    every_cell = frozenset(G5.names)
    image = mgr.disj_all(ra.transpose_compose(rel, some, written) for rel, written in pieces)
    assert image == ra.transpose_compose(full, some, every_cell)
    assert enumerate_set(ra, image) == {b for a, b in explicit if a in vals}
    pre = mgr.disj_all(ra.preimage(rel, some, written) for rel, written in pieces)
    assert pre == ra.preimage(full, some, every_cell)
    assert enumerate_set(ra, pre) == {a for a, b in explicit if b in vals}


def test_pick_set_is_minimal():
    ra = RelationAlgebra(G3)
    node = ra.mgr.disj(
        ra.set_from_valuation((3, 1)), ra.set_from_valuation((1, 0))
    )
    assert ra.pick_set(node) == (1, 0)
    node2 = ra.mgr.disj(node, ra.set_from_valuation((1, 1)))
    assert ra.pick_set(node2) == (1, 0)
    assert ra.pick_set(ra.mgr.FALSE) is None


# Witnesses pick the least valuation in declaration order whatever the
# variable order, so they read the same as under a contiguous layout.
MIXED = GlobalsDecl((("a", 2), ("k", 1), ("b", 3), ("xi(a)", 2)), frozenset({"k"}))
MIXED_VALS = list(all_valuations(MIXED))


@settings(max_examples=60)
@given(st.frozensets(st.sampled_from(MIXED_VALS), min_size=1, max_size=10))
def test_pick_set_is_least_in_declaration_order(vals):
    ra = RelationAlgebra(MIXED)
    node = ra.mgr.disj_all(ra.set_from_valuation(v) for v in sorted(vals))
    assert enumerate_set(ra, node) == set(vals)
    assert ra.pick_set(node) == min(enumerate_set(ra, node))


@settings(max_examples=60)
@given(st.sampled_from(MIXED_VALS), st.sets(st.sampled_from(MIXED.names)))
def test_set_from_fixed_matches_the_conjunction_of_its_cells(val, names):
    ra = RelationAlgebra(MIXED)
    mgr = ra.mgr
    fixed = {name: val[MIXED.index_of(name)] for name in names}
    cube = ra.set_from_fixed(fixed)
    # the construction the cube replaced: one equality per cell, conjoined by name
    reference = mgr.TRUE
    for name, value in sorted(fixed.items()):
        vec = bv_from_levels(mgr, MIXED.cur_levels(name))
        reference = mgr.conj(reference, bv_eq(mgr, vec, bv_const(mgr, value, MIXED.width_of(name))))
    assert cube == reference


def test_a_wide_valuation_round_trips_at_the_default_recursion_limit():
    # 130 cells of 8 bits and a control cell: a cube 1042 levels deep, more
    # than the default limit of 1000 Python frames
    wide = GlobalsDecl(tuple((f"v{i}", 8) for i in range(130)) + (("k", 2),), frozenset({"k"}))
    val = tuple((37 * i + 11) % 256 for i in range(130)) + (2,)
    ra = RelationAlgebra(wide)
    assert ra.pick_set(ra.set_from_valuation(val)) == val
