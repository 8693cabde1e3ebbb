"""Each expression pass, a loop over ``syntax.postfix``, against its
recursive reference in reference.py, on drawn expressions; and the model
compiler against the explicit evaluator at every valuation."""

import pytest
from hypothesis import given, settings, strategies as st

import reference
from explicit import all_valuations, eval_bv, eval_gexpr
from programs import EXPR_NAMES, exprs
from wherecheck.parser import parse_program
from wherecheck.spds import GlobalsDecl, RelationAlgebra
from wherecheck.syntax import (
    PRECEDENCE,
    BinOp,
    CellRef,
    Num,
    Var,
    eval_nodes,
    expr_vars,
    format_expr,
    operand_widths,
    postfix,
    subst_vars,
)

# Mixed widths, and two channel reads: one whose index reaches past its
# cells, and one of no cells, which reads as the constant 0.
MIXED = GlobalsDecl(
    (("h", 1), ("l", 2), ("x0", 2), ("k", 1), ("c[0]", 2), ("c[1]", 2), ("p[c]", 2))
)
READS = (CellRef(("c[0]", "c[1]"), "p[c]", "I(c)"), CellRef((), "k", "I(e)"))


def _model_exprs():
    """exprs with channel reads among the leaves."""
    return st.recursive(
        st.one_of(exprs(), st.sampled_from(READS)),
        lambda inner: st.builds(BinOp, st.sampled_from(sorted(PRECEDENCE)), inner, inner),
        max_leaves=6,
    )


def _stores(bits):
    return st.fixed_dictionaries({name: st.integers(0, (1 << bits) - 1) for name in EXPR_NAMES})


def test_postfix_lists_operands_first():
    x, y = Var("x"), Var("y")
    inner = BinOp("*", y, Num(2))
    e = BinOp("+", x, inner)
    assert postfix(e) == [x, y, Num(2), inner, e]
    assert postfix(x) == [x]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda bits: st.tuples(st.just(bits), exprs(), _stores(bits))))
def test_eval_expr_matches_the_recursion(case):
    bits, e, store = case
    assert eval_nodes(postfix(e), store, bits) == reference.eval_expr(e, store, bits)


@given(exprs())
def test_expr_vars_matches_the_recursion(e):
    assert expr_vars(e) == reference.expr_vars(e)


RENAMES = {"h": "xi(h)", "l": "k", "c[1]": "xi(c[1])", "p[c]": "xi(p[c])"}


@given(_model_exprs())
def test_subst_vars_matches_the_recursion(e):
    assert subst_vars(e, RENAMES) == reference.subst_vars(e, RENAMES)


def infer_width(e, globals_decl):
    """The model's own reading of ``e``'s width (``syntax.operand_widths``)."""
    return operand_widths(postfix(e), globals_decl.leaf_width)[1]


def _width(e, widths):
    try:
        return widths(e, MIXED)
    except ValueError as error:
        return str(error)


@settings(max_examples=150, deadline=None)
@given(_model_exprs())
def test_infer_width_matches_the_recursion(e):
    # a mismatch's message names the same subexpression
    assert _width(e, infer_width) == _width(e, reference.infer_width)


@settings(max_examples=150, deadline=None)
@given(_model_exprs())
def test_format_expr_matches_the_recursion(e):
    assert format_expr(e) == reference.format_expr(e)


@settings(max_examples=150, deadline=None)
@given(exprs())
def test_format_expr_parses_back_to_the_same_tree(e):
    assert parse_program(f"x := {format_expr(e)}").root.expr == e


@settings(max_examples=60, deadline=None)
@given(_model_exprs(), st.integers(1, 3))
def test_compile_value_matches_the_explicit_evaluator(e, context):
    ra = RelationAlgebra(MIXED)
    try:
        own = reference.infer_width(e, MIXED)
    except ValueError:
        with pytest.raises(ValueError, match="width mismatch"):
            ra.compile_value(e, context)
        return
    width = context if own is None else own
    vector = ra.compile_value(e, width)
    assert len(vector) == width
    for val in all_valuations(MIXED):
        ones = {lvl: True for lvl, i, weight in MIXED.cur_slots if val[i] & weight}
        assert eval_bv(ra.mgr, vector, ones) == eval_gexpr(e, MIXED, val, width), val


def test_a_long_sum_walks_without_recursion():
    # deeper than the default recursion limit on either side of each node
    terms = [Var("l")] * 2999 + [Var("h")]
    left = terms[0]
    for term in terms[1:]:
        left = BinOp("+", left, term)
    right = terms[-1]
    for term in reversed(terms[:-1]):
        right = BinOp("+", term, right)
    for e in (left, right):
        assert len(postfix(e)) == 5999
        assert expr_vars(e) == {"l", "h"}
        assert eval_nodes(postfix(e), {"l": 1, "h": 2}, 3) == (2999 + 2) % 8
        assert infer_width(subst_vars(e, {"h": "x0"}), MIXED) == 2
    assert format_expr(left) == " + ".join(["l"] * 2999 + ["h"])
    assert format_expr(right) == "l + (" * 2998 + "l + h" + ")" * 2998
