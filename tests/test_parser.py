import pytest
from hypothesis import given, strategies as st

from wherecheck.parser import ParseError, parse_program, tokenize
from wherecheck.syntax import (
    Assign,
    BinOp,
    DeclassAssign,
    If,
    Input,
    Num,
    Output,
    Seq,
    Skip,
    Var,
    While,
    format_program,
)


def test_declass_sequence_sites():
    p = parse_program("l := declass(h); l := h")
    assert isinstance(p.root, Seq)
    assert (type(p.root.first), type(p.root.second)) == (DeclassAssign, Assign)
    assert [s.id for s in p.sites] == [0, 1]


def test_if_else_skip():
    p = parse_program("if h then l := declass(h1) else skip fi")
    root = p.root
    assert isinstance(root, If)
    assert isinstance(root.then_branch, DeclassAssign)
    assert isinstance(root.else_branch, Skip)
    assert root.site.id == 0
    assert root.then_branch.site.id == 1
    assert root.else_branch.site.id == 2


def test_while_and_io():
    p = parse_program("while h do input(x, in0); output(x + 1, out0) od")
    root = p.root
    assert isinstance(root, While)
    kinds = {c.site.id: type(c) for c in (root, root.body.first, root.body.second)}
    assert kinds == {0: While, 1: Input, 2: Output}
    assert p.channels == {"in0": "input", "out0": "output"}


def test_site_ids_are_preorder_dense():
    p = parse_program("x := 1; if x then x := 2; skip else while x do skip od fi; x := 3")
    assert [s.id for s in p.sites] == list(range(len(p.sites)))


def test_operator_precedence():
    p = parse_program("l := a + b * c == d & e")
    expr = p.root.expr
    # & binds weaker than ==, which binds weaker than + and *.
    assert isinstance(expr, BinOp) and expr.op == "&"
    assert expr.left.op == "=="
    assert expr.left.left.op == "+"
    assert expr.left.left.right.op == "*"


def test_parenthesized_expression():
    p = parse_program("l := (a | b) & c")
    assert p.root.expr.op == "&"
    assert p.root.expr.left.op == "|"


def test_comments_and_newlines():
    text = "# leading comment\nl := 1;  # trailing\nl := 2\n"
    p = parse_program(text)
    assert isinstance(p.root, Seq)


def test_parse_errors():
    for bad in ["l :=", "if h then skip fi", "while h do skip", "l := declass h", "x + 1"]:
        with pytest.raises(ParseError):
            parse_program(bad)


def test_trailing_semicolon_tolerated():
    p = parse_program("l := h2; l := 1;")
    assert isinstance(p.root, Seq)
    q = parse_program("if h then l := 1; else skip fi")
    assert isinstance(q.root, If)


def test_keywords_not_identifiers():
    with pytest.raises(ParseError):
        parse_program("if := 1")


def test_tokenizer_positions():
    toks = tokenize("l :=\n  declass")
    assert toks[0].line == 1
    assert toks[2].line == 2 and toks[2].col == 3


# -- round-trip property -----------------------------------------------------

_names = st.sampled_from(["h", "l", "x0", "k"])


def _exprs():
    return st.recursive(
        st.one_of(st.integers(0, 7).map(Num), _names.map(Var)),
        lambda inner: st.tuples(
            st.sampled_from(["+", "-", "*", "==", "!=", "<", "<=", "&", "|"]),
            inner,
            inner,
        ).map(lambda t: BinOp(*t)),
        max_leaves=6,
    )


def _commands(site_counter=None):
    # Sites are irrelevant for the round-trip (the parser reassigns them);
    # use a dummy id.
    from wherecheck.syntax import SiteLabel

    dummy = SiteLabel(0)

    def assign(t):
        return Assign(dummy, t[0], t[1])

    base = st.one_of(
        st.just(Skip(dummy)),
        st.tuples(_names, _exprs()).map(assign),
        st.tuples(_names, _exprs()).map(lambda t: DeclassAssign(dummy, t[0], t[1])),
        st.tuples(_exprs(), st.sampled_from(["out0", "out1"])).map(
            lambda t: Output(dummy, t[0], t[1])
        ),
    )
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda t: Seq(*t)),
            st.tuples(_exprs(), inner, inner).map(lambda t: If(dummy, *t)),
            st.tuples(_exprs(), inner).map(lambda t: While(dummy, *t)),
        ),
        max_leaves=8,
    )


@given(_commands())
def test_format_parse_round_trip(cmd):
    from wherecheck.syntax import Program

    text = format_program(Program(root=cmd))
    reparsed = parse_program(text)
    # Compare shape by re-rendering; site ids differ but rendering does not.
    assert format_program(reparsed) == text
