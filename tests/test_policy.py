import pytest

from wherecheck.parser import parse_program
from wherecheck.policy import (
    PolicyError,
    domain_of_expr,
    gather_downgrades,
    parse_policy,
)
from wherecheck.syntax import BinOp, Num, Var

TWO_LEVEL = """\
lattice: L < H
var h : H
var l : L
"""

THREE_LEVEL = """\
lattice: L < M, M < H
var a : L
var b : M
var c : H
channel in0 : L input length 2
channel outm : M output
"""


def test_parse_two_level():
    pol = parse_policy(TWO_LEVEL)
    assert pol.domains == ("H", "L")
    assert pol.leq("L", "H") and not pol.leq("H", "L")
    assert pol.leq("L", "L")
    assert pol.bottom() == "L"


def test_parse_three_level_chain_and_channels():
    pol = parse_policy(THREE_LEVEL)
    assert pol.leq("L", "H") and pol.leq("M", "H") and not pol.leq("H", "M")
    assert pol.channels["in0"].length == 2
    assert pol.channels["outm"].direction == "output"
    assert pol.sigma["outm"] == "M"


def test_lattice_cycle_rejected():
    with pytest.raises(PolicyError):
        parse_policy("lattice: A < B, B < A\nvar x : A\n")


def test_duplicate_declaration_rejected():
    with pytest.raises(PolicyError):
        parse_policy("lattice: L < H\nvar x : L\nvar x : H\n")


def test_unknown_level_rejected():
    with pytest.raises(PolicyError):
        parse_policy("lattice: L < H\nvar x : M\n")


def test_malformed_lines_rejected():
    for bad in ["frob x y", "var x L", "channel c : L sideways"]:
        with pytest.raises(PolicyError):
            parse_policy(f"lattice: L < H\n{bad}\n")
    with pytest.raises(PolicyError):
        parse_policy("lattice:\n")


def test_comments_and_blank_lines():
    pol = parse_policy("# header\n\nlattice: L < H\nvar x : L  # tail comment\n")
    assert pol.sigma["x"] == "L"


def test_domain_of_expr():
    pol = parse_policy(THREE_LEVEL)
    assert domain_of_expr(Num(3), pol) == "L"
    assert domain_of_expr(Var("b"), pol) == "M"
    assert domain_of_expr(BinOp("+", Var("a"), Var("b")), pol) == "M"
    assert domain_of_expr(BinOp("+", Var("b"), Var("c")), pol) == "H"


def test_domain_of_expr_monotone_under_extension():
    pol = parse_policy(THREE_LEVEL)
    e = BinOp("+", Var("a"), Var("b"))
    wider = BinOp("+", e, Var("c"))
    assert pol.leq(domain_of_expr(e, pol), domain_of_expr(wider, pol))


def test_gather_downgrades_real_site():
    program = parse_program("l := declass(h); l := h")
    pol = gather_downgrades(program, parse_policy(TWO_LEVEL))
    assert pol.downgrades == frozenset({("H", "L")})
    assert pol.declass_real == {0: True}


def test_gather_downgrades_ordinary_site():
    program = parse_program("h := declass(l)")
    pol = gather_downgrades(program, parse_policy(TWO_LEVEL))
    assert pol.downgrades == frozenset()
    assert pol.declass_real == {0: False}


def test_gather_downgrades_idempotent_and_disjoint():
    program = parse_program("l := declass(h)")
    pol1 = gather_downgrades(program, parse_policy(TWO_LEVEL))
    pol2 = gather_downgrades(program, pol1)
    assert pol1.downgrades == pol2.downgrades
    assert pol1.declass_real == pol2.declass_real
    assert all(pair not in pol1.order for pair in pol1.downgrades)


def test_gather_downgrades_missing_sigma():
    program = parse_program("z := 1")
    with pytest.raises(PolicyError):
        gather_downgrades(program, parse_policy(TWO_LEVEL))


def test_channel_direction_mismatch():
    program = parse_program("input(l, out0)")
    policy = parse_policy("lattice: L < H\nvar l : L\nchannel out0 : L output\n")
    with pytest.raises(PolicyError):
        gather_downgrades(program, policy)


def test_incomparable_levels_need_join():
    text = "lattice: A < T, B < T\nvar x : A\nvar y : B\nvar z : T\n"
    pol = parse_policy(text)
    assert domain_of_expr(BinOp("+", Var("x"), Var("y")), pol) == "T"
    # A diamond-free pair of tops breaks the join and is reported.
    broken = parse_policy("lattice: A < T1, A < T2, B < T1, B < T2\nvar x : A\nvar y : B\n")
    with pytest.raises(PolicyError):
        domain_of_expr(BinOp("+", Var("x"), Var("y")), broken)
