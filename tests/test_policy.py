import re

import pytest

from wherecheck.parser import parse_program
from wherecheck.policy import (
    PolicyError,
    domain_of_expr,
    gather_downgrades,
    parse_policy,
)
from wherecheck.syntax import BinOp, Num, Var
from programs import ROOT

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


def test_the_readme_example_policy_parses():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Policies and programs", 1)[1]
    example = section.split("```", 2)[1]
    pol = parse_policy(example)
    assert pol.leq("L", "M") and pol.leq("M", "H") and pol.leq("L", "H")
    assert pol.sigma == {"l": "L", "h": "H", "src": "L", "snk": "L"}


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
    assert pol.declass_real == {0: True}


def test_gather_downgrades_ordinary_site():
    program = parse_program("h := declass(l)")
    pol = gather_downgrades(program, parse_policy(TWO_LEVEL))
    assert pol.declass_real == {0: False}


def test_gather_downgrades_idempotent():
    program = parse_program("l := declass(h)")
    pol1 = gather_downgrades(program, parse_policy(TWO_LEVEL))
    pol2 = gather_downgrades(program, pol1)
    assert pol1.declass_real == pol2.declass_real


def test_gather_downgrades_missing_sigma():
    program = parse_program("z := 1")
    with pytest.raises(PolicyError):
        gather_downgrades(program, parse_policy(TWO_LEVEL))


def test_channel_direction_mismatch():
    program = parse_program("input(l, out0)")
    policy = parse_policy("lattice: L < H\nvar l : L\nchannel out0 : L output\n")
    with pytest.raises(PolicyError):
        gather_downgrades(program, policy)


# One channel read and written, in both orders, each declared one way.
BOTH_WAYS = [
    ("input(x, c); output(x, c)", "input", "output"),
    ("output(x, c); input(x, c)", "output", "input"),
]


@pytest.mark.parametrize("text, declared, other", BOTH_WAYS)
def test_channel_used_both_ways_is_rejected(text, declared, other):
    program = parse_program(text)
    length = " length 1" if declared == "input" else ""
    policy = parse_policy(f"lattice: L < H\nvar x : L\nchannel c : L {declared}{length}\n")
    with pytest.raises(PolicyError, match=f"declared {declared} but used for {other}"):
        gather_downgrades(program, policy)


def test_output_channel_length_rejected():
    with pytest.raises(PolicyError, match="line 3: only an input channel has a length"):
        parse_policy("lattice: L < H\nvar x : L\nchannel o : L output length 2\n")


def test_incomparable_levels_need_join():
    text = "lattice: A < T, B < T\nvar x : A\nvar y : B\nvar z : T\n"
    pol = parse_policy(text)
    assert domain_of_expr(BinOp("+", Var("x"), Var("y")), pol) == "T"
    # A diamond-free pair of tops breaks the join and is reported.
    broken = parse_policy("lattice: A < T1, A < T2, B < T1, B < T2\nvar x : A\nvar y : B\n")
    with pytest.raises(PolicyError):
        domain_of_expr(BinOp("+", Var("x"), Var("y")), broken)


# Every message of a policy file the parser rejects, and of a policy that
# does not fit its program (gather_downgrades): (policy text, program text
# or None, message).  The order of a cycle's two levels is a set's, so that
# message is a pattern.
POLICY_ERRORS = {
    "empty-lattice": ("lattice:\n", None, "line 1: empty lattice declaration"),
    "lattice-item": ("lattice: L < H < T\n", None, "line 1: malformed lattice item 'L < H < T'"),
    "var": ("lattice: L < H\nvar x L\n", None, "line 2: malformed var declaration"),
    "duplicate-var": (
        "lattice: L < H\nvar x : L\nvar x : H\n", None, "line 3: duplicate declaration of 'x'"
    ),
    "unknown-domain": ("lattice: L < H\nvar x : M\n", None, "line 2: unknown security domain 'M'"),
    "channel": ("lattice: L < H\nchannel c : L\n", None, "line 2: malformed channel declaration"),
    "duplicate-channel": (
        "lattice: L < H\nvar c : L\nchannel c : L output\n",
        None,
        "line 3: duplicate declaration of 'c'",
    ),
    "direction": (
        "lattice: L < H\nchannel c : L sideways\n", None, "line 2: bad channel direction 'sideways'"
    ),
    "length-keyword": (
        "lattice: L < H\nchannel c : L input size 2\n", None, "line 2: expected 'length'"
    ),
    "output-length": (
        "lattice: L < H\nchannel o : L output length 2\n",
        None,
        "line 2: only an input channel has a length",
    ),
    "bad-length": (
        "lattice: L < H\nchannel c : L input length two\n", None, "line 2: bad length 'two'"
    ),
    "negative-length": (
        "lattice: L < H\nchannel c : L input length -1\n", None, "line 2: negative channel length"
    ),
    "unrecognized": (
        "lattice: L < H\nfrob x y\n", None, "line 2: unrecognized declaration 'frob x y'"
    ),
    "no-domains": ("# no lattice\n", None, "policy declares no security domains"),
    "cycle": (
        "lattice: A < B, B < A\n", None, "lattice order has a cycle through '[AB]' and '[AB]'"
    ),
    # two bare domains parse, but a constant then has no least level
    "no-least-element": (
        "lattice: A, B\nvar x : A\n", "x := declass(1)", "lattice has no unique least element"
    ),
    "no-join": (
        "lattice: A < T1, A < T2, B < T1, B < T2\nvar x : A\nvar y : B\n",
        "x := x + y",
        "no unique least upper bound for 'A' and 'B'",
    ),
    "undeclared-variable": (
        "lattice: L < H\nvar l : L\n", "l := z", "variable 'z' has no declared level"
    ),
    "channel-as-variable": (
        "lattice: L < H\nvar l : L\nchannel c : L output\n",
        "l := c",
        "name 'c' is declared as a channel but used as a variable",
    ),
    "undeclared-channel": (
        "lattice: L < H\nvar l : L\n", "output(l, c)", "channel 'c' has no declaration"
    ),
    "direction-of-use": (
        "lattice: L < H\nvar l : L\nchannel c : L output\n",
        "input(l, c)",
        "channel 'c' is declared output but used for input",
    ),
}


@pytest.mark.parametrize("case", POLICY_ERRORS.values(), ids=POLICY_ERRORS)
def test_each_policy_error_has_its_message(case):
    text, program_text, message = case
    with pytest.raises(PolicyError) as error:
        policy = parse_policy(text)
        assert program_text is not None, "the policy parsed"
        gather_downgrades(parse_program(program_text), policy)
    assert re.fullmatch(message, str(error.value))
