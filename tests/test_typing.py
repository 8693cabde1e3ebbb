"""The typing check that decides a level without a search.

``policy.typable`` accepts a level only when a security type system
proves it where-secure, and ``reach.post_star`` then skips the search.
The argument test holds that proof against the full search of the bare
system: every level the check accepts as typable, over both corpora,
randprog seeds 0-399 with and without I/O, the deep loops D' and D'',
``wide(n)`` and hand-written cases, must be secure under
``post_star(model.spds)`` in both modes.  A level that observes everything
keeps its own reason, and ``tests/test_reach.py`` holds that case against
the full search.  A failure here is a fault of the check, not of the search.
Over the same groups, the check must type every level that the
flow-insensitive check it replaced (``reference.vsi_typable``) types, and
every level that its form without constants (``reference.equal_set_typable``)
types.
"""

import random

import pytest

from wherecheck.bdd import bv_const
from wherecheck.compose import self_compose, tr_compose
from wherecheck.modelgen import build_model
from wherecheck.policy import OBSERVES_EVERYTHING, TYPABLE, typable
from wherecheck.reach import is_error_reachable, post_star
from wherecheck.spds import GlobalsDecl, RelationAlgebra
from wherecheck.syntax import PRECEDENCE, BinOp, Expr, Num, Var, eval_nodes, format_expr, postfix
from programs import D_POLICY, cases, load_text
from reference import equal_set_typable, vsi_typable

TWO = "lattice: L < H\nvar h : H\nvar l : L\n"
THREE = "lattice: L < M, M < H\nvar h : H\nvar m : M\nvar l : L\n"


# One case per rule, accepted and rejected, at observer L unless it says M.
RULES = [
    ("l := l + 1; h := h + l", TWO, "L", TYPABLE),
    ("l := h", TWO, "L", ""),
    ("if h then h := 1 else skip fi; l := 2", TWO, "L", TYPABLE),
    ("if h then l := 1 else skip fi", TWO, "L", ""),
    ("while h do h := h - 1 od", TWO, "L", TYPABLE),
    ("while h do l := 0 od", TWO, "L", ""),
    ("l := declass(h)", TWO, "L", TYPABLE),
    ("if l then l := declass(h) else skip fi", TWO, "L", TYPABLE),
    ("if h then l := declass(h) else skip fi", TWO, "L", ""),
    ("while l do l := declass(h) od", TWO, "L", ""),
    ("while l do l := declass(l + 1) od; h := 0", TWO, "L", TYPABLE),
    ("while l do l := declass(m) od; h := h + 1", THREE, "M", TYPABLE),
    ("while l do l := declass(m) od; h := h + 1", THREE, "L", ""),
    ("h := declass(l)", TWO, "L", TYPABLE),
    ("l := declass(l + h)", TWO, "L", TYPABLE),
    ("input(l, i); h := l", TWO + "channel i : L input length 1\n", "L", TYPABLE),
    ("if h then input(h, i) else skip fi", TWO + "channel i : L input length 1\n", "L", ""),
    ("input(h, hi)", TWO + "channel hi : H input length 1\n", "L", TYPABLE),
    ("input(l, hi)", TWO + "channel hi : H input length 1\n", "L", ""),
    ("output(l, o); h := l", TWO + "channel o : L output\n", "L", TYPABLE),
    ("output(h, o)", TWO + "channel o : L output\n", "L", ""),
    ("if h then output(1, o) else skip fi", TWO + "channel o : L output\n", "L", ""),
    ("if h then output(h, ho) else skip fi", TWO + "channel ho : H output\n", "L", TYPABLE),
    ("m := declass(h); l := m", THREE, "M", TYPABLE),
    ("m := declass(h); l := m", THREE, "L", TYPABLE),
    # the release premise: a real downgrade of a bare variable, under a low pc
    # and outside every loop, makes that variable equal in both runs too
    ("l := declass(h); l := h", TWO, "L", TYPABLE),
    ("i := 0; while i < 1 do l := declass(h); l := h; i := i + 1 od", TWO + "var i : L\n", "L", ""),
    ("if h then l := declass(h) else l := declass(h) fi; l := h", TWO, "L", ""),
    ("l := declass(h + 1); l := h", TWO, "L", ""),
    ("l := l + 1; h := l", TWO, "H", OBSERVES_EVERYTHING),
]

# Constants, each case once typed and once not: a guard with a known value
# leaves the other branch unchecked, and a variable with the same value in
# every run is low.  (program text, policy text, reason at L)
CONSTANTS = [
    ("l := 0; if l then l := h else skip fi", TWO, TYPABLE),
    ("l := 1; if l then l := h else skip fi", TWO, ""),
    ("k := 0; if h then l := declass(k) else l := 0 fi", TWO + "var k : H\n", TYPABLE),
    ("k := 1; if h then l := declass(k) else l := 0 fi", TWO + "var k : H\n", ""),
    # a loop head keeps only what every pass agrees on: i is 0 only on the first
    (
        "i := 0; while i < 2 do k := 0; if k then l := h else skip fi; i := i + 1 od",
        TWO + "var i : L\nvar k : H\n",
        TYPABLE,
    ),
    ("i := 0; while i < 2 do if i then l := h else skip fi; i := i + 1 od", TWO + "var i : L\n", ""),
    ("while 1 do skip od; l := h", TWO, TYPABLE),
    ("while 0 do skip od; l := h", TWO, ""),
    (
        "input(k, hi); k := 0; if k then l := h else skip fi",
        TWO + "var k : H\nchannel hi : H input length 1\n",
        TYPABLE,
    ),
    (
        "k := 0; input(k, hi); if k then l := h else skip fi",
        TWO + "var k : H\nchannel hi : H input length 1\n",
        "",
    ),
    # a guard is read at bits, as the interpreter reads it, even one with no
    # variable outside every comparison: at bits 2, 2 and 1 < 2 are nonzero and 4 is 0
    ("if 1 then skip else l := h fi", TWO, TYPABLE),
    ("if 2 then skip else l := h fi", TWO, TYPABLE),
    ("if 4 then skip else l := h fi", TWO, ""),
    ("while 0 < 1 do skip od; l := h", TWO, TYPABLE),
    ("while 1 < 2 do skip od; l := h", TWO, TYPABLE),
    ("while 1 < 1 do skip od; l := h", TWO, ""),
    ("k := 3; if k + 2 then skip else l := h fi", TWO + "var k : L\n", TYPABLE),
    ("k := 3; if (k < 2) + 2 then skip else l := h fi", TWO + "var k : L\n", TYPABLE),
    ("k := 3; if (k < 2) + 4 then skip else l := h fi", TWO + "var k : L\n", ""),
]
RULES += [(text, pol, "L", reason) for text, pol, reason in CONSTANTS]

# Equal operands, each case once typed and once not: an operator whose two
# operands are the same expression has a fixed value (h - h, h != h and h < h
# are 0, h == h and h <= h are 1), and x := x changes no store.  Operands are
# compared node by node, so h - (h - h) folds only its inner h - h and reads h.
# (program text, policy text, reason at L)
IDENTITIES = [
    ("l := h - h", TWO, TYPABLE),
    ("l := h - (h - h)", TWO, ""),
    ("if h != h then l := h else skip fi", TWO, TYPABLE),
    ("if h != (h - h) then l := 1 else skip fi", TWO, ""),
    ("l := h < h", TWO, TYPABLE),
    ("l := h < h + 1", TWO, ""),
    ("if h == h then skip else l := h fi", TWO, TYPABLE),
    ("if h == h then l := h else skip fi", TWO, ""),
    ("l := l + (h <= h)", TWO, TYPABLE),
    ("l := l + (h <= 1)", TWO, ""),
    ("output(h - h, o)", TWO + "channel o : L output\n", TYPABLE),
    ("output(h - (h - h), o)", TWO + "channel o : L output\n", ""),
    ("if h then l := l else skip fi", TWO, TYPABLE),
    ("if h then l := declass(l) else skip fi", TWO, TYPABLE),
    ("if h then l := l + 1 else skip fi", TWO, ""),
    # folded in place: h - h is 0, so (h - h) + 2 reads 2 at bits 2
    ("if (h - h) + 2 then skip else l := h fi", TWO, TYPABLE),
    ("if (h - h) + 2 then l := h else skip fi", TWO, ""),
]
RULES += [(text, pol, "L", reason) for text, pol, reason in IDENTITIES]

# A constant wraps at the width: 2 is 0 at bits 1, so the output never runs.
WRAP = ("l := 2; if l then output(h, o) else skip fi", TWO + "channel o : L output\n")


@pytest.mark.parametrize("text, pol, level, reason", RULES)
def test_each_rule_accepts_and_rejects(text, pol, level, reason):
    assert typable(*load_text(text, pol), level, 2) == reason


@pytest.mark.parametrize("bits, reason", [(1, TYPABLE), (2, "")])
def test_a_constant_guard_wraps_at_the_width(bits, reason):
    assert typable(*load_text(*WRAP), "L", bits) == reason


def _random_guard(rng: random.Random, depth: int) -> Expr:
    if depth == 0 or rng.random() < 0.3:
        return Var("k") if rng.random() < 0.4 else Num(rng.randrange(4))
    op = rng.choice(sorted(PRECEDENCE))
    return BinOp(op, _random_guard(rng, depth - 1), _random_guard(rng, depth - 1))


@pytest.mark.parametrize("bits", [1, 2, 3])
def test_a_known_guard_goes_the_way_the_interpreter_reads_it(bits):
    """With k a constant, ``if g then skip else l := h fi`` types exactly when the
    interpreter's reading of g (``eval_nodes`` at bits) is nonzero."""
    rng = random.Random(bits)
    pol = TWO + "var k : L\n"
    for _ in range(200):
        guard = _random_guard(rng, 3)
        for k in range(1 << bits):
            text = f"k := {k}; if {format_expr(guard)} then skip else l := h fi"
            taken = eval_nodes(postfix(guard), {"k": k}, bits) != 0
            assert typable(*load_text(text, pol), "L", bits) == (TYPABLE if taken else ""), text


# The value each operator has when its two operands are the same expression.
FOLDED = {"-": 0, "!=": 0, "<": 0, "==": 1, "<=": 1}


@pytest.mark.parametrize("bits", [1, 2, 3])
def test_equal_operands_have_the_folded_value_in_the_model_and_the_interpreter(bits):
    """For random e, the model compiles ``e op e`` to the constant the check folds it
    to, as a guard and as a value at bits, and ``eval_nodes`` reads that constant on
    every store; and the model reads e itself as a guard as the interpreter does."""
    rng = random.Random(100 + bits)
    alg = RelationAlgebra(GlobalsDecl((("k", bits),)))
    stores = [{"k": k} for k in range(1 << bits)]
    for _ in range(100):
        e = _random_guard(rng, 3)
        guard, nodes = alg.compile_guard(e), postfix(e)
        for store in stores:
            cube = alg.set_from_fixed(store)
            taken = alg.mgr.conj(guard, cube) == cube
            assert taken == (eval_nodes(nodes, store, bits) != 0), (format_expr(e), store)
        for op, value in FOLDED.items():
            both = BinOp(op, e, e)
            assert alg.compile_guard(both) == (alg.mgr.TRUE if value else alg.mgr.FALSE), format_expr(both)
            assert alg.compile_value(both, bits) == bv_const(alg.mgr, value, bits), format_expr(both)
            nodes = postfix(both)
            assert all(eval_nodes(nodes, store, bits) == value for store in stores), format_expr(both)


@pytest.mark.parametrize("mode", [self_compose, tr_compose], ids=["storematch", "tr"])
def test_a_folded_guard_read_at_bits_leaks_when_its_branch_does(mode):
    """(h - h) + 2 is 2 at bits 2, so the then branch runs: the check does not type
    the level, the search runs, and it finds the leak."""
    program, policy = load_text("if (h - h) + 2 then l := h else skip fi", TWO)
    assert not typable(program, policy, "L", 2)
    model = mode(build_model(program, policy, "L", bits=2, capacity=4))
    auto = post_star(model)
    assert auto.steps > 0 and auto.reason == ""
    assert is_error_reachable(auto, model)


# ROADMAP item 2's first hand-written loop case.  Under the model's reading
# run two's releases at a site are matched only against run one's last one,
# so level L is insecure in both modes, while replay_witness (whole per-site
# lists) and the oracle (positional pairs) call the pair outside the
# premise.  The check must keep this level searched, or it would hide that.
LOOP = (
    "i := 0;\nwhile (i < 2) do\n  l := declass(h);\n  output(l, o);\n  h := h & 1;\n"
    "  i := i + 1\nod\n"
)
LOOP_POLICY = "lattice: L < H\nvar h : H\nvar l : L\nvar i : L\nchannel o : L output\n"


@pytest.mark.parametrize("mode", [self_compose, tr_compose], ids=["storematch", "tr"])
def test_a_downgrade_in_a_loop_is_searched(mode):
    program, policy = load_text(LOOP, LOOP_POLICY)
    assert not typable(program, policy, "L", 2)
    model = mode(build_model(program, policy, "L", bits=2, capacity=4))
    auto = post_star(model)
    assert auto.steps > 0 and auto.reason == ""


# The argument test.

D_SHAPE = "i := 0;\nwhile (i < 1000) do\n  i := i + 1;\n  {body}\nod;\nh := h + l\n"


def wide(n: int) -> tuple[str, str]:
    text = "".join(f"x{i} := x{i} + 1;\n" for i in range(n)) + "x0 := x0 + h\n"
    return text, "lattice: L < H\nvar h : H\n" + "".join(f"var x{i} : L\n" for i in range(n))


# (program text, policy text, bits)
HAND_WRITTEN = [
    ("if h then l := declass(h) else skip fi\n", TWO, 2),
    ("if h then m := declass(h) else skip fi;\nl := l + 1\n", THREE, 2),
    ("if h then input(l, i) else skip fi;\ninput(l, i)\n", TWO + "channel i : L input length 2\n", 2),
    ("if h then output(1, o) else skip fi;\noutput(l, o)\n", TWO + "channel o : L output\n", 2),
    (
        "m := l + 1;\nh := m;\nif m then output(m, om) else output(h, ho) fi\n",
        THREE + "channel om : M output\nchannel ho : H output\n",
        2,
    ),
]
HAND_WRITTEN += [(text, pol, 2) for text, pol, _ in CONSTANTS + IDENTITIES] + [(*WRAP, 1), (*WRAP, 2)]

# (bits, capacity) of each group of the case table
ARGUMENT_SIZES = {
    "table3": [(bits, 8) for bits in range(1, 7)],
    "iobench": (2, 8),
    "randprog": [(bits, 4) for bits in (1, 2, 3)],
    "randprog-io": [(bits, 4) for bits in (1, 2, 3)],
}
# The groups of this test alone
LOCAL_GROUPS = {
    "deep": [
        ("D'", D_SHAPE.format(body="l := l + 1"), D_POLICY, 10, 8),
        ("D''", D_SHAPE.format(body="l := l + 1 + h - h"), D_POLICY, 10, 8),
    ],
    "wide": [(f"wide({n})", *wide(n), 8, 8) for n in range(1, 9)],
    "hand": [(f"hand{k}@{bits}", text, pol, bits, 4) for k, (text, pol, bits) in enumerate(HAND_WRITTEN)],
}
ARGUMENT_GROUPS = (*ARGUMENT_SIZES, *LOCAL_GROUPS)


def _argument_cases(group: str) -> list[tuple]:
    """(name, program text, policy text, bits, capacity) of one group."""
    if group in LOCAL_GROUPS:
        return LOCAL_GROUPS[group]
    return [
        (f"{name}@{bits}", text, pol, bits, capacity)
        for name, text, pol, bits, capacity in cases({group: ARGUMENT_SIZES[group]})
    ]


@pytest.mark.parametrize("group", ARGUMENT_GROUPS)
def test_every_typable_level_is_secure_under_the_full_search(group):
    accepted = []
    for name, text, pol, bits, capacity in _argument_cases(group):
        program, policy = load_text(text, pol)
        for level in sorted(policy.domains):
            reason = typable(program, policy, level, bits)
            if not reason:
                continue
            for mode in (self_compose, tr_compose):
                model = mode(build_model(program, policy, level, bits=bits, capacity=capacity))
                if reason == TYPABLE:
                    assert not is_error_reachable(post_star(model.spds), model), (name, level)
                auto = post_star(model)
                assert (auto.reason, auto.steps, auto.edge_count) == (reason, 0, 1), (name, level)
            if reason == TYPABLE:
                accepted.append((name, level))
    if group == "deep":
        assert accepted == [("D'", "L")]
    elif group == "wide":
        assert accepted == []  # x0 := x0 + h: only H, which observes everything, types
    else:
        assert accepted


@pytest.mark.parametrize("group", ARGUMENT_GROUPS)
def test_every_level_the_flow_insensitive_check_types_still_types(group):
    for name, text, pol, bits, _ in _argument_cases(group):
        program, policy = load_text(text, pol)
        for level in sorted(policy.domains):
            if vsi_typable(program, policy, level):
                assert typable(program, policy, level, bits), (name, level)


@pytest.mark.parametrize("group", ARGUMENT_GROUPS)
def test_every_level_the_check_without_constants_types_still_types(group):
    for name, text, pol, bits, _ in _argument_cases(group):
        program, policy = load_text(text, pol)
        for level in sorted(policy.domains):
            if equal_set_typable(program, policy, level):
                assert typable(program, policy, level, bits), (name, level)


@pytest.mark.parametrize(
    "group, secure, typed",
    [("table3", 5, 5), ("iobench", 6, 6), ("randprog", 341, 320), ("randprog-io", 316, 300)],
)
def test_precision_against_the_search(group, secure, typed):
    """At bits 2, the programs secure at every level, and those typable at every level."""
    programs = {}
    for name, text, pol, bits, capacity in _argument_cases(group):
        if bits != 2:
            continue
        program, policy = load_text(text, pol)
        verdicts = []
        for level in sorted(policy.domains):
            model = self_compose(build_model(program, policy, level, bits=2, capacity=capacity))
            verdicts.append(
                (not is_error_reachable(post_star(model), model), bool(typable(program, policy, level, 2)))
            )
        programs[name] = [all(column) for column in zip(*verdicts)]
    assert sum(s for s, _ in programs.values()) == secure
    assert sum(t for _, t in programs.values()) == typed
    if group in ("table3", "iobench"):
        assert [n for n, (s, t) in programs.items() if s and not t] == []
