import itertools

import pytest
from hypothesis import given, settings, strategies as st

from wherecheck.bdd import (
    _OP_RELPROD,
    AND,
    BDD,
    DIFF,
    OR,
    XOR,
    BudgetExceeded,
    bv_add,
    bv_bitand,
    bv_bitor,
    bv_bool,
    bv_const,
    bv_eq,
    bv_from_levels,
    bv_le,
    bv_lt,
    bv_mul,
    bv_ne,
    bv_nonzero,
    bv_sub,
    bv_value,
)


def eval_node(mgr, u, assignment):
    while mgr.level[u] < 1 << 60:
        u = mgr.hi[u] if assignment.get(mgr.level[u], False) else mgr.lo[u]
    return u == mgr.TRUE


def literal(mgr, level, bit):
    """The variable at level, or its complement when bit is false."""
    return mgr.node(level, mgr.FALSE, mgr.TRUE) if bit else mgr.node(level, mgr.TRUE, mgr.FALSE)


def truth_table(mgr, u, levels):
    rows = []
    for bits in itertools.product([False, True], repeat=len(levels)):
        rows.append(eval_node(mgr, u, dict(zip(levels, bits))))
    return rows


def sat_all(mgr, u, levels):
    """Every assignment to the given levels, in ascending level order, that satisfies u.

    The levels must cover the support of u.
    """
    order = sorted(levels)

    def walk(n, i, prefix):
        if n == mgr.FALSE:
            return
        if i == len(order):
            if n == mgr.TRUE:
                yield tuple(prefix)
            return
        if mgr.level[n] == order[i]:
            yield from walk(mgr.lo[n], i + 1, prefix + [False])
            yield from walk(mgr.hi[n], i + 1, prefix + [True])
        else:
            yield from walk(n, i + 1, prefix + [False])
            yield from walk(n, i + 1, prefix + [True])

    yield from walk(u, 0, [])


def test_terminals_and_vars():
    mgr = BDD()
    x = mgr.var(0)
    assert truth_table(mgr, x, [0]) == [False, True]
    assert truth_table(mgr, literal(mgr, 0, False), [0]) == [True, False]
    assert mgr.diff(mgr.TRUE, mgr.TRUE) == mgr.FALSE
    assert mgr.diff(mgr.TRUE, mgr.FALSE) == mgr.TRUE


def test_hash_consing_is_canonical():
    mgr = BDD()
    a = mgr.conj(mgr.var(0), mgr.var(3))
    b = mgr.conj(mgr.var(3), mgr.var(0))
    assert a == b
    c = mgr.disj(mgr.diff(mgr.TRUE, literal(mgr, 0, False)), mgr.FALSE)
    assert c == mgr.var(0)


@settings(max_examples=120)
@given(st.integers(0, 255), st.integers(0, 255))
def test_connectives_match_truth_tables(fa, fb):
    # fa and fb are 8-row truth tables of functions over 3 variables.
    mgr = BDD()
    levels = [0, 3, 6]

    def from_table(table_bits):
        out = mgr.FALSE
        for row in range(8):
            if (table_bits >> row) & 1:
                term = mgr.TRUE
                for i, lvl in enumerate(levels):
                    bit = (row >> i) & 1
                    term = mgr.conj(term, literal(mgr, lvl, bit))
                out = mgr.disj(out, term)
        return out

    u, v = from_table(fa), from_table(fb)
    for bits in itertools.product([False, True], repeat=3):
        env = dict(zip(levels, bits))
        ev_u, ev_v = eval_node(mgr, u, env), eval_node(mgr, v, env)
        assert eval_node(mgr, mgr.conj(u, v), env) == (ev_u and ev_v)
        assert eval_node(mgr, mgr.disj(u, v), env) == (ev_u or ev_v)
        assert eval_node(mgr, mgr.xor(u, v), env) == (ev_u != ev_v)
        assert eval_node(mgr, mgr.diff(u, v), env) == (ev_u and not ev_v)


def test_apply_matches_truth_tables_exhaustively():
    # Every pair of the 16 functions over two levels, under each op.
    mgr = BDD()
    levels = [0, 3]
    funcs = [from_truth_table(mgr, levels, table) for table in range(16)]
    ops = {
        AND: lambda a, b: a and b,
        OR: lambda a, b: a or b,
        XOR: lambda a, b: a != b,
        DIFF: lambda a, b: a and not b,
    }
    for (u, v), (op, fn) in itertools.product(itertools.product(funcs, repeat=2), ops.items()):
        tu, tv = truth_table(mgr, u, levels), truth_table(mgr, v, levels)
        expected = [fn(a, b) for a, b in zip(tu, tv)]
        assert truth_table(mgr, mgr.apply(op, u, v), levels) == expected
    # Distinct functions are distinct nodes.
    assert len(set(funcs)) == 16


def test_diff_from_true_is_negation():
    mgr = BDD()
    levels = [0, 3, 6]
    for table in range(256):
        u = from_truth_table(mgr, levels, table)
        neg = mgr.diff(mgr.TRUE, u)
        assert truth_table(mgr, neg, levels) == [not b for b in truth_table(mgr, u, levels)]
        assert neg == from_truth_table(mgr, levels, 255 ^ table)
        assert mgr.diff(mgr.TRUE, neg) == u


def test_exists_quantifies_out():
    mgr = BDD()
    u = mgr.conj(mgr.var(0), mgr.var(3))

    def exists(w, levels):
        return mgr.relprod(w, mgr.TRUE, mgr.step(drop=levels))

    assert exists(u, [0]) == mgr.var(3)
    assert exists(u, [0, 3]) == mgr.TRUE
    assert exists(mgr.FALSE, [0]) == mgr.FALSE
    v = mgr.xor(mgr.var(0), mgr.var(3))
    assert exists(v, [3]) == mgr.TRUE


def test_rename_monotone_shift():
    mgr = BDD()
    u = mgr.conj(mgr.var(0), literal(mgr, 3, False))
    expected = mgr.conj(mgr.var(1), literal(mgr, 4, False))
    assert mgr.relprod(mgr.TRUE, u, mgr.step(vmap={0: 1, 3: 4})) == expected
    assert mgr.relprod(u, mgr.TRUE, mgr.step(out={0: 1, 3: 4})) == expected
    assert mgr.relprod(u, mgr.TRUE, mgr.step()) == u


def test_rename_order_violation_asserts():
    mgr = BDD()
    u = mgr.conj(mgr.var(0), mgr.var(3))
    with pytest.raises(AssertionError):
        mgr.relprod(mgr.TRUE, u, mgr.step(vmap={0: 5, 3: 2}))
    with pytest.raises(AssertionError):
        mgr.relprod(u, mgr.TRUE, mgr.step(out={0: 5, 3: 2}))


LEVELS = 9


def monotone_map(draw, domain):
    """An order-preserving map from the sorted levels in domain into range(LEVELS)."""
    size = len(domain)
    image = draw(st.sets(st.integers(0, LEVELS - 1), min_size=size, max_size=size))
    return dict(zip(sorted(domain), sorted(image)))


@st.composite
def relprod_cases(draw):
    levels = st.sets(st.integers(0, LEVELS - 1), max_size=3)
    su, sv = sorted(draw(levels)), sorted(draw(levels))
    fu = draw(st.integers(0, (1 << (1 << len(su))) - 1))
    fv = draw(st.integers(0, (1 << (1 << len(sv))) - 1))
    if draw(st.booleans()):  # one active level; every deeper one passes through to conj
        return (su, fu, sv, fv, *tail_step(draw, su, sv))
    vmap = {} if draw(st.booleans()) else monotone_map(draw, sv)
    product = set(su) | {vmap.get(lvl, lvl) for lvl in sv}
    drop = draw(st.sets(st.integers(0, LEVELS - 1)))
    out = monotone_map(draw, product - drop)
    return su, fu, sv, fv, vmap, drop, out


def tail_step(draw, su, sv):
    """Maps that touch one level a, mostly one the operands use, so they cross step.last."""
    a = draw(st.sampled_from(sorted(set(su) | set(sv)) or [0]))
    kind = draw(st.sampled_from(("vmap", "drop", "out")))
    taken = sv if kind == "vmap" else su + sv  # a - 1 must not collide with these
    moved = {a: a - 1} if a > 0 and a - 1 not in taken else {}
    return (
        moved if kind == "vmap" else {},
        {a} if kind == "drop" else set(),
        moved if kind == "out" else {},
    )


def from_truth_table(mgr, levels, table):
    out = mgr.FALSE
    for row in range(1 << len(levels)):
        if (table >> row) & 1:
            term = mgr.TRUE
            for i, lvl in enumerate(levels):
                term = mgr.conj(term, literal(mgr, lvl, (row >> i) & 1))
            out = mgr.disj(out, term)
    return out


@settings(max_examples=300, deadline=None)
@given(relprod_cases())
def test_relprod_matches_truth_tables(case):
    su, fu, sv, fv, vmap, drop, out = case
    mgr = BDD()
    u, v = from_truth_table(mgr, su, fu), from_truth_table(mgr, sv, fv)
    step = mgr.step(vmap=vmap, drop=drop, out=out)
    got = mgr.relprod(u, v, step)
    if not vmap:  # with v not relabelled, the operands may swap
        assert mgr.relprod(v, u, step) == got
    # Reference: over every product assignment y, the result holds at the
    # kept bits of y placed by out whenever u(y) and v(y o vmap) do.
    product = sorted(set(su) | {vmap.get(lvl, lvl) for lvl in sv})
    kept = [lvl for lvl in product if lvl not in drop]
    expected = set()
    for bits in itertools.product([False, True], repeat=len(product)):
        y = dict(zip(product, bits))
        env_u = {lvl: y[lvl] for lvl in su}
        env_v = {lvl: y[vmap.get(lvl, lvl)] for lvl in sv}
        if eval_node(mgr, u, env_u) and eval_node(mgr, v, env_v):
            expected.add(tuple(y[lvl] for lvl in kept))
    placed = [out.get(lvl, lvl) for lvl in kept]
    for bits in itertools.product([False, True], repeat=len(kept)):
        assert eval_node(mgr, got, dict(zip(placed, bits))) == (bits in expected)


def test_step_last_is_the_deepest_level_a_step_moves_or_drops():
    mgr = BDD()
    assert mgr.step().last == -1
    assert mgr.step(vmap={0: 3, 2: 4}).last == 2
    assert mgr.step(drop=[6, 2]).last == 6
    assert mgr.step(out={3: 1, 5: 4}).last == 5
    assert mgr.step(vmap={6: 6}, out={7: 7}).last == -1  # identity entries
    assert mgr.step(vmap={3: 2}, drop=[2], out={5: 4}).last == 5


@st.composite
def below_last_cases(draw):
    last = draw(st.integers(1, LEVELS - 2))
    kind = draw(st.sampled_from(("vmap", "drop", "out")))
    deeper = st.sets(st.integers(last + 1, LEVELS - 1), max_size=3)
    su, sv = sorted(draw(deeper)), sorted(draw(deeper))
    fu = draw(st.integers(0, (1 << (1 << len(su))) - 1))
    fv = draw(st.integers(0, (1 << (1 << len(sv))) - 1))
    moved = {last: last - 1}
    kwargs = dict(
        vmap=moved if kind == "vmap" else {},
        drop=[last] if kind == "drop" else [],
        out=moved if kind == "out" else {},
    )
    return su, fu, sv, fv, last, kwargs


@settings(max_examples=150, deadline=None)
@given(below_last_cases())
def test_relprod_below_last_is_conj(case):
    su, fu, sv, fv, last, kwargs = case
    mgr = BDD()
    u, v = from_truth_table(mgr, su, fu), from_truth_table(mgr, sv, fv)
    step = mgr.step(**kwargs)
    assert step.last == last
    assert mgr.relprod(u, v, step) == mgr.conj(u, v)
    # The shortcut answers before relprod makes or stores a key of its own.
    assert not any(key & 0xF == _OP_RELPROD for key in mgr._cache)


def test_sat_all_enumerates():
    mgr = BDD()
    u = mgr.xor(mgr.var(0), mgr.var(3))
    rows = sorted(sat_all(mgr, u, [0, 3]))
    assert rows == [(False, True), (True, False)]


def test_node_budget():
    mgr = BDD(node_budget=8)
    with pytest.raises(BudgetExceeded):
        acc = mgr.TRUE
        for i in range(64):
            acc = mgr.conj(acc, mgr.var(3 * i))


def test_step_ids_never_alias():
    # Step k and step k + 4096 quantify level 0 in turn, so a cache key
    # that kept only 12 bits of the step id would hand one the other's
    # answer.  There is no bound on the number of steps to stop at.
    mgr = BDD()
    x = mgr.var(0)
    for k in range(5000):
        odd = bin(k).count("1") % 2 == 1
        drop = [lvl + 1 for lvl in range(13) if (k >> lvl) & 1] + ([0] if odd else [])
        assert mgr.relprod(x, mgr.TRUE, mgr.step(drop=drop)) == (mgr.TRUE if odd else x)


def test_step_keeps_only_the_levels_it_moves():
    mgr = BDD()
    step = mgr.step(vmap={2: 3, 4: 4}, drop=[3, 3], out={5: 4, 6: 6})
    assert (step.vmap, step.drop, step.out) == ({2: 3}, frozenset({3}), {5: 4})
    # Equal arguments make a new step under a new id; nothing is interned.
    again = mgr.step(vmap={2: 3}, drop=[3], out={5: 4})
    assert again[1:] == step[1:] and again.sid != step.sid


WIDTH = 4
MASK = (1 << WIDTH) - 1


def make_vectors(mgr):
    a_levels = [3 * i for i in range(WIDTH)]
    b_levels = [3 * i + 1 for i in range(WIDTH)]
    return a_levels, b_levels, bv_from_levels(mgr, a_levels), bv_from_levels(mgr, b_levels)


def eval_bv(mgr, vec, env):
    value = 0
    for bit in vec:
        value = (value << 1) | (1 if eval_node(mgr, bit, env) else 0)
    return value


@settings(max_examples=80)
@given(st.integers(0, MASK), st.integers(0, MASK))
def test_bitvector_arithmetic_matches_python(x, y):
    mgr = BDD()
    a_levels, b_levels, a, b = make_vectors(mgr)
    env = {lvl: bool((x >> (WIDTH - 1 - i)) & 1) for i, lvl in enumerate(a_levels)}
    env.update({lvl: bool((y >> (WIDTH - 1 - i)) & 1) for i, lvl in enumerate(b_levels)})

    assert eval_bv(mgr, bv_add(mgr, a, b), env) == (x + y) & MASK
    assert eval_bv(mgr, bv_sub(mgr, a, b), env) == (x - y) & MASK
    assert eval_bv(mgr, bv_mul(mgr, a, b), env) == (x * y) & MASK
    assert eval_bv(mgr, bv_bitand(mgr, a, b), env) == x & y
    assert eval_bv(mgr, bv_bitor(mgr, a, b), env) == x | y
    assert eval_node(mgr, bv_eq(mgr, a, b), env) == (x == y)
    assert eval_node(mgr, bv_ne(mgr, a, b), env) == (x != y)
    assert eval_node(mgr, bv_lt(mgr, a, b), env) == (x < y)
    assert eval_node(mgr, bv_le(mgr, a, b), env) == (x <= y)
    assert eval_node(mgr, bv_nonzero(mgr, a), env) == (x != 0)


def test_bv_const_and_bool():
    mgr = BDD()
    assert eval_bv(mgr, bv_const(mgr, 5, 4), {}) == 5
    assert eval_bv(mgr, bv_const(mgr, 19, 4), {}) == 3
    assert eval_bv(mgr, bv_bool(mgr, mgr.TRUE, 4), {}) == 1
    assert eval_bv(mgr, bv_bool(mgr, mgr.FALSE, 4), {}) == 0


def test_bv_value_decodes_msb_first():
    levels = [0, 3, 6]
    assignment = {0: True, 3: False, 6: True}
    assert bv_value(lambda lvl: assignment[lvl], levels) == 5
