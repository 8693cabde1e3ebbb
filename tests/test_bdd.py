import itertools

import pytest
from hypothesis import given, settings, strategies as st

from wherecheck.bdd import (
    _OP_RELPROD,
    BDD,
    BudgetExceeded,
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
    bv_not,
    bv_sub,
    bv_value,
)


def eval_node(mgr, u, assignment):
    while mgr.level[u] < 1 << 60:
        u = mgr.hi[u] if assignment.get(mgr.level[u], False) else mgr.lo[u]
    return u == mgr.TRUE


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
    assert truth_table(mgr, mgr.nvar(0), [0]) == [True, False]
    assert mgr.neg(mgr.TRUE) == mgr.FALSE


def test_hash_consing_is_canonical():
    mgr = BDD()
    a = mgr.conj(mgr.var(0), mgr.var(3))
    b = mgr.conj(mgr.var(3), mgr.var(0))
    assert a == b
    c = mgr.disj(mgr.neg(mgr.nvar(0)), mgr.FALSE)
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
                    term = mgr.conj(term, mgr.var(lvl) if bit else mgr.nvar(lvl))
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
        assert eval_node(mgr, mgr.neg(u), env) == (not ev_u)
        assert eval_node(mgr, mgr.iff(u, v), env) == (ev_u == ev_v)


def test_exists_quantifies_out():
    mgr = BDD()
    u = mgr.conj(mgr.var(0), mgr.var(3))

    def exists(w, levels):
        return mgr.relprod(w, mgr.TRUE, mgr.step(4, drop=levels))

    assert exists(u, [0]) == mgr.var(3)
    assert exists(u, [0, 3]) == mgr.TRUE
    assert exists(mgr.FALSE, [0]) == mgr.FALSE
    v = mgr.xor(mgr.var(0), mgr.var(3))
    assert exists(v, [3]) == mgr.TRUE


def test_rename_monotone_shift():
    mgr = BDD()
    u = mgr.conj(mgr.var(0), mgr.nvar(3))
    expected = mgr.conj(mgr.var(1), mgr.nvar(4))
    assert mgr.relprod(mgr.TRUE, u, mgr.step(5, vmap={0: 1, 3: 4})) == expected
    assert mgr.relprod(u, mgr.TRUE, mgr.step(5, out={0: 1, 3: 4})) == expected
    assert mgr.relprod(u, mgr.TRUE, mgr.step(5)) == u


def test_rename_order_violation_asserts():
    mgr = BDD()
    u = mgr.conj(mgr.var(0), mgr.var(3))
    with pytest.raises(AssertionError):
        mgr.relprod(mgr.TRUE, u, mgr.step(6, vmap={0: 5, 3: 2}))
    with pytest.raises(AssertionError):
        mgr.relprod(u, mgr.TRUE, mgr.step(6, out={0: 5, 3: 2}))


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
                term = mgr.conj(term, mgr.var(lvl) if (row >> i) & 1 else mgr.nvar(lvl))
            out = mgr.disj(out, term)
    return out


@settings(max_examples=300, deadline=None)
@given(relprod_cases())
def test_relprod_matches_truth_tables(case):
    su, fu, sv, fv, vmap, drop, out = case
    mgr = BDD()
    u, v = from_truth_table(mgr, su, fu), from_truth_table(mgr, sv, fv)
    step = mgr.step(LEVELS, vmap=vmap, drop=drop, out=out)
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
    assert mgr.step(8).last == -1
    assert mgr.step(8, vmap={0: 3, 2: 4}).last == 2
    assert mgr.step(8, drop=[6, 2]).last == 6
    assert mgr.step(8, out={3: 1, 5: 4}).last == 5
    assert mgr.step(8, vmap={6: 6}, out={7: 7}).last == -1  # identity entries
    assert mgr.step(8, vmap={3: 2}, drop=[2], out={5: 4}).last == 5


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
    step = mgr.step(LEVELS, **kwargs)
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


def test_step_ids_stop_at_the_cache_key_bound():
    # Step ids take 12 bits of a packed cache key; one more step would alias.
    mgr = BDD()
    x = mgr.var(0)
    for k in range(4096):  # every subset of levels 0-11 as a drop set
        drop = [lvl for lvl in range(12) if (k >> lvl) & 1]
        step = mgr.step(13, drop=drop)
        assert mgr.relprod(x, mgr.TRUE, step) == (mgr.TRUE if k & 1 else x)
        assert mgr.step(13, drop=drop) is step  # interned, no new id
    with pytest.raises(BudgetExceeded):
        mgr.step(13, drop=[12])


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
    assert eval_bv(mgr, bv_not(mgr, a), env) == (~x) & MASK
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


def test_bv_ite_muxes():
    mgr = BDD()
    g = mgr.var(12)
    five = bv_const(mgr, 5, 4)
    nine = bv_const(mgr, 9, 4)
    out = bv_ite(mgr, g, five, nine)
    assert eval_bv(mgr, out, {12: True}) == 5
    assert eval_bv(mgr, out, {12: False}) == 9


def test_bv_value_decodes_msb_first():
    levels = [0, 3, 6]
    assignment = {0: True, 3: False, 6: True}
    assert bv_value(lambda lvl: assignment[lvl], levels) == 5
