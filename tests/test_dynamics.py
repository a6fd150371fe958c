from __future__ import annotations

import time
import tracemalloc
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import funspace.dynamics
from funspace import (
    POSITIVE,
    BooleanNetwork,
    Component,
    FunctionShape,
    RegulatorContext,
    STG,
    attractors,
    component_transitions,
    enumerate_all,
    f_star,
    inf_shape,
    make_shape,
    network_from_functions,
    no_inhibitors,
    parse_model,
    path_trace,
    random_path,
    shape_leq,
    shape_transition_counts,
    stable_states,
    state_from_string,
    state_to_string,
    stg_async,
    stg_sync,
    sup_shape,
    transition_bounds,
    true_count,
)
from funspace.dynamics import _lift, _percolate
from funspace.errors import (
    ArityMismatch,
    InvalidArgument,
    NotAChain,
    NotAParent,
    NotAutoregulated,
    SingleRegulator,
    StateSpaceTooLarge,
)

from conftest import networks, reference_step


def all_sign_ctx(p):
    for signs in product("+-", repeat=p):
        yield RegulatorContext.from_str("".join(signs))


# ---------------------------------------------------------------------------
# The 3-gene toy network
#   g1 = g1 | (g2 & !g3),  g2 = !g3,  g3 = !g2


TOY_ASYNC_EDGES = {
    ("000", "010"), ("000", "001"),
    ("100", "110"), ("100", "101"),
    ("010", "110"),
    ("011", "001"), ("011", "010"),
    ("111", "101"), ("111", "110"),
}


def test_toy_async_graph(toy_bn):
    g = stg_async(toy_bn)
    assert g.mode == "async"
    assert g.n_edges == 9
    got = {(state_to_string(s, 3), state_to_string(t, 3)) for s, t in g.edges()}
    assert got == TOY_ASYNC_EDGES
    assert [state_to_string(s, 3) for s in g.stable_states()] == \
        ["110", "001", "101"]


def test_toy_sync_graph(toy_bn):
    g = stg_sync(toy_bn)
    assert g.mode == "sync"
    assert g.n_edges == 5  # three fixpoints have no out-edge
    atts = {frozenset(state_to_string(x, 3) for x in a) for a in attractors(g)}
    assert atts == {
        frozenset({"000", "011"}), frozenset({"100", "111"}),
        frozenset({"110"}), frozenset({"001"}), frozenset({"101"}),
    }


def test_toy_async_attractors_are_the_stable_states(toy_bn):
    g = stg_async(toy_bn)
    atts = attractors(g)
    assert all(len(a) == 1 for a in atts)
    assert {next(iter(a)) for a in atts} == set(g.stable_states())


def test_stable_states_mode_independent(toy_bn):
    assert stg_async(toy_bn).stable_states() == stg_sync(toy_bn).stable_states()
    assert stable_states(toy_bn) == stg_async(toy_bn).stable_states()


def test_async_sync_bit_consistency(toy_bn):
    # the sync successor flips exactly the bits that label async out-edges
    flips = [0] * 8
    for x, t in stg_async(toy_bn).edges():
        flips[x] |= x ^ t
    sync = dict(stg_sync(toy_bn).edges())
    assert [sync.get(x, x) for x in range(8)] == [x ^ f for x, f in enumerate(flips)]


def test_toy_component_transitions(toy_bn):
    ts = component_transitions(toy_bn, 0)  # g1, autoregulated
    assert ts.component == 0
    assert sorted(state_to_string(x, 3) for x in ts.increasing) == ["010"]
    assert ts.decreasing == frozenset()
    assert ts.total == 1
    ts2 = component_transitions(toy_bn, 1)  # g2 <- !g3
    assert (ts2.n_increasing, ts2.n_decreasing) == (2, 2)


def test_reduced_counts_match_toy(toy_bn):
    g1 = toy_bn.components[0]
    assert g1.ctx.self_index == 1
    assert shape_transition_counts(g1.shape, g1.ctx) == (1, 0, 3)
    g2 = toy_bn.components[1]
    assert shape_transition_counts(g2.shape, g2.ctx) == (1, 1, 2)


# ---------------------------------------------------------------------------
# Transition-count identities and bounds


def test_non_autoregulated_identities():
    # |T+| = |T(f)| and |T-| = 2^p - |T(f)| over the regulator space
    for p in (1, 2, 3, 4):
        for ctx in all_sign_ctx(p):
            for s in enumerate_all(p):
                inc, dec, n = shape_transition_counts(s, ctx)
                assert n == p + 1
                assert inc == true_count(s)
                assert dec == (1 << p) - true_count(s)
                assert inc + dec == 1 << (n - 1)  # constant total


def test_bounds_non_autoregulated():
    b = transition_bounds(RegulatorContext.all_positive(3))
    assert b.case == "none" and b.n == 4
    assert (b.total_min, b.total_max) == (8, 8)
    assert b.max_increasing == 7 and b.min_decreasing == 1
    # the extremes are attained: sup has T+ = 2^p - 1, T- = 1
    ctx = RegulatorContext.all_positive(3)
    assert shape_transition_counts(sup_shape(3), ctx)[:2] == (7, 1)
    assert shape_transition_counts(inf_shape(3), ctx)[:2] == (1, 7)


def test_bounds_positive_autoregulation():
    for p in (2, 3, 4):
        ctx = RegulatorContext.from_str("+" * p, self_index=p)
        b = transition_bounds(ctx)
        assert b.case == "positive" and b.n == p
        assert b.total_min == 0
        assert b.total_max == (1 << (p - 1)) - 1
        seen = set()
        for s in enumerate_all(p):
            inc, dec, _ = shape_transition_counts(s, ctx)
            assert b.admits(inc, dec)
            seen.add(inc + dec)
        assert max(seen) == b.total_max  # upper bound is tight


def test_bounds_negative_autoregulation():
    for p in (2, 3, 4):
        ctx = RegulatorContext.from_str("+" * (p - 1) + "-", self_index=p)
        b = transition_bounds(ctx)
        assert b.case == "negative" and b.n == p
        assert b.total_min == (1 << (p - 1)) + 1
        assert b.total_max == 1 << p
        assert b.max_increasing == 1 << (p - 1)
        totals = set()
        for s in enumerate_all(p):
            inc, dec, _ = shape_transition_counts(s, ctx)
            assert b.admits(inc, dec)
            totals.add(inc + dec)
        assert min(totals) == b.total_min  # lower bound is tight


def test_bounds_exhaustive_all_sign_patterns():
    for p in (2, 3):
        for signs in product("+-", repeat=p):
            for self_index in (None, 1, p):
                ctx = RegulatorContext.from_str("".join(signs),
                                                self_index=self_index)
                b = transition_bounds(ctx)
                for s in enumerate_all(p):
                    inc, dec, _ = shape_transition_counts(s, ctx)
                    assert b.admits(inc, dec), (s, str(ctx), self_index)


def test_balanced_function_order_implication():
    # |T(f)| = 2^(p-1) makes T+ and T- equal; anything below has
    # T- >= T+, anything above the reverse
    for p in (3, 4):
        ctx = RegulatorContext.all_positive(p)
        shapes = list(enumerate_all(p))
        half = 1 << (p - 1)
        for f in shapes:
            if true_count(f) != half:
                continue
            for g in shapes:
                gi, gd, _ = shape_transition_counts(g, ctx)
                if shape_leq(g, f):
                    assert gd >= gi
                if shape_leq(f, g):
                    assert gi >= gd


def test_transition_monotonicity_along_order():
    # f <= f' implies T+ grows and T- shrinks (any fixed ctx)
    for ctx in (RegulatorContext.all_positive(3),
                RegulatorContext.from_str("+-+"),
                RegulatorContext.from_str("++-", self_index=3)):
        shapes = list(enumerate_all(3))
        counts = {s: shape_transition_counts(s, ctx)[:2] for s in shapes}
        for a in shapes:
            for b in shapes:
                if shape_leq(a, b):
                    assert counts[a][0] <= counts[b][0]
                    assert counts[a][1] >= counts[b][1]


# ---------------------------------------------------------------------------
# The self-priming function f*


def test_f_star_shape_and_counts():
    ctx = RegulatorContext.from_str("++-", self_index=3)
    assert f_star(ctx) == make_shape([[1, 3], [2, 3]], 3)
    # self listed first works the same
    ctx_first = RegulatorContext.from_str("-++", self_index=1)
    assert f_star(ctx_first) == make_shape([[1, 2], [1, 3]], 3)
    assert shape_transition_counts(f_star(ctx_first), ctx_first) == (3, 4, 3)


def test_f_star_extremal_counts():
    for n in range(2, 6):
        for signs in product("+-", repeat=n - 1):
            ctx = RegulatorContext.from_str("".join(signs) + "-", self_index=n)
            inc, dec, _ = shape_transition_counts(f_star(ctx), ctx)
            assert inc == (1 << (n - 1)) - 1
            assert dec == 1 << (n - 1)


def test_f_star_order_implications():
    for n in (2, 3, 4):
        ctx = RegulatorContext.from_str("+" * (n - 1) + "-", self_index=n)
        fs = f_star(ctx)
        base_inc, base_dec, _ = shape_transition_counts(fs, ctx)
        for g in enumerate_all(n):
            gi, gd, _ = shape_transition_counts(g, ctx)
            assert gi <= 1 << (n - 1)  # global T+ cap under neg autoreg
            if shape_leq(fs, g):
                assert gi >= base_inc and gd <= base_dec
            if shape_leq(g, fs):
                assert gi <= base_inc and gd >= base_dec


def test_reference_functions_are_valid_shapes():
    # f_star and no_inhibitors build their shapes unchecked; the strict
    # constructor must accept each one as it stands
    def check(ctx):
        p = ctx.arity
        if ctx.self_index is not None:
            fs = f_star(ctx)
            assert fs == FunctionShape(p, fs.clauses)
        if POSITIVE in ctx.signs:
            ni = no_inhibitors(ctx)
            assert ni == FunctionShape(p, ni.clauses)

    for p in range(2, 9):
        for signs in product("+-", repeat=p):
            for self_index in (None, *range(1, p + 1)):
                check(RegulatorContext.from_str("".join(signs), self_index))
    for text in ("+" * 16, "+-" * 8, "+" + "-" * 15, "-" * 15 + "+"):
        for self_index in (None, 1, 2, 16):
            check(RegulatorContext.from_str(text, self_index))


def test_f_star_errors():
    with pytest.raises(NotAutoregulated):
        f_star(RegulatorContext.from_str("++"))
    with pytest.raises(SingleRegulator):
        f_star(RegulatorContext.from_str("-", self_index=1))


# ---------------------------------------------------------------------------
# Traces along ascending paths


def test_path_trace_envelope():
    ctx = RegulatorContext.all_positive(4)
    path = random_path(4, seed=3)
    rows = path_trace(ctx, path)
    assert len(rows) == len(path)
    assert rows[0].shape == inf_shape(4)
    assert rows[-1].shape == sup_shape(4)
    assert (rows[0].increasing, rows[0].decreasing) == (1, 15)
    assert (rows[-1].increasing, rows[-1].decreasing) == (15, 1)
    for a, b in zip(rows, rows[1:]):
        assert a.increasing <= b.increasing
        assert a.decreasing >= b.decreasing
        assert a.total == b.total == 16  # non-autoregulated: constant


def test_path_trace_errors():
    ctx = RegulatorContext.all_positive(3)
    with pytest.raises(NotAChain):
        path_trace(ctx, [])
    with pytest.raises(NotAParent):
        path_trace(ctx, [sup_shape(3), inf_shape(3)])  # wrong direction
    with pytest.raises(ArityMismatch):
        path_trace(ctx, [inf_shape(4), ])


# ---------------------------------------------------------------------------
# Network construction and guards


def test_network_from_functions():
    bn = network_from_functions([
        ("a", (("b",), "+", [[1]])),
        ("b", (("a",), "-", [[1]])),
        ("c", True),
    ])
    assert bn.names() == ("a", "b", "c")
    assert bn.components[2].constant is True
    # negative loop: a copies b, b negates a
    assert reference_step(bn, 0b000) == 0b110
    with pytest.raises(ValueError):
        network_from_functions([
            ("a", (("b",), "+", [[1]])),
            ("a", (("b",), "-", [[1]])),
            ("b", (("a",), "+", [[1]])),
        ])


def test_component_validation():
    with pytest.raises(ValueError):
        Component(name="x", regulators=(1,), constant=True)
    with pytest.raises(ValueError):
        Component(name="x", regulators=(0,), shape=sup_shape(1))
    with pytest.raises(ArityMismatch):
        Component(name="x", regulators=(0,), shape=sup_shape(2),
                  ctx=RegulatorContext.from_str("++"))
    with pytest.raises(ValueError):
        BooleanNetwork((
            Component(name="a", regulators=(0, 1), shape=sup_shape(2),
                      ctx=RegulatorContext.from_str("++", self_index=2)),
            Component(name="b", regulators=(0,), shape=sup_shape(1),
                      ctx=RegulatorContext.from_str("-")),
        ))


def test_state_space_limit(toy_bn):
    with pytest.raises(StateSpaceTooLarge):
        stg_async(toy_bn, limit=2)
    with pytest.raises(StateSpaceTooLarge):
        stable_states(toy_bn, limit=2)
    with pytest.raises(StateSpaceTooLarge):
        component_transitions(toy_bn, 0, limit=2)


def test_a_network_builds_its_tables_once(monkeypatch):
    # stable states, both attractor searches and the sync edge count read the
    # trap space alone: one percolation, one free-bit table per free component
    # and one fixed-point set on the free bits per network, which the async
    # search reuses; no table is built at the network's width
    model = "targets, factors\na, a | !b\nb, a & c\nc, true\nd, !d\ne, false\n"
    bn = parse_model(model)
    calls, original = [], funspace.dynamics.truth_table
    fixed_calls, fixed_points = [], funspace.dynamics._fixed_points
    percolations, percolate = [], funspace.dynamics._percolate

    def counting(shape, ctx, positions, n, fixed=None):
        calls.append((n, tuple(positions), fixed))
        return original(shape, ctx, positions, n, fixed)

    def counting_fixed(tables, n):
        fixed_calls.append(n)
        return fixed_points(tables, n)

    def counting_percolation(components):
        percolations.append(len(components))
        return percolate(components)

    monkeypatch.setattr(funspace.dynamics, "truth_table", counting)
    monkeypatch.setattr(funspace.dynamics, "_fixed_points", counting_fixed)
    monkeypatch.setattr(funspace.dynamics, "_percolate", counting_percolation)
    g_async, g_sync = stg_async(bn), stg_sync(bn)
    stable = stable_states(bn)
    attractors(g_async)
    attractors(g_sync)
    assert g_sync.n_edges == (1 << bn.n) - len(stable)
    assert g_async.stable_states() == g_sync.stable_states() == stable
    # c = true and e = false fix; a, b and d read free bits 0, 1 and 2
    assert calls == [(3, (0, 1), {}), (3, (0, None), {1: True}), (3, (2,), {})]
    assert percolations == [bn.n] and fixed_calls == [3]
    assert stg_sync(bn)._trap is stg_async(bn)._trap is bn._trap
    assert bn._trap[:2] == (0b10100, 0b00100)
    assert "_tables" not in vars(bn)
    # the first read of a graph's tables, edges or async edge count builds
    # each n-wide table once, and both graphs share them; each network still
    # percolates once and finds its fixed points once, on the free bits
    for read in (lambda g: g.tables, lambda g: g.n_edges, lambda g: list(g.edges())):
        fresh = parse_model(model)
        for counted in (calls, percolations, fixed_calls):
            counted.clear()
        read(stg_async(fresh))
        assert sorted(c[1] for c in calls if c[0] == bn.n) == [(0, 1), (0, 2), (3,)]
        assert stg_sync(fresh).successors and stg_async(fresh).n_edges
        assert stg_sync(fresh).tables is stg_async(fresh).tables is fresh._tables
        assert len([c for c in calls if c[0] == bn.n]) == 3
        assert percolations == [fresh.n] and fixed_calls == [3]
    # a graph built by hand fixes nothing: it calls neither truth_table nor
    # _percolate, and computes its own fixed points once
    tables = bn._tables
    built, percolated = len(calls), len(percolations)
    fixed_calls.clear()
    by_hand = STG("sync", bn.n, tables)
    assert by_hand.stable_states() == stable and attractors(by_hand) == attractors(g_sync)
    assert by_hand._trap == (0, 0, tables) and by_hand.n_edges == g_sync.n_edges
    assert fixed_calls == [bn.n]
    assert len(calls) == built and len(percolations) == percolated


def _component(name, regulators=(), shape=None, ctx=None, constant=None):
    return Component(name=name, regulators=regulators, shape=shape, ctx=ctx,
                     constant=constant)


# Hand-built input each constructor refuses (the parser never builds it).
CONSTRUCTOR_REFUSALS = [
    (lambda: _component("x", (1,), constant=True),
     "component x: constants take no regulators"),
    (lambda: _component("x", (0,), shape=sup_shape(1)),
     "component x: function needs a context"),
    (lambda: _component("x", (0, 0), sup_shape(2), RegulatorContext.from_str("++")),
     "component x: repeated regulator"),
    (lambda: BooleanNetwork((_component("a", constant=True), _component("a", constant=False))),
     "duplicate component names"),
    (lambda: BooleanNetwork((_component("a", (1,), sup_shape(1), RegulatorContext.from_str("+")),)),
     "component a: regulator index 1 out of range"),
    (lambda: BooleanNetwork((_component("a", (0,), sup_shape(1), RegulatorContext.from_str("+")),)),
     "component a: self_index None inconsistent with regulators (expected 1)"),
    (lambda: RegulatorContext((1, 0)), "signs must be +1 or -1"),
    (lambda: RegulatorContext((1, -1), 3), "self_index 3 outside 1..2"),
    (lambda: STG("bogus", 1, (0,)), "mode must be 'async' or 'sync', got 'bogus'"),
]


@pytest.mark.parametrize("build, message", CONSTRUCTOR_REFUSALS)
def test_constructors_refuse_hand_built_input(build, message):
    with pytest.raises(InvalidArgument) as err:
        build()
    assert isinstance(err.value, ValueError) and str(err.value) == message


def test_built_tables_leave_equality_hash_and_repr_alone(toy_bn):
    fresh, built = BooleanNetwork(toy_bn.components), BooleanNetwork(toy_bn.components)
    g = stg_sync(built)
    assert "_trap" in vars(built) and "_trap" not in vars(fresh)
    assert built == fresh and hash(built) == hash(fresh)
    assert repr(built) == repr(fresh)
    # a network's graph reads its tables on first use, and then equals,
    # hashes and prints as a graph built by hand from them
    by_hand = STG("sync", toy_bn.n, stg_sync(toy_bn).tables)
    assert "tables" not in vars(g)
    assert g == by_hand and hash(g) == hash(by_hand) and repr(g) == repr(by_hand)
    assert "_tables" in vars(built) and g.tables is built._tables
    assert g != stg_async(built)


def test_the_state_space_limit_holds_after_the_tables_are_built():
    bn = parse_model("targets, factors\na, a & b\nb, b\nc, true\n")
    for build in (lambda: stg_async(bn), lambda: stg_async(bn).tables):
        build()
        assert "_trap" in vars(bn)
        for call in (stable_states, stg_async, stg_sync):
            with pytest.raises(StateSpaceTooLarge):
                call(bn, limit=bn.n - 1)
    assert stable_states(bn, limit=bn.n) == (0b100, 0b110, 0b111)


def test_a_negative_state_space_limit_is_refused():
    bn = parse_model("targets, factors\n")  # no component exceeds any limit
    for call in (stable_states, stg_async, stg_sync,
                 lambda bn, limit: component_transitions(bn, 0, limit)):
        with pytest.raises(InvalidArgument) as err:
            call(bn, limit=-1)
        assert str(err.value) == "the state-space limit must be at least 0, got -1"


def _reference_attractors(stg):
    """Each state's reachable set, kept when every state in it reaches back."""
    succ = [[] for _ in range(1 << stg.n)]
    for s, t in stg.edges():
        succ[s].append(t)
    reach = []
    for s in range(1 << stg.n):
        seen, todo = {s}, [s]
        while todo:
            for w in succ[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        reach.append(seen)
    found = {frozenset(r) for s, r in enumerate(reach) if all(s in reach[t] for t in r)}
    return tuple(sorted(found, key=min))


@settings(max_examples=150, deadline=None)
@given(networks())
def test_network_evaluation_matches_evaluate(bn):
    steps = [reference_step(bn, s) for s in range(1 << bn.n)]
    assert [bn.step_sync(s) for s in range(1 << bn.n)] == steps
    g_async, g_sync = stg_async(bn), stg_sync(bn)
    assert g_async.successors == tuple(
        tuple(s ^ (1 << i) for i in range(bn.n) if (s ^ t) >> i & 1)
        for s, t in enumerate(steps)
    )
    assert g_sync.successors == tuple(() if s == t else (t,) for s, t in enumerate(steps))
    for g in (g_async, g_sync):
        assert attractors(g) == _reference_attractors(g)
    assert stable_states(bn) == tuple(s for s, t in enumerate(steps) if s == t)
    for i in range(bn.n):
        ts = component_transitions(bn, i)
        bit = 1 << i
        assert ts.increasing == {s for s, t in enumerate(steps) if t & bit and not s & bit}
        assert ts.decreasing == {s for s, t in enumerate(steps) if s & bit and not t & bit}


@settings(max_examples=20, deadline=None, derandomize=True)
@given(networks(min_n=8, max_n=10))
def test_attractors_past_six_components(bn):
    # large enough that the async search often moves its start state
    # several times before it reaches an attractor
    for g in (stg_async(bn), stg_sync(bn)):
        assert attractors(g) == _reference_attractors(g)


def _reference_trap(bn):
    """Percolation by brute force on the sync update map, in rounds: a
    component is fixed when its next value is the same at every state that
    agrees with the values of the rounds before.  ({component: value}, rounds)."""
    step = list(range(1 << bn.n))
    for s, t in stg_sync(bn).edges():
        step[s] = t
    fixed, rounds = {}, 0
    while True:
        cube = [s for s in range(1 << bn.n) if all(s >> i & 1 == v for i, v in fixed.items())]
        new = {i: step[cube[0]] >> i & 1 for i in range(bn.n)
               if i not in fixed and len({step[s] >> i & 1 for s in cube}) == 1}
        if not new:
            return fixed, rounds
        fixed.update(new)
        rounds += 1


# the constant x0 fixes in the first round, x1 in the second, x3 in the third
# and x5 in the fourth; on the way x4 turns into a self-loop and x8 into !x8,
# which stay free with x2, x6 and x7
FOUR_ROUNDS = parse_model(
    "targets, factors\nx0, true\nx1, x0 | x2\nx2, x2 | x6\nx3, !x1 & x4\n"
    "x4, x3 | x4\nx5, x3 | !x1\nx6, !x7\nx7, x6 & x2\nx8, !x8 | x5\n"
)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.integers(0, 4).flatmap(lambda k: networks(min_n=8, max_n=12, constants=k)))
@example(FOUR_ROUNDS)
def test_attractors_on_the_trap_space(bn):
    # the percolation matches the brute-force one, and the search on the
    # free components, lifted back, matches the full-space reference; the
    # stable states and edge counts match a hand-built graph, which fixes
    # nothing
    fixed, _ = _reference_trap(bn)
    mask, values, tables = bn._trap
    assert (mask, values) == (sum(1 << i for i in fixed),
                              sum(v << i for i, v in fixed.items()))
    assert len(tables) == bn.n - len(fixed)
    assert (bn._tables is tables) == (not mask)  # with nothing fixed, built once
    for g in (stg_async(bn), stg_sync(bn)):
        full = STG(g.mode, bn.n, bn._tables)
        assert full._trap[0] == 0
        assert attractors(g) == attractors(full) == _reference_attractors(g)
        assert g.stable_states() == full.stable_states() == stable_states(bn)
        assert g.n_edges == full.n_edges == sum(1 for _ in full.edges())


def test_percolation_takes_rounds():
    assert _reference_trap(FOUR_ROUNDS) == ({0: 1, 1: 1, 3: 0, 5: 0}, 4)
    assert FOUR_ROUNDS._trap[:2] == (0b101011, 0b11)


@pytest.mark.parametrize("text, fixed", [
    # every literal of the clause b & !c fixed true
    ("a, d | (b & !c)\nb, true\nc, false\nd, d", {1: 1, 2: 0, 0: 1}),
    # a literal fixed false in every clause
    ("a, (b & d) | !c\nb, false\nc, true\nd, d", {1: 0, 2: 1, 0: 0}),
    # a self-loop beside a false input stays free
    ("x, x | c\nc, false", {1: 0}),
    # one clause alive with a free literal: neither value is forced
    ("a, (b & d) | c\nb, true\nc, false\nd, d", {1: 1, 2: 0}),
])
def test_percolation_reads_the_clauses(text, fixed):
    bn = parse_model("targets, factors\n" + text + "\n")
    assert _percolate(bn.components) == (sum(1 << i for i in fixed),
                                         sum(v << i for i, v in fixed.items()))
    assert _reference_trap(bn)[0] == fixed


@pytest.mark.parametrize("mask", [0, 0b1, 0b1010_0110, (1 << 25) - 1,
                                  1 << 19 | 1 << 5, 1 << 24, 0b1000_0001 << 8])
def test_the_lift_deposits_the_free_bits_in_order(mask):
    # lanes of 0, 1 and 2-3 free bytes; the fixed bits read ``values``
    n, values = 25, mask & 0x0AAAAAA
    free = [i for i in range(n) if not mask >> i & 1]
    states = sorted(s for s in {0, 1, 0b1011, 0x15555, (1 << len(free)) - 1} if s >> len(free) == 0)
    want = [values | sum(1 << i for j, i in enumerate(free) if s >> j & 1) for s in states]
    assert _lift(mask, values, n)(states) == want == sorted(want)


def _shift_register(n):
    # x0 = false, x_i = x_{i-1}: long transients into the one fixed point 0
    return network_from_functions(
        [("x0", False)] + [(f"x{i}", ([f"x{i - 1}"], "+", [[1]])) for i in range(1, n)]
    )


def _alternating_ring(n):
    # x_i copies x_{i-1}, negated at odd i: the sync update is a permutation
    return network_from_functions(
        (f"x{i}", ([f"x{(i - 1) % n}"], "+-"[i % 2], [[1]])) for i in range(n)
    )


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("build", [_shift_register, _alternating_ring])
def test_sync_attractors_of_shift_registers_and_rings(build, n):
    g = stg_sync(build(n))
    atts = attractors(g)
    assert atts == _reference_attractors(g)
    assert [min(a) for a in atts] == sorted(min(a) for a in atts)


def test_sync_attractors_of_a_constant_feeding_a_two_cycle():
    # c = true, a = c AND NOT a, b = a (bit 0 is c): 001 and 111 lead into
    # the 2-cycle 011 <-> 101, and every state with c off leads to them
    bn = network_from_functions([
        ("c", True), ("a", (["c", "a"], "+-", [[1, 2]])), ("b", (["a"], "+", [[1]])),
    ])
    g = stg_sync(bn)
    assert attractors(g) == _reference_attractors(g) == (frozenset({0b011, 0b101}),)


def test_zero_component_network():
    bn = parse_model("targets, factors\n")
    assert stable_states(bn) == (0,)
    for g in (stg_async(bn), stg_sync(bn)):
        assert (g.n, g.n_edges, list(g.edges())) == (0, 0, [])
        assert g.stable_states() == (0,)
        assert attractors(g) == (frozenset({0}),)


def test_async_attractors_of_a_20_ring_stay_small():
    # x_i copies x_{i-1}, with signs alternating around the ring; the
    # explicit graph of 2^20 states peaked at 513 MB under tracemalloc
    n = 20
    bn = network_from_functions(
        (f"x{i}", ([f"x{(i - 1) % n}"], "+-"[i % 2], [[1]])) for i in range(n)
    )
    tracemalloc.start()
    try:
        atts = attractors(stg_async(bn))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
    assert len(atts) == 2 and atts == tuple(frozenset({s}) for s in stable_states(bn))


def test_th_model_stable_states_are_the_published_patterns(th_bn):
    # all 2^23 states; one step_sync per state would take minutes
    start = time.perf_counter()
    fixed = stable_states(th_bn)
    assert time.perf_counter() - start < 5
    on = {
        frozenset(th_bn.components[i].name for i in range(th_bn.n) if s >> i & 1)
        for s in fixed
    }
    assert on == {
        frozenset(),  # Th0
        frozenset({"GATA3", "IL10", "IL10R", "IL4", "IL4R", "STAT3", "STAT6"}),  # Th2
        frozenset({"IFNg", "IFNgR", "SOCS1", "Tbet"}),  # Th1
    }


def test_th_model_trap_space(th_bn):
    # percolation fixes the ten components off in every phenotype, and the
    # search on the 13 left finds the three phenotype stable states alone
    mask, values, tables = th_bn._trap
    fixed = {c.name: bool(values >> i & 1)
             for i, c in enumerate(th_bn.components) if mask >> i & 1}
    assert fixed == dict.fromkeys(["IFNb", "IFNbR", "IL12", "IL12R", "IL18", "IL18R",
                                   "IRAK", "NFAT", "STAT4", "TCR"], False)
    assert len(tables) == 13
    stable = stable_states(th_bn)
    assert all(s & mask == values for s in stable)
    want = tuple(frozenset({s}) for s in stable)
    assert attractors(stg_async(th_bn)) == attractors(stg_sync(th_bn)) == want


def test_local_state_projection(toy_bn):
    # g1 sees (g1, g2, g3); network state 010 projects to regulator
    # state 010 and g1's next value is true there
    x = state_from_string("010")
    assert reference_step(toy_bn, x) == state_from_string("110")
