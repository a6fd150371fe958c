from __future__ import annotations

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings

from funspace import (
    FunctionShape,
    RegulatorContext,
    enumerate_all,
    evaluate,
    inf_shape,
    is_consistent,
    level,
    level_leq,
    majority_rule,
    make_shape,
    minimize,
    no_inhibitors,
    shape_from_truth_table,
    shape_leq,
    shape_lt,
    shape_transition_counts,
    signatures,
    state_from_string,
    state_to_string,
    sup_shape,
    true_count,
    true_states,
)
from funspace.shapes import (
    clause_table,
    compile_clauses,
    holds,
    shape_table,
    table_states,
    truth_table,
    variable_table,
)
from funspace.errors import (
    ArityTooLarge,
    EmptyClauseSet,
    NoActivators,
    NotAntichain,
    NotConsistent,
    NotCover,
    ThresholdOutOfRange,
)

from conftest import shapes_with_contexts


def all_contexts(p):
    for bits in range(1 << p):
        yield RegulatorContext.from_str(
            "".join("-" if bits & (1 << k) else "+" for k in range(p))
        )


# ---------------------------------------------------------------------------
# Construction and validation


def test_make_shape_canonical_form():
    s = make_shape([[2, 3], [1]], 3)
    assert s.arity == 3
    assert s.index_sets() == ((1,), (2, 3))
    assert str(s) == "{{1},{2,3}}"
    # structural equality regardless of input order
    assert s == make_shape([[1], [3, 2]], 3)
    assert hash(s) == hash(make_shape([[1], [2, 3]], 3))


def test_make_shape_rejects_absorbable():
    with pytest.raises(NotAntichain):
        make_shape([[1], [1, 2]], 2)


def test_make_shape_rejects_non_cover():
    with pytest.raises(NotCover):
        make_shape([[1], [2]], 3)


def test_make_shape_rejects_empty():
    with pytest.raises(EmptyClauseSet):
        make_shape([], 2)


def test_make_shape_index_range():
    with pytest.raises(ValueError):
        make_shape([[0, 1]], 2)
    with pytest.raises(ValueError):
        make_shape([[1, 4]], 3)


def test_arity_cap():
    with pytest.raises(ArityTooLarge):
        make_shape([[1]], 17)
    # 16 is the documented maximum and must work
    make_shape([list(range(1, 17))], 16)


def test_minimize_absorbs_and_checks_cover():
    assert minimize([[1], [1, 2], [2, 3]], 3) == make_shape([[1], [2, 3]], 3)
    with pytest.raises(NotCover):
        minimize([[1], [1, 2]], 2)  # absorption leaves regulator 2 unused


def test_extremal_shapes():
    assert sup_shape(3) == make_shape([[1], [2], [3]], 3)
    assert inf_shape(3) == make_shape([[1, 2, 3]], 3)
    assert sup_shape(1) == inf_shape(1)


def test_majority_rule():
    assert majority_rule(3, 2) == make_shape([[1, 2], [1, 3], [2, 3]], 3)
    assert majority_rule(3, 1) == sup_shape(3)
    assert majority_rule(3, 3) == inf_shape(3)
    with pytest.raises(ThresholdOutOfRange):
        majority_rule(3, 4)
    with pytest.raises(ThresholdOutOfRange):
        majority_rule(3, 0)


def test_unchecked_constructions_equal_strict_ones():
    # sup_shape, inf_shape and majority_rule skip the strict constructor
    for p in range(1, 9):
        built = [sup_shape(p), inf_shape(p)] + [majority_rule(p, r) for r in range(1, p + 1)]
        for s in built:
            assert FunctionShape(p, s.clauses) == s
    for bad in (0, 17):
        for build in (sup_shape, inf_shape):
            with pytest.raises(ArityTooLarge):
                build(bad)
    with pytest.raises(ArityTooLarge):
        majority_rule(17, 8)


# ---------------------------------------------------------------------------
# Evaluation, order, and truth tables


def test_evaluate_worked_example():
    # f = s1 | (s2 & !s3)
    s = make_shape([[1], [2, 3]], 3)
    ctx = RegulatorContext.from_str("++-")
    truth = {
        state_to_string(x, 3) for x in range(8) if evaluate(s, ctx, x)
    }
    assert truth == {"100", "101", "110", "111", "010"}
    assert true_count(s) == 5
    assert true_states(s, ctx) == frozenset(
        state_from_string(t) for t in truth
    )


def test_order_equivalence_exhaustive_p3():
    # shape_leq(a, b) must coincide with truth-set inclusion for every
    # context; the partial order is purely structural.
    shapes = list(enumerate_all(3))
    for ctx in all_contexts(3):
        tsets = {s: true_states(s, ctx) for s in shapes}
        for a in shapes:
            for b in shapes:
                assert shape_leq(a, b) == (tsets[a] <= tsets[b])


def test_order_equivalence_p4_all_contexts():
    shapes = list(enumerate_all(4))
    for ctx in all_contexts(4):
        tsets = [true_states(s, ctx) for s in shapes]
        for i, a in enumerate(shapes):
            for j, b in enumerate(shapes):
                assert shape_leq(a, b) == (tsets[i] <= tsets[j])


def test_bounded_poset():
    for p in range(1, 5):
        bot, top = inf_shape(p), sup_shape(p)
        for s in enumerate_all(p):
            assert shape_leq(bot, s)
            assert shape_leq(s, top)


def test_shape_lt_is_strict():
    a = make_shape([[1], [2, 3]], 3)
    assert not shape_lt(a, a)
    assert shape_lt(a, sup_shape(3))
    assert not shape_lt(sup_shape(3), a)


def test_true_count_matches_enumeration():
    for p in (2, 3, 4):
        ctx = RegulatorContext.all_positive(p)
        for s in enumerate_all(p):
            assert true_count(s) == len(true_states(s, ctx))


@settings(max_examples=300, deadline=None)
@given(shapes_with_contexts())
def test_clause_evaluator_matches_evaluate(case):
    # evaluate() is the independent reference for every table-based count
    shape, ctx = case
    p = shape.arity
    truth = {s for s in range(1 << p) if evaluate(shape, ctx, s)}
    compiled = compile_clauses(shape, ctx)
    assert truth_table(compiled, p) == sum(1 << s for s in truth)
    assert all(holds(compiled, s) == (s in truth) for s in range(1 << p))
    assert true_states(shape, ctx) == truth
    assert true_count(shape) == len(truth)
    assert shape_from_truth_table([s in truth for s in range(1 << p)], ctx) == shape
    inc, dec, n = shape_transition_counts(shape, ctx)
    if ctx.self_index is None:
        assert (inc, dec, n) == (len(truth), (1 << p) - len(truth), p + 1)
    else:
        own = 1 << (ctx.self_index - 1)
        assert inc == sum(1 for s in truth if not s & own)
        assert dec == sum(1 for s in range(1 << p) if s & own and s not in truth)
        assert n == p


def _compiled_table(shape, ctx):
    return truth_table(compile_clauses(shape, ctx), shape.arity)


def _compiled_transition_counts(shape, ctx):
    """shape_transition_counts from the compiled clauses' truth table."""
    p = shape.arity
    table = _compiled_table(shape, ctx)
    if ctx.self_index is None:
        return table.bit_count(), (1 << p) - table.bit_count(), p + 1
    own = variable_table(ctx.self_index - 1, p)
    return (table & ~own).bit_count(), (own & ~table).bit_count(), p


def _assert_tables_match_compiled(shape, ctx):
    table = _compiled_table(shape, ctx)
    assert shape_table(shape, ctx) == table
    assert true_states(shape, ctx) == frozenset(table_states(table))
    assert shape_transition_counts(shape, ctx) == _compiled_transition_counts(shape, ctx)


def test_shape_table_matches_compiled_clauses_for_every_context():
    # every sign string and self_index at p <= 5, over a spread of shapes
    for p, stride in ((1, 1), (2, 1), (3, 1), (4, 7), (5, 301)):
        for shape in list(enumerate_all(p))[::stride]:
            for signs in all_contexts(p):
                for self_index in (None, *range(1, p + 1)):
                    _assert_tables_match_compiled(
                        shape, RegulatorContext(signs.signs, self_index))


@settings(max_examples=200, deadline=None)
@given(shapes_with_contexts(max_arity=10))
def test_shape_table_matches_compiled_clauses(case):
    _assert_tables_match_compiled(*case)


def test_clause_table_equals_the_sum_of_clause_bits():
    for p in range(1, 17):
        for shape in (inf_shape(p), sup_shape(p), majority_rule(p, (p + 1) // 2)):
            assert clause_table(shape) == sum(1 << c for c in shape.clauses)


def test_operative_corners():
    # the all-operative state satisfies every clause's literals; the
    # all-non-operative state satisfies none (holds for every valid shape)
    for p in range(1, 5):
        for ctx in all_contexts(p):
            for s in enumerate_all(p):
                assert evaluate(s, ctx, ctx.all_operative_state())
                assert not evaluate(s, ctx, ctx.all_non_operative_state())


def test_consistency_round_trip():
    for p in (1, 2, 3):
        for ctx in all_contexts(p):
            for s in enumerate_all(p):
                table = [evaluate(s, ctx, x) for x in range(1 << p)]
                assert is_consistent(table, ctx)
                assert shape_from_truth_table(table, ctx) == s


def test_shape_from_truth_table_round_trips_wide_majorities():
    # the recovered shape is built unchecked; the strict constructor must agree
    for p in range(10, 15):
        s = majority_rule(p, p // 2)
        ctx = RegulatorContext.from_str("+-" * (p // 2) + "+" * (p % 2))
        true = set(table_states(shape_table(s, ctx)))
        got = shape_from_truth_table([x in true for x in range(1 << p)], ctx)
        assert got == s == FunctionShape(p, got.clauses)


def test_inconsistent_tables_rejected():
    ctx = RegulatorContext.from_str("++")
    assert not is_consistent([0, 1, 1, 0], ctx)  # xor: sign violation
    with pytest.raises(NotConsistent):
        shape_from_truth_table([0, 1, 1, 0], ctx)
    with pytest.raises(NotConsistent):
        shape_from_truth_table([1, 1, 1, 1], ctx)  # constant
    with pytest.raises(NotConsistent):
        shape_from_truth_table([0, 0, 0, 0], ctx)  # constant
    with pytest.raises(NotConsistent):
        shape_from_truth_table([0, 1, 0, 1], ctx)  # s2 not essential
    # against-sign: declared inhibitor acting as activator
    assert not is_consistent([0, 0, 0, 1], RegulatorContext.from_str("+-"))


# ---------------------------------------------------------------------------
# Signatures


def test_signature_worked_example():
    # f = (s1 & s2) | (s1 & !s3), signs ++-
    s = make_shape([[1, 2], [1, 3]], 3)
    ctx = RegulatorContext.from_str("++-")
    sigs = signatures(s, ctx)
    assert [g.pattern(ctx) for g in sigs] == ["11*", "1*0"]
    assert set(sigs[0].states(ctx)) == {
        state_from_string("110"), state_from_string("111")
    }
    assert set(sigs[1].states(ctx)) == {
        state_from_string("100"), state_from_string("110")
    }
    # default glyphs: operative activator o, operative inhibitor ō, free ★
    assert sigs[0].render(ctx) == "(o,o,★)"
    assert sigs[1].render(ctx) == "(o,★,ō)"


def test_signature_union_is_truth_set():
    for p in (2, 3):
        for ctx in all_contexts(p):
            for s in enumerate_all(p):
                union = set()
                for g in signatures(s, ctx):
                    union.update(g.states(ctx))
                assert union == set(true_states(s, ctx))


# ---------------------------------------------------------------------------
# Levels


def test_level_values():
    assert level(make_shape([[1], [2, 3]], 3)) == (2, 1)
    assert level(sup_shape(3)) == (2, 2, 2)
    assert level(inf_shape(3)) == (0,)
    assert level(majority_rule(3, 2)) == (1, 1, 1)


def test_level_leq_total_order():
    rng = random.Random(20260816)
    pool = [tuple(sorted((rng.randrange(0, 5) for _ in range(rng.randrange(1, 6))),
                         reverse=True))
            for _ in range(60)]
    pool += [level(s) for s in enumerate_all(4)]
    for a in pool:
        assert level_leq(a, a)
        for b in pool:
            assert level_leq(a, b) or level_leq(b, a)  # total
            if level_leq(a, b) and level_leq(b, a):
                assert a == b  # antisymmetric
            for c in pool[:20]:
                if level_leq(a, b) and level_leq(b, c):
                    assert level_leq(a, c)  # transitive


# ---------------------------------------------------------------------------
# Contexts and special shapes


def test_context_basics():
    ctx = RegulatorContext.from_str("+-+")
    assert str(ctx) == "+-+"
    assert ctx.pos_mask == 0b101
    assert ctx.neg_mask == 0b010
    assert ctx.all_operative_state() == 0b101
    assert ctx.all_non_operative_state() == 0b010
    assert RegulatorContext.all_positive(3).neg_mask == 0


def test_neg_mask_is_stored_without_touching_equality():
    for p in range(1, 6):
        for signs in itertools.product("+-", repeat=p):
            text = "".join(signs)
            ctx = RegulatorContext.from_str(text, self_index=p)
            twin = RegulatorContext(tuple(1 - 2 * (ch == "-") for ch in text), p)
            assert ctx.neg_mask == sum(1 << k for k, ch in enumerate(text) if ch == "-")
            assert ctx.pos_mask == ((1 << p) - 1) ^ ctx.neg_mask
            # the stored mask is not a field: only signs and self_index compare
            assert ctx == twin and hash(ctx) == hash(twin) and repr(ctx) == repr(twin)
            assert [f.name for f in dataclasses.fields(ctx)] == ["signs", "self_index"]
            assert RegulatorContext.from_str(str(ctx), ctx.self_index) == ctx
            assert dataclasses.replace(ctx, signs=(1,) * p).neg_mask == 0


def test_context_self_sign():
    ctx = RegulatorContext.from_str("++-", self_index=3)
    assert ctx.self_index == 3
    assert ctx.self_sign() == -1


def test_no_inhibitors():
    # each activator fires only with every inhibitor off
    assert no_inhibitors(RegulatorContext.from_str("++-")) == \
        make_shape([[1, 3], [2, 3]], 3)
    assert no_inhibitors(RegulatorContext.from_str("+--")) == \
        make_shape([[1, 2, 3]], 3)
    assert no_inhibitors(RegulatorContext.from_str("++")) == sup_shape(2)
    with pytest.raises(NoActivators):
        no_inhibitors(RegulatorContext.from_str("--"))


def test_state_strings():
    assert state_to_string(0b1010, 4) == "0101"  # component 1 leftmost
    assert state_from_string("0101") == 0b1010
    for x in range(16):
        assert state_from_string(state_to_string(x, 4)) == x
    with pytest.raises(ValueError):
        state_from_string("01a")


def test_shapes_are_immutable():
    s = make_shape([[1], [2, 3]], 3)
    with pytest.raises(Exception):
        s.arity = 4  # frozen dataclass
    assert isinstance(s, FunctionShape)
