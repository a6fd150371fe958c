from __future__ import annotations

import dataclasses
import itertools
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from funspace import (
    FunctionShape,
    RegulatorContext,
    enumerate_all,
    evaluate,
    independent,
    inf_shape,
    is_consistent,
    level,
    level_leq,
    majority_rule,
    make_shape,
    minimize,
    no_inhibitors,
    parse_expression,
    random_path,
    render_expression,
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
import funspace.shapes as shape_module
from funspace.shapes import (
    MAX_ARITY,
    Signature,
    bits_of,
    clause_mask,
    _state_text,
    clause_table,
    shape_table,
    table_states,
    truth_table,
    variable_table,
    variable_tables,
)
from funspace.errors import (
    ArityTooLarge,
    EmptyClauseSet,
    FunspaceError,
    InvalidArgument,
    NoActivators,
    NotAntichain,
    NotConsistent,
    NotCover,
    ThresholdOutOfRange,
)

from conftest import contexts, shapes, shapes_with_contexts


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


@pytest.mark.parametrize("call, message", [
    (lambda: clause_mask([1, 4], 3), "regulator index 4 outside 1..3"),
    (lambda: FunctionShape(2, (0b1, 0b100)), "clause 0x4 uses regulators beyond 2"),
    (lambda: FunctionShape(2, (0b10, 0b1)), "clauses must be strictly increasing masks"),
    (lambda: RegulatorContext.from_str("+x"), "bad sign character 'x'"),
    (lambda: Signature(("o", "?")), "signature symbols must be OPERATIVE/NON_OPERATIVE/FREE"),
    (lambda: render_expression(sup_shape(2), RegulatorContext.from_str("++"), ("a",)),
     "one name per regulator required"),
    (lambda: independent(0b1000, FunctionShape(2, (1, 2))), "index mask 0x8 outside 0x1..0x3"),
])
def test_bad_arguments_raise_the_package_error(call, message):
    # a FunspaceError and still a ValueError, so callers catching that keep working
    with pytest.raises(InvalidArgument, match=f"^{re.escape(message)}$") as info:
        call()
    assert isinstance(info.value, FunspaceError) and isinstance(info.value, ValueError)


def test_arity_cap():
    with pytest.raises(ArityTooLarge):
        make_shape([[1]], 17)
    # 16 is the documented maximum and must work
    make_shape([list(range(1, 17))], 16)


def test_minimize_absorbs_and_checks_cover():
    assert minimize([[1], [1, 2], [2, 3]], 3) == make_shape([[1], [2, 3]], 3)
    with pytest.raises(NotCover, match=r"regulators \(2,\) appear"):
        minimize([[1], [1, 2]], 2)  # absorption leaves regulator 2 unused
    with pytest.raises(EmptyClauseSet, match="empty clause"):
        minimize([[], [1]], 1)
    with pytest.raises(EmptyClauseSet, match="at least one clause"):
        minimize([], 3)


# The constructor and `minimize` find minimal clauses pairwise or on a
# 2^p-bit table by clause count, and `shape_leq` tests containment on
# tables.  The references below keep the clause-against-clause definitions.


def _pairwise_verdict(p, cls):
    """None for a valid antichain cover, else (exception class, message),
    by pairwise clause comparison; ``cls`` is strictly increasing."""
    if not cls:
        return EmptyClauseSet, "a shape needs at least one clause"
    if cls[0] == 0:
        return EmptyClauseSet, "empty clause"
    union = 0
    for c in cls:
        union |= c
    if union != (1 << p) - 1:
        missing = tuple(k + 1 for k in range(p) if not union >> k & 1)
        return NotCover, f"regulators {missing} appear in no clause"
    for a, b in itertools.combinations(cls, 2):
        if a & b == a:  # a < b, so b cannot lie inside a
            sa = {k + 1 for k in range(p) if a >> k & 1}
            sb = {k + 1 for k in range(p) if b >> k & 1}
            return NotAntichain, f"clauses {sa} and {sb} are comparable"
    return None


def _verdict(build, *args):
    try:
        return build(*args)
    except (EmptyClauseSet, NotCover, NotAntichain) as exc:
        return type(exc), str(exc)


@hst.composite
def _raw_clauses(draw):
    """(p, masks) at p = 1..8 with duplicates, supersets, the empty clause
    and non-covers among them."""
    p = draw(hst.integers(1, 8))
    full = (1 << p) - 1
    masks = draw(hst.lists(hst.integers(0, full), max_size=10))
    if masks:  # supersets (or copies) of drawn masks
        grow = draw(hst.lists(hst.tuples(hst.integers(0, 9), hst.integers(0, full)), max_size=3))
        masks += [masks[i % len(masks)] | m for i, m in grow]
    return p, masks


@settings(max_examples=500, deadline=None)
@given(_raw_clauses())
def test_constructor_matches_the_pairwise_definition(case):
    p, masks = case
    cls = tuple(sorted(set(masks)))
    got = _verdict(FunctionShape, p, cls)
    want = _pairwise_verdict(p, cls)
    if want is None:
        assert isinstance(got, FunctionShape) and got.clauses == cls
    else:
        assert got == want


def test_not_antichain_names_the_first_pair_a_pairwise_scan_meets():
    # {2} ⊂ {2, 4} comes first in clause order; {1, 3} ⊃ {3} is the lowest clause holding another
    with pytest.raises(NotAntichain, match=r"^clauses \{2\} and \{2, 4\} are comparable$"):
        FunctionShape(4, (0b0010, 0b0100, 0b0101, 0b1010))


@hst.composite
def _split_families(draw):
    """(p, masks) at p = 1..16 with up to 16 distinct masks: wide and narrow
    ones, with duplicates, supersets, the empty clause and non-covers."""
    p = draw(hst.integers(1, 16))
    full = (1 << p) - 1
    narrow = hst.lists(hst.integers(0, p - 1), min_size=1, max_size=3).map(
        lambda ks: sum({1 << k for k in ks}))
    masks = draw(hst.lists(hst.one_of(hst.integers(0, full), narrow), max_size=12))
    if masks:  # supersets (or copies) of drawn masks
        grow = draw(hst.lists(hst.tuples(hst.integers(0, 11), hst.integers(0, full)), max_size=4))
        masks += [masks[i % len(masks)] | m for i, m in grow]
    return p, masks


@settings(max_examples=400, deadline=None)
@given(_split_families())
def test_both_sides_of_the_clause_count_split_agree(case):
    # minimal clauses come from a pairwise scan up to PAIRWISE_CLAUSES of
    # them and from a 2^p-bit table past that; with each side forced on
    # every family, `minimize` keeps the same clauses and both it and the
    # constructor refuse with the same exception and message
    p, masks = case
    sets = [[k + 1 for k in range(p) if m >> k & 1] for m in masks]
    cls = tuple(sorted(set(masks)))
    verdicts = []
    for limit in (0, 16):  # the table, then the pairwise scan, for every count
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(shape_module, "PAIRWISE_CLAUSES", limit)
            verdicts.append((_verdict(minimize, sets, p), _verdict(FunctionShape, p, cls)))
    assert verdicts[0] == verdicts[1]
    assert _verdict(minimize, sets, p) == verdicts[0][0]  # the split itself


def _absorbing_minimize(clauses, p):
    """Keep each clause that contains no clause kept before it, smallest first."""
    masks = sorted({sum(1 << (i - 1) for i in set(c)) for c in clauses},
                   key=lambda m: (m.bit_count(), m))
    kept = []
    for m in masks:
        if not any(k & m == k for k in kept):
            kept.append(m)
    return FunctionShape(p, tuple(sorted(kept)))


@settings(max_examples=500, deadline=None)
@given(_raw_clauses())
def test_minimize_matches_the_absorption_loop(case):
    p, masks = case
    sets = [[k + 1 for k in range(p) if m >> k & 1] for m in masks]
    got = _verdict(minimize, sets, p)
    assert got == _verdict(_absorbing_minimize, sets, p)
    if isinstance(got, FunctionShape):
        assert FunctionShape(p, got.clauses) == got  # minimize builds it unchecked


def test_wide_shapes_validate_on_tables():
    m = majority_rule(MAX_ARITY, MAX_ARITY // 2)
    start = time.perf_counter()
    assert FunctionShape(MAX_ARITY, m.clauses) == m
    assert make_shape(m.index_sets(), MAX_ARITY) == m
    assert minimize(m.index_sets(), MAX_ARITY) == m
    assert time.perf_counter() - start < 5  # clause-pair checks: 8-27 s each (2-vCPU VM)
    superset = tuple(range(1, MAX_ARITY // 2 + 2))  # holds the clause {1..8}
    with pytest.raises(NotAntichain):
        make_shape(m.index_sets() + (superset,), MAX_ARITY)
    with pytest.raises(NotAntichain):
        FunctionShape(MAX_ARITY, tuple(sorted(m.clauses + ((1 << len(superset)) - 1,))))
    assert minimize(m.index_sets() + (superset,), MAX_ARITY) == m


@pytest.mark.parametrize("p", [MAX_ARITY + 1, 40])
def test_minimize_checks_the_arity_before_any_table(p):
    # a 2^40-digit table could not be built: the guard must come first
    with pytest.raises(ArityTooLarge):
        minimize([[k] for k in range(1, p + 1)], p)
    with pytest.raises(ArityTooLarge):
        parse_expression(" | ".join(f"x{k}" for k in range(p)))


def _refines(a, b):
    """Every clause of a contains a clause of b."""
    return all(any(cb & ca == cb for cb in b.clauses) for ca in a.clauses)


@settings(max_examples=300, deadline=None)
@given(hst.integers(1, 10).flatmap(lambda p: hst.tuples(shapes(p), shapes(p))))
def test_shape_leq_is_clause_refinement(pair):
    a, b = pair
    assert shape_leq(a, b) == _refines(a, b)
    assert shape_leq(b, a) == _refines(b, a)


@pytest.mark.parametrize("p", range(1, 9))
def test_shape_leq_on_walk_shapes_that_carry_their_up_sets(p):
    path = random_path(p, seed=p)
    fresh = [FunctionShape(p, s.clauses) for s in path]
    for i in range(len(path)):
        for j in range(0, len(path), 3):
            assert shape_leq(path[i], path[j]) == (i <= j) == _refines(path[i], path[j])
            assert shape_leq(path[i], fresh[j]) == shape_leq(fresh[i], path[j]) == (i <= j)


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
    assert truth_table(shape, ctx, range(p), p) == sum(1 << s for s in truth)
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


@settings(max_examples=200, deadline=None)
@given(data=hst.data())
def test_truth_table_reads_regulators_at_their_positions(data):
    # regulator k reads network bit positions[k-1]: at every state of B^n,
    # the table equals evaluate() on the regulators' projected state
    p = data.draw(hst.integers(1, 8))
    n = data.draw(hst.integers(p, 12))
    positions = data.draw(hst.permutations(range(n)))[:p]
    shape = data.draw(shapes(p))
    ctx = data.draw(contexts(p, None))
    table = truth_table(shape, ctx, positions, n)
    for x in range(1 << n):
        local = sum(1 << k for k, j in enumerate(positions) if x >> j & 1)
        assert (table >> x & 1) == evaluate(shape, ctx, local)


@settings(max_examples=100, deadline=None)
@given(data=hst.data())
def test_truth_table_holds_fixed_regulators(data):
    # a fixed regulator reads no bit: the table on the free regulators' bits
    # equals evaluate() with the fixed ones at their values
    p = data.draw(hst.integers(1, 6))
    values = data.draw(hst.lists(hst.none() | hst.booleans(), min_size=p, max_size=p))
    free = [k for k, v in enumerate(values) if v is None]
    n = data.draw(hst.integers(len(free), 8))
    bits = iter(data.draw(hst.permutations(range(n)))[:len(free)])
    positions = [next(bits) if v is None else None for v in values]
    fixed = {k: v for k, v in enumerate(values) if v is not None}
    shape = data.draw(shapes(p))
    ctx = data.draw(contexts(p, None))
    table = truth_table(shape, ctx, positions, n, fixed)
    for x in range(1 << n):
        local = sum(1 << k for k, j in enumerate(positions)
                    if (x >> j & 1 if j is not None else fixed[k]))
        assert (table >> x & 1) == evaluate(shape, ctx, local)


@pytest.mark.parametrize("n", range(1, 21))
def test_variable_tables_come_from_the_per_size_cache(n):
    # bit s of table j is bit j of s: from the high state down, each period
    # of 2^(j+1) states reads 2^j ones, then 2^j zeros
    for j in range(n):
        half = 1 << j
        want = int(("1" * half + "0" * half) * (1 << (n - j - 1)), 2)
        assert variable_table(j, n) == want
        if n <= MAX_ARITY:
            assert variable_table(j, n) is variable_tables(n)[j]


def _compiled_table(shape, ctx):
    return truth_table(shape, ctx, range(shape.arity), shape.arity)


def _compiled_transition_counts(shape, ctx):
    """shape_transition_counts from the clauses' literal-table product."""
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


def _assert_reads_like_bits_of(table):
    # `bits_of` byte by byte: linear, where on the whole int it is quadratic
    data = table.to_bytes(table.bit_length() // 8 + 1, "little")
    assert table_states(table) == [8 * i + b for i, byte in enumerate(data) for b in bits_of(byte)]


def test_table_states_reads_both_sides_of_the_density_rule():
    for table in (0, 1, 1 << 1000):
        _assert_reads_like_bits_of(table)
    for p in range(1, 17):
        _assert_reads_like_bits_of((1 << (1 << p)) - 1)
    # 1024-bit tables around one set bit in 16, where the reader switches
    rng = random.Random(1)
    for k in range(56, 73):
        _assert_reads_like_bits_of(1 << 1023 | sum(1 << x for x in rng.sample(range(1023), k - 1)))
    dense = sparse = rng.getrandbits(1 << 20)  # about one bit in 2, then in 32
    for _ in range(4):
        sparse &= rng.getrandbits(1 << 20)
    for table in (dense, sparse):
        _assert_reads_like_bits_of(table)


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
    for p in (*range(10, 15), 16):
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


def test_state_text_matches_state_to_string():
    # the half-width tables behind the stg edge lines
    for n in range(0, 10):
        text = _state_text(n)
        assert [text(x) for x in range(1 << n)] == [state_to_string(x, n) for x in range(1 << n)]
    text = _state_text(23)
    for x in random.Random(1).sample(range(1 << 23), 500) + [0, (1 << 23) - 1]:
        assert text(x) == state_to_string(x, 23)


def test_shapes_are_immutable():
    s = make_shape([[1], [2, 3]], 3)
    with pytest.raises(Exception):
        s.arity = 4  # frozen dataclass
    assert isinstance(s, FunctionShape)
