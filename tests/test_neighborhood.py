from __future__ import annotations

import hashlib
import random
from functools import reduce
from itertools import combinations
from operator import or_

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from funspace import (
    FunctionShape,
    RegulatorContext,
    build_hasse,
    children,
    count_consistent,
    enumerate_all,
    evaluate,
    hasse_slice,
    inf_shape,
    majority_rule,
    make_shape,
    max_outside,
    parent_step,
    parents,
    random_path,
    shape_from_truth_table,
    shape_leq,
    siblings,
    sup_shape,
    true_count,
    verify_rules,
)
from funspace.errors import (
    ArityTooLarge,
    DedekindUnknown,
    FunspaceError,
    InvalidArgument,
    NotAParent,
)
from funspace.neighborhood import (
    CHILD,
    PARENT_R1,
    PARENT_R2,
    PARENT_R3,
    NeighborStep,
    _child_tables,
    _key_table,
    _maxima,
    _parent_tables,
    _raise_maxima,
    _table_key,
)
from funspace.shapes import (
    _covering,
    clause_table,
    minimal_elements,
    shape_table,
    table_states,
    up_closure,
)

from conftest import shapes


def shp(text: str, p: int):
    """'{{1},{2,3}}' -> shape (test shorthand)."""
    groups = text.strip("{}").split("},{")
    return make_shape([[int(x) for x in g.split(",")] for g in groups], p)


# ---------------------------------------------------------------------------
# Worked example: f = s1 | (s2 & !s3)


def test_worked_example_neighbors():
    center = shp("{{1},{2,3}}", 3)
    ps = parents(center)
    assert len(ps) == 1
    assert ps[0].shape == sup_shape(3)
    assert ps[0].rule == "parent-r3"
    assert ps[0].delta == 2
    cs = children(center)
    assert len(cs) == 1
    assert cs[0].shape == shp("{{1,2},{1,3},{2,3}}", 3)
    assert cs[0].rule == "child"
    assert cs[0].delta == 1
    assert set(siblings(center)) == {
        shp("{{2},{1,3}}", 3), shp("{{3},{1,2}}", 3)
    }
    # the co-parents of its unique child are the same two shapes here
    assert set(siblings(center, via="children")) == set(siblings(center))
    assert set(siblings(center, via="both")) == set(siblings(center))


def test_extremes():
    assert parents(sup_shape(3)) == ()
    assert {st.shape for st in children(sup_shape(3))} == {
        shp("{{1},{2,3}}", 3), shp("{{2},{1,3}}", 3), shp("{{3},{1,2}}", 3)
    }
    assert children(inf_shape(3)) == ()
    assert {st.shape for st in parents(inf_shape(3))} == {
        shp("{{1,2},{1,3}}", 3), shp("{{1,2},{2,3}}", 3), shp("{{1,3},{2,3}}", 3)
    }
    # p=1: the single shape has no neighbors at all
    only = sup_shape(1)
    assert parents(only) == () and children(only) == ()
    assert siblings(only) == ()


# ---------------------------------------------------------------------------
# The full p=3 diagram (9 nodes / 12 edges)


P3_EDGES = [
    ("{{1},{2,3}}", "{{1},{2},{3}}"),
    ("{{2},{1,3}}", "{{1},{2},{3}}"),
    ("{{3},{1,2}}", "{{1},{2},{3}}"),
    ("{{1,2},{1,3}}", "{{1,2},{1,3},{2,3}}"),
    ("{{1,2},{1,3},{2,3}}", "{{1},{2,3}}"),
    ("{{1,2},{1,3},{2,3}}", "{{2},{1,3}}"),
    ("{{1,2},{1,3},{2,3}}", "{{3},{1,2}}"),
    ("{{1,2},{2,3}}", "{{1,2},{1,3},{2,3}}"),
    ("{{1,3},{2,3}}", "{{1,2},{1,3},{2,3}}"),
    ("{{1,2,3}}", "{{1,2},{1,3}}"),
    ("{{1,2,3}}", "{{1,2},{2,3}}"),
    ("{{1,2,3}}", "{{1,3},{2,3}}"),
]


def test_p3_diagram():
    hd = build_hasse(3)
    assert len(hd.shapes) == 9
    assert len(hd.edges) == 12
    got = {(str(hd.shapes[lo]), str(hd.shapes[hi])) for lo, hi in hd.edges}
    assert got == set(P3_EDGES)


def test_diagram_helpers_match_rules():
    hd = build_hasse(3)
    for s in hd.shapes:
        assert set(hd.parents_of(s)) == {st.shape for st in parents(s)}
        assert set(hd.children_of(s)) == {st.shape for st in children(s)}


# ---------------------------------------------------------------------------
# Rules vs. brute-force oracle


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_rules_match_oracle(p):
    assert verify_rules(p) == []


def test_duality():
    for p in (2, 3, 4):
        for s in enumerate_all(p):
            for st in parents(s):
                assert s in {c.shape for c in children(st.shape)}
            for st in children(s):
                assert s in {q.shape for q in parents(st.shape)}


def test_edge_deltas_match_true_set_growth():
    for p in (2, 3, 4):
        for s in enumerate_all(p):
            for st in parents(s):
                assert st.delta == true_count(st.shape) - true_count(s)
                assert st.delta in (1, 2)
            for st in children(s):
                assert st.delta == true_count(s) - true_count(st.shape)
                assert st.delta in (1, 2)


def test_neighbors_pairwise_incomparable():
    for p in (3, 4):
        for s in enumerate_all(p):
            ups = [st.shape for st in parents(s)]
            for i, a in enumerate(ups):
                for b in ups[i + 1:]:
                    assert not shape_leq(a, b) and not shape_leq(b, a)
            downs = [st.shape for st in children(s)]
            for i, a in enumerate(downs):
                for b in downs[i + 1:]:
                    assert not shape_leq(a, b) and not shape_leq(b, a)


def _valid_table(t: int, without: list[int]) -> bool:
    """Is the bitset T (bit x = state x) a shape's true set?

    It must be an up-set in which every regulator is essential; that also
    rules out both constants.  ``without[k]`` holds the states lacking
    regulator k + 1.
    """
    for k, without_k in enumerate(without):
        raised = (t & without_k) << (1 << k)  # members, with regulator k switched on
        if raised & ~t or raised == t & ~without_k:
            return False
    return True


def _brute_covers(shape, up: bool) -> set:
    """(neighbour, delta) pairs found by flipping one or two states of T(S).

    Adds states outside T(S) (``up``) or removes states of T(S); a pair
    counts only when neither of its single flips is valid, since that set
    would lie strictly between.
    """
    p = shape.arity
    ctx = RegulatorContext.all_positive(p)
    t = sum(1 << x for x in range(1 << p) if evaluate(shape, ctx, x))
    without = [sum(1 << x for x in range(1 << p) if not x >> k & 1) for k in range(p)]
    pool = [x for x in range(1 << p) if (t >> x & 1) != up]
    singles = {x for x in pool if _valid_table(t ^ 1 << x, without)}
    found = {(t ^ 1 << x, 1) for x in singles}
    for x, y in combinations(pool, 2):
        if x not in singles and y not in singles:
            flipped = t ^ 1 << x ^ 1 << y
            if _valid_table(flipped, without):
                found.add((flipped, 2))
    return {
        (shape_from_truth_table([b >> x & 1 for x in range(1 << p)], ctx), d)
        for b, d in found
    }


@settings(max_examples=200, deadline=None)
@given(hst.integers(6, 8).flatmap(shapes))
def test_rules_match_local_brute_force_past_the_oracle(s):
    # build_hasse stops at p = 5; this oracle works on one truth table only
    ups = parents(s)
    downs = children(s)
    assert {(st.shape, st.delta) for st in ups} == _brute_covers(s, up=True)
    assert {(st.shape, st.delta) for st in downs} == _brute_covers(s, up=False)
    for st in ups + downs:
        # the rules build neighbours unchecked; the strict constructor must agree
        assert FunctionShape(s.arity, st.shape.clauses) == st.shape
    for st in ups:
        assert s in {c.shape for c in children(st.shape)}
    for st in downs:
        assert s in {q.shape for q in parents(st.shape)}


@settings(max_examples=100, deadline=None)
@given(hst.integers(6, 10).flatmap(shapes))
def test_max_outside_matches_a_scan(s):
    p = s.arity

    def inside(x):
        return any(c & x == c for c in s.clauses)

    want = [x for x in range(1 << p) if not inside(x)
            and all(inside(x | 1 << k) for k in range(p) if not x >> k & 1)]
    assert list(max_outside(s)) == want


def _transversal(s):
    """Tr(S): the complements of M(S), i.e. the minimal transversals of S."""
    full = (1 << s.arity) - 1
    return FunctionShape(s.arity, tuple(sorted(full ^ m for m in max_outside(s))))


@settings(max_examples=200, deadline=None)
@given(hst.integers(6, 12).flatmap(lambda p: hst.tuples(shapes(p), shapes(p))))
def test_transversal_map_swaps_parents_and_children(pair):
    # Tr is an order-reversing involution, so the parents of S are the
    # images of the children of Tr(S), with the same deltas
    a, b = pair
    ta, tb = _transversal(a), _transversal(b)
    assert _transversal(ta) == a
    assert shape_leq(a, b) == shape_leq(tb, ta)
    ups = parents(a)
    assert {(st.shape, st.delta) for st in ups} == {
        (_transversal(st.shape), st.delta) for st in children(ta)
    }
    for st in ups:
        # the strict constructor agrees, and the tag names what was added
        assert FunctionShape(a.arity, st.shape.clauses) == st.shape
        absorbed = not set(a.clauses) <= set(st.shape.clauses)
        want = PARENT_R3 if st.delta == 2 else PARENT_R2 if absorbed else PARENT_R1
        assert st.rule == want


def test_neighbour_clauses_share_their_ints():
    # clauses are read off tables; large lists must not hold an int per clause
    s = majority_rule(10, 5)
    ints = {id(x) for st in parents(s) + children(s) for x in st.shape.clauses}
    assert len(ints) <= 1 << 10


def test_levels_never_decrease_upward():
    from funspace import level, level_leq
    for p in (2, 3, 4):
        hd = build_hasse(p)
        for lo, hi in hd.edges:
            assert level_leq(level(hd.shapes[lo]), level(hd.shapes[hi]))


# ---------------------------------------------------------------------------
# Not a lattice at p = 4


def test_not_a_lattice_at_p4():
    s1 = shp("{{3},{1,2,4}}", 4)
    s2 = shp("{{2,3},{1,4}}", 4)
    shapes = list(enumerate_all(4))
    ubs = [u for u in shapes if shape_leq(s1, u) and shape_leq(s2, u)]
    minimal = [u for u in ubs
               if not any(v != u and shape_leq(v, u) for v in ubs)]
    # two incomparable minimal upper bounds -> no least upper bound
    assert set(minimal) == {
        shp("{{1,2},{3},{1,4}}", 4), shp("{{3},{1,4},{2,4}}", 4)
    }
    a, b = minimal
    assert not shape_leq(a, b) and not shape_leq(b, a)
    # {{1,2},{3},{4}} is an upper bound too, but not a minimal one
    loose = shp("{{1,2},{3},{4}}", 4)
    assert loose in ubs and loose not in minimal


# ---------------------------------------------------------------------------
# Enumeration and counting


def test_enumeration_matches_counts():
    for p in range(1, 6):
        shapes = list(enumerate_all(p))
        assert len(shapes) == count_consistent(p)
        assert len(set(shapes)) == len(shapes)  # no duplicates


def test_enumeration_order_is_pinned():
    # the order of the recursive antichain extension, kept by the stack walk
    assert [s.clauses for s in enumerate_all(3)] == [
        (1, 2, 4), (1, 6), (2, 5), (3, 4), (3, 5), (3, 5, 6), (3, 6), (5, 6), (7,)
    ]
    digests = {
        4: "74eddc62970b2c6b92edb96cb2dd85e51ac4b145b849efe5b623824a5382573a",
        5: "1a85598c22d9e5ccdfba17fb18c081a2fdd02bb4140f50bb9da9de38a61aa561",
    }
    for p, digest in digests.items():
        seq = [s.clauses for s in enumerate_all(p)]
        assert hashlib.sha256(repr(seq).encode()).hexdigest() == digest


def test_counts_table():
    expect = {
        1: 1,
        2: 2,
        3: 9,
        4: 114,
        5: 6894,
        6: 7785062,
        7: 2414627396434,
        8: 56130437209370320359966,
    }
    for p, n in expect.items():
        assert count_consistent(p) == n
    with pytest.raises(DedekindUnknown):
        count_consistent(9)


def test_enumeration_guards():
    with pytest.raises(ArityTooLarge):
        list(enumerate_all(7))
    with pytest.raises(ArityTooLarge):
        build_hasse(6)


def test_enumeration_emits_valid_shapes():
    for s in enumerate_all(4):
        # re-validating through the strict constructor must succeed
        assert make_shape(s.index_sets(), 4) == s


# ---------------------------------------------------------------------------
# Single steps and random paths


def test_parent_step():
    lower = shp("{{1},{2,3}}", 3)
    st = parent_step(lower, sup_shape(3))
    assert st.rule == "parent-r3" and st.delta == 2
    with pytest.raises(NotAParent):
        parent_step(inf_shape(3), sup_shape(3))  # comparable, not an edge
    with pytest.raises(NotAParent):
        parent_step(shp("{{1},{2,3}}", 3), shp("{{2},{1,3}}", 3))


def test_random_path_seeded():
    p1 = random_path(4, seed=11)
    p2 = random_path(4, seed=11)
    assert p1 == p2
    assert p1[0] == inf_shape(4)
    assert p1[-1] == sup_shape(4)
    for lo, hi in zip(p1, p1[1:]):
        parent_step(lo, hi)  # raises if not a Hasse step
    assert random_path(1) == [sup_shape(1)]


def _reference_walk(p, seed):
    """The walk that picks uniformly from the sorted ``parents`` list."""
    rng = random.Random(seed)
    path = [inf_shape(p)]
    while path[-1] != sup_shape(p):
        options = parents(path[-1])
        path.append(options[rng.randrange(len(options))].shape)
    return path


@pytest.mark.parametrize(
    "p, seeds", [(p, range(10)) for p in range(1, 8)] + [(8, range(3)), (9, range(3))]
)
def test_random_path_takes_the_parents_pick(p, seeds):
    for seed in seeds:
        assert random_path(p, seed) == _reference_walk(p, seed)


@pytest.mark.parametrize("p", range(1, 10))
def test_walk_shapes_count_like_fresh_shapes(p):
    """A walk's shapes carry their up-set; they must read like shapes built
    from their clauses alone, and equal, hash and print like them."""
    ctxs = (
        RegulatorContext.all_positive(p),
        RegulatorContext.all_positive(p, self_index=p),
        RegulatorContext.from_str("+" * (p - 1) + "-", self_index=p),
        RegulatorContext.from_str(("-+" * p)[:p]),
    )
    for seed in range(5):
        for s in random_path(p, seed):
            fresh = FunctionShape(p, s.clauses)
            assert true_count(s) == true_count(fresh)
            for ctx in ctxs:
                assert shape_table(s, ctx) == shape_table(fresh, ctx)
            assert s == fresh and hash(s) == hash(fresh) and repr(s) == repr(fresh)
            assert vars(fresh) == {"arity": p, "clauses": s.clauses}  # readers store nothing


@hst.composite
def _ranked_shapes(draw):
    """Distinct shapes of one arity, each with a rule; images of each shape
    under regulator permutations share its clause count."""
    p = draw(hst.integers(2, 12))
    found = set()
    for shape in draw(hst.lists(shapes(p), min_size=1, max_size=4)):
        for perm in draw(hst.lists(hst.permutations(range(p)), max_size=4)):
            found.add(FunctionShape(p, tuple(sorted(
                sum(1 << perm[j] for j in range(p) if c >> j & 1) for c in shape.clauses))))
        found.add(shape)
    rules = hst.sampled_from((PARENT_R1, PARENT_R2, PARENT_R3))
    return [(draw(rules), s) for s in sorted(found, key=FunctionShape.sort_key)]


def _every_ranked_shape(p):
    return [(r, s) for r in (PARENT_R1, PARENT_R2, PARENT_R3, CHILD) for s in enumerate_all(p)]


# every shape of p = 1..3, whose 2, 4 or 8-state tables are narrower than a byte
@example(_every_ranked_shape(1), random.Random(1))
@example(_every_ranked_shape(2), random.Random(2))
@example(_every_ranked_shape(3), random.Random(3))
@settings(max_examples=200, deadline=None)
@given(_ranked_shapes(), hst.randoms())
def test_table_order_is_the_sort_key_order(ranked, rnd):
    rnd.shuffle(ranked)
    want = sorted(ranked, key=lambda rs: NeighborStep(rs[1], rs[0], 1).sort_key())
    by_table = {clause_table(s): s for _, s in ranked}
    key = _table_key(ranked[0][1].arity)
    got = sorted([(r, key(clause_table(s))) for r, s in ranked])
    assert [(r, by_table[_key_table(k)]) for r, k in got] == want  # keys give their tables back


def test_random_path_seeds_differ():
    seen = {tuple(random_path(4, seed=s)) for s in range(8)}
    assert len(seen) > 1


VIAS = ("parents", "children", "both")


def _reference_siblings(s, via):
    """Siblings from neighbour shapes: children of the parents and/or
    parents of the children, less the direct neighbours and ``s``."""
    ups = [st.shape for st in parents(s)]
    downs = [st.shape for st in children(s)]
    out = set()
    if via != "children":
        for up in ups:
            out.update(st.shape for st in children(up))
    if via != "parents":
        for down in downs:
            out.update(st.shape for st in parents(down))
    out.difference_update(ups, downs, (s,))
    return tuple(sorted(out, key=FunctionShape.sort_key))


@settings(max_examples=150, deadline=None)
@given(hst.integers(2, 8).flatmap(shapes))
def test_siblings_match_the_shape_reference(s):
    for via in VIAS:
        want = _reference_siblings(s, via)
        assert siblings(s, via) == want
        sl = hasse_slice(s, via)
        assert (sl.center, sl.parents, sl.children, sl.siblings) == (
            s, parents(s), children(s), want)


@settings(max_examples=150, deadline=None)
@given(hst.integers(2, 8).flatmap(shapes))
def test_no_neighbour_is_a_neighbours_neighbour(s):
    # why the sibling search drops only the shape itself: a parent or child
    # of s among its parents' children or children's parents would lie
    # strictly between s and one of its covers
    p = s.arity
    c = clause_table(s)
    t = up_closure(c, p)
    ups = list(_parent_tables(c, t, p))
    downs = list(_child_tables(c, t, p))
    near = {table for _, _, table, _ in ups + downs}
    for _, _, new, u in ups:
        assert near.isdisjoint(table for _, _, table, _ in _child_tables(new, u, p))
    for _, _, cand, u in downs:
        assert near.isdisjoint(table for _, _, table, _ in _parent_tables(cand, u, p))


def test_siblings_match_the_diagram():
    for p in (1, 2, 3, 4):
        hd = build_hasse(p)
        for s in hd.shapes:
            ups, downs = hd.parents_of(s), hd.children_of(s)
            via_ups = set().union(*map(hd.children_of, ups))
            via_downs = set().union(*map(hd.parents_of, downs))
            near = ups | downs | {s}
            for via, want in (("parents", via_ups), ("children", via_downs),
                              ("both", via_ups | via_downs)):
                assert set(siblings(s, via)) == want - near


@settings(max_examples=150, deadline=None)
@given(hst.integers(2, 10).flatmap(shapes))
def test_child_tables_carry_their_up_sets(s):
    p = s.arity
    c = clause_table(s)
    t = up_closure(c, p)
    found = list(_child_tables(c, t, p))
    assert sorted((rule, delta, cand) for rule, delta, cand, _ in found) == sorted(
        (st.rule, st.delta, clause_table(st.shape)) for st in children(s))
    for _, delta, cand, u in found:
        assert u == up_closure(cand, p)
        assert u & t == u and (t ^ u).bit_count() == delta


@settings(max_examples=150, deadline=None)
@given(hst.integers(2, 10).flatmap(shapes))
def test_parent_tables_carry_their_up_sets(s):
    p = s.arity
    c = clause_table(s)
    t = up_closure(c, p)
    found = list(_parent_tables(c, t, p))
    assert sorted((rule, delta, new) for rule, delta, new, _ in found) == sorted(
        (st.rule, st.delta, clause_table(st.shape)) for st in parents(s))
    for _, delta, new, u in found:
        assert u == up_closure(new, p)
        assert u & t == t and (u ^ t).bit_count() == delta


# R3 alone (the bottom of p = 4), R1 beside R3, and R1 beside R2
@example(FunctionShape(4, (15,)))
@example(FunctionShape(4, (5, 11)))
@example(FunctionShape(4, (11, 13, 14)))
@settings(max_examples=100, deadline=None)
@given(hst.integers(2, 10).flatmap(shapes))
def test_raised_maxima_match_a_fresh_computation(s):
    # the walk's local update of {m: U(m)} over M(S), applied for every parent
    p = s.arity
    c = clause_table(s)
    t = up_closure(c, p)
    start = dict(_maxima(t, p))
    assert sorted(start) == [m for m in max_outside(s) if m]
    for _, _, _, u in _parent_tables(c, t, p):
        maxima = dict(start)
        _raise_maxima(maxima, u ^ t, u)
        assert maxima == dict(_maxima(u, p))


@settings(max_examples=100, deadline=None)
@given(hst.integers(1, 10).flatmap(shapes))
def test_r1_parents_by_new_clause_come_in_table_key_order(s):
    # why a walk picking an R1 parent sorts nothing: each adds one state to
    # the same clause table, so the lowest added state holds the lower key
    p = s.arity
    c = clause_table(s)
    r1 = [new for rule, _, new, _ in _parent_tables(c, up_closure(c, p), p) if rule == PARENT_R1]
    assert [new ^ c for new in r1] == sorted(new ^ c for new in r1)
    assert r1 == sorted(r1, key=_table_key(p))


def _reference_child_tables(c, t, p):
    """`_child_tables` candidate by candidate: re-minimize every up-set
    left after a drop and test its cover on the whole table."""
    found, failing = [], []
    for s in table_states(c):
        if _covering(cand := minimal_elements(u := t ^ 1 << s, p), p):
            found.append((CHILD, 1, cand, u))
        else:
            failing.append(s)
    for s1, s2 in combinations(failing, 2):
        if _covering(cand := minimal_elements(u := t ^ 1 << s1 ^ 1 << s2, p), p):
            found.append((CHILD, 2, cand, u))
    return found


@settings(max_examples=100, deadline=None)
@given(hst.integers(2, 10).flatmap(shapes))
def test_child_tables_match_a_per_candidate_reference(s):
    # the shape's own up-set, and every parent's, as `siblings` feeds them in
    p = s.arity
    c = clause_table(s)
    t = up_closure(c, p)
    for cc, tt in [(c, t)] + [(new, u) for _, _, new, u in _parent_tables(c, t, p)]:
        assert list(_child_tables(cc, tt, p)) == _reference_child_tables(cc, tt, p)


def _neighbour_digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _readme_random_shape(p):
    """The README Notes' "random" shape: 4p masks from the two middle
    layers, drawn with ``random.Random(p)``, absorbed, and the regulators
    left out added to one kept clause."""
    rng = random.Random(p)
    pool = [m for m in range(1, 1 << p) if m.bit_count() in (p // 2, p // 2 + 1)]
    kept = []
    for m in sorted(rng.sample(pool, 4 * p), key=lambda m: (m.bit_count(), m)):
        if not any(k & m == k for k in kept):
            kept.append(m)
    missing = ((1 << p) - 1) ^ reduce(or_, kept)
    if missing:
        kept[rng.randrange(len(kept))] |= missing
    return FunctionShape(p, tuple(sorted(kept)))


def test_wide_neighbour_outputs_are_pinned():
    # recorded before child tables were built from lower-neighbour counts;
    # this shape has the same siblings through parents, children or both
    s = _readme_random_shape(12)
    assert s.n_clauses == 46
    assert [_neighbour_digest([x.clauses for x in siblings(s, via)]) for via in VIAS] == [
        "9fcb4054bf592022ca608d97039d84d559fecd1c7519a310dde7340309e34df4"] * 3
    m = majority_rule(12, 6)
    assert [_neighbour_digest([(st.rule, st.delta, st.shape.clauses) for st in found(m)])
            for found in (parents, children)] == [
        "0e2a27c9a20a7c99766b6258fe792ae438be6f912a3025451e73bf38d3da515c",
        "2d2cfcc910c3aafbf2a9b3e3ffb68cd22280f7305669ee24f6f3c1140a044942",
    ]


WALK_PATH_DIGESTS = {  # sha256 of repr([s.clauses for s in random_path(p, 1)])
    1: "2f89a856b49d78145fad2bef112e0a7279679104ddb8b55e95b949266fe943ac",
    2: "43eb7b253d4256ef7035b62895c78b26132937c339a975ae4d6e1f319ccc5084",
    3: "cc4bdd9eff5366c2d1d3c3e29f81f9ababb1e3c4af44400592038128fdbe3965",
    9: "417bd1d6b39584e41cba0a0c83ecdc6364e3153f8b7ec0ee67209c56cbe42045",
    10: "0680a7205e4d8aae1af89d011c2b36cad1a64edf7e6ce0d7943bb4b8a0cca06a",
    11: "a927418948be2fcedadeeed4a724db6389486af6777ef576773746d75bcd82cb",
}


@pytest.mark.parametrize("p", sorted(WALK_PATH_DIGESTS))
def test_walk_paths_are_pinned(p):
    # recorded before the parent records were sorted by one table key; the
    # CLI pins (tests/test_cli.py) cover p = 5 to 7
    assert _neighbour_digest([s.clauses for s in random_path(p, 1)]) == WALK_PATH_DIGESTS[p]


def test_siblings_reject_an_unknown_via():
    with pytest.raises(ValueError):
        siblings(sup_shape(3), via="cousins")
    with pytest.raises(ValueError):
        hasse_slice(sup_shape(3), sibling_via="cousins")
    with pytest.raises(FunspaceError) as err:
        siblings(sup_shape(3), via="x")
    assert isinstance(err.value, InvalidArgument) and isinstance(err.value, ValueError)


def test_hasse_slice_bundle():
    sl = hasse_slice(shp("{{1},{2,3}}", 3), sibling_via="both")
    assert sl.center == shp("{{1},{2,3}}", 3)
    assert len(sl.parents) == 1 and len(sl.children) == 1
    assert len(sl.siblings) == 2
