from __future__ import annotations

import hashlib
import random
from functools import cmp_to_key
from itertools import combinations

import pytest
from hypothesis import given, settings
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
from funspace.errors import ArityTooLarge, DedekindUnknown, NotAParent
from funspace.neighborhood import (
    PARENT_R1,
    PARENT_R2,
    PARENT_R3,
    NeighborStep,
    _child_tables,
    _compare_tables,
)
from funspace.shapes import clause_table, shape_table, up_closure

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


@settings(max_examples=200, deadline=None)
@given(_ranked_shapes(), hst.randoms())
def test_table_order_is_the_sort_key_order(ranked, rnd):
    rnd.shuffle(ranked)
    want = sorted(ranked, key=lambda rs: NeighborStep(rs[1], rs[0], 1).sort_key())
    by_table = {clause_table(s): s for _, s in ranked}
    got = sorted([(r, clause_table(s)) for r, s in ranked], key=cmp_to_key(_compare_tables))
    assert [(r, by_table[t]) for r, t in got] == want


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
    assert sorted((delta, cand) for delta, cand, _ in found) == sorted(
        (st.delta, clause_table(st.shape)) for st in children(s))
    for delta, cand, u in found:
        assert u == up_closure(cand, p)
        assert u & t == u and (t ^ u).bit_count() == delta


def test_siblings_reject_an_unknown_via():
    with pytest.raises(ValueError):
        siblings(sup_shape(3), via="cousins")
    with pytest.raises(ValueError):
        hasse_slice(sup_shape(3), sibling_via="cousins")


def test_hasse_slice_bundle():
    sl = hasse_slice(shp("{{1},{2,3}}", 3), sibling_via="both")
    assert sl.center == shp("{{1},{2,3}}", 3)
    assert len(sl.parents) == 1 and len(sl.children) == 1
    assert len(sl.siblings) == 2
