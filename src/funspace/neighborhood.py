"""Local navigation of the consistent-function order, without enumeration.

The order on shapes ("S ⪯ S'" iff every clause of S contains a clause of
S') has covering steps of a very constrained form, which is what makes
neighbor computation local.  Everything here revolves around one object:

    D(S)  = states outside the function's true set (up-set of the clauses)
    M(S)  = the maximal elements of D(S)

Both are read off 2^p-bit tables (bit s stands for state s): the clause
table C and its up-closure T = T(S), p shift-ORs (`shapes.up_closure`).
A state outside T is in M(S) iff switching on any one regulator it lacks
lands in T, which is one AND per regulator over the whole table.

Parents (covers above S) add one or two elements of M(S) as new clauses:

* rule 1 — m ∈ M(S) comparable to no clause: S ∪ {m} is already an
  antichain cover; the true set grows by exactly {m}.
* rule 2 — m ∈ M(S) strictly below some clause: adding m absorbs those
  clauses; the result is a parent iff it still covers every regulator.
* rule 3 — two absorbing m, m' ∈ M(S), each failing rule 2's cover test
  alone, whose joint addition covers: the true set grows by {m, m'}.

Rule 3 never needs comparable pairs: if m ⊂ m' both lie in M(S), the
single addition of m' would already cover whenever the pair does, so the
pair step is not a cover.  Children are the exact inverses (drop one
clause, or a pair of clauses neither droppable alone, and re-minimize the
remaining true set); every such candidate is a cover by construction (see
`_child_tables`).  Candidates stay tables until they pass the cover test:
`random_path` orders them as tables and builds only the shape it steps to,
and that shape carries the up-set T the walk holds, so counts along the
path read it (`shapes.up_table`) instead of closing the clauses again.
Siblings (the parents' children, the children's parents) are found and
deduplicated as tables, whose up-sets each step already knows, so only the
siblings returned become shapes.

`build_hasse` is the independent oracle: it ranks all shapes by true-set
containment and extracts covering pairs directly from the definition, so
the rule-based neighbors can be tested against it (p ≤ 5).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, cmp_to_key
from itertools import combinations
from math import comb
from typing import Iterable, Iterator

from .errors import (
    ArityMismatch,
    ArityTooLarge,
    DedekindUnknown,
    NotAParent,
)
from .shapes import (
    FunctionShape,
    RegulatorContext,
    _carry_up,
    _is_subset,
    clause_mask,
    clause_table,
    compile_clauses,
    inf_shape,
    level,
    level_leq,
    minimal_elements,
    table_states,
    true_count,
    truth_table,
    up_closure,
    up_table,
    variable_tables,
)

PARENT_R1 = "parent-r1"  # independent new clause
PARENT_R2 = "parent-r2"  # absorbing new clause
PARENT_R3 = "parent-r3"  # pair of absorbing clauses, covering jointly
CHILD = "child"
_DELTA = {PARENT_R1: 1, PARENT_R2: 1, PARENT_R3: 2}


@dataclass(frozen=True)
class NeighborStep:
    """One covering edge incident to a shape.

    ``delta`` is the true-set growth along the edge (from the lower to the
    upper shape): 1 for single-state steps, 2 for pair steps.
    """

    shape: FunctionShape
    rule: str
    delta: int

    def sort_key(self) -> tuple:
        return (self.rule, self.shape.sort_key())


def _max_outside_table(t: int, p: int) -> int:
    """M(S) from T(S): states outside T whose one-bit raises all lie in T."""
    m = ~t & ((1 << (1 << p)) - 1)
    for k, v in enumerate(variable_tables(p)):
        m &= v | t >> (1 << k)
    return m


@cache
def _states(p: int) -> tuple[int, ...]:
    # Shared int objects for the clauses read off tables: a fresh int per
    # clause (above 256) tripled the memory of large neighbour lists.
    return tuple(range(1 << p))


def _shape_of(table: int, p: int) -> FunctionShape:
    states = _states(p)
    return FunctionShape._unchecked(p, tuple([states[s] for s in table_states(table)]))


def _covering(table: int, p: int) -> bool:
    """Does a clause table use every regulator?"""
    return all(map(table.__and__, variable_tables(p)))


def max_outside(shape: FunctionShape) -> tuple[int, ...]:
    """Maximal states outside the true set (all-positive reading), ascending.

    The complements of the minimal transversals of the clause family; every
    parent step adds clauses from this set.
    """
    p = shape.arity
    return tuple(table_states(_max_outside_table(up_closure(clause_table(shape), p), p)))


def independent(sigma: Iterable[int] | int, shape: FunctionShape) -> bool:
    """Is the index set comparable to no clause of the shape?

    Accepts 1-based indices or a prepacked bitmask.
    """
    m = sigma if isinstance(sigma, int) else clause_mask(sigma, shape.arity)
    if m == 0:
        return False
    return all(not _is_subset(m, c) and not _is_subset(c, m) for c in shape.clauses)


@cache
def _raises(p: int) -> dict[int, int]:
    """{1 << k: variable_tables(p)[k]}: the states holding bit k, by that bit."""
    return {1 << k: v for k, v in enumerate(variable_tables(p))}


def _parent_tables(c: int, t: int, p: int) -> Iterator[tuple[str, int]]:
    """(rule, clause table) of every parent of the shape with clause table
    ``c`` and up-set ``t``, R1/R2 by ascending new clause, then R3 pairs."""
    raises = _raises(p)
    full = (1 << (1 << p)) - 1
    failed: list[tuple[int, int]] = []  # (m, U(m)) of absorbing states failing alone
    for m in table_states(_max_outside_table(t, p)):
        if m == 0:
            continue  # only at the one-shape arity-1 order; no parent there
        above, rest = full, m  # U(m), states ⊇ m: AND over the bits of m
        while rest:
            low = rest & -rest
            above &= raises[low]
            rest ^= low
        if not c & above:
            # Nothing absorbed, so m is independent: m is maximal outside,
            # so no clause fits inside it either, and S ∪ {m} still covers.
            yield PARENT_R1, c | 1 << m
        elif _covering(new := c & ~above | 1 << m, p):
            yield PARENT_R2, new
        else:
            failed.append((m, above))
    for (m1, u1), (m2, u2) in combinations(failed, 2):
        if _covering(new := c & ~(u1 | u2) | 1 << m1 | 1 << m2, p):
            yield PARENT_R3, new


def _compare_tables(x: tuple[str, int], y: tuple[str, int]) -> int:
    """Order (rule, clause table) pairs like ``NeighborStep.sort_key``: by
    rule, clause count, then the table holding the lowest differing state."""
    (rx, a), (ry, b) = x, y
    if rx != ry:
        return -1 if rx < ry else 1
    if (na := a.bit_count()) != (nb := b.bit_count()):
        return na - nb
    d = a ^ b
    return -1 if d & -d & a else 1


_TABLE_ORDER = cmp_to_key(_compare_tables)


def _steps(found: Iterable[tuple[str, int, int]], p: int) -> tuple[NeighborStep, ...]:
    """(rule, delta, clause table) triples as sorted steps, each table a shape at once."""
    steps = [NeighborStep(_shape_of(table, p), rule, delta) for rule, delta, table in found]
    return tuple(sorted(steps, key=NeighborStep.sort_key))


def parents(shape: FunctionShape) -> tuple[NeighborStep, ...]:
    """All covers of ``shape`` from above, tagged by the rule that built them."""
    p = shape.arity
    c = clause_table(shape)
    found = _parent_tables(c, up_closure(c, p), p)
    return _steps(((rule, _DELTA[rule], new) for rule, new in found), p)


def _child_tables(c: int, t: int, p: int) -> Iterator[tuple[int, int, int]]:
    """(delta, clause table, up-set) of every child of the shape with clause
    table ``c`` and up-set ``t``: single drops by ascending clause, then pairs.

    Each candidate is a cover by construction.  Dropping a clause c (a
    minimal element of T) leaves the up-set T∖{c}, one state smaller, so
    when it still covers every regulator it is a child.  For clauses c1, c2
    that each fail alone, the only sets strictly between T∖{c1,c2} and T
    are T∖{c1} and T∖{c2}, both invalid, so a valid T∖{c1,c2} is a child
    too.  Its clauses are the minimal elements left; an empty rest fails the cover.
    """
    failing: list[int] = []
    for s in table_states(c):
        if _covering(cand := minimal_elements(u := t ^ 1 << s, p), p):
            yield 1, cand, u
        else:
            failing.append(s)
    for s1, s2 in combinations(failing, 2):
        if _covering(cand := minimal_elements(u := t ^ 1 << s1 ^ 1 << s2, p), p):
            yield 2, cand, u


def children(shape: FunctionShape) -> tuple[NeighborStep, ...]:
    """All covers of ``shape`` from below: the inverse removals of
    `_child_tables`, each table a shape at once."""
    p = shape.arity
    c = clause_table(shape)
    found = _child_tables(c, up_closure(c, p), p)
    return _steps(((CHILD, delta, cand) for delta, cand, _ in found), p)


def _slice_tables(shape: FunctionShape, via: str) -> tuple[list, list, tuple[FunctionShape, ...]]:
    """The parent tables, the child tables and the sibling shapes of ``shape``.

    Neighbours of neighbours stay clause tables, deduplicated as ints; their
    up-sets need no closure (a parent's is ``t | new``, a child's comes with
    it).  Only the siblings left after dropping ``shape`` and its neighbours
    become shapes.
    """
    if via not in ("parents", "children", "both"):
        raise ValueError("via must be 'parents', 'children' or 'both'")
    p = shape.arity
    c = clause_table(shape)
    t = up_closure(c, p)
    ups = list(_parent_tables(c, t, p))
    downs = list(_child_tables(c, t, p))
    found: set[int] = set()
    if via != "children":
        for _, new in ups:
            found.update([cand for _, cand, _ in _child_tables(new, t | new, p)])
    if via != "parents":
        for _, cand, u in downs:
            found.update([new for _, new in _parent_tables(cand, u, p)])
    found.difference_update([new for _, new in ups], [cand for _, cand, _ in downs], (c,))
    return ups, downs, tuple(sorted([_shape_of(x, p) for x in found], key=FunctionShape.sort_key))


def siblings(shape: FunctionShape, via: str = "parents") -> tuple[FunctionShape, ...]:
    """Shapes sharing a parent with ``shape`` (or a child / either).

    ``via``: 'parents' (default) — other children of the shape's parents;
    'children' — other parents of the shape's children; 'both' — union.
    Direct neighbors of ``shape`` and the shape itself never count.  The
    search runs on clause tables (`_slice_tables`); only the siblings
    returned become shapes.
    """
    return _slice_tables(shape, via)[2]


@dataclass(frozen=True)
class HasseSlice:
    """One shape with its complete local neighborhood."""

    center: FunctionShape
    parents: tuple[NeighborStep, ...]
    children: tuple[NeighborStep, ...]
    siblings: tuple[FunctionShape, ...]


def hasse_slice(shape: FunctionShape, sibling_via: str = "parents") -> HasseSlice:
    """``shape``'s parents, children and siblings, from one pass over the
    neighbour tables (`_slice_tables`) that ``siblings`` makes too."""
    ups, downs, sibs = _slice_tables(shape, sibling_via)
    p = shape.arity
    return HasseSlice(
        shape,
        _steps(((rule, _DELTA[rule], new) for rule, new in ups), p),
        _steps(((CHILD, delta, cand) for delta, cand, _ in downs), p),
        sibs,
    )


def parent_step(lower: FunctionShape, upper: FunctionShape) -> NeighborStep:
    """The tagged covering step from ``lower`` up to ``upper``.

    Raises NotAParent when ``upper`` does not cover ``lower``.
    """
    if lower.arity != upper.arity:
        raise ArityMismatch("shapes of different arity cannot be neighbors")
    p = lower.arity
    c, want = clause_table(lower), clause_table(upper)
    for rule, new in _parent_tables(c, up_table(lower), p):
        if new == want:
            return NeighborStep(upper, rule, _DELTA[rule])
    raise NotAParent(f"{upper} does not cover {lower}")


def random_path(p: int, seed: int | None = None) -> list[FunctionShape]:
    """Uniform-upward random walk from the bottom shape to the top one.

    At each step one parent is chosen uniformly from the parent tables,
    sorted in the order of ``parents``; only the pick becomes a shape.
    Deterministic for a given seed; every consecutive pair is a covering
    edge.  Each shape carries its up-set T, which the walk holds anyway, so
    `true_count`, `shape_table` and `parent_step` on the path read it
    (`shapes.up_table`): 2^p/8 bytes a shape on a path of about 2^p shapes.
    """
    rng = random.Random(seed)
    path = [inf_shape(p)]
    c = t = clause_table(path[0])  # the bottom's one clause is its up-set
    _carry_up(path[0], t)
    while options := sorted(_parent_tables(c, t, p), key=_TABLE_ORDER):
        c = options[rng.randrange(len(options))][1]
        t |= c  # a parent's up-set adds exactly its new clauses
        path.append(_carry_up(_shape_of(c, p), t))
    return path


# ---------------------------------------------------------------------------
# Enumeration and counting


def enumerate_all(p: int) -> Iterator[FunctionShape]:
    """Yield every valid shape of arity p, in a canonical deterministic order.

    Depth-first antichain extension over clause masks in ascending numeric
    order: each partial antichain is visited exactly once, and the ones
    covering {1..p} are emitted.  Work is proportional to the number of
    antichains, so p = 6 (≈7.8M shapes) takes about 11 s and p ≥ 7 is
    out of reach by intent.
    """
    if not 1 <= p <= 6:
        raise ArityTooLarge(f"full enumeration supports 1 <= p <= 6, got {p}")
    full = (1 << p) - 1
    # follow[m] = bitset over mask values of the masks > m incomparable to m.
    follow = [0] * (full + 1)
    for m in range(1, full + 1):
        acc = 0
        for m2 in range(m + 1, full + 1):
            inter = m & m2
            if inter != m and inter != m2:
                acc |= 1 << m2
        follow[m] = acc
    # Explicit stack: per depth, the masks still to try and the union so far.
    chosen: list[int] = []
    pending = [((1 << (full + 1)) - 1) ^ 1]  # bits 1..full
    unions = [0]
    while pending:
        rest = pending[-1]
        if not rest:
            pending.pop()
            unions.pop()
            del chosen[-1:]  # the mask that opened this depth; none at the root
            continue
        low = rest & -rest
        rest ^= low
        pending[-1] = rest
        m = low.bit_length() - 1
        chosen.append(m)
        union = unions[-1] | m
        if union == full:
            yield FunctionShape._unchecked(p, tuple(chosen))
        rest &= follow[m]
        if rest:
            pending.append(rest)
            unions.append(union)
        else:
            chosen.pop()  # a leaf: nothing extends this antichain


#: Sizes of the free distributive lattice on p generators (number of
#: monotone Boolean functions of p variables, constants included).
_MONOTONE_COUNTS = {
    1: 3,
    2: 6,
    3: 20,
    4: 168,
    5: 7581,
    6: 7828354,
    7: 2414682040998,
    8: 56130437228687557907788,
}


@cache
def count_consistent(p: int) -> int:
    """Number of consistent functions with exactly p (essential) regulators.

    Subtract the two constants and, via binomial inclusion, every monotone
    function whose support is a proper subset of the p regulators.
    """
    if p < 1:
        raise ArityTooLarge(f"arity must be at least 1, got {p}")
    if p not in _MONOTONE_COUNTS:
        raise DedekindUnknown(
            f"counts known only for p <= {max(_MONOTONE_COUNTS)}, got {p}"
        )
    total = _MONOTONE_COUNTS[p] - 2
    for k in range(1, p):
        total -= comb(p, k) * count_consistent(k)
    return total


# ---------------------------------------------------------------------------
# Brute-force diagram (the oracle the rules are tested against)


@dataclass
class HasseDiagram:
    """Full covering diagram of the order for one arity.

    ``edges`` holds (lower_index, upper_index) pairs into ``shapes``; the
    shape index and the adjacency lists are built once, on construction.
    """

    p: int
    shapes: tuple[FunctionShape, ...]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        self._index = {s: i for i, s in enumerate(self.shapes)}
        self._up: list[list[int]] = [[] for _ in self.shapes]
        self._down: list[list[int]] = [[] for _ in self.shapes]
        for a, b in self.edges:
            self._up[a].append(b)
            self._down[b].append(a)

    def index(self, shape: FunctionShape) -> int:
        return self._index[shape]

    def parents_of(self, shape: FunctionShape) -> set[FunctionShape]:
        return {self.shapes[b] for b in self._up[self.index(shape)]}

    def children_of(self, shape: FunctionShape) -> set[FunctionShape]:
        return {self.shapes[a] for a in self._down[self.index(shape)]}


def build_hasse(p: int) -> HasseDiagram:
    """Construct the full diagram from the definition of the order (p ≤ 5).

    Ranks every shape by its true set and keeps the covering pairs: b
    covers a iff T(a) ⊂ T(b) with nothing strictly between.  Quadratic in
    the number of shapes; deliberately independent of `parents`/`children`
    so it can serve as their oracle.
    """
    if not 1 <= p <= 5:
        raise ArityTooLarge(f"diagram construction supports 1 <= p <= 5, got {p}")
    shapes = tuple(enumerate_all(p))
    ctx = RegulatorContext.all_positive(p)
    tts = [truth_table(compile_clauses(s, ctx), p) for s in shapes]
    order = sorted(range(len(shapes)), key=lambda i: (tts[i].bit_count(), tts[i]))
    edges: set[tuple[int, int]] = set()
    for a in range(len(shapes)):
        ta = tts[a]
        mins: list[int] = []
        for b in order:  # ascending |T| is a linear extension of the order
            tb = tts[b]
            if tb == ta or ta & tb != ta:
                continue
            if any(tm & tb == tm for tm in mins):
                continue
            mins.append(tb)
            edges.add((a, b))
    return HasseDiagram(p, shapes, frozenset(edges))


def verify_rules(p: int, diagram: HasseDiagram | None = None) -> list[str]:
    """Compare rule-based neighbors against the brute-force diagram.

    Returns human-readable discrepancy descriptions (empty = clean).  Also
    checks the structural edge facts: true-set growth along every edge is
    1 or 2, matching the step's tag, and levels never decrease upward.
    ``diagram`` may pass in a prebuilt ``build_hasse(p)`` result.
    """
    hd = build_hasse(p) if diagram is None else diagram
    problems: list[str] = []
    for i, s in enumerate(hd.shapes):
        ups = parents(s)
        want_up = hd.parents_of(s)
        got_up = {st.shape for st in ups}
        if got_up != want_up:
            extra = got_up - want_up
            missing = want_up - got_up
            problems.append(
                f"parents({s}): extra={sorted(map(str, extra))} "
                f"missing={sorted(map(str, missing))}"
            )
        want_down = hd.children_of(s)
        got_down = {st.shape for st in children(s)}
        if got_down != want_down:
            extra = got_down - want_down
            missing = want_down - got_down
            problems.append(
                f"children({s}): extra={sorted(map(str, extra))} "
                f"missing={sorted(map(str, missing))}"
            )
        for st in ups:
            d = true_count(st.shape) - true_count(s)
            if d != st.delta or d not in (1, 2):
                problems.append(
                    f"edge {s} -> {st.shape}: true-set grows by {d}, tagged {st.delta}"
                )
            if not level_leq(level(s), level(st.shape)):
                problems.append(
                    f"edge {s} -> {st.shape}: level {level(s)} above {level(st.shape)}"
                )
    return problems
