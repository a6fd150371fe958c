"""Local navigation of the consistent-function order, without enumeration.

The order on shapes ("S ⪯ S'" iff every clause of S contains a clause of
S') has covering steps of a very constrained form, which is what makes
neighbor computation local.  Everything here revolves around one object:

    D(S)  = states outside the function's true set (up-set of the clauses)
    M(S)  = the maximal elements of D(S)

Both are read off 2^p-bit tables (bit s stands for state s): the clause
table C and its up-closure T = T(S), p shift-ORs (`shapes.up_closure`).
A state outside T is in M(S) iff switching on any one regulator it lacks
lands in T, which is one AND per regulator over the whole table.  A walk
reads M(S) this way once and then moves it along the path by local deltas
(`_raise_maxima`): a parent step adds one or two states to T, and only the
states one regulator below them can become maximal.

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
`_child_tables`).  Every candidate is one record (rule, delta, clause table,
up-set): a step moves T by delta states, so no up-set needs a closure.
Records sort by rule and one key on their tables (`_table_key`) before any
becomes a shape.  `random_path` draws from the parents grouped by rule
(`_parent_groups`), sorts only the picked rule's R2 or R3 group (R1 parents
by new clause are in key order already) and builds only its pick, which
keeps its up-set for the counts along the path (`shapes.up_table`).
Siblings (neighbours' neighbours) are found, deduplicated and sorted as
tables too.

`build_hasse` is the independent oracle: it reads every shape's true set
off `shapes.truth_table` and extracts the covering pairs from true-set
containment alone, as a transitive reduction on bitsets over the shapes,
so the rule-based neighbors can be tested against it (p ≤ 5).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, reduce
from itertools import combinations
from math import comb
from operator import and_, itemgetter
from typing import Iterable, Iterator

from .errors import (
    ArityMismatch,
    ArityTooLarge,
    DedekindUnknown,
    InvalidArgument,
    NotAParent,
)
from .shapes import (
    FunctionShape,
    RegulatorContext,
    _carry_up,
    _covering,
    clause_mask,
    clause_table,
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
    return FunctionShape._unchecked(p, tuple(table_states(table, _states(p))))


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
    return all(m & c not in (m, c) for c in shape.clauses)


@cache
def _raises(p: int) -> dict[int, int]:
    """{1 << k: variable_tables(p)[k]}: the states holding bit k, by that bit."""
    return {1 << k: v for k, v in enumerate(variable_tables(p))}


def _maxima(t: int, p: int) -> Iterator[tuple[int, int]]:
    """(m, U(m)) for every m in M(S), by ascending m: U(m), the states ⊇ m,
    is the AND of the per-bit tables of m's regulators.  State 0, in M(S)
    only at the top shape, is left out: it is never a clause."""
    raises = _raises(p)
    for m in table_states(_max_outside_table(t, p)):
        if m == 0:
            continue
        low = m & -m
        above, rest = raises[low], m ^ low
        while rest:
            low = rest & -rest
            above &= raises[low]
            rest ^= low
        yield m, above


def _raise_maxima(maxima: dict[int, int], added: int, t: int) -> None:
    """Move ``maxima``, {m: U(m)} over M(T), to M(T') in place along a parent
    step: ``t`` is T' = T ∪ ``added``, and ``added`` holds one or two of the m.

    A state maximal outside T' but not outside T has a one-bit raise in
    ``added``, so it is some a − j with a added and j ∈ a: M(T') ⊆
    (M(T) ∖ added) ∪ {a − j}.  U(a) holds only states with j, so
    U(a − j) = U(a) | U(a) >> 2^j, and a − j joins iff it is the one state
    of that up-set outside T'.  A step costs p·|added| small table
    operations, not p shift-ORs over the table and an up-set per maximal state.
    """
    while added:
        a = added.bit_length() - 1
        added ^= 1 << a
        above = maxima.pop(a)
        rest = a
        while rest:
            low = rest & -rest
            rest ^= low
            x = a ^ low
            if x and x not in maxima:
                ux = above | above >> low
                if ux & ~t == 1 << x:
                    maxima[x] = ux


def _parent_groups(c: int, p: int, maxima: Iterable[tuple[int, int]]
                   ) -> tuple[list[int], list[tuple[int, int]], list[tuple[int, int]]]:
    """The parents of the shape with clause table ``c`` by rule, from the
    (m, U(m)) pairs of its maximal states: the added states of each R1
    parent, then (clause table, added states) of each R2 parent and each R3
    pair, all as tables, R1 and R2 in the order of ``maxima``.  New clauses
    are maximal outside T, so T grows by exactly the added states."""
    r1: list[int] = []
    r2: list[tuple[int, int]] = []
    failed: list[tuple[int, int]] = []  # (2^m, U(m)) of absorbing states failing alone
    for m, above in maxima:
        a = 1 << m
        if not c & above:
            # Nothing absorbed, so m is independent: m is maximal outside,
            # so no clause fits inside it either, and S ∪ {m} still covers.
            r1.append(a)
        elif _covering(new := c & ~above | a, p):
            r2.append((new, a))
        else:
            failed.append((a, above))
    r3 = [(new, a1 | a2) for (a1, u1), (a2, u2) in combinations(failed, 2)
          if _covering(new := c & ~(u1 | u2) | a1 | a2, p)]
    return r1, r2, r3


def _parent_tables(c: int, t: int, p: int) -> Iterator[tuple[str, int, int, int]]:
    """(rule, delta, clause table, up-set) of every parent of the shape with clause
    table ``c`` and up-set ``t``: `_parent_groups` on M(S) from scratch,
    R1 and R2 by ascending new clause, then R3 pairs."""
    r1, r2, r3 = _parent_groups(c, p, _maxima(t, p))
    for a in r1:
        yield PARENT_R1, 1, c | a, t | a
    for new, a in r2:
        yield PARENT_R2, 1, new, t | a
    for new, a in r3:
        yield PARENT_R3, 2, new, t | a


# per byte, bits complemented and reversed (its own inverse): held low states first
_FLIP = bytes(int(f"{~b & 255:08b}"[::-1], 2) for b in range(256))


@cache
def _table_key(p: int):
    """The order of ``FunctionShape.sort_key`` on clause tables of arity p:
    clause count, then the table holding the lowest differing state first."""
    n = max(1, 1 << p >> 3)
    return lambda table: (table.bit_count(), table.to_bytes(n, "little").translate(_FLIP))


def _key_table(key: tuple[int, bytes]) -> int:
    """The clause table a `_table_key` key was made of."""
    return int.from_bytes(key[1].translate(_FLIP), "little")


def _steps(found: Iterable[tuple[str, int, int, int]], p: int) -> tuple[NeighborStep, ...]:
    """Neighbour records as steps, sorted as (rule, `_table_key`, delta) before
    any becomes a shape: the keys stand in for the tables and up-sets."""
    key = _table_key(p)
    ordered = sorted([(rule, key(table), delta) for rule, delta, table, _ in found])
    return tuple([NeighborStep(_shape_of(_key_table(k), p), rule, delta)
                  for rule, k, delta in ordered])


def parents(shape: FunctionShape) -> tuple[NeighborStep, ...]:
    """All covers of ``shape`` from above, tagged by the rule that built them."""
    p = shape.arity
    c = clause_table(shape)
    return _steps(_parent_tables(c, up_closure(c, p), p), p)


def _child_tables(c: int, t: int, p: int) -> Iterator[tuple[str, int, int, int]]:
    """(CHILD, delta, clause table, up-set) of every child of the shape with clause
    table ``c`` and up-set ``t``: single drops by ascending clause, then pairs.

    Each candidate is a cover by construction.  Dropping a clause s (a
    minimal element of T) leaves the up-set T∖{s}, one state smaller, so
    when it still covers every regulator it is a child.  For clauses s1, s2
    that each fail alone, the only sets strictly between T∖{s1,s2} and T
    are T∖{s1} and T∖{s2}, both invalid, so a valid T∖{s1,s2} is a child
    too.  Its clauses are the minimal elements left; an empty rest fails the cover.

    Single drops are local.  One pass over the regulators finds the states
    of T with exactly one one-bit-lower state in T; the minimal elements of
    T∖{s} are C less s plus those of them among the one-bit raises of s.
    Such a raise holds every regulator of s, so the drop covers iff it adds
    a clause or s holds no regulator that no other clause holds.  Pairs,
    rare, re-minimize their up-set (`minimal_elements`).
    """
    one = two = 0  # states of T with at least one / two one-bit-lower states in T
    for k, v in enumerate(variable_tables(p)):
        lower = (t & ~v) << (1 << k)  # T is an up-set: these states lie in T
        two |= one & lower
        one |= lower
    two_bytes = two.to_bytes((1 << p >> 3) + 1, "little")  # bit r in byte r >> 3
    clauses = table_states(c)
    once = twice = 0  # regulators in at least one / two clauses
    for s in clauses:
        twice |= once & s
        once |= s
    alone = once & ~twice
    full = (1 << p) - 1
    failing: list[int] = []
    for s in clauses:
        new = 0  # raises of s whose only lower state in T is s: clauses of T∖{s}
        rest = full ^ s
        while rest:
            low = rest & -rest
            rest ^= low
            if not two_bytes[(r := s | low) >> 3] >> (r & 7) & 1:
                new |= 1 << r
        if new or not s & alone:
            yield CHILD, 1, c ^ 1 << s | new, t ^ 1 << s
        else:
            failing.append(s)
    for s1, s2 in combinations(failing, 2):
        if _covering(cand := minimal_elements(u := t ^ 1 << s1 ^ 1 << s2, p), p):
            yield CHILD, 2, cand, u


def children(shape: FunctionShape) -> tuple[NeighborStep, ...]:
    """All covers of ``shape`` from below: the inverse removals of
    `_child_tables`, each table a shape once they are sorted."""
    p = shape.arity
    c = clause_table(shape)
    return _steps(_child_tables(c, up_closure(c, p), p), p)


def _slice_tables(shape: FunctionShape, via: str, both: bool
                  ) -> tuple[list, list, tuple[FunctionShape, ...]]:
    """The parent records, the child records and the sibling shapes of
    ``shape``.  The records ``via`` does not need are built only if ``both``.

    Neighbours of neighbours are found from the up-sets their records carry
    and deduplicated as clause tables, sorted by `_table_key` before any
    becomes a shape.  Only ``shape`` itself needs dropping: a parent S' of
    it that were also a child of its parent P would lie strictly between
    it and P, so P would not cover it, and the other three cases fail the
    same way.
    """
    if via not in ("parents", "children", "both"):
        raise InvalidArgument("via must be 'parents', 'children' or 'both'")
    p = shape.arity
    c = clause_table(shape)
    t = up_closure(c, p)
    ups = list(_parent_tables(c, t, p)) if both or via != "children" else []
    downs = list(_child_tables(c, t, p)) if both or via != "parents" else []
    table = itemgetter(2)
    found: set[int] = set()
    if via != "children":
        for _, _, new, u in ups:
            found.update(map(table, _child_tables(new, u, p)))
    if via != "parents":
        for _, _, cand, u in downs:
            found.update(map(table, _parent_tables(cand, u, p)))
    found.discard(c)
    key = _table_key(p)  # each table is dropped as its key is made
    ordered = sorted([key(found.pop()) for _ in range(len(found))])
    return ups, downs, tuple([_shape_of(_key_table(k), p) for k in ordered])


def siblings(shape: FunctionShape, via: str = "parents") -> tuple[FunctionShape, ...]:
    """Shapes sharing a parent with ``shape`` (or a child / either).

    ``via``: 'parents' (default) — other children of the shape's parents;
    'children' — other parents of the shape's children; 'both' — union.
    Direct neighbors of ``shape`` and the shape itself never count.  The
    search runs on clause tables (`_slice_tables`) and builds only the
    neighbour records ``via`` needs; only the siblings returned become
    shapes.
    """
    return _slice_tables(shape, via, both=False)[2]


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
    ups, downs, sibs = _slice_tables(shape, sibling_via, both=True)
    return HasseSlice(shape, _steps(ups, shape.arity), _steps(downs, shape.arity), sibs)


def parent_step(lower: FunctionShape, upper: FunctionShape) -> NeighborStep:
    """The tagged covering step from ``lower`` up to ``upper``.

    Raises NotAParent when ``upper`` does not cover ``lower``.
    """
    if lower.arity != upper.arity:
        raise ArityMismatch("shapes of different arity cannot be neighbors")
    p = lower.arity
    c, want = clause_table(lower), clause_table(upper)
    for rule, delta, new, _ in _parent_tables(c, up_table(lower), p):
        if new == want:
            return NeighborStep(upper, rule, delta)
    raise NotAParent(f"{upper} does not cover {lower}")


def random_path(p: int, seed: int | None = None) -> list[FunctionShape]:
    """Uniform-upward random walk from the bottom shape to the top one.

    At each step one parent is chosen uniformly from the parent records in
    the order ``parents`` sorts them, by rule and `_table_key`; only the
    pick becomes a shape.  The walk keeps M(S) with each up-set U(m) and
    moves it by local deltas (`_raise_maxima`), so no step recomputes them.
    The parents come grouped by rule (`_parent_groups`).  The R1 parents by
    ascending new clause are already in key order (each adds one state to
    the same clause table), so only a picked R2 or R3 parent sorts its own
    rule's group.  Deterministic for a given seed; every consecutive pair
    is a covering edge.  Each shape carries its up-set, so `true_count`,
    `shape_table` and `parent_step` on the path read it
    (`shapes.up_table`): 2^p/8 bytes a shape on a path of about 2^p shapes.
    """
    rng = random.Random(seed)
    path = [inf_shape(p)]
    c = t = clause_table(path[0])  # the bottom's one clause is its up-set
    _carry_up(path[0], t)
    maxima = dict(_maxima(t, p))
    key = _table_key(p)
    while maxima:  # empty at the top shape only
        r1, r2, r3 = _parent_groups(c, p, maxima.items())
        n1, n2 = len(r1), len(r1) + len(r2)
        i = rng.randrange(n2 + len(r3))
        if i < n1:
            added = sorted(r1)[i]
            c |= added
        else:
            group, i = (r2, i - n1) if i < n2 else (r3, i - n2)
            _, c, added = sorted([(key(new), new, a) for new, a in group])[i]
        t |= added
        _raise_maxima(maxima, added, t)
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

    b covers a iff T(a) ⊂ T(b) with nothing strictly between.  True sets come
    from :func:`truth_table`, so this oracle shares no code with the rules.
    Shapes are ranked by ascending |T|, a linear extension of the order; U(a)
    is the AND over T(a) of the bitsets of the ranks holding each state.  The
    lowest rank left in U(a) covers a, and clearing it with its own up-set
    leaves the rest: a transitive reduction (Aho, Garey & Ullman 1972).
    """
    if not 1 <= p <= 5:
        raise ArityTooLarge(f"diagram construction supports 1 <= p <= 5, got {p}")
    shapes = tuple(enumerate_all(p))
    ctx = RegulatorContext.all_positive(p)
    tts = [truth_table(s, ctx, range(p), p) for s in shapes]
    order = sorted(range(len(shapes)), key=lambda i: (tts[i].bit_count(), tts[i]))
    holders = [0] * (1 << p)  # per state, bit r set iff the shape of rank r holds it
    for r, i in enumerate(order):
        for x in table_states(tts[i]):
            holders[x] |= 1 << r
    # per rank, the ranks of the shapes whose true set contains its own
    ups = [reduce(and_, [holders[x] for x in table_states(tts[i])]) for i in order]
    edges: set[tuple[int, int]] = set()
    for r, i in enumerate(order):
        left = ups[r] & -2 << r  # U(a): of the ranks <= r only a itself contains T(a)
        while left:
            b = (left & -left).bit_length() - 1
            edges.add((i, order[b]))
            left &= ~ups[b]
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
