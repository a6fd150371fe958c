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
`_child_records`).  Every neighbour is one record (rule, delta, clause
tuple, hi, lo): a step adds to T or removes from it the states hi ≥ lo,
one state twice for a one-state step, and its clauses are cut from the
shape's own tuple, so only M(S) is read off a table.  A parent adds m
and drops the clauses above it, each one regulator above (`_absorbed`),
or adds m and m' and drops m | m'; a child drops s and gains R(s)
(`_single_drops`), or s and s' and gains s | s' (`_joined`).
Records sort on (rule, clause count, clauses), `NeighborStep.sort_key`'s
order.  A shape's records, R(s) and M(S) make up its centre (`_Centre`),
each built on first use; the last shape's is kept (`_centre`, bounded by
`CENTRE_SLOTS`), so `parents`, `children`, `siblings` and `hasse_slice`
on one shape build each once.  The rule test on tables is written once
(`_parent_groups`: R1, R2, or failing alone, R3's candidates) and serves
`parents` and `random_path`.  A walk carries each maximal state's rule
along the path and tests again only the states whose rule a step can
change (`_take_parent`); its clause list moves by the step's delta, and
only its pick becomes a shape, which keeps its up-set for the counts
along the path (`shapes.up_table`).  Siblings move by deltas too (`_siblings`):
each is the shape's up-set with a few states added and removed,
deduplicated on those states, its clauses cut from its neighbour's
record, and its cover tested on clause counts per regulator (`_held`).

Two checks share no code with the rules.  `build_hasse` is the oracle:
it reads every shape's true set off `shapes.truth_table` and extracts the
covering pairs from true-set containment alone, as a transitive reduction
on bitsets over the shapes, so the rule-based neighbors can be tested
against it (p ≤ 5).  `parent_step` reads one step off the two up-sets by
the order's definition, so `dynamics.path_trace` checks a walk at any arity.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cache, reduce
from itertools import accumulate, combinations
from math import comb
from operator import and_, or_
from typing import Container, Iterable, Iterator

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
    # Shared int objects for the clauses neighbours gain: a fresh int per
    # clause (above 256) tripled the memory of large neighbour lists.
    return tuple(range(1 << p))


def max_outside(shape: FunctionShape) -> tuple[int, ...]:
    """Maximal states outside the true set (all-positive reading), ascending.

    The complements of the minimal transversals of the clause family; every
    parent step adds clauses from this set.
    """
    p = shape.arity
    return tuple(table_states(_max_outside_table(up_closure(clause_table(shape), p), p)))


def independent(sigma: Iterable[int] | int, shape: FunctionShape) -> bool:
    """Is the index set comparable to no clause of the shape?

    Accepts 1-based indices or a prepacked bitmask in 1..2^p − 1.
    """
    p = shape.arity
    if isinstance(sigma, int) and not 0 < sigma < 1 << p:
        raise InvalidArgument(f"index mask {sigma:#x} outside 0x1..{(1 << p) - 1:#x}")
    m = sigma if isinstance(sigma, int) else clause_mask(sigma, p)
    if m == 0:
        return False
    return all(m & c not in (m, c) for c in shape.clauses)


@cache
def _up_sets(p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """U(b) for every b < 2^min(p, 8), then U(h << 8) for every h < 2^(p − 8)
    (only the full table when p ≤ 8): U(m), the states ⊇ m, is the AND of
    one of each.  Built once per arity; 512 tables, 4 MB, at p = 16."""
    var, full = variable_tables(p), (1 << (1 << p)) - 1

    def ups(ks: range) -> tuple[int, ...]:
        return tuple([reduce(and_, [var[k] for k in ks if b >> (k - ks.start) & 1], full)
                      for b in range(1 << len(ks))])

    return ups(range(min(p, 8))), ups(range(8, max(p, 8)))


def _maxima(t: int, p: int) -> list[tuple[int, int]]:
    """(m, U(m)) for every m in M(S), by ascending m.  State 0, in M(S)
    only at the top shape, is left out: it is never a clause."""
    low, high = _up_sets(p)
    return [(m, low[m & 255] & high[m >> 8]) for m in table_states(_max_outside_table(t, p)) if m]


def _raise_maxima(maxima: dict[int, int], added: int, t: int) -> list[tuple[int, int]]:
    """Move ``maxima``, {m: U(m)} over M(T), to M(T') in place along a parent
    step: ``t`` is T' = T ∪ ``added``, and ``added`` holds one or two of the m.
    Returns the (m, U(m)) pairs of the states it adds.

    A state maximal outside T' but not outside T has a one-bit raise in
    ``added``, so it is some a − j with a added and j ∈ a: M(T') ⊆
    (M(T) ∖ added) ∪ {a − j}.  U(a) holds only states with j, so
    U(a − j) = U(a) | U(a) >> 2^j, and a − j joins iff it is the one state
    of that up-set outside T'.  A step costs p·|added| small table
    operations, not p shift-ORs over the table and an up-set per maximal state.
    """
    more = []
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
                    more.append((x, ux))
    return more


def _absorbed(m: int, p: int, clauses: Container[int]) -> list[int]:
    """The clauses above m, a state maximal outside T, ascending, given
    the shape's ``clauses`` as a set or dict.  Each is m and one regulator
    more: every state above m lies in T, so a clause further above would
    have a lower state in T.  At most p lookups, no pass over a table."""
    return [x for k in range(p) if (x := m | 1 << k) != m and x in clauses]


def _parent_groups(c: int, p: int, maxima: Iterable[tuple[int, int]]
                   ) -> tuple[list[int], dict[int, int], dict[int, int]]:
    """The rule test: sort the (m, U(m)) pairs of maximal states by the rule
    that adds m to the shape with clause table ``c``.  Returns the R1 states
    in the order of ``maxima``, then the R2 states and the absorbing states
    that fail alone (R3's candidates), both as {m: U(m)}.  New clauses are
    maximal outside T, so T grows by exactly the added states."""
    r1: list[int] = []
    r2: dict[int, int] = {}
    failed: dict[int, int] = {}
    for m, above in maxima:
        if not c & above:
            # Nothing absorbed, so m is independent: m is maximal outside,
            # so no clause fits inside it either, and S ∪ {m} still covers.
            r1.append(m)
        elif _covering(c & ~above | 1 << m, p):
            r2[m] = above
        else:
            failed[m] = above
    return r1, r2, failed


def _pairs(c: int, failed: dict[int, int]) -> list[tuple[int, int]]:
    """(m, m'), m < m', of every R3 parent of the shape with clause table
    ``c``: the pairs of ``failed`` states, {m: U(m)}, that each absorb only
    their join m | m' (`_parent_records`), which they replace."""
    return [(m1, m2) if m1 < m2 else (m2, m1)
            for (m1, u1), (m2, u2) in combinations(failed.items(), 2)
            if c & u1 == c & u2 == 1 << (m1 | m2)]


def _spliced(cls: tuple[int, ...], gone: Iterable[int], new: Iterable[int]) -> tuple[int, ...]:
    """The ascending clause tuple ``cls`` less the clauses ``gone`` plus the
    states ``new``, in any order: a neighbour's clauses from the shape's,
    or a sibling's from its neighbour's."""
    out = list(cls)
    for x in gone:
        del out[bisect_left(out, x)]
    for x in new:
        insort(out, x)
    return tuple(out)


def _parent_records(c: int, cls: tuple[int, ...], p: int, maxima: Iterable[tuple[int, int]]
                    ) -> Iterator[tuple[str, int, tuple[int, ...], int, int]]:
    """(rule, delta, clause tuple, hi, lo) of every parent of the shape with
    clause table ``c``, clause tuple ``cls`` and maximal states ``maxima``
    (`_maxima`), by `_parent_groups` on them: R1 and R2 parents adding m
    to T, as (m, m), then R3 pairs (`_pairs`) adding m < m', as (m', m),
    each ``cls`` less the clauses its new ones absorb (`_absorbed`).  An R3
    pair m, m' absorbs m | m' alone: dropping m from it gives back the
    clauses m alone absorbs, which hold m's regulators, so were there any,
    m' would not fail alone; and a clause both absorb lies one regulator
    above each.  Conversely two failing states that each absorb only their
    join cover jointly, as m and m' hold its regulators, so that is the
    whole pair test."""
    r1, r2, failed = _parent_groups(c, p, maxima)
    for m in r1:
        yield PARENT_R1, 1, _spliced(cls, (), (m,)), m, m
    held = set(cls)
    for m in r2:
        yield PARENT_R2, 1, _spliced(cls, _absorbed(m, p, held), (m,)), m, m
    for m1, m2 in _pairs(c, failed):
        yield PARENT_R3, 2, _spliced(cls, (m1 | m2,), (m1, m2)), m2, m1


#: Most 8-byte slots a centre (`_Centre`) may hold and still stay in the
#: memo past the call that built it: its records' clause slots, plus the
#: words of its maximal states' 2^p-bit up-sets; 2^16 slots is 0.5 MB.
#: The centres of the `neighbors` benchmark ops (p <= 7, at most 18
#: clauses) hold at most 1,043.  Kept without a bound,
#: `parents(majority_rule(14, 7))` left 90.6 MB held after its result was
#: dropped (1.0 MB without a memo), and a following `children` call
#: peaked at 187.4 MB (97.1 MB without); tracemalloc, Python 3.11.
CENTRE_SLOTS = 1 << 16


class _Centre:
    """What `parents`, `children`, `siblings` and `hasse_slice` read of one
    shape: its arity ``p``, clause tuple ``cls``, clause table ``c`` and
    up-set ``t``, and, each built on first use, its single drops, maximal
    states, parent records and child records, as lists.  All of it
    depends on (arity, clauses) alone and holds only tuples and ints, so
    calls on equal shapes share one centre (`_centre`).  ``slots`` counts
    what the built parts hold (`CENTRE_SLOTS`)."""

    __slots__ = ("p", "cls", "c", "t", "slots", "_drops", "_maxima", "_ups", "_downs")

    def __init__(self, shape: FunctionShape) -> None:
        p = self.p = shape.arity
        self.cls = shape.clauses
        self.c = c = clause_table(shape)
        self.t = up_closure(c, p)
        self.slots = 0
        self._drops = self._maxima = self._ups = self._downs = None

    def _hold(self, n: int, each: int) -> None:
        """Count ``n`` new entries of ``each`` slots, and leave the memo
        once past `CENTRE_SLOTS`: the call holding the centre still reads
        it, and it is freed with that call's last reference.  A record
        counts as its five fields and the centre's clause count, which a
        neighbour's is within p of."""
        global _last
        self.slots += n * each
        if self.slots > CENTRE_SLOTS and _last is self:
            _last = None

    def drops(self) -> tuple[list[tuple[int, ...]], int]:
        if self._drops is None:
            self._drops = _single_drops(self.cls, self.t, self.p)
            self._hold(len(self.cls), self.p)  # each R(s) holds under p states
        return self._drops

    def maxima(self) -> list[tuple[int, int]]:
        if self._maxima is None:
            self._maxima = _maxima(self.t, self.p)
            self._hold(len(self._maxima), 1 + ((1 << self.p) + 63 >> 6))
        return self._maxima

    def ups(self) -> list[tuple[str, int, tuple[int, ...], int, int]]:
        if self._ups is None:
            self._ups = list(_parent_records(self.c, self.cls, self.p, self.maxima()))
            self._hold(len(self._ups), len(self.cls) + 5)
        return self._ups

    def downs(self) -> list[tuple[str, int, tuple[int, ...], int, int]]:
        if self._downs is None:
            self._downs = list(_child_records(self.cls, self.p, self.drops()))
            self._hold(len(self._downs), len(self.cls) + 5)
        return self._downs


_last: _Centre | None = None  # the one memo entry: the centre of the last shape asked about


def _centre(shape: FunctionShape) -> _Centre:
    """The centre of ``shape``: the last one built if it was built for an
    equal shape (same arity and clauses), else a new one, which replaces it
    in the memo once the old one has been let go.  Carries the centre's
    up-set onto ``shape`` (`shapes._carry_up`), so `true_count` and
    `shape_table` on it read the table instead of building it again."""
    global _last
    centre = _last
    if centre is None or centre.cls != shape.clauses or centre.p != shape.arity:
        centre = _last = None  # the old records go before the new ones are built
        centre = _last = _Centre(shape)
    _carry_up(shape, centre.t)
    return centre


def _new_shapes(p: int, clause_tuples: Iterable[tuple[int, ...]]) -> list[FunctionShape]:
    """Shapes of arity p with these clause tuples, each an antichain cover
    by construction, built as ``FunctionShape._unchecked`` builds one but
    without a call per shape."""
    new, shape = object.__new__, FunctionShape
    out = []
    for cls in clause_tuples:
        out.append(s := new(shape))
        attrs = s.__dict__  # frozen: fields go in without __setattr__
        attrs["arity"] = p
        attrs["clauses"] = cls
    return out


def _steps(found: Iterable[tuple[str, int, tuple[int, ...], int, int]], p: int
           ) -> tuple[NeighborStep, ...]:
    """A centre's neighbour records (`_parent_records`, `_child_records`)
    as steps, sorted on (rule, clause count, clauses), which is
    ``NeighborStep.sort_key``'s order; steps go in without the frozen
    dataclass ``__init__``, as their shapes do (`_new_shapes`)."""
    ordered = sorted([(rule, len(cls), cls, delta) for rule, delta, cls, _, _ in found])
    new = object.__new__
    steps = []
    for shape, (rule, _, _, delta) in zip(_new_shapes(p, [r[2] for r in ordered]), ordered):
        steps.append(step := new(NeighborStep))
        attrs = step.__dict__
        attrs["shape"] = shape
        attrs["rule"] = rule
        attrs["delta"] = delta
    return tuple(steps)


def parents(shape: FunctionShape) -> tuple[NeighborStep, ...]:
    """All covers of ``shape`` from above, tagged by the rule that built
    them: the parent records of its centre (`_centre`), built unless a
    call on an equal shape built them last."""
    centre = _centre(shape)
    return _steps(centre.ups(), centre.p)


def _single_drops(cls: tuple[int, ...], t: int, p: int) -> tuple[list[tuple[int, ...]], int]:
    """Per clause s of the shape with ascending clause tuple ``cls`` and
    up-set ``t``, R(s), the one-bit raises of s whose only lower state in T
    is s, ascending: the clauses T∖{s} gains; and the regulators that one
    clause alone holds.

    One pass over the regulators finds the states of T with at least two
    one-bit-lower states in T; R(s) is the raises of s not among them.  Such
    a raise holds every regulator of s, so dropping s covers iff R(s) is
    not empty or s holds no regulator that no other clause holds.
    """
    one = two = 0  # states of T with at least one / two one-bit-lower states in T
    for k, v in enumerate(variable_tables(p)):
        lower = (t & ~v) << (1 << k)  # T is an up-set: these states lie in T
        two |= one & lower
        one |= lower
    two_bytes = two.to_bytes((1 << p >> 3) + 1, "little")  # bit r in byte r >> 3
    states = _states(p)
    once = twice = 0  # regulators in at least one / two clauses
    full = (1 << p) - 1
    raised = []
    for s in cls:
        twice |= once & s
        once |= s
        new = []
        rest = full ^ s
        while rest:
            low = rest & -rest
            rest ^= low
            if not two_bytes[(r := s | low) >> 3] >> (r & 7) & 1:
                new.append(states[r])
        raised.append(tuple(new))
    return raised, once & ~twice


def _joined(s1: int, s2: int, cls: Iterable[int]) -> int:
    """What dropping the clauses s1 and s2 of ``cls``, each failing alone,
    leaves in their place: s1 | s2 if it lies one regulator above each and
    above no other clause, so that s1 and s2 are its only lower states in
    T; it holds all their regulators.  Else 0: the drop fails the cover."""
    j = s1 | s2
    return j if (s1 ^ s2).bit_count() == 2 and all(
        x & j != x for x in cls if x != s1 and x != s2) else 0


def _child_records(cls: tuple[int, ...], p: int, drops: tuple[list[tuple[int, ...]], int]
                   ) -> Iterator[tuple[str, int, tuple[int, ...], int, int]]:
    """(CHILD, delta, clause tuple, hi, lo) of every child of the shape with
    clause tuple ``cls`` and single drops ``drops`` (`_single_drops`):
    single drops of s by ascending clause, as (s, s), then pairs s1 < s2,
    as (s2, s1), the states each removes from T.

    Each candidate is a cover by construction.  Dropping a clause s (a
    minimal element of T) leaves the up-set T∖{s}, one state smaller, so
    when it still covers every regulator it is a child.  For clauses s1, s2
    that each fail alone, the only sets strictly between T∖{s1,s2} and T
    are T∖{s1} and T∖{s2}, both invalid, so a valid T∖{s1,s2} is a child
    too.  Both drops are local: the clauses of T∖{s} are ``cls`` less s
    plus R(s), and those of T∖{s1,s2} are ``cls`` less s1 and s2 plus
    their join (`_joined`), R(s1) and R(s2) being empty.
    """
    raised, alone = drops
    failing: list[int] = []
    for s, new in zip(cls, raised):
        if new or not s & alone:
            yield CHILD, 1, _spliced(cls, (s,), new), s, s
        else:
            failing.append(s)
    for s1, s2 in combinations(failing, 2):
        if j := _joined(s1, s2, cls):
            yield CHILD, 2, _spliced(cls, (s1, s2), (_states(p)[j],)), s2, s1


def children(shape: FunctionShape) -> tuple[NeighborStep, ...]:
    """All covers of ``shape`` from below: the inverse removals of
    `_child_records` on its centre (`_centre`), each a shape once they
    are sorted."""
    centre = _centre(shape)
    return _steps(centre.downs(), centre.p)


def _held(counts: list[int], low: list[int], gone: list[int], keep: int) -> bool:
    """Do the clauses left when ``gone`` is removed from a clause list hold
    every regulator outside ``keep``?  ``counts[k]`` is the number of clauses
    holding regulator k and ``low[j]`` the regulators held by at most j, the
    only ones j removed clauses can leave uncovered."""
    need = 0
    for x in gone:
        need |= x
    need &= low[len(gone)] & ~keep
    while need:
        b = need & -need
        need ^= b
        if counts[b.bit_length() - 1] == sum([1 for x in gone if x & b]):
            return False
    return True


def _pack(states: Iterable[int]) -> int:
    """A sibling's dedupe key: its up-set's added states, then its removed
    ones, each ascending, 16 bits a state.  T fixes which is which, so
    equal keys mean equal up-sets."""
    key = 0
    for x in states:
        key = key << 16 | x
    return key


def _siblings(centre: _Centre, via: str) -> tuple[FunctionShape, ...]:
    """The siblings of the shape of ``centre``, with clause tuple C, up-set
    T, single drops R(s) and maximal states M(S), through its parent or
    child records or both, as ``via`` names; the centre builds only the
    records read.

    Every sibling is a delta of the shape: its up-set is T ∪ A ∖ R with one
    or two added states A and one or two removed states R, and its clauses
    differ from its neighbour's in a few states.  Through a parent
    P = C ∖ X ∪ A (X the clauses A absorbs), the children "P less clause s"
    gain R(s) less the one-bit raises of A, the only states whose lower
    states grew, and cover iff they gain a clause or s holds no regulator
    alone in P.  Two clauses failing alone, an R3 parent's new ones among
    them (neither gives back a clause: `_parent_records`), drop as in
    `_child_records`.  Through a child K = C ∖ R ∪ N (N = R(s), or s | s'
    for a pair), the parents add a maximal state m of the shape not below a
    clause in R, absorbing the clauses of C (`_absorbed`) and of N above
    it, and cover as the clauses of C per regulator count (`_held`); two
    failing alone, such m or a pair's s and s', are an R3 pair iff each
    absorbs only their join.  Only the shape itself needs dropping: a
    parent of it that were a child of its parent P would lie strictly
    between it and P, so P would not cover it; the other three fail alike.

    Siblings are deduplicated on (A, R) (`_pack`), and each new one's
    clause tuple is cut from its neighbour's record (`_spliced`).  They
    sort on (clause count, clauses), ``FunctionShape.sort_key``'s order.
    """
    cls, p = centre.cls, centre.p
    raised, _ = centre.drops()
    states = _states(p)
    found: dict[int, tuple[int, ...]] = {}
    if via != "children":
        for _, delta, up, a, b in centre.ups():
            kept = []
            once = twice = 0
            for s, rs in zip(cls, raised):
                if s & a != a and s & b != b:
                    kept.append((s, rs))
                    twice |= once & s
                    once |= s
            twice |= once & a | (once | a) & b
            once |= a | b
            alone_p, akey = once & ~twice, a if delta == 1 else b << 16 | a
            failing = []
            for s, rs in kept:
                if rs:  # less the raises of A, which gained a lower state
                    rs = [r for r in rs if r & a != a and r & b != b]
                if rs or not s & alone_p:
                    if (key := akey << 16 | s) not in found:
                        found[key] = _spliced(up, (s,), rs)
                else:
                    failing.append(s)
            pairs = [(s1, s2, akey << 32 | s1 << 16 | s2) for s1, s2 in combinations(failing, 2)]
            if delta == 2:  # a new clause drops with one of C, keeping the other new one
                pairs += [(x, s, y << 16 | s) for x, y in ((a, b), (b, a)) for s in failing]
            for s1, s2, key in pairs:
                if key not in found and (j := _joined(s1, s2, up)):
                    found[key] = _spliced(up, (s1, s2), (states[j],))
    if via != "parents":
        counts = [sum([s >> k & 1 for s in cls]) for k in range(p)]
        low = [0] * (len(cls) + 1)  # by count: the regulators in at most that many clauses
        for k, m in enumerate(counts):
            low[m] |= 1 << k
        low = list(accumulate(low, or_))
        by_clause = dict(zip(cls, raised))
        # (m, the clauses m absorbs) per maximal state
        groups = [(states[m], _absorbed(m, p, by_clause)) for m, _ in centre.maxima()]
        for _, delta, down, s, s0 in centre.downs():
            rs, dropped, dkey, failed = by_clause[s], [s], s, []
            if delta == 2:  # K drops s0 and s, clauses failing alone, and gains their join
                rs, dropped, dkey = [states[s0 | s]], [states[s0], states[s]], s0 << 16 | s
                failed = [(x, rs) for x in dropped]  # (state, the clauses of K it absorbs)
            for m, xc in groups:
                if m & s == m or m & s0 == m:
                    continue  # m lies below a dropped clause, so it is not maximal outside K
                absorbed, keep = xc, m
                for r in rs:
                    if r & m == m:
                        absorbed = absorbed + [r]
                    else:
                        keep |= r
                if not absorbed or _held(counts, low, xc + dropped, keep):
                    if (key := m << 16 * delta | dkey) not in found:
                        found[key] = _spliced(down, absorbed, (m,))
                else:
                    failed.append((m, absorbed))
            for (m1, ab1), (m2, ab2) in combinations(failed, 2):
                new = [x for x in (m1, m2) if x not in dropped]
                if new and ab1 == ab2 == [m1 | m2]:  # an R3 pair (`_parent_records`)
                    key = _pack(new + [x for x in dropped if x != m1 and x != m2])
                    found.setdefault(key, _spliced(down, ab1, (m1, m2)))
    ordered = sorted(found.values())
    ordered.sort(key=len)  # stable: by clause count, then clauses
    return tuple(_new_shapes(p, ordered))


def _check_via(via: str, name: str) -> None:
    if via not in ("parents", "children", "both"):
        raise InvalidArgument(f"{name} must be 'parents', 'children' or 'both'")


def siblings(shape: FunctionShape, via: str = "parents") -> tuple[FunctionShape, ...]:
    """Shapes sharing a parent with ``shape`` (or a child / either).

    ``via``: 'parents' (default) — other children of the shape's parents;
    'children' — other parents of the shape's children; 'both' — union.
    Direct neighbors of ``shape`` and the shape itself never count.  Each
    sibling is built as a delta of its neighbour's clauses (`_siblings`),
    from only the neighbour records ``via`` reads, taken from the shape's
    centre (`_centre`): a `parents` or `children` call on an equal shape
    just before has built them already.
    """
    _check_via(via, "via")
    return _siblings(_centre(shape), via)


@dataclass(frozen=True)
class HasseSlice:
    """One shape with its complete local neighborhood."""

    center: FunctionShape
    parents: tuple[NeighborStep, ...]
    children: tuple[NeighborStep, ...]
    siblings: tuple[FunctionShape, ...]


def hasse_slice(shape: FunctionShape, sibling_via: str = "parents") -> HasseSlice:
    """``shape``'s parents, children and siblings (through ``sibling_via``),
    all three read off one centre (`_centre`): one build of its parent and
    child records, or none after a call on an equal shape."""
    _check_via(sibling_via, "sibling_via")
    centre = _centre(shape)
    return HasseSlice(shape, _steps(centre.ups(), centre.p), _steps(centre.downs(), centre.p),
                      _siblings(centre, sibling_via))


def parent_step(lower: FunctionShape, upper: FunctionShape) -> NeighborStep:
    """The tagged covering step from ``lower`` up to ``upper``.

    Read off the order's definition, with no code shared with the rules, so
    that `dynamics.path_trace` checks a walk independently: T(upper) holds
    T(lower) and one or two states more, and for two, a and b, neither
    T(lower) ∪ {a} nor T(lower) ∪ {b} is the up-set of a shape, so nothing
    lies between.  A one-state step is R1 when it only adds that state as a
    clause, else R2; a two-state step is R3.  Raises NotAParent when
    ``upper`` does not cover ``lower``.
    """
    if lower.arity != upper.arity:
        raise ArityMismatch("shapes of different arity cannot be neighbors")
    p = lower.arity
    t, u = up_table(lower), up_table(upper)
    grown = u ^ t
    if grown and u & t == t:
        if grown.bit_count() == 1:
            r1 = clause_table(upper) == clause_table(lower) | grown
            return NeighborStep(upper, PARENT_R1 if r1 else PARENT_R2, 1)
        if grown.bit_count() == 2 and not any(
                up_closure(x, p) == x and _covering(minimal_elements(x, p), p)
                for x in (t | grown & -grown, t | grown & grown - 1)):
            return NeighborStep(upper, PARENT_R3, 2)
    raise NotAParent(f"{upper} does not cover {lower}")


def _take_parent(i: int, c: int, t: int, p: int, maxima: dict[int, int], r1: list[int],
                 r2: dict[int, int], failed: dict[int, int], r3: list[tuple[int, int]]
                 ) -> tuple[int, int, dict[int, int], dict[int, int]]:
    """Take parent ``i``, in the order ``parents`` sorts them, of the shape
    with clause table ``c`` and up-set ``t``, whose ``maxima`` are sorted by
    `_parent_groups` into ``r1`` (ascending), ``r2`` and ``failed``, with R3
    parents ``r3`` (`_pairs`).  Returns the parent's clause table, up-set,
    R2 and failed states; ``maxima`` and ``r1`` move in place.  Only the
    states whose rule the step can change are tested again:

    * an R1 state stays R1 until taken: every added clause is maximal
      outside T, so none lies above it, and dropping clauses puts none there;
    * the states the step makes maximal lie one regulator below an added
      clause (`_raise_maxima`), so they are never R1;
    * an R1 step drops no clause, so an R2 state keeps the clauses it
      absorbs and its cover; an R2 or R3 step tests every state not R1.

    R1 parents by new clause are in the order of ``parents``, clause count
    and then clause tuple (each adds one clause to the same tuple), and so
    are R2 parents by absorbed clauses, most first, then new clause, and R3
    parents by lower and higher new clause (each drops one clause for two,
    so all have one size): a clause one parent absorbs and the other keeps
    lies above a new clause of the first that the second lacks, so between
    two parents of one size the lowest state that differs is a new clause.
    No parent's table is read.
    """
    n1, n2 = len(r1), len(r1) + len(r2)
    if i < n1:
        m = r1.pop(i)
        new, added, retest = c | 1 << m, 1 << m, [*failed.items()]
    else:
        if i < n2:
            _, m = sorted([(-(c & above).bit_count(), m) for m, above in r2.items()])[i - n1]
            new, added = c & ~r2.pop(m) | 1 << m, 1 << m
        else:
            m1, m2 = sorted(r3)[i - n2]
            del failed[m1], failed[m2]
            added = 1 << m1 | 1 << m2
            new = c ^ 1 << (m1 | m2) | added
        retest, r2 = [*r2.items(), *failed.items()], {}
    t |= added
    retest += _raise_maxima(maxima, added, t)
    more, now_r2, failed = _parent_groups(new, p, retest)
    if more:
        r1 += more
        r1.sort()
    r2.update(now_r2)
    return new, t, r2, failed


def random_path(p: int, seed: int | None = None) -> list[FunctionShape]:
    """Uniform-upward random walk from the bottom shape to the top one.

    At each step one parent is chosen uniformly from the parent records in
    the order ``parents`` sorts them, by rule, clause count and clauses;
    only the pick becomes a shape.  The walk carries M(S), each state's up-set U(m)
    and its rule from step to step (`_take_parent`), and the clause list
    moves by the step's delta: an R1 step inserts one clause, an R2 or R3
    step drops the clauses it absorbs and inserts its one or two.
    Deterministic for a given seed; every consecutive pair is a covering
    edge.  Each shape carries its up-set, so `true_count`, `shape_table`
    and `parent_step` on the path read it (`shapes.up_table`): 2^p/8 bytes
    a shape on a path of about 2^p shapes.
    """
    rng = random.Random(seed)
    path = [inf_shape(p)]
    c = t = clause_table(path[0])  # the bottom's one clause is its up-set
    _carry_up(path[0], t)
    maxima = dict(_maxima(t, p))
    r1, r2, failed = _parent_groups(c, p, maxima.items())
    cls, states = list(path[0].clauses), _states(p)
    while maxima:  # empty at the top shape only
        r3 = _pairs(c, failed) if len(failed) > 1 else []
        i = rng.randrange(len(r1) + len(r2) + len(r3))
        new, t, r2, failed = _take_parent(i, c, t, p, maxima, r1, r2, failed, r3)
        moved, c = c ^ new, new
        while moved:
            x = moved.bit_length() - 1
            moved ^= 1 << x
            if c >> x & 1:
                insort(cls, states[x])
            else:
                del cls[bisect_left(cls, x)]
        path.append(_carry_up(FunctionShape._unchecked(p, tuple(cls)), t))
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
    for s in hd.shapes:
        ups = parents(s)
        for name, steps, want in (("parents", ups, hd.parents_of(s)),
                                  ("children", children(s), hd.children_of(s))):
            got = {st.shape for st in steps}
            if got != want:
                problems.append(f"{name}({s}): extra={sorted(map(str, got - want))} "
                                f"missing={sorted(map(str, want - got))}")
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
