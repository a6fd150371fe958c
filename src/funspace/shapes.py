"""Core value types for consistent regulatory Boolean functions.

A Boolean function of p regulators is *consistent* when every regulator is
essential and acts with a fixed sign: activators only ever turn the target
on, inhibitors only ever turn it off.  Such a function is determined, up to
the sign assignment, by the family of index sets of its irredundant DNF
clauses — an antichain of nonempty subsets of {1..p} whose union is all of
{1..p}.  We call that family the function's *shape*.

Shapes are ordered by clause refinement: ``S ⪯ S'`` iff every clause of S
contains some clause of S', equivalently the true sets satisfy
``T(S) ⊆ T(S')``.  The unique top is the shape of all singletons (OR of
all literals), the unique bottom the single full clause (AND of all
literals).

Representation conventions used everywhere in this package:

* a clause is an int bitmask; bit ``k-1`` stands for regulator ``k``;
* a state of the regulator space ``B^p`` is an int with the same layout;
* regulator indices are 1-based at the API surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from itertools import combinations
from operator import or_
from typing import Iterable, Iterator, Sequence

from .errors import (
    ArityMismatch,
    ArityTooLarge,
    EmptyClauseSet,
    ModelSyntaxError,
    NoActivators,
    NotAntichain,
    NotAutoregulated,
    NotConsistent,
    NotCover,
    ThresholdOutOfRange,
)

#: Largest supported regulator count for shape algebra.  Neighbour tables
#: have 2^p bits: at 16 `max_outside` takes 0.07 s, but neighbour lists are
#: bound by their size (`children(majority_rule(16, 8))`: 56 s, 1.3 GB).
MAX_ARITY = 16

POSITIVE = 1
NEGATIVE = -1

# Signature symbols (semantic codes; rendering is a separate concern).
OPERATIVE = "o"
NON_OPERATIVE = "n"
FREE = "*"


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask``, ascending, 0-based."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def clause_mask(indices: Iterable[int], p: int) -> int:
    """Pack 1-based regulator indices into a clause bitmask."""
    mask = 0
    for i in indices:
        if not 1 <= i <= p:
            raise ValueError(f"regulator index {i} outside 1..{p}")
        mask |= 1 << (i - 1)
    return mask


def clause_indices(mask: int) -> tuple[int, ...]:
    """Unpack a clause bitmask into sorted 1-based regulator indices."""
    return tuple(b + 1 for b in bits_of(mask))


def _is_subset(a: int, b: int) -> bool:
    return a & b == a


def _require_arity(p: int) -> None:
    if not 1 <= p <= MAX_ARITY:
        raise ArityTooLarge(f"arity {p} outside 1..{MAX_ARITY}")


def _covers(clauses: Iterable[int], p: int) -> bool:
    """Does every regulator 1..p appear in some clause?"""
    return reduce(or_, clauses, 0) == (1 << p) - 1


@dataclass(frozen=True)
class FunctionShape:
    """Antichain cover of {1..p}: the clause index sets of one function.

    ``clauses`` holds bitmasks in strictly increasing numeric order, which
    makes equality and hashing structural.  Instances are validated on
    construction; use :func:`make_shape` / :func:`minimize` for index-set
    input.
    """

    arity: int
    clauses: tuple[int, ...]

    def __post_init__(self) -> None:
        p, cls = self.arity, self.clauses
        _require_arity(p)
        if not cls:
            raise EmptyClauseSet("a shape needs at least one clause")
        full = (1 << p) - 1
        prev = 0
        for c in cls:
            if c == 0:
                raise EmptyClauseSet("empty clause")
            if c > full:
                raise ValueError(f"clause {c:#x} uses regulators beyond {p}")
            if c <= prev:
                raise ValueError("clauses must be strictly increasing masks")
            prev = c
        if not _covers(cls, p):
            missing = clause_indices(full & ~reduce(or_, cls))
            raise NotCover(f"regulators {missing} appear in no clause")
        for a, b in combinations(cls, 2):
            if _is_subset(a, b) or _is_subset(b, a):
                raise NotAntichain(
                    f"clauses {set(clause_indices(a))} and "
                    f"{set(clause_indices(b))} are comparable"
                )

    @classmethod
    def _unchecked(cls, arity: int, clauses: tuple[int, ...]) -> "FunctionShape":
        """Fast path for callers that guarantee validity by construction."""
        obj = object.__new__(cls)
        attrs = obj.__dict__  # frozen: fields go in without __setattr__
        attrs["arity"] = arity
        attrs["clauses"] = clauses
        return obj

    def index_sets(self) -> tuple[tuple[int, ...], ...]:
        """Clauses as 1-based index tuples, in display order (size, lex)."""
        sets = [clause_indices(c) for c in self.clauses]
        sets.sort(key=lambda s: (len(s), s))
        return tuple(sets)

    @property
    def n_clauses(self) -> int:
        return len(self.clauses)

    def __str__(self) -> str:
        inner = ",".join("{" + ",".join(map(str, s)) + "}" for s in self.index_sets())
        return "{" + inner + "}"

    def sort_key(self) -> tuple:
        """Deterministic ordering key for reports and canonical listings."""
        return (self.arity, len(self.clauses), self.clauses)


def make_shape(clauses: Iterable[Iterable[int]], p: int) -> FunctionShape:
    """Build a shape from 1-based index sets; reject anything invalid.

    Unlike :func:`minimize` this refuses redundant (absorbable) clauses,
    so it is the strict constructor for data that claims to already be an
    antichain cover.
    """
    masks = sorted({clause_mask(c, p) for c in clauses})
    return FunctionShape(p, tuple(masks))


def minimize(clauses: Iterable[Iterable[int]], p: int) -> FunctionShape:
    """Build a shape from arbitrary DNF clause sets, absorbing supersets.

    Keeps the inclusion-minimal clauses, then validates the cover
    condition (every regulator essential).
    """
    masks = sorted({clause_mask(c, p) for c in clauses}, key=lambda m: (m.bit_count(), m))
    kept: list[int] = []
    for m in masks:
        if not any(_is_subset(k, m) for k in kept):
            kept.append(m)
    return FunctionShape(p, tuple(sorted(kept)))


def sup_shape(p: int) -> FunctionShape:
    """Top of the order: one singleton clause per regulator (OR of all)."""
    _require_arity(p)
    return FunctionShape._unchecked(p, tuple(1 << k for k in range(p)))


def inf_shape(p: int) -> FunctionShape:
    """Bottom of the order: the single full clause (AND of all)."""
    _require_arity(p)
    return FunctionShape._unchecked(p, ((1 << p) - 1,))


def majority_rule(p: int, r: int) -> FunctionShape:
    """All size-r clauses: true when at least r of p literals are satisfied."""
    if not 1 <= r <= p:
        raise ThresholdOutOfRange(f"threshold {r} outside 1..{p}")
    _require_arity(p)
    masks = sorted(clause_mask(c, p) for c in combinations(range(1, p + 1), r))
    return FunctionShape._unchecked(p, tuple(masks))


def shape_leq(a: FunctionShape, b: FunctionShape) -> bool:
    """Order test: ``a ⪯ b`` iff every clause of ``a`` contains a clause of ``b``.

    Equivalent to true-set containment T(a) ⊆ T(b).
    """
    if a.arity != b.arity:
        raise ArityMismatch(f"cannot compare arity {a.arity} with {b.arity}")
    return all(any(_is_subset(cb, ca) for cb in b.clauses) for ca in a.clauses)


def shape_lt(a: FunctionShape, b: FunctionShape) -> bool:
    return a != b and shape_leq(a, b)


# ---------------------------------------------------------------------------
# Regulator contexts and evaluation


@dataclass(frozen=True)
class RegulatorContext:
    """Sign assignment for a target's regulators, plus autoregulation info.

    ``signs[k-1]`` is +1 (activator) or -1 (inhibitor) for regulator k.
    ``self_index`` is the 1-based position of the target itself among its
    regulators, or None when it is not autoregulated.
    """

    signs: tuple[int, ...]
    self_index: int | None = None

    def __post_init__(self) -> None:
        if not self.signs:
            raise ArityMismatch("a context needs at least one regulator")
        if len(self.signs) > MAX_ARITY:
            raise ArityTooLarge(f"arity {len(self.signs)} outside 1..{MAX_ARITY}")
        if any(s not in (POSITIVE, NEGATIVE) for s in self.signs):
            raise ValueError("signs must be +1 or -1")
        if self.self_index is not None and not 1 <= self.self_index <= len(self.signs):
            raise ValueError(f"self_index {self.self_index} outside 1..{len(self.signs)}")
        # Not a field, so equality, hashing and repr never read it.
        self.__dict__["_neg_mask"] = sum(1 << k for k, s in enumerate(self.signs) if s == NEGATIVE)

    @property
    def arity(self) -> int:
        return len(self.signs)

    @property
    def neg_mask(self) -> int:
        """Bitmask of inhibitor positions, computed once, on construction."""
        return self._neg_mask

    @property
    def pos_mask(self) -> int:
        return ((1 << self.arity) - 1) ^ self.neg_mask

    def self_sign(self) -> int:
        if self.self_index is None:
            raise NotAutoregulated("context has no self regulator")
        return self.signs[self.self_index - 1]

    def all_operative_state(self) -> int:
        """State where every literal is satisfied (activators 1, inhibitors 0)."""
        return self.pos_mask

    def all_non_operative_state(self) -> int:
        """State where no literal is satisfied."""
        return self.neg_mask

    @classmethod
    def from_str(cls, text: str, self_index: int | None = None) -> "RegulatorContext":
        """Parse a sign string like ``"++-"`` (position k = regulator k)."""
        table = {"+": POSITIVE, "-": NEGATIVE}
        try:
            signs = tuple(table[ch] for ch in text)
        except KeyError as exc:
            raise ValueError(f"bad sign character {exc.args[0]!r}") from None
        return cls(signs, self_index)

    @classmethod
    def all_positive(cls, p: int, self_index: int | None = None) -> "RegulatorContext":
        return cls((POSITIVE,) * p, self_index)

    def __str__(self) -> str:
        return "".join("+" if s == POSITIVE else "-" for s in self.signs)


def _require_same_arity(shape: FunctionShape, ctx: RegulatorContext) -> None:
    if shape.arity != ctx.arity:
        raise ArityMismatch(
            f"shape arity {shape.arity} != context arity {ctx.arity}"
        )


def evaluate(shape: FunctionShape, ctx: RegulatorContext, state: int) -> bool:
    """Evaluate the function at a regulator state (bit k-1 = regulator k).

    XOR-ing with the inhibitor mask turns the state into a satisfied-literal
    mask, after which each clause is a plain subset check.
    """
    _require_same_arity(shape, ctx)
    lits = state ^ ctx.neg_mask
    return any(c & lits == c for c in shape.clauses)


# ---------------------------------------------------------------------------
# The clause evaluator.  A clause family compiled against a state space is a
# tuple of (ones, zeros) masks: a clause holds where all of ``ones`` is set
# and all of ``zeros`` is clear.  ``evaluate`` above stays separate on
# purpose: it is the independent reference the tests hold these against.


def compile_clauses(
    shape: FunctionShape, ctx: RegulatorContext, positions: Sequence[int] | None = None
) -> tuple[tuple[int, int], ...]:
    """The shape's clauses as (must-be-1, must-be-0) masks under ``ctx``.

    Regulator k reads state bit ``positions[k-1]``; by default bit k-1, so
    the state space is B^p itself.
    """
    _require_same_arity(shape, ctx)
    neg = ctx.neg_mask
    # Lists, not generators, feed tuple(): on CPython 3.11, tuples grown from
    # generators call after call ratchet up the resident memory.
    local = tuple([(c & ~neg, c & neg) for c in shape.clauses])
    if positions is None:
        return local

    def place(mask: int) -> int:
        return reduce(or_, [1 << positions[k] for k in bits_of(mask)], 0)

    return tuple([(place(ones), place(zeros)) for ones, zeros in local])


def holds(clauses: tuple[tuple[int, int], ...], state: int) -> bool:
    """Point test: does some compiled clause hold at ``state``?"""
    for ones, zeros in clauses:
        if state & ones == ones and not state & zeros:
            return True
    return False


def variable_table(j: int, n: int) -> int:
    """Bit s is set iff state s has bit j set, for every s < 2^n.

    Built by doubling one period (2^j zeros, then 2^j ones), which stays
    linear in 2^n; big-int division is quadratic in CPython and takes over
    a minute at n = 23.
    """
    half = 1 << j
    v = ((1 << half) - 1) << half
    w = half << 1
    while w < 1 << n:
        v |= v << w
        w <<= 1
    return v


def truth_table(clauses: tuple[tuple[int, int], ...], n: int) -> int:
    """Whole-space test: bit s is set iff ``holds(clauses, s)``, for s < 2^n."""
    full = (1 << (1 << n)) - 1
    var: dict[int, int] = {}
    table = 0
    for ones, zeros in clauses:
        t = full
        for j in bits_of(ones | zeros):
            if j not in var:
                var[j] = variable_table(j, n)
            t &= var[j] if ones >> j & 1 else ~var[j]
        table |= t
    return table


@cache
def variable_tables(p: int) -> tuple[int, ...]:
    """``variable_table(k, p)`` for every k < p, built once per shape arity
    (networks call :func:`variable_table`: their tables reach 2^23 bits)."""
    _require_arity(p)
    return tuple([variable_table(k, p) for k in range(p)])


def up_closure(table: int, p: int) -> int:
    """The up-set generated by a 2^p-bit table: per regulator k, every
    state without k passes its bit on to the state with k switched on."""
    for k, v in enumerate(variable_tables(p)):
        table |= (table & ~v) << (1 << k)
    return table


def minimal_elements(table: int, p: int) -> int:
    """States of a 2^p-bit table with no one-bit-smaller state in it: the
    minimal elements of an up-set, or of one less some minimal states."""
    above = 0
    for k, v in enumerate(variable_tables(p)):
        above |= (table & ~v) << (1 << k)
    return table & ~above


def table_states(table: int) -> list[int]:
    """The set bits of a truth table, ascending, in one linear pass.

    :func:`bits_of` is faster on clause masks, but on a 2^n-bit table it
    copies the whole int once per set bit.
    """
    digits = bin(table)[:1:-1]
    out = []
    k = digits.find("1")
    while k >= 0:
        out.append(k)
        k = digits.find("1", k + 1)
    return out


def clause_table(shape: FunctionShape) -> int:
    """The 2^p-bit table with bit c set for every clause c, parsed from
    binary digits (summing ``1 << c`` is quadratic in the table size)."""
    digits = bytearray(b"0" * (1 << shape.arity))
    for c in shape.clauses:
        digits[~c] = 49  # ord("1"); bit c is the c-th digit from the right
    return int(digits, 2)


def up_table(shape: FunctionShape) -> int:
    """T(S), the up-closure of the clause table (the all-positive true set).

    Shapes on a `random_path` carry the table the walk already held
    (`_carry_up`); for any other shape it is computed here and not kept.
    """
    t = shape.__dict__.get("_up")
    return up_closure(clause_table(shape), shape.arity) if t is None else t


def _carry_up(shape: FunctionShape, table: int) -> FunctionShape:
    """Store ``table`` = T(shape) for `up_table`; equality, hashing and
    repr read the fields alone, so the shape still equals one without it."""
    shape.__dict__["_up"] = table
    return shape


def shape_table(shape: FunctionShape, ctx: RegulatorContext) -> int:
    """Bit s set iff the function holds at s: the up-closure of the clause
    table (`up_table`) with the halves swapped across each inhibitor's bit."""
    _require_same_arity(shape, ctx)
    p = shape.arity
    table = up_table(shape)
    var = variable_tables(p)
    for k in bits_of(ctx.neg_mask):
        table = (table & var[k]) >> (1 << k) | (table & ~var[k]) << (1 << k)
    return table


def true_states(shape: FunctionShape, ctx: RegulatorContext) -> frozenset[int]:
    """The function's true set T(f) ⊆ B^p."""
    return frozenset(table_states(shape_table(shape, ctx)))


def true_count(shape: FunctionShape) -> int:
    """|T(f)| — sign-independent, so counted in the all-positive reading:
    `up_table`, the table a walk stored on the shape or one computed for
    this call and not kept."""
    return up_table(shape).bit_count()


def is_consistent(table: Sequence[bool] | Sequence[int], ctx: RegulatorContext) -> bool:
    """Does a full truth table define a consistent function for these signs?

    ``table[s]`` is the value at state ``s`` (bitmask index).  Checks
    sign-monotonicity (flipping regulator k towards its sign never turns
    the function off) and essentiality of every regulator, plus
    nondegeneracy (not constant).
    """
    try:
        shape_from_truth_table(table, ctx)
    except NotConsistent:
        return False
    return True


def shape_from_truth_table(
    table: Sequence[bool] | Sequence[int], ctx: RegulatorContext
) -> FunctionShape:
    """Recover the shape of a consistent truth table; raise NotConsistent otherwise."""
    p = ctx.arity
    size = 1 << p
    if len(table) != size:
        raise ArityMismatch(f"table has {len(table)} entries, expected {size}")
    neg = ctx.neg_mask
    # Work in literal space: lit = state ^ neg must make the function monotone.
    lits = sum(1 << (s ^ neg) for s in range(size) if table[s])
    for k, v in enumerate(variable_tables(p)):
        if (lits & ~v) << (1 << k) & ~lits:
            raise NotConsistent(f"regulator {k + 1} acts against its declared sign")
    minimal = table_states(minimal_elements(lits, p))  # the clauses
    if not minimal:
        raise NotConsistent("constant false")
    if minimal == [0]:
        raise NotConsistent("constant true")
    if not _covers(minimal, p):
        idle = clause_indices((size - 1) & ~reduce(or_, minimal))
        raise NotConsistent(f"regulators {idle} are not essential")
    # minimal elements are an ascending antichain of non-zero states
    return FunctionShape._unchecked(p, tuple(minimal))


# ---------------------------------------------------------------------------
# Clause signatures


@dataclass(frozen=True)
class Signature:
    """Per-regulator symbol vector describing one clause's state set.

    Symbols: OPERATIVE (clause member, literal satisfied), FREE (regulator
    unconstrained).  NON_OPERATIVE appears in state signatures such as the
    all-non-operative corner, not in clause signatures.  A signature of a
    p-regulator clause with f free positions denotes a subspace of 2^f
    states.
    """

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if any(s not in (OPERATIVE, NON_OPERATIVE, FREE) for s in self.symbols):
            raise ValueError("signature symbols must be OPERATIVE/NON_OPERATIVE/FREE")

    @property
    def arity(self) -> int:
        return len(self.symbols)

    def pattern(self, ctx: RegulatorContext) -> str:
        """State pattern per position: '1'/'0' for fixed values, '*' free.

        This is the normative rendering: an operative activator is 1, an
        operative inhibitor is 0 (and dually for non-operative).
        """
        if ctx.arity != self.arity:
            raise ArityMismatch("context arity differs from signature arity")
        out = []
        for sym, sign in zip(self.symbols, ctx.signs):
            if sym == FREE:
                out.append("*")
            elif sym == OPERATIVE:
                out.append("1" if sign == POSITIVE else "0")
            else:
                out.append("0" if sign == POSITIVE else "1")
        return "".join(out)

    def states(self, ctx: RegulatorContext) -> Iterator[int]:
        """Expand the signature into its regulator states, ascending."""
        pat = self.pattern(ctx)
        ones = sum(1 << k for k, ch in enumerate(pat) if ch == "1")
        zeros = sum(1 << k for k, ch in enumerate(pat) if ch == "0")
        return iter(table_states(truth_table(((ones, zeros),), self.arity)))

    def render(self, ctx: RegulatorContext | None = None,
               operative: str = "o", inhibitor_operative: str = "ō",
               free: str = "★") -> str:
        """Display string.  With a context, operative inhibitor positions use
        ``inhibitor_operative`` (display convention only; see ``pattern`` for
        the normative reading)."""
        out = []
        for k, sym in enumerate(self.symbols):
            if sym == FREE:
                out.append(free)
            elif sym == OPERATIVE:
                if ctx is not None and ctx.signs[k] == NEGATIVE:
                    out.append(inhibitor_operative)
                else:
                    out.append(operative)
            else:
                out.append("¬" + operative)
        return "(" + ",".join(out) + ")"


def signatures(shape: FunctionShape, ctx: RegulatorContext) -> tuple[Signature, ...]:
    """One signature per clause, aligned with ``shape.clauses`` order."""
    _require_same_arity(shape, ctx)
    return tuple(Signature(tuple(OPERATIVE if c & (1 << k) else FREE for k in range(shape.arity)))
                 for c in shape.clauses)


# ---------------------------------------------------------------------------
# Levels


def level(shape: FunctionShape) -> tuple[int, ...]:
    """Subspace dimensions of the clause signatures, sorted non-increasing.

    A clause of size s in a p-regulator shape leaves p − s regulators free.
    """
    dims = sorted((shape.arity - c.bit_count() for c in shape.clauses), reverse=True)
    return tuple(dims)


def level_leq(a: Sequence[int], b: Sequence[int]) -> bool:
    """Total order on levels: lexicographic, ties broken by length.

    At the first index where the tuples differ the smaller entry loses;
    with one a prefix of the other, the shorter one is lower or equal.
    """
    for x, y in zip(a, b):
        if x != y:
            return x < y
    return len(a) <= len(b)


def no_inhibitors(ctx: RegulatorContext) -> FunctionShape:
    """Shape of the no-inhibitors reference function for a sign context.

    One clause per activator a: {a} ∪ (all inhibitors); the target turns on
    when some activator is present and every inhibitor absent.  Requires at
    least one activator.
    """
    pos = [k for k, s in enumerate(ctx.signs) if s == POSITIVE]
    if not pos:
        raise NoActivators("no-inhibitors function needs at least one activator")
    neg = ctx.neg_mask
    masks = sorted((1 << a) | neg for a in pos)
    return FunctionShape(ctx.arity, tuple(masks))


# ---------------------------------------------------------------------------
# States of component spaces (shared by dynamics and the CLI)


def state_to_string(state: int, n: int) -> str:
    """Render a state mask with component 1 leftmost."""
    return "".join("1" if state & (1 << k) else "0" for k in range(n))


def state_from_string(text: str) -> int:
    """Parse a component-1-leftmost 0/1 string into a state mask."""
    state = 0
    for k, ch in enumerate(text):
        if ch == "1":
            state |= 1 << k
        elif ch != "0":
            raise ModelSyntaxError(f"bad state character {ch!r}")
    return state
