"""Core value types for consistent regulatory Boolean functions.

A Boolean function of p regulators is *consistent* when every regulator is
essential and acts with a fixed sign: activators only ever turn the target
on, inhibitors only ever turn it off.  Such a function is determined, up to
the sign assignment, by the family of index sets of its irredundant DNF
clauses — an antichain of nonempty subsets of {1..p} whose union is all of
{1..p}.  We call that family the function's *shape*.

Shapes are ordered by clause refinement: ``S ⪯ S'`` iff every clause of S
contains some clause of S', equivalently the true sets satisfy
``T(S) ⊆ T(S')``, which is how it is tested: on 2^p-bit tables (bit s
for state s).  Antichain and cover are tested by clause count: a few
clauses pairwise, more on such a table.  The unique top is the shape
of all singletons (OR of all literals), the unique bottom the single
full clause (AND of all literals).

Representation conventions used everywhere in this package:

* a clause is an int bitmask; bit ``k-1`` stands for regulator ``k``;
* a state of the regulator space ``B^p`` is an int with the same layout;
* regulator indices are 1-based at the API surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from itertools import combinations, compress
from operator import or_
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    ArityMismatch,
    ArityTooLarge,
    EmptyClauseSet,
    InvalidArgument,
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
#: bound by their size (`children(majority_rule(16, 8))`: 3.4 s, 1.3 GB).
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
            raise InvalidArgument(f"regulator index {i} outside 1..{p}")
        mask |= 1 << (i - 1)
    return mask


def clause_indices(mask: int) -> tuple[int, ...]:
    """Unpack a clause bitmask into sorted 1-based regulator indices."""
    return tuple(b + 1 for b in bits_of(mask))


def _require_arity(p: int) -> None:
    if not 1 <= p <= MAX_ARITY:
        raise ArityTooLarge(f"arity {p} outside 1..{MAX_ARITY}")


@dataclass(frozen=True)
class FunctionShape:
    """Antichain cover of {1..p}: the clause index sets of one function.

    ``clauses`` holds bitmasks in strictly increasing numeric order, which
    makes equality and hashing structural.  Instances are validated on
    construction (`_minimal_cover`); use :func:`make_shape` /
    :func:`minimize` for index-set input.
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
                raise InvalidArgument(f"clause {c:#x} uses regulators beyond {p}")
            if c <= prev:
                raise InvalidArgument("clauses must be strictly increasing masks")
            prev = c
        kept, missing = _minimal_cover(cls, p)
        if len(kept) < len(cls):  # NotCover first, tested on all the clauses
            missing = full & ~reduce(or_, cls)
        if missing:
            raise NotCover(f"regulators {clause_indices(missing)} appear in no clause")
        if len(kept) < len(cls):
            # the pair a < b a pairwise scan meets first: the lowest clause
            # under a non-minimal one, and the lowest non-minimal one over it
            upper = sorted(set(cls).difference(kept))
            a, b = next((a, b) for a in cls for b in upper if a != b and a & b == a)
            raise NotAntichain(f"clauses {set(clause_indices(a))} and "
                               f"{set(clause_indices(b))} are comparable")

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

    Keeps the minimal elements of the clauses' up-closure, then validates
    the cover condition (every regulator essential).
    """
    return _minimal_shape((clause_mask(c, p) for c in clauses), p)


#: Clause count up to which `_minimal_cover` compares clauses pairwise; a
#: larger family is read off one 2^p-bit table.  The scan grows with the
#: square of the count, the table with 2^p.  Scan against table in µs per
#: family of distinct masks drawn from the middle layer (Python 3.11,
#: 2-vCPU VM): at 8 clauses 1.5 / 5.0 at p = 8 and 3.1 / 471 at p = 16;
#: at 16 clauses 3.9 / 4.1 at p = 6 and 4.2 / 5.2 at p = 8; at 32 clauses
#: 12.4 / 6.0 at p = 8.
PAIRWISE_CLAUSES = 8


def _minimal_cover(masks: Sequence[int], p: int) -> tuple[Sequence[int], int]:
    """The minimal elements of an ascending family of distinct clause
    masks, ascending, and the mask of the regulators that none of them
    holds.  Up to `PAIRWISE_CLAUSES` masks, a mask is kept unless one kept
    before it (a smaller number) is its subset; past that, the minimal
    elements are read off the masks' 2^p-bit table and its up-closure.
    """
    if len(masks) > PAIRWISE_CLAUSES:
        table = _mask_table(masks, p)
        minimal = minimal_elements(up_closure(table, p), p)
        missing = sum([1 << k for k, v in enumerate(variable_tables(p)) if not minimal & v])
        return masks if minimal == table else table_states(minimal), missing
    kept: list[int] = []
    held = 0
    for m in masks:
        for k in kept:
            if k & m == k:
                break
        else:
            kept.append(m)
            held |= m
    return kept, ((1 << p) - 1) & ~held


def _minimal_shape(masks: Iterable[int], p: int) -> FunctionShape:
    """:func:`minimize` on clause bitmasks: the arity check, then their
    minimal elements (`_minimal_cover`), refused unless they cover 1..p."""
    _require_arity(p)  # before the masks and any 2^p-digit table
    kept, missing = _minimal_cover(sorted(set(masks)), p)
    if not kept or not kept[0]:  # no clause, or the empty one, which absorbs all others
        raise EmptyClauseSet("empty clause" if kept else "a shape needs at least one clause")
    if missing:
        raise NotCover(f"regulators {clause_indices(missing)} appear in no clause")
    return FunctionShape._unchecked(p, tuple(kept))  # an antichain cover


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

    Equivalent to true-set containment T(a) ⊆ T(b), which is what runs.
    """
    if a.arity != b.arity:
        raise ArityMismatch(f"cannot compare arity {a.arity} with {b.arity}")
    return not up_table(a) & ~up_table(b)


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
            raise InvalidArgument("signs must be +1 or -1")
        if self.self_index is not None and not 1 <= self.self_index <= len(self.signs):
            raise InvalidArgument(f"self_index {self.self_index} outside 1..{len(self.signs)}")
        # Not a field, so equality, hashing and repr never read it.
        self.__dict__["_neg_mask"] = sum(1 << k for k, s in enumerate(self.signs) if s == NEGATIVE)

    @classmethod
    def _unchecked(cls, signs: tuple[int, ...], self_index: int | None,
                   neg_mask: int) -> "RegulatorContext":
        """Fast path for callers that guarantee validity by construction and
        hand in the inhibitor mask of ``signs``."""
        obj = object.__new__(cls)
        obj.__dict__.update(signs=signs, self_index=self_index, _neg_mask=neg_mask)
        return obj

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
            raise InvalidArgument(f"bad sign character {exc.args[0]!r}") from None
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
# Whole-space truth tables.  ``truth_table`` puts a clause family on a state
# space; ``evaluate`` above stays separate on purpose: it is the independent
# reference the tests hold tables against.


def variable_table(j: int, n: int) -> int:
    """Bit s is set iff state s has bit j set, for every s < 2^n.

    Up to ``MAX_ARITY`` regulators or components the table comes from
    :func:`variable_tables`, built once per n (at most 8 KB a table, about
    245 KB for every n up to 16).  Larger n are built per call and not
    kept: caching the 23 tables of the 23-component T-helper model raised
    the peak RSS of ``funspace stg`` on it from 92.5 to 116 MB (async) and
    from 114 to 138 MB (sync; 2-vCPU VM, Python 3.11).
    """
    if n <= MAX_ARITY:
        return variable_tables(n)[j]
    return _doubled_variable_table(j, n)


def _doubled_variable_table(j: int, n: int) -> int:
    """:func:`variable_table` built by doubling one period (2^j zeros, then
    2^j ones), which stays linear in 2^n; big-int division is quadratic in
    CPython and takes over a minute at n = 23."""
    half = 1 << j
    v = ((1 << half) - 1) << half
    w = half << 1
    while w < 1 << n:
        v |= v << w
        w <<= 1
    return v


def truth_table(
    shape: FunctionShape, ctx: RegulatorContext, positions: Sequence[int | None], n: int,
    fixed: Mapping[int, bool] | None = None,
) -> int:
    """Bit s is set iff the function holds at state s, for every s < 2^n.

    Regulator k reads state bit ``positions[k-1]``.  Its literal table is
    that bit's variable table, complemented for an inhibitor; a clause is
    the AND of its literals' tables and the function the OR of its clauses.
    ``fixed`` maps k-1 to a value for regulators held constant: such a
    regulator reads no bit (its ``positions`` entry is None), and its
    literal table is all ones where the literal holds at that value, else 0.
    """
    _require_same_arity(shape, ctx)
    full = (1 << (1 << n)) - 1
    lits = [variable_table(j, n) ^ (full if sign == NEGATIVE else 0) if j is not None
            else full if fixed[k] != (sign == NEGATIVE) else 0
            for k, (j, sign) in enumerate(zip(positions, ctx.signs, strict=True))]
    table = 0
    for c in shape.clauses:
        t = full
        for k in bits_of(c):
            t &= lits[k]
        table |= t
    return table


@cache
def variable_tables(p: int) -> tuple[int, ...]:
    """The variable table of every k < p, built once per size p up to
    ``MAX_ARITY``: shape tables over 2^p regulator states, and
    :func:`variable_table` for network state spaces of up to 16 components."""
    _require_arity(p)
    return tuple([_doubled_variable_table(k, p) for k in range(p)])


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


_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def table_states(table: int) -> list[int]:
    """The set bits of a truth table, ascending, in one linear pass.

    A table with more than one bit set in 16 is read in one C pass
    (`compress` over its digits as 0/1 bytes); a sparser one by a
    `str.find` per set bit, which skips its zeros faster.  From 2^6 to
    2^20 bits the two meet at about one bit in 12.  :func:`bits_of` is
    faster on clause masks, but on a 2^n-bit table it copies the whole
    int once per set bit.
    """
    if table.bit_count() << 4 > table.bit_length():
        digits = bin(table).encode()[:1:-1].translate(_DIGIT_BYTES)
        return list(compress(range(len(digits)), digits))
    digits = bin(table)[:1:-1]
    out = []
    k = digits.find("1")
    while k >= 0:
        out.append(k)
        k = digits.find("1", k + 1)
    return out


def _mask_table(masks: Iterable[int], p: int) -> int:
    """The 2^p-bit table with bit c set for every mask c, parsed from
    binary digits (summing ``1 << c`` is quadratic in the table size)."""
    digits = bytearray(b"0" * (1 << p))
    for c in masks:
        digits[~c] = 49  # ord("1"); bit c is the c-th digit from the right
    return int(digits, 2)


def clause_table(shape: FunctionShape) -> int:
    """The 2^p-bit table with bit c set for every clause c."""
    return _mask_table(shape.clauses, shape.arity)


def _covering(table: int, p: int) -> bool:
    """Does a clause table use every regulator?"""
    for v in variable_tables(p):  # a loop: twice as fast as all(map(...)) at p = 5
        if not table & v:
            return False
    return True


def up_table(shape: FunctionShape) -> int:
    """T(S), the up-closure of the clause table (the all-positive true set).

    Shapes on a `random_path` carry the table the walk already held
    (`_carry_up`), and so does a shape passed to `parents`, `children`,
    `siblings` or `hasse_slice`, which build it for its neighbours; for
    any other shape it is computed here and not kept.
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
    lits = _mask_table([s ^ neg for s in range(size) if table[s]], p)
    for k, v in enumerate(variable_tables(p)):
        if (lits & ~v) << (1 << k) & ~lits:
            raise NotConsistent(f"regulator {k + 1} acts against its declared sign")
    minimal = table_states(clauses := minimal_elements(lits, p))
    if not minimal:
        raise NotConsistent("constant false")
    if minimal == [0]:
        raise NotConsistent("constant true")
    if not _covering(clauses, p):
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
            raise InvalidArgument("signature symbols must be OPERATIVE/NON_OPERATIVE/FREE")

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
        cube = (1 << (1 << self.arity)) - 1
        for ch, v in zip(self.pattern(ctx), variable_tables(self.arity)):
            if ch != "*":
                cube &= v if ch == "1" else ~v
        return iter(table_states(cube))

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
    return FunctionShape._unchecked(ctx.arity, tuple(masks))  # an antichain cover


# ---------------------------------------------------------------------------
# States of component spaces (shared by dynamics and the CLI)


def state_to_string(state: int, n: int) -> str:
    """Render a state mask with component 1 leftmost; bits past n are dropped."""
    return format(state, f"0{n}b")[::-1][:n]


def _state_text(n: int) -> Callable[[int], str]:
    """:func:`state_to_string` for states of n components, from two
    half-width string tables: two lookups and a join a state, for the
    edge lines of large graphs (4,096 + 8,192 strings at n = 25)."""
    h = n // 2
    low = [state_to_string(x, h) for x in range(1 << h)]
    high = [state_to_string(x, n - h) for x in range(1 << (n - h))]
    mask = (1 << h) - 1
    return lambda s: low[s & mask] + high[s >> h]


def state_from_string(text: str) -> int:
    """Parse a component-1-leftmost 0/1 string into a state mask."""
    if bad := text.strip("01"):
        raise ModelSyntaxError(f"bad state character {bad[0]!r}")
    return int(text[::-1] or "0", 2)
