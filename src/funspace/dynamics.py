"""State-transition dynamics of Boolean networks built from shapes.

A network is a list of components, each either a constant (an input) or a
consistent function of some of the other components (possibly itself).
Network states are int bitmasks, bit i = component i (0-based); rendering
uses component 1 leftmost via :func:`funspace.shapes.state_to_string`.

Two update schemes: asynchronous (one component flips per transition; the
union over components gives the transition graph) and synchronous (all
components update together).  A graph is held as the components' 2^n-bit
truth tables: stable states, edge counts and async attractors are bitwise
operations on whole-space sets, sync attractors are set images of the
update map, and only sync cycles and the edge list walk states one by one.
Self-loops are never counted: stable states are the nodes without out-edges.

The second half of the module counts a single component's increasing and
decreasing transitions — the quantity governed by structural bounds that
depend only on whether the target regulates itself and with which sign —
and walks those counts along upward paths in the function order.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import (
    ArityMismatch,
    NotAChain,
    NotAutoregulated,
    SingleRegulator,
    StateSpaceTooLarge,
)
from .neighborhood import parent_step
from .shapes import (
    FunctionShape,
    RegulatorContext,
    bits_of,
    compile_clauses,
    holds,
    make_shape,
    shape_table,
    table_states,
    true_count,
    truth_table,
    variable_table,
    variable_tables,
)

#: Refuse graphs over more than 2**25 states by default (a 2^n-bit table
#: per component: 4 MB each at n = 25).
DEFAULT_STATE_LIMIT = 25


@dataclass(frozen=True)
class Component:
    """One network component: a named constant or a signed function.

    ``regulators`` lists regulator positions as indices into the network's
    component tuple, in the same order as ``ctx.signs`` and the shape's
    1-based clause indices.  For constants, ``shape``/``ctx`` are None and
    ``constant`` holds the value.

    ``compiled`` is the function compiled once against network state bits
    (see :func:`funspace.shapes.compile_clauses`); a constant compiles to
    one empty clause (true) or to no clause at all (false).
    """

    name: str
    regulators: tuple[int, ...] = ()
    shape: FunctionShape | None = None
    ctx: RegulatorContext | None = None
    constant: bool | None = None
    compiled: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.shape is None:
            if self.constant is None or self.regulators or self.ctx is not None:
                raise ValueError(f"component {self.name}: constants take no regulators")
            object.__setattr__(self, "compiled", ((0, 0),) if self.constant else ())
        else:
            if self.ctx is None or self.constant is not None:
                raise ValueError(f"component {self.name}: function needs a context")
            if len(self.regulators) != self.shape.arity:
                raise ArityMismatch(
                    f"component {self.name}: {len(self.regulators)} regulators "
                    f"for an arity-{self.shape.arity} shape"
                )
            if self.ctx.arity != self.shape.arity:
                raise ArityMismatch(f"component {self.name}: context arity differs")
            if len(set(self.regulators)) != len(self.regulators):
                raise ValueError(f"component {self.name}: repeated regulator")
            object.__setattr__(
                self, "compiled", compile_clauses(self.shape, self.ctx, self.regulators)
            )


@dataclass(frozen=True)
class BooleanNetwork:
    components: tuple[Component, ...]

    def __post_init__(self) -> None:
        names = [c.name for c in self.components]
        if len(set(names)) != len(names):
            raise ValueError("duplicate component names")
        n = len(self.components)
        for i, c in enumerate(self.components):
            for r in c.regulators:
                if not 0 <= r < n:
                    raise ValueError(f"component {c.name}: regulator index {r} out of range")
            if c.ctx is not None:
                # self_index must agree with the regulator list.
                want = c.regulators.index(i) + 1 if i in c.regulators else None
                if c.ctx.self_index != want:
                    raise ValueError(
                        f"component {c.name}: self_index {c.ctx.self_index} "
                        f"inconsistent with regulators (expected {want})"
                    )

    @property
    def n(self) -> int:
        return len(self.components)

    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.components)

    def index(self, name: str) -> int:
        for i, c in enumerate(self.components):
            if c.name == name:
                return i
        raise KeyError(name)

    def component_value(self, i: int, state: int) -> bool:
        return holds(self.components[i].compiled, state)

    def step_sync(self, state: int) -> int:
        nxt = 0
        for i, c in enumerate(self.components):
            if holds(c.compiled, state):
                nxt |= 1 << i
        return nxt


def _check_limit(n: int, limit: int) -> None:
    if n > limit:
        raise StateSpaceTooLarge(
            f"{n} components exceed the {limit}-component state-space limit"
        )


def _closure(x: int, moves: list[tuple[int, int, int]], forward: bool) -> int:
    """The states x reaches (``forward``) or that reach x, as a 2^n-bit set.
    A move (w, up, down) is an edge s -> s + w for each bit s of ``up`` and
    s -> s - w for each bit s of ``down``; sweeps stop when one adds nothing."""
    while True:
        y = x
        for w, up, down in moves:
            if forward:
                y |= (y & up) << w | (y & down) >> w
            else:
                y |= (y >> w) & up | (y << w) & down
        if y == x:
            return x
        x = y


#: Table digits "0"/"1" to 0 or the bit of component i % 8 in its byte lane.
_LANE = [bytes.maketrans(b"01", bytes((0, 1 << i))) for i in range(8)]


@dataclass(frozen=True)
class STG:
    """A state-transition graph over the states 0..2^n-1: ``tables[i]`` is
    component i's 2^n-bit truth table (bit s is its next value at state s).
    ``successors``, each state's out-edges, is built on first access."""

    mode: str  # 'async' | 'sync'
    n: int
    tables: tuple[int, ...]

    def _fixed(self) -> int:
        """The fixed points: AND over components of NOT(table XOR variable)."""
        fixed = (1 << (1 << self.n)) - 1
        for i, t in enumerate(self.tables):
            fixed &= ~(t ^ variable_table(i, self.n))
        return fixed

    def _update(self) -> memoryview:
        """The synchronous update ``F[s]`` of every state s, 4 bytes a state.
        Component i's table digits (state 0 last) become bytes 0 or 1 << i % 8,
        read as one int; the ints of the (at most 8) components in byte lane
        i // 8 are OR-ed and the lane is written once."""
        size = 1 << self.n
        words = bytearray(4 * size)
        for k in range(0, self.n, 8):
            lane = 0
            for i, t in enumerate(self.tables[k:k + 8]):
                lane |= int.from_bytes(format(t, f"0{size}b").encode().translate(_LANE[i]), "big")
            at = k // 8 if sys.byteorder == "little" else 3 - k // 8
            words[at::4] = lane.to_bytes(size, "little")
        return memoryview(words).cast("I")

    def stable_states(self) -> tuple[int, ...]:
        return tuple(table_states(self._fixed()))

    @property
    def n_edges(self) -> int:
        if self.mode == "sync":
            return (1 << self.n) - self._fixed().bit_count()
        return sum((t ^ variable_table(i, self.n)).bit_count() for i, t in enumerate(self.tables))

    @cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        pairs = enumerate(self._update())
        if self.mode == "sync":
            return tuple([(t,) if t != s else () for s, t in pairs])
        return tuple([tuple([s ^ (1 << i) for i in bits_of(s ^ t)]) for s, t in pairs])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Every transition (s, t) in ``successors`` order, streamed from the
        update map without building ``successors``."""
        for s, t in enumerate(self._update()):
            if self.mode == "async":
                yield from [(s, s ^ 1 << i) for i in bits_of(s ^ t)]
            elif t != s:
                yield s, t


def stg_async(bn: BooleanNetwork, limit: int = DEFAULT_STATE_LIMIT) -> STG:
    """Asynchronous graph: one transition per component whose value differs."""
    _check_limit(bn.n, limit)
    return STG("async", bn.n, tuple([truth_table(c.compiled, bn.n) for c in bn.components]))


def stg_sync(bn: BooleanNetwork, limit: int = DEFAULT_STATE_LIMIT) -> STG:
    """Synchronous graph: every state maps to its full update (no self-loops)."""
    return replace(stg_async(bn, limit), mode="sync")


def stable_states(bn: BooleanNetwork, limit: int = DEFAULT_STATE_LIMIT) -> tuple[int, ...]:
    """Fixed points of the update (scheme-independent), ascending."""
    return stg_sync(bn, limit).stable_states()


def attractors(stg: STG) -> tuple[frozenset[int], ...]:
    """Terminal strongly connected components, sorted by smallest state.

    Stable states come out as singletons.  Sync: the cycles of the update
    map F, among the states left once the images F^k(S) stop shrinking (sets
    of about 60-85 bytes per state of F(S)), each walked from its lowest
    state.  Async: implicit-set search on 2^n-bit sets (Xie & Beerel, IEEE
    TCAD 2000).  The stable states and the states that reach one go first.
    Then, from the lowest state s left, s moves to a state it reaches that
    cannot reach it back, until there is none; what s reaches is an
    attractor, and it goes with every state that reaches it.
    """
    if stg.mode == "sync":
        # The images are nested, so one no smaller than the last is the cycles.
        update = stg._update()
        size, image = len(update), set(update)
        while len(image) < size:
            size, image = len(image), set(map(update.__getitem__, image))
        mark = bytearray(len(update))
        for s in image:
            mark[s] = 1
        del image
        out, s = [], mark.find(1)
        while s >= 0:  # s is the lowest state of a cycle not yet emitted
            cycle = []
            while mark[s]:
                mark[s] = 0
                cycle.append(s)
                s = update[s]
            out.append(frozenset(cycle))
            s = mark.find(1, s + 1)
        return tuple(out)
    moves = []  # components that never flip are left out
    for i, t in enumerate(stg.tables):
        var = variable_table(i, stg.n)
        if t != var:
            moves.append((1 << i, t & ~var, var & ~t))
    fixed = stg._fixed()
    out = [frozenset((s,)) for s in table_states(fixed)]
    left = ((1 << (1 << stg.n)) - 1) & ~_closure(fixed, moves, False)
    while left:
        escape = left
        while escape:
            s = escape & -escape
            fwd, bwd = _closure(s, moves, True), _closure(s, moves, False)
            escape = fwd & ~bwd
        low = (fwd & -fwd).bit_length() - 1  # skip the empty states below it
        out.append(frozenset([low + k for k in table_states(fwd >> low)]))
        left &= ~bwd
    return tuple(sorted(out, key=min))


# ---------------------------------------------------------------------------
# Single-component transition counting


@dataclass(frozen=True)
class TransitionSet:
    """Increasing/decreasing transitions of one component over a state space.

    States recorded are the sources (the state before the flip); ``n`` is
    the dimension of the space they live in.
    """

    component: int
    n: int
    increasing: frozenset[int]
    decreasing: frozenset[int]

    @property
    def n_increasing(self) -> int:
        return len(self.increasing)

    @property
    def n_decreasing(self) -> int:
        return len(self.decreasing)

    @property
    def total(self) -> int:
        return self.n_increasing + self.n_decreasing


def component_transitions(
    bn: BooleanNetwork, i: int, limit: int = DEFAULT_STATE_LIMIT
) -> TransitionSet:
    """All states where component i's asynchronous update fires, by direction."""
    _check_limit(bn.n, limit)
    table = truth_table(bn.components[i].compiled, bn.n)
    on = variable_table(i, bn.n)
    return TransitionSet(
        i, bn.n,
        frozenset(table_states(table & ~on)),
        frozenset(table_states(on & ~table)),
    )


def shape_transition_counts(
    shape: FunctionShape, ctx: RegulatorContext
) -> tuple[int, int, int]:
    """(increasing, decreasing, n) for a single target in its minimal space.

    Without autoregulation the space is B^(p+1) but the target coordinate
    is forced at every transition source, so the counts reduce to the
    regulator space: increasing = |T(f)|, decreasing = 2^p − |T(f)|, and
    they always sum to 2^(n−1) = 2^p.  With autoregulation the space is
    B^p itself and the counts come from splitting the truth table
    (:func:`funspace.shapes.shape_table`, the sign-flipped up-closure of
    the clause table) on the target's own coordinate.
    """
    if shape.arity != ctx.arity:
        raise ArityMismatch("shape and context arity differ")
    p = shape.arity
    if ctx.self_index is None:
        t = true_count(shape)
        return t, (1 << p) - t, p + 1
    table = shape_table(shape, ctx)
    own = variable_tables(p)[ctx.self_index - 1]
    return (table & ~own).bit_count(), (own & ~table).bit_count(), p


@dataclass(frozen=True)
class BoundsReport:
    """Structural bounds on one component's transition counts.

    ``case`` is 'none', 'positive' or 'negative' (autoregulation).  The
    bounds depend only on the case and the space dimension n:

    * none      — total is exactly 2^(n−1); up to 2^(n−1)−1 increasing,
                  at least 1 decreasing.
    * positive  — total in [0, 2^(n−1)); same increasing cap, possibly no
                  decreasing transition.
    * negative  — total in (2^(n−1), 2^n]; increasing can reach 2^(n−1),
                  at least 1 decreasing.
    """

    case: str
    n: int
    total_min: int
    total_max: int
    max_increasing: int
    min_decreasing: int

    def admits(self, increasing: int, decreasing: int) -> bool:
        total = increasing + decreasing
        return (
            self.total_min <= total <= self.total_max
            and increasing <= self.max_increasing
            and decreasing >= self.min_decreasing
        )


def transition_bounds(ctx: RegulatorContext, n: int | None = None) -> BoundsReport:
    """Bounds for a target with this context; n defaults to the minimal space."""
    if ctx.self_index is None:
        case = "none"
        dim = ctx.arity + 1 if n is None else n
        half = 1 << (dim - 1)
        return BoundsReport(case, dim, half, half, half - 1, 1)
    dim = ctx.arity if n is None else n
    half = 1 << (dim - 1)
    if ctx.self_sign() > 0:
        return BoundsReport("positive", dim, 0, half - 1, half - 1, 0)
    return BoundsReport("negative", dim, half + 1, 1 << dim, half, 1)


def f_star(ctx: RegulatorContext) -> FunctionShape:
    """The self-priming function: self AND (OR of every other regulator).

    Clause family { {self, k} : k ≠ self }.  Needs autoregulation and at
    least two regulators.
    """
    if ctx.self_index is None:
        raise NotAutoregulated("self-priming function needs the target as regulator")
    if ctx.arity < 2:
        raise SingleRegulator("self-priming function needs a second regulator")
    self_bit = 1 << (ctx.self_index - 1)
    masks = sorted(self_bit | (1 << k) for k in range(ctx.arity) if (1 << k) != self_bit)
    return FunctionShape(ctx.arity, tuple(masks))


@dataclass(frozen=True)
class TraceRow:
    shape: FunctionShape
    true_size: int
    increasing: int
    decreasing: int

    @property
    def total(self) -> int:
        return self.increasing + self.decreasing


def path_trace(
    ctx: RegulatorContext, path: Sequence[FunctionShape]
) -> list[TraceRow]:
    """Transition counts along an upward path of covering steps.

    Validates the chain: consecutive shapes must be child/parent pairs
    (NotAParent when not), all of the context's arity.
    """
    if not path:
        raise NotAChain("empty path")
    for s in path:
        if s.arity != ctx.arity:
            raise ArityMismatch(f"shape {s} does not match context arity {ctx.arity}")
    for a, b in zip(path, path[1:]):
        parent_step(a, b)  # raises NotAParent on a broken link
    return [TraceRow(s, true_count(s), *shape_transition_counts(s, ctx)[:2]) for s in path]


def network_from_functions(specs: Iterable[tuple[str, object]]) -> BooleanNetwork:
    """Convenience builder from (name, spec) pairs.

    ``spec`` is either a bool (constant input) or a triple
    (regulator_names, sign_string, clause_index_sets) with clause indices
    referring to positions in regulator_names (1-based).
    """
    specs = list(specs)
    order = {name: i for i, (name, _) in enumerate(specs)}
    comps = []
    for i, (name, spec) in enumerate(specs):
        if isinstance(spec, bool):
            comps.append(Component(name=name, constant=spec))
            continue
        reg_names, sign_text, clause_sets = spec
        regs = tuple(order[r] for r in reg_names)
        self_index = regs.index(i) + 1 if i in regs else None
        ctx = RegulatorContext.from_str(sign_text, self_index)
        shape = make_shape(clause_sets, len(regs))
        comps.append(Component(name=name, regulators=regs, shape=shape, ctx=ctx))
    return BooleanNetwork(tuple(comps))
