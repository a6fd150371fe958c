"""State-transition dynamics of Boolean networks built from shapes.

A network is a list of components, each either a constant (an input) or a
consistent function of some of the other components (possibly itself).
Network states are int bitmasks, bit i = component i (0-based); rendering
uses component 1 leftmost via :func:`funspace.shapes.state_to_string`.

Two update schemes: asynchronous (one component flips per transition; the
union over components gives the transition graph) and synchronous (all
components update together).  Self-loops are never counted: stable states
are the nodes without out-edges.

Stable states, attractors and the sync edge count are answered on the trap
space alone.  Percolation reads the clauses: it fixes the constant inputs
and every component they make constant.  The k free components' 2^k-bit
truth tables then give the fixed points (bitwise operations on 2^k-bit
sets) and the attractor search (async: bitwise closures on 2^k-bit sets;
sync: set images of the update map, then one walk per cycle), and each
state found is lifted back to the network's n bits.  A network keeps its
trap space (the fixed values and the free tables: k = 13 of 23 on the
T-helper model) and its fixed points while it lives, and both graphs and
:func:`stable_states` share them.  The components' 2^n-bit tables (23 MB
for the T-helper model) are built only when a graph's edges are read:
``STG.tables``, the edge list (``--edges``, ``--format dot``; its grouping
by source is ``STG.successors``) and the async edge count.  The network
builds them once and keeps them too.  A graph built by hand from tables
fixes nothing, and goes the same way on its own tables.

The second half of the module counts a single component's increasing and
decreasing transitions — the quantity governed by structural bounds that
depend only on whether the target regulates itself and with which sign —
and walks those counts along upward paths in the function order.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import (
    ArityMismatch,
    InvalidArgument,
    NotAChain,
    NotAutoregulated,
    SingleRegulator,
    StateSpaceTooLarge,
    UnknownComponent,
)
from .neighborhood import parent_step
from .shapes import (
    FunctionShape,
    RegulatorContext,
    bits_of,
    evaluate,
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
    ``constant`` holds the value.  Regulator k of the shape reads network
    state bit ``regulators[k-1]``: the graphs put the shape on the network's
    state space with :func:`funspace.shapes.truth_table`, and
    :meth:`BooleanNetwork.step_sync` projects one state onto the regulators.
    """

    name: str
    regulators: tuple[int, ...] = ()
    shape: FunctionShape | None = None
    ctx: RegulatorContext | None = None
    constant: bool | None = None

    def __post_init__(self) -> None:
        if self.shape is None:
            if self.constant is None or self.regulators or self.ctx is not None:
                raise InvalidArgument(f"component {self.name}: constants take no regulators")
        else:
            if self.ctx is None or self.constant is not None:
                raise InvalidArgument(f"component {self.name}: function needs a context")
            if len(self.regulators) != self.shape.arity:
                raise ArityMismatch(
                    f"component {self.name}: {len(self.regulators)} regulators "
                    f"for an arity-{self.shape.arity} shape"
                )
            if self.ctx.arity != self.shape.arity:
                raise ArityMismatch(f"component {self.name}: context arity differs")
            if len(set(self.regulators)) != len(self.regulators):
                raise InvalidArgument(f"component {self.name}: repeated regulator")

    @classmethod
    def _unchecked(cls, name: str, regulators: tuple[int, ...],
                   shape: FunctionShape | None, ctx: RegulatorContext | None,
                   constant: bool | None) -> "Component":
        """Fast path for callers that guarantee validity by construction."""
        obj = object.__new__(cls)
        obj.__dict__.update(name=name, regulators=regulators, shape=shape, ctx=ctx,
                            constant=constant)
        return obj


@dataclass(frozen=True)
class BooleanNetwork:
    components: tuple[Component, ...]

    def __post_init__(self) -> None:
        names = [c.name for c in self.components]
        if len(set(names)) != len(names):
            raise InvalidArgument("duplicate component names")
        n = len(self.components)
        for i, c in enumerate(self.components):
            for r in c.regulators:
                if not 0 <= r < n:
                    raise InvalidArgument(f"component {c.name}: regulator index {r} out of range")
            if c.ctx is not None:
                # self_index must agree with the regulator list.
                want = c.regulators.index(i) + 1 if i in c.regulators else None
                if c.ctx.self_index != want:
                    raise InvalidArgument(
                        f"component {c.name}: self_index {c.ctx.self_index} "
                        f"inconsistent with regulators (expected {want})"
                    )

    @classmethod
    def _unchecked(cls, components: tuple[Component, ...]) -> "BooleanNetwork":
        """Fast path for callers that guarantee validity by construction."""
        obj = object.__new__(cls)
        obj.__dict__["components"] = components
        return obj

    @property
    def n(self) -> int:
        return len(self.components)

    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.components)

    def index(self, name: str) -> int:
        return self.indices([name])[0]

    def indices(self, names: Iterable[str]) -> list[int]:
        """The positions of the named components, in the order given; every
        lookup by name goes through here.  Raises UnknownComponent (a
        ``KeyError``) naming each name the network does not declare."""
        names = list(names)
        where = {c.name: i for i, c in enumerate(self.components)}
        unknown = tuple(nm for nm in names if nm not in where)
        if unknown:
            raise UnknownComponent(f"unknown component(s): {', '.join(unknown)}", unknown)
        return [where[nm] for nm in names]

    @cached_property
    def _tables(self) -> tuple[int, ...]:
        """Every component's 2^n-bit table (:func:`_table`), built on first use
        and kept with the network; with nothing fixed, they are the free
        tables of :attr:`_trap`.  Not a field: ``==``, ``hash`` and ``repr``
        do not see it.  Callers check the state-space limit first."""
        mask, _, tables = self._trap
        if not mask:
            return tables
        return tuple([_table(c, self.n) for c in self.components])

    @cached_property
    def _fixed(self) -> int:
        """The fixed points of the free tables of :attr:`_trap`
        (:func:`_fixed_points`), a 2^k-bit set kept like them and handed to
        both graphs and :func:`stable_states`."""
        tables = self._trap[2]
        return _fixed_points(tables, len(tables))

    @cached_property
    def _trap(self) -> tuple[int, int, tuple[int, ...]]:
        """The trap space of :func:`_percolate` as (fixed components' mask,
        their values, the free components' tables on the free bits), kept
        with the network and handed to both graphs.  Free component j reads
        free bit j; a fixed regulator is a constant literal
        (:func:`funspace.shapes.truth_table` with ``fixed``)."""
        mask, values = _percolate(self.components)
        free = [i for i in range(self.n) if not mask >> i & 1]
        rank = {i: j for j, i in enumerate(free)}
        tables = []
        for i in free:
            c = self.components[i]
            positions = [rank.get(r) for r in c.regulators]
            fixed = {k: bool(values >> r & 1)
                     for k, r in enumerate(c.regulators) if r not in rank}
            tables.append(truth_table(c.shape, c.ctx, positions, len(free), fixed))
        return mask, values, tuple(tables)

    def step_sync(self, state: int) -> int:
        """The synchronous update of one state, the reference step: each
        component's next value is :func:`funspace.shapes.evaluate` on its
        regulators' projected state, or its constant.  Graphs read truth
        tables instead: the trap space's, and the whole space's for their
        edges (:class:`STG`)."""
        nxt = 0
        for i, c in enumerate(self.components):
            if c.shape is None:
                value = c.constant
            else:
                local = 0
                for k, r in enumerate(c.regulators):
                    local |= (state >> r & 1) << k
                value = evaluate(c.shape, c.ctx, local)
            nxt |= value << i
        return nxt


def _table(c: Component, n: int) -> int:
    """Component c's next value at every network state, as a 2^n-bit table."""
    if c.shape is None:
        return (1 << (1 << n)) - 1 if c.constant else 0
    return truth_table(c.shape, c.ctx, c.regulators, n)


def _fixed_points(tables: Sequence[int], n: int) -> int:
    """The states no component changes, as a 2^n-bit set: the AND over
    components of NOT(table XOR variable)."""
    fixed = (1 << (1 << n)) - 1
    for i, t in enumerate(tables):
        fixed &= ~(t ^ variable_table(i, n))
    return fixed


def _percolate(components: Sequence[Component]) -> tuple[int, int]:
    """The components fixed by percolation, as (mask, values), read off the
    clauses.  A constant is fixed.  Given the values fixed so far, a
    component is fixed at 1 once some clause has every literal fixed true,
    and at 0 once every clause has a literal fixed false; passes repeat
    until one fixes none.  On a unate DNF (each regulator keeps one sign in
    every clause) the rule is exact: if neither holds, some clause has no
    literal fixed false and at least one free, so setting every free
    literal true gives 1, and setting every free literal false gives 0.

    The fixed values span a trap space holding every attractor in both
    modes (Naldi et al., Theor. Comput. Sci. 412, 2011; Klarner et al., Nat.
    Comput. 14, 2015): off it, a fixed component is enabled toward its
    value, and on it, it never moves."""
    mask = values = 0
    rules = []  # the functions not fixed yet, with their bits
    for i, c in enumerate(components):
        if c.shape is None:
            mask |= 1 << i
            values |= c.constant << i
        else:
            rules.append((1 << i, c))
    grew = True
    while grew:
        grew, left = False, []
        for bit, c in rules:
            held = broken = 0  # literal k (bit k) fixed true / fixed false
            for k, r in enumerate(c.regulators):
                if mask >> r & 1:
                    if (values >> r ^ c.ctx.neg_mask >> k) & 1:
                        held |= 1 << k
                    else:
                        broken |= 1 << k
            if held and any(cl & held == cl for cl in c.shape.clauses):
                values |= bit
            elif not broken or not all(cl & broken for cl in c.shape.clauses):
                left.append((bit, c))
                continue
            mask |= bit
            grew = True
        rules = left
    return mask, values


@lru_cache(maxsize=16)
def _lift(mask: int, values: int, n: int):
    """Free-bit states -> network states: ``lift(states)`` lists the states
    with their free bits deposited at the components outside ``mask``, one
    table lookup per byte, and ``values`` at the fixed ones.  Keeps the order
    of states; with nothing fixed it hands them back as they are.  Kept for
    the last few traps, so a network's graphs and :func:`stable_states`
    build one."""
    if not mask:
        return lambda states: states
    free = [i for i in range(n) if not mask >> i & 1]
    lanes = []  # (shift, the byte's free bits deposited)
    for at in range(0, len(free), 8):
        lane = [0]
        for i in free[at:at + 8]:
            lane += [t | 1 << i for t in lane]
        lanes.append((at, lane))

    def lift(states: Sequence[int]) -> list[int]:
        out = [values] * len(states)
        for at, lane in lanes:
            out = [t | lane[s >> at & 255] for t, s in zip(out, states)]
        return out
    return lift


def _check_limit(n: int, limit: int) -> None:
    if limit < 0:
        raise InvalidArgument(f"the state-space limit must be at least 0, got {limit}")
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


def _update(tables: Sequence[int]) -> memoryview:
    """The synchronous update ``F[s]`` of every state s of the tables' space,
    4 bytes a state.  Component i's table digits (state 0 last) become bytes
    0 or 1 << i % 8, read as one int; the ints of the (at most 8) components
    in byte lane i // 8 are OR-ed and the lane is written once."""
    size = 1 << len(tables)
    words = bytearray(4 * size)
    for k in range(0, len(tables), 8):
        lane = 0
        for i, t in enumerate(tables[k:k + 8]):
            lane |= int.from_bytes(format(t, f"0{size}b").encode().translate(_LANE[i]), "big")
        at = k // 8 if sys.byteorder == "little" else 3 - k // 8
        words[at::4] = lane.to_bytes(size, "little")
    return memoryview(words).cast("I")


@dataclass(frozen=True)
class STG:
    """A state-transition graph over the states 0..2^n-1: ``tables[i]`` is
    component i's 2^n-bit truth table (bit s is its next value at state s),
    as :func:`funspace.shapes.truth_table` puts its shape on the network's
    state bits; a constant's table is all ones or 0.

    Stable states, attractors and the sync edge count read the trap space
    (``_trap``, laid out as :attr:`BooleanNetwork._trap`) and its fixed
    points (``_fixed``, a set over the free bits).  Both graphs of a network
    are handed the network's own, and read ``tables`` from it only when
    something asks for them (:meth:`__getattr__`): the edge list, the async
    edge count, ``==``, ``hash`` and ``repr``.  A graph built by hand fixes
    nothing: its trap space is its own tables, and it builds their fixed
    points on first access, as it does ``successors``, each state's
    out-edges (:meth:`edges` grouped by source)."""

    mode: str  # 'async' | 'sync'
    n: int
    tables: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.mode not in ("async", "sync"):
            raise InvalidArgument(f"mode must be 'async' or 'sync', got {self.mode!r}")

    def __getattr__(self, name: str):
        """Reached only for attributes not yet set: a network's graph fills
        ``tables`` from its network's kept tables on first read."""
        network = vars(self).get("_network")
        if name != "tables" or network is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.__dict__["tables"] = tables = network._tables
        return tables

    @cached_property
    def _trap(self) -> tuple[int, int, tuple[int, ...]]:
        """Nothing fixed: the free tables are the graph's own."""
        return 0, 0, self.tables

    @cached_property
    def _fixed(self) -> int:
        """The fixed points of the free tables (:func:`_fixed_points`)."""
        tables = self._trap[2]
        return _fixed_points(tables, len(tables))

    def stable_states(self) -> tuple[int, ...]:
        mask, values, _ = self._trap
        return tuple(_lift(mask, values, self.n)(table_states(self._fixed)))

    @property
    def n_edges(self) -> int:
        if self.mode == "sync":
            return (1 << self.n) - self._fixed.bit_count()
        return sum((t ^ variable_table(i, self.n)).bit_count() for i, t in enumerate(self.tables))

    @cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        """Each state's out-edges: :meth:`edges` grouped by source."""
        out: list[tuple[int, ...]] = [()] * (1 << self.n)
        for s, t in self.edges():
            out[s] += (t,)
        return tuple(out)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Every transition (s, t), by source state and then ascending
        flipped component, streamed from the update map."""
        pairs = enumerate(_update(self.tables))
        if self.mode == "sync":
            return ((s, t) for s, t in pairs if t != s)
        return ((s, s ^ 1 << i) for s, t in pairs for i in bits_of(s ^ t))


def _graph(mode: str, bn: BooleanNetwork, limit: int) -> STG:
    """A graph of the network, holding its trap space and fixed points; its
    tables are the network's, read on first use (:meth:`STG.__getattr__`)."""
    _check_limit(bn.n, limit)
    graph = object.__new__(STG)  # what the constructor and cached properties would store
    graph.__dict__.update(mode=mode, n=bn.n, _network=bn, _trap=bn._trap, _fixed=bn._fixed)
    return graph


def stg_async(bn: BooleanNetwork, limit: int = DEFAULT_STATE_LIMIT) -> STG:
    """Asynchronous graph: one transition per component whose value differs."""
    return _graph("async", bn, limit)


def stg_sync(bn: BooleanNetwork, limit: int = DEFAULT_STATE_LIMIT) -> STG:
    """Synchronous graph: every state maps to its full update (no self-loops)."""
    return _graph("sync", bn, limit)


def stable_states(bn: BooleanNetwork, limit: int = DEFAULT_STATE_LIMIT) -> tuple[int, ...]:
    """Fixed points of the update (scheme-independent), ascending."""
    return stg_sync(bn, limit).stable_states()


def attractors(stg: STG) -> tuple[frozenset[int], ...]:
    """Terminal strongly connected components, sorted by smallest state.

    Every attractor lies in the graph's trap space (:attr:`STG._trap`: the
    values :func:`_percolate` fixes), so the search runs on the free
    components' 2^k-state tables, and each state found is lifted back by
    inserting the fixed bits (:func:`_lift`), which keeps the order.  A graph
    built by hand fixes nothing and is searched on its own tables.

    Stable states come out as singletons.  Sync: the cycles of the update
    map F, among the states left once the images F^k(S) stop shrinking (sets
    of about 60-85 bytes per state of F(S)), each walked from its lowest
    state.  Async: implicit-set search on 2^k-bit sets (Xie & Beerel, IEEE
    TCAD 2000).  The stable states (:attr:`STG._fixed`) and the states that
    reach one go first.  Then, from the lowest state s left, s moves to a
    state it reaches that cannot reach it back, until there is none; what s
    reaches is an attractor, and it goes with every state that reaches it.
    """
    mask, values, tables = stg._trap
    lift = _lift(mask, values, stg.n)
    return tuple(frozenset(lift(a)) for a in _search(stg.mode, tables, stg._fixed))


def _search(mode: str, tables: Sequence[int], fixed: int) -> list[list[int]]:
    """The attractors (:func:`attractors`) of the graph on ``tables`` whose
    fixed points are ``fixed``, sorted by smallest state, each a list of its
    states."""
    if mode == "sync":
        # The images are nested, so one no smaller than the last is the cycles.
        update = _update(tables)
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
            out.append(cycle)
            s = mark.find(1, s + 1)
        return out
    n = len(tables)
    moves = []  # components that never flip are left out
    for i, t in enumerate(tables):
        var = variable_table(i, n)
        if t != var:
            moves.append((1 << i, t & ~var, var & ~t))
    out = [[s] for s in table_states(fixed)]
    left = ((1 << (1 << n)) - 1) & ~_closure(fixed, moves, False)
    while left:
        escape = left
        while escape:
            s = escape & -escape
            fwd, bwd = _closure(s, moves, True), _closure(s, moves, False)
            escape = fwd & ~bwd
        low = (fwd & -fwd).bit_length() - 1  # skip the empty states below it
        out.append([low + k for k in table_states(fwd >> low)])
        left &= ~bwd
    return sorted(out, key=min)


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
    table = _table(bn.components[i], bn.n)
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
    return FunctionShape._unchecked(ctx.arity, tuple(masks))  # an antichain cover


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
