"""Probabilistic Boolean networks over function neighborhoods.

Instead of perturbing a network's wiring, each component gets a small
*ensemble* of candidate functions: its reference function with most of the
probability mass and the reference's order neighbors (parents/children,
optionally siblings) sharing the remainder uniformly.  Updates are
synchronous; at every step each component independently samples which of
its candidate functions to apply.

A run stops when a sampled step leaves the state unchanged (a fixed point
of the functions drawn at that step), when a network with no randomized
component revisits a state (a proven cycle), or after ``max_steps`` steps.
Randomness is reproducible: each run seeds the generator with a seed
mixed from the master seed and the run number, and exactly one draw is
consumed per randomized component per step.

A simulation tests no clauses while it steps.  Each component is tabulated
once per network on the submasks of its regulators (one bit per ensemble
entry for a randomized component).  The *reference step*, the update with
every randomized component applying its ensemble's first entry, is read
from regulator-group tables (:func:`_groups`): components join groups
first fit, widest first, while a group's regulators number at most w, the
widest component's count, and its table holds no more entries than its
members' own tables; a group maps every submask of its regulators to the
OR of its members' bits.  So a group table holds at most 2^w entries, all
of them together no more than the per-component tables, and the reference
step costs one lookup per group: 10 for the T-helper model's 19
components that are not constant false, where it took 19 (``perfbench``
``ensemble``: 114.7 -> 124.5 ops/s, medians of 12 pairs,
``BENCH_reference_groups.json``).  It is memoized per visited state up to
``MEMO_LIMIT`` states, so a step reads one memo entry and makes one draw
and one compare per randomized component; only a draw past the first
entry's probability looks up the entry drawn and XORs in where its bit
differs from the first entry's.  The fast path keys on the *first* entry,
which is the reference function in a :func:`neighbor_ensemble` but not
necessarily :attr:`FunctionEnsemble.reference` (the most likely entry) in
a hand-built ensemble; outcomes are the same either way, only the speed
differs.  The classifier is called once per distinct final state.

The built-in model is a 23-component T-helper-cell differentiation
network whose stable patterns are read as phenotypes through the Tbet and
GATA3 markers (Th1 = Tbet only, Th2 = GATA3 only, Th0 = neither).  Its
experiments A–F (:data:`EXPERIMENTS`) are presets: the components to
randomize and the neighbor mode, simulated from the IFNg-pulse state.
An unknown component name raises UnknownComponent (a ``KeyError``); a
constant named for an ensemble raises ConstantComponent (a ``ValueError``);
an unknown experiment or neighbor mode, or a network given the wrong number
of ensemble slots, raises InvalidArgument (a ``ValueError``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate
from operator import or_
from typing import Callable, Iterable, Sequence

from .dynamics import BooleanNetwork, Component
from .errors import (
    ArityMismatch,
    ConstantComponent,
    InvalidArgument,
    InvalidProbability,
    MissingMarker,
    UnknownComponent,
)
from .modelio import parse_model
from .neighborhood import HasseSlice, children, count_consistent, hasse_slice, parents
from .shapes import FunctionShape, shape_table, state_to_string


@dataclass(frozen=True)
class FunctionEnsemble:
    """Candidate functions of one component with their probabilities."""

    entries: tuple[tuple[FunctionShape, float], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise InvalidProbability("empty ensemble")
        arities = {s.arity for s, _ in self.entries}
        if len(arities) != 1:
            raise ArityMismatch("ensemble mixes arities")
        shapes = [s for s, _ in self.entries]
        if len(set(shapes)) != len(shapes):
            raise InvalidProbability("repeated shape in ensemble")
        total = 0.0
        for _, prob in self.entries:
            if not prob > 0:
                raise InvalidProbability(f"probability {prob} must be positive")
            total += prob
        if abs(total - 1.0) > 1e-9:
            raise InvalidProbability(f"probabilities sum to {total}, expected 1")

    @property
    def reference(self) -> FunctionShape:
        """The maximal-probability entry (ties: first in canonical shape order)."""
        best = max(prob for _, prob in self.entries)
        ties = [s for s, prob in self.entries if prob == best]
        return min(ties, key=FunctionShape.sort_key)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class ProbabilisticNetwork:
    """A network plus per-component ensembles (None = fixed function)."""

    network: BooleanNetwork
    ensembles: tuple[FunctionEnsemble | None, ...]

    def __post_init__(self) -> None:
        if len(self.ensembles) != self.network.n:
            raise InvalidArgument("one ensemble slot per component required")
        for i, ens in enumerate(self.ensembles):
            if ens is None:
                continue
            comp = self.network.components[i]
            if comp.shape is None:
                raise ConstantComponent(f"component {comp.name} is constant")
            if ens.entries[0][0].arity != comp.shape.arity:
                raise ArityMismatch(
                    f"component {comp.name}: ensemble arity differs"
                )

    @cached_property
    def _tables(self) -> tuple[tuple, tuple]:
        """What :func:`simulate` steps with, built on first use.  The reference
        step: (regs, submask -> OR of the members' bits) per regulator group
        (:func:`_groups`) of the components other than constant-false ones,
        each applying its fixed function or its ensemble's first entry; per
        randomized component: (regs, submask -> per entry its bit XOR the first
        entry's, first cumulative prob, cumulative probs)."""
        reference, randomized = [], []
        for i, (c, ens) in enumerate(zip(self.network.components, self.ensembles)):
            if ens is None:
                if c.constant is False:
                    continue
                shapes = [c.shape]
            else:
                shapes = [s for s, _ in ens.entries]
            regs = sum([1 << r for r in c.regulators])  # distinct bits
            columns = _lookup(c, shapes, 1 << i)
            first = columns[0]
            reference.append((regs, first))
            if len(columns) > 1:
                flips = {key: tuple([col[key] ^ bit for col in columns])
                         for key, bit in first.items()}
                cum = list(accumulate(prob for _, prob in ens.entries))
                cum[-1] = 1.0
                randomized.append((regs, flips, cum[0], tuple(cum)))
        return _groups(reference), tuple(randomized)


def neighbor_ensemble(
    bn: BooleanNetwork,
    i: int,
    mode: str = "parents_children",
    ref_prob: float = 0.8,
) -> FunctionEnsemble:
    """Ensemble for component i: reference plus its order neighbors.

    ``mode``: 'parents_children' uses direct neighbors; 'with_siblings'
    additionally includes siblings through shared parents and shared
    children.  The remainder 1 − ref_prob is split uniformly.  Components
    whose function has no neighbors keep the reference alone.
    """
    if mode not in ("parents_children", "with_siblings"):
        raise InvalidArgument("mode must be 'parents_children' or 'with_siblings'")
    if not 0 < ref_prob <= 1:
        raise InvalidProbability(f"ref_prob {ref_prob} outside (0, 1]")
    comp = bn.components[i]
    if comp.shape is None:
        raise ConstantComponent(f"component {comp.name} is constant")
    ref = comp.shape
    sl = (hasse_slice(ref, "both") if mode == "with_siblings"
          else HasseSlice(ref, parents(ref), children(ref), ()))
    # disjoint: no parent or child of ref is a sibling of it
    others = sorted([st.shape for st in sl.parents + sl.children] + list(sl.siblings),
                    key=FunctionShape.sort_key)
    if not others or ref_prob == 1:
        return FunctionEnsemble(((ref, 1.0),))
    share = (1.0 - ref_prob) / len(others)
    return FunctionEnsemble(((ref, ref_prob),) + tuple((s, share) for s in others))


def randomized_network(
    bn: BooleanNetwork,
    components: Iterable[str] | None = None,
    mode: str = "parents_children",
    ref_prob: float = 0.8,
) -> ProbabilisticNetwork:
    """Attach neighbor ensembles to the named components (None = all non-constant).

    Raises UnknownComponent (a ``KeyError``) for a name the network lacks
    and ConstantComponent (a ``ValueError``) for a named constant, each
    listing every such name.
    """
    if components is None:
        targets = {i for i, c in enumerate(bn.components) if c.shape is not None}
    else:
        names = list(components)
        positions = bn.indices(names)
        constant = [nm for nm, i in zip(names, positions)
                    if bn.components[i].shape is None]
        targets = set(positions)
        if constant:
            raise ConstantComponent(
                f"constant component(s) cannot be randomized: {', '.join(constant)}")
    if not 0 < ref_prob <= 1:  # also when no component is named
        raise InvalidProbability(f"ref_prob {ref_prob} outside (0, 1]")
    return ProbabilisticNetwork(bn, tuple([
        neighbor_ensemble(bn, i, mode=mode, ref_prob=ref_prob) if i in targets else None
        for i in range(bn.n)
    ]))


# ---------------------------------------------------------------------------
# Simulation


def _mix_seed(master: int, k: int) -> int:
    """Derive run k's seed from the master seed (splitmix-style)."""
    x = (master + (k + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RunOutcome:
    run: int
    seed: int
    steps: int
    final_state: int
    absorbed: bool
    label: str


@dataclass(frozen=True)
class SimulationReport:
    seed: int
    runs: int
    max_steps: int
    outcomes: tuple[RunOutcome, ...]

    @property
    def proportions(self) -> dict[str, float]:
        counts: dict[str, int] = {}
        for o in self.outcomes:
            counts[o.label] = counts.get(o.label, 0) + 1
        return {k: v / len(self.outcomes) for k, v in sorted(counts.items())}

    def count(self, label: str) -> int:
        return sum(1 for o in self.outcomes if o.label == label)


#: Most states whose reference step one :func:`simulate` call remembers
#: (about 6.5 MB at the cap for 23-component states); past it, new states
#: are computed and not stored, so long non-absorbing runs keep their
#: memory bounded.
MEMO_LIMIT = 1 << 16


def _lookup(c: Component, shapes: list, bit: int) -> list[dict[int, int]]:
    """Per shape (None: the constant true), ``bit`` or 0 for every submask
    of ``c``'s regulator bits: where the shape holds at a state masked to
    them.  Key j sets bit ``c.regulators[k]`` for each bit k of local state j."""
    keys = [0]
    for r in c.regulators:
        keys += [k | 1 << r for k in keys]
    width, values = f"0{len(keys)}b", {"0": 0, "1": bit}.__getitem__
    tables = [1 if s is None else shape_table(s, c.ctx) for s in shapes]
    return [dict(zip(keys, map(values, format(t, width)[::-1]))) for t in tables]


def _groups(tables: list[tuple[int, dict[int, int]]]) -> tuple:
    """Merge (regs, submask -> bits) tables, first fit and widest first, into
    groups mapping each submask of their regulator bits to the OR of their
    members' entries.  A table joins a group while the group keeps at most
    w regulator bits (the widest table's) and no more entries than its
    members' tables: 16 disjoint one-regulator tables would take 2^16."""
    width = max([regs.bit_count() for regs, _ in tables], default=0)
    groups: list[list] = []  # [union of regs, members' entries, members]
    for regs, table in sorted(tables, key=lambda t: -t[0].bit_count()):
        for group in groups:
            union, entries = group[0] | regs, group[1] + len(table)
            if union.bit_count() <= width and 1 << union.bit_count() <= entries:
                group[:2] = union, entries
                group[2].append((regs, table))
                break
        else:
            groups.append([regs, len(table), [(regs, table)]])
    merged = []
    for union, _, members in groups:
        keys = [0]
        for r in range(union.bit_length()):
            if union >> r & 1:
                keys += [k | 1 << r for k in keys]
        bits = [0] * len(keys)
        for regs, table in members:
            bits = list(map(or_, bits, map(table.__getitem__, map(regs.__and__, keys))))
        merged.append((union, dict(zip(keys, bits))))
    return tuple(merged)


def simulate(
    pnet: ProbabilisticNetwork,
    initial: int,
    runs: int,
    seed: int,
    max_steps: int = 1000,
    classifier: Callable[[int], str] | None = None,
) -> SimulationReport:
    """Run the ensemble dynamics ``runs`` times from ``initial``.

    Each run updates synchronously, drawing one function per randomized
    component per step.  A run ends when a sampled step leaves the state
    unchanged (a length-1 cycle under the functions drawn that step), when
    a fully deterministic network revisits a state (a provable cycle), or
    after ``max_steps``.  ``absorbed`` on the outcome records whether the
    run ended at such a fixed point.  ``classifier`` labels the final
    state (default: the state string); it is called once per distinct
    final state, so it must be a pure function of the state.

    Run k draws from the stream of ``random.Random(_mix_seed(seed, k))``
    (one generator per call, re-seeded per run): one ``random()`` r per
    randomized component per step, in component order, picking the first
    ensemble entry whose cumulative probability is at least r.  Every
    component is tabulated on the submasks of its regulators once per
    network, by the first call on it.  The reference step, the OR of the
    fixed components and of each randomized component's *first* entry, is
    memoized per visited state, for at most ``MEMO_LIMIT`` states in one
    call.  A miss ORs one lookup per regulator group: components are
    merged first fit, widest first, while a group's regulators number at
    most the widest component's w and its table holds no more entries
    than its members' tables, so a group table holds at most 2^w entries
    (T-helper: 10 lookups, where one per component took 19; ``perfbench``
    ``ensemble`` 114.7 -> 124.5 ops/s).  A step reads the reference step,
    then per randomized component draws r and compares it with the first
    entry's probability; only when r exceeds it does the step find the
    entry drawn and XOR in that entry's bit against the first entry's,
    read from a dict at ``state & regs``.  The first entry need not be
    the ensemble's most likely one (:attr:`FunctionEnsemble.reference`);
    when it is not, more draws take the slower branch, with the same
    outcomes.
    """
    bn = pnet.network
    n = bn.n

    reference, randomized = pnet._tables

    # With no randomized components every trajectory is deterministic, so
    # a revisited state proves a cycle; under per-step sampling a revisit
    # proves nothing and runs continue until a sampled fixed point.
    deterministic = not randomized

    if classifier is None:
        classifier = lambda s: state_to_string(s, n)  # noqa: E731
    labels: dict[int, str] = {}
    memo: dict[int, int] = {}

    gen = random.Random()
    draw = gen.random
    reseed = super(random.Random, gen).seed  # for an int, Random(x)'s stream
    new = object.__new__
    outcomes = []
    for run in range(runs):
        run_seed = _mix_seed(seed, run)
        reseed(run_seed)
        state = initial
        steps = 0
        absorbed = False
        visited = {state} if deterministic else None
        while steps < max_steps:
            nxt = memo.get(state)
            if nxt is None:
                nxt = 0
                for regs, table in reference:
                    nxt |= table[state & regs]
                if len(memo) < MEMO_LIMIT:
                    memo[state] = nxt
            for regs, flips, first, cum in randomized:
                r = draw()
                if r > first:  # not the first entry: flip to the one drawn
                    pick = 1
                    while cum[pick] < r:
                        pick += 1
                    nxt ^= flips[state & regs][pick]
            steps += 1
            if nxt == state:
                absorbed = True
                break
            state = nxt
            if deterministic:
                if state in visited:
                    break
                visited.add(state)
        if state not in labels:
            labels[state] = classifier(state)
        outcome = new(RunOutcome)  # frozen: fields go in without __setattr__
        outcome.__dict__.update(run=run, seed=run_seed, steps=steps, final_state=state,
                                absorbed=absorbed, label=labels[state])
        outcomes.append(outcome)
    return SimulationReport(seed, runs, max_steps, tuple(outcomes))


# ---------------------------------------------------------------------------
# The T-helper-cell differentiation model


_TH_MODEL_TEXT = """\
targets, factors
GATA3, (!Tbet & STAT6) | (!Tbet & GATA3)
IFNb, false
IFNbR, IFNb
IFNg, (!STAT3 & NFAT) | (!STAT3 & Tbet) | (!STAT3 & IRAK) | (!STAT3 & STAT4)
IFNgR, IFNg
IL10, GATA3
IL10R, IL10
IL12, false
IL12R, !STAT6 & IL12
IL18, false
IL18R, !STAT6 & IL18
IL4, GATA3 & !STAT1
IL4R, IL4 & !SOCS1
IRAK, IL18R
JAK1, IFNgR & !SOCS1
NFAT, TCR
SOCS1, STAT1 | Tbet
STAT1, JAK1 | IFNbR
STAT3, IL10R
STAT4, !GATA3 & IL12R
STAT6, IL4R
TCR, false
Tbet, (!GATA3 & STAT1) | (!GATA3 & Tbet)
"""


@cache
def th_model() -> BooleanNetwork:
    """The 23-component T-helper differentiation network."""
    return parse_model(_TH_MODEL_TEXT)


def th_initial_state(active: Sequence[str] = ("IFNg",)) -> int:
    """State with the named components on and everything else off."""
    return sum({1 << i for i in th_model().indices(active)})


def classify_phenotype(bn: BooleanNetwork, state: int) -> str:
    """Read the differentiation phenotype off the Tbet/GATA3 markers."""
    try:
        tbet, gata3 = bn.indices(("Tbet", "GATA3"))
    except UnknownComponent as exc:
        missing = exc.names[:1]
        raise MissingMarker(f"network lacks marker component {missing[0]}", missing) from None
    t = bool(state & (1 << tbet))
    g = bool(state & (1 << gata3))
    if t and not g:
        return "Th1"
    if g and not t:
        return "Th2"
    if not t and not g:
        return "Th0"
    return "Other"


@dataclass(frozen=True)
class NeighborTableEntry:
    """One regulated component's function-space neighborhood."""

    name: str
    shape: FunctionShape
    regulator_names: tuple[str, ...]
    n_regulators: int
    n_functions: int
    parents: tuple[FunctionShape, ...]
    children: tuple[FunctionShape, ...]
    starred_siblings: tuple[FunctionShape, ...]


def th_neighbor_table(bn: BooleanNetwork | None = None) -> dict[str, NeighborTableEntry]:
    """Neighborhood table for every regulated component.

    ``starred_siblings`` uses the wide sibling notion (shared parent or
    shared child), which is what the published table's starred rows count.
    """
    if bn is None:
        bn = th_model()
    table: dict[str, NeighborTableEntry] = {}
    for i, comp in enumerate(bn.components):
        if comp.shape is None:
            continue
        shape = comp.shape
        names = tuple(bn.components[r].name for r in comp.regulators)
        sl = hasse_slice(shape, "both")
        table[comp.name] = NeighborTableEntry(
            name=comp.name,
            shape=shape,
            regulator_names=names,
            n_regulators=shape.arity,
            n_functions=count_consistent(shape.arity),
            parents=tuple(st.shape for st in sl.parents),
            children=tuple(st.shape for st in sl.children),
            starred_siblings=sl.siblings,
        )
    return table


#: Experiment presets: which components get ensembles, and the neighbor mode.
EXPERIMENTS: dict[str, tuple[tuple[str, ...] | None, str]] = {
    "A": (None, "parents_children"),
    "B": (None, "with_siblings"),
    "C": (("GATA3",), "parents_children"),
    "D": (("Tbet",), "parents_children"),
    "E": (("IL4",), "parents_children"),
    "F": (("IL4R",), "parents_children"),
}


def experiment_network(which: str, ref_prob: float = 0.8) -> ProbabilisticNetwork:
    """Preset ensemble networks A–F on the T-helper model.

    A/B randomize every regulated component (direct neighbors / with
    siblings); C–F randomize a single lineage-critical component each:
    GATA3, Tbet, IL4, IL4R.
    """
    try:
        components, mode = EXPERIMENTS[which.upper()]
    except KeyError:
        raise InvalidArgument(f"unknown experiment {which!r}; expected A..F") from None
    return randomized_network(
        th_model(), components=components, mode=mode, ref_prob=ref_prob
    )


def run_experiment(
    which: str,
    runs: int = 1000,
    seed: int = 1,
    max_steps: int = 1000,
    ref_prob: float = 0.8,
) -> SimulationReport:
    """Simulate one preset experiment from the IFNg-pulse initial state."""
    pnet = experiment_network(which, ref_prob=ref_prob)
    bn = pnet.network
    return simulate(
        pnet,
        th_initial_state(),
        runs=runs,
        seed=seed,
        max_steps=max_steps,
        classifier=lambda s: classify_phenotype(bn, s),
    )
