from __future__ import annotations

import dataclasses
import hashlib
import math
import random
from functools import reduce
from operator import or_
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funspace import pbn
from funspace import (
    EXPERIMENTS,
    FunctionEnsemble,
    ProbabilisticNetwork,
    classify_phenotype,
    count_consistent,
    evaluate,
    experiment_network,
    inf_shape,
    is_consistent,
    majority_rule,
    make_shape,
    neighbor_ensemble,
    network_from_functions,
    randomized_network,
    run_experiment,
    simulate,
    state_from_string,
    state_to_string,
    sup_shape,
    th_initial_state,
    th_model,
    th_neighbor_table,
)
from funspace.dynamics import Component
from funspace.errors import (
    ArityMismatch,
    ConstantComponent,
    FunspaceError,
    InvalidArgument,
    InvalidProbability,
    MissingMarker,
    UnknownComponent,
)

from conftest import contexts, networks, shapes


# ---------------------------------------------------------------------------
# Ensembles


def test_ensemble_validation():
    with pytest.raises(InvalidProbability):
        FunctionEnsemble(((sup_shape(2), 0.5), (inf_shape(2), 0.4)))
    with pytest.raises(InvalidProbability):
        FunctionEnsemble(((sup_shape(2), 1.0), (inf_shape(2), 0.0)))
    with pytest.raises(InvalidProbability):
        FunctionEnsemble(((sup_shape(2), 0.5), (sup_shape(2), 0.5)))
    with pytest.raises(ArityMismatch):
        FunctionEnsemble(((sup_shape(2), 0.5), (inf_shape(3), 0.5)))
    ens = FunctionEnsemble(((sup_shape(2), 0.3), (inf_shape(2), 0.7)))
    assert ens.reference == inf_shape(2)
    assert len(ens) == 2


def test_gata3_ensemble(th_bn):
    i = th_bn.index("GATA3")
    ens = neighbor_ensemble(th_bn, i)
    ref = make_shape([[1, 2], [1, 3]], 3)  # (!Tbet & STAT6) | (!Tbet & GATA3)
    assert ens.reference == ref
    assert dict(ens.entries) == pytest.approx({
        ref: 0.8,
        inf_shape(3): 0.1,            # its unique child
        majority_rule(3, 2): 0.1,     # its unique parent
    })


def test_gata3_ensemble_with_siblings(th_bn):
    ens = neighbor_ensemble(th_bn, th_bn.index("GATA3"), mode="with_siblings")
    probs = sorted(p for _, p in ens.entries)
    assert probs == pytest.approx([0.05, 0.05, 0.05, 0.05, 0.8])
    assert {str(s) for s, _ in ens.entries} == {
        "{{1,2},{1,3}}", "{{1,2,3}}", "{{1,2},{1,3},{2,3}}",
        "{{1,2},{2,3}}", "{{1,3},{2,3}}",
    }


def test_single_function_nodes_stay_deterministic(th_bn):
    ens = neighbor_ensemble(th_bn, th_bn.index("STAT6"))
    assert len(ens) == 1
    assert ens.entries[0][1] == 1.0


def test_ref_prob_handling(th_bn):
    i = th_bn.index("GATA3")
    with pytest.raises(InvalidProbability):
        neighbor_ensemble(th_bn, i, ref_prob=0.0)
    with pytest.raises(InvalidProbability):
        neighbor_ensemble(th_bn, i, ref_prob=1.2)
    assert len(neighbor_ensemble(th_bn, i, ref_prob=1.0)) == 1
    for bad in (0.0, 2.0):  # refused even when no component is randomized
        with pytest.raises(InvalidProbability):
            randomized_network(th_bn, components=[], ref_prob=bad)
    ens = neighbor_ensemble(th_bn, i, ref_prob=0.5)
    assert sorted(p for _, p in ens.entries) == pytest.approx([0.25, 0.25, 0.5])


def test_ensembles_contain_only_consistent_functions(th_bn):
    pnet = experiment_network("B")  # widest ensembles
    for comp, ens in zip(th_bn.components, pnet.ensembles):
        if ens is None:
            continue
        assert abs(sum(p for _, p in ens.entries) - 1.0) < 1e-9
        p = comp.shape.arity
        for shape, _ in ens.entries:
            table = [evaluate(shape, comp.ctx, x) for x in range(1 << p)]
            assert is_consistent(table, comp.ctx)


def test_experiment_targets():
    sizes_a = {}
    pnet = experiment_network("A")
    bn = pnet.network
    for i, ens in enumerate(pnet.ensembles):
        sizes_a[bn.names()[i]] = None if ens is None else len(ens)
    # constants untouched; single-function nodes singleton; the rest
    # carry their reference + all direct neighbors
    assert sizes_a["IFNb"] is None and sizes_a["TCR"] is None
    assert sizes_a["STAT6"] == 1 and sizes_a["IRAK"] == 1
    assert sizes_a["GATA3"] == 3 and sizes_a["Tbet"] == 3
    assert sizes_a["IFNg"] == 8  # ref + 1 parent + 6 children
    assert sizes_a["IL4"] == 2 and sizes_a["SOCS1"] == 2
    pnet_c = experiment_network("C")
    multi = [bn.names()[i] for i, ens in enumerate(pnet_c.ensembles)
             if ens is not None and len(ens) > 1]
    assert multi == ["GATA3"]
    pnet_b = experiment_network("B")
    by_name = {bn.names()[i]: ens for i, ens in enumerate(pnet_b.ensembles)}
    assert len(by_name["GATA3"]) == 5
    assert len(by_name["IFNg"]) == 18  # ref + 7 neighbors + 10 starred
    assert set(EXPERIMENTS) == set("ABCDEF")


# ---------------------------------------------------------------------------
# The Th model and its published neighbor table


TH_TABLE = {
    # name: (p, functions, parents, children, starred siblings)
    "GATA3": (3, 9, 1, 1, 2),
    "IFNbR": (1, 1, 0, 0, 0),
    "IFNg": (5, 6894, 1, 6, 10),
    "IFNgR": (1, 1, 0, 0, 0),
    "IL10": (1, 1, 0, 0, 0),
    "IL10R": (1, 1, 0, 0, 0),
    "IL12R": (2, 2, 1, 0, 0),
    "IL18R": (2, 2, 1, 0, 0),
    "IL4": (2, 2, 1, 0, 0),
    "IL4R": (2, 2, 1, 0, 0),
    "IRAK": (1, 1, 0, 0, 0),
    "JAK1": (2, 2, 1, 0, 0),
    "NFAT": (1, 1, 0, 0, 0),
    "SOCS1": (2, 2, 0, 1, 0),
    "STAT1": (2, 2, 0, 1, 0),
    "STAT3": (1, 1, 0, 0, 0),
    "STAT4": (2, 2, 1, 0, 0),
    "STAT6": (1, 1, 0, 0, 0),
    "Tbet": (3, 9, 1, 1, 2),
}


def test_th_model_structure(th_bn):
    assert th_bn.n == 23
    constants = [c.name for c in th_bn.components if c.shape is None]
    assert constants == ["IFNb", "IL12", "IL18", "TCR"]
    assert all(c.constant is False for c in th_bn.components
               if c.shape is None)
    ifng = th_bn.components[th_bn.index("IFNg")]
    assert ifng.shape.arity == 5
    assert str(ifng.ctx) == "-++++"  # STAT3 inhibits, the rest activate


def test_th_neighbor_table(th_bn):
    table = th_neighbor_table(th_bn)
    assert set(table) == set(TH_TABLE)
    for name, (p, nf, npar, nchd, nstar) in TH_TABLE.items():
        e = table[name]
        assert e.n_regulators == p, name
        assert e.n_functions == nf, name
        assert len(e.parents) == npar, name
        assert len(e.children) == nchd, name
        assert len(e.starred_siblings) == nstar, name


def test_initial_state_and_phenotypes(th_bn):
    init = th_initial_state()
    assert state_to_string(init, 23).count("1") == 1
    assert init == 1 << th_bn.index("IFNg")
    tbet, gata3 = th_bn.index("Tbet"), th_bn.index("GATA3")
    assert classify_phenotype(th_bn, 1 << tbet) == "Th1"
    assert classify_phenotype(th_bn, 1 << gata3) == "Th2"
    assert classify_phenotype(th_bn, 0) == "Th0"
    assert classify_phenotype(th_bn, (1 << tbet) | (1 << gata3)) == "Other"


def test_phenotype_needs_markers(toy_bn):
    with pytest.raises(MissingMarker) as err:
        classify_phenotype(toy_bn, 0)
    assert isinstance(err.value, KeyError) and isinstance(err.value, FunspaceError)
    assert str(err.value) == "network lacks marker component Tbet"


@pytest.mark.parametrize("lookup", [
    lambda: randomized_network(th_model(), ["Foo"]),
    lambda: th_initial_state(["IFNg", "Foo"]),
    lambda: th_model().index("Foo"),
])
def test_unknown_component_names_refused(lookup):
    with pytest.raises(UnknownComponent) as err:
        lookup()
    assert isinstance(err.value, KeyError) and isinstance(err.value, FunspaceError)
    assert str(err.value) == "unknown component(s): Foo"


@pytest.mark.parametrize("call, message", [
    (lambda: experiment_network("G"), "unknown experiment 'G'; expected A..F"),
    (lambda: neighbor_ensemble(th_model(), 0, mode="cousins"),
     "mode must be 'parents_children' or 'with_siblings'"),
    (lambda: ProbabilisticNetwork(th_model(), (None,)),
     "one ensemble slot per component required"),
], ids=["experiment", "mode", "slots"])
def test_bad_arguments_refused(call, message):
    with pytest.raises(FunspaceError) as err:
        call()
    assert isinstance(err.value, InvalidArgument) and isinstance(err.value, ValueError)
    assert str(err.value) == message


def test_constant_components_cannot_be_randomized():
    with pytest.raises(ConstantComponent) as err:
        randomized_network(th_model(), ["IL12", "GATA3", "TCR"])
    assert isinstance(err.value, ValueError) and isinstance(err.value, FunspaceError)
    assert str(err.value) == "constant component(s) cannot be randomized: IL12, TCR"


def test_deterministic_baseline_reaches_th1(th_bn):
    # all-singleton ensembles: synchronous trace from "only IFNg on"
    state = th_initial_state()
    seen = [state]
    while True:
        nxt = th_bn.step_sync(state)
        if nxt == state:
            break
        state = nxt
        seen.append(state)
    assert len(seen) - 1 == 6  # six steps to the fixpoint
    on = {th_bn.names()[i] for i in range(23) if state & (1 << i)}
    assert on == {"IFNg", "IFNgR", "SOCS1", "Tbet"}
    assert classify_phenotype(th_bn, state) == "Th1"
    # simulate() agrees: one extra confirming step, then absorbed
    pnet = ProbabilisticNetwork(th_bn, (None,) * 23)
    rep = simulate(pnet, th_initial_state(), runs=1, seed=1)
    out = rep.outcomes[0]
    assert out.absorbed and out.steps == 7
    assert out.final_state == state


# ---------------------------------------------------------------------------
# Simulation mechanics


def test_degenerate_pbn_follows_sync(toy_bn):
    pnet = ProbabilisticNetwork(toy_bn, (None, None, None))
    rep = simulate(pnet, state_from_string("010"), runs=2, seed=3)
    for out in rep.outcomes:
        assert out.absorbed and out.steps == 2
        assert state_to_string(out.final_state, 3) == "110"
        assert out.label == "110"  # default classifier: the state string
    # a deterministic 2-cycle is detected, not run to the step cap
    rep = simulate(pnet, state_from_string("000"), runs=1, seed=3)
    out = rep.outcomes[0]
    assert not out.absorbed and out.steps == 2
    assert state_to_string(out.final_state, 3) == "000"


def test_simulation_reads_constant_inputs():
    bn = network_from_functions([
        ("on", True), ("off", False), ("t", (["on", "off"], "++", [[1], [2]])),
    ])
    rep = simulate(ProbabilisticNetwork(bn, (None,) * 3), 0, runs=1, seed=1)
    out = rep.outcomes[0]
    assert out.absorbed and out.steps == 3
    assert out.final_state == bn.step_sync(bn.step_sync(0)) == state_from_string("101")


def test_seed_determinism():
    a = run_experiment("D", runs=40, seed=9)
    b = run_experiment("D", runs=40, seed=9)
    assert a.outcomes == b.outcomes
    c = run_experiment("D", runs=40, seed=10)
    assert c.outcomes != a.outcomes


def test_run_bookkeeping():
    rep = run_experiment("C", runs=25, seed=4)
    assert [o.run for o in rep.outcomes] == list(range(25))
    assert len({o.seed for o in rep.outcomes}) == 25
    assert rep.proportions == {"Th1": 1.0}
    assert rep.count("Th1") == 25


def test_max_steps_cutoff():
    pnet = experiment_network("D")
    rep = simulate(pnet, th_initial_state(), runs=30, seed=2, max_steps=3,
                   classifier=lambda s: classify_phenotype(pnet.network, s))
    assert rep.max_steps == 3
    for out in rep.outcomes:
        assert out.steps <= 3
        if not out.absorbed:
            assert out.steps == 3


def test_experiment_c_short_batch():
    rep = run_experiment("C", runs=120, seed=1)
    assert rep.proportions == {"Th1": 1.0}
    assert all(o.absorbed for o in rep.outcomes)


def test_simulation_outcomes_are_pinned():
    # the draw order and count of the per-step evaluator the lookup tables
    # replaced: SHA-256 of every (run, seed, steps, final_state, absorbed,
    # label) of run_experiment(x, runs=200, seed=1)
    digests = {
        "A": "60052b9709ee025ee743027e2b877462f6eeb298b3b4c6ba10cd03dec1cfd46a",
        "B": "8462178d8038a27c0470b39a4828915d53bc679946e268db9a8f932cf805d004",
        "C": "0a3f859016bcbefaaebd6309b2a46f46b98bd12e01a388447ea42ba612614f96",
        "D": "d4ec6977bb7c97ebbe01dd791957515d17f5dc0d81751f80f6e9c21cc90da980",
        "E": "fc2a86adf57e2d562fc90ae3d72914355ad0b237ff0bf6b8b0794faa37bc764a",
        "F": "308ceb4053adb1cf7d14cef5ad9d25490b139daa46c2e91ee50bd05ad42c4503",
    }
    for which, digest in digests.items():
        seq = [(o.run, o.seed, o.steps, o.final_state, o.absorbed, o.label)
               for o in run_experiment(which, runs=200, seed=1).outcomes]
        assert hashlib.sha256(repr(seq).encode()).hexdigest() == digest, which


def reference_lookup(comp, shape, bit):
    """One ``evaluate`` per submask of the regulator bits, on the state it
    projects to (regulator k reads network bit ``comp.regulators[k-1]``)."""
    regs = sum(1 << r for r in comp.regulators)
    table, key = {}, regs
    while True:
        local = sum(1 << k for k, r in enumerate(comp.regulators) if key >> r & 1)
        table[key] = bit if evaluate(shape, comp.ctx, local) else 0
        if not key:
            return table
        key = (key - 1) & regs


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_lookup_matches_a_clause_scan(data):
    p = data.draw(st.integers(1, 10))
    n = data.draw(st.integers(p, 12))
    regs = tuple(data.draw(st.permutations(range(n)))[:p])  # positions in any order
    ctx = data.draw(contexts(p, None))
    entries = data.draw(st.lists(shapes(p), min_size=1, max_size=3))
    bit = 1 << data.draw(st.integers(0, n - 1))
    comp = Component(name="t", regulators=regs, shape=entries[0], ctx=ctx)
    assert pbn._lookup(comp, entries, bit) == [
        reference_lookup(comp, s, bit) for s in entries
    ]


def reference_simulate(pnet, initial, runs, seed, max_steps):
    """The documented rule, one clause test per component per step: run k
    draws from Random(_mix_seed(seed, k)), one random() r per component
    with a multi-entry ensemble, in component order, and applies the first
    entry whose running probability total reaches r (the last if none)."""
    bn = pnet.network
    deterministic = all(ens is None or len(ens) == 1 for ens in pnet.ensembles)
    outcomes = []
    for run in range(runs):
        rng = random.Random(pbn._mix_seed(seed, run))
        state, steps, absorbed, seen = initial, 0, False, {initial}
        while steps < max_steps:
            nxt = 0
            for i, (comp, ens) in enumerate(zip(bn.components, pnet.ensembles)):
                if comp.shape is None:
                    on = comp.constant
                else:
                    shape = comp.shape if ens is None else ens.entries[-1][0]
                    if ens is not None and len(ens) > 1:
                        r, total = rng.random(), 0.0
                        for candidate, prob in ens.entries[:-1]:
                            total += prob
                            if r <= total:
                                shape = candidate
                                break
                    local = sum(1 << k for k, reg in enumerate(comp.regulators)
                                if state >> reg & 1)
                    on = evaluate(shape, comp.ctx, local)
                if on:
                    nxt |= 1 << i
            steps += 1
            if nxt == state:
                absorbed = True
                break
            state = nxt
            if deterministic:
                if state in seen:
                    break
                seen.add(state)
        outcomes.append((steps, state, absorbed))
    return outcomes


@st.composite
def hand_built_ensembles(draw, bn):
    """Ensembles of 2-4 distinct shapes with random probabilities on some
    components of arity 2 or more; in some the first entry is the least
    likely, so the draws that leave it are the common case."""
    ensembles = []
    for comp in bn.components:
        p = 0 if comp.shape is None else comp.shape.arity
        if p < 2 or not draw(st.booleans()):
            ensembles.append(None)
            continue
        entries = draw(st.lists(shapes(p), min_size=2, max_size=min(4, count_consistent(p)),
                                unique=True))
        weights = draw(st.lists(st.integers(1, 50), min_size=len(entries),
                                max_size=len(entries)))
        if draw(st.booleans()):
            weights.sort()  # the first entry is (one of) the least likely
        total = sum(weights)
        ensembles.append(FunctionEnsemble(tuple(
            (shape, w / total) for shape, w in zip(entries, weights))))
    return ProbabilisticNetwork(bn, tuple(ensembles))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_reference_groups_match_the_component_tables(data):
    bn = data.draw(networks())
    if data.draw(st.booleans()):
        pnet = data.draw(hand_built_ensembles(bn))
    else:
        mode = data.draw(st.sampled_from(["parents_children", "with_siblings"]))
        pnet = randomized_network(bn, mode=mode)
    tables, bits = [], 0  # per component that is not constant false
    for i, (comp, ens) in enumerate(zip(bn.components, pnet.ensembles)):
        if comp.shape is not None:
            shape = comp.shape if ens is None else ens.entries[0][0]
            regs = sum(1 << r for r in comp.regulators)
            tables.append((regs, reference_lookup(comp, shape, 1 << i)))
        elif comp.constant:
            tables.append((0, {0: 1 << i}))
        bits |= 0 if comp.constant is False else 1 << i
    groups, _ = pnet._tables
    for state in range(1 << bn.n):
        assert reduce(or_, [t[state & regs] for regs, t in groups], 0) == \
            reduce(or_, [t[state & regs] for regs, t in tables], 0)
    width = max([regs.bit_count() for regs, _ in tables], default=0)
    assert all(regs.bit_count() <= width and len(t) == 1 << regs.bit_count()
               for regs, t in groups)
    assert sum(len(t) for _, t in groups) <= sum(len(t) for _, t in tables)
    # every member sets its bit somewhere, so a group's bits name its members
    members = [reduce(or_, t.values()) for _, t in groups]
    assert sum(m.bit_count() for m in members) == len(tables)
    assert reduce(or_, members, 0) == bits


def test_reference_groups_never_outgrow_the_component_tables():
    # a 4-regulator hub on x1..x4 and copies x_i = x_(i-1): x2..x5 read hub
    # regulators and join its group; the other eight read one regulator each,
    # so four of them in one 4-regulator group would take 16 entries for 8
    specs = [("x0", ([f"x{k}" for k in range(1, 5)], "++++", [[1, 2], [3, 4]]))]
    specs += [(f"x{i}", ([f"x{i - 1}"], "+", [[1]])) for i in range(1, 13)]
    groups, _ = ProbabilisticNetwork(network_from_functions(specs), (None,) * 13)._tables
    assert [regs.bit_count() for regs, _ in groups] == [4, 2, 2, 2, 2]
    assert sum(len(t) for _, t in groups) == 32  # one table each: 16 + 12 * 2 = 40
    assert len(experiment_network("A")._tables[0]) == 10  # 19 components


@pytest.mark.parametrize("memo_limit", [pbn.MEMO_LIMIT, 0], ids=["memo", "no-store"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_simulate_follows_the_documented_rule(memo_limit, data):
    bn = data.draw(networks())
    if data.draw(st.booleans()):
        pnet = data.draw(hand_built_ensembles(bn))
    else:
        regulated = [c.name for c in bn.components if c.shape is not None]
        targets = data.draw(st.none() | st.lists(st.sampled_from(regulated), unique=True)
                            if regulated else st.just([]))
        mode = data.draw(st.sampled_from(["parents_children", "with_siblings"]))
        ref_prob = data.draw(st.sampled_from([0.8, 0.5, 0.3]))
        pnet = randomized_network(bn, components=targets, mode=mode, ref_prob=ref_prob)
    initial = data.draw(st.integers(0, (1 << bn.n) - 1))
    seed = data.draw(st.integers(0, 2**32))
    max_steps = data.draw(st.integers(1, 50))
    labelled = []

    def classifier(state):
        labelled.append(state)
        return f"s{state}"

    with patch.object(pbn, "MEMO_LIMIT", memo_limit):
        rep = simulate(pnet, initial, runs=4, seed=seed, max_steps=max_steps,
                       classifier=classifier)
    assert [(o.steps, o.final_state, o.absorbed) for o in rep.outcomes] == \
        reference_simulate(pnet, initial, 4, seed, max_steps)
    assert [o.label for o in rep.outcomes] == [f"s{o.final_state}" for o in rep.outcomes]
    assert sorted(labelled) == sorted({o.final_state for o in rep.outcomes})


def test_simulated_outcomes_match_constructed_ones():
    # simulate fills RunOutcome fields without the frozen __init__; the
    # outcomes must compare, hash and print like constructed ones
    rep = run_experiment("D", runs=20, seed=3)
    built = tuple(pbn.RunOutcome(o.run, o.seed, o.steps, o.final_state, o.absorbed, o.label)
                  for o in rep.outcomes)
    assert rep.outcomes == built
    assert [hash(o) for o in rep.outcomes] == [hash(o) for o in built]
    assert [repr(o) for o in rep.outcomes] == [repr(o) for o in built]
    assert [dataclasses.astuple(o) for o in rep.outcomes] == \
        [dataclasses.astuple(o) for o in built]
    assert rep == pbn.SimulationReport(rep.seed, rep.runs, rep.max_steps, built)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.outcomes[0].steps = 0


def test_draw_picks_entries_with_their_probabilities():
    # t = a AND b with ensemble {AND: 0.8, OR: 0.2}; from a on, b off, one
    # step sets t exactly when OR was drawn
    bn = network_from_functions([
        ("a", True), ("b", False), ("t", (["a", "b"], "++", [[1, 2]])),
    ])
    ens = FunctionEnsemble(((make_shape([[1, 2]], 2), 0.8),
                            (make_shape([[1], [2]], 2), 0.2)))
    pnet = ProbabilisticNetwork(bn, (None, None, ens))
    runs = 4000
    rep = simulate(pnet, state_from_string("100"), runs=runs, seed=7, max_steps=1)
    assert {o.final_state & 3 for o in rep.outcomes} == {1}
    share = sum(o.final_state >> 2 & 1 for o in rep.outcomes) / runs
    assert abs(share - 0.2) <= 5 * math.sqrt(0.2 * 0.8 / runs)
