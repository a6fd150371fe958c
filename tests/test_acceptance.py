"""Acceptance suite: twelve end-to-end checks, one test per criterion.

Each test asserts frozen expected values computed from first principles
(brute-force oracles, the published neighbor table, fixed-seed
simulation).  Run ``pytest -v tests/test_acceptance.py`` to get one
pass/fail line per criterion.
"""

from __future__ import annotations

import csv
import hashlib
import io
from contextlib import redirect_stdout
from itertools import product

import pytest

from funspace import (
    RegulatorContext,
    attractors,
    build_hasse,
    classify_phenotype,
    count_consistent,
    enumerate_all,
    evaluate,
    f_star,
    hasse_slice,
    inf_shape,
    level,
    level_leq,
    parents,
    run_experiment,
    shape_transition_counts,
    state_from_string,
    state_to_string,
    stg_async,
    stg_sync,
    sup_shape,
    th_model,
    th_neighbor_table,
    transition_bounds,
    true_count,
    verify_rules,
)
from funspace.cli import main as cli_main
from funspace.modelio import load_model

from conftest import FIXTURES, reference_step


def every_context(p, self_index=None):
    """All 2^p sign patterns for one arity, optionally self-regulated."""
    for signs in product("+-", repeat=p):
        yield RegulatorContext.from_str("".join(signs), self_index=self_index)


def brute_counts(shape, ctx):
    """Direct state count of increasing/decreasing component transitions."""
    p = shape.arity
    if ctx.self_index is None:
        t = sum(evaluate(shape, ctx, x) for x in range(1 << p))
        return t, (1 << p) - t
    bit = 1 << (ctx.self_index - 1)
    inc = dec = 0
    for x in range(1 << p):
        fx = evaluate(shape, ctx, x)
        if fx and not x & bit:
            inc += 1
        elif not fx and x & bit:
            dec += 1
    return inc, dec


@pytest.fixture(scope="module")
def diagrams():
    return {p: build_hasse(p) for p in (1, 2, 3, 4, 5)}


def test_criterion_01_counting():
    assert [len(list(enumerate_all(p))) for p in range(1, 6)] == \
        [1, 2, 9, 114, 6894]
    # closed-form column; the p = 8 entry printed in the source tables is
    # 56130437209370320359968, a +2 misprint (the recurrence that exactly
    # reproduces the printed p = 7 value gives ...966 — see the ledger)
    expected = [
        1, 2, 9, 114, 6894, 7785062, 2414627396434,
        56130437209370320359966,
    ]
    assert [count_consistent(p) for p in range(1, 9)] == expected


@pytest.mark.slow
def test_criterion_01b_optional_p6_enumeration():
    count = sum(1 for _ in enumerate_all(6))
    assert count == 7785062 == count_consistent(6)


@pytest.mark.slow
def test_criterion_02_rules_equal_brute_force(diagrams):
    for p in (1, 2, 3, 4, 5):
        assert verify_rules(p, diagrams[p]) == []


# sha256 of repr(sorted(edges)), recorded from the pairwise scan that the
# bitset transitive reduction in `build_hasse` replaced
HASSE_EDGE_DIGESTS = {
    1: (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    2: (1, "fcbd8f2ee97e86ea25ede7fbf892fa8f8d0846fb35e5e9c91a20c7996fe7f963"),
    3: (12, "a88e8c2f02ea70c49d4b0ef980ac7e44f305168e99a510be424e87d2ece90f34"),
    4: (292, "8dd68eb177a49cb8af520d8035b5d23145d3950c6a6cca8c77834a99d6e168a0"),
    5: (31830, "d088e1d679c80d57dd1d74981bca674234b85926d0f0681a5a619c49195dbfc1"),
}


def test_diagram_edges_are_pinned(diagrams):
    for p, (n_edges, digest) in HASSE_EDGE_DIGESTS.items():
        edges = sorted(diagrams[p].edges)
        assert len(edges) == n_edges
        assert hashlib.sha256(repr(edges).encode()).hexdigest() == digest


def test_criterion_03_arity3_diagram_and_worked_example(diagrams):
    hd = diagrams[3]
    assert len(hd.shapes) == 9
    assert len(hd.edges) == 12
    center = next(s for s in hd.shapes if str(s) == "{{1},{2,3}}")
    sl = hasse_slice(center)
    assert [(str(st.shape), st.rule, st.delta) for st in sl.parents] == \
        [("{{1},{2},{3}}", "parent-r3", 2)]
    assert [(str(st.shape), st.delta) for st in sl.children] == \
        [("{{1,2},{1,3},{2,3}}", 1)]
    assert sorted(str(s) for s in sl.siblings) == \
        ["{{2},{1,3}}", "{{3},{1,2}}"]


@pytest.mark.slow
def test_criterion_04_edge_deltas(diagrams):
    ctx_cache = {p: RegulatorContext.all_positive(p) for p in (1, 2, 3, 4, 5)}
    for p in (1, 2, 3, 4, 5):
        ctx = ctx_cache[p]
        for child in diagrams[p].shapes:
            for st in parents(child):
                grown = true_count(st.shape) - true_count(child)
                # brute-force check that T only grows
                assert all(
                    evaluate(st.shape, ctx, x)
                    for x in range(1 << p) if evaluate(child, ctx, x)
                )
                assert grown == st.delta
                assert grown == (2 if st.rule == "parent-r3" else 1)
                assert st.rule in {"parent-r1", "parent-r2", "parent-r3"}


def test_criterion_05_transition_identities_and_bounds(diagrams):
    for p in (1, 2, 3, 4):
        shapes = list(enumerate_all(p))
        for self_index in (None, 1, p):
            for ctx in every_context(p, self_index):
                per_shape = []
                for s in shapes:
                    inc, dec, n = shape_transition_counts(s, ctx)
                    assert (inc, dec) == brute_counts(s, ctx)
                    assert n == (p if self_index else p + 1)
                    if self_index is None:
                        assert inc + dec == 1 << (n - 1)  # constant total
                    per_shape.append((inc, dec))
                b = transition_bounds(ctx)
                for inc, dec in per_shape:
                    assert b.admits(inc, dec)
                totals = [i + d for i, d in per_shape]
                if b.case == "none":
                    assert set(totals) == {b.total_min} == {b.total_max}
                    assert max(i for i, _ in per_shape) == b.max_increasing
                    assert min(d for _, d in per_shape) == b.min_decreasing
                elif b.case == "positive":
                    assert max(totals) == b.total_max
                    assert min(d for _, d in per_shape) == b.min_decreasing == 0
                else:
                    assert min(totals) == b.total_min
                    assert min(d for _, d in per_shape) == b.min_decreasing == 1
        # order implication: larger truth set, more increasing / fewer
        # decreasing transitions — along every covering edge
        ctx = RegulatorContext.from_str("+" * p, self_index=1)
        hd = diagrams[p]
        for lo, hi in hd.edges:
            ilo, dlo, _ = shape_transition_counts(hd.shapes[lo], ctx)
            ihi, dhi, _ = shape_transition_counts(hd.shapes[hi], ctx)
            assert ihi >= ilo and dhi <= dlo


def test_criterion_06_self_priming_extremes():
    for n in (2, 3, 4, 5):
        for self_sign in "+-":
            for rest in product("+-", repeat=n - 1):
                signs = self_sign + "".join(rest)
                ctx = RegulatorContext.from_str(signs, self_index=1)
                fs = f_star(ctx)
                inc, dec, _ = shape_transition_counts(fs, ctx)
                assert (inc, dec) == brute_counts(fs, ctx)
                if self_sign == "-":
                    assert dec == 1 << (n - 1)
                    assert inc == (1 << (n - 1)) - 1
                else:
                    assert inc == 0 and dec == 1  # total = |T-| = 1


def test_criterion_07_levels_along_edges(diagrams):
    for p in (1, 2, 3, 4):
        hd = diagrams[p]
        for lo, hi in hd.edges:
            assert level_leq(level(hd.shapes[lo]), level(hd.shapes[hi]))


def test_criterion_08_toy_dynamics():
    bn = load_model(FIXTURES / "toy.bnet")
    g = stg_async(bn)
    assert {state_to_string(s, 3) for s in g.stable_states()} == \
        {"001", "101", "110"}
    zero = state_from_string("000")
    assert {state_to_string(t, 3) for s, t in g.edges() if s == zero} == \
        {"010", "001"}
    sg = stg_sync(bn)
    cycles = [
        {state_to_string(s, 3) for s in a}
        for a in attractors(sg) if len(a) > 1
    ]
    assert sorted(map(sorted, cycles)) == \
        [["000", "011"], ["100", "111"]]


def test_criterion_09_neighbor_table_regeneration():
    bn = th_model()
    table = th_neighbor_table(bn)
    # every single-function row: (regulators, functions, parents, children)
    expected = {
        "GATA3": (3, 9, 1, 1, 2),
        "Tbet": (3, 9, 1, 1, 2),
        "IL4": (2, 2, 1, 0, 0),
        "IL4R": (2, 2, 1, 0, 0),
        "IL12R": (2, 2, 1, 0, 0),
        "IL18R": (2, 2, 1, 0, 0),
        "JAK1": (2, 2, 1, 0, 0),
        "SOCS1": (2, 2, 0, 1, 0),
        "STAT1": (2, 2, 0, 1, 0),
        "STAT4": (2, 2, 1, 0, 0),
    }
    for name, (p, nf, npar, nchd, nstar) in expected.items():
        e = table[name]
        assert (e.n_regulators, e.n_functions, len(e.parents),
                len(e.children), len(e.starred_siblings)) == \
            (p, nf, npar, nchd, nstar), name
        assert e.n_functions == count_consistent(p)
    ifng = table["IFNg"]
    assert ifng.n_functions == 6894 == count_consistent(5)
    assert len(ifng.parents) == 1 and len(ifng.children) == 6
    assert len(ifng.starred_siblings) == 10


def test_criterion_10_deterministic_baseline_reaches_th1():
    bn = th_model()
    state = 1 << bn.index("IFNg")
    for _ in range(20):
        nxt = reference_step(bn, state)
        if nxt == state:
            break
        state = nxt
    assert reference_step(bn, state) == state  # a stable state was reached
    assert state & (1 << bn.index("Tbet"))
    assert classify_phenotype(bn, state) == "Th1"


@pytest.mark.slow
def test_criterion_11_stochastic_experiments():
    reports = {x: run_experiment(x, runs=1000, seed=1) for x in "ABCDEF"}
    pr = {x: r.proportions for x, r in reports.items()}
    for x in "ABCDEF":
        print(f"experiment {x}: " + "  ".join(
            f"{k} {v * 100:.1f}%" for k, v in sorted(pr[x].items())))
    assert pr["C"].get("Th1", 0) >= 0.99
    assert 0.087 <= pr["D"].get("Th0", 0) <= 0.187
    assert pr["D"].get("Th0", 0) + pr["D"].get("Th1", 0) == pytest.approx(1.0)
    assert pr["E"].get("Th2", 0) <= 0.096
    assert 0.217 <= pr["F"].get("Th2", 0) <= 0.317
    for x in ("A", "B"):  # advisory band: shape of the distribution only
        p = pr[x]
        assert {"Th0", "Th1", "Th2"} <= set(p)
        assert p["Th2"] > p["Th1"] > p["Th0"]


def _walk_rows(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli_main(argv) == 0
    lines = [ln for ln in buf.getvalue().splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    assert rows[0][:1] == ["step"]
    return [(int(i), int(t), int(inc), int(dec), int(tot))
            for i, _, t, inc, dec, tot in rows[1:]]


def test_criterion_12_walk_envelope():
    for p, seed in ((5, 11), (6, 12)):
        rows = _walk_rows(["walk", str(p), "--seed", str(seed),
                           "--format", "csv"])
        incs = [r[2] for r in rows]
        decs = [r[3] for r in rows]
        assert incs == sorted(incs)                       # non-decreasing
        assert decs == sorted(decs, reverse=True)         # non-increasing
        assert all(r[4] == 1 << p for r in rows)          # constant total
        assert (incs[0], decs[0]) == (1, (1 << p) - 1)    # bottom endpoint
        assert (incs[-1], decs[-1]) == ((1 << p) - 1, 1)  # top endpoint
    # self-regulated walks at arity 5: same monotone envelope, endpoint
    # values from the self-regulated identities
    for autoreg, first, last in (
        ("pos", (0, 15), (15, 0)),
        ("neg", (1, 16), (16, 1)),
    ):
        rows = _walk_rows(["walk", "4", "--autoreg", autoreg,
                           "--seed", "13", "--format", "csv"])
        incs = [r[2] for r in rows]
        decs = [r[3] for r in rows]
        assert incs == sorted(incs)
        assert decs == sorted(decs, reverse=True)
        assert (incs[0], decs[0]) == first
        assert (incs[-1], decs[-1]) == last
        if autoreg == "pos":
            assert all(r[4] <= 15 for r in rows)
