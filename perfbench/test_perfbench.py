"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench

Each output checker accepts funspace's real result and rejects a
deliberately corrupted copy of it; two traced runs with one seed give
identical per-layer counts.
"""

from __future__ import annotations

import json

import pytest

import checks
import run
from workloads import WORKLOADS

fs = run.import_funspace()


def real(name, index=0, seed=3):
    wl = WORKLOADS[name]
    op = wl.generate(seed)[index]
    prepared = wl.prepare(fs, None)
    return wl, prepared, op, wl.run(fs, prepared, op, None)


def neighbors_data():
    center = fs.make_shape([{1, 2}, {2, 3}, {3, 4}], 4)
    return dict(
        center=center.clauses, p=4,
        parents=[(st.shape.clauses, st.delta) for st in fs.parents(center)],
        children=[(st.shape.clauses, st.delta) for st in fs.children(center)],
        siblings=[s.clauses for s in fs.siblings(center, via="both")],
        true_count=fs.true_count(center), level=fs.level(center),
    )


def test_neighbors_checker_accepts_real_result():
    assert checks.check_neighbors(**neighbors_data()) == []
    wl, prepared, op, result = real("neighbors")
    assert wl.check(prepared, op, result) == []


@pytest.mark.parametrize("corrupt", [
    lambda d: d["parents"].__setitem__(0, (d["parents"][0][0], 3 - d["parents"][0][1])),
    lambda d: d["children"].__setitem__(0, (d["center"], 1)),
    lambda d: d["parents"].__setitem__(0, (d["parents"][0][0][1:], d["parents"][0][1])),
    lambda d: d["siblings"].append(d["children"][0][0]),
    lambda d: d["siblings"].append(d["center"]),
    lambda d: d.__setitem__("true_count", d["true_count"] + 1),
    lambda d: d.__setitem__("level", d["level"][::-1] + (0,)),
])
def test_neighbors_checker_rejects_corruption(corrupt):
    data = neighbors_data()
    corrupt(data)
    assert checks.check_neighbors(**data)


@pytest.mark.parametrize("autoreg", ["none", "pos", "neg"])
def test_walk_checker(autoreg):
    wl = WORKLOADS["walk"]
    op = next(op for op in wl.generate(3) if op[1] == autoreg)
    prepared = wl.prepare(fs, None)
    path, rows = wl.run(fs, prepared, op, None)
    assert wl.check(prepared, op, (path, rows)) == []
    inc, dec, n, tc = rows[5]
    corruptions = [
        (path[1:], rows[1:]),
        (path[:-1], rows[:-1]),
        (path[:5] + path[6:], rows[:5] + rows[6:]),
        (path, rows[:5] + [(dec, inc, n, tc)] + rows[6:]),
        (path, rows[:5] + [(inc, dec, n, tc + 1)] + rows[6:]),
        (path, rows[:5] + [(inc + 1, dec - 1, n, tc)] + rows[6:]),
    ]
    for bad in corruptions:
        assert wl.check(prepared, op, bad), bad


def test_states_checker():
    wl, prepared, op, result = real("states")
    assert wl.check(prepared, op, result) == []
    text, spec, samples = op
    bn, g_async, a_async, g_sync, a_sync, stable = result
    s = samples[0]
    wrong = list(g_sync.successors)
    wrong[s] = ((wrong[s][0] if wrong[s] else s) ^ 1,)
    fewer_edges = list(g_async.successors)
    fewer_edges[s] = fewer_edges[s][1:] if fewer_edges[s] else (s ^ 1,)
    extra_stable = tuple(sorted(set(stable) | {s}))
    for bad in [
        (spec, extra_stable, g_async.successors, g_sync.successors, a_async, a_sync, samples),
        (spec, stable, g_async.successors, wrong, a_async, a_sync, samples),
        (spec, stable, fewer_edges, g_sync.successors, a_async, a_sync, samples),
        (spec, stable, g_async.successors, g_sync.successors, a_async,
         a_sync + (frozenset({s}),), samples),
    ]:
        assert checks.check_states(*bad)


def test_ensemble_checker():
    wl, prepared, op, report = real("ensemble")
    assert wl.check(prepared, op, report) == []
    cands, markers = wl._candidates(prepared, op[0])
    outcomes = [(o.steps, o.final_state, o.absorbed, o.label) for o in report.outcomes]
    steps, final, absorbed, label = outcomes[0]
    assert absorbed
    tbet = markers[0]
    relabelled = "Th2" if label != "Th2" else "Th1"
    not_fixed = next(final ^ (1 << i) for i, c in enumerate(cands) if isinstance(c, bool))
    for bad in [
        outcomes[1:],
        [(steps, final, absorbed, relabelled)] + outcomes[1:],
        [(steps, final, absorbed, "Th17")] + outcomes[1:],
        [(steps, final ^ (1 << tbet), absorbed, label)] + outcomes[1:],
        [(steps, not_fixed, absorbed, label)] + outcomes[1:],
        [(0, final, absorbed, label)] + outcomes[1:],
    ]:
        assert checks.check_ensemble(bad, wl.runs, wl.max_steps, cands, markers)


def test_counts_record_the_program_calls():
    true_count = fs.shapes.true_count
    for autoreg, per_shape in (("none", 2), ("pos", 1)):
        wl = WORKLOADS["walk"]
        op = next(op for op in wl.generate(3) if op[1] == autoreg)
        prepared = wl.prepare(fs, None)
        result = wl.run(fs, prepared, op, None)
        acc = {}
        wl.count(fs, prepared, op, result, acc)
        # shape_transition_counts calls true_count itself only without
        # autoregulation.
        assert acc["true_count_calls"] == per_shape * len(result[0])
    wl, prepared, op, result = real("states")
    step_sync = type(result[0]).step_sync
    acc = {}
    wl.count(fs, prepared, op, result, acc)
    assert acc["scanned"] == 3 << result[0].n
    assert fs.true_count is fs.dynamics.true_count is true_count
    assert type(result[0]).step_sync is step_sync


def test_traced_counts_repeat_for_one_seed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    counts = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
    for wl in WORKLOADS.values():
        first, second = (run.trace_workload(wl, 5, 1, fs) for _ in range(2))
        assert first[1] == second[1] == 0
        a = {k: v for k, v in first[2].items() if k in counts}
        b = {k: v for k, v in second[2].items() if k in counts}
        assert a and a == b, wl.name
