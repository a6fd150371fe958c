from __future__ import annotations

import csv
import hashlib
import json

import pytest

from funspace import stg_async, stg_sync, stg_to_dot
from funspace.cli import main

from conftest import FIXTURES

TOY = str(FIXTURES / "toy.bnet")


# ---------------------------------------------------------------------------
# neighbors


def test_neighbors_text(capsys):
    assert main(["neighbors", "a | (b & !c)"]) == 0
    out = capsys.readouterr().out
    assert "center: {{1},{2,3}}  =  a | (b & !c)" in out
    assert "regulators: a, b, c  signs: ++-" in out
    assert "parents (1):" in out and "children (1):" in out
    assert "siblings via parents (2):" in out
    assert "[parent-r3 d2]" in out


def test_neighbors_dash_e_equivalent(capsys):
    assert main(["neighbors", "-e", "a | (b & !c)"]) == 0
    via_opt = capsys.readouterr().out
    main(["neighbors", "a | (b & !c)"])
    assert capsys.readouterr().out == via_opt


def test_neighbors_argument_errors(capsys):
    assert main(["neighbors", "a | b", "-e", "a | b"]) == 2
    assert "exactly one expression" in capsys.readouterr().err
    assert main(["neighbors"]) == 2


def test_neighbors_json(capsys):
    assert main(["neighbors", "--format", "json", "a | (b & !c)"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["center"]["clauses"] == [[1], [2, 3]]
    assert doc["regulators"] == ["a", "b", "c"]
    assert doc["signs"] == "++-"
    [par] = doc["parents"]
    assert par["rule"] == "parent-r3" and par["delta"] == 2
    assert len(doc["children"]) == 1 and len(doc["siblings"]) == 2


def test_neighbors_dot(capsys):
    assert main(["neighbors", "--format", "dot", "a | (b & !c)"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")


def test_neighbors_error_exit_codes(capsys):
    # sign conflict is a parse-level problem
    assert main(["neighbors", "a & !a"]) == 2
    assert "parse error:" in capsys.readouterr().err
    # well-formed but absorbable (not an antichain cover)
    assert main(["neighbors", "a | (a & b)"]) == 3
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_listing(capsys):
    assert main(["enumerate", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    assert lines[-1] == "arity 3: 9 functions"
    assert "{{1},{2},{3}}" in lines and "{{1,2,3}}" in lines


def test_enumerate_count_only(capsys):
    assert main(["enumerate", "4", "--count-only"]) == 0
    assert capsys.readouterr().out == "arity 4: 114 functions\n"


def test_enumerate_large_arities_fall_back_to_counting(capsys):
    assert main(["enumerate", "7"]) == 0
    assert capsys.readouterr().out == "arity 7: 2414627396434 functions\n"
    assert main(["enumerate", "8"]) == 0
    assert capsys.readouterr().out == \
        "arity 8: 56130437209370320359966 functions\n"


def test_enumerate_past_the_table(capsys):
    assert main(["enumerate", "9"]) == 3
    assert "error:" in capsys.readouterr().err


def test_enumerate_zero(capsys):
    assert main(["enumerate", "0"]) == 3
    assert capsys.readouterr().err == "error: arity must be at least 1, got 0\n"


def test_enumerate_json(capsys):
    assert main(["enumerate", "2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"arity": 2, "count": 2, "shapes": [[[1], [2]], [[1, 2]]]}


# ---------------------------------------------------------------------------
# walk


def test_walk_text(capsys):
    assert main(["walk", "3", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "# seed=5 autoreg=none arity=3 n=4" in out
    assert "# case none: total in [8, 8], increasing <= 7, decreasing >= 1" in out
    main(["walk", "3", "--seed", "5"])
    assert capsys.readouterr().out == out  # same seed, same walk


def test_walk_csv(capsys):
    assert main(["walk", "2", "--autoreg", "pos", "--seed", "1",
                 "--format", "csv"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    assert rows[0] == ["step", "shape", "true_size", "increasing",
                       "decreasing", "total"]
    # every walk starts at the single-clause bottom function; with a
    # positive self-loop it has no increasing transitions
    assert rows[1][:4] == ["0", "{{1,2,3}}", "1", "0"]


# ---------------------------------------------------------------------------
# stg


def test_stg_text(capsys):
    assert main(["stg", TOY]) == 0
    out = capsys.readouterr().out
    assert "components: g1, g2, g3" in out
    assert "async graph: 8 states, 9 transitions" in out
    assert "stable states (3): 110 001 101" in out
    assert out.count("attractor [stable]:") == 3


def test_stg_sync(capsys):
    assert main(["stg", TOY, "--mode", "sync"]) == 0
    out = capsys.readouterr().out
    assert "sync graph: 8 states, 5 transitions" in out
    assert "attractor [cyclic(2)]:" in out


def test_stg_json(capsys):
    assert main(["stg", TOY, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["components"] == ["g1", "g2", "g3"]
    assert doc["mode"] == "async"
    assert doc["n_states"] == 8 and doc["n_edges"] == 9
    assert doc["stable_states"] == ["110", "001", "101"]
    assert sorted(doc["attractors"]) == [["001"], ["101"], ["110"]]


def test_stg_dot(capsys):
    assert main(["stg", TOY, "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph") and out.count("doublecircle") == 3


@pytest.mark.parametrize("mode", ["async", "sync"])
def test_stg_dot_streams_the_library_text(capsys, mode, toy_bn):
    assert main(["stg", TOY, "--mode", mode, "--format", "dot"]) == 0
    build = stg_async if mode == "async" else stg_sync
    assert capsys.readouterr().out == stg_to_dot(build(toy_bn), toy_bn.names())


def test_stg_edges_flag(capsys):
    assert main(["stg", TOY, "--edges"]) == 0
    assert "  010 -> 110" in capsys.readouterr().out


# SHA-256 of stdout, recorded when the edges still came from STG.successors
STG_EDGE_DIGESTS = {
    ("toy", "async", "--edges"):
        "4313d22e64f3b32ee8f7b2a2ed8a3cea529cbcc90090c91805f24b514d885d94",
    ("toy", "async", "--format=dot"):
        "e26b363158cdc1e4341f8a04a2fe8989390da38b46b59d534558394fb1d744a3",
    ("toy", "sync", "--edges"):
        "a7e1e70f000e78bc94afec9cf307b3f80aaddf08e19b470a286ed695319e1f9e",
    ("toy", "sync", "--format=dot"):
        "460ee9c909a2500dbc5b98d279b41d0a88b44e0951ab789aa0b924f0bb05cee5",
    ("ring10", "async", "--edges"):
        "5b70fc687e43c4ae3e7e977704a403e8687da7565ea15bd921b521686b0a7b3b",
    ("ring10", "async", "--format=dot"):
        "66d4264497a5115364c27a1f283d76f2a498dbdd6440023ad1a10bfc652e3a63",
    ("ring10", "sync", "--edges"):
        "d164337955023d71d8803297b860b8e7e9faf2daa8136ca1c3f87e5a262ba360",
    ("ring10", "sync", "--format=dot"):
        "0e141d258d84789c8c91dc2c4dd956a4e860164e02979ce9f47960569d3273c5",
}


@pytest.mark.parametrize("model, mode, flag", sorted(STG_EDGE_DIGESTS))
def test_stg_edges_and_dot_are_pinned(tmp_path, capsys, model, mode, flag):
    path = TOY
    if model == "ring10":  # x_i copies x_{i-1}, negated at odd i
        path = tmp_path / "ring10.bnet"
        path.write_text("targets, factors\n" + "".join(
            f"x{i}, {'!' if i % 2 else ''}x{(i - 1) % 10}\n" for i in range(10)))
    assert main(["stg", str(path), "--mode", mode, flag]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == STG_EDGE_DIGESTS[model, mode, flag]


@pytest.mark.parametrize("mode", ["async", "sync"])
def test_stg_zero_components(tmp_path, capsys, mode):
    model = tmp_path / "empty.bnet"
    model.write_text("targets, factors\n")  # a header and no component
    path = str(model)
    assert main(["stg", path, "--mode", mode, "--edges"]) == 0
    assert capsys.readouterr().out == (
        f"components: \n{mode} graph: 1 states, 0 transitions\n"
        "stable states (1): \nattractor [stable]: \n"
    )
    assert main(["stg", path, "--mode", mode, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["n_states"], doc["n_edges"]) == (1, 0)
    assert doc["stable_states"] == [""] and doc["attractors"] == [[""]]
    assert main(["stg", path, "--mode", mode, "--format", "dot"]) == 0
    assert '  "" [shape=doublecircle];' in capsys.readouterr().out


def test_stg_missing_file(capsys):
    assert main(["stg", "no/such/file.bnet"]) == 2
    assert "cannot read/write:" in capsys.readouterr().err


def test_stg_limit(capsys):
    assert main(["stg", TOY, "--limit", "2"]) == 3
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify


def test_verify(capsys):
    assert main(["verify", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "arity 1: 1 nodes / 0 edges checked — rules match the brute-force diagram",
        "arity 2: 2 nodes / 1 edges checked — rules match the brute-force diagram",
    ]


def test_verify_range_guard(capsys):
    assert main(["verify", "6"]) == 3
    assert "1..5" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# pbn


def test_pbn_experiment(capsys, tmp_path):
    csv_path = tmp_path / "runs.csv"
    json_path = tmp_path / "summary.json"
    assert main(["pbn", "--experiment", "C", "--runs", "50", "--seed", "1",
                 "--csv", str(csv_path), "--json", str(json_path)]) == 0
    out = capsys.readouterr().out
    assert "# experiment C  seed=1  runs=50" in out
    assert "absorbed: 50/50" in out
    assert "Th1      100.00%  (50)" in out
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["run", "seed", "steps", "absorbed", "final_state",
                       "phenotype"]
    assert len(rows) == 51
    assert all(r[5] == "Th1" and r[3] == "1" for r in rows[1:])
    assert [r[0] for r in rows[1:]] == [str(i) for i in range(50)]
    doc = json.loads(json_path.read_text())
    assert doc["experiment"] == "C"
    assert doc["proportions"] == {"Th1": 1.0}
    assert doc["runs"] == 50 and doc["absorbed"] == 50


def test_pbn_experiment_lowercase(capsys):
    assert main(["pbn", "--experiment", "c", "--runs", "10", "--seed", "1"]) == 0
    assert "Th1      100.00%" in capsys.readouterr().out


def test_pbn_th_preset_deterministic(capsys):
    assert main(["pbn", "--th-preset", "--runs", "1", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "absorbed: 1/1   mean steps: 7.0" in out
    assert "Th1      100.00%  (1)" in out


def test_pbn_custom_model_states(capsys):
    assert main(["pbn", "--model", TOY, "--runs", "2", "--seed", "3",
                 "--initial", "010"]) == 0
    out = capsys.readouterr().out
    assert "absorbed: 2/2" in out
    assert "110      100.00%  (2)" in out  # labels are state strings


def test_pbn_custom_model_is_deterministic_without_randomize(capsys):
    # 000 -> 011 -> 000 is a cycle of the toy model's synchronous update
    assert main(["pbn", "--model", TOY, "--runs", "20", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "mean steps: 2.0" in out
    assert "000      100.00%  (20)" in out


def test_pbn_phenotypes_need_markers(capsys):
    assert main(["pbn", "--model", TOY, "--runs", "1", "--seed", "1",
                 "--phenotypes"]) == 3
    assert "error:" in capsys.readouterr().err


def test_pbn_experiment_refuses_unstepped_runs(capsys):
    # zero steps would label the initial state as if a run had ended there
    assert main(["pbn", "--experiment", "C", "--runs", "5", "--max-steps", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "--max-steps must be at least 1" in captured.err


def test_pbn_requires_a_source(capsys):
    assert main(["pbn", "--runs", "1"]) == 2
    assert "one of --experiment, --th-preset, --model" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, message", [
    (["--active", "Foo"], 3, "unknown component(s): Foo"),
    (["--randomize", "GATA3,Foo"], 3, "unknown component(s): Foo"),
    (["--initial", "01x"], 3, "--initial has 3 values for 23 components"),
    (["--initial", "0" * 31], 3, "--initial has 31 values for 23 components"),
    (["--initial", "x" + "0" * 22], 2, "parse error: bad state character"),
    (["--runs", "0"], 3, "--runs must be at least 1"),
    (["--max-steps", "0"], 3, "--max-steps must be at least 1"),
    (["--max-steps", "-3"], 3, "--max-steps must be at least 1"),
])
def test_pbn_bad_inputs_exit_with_one_line(capsys, argv, code, message):
    assert main(["pbn", "--th-preset", "--seed", "1", *argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err


# ---------------------------------------------------------------------------
# top level


def test_output_redirect(tmp_path, capsys):
    target = tmp_path / "out.txt"
    assert main(["-o", str(target), "enumerate", "3"]) == 0
    assert capsys.readouterr().out == ""
    lines = target.read_text().splitlines()
    assert len(lines) == 10 and lines[-1] == "arity 3: 9 functions"


def test_model_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.bnet"
    bad.write_text("targets, factors\ng1, g2 &\n")
    assert main(["stg", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "parse error:" in err and "line 2" in err


def test_unknown_subcommand_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
