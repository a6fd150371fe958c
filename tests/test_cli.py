from __future__ import annotations

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import pytest

import funspace
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


def test_neighbors_accepts_parenthesized_dnf(capsys):
    for text in ("(a | b) | c", "(a & b) & c"):
        assert main(["neighbors", text]) == 0
    capsys.readouterr()
    for text in ("a & (b | c)", "!(a & b)"):
        assert main(["neighbors", text]) == 2
        assert "parse error:" in capsys.readouterr().err


@pytest.mark.parametrize("p", [17, 40])
def test_neighbors_rejects_too_many_regulators_at_once(p, capsys):
    assert main(["neighbors", " | ".join(f"x{k}" for k in range(p))]) == 3
    assert "arity" in capsys.readouterr().err


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
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc == {"arity": 2, "count": 2, "shapes": [[[1], [2]], [[1, 2]]]}
    assert out == json.dumps(doc) + "\n"  # streamed, yet byte for byte json.dumps
    assert main(["enumerate", "7", "--format", "json"]) == 0
    assert capsys.readouterr().out == '{"arity": 7, "count": 2414627396434}\n'


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


@pytest.mark.parametrize("argv, message", [
    (["0"], "P = 0 outside 1..16"),
    (["17"], "P = 17 outside 1..16"),
    (["-1", "--autoreg", "neg"], "P = -1 outside 0..15 with --autoreg"),
    (["-3", "--autoreg", "pos"], "P = -3 outside 0..15 with --autoreg"),
    (["16", "--autoreg", "pos"], "P = 16 outside 0..15 with --autoreg"),
])
def test_walk_bad_inputs_exit_with_one_line(capsys, argv, message):
    assert main(["walk", *argv, "--seed", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_walk_autoregulation_alone(capsys):
    # P = 0 with --autoreg: the target regulates only itself
    assert main(["walk", "0", "--autoreg", "neg", "--seed", "1"]) == 0
    assert "# seed=1 autoreg=neg arity=1 n=1" in capsys.readouterr().out


# Recorded before walks kept their up-sets on the path shapes: the order of
# the options and every count must not move.
WALK_DIGESTS = {  # sha256 of stdout: (text, --format csv)
    (5, "none", 1): (
        "eb58bca83537a2cdf77e47582c2c713c5b32937442bb26e52e42ce1d76febb03",
        "337a5d49c50888b402d41db30bd1dcbf5689d07955a4f59f752f1891d0f06cc9",
    ),
    (5, "none", 2): (
        "6d42985ef0f527a6229d2841514064e68fb7c182fc5a242dd045df9b9a1eabfb",
        "2fda945b024434161bd6e0a509c7f4bf3e584127241b8073068c976b71ace69f",
    ),
    (5, "none", 3): (
        "b349907cae11bada4ed1cd1215b7b5bd2c5705bf04293ef494497fa82d5f4be0",
        "88991e93d06be8593585b982683863e091b7e7b01401ae50df9570d2597e7acd",
    ),
    (5, "pos", 1): (
        "1d25746bb8348399d9dace553e593f7b1103fb9bbd55891fd5a05564aadf86cf",
        "6a6cfd84606521e6f49dfdfe0e1aed6a6b9e42ba0e14a8864d0f4de84297c36e",
    ),
    (5, "pos", 2): (
        "154fadc8ecfb512ed7a81b9fbd618e59f26c94fecd564146773d412893c4c2a9",
        "a1a59916942111cbbec8c466bcf9e8b00f0c8e3a19cd9e771d3dce21750c7ec2",
    ),
    (5, "pos", 3): (
        "3551ecf962da0a3e563a2cf7cfaaf2dc3b7ab1495a292a091a12029dcb391943",
        "6b1dc7275e9deb7aed53e50fd05dcde6a4123d9d47386fad77edfd99ba661814",
    ),
    (5, "neg", 1): (
        "1276cc10a88a490dcbd6aa50c67f6174a1a5221ed4223f3349c417a158da302d",
        "1cce343a317b30787bd04b12e87a16bb5910ea8ee7e30c39c1678b596ff3850a",
    ),
    (5, "neg", 2): (
        "6ff23f0a8e94ea8844d0efc311d2fd1db5f1d9da6e85120802e7974042ab705a",
        "626e7596661a693edbfba8e5e979b4d1ad26f6fbfff4d5c764672f7d862ba0a8",
    ),
    (5, "neg", 3): (
        "d8766113771d03b05e084c914b555f77ccb9cc5dd723fe0bfc19df14966b1510",
        "ddd888a3cc6664758d9d75999d351be4ee86e6c9e8f88a10b04571e9714097cb",
    ),
    (6, "none", 1): (
        "be2736be0cc83efa5aeb75f5de7fcb957e1610593b5bfdbcf92b20ed1f7adb14",
        "f708de7ab416287e5dbc67656b551da811aba7b6a2d4888bc1ca5e5d2ce4e68d",
    ),
    (6, "none", 2): (
        "da6af9505ab8d18583e3bd51692d3816dda8f73a8690e1362ae9137fa9e57fae",
        "eda950282eaad303d9f8b218aee4f3ac69d864b3bb13e2df1777132bcb6b7d04",
    ),
    (6, "none", 3): (
        "82e6734ccde27935b46c98592beafe324293f46f45230379ad7d86e5a5a658ec",
        "610329beaf09aff7c01f6bbb1a9a36aee9a4befe4da217921fce5d6d91d2c4c9",
    ),
    (6, "pos", 1): (
        "1fb4193f67e88c0c65c36d2edf5aa24b4c060c44250f7b9a8a9c096b4bd540f9",
        "7e6d027b971ec1971e1370aef7493d3dccba8e98f947254002784b5dc851f364",
    ),
    (6, "pos", 2): (
        "34038996147a127516b2f9fafd12a3fc1d14d82cfcb4b3d9bbc0a1cd724ea74c",
        "2dc1ec7f9e7a0c8b02a542f74f2f7322d83e10dc4c48636b70bbda1dc753fc5d",
    ),
    (6, "pos", 3): (
        "a75ba19bcb357ad35feb5f53ca2c52a3754d960c1ca86d2a8c4ece2a98071615",
        "4b1d6fd8b03d3522ae6f294c544b192af58c2c5149de5ab8ac5233d6236b720c",
    ),
    (6, "neg", 1): (
        "a5e9ab4f847c2b9955164bb897156e7e199969f5bef4525f9d5a220998da0100",
        "317eeaaf2814402c8e0f5ec40feb6a2ce69d129293d4bd76b486ed956a047ac3",
    ),
    (6, "neg", 2): (
        "999b866024f54465c09f49f9e24de2bc1931df29019c8dae366a986ffc5358b8",
        "dedb6398cda60ed6ca8ed72f3afb9e27ebd3bac0f0d56bdd07f4ac820393514c",
    ),
    (6, "neg", 3): (
        "4fb5e0f008ef09e260f4382a85671466318ea8a43c0023ce959ab263d2df897a",
        "a05d81c795c2644a1a57803f7b2c1b12b988cdc26471bc3931364c0477b0705a",
    ),
    (7, "none", 1): (
        "1460f13201dd0f8041b2318a89ac50746d4dfeaf439ed0e1f1a53af4343e34eb",
        "5709ec5af62c4d2a3682fc87c2ddc7f972f4660c7e84519cca3df07d43ef47c9",
    ),
    (7, "none", 2): (
        "040fe7d5b7f850a56d015de9a950ade5cfceea96eae0bea507691342955bac7d",
        "1f7c729ba95271862b339ddf9b1a76ceb3c701bf9d70ed94011f50b6710b7884",
    ),
    (7, "none", 3): (
        "e30a16e7142cc6abce78c6f436cdd4da138b9eb45229e35648de32a51001ca1b",
        "348766841a75c31840be91d190a51dec86734f5b38f9fa8d2efa24d2f6546175",
    ),
    (7, "pos", 1): (
        "e9baf2b0fe21372f292b197bba15cb40242c5185b37a6fbce62f60060852a38f",
        "7b578b414fc72a8bbd8dcf875d9c15d622fe71a920e500f5c9300eff07110885",
    ),
    (7, "pos", 2): (
        "715f9c537d433a01181471272b7b6575d57e5032b96efd63e07bd1ccff737f83",
        "13b5711b574e1b96c55482959bfcb194a7cc2954b723f4150526e84cc779ac7c",
    ),
    (7, "pos", 3): (
        "49fd213a1979f702e4392937c60e6815748b210896bc22160fc2618a709c6dfc",
        "b42040c328e699a629c2a610398ed1d2712e7a4056665ca25e23c9a149ddfc7e",
    ),
    (7, "neg", 1): (
        "d6a7ca025ad1d7e30a0720aae91c87cc0d42caa3bd88fd0d6065d206d9d4d443",
        "a57e6f8e637afa9f62f61a2aed27cede7d5fc928851cb006f9a16bc1b9adea3e",
    ),
    (7, "neg", 2): (
        "667fa771d5d8bf60b4db52e171862c3b3cfa04a848a08578ad2571224f93ab08",
        "d429efde6b1f6d46bb0129bb2483c802eb1a2fde0c1531b874ac5fd6edc6e34c",
    ),
    (7, "neg", 3): (
        "5d6a62599ea9ea8030dfd4510335ba653f42644fc9c130f13a865015e354bd8c",
        "e1d07aa1579615dea60586c65e663dffb31d7db5d152e2cedb18548c9156bc35",
    ),
}


@pytest.mark.parametrize("p, autoreg, seed", sorted(WALK_DIGESTS))
def test_walk_output_is_pinned(capsys, p, autoreg, seed):
    for fmt, want in zip(("text", "csv"), WALK_DIGESTS[p, autoreg, seed]):
        assert main(["walk", str(p), "--autoreg", autoreg, "--seed", str(seed),
                     "--format", fmt]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == want, fmt


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
    # one line, unquoted, though the error is also a KeyError
    assert capsys.readouterr().err == "error: network lacks marker component Tbet\n"


def test_pbn_experiment_refuses_unstepped_runs(capsys):
    # zero steps would label the initial state as if a run had ended there
    assert main(["pbn", "--experiment", "C", "--runs", "5", "--max-steps", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "--max-steps must be at least 1" in captured.err


@pytest.mark.parametrize("flag", ["--csv", "--json"])
def test_pbn_unwritable_file_fails_before_simulating(tmp_path, capsys, flag):
    target = tmp_path / "missing" / "x.csv"
    with patch("funspace.cli.simulate") as simulate:
        assert main(["pbn", "--th-preset", "--runs", "2", flag, str(target)]) == 2
    assert not simulate.called
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("cannot read/write:")


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
    (["--ref-prob", "2"], 3, "ref_prob 2.0 outside (0, 1]"),
    (["--ref-prob", "0", "--randomize", "all"], 3, "ref_prob 0.0 outside (0, 1]"),
    (["--randomize", "IFNb", "--runs", "1"], 3,
     "constant component(s) cannot be randomized: IFNb"),
    (["--randomize", "IL12,GATA3,TCR"], 3,
     "constant component(s) cannot be randomized: IL12, TCR"),
    (["--randomize", "GATA3, Foo"], 3, "unknown component(s): Foo"),
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


def test_normalize_refusal_is_one_line(tmp_path, capsys):
    # 3^7 clauses after seven factors; the eighth would triple them past 4096
    wide = tmp_path / "wide.bnet"
    wide.write_text("targets, factors\nx, x\ny, "
                    + " & ".join(f"(x | y{k} | z{k})" for k in range(8)) + "\n")
    assert main(["stg", str(wide), "--normalize"]) == 2
    assert capsys.readouterr().err == \
        "parse error: line 3: normalizing needs 2187 x 3 clauses, more than 4096\n"


def test_model_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.bnet"
    bad.write_text("targets, factors\ng1, g2 &\n")
    assert main(["stg", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "parse error:" in err and "line 2" in err


@pytest.mark.parametrize("command", [["stg"], ["pbn", "--runs", "1", "--model"]])
def test_model_not_utf8_exit(tmp_path, capsys, command):
    bad = tmp_path / "latin1.bnet"
    # past the first 8 KiB, so a chunked read would misplace the offset
    head = b"targets, factors\n" + b"# padding\n" * 900 + b"g1, g1\n"
    bad.write_bytes(head + b"g2, \xff g1\n")
    assert main([*command, str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("parse error: line 903:")
    assert f"byte 0xff at offset {len(head) + 4}" in err


def _run_module(*args):
    """``python -m funspace ARGS`` in a fresh interpreter that imports this
    checkout's package."""
    src = str(Path(funspace.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "funspace", *args], env=env,
                          capture_output=True, text=True, timeout=60)


def test_python_dash_m_runs_the_cli(capsys):
    proc = _run_module("--version")
    assert proc.returncode == 0
    assert proc.stdout == f"funspace {funspace.__version__}\n"
    proc = _run_module("stg", TOY)
    assert main(["stg", TOY]) == 0
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")


def test_unknown_subcommand_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
