import cmath
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from piecewise_reference import to_piecewise

from treefield import correlator as co
from treefield import thompson as th
from treefield.cli import main
from treefield.models import preset, to_document


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spectrum_table(capsys):
    code, out, _ = run(capsys, "spectrum", "--model", "qutrit")
    assert code == 0
    assert "δ¹" in out and "β³" in out
    assert out.count("-0.5") == 5
    assert out.count("+0.5") == 3


def test_spectrum_json_deterministic(capsys):
    code, out1, _ = run(capsys, "spectrum", "--model", "qutrit", "--json")
    assert code == 0
    code, out2, _ = run(capsys, "spectrum", "--model", "qutrit", "--json")
    assert out1 == out2
    doc = json.loads(out1)
    assert len(doc["labels"]) == 9


def test_ope_command(capsys):
    code, out, _ = run(capsys, "ope", "--model", "qutrit", "δ¹", "δ²", "--json")
    assert code == 0
    doc = json.loads(out)
    assert [t["label"] for t in doc] == ["1", "δ¹", "δ²"]
    assert abs(doc[0]["coefficient"][0] + 1 / 6) < 1e-12
    assert doc[0]["exponent"] == -2.0
    # ascii aliases work too
    code, out2, _ = run(capsys, "ope", "--model", "qutrit", "d1", "d2", "--json")
    assert out2 == out


def test_fusion_command(capsys):
    code, out, _ = run(capsys, "fusion", "--model", "fibonacci")
    assert code == 0
    assert "τ x τ" in out
    code, out, _ = run(capsys, "fusion", "--model", "fibonacci", "--json")
    doc = json.loads(out)
    assert doc["n_tensor"][1][1] == [1, 1]
    assert doc["is_associative"] and doc["is_commutative"]


def test_correlator_and_oracle_diff(capsys):
    args = ["--model", "qutrit", "--at", "0", "--at", "1/2",
            "--fields", "δ¹", "δ¹"]
    code, out, _ = run(capsys, "correlator", *args)
    assert code == 0
    assert "minimal supporting partition" in out
    assert "-1.33333333333" in out
    code, out, _ = run(capsys, "oracle-diff", *args, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["abs_diff"] <= 1e-10


def test_oracle_diff_needs_an_isometry(capsys, tmp_path):
    # an abstract model with vacuum moments evaluates correlators but has no
    # matrices for the dense oracle
    doc = to_document(preset("fibonacci"))
    doc["moments"] = [[1.0, 0.0], [0.25, 0.0]]
    path = tmp_path / "abstract.json"
    path.write_text(json.dumps(doc))
    args = ["--model", str(path), "--at", "0", "--at", "1/2", "--fields", "τ", "τ"]
    code, _, _ = run(capsys, "correlator", *args)
    assert code == 0
    code, out, err = run(capsys, "oracle-diff", *args)
    assert code == 1
    assert out == "" and err == "error: no isometry in model\n"


def test_correlator_request_file(capsys, tmp_path):
    req = {"positions": ["1/7", "2/3", "5/6"], "labels": ["β¹", "β²", "β³"]}
    p = tmp_path / "req.json"
    p.write_text(json.dumps(req))
    code, out, _ = run(capsys, "correlator", "--model", "qutrit",
                       "--request", str(p), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["minimal_supporting_partition"] == ["0/2", "2/4", "3/4"]


def test_correlator_transformed_state(capsys):
    code, out, _ = run(capsys, "correlator", "--model", "qutrit",
                       "--at", "1/4", "--at", "5/8", "--fields", "δ¹", "δ¹",
                       "--state", "A", "--json")
    assert code == 0
    json.loads(out)


def test_staircase_csv(capsys, tmp_path):
    code, out, _ = run(capsys, "staircase", "--model", "qutrit", "--x", "0",
                       "--alpha", "δ¹", "--beta", "δ¹", "--depth", "4",
                       "--grid", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "y,re,im,abs"
    assert len(lines) == 8  # 7 rows + header (y = 0 skipped)
    target = tmp_path / "stairs.csv"
    code, _, _ = run(capsys, "staircase", "--model", "qutrit", "--x", "0",
                     "--alpha", "0", "--beta", "0", "--grid", "2",
                     "-o", str(target))
    assert code == 0
    assert target.read_text().startswith("y,re,im,abs")


def test_thompson_commands(capsys):
    code, out, _ = run(capsys, "thompson", "compose", "A", "C")
    assert code == 0
    doc = json.loads(out)
    assert doc["rotation"] == 1  # A o C is the half rotation
    code, out, _ = run(capsys, "thompson", "schwarzian", "A")
    assert code == 0
    assert out.strip().split("\n") == ["1/2  2", "3/4  2"]
    code, out, _ = run(capsys, "thompson", "apply", "A", "1/2", "3/4")
    assert code == 0
    assert "1/2 -> 1/4" in out and "3/4 -> 1/2" in out
    code, out, _ = run(capsys, "thompson", "reduce",
                       json.dumps({"domain": [0, [0, 0]], "range": [0, [0, 0]]}))
    assert code == 0
    assert json.loads(out)["domain"] == 0


def comb_document(n):
    """A^n as a tree-pair document: a right comb of depth n + 1 onto a left
    comb, so its deepest domain leaf sits at level n + 1."""
    dom, ran = 0, 0
    for _ in range(n + 1):
        dom, ran = [0, dom], [ran, 0]
    return json.dumps({"domain": dom, "range": ran, "rotation": 0})


def test_thompson_depth_bound(capsys):
    # MAX_LEVEL = 64 admits A^63 and refuses A^64, also as a prefix product:
    # A^63 B B^-1 is A^63, but its prefix A^63 B is too deep
    deep = "error: not a Thompson map: no dyadic domain tree found\n"
    code, out, err = run(capsys, "thompson", "compose", *["A"] * 63)
    assert code == 0 and err == ""
    code, out2, _ = run(capsys, "thompson", "reduce", comb_document(63))
    assert code == 0 and out2 == out
    for word in (["A"] * 64, ["A"] * 64 + ["A^-1"], ["A"] * 63 + ["B", "B^-1"],
                 ["A"] * 64 + ["D"]):
        assert run(capsys, "thompson", "compose", *word) == (1, "", deep)
    assert run(capsys, "thompson", "reduce", comb_document(64)) == (1, "", deep)


def test_thompson_word_length_bound(capsys):
    code, out, _ = run(capsys, "thompson", "compose", *["S"] * 1024)
    assert code == 0 and json.loads(out)["domain"] == 0  # S^2 = 1
    long = "error: word has 1025 generators; at most 1024 are allowed\n"
    assert run(capsys, "thompson", "compose", *["S"] * 1025) == (1, "", long)
    code, out, err = run(capsys, "correlator", "--model", "qutrit", "--at", "0",
                         "--at", "1/2", "--fields", "δ¹", "δ¹",
                         "--state", " ".join(["A"] * 1025))
    assert (code, out, err) == (1, "", long)


def test_check_commands(capsys):
    code, out, _ = run(capsys, "check", "--model", "qutrit", "perfect")
    assert code == 0 and out.count("pass") == 4
    code, out, _ = run(capsys, "check", "--model", "qutrit", "swap")
    assert code == 0 and "pass" in out
    code, out, _ = run(capsys, "check", "--model", "qutrit", "rotation")
    assert code == 0 and "pass" in out
    code, out, _ = run(capsys, "check", "--model", "qutrit", "modular",
                       "--element", "S", "--level", "2")
    assert code == 0 and "pass" in out


def test_check_modular_level_bound(capsys):
    # refused before the oracle size d^(2^level) is computed
    cases = [("-1", "level -1 is negative"), ("21", "level 21 exceeds the maximum 20"),
             ("100", "level 100 exceeds the maximum 20"), ("5", "oracle size exceeded")]
    for level, message in cases:
        start = time.perf_counter()
        code, out, err = run(capsys, "check", "--model", "qutrit", "modular",
                             "--level", level)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


def test_model_export_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "model-export", "--model", "fibonacci")
    assert code == 0
    path = tmp_path / "fib.json"
    path.write_text(out)
    code, out2, _ = run(capsys, "spectrum", "--model", str(path), "--json")
    assert code == 0
    assert len(json.loads(out2)["labels"]) == 2


def test_usage_errors(capsys):
    assert main(["bogus-subcommand"]) == 2
    assert main([]) == 2
    code, _, err = run(capsys, "ope", "--model", "qutrit", "δ¹", "nope")
    assert code == 1
    assert "unknown field label" in err


def test_domain_error_exit_code(capsys, tmp_path):
    no_labels = tmp_path / "no_labels.json"
    no_labels.write_text(json.dumps({"positions": ["1/4", "1/2"]}))
    no_positions = tmp_path / "no_positions.json"
    no_positions.write_text(json.dumps({"labels": ["δ¹", "δ¹"]}))
    # JSON booleans are not label indices 1 and 0
    bool_labels = tmp_path / "bool_labels.json"
    bool_labels.write_text(json.dumps({"positions": ["1/3", "2/3"],
                                       "labels": [True, False]}))
    # state documents of the wrong type, as requests and as `thompson reduce`
    bad_states = [({"rotation": 1}, "state document needs"),
                  ({"word": 5}, "'word' must be a string"),
                  ({"domain": 1, "range": 2}, "tree documents nest"),
                  # JSON booleans are neither leaves nor rotations
                  ({"domain": False, "range": 0}, "tree documents nest"),
                  ({"domain": [0, 0], "range": [0, 0], "rotation": True},
                   "'rotation' must be an integer"),
                  ({"pieces": 5}, "'pieces' must be a list")]
    corr = ["correlator", "--model", "qutrit"]
    cases = [
        (corr + ["--at", "1/4", "--at", "1/4", "--fields", "δ¹", "δ¹"], "coincident"),
        (corr + ["--at", "1/0", "--fields", "δ¹"], "zero denominator"),
        (corr + ["--request", str(no_labels)], "list 'labels'"),
        (corr + ["--request", str(no_positions)], "list 'positions'"),
        (corr + ["--request", str(bool_labels)], "unknown field label True"),
        (corr + ["--at", "1/4", "--fields", "²"], "unknown field label '²'"),
    ]
    for k, (state, message) in enumerate(bad_states):
        bad_state = tmp_path / f"bad_state_{k}.json"
        bad_state.write_text(json.dumps({"positions": ["1/4"], "labels": ["δ¹"],
                                         "state": state}))
        cases.append((corr + ["--request", str(bad_state)], message))
        cases.append((["thompson", "reduce", json.dumps(state)], message))
    cases += [(["thompson", "reduce", '{"word":"A"}', "extra"], "one state document"),
              (["thompson", "apply", "A"], "at least one point")]
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


def test_unreadable_files(capsys, tmp_path):
    cases = [
        (["correlator", "--model", "qutrit", "--request", str(tmp_path / "nope.json")],
         "No such file"),
        (["correlator", "--model", str(tmp_path), "--at", "1/4", "--fields", "δ¹"],
         "Is a directory"),
        (["staircase", "--model", "qutrit", "--x", "0", "--alpha", "0", "--beta", "0",
          "--grid", "1", "-o", str(tmp_path / "missing" / "out.csv")], "No such file"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


def test_staircase_size_bounds(capsys):
    # rejected before any 2^depth or 2^grid sized object is built
    cases = [(["--depth", "70"], "depth 70 exceeds"),
             (["--grid", "70"], "grid 70 exceeds"),
             (["--depth", "-1"], "depth -1 is negative"),
             (["--grid", "-1"], "grid -1 is negative")]
    for argv, message in cases:
        code, out, err = run(capsys, "staircase", "--model", "qutrit", "--x", "0",
                             "--alpha", "0", "--beta", "0", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


def test_byte_identical_reruns(capsys):
    args = ["correlator", "--model", "qutrit", "--at", "1/7", "--at", "2/3",
            "--fields", "β¹", "β²", "--json"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


# ---------------------------------------------------------------------------
# Thompson stdout recorded from the Fraction piecewise implementation that the
# integer tree-pair algebra replaced; the reduce inputs are each word's
# reduced pair with two matching domain/range leaves split into carets

GOLDEN_POINTS = ["0", "1/3", "1/2", "5/7", "0.1011", "3/4"]
GOLDEN = [
    ('compose', 'A C',
     '{"domain": [0, 0], "range": [0, 0], "rotation": 1}\n'),
    ('reduce', '{"domain": [0, [[0, 0], 0]], "range": [[[0, 0], 0], 0], "rotation": 3}',
     '{"domain": [0, 0], "range": [0, 0], "rotation": 1}\n'),
    ('schwarzian', 'A C',
     ''),
    ('apply', 'A C',
     '0 -> 1/2\n1/3 -> 5/6\n1/2 -> 0\n5/7 -> 3/14\n0.1011 -> 3/16\n3/4 -> 1/4\n'),
    ('compose', 'B A^-1 C S',
     '{"domain": [[[0, 0], 0], 0], "range": [0, [[0, 0], 0]], "rotation": 0}\n'),
    ('reduce', '{"domain": [[[0, [0, 0]], [0, 0]], 0], "range": [0, [[[0, 0], [0, 0]], 0]], "rotation": 0}',
     '{"domain": [[[0, 0], 0], 0], "range": [0, [[0, 0], 0]], "rotation": 0}\n'),
    ('schwarzian', 'B A^-1 C S',
     '1/8  -4\n1/4  -2\n'),
    ('apply', 'B A^-1 C S',
     '0 -> 0\n1/3 -> 2/3\n1/2 -> 3/4\n5/7 -> 6/7\n0.1011 -> 27/32\n3/4 -> 7/8\n'),
    ('compose', 'C C C',
     '{"domain": 0, "range": 0, "rotation": 0}\n'),
    ('reduce', '{"domain": [[0, 0], 0], "range": [[0, 0], 0], "rotation": 0}',
     '{"domain": 0, "range": 0, "rotation": 0}\n'),
    ('schwarzian', 'C C C',
     ''),
    ('apply', 'C C C',
     '0 -> 0\n1/3 -> 1/3\n1/2 -> 1/2\n5/7 -> 5/7\n0.1011 -> 11/16\n3/4 -> 3/4\n'),
    ('compose', 'S A B⁻¹ C-1 A A',
     '{"domain": [0, [0, [0, [0, 0]]]], "range": [[0, 0], [0, [0, 0]]], "rotation": 3}\n'),
    ('reduce', '{"domain": [[0, 0], [0, [0, [[0, 0], 0]]]], "range": [[0, [0, 0]], [0, [[0, 0], 0]]], "rotation": 4}',
     '{"domain": [0, [0, [0, [0, 0]]]], "range": [[0, 0], [0, [0, 0]]], "rotation": 3}\n'),
    ('schwarzian', 'S A B⁻¹ C-1 A A',
     '0/1  -8\n1/2  2\n3/4  4\n7/8  2\n'),
    ('apply', 'S A B⁻¹ C-1 A A',
     '0 -> 3/4\n1/3 -> 5/6\n1/2 -> 7/8\n5/7 -> 55/56\n0.1011 -> 31/32\n3/4 -> 0\n'),
    ('compose', 'B^-1 A⁻¹ A A-1 C^-1 B-1 A B A-1 B-1 B-1 A',
     '{"domain": [0, [0, [[[0, [0, 0]], 0], 0]]], "range": [0, [0, [0, [[0, [0, 0]], 0]]]], "rotation": 3}\n'),
    ('reduce', '{"domain": [0, [0, [[[0, [0, [0, 0]]], 0], [0, 0]]]], "range": [[0, 0], [0, [[0, 0], [[0, [0, 0]], 0]]]], "rotation": 5}',
     '{"domain": [0, [0, [[[0, [0, 0]], 0], 0]]], "range": [0, [0, [0, [[0, [0, 0]], 0]]]], "rotation": 3}\n'),
    ('schwarzian', 'B^-1 A⁻¹ A A-1 C^-1 B-1 A B A-1 B-1 B-1 A',
     '0/1  -8\n3/4  6\n25/32  6\n51/64  6\n13/16  -6\n7/8  -4\n'),
    ('apply', 'B^-1 A⁻¹ A A-1 C^-1 B-1 A B A-1 B-1 B-1 A',
     '0 -> 7/8\n1/3 -> 43/48\n1/2 -> 29/32\n5/7 -> 103/112\n0.1011 -> 235/256\n3/4 -> 59/64\n'),
    ('compose', 'S A-1 A A-1 A-1 A^-1 A^-1 A-1 A S-1 B⁻¹ S-1 S-1 B S-1 B A A^-1 S A',
     '{"domain": [0, [[0, 0], [[[[0, 0], 0], 0], 0]]], "range": [[0, [0, [0, [0, [[0, 0], 0]]]]], 0], "rotation": 4}\n'),
    ('reduce', '{"domain": [0, [[[0, 0], [0, 0]], [[[[0, 0], 0], 0], 0]]], "range": [[0, [0, [0, [0, [[0, [0, 0]], [0, 0]]]]]], 0], "rotation": 4}',
     '{"domain": [0, [[0, 0], [[[[0, 0], 0], 0], 0]]], "range": [[0, [0, [0, [0, [[0, 0], 0]]]]], 0], "rotation": 4}\n'),
    ('schwarzian', 'S A-1 A A-1 A-1 A^-1 A^-1 A-1 A S-1 B⁻¹ S-1 S-1 B S-1 B A A^-1 S A',
     '0/1  -8\n1/2  4\n5/8  2\n3/4  16\n49/64  -2\n25/32  -4\n13/16  -4\n7/8  -4\n'),
    ('apply', 'S A-1 A A-1 A-1 A^-1 A^-1 A-1 A S-1 B⁻¹ S-1 S-1 B S-1 B A A^-1 S A',
     '0 -> 15/32\n1/3 -> 91/192\n1/2 -> 61/128\n5/7 -> 111/224\n0.1011 -> 63/128\n3/4 -> 1/2\n'),
    ('compose', 'C^-1 S A-1 A-1 B B-1 A-1 C-1 B⁻¹ S S⁻¹ B-1 C⁻¹ S^-1 A B A-1 C C⁻¹ A⁻¹ S-1 S⁻¹ B^-1 A-1 S B A⁻¹ B B-1 A-1 A-1 S',
     '{"domain": [0, [[[0, [0, 0]], 0], [0, [[[0, 0], 0], 0]]]], "range": [0, [[0, [0, [[[0, 0], 0], [[0, 0], 0]]]], 0]], "rotation": 3}\n'),
    ('reduce', '{"domain": [[0, [0, 0]], [[[0, [0, 0]], 0], [0, [[[0, 0], 0], 0]]]], "range": [0, [[0, [0, [[[[0, [0, 0]], 0], 0], [[0, 0], 0]]]], 0]], "rotation": 3}',
     '{"domain": [0, [[[0, [0, 0]], 0], [0, [[[0, 0], 0], 0]]]], "range": [0, [[0, [0, [[[0, 0], 0], [[0, 0], 0]]]], 0]], "rotation": 3}\n'),
    ('schwarzian', 'C^-1 S A-1 A-1 B B-1 A-1 C-1 B⁻¹ S S⁻¹ B-1 C⁻¹ S^-1 A B A-1 C C⁻¹ A⁻¹ S-1 S⁻¹ B^-1 A-1 S B A⁻¹ B B-1 A-1 A-1 S',
     '0/1  -12\n1/2  6\n9/16  4\n19/32  -2\n5/8  -4\n3/4  2\n7/8  14\n57/64  2\n29/32  -6\n15/16  -4\n'),
    ('apply', 'C^-1 S A-1 A-1 B B-1 A-1 C-1 B⁻¹ S S⁻¹ B-1 C⁻¹ S^-1 A B A-1 C C⁻¹ A⁻¹ S-1 S⁻¹ B^-1 A-1 S B A⁻¹ B B-1 A-1 A-1 S',
     '0 -> 11/16\n1/3 -> 133/192\n1/2 -> 89/128\n5/7 -> 41/56\n0.1011 -> 187/256\n3/4 -> 47/64\n'),
    ('compose', 'C-1 C-1 S^-1 S^-1 S A-1 B-1 C-1 C C S B B-1 C⁻¹ A C^-1 C^-1 S C-1 A B-1 A A C^-1 B S-1 S⁻¹ B B-1 S B-1 B-1',
     '{"domain": [[0, [[[0, [[[0, 0], 0], [0, 0]]], 0], 0]], [[[0, 0], 0], 0]], "range": [0, [0, [0, [0, [0, [0, [[[0, [0, [0, [0, 0]]]], 0], 0]]]]]]], "rotation": 11}\n'),
    ('reduce', '{"domain": [[0, [[[0, [[[[0, 0], 0], 0], [0, 0]]], 0], 0]], [[[0, [0, 0]], 0], 0]], "range": [[0, 0], [0, [0, [0, [0, [0, [[[0, [0, [[0, 0], [0, 0]]]], 0], 0]]]]]]], "rotation": 13}',
     '{"domain": [[0, [[[0, [[[0, 0], 0], [0, 0]]], 0], 0]], [[[0, 0], 0], 0]], "range": [0, [0, [0, [0, [0, [0, [[[0, [0, [0, [0, 0]]]], 0], 0]]]]]]], "rotation": 11}\n'),
    ('schwarzian', 'C-1 C-1 S^-1 S^-1 S A-1 B-1 C-1 C C S B B-1 C⁻¹ A C^-1 C^-1 S C-1 A B-1 A A C^-1 B S-1 S⁻¹ B B-1 S B-1 B-1',
     '0/1  8\n1/4  8\n9/32  18\n73/256  -2\n37/128  -4\n19/64  -2\n39/128  -2\n5/16  -8\n3/8  -8\n9/16  -2\n5/8  -4\n3/4  -2\n'),
    ('apply', 'C-1 C-1 S^-1 S^-1 S A-1 B-1 C-1 C C S B B-1 C⁻¹ A C^-1 C^-1 S C-1 A B-1 A A C^-1 B S-1 S⁻¹ B B-1 S B-1 B-1',
     '0 -> 253/256\n1/3 -> 187/192\n1/2 -> 505/512\n5/7 -> 28327/28672\n0.1011 -> 8093/8192\n3/4 -> 4047/4096\n'),
]


@pytest.mark.parametrize("action,arg,want", GOLDEN,
                         ids=[f"{a}-{i // 4}" for i, (a, _, _) in enumerate(GOLDEN)])
def test_thompson_golden_stdout(capsys, action, arg, want):
    if action == "reduce":
        argv = [arg]
    elif action == "apply":
        argv = [arg, *GOLDEN_POINTS]
    else:
        argv = arg.split()
    code, out, err = run(capsys, "thompson", action, *argv)
    assert (code, out, err) == (0, want, "")


# ---------------------------------------------------------------------------
# correlator-side stdout, stderr and exit codes recorded before the common
# refinement moved onto the integer merge walk

# many-point requests with dyadic and odd-prime denominators, their outputs
# recorded before `index_of` moved onto integers; a dict in an argv list
# below stands for a request file holding it
REQUEST_16 = {
    "positions": ["6/257", "22/101", "3/13", "269/1024", "5/13", "109/256", "455/1024",
        "237/512", "489/1024", "137/256", "2230/4093", "8/13", "669/1024", "191/256",
        "10/13", "99/101"],
    "labels": ["δ²", "δ¹", "δ¹", "δ²", "δ²", "δ¹", "δ¹", "δ¹", "δ²", "δ²", "δ²", "δ²",
        "δ¹", "δ²", "δ²", "δ²"],
}
REQUEST_32 = {
    "positions": ["9/128", "9/101", "1/11", "101/1024", "430/4093", "33/257", "1/7",
        "153/1024", "93/512", "2/11", "187/1024", "55/256", "2/7", "295/1024", "1/3",
        "46/101", "577/1024", "591/1024", "2/3", "8/11", "188/257", "189/256",
        "775/1024", "10/13", "9/11", "83/101", "423/512", "433/512", "7/8", "909/1024",
        "935/1024", "12/13"],
    "labels": ["δ²", "δ¹", "δ²", "δ²", "δ¹", "δ¹", "δ¹", "δ¹", "δ¹", "δ¹", "δ²", "δ²",
        "δ¹", "δ¹", "δ²", "δ¹", "β²", "β²", "β¹", "β¹", "α³", "α³", "β²", "β²", "α¹",
        "α¹", "α²", "α²", "α²", "α²", "α²", "α²"],
}
REQUEST_16_STATE = {
    "positions": ["1/7", "40/257", "44/257", "91/512", "49/256", "1/3", "5/11",
        "1998/4093", "251/512", "407/512", "433/512", "903/1024", "913/1024",
        "915/1024", "12/13", "242/257"],
    "labels": ["β³", "β³", "α²", "α²", "β³", "β³", "β²", "β²", "β³", "β³", "α²", "α²",
        "α¹", "α¹", "β³", "β³"],
    "state": {"word": "C B-1 A S"},
}

GOLDEN_CORRELATOR = [
    (['correlator', '--model', 'qutrit', '--at', '0', '--at', '1/3', '--at', '5/8', '--at', '7/8', '--fields', 'δ¹', 'δ¹', 'δ²', 'δ²'],
     0, 'value: +42.6666666667+0j\nminimal supporting partition: {0/4, 1/4, 2/4, 3/4}\n',
     ''),
    (['correlator', '--model', 'qutrit', '--at', '0', '--at', '1/3', '--at', '5/8', '--at', '7/8', '--fields', 'δ¹', 'δ¹', 'δ²', 'δ²', '--json'],
     0, '{"minimal_supporting_partition": ["0/4", "1/4", "2/4", "3/4"], "value": [42.666666666666636, 0.0]}\n',
     ''),
    (['correlator', '--model', 'qutrit', '--at', '0', '--at', '1/3', '--at', '5/8', '--at', '7/8', '--fields', 'δ¹', 'δ¹', 'δ²', 'δ²', '--state', 'C B-1 A S'],
     0, 'value: -85.3333333333+0j\nminimal supporting partition: {0/4, 1/4, 2/4, 3/4}\n',
     ''),
    (['correlator', '--model', 'qutrit', '--at', '0', '--at', '1/3', '--at', '5/8', '--at', '7/8', '--fields', 'δ¹', 'δ¹', 'δ²', 'δ²', '--state', 'C B-1 A S', '--json'],
     0, '{"minimal_supporting_partition": ["0/4", "1/4", "2/4", "3/4"], "value": [-85.33333333333323, 0.0]}\n',
     ''),
    (['oracle-diff', '--model', 'qutrit', '--at', '0', '--at', '1/3', '--at', '5/8', '--at', '7/8', '--fields', 'δ¹', 'δ¹', 'δ²', 'δ²', '--json'],
     0, '{"abs_diff": 7.105427357601002e-15, "engine": [42.666666666666636, 0.0], "oracle": [42.66666666666664, 0.0]}\n',
     ''),
    (['staircase', '--model', 'qutrit', '--x', '3/8', '--alpha', 'δ¹', '--beta', 'δ¹', '--depth', '6', '--grid', '3'],
     0, 'y,re,im,abs\n0/8,-5.3333333333333215,0.0,5.3333333333333215\n1/8,-5.3333333333333215,0.0,5.3333333333333215\n2/8,-21.33333333333329,0.0,21.33333333333329\n4/8,-1.33333333333333,0.0,1.33333333333333\n5/8,-1.33333333333333,0.0,1.33333333333333\n6/8,-1.33333333333333,0.0,1.33333333333333\n7/8,-1.33333333333333,0.0,1.33333333333333\n',
     ''),
    (['staircase', '--model', 'qutrit', '--x', '3/8', '--alpha', 'β¹', '--beta', 'β¹', '--depth', '8', '--grid', '3'],
     0, 'y,re,im,abs\n0/8,5.333333333333316,0.0,5.333333333333316\n1/8,5.333333333333316,0.0,5.333333333333316\n2/8,21.33333333333327,0.0,21.33333333333327\n4/8,1.3333333333333288,0.0,1.3333333333333288\n5/8,1.3333333333333288,0.0,1.3333333333333288\n6/8,1.3333333333333288,0.0,1.3333333333333288\n7/8,1.3333333333333288,0.0,1.3333333333333288\n',
     ''),
    (['staircase', '--model', 'qutrit', '--x', '517/1024', '--alpha', 'α¹', '--beta', 'α¹', '--depth', '6', '--grid', '3'],
     0, 'y,re,im,abs\n0/8,-1.33333333333333,0.0,1.33333333333333\n1/8,-1.33333333333333,0.0,1.33333333333333\n2/8,-1.33333333333333,0.0,1.33333333333333\n3/8,-1.33333333333333,0.0,1.33333333333333\n4/8,-21845.333333333296,0.0,21845.333333333296\n5/8,-21.33333333333329,0.0,21.33333333333329\n6/8,-5.3333333333333215,0.0,5.3333333333333215\n7/8,-5.3333333333333215,0.0,5.3333333333333215\n',
     ''),
    (['staircase', '--model', 'qutrit', '--x', '517/1024', '--alpha', 'δ²', '--beta', 'δ¹', '--depth', '8', '--grid', '3'],
     0, 'y,re,im,abs\n0/8,-0.6666666666666644,0.0,0.6666666666666644\n1/8,-0.6666666666666644,0.0,0.6666666666666644\n2/8,-0.6666666666666644,0.0,0.6666666666666644\n3/8,-0.6666666666666644,0.0,0.6666666666666644\n4/8,-10922.666666666648,0.0,10922.666666666648\n5/8,-10.666666666666636,0.0,10.666666666666636\n6/8,-2.666666666666658,0.0,2.666666666666658\n7/8,-2.666666666666658,0.0,2.666666666666658\n',
     ''),
    (['check', '--model', 'qutrit', 'modular', '--element', 'C', '--level', '3'],
     0, 'pass (max deviation 1.665e-16)\n',
     ''),
    (['check', '--model', 'qutrit', 'modular', '--element', 'A B', '--level', '2'],
     0, 'FAIL (max deviation 7.500e-01)\n',
     ''),
    (['check', '--model', 'qutrit', 'perfect'],
     0, 'pairing1: pass (constant 1)\npairing2: pass (constant 1)\npairing3: pass (constant 1)\nall: pass\n',
     ''),
    (['check', '--model', 'qutrit', 'swap'],
     0, 'pass\n',
     ''),
    (['check', '--model', 'qutrit', 'rotation'],
     0, 'pass\n',
     ''),
    (['spectrum', '--model', 'qutrit'],
     0, 'model: qutrit (kind: isometry)\nindex  label  eigenvalue                     h            phase\n    0  1      +1+0j                         0            0\n    1  δ¹     -0.5+0j                       1            3.14159\n    2  δ²     -0.5+0j                       1            3.14159\n    3  β¹     +0.5+0j                       1            0\n    4  β²     +0.5+0j                       1            0\n    5  β³     +0.5+0j                       1            0\n    6  α¹     -0.5+0j                       1            3.14159\n    7  α²     -0.5+0j                       1            3.14159\n    8  α³     -0.5+0j                       1            3.14159\n',
     ''),
    (['fusion', '--model', 'qutrit'],
     0, 'model: qutrit\nring flags: associative=False commutative=True\n1 x 1 -> (+1+0j) 1\n1 x δ¹ -> (-0.5+0j) δ¹\n1 x δ² -> (-0.5+0j) δ²\n1 x β¹ -> (+0.5+0j) β¹\n1 x β² -> (+0.5+0j) β²\n1 x β³ -> (+0.5+0j) β³\n1 x α¹ -> (-0.5+0j) α¹\n1 x α² -> (-0.5+0j) α²\n1 x α³ -> (-0.5+0j) α³\nδ¹ x 1 -> (-0.5+0j) δ¹\nδ¹ x δ¹ -> (-0.333333333333+0j) 1 + (+0.333333333333+0j) δ¹ + (-0.666666666667+0j) δ²\nδ¹ x δ² -> (-0.166666666667+0j) 1 + (-0.333333333333+0j) δ¹ + (-0.333333333333+0j) δ²\nδ¹ x β¹ -> (-0.5+0j) β¹\nδ¹ x β³ -> (+0.5+0j) β³\nδ¹ x α¹ -> (+0.5+0j) α¹\nδ¹ x α³ -> (-0.5+0j) α³\nδ² x 1 -> (-0.5+0j) δ²\nδ² x δ¹ -> (-0.166666666667+0j) 1 + (-0.333333333333+0j) δ¹ + (-0.333333333333+0j) δ²\nδ² x δ² -> (-0.333333333333+0j) 1 + (-0.666666666667+0j) δ¹ + (+0.333333333333+0j) δ²\nδ² x β¹ -> (-0.5+0j) β¹\nδ² x β² -> (+0.5+0j) β²\nδ² x α¹ -> (+0.5+0j) α¹\nδ² x α² -> (-0.5+0j) α²\nβ¹ x 1 -> (+0.5+0j) β¹\nβ¹ x δ¹ -> (-0.5+0j) β¹\nβ¹ x δ² -> (-0.5+0j) β¹\nβ¹ x β¹ -> (+0.333333333333+0j) 1 + (-0.333333333333+0j) δ¹ + (-0.333333333333+0j) δ²\nβ¹ x β² -> (+0.5+0j) β³\nβ¹ x β³ -> (+0.5+0j) β²\nβ¹ x α² -> (-0.5+0j) α³\nβ¹ x α³ -> (-0.5+0j) α²\nβ² x 1 -> (+0.5+0j) β²\nβ² x δ² -> (+0.5+0j) β²\nβ² x β¹ -> (+0.5+0j) β³\nβ² x β² -> (+0.333333333333+0j) 1 + (-0.333333333333+0j) δ¹ + (+0.666666666667+0j) δ²\nβ² x β³ -> (+0.5+0j) β¹\nβ² x α¹ -> (+0.5+0j) α³\nβ² x α³ -> (+0.5+0j) α¹\nβ³ x 1 -> (+0.5+0j) β³\nβ³ x δ¹ -> (+0.5+0j) β³\nβ³ x β¹ -> (+0.5+0j) β²\nβ³ x β² -> (+0.5+0j) β¹\nβ³ x β³ -> (+0.333333333333+0j) 1 + (+0.666666666667+0j) δ¹ + (-0.333333333333+0j) δ²\nβ³ x α¹ -> (-0.5+0j) α²\nβ³ x α² -> (-0.5+0j) α¹\nα¹ x 1 -> (-0.5+0j) α¹\nα¹ x δ¹ -> (+0.5+0j) α¹\nα¹ x δ² -> (+0.5+0j) α¹\nα¹ x β² -> (+0.5+0j) α³\nα¹ x β³ -> (-0.5+0j) α²\nα¹ x α¹ -> (-0.333333333333+0j) 1 + (+0.333333333333+0j) δ¹ + (+0.333333333333+0j) δ²\nα¹ x α² -> (-0.5+0j) β³\nα¹ x α³ -> (+0.5+0j) β²\nα² x 1 -> (-0.5+0j) α²\nα² x δ² -> (-0.5+0j) α²\nα² x β¹ -> (-0.5+0j) α³\nα² x β³ -> (-0.5+0j) α¹\nα² x α¹ -> (-0.5+0j) β³\nα² x α² -> (-0.333333333333+0j) 1 + (+0.333333333333+0j) δ¹ + (-0.666666666667+0j) δ²\nα² x α³ -> (-0.5+0j) β¹\nα³ x 1 -> (-0.5+0j) α³\nα³ x δ¹ -> (-0.5+0j) α³\nα³ x β¹ -> (-0.5+0j) α²\nα³ x β² -> (+0.5+0j) α¹\nα³ x α¹ -> (+0.5+0j) β²\nα³ x α² -> (-0.5+0j) β¹\nα³ x α³ -> (-0.333333333333+0j) 1 + (-0.666666666667+0j) δ¹ + (+0.333333333333+0j) δ²\n',
     ''),
    (['ope', '--model', 'qutrit', 'δ¹', 'δ²'],
     0, '1      coeff -0.166666666667+0j            D-exponent -2\nδ¹     coeff -0.333333333333+0j            D-exponent -1\nδ²     coeff -0.333333333333+0j            D-exponent -1\n',
     ''),
    (['correlator', '--model', 'qutrit', '--at', '0', '--at', '1/1180591620717411303424', '--fields', 'δ¹', 'δ¹'],
     1, '',
     'error: maximum partition level 64 exceeded\n'),
    (['correlator', '--model', 'qutrit', '--request', REQUEST_16, '--json'],
     0, '{"minimal_supporting_partition": ["0/8", "2/16", "6/32", "7/32", "2/8", "12/32", "13/32", "28/64", "29/64", "15/32", "16/32", "68/128", "69/128", "35/64", "9/16", "10/16", "11/16", "6/8", "7/8"], "value": [6.148914691236492e+18, 0.0]}\n',
     ''),
    (['correlator', '--model', 'qutrit', '--request', REQUEST_32, '--json'],
     0, '{"minimal_supporting_partition": ["0/16", "4/64", "10/128", "22/256", "23/256", "12/128", "13/128", "7/64", "8/64", "18/128", "19/128", "10/64", "22/128", "92/512", "1488/8192", "1489/8192", "745/4096", "373/2048", "187/1024", "47/256", "3/16", "8/32", "72/256", "146/512", "147/512", "37/128", "19/64", "5/16", "3/8", "8/16", "72/128", "73/128", "37/64", "19/32", "10/16", "22/32", "92/128", "186/256", "187/256", "47/64", "48/64", "49/64", "25/32", "104/128", "210/256", "211/256", "53/64", "27/32", "112/128", "113/128", "57/64", "58/64", "59/64", "15/16"], "value": [-1.3469614140517103e+58, 0.0]}\n',
     ''),
    (['correlator', '--model', 'qutrit', '--request', REQUEST_16_STATE, '--json'],
     0, '{"minimal_supporting_partition": ["0/8", "8/64", "18/128", "19/128", "10/64", "11/64", "3/16", "2/8", "6/16", "14/32", "30/64", "124/256", "125/256", "63/128", "2/4", "12/16", "13/16", "56/64", "456/512", "457/512", "229/256", "115/128", "29/32", "15/16"], "value": [2.518595457530464e+22, 0.0]}\n',
     ''),
]


@pytest.mark.parametrize("argv,code,out,err", GOLDEN_CORRELATOR,
                         ids=[f"{argv[0]}-{i}" for i, (argv, *_) in
                              enumerate(GOLDEN_CORRELATOR)])
def test_correlator_golden_stdout(capsys, tmp_path, argv, code, out, err):
    request = tmp_path / "request.json"
    for arg in argv:
        if isinstance(arg, dict):
            request.write_text(json.dumps(arg), encoding="utf-8")
    argv = [str(request) if isinstance(arg, dict) else arg for arg in argv]
    assert run(capsys, *argv) == (code, out, err)


# two n = 256 delta-sector requests whose float evaluation leaves double
# range and comes out as nan+nanj
CENSUS_OVERFLOW = Path(__file__).with_name("census_overflow.json")


def test_non_finite_correlator_is_refused(capsys, tmp_path):
    # the library returns the nan; the CLI refuses it in one error line,
    # with exit 1 and no numpy warning
    model = preset("qutrit")
    docs = json.loads(CENSUS_OVERFLOW.read_text(encoding="utf-8"))
    assert len(docs) == 2
    for doc in docs:
        with np.errstate(over="ignore", invalid="ignore"):
            assert cmath.isnan(co.n_point(co.request_from_document(doc, model), model))
        request = tmp_path / "request.json"
        request.write_text(json.dumps(doc), encoding="utf-8")
        for command in ("correlator", "oracle-diff"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = run(capsys, command, "--model", "qutrit", "--request", str(request))
            assert result == (1, "", "error: magnitude overflow: the correlator "
                                     "leaves double range\n")
            assert caught == []


def test_slope_exponent_bounded_before_power(capsys, tmp_path):
    # 2^c for c = 10^12 would need about 125 GB; the range check comes first
    state = {"pieces": [["0", "0", 10 ** 12]]}
    request = tmp_path / "pieces.json"
    request.write_text(json.dumps({"positions": ["1/4"], "labels": ["δ¹"],
                                   "state": state}))
    message = "error: not a Thompson map: slope exponent out of range\n"
    for argv in (["thompson", "reduce", json.dumps(state)],
                 ["correlator", "--model", "qutrit", "--request", str(request)]):
        start = time.perf_counter()
        result = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert result == (1, "", message)


def test_decimal_exponents_bounded_before_power(capsys, tmp_path):
    # Fraction(str) computes 10^|e| in full, so a 12-byte literal can run for
    # minutes; a literal whose value would need more than 10^6 digits is
    # refused before that, and a value past CPython's int/str digit limit is
    # not printed.  Each point runs in a fresh interpreter under a timeout,
    # as from a shell
    src = Path(__file__).resolve().parent.parent / "src"
    for x, message in (
            ("1e-100000000", "point '1e-100000000' needs more than 1000000 digits"),
            ("1e+99999999", "point '1e+99999999' needs more than 1000000 digits"),
            ("1e5000", f"a value of more than {sys.get_int_max_str_digits()} digits "
                       "is not in [0,1)"),
            ("1e-5000", "maximum partition level 64 exceeded")):
        proc = subprocess.run([sys.executable, "-m", "treefield", "correlator",
                               "--model", "qutrit", "--at", "0", "--at", x,
                               "--fields", "d1", "d1"],
                              capture_output=True, text=True, timeout=20,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")
    # the other commands that read points share the parse, and breakpoint
    # tables read their coordinates through the same bound
    state = {"pieces": [["0", "1e-100000000", 0]]}
    request = tmp_path / "pieces.json"
    request.write_text(json.dumps({"positions": ["1/4"], "labels": ["δ¹"],
                                   "state": state}))
    point = "error: point '1e-100000000' needs more than 1000000 digits\n"
    piece = "error: piece coordinate '1e-100000000' needs more than 1000000 digits\n"
    for argv, message in (
            (["thompson", "apply", "A", "1e-100000000"], point),
            (["staircase", "--model", "qutrit", "--x", "1e-100000000",
              "--alpha", "d1", "--beta", "d1", "--grid", "2"], point),
            (["thompson", "reduce", json.dumps(state)], piece),
            (["correlator", "--model", "qutrit", "--request", str(request)], piece)):
        start = time.perf_counter()
        result = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert result == (1, "", message)


def test_pieces_tables_bounded_before_enumeration(capsys, tmp_path):
    # the rotation by 2^-k reduces to 2^k leaf pairs: k = 12 is read, and
    # k = 13 and a 40-byte table with k = 40 are refused from the count
    def rotation(k):
        return {"pieces": [["0", f"1/{1 << k}", 0]]}

    code, out, err = run(capsys, "thompson", "reduce", json.dumps(rotation(12)))
    assert (code, err) == (0, "")
    assert th.element_from_document(json.loads(out)).n_leaves == 4096
    request = tmp_path / "pieces.json"
    for k in (13, 40):
        request.write_text(json.dumps({"positions": ["1/4"], "labels": ["δ¹"],
                                       "state": rotation(k)}))
        message = f"error: pieces table has {1 << k} leaf pairs; at most 4096 are allowed\n"
        for argv in (["thompson", "reduce", json.dumps(rotation(k))],
                     ["correlator", "--model", "qutrit", "--request", str(request)]):
            start = time.perf_counter()
            result = run(capsys, *argv)
            assert time.perf_counter() - start < 1.0
            assert result == (1, "", message)


def test_deep_pieces_tables_read_back(capsys):
    # A^63 has slopes down to 2^-63 and leaves at level 64; its breakpoint
    # table and that of a 200-generator word reduce to the word's element
    rng = np.random.default_rng(200)
    word = " ".join(g + inv for g, inv in zip(rng.choice(list("ABCS"), 200),
                                              rng.choice(["", "^-1"], 200)))
    for word in ("A " * 63, word):
        e = th.parse_word(word)
        rows = [[str(p.x), str(p.y), p.c] for p in to_piecewise(e).pieces]
        start = time.perf_counter()
        result = run(capsys, "thompson", "reduce", json.dumps({"pieces": rows}))
        assert time.perf_counter() - start < 1.0
        assert result == (0, json.dumps(th.element_to_document(e), sort_keys=True) + "\n", "")


def nested_comb(depth):
    return "[0, " * depth + "0" + "]" * depth


def test_nested_documents(capsys, tmp_path):
    # the parser's depth limit counts the caller's stack, so the deepest
    # document that reduces is run from a fresh interpreter, as from a shell
    comb = nested_comb(980)
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-m", "treefield", "thompson", "reduce",
                           f'{{"domain": {comb}, "range": {comb}}}'],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {"domain": 0, "range": 0, "rotation": 0}
    deep = nested_comb(3000)
    request = tmp_path / "deep_request.json"
    request.write_text(f'{{"positions": ["1/4"], "labels": ["δ¹"], "state": '
                       f'{{"domain": {deep}, "range": {deep}}}}}')
    model = tmp_path / "deep_model.json"
    model.write_text(f'{{"name": "deep", "kind": "isometry", "isometry": {deep}}}')
    for argv in (["thompson", "reduce", f'{{"domain": {deep}, "range": 0}}'],
                 ["correlator", "--model", "qutrit", "--request", str(request)],
                 ["spectrum", "--model", str(model)]):
        assert run(capsys, *argv) == (1, "", "error: document nested too deeply\n")


# ---------------------------------------------------------------------------
# argv fuzz: every subcommand, bounded sizes, in-process

FRACTIONS = st.builds(lambda q, p: f"{p % q}/{q}", st.integers(1, 8), st.integers(0, 7))
POINTS = st.one_of(
    FRACTIONS, FRACTIONS,
    st.builds(lambda bits: "0." + bits, st.text("01", min_size=1, max_size=5)),
    st.sampled_from(["0", "1", "1/0", "-1/3", "0.", "0.12", "nan", "x", "", "1e400"]))
LABELS = st.sampled_from(["1", "δ¹", "δ¹", "d2", "d2", "β³", "a1", "τ", "τ", "tau", "0",
                          "8", "9", "-1", "zz", ""])
TOKENS = st.sampled_from(["A", "B", "C", "S", "A-1", "B^-1", "C⁻¹", "S-1"] * 3 + ["D", "A-2"])
WORDS = st.lists(TOKENS, min_size=1, max_size=20)
JUNK = st.sampled_from([5, -1, 1.5, "x", "", None, True, [], {}, [0], [[1, 2]]])
TREES = st.recursive(st.sampled_from([0, 0, 0, 1, "x"]),
                     lambda kids: st.lists(kids, min_size=2, max_size=2),
                     max_leaves=12)
COORDINATES = st.one_of(POINTS, st.sampled_from([0, 0.5, 0.25, 1, 2, None, "1/3"]))
PIECES = st.lists(st.one_of(
    st.tuples(COORDINATES, COORDINATES,
              st.one_of(st.integers(-4, 4), st.sampled_from([70, -70, 10 ** 12]))).map(list),
    JUNK), max_size=4)
STATES = st.one_of(
    WORDS.map(" ".join),
    st.builds(lambda w: {"word": w}, st.one_of(WORDS.map(" ".join), JUNK)),
    st.builds(lambda rows: {"pieces": rows}, st.one_of(PIECES, JUNK)),
    st.fixed_dictionaries({"domain": TREES, "range": TREES},
                          optional={"rotation": st.one_of(st.integers(-3, 3), JUNK)}),
    st.just("vacuum"), JUNK)


def point_lists(n):
    """n points: drawn freely, or distinct and increasing so that a request
    of n points gets past the position checks."""
    ordered = st.sampled_from([8, 12, 255, 256]).flatmap(
        lambda q: st.lists(st.integers(0, q - 1), min_size=n, max_size=n, unique=True)
        .map(lambda ks: [f"{k}/{q}" for k in sorted(ks)]))
    return st.one_of(st.lists(POINTS, min_size=n, max_size=n), ordered)


# the label spellings a request document adds to LABELS: padded names,
# digit strings ("2" is index 2, "٣" index 3, "²" is a digit but no int),
# JSON ints in and out of range, booleans and null
DOCUMENT_LABELS = st.one_of(LABELS, st.sampled_from(
    [" δ¹", "d2 ", "\tβ³\n", " 1 ", "2", "٣", "²", "10", 0, 4, 8, 9, -1, True, False, None]))


def label_lists(n, labels=LABELS):
    """n labels: drawn freely, or all qutrit labels so that n of them pass."""
    valid = st.sampled_from(["1", "δ¹", "d2", "β³", "a1", "α²"])
    return st.one_of(st.lists(labels, min_size=n, max_size=n),
                     st.lists(valid, min_size=n, max_size=n))


REQUESTS = st.one_of(
    st.integers(2, 8).flatmap(lambda n: st.fixed_dictionaries(
        {"positions": point_lists(n),
         "labels": st.sampled_from([n, n, n, n - 1, n + 1]).flatmap(
             lambda k: label_lists(k, DOCUMENT_LABELS))},
        optional={"state": STATES})),
    st.fixed_dictionaries(
        {}, optional={"positions": st.one_of(st.lists(st.one_of(POINTS, JUNK), max_size=3), JUNK),
                      "labels": st.one_of(st.lists(st.one_of(LABELS, JUNK), max_size=3), JUNK),
                      "state": STATES}))
MODEL_KEYS = ["name", "kind", "labels", "aliases", "d", "isometry", "channel",
              "fusion", "moments", "pinned_basis"]
SUBDOCUMENT_KEYS = {"fusion": ["labels", "coefficients", "tol"],  # fibonacci
                    "pinned_basis": ["eigenvalues", "mus"]}      # qutrit


def zeroed(value):
    return [zeroed(v) for v in value] if isinstance(value, list) else 0.0


@st.composite
def model_documents(draw):
    doc = to_document(preset(draw(st.sampled_from(["qutrit", "fibonacci"]))))
    for name, keys in SUBDOCUMENT_KEYS.items():
        sub = doc.get(name)
        if sub is None:
            continue
        for key in draw(st.lists(st.sampled_from(keys), max_size=2)):
            value = sub.get(key)
            how = draw(st.sampled_from(["pop", "junk", "short", "entry", "zeros"]))
            if how == "pop":
                sub.pop(key, None)
            elif how == "junk" or not (isinstance(value, list) and value):
                sub[key] = draw(st.one_of(JUNK, st.sampled_from([0, -1.0, 1e300, math.nan])))
            elif how == "short":
                sub[key] = value[:-1]
            elif how == "entry":  # one entry mistyped
                sub[key] = [draw(JUNK)] + value[1:]
            else:  # right shape, all zero: zero eigenvalues, singular matrix units
                sub[key] = zeroed(value)
    for key in draw(st.lists(st.sampled_from(MODEL_KEYS), max_size=2)):
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(st.one_of(JUNK, st.sampled_from(["isometry", "abstract"])))
    return doc


@st.composite
def argvs(draw, directory):
    def model():
        choice = draw(st.sampled_from(["qutrit", "qutrit", "fibonacci", "file", "nope"]))
        if choice != "file":
            return ["--model", choice]
        path = directory / "model.json"
        path.write_text(json.dumps(draw(model_documents())))
        return ["--model", str(path)]

    def request(most):
        # oracle-diff builds a d^leaves state: two points keep it below 3^9
        if draw(st.booleans()):
            doc = draw(REQUESTS)
            if isinstance(doc.get("positions"), list):
                doc["positions"] = doc["positions"][:most]
            path = directory / "request.json"
            path.write_text(json.dumps(doc))
            return ["--request", str(path)]
        n = draw(st.integers(1, most))
        out = [arg for p in draw(point_lists(n)) for arg in ("--at", p)]
        out += ["--fields", *draw(label_lists(n))]
        if draw(st.booleans()):
            out += ["--state", " ".join(draw(WORDS))]
        return out

    def size(bound):
        return draw(st.sampled_from([str(k) for k in range(-1, bound + 1)] * 3 + ["x", ""]))

    cmd = draw(st.sampled_from(["spectrum", "fusion", "ope", "correlator", "oracle-diff",
                                "staircase", "thompson", "check", "model-export"]))
    if cmd == "thompson":
        action = draw(st.sampled_from(["compose", "reduce", "schwarzian", "apply"]))
        if action == "reduce":
            text = draw(st.one_of(STATES.map(json.dumps),
                                  st.sampled_from(["{", "[0, ", "5", "x"])))
            return [cmd, action, text]
        if action == "apply":
            return [cmd, action, " ".join(draw(WORDS)), *draw(st.lists(POINTS, max_size=3))]
        return [cmd, action, *draw(WORDS)]
    argv = [cmd, *model()]
    if draw(st.booleans()):
        argv.append("--json")
    if cmd == "ope":
        argv += [draw(LABELS), draw(LABELS)]
    elif cmd in ("correlator", "oracle-diff"):
        argv += request(8 if cmd == "correlator" else 2)
    elif cmd == "staircase":
        argv += ["--x", draw(POINTS), "--alpha", draw(LABELS), "--beta", draw(LABELS),
                 "--depth", size(5), "--grid", size(5)]
        if draw(st.booleans()):
            argv += ["-o", str(directory / "stairs.csv")]
    elif cmd == "check":
        argv += [draw(st.sampled_from(["perfect", "swap", "rotation", "modular"])),
                 "--element", " ".join(draw(WORDS)), "--level", size(3)]
    return argv


@settings(max_examples=200)
@given(data=st.data())
def test_cli_fuzz(tmp_path_factory, data):
    """Exit 0, or exit 1 or 2 with `error:` on the last stderr line; an
    exception escaping `main` fails the example."""
    argv = data.draw(argvs(tmp_path_factory.mktemp("fuzz")), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code:
        assert "error:" in err.getvalue().splitlines()[-1]
