import json
import time

import pytest

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
    # MAX_LEVEL = 64 admits A^63 and refuses A^64, also as a prefix product
    deep = "error: not a Thompson map: no dyadic domain tree found\n"
    code, out, err = run(capsys, "thompson", "compose", *["A"] * 63)
    assert code == 0 and err == ""
    code, out2, _ = run(capsys, "thompson", "reduce", comb_document(63))
    assert code == 0 and out2 == out
    for word in (["A"] * 64, ["A"] * 64 + ["A^-1"]):
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
    # state documents of the wrong type, as requests and as `thompson reduce`
    bad_states = [({"rotation": 1}, "state document needs"),
                  ({"word": 5}, "'word' must be a string"),
                  ({"domain": 1, "range": 2}, "tree documents nest"),
                  ({"pieces": 5}, "'pieces' must be a list")]
    corr = ["correlator", "--model", "qutrit"]
    cases = [
        (corr + ["--at", "1/4", "--at", "1/4", "--fields", "δ¹", "δ¹"], "coincident"),
        (corr + ["--at", "1/0", "--fields", "δ¹"], "zero denominator"),
        (corr + ["--request", str(no_labels)], "list 'labels'"),
        (corr + ["--request", str(no_positions)], "list 'positions'"),
    ]
    for k, (state, message) in enumerate(bad_states):
        bad_state = tmp_path / f"bad_state_{k}.json"
        bad_state.write_text(json.dumps({"positions": ["1/4"], "labels": ["δ¹"],
                                         "state": state}))
        cases.append((corr + ["--request", str(bad_state)], message))
        cases.append((["thompson", "reduce", json.dumps(state)], message))
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
