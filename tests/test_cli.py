import json

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
    bad_state = tmp_path / "bad_state.json"
    bad_state.write_text(json.dumps({"positions": ["1/4"], "labels": ["δ¹"],
                                     "state": {"rotation": 1}}))
    cases = [
        (["--at", "1/4", "--at", "1/4", "--fields", "δ¹", "δ¹"], "coincident"),
        (["--at", "1/0", "--fields", "δ¹"], "zero denominator"),
        (["--request", str(no_labels)], "list 'labels'"),
        (["--request", str(no_positions)], "list 'positions'"),
        (["--request", str(bad_state)], "state document needs"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, "correlator", "--model", "qutrit", *argv)
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
