"""Writes `cli.jsonl`, a characterization corpus of the `treefield` CLI.

Every command below runs in process through `treefield.cli.main`; the corpus
holds one JSON line per command, {"argv", "stdout", "stderr", "code"}, after
a header line that records the Python and numpy versions the outputs were
made with.  `tests/test_corpus.py` replays each line and compares bytes.

Paths in the commands are relative to this directory, which the script (and
the replay) make the working directory; the input files they name are
written here first.  Run from the repository root:

    PYTHONPATH=src python3 tests/corpus/make_corpus.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import sys
from pathlib import Path
from typing import List, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "cli.jsonl"
# argparse wraps its usage lines to the terminal width
ENVIRONMENT = {"COLUMNS": "80", "LINES": "24"}


def header() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def run_command(argv: List[str]) -> Tuple[str, str, int]:
    """(stdout, stderr, exit code) of `treefield argv`, in process."""
    from treefield.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return out.getvalue(), err.getvalue(), code


def input_files() -> dict:
    """File name -> JSON document, for the commands that read files."""
    from treefield.models import degenerate_isometry, preset, to_document
    from treefield.spectral import complex_array_to_lists

    abstract = to_document(preset("fibonacci"))
    abstract["moments"] = [[1.0, 0.0], [0.25, 0.0]]
    census = json.loads((HERE.parent / "census_overflow.json").read_text(encoding="utf-8"))
    files = {
        "degenerate.json": {"name": "degenerate", "kind": "isometry",
                            "isometry": complex_array_to_lists(degenerate_isometry(3).matrix)},
        "abstract.json": abstract,
        "no_kind.json": {"name": "x"},
        "bad_kind.json": {"name": "x", "kind": "tensor"},
        "census_0.json": census[0],
        "request_3.json": {"positions": ["1/7", "2/3", "5/6"], "labels": ["β¹", "β²", "β³"]},
        "request_state.json": {"positions": ["0", "1/3", "5/8", "7/8"],
                               "labels": ["δ¹", "δ¹", "δ²", "δ²"],
                               "state": {"word": "C B-1 A S"}},
        "request_tree_state.json": {"positions": ["1/4", "1/2"], "labels": ["δ¹", "δ¹"],
                                    "state": {"domain": [0, [0, 0]],
                                              "range": [[0, 0], 0]}},
        "no_labels.json": {"positions": ["1/4", "1/2"]},
        "no_positions.json": {"labels": ["δ¹", "δ¹"]},
        "bool_labels.json": {"positions": ["1/3", "2/3"], "labels": [True, False]},
    }
    pieces = {
        "rotation_8": [["0", "1/256", 0]],
        "rotation_12": [["0", "1/4096", 0]],
        "rotation_13": [["0", "1/8192", 0]],
        "rotation_40": [["0", f"1/{1 << 40}", 0]],
        "a": [["0", "0", -1], ["1/2", "1/4", 0], ["3/4", "1/2", 1]],
        "cover": [["0", "0", 1], ["1/2", "1/4", 0], ["3/4", "1/2", -1]],
        "gap": [["0", "0", 0], ["1/2", "1/4", 0]],
        "slope": [["0", "0", 10 ** 12]],
    }
    for name, rows in pieces.items():
        files[f"pieces_{name}.json"] = {"positions": ["1/4", "5/8"],
                                        "labels": ["δ¹", "δ²"],
                                        "state": {"pieces": rows}}
    return files


def json_too(*argvs: List[str]) -> List[List[str]]:
    """Each command in table mode and in `--json` mode."""
    return [a for argv in argvs for a in (argv, argv + ["--json"])]


QUTRIT = ["--model", "qutrit"]
FIBONACCI = ["--model", "fibonacci"]
DEGENERATE = ["--model", "degenerate.json"]

# (positions, labels) of the oracle-diff requests
ORACLE_REQUESTS = [
    (["0", "1/2"], ["δ¹", "δ¹"]),
    (["0", "1/2"], ["δ¹", "δ²"]),
    (["1/3", "2/3"], ["δ²", "δ²"]),
    (["1/4", "5/8"], ["δ¹", "δ²"]),
    (["1/7", "2/3", "5/6"], ["δ¹", "δ²", "δ¹"]),
    (["0", "1/3", "5/8", "7/8"], ["δ¹", "δ¹", "δ²", "δ²"]),
    (["1/5", "2/5", "3/5", "4/5"], ["δ¹", "δ²", "δ¹", "δ²"]),
    (["3/16", "1/4", "13/16"], ["δ²", "δ¹", "δ¹"]),
    (["0.011", "0.1"], ["d1", "d2"]),
    (["1/9", "1/8"], ["δ¹", "δ¹"]),
    (["0", "1/64"], ["δ²", "δ²"]),
    (["5/11", "6/11", "7/11"], ["δ¹", "δ¹", "δ¹"]),
    (["1/3", "1/2", "2/3", "5/6", "11/12"], ["δ¹", "δ²", "δ²", "δ¹", "δ²"]),
    (["1/2", "3/4"], ["1", "δ¹"]),
    (["1/7", "2/3"], ["β¹", "β²"]),
    (["1/4", "3/4"], ["α¹", "α¹"]),
    (["0", "1/4", "1/2", "3/4"], ["β³", "β³", "α²", "α²"]),
    (["1/10", "3/10", "7/10"], ["δ¹", "β¹", "β¹"]),
    (["1/6", "1/3", "1/2", "2/3", "5/6"], ["δ¹", "δ¹", "δ¹", "δ¹", "δ¹"]),
    (["0", "1/8", "1/4", "3/8", "1/2", "5/8"], ["δ¹", "δ²", "δ¹", "δ²", "δ¹", "δ²"]),
    (["13/32", "7/16"], ["δ²", "δ¹"]),
    (["2/7", "4/7", "6/7"], ["d2", "d2", "d1"]),
]
MODULAR_WORDS = ["S", "C", "A", "A B", "B C⁻¹"]


def point_args(positions, labels) -> List[str]:
    return [arg for p in positions for arg in ("--at", p)] + ["--fields", *labels]


def commands() -> List[List[str]]:
    out: List[List[str]] = []
    # spectrum, fusion, ope, model-export
    for model in (QUTRIT, FIBONACCI, DEGENERATE):
        out += json_too(["spectrum", *model], ["fusion", *model])
    out += json_too(["ope", *QUTRIT, "δ¹", "δ²"], ["ope", *QUTRIT, "d1", "d1"],
                    ["ope", *QUTRIT, "β¹", "α²"], ["ope", *FIBONACCI, "τ", "τ"],
                    ["ope", *QUTRIT, "δ¹", "nope"], ["ope", *QUTRIT, "9", "0"])
    out += json_too(["model-export", *QUTRIT], ["model-export", *FIBONACCI],
                    ["model-export", *DEGENERATE])
    # models that are not there or not valid
    for ref in ("nope", "no_kind.json", "bad_kind.json", "."):
        out += json_too(["spectrum", "--model", ref])
    # correlators
    out += json_too(
        ["correlator", *QUTRIT, *point_args(["0", "1/2"], ["δ¹", "δ¹"])],
        ["correlator", *QUTRIT, *point_args(["0", "1/3", "5/8", "7/8"],
                                            ["δ¹", "δ¹", "δ²", "δ²"])],
        ["correlator", *QUTRIT, *point_args(["1/4", "5/8"], ["δ¹", "δ¹"]), "--state", "A"],
        ["correlator", "--model", "abstract.json",
         *point_args(["0", "1/2"], ["τ", "τ"])],
        ["correlator", *QUTRIT, "--request", "request_3.json"],
        ["correlator", *QUTRIT, "--request", "request_state.json"],
        ["correlator", *QUTRIT, "--request", "request_tree_state.json"],
        ["correlator", *QUTRIT, "--request", "census_0.json"],
        ["correlator", *QUTRIT, *point_args(["1/4", "1/4"], ["δ¹", "δ¹"])],
        ["correlator", *QUTRIT, *point_args(["1/2", "1/4"], ["δ¹", "δ¹"])],
        ["correlator", *QUTRIT, *point_args(["1/0"], ["δ¹"])],
        ["correlator", *QUTRIT, *point_args(["3/2"], ["δ¹"])],
        ["correlator", *QUTRIT, *point_args(["0", "1/1180591620717411303424"],
                                            ["δ¹", "δ¹"])],
        ["correlator", *QUTRIT, "--at", "0", "--at", "1/2", "--fields", "δ¹"],
        ["correlator", *QUTRIT, "--at", "0"],
        ["correlator", *QUTRIT, *point_args(["0", "1/2"], ["δ¹", "δ¹"]), "--state", "D"],
        ["correlator", *QUTRIT, *point_args(["0", "1/2"], ["δ¹", "δ¹"]),
         "--state", " ".join(["A"] * 1025)],
        ["correlator", *QUTRIT, "--request", "no_labels.json"],
        ["correlator", *QUTRIT, "--request", "no_positions.json"],
        ["correlator", *QUTRIT, "--request", "bool_labels.json"],
        ["correlator", *QUTRIT, "--request", "missing.json"],
    )
    for name in ("rotation_8", "rotation_12", "a", "cover", "gap", "slope",
                 "rotation_13", "rotation_40"):
        out += json_too(["correlator", *QUTRIT, "--request", f"pieces_{name}.json"])
    # oracle-diff
    for positions, labels in ORACLE_REQUESTS:
        out += json_too(["oracle-diff", *QUTRIT, *point_args(positions, labels)])
    out += json_too(
        ["oracle-diff", *QUTRIT, "--request", "request_3.json"],
        ["oracle-diff", *QUTRIT, *point_args(["0", "1/2"], ["δ¹", "δ¹"]), "--state", "A A-1"],
        ["oracle-diff", *QUTRIT, *point_args(["0", "1/2"], ["δ¹", "δ¹"]), "--state", "A"],
        ["oracle-diff", *QUTRIT, "--request", "census_0.json"],
        ["oracle-diff", "--model", "abstract.json", *point_args(["0", "1/2"], ["τ", "τ"])],
        ["oracle-diff", *FIBONACCI, *point_args(["0", "1/2"], ["τ", "τ"])],
        ["oracle-diff", *QUTRIT, *point_args([f"{k}/16" for k in range(16)], ["δ¹"] * 16)],
    )
    # staircase
    out += json_too(
        ["staircase", *QUTRIT, "--x", "3/8", "--alpha", "δ¹", "--beta", "δ¹",
         "--depth", "5", "--grid", "3"],
        ["staircase", *QUTRIT, "--x", "1/3", "--alpha", "β¹", "--beta", "β¹",
         "--depth", "4", "--grid", "2"],
        ["staircase", *FIBONACCI, "--x", "0", "--alpha", "τ", "--beta", "τ", "--grid", "2"],
        ["staircase", *QUTRIT, "--x", "0", "--alpha", "δ¹", "--beta", "δ¹", "--depth", "70"],
        ["staircase", *QUTRIT, "--x", "0", "--alpha", "δ¹", "--beta", "δ¹", "--grid", "-1"],
        ["staircase", *QUTRIT, "--x", "0", "--alpha", "δ¹", "--beta", "δ¹", "--grid", "1",
         "-o", "missing/out.csv"],
    )
    # thompson (no --json: its outputs are JSON or plain lines already)
    words = ["A C", "B A^-1 C S", "C C C", "S A B⁻¹ C-1 A A", "A⁻¹ B⁻¹ A B"]
    for word in words:
        out.append(["thompson", "compose", *word.split()])
        out.append(["thompson", "schwarzian", *word.split()])
        out.append(["thompson", "apply", word, "0", "1/3", "1/2", "0.1011", "3/4"])
        out.append(["thompson", "reduce", json.dumps({"word": word})])
    out += [
        ["thompson", "reduce", '{"domain": [0, [[0, 0], 0]], "range": [[[0, 0], 0], 0], '
                               '"rotation": 3}'],
        ["thompson", "reduce", json.dumps({"pieces": [["0", "0", -1], ["1/2", "1/4", 0],
                                                      ["3/4", "1/2", 1]]})],
        ["thompson", "reduce", json.dumps({"pieces": [["0", "0", 1], ["1/2", "1/4", 0],
                                                      ["3/4", "1/2", -1]]})],
        ["thompson", "reduce", json.dumps({"pieces": [["0", "1/256", 0]]})],
        ["thompson", "compose", *["A"] * 63],
        ["thompson", "compose", *["A"] * 64],
        ["thompson", "compose", *["S"] * 1025],
        ["thompson", "compose", "D"],
        ["thompson", "apply", "A"],
        ["thompson", "apply", "A", "1/0"],
        ["thompson", "reduce", '{"word":"A"}', "extra"],
        ["thompson", "reduce", "{"],
        ["thompson", "reduce", json.dumps({"rotation": 1})],
        ["thompson", "reduce", json.dumps({"word": 5})],
        ["thompson", "reduce", json.dumps({"domain": 1, "range": 2})],
        ["thompson", "reduce", json.dumps({"domain": [0, 0], "range": 0})],
        ["thompson", "reduce", json.dumps({"domain": [0, 0], "range": [0, 0],
                                           "rotation": True})],
        ["thompson", "reduce", json.dumps({"pieces": 5})],
        ["thompson", "reduce", json.dumps({"pieces": [["0", "0", 0], ["1/2", "1/4", 0]]})],
        ["thompson", "reduce", json.dumps({"pieces": [["0", "1/3", 0]]})],
        ["thompson", "reduce", json.dumps({"pieces": [["0", "0", 10 ** 12]]})],
        ["thompson", "reduce", json.dumps({"pieces": [["0", "1/8192", 0]]})],
        ["thompson", "reduce", json.dumps({"pieces": [["0", f"1/{1 << 40}", 0]]})],
    ]
    # checks
    for model in (QUTRIT, DEGENERATE):
        out += json_too(*(["check", *model, what] for what in ("perfect", "swap", "rotation")))
    for word in MODULAR_WORDS:
        for level in ("1", "2", "3"):
            out += json_too(["check", *QUTRIT, "modular", "--element", word, "--level", level])
    out += json_too(
        ["check", *DEGENERATE, "modular", "--element", "A", "--level", "2"],
        ["check", *QUTRIT, "modular", "--level", "-1"],
        ["check", *QUTRIT, "modular", "--level", "21"],
        ["check", *QUTRIT, "modular", "--level", "5"],
        ["check", *QUTRIT, "modular", "--element", "Q"],
        ["check", *FIBONACCI, "perfect"],
    )
    # usage errors (exit 2)
    out += [[], ["bogus-subcommand"], ["spectrum"], ["check", *QUTRIT, "nothing"],
            ["staircase", *QUTRIT, "--x", "0", "--alpha", "0", "--beta", "0", "--depth", "x"],
            ["thompson", "invert", "A"]]
    return out


def main() -> None:
    os.chdir(HERE)
    os.environ.update(ENVIRONMENT)
    for name, doc in input_files().items():
        (HERE / name).write_text(json.dumps(doc, ensure_ascii=False, sort_keys=True) + "\n",
                                 encoding="utf-8")
    lines = [json.dumps(header(), sort_keys=True)]
    for argv in commands():
        stdout, stderr, code = run_command(argv)
        lines.append(json.dumps({"argv": argv, "stdout": stdout, "stderr": stderr,
                                 "code": code}, ensure_ascii=False, sort_keys=True))
    CORPUS.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{CORPUS.name}: {len(lines) - 1} commands", file=sys.stderr)


if __name__ == "__main__":
    main()
