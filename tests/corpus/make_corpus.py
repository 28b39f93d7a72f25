"""Writes two characterization corpora of `treefield`.

`cli.jsonl`: every command below runs in process through `treefield.cli.main`,
one JSON line per command, {"argv", "stdout", "stderr", "code"}.

`ops.jsonl`: library operations on requests drawn from this script's own
seed (`OPS_SEED`), one JSON line per op, {"op", "input", "output"}: the
output is the `repr` of the value, or the error text.  The ops are vacuum
n-point requests (n = 2..32, a few pair-labelled n = 128 requests and
δ-labelled n = 256 requests beyond double range), depth-8 grid-3 staircase
profiles for x at levels 0..10, and correlators in Thompson-word states.
After those, a block drawn from a second seed of its own (`SPELLINGS_SEED`)
holds correlators in states whose words spell each generator every way
(`A`, `A⁻¹`, `A^-1`, `A-1`), and words with the malformed tokens `D`,
`A^-1-1` and `A⁻¹^-1`.  A third block, from `LABELS_SEED`, spells field
labels every way a request document may (names, ASCII aliases, padded
names, digit strings, JSON ints, booleans, unknown names) and gives
request documents of the wrong shape: non-list `positions` or `labels`,
and lists of unequal length.  A fourth block, from `RUNS_SEED`, holds
correlators in states whose words reach the level cap `MAX_LEVEL` (64):
`A^63`, `A^64` and `A^64 A^-1`, `A^62` and `A^63` followed by `B B^-1`
pairs, `(A^60 A^-60)^k`, words of single-generator runs of 80 to 300
tokens, one random word of 1024 tokens, and a bad token after a prefix
that is too deep and before one; `thompson compose` and `reduce` commands
on the same words close the CLI corpus.  A fifth block, with no seed,
spells points every way a request document may: binary expansions,
decimals and exponents, padded, unreduced and non-ASCII ratios, refused
spellings, and JSON numbers and booleans.  No input above a block moves.

Each file starts with a header line that records the Python and numpy
versions the outputs were made with.  `tests/test_corpus.py` replays each
line and compares bytes.

Paths in the commands are relative to this directory, which the script (and
the replay) make the working directory; the input files they name are
written here first.  Run from the repository root:

    PYTHONPATH=src python3 tests/corpus/make_corpus.py
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import platform
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import List, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "cli.jsonl"
OPS_CORPUS = HERE / "ops.jsonl"
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
        "fewer_labels.json": {"positions": ["1/3", "1/2"], "labels": ["d1"]},
        "more_labels.json": {"positions": ["1/3"], "labels": ["d1", "d2"]},
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
        ["correlator", *QUTRIT, "--request", "fewer_labels.json"],
        ["correlator", *QUTRIT, "--request", "more_labels.json"],
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
    # words at the level cap (the last block of the op corpus)
    for k, word in enumerate(deep_words()):
        out.append(["thompson", "compose", *word.split()])
        if k % 4 == 0:
            out.append(["thompson", "reduce", json.dumps({"word": word})])
    return out


# ---------------------------------------------------------------------------
# library operations

OPS_SEED = 1
SPELLINGS_SEED = 2
LABELS_SEED = 3
RUNS_SEED = 4
SPELLINGS = ("", "⁻¹", "^-1", "-1")
DELTA_LABELS = ("d1", "d2")
PAIR_LABELS = ("b1", "b2", "b3", "a1", "a2", "a3")
STAIRCASE_DEPTH, STAIRCASE_GRID = 8, 3
# qutrit label spellings a request may use: names, ASCII aliases, padded names,
# digit strings ("1" is the label named 1, "2" is index 2, "٣" is index 3) and
# JSON ints; and spellings that name no label
GOOD_LABELS = ("δ¹", "β²", "α³", "1", "d1", "b2", "a3", "id", " d2", "β¹\t", " 1 ",
               "2", "8", " 5 ", "0", "٣", 0, 4, 8)
BAD_LABELS = ("9", "10", 9, -1, True, False, "nope", "δ³", "", "D1", None, 1.5, "²",
              [1], {"d1": 1})
# point spellings a request may use, one or more per branch of the point
# reader, and spellings it refuses; a JSON number or boolean is read as its
# `str`, so 0.1 is the binary expansion 1/2
GOOD_POINTS = ("0.011", " 0.011\t", "0.25", "3e-2", " 1/2 ", "2/4", "١/٢", 0.5, 0.1)
BAD_POINTS = ("1/0", "3/2", "1e-1000000", 1, True)


def _points(rng: random.Random, n: int) -> List[str]:
    """n distinct sorted points: each a/2^16 or p/q with q odd, 3 <= q < 4096."""
    pts = set()
    while len(pts) < n:
        if rng.random() < 0.5:
            pts.add(Fraction(rng.randrange(1 << 16), 1 << 16))
        else:
            q = rng.randrange(3, 4096, 2)
            pts.add(Fraction(rng.randrange(1, q), q))
    return [f"{x.numerator}/{x.denominator}" for x in sorted(pts)]


def _labels(rng: random.Random, n: int, delta: bool) -> List[str]:
    """δ labels, or equal-label pairs (and one δ label when n is odd)."""
    if delta:
        return [rng.choice(DELTA_LABELS) for _ in range(n)]
    out: List[str] = []
    for _ in range(n // 2):
        out += [rng.choice(PAIR_LABELS)] * 2
    return out + [rng.choice(DELTA_LABELS)] * (n % 2)


def _word(rng: random.Random, length: int, suffixes: Tuple[str, ...] = ("", "^-1")) -> str:
    """Freely reduced word over A, B, C, S and their inverses, each token
    spelled with one of `suffixes` ("" for a generator itself)."""
    toks: List[Tuple[str, str]] = []
    while len(toks) < length:
        t = (rng.choice("ABCS"), rng.choice(suffixes))
        if not (toks and toks[-1][0] == t[0] and bool(toks[-1][1]) != bool(t[1])):
            toks.append(t)
    return " ".join(g + s for g, s in toks)


def ops() -> List[Tuple[str, dict]]:
    """(op, input) of every corpus op, drawn from `OPS_SEED`."""
    rng = random.Random(f"ops/{OPS_SEED}")
    out: List[Tuple[str, dict]] = []
    for n in range(2, 33):
        for delta in (True, True, False):
            out.append(("npoint", {"positions": _points(rng, n),
                                   "labels": _labels(rng, n, delta)}))
    for n, delta, count in ((128, False, 4), (256, True, 8)):
        out += [("npoint", {"positions": _points(rng, n), "labels": _labels(rng, n, delta)})
                for _ in range(count)]
    for level in range(11):
        for _ in range(2):
            alpha = rng.choice(DELTA_LABELS + PAIR_LABELS)
            beta = alpha if rng.random() < 0.75 else rng.choice(DELTA_LABELS + PAIR_LABELS)
            out.append(("staircase", {"x": str(Fraction(rng.randrange(1 << level), 1 << level)),
                                      "alpha": alpha, "beta": beta,
                                      "depth": STAIRCASE_DEPTH, "grid": STAIRCASE_GRID}))
    for length in (8, 16, 32):
        for k in range(24):
            doc = {"positions": _points(rng, 4), "labels": _labels(rng, 4, k % 4 != 3)}
            out.append(("npoint", {**doc, "state": {"word": _word(rng, length)}}))
    for _ in range(48):
        n = rng.randint(1, 6)
        doc = {"positions": _points(rng, n), "labels": _labels(rng, n, rng.random() < 0.75)}
        out.append(("npoint", {**doc, "state": {"word": _word(rng, rng.randint(1, 40))}}))
    # neighbours 2^-64 and 2^-65 apart, at the level cap, in the vacuum and in states
    for x, k in ((Fraction(0), 64), (Fraction(1, 3), 64), (Fraction(1, 3), 65)):
        for state in ("vacuum", {"word": "A B"}, {"word": "C S^-1 A"}):
            out.append(("npoint", {"positions": [str(x), str(x + Fraction(1, 1 << k))],
                                   "labels": ["d1", "d2"], "state": state}))
    rng = random.Random(f"spellings/{SPELLINGS_SEED}")
    for length in (8, 16, 32):
        for k in range(8):
            word = _word(rng, length, SPELLINGS)
            while not all(any(t[1:] == s for t in word.split()) for s in SPELLINGS):
                word = _word(rng, length, SPELLINGS)
            doc = {"positions": _points(rng, 4), "labels": _labels(rng, 4, k % 4 != 3)}
            out.append(("npoint", {**doc, "state": {"word": word}}))
    for bad in ("D", "A^-1-1", "A⁻¹^-1"):
        out.append(("npoint", {"positions": _points(rng, 2), "labels": ["d1", "d2"],
                               "state": {"word": f"A {bad} B"}}))
    return out + label_ops() + deep_word_ops() + point_ops()


def label_ops() -> List[Tuple[str, dict]]:
    """The request-edge block, drawn from `LABELS_SEED`: every label spelling
    in a vacuum and in a Thompson state, every bad one among good ones, and
    documents of the wrong shape, each also with a bad point, state or
    order so that the order of the checks shows."""
    rng = random.Random(f"labels/{LABELS_SEED}")
    index = qutrit().label_index

    def pair(label) -> list:
        """label and a spelling of the same label, so the value is not zero"""
        return [label, rng.choice([l for l in GOOD_LABELS if index(l) == index(label)])]

    out: List[Tuple[str, dict]] = []
    for label in GOOD_LABELS:
        for state in ("vacuum", {"word": _word(rng, 8)}):
            labels = pair(label) + (pair(rng.choice(GOOD_LABELS)) if rng.random() < 0.5 else [])
            out.append(("npoint", {"positions": _points(rng, len(labels)), "labels": labels,
                                   "state": state}))
    for label in BAD_LABELS:
        labels = [rng.choice(GOOD_LABELS) for _ in range(rng.randint(2, 6))]
        labels[rng.randrange(len(labels))] = label
        out.append(("npoint", {"positions": _points(rng, len(labels)), "labels": labels}))
    out += [("npoint", d) for d in (
        {"positions": [], "labels": []},
        {"positions": [], "labels": [], "state": {"word": "A B"}},
        [_points(rng, 2), ["d1", "d2"]],
        {"positions": "1/3", "labels": ["d1"]},
        {"positions": None, "labels": ["d1"]},
        {"positions": {"1/3": "d1"}, "labels": ["d1"]},
        {"positions": ["1/3"], "labels": "d1"},
        {"positions": ["1/3", "1/2"], "labels": "d1 d2"},
        {"positions": ["1/3"], "labels": 1},
        {"positions": ["1/3", "1/2"], "labels": ["d1"]},
        {"positions": ["1/3"], "labels": ["d1", "d2"]},
        {"positions": _points(rng, 5), "labels": ["d1", "d2", "b1"]},
        {"positions": _points(rng, 3), "labels": ["d1", "d2", "b1", "b1", "a2"]},
        {"positions": ["1/3", "1/2"], "labels": []},
        {"positions": [], "labels": ["d1", "d2"]},
        # a bad label, point, state or order beside unequal lengths
        {"positions": ["1/3", "1/2", "2/3"], "labels": ["d1", "nope"]},
        {"positions": ["1/3", "1/2"], "labels": ["d1", "d2", "nope"]},
        {"positions": ["1/3", "1/0"], "labels": ["d1"]},
        {"positions": ["1/3", "1/2"], "labels": ["d1"], "state": {"word": "D"}},
        {"positions": ["1/2", "1/3"], "labels": ["d1"]},
        {"positions": ["1/2", "1/3"], "labels": ["d1", "d2", "d1"]},
        # the order of the checks on requests of equal length
        {"positions": ["1/2", "1/3"], "labels": ["d1", "nope"]},
        {"positions": ["1/2", "1/3"], "labels": ["nope", "d1"], "state": {"word": "D"}},
        {"positions": ["3/2", "1/3"], "labels": ["nope", "d1"]},
        {"positions": ["1/3", "1/3"], "labels": ["d1", True]},
    )]
    return out


def _run_word(rng: random.Random, length: int) -> str:
    """Word of `length` tokens in runs of one token: a generator or its
    inverse, repeated up to length / 2 times."""
    toks: List[str] = []
    while len(toks) < length:
        tok = rng.choice("ABCS") + rng.choice(("", "^-1"))
        toks += [tok] * min(rng.randint(1, length // 2), length - len(toks))
    return " ".join(toks)


@functools.lru_cache(maxsize=None)
def deep_words() -> Tuple[str, ...]:
    """The words of the level-cap block, drawn from `RUNS_SEED`: prefix
    products of `A^k` have domain leaves down to level k + 1, so `A^64` is
    the shortest power past MAX_LEVEL."""
    rng = random.Random(f"runs/{RUNS_SEED}")

    def join(*parts: List[str]) -> str:
        return " ".join(tok for part in parts for tok in part)

    A, A_1, BB_1 = ["A"], ["A^-1"], ["B", "B^-1"]
    words = [join(A * 63), join(A * 64), join(A * 64, A_1)]
    words += [join(A * 62, BB_1 * k) for k in (1, 2, 20)]
    words += [join(A * 63, BB_1), join(A * 63, BB_1 * 8)]
    words += [join((A * 60 + A_1 * 60) * k) for k in (1, 2, 8)]
    words += [_run_word(rng, length) for length in (80, 120, 160, 200, 250, 300)
              for _ in range(4)]
    words.append(_word(rng, 1024))
    words += [join(A * 64, ["B", "D"]), join(["D"], A * 64), join(["A^-1-1"], A * 64)]
    return tuple(words)


def deep_word_ops() -> List[Tuple[str, dict]]:
    """A correlator of four points in the state of each `deep_words` word."""
    rng = random.Random(f"runs/{RUNS_SEED}/points")
    return [("npoint", {"positions": _points(rng, 4), "labels": _labels(rng, 4, True),
                        "state": {"word": word}}) for word in deep_words()]


def point_ops() -> List[Tuple[str, dict]]:
    """The point-spelling block: each spelling before the point 7/8 and
    after 1/64 in the vacuum, and before 7/8 in the state `A B`."""
    out: List[Tuple[str, dict]] = []
    for x in GOOD_POINTS + BAD_POINTS:
        for positions, state in (([x, "7/8"], "vacuum"), (["1/64", x], "vacuum"),
                                 ([x, "7/8"], {"word": "A B"})):
            out.append(("npoint", {"positions": positions, "labels": ["d1", "d2"],
                                   "state": state}))
    return out


@functools.lru_cache(maxsize=None)
def qutrit():
    from treefield.models import preset
    return preset("qutrit")


def run_op(op: str, item: dict) -> str:
    """repr of the op's output on the qutrit, or its error text."""
    from treefield import correlator

    model = qutrit()
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # the n = 256 requests overflow
            if op == "staircase":
                return repr(tuple(correlator.staircase_samples(
                    item["x"], item["alpha"], item["beta"], item["depth"], item["grid"],
                    model)))
            return repr(correlator.n_point(correlator.request_from_document(item, model),
                                           model))
    except ValueError as exc:
        return f"ValueError: {exc}"


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
    lines = [json.dumps(header(), sort_keys=True)]
    for op, item in ops():
        lines.append(json.dumps({"op": op, "input": item, "output": run_op(op, item)},
                                ensure_ascii=False, sort_keys=True))
    OPS_CORPUS.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{OPS_CORPUS.name}: {len(lines) - 1} ops", file=sys.stderr)


if __name__ == "__main__":
    main()
