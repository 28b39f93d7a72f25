"""Replays the characterization corpora written by `corpus/make_corpus.py`:
every recorded CLI command (`corpus/cli.jsonl`) must print the same stdout
and stderr bytes and exit with the same code, and every recorded library op
(`corpus/ops.jsonl`) must give the same `repr` or error text.  Outputs are
compared exactly, so a corpus recorded with another Python or numpy fails
on its header, never with a wider tolerance.  The generator's commands, ops
and input files must also be the recorded ones, compared without running
anything, so that a change to the generator fails here, not at the next
regeneration."""

import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).with_name("corpus")))
from make_corpus import (CORPUS, ENVIRONMENT, HERE, OPS_CORPUS, commands,  # noqa: E402
                         header, input_files, ops, run_command, run_op)


def test_cli_corpus_replays_byte_identical(monkeypatch):
    first, *lines = CORPUS.read_text(encoding="utf-8").splitlines()
    recorded = json.loads(first)
    if recorded != header():
        pytest.fail(f"the corpus was recorded with Python {recorded['python']} and numpy "
                    f"{recorded['numpy']}; this is Python {platform.python_version()} and "
                    f"numpy {np.__version__}: regenerate it with corpus/make_corpus.py")
    monkeypatch.chdir(HERE)
    for key, value in ENVIRONMENT.items():
        monkeypatch.setenv(key, value)
    mismatches = []
    for line in lines:
        entry = json.loads(line)
        got = run_command(entry["argv"])
        if got != (entry["stdout"], entry["stderr"], entry["code"]):
            mismatches.append((entry["argv"], got, entry))
    assert not mismatches, (f"{len(mismatches)} of {len(lines)} commands differ; "
                            f"first: {mismatches[0]}")


def test_ops_corpus_replays_repr_identical():
    first, *lines = OPS_CORPUS.read_text(encoding="utf-8").splitlines()
    recorded = json.loads(first)
    if recorded != header():
        pytest.fail(f"the op corpus was recorded with Python {recorded['python']} and numpy "
                    f"{recorded['numpy']}; this is Python {platform.python_version()} and "
                    f"numpy {np.__version__}: regenerate it with corpus/make_corpus.py")
    mismatches = []
    for line in lines:
        entry = json.loads(line)
        got = run_op(entry["op"], entry["input"])
        if got != entry["output"]:
            mismatches.append((entry["op"], entry["input"], got, entry["output"]))
    assert not mismatches, (f"{len(mismatches)} of {len(lines)} ops differ; "
                            f"first: {mismatches[0]}")


def test_generator_matches_the_recorded_inputs():
    recorded_argv = [json.loads(line)["argv"]
                     for line in CORPUS.read_text(encoding="utf-8").splitlines()[1:]]
    assert recorded_argv == commands()
    recorded_ops = [json.loads(line) for line in
                    OPS_CORPUS.read_text(encoding="utf-8").splitlines()[1:]]
    assert [(e["op"], e["input"]) for e in recorded_ops] == [
        (op, json.loads(json.dumps(item))) for op, item in ops()]
    for name, doc in input_files().items():
        assert (HERE / name).read_text(encoding="utf-8") == json.dumps(
            doc, ensure_ascii=False, sort_keys=True) + "\n", name
