"""Replays the CLI characterization corpus (`corpus/cli.jsonl`, written by
`corpus/make_corpus.py`): every recorded command must print the same stdout
and stderr bytes and exit with the same code."""

import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).with_name("corpus")))
from make_corpus import CORPUS, ENVIRONMENT, HERE, header, run_command  # noqa: E402


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
