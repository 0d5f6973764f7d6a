import os
import subprocess
import sys
from pathlib import Path

import pytest

from certflight import cli

from reach import code_lines, listed, reach
from regen import load, outcome

REACH = Path(__file__).with_name("reach.py")


def test_reach_sees_the_lines_an_entry_runs_and_no_others():
    corpus = load()
    entry = next(e for e in corpus["entries"] if e["id"] == "estimate-text")
    reached = reach(lambda: outcome(entry, corpus["inputs"])).get(cli.__file__, set())
    estimate = code_lines(cli.cmd_estimate.__code__)
    forge = code_lines(cli.cmd_forge.__code__)
    # The text form runs cmd_estimate from its first line to its last, but not its JSON branch.
    assert {min(estimate), max(estimate)} <= reached
    assert estimate - reached
    assert not forge & reached


def test_the_corpus_reaches_every_line_but_the_listed_ones():
    # A fresh interpreter: the suite has imported certflight, and a module imported
    # before the tracer starts would count its top-level lines as unreached.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, str(REACH), "--check"], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr


def test_the_list_counts_repeats_keeps_a_version_group_where_it_holds_and_needs_a_reason(
        monkeypatch):
    text = ("# API guard: x\nm.py: continue\nm.py: continue\n"
            "# version: Python >= 3.12\nm.py: try:\n")
    monkeypatch.setattr(sys, "version_info", (3, 11, 7))
    assert listed(text) == {"m.py: continue": 2}
    monkeypatch.setattr(sys, "version_info", (3, 12, 1))
    assert listed(text) == {"m.py: continue": 2, "m.py: try:": 1}
    for bad in ("m.py: continue\n", "# not a reason: x\nm.py: continue\n"):
        with pytest.raises(ValueError):
            listed(bad)
