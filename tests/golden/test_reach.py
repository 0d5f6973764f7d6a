from certflight import cli

from reach import code_lines, reach
from regen import load, outcome


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
