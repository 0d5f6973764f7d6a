import pytest

from regen import load, outcome

CORPUS = load()


@pytest.mark.parametrize("entry", CORPUS["entries"], ids=[e["id"] for e in CORPUS["entries"]])
def test_a_cli_run_keeps_its_golden_digests(entry):
    assert outcome(entry, CORPUS["inputs"]) == entry["expect"]
