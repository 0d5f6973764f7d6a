import json
from collections import Counter

import pytest

from regen import load, outcome

CORPUS = load()


@pytest.mark.parametrize("entry", CORPUS["entries"], ids=[e["id"] for e in CORPUS["entries"]])
def test_a_cli_run_keeps_its_golden_digests(entry):
    assert outcome(entry, CORPUS["inputs"]) == entry["expect"]


def test_no_two_entries_share_an_id_or_a_run():
    """A repeated id would shadow an entry, and a repeated argv and stdin would pin one run twice."""
    entries = CORPUS["entries"]
    ids = Counter(e["id"] for e in entries)
    runs = Counter(json.dumps([e["argv"], e.get("stdin", "")]) for e in entries)
    assert [i for i, n in ids.items() if n > 1] == []
    assert [r for r, n in runs.items() if n > 1] == []
