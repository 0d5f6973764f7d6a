import json

import regen


def _corpus(tmp_path, monkeypatch, *extra):
    """A corpus in tmp_path of two entries and extra, none recorded, that regen reads and
    writes."""
    path = tmp_path / "cli.json"
    path.write_text(regen.dump({"inputs": {}, "entries": [
        {"id": "a", "argv": ["thresholds"]}, {"id": "b", "argv": ["regions"]}, *extra]}))
    monkeypatch.setattr(regen, "CORPUS", path)
    return path


def _recorded(path) -> list[str]:
    return [e["id"] for e in json.loads(path.read_text())["entries"] if "expect" in e]


def test_write_with_ids_records_only_those_and_fails_on_any_other_change(tmp_path, monkeypatch,
                                                                         capsys):
    path = _corpus(tmp_path, monkeypatch)
    assert regen.main(["--write", "a"]) == 1
    assert _recorded(path) == ["a"]
    out, err = capsys.readouterr()
    assert out == "a\nb\n" and err.endswith("2 of 2 entries changed\n")
    assert regen.main([]) == 1 and _recorded(path) == ["a"]
    assert capsys.readouterr()[0] == "b\n"
    assert regen.main(["--write", "b", "a"]) == 0 and _recorded(path) == ["a", "b"]


def test_write_without_ids_records_every_change(tmp_path, monkeypatch, capsys):
    path = _corpus(tmp_path, monkeypatch)
    assert regen.main(["--write"]) == 0 and _recorded(path) == ["a", "b"]
    assert regen.main([]) == 0
    assert capsys.readouterr()[1].endswith("0 of 2 entries changed\n")


def test_write_refuses_an_id_no_entry_has_before_any_run(tmp_path, monkeypatch, capsys):
    path = _corpus(tmp_path, monkeypatch)
    before = path.read_text()
    assert regen.main(["--write", "a", "nope"]) == 1
    assert path.read_text() == before
    assert capsys.readouterr() == ("", "no entry has the id nope\n")


def test_show_prints_each_named_entrys_run_as_it_is_now_and_writes_nothing(tmp_path, monkeypatch,
                                                                         capsys):
    path = _corpus(tmp_path, monkeypatch, {"id": "c", "argv": ["regions", "--thresholds", "0.5"]})
    before = path.read_text()
    assert regen.main(["--show", "c", "a"]) == 0
    out, err = capsys.readouterr()
    shown_c, shown_a = out.split("== ")[1:]
    assert shown_c == ('c: ["regions", "--thresholds", "0.5"] exit 1\n-- stdout\n-- stderr\n'
                       "error: --thresholds: threshold_kb must be > 1, got 0.5\n")
    assert shown_a.startswith('a: ["thresholds"] exit 0\n-- stdout\n{\n')
    assert shown_a.endswith("}\n-- stderr\n") and err == ""
    assert regen.main(["--show"]) == 0
    assert [line for line in capsys.readouterr()[0].splitlines() if line.startswith("== ")] == [
        '== a: ["thresholds"] exit 0', '== b: ["regions"] exit 0',
        '== c: ["regions", "--thresholds", "0.5"] exit 1']
    assert path.read_text() == before


def test_show_refuses_an_id_no_entry_has_before_any_run(tmp_path, monkeypatch, capsys):
    _corpus(tmp_path, monkeypatch)
    assert regen.main(["--show", "a", "nope"]) == 1
    assert capsys.readouterr() == ("", "no entry has the id nope\n")
