import csv
import hashlib
import io
import json
import math
from pathlib import Path

import pytest

from certflight.cli import main
from certflight.config import ENV_CONFIG, Config, config_to_dict, save_config


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_estimate_default_thresholds(capsys):
    code, out, _ = run(capsys, "estimate", "--scheme", "slh-dsa", "--rtt", "50",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["chain_size_kb"] == 48.7
    assert payload["extra_rtts"] == 2
    assert payload["total_ms"] == pytest.approx(208.3)


def test_estimate_single_threshold_matches_testbed(capsys):
    code, out, _ = run(capsys, "estimate", "--scheme", "slh-dsa", "--rtt", "50",
                       "--thresholds", "14", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["extra_rtts"] == 1
    # measured mean at this cell is 159.41 ms
    assert payload["total_ms"] == pytest.approx(158.3)


def test_estimate_text_breakdown(capsys):
    code, out, _ = run(capsys, "estimate", "--scheme", "ecdsa", "--rtt", "100")
    assert code == 0
    assert "t_tcp_ms=100.0" in out
    assert "total_ms=208.3" in out


def test_estimate_text_without_a_breakdown(tmp_path, capsys):
    # With fewer than 2 base flights there is no TCP and TLS share to split off.
    path = tmp_path / "cfg.json"
    path.write_text('{"stacks": {"OneFlight": {"base_ms": 5.0, "base_flights": 1.5}}}')
    code, out, _ = run(capsys, "--config", str(path), "estimate", "--stack", "OneFlight",
                       "--rtt", "50", "--size-kb", "12")
    assert code == 0
    assert out.splitlines() == [
        "stack=OneFlight chain_size_kb=12.0 rtt_ms=50.0 resumed=false",
        "  breakdown unallocatable (base_flights < 2)",
        "  extra_rtts=1 total_ms=130.0",
    ]


def test_estimate_resumed(capsys):
    code, out, _ = run(capsys, "estimate", "--scheme", "slh-dsa", "--rtt", "50",
                       "--resumed", "--format", "json")
    payload = json.loads(out)
    assert payload["extra_rtts"] == 0
    assert payload["total_ms"] == pytest.approx(107.2)


def test_estimate_unknown_scheme_fails_cleanly(capsys):
    code, _, err = run(capsys, "estimate", "--scheme", "rsa-15360", "--rtt", "50")
    assert code == 1
    assert "unknown scheme" in err


def test_mtc_without_proof_size_fails_cleanly(capsys):
    code, _, err = run(capsys, "estimate", "--scheme", "ecdsa", "--mtc", "--rtt", "50")
    assert code == 1
    assert "mtc_leaf_kb" in err


def test_sweep_csv_to_file(tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "sweep", "--stacks", "ClassicalSim", "--rtts", "50",
                       "--sizes", "4:12:4", "--trials", "2", "--out", str(out_path))
    assert code == 0
    assert "wrote 3 rows" in out
    lines = out_path.read_text().splitlines()
    assert lines[0] == "stack,rtt_ms,size_kb,mean_ms,std_ms,extra_rtts"
    assert len(lines) == 4


def test_sweep_same_seed_same_bytes(tmp_path, capsys):
    args = ("--seed", "99", "sweep", "--rtts", "10,50", "--sizes", "4:20:4",
            "--trials", "4")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_csv_is_the_same_streamed_or_collected(tmp_path, capsys):
    # --gnuplot draws the rows again in a pass of its own; the CSV must not change.
    args = ("--seed", "3", "sweep", "--rtts", "0,-0.0,25", "--sizes", "2:14:1.5",
            "--optimizers", "mtc1,identity")
    _, streamed, _ = run(capsys, *args)
    _, collected, _ = run(capsys, *args, "--gnuplot", str(tmp_path / "curves.dat"))
    assert streamed == collected
    out_path = tmp_path / "rows.csv"
    _, out, _ = run(capsys, *args, "--out", str(out_path))
    assert out_path.read_text() == streamed
    assert out == f"wrote {len(streamed.splitlines()) - 1} rows to {out_path}\n"


def test_sweep_json_and_gnuplot(tmp_path, capsys):
    plot = tmp_path / "curves.dat"
    code, out, _ = run(capsys, "sweep", "--rtts", "50", "--sizes", "4:12:4",
                       "--trials", "1", "--format", "json", "--gnuplot", str(plot))
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 3
    assert plot.read_text().startswith("# stack=ClassicalSim rtt_ms=50.0")


def test_sweep_optimizer_column(capsys):
    code, out, _ = run(capsys, "sweep", "--rtts", "50", "--sizes", "12:12:1",
                       "--trials", "1", "--optimizers", "mtc1,cdn25")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].endswith(",optimizer")
    assert len(lines) == 4  # header + bare + two optimizer rows


@pytest.mark.parametrize("flags", [
    ("--stacks", "ClassicalSim,Nonesuch"),
    ("--rtts", "10,1e308"),
    ("--rtts", "10,-1"),
    ("--sizes=-4:8:4",),
    ("--mode", "analytic", "--sizes", "4:1e306:1e305"),
    ("--rtts", "10,1e308", "--format", "json"),
    ("--stacks", "ClassicalSim,Nonesuch", "--gnuplot", "curves.dat"),
    ("--rtts", "10,-1", "--format", "json", "--gnuplot", "curves.dat"),
    ("--rtts", "10,10", "--gnuplot", "curves.dat"),
    ("--rtts", "10", "--sizes", "4:8:4", "--gnuplot", "missing/curves.dat"),
    ("--rtts", "10", "--sizes", "4:8:4", "--format", "json", "--gnuplot", "missing/curves.dat"),
    # The table's file cannot be opened: the gnuplot file created before it is removed.
    ("--rtts", "10", "--sizes", "4:8:4", "--gnuplot", "g.dat", "--out", "missing/t.csv"),
])
def test_a_failed_sweep_writes_nothing(tmp_path, monkeypatch, capsys, flags):
    monkeypatch.chdir(tmp_path)  # where a --gnuplot file would land
    code, out, err = run(capsys, "sweep", "--out", str(tmp_path / "rows.csv"), *flags)
    assert code == 1 and err.startswith("error: ")
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_a_sweep_lists_its_sizes_once(tmp_path, monkeypatch, capsys):
    # The --out notice counts the rows from the grid's size, not from a second list.
    from certflight.config import SweepPlan

    calls = []
    sizes_kb = SweepPlan.sizes_kb.fget
    monkeypatch.setattr(SweepPlan, "sizes_kb",
                        property(lambda plan: calls.append(plan) or sizes_kb(plan)))
    out_path = tmp_path / "t.csv"
    code, out, _ = run(capsys, "sweep", "--rtts", "10,50", "--sizes", "4:20:4", "--optimizers", "mtc1",
                       "--out", str(out_path))
    assert code == 0 and out == f"wrote 20 rows to {out_path}\n"
    assert len(out_path.read_text().splitlines()) == 1 + 20
    assert len(calls) == 1


def test_an_unknown_sweep_stack_names_the_flag_or_the_file(tmp_path, monkeypatch, capsys):
    known = "known: ClassicalSim, OqsHybrid, OqsMldsa, OqsSlhdsa"
    code, _, err = run(capsys, "sweep", "--stacks", "ClassicalSim,Nonesuch")
    assert code == 1 and err == f"error: --stacks: unknown stack 'Nonesuch'; {known}\n"
    path = tmp_path / "c.json"
    path.write_text('{"sweep": {"stacks": ["Nonesuch"]}}')
    code, _, err = run(capsys, "--config", str(path), "sweep")
    assert code == 1 and err == f"error: {path}: config sweep.stacks: unknown stack 'Nonesuch'; {known}\n"
    monkeypatch.setenv(ENV_CONFIG, str(path))
    code, _, err = run(capsys, "sweep")
    assert code == 1 and err == f"error: {path}: config sweep.stacks: unknown stack 'Nonesuch'; {known}\n"
    # The flag replaces the file's list; the file is refused only by the sweep.
    assert run(capsys, "sweep", "--stacks", "OqsMldsa", "--rtts", "10", "--sizes", "4:4:1")[0] == 0
    assert run(capsys, "estimate", "--rtt", "10")[0] == 0


@pytest.mark.parametrize("fmt, table, series", [
    ("json", "ok.json", "missing/s.csv"),
    ("csv", "ok.json", "missing/s.csv"),
    # The table's file cannot be opened: the series file opened before it is removed.
    ("json", "missing/a.json", "s.csv"),
    ("csv", "missing/a.csv", "s.csv"),
], ids=["json", "csv", "json-unwritable-out", "csv-unwritable-out"])
def test_an_unwritable_series_path_writes_nothing(tmp_path, capsys, fmt, table, series):
    from certflight.config import _data_path

    code, out, err = run(capsys, "analyze", "--logs", _data_path("sample_tls_log.tsv"),
                         "--format", fmt, "--out", str(tmp_path / table),
                         "--series", str(tmp_path / series))
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("sweep", "--rtts", "10", "--sizes", "4:8:4", "--gnuplot", "side.txt",
     "--out", "missing/t.csv"),
    ("analyze", "--logs", "sample", "--series", "side.txt", "--out", "missing/a.json"),
], ids=["sweep-gnuplot", "analyze-series"])
def test_a_failed_run_keeps_an_existing_side_file(tmp_path, monkeypatch, capsys, argv):
    from certflight.config import _data_path

    monkeypatch.chdir(tmp_path)
    (tmp_path / "side.txt").write_text("keep\n")
    code, out, err = run(capsys, *(_data_path("sample_tls_log.tsv") if a == "sample" else a
                                   for a in argv))
    assert code == 1 and err.startswith("error: ") and out == ""
    assert list(tmp_path.iterdir()) == [tmp_path / "side.txt"]
    assert (tmp_path / "side.txt").read_text() == "keep\n"


_SAME_FILE_RUNS = {
    "sweep": ("--seed", "1", "sweep", "--trials", "2", "--sizes", "4:6:1", "--rtts", "10",
              "--stacks", "ClassicalSim", "--out", "same.txt", "--gnuplot"),
    "analyze": ("analyze", "--logs", "sample", "--out", "same.txt", "--series"),
}


@pytest.mark.parametrize("side", ["same.txt", "./same.txt", "link.txt", "hard.txt", "new.txt"],
                         ids=["path", "dotted-path", "symlink", "hard-link", "dangling-symlink"])
@pytest.mark.parametrize("command", _SAME_FILE_RUNS)
def test_a_side_file_that_is_the_table_file_is_refused(tmp_path, monkeypatch, capsys,
                                                       command, side):
    from certflight.config import _data_path

    monkeypatch.chdir(tmp_path)
    if side == "new.txt":  # a link to a file not made yet, which the table would make
        Path("new.txt").symlink_to("same.txt")
    else:
        Path("same.txt").write_text("keep\n")
        Path("link.txt").symlink_to("same.txt")
        Path("hard.txt").hardlink_to("same.txt")
    before = {path.name: path.read_bytes() if path.exists() else None
              for path in tmp_path.iterdir()}
    argv = (_data_path("sample_tls_log.tsv") if a == "sample" else a
            for a in (*_SAME_FILE_RUNS[command], side))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: same.txt and {side} name the same file\n"
    assert {path.name: path.read_bytes() if path.exists() else None
            for path in tmp_path.iterdir()} == before


def test_sweep_trials_come_from_the_config_unless_given(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"sweep": {"trials": 1}}')
    base = ("--config", str(path), "sweep", "--rtts", "50", "--sizes", "4:12:4")
    _, out, _ = run(capsys, *base)
    assert {row.split(",")[4] for row in out.splitlines()[1:]} == {"0.0"}  # one trial, no spread
    _, out, _ = run(capsys, *base, "--trials", "5")
    assert "0.0" not in {row.split(",")[4] for row in out.splitlines()[1:]}


def test_sweep_bad_size_spec(capsys):
    code, _, err = run(capsys, "sweep", "--sizes", "4-80")
    assert code == 1
    assert "start:end:step" in err


@pytest.mark.parametrize("argv, line", [
    (("sweep", "--rtts", "10,ten"), "--rtts: 'ten' is not a number"),
    (("sweep", "--rtts", "10, ten "), "--rtts: 'ten' is not a number"),
    (("sweep", "--sizes", "4:80:two"), "--sizes: 'two' is not a number"),
    (("sweep", "--sizes", ":80:1"), "--sizes: '' is not a number"),
    (("sweep", "--thresholds", "1,y"), "--thresholds: 'y' is not a number"),
    (("regions", "--thresholds", "x"), "--thresholds: 'x' is not a number"),
    (("estimate", "--rtt", "5", "--thresholds", "10,abc"), "--thresholds: 'abc' is not a number"),
    (("thresholds", "--thresholds", "0x10"), "--thresholds: '0x10' is not a number"),
    (("savings", "--rtt", "5", "--size-kb", "3", "--rate", "0.5", "--thresholds", "z"),
     "--thresholds: 'z' is not a number"),
    (("sweep", "--rtts", "10,nan"), "--rtts: rtts_ms must be a finite number, got nan"),
    (("sweep", "--sizes", "4:80:inf"), "--sizes: size_step_kb must be a finite number, got inf"),
    (("sweep", "--sizes=-Infinity:80:1"),
     "--sizes: size_start_kb must be a finite number, got -inf"),
    (("regions", "--thresholds", "10, NaN "),
     "--thresholds: empirical_thresholds_kb must be a finite number, got nan"),
    (("estimate", "--rtt", "5", "--thresholds=-inf"),
     "--thresholds: empirical_thresholds_kb must be a finite number, got -inf"),
], ids=["sweep-rtts", "sweep-rtts-spaced", "sweep-sizes", "sweep-sizes-blank", "sweep-thresholds",
        "regions-thresholds", "estimate-thresholds", "thresholds-hex", "savings-thresholds",
        "sweep-rtts-nan", "sweep-sizes-inf", "sweep-sizes-minus-infinity", "regions-thresholds-nan",
        "estimate-thresholds-minus-inf"])
def test_a_word_in_a_list_flag_is_one_error_line_naming_the_flag(capsys, argv, line):
    assert run(capsys, *argv) == (1, "", f"error: {line}\n")


@pytest.mark.parametrize("argv, flag", [
    (("estimate", "--rtt={}"), "--rtt"),
    (("estimate", "--rtt", "10", "--size-kb={}"), "--size-kb"),
    (("thresholds", "--max-kb={}"), "--max-kb"),
    (("thresholds", "--step-kb={}"), "--step-kb"),
    (("savings", "--rtt={}", "--size-kb", "3", "--rate", "0.5"), "--rtt"),
    (("savings", "--rtt", "5", "--size-kb={}", "--rate", "0.5"), "--size-kb"),
    (("savings", "--rtt", "5", "--size-kb", "3", "--rate={}"), "--rate"),
    (("forge", "--size-kb={}", "--out-dir", "never-written"), "--size-kb"),
])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_a_non_finite_flag_is_one_error_line_naming_the_flag(tmp_path, monkeypatch, capsys,
                                                             argv, flag, value):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *(a.format(value) for a in argv))
    assert (code, out, err) == (1, "", f"error: {flag}: {float(value)!r} is not a finite number\n")
    assert list(tmp_path.iterdir()) == []


# A small argv each command runs, so that a value flag given after it is read. Global
# flags are given before the sweep's.
FLAG_BASES = {
    "estimate": ["estimate", "--rtt", "50"],
    "sweep": ["sweep", "--rtts", "10", "--sizes", "4:8:4", "--stacks", "ClassicalSim",
              "--trials", "3"],
    "thresholds": ["thresholds"],
    "regions": ["regions"],
    "savings": ["savings", "--rtt", "50", "--size-kb", "12", "--rate", "0.5"],
    "forge": ["forge", "--out-dir", "chain"],
    "analyze": ["analyze", "--logs", "sample.tsv"],
    "calibrate": ["calibrate", "--csv", "points.csv"],
}


def _value_flags():
    """(command or None for a global flag, option string) for every option of
    build_parser() that takes a value."""
    import argparse

    from certflight.cli import build_parser

    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(commands.choices) == set(FLAG_BASES)
    return [(name, flag) for name, p in [(None, parser), *commands.choices.items()]
            for action in p._actions if action.option_strings and action.nargs != 0
            for flag in action.option_strings]


@pytest.mark.parametrize("command, flag", _value_flags())
def test_a_value_flag_takes_a_value_that_begins_with_a_dash(tmp_path, monkeypatch, capsys,
                                                            command, flag):
    """`--flag TOKEN` ends exactly as `--flag=TOKEN` does, stdout, stderr and exit
    code, for a TOKEN that begins with "-" and names no option; `--flag -h` still
    lacks its value."""
    from certflight.config import _data_path

    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(ENV_CONFIG, raising=False)
    Path("sample.tsv").write_bytes(Path(_data_path("sample_tls_log.tsv")).read_bytes())
    Path("points.csv").write_text("rtt_ms,ttfb_ms\n0,8.06\n10,28.71\n50,109.00\n")

    def ending(*flag_argv):
        argv = ([*flag_argv, *FLAG_BASES["sweep"]] if command is None
                else [*FLAG_BASES[command], *flag_argv])
        try:
            code = main(argv)
        except SystemExit as e:  # argparse refuses the argv
            code = e.code
        return (code, *capsys.readouterr())

    for token in ("-1e5", "-inf", "-5,10", "-1:8:4"):
        assert ending(flag, token) == ending(f"{flag}={token}"), token
    code, out, err = ending(flag, "-h")
    assert (code, out) == (2, "") and err.endswith(f"error: argument {flag}: expected one argument\n")


# Every value flag that sets no config field: an argument its command reads itself.
COMMAND_ARGUMENTS = {"--config", "--scheme", "--intermediates", "--size-kb", "--rtt", "--stack",
                     "--format", "--out", "--gnuplot", "--max-kb", "--step-kb",
                     "--rate", "--out-dir", "--logs", "--series", "--csv", "--penalty", "--name",
                     "--resumed-base"}


def test_every_value_flag_is_in_the_flag_table_or_a_command_argument():
    """A new flag that sets a config field is applied, and refused, by the table."""
    from certflight.cli import _CONFIG_FLAGS

    table = {"--" + dest.replace("_", "-") for dest in _CONFIG_FLAGS}
    assert table.isdisjoint(COMMAND_ARGUMENTS)
    assert {flag for _, flag in _value_flags()} == table | COMMAND_ARGUMENTS


# For each range check of a table flag's section: the flag's bad value, and the same
# value as fields of that section in a config file. --mode's choices and the ASN flags'
# paths pass their sections' checks by construction.
HUGE_SEED = 10**400
RANGE_CHECKS = [
    ("--seed", str(HUGE_SEED), "sweep", {"seed": HUGE_SEED}),
    ("--trials", "0", "sweep", {"trials": 0}),
    ("--stacks", ",", "sweep", {"stacks": []}),
    ("--stacks", "ClassicalSim,ClassicalSim", "sweep", {"stacks": ["ClassicalSim"] * 2}),
    ("--rtts", ",", "sweep", {"rtts_ms": []}),
    ("--rtts", "10,nan", "sweep", {"rtts_ms": [10, math.nan]}),
    ("--rtts", "-5,10", "sweep", {"rtts_ms": [-5, 10]}),
    ("--rtts", "10,10.0", "sweep", {"rtts_ms": [10, 10.0]}),
    ("--sizes", "-inf:80:1", "sweep", {"size_start_kb": -math.inf}),
    ("--sizes", "4:inf:1", "sweep", {"size_end_kb": math.inf}),
    ("--sizes", "4:80:nan", "sweep", {"size_step_kb": math.nan}),
    ("--sizes", "4:80:0", "sweep", {"size_step_kb": 0}),
    ("--sizes", "4:2:1", "sweep", {"size_start_kb": 4, "size_end_kb": 2}),
    ("--sizes", "0:1e8:1", "sweep", {"size_start_kb": 0, "size_end_kb": 1e8, "size_step_kb": 1}),
    ("--optimizers", "mtc1,mtc1", "sweep", {"optimizers": [{"kind": "mtc-one-intermediate"}] * 2}),
    ("--thresholds", "10,inf", "flight", {"empirical_thresholds_kb": [10, math.inf]}),
    ("--thresholds", "40,10", "flight", {"empirical_thresholds_kb": [40, 10]}),
    ("--thresholds", "10,10", "flight", {"empirical_thresholds_kb": [10, 10]}),
]


@pytest.mark.parametrize("flag, value, section, fields", RANGE_CHECKS,
                         ids=[f"{flag}={value[:12]}" for flag, value, _, _ in RANGE_CHECKS])
def test_a_config_flag_refused_by_its_section_names_the_flag_and_its_file_twin_the_file(
        tmp_path, monkeypatch, capsys, flag, value, section, fields):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(ENV_CONFIG, raising=False)
    outputs = ["--out", "t.csv", "--gnuplot", "g.dat"]
    given = ([f"{flag}={value}", *FLAG_BASES["sweep"]] if flag == "--seed"
             else [*FLAG_BASES["sweep"], f"{flag}={value}"])
    code, out, err = run(capsys, *given, *outputs)
    assert (code, out) == (1, "") and err.startswith(f"error: {flag}: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []
    reason = err.removeprefix(f"error: {flag}: ")
    Path("cfg.json").write_text(json.dumps({section: fields}))
    assert run(capsys, "--config", "cfg.json", "sweep", *outputs) == (
        1, "", f"error: cfg.json: config {section}: {reason}")
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


@pytest.mark.parametrize("command", sorted(FLAG_BASES))
def test_seed_is_checked_for_every_command(capsys, command):
    assert run(capsys, "--seed", str(HUGE_SEED), *FLAG_BASES[command]) == (
        1, "", f"error: --seed: seed must be an integer within float range, got {HUGE_SEED}\n")


def test_thresholds_analytic_flags_deviation(capsys):
    code, out, _ = run(capsys, "thresholds", "--mode", "analytic")
    assert code == 0
    payload = json.loads(out)
    assert payload["thresholds_kb"] == [10.0, 38.0]
    assert payload["empirical_thresholds_kb"] == [10.0, 40.0]
    assert payload["note"] is not None
    assert "differ" in payload["note"]


def test_thresholds_empirical_quiet(capsys):
    code, out, _ = run(capsys, "thresholds")
    payload = json.loads(out)
    assert payload["thresholds_kb"] == [10.0, 40.0]
    assert payload["note"] is None


def test_thresholds_csv(capsys):
    code, out, _ = run(capsys, "thresholds", "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "index,threshold_kb"
    assert lines[1] == "0,10.0"
    # The scan's grid is the sweep's: it ends at 0.30000000000000004, past 0.25.
    _, out, _ = run(capsys, "thresholds", "--thresholds", "0.25", "--max-kb", "0.3",
                    "--step-kb", "0.1", "--format", "csv")
    assert out.splitlines() == ["index,threshold_kb", "0,0.2"]


def test_regions_default_table(capsys):
    code, out, _ = run(capsys, "regions")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 9  # header + 4 optimizers x 2 thresholds
    assert lines[1].split(",")[0] == "mtc-one-intermediate"


def test_regions_custom_threshold(capsys):
    code, out, _ = run(capsys, "regions", "--thresholds", "14",
                       "--optimizers", "mtc1", "--format", "json")
    payload = json.loads(out)
    assert len(payload) == 1
    assert payload[0]["upper_kb_rounded"] == 26


def test_an_empty_region_is_refused_by_name(capsys):
    # mtc1 rescues nothing below a 2 KB threshold: its upper bound, 1.0 KB, is under 1.5.
    code, out, err = run(capsys, "regions", "--thresholds", "1.5", "--optimizers", "mtc1")
    assert code == 1 and out == ""
    assert "mtc-one-intermediate" in err and "1.5 KB" in err


@pytest.mark.parametrize("argv, digest", [
    (("thresholds",), "b427c9398a5166b2484b7a6c28b933d8ee26aa4ccf9592acc917412860319c47"),
    (("thresholds", "--format", "csv"),
     "3d60d9bc6ed9aab00600fcadc3dec3ce5dea0af6e39d5561ddd3ecd32cf638ca"),
    (("thresholds", "--mode", "analytic"),
     "ef8aa8c23a48950fc4ac21c012648bf83b5840e814a00510606771594b5a2a9e"),
    # The CSV ends in a "# note" line naming the analytic and the configured thresholds.
    (("thresholds", "--mode", "analytic", "--format", "csv"),
     "adc01c69fa4a22d47a30ce52184eb654d1eb7b8158e4d1d534ecd5c4f12c56d3"),
    (("regions",), "f7790871df27abcda70ac01c10bf662121b976cf07e8b895504ec81763d710ab"),
    (("regions", "--format", "json"),
     "c4f918f93688715d322c8322553d98da811cf2a94354b04f1244fb5dce78cd36"),
    (("regions", "--thresholds", "14", "--optimizers", "mtc1"),
     "a7c7de0d2c127207c45be243fddb73ea2c0dabb201e7c243c42627e00c414076"),
    (("regions", "--thresholds", "14", "--optimizers", "mtc1", "--format", "json"),
     "a23f6a976e3a90282123ee7ef51fca75bc5198c329db6ba00b035e73af1c8a55"),
])
def test_thresholds_and_regions_output_is_pinned(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_savings_json(capsys):
    code, out, _ = run(capsys, "savings", "--rtt", "50", "--size-kb", "11.9",
                       "--rate", "0.803", "--format", "json")
    payload = json.loads(out)
    assert payload["expected_savings_ms"] == pytest.approx(41.0333)


def test_savings_text(capsys):
    code, out, _ = run(capsys, "savings", "--rtt", "50", "--size-kb", "11.9", "--rate", "0.803")
    assert code == 0
    assert out == ("rtt_ms=50.0 chain_size_kb=11.9 rate=0.803 full_ms=158.3 resumed_ms=107.2 "
                   "expected_savings_ms=41.03330000000001\n")


def test_savings_rejects_bad_rate(capsys):
    code, _, err = run(capsys, "savings", "--rtt", "50", "--size-kb", "11.9",
                       "--rate", "1.5")
    assert code == 1
    assert "resumption_rate" in err


def test_forge_writes_chain(tmp_path, capsys):
    out_dir = tmp_path / "chain"
    code, out, _ = run(capsys, "forge", "--scheme", "ml-dsa", "--out-dir", str(out_dir))
    assert code == 0
    assert "leaf: target=3900 actual=3900" in out
    assert "intermediate-1: target=8000 actual=8000" in out
    assert (out_dir / "manifest.json").exists()


def test_forge_writes_its_chain_only_when_main_writes_its_output(tmp_path):
    from certflight.cli import build_parser, cmd_forge

    out_dir = tmp_path / "chain"
    args = build_parser().parse_args(["forge", "--scheme", "ml-dsa", "--out-dir", str(out_dir)])
    result = cmd_forge(args, Config())
    assert not out_dir.exists()
    out = io.StringIO()
    result.write(out)
    assert (out_dir / "manifest.json").exists()
    assert out.getvalue().endswith(f"dir={out_dir}\n") and result.code == 0


def test_forge_parses_each_certificate_once(tmp_path, capsys, monkeypatch):
    from certflight import cert_forge

    parse, calls = cert_forge.parse_and_measure, []
    monkeypatch.setattr(cert_forge, "parse_and_measure",
                        lambda der: calls.append(der) or parse(der))
    code, out, _ = run(capsys, "forge", "--scheme", "ml-dsa", "--intermediates", "2",
                       "--out-dir", str(tmp_path / "chain"))
    assert code == 0 and out.count("well_formed=true") == 3
    assert len(calls) == 3


def test_analyze_packaged_sample(capsys):
    from certflight.config import _data_path

    code, out, _ = run(capsys, "analyze", "--logs", _data_path("sample_tls_log.tsv"))
    assert code == 0
    payload = json.loads(out)
    assert payload["classes"]["CDN"]["total"] == 9
    assert payload["parse"]["malformed"] == 0
    assert payload["parse"]["resumption_unknown"] == 1
    assert "2025-01" in payload["months"]["CDN"]


def test_analyze_stdin_jsonl(capsys, monkeypatch):
    lines = "\n".join(
        json.dumps({"ts": 1735690000.0 + i, "id.resp_h": "104.16.1.1",
                    "version": "TLSv1.3", "resumed": i % 2 == 0})
        for i in range(10)
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    code, out, _ = run(capsys, "analyze", "--logs", "-")
    payload = json.loads(out)
    assert payload["classes"]["CDN"]["total"] == 10
    assert payload["classes"]["CDN"]["resumed_all"] == 5


_JSON_LOG = "".join(
    json.dumps({"ts": 1735690000.0 + i, "id.resp_h": "104.16.1.1", "version": "TLSv1.3",
                "resumed": True}) + "\n"
    for i in range(10)
)


@pytest.mark.parametrize("text, records", [
    (_JSON_LOG[30:], 9),  # cut mid-line, as `tail -c` leaves a log
    ("\ufeff" + "".join(_JSON_LOG.splitlines(keepends=True)[:3]), 2),
], ids=["cut-mid-line", "byte-order-mark"])
def test_analyze_loses_only_a_leading_partial_line(tmp_path, capsys, text, records):
    path = tmp_path / "ssl.log"
    path.write_text(text, encoding="utf-8")
    code, out, _ = run(capsys, "analyze", "--logs", str(path))
    assert code == 0
    parse = json.loads(out)["parse"]
    assert (parse["records"], parse["malformed"]) == (records, 1)


@pytest.mark.parametrize("from_stdin", [False, True], ids=["path", "stdin"])
def test_an_unreadable_log_is_one_error_line_naming_it(tmp_path, capsys, monkeypatch,
                                                        from_stdin):
    path = tmp_path / "g.log"
    path.write_text("hello\nworld\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(path.read_text()))
    code, out, err = run(capsys, "analyze", "--logs", "-" if from_stdin else str(path))
    assert (code, out) == (1, "")
    name = "<stdin>" if from_stdin else str(path)
    assert err == (f"error: {name}: 2 of 2 lines are malformed; "
                   "stream does not look like a TLS log in the expected format\n")


def _tsv(*rows):
    return "".join("\t".join(row) + "\n" for row in rows)


def _class_totals(payload):
    return {cls: stats["total"] for cls, stats in payload["classes"].items()}


def _row(ts, ip):
    """A five-column line's fields: a resumed TLS 1.3 connection to ip at ts."""
    return (ts, ip, "TLSv1.3", "T", "-")


_FIVE_COLUMNS = _tsv(("1735690000", "104.16.1.1", "TLSv1.3", "T", "any text"),
                     ("1735690100", "52.1.1.1", "tls1.2", "F", '{"sni": [1]}'),
                     ("1735690200", "8.8.8.1", "TLSV13", "-", "-"))
_FOUR_FIELDS = "#fields\tts\tid.resp_h\tversion\tresumed\n" + _tsv(
    *(line.split("\t")[:4] for line in _FIVE_COLUMNS.splitlines()))
_ENDS_MAP = ("network,asn,org\n0.0.0.0/0,64500,ALL4\n255.255.255.255/32,13335,TOP\n"
             "::/0,64501,ALL6\n2001:db8::/32,16509,DOC\n2001:db8::/32,13335,DOC-AGAIN\n")


def _check_cut_stream(result, analyze):
    parse = json.loads(result[1])["parse"]
    assert (parse["records"], parse["malformed"]) == (4, 1)


def _check_odd_addresses(result, analyze):
    assert _class_totals(json.loads(result[1])) == {
        "CDN": 1, "Cloud": 1, "NonCDN": 0, "Unidentified": 3}


def _check_map_ends(result, analyze):
    assert _class_totals(json.loads(result[1])) == {
        "CDN": 2, "Cloud": 0, "NonCDN": 4, "Unidentified": 0}


def _check_same_as_four_fields(result, analyze):
    assert result == analyze(_FOUR_FIELDS)
    assert result[0] == 0


def _check_one_error_line(result, analyze):
    code, out, err = result
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def _check_edge_months(result, analyze):
    assert json.loads(result[1])["months"] == {"CDN": ["2024-01", "2024-02"], "Cloud": ["1970-01"]}


# analyze on odd logs and maps, through main on stdin in a temp directory: a stream
# cut mid-line, odd and edge addresses, a map over the whole address space, a
# five-column log against its #fields twin, a map whose range mixes families, and
# timestamps at the edges of months.
@pytest.mark.parametrize("stdin, asn_map, check", [
    ("".join(json.dumps({"ts": 1735690000 + i, "id.resp_h": "104.16.1.1", "version": "TLSv1.3",
                         "resumed": True}) + "\n" for i in range(5))[29:],  # tail -c +30
     None, _check_cut_stream),
    (_tsv(*(_row("1735690000", ip) for ip in (
        "104.16.1.1", "fe80::1%eth0", "::ffff:104.16.1.1", "010.1.1.1", "8.8.8.1"))),
     None, _check_odd_addresses),
    (_tsv(*(_row("1735690000", ip) for ip in (
        "0.0.0.0", "255.255.255.255", "255.255.255.254", "::", "2001:db8::1", "fe80::1%eth0"))),
     _ENDS_MAP, _check_map_ends),
    (_FIVE_COLUMNS, None, _check_same_as_four_fields),
    (None, "1.2.3.4-::1,13335,X\n", _check_one_error_line),
    (_tsv(_row("1706745599.9999996", "104.16.1.1"), _row("1706745599.999999", "104.16.1.1"),
          _row("-0.0000003", "52.1.1.1")),
     None, _check_edge_months),
], ids=["cut-json-stream", "odd-addresses", "map-ends", "five-columns", "mixed-range-map",
        "edge-timestamps"])
def test_analyze_checks_the_installed_package_step_runs(tmp_path, capsys, monkeypatch,
                                                       stdin, asn_map, check):
    from certflight.config import _data_path

    monkeypatch.chdir(tmp_path)
    flags = ()
    if asn_map is not None:
        (tmp_path / "map.csv").write_text(asn_map)
        flags = ("--asn-map", "map.csv")
    if stdin is None:  # the packaged sample, as the step reads it
        with open(_data_path("sample_tls_log.tsv"), encoding="utf-8") as f:
            stdin = f.read()

    def analyze(text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        return run(capsys, "analyze", *flags, "--logs", "-")

    check(analyze(stdin), analyze)


_MTC1_SWEEP = ("--seed", "1", "sweep", "--trials", "5", "--optimizers", "mtc1")


def _csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _check_csv_out_is_stdout(sweep):
    sweep(*_MTC1_SWEEP, "--out", "a.csv")
    assert Path("a.csv").read_text() == sweep(*_MTC1_SWEEP)


def _check_a_saved_default_config_changes_nothing(sweep):
    save_config(Config(), "c.json")
    assert sweep("--config", "c.json", *_MTC1_SWEEP) == sweep(*_MTC1_SWEEP)


def _check_json_out_is_stdout_and_parses(sweep):
    sweep(*_MTC1_SWEEP, "--format", "json", "--out", "a.json")
    text = Path("a.json").read_text()
    assert text == sweep(*_MTC1_SWEEP, "--format", "json")
    json.loads(text)


def _check_trials_set_the_spread(sweep):
    rows = {n: [(float(r["mean_ms"]), float(r["std_ms"]))
                for r in _csv_rows(sweep("--seed", "1", "sweep", "--trials", str(n)))]
            for n in (1, 2)}
    assert all(rows.values())
    assert all(math.isfinite(v) for table in rows.values() for row in table for v in row)
    assert all(s == 0 for _, s in rows[1]) and all(s > 0 for _, s in rows[2])


def _check_noisy_sweep_is_unbiased(sweep):
    Path("quiet.json").write_text('{"noise": {"kind": "none"}}')
    argv = ("--seed", "1", "sweep", "--trials", "100", "--sizes", "4:80:0.5")
    noisy, quiet = _csv_rows(sweep(*argv)), _csv_rows(sweep("--config", "quiet.json", *argv))
    assert len(noisy) == len(quiet) > 0
    assert all((a["stack"], a["rtt_ms"], a["size_kb"]) == (b["stack"], b["rtt_ms"], b["size_kb"])
               for a, b in zip(noisy, quiet))
    sigma, n = 0.2, 100
    z = sum((float(a["mean_ms"]) - float(b["mean_ms"])) / (sigma / math.sqrt(n))
            for a, b in zip(noisy, quiet)) / len(noisy)
    s2 = sum(float(a["std_ms"]) ** 2 / sigma**2 for a in noisy) / len(noisy)
    assert abs(z) <= 0.1 and abs(s2 - 1) <= 0.05, (z, s2)


# sweep's output paths and its noise, through main in a temp directory: --out equals
# stdout in CSV and JSON, a saved default config changes nothing, --trials sets the
# spread, and a noisy sweep is unbiased against the noise-free one.
@pytest.mark.parametrize("check", [
    _check_csv_out_is_stdout, _check_a_saved_default_config_changes_nothing,
    _check_json_out_is_stdout_and_parses, _check_trials_set_the_spread,
    _check_noisy_sweep_is_unbiased,
], ids=["csv-out", "saved-config", "json-out", "trials-spread", "noisy-unbiased"])
def test_sweep_checks_the_installed_package_steps_run(tmp_path, capsys, monkeypatch, check):
    monkeypatch.chdir(tmp_path)

    def sweep(*argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        return out

    check(sweep)


@pytest.mark.parametrize("network", ["1.2.3.4-::1", "10.0.0.9-10.0.0.1", "10.0.0.0-"],
                         ids=["mixed-versions", "reversed", "no-end"])
def test_a_bad_asn_map_range_is_one_error_line_naming_it(tmp_path, capsys, network):
    from certflight.config import _data_path

    path = tmp_path / "map.csv"
    path.write_text(f"network,asn,org\n{network},13335,X\n")
    code, out, err = run(capsys, "analyze", "--asn-map", str(path),
                         "--logs", _data_path("sample_tls_log.tsv"))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and network in err


@pytest.mark.parametrize("flag, name, data", [
    ("--asn-map", "map.csv", b"network,asn,org\n104.16.0.0/13,13335x,CLOUDFLARENET\n"),
    ("--asn-map", "map.csv", b"network,asn,org\n104.16.0.0/13,\"13335,X\n"),
    ("--asn-map", "map.csv", b"\xff\xfenetwork,asn,org\n"),
    ("--cdn-asns", "cdn.txt", b"abc\n"),
    ("--cloud-asns", "cloud.txt", b"\xff\xfe1\n"),
], ids=["map-typo", "map-open-quote", "map-not-utf8", "list-not-a-number", "list-not-utf8"])
def test_a_bad_asn_file_is_one_error_line_naming_it(tmp_path, capsys, flag, name, data):
    from certflight.config import _data_path

    path = tmp_path / name
    path.write_bytes(data)
    code, out, err = run(capsys, "analyze", flag, str(path),
                         "--logs", _data_path("sample_tls_log.tsv"))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err


def test_an_asn_map_network_that_does_not_parse_names_the_file_and_line(tmp_path, capsys):
    from certflight.config import _data_path

    path = tmp_path / "map.csv"
    path.write_text("network,asn,org\n104.16.0.0/33,13335,X\n")
    code, out, err = run(capsys, "analyze", "--asn-map", str(path),
                         "--logs", _data_path("sample_tls_log.tsv"))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}:2: ") and err.count("\n") == 1
    assert "104.16.0.0/33" in err


def test_analyze_out_prints_a_summary_line(tmp_path, capsys):
    from certflight.config import _data_path

    path = tmp_path / "stats.json"
    code, out, _ = run(capsys, "analyze", "--logs", _data_path("sample_tls_log.tsv"),
                       "--out", str(path))
    assert code == 0
    assert out == f"analyzed 20 records (0 malformed) -> {path}\n"
    assert json.loads(path.read_text())["parse"]["records"] == 20


def test_analyze_series_output(tmp_path, capsys):
    from certflight.config import _data_path

    series = tmp_path / "series.csv"
    code, _, _ = run(capsys, "analyze", "--logs", _data_path("sample_tls_log.tsv"),
                     "--series", str(series))
    assert code == 0
    text = series.read_text()
    assert text.startswith("class,month,total,tls13_rate,resumption_rate\n")
    assert "CDN,2025-01" in text


def test_calibrate_from_csv(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_text(
        "rtt_ms,ttfb_ms\n0,8.06\n10,28.71\n50,109.00\n100,208.84\n200,409.10\n"
    )
    code, out, _ = run(capsys, "calibrate", "--csv", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["base_ms"] == pytest.approx(8.4884, abs=1e-3)
    assert payload["base_flights"] == pytest.approx(2.0035, abs=1e-3)
    assert payload["points"] == 5


def test_calibrate_penalty(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_text("0,338.0\n50,593.0\n100,848.0\n")
    code, out, _ = run(capsys, "calibrate", "--csv", str(path), "--penalty", "1",
                       "--format", "text")
    assert code == 0
    assert "base_flights=4.1000" in out


def test_calibrate_rejects_single_rtt(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_text("50,100\n50,101\n")
    code, _, err = run(capsys, "calibrate", "--csv", str(path))
    assert code == 1
    assert "distinct" in err


def test_calibrate_takes_only_the_first_row_as_a_header(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_text("size_kb,ttfb_ms\n10,100\n20x,150\n30,200\n40,260\n")
    code, out, err = run(capsys, "calibrate", "--csv", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}:3: ") and err.count("\n") == 1
    assert "20x" in err


def test_calibrate_reads_a_headerless_csv_saved_with_a_bom(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_bytes(b"\xef\xbb\xbf0,8.06\n10,28.71\n50,109.00\n100,208.84\n200,409.10\n")
    code, out, _ = run(capsys, "calibrate", "--csv", str(path))
    assert code == 0
    assert json.loads(out)["points"] == 5


@pytest.mark.parametrize("value", ["nan", "inf", "=-inf"])
@pytest.mark.parametrize("flag", ["--penalty", "--resumed-base"])
def test_calibrate_refuses_a_non_finite_flag_naming_the_flag(tmp_path, capsys, flag, value):
    path = tmp_path / "points.csv"
    path.write_text("rtt_ms,ttfb_ms\n0,8.06\n10,28.71\n50,109.00\n")
    flags = [flag + value] if value.startswith("=") else [flag, value]
    code, out, err = run(capsys, "calibrate", "--csv", str(path), *flags)
    line = f"error: {flag}: {float(value.lstrip('='))!r} is not a finite number\n"
    assert (code, out, err) == (1, "", line)


def test_calibrate_refuses_a_negative_resumed_base_before_reading_the_csv(tmp_path, capsys):
    code, out, err = run(capsys, "calibrate", "--csv", str(tmp_path / "missing.csv"),
                         "--resumed-base", "-3")
    assert (code, out, err) == (
        1, "", "error: --resumed-base: resumed_base_ms must be >= 0, got -3.0\n")


@pytest.mark.parametrize("argv", [
    ("estimate", "--stack", "Neg", "--rtt", "0", "--size-kb", "5", "--resumed"),
    ("savings", "--stack", "Neg", "--rtt", "10", "--size-kb", "5", "--rate", "0.5"),
], ids=["estimate", "savings"])
def test_a_configured_negative_resumed_base_is_refused(tmp_path, capsys, argv):
    path = tmp_path / "neg.json"
    path.write_text(json.dumps({"stacks": {"Neg": {"base_ms": 5, "base_flights": 2,
                                                   "resumed_base_ms": -100}}}))
    code, out, err = run(capsys, "--config", str(path), *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {path}: config stacks.Neg: resumed_base_ms must be >= 0, got -100.0\n"


@pytest.mark.parametrize("row", ["10,inf", "10,nan", "1e400,20", ",500", "10,x"])
def test_calibrate_refuses_a_non_finite_or_blank_cell_at_its_line(tmp_path, capsys, row):
    path = tmp_path / "points.csv"
    path.write_text(f"rtt_ms,ttfb_ms\n0,8\n{row}\n50,109\n100,208\n")
    code, out, err = run(capsys, "calibrate", "--csv", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}:3: {row!r} ") and err.count("\n") == 1


@pytest.mark.parametrize("data, message", [
    (b"50,100\n50,101\n", ": need measurements at two or more distinct RTTs"),
    ((Path(__file__).parent / "data" / "overflow_points.csv").read_bytes(),
     ": measurements too large to fit"),
    (b"0,8\n10,\xff\n", ": not UTF-8 text"),
    (b"0,8\n" + b"1" * 200_000 + b",5\n", ":2: field larger than field limit"),
    (b"rtt_ms,ttfb_ms\n0,8\n5e-324,20\n", ": RTTs too close together to fit a slope\n"),
], ids=["one-rtt", "overflow", "not-utf8", "huge-field", "rtts-too-close"])
def test_every_calibrate_error_names_its_file(tmp_path, capsys, data, message):
    path = tmp_path / "points.csv"
    path.write_bytes(data)
    code, out, err = run(capsys, "calibrate", "--csv", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}{message}") and err.count("\n") == 1


def test_a_reader_that_closes_stdout_early_is_not_an_error():
    import os
    import subprocess
    import sys

    import certflight

    src = os.path.dirname(os.path.dirname(certflight.__file__))
    with subprocess.Popen(
        [sys.executable, "-m", "certflight.cli", "sweep", "--rtts", "10", "--sizes", "4:2000:0.5"],
        env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline().startswith(b"stack,")
        proc.stdout.close()  # about 250 KB is still to come, more than a pipe holds
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""


def test_main_ends_quietly_with_exit_0_when_stdout_is_a_broken_pipe(tmp_path, capsys):
    """The test above in-process: main's BrokenPipeError branch returns 0, prints
    no error and points stdout's descriptor at devnull, so nothing written later lands."""
    import contextlib
    import os

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return target.fileno()

    with open(tmp_path / "stdout", "wb") as target, contextlib.redirect_stdout(ClosedPipe()):
        assert main(["sweep", "--rtts", "10", "--sizes", "4:8:1"]) == 0
        os.write(target.fileno(), b"late")
    assert (tmp_path / "stdout").read_bytes() == b""
    assert capsys.readouterr().err == ""


def test_main_leaves_no_descriptor_open_after_a_broken_pipe(capsys):
    import contextlib
    import os

    before = len(os.listdir("/proc/self/fd"))
    for _ in range(3):
        read, write = os.pipe()
        os.close(read)
        with open(write, "w") as pipe, contextlib.redirect_stdout(pipe):
            assert main(["sweep", "--rtts", "10", "--sizes", "4:8:1"]) == 0
    assert len(os.listdir("/proc/self/fd")) == before
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command, argv", [
    ("cmd_sweep", ["sweep", "--rtts", "10", "--sizes", "4:8:1"]),
    ("cmd_analyze", ["analyze", "--logs", "-"]),
])
def test_main_ends_with_one_error_line_when_memory_runs_out(monkeypatch, capsys, command, argv):
    """A MemoryError that escapes a command is one error line and exit 1, not a
    traceback. The command is replaced, so no memory is really allocated."""
    import certflight.cli as cli

    def exhausted(args, cfg):
        raise MemoryError

    monkeypatch.setattr(cli, command, exhausted)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: out of memory\n"


def test_config_file_overrides_defaults(tmp_path, capsys):
    cfg = Config()
    cfg.flight = cfg.flight.replace(
        mode="empirical", empirical_thresholds_kb=(14.0,)
    )
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    code, out, _ = run(capsys, "--config", str(path), "estimate", "--scheme",
                       "slh-dsa", "--rtt", "50", "--format", "json")
    assert code == 0
    assert json.loads(out)["extra_rtts"] == 1


def test_config_env_var(tmp_path, capsys, monkeypatch):
    cfg = Config()
    cfg.kb_bytes = 1024
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    monkeypatch.setenv(ENV_CONFIG, str(path))
    out_dir = tmp_path / "chain"
    code, out, _ = run(capsys, "forge", "--scheme", "ecdsa", "--size-kb", "2",
                       "--out-dir", str(out_dir))
    assert code == 0
    assert "target=2048" in out


def test_config_flag_beats_env(tmp_path, capsys, monkeypatch):
    env_cfg = tmp_path / "env.json"
    save_config(Config(), env_cfg)
    flag_cfg = tmp_path / "flag.json"
    cfg = Config()
    cfg.kb_bytes = 1024
    save_config(cfg, flag_cfg)
    monkeypatch.setenv(ENV_CONFIG, str(env_cfg))
    out_dir = tmp_path / "chain"
    code, out, _ = run(capsys, "--config", str(flag_cfg), "forge", "--scheme",
                       "ecdsa", "--size-kb", "1", "--out-dir", str(out_dir))
    assert code == 0
    assert "target=1024" in out


def test_config_round_trip(tmp_path):
    cfg = Config()
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    from certflight.config import load_config

    again = load_config(path)
    assert config_to_dict(again) == config_to_dict(cfg)


def test_bad_config_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2, 3]")
    code, _, err = run(capsys, "--config", str(path), "regions")
    assert code == 1
    assert "config" in err.lower()


def test_seed_flag_changes_noise_only(tmp_path, capsys):
    base = ("sweep", "--rtts", "50", "--sizes", "8:8:1", "--trials", "5")
    _, out_a, _ = run(capsys, "--seed", "1", *base)
    _, out_b, _ = run(capsys, "--seed", "2", *base)
    row_a = out_a.splitlines()[1].split(",")
    row_b = out_b.splitlines()[1].split(",")
    assert row_a[3] != row_b[3]  # different noise
    assert row_a[5] == row_b[5] == "0"  # same structure


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("trials", ["1", "100"])
def test_a_noise_sigma_a_draw_could_overflow_is_refused_before_any_row(tmp_path, capsys,
                                                                        trials, fmt):
    path = tmp_path / "big.json"
    path.write_text('{"noise": {"kind": "gaussian", "std_ms": 1.7e308}}')
    code, out, err = run(capsys, "--config", str(path), "--seed", "1", "sweep", "--trials", trials,
                         "--rtts", "10", "--stacks", "ClassicalSim", "--sizes", "4:80:1",
                         "--format", fmt)
    assert (code, out) == (1, "")
    assert err.startswith("error: noise.std_ms 1.7e+308 ") and err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_mean_plus_noise_that_could_overflow_is_refused_before_any_row(tmp_path, capsys, fmt):
    # The sigma alone passes the sampler's check; the total of about 1.6e308 ms
    # plus its largest draw does not.
    path = tmp_path / "mid.json"
    path.write_text('{"noise": {"kind": "gaussian", "std_ms": 1e307}}')
    code, out, err = run(capsys, "--config", str(path), "--seed", "1", "sweep", "--trials", "1",
                         "--rtts", "4e307", "--stacks", "ClassicalSim", "--sizes", "4:80:1",
                         "--format", fmt)
    assert (code, out) == (1, "")
    assert err.startswith("error: noise.std_ms 1e+307 is too large for a mean of ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("estimate", "--rtt", "10", "--size-kb", "-1"),
    ("thresholds", "--step-kb", "0"),
    ("sweep", "--sizes", "4:nan:1", "--trials", "2"),
    ("estimate", "--rtt", "10", "--size-kb", "nan"),
    ("estimate", "--rtt", "nan"),
    ("savings", "--size-kb", "inf", "--mode", "analytic", "--rtt", "10", "--rate", "0.5"),
    ("thresholds", "--max-kb", "inf"),
    ("regions", "--thresholds", "inf"),
    ("estimate", "--rtt", "1e308", "--size-kb", "50", "--format", "json"),
    ("sweep", "--rtts", "1e308"),
    ("sweep", "--rtts", ""),
    ("sweep", "--stacks", ""),
    ("sweep", "--sizes", ""),
    ("sweep", "--optimizers", "cdn25,cdn25"),
    ("sweep", "--rtts", "10,50,10"),
    ("sweep", "--stacks", "ClassicalSim,ClassicalSim"),
    ("regions", "--optimizers", ""),
    ("regions", "--optimizers", ","),
    ("regions", "--thresholds", ""),
    ("regions", "--thresholds", "1.5", "--optimizers", "mtc1,identity"),
    ("regions", "--thresholds", "1.5", "--optimizers", "mtc1"),
    ("regions", "--thresholds", "10", "--optimizers", "identity"),
    ("regions", "--thresholds", "1.0000001", "--optimizers", "mtc2"),
    ("sweep", "--optimizers", "mtc9"),
    ("regions", "--optimizers", "mtc1,mtc1"),
    ("--config", "no/such/config.json", "regions"),
])
def test_bad_input_is_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def _infinite_total(estimate_ttfb):
    def estimate(*args, **kwargs):
        return estimate_ttfb(*args, **kwargs).replace(total_ms=math.inf)
    return estimate


def _forced(record, **fields):
    """record with fields set past its own checks, as a value no check caught would be."""
    for name, value in fields.items():
        object.__setattr__(record, name, value)
    return record


def _infinite_savings(estimate_savings):
    def estimate(*args, **kwargs):
        return _forced(estimate_savings(*args, **kwargs), expected_savings_ms=math.inf)
    return estimate


def _nan_region(compute_regions):
    def regions(*args, **kwargs):
        return [_forced(r, upper_kb_exact=math.nan) for r in compute_regions(*args, **kwargs)]
    return regions


# A non-finite number that got past every upstream check reaches the JSON writers,
# which refuse it: JSON has no Infinity or NaN (RFC 8259, section 6).
@pytest.mark.parametrize("module, name, fake, argv", [
    ("cli", "estimate_ttfb", _infinite_total,
     ("estimate", "--rtt", "50", "--size-kb", "12", "--format", "json")),
    ("cli", "estimate_savings", _infinite_savings,
     ("savings", "--rtt", "50", "--size-kb", "12", "--rate", "0.5", "--format", "json")),
    ("sweep_runner", "compute_regions", _nan_region, ("regions", "--format", "json")),
], ids=["estimate", "savings", "regions"])
def test_a_non_finite_number_is_refused_in_json(capsys, monkeypatch, module, name, fake, argv):
    import importlib

    module = importlib.import_module(f"certflight.{module}")
    monkeypatch.setattr(module, name, fake(getattr(module, name)))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    # Text and CSV have a spelling for the number, so they still print it.
    code, out, _ = run(capsys, *argv[:-2])
    assert code == 0 and ("inf" in out or "nan" in out)


@pytest.mark.parametrize("text, key", [
    ('{"flight": {"iw_byte": 1}}', "flight.iw_byte"),
    ('{"flight": 5}', "flight"),
    ('{"stacks": {"X": {"base_ms": 1}}}', "stacks.X.base_flights"),
    ('{"noise": {"std_ms": NaN}}', "std_ms"),
    ('{"flight": {"iw_bytes": NaN}}', "iw_bytes"),
    ('{"sweep": {"trials": 10.5}}', "trials"),
    ('{"flight": {"kb_bytes": 1024}}', "flight.kb_bytes"),
    ('{"sweep": {"optimizers": [{"kind": "cdn-moderate", "factor": Infinity}]}}', "factor"),
])
def test_bad_config_is_one_error_line_naming_the_key(tmp_path, capsys, text, key):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    code, out, err = run(capsys, "--config", str(path), "estimate", "--rtt", "10")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and key in err


def test_noise_seed_is_an_unknown_key(tmp_path, capsys):
    # sweep.seed (or --seed) is the only seed, so a file naming noise.seed is refused.
    path = tmp_path / "cfg.json"
    path.write_text('{"noise": {"seed": 1}}')
    code, out, err = run(capsys, "--config", str(path), "sweep")
    assert (code, out, err) == (1, "", f"error: {path}: unknown config key noise.seed\n")


@pytest.mark.parametrize("text, message", [
    ('{"flight": {"iw_bytes": "x"}}',
     "config flight: iw_bytes must be an integer within float range, got 'x'"),
    ('{"flite": 1}', "unknown config key flite"),
], ids=["bad-value", "unknown-key"])
@pytest.mark.parametrize("named_by", ["flag", "env"])
def test_a_config_error_names_the_file(tmp_path, capsys, monkeypatch, named_by, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    argv = ("estimate", "--rtt", "1")
    if named_by == "flag":
        argv = ("--config", str(path)) + argv
    else:
        monkeypatch.setenv(ENV_CONFIG, str(path))
    assert run(capsys, *argv) == (1, "", f"error: {path}: {message}\n")


@pytest.mark.parametrize("data", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
                         ids=["not-utf8", "nested-too-deep"])
def test_an_unreadable_config_is_one_error_line_naming_it(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    code, out, err = run(capsys, "--config", str(path), "estimate", "--rtt", "1")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read config {path}: ") and err.count("\n") == 1


def test_kb_bytes_drives_flight_model_and_forge(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"kb_bytes": 1024}')
    argv = ("estimate", "--size-kb", "10", "--mode", "analytic", "--rtt", "10", "--format", "json")
    _, out, _ = run(capsys, *argv)
    assert json.loads(out)["extra_rtts"] == 0
    _, out, _ = run(capsys, "--config", str(path), *argv)
    assert json.loads(out)["extra_rtts"] == 1  # 10240 + 4000 bytes > 14000
    code, out, _ = run(capsys, "--config", str(path), "forge", "--size-kb", "2",
                       "--out-dir", str(tmp_path / "chain"))
    assert code == 0
    assert "target=2048" in out


@pytest.mark.parametrize("bad_ts", ["nan", "1e300", "-inf"])
def test_analyze_counts_unrenderable_timestamp_as_malformed(tmp_path, capsys, bad_ts):
    path = tmp_path / "log.tsv"
    path.write_text(
        "1735690000.0\t104.16.1.1\tTLSv1.3\tT\t-\n"
        f"{bad_ts}\t104.16.1.1\tTLSv1.3\tT\t-\n"
        "1735690100.0\t104.16.1.1\tTLSv1.2\tF\t-\n"
    )
    code, out, _ = run(capsys, "analyze", "--logs", str(path), "--series", str(tmp_path / "s.csv"))
    assert code == 0
    payload = json.loads(out)
    assert payload["parse"]["malformed"] == 1
    assert payload["parse"]["records"] == 2


@pytest.mark.parametrize("argv", [
    ("estimate", "--rtt", "10", "--resumed", "--size-kb", "nan"),
    ("estimate", "--rtt", "10", "--resumed", "--size-kb", "inf"),
    ("thresholds", "--step-kb", "1e-9", "--max-kb", "80"),
    ("thresholds", "--step-kb", "1e-320", "--max-kb", "80"),
    ("sweep", "--sizes", "4:80:1e-9"),
    ("sweep", "--sizes", "4:80:1e-320"),
    ("estimate", "--mode", "analytic", "--size-kb", "1e306", "--rtt", "10"),
    ("--config", str(Path(__file__).parent / "data" / "huge_growth_factor.json"),
     "estimate", "--mode", "analytic", "--size-kb", "1e10", "--rtt", "10"),
    ("regions", "--thresholds", "1e308"),
    ("forge", "--size-kb", "1e300", "--out-dir", "never-written"),
    ("forge", "--size-kb", "1e306", "--out-dir", "never-written"),
    ("calibrate", "--csv", str(Path(__file__).parent / "data" / "overflow_points.csv")),
    ("estimate", "--rtt", "50", "--intermediates", "1" + "0" * 400),
    ("forge", "--intermediates", "100000000", "--out-dir", "never-written"),
    ("forge", "--intermediates", "1" + "0" * 400, "--out-dir", "never-written"),
])
def test_bad_resumed_size_or_huge_grid_is_one_error_line(capsys, argv):
    test_bad_input_is_one_error_line(capsys, argv)


@pytest.mark.parametrize("flags", [("--thresholds", ""), ("--thresholds", ",")])
def test_an_empty_threshold_list_is_used_not_replaced_by_the_config(capsys, flags):
    # The configured thresholds, [10, 40], would charge 12 KB one extra round trip.
    code, out, _ = run(capsys, "estimate", "--rtt", "50", "--size-kb", "12", *flags)
    assert code == 0 and "extra_rtts=0 " in out


def test_cli_runs_without_numpy(tmp_path):
    """With numpy made unimportable, the commands that once used it all work."""
    import os
    import subprocess
    import sys

    import certflight
    from certflight.config import _data_path

    points = tmp_path / "points.csv"
    points.write_text("rtt_ms,ttfb_ms\n0,8.06\n10,28.71\n50,109.00\n100,208.84\n200,409.10\n")
    argvs = [
        ["estimate", "--rtt", "50", "--size-kb", "12"],
        ["sweep", "--rtts", "10,50", "--sizes", "4:16:4", "--trials", "20"],
        ["calibrate", "--csv", str(points)],
        ["analyze", "--logs", _data_path("sample_tls_log.tsv"),
         "--series", str(tmp_path / "series.csv")],
    ]
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from certflight.cli import main\n"
        f"sys.exit(max(main(argv) for argv in {argvs!r}))\n"
    )
    src = os.path.dirname(os.path.dirname(certflight.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("CERTFLIGHT_CONFIG", None)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "mean_ms" in proc.stdout and "base_flights" in proc.stdout


LAZY_IMPORTS = """
import importlib, sys
before = set(sys.modules)
import certflight.cli
loaded = {"socket", "certflight.cert_forge", "certflight.tls_log_analytics"} & set(sys.modules)
assert not loaded - before, loaded - before
names = {}
exec("from certflight import *", names)
import certflight
for name, module in certflight._MODULE_OF.items():
    assert names[name] is getattr(importlib.import_module("certflight." + module), name), name
print(len(certflight._MODULE_OF))
"""


def test_import_is_lazy_and_a_star_import_binds_every_name():
    """Forge and analyze modules, and socket, load only when their command runs;
    a star import still binds every public name to its module's object."""
    import os
    import subprocess
    import sys

    import certflight

    src = os.path.dirname(os.path.dirname(certflight.__file__))
    proc = subprocess.run([sys.executable, "-c", LAZY_IMPORTS],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "58\n"


COMMAND_IMPORTS = """
import importlib.util, json, sys
from certflight.cli import main
out_dir, points, log = sys.argv[1:]
codes = {"estimate": main(["estimate", "--rtt", "50", "--format", "json"]),
         "forge": main(["forge", "--scheme", "ml-dsa", "--out-dir", out_dir])}
unneeded = {"certflight.sweep_runner", "certflight.tables", "csv", "hashlib", "_sha2", "_sha256",
            "statistics", "dataclasses", "inspect"}
loaded = sorted(unneeded & set(sys.modules))
for argv in (["analyze", "--logs", log], ["calibrate", "--csv", points]):
    codes[argv[0]] = main(argv)
numeric_or_socket = {"statistics", "fractions", "decimal", "socket", "selectors"}
loaded_by_analysis = sorted(numeric_or_socket & set(sys.modules))
for argv in (["sweep", "--rtts", "10", "--sizes", "4:8:4", "--trials", "3"], ["regions"],
             ["savings", "--rtt", "50", "--size-kb", "12", "--rate", "0.5", "--format", "json"],
             ["thresholds", "--format", "csv"]):
    codes[argv[0]] = main(argv)
generated_code = sorted({"dataclasses", "inspect"} & set(sys.modules))
print(json.dumps({"loaded": loaded, "loaded_by_analysis": loaded_by_analysis, "codes": codes,
                  "generated_code": generated_code,
                  "openssl": sorted({"hashlib", "_hashlib"} & set(sys.modules)),
                  "builtin_sha256": any(map(importlib.util.find_spec, ("_sha2", "_sha256")))}))
"""


def test_estimate_and_forge_load_no_sweep_table_or_statistics_code(tmp_path):
    """estimate and forge load none of the sweep, the table code, csv, a SHA-256
    module or statistics; the commands that do need them import them and still
    run. No command loads dataclasses or inspect: the records are built without
    generated code. analyze and calibrate compute their statistics with
    math.fsum and read addresses with _socket, so they load neither statistics
    (nor its fractions and decimal) nor socket (nor its selectors). Where the
    interpreter has its own SHA-256, no command, the noisy sweep included,
    loads hashlib and with it OpenSSL."""
    import os
    import subprocess
    import sys

    import certflight
    from certflight.config import _data_path

    points = tmp_path / "points.csv"
    points.write_text("rtt_ms,ttfb_ms\n0,8.06\n10,28.71\n50,109.00\n")
    src = os.path.dirname(os.path.dirname(certflight.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("CERTFLIGHT_CONFIG", None)
    proc = subprocess.run(
        [sys.executable, "-c", COMMAND_IMPORTS, str(tmp_path / "chain"), str(points),
         _data_path("sample_tls_log.tsv")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["loaded"] == []
    assert report["loaded_by_analysis"] == []
    assert report["generated_code"] == []
    assert report["codes"] == dict.fromkeys(
        ["estimate", "forge", "analyze", "calibrate", "sweep", "regions", "savings",
         "thresholds"], 0)
    assert report["openssl"] == [] or not report["builtin_sha256"]


# What importing the CLI and running estimate load, each checked in a fresh
# interpreter: in-process, sys.modules holds what other tests loaded.
@pytest.mark.parametrize("script", [
    'import sys, certflight.cli; assert "socket" not in sys.modules',
    'import sys, certflight.cli as c; '
    'assert c.main(["estimate", "--rtt", "50", "--size-kb", "12"]) == 0; '
    'loaded = {"certflight.sweep_runner", "csv", "hashlib", "statistics"} & set(sys.modules); '
    'assert not loaded, loaded',
    'import sys, certflight.cli as c; '
    'assert c.main(["estimate", "--rtt", "50", "--size-kb", "12"]) == 0; '
    'assert c.main(["forge", "--scheme", "ml-dsa", "--out-dir", "chain"]) == 0; '
    'loaded = {"dataclasses", "inspect"} & set(sys.modules); '
    'assert not loaded, loaded',
], ids=["no-socket-on-import", "estimate-loads-no-sweep-csv-hashlib-statistics",
        "estimate-and-forge-load-no-dataclasses-or-inspect"])
def test_the_installed_package_step_import_checks_run(tmp_path, script):
    import os
    import subprocess
    import sys

    import certflight

    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(certflight.__file__))}
    env.pop("CERTFLIGHT_CONFIG", None)
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_analyze_replaces_undecodable_bytes(tmp_path, capsys):
    path = tmp_path / "log.tsv"
    path.write_bytes(
        b"1735690000.0\t104.16.1.1\tTLSv1.3\tT\tex\xffample.com\n"
        b"1735690100.0\t104.16.1.\xff\tTLSv1.2\tF\t-\n"
        b"1735690200.0\t104.16.1.1\tTLSv1.3\tF\t-\n"
    )
    code, out, _ = run(capsys, "analyze", "--logs", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["parse"]["records"] == 3
    assert payload["parse"]["malformed"] == 0
    assert payload["classes"]["CDN"]["total"] == 2
    assert payload["classes"]["Unidentified"]["total"] == 1  # the address is no IP any more
