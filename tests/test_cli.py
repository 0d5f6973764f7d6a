import json
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


def test_sweep_bad_size_spec(capsys):
    code, _, err = run(capsys, "sweep", "--sizes", "4-80")
    assert code == 1
    assert "start:end:step" in err


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


def test_savings_json(capsys):
    code, out, _ = run(capsys, "savings", "--rtt", "50", "--size-kb", "11.9",
                       "--rate", "0.803", "--format", "json")
    payload = json.loads(out)
    assert payload["expected_savings_ms"] == pytest.approx(41.0333)


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
    import io

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


def test_config_file_overrides_defaults(tmp_path, capsys):
    import dataclasses

    cfg = Config()
    cfg.flight = dataclasses.replace(
        cfg.flight, mode="empirical", empirical_thresholds_kb=(14.0,)
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


@pytest.mark.parametrize("argv", [
    ("estimate", "--rtt", "10", "--size-kb", "-1"),
    ("thresholds", "--step-kb", "0"),
    ("sweep", "--sizes", "4:nan:1", "--trials", "2"),
    ("estimate", "--rtt", "10", "--size-kb", "nan"),
    ("estimate", "--rtt", "nan"),
    ("savings", "--size-kb", "inf", "--mode", "analytic", "--rtt", "10", "--rate", "0.5"),
    ("thresholds", "--max-kb", "inf"),
    ("regions", "--thresholds", "inf"),
])
def test_bad_input_is_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


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
])
def test_bad_resumed_size_or_huge_grid_is_one_error_line(capsys, argv):
    test_bad_input_is_one_error_line(capsys, argv)


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
