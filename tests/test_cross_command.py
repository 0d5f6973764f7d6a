"""One property across the commands behind the paper's three claims.

For one stack, RTT, chain size and flight model, estimate's total_ms, the
noise-free sweep row's mean_ms and savings' full_ms are one number: the TTFB
steps, the size optimizers' rows and the resumption savings are read off the
same model. And an optimizer's sweep row keeps the raw row's round trips up
to its region's upper edge, as regions reports it, and pays one more just past
it. Every run goes through cli.main with its argv, as a user would run it;
each sweep is one stack, one RTT and one size, so no example starts a large one.
"""

import contextlib
import csv
import io
import json
import math

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from certflight.cli import _OPTIMIZER_ALIASES, main
from certflight.ttfb_engine import DEFAULT_STACKS

QUIET = {"noise": {"kind": "none"}}
_NAMES = {opt.label: name for name, opt in _OPTIMIZER_ALIASES.items() if name != "identity"}


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert (code, err.getvalue()) == (0, ""), argv
    return out.getvalue()


def _sweep_row(config, size, *flags, optimizer=""):
    """The row of a one-size sweep at size whose optimizer column is optimizer."""
    text = _cli("--config", config, "sweep", "--sizes", f"{size!r}:{size!r}:1", *flags)
    (row,) = [row for row in csv.DictReader(io.StringIO(text))
              if row.get("optimizer", "") == optimizer]
    assert float(row["size_kb"]) == size
    return row


def _thresholds_flag(thresholds):
    return ("--thresholds", ",".join(map(repr, thresholds)))


# A flight model as (the config's flight section, the flags that select it).
_FLIGHTS = st.one_of(
    st.just(({}, ())),  # the configured empirical thresholds
    st.lists(st.floats(0.5, 200.0), max_size=3, unique=True).map(
        lambda t: ({}, _thresholds_flag(sorted(t)))),
    st.just(({}, ("--mode", "analytic"))),
    st.builds(lambda iw, g, overhead: ({"mode": "analytic", "iw_bytes": iw, "growth_factor": g,
                                        "handshake_overhead_bytes": overhead}, ()),
              st.integers(1000, 50_000), st.floats(1.1, 4.0), st.integers(0, 8000)),
)


@settings(max_examples=60, deadline=None)
@given(stack=st.sampled_from(sorted(DEFAULT_STACKS)), rtt=st.floats(0.0, 500.0),
       size=st.floats(0.0, 200.0), flight=_FLIGHTS)
@example(stack="OqsSlhdsa", rtt=50.0, size=48.7, flight=({}, ()))
@example(stack="ClassicalSim", rtt=50.0, size=10.0, flight=({}, ("--thresholds", "10.0")))
@example(stack="ClassicalSim", rtt=0.0, size=0.0, flight=({}, ("--thresholds", "")))
def test_estimate_sweep_and_savings_agree_on_the_full_ttfb(tmp_path_factory, stack, rtt, size,
                                                          flight):
    section, flags = flight
    config = tmp_path_factory.mktemp("cfg") / "config.json"
    config.write_text(json.dumps({**QUIET, "flight": section}))
    config = str(config)
    estimate = json.loads(_cli("--config", config, "estimate", "--stack", stack, "--rtt",
                               repr(rtt), "--size-kb", repr(size), *flags, "--format", "json"))
    row = _sweep_row(config, size, "--stacks", stack, "--rtts", repr(rtt), *flags)
    savings = json.loads(_cli("--config", config, "savings", "--stack", stack, "--rtt",
                              repr(rtt), "--size-kb", repr(size), "--rate", "0.5", *flags,
                              "--format", "json"))
    assert estimate["total_ms"] == float(row["mean_ms"]) == savings["full_ms"]
    assert (float(row["std_ms"]), int(row["extra_rtts"])) == (0.0, estimate["extra_rtts"])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(2.5, 2000.0), min_size=1, max_size=3, unique=True).map(sorted))
# The closed form put some of these region edges an ulp off (the float search fixes them).
@example([14.0, 38.0, 94.0])
@example([10.0, 40.0])
def test_an_optimizer_row_pays_one_more_round_trip_just_past_its_region(tmp_path_factory,
                                                                        thresholds):
    # Thresholds an ulp or so apart would share a region edge's wire size.
    assume(all(b > a * (1 + 1e-9) for a, b in zip(thresholds, thresholds[1:])))
    config = tmp_path_factory.mktemp("cfg") / "quiet.json"
    config.write_text(json.dumps(QUIET))
    config, flag = str(config), _thresholds_flag(thresholds)
    line = ("--stacks", "ClassicalSim", "--rtts", "50", *flag)
    raw = {t: int(_sweep_row(config, t, *line)["extra_rtts"]) for t in thresholds}
    assert sorted(raw.values()) == list(range(len(thresholds)))
    regions = json.loads(_cli("regions", *flag, "--format", "json"))
    assert len(regions) == 4 * len(thresholds)
    for region in regions:
        upper, optimizer = region["upper_kb_exact"], region["optimizer"]
        flags = (*line, "--optimizers", _NAMES[optimizer])
        at_edge = _sweep_row(config, upper, *flags, optimizer=optimizer)
        past = _sweep_row(config, math.nextafter(upper, math.inf), *flags, optimizer=optimizer)
        extra = raw[region["threshold_kb"]]
        assert (int(at_edge["extra_rtts"]), int(past["extra_rtts"])) == (extra, extra + 1)
