"""Which lines of the certflight package the golden corpus, or the test suite, reaches.

Runs every entry of cli.json, as regen.py does, under a sys.settrace line
tracer; with --tests it runs the tests/ suite in-process under the same tracer
instead. Then it prints, per module of the package, the reached and the
executable line counts, their totals, and each line the run did not reach, as
`module:line: source`. A line is executable if co_lines() of the module's
compiled code, or of any code object nested in it, names it.

    PYTHONPATH=src python tests/golden/reach.py          # the corpus, a few seconds
    PYTHONPATH=src python tests/golden/reach.py --check  # the corpus against unreached.txt
    PYTHONPATH=src python tests/golden/reach.py --tests  # the suite, about two minutes

--check compares the lines the corpus does not reach with unreached.txt, as
multisets of `module: stripped source` lines: keyed by text, so code that moves
keeps its entry, and counted, so a repeated line such as `continue` is listed
once per copy. Each entry sits under a `# reason: detail` header whose reason is
one of REASONS. A `version` header whose detail reads `Python >= X.Y` holds
only on such interpreters. The check prints each line
unreached but not listed, and each listed line the corpus reaches, and exits 1
if there is any (or a header names no known reason). When code or the corpus
changes on purpose, run the default mode, and move each line it reports into
the file under its reason, or out of it.

Run it in a fresh interpreter, as above: a module imported before the tracer
starts has its top-level lines counted as unreached. A test that runs certflight
in a subprocess adds nothing to the suite's reach. With --tests the exit code is
the suite's.
"""

from __future__ import annotations

import importlib.util
import os
import re
import sys
import types
from collections import Counter
from pathlib import Path

from regen import load, outcome

PACKAGE = Path(importlib.util.find_spec("certflight").submodule_search_locations[0])
TESTS = Path(__file__).resolve().parent.parent
UNREACHED = Path(__file__).with_name("unreached.txt")

# Why a line the corpus does not reach stays in the package.
REASONS = re.compile(
    r"criterion [1-9]"  # used by that acceptance criterion in tests/test_acceptance.py
    r"|README API"  # named in README's Python API section
    r"|bench hook"  # wrapped by bench/tracer.py
    r"|API guard"  # checks input given at the Python API
    r"|version"  # reached or not by the interpreter's version
    r"|corpus cannot hold the input"  # the detail names the test that reaches it
    r"|oracle for item 13")  # ROADMAP's closed-form find_thresholds is checked against it


def code_lines(code: types.CodeType) -> set[int]:
    """The line numbers co_lines() names for code and the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def executable(path: Path) -> set[int]:
    """The executable lines of the module at path."""
    return code_lines(compile(path.read_bytes(), str(path), "exec"))


def reach(run) -> dict[str, set[int]]:
    """Per file of the package, the lines run while run() runs."""
    prefix = str(PACKAGE) + os.sep
    reached: dict[str, set[int]] = {}

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None  # no line events for frames outside the package
        lines = reached.setdefault(path, set())
        lines.add(frame.f_lineno)

        def line(frame, event, arg):
            lines.add(frame.f_lineno)
            return line

        return line

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(previous)
    return reached


def listed(text: str) -> Counter:
    """The entries of unreached.txt's text that hold on this interpreter's version;
    ValueError for an entry before any header or a header of no known reason."""
    entries, holds = Counter(), None
    for n, line in enumerate(text.splitlines(), 1):
        if line.startswith("#"):
            reason, _, detail = line[1:].strip().partition(": ")
            if not REASONS.fullmatch(reason):
                raise ValueError(f"{UNREACHED.name}:{n}: no known reason in {line!r}")
            bound = re.search(r"Python >= (\d+)\.(\d+)", detail) if reason == "version" else None
            holds = not bound or sys.version_info[:2] >= (int(bound[1]), int(bound[2]))
        elif line.strip():
            if holds is None:
                raise ValueError(f"{UNREACHED.name}:{n}: {line!r} is under no reason")
            entries[line] += holds
    return +entries


def check(unreached: list[tuple[str, int, str]]) -> int:
    """Compare the unreached lines with unreached.txt; print each difference, 1 if any."""
    try:
        expected = listed(UNREACHED.read_text(encoding="utf-8"))
    except ValueError as e:
        print(e)
        return 1
    found = Counter(f"{name}: {text}" for name, _, text in unreached)
    new, gone = found - expected, expected - found
    for line, count in sorted(new.items()):
        print(f"unreached, not listed in {UNREACHED.name} ({count}x): {line}")
    for line, count in sorted(gone.items()):
        print(f"listed in {UNREACHED.name}, reached ({count}x): {line}")
    print(f"{sum(found.values())} lines unreached: {sum(new.values())} not listed, "
          f"{sum(gone.values())} listed but reached")
    return 1 if new or gone else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    code = 0
    if "--tests" in argv:
        import pytest

        def run():
            nonlocal code
            code = int(pytest.main(["-q", "--continue-on-collection-errors",
                                    "-p", "no:cacheprovider", str(TESTS)]))
    else:
        corpus = load()

        def run():
            for entry in corpus["entries"]:
                outcome(entry, corpus["inputs"])
    reached = reach(run)
    rows, unreached = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        name = path.relative_to(PACKAGE).as_posix()
        lines = executable(path)
        hit = lines & reached.get(str(path), set())
        rows.append((name, len(hit), len(lines)))
        source = path.read_text(encoding="utf-8").splitlines()
        unreached += [(name, n, source[n - 1].strip()) for n in sorted(lines - hit)]
    if "--check" in argv:
        return check(unreached)
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  reached  executable")
    for name, hit, total in rows + [("total", sum(r[1] for r in rows), sum(r[2] for r in rows))]:
        print(f"{name:<{width}}  {hit:>7}  {total:>10}")
    print(f"\n{len(unreached)} unreached lines:")
    print("\n".join(f"{name}:{n}: {text}" for name, n, text in unreached))
    return code


if __name__ == "__main__":
    sys.exit(main())
