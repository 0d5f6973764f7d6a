"""Which lines of the certflight package the golden corpus, or the test suite, reaches.

Runs every entry of cli.json, as regen.py does, under a sys.settrace line
tracer; with --tests it runs the tests/ suite in-process under the same tracer
instead. Then it prints, per module of the package, the reached and the
executable line counts, their totals, and each line the run did not reach, as
`module:line: source`. A line is executable if co_lines() of the module's
compiled code, or of any code object nested in it, names it.

    PYTHONPATH=src python tests/golden/reach.py          # the corpus, a few seconds
    PYTHONPATH=src python tests/golden/reach.py --tests  # the suite, about two minutes

Run it in a fresh interpreter, as above: a module imported before the tracer
starts has its top-level lines counted as unreached. A test that runs certflight
in a subprocess adds nothing to the suite's reach. With --tests the exit code is
the suite's.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import types
from pathlib import Path

from regen import load, outcome

PACKAGE = Path(importlib.util.find_spec("certflight").submodule_search_locations[0])
TESTS = Path(__file__).resolve().parent.parent


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


def main(argv=None) -> int:
    code = 0
    if "--tests" in (sys.argv[1:] if argv is None else argv):
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
    modules = sorted(PACKAGE.rglob("*.py"))
    rows, unreached = [], []
    for path in modules:
        name = path.relative_to(PACKAGE).as_posix()
        lines = executable(path)
        hit = lines & reached.get(str(path), set())
        rows.append((name, len(hit), len(lines)))
        source = path.read_text(encoding="utf-8").splitlines()
        unreached += [f"{name}:{n}: {source[n - 1].strip()}" for n in sorted(lines - hit)]
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  reached  executable")
    for name, hit, total in rows + [("total", sum(r[1] for r in rows), sum(r[2] for r in rows))]:
        print(f"{name:<{width}}  {hit:>7}  {total:>10}")
    print(f"\n{len(unreached)} unreached lines:")
    print("\n".join(unreached))
    return code


if __name__ == "__main__":
    sys.exit(main())
