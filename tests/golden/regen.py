"""The golden corpus of CLI runs, and the script that checks it.

cli.json holds input files and entries. Each entry is an argv (and, for
`--logs -`, the text on stdin) that certflight.cli.main runs in a fresh
temporary directory holding every input file, with CERTFLIGHT_CONFIG unset.
Its "expect" records the exit code and the sha256 of stdout, of stderr and of
each file the run wrote or changed there. An input written as "@name" is a
copy of the packaged data file name.

    PYTHONPATH=src python tests/golden/regen.py          # list the entries that changed
    PYTHONPATH=src python tests/golden/regen.py --write  # and record their new digests

It prints each changed entry's id on stdout, and on stderr its argv, its new
exit code and the last line of its new stderr, so that a re-recorded message
can be read; the last line on stderr counts the changed entries. It exits 1
if an entry changed and --write was not given. A change that alters output on
purpose lists the changed entries in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

CORPUS = Path(__file__).with_name("cli.json")


def load() -> dict:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outcome(entry: dict, inputs: dict) -> dict:
    """Run the entry's argv in a fresh directory; its exit code and digests."""
    return run(entry, inputs)[0]


def run(entry: dict, inputs: dict) -> tuple[dict, str]:
    """Run the entry's argv in a fresh directory; its outcome and its stderr text."""
    from certflight.cli import main
    from certflight.config import ENV_CONFIG, _data_path

    with tempfile.TemporaryDirectory() as tmp:
        given = {}
        for name, text in inputs.items():
            given[name] = (Path(_data_path(text[1:])).read_bytes() if text.startswith("@")
                           else text.encode("utf-8"))
            (Path(tmp) / name).write_bytes(given[name])
        out, err = io.StringIO(), io.StringIO()
        cwd, stdin, config = os.getcwd(), sys.stdin, os.environ.pop(ENV_CONFIG, None)
        try:
            os.chdir(tmp)
            sys.stdin = io.StringIO(entry.get("stdin", ""))
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(list(entry["argv"]))
                except SystemExit as e:  # argparse refuses the argv
                    code = e.code
        finally:
            os.chdir(cwd)
            sys.stdin = stdin
            if config is not None:
                os.environ[ENV_CONFIG] = config
        files = {}
        for path in sorted(Path(tmp).rglob("*")):
            name = path.relative_to(tmp).as_posix()
            if path.is_file() and given.get(name) != path.read_bytes():
                files[name] = _sha(path.read_bytes())
    return {"code": code, "stdout": _sha(out.getvalue().encode()),
            "stderr": _sha(err.getvalue().encode()), "files": files}, err.getvalue()


def dump(corpus: dict) -> str:
    """cli.json's text: one line per input and per entry."""
    def block(items, open_, close):
        return open_ + "\n" + ",\n".join("    " + i for i in items) + "\n  " + close

    inputs = (f"{json.dumps(k)}: {json.dumps(v)}" for k, v in corpus["inputs"].items())
    entries = (json.dumps(e) for e in corpus["entries"])
    return ('{\n  "inputs": ' + block(inputs, "{", "}")
            + ',\n  "entries": ' + block(entries, "[", "]") + "\n}\n")


def main(argv=None) -> int:
    write = "--write" in (sys.argv[1:] if argv is None else argv)
    corpus = load()
    changed = 0
    for entry in corpus["entries"]:
        got, err = run(entry, corpus["inputs"])
        if got != entry.get("expect"):
            changed += 1
            print(entry["id"])
            last = err.splitlines()[-1] if err else "(no stderr)"
            print(f"{entry['id']}: {json.dumps(entry['argv'])} exit {got['code']}: {last}",
                  file=sys.stderr)
            entry["expect"] = got
    if write and changed:
        CORPUS.write_text(dump(corpus), encoding="utf-8")
    print(f"{changed} of {len(corpus['entries'])} entries changed", file=sys.stderr)
    return 1 if changed and not write else 0


if __name__ == "__main__":
    sys.exit(main())
