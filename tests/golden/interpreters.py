"""Check the golden corpus under every interpreter and a few environments.

Runs regen.py in check mode once per (interpreter, setting): under each
interpreter given on the command line, or else each one found under
~/.pyenv/versions whose version pyproject.toml's requires-python admits; and
under each of the settings in SETTINGS (the inherited environment first). It
needs no pytest, so it runs on every interpreter that can import certflight.

    python tests/golden/interpreters.py                 # every pyenv interpreter admitted
    python tests/golden/interpreters.py /usr/bin/python3.12

It prints one line per run and exits 1 if any run reports a changed entry or
fails to finish.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
REGEN = Path(__file__).with_name("regen.py")

# Each setting's variables, added to the inherited environment.
SETTINGS = (
    {},
    {"PYTHONHASHSEED": "0"},
    {"PYTHONHASHSEED": "1"},
    {"PYTHONHASHSEED": "12345"},
    {"LC_ALL": "C"},
    {"TZ": "Asia/Kolkata"},
)


def _version(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split("."))


def minimum_python() -> tuple[int, ...]:
    """The lower bound of pyproject.toml's requires-python, which is written ">=X.Y"."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python\s*=\s*">=\s*([\d.]+)"', text, re.M)
    if found is None:
        raise SystemExit("pyproject.toml: requires-python is not of the form \">=X.Y\"")
    return _version(found.group(1))


def pyenv_interpreters() -> list[str]:
    """The python of each ~/.pyenv/versions/X.Y.Z that requires-python admits, oldest first."""
    versions = Path.home() / ".pyenv" / "versions"
    floor = minimum_python()
    found = []
    for path in versions.glob("*"):
        if re.fullmatch(r"\d+\.\d+\.\d+", path.name) and (path / "bin" / "python").exists():
            if _version(path.name) >= floor:
                found.append((_version(path.name), str(path / "bin" / "python")))
    return [python for _, python in sorted(found)]


def check(python: str, setting: dict) -> tuple[bool, str]:
    """Run regen.py in check mode; (unchanged, its summary and any changed entry ids)."""
    env = {**os.environ, **setting,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([python, str(REGEN)], cwd=ROOT, env=env, capture_output=True, text=True)
    lines = run.stderr.strip().splitlines()
    summary = lines[-1] if lines else f"exit {run.returncode}, no output"
    changed = run.stdout.split()
    if changed:
        summary += ": " + " ".join(changed)
    return run.returncode == 0 and summary.startswith("0 of "), summary


def main(argv=None) -> int:
    pythons = (sys.argv[1:] if argv is None else argv) or pyenv_interpreters()
    if not pythons:
        print("no interpreter given or found under ~/.pyenv/versions", file=sys.stderr)
        return 1
    failed = 0
    start = time.perf_counter()
    for python in pythons:
        try:
            version = subprocess.run([python, "-c", "import platform; print(platform.python_version())"],
                                     capture_output=True, text=True).stdout.strip() or python
        except OSError as e:  # not there, or not runnable
            print(f"FAIL {python}: {e.strerror}", flush=True)
            failed += len(SETTINGS)
            continue
        for setting in SETTINGS:
            began = time.perf_counter()
            ok, summary = check(python, setting)
            failed += not ok
            shown = " ".join(f"{k}={v}" for k, v in setting.items()) or "(inherited)"
            print(f"{'ok  ' if ok else 'FAIL'} {version:<8} {shown:<22} {summary}"
                  f" ({time.perf_counter() - began:.1f} s)", flush=True)
    runs = len(pythons) * len(SETTINGS)
    print(f"{runs - failed} of {runs} runs unchanged in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
