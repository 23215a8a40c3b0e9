"""Run the tier-1 tests under a line tracer, and fail on a line of
``src/remodyc`` that no test runs and that ``unrun_lines.txt`` does not
list with the reason it is not run.

    PYTHONPATH=src python tests/line_coverage.py [pytest options]

The tracer is ``sys.settrace``, from the standard library; it follows no
subprocess, so the lines only a subprocess runs are listed.  A line's
entry is its file and its text, stripped, so an edit elsewhere in the file
does not move it; an entry that names no unrun line is stale, and fails
the check too.  The exit code is pytest's if a test fails, else 1 if the
lines and the list disagree, else 0.  The name has no ``test_`` prefix,
so pytest does not collect it.
"""
from __future__ import annotations

import os
import sys
import threading
import types
from collections.abc import Callable
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "remodyc"
LISTED = Path(__file__).with_name("unrun_lines.txt")


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that its compiled code has instructions on."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes += (const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def listed_lines() -> dict[tuple[str, str], str]:
    """By (file, stripped text), the reason each listed line is not run:
    the ``## `` heading it is under."""
    reasons, reason = {}, None
    for line in LISTED.read_text().splitlines():
        if line.startswith("## "):
            reason = line[3:]
        elif line.strip() and not line.startswith("#"):
            name, _, text = line.partition(": ")
            reasons[name, text.strip()] = reason
    return reasons


def traced_run(args: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """pytest's exit code, and by source file the lines that ran."""
    ran: dict[Path, set[int]] = {path: set() for path in SOURCE.glob("*.py")}
    # By code file name as the interpreter gives it, the local trace
    # function that adds each line run to its set in ``ran``, or None for a
    # file outside ``src/remodyc``.  One per file: a local trace function
    # returns itself, so one made per call would be a reference cycle, and
    # a test that counts what the cycle collector finds would count it.
    by_name: dict[str, Callable | None] = {}

    def recorder(lines: set[int]) -> Callable:
        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if (local := by_name.get(name, ...)) is ...:
            lines = ran.get(Path(os.path.realpath(name)))
            local = by_name[name] = None if lines is None else recorder(lines)
        return None if local is None else local(frame, event, arg)

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, ran


def main(args: list[str]) -> int:
    code, ran = traced_run(args)
    if code:
        return code
    reasons = listed_lines()
    matched, unlisted = set(), []
    for path, lines in sorted(ran.items()):
        text = path.read_text().splitlines()
        for number in sorted(executable_lines(path) - lines):
            key = (path.name, text[number - 1].strip())
            if key in reasons:
                matched.add(key)
            else:
                unlisted.append(f"src/remodyc/{path.name}:{number}: {key[1]}")
    stale = [f"{name}: {text}" for name, text in reasons if (name, text) not in matched]
    for line in unlisted:
        print(f"unrun and not listed: {line}")
    for entry in stale:
        print(f"listed but run, or gone: {entry}")
    print(f"{len(matched)} listed lines unrun, {len(unlisted)} unlisted, {len(stale)} stale")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
