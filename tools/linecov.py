"""List the lines of ``src/trapbound`` that a pytest run does not reach.

Usage, from the root of a checkout (the arguments go to pytest):

    PYTHONPATH=src python tools/linecov.py -q --hypothesis-profile=ci

pytest runs in this process under ``sys.settrace`` and ``threading.settrace``,
which trace line by line only the frames of modules under ``src/trapbound``.
The tracer starts before trapbound is imported, so module-level lines count;
code run in a subprocess does not.  A module's executable lines are those
that ``co_lines()`` names in the code objects ``compile()`` makes of its
source.  Each executable line that no frame reached is printed as
``path:line  source``.  The exit code is 1 if any line is unreached or the
run fails, else 0.

Line tables differ between Python versions, so CI runs this on one version.
Under the tracer, tier-1 takes about three times as long as without it.
Standard library only (pytest is the test runner it drives).
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trapbound"


def executable_lines(path: Path) -> set:
    """The line numbers of every code object compiled from ``path``."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def traced_run(argv: list) -> tuple:
    """pytest's exit status on ``argv``, and the lines reached in each file
    of PACKAGE, by real path."""
    files = {}  # filename as compiled -> the set of lines reached, or None outside PACKAGE

    def local(frame, event, arg):
        if event == "line":
            files[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        name = frame.f_code.co_filename
        lines = files.get(name, start)
        if lines is start:
            inside = Path(os.path.realpath(name)).is_relative_to(PACKAGE)
            lines = files[name] = set() if inside else None
        return None if lines is None else local

    threading.settrace(start)
    sys.settrace(start)
    try:
        import pytest

        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    reached: dict = {}
    for name, lines in files.items():
        if lines is not None:
            reached.setdefault(Path(os.path.realpath(name)), set()).update(lines)
    return status, reached


def main(argv: list) -> int:
    if "trapbound" in sys.modules:
        raise SystemExit("trapbound was imported before the tracer started")
    status, reached = traced_run(argv)
    imported = sys.modules.get("trapbound")
    if imported is None or Path(imported.__file__).resolve().parent != PACKAGE:
        print(f"linecov: the run did not import trapbound from {PACKAGE}", file=sys.stderr)
        return 1

    unreached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - reached.get(path, set())):
            print(f"{path.relative_to(ROOT)}:{line}  {source[line - 1].strip()}")
            unreached += 1
    print(f"linecov: {unreached} executable line(s) of {PACKAGE.relative_to(ROOT)} not reached", file=sys.stderr)
    return 1 if unreached or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
