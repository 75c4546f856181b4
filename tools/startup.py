"""Time one-shot ``python -m trapbound <command>`` processes, per subcommand.

Usage, from the root of a checkout:

    python3 tools/startup.py
    python3 tools/startup.py --parent ../parent

Each command of ``COMMANDS`` runs on small inputs that the tool writes to a
temporary directory, in a fresh interpreter with ``<checkout>/src`` on
``PYTHONPATH``, and its wall time from start to exit is taken ``RUNS`` times; one
unmeasured run per command and side comes first.  With ``--parent DIR``, another
checkout, every run is paired with one of DIR on the same command, the side
that runs first alternates from pair to pair, and each command's output
(exit code, stdout and stderr) must be the same on both sides.  The
interpreter is this one; its ``-B`` flag is passed on, and the environment
(``PYTHONDONTWRITEBYTECODE`` among it) is inherited, so the children write
bytecode exactly when this process would.  The table gives each side's
median and quartiles in ms and the change's median over the parent's.  The
exit code is 1 if a command exits non-zero or the two sides' outputs differ.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Measured runs per command and side.
RUNS = 21

FN = ["--fn", "exp(x)", "--interval", "0", "1"]
DENSITY = ["--density", "2*x", "--interval", "0", "1"]
#: (row label, arguments after ``python -m trapbound``); {dir} is the input directory.
COMMANDS = [
    ("integrate", ["integrate", *FN]),
    ("gap", ["gap", *FN, "--x", "0.3"]),
    ("hh", ["hh", *FN]),
    ("expectation", ["expectation", *DENSITY]),
    ("divergence", ["divergence", "--generator", "hellinger", "--p", "{dir}/p.csv", "--q", "{dir}/q.json"]),
    ("check --fn", ["check", *FN]),
    ("check --density", ["check", *DENSITY]),
    ("check --dist", ["check", "--dist", "{dir}/q.json"]),
]


def _run(checkout: Path, argv: list) -> tuple:
    """(wall ms, (exit code, stdout, stderr)) of one process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(checkout / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    flags = ["-B"] if sys.flags.dont_write_bytecode else []
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *flags, "-m", "trapbound", *argv],
                          cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    return wall * 1e3, (proc.returncode, proc.stdout, proc.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, help="a checkout to pair each run with")
    args = ap.parse_args()

    sides = {"change": ROOT}
    if args.parent is not None:
        sides["parent"] = args.parent.resolve()
    status = 0
    times = {(label, side): [] for label, _ in COMMANDS for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "p.csv").write_text("0.2\n0.3\n0.5\n")
        Path(tmp, "q.json").write_text("[0.5, 0.25, 0.25]\n")
        commands = [(label, [a.format(dir=tmp) for a in argv]) for label, argv in COMMANDS]
        for label, argv in commands:
            outputs = {side: _run(path, argv)[1] for side, path in sides.items()}
            if any(code != 0 for code, _, _ in outputs.values()):
                print(f"{label}: exit codes {[o[0] for o in outputs.values()]}", file=sys.stderr)
                status = 1
            if len(set(outputs.values())) > 1:
                print(f"{label}: the outputs of the two sides differ", file=sys.stderr)
                status = 1
        for i in range(RUNS):
            for label, argv in commands:
                for side in list(sides)[::1 if i % 2 == 0 else -1]:
                    times[label, side].append(_run(sides[side], argv)[0])

    print(f"python {platform.python_version()}, sys.flags.dont_write_bytecode = "
          f"{sys.flags.dont_write_bytecode}, {os.cpu_count()} cpus, {RUNS} runs per command and side")
    header = f"{'command':16s}" + "".join(f" {side + ' ms median [q1, q3]':>26s}" for side in sides)
    print(header + (f" {'change/parent':>14s}" if len(sides) > 1 else ""))
    for label, _ in COMMANDS:
        row = f"{label:16s}"
        medians = {}
        for side in sides:
            q1, medians[side], q3 = statistics.quantiles(times[label, side], n=4)
            row += f" {f'{medians[side]:.1f} [{q1:.1f}, {q3:.1f}]':>26s}"
        if len(sides) > 1:
            row += f" {medians['change'] / medians['parent']:14.3f}"
        print(row)
    return status


if __name__ == "__main__":
    sys.exit(main())
