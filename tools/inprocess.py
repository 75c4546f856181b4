"""Time one benchmark workload's requests in process, per request kind, optionally against another checkout.

Usage, from the root of a checkout:

    python3 tools/inprocess.py --workload catalog_adaptive --seeds 1 2 3
    python3 tools/inprocess.py --workload cli_expr --seeds 1 --parent ../parent --passes 5

The requests are those of ``perfbench/workloads.py`` for each seed (this
checkout's copy builds them for both sides, so both get the same calls):
``adaptive_integrate`` on a catalog function built before timing, or
``cli.main`` on an argument list with stdout and stderr captured.  Each side
runs them in ``ROUNDS`` fresh interpreters with its own ``src`` first on
``sys.path``; each interpreter makes ``--passes`` passes over every request
and keeps each request's fastest.  With ``--parent DIR`` the side that starts
each round alternates.  The table gives each side's total in ms per request
kind, the fastest of all its rounds request by request, the change's total
over the parent's, and each side's mean final cell count per request, a
count that does not depend on the machine: a library result's ``cells``, or
the ``cells`` of a CLI call's JSON report (``integrate``), over the requests
that have one ("-" where none has); the last line gives each side's range of
whole-round totals.  An output is the repr of a library result (or of what it
raised) or a CLI call's exit code, stdout and stderr; the exit code is 1 if
any output differs between the sides, rounds or passes.  Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Fresh interpreters per side.
ROUNDS = 4
#: The steps of ``--steps``: the name of each, with the module (or class) and attribute it wraps.
STEPS = {
    "argument parsing": ("argparse", "ArgumentParser", "parse_args"),
    "expr.parse": ("trapbound.expr", None, "parse"),
    "expr._compile": ("trapbound.expr", None, "_compile"),
    "_ranges.compile_range": ("trapbound._ranges", None, "compile_range"),
    "check_convexity": ("trapbound.cli", None, "check_convexity"),
    "cli._render": ("trapbound.cli", None, "_render"),
}


class _StepClock:
    """Time spent in each wrapped step during one request, less the time of
    the wrapped steps that it calls."""

    def __init__(self):
        self.ns = dict.fromkeys(STEPS, 0)
        self.inner = []  # per open step, the time of the steps it called

    def install(self):
        import importlib

        for step, (module, cls, name) in STEPS.items():
            owner = importlib.import_module(module)
            owner = getattr(owner, cls) if cls else owner
            setattr(owner, name, self._timed(step, getattr(owner, name)))

    def _timed(self, step, fn):
        def timed(*args, **kwargs):
            self.inner.append(0)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                ns = time.perf_counter_ns() - t0
                self.ns[step] += ns - self.inner.pop()
                if self.inner:
                    self.inner[-1] += ns

        return timed

    def take(self, total_ns: int) -> dict:
        """Each step's ms since the last call, and the rest of ``total_ns`` as the numerics."""
        ms = {step: ns / 1e6 for step, ns in self.ns.items()}
        ms["numerics"] = total_ns / 1e6 - sum(ms.values())
        self.ns = dict.fromkeys(STEPS, 0)
        return ms


def _child(checkout: Path, workload: str, seeds: list, passes: int, workdir: Path, steps: bool) -> dict:
    """One round in this interpreter: each request's fastest ms, its output
    and, with ``steps``, the step times of its fastest pass, as JSON-ready lists."""
    sys.path[:0] = [str(checkout / "src"), str(ROOT / "perfbench")]
    import workloads

    import trapbound
    from trapbound import Interval, catalog, cli, quadrature

    if Path(trapbound.__file__).resolve().parent != checkout / "src" / "trapbound":
        raise SystemExit(f"imported trapbound from {trapbound.__file__}, not from {checkout / 'src'}")
    clock = _StepClock() if steps else None
    if clock:
        clock.install()
    requests = [r for seed in seeds for r in workloads.make_requests(
        workload, seed, workloads.DEFAULT_REQUESTS[workload], workdir / str(seed))]
    functions = {id(r): catalog(r.call[1]["name"], r.call[1]["params"], Interval(r.call[1]["a"], r.call[1]["b"]))
                 for r in requests if r.call[0] == "lib"}
    best, outputs, step_ms = [float("inf")] * len(requests), [None] * len(requests), [None] * len(requests)
    cells = [None] * len(requests)
    for _ in range(passes):
        for i, r in enumerate(requests):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter_ns()
                try:
                    if r.call[0] == "lib":
                        s = r.call[1]
                        result = quadrature.adaptive_integrate(functions[id(r)], s["eps"], s["max_cells"])
                    else:
                        result = cli.main(r.call[1])
                except Exception as exc:  # an output like any other: the other side must raise it too
                    result = exc
                ns = time.perf_counter_ns() - t0
            if clock:
                ms = clock.take(ns)
                if ns / 1e6 < best[i]:
                    step_ms[i] = ms
            best[i] = min(best[i], ns / 1e6)
            if isinstance(result, Exception):
                output = f"raised {type(result).__name__}: {result}"
            else:
                output = repr(result if r.call[0] == "lib" else (result, out.getvalue(), err.getvalue()))
            if outputs[i] is None:
                outputs[i] = output
                cells[i] = _cells(r.call[0], result, out.getvalue())
            elif output != outputs[i]:
                outputs[i] = f"differs between passes: {outputs[i]!r} then {output!r}"
    return {"kinds": [r.kind for r in requests], "ms": best, "outputs": outputs, "steps": step_ms, "cells": cells}


def _cells(call: str, result, stdout: str):
    """The final cell count of one request: a library result's ``cells``, or
    the ``cells`` of a CLI call's JSON report where it exited 0 with one; else None."""
    if isinstance(result, Exception):
        return None
    if call == "lib":
        return result.cells
    if result != 0:
        return None
    try:
        report = json.loads(stdout)
    except ValueError:
        return None
    return report.get("cells") if isinstance(report, dict) else None


def _round(checkout: Path, args, workdir: Path) -> dict:
    proc = subprocess.run([sys.executable, __file__, "--child", str(checkout), "--workload", args.workload,
                           "--seeds", *map(str, args.seeds), "--passes", str(args.passes), "--workdir", str(workdir),
                           *(["--steps"] if args.steps else [])],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"round on {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--passes", type=int, default=20, help="passes over the requests per interpreter")
    ap.add_argument("--parent", type=Path, help="a checkout to alternate each round with")
    ap.add_argument("--steps", action="store_true", help="also time each step of STEPS and the numerics")
    ap.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child is not None:
        json.dump(_child(args.child.resolve(), args.workload, args.seeds, args.passes, args.workdir, args.steps),
                  sys.stdout)
        return 0

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    sides = {"change": ROOT}
    if args.parent is not None:
        sides["parent"] = args.parent.resolve()
    rounds = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            workdir = Path(tmp, str(seed))
            workdir.mkdir()
            if args.workload == "divergence_wide":
                requests = workloads.make_requests(args.workload, seed, workloads.DEFAULT_REQUESTS[args.workload],
                                                   workdir)
                workloads.prepare_divergence_inputs(seed, workdir, requests)
        for i in range(ROUNDS):
            for side in list(sides)[::1 if i % 2 == 0 else -1]:
                rounds[side].append(_round(sides[side], args, Path(tmp)))

    status = 0
    first = rounds["change"][0]
    for side, runs in rounds.items():
        for run in runs:
            for j, output in enumerate(run["outputs"]):
                if output != first["outputs"][j]:
                    print(f"request {j} ({first['kinds'][j]}): {side} output differs: {output[:300]!r} "
                          f"against {first['outputs'][j][:300]!r}", file=sys.stderr)
                    status = 1
    kinds = sorted(set(first["kinds"]))
    totals = {side: {kind: 0.0 for kind in [*kinds, "total"]} for side in sides}
    for side, runs in rounds.items():
        for j, kind in enumerate(first["kinds"]):
            ms = min(run["ms"][j] for run in runs)
            totals[side][kind] += ms
            totals[side]["total"] += ms

    print(f"python {platform.python_version()}, {os.cpu_count()} cpus, {args.workload} seeds "
          f"{' '.join(map(str, args.seeds))}: {len(first['kinds'])} requests, {ROUNDS} rounds of "
          f"{args.passes} passes per side")
    print(f"{'kind':24s}" + "".join(f" {side + ' ms':>12s}" for side in sides)
          + (f" {'change/parent':>14s}" if len(sides) > 1 else "")
          + "".join(f" {side + ' cells':>13s}" for side in sides))
    for kind in [*kinds, "total"]:
        row = f"{kind:24s}" + "".join(f" {totals[side][kind]:12.2f}" for side in sides)
        if len(sides) > 1:
            row += f" {totals['change'][kind] / totals['parent'][kind]:14.3f}"
        for side, runs in rounds.items():
            counts = [n for j, n in enumerate(runs[0]["cells"]) if n is not None and kind in ("total", first["kinds"][j])]
            row += f" {sum(counts) / len(counts):13.1f}" if counts else f" {'-':>13s}"
        print(row)
    if args.steps:
        _print_steps(rounds, sides)
    print("round totals, ms: " + "; ".join(
        f"{side} {min(sum(run['ms']) for run in runs):.2f}-{max(sum(run['ms']) for run in runs):.2f}"
        for side, runs in rounds.items()))
    return status


def _print_steps(rounds: dict, sides: dict) -> None:
    """The step table: each step's ms, from each request's fastest pass over all rounds, summed."""
    totals = {}
    for side, runs in rounds.items():
        totals[side] = dict.fromkeys([*STEPS, "numerics"], 0.0)
        for j in range(len(runs[0]["ms"])):
            fastest = min(runs, key=lambda run: run["ms"][j])
            for step, ms in fastest["steps"][j].items():
                totals[side][step] += ms
    print(f"{'step':24s}" + "".join(f" {side + ' ms':>12s} {'share':>6s}" for side in sides)
          + (f" {'change/parent':>14s}" if len(sides) > 1 else ""))
    for step in [*STEPS, "numerics"]:
        row = f"{step:24s}" + "".join(
            f" {totals[side][step]:12.2f} {totals[side][step] / sum(totals[side].values()):6.1%}" for side in sides)
        if len(sides) > 1:
            row += f" {totals['change'][step] / totals['parent'][step]:14.3f}"
        print(row)


if __name__ == "__main__":
    sys.exit(main())
