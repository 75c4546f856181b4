"""Run the benchmark of ``BENCHMARK.json`` and write its summaries to ``BENCH_<pr>.json``.

Usage, from the root of a checkout:

    python3 tools/bench.py --pr 16 --seeds 1 2 3
    python3 tools/bench.py --pr 16 --seeds 1 2 3 --parent ../parent

For every seed and every workload that ``BENCHMARK.json`` declares it runs
the declared command, ``python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0`` with T the declared ``run_seconds``, in a
subprocess, and keeps the JSON summary of end-to-end metrics that run.py
prints as its last line.  With ``--parent DIR``,
another checkout with its own ``perfbench/`` (such as the parent commit's),
each run is paired with one in DIR on the same arguments, and the side that
runs first alternates from pair to pair.  The file is rewritten after every
run.  Only the standard library is used.

Schema of ``BENCH_<pr>.json``::

    {
      "pr": 16,
      "command": ["python3", "perfbench/run.py"],   # from BENCHMARK.json
      "seconds": 40,                                # run_seconds
      "python": "3.11.7", "platform": "Linux-...-x86_64", "cpus": 2,
      "commits": {"change": "<sha[-dirty] or null>", "parent": "..."},
      "runs": [                                     # in the order run
        {"side": "change",                          # or "parent"
         "workload": "cli_expr", "seed": 1, "exit": 0, "wall_s": 44.2,
         "summary": {"correct": true, "attempted": 192, "failed": 0,
                     "metrics": {"req_per_s": {"value": 1329.0, "unit": "1/s"}}}}
      ],                                            # summary null: no JSON line
      "quartiles": {"cli_expr": {"change": {"req_per_s": [q1, median, q3]}}},
      "pairs": {"cli_expr": {"req_per_s": {"pairs": 10, "better": 10, "worse": 0}}}
    }

``quartiles`` has one entry per workload and side; ``pairs`` (empty without
``--parent``) counts, per metric, the pairs in which the change reads better or worse
than the parent by the metric's ``better`` direction; ties count for
neither.  The exit code is 1 if any run exited non-zero or printed no
summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _commit(checkout: Path):
    try:
        out = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty", "--abbrev=40"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _run(command: list, checkout: Path, workload: str, seed: int, seconds) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, ValueError):
        summary = None
        sys.stderr.write(proc.stdout + proc.stderr)
    return {"workload": workload, "seed": seed, "exit": proc.returncode,
            "wall_s": round(wall, 3), "summary": summary}


def _quartiles(values: list) -> list:
    if len(values) == 1:
        return values * 3
    q1, median, q3 = statistics.quantiles(values, n=4)
    return [q1, median, q3]


def _metrics(run: dict) -> dict:
    return {name: m["value"] for name, m in (run["summary"] or {}).get("metrics", {}).items()}


def _aggregate(runs: list, better: dict) -> tuple:
    """(quartiles, pairs) as described in the module docstring."""
    quartiles: dict = {}
    for run in runs:
        for name, value in _metrics(run).items():
            side = quartiles.setdefault(run["workload"], {}).setdefault(run["side"], {})
            side.setdefault(name, []).append(value)
    for sides in quartiles.values():
        for metrics in sides.values():
            for name, values in metrics.items():
                metrics[name] = _quartiles(values)
    pairs: dict = {}
    paired = {}
    for run in runs:
        paired.setdefault((run["workload"], run["seed"]), {})[run["side"]] = _metrics(run)
    for (workload, _), sides in paired.items():
        if len(sides) < 2:
            continue
        for name, new in sides["change"].items():
            old = sides["parent"].get(name)
            if old is None:
                continue
            sign = 1 if better.get(name) == "higher" else -1
            count = pairs.setdefault(workload, {}).setdefault(name, {"pairs": 0, "better": 0, "worse": 0})
            count["pairs"] += 1
            if new != old:
                count["better" if sign * (new - old) > 0 else "worse"] += 1
    return quartiles, pairs


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True, help="number in the output file name")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--parent", type=Path, help="a checkout to pair each run with")
    args = ap.parse_args()

    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    sides = {"change": ROOT}
    if args.parent is not None:
        sides["parent"] = args.parent.resolve()
    out = ROOT / f"BENCH_{args.pr}.json"
    report = {"pr": args.pr, "command": declared["command"], "seconds": declared["run_seconds"],
              "python": platform.python_version(),
              "platform": platform.platform(), "cpus": os.cpu_count(),
              "commits": {side: _commit(path) for side, path in sides.items()}, "runs": []}
    status = 0
    cases = [(seed, workload) for seed in args.seeds for workload in names]
    for i, (seed, workload) in enumerate(cases):
        for side in list(sides)[::1 if i % 2 == 0 else -1]:
            run = {"side": side, **_run(declared["command"], sides[side], workload, seed,
                                        declared["run_seconds"])}
            report["runs"].append(run)
            if run["exit"] != 0 or run["summary"] is None:
                status = 1
            print(f"{side:6s} {workload:17s} seed {seed}: exit {run['exit']}, "
                  + ", ".join(f"{k} {v:.4g}" for k, v in _metrics(run).items()), file=sys.stderr)
            report["quartiles"], report["pairs"] = _aggregate(report["runs"], better)
            out.write_text(json.dumps(report, indent=1) + "\n")
    print(out)
    return status


if __name__ == "__main__":
    sys.exit(main())
