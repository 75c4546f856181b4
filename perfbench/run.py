"""trapbound benchmark: time to a certified enclosure, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload catalog_adaptive --seed 1 --seconds 40 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json``.  Each run writes
its inputs under ``.perfbench_work/``, times set-up in fresh interpreters,
runs the workload in one child interpreter (see ``child.py``) and prints one
line per metric, then a JSON summary as the last line.  With ``--trace 0``
the summary holds the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run.  The exit code is non-zero when the checker finds a
failure outside the known-defect inputs (see ``baseline.json``), or when
trapbound cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-up samples per untraced run: fresh interpreters started before the
#: workload child, the child itself, and fresh interpreters after it.
SETUP_BEFORE = 4
SETUP_AFTER = 4
#: Seconds a child may take before it is killed.
CHILD_TIMEOUT = 170.0
SETUP_TIMEOUT = 30.0


def _spawn(argv: list):
    """Start a child interpreter.

    Returns the process and the reference seconds until it printed ready:
    raw seconds scaled by the calibration kernel timed just before.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    factor = calibrate.scale([calibrate.kernel_ms() for _ in range(3)])
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *argv],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        line = proc.stdout.readline()
    except BaseException:
        _stop(proc)
        raise
    ready = (time.perf_counter() - start) * factor
    if line.strip() != "ready":
        _stop(proc)
        raise RuntimeError(f"child exited before set-up finished (exit {proc.returncode})")
    return proc, ready


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def _finish(proc, timeout: float) -> None:
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise RuntimeError(f"child exceeded {timeout:.0f} s") from None
    proc.stdout.close()
    if code != 0:
        raise RuntimeError(f"child exited with {code}")


def _setup_sample(child_args: list) -> float:
    proc, ready = _spawn([*child_args, "--setup-only"])
    try:
        _finish(proc, SETUP_TIMEOUT)
    finally:
        _stop(proc)
    return ready


def _percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(result: dict, setup: list) -> dict:
    lat_ms = sorted(result["latency_ms"])
    n = len(lat_ms)
    answerable = [i for i, a in enumerate(result["answerable"]) if a]
    return {
        "req_p50_ms": statistics.median(lat_ms),
        "req_p90_ms": _percentile(lat_ms, 0.9),
        "req_per_s": n / (sum(lat_ms) / 1e3),
        "ok_frac": 1.0 - sum(result["failed"]) / n,
        "answered_frac": (sum(result["answered"][i] for i in answerable) / len(answerable)
                          if answerable else 1.0),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def _known_summary(result: dict) -> dict:
    out: dict = {}
    for known, reason in zip(result["known"], result["reasons"]):
        if known:
            out.setdefault(known, {}).setdefault(reason, 0)
            out[known][reason] += 1
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--requests", type=int, default=None,
                    help="distinct requests per run (default per workload; tests use a few)")
    args = ap.parse_args()

    if not (ROOT / "src" / "trapbound" / "__init__.py").is_file():
        print(f"perfbench: no trapbound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    count = args.requests or workloads.DEFAULT_REQUESTS[args.workload]
    work_root = ROOT / ".perfbench_work"
    workdir = work_root / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    child_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--requests", str(count), "--workdir", str(workdir)]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.workload == "divergence_wide":
            requests = workloads.make_requests(args.workload, args.seed, count, workdir)
            workloads.prepare_divergence_inputs(args.seed, workdir, requests)
        setup = []
        if not args.trace:
            setup += [_setup_sample(child_args) for _ in range(SETUP_BEFORE)]
        proc, ready = _spawn(child_args)
        try:
            _finish(proc, CHILD_TIMEOUT)
        finally:
            _stop(proc)
        setup.append(ready)
        if not args.trace:
            setup += [_setup_sample(child_args) for _ in range(SETUP_AFTER)]
        result = json.loads((workdir / "result.json").read_text())
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = result["per_layer"] if args.trace else end_to_end(result, setup)
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{args.workload:17s} {m['name']:34s} {values[m['name']]:14.6g} {m['unit']}")
    raw = sorted(result["raw_latency_ms"])
    print(f"{args.workload:17s} requests {result['requests']} x {result['passes']} passes "
          f"in {result['measure_s']:.1f} s; raw ms p50 {statistics.median(raw):.4g} "
          f"p90 {_percentile(raw, 0.9):.4g}; known defects: {json.dumps(_known_summary(result))}")
    for u in result["unexpected"]:
        print(f"{args.workload:17s} UNEXPECTED FAILURE {json.dumps(u)}")
    failed = len({u["index"] for u in result["unexpected"]})
    print(json.dumps({"correct": failed == 0, "attempted": result["requests"], "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
