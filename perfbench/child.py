"""One workload run in a fresh interpreter; started by run.py.

Prints ``ready`` once trapbound and trapbound.cli are imported and the
workload's request objects are built (run.py times set-up up to that line),
then issues the requests one after another (a closed loop with one caller)
and writes a summary to ``<workdir>/result.json``.

Before each request the calibration kernel of ``calibrate.py`` is timed,
outside the request's timed region; each latency is converted to reference
milliseconds with the median kernel time of its own and its two neighbouring
positions.  Untraced runs repeat the request list for as many passes as fit
in ``--seconds`` and report each request's fastest pass: the kernel slows a
little less than trapbound in the machine's slow phases, so the fastest pass
is the one least disturbed.  Traced runs make one untraced pass, install the
trace shim, make one traced pass over the same requests and check that both
passes produced identical outputs; per-layer times are raw milliseconds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import calibrate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Passes per untraced run: at least MIN_PASSES, at most MAX_PASSES, and no
#: new pass once the time spent plus one pass would pass --seconds.
MIN_PASSES = 2
MAX_PASSES = 8
#: Hard cap on measuring time, to stay well inside the 180-s limit per run.
CAP_SECONDS = 120.0


def _import_trapbound():
    sys.path.insert(0, str(SRC))
    import trapbound
    import trapbound.cli

    if Path(trapbound.__file__).resolve().parent != SRC / "trapbound":
        raise SystemExit(f"imported trapbound from {trapbound.__file__}, not from {SRC}")


def _build(requests) -> dict:
    """The reused objects: one ConvexFunction per library request."""
    from trapbound import Interval, catalog

    functions = {}
    for r in requests:
        if r.call[0] == "lib":
            s = r.call[1]
            functions[r.index] = catalog(s["name"], s["params"], Interval(s["a"], s["b"]))
    return functions


def _issue(r, functions, quadrature, cli):
    """Run one request; returns (latency_ns, outcome, fingerprint)."""
    if r.call[0] == "lib":
        s = r.call[1]
        f = functions[r.index]
        t0 = time.perf_counter_ns()
        try:
            res = quadrature.adaptive_integrate(f, s["eps"], s["max_cells"])
        except Exception as exc:
            t1 = time.perf_counter_ns()
            text = f"{type(exc).__name__}: {exc}"
            return t1 - t0, ("raised", text), text
        t1 = time.perf_counter_ns()
        value = (res.integral.lo, res.integral.hi, res.cells, res.converged)
        return t1 - t0, ("lib", value), repr(value)

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter_ns()
        try:
            code = cli.main(r.call[1])
        except Exception as exc:
            t1 = time.perf_counter_ns()
            text = f"{type(exc).__name__}: {exc}"
            return t1 - t0, ("raised", text), text
        t1 = time.perf_counter_ns()
    outcome = ("exit", code, out.getvalue(), err.getvalue())
    return t1 - t0, outcome, repr(outcome[1:])


def _pass(requests, functions, quadrature, cli, on_result, before=None) -> list:
    """Issue every request once; returns (raw ms, reference ms) per request."""
    raw, kernel = [], []
    for r in requests:
        if before is not None:
            before(r)
        kernel.append(calibrate.kernel_ms())
        ns, outcome, fingerprint = _issue(r, functions, quadrature, cli)
        raw.append(ns / 1e6)
        on_result(r, ns, outcome, fingerprint)
    return [(ms, ms * calibrate.scale(kernel[max(0, i - 1):i + 2])) for i, ms in enumerate(raw)]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--requests", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    _import_trapbound()

    workdir = Path(args.workdir)
    requests = workloads.make_requests(args.workload, args.seed, args.requests, workdir)
    functions = _build(requests)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    from trapbound import cli, quadrature

    refs_path = workdir / "refs.json"
    refs = json.loads(refs_path.read_text()) if refs_path.exists() else None

    first = {}
    verdicts = {}
    unexpected = []

    def record(r, ns, outcome, fingerprint):
        if r.index not in first:
            first[r.index] = fingerprint
            try:
                v = workloads.check(r, outcome, refs)
            except (ValueError, KeyError, TypeError) as exc:
                v = workloads.Verdict(True, False, f"checker could not read the output: {exc!r}")
            verdicts[r.index] = v
            if v.failed and r.known is None:
                unexpected.append({"index": r.index, "kind": r.kind, "reason": v.reason,
                                   "call": r.call[1]})
        elif fingerprint != first[r.index]:
            unexpected.append({"index": r.index, "kind": r.kind,
                               "reason": "output differs between passes"})

    result = {"workload": args.workload, "seed": args.seed, "requests": len(requests)}
    start = time.perf_counter()
    passes = [_pass(requests, functions, quadrature, cli, record)]

    if args.trace:
        from tracing import Tracer  # imported late: it imports every trapbound module

        tracer = Tracer()
        tracer.install()

        def traced(r, ns, outcome, fingerprint):
            if fingerprint != first[r.index]:
                unexpected.append({"index": r.index, "kind": r.kind,
                                   "reason": "traced output differs from untraced output"})
            if outcome[0] == "exit":
                tracer.counters["cli.output.bytes"] += len(outcome[2].encode()) + len(outcome[3].encode())
                tracer.counters["cli.exit1"] += outcome[1] == 1
                tracer.counters["cli.exit2"] += outcome[1] == 2
            elif outcome[0] == "raised" and r.call[0] == "cli":
                tracer.counters["cli.uncaught"] += 1

        traced_pass = _pass(requests, functions, quadrature, cli, traced,
                            before=lambda r: setattr(tracer, "request", r.index))
        metrics = tracer.metrics(len(requests))
        metrics["trace.overhead_frac"] = (sum(ref for _, ref in traced_pass)
                                          / sum(ref for _, ref in passes[0]) - 1.0)
        cells = [v.cells for v in verdicts.values() if v.cells is not None]
        metrics["cells_per_req"] = sum(cells) / len(cells) if cells else 0.0
        result["per_layer"] = metrics
        tracer.write(workdir.parent / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        while len(passes) < MAX_PASSES:
            elapsed = time.perf_counter() - start
            last = elapsed / len(passes)
            if len(passes) >= MIN_PASSES and elapsed + last > args.seconds:
                break
            if elapsed + last > CAP_SECONDS:
                break
            passes.append(_pass(requests, functions, quadrature, cli, record))

    ordered = [verdicts[i] for i in range(len(requests))]
    result.update({
        "passes": len(passes),
        "measure_s": time.perf_counter() - start,
        "latency_ms": [min(p[i][1] for p in passes) for i in range(len(requests))],
        "raw_latency_ms": [min(p[i][0] for p in passes) for i in range(len(requests))],
        "failed": [v.failed for v in ordered],
        "answered": [v.answered for v in ordered],
        "answerable": [r.expect == "answer" for r in requests],
        "known": [r.known for r in requests],
        "reasons": [v.reason for v in ordered],
        "unexpected": unexpected,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
