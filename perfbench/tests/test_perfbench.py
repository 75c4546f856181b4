"""Smoke tests of the benchmark itself: python -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_REQUESTS = "24"


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--requests", SMOKE_REQUESTS],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def traced():
    out = {}
    for w in workloads.WORKLOADS:
        proc = _run(w, 1)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        out[w] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0
    assert summary["attempted"] == int(SMOKE_REQUESTS)
    names = [m["name"] for m in DECLARED["end_to_end"]]
    assert list(summary["metrics"]) == names
    for m in DECLARED["end_to_end"]:
        value = summary["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert value["value"] > 0, m["name"]


def test_traced_run_emits_every_per_layer_metric(traced):
    names = [m["name"] for m in DECLARED["per_layer"]]
    for workload, summary in traced.items():
        assert summary["correct"] is True, workload
        assert list(summary["metrics"]) == names, workload


def test_bypassed_layers_see_no_calls(traced):
    div = traced["divergence_wide"]["metrics"]
    for name in ("funcs.calls", "funcs.f.calls", "funcs.df.calls", "expr.calls", "quadrature.calls"):
        assert div[name]["value"] == 0, name
    assert div["divergence.calls"]["value"] > 0
    cat = traced["catalog_adaptive"]["metrics"]
    for name in ("expr.calls", "cli.calls", "divergence.calls"):
        assert cat[name]["value"] == 0, name
    assert cat["quadrature.adaptive.calls"]["value"] == 1
    cli = traced["cli_expr"]["metrics"]
    for name in ("expr.calls", "funcs.check_convexity.ms", "pointwise.reference.cells",
                 "probability.validate_density.ms", "quadrature.fixed.cells"):
        assert cli[name]["value"] > 0, name


def test_generator_is_deterministic(tmp_path):
    for w in workloads.WORKLOADS:
        a = workloads.make_requests(w, 5, 40, tmp_path)
        b = workloads.make_requests(w, 5, 40, tmp_path)
        c = workloads.make_requests(w, 6, 40, tmp_path)
        assert [(r.call, r.ref, r.known) for r in a] == [(r.call, r.ref, r.known) for r in b]
        assert [r.call for r in a] != [r.call for r in c] or w == "divergence_wide"
    assert workloads.pair_weights(5, 0) == workloads.pair_weights(5, 0)
    assert workloads.pair_weights(5, 0) != workloads.pair_weights(6, 0)


def test_known_defects_have_a_fixed_share(tmp_path):
    for w in workloads.WORKLOADS:
        k = workloads.KNOWN_EVERY[w]
        reqs = workloads.make_requests(w, 3, 10 * k, tmp_path)
        assert [i for i, r in enumerate(reqs) if r.known] == list(range(k - 1, 10 * k, k))


def test_checker_flags_planted_failures(tmp_path):
    lib = next(r for r in workloads.make_requests("catalog_adaptive", 1, 10, tmp_path)
               if r.known is None and r.kind != "adaptive:kink")
    ref = lib.ref["integral"]
    good = workloads.check(lib, ("lib", (ref - 1e-9, ref + 1e-9, 100, True)))
    assert not good.failed and good.answered
    bad = workloads.check(lib, ("lib", (ref + 1e-6, ref + 2e-6, 100, True)))
    assert bad.failed and not bad.answered
    raised = workloads.check(lib, ("raised", "EvalError: planted"))
    assert raised.failed

    cli = next(r for r in workloads.make_requests("cli_expr", 1, 12, tmp_path)
               if r.kind == "cli:integrate")
    ref = cli.ref["integral"]
    report = json.dumps({"command": "integrate", "integral": {"lo": ref + 1e-3, "hi": ref + 2e-3},
                         "cells": 4})
    assert workloads.check(cli, ("exit", 0, report, "")).failed
    assert workloads.check(cli, ("raised", "EvalError: planted")).failed
    traceback = "Traceback (most recent call last):\n  ...\nEvalError: planted\n"
    assert workloads.check(cli, ("exit", 1, "", traceback)).failed
    refused = workloads.check(cli, ("exit", 1, "", "trapbound: error: planted\n"))
    assert not refused.failed and not refused.answered

    reject = next(r for r in workloads.make_requests("cli_expr", 1, 24, tmp_path)
                  if r.kind == "cli:reject")
    assert not workloads.check(reject, ("exit", 2, "", "trapbound: hypothesis failure: x\n")).failed
    assert workloads.check(reject, ("exit", 0, '{"command": "check", "passed": true}', "")).failed


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("catalog_adaptive", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
