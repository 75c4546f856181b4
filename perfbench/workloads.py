"""Seeded request generators, closed-form references and the output checker.

Each workload is a fixed cycle of request kinds whose continuous parameters
come from ``Draws``, seeded with the workload name and ``--seed``; the same
seed gives the same requests.  Every request carries the reference
the checker compares against, computed here from closed forms and never from
trapbound itself.

A fixed share of requests (every ``KNOWN_EVERY[workload]``-th) are inputs that
trapbound mishandled when the benchmark was defined; ``baseline.json`` lists
them with the reason the checker gave.  They stay in the mix so that later
fixes show up in ``ok_frac`` and ``answered_frac``.
"""

from __future__ import annotations

import json
import math
import random
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

WORKLOADS = ("catalog_adaptive", "cli_expr", "divergence_wide")

#: Distinct requests per run for each workload.  Each run repeats the list
#: for as many passes as fit in ``--seconds``.
DEFAULT_REQUESTS = {"catalog_adaptive": 120, "cli_expr": 192, "divergence_wide": 100}

#: Every k-th request of a workload is a known-defect input.
KNOWN_EVERY = {"catalog_adaptive": 10, "cli_expr": 12, "divergence_wide": 10}

#: Relative rounding slack of the containment checks: an enclosure [lo, hi]
#: passes when lo - s <= ref <= hi + s with s = SLACK * max(1, |ref|).
SLACK = 1e-11

#: Relative tolerance for point values that are not certified (the reported
#: Csiszar and Lin-Wong sums, the uncertified reference gap).
POINT_TOL = 1e-8

ADAPTIVE_MAX_CELLS = 200_000


@dataclass
class Request:
    """One call into trapbound.

    ``call`` is ``("lib", spec)`` for ``adaptive_integrate`` (spec holds the
    catalog name, params, interval, eps and max_cells) or ``("cli", argv)``
    for ``cli.main``.  ``expect`` is ``"answer"`` when the input satisfies the
    hypotheses and has a finite true answer, ``"reject"`` when it violates
    them and exit 2 is the right response.
    """

    index: int
    kind: str
    call: tuple
    expect: str
    ref: dict = field(default_factory=dict)
    known: Optional[str] = None


@dataclass
class Verdict:
    failed: bool
    answered: bool
    reason: str
    cells: Optional[int] = None


class Draws:
    """Seeded draws that cover each parameter range evenly, one sequence per key.

    The n-th uniform of a key is ``frac(start + n * step)``, a Kronecker
    sequence whose start comes from the seeded generator and whose irrational
    step differs between keys.  Choices among a few options cycle in a fixed
    order, so every seed pairs them alike.  Runs with different seeds thus
    differ in their values but hardly in how their costs spread, which keeps
    percentiles steady.
    """

    _STEPS = (0.6180339887498949, 0.4142135623730951, 0.7320508075688772,
              0.2360679774997897, 0.1415926535897931, 0.3166247903554)

    def __init__(self, workload: str, seed: int) -> None:
        self._rng = random.Random(f"{workload}:{seed}")
        self._starts: dict = {}
        self._counts: dict = defaultdict(int)

    def uniform(self, key: str, lo: float, hi: float) -> float:
        if key not in self._starts:
            step = self._STEPS[len(self._starts) % len(self._STEPS)]
            self._starts[key] = (self._rng.random(), step)
        start, step = self._starts[key]
        n = self._counts[key]
        self._counts[key] += 1
        return lo + (hi - lo) * ((start + n * step) % 1.0)

    def cycle(self, key: str, options):
        n = self._counts[key]
        self._counts[key] += 1
        return options[n % len(options)]


def _num(v: float) -> str:
    return repr(float(v))


def _shifted(var: str, a: float) -> str:
    return f"({var} - {_num(a)})" if a >= 0 else f"({var} + {_num(-a)})"


# ---------------------------------------------------------------------------
# catalog_adaptive
# ---------------------------------------------------------------------------

_CATALOG_CYCLE = ("exp", "xlogx", "neg_log", "power_p", "kink", "quadratic")
_CATALOG_EPS = (1e-7, 1e-8, 1e-9)


def _catalog_request(i: int, d: Draws) -> Request:
    known = None
    if i % KNOWN_EVERY["catalog_adaptive"] == KNOWN_EVERY["catalog_adaptive"] - 1:
        name, known = "neg_log", "a"
    else:
        name = _CATALOG_CYCLE[i % len(_CATALOG_CYCLE)]
    eps = _CATALOG_EPS[(i // len(_CATALOG_CYCLE)) % len(_CATALOG_EPS)]
    params: tuple = ()
    # One sequence per parameter and eps, so that every seed pairs them alike.
    draw = lambda key, lo, hi: d.uniform(f"{key}@{eps}", lo, hi)
    if name == "exp":
        a = draw("exp.a", -2.0, 0.5)
        b = a + draw("exp.w", 0.3, 1.0)
        ref = math.exp(a) * math.expm1(b - a)
    elif name == "xlogx":
        a, b = 0.0, draw("xlogx.b", 0.3, 1.0)
        ref = 0.5 * b * b * math.log(b) - 0.25 * b * b
    elif name == "neg_log":
        a = 0.0 if known else 10.0 ** draw("neg_log.log10a", -1.5, -0.5)
        b = draw(f"neg_log.b.{known}", 0.8, 1.5)
        anti = lambda t: 0.0 if t == 0 else t - t * math.log(t)
        ref = anti(b) - anti(a)
    elif name == "power_p":
        p = draw("power_p.p", 1.5, 4.0)
        params = (p,)
        a, b = 0.0, draw("power_p.b", 0.4, 1.0)
        ref = b ** (p + 1.0) / (p + 1.0)
    elif name == "kink":
        k = draw("kink.k", 0.5, 3.0)
        a = draw("kink.a", -1.0, 0.0)
        b = a + draw("kink.w", 1.0, 2.0)
        c = a + (b - a) * draw("kink.c", 0.2, 0.8)
        params = (k, c)
        ref = 0.5 * k * ((c - a) ** 2 + (b - c) ** 2)
    else:  # quadratic
        a = draw("quadratic.a", -1.0, 0.5)
        b = a + draw("quadratic.w", 0.3, 1.0)
        ref = (b ** 3 - a ** 3) / 3.0
    spec = {"name": name, "params": params, "a": a, "b": b, "eps": eps,
            "max_cells": ADAPTIVE_MAX_CELLS}
    return Request(i, f"adaptive:{name}", ("lib", spec), "answer", {"integral": ref}, known)


# ---------------------------------------------------------------------------
# cli_expr
# ---------------------------------------------------------------------------


def _smooth_template(d: Draws, key: str, a_min: float = -1.0):
    """A smooth convex expression, the range of its left endpoint, and its antiderivative."""
    which = d.cycle(f"{key}.template", range(8))
    if which == 0:
        c = d.uniform(f"{key}.exp", 0.5, 2.0)
        return f"exp({_num(c)}*x)", (a_min, 1.0), lambda t: math.exp(c * t) / c
    if which == 1:
        c = d.uniform(f"{key}.linear", -1.0, 1.0)
        sign = "+" if c >= 0 else "-"
        return (f"x^2 {sign} {_num(abs(c))}*x", (a_min, 1.0),
                lambda t: t ** 3 / 3.0 + 0.5 * c * t * t)
    if which == 2:
        p = d.uniform(f"{key}.power", 1.5, 3.5)
        return f"x^{_num(p)}", (0.0, 1.0), lambda t: t ** (p + 1.0) / (p + 1.0)
    if which == 3:
        return "1/x", (0.2, 1.0), math.log
    if which == 4:
        return "x*log(x)", (0.1, 1.0), lambda t: 0.5 * t * t * math.log(t) - 0.25 * t * t
    if which == 5:
        return "-log(x)", (0.1, 1.0), lambda t: t - t * math.log(t)
    if which == 6:
        return "sqrt(1 + x^2)", (a_min, 1.0), lambda t: 0.5 * (t * math.sqrt(1.0 + t * t) + math.asinh(t))
    return "exp(x) + exp(-x)", (a_min, 1.0), lambda t: math.exp(t) - math.exp(-t)


def _abs_template(d: Draws, key: str):
    """A convex expression with a kink from abs, its interval and its integral."""
    a = d.uniform(f"{key}.a", -1.0, 0.0)
    b = a + d.uniform(f"{key}.w", 0.5, 1.5)
    c = a + (b - a) * d.uniform(f"{key}.c", 0.2, 0.8)
    kink = 0.5 * ((c - a) ** 2 + (b - c) ** 2)
    if d.cycle(f"{key}.template", (0, 1)) == 0:
        fn = f"abs({_shifted('x', c)[1:-1]}) + x^2"
        ref = kink + (b ** 3 - a ** 3) / 3.0
    else:
        k = d.uniform(f"{key}.k", 0.5, 2.0)
        fn = f"{_num(k)}*abs({_shifted('x', c)[1:-1]}) + exp(x)"
        ref = k * kink + math.exp(b) - math.exp(a)
    return fn, a, b, ref


def _interval(d: Draws, key: str, lo: float, hi: float, wmin: float, wmax: float):
    a = d.uniform(f"{key}.a", lo, hi)
    return a, a + d.uniform(f"{key}.w", wmin, wmax)


def _fn_arg(fn: str) -> list:
    # argparse takes a value starting with "-" for a flag; attach it with "=".
    return [f"--fn={fn}"] if fn.startswith("-") else ["--fn", fn]


def _interval_args(a: float, b: float) -> list:
    return ["--interval", _num(a), _num(b)]


def _density_template(d: Draws, key: str):
    """A nondecreasing probability density on [a, b] and its mean."""
    a = d.uniform(f"{key}.a", -1.0, 1.0)
    w = d.uniform(f"{key}.w", 0.5, 2.0)
    b = a + w
    which = d.cycle(f"{key}.template", range(3))
    if which == 0:
        s = d.uniform(f"{key}.slope", 0.0, 1.0)
        alpha = (1.0 - s) / w
        slope = 2.0 * s / (w * w)
        text = f"{_num(alpha)} + {_num(slope)}*{_shifted('x', a)}"
        mean = a + alpha * w * w / 2.0 + slope * w ** 3 / 3.0
    elif which == 1:
        p = d.uniform(f"{key}.power", 1.0, 3.0)
        c = (p + 1.0) / w ** (p + 1.0)
        text = f"{_num(c)}*{_shifted('x', a)}^{_num(p)}"
        mean = a + w * (p + 1.0) / (p + 2.0)
    else:
        lam = d.uniform(f"{key}.rate", 0.5, 3.0)
        c = lam / math.expm1(lam * w)
        text = f"{_num(c)}*exp({_num(lam)}*{_shifted('x', a)})"
        mean = a + w * math.exp(lam * w) / math.expm1(lam * w) - 1.0 / lam
    return text, a, b, mean


def _decreasing_density(d: Draws, key: str):
    a = d.uniform(f"{key}.a", -1.0, 1.0)
    w = d.uniform(f"{key}.w", 0.5, 2.0)
    s = d.uniform(f"{key}.slope", 0.3, 1.0)
    alpha = (1.0 + s) / w
    slope = 2.0 * s / (w * w)
    return f"{_num(alpha)} - {_num(slope)}*{_shifted('x', a)}", a, a + w


_NONCONVEX = (
    ("-x^2", (-1.0, 1.0)),
    ("sqrt(x)", (0.1, 2.0)),
    ("x^3", (-1.0, 1.0)),
    ("-exp(x)", (-1.0, 1.0)),
    ("log(x)", (0.5, 2.0)),
)

#: Bump centres for known defect (c): between points of the 101-point
#: convexity grid and away from the nodes and midpoints of the n = 10 grid.
_BUMP_CENTRES = (0.105, 0.215, 0.335, 0.505, 0.685, 0.795, 0.915)
_BUMP_WIDTH = 0.001

_CLI_CYCLE = (
    "integrate_adaptive", "integrate_abs", "fixed_midpoint", "gap", "check_ok",
    "fixed_left", "hh", "expectation", "fixed_right", "integrate_adaptive",
    "reject",
)


def _cli_request(i: int, d: Draws) -> Request:
    k = KNOWN_EVERY["cli_expr"]
    if i % k == k - 1:
        return _cli_known(i, d, (i // k) % 2 == 0)
    kind = _CLI_CYCLE[(i - i // k) % len(_CLI_CYCLE)]

    if kind == "integrate_adaptive":
        fn, (lo, hi), anti = _smooth_template(d, kind)
        a, b = _interval(d, kind, lo, hi, 0.5, 1.5)
        # Eight at each eps, so that each template meets both.
        eps = d.cycle(f"{kind}.eps", (1e-6,) * 8 + (1e-7,) * 8)
        argv = ["integrate", *_fn_arg(fn), *_interval_args(a, b), "--eps", _num(eps),
                "--max-cells", str(ADAPTIVE_MAX_CELLS)]
        return Request(i, "cli:integrate", ("cli", argv), "answer",
                       {"integral": anti(b) - anti(a)})
    if kind == "integrate_abs":
        fn, a, b, ref = _abs_template(d, kind)
        eps = d.cycle(f"{kind}.eps", (1e-4, 1e-5))
        argv = ["integrate", "--fn", fn, *_interval_args(a, b), "--eps", _num(eps)]
        return Request(i, "cli:integrate_abs", ("cli", argv), "answer", {"integral": ref})
    if kind.startswith("fixed_"):
        rule = kind[len("fixed_"):]
        if d.cycle("fixed.abs", (True, False, False, False)):
            fn, a, b, ref = _abs_template(d, "fixed")
            n = int(d.uniform("fixed.n_abs", 8, 49))
        else:
            fn, (lo, hi), anti = _smooth_template(d, "fixed")
            a, b = _interval(d, "fixed", lo, hi, 0.5, 1.5)
            ref = anti(b) - anti(a)
            n = int(d.uniform("fixed.n", 10, 401))
        argv = ["integrate", *_fn_arg(fn), *_interval_args(a, b), "--n", str(n),
                "--xi-rule", rule]
        return Request(i, f"cli:fixed_{rule}", ("cli", argv), "answer", {"integral": ref})
    if kind in ("gap", "hh"):
        # Narrow intervals keep the uncertified eps-1e-10 reference pass that
        # gap and hh run to a few thousand cells.
        fn, (lo, hi), anti = _smooth_template(d, kind, a_min=0.0)
        a, b = _interval(d, kind, max(lo, 0.5), hi, 0.08, 0.16)
        f = _evaluator(fn)
        integral = anti(b) - anti(a)
        if kind == "gap":
            x = a + (b - a) * d.uniform("gap.x", 0.1, 0.9)
            truth = (x - a) * f(a) + (b - x) * f(b) - integral
            argv = ["gap", *_fn_arg(fn), *_interval_args(a, b), "--x", _num(x)]
            return Request(i, "cli:gap", ("cli", argv), "answer", {"gap": truth})
        truth = 0.5 * (f(a) + f(b)) - integral / (b - a)
        argv = ["hh", *_fn_arg(fn), *_interval_args(a, b)]
        return Request(i, "cli:hh", ("cli", argv), "answer", {"difference": truth})
    if kind == "expectation":
        text, a, b, mean = _density_template(d, kind)
        argv = ["expectation", "--density", text, *_interval_args(a, b)]
        if d.cycle("expectation.split", (True, False)):
            argv += ["--x", _num(a + (b - a) * d.uniform("expectation.x", 0.2, 0.8))]
        return Request(i, "cli:expectation", ("cli", argv), "answer", {"expectation": mean})
    if kind == "check_ok":
        if d.cycle("check.density", (True, False)):
            text, a, b, _ = _density_template(d, "check")
            argv = ["check", "--density", text, *_interval_args(a, b)]
        else:
            fn, (lo, hi), _ = _smooth_template(d, "check")
            a, b = _interval(d, "check", lo, hi, 0.5, 1.5)
            argv = ["check", *_fn_arg(fn), *_interval_args(a, b)]
        return Request(i, "cli:check", ("cli", argv), "answer", {"passed": True})
    # reject: a hypothesis violation that must exit 2
    choice = d.cycle("reject.command", ("density", "check", "integrate"))
    if choice == "density":
        text, a, b = _decreasing_density(d, "reject")
        argv = ["check", "--density", text, *_interval_args(a, b)]
    else:
        fn, (lo, hi) = d.cycle("reject.fn", _NONCONVEX)
        a, b = lo, lo + (hi - lo) * d.uniform("reject.w", 0.8, 1.0)
        argv = [choice, *_fn_arg(fn), *_interval_args(a, b)]
    return Request(i, "cli:reject", ("cli", argv), "reject")


def _cli_known(i: int, d: Draws, first: bool) -> Request:
    if first:
        b = d.uniform("singular.b", 0.5, 2.0)
        if d.cycle("singular.fn", (True, False)):
            fn, ref = "x*log(x)", 0.5 * b * b * math.log(b) - 0.25 * b * b
        else:
            fn, ref = "-log(x)", b - b * math.log(b)
        argv = ["integrate", *_fn_arg(fn), *_interval_args(0.0, b)]
        return Request(i, "cli:integrate_singular", ("cli", argv), "answer", {"integral": ref}, "b")
    c = d.cycle("bump.c", _BUMP_CENTRES)
    w = _BUMP_WIDTH
    fn = f"x^2 + exp(-((x - {_num(c)})/{_num(w)})^2)"
    ref = 1.0 / 3.0 + 0.5 * w * math.sqrt(math.pi) * (math.erf((1.0 - c) / w) + math.erf(c / w))
    argv = ["integrate", "--fn", fn, "--interval", "0", "1", "--n", "10"]
    # Not convex: exit 2 is right; an exit-0 enclosure must still contain the integral.
    return Request(i, "cli:integrate_bump", ("cli", argv), "reject", {"integral": ref}, "c")


def _evaluator(fn: str):
    """Plain-Python evaluation of the smooth templates, for reference values."""
    env = {"exp": math.exp, "log": math.log, "sqrt": math.sqrt, "abs": abs}
    code = compile(fn.replace("^", "**"), "<template>", "eval")
    return lambda t: eval(code, dict(env), {"x": t})


# ---------------------------------------------------------------------------
# divergence_wide
# ---------------------------------------------------------------------------

#: Distribution pairs written per run; each serves three regular requests.
DIVERGENCE_PAIRS = 30
#: Pairs whose q has zero-mass points (known defect (d)).
ZERO_MASS_PAIRS = 2
_DIV_CYCLE = ("kl", "chi2", "check", "hellinger", "tv")


def pair_spec(seed: int, j: int) -> dict:
    """Support size and file format of distribution pair j.

    The sizes of the regular pairs are log-spaced over [1e3, 1e5], those of
    the zero-mass pairs likewise; the seed changes the weights, not the sizes,
    so that runs with different seeds do the same amount of work.
    """
    count, first = ((DIVERGENCE_PAIRS, 0) if j < DIVERGENCE_PAIRS
                    else (ZERO_MASS_PAIRS, DIVERGENCE_PAIRS))
    n = int(round(10.0 ** (3.0 + 2.0 * (j - first + 0.5) / count)))
    fmt = "csv" if j % 2 == 0 else "json"
    return {"n": n, "fmt": fmt, "zero_mass": j >= DIVERGENCE_PAIRS}


def pair_weights(seed: int, j: int):
    """Weights (p, q) of pair j.  Zero-mass pairs zero out about a tenth of q."""
    spec = pair_spec(seed, j)
    rng = random.Random(f"divergence_wide:{seed}:weights{j}")
    n = spec["n"]
    p = [rng.uniform(0.2, 1.0) for _ in range(n)]
    q = [rng.uniform(0.2, 1.0) for _ in range(n)]
    if spec["zero_mass"]:
        for t in range(n):
            if rng.random() < 0.1:
                q[t] = 0.0
    sp, sq = math.fsum(p), math.fsum(q)
    return [w / sp for w in p], [w / sq for w in q]


def pair_paths(workdir: Path, j: int, fmt: str):
    return workdir / f"p{j}.{fmt}", workdir / f"q{j}.{fmt}"


def _write_weights(path: Path, weights, fmt: str) -> None:
    if fmt == "csv":
        path.write_text("\n".join(repr(w) for w in weights) + "\n")
    else:
        path.write_text(json.dumps(weights))


def _generator_math(name: str):
    """(f, antiderivative) of the catalog generators, with f(0) and F(0) as limits."""
    if name == "kl":
        return (lambda u: u * math.log(u) if u > 0 else 0.0,
                lambda u: 0.5 * u * u * math.log(u) - 0.25 * u * u if u > 0 else 0.0)
    if name == "chi2":
        return lambda u: (u - 1.0) ** 2, lambda u: (u - 1.0) ** 3 / 3.0
    if name == "hellinger":
        return (lambda u: (math.sqrt(u) - 1.0) ** 2,
                lambda u: 0.5 * u * u - (4.0 / 3.0) * u ** 1.5 + u)
    return lambda u: abs(u - 1.0), lambda u: 0.5 * (u - 1.0) * abs(u - 1.0)


def divergence_reference(name: str, p, q) -> dict:
    """Closed-form Csiszar, Lin-Wong and Hermite-Hadamard sums for one pair.

    ``scale`` is the sum of the absolute terms, the magnitude that rounding
    errors in a plain left-to-right sum are proportional to.
    """
    f, anti = _generator_math(name)
    cs = [pi * f(qi / pi) for pi, qi in zip(p, q)]
    lw = [pi * f(0.5 * (pi + qi) / pi) for pi, qi in zip(p, q)]
    hh = []
    f1 = anti(1.0)
    for pi, qi in zip(p, q):
        if abs(qi - pi) <= 1e-14 * pi:
            continue
        hh.append(pi * pi / (qi - pi) * (anti(qi / pi) - f1))
    return {
        "n": len(p),
        "csiszar": math.fsum(cs),
        "lin_wong": math.fsum(lw),
        "hh": math.fsum(hh),
        "scale": math.fsum(abs(t) for t in cs + lw + hh),
    }


def prepare_divergence_inputs(seed: int, workdir: Path, requests) -> None:
    """Write the p/q files the requests name and the references they need."""
    needed: dict = {}
    for r in requests:
        needed.setdefault(r.ref["pair"], set()).add(r.ref["generator"])
    refs = {}
    for j, names in sorted(needed.items()):
        spec = pair_spec(seed, j)
        p, q = pair_weights(seed, j)
        pp, qp = pair_paths(workdir, j, spec["fmt"])
        _write_weights(pp, p, spec["fmt"])
        _write_weights(qp, q, spec["fmt"])
        refs[str(j)] = {name: divergence_reference(name, p, q) for name in sorted(names) if name != "check"}
        refs[str(j)]["n"] = len(p)
    (workdir / "refs.json").write_text(json.dumps(refs))


def _divergence_request(i: int, workdir: Path, seed: int) -> Request:
    k = KNOWN_EVERY["divergence_wide"]
    if i % k == k - 1:
        j = DIVERGENCE_PAIRS + (i // k) % ZERO_MASS_PAIRS
        gen, known = "kl", "d"
    else:
        # Pair j serves three consecutive kinds of the cycle, one per sweep.
        m = i - i // k
        j = m % DIVERGENCE_PAIRS
        gen, known = _DIV_CYCLE[(m + m // DIVERGENCE_PAIRS) % len(_DIV_CYCLE)], None
    spec = pair_spec(seed, j)
    pp, qp = pair_paths(workdir, j, spec["fmt"])
    if gen == "check":
        argv = ["check", "--dist", str(pp)]
    else:
        argv = ["divergence", "--generator", gen, "--p", str(pp), "--q", str(qp)]
    return Request(i, f"cli:{gen}", ("cli", argv), "answer", {"pair": j, "generator": gen}, known)


def make_requests(workload: str, seed: int, count: int, workdir: Path) -> list:
    """The request list of one run; identical for identical arguments."""
    d = Draws(workload, seed)
    if workload == "catalog_adaptive":
        return [_catalog_request(i, d) for i in range(count)]
    if workload == "cli_expr":
        return [_cli_request(i, d) for i in range(count)]
    if workload == "divergence_wide":
        return [_divergence_request(i, workdir, seed) for i in range(count)]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Checker
# ---------------------------------------------------------------------------


def _contains(lo, hi, ref: float) -> bool:
    if not all(isinstance(v, (int, float)) for v in (lo, hi)):
        return False
    s = SLACK * max(1.0, abs(ref))
    return lo - s <= ref <= hi + s


def _finite_pair(obj) -> bool:
    return (isinstance(obj, dict) and all(isinstance(obj.get(k), (int, float)) for k in ("lo", "hi"))
            and math.isfinite(obj["lo"]) and math.isfinite(obj["hi"]))


def _close(value, ref: float, scale: float) -> bool:
    return isinstance(value, (int, float)) and abs(value - ref) <= POINT_TOL * max(1.0, scale)


def check(req: Request, outcome: tuple, refs: Optional[dict] = None) -> Verdict:
    """Classify one outcome.

    ``outcome`` is ``("raised", text)``, ``("lib", (lo, hi, cells, converged))``
    or ``("exit", code, stdout, stderr)``.  A request fails if it raises or
    prints a traceback, returns an enclosure that excludes its reference, or
    answers a hypothesis violation with anything but exit 2 (or an enclosure
    that still holds).  It is answered if its true answer is finite and it
    exits 0 with a finite enclosure that holds.
    """
    if outcome[0] == "raised":
        return Verdict(True, False, f"raised {outcome[1]}")
    if outcome[0] == "lib":
        lo, hi, cells, _ = outcome[1]
        ok = _contains(lo, hi, req.ref["integral"])
        answered = ok and math.isfinite(lo) and math.isfinite(hi)
        return Verdict(not ok, answered, "ok" if ok else "enclosure excludes reference", cells)

    _, code, out, err = outcome
    if "Traceback" in err or "Traceback" in out:
        return Verdict(True, False, "printed a traceback")
    if req.expect == "reject":
        if code == 2:
            return Verdict(False, False, "rejected")
        if code == 0 and "integral" in req.ref:
            report = json.loads(out)
            enc = report.get("integral")
            ok = _finite_pair(enc) and _contains(enc["lo"], enc["hi"], req.ref["integral"])
            return Verdict(not ok, False, "enclosure holds" if ok else "enclosure excludes reference",
                           report.get("cells"))
        return Verdict(True, False, f"exit {code} for a hypothesis violation")
    if code != 0:
        return Verdict(False, False, f"refused with exit {code}")
    report = json.loads(out)
    command = report.get("command")
    ref = req.ref
    if command == "integrate":
        enc = report.get("integral")
        ok = _finite_pair(enc) and _contains(enc["lo"], enc["hi"], ref["integral"])
        return Verdict(not ok, ok, "ok" if ok else "enclosure excludes reference", report.get("cells"))
    if command == "gap":
        ok = _contains(report.get("lower"), report.get("upper"), ref["gap"])
        if ok and "gap" in report:
            ok = _close(report["gap"], ref["gap"], abs(ref["gap"]))
        return Verdict(not ok, ok, "ok" if ok else "gap bounds exclude reference")
    if command == "hh":
        ok = _contains(report.get("lower"), report.get("upper"), ref["difference"])
        if ok and "difference" in report:
            ok = _close(report["difference"], ref["difference"], abs(ref["difference"]))
        return Verdict(not ok, ok, "ok" if ok else "hh bounds exclude reference")
    if command == "expectation":
        enc = report.get("expectation")
        ok = _finite_pair(enc) and _contains(enc["lo"], enc["hi"], ref["expectation"])
        return Verdict(not ok, ok, "ok" if ok else "expectation bounds exclude reference")
    if command == "check" and "pair" not in ref:
        ok = report.get("passed") is True
        return Verdict(not ok, ok, "ok" if ok else "check did not pass")
    pair = refs[str(ref["pair"])]
    if command == "check":
        ok = report.get("distribution", {}).get("n") == pair["n"] and report.get("passed") is True
        return Verdict(not ok, ok, "ok" if ok else "distribution check disagrees")
    if command == "divergence":
        r = pair[ref["generator"]]
        hh = report.get("hh", {})
        gap = report.get("gap", {})
        truth_gap = 0.5 * r["csiszar"] - r["hh"]
        s = POINT_TOL * max(1.0, r["scale"])
        ok = (
            report.get("n") == r["n"]
            and _close(report.get("csiszar"), r["csiszar"], r["scale"])
            and _close(report.get("lin_wong"), r["lin_wong"], r["scale"])
            and isinstance(hh.get("lo"), (int, float)) and isinstance(hh.get("hi"), (int, float))
            and hh["lo"] - s <= r["hh"] <= hh["hi"] + s
            and isinstance(gap.get("lo"), (int, float)) and isinstance(gap.get("hi"), (int, float))
            and gap["lo"] - s <= truth_gap <= gap["hi"] + s
            and report.get("sandwich_holds") is True
        )
        return Verdict(not ok, ok, "ok" if ok else "divergence values disagree with reference")
    return Verdict(True, False, f"unexpected report for command {command!r}")
