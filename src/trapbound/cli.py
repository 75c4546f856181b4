"""Command-line front end: integration, gap/HH bounds, expectations, divergences.

Exit codes: 0 success, 1 usage error (bad flags, unparseable input, a
function that cannot be evaluated on the interval, ``--n`` above
``--max-cells``) or stdout closed early (``| head``), 2 hypothesis failure
(non-convex function, by the convexity check or an inverted bracket; invalid
density or distribution); a closed stderr keeps the code of the error it
could not show.  A distribution file is a JSON array where its first
non-blank character is ``[``, else CSV (one weight per line).
JSON reports are deterministic; no computation happens in the rendering
layer.  Besides the inputs: ``integrate`` gives ``gn``, ``integral``,
``remainder``, ``width``, ``cells``, ``converged``, ``certified``; ``gap`` and
``hh`` the paper's bracket ``lower``/``upper``, ``integral`` (the adaptive
enclosure, width 1e-10 within 200,000 cells, and ``integral.converged``,
false where it stayed wider) and ``certified``; ``expectation`` gives
``expectation`` (of the density over its mass), ``x_used``, ``mass_bracket``
(as ``check --density``); ``divergence`` ``csiszar``, ``lin_wong``,
``half_csiszar``, ``hh``, ``gap``, ``sandwich_holds``.
Enclosures are ``{lo, hi}`` with their endpoints verbatim.  ``--fn`` and
``--density`` are expression text in one free variable, which
:mod:`trapbound.expr` reads from the text: ``t^2`` is a function of ``t``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from pathlib import Path
from typing import Optional, Sequence

from .funcs import DomainError, EvaluationError, Interval, NonConvexityError, check_convexity

# Each builder and handler imports the modules it runs, so a one-shot command
# loads only those: ``divergence`` never compiles the expression language, and
# ``check --fn`` never the integrator.


class UsageError(Exception):
    pass


class HypothesisError(Exception):
    pass


class DistributionLoadError(UsageError):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the CLI contract reserves 2
    # for hypothesis failures, so route usage problems through UsageError.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's pattern takes -1e-3, -inf and -nan for flags; subparsers are of this class
        self._negative_number_matcher = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf(inity)?|nan)$", re.I)

    def error(self, message):
        raise UsageError(message)


def load_distribution(path, normalize: bool = False):
    """Read a :class:`~trapbound.divergence.DiscreteDistribution` from a JSON
    array of numbers, where the file's first non-blank character is ``[``,
    else from CSV (one weight per line).

    The distribution checks the weights; a refusal is a
    :class:`HypothesisError`.  ``normalize`` divides them by their sum first,
    and refuses a negative weight or a sum that is 0 or not finite.
    """
    from . import divergence as div

    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise DistributionLoadError(f"{path}: {exc}") from exc

    # re.match reads the text where it lies; lstrip would copy it
    if not re.match(r"\s*\[", text):
        lines = text.splitlines()
        try:
            # float() ignores surrounding whitespace; blank lines and bad
            # numbers take the line loop below
            weights = tuple(map(float, lines))
        except ValueError:
            weights = []
            for lineno, line in enumerate(lines, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    weights.append(float(line))
                except ValueError:
                    raise DistributionLoadError(
                        f"{path}: line {lineno}: not a number: {line!r}"
                    ) from None
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DistributionLoadError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
        # a list, as the text starts with [; a bool is an int to isinstance, and not a weight
        if not set(map(type, data)) <= {int, float}:
            raise DistributionLoadError(f"{path}: expected a JSON array of numbers")
        try:
            weights = tuple(map(float, data))
        except OverflowError:
            raise DistributionLoadError(f"{path}: a JSON integer is outside the float range") from None

    if not weights:
        raise DistributionLoadError(f"{path}: no weights found")
    if normalize:
        lowest = min(weights)
        if lowest < 0:
            raise HypothesisError(f"{path}: negative weight {lowest!r}, cannot normalize")
        try:
            total = math.fsum(weights)
        except OverflowError:
            total = math.inf  # a partial sum passed the float range
        # written so that a NaN sum fails too
        if not 0 < total < math.inf:
            raise HypothesisError(f"{path}: weights sum to {total!r}, cannot normalize")
        weights = [w / total for w in weights]
    try:
        return div.DiscreteDistribution(weights)
    except ValueError as exc:
        hint = "" if min(weights) < 0 else " (pass --normalize to rescale)"
        raise HypothesisError(f"{path}: {exc}{hint}") from exc


def _jsonable(obj):
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _render(report: dict, output_format: str) -> str:
    if output_format == "json":
        return json.dumps(_jsonable(report), indent=2)
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}.{k}" if prefix else k, v)
        else:
            lines.append(f"{prefix} = {_jsonable(value)!r}")

    walk("", report)
    return "\n".join(lines)


def _interval(args) -> Interval:
    """``--interval``, refused where its width b - a overflows: no bound over it is finite."""
    iv = Interval(*args.interval)
    if math.isinf(iv.width):
        raise UsageError(f"--interval [{iv.a}, {iv.b}]: its width b - a overflows to inf")
    return iv


def _function(args) -> tuple:
    """Parse ``--fn`` on ``--interval`` and check its convexity: ``(f, report)``."""
    from . import expr

    iv = _interval(args)
    try:
        f = expr.to_convex_function(args.fn, iv)
    except expr.ParseError as exc:
        raise UsageError(f"--fn: {exc}") from exc
    return f, check_convexity(f)


def _convex_function(args) -> tuple:
    """:func:`_function`, refusing a failed report unless ``--allow-nonconvex``."""
    f, report = _function(args)
    if not report.passed and not args.allow_nonconvex:
        raise HypothesisError(
            f"{args.fn!r} failed the convexity check on [{f.domain.a}, {f.domain.b}]: "
            f"worst secant violation {report.worst_violation:.3e} at {report.witness}; "
            "pass --allow-nonconvex to proceed without certification"
        )
    return f, report


def _enclosure_dict(enc) -> dict:
    return {"lo": enc.lo, "hi": enc.hi}


def _cmd_integrate(args) -> dict:
    from . import quadrature

    if args.n is not None and args.n > args.max_cells:
        raise UsageError(f"--n {args.n} exceeds --max-cells {args.max_cells}")
    f, convexity = _convex_function(args)
    if args.n is not None:
        partition = quadrature.uniform_partition(f.domain, args.n, args.xi_rule)
        result = quadrature.integrate(f, partition)
    else:
        result = quadrature.adaptive_integrate(f, eps=args.eps, max_cells=args.max_cells)
    return {
        "command": "integrate",
        "fn": args.fn,
        "interval": [f.domain.a, f.domain.b],
        "gn": result.gn,
        "integral": _enclosure_dict(result.integral),
        "remainder": _enclosure_dict(result.remainder),
        "width": result.integral.width,
        "cells": result.cells,
        "converged": result.converged,
        "certified": convexity.passed,
    }


def _cmd_bracket(args) -> dict:
    """``gap`` at ``--x`` or ``hh``: the paper's bracket and the adaptive integral."""
    from . import pointwise

    f, convexity = _convex_function(args)
    gap = args.command == "gap"
    enclosure = pointwise.gap_enclosure(f, args.x) if gap else pointwise.hh_bounds(f)
    reference = pointwise._reference_integral(f)
    return {
        "command": args.command,
        "fn": args.fn,
        "interval": [f.domain.a, f.domain.b],
        **({"x": args.x} if gap else {}),
        "lower": enclosure.lo,
        "upper": enclosure.hi,
        "integral": {**_enclosure_dict(reference.integral), "converged": reference.converged},
        "certified": convexity.passed,
    }


def _density(args) -> tuple:
    """Parse ``--density`` on ``--interval`` and validate it: ``(d, report)``."""
    from . import expr, probability

    iv = _interval(args)
    try:
        pdf = expr.to_function(args.density)
    except expr.ParseError as exc:
        raise UsageError(f"--density: {exc}") from exc
    d = probability.continuous_density(iv, pdf, label=args.density)
    return d, probability.validate_density(d, getattr(args, "x", None))


def _cmd_expectation(args) -> dict:
    from . import probability

    d, report = _density(args)
    if not report.valid:
        raise HypothesisError(
            f"{args.density!r} is not a valid nondecreasing density on "
            f"[{d.domain.a}, {d.domain.b}]: " + "; ".join(report.messages)
        )
    x = d.domain.midpoint if args.x is None else args.x
    enclosure = probability.expectation_enclosure(d, x, report.normalization)
    return {
        "command": "expectation",
        "density": args.density,
        "interval": [d.domain.a, d.domain.b],
        "expectation": _enclosure_dict(enclosure),
        "x_used": x,
        "mass_bracket": list(report.normalization),
    }


def _cmd_divergence(args) -> dict:
    from . import divergence as div

    generator = div.generator_catalog(args.generator)
    p = load_distribution(args.p, normalize=args.normalize)
    q = load_distribution(args.q, normalize=args.normalize)
    report = div.divergence_report(generator, p, q)
    return {
        "command": "divergence",
        "generator": generator.label,
        "n": len(p),
        "csiszar": report.csiszar,
        "lin_wong": report.lin_wong,
        "hh": _enclosure_dict(report.hh),
        "half_csiszar": report.half_csiszar,
        "sandwich_holds": report.holds,
        "gap": _enclosure_dict(report.gap),
    }


def _cmd_check(args) -> dict:
    report: dict = {"command": "check"}
    failed = False
    if args.fn is not None:
        if args.interval is None:
            raise UsageError("--fn requires --interval")
        _, conv = _function(args)
        report["convexity"] = {
            "fn": args.fn,
            "passed": conv.passed,
            "worst_violation": conv.worst_violation,
            "witness": list(conv.witness) if conv.witness else None,
        }
        failed = failed or not conv.passed
    if args.density is not None:
        if args.interval is None:
            raise UsageError("--density requires --interval")
        _, dens = _density(args)
        report["density"] = {
            "density": args.density,
            "valid": dens.valid,
            "nonnegative": dens.nonnegative,
            "nondecreasing": dens.nondecreasing,
            "mass_bracket": list(dens.normalization),
            "messages": list(dens.messages),
        }
        failed = failed or not dens.valid
    if args.dist is not None:
        dist = load_distribution(args.dist, normalize=args.normalize)
        report["distribution"] = {
            "path": str(args.dist),
            "n": len(dist),
            "valid": True,
        }
    if not ("convexity" in report or "density" in report or "distribution" in report):
        raise UsageError("check needs at least one of --fn, --density, --dist")
    report["passed"] = not failed
    if failed:
        raise HypothesisError(_render(report, "json"))
    return report


def _add_common(parser):
    parser.add_argument("--fn", required=True, help="function as expression text")
    parser.add_argument("--interval", nargs=2, type=float, required=True, metavar=("A", "B"))
    parser.add_argument("--allow-nonconvex", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="trapbound",
        description="Verified integration and divergence bounds for convex functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("integrate", help="integrate with a certified enclosure")
    _add_common(p_int)
    p_int.add_argument("--eps", type=float, default=1e-6, help="target enclosure width")
    p_int.add_argument("--max-cells", type=int, default=10_000, help="cell budget, also the largest --n")
    p_int.add_argument("--n", type=int, default=None, help="fixed uniform partition size")
    p_int.add_argument("--xi-rule", choices=("midpoint", "left", "right"), default="midpoint")

    p_gap = sub.add_parser("gap", help="generalized trapezoid gap bounds at a split point")
    _add_common(p_gap)
    p_gap.add_argument("--x", type=float, required=True)

    _add_common(sub.add_parser("hh", help="Hermite-Hadamard defect bounds"))

    p_exp = sub.add_parser("expectation", help="expectation bounds for a monotone density")
    p_exp.add_argument("--density", required=True, help="density as expression text")
    p_exp.add_argument("--interval", nargs=2, type=float, required=True, metavar=("A", "B"))
    p_exp.add_argument("--x", type=float, default=None, help="split point (default midpoint)")

    p_div = sub.add_parser("divergence", help="Csiszar / Lin-Wong / HH divergences")
    p_div.add_argument("--generator", required=True, help="f-divergence generator; an unknown name is refused with the known ones")
    p_div.add_argument("--p", required=True, help="path to the first distribution")
    p_div.add_argument("--q", required=True, help="path to the second distribution")

    p_chk = sub.add_parser("check", help="validate hypotheses without computing bounds")
    p_chk.add_argument("--fn", default=None)
    p_chk.add_argument("--density", default=None)
    p_chk.add_argument("--dist", default=None)
    p_chk.add_argument("--interval", nargs=2, type=float, default=None, metavar=("A", "B"))

    for p in (p_div, p_chk):
        p.add_argument("--normalize", action="store_true",
                       help="divide the weights by their sum; a negative weight, or a sum that is 0 or not finite, is refused")
    for p in sub.choices.values():
        p.add_argument("--format", dest="output_format", choices=("json", "table"), default="json")
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call and kept for the
    process: ``parse_args`` leaves no state in the parser."""
    return build_parser()


_HANDLERS = {
    "integrate": _cmd_integrate,
    "gap": _cmd_bracket,
    "hh": _cmd_bracket,
    "expectation": _cmd_expectation,
    "divergence": _cmd_divergence,
    "check": _cmd_check,
}


def run(args) -> dict:
    """Execute a parsed command; raises UsageError / HypothesisError."""
    return _HANDLERS[args.command](args)


def _emit(text: str, stream) -> bool:
    """Print ``text`` to ``stream``; False when its reader is gone, after
    devnull takes the stream's descriptor, so the flush at exit cannot fail."""
    try:
        print(text, file=stream, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return False
    return True


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        report = run(args)
    # expr.ParseError is a ValueError and expr.EvalError an EvaluationError
    except (UsageError, DomainError, EvaluationError, ValueError) as exc:
        _emit(f"trapbound: error: {exc}", sys.stderr)
        return 1
    except ArithmeticError as exc:
        # e.g. a divergence term whose power overflows at a huge q/p
        _emit(f"trapbound: error: {type(exc).__name__}: {exc}", sys.stderr)
        return 1
    except (HypothesisError, NonConvexityError) as exc:
        _emit(f"trapbound: hypothesis failure: {exc}", sys.stderr)
        return 2
    return 0 if _emit(_render(report, args.output_format), sys.stdout) else 1
