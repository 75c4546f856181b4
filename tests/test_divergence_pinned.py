"""Divergence outputs pinned bit for bit on a seeded corpus.

``data/divergence_pinned.json`` holds the exact ``csiszar``, ``lin_wong``,
``hh_divergence`` and ``gap_enclosure`` results (floats as ``float.hex``, or
the exception raised) of the four catalog generators, on pairs with
p = 0 < q, p = q = 0, q = 0 < p, q = p and q within ``_EQUAL_RATIO_TOL`` of p.  The values were recorded from
the straightforward per-quantity loops (now ``divergence_oracles``), before
they were tuned, and are read from the fields of one ``divergence_report``:
where that raises, every field of the case records the exception.  Any
change in the last bit fails here.  To record them afresh after an intended
change, run ``PYTHONPATH=src python tests/test_divergence_pinned.py`` and say
in the change log why the outputs moved.
"""

import json
import math
import random
from pathlib import Path

import pytest

from trapbound.divergence import (
    GENERATOR_NAMES,
    DiscreteDistribution,
    divergence_report,
    generator_catalog,
)

PINNED = Path(__file__).parent / "data" / "divergence_pinned.json"
SEED = 20261018
KINDS = ("plain", "p_zero", "both_zero", "q_zero", "equal")
SIZES = (1, 3, 7, 50, 400)
#: pinned name -> field of the report
FUNCTIONS = {
    "csiszar": "csiszar",
    "lin_wong": "lin_wong",
    "hh_divergence": "hh",
    "gap_enclosure": "gap",
}


def _normalized(raw):
    s = math.fsum(raw)
    return tuple(x / s for x in raw)


def corpus():
    """(name, p, q) triples; a third of the points carry the case's feature."""
    rng = random.Random(SEED)
    cases = []
    for n in SIZES:
        for kind in KINDS if n > 1 else ("plain",):
            praw = [rng.random() ** 4 + 1e-6 for _ in range(n)]
            qraw = [rng.random() ** 4 + 1e-6 for _ in range(n)]
            marked = [i for i in range(n) if i % 3 == 1]
            for i in marked:
                if kind in ("p_zero", "both_zero"):
                    praw[i] = 0.0
                if kind in ("q_zero", "both_zero"):
                    qraw[i] = 0.0
            p = _normalized(praw)
            if kind == "equal":
                # q = p on the marked points, q = p (1 + 4e-15) on the next
                # ones, the remaining mass spread over the rest
                q = list(p)
                for i in range(n):
                    if i % 3 == 2:
                        q[i] = p[i] * (1.0 + 4e-15)
                rest = [i for i in range(n) if i % 3 == 0]
                free = 1.0 - math.fsum(q[i] for i in range(n) if i % 3)
                scale = free / math.fsum(qraw[i] for i in rest)
                for i in rest:
                    q[i] = qraw[i] * scale
                q = tuple(q)
            else:
                q = _normalized(qraw)
            cases.append((f"{kind}-{n}", DiscreteDistribution(p), DiscreteDistribution(q)))
    return cases


def _encode(value):
    if isinstance(value, float):
        return value.hex()
    return [value.lo.hex(), value.hi.hex()]


def outcomes(g, p, q):
    """pinned name -> encoded field, or the exception for every name."""
    try:
        rep = divergence_report(g, p, q)
    except Exception as exc:
        raised = {"raises": type(exc).__name__, "message": str(exc)}
        return {fname: raised for fname in FUNCTIONS}
    return {fname: _encode(getattr(rep, field)) for fname, field in FUNCTIONS.items()}


def record():
    out = {}
    for case, p, q in corpus():
        for gname in GENERATOR_NAMES:
            for fname, value in outcomes(generator_catalog(gname), p, q).items():
                out[f"{case}/{gname}/{fname}"] = value
    return out


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


@pytest.fixture(scope="module")
def current():
    return record()


def test_corpus_covers_every_zero_mass_pattern():
    seen = set()
    for _, p, q in corpus():
        for pi, qi in zip(p.weights, q.weights):
            if pi == 0.0:
                seen.add("p=q=0" if qi == 0.0 else "p=0<q")
            elif qi == 0.0:
                seen.add("q=0<p")
            elif qi == pi:
                seen.add("q=p")
            elif abs(qi - pi) <= 1e-14 * pi:
                seen.add("q~p")
    assert seen == {"p=q=0", "p=0<q", "q=0<p", "q=p", "q~p"}


@pytest.mark.parametrize("fname", sorted(FUNCTIONS))
@pytest.mark.parametrize("gname", GENERATOR_NAMES)
def test_outputs_match_pinned(pinned, current, gname, fname):
    keys = [k for k in pinned if k.endswith(f"/{gname}/{fname}")]
    assert keys
    for key in keys:
        assert current[key] == pinned[key], key
    assert {k for k in current if k.endswith(f"/{gname}/{fname}")} == set(keys)


if __name__ == "__main__":
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
