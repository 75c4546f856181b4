"""Divergence outputs pinned bit for bit on the seeded corpus of ``test_divergence``.

For every case of ``SEEDED`` and each catalog generator, one field of
``divergence_report`` is compared, as ``float.hex``, with the same field of
``divergence_oracles.reference_report`` (the straightforward per-quantity
loops) and of the report of ``call_form`` (the pass that calls the
generator's functions where the catalog pass has their text inline).  Where a
report raises, every field of the case compares the exception.  Any change in
the last bit fails here; the oracles are the only recorded reference.
"""

import pytest
from divergence_oracles import reference_report
from test_divergence import SEEDED, call_form

from trapbound.divergence import GENERATOR_NAMES, divergence_report, generator_catalog

#: pinned name -> the field of the report, as float.hex; the sandwich also
#: carries its verdict
FUNCTIONS = {
    "csiszar": lambda rep: rep.csiszar.hex(),
    "lin_wong": lambda rep: rep.lin_wong.hex(),
    "hh_divergence": lambda rep: (rep.hh.lo.hex(), rep.hh.hi.hex(), rep.holds),
    "gap_enclosure": lambda rep: (rep.gap.lo.hex(), rep.gap.hi.hex()),
}


def _field(fname, g, p, q):
    try:
        rep = divergence_report(g, p, q)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return FUNCTIONS[fname](rep)


@pytest.mark.parametrize("fname", sorted(FUNCTIONS))
@pytest.mark.parametrize("gname", GENERATOR_NAMES)
def test_outputs_match_pinned(gname, fname):
    g, built = generator_catalog(gname), call_form(gname)
    assert len(SEEDED) == 21
    for case, p, q in SEEDED:
        got = _field(fname, g, p, q)
        try:
            ref = reference_report(g, p, q)
        except Exception as exc:
            want = type(exc).__name__, str(exc)
        else:
            want = FUNCTIONS[fname](ref)
        assert got == want, case
        assert _field(fname, built, p, q) == got, case
