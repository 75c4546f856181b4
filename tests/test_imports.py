"""Which trapbound modules each entry point loads.

Every check runs in a fresh interpreter, so no module that another test
imported counts; the child prints the sorted trapbound modules it holds as
its last line of output.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import trapbound

SRC = Path(trapbound.__file__).resolve().parent.parent
#: The home modules of the package's exports.
EXPORT_HOMES = {"funcs", "pointwise", "quadrature"}


def loaded(code: str) -> set:
    """The trapbound modules loaded once ``code`` has run in a fresh interpreter."""
    script = (
        f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{code}\n"
        "print(__import__('json').dumps(sorted(m for m in sys.modules if m.startswith('trapbound'))))"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def qualified(*names) -> set:
    return {"trapbound", *(f"trapbound.{n}" for n in names)}


def run_main(*argv) -> str:
    """Code that runs ``cli.main(argv)`` with its report discarded and checks exit 0."""
    return (
        "import contextlib, io\nfrom trapbound import cli\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    assert cli.main({list(argv)!r}) == 0\n"
    )


@pytest.fixture
def three_points(tmp_path):
    p, q = tmp_path / "p.csv", tmp_path / "q.json"
    p.write_text("0.2\n0.3\n0.5\n")
    q.write_text("[0.5, 0.25, 0.25]\n")
    return str(p), str(q)


def test_package_and_cli_load_only_funcs():
    assert loaded("import trapbound, trapbound.cli") == qualified("cli", "funcs")


@pytest.mark.parametrize("generator", ["hellinger", "kl", "tv", "chi2"])
def test_divergence_loads_no_expressions_or_integrator(three_points, generator):
    p, q = three_points
    got = loaded(run_main("divergence", "--generator", generator, "--p", p, "--q", q))
    assert got == qualified("cli", "funcs", "pointwise", "divergence")


def test_check_dist_loads_no_expressions_or_integrator(three_points):
    got = loaded(run_main("check", "--dist", three_points[0]))
    assert got == qualified("cli", "funcs", "pointwise", "divergence")


def test_check_fn_loads_no_divergence_probability_or_integrator():
    got = loaded(run_main("check", "--fn", "exp(x)", "--interval", "0", "1"))
    assert got == qualified("cli", "funcs", "expr")


def test_range_layer_loads_no_integrator():
    # a proved convexity check for check --fn can read f'' ranges without an integrator
    assert loaded("import trapbound._ranges") == qualified("funcs", "expr", "_ranges")


def test_each_command_loads_what_it_runs(three_points):
    fn = ["--fn", "exp(x)", "--interval", "0", "1"]
    assert loaded(run_main("integrate", *fn)) == qualified("cli", "funcs", "expr", "_ranges", "pointwise", "quadrature")
    # a fixed partition asks for no f'' range
    assert loaded(run_main("integrate", *fn, "--n", "4")) == qualified("cli", "funcs", "expr", "pointwise", "quadrature")
    assert loaded(run_main("expectation", "--density", "2*x", "--interval", "0", "1")) == qualified(
        "cli", "funcs", "expr", "pointwise", "probability")


@pytest.mark.parametrize("home", sorted(EXPORT_HOMES))
def test_each_export_loads_its_home_and_is_the_same_object(home):
    names = [name for name in trapbound.__all__ if trapbound._HOMES[name] == home]
    code = (
        f"import trapbound\nhome = __import__('trapbound.{home}').{home}\n"
        f"for name in {names!r}:\n"
        "    assert getattr(trapbound, name) is getattr(home, name), name"
    )
    # funcs needs nothing, pointwise needs funcs, quadrature needs both
    needs = {"funcs": {"funcs"}, "pointwise": {"funcs", "pointwise"}}.get(home, EXPORT_HOMES)
    assert loaded(code) == qualified(*needs)


def test_star_import_and_dir_list_every_export():
    code = (
        "import trapbound\nlisted = dir(trapbound)\n"
        "assert set(trapbound.__all__) <= set(listed), listed\n"
        "assert sorted(m for m in sys.modules if m.startswith('trapbound.')) == []\n"
        "namespace = {}\nexec('from trapbound import *', namespace)\n"
        "assert set(trapbound.__all__) <= set(namespace), sorted(namespace)\n"
        "for name in trapbound.__all__:\n"
        "    assert namespace[name] is getattr(sys.modules['trapbound.' + trapbound._HOMES[name]], name), name"
    )
    assert loaded(code) == qualified(*EXPORT_HOMES)


def test_unknown_attribute_raises_and_submodules_still_import():
    code = (
        "import trapbound\n"
        "try:\n    trapbound.no_such_name\nexcept AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc), exc\nelse:\n    raise SystemExit('no AttributeError')\n"
        "assert not hasattr(trapbound, 'Bogus')\n"
        # a submodule that is not an export still imports as one
        "from trapbound import divergence\n"
        "assert divergence is sys.modules['trapbound.divergence']"
    )
    assert loaded(code) == qualified("funcs", "pointwise", "divergence")

