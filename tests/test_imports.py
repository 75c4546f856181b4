"""Which trapbound modules each entry point loads.

Every check runs in a fresh interpreter, so no module that another test
imported counts; the child prints the sorted modules it loaded past those of
start-up as its last line of output.  The last test reads the test oracles'
imports, which trapbound helpers they share with the code they check.
"""

import ast
import importlib
import inspect
import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import trapbound

SRC = Path(trapbound.__file__).resolve().parent.parent
#: The home modules of the package's exports.
EXPORT_HOMES = {"funcs", "pointwise", "quadrature"}
#: The private trapbound callables that ``tests/*_oracles.py`` still share
#: with the code they check; freezing one into its oracle removes it here.
#: ``_envelope_area`` stays shared: its loosened-clamp mutant survives even
#: against a frozen copy, so a copy would add code and no check.
SHARED_HELPERS = {"_envelope_area"}


def fresh_modules(code: str) -> set:
    """The modules that running ``code`` in a fresh interpreter loads; site hooks
    such as ``_distutils_hack`` load at start-up, before it, and do not count."""
    script = (
        f"import sys\n_start = set(sys.modules)\nsys.path.insert(0, {str(SRC)!r})\n{code}\n"
        "_new = sorted(set(sys.modules) - _start)\nprint(__import__('json').dumps(_new))"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def loaded(code: str) -> set:
    """The trapbound modules loaded once ``code`` has run in a fresh interpreter."""
    return {m for m in fresh_modules(code) if m.startswith("trapbound")}


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


def test_runtime_loads_only_the_standard_library():
    # the runtime needs no third-party package; pytest and hypothesis are
    # installed here, so a stray import of one would otherwise pass unseen
    modules = sorted(path.stem for path in (SRC / "trapbound").glob("*.py") if not path.stem.startswith("__"))
    imports = "".join(f"import trapbound.{m}\n" for m in modules)
    got = fresh_modules(imports + run_main("integrate", "--fn", "exp(x)", "--interval", "0", "1"))
    assert qualified(*modules) <= got
    outside = sorted(m for m in got if m.partition(".")[0] not in sys.stdlib_module_names | {"trapbound"})
    assert outside == [], outside


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


def test_divergence_import_compiles_no_pass():
    # each generator's per-point pass is compiled when first used, then kept;
    # imports and dataclasses compile too, under other names
    code = (
        "import builtins\ncompiled = []\nreal = builtins.compile\n"
        "def spy(src, name, *args, **kwargs):\n"
        "    if str(name).startswith('<divergence pass'):\n        compiled.append(name)\n"
        "    return real(src, name, *args, **kwargs)\n"
        "builtins.compile = spy\n"
        "from trapbound import divergence as d\n"
        "assert compiled == [], compiled\n"
        "p, q = d.DiscreteDistribution((0.5, 0.5)), d.DiscreteDistribution((0.25, 0.75))\n"
        "for name in ('kl', 'kl', 'tv'):\n    d.divergence_report(d.generator_catalog(name), p, q)\n"
        "assert compiled == [\"<divergence pass of 'kl'>\", \"<divergence pass of 'total_variation'>\"], compiled"
    )
    assert loaded(code) == qualified("funcs", "pointwise", "divergence")


def test_exports_resolve_in_this_process():
    # the checks above in fresh interpreters, here in the test process itself
    for name in trapbound.__all__:
        home = importlib.import_module(f"trapbound.{trapbound._HOMES[name]}")
        assert getattr(trapbound, name) is getattr(home, name)
    assert set(trapbound.__all__) <= set(dir(trapbound))
    with pytest.raises(AttributeError, match=r"^module 'trapbound' has no attribute 'no_such_name'$"):
        trapbound.no_such_name


def test_python_dash_m_runs_the_cli(monkeypatch, capsys):
    # python -m trapbound, run in this process: the module's exit code is main's
    monkeypatch.setattr(sys, "argv", ["trapbound", "integrate", "--fn", "x^2", "--interval", "0", "1", "--n", "4"])
    with pytest.raises(SystemExit) as info:
        runpy.run_module("trapbound", run_name="__main__")
    assert info.value.code == 0
    assert json.loads(capsys.readouterr().out)["remainder"] == {"lo": 0.0, "hi": 0.015625}


def test_oracles_share_only_the_listed_helpers():
    # an oracle that imports a library helper moves with the code it checks,
    # so a new shared helper fails here; public names and named constants are
    # allowed, and a helper read off an imported trapbound module counts too
    shared = set()
    for path in sorted(Path(__file__).parent.glob("*_oracles.py")):
        tree = ast.parse(path.read_text(), str(path))
        modules = {}  # local name -> the trapbound module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update((a.asname or a.name, a.name) for a in node.names if a.name.startswith("trapbound"))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("trapbound"):
                home = importlib.import_module(node.module)
                for a in node.names:
                    obj = getattr(home, a.name)
                    if inspect.ismodule(obj):
                        modules[a.asname or a.name] = obj.__name__
                    elif a.name.startswith("_") and callable(obj):
                        shared.add(a.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_") and isinstance(node.value, ast.Name)
                    and node.value.id in modules
                    and callable(getattr(importlib.import_module(modules[node.value.id]), node.attr, None))):
                shared.add(node.attr)
    assert shared == SHARED_HELPERS
