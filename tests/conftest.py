import random

import pytest
from catalog_oracles import default_catalog
from hypothesis import Phase, settings

# CI runs `pytest --hypothesis-profile=ci`: the same examples on every run, so
# the numeric properties cannot flake there; local runs keep the default profile
settings.register_profile("ci", derandomize=True, deadline=None)
# a mutation run takes `--hypothesis-profile=mutant`: ci's examples without the
# shrink phase (nor the explain phase after it), so a property that a mutant
# breaks fails at its first failing example instead of shrinking it
settings.register_profile("mutant", settings.get_profile("ci"),
                          phases=[p for p in Phase if p not in (Phase.shrink, Phase.explain)])


@pytest.fixture
def rng():
    return random.Random(20260823)


@pytest.fixture
def test_catalog():
    """One instance per catalog family with finite endpoint derivatives."""
    return default_catalog()
