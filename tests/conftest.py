import random

import pytest
from catalog_oracles import default_catalog
from hypothesis import settings

# CI runs `pytest --hypothesis-profile=ci`: the same examples on every run, so
# the numeric properties cannot flake there; local runs keep the default profile
settings.register_profile("ci", derandomize=True, deadline=None)


@pytest.fixture
def rng():
    return random.Random(20260823)


@pytest.fixture
def test_catalog():
    """One instance per catalog family with finite endpoint derivatives."""
    return default_catalog()
