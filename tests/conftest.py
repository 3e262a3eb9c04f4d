import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from todx import Signature

# The property tests draw the same examples on every run, so a verdict
# does not depend on the run; each test keeps its own max_examples.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture
def sig():
    """f/2, g/1, a, b, all weight 1, precedence a < b < g < f."""
    return Signature([("a", 0, 1, 0), ("b", 0, 1, 1),
                      ("g", 1, 1, 2), ("f", 2, 1, 3)])


@pytest.fixture
def sig_gf():
    """Same shape but with g above f in the precedence."""
    return Signature([("a", 0, 1, 0), ("b", 0, 1, 1),
                      ("f", 2, 1, 2), ("g", 1, 1, 3)])
