"""Fixtures shared by the test modules.

Every test starts from empty result memos (``_cold_memos``, autouse).  The
Halton fold tables and boundary grids of ``classes`` and the tanh-sinh
levels of ``quad`` are left alone between tests: like the fold tables,
which hold the radical inverses of every index below their ends, and the
grids, which hold the probes of a class domain, the levels hold no result,
only nodes and weights that depend on the level alone, the same bits
whichever call built them, and rebuilding them for every test would only
slow the suite.  A test that needs them cold asks for ``cold_fold_tables`` or
``cold_levels``.
"""

import pytest
from hypothesis import settings

from genconvex import classes, cli, funcdsl, quad

# a failing example prints the blob that @reproduce_failure replays, so an
# intermittent failure can be replayed exactly
settings.register_profile("genconvex", print_blob=True)
settings.load_profile("genconvex")


@pytest.fixture(autouse=True)
def _cold_memos():
    """Every test starts from empty memos, so none passes on a value that an
    earlier test left behind."""
    for memo in (quad._memoised_moments, funcdsl._identities, cli._memoised_function):
        memo.cache_clear()


@pytest.fixture
def cold_fold_tables():
    """Empties the Halton fold tables that the probe coordinates are read
    from."""
    classes._fold_table.cache_clear()


@pytest.fixture
def cold_levels():
    """Empties the cache of tanh-sinh levels that the weight moments are
    summed over."""
    quad._level.cache_clear()
