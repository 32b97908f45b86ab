"""Fixtures shared by the test modules.

Every test starts from empty result memos (``_cold_memos``, autouse).  The
Halton probe table of ``classes`` is left alone between tests: it holds no
result, only the radical inverses of the indices asked for so far, which
are the same bits however it was filled, and refilling it for every test
would only slow the suite.  A test that needs a cold table asks for
``cold_probe_table``.
"""

import pytest
from hypothesis import settings

from genconvex import classes, funcdsl, quad, theorems

# a failing example prints the blob that @reproduce_failure replays, so an
# intermittent failure can be replayed exactly
settings.register_profile("genconvex", print_blob=True)
settings.load_profile("genconvex")


@pytest.fixture(autouse=True)
def _cold_memos():
    """Every test starts from empty memos, so none passes on a value that an
    earlier test left behind."""
    quad._memo.clear()
    for memo in (theorems._identity_on, funcdsl.parse):
        memo.cache_clear()


@pytest.fixture
def cold_probe_table():
    """Empties the Halton probe table and the fold tables it is filled from."""
    classes._probe_table.clear()
    classes._fold_table.cache_clear()
