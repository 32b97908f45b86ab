import pytest

from genconvex import funcdsl, quad, theorems


@pytest.fixture(autouse=True)
def _cold_memos():
    """Every test starts from empty memos, so none passes on a value that an
    earlier test left behind."""
    for memo in (quad._memo_moment, theorems._memo_integral, theorems._identity_on, funcdsl.parse):
        memo.cache_clear()
