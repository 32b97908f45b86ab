import pytest
from hypothesis import settings

from genconvex import funcdsl, quad, theorems

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
