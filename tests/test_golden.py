"""Machine reports of the sample scenarios, pinned byte for byte.

The files under ``tests/golden/`` are the reports ``genconvex run <scenario>
--format machine`` wrote before the weight moments were memoised.  Any
change that alters a digit of a sample report fails here, and so does a
report that depends on what the moment memo already holds.
"""

from pathlib import Path

import pytest

from genconvex import quad
from genconvex.cli import dump_machine, load_scenario, normalize_scenario, run_scenario

_ROOT = Path(__file__).resolve().parent.parent
_SCENARIOS = sorted((_ROOT / "scenarios").glob("*.json"))
_GOLDEN = Path(__file__).resolve().parent / "golden"


def machine_report(path: Path) -> str:
    return dump_machine(run_scenario(normalize_scenario(load_scenario(str(path)))))


def test_every_sample_has_a_golden_report():
    assert [p.name for p in _SCENARIOS] == sorted(p.name for p in _GOLDEN.glob("*.json"))


@pytest.mark.parametrize("path", _SCENARIOS, ids=lambda p: p.stem)
def test_machine_report_matches_golden(path):
    assert machine_report(path) == (_GOLDEN / path.name).read_text(encoding="utf-8")


def test_warm_moment_memo_does_not_change_the_reports():
    quad._memo_moment.cache_clear()
    cold = [machine_report(path) for path in _SCENARIOS]
    hits = quad._memo_moment.cache_info().hits
    warm = [machine_report(path) for path in _SCENARIOS]
    assert quad._memo_moment.cache_info().hits > hits
    assert warm == cold
