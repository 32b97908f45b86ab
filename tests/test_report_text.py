"""Text reports pinned byte for byte, and the exit-status precedence.

``golden/text_reports.txt`` holds ``render_text(report, 0.0)`` of the
sample scenarios and of scenarios that reach every item kind: a sweep with
an error cell, a failed certification, a found and a not-found
counterexample, verdicts with and without ``mean``, an indeterminate
verdict and an indeterminate reduction.  A wall time of 0.0 keeps the
last line fixed.
"""

from pathlib import Path

import pytest

from genconvex import cli
from genconvex.cli import load_scenario, normalize_scenario, render_text, run_scenario

_ROOT = Path(__file__).resolve().parent.parent
_SCENARIOS = sorted((_ROOT / "scenarios").glob("*.json"))
_GOLDEN = Path(__file__).resolve().parent / "golden" / "text_reports.txt"

_EXTRA_SCENARIOS = [
    {"name": "sweep-error-cell", "command": "sweep", "theorem": "T2_2dot",
     "functions": {"f": "x^2", "h": "t"},
     "axes": [{"param": "x", "values": [0.0, 0.5, 1.0]}]},
    {"name": "certify-sqrt-fails", "command": "certify", "class": "convex",
     "functions": {"f": "sqrt(x)"}, "n": 500, "seed": 3},
    {"name": "falsify-square-none", "command": "falsify", "class": "convex",
     "functions": {"f": "x^2"}, "budget": 2000, "seed": 5},
    {"name": "falsify-phi-convex", "command": "falsify", "class": "phi_convex",
     "functions": {"f": "sqrt(x)", "phi": {"family": "power", "params": [2]}},
     "budget": 2000, "seed": 7},
    {"name": "verify-indeterminate", "command": "verify", "theorem": "T2_2dot",
     "functions": {"f": "ln(x)", "h": "t"}},
    {"name": "verify-hc-mean", "command": "verify", "theorem": "HC",
     "functions": {"f": "x^2"}, "points": {"x": 0.1, "y": 0.7}},
    {"name": "verify-t1_9-fail", "command": "verify", "theorem": "T1_9",
     "functions": {"f": "sqrt(x)", "h": "t^2"}},
    {"name": "reduce-indeterminate", "command": "reduce", "pair": "T2_2dot_vs_T1_9",
     "probes": [{"f": "x^2", "h": "t"},
                {"f": "x^2", "h": {"family": "recip_power", "params": [1]}}]},
]


def text_reports() -> str:
    raws = [load_scenario(str(path)) for path in _SCENARIOS] + _EXTRA_SCENARIOS
    return "".join(render_text(run_scenario(normalize_scenario(raw)), 0.0) for raw in raws)


def test_text_reports_match_golden():
    assert text_reports() == _GOLDEN.read_text(encoding="utf-8")


def _verdict(status):
    return {"kind": "verdict", "status": status}


def _cell(result):
    return {"kind": "cell", "result": result}


def _moments(*indeterminate):
    return {"kind": "h_moments",
            **{name: {"indeterminate": flag} for name, flag in zip(("m1", "m2", "mx"), indeterminate)}}


_ERROR = {"kind": "error", "error": "OrientationError: x >= y"}


@pytest.mark.parametrize("items,expected", [
    ([_cell(_verdict("pass")), _cell(_ERROR), _cell(_verdict("fail")),
      _cell(_verdict("indeterminate"))], 2),
    ([_cell(_verdict("indeterminate")), _cell(_verdict("fail"))], 1),
    ([_cell(_verdict("pass")), _cell(_verdict("indeterminate"))], 3),
    ([_cell(_verdict("pass")), _cell(_verdict("pass"))], 0),
    ([_cell(_ERROR)], 2),
    ([_cell(_moments(False, True, False)), _cell(_moments(False, False, False))], 3),
    ([_cell(_moments(False, False, True)), _cell(_verdict("fail"))], 1),
    ([_cell(_moments(False, False, False))], 0),
    ([_verdict("pass")], 0),
    ([_verdict("fail")], 1),
    ([_verdict("indeterminate")], 3),
    ([{"kind": "reduction", "passed": False, "indeterminate": False}], 1),
    ([{"kind": "reduction", "passed": False, "indeterminate": True}], 3),
    ([{"kind": "reduction", "passed": True, "indeterminate": False}], 0),
    ([{"kind": "counterexample", "found": True}], 1),
    ([{"kind": "counterexample", "found": False}], 0),
    ([{"kind": "certification", "certified": False}], 1),
    ([{"kind": "certification", "certified": True}], 0),
])
def test_exit_status_precedence(items, expected):
    """Usage errors win, then failures, then indeterminate results."""
    assert cli._exit_status(items) == expected
