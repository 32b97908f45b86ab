"""Text reports pinned byte for byte, the exit-status precedence, and the
text tag that each item's exit status implies.

``golden/text_reports.txt`` holds ``render_text(report, 0.0)`` of the
sample scenarios and of scenarios that reach every item kind: a sweep with
an error cell, a failed certification, a found and a not-found
counterexample, verdicts with and without ``mean``, an indeterminate
verdict and an indeterminate reduction.  A wall time of 0.0 keeps the
last line fixed.
"""

import itertools
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


_PRECEDENCE = [
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
]


@pytest.mark.parametrize("items,expected", _PRECEDENCE)
def test_exit_status_precedence(items, expected):
    """Usage errors win, then failures, then indeterminate results."""
    assert cli._exit_status(items) == expected


# The text tag of each kind of item, by the exit status the item gives.
_TAGS = {
    ("verdict", 0): "PASS", ("verdict", 1): "FAIL", ("verdict", 3): "INDETERMINATE",
    ("h_moments", 0): "MOMENTS", ("h_moments", 3): "INDETERMINATE",
    ("reduction", 0): "AGREE", ("reduction", 1): "DISAGREE", ("reduction", 3): "INDETERMINATE",
    ("counterexample", 0): "NONE", ("counterexample", 1): "FOUND",
    ("certification", 0): "CERTIFIED", ("certification", 1): "NOT CERTIFIED",
    ("error", 2): "ERROR",
}

# What rendering reads beyond the fields the exit status reads.
_FIELDS = {
    "verdict": {"theorem_id": "T2_2dot", "lhs": 0.25, "rhs": 0.5, "margin": 0.25,
                "quad_err": 1e-12, "notes": []},
    "h_moments": {"h": "t"},
    "reduction": {"pair": "T2_2dot_vs_T1_9", "probes": 2, "max_dev_lhs": 0.0,
                  "max_dev_rhs": 0.0, "max_allowance": 1e-9},
    "counterexample": {"class": "convex", "x": 0.0, "y": 1.0, "t": 0.5, "defect": -0.25,
                       "probes_ok": 400, "probes_skipped": 0},
    "certification": {"class": "convex", "min_defect": 0.0, "argmin": [0.0, 1.0, 0.5],
                      "samples_ok": 400, "samples_skipped": 0, "note": "sampled"},
    "error": {},
}


def _full(item):
    """``item`` with every field that rendering reads."""
    if item["kind"] == "cell":
        return {"kind": "cell", "cell_index": 0, "axes": {"m": 0.5}, "result": _full(item["result"])}
    full = {**_FIELDS[item["kind"]], **item}
    if item["kind"] == "h_moments":
        for name in ("m1", "m2", "mx"):
            full[name] = {"value": 0.5, "abs_err": 1e-12, **item[name]}
    return full


# each distinct item of the precedence table, and a moments item for every
# combination of indeterminate moments
_ITEMS = list({repr(item): item for items, _ in _PRECEDENCE for item in items}.values()) + [
    _moments(*flags) for flags in itertools.product((False, True), repeat=3)]


@pytest.mark.parametrize("item", _ITEMS)
def test_the_tag_is_the_one_the_exit_status_implies(item):
    item = _full(item)
    result = item["result"] if item["kind"] == "cell" else item
    lines = []
    cli._render_item_text(item, lines)
    tagged = lines[1] if item["kind"] == "cell" else lines[0]
    assert tagged.startswith(f"  [{_TAGS[result['kind'], cli._exit_status([item])]:13s}] ")


def test_an_indeterminate_moment_cell_is_tagged_indeterminate():
    raw = {"name": "moments-indeterminate", "command": "sweep", "theorem": "H_MOMENTS",
           "functions": {"h": "t"}, "tolerances": {"quad": 1e-300},
           "axes": [{"param": "m", "values": [1.0]}]}
    report = run_scenario(normalize_scenario(raw))
    assert report["exit_status"] == 3
    assert render_text(report, 0.0).split("\n")[2].startswith("  [INDETERMINATE] h=t: m1=0.5 ")
