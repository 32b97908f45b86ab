"""Declarative scenario runner and report emitter.

A scenario is a JSON file naming one command and its inputs:

    {"name": "demo", "command": "verify", "theorem": "T2_2dot",
     "functions": {"f": "x^2", "h": "t"}, "m": 1.0,
     "points": {"x": 0.0, "y": 1.0}, "seed": 0}

Commands: certify, falsify, verify, reduce, sweep.  Reports go to stdout as
text (or JSON with --format machine) and optionally to a file; sweeps can
additionally emit CSV.  Exit codes: 0 all pass / nothing found as expected,
1 inequality failure or counterexample found, 2 usage or schema error,
3 numeric indeterminate.

Machine-format reports are byte-reproducible for identical scenario, seed
and tool version: floats are printed with 17 significant digits and wall
time is reported only in the text format.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
import time
from typing import Any

from . import __version__
from .algebra import check_modulus
from .classes import (
    CLASS_TAGS,
    DEFAULT_CERTIFY_N,
    DEFAULT_DEFECT_TOL,
    DEFAULT_FALSIFY_BUDGET,
    FREE_PARAMS,
    certify_sampled,
    class_spec,
    falsify,
)
from .errors import CatalogError, GenConvexError, ScenarioError
from .funcdsl import CATALOG_FAMILIES, catalog, func_from_expr, infer_variable, parse
from .quad import DEFAULT_TOL, MOMENTS, h_moments
from .theorems import (
    BACKGROUND_IDS,
    BOUNDS,
    DEFAULT_REPORT_TOL,
    MAIN_IDS,
    REDUCTION_PAIRS,
    REDUCTIONS,
    check_reduction,
    verify,
)

__all__ = ["main", "run_scenario", "load_scenario", "normalize_scenario"]

COMMANDS = ("certify", "falsify", "verify", "reduce", "sweep")
ROLES = ("f", "g", "h", "phi")
SCENARIO_KEYS = ("name", "command", "domain", "tolerances", "points", "x", "y", "a", "b", "m",
                 "seed", "budget", "n", "functions", "theorem", "class", "pair", "probes", "axes")
TOLERANCE_KEYS = ("quad", "report", "counterexample")
POINT_KEYS = ("x", "y", "a", "b")
AXIS_KEYS = ("param", "values", "start", "stop", "step")
BINDING_KEYS = ("expr", "variable", "domain", "family", "params")
PROBE_KEYS = ROLES + ("m", "x", "y")
SWEEP_PARAMS = ("m", "x", "y", "s")
SWEEP_CELL_CAP = 100_000
MOMENTS_ID = "H_MOMENTS"
CSV_FIXED_COLUMNS = ("theorem_id", "lhs", "rhs", "margin", "quad_err", "status")

_PHI_CONVEX_NOTE = (
    "phi-convex defect reads the endpoint weights as t and (1-t)"
)

EXIT_OK = 0
EXIT_FOUND = 1
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3
_VERDICT_OUTCOMES = {"pass": EXIT_OK, "fail": EXIT_FOUND, "indeterminate": EXIT_INDETERMINATE}


# --------------------------------------------------------------------------
# Deterministic JSON emission (17 significant digits, no NaN), in one pass:
# every fragment is appended to one list, joined once, and each distinct
# finite non-zero float and each distinct str key is formatted once per report
# --------------------------------------------------------------------------

def format_float(value: float) -> str:
    return "%.17g" % value


# the call JSONEncoder.encode makes for a str, without the encoder around it
_encode_str = json.encoder.encode_basestring_ascii


def dump_machine(obj: Any) -> str:
    """``obj`` as standard JSON with a two-space indent and a final newline.

    Values are dispatched on their exact type first; subclasses of str,
    int, float, dict, list and tuple are written as their base type is.
    The float and key memos live for this one call.  Zeros stay out of the
    float memo, since 0.0 and -0.0 are equal keys that print differently,
    and so do keys that are not exactly str, since True, 1 and 1.0 are
    equal keys that print as "True", "1" and "1.0".
    """
    parts: list[str] = []
    _emit(obj, "\n", parts, {}, {})
    parts.append("\n")
    return "".join(parts)


# The emitters are module functions that take the report's state (the list
# of fragments and the float and key memos), so that no closure of one report
# refers to another and a report leaves nothing for the cyclic collector.

def _emit(obj: Any, nl: str, parts: list[str], floats: dict[float, str],
          keys: dict[str, str]) -> None:
    t = type(obj)
    if t is float:
        text = floats.get(obj)
        if text is None:
            if not math.isfinite(obj):
                text = "null"
            elif obj:
                text = floats[obj] = format_float(obj)
            else:
                text = format_float(obj)
        parts.append(text)
    elif t is str:
        parts.append(_encode_str(obj))
    elif t is dict:
        _emit_dict(obj, nl, parts, floats, keys)
    elif t is list or t is tuple:
        _emit_list(obj, nl, parts, floats, keys)
    elif t is int:
        parts.append(str(obj))
    elif obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, str):
        parts.append(_encode_str(obj))
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(format_float(obj) if math.isfinite(obj) else "null")
    elif isinstance(obj, dict):
        _emit_dict(obj, nl, parts, floats, keys)
    elif isinstance(obj, (list, tuple)):
        _emit_list(obj, nl, parts, floats, keys)
    else:
        raise TypeError(f"cannot serialize {t.__name__}")


# nl is a newline and the container's indent; each member is followed by a
# separator, and the last separator is replaced by the closing line
def _emit_dict(obj: dict, nl: str, parts: list[str], floats: dict[float, str],
               keys: dict[str, str]) -> None:
    if not obj:
        parts.append("{}")
        return
    append = parts.append
    inner = nl + "  "
    sep = "," + inner
    append("{" + inner)
    for key, value in obj.items():
        if type(key) is str:
            text = keys.get(key)
            if text is None:
                text = keys[key] = _encode_str(key) + ": "
        else:
            text = _encode_str(str(key)) + ": "
        append(text)
        _emit(value, inner, parts, floats, keys)
        append(sep)
    parts[-1] = nl + "}"


def _emit_list(obj: list | tuple, nl: str, parts: list[str], floats: dict[float, str],
               keys: dict[str, str]) -> None:
    if not obj:
        parts.append("[]")
        return
    append = parts.append
    inner = nl + "  "
    sep = "," + inner
    append("[" + inner)
    for value in obj:
        _emit(value, inner, parts, floats, keys)
        append(sep)
    parts[-1] = nl + "]"


# --------------------------------------------------------------------------
# Scenario loading and validation
# --------------------------------------------------------------------------

def load_scenario(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario is not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from None
    except RecursionError:
        raise ScenarioError("scenario is nested too deeply to decode") from None
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    return raw


def _expect(cond: bool, message: str, field: str = "") -> None:
    if not cond:
        raise ScenarioError(message, field)


def _expect_modulus(m: float, message: str, field: str) -> None:
    """``algebra.check_modulus``, failing as a ScenarioError that names the
    field."""
    try:
        check_modulus(m)
    except CatalogError:
        raise ScenarioError(message, field) from None


def _as_float(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"field {field} must be a number", field)
    value = float(value)
    if not math.isfinite(value):
        raise ScenarioError(f"field {field} must be finite", field)
    return value


def _as_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"field {field} must be an integer", field)
    return value


def _expect_keys(obj: dict, keys: tuple[str, ...], prefix: str) -> None:
    """Reject a key of ``obj`` outside ``keys``, named by its path: the
    key after ``prefix``."""
    for key in obj:
        _expect(key in keys, f"unknown field {prefix}{key}", f"{prefix}{key}")


def _normalize_function(value, field: str, default_domain) -> dict:
    """Canonicalize a function binding: DSL string or catalog reference."""
    if isinstance(value, str):
        value = {"expr": value}
    if not isinstance(value, dict):
        raise ScenarioError(f"field {field} must be a string or object", field)
    _expect_keys(value, BINDING_KEYS, f"{field}.")
    domain = value.get("domain", default_domain)
    if (
        not isinstance(domain, (list, tuple))
        or len(domain) != 2
    ):
        raise ScenarioError(f"field {field}.domain must be [lo, hi]", f"{field}.domain")
    domain = [_as_float(domain[0], f"{field}.domain"), _as_float(domain[1], f"{field}.domain")]
    _expect(domain[0] <= domain[1], f"field {field}.domain is reversed", f"{field}.domain")
    if "expr" in value:
        text = value["expr"]
        _expect(isinstance(text, str), f"field {field}.expr must be a string", f"{field}.expr")
        variable = value.get("variable")
        if variable is None:
            try:
                variable = infer_variable(text)
            except GenConvexError as exc:
                raise ScenarioError(f"field {field}.expr: {exc}", f"{field}.expr") from None
        _expect(isinstance(variable, str), f"field {field}.variable must be a string",
                f"{field}.variable")
        try:
            # the domain is checked above and compiling cannot fail, so
            # parsing is the whole of func_from_expr's validation
            parse(text, variable)
        except GenConvexError as exc:
            raise ScenarioError(f"field {field}.expr does not parse: {exc}", f"{field}.expr") from None
        return {"expr": text, "variable": variable, "domain": domain}
    if "family" in value:
        family = value["family"]
        _expect(isinstance(family, str) and family in CATALOG_FAMILIES,
                f"field {field}.family must be one of {', '.join(CATALOG_FAMILIES)}",
                f"{field}.family")
        params = value.get("params", [])
        _expect(isinstance(params, (list, tuple)), f"field {field}.params must be a list",
                f"{field}.params")
        params = [_as_float(p, f"{field}.params") for p in params]
        try:
            catalog(family, params, (domain[0], domain[1]))
        except GenConvexError as exc:
            raise ScenarioError(f"field {field}: {exc}", field) from None
        return {"family": family, "params": params, "domain": domain}
    raise ScenarioError(f"field {field} needs either 'expr' or 'family'", field)


def _normalize_functions(raw: dict, field: str, domain) -> dict:
    """Canonicalize the bindings of ``raw`` among ROLES, in ROLES order; h
    defaults to the domain [0, 1], every other role to ``domain``."""
    return {
        role: _normalize_function(raw[role], f"{field}.{role}",
                                  [0.0, 1.0] if role == "h" else domain)
        for role in ROLES if role in raw
    }


def _build_function(spec: dict):
    if "expr" in spec:
        return func_from_expr(spec["expr"], spec["variable"], tuple(spec["domain"]))
    return catalog(spec["family"], spec["params"], tuple(spec["domain"]))


def _build_functions(specs: dict) -> dict:
    """Build the functions bound among ROLES in ``specs``."""
    return {role: _build_function(specs[role]) for role in ROLES if role in specs}


def normalize_scenario(raw: dict) -> dict:
    """Validate a raw scenario object and fill every default.

    The result is the canonical scenario echo embedded in reports; running
    it again reproduces the same report bytes.
    """
    _expect("command" in raw, "missing field: command", "command")
    command = raw["command"]
    _expect(command in COMMANDS,
            f"field command must be one of {', '.join(COMMANDS)}", "command")
    _expect("name" in raw, "missing field: name", "name")
    name = raw["name"]
    _expect(isinstance(name, str) and name != "", "field name must be a nonempty string", "name")
    _expect_keys(raw, SCENARIO_KEYS, "")

    domain = raw.get("domain", [0.0, 1.0])
    _expect(isinstance(domain, (list, tuple)) and len(domain) == 2,
            "field domain must be [lo, hi]", "domain")
    domain = [_as_float(domain[0], "domain"), _as_float(domain[1], "domain")]
    _expect(domain[0] < domain[1], "field domain must be a nonempty interval", "domain")

    tol_raw = raw.get("tolerances", {})
    _expect(isinstance(tol_raw, dict), "field tolerances must be an object", "tolerances")
    _expect_keys(tol_raw, TOLERANCE_KEYS, "tolerances.")
    tolerances = {
        "quad": _as_float(tol_raw.get("quad", DEFAULT_TOL), "tolerances.quad"),
        "report": _as_float(tol_raw.get("report", DEFAULT_REPORT_TOL), "tolerances.report"),
        "counterexample": _as_float(
            tol_raw.get("counterexample", DEFAULT_DEFECT_TOL), "tolerances.counterexample"
        ),
    }
    for key, value in tolerances.items():
        _expect(value > 0.0, f"field tolerances.{key} must be positive", f"tolerances.{key}")

    points_raw = raw.get("points", {})
    _expect(isinstance(points_raw, dict), "field points must be an object", "points")
    _expect_keys(points_raw, POINT_KEYS, "points.")
    x = points_raw.get("x", points_raw.get("a", raw.get("x", raw.get("a", domain[0]))))
    y = points_raw.get("y", points_raw.get("b", raw.get("y", raw.get("b", domain[1]))))
    points = {"x": _as_float(x, "points.x"), "y": _as_float(y, "points.y")}

    m = _as_float(raw.get("m", 1.0), "m")
    _expect_modulus(m, "field m must lie in (0, 1]", "m")

    seed = _as_int(raw.get("seed", 0), "seed")
    budget = _as_int(raw.get("budget", DEFAULT_FALSIFY_BUDGET), "budget")
    _expect(budget >= 1, "field budget must be >= 1", "budget")
    n = _as_int(raw.get("n", DEFAULT_CERTIFY_N), "n")
    _expect(n >= 1, "field n must be >= 1", "n")

    functions_raw = raw.get("functions", {})
    _expect(isinstance(functions_raw, dict), "field functions must be an object", "functions")
    for key in functions_raw:
        _expect(key in ROLES, f"unknown function role '{key}'", f"functions.{key}")
    functions = _normalize_functions(functions_raw, "functions", domain)

    scenario = {
        "name": name,
        "command": command,
        "domain": domain,
        "functions": functions,
        "m": m,
        "points": points,
        "tolerances": tolerances,
        "seed": seed,
        "budget": budget,
        "n": n,
    }

    if command in ("verify", "sweep"):
        _expect("theorem" in raw, "missing field: theorem", "theorem")
        theorem = raw["theorem"]
        valid = MAIN_IDS + BACKGROUND_IDS + ((MOMENTS_ID,) if command == "sweep" else ())
        _expect(theorem in valid,
                f"field theorem must be one of {', '.join(valid)}", "theorem")
        for role in ("h",) if theorem == MOMENTS_ID else BOUNDS[theorem].roles:
            _expect(role in functions, f"missing field: functions.{role}", f"functions.{role}")
        scenario["theorem"] = theorem

    if command in ("certify", "falsify"):
        _expect("class" in raw, "missing field: class", "class")
        tag = raw["class"]
        _expect(tag in CLASS_TAGS,
                f"field class must be one of {', '.join(CLASS_TAGS)}", "class")
        _expect("f" in functions, "missing field: functions.f", "functions.f")
        if "h" in FREE_PARAMS[tag]:
            _expect("h" in functions, "missing field: functions.h", "functions.h")
        scenario["class"] = tag

    if command == "reduce":
        _expect("pair" in raw, "missing field: pair", "pair")
        pair = raw["pair"]
        _expect(pair in REDUCTION_PAIRS,
                f"field pair must be one of {', '.join(REDUCTION_PAIRS)}", "pair")
        probes_raw = raw.get("probes")
        _expect(isinstance(probes_raw, list) and probes_raw,
                "field probes must be a nonempty list", "probes")
        probes = []
        for i, probe in enumerate(probes_raw):
            _expect(isinstance(probe, dict), f"probe {i} must be an object", f"probes[{i}]")
            _expect_keys(probe, PROBE_KEYS, f"probes[{i}].")
            entry: dict[str, Any] = _normalize_functions(probe, f"probes[{i}]", domain)
            for role in BOUNDS[REDUCTIONS[pair].main].roles:
                _expect(role in entry, f"probe {i} needs '{role}'", f"probes[{i}].{role}")
            entry["m"] = _as_float(probe.get("m", 1.0), f"probes[{i}].m")
            _expect_modulus(entry["m"], f"field probes[{i}].m must lie in (0, 1]", f"probes[{i}].m")
            entry["x"] = _as_float(probe.get("x", domain[0]), f"probes[{i}].x")
            entry["y"] = _as_float(probe.get("y", domain[1]), f"probes[{i}].y")
            probes.append(entry)
        scenario["pair"] = pair
        scenario["probes"] = probes

    if command == "sweep":
        axes_raw = raw.get("axes")
        _expect(isinstance(axes_raw, list) and axes_raw,
                "field axes must be a nonempty list", "axes")
        axes = []
        total = 1
        for i, axis in enumerate(axes_raw):
            _expect(isinstance(axis, dict), f"axis {i} must be an object", f"axes[{i}]")
            _expect_keys(axis, AXIS_KEYS, f"axes[{i}].")
            param = axis.get("param")
            _expect(param in SWEEP_PARAMS,
                    f"axis {i} param must be one of {', '.join(SWEEP_PARAMS)}",
                    f"axes[{i}].param")
            _expect(all(earlier["param"] != param for earlier in axes),
                    f"axis {i} param {param} is already swept by an earlier axis",
                    f"axes[{i}].param")
            if "values" in axis:
                values = axis["values"]
                _expect(isinstance(values, list) and values,
                        f"axis {i} values must be a nonempty list", f"axes[{i}].values")
                values = [_as_float(v, f"axes[{i}].values") for v in values]
            else:
                start = _as_float(axis.get("start", 0.0), f"axes[{i}].start")
                stop = _as_float(axis.get("stop", 0.0), f"axes[{i}].stop")
                step = _as_float(axis.get("step", 0.0), f"axes[{i}].step")
                _expect(step > 0.0 and stop >= start,
                        f"axis {i} range needs step > 0 and stop >= start", f"axes[{i}]")
                # an infinite span fails this too, so the floor below is finite
                span = (stop - start) / step + 1e-9
                _expect(span < SWEEP_CELL_CAP,
                        f"axis {i} range has more than {SWEEP_CELL_CAP} values", f"axes[{i}]")
                values = [start + k * step for k in range(int(math.floor(span)) + 1)]
            if param == "m":
                for value in values:
                    _expect_modulus(value, f"axis {i} values of m must lie in (0, 1]",
                                    f"axes[{i}].values")
            total *= len(values)
            axes.append({"param": param, "values": values})
        _expect(total <= SWEEP_CELL_CAP,
                f"sweep grid has {total} cells, cap is {SWEEP_CELL_CAP}", "axes")
        if any(axis["param"] == "s" for axis in axes):
            _expect("h" in functions and "family" in functions["h"]
                    and len(functions["h"].get("params", [])) >= 1,
                    "sweeping 's' needs functions.h as a catalog family with a parameter",
                    "axes")
        scenario["axes"] = axes

    return scenario


# --------------------------------------------------------------------------
# Command execution
# --------------------------------------------------------------------------

def _item(kind: str, record, **head) -> dict:
    """The report item of a result record: ``kind`` and ``head``, then the
    record's fields in declaration order.  A field that is None is left
    out, a tuple becomes a list and a dict is copied; a None record adds no
    fields."""
    item = {"kind": kind, **head}
    for name, value in vars(record).items() if record is not None else ():
        if value is None:
            continue
        if type(value) is tuple:
            value = list(value)
        elif type(value) is dict:
            value = dict(value)
        item[name] = value
    return item


def _run_theorem(scenario: dict, functions: dict, axes: dict) -> dict:
    """The verdict, or the weight moments, of the scenario's theorem, with
    any m, x and y in ``axes`` in place of the scenario's."""
    tol = scenario["tolerances"]
    if scenario["theorem"] == MOMENTS_ID:
        h = functions["h"]
        item = {"kind": "h_moments", "h": h.label}
        for name, moment in zip(MOMENTS, h_moments(h, tol["quad"])):
            item[name] = {"value": moment.value, "abs_err": moment.abs_err,
                          "indeterminate": moment.indeterminate}
        return item
    points = scenario["points"]
    verdict = verify(
        scenario["theorem"], functions.get("f"), g=functions.get("g"), h=functions.get("h"),
        m=axes.get("m", scenario["m"]), phi=functions.get("phi"),
        x=axes.get("x", points["x"]), y=axes.get("y", points["y"]),
        quad_tol=tol["quad"], report_tol=tol["report"],
    )
    return _item("verdict", verdict)


def _run_class(scenario: dict) -> dict:
    """Certify f in the scenario's class, or search for a counterexample.

    Every given h, m and phi goes to ``class_spec``, which rejects one that
    the class pins to another value."""
    functions = _build_functions(scenario["functions"])
    tag = scenario["class"]
    spec = class_spec(tag, functions.get("h"), scenario["m"], functions.get("phi"),
                      bound=scenario["domain"][1])
    tol = scenario["tolerances"]["counterexample"]
    if scenario["command"] == "certify":
        report = certify_sampled(functions["f"], spec, n=scenario["n"], seed=scenario["seed"],
                                 tol=tol)
        return _item("certification", report, **{"class": tag})
    stats: dict[str, int] = {}
    witness = falsify(functions["f"], spec, budget=scenario["budget"], seed=scenario["seed"],
                      tol=tol, stats_out=stats)
    return _item("counterexample", witness, **{"class": tag}, found=witness is not None,
                 probes_ok=stats["probes_ok"], probes_skipped=stats["probes_skipped"])


def _run_reduce(scenario: dict) -> dict:
    probes = [{**entry, **_build_functions(entry)} for entry in scenario["probes"]]
    tol = scenario["tolerances"]
    report = check_reduction(scenario["pair"], probes,
                             quad_tol=tol["quad"], report_tol=tol["report"])
    return _item("reduction", report)


def _run_sweep(scenario: dict) -> list[dict]:
    """Run the grid's cells in declared row-major order.

    f, g and phi are built once.  h is built once per distinct value of s
    (the first parameter of its family), told apart by its sign too, since
    0.0 == -0.0, inside the cell, so that a weight that cannot be built is
    that cell's error.
    """
    specs = scenario["functions"]
    functions = _build_functions({role: spec for role, spec in specs.items() if role != "h"})
    weights: dict = {}
    params = [axis["param"] for axis in scenario["axes"]]
    grid = itertools.product(*(axis["values"] for axis in scenario["axes"]))
    cells = []
    for index, combo in enumerate(grid):
        axes = dict(zip(params, combo))
        s = axes.get("s")
        key = s if s is None else (s, math.copysign(1.0, s))
        try:
            if "h" in specs and key not in weights:
                spec = specs["h"]
                if s is not None:
                    spec = {**spec, "params": [s, *spec["params"][1:]]}
                weights[key] = _build_function(spec)
            result = _run_theorem(scenario, {**functions, "h": weights.get(key)}, axes)
        except GenConvexError as exc:
            result = {"kind": "error", "error": f"{type(exc).__name__}: {exc}"}
        cells.append({"kind": "cell", "cell_index": index, "axes": axes, "result": result})
    return cells


def _cell_csv_rows(name: str, cell: dict, params: list[str]) -> list[list[str]]:
    axis_values = [format_float(cell["axes"][p]) for p in params]
    prefix = [name, str(cell["cell_index"])] + axis_values
    result = cell["result"]
    if result["kind"] == "verdict":
        return [prefix + [
            result["theorem_id"],
            format_float(result["lhs"]),
            format_float(result["rhs"]),
            format_float(result["margin"]),
            format_float(result["quad_err"]),
            result["status"],
        ]]
    if result["kind"] == "h_moments":
        rows = []
        for key in MOMENTS:
            moment = result[key]
            status = "indeterminate" if moment["indeterminate"] else "pass"
            value = format_float(moment["value"])
            rows.append(prefix + [
                f"h_{key}", value, value, format_float(0.0),
                format_float(moment["abs_err"]), status,
            ])
        return rows
    return [prefix + ["error", "nan", "nan", "nan", "nan", "error"]]


def write_sweep_csv(report: dict, path: str) -> None:
    scenario = report["scenario"]
    params = [axis["param"] for axis in scenario["axes"]]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["scenario", "cell_index", *params, *CSV_FIXED_COLUMNS])
        for cell in report["items"]:
            for row in _cell_csv_rows(scenario["name"], cell, params):
                writer.writerow(row)


# --------------------------------------------------------------------------
# Report assembly
# --------------------------------------------------------------------------

def _outcome(item: dict) -> tuple[int, str]:
    """The exit status that ``item`` alone would give, and its text tag."""
    kind = item["kind"]
    if kind == "cell":
        return _outcome(item["result"])
    if kind == "error":
        return EXIT_USAGE, "ERROR"
    if kind == "verdict":
        return _VERDICT_OUTCOMES[item["status"]], item["status"].upper()
    if kind == "h_moments":
        if any(item[k]["indeterminate"] for k in MOMENTS):
            return EXIT_INDETERMINATE, "INDETERMINATE"
        return EXIT_OK, "MOMENTS"
    if kind == "reduction":
        if item["indeterminate"]:
            return EXIT_INDETERMINATE, "INDETERMINATE"
        return (EXIT_OK, "AGREE") if item["passed"] else (EXIT_FOUND, "DISAGREE")
    if kind == "counterexample":
        return (EXIT_FOUND, "FOUND") if item["found"] else (EXIT_OK, "NONE")
    # certification
    return (EXIT_OK, "CERTIFIED") if item["certified"] else (EXIT_FOUND, "NOT CERTIFIED")


def _exit_status(items: list[dict]) -> int:
    """Usage errors win, then failures, then indeterminate results."""
    outcomes = {_outcome(item)[0] for item in items}
    for status in (EXIT_USAGE, EXIT_FOUND, EXIT_INDETERMINATE):
        if status in outcomes:
            return status
    return EXIT_OK


def run_scenario(scenario: dict, jobs: int = 1) -> dict:
    """Execute a normalized scenario and return the machine report object.

    ``jobs`` is ignored: sweep cells run serially.  The keyword stays only
    because the benchmark's ``bench/workloads.py::run_cli`` passes it.
    """
    command = scenario["command"]
    notes = []
    if scenario.get("class") == "phi_convex":
        notes.append(_PHI_CONVEX_NOTE)
    if command == "verify":
        items = [_run_theorem(scenario, _build_functions(scenario["functions"]), {})]
    elif command in ("certify", "falsify"):
        items = [_run_class(scenario)]
    elif command == "reduce":
        items = [_run_reduce(scenario)]
    else:
        items = _run_sweep(scenario)
    return {
        "tool": "genconvex",
        "version": __version__,
        "scenario": scenario,
        "notes": notes,
        "items": items,
        "exit_status": _exit_status(items),
    }


def _render_item_text(item: dict, lines: list[str]) -> None:
    kind = item["kind"]
    if kind == "cell":
        axes = ", ".join(f"{k}={format_float(v)}" for k, v in item["axes"].items())
        lines.append(f"  cell {item['cell_index']} ({axes}):")
        _render_item_text(item["result"], lines)
        return
    tag = f"  [{_outcome(item)[1]:13s}] "
    if kind == "verdict":
        lines.append(
            f"{tag}{item['theorem_id']}: "
            f"lhs={format_float(item['lhs'])} rhs={format_float(item['rhs'])} "
            f"margin={format_float(item['margin'])} quad_err={format_float(item['quad_err'])}"
        )
        if "mean" in item:
            lines.append(
                f"                  mean={format_float(item['mean'])} "
                f"margin_lower={format_float(item['margin_lower'])} "
                f"margin_upper={format_float(item['margin_upper'])}"
            )
        for note in item["notes"]:
            lines.append(f"                  note: {note}")
    elif kind == "counterexample":
        if item["found"]:
            lines.append(
                f"{tag}counterexample for class {item['class']}: "
                f"(x, y, t)=({format_float(item['x'])}, {format_float(item['y'])}, "
                f"{format_float(item['t'])}) defect={format_float(item['defect'])}"
            )
        else:
            lines.append(
                f"{tag}no counterexample for class {item['class']} "
                f"({item['probes_ok']} probes, {item['probes_skipped']} skipped)"
            )
    elif kind == "certification":
        argmin = ", ".join(format_float(v) for v in item["argmin"])
        lines.append(
            f"{tag}class {item['class']}: min_defect="
            f"{format_float(item['min_defect'])} at ({argmin}); "
            f"{item['samples_ok']} probes, {item['samples_skipped']} skipped"
        )
        lines.append(f"                  note: {item['note']}")
    elif kind == "reduction":
        lines.append(
            f"{tag}{item['pair']} over {item['probes']} probes: "
            f"max|dLHS|={format_float(item['max_dev_lhs'])} "
            f"max|dRHS|={format_float(item['max_dev_rhs'])} "
            f"allowance={format_float(item['max_allowance'])}"
        )
    elif kind == "h_moments":
        lines.append(
            f"{tag}h={item['h']}: m1={format_float(item['m1']['value'])} "
            f"m2={format_float(item['m2']['value'])} mx={format_float(item['mx']['value'])}"
        )
    else:  # error
        lines.append(f"{tag}{item['error']}")


def render_text(report: dict, wall_time: float) -> str:
    scenario = report["scenario"]
    lines = [
        f"genconvex {report['version']} — scenario '{scenario['name']}' "
        f"({scenario['command']})",
    ]
    for note in report["notes"]:
        lines.append(f"  note: {note}")
    for item in report["items"]:
        _render_item_text(item, lines)
    lines.append(
        f"exit status {report['exit_status']} — wall time {wall_time:.3f}s"
    )
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def _add_common_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("scenario", help="path to the scenario JSON file")
    sub.add_argument("--out", help="also write the machine-format report to this file")
    sub.add_argument("--format", choices=("text", "machine"), default="text",
                     help="stdout format (default text)")
    sub.add_argument("--seed", type=int, default=None, help="override scenario seed")
    sub.add_argument("--tol-quad", type=float, default=None,
                     help="override quadrature tolerance")
    sub.add_argument("--tol-report", type=float, default=None,
                     help="override report tolerance")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genconvex",
        description="Generalized-convexity certification and inequality verification.",
    )
    parser.add_argument("--version", action="version", version=f"genconvex {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    run_p = subs.add_parser("run", help="execute the command a scenario file declares")
    _add_common_options(run_p)
    sweep_p = subs.add_parser("sweep", help="run a scenario as a parameter sweep")
    _add_common_options(sweep_p)
    sweep_p.add_argument("--csv", help="write one CSV row per sweep cell to this file")
    falsify_p = subs.add_parser("falsify", help="run a scenario as a counterexample search")
    _add_common_options(falsify_p)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    started = time.monotonic()
    try:
        raw = load_scenario(args.scenario)
        if args.subcommand != "run":
            raw = {**raw, "command": args.subcommand}
        if args.seed is not None:
            raw = {**raw, "seed": args.seed}
        overrides = {"quad": args.tol_quad, "report": args.tol_report}
        overrides = {key: value for key, value in overrides.items() if value is not None}
        tolerances = raw.get("tolerances", {})
        # tolerances that are not an object are left for normalize_scenario to reject
        if overrides and isinstance(tolerances, dict):
            raw = {**raw, "tolerances": {**tolerances, **overrides}}
        scenario = normalize_scenario(raw)
        report = run_scenario(scenario)
    except ScenarioError as exc:
        print(f"genconvex: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GenConvexError as exc:
        print(f"genconvex: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE

    machine = dump_machine(report) if args.out or args.format == "machine" else None
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(machine)
        if getattr(args, "csv", None):
            write_sweep_csv(report, args.csv)
    except OSError as exc:
        print(f"genconvex: error: cannot write output file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "machine":
        sys.stdout.write(machine)
    else:
        sys.stdout.write(render_text(report, time.monotonic() - started))
    return report["exit_status"]


if __name__ == "__main__":
    sys.exit(main())
