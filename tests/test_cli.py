import collections
import copy
import dataclasses
import gc
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from genconvex.cli import (
    dump_machine,
    format_float,
    load_scenario,
    main,
    normalize_scenario,
    run_scenario,
    write_sweep_csv,
)
from genconvex import __version__, cli, funcdsl, quad, theorems
from genconvex.errors import CatalogError, GenConvexError, ScenarioError
from genconvex.funcdsl import catalog
from genconvex.theorems import BACKGROUND_IDS, MAIN_IDS


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


VERIFY_SCENARIO = {
    "name": "t2_2dot-square",
    "command": "verify",
    "theorem": "T2_2dot",
    "functions": {"f": "x^2", "h": "t"},
    "m": 1.0,
    "points": {"x": 0.0, "y": 1.0},
    "seed": 0,
}

FALSIFY_SCENARIO = {
    "name": "sqrt-vs-convex",
    "command": "falsify",
    "class": "convex",
    "functions": {"f": "sqrt(x)"},
    "budget": 10_000,
    "seed": 42,
}

CERTIFY_SCENARIO = {
    "name": "square-is-convex",
    "command": "certify",
    "class": "convex",
    "functions": {"f": {"family": "power", "params": [2]}},
    "n": 2_000,
    "seed": 0,
}

REDUCE_SCENARIO = {
    "name": "t2_2dot-reduces",
    "command": "reduce",
    "pair": "T2_2dot_vs_T1_9",
    "probes": [
        {"f": "x^2", "h": "t", "x": 0.0, "y": 1.0},
        {"f": "x", "h": "t", "x": 0.1, "y": 0.9},
    ],
}

SWEEP_SCENARIO = {
    "name": "m-sweep",
    "command": "sweep",
    "theorem": "T2_2",
    "functions": {"f": {"family": "identity"}, "h": {"family": "identity"}},
    "points": {"x": 0.0, "y": 1.0},
    "axes": [{"param": "m", "values": [0.25, 0.5, 0.75, 1.0]}],
}

MOMENTS_SWEEP = {
    "name": "s-sweep",
    "command": "sweep",
    "theorem": "H_MOMENTS",
    "functions": {"h": {"family": "power", "params": [1]}},
    "axes": [{"param": "s", "values": [0.5, 1.0, 2.0]}],
}


class TestSchema:
    def test_empty_scenario(self, tmp_path, capsys):
        path = write_json(tmp_path, "empty.json", {})
        assert main(["run", path]) == 2
        assert "missing field: command" in capsys.readouterr().err

    def test_bad_command(self):
        with pytest.raises(ScenarioError):
            normalize_scenario({"name": "x", "command": "prove"})

    def test_missing_theorem(self):
        with pytest.raises(ScenarioError) as err:
            normalize_scenario({"name": "x", "command": "verify"})
        assert "theorem" in str(err.value)

    def test_missing_function(self):
        raw = {**VERIFY_SCENARIO, "functions": {"f": "x^2"}}
        with pytest.raises(ScenarioError) as err:
            normalize_scenario(raw)
        assert "functions.h" in str(err.value)

    def test_unparseable_function(self):
        raw = copy.deepcopy(VERIFY_SCENARIO)
        raw["functions"]["f"] = "x +* 2"
        with pytest.raises(ScenarioError):
            normalize_scenario(raw)

    def test_unknown_family(self):
        raw = copy.deepcopy(CERTIFY_SCENARIO)
        raw["functions"]["f"] = {"family": "bspline"}
        with pytest.raises(ScenarioError):
            normalize_scenario(raw)

    def test_unknown_function_role(self):
        raw = copy.deepcopy(VERIFY_SCENARIO)
        raw["functions"]["w"] = "t"
        with pytest.raises(ScenarioError):
            normalize_scenario(raw)

    def test_bad_modulus(self):
        with pytest.raises(ScenarioError):
            normalize_scenario({**VERIFY_SCENARIO, "m": 0.0})
        with pytest.raises(ScenarioError):
            normalize_scenario({**VERIFY_SCENARIO, "m": 2.0})

    def test_sweep_needs_axes(self):
        raw = {k: v for k, v in SWEEP_SCENARIO.items() if k != "axes"}
        with pytest.raises(ScenarioError):
            normalize_scenario(raw)

    def test_sweep_cap(self):
        raw = copy.deepcopy(SWEEP_SCENARIO)
        raw["axes"] = [
            {"param": "m", "values": [i / 500.0 + 0.001 for i in range(400)]},
            {"param": "x", "values": list(range(300))},
        ]
        with pytest.raises(ScenarioError) as err:
            normalize_scenario(raw)
        assert "cap" in str(err.value)

    @pytest.mark.parametrize("axis", [
        {"param": "m", "values": [0.5, 1.5]},
        {"param": "m", "values": [-0.5]},
        {"param": "m", "values": [0.0, 1.0]},
        {"param": "m", "start": 0.5, "stop": 1.5, "step": 0.5},
    ])
    def test_sweep_m_values_must_lie_in_unit_interval(self, axis):
        raw = copy.deepcopy(SWEEP_SCENARIO)
        raw["axes"] = [{"param": "x", "values": [0.0]}, axis]
        with pytest.raises(ScenarioError) as err:
            normalize_scenario(raw)
        assert err.value.field == "axes[1].values"
        assert "(0, 1]" in str(err.value)

    def test_sweep_axes_must_name_distinct_params(self):
        raw = copy.deepcopy(SWEEP_SCENARIO)
        raw["axes"] = [
            {"param": "x", "values": [0.0]},
            {"param": "m", "values": [0.5, 0.75]},
            {"param": "m", "values": [1.0]},
        ]
        with pytest.raises(ScenarioError) as err:
            normalize_scenario(raw)
        assert err.value.field == "axes[2].param"
        assert str(err.value) == "axis 2 param m is already swept by an earlier axis"

    def test_sweep_range_axis(self):
        raw = copy.deepcopy(SWEEP_SCENARIO)
        raw["axes"] = [{"param": "m", "start": 0.25, "stop": 1.0, "step": 0.25}]
        scenario = normalize_scenario(raw)
        assert scenario["axes"][0]["values"] == [0.25, 0.5, 0.75, 1.0]

    def test_param_s_needs_parameterized_family(self):
        raw = copy.deepcopy(MOMENTS_SWEEP)
        raw["functions"]["h"] = "t"
        with pytest.raises(ScenarioError):
            normalize_scenario(raw)

    def test_reduce_probe_validation(self):
        raw = copy.deepcopy(REDUCE_SCENARIO)
        raw["probes"] = [{"h": "t"}]
        with pytest.raises(ScenarioError):
            normalize_scenario(raw)

    def test_class_required_for_certify(self):
        raw = {k: v for k, v in CERTIFY_SCENARIO.items() if k != "class"}
        with pytest.raises(ScenarioError) as err:
            normalize_scenario(raw)
        assert "class" in str(err.value)

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent/scenario.json"]) == 2

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(ScenarioError):
            load_scenario(str(path))


class TestRun:
    def test_verify_pass(self, tmp_path, capsys):
        path = write_json(tmp_path, "verify.json", VERIFY_SCENARIO)
        assert main(["run", path]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "T2_2dot" in out
        assert "wall time" in out

    def test_verify_machine_fields(self, tmp_path, capsys):
        path = write_json(tmp_path, "verify.json", VERIFY_SCENARIO)
        assert main(["run", path, "--format", "machine"]) == 0
        report = json.loads(capsys.readouterr().out)
        item = report["items"][0]
        assert item["status"] == "pass"
        assert item["lhs"] == pytest.approx(1 / 3, abs=1e-9)
        assert item["rhs"] == 0.5
        assert report["exit_status"] == 0

    def test_points_a_and_b_are_aliases_of_x_and_y(self, tmp_path, capsys):
        plain = {**VERIFY_SCENARIO, "points": {"x": 0.25, "y": 0.75}}
        aliased = {**VERIFY_SCENARIO, "points": {"a": 0.25, "b": 0.75}}
        assert normalize_scenario(aliased) == normalize_scenario(plain)
        reports = []
        for name, raw in (("plain.json", plain), ("aliased.json", aliased)):
            assert main(["run", write_json(tmp_path, name, raw), "--format", "machine"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert '"points": {\n      "x": 0.25,\n      "y": 0.75\n    }' in reports[0]

    def test_verify_fail_exit_code(self, tmp_path):
        raw = copy.deepcopy(VERIFY_SCENARIO)
        raw["functions"]["f"] = "sqrt(x)"
        path = write_json(tmp_path, "fail.json", raw)
        assert main(["run", path]) == 1

    def test_verify_indeterminate_exit_code(self, tmp_path):
        raw = copy.deepcopy(VERIFY_SCENARIO)
        raw["functions"]["h"] = {"family": "recip_power", "params": [1]}
        path = write_json(tmp_path, "indet.json", raw)
        assert main(["run", path]) == 3

    def test_overflowing_integral_is_indeterminate(self, tmp_path, capsys):
        raw = {**VERIFY_SCENARIO, "functions": {"f": "8e307", "h": "t"}, "domain": [0, 3],
               "points": {"x": 0.0, "y": 3.0}}
        path = write_json(tmp_path, "overflow.json", raw)
        assert main(["run", path, "--format", "machine"]) == 3
        item = json.loads(capsys.readouterr().out)["items"][0]
        assert item["status"] == "indeterminate"
        assert item["notes"] == ["IntegrandError: the integral over [0.0, 3.0] overflows the float range"]

    def test_falsify_found_exit_code(self, tmp_path, capsys):
        path = write_json(tmp_path, "falsify.json", FALSIFY_SCENARIO)
        assert main(["run", path]) == 1
        assert "counterexample" in capsys.readouterr().out

    def test_falsify_none_found(self, tmp_path):
        raw = copy.deepcopy(FALSIFY_SCENARIO)
        raw["functions"]["f"] = "x^2"
        path = write_json(tmp_path, "falsify0.json", raw)
        assert main(["run", path]) == 0

    def test_falsify_subcommand_forces_command(self, tmp_path):
        raw = {**FALSIFY_SCENARIO, "command": "certify"}
        path = write_json(tmp_path, "falsify2.json", raw)
        assert main(["falsify", path]) == 1

    def test_certify_pass(self, tmp_path):
        path = write_json(tmp_path, "certify.json", CERTIFY_SCENARIO)
        assert main(["run", path]) == 0

    def test_certify_rejection_is_exit_1(self, tmp_path):
        raw = copy.deepcopy(CERTIFY_SCENARIO)
        raw["functions"]["f"] = "sqrt(x)"
        path = write_json(tmp_path, "certify1.json", raw)
        assert main(["run", path]) == 1

    def test_phi_convex_note_in_header(self, tmp_path, capsys):
        raw = copy.deepcopy(CERTIFY_SCENARIO)
        raw["class"] = "phi_convex"
        path = write_json(tmp_path, "phic.json", raw)
        main(["run", path])
        assert "weights" in capsys.readouterr().out

    def test_reduce(self, tmp_path):
        path = write_json(tmp_path, "reduce.json", REDUCE_SCENARIO)
        assert main(["run", path]) == 0

    def test_out_writes_machine_report(self, tmp_path, capsys):
        path = write_json(tmp_path, "verify.json", VERIFY_SCENARIO)
        out = tmp_path / "report.json"
        main(["run", path, "--out", str(out)])
        capsys.readouterr()
        body = out.read_text(encoding="utf-8")
        assert json.loads(body)["tool"] == "genconvex"

    def test_seed_override_lands_in_echo(self, tmp_path, capsys):
        path = write_json(tmp_path, "falsify.json", FALSIFY_SCENARIO)
        main(["run", path, "--format", "machine", "--seed", "7"])
        report = json.loads(capsys.readouterr().out)
        assert report["scenario"]["seed"] == 7

    def test_tolerance_overrides(self, tmp_path, capsys):
        path = write_json(tmp_path, "verify.json", VERIFY_SCENARIO)
        main(["run", path, "--format", "machine", "--tol-quad", "1e-8", "--tol-report", "1e-7"])
        report = json.loads(capsys.readouterr().out)
        assert report["scenario"]["tolerances"]["quad"] == 1e-8
        assert report["scenario"]["tolerances"]["report"] == 1e-7


class TestClassPins:
    """certify and falsify hand every given h, m and phi to class_spec, so a
    parameter that the class pins is checked by ClassSpec alone."""

    @pytest.mark.parametrize("command", ["certify", "falsify"])
    @pytest.mark.parametrize("tag, given, message", [
        ("convex", {"functions": {"f": "x^2", "h": "t^2"}},
         "tag 'convex' forces h(t)=t, got h=t^2.0"),
        ("h_convex", {"functions": {"f": "x^2", "h": "t"}, "m": 0.5},
         "tag 'h_convex' forces m=1, got m=0.5"),
        ("hm_convex", {"functions": {"f": "x^2", "h": "t", "phi": "x^2"}},
         "tag 'hm_convex' forces phi=identity, got phi=x^2.0"),
    ], ids=["h", "m", "phi"])
    def test_a_pinned_parameter_is_a_usage_error(self, command, tag, given, message, tmp_path,
                                                 capsys):
        raw = {"name": "pinned", "command": command, "class": tag, "n": 200, "budget": 400,
               **given}
        assert main(["run", write_json(tmp_path, "pinned.json", raw)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"genconvex: error: CatalogError: {message}\n"

    @pytest.mark.parametrize("command", ["certify", "falsify"])
    @pytest.mark.parametrize("tag", ["convex", "m_convex", "phi_convex"])
    def test_identity_spellings_give_the_report_of_no_binding(self, command, tag):
        def report(**functions):
            raw = {"name": "identity", "command": command, "class": tag, "n": 300,
                   "budget": 600, "seed": 3, "functions": {"f": "sqrt(x)", **functions}}
            result = run_scenario(normalize_scenario(raw))
            del result["scenario"]  # the echo names the bindings
            return dump_machine(result)

        expected = report()
        spellings = [{"h": "t"}, {"h": {"family": "identity"}},
                     {"h": {"family": "power", "params": [1]}}]
        if tag != "phi_convex":  # phi_convex frees phi: x is then just a given phi
            spellings.append({"phi": "x"})
        for functions in spellings:
            assert report(**functions) == expected, functions


class TestSweep:
    def test_margin_zero_for_every_modulus(self, tmp_path, capsys):
        path = write_json(tmp_path, "sweep.json", SWEEP_SCENARIO)
        csv_path = tmp_path / "rows.csv"
        assert main(["sweep", path, "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text(encoding="utf-8").split("\n")
        assert lines[0] == "scenario,cell_index,m,theorem_id,lhs,rhs,margin,quad_err,status"
        rows = [line.split(",") for line in lines[1:] if line]
        assert len(rows) == 4
        # oracle: the two averages of f(u) = u are (m*x+y)/2 and (x+m*y)/2,
        # so lhs = (x+y)/2 = 1/2 = rhs for every m
        for row in rows:
            assert abs(float(row[4]) - 0.5) <= 1e-9
            assert abs(float(row[6])) <= 1e-9
            assert row[8] == "pass"

    def test_csv_floats_have_17_significant_digits(self, tmp_path):
        path = write_json(tmp_path, "sweep.json", SWEEP_SCENARIO)
        csv_path = tmp_path / "rows.csv"
        main(["sweep", path, "--csv", str(csv_path)])
        body = csv_path.read_text(encoding="utf-8")
        assert "\r" not in body  # LF endings
        third = body.split("\n")[1].split(",")
        # every float column round-trips exactly through its printed form
        for cell in (third[2], third[4], third[5], third[6], third[7]):
            assert format_float(float(cell)) == cell

    def test_moments_sweep_first_moment_column(self, tmp_path, capsys):
        path = write_json(tmp_path, "moments.json", MOMENTS_SWEEP)
        csv_path = tmp_path / "rows.csv"
        assert main(["sweep", path, "--csv", str(csv_path)]) == 0
        rows = [
            line.split(",")
            for line in csv_path.read_text(encoding="utf-8").split("\n")[1:]
            if line
        ]
        m1_rows = [row for row in rows if row[3] == "h_m1"]
        values = [float(row[4]) for row in m1_rows]
        # oracle: int t^s dt = 1/(s+1)
        assert values == pytest.approx([2 / 3, 1 / 2, 1 / 3], abs=1e-10)

    def test_single_cell_sweep_matches_run(self, tmp_path, capsys):
        single = copy.deepcopy(SWEEP_SCENARIO)
        single["axes"] = [{"param": "m", "values": [0.5]}]
        path = write_json(tmp_path, "single.json", single)
        main(["run", path, "--format", "machine"])
        sweep_report = json.loads(capsys.readouterr().out)

        plain = {k: v for k, v in SWEEP_SCENARIO.items() if k != "axes"}
        plain["command"] = "verify"
        plain["m"] = 0.5
        path2 = write_json(tmp_path, "plain.json", plain)
        main(["run", path2, "--format", "machine"])
        run_report = json.loads(capsys.readouterr().out)

        cell = sweep_report["items"][0]["result"]
        verdict = run_report["items"][0]
        for key in ("theorem_id", "lhs", "rhs", "margin", "status"):
            assert cell[key] == verdict[key]

    def test_a_weight_exponent_of_minus_zero_is_its_own_weight(self):
        # 0.0 == -0.0, so the weight built for one must not serve the other
        def weights(values):
            report = run_scenario(normalize_scenario({
                "name": "zero", "command": "sweep", "theorem": "T2_2dot",
                "functions": {"f": "x^2", "h": {"family": "power", "params": [1]}},
                "points": {"x": 0.0, "y": 1.0}, "axes": [{"param": "s", "values": values}],
            }))
            return [cell["result"]["inputs"]["h"] for cell in report["items"]]

        assert weights([0.0, -0.0]) == ["power(0.0)", "power(-0.0)"]
        assert weights([-0.0, 0.0]) == ["power(-0.0)", "power(0.0)"]
        assert weights([-0.0]) == ["power(-0.0)"]

    @pytest.mark.parametrize("subcommand", ["run", "sweep"])
    def test_jobs_flag_is_a_usage_error(self, subcommand, tmp_path, capsys):
        path = write_json(tmp_path, "sweep.json", SWEEP_SCENARIO)
        for value in ("1", "4"):
            with pytest.raises(SystemExit) as done:
                main([subcommand, path, "--format", "machine", "--jobs", value])
            assert done.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.endswith(f"error: unrecognized arguments: --jobs {value}\n")

    def test_csv_row_of_an_error_cell(self, tmp_path, capsys):
        raw = {"name": "errsweep", "command": "sweep", "theorem": "T2_2dot",
               "functions": {"f": "x^2", "h": "t"}, "points": {"x": 0.0, "y": 1.0},
               "axes": [{"param": "x", "values": [0.0, 1.5]}]}
        out = tmp_path / "rows.csv"
        assert main(["sweep", write_json(tmp_path, "sweep.json", raw), "--csv", str(out)]) == 2
        capsys.readouterr()
        assert out.read_text(encoding="utf-8").splitlines()[2] == \
            "errsweep,1,1.5,error,nan,nan,nan,nan,error"

    def test_csv_needs_sweep(self, tmp_path, capsys):
        path = write_json(tmp_path, "verify.json", VERIFY_SCENARIO)
        assert main(["sweep", path]) == 2  # verify scenario lacks axes


class TestErrorEmbedding:
    def test_sweep_embeds_per_cell_errors(self, tmp_path, capsys):
        raw = copy.deepcopy(SWEEP_SCENARIO)
        raw["theorem"] = "T2_2dot"
        # the last x value breaks the orientation precondition (x >= y)
        raw["axes"] = [{"param": "x", "values": [0.0, 0.5, 1.0]}]
        path = write_json(tmp_path, "bad_cell.json", raw)
        assert main(["run", path, "--format", "machine"]) == 2
        report = json.loads(capsys.readouterr().out)
        kinds = [cell["result"]["kind"] for cell in report["items"]]
        assert kinds == ["verdict", "verdict", "error"]
        assert "Orientation" in report["items"][2]["result"]["error"]

    def test_vanishing_half_weight_is_usage_error(self, tmp_path, capsys):
        raw = {"name": "t1_9-vanishing", "command": "verify", "theorem": "T1_9",
               "functions": {"f": "x^2", "h": "abs(t - 0.5)"}}
        assert main(["run", write_json(tmp_path, "t1_9.json", raw)]) == 2
        err = capsys.readouterr().err
        assert "WeightError" in err
        assert "need h(1/2) > 0" in err

    def test_vanishing_half_weight_is_a_sweep_error_cell(self, tmp_path, capsys):
        # h(t) = s + t vanishes at 1/2 for s = -0.5
        raw = {"name": "t1_9-vanishing-sweep", "command": "sweep", "theorem": "T1_9",
               "functions": {"f": "x^2", "h": {"family": "affine", "params": [0.0, 1.0]}},
               "axes": [{"param": "s", "values": [0.0, -0.5]}]}
        assert main(["run", write_json(tmp_path, "t1_9.json", raw), "--format", "machine"]) == 2
        report = json.loads(capsys.readouterr().out)
        results = [cell["result"] for cell in report["items"]]
        assert [result["kind"] for result in results] == ["verdict", "error"]
        assert results[0]["status"] == "pass"
        assert results[1]["error"].startswith("WeightError: lower bound divides by h(1/2)")

    def test_precondition_violation_is_usage_error(self, tmp_path, capsys):
        raw = copy.deepcopy(VERIFY_SCENARIO)
        raw["points"] = {"x": 1.0, "y": 0.5}
        path = write_json(tmp_path, "orient.json", raw)
        assert main(["run", path]) == 2
        assert "Orientation" in capsys.readouterr().err


# the functions each bound needs, written out here rather than read from
# the bound table, so a wrong table row fails this test
_BOUND_ROLES = {
    "T2_1": ("f", "h"), "T2_2dot": ("f", "h"), "T2_2": ("f", "h"), "T2_3": ("f", "g", "h"),
    "HC": ("f",), "T1_9": ("f", "h"), "T1_11": ("f", "h"), "T1_13": ("f", "h"),
    "T1_14": ("f", "g", "h"),
}


@pytest.mark.parametrize("theorem", MAIN_IDS + BACKGROUND_IDS)
def test_every_bound_runs_from_the_cli(theorem, tmp_path, capsys):
    roles = _BOUND_ROLES[theorem]
    exprs = {"f": "x^2", "g": "x", "h": "t"}
    raw = {"name": f"reach-{theorem}", "command": "verify", "theorem": theorem,
           "functions": {role: exprs[role] for role in roles},
           "m": 0.8, "points": {"x": 0.1, "y": 0.9}}
    assert main(["run", write_json(tmp_path, "full.json", raw), "--format", "machine"]) == 0
    item = json.loads(capsys.readouterr().out)["items"][0]
    assert (item["kind"], item["theorem_id"], item["status"]) == ("verdict", theorem, "pass")
    for role in roles:
        dropped = {**raw, "functions": {r: e for r, e in raw["functions"].items() if r != role}}
        assert main(["run", write_json(tmp_path, f"no-{role}.json", dropped)]) == 2
        assert f"missing field: functions.{role}" in capsys.readouterr().err


_SAMPLE_DIR = Path(__file__).resolve().parent.parent / "scenarios"
_GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "name,expected_exit",
    [
        ("verify_t2_2dot.json", 0),
        ("falsify_sqrt.json", 1),
        ("falsify_bump.json", 1),
        ("certify_square_hm.json", 0),
        ("reduce_all_pairs.json", 0),
        ("sweep_weight_exponent.json", 0),
        ("sweep_t2_3_m_x_s.json", 1),
        ("verify_t2_1_singular_weight.json", 0),
    ],
)
def test_sample_scenarios(name, expected_exit, capsys):
    assert main(["run", str(_SAMPLE_DIR / name)]) == expected_exit
    capsys.readouterr()


def _reference_fragment(obj, indent, out):
    """The machine-format emitter as first written, one branch per type:
    the reference that ``dump_machine`` must match byte for byte."""
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append("%.17g" % obj if math.isfinite(obj) else "null")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(pad + "  " + json.dumps(str(key)) + ": ")
            _reference_fragment(value, indent + 1, out)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad + "  ")
            _reference_fragment(value, indent + 1, out)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _reference_dump(obj):
    out = []
    _reference_fragment(obj, 0, out)
    out.append("\n")
    return "".join(out)


# quotes, backslashes, control characters, non-ASCII and astral characters,
# then anything else hypothesis draws
_REPORT_TEXT = st.text(st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", " ", "\U0001f600"]),
    st.characters(),
), max_size=8)
_REPORT_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310, 1e308]),
    st.floats(),
)
_REPORT_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=2**63, max_value=2**200), st.integers(max_value=-2**63 - 1),
    _REPORT_FLOATS, _REPORT_TEXT,
)
_REPORT_TREES = st.recursive(
    _REPORT_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(_REPORT_TEXT, st.integers()), children, max_size=4),
    ),
    max_leaves=30,
)


class TestParseOnce:
    @pytest.fixture
    def parses(self, monkeypatch):
        """Records each expression the DSL parser reads, from a cold memo of
        built functions."""
        texts = []
        climb = funcdsl._climb

        def counting(tokens, pos, variable, min_level, depth):
            if depth == 0:  # the outermost call, one per parse
                texts.append(("".join(token[1] for token in tokens), variable))
            return climb(tokens, pos, variable, min_level, depth)

        monkeypatch.setattr(funcdsl, "_climb", counting)
        return texts

    def test_a_verify_scenario_parses_each_binding_once(self, parses):
        raw = {"name": "four-bindings", "command": "verify", "theorem": "T2_3",
               "functions": {"f": "x^2 + 0.5*x", "g": "exp(x)", "h": "t^0.8", "phi": "x^1.5"},
               "m": 0.8, "points": {"x": 0.1, "y": 0.9}}
        run_scenario(normalize_scenario(raw))
        assert len(parses) == 4 and len(set(parses)) == 4

    def test_a_reduce_scenario_parses_each_distinct_binding_once(self, parses):
        run_scenario(normalize_scenario(copy.deepcopy(REDUCE_SCENARIO)))
        assert sorted(parses) == [("t", "t"), ("x", "x"), ("x^2", "x")]

    def test_a_binding_that_does_not_parse_fails_alike_every_time(self, parses):
        raw = copy.deepcopy(VERIFY_SCENARIO)
        raw["functions"]["f"] = "x^"
        for _ in range(2):
            with pytest.raises(ScenarioError) as err:
                normalize_scenario(raw)
            assert str(err.value) == (
                "field functions.f.expr does not parse: unexpected end of input (byte offset 2)")
        assert len(parses) == 2


class TestFunctionMemo:
    """Every binding is built through one process-wide memo of FuncDefs,
    whose key holds the sign of each param and domain end."""

    EXPR = {"expr": "x^2 + 1", "variable": "x", "domain": [0.0, 1.0]}
    FAMILY = {"family": "affine", "params": [0.5, 2.0], "domain": [0.0, 1.0]}

    @pytest.fixture
    def builds(self, monkeypatch):
        """Records each binding the memo builds."""
        built = []
        for name in ("func_from_expr", "catalog"):
            def counting(*args, _build=getattr(cli, name)):
                built.append(args)
                return _build(*args)
            monkeypatch.setattr(cli, name, counting)
        return built

    @pytest.mark.parametrize("spec", [EXPR, FAMILY], ids=["expr", "family"])
    def test_equal_specs_give_the_same_function(self, spec, builds):
        function = cli._build_function(copy.deepcopy(spec))
        assert cli._build_function(copy.deepcopy(spec)) is function
        assert len(builds) == 1

    def test_a_scenario_runs_the_functions_its_validation_built(self, builds):
        raw = {"name": "four-bindings", "command": "verify", "theorem": "T2_3",
               "functions": {"f": "x^2 + 0.5*x", "g": {"family": "affine", "params": [0.3, 0.5]},
                             "h": "t^0.8", "phi": {"family": "power", "params": [1.5]}},
               "m": 0.8, "points": {"x": 0.1, "y": 0.9}}
        scenario = normalize_scenario(raw)
        assert len(builds) == 4
        report = run_scenario(scenario)
        assert len(builds) == 4
        assert report["items"][0]["status"] == "pass"

    @pytest.mark.parametrize("positive, negative", [
        ({"family": "constant", "params": [0.0]}, {"family": "constant", "params": [-0.0]}),
        ({"family": "affine", "params": [1.0, 0.0]}, {"family": "affine", "params": [1.0, -0.0]}),
        ({"family": "poly", "params": [0.0, 0.0, 1.0]}, {"family": "poly", "params": [0.0, -0.0, 1.0]}),
    ], ids=["constant", "affine-slope", "poly-middle"])
    def test_a_param_of_minus_zero_gives_its_own_function(self, positive, negative):
        for first, second in ((positive, negative), (negative, positive)):
            cli._memoised_function.cache_clear()
            a = cli._build_function({**first, "domain": [0.0, 1.0]})
            b = cli._build_function({**second, "domain": [0.0, 1.0]})
            assert a is not b and a.label != b.label
            for function, spec in ((a, first), (b, second)):
                assert function.label == catalog(spec["family"], spec["params"]).label

    @pytest.mark.parametrize("spec, domain, other", [
        ({"expr": "x^2", "variable": "x"}, [0.0, 1.0], [-0.0, 1.0]),
        ({"expr": "x^2", "variable": "x"}, [-1.0, 0.0], [-1.0, -0.0]),
        ({"family": "identity", "params": []}, [0.0, 1.0], [-0.0, 1.0]),
        ({"family": "power", "params": [2.0]}, [-0.0, 1.0], [0.0, 1.0]),
    ], ids=["expr-lo", "expr-hi", "identity-lo", "power-lo"])
    def test_a_domain_end_of_minus_zero_gives_its_own_function(self, spec, domain, other):
        a = cli._build_function({**spec, "domain": domain})
        b = cli._build_function({**spec, "domain": other})
        assert a is not b
        assert [end.hex() for end in a.domain] == [end.hex() for end in domain]
        assert [end.hex() for end in b.domain] == [end.hex() for end in other]

    @pytest.mark.parametrize("binding, message, field", [
        ({"family": "power", "params": [1], "domain": [-2, -1]},
         "field functions.f: requested interval [-2.0, -1.0] does not meet the natural domain "
         "of power", "functions.f"),
        ("x^", "field functions.f.expr does not parse: unexpected end of input (byte offset 2)",
         "functions.f.expr"),
    ], ids=["family", "expr"])
    def test_a_binding_that_fails_to_build_raises_afresh(self, builds, binding, message, field):
        raw = copy.deepcopy(VERIFY_SCENARIO)
        raw["functions"]["f"] = binding
        for attempt in range(1, 4):
            with pytest.raises(ScenarioError) as err:
                normalize_scenario(raw)
            assert (str(err.value), err.value.field) == (message, field)
            assert len(builds) == attempt
        assert cli._memoised_function.cache_info().currsize == 0

    def test_the_memo_holds_at_most_32_functions(self, builds):
        specs = [{"family": "constant", "params": [float(k)], "domain": [0.0, 1.0]}
                 for k in range(40)]
        functions = [cli._build_function(spec) for spec in specs]
        info = cli._memoised_function.cache_info()
        assert (info.maxsize, info.currsize) == (32, 32)
        assert [cli._build_function(spec) for spec in specs[-32:]] == functions[-32:]
        assert len(builds) == 40  # the 32 most recent are held
        assert cli._build_function(specs[0]) is not functions[0]
        assert len(builds) == 41  # the oldest was dropped


def _row_major_sweep(scenario: dict) -> list[dict]:
    """The sweep runner as it was before cells ran weight by weight: every
    cell in declared row-major order, each weight built once per sweep.  The
    reference whose reports, CSV and exit status ``cli._run_sweep`` must
    match byte for byte."""
    specs = scenario["functions"]
    cell_item = cli._theorem_cells(
        scenario, cli._build_functions({role: spec for role, spec in specs.items() if role != "h"}))
    weights = {}
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
                weights[key] = cli._build_function(spec)
            result = cell_item(weights.get(key), axes)
        except GenConvexError as exc:
            result = {"kind": "error", "error": f"{type(exc).__name__}: {exc}"}
        cells.append({"kind": "cell", "cell_index": index, "axes": axes, "result": result})
    return cells


def _weight_sweep(theorem, s_values, **extra):
    return {"name": f"weights-{theorem}", "command": "sweep", "theorem": theorem,
            "functions": {"f": "x^2 + 1", "h": {"family": "power", "params": [1]}},
            "points": {"x": 0.0, "y": 1.0},
            "axes": [{"param": "m", "values": [0.5, 1.0]},
                     {"param": "x", "values": [0.0, 0.25, 1.0]},
                     {"param": "s", "values": s_values}], **extra}


_MIXED_WEIGHTS = [0.5, 1.5, -0.0, 2.0, 0.0, 0.5, 1.5, 1.0]


@pytest.fixture
def unbuildable(monkeypatch):
    """No normalised weight fails to build, since s moves only the first
    param; this makes the weight of s = 1.5 one that does."""
    build = cli.catalog

    def catalog_(name, params, interval):
        if name == "power" and params and params[0] == 1.5:
            raise CatalogError("power(1.5) cannot be built here")
        return build(name, params, interval)

    monkeypatch.setattr(cli, "catalog", catalog_)


def _sweep_outputs(raw, tmp_path, capsys):
    """The machine report, the CSV and the exit status of ``raw`` swept from
    cold memos."""
    cli._memoised_function.cache_clear()
    quad._memoised_moments.cache_clear()
    rows = tmp_path / "rows.csv"
    status = main(["sweep", write_json(tmp_path, "sweep.json", raw), "--format", "machine",
                   "--csv", str(rows)])
    return capsys.readouterr().out, rows.read_bytes(), status


class TestSweepByWeight:
    """The cells of a sweep run weight by weight; reports, CSVs and exit
    statuses are those of declared row-major order."""

    @pytest.mark.parametrize("raw", [
        _weight_sweep("T2_2dot", _MIXED_WEIGHTS),
        _weight_sweep("T2_1", _MIXED_WEIGHTS, m=0.75),
        _weight_sweep("T1_9", [0.5, -0.5, 1.5, 0.5]),
        _weight_sweep("H_MOMENTS", _MIXED_WEIGHTS),
        _weight_sweep("T2_2dot", [0.5 + 0.05 * k for k in range(50)]),
        {**_weight_sweep("T2_2dot", [1.0]), "axes": [{"param": "x", "values": [0.0, 0.5, 1.0]}]},
    ], ids=["mixed", "mixed-T2_1", "T1_9", "moments", "50-weights", "no-s"])
    def test_outputs_match_row_major_order(self, raw, unbuildable, tmp_path, capsys, monkeypatch):
        grouped = _sweep_outputs(raw, tmp_path, capsys)
        monkeypatch.setattr(cli, "_run_sweep", _row_major_sweep)
        assert grouped == _sweep_outputs(raw, tmp_path, capsys)

    def test_an_unbuildable_weight_is_the_error_of_each_of_its_cells(self, unbuildable):
        report = run_scenario(normalize_scenario(_weight_sweep("T2_2dot", _MIXED_WEIGHTS)))
        assert [cell["cell_index"] for cell in report["items"]] == list(range(48))
        errors = [cell for cell in report["items"] if cell["result"]["kind"] == "error"]
        unbuilt = [cell for cell in errors if cell["axes"]["s"] == 1.5]
        assert len(unbuilt) == 12 and {cell["result"]["error"] for cell in unbuilt} == {
            "CatalogError: power(1.5) cannot be built here"}
        # x = 1.0 is past m*y = m for every m, so the other errors are those cells'
        assert {cell["axes"]["x"] for cell in errors if cell not in unbuilt} == {1.0}
        assert report["exit_status"] == 2


def _cell_by_cell_sweep(scenario: dict) -> list[dict]:
    """Every cell in declared row-major order, verified on its own: its weight
    built for it (through the function memo), and its verdict that of
    ``theorems._verify`` with a fresh table of integrals, so that no cell
    reuses a point, an integral or moments that another cell looked up.
    The reference whose reports, CSV and exit status ``cli._run_sweep`` must
    match byte for byte, whatever it shares between cells."""
    specs = scenario["functions"]
    functions = cli._build_functions({role: spec for role, spec in specs.items() if role != "h"})
    tolerances = scenario["tolerances"]
    params = [axis["param"] for axis in scenario["axes"]]
    grid = itertools.product(*(axis["values"] for axis in scenario["axes"]))
    cells = []
    for index, combo in enumerate(grid):
        axes = dict(zip(params, combo))
        try:
            h = None
            if "h" in specs:
                spec = specs["h"]
                if "s" in axes:
                    spec = {**spec, "params": [axes["s"], *spec["params"][1:]]}
                h = cli._build_function(spec)
            verdict = theorems._verify(
                scenario["theorem"], functions.get("f"), functions.get("g"), h,
                axes.get("m", scenario["m"]), functions.get("phi"),
                axes.get("x", scenario["points"]["x"]), axes.get("y", scenario["points"]["y"]),
                tolerances["quad"], tolerances["report"], quad.DEFAULT_BUDGET, {})
            result = cli._item("verdict", verdict)
        except GenConvexError as exc:
            result = {"kind": "error", "error": f"{type(exc).__name__}: {exc}"}
        cells.append({"kind": "cell", "cell_index": index, "axes": axes, "result": result})
    return cells


def _sweep(theorem, functions, axes, **extra):
    return {"name": f"cells-{theorem}", "command": "sweep", "theorem": theorem,
            "functions": functions, "points": {"x": 0.0, "y": 1.0}, "axes": axes, **extra}


_POWER = {"family": "power", "params": [1]}


class TestSweepCellByCell:
    """A sweep shares each point's values and integrals, and each weight's
    moments, between its cells; reports, CSVs and exit statuses are those of
    verifying every cell on its own."""

    # each sweep, and the results of its cells: statuses, or the errors' types
    @pytest.mark.parametrize("raw, kinds", [
        # phi(y) outside phi's domain: the cells of y = 1.5 are errors
        (_sweep("T2_2dot", {"f": "x^2 + 1", "h": _POWER, "phi": "x^2"},
                [{"param": "m", "values": [0.5, 1.0]}, {"param": "y", "values": [0.5, 1.0, 1.5]},
                 {"param": "s", "values": [0.5, 1.0, 2.0]}]),
         {"pass": 8, "fail": 4, "EvalDomainError": 6}),
        # ln x at x = 0 and a weight t^-1: indeterminate cells
        (_sweep("T2_1", {"f": "ln(x)", "h": _POWER},
                [{"param": "x", "values": [0.0, 0.25]}, {"param": "s", "values": [1.0, -1.0, 2.0]}],
                m=0.75),
         {"indeterminate": 4, "fail": 2}),
        (_sweep("HC", {"f": "exp(x)"},
                [{"param": "x", "values": [0.0, 0.25, 1.0]}, {"param": "y", "values": [0.5, 1.0]}]),
         {"pass": 4, "OrientationError": 2}),
        # h = s + t: h(1/2) <= 0 at s = -0.5 and s = -1, a WeightError
        (_sweep("T1_9", {"f": "x^2", "h": {"family": "affine", "params": [1, 1]}},
                [{"param": "x", "values": [0.0, 0.25]},
                 {"param": "s", "values": [0.5, -0.5, 0.25, -1.0, 0.5]}]),
         {"pass": 6, "WeightError": 4}),
        (_sweep("T2_3", {"f": "x^2 + 1", "g": "exp(x)", "h": _POWER, "phi": "x^1.5"},
                [{"param": "m", "values": [0.5, 1.0]}, {"param": "x", "values": [0.0, 0.25]},
                 {"param": "s", "values": [0.5, 2.0, 0.5]}]),
         {"pass": 8, "fail": 4}),
        # f(x) g(x) = -0.0 at x = -0.0, so N echoes the sign of x; m, once
        # valid, is positive, so normalisation rejects m = -0.0 and 0.0 alike
        (_sweep("T2_3", {"f": "x^3", "g": "x", "h": _POWER},
                [{"param": "m", "values": [0.5, 1.0]}, {"param": "x", "values": [-0.0, 0.0, 0.25]},
                 {"param": "y", "values": [-0.0, 0.0, 1.0]},
                 {"param": "s", "values": [-0.0, 0.0, 1.0]}]),
         {"pass": 18, "OrientationError": 36}),
        # the moments of recip_power(3) overflow: a weight whose moments raise
        (_sweep("T2_2dot", {"f": "x^2", "h": {"family": "recip_power", "params": [0.5]}},
                [{"param": "x", "values": [0.0, 0.25]},
                 {"param": "s", "values": [0.25, 3.0, 0.5, 3.0]}]),
         {"pass": 4, "indeterminate": 4}),
        (_weight_sweep("T2_2dot", _MIXED_WEIGHTS),
         {"pass": 20, "fail": 4, "CatalogError": 12, "OrientationError": 12}),
        (_weight_sweep("T1_9", [0.5, -0.5, 1.5, 0.5]),
         {"pass": 12, "CatalogError": 6, "OrientationError": 6}),
    ], ids=["phi-domain", "indeterminate", "HC", "T1_9", "T2_3", "signed-zeros",
            "moments-raise", "unbuildable", "unbuildable-T1_9"])
    def test_outputs_match_cell_by_cell(self, raw, kinds, unbuildable, tmp_path, capsys,
                                        monkeypatch):
        shared = _sweep_outputs(raw, tmp_path, capsys)
        monkeypatch.setattr(cli, "_run_sweep", _cell_by_cell_sweep)
        assert shared == _sweep_outputs(raw, tmp_path, capsys)
        results = [cell["result"] for cell in json.loads(shared[0])["items"]]
        assert collections.Counter(
            result.get("status") or result["error"].split(":")[0] for result in results) == kinds
        if "indeterminate" in kinds:
            notes = {note for result in results for note in result.get("notes", ())}
            assert any(note.startswith("EvalDomainError") for note in notes)


class TestSweepSharesWork:
    """On P points (m, x, y) and W weights, a sweep evaluates each point once
    and asks for each weight's moments once."""

    P, W = 4, 3
    RAW = _sweep("T2_2", {"f": "x^2 + 1", "h": _POWER, "phi": "x^1.5"},
                 [{"param": "m", "values": [0.5, 1.0]}, {"param": "s", "values": [0.5, 1.0, 2.0]},
                  {"param": "x", "values": [0.0, 0.25]}])

    @pytest.fixture
    def scenario(self):
        return normalize_scenario(copy.deepcopy(self.RAW))

    def test_f_and_phi_are_evaluated_at_the_ends_once_per_point(self, scenario, monkeypatch):
        f, phi = (cli._build_function(scenario["functions"][role]) for role in ("f", "phi"))
        calls = collections.Counter()
        call = funcdsl.FuncDef.__call__

        def counting(self, u):
            calls[id(self)] += 1
            return call(self, u)

        monkeypatch.setattr(funcdsl.FuncDef, "__call__", counting)
        report = run_scenario(scenario)
        assert all(cell["result"]["kind"] == "verdict" for cell in report["items"])
        # the integrands read f through its source, not through __call__
        assert calls[id(f)] == calls[id(phi)] == 2 * self.P

    def test_each_integral_is_computed_once_and_read_once_per_point(self, scenario, monkeypatch):
        integrate, ends = theorems.integrate, []

        def counting(fn, lo, hi, *rest):
            ends.append((lo, hi, math.copysign(1.0, lo), math.copysign(1.0, hi)))
            return integrate(fn, lo, hi, *rest)

        row, reads = theorems.BOUNDS["T2_2"], []

        def integrals(m, px, py):
            reads.append((m, px, py))
            return row.integrals(m, px, py)

        monkeypatch.setattr(theorems, "integrate", counting)
        monkeypatch.setitem(theorems.BOUNDS, "T2_2", dataclasses.replace(row, integrals=integrals))
        run_scenario(scenario)
        # T2_2 averages over [m*px, py] and [px, m*py]: one interval at m = 1,
        # and [0, phi(1)] at both m where x = 0
        assert len(ends) == len(set(ends)) == 5
        assert len(reads) == len(set(reads)) == self.P

    def test_the_moment_memo_is_asked_once_per_weight(self, scenario, monkeypatch):
        asked, lookup = [], theorems._moments

        def recording(h, names, tol, budget):
            asked.append(h)
            return lookup(h, names, tol, budget)

        monkeypatch.setattr(theorems, "_moments", recording)
        run_scenario(scenario)
        assert [h.label for h in asked] == ["power(0.5)", "power(1.0)", "power(2.0)"]

    def test_a_moments_sweep_looks_up_each_weight_once(self, tmp_path, capsys, monkeypatch):
        raw = _sweep("H_MOMENTS", {"h": _POWER}, [{"param": "m", "values": [0.25, 0.5, 0.75, 1.0]},
                                                  {"param": "s", "values": [0.5, 1.0, 2.0]}])
        asked, lookup = [], cli.h_moments
        monkeypatch.setattr(cli, "h_moments", lambda h, tol: asked.append(h.label) or lookup(h, tol))
        grouped = _sweep_outputs(raw, tmp_path, capsys)
        assert asked == ["power(0.5)", "power(1.0)", "power(2.0)"]
        # in row-major order the weight changes at every cell, so each cell
        # looks its weight up, and the report, CSV and status are the same
        asked.clear()
        monkeypatch.setattr(cli, "_run_sweep", _row_major_sweep)
        assert _sweep_outputs(raw, tmp_path, capsys) == grouped
        assert len(asked) == 12

    def test_each_weight_is_built_once(self, scenario, monkeypatch):
        built, build = [], cli._build_function

        def counting(spec):
            built.append(spec.get("params", spec.get("expr")))
            return build(spec)

        monkeypatch.setattr(cli, "_build_function", counting)
        report = run_scenario(scenario)
        assert len(report["items"]) == self.P * self.W
        # f and phi, then each weight before its first cell
        assert built == ["x^2 + 1", "x^1.5", [0.5], [1.0], [2.0]]


class TestDeterminism:
    @pytest.mark.parametrize(
        "scenario",
        [VERIFY_SCENARIO, FALSIFY_SCENARIO, CERTIFY_SCENARIO, REDUCE_SCENARIO, SWEEP_SCENARIO],
        ids=lambda s: s["name"],
    )
    def test_machine_reports_are_byte_identical(self, scenario):
        normalized = normalize_scenario(copy.deepcopy(scenario))
        first = dump_machine(run_scenario(normalized))
        second = dump_machine(run_scenario(copy.deepcopy(normalized)))
        assert first == second

    @pytest.mark.parametrize(
        "scenario",
        [VERIFY_SCENARIO, FALSIFY_SCENARIO, CERTIFY_SCENARIO, REDUCE_SCENARIO, SWEEP_SCENARIO,
         MOMENTS_SWEEP],
        ids=lambda s: s["name"],
    )
    def test_scenario_echo_reruns_to_the_same_report(self, scenario):
        # the echo holds only keys normalize_scenario accepts
        text = dump_machine(run_scenario(normalize_scenario(copy.deepcopy(scenario))))
        echo = json.loads(text)["scenario"]
        assert dump_machine(run_scenario(normalize_scenario(echo))) == text

    def test_numeric_fields_round_trip(self):
        normalized = normalize_scenario(copy.deepcopy(VERIFY_SCENARIO))
        text = dump_machine(run_scenario(normalized))
        parsed = json.loads(text)
        item = parsed["items"][0]
        for key in ("lhs", "rhs", "margin", "quad_err"):
            assert format_float(item[key]) in text

    @settings(max_examples=400, deadline=None)
    @given(_REPORT_TREES)
    def test_machine_format_matches_the_reference_emitter(self, tree):
        assert dump_machine(tree) == _reference_dump(tree)

    @pytest.mark.parametrize("path", sorted(_SAMPLE_DIR.glob("*.json")), ids=lambda p: p.name)
    def test_sample_reports_match_the_reference_emitter(self, path):
        report = run_scenario(normalize_scenario(load_scenario(str(path))))
        assert dump_machine(report) == _reference_dump(report)

    @pytest.mark.parametrize("value", [{1, 2}, object(), b"bytes"], ids=["set", "object", "bytes"])
    def test_machine_format_rejects_what_json_cannot_hold(self, value):
        with pytest.raises(TypeError):
            dump_machine({"items": [value]})

    def test_csv_deterministic(self, tmp_path):
        normalized = normalize_scenario(copy.deepcopy(SWEEP_SCENARIO))
        report = run_scenario(normalized)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(report, str(a))
        write_sweep_csv(report, str(b))
        assert a.read_bytes() == b.read_bytes()


class _OwnRepr(float):
    def __repr__(self):
        return "own-repr"


class _OwnStr(str):
    def __str__(self):
        return "own-str"


class _OwnIntStr(int):
    def __str__(self):
        return "own-int"


_Pair = collections.namedtuple("_Pair", "left right")
_NAN = math.nan

# what the emitter's float and key memos could confuse: equal dict keys that
# print differently, and values that must not enter a memo
_MEMO_COLLISIONS = {
    "zero then negative zero": {"a": 0.0, "b": -0.0, "c": [0.0, -0.0], "d": {"a": -0.0}},
    "negative zero then zero": {"a": -0.0, "b": 0.0, "c": [-0.0, 0.0], "d": {"a": 0.0}},
    "equal keys": [{True: 1.0}, {1: 1.0}, {1.0: 1.0}, {"1": 1.0}, {"True": 2.0, "1.0": 2.0}],
    "nan and infinities": {"a": _NAN, "b": [_NAN, _NAN], "c": {"a": _NAN},
                           "d": [math.inf, -math.inf, math.inf], "e": -math.inf},
    "float subclass": [0.1, _OwnRepr(0.1), {_OwnRepr(0.5): _OwnRepr(0.1), "x": 0.1},
                       _OwnRepr(-0.0), _OwnRepr(math.nan)],
    "ordered dict and namedtuple": collections.OrderedDict(
        [("b", _Pair(0.25, -0.0)), ("a", collections.OrderedDict([("b", 0.25)])),
         ("c", _Pair([], {}))]),
    "str and int subclasses": {_OwnStr("k"): _OwnStr("v"), "k": _OwnIntStr(3), "n": [_OwnIntStr(-4)]},
    "str subclass values": [_OwnStr("v"), {"a": _OwnStr("w"), "b": "w"}],
}


class TestMachineEmitter:
    """dump_machine formats each distinct float and str key once per report,
    writes what the reference emitter writes, and is called only when the
    machine text is asked for."""

    @pytest.mark.parametrize("tree", _MEMO_COLLISIONS.values(), ids=_MEMO_COLLISIONS.keys())
    def test_memo_collisions_match_the_reference_emitter(self, tree):
        assert dump_machine(tree) == _reference_dump(tree)

    def test_each_distinct_float_is_formatted_once(self, monkeypatch):
        name = "sweep_weight_exponent.json"
        report = run_scenario(normalize_scenario(load_scenario(str(_SAMPLE_DIR / name))))
        formatted = []

        def counting(value):
            formatted.append(value)
            return "%.17g" % value

        monkeypatch.setattr(cli, "format_float", counting)
        assert dump_machine(report) == (_GOLDEN_DIR / name).read_text(encoding="utf-8")
        nonzero = [value for value in formatted if value]
        # 19 distinct non-zero floats once each, and each of the 3 zeros
        assert (len(formatted), len(nonzero), len(set(nonzero))) == (22, 19, 19)

    @pytest.mark.parametrize("out, machine, dumps", [
        (False, False, 0), (True, False, 1), (False, True, 1), (True, True, 1)])
    def test_machine_text_is_built_only_when_asked_for(self, out, machine, dumps, tmp_path,
                                                       capsys, monkeypatch):
        name = "verify_t2_2dot.json"
        golden = (_GOLDEN_DIR / name).read_text(encoding="utf-8")
        calls = []
        emit = cli.dump_machine
        monkeypatch.setattr(cli, "dump_machine", lambda report: calls.append(report) or emit(report))
        path = tmp_path / "report.json"
        args = ["run", str(_SAMPLE_DIR / name)]
        args += ["--out", str(path)] if out else []
        args += ["--format", "machine"] if machine else []
        assert main(args) == json.loads(golden)["exit_status"]
        assert len(calls) == dumps
        stdout = capsys.readouterr().out
        assert (stdout == golden) == machine
        if out:
            assert path.read_bytes() == (_GOLDEN_DIR / name).read_bytes()
        else:
            assert not path.exists()

    @pytest.mark.parametrize("path", sorted(_SAMPLE_DIR.glob("*.json")), ids=lambda p: p.name)
    def test_a_report_leaves_nothing_for_the_cyclic_collector(self, path):
        # the emitters hold no closure cells that refer to one another, so
        # reference counting frees all that one dump builds
        report = run_scenario(normalize_scenario(load_scenario(str(path))))
        gc.collect()
        gc.disable()
        try:
            dump_machine(report)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestBadInput:
    """Bad input from outside exits 2 with a one-line message."""

    def test_non_utf8_scenario(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"name": "café", "command": "verify"}'.encode("latin-1"))
        with pytest.raises(ScenarioError, match="scenario is not UTF-8"):
            load_scenario(str(path))
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith("genconvex: error: scenario is not UTF-8: ")

    @pytest.mark.parametrize("flag", ["--tol-quad", "--tol-report"])
    def test_tolerance_override_on_non_object_tolerances(self, flag, tmp_path, capsys):
        path = write_json(tmp_path, "tol.json", {**VERIFY_SCENARIO, "tolerances": 5})
        assert main(["run", path]) == 2
        plain = capsys.readouterr().err
        assert plain == "genconvex: error: field tolerances must be an object\n"
        assert main(["run", path, flag, "1e-8"]) == 2
        assert capsys.readouterr().err == plain

    def test_tolerance_overrides_keep_the_other_tolerances(self, tmp_path, capsys):
        raw = {**VERIFY_SCENARIO, "tolerances": {"report": 1e-6, "counterexample": 1e-5}}
        path = write_json(tmp_path, "tol.json", raw)
        main(["run", path, "--format", "machine", "--tol-quad", "1e-8"])
        tolerances = json.loads(capsys.readouterr().out)["scenario"]["tolerances"]
        assert tolerances == {"quad": 1e-8, "report": 1e-6, "counterexample": 1e-5}

    @pytest.mark.parametrize("value", ["abc", "1.5", ""])
    def test_jobs_environment_is_ignored(self, value, capsys, monkeypatch):
        monkeypatch.setenv("GENCONVEX_JOBS", value)
        name = "sweep_weight_exponent.json"
        assert main(["run", str(_SAMPLE_DIR / name), "--format", "machine"]) == 0
        assert capsys.readouterr().out == (_GOLDEN_DIR / name).read_text(encoding="utf-8")

    def test_jobs_flag_is_rejected_whatever_the_environment(self, tmp_path, capsys, monkeypatch):
        path = write_json(tmp_path, "v.json", VERIFY_SCENARIO)
        for value in ("abc", "0"):
            monkeypatch.setenv("GENCONVEX_JOBS", value)
            with pytest.raises(SystemExit) as done:
                main(["run", path, "--jobs", "2"])
            assert done.value.code == 2
            assert main(["run", path]) == 0
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    @pytest.mark.parametrize("patch,message,field", [
        ({"functions": {"f": 3, "h": "t"}},
         "field functions.f must be a string or object", "functions.f"),
        ({"functions": {"f": {"expr": "x^2", "domain": [0]}, "h": "t"}},
         "field functions.f.domain must be [lo, hi]", "functions.f.domain"),
        ({"functions": {"f": "x + y", "h": "t"}},
         "field functions.f.expr: unknown symbol 'y' (byte offset 4)", "functions.f.expr"),
        ({"functions": {"f": {"expr": "1.2.3", "variable": "x"}, "h": "t"}},
         "field functions.f.expr does not parse: malformed number '1.2.3' (byte offset 0)",
         "functions.f.expr"),
        ({"functions": {"f": {"family": "power", "params": [1, 2]}, "h": "t"}},
         "field functions.f: power takes 1 parameter(s), got 2", "functions.f"),
        ({"functions": {"f": {"domain": [0, 1]}, "h": "t"}},
         "field functions.f needs either 'expr' or 'family'", "functions.f"),
        # a binding's keys are those of its kind; one of neither kind may
        # hold any binding key
        ({"functions": {"f": {"expr": "x^2", "family": "power", "params": [3]}, "h": "t"}},
         "unknown field functions.f.family", "functions.f.family"),
        ({"functions": {"f": {"family": "power", "params": [2], "variable": "x"}, "h": "t"}},
         "unknown field functions.f.variable", "functions.f.variable"),
        ({"command": "reduce", "pair": "T2_2_vs_T1_11",
          "probes": [{"f": {"expr": "x^2", "params": [3]}, "h": "t"}]},
         "unknown field probes[0].f.params", "probes[0].f.params"),
        ({"command": "reduce", "pair": "T2_2_vs_T1_11",
          "probes": [{"f": "x^2", "h": {"family": "power", "params": [1], "expr": "t"}}]},
         "unknown field probes[0].h.family", "probes[0].h.family"),
        ({"functions": {"f": {"variable": "x", "params": [2]}, "h": "t"}},
         "field functions.f needs either 'expr' or 'family'", "functions.f"),
        ({"m": "a"}, "field m must be a number", "m"),
        ({"m": float("inf")}, "field m must be finite", "m"),
        ({"seed": 1.5}, "field seed must be an integer", "seed"),
        ({"command": "reduce", "pair": "T2_2_vs_T1_11",
          "probes": [{"f": "x^2", "h": "t"}, {"f": "x^2", "h": "t", "m": 2.5}]},
         "field probes[1].m must lie in (0, 1]", "probes[1].m"),
        ({"command": "reduce", "pair": "T2_2_vs_T1_11", "probes": [{"f": "x^2", "h": "t", "m": 0.0}]},
         "field probes[0].m must lie in (0, 1]", "probes[0].m"),
        ({"command": "certify", "class": "convex", "functions": {"f": "1e400"}},
         "field functions.f.expr: number out of range '1e400' (byte offset 0)", "functions.f.expr"),
        ({"command": "reduce", "pair": "T2_1_vs_T1_13",
          "probes": [{"f": "x^2", "h": "t", "phy": "x^2", "x": 0.1, "y": 0.9}]},
         "unknown field probes[0].phy", "probes[0].phy"),
        ({"functions": {"f": {"expr": "x^2", "domian": [0, 2]}, "h": "t"}},
         "unknown field functions.f.domian", "functions.f.domian"),
        ({"tolerances": {"qaud": 1e-3}}, "unknown field tolerances.qaud", "tolerances.qaud"),
        ({"points": {"z": 0.5}}, "unknown field points.z", "points.z"),
        ({"mm": 0.5}, "unknown field mm", "mm"),
        ({"command": "sweep", "axes": [{"param": "m", "values": [0.5], "stpe": 0.1}]},
         "unknown field axes[0].stpe", "axes[0].stpe"),
        ({"functions": {"f": {"expr": "x^2", "domain": [1, 0]}, "h": "t"}},
         "field functions.f.domain is reversed", "functions.f.domain"),
        ({"functions": {"f": {"family": "cube"}, "h": "t"}},
         "field functions.f.family must be one of affine, constant, identity, poly, power, "
         "recip_power, sqrt", "functions.f.family"),
        ({"functions": {"f": {"family": "power", "params": 2}, "h": "t"}},
         "field functions.f.params must be a list", "functions.f.params"),
        ({"functions": {"f": {"family": "power", "params": ["a"]}, "h": "t"}},
         "field functions.f.params must be a number", "functions.f.params"),
        ({"functions": {"f": {"expr": "x^2", "variable": 3}, "h": "t"}},
         "field functions.f.variable must be a string", "functions.f.variable"),
        ({"command": "sweep", "axes": [{"param": "m", "values": []}]},
         "axis 0 values must be a nonempty list", "axes[0].values"),
        ({"command": "sweep", "axes": [{"param": "x", "values": [0.5, "a"]}]},
         "field axes[0].values must be a number", "axes[0].values"),
        ({"command": "sweep", "axes": [{"param": "x", "start": "a", "stop": 1, "step": 0.5}]},
         "field axes[0].start must be a number", "axes[0].start"),
        ({"command": "sweep", "axes": [{"param": "x", "start": 0, "stop": "a", "step": 0.5}]},
         "field axes[0].stop must be a number", "axes[0].stop"),
        ({"command": "sweep", "axes": [{"param": "x", "start": 0, "stop": 1, "step": "a"}]},
         "field axes[0].step must be a number", "axes[0].step"),
        ({"theorem": "T9"},
         "field theorem must be one of T2_1, T2_2dot, T2_2, T2_3, HC, T1_9, T1_11, T1_13, T1_14",
         "theorem"),
        ({"command": "reduce", "pair": "T2_2_vs_T1_9", "probes": [{"f": "x^2", "h": "t"}]},
         "field pair must be one of T2_1_vs_T1_13, T2_2dot_vs_T1_9, T2_2_vs_T1_11, T2_3_vs_T1_14",
         "pair"),
        ({"command": "certify", "class": "concave"},
         "field class must be one of convex, m_convex, h_convex, hm_convex, phi_convex, "
         "phi_h_convex, phi_hm_convex", "class"),
        ({"command": "reduce", "pair": "T2_2_vs_T1_11", "probes": [{"f": "x^2", "h": "t", "x": "a"}]},
         "field probes[0].x must be a number", "probes[0].x"),
        ({"command": "reduce", "pair": "T2_2_vs_T1_11", "probes": [{"f": "x^2", "h": "t", "y": None}]},
         "field probes[0].y must be a number", "probes[0].y"),
    ], ids=["f-number", "domain-length", "unknown-symbol", "malformed-number",
            "family-arity", "no-expr-or-family", "expr-with-family", "family-with-variable",
            "probe-expr-with-params", "probe-family-with-expr", "neither-kind", "m-string", "m-infinite", "seed-float",
            "probe-m-above-1", "probe-m-zero", "number-out-of-range", "probe-unknown-key",
            "binding-unknown-key", "tolerance-unknown-key", "point-unknown-key",
            "top-level-unknown-key", "axis-unknown-key", "domain-reversed", "family-unknown",
            "params-not-a-list", "param-string", "variable-number", "axis-values-empty",
            "axis-value-string", "axis-start-string", "axis-stop-string", "axis-step-string",
            "theorem-unknown", "pair-unknown", "class-unknown", "probe-x-string",
            "probe-y-null"])
    def test_invalid_field(self, patch, message, field, tmp_path, capsys):
        raw = {**VERIFY_SCENARIO, **patch}
        with pytest.raises(ScenarioError) as err:
            normalize_scenario(raw)
        assert (str(err.value), err.value.field) == (message, field)
        assert main(["run", write_json(tmp_path, "bad.json", raw)]) == 2
        assert capsys.readouterr().err == f"genconvex: error: {message}\n"

    # each place a scenario gives m: the field, a probe's m, a sweep axis
    _MODULUS_SITES = {
        "field": (lambda m: {**VERIFY_SCENARIO, "m": m}, "field m", "m"),
        "probe": (lambda m: {**REDUCE_SCENARIO, "pair": "T2_2_vs_T1_11",
                             "probes": [{"f": "x^2", "h": "t", "m": m}]},
                  "field probes[0].m", "probes[0].m"),
        "axis": (lambda m: {**SWEEP_SCENARIO, "axes": [{"param": "m", "values": [0.5, m]}]},
                 "axis 0 values of m", "axes[0].values"),
    }

    @pytest.mark.parametrize("site", list(_MODULUS_SITES))
    @pytest.mark.parametrize("m", [1.5, 0.0, math.nan], ids=["above-1", "zero", "nan"])
    def test_a_modulus_outside_0_1_names_its_field(self, site, m):
        build, name, field = self._MODULUS_SITES[site]
        # NaN fails the number check first, which names the field its own way
        message = f"{name} must lie in (0, 1]"
        if math.isnan(m):
            message = f"field {field} must be finite"
        with pytest.raises(ScenarioError) as err:
            normalize_scenario(build(m))
        assert (str(err.value), err.value.field) == (message, field)

    def test_scenario_must_be_an_object(self, tmp_path, capsys):
        path = write_json(tmp_path, "list.json", [VERIFY_SCENARIO])
        with pytest.raises(ScenarioError, match=r"^scenario must be a JSON object$"):
            load_scenario(path)
        assert main(["run", path]) == 2
        assert capsys.readouterr().err == "genconvex: error: scenario must be a JSON object\n"

    def test_sweep_range_whose_count_overflows(self, tmp_path, capsys):
        raw = copy.deepcopy(SWEEP_SCENARIO)
        raw["axes"] = [{"param": "x", "start": 0.0, "stop": 1e308, "step": 1e-308}]
        with pytest.raises(ScenarioError) as err:
            normalize_scenario(raw)
        assert err.value.field == "axes[0]"
        assert str(err.value) == "axis 0 range has more than 100000 values"
        assert main(["run", write_json(tmp_path, "sweep.json", raw)]) == 2
        assert capsys.readouterr().err == "genconvex: error: axis 0 range has more than 100000 values\n"

    @pytest.mark.parametrize("stop,accepted", [(99_999.0, True), (100_000.0, False)])
    def test_sweep_range_count_is_checked_against_the_cap(self, stop, accepted):
        raw = copy.deepcopy(SWEEP_SCENARIO)
        raw["axes"] = [{"param": "x", "start": 0.0, "stop": stop, "step": 1.0}]
        if accepted:
            assert len(normalize_scenario(raw)["axes"][0]["values"]) == 100_000
        else:
            with pytest.raises(ScenarioError) as err:
                normalize_scenario(raw)
            assert err.value.field == "axes[0]"


@pytest.mark.parametrize("case", ["non-utf8", "tolerances", "sweep-overflow"])
def test_bad_input_prints_no_traceback(case, tmp_path):
    """The three inputs above, through the console entry point."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(VERIFY_SCENARIO), encoding="utf-8")
    args = ["run", str(path)]
    if case == "non-utf8":
        path.write_bytes(b'{"name": "\xff"}')
    elif case == "tolerances":
        path.write_text(json.dumps({**VERIFY_SCENARIO, "tolerances": 1}), encoding="utf-8")
        args.append("--tol-quad=1e-8")
    else:
        raw = {**SWEEP_SCENARIO, "axes": [{"param": "x", "start": 0, "stop": 1e308, "step": 1e-308}]}
        path.write_text(json.dumps(raw), encoding="utf-8")
    done = subprocess.run([sys.executable, "-m", "genconvex", *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr.startswith("genconvex: error: ")
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("f, offset", [
    ("(" * 200 + "x" + ")" * 200, 100),
    ("-" * 3000 + "x", 100),
    ("+".join(["x"] * 500), 199),
], ids=["200 parentheses", "3000 minuses", "500-term sum"])
def test_an_expression_that_nests_too_deeply_is_a_usage_error(f, offset, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**VERIFY_SCENARIO, "functions": {"f": f, "h": "t"}}), encoding="utf-8")
    done = subprocess.run([sys.executable, "-m", "genconvex", "run", str(path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", (
        "genconvex: error: field functions.f.expr does not parse: expression nests deeper "
        f"than 100 levels (byte offset {offset})\n"))


@pytest.mark.parametrize("args", [["run", "verify_t2_2dot.json", "--format", "machine"], ["--version"]],
                         ids=["run", "version"])
def test_the_module_entry_point(args):
    """``python -m genconvex`` prints what the console script does and exits
    with its status."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    if args[0] == "run":
        golden = (_GOLDEN_DIR / args[1]).read_text(encoding="utf-8")
        expected = (json.loads(golden)["exit_status"], golden)
        args = ["run", str(_SAMPLE_DIR / args[1]), *args[2:]]
    else:
        expected = (0, f"genconvex {__version__}\n")
    done = subprocess.run([sys.executable, "-m", "genconvex", *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (*expected, "")


def test_jobs_flag_and_environment_through_the_entry_point():
    """GENCONVEX_JOBS is ignored; --jobs is an argparse usage error."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
           "GENCONVEX_JOBS": "abc"}
    name = "verify_t2_2dot.json"
    args = [sys.executable, "-m", "genconvex", "run", str(_SAMPLE_DIR / name), "--format", "machine"]
    done = subprocess.run(args, env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (_GOLDEN_DIR / name).read_text(encoding="utf-8")
    done = subprocess.run([*args, "--jobs", "2"], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.endswith("error: unrecognized arguments: --jobs 2\n")
    assert "Traceback" not in done.stderr


def _unwritable_output_args(flag, tmp_path):
    """A run (--out) or sweep (--csv) whose output path has no directory."""
    if flag == "--out":
        args = ["run", write_json(tmp_path, "verify.json", VERIFY_SCENARIO)]
    else:
        args = ["sweep", write_json(tmp_path, "sweep.json", SWEEP_SCENARIO)]
    return [*args, flag, str(tmp_path / "missing" / "report.file")]


def _nested_scenario(tmp_path):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_unwritable_output_path_is_a_usage_error(flag, tmp_path, capsys):
    assert main(_unwritable_output_args(flag, tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("genconvex: error: cannot write output file: ")
    assert captured.err.count("\n") == 1
    assert str(tmp_path / "missing" / "report.file") in captured.err


def test_deeply_nested_scenario_is_a_usage_error(tmp_path, capsys):
    path = _nested_scenario(tmp_path)
    with pytest.raises(ScenarioError, match="nested too deeply"):
        load_scenario(path)
    assert main(["run", path]) == 2
    assert capsys.readouterr().err == "genconvex: error: scenario is nested too deeply to decode\n"


@pytest.mark.parametrize("case", ["--out", "--csv", "nested"])
def test_output_path_and_nesting_errors_print_no_traceback(case, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    if case == "nested":
        args = ["run", _nested_scenario(tmp_path)]
    else:
        args = _unwritable_output_args(case, tmp_path)
    done = subprocess.run([sys.executable, "-m", "genconvex", *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr.startswith("genconvex: error: ")
    assert done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr
