import copy
import json
from pathlib import Path

import pytest

from genconvex.cli import (
    dump_machine,
    format_float,
    load_scenario,
    main,
    normalize_scenario,
    run_scenario,
    write_sweep_csv,
)
from genconvex.errors import ScenarioError
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

    def test_jobs_do_not_change_output(self, tmp_path, capsys, monkeypatch):
        path = write_json(tmp_path, "sweep.json", SWEEP_SCENARIO)
        main(["run", path, "--format", "machine", "--jobs", "1"])
        serial = capsys.readouterr().out
        main(["run", path, "--format", "machine", "--jobs", "4"])
        parallel = capsys.readouterr().out
        assert serial == parallel
        monkeypatch.setenv("GENCONVEX_JOBS", "3")
        main(["run", path, "--format", "machine"])
        assert capsys.readouterr().out == serial

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


@pytest.mark.parametrize(
    "name,expected_exit",
    [
        ("verify_t2_2dot.json", 0),
        ("falsify_sqrt.json", 1),
        ("certify_square_hm.json", 0),
        ("reduce_all_pairs.json", 0),
        ("sweep_weight_exponent.json", 0),
    ],
)
def test_sample_scenarios(name, expected_exit, capsys):
    assert main(["run", str(_SAMPLE_DIR / name)]) == expected_exit
    capsys.readouterr()


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

    def test_numeric_fields_round_trip(self):
        normalized = normalize_scenario(copy.deepcopy(VERIFY_SCENARIO))
        text = dump_machine(run_scenario(normalized))
        parsed = json.loads(text)
        item = parsed["items"][0]
        for key in ("lhs", "rhs", "margin", "quad_err"):
            assert format_float(item[key]) in text

    def test_csv_deterministic(self, tmp_path):
        normalized = normalize_scenario(copy.deepcopy(SWEEP_SCENARIO))
        report = run_scenario(normalized)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(report, str(a))
        write_sweep_csv(report, str(b))
        assert a.read_bytes() == b.read_bytes()
