"""Machine reports of the sample scenarios, and library-level membership
outputs, pinned byte for byte.

The files under ``tests/golden/`` are the reports ``genconvex run <scenario>
--format machine`` writes from cold memos.  Any change that alters a digit
of a sample report fails here, and so does a report that depends on what
the memos of moments and of built functions already hold, or on other
threads filling them at the same time.
``sweep_<name>.csv`` is the CSV of ``genconvex sweep
scenarios/sweep_<name>.json --csv``, for every sample sweep.
"""

import json
import math
import re
import sys
import threading
from pathlib import Path

import pytest

from genconvex import cli, funcdsl, quad
from genconvex.cli import dump_machine, load_scenario, main, normalize_scenario, run_scenario

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


def test_no_report_calls_a_source(monkeypatch):
    # FuncDef.on and reflected_on return a Source; their callers bind its fn
    # and batch once, since calling the Source costs a frame per evaluation
    # (and is the hook that the benchmark's tracer counts as algebra.eval)
    def called(self, u):
        raise AssertionError(f"Source.__call__({u!r})")

    monkeypatch.setattr(funcdsl.Source, "__call__", called)
    for path in _SCENARIOS:
        assert machine_report(path) == (_GOLDEN / path.name).read_text(encoding="utf-8"), path.name


@pytest.mark.parametrize("path", [p for p in _SCENARIOS if p.stem.startswith("sweep_")],
                         ids=lambda p: p.stem)
def test_sweep_csv_matches_golden(path, tmp_path, capsys):
    # each sample sweep's CSV, with the exit status of its golden report
    rows = tmp_path / "rows.csv"
    golden = json.loads((_GOLDEN / path.name).read_text(encoding="utf-8"))
    assert main(["sweep", str(path), "--csv", str(rows)]) == golden["exit_status"]
    capsys.readouterr()
    assert rows.read_bytes() == (_GOLDEN / f"{path.stem}.csv").read_bytes()


def test_sweep_cross_moments_match_their_closed_forms():
    # t^s has mx = Gamma(s+1)^2 / Gamma(2s+2); t and t^2 come within a few
    # ulps of it, t^0.5 within its error estimate of a 1e-10 tolerance
    report = json.loads((_GOLDEN / "sweep_weight_exponent.json").read_text(encoding="utf-8"))
    for item in report["items"]:
        s, mx = item["axes"]["s"], item["result"]["mx"]
        exact = math.gamma(s + 1.0) ** 2 / math.gamma(2.0 * s + 2.0)
        allowed = mx["abs_err"] if s == 0.5 else 1e-12 * exact
        assert abs(mx["value"] - exact) <= allowed, s


def test_warm_moment_memo_does_not_change_the_reports(monkeypatch):
    # the samples run three times in one process, the last time in reverse
    # order, so that each finds the memos of moments and of built functions
    # filled by all the others
    computed = []
    compute = quad._compute_moments
    monkeypatch.setattr(quad, "_compute_moments",
                        lambda h, names, tol, budget: computed.extend(names) or compute(
                            h, names, tol, budget))
    goldens = [(_GOLDEN / path.name).read_text(encoding="utf-8") for path in _SCENARIOS]
    cold = [machine_report(path) for path in _SCENARIOS]
    cold_computed = len(computed)
    warm = [machine_report(path) for path in _SCENARIOS]
    reversed_order = [machine_report(path) for path in reversed(_SCENARIOS)][::-1]
    assert len(computed) - cold_computed < cold_computed  # the warm runs hit the memo
    assert cli._memoised_function.cache_info().hits > 0
    assert cold == warm == reversed_order == goldens


@pytest.mark.threads
def test_threads_that_run_the_samples_at_once_get_the_golden_reports():
    # more threads than cores, switching every few microseconds, each running
    # every sample in its own order, so that the memos of built functions and
    # of moments are filled and read from several threads at once
    goldens = [(_GOLDEN / path.name).read_text(encoding="utf-8") for path in _SCENARIOS]
    count = 4
    errors = []

    def run(i):
        try:
            order = list(range(i, len(_SCENARIOS))) + list(range(i))
            reports = {k: machine_report(_SCENARIOS[k]) for k in order}
            got[i] = [reports[k] for k in range(len(_SCENARIOS))]
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(2):
            cli._memoised_function.cache_clear()
            quad._memoised_moments.cache_clear()
            got = [None] * count
            threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert got == [goldens] * count
    finally:
        sys.setswitchinterval(interval)


# --------------------------------------------------------------------------
# Library-level membership outputs
# --------------------------------------------------------------------------
#
# ``golden/membership.txt`` holds, for each fixed (f, spec) pair below, the
# repr of certify_sampled (n=200) and of falsify (budget 700, with its probe
# counts).  The certify lines were written before FuncDef evaluation was
# compiled, the falsify and stats lines once falsify began from
# certify_sampled's probe set; each witness was checked with ``defect``.
# The pairs mix DSL, catalog and algebra functions over all seven class
# tags, including probes that are skipped and a phi that escapes the class
# domain.

def _membership_pairs():
    from genconvex import catalog, class_spec, combine, compose_phi, func_from_expr, segment

    def dsl(text, interval=(0.0, 1.0)):
        return func_from_expr(text, None, interval)

    def cat(name, *params, interval=(0.0, 1.0)):
        return catalog(name, params, interval)

    t = lambda text: func_from_expr(text, "t")  # noqa: E731
    expm1 = dsl("exp(x) - 1")
    return [
        ("power2 convex", cat("power", 2.0), class_spec("convex")),
        ("expm1 convex", expm1, class_spec("convex")),
        ("sqrt dsl convex", dsl("sqrt(x)"), class_spec("convex")),
        ("combine convex", combine(cat("power", 2.0), expm1, 0.5, 2.0), class_spec("convex")),
        ("constant convex", cat("constant", 0.75), class_spec("convex")),
        ("neg ln convex", dsl("-ln(x)"), class_spec("convex")),
        ("recip_power convex", cat("recip_power", 0.5), class_spec("convex")),
        ("quadratic convex on [0,2]", dsl("x^2 - x", (0.0, 2.0)), class_spec("convex", bound=2.0)),
        ("poly m_convex", cat("poly", 0.0, 1.0, 0.5, 0.25), class_spec("m_convex", m=0.5)),
        ("xexp m_convex", dsl("x*exp(0.7*x)"), class_spec("m_convex", m=0.8)),
        ("ln shift m_convex", dsl("ln(x+2)"), class_spec("m_convex", m=0.9)),
        ("affine m_convex", cat("affine", 0.25, -0.5), class_spec("m_convex", m=0.6)),
        ("power2 h_convex", cat("power", 2.0), class_spec("h_convex", h=cat("power", 0.5))),
        ("x^1.5 h_convex", dsl("x^1.5"), class_spec("h_convex", h=t("t^0.8"))),
        ("abs h_convex", dsl("abs(x-0.5)"), class_spec("h_convex", h=cat("recip_power", 0.5))),
        ("segment h_convex", segment(cat("power", 2.0), cat("identity"), 0.5, 0.8, 0.4).as_funcdef(),
         class_spec("h_convex", h=cat("power", 0.7))),
        ("power2 hm_convex", cat("power", 2.0), class_spec("hm_convex", h=cat("power", 0.9), m=0.7)),
        ("expm1 hm_convex", expm1, class_spec("hm_convex", h=t("t^1.2"), m=0.5)),
        ("sqrt hm_convex", cat("sqrt"), class_spec("hm_convex", h=cat("power", 2.0), m=0.6)),
        ("combine hm_convex", combine(cat("poly", 0.0, 0.0, 1.0), dsl("x^3"), 1.5, 0.25),
         class_spec("hm_convex", h=cat("identity"), m=0.4)),
        ("power2 phi_convex", cat("power", 2.0), class_spec("phi_convex", phi=cat("sqrt"))),
        ("expm1 phi_convex", expm1, class_spec("phi_convex", phi=cat("power", 2.0))),
        ("x^3 phi_convex", dsl("x^3"), class_spec("phi_convex", phi=dsl("x^0.5"))),
        ("power2.5 phi_h_convex", cat("power", 2.5),
         class_spec("phi_h_convex", h=cat("power", 0.5), phi=cat("power", 1.5))),
        ("compose phi_h_convex", compose_phi(cat("power", 2.0), cat("sqrt")),
         class_spec("phi_h_convex", h=t("t^0.6"), phi=cat("power", 2.0))),
        ("poly phi_hm_convex", cat("poly", 0.5, -1.0, 2.0, 0.5),
         class_spec("phi_hm_convex", h=cat("power", 1.2), m=0.75, phi=cat("power", 2.0))),
        ("xexp phi_hm_convex", dsl("x*exp(x)"),
         class_spec("phi_hm_convex", h=t("t"), m=0.5, phi=cat("sqrt"))),
        ("recip phi_hm_convex", dsl("1/(x+1) - 0.5*x^2"),
         class_spec("phi_hm_convex", h=t("t^0.4"), m=0.9, phi=dsl("x^2"))),
        ("segment phi_hm_convex", segment(dsl("exp(-x) + x^2"), cat("sqrt"), 0.7, 0.3, 0.9).as_funcdef(),
         class_spec("phi_hm_convex", h=cat("power", 0.8), m=0.6, phi=cat("power", 1.5))),
        ("compose m_convex", compose_phi(dsl("sqrt(x+0.25)"), cat("power", 2.0)),
         class_spec("m_convex", m=0.35)),
        ("phi escapes domain", cat("power", 2.0),
         class_spec("phi_convex", phi=dsl("2*x", (0.0, 1.0)))),
    ]


def _outcome(fn):
    try:
        return repr(fn())
    except Exception as exc:  # the golden pins raised errors as well
        return f"{type(exc).__name__}: {exc}"


def membership_report() -> str:
    from genconvex import certify_sampled, falsify

    lines = []
    for seed, (name, f, spec) in enumerate(_membership_pairs()):
        stats = {}
        lines.append(f"# {name}")
        lines.append("certify " + _outcome(lambda: certify_sampled(f, spec, n=200, seed=seed)))
        lines.append("falsify " + _outcome(lambda: falsify(f, spec, budget=700, seed=seed, stats_out=stats)))
        lines.append(f"stats {stats!r}")
    return "\n".join(lines) + "\n"


def test_membership_outputs_match_golden():
    assert membership_report() == (_GOLDEN / "membership.txt").read_text(encoding="utf-8")


# --------------------------------------------------------------------------
# Resolution of the two membership searches
# --------------------------------------------------------------------------
#
# ``golden/resolution.txt`` holds, for each class tag, the smallest width w
# of a dip that certify_sampled and falsify catch at their default sizes and
# seed 0.  The function is x^2 - 4w^2 exp(-((x - 0.37)/w)^2): x^2 is a member
# of every class below, and the dip's shoulders have f'' < 0 whatever w is.
# Each sweep goes down the widths and stops at its first miss; "none" means
# the widest dip was missed.  falsify's default budget is twice the
# certifier's default n, so its first phase repeats the certifier's scan and
# catches every dip the certifier catches; its sweep starts below the
# certifier's finest width.  h = t^0.999 and m = 0.999 keep the classes
# near convex: x^2's own slack, (h(t) - t) f and (1 - m) terms, grows with
# the distance from h = t and m = 1, and at h = t^0.5 or m = 0.5 it already
# hides the widest dip from both searches.  A change to either search must
# not raise these widths.

_DIP_WIDTHS = (0.05, 0.02, 0.01, 0.005, 0.002, 0.001)


def _resolution_specs():
    from genconvex import catalog, class_spec

    h, m, phi = catalog("power", (0.999,)), 0.999, catalog("power", (2.0,))
    return {
        "convex": class_spec("convex"),
        "m_convex": class_spec("m_convex", m=m),
        "h_convex": class_spec("h_convex", h=h),
        "hm_convex": class_spec("hm_convex", h=h, m=m),
        "phi_convex": class_spec("phi_convex", phi=phi),
        "phi_h_convex": class_spec("phi_h_convex", h=h, phi=phi),
        "phi_hm_convex": class_spec("phi_hm_convex", h=h, m=m, phi=phi),
    }


def _finest_caught(caught, widths=_DIP_WIDTHS, finest=None):
    for w in widths:
        if not caught(w):
            break
        finest = w
    return finest


def resolution_report() -> str:
    from genconvex import certify_sampled, falsify, func_from_expr
    from genconvex.classes import DEFAULT_CERTIFY_N, DEFAULT_FALSIFY_BUDGET

    assert DEFAULT_FALSIFY_BUDGET == 2 * DEFAULT_CERTIFY_N

    def dipped(w):
        return func_from_expr(f"x^2 - 4*{w!r}^2*exp(-((x - 0.37)/{w!r})^2)", None, (0.0, 1.0))

    lines = [f"{'tag':<14} {'certify':>8} {'falsify':>8}"]
    for tag, spec in _resolution_specs().items():
        certify = _finest_caught(lambda w: not certify_sampled(dipped(w), spec, seed=0).certified)
        below = _DIP_WIDTHS.index(certify) + 1 if certify else 0
        found = _finest_caught(lambda w: falsify(dipped(w), spec, seed=0) is not None,
                               _DIP_WIDTHS[below:], certify)
        lines.append(f"{tag:<14} {certify or 'none':>8} {found or 'none':>8}")
    return "\n".join(lines) + "\n"


def test_resolution_matches_golden():
    assert resolution_report() == (_GOLDEN / "resolution.txt").read_text(encoding="utf-8")


# --------------------------------------------------------------------------
# Verdicts of every bound, the reduction pairs and verify sweeps
# --------------------------------------------------------------------------
#
# ``golden/verdicts.txt`` holds the repr of each verdict below (a pass and a
# fail for all nine bounds, indeterminate verdicts of both causes, the
# precondition messages, deformed and product bounds), the repr of a
# check_reduction report for each pair, and the machine reports of verify
# runs and sweeps through the scenario runner.  reprs print every float to
# its last bit, so a reordered sum or a changed evaluation order shows here.

def _verdict_cases():
    from genconvex import (
        catalog, check_reduction, func_from_expr, verify_background,
        verify_t2_1, verify_t2_2, verify_t2_2dot, verify_t2_3,
    )

    def dsl(text, variable="x"):
        return func_from_expr(text, variable, (0.0, 1.0))

    square, ident, root = catalog("power", (2.0,)), catalog("identity"), catalog("sqrt")
    h_lin, h_sq, h_root = dsl("t", "t"), dsl("t^2", "t"), catalog("power", (0.5,))
    h_one, h_recip, h_steep = catalog("constant", (1.0,)), catalog("recip_power", (1.0,)), catalog("power", (-0.9,))
    ln, cusp, pole = dsl("ln(x)"), dsl("abs(x-0.3)^0.5"), dsl("1/(x-0.5)")
    phi_sq, phi_half = catalog("power", (2.0,)), catalog("affine", (0.0, 0.5))
    g_aff = catalog("affine", (0.2, 0.6))
    return [
        # a pass and a fail for every bound
        ("T2_1 pass", lambda: verify_t2_1(square, h_lin, 0.7, None, 0.1, 0.9)),
        ("T2_1 fail", lambda: verify_t2_1(root, h_sq, 1.0, None, 0.0, 1.0)),
        ("T2_2dot pass", lambda: verify_t2_2dot(square, h_root, 0.6, None, 0.05, 0.95)),
        ("T2_2dot fail", lambda: verify_t2_2dot(root, h_sq)),
        ("T2_2 pass", lambda: verify_t2_2(square, h_lin, 0.5, None, 0.2, 1.0)),
        ("T2_2 fail", lambda: verify_t2_2(root, h_sq, 0.8, None, 0.1, 1.0)),
        ("T2_3 pass", lambda: verify_t2_3(square, g_aff, h_lin, 0.9, None, 0.1, 0.8)),
        ("T2_3 fail", lambda: verify_t2_3(root, root, h_sq)),
        ("HC pass", lambda: verify_background("HC", square, a=0.1, b=0.7)),
        ("HC fail", lambda: verify_background("HC", root)),
        ("T1_9 pass", lambda: verify_background("T1_9", square, h=h_lin, a=0.2, b=0.9)),
        ("T1_9 fail", lambda: verify_background("T1_9", root, h=h_sq)),
        ("T1_11 pass", lambda: verify_background("T1_11", square, h=h_root, m=0.6, a=0.1, b=1.0)),
        ("T1_11 fail", lambda: verify_background("T1_11", root, h=h_sq, m=0.8, a=0.1)),
        ("T1_13 pass", lambda: verify_background("T1_13", square, h=h_lin, a=0.1, b=0.9)),
        ("T1_13 fail", lambda: verify_background("T1_13", root, h=h_sq)),
        ("T1_14 pass", lambda: verify_background("T1_14", square, h=h_lin, g=g_aff, a=0.0, b=0.8)),
        ("T1_14 fail", lambda: verify_background("T1_14", root, g=root, h=h_sq)),
        # deformed bounds
        ("T2_1 phi", lambda: verify_t2_1(square, h_root, 0.9, phi_sq, 0.2, 1.0)),
        ("T2_2dot phi", lambda: verify_t2_2dot(square, h_lin, 0.8, phi_half, 0.1, 1.0)),
        ("T2_2 phi", lambda: verify_t2_2(ident, h_lin, 0.7, phi_sq, 0.3, 1.0)),
        ("T2_3 phi", lambda: verify_t2_3(square, ident, h_lin, 0.75, phi_sq, 0.1, 0.9)),
        ("T1_13 phi", lambda: verify_background("T1_13", square, h=h_root, phi=phi_sq, a=0.2, b=0.9)),
        ("T1_14 phi", lambda: verify_background("T1_14", square, g=ident, h=h_lin, phi=phi_half, a=0.1, b=1.0)),
        # indeterminate: a domain or integrand error, named by the first to occur
        ("T2_2dot ln at 0", lambda: verify_t2_2dot(ln, h_lin)),
        ("T2_1 pole and 1/t", lambda: verify_t2_1(pole, h_recip)),
        ("T2_1 1/t", lambda: verify_t2_1(square, h_recip)),
        ("T2_3 ln g and 1/t", lambda: verify_t2_3(square, ln, h_recip, 0.9, None, 0.0, 1.0)),
        ("HC ln at 0", lambda: verify_background("HC", ln)),
        ("T1_9 ln at 0 and 1/t", lambda: verify_background("T1_9", ln, h=h_recip)),
        # a pass: the folded mx never evaluates h(1 - t) at 1 - t = 0
        ("T1_13 t^-0.45", lambda: verify_background("T1_13", square, h=catalog("power", (-0.45,)))),
        # indeterminate: the quadrature budget runs out
        ("T2_2dot budget", lambda: verify_t2_2dot(square, h_steep, budget=200)),
        ("T2_2 budget", lambda: verify_t2_2(square, h_steep, 0.5, None, 0.2, 1.0, budget=200)),
        ("T1_11 budget", lambda: verify_background("T1_11", square, h=h_steep, m=0.5, a=0.2, budget=200)),
        ("HC budget", lambda: verify_background("HC", cusp, budget=45)),
        ("T1_9 budget on m1", lambda: verify_background("T1_9", square, h=h_steep, budget=200)),
        ("T1_9 budget on both", lambda: verify_background("T1_9", cusp, h=h_steep, budget=45)),
        ("T2_3 budget", lambda: verify_t2_3(cusp, ident, h_lin, 1.0, None, 0.0, 1.0, budget=45)),
        ("T1_14 budget", lambda: verify_background("T1_14", cusp, g=ident, h=h_lin, budget=45)),
        # preconditions
        ("T2_1 orientation", lambda: verify_t2_1(square, h_lin, 0.5, None, 0.6, 1.0)),
        ("T2_2 negative phi(x)", lambda: verify_t2_2(ident, h_lin, 1.0, catalog("affine", (-0.5, 1.0)), 0.0, 1.0)),
        ("T2_2 orientation", lambda: verify_t2_2(square, h_lin, 0.5, None, 0.6, 1.0)),
        ("HC orientation", lambda: verify_background("HC", square, a=0.5, b=0.5)),
        ("T1_11 negative a", lambda: verify_background("T1_11", ident, h=h_lin, m=0.5, a=-0.1)),
        ("T1_11 orientation", lambda: verify_background("T1_11", ident, h=h_lin, m=0.5, a=0.6)),
        ("T1_13 orientation", lambda: verify_background("T1_13", square, h=h_lin, phi=phi_sq, a=0.9, b=0.3)),
        # reductions
        ("T2_1_vs_T1_13", lambda: check_reduction("T2_1_vs_T1_13", [
            dict(f=square, h=h_lin, x=0.0, y=1.0),
            dict(f=root, h=h_root, x=0.25, y=1.0),
            dict(f=square, h=h_lin, phi=phi_half, x=0.2, y=1.0),
        ])),
        ("T2_2dot_vs_T1_9", lambda: check_reduction("T2_2dot_vs_T1_9", [
            dict(f=square, h=h_lin, x=0.0, y=1.0),
            dict(f=ident, h=h_sq, x=0.1, y=0.9, phi=phi_sq),
            dict(f=root, h=h_one, x=0.25, y=1.0),
        ])),
        ("T2_2_vs_T1_11", lambda: check_reduction("T2_2_vs_T1_11", [
            dict(f=ident, h=h_lin, m=0.5, x=0.0, y=1.0),
            dict(f=square, h=h_root, m=0.8, x=0.1, y=0.9),
            dict(f=square, h=h_one, m=1.0, x=0.2, y=1.0),
        ])),
        ("T2_3_vs_T1_14", lambda: check_reduction("T2_3_vs_T1_14", [
            dict(f=square, g=ident, h=h_lin, x=0.0, y=1.0),
            dict(f=root, g=g_aff, h=h_sq, phi=phi_sq, x=0.1, y=0.9),
        ])),
        ("T2_2dot_vs_T1_9 indeterminate", lambda: check_reduction("T2_2dot_vs_T1_9", [
            dict(f=square, h=h_lin, x=0.0, y=1.0),
            dict(f=square, h=h_recip, x=0.0, y=1.0),
        ])),
    ]


def _verify_scenarios():
    functions = {"f": "x^2 + 0.5*x", "g": {"family": "affine", "params": [0.3, 0.5]},
                 "h": "t^0.8", "phi": {"family": "power", "params": [1.5]}}
    scenarios = [
        {"name": f"verify-{theorem}", "command": "verify", "theorem": theorem,
         "functions": functions, "m": 0.8, "points": {"x": 0.1, "y": 0.95}}
        for theorem in ("T2_1", "T2_2dot", "T2_2", "T2_3", "HC", "T1_9", "T1_11", "T1_13", "T1_14")
    ]
    scenarios.append({
        "name": "sweep-m-s-x", "command": "sweep", "theorem": "T2_2dot",
        "functions": {"f": "x^2", "h": {"family": "power", "params": [1]}},
        "points": {"x": 0.0, "y": 1.0},
        "axes": [{"param": "m", "values": [0.5, 1.0]},
                 {"param": "s", "values": [0.5, 2.0]},
                 {"param": "x", "values": [0.0, 0.6]}],
    })
    scenarios.append({
        "name": "sweep-product-deformed", "command": "sweep", "theorem": "T2_3",
        "functions": {"f": "x^2", "g": "x", "h": {"family": "power", "params": [1]},
                      "phi": {"family": "sqrt"}},
        "points": {"x": 0.1, "y": 0.9},
        "axes": [{"param": "s", "values": [0.5, 1.0, 0.5]},
                 {"param": "y", "values": [0.9, 0.05]}],
    })
    scenarios.append({
        "name": "sweep-background", "command": "sweep", "theorem": "T1_11",
        "functions": {"f": "x^2", "h": {"family": "power", "params": [1]}},
        "axes": [{"param": "m", "values": [0.6, 0.9]},
                 {"param": "x", "values": [0.1, 0.7]}],
    })
    return scenarios


def verdicts_report() -> str:
    lines = []
    for name, fn in _verdict_cases():
        lines.append(f"# {name}")
        lines.append(_outcome(fn))
    for raw in _verify_scenarios():
        lines.append(f"# scenario {raw['name']}")
        lines.append(dump_machine(run_scenario(normalize_scenario(raw))).rstrip("\n"))
    return "\n".join(lines) + "\n"


def test_verdicts_match_golden():
    assert verdicts_report() == (_GOLDEN / "verdicts.txt").read_text(encoding="utf-8")


def _mean_of_square(a, b):
    """The mean of u^2 over [a, b]."""
    return (a * a + a * b + b * b) / 3.0


def _mean_of_reflected_squares(a, b):
    """The mean of u^2 (a + b - u)^2 over [a, b]."""
    c = a + b
    antiderivative = lambda u: c * c * u ** 3 / 3.0 - c * u ** 4 / 2.0 + u ** 5 / 5.0  # noqa: E731
    return (antiderivative(b) - antiderivative(a)) / (b - a)


def _check_closed_form(case, field, exact, status):
    lines = (_GOLDEN / "verdicts.txt").read_text(encoding="utf-8").splitlines()
    verdict = lines[lines.index(f"# {case}") + 1]
    fields = dict(re.findall(r"\b(lhs|rhs|quad_err|status)=([^,]+)", verdict))
    assert fields["status"] == repr(status)
    assert abs(float(fields[field]) - exact) <= float(fields["quad_err"])


# Each golden verdict whose lhs or quad_err digits moved when the GK15 nodes
# came to be placed from the panel ends: (case, lhs, status).  f is sqrt or
# x^2, or the identity with phi = x^2; T2_2 and T1_11 average f over
# [m*a, b] and [a, m*b] and divide by m + 1; T2_1 and T1_13 take the mean of
# f(u) f(a + b - u).
_SQUARE_OVER_TWO_AVERAGES = (_mean_of_square(0.1, 1.0) + _mean_of_square(0.2, 0.5)) / 1.5  # m = 0.5
_MOVED_VERDICTS = [
    ("T2_1 fail", math.pi / 8.0, "fail"),  # int sqrt(u) sqrt(1 - u) over [0, 1]
    ("T1_13 fail", math.pi / 8.0, "fail"),
    ("T2_2dot pass", _mean_of_square(0.05, 0.6 * 0.95), "pass"),
    ("T2_2 pass", _SQUARE_OVER_TWO_AVERAGES, "pass"),
    ("T2_2 budget", _SQUARE_OVER_TWO_AVERAGES, "indeterminate"),
    ("T1_11 budget", _SQUARE_OVER_TWO_AVERAGES, "indeterminate"),
    ("T1_13 pass", _mean_of_reflected_squares(0.1, 0.9), "pass"),
    ("T2_1 phi", _mean_of_reflected_squares(0.2 ** 2, 0.9), "pass"),
    ("T2_2 phi", ((0.7 * 0.3 ** 2 + 1.0) / 2.0 + (0.3 ** 2 + 0.7) / 2.0) / 1.7, "pass"),
]


@pytest.mark.parametrize("case, exact, status", _MOVED_VERDICTS, ids=[c[0] for c in _MOVED_VERDICTS])
def test_a_moved_verdict_matches_its_closed_form(case, exact, status):
    _check_closed_form(case, "lhs", exact, status)


def test_t1_13_verdict_of_a_singular_weight_matches_the_closed_form():
    # with f = x^2 on [0, 1] and phi the identity, T1_13's rhs is mx of h,
    # here Gamma(0.55)^2 / Gamma(1.1) for h = t^-0.45
    _check_closed_form("T1_13 t^-0.45", "rhs", math.gamma(0.55) ** 2 / math.gamma(1.1), "pass")
