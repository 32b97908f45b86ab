"""Machine reports of the sample scenarios, and library-level membership
outputs, pinned byte for byte.

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


# --------------------------------------------------------------------------
# Library-level membership outputs
# --------------------------------------------------------------------------
#
# ``golden/membership.txt`` holds, for each fixed (f, spec) pair below, the
# repr of certify_sampled (n=200) and of falsify (budget 700, with its probe
# counts), as written before FuncDef evaluation was compiled.  The pairs mix
# DSL, catalog and algebra functions over all seven class tags, including
# probes that are skipped and a phi that escapes the class domain.

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
