"""Checks of every job's output that use no genconvex code.

Weights are h(t) = t^s, whose moments have closed forms (mpmath, 20
digits).  Averages of polynomials use their antiderivatives; every other
integrand goes to mpmath's tanh-sinh ``quad`` in double precision
(``mpmath.fp.quad``, within 1e-15 of a 20-digit run on these smooth
integrands, and ten times faster).  Membership results are checked by
recomputing the defect at each reported point from the benchmark's own
formulas for f, h and phi, and against the cases theory decides.

Nothing is stored, so there is nothing to regenerate: every reference
value is computed again on each run.
"""

from __future__ import annotations

import functools

from mpmath import fp, mp

from funcs import poly_average, poly_mul, poly_reflect
from workloads import CERTIFY_N, H_TAGS, M_TAGS, PHI_TAGS

mp.dps = 20

DEFECT_TOL = 1e-9  # genconvex's default counterexample tolerance
REPORT_TOL = 1e-9  # genconvex's default report tolerance
SLACK = 1e-9  # relative room for the oracle's own rounding
BOUNDARY_GRID = 7 * 7 * 5  # certify_sampled's fixed boundary-biased probes


@functools.lru_cache(maxsize=None)
def weight_moments(s):
    """(m1, m2, mx) of h(t) = t^s on (0, 1); m2 is inf when it diverges."""
    s = mp.mpf(s)
    m1 = 1 / (s + 1)
    m2 = 1 / (2 * s + 1) if s > -0.5 else mp.inf
    mx = mp.gamma(s + 1) ** 2 / mp.gamma(2 * s + 2)
    return m1, m2, mx


class Oracle:
    def __init__(self):
        self._averages = {}

    # -- integrals -------------------------------------------------------

    def _average(self, key, poly, integrand, a, b):
        """Average over [a, b] (floats, as genconvex forms them)."""
        memo = (key, a, b)
        if memo not in self._averages:
            if poly is not None:
                value = poly_average([mp.mpf(c) for c in poly], mp.mpf(a), mp.mpf(b))
            else:
                value = mp.mpf(fp.quad(integrand, [a, b])) / (mp.mpf(b) - mp.mpf(a))
            self._averages[memo] = value
        return self._averages[memo]

    def mean(self, f, a, b):
        return self._average(("mean", f), f.poly(), f.ev, a, b)

    def reflected(self, f, a, b):
        p = f.poly()
        c = a + b
        if p is not None:
            p = poly_mul([mp.mpf(v) for v in p], poly_reflect([mp.mpf(v) for v in p], mp.mpf(c)))
        return self._average(("reflected", f), p, lambda u: f.ev(u) * f.ev(c - u), a, b)

    def product(self, f, g, a, b):
        p, q = f.poly(), g.poly()
        prod = poly_mul(p, q) if p is not None and q is not None else None
        return self._average(("product", f, g), prod, lambda u: f.ev(u) * g.ev(u), a, b)

    # -- verdicts --------------------------------------------------------

    def bound(self, theorem, f, g, s, m, x, y):
        """(lhs, rhs) of a main bound with phi = identity, exactly as stated."""
        m1, m2, mx = weight_moments(s)
        fx, fy = mp.mpf(f.ev(x)), mp.mpf(f.ev(y))
        mm = mp.mpf(m)
        if theorem == "T2_1":
            lhs = self.reflected(f, x, m * y)
            rhs = (fx**2 + mm**2 * fy**2) * mx + fx * fy * (mm + 1) * m2
        elif theorem == "T2_2dot":
            lhs = self.mean(f, x, m * y)
            rhs = (fx + fy) * m1
        elif theorem == "T2_2":
            lhs = (self.mean(f, m * x, y) + self.mean(f, x, m * y)) / (mm + 1)
            rhs = (fx + fy) * m1
        else:
            gx, gy = mp.mpf(g.ev(x)), mp.mpf(g.ev(y))
            lhs = self.product(f, g, x, m * y)
            big_m = fx * gx + mm**2 * fy * gy
            big_n = fx * gy + fy * gx
            rhs = big_m * m2 + mm * big_n * mx
        return lhs, rhs

    def check_verdict(self, item, theorem, f, g, s, m, x, y):
        """None when the verdict agrees with the oracle, else the reason."""
        lhs_o, rhs_o = self.bound(theorem, f, g, s, m, x, y)
        if item["status"] == "indeterminate":
            note = item["notes"][0] if item["notes"] else ""
            return f"indeterminate where the oracle is finite ({note})"
        err = item["quad_err"]
        for side, got, want in (("lhs", item["lhs"], lhs_o), ("rhs", item["rhs"], rhs_o)):
            if not abs(got - want) <= err + SLACK * max(1, abs(want)):
                return f"{side}={got!r} but the oracle gives {float(want)!r}"
        margin = rhs_o - lhs_o
        clear = 2 * (err + SLACK * max(1, abs(lhs_o), abs(rhs_o))) + REPORT_TOL
        if margin > clear and item["status"] != "pass":
            return f"status {item['status']} but the oracle margin is {float(margin)!r}"
        if margin < -clear and item["status"] != "fail":
            return f"status {item['status']} but the oracle margin is {float(margin)!r}"
        return None

    # -- jobs ------------------------------------------------------------

    def check(self, job, output):
        """None when the job's output is right, else the reason."""
        if isinstance(output, BaseException):
            return f"raised {type(output).__name__}: {output}"
        if job.kind in ("certify", "falsify"):
            return check_membership(job, output)
        items = output["items"]
        raw = job.params["raw"]
        if job.kind == "reduce":
            item = items[0]
            if item["indeterminate"] or not item["passed"]:
                return f"reduction {item['pair']} did not agree: {item}"
            if max(item["max_dev_lhs"], item["max_dev_rhs"]) > item["max_allowance"]:
                return "reduction deviation above its allowance"
            return None
        fns = job.params["functions"]
        theorem = job.params["theorem"]
        x, y = raw["points"]["x"], raw["points"]["y"]
        if job.kind == "verify":
            return self.check_verdict(items[0], theorem, fns["f"], fns.get("g"), job.params["weights"][0],
                                      raw["m"], x, y)
        cells = 1
        for axis in raw["axes"]:
            cells *= len(axis["values"])
        if len(items) != cells:
            return f"{len(items)} cells, expected {cells}"
        for cell in items:
            axes = cell["axes"]
            if cell["result"]["kind"] != "verdict":
                return f"cell {cell['cell_index']}: {cell['result']}"
            reason = self.check_verdict(cell["result"], theorem, fns["f"], fns.get("g"), axes["s"],
                                        axes.get("m", raw["m"]), axes.get("x", x), y)
            if reason:
                return f"cell {cell['cell_index']} {axes}: {reason}"
        return None


# --------------------------------------------------------------------------
# membership
# --------------------------------------------------------------------------

def _defect(job, x, y, t):
    """(defect, lhs, rhs) from the benchmark's own formulas."""
    p = job.params
    f = p["f"]
    h = p["h"].ev if p["tag"] in H_TAGS else (lambda u: u)
    phi = p["phi"].ev if p["tag"] in PHI_TAGS else (lambda u: u)
    m = p["m"] if p["tag"] in M_TAGS else 1.0
    px, py = phi(x), phi(y)
    blend = min(max(t * px + m * (1.0 - t) * py, 0.0), 1.0)
    rhs = h(t) * f.ev(px) + m * h(1.0 - t) * f.ev(py)
    lhs = f.ev(blend)
    return rhs - lhs, lhs, rhs


def _close(got, want, scale):
    return abs(got - want) <= 1e-12 * max(1.0, scale)


def check_membership(job, result):
    case = job.case
    if job.kind == "certify":
        expected = BOUNDARY_GRID + job.params.get("n", CERTIFY_N)
        if result.samples_ok + result.samples_skipped != expected:
            return f"{result.samples_ok}+{result.samples_skipped} probes, expected {expected}"
        if result.certified != (result.min_defect >= -DEFECT_TOL):
            return "certified flag disagrees with min_defect"
        d, lhs, rhs = _defect(job, *result.argmin)
        if not _close(result.min_defect, d, abs(lhs) + abs(rhs)):
            return f"min_defect {result.min_defect!r} but the defect at argmin is {d!r}"
        if case == "member" and not result.certified:
            return "a member of the class was not certified"
        if case == "nonmember" and result.certified:
            return "a concave non-affine function was certified convex"
        return None
    if result is None:
        return "no counterexample for a concave non-affine function" if case == "nonmember" else None
    if case == "member":
        return f"counterexample {result} for a member of the class"
    if not result.defect < -DEFECT_TOL:
        return f"witness defect {result.defect!r} is not below the tolerance"
    d, lhs, rhs = _defect(job, result.x, result.y, result.t)
    scale = abs(lhs) + abs(rhs)
    if not (_close(result.defect, d, scale) and _close(result.lhs, lhs, scale) and _close(result.rhs, rhs, scale)):
        return f"witness {result} but the oracle gives defect {d!r}"
    return None
