"""Spans and counters recorded around genconvex's public functions.

The tracer replaces public functions with timing wrappers in every module
namespace that imports them (so ``theorems.integrate`` and ``cli.h_moments``
are covered as well as ``quad.integrate``), plus the two evaluation entry
points ``FuncDef.__call__`` and ``DerivedSource.__call__``.  Each wrapper
keeps a frame on one stack; a frame's self time is its duration minus the
time of the frames it encloses.  Coarse calls (jobs, CLI phases, verifiers,
certify/falsify, h_moments) are also kept as spans; per-evaluation frames
are only aggregated.  ``uninstall`` restores every original.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter_ns

LAYERS = ("funcdsl", "algebra", "quad", "classes", "theorems", "cli", "bench")

# (module, attribute, op, span); op names start with their layer
_FUNCTIONS = [
    (mod, name, op, span)
    for names, op, span, mods in (
        (("func_from_expr", "catalog"), "funcdsl.build", False, ("funcdsl", "cli", "classes", "package")),
        (("combine", "compose_phi", "segment"), "algebra.build", False, ("algebra", "package")),
        (("integrate",), "quad.integrate", False, ("quad", "theorems", "package")),
        (("h_moments",), "quad.h_moments", True, ("quad", "theorems", "cli", "package")),
        (("certify_sampled", "falsify"), "classes.scan", True, ("classes", "cli", "package")),
        (("verify_t2_1", "verify_t2_2dot", "verify_t2_2", "verify_t2_3", "verify_background"),
         "theorems.verify", True, ("theorems", "cli", "package")),
        (("check_reduction",), "theorems.reduction", True, ("theorems", "cli", "package")),
        (("normalize_scenario",), "cli.normalize", True, ("cli",)),
        (("run_scenario",), "cli.run", True, ("cli",)),
        (("dump_machine",), "cli.emit", True, ("cli",)),
    )
    for name in names
    for mod in mods
]


class Tracer:
    def __init__(self):
        self.stack = [[0, None]]  # frames: [child ns, enclosing span id]
        self.calls = Counter()
        self.incl_ns = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self.spans = []
        self.moment_keys = set()
        self.job = None
        self.origin = perf_counter_ns()
        self._saved = []

    # -- frames ----------------------------------------------------------

    def _enter(self, span_name):
        sid = None
        if span_name is not None:
            sid = len(self.spans)
            self.spans.append([sid, self.stack[-1][1], span_name, self.job, 0, 0])
        frame = [0, sid if sid is not None else self.stack[-1][1]]
        self.stack.append(frame)
        return frame, sid

    def _exit(self, op, frame, sid, start, end):
        self.stack.pop()
        duration = end - start
        self.stack[-1][0] += duration
        self.calls[op] += 1
        self.incl_ns[op] += duration
        self.self_ns[op] += duration - frame[0]
        if sid is not None:
            self.spans[sid][4] = start - self.origin
            self.spans[sid][5] = end - self.origin

    def run_job(self, index, fn, *args):
        self.job = index
        frame, sid = self._enter("job")
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self._exit("bench.job", frame, sid, start, perf_counter_ns())

    def _wrap(self, op, fn, span):
        tracer = self
        after = getattr(self, "_after_" + op.replace(".", "_"), None)

        def traced(*args, **kwargs):
            frame, sid = tracer._enter(fn.__name__ if span else None)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer._exit(op, frame, sid, start, perf_counter_ns())
                if op == "quad.integrate":
                    tracer.counts["quad.errors"] += 1
                raise
            tracer._exit(op, frame, sid, start, perf_counter_ns())
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_eval(self, op, fn):
        """Lean wrapper for the per-evaluation hot path (no span, no hook)."""
        stack = self.stack
        calls, incl, self_ns = self.calls, self.incl_ns, self.self_ns

        def traced(obj, u):
            frame = [0, stack[-1][1]]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(obj, u)
            finally:
                duration = perf_counter_ns() - start
                stack.pop()
                stack[-1][0] += duration
                calls[op] += 1
                incl[op] += duration
                self_ns[op] += duration - frame[0]

        return traced

    # -- counters taken from results -------------------------------------

    def _after_quad_integrate(self, args, kwargs, result):
        self.counts["quad.evals"] += result.evaluations

    def _after_quad_h_moments(self, args, kwargs, result):
        h = args[0]
        key = (getattr(h, "label", id(h)), getattr(h, "domain", None), args[1:], tuple(sorted(kwargs.items())))
        if key in self.moment_keys:
            self.counts["quad.h_moments_repeats"] += 1
        self.moment_keys.add(key)

    def _after_classes_scan(self, args, kwargs, result):
        if result is not None and hasattr(result, "samples_ok"):
            self.counts["classes.probes_ok"] += result.samples_ok
            self.counts["classes.probes_skipped"] += result.samples_skipped

    def _after_theorems_verify(self, args, kwargs, result):
        self.counts["theorems.indeterminate"] += result.status == "indeterminate"

    def _after_cli_run(self, args, kwargs, result):
        self.counts["cli.cells"] += sum(item["kind"] == "cell" for item in result["items"])

    def _after_cli_emit(self, args, kwargs, result):
        self.counts["cli.report_bytes"] += len(result.encode("utf-8"))

    # -- install / uninstall ---------------------------------------------

    def install(self, gc):
        wrappers = {}
        for mod, name, op, span in _FUNCTIONS:
            module = getattr(gc, mod)
            original = getattr(module, name, None)
            if original is None:  # this module does not import that name
                continue
            if name == "falsify":
                wrapped = wrappers.setdefault(id(original), self._wrap_falsify(original))
            else:
                wrapped = wrappers.setdefault(id(original), self._wrap(op, original, span))
            self._saved.append((module, name, original))
            setattr(module, name, wrapped)
        for cls, op in ((gc.funcdsl.FuncDef, "funcdsl.eval"), (gc.funcdsl.DerivedSource, "algebra.eval")):
            self._saved.append((cls, "__call__", cls.__dict__["__call__"]))
            cls.__call__ = self._wrap_eval(op, cls.__dict__["__call__"])

    def _wrap_falsify(self, original):
        """falsify reports its probe counts only through ``stats_out``."""
        tracer = self
        inner = self._wrap("classes.scan", original, True)

        def falsify(*args, stats_out=None, **kwargs):
            stats = {} if stats_out is None else stats_out
            result = inner(*args, stats_out=stats, **kwargs)
            tracer.counts["classes.probes_ok"] += stats.get("probes_ok", 0)
            tracer.counts["classes.probes_skipped"] += stats.get("probes_skipped", 0)
            return result

        falsify.__wrapped__ = original
        return falsify

    def uninstall(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    # -- results ---------------------------------------------------------

    def layer_self_s(self):
        totals = defaultdict(int)
        for op, ns in self.self_ns.items():
            totals[op.split(".")[0]] += ns
        return {layer: totals[layer] / 1e9 for layer in LAYERS}

    def metrics(self):
        c, calls, incl, own = self.counts, self.calls, self.incl_ns, self.self_ns

        def per(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        probes = c["classes.probes_ok"] + c["classes.probes_skipped"]
        layer = self.layer_self_s()
        return {
            "funcdsl.eval_ns": (per(own["funcdsl.eval"], calls["funcdsl.eval"]), "ns"),
            "funcdsl.calls": (calls["funcdsl.eval"], "count"),
            "funcdsl.build_us": (per(incl["funcdsl.build"], calls["funcdsl.build"], 1e-3), "us"),
            "algebra.eval_ns": (per(own["algebra.eval"], calls["algebra.eval"]), "ns"),
            "quad.integrate_calls": (calls["quad.integrate"], "count"),
            "quad.evals": (c["quad.evals"], "count"),
            "quad.self_s": (layer["quad"], "s"),
            "quad.errors": (c["quad.errors"], "count"),
            "quad.h_moments_calls": (calls["quad.h_moments"], "count"),
            "quad.h_moments_repeat_share": (per(c["quad.h_moments_repeats"], calls["quad.h_moments"]), "share"),
            "classes.probes": (probes, "count"),
            "classes.probe_ok_ratio": (per(c["classes.probes_ok"], probes), "share"),
            "classes.ns_per_probe": (per(own["classes.scan"], probes), "ns"),
            "classes.self_s": (layer["classes"], "s"),
            "theorems.verify_calls": (calls["theorems.verify"], "count"),
            "theorems.self_s": (layer["theorems"], "s"),
            "theorems.reduction_s": (incl["theorems.reduction"] / 1e9, "s"),
            "theorems.indeterminate": (c["theorems.indeterminate"], "count"),
            "cli.normalize_ms": (per(incl["cli.normalize"], calls["cli.normalize"], 1e-6), "ms"),
            "cli.sweep_cell_us": (per(own["cli.run"], c["cli.cells"], 1e-3), "us"),
            "cli.emit_ms": (per(incl["cli.emit"], calls["cli.emit"], 1e-6), "ms"),
            "cli.report_bytes": (c["cli.report_bytes"], "bytes"),
        }

    def write(self, path, meta):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"type": "meta", **meta}) + "\n")
            for sid, parent, name, job, start, end in self.spans:
                fh.write(json.dumps({"type": "span", "id": sid, "parent": parent, "name": name,
                                     "job": job, "start_ns": start, "end_ns": end}) + "\n")
            for op in sorted(self.calls):
                fh.write(json.dumps({"type": "op", "op": op, "calls": self.calls[op],
                                     "incl_s": self.incl_ns[op] / 1e9,
                                     "self_s": self.self_ns[op] / 1e9}) + "\n")
            fh.write(json.dumps({"type": "layers", "self_s": self.layer_self_s()}) + "\n")
            fh.write(json.dumps({"type": "counters", **dict(sorted(self.counts.items()))}) + "\n")
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in self.metrics().items()}
            fh.write(json.dumps({"type": "metrics", **metrics}) + "\n")
