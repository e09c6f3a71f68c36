"""Span tracing of cyclokit's public functions, installed from outside.

install() replaces every module-level binding of each function named in
LAYERS -- in the defining module and in every cyclokit module that imported
the name -- with a wrapper that records a span.  Python looks globals up at
call time, so calls made inside the library pass through the wrappers too,
and the library's source stays untouched.

A span is [name, start_ns, end_ns, parent, op_id]; parent is the index of the
enclosing span within the same op, or -1.  Spans are kept in memory per op,
folded into per-function totals when the op ends, and a bounded sample of
them is kept for the trace file written at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter_ns

LAYERS = {
    "numtheory": ("totient_sieve", "factorize", "ramanujan_sum", "jordan_totient", "euler_phi"),
    "combinat": (
        "bell_complete",
        "partitions_into_parts",
        "stirling_first",
        "stirling_second",
        "exp_transform",
    ),
    "polyring": (
        "cyclotomic",
        "cyclotomic_value",
        "poly_div_exact",
        "multiplicity",
        "log_derivative_values",
        "eval_at_root_of_unity",
    ),
    "cycloderiv": (
        "log_deriv_phi_at_zero",
        "log_deriv_phi_at_one",
        "log_deriv_phi_at_minus_one",
        "phi_derivs_at_one",
    ),
    "cyclocoeffs": ("coeff_direct", "coeff_moller", "coeff_prefix_recurrence", "coeff_bell"),
    "kronecker": (
        "certify",
        "factor_kronecker",
        "cyclotomic_candidates",
        "sign_tests",
        "odd_identity_check",
        "excluded_set",
        "mu_C",
        "even_bound_check",
    ),
    "semigroup": (
        "from_generators",
        "from_gaps",
        "is_symmetric",
        "semigroup_polynomial",
        "is_cyclotomic",
        "noncyclotomic_symmetric_with_frobenius",
        "fk_gcd_pattern",
    ),
    "cli": ("main",),
}

# verdict reasons of kronecker.certify; "kronecker" stands for a positive verdict
DECIDED_BY = (
    "kronecker",
    "negative_at_one",
    "negative_at_minus_one",
    "negative_at_point",
    "odd_identity_violation",
    "even_bound_violation",
    "nontrivial_remainder",
)

SPAN_SAMPLE_CAP = 20000


def per_layer_specs() -> list[dict]:
    """Every per-layer metric the traced run reports, with unit and direction."""
    out = []
    for layer, funcs in LAYERS.items():
        for fn in funcs:
            out.append({"name": f"{layer}.{fn}.calls_per_op", "unit": "calls/op", "better": "lower"})
            out.append({"name": f"{layer}.{fn}.self_ms_per_op", "unit": "ms/op", "better": "lower"})
        out.append({"name": f"{layer}.self_ms_per_op", "unit": "ms/op", "better": "lower"})
    out += [
        {"name": "numtheory.totient_sieve.entries", "unit": "count", "better": "lower"},
        {"name": "polyring.cyclotomic.cache_hit_ratio", "unit": "ratio", "better": "higher"},
        {"name": "polyring.poly_div_exact.hit_ratio", "unit": "ratio", "better": "higher"},
        {"name": "kronecker.candidates_per_op", "unit": "count/op", "better": "lower"},
        {"name": "kronecker.screen_pass_ratio", "unit": "ratio", "better": "lower"},
    ]
    for reason in DECIDED_BY:
        better = "lower" if reason == "nontrivial_remainder" else "higher"
        out.append({"name": f"kronecker.decided_by.{reason}", "unit": "count/op", "better": better})
    out += [
        {"name": "cli.import_ms", "unit": "ms", "better": "lower"},
        {"name": "cli.process_ms", "unit": "ms", "better": "lower"},
        {"name": "trace.overhead_frac", "unit": "frac", "better": "lower"},
    ]
    return out


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover (overlapping children are counted once)."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0
        reach = start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


class Tracer:
    """Span store and per-function totals for one process."""

    def __init__(self):
        self.op_id = -1
        self.op_spans: list[list] = []
        self.current = -1
        self.sample: list[list] = []
        self.spans_dropped = 0
        self.ops = 0
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.originals: dict = {}

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.op_spans = []
        self.current = -1

    def end_op(self) -> None:
        spans = self.op_spans
        for span, self_ns in zip(spans, self_times(spans)):
            self.calls[span[0]] += 1
            self.self_ns[span[0]] += self_ns
        room = SPAN_SAMPLE_CAP - len(self.sample)
        self.sample += spans[:room]
        self.spans_dropped += max(0, len(spans) - room)
        self.op_spans = []
        self.current = -1
        self.ops += 1

    def has_ancestor(self, index: int, name: str) -> bool:
        spans = self.op_spans
        parent = spans[index][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def totals(self) -> dict:
        return {
            "ops": self.ops,
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "counts": dict(self.counts),
        }

    def wrap(self, name: str, fn):
        on_return = _ON_RETURN.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.op_spans
            index = len(spans)
            span = [name, 0, 0, self.current, self.op_id]
            spans.append(span)
            self.current = index
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                self.current = span[3]
            if on_return is not None:
                on_return(self, index, result)
            return result

        return traced


def _on_division(tracer: Tracer, index: int, result) -> None:
    tracer.counts["divisions"] += 1
    if result is not None:
        tracer.counts["divisions_exact"] += 1
    if tracer.has_ancestor(index, "kronecker.factor_kronecker"):
        tracer.counts["divisions_in_factor_kronecker"] += 1


def _on_candidates(tracer: Tracer, index: int, result) -> None:
    tracer.counts["candidates"] += len(result)


def _on_certify(tracer: Tracer, index: int, result) -> None:
    tracer.counts["decided_by." + (result.reason or result.verdict)] += 1


_ON_RETURN = {
    "polyring.poly_div_exact": _on_division,
    "kronecker.cyclotomic_candidates": _on_candidates,
    "kronecker.certify": _on_certify,
}


def install() -> Tracer:
    """Wrap every function in LAYERS at each cyclokit binding of it."""
    tracer = Tracer()
    for layer in LAYERS:
        importlib.import_module(f"cyclokit.{layer}")
    modules = [m for name, m in sys.modules.items() if name == "cyclokit" or name.startswith("cyclokit.")]
    for layer, funcs in LAYERS.items():
        home = sys.modules[f"cyclokit.{layer}"]
        for fn_name in funcs:
            name = f"{layer}.{fn_name}"
            original = getattr(home, fn_name)
            wrapper = tracer.wrap(name, original)
            tracer.originals[name] = original
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
    return tracer


def uninstall(tracer: Tracer) -> None:
    """Restore the original bindings that install() replaced."""
    modules = [m for name, m in sys.modules.items() if name == "cyclokit" or name.startswith("cyclokit.")]
    for original in tracer.originals.values():
        for module in modules:
            for attr, value in list(vars(module).items()):
                if getattr(value, "__wrapped__", None) is original:
                    setattr(module, attr, original)


def merge_totals(parts) -> dict:
    """Sum totals() dictionaries from several processes."""
    out = {"ops": 0, "calls": Counter(), "self_ns": Counter(), "counts": Counter()}
    for part in parts:
        out["ops"] += part["ops"]
        for key in ("calls", "self_ns", "counts"):
            out[key].update(part[key])
    return out


def summarize(totals: dict, gauges: dict) -> dict[str, float]:
    """Per-layer metrics from merged totals and run-level gauges.

    gauges supplies the values no span holds: sieve_entries, cyclotomic
    cache hits and misses, cli import and process times, and the tracing
    overhead.
    """
    ops = max(totals["ops"], 1)
    calls, self_ns, counts = totals["calls"], totals["self_ns"], totals["counts"]
    out: dict[str, float] = {}
    for layer, funcs in LAYERS.items():
        layer_ns = 0
        for fn in funcs:
            name = f"{layer}.{fn}"
            out[f"{name}.calls_per_op"] = calls.get(name, 0) / ops
            out[f"{name}.self_ms_per_op"] = self_ns.get(name, 0) / ops / 1e6
            layer_ns += self_ns.get(name, 0)
        out[f"{layer}.self_ms_per_op"] = layer_ns / ops / 1e6
    out["numtheory.totient_sieve.entries"] = float(gauges.get("sieve_entries", 0))
    lookups = gauges.get("cyclotomic_hits", 0) + gauges.get("cyclotomic_misses", 0)
    out["polyring.cyclotomic.cache_hit_ratio"] = gauges.get("cyclotomic_hits", 0) / lookups if lookups else 0.0
    divisions = counts.get("divisions", 0)
    out["polyring.poly_div_exact.hit_ratio"] = counts.get("divisions_exact", 0) / divisions if divisions else 0.0
    candidates = counts.get("candidates", 0)
    out["kronecker.candidates_per_op"] = candidates / ops
    out["kronecker.screen_pass_ratio"] = (
        counts.get("divisions_in_factor_kronecker", 0) / candidates if candidates else 0.0
    )
    for reason in DECIDED_BY:
        out[f"kronecker.decided_by.{reason}"] = counts.get(f"decided_by.{reason}", 0) / ops
    out["cli.import_ms"] = float(gauges.get("cli_import_ms", 0.0))
    out["cli.process_ms"] = float(gauges.get("cli_process_ms", 0.0))
    out["trace.overhead_frac"] = float(gauges.get("overhead_frac", 0.0))
    return out
