"""Spans and counters for a traced benchmark pass, installed from outside
the fermatlines package.

Every public function and method named below is replaced by a wrapper that
records a span (name, start, end, parent span, job id).  A module-level
function is rebound at every module attribute that holds it (``sum_S`` is
also ``certify.sum_S``, ``fermat.sum_S`` and ``cli.sum_S``), since callers
look names up in their own module; a method is patched on its class.  The
hot scalar methods of ``FieldCtx`` get a bare call counter instead of spans,
because a span per call would swamp the work they do.

Spans stay in memory until ``write_spans`` at the end of the pass.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

# (module, function, span name)
FUNCTIONS = [
    ("gf", "make_field", "gf.make_field"),
    ("charsum", "sum_S", "charsum.sum_S"),
    ("charsum", "survey_N", "charsum.survey_N"),
    ("certify", "certify", "certify.certify"),
    ("fermat", "build_intersections", "fermat.build_intersections"),
    ("fermat", "direct_numerator", "fermat.direct_numerator"),
    ("efield", "construct_point", "efield.construct_point"),
    ("efield", "curve_add", "efield.curve_add"),
    ("cli", "main", "cli.main"),
]

# (module, class, method, span name)
METHODS = [
    ("gf", "FieldCtx", "add_perm", "gf.add_perm"),
    ("cyc", "CycElt", "__init__", "cyc.reduce"),
    ("efield", "Poly", "__mul__", "efield.poly_mul"),
    ("efield", "Poly", "divmod", "efield.poly_divmod"),
    ("efield", "Poly", "gcd", "efield.poly_gcd"),
    ("efield", "RatFunc", "__init__", "efield.ratfunc"),
]

SCALAR_METHODS = ("mul_codes", "add_codes", "neg_code")


class Tracer:
    """In-memory spans plus the per-call facts the layer metrics need."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, job id)
        self._stack = []
        self.job = None
        self.scalar_calls = 0
        self.contexts = {}  # id -> FieldCtx returned by make_field
        self.add_perm_keys = set()  # distinct (q, c code) given to add_perm
        self.add_perm_bytes = 0
        self.elements_swept = 0
        self.lines = set()  # distinct (q, a code, b code) given to build_intersections
        self.witnesses = 0

    def span(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if note is not None:
                note(args, result)
            return result

        return wrapper

    def counted(self, fn):
        @functools.wraps(fn)
        def wrapper(*args):
            self.scalar_calls += 1
            return fn(*args)

        return wrapper

    # -- per-call facts ------------------------------------------------------

    def _note_make_field(self, args, ctx):
        self.contexts[id(ctx)] = ctx

    def _note_add_perm(self, args, result):
        ctx, c_code = args
        self.add_perm_keys.add((ctx.q, c_code))
        self.add_perm_bytes += ctx.q * ctx.q * 2 * ctx.k * 8

    def _note_sum_S(self, args, result):
        self.elements_swept += args[0].q ** 2

    def _note_survey_N(self, args, result):
        # one sweep over F_{q^2} for each c in F_q
        self.elements_swept += args[0].q ** 3

    def _note_build_intersections(self, args, result):
        ctx, L = args
        self.lines.add((ctx.q, L.a.code, L.b.code))

    def _note_certify(self, args, cert):
        self.witnesses += sum(
            1 for e in cert.coverage.values() if e.c is not None and e.nonzero
        )


def install(tracer: Tracer) -> None:
    """Wrap every traced function at every binding site in fermatlines."""
    import fermatlines  # noqa: F401  (loads every submodule)

    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "fermatlines" or name.startswith("fermatlines."))
    ]
    notes = {
        "gf.make_field": tracer._note_make_field,
        "gf.add_perm": tracer._note_add_perm,
        "charsum.sum_S": tracer._note_sum_S,
        "charsum.survey_N": tracer._note_survey_N,
        "fermat.build_intersections": tracer._note_build_intersections,
        "certify.certify": tracer._note_certify,
    }
    for mod_name, fn_name, span_name in FUNCTIONS:
        orig = getattr(sys.modules[f"fermatlines.{mod_name}"], fn_name)
        wrapper = tracer.span(span_name, orig, notes.get(span_name))
        sites = 0
        for m in modules:
            for attr, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, attr, wrapper)
                    sites += 1
        if sites == 0:
            raise RuntimeError(f"no binding site for {mod_name}.{fn_name}")
    for mod_name, cls_name, meth, span_name in METHODS:
        cls = getattr(sys.modules[f"fermatlines.{mod_name}"], cls_name)
        setattr(cls, meth, tracer.span(span_name, cls.__dict__[meth], notes.get(span_name)))
    field_ctx = sys.modules["fermatlines.gf"].FieldCtx
    for meth in SCALAR_METHODS:
        setattr(field_ctx, meth, tracer.counted(field_ctx.__dict__[meth]))


def layer_metrics(tracer: Tracer, stdout_bytes: int) -> dict:
    """Per-layer metrics of one traced pass, from its spans and counters.

    A span's self time is its duration minus the durations of its direct
    children; the pass is single-threaded, so children never overlap.  No
    traced function calls itself, so summed durations count no time twice.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, total, self_s = {}, {}, {}
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + (end - start - child[i])

    def under_certify(i):
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] == "certify.certify":
                return True
            parent = spans[parent][3]
        return False

    sums_in_certify = sum(
        1 for i, s in enumerate(spans) if s[0] == "charsum.sum_S" and under_certify(i)
    )
    table_bytes = sum(
        val.nbytes
        for ctx in tracer.contexts.values()
        for slot in type(ctx).__slots__
        if isinstance(val := getattr(ctx, slot, None), np.ndarray)
    )
    sweep_s = total.get("charsum.sum_S", 0.0) + total.get("charsum.survey_N", 0.0)
    add_perm_calls = calls.get("gf.add_perm", 0)
    il_builds = calls.get("fermat.build_intersections", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "gf.make_field_s": total.get("gf.make_field", 0.0),
        "gf.table_bytes": table_bytes,
        "gf.add_perm_calls": add_perm_calls,
        "gf.add_perm_s": total.get("gf.add_perm", 0.0),
        "gf.add_perm_bytes": tracer.add_perm_bytes,
        "gf.add_perm_distinct_frac": ratio(len(tracer.add_perm_keys), add_perm_calls),
        "gf.scalar_op_calls": tracer.scalar_calls,
        "cyc.reduce_calls": calls.get("cyc.reduce", 0),
        "cyc.reduce_s": total.get("cyc.reduce", 0.0),
        "charsum.sum_S_calls": calls.get("charsum.sum_S", 0),
        "charsum.sum_S_self_s": self_s.get("charsum.sum_S", 0.0),
        "charsum.survey_N_self_s": self_s.get("charsum.survey_N", 0.0),
        "charsum.elements_swept": tracer.elements_swept,
        "charsum.elements_per_s": ratio(tracer.elements_swept, sweep_s),
        "certify.self_s": self_s.get("certify.certify", 0.0),
        "certify.witness_hit_frac": ratio(tracer.witnesses, sums_in_certify),
        "fermat.build_intersections_calls": il_builds,
        "fermat.build_intersections_s": total.get("fermat.build_intersections", 0.0),
        "fermat.il_builds_per_line": ratio(il_builds, len(tracer.lines)),
        "fermat.direct_numerator_self_s": self_s.get("fermat.direct_numerator", 0.0),
        "efield.construct_point_s": total.get("efield.construct_point", 0.0),
        "efield.poly_mul_calls": calls.get("efield.poly_mul", 0),
        "efield.poly_mul_s": total.get("efield.poly_mul", 0.0),
        "efield.poly_divmod_calls": calls.get("efield.poly_divmod", 0),
        "efield.poly_divmod_s": total.get("efield.poly_divmod", 0.0),
        "efield.poly_gcd_calls": calls.get("efield.poly_gcd", 0),
        "efield.poly_gcd_s": total.get("efield.poly_gcd", 0.0),
        "efield.ratfunc_calls": calls.get("efield.ratfunc", 0),
        "efield.ratfunc_norm_s": total.get("efield.ratfunc", 0.0),
        "efield.curve_add_calls": calls.get("efield.curve_add", 0),
        "efield.curve_add_s": total.get("efield.curve_add", 0.0),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "cli.stdout_bytes": stdout_bytes,
    }


def write_spans(tracer: Tracer, path) -> None:
    """JSON with name and job tables, then one span per line:
    [name index, start, end, parent span index or -1, job index or -1]."""
    names = sorted({s[0] for s in tracer.spans})
    jobs = sorted({s[4] for s in tracer.spans if s[4] is not None})
    name_ix = {n: i for i, n in enumerate(names)}
    job_ix = {j: i for i, j in enumerate(jobs)}
    with open(path, "w") as f:
        f.write(json.dumps({"names": names, "jobs": jobs})[:-1] + ', "spans": [\n')
        for i, (name, start, end, parent, job) in enumerate(tracer.spans):
            row = [name_ix[name], start, end, parent, job_ix.get(job, -1)]
            f.write(json.dumps(row) + (",\n" if i < len(tracer.spans) - 1 else "\n"))
        f.write("]}\n")
