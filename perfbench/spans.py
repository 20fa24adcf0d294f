"""Span recording around the stage functions of dpgbem, from outside the
package.

`Tracer.install` replaces every binding of a wrapped function in the
loaded dpgbem modules.  That includes names a caller imported with
``from .mesh import refine_uniform``, so each call goes through the
wrapper whichever name the caller looks up.  Spans are kept in memory
and turned into per-layer metrics when the study ends.
"""

import functools
import resource
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

# Every wrapped function, as (module, function).
STAGES = (
    ("cli", "run_convergence"),
    ("mesh", "refine_uniform"),
    ("mesh", "boundary_loop"),
    ("bem", "assemble_bem"),
    ("solver", "solve_dpg"),
    ("dpg_assembly", "assemble_B"),
    ("dpg_assembly", "assemble_gram"),
    ("dpg_assembly", "assemble_load"),
    ("dpg_assembly", "build_normal_equations"),
    ("solver", "solve_spd"),
    ("solver", "energy_error"),
    ("solver", "l2_errors"),
    ("solver", "boundary_cauchy_errors"),
    ("solver", "eval_exterior_field"),
    ("jn_reference", "assemble_jn"),
    ("jn_reference", "solve_jn"),
    ("jn_reference", "jn_errors"),
    ("jn_reference", "jn_boundary_errors"),
)
SPAN_NAMES = tuple("{}.{}".format(m, f) for m, f in STAGES)

# Spans reported as self time (their children are stages of their own).
SELF_TIMED = ("cli.run_convergence", "solver.solve_dpg")

# Which spans a study reaches, by the solver it runs.
COMMON_SPANS = ("cli.run_convergence", "mesh.refine_uniform",
                "mesh.boundary_loop", "bem.assemble_bem")
DPG_SPANS = tuple(n for n in SPAN_NAMES
                  if n.startswith(("dpg_assembly.", "solver.")))
JN_SPANS = tuple(n for n in SPAN_NAMES if n.startswith("jn_reference."))

# Counts taken at the span boundaries; the value of the last call, which
# is the finest level, is reported.
COUNTERS = ("mesh.triangles", "mesh.panels", "solver.dim_trial",
            "solver.solve_spd.rel_residual", "dpg_assembly.A.nnz",
            "dpg_assembly.B.nnz", "jn_reference.matrix.nnz")

MIN_COVERAGE = 0.95


def expected_spans(solver):
    """Span names a study with this solver setting must fire."""
    spans = list(COMMON_SPANS)
    if solver in ("dpg", "both"):
        spans += DPG_SPANS
    if solver in ("jn", "both"):
        spans += JN_SPANS
    return spans


def per_layer_metric_units():
    """Name and unit of every per-layer metric, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[name + (".self_s" if name in SELF_TIMED else ".s")] = "s"
    for name in COUNTERS:
        units[name] = "ratio" if name.endswith("rel_residual") else "count"
    units["bem.assemble_bem.calls"] = "count"
    for name in SPAN_NAMES:
        units[name + ".rss_mb"] = "MB"
    units["trace.coverage"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


def rss_mb():
    """High-water mark of this process's resident set, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int   # index into the span list, -1 for none
    level: int
    rss_mb: float


def _count(name, args, result):
    """Counts recorded when the span `name` returns."""
    if name == "mesh.boundary_loop":
        return {"mesh.triangles": args[0].num_triangles,
                "mesh.panels": result.num_panels}
    if name == "dpg_assembly.assemble_B":
        return {"dpg_assembly.B.nnz": result.nnz}
    if name == "dpg_assembly.build_normal_equations":
        return {"dpg_assembly.A.nnz": result[0].nnz}
    if name == "jn_reference.assemble_jn":
        return {"jn_reference.matrix.nnz": result.matrix.nnz}
    if name == "solver.solve_spd":
        A, b = args[0], np.asarray(args[1], dtype=float)
        res = np.linalg.norm(b - A @ result) / np.linalg.norm(b)
        return {"solver.dim_trial": A.shape[0],
                "solver.solve_spd.rel_residual": float(res)}
    return {}


class Tracer:
    """Records one span per call of a wrapped stage function."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.level_marks = []   # perf_counter at the end of each level
        self._stack = []

    def progress(self, _message):
        """Progress callback for run_convergence: marks a level's end."""
        self.level_marks.append(time.perf_counter())

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent,
                        len(self.level_marks), 0.0)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.rss_mb = rss_mb()
            self.counters.update(_count(name, args, result))
            return result

        return wrapper

    def install(self):
        """Wrap every function of STAGES in all loaded dpgbem modules."""
        import dpgbem.cli  # noqa: F401  (loads every traced module)

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "dpgbem" or n.startswith("dpgbem.")]
        for mod_name, fn_name in STAGES:
            original = getattr(sys.modules["dpgbem." + mod_name], fn_name)
            wrapper = self._wrap(mod_name + "." + fn_name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def fired(self):
        return sorted({s.name for s in self.spans})

    def coverage(self):
        """Share of the finest level's wall time covered by the spans
        directly under run_convergence."""
        if len(self.level_marks) < 2:
            return 0.0
        lo, hi = self.level_marks[-2], self.level_marks[-1]
        tops = [i for i, s in enumerate(self.spans)
                if s.name == "cli.run_convergence"]
        intervals = sorted((max(s.start, lo), min(s.end, hi))
                           for s in self.spans if s.parent in tops)
        covered, reach = 0.0, lo
        for a, b in intervals:
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        return covered / (hi - lo)

    def metrics(self):
        """Per-layer metrics of the recorded study (no overhead_s; that
        needs an untraced study to compare with)."""
        out = {}
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        for name in SPAN_NAMES:
            mine = [i for i, s in enumerate(self.spans) if s.name == name]
            total = sum(self.spans[i].end - self.spans[i].start for i in mine)
            if name in SELF_TIMED:
                children = sum(child_time[i] for i in mine)
                out[name + ".self_s"] = total - children
            else:
                out[name + ".s"] = total
            out[name + ".rss_mb"] = max(
                (self.spans[i].rss_mb for i in mine), default=0.0)
        for name in COUNTERS:
            out[name] = self.counters.get(name, 0)
        out["bem.assemble_bem.calls"] = sum(
            1 for s in self.spans if s.name == "bem.assemble_bem")
        out["trace.coverage"] = self.coverage()
        return out

    def span_records(self):
        return [asdict(s) for s in self.spans]


def trace_problems(solver, fired, coverage, min_coverage=MIN_COVERAGE):
    """Reasons a traced study fails the coverage guard (empty if none)."""
    problems = ["span {} never fired".format(n)
                for n in expected_spans(solver) if n not in fired]
    if not coverage >= min_coverage:
        problems.append("trace.coverage {:.4f} < {}".format(
            coverage, min_coverage))
    return problems
