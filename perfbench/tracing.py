"""Span tracer that wraps specgap's module attributes from outside the package.

The traced run installs wrappers around the public functions of each
specgap module (plus two private leaf helpers whose cost the layer table
needs), runs the workload, and restores the originals.  Spans live in
memory and are written out once, at the end of the run.  A span holds its
name, start, end, thread CPU time, parent, thread and job id; a span that
starts on a worker thread with no open span of its own is parented to the
innermost open span of the main thread, which is the call that handed it
the work.

Wrapped targets that a later version of specgap no longer has are skipped
and listed in ``Tracer.missing``; the run reports each one as a problem,
so a traced run with a missing target is not correct.
"""

from __future__ import annotations

import functools
import threading
import time

import numpy as np

CLASSES = ("scan", "bisect", "zero")
MODEL_SPANS = ("model.ensemble_from_config", "model.build_identity", "model.build_exponential")
SOLVER_SPANS = ("solver.solve_deltas", "solver.solve_at_zero")
WRITER_SPANS = ("spectrum.write_density_csv", "spectrum.write_support_json",
                "sampler.write_trials_csv", "cli._write_json")
SAMPLER_ENTRIES = ("sampler.monte_carlo_gap", "sampler.variance_scaling")


class Span:
    __slots__ = ("name", "start", "end", "cpu", "parent", "thread", "job", "info", "agg")

    def __init__(self, name, parent, thread, job):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.job = job
        self.info = None
        self.agg = {}

    @property
    def dur(self):
        return self.end - self.start

    def ancestors(self):
        s = self.parent
        while s is not None:
            yield s
            s = s.parent


def _ens(args, kwargs):
    return kwargs["ensemble"] if "ensemble" in kwargs else args[0]


def _observe_solve(args, kwargs, sol):
    return {"ens": _ens(args, kwargs), "z": sol.z, "it": sol.iterations, "x": sol.delta}


def _observe_zero(args, kwargs, sol):
    return {"ens": _ens(args, kwargs), "z": 0.0, "it": sol.iterations, "x": sol.ell}


def _observe_model(args, kwargs, ens):
    return {"ens": ens}


def _observe_support(args, kwargs, report):
    # an edge is bisected unless it sits on the scan grid's end points
    steps = kwargs.get("steps", 400)
    x_hi = report.grid_step * (steps - 1)
    edges = 0
    for a, b in report.intervals:
        edges += a != 0.0
        edges += b < x_hi * (1.0 - 1e-12)
    return {"edges": edges}


def _observe_workers(args, kwargs, result):
    return {"workers": kwargs.get("workers", 1)}


def targets():
    """(module, attribute, span name, observer, aggregate-only) to wrap."""
    from specgap import cli, model, sampler, solver, spectrum
    return [
        (model, "ensemble_from_config", "model.ensemble_from_config", _observe_model, False),
        (cli, "ensemble_from_config", "model.ensemble_from_config", _observe_model, False),
        (model, "build_identity", "model.build_identity", _observe_model, False),
        (model, "build_exponential", "model.build_exponential", _observe_model, False),
        (spectrum, "solve_deltas", "solver.solve_deltas", _observe_solve, False),
        (solver, "solve_deltas", "solver.solve_deltas", _observe_solve, False),
        (solver, "solve_at_zero", "solver.solve_at_zero", _observe_zero, False),
        (solver, "spectral_radius", "algebra.spectral_radius", None, False),
        (spectrum, "density", "spectrum.density", None, False),
        (spectrum, "detect_support", "spectrum.detect_support", _observe_support, False),
        (sampler, "monte_carlo_gap", "sampler.monte_carlo_gap", _observe_workers, False),
        (sampler, "variance_scaling", "sampler.variance_scaling", _observe_workers, False),
        (sampler, "trial_seeds", "sampler.trial_seeds", None, False),
        (sampler, "sample_matrix", "sampler.sample_matrix", None, False),
        (sampler, "gram_eigenvalues", "sampler.gram_eigenvalues", None, False),
        (sampler, "_column_generator", "sampler.column_generator", None, True),
        (spectrum, "write_density_csv", "spectrum.write_density_csv", None, False),
        (spectrum, "write_support_json", "spectrum.write_support_json", None, False),
        (sampler, "write_trials_csv", "sampler.write_trials_csv", None, False),
        (cli, "_write_json", "cli._write_json", None, False),
    ]


class Tracer:
    """Wraps module attributes while installed; use as a context manager."""

    def __init__(self):
        self.spans = []
        self.job = None
        self.missing = []
        self._patched = []
        self._main = threading.get_ident()
        self._main_stack = []
        self._local = threading.local()

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def __enter__(self):
        self.missing = []
        for module, attr, name, observe, aggregate in targets():
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            wrapped = self._aggregate(fn, name) if aggregate else self._wrap(fn, name, observe)
            self._patched.append((module, attr, fn))
            setattr(module, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()
        return False

    def _wrap(self, fn, name, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            span = Span(name, parent, threading.get_ident(), tracer.job)
            stack.append(span)
            span.cpu = -time.thread_time()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu += time.thread_time()
                stack.pop()
                tracer.spans.append(span)
            if observe is not None:
                span.info = observe(args, kwargs, result)
            return result

        return wrapper

    def _aggregate(self, fn, name):
        # called once per column per draw: count and time it into the
        # enclosing span instead of recording a span of its own
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            stack = tracer._stack()
            if stack:
                count, total = stack[-1].agg.get(name, (0, 0.0))
                stack[-1].agg[name] = (count + 1, total + dt)
            return result

        return wrapper


def self_times(spans) -> dict:
    """Per span name: total self time, i.e. duration minus same-thread children."""
    child = {}
    for s in spans:
        if s.parent is not None and s.parent.thread == s.thread:
            child[id(s.parent)] = child.get(id(s.parent), 0.0) + s.dur
    out = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + s.dur - child.get(id(s), 0.0)
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def sweep_cost(N: int, G: int, complex_z: bool, stack_itemsize: int):
    """Computed (not measured) flops and bytes of one fixed-point sweep.

    Group path (G >= 2): assemble sum_g w_g Omega_g (G N^2 multiply-adds),
    invert the N x N bulk matrix (2 N^3 multiply-adds) and take the G
    traces tr(Omega_g T) (G N^2 multiply-adds).  A multiply-add is 8 flops
    in complex and 2 in real arithmetic.  Bytes count the group stack read
    twice, the complex copy of a real stack that numpy makes for each
    complex product (written and read, twice), and four N x N passes for
    the inverse.  Single-group path (G == 1): O(N) work in the cached
    eigenbasis.  These follow from array sizes alone and ignore caches:
    a G=3, N=64 real stack (96 KiB) stays in L2 while G=256 (8 MiB) does
    not, so they are not bandwidth measurements.
    """
    c = 16 if complex_z else 8
    if G == 1:
        return (16 if complex_z else 4) * N, 3 * N * c
    mac = 8 if complex_z else 2
    flops = 2 * G * N * N * mac + mac * N ** 3
    stack = G * N * N * stack_itemsize
    upcast = 2 * G * N * N * 16 if complex_z and stack_itemsize == 8 else 0
    return flops, 2 * stack + 2 * upcast + 4 * N * N * c


def fixed_point_residual(ens, x, z) -> float:
    """|phi(x) - x| recomputed from a returned solution, on group coordinates."""
    _, first = np.unique(ens.group_index, return_index=True)
    xg = np.asarray(x)[first]
    A = np.tensordot(ens.group_mult / (1.0 + xg), ens.group_omegas, axes=1) / ens.n
    A[np.diag_indices(ens.N)] -= z
    T = np.linalg.inv(A)
    phi = np.einsum("gij,ji->g", ens.group_omegas, T) / ens.n
    return float(np.max(np.abs(phi - xg)))


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _solve_class(span):
    if span.name == "solver.solve_at_zero":
        return "zero"
    names = {a.name for a in span.ancestors()}
    if "spectrum.density" in names:
        return "scan"
    if "spectrum.detect_support" in names:
        return "bisect"
    return "other"


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced round (values without units)."""
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)
    m = {}

    def top(names):
        return [s for n in names for s in by.get(n, ())
                if not any(a.name in names for a in s.ancestors())]

    # model
    builds = top(MODEL_SPANS)
    ens_built = [s.info["ens"] for s in builds if s.info]
    m["model.build_s"] = sum(s.dur for s in builds)
    m["model.groups"] = max((len(e.group_mult) for e in ens_built), default=0)
    m["model.stack_mb"] = max((e.omegas.nbytes / 2**20 for e in ens_built), default=0.0)

    # solver
    solves = top(SOLVER_SPANS)
    m["solver.solves"] = len(solves)
    m["solver.sweeps"] = sum(s.info["it"] for s in solves)
    m["solver.busy_s"] = sum(s.dur for s in solves)
    m["solver.sweep_us"] = m["solver.busy_s"] / m["solver.sweeps"] * 1e6 if m["solver.sweeps"] else 0.0
    per_class = {c: [] for c in CLASSES}
    flops = bytes_ = 0
    worst = 0.0
    for s in solves:
        cls = _solve_class(s)
        if cls in per_class:
            per_class[cls].append(s)
        ens, z = s.info["ens"], s.info["z"]
        f, b = sweep_cost(ens.N, len(ens.group_mult), complex(z).imag != 0.0,
                          ens.omegas.itemsize)
        flops += f * s.info["it"]
        bytes_ += b * s.info["it"]
        worst = max(worst, fixed_point_residual(ens, s.info["x"], z))
    for cls in CLASSES:
        ms = [s.dur * 1e3 for s in per_class[cls]]
        m[f"solver.sweeps.{cls}"] = sum(s.info["it"] for s in per_class[cls])
        m[f"solver.solve_ms_p50.{cls}"] = _pct(ms, 50)
        m[f"solver.solve_ms_p99.{cls}"] = _pct(ms, 99)
    sweeps = m["solver.sweeps"]
    m["solver.sweep_flops"] = flops / sweeps if sweeps else 0.0
    m["solver.sweep_bytes"] = bytes_ / sweeps if sweeps else 0.0
    m["solver.gflops"] = flops / m["solver.busy_s"] / 1e9 if m["solver.busy_s"] else 0.0
    m["solver.true_residual_max"] = worst

    # spectrum
    scans = top(("spectrum.density",))
    supports = by.get("spectrum.detect_support", [])
    m["spectrum.scan_s"] = sum(s.dur for s in scans)
    in_support_scan = sum(s.dur for s in scans
                          if any(a.name == "spectrum.detect_support" for a in s.ancestors()))
    support_s = sum(s.dur for s in supports)
    m["spectrum.bisect_s"] = support_s - in_support_scan
    m["spectrum.bisect_share"] = m["spectrum.bisect_s"] / support_s if support_s else 0.0
    edges = sum(s.info["edges"] for s in supports)
    probes = len(per_class["bisect"])
    m["spectrum.probes_per_edge"] = probes / edges if edges else 0.0

    # sampler
    draws = by.get("sampler.sample_matrix", [])
    eigs = by.get("sampler.gram_eigenvalues", [])
    seeds = by.get("sampler.trial_seeds", [])
    m["sampler.seed_s"] = (sum(s.agg.get("sampler.column_generator", (0, 0.0))[1] for s in draws)
                           + sum(s.dur for s in seeds))
    m["sampler.draw_s"] = sum(s.dur for s in draws)
    draw_ms = [s.dur * 1e3 for s in draws]
    m["sampler.draw_ms_p50"] = _pct(draw_ms, 50)
    m["sampler.draw_ms_p99"] = _pct(draw_ms, 99)
    m["sampler.eig_s"] = sum(s.dur for s in eigs)
    entries = [s for n in SAMPLER_ENTRIES for s in by.get(n, ())]
    inner = {}
    busy = {}
    for s in draws + eigs + seeds:
        for a in s.ancestors():
            if a.name in SAMPLER_ENTRIES:
                inner[id(a)] = inner.get(id(a), 0.0) + s.dur
                busy[id(a)] = busy.get(id(a), 0.0) + s.cpu
                break
    m["sampler.rest_s"] = sum(s.dur - inner.get(id(s), 0.0) for s in entries
                              if s.info["workers"] == 1)
    gap = {s.info["workers"]: s for s in by.get("sampler.monte_carlo_gap", [])}
    if 1 in gap and 2 in gap:
        m["sampler.parallel_eff"] = gap[1].dur / (2.0 * gap[2].dur)
        m["sampler.busy_ratio_w2"] = busy.get(id(gap[2]), 0.0) / (2.0 * gap[2].dur)
    else:
        m["sampler.parallel_eff"] = 0.0
        m["sampler.busy_ratio_w2"] = 0.0

    # algebra and cli
    m["algebra.radius_s"] = sum(s.dur for s in by.get("algebra.spectral_radius", []))
    m["cli.write_s"] = sum(s.dur for s in top(WRITER_SPANS))
    return m


def dump(spans, t0: float) -> list:
    """Spans as plain records with start/end relative to ``t0`` and parent indices."""
    index = {id(s): i for i, s in enumerate(spans)}
    return [{"name": s.name, "start": s.start - t0, "end": s.end - t0, "cpu": s.cpu,
             "parent": index.get(id(s.parent)), "thread": s.thread, "job": s.job,
             **({"agg": {k: list(v) for k, v in s.agg.items()}} if s.agg else {})}
            for s in spans]
