"""In-memory span recording and the wrappers that put spans around the
public calls of each starkres layer.

A span is (id, name, start, end, parent, run_id, attrs).  Spans are kept
in a list for the whole benchmark run and written out once it ends.  The
tracer keeps one call stack, so it assumes the program runs its fields on
the calling thread, which is what it does with ``STARKRES_THREADS``
unset; :func:`instrument` refuses to trace otherwise.

The cost of tracing is not measured as a difference of wall times, which
run-to-run drift would swamp, but from what the tracer adds: the span
count times the per-span cost :func:`span_cost` measures in-process, plus
the artifact walks the driver wrapper times itself.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import cached_property, partial, wraps
from pathlib import Path

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``run_id`` tags the spans of one workload iteration."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        sp = Span(len(self.spans), name, time.perf_counter(), float("nan"),
                  self._stack[-1] if self._stack else None, self.run_id,
                  dict(attrs))
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield sp
        except BaseException:
            sp.attrs["error"] = 1
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def of_run(self, run_id: int) -> list[Span]:
        return [s for s in self.spans if s.run_id == run_id]

    def to_records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span: its duration minus the part of its interval that the
    union of its direct children covers."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        kids = sorted(((max(c.start, s.start), min(c.end, s.end))
                       for c in children.get(s.id, ())), key=lambda iv: iv[0])
        for lo, hi in kids:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = s.duration - covered
    return out


# ----------------------------------------------------------------------
# wrappers around the public calls of each layer


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def _points_wrapper(tracer: Tracer, fn, name: str):
    @wraps(fn)
    def wrapper(self, z, *a, **k):
        with tracer.span(name, points=int(np.size(z))):
            return fn(self, z, *a, **k)
    return wrapper


def _plain_wrapper(tracer: Tracer, fn, name: str):
    @wraps(fn)
    def wrapper(*a, **k):
        with tracer.span(name):
            return fn(*a, **k)
    return wrapper


def span_cost(calls: int = 2000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: the fastest of ``repeats`` timings
    of ``calls`` calls of a no-op through the point-counting wrapper, minus
    the same for the bare no-op, per call."""

    class Probe:
        def call(self, z):
            return z

    probe, z = Probe(), np.zeros(4, dtype=complex)
    traced = _points_wrapper(Tracer(), Probe.call, "calibration")

    def fastest(fn):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn(probe, z)
            best = min(best, time.perf_counter() - t0)
        return best

    return max(fastest(traced) - fastest(Probe.call), 0.0) / calls


def tracing_overhead(spans: list[Span], per_span: float) -> float:
    """Time tracing added to the iteration these spans came from."""
    return (len(spans) * per_span
            + sum(s.attrs.get("walk_s", 0.0) for s in spans))


@contextmanager
def instrument(tracer: Tracer):
    """Patch spans around the layer calls for the duration of the block.

    The patched names are the ones the program looks up at call time:
    methods on the evaluator and Floquet classes, and the module globals
    through which ``driver``, ``sweep`` and ``floquet`` reach the next
    layer down.  Every original is restored on exit.
    """
    if os.environ.get("STARKRES_THREADS"):
        raise RuntimeError("tracing needs STARKRES_THREADS unset")
    from starkres import driver, floquet, sweep
    from starkres.floquet import FloquetProblem
    from starkres.resolvent import ResolventEvaluator

    saved = []

    def patch(owner, name, new):
        saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    points = partial(_points_wrapper, tracer)
    plain = partial(_plain_wrapper, tracer)

    RE = ResolventEvaluator
    patch(RE, "F_value", points(RE.F_value, "resolvent.F_value"))
    patch(RE, "F_derivative", plain(RE.F_derivative, "resolvent.F_derivative"))
    patch(RE, "free_continued",
          points(RE.free_continued, "resolvent.free_continued"))
    patch(RE, "stark_matrix_element",
          points(RE.stark_matrix_element, "resolvent.stark_matrix_element"))
    patch(RE, "stark_time_ray", plain(RE.stark_time_ray,
                                      "resolvent.stark_time_ray"))

    find_zeros = sweep.find_zeros

    @wraps(find_zeros)
    def traced_find_zeros(*a, **k):
        with tracer.span("rootfind.find_zeros") as sp:
            found = find_zeros(*a, **k)
            sp.attrs["zeros"] = sum(r.winding for r in found)
            return found

    patch(sweep, "find_zeros", traced_find_zeros)
    patch(driver, "find_zeros", traced_find_zeros)

    def sweep_wrapper(fn, name):
        @wraps(fn)
        def wrapper(*a, **k):
            with tracer.span(name) as sp:
                result = fn(*a, **k)
                sp.attrs["failed_fields"] = len(result.errors)
                return result
        return wrapper

    patch(driver, "dc_sweep", sweep_wrapper(driver.dc_sweep, "sweep.dc_sweep"))
    patch(driver, "ac_sweep", sweep_wrapper(driver.ac_sweep, "sweep.ac_sweep"))

    eigen_near = sweep.eigen_near

    @wraps(eigen_near)
    def traced_eigen_near(problem, *a, **k):
        with tracer.span("floquet.eigen_near", dim=problem.dimension):
            return eigen_near(problem, *a, **k)

    patch(sweep, "eigen_near", traced_eigen_near)

    build = FloquetProblem.matrix.func

    def traced_matrix(self):
        with tracer.span("floquet.matrix", dim=self.dimension):
            return build(self)

    matrix = cached_property(traced_matrix)
    matrix.__set_name__(FloquetProblem, "matrix")
    patch(FloquetProblem, "matrix", matrix)

    lu_factor = floquet.lu_factor

    @wraps(lu_factor)
    def traced_lu_factor(a, *args, **k):
        with tracer.span("floquet.lu_factor", n=int(a.shape[0])):
            return lu_factor(a, *args, **k)

    patch(floquet, "lu_factor", traced_lu_factor)
    patch(floquet, "lu_solve", plain(floquet.lu_solve, "floquet.lu_solve"))

    run = driver.run

    @wraps(run)
    def traced_run(config):
        with tracer.span("driver.run") as sp:
            status = run(config)
        t0 = time.perf_counter()
        sp.attrs["bytes_written"] = _dir_bytes(config.out)
        sp.attrs["walk_s"] = time.perf_counter() - t0
        return status

    patch(driver, "run", traced_run)
    try:
        yield tracer
    finally:
        for owner, name, orig in reversed(saved):
            setattr(owner, name, orig)
