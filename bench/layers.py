"""Per-layer metrics computed from the span tree of one traced iteration.

``LAYER_METRICS`` maps each metric to the end-to-end metric it should
move and the workloads it should move on.  Units and the better direction
are in ``BENCHMARK.json``.
"""

from __future__ import annotations

import statistics

from spans import Span, self_times, tracing_overhead

E2E = "wall_s"
DC, AC, FS = "dc_sweep", "ac_track", "f_scan"

# name: (moves, on)
LAYER_METRICS = {
    "resolvent.F_calls": (E2E, (DC, FS)),
    "resolvent.F_points": (E2E, (DC, FS)),
    "resolvent.value_s": (E2E, (FS,)),
    "resolvent.deriv_s": (E2E, (DC,)),
    "resolvent.us_per_point": (E2E, (DC, FS)),
    "resolvent.deriv_point_share": (E2E, (DC,)),
    "resolvent.free_points": (E2E, (DC, FS)),
    "resolvent.airy_points": (E2E, (DC, FS)),
    "resolvent.ray_points": (E2E, (DC, FS)),
    "resolvent.errors": ("failed", (DC, FS)),
    "rootfind.calls": (E2E, (DC,)),
    "rootfind.s": (E2E, (DC,)),
    "rootfind.self_s": (E2E, (DC,)),
    "rootfind.zeros": (E2E, (DC,)),
    "rootfind.points_per_zero": (E2E, (DC,)),
    "rootfind.newton_steps": (E2E, (DC,)),
    "sweep.s": (E2E, (DC, AC)),
    "sweep.self_s": (E2E, (DC, AC)),
    "sweep.field_s_max": (E2E, (DC, AC)),
    "sweep.failed_fields": ("failed", (DC, AC)),
    "floquet.matrix_builds": (E2E, (AC,)),
    "floquet.build_s": (E2E, (AC,)),
    "floquet.eigen_near_calls": (E2E, (AC,)),
    "floquet.eigen_near_s": (E2E, (AC,)),
    "floquet.dim_max": (E2E, (AC,)),
    "floquet.lu_calls": (E2E, (AC,)),
    "floquet.lu_s": (E2E, (AC,)),
    "floquet.solve_calls": (E2E, (AC,)),
    "floquet.lu_gflop_computed": (E2E, (AC,)),
    "floquet.lu_gflops": (E2E, (AC,)),
    "floquet.dense_mb_computed": ("peak_rss_mb", (AC,)),
    "driver.self_s": (E2E, (DC, AC)),
    "driver.bytes_written": (E2E, (DC, AC)),
    "trace.overhead_s": (E2E, (DC, AC, FS)),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], span_cost: float) -> dict[str, float]:
    """Every metric of ``LAYER_METRICS`` from the spans of one iteration;
    ``span_cost`` is the seconds one span adds (:func:`spans.span_cost`)."""
    by_id = {s.id: s for s in spans}
    selft = self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def under(s: Span, prefix: str) -> bool:
        p = s.parent
        while p is not None:
            if by_id[p].name.startswith(prefix):
                return True
            p = by_id[p].parent
        return False

    def total(items, key=lambda s: s.duration):
        return float(sum(key(s) for s in items))

    f_value = named("resolvent.F_value")
    f_deriv = named("resolvent.F_derivative")
    points = total(f_value, lambda s: s.attrs["points"])
    value_s = total(s for s in f_value if not under(s, "resolvent."))
    deriv_s = total(f_deriv)
    ring_points = total((s for s in f_value
                         if under(s, "resolvent.F_derivative")),
                        lambda s: s.attrs["points"])
    ray = len(named("resolvent.stark_time_ray"))
    stark_points = total(named("resolvent.stark_matrix_element"),
                         lambda s: s.attrs["points"])
    resolvent_errors = sum(1 for s in spans if s.name.startswith("resolvent.")
                           and not under(s, "resolvent.")
                           and s.attrs.get("error"))

    roots = named("rootfind.find_zeros")
    zeros = total(roots, lambda s: s.attrs.get("zeros", 0))
    root_points = total((s for s in f_value if under(s, "rootfind.")),
                        lambda s: s.attrs["points"])

    sweeps = [s for s in spans if s.name.startswith("sweep.")]
    sweep_ids = {s.id for s in sweeps}
    fields = [s for s in spans if s.parent in sweep_ids
              and s.name in ("rootfind.find_zeros", "floquet.eigen_near")]

    mats = named("floquet.matrix")
    eigs = named("floquet.eigen_near")
    lus = named("floquet.lu_factor")
    lu_s = total(lus)
    gflop = total(lus, lambda s: 8.0 / 3.0 * s.attrs["n"] ** 3 / 1e9)
    dims = [s.attrs["dim"] for s in mats + eigs]

    runs = named("driver.run")
    return {
        "resolvent.F_calls": float(len(f_value)),
        "resolvent.F_points": points,
        "resolvent.value_s": value_s,
        "resolvent.deriv_s": deriv_s,
        "resolvent.us_per_point": 1e6 * _ratio(value_s + deriv_s, points),
        "resolvent.deriv_point_share": _ratio(ring_points, points),
        "resolvent.free_points": total(named("resolvent.free_continued"),
                                       lambda s: s.attrs["points"]),
        "resolvent.airy_points": stark_points - ray,
        "resolvent.ray_points": float(ray),
        "resolvent.errors": float(resolvent_errors),
        "rootfind.calls": float(len(roots)),
        "rootfind.s": total(roots),
        "rootfind.self_s": total(roots, lambda s: selft[s.id]),
        "rootfind.zeros": zeros,
        "rootfind.points_per_zero": _ratio(root_points, zeros),
        "rootfind.newton_steps": float(sum(1 for s in f_deriv
                                           if under(s, "rootfind."))),
        "sweep.s": total(sweeps),
        "sweep.self_s": total(sweeps, lambda s: selft[s.id]),
        "sweep.field_s_max": max((s.duration for s in fields), default=0.0),
        "sweep.failed_fields": total(sweeps,
                                     lambda s: s.attrs.get("failed_fields", 0)),
        "floquet.matrix_builds": float(len(mats)),
        "floquet.build_s": total(mats),
        "floquet.eigen_near_calls": float(len(eigs)),
        "floquet.eigen_near_s": total(eigs),
        "floquet.dim_max": float(max(dims, default=0)),
        "floquet.lu_calls": float(len(lus)),
        "floquet.lu_s": lu_s,
        "floquet.solve_calls": float(len(named("floquet.lu_solve"))),
        "floquet.lu_gflop_computed": gflop,
        "floquet.lu_gflops": _ratio(gflop, lu_s),
        "floquet.dense_mb_computed": total(
            mats, lambda s: 16.0 * s.attrs["dim"] ** 2 / 2**20),
        "driver.self_s": total(runs, lambda s: selft[s.id]),
        "driver.bytes_written": total(
            runs, lambda s: s.attrs.get("bytes_written", 0)),
        "trace.overhead_s": tracing_overhead(spans, span_cost),
    }


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: float(statistics.median(m[k] for m in samples))
            for k in samples[0]}
