"""Tests of the benchmark itself: span arithmetic, layer metrics, and the
output checks, each of which must reject a perturbed result."""

import copy

import numpy as np
import pytest

import checks
import layers
import spans
import workloads
from spans import Span


def tree(*rows):
    """Spans from (id, name, start, end, parent, attrs) rows."""
    return [Span(i, name, lo, hi, parent, 0, dict(attrs))
            for i, name, lo, hi, parent, attrs in rows]


def test_self_times_subtract_union_of_children():
    sp = tree(
        (0, "root", 0.0, 10.0, None, {}),
        (1, "a", 1.0, 3.0, 0, {}),
        (2, "b", 2.0, 5.0, 0, {}),        # overlaps a: union is [1, 5]
        (3, "c", 8.0, 9.0, 0, {}),
        (4, "a.child", 1.5, 2.5, 1, {}),
        (5, "late", 9.5, 11.0, 0, {}),     # clipped to the parent's end
    )
    st = spans.self_times(sp)
    assert st[0] == pytest.approx(10.0 - 4.0 - 1.0 - 0.5)
    assert st[1] == pytest.approx(2.0 - 1.0)
    assert st[2] == pytest.approx(3.0)
    assert st[4] == pytest.approx(1.0)


def test_layer_metrics_on_synthetic_tree():
    sp = tree(
        (0, "driver.run", 0.0, 10.0, None,
         {"bytes_written": 100, "walk_s": 0.25}),
        (1, "sweep.dc_sweep", 0.5, 9.5, 0, {"failed_fields": 0}),
        (2, "rootfind.find_zeros", 1.0, 9.0, 1, {"zeros": 2}),
        (3, "resolvent.F_value", 1.0, 3.0, 2, {"points": 64}),
        (4, "resolvent.stark_matrix_element", 1.0, 3.0, 3, {"points": 64}),
        (5, "resolvent.stark_time_ray", 2.0, 2.5, 4, {}),
        (6, "resolvent.F_derivative", 4.0, 6.0, 2, {}),
        (7, "resolvent.F_value", 4.0, 6.0, 6, {"points": 32}),
        (8, "resolvent.free_continued", 4.0, 6.0, 7, {"points": 32}),
    )
    m = layers.layer_metrics(sp, 1e-3)
    assert m["resolvent.F_calls"] == 2
    assert m["resolvent.F_points"] == 96
    assert m["resolvent.value_s"] == pytest.approx(2.0)
    assert m["resolvent.deriv_s"] == pytest.approx(2.0)
    assert m["resolvent.us_per_point"] == pytest.approx(4.0e6 / 96)
    assert m["resolvent.deriv_point_share"] == pytest.approx(32 / 96)
    assert (m["resolvent.free_points"], m["resolvent.airy_points"],
            m["resolvent.ray_points"]) == (32, 63, 1)
    assert m["rootfind.calls"] == 1
    assert m["rootfind.self_s"] == pytest.approx(8.0 - 4.0)
    assert m["rootfind.points_per_zero"] == pytest.approx(48.0)
    assert m["rootfind.newton_steps"] == 1
    assert m["sweep.self_s"] == pytest.approx(1.0)
    assert m["sweep.field_s_max"] == pytest.approx(8.0)
    assert m["driver.self_s"] == pytest.approx(1.0)
    assert m["driver.bytes_written"] == 100
    assert m["floquet.lu_calls"] == 0 and m["floquet.lu_gflops"] == 0.0
    assert m["trace.overhead_s"] == pytest.approx(9 * 1e-3 + 0.25)


def test_floquet_metrics_are_computed_from_dimensions():
    sp = tree(
        (0, "floquet.eigen_near", 0.0, 4.0, None, {"dim": 100}),
        (1, "floquet.matrix", 0.0, 1.0, 0, {"dim": 100}),
        (2, "floquet.lu_factor", 1.0, 2.0, 0, {"n": 100}),
        (3, "floquet.lu_factor", 2.0, 3.0, 0, {"n": 200}),
        (4, "floquet.lu_solve", 3.0, 3.5, 0, {}),
    )
    m = layers.layer_metrics(sp, 0.0)
    gflop = 8.0 / 3.0 * (100**3 + 200**3) / 1e9
    assert m["floquet.lu_gflop_computed"] == pytest.approx(gflop)
    assert m["floquet.lu_gflops"] == pytest.approx(gflop / 2.0)
    assert m["floquet.dense_mb_computed"] == pytest.approx(16e4 / 2**20)
    assert (m["floquet.lu_calls"], m["floquet.solve_calls"],
            m["floquet.dim_max"]) == (2, 1, 100)


def test_instrument_records_spans_and_restores_originals():
    from starkres import FormFactor, ResolventEvaluator, driver, floquet
    originals = (ResolventEvaluator.F_value, driver.run, floquet.lu_factor)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert ResolventEvaluator.F_value is not originals[0]
        ResolventEvaluator(FormFactor.gaussian(0.1, 1.0), 0.0).F_derivative(
            1.0 - 0.01j)
    assert (ResolventEvaluator.F_value, driver.run,
            floquet.lu_factor) == originals
    names = [s.name for s in tracer.spans]
    assert names == ["resolvent.F_derivative", "resolvent.F_value",
                     "resolvent.free_continued"]
    m = layers.layer_metrics(tracer.spans, 0.0)
    assert m["resolvent.deriv_point_share"] == 1.0
    assert m["resolvent.free_points"] == 32


def test_span_cost_is_small_and_positive():
    assert 0.0 < spans.span_cost(calls=200, repeats=3) < 1e-3


# ----------------------------------------------------------------------
# output checks


def good_dc():
    rows = [{"f": f, "residual": 1e-12}
            for f, n in zip(checks.DC_GRID, checks.DC_CLOUD_SIZES)
            for _ in range(n)]
    return {"status": 0, "tol": 1e-9, "rows": rows, "results": {
        "errors": [], "reference_resonance": [1.01905399, -0.0111115],
        "flags": {"dc_unstable": True},
        "n_per_f": list(checks.DC_CLOUD_SIZES)}}


def failed_ops(problems):
    return [i for i, p in enumerate(problems) if p]


def test_dc_check_passes_the_reference_output():
    assert failed_ops(checks.check_dc(good_dc())) == []


@pytest.mark.parametrize("in_manifest, in_csv", [
    (True, True), (True, False), (False, True)])
def test_dc_check_rejects_a_dropped_zero(in_manifest, in_csv):
    out = good_dc()
    if in_manifest:
        out["results"]["n_per_f"][3] -= 1
    if in_csv:
        out["rows"].pop()
    assert failed_ops(checks.check_dc(out)) == [3]


@pytest.mark.parametrize("perturb, failed", [
    (lambda o: o.update(status=3), [0, 1, 2, 3]),
    (lambda o: o["results"]["errors"].append("f=0.01: QuadratureError: x"),
     [2]),
    (lambda o: o["results"].update(reference_resonance=[1.0192, -0.0111]),
     [0, 1, 2, 3]),
    (lambda o: o["results"]["flags"].update(dc_unstable=False), [0, 1, 2, 3]),
    (lambda o: o["rows"][0].update(residual=2e-9), [0]),
])
def test_dc_check_rejects_perturbed_outputs(perturb, failed):
    out = good_dc()
    perturb(out)
    assert failed_ops(checks.check_dc(out)) == failed


def good_ac():
    traj = [[0.1, 1.01915, -0.011052], [0.05, 1.01914, -0.0110565],
            [0.02, 1.019142, -0.0110578], [0.0, 1.019141, -0.011058]]
    return {"status": 0, "results": {
        "errors": [], "trajectory": traj,
        "distances": [1.16e-4, 1.06e-4, 1.03e-4],
        "flags": {"ac_stable": True}}}


def test_ac_check_passes_the_reference_output():
    assert failed_ops(checks.check_ac(good_ac())) == []


@pytest.mark.parametrize("perturb", [
    lambda o: o["results"]["trajectory"][3].__setitem__(1, 1.0202),
    lambda o: o["results"]["distances"].__setitem__(2, 1.07e-4),
    lambda o: o["results"]["flags"].update(ac_stable=False),
    lambda o: o.update(status=3),
])
def test_ac_check_rejects_a_shifted_eigenvalue(perturb):
    out = good_ac()
    perturb(out)
    assert failed_ops(checks.check_ac(out)) == [0, 1, 2]


def test_ac_check_charges_an_error_to_its_field():
    out = good_ac()
    out["results"]["errors"].append("f=0.05: no eigenvalue in the target disk")
    assert failed_ops(checks.check_ac(out)) == [1]


@pytest.fixture(scope="module")
def scan():
    """A small f_scan: 16 seeded points with the pinned ones spread in,
    evaluated with the recorded values standing in for the f > 0 calls."""
    from starkres import FormFactor, ResolventEvaluator
    from starkres.oracle import erfc_closed_form
    pinned, reference = workloads.load_reference()
    z, idx = workloads.spread(workloads.scan_points(3, 16), pinned)
    f0 = np.array([erfc_closed_form(p) for p in z])
    v0 = ResolventEvaluator(FormFactor.gaussian(0.1, 1.0), 0.0).F_value(z)
    values = [v0]
    for ref in reference[1:]:
        v = np.full(z.shape, 0.5 + 0.1j)
        v[idx] = ref
        values.append(v)
    return z, idx, reference, f0, values


def check_scan(scan, values):
    z, idx, reference, f0, _ = scan
    return checks.check_f_scan(workloads.FS_FIELDS, z, values, idx,
                               reference, f0)


def test_scan_check_passes_unperturbed_values(scan):
    assert failed_ops(check_scan(scan, scan[4])) == []


@pytest.mark.parametrize("field, pinned, nth, value", [
    (0, False, 5, None),          # seeded f = 0 point off the closed form
    (0, True, -1, None),          # pinned f = 0 point
    (1, True, 7, None),           # pinned f = 0.01 point
    (2, False, 0, np.nan),        # seeded f = 0.005 point not finite
])
def test_scan_check_rejects_a_corrupted_value(scan, field, pinned, nth,
                                              value):
    z, idx = scan[0], scan[1]
    where = idx if pinned else np.setdiff1d(np.arange(z.size), idx)
    point = where[nth]
    values = copy.deepcopy(scan[4])
    v = values[field]
    v[point] = v[point] * (1 + 1e-6) if value is None else value
    assert failed_ops(check_scan(scan, values)) == [field]


def test_spread_keeps_both_sets_in_order():
    seeded = workloads.scan_points(4)
    pinned, _ = workloads.load_reference()
    z, idx = workloads.spread(seeded, pinned)
    assert z.size == seeded.size + pinned.size
    assert np.array_equal(z[idx], pinned)
    assert np.array_equal(np.delete(z, idx), seeded)
    assert idx[0] == 0 and idx[-1] == z.size - 1


@pytest.mark.parametrize("block", [67, 128, 1000])
def test_scan_check_sees_a_fault_in_any_block_of_a_full_batch(block):
    """A corruption confined to one block of the full-size batch, wherever
    the block sits, reaches a pinned point and fails the f = 0.01 call."""
    pinned, reference = workloads.load_reference()
    z, idx = workloads.spread(workloads.scan_points(1), pinned)
    values = []
    for ref in reference:
        v = np.full(z.shape, 0.5 + 0.1j)
        v[idx] = ref
        values.append(v)
    for start in range(0, z.size, block):
        bad = [v.copy() for v in values]
        bad[1][start:start + block] *= 1 + 1e-6
        problems = checks.check_f_scan(workloads.FS_FIELDS, z, bad, idx,
                                       reference, values[0])
        assert failed_ops(problems) == [1], start


def test_scan_check_counts_a_raising_call(scan):
    values = list(scan[4])
    values[2] = RuntimeError("boom")
    assert failed_ops(check_scan(scan, values)) == [2]


def test_scan_points_follow_the_seed():
    a, b = workloads.scan_points(5), workloads.scan_points(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, workloads.scan_points(6))
    lo, hi = workloads.WINDOW[:2], workloads.WINDOW[2:]
    assert np.all((a.real >= lo[0]) & (a.real <= lo[1]))
    assert np.all((a.imag >= hi[0]) & (a.imag <= hi[1]))
