"""Acceptance criteria, one test per criterion, at pinned tolerances.

Each test prints a single PASS/FAIL line (also appended to
acceptance_report.txt next to this file) with the measured quantities and
runtime.  Criteria come with runtime budgets; fixture construction costs
are charged to the first test that uses them.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import R0
from starkres import (
    FloquetProblem,
    ResolventEvaluator,
    Window,
    ac_sweep,
    dc_sweep,
    eigen_near,
    find_zeros,
)
from starkres.oracle import erfc_closed_form, ode_resolvent_oracle
from starkres.driver import main as cli_main

REPORT = Path(__file__).with_name("acceptance_report.txt")
SWEEP_GRID = (0.05, 0.02, 0.01, 0.005)
SWEEP_WINDOW = Window(0.9, 1.1, -0.05, -1e-6)
AC_GRID = (0.1, 0.05, 0.02)
# six-significant-figure published value for this coupling; criterion 1
# measures against this, independent of every constant in the package
R0_REFERENCE = 1.01905 - 0.0111115j


def report(line: str) -> None:
    print(line, flush=True)
    with REPORT.open("a", encoding="utf-8") as fh:
        fh.write(line + "\n")


@pytest.fixture(scope="module", autouse=True)
def _fresh_report():
    REPORT.write_text("", encoding="utf-8")
    yield


@pytest.fixture(scope="module")
def located_r0(coupling):
    t0 = time.monotonic()
    ev = ResolventEvaluator(coupling, 0.0)
    zeros = find_zeros(ev.F_value, Window(0.9, 1.1, -0.05, -1e-4),
                       tol=1e-10, pair=ev.F_pair)
    return zeros, time.monotonic() - t0


@pytest.fixture(scope="module")
def sweep_result(coupling):
    t0 = time.monotonic()
    res = dc_sweep(coupling, SWEEP_GRID, SWEEP_WINDOW, tol=1e-9)
    return res, time.monotonic() - t0


@pytest.fixture(scope="module")
def floquet_zero(coupling):
    t0 = time.monotonic()
    prob = FloquetProblem(coupling, 0.0, 1.0, 0.3j, n_fourier=16,
                          n_hermite=80)
    pairs = eigen_near(prob, R0, tol=1e-10, radius=0.05)
    return prob, pairs, time.monotonic() - t0


@pytest.fixture(scope="module")
def ac_result(coupling, located_r0):
    zeros, _ = located_r0
    t0 = time.monotonic()
    prob = FloquetProblem(coupling, 0.0, 1.0, 0.3j, n_fourier=16,
                          n_hermite=80)
    res = ac_sweep(prob, AC_GRID, target=zeros[0].z, tol=1e-9)
    return res, time.monotonic() - t0


def test_criterion_01_r0_reproduction(located_r0):
    zeros, dt = located_r0
    dz = abs(zeros[0].z - R0_REFERENCE) if zeros else math.inf
    ok = len(zeros) == 1 and dz < 1e-4 and dt < 10.0
    report(f"ACCEPTANCE 01 r0-reproduction: {'PASS' if ok else 'FAIL'} "
           f"(n={len(zeros)}, |z-r0|={dz:.2e}, {dt:.1f}s)")
    assert len(zeros) == 1
    assert dz < 1e-4
    assert dt < 10.0


def test_criterion_02_rouche_certificate(coupling):
    t0 = time.monotonic()
    ev = ResolventEvaluator(coupling, 0.0)
    cert = ev.certify_unique(1.0, 0.1)
    dt = time.monotonic() - t0
    ok = bool(cert) and dt < 5.0
    report(f"ACCEPTANCE 02 rouche-certificate: {'PASS' if ok else 'FAIL'} "
           f"(max|r|={cert.max_coupling:.4f} < {cert.min_linear:.4f}, "
           f"{dt:.1f}s)")
    assert bool(cert)
    assert dt < 5.0


def test_criterion_03_golden_rule(located_r0):
    zeros, _ = located_r0
    r0 = zeros[0].z
    est = math.pi * math.exp(-r0.real) / 100.0
    rel = abs(est - abs(r0.imag)) / abs(r0.imag)
    ok = rel < 0.10
    report(f"ACCEPTANCE 03 golden-rule-sanity: {'PASS' if ok else 'FAIL'} "
           f"(estimate {est:.6f} vs |Im r0| {abs(r0.imag):.6f}, "
           f"rel dev {rel:.3f})")
    assert rel < 0.10


def test_criterion_04_dc_instability_law(sweep_result, located_r0):
    res, dt = sweep_result
    zeros, _ = located_r0
    r0 = zeros[0].z
    # |Im r|/f depends on where r sits in Re z but not on f, so the
    # constant fitted on the largest-f cloud bounds the smaller-f zeros
    # over the Re band that cloud spans
    c0 = res.c0_largest_f
    re_top = [r.z.real for r in res.resonances[0]]
    lo, hi = (min(re_top), max(re_top)) if re_top else (math.nan, math.nan)
    counts, ratios, violations = [], [], []
    for f, group in zip(res.f_grid[1:], res.resonances[1:]):
        in_band = [r for r in group if lo <= r.z.real <= hi]
        counts.append(len(in_band))
        for r in in_band:
            ratio = abs(r.z.imag) / f
            ratios.append(ratio)
            if ratio > c0:
                violations.append((f, r.z, ratio))
    compared_ok = all(counts)
    bound_ok = not violations
    worst_in_band = max(ratios, default=0.0)
    worst_window = max((abs(r.z.imag) / f for f, r in res.all_points()),
                       default=0.0)
    min_d = res.min_dist_reference[-1]
    avoid_ok = min_d > abs(r0.imag) / 2.0
    time_ok = dt < 900.0
    ok = compared_ok and bound_ok and avoid_ok and time_ok
    status = "PASS" if ok else "FAIL"
    report(f"ACCEPTANCE 04 dc-instability-law: {status} "
           f"(c0@f={res.f_grid[0]}: {c0:.4f} on Re [{lo:.4f}, {hi:.4f}], "
           f"zeros compared per f "
           + ", ".join(f"{f}: {n}" for f, n in zip(res.f_grid[1:], counts))
           + f", worst in-band ratio {worst_in_band:.4f}, "
           f"violations={len(violations)}; "
           f"window-wide worst ratio {worst_window:.4f}, "
           f"c0_envelope {res.c0_envelope:.4f}; "
           f"min|z-r0|@f={res.f_grid[-1]}: {min_d:.5f} "
           f"> {abs(r0.imag) / 2.0:.5f}: {avoid_ok}, {dt:.0f}s)")
    assert avoid_ok, "cloud approached the field-free resonance"
    assert time_ok
    assert compared_ok, (
        f"some smaller f puts no zero in the Re band [{lo:.4f}, {hi:.4f}] "
        f"of the largest-f cloud: counts {counts}"
    )
    assert bound_ok, (
        f"|Im r| <= c0*f with c0={c0:.4f} fitted on the largest-f data "
        f"fails on Re [{lo:.4f}, {hi:.4f}]: worst ratio "
        f"{worst_in_band:.4f} at {violations}"
    )


def test_criterion_05_cloud_trend(sweep_result):
    res, _ = sweep_result
    d = [abs(m - 1.0) for m in res.mean_re]
    ok = all(
        d[k + 1] <= d[k] + res.scatter_re[k + 1]
        for k in range(len(d) - 1)
    )
    report(f"ACCEPTANCE 05 cloud-trend: {'PASS' if ok else 'FAIL'} "
           f"(|mean Re - 1| per f: "
           + ", ".join(f"{v:.5f}" for v in d)
           + "; scatter: " + ", ".join(f"{s:.4f}" for s in res.scatter_re)
           + ")")
    assert ok


def test_criterion_06_oracle_equivalence(coupling):
    t0 = time.monotonic()
    pts = [complex(x, y) for x in (0.7, 0.9, 1.1, 1.3, 1.5)
           for y in (0.8, 1.2)]
    worst_ode = 0.0
    for f in (0.01, 0.05):
        ev = ResolventEvaluator(coupling, f)
        for z in pts:
            dev = abs(complex(ev.stark_matrix_element(z))
                      - ode_resolvent_oracle(coupling, f, z))
            worst_ode = max(worst_ode, dev)
    ev0 = ResolventEvaluator(coupling, 0.0)
    worst_free = 0.0
    for x in np.linspace(0.6, 1.4, 10):
        for y in np.linspace(-0.4, 0.4, 10):
            if abs(y) < 1e-9:
                continue
            z = complex(x, y)
            worst_free = max(worst_free,
                             abs(complex(ev0.F_value(z))
                                 - erfc_closed_form(z)))
    dt = time.monotonic() - t0
    ok = worst_ode < 1e-8 and worst_free < 1e-10 and dt < 120.0
    report(f"ACCEPTANCE 06 oracle-equivalence: {'PASS' if ok else 'FAIL'} "
           f"(stark-vs-ode {worst_ode:.2e} at {2 * len(pts)} points, "
           f"free-vs-erfc {worst_free:.2e} on 10x10, {dt:.0f}s)")
    assert worst_ode < 1e-8
    assert worst_free < 1e-10
    assert dt < 120.0


def test_criterion_07_analyticity(coupling):
    ev = ResolventEvaluator(coupling, 0.01)
    center, half = 1.0 - 0.05j, 0.1
    xg, wg = np.polynomial.legendre.leggauss(24)
    corners = [center - half - half * 1j, center + half - half * 1j,
               center + half + half * 1j, center - half + half * 1j]
    total = 0.0 + 0.0j
    peak = 0.0
    for a, b in zip(corners, corners[1:] + corners[:1]):
        for k in range(4):
            aa = a + (b - a) * k / 4.0
            bb = a + (b - a) * (k + 1) / 4.0
            zs = 0.5 * (bb - aa) * xg + 0.5 * (aa + bb)
            vals = np.asarray(ev.F_value(zs))
            total += 0.5 * (bb - aa) * np.sum(wg * vals)
            peak = max(peak, float(np.max(np.abs(vals))))
    rel = abs(total) / (peak * 8 * half)
    ok = rel < 1e-7
    report(f"ACCEPTANCE 07 analyticity-morera: {'PASS' if ok else 'FAIL'} "
           f"(relative contour integral {rel:.2e}, max|F|={peak:.2e})")
    assert rel < 1e-7


def test_criterion_08_ac_stability(coupling, located_r0, floquet_zero,
                                   ac_result):
    zeros, _ = located_r0
    r0 = zeros[0].z
    prob0, pairs0, dt_zero = floquet_zero
    ac, dt_ac = ac_result

    lam0 = min(pairs0, key=lambda p: (p.sensitivity,
                                      abs(p.eigenvalue - R0)))
    da = abs(lam0.eigenvalue - r0)
    a_ok = da < 1e-3

    t0 = time.monotonic()
    copy_dev = 0.0
    for n in (-2, -1, 1, 2):
        shifted = eigen_near(prob0, lam0.eigenvalue + n * 1.0, tol=1e-10,
                             radius=0.02)
        dev = min((abs(p.eigenvalue - (lam0.eigenvalue + n))
                   for p in shifted), default=math.inf)
        copy_dev = max(copy_dev, dev)
    b_ok = copy_dev < 1e-10
    dt_copies = time.monotonic() - t0

    dists = list(ac.distances)
    c_ok = len(dists) == 3 and dists[0] > dists[1] > dists[2]
    dt = dt_zero + dt_ac + dt_copies
    time_ok = dt < 1200.0
    ok = a_ok and b_ok and c_ok and time_ok
    report(f"ACCEPTANCE 08 ac-stability: {'PASS' if ok else 'FAIL'} "
           f"(a: |lam(0)-r0|={da:.2e}<1e-3: {a_ok}; "
           f"b: copy dev {copy_dev:.2e}<1e-10: {b_ok}; "
           f"c: distances {', '.join(f'{d:.2e}' for d in dists)} "
           f"decreasing: {c_ok}; {dt:.0f}s)")
    assert a_ok
    assert b_ok
    assert c_ok
    assert time_ok


def test_criterion_09_dichotomy(sweep_result, ac_result):
    sweep, _ = sweep_result
    ac, _ = ac_result
    dc_flag = sweep.flags["dc_unstable"]
    ac_flag = ac.flags["ac_stable"]
    ok = dc_flag and ac_flag
    report(f"ACCEPTANCE 09 dichotomy: {'PASS' if ok else 'FAIL'} "
           f"(dc_unstable={dc_flag}, ac_stable={ac_flag})")
    assert dc_flag
    assert ac_flag


def test_criterion_10_determinism(tmp_path):
    t0 = time.monotonic()
    args = ["sweep", "--f-grid", "0.05,0.02", "--re-min", "0.95",
            "--re-max", "1.1", "--im-min=-0.05", "--im-max=-1e-6",
            "--tol", "1e-9"]
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(args + ["--out", str(out)]) == 0
        outs.append(out)
    same = all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
        for n in ("sweep.csv", "manifest.json", "re_vs_f.svg",
                  "im_vs_f.svg")
    )
    dt = time.monotonic() - t0
    report(f"ACCEPTANCE 10 determinism: {'PASS' if same else 'FAIL'} "
           f"(byte-identical CSV/manifest/SVG across reruns, {dt:.0f}s)")
    assert same
