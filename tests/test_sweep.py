import math

import numpy as np
import pytest

from conftest import R0
from starkres import (
    CertificateError,
    FloquetProblem,
    FormFactor,
    QuadratureError,
    ResolventEvaluator,
    Window,
    ac_sweep,
    dc_sweep,
)
from starkres import sweep
from starkres.rootfind import Resonance
from starkres.sweep import period_labels

# the three zeros of the f = 0.02 cloud on [0.9, 1.1]x[-0.05, -1e-6]
ZEROS_F002 = (0.961908 - 0.015862j, 1.013531 - 0.000588j,
              1.054779 - 0.011890j)


def _zeros(zs):
    return [Resonance(z, 1e-16, 1, 3) for z in zs]


def test_period_labels_of_the_f002_cloud(coupling):
    F0 = ResolventEvaluator(coupling, 0.0).F_value
    assert period_labels(F0, 0.02, _zeros(ZEROS_F002)) == (10, 11, 12)
    assert period_labels(F0, 0.02, []) == ()


@pytest.mark.parametrize("zs, match", (
    ((ZEROS_F002[0], ZEROS_F002[2]), "distinct and consecutive"),
    ((ZEROS_F002[0], ZEROS_F002[1], ZEROS_F002[1]),
     "distinct and consecutive"),
    ((-0.1 - 0.01j,), r"Re z <= 0"),
), ids=("gap", "duplicate", "negative-energy"))
def test_period_labels_refuse_a_broken_cloud(coupling, zs, match):
    F0 = ResolventEvaluator(coupling, 0.0).F_value
    with pytest.raises(CertificateError, match=match):
        period_labels(F0, 0.02, _zeros(zs))


def test_dc_sweep_small(coupling):
    res = dc_sweep(coupling, (0.05, 0.02), Window(0.9, 1.1, -0.05, -1e-6),
                   tol=1e-9)
    assert abs(res.reference - R0) < 1e-8
    assert all(len(g) >= 1 for g in res.resonances)
    assert res.c0_envelope > 0
    assert res.flags["r0_avoidance"]
    assert all(r.residual < 1e-9 for g in res.resonances for r in g)
    # each zero carries its period number, aligned with the resonances
    assert res.labels == ((4, 5), (10, 11, 12))
    # deterministic repetition
    res2 = dc_sweep(coupling, (0.05, 0.02), Window(0.9, 1.1, -0.05, -1e-6),
                    tol=1e-9)
    assert [(r.z, r.residual) for g in res.resonances for r in g] \
        == [(r.z, r.residual) for g in res2.resonances for r in g]


def test_dc_sweep_grid_validation(coupling):
    with pytest.raises(ValueError):
        dc_sweep(coupling, (0.02, 0.05), Window(0.9, 1.1, -0.05, -1e-6))
    with pytest.raises(ValueError):
        dc_sweep(coupling, (), Window(0.9, 1.1, -0.05, -1e-6))
    for grid in ((math.inf, 0.05), (0.05, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            dc_sweep(coupling, grid, Window(0.9, 1.1, -0.05, -1e-6))
    with pytest.raises(ValueError):
        dc_sweep(FormFactor.zero(), (0.05,), Window(0.9, 1.1, -0.05, -1e-6))


def _fail_above_zero_field(monkeypatch, exc):
    """Make the per-field searches raise ``exc``; the f = 0 reference
    search still runs."""
    real = sweep.find_zeros

    def find_zeros(F, window, tol=1e-10, *, pair):
        if F.__self__.f > 0:        # F is the evaluator's bound F_value
            raise exc
        return real(F, window, tol=tol, pair=pair)

    monkeypatch.setattr(sweep, "find_zeros", find_zeros)


def test_dc_sweep_records_numeric_failures(coupling, monkeypatch):
    _fail_above_zero_field(monkeypatch, QuadratureError("no convergence",
                                                        1e-3))
    res = dc_sweep(coupling, (0.05, 0.02), Window(0.9, 1.1, -0.05, -1e-6))
    assert abs(res.reference - R0) < 1e-8
    assert res.resonances == res.labels == ((), ())
    assert res.errors == tuple(
        f"f={f:.17g}: QuadratureError: no convergence "
        "(achieved error ~1.000e-03)"
        for f in (0.05, 0.02))


def test_dc_sweep_propagates_program_errors(coupling, monkeypatch):
    _fail_above_zero_field(monkeypatch, TypeError("a bug, not a numeric "
                                                  "failure"))
    with pytest.raises(TypeError):
        dc_sweep(coupling, (0.05, 0.02), Window(0.9, 1.1, -0.05, -1e-6))


def test_dc_sweep_records_certificate_errors(coupling, monkeypatch):
    _fail_above_zero_field(monkeypatch, CertificateError("undersampled"))
    res = dc_sweep(coupling, (0.05,), Window(0.9, 1.1, -0.05, -1e-6))
    assert res.errors == ("f=0.050000000000000003: CertificateError: "
                          "undersampled",)


def test_dc_sweep_records_label_failures(coupling, monkeypatch):
    # a field whose zeros skip a period fails that field alone
    real = sweep.find_zeros

    def find_zeros(F, window, tol=1e-10, *, pair):
        if F.__self__.f == 0.02:
            return _zeros((ZEROS_F002[0], ZEROS_F002[2]))
        return real(F, window, tol=tol, pair=pair)

    monkeypatch.setattr(sweep, "find_zeros", find_zeros)
    res = dc_sweep(coupling, (0.05, 0.02), Window(0.9, 1.1, -0.05, -1e-6))
    assert res.labels == ((4, 5), ())
    assert res.resonances[1] == ()
    assert res.errors == ("f=0.02: CertificateError: period labels [10, 12] "
                          "at f=0.02 are not distinct and consecutive",)


def test_dc_sweep_propagates_plain_runtime_errors(coupling, monkeypatch):
    # only the root finder's CertificateError is a numeric failure; any
    # other RuntimeError is a bug
    _fail_above_zero_field(monkeypatch, RuntimeError("a bug"))
    with pytest.raises(RuntimeError, match="a bug"):
        dc_sweep(coupling, (0.05, 0.02), Window(0.9, 1.1, -0.05, -1e-6))


def _floquet_zero(coupling, n_fourier, n_hermite):
    return FloquetProblem(coupling, 0.0, 1.0, 0.3j, n_fourier=n_fourier,
                          n_hermite=n_hermite)


def test_ac_sweep_small(coupling):
    res = ac_sweep(_floquet_zero(coupling, 4, 40), (0.1, 0.05, 0.02),
                   target=None, tol=1e-9)
    # reference is the field-free eigenvalue; the track closes on it
    traj = res.points
    assert [p.f for p in traj] == [0.1, 0.05, 0.02, 0.0]
    assert traj[-1].z == res.reference
    dists = [abs(p.z - res.reference) for p in traj[:-1]]
    assert list(res.distances) == dists
    assert dists[0] > dists[1] > dists[2]
    assert res.flags["converging_to_reference"]
    assert res.flags["ac_stable"]
    # each point is the stable resonance, not a continuum artifact
    assert all(0.0 < p.sensitivity < 1e-3 for p in traj)
    assert res.errors == ()


@pytest.mark.parametrize("sensitivity, within", [(1.5e-5, False),
                                                  (3e-5, True)])
def test_ac_sweep_seed_choice_and_truncation_floor(coupling, monkeypatch,
                                                   sensitivity, within):
    # of the two f = 0 pairs, the one nearer the seed is the less stable:
    # the track starts from the other.  The last field's distance, 2e-4,
    # counts as converged only within 10 times its sensitivity.
    from starkres.floquet import FloquetEigenpair

    seed = 1.0 - 0.01j
    stable = seed + 0.01
    shifts = {0.1: 1e-3, 0.05: 5e-4, 0.02: 2e-4}
    targets = []

    def eigen_near(problem, target, tol=1e-10, radius=0.1):
        targets.append((problem.f, target))
        if problem.f == 0.0:
            return [FloquetEigenpair(seed + 1e-3, 1e-12, 1e-2),
                    FloquetEigenpair(stable, 1e-12, 1e-6)]
        return [FloquetEigenpair(stable + shifts[problem.f], 1e-12,
                                 sensitivity)]

    monkeypatch.setattr(sweep, "eigen_near", eigen_near)
    res = ac_sweep(_floquet_zero(coupling, 2, 24), (0.1, 0.05, 0.02))
    assert targets == [(0.0, seed), (0.1, stable), (0.05, stable),
                       (0.02, stable)]
    assert res.reference == stable
    assert res.points[-1].z == stable
    assert res.distances == tuple(abs(stable + d - stable)
                                  for d in shifts.values())
    assert res.flags == {"converging_to_reference": True,
                         "within_truncation_floor": within,
                         "ac_stable": within}


def test_ac_sweep_needs_the_field_free_problem(coupling):
    prob = FloquetProblem(coupling, 0.1, 1.0, 0.3j, n_fourier=2,
                          n_hermite=24)
    with pytest.raises(ValueError, match="f = 0"):
        ac_sweep(prob, (0.05,))


def test_ac_sweep_records_failed_fields_in_grid_order(coupling, monkeypatch):
    # f = 0.1: a candidate in the disk that inverse iteration cannot bring
    # below tol; f = 0.05: no eigenvalue in the disk at all
    from starkres import sweep
    real = sweep.eigen_near

    def eigen_near(problem, target, tol=1e-10, **kw):
        if problem.f == 0.05:
            return []
        return real(problem, target, tol=1e-300 if problem.f else tol, **kw)

    monkeypatch.setattr(sweep, "eigen_near", eigen_near)
    res = ac_sweep(_floquet_zero(coupling, 2, 24), (0.1, 0.05), tol=1e-9)
    assert [p.f for p in res.points] == [0.0]
    assert res.distances == (np.inf, np.inf)
    assert not res.flags["ac_stable"]
    assert len(res.errors) == 2
    assert res.errors[0].startswith(
        "f=0.10000000000000001: LinAlgError: inverse iteration from "
        "candidate ")
    assert res.errors[1] == ("f=0.050000000000000003: no eigenvalue in the "
                             "target disk")
