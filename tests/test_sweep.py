import math

import numpy as np
import pytest

from conftest import R0
from starkres import (
    CertificateError,
    FloquetProblem,
    FormFactor,
    QuadratureError,
    Window,
    ac_sweep,
    dc_sweep,
)
from starkres import sweep
from starkres.rootfind import Resonance
from starkres.sweep import link_trajectories


def _groups(per_f):
    return tuple(
        tuple(Resonance(z, 1e-12, 1, 3) for z in zs)
        for f, zs in per_f
    )


def test_link_trajectories_permutation_invariant():
    per_f = [
        (0.05, [1.00 - 0.030j, 1.06 - 0.010j]),
        (0.02, [0.995 - 0.013j, 1.055 - 0.004j, 0.95 - 0.012j]),
        (0.01, [0.992 - 0.006j, 1.052 - 0.002j, 0.948 - 0.006j]),
    ]
    grid = tuple(f for f, _ in per_f)
    base = link_trajectories(grid, _groups(per_f))
    shuffled = [(f, list(reversed(zs))) for f, zs in per_f]
    again = link_trajectories(grid, _groups(shuffled))
    def canon(trajs):
        return sorted((tuple((p.f, p.z.real, p.z.imag) for p in t)
                       for t in trajs))
    assert canon(base) == canon(again)
    # chains are monotone along the grid and disjoint
    for t in base:
        fs = [p.f for p in t]
        assert fs == sorted(fs, reverse=True)
    all_pts = [(p.f, p.z) for t in base for p in t]
    assert len(all_pts) == len(set(all_pts)) == 8


def test_dc_sweep_small(coupling):
    res = dc_sweep(coupling, (0.05, 0.02), Window(0.9, 1.1, -0.05, -1e-6),
                   tol=1e-9)
    assert abs(res.reference - R0) < 1e-8
    assert all(len(g) >= 1 for g in res.resonances)
    assert res.c0_envelope > 0
    assert res.flags["r0_avoidance"]
    assert all(r.residual < 1e-9 for g in res.resonances for r in g)
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

    def find_zeros(F, window, tol=1e-10, *, fprime):
        if F.__self__.f > 0:        # F is the evaluator's bound F_value
            raise exc
        return real(F, window, tol=tol, fprime=fprime)

    monkeypatch.setattr(sweep, "find_zeros", find_zeros)


def test_dc_sweep_records_numeric_failures(coupling, monkeypatch):
    _fail_above_zero_field(monkeypatch, QuadratureError("no convergence",
                                                        1e-3))
    res = dc_sweep(coupling, (0.05, 0.02), Window(0.9, 1.1, -0.05, -1e-6))
    assert abs(res.reference - R0) < 1e-8
    assert res.resonances == ((), ())
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
    assert len(res.sensitivities) == 4
    assert res.errors == ()


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
