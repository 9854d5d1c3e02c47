import math
from types import SimpleNamespace

import numpy as np
import pytest

import starkres.oracle as oracle
from conftest import R0
from starkres import FormFactor, QuadratureError, ResolventEvaluator, Window
from starkres.oracle import (
    TaylorPathError,
    erfc_closed_form,
    erfc_free_element,
    full_resolvent_pole_test,
    grid_scan,
    ode_resolvent_oracle,
    taylor_continuation_oracle,
    verify_report,
)


def test_erfc_form_is_direct_integral(coupling):
    for z in (2j, 1 + 0.3j):
        assert abs(erfc_free_element(z)
                   - ode_resolvent_oracle(coupling, 0.0, z)) < 1e-10
    # the first Taylor ring of the pole test, integrated in one pass
    ring = 1.019 + 0.9j + 0.675 * np.exp(2j * np.pi * np.arange(256) / 256)
    direct = ode_resolvent_oracle(coupling, 0.0, ring)
    assert direct.shape == ring.shape
    for z, val in zip(ring, direct):
        assert abs(erfc_free_element(z) - val) < 1e-10


def test_direct_solve_fails_loudly_near_the_axis(coupling):
    z = 1 + 1e-6j
    exact = erfc_free_element(z, continued=False)
    assert abs(ode_resolvent_oracle(coupling, 0.0, z) - exact) \
        < 1e-9 * abs(exact)
    with pytest.raises(QuadratureError):
        ode_resolvent_oracle(coupling, 0.0, 1 + 1e-12j)


def test_direct_solve_in_a_field_fails_loudly(coupling, monkeypatch):
    # quad_vec giving up is a QuadratureError, not a warning
    message = "The maximum number of subdivisions (400) has been achieved."

    def gave_up(*args, **kwargs):
        assert kwargs["full_output"]
        return 0j, 1e-3, SimpleNamespace(status=1, message=message)

    monkeypatch.setattr(oracle, "quad_vec", gave_up)
    with pytest.raises(QuadratureError, match="maximum number of subdiv"):
        ode_resolvent_oracle(coupling, 0.05, 1 + 0.9j)


def test_erfc_closed_form_zero_is_reference():
    # Newton on the closed form reproduces the pinned resonance
    z = 1.0 - 0.01j
    for _ in range(40):
        h = 1e-7
        d = (erfc_closed_form(z + h) - erfc_closed_form(z - h)) / (2 * h)
        step = erfc_closed_form(z) / d
        z -= step
        if abs(step) < 1e-14:
            break
    assert abs(z - R0) < 1e-12


def test_pole_term_value():
    # jump between continued and direct branches at real positive z
    for lam in (0.8, 1.0, 1.3):
        jump = erfc_free_element(complex(lam, -1e-12)) \
            - erfc_free_element(complex(lam, -1e-12), continued=False)
        expect = 1j * math.pi * np.exp(-lam) / (50.0 * math.sqrt(lam))
        assert abs(jump - expect) < 1e-12


def test_golden_rule_width_estimate():
    # leading-order width -pi e^{-Re r}/100 agrees with the true one to 10%
    est = math.pi * math.exp(-R0.real) / 100.0
    assert abs(est - abs(R0.imag)) / abs(R0.imag) < 0.10


def test_ode_oracle_zero_coupling():
    assert ode_resolvent_oracle(FormFactor.zero(), 0.05, 1j) == 0


def test_ode_oracle_free_field_limit(coupling):
    ev0 = ResolventEvaluator(coupling, 0.0)
    free = complex(ev0.free_continued(2j))
    v3 = ode_resolvent_oracle(coupling, 1e-3, 2j)
    v4 = ode_resolvent_oracle(coupling, 1e-4, 2j)
    # quadratic Richardson step in f
    extrap = v4 + (v4 - v3) / 99.0
    assert abs(v3 - free) < 5e-9
    assert abs(extrap - free) < 1e-11


def test_ode_oracle_matches_stark_paths(coupling):
    for f in (0.01, 0.05):
        ev = ResolventEvaluator(coupling, f)
        for z in (1.0 + 0.9j, 0.8 + 1.2j):
            oracle = ode_resolvent_oracle(coupling, f, z)
            assert abs(complex(ev.stark_matrix_element(z)) - oracle) < 1e-9


def test_taylor_rational():
    g = lambda z: 1.0 / (z + 2.0 + 0.5j)
    t = 0.8 - 0.3j
    assert abs(taylor_continuation_oracle(g, t) - g(t)) < 1e-9


def test_taylor_matches_free_continuation(coupling):
    ev = ResolventEvaluator(coupling, 0.0)
    f_up = ev.free_continued
    for t in (1.0 - 0.02j, 0.95 - 0.05j):
        assert abs(taylor_continuation_oracle(f_up, t) - f_up(t)) < 1e-7


def test_stark_continuation_certified_by_independent_contour(coupling):
    # the across-axis continuation for f > 0 carries a component of size
    # exp(-2 Im(z)/f) that no fixed-degree Taylor chain from the upper
    # half-plane can resolve at small f; the binding cross-check is the
    # agreement of two independent exact representations
    for f in (0.05, 0.3):
        ev = ResolventEvaluator(coupling, f)
        for t in (1.0 - 0.01j, 0.95 - 0.04j):
            assert abs(ev.stark_time_ray(t)
                       - complex(ev.stark_matrix_element(t))) < 1e-10


def test_taylor_path_independence(coupling):
    ev = ResolventEvaluator(coupling, 0.0)
    f_up = ev.free_continued
    t = 0.96 - 0.03j
    p1 = [complex(0.96, 0.9), complex(0.96, 0.5), complex(0.96, 0.22),
          complex(0.96, 0.07)]
    p2 = [complex(1.1, 1.0), complex(1.02, 0.55), complex(0.98, 0.24),
          complex(0.96, 0.08)]
    a = taylor_continuation_oracle(f_up, t, path=p1)
    b = taylor_continuation_oracle(f_up, t, path=p2)
    assert abs(a - b) < 1e-7


def test_taylor_rejects_overlong_step():
    g = lambda z: 1.0 / (z - (1.0 - 0.05j))   # pole right below the axis
    with pytest.raises(TaylorPathError):
        taylor_continuation_oracle(g, 1.0 - 0.5j,
                                   path=[1.0 + 0.9j, 1.0 - 0.45j])


def test_grid_scan_synthetic():
    roots = (1.02 - 0.01j, 0.95 - 0.03j)
    F = lambda z: (np.asarray(z, dtype=complex) - roots[0]) \
        * (np.asarray(z, dtype=complex) - roots[1])
    out = grid_scan(F, Window(0.9, 1.1, -0.05, -0.001), n=60,
                    threshold=0.01)
    assert len(out) == 2
    for r in roots:
        assert min(abs(c - r) for c in out) < 0.01


def test_grid_scan_reference_cell(coupling):
    ev = ResolventEvaluator(coupling, 0.0)
    out = grid_scan(ev.F_value, Window(0.9, 1.1, -0.05, -1e-4), n=50,
                    threshold=0.05)
    assert len(out) == 1
    assert abs(out[0] - R0) < 0.01


@pytest.fixture(scope="module")
def pole_result(coupling):
    psi = FormFactor.gaussian(0.08, 0.8)
    return full_resolvent_pole_test(coupling, 0.0, psi, 1.0 + 0.3j, R0)


def test_full_pole_test_at_reference(pole_result):
    assert pole_result.passed and not pole_result.inconclusive
    assert abs(pole_result.pole_location - R0) < 1e-5
    assert pole_result.residue_spread < 0.35


def test_full_pole_test_c_zero(coupling):
    # with no discrete component the pole persists through the coupling
    # cross terms
    psi = FormFactor.gaussian(0.09, 1.1)
    res = full_resolvent_pole_test(coupling, 0.0, psi, 0.0, R0)
    assert res.passed


def test_full_pole_test_residue_scale(coupling):
    # psi = phi, c = 0: residue is r(r0)^2 / F'(r0)
    ev = ResolventEvaluator(coupling, 0.0)
    expected = abs(complex(ev.free_continued(R0))) ** 2 \
        / abs(ev.F_derivative(R0))
    res = full_resolvent_pole_test(coupling, 0.0, coupling, 0.0, R0,
                                   rho=2e-3)
    assert res.passed
    # probe the assembled element magnitude near the pole
    probe = R0 + 1e-3
    # residue magnitude from |g(z)| |z - r|
    psi = coupling
    from starkres.oracle import _pair_element_upper, TaylorContinuation, \
        default_continuation_path
    path = default_continuation_path(R0)
    ff = TaylorContinuation(
        lambda z: _pair_element_upper(coupling, coupling, 0.0, z), path)
    g = ff.eval(probe) ** 2 / (1.0 - probe - ff.eval(probe))
    assert abs(abs(g) * abs(probe - R0) - expected) < 0.2 * expected


@pytest.mark.parametrize("psi, chains", [
    (FormFactor.gaussian(0.08, 0.8), 7),
    (FormFactor.gaussian(0.1, 1.0), 4),
], ids=["distinct", "psi-is-phi"])
def test_full_pole_test_builds_each_chain_once(coupling, monkeypatch, psi,
                                               chains):
    # one direct solve per distinct (u, v) pair, over the whole first ring
    sizes = []
    direct = oracle._pair_element_upper

    def counted(u, v, f, z, *args):
        sizes.append(np.size(z))
        return direct(u, v, f, z, *args)

    monkeypatch.setattr(oracle, "_pair_element_upper", counted)
    full_resolvent_pole_test(coupling, 0.0, psi, 0.0, R0)
    assert sizes == [256] * chains


def test_full_pole_test_no_pole_for_zero_coupling():
    psi = FormFactor.gaussian(0.08, 0.8)
    res = full_resolvent_pole_test(FormFactor.zero(), 0.0, psi, 1.0 + 0.3j,
                                   1.019 - 0.011j)
    assert not res.passed


def test_verify_report_structure():
    rep = verify_report()
    names = {c["name"] for c in rep["checks"]}
    assert "free_vs_erfc_closed_form" in names
    assert any(n.startswith("stark_vs_ode_oracle") for n in names)
    assert all(isinstance(c["max_deviation"], float) for c in rep["checks"])
    assert rep["all_pass"]
