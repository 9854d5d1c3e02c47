import math
import re
import warnings

import numpy as np
import pytest
from scipy import special

import starkres.resolvent as resolvent
from conftest import R0, TWO_TERMS
from starkres import (
    CutProximityError,
    FormFactor,
    QuadratureError,
    ResolventEvaluator,
    _special,
)
from starkres._gauss import cauchy_derivative, gauss_legendre
from starkres._special import _node_reach, _taylor_table
from starkres.formfactor import Term
from starkres.oracle import (erfc_closed_form, erfc_free_element,
                             ode_resolvent_oracle)
from starkres.resolvent import _airy_coefficients, _taylor_terms

SQRT_PI = math.sqrt(math.pi)


@pytest.fixture(scope="module")
def ev0(coupling):
    return ResolventEvaluator(coupling, 0.0)


# ----------------------------------------------------------------------
# free line


def test_zero_coupling_everything_trivial():
    ev = ResolventEvaluator(FormFactor.zero(), 0.0)
    assert ode_resolvent_oracle(FormFactor.zero(), 0.0, 2j) == 0
    assert complex(ev.free_continued(1 - 0.3j)) == 0
    assert complex(ev.F_value(1 - 0.3j)) == pytest.approx(0.3j, abs=1e-15)
    assert ev.F_derivative(0.5 - 0.2j) == pytest.approx(-1.0, abs=1e-12)


def test_direct_element_matches_closed_form(coupling):
    for z in (2j, 1 + 0.5j, 0.4 + 1.2j):
        assert abs(ode_resolvent_oracle(coupling, 0.0, z)
                   - erfc_free_element(z)) < 1e-10


def test_large_z_limit(ev0, coupling):
    # z * r(z) -> -|phi|^2 along the imaginary axis
    vals = {}
    for mag in (1e3, 1e4):
        z = 1j * mag
        vals[mag] = complex(z * ev0.free_continued(z))
    # first-order Richardson in 1/|z|
    extrap = vals[1e4] + (vals[1e4] - vals[1e3]) / 9.0
    assert abs(extrap - (-SQRT_PI / 100.0)) < 1e-8


@pytest.mark.parametrize("phi, z", [
    (FormFactor.gaussian(0.1, 1.0), -20.0 + 0.1j),
    (FormFactor.gaussian(0.1, 1.0), -50.0 + 0.001j),
    (TWO_TERMS, 1000j),
], ids=["gaussian-left", "gaussian-near-cut", "two-terms-far"])
def test_free_element_far_from_the_window_matches_oracle(phi, z):
    # far from the resonance window, on both sides of the origin, the
    # closed form keeps its relative accuracy
    ref = ode_resolvent_oracle(phi, 0.0, z)
    got = complex(ResolventEvaluator(phi, 0.0).free_continued(z))
    assert abs(got - ref) <= 1e-9 * abs(ref)


def _faddeeva_ring(radius):
    # 3601 arguments on |zeta| = radius, phases -pi to pi in steps of
    # pi/1800, half of them below the axis
    return radius * np.exp(1j * np.pi * np.arange(-1800, 1801) / 1800)


@pytest.mark.parametrize("radius", (0.01, 0.5, 1.0, 3.0, 8.0, 20.0, 100.0,
                                    resolvent._W_REACH,
                                    2.0 * resolvent._W_REACH, 1e3))
def test_faddeeva_matches_wofz(radius):
    # Weideman's N = 40 approximation, reflected below the axis, against
    # scipy's wofz on rings out to past the reach the evaluator accepts,
    # within 16 eps (1 + |zeta|^2) of |w| above the axis and of
    # |2 e^{-zeta^2}| + |w(-zeta)| below it; where e^{-zeta^2} overflows
    # both are non-finite.  Worst measured: 0.38 of the bound at
    # radius 0.01, under 0.01 past the reach
    z = _faddeeva_ring(radius)
    ref = special.wofz(z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = _special._faddeeva(z)
    finite = np.isfinite(ref)
    assert np.array_equal(np.isfinite(w), finite)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.where(z.imag >= 0.0, np.abs(ref),
                         np.abs(2.0 * np.exp(-z * z))
                         + np.abs(special.wofz(-z)))
    bound = 16.0 * np.finfo(float).eps * (1.0 + radius ** 2) * scale
    assert np.all((np.abs(w - ref) <= bound)[finite])


@pytest.mark.parametrize("z", (1e5j, 3e4 + 1.0j, -3e4 - 1.0j))
def test_free_element_refuses_arguments_past_the_reach(ev0, z):
    # |s| = sqrt|z| of about 316 or 173 puts the Faddeeva arguments past
    # the reach, above and below the axis
    with pytest.raises(QuadratureError, match="reach"):
        ev0.free_continued(z)
    with pytest.raises(QuadratureError, match="reach"):
        ev0.F_value(np.array([1.0 - 0.01j, z]))


def test_free_element_overflow_raises_without_warnings(ev0):
    # just below the cut at -1000, e^{-zeta^2} of the reflected Faddeeva
    # values passes double precision: a loud error, no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="overflowed"):
            ev0.free_continued(-1000.0 - 1.0j)


def test_series_reach_matches_the_gammaln_table():
    # the remainder-bound table from math.lgamma against the same table
    # from scipy's gammaln: equal to 4 ulp entry by entry, the same
    # smallest reach (so the same _AIRY_R), and the same term count for
    # every |xi| on a fine grid
    n = np.arange(64)
    k = n[1:]
    u = np.cumprod(np.concatenate(([1.0], (6 * k - 5) * (6 * k - 3)
                                   * (6 * k - 1) / ((2 * k - 1) * 216.0 * k))))
    v = -(6 * n + 1) / (6 * n - 1) * u
    chi = SQRT_PI * np.exp(special.gammaln(n / 2 + 1)
                           - special.gammaln(n / 2 + 0.5))
    ref = np.full(32, math.inf)
    ref[1:] = ((chi[2::2] + 1.0) * np.abs(v[2::2])
               / np.finfo(float).eps) ** (1.0 / n[2::2])
    reach = _special._SERIES_REACH
    assert np.all(np.abs(reach[1:] - ref[1:]) <= 4 * np.spacing(ref[1:]))
    assert reach[0] == ref[0] == math.inf
    assert reach.min() == ref.min() == _special._AIRY_XI
    xi = np.linspace(_special._AIRY_XI, 400.0, 20001)
    assert np.array_equal(np.argmax(reach[:, None] <= xi, axis=0),
                          np.argmax(ref[:, None] <= xi, axis=0))


@pytest.mark.parametrize("f", (math.nan, math.inf))
def test_evaluator_rejects_nonfinite_field(coupling, f):
    with pytest.raises(ValueError, match="field strength"):
        ResolventEvaluator(coupling, f)


@pytest.mark.parametrize("z", [
    complex(math.nan), complex(1.0, math.inf),
    np.array([1.0 - 0.01j, complex(math.inf, 0.0), 0.95 - 0.02j]),
], ids=("nan", "inf-imag", "array-with-inf"))
@pytest.mark.parametrize("f", (0.0, 0.01))
def test_evaluator_rejects_nonfinite_points(coupling, f, z):
    # at f > 0 such a point used to reach the time ray, whose step
    # 4/|z| is then 0, so the evaluation never returned
    ev = ResolventEvaluator(coupling, f)
    entries = [ev.F_value,
               ev.free_continued if f == 0.0 else ev.stark_matrix_element]
    if np.ndim(z) == 0:
        entries.append(ev.F_derivative)
        if f > 0.0:
            entries.append(ev.stark_time_ray)
    for entry in entries:
        with pytest.raises(ValueError, match="finite"):
            entry(z)


def test_continuity_across_positive_axis(ev0):
    up = complex(ev0.free_continued(1.0 + 1e-8j))
    dn = complex(ev0.free_continued(1.0 - 1e-8j))
    assert abs(up - dn) < 1e-7


def test_continued_equals_direct_in_upper_half(ev0, coupling, rng):
    for _ in range(50):
        z = complex(0.3 + 1.7 * rng.rand(), 0.05 + 1.5 * rng.rand())
        assert abs(complex(ev0.free_continued(z))
                   - ode_resolvent_oracle(coupling, 0.0, z)) < 1e-9


def test_pole_term_near_one(ev0):
    # continued minus direct-integral branch equals i pi e^{-z}/(50 sqrt z)
    for z in (1.0 - 0.02j, 0.9 - 0.04j):
        jump = complex(ev0.free_continued(z)) - erfc_free_element(
            z, continued=False)
        expect = 1j * math.pi * np.exp(-z) / (50.0 * np.sqrt(z))
        assert abs(jump - expect) < 1e-12


def test_jump_across_cut_matches_pole_term(coupling):
    lam = 1.0
    eps = 1e-6
    up = ode_resolvent_oracle(coupling, 0.0, lam + 1j * eps)
    # real coupling: value below the axis is the conjugate of above
    jump = up - np.conj(up)
    expect = 2j * math.pi * (math.exp(-lam) / 100.0) / math.sqrt(lam)
    assert abs(jump - expect) < 5e-5   # O(eps) agreement


def test_schwarz_reflection(ev0, rng):
    # for the real even coupling: r(conj z) = conj(r(z)) - conj(pole(z))
    for _ in range(20):
        z = complex(0.5 + rng.rand(), -(0.01 + 0.3 * rng.rand()))
        rz = complex(ev0.free_continued(z))
        rbar = complex(ev0.free_continued(np.conj(z)))
        pole = 1j * math.pi * np.exp(-z) / (50.0 * np.sqrt(z))
        assert abs(rbar - (np.conj(rz) - np.conj(pole))) < 1e-10


def test_F_at_reference_resonance(ev0):
    assert abs(complex(ev0.F_value(R0))) < 1e-12


def test_F_derivative_matches_finite_differences(ev0, rng):
    for _ in range(20):
        z = complex(0.8 + 0.4 * rng.rand(), -0.04 + 0.08 * rng.rand())
        if abs(z.imag) < 1e-3:
            z += 5e-3j
        h = 1e-6
        fd = (complex(ev0.F_value(z + h)) - complex(ev0.F_value(z - h))) \
            / (2 * h)
        assert abs(ev0.F_derivative(z) - fd) < 1e-6


def test_free_matches_erfc_F_on_grid(ev0):
    for x in np.linspace(0.6, 1.4, 10):
        for y in np.linspace(-0.4, 0.4, 10):
            z = complex(x, y)
            if abs(y) < 1e-9:
                continue
            assert abs(complex(ev0.F_value(z)) - erfc_closed_form(z)) < 1e-10


def test_cut_proximity_rejected(ev0):
    with pytest.raises(CutProximityError):
        ev0.free_continued(-0.5 + 1e-12j)
    with pytest.raises(CutProximityError):
        ev0.free_continued(1e-12j)


def test_determinism(ev0):
    z = np.array([1 - 0.01j, 0.95 - 0.03j])
    a = ev0.free_continued(z)
    b = ev0.free_continued(z)
    assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# propagator time representation


def test_propagator_element_at_zero(coupling):
    ev = ResolventEvaluator(coupling, 0.01)
    assert complex(ev.propagator_element(0.0)) == pytest.approx(
        SQRT_PI / 100.0, abs=1e-15)


def test_propagator_unitarity_bound(coupling):
    ev = ResolventEvaluator(coupling, 0.3)
    s = np.linspace(0.0, 40.0, 81)
    vals = np.abs(ev.propagator_element(s))
    assert np.all(vals <= SQRT_PI / 100.0 + 1e-14)


def test_propagator_free_limit(coupling):
    # f -> 0: m(s) = (sqrt(pi)/100) (1+is)^{-1/2}, checked against direct
    # quadrature of the spreading-Gaussian integral
    from scipy.integrate import quad
    ev = ResolventEvaluator(coupling, 1e-7)
    for s in np.linspace(0.1, 6.0, 10):
        direct = quad(lambda k: (np.exp(-k * k) / 100.0
                                 * np.exp(-1j * k * k * s)).real,
                      -10, 10, epsabs=1e-13)[0] \
            + 1j * quad(lambda k: (np.exp(-k * k) / 100.0
                                   * np.exp(-1j * k * k * s)).imag,
                        -10, 10, epsabs=1e-13)[0]
        assert abs(complex(ev.propagator_element(s)) - direct) < 1e-9


# ----------------------------------------------------------------------
# Stark line (f > 0)


def test_stark_zero_coupling():
    ev = ResolventEvaluator(FormFactor.zero(), 0.05)
    assert complex(ev.stark_matrix_element(1 - 0.01j)) == 0


def test_stark_matches_time_ray_below_axis(coupling):
    ev = ResolventEvaluator(coupling, 0.05)
    for z in (1 - 0.01j, 0.95 - 0.03j, 1.1 - 0.005j):
        assert abs(complex(ev.stark_matrix_element(z))
                   - ev.stark_time_ray(z)) < 1e-10


@pytest.mark.parametrize("f, z", [
    (0.05, 0.8 + 0.3j), (0.05, 1.0 + 0.3j), (0.05, 1.2 + 0.3j),
    (0.05, 0.7 + 0.5j), (0.01, 1.0 + 0.1j), (0.2, 0.7 + 1.1j),
    # points above the axis that stay on the Airy route
    (0.05, 1.0 + 0.1j), (0.01, 1.0 + 0.02j),
])
def test_stark_matches_time_ray_above_axis(coupling, f, z):
    # above the axis the element stays small while the Airy factors grow,
    # so the routed value must keep the accuracy of the time ray; a
    # shallow ray stays accurate down to f = 0.01, and so does the
    # default angle, which shrinks with arg z
    ev = ResolventEvaluator(coupling, f)
    ray = ev.stark_time_ray(z, math.pi / 48)
    assert abs(complex(ev.stark_matrix_element(z)) - ray) <= 1e-10 * abs(ray)
    assert abs(ev.stark_time_ray(z) - ray) <= 1e-10 * abs(ray)


def test_time_ray_contour_independence(coupling):
    # rotation-angle invariance in the regime where the ray integral is
    # well conditioned (moderate f)
    ev = ResolventEvaluator(coupling, 0.05)
    z = 1 - 0.01j
    vals = [ev.stark_time_ray(z, g) for g in
            (math.pi / 12, math.pi / 8, math.pi / 6)]
    assert max(abs(a - b) for a in vals for b in vals) < 1e-8


def test_stark_upper_half_continuity_with_free(coupling):
    ev0 = ResolventEvaluator(coupling, 0.0)
    for f, tol in ((1e-3, 5e-9), (1e-4, 5e-11)):
        ev = ResolventEvaluator(coupling, f)
        assert abs(complex(ev.stark_matrix_element(2j))
                   - complex(ev0.free_continued(2j))) < tol


def test_stark_gamma_sector_validation(coupling):
    ev = ResolventEvaluator(coupling, 0.05)
    from starkres import SectorLimitError
    with pytest.raises(SectorLimitError):
        ev.stark_time_ray(1 - 0.01j, gamma=1.2)


def test_stark_morera_small_square(coupling):
    # closed-contour integral of F vanishes relative to the contour scale
    ev = ResolventEvaluator(coupling, 0.05)
    c = 1 - 0.03j
    h = 0.05
    xg, wg = np.polynomial.legendre.leggauss(24)
    corners = [c - h - h * 1j, c + h - h * 1j, c + h + h * 1j,
               c - h + h * 1j]
    total = 0.0
    peak = 0.0
    for a, b in zip(corners, corners[1:] + corners[:1]):
        zs = 0.5 * (b - a) * xg + 0.5 * (a + b)
        vals = np.asarray(ev.F_value(zs))
        total += 0.5 * (b - a) * np.sum(wg * vals)
        peak = max(peak, float(np.max(np.abs(vals))))
    assert abs(total) < 1e-9 * peak * 8 * h


def test_stark_entire_no_jump_across_axis(coupling):
    ev = ResolventEvaluator(coupling, 0.02)
    up = complex(ev.stark_matrix_element(1.0 + 1e-9j))
    dn = complex(ev.stark_matrix_element(1.0 - 1e-9j))
    assert abs(up - dn) < 1e-7


@pytest.mark.parametrize("f", (0.5, 0.05, 0.005))
@pytest.mark.parametrize("mixed", (False, True), ids=("reference", "mixed"))
def test_stark_F_derivative_matches_cauchy_ring(coupling, f, mixed):
    # analytic F' against the ring, for the reference Gaussian and a
    # complex coupling without parity: translation covariance on window
    # points, and at f = 0.5 the time-ray derivative on points above the
    # axis that the growth guard keeps off the Airy route
    phi = FormFactor((Term(0.1 + 0.03j, 0, 1.0, 0.0),
                      Term(0.05 - 0.02j, 1, 1.3 + 0.1j, 0.0),
                      Term(0.02j, 2, 0.9, 0.1))) if mixed else coupling
    ev = ResolventEvaluator(phi, f)
    window = [1.0 - 0.01j, 0.93 - 0.04j, 1.08 - 0.002j]
    ray = [1.0 + 0.02j, 0.8 + 0.3j] if f == 0.5 else []
    assert ev._route(np.array(window))[0].all()
    assert ev._route(np.array(ray, dtype=complex))[1].all()
    for z in window + ray:
        ring = cauchy_derivative(ev.F_value, z, 1e-3)
        assert abs(ev.F_derivative(z) - ring) <= 1e-10 * abs(ring)


@pytest.mark.parametrize("f", [0.0, 0.01])
def test_F_on_no_points_is_empty(coupling, f):
    # an empty batch is a batch: F and F' come back as empty complex
    # arrays on the free closed form as on the Airy route
    ev = ResolventEvaluator(coupling, f)
    z = np.array([], dtype=complex)
    for out in (ev.F_value(z), *ev.F_pair(z)):
        assert out.shape == (0,) and out.dtype == complex


def test_free_F_pair_takes_every_ring_in_one_call(ev0, monkeypatch):
    # at f = 0, F' of a batch comes from one F_value call on the Cauchy
    # rings about all its points, the same bits as F_derivative point by
    # point; the last two points take rings narrower than 1e-3, 0.45
    # times their distance to the cut
    rng = np.random.RandomState(9)
    z = np.concatenate((0.9 + 0.2 * rng.rand(50) - 0.05j * rng.rand(50),
                        [1e-3 - 1e-3j, -0.5 - 1e-3j]))
    per_point = np.array([ev0.F_derivative(zj) for zj in z])
    sizes = []
    F_value = ResolventEvaluator.F_value

    def counting(self, zz):
        sizes.append(np.size(zz))
        return F_value(self, zz)

    monkeypatch.setattr(ResolventEvaluator, "F_value", counting)
    F, dF = ev0.F_pair(z)
    assert sizes == [z.size,
                     resolvent.QUADRATURE["derivative_nodes"] * z.size]
    assert dF.tobytes() == per_point.tobytes()


@pytest.mark.parametrize("f, z", [
    (0.0, [1.0 - 0.01j, 0.93 - 0.04j]),
    (0.01, [1.0 - 0.01j, 0.93 - 0.04j, 1.08 - 0.002j]),
    (0.5, [1.0 + 0.02j]),
    (0.5, [1.0 - 0.01j, 1.0 + 0.02j]),
], ids=("free", "airy", "ray", "airy-and-ray"))
def test_F_pair_matches_F_value_and_a_cauchy_ring(coupling, f, z):
    # one pass gives both: F as F_value gives it on the same batch, and F'
    # against a ring on F_value (F_derivative is F_pair's F' for f > 0)
    ev = ResolventEvaluator(coupling, f)
    z = np.array(z)
    if f > 0:
        airy, ray, _ = ev._route(z)
        assert (airy | ray).all()
        assert ray.tolist() == [zj.imag > 0 for zj in z]
    F, dF = ev.F_pair(z)
    assert np.array_equal(F, ev.F_value(z))
    for zj, d in zip(z, dF):
        ring = cauchy_derivative(ev.F_value, zj, 1e-3)
        assert abs(d - ring) <= 1e-10 * abs(ring)


@pytest.mark.parametrize("f", (0.005, 0.05, 0.5, 2.0))
@pytest.mark.parametrize("phi", (FormFactor.gaussian(0.1, 1.0), TWO_TERMS),
                         ids=("reference", "two-terms"))
def test_airy_panels_match_special_airy(phi, f):
    # Ai and Bi carried to the group centres and propagated from there
    # along y'' = zeta y, against special.airy at the same float nodes,
    # on the groups the
    # route picks: for the window as one batch, and for each point of
    # [-3, 6] x [-2, 0.5] that the route rule keeps on the Airy kernel,
    # alone, as a Newton step evaluates it
    ev = ResolventEvaluator(phi, f)
    grid = ev._airy_grid
    rng = np.random.RandomState(11)
    window = 0.9 + 0.2 * rng.rand(8) - 0.05j * rng.rand(8)
    wide = -3.0 + 9.0 * rng.rand(64) + 1j * (-2.0 + 2.5 * rng.rand(64))
    assert ev._route(window)[0].all()
    wide = wide[ev._route(wide)[0]]
    assert wide.size >= 8
    spans = set()
    xg = gauss_legendre(grid.nn)[0]
    for zf in [window] + [wide[i:i + 1] for i in range(wide.size)]:
        span = ev._route(zf)[2]
        spans.add(span)
        centres = grid.groups(span)[0]
        zeta_c = centres[:, None] - zf[None, :] * f ** (-2.0 / 3.0)
        ai, ci = _airy_nodes(ev, zeta_c, span)
        bi = ci - 1j * ai
        offsets = grid.step * (np.arange(1 - span, span, 2)[:, None]
                               + xg).ravel()
        reach = np.max(np.abs(offsets))
        # every node within the resolution bound of the batch, with
        # w = z - f x at the grid ends x = +-L
        fL = f * grid.L
        rate = np.max(np.abs(zf[:, None] - np.array([fL, -fL])))
        assert reach * math.sqrt(rate) <= (
            resolvent._RESOLUTION * f ** (1.0 / 3.0))
        ref_ai, _, ref_bi, _ = special.airy(zeta_c[..., None] + offsets)
        scale = np.abs(ref_ai) + np.abs(ref_bi)
        assert np.max(np.abs(ai - ref_ai) / scale) <= 1e-12
        assert np.max(np.abs(bi - ref_bi) / scale) <= 1e-12
    # at f = 0.5 and 2 the panel-width rule already meets the bound on
    # these points, so each group is one panel
    assert f > 0.05 or max(spans) >= 3


def _airy_nodes(ev, zeta_c, span):
    # Ai and Ci at the nodes of each group: the route's Taylor
    # coefficients about the group centres times the table of the
    # series' polynomials
    g = ev._airy_grid
    coef, K = _airy_coefficients(zeta_c, g.step, span, g.n_pan, g.nn)
    return coef @ _taylor_table(g.step, span, g.nn, K)


def _per_centre(zeta_c, step, span, n_pan, nn):
    # the Taylor coefficients of Ai and Ci = Bi + i Ai about every group
    # centre from one special.airy argument per centre: the reference for
    # the carry, with the signature of resolvent._airy_coefficients
    h = _node_reach(step, span, nn)
    K = _taylor_terms(math.ceil(np.max(np.abs(zeta_c))), h)
    J = (K + 1) // 2
    k = np.arange(2, 2 * J, 2)
    powers = np.empty(zeta_c.shape + (J,), dtype=complex)
    powers[..., 0] = 1.0
    powers[..., 1:] = (zeta_c * (h * h))[..., None] / (k * (k - 1))
    np.cumprod(powers, axis=-1, out=powers)
    ai, aip, bi, bip = special.airy(zeta_c)
    coef = np.empty((2,) + zeta_c.shape + (2, J), dtype=complex)
    for i, (y, dy) in enumerate(((ai, aip), (bi, bip))):
        coef[i, ..., 0, :] = y[..., None] * powers
        coef[i, ..., 1, :] = (h * dy)[..., None] * powers
    coef = coef.reshape(coef.shape[:-2] + (2 * J,))
    return np.stack((coef[0], coef[1] + 1j * coef[0])), K


def _cumulative_left(vals, g):
    # running integral from the left edge at every node of the grid g,
    # batched over the rows of vals
    nz = vals.shape[0]
    v = vals.reshape(nz, g.n_pan, g.nn)
    within = (v @ g.M.T) * g.halves[None, :, None]
    # full panel integrals from the Gauss weights (nodes exclude the edges)
    panel_totals = (v @ g.gauss_w) * g.halves[None, :]
    offsets = np.cumsum(panel_totals, axis=1) - panel_totals
    return (within + offsets[:, :, None]).reshape(nz, g.n_pan * g.nn)


def _node_level_batch(ev, zf, span, derivative=False):
    # the Airy route summed at the nodes: Ai and Ci at every node of the
    # grid from the route's own centre values, the running integrals P of
    # phi Ci and Q of phi Ai there, and
    # r = pi f^{-1/3} int conj(phi) (Ai P + Ci Q); r' from the same
    # integral with phi' on either side
    g = ev._airy_grid
    f = ev.f
    centres, starts = g.groups(span)
    repeated = (starts.size * span - g.n_pan) * g.nn
    zeta_c = centres[:, None] - zf[None, :] * f ** (-2.0 / 3.0)

    def nodes(v):
        v = v.swapaxes(0, 1).reshape(zf.size, -1)
        head = (centres.size - 1) * span * g.nn
        return (np.concatenate((v[:, :head], v[:, head + repeated:]),
                               axis=1) if repeated else v)

    ai, ci = (nodes(v) for v in _airy_nodes(ev, zeta_c, span))

    def running(right):
        P = _cumulative_left(right[None, :] * ci, g)
        cum_ai = _cumulative_left(right[None, :] * ai, g)
        return P, cum_ai[:, -1:] - cum_ai

    def pair(left, P, Q):
        return (left[None, :] * ai * P + left[None, :] * ci * Q) @ g.w

    P, Q = running(g.phi_r)
    r = np.pi * f ** (-1.0 / 3.0) * pair(g.phi_l, P, Q)
    if derivative:
        dP, dQ = running(g.dphi_r)
        inner = pair(g.dphi_l, P, Q) + pair(g.phi_l, dP, dQ)
        r = np.stack((r, np.pi * f ** (-4.0 / 3.0) * inner))
    return r


@pytest.mark.parametrize("f", (0.05, 0.02, 0.01, 0.005))
@pytest.mark.parametrize("phi", (FormFactor.gaussian(0.1, 1.0), TWO_TERMS),
                         ids=("reference", "two-terms"))
def test_airy_route_matches_the_node_level_sum(phi, f):
    # the bilinear forms in the Taylor coefficients against the same
    # integrals summed at the nodes, on a full batch of the README window:
    # r alone and (r, r') together
    ev = ResolventEvaluator(phi, f)
    rng = np.random.RandomState(5)
    zf = (0.9 + 0.2 * rng.rand(resolvent._BATCH)
          - 1j * (1e-6 + (0.05 - 1e-6) * rng.rand(resolvent._BATCH)))
    airy, _, span = ev._route(zf)
    assert airy.all()
    ref = _node_level_batch(ev, zf, span, True)
    value = ev._stark_airy_batch(zf, span)
    both = ev._stark_airy_batch(zf, span, True)
    assert np.all(np.abs(value - ref[0]) <= 1e-12 * np.abs(ref[0]))
    assert np.all(np.abs(both - ref) <= 1e-12 * np.abs(ref))


@pytest.mark.parametrize("z", (0.5, -0.5 - 0.1j, 0.2 - 0.01j, 0.1 - 0.01j,
                               0.05 - 0.01j, 0.02 - 0.001j))
def test_airy_route_matches_the_node_level_sum_near_zero(coupling, z):
    # the grouped-panel test's points, where 3 to 8 panels share a centre
    # and the last group repeats panels of the one before
    ev = ResolventEvaluator(coupling, 0.01)
    zf = np.array([z], dtype=complex)
    span = ev._route(zf)[2]
    for d in (False, True):
        ref = _node_level_batch(ev, zf, span, d)
        value = ev._stark_airy_batch(zf, span, d)
        assert np.all(np.abs(value - ref) <= 1e-12 * np.abs(ref))


def test_airy_forms_are_built_once_and_reused(coupling, monkeypatch):
    # a second call on the same points builds no form and no carry (no
    # Taylor table is even looked up, no Taylor polynomial built) and
    # returns the same bits; a second evaluator of the same field shares
    # the carry, which depends on the grid alone
    ev = ResolventEvaluator(coupling, 0.01)
    rng = np.random.RandomState(8)
    z = 0.9 + 0.2 * rng.rand(200) - 0.05j * rng.rand(200)
    first = (ev.F_value(z), *ev.F_pair(z))
    forms = dict(ev._forms)
    assert forms
    calls = []

    def counting(module, name):
        fn = getattr(module, name)

        def count(*args):
            calls.append(name)
            return fn(*args)
        return count

    # each where its caller looks it up
    for module, name in ((resolvent, "_taylor_table"),
                         (_special, "_taylor_uv")):
        monkeypatch.setattr(module, name, counting(module, name))
    again = (ev.F_value(z), *ev.F_pair(z))
    assert calls == []
    assert ev._forms.keys() == forms.keys()
    assert all(ev._forms[key] is forms[key] for key in forms)
    for a, b in zip(first, again):
        assert a.tobytes() == b.tobytes()
    ResolventEvaluator(coupling, 0.01).F_value(z)
    assert "_taylor_uv" not in calls


def test_airy_forms_share_one_set_for_k_and_k_plus_one(coupling,
                                                     monkeypatch):
    # at f = 0.01 the batch at 0.95 - 0.03i sums K = 25 Taylor terms and
    # the one at 1 - 0.01i K = 26, both with J = 13 and two panels per
    # group: one evaluator builds one form set, from the 26-term table,
    # and r at the first point agrees with the 25-term table's
    f, span = 0.01, 2
    ev = ResolventEvaluator(coupling, f)
    g = ev._airy_grid
    r = []
    for z, K in ((0.95 - 0.03j, 25), (1.0 - 0.01j, 26)):
        zf = np.array([z])
        assert ev._route(zf)[2] == span
        zeta_c = g.groups(span)[0][:, None] - zf * f ** (-2.0 / 3.0)
        assert _airy_coefficients(zeta_c, g.step, span, g.n_pan,
                                  g.nn)[1] == K
        r.append(ev._stark_airy_batch(zf, span)[0])
    assert list(ev._forms) == [(span, 26)]
    table = resolvent._taylor_table
    monkeypatch.setattr(resolvent, "_taylor_table",
                        lambda step, span, nn, K: table(step, span, nn, K - 1))
    odd = ResolventEvaluator(coupling, f)._stark_airy_batch(
        np.array([0.95 - 0.03j]), span)[0]
    assert np.all(np.abs(r[0] - odd) <= 1e-14 * np.abs(odd))


_CARRY_POINTS = [(f, "window") for f in (0.05, 0.02, 0.01, 0.005)] + [
    (0.01, z) for z in (-1.0 - 2.0j, -0.5 - 2.0j, -1.0 - 3.0j, 8.0 - 0.1j,
                        0.5, -0.5 - 0.1j, 0.2 - 0.01j, 0.1 - 0.01j,
                        0.05 - 0.01j, 0.02 - 0.001j, 1.0, 1.0 + 1e-6j)] + [
    (0.1, 0.86 + 0.2j)]


@pytest.mark.parametrize("f, z", _CARRY_POINTS)
def test_airy_carry_matches_special_airy_at_every_centre(coupling, f, z):
    # Ai, Ci and their derivatives carried across the group centres from
    # two Airy arguments per point, against one special.airy argument per
    # centre: the README window as one batch; points far below the axis,
    # where Bi - i Ai cancels to 0 from |Bi| of 3.4e12; 8 - 0.1i, one
    # panel per centre; the grouped points near 0; on and just above the
    # axis; and above it near the growth where the time ray takes over,
    # where the partner of s = +1 would lose 1.1e-11 (1.5e-14 with
    # s = -1).  The window at f = 0.05, the points from 0.5 to
    # 0.02 - 0.001i and 0.86 + 0.2i start 2 to 14 steps outward at one end
    # or both and are carried in.  Worst measured: 7.7e-13 at 8 - 0.1i,
    # where |zeta| reaches 172 (5.3e-13 with special.airy at both ends),
    # within 1.4e-13 elsewhere
    ev = ResolventEvaluator(coupling, f)
    if z == "window":
        rng = np.random.RandomState(5)
        zf = (0.9 + 0.2 * rng.rand(resolvent._BATCH)
              - 1j * (1e-6 + (0.05 - 1e-6) * rng.rand(resolvent._BATCH)))
    else:
        zf = np.array([z], dtype=complex)
    airy, _, span = ev._route(zf)
    assert airy.all()
    g = ev._airy_grid
    zeta_c = g.groups(span)[0][:, None] - zf * f ** (-2.0 / 3.0)
    coef, K = _airy_coefficients(zeta_c, g.step, span, g.n_pan, g.nn)
    ref, K_ref = _per_centre(zeta_c, g.step, span, g.n_pan, g.nn)
    assert K == K_ref
    J = coef.shape[-1] // 2
    for j in (0, J):                    # y, then h y'
        ai, ci = ref[..., j]
        scale = np.abs(ai) + np.abs(ci - 1j * ai)     # |Ai| + |Bi|
        assert np.max(np.abs(coef[..., j] - ref[..., j]) / scale) <= 1e-12


# one point whose Airy arguments lie at the outer nodes (D = 0), and one
# where zeta at the rightmost node is about -3.3, so that its Ai argument
# starts a whole number of steps outward (D > 0) and is carried in
_SOURCES = pytest.mark.parametrize("f, carried", ((0.01, False),
                                                  (0.05, True)),
                                   ids=("series", "carried-in"))


def _watch_airy(monkeypatch, carried, wrap=lambda ai, aip: (ai, aip)):
    # record the size of every resolvent._airy call, after checking that
    # every argument lies at least _AIRY_R from 0 and that the start moved
    # outward (D > 0) or not as expected (either, for None), and pass its
    # values through ``wrap``
    sizes = []
    airy, count = resolvent._airy, resolvent._approach_counts

    def watched(x):
        assert np.abs(x).min() >= _special._AIRY_R * (1.0 - 1e-15)
        sizes.append(x.size)
        return wrap(*airy(x))

    def counted(outer, delta):
        k = count(outer, delta)
        assert carried is None or k.any() == carried
        return k

    monkeypatch.setattr(resolvent, "_airy", watched)
    monkeypatch.setattr(resolvent, "_approach_counts", counted)
    return sizes


@_SOURCES
def test_airy_carry_refuses_a_partner_that_breaks_the_wronskian(
        coupling, monkeypatch, f, carried):
    # a rotated-argument value off by 1e-6 relative leaves the Wronskian
    # pi (Ai M' - Ai' M) off by as much at every centre: the route raises,
    # whether or not the values were carried in from further out
    def perturbed(ai, aip):
        ai[ai.size // 2:] *= 1.0 + 1e-6
        return ai, aip

    sizes = _watch_airy(monkeypatch, carried, perturbed)
    ev = ResolventEvaluator(coupling, f)
    for fn in (ev.F_value, ev.F_derivative):
        with pytest.raises(QuadratureError, match="Wronskian"):
            fn(1.0 - 0.01j)
    assert sizes == [2, 2]


@pytest.mark.parametrize("f, z, least", ((0.01, 8.0 - 0.1j, 28.0),
                                         (0.005, -3.0 - 1.35j, 659.0)))
def test_airy_carry_refuses_no_point_the_route_takes(coupling, monkeypatch,
                                                      f, z, least):
    # one panel per centre at 8 - 0.1i, growth 28.5 and |zeta| up to 175;
    # growth 659.8 of the route's 660 at -3 - 1.35i: the carry's term
    # count and Wronskian accept both, and r and r' agree with one
    # special.airy argument per centre
    ev = ResolventEvaluator(coupling, f)
    zf = np.array([z])
    g = ev._airy_grid
    w = z - np.array([f * g.L, -f * g.L])
    growth = np.max(np.abs(np.imag(w ** 1.5))) / (1.5 * f)
    assert least < growth < 660.0
    airy, _, span = ev._route(zf)
    assert airy.all() and span == 1
    carried = ev._stark_airy_batch(zf, span, True)
    monkeypatch.setattr(resolvent, "_airy_coefficients", _per_centre)
    ref = ev._stark_airy_batch(zf, span, True)
    assert np.all(np.abs(carried - ref) <= 1e-10 * np.abs(ref))


def test_airy_route_groups_panels_within_the_resolution_bound(coupling):
    # two panels per centre on the README window at every field; one at
    # 8 - 0.1i and f = 0.01, where a single panel is at 2.8 of the bound 3
    for f in (0.05, 0.02, 0.01, 0.005):
        ev = ResolventEvaluator(coupling, f)
        assert ev._route(np.array([0.9 - 0.05j, 1.1 - 1e-6j]))[2] == 2
    ev = ResolventEvaluator(coupling, 0.01)
    assert ev._route(np.array([8.0 - 0.1j]))[2] == 1


def test_airy_route_batch_shares_its_smallest_reach(coupling):
    # a window point alone groups 2 panels, 8 - 0.1i only 1; together
    # they take span 1, and each value matches the point evaluated alone
    ev = ResolventEvaluator(coupling, 0.01)
    z = np.array([1.0 - 0.01j, 8.0 - 0.1j])
    assert ev._route(z[:1])[2] == 2
    airy, ray, span = ev._route(z)
    assert airy.all() and not ray.any() and span == 1
    together = ev.F_value(z)
    for zj, value in zip(z, together):
        alone = ev.F_value(zj)
        assert abs(value - alone) <= 1e-12 * abs(alone)


@pytest.mark.parametrize("z", (0.5, -0.5 - 0.1j, 0.2 - 0.01j, 0.1 - 0.01j,
                               0.05 - 0.01j, 0.02 - 0.001j))
def test_airy_route_grouped_panels_match_single_panels(coupling, z):
    # near z = 0 the route groups 3 to 8 of the 11 panels; where the span
    # does not divide 11 the last group ends at x = L and overlaps the one
    # before.  Values and derivatives agree with one centre per panel
    ev = ResolventEvaluator(coupling, 0.01)
    zf = np.array([z], dtype=complex)
    airy, _, span = ev._route(zf)
    assert airy.all() and span >= 3
    for d in (False, True):
        value = ev._stark_airy_batch(zf, span, d)
        single = ev._stark_airy_batch(zf, 1, d)
        assert np.all(np.abs(value - single) <= 1e-12 * np.abs(single))


@pytest.mark.parametrize("f, width", ((1e300, 1.0), (1e30, 1.0),
                                      (0.01, 1e-6)),
                         ids=("f-1e300", "f-1e30", "width-1e-6"))
def test_airy_grid_refuses_too_many_panels(f, width):
    # at f = 1e300 the grid's half-length overflows and its panel width is
    # 0; at 1e30, and for a coupling of width 1e-6 at f = 0.01, it would
    # need some 8e59 and 8e13 panels.  Each is refused by name, before any
    # array of the grid is built
    ev = ResolventEvaluator(FormFactor.gaussian(0.1, width), f)
    with pytest.raises(QuadratureError, match=re.escape(
            f"f={f:.4g} and coupling width {width:.4g} needs ")
            + rf".* panels, more than {resolvent._MAX_PANELS}"):
        ev.F_value(1.0 - 0.01j)


def test_airy_grid_admits_a_narrow_coupling():
    # a coupling of width 0.01 at f = 0.01 takes 257 panels
    ev = ResolventEvaluator(FormFactor.gaussian(0.1, 0.01), 0.01)
    assert ev._airy_grid.n_pan == 257 <= resolvent._MAX_PANELS


@pytest.mark.parametrize("z", (1e4, 1e10))
def test_airy_route_refuses_unresolved_far_points(coupling, z):
    # far along the axis the panels no longer resolve the oscillation of
    # the kernel, and the time ray does not take the point either: a loud
    # error, not a value, and no series of ~|z|^{1/2} terms
    ev = ResolventEvaluator(coupling, 0.01)
    airy, ray, _ = ev._route(np.array([z], dtype=complex))
    assert not airy.any() and not ray.any()
    with pytest.raises(QuadratureError, match="do not resolve"):
        ev.F_value(z)


@pytest.mark.parametrize("phi", (FormFactor.gaussian(0.1, 1.0), TWO_TERMS),
                         ids=("reference", "two-terms"))
def test_airy_route_bounds_the_panel_resolution(phi, monkeypatch):
    # panel half-width times the kernel's rate sqrt|z - f x| at x = +-L:
    # 2.7 to 2.8 at z = 8 - 0.1i, where the value keeps the tolerance, and
    # 4.2 to 4.4 at z = 20 - 0.1i, where the panels of f = 0.01 lose
    # digits against 0.1-wide panels; the route refuses that point.  One
    # special.airy argument per centre measures the panels alone there,
    # since the carry's term count alone refuses 20 - 0.1i
    ev = ResolventEvaluator(phi, 0.01)
    z = np.array([8.0 - 0.1j, 20.0 - 0.1j])
    airy, ray, _ = ev._route(z)
    assert airy.tolist() == [True, False] and not ray.any()
    for fn in (ev.F_value, ev.F_derivative, ev.stark_matrix_element):
        with pytest.raises(QuadratureError, match="do not resolve"):
            fn(z[1])
    monkeypatch.setattr(resolvent, "QUADRATURE",
                        dict(resolvent.QUADRATURE, panel_width=0.05))
    fine = ResolventEvaluator(phi, 0.01)
    assert fine._route(z)[0].all()
    ref = fine.stark_matrix_element(z)
    carried = ev._stark_airy_batch(z[:1], 1)
    assert abs(carried[0] - ref[0]) <= 1e-10 * abs(ref[0])
    with pytest.raises(QuadratureError, match="loses the tolerance"):
        ev._stark_airy_batch(z[1:], 1)
    monkeypatch.setattr(resolvent, "_airy_coefficients", _per_centre)
    err = np.abs(ev._stark_airy_batch(z, 1) - ref) / np.abs(ref)
    assert err[0] <= 1e-10 < err[1]


@pytest.mark.parametrize("z", (4.0 - 1.0j, 6.0 - 1.0j))
def test_airy_route_raises_on_a_nonfinite_value(coupling, z):
    # below the axis at small f the kernel factors stay finite but their
    # products overflow: every entry point raises instead of returning nan,
    # and numpy prints no warning before the error
    ev = ResolventEvaluator(coupling, 0.005)
    assert ev._route(np.array([z]))[0].all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (ev.F_value, ev.F_derivative, ev.stark_matrix_element):
            with pytest.raises(QuadratureError, match="overflowed"):
                fn(z)


def _airy_ring(radius):
    # 3601 arguments on |zeta| = radius, phases -pi to pi in steps of
    # pi/1800 and so through +-2 pi/3 and +-pi, none below _AIRY_R
    z = radius * np.exp(1j * np.pi * np.arange(-1800, 1801) / 1800)
    return z * max(1.0, _special._AIRY_R / np.abs(z).min())


def _airy_bound(z, ref):
    # fixed before the comparison: 16 eps (1 + |xi|) (|Ai| + |Bi|), the
    # rounding of e^{-xi} growing with |xi|, and the same for Ai' with
    # |Ai'| + |Bi'|
    eps = np.finfo(float).eps
    xi = (2.0 / 3.0) * np.abs(z) ** 1.5
    return 16.0 * eps * (1.0 + xi) * ref


@pytest.mark.parametrize("radius", (_special._AIRY_R, 12.0, 30.0, 100.0),
                         ids=("R", "12", "30", "100"))
def test_airy_series_matches_special_airy(radius):
    # the asymptotic series, with the connection formula past
    # |ph zeta| = 2 pi/3, against special.airy on rings from _AIRY_R out
    z = _airy_ring(radius)
    ai, aip = _special._airy(z)
    ref_ai, ref_aip, ref_bi, ref_bip = special.airy(z)
    assert np.all(np.abs(ai - ref_ai)
                  <= _airy_bound(z, np.abs(ref_ai) + np.abs(ref_bi)))
    assert np.all(np.abs(aip - ref_aip)
                  <= _airy_bound(z, np.abs(ref_aip) + np.abs(ref_bip)))


def test_airy_series_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    # phases -pi, -2 pi/3, -pi/2, -pi/3, 0, pi/5, pi/3, 3 pi/5, 2 pi/3,
    # 9 pi/10 and pi, in steps of pi/1800 from -pi
    picks = 1800 + np.array([-1800, -1200, -900, -600, 0, 360, 600, 1080,
                             1200, 1620, 1800])
    z = np.concatenate([_airy_ring(radius)[picks]
                        for radius in (_special._AIRY_R, 12.0, 100.0)])
    ai, aip = _special._airy(z)
    for j, zj in enumerate(z):
        w = mpmath.mpc(zj.real, zj.imag)
        with mpmath.workdps(40):
            ref = [complex(mpmath.airyai(w, derivative=d)) for d in (0, 1)]
            bi = [complex(mpmath.airybi(w, derivative=d)) for d in (0, 1)]
        for value, r, b in zip((ai[j], aip[j]), ref, bi):
            assert abs(value - r) <= _airy_bound(zj, abs(r) + abs(b))


@pytest.mark.parametrize("zs, steps", (
    ((0.5,), [[14], [0]]), ((0.5, 1.0), [[21, 0], [0, 0]]),
    ((0.2 - 0.01j, 0.02 - 0.001j), [[8, 5], [2, 5]])),
    ids=("one-point", "one-of-two", "two-near-0"))
def test_airy_starts_outside_R_when_an_outer_node_lies_inside(
        coupling, monkeypatch, zs, steps):
    # at f = 0.01 the rightmost node of z = 0.5 lies at zeta -8.5, inside
    # |zeta| < _AIRY_R: its Ai argument starts 14 steps of 1.26, three
    # panels wide, right, past the disc, or 21 steps of 0.84 with 1.0 in
    # the batch, which groups two panels and whose nodes stay in place.
    # Near 0 both ends of a point lie inside, and M's argument moves left
    # as well.  Every argument of the one _airy call lies at least _AIRY_R
    # from 0, and the coefficients carried in match one special.airy
    # argument per centre
    sizes = _watch_airy(monkeypatch, True)
    ev = ResolventEvaluator(coupling, 0.01)
    zf = np.array(zs, dtype=complex)
    airy, _, span = ev._route(zf)
    assert airy.all()
    g = ev._airy_grid
    zeta_c = g.groups(span)[0][:, None] - zf * 0.01 ** (-2.0 / 3.0)
    h = _node_reach(g.step, span, g.nn)
    outer = np.stack((zeta_c[-1] + h, zeta_c[0] - h))
    assert _special._approach_counts(
        outer, _special._approach_step(g.step, span)).tolist() == steps
    coef, K = _airy_coefficients(zeta_c, g.step, span, g.n_pan, g.nn)
    assert sizes == [2 * zf.size]
    ref = _per_centre(zeta_c, g.step, span, g.n_pan, g.nn)[0]
    J = coef.shape[-1] // 2
    for j in (0, J):
        ai, ci = ref[..., j]
        scale = np.abs(ai) + np.abs(ci - 1j * ai)
        assert np.max(np.abs(coef[..., j] - ref[..., j]) / scale) <= 1e-12


def test_approach_counts_take_each_node_past_the_disc():
    R = _special._AIRY_R
    # the first node at 0 moves R right, rounded up to whole steps; the
    # second and both left nodes lie outside and stay
    outer = np.array([[0.0 + 0j, -10.0 + 0j], [-20.0 + 0j, 30.0 + 0j]])
    assert _special._approach_counts(outer, 1.0).tolist() == [
        [math.ceil(R), 0], [0, 0]]
    # a left node moves left past sqrt(R^2 - Im^2), here in half steps
    k = _special._approach_counts(np.array([[20.0 + 0j], [3.0 - 1j]]), 0.5)
    assert k.tolist() == [[0], [math.ceil(2.0 * (math.sqrt(R * R - 1.0)
                                                 + 3.0))]]
    assert abs(3.0 - 1j - 0.5 * k[1, 0]) >= R


def test_taylor_terms_refuse_a_sum_that_loses_the_tolerance():
    # the second guard: where the rounding of the Taylor sum about a far
    # centre alone exceeds the evaluator tolerance, the term count raises
    # instead of returning
    assert resolvent._taylor_terms(100.0, 0.5) == 37
    with pytest.raises(QuadratureError, match="loses the tolerance"):
        resolvent._taylor_terms(1000.0, 0.5)


@_SOURCES
def test_airy_route_evaluates_airy_twice_per_point(coupling, monkeypatch, f,
                                                   carried):
    sizes = _watch_airy(monkeypatch, carried)
    ev = ResolventEvaluator(coupling, f)
    # more points than one batch, all on the Airy route: Ai at one end and
    # its recessive partner at the other, per point
    z = 1.0 - 0.02j + 0.015 * np.exp(2j * np.pi * np.arange(200) / 200)
    assert ev._route(z)[0].all()
    ev.F_value(z)
    assert sum(sizes) == 200 * 2
    sizes.clear()
    ev.F_derivative(1.0 - 0.01j)
    assert sizes == [2]


def test_airy_route_evaluates_airy_twice_per_point_at_any_span(coupling,
                                                               monkeypatch):
    # at f = 0.01: one panel per centre (11 centres), two, and eight near 0
    sizes = _watch_airy(monkeypatch, None)
    ev = ResolventEvaluator(coupling, 0.01)
    assert ev._airy_grid.n_pan == 11
    for zj, span in ((1.0 - 0.01j, 2), (8.0 - 0.1j, 1), (0.02 - 0.001j, 8)):
        assert ev._route(np.array([zj]))[2] == span
        sizes.clear()
        ev.F_derivative(zj)
        assert sizes == [2]


def test_stark_F_derivative_needs_no_F_values(coupling, monkeypatch):
    calls = []
    F_value = ResolventEvaluator.F_value

    def counting(self, z):
        calls.append(np.size(z))
        return F_value(self, z)

    monkeypatch.setattr(ResolventEvaluator, "F_value", counting)
    ResolventEvaluator(coupling, 0.01).F_derivative(1.0 - 0.01j)
    assert calls == []
    # nor at a point above the axis that the growth guard sends to the
    # time ray
    ResolventEvaluator(coupling, 0.5).F_derivative(1.0 + 0.02j)
    assert calls == []


def test_stark_F_derivative_zero_coupling():
    ev = ResolventEvaluator(FormFactor.zero(), 0.05)
    assert ev.F_derivative(1 - 0.01j) == -1.0


# ----------------------------------------------------------------------
# dominance certificate


def test_certify_unique_reference(ev0):
    cert = ev0.certify_unique(1.0, 0.1)
    assert cert.certified and not cert.indeterminate
    assert cert.max_coupling < cert.min_linear


def test_certify_unique_zero_coupling():
    ev = ResolventEvaluator(FormFactor.zero(), 0.0)
    assert ev.certify_unique(1.0, 0.1).certified


def test_certify_within_the_band_is_indeterminate():
    # amplitude 0.202 puts max |r| on the circle at about 0.1001, within
    # the 2% band of the distance 0.1 of 1 - z from 0: neither certified
    # nor refuted
    ev = ResolventEvaluator(FormFactor.gaussian(0.202, 1.0), 0.0)
    cert = ev.certify_unique(1.0, 0.1)
    assert cert.indeterminate and not cert.certified and not cert
    assert abs(cert.max_coupling - cert.min_linear) <= 0.02 * 0.1


def test_certify_large_amplitude_not_certified():
    ev = ResolventEvaluator(FormFactor.gaussian(1.0, 1.0), 0.0)
    cert = ev.certify_unique(1.0, 0.1)
    assert not cert.certified


def test_certify_rejects_stark():
    ev = ResolventEvaluator(FormFactor.gaussian(0.1), 0.05)
    with pytest.raises(ValueError):
        ev.certify_unique(1.0, 0.1)
