"""Independent brute-force references for the main numerical paths.

Nothing here shares quadrature kernels with the evaluator module: the
free-line element is integrated by scipy's adaptive quad_vec, the Stark
element by explicit integrating-factor double quadrature, continuation by
stepwise Taylor re-expansion, and the closed form by the complementary
error function.  These paths are slow and transparent by design; their
only job is to certify the fast ones.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.integrate import quad_vec

from .formfactor import FormFactor, conj_reflect
from .resolvent import QuadratureError
from .rootfind import Window

__all__ = [
    "ode_resolvent_oracle",
    "erfc_closed_form",
    "erfc_free_element",
    "taylor_continuation_oracle",
    "TaylorPathError",
    "grid_scan",
    "full_resolvent_pole_test",
    "PoleTestResult",
    "verify_report",
]


# ----------------------------------------------------------------------
# direct momentum-space resolvent solves (Im z > 0)


def _pair_element_upper(u: FormFactor, v: FormFactor, f: float, z,
                        tol: float = 1e-10):
    """(u, (p^2 + f x - z)^{-1} v) for Im z > 0 by explicit quadrature.

    The k integral is one adaptive quad_vec pass at every f; at f = 0, z
    may be an array whose points share that pass.
    """
    if np.any(np.imag(z) <= 0):
        raise ValueError("the direct solve requires Im z > 0")
    u_hat = conj_reflect(u).transform()   # equals conj(uhat) on the real axis
    v_hat = v.transform()
    K = max(u.width_extent(1e-18), v.width_extent(1e-18), 9.0)
    if f == 0.0:
        zf = np.ravel(z)

        def integrand(k):
            return u_hat(k) * v_hat(k) / (k * k - zf)
        epsabs, epsrel = 1e-13, tol
    else:
        z = complex(z)
        # u(k) from the integrating factor, as a truncated ray integral in
        # sigma with the Gauss panels sized to the local phase rate
        sig_max = 46.0 / z.imag
        xg, wg = np.polynomial.legendre.leggauss(16)

        def solved(k: float) -> complex:
            rate = k * k + abs(z) + 2.0 * f * sig_max * abs(k) \
                + (f * sig_max) ** 2 + 1.0
            n_pan = int(math.ceil(sig_max * rate / 4.0))
            n_pan = min(max(n_pan, 4), 40000)
            edges = np.linspace(0.0, sig_max, n_pan + 1)
            half = 0.5 * (edges[1:] - edges[:-1])
            mid = 0.5 * (edges[1:] + edges[:-1])
            sig = (half[:, None] * xg[None, :] + mid[:, None]).ravel()
            wts = (half[:, None] * wg[None, :]).ravel()
            phase = z * sig - (k * k * sig + f * sig * sig * k
                               + f * f * sig**3 / 3.0)
            vals = np.exp(1j * phase) * v_hat(k + f * sig)
            return 1j * np.sum(wts * vals)

        def integrand(k):
            return u_hat(k) * solved(k)
        epsabs, epsrel = 1e-12, max(tol, 1e-9)

    val, err, info = quad_vec(integrand, -K, K, epsabs=epsabs,
                              epsrel=epsrel, limit=400, norm="max",
                              full_output=True)
    if info.status != 0:
        raise QuadratureError(
            f"direct solve did not converge: {info.message}", float(err))
    return complex(np.ravel(val)[0]) if np.ndim(z) == 0 \
        else val.reshape(np.shape(z))


def ode_resolvent_oracle(phi: FormFactor, f: float, z,
                         tol: float = 1e-10):
    """Reference (phi, R_f(z) phi) for Im z > 0 via the first-order
    momentum-space equation (k^2 + i f d/dk - z) u = phihat solved by its
    integrating factor."""
    return _pair_element_upper(phi, phi, f, z, tol)


# ----------------------------------------------------------------------
# closed form for the single-Gaussian coupling


def erfc_free_element(z: complex, amplitude: float = 0.1,
                      width: float = 1.0, continued: bool = True) -> complex:
    """Matrix element of the free resolvent for a e^{-w x^2/2} coupling.

    The direct integral is a^2 sqrt(w) pi e^{-wz} erfc(sqrt(-wz))/sqrt(-wz);
    with ``continued`` the jump term across (0, inf) is added for
    Im z <= 0, yielding the analytic continuation.
    """
    z = complex(z)
    a2w = amplitude * amplitude * math.sqrt(width)
    root = np.sqrt(-width * z)
    val = a2w * math.pi * np.exp(-width * z) * special.erfc(root) / root
    if continued and z.imag <= 0.0:
        jump = (1j * math.pi * 2.0 * amplitude**2 * math.sqrt(width)
                * np.exp(-width * z) / np.sqrt(complex(z)) / math.sqrt(width))
        val = val + (0.5 * jump if z.imag == 0.0 else jump)
    return complex(val)


def erfc_closed_form(z: complex, amplitude: float = 0.1,
                     width: float = 1.0) -> complex:
    """Continued F(z) = 1 - z - r(z) assembled from the erfc closed form."""
    return 1.0 - complex(z) - erfc_free_element(z, amplitude, width)


# ----------------------------------------------------------------------
# stepwise Taylor continuation


class TaylorPathError(Exception):
    """The continuation path left the validated convergence region."""


@dataclass(frozen=True)
class _Disk:
    center: complex
    coeffs: np.ndarray
    reach: float

    def eval(self, z):
        return np.polynomial.polynomial.polyval(
            np.asarray(z, dtype=complex) - self.center, self.coeffs)


def _expand(sample, center: complex, radius: float, n_terms: int) -> _Disk:
    n_s = max(4 * n_terms, 128)
    angles = 2.0 * np.pi * np.arange(n_s) / n_s
    ring = center + radius * np.exp(1j * angles)
    vals = np.asarray(sample(ring), dtype=complex)
    spectrum = np.fft.fft(vals)[:n_terms]
    raw = np.abs(spectrum) / n_s   # = |a_n| * radius^n
    coeffs = spectrum / n_s / radius ** np.arange(n_terms)
    # convergence radius from the decay of the circle coefficients,
    # fitted above the rounding noise floor of the sampled values
    floor = max(1e-14 * float(np.max(np.abs(vals))), 1e-300)
    idx = np.arange(n_terms)
    keep = raw > 10.0 * floor
    keep[:4] = False
    if np.count_nonzero(keep) >= 6:
        slope = np.polyfit(idx[keep], np.log(raw[keep]), 1)[0]
        reach = radius * float(np.exp(-slope)) if slope < 0 else 50.0 * radius
    else:
        reach = 10.0 * radius
    reach = min(reach, 50.0 * radius)
    # zero out the sub-noise coefficients so they cannot pollute
    # evaluations near the rim
    coeffs[~(raw > floor)] = 0.0
    coeffs[0] = spectrum[0] / n_s
    return _Disk(center, coeffs, reach)


class TaylorContinuation:
    """Disk chain continuing an Im z > 0 array evaluator along a fixed path.

    Build once, evaluate at any point within the final disk's reach.
    """

    def __init__(self, func_upper, path: list[complex], n_terms: int = 64):
        disks: list[_Disk] = []
        for i, center in enumerate(path):
            if i == 0:
                if center.imag <= 0:
                    raise TaylorPathError("first center must lie in Im z > 0")
                radius = 0.75 * center.imag
                disk = _expand(func_upper, center, radius, n_terms)
            else:
                prev = disks[-1]
                hop = abs(center - prev.center)
                if hop > 0.65 * prev.reach:
                    raise TaylorPathError(
                        f"step {i} of length {hop:.3f} exceeds the safe "
                        f"reach {0.65 * prev.reach:.3f}")
                radius = min(0.45 * prev.reach, 0.9 * (prev.reach - hop))
                disk = _expand(prev.eval, center, radius, n_terms)
            disks.append(disk)
        self.disks = disks

    def eval(self, z: complex) -> complex:
        last = self.disks[-1]
        if abs(complex(z) - last.center) > 0.75 * last.reach:
            raise TaylorPathError(
                f"target at distance {abs(complex(z) - last.center):.3f} "
                f"exceeds the final reach {0.75 * last.reach:.3f}")
        return complex(last.eval(z))


def default_continuation_path(target: complex) -> list[complex]:
    x = complex(target).real
    return [complex(x, 0.9), complex(x, 0.55), complex(x, 0.25),
            complex(x, 0.08)]


def taylor_continuation_oracle(func_upper, target: complex,
                               path: list[complex] | None = None,
                               n_terms: int = 64) -> complex:
    """Continue a function analytic on the upper half-plane to ``target``.

    ``func_upper`` must accept an array of points, all with Im z > 0, and
    return their values; successive Taylor disks carry the values across
    (0, inf).  Raises :class:`TaylorPathError` when a step exceeds the
    estimated convergence reach of the current disk.
    """
    if path is None:
        path = default_continuation_path(target)
    return TaylorContinuation(func_upper, path, n_terms).eval(target)


# ----------------------------------------------------------------------
# crude grid scan (recall oracle for find_zeros)


def grid_scan(F, window: Window, n: int = 40,
              threshold: float = 0.05) -> list[complex]:
    """Local minima of |F| below the threshold on an n x n grid."""
    re = np.linspace(window.re_min, window.re_max, n)
    im = np.linspace(window.im_min, window.im_max, n)
    Z = re[None, :] + 1j * im[:, None]
    A = np.abs(np.asarray(F(Z)))
    padded = np.full((n + 2, n + 2), np.inf)
    padded[1:-1, 1:-1] = A
    out = []
    for i in range(n):
        for j in range(n):
            if A[i, j] < threshold and A[i, j] <= padded[i:i + 3,
                                                         j:j + 3].min():
                out.append(complex(Z[i, j]))
    out.sort(key=lambda z: (z.real, z.imag))
    return out


# ----------------------------------------------------------------------
# full 2x2 resolvent pole test


@dataclass(frozen=True)
class PoleTestResult:
    passed: bool
    inconclusive: bool
    pole_location: complex
    residue_spread: float
    location_spread: float

    def __bool__(self) -> bool:
        return self.passed and not self.inconclusive


def full_resolvent_pole_test(phi: FormFactor, f: float, psi: FormFactor,
                             c: complex, resonance: complex,
                             rho: float = 4e-3,
                             second_psi: FormFactor | None = None,
                             second_c: complex = 0.7 - 0.2j) -> PoleTestResult:
    """Check that the continued full resolvent matrix element for the test
    vector (psi, c) has a simple pole at the located resonance.

    The element is assembled from its component matrix elements (each
    analytic near the resonance) continued independently of the main
    evaluation paths; the pole factor 1/F produces the singularity.  The
    product |element| * |z - r| must approach a common nonzero constant
    along three rays, and a second test vector must yield the same pole
    location.
    """
    r = complex(resonance)
    path = default_continuation_path(r)

    @functools.cache
    def continued(u: FormFactor, v: FormFactor):
        return TaylorContinuation(
            lambda z: _pair_element_upper(u, v, f, z), path).eval

    def make_element(psi_t: FormFactor, c_t: complex):
        pp = continued(psi_t, psi_t)
        fp = continued(phi, psi_t)
        pf = continued(psi_t, phi)
        ff = continued(phi, phi)
        ip = psi_t.inner(phi)

        def element(z):
            z = complex(z)
            Fz = 1.0 - z - ff(z)
            inv = 1.0 / Fz
            return (pp(z) + inv * fp(z) * ip - c_t * inv * pf(z)
                    - np.conj(c_t) * inv * fp(z) + abs(c_t) ** 2 * inv)
        return element

    def probe(element):
        rays = [cmath.exp(1j * a) for a in (0.4, 2.1, 4.3)]
        consts = []
        pts = []
        for d in rays:
            vals = []
            for scale in (1.0, 0.5):
                z = r + rho * scale * d
                g = element(z)
                vals.append((z, g))
                consts.append(abs(g) * abs(z - r))
            pts.append(vals)
        # pole location from pairs: g ~ R/(z - r*)
        locs = []
        for vals in pts:
            (z1, g1), (z2, g2) = vals
            if g1 != g2:
                locs.append((g2 * z2 - g1 * z1) / (g2 - g1))
        return np.array(consts), locs

    elem1 = make_element(psi, c)
    consts1, locs1 = probe(elem1)
    scale = float(np.median(consts1))
    if scale < 1e-13:
        return PoleTestResult(False, True, r, math.inf, math.inf)
    spread1 = float((consts1.max() - consts1.min()) / scale)

    psi2 = second_psi if second_psi is not None else FormFactor.gaussian(
        0.05, 1.3)
    elem2 = make_element(psi2, second_c)
    consts2, locs2 = probe(elem2)
    loc_all = locs1 + locs2
    loc_spread = float(max(abs(l - r) for l in loc_all)) if loc_all else math.inf
    passed = spread1 < 0.35 and loc_spread < 0.25 * rho \
        and float(np.median(consts2)) > 1e-13
    return PoleTestResult(passed, False, complex(np.mean(loc_all)),
                          spread1, loc_spread)


# ----------------------------------------------------------------------
# machine-readable verification report


def verify_report() -> dict:
    """Run the standard oracle cross-checks; returns the report dict
    (per check: name, number of points, max deviation, pass flag)."""
    from .resolvent import ResolventEvaluator

    phi = FormFactor.gaussian(0.1, 1.0)
    checks = []

    ev0 = ResolventEvaluator(phi, 0.0)
    grid = [complex(x, y) for x in np.linspace(0.6, 1.4, 5)
            for y in np.linspace(-0.4, 0.4, 5) if abs(y) > 1e-3]
    dev = max(abs(complex(ev0.F_value(z)) - erfc_closed_form(z))
              for z in grid)
    checks.append({"name": "free_vs_erfc_closed_form", "points": len(grid),
                   "max_deviation": dev, "pass": dev < 1e-10})

    pts = [1.0 + 0.8j, 0.7 + 1.1j, 1.3 + 0.6j]
    for f in (0.01, 0.05):
        evf = ResolventEvaluator(phi, f)
        dev = max(abs(complex(evf.stark_matrix_element(z))
                      - ode_resolvent_oracle(phi, f, z)) for z in pts)
        checks.append({"name": f"stark_vs_ode_oracle_f{f:g}",
                       "points": len(pts), "max_deviation": dev,
                       "pass": dev < 1e-8})

    targets = [1.0 - 0.02j, 0.95 - 0.05j]
    dev = max(abs(taylor_continuation_oracle(ev0.free_continued, t)
                  - complex(ev0.free_continued(t))) for t in targets)
    checks.append({"name": "taylor_continuation_vs_free",
                   "points": len(targets), "max_deviation": dev,
                   "pass": dev < 1e-7})

    lam = 1.0
    eps = 1e-6
    up = ode_resolvent_oracle(phi, 0.0, lam + 1j * eps)
    jump = up - np.conj(up)
    G = math.exp(-lam) / 100.0
    expect = 2j * math.pi * G / math.sqrt(lam)
    dev = abs(jump - expect)
    checks.append({"name": "pole_term_jump", "points": 1,
                   "max_deviation": dev, "pass": dev < 1e-4})

    report = {
        "checks": [
            {**c, "max_deviation": float(c["max_deviation"]),
             "pass": bool(c["pass"])} for c in checks
        ],
        "all_pass": bool(all(c["pass"] for c in checks)),
    }
    return report
