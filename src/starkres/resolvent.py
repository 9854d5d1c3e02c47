"""Resolvent matrix elements, their analytic continuation, and F(z).

For field strength f = 0 the matrix element is a momentum-space integral
with a square-root branch structure across (0, inf); for the
Hermite-Gaussian family it is a finite sum of Gaussian moments and
Faddeeva-function values, one closed form that is also the continuation
on the whole cut plane.  For f > 0 the element extends to an entire
function; it is evaluated through the constant-field Green's kernel
built from Airy functions, which stays numerically stable arbitrarily
close to f = 0.  Two Airy arguments per point give Ai and its partner
recessive to the left at the two ends of the grid; the Airy recurrence
carries each across the grid in the direction in which it grows, and
their Wronskian certifies the pair.  Ai and Ai' at those arguments come
from their large-|zeta| asymptotic series, with the term count from its
remainder bound and the connection formula past |ph zeta| = 2 pi/3; a
batch whose outer nodes come nearer 0 than R, about 8.9, starts the pair
a whole number of Taylor steps further out and carries it in.  The
Faddeeva function of the f = 0 closed form is Weideman's rational
approximation.  So the evaluator needs numpy alone.
A propagator time-integral representation along a rotated ray is kept as
a secondary route (exact for moderate f, used for cross-checks).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from ._gauss import (cauchy_derivative, cumulative_matrix,
                     gaussian_poly_integral, gauss_legendre, panel_nodes)
from .formfactor import FormFactor, _derivative, conj_reflect

__all__ = [
    "QUADRATURE",
    "QuadratureError",
    "SectorLimitError",
    "CutProximityError",
    "RoucheCertificate",
    "ResolventEvaluator",
]


class QuadratureError(Exception):
    """Quadrature failed to reach the target tolerance."""

    def __init__(self, message: str, achieved: float):
        self.achieved = achieved
        super().__init__(f"{message} (achieved error ~{achieved:.3e})")


class SectorLimitError(Exception):
    """The requested evaluation leaves the admissible contour sector."""


class CutProximityError(Exception):
    """z is too close to the branch cut (-inf, 0]."""


# the evaluator's numerical policy; run manifests record it unchanged
QUADRATURE = MappingProxyType({
    "tol": 1e-10,
    "gamma": math.pi / 8.0,          # time-ray rotation angle, in (0, pi/3)
    "derivative_radius": 1e-3,       # f = 0 Cauchy ring
    "derivative_nodes": 32,
    "panel_nodes": 24,
    "panel_width": 1.0,              # caps the panel half-width
                                     # (panels are 2 x panel_width wide)
})
# relative distance to the branch cut (-inf, 0] below which f = 0
# evaluation is refused
_CUT_MARGIN = 1e-8
# points evaluated together; bounds the (groups x points x Taylor
# coefficients) work arrays
_BATCH = 128
# double-precision machine epsilon; the Airy route's Taylor tail bound
# stops below it
_EPS = float(np.finfo(float).eps)
# panel half-width times the Airy kernel's local oscillation rate
# sqrt|z - f x| up to which the panels resolve the kernel: the panel-width
# rule keeps window points within it, and the route refuses points past it
_RESOLUTION = 3.0
# per sign s = +1, -1 of Im zeta on the Airy route: the rotation
# e^{-2 pi i s/3} of the argument at the leftmost node, and i (1 + s) in
# Ci = M + i (1 + s) Ai
_SIGNED = np.array([[np.exp(-2j * np.pi / 3), 2j],
                    [np.exp(2j * np.pi / 3), 0.0]])
# omega = e^{2 pi i/3} of the connection formula
# Ai(zeta) = -omega Ai(omega zeta) - omega^2 Ai(omega^2 zeta), and its
# factors on Ai(omega zeta), Ai(omega^2 zeta), then on Ai'(omega zeta),
# Ai'(omega^2 zeta) in Ai'(zeta)
_OMEGA = np.exp(2j * np.pi / 3)
_CONNECT = -np.array([[_OMEGA, _OMEGA ** 2], [_OMEGA ** 2, _OMEGA]])
# the longest inward step from the Airy route's starting arguments to the
# outer nodes (the widest groups, 3.4 in zeta at f = 0.01 near z = 0, are
# too long a Taylor step about |zeta| = R for the tolerance), and its
# direction per end: Ai's starts right of the rightmost node, M's left of
# the leftmost
_APPROACH = 1.5
_OUTWARD = np.array([1.0, -1.0])
# the largest |zeta| of a Faddeeva argument that free_continued accepts:
# below the axis w(zeta) = 2 e^{-zeta^2} - w(-zeta) carries the rounding
# of zeta^2, and past this reach 16 eps (1 + |zeta|^2) passes the
# evaluator tolerance
_W_REACH = math.sqrt(QUADRATURE["tol"] / (16.0 * _EPS))
# Faddeeva arguments whose powers are summed together
_W_BLOCK = 1024


def _weideman_coefficients(n: int = 40) -> tuple[np.ndarray, float]:
    """The coefficients a_1 .. a_n of Weideman's rational approximation
    of the Faddeeva function (SIAM J. Numer. Anal. 31 (1994) 1497), and
    its scale L = sqrt(n / sqrt 2).

    With t_k = L tan(k pi/(4n)) for |k| < 2n,
    a_j = sum_k e^{-t_k^2} (L^2 + t_k^2) cos(j k pi/(2n)) / (4n), the
    discrete cosine transform of Weideman's FFT.
    """
    m = 2 * n
    L = math.sqrt(n / math.sqrt(2.0))
    k = np.arange(1 - m, m)
    t = L * np.tan(0.5 * np.pi * k / m)
    a = np.cos(np.pi / m * np.outer(np.arange(1, n + 1), k)) @ (
        np.exp(-t * t) * (L * L + t * t)) / (2.0 * m)
    a.setflags(write=False)
    return a, L


_W_COEF, _W_L = _weideman_coefficients()


def _faddeeva(zeta: np.ndarray) -> np.ndarray:
    """The Faddeeva function w(zeta) = e^{-zeta^2} erfc(-i zeta) at the
    1-d complex array zeta.

    On the closed upper half-plane, Weideman's approximation
    w = 2 p(Z)/(L - i zeta)^2 + 1/(sqrt(pi) (L - i zeta)), with
    p(Z) = sum_j a_{j+1} Z^j for the a of :func:`_weideman_coefficients`
    and Z = (L + i zeta)/(L - i zeta), |Z| <= 1, summed as one matrix
    product with the :func:`_power_rows` of Z per _W_BLOCK points.  Below
    the axis
    w(zeta) = 2 e^{-zeta^2} - w(-zeta).  The values may overflow there;
    numpy warns of nothing, and the caller's checks see the non-finite
    value.
    """
    below = zeta.imag < 0.0
    x = np.where(below, -zeta, zeta)
    d = _W_L - 1j * x
    Z = 2.0 * _W_L / d - 1.0                       # (L + i x)/(L - i x)
    p = np.empty_like(Z)
    for i in range(0, Z.size, _W_BLOCK):
        np.matmul(_W_COEF, _power_rows(Z[i:i + _W_BLOCK], _W_COEF.size),
                  out=p[i:i + _W_BLOCK])
    w = (2.0 * p / d + 1.0 / math.sqrt(math.pi)) / d
    if below.any():
        with np.errstate(over="ignore", invalid="ignore"):
            w[below] = 2.0 * np.exp(-zeta[below] ** 2) - w[below]
    return w


def _power_rows(x: np.ndarray, n: int) -> np.ndarray:
    """x^0 .. x^{n-1} as the rows of an (n, x.size) complex array, by
    repeated squaring: rows k to 2k - 1 are rows 0 to k - 1 times x^k."""
    powers = np.empty((n, x.size), dtype=complex)
    powers[0] = 1.0
    powers[1:2] = x
    k = 2
    while k < n:
        x = x * x
        np.multiply(powers[:min(k, n - k)], x, out=powers[k:2 * k])
        k *= 2
    return powers


def _asymptotic_series(n_max: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """The large-|zeta| series of Ai and Ai' (DLMF 9.7.5-9.7.6) to n_max
    terms, n_max even, split into even and odd powers of 1/xi: an array of
    shape (n_max/2, 4) whose row j holds u_{2j}, -u_{2j+1}, v_{2j} and
    -v_{2j+1}, and per j the smallest |xi| at which the first 2j terms
    reach double-precision rounding, an (n_max/2,) array.

    u_0 = v_0 = 1, u_k = (6k-5)(6k-3)(6k-1) u_{k-1} / ((2k-1) 216 k) and
    v_k = -(6k+1) u_k / (6k-1).  For |ph zeta| <= 2 pi/3 the remainder
    after n terms is at most (chi(n) + 1) times the first omitted term in
    absolute value, chi(n) = sqrt(pi) Gamma(n/2 + 1) / Gamma(n/2 + 1/2)
    (DLMF 9.7.16-9.7.17; |v_n| > u_n bounds both series), so n terms
    suffice from |xi| = ((chi(n) + 1) |v_n| / eps)^{1/n} on.
    """
    k = np.arange(1, n_max)
    u = np.cumprod(np.concatenate(
        ([1.0], (6 * k - 5) * (6 * k - 3) * (6 * k - 1)
         / ((2 * k - 1) * 216.0 * k))))
    n = np.arange(n_max)
    v = -(6 * n + 1) / (6 * n - 1) * u
    chi = math.sqrt(math.pi) * np.exp([math.lgamma(j / 2 + 1)
                                       - math.lgamma(j / 2 + 0.5)
                                       for j in range(n_max)])
    reach = np.full(n_max // 2, math.inf)
    reach[1:] = ((chi[2::2] + 1.0) * np.abs(v[2::2]) / _EPS) ** (
        1.0 / n[2::2])
    table = (np.stack((u, v)) * (-1.0) ** n).reshape(2, -1, 2)
    table = table.transpose(1, 0, 2).reshape(-1, 4)
    for a in (table, reach):
        a.setflags(write=False)
    return table, reach


_SERIES, _SERIES_REACH = _asymptotic_series()
# the smallest |xi| and |zeta| at which the series of Ai and Ai' reach
# double-precision rounding (about 17.7 and 8.9, 36 terms); every Airy
# argument of the route lies at least _AIRY_R from 0
_AIRY_XI = float(_SERIES_REACH.min())
_AIRY_R = (1.5 * _AIRY_XI) ** (2.0 / 3.0)


def _group_starts(n_pan: int, span: int) -> np.ndarray:
    """First panel of each group of ``span`` consecutive panels: where span
    does not divide n_pan the last group ends at the last panel and starts
    inside the group before."""
    return np.minimum(np.arange(0, n_pan, span), n_pan - span)


@dataclass(frozen=True)
class RoucheCertificate:
    certified: bool
    indeterminate: bool
    max_coupling: float
    min_linear: float
    samples: int

    def __bool__(self) -> bool:
        return self.certified and not self.indeterminate


class _AiryGrid(NamedTuple):
    """Composite Gauss-Legendre grid of the Airy route for one (phi, f)."""

    x: np.ndarray            # nodes, panel by panel
    w: np.ndarray            # weights at x
    halves: np.ndarray       # panel half-widths
    M: np.ndarray            # running-integral matrix on one panel
    gauss_w: np.ndarray      # Gauss-Legendre weights on [-1, 1]
    phi_r: np.ndarray        # phi at x
    phi_l: np.ndarray        # conj(phi(conj x)) at x
    dphi_r: np.ndarray       # phi' at x
    dphi_l: np.ndarray       # conj(phi'(conj x)) at x
    n_pan: int
    nn: int
    L: float                 # the grid is [-L, L]
    centres: np.ndarray      # f^{1/3} times the panel midpoints
    step: float              # f^{1/3} times the panel half-width

    def groups(self, span: int) -> tuple[np.ndarray, np.ndarray]:
        """Centres of consecutive groups of ``span`` panels, f^{1/3}
        times their midpoints, and the first panel of each group: where
        span does not divide n_pan the last group ends at x = L and starts
        inside the group before, so no node lies past the grid."""
        starts = _group_starts(self.n_pan, span)
        centres = 0.5 * (self.centres[starts]
                         + self.centres[starts + span - 1])
        return centres, starts


class _Carry(NamedTuple):
    """The Airy route's carry across the group centres for one grid, span
    and term count (:func:`_airy_carry`)."""

    steps: np.ndarray        # (Ai leftward or M rightward, G steps, J, 4)
    source: np.ndarray       # (2, G) centre whose c^j each step takes
    ratios: np.ndarray       # h^2 / (2j (2j - 1)), j = 1 .. J - 1: from
                             # c^{j-1}/(2j-2)! to c^j/(2j)! over zeta_c
    start: np.ndarray        # (s = +1 or -1, Ai or M, 1, y or h y')
                             # factors on the values of _airy
    approach: np.ndarray     # (Ai leftward or M rightward, J, 4): one
                             # inward step of _approach_step


@dataclass(frozen=True)
class ResolventEvaluator:
    """Evaluator for r(z), F(z) = 1 - z - r(z) and F'(z) at fixed (phi, f).

    Immutable and deterministic; safe to evaluate concurrently at distinct
    points.  Accepts scalar or ndarray z throughout.
    """

    phi: FormFactor
    f: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.f < math.inf:
            raise ValueError("field strength f must be finite and nonnegative")

    # ------------------------------------------------------------------
    # shared ingredients

    @cached_property
    def _psi_hat(self) -> FormFactor:
        """Momentum-space transform of the conjugate reflection of phi."""
        return conj_reflect(self.phi).transform()

    @cached_property
    def _phi_hat(self) -> FormFactor:
        return self.phi.transform()

    @cached_property
    def _G(self) -> FormFactor:
        """Entire momentum-space product equal to |phihat|^2 on the real axis."""
        return self._psi_hat.product(self._phi_hat)

    def _check_off_cut(self, z: np.ndarray) -> None:
        zc = np.atleast_1d(z)
        near = (zc.real <= 0.0) & (np.abs(zc.imag)
                                   < _CUT_MARGIN * np.maximum(1.0, -zc.real))
        if np.any(near) or np.any(np.abs(zc) < _CUT_MARGIN):
            raise CutProximityError(
                "evaluation rejected within the configured margin of the "
                "branch cut (-inf, 0]"
            )

    # ------------------------------------------------------------------
    # f = 0: free line

    def free_continued(self, z):
        """Analytic continuation of the free matrix element across (0, inf).

        Closed form on C \\ (-inf, 0].  With s = sqrt(z), each term
        c k^m exp(-u k^2 + p k) of G splits as

            k^m/(k^2 - z) = P(k) + (s^{m-1}/2) [1/(k - s) - (-1)^m/(k + s)]

        with P a polynomial, integrated in closed form by
        gaussian_poly_integral.  With k0 = p/(2u) and w the Faddeeva
        function, the two fractions integrate to

            i pi e^{p^2/4u} (s^{m-1}/2)
                [w(sqrt(u) (s - k0)) + (-1)^m w(sqrt(u) (s + k0))].

        This is exact for Im z > 0 and entire in s, so the same
        expression is the continuation across (0, inf).  w is
        :func:`_faddeeva`; an argument past _W_REACH, about 168, raises
        QuadratureError.
        """
        z_in, zf = _points(z)
        self._check_off_cut(zf)
        s = np.sqrt(zf)
        out = np.zeros_like(zf)
        for c, m, width, p in self._G.terms:
            u = 0.5 * width
            k0 = p / (2.0 * u)
            # P(k) = (k^m - s^m [m even] - s^{m-1} k [m odd])/(k^2 - z)
            poly = [zf ** ((m - 2 - j) // 2) if (m - j) % 2 == 0 else 0.0
                    for j in range(m - 1)]
            args = np.sqrt(u) * np.concatenate((s - k0, s + k0))
            reach = float(np.abs(args).max())
            if not reach <= _W_REACH:
                raise QuadratureError(
                    f"Faddeeva argument of modulus {reach:.4g} past the "
                    f"reach {_W_REACH:.4g} of the free closed form", math.inf)
            w = _faddeeva(args)
            wp, wm = w[:zf.size], w[zf.size:]
            fractions = (0.5j * np.pi * np.exp(p * p / (4.0 * u))
                         * s ** (m - 1) * (wp + (-1) ** m * wm))
            out = out + c * (gaussian_poly_integral(poly, u, p) + fractions)
        if not np.all(np.isfinite(out)):
            raise QuadratureError(
                "free matrix element overflowed double precision for this "
                "window", math.inf)
        return _restore_shape(out, z_in)

    # ------------------------------------------------------------------
    # f > 0: propagator time representation (secondary route)

    def propagator_element(self, s):
        """Closed form of m(s) = (phi, exp(-i s (p^2 + f x)) phi).

        Exact for the Hermite-Gaussian family; entire in s on the closed
        lower sector used by the rotated-ray integral.
        """
        s_in = np.asarray(s, dtype=complex)
        sv = np.atleast_1d(s_in).ravel()
        f = self.f
        out = np.zeros_like(sv)
        cubic = np.exp(-1j * f * f * sv**3 / 3.0)
        for b_i, m_i, u_i, p_i in self._psi_hat.terms:
            for c_j, n_j, v_j, q_j in self._phi_hat.terms:
                a = 0.5 * (u_i + v_j) + 1j * sv
                if np.any(a.real <= 0):
                    raise SectorLimitError(
                        "propagator element leaves its analyticity sector "
                        "(Im s too large for the family widths)"
                    )
                b = p_i + q_j - v_j * f * sv - 1j * f * sv * sv
                const = np.exp(-0.5 * v_j * (f * sv) ** 2 + q_j * f * sv)
                # polynomial k^{m_i} (k + f s)^{n_j}, expanded in k
                poly = np.zeros((m_i + n_j + 1,) + sv.shape, dtype=complex)
                for t in range(n_j + 1):
                    poly[m_i + t] += math.comb(n_j, t) * (f * sv) ** (n_j - t)
                out = out + b_i * c_j * const * gaussian_poly_integral(
                    poly, a, b)
        out = out * cubic
        return _restore_shape(out, s_in)

    def stark_time_ray(self, z: complex, gamma: float | None = None,
                       derivative: bool = False) -> complex:
        """Rotated-ray propagator integral r(z) = i int_ray e^{izs} m(s) ds,
        or r'(z) = -int_ray s e^{izs} m(s) ds when ``derivative``.

        The ray is s = t exp(-i gamma), gamma in (0, pi/3), where the
        cubic phase factor decays.  The default gamma is QUADRATURE's;
        for Im z > 0 it is capped at a quarter of arg(|Re z| + 1 + i Im z),
        and floored at 1e-6, so that e^{izs} itself decays along the ray
        and small f loses no digits there.  For small f with Im z < 0 the
        integrand peak grows like exp(c/f) and the evaluation loses digits
        -- use :meth:`stark_matrix_element` there.
        """
        if self.f <= 0:
            raise ValueError("stark_time_ray requires f > 0")
        z = complex(_points(z)[0])
        g = QUADRATURE["gamma"] if gamma is None else float(gamma)
        if gamma is None and z.imag > 0.0:
            g = max(min(g, 0.25 * math.atan2(z.imag, abs(z.real) + 1.0)),
                    1e-6)
        if not 0.0 < g < math.pi / 3.0:
            raise SectorLimitError("rotation angle must lie in (0, pi/3)")
        rot = cmath.exp(-1j * g)
        f = self.f
        t_cubic = (12.0 * 46.0 / (f * f * math.sin(3.0 * g))) ** (1.0 / 3.0)
        t_max = 4.0 * t_cubic + 200.0
        h = min(1.0, 4.0 / max(1.0, abs(z)))
        xg, wg = gauss_legendre(QUADRATURE["panel_nodes"])
        total = 0.0 + 0.0j
        peak = 0.0
        t0 = 0.0
        quiet = 0
        while t0 < t_max:
            t = t0 + 0.5 * h * (xg + 1.0)
            sv = t * rot
            vals = 1j * rot * np.exp(1j * z * sv) * self.propagator_element(sv)
            if derivative:
                vals = vals * (1j * sv)     # d/dz e^{izs} = i s e^{izs}
            contrib = complex(np.sum(0.5 * h * wg * vals))
            total += contrib
            peak = max(peak, float(np.max(np.abs(vals))))
            scale = max(abs(total), peak * 1e-10)
            if abs(contrib) < QUADRATURE["tol"] * scale * 1e-2:
                quiet += 1
                if quiet >= 3:
                    return total
            else:
                quiet = 0
            t0 += h
        raise SectorLimitError(
            "time-ray envelope failed to decay before the truncation time; "
            "increase gamma or shrink the evaluation window"
        )

    # ------------------------------------------------------------------
    # f > 0: Airy-kernel representation (main route)

    @cached_property
    def _airy_grid(self) -> _AiryGrid:
        # half-length L: past the coupling's 1e-24 tail, and far enough
        # that its Gaussian decay 0.5 wmin L^2 leads the Ci growth
        # (2/3) sqrt(f) L^{3/2} by ln 1e24.  The smallest such L is the
        # fixed point of L = sqrt(2 (ln 1e24 + (2/3) sqrt(f) L^{3/2}) / wmin),
        # which the iteration approaches from below (its slope there is
        # under 3/4)
        tail = 1e-24
        L = max(8.0, self.phi.width_extent(tail))
        wmin = min((t.width.real for t in self.phi.terms), default=1.0)
        growth = (2.0 / 3.0) * math.sqrt(self.f)
        while (nxt := math.sqrt(2.0 * (growth * L**1.5 - math.log(tail))
                                / wmin)) > L:
            L = nxt
        rate = math.sqrt(2.0 + self.f * L)  # local oscillation bound
        pw = min(2.0 * QUADRATURE["panel_width"], 2.0 * _RESOLUTION / rate)
        n_pan = max(8, int(math.ceil(2.0 * L / pw)))
        nn = QUADRATURE["panel_nodes"]
        x, w, edges = panel_nodes(-L, L, n_pan, nn)
        xg, gauss_w = gauss_legendre(nn)
        dphi = FormFactor(_derivative(self.phi.terms))
        cbrt = self.f ** (1.0 / 3.0)
        return _AiryGrid(
            x, w, 0.5 * (edges[1:] - edges[:-1]), cumulative_matrix(nn),
            gauss_w, self.phi(x), self.phi.conj_position()(x), dphi(x),
            dphi.conj_position()(x), n_pan, nn, L,
            cbrt * 0.5 * (edges[1:] + edges[:-1]), cbrt * (L / n_pan))

    def _route(self, zf: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """Per z, whether the Airy route takes it and whether the time ray
        does (a point on neither is refused), and the panels per group
        centre that the Airy points share.

        All three are closed forms in w = z - f x at the grid ends x = +-L.
        The growth exponent (2/3) |Im w^{3/2}| / f bounds log|Ai| and
        log|Ci| over the grid: Im w^{3/2} is monotone along the segment,
        so its ends give the exact maximum.  Below the axis the continued
        element grows with the kernel, so relative accuracy survives up to
        the overflow guard; above the axis the element stays small while
        the kernel factors grow, so those points go to the decaying-envelope
        ray integral early.  The reach _RESOLUTION / (h sqrt(max|w|)), h the
        panel half-width, is how many panels a group may span before its
        half-width times the kernel's largest local rate sqrt|w| passes
        _RESOLUTION.  A point with reach below 1 is one the panels no longer
        resolve, refused on either side of the axis and never sent to the
        ray.  The Airy points share the floor of their smallest reach, at
        most n_pan, so the Taylor reach about a group centre never grows
        past the one-panel bound.
        """
        g = self._airy_grid
        fL = self.f * g.L
        w = zf[:, None] - np.array([fL, -fL])
        growth = (2.0 / (3.0 * self.f)) * np.max(np.abs(np.imag(w**1.5)),
                                                 axis=1)
        reach = _RESOLUTION / (g.halves[0] * np.sqrt(np.max(np.abs(w), axis=1)))
        ray = (reach >= 1.0) & (zf.imag > 0.0) & (growth >= 3.0)
        airy = (reach >= 1.0) & ~ray & (growth < 660.0)
        return airy, ray, int(reach[airy].min(initial=g.n_pan))

    @cached_property
    def _forms(self) -> dict:
        """The bilinear forms of :meth:`_airy_forms`, per (span, even K).
        Concurrent calls may build one form twice, with the same values."""
        return {}

    def _airy_forms(self, span: int, K: int) -> np.ndarray:
        """The Airy route's bilinear forms on groups of ``span`` panels
        with K-term Taylor sums, built once per evaluator: an array of
        shape (G, 2J, 2 (2J + 2)) for G groups.

        With T the :func:`_taylor_table`, the values at the nodes of group
        g are a^T T and c^T T for the Taylor coefficients a of Ai and c of
        Ci = Bi + i Ai about its centre.  Let C and D be the group's
        running-integral matrices from its left edge and to its right
        edge, built from the panel matrix M (D from M reversed in both
        indices, the nodes being symmetric) and the Gauss weights.  For
        weights l on the left and v on the right, the part of
        int l (Ai P + Ci Q) with P and Q running within the group is
        a^T N c, N = T diag(w l) C diag(v) T^T + (T diag(w l) D diag(v)
        T^T)^T, and the rest needs the whole-group integrals, T (w l) and
        T (w v) dotted with a and c.  The array holds N for
        (phi_l, phi_r), then for r' the sum of N over (phi_l', phi_r) and
        (phi_l, phi_r'), then T w phi_l, T w phi_r, T w phi_l' and
        T w phi_r'.  The last group, which starts inside the one before,
        has zero weights on the panels it repeats.  K is rounded up to
        even, which keeps J = (K + 1) // 2 and adds at most one Taylor
        term, so that batches with K = 2J - 1 and 2J share one set.
        """
        K += K % 2
        key = (span, K)
        if key in self._forms:
            return self._forms[key]
        g = self._airy_grid
        nn = g.nn
        T = _taylor_table(g.step, span, nn, K)
        starts = g.groups(span)[1]
        panels = starts[:, None] + np.arange(span)
        nodes = (panels[..., None] * nn + np.arange(nn)).reshape(
            starts.size, -1)
        keep = np.repeat(panels >= span * np.arange(starts.size)[:, None],
                         nn, axis=1)
        w = np.where(keep, g.w[nodes], 0.0)
        h = g.halves[panels][:, None, None, :, None]

        def running(M, whole):
            # M on each panel's own nodes, the Gauss weights on the panels
            # that ``whole`` marks as passed in full
            blocks = (np.eye(span)[:, None, :, None] * M[:, None, :]
                      + whole[:, None, :, None] * g.gauss_w)
            return (h * blocks).reshape(starts.size, span * nn, span * nn)

        before = np.tril(np.ones((span, span)), -1)
        C = running(g.M, before)
        D = running(g.M[::-1, ::-1], before.T)
        left = [T * (w * v[nodes])[:, None, :] for v in (g.phi_l, g.dphi_l)]
        right = [T * np.where(keep, v[nodes], 0.0)[:, None, :]
                 for v in (g.phi_r, g.dphi_r)]

        def form(lt, rt):
            rt = rt.transpose(0, 2, 1)
            return lt @ C @ rt + (lt @ D @ rt).transpose(0, 2, 1)

        # T w phi_l, T w phi_r, T w phi_l', T w phi_r'
        ends = [np.sum(v, axis=-1, keepdims=True) for lt, rt in
                zip(left, right) for v in (lt, rt * w[:, None, :])]
        forms = np.concatenate(
            [form(left[0], right[0]),
             form(left[1], right[0]) + form(left[0], right[1])] + ends,
            axis=-1)
        self._forms[key] = forms
        return forms

    def _stark_airy_batch(self, zf: np.ndarray, span: int,
                          derivative: bool = False) -> np.ndarray:
        """r(z) on the Airy route, and r'(z) too when ``derivative``: an
        array of shape (2, zf.size) that holds r and r'.

        r(z) = pi f^{-1/3} int conj(phi)(x) [Ai(x) P(x) + Ci(x) Q(x)] dx
        with P, Q the running integrals of phi Ci from the left and of
        phi Ai from the right.  Translation covariance of p^2 + f x gives
        f r'(z) = (phi', R phi) + (phi, R phi'), the same integral with
        phi' on either side.  Ai and Bi take the argument
        zeta = f^{1/3} x - z f^{-2/3}.  Each group of ``span`` consecutive
        panels (:meth:`_route` gives the span) takes the Taylor
        coefficients of Ai and Ci about its centre, from two
        Airy arguments per point carried across the centres
        (:func:`_airy_coefficients`).  No value at a node is formed: each
        is a fixed linear map of the coefficients, so r and r' are sums of
        the bilinear forms of :meth:`_airy_forms`, applied in one batched
        matrix product.  Across groups, P at a group sums the whole-group
        integrals of phi Ci over the groups to its left, and Q those of
        phi Ai over the groups to its right, summed from the right.
        """
        g = self._airy_grid
        f = self.f
        zeta_c = g.groups(span)[0][:, None] - zf * f ** (-2.0 / 3.0)
        coef, K = _airy_coefficients(zeta_c, g.step, span, g.n_pan, g.nn)
        ai, ci = coef
        forms = self._airy_forms(span, K)
        m = coef.shape[-1]
        # the products may overflow; the finite check below raises then.
        # The forms of r' are applied for r alone too, so that r comes out
        # the same, bit for bit, with or without r'
        with np.errstate(over="ignore", invalid="ignore"):
            fa = ai @ forms
            # whole-group integrals: [phi or phi'][left or right weight]
            ends_a = fa[..., 2 * m:].reshape(zeta_c.shape + (2, 2))
            ends_c = (ci @ forms[..., 2 * m:]).reshape(ends_a.shape)
            # P sums those of Ci over the groups to the left, Q those of Ai
            # over the groups to the right, from the right; last axis: phi
            # (0) or phi' (1) as the right weight
            P = np.zeros_like(ends_c[..., 1])
            Q = np.zeros_like(P)
            P[1:] = np.cumsum(ends_c[:-1, ..., 1], axis=0)
            Q[:-1] = np.cumsum(ends_a[:0:-1, ..., 1], axis=0)[::-1]

            def within(k):
                return np.einsum("gnk,gnk->n", fa[..., k * m:(k + 1) * m],
                                 ci)

            def across(k, j):
                # phi (0) or phi' (1) on the left (k) and the right (j)
                return np.sum(ends_a[..., k, 0] * P[..., j]
                              + ends_c[..., k, 0] * Q[..., j], axis=0)

            r = np.pi * f ** (-1.0 / 3.0) * (within(0) + across(0, 0))
            if derivative:
                r = np.stack((r, np.pi * f ** (-4.0 / 3.0) * (
                    within(1) + across(1, 0) + across(0, 1))))
        if not np.all(np.isfinite(r)):
            raise QuadratureError(
                "Airy kernel overflowed double precision for this window",
                math.inf)
        return r

    def _stark(self, zc: np.ndarray, derivative: bool = False) -> np.ndarray:
        """r(z) at each point of the flat array zc, and r'(z) too when
        ``derivative`` (an array of shape (2, zc.size) that holds r and
        r'), on the route :meth:`_route` gives the point: the Airy kernel
        or the time ray, where r' is one more ray integral.  A point that
        neither route takes raises QuadratureError, and so does a
        non-finite Airy-kernel value."""
        res = np.empty((2, zc.size) if derivative else zc.size, dtype=complex)
        airy, ray, span = self._route(zc)
        if np.any(airy):
            res[..., airy] = self._stark_airy_batch(zc[airy], span, derivative)
        for j in np.nonzero(~airy)[0]:
            zj = complex(zc[j])
            if not ray[j]:
                raise QuadratureError(
                    f"no route keeps the tolerance at z={zj} for f={self.f}: "
                    "the Airy panels do not resolve the kernel there, or "
                    "it exceeds double-precision range", math.inf)
            res[..., j] = ((self.stark_time_ray(zj),
                            self.stark_time_ray(zj, derivative=True))
                           if derivative else self.stark_time_ray(zj))
        return res

    def stark_matrix_element(self, z):
        """Entire continuation of (phi, (p^2 + f x - z)^{-1} phi) for f > 0.

        Built from the Airy Green's kernel of the constant-field operator;
        valid on the whole plane covered by the evaluation window and free
        of the exp(c/f) cancellation of the time-ray route.  Points are
        evaluated in consecutive batches of _BATCH.
        """
        if self.f <= 0:
            raise ValueError("stark_matrix_element requires f > 0")
        z_in, zf = _points(z)
        out = np.empty_like(zf)
        for i in range(0, zf.size, _BATCH):
            out[i:i + _BATCH] = self._stark(zf[i:i + _BATCH])
        return _restore_shape(out, z_in)

    # ------------------------------------------------------------------
    # F and its derivative

    def F_value(self, z):
        """F(z) = 1 - z - r(z), whose zeros are the resonances."""
        z_in = _points(z)[0]
        r = (self.free_continued(z_in) if self.f == 0.0
             else self.stark_matrix_element(z_in))
        return 1.0 - z_in - np.asarray(r)

    def F_pair(self, z) -> tuple[np.ndarray, np.ndarray]:
        """F(z) and F'(z) at each point of the 1-d array z.

        For f > 0 one Airy pass per batch of _BATCH points gives both: the
        Taylor coefficients that r needs are the ones r' takes, through
        one matrix product with both sets of forms
        (:meth:`_stark_airy_batch`), and a time-ray point takes both ray
        integrals.  At f = 0, :meth:`F_value` on the array
        and the Cauchy ring of :meth:`F_derivative` at each point.
        """
        zf = _points(z)[1]
        if self.f == 0.0:
            return (self.F_value(zf),
                    np.array([self.F_derivative(zj) for zj in zf]))
        r = np.empty((2, zf.size), dtype=complex)
        for i in range(0, zf.size, _BATCH):
            r[:, i:i + _BATCH] = self._stark(zf[i:i + _BATCH], True)
        return 1.0 - zf - r[0], -1.0 - r[1]

    def F_derivative(self, z: complex) -> complex:
        """F'(z) = -1 - r'(z).

        For f > 0, the F' of :meth:`F_pair`: analytic on the route that
        :meth:`stark_matrix_element` takes at z, by translation covariance
        on the Airy kernel, r' = (1/f)[(phi', R phi) + (phi, R phi')], and
        on the time ray the same integral with one more factor i s.  At
        f = 0, a spectrally accurate Cauchy circle around z that keeps off
        the branch cut.
        """
        z = complex(_points(z)[0])
        if self.f > 0.0:
            return complex(self.F_pair(np.array([z]))[1][0])
        dist = abs(z) if z.real >= 0.0 else abs(z.imag)
        rho = min(QUADRATURE["derivative_radius"], 0.45 * dist)
        return cauchy_derivative(self.F_value, z, rho,
                                 QUADRATURE["derivative_nodes"])

    # ------------------------------------------------------------------
    # Rouche dominance certificate

    def certify_unique(self, center: complex = 1.0, radius: float = 0.1,
                       band: float = 0.02) -> RoucheCertificate:
        """Certify that F has exactly one zero inside |z - center| = radius.

        Dominance |r(z)| < |1 - z| on the circle transfers the unique zero
        of 1 - z to F.  Sampling is refined until the circle maximum is
        stable; a result within the relative tolerance band is reported as
        indeterminate, never as a false positive.
        """
        if self.f != 0.0:
            raise ValueError("the dominance certificate is defined for f = 0")
        if radius <= 0:
            raise ValueError("radius must be positive")
        d = abs(complex(center) - 1.0)
        min_linear = radius - d if d < radius else d - radius
        if min_linear <= 0:
            return RoucheCertificate(False, True, math.inf, 0.0, 0)
        n = 64
        prev_max = None
        while n <= 8192:
            pts = center + radius * np.exp(2j * np.pi * np.arange(n) / n)
            max_c = float(np.max(np.abs(self.free_continued(pts))))
            if prev_max is not None and abs(max_c - prev_max) <= 0.002 * max(
                    max_c, 1e-300):
                break
            prev_max = max_c
            n *= 2
        margin = min_linear - max_c
        scale = max(min_linear, max_c)
        if margin > band * scale:
            return RoucheCertificate(True, False, max_c, min_linear, n)
        if margin < -band * scale:
            return RoucheCertificate(False, False, max_c, min_linear, n)
        return RoucheCertificate(False, True, max_c, min_linear, n)


# ----------------------------------------------------------------------


def _points(z):
    """z as a complex array and as a flat array of points; raises
    ValueError unless every point is finite."""
    z_in = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z_in)):
        raise ValueError("evaluation points z must be finite")
    return z_in, np.atleast_1d(z_in).ravel()


def _restore_shape(flat: np.ndarray, like: np.ndarray):
    if like.shape == ():
        return complex(flat[0])
    return flat.reshape(like.shape)


@lru_cache(maxsize=256)
def _taylor_terms(zeta_max: float, h_max: float) -> int:
    """Terms that the Taylor series of a solution of y'' = zeta y needs
    about centres |zeta_c| <= zeta_max, for steps |t| <= h_max.

    The scaled coefficients b_n = a_n h_max^n obey
    b_n = (zeta_c h_max^2 b_{n-2} + h_max^3 b_{n-3}) / (n (n-1)), so
    |b_n| <= beta_n max(|b_0|, |b_1|) with beta from the same recurrence
    on (zeta_max, 1, 1).  Once q = (zeta_max h_max^2 + h_max^3)/(n (n-1))
    is below 1/2, every further beta is at most q times the largest of
    the three before it, so the tail past n is at most 3 q max/(1 - q);
    the count stops when that falls below double-precision rounding.
    The rounding error of the sum is about machine epsilon times the sum
    of the beta, relative to max(|y|, h_max |y'|).  The Airy route never
    forms the sum: r is a bilinear form in the coefficients of Ai and of
    Ci (:meth:`ResolventEvaluator._airy_forms`), so each of its terms
    carries the sum of the beta once per factor, and the rounding is about
    machine epsilon times the square of that sum.  Where that exceeds the
    evaluator tolerance (from |z| of about 55 at f = 0.01, where the
    panels no longer resolve the oscillation either) it raises
    QuadratureError.  :func:`_airy_coefficients` calls it twice per
    batch, on the ceiling of the largest |zeta_c| of the group centres and
    on the group's largest offset (the node sums) or on the group width
    (the steps of :func:`_airy_carry`, which bounds every gap), and the
    count is cached on those two: the ceiling only adds terms and raises
    the rounding estimate, so both bounds stay at least as strict, and the
    batches of one field share a few keys.  The tables of
    :func:`_taylor_table` and :func:`_airy_carry` regroup the same terms
    by powers of zeta_c h^2 and enlarge none in absolute value, so both
    bounds hold for the regrouped sums, and for the forms built from them.
    A carry step forms its sum once, so the squared rounding bound holds
    for it with room; its y' sums the terms times n < K, and the
    Wronskian check at every centre sees what that loses.
    """
    c, d = zeta_max * h_max * h_max, h_max ** 3
    b3, b2, b1 = 1.0, 1.0, 0.5 * c      # beta_{n-3}, beta_{n-2}, beta_{n-1}
    total = b3 + b2 + b1                 # sum of the beta so far
    n = 3
    while True:
        rounding = _EPS * total * total
        if not rounding <= QUADRATURE["tol"]:
            raise QuadratureError(
                "Taylor propagation of the Airy kernel loses the tolerance "
                "at this distance from the window", rounding)
        q = (c + d) / (n * (n - 1))
        if q < 0.5 and 3.0 * q * max(b3, b2, b1) / (1.0 - q) <= _EPS:
            return n
        b3, b2, b1 = b2, b1, (c * b2 + d * b3) / (n * (n - 1))
        total += b1
        n += 1


def _taylor_uv(h: float, K: int) -> np.ndarray:
    """The polynomials in c = zeta_c h^2 of the first K scaled Taylor
    coefficients b_n = a_n h^n of a solution of y'' = zeta y about
    zeta_c, as an array of shape (K, 2, J), J = (K + 1) // 2.

    The b_n obey b_n = (c b_{n-2} + h^3 b_{n-3}) / (n (n-1)), so each is
    linear in b_0 = y and b_1 = h y': b_n = sum_j (u_{n,j} b_0 +
    v_{n,j} b_1) c^j.  Entry [n, 0, j] is (2j)! u_{n,j} and [n, 1, j] is
    (2j)! v_{n,j}; the (2j)! keeps the powers c^j/(2j)! that multiply
    them as small as the series terms.  All are nonnegative.
    """
    J = (K + 1) // 2
    uv = np.zeros((K, 2, J))             # (term, y or h y', power of c)
    uv[0, 0, 0] = uv[1, 1, 0] = 1.0
    for n in range(2, K):
        uv[n, :, 1:] = uv[n - 2, :, :-1]
        if n >= 3:
            uv[n] += h ** 3 * uv[n - 3]
        uv[n] /= n * (n - 1)
    uv *= [float(math.factorial(2 * j)) for j in range(J)]
    return uv


@lru_cache(maxsize=32)
def _taylor_table(step: float, span: int, nn: int, K: int) -> np.ndarray:
    """The K-term Taylor sums of U and V at the offsets t from a group's
    centre of the Gauss-Legendre nodes of its ``span`` panels, in zeta,
    for panel half-width ``step`` in zeta, as one read-only (2 J, span nn)
    array, J = (K + 1) // 2.

    With h = max|t| and s = t/h, row j holds
    U_j(s) = sum_{n<K} (2j)! u_{n,j} s^n and row J + j holds V_j(s), the
    u and v of :func:`_taylor_uv`, so y(zeta_c + t) = sum_j c^j/(2j)!
    (U_j y + V_j h y') for c = zeta_c h^2.  The u and v are nonnegative,
    so the rounding of the regrouped sum is that of the series in n.  The
    Airy route applies the table only inside its bilinear forms, whose
    two factors each carry that sum, and :func:`_taylor_terms` bounds the
    rounding by the square of the sum.
    """
    xg = gauss_legendre(nn)[0]
    t = (np.arange(1 - span, span, 2)[:, None] + xg).ravel() * step
    h = t[-1]                            # the nodes are symmetric about 0
    uv = _taylor_uv(h, K)
    powers = (t / h)[None, :] ** np.arange(K)[:, None]
    table = np.tensordot(uv, powers, axes=(0, 0)).reshape(-1, t.size)
    table.setflags(write=False)
    return table


def _airy(zeta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ai and Ai' at the 1-d complex array zeta, every |zeta| at least
    _AIRY_R, from the asymptotic series (DLMF 9.7.5-9.7.6)

        Ai = e^{-xi} S_u / (2 sqrt(pi) zeta^{1/4}),
        Ai' = -zeta^{1/4} e^{-xi} S_v / (2 sqrt(pi)),

    xi = (2/3) zeta^{3/2}, S_u and S_v the sums of (-1)^k u_k / xi^k and
    (-1)^k v_k / xi^k, their even and odd powers each as one matrix
    product with the :func:`_power_rows` of 1/xi^2.  The term count is
    the first even one at which the remainder bound of
    :func:`_asymptotic_series` on the smallest |xi| of the call reaches
    double-precision rounding.  Past |ph zeta| = 2 pi/3, where the bound
    does not hold, the connection formula
    Ai(zeta) = -omega Ai(omega zeta) - omega^2 Ai(omega^2 zeta),
    omega = e^{2 pi i/3}, takes two arguments within that sector, unless
    no argument lies there.  The values may overflow; numpy warns of
    nothing, and the caller's checks see the non-finite value.
    """
    # max: (2/3) R^{3/2} may round below _AIRY_XI
    pairs = int(np.argmax(_SERIES_REACH <= max(
        (2.0 / 3.0) * float(np.abs(zeta).min()) ** 1.5, _AIRY_XI)))
    # past |ph zeta| = 2 pi/3, Ai(omega zeta) and Ai(omega^2 zeta): the
    # first in place of Ai(zeta), the second after all the points
    far = zeta.real < -np.abs(zeta.imag) / math.sqrt(3.0)
    connect = far.any()
    w = (np.concatenate((np.where(far, _OMEGA * zeta, zeta),
                         _OMEGA ** 2 * zeta[far])) if connect else zeta)
    with np.errstate(over="ignore", invalid="ignore"):
        root = np.sqrt(w)
        quarter = np.sqrt(root)                        # w^{1/4}
        xi = (2.0 / 3.0) * w * root
        t = 1.0 / xi
        y = _SERIES[:pairs].T @ _power_rows(t * t, pairs)
        s = y[::2] + t * y[1::2]                       # S_u, S_v
        s *= np.exp(-xi) / (2.0 * math.sqrt(math.pi))
        ai, aip = s[0] / quarter, s[1] * -quarter      # at w
        if connect:
            n = zeta.size
            ai[:n][far] = _CONNECT[0] @ (ai[:n][far], ai[n:])
            aip[:n][far] = _CONNECT[1] @ (aip[:n][far], aip[n:])
            ai, aip = ai[:n], aip[:n]
    return ai, aip


def _airy_coefficients(zeta_c: np.ndarray, step: float, span: int,
                       n_pan: int, nn: int) -> tuple[np.ndarray, int]:
    """Taylor coefficients of Ai and Ci = Bi + i Ai about the centres
    zeta_c, shape (G, n), of groups of ``span`` of n_pan panels of
    half-width ``step`` in zeta, nn nodes each: an array of shape
    (2, G, n, 2 J), and the term count K of the node sums.

    One :func:`_airy` call takes two arguments per point: Ai at the
    rightmost node, a node reach h right of the last centre, and
    Ai(zeta e^{-2 pi i s/3}) at the leftmost node, s the sign of
    Im zeta (+1 on the axis), the same at every centre.  The latter
    gives M = Bi - i s Ai = 2 e^{-i pi s/6} Ai(zeta e^{-2 pi i s/3}),
    the solution that is recessive as Re zeta -> -inf.  Where an outer
    node lies nearer 0 than _AIRY_R, about 8.9, its argument moves a
    real distance D outward, Ai's right and M's left, in the whole steps
    of :func:`_approach_counts` that take it to |zeta| >= _AIRY_R;
    D = 0 for the others.  Ai and Ai' there come from their asymptotic
    series (:func:`_airy`).  Each is carried inward in the direction in
    which it grows, Ai leftward and M rightward: D in steps of
    :func:`_approach_step` to the outer node, then to every centre one
    gap at a time (:func:`_airy_carry`), so the part along
    the other solution of any error, which the two starting values have
    too, dies out at every node.  The Wronskian pi (Ai M' - Ai' M) = 1
    certifies each carried pair at every centre: past QUADRATURE["tol"]
    the route raises QuadratureError.  Bi = M + i s Ai, so
    Ci = M + i (1 + s) Ai.
    The coefficients are y c^j/(2j)! and then h y' c^j/(2j)! for
    c = zeta_c h^2, from a cumulative product, so that their product
    with the table of :func:`_taylor_table` for K is y at the group's
    nodes.  K comes from :func:`_taylor_terms` on the ceiling of the
    largest |zeta_c| and on h; the carry's count on the same ceiling
    and on the group width 2 span step, which bounds every gap, and, if
    it is larger, on the ceiling of the largest |zeta| that an inward
    step starts from and on that step.
    """
    G, n = zeta_c.shape
    h = _node_reach(step, span, nn)
    zeta_max = math.ceil(np.abs(zeta_c).max())
    K = _taylor_terms(zeta_max, h)
    Kc = _taylor_terms(zeta_max, 2.0 * span * step)
    # the outer nodes, Ai's then M's, the inward steps each takes, and
    # where the k steps of the batch start: a node's own steps are the
    # last of them, the ones before leave it in place
    outer = zeta_c[[-1, 0]] + h * _OUTWARD[:, None]
    delta = _approach_step(step, span)
    counts = _approach_counts(outer, delta)
    k = int(counts.max())
    ends = outer
    if k:
        ends = outer + _OUTWARD[:, None] * delta * counts
        out = np.arange(k, 0, -1)[:, None]
        inward = outer[:, None] + _OUTWARD[:, None, None] * delta * out
        moving = out <= counts[:, None]
        Kc = max(Kc, _taylor_terms(
            math.ceil(np.abs(inward[moving]).max()), delta))
    carry = _airy_carry(step, span, n_pan, nn, Kc)
    # the count grows with the step, and h < 2 span step, so J <= Jc
    J = (K + 1) // 2
    powers = _powers(zeta_c, carry.ratios)
    below = (zeta_c[0].imag < 0.0)[:, None]          # s = -1
    rot, sign = np.where(below, _SIGNED[1], _SIGNED[0]).T
    ai, aip = _airy(np.concatenate((ends[0], rot * ends[1])))
    # state[i]: (Ai, M) x (y, h y') after i steps: at the starting
    # arguments for i = 0, at the outer nodes for i = k, then Ai at
    # centre G + k - i and M at centre i - k - 1
    state = np.empty((G + k + 1, 2, n, 2, 1), dtype=complex)
    state[0, ..., 0, 0] = ai.reshape(2, n)
    state[0, ..., 1, 0] = aip.reshape(2, n)
    state[0, ..., 0] *= np.where(below, carry.start[1], carry.start[0])
    steps = (powers[carry.source] @ carry.steps).reshape(2, G, n, 2, 2)
    if k:
        approach = _powers(inward, carry.ratios) @ carry.approach[:, None]
        approach[~moving] = (1.0, 0.0, 0.0, 1.0)
        steps = np.concatenate((approach.reshape(2, k, n, 2, 2), steps),
                               axis=1)
    for i in range(G + k):
        np.matmul(steps[:, i], state[i], out=state[i + 1])
    a, m = state[:k:-1, 0, ..., 0], state[k + 1:, 1, ..., 0]
    cross = a * m[..., ::-1]
    wronskian = np.abs(cross[..., 0] - cross[..., 1] - h / np.pi).max()
    if not wronskian * np.pi / h <= QUADRATURE["tol"]:
        raise QuadratureError(
            "the Airy pair carried across the group centres lost its "
            "Wronskian", wronskian * np.pi / h)
    coef = np.empty((2, G, n, 2, J), dtype=complex)
    np.multiply(a[..., None], powers[..., None, :J], out=coef[0])
    np.multiply((m + sign[:, None] * a)[..., None], powers[..., None, :J],
                out=coef[1])
    return coef.reshape(2, G, n, 2 * J), K


def _powers(zeta: np.ndarray, ratios: np.ndarray) -> np.ndarray:
    """c^j/(2j)! for c = zeta h^2 at every entry of zeta, along a new last
    axis, from the cumulative product of zeta times ``ratios``, the
    h^2 / (2j (2j - 1)) of a :class:`_Carry`."""
    powers = np.empty(zeta.shape + (ratios.size + 1,), dtype=complex)
    powers[..., 0] = 1.0
    np.multiply(zeta[..., None], ratios, out=powers[..., 1:])
    np.cumprod(powers, axis=-1, out=powers)
    return powers


def _approach_step(step: float, span: int) -> float:
    """The length of the inward steps of :func:`_airy_coefficients` for
    groups of ``span`` panels of half-width ``step`` in zeta: the group
    width, at most _APPROACH."""
    return min(2.0 * span * step, _APPROACH)


def _approach_counts(outer: np.ndarray, delta: float) -> np.ndarray:
    """Per outer node, row 0 moving rightward and row 1 leftward, the
    fewest whole steps of delta that take it to |zeta| >= _AIRY_R: 0 for
    a node there already, and for one nearer 0 the steps that take its
    real part past sqrt(_AIRY_R^2 - Im^2) outward."""
    inside = np.abs(outer) < _AIRY_R
    if not inside.any():
        return np.zeros(outer.shape, dtype=int)
    gap = (np.sqrt(_AIRY_R ** 2 - np.where(inside, outer.imag, 0.0) ** 2)
           - _OUTWARD[:, None] * outer.real)
    return np.where(inside, np.ceil(gap / delta), 0.0).astype(int)


@lru_cache(maxsize=64)
def _airy_carry(step: float, span: int, n_pan: int, nn: int,
                K: int) -> _Carry:
    """The carry of :func:`_airy_coefficients` across the centres of
    groups of ``span`` of n_pan panels of half-width ``step`` in zeta, nn
    nodes each, with K-term Taylor steps.  It depends on the grid alone,
    so evaluators of one field share it.

    The centres lie 2 step apart per panel between group starts.  A
    solution of y'' = zeta y moves from a centre zeta_c to a point a real
    distance d to its right (s = 1) or left (s = -1) by the 2 x 2 matrix
    [[U, d V], [U'/d, V']] on (y, y'), with U, V and their s-derivatives
    the polynomials of :func:`_taylor_uv` for h = d, summed at s; on
    (y, h y'), h the group's node reach, the off-diagonal entries take d/h
    and h/d in place of d and 1/d.  Its inverse, the step from that point
    back to the centre, is its adjugate, since the Wronskian is conserved.
    Ai goes leftward: from the rightmost node, a node reach right of
    centre G - 1, back to that centre, then from centre G - k to centre
    G - 1 - k.  Its recessive partner M goes rightward: from the leftmost
    node back to centre 0, then from centre k - 1 to k.  Each step holds
    the matrix entries, row by row, as coefficients of c^j/(2j)! for
    c = zeta_c h^2 at the centre it starts from (or, the first one,
    returns to): the variable of the node coefficients.  So do the two
    inward steps of :func:`_approach_step` toward the outer nodes, Ai's
    leftward and M's rightward, about the point each starts from.
    """
    gaps = 2.0 * step * np.diff(_group_starts(n_pan, span))
    h = _node_reach(step, span, nn)
    n = np.arange(K)
    J = (K + 1) // 2

    def forward(d, s):
        uv = _taylor_uv(d, K) * (d / h) ** (2.0 * np.arange(J))
        y, dy = s ** n, n * s ** (n - 1.0)
        return np.stack((y @ uv[:, 0], d / h * (y @ uv[:, 1]),
                         h / d * (dy @ uv[:, 0]), dy @ uv[:, 1]), axis=-1)

    def back(d, s):
        return forward(d, s)[:, [3, 1, 2, 0]] * [1.0, -1.0, -1.0, 1.0]

    G = gaps.size + 1
    delta = _approach_step(step, span)
    rot = _SIGNED[:, 0]
    kappa = 2.0 * rot ** 0.25               # 2 e^{-i pi s/6}
    carry = _Carry(
        np.array([[back(h, 1.0)] + [forward(d, -1.0) for d in gaps[::-1]],
                  [back(h, -1.0)] + [forward(d, 1.0) for d in gaps]]),
        np.array([np.minimum(np.arange(G, 0, -1), G - 1),
                  np.maximum(np.arange(-1, G - 1), 0)]),
        h * h / (np.arange(2, 2 * J, 2) * np.arange(1, 2 * J - 1, 2)),
        np.stack((np.broadcast_to([1.0, h], (2, 2)),
                  np.stack((kappa, h * kappa * rot), axis=-1)),
                 axis=1)[:, :, None, :],
        np.array([forward(delta, -1.0), forward(delta, 1.0)]))
    for a in carry:
        a.setflags(write=False)
    return carry


def _node_reach(step: float, span: int, nn: int) -> float:
    """The largest offset in zeta of a node from its group's centre,
    (span - 1 + x_max) step for x_max the largest Gauss-Legendre node."""
    return float((span - 1 + gauss_legendre(nn)[0][-1]) * step)
