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
their Wronskian certifies the pair.  This module holds the model: the
routes, the batch, F, F', the Rouche certificate and every check against
QUADRATURE["tol"].  The special functions it calls, which check nothing,
are in :mod:`starkres._special`: Weideman's Faddeeva approximation, Ai
and Ai' from their asymptotic series, and the Taylor tables and carry
steps that start a batch further out and carry it in.  So the evaluator
needs numpy alone.
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
from ._special import (_EPS, _OUTWARD, _SIGNED, _airy, _airy_carry,
                       _approach_counts, _approach_step, _faddeeva,
                       _group_starts, _node_reach, _powers, _taylor_table)
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
# panel half-width times the Airy kernel's local oscillation rate
# sqrt|z - f x| up to which the panels resolve the kernel: the panel-width
# rule keeps window points within it, and the route refuses points past it
_RESOLUTION = 3.0
# the most panels an Airy grid may have: a batch's work arrays take about
# 0.16 MiB per panel (385 MiB peak at 2,287 panels, f = 1e-4 and width
# 3e-4), so past this one batch needs more than about 650 MiB.  The README
# runs take 11 to 28 panels, and --width 0.01 at f = 0.01 takes 257
_MAX_PANELS = 4096
# the largest |zeta| of a Faddeeva argument that free_continued accepts:
# below the axis w(zeta) = 2 e^{-zeta^2} - w(-zeta) carries the rounding
# of zeta^2, and past this reach 16 eps (1 + |zeta|^2) passes the
# evaluator tolerance
_W_REACH = math.sqrt(QUADRATURE["tol"] / (16.0 * _EPS))


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

    w: np.ndarray            # weights at the nodes x, panel by panel
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
            reach = float(np.abs(args).max(initial=0.0))
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
        panels = 2.0 * L / pw if pw > 0.0 else math.inf
        if not panels <= _MAX_PANELS:
            raise QuadratureError(
                f"the Airy grid for f={self.f:.4g} and coupling width "
                f"{wmin:.4g} needs {panels:.4g} panels, more than "
                f"{_MAX_PANELS}", math.inf)
        n_pan = max(8, int(math.ceil(panels)))
        nn = QUADRATURE["panel_nodes"]
        x, w, edges = panel_nodes(-L, L, n_pan, nn)
        xg, gauss_w = gauss_legendre(nn)
        dphi = FormFactor(_derivative(self.phi.terms))
        cbrt = self.f ** (1.0 / 3.0)
        return _AiryGrid(
            w, 0.5 * (edges[1:] - edges[:-1]), cumulative_matrix(nn),
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

    def _stark(self, zf: np.ndarray, derivative: bool = False) -> np.ndarray:
        """r(z) at each point of the flat array zf, and r'(z) too when
        ``derivative`` (an array of shape (2, zf.size) that holds r and
        r'), in consecutive batches of _BATCH points.  Each point takes the
        route :meth:`_route` gives it within its batch: the Airy kernel or
        the time ray, where r' is one more ray integral.  A point that
        neither route takes raises QuadratureError, and so does a
        non-finite Airy-kernel value."""
        res = np.empty((2, zf.size) if derivative else zf.size, dtype=complex)
        for i in range(0, zf.size, _BATCH):
            zc, out = zf[i:i + _BATCH], res[..., i:i + _BATCH]
            airy, ray, span = self._route(zc)
            if np.any(airy):
                out[..., airy] = self._stark_airy_batch(zc[airy], span,
                                                        derivative)
            for j in np.nonzero(~airy)[0]:
                zj = complex(zc[j])
                if not ray[j]:
                    raise QuadratureError(
                        f"no route keeps the tolerance at z={zj} for "
                        f"f={self.f}: the Airy panels do not resolve the "
                        "kernel there, or it exceeds double-precision range",
                        math.inf)
                out[..., j] = ((self.stark_time_ray(zj),
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
        return _restore_shape(self._stark(zf), z_in)

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
        integrals.  At f = 0, :meth:`F_value` on the array, and one more
        call on the Cauchy rings of :meth:`F_derivative` about every point.
        """
        zf = _points(z)[1]
        if self.f == 0.0:
            return self.F_value(zf), self._ring_derivative(zf)
        r = self._stark(zf, True)
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
        return self._ring_derivative(z)

    def _ring_derivative(self, z):
        """F'(z) at f = 0: one F_value call on the Cauchy rings about every
        point, each kept within 0.45 times its distance to the cut."""
        z = np.asarray(z)
        dist = np.where(z.real >= 0.0, np.abs(z), np.abs(z.imag))
        rho = np.minimum(QUADRATURE["derivative_radius"], 0.45 * dist)
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
    ends = outer + _OUTWARD[:, None] * delta * counts
    out = np.arange(k, 0, -1)[:, None]
    inward = outer[:, None] + _OUTWARD[:, None, None] * delta * out
    moving = out <= counts[:, None]
    Kc = max(Kc, _taylor_terms(
        math.ceil(np.abs(inward[moving]).max(initial=0.0)), delta))
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
    approach = _powers(inward, carry.ratios) @ carry.approach[:, None]
    approach[~moving] = (1.0, 0.0, 0.0, 1.0)
    steps = np.concatenate((approach.reshape(2, k, n, 2, 2), steps), axis=1)
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


