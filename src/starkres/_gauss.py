"""Shared Gaussian-integral, panel-quadrature and Cauchy-ring helpers.

Everything here is exact closed-form algebra or fixed composite
Gauss-Legendre machinery; no adaptive state, safe for concurrent use.
The panel grid serves the Airy-kernel route for f > 0, which builds it
once per evaluator; the f = 0 element needs no quadrature.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "gaussian_poly_integral",
    "cauchy_derivative",
    "gauss_legendre",
    "panel_nodes",
    "cumulative_matrix",
]


def gaussian_poly_integral(coeffs, a, b):
    """Closed form of ``int P(x) exp(-a x^2 + b x) dx`` over the real line.

    ``coeffs`` are ascending polynomial coefficients of P.  ``a``, ``b``
    and each coefficient may be arrays; they broadcast together, so one
    call evaluates a batch of integrals.  Requires Re(a) > 0 at every
    element.  Uses the centered-moment expansion around the saddle
    mu = b/(2a); exact for polynomials, stable for the low degrees the
    Hermite-Gaussian family produces.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if np.any(a.real <= 0.0):
        bad = a[a.real <= 0.0].ravel()[0]
        raise ValueError(f"gaussian integral needs Re(a) > 0, got a={bad}")
    mu = b / (2.0 * a)
    inv2a = 1.0 / (2.0 * a)
    total = np.zeros(np.broadcast(a, b).shape, dtype=complex)
    for m, cm in enumerate(coeffs):
        if np.all(np.equal(cm, 0)):
            continue
        # E[(t+mu)^m] for centered Gaussian with <t^2> = 1/(2a)
        acc = 0.0 + 0.0j
        df = 1.0                            # (2r-1)!!
        for r in range(0, m // 2 + 1):
            if r > 0:
                df *= 2 * r - 1
            acc = acc + math.comb(m, 2 * r) * df * mu ** (m - 2 * r) * inv2a**r
        total = total + cm * acc
    return np.sqrt(np.pi / a) * np.exp(b * b / (4.0 * a)) * total


def cauchy_derivative(F, z, rho, n: int = 32):
    """F'(z) as the mean of F over n equispaced points of the circle
    |w - z| = rho, weighted by exp(-i angle)/rho (spectrally accurate).
    For arrays z and rho, one F call takes every ring, the n points along
    its last axis, and F' comes back in their shape."""
    angles = 2.0 * np.pi * np.arange(n) / n
    z, rho = np.asarray(z), np.asarray(rho)
    ring = z[..., None] + rho[..., None] * np.exp(1j * angles)
    vals = np.asarray(F(ring), dtype=complex)
    dF = np.mean(vals * np.exp(-1j * angles), axis=-1) / rho
    return complex(dF) if dF.ndim == 0 else dF


@lru_cache(maxsize=16)
def gauss_legendre(n_nodes: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]."""
    xg, wg = np.polynomial.legendre.leggauss(n_nodes)
    xg.setflags(write=False)
    wg.setflags(write=False)
    return xg, wg


def panel_nodes(lo: float, hi: float, n_panels: int, n_nodes: int):
    """Composite Gauss-Legendre nodes and weights on [lo, hi].

    Returns (x, w) as flat arrays, plus the panel edge array.
    """
    xg, wg = gauss_legendre(n_nodes)
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (half[:, None] * xg[None, :] + mid[:, None]).ravel()
    w = (half[:, None] * wg[None, :]).ravel()
    return x, w, edges


@lru_cache(maxsize=16)
def cumulative_matrix(n_nodes: int):
    """Spectral indefinite-integration matrix on Gauss-Legendre nodes.

    M maps values at the n nodes of [-1, 1] to the values of the
    antiderivative (vanishing at -1) at those same nodes.  Exact for
    polynomials of degree < n.
    """
    xg, wg = gauss_legendre(n_nodes)
    # Legendre-coefficient analysis matrix: c_l = (2l+1)/2 sum_m w_m P_l(x_m) v_m
    P = np.polynomial.legendre.legvander(xg, n_nodes - 1)  # (m, l)
    ell = np.arange(n_nodes)
    analysis = ((2 * ell + 1) / 2.0)[:, None] * (P * wg[:, None]).T
    # integrate coefficientwise, then evaluate at nodes and subtract value at -1
    M = np.zeros((n_nodes, n_nodes))
    for col in range(n_nodes):
        coeffs = analysis[:, col]
        integ = np.polynomial.legendre.legint(coeffs)
        vals = np.polynomial.legendre.legval(xg, integ)
        v_lo = np.polynomial.legendre.legval(-1.0, integ)
        M[:, col] = vals - v_lo
    M.setflags(write=False)
    return M
