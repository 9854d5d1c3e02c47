"""Special functions of the resolvent evaluator, free of evaluator state.

The Faddeeva function of the f = 0 closed form, by Weideman's rational
approximation (SIAM J. Numer. Anal. 31 (1994) 1497); Ai and Ai' from
their large-|zeta| asymptotic series (DLMF 9.7.5-9.7.6), with the
connection formula past |ph zeta| = 2 pi/3; and the Taylor tables and
carry steps that take a solution of y'' = zeta y across the group
centres of the Airy route.  Nothing here checks a tolerance or raises:
the term counts, the Wronskian check and QuadratureError live in
:mod:`starkres.resolvent`, which calls these.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ._gauss import gauss_legendre

# every name here is private to the resolvent evaluator
__all__: list[str] = []

# double-precision machine epsilon; the Airy route's Taylor tail bound
# stops below it
_EPS = float(np.finfo(float).eps)
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

# omega = e^{2 pi i/3} of the connection formula
# Ai(zeta) = -omega Ai(omega zeta) - omega^2 Ai(omega^2 zeta), and its
# factors on Ai(omega zeta), Ai(omega^2 zeta), then on Ai'(omega zeta),
# Ai'(omega^2 zeta) in Ai'(zeta)
_OMEGA = np.exp(2j * np.pi / 3)
_CONNECT = -np.array([[_OMEGA, _OMEGA ** 2], [_OMEGA ** 2, _OMEGA]])


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
    omega = e^{2 pi i/3}, takes two arguments within that sector.  The
    values may overflow; numpy warns of nothing, and the caller's checks
    see the non-finite value.
    """
    # max: (2/3) R^{3/2} may round below _AIRY_XI
    pairs = int(np.argmax(_SERIES_REACH <= max(
        (2.0 / 3.0) * float(np.abs(zeta).min()) ** 1.5, _AIRY_XI)))
    # past |ph zeta| = 2 pi/3, Ai(omega zeta) and Ai(omega^2 zeta): the
    # first in place of Ai(zeta), the second after all the points
    far = zeta.real < -np.abs(zeta.imag) / math.sqrt(3.0)
    w = np.concatenate((np.where(far, _OMEGA * zeta, zeta),
                        _OMEGA ** 2 * zeta[far]))
    n = zeta.size
    with np.errstate(over="ignore", invalid="ignore"):
        root = np.sqrt(w)
        quarter = np.sqrt(root)                        # w^{1/4}
        xi = (2.0 / 3.0) * w * root
        t = 1.0 / xi
        y = _SERIES[:pairs].T @ _power_rows(t * t, pairs)
        s = y[::2] + t * y[1::2]                       # S_u, S_v
        s *= np.exp(-xi) / (2.0 * math.sqrt(math.pi))
        ai, aip = s[0] / quarter, s[1] * -quarter      # at w
        ai[:n][far] = _CONNECT[0] @ (ai[:n][far], ai[n:])
        aip[:n][far] = _CONNECT[1] @ (aip[:n][far], aip[n:])
    return ai[:n], aip[:n]


# per sign s = +1, -1 of Im zeta on the Airy route: the rotation
# e^{-2 pi i s/3} of the argument at the leftmost node, and i (1 + s) in
# Ci = M + i (1 + s) Ai
_SIGNED = np.array([[np.exp(-2j * np.pi / 3), 2j],
                    [np.exp(2j * np.pi / 3), 0.0]])
# the longest inward step from the Airy route's starting arguments to the
# outer nodes (the widest groups, 3.4 in zeta at f = 0.01 near z = 0, are
# too long a Taylor step about |zeta| = R for the tolerance), and its
# direction per end: Ai's starts right of the rightmost node, M's left of
# the leftmost
_APPROACH = 1.5
_OUTWARD = np.array([1.0, -1.0])


def _group_starts(n_pan: int, span: int) -> np.ndarray:
    """First panel of each group of ``span`` consecutive panels: where span
    does not divide n_pan the last group ends at the last panel and starts
    inside the group before."""
    return np.minimum(np.arange(0, n_pan, span), n_pan - span)


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
