"""Truncated complex-dilated Floquet operator for the AC-driven model.

The operator -i d/dt + H(t) acts on Fourier(t) x (Hermite(x) + C) with the
gauge-transformed generator p^2 + (f^2/2w^2) cos(2wt) + f^2/2w^2 in the
field sector.  Complex dilation by theta (Im theta > 0) rotates the
continuum strings and uncovers the resonance eigenvalues near the target.

The coupling borders are exact: each drive-period sample of the boosted,
dilated coupling is a finite Hermite-Gaussian sum, and its Hermite
overlaps follow from a three-term recurrence in closed form, so no
position grid is involved.  The boost and the dilation are closed-form
maps on each term's (c, d, w, b), applied to arrays over the drive
samples, so both borders (the coupling and its analytic conjugate) at
every sample take one overlap pass and one FFT.

Eigenvalues are found without forming the truncated operator K: its
field sector is a Kronecker sum of two real symmetric matrices, bordered
by the discrete sector's 2N+1 rows and columns.  The solver works on
U^T K U, U the real orthogonal change to the product of their
eigenbases, so a shifted solve is a diagonal scaling and one
(2N+1)-square Schur complement.  U is real, so the borders reach the
eigenbasis by real matrix products on the float view of their complex
entries.  The dense ``FloquetProblem.matrix`` is K in the original basis,
the oracle the tests compare against.  The Schur complement is inverted
by numpy's LAPACK gesv, so the module needs numpy alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from ._gauss import gaussian_poly_integral
from .formfactor import FormFactor

__all__ = [
    "FloquetProblem",
    "FloquetEigenpair",
    "momentum_squared_matrix",
    "eigen_near",
]

# Krylov dimension of the shift-inverted Arnoldi candidate search
_KRYLOV_DIM = 36
# inverse-iteration steps allowed to bring a candidate below tol
_INVERSE_ITERATIONS = 8
# samples of the drive period per Fourier mode in the coupling blocks
_T_SAMPLES_PER_MODE = 8


def momentum_squared_matrix(n_max: int, length_scale: float = 1.0
                            ) -> np.ndarray:
    """p^2 in the Hermite-function basis: diagonal (j + 1/2)/ell^2 and
    second off-diagonals -sqrt((j+1)(j+2))/(2 ell^2)."""
    j = np.arange(n_max + 1, dtype=float)
    M = np.diag((j + 0.5).astype(complex))
    i = np.arange(n_max - 1)
    M[i, i + 2] = M[i + 2, i] = -np.sqrt((i + 1) * (i + 2)) / 2.0
    return M / length_scale**2


def _hermite_overlaps(c, d, w, b, n_max: int, length_scale: float
                      ) -> np.ndarray:
    """Exact overlaps int h_j(x) g_t(x) dx, j = 0..n_max, with the
    Hermite functions of scale ell, of the terms g_t = c x^d exp(-w x^2/2
    + b x) given as arrays over t.  Shape (terms, n_max+1); a coupling's
    overlaps are the sum over its terms.

    A term becomes c ell^(d+1/2) y^d exp(-w ell^2 y^2/2 + b ell y) at unit
    scale.  There its Gaussian overlaps start from o_0 = pi^{-1/4}
    int exp(-(1+w) y^2/2 + b y) dy (``gaussian_poly_integral``) and
    o_1 = sqrt(2) b o_0/(1+w), and obey

        (1+w) sqrt((j+1)/2) o_{j+1} = b o_j + (1-w) sqrt(j/2) o_{j-1};

    the factor y^d is d applications of the tridiagonal position matrix
    (off-diagonal sqrt(k/2)) on levels 0..J+d, truncated to 0..J.  One
    pass covers every term."""
    d = np.asarray(d)
    w = np.asarray(w) * length_scale**2
    b = np.asarray(b) * length_scale
    c = np.asarray(c) * length_scale ** (d + 0.5)
    top = n_max + int(d.max())
    o = np.empty((top + 1, c.size), dtype=complex)
    o[0] = np.pi ** -0.25 * gaussian_poly_integral([1.0], (1.0 + w) / 2.0, b)
    o[1] = math.sqrt(2.0) * b * o[0] / (1.0 + w)
    for j in range(1, top):
        o[j + 1] = ((b * o[j] + (1.0 - w) * math.sqrt(j / 2.0) * o[j - 1])
                    / ((1.0 + w) * math.sqrt((j + 1) / 2.0)))
    off = np.sqrt(np.arange(1, top + 1) / 2.0)[:, None]
    for r in range(int(d.max())):
        raised = d > r
        v = o[:, raised]
        xv = np.zeros_like(v)
        xv[:-1] = off * v[1:]
        xv[1:] += off * v[:-1]
        o[:, raised] = xv
    return (c * o[:n_max + 1]).T


def _toeplitz(g: np.ndarray, n_blocks: int) -> np.ndarray:
    """The view T[..., n, m] = g[..., (n - m) mod M] over the blocks n, m
    < n_blocks of the modes g[..., 0..M-1]: a border's block (n, m) holds
    mode n - m."""
    ext = g[..., np.arange(1 - n_blocks, n_blocks) % g.shape[-1]]
    return np.lib.stride_tricks.sliding_window_view(
        ext, n_blocks, axis=-1)[..., ::-1]


def _real_matmul(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x over the first axis of the complex x, for a real a: one real
    GEMM on the float view of x, whose other axes ride along."""
    x = np.ascontiguousarray(x)
    y = a @ x.reshape(x.shape[0], -1).view(float)
    return y.view(complex).reshape(a.shape[0], *x.shape[1:])


@dataclass(frozen=True)
class FloquetProblem:
    """Truncation of K(f, theta) over Fourier modes -N..N and Hermite
    levels 0..J plus the discrete-state sector."""

    phi: FormFactor
    f: float
    omega: float = 1.0
    theta: complex = 0.3j
    n_fourier: int = 16
    n_hermite: int = 80
    length_scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.omega < math.inf:
            raise ValueError("omega must be positive and finite")
        if not 0.0 <= self.f < math.inf:
            raise ValueError("f must be finite and nonnegative")
        if not 0.0 < self.length_scale < math.inf:
            raise ValueError("length scale must be positive and finite")
        th = complex(self.theta)
        object.__setattr__(self, "theta", th)
        if not (th.imag > 0 and cmath.isfinite(th)):
            raise ValueError("resonance uncovering requires a finite theta "
                             "with Im theta > 0")
        if self.n_fourier < 1 or self.n_hermite < 2:
            raise ValueError("cutoffs too small")

    @property
    def dimension(self) -> int:
        return (2 * self.n_fourier + 1) * (self.n_hermite + 2)

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega

    # ------------------------------------------------------------------

    def _coupling_modes(self) -> np.ndarray:
        """Fourier modes over the drive period of the Hermite overlaps of
        the dilated, gauge-boosted coupling, shape (2, M, J+1): [0] for
        the column border (phi), [1] for the row (its conj_position), row
        d holding mode d mod M, M = _T_SAMPLES_PER_MODE N.

        At drive time t the column coupling is dilate(translate_modulate(
        phi, a, q, a q), theta) and the row the same with -q and -a q for
        phi's conj_position, a = 2 f sin(omega t)/omega^2 and q = -f
        cos(omega t)/omega.  Both maps act term by term in closed form:
        c x^d exp(-w x^2/2 + b x) boosts to the terms j = 0..d with
        coefficient c exp(-w a^2/2 + b a + i a q) C(d, j) a^(d-j) and
        drift b - w a + i q, and dilation takes (c, j, w, b) to
        (c e^{theta (j+1/2)}, j, w e^{2 theta}, b e^theta).  They are applied to term x sample
        arrays, and one ``_hermite_overlaps`` pass and one FFT cover both
        borders.  At f = 0 the one sample t = 0 gives mode 0, and every
        other mode is exactly zero."""
        M = _T_SAMPLES_PER_MODE * self.n_fourier
        modes = np.zeros((2, M, self.n_hermite + 1), dtype=complex)
        if not self.phi.terms:
            return modes
        if self.f == 0.0:
            a = q = np.zeros(1)
        else:
            wt = self.omega * (np.arange(M) * self.period / M)
            a = 2.0 * self.f * np.sin(wt) / self.omega**2
            q = -self.f * np.cos(wt) / self.omega
        # the column's terms, then the conjugate row's, each with the sign
        # of its boost
        c, d, w, b = (np.array(v) for v in zip(*self.phi.terms))
        c, w, b = (np.concatenate([v, v.conj()]) for v in (c, w, b))
        d = np.concatenate([d, d])
        sign = np.repeat([1.0, -1.0], d.size // 2)[:, None]
        scale = cmath.exp(self.theta)
        w_dilated = w * scale * scale
        if np.any(w_dilated.real <= 0.0):
            bad = w[w_dilated.real <= 0.0][0]
            raise ValueError(f"dilation by theta={self.theta} rotates width "
                             f"{bad} out of the right half-plane")
        # boost of every term at every sample, shape (terms, samples)
        pref = c[:, None] * np.exp(-0.5 * w[:, None] * a * a + b[:, None] * a
                                   + 1j * sign * a * q)
        drift = (b[:, None] - w[:, None] * a + 1j * sign * q) * scale
        # x^d splits into the degrees j = 0..d of each term t
        t = np.repeat(np.arange(d.size), d + 1)
        j = np.concatenate([np.arange(dt + 1) for dt in d])
        binom = np.array([math.comb(dt, jt) for dt, jt in zip(d[t], j)])
        coef = (pref[t] * (binom * np.exp(self.theta * (j + 0.5)))[:, None]
                * a ** (d[t] - j)[:, None])
        # both borders expand to the same number of terms, so the per-term
        # overlaps reshape to (border, term, sample, level) and each
        # border's terms sum along their axis
        shape = coef.shape
        overlaps = _hermite_overlaps(
            coef.ravel(), np.broadcast_to(j[:, None], shape).ravel(),
            np.broadcast_to(w_dilated[t, None], shape).ravel(),
            drift[t].ravel(), self.n_hermite, self.length_scale
        ).reshape(2, -1, a.size, self.n_hermite + 1).sum(axis=1)
        if self.f == 0.0:
            modes[:, 0] = overlaps[:, 0]
            return modes
        return np.fft.fft(overlaps, axis=1) / M

    def _factors(self):
        """The real symmetric Fourier matrix T (n w + f^2/2w^2 on its
        diagonal, f^2/4w^2 two modes off it), p^2 in the Hermite basis,
        the discrete diagonal 1 + n w, and the coupling modes of
        ``_coupling_modes``.  Block (n, m) of either border holds mode
        n - m; the row holds the dilated conjugate coupling (analytic
        continuation, not the conjugate of the column)."""
        N, J, w = self.n_fourier, self.n_hermite, self.omega
        n = np.arange(-N, N + 1)
        ridge = np.full(2 * N - 1, self.f**2 / (4.0 * w**2))
        T = (np.diag(n * w + self.f**2 / (2.0 * w**2))
             + np.diag(ridge, 2) + np.diag(ridge, -2))
        P = momentum_squared_matrix(J, self.length_scale).real
        return T, P, 1.0 + n * w, self._coupling_modes()

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense truncation of K(f, theta) in the Fourier (x) Hermite basis,
        the oracle for ``eigen_near``, which solves with U^T K U: the
        Kronecker-sum field sector T (x) I + I (x) e^{-2 theta} p^2,
        bordered by coupling blocks that are Toeplitz in the Fourier
        index.  At f = 0 it is exactly block diagonal over that index."""
        T, P, D, modes = self._factors()
        nb, nh = T.shape[0], P.shape[0]
        nf = nb * nh
        K = np.zeros((self.dimension,) * 2, dtype=complex)
        # reshapes that only split axes are views into K: the field sector
        # as (n, j, m, k), the column border as (n, j, m), the row border
        # as (n, m, j)
        field = K[:nf, :nf].reshape(nb, nh, nb, nh)
        i = np.arange(nb)
        field[i, :, i, :] = np.exp(-2.0 * self.theta) * P
        a, b = np.nonzero(T)
        field[a, :, b, :] += T[a, b][:, None, None] * np.eye(nh)
        K[nf + i, nf + i] = D
        col, row = _toeplitz(modes.transpose(0, 2, 1), nb)
        K[:nf, nf:].reshape(nb, nh, nb)[...] = col.transpose(1, 0, 2)
        K[nf:, :nf].reshape(nb, nb, nh)[...] = row.transpose(1, 2, 0)
        return K

    @cached_property
    def _operator(self) -> "_BorderedKroneckerSum":
        return _BorderedKroneckerSum(self)


@dataclass(frozen=True)
class FloquetEigenpair:
    eigenvalue: complex
    residual: float
    sensitivity: float


class _BorderedKroneckerSum:
    """K~ = U^T K U with the real orthogonal U = (Q (x) W) (+) I, where
    T = Q diag(tau) Q^T and p^2 = W diag(mu) W^T.

    The field sector of K~ is diag(Lambda), Lambda[i, k] = tau_i +
    e^{-2 theta} mu_k, bordered by B~ = (Q (x) W)^T B, C~ = C (Q (x) W)
    and the discrete diagonal D.  U is real orthogonal, so K~ has the
    eigenvalues, Rayleigh quotients and residual norms of K, and no vector
    is mapped back.  A shift costs one (2N+1)-square Schur complement; K
    itself is never formed."""

    def __init__(self, problem: FloquetProblem):
        T, P, self.D, modes = problem._factors()
        nb, nh = T.shape[0], P.shape[0]
        self.nf = nb * nh
        self.dim = self.nf + nb
        tau, Q = np.linalg.eigh(T)
        mu, W = np.linalg.eigh(P)
        self.lam = (tau[:, None]
                    + np.exp(-2.0 * problem.theta) * mu[None, :]).ravel()
        # the Hermite index of both borders' modes goes to W's eigenbasis
        # first, as (k, border, mode); the Toeplitz blocks are then viewed
        # and their Fourier index goes to Q's: real GEMMs throughout
        col, row = _toeplitz(_real_matmul(W.T, modes.transpose(2, 0, 1)),
                             nb).transpose(1, 0, 2, 3)
        # B~[(i, k), m] from the column blocks as (n, k, m)
        self.Bt = _real_matmul(Q.T, col.transpose(1, 0, 2)
                               ).reshape(self.nf, nb)
        # C~[n, (i, k)] from the row blocks as (m, n, k), m the field index
        self.Ct = _real_matmul(Q.T, row.transpose(2, 1, 0)
                               ).transpose(1, 0, 2).reshape(nb, self.nf)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """K~ v = (Lambda x + B~ y, C~ x + D y)."""
        x, y = v[:self.nf], v[self.nf:]
        return np.concatenate([self.lam * x + self.Bt @ y,
                               self.Ct @ x + self.D * y])


def lu_factor(a: np.ndarray) -> np.ndarray:
    """The inverse of the Schur complement a, by numpy's LAPACK gesv
    (getrf, then getrs on the identity); LinAlgError if getrf meets an
    exact zero pivot.  This and :func:`lu_solve` keep their names because
    ``bench/spans.py`` wraps them, one span per factorization and one per
    solve; callers reach both through the module globals."""
    return np.linalg.inv(a)


def lu_solve(inverse: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^{-1} b from the inverse :func:`lu_factor` returns: one matvec."""
    return inverse @ b


def _zero_pivot_lu(a: np.ndarray) -> tuple[int, np.ndarray]:
    """The first exact zero pivot k of the partial-pivot LU of a, and the
    partly eliminated matrix whose rows 0..k-1 are U's, zero below their
    diagonal.  Each column pivots on its entry of largest |Re| + |Im|, as
    LAPACK getrf does; LinAlgError if no pivot is exactly zero."""
    u = np.array(a, dtype=complex)
    for k in range(u.shape[0]):
        col = u[k:, k]
        p = k + int(np.argmax(np.abs(col.real) + np.abs(col.imag)))
        if u[p, k] == 0:
            return k, u
        u[[k, p]] = u[[p, k]]
        u[k + 1:, k + 1:] -= np.outer(u[k + 1:, k] / u[k, k], u[k, k + 1:])
        u[k + 1:, k] = 0
    raise np.linalg.LinAlgError(
        "gesv found the Schur complement singular, but its partial-pivot "
        "LU has no exact zero pivot")


class _ShiftedSolve:
    """K~ - sigma factored through the Schur complement of its field sector,
    built once per shift as ``_ShiftedSolve(op, sigma)``.

    S(sigma) = D - sigma - C~ diag(1/(Lambda - sigma)) B~.  Field modes with
    Lambda == sigma exactly are moved into the bordered block, so nothing
    is divided by zero.  S is inverted once by :func:`lu_factor`.  An
    exact zero pivot of S means sigma is an eigenvalue of the truncation:
    ``solve`` then raises LinAlgError, and ``null_vector`` gives its
    eigenvector from the zero pivot's row of ``_zero_pivot_lu``."""

    def __init__(self, op: _BorderedKroneckerSum, sigma: complex):
        self.op = op
        gap = op.lam - sigma
        self.moved = np.flatnonzero(gap == 0)
        self.inv = np.zeros_like(gap)
        kept = gap != 0
        self.inv[kept] = 1.0 / gap[kept]
        nz = self.moved.size
        S = np.zeros((nz + op.D.size,) * 2, dtype=complex)
        S[:nz, nz:] = op.Bt[self.moved]
        S[nz:, :nz] = op.Ct[:, self.moved]
        S[nz:, nz:] = (np.diag(op.D - sigma)
                       - op.Ct @ (self.inv[:, None] * op.Bt))
        try:
            self.S_inv = lu_factor(S)
            self.zero_pivot = None
        except np.linalg.LinAlgError:
            self.zero_pivot, self.upper = _zero_pivot_lu(S)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """(K~ - sigma)^{-1} b, raising on an exact zero pivot."""
        if self.zero_pivot is not None:
            raise np.linalg.LinAlgError(
                "singular shifted matrix: exact zero pivot at row "
                f"{self.zero_pivot} of the Schur complement")
        op = self.op
        bx = b[:op.nf]
        rhs = np.concatenate([bx[self.moved],
                              b[op.nf:] - op.Ct @ (self.inv * bx)])
        return self._field_back(bx, lu_solve(self.S_inv, rhs))

    def null_vector(self) -> np.ndarray:
        """A null vector of K~ - sigma from the first zero pivot k of S: the
        bordered unknowns u = (moved field modes, y) solve U u = 0 with
        u_k = 1, and the other field modes are x = -(Lambda - sigma)^{-1}
        B~ y."""
        k = self.zero_pivot
        U = self.upper
        u = np.zeros(U.shape[0], dtype=complex)
        u[k] = 1.0
        u[:k] = np.linalg.solve(U[:k, :k], -U[:k, k])
        return self._field_back(np.zeros(self.op.nf, dtype=complex), u)

    def _field_back(self, bx: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Full vector from the field right-hand side bx and the bordered
        unknowns u = (moved field modes, discrete part)."""
        y = u[self.moved.size:]
        x = self.inv * (bx - self.op.Bt @ y)
        x[self.moved] = u[:self.moved.size]
        return np.concatenate([x, y])


def _arnoldi_candidates(shifted: _ShiftedSolve, target: complex, m: int
                        ) -> np.ndarray:
    """Ritz values of the shift-inverted operator from a fixed start.

    The basis is kept as rows, next to their conjugates, and each new
    vector is orthogonalised against it by two block Gram-Schmidt passes
    (CGS2): two matrix-vector products per pass instead of one dot
    product and update per basis vector."""
    dim = shifted.op.dim
    v0 = np.ones(dim, dtype=complex) + 1e-3 * np.arange(dim) / dim
    v0 /= np.linalg.norm(v0)
    V = np.zeros((m + 1, dim), dtype=complex)
    Vc = np.zeros_like(V)
    Hm = np.zeros((m + 1, m), dtype=complex)
    V[0] = v0
    Vc[0] = v0.conj()
    k_eff = m
    for k in range(m):
        wv = shifted.solve(V[k])
        for _ in range(2):
            h = Vc[:k + 1] @ wv
            wv -= h @ V[:k + 1]
            Hm[:k + 1, k] += h
        nrm = np.linalg.norm(wv)
        Hm[k + 1, k] = nrm
        if nrm < 1e-13:
            k_eff = k + 1
            break
        V[k + 1] = wv / nrm
        Vc[k + 1] = V[k + 1].conj()
    mus = np.linalg.eigvals(Hm[:k_eff, :k_eff])
    mus = mus[np.abs(mus) > 1e-13]
    return target + 1.0 / mus


def eigen_near(problem: FloquetProblem, target: complex, tol: float = 1e-10,
               radius: float = 0.1) -> list[FloquetEigenpair]:
    """Eigenvalues of the truncated K(f, theta) within ``radius`` of target,
    nearest first, each with its residual and truncation sensitivity.

    Shift-inverted Arnoldi locates the candidates (this doubles as
    deflation for clustered eigenvalues); each is polished by inverse
    iteration and certified by its residual, and a candidate that does not
    reach ``tol`` raises LinAlgError.  A candidate that polishes outside
    the disk, or onto an eigenvalue already found, is dropped.  Every
    shifted solve goes through the eigenbases of the Kronecker-sum field
    sector and a (2N+1)-square Schur complement of the coupling border;
    the dense ``problem.matrix`` is never formed, and an exact zero pivot
    at the Arnoldi shift raises LinAlgError.  The sensitivity of an
    eigenvalue lambda is |lambda - mu|, mu being where inverse iteration
    from lambda converges on the (N+4, J+16) truncation (a follow that
    misses ``tol`` raises LinAlgError); discretized-continuum artifacts
    carry a large sensitivity while true resonances are stable.
    """
    op = problem._operator
    target = complex(target)
    cands = _arnoldi_candidates(_ShiftedSolve(op, target), target,
                                min(_KRYLOV_DIM, op.dim - 2))
    cands = cands[np.abs(cands - target) <= radius]
    cands = sorted(cands, key=lambda z: (abs(z - target), z.real, z.imag))
    found: list[tuple[complex, float]] = []
    for lam0 in cands:
        lam, _, res = _inverse_iterate(op, lam0, tol)
        if abs(lam - target) > radius:
            continue
        # clustered Ritz values polish to the same eigenvalue
        if any(abs(lam - l2) < 1e-8 for l2, _ in found):
            continue
        found.append((lam, res))
    if not found:
        return []
    found.sort(key=lambda t: (abs(t[0] - target), t[0].real, t[0].imag))
    bigger = replace(problem, n_fourier=problem.n_fourier + 4,
                     n_hermite=problem.n_hermite + 16)._operator
    return [FloquetEigenpair(
        lam, res, abs(lam - _inverse_iterate(bigger, lam, tol)[0]))
        for lam, res in found]


def _inverse_iterate(op: _BorderedKroneckerSum, lam0: complex, tol: float):
    """(lambda, unit v, |K~ v - lambda v|) polished from a candidate to a
    residual below tol, or LinAlgError.  An exactly singular S makes the
    shift an eigenvalue of the truncation; its null vector is the iterate."""
    lam = complex(lam0)
    v = np.ones(op.dim, dtype=complex) / math.sqrt(op.dim)
    for _ in range(_INVERSE_ITERATIONS):
        shifted = _ShiftedSolve(op, lam)
        if shifted.zero_pivot is None:
            for _ in range(2):
                v = shifted.solve(v)
                v /= np.linalg.norm(v)
        else:
            v = shifted.null_vector()
            v /= np.linalg.norm(v)
        Kv = op.matvec(v)
        lam_new = complex(np.vdot(v, Kv))
        res = float(np.linalg.norm(Kv - lam_new * v))
        lam = lam_new
        if res < tol:
            return lam, v, res
    raise np.linalg.LinAlgError(
        f"inverse iteration from candidate {complex(lam0):.17g} ended at "
        f"residual {res:.3e} above tol {tol:.3e}")
