"""Truncated complex-dilated Floquet operator for the AC-driven model.

The operator -i d/dt + H(t) acts on Fourier(t) x (Hermite(x) + C) with the
gauge-transformed generator p^2 + (f^2/2w^2) cos(2wt) + f^2/2w^2 in the
field sector.  Complex dilation by theta (Im theta > 0) rotates the
continuum strings and uncovers the resonance eigenvalues near the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from ._gauss import panel_nodes
from .formfactor import FormFactor, dilate, translate_modulate

__all__ = [
    "FloquetProblem",
    "FloquetEigenpair",
    "hermite_functions",
    "momentum_squared_matrix",
    "eigen_near",
]

# Krylov dimension of the shift-inverted Arnoldi candidate search
_KRYLOV_DIM = 36
# inverse-iteration steps allowed to bring a candidate below tol
_INVERSE_ITERATIONS = 8
# samples of the drive period per Fourier mode in the coupling blocks
_T_SAMPLES_PER_MODE = 8


def hermite_functions(n_max: int, x: np.ndarray, length_scale: float = 1.0
                      ) -> np.ndarray:
    """Orthonormal Hermite functions h_0..h_n at the points x (stable
    three-term recurrence), for the basis scale ell."""
    y = np.asarray(x, dtype=float) / length_scale
    H = np.zeros((n_max + 1, y.size))
    H[0] = np.pi ** -0.25 * np.exp(-0.5 * y * y)
    if n_max >= 1:
        H[1] = math.sqrt(2.0) * y * H[0]
    for j in range(1, n_max):
        H[j + 1] = (math.sqrt(2.0 / (j + 1)) * y * H[j]
                    - math.sqrt(j / (j + 1)) * H[j - 1])
    return H / math.sqrt(length_scale)


def momentum_squared_matrix(n_max: int, length_scale: float = 1.0
                            ) -> np.ndarray:
    """p^2 in the Hermite-function basis: diagonal (j + 1/2)/ell^2 and
    second off-diagonals -sqrt((j+1)(j+2))/(2 ell^2)."""
    j = np.arange(n_max + 1, dtype=float)
    M = np.diag((j + 0.5).astype(complex))
    i = np.arange(n_max - 1)
    M[i, i + 2] = M[i + 2, i] = -np.sqrt((i + 1) * (i + 2)) / 2.0
    return M / length_scale**2


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
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if self.f < 0:
            raise ValueError("f must be nonnegative")
        th = complex(self.theta)
        object.__setattr__(self, "theta", th)
        if th.imag <= 0:
            raise ValueError("resonance uncovering requires Im theta > 0")
        if self.n_fourier < 1 or self.n_hermite < 2:
            raise ValueError("cutoffs too small")
        if self.dimension > 40000:
            raise ValueError(f"matrix dimension {self.dimension} exceeds "
                             "the dense-LU guard")

    @property
    def dimension(self) -> int:
        return (2 * self.n_fourier + 1) * (self.n_hermite + 2)

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega

    def index_field(self, n: int, j: int) -> int:
        return (n + self.n_fourier) * (self.n_hermite + 1) + j

    def index_discrete(self, n: int) -> int:
        return (2 * self.n_fourier + 1) * (self.n_hermite + 1) + (
            n + self.n_fourier)

    # ------------------------------------------------------------------

    @cached_property
    def _x_grid(self):
        J = self.n_hermite
        ell = self.length_scale
        shrink = math.cos(2.0 * self.theta.imag)
        if shrink <= 0:
            raise ValueError("Im theta too large for the Gaussian family")
        L = max(math.sqrt(2.0 * J + 1.0) * ell,
                self.phi.width_extent() / math.sqrt(shrink)
                + 2.0 * self.f / self.omega**2) + 6.0
        n_pan = int(math.ceil(2.0 * L / 0.5))
        x, w, _ = panel_nodes(-L, L, n_pan, 16)
        return x, w

    def _coupling_modes(self, conjugate: bool) -> np.ndarray:
        """Fourier modes over the drive period of the Hermite overlaps of
        the dilated, gauge-boosted coupling, shape (M, J+1) with row d
        holding mode d mod M; at f = 0 only mode 0 is nonzero."""
        x, w = self._x_grid
        H = hermite_functions(self.n_hermite, x, self.length_scale)
        Hw = H * w[None, :]
        M = _T_SAMPLES_PER_MODE * self.n_fourier
        base = self.phi.conj_position() if conjugate else self.phi
        modes = np.zeros((M, self.n_hermite + 1), dtype=complex)
        if self.f == 0.0:
            modes[0] = Hw @ dilate(base, self.theta)(x)
            return modes
        sign = -1.0 if conjugate else 1.0
        for k in range(M):
            t = k * self.period / M
            a = 2.0 * self.f * math.sin(self.omega * t) / self.omega**2
            b = -self.f * math.cos(self.omega * t) / self.omega
            boosted = translate_modulate(base, a, sign * b, sign * a * b)
            modes[k] = Hw @ dilate(boosted, self.theta)(x)
        return np.fft.fft(modes, axis=0) / M

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense truncation of K(f, theta): the Kronecker-sum field sector
        I (x) e^{-2 theta} p^2 + T (x) I, bordered by coupling blocks that
        are Toeplitz in the Fourier index.  The row border holds the dilated
        conjugate coupling (analytic continuation, not the conjugate of the
        column).  At f = 0 the matrix is exactly block diagonal over the
        Fourier index."""
        N, J, w = self.n_fourier, self.n_hermite, self.omega
        nb, nh = 2 * N + 1, J + 1
        nf = nb * nh
        K = np.zeros((self.dimension,) * 2, dtype=complex)
        # reshapes that only split axes are views into K: the field sector
        # as (n, j, m, k), the column border as (n, j, m), the row border
        # as (n, m, j)
        field = K[:nf, :nf].reshape(nb, nh, nb, nh)
        col = K[:nf, nf:].reshape(nb, nh, nb)
        row = K[nf:, :nf].reshape(nb, nb, nh)
        n = np.arange(-N, N + 1)
        i = np.arange(nb)
        eye = np.eye(nh)
        p2 = np.exp(-2.0 * self.theta) * momentum_squared_matrix(
            J, self.length_scale)
        shift = self.f**2 / (2.0 * w**2)
        ridge = self.f**2 / (4.0 * w**2)
        field[i, :, i, :] = p2 + (n * w + shift)[:, None, None] * eye
        field[i[:-2], :, i[2:], :] += ridge * eye
        field[i[2:], :, i[:-2], :] += ridge * eye
        K[nf + i, nf + i] = 1.0 + n * w
        col_modes = self._coupling_modes(conjugate=False)
        d = (n[:, None] - n[None, :]) % col_modes.shape[0]
        col += col_modes[d].transpose(0, 2, 1)
        row += self._coupling_modes(conjugate=True)[d]
        return K


@dataclass(frozen=True)
class FloquetEigenpair:
    eigenvalue: complex
    residual: float
    dominant_fourier_index: int
    sensitivity: float


def _arnoldi_candidates(lu, target: complex, m: int) -> np.ndarray:
    """Ritz values of the shift-inverted operator from a fixed start."""
    dim = lu[0].shape[0]
    v0 = np.ones(dim, dtype=complex) + 1e-3 * np.arange(dim) / dim
    v0 /= np.linalg.norm(v0)
    V = np.zeros((dim, m + 1), dtype=complex)
    Hm = np.zeros((m + 1, m), dtype=complex)
    V[:, 0] = v0
    k_eff = m
    for k in range(m):
        wv = lu_solve(lu, V[:, k])
        for i in range(k + 1):
            Hm[i, k] = np.vdot(V[:, i], wv)
            wv -= Hm[i, k] * V[:, i]
        nrm = np.linalg.norm(wv)
        Hm[k + 1, k] = nrm
        if nrm < 1e-13:
            k_eff = k + 1
            break
        V[:, k + 1] = wv / nrm
    mus = np.linalg.eigvals(Hm[:k_eff, :k_eff])
    mus = mus[np.abs(mus) > 1e-13]
    return target + 1.0 / mus


def eigen_near(problem: FloquetProblem, target: complex, tol: float = 1e-10,
               radius: float = 0.1,
               with_sensitivity: bool = True) -> list[FloquetEigenpair]:
    """Eigenvalues of the truncated K(f, theta) within ``radius`` of target.

    Shift-inverted Arnoldi over a dense LU factorization locates the
    candidates (this doubles as deflation for clustered eigenvalues); each
    is polished by inverse iteration and certified by its residual, and a
    candidate that does not reach ``tol`` raises LinAlgError.  The
    sensitivity field is the eigenvalue movement when the truncation is
    enlarged to (N+4, J+16); discretized-continuum artifacts carry a large
    sensitivity while true resonances are stable.
    """
    K = problem.matrix
    lam_list = _solve_near(K, target, tol, radius)
    sens = {}
    if with_sensitivity and lam_list:
        bigger = replace(problem, n_fourier=problem.n_fourier + 4,
                         n_hermite=problem.n_hermite + 16)
        lam_big = _solve_near(bigger.matrix, target, tol, 1.5 * radius)
        sens = {lam: min((abs(lam - lb) for lb, _ in lam_big),
                         default=math.inf) for lam, _ in lam_list}
    out = []
    N, J = problem.n_fourier, problem.n_hermite
    for lam, vec in lam_list:
        res = float(np.linalg.norm(K @ vec - lam * vec) / np.linalg.norm(vec))
        field = vec[:(2 * N + 1) * (J + 1)].reshape(2 * N + 1, J + 1)
        disc = vec[(2 * N + 1) * (J + 1):]
        weight = np.sum(np.abs(field) ** 2, axis=1) + np.abs(disc) ** 2
        out.append(FloquetEigenpair(
            eigenvalue=lam,
            residual=res,
            dominant_fourier_index=int(np.argmax(weight)) - N,
            sensitivity=sens.get(lam, math.nan),
        ))
    out.sort(key=lambda p: abs(p.eigenvalue - target))
    return out


def _lu_shifted(K: np.ndarray, sigma: complex):
    """LU factors of K - sigma I, raising on an exact zero pivot (scipy
    only warns); they overwrite one Fortran-ordered copy of K."""
    A = K.copy(order="F")
    A.flat[::A.shape[0] + 1] -= sigma
    lu = lu_factor(A, overwrite_a=True)
    zero = np.flatnonzero(np.diagonal(lu[0]) == 0)
    if zero.size:
        raise np.linalg.LinAlgError(
            f"singular shifted matrix: exact zero pivot at row {zero[0]}")
    return lu


def _solve_near(K: np.ndarray, target: complex, tol: float, radius: float):
    target = complex(target)
    lu = _lu_shifted(K, target)
    cands = _arnoldi_candidates(lu, target, min(_KRYLOV_DIM, K.shape[0] - 2))
    cands = cands[np.abs(cands - target) <= radius]
    # deterministic ordering, dedup clustered Ritz values
    cands = sorted(cands, key=lambda z: (abs(z - target), z.real, z.imag))
    found: list[tuple[complex, np.ndarray]] = []
    for lam0 in cands:
        if any(abs(lam0 - lam) < 1e-8 for lam, _ in found):
            continue
        lam, vec = _inverse_iterate(K, lam0, tol)
        if abs(lam - target) > radius:
            continue
        if any(abs(lam - l2) < 1e-8 for l2, _ in found):
            continue
        found.append((lam, vec))
    found.sort(key=lambda t: (abs(t[0] - target), t[0].real, t[0].imag))
    return found


def _inverse_iterate(K: np.ndarray, lam0: complex, tol: float):
    """Polish a candidate to a residual below tol, or raise LinAlgError."""
    lam = complex(lam0)
    dim = K.shape[0]
    v = np.ones(dim, dtype=complex) / math.sqrt(dim)
    for _ in range(_INVERSE_ITERATIONS):
        lu = _lu_shifted(K, lam)
        for _ in range(2):
            v = lu_solve(lu, v)
            v /= np.linalg.norm(v)
        Kv = K @ v
        lam_new = complex(np.vdot(v, Kv))
        res = float(np.linalg.norm(Kv - lam_new * v))
        lam = lam_new
        if res < tol:
            return lam, v
    raise np.linalg.LinAlgError(
        f"inverse iteration from candidate {complex(lam0):.17g} ended at "
        f"residual {res:.3e} above tol {tol:.3e}")
