"""Truncated complex-dilated Floquet operator for the AC-driven model.

The operator -i d/dt + H(t) acts on Fourier(t) x (Hermite(x) + C) with the
gauge-transformed generator p^2 + (f^2/2w^2) cos(2wt) + f^2/2w^2 in the
field sector.  Complex dilation by theta (Im theta > 0) rotates the
continuum strings and uncovers the resonance eigenvalues near the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    for i in range(n_max - 1):
        v = -math.sqrt((i + 1) * (i + 2)) / 2.0
        M[i, i + 2] = v
        M[i + 2, i] = v
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
        dim = (2 * self.n_fourier + 1) * (self.n_hermite + 2)
        if dim > 40000:
            raise ValueError(f"matrix dimension {dim} exceeds the dense-LU guard")

    @property
    def dimension(self) -> int:
        return (2 * self.n_fourier + 1) * (self.n_hermite + 1) + (
            2 * self.n_fourier + 1)

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

    def _coupling_timeline(self, conjugate: bool) -> np.ndarray:
        """Hermite overlap vectors of the dilated, gauge-boosted coupling
        on the period t-grid; shape (M, J+1)."""
        x, w = self._x_grid
        H = hermite_functions(self.n_hermite, x, self.length_scale)
        Hw = H * w[None, :]
        M = _T_SAMPLES_PER_MODE * self.n_fourier
        base = self.phi.conj_position() if conjugate else self.phi
        if self.f == 0.0:
            g = dilate(base, self.theta)(x)
            return np.tile(Hw @ g, (M, 1))
        out = np.empty((M, self.n_hermite + 1), dtype=complex)
        for k in range(M):
            t = k * self.period / M
            a = 2.0 * self.f * math.sin(self.omega * t) / self.omega**2
            b = -self.f * math.cos(self.omega * t) / self.omega
            if conjugate:
                boosted = translate_modulate(base, a, -b, -a * b)
            else:
                boosted = translate_modulate(base, a, b, a * b)
            out[k] = Hw @ dilate(boosted, self.theta)(x)
        return out

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense truncation of K(f, theta); see the class docstring for the
        block layout.  At f = 0 the matrix is exactly block diagonal over
        the Fourier index."""
        N, J = self.n_fourier, self.n_hermite
        w = self.omega
        dim = self.dimension
        K = np.zeros((dim, dim), dtype=complex)
        p2 = np.exp(-2.0 * self.theta) * momentum_squared_matrix(
            J, self.length_scale)
        shift = self.f**2 / (2.0 * w**2)
        ridge = self.f**2 / (4.0 * w**2)
        for n in range(-N, N + 1):
            lo = self.index_field(n, 0)
            hi = lo + J + 1
            K[lo:hi, lo:hi] = p2
            K[lo:hi, lo:hi] += (n * w + shift) * np.eye(J + 1)
            for m in (n - 2, n + 2):
                if -N <= m <= N and ridge != 0.0:
                    lo2 = self.index_field(m, 0)
                    K[lo:hi, lo2:lo2 + J + 1] += ridge * np.eye(J + 1)
            K[self.index_discrete(n), self.index_discrete(n)] = 1.0 + n * w

        # coupling Fourier coefficients; the row sector uses the dilated
        # conjugate coupling (analytic continuation, not the conjugate of
        # the column entries)
        col_t = self._coupling_timeline(conjugate=False)
        row_t = self._coupling_timeline(conjugate=True)
        M = col_t.shape[0]
        if self.f == 0.0:
            col_c = np.zeros((M, J + 1), dtype=complex)
            row_c = np.zeros((M, J + 1), dtype=complex)
            col_c[0] = col_t[0]
            row_c[0] = row_t[0]
        else:
            col_c = np.fft.fft(col_t, axis=0) / M
            row_c = np.fft.fft(row_t, axis=0) / M
        for n in range(-N, N + 1):
            lo_n = self.index_field(n, 0)
            for m in range(-N, N + 1):
                d = (n - m) % M
                K[lo_n:lo_n + J + 1, self.index_discrete(m)] += col_c[d]
                lo_m = self.index_field(m, 0)
                K[self.index_discrete(n), lo_m:lo_m + J + 1] += row_c[d]
        return K


@dataclass(frozen=True)
class FloquetEigenpair:
    eigenvalue: complex
    residual: float
    dominant_fourier_index: int
    sensitivity: float


def _arnoldi_candidates(lu, dim: int, target: complex, m: int) -> np.ndarray:
    """Ritz values of the shift-inverted operator from a fixed start."""
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
    dim = K.shape[0]
    lam_list = _solve_near(K, dim, target, tol, radius)
    sens = {}
    if with_sensitivity and lam_list:
        bigger = FloquetProblem(
            problem.phi, problem.f, problem.omega, problem.theta,
            problem.n_fourier + 4, problem.n_hermite + 16,
            problem.length_scale)
        Kb = bigger.matrix
        lam_big = _solve_near(Kb, Kb.shape[0], target, tol, 1.5 * radius)
        for lam, _vec in lam_list:
            if lam_big:
                sens[lam] = min(abs(lam - lb) for lb, _ in lam_big)
            else:
                sens[lam] = math.inf
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


def _lu_nonsingular(A: np.ndarray):
    """lu_factor that raises on an exact zero pivot (scipy only warns)."""
    lu = lu_factor(A)
    zero = np.flatnonzero(np.diagonal(lu[0]) == 0)
    if zero.size:
        raise np.linalg.LinAlgError(
            f"singular shifted matrix: exact zero pivot at row {zero[0]}")
    return lu


def _solve_near(K: np.ndarray, dim: int, target: complex, tol: float,
                radius: float):
    target = complex(target)
    lu = _lu_nonsingular(K - target * np.eye(dim))
    cands = _arnoldi_candidates(lu, dim, target, min(_KRYLOV_DIM, dim - 2))
    cands = cands[np.abs(cands - target) <= radius]
    # deterministic ordering, dedup clustered Ritz values
    cands = sorted(cands, key=lambda z: (abs(z - target), z.real, z.imag))
    found: list[tuple[complex, np.ndarray]] = []
    for lam0 in cands:
        if any(abs(lam0 - lam) < 1e-8 for lam, _ in found):
            continue
        lam, vec = _inverse_iterate(K, dim, lam0, tol)
        if abs(lam - target) > radius:
            continue
        if any(abs(lam - l2) < 1e-8 for l2, _ in found):
            continue
        found.append((lam, vec))
    found.sort(key=lambda t: (abs(t[0] - target), t[0].real, t[0].imag))
    return found


def _inverse_iterate(K: np.ndarray, dim: int, lam0: complex, tol: float):
    """Polish a candidate to a residual below tol, or raise LinAlgError."""
    lam = complex(lam0)
    v = np.ones(dim, dtype=complex) / math.sqrt(dim)
    for _ in range(_INVERSE_ITERATIONS):
        lu = _lu_nonsingular(K - lam * np.eye(dim))
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
