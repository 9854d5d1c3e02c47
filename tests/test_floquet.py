import math

import numpy as np
import pytest

from conftest import R0, TWO_TERMS, dilate, translate_modulate
from starkres import (
    FloquetProblem,
    FormFactor,
    eigen_near,
    momentum_squared_matrix,
)
from starkres import floquet
from starkres._gauss import panel_nodes
from starkres.floquet import _inverse_iterate, _ShiftedSolve


def hermite_functions(n_max, x, length_scale=1.0):
    """Orthonormal Hermite functions h_0..h_n at the points x (stable
    three-term recurrence), for the basis scale ell: the grid reference
    for the closed-form overlaps and for p^2."""
    y = np.asarray(x, dtype=float) / length_scale
    H = np.zeros((n_max + 1, y.size))
    H[0] = np.pi ** -0.25 * np.exp(-0.5 * y * y)
    if n_max >= 1:
        H[1] = math.sqrt(2.0) * y * H[0]
    for j in range(1, n_max):
        H[j + 1] = (math.sqrt(2.0 / (j + 1)) * y * H[j]
                    - math.sqrt(j / (j + 1)) * H[j - 1])
    return H / math.sqrt(length_scale)


def sectors(prob):
    """Views of prob.matrix by the reshapes it is assembled with: the
    field sector as (n, j, m, k), the column border as (n, j, m), the row
    border as (n, m, j) and the discrete diagonal, Fourier indices
    counted from -N."""
    K = prob.matrix
    nb, nh = 2 * prob.n_fourier + 1, prob.n_hermite + 1
    nf = nb * nh
    return (K[:nf, :nf].reshape(nb, nh, nb, nh),
            K[:nf, nf:].reshape(nb, nh, nb),
            K[nf:, :nf].reshape(nb, nb, nh),
            np.diagonal(K[nf:, nf:]))


def eigenbasis_matrix(prob):
    """U^T K U with K = prob.matrix and U = (Q (x) W) (+) I, Q and W the
    eigenvectors of the factors T and p^2: the operator the structured
    solver works on, which has the spectrum of K."""
    T, P = prob._factors()[:2]
    nf = T.shape[0] * P.shape[0]
    U = np.eye(prob.dimension)
    U[:nf, :nf] = np.kron(np.linalg.eigh(T)[1], np.linalg.eigh(P)[1])
    return U.T @ prob.matrix @ U


@pytest.fixture(scope="module")
def small_problem(coupling):
    return FloquetProblem(coupling, 0.0, 1.0, 0.3j, n_fourier=3,
                          n_hermite=40)


def test_validation(coupling):
    with pytest.raises(ValueError):
        FloquetProblem(coupling, 0.0, theta=0.0j)       # needs Im theta > 0
    with pytest.raises(ValueError):
        FloquetProblem(coupling, -0.1)
    with pytest.raises(ValueError):
        FloquetProblem(coupling, 0.0, omega=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            FloquetProblem(coupling, bad)
        with pytest.raises(ValueError):
            FloquetProblem(coupling, 0.0, omega=bad)
        with pytest.raises(ValueError):
            FloquetProblem(coupling, 0.0, theta=complex(bad, 0.3))
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="length scale"):
            FloquetProblem(coupling, 0.0, length_scale=bad)
    # no dense-dimension guard: eigen_near never forms the dense matrix
    big = FloquetProblem(coupling, 0.0, n_fourier=100, n_hermite=500)
    assert big.dimension == 201 * 502
    assert "matrix" not in big.__dict__


def test_dimension(small_problem):
    N, J = 3, 40
    assert small_problem.dimension == (2 * N + 1) * (J + 1) + (2 * N + 1)
    assert small_problem.matrix.shape == (small_problem.dimension,) * 2


def test_hermite_functions_orthonormal():
    x = np.linspace(-20, 20, 4001)
    H = hermite_functions(12, x, 1.3)
    G = (H * np.gradient(x)[None, :]) @ H.T
    assert np.allclose(G, np.eye(13), atol=1e-6)


def test_p2_matrix_against_quadrature():
    # entries (h_i, p^2 h_j) from high-order finite differences of the
    # Hermite functions on a fine grid
    ell = 1.1
    x = np.linspace(-15, 15, 12001)
    dx = x[1] - x[0]
    H = hermite_functions(10, x, ell)
    M = momentum_squared_matrix(10, ell)
    for j in range(9):
        d2 = np.gradient(np.gradient(H[j], dx), dx)
        for i in range(9):
            num = -np.trapezoid(H[i] * d2, dx=dx)
            assert abs(num - M[i, j]) < 1e-4 * max(1.0, abs(M[i, j]))
    j = np.arange(11)
    assert np.allclose(np.diag(M), (j + 0.5) / ell**2)
    assert M[0, 2] == pytest.approx(-math.sqrt(2.0) / (2 * ell**2))


def test_f_zero_block_diagonal_exact(coupling):
    prob = FloquetProblem(coupling, 0.0, 1.0, 0.3j, n_fourier=2,
                          n_hermite=12)
    field, col, row, _ = sectors(prob)
    for n in range(5):
        for m in range(5):
            if n == m:
                continue
            assert np.all(field[n, :, m, :] == 0)
            assert np.all(col[n, :, m] == 0)
            assert np.all(row[n, m, :] == 0)


def test_field_sector_blocks_with_field(coupling):
    # the field sector is I (x) e^{-2 theta} p^2 + T (x) I: T has
    # n w + f^2/2w^2 on its diagonal and f^2/4w^2 two modes off it
    f, om, th, N, J = 0.2, 1.3, 0.25j, 3, 8
    prob = FloquetProblem(coupling, f, om, th, n_fourier=N, n_hermite=J)
    field = sectors(prob)[0]
    p2 = np.exp(-2.0 * th) * momentum_squared_matrix(J)
    eye = np.eye(J + 1)
    for n in range(-N, N + 1):
        for m in range(-N, N + 1):
            block = field[n + N, :, m + N, :]
            if n == m:
                want = p2 + (n * om + f**2 / (2.0 * om**2)) * eye
                assert np.allclose(block, want, rtol=0.0, atol=1e-14)
            elif abs(n - m) == 2:
                assert np.array_equal(block, f**2 / (4.0 * om**2) * eye)
            else:
                assert np.all(block == 0)


def test_discrete_sector_diagonal(small_problem):
    disc = sectors(small_problem)[3]
    for n in range(-3, 4):
        assert disc[n + 3] == 1.0 + n * small_problem.omega


def test_row_is_not_conjugate_of_column(coupling):
    # with complex theta the row sector holds analytic continuations
    prob = FloquetProblem(coupling, 0.0, 1.0, 0.3j, n_fourier=1,
                          n_hermite=16)
    _, col, row, _ = sectors(prob)
    col, row = col[1, :, 1], row[1, 1, :]
    assert not np.allclose(row, np.conj(col), atol=1e-10)
    # for this real even coupling the row equals the column (complex
    # symmetric operator), not its conjugate
    assert np.allclose(row, col, atol=1e-13)


def test_eigen_near_reference(small_problem):
    pairs = eigen_near(small_problem, R0, tol=1e-10, radius=0.05)
    assert pairs
    best = pairs[0]
    assert abs(best.eigenvalue - R0) < 5e-4
    assert best.residual < 1e-10
    assert best.eigenvalue.imag < 0
    assert best.sensitivity < 1e-3


def test_unconverged_refinement_raises(small_problem):
    # a candidate in the disk that inverse iteration cannot bring below
    # tol is a failure, not a silently dropped eigenvalue
    with pytest.raises(np.linalg.LinAlgError, match="inverse iteration"):
        eigen_near(small_problem, R0, tol=1e-300, radius=0.05)


@pytest.mark.parametrize("target, radius", [
    (R0, 0.0), (R0, -0.05), (R0, math.nan), (R0, math.inf),
    (complex(math.nan, 0.0), 0.05), (complex(1.0, math.inf), 0.05),
], ids=["zero", "negative", "nan", "inf", "nan-target", "inf-target"])
def test_eigen_near_rejects_its_disk(small_problem, target, radius):
    # an empty, undefined or unbounded disk, or a target off the finite
    # plane, is an error, not an empty result or every eigenvalue
    with pytest.raises(ValueError, match="radius"):
        eigen_near(small_problem, target, tol=1e-10, radius=radius)


def test_block_shift_exact_at_f_zero(small_problem):
    base = eigen_near(small_problem, R0, tol=1e-10,
                      radius=0.05)[0].eigenvalue
    for n in (-1, 1, 2):
        shifted = eigen_near(small_problem, R0 + n * 1.0, tol=1e-10,
                             radius=0.05)
        assert shifted
        assert abs(shifted[0].eigenvalue - (base + n)) < 1e-10


def test_spectrum_shift_symmetry_with_field(coupling):
    prob = FloquetProblem(coupling, 0.05, 1.0, 0.3j, n_fourier=6,
                          n_hermite=40)
    lam0 = eigen_near(prob, R0, tol=1e-10, radius=0.05)[0]
    lam1 = eigen_near(prob, R0 + 1.0, tol=1e-10, radius=0.05)[0]
    mismatch = abs(lam1.eigenvalue - (lam0.eigenvalue + 1.0))
    sens = lam0.sensitivity
    assert mismatch < 10.0 * max(sens, 1e-9)


def test_eigenvalue_trajectory_toward_field_free(coupling):
    lam = {}
    for f in (0.1, 0.05, 0.02, 0.0):
        prob = FloquetProblem(coupling, f, 1.0, 0.3j, n_fourier=4,
                              n_hermite=40)
        lam[f] = eigen_near(prob, R0, tol=1e-10,
                            radius=0.05)[0].eigenvalue
    d = {f: abs(lam[f] - lam[0.0]) for f in (0.1, 0.05, 0.02)}
    assert d[0.1] > d[0.05] > d[0.02]


def test_theta_independence(coupling):
    lams = []
    sens = []
    for th in (0.25j, 0.35j):
        prob = FloquetProblem(coupling, 0.0, 1.0, th, n_fourier=2,
                              n_hermite=60)
        p = eigen_near(prob, R0, tol=1e-10, radius=0.04)[0]
        lams.append(p.eigenvalue)
        sens.append(p.sensitivity)
    assert abs(lams[0] - lams[1]) < 10.0 * (sens[0] + sens[1]) + 1e-8


def test_t_sampling_doubling(coupling, monkeypatch):
    a = FloquetProblem(coupling, 0.1, 1.0, 0.3j, n_fourier=3, n_hermite=24)
    Ka = a.matrix
    monkeypatch.setattr(floquet, "_T_SAMPLES_PER_MODE", 16)
    b = FloquetProblem(coupling, 0.1, 1.0, 0.3j, n_fourier=3, n_hermite=24)
    assert np.max(np.abs(Ka - b.matrix)) < 1e-12


def boosted(prob, t, conj):
    """The gauge-boosted, dilated coupling at drive time t, by exact
    FormFactor algebra: the row border's (conj) or the column's."""
    om = prob.omega
    a = 2 * prob.f * math.sin(om * t) / om**2
    b = -prob.f * math.cos(om * t) / om
    base = prob.phi.conj_position() if conj else prob.phi
    sign = -1.0 if conj else 1.0
    return dilate(translate_modulate(base, a, sign * b, sign * a * b),
                  prob.theta)


def boosted_on_grid(prob, t, conj, x):
    """The gauge-boosted, dilated coupling at drive time t on the grid x."""
    return boosted(prob, t, conj)(x)


def reference_modes(prob):
    """``_coupling_modes`` built one FormFactor per drive sample: the
    boosted, dilated coupling and its conjugate at each of the M samples
    (the one sample t = 0 at f = 0), their Hermite overlaps, and the FFT
    over the samples."""
    M = floquet._T_SAMPLES_PER_MODE * prob.n_fourier
    times = [k * prob.period / M for k in range(M if prob.f else 1)]
    modes = np.zeros((2, M, prob.n_hermite + 1), dtype=complex)
    for border, conj in enumerate((False, True)):
        overlaps = np.array([floquet._hermite_overlaps(
            *(np.array(v) for v in zip(*boosted(prob, t, conj).terms)),
            prob.n_hermite, prob.length_scale).sum(axis=0) for t in times])
        if prob.f:
            modes[border] = np.fft.fft(overlaps, axis=0) / M
        else:
            modes[border, 0] = overlaps[0]
    return modes


@pytest.mark.parametrize("f", [0.0, 0.1])
@pytest.mark.parametrize("phi, ell",
                         [(FormFactor.gaussian(0.1, 1.0), 1.0),
                          (TWO_TERMS, 1.3),
                          (FormFactor.monomial_gaussian(0.05, 3, 0.8 + 0.1j),
                           1.0)],
                         ids=["gaussian", "two-terms", "cubic"])
def test_coupling_modes_match_per_sample_form_factors(phi, ell, f):
    # the term-array boost and dilation against the same maps applied one
    # FormFactor at a time, on both borders; the boost splits a degree-d
    # term into degrees 0..d, with binomial weights that only d >= 2 shows
    prob = FloquetProblem(phi, f, 1.3, 0.25j, n_fourier=3, n_hermite=24,
                          length_scale=ell)
    got, want = prob._coupling_modes(), reference_modes(prob)
    for border in range(2):
        scale = np.max(np.abs(want[border]))
        assert scale > 0
        assert np.max(np.abs(got[border] - want[border])) <= 1e-14 * scale
    if f == 0.0:
        assert np.all(got[:, 1:] == 0)


@pytest.mark.parametrize("f", [0.0, 0.1])
@pytest.mark.parametrize("phi", [FormFactor.gaussian(0.1, 1.0), TWO_TERMS],
                         ids=["gaussian", "two-terms"])
def test_dilation_out_of_the_right_half_plane_raises(phi, f):
    # e^{2 theta} = e^{1.6i} turns a real width 1 (and TWO_TERMS' widths)
    # to negative real part: neither the operator nor the dense matrix
    # is built
    prob = FloquetProblem(phi, f, theta=0.8j, n_fourier=2, n_hermite=10)
    for build in (lambda: prob._operator, lambda: prob.matrix):
        with pytest.raises(ValueError, match="right half-plane"):
            build()


# eigen_near(FloquetProblem(coupling, f, 1, 0.3i, N, J), R0, 1e-10,
# 0.05)[0] as (eigenvalue, sensitivity), per truncation (N, J): the
# ac_track one (8, 40), recorded with the per-sample FormFactor build of the
# coupling borders, complex broadcast matmuls into the eigenbasis and
# modified Gram-Schmidt Arnoldi, and the README one (16, 80), recorded with
# folded candidates and the (2N+1)-square Schur complement per shift
AC_TRACK_PAIRS = {
    (8, 40): {
        0.1: (1.0191539839610972 - 0.011052115450366412j,
              0.0001443592334878059),
        0.05: (1.0191443713717316 - 0.011056566395305778j,
               0.00014317361479952075),
        0.02: (1.0191419230872538 - 0.011057795937377157j,
               0.0001427690813013884),
        0.0: (1.0191414691504492 - 0.011058028884070401j,
              0.00014268797478538328),
    },
    (16, 80): {
        0.1: (1.0190637384064285 - 0.0110885329032831j,
              1.7442046380247143e-05),
        0.05: (1.0190586291834594 - 0.011097132626104511j,
               1.7065287299655745e-05),
        0.02: (1.0190577146201552 - 0.011099435139080127j,
               1.6871337485269648e-05),
        0.0: (1.0190575676745937 - 0.011099866170098893j,
              1.6828676351741983e-05),
    },
}


# the ac_track truncation's cases are named by f alone
@pytest.mark.parametrize("n_fourier, n_hermite, f", [
    pytest.param(n, J, f, id=str(f) if (n, J) == (8, 40) else f"{n}-{J}-{f}")
    for (n, J), pairs in AC_TRACK_PAIRS.items()
    for f in sorted(pairs, reverse=True)])
def test_ac_track_eigenpairs_are_pinned(coupling, n_fourier, n_hermite, f):
    # a wrong border moves lambda far more than 1e-12 long before the
    # bench's |lambda(0) - r0| < 1e-3 notices.  The sensitivity is a
    # difference of two eigenvalues and carries their absolute rounding,
    # so both are held to 1e-12 relative to the eigenvalue
    lam, sens = AC_TRACK_PAIRS[n_fourier, n_hermite][f]
    prob = FloquetProblem(coupling, f, 1.0, 0.3j, n_fourier=n_fourier,
                          n_hermite=n_hermite)
    best = eigen_near(prob, R0, tol=1e-10, radius=0.05)[0]
    assert abs(best.eigenvalue - lam) <= 1e-12 * abs(lam)
    assert abs(best.sensitivity - sens) <= 1e-12 * abs(lam)


@pytest.mark.parametrize("phi, ell",
                         [(FormFactor.gaussian(0.1, 1.0), 1.0),
                          (TWO_TERMS, 1.3)], ids=["gaussian", "two-terms"])
def test_coupling_blocks_match_direct_fourier_integrals(phi, ell):
    # entries K[field(n,j), disc(m)] and K[disc(n), field(m,j)] must equal
    # the period-averaged Fourier integrals of the boosted, dilated
    # coupling overlaps
    from scipy.integrate import quad

    prob = FloquetProblem(phi, 0.2, 1.3, 0.25j, n_fourier=2,
                          n_hermite=8, length_scale=ell)
    _, col, row, _ = sectors(prob)
    om, tau = prob.omega, prob.period
    x = np.linspace(-14, 14, 4001)
    dx = x[1] - x[0]
    H = hermite_functions(8, x, ell)

    for n, m, j, conj in ((1, 0, 2, False), (-1, 1, 0, True)):
        def integrand(t, part):
            v = np.exp(-1j * (n - m) * om * t) * np.trapezoid(
                H[j] * boosted_on_grid(prob, t, conj, x), dx=dx)
            return v.real if part == "re" else v.imag
        direct = (quad(lambda t: integrand(t, "re"), 0, tau, limit=100)[0]
                  + 1j * quad(lambda t: integrand(t, "im"), 0, tau,
                              limit=100)[0]) / tau
        if conj:
            got = row[n + 2, m + 2, j]
        else:
            got = col[n + 2, j, m + 2]
        assert abs(got - direct) < 1e-12


@pytest.mark.parametrize("conj", [False, True])
def test_coupling_modes_match_grid_overlaps_at_readme_size(coupling, conj):
    # the exact Hermite overlaps against hermite_functions on a fine
    # composite Gauss-Legendre grid, at every drive sample of the README
    # truncation, N = 16, J = 80
    prob = FloquetProblem(coupling, 0.1, 1.0, 0.3j, n_fourier=16,
                          n_hermite=80)
    M = floquet._T_SAMPLES_PER_MODE * prob.n_fourier
    x, w, _ = panel_nodes(-20.0, 20.0, 160, 16)
    H = hermite_functions(80, x) * w
    samples = np.array([H @ boosted_on_grid(prob, k * prob.period / M,
                                            conj, x) for k in range(M)])
    want = np.fft.fft(samples, axis=0) / M
    got = prob._coupling_modes()[int(conj)]
    assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


def test_eigen_near_at_a_singular_target():
    # without coupling the Schur complement is D - sigma, exactly singular
    # at sigma = 1 (the n = 0 discrete state): the target is an eigenvalue
    # of the truncation, and eigen_near returns the dense eigenvalues of
    # its disk (the target itself and one field mode), each with residual
    # 0: the eigenvectors are unit vectors of U^T K U
    prob = FloquetProblem(FormFactor.gaussian(0.0, 1.0), 0.0, n_fourier=2,
                          n_hermite=10)
    dense = np.linalg.eigvals(prob.matrix)
    want = dense[np.abs(dense - 1.0) <= 0.1]
    pairs = eigen_near(prob, 1.0, 1e-10, 0.1)
    got = np.array([p.eigenvalue for p in pairs])
    assert want.size == got.size == 2
    assert got[0] == 1.0 and 1.0 in want
    for lam in got:
        assert np.min(np.abs(want - lam)) < 1e-14
    assert all(p.residual == 0.0 for p in pairs)


@pytest.mark.parametrize("f", [0.0, 0.1])
@pytest.mark.parametrize("phi", [FormFactor.gaussian(0.1, 1.0), TWO_TERMS],
                         ids=["gaussian", "two-terms"])
def test_structured_operator_matches_dense(phi, f, rng):
    prob = FloquetProblem(phi, f, 1.0, 0.3j, n_fourier=3, n_hermite=20)
    op = prob._operator
    K = eigenbasis_matrix(prob)
    v = rng.standard_normal(prob.dimension) + 1j * rng.standard_normal(
        prob.dimension)
    Kv = K @ v
    assert np.linalg.norm(op.matvec(v) - Kv) <= 1e-13 * np.linalg.norm(Kv)
    sigma = 1.02 - 0.01j
    x = _ShiftedSolve(op, np.abs(op.lam - sigma) <= 0.1, sigma).solve(v)
    want = np.linalg.solve(K - sigma * np.eye(prob.dimension), v)
    assert np.linalg.norm(x - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("radius", [0.05, 0.1, 0.3])
@pytest.mark.parametrize("f", [0.0, 0.1])
@pytest.mark.parametrize("n_fourier, n_hermite, theta",
                         [(3, 20, 0.3j), (3, 40, 0.3j), (4, 40, 0.3j),
                          (2, 60, 0.3j), (3, 40, 0.5j)],
                         ids=["3-20", "3-40", "4-40", "2-60", "3-40-0.5j"])
@pytest.mark.parametrize("phi", [FormFactor.gaussian(0.1, 1.0), TWO_TERMS],
                         ids=["gaussian", "two-terms"])
def test_eigen_near_finds_every_dense_eigenvalue_in_the_disk(
        phi, n_fourier, n_hermite, theta, f, radius):
    prob = FloquetProblem(phi, f, 1.0, theta, n_fourier=n_fourier,
                          n_hermite=n_hermite)
    dense = np.linalg.eigvals(prob.matrix)
    want = dense[np.abs(dense - R0) <= radius]
    got = np.array([p.eigenvalue for p in eigen_near(
        prob, R0, tol=1e-10, radius=radius)])
    assert want.size == got.size
    for a, b in ((want, got), (got, want)):
        for lam in a:
            assert np.min(np.abs(b - lam)) < 1e-8


@pytest.mark.parametrize("f", [0.0, 0.1])
@pytest.mark.parametrize("phi", [FormFactor.gaussian(0.1, 1.0), TWO_TERMS],
                         ids=["gaussian", "two-terms"])
def test_eigen_near_finds_a_clustered_eigenvalue_at_the_disk_edge(phi, f):
    # the resonance has a continuum eigenvalue 3e-3 to 5e-3 away; with the
    # target a disk radius off, the fold at the target alone moves their
    # candidates by about as much as they are apart, and a candidate of an
    # eigenvalue just inside the disk can fall just outside it
    prob = FloquetProblem(phi, f, 1.0, 0.3j, n_fourier=3, n_hermite=40)
    dense = np.linalg.eigvals(prob.matrix)
    lam = dense[np.argmin(np.abs(dense - R0))]
    for radius in (0.1, 0.3):
        for k in range(8):
            target = lam + radius * (1 - 1e-6) * np.exp(2j * np.pi * k / 8)
            want = dense[np.abs(dense - target) <= radius]
            got = np.array([p.eigenvalue for p in eigen_near(
                prob, target, tol=1e-10, radius=radius)])
            assert want.size == got.size
            for a, b in ((want, got), (got, want)):
                for z in a:
                    assert np.min(np.abs(b - z)) < 1e-8


@pytest.mark.parametrize("f", [0.0, 0.1])
def test_shift_on_a_field_eigenvalue_solves(coupling, f, rng):
    # sigma exactly on a Lambda entry, with that field mode among the near
    # ones and outside them: outside, it joins the bordered block instead
    # of being divided by zero; either way the solve is backward stable
    prob = FloquetProblem(coupling, f, 1.0, 0.3j, n_fourier=3, n_hermite=20)
    op = prob._operator
    sigma = op.lam[37]
    A = eigenbasis_matrix(prob) - sigma * np.eye(prob.dimension)
    v = rng.standard_normal(prob.dimension) + 1j * rng.standard_normal(
        prob.dimension)
    near = np.abs(op.lam - sigma) <= 0.1
    outside = near.copy()
    outside[37] = False
    for mask in (near, outside):
        x = _ShiftedSolve(op, mask, sigma).solve(v)
        assert np.all(np.isfinite(x))
        backward = np.linalg.norm(A @ x - v) / (
            np.linalg.norm(A, 2) * np.linalg.norm(x))
        assert backward < 1e-14


@pytest.mark.parametrize("field_mode", [False, True])
def test_inverse_iteration_at_a_singular_schur_complement(field_mode):
    # without coupling, sigma = 2 is the n = 1 discrete eigenvalue and a
    # Lambda entry a field one, here outside the near modes until it joins
    # them; the bordered matrix minus sigma is then exactly singular and
    # its null vector, lifted, is the eigenvector
    prob = FloquetProblem(FormFactor.gaussian(0.0, 1.0), 0.1, n_fourier=2,
                          n_hermite=10)
    op = prob._operator
    sigma = op.lam[13] if field_mode else 2.0
    near = np.zeros(op.lam.size, dtype=bool)
    assert _ShiftedSolve(op, near, sigma).null is not None
    lam, vec, _ = _inverse_iterate(op, near, sigma, 1e-12)
    assert abs(lam - sigma) < 1e-14
    K = eigenbasis_matrix(prob)
    assert np.linalg.norm(K @ vec - lam * vec) < 1e-12 * np.linalg.norm(vec)


@pytest.mark.parametrize("sigma_at", ["discrete", "field", "discrete-f0"])
def test_singular_shift_takes_the_null_vector(sigma_at):
    # the exactly singular shifts of the zero-coupling problems of the two
    # tests above: lu_factor raises, solve refuses, and the lifted null
    # vector solves K~ - sigma
    f = 0.0 if sigma_at == "discrete-f0" else 0.1
    prob = FloquetProblem(FormFactor.gaussian(0.0, 1.0), f, n_fourier=2,
                          n_hermite=10)
    op = prob._operator
    sigma = {"discrete": 2.0, "field": op.lam[13],
             "discrete-f0": 1.0}[sigma_at]
    shifted = _ShiftedSolve(op, np.abs(op.lam - sigma) <= 0.1, sigma)
    with pytest.raises(np.linalg.LinAlgError, match="eigenvalue"):
        shifted.solve(np.ones(op.dim, dtype=complex))
    v = shifted.null / np.linalg.norm(shifted.null)
    assert np.linalg.norm(op.matvec(v) - sigma * v) < 1e-14


@pytest.mark.parametrize("n", [17, 25, 41])
def test_schur_solve_matches_scipy_lu(n, rng):
    import scipy.linalg

    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    want = scipy.linalg.lu_solve(scipy.linalg.lu_factor(S), b)
    got = floquet.lu_solve(floquet.lu_factor(S), b)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("offsets, target, radius, want", [
    ((1e-7, -1e-7j), 0.0, 0.1, 1),      # two candidates, one eigenvalue
    ((1.1e-4,), 2e-4, 1e-4, 0),         # polishes to outside the disk
], ids=["clustered", "outside"])
def test_eigen_near_skips(coupling, monkeypatch, offsets, target, radius,
                          want):
    # candidates placed around a converged eigenvalue lambda: clustered
    # ones polish to one pair, and one that polishes to lambda outside the
    # disk is dropped, though it lay inside
    prob = FloquetProblem(coupling, 0.0, 1.0, 0.3j, 3, 20)
    lam = eigen_near(prob, R0, 1e-10, 0.05)[0].eigenvalue
    monkeypatch.setattr(floquet, "_folded_candidates", lambda *a: np.array(
        [lam + d for d in offsets]))
    pairs = eigen_near(prob, lam + target, 1e-10, radius)
    assert len(pairs) == want
    for p in pairs:
        assert abs(p.eigenvalue - lam) < 1e-12
        assert p.residual < 1e-10


def test_eigen_near_leaves_the_dense_matrix_unbuilt(coupling):
    prob = FloquetProblem(coupling, 0.05, 1.0, 0.3j, n_fourier=3,
                          n_hermite=40)
    assert eigen_near(prob, R0, tol=1e-10, radius=0.05)
    assert "matrix" not in prob.__dict__


def test_eigen_near_searches_its_disk_once(small_problem, monkeypatch):
    # the sensitivities follow each eigenvalue onto the enlarged
    # truncation instead of searching a second disk there: every fold is
    # on the nominal operator, the first at the target and the others at
    # eigenvalues the search found
    calls = []
    search = floquet._folded_candidates

    def counting(op, near, centre):
        calls.append((op.dim, centre))
        return search(op, near, centre)

    monkeypatch.setattr(floquet, "_folded_candidates", counting)
    pairs = eigen_near(small_problem, R0, tol=1e-10, radius=0.05)
    assert pairs
    assert {dim for dim, _ in calls} == {small_problem.dimension}
    assert calls[0][1] == R0
    assert {p.eigenvalue for p in pairs} <= {c for _, c in calls[1:]}


@pytest.mark.parametrize("f", [0.0, 0.1])
def test_sensitivity_is_the_distance_to_the_enlarged_spectrum(coupling, f):
    # the resonance's followed eigenvalue is the nearest eigenvalue of the
    # dense (N+4, J+16) truncation
    prob = FloquetProblem(coupling, f, 1.0, 0.3j, n_fourier=3, n_hermite=20)
    best = min(eigen_near(prob, R0, tol=1e-10, radius=0.05),
               key=lambda p: p.sensitivity)
    enlarged = FloquetProblem(coupling, f, 1.0, 0.3j, n_fourier=7,
                              n_hermite=36)
    assert enlarged.dimension == 570
    dense = np.linalg.eigvals(enlarged.matrix)
    nearest = np.min(np.abs(best.eigenvalue - dense))
    assert abs(best.sensitivity - nearest) < 1e-10
