import math

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import dilate, translate_modulate
from starkres import FormFactor, Term, conj_reflect
from starkres._gauss import gaussian_poly_integral

SQRT_PI = math.sqrt(math.pi)


def random_factor(rng, n_terms=3):
    terms = []
    for _ in range(n_terms):
        c = complex(rng.randn(), rng.randn())
        d = rng.randint(0, 4)
        w = complex(0.5 + rng.rand(), 0.3 * rng.randn())
        b = complex(0.3 * rng.randn(), 0.3 * rng.randn())
        terms.append(Term(c, d, w, b))
    return FormFactor(terms)


def test_norm_exact_and_quadrature(coupling):
    assert coupling.norm_sq() == pytest.approx(SQRT_PI / 100.0, abs=1e-15)
    num, _ = quad(lambda x: abs(complex(coupling(x))) ** 2, -12, 12,
                  epsabs=1e-14)
    assert abs(coupling.norm_sq() - num) < 1e-12


def test_gaussian_self_dual(coupling):
    hat = coupling.transform()
    k = np.linspace(-3, 3, 13)
    assert np.allclose(hat(k), 0.1 * np.exp(-k * k / 2.0), atol=1e-15)


def test_zero_transform():
    assert FormFactor.zero().transform().terms == ()


def test_monomial_transform_against_quadrature():
    # x e^{-x^2/2} and x^2 e^{-0.7 x^2/2}: compare with direct integrals
    for phi in (FormFactor.monomial_gaussian(1.0, 1, 1.0),
                FormFactor.monomial_gaussian(0.5 - 0.25j, 2, 0.7)):
        hat = phi.transform()
        for k in np.linspace(-2.2, 2.2, 10):
            direct = quad(
                lambda x, kk=k: (complex(phi(x))
                                 * np.exp(-1j * kk * x)).real,
                -14, 14, epsabs=1e-13)[0] + 1j * quad(
                lambda x, kk=k: (complex(phi(x))
                                 * np.exp(-1j * kk * x)).imag,
                -14, 14, epsabs=1e-13)[0]
            assert abs(complex(hat(k)) - direct / math.sqrt(2 * math.pi)) \
                < 1e-12


def test_x_gaussian_transform_phase():
    hat = FormFactor.monomial_gaussian(1.0, 1, 1.0).transform()
    k = 1.3
    assert complex(hat(k)) == pytest.approx(-1j * k * math.exp(-k * k / 2),
                                            abs=1e-15)


def test_double_transform_is_parity(rng):
    phi = random_factor(rng)
    twice = phi.transform().transform()
    x = rng.randn(20) + 0.2j * rng.randn(20)
    assert np.allclose(twice(x), phi.reflect()(x), atol=1e-12)


def test_eval_momentum_values(coupling):
    hat = coupling.transform()
    assert hat(0.0) == pytest.approx(0.1, abs=1e-15)
    assert hat(1j) == pytest.approx(0.1 * math.exp(0.5), abs=1e-14)
    # agreement with term-by-term direct evaluation at a complex point
    k = 1 + 1j
    direct = 0.1 * np.exp(-k * k / 2.0)
    assert abs(hat(k) - direct) < 1e-15


def test_conj_reflect_identity_on_real_even(coupling):
    assert conj_reflect(coupling).terms == coupling.terms


def test_conj_reflect_conjugates_coefficients():
    phi = FormFactor.gaussian(1j, 1.0)
    out = conj_reflect(phi)
    assert out.terms[0].coeff == -1j


def test_conj_reflect_involution_and_momentum_identity(rng):
    phi = random_factor(rng)
    again = conj_reflect(conj_reflect(phi))
    assert again.terms == phi.terms
    for _ in range(100):
        k = complex(2 * rng.randn(), 0.8 * rng.randn())
        lhs = conj_reflect(phi).transform()(k)
        rhs = np.conj(phi.transform()(np.conj(k)))
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


# the term-by-term boost and dilation of conftest: the references that the
# Floquet coupling-border tests compare ``_coupling_modes`` against


def test_translate_modulate_identity(coupling):
    assert translate_modulate(coupling, 0.0, 0.0, 0.0).terms == coupling.terms


def test_translate_is_shifted_gaussian(coupling):
    out = translate_modulate(coupling, 1.0)
    x = np.linspace(-4, 4, 17)
    assert np.allclose(out(x), 0.1 * np.exp(-(x + 1.0) ** 2 / 2.0),
                       atol=1e-15)
    assert out.norm_sq() == pytest.approx(coupling.norm_sq(), rel=1e-14)


def test_translate_modulate_preserves_norm(coupling, rng):
    for _ in range(10):
        a, b, c = rng.randn(3) * 2.0
        out = translate_modulate(coupling, a, b, c)
        assert abs(out.norm_sq() - SQRT_PI / 100.0) < 1e-12


def test_translate_modulate_norm_random_factor(rng):
    phi = random_factor(rng)
    n0 = phi.norm_sq()
    for _ in range(5):
        a, b = rng.randn(2) * 1.5
        assert abs(translate_modulate(phi, a, b).norm_sq() - n0) \
            < 1e-12 * max(1.0, n0)


def test_dilate_identity_and_unitarity(coupling, rng):
    assert dilate(coupling, 0.0).terms == coupling.terms
    for th in (0.4, -0.3):
        assert dilate(coupling, th).norm_sq() == pytest.approx(
            coupling.norm_sq(), rel=1e-13)


def test_dilate_imaginary_rotation(coupling):
    out = dilate(coupling, 0.3j)
    t = out.terms[0]
    assert t.width == pytest.approx(np.exp(0.6j), abs=1e-15)
    assert t.coeff == pytest.approx(0.1 * np.exp(0.15j), abs=1e-15)
    # consistency with high-accuracy quadrature of the rotated profile
    num = quad(lambda x: abs(complex(out(x))) ** 2, -20, 20,
               epsabs=1e-14, limit=300)[0]
    assert abs(num - out.norm_sq()) < 1e-11


def test_dilate_group_law(rng):
    phi = random_factor(rng)
    t1, t2 = 0.12 + 0.2j, -0.05 + 0.08j
    once = dilate(phi, t1 + t2)
    twice = dilate(dilate(phi, t1), t2)
    assert len(once.terms) == len(twice.terms)
    for a, b in zip(once.terms, twice.terms):
        assert abs(a.coeff - b.coeff) < 1e-14 * (1 + abs(a.coeff))
        assert abs(a.width - b.width) < 1e-14 * (1 + abs(a.width))
        assert abs(a.drift - b.drift) < 1e-14 * (1 + abs(a.drift))


def test_dilate_rejects_nonintegrable_rotation(coupling):
    with pytest.raises(ValueError):
        dilate(coupling, 0.9j)   # width would rotate past the half-plane


def test_gaussian_poly_integral_batch_matches_scalar_calls(rng):
    a = 0.5 + rng.rand(7) + 1j * rng.randn(7)
    b = rng.randn(7) + 1j * rng.randn(7)
    coeffs = rng.randn(5, 7) + 1j * rng.randn(5, 7)
    coeffs[2] = 0.0
    batch = gaussian_poly_integral(coeffs, a, b)
    assert batch.shape == (7,)
    for i in range(7):
        one = gaussian_poly_integral(list(coeffs[:, i]), a[i], b[i])
        assert abs(batch[i] - one) <= 1e-15 * abs(one)
    # a closed form: int x^2 exp(-x^2) dx = sqrt(pi)/2
    assert gaussian_poly_integral([0, 0, 1], 1.0, 0.0) == pytest.approx(
        SQRT_PI / 2.0, rel=1e-15)
    for bad in (0.0 + 1j, -0.2 + 0.1j):
        a_bad = a.copy()
        a_bad[4] = bad
        with pytest.raises(ValueError):
            gaussian_poly_integral(coeffs, a_bad, b)
        with pytest.raises(ValueError):
            gaussian_poly_integral([1.0], bad, 0.0)


def test_plancherel(rng, coupling):
    for phi in (coupling, random_factor(rng), random_factor(rng)):
        hat = phi.transform()
        assert abs(phi.norm_sq() - hat.norm_sq()) \
            < 1e-12 * max(1.0, phi.norm_sq())


def test_serialization_roundtrip(rng):
    phi = random_factor(rng)
    back = FormFactor.from_records(phi.to_records())
    assert back.terms == phi.terms
    # legacy five-column records (no drift) load as drift-free terms
    legacy = FormFactor.from_records([[0.1, 0.0, 0, 1.0, 0.0]])
    assert legacy.terms == FormFactor.gaussian(0.1, 1.0).terms


def test_invalid_terms_rejected():
    with pytest.raises(ValueError):
        FormFactor((Term(1.0, 0, -1.0, 0.0),))
    with pytest.raises(ValueError):
        FormFactor((Term(1.0, -2, 1.0, 0.0),))
