import cmath
import math

import numpy as np
import pytest

from starkres import FormFactor, Term

# field-free resonance of the reference coupling (1/10) exp(-x^2/2),
# computed from the closed-form continued F and pinned by the acceptance
# suite
R0 = 1.0190539888887071 - 0.011111503308084162j

# a complex-width coupling without parity: an x-Gaussian with drift plus
# a plain Gaussian of another width
TWO_TERMS = FormFactor.from_records([[0.1, 0.02, 1, 1.0, 0.1, 0.3, 0.0],
                                     [0.05, 0.0, 0, 0.7, 0.0]])


def translate_modulate(phi, shift, momentum_shift=0.0, phase=0.0):
    """exp(i phase) exp(i momentum_shift x) phi(x + shift), term by term:
    the reference for the boost that ``FloquetProblem._coupling_modes``
    applies to term arrays.  Unitary for real parameters."""
    a = complex(shift)
    out = []
    for c, d, w, b in phi.terms:
        pref = c * cmath.exp(-0.5 * w * a * a + b * a + 1j * phase)
        for j in range(d + 1):
            out.append(Term(pref * math.comb(d, j) * a ** (d - j), j, w,
                            b - w * a + 1j * momentum_shift))
    return FormFactor(out)


def dilate(phi, theta):
    """(U(theta) phi)(x) = e^{theta/2} phi(e^theta x), term by term: the
    reference for the dilation of ``FloquetProblem._coupling_modes``.
    Rejects rotations that take a width out of the right half-plane."""
    theta = complex(theta)
    scale = cmath.exp(theta)
    out = []
    for c, d, w, b in phi.terms:
        w_new = w * scale * scale
        if w_new.real <= 0.0:
            raise ValueError(f"dilation by theta={theta} rotates width {w} "
                             "out of the right half-plane")
        out.append(Term(c * cmath.exp(theta * (d + 0.5)), d, w_new,
                        b * scale))
    return FormFactor(out)


@pytest.fixture(scope="session")
def coupling():
    return FormFactor.gaussian(0.1, 1.0)


@pytest.fixture()
def rng():
    return np.random.RandomState(20240329)
