import numpy as np
import pytest

from starkres import FormFactor

# field-free resonance of the reference coupling (1/10) exp(-x^2/2),
# computed from the closed-form continued F and pinned by the acceptance
# suite
R0 = 1.0190539888887071 - 0.011111503308084162j

# a complex-width coupling without parity: an x-Gaussian with drift plus
# a plain Gaussian of another width
TWO_TERMS = FormFactor.from_records([[0.1, 0.02, 1, 1.0, 0.1, 0.3, 0.0],
                                     [0.05, 0.0, 0, 0.7, 0.0]])


@pytest.fixture(scope="session")
def coupling():
    return FormFactor.gaussian(0.1, 1.0)


@pytest.fixture()
def rng():
    return np.random.RandomState(20240329)
