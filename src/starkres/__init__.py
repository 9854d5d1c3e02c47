"""Resonances of a coupled-channel model in static and oscillating fields.

Public surface: the Hermite-Gaussian coupling family, resolvent and F
evaluators with analytic continuation, certified window zero finding, the
truncated dilated Floquet operator and field sweeps.  The brute-force
oracle references live in ``starkres.oracle``, which ``import starkres``
does not load (it pulls in ``scipy.integrate``).
"""

__version__ = "0.1.0"

from .formfactor import FormFactor, Term, conj_reflect
from .resolvent import (
    CutProximityError,
    QuadratureError,
    ResolventEvaluator,
    RoucheCertificate,
    SectorLimitError,
)
from .rootfind import (
    BoundaryZeroError,
    CertificateError,
    Resonance,
    Window,
    find_zeros,
    winding_number,
)
from .floquet import (
    FloquetEigenpair,
    FloquetProblem,
    eigen_near,
    momentum_squared_matrix,
)
from .sweep import FloquetTrack, SweepResult, ac_sweep, dc_sweep

__all__ = [
    "__version__",
    "FormFactor", "Term", "conj_reflect",
    "CutProximityError", "QuadratureError",
    "ResolventEvaluator", "RoucheCertificate", "SectorLimitError",
    "BoundaryZeroError", "CertificateError", "Resonance", "Window",
    "find_zeros", "winding_number",
    "FloquetEigenpair", "FloquetProblem", "eigen_near",
    "momentum_squared_matrix",
    "FloquetTrack", "SweepResult", "ac_sweep", "dc_sweep",
]
