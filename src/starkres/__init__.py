"""Resonances of a coupled-channel model in static and oscillating fields.

Public surface: the Hermite-Gaussian coupling family, resolvent and F
evaluators with analytic continuation, certified window zero finding, the
truncated dilated Floquet operator, field sweeps, and brute-force oracle
references.
"""

__version__ = "0.1.0"

from .formfactor import (
    FormFactor,
    Term,
    conj_reflect,
    dilate,
    translate_modulate,
)
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
    hermite_functions,
    momentum_squared_matrix,
)
from .sweep import FloquetTrack, SweepResult, ac_sweep, dc_sweep
from .oracle import (
    PoleTestResult,
    TaylorPathError,
    erfc_closed_form,
    erfc_free_element,
    full_resolvent_pole_test,
    grid_scan,
    ode_resolvent_oracle,
    taylor_continuation_oracle,
    verify_report,
)

__all__ = [
    "__version__",
    "FormFactor", "Term", "conj_reflect", "dilate", "translate_modulate",
    "CutProximityError", "QuadratureError",
    "ResolventEvaluator", "RoucheCertificate", "SectorLimitError",
    "BoundaryZeroError", "CertificateError", "Resonance", "Window",
    "find_zeros", "winding_number",
    "FloquetEigenpair", "FloquetProblem", "eigen_near",
    "hermite_functions", "momentum_squared_matrix",
    "FloquetTrack", "SweepResult", "ac_sweep", "dc_sweep",
    "PoleTestResult", "TaylorPathError", "erfc_closed_form",
    "erfc_free_element", "full_resolvent_pole_test", "grid_scan",
    "ode_resolvent_oracle", "taylor_continuation_oracle", "verify_report",
]
