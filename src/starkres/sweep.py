"""Field-strength sweeps: DC zero clouds and AC eigenvalue trajectories.

The DC sweep locates all window zeros per field value, labels each by its
period number k of the quantization rule (:func:`period_labels`), and
measures the instability envelope; the AC sweep follows the dilated
Floquet eigenvalue toward its field-free limit as a ``FloquetTrack``.
The stability/instability flags are fixed numeric predicates over those
outputs, reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .floquet import FloquetProblem, eigen_near
from .formfactor import FormFactor
from .resolvent import QuadratureError, ResolventEvaluator, SectorLimitError
from .rootfind import (BoundaryZeroError, CertificateError, Resonance,
                       Window, find_zeros)

__all__ = [
    "TrajectoryPoint",
    "SweepResult",
    "FloquetTrack",
    "dc_sweep",
    "ac_sweep",
    "period_labels",
]

# failures a field value may end in without stopping the sweep.  Anything
# else is a bug and propagates.
_NUMERIC_ERRORS = (QuadratureError, BoundaryZeroError, CertificateError,
                   SectorLimitError, np.linalg.LinAlgError)
# radius of the disk around the tracked eigenvalue that the AC sweep
# searches at each field value
_DISK_RADIUS = 0.05


@dataclass(frozen=True)
class TrajectoryPoint:
    """One AC track point: the Floquet eigenvalue z found at field f, its
    residual and its truncation sensitivity."""

    f: float
    z: complex
    residual: float
    sensitivity: float


@dataclass(frozen=True)
class SweepResult:
    """DC sweep: the certified zero cloud per field value."""

    f_grid: tuple[float, ...]
    resonances: tuple[tuple[Resonance, ...], ...]   # aligned with f_grid
    reference: complex                              # field-free resonance
    labels: tuple[tuple[int, ...], ...]             # aligned with resonances
    max_im: tuple[float, ...]
    min_dist_reference: tuple[float, ...]
    mean_re: tuple[float, ...]
    scatter_re: tuple[float, ...]
    c0_envelope: float
    c0_largest_f: float
    flags: dict[str, bool] = field(default_factory=dict)
    errors: tuple[str, ...] = ()

    def all_points(self) -> list[tuple[float, Resonance]]:
        out = []
        for f, group in zip(self.f_grid, self.resonances):
            out.extend((f, r) for r in group)
        return out


def _validate_grid(f_grid) -> tuple[float, ...]:
    grid = tuple(float(f) for f in f_grid)
    if not grid or not all(0.0 < f < math.inf for f in grid):
        raise ValueError("f grid must be positive and finite")
    if any(a <= b for a, b in zip(grid, grid[1:])):
        raise ValueError("f grid must be strictly descending")
    return grid


def _per_field(compute, grid) -> list[tuple]:
    """(compute(f), None) per field value, one after another in grid
    order.  A field that ends in a numeric error gives (None, error line)
    and the sweep goes on."""
    def one(f: float):
        try:
            return compute(f), None
        except _NUMERIC_ERRORS as exc:
            return None, f"f={f:.17g}: {type(exc).__name__}: {exc}"

    return [one(f) for f in grid]


def period_labels(F0, f: float, zeros) -> tuple[int, ...]:
    """Period number k of each DC zero, aligned with ``zeros``.

    To leading order in f a zero of F_f at x = Re z solves
    (4/3) x^{3/2} / f - arg F_0(x) = 2 pi k, with F_0 the field-free F:
    (4/3) x^{3/2} / f is the round-trip phase of a wave that leaves the
    coupling at energy x and turns at x / f.  k is that quotient rounded.
    Where the golden-rule width is positive, Im F_0(x + i0) < 0, so
    arg F_0 stays in (-pi, 0) and cannot move a label by one period.  The
    zeros of a window hold consecutive periods; labels that are not
    distinct and consecutive raise CertificateError.
    """
    if not zeros:
        return ()
    x = np.array([r.z.real for r in zeros])
    if np.any(x <= 0.0):
        raise CertificateError(f"no period label for a zero at Re z <= 0 "
                               f"(f={f:.17g})")
    q = ((4.0 / 3.0) * x ** 1.5 / f - np.angle(F0(x))) / (2.0 * np.pi)
    k = [int(v) for v in np.rint(q)]
    if sorted(k) != list(range(min(k), min(k) + len(k))):
        raise CertificateError(f"period labels {k} at f={f:.17g} are not "
                               "distinct and consecutive")
    return tuple(k)


def dc_sweep(phi: FormFactor, f_grid, window: Window,
             tol: float = 1e-9) -> SweepResult:
    """Locate the resonance cloud per field value and test the
    instability predicates against the field-free resonance."""
    grid = _validate_grid(f_grid)
    if window.im_max > 0:
        raise ValueError("resonance search windows must lie in Im z <= 0")
    ev0 = ResolventEvaluator(phi, 0.0)
    ref_window = Window(window.re_min, window.re_max,
                        min(window.im_min, -1e-3), -1e-4)
    ref_zeros = find_zeros(ev0.F_value, ref_window, tol=1e-11,
                           pair=ev0.F_pair)
    if not ref_zeros:
        raise ValueError("no field-free resonance found in the window")
    reference = min(ref_zeros, key=lambda r: abs(r.z - 1.0)).z

    def zeros_at(f: float):
        ev = ResolventEvaluator(phi, f)
        zeros = find_zeros(ev.F_value, window, tol=tol,
                           pair=ev.F_pair)
        return tuple(zeros), period_labels(ev0.F_value, f, zeros)

    results = _per_field(zeros_at, grid)
    groups = tuple(res[0] if res else () for res, _ in results)
    labels = tuple(res[1] if res else () for res, _ in results)
    errors = tuple(err for _, err in results if err)

    max_im, min_dist, mean_re, scat_re = [], [], [], []
    for f, group in zip(grid, groups):
        if group:
            max_im.append(max(abs(r.z.imag) for r in group))
            min_dist.append(min(abs(r.z - reference) for r in group))
            res = [r.z.real for r in group]
            mean_re.append(float(np.mean(res)))
            scat_re.append(float(np.std(res)))
        else:
            max_im.append(0.0)
            min_dist.append(math.inf)
            mean_re.append(math.nan)
            scat_re.append(0.0)

    c0_env = max((abs(r.z.imag) / f for f, g in zip(grid, groups)
                  for r in g), default=0.0)
    c0_top = max((abs(r.z.imag) / grid[0] for r in groups[0]), default=0.0)

    im_ref = abs(reference.imag)
    has_data = groups[0] and groups[-1]
    flags = {
        # cloud widths collapse toward the axis as f decreases
        "axis_approach": bool(has_data and max_im[-1] <= 0.5 * max_im[0]),
        # no resonance approaches the field-free one
        "r0_avoidance": bool(groups[-1] and min_dist[-1] > 0.5 * im_ref),
    }
    flags["dc_unstable"] = flags["axis_approach"] and flags["r0_avoidance"]
    return SweepResult(
        f_grid=grid, resonances=groups, reference=reference,
        labels=labels, max_im=tuple(max_im),
        min_dist_reference=tuple(min_dist), mean_re=tuple(mean_re),
        scatter_re=tuple(scat_re), c0_envelope=c0_env, c0_largest_f=c0_top,
        flags=flags, errors=errors)


@dataclass(frozen=True)
class FloquetTrack:
    """AC sweep: the Floquet eigenvalue followed down the field grid."""

    reference: complex
    points: tuple[TrajectoryPoint, ...]   # grid fields found, then f = 0
    distances: tuple[float, ...]          # to reference per grid field
    flags: dict[str, bool]
    errors: tuple[str, ...]


def ac_sweep(problem: FloquetProblem, f_grid, target: complex | None = None,
             tol: float = 1e-9) -> FloquetTrack:
    """Track the Floquet resonance eigenvalue along the descending f grid.

    ``problem`` is the f = 0 truncation; each field value solves a copy of
    it with only f changed.  The track starts at the f = 0 eigenvalue of
    least truncation sensitivity (the nearer one to the seed on a tie) and
    keeps, per field, the eigenvalue nearest it.  Each point carries the
    residual and sensitivity that ``eigen_near`` gave it.  Distances are
    recorded against ``target`` (the field-free resonance from a DC run)
    when given, else against the f = 0 eigenvalue itself, and are infinite
    at a field that found no eigenvalue.  The track counts as converged
    (``ac_stable``) when the last three distances decrease and the last
    is within 10 times that point's sensitivity.
    """
    if problem.f != 0:
        raise ValueError("ac_sweep starts from the f = 0 problem")
    grid = _validate_grid(f_grid)
    seed = target if target is not None else 1.0 - 0.01j
    pairs0 = eigen_near(problem, seed, tol=tol, radius=_DISK_RADIUS)
    if not pairs0:
        raise ValueError("no field-free Floquet eigenvalue near the target")
    lam0 = min(pairs0, key=lambda p: (p.sensitivity, abs(p.eigenvalue - seed)))
    reference = complex(target) if target is not None else lam0.eigenvalue

    def nearest_at(f: float):
        pairs = eigen_near(replace(problem, f=f), lam0.eigenvalue, tol=tol,
                           radius=_DISK_RADIUS)
        return pairs[0] if pairs else None

    results = _per_field(nearest_at, grid)
    # a field without a pair either failed or found no eigenvalue
    errors = tuple(err or f"f={f:.17g}: no eigenvalue in the target disk"
                   for f, (pair, err) in zip(grid, results) if pair is None)
    found = [(f, pair) for f, (pair, _) in zip(grid, results) if pair]
    dists = [abs(pair.eigenvalue - reference) for _, pair in found]
    decreasing = len(dists) >= 3 and dists[-1] < dists[-2] < dists[-3]
    small = bool(found) and dists[-1] <= 10.0 * found[-1][1].sensitivity
    found.append((0.0, lam0))
    return FloquetTrack(
        reference=reference,
        points=tuple(TrajectoryPoint(f, p.eigenvalue, p.residual,
                                     p.sensitivity) for f, p in found),
        distances=tuple(abs(pair.eigenvalue - reference) if pair else math.inf
                        for pair, _ in results),
        flags={"converging_to_reference": decreasing,
               "within_truncation_floor": small,
               "ac_stable": decreasing and small},
        errors=errors)
