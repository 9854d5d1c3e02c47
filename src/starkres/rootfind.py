"""Certified zero finding for analytic functions on rectangular windows.

The argument principle is evaluated by tracking the continuous phase of F
along adaptively refined boundary samples, which yields exact integer
winding numbers without numerically integrating F'/F.  Windows are split
until each sub-box holds at most one zero, then Newton polishing with the
caller's (F, F') pair produces residual-certified zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "Window",
    "Resonance",
    "BoundaryZeroError",
    "CertificateError",
    "winding_number",
    "find_zeros",
]

# deterministic outward jitter factors for boundary-zero retries
_JITTER = (2.3e-4, 7.9e-4, 2.7e-3)
_PHASE_STEP_MAX = 0.45 * math.pi
# initial contour samples of a phase-tracked winding, refinement rounds
_N_INIT = 64
_PHASE_ROUNDS = 28
# Newton steps before a polish gives up
_NEWTON_MAX_ITER = 60


class BoundaryZeroError(Exception):
    """A zero of F appears to lie on the integration contour."""


class CertificateError(RuntimeError):
    """Measured zero counts contradict each other or the analyticity of F:
    the contour is undersampled."""


@dataclass(frozen=True)
class Window:
    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("window must satisfy re_min < re_max and "
                             "im_min < im_max")
        if not all(map(math.isfinite, (self.re_min, self.re_max,
                                       self.im_min, self.im_max))):
            raise ValueError("window edges must be finite")

    @property
    def width(self) -> float:
        return self.re_max - self.re_min

    @property
    def height(self) -> float:
        return self.im_max - self.im_min

    @property
    def diameter(self) -> float:
        return math.hypot(self.width, self.height)

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.re_min + self.re_max),
                       0.5 * (self.im_min + self.im_max))

    def contains(self, z: complex, pad: float = 0.0) -> bool:
        return (self.re_min - pad <= z.real <= self.re_max + pad
                and self.im_min - pad <= z.imag <= self.im_max + pad)

    def corners(self) -> tuple[complex, complex, complex, complex]:
        return (complex(self.re_min, self.im_min),
                complex(self.re_max, self.im_min),
                complex(self.re_max, self.im_max),
                complex(self.re_min, self.im_max))

    def expanded(self, factor: float) -> "Window":
        dw = factor * self.width
        dh = factor * self.height
        return Window(self.re_min - dw, self.re_max + dw,
                      self.im_min - dh, self.im_max + dh)


@dataclass(frozen=True)
class Resonance:
    """A certified zero of F: location, isolation certificate, residual."""

    z: complex
    residual: float
    winding: int
    iterations: int
    cluster_radius: float = 0.0


# ----------------------------------------------------------------------
# phase-tracked winding numbers


def _rect_param(window: Window):
    c = window.corners()
    sides = [(c[0], c[1]), (c[1], c[2]), (c[2], c[3]), (c[3], c[0])]
    lengths = np.array([abs(b - a) for a, b in sides])
    cuts = np.concatenate([[0.0], np.cumsum(lengths) / lengths.sum()])

    def to_point(t):
        t = np.asarray(t, dtype=float) % 1.0
        out = np.empty(t.shape, dtype=complex)
        for i, (a, b) in enumerate(sides):
            lo, hi = cuts[i], cuts[i + 1]
            m = (t >= lo) & (t < hi)
            out[m] = a + (b - a) * (t[m] - lo) / (hi - lo)
        return out

    return to_point


def _phase_winding(F, to_point) -> int:
    """Winding of F along the closed path t in [0, 1) -> to_point(t).
    A sample where F is 0 or not finite, or an unresolved phase jump, is a
    contour zero; a negative count raises ``CertificateError``."""
    t = np.linspace(0.0, 1.0, _N_INIT, endpoint=False)
    v = np.asarray(F(to_point(t)), dtype=complex).ravel()
    for _ in range(_PHASE_ROUNDS):
        if not np.all(np.isfinite(v) & (v != 0)):
            raise BoundaryZeroError("F is zero or not finite on the contour")
        steps = np.angle(np.roll(v, -1) / v)
        bad = np.abs(steps) > _PHASE_STEP_MAX
        if not np.any(bad):
            wind = round(float(np.sum(steps)) / (2.0 * math.pi))
            if wind < 0:
                raise CertificateError(
                    f"negative winding {wind}: the contour is undersampled")
            return wind
        t_next = np.roll(t, -1).copy()
        t_next[-1] = 1.0
        mids = 0.5 * (t[bad] + t_next[bad])
        v_mid = np.asarray(F(to_point(mids)), dtype=complex).ravel()
        t = np.concatenate([t, mids])
        v = np.concatenate([v, v_mid])
        order = np.argsort(t, kind="stable")
        t = t[order]
        v = v[order]
    raise BoundaryZeroError("phase refinement exceeded its depth limit")


def _counted_window(F, window: Window) -> tuple[Window, int]:
    """The window the zero count of F was taken on, and that count: the
    window itself or, on boundary-zero suspicion, the first of up to three
    deterministic outward jitters of it whose contour gives a count."""
    last: Exception | None = None
    for factor in (0.0,) + _JITTER:
        w = window if factor == 0.0 else window.expanded(factor)
        try:
            return w, _phase_winding(F, _rect_param(w))
        except BoundaryZeroError as exc:
            last = exc
    raise BoundaryZeroError(
        f"winding failed after jitter retries: {last}")


def winding_number(F, window: Window) -> int:
    """Exact zero count (with multiplicity) of F inside the window, or in
    a slightly jittered one when a zero seems to sit on the contour."""
    return _counted_window(F, window)[1]


# ----------------------------------------------------------------------
# Newton polishing and certified subdivision


def _newton(F, pair, boxes: list[Window], tol: float) -> list:
    """Polish one zero per box, every box together: (z, residual,
    iterations) per box, or None where its polish fails.

    Each box starts from its centre.  A step is one ``pair`` call on the
    boxes still iterating.  A box stops once its step is below
    1e-14 (1 + |z|), or after _NEWTON_MAX_ITER steps.  It fails when F or
    F' is not finite or F' is 0, and when a step leaves the box padded by
    a quarter of its diameter.  One F call then gives the residuals: a
    polished zero with a residual above tol, or outside its box, fails
    too.
    """
    z: list[complex | None] = [box.center for box in boxes]
    iterations = [0] * len(boxes)
    active = list(range(len(boxes)))
    for it in range(1, _NEWTON_MAX_ITER + 1):
        if not active:
            break
        fz, dfz = pair(np.array([z[i] for i in active]))
        still = []
        for i, fi, di in zip(active, fz, dfz):
            fi, di = complex(fi), complex(di)
            iterations[i] = it
            if di == 0 or not np.isfinite(di) or not np.isfinite(fi):
                z[i] = None
                continue
            step = fi / di
            z_new = z[i] - step
            if not boxes[i].contains(z_new, pad=0.25 * boxes[i].diameter):
                z[i] = None
                continue
            z[i] = z_new
            if abs(step) >= 1e-14 * (1.0 + abs(z_new)):
                still.append(i)
        active = still
    out: list = [None] * len(boxes)
    done = [i for i in range(len(boxes)) if z[i] is not None]
    if done:
        res = np.abs(np.asarray(F(np.array([z[i] for i in done])),
                                dtype=complex))
        for i, r in zip(done, res):
            if r <= tol and boxes[i].contains(z[i]):
                out[i] = (z[i], float(r), iterations[i])
    return out


def _split(window: Window, fraction: float = 0.5):
    if window.width >= window.height:
        cut = window.re_min + fraction * window.width
        return (Window(window.re_min, cut, window.im_min, window.im_max),
                Window(cut, window.re_max, window.im_min, window.im_max))
    cut = window.im_min + fraction * window.height
    return (Window(window.re_min, window.re_max, window.im_min, cut),
            Window(window.re_min, window.re_max, cut, window.im_max))


def _bisect(F, box: Window, wind: int) -> list[tuple[Window, int]]:
    """The two halves of a box that counts ``wind`` zeros, with their
    counts.  The cut is jittered if a zero sits on the split line; the
    first half takes a strict winding (no window expansion), so that an
    on-edge zero forces a different cut instead of double-counting, and
    the second half takes the rest.  A first half counted above its
    parent raises ``CertificateError``."""
    for fraction in (0.5, 0.5 + 37.0 * _JITTER[0], 0.5 - 59.0 * _JITTER[1]):
        halves = _split(box, fraction)
        try:
            w1 = _phase_winding(F, _rect_param(halves[0]))
            break
        except BoundaryZeroError:
            continue
    else:
        raise BoundaryZeroError(
            f"could not place a zero-free split line in {box}")
    if w1 > wind:
        raise CertificateError(
            f"half {halves[0]} counts {w1} zeros, its parent {box} "
            f"counts {wind}")
    return [(halves[0], w1), (halves[1], wind - w1)]


def find_zeros(F, window: Window, tol: float = 1e-10, *,
               pair) -> list[Resonance]:
    """All zeros of F in the window, each carried by a winding certificate.

    ``pair(z)`` returns F and F' on a 1-d array of points.  The boxes are
    bisected level by level until they isolate single zeros.  Every
    winding-1 box of a level is polished by :func:`_newton` from its
    centre, all of them in one ``pair`` call per Newton step; a box whose
    polish escapes or fails its residual is bisected further.  The
    certificates of the returned zeros add up to the winding number of the
    full window; when a zero seems to sit on its contour, that is a window
    jittered slightly outward, and it is the one subdivided.  A split half
    counted above its parent raises ``CertificateError``.  Zero clusters
    that cannot be separated above ``max(50 tol, 1e-12 window.diameter)``
    are reported as a single record with winding > 1 and a nonzero cluster
    radius (their residual may exceed ``tol``).
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    min_box = max(50.0 * tol, 1e-12 * window.diameter)
    counted, total = _counted_window(F, window)
    found: list[Resonance] = []
    level: list[tuple[Window, int]] = [(counted, total)]
    while level:
        # unresolved clusters: report their centres with the cluster radius
        clusters = [(b, w) for b, w in level if w and b.diameter <= min_box]
        if clusters:
            centres = np.array([b.center for b, _ in clusters])
            res = np.abs(np.asarray(F(centres), dtype=complex))
            found += [Resonance(b.center, float(r), w, 0,
                                cluster_radius=0.5 * b.diameter)
                      for (b, w), r in zip(clusters, res)]
        level = [(b, w) for b, w in level if w and b.diameter > min_box]
        polished = iter(_newton(F, pair, [b for b, w in level if w == 1],
                                tol))
        deeper: list[tuple[Window, int]] = []
        for box, wind in level:
            zero = next(polished) if wind == 1 else None
            if zero is None:
                deeper += _bisect(F, box, wind)
            else:
                found.append(Resonance(zero[0], zero[1], 1, zero[2]))
        level = deeper

    found = _merge_duplicates(found, radius=1e-9)
    if sum(r.winding for r in found) != total:
        raise CertificateError(
            f"certificate mismatch: window winding {total}, "
            f"sum of zero certificates {sum(r.winding for r in found)}")
    found.sort(key=lambda r: (r.z.real, r.z.imag))
    return found


def _merge_duplicates(items: list[Resonance], radius: float) -> list[Resonance]:
    out: list[Resonance] = []
    for r in sorted(items, key=lambda r: (r.z.real, r.z.imag)):
        for i, kept in enumerate(out):
            if abs(kept.z - r.z) < radius:
                out[i] = replace(kept, winding=kept.winding + r.winding)
                break
        else:
            out.append(r)
    return out
