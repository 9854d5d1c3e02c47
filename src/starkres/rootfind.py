"""Certified zero finding for analytic functions on rectangular windows.

The argument principle is evaluated by tracking the continuous phase of F
along adaptively refined boundary samples, which yields exact integer
winding numbers without numerically integrating F'/F.  One search takes F
once per distinct point and files each contour sample under the
axis-parallel line it lies on.  A box is just its window: a side's
samples are every sample filed on that side's line between its two ends,
whichever box or split line asked for them, and the box's count is the
signed sum of the phase increments along its sides over 2 pi.  Windows
are bisected level by level until each box holds at most one zero.  A
split files its line, and each end of the line on the parent's side
across it, so the halves read their parent's samples and share the line.
A level's split lines are sampled in one F call and its halves refined in
one F call per round.  Newton polishing with the caller's (F, F') pair
then produces residual-certified zeros.
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
# split fractions of a box, in the order they are tried
_FRACTIONS = (0.5, 0.5 + 37.0 * _JITTER[0], 0.5 - 59.0 * _JITTER[1])
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
# phase-tracked winding numbers on filed lines


class _Samples:
    """F over one search, taken once per distinct point, and its contour
    samples filed by line.  A line is keyed ``(horizontal, fixed)``, the
    coordinate that stays fixed along it (Im z on a horizontal line, Re z
    on a vertical one), and holds ``t``, the other coordinate of its
    samples, sorted, and the values of F there."""

    def __init__(self, F):
        self._F = F
        self._memo: dict[complex, complex] = {}
        self._lines: dict[tuple[bool, float], tuple] = {}

    def __call__(self, z: np.ndarray) -> np.ndarray:
        """F at the points z, in one F call at those not taken before."""
        keys = z.tolist()
        new = [p for p in dict.fromkeys(keys) if p not in self._memo]
        if new:
            v = np.asarray(self._F(np.array(new)), dtype=complex).ravel()
            self._memo.update(zip(new, v.tolist()))
        return np.array([self._memo[p] for p in keys], dtype=complex)

    def file(self, lines: list[tuple[bool, float, np.ndarray]]) -> None:
        """Sample every ``(horizontal, fixed, t)`` of ``lines``, ``t``
        sorted, in one F call, and file the samples on their lines."""
        v = self(np.concatenate([t + 1j * c if h else c + 1j * t
                                 for h, c, t in lines]))
        start = 0
        for horizontal, fixed, t in lines:
            vt = v[start:start + t.size]
            start += t.size
            filed = self._lines.get((horizontal, fixed))
            if filed is not None:
                t = np.concatenate((filed[0], t))
                order = np.argsort(t, kind="stable")
                t, vt = t[order], np.concatenate((filed[1], vt))[order]
                once = np.append(True, t[1:] != t[:-1])
                t, vt = t[once], vt[once]
            self._lines[horizontal, fixed] = (t, vt)

    def side(self, horizontal: bool, fixed: float, lo: float, hi: float
             ) -> tuple[np.ndarray, np.ndarray]:
        """The samples filed on a line from ``lo`` to ``hi``, both ends
        filed."""
        t, v = self._lines[horizontal, fixed]
        i, j = t.searchsorted(lo), t.searchsorted(hi)
        return t[i:j + 1], v[i:j + 1]


def _sides(w: Window) -> list[tuple[bool, float, float, float]]:
    """The sides of a window as (line, its ends), each in increasing
    coordinate: bottom and right run counterclockwise, top and left
    clockwise."""
    return [(True, w.im_min, w.re_min, w.re_max),
            (False, w.re_max, w.im_min, w.im_max),
            (True, w.im_max, w.re_min, w.re_max),
            (False, w.re_min, w.im_min, w.im_max)]


def _intervals(length: float, perimeter: float) -> int:
    """Sample intervals on a side of ``length`` at the density of _N_INIT
    samples around ``perimeter``."""
    return max(1, round(_N_INIT * length / perimeter))


def _grid(lo: float, hi: float, n: int) -> np.ndarray:
    """n equal intervals from lo to hi, both ends exact."""
    t = lo + (hi - lo) * (np.arange(n + 1) / n)
    t[-1] = hi
    return t


def _contour(w: Window) -> list[tuple[bool, float, np.ndarray]]:
    """The sides of a window sampled at the density of _N_INIT samples
    around its perimeter, as lines to file: bottom, top, right, left."""
    perimeter = 2.0 * (w.width + w.height)
    x = _grid(w.re_min, w.re_max, _intervals(w.width, perimeter))
    y = _grid(w.im_min, w.im_max, _intervals(w.height, perimeter))
    return [(True, w.im_min, x), (True, w.im_max, x),
            (False, w.re_max, y), (False, w.re_min, y)]


def _count(samples: _Samples, windows: list[Window]) -> list[int | str]:
    """The zero count of F in each window from the samples filed on its
    sides, or why there is none: a sample where F is 0 or not finite, or
    steps that _PHASE_ROUNDS rounds leave too large.

    Sides are refined until no phase step between neighbouring samples
    exceeds _PHASE_STEP_MAX, in one F call per round for all windows: a
    round files the midpoint of every such step, and the next rereads only
    the windows still refining.  A side that windows share is refined
    once, and every window on it reads the same samples."""
    out: list = [None] * len(windows)
    todo = range(len(windows))
    for rounds in range(_PHASE_ROUNDS + 1):
        mids, refining = [], []
        for k in todo:
            sides = [(h, c, *samples.side(h, c, lo, hi))
                     for h, c, lo, hi in _sides(windows[k])]
            values = np.concatenate([v for *_, v in sides])
            if not (np.isfinite(values).all() and values.all()):
                out[k] = "F is zero or not finite on the contour"
                continue
            steps = [np.angle(v[1:] / v[:-1]) for *_, v in sides]
            bad = [np.flatnonzero(np.abs(s) > _PHASE_STEP_MAX) for s in steps]
            if not any(b.size for b in bad):
                turns = [float(np.sum(s)) for s in steps]
                out[k] = round((turns[0] + turns[1] - turns[2] - turns[3])
                               / (2.0 * math.pi))
            elif rounds == _PHASE_ROUNDS:
                out[k] = "phase refinement exceeded its depth limit"
            else:
                refining.append(k)
                mids += [(h, c, 0.5 * (t[b] + t[b + 1]))
                         for (h, c, t, _), b in zip(sides, bad) if b.size]
        if not refining:
            break
        samples.file(mids)
        todo = refining
    return out


def _counted(samples: _Samples, window: Window) -> tuple[Window, int]:
    """The window the zero count of F was taken on, and that count: the
    window itself or, when its contour meets a zero, the first of up to
    three deterministic outward jitters of it whose contour gives a count.
    A negative count raises ``CertificateError``."""
    last = None
    for factor in (0.0,) + _JITTER:
        box = window if factor == 0.0 else window.expanded(factor)
        samples.file(_contour(box))
        last = _count(samples, [box])[0]
        if not isinstance(last, str):
            if last < 0:
                raise CertificateError(
                    f"negative winding {last}: the contour is undersampled")
            return box, last
    raise BoundaryZeroError(f"winding failed after jitter retries: {last}")


def winding_number(F, window: Window) -> int:
    """Exact zero count (with multiplicity) of F inside the window, or in
    a slightly jittered one when a zero seems to sit on the contour."""
    return _counted(_Samples(F), window)[1]


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
    too.  :func:`find_zeros` passes its :class:`_Samples` as F, so a
    residual known from an earlier level is not taken again.
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
    done = [i for i in range(len(boxes)) if z[i] is not None]
    residuals = np.abs(F(np.array([z[i] for i in done], dtype=complex)))
    out: list = [None] * len(boxes)
    for i, r in zip(done, residuals):
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


def _split_line(w: Window, lo: Window, hi: Window) -> list:
    """The line that splits ``w`` into ``lo`` and ``hi`` as lines to file:
    its ends, on the parent's sides across it, then the line, sampled at
    the density of a fresh _N_INIT contour of the smaller half."""
    # the line is lo's right side, or its top when the split is horizontal
    h, c, a, b = _sides(lo)[1 if lo.re_max < w.re_max else 2]
    n = _intervals(b - a, 2.0 * min(lo.width + lo.height,
                                    hi.width + hi.height))
    return [(not h, a, np.array([c])), (not h, b, np.array([c])),
            (h, c, _grid(a, b, n))]


def _split_level(samples: _Samples, level: list[tuple[Window, int]]
                 ) -> list[tuple[Window, int]]:
    """The two halves of every box of a level, with their counts, in the
    level's order.

    Every box is split at the first of _FRACTIONS.  One F call samples
    all the split lines, ends first: an end that is a sample already, of
    the parent's side or of a neighbour's line, is not taken again.
    :func:`_count` then refines and counts every half of the level
    together.  A box with a half that meets a zero of F, a non-finite
    value or the round limit is split again at the next fraction, all such
    boxes together.  A negative half, or halves that do not add up to
    their parent, raise ``CertificateError``."""
    out: list = [None] * len(level)
    todo = list(range(len(level)))
    for fraction in _FRACTIONS:
        if not todo:
            break
        halves = [_split(level[i][0], fraction) for i in todo]
        lines = [_split_line(level[i][0], lo, hi)
                 for i, (lo, hi) in zip(todo, halves)]
        samples.file([end for line in lines for end in line[:2]]
                     + [line[2] for line in lines])
        counts = iter(_count(samples, [w for pair in halves for w in pair]))
        retry = []
        for i, (lo, hi) in zip(todo, halves):
            w_lo, w_hi = next(counts), next(counts)
            if isinstance(w_lo, str) or isinstance(w_hi, str):
                retry.append(i)
                continue
            wind = level[i][1]
            if min(w_lo, w_hi) < 0 or w_lo + w_hi != wind:
                raise CertificateError(
                    f"halves {lo} and {hi} count {w_lo} and {w_hi}, parent "
                    f"{wind}: the contour is undersampled")
            out[i] = ((lo, w_lo), (hi, w_hi))
        todo = retry
    if todo:
        raise BoundaryZeroError("could not place a zero-free split line in "
                                f"{level[todo[0]][0]}")
    return [half for pair in out for half in pair]


def find_zeros(F, window: Window, tol: float = 1e-10, *,
               pair) -> list[Resonance]:
    """All zeros of F in the window, each carried by a winding certificate.

    ``pair(z)`` returns F and F' on a 1-d array of points.  F is taken
    once per distinct point of the search (:class:`_Samples`).  The boxes
    are bisected level by level until they isolate single zeros.  Every
    winding-1 box of a level is polished by :func:`_newton` from its
    centre, all of them in one ``pair`` call per Newton step; the boxes
    whose polish escapes or fails its residual are bisected together
    (:func:`_split_level`), and both halves of each are counted from their
    own sides.  The certificates of the returned zeros add up to the
    winding number of the full window; when a zero seems to sit on its
    contour, that is a window jittered slightly outward, and it is the one
    subdivided.  A negative count, or halves that do not add up to their
    parent, raise ``CertificateError``.  Zero clusters that cannot be
    separated above ``max(50 tol, 1e-12 window.diameter)`` are reported as
    a single record with winding > 1 and a nonzero cluster radius (their
    residual may exceed ``tol``).
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    min_box = max(50.0 * tol, 1e-12 * window.diameter)
    samples = _Samples(F)
    box, total = _counted(samples, window)
    found: list[Resonance] = []
    level: list[tuple[Window, int]] = [(box, total)]
    while level:
        # unresolved clusters: report their centres with the cluster radius
        clusters = [(b, w) for b, w in level if w and b.diameter <= min_box]
        if clusters:
            res = np.abs(samples(np.array([b.center for b, _ in clusters])))
            found += [Resonance(b.center, float(r), w, 0,
                                cluster_radius=0.5 * b.diameter)
                      for (b, w), r in zip(clusters, res)]
        level = [(b, w) for b, w in level if w and b.diameter > min_box]
        polished = iter(_newton(samples, pair,
                                [b for b, w in level if w == 1], tol))
        deeper: list[tuple[Window, int]] = []
        for box, wind in level:
            zero = next(polished) if wind == 1 else None
            if zero is None:
                deeper.append((box, wind))
            else:
                found.append(Resonance(zero[0], zero[1], 1, zero[2]))
        level = _split_level(samples, deeper)

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
