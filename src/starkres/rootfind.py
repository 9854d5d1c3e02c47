"""Certified zero finding for analytic functions on rectangular windows.

The argument principle is evaluated by tracking the continuous phase of F
along adaptively refined boundary samples, which yields exact integer
winding numbers without numerically integrating F'/F.  A box's boundary
is four edges; each holds its sorted samples, ends included, and the
values of F there, and the box's count is the signed sum of the phase
increments along its edges over 2 pi.  Windows are bisected level by
level until each box holds at most one zero.  The halves of a box keep
its edges, cut where the split line meets them, and share the line, so
only the line is new.  A level's split lines are sampled in one F call
and its new and cut edges refined in one F call per round.  Newton
polishing with the caller's (F, F') pair then produces residual-certified
zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

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
# phase-tracked winding numbers on shared edges


class _Edge:
    """F sampled along an axis-parallel segment: ``t`` the coordinate that
    varies along it (Re z on a horizontal edge, Im z on a vertical one),
    sorted, both ends included, ``fixed`` the other coordinate, and ``v``
    the values of F at those points."""

    __slots__ = ("horizontal", "fixed", "t", "v", "_turn")

    def __init__(self, horizontal: bool, fixed: float, t: np.ndarray,
                 v: np.ndarray | None):
        self.horizontal, self.fixed, self.t, self.v = horizontal, fixed, t, v
        self._turn: float | None = None

    def at(self, t: np.ndarray) -> np.ndarray:
        return _points(self.horizontal, self.fixed, t)

    def steps(self) -> np.ndarray:
        return np.angle(self.v[1:] / self.v[:-1])

    def turn(self) -> float:
        """The phase increment of F along the edge, in increasing ``t``."""
        if self._turn is None:
            self._turn = float(np.sum(self.steps()))
        return self._turn

    def has(self, c: float) -> bool:
        """Whether ``t = c`` is a sample."""
        return bool(self.t[np.searchsorted(self.t, c)] == c)

    def cut(self, c: float, vc: complex | None) -> tuple["_Edge", "_Edge"]:
        """The two edges either side of the point at ``t = c``, strictly
        inside, where F is ``vc`` unless that point is a sample already;
        both hold the point."""
        i = int(np.searchsorted(self.t, c))
        t, v = self.t, self.v
        if t[i] != c:
            t = np.insert(t, i, c)
            v = np.insert(v, i, vc)
        return (_Edge(self.horizontal, self.fixed, t[:i + 1], v[:i + 1]),
                _Edge(self.horizontal, self.fixed, t[i:], v[i:]))


class _Box(NamedTuple):
    """A window and the edges of its boundary, each stored in increasing
    coordinate: bottom and right run counterclockwise, top and left
    clockwise."""

    window: Window
    bottom: _Edge
    right: _Edge
    top: _Edge
    left: _Edge

    def edges(self) -> list[_Edge]:
        return [self.bottom, self.right, self.top, self.left]

    def winding(self) -> int:
        turns = (self.bottom.turn() + self.right.turn() - self.top.turn()
                 - self.left.turn())
        return round(turns / (2.0 * math.pi))


def _points(horizontal: bool, fixed: float, t: np.ndarray) -> np.ndarray:
    z = np.empty(t.shape, dtype=complex)
    if horizontal:
        z.real, z.imag = t, fixed
    else:
        z.real, z.imag = fixed, t
    return z


def _values(F, z: np.ndarray) -> np.ndarray:
    if not z.size:
        return np.empty(0, dtype=complex)
    return np.asarray(F(z), dtype=complex).ravel()


def _intervals(length: float, perimeter: float) -> int:
    """Sample intervals on an edge of ``length`` at the density of _N_INIT
    samples around ``perimeter``."""
    return max(1, round(_N_INIT * length / perimeter))


def _grid(lo: float, hi: float, n: int) -> np.ndarray:
    """n equal intervals from lo to hi, both ends exact."""
    t = lo + (hi - lo) * (np.arange(n + 1) / n)
    t[-1] = hi
    return t


def _fresh_box(F, window: Window) -> _Box:
    """The box of ``window``, its edges sampled at the density of _N_INIT
    samples around its perimeter, in one F call."""
    w = window
    perimeter = 2.0 * (w.width + w.height)
    x = _grid(w.re_min, w.re_max, _intervals(w.width, perimeter))
    y = _grid(w.im_min, w.im_max, _intervals(w.height, perimeter))
    inner = y[1:-1]
    v = _values(F, np.concatenate((_points(True, w.im_min, x),
                                   _points(True, w.im_max, x),
                                   _points(False, w.re_max, inner),
                                   _points(False, w.re_min, inner))))
    bottom, top, right, left = np.split(
        v, np.cumsum([x.size, x.size, inner.size]))
    return _Box(window, _Edge(True, w.im_min, x, bottom),
                _Edge(False, w.re_max, y,
                      np.concatenate(([bottom[-1]], right, [top[-1]]))),
                _Edge(True, w.im_max, x, top),
                _Edge(False, w.re_min, y,
                      np.concatenate(([bottom[0]], left, [top[0]]))))


def _refine(F, groups: list[list[_Edge]]) -> list[str | None]:
    """Refine the edges of every group until no phase step between
    neighbouring samples exceeds _PHASE_STEP_MAX, in one F call per round
    for all of them: a round samples the midpoint of every such step.  Per
    group, None once its edges are resolved, or why they are not: a sample
    where F is 0 or not finite, or steps that _PHASE_ROUNDS rounds leave
    too large.  An edge that groups share is refined once; it stops being
    refined when every group it belongs to has failed."""
    failure: list[str | None] = [None] * len(groups)
    owners: dict[int, tuple[_Edge, list[int]]] = {}
    for k, group in enumerate(groups):
        for e in group:
            owners.setdefault(id(e), (e, []))[1].append(k)

    def fail(ks, why):
        for k in ks:
            failure[k] = failure[k] or why

    for e, ks in owners.values():
        if not np.all(np.isfinite(e.v) & (e.v != 0)):
            fail(ks, "F is zero or not finite on the contour")
    pending = list(owners.values())
    for rounds in range(_PHASE_ROUNDS + 1):
        work = []
        for e, ks in pending:
            if any(failure[k] is None for k in ks):
                bad = np.flatnonzero(np.abs(e.steps()) > _PHASE_STEP_MAX)
                if bad.size:
                    work.append((e, ks, bad))
        if not work:
            break
        if rounds == _PHASE_ROUNDS:
            for _, ks, _ in work:
                fail(ks, "phase refinement exceeded its depth limit")
            break
        mids = [0.5 * (e.t[bad] + e.t[bad + 1]) for e, _, bad in work]
        v = _values(F, np.concatenate([e.at(t) for (e, _, _), t
                                       in zip(work, mids)]))
        start = 0
        for (e, ks, bad), t in zip(work, mids):
            vm = v[start:start + t.size]
            start += t.size
            e.t = np.insert(e.t, bad + 1, t)
            e.v = np.insert(e.v, bad + 1, vm)
            if not np.all(np.isfinite(vm) & (vm != 0)):
                fail(ks, "F is zero or not finite on the contour")
        pending = [(e, ks) for e, ks, _ in work]
    return failure


def _counted(F, window: Window) -> tuple[_Box, int]:
    """The box the zero count of F was taken on, and that count: the
    window itself or, when its contour meets a zero, the first of up to
    three deterministic outward jitters of it whose contour gives a count.
    A negative count raises ``CertificateError``."""
    last = None
    for factor in (0.0,) + _JITTER:
        box = _fresh_box(F, window if factor == 0.0
                         else window.expanded(factor))
        last = _refine(F, [box.edges()])[0]
        if last is None:
            wind = box.winding()
            if wind < 0:
                raise CertificateError(
                    f"negative winding {wind}: the contour is undersampled")
            return box, wind
    raise BoundaryZeroError(f"winding failed after jitter retries: {last}")


def winding_number(F, window: Window) -> int:
    """Exact zero count (with multiplicity) of F inside the window, or in
    a slightly jittered one when a zero seems to sit on the contour."""
    return _counted(F, window)[1]


# ----------------------------------------------------------------------
# Newton polishing and certified subdivision


def _newton(F, pair, boxes: list[Window], tol: float,
            residuals: dict | None = None) -> list:
    """Polish one zero per box, every box together: (z, residual,
    iterations) per box, or None where its polish fails.

    Each box starts from its centre.  A step is one ``pair`` call on the
    boxes still iterating.  A box stops once its step is below
    1e-14 (1 + |z|), or after _NEWTON_MAX_ITER steps.  It fails when F or
    F' is not finite or F' is 0, and when a step leaves the box padded by
    a quarter of its diameter.  One F call then gives the residuals: a
    polished zero with a residual above tol, or outside its box, fails
    too.  ``residuals`` maps the points whose residual is known to it;
    the call takes F only at the others, and adds them.
    """
    residuals = {} if residuals is None else residuals
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
    new = list(dict.fromkeys(z[i] for i in done if z[i] not in residuals))
    residuals.update(zip(new, np.abs(_values(F, np.array(new)))))
    out: list = [None] * len(boxes)
    for i in done:
        r = residuals[z[i]]
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


class _Cut(NamedTuple):
    """A box split at a fraction: its two halves, in :func:`_split`'s
    order, the two edges the split line cuts, where it starts and ends,
    and the line, its samples ``t`` placed and F not yet taken."""

    lo: Window
    hi: Window
    a: _Edge
    b: _Edge
    line: _Edge


def _cut(box: _Box, fraction: float) -> _Cut:
    """The split of a box at ``fraction``, its line sampled at the density
    of a fresh _N_INIT contour of the smaller half."""
    w = box.window
    lo, hi = _split(w, fraction)
    perimeter = 2.0 * min(lo.width + lo.height, hi.width + hi.height)
    if lo.re_max < w.re_max:        # a vertical line, bottom to top
        c, a, b = lo.re_max, box.bottom, box.top
        t = _grid(w.im_min, w.im_max, _intervals(w.height, perimeter))
    else:                           # a horizontal line, left to right
        c, a, b = lo.im_max, box.left, box.right
        t = _grid(w.re_min, w.re_max, _intervals(w.width, perimeter))
    return _Cut(lo, hi, a, b, _Edge(not a.horizontal, c, t, None))


def _halves(box: _Box, cut: _Cut, pieces: dict) -> tuple[_Box, _Box]:
    """The two boxes of a sampled cut, from the ``pieces`` of the cut
    edges, keyed by edge and cut point."""
    line = cut.line
    a0, a1 = pieces[id(cut.a), line.fixed]
    b0, b1 = pieces[id(cut.b), line.fixed]
    if line.horizontal:
        return (_Box(cut.lo, box.bottom, b0, line, a0),
                _Box(cut.hi, line, b1, box.top, a1))
    return (_Box(cut.lo, a0, line, b0, box.left),
            _Box(cut.hi, a1, box.right, b1, line))


def _split_level(F, level: list[tuple[_Box, int]]) -> list[tuple[_Box, int]]:
    """The two halves of every box of a level, with their counts, in the
    level's order.

    Every box is cut at the first of _FRACTIONS (:func:`_cut`).  One F
    call samples all the split lines; a line's end that falls on a sample
    of the parent's edge reuses it, and boxes stacked across an edge they
    share cut it once.  :func:`_refine` then resolves every new or cut
    edge of the level together.  A box whose new edges meet a zero of F,
    a non-finite value or the round limit is cut again at the next
    fraction, all such boxes together.  Both halves are counted from
    their own edges; a negative half, or halves that do not add up to
    their parent, raise ``CertificateError``."""
    out: list = [None] * len(level)
    todo = list(range(len(level)))
    for fraction in _FRACTIONS:
        if not todo:
            break
        cuts = [_cut(level[i][0], fraction) for i in todo]
        # the cut points, each edge cut once at each
        ends = {(id(e), cut.line.fixed): e
                for cut in cuts for e in (cut.a, cut.b)}
        new = [key for key, e in ends.items() if not e.has(key[1])]
        v = _values(F, np.concatenate(
            [ends[key].at(np.array([key[1]])) for key in new]
            + [cut.line.at(cut.line.t[1:-1]) for cut in cuts]))
        at_new = dict(zip(new, v))
        pieces = {key: e.cut(key[1], at_new.get(key))
                  for key, e in ends.items()}
        start = len(new)
        for cut in cuts:
            stop = start + cut.line.t.size - 2
            cut.line.v = np.concatenate(
                (pieces[id(cut.a), cut.line.fixed][0].v[-1:], v[start:stop],
                 pieces[id(cut.b), cut.line.fixed][0].v[-1:]))
            start = stop
        halves = [_halves(level[i][0], cut, pieces)
                  for i, cut in zip(todo, cuts)]
        # the parent's edges among them are resolved already
        failures = _refine(F, [lo.edges() + hi.edges() for lo, hi in halves])
        retry = []
        for i, (lo, hi), failure in zip(todo, halves, failures):
            if failure is not None:
                retry.append(i)
                continue
            wind = level[i][1]
            w_lo, w_hi = lo.winding(), hi.winding()
            if min(w_lo, w_hi) < 0 or w_lo + w_hi != wind:
                raise CertificateError(
                    f"halves {lo.window} and {hi.window} count {w_lo} and "
                    f"{w_hi}, parent {wind}: the contour is undersampled")
            out[i] = ((lo, w_lo), (hi, w_hi))
        todo = retry
    if todo:
        raise BoundaryZeroError("could not place a zero-free split line in "
                                f"{level[todo[0]][0].window}")
    return [half for pair in out for half in pair]


def find_zeros(F, window: Window, tol: float = 1e-10, *,
               pair) -> list[Resonance]:
    """All zeros of F in the window, each carried by a winding certificate.

    ``pair(z)`` returns F and F' on a 1-d array of points.  The boxes are
    bisected level by level until they isolate single zeros.  Every
    winding-1 box of a level is polished by :func:`_newton` from its
    centre, all of them in one ``pair`` call per Newton step; the boxes
    whose polish escapes or fails its residual are bisected together
    (:func:`_split_level`), and both halves of each are counted from their
    own edges.  The certificates of the returned zeros add up to the
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
    box, total = _counted(F, window)
    found: list[Resonance] = []
    residuals: dict[complex, float] = {}
    level: list[tuple[_Box, int]] = [(box, total)]
    while level:
        # unresolved clusters: report their centres with the cluster radius
        clusters = [(b.window, w) for b, w in level
                    if w and b.window.diameter <= min_box]
        if clusters:
            centres = np.array([b.center for b, _ in clusters])
            res = np.abs(np.asarray(F(centres), dtype=complex))
            found += [Resonance(b.center, float(r), w, 0,
                                cluster_radius=0.5 * b.diameter)
                      for (b, w), r in zip(clusters, res)]
        level = [(b, w) for b, w in level
                 if w and b.window.diameter > min_box]
        polished = iter(_newton(F, pair,
                                [b.window for b, w in level if w == 1], tol,
                                residuals))
        deeper: list[tuple[_Box, int]] = []
        for box, wind in level:
            zero = next(polished) if wind == 1 else None
            if zero is None:
                deeper.append((box, wind))
            else:
                found.append(Resonance(zero[0], zero[1], 1, zero[2]))
        level = _split_level(F, deeper)

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
