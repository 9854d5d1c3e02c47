import math

import numpy as np
import pytest

from conftest import R0
from starkres import (
    BoundaryZeroError,
    CertificateError,
    ResolventEvaluator,
    Window,
    find_zeros,
    rootfind,
    winding_number,
)
from starkres.oracle import grid_scan


def poly_from_roots(roots):
    def F(z):
        out = np.ones_like(np.asarray(z, dtype=complex))
        for r in roots:
            out = out * (np.asarray(z, dtype=complex) - r)
        return out
    return F


def poly_pair(roots):
    F = poly_from_roots(roots)
    dp = np.polyder(np.poly(roots))
    return lambda z: (F(z), np.polyval(dp, z))


def test_window_validation():
    with pytest.raises(ValueError):
        Window(1.0, 0.5, -1.0, -0.1)
    with pytest.raises(ValueError):
        Window(0.5, 1.0, -0.1, -1.0)
    with pytest.raises(ValueError, match="finite"):
        Window(0.5, math.inf, -1.0, -0.1)
    with pytest.raises(ValueError, match="finite"):
        Window(0.5, 1.5, -math.inf, -0.1)


@pytest.mark.parametrize("tol", (0.0, -1.0, math.nan, math.inf))
def test_find_zeros_requires_positive_finite_tol(tol):
    roots = [1 - 0.5j]
    with pytest.raises(ValueError, match="tol"):
        find_zeros(poly_from_roots(roots), Window(0.5, 1.5, -1.0, -0.1),
                   tol=tol, pair=poly_pair(roots))


def test_winding_linear():
    F = poly_from_roots([1.0 - 0.0j])
    assert winding_number(F, Window(0.5, 1.5, -0.5, 0.5)) == 1
    assert winding_number(F, Window(2.0, 3.0, -0.5, 0.5)) == 0


def test_winding_reference_window(coupling):
    ev = ResolventEvaluator(coupling, 0.0)
    assert winding_number(ev.F_value, Window(0.9, 1.1, -0.05, -0.001)) == 1


def test_winding_random_cubics(rng):
    # the count from phase tracking equals the count from the root list
    for _ in range(20):
        roots = [complex(2 * rng.randn(), 2 * rng.randn()) for _ in range(3)]
        F = poly_from_roots(roots)
        w = Window(-1.5, 1.5, -1.5, 1.5)
        inside = sum(1 for r in roots
                     if w.re_min < r.real < w.re_max
                     and w.im_min < r.imag < w.im_max)
        near_edge = any(
            min(abs(r.real - w.re_min), abs(r.real - w.re_max),
                abs(r.imag - w.im_min), abs(r.imag - w.im_max)) < 1e-3
            for r in roots)
        if near_edge:
            continue
        assert winding_number(F, w) == inside


def test_find_zeros_polynomial():
    roots = [1 - 0.5j, 2 - 0.25j, 1.5 - 1j]
    out = find_zeros(poly_from_roots(roots), Window(0.5, 2.5, -1.5, -0.1),
                     tol=1e-12, pair=poly_pair(roots))
    assert len(out) == 3
    for r, expect in zip(out, sorted(roots, key=lambda z: z.real)):
        assert abs(r.z - expect) < 1e-10
        assert r.winding == 1
        assert r.residual < 1e-12
    # the Newton steps each zero took when it was polished alone
    assert [r.iterations for r in out] == [5, 9, 7]


def test_find_zeros_bisects_a_box_that_escapes_beside_one_that_converges():
    # the window counts two zeros, so the first level that Newton polishes
    # is its two halves, in one pair call per step: the first step from the
    # left half's centre leaves the padded box, while the right half
    # converges alone; the left half is then bisected and its zero found
    roots = [0.05 - 0.05j, 1.4 - 0.45j, 0.5 - 1.5j]
    window = Window(0.0, 2.0, -1.0, 0.0)
    F, pair = poly_from_roots(roots), poly_pair(roots)
    sizes = []

    def counting(z):
        sizes.append(z.size)
        return pair(z)

    left, right = rootfind._newton(F, counting, list(rootfind._split(window)),
                                   1e-10)
    assert left is None and abs(right[0] - roots[1]) < 1e-12
    assert sizes[0] == 2 and set(sizes[1:]) == {1}
    out = find_zeros(F, window, tol=1e-10, pair=pair)
    assert [r.winding for r in out] == [1, 1]
    for r, expect in zip(out, roots[:2]):
        assert abs(r.z - expect) < 1e-10
        assert r.residual < 1e-10


def test_find_zeros_requires_pair():
    with pytest.raises(TypeError):
        find_zeros(poly_from_roots([1 - 0.5j]), Window(0.5, 1.5, -1.0, -0.1))


def test_find_zeros_on_split_line():
    # a zero exactly on the midline of the window must not be lost or
    # double counted by the subdivision
    roots = [1.5 - 1.0j, 1 - 0.5j, 2 - 0.25j]
    out = find_zeros(poly_from_roots(roots), Window(0.5, 2.5, -1.5, -0.1),
                     pair=poly_pair(roots))
    assert len(out) == 3
    assert sum(r.winding for r in out) == 3


def test_find_zeros_reference(coupling):
    ev = ResolventEvaluator(coupling, 0.0)
    out = find_zeros(ev.F_value, Window(0.9, 1.1, -0.05, -1e-4), tol=1e-10,
                     pair=ev.F_pair)
    assert len(out) == 1
    assert abs(out[0].z - R0) < 1e-8
    assert out[0].residual < 1e-10


def test_find_zeros_empty_window(coupling):
    from starkres import FormFactor
    ev = ResolventEvaluator(FormFactor.zero(), 0.0)
    out = find_zeros(ev.F_value, Window(1.5, 2.0, -0.5, -0.01),
                     pair=ev.F_pair)
    assert out == []


def test_find_zeros_against_grid_scan(coupling):
    ev = ResolventEvaluator(coupling, 0.01)
    w = Window(0.9, 1.1, -0.05, -1e-6)
    zeros = find_zeros(ev.F_value, w, tol=1e-9, pair=ev.F_pair)
    cands = grid_scan(ev.F_value, w, n=80, threshold=0.05)
    cell = max(w.width, w.height) / 79.0
    # recall: every certified zero shows up as a scan minimum
    for r in zeros:
        assert min(abs(c - r.z) for c in cands) < 2.0 * cell
    # precision: interior minima all correspond to certified zeros (edge
    # minima may point at zeros just outside the window)
    for c in cands:
        interior = (w.re_min + cell < c.real < w.re_max - cell
                    and w.im_min + cell < c.imag < w.im_max - cell)
        if interior:
            assert min(abs(c - r.z) for r in zeros) < 2.0 * cell


def test_double_zero_reported_with_multiplicity():
    F = lambda z: (np.asarray(z, dtype=complex) - (1.2 - 0.6j)) ** 2
    out = find_zeros(F, Window(1.0, 1.4, -0.8, -0.4), tol=1e-10,
                     pair=poly_pair([1.2 - 0.6j, 1.2 - 0.6j]))
    assert sum(r.winding for r in out) == 2
    assert all(abs(r.z - (1.2 - 0.6j)) < 1e-6 for r in out)


def test_certificate_additivity_random_partitions(rng):
    roots = [0.5 - 0.5j, 1.2 - 0.9j, -0.4 - 0.3j, 0.9 - 1.4j]
    F = poly_from_roots(roots)
    w = Window(-1.0, 1.6, -1.8, -0.05)
    total = winding_number(F, w)
    for _ in range(50):
        frac = 0.2 + 0.6 * rng.rand()
        if rng.rand() < 0.5:
            cut = w.re_min + frac * w.width
            w1 = Window(w.re_min, cut, w.im_min, w.im_max)
            w2 = Window(cut, w.re_max, w.im_min, w.im_max)
        else:
            cut = w.im_min + frac * w.height
            w1 = Window(w.re_min, w.re_max, w.im_min, cut)
            w2 = Window(w.re_min, w.re_max, cut, w.im_max)
        assert winding_number(F, w1) + winding_number(F, w2) == total


def test_polish_stable_under_tightened_tolerance(coupling):
    ev = ResolventEvaluator(coupling, 0.0)
    w = Window(0.9, 1.1, -0.05, -1e-4)
    loose = find_zeros(ev.F_value, w, tol=1e-8, pair=ev.F_pair)
    tight = find_zeros(ev.F_value, w, tol=1e-12, pair=ev.F_pair)
    assert abs(loose[0].z - tight[0].z) < 1e-7


def test_determinism(coupling):
    ev = ResolventEvaluator(coupling, 0.02)
    w = Window(0.9, 1.1, -0.05, -1e-6)
    a = find_zeros(ev.F_value, w, tol=1e-9, pair=ev.F_pair)
    b = find_zeros(ev.F_value, w, tol=1e-9, pair=ev.F_pair)
    assert [(r.z, r.residual, r.winding) for r in a] \
        == [(r.z, r.residual, r.winding) for r in b]
    assert [r.z for r in a] == sorted((r.z for r in a),
                                      key=lambda z: (z.real, z.imag))


def test_axis_guard_flags_shallow_zeros():
    # a zero within 10 tol of the axis is found like any other
    z0 = 1.0 - 5e-9j
    F = lambda z: np.asarray(z, dtype=complex) - z0
    out = find_zeros(F, Window(0.5, 1.5, -0.4, -1e-12), tol=1e-9,
                     pair=poly_pair([z0]))
    assert len(out) == 1
    assert abs(out[0].z - z0) < 1e-9


def test_winding_zero_on_boundary_jitters():
    # a zero exactly on the contour is resolved by the deterministic
    # window jitter instead of failing
    F = poly_from_roots([1.0 - 0.5j])
    w = Window(0.5, 1.0, -1.0, -0.1)   # zero on the right edge
    assert winding_number(F, w) in (0, 1)


@pytest.mark.parametrize("eps", [1e-11, 1e-12, 1e-13])
def test_find_zeros_subdivides_the_jittered_window(eps):
    # a zero just outside the right edge makes the plain contour fail, so
    # the count comes from an outward-jittered window; the subdivision
    # must search that window, or it hunts for a zero that is not there
    roots = [1.0 - 0.02j, 1.1 + eps - 0.0213j]
    out = find_zeros(poly_from_roots(roots), Window(0.9, 1.1, -0.05, -1e-6),
                     tol=1e-9, pair=poly_pair(roots))
    assert len(out) == 2
    for r, expect in zip(out, roots):
        assert abs(r.z - expect) < 1e-10
        assert r.winding == 1
        assert r.cluster_radius == 0.0
        assert r.residual < 1e-9


def test_find_zeros_reports_an_unresolved_cluster():
    # two zeros 1.4e-10 apart cannot be separated above 50 tol: one record
    # of winding 2 whose cluster radius covers both; 1e-7 apart they are
    # resolved into two simple zeros
    a = 1.23 - 0.61j
    window = Window(1.0, 1.4, -0.8, -0.4)
    roots = [a, a + 1e-10 * (1 + 1j)]
    out = find_zeros(poly_from_roots(roots), window, tol=1e-9,
                     pair=poly_pair(roots))
    assert len(out) == 1
    r = out[0]
    assert r.winding == 2
    assert 0.0 < r.cluster_radius <= 2.5e-8
    assert all(abs(r.z - z) <= r.cluster_radius for z in roots)
    roots = [a, a + 1e-7]
    out = find_zeros(poly_from_roots(roots), window, tol=1e-9,
                     pair=poly_pair(roots))
    assert [r.winding for r in out] == [1, 1]
    for r, expect in zip(out, roots):
        assert abs(r.z - expect) < 1e-9
        assert r.cluster_radius == 0.0


# the default dc window, where the zero cloud of the reference Gaussian
# grows like 0.065/f
DC_WINDOW = Window(0.9, 1.1, -0.05, -1e-6)


def test_find_zeros_certifies_the_cloud_at_f_0_004(coupling):
    ev = ResolventEvaluator(coupling, 0.004)
    out = find_zeros(ev.F_value, DC_WINDOW, tol=1e-9,
                     pair=ev.F_pair)
    assert len(out) == 16
    for r in out:
        assert r.winding == 1
        assert DC_WINDOW.contains(r.z)
        assert r.residual <= 1e-9


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the 64 initial contour samples alias the phase "
                   "of the cloud: no zero is counted where 26 lie")
def test_dc_count_at_f_0_0025(coupling):
    ev = ResolventEvaluator(coupling, 0.0025)
    out = find_zeros(ev.F_value, DC_WINDOW, tol=1e-9, pair=ev.F_pair)
    assert sum(r.winding for r in out) == 26


def test_count_is_taken_on_the_requested_window(coupling):
    # the nearest zero sits 1.4e-5 below the top edge; no jitter is needed,
    # so every point the count takes lies on the edges of DC_WINDOW itself
    ev = ResolventEvaluator(coupling, 0.005)
    points = []

    def F(z):
        points.append(z)
        return ev.F_value(z)

    assert winding_number(F, DC_WINDOW) == 13
    z, w = np.concatenate(points), DC_WINDOW
    inside = ((w.re_min <= z.real) & (z.real <= w.re_max)
              & (w.im_min <= z.imag) & (z.imag <= w.im_max))
    on_edge = (np.isin(z.real, (w.re_min, w.re_max))
               | np.isin(z.imag, (w.im_min, w.im_max)))
    assert np.all(inside & on_edge)


def test_negative_winding_raises(coupling):
    # at f = 0.003 the 64 initial samples alias the cloud's phase and the
    # sum comes out at -4 turns, which no analytic F can give
    ev = ResolventEvaluator(coupling, 0.003)
    with pytest.raises(CertificateError, match="negative winding"):
        winding_number(ev.F_value, DC_WINDOW)


def test_half_counted_above_its_parent_raises():
    # the window holds two zeros, one in each half; handed to the split as
    # a box that counts none, its halves count more than their parent
    roots = [1 - 0.5j, 2 - 0.25j]
    F = poly_from_roots(roots)
    box, wind = rootfind._counted(F, Window(0.5, 2.5, -1.5, -0.1))
    assert wind == 2
    assert [w for _, w in rootfind._split_level(F, [(box, wind)])] == [1, 1]
    with pytest.raises(CertificateError, match="count 1 and 1, parent 0"):
        rootfind._split_level(F, [(box, 0)])


def test_halves_that_disagree_with_their_parent_raise(coupling):
    # at f = 0.002 the edges of [0.9, 1.0] x DC_WINDOW's height alias the
    # cloud's phase: refined on the halves, they count one zero more
    ev = ResolventEvaluator(coupling, 0.002)
    with pytest.raises(CertificateError, match="count 2 and 2, parent 3"):
        find_zeros(ev.F_value, DC_WINDOW, tol=1e-9, pair=ev.F_pair)


def test_zero_or_nonfinite_sample_is_a_contour_zero():
    w = Window(-1.0, 1.0, -1.0, 1.0)
    for value in (0.0, np.nan, np.inf):
        # at a corner: that sample fails the contour, and a jittered
        # window, which misses the point, takes the count
        F = lambda z, v=value: np.where(np.asarray(z) == -1 - 1j, v, 1.0 + 0j)
        box = rootfind._fresh_box(F, w)
        assert rootfind._refine(F, [[box.bottom, box.right, box.top,
                                     box.left]]) \
            == ["F is zero or not finite on the contour"]
        assert winding_number(F, w) == 0
        # on the left edge of the window and of every jitter of it
        F = lambda z, v=value: np.where(np.asarray(z).real <= -1.0, v,
                                        1.0 + 0j)
        with pytest.raises(BoundaryZeroError, match="zero or not finite"):
            winding_number(F, w)


# nine zeros spread over the window, none near a split line of it
SPREAD = [complex(0.1 + 2.8 * a, -0.1 - 1.3 * b) for a, b in zip(
    (0.551, 0.708, 0.291, 0.511, 0.893, 0.896, 0.126, 0.207, 0.051),
    (0.441, 0.030, 0.457, 0.649, 0.278, 0.676, 0.591, 0.024, 0.559))]
SPREAD_WINDOW = Window(0.0, 3.0, -1.5, 0.0)


def test_a_level_is_split_in_one_call_per_round():
    # a level makes one F call for all its split lines, then one per
    # refinement round for all its new edges: as many calls as the box
    # that needs the most rounds makes when it is split alone
    F = poly_from_roots(SPREAD)
    box, wind = rootfind._counted(F, SPREAD_WINDOW)
    assert wind == 9
    level = [(box, wind)]
    sizes, refined = [], 0
    while level:
        calls = []
        deeper = rootfind._split_level(
            lambda z: calls.append(z.size) or F(z), level)
        alone = []
        for item in level:
            one = []
            rootfind._split_level(lambda z: one.append(z.size) or F(z),
                                  [item])
            alone.append(len(one))
        assert len(calls) == max(alone)
        refined += len(calls) > 1
        sizes.append(len(level))
        level = [(b, w) for b, w in deeper if w and b.window.diameter > 0.1]
    assert max(sizes) >= 8 and refined >= 2


def test_no_point_is_evaluated_twice():
    F = poly_from_roots(SPREAD)
    points = []

    def counting(z):
        points.append(z)
        return F(z)

    out = find_zeros(counting, SPREAD_WINDOW, tol=1e-10,
                     pair=poly_pair(SPREAD))
    assert len(out) == 9
    for r, expect in zip(out, sorted(SPREAD, key=lambda z: z.real)):
        assert abs(r.z - expect) < 1e-10
    z = np.concatenate(points)
    assert np.unique(z).size == z.size


@pytest.mark.parametrize("pair", [
    lambda z: (z - 1.0 + 0.5j, np.zeros_like(z)),
    lambda z: (z - 1.0 + 0.5j, np.full_like(z, np.inf)),
    lambda z: (z - 1.0 + 0.5j, np.full_like(z, np.nan)),
    lambda z: (np.full_like(z, np.nan), np.ones_like(z)),
], ids=("dF-zero", "dF-inf", "dF-nan", "F-nan"))
def test_newton_fails_a_box_where_F_or_dF_is_unusable(pair):
    # the box's centre is the zero of z - 1 + 0.5i, but F' there is 0 or
    # not finite, or F is not finite: the polish fails after one step,
    # and no residual is taken
    residuals = {}
    assert rootfind._newton(lambda z: z - 1.0 + 0.5j, pair,
                            [Window(0.5, 1.5, -1.0, 0.0)], 1e-10,
                            residuals) == [None]
    assert residuals == {}


@pytest.mark.parametrize("value", (0.0, np.nan, np.inf))
def test_refine_fails_an_edge_with_a_bad_midpoint(value):
    # the phase turns by pi along [0, 1], so refinement samples its
    # midpoint, where F is 0 or not finite
    edge = rootfind._Edge(True, 0.0, np.array([0.0, 1.0]),
                          np.array([1.0 + 0j, -1.0 + 0j]))
    F = lambda z: np.where(z.real == 0.5, value, 1.0 + 0j)
    assert rootfind._refine(F, [[edge]]) == [
        "F is zero or not finite on the contour"]


def test_split_level_without_a_zero_free_line_raises():
    # F is not finite strictly inside the window, so every split line
    # fails, at each of the fractions
    window = Window(0.5, 2.5, -1.5, -0.1)
    F = poly_from_roots([1 - 0.5j, 2 - 0.25j])
    box, wind = rootfind._counted(F, window)

    def inside_nan(z):
        inside = ((window.re_min < z.real) & (z.real < window.re_max)
                  & (window.im_min < z.imag) & (z.imag < window.im_max))
        return np.where(inside, np.nan, F(z))

    with pytest.raises(BoundaryZeroError, match="zero-free split line"):
        rootfind._split_level(inside_nan, [(box, wind)])


def test_find_zeros_raises_when_the_certificates_miss_the_count(
        monkeypatch):
    # a merge that loses one of the two certified zeros leaves their sum
    # below the window's winding number
    merge = rootfind._merge_duplicates
    monkeypatch.setattr(rootfind, "_merge_duplicates",
                        lambda items, radius: merge(items, radius)[1:])
    roots = [1 - 0.5j, 2 - 0.25j]
    with pytest.raises(CertificateError, match="certificate mismatch: "
                       "window winding 2, sum of zero certificates 1"):
        find_zeros(poly_from_roots(roots), Window(0.5, 2.5, -1.5, -0.1),
                   pair=poly_pair(roots))
