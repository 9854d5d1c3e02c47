"""Coupling functions: finite sums of Hermite-polynomial x Gaussian terms.

A :class:`FormFactor` is a finite sum of terms ``c * x^d * exp(-w x^2/2 + b x)``
with Re(w) > 0.  The family is closed under Fourier transform, products,
translation, modulation and dilation, so every operation here is exact
coefficient algebra; no quadrature is involved except in tests.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from ._gauss import gaussian_poly_integral

__all__ = [
    "Term",
    "FormFactor",
    "conj_reflect",
    "translate_modulate",
    "dilate",
]


class Term(NamedTuple):
    coeff: complex
    degree: int
    width: complex
    drift: complex


def _canonical(terms: Iterable[Term]) -> tuple[Term, ...]:
    merged: dict[tuple, complex] = {}
    for t in terms:
        c = complex(t.coeff)
        if c == 0:
            continue
        if t.degree < 0:
            raise ValueError("term degree must be nonnegative")
        w = complex(t.width)
        if w.real <= 0.0:
            raise ValueError(f"term width must have positive real part, got {w}")
        key = (int(t.degree), w, complex(t.drift))
        merged[key] = merged.get(key, 0.0 + 0.0j) + c
    out = [
        Term(c, d, w, b)
        for (d, w, b), c in merged.items()
        if c != 0
    ]
    out.sort(key=lambda t: (t.degree, t.width.real, t.width.imag,
                            t.drift.real, t.drift.imag))
    return tuple(out)


@dataclass(frozen=True)
class FormFactor:
    """Immutable coupling function; all operations return new instances."""

    terms: tuple[Term, ...]

    def __init__(self, terms: Iterable[Term] = ()):
        object.__setattr__(self, "terms", _canonical(terms))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "FormFactor":
        return cls(())

    @classmethod
    def gaussian(cls, amplitude: complex = 0.1, width: complex = 1.0) -> "FormFactor":
        """amplitude * exp(-width x^2 / 2)"""
        return cls((Term(complex(amplitude), 0, complex(width), 0.0j),))

    @classmethod
    def monomial_gaussian(cls, coeff: complex, degree: int,
                          width: complex = 1.0) -> "FormFactor":
        """coeff * x^degree * exp(-width x^2 / 2)"""
        return cls((Term(complex(coeff), int(degree), complex(width), 0.0j),))

    # -- evaluation ----------------------------------------------------

    def __call__(self, x):
        """Evaluate at (arrays of) real or complex points."""
        x = np.asarray(x, dtype=complex)
        out = np.zeros_like(x)
        for c, d, w, b in self.terms:
            out = out + c * x**d * np.exp(-0.5 * w * x * x + b * x)
        return out if out.shape else complex(out)

    # -- exact integrals ----------------------------------------------

    def integral(self) -> complex:
        """Exact ``int f(x) dx`` over the real line."""
        total = 0.0 + 0.0j
        for c, d, w, b in self.terms:
            mono = [0.0] * d + [1.0]
            total += c * gaussian_poly_integral(mono, w / 2.0, b)
        return total

    def inner(self, other: "FormFactor") -> complex:
        """L2 inner product (antilinear in self): int conj(self) * other."""
        return self.conj_position().product(other).integral()

    def norm_sq(self) -> float:
        v = self.inner(self)
        return float(v.real)

    # -- algebra -------------------------------------------------------

    def product(self, other: "FormFactor") -> "FormFactor":
        terms = []
        for c1, d1, w1, b1 in self.terms:
            for c2, d2, w2, b2 in other.terms:
                terms.append(Term(c1 * c2, d1 + d2, w1 + w2, b1 + b2))
        return FormFactor(terms)

    def conj_position(self) -> "FormFactor":
        """Pointwise complex conjugate on the real axis."""
        return FormFactor(
            Term(t.coeff.conjugate(), t.degree, t.width.conjugate(),
                 t.drift.conjugate())
            for t in self.terms
        )

    def reflect(self) -> "FormFactor":
        """Parity: x -> -x."""
        return FormFactor(
            Term(t.coeff * (-1) ** t.degree, t.degree, t.width, -t.drift)
            for t in self.terms
        )

    # -- Fourier transform ---------------------------------------------
    # Convention: fhat(k) = (2 pi)^{-1/2} int exp(-i k x) f(x) dx.

    @cached_property
    def _transform(self) -> "FormFactor":
        out: list[Term] = []
        for c, d, w, b in self.terms:
            base = Term(c * w ** (-0.5) * cmath.exp(b * b / (2.0 * w)),
                        0, 1.0 / w, -1j * b / w)
            cur = [base]
            for _ in range(d):
                cur = [Term(1j * t.coeff, t.degree, t.width, t.drift)
                       for t in _derivative(cur)]
            out.extend(cur)
        return FormFactor(out)

    def transform(self) -> "FormFactor":
        return self._transform

    def width_extent(self, tail: float = 1e-22) -> float:
        """Half-width L with |f| < tail * scale outside [-L, L]."""
        if not self.terms:
            return 1.0
        wmin = min(t.width.real for t in self.terms)
        dmax = max(t.degree for t in self.terms)
        bmax = max(abs(t.drift.real) for t in self.terms)
        L = math.sqrt(2.0 * (-math.log(tail) + dmax + 1.0) / wmin)
        for _ in range(40):
            g = 0.5 * wmin * L * L - bmax * L - dmax * math.log(max(L, 1.0))
            if g >= -math.log(tail):
                break
            L *= 1.1
        return L

    # -- serialization ---------------------------------------------------

    def to_records(self) -> list[list[float]]:
        return [
            [t.coeff.real, t.coeff.imag, t.degree,
             t.width.real, t.width.imag, t.drift.real, t.drift.imag]
            for t in self.terms
        ]

    @classmethod
    def from_records(cls, records) -> "FormFactor":
        terms = []
        for rec in records:
            rec = list(rec) + [0.0] * (7 - len(rec))
            terms.append(Term(complex(rec[0], rec[1]), int(rec[2]),
                              complex(rec[3], rec[4]), complex(rec[5], rec[6])))
        return cls(terms)


def _derivative(terms: Iterable[Term]) -> list[Term]:
    """d/dk of a term list (same representation)."""
    out = []
    for c, d, w, b in terms:
        if d > 0:
            out.append(Term(c * d, d - 1, w, b))
        if b != 0:
            out.append(Term(c * b, d, w, b))
        out.append(Term(-c * w, d + 1, w, b))
    return out


# -- module-level operations ------------------------------------------------


def conj_reflect(phi: FormFactor) -> FormFactor:
    """The coupling whose transform is k -> conj(phihat(conj k)).

    In position space this is x -> conj(phi(-x)); an involution, and the
    identity on real even couplings.
    """
    return phi.conj_position().reflect()


def translate_modulate(phi: FormFactor, shift: float, momentum_shift: float = 0.0,
                       phase: float = 0.0) -> FormFactor:
    """exp(i phase) exp(i momentum_shift x) phi(x + shift), exactly.

    Unitary for real parameters, so the L2 norm is preserved.
    """
    a = complex(shift)
    out: list[Term] = []
    for c, d, w, b in phi.terms:
        pref = c * cmath.exp(-0.5 * w * a * a + b * a + 1j * phase)
        for j in range(d + 1):
            out.append(Term(pref * math.comb(d, j) * a ** (d - j), j, w,
                            b - w * a + 1j * momentum_shift))
    return FormFactor(out)


def dilate(phi: FormFactor, theta) -> FormFactor:
    """Dilation group action (U(theta) phi)(x) = e^{theta/2} phi(e^theta x).

    Exact on the representation; the group law U(t1)U(t2) = U(t1+t2) holds
    at coefficient level.  Rejects rotations that make a width leave the
    right half-plane.
    """
    theta = complex(theta)
    scale = cmath.exp(theta)
    out = []
    for c, d, w, b in phi.terms:
        w_new = w * scale * scale
        if w_new.real <= 0.0:
            raise ValueError(
                f"dilation by theta={theta} rotates width {w} out of the "
                "right half-plane"
            )
        out.append(Term(c * cmath.exp(theta * (d + 0.5)), d, w_new, b * scale))
    return FormFactor(out)
