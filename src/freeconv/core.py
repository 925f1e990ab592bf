"""2x2 quaternionic block algebra and the one-sided phase rotations.

Non-hermitian resolvents are represented by matrices of the form

    [[a, i*b], [i*conj(b), conj(a)]]

which are closed under multiplication and inversion.  The compact (a, b)
representation carries the same information as the full 2x2 matrix and is what
the solvers iterate on; the full matrix form is used for residual checks and
for applying the one-sided phase rotations.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrixError

_DET_FLOOR = 1e-300


@dataclass(frozen=True)
class Complex2x2:
    """Dense 2x2 complex matrix with just the operations the solvers need."""

    q11: complex
    q12: complex
    q21: complex
    q22: complex

    def __matmul__(self, other: "Complex2x2") -> "Complex2x2":
        return Complex2x2(
            self.q11 * other.q11 + self.q12 * other.q21,
            self.q11 * other.q12 + self.q12 * other.q22,
            self.q21 * other.q11 + self.q22 * other.q21,
            self.q21 * other.q12 + self.q22 * other.q22,
        )

    def __sub__(self, other: "Complex2x2") -> "Complex2x2":
        return Complex2x2(self.q11 - other.q11, self.q12 - other.q12,
                          self.q21 - other.q21, self.q22 - other.q22)

    def scale(self, s: complex) -> "Complex2x2":
        return Complex2x2(s * self.q11, s * self.q12, s * self.q21, s * self.q22)

    @property
    def det(self) -> complex:
        return self.q11 * self.q22 - self.q12 * self.q21

    def norm_max(self) -> float:
        """Entrywise max-abs norm, used for residual reporting; NaN if any
        entry is NaN.  Entries may be numpy arrays of matching shape."""
        return np.maximum(np.maximum(abs(self.q11), abs(self.q12)),
                          np.maximum(abs(self.q21), abs(self.q22)))

    @staticmethod
    def identity() -> "Complex2x2":
        return Complex2x2(1.0, 0.0, 0.0, 1.0)

    @staticmethod
    def diagonal(d1: complex, d2: complex) -> "Complex2x2":
        return Complex2x2(d1, 0.0, 0.0, d2)


def invert(m: Complex2x2) -> Complex2x2:
    """Inverse of a 2x2 matrix; raises SingularMatrixError when |det| underflows."""
    d = m.det
    if abs(d) <= _DET_FLOOR:
        raise SingularMatrixError(abs(d))
    return Complex2x2(m.q22 / d, -m.q12 / d, -m.q21 / d, m.q11 / d)


@dataclass(frozen=True)
class QuaternionicGreen:
    """Compact (a, b) form of the structured 2x2 resolvent block."""

    a: complex
    b: complex

    def embed(self) -> Complex2x2:
        return embed_parts(self.a, self.b)


def embed_parts(a, b) -> Complex2x2:
    """The full matrix [[a, i b], [i conj(b), conj(a)]] of the structured
    block with parts (a, b), which may be numpy arrays of matching shape."""
    return Complex2x2(a, 1j * b, 1j * b.conjugate(), a.conjugate())


def qmul_parts(xa, xb, ya, yb):
    """The (a, b) parts of the product of two structured matrices given by
    their (a, b) parts, which may be numpy arrays of matching shape."""
    return xa * ya - xb * yb.conjugate(), xa * yb + xb * ya.conjugate()


def qinv_parts(a: np.ndarray, b: np.ndarray):
    """The (a, b) parts of the inverse of the structured matrices given by
    their (a, b) parts held in numpy arrays, elementwise; NaN where the
    determinant |a|^2 + |b|^2 (real and >= 0 for this structure) underflows."""
    d = abs(a) ** 2 + abs(b) ** 2
    d = np.where(d > _DET_FLOOR, d, np.nan)
    return a.conjugate() / d, -b / d


def _turn(m: Complex2x2, u) -> Complex2x2:
    """[m]^L for u = e^{i psi}, and [m]^R for u = e^{-i psi}: q12 times u,
    q21 over u; diagonal untouched.  The entries and u may be arrays."""
    return Complex2x2(m.q11, u * m.q12, m.q21 / u, m.q22)


def rotate_left(m: Complex2x2, psi: float) -> Complex2x2:
    """[X]^L: multiply q12 by e^{i psi} and q21 by e^{-i psi}; diagonal untouched."""
    return _turn(m, cmath.exp(1j * psi))


def rotate_right(m: Complex2x2, psi: float) -> Complex2x2:
    """[X]^R: multiply q12 by e^{-i psi} and q21 by e^{i psi}; diagonal untouched."""
    return _turn(m, cmath.exp(-1j * psi))
