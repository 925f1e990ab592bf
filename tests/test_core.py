"""Tests for the 2x2 quaternionic block algebra and phase rotations."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from freeconv.core import (
    Complex2x2,
    QuaternionicGreen,
    invert,
    qinv_parts,
    qmul_parts,
    rotate_left,
    rotate_right,
)
from freeconv.errors import SingularMatrixError

PAIRS = [
    (0.3 - 0.7j, 1.1 + 0.2j),
    (1.0, 0.0),
    (0.0, 2.5j),
    (-0.4 + 0.9j, -0.1 - 0.3j),
]


@pytest.mark.parametrize("a,b", PAIRS)
def test_embed_structure(a, b):
    m = QuaternionicGreen(a, b).embed()
    assert m.q11 == a
    assert m.q12 == 1j * b
    assert m.q21 == 1j * b.conjugate()
    assert m.q22 == a.conjugate()


def qmul(x: QuaternionicGreen, y: QuaternionicGreen) -> QuaternionicGreen:
    return QuaternionicGreen(*qmul_parts(x.a, x.b, y.a, y.b))


@pytest.mark.parametrize("x,y", [(PAIRS[0], PAIRS[1]), (PAIRS[0], PAIRS[3]),
                                 (PAIRS[2], PAIRS[3])])
def test_qmul_matches_full_matrix_product(x, y):
    qx, qy = QuaternionicGreen(*x), QuaternionicGreen(*y)
    compact = qmul(qx, qy).embed()
    full = qx.embed() @ qy.embed()
    for field in ("q11", "q12", "q21", "q22"):
        assert getattr(compact, field) == pytest.approx(getattr(full, field), abs=1e-14)


@pytest.mark.parametrize("a,b", PAIRS[:2] + PAIRS[3:])
def test_qmul_closure(a, b):
    # the structured form is closed under multiplication: 22 entry stays
    # the conjugate of the 11 entry
    prod = qmul(QuaternionicGreen(a, b), QuaternionicGreen(0.2 + 1j, -0.5j))
    m = prod.embed()
    assert m.q22 == m.q11.conjugate()
    assert m.q21 == pytest.approx((-1j * m.q12).conjugate() * 1j, abs=1e-15)


@pytest.mark.parametrize("a,b", [(0.3 - 0.7j, 1.1 + 0.2j), (2.0, 1.0j)])
def test_qinv_is_inverse(a, b):
    inv = QuaternionicGreen(*(complex(v) for v in qinv_parts(np.array(a), np.array(b))))
    ident = qmul(QuaternionicGreen(a, b), inv)
    assert ident.a == pytest.approx(1.0, abs=1e-14)
    assert ident.b == pytest.approx(0.0, abs=1e-14)


def test_qinv_parts_zero_is_nan():
    # the solvers call it under np.errstate, as here
    with np.errstate(invalid="ignore"):
        a, b = qinv_parts(np.zeros(2, dtype=complex), np.array([0.0, 1.0 + 1.0j]))
    assert np.isnan(a[0]) and np.isnan(b[0])
    assert a[1] == 0.0 and b[1] == pytest.approx(-0.5 - 0.5j, abs=1e-15)


def test_quaternionic_det_real_nonnegative():
    q = QuaternionicGreen(0.3 - 0.7j, 1.1 + 0.2j)
    assert q.embed().det == pytest.approx(abs(q.a) ** 2 + abs(q.b) ** 2, abs=1e-14)


def test_invert_2x2():
    m = Complex2x2(1.0 + 1j, 0.5, -0.25j, 2.0)
    ident = m @ invert(m)
    assert ident.q11 == pytest.approx(1.0, abs=1e-14)
    assert ident.q12 == pytest.approx(0.0, abs=1e-14)
    assert ident.q21 == pytest.approx(0.0, abs=1e-14)
    assert ident.q22 == pytest.approx(1.0, abs=1e-14)


def test_invert_singular_raises():
    with pytest.raises(SingularMatrixError):
        invert(Complex2x2(1.0, 2.0, 2.0, 4.0))


M = Complex2x2(0.3 + 1j, -0.7 + 0.2j, 1.5j, 0.4)


@pytest.mark.parametrize("psi", [0.0, 0.3, -2.7, math.pi / 2, 3.1])
def test_rotations_are_mutually_inverse(psi):
    back = rotate_right(rotate_left(M, psi), psi)
    forth = rotate_left(rotate_right(M, psi), psi)
    for field in ("q11", "q12", "q21", "q22"):
        assert getattr(back, field) == pytest.approx(getattr(M, field), abs=1e-15)
        assert getattr(forth, field) == pytest.approx(getattr(M, field), abs=1e-15)


@pytest.mark.parametrize("psi", [0.4, -1.2])
def test_rotate_left_is_diagonal_conjugation(psi):
    u = Complex2x2.diagonal(cmath.exp(0.5j * psi), cmath.exp(-0.5j * psi))
    expected = u @ M @ invert(u)
    got = rotate_left(M, psi)
    for field in ("q11", "q12", "q21", "q22"):
        assert getattr(got, field) == pytest.approx(getattr(expected, field), abs=1e-14)


def test_rotation_preserves_quaternionic_structure():
    q = QuaternionicGreen(0.6 - 0.1j, 0.9 + 0.4j).embed()
    r = rotate_left(q, 1.1)
    assert r.q22 == r.q11.conjugate()
    # q12 = i*b', q21 = i*conj(b') for the rotated b' = b e^{i psi}
    assert r.q21 == pytest.approx(1j * (-1j * r.q12).conjugate(), abs=1e-15)


def test_rotation_diagonal_untouched():
    r = rotate_left(M, 2.2)
    assert r.q11 == M.q11 and r.q22 == M.q22
