"""Tests for the 2x2 quaternionic solvers, support boundaries, and 2D densities."""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
import random
import warnings
from unittest import mock

import numpy as np
import pytest
from numpy.linalg import eigvals  # bound here: some tests patch np.linalg.eigvals
from hypothesis import example, given, settings, strategies as st

from freeconv import cli, hermitian, nonhermitian
from freeconv.core import Complex2x2, _turn, invert
from freeconv.ensembles import EnsembleSpec, sample
from freeconv.errors import ConvergenceError, FreeconvError, GridError, OriginError
from freeconv.grids import GridSpec
from freeconv.hermitian import gaussian_transform, green_from_r
from freeconv.nonhermitian import (
    MatrixRMap,
    boundary_curve,
    branch_indicator,
    constant_rmap,
    density_at,
    density_field,
    elliptic_rmap,
    ginibre_rmap,
    gue_rmap,
    limacon_reference,
    residual_identities,
    solve_product,
    solve_single,
)

GIN = ginibre_rmap(1.0)
SHIFTED = elliptic_rmap(1.0, 0.0, 1.0)  # unit-shift Ginibre
TAU_PAIR = (elliptic_rmap(1.0, 0.5, 0.7), elliptic_rmap(1.0, 0.5, 0.5 + 0.3j))


# ---------------------------------------------------------------------------
# single-matrix solutions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("theta", [0.0, 1.1, -2.3, 3.0])
def test_ginibre_inside(theta):
    z = cmath.rect(0.5, theta)
    sol = solve_single(GIN, z)
    assert sol.branch == "nonholomorphic"
    assert sol.gm.a == pytest.approx(z.conjugate(), abs=1e-10)
    assert abs(sol.gm.b) ** 2 == pytest.approx(0.75, abs=1e-10)
    assert sol.correlator == pytest.approx(0.75, abs=1e-10)
    assert sol.residual <= 1e-10


@pytest.mark.parametrize("theta", [0.0, 2.0, -0.7])
def test_ginibre_outside(theta):
    z = cmath.rect(2.0, theta)
    sol = solve_single(GIN, z)
    assert sol.branch == "holomorphic"
    assert sol.gm.a == pytest.approx(1.0 / z, abs=1e-10)
    assert abs(sol.gm.b) <= 1e-10
    assert sol.correlator <= 1e-12


@pytest.mark.parametrize("x", [0.0, 0.7, -1.3])
def test_gue_channel_reduces_to_hermitian_green(x):
    # tau = 1 embeds the hermitian problem; the 11 entry must reproduce the
    # scalar Green's function on a vertical line
    z = complex(x, 0.5)
    sol = solve_single(gue_rmap(1.0), z)
    assert sol.gm.a == pytest.approx(green_from_r(gaussian_transform(1.0), z).g, abs=1e-8)


def test_solution_is_quaternionic_structured():
    m = solve_single(elliptic_rmap(1.0, 0.5), 0.2 + 0.1j).gm.embed()
    assert m.q22 == m.q11.conjugate()
    assert m.q21 == pytest.approx(1j * (-1j * m.q12).conjugate(), abs=1e-15)


def test_elliptic_law_inside():
    # Sommers, Crisanti, Sompolinsky & Stein (PRL 60, 1895, 1988): inside the
    # ellipse with semi-axes (1 + tau) sigma and (1 - tau) sigma around the
    # shift c, G11 = (Re w / (1 + tau) - i Im w / (1 - tau)) / sigma^2, w = z - c
    rng = np.random.default_rng(1988)
    worst = 0.0
    for _ in range(300):
        tau, sigma = rng.uniform(-0.9, 0.9), rng.uniform(0.4, 2.0)
        shift = complex(*rng.uniform(0.0, 1.0, 2))
        frac, theta = 0.95 * math.sqrt(rng.uniform()), rng.uniform(-math.pi, math.pi)
        w = complex((1.0 + tau) * sigma * frac * math.cos(theta),
                    (1.0 - tau) * sigma * frac * math.sin(theta))
        sol = solve_single(elliptic_rmap(sigma, tau, shift), shift + w)
        assert sol.branch == "nonholomorphic"
        want = complex(w.real / (1.0 + tau), -w.imag / (1.0 - tau)) / sigma ** 2
        worst = max(worst, abs(sol.gm.a - want))
    assert worst <= 1e-10


def test_solve_at_origin_raises():
    with pytest.raises(OriginError):
        solve_single(GIN, 0.0)
    with pytest.raises(OriginError):
        solve_product(GIN, GIN, 0.0)


def test_nonfinite_map_raises_library_error():
    # the elliptic constructor rejects the non-finite sigma
    with pytest.raises(FreeconvError):
        solve_product(elliptic_rmap(float("inf")), GIN, 0.5)


@pytest.mark.parametrize("kwargs", [
    dict(sigma=math.nan), dict(sigma=math.inf), dict(sigma=1e200),
    dict(shift=math.nan), dict(shift=complex(0.0, -math.inf)),
])
def test_elliptic_rmap_rejects_nonfinite(kwargs):
    with pytest.raises(FreeconvError, match="finite"):
        elliptic_rmap(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(sigma=-1.0), dict(sigma=-1e-300), dict(sigma=-2),
    dict(sigma="x"), dict(sigma="1.0"), dict(sigma=None), dict(sigma=1j),
    dict(tau="0.5"), dict(tau=None), dict(shift="1"), dict(shift=[1.0]),
])
def test_elliptic_rmap_rejects_negative_sigma_and_non_numbers(kwargs):
    # R depends on sigma^2 only, but the support scale and the closed forms
    # read sigma itself: a negative one gave a negative boundary radius and a
    # zero density with no error
    with pytest.raises(FreeconvError):
        elliptic_rmap(**kwargs)
    # sigma = 0 stays valid: the deterministic shift * I
    assert elliptic_rmap(sigma=0.0, shift=2.0).sigma == 0.0


def test_fixed_point_rejects_nonfinite_step():
    # node 0 steps to inf and fails alone; node 1, a contraction, converges
    def step(x, nodes):
        return np.where(nodes == 0, complex(math.inf, 0.0), 0.5 * x + 1.0)

    fp = nonhermitian._fixed_point(step, np.full((1, 2), 0.5 + 0j), 1e-12,
                                   nonhermitian._MAX_FP, nonhermitian._HANDOFF)
    assert fp.failed.tolist() == [True, False]
    assert abs(fp.values[0, 1] - 2.0) <= 1e-12


def test_fixed_point_converges_a_contraction():
    # v -> m v + c with |m| <= 0.5 has the fixed point c / (1 - m); three
    # nodes with different multipliers stop after different numbers of steps,
    # each as if solved alone
    m = np.array([0.3 + 0.4j, -0.5, 0.1j])
    c = np.array([[1.0 - 2.0j, 0.5, 2.0j], [0.5j, -1.0, 3.0]])

    def solve(nodes):
        return nonhermitian._fixed_point(lambda x, k: m[nodes][k] * x + c[:, nodes][:, k],
                                         np.zeros((2, len(nodes)), complex), 1e-12,
                                         nonhermitian._MAX_FP, nonhermitian._HANDOFF)

    fp = solve([0, 1, 2])
    assert np.all((0 < fp.iterations) & (fp.iterations < nonhermitian._MAX_FP))
    assert len(set(fp.iterations.tolist())) == 3
    assert not fp.capped.any() and not fp.failed.any()
    assert np.max(np.abs(fp.values - c / (1.0 - m))) <= 1e-12
    for j in range(3):
        alone = solve([j])
        assert alone.iterations[0] == fp.iterations[j]
        assert np.array_equal(alone.values[:, 0], fp.values[:, j])


def test_fixed_point_hands_slow_contractions_to_newton():
    # multiplier 1 - 1e-4: from the seed 0 the damped update starts at |c|
    # and shrinks by a factor 1 - 5e-5 per step; c is sized so that it is
    # still over twice _HANDOFF after _MAX_FP steps, so the loop runs to its
    # cap and Newton converges the rest
    m = 1.0 - 1e-4
    c = 2.0 * nonhermitian._HANDOFF * (1.0 + 1.0j) / (1.0 - 5e-5) ** nonhermitian._MAX_FP
    fp = nonhermitian._fixed_point(lambda x, nodes: m * x + c, np.zeros((1, 1), complex),
                                   1e-12, nonhermitian._MAX_FP, nonhermitian._HANDOFF)
    assert fp.iterations[0] == nonhermitian._MAX_FP and fp.capped[0]
    v = fp.values[0, 0]
    assert abs(m * v + c - v) <= 1e-12
    assert abs(v - c / (1.0 - m)) <= 1e-8


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def test_product_inside_circular():
    z = 0.25
    sol = solve_product(GIN, GIN, z)
    # G11 = conj(z) / (|z| * sigma_a * sigma_b), C = 1 - |z| for unit sigmas
    assert sol.gm.a == pytest.approx(1.0, abs=1e-8)
    assert sol.correlator == pytest.approx(0.75, abs=1e-8)
    assert sol.branch == "nonholomorphic"


@pytest.mark.parametrize("theta", [0.3, -1.8])
def test_product_outside_circular(theta):
    z = cmath.rect(4.0, theta)
    sol = solve_product(GIN, GIN, z)
    assert sol.gm.a == pytest.approx(1.0 / z, abs=1e-10)
    assert sol.correlator <= 1e-12
    assert sol.branch == "holomorphic"


@pytest.mark.parametrize("theta", [0.0, 0.9, -2.1])
def test_product_rotational_symmetry(theta):
    # centered factors give a rotationally invariant spectrum
    base = solve_product(GIN, GIN, 0.4)
    rot = solve_product(GIN, GIN, cmath.rect(0.4, theta))
    assert abs(rot.gm.a) == pytest.approx(abs(base.gm.a), abs=1e-9)
    assert rot.correlator == pytest.approx(base.correlator, abs=1e-9)


def test_product_scaled_sigmas():
    # support radius is the product of the scales
    e1, e2 = elliptic_rmap(1.3), elliptic_rmap(0.7)
    s = 1.3 * 0.7
    inside = solve_product(e1, e2, 0.5 * s)
    assert abs(inside.gm.a) == pytest.approx(1.0 / s, abs=1e-8)
    outside = solve_product(e1, e2, 1.5 * s)
    assert outside.gm.a == pytest.approx(1.0 / (1.5 * s), abs=1e-9)


def test_shifted_product_correlator():
    # on the positive real axis at r = 0.5 the closed form gives
    # C = (-1 - 2r + sqrt(1 + 8r(1 + cos phi))) / 2 = (-2 + 3) / 2 = 0.5
    sol = solve_product(SHIFTED, SHIFTED, 0.5)
    assert sol.correlator == pytest.approx(0.5, abs=1e-8)


@pytest.mark.parametrize("z", [0.8 + 0.3j, 1.5 + 0.5j, 0.5 - 0.8j, 2.4 + 0.1j])
def test_shifted_product_matches_limacon_reference(z):
    sol = solve_product(SHIFTED, SHIFTED, z)
    ref = limacon_reference(abs(z), cmath.phase(z))
    assert sol.gm.a == pytest.approx(ref.G, abs=1e-8)
    assert sol.correlator == pytest.approx(ref.C, abs=1e-8)


def test_constant_factor_rescales():
    # B = c * identity just rescales the spectrum of A
    sol = solve_product(GIN, constant_rmap(2.0), 1.0 + 0.2j)
    single = solve_single(GIN, (1.0 + 0.2j) / 2.0)
    assert sol.gm.a == pytest.approx(single.gm.a / 2.0, abs=1e-8)


def test_shifted_record_matches_elliptic_shift():
    # a map shifted by c is the record with shift + c
    gin = ginibre_rmap(1.0)
    a = elliptic_rmap(gin.sigma, gin.tau, gin.shift + 1.0)
    assert (a.sigma, a.tau, a.shift) == (SHIFTED.sigma, SHIFTED.tau, SHIFTED.shift)
    sol1 = solve_product(a, a, 0.8 + 0.3j)
    sol2 = solve_product(SHIFTED, SHIFTED, 0.8 + 0.3j)
    assert sol1.gm.a == pytest.approx(sol2.gm.a, abs=1e-10)


# ---------------------------------------------------------------------------
# branch indicator and boundary
# ---------------------------------------------------------------------------


def test_branch_indicator_signs():
    assert branch_indicator(GIN, GIN, 0.5) > 0
    assert branch_indicator(GIN, GIN, 1.5) < 0
    assert branch_indicator(SHIFTED, SHIFTED, 1.2) > 0      # inside (limit 3)
    assert branch_indicator(SHIFTED, SHIFTED, 3.5) < 0


@pytest.mark.parametrize("phi", [0.2, 1.4, -2.6])
def test_branch_indicator_vanishes_at_circle(phi):
    lo = branch_indicator(GIN, GIN, cmath.rect(1.0 - 1e-5, phi))
    hi = branch_indicator(GIN, GIN, cmath.rect(1.0 + 1e-5, phi))
    assert lo > 0 > hi
    assert abs(lo) <= 1e-4 and abs(hi) <= 1e-4


def test_boundary_circle():
    res = boundary_curve(GIN, GIN, angular_samples=32)
    assert not res.empty_rays
    for r, _phi in res.points:
        assert r == pytest.approx(1.0, abs=1e-4)


def test_boundary_scaled_circle():
    res = boundary_curve(elliptic_rmap(1.3), elliptic_rmap(0.7), angular_samples=16)
    for r, _phi in res.points:
        assert r == pytest.approx(0.91, abs=1e-4)


def test_boundary_limacon():
    res = boundary_curve(SHIFTED, SHIFTED, angular_samples=48)
    for r, phi in res.points:
        assert r == pytest.approx(1.0 + 2.0 * math.cos(phi), abs=1e-3)
    # rays pointing away from the support (cos phi < -1/2) find nothing
    assert res.empty_rays
    assert all(abs(phi) > 2.0 * math.pi / 3.0 - 0.1 for phi in res.empty_rays)


def test_boundary_respects_explicit_cap():
    # support reaches r = 1 everywhere; a cap below that reports empty rays
    res = boundary_curve(GIN, GIN, angular_samples=8, r_max=0.5)
    assert not res.points
    assert len(res.empty_rays) == 8


@pytest.mark.parametrize("kwargs,match", [
    ({"angles": [0.3, math.nan]}, "must be finite"),
    ({"angles": [math.inf, 0.3]}, "must be finite"),
    ({"angles": [-math.inf]}, "must be finite"),
    ({"angular_samples": 8, "r_max": math.nan}, "must be finite"),
    ({"angular_samples": 8, "r_max": math.inf}, "must be finite"),
    # a negative r_max would locate a point at a negative radius, and one at
    # or below _R_MIN would leave an empty radial range
    ({"angles": [0.3], "r_max": -2.0}, "must be positive"),
    ({"angles": [0.3], "r_max": 0.0}, "must be positive"),
    ({"angles": [0.3], "r_max": 5e-5}, "above r_min"),
    ({"angular_samples": 8.5}, "integer"),
    ({"angular_samples": 4}, "integer of at least 8"),
    # inputs that are not real numbers, and an angle list that is not one
    ({"angles": ["a"]}, "must be finite real numbers"),
    ({"angles": [None]}, "must be finite real numbers"),
    ({"angles": [0.3, 1j]}, "must be finite real numbers"),
    ({"angles": [True]}, "must be finite real numbers"),
    ({"angles": 5}, "iterable of real numbers"),
    ({"angular_samples": 8, "r_max": "2"}, "must be finite real numbers"),
    ({"angles": [10 ** 400]}, "must be finite real numbers"),
], ids=["nan_angle", "inf_angle", "minus_inf_angle", "nan_r_max", "inf_r_max",
        "negative_r_max", "zero_r_max", "r_max_below_r_min", "fractional_samples",
        "too_few_samples", "string_angle", "none_angle", "complex_angle", "bool_angle",
        "scalar_angles", "string_r_max", "huge_integer_angle"])
def test_boundary_rejects_nonfinite_inputs_before_any_probe(kwargs, match, monkeypatch):
    def no_probe(*args):
        raise AssertionError("probe built for invalid input")

    monkeypatch.setattr(nonhermitian, "_holomorphic_probe", no_probe)
    with pytest.raises(FreeconvError, match=match):
        boundary_curve(GIN, GIN, **kwargs)


# ---------------------------------------------------------------------------
# exact affine route against the generic route
# ---------------------------------------------------------------------------


def oracle_section(rmap: MatrixRMap) -> hermitian.ScalarTransform:
    """rmap's diagonal section built without affine: every solve on it takes
    the hermitian generic route (auxiliary fixed point, ladder)."""
    return hermitian.ScalarTransform(f"{rmap.name}|diag",
                                     lambda x: rmap.apply_q(x, 0.0)[0], rmap.kappa1)


def stability_eigenvalues(z, g, sa, sb, la, lb):
    """Eigenvalues of branch_indicator's stability matrix, written out as an
    explicit complex 2x2 matrix and handed to np.linalg.eigvals: a reference
    that shares no arithmetic with _stability_radius.  z, g, the diagonal
    self-energies sa, sb and the b-couplings la, lb broadcast; the two
    eigenvalues are the last axis."""
    z, g, sa, sb = np.broadcast_arrays(*(np.asarray(v, dtype=complex) for v in (z, g, sa, sb)))
    phase, g2 = np.exp(1j * np.angle(z)), abs(g) ** 2
    m = np.empty(z.shape + (2, 2), dtype=complex)
    m[..., 0, 0] = abs(sa) ** 2 * g2 * lb
    m[..., 0, 1] = phase * la * (g + g2 * np.conjugate(sa * sb))
    m[..., 1, 0] = lb * (np.conjugate(g) + g2 * sa * sb) / phase
    m[..., 1, 1] = abs(sb) ** 2 * g2 * la
    return eigvals(m)


def stability_radius(z, g, sa, sb, la, lb):
    """Spectral radius minus one of stability_eigenvalues."""
    return abs(stability_eigenvalues(z, g, sa, sb, la, lb)).max(axis=-1) - 1.0


def point_probe(ta: hermitian.ScalarTransform, tb: hermitian.ScalarTransform, la, lb):
    """_holomorphic_probe's contract, point by point: multiply_r_system on the
    diagonal sections ta, tb at each z, and stability_radius with the
    b-couplings la, lb.  Its root is the homotopy ladder's continuation of
    g ~ 1/z from infinity, which in a hole of the support is unstable."""

    def probe(z):
        z = np.asarray(z)
        indicator, residual = np.full(z.shape, np.nan), np.full(z.shape, np.nan)
        g, ga, gb = (np.full(z.shape, np.nan + 0j) for _ in range(3))
        ok = np.zeros(z.shape, dtype=bool)
        for k, zk in np.ndenumerate(z):
            zk = complex(zk)
            try:
                pg = hermitian.multiply_r_system(ta, tb, zk)
            except FreeconvError:
                continue
            indicator[k] = stability_radius(
                zk, pg.g, ta.r_eval(pg.g_b), tb.r_eval(pg.g_a), la, lb)
            g[k], ga[k], gb[k], residual[k] = pg
            ok[k] = True
        return indicator, hermitian.ProductGreens(g, ga, gb, residual), ok

    return probe


def oracle_probe(rmap_a: MatrixRMap, rmap_b: MatrixRMap):
    """point_probe on the oracle sections: the generic route throughout."""
    return point_probe(oracle_section(rmap_a), oracle_section(rmap_b),
                       rmap_a.sigma ** 2, rmap_b.sigma ** 2)


def ladder_probe(rmap_a: MatrixRMap, rmap_b: MatrixRMap):
    """point_probe on the exact affine sections: the ladder on R_AB = P Q / D^2,
    independent of the probe's polynomial, and faster than the oracle."""
    return point_probe(rmap_a.diagonal_section(), rmap_b.diagonal_section(),
                       rmap_a.sigma ** 2, rmap_b.sigma ** 2)


def assert_stable_root(rmap_a: MatrixRMap, rmap_b: MatrixRMap, z: complex, indicator, g):
    """g, the probe's root at z with that indicator, solves the product
    system on the oracle sections and is stable: z is outside the support,
    in a hole of it where the ladder's root is unstable."""
    oa, ob = oracle_section(rmap_a), oracle_section(rmap_b)
    ga, gb = hermitian._product_aux(oa, ob, g)
    sa, sb = oa.r_eval(gb), ob.r_eval(ga)
    assert abs(g * (z - sa * sb) - 1.0) <= 1e-10
    radius = stability_radius(z, g, sa, sb, rmap_a.sigma ** 2, rmap_b.sigma ** 2)
    assert radius == pytest.approx(indicator, abs=1e-8) and radius <= 0.0


# (sigma, tau, shift) of A and B, and a z in a hole of the support of AB
HOLE = ((1.728, 0.812, -1.394 - 1.317j), (1.729, -0.914, -0.679 - 1.148j), -0.583 - 0.102j)
HOLE_PAIR, HOLE_Z = (elliptic_rmap(*HOLE[0]), elliptic_rmap(*HOLE[1])), HOLE[2]
# the stable root of the pair's polynomial at HOLE_Z (40-digit arithmetic)
HOLE_G = -0.022830913653848782574 + 0.19703779215678268616j


# draws 11, 87 and 417 of the 16 in a 600-point sample (random.Random(5),
# elliptic pairs with sigma in [0.3, 2], tau in [-1, 1], shifts in the box
# +-1.5 +-1.5i) where the ladder's root is unstable but the fixed point sinks to
# b = 0: holes of the support, where the stable root is another one
COLLAPSED = [
    ((0.35562607394776885, -0.012871603158335576, 1.0152878435043968 - 1.10828451854064j),
     (1.54382951974035, 0.8995971252437975, 0.3911978802791838 + 0.8640286493410709j),
     0.43191294590630247 - 0.18834032820150523j),
    ((1.0025341792494495, 0.7484156761117036, 0.9770492039400702 + 1.2460666872150727j),
     (0.9435168886582603, 0.998100605840305, 0.7687383629361189 + 1.1753378735129107j),
     -0.12266855126380577 + 0.6235067732364095j),
    ((1.4906267502159827, 0.7935119982516607, 0.738587354044518 - 1.3726904244861244j),
     (1.7176925414418152, 0.5374200780322977, 0.29303541364196883 - 1.3768375944441824j),
     -0.3684531340339739 - 0.017352918537383737j),
]


def _hole_examples(test):
    """test with an explicit example at each COLLAPSED point and at HOLE."""
    for pa, pb, z in COLLAPSED + [HOLE]:
        test = example(elliptic_rmap(*pa), elliptic_rmap(*pb), z)(test)
    return test


def close(u: complex, v: complex, tol: float = 1e-10) -> bool:
    return abs(u - v) <= tol * max(1.0, abs(v))


SIGMAS = st.floats(0.3, 2.0)
TAUS = st.floats(-1.0, 1.0)
SHIFT_PARTS = st.floats(-1.5, 1.5)
ELLIPTIC = st.builds(lambda s, t, re, im: elliptic_rmap(s, t, complex(re, im)),
                     SIGMAS, TAUS, SHIFT_PARTS, SHIFT_PARTS)
POINTS = st.builds(cmath.rect, st.floats(0.05, 6.0), st.floats(-math.pi, math.pi))
DIFFERENTIAL = settings(max_examples=60, deadline=None, derandomize=True,
                        database=None)


@DIFFERENTIAL
@given(ELLIPTIC, ELLIPTIC, POINTS)
@_hole_examples
def test_affine_product_matches_generic_route(rmap_a, rmap_b, z):
    ta, tb = rmap_a.diagonal_section(), rmap_b.diagonal_section()
    assert ta.affine is not None and tb.affine is not None
    oa, ob = oracle_section(rmap_a), oracle_section(rmap_b)
    assert oa.affine is None
    try:
        want = hermitian.multiply_r_system(oa, ob, z)
    except FreeconvError:
        return  # the oracle itself has no holomorphic solution here
    got = hermitian.multiply_r_system(ta, tb, z)
    assert close(got.g, want.g) and close(got.g_a, want.g_a)
    assert close(got.g_b, want.g_b)
    indicator, _, ok = oracle_probe(rmap_a, rmap_b)(z)
    assert ok
    if abs(indicator) > 1e-8:
        got_indicator, got_pg, _ = nonhermitian._holomorphic_probe(rmap_a, rmap_b)(z)
        assert got_indicator == branch_indicator(rmap_a, rmap_b, z)
        if (got_indicator > 0) != (indicator > 0):
            # only a hole, where the ladder's root is unstable, disagrees
            assert indicator > 0
            assert_stable_root(rmap_a, rmap_b, z, got_indicator, complex(got_pg.g))


@DIFFERENTIAL
@given(ELLIPTIC, ELLIPTIC, POINTS)
def test_affine_derivatives_are_exact(rmap_a, rmap_b, x):
    ta, tb = rmap_a.diagonal_section(), rmap_b.diagonal_section()
    product = hermitian.product_r_transform(ta, tb)
    x = x / 4.0
    if abs(1.0 - x * x * ta.affine[1] * tb.affine[1]) < 0.1:
        return  # next to a pole of R_AB the difference quotient is useless
    h = 1e-6
    fd = (product.r_eval(x + h) - product.r_eval(x - h)) / (2.0 * h)
    assert close(product.r_deriv(x), fd, 1e-6)
    # the b-coupling sigma^2 is d(off-diagonal out)/d(off-diagonal in) at b = 0
    coupling = (rmap_a.apply_q(0.3 + 0.1j, h)[1] - rmap_a.apply_q(0.3 + 0.1j, -h)[1]) / (2.0 * h)
    assert close(rmap_a.sigma ** 2, coupling, 1e-8)


@DIFFERENTIAL
@given(SIGMAS, TAUS, SHIFT_PARTS, SIGMAS, TAUS, SHIFT_PARTS, POINTS)
def test_affine_product_conjugation_symmetry(sa, ta, ca, sb, tb, cb, z):
    # real shifts make R real on the real axis, so g(conj z) = conj g(z)
    pa = elliptic_rmap(sa, ta, ca).diagonal_section()
    pb = elliptic_rmap(sb, tb, cb).diagonal_section()
    try:
        g = hermitian.multiply_r_system(pa, pb, z).g
    except FreeconvError:
        return
    assert close(hermitian.multiply_r_system(pa, pb, z.conjugate()).g,
                 g.conjugate())


ROTATION_INVARIANT = st.builds(lambda s, re, im: elliptic_rmap(s, 0.0, complex(re, im)),
                               SIGMAS, SHIFT_PARTS, SHIFT_PARTS)
# R_AB is also constant (= 0) when one factor is centered with tau = 0
CONSTANT_PAIRS = st.one_of(
    st.tuples(ROTATION_INVARIANT, ROTATION_INVARIANT),
    st.tuples(ELLIPTIC, st.builds(elliptic_rmap, SIGMAS)),
    st.tuples(st.builds(elliptic_rmap, SIGMAS), ELLIPTIC),
)


@DIFFERENTIAL
@given(CONSTANT_PAIRS, st.lists(POINTS, min_size=1, max_size=6))
def test_constant_product_array_matches_generic_route(maps, zs):
    rmap_a, rmap_b = maps
    probe = nonhermitian._holomorphic_probe(rmap_a, rmap_b)
    indicator, pg, ok = probe(np.array(zs))
    oracle = oracle_probe(rmap_a, rmap_b)
    for k, z in enumerate(zs):
        want_indicator, want, want_ok = oracle(np.array([z]))
        if not want_ok[0]:
            continue  # the oracle itself has no holomorphic solution here
        assert ok[k]
        # one point as a scalar takes the same closed form (numpy's scalar
        # arithmetic may round differently from its array loops)
        one_indicator, one, one_ok = probe(z)
        assert one_ok and close(one_indicator, indicator[k], 1e-12)
        assert close(one.g, pg.g[k], 1e-12) and close(one.g_a, pg.g_a[k], 1e-12)
        assert close(one.g_b, pg.g_b[k], 1e-12)
        assert close(pg.g[k], want.g[0]) and close(pg.g_a[k], want.g_a[0])
        assert close(pg.g_b[k], want.g_b[0])
        assert close(indicator[k], want_indicator[0], 1e-8)
        if abs(want_indicator[0]) > 1e-8:
            assert (indicator[k] > 0) == (want_indicator[0] > 0)


# R_AB is constant: tau_A = tau_B = 0, or a tau != 0 factor times a
# centered tau = 0 factor, in either order
TILTED = st.builds(lambda s, t, re, im: elliptic_rmap(s, t, complex(re, im)),
                   SIGMAS, TAUS.filter(bool), SHIFT_PARTS, SHIFT_PARTS)
CENTERED = st.builds(elliptic_rmap, SIGMAS)
DEGREE_ONE_PAIRS = st.one_of(st.tuples(ROTATION_INVARIANT, ROTATION_INVARIANT),
                             st.tuples(TILTED, CENTERED), st.tuples(CENTERED, TILTED))


CONSTANT = st.builds(lambda re, im: constant_rmap(complex(re, im)), SHIFT_PARTS, SHIFT_PARTS)
# degree 1, degree 5 (2 when a tau is 0) and degree 2 with a sigma = 0 factor
STABILITY_PAIRS = st.one_of(DEGREE_ONE_PAIRS, st.tuples(ELLIPTIC, ELLIPTIC),
                            st.tuples(CONSTANT, ELLIPTIC), st.tuples(ELLIPTIC, CONSTANT))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(STABILITY_PAIRS, st.lists(POINTS, min_size=1, max_size=40))
@example((GIN, GIN), [0.5, 2.0j, -3.0 + 1.0j])
@example((SHIFTED, SHIFTED), [0.5, 2.0j, -3.0 + 1.0j])
@example((gue_rmap(1.0), gue_rmap(1.0)), [0.999, -1.001, 0.5j, 2.0 - 1.0j])
@example(TAU_PAIR, [0.5, 2.0j, -3.0 + 1.0j])
@example((constant_rmap(2.0 - 0.5j), TAU_PAIR[0]), [0.5, 2.0j, -3.0 + 1.0j])
def test_probe_indicator_matches_stability_eigenvalues(maps, zs):
    # the probe's real closed form against the eigenvalues of the explicit
    # complex stability matrix at the root it certified
    rmap_a, rmap_b = maps
    zs = np.array(zs, dtype=complex)
    indicator, pg, ok = nonhermitian._holomorphic_probe(rmap_a, rmap_b)(zs)
    assert (pg.residual[ok] <= 10.0 * nonhermitian._TOL).all()
    ta, tb = rmap_a.diagonal_section(), rmap_b.diagonal_section()
    if hermitian.product_r_transform(ta, tb).affine is not None:
        # degree 1: the exact root 1/(z - c_A c_B), certified at every point
        assert ok.all() and (pg.g == 1.0 / (zs - rmap_a.shift * rmap_b.shift)).all()
    sa, sb = rmap_a.apply_q(pg.g_b, 0.0)[0], rmap_b.apply_q(pg.g_a, 0.0)[0]
    eigenvalues = stability_eigenvalues(zs, pg.g, sa, sb, rmap_a.sigma ** 2,
                                        rmap_b.sigma ** 2)[ok]
    want = abs(eigenvalues).max(axis=-1) - 1.0
    assert (abs(eigenvalues.imag) <= 1e-12 * (1.0 + abs(eigenvalues))).all()
    assert (abs(indicator[ok] - want) <= 1e-12 * (1.0 + abs(want))).all()
    decided = abs(want) > 1e-12
    assert ((indicator[ok] > 0) == (want > 0))[decided].all()


def test_constant_probe_flags_pole_and_origin():
    probe = nonhermitian._holomorphic_probe(SHIFTED, SHIFTED)  # R_AB = 1
    _, _, ok = probe(np.array([1.0, 0.0, 2.0 + 1j]))
    assert ok.tolist() == [False, False, True]


def test_polynomial_probe_flags_origin_and_nonfinite_points():
    # degree 5, and degree 1 on Ginibre^2 and the limacon
    for pair in (TAU_PAIR, (GIN, GIN), (SHIFTED, SHIFTED)):
        probe = nonhermitian._holomorphic_probe(*pair)
        # a naive |z|^2 overflows at 1e308 (1 + 1j); the indicator reads -1
        indicator, _, ok = probe(np.array([0.0, complex("inf"), complex("nan"), 2.0 + 1j,
                                           1e308 * (1 + 1j)]))
        assert ok.tolist() == [False, False, False, True, True]
        assert indicator[-1] == -1.0
        # no RuntimeWarning either: pytest turns them into errors
        for z, error in ((0.0, OriginError), (complex("inf"), ConvergenceError),
                         (complex(0.0, math.inf), ConvergenceError)):
            for call in (branch_indicator, solve_product, density_at):
                with pytest.raises(error):
                    call(*pair, z)


HUGE_PAIR = (elliptic_rmap(1.5, 0.8, 1.0), elliptic_rmap(1.2, -0.7, 0.5))


def test_huge_finite_points_fail_with_library_errors():
    # (alpha_A alpha_B)^2 = 3.29 overflows the companion row z c1 + c0 at
    # 1e308 (1 + 1j), and at 1e300 (1 + 1j) the certificate's
    # det (Z - Sigma_A^L Sigma_B^R) overflows: each point fails with a
    # FreeconvError, not numpy's LinAlgError, and with no RuntimeWarning
    huge, far = 1e308 * (1 + 1j), 1e300 * (1 + 1j)
    _, _, ok = nonhermitian._holomorphic_probe(*HUGE_PAIR)(np.array([huge, 30.0 + 30j]))
    assert ok.tolist() == [False, True]
    with pytest.raises(ConvergenceError):
        branch_indicator(*HUGE_PAIR, huge)
    for z in (far, huge):
        for call in (solve_product, density_at):
            with pytest.raises(ConvergenceError):
                call(*HUGE_PAIR, z)
    # an outside node whose residual is not finite fails; its neighbour does not
    solved = nonhermitian._solve_nodes(*HUGE_PAIR, np.array([far, 30.0 + 30j]))
    assert solved.status.tolist() == [nonhermitian._STALLED, nonhermitian._OK]
    res = boundary_curve(*HUGE_PAIR, angles=[0.3, 2.0], r_max=1e308)
    assert not res.points and res.empty_rays == (0.3, 2.0) and res.failed_solves == 2


def test_subnormal_leading_coefficient_certifies():
    # alpha_B = 2.2e-309 makes p = -1 + (z - c_A c_B) g - k1 g^2 with the
    # subnormal k1 = alpha_B c_A^2: a companion in g would divide by it and
    # overflow, so no root would certify; in w = 1/g the large root is w ~ 1
    a, b = elliptic_rmap(1.0, 0.0, 1j), elliptic_rmap(1.0, 2.2e-309, 0.0)
    indicator, pg, ok = nonhermitian._holomorphic_probe(a, b)(1.0)
    # the tau = 0 partner's exact root 1/(z - c_A c_B) = 1
    want, want_pg, _ = nonhermitian._holomorphic_probe(a, ginibre_rmap(1.0))(1.0)
    assert ok and pg.residual <= 1e-11
    assert pg.g == pytest.approx(want_pg.g, abs=1e-12) == 1.0
    assert indicator == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("pair", [
    (constant_rmap(2.0 - 0.5j), elliptic_rmap(1.0, 0.5, 0.7)),
    (elliptic_rmap(0.8, -0.7, -0.5 + 1j), constant_rmap(0.3 + 1.2j)),
], ids=["constant_first", "constant_second"])
def test_constant_factor_against_tau_partner(pair):
    # sigma = 0 on one side: alpha_A alpha_B = 0 but R_AB = P Q is not
    # constant, so p has degree 2; outside the ladder's root is the stable one
    zs = np.array([cmath.rect(r, phi) for r in (0.5, 1.5, 3.0, 6.0)
                   for phi in (-2.5, -0.8, 0.6, 2.1)])
    indicator, pg, ok = nonhermitian._holomorphic_probe(*pair)(zs)
    want_indicator, want, want_ok = ladder_probe(*pair)(zs)
    assert ok.all() and want_ok.all()
    outside = want_indicator < 0.0
    assert outside.sum() >= 8
    assert np.allclose(pg.g[outside], want.g[outside], rtol=1e-12, atol=0.0)
    assert np.allclose(indicator[outside], want_indicator[outside], rtol=0.0, atol=1e-10)
    assert (indicator <= want_indicator + 1e-10).all()  # the least radius


def test_identity_factor_takes_the_single_quadratic():
    # A 1 with tau != 0: p = -(alpha g^2 - (z - c) g + 1), degree 2
    rmap = elliptic_rmap(0.8, -0.7, -0.5 + 1j)
    alpha, c = rmap.tau * rmap.sigma ** 2, rmap.shift
    zs = np.linspace(-4.0, 4.0, 40).astype(complex)
    indicator, pg, ok = nonhermitian._holomorphic_probe(rmap, nonhermitian._IDENTITY_FACTOR)(zs)
    assert ok.all()
    for z, g in zip(zs.tolist(), pg.g.tolist()):
        roots = np.roots([alpha, -(z - c), 1.0])
        assert min(abs(roots - g)) <= 1e-12 * abs(g)


def test_gue_square_never_takes_the_double_root():
    # p = (z g - 1)(1 - g^2)^2: at g = +-1 D = 0 and the auxiliary pair is
    # not finite, so the certificate rejects the double roots there; near
    # z = +-1 they crowd the root 1/z, which the Newton step on
    # g (z - R_AB(g)) = 1 (here R_AB = 0) restores
    gue = gue_rmap(1.0)
    zs = np.array([cmath.rect(r, phi) for r in (0.2, 0.7, 0.999, 1.001, 1.5, 4.0)
                   for phi in np.linspace(-3.0, 3.0, 13)] + [-0.999, -1.001])
    indicator, pg, ok = nonhermitian._holomorphic_probe(gue, gue)(zs)
    assert ok.all()
    assert np.allclose(pg.g, 1.0 / zs, rtol=1e-12, atol=0.0)
    assert ((indicator > 0.0) == (abs(zs) < 1.0)).all()
    assert boundary_curve(gue, gue, angular_samples=16).failed_solves == 0


def reference_probe(rmap_a: MatrixRMap, rmap_b: MatrixRMap):
    """_holomorphic_probe as it was when it wrote the affine product law out
    itself: P, Q, D, R_AB' and the constant-R_AB test inline, and a degree-1
    point certified by its three residuals like every other root."""
    (ca, aa), (cb, ab) = rmap_a.affine, rmap_b.affine
    la, lb = rmap_a.sigma ** 2, rmap_b.sigma ** 2
    coupling = rmap_a.sigma * rmap_b.sigma
    a2, k1 = aa * ab, aa * cb * cb + ab * ca * ca
    radius = nonhermitian._stability_radius

    def greens(z, g):
        ga = g * (ca + g * aa * cb)
        gb = g * (cb + g * ab * ca)
        if a2 != 0:
            d = 1.0 - g * g * a2
            ga, gb = ga / d, gb / d
        sa = ca + aa * gb
        sb = cb + ab * ga
        residual = np.maximum(np.maximum(abs(g - 1.0 / (z - sa * sb)),
                                         abs(ga - g * sa)), abs(gb - g * sb))
        return hermitian.ProductGreens(g, ga, gb, residual), sa, sb

    if a2 == 0 and k1 == 0:
        c, pa, pb = ca * cb, abs(ca) ** 2 * lb, abs(cb) ** 2 * la

        def probe(z):
            z = np.asarray(z)[()]
            with np.errstate(all="ignore"):
                g = 1.0 / (z - c)
                pg, _, _ = greens(z, g)
                indicator = radius(z, g, pa, pb, coupling)
            ok = (pg.residual <= 10.0 * nonhermitian._TOL) & np.isfinite(indicator) & (z != 0)
            return indicator, pg, ok

        return probe

    n = 5 if a2 != 0 else 2
    c1 = np.array([1.0, 0.0, -2.0 * a2, 0.0, a2 * a2][:n], dtype=complex)
    c0 = np.array([-ca * cb, 2.0 * a2 - k1, -a2 * ca * cb, -a2 * a2, 0.0][:n],
                  dtype=complex)

    def newton(z, g):
        p, q = ca + g * aa * cb, cb + g * ab * ca
        d = 1.0 - g * g * a2
        r = p * q / (d * d)
        dr = ((aa * cb * q + p * ab * ca) * d + 4.0 * g * a2 * p * q) / (d * d * d)
        return g - (g * (z - r) - 1.0) / (z - r - g * dr)

    def probe(z):
        z = np.asarray(z, dtype=complex)
        flat = z.reshape(-1, 1)
        live = np.isfinite(flat) & (flat != 0)
        companion = np.repeat(np.eye(n, k=-1, dtype=complex)[None], flat.shape[0], axis=0)
        companion[:, 0, :] = np.where(live, flat, 0.0) * c1 + c0
        with np.errstate(all="ignore"):
            g = newton(flat, 1.0 / eigvals(companion))
            pg, sa, sb = greens(flat, g)
            indicator = radius(flat, g, abs(sa) ** 2 * lb, abs(sb) ** 2 * la, coupling)
        ok = live & (pg.residual <= 10.0 * nonhermitian._TOL)
        best = np.argmin(np.where(ok, indicator, np.inf), axis=1)[:, None]

        def pick(v):
            return np.take_along_axis(v, best, axis=1).reshape(z.shape)[()]

        return (pick(indicator), hermitian.ProductGreens(*map(pick, pg)),
                ok.any(axis=1).reshape(z.shape)[()])

    return probe


def assert_same(got, want):
    """Equal values and types, NaN where the other is NaN (a zero's sign aside)."""
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    assert (np.isnan(got) == nan).all() and (got[~nan] == want[~nan]).all()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(STABILITY_PAIRS, st.lists(POINTS, min_size=1, max_size=20))
@example((GIN, GIN), [0.5])
@example((SHIFTED, SHIFTED), [0.5, 2.0j])
@example((gue_rmap(1.0), gue_rmap(1.0)), [0.999, -1.001])
@example(TAU_PAIR, [0.5, 2.0j, -3.0 + 1.0j])
@example((constant_rmap(2.0 - 0.5j), TAU_PAIR[0]), [0.5, 2.0j])
def test_probe_equals_its_inline_formulas(maps, zs):
    # the probe through hermitian's affine product law gives the values the
    # formulas written out in the probe gave: the origin, the pole z = c_A c_B
    # and non-finite points included, as an array and one point at a time
    rmap_a, rmap_b = maps
    zs = np.array(zs + [0.0, rmap_a.shift * rmap_b.shift, complex("inf"), complex("nan"),
                        complex(0.0, math.inf)], dtype=complex)
    probe, reference = (build(rmap_a, rmap_b)
                        for build in (nonhermitian._holomorphic_probe, reference_probe))
    degree_one = nonhermitian._degree_one(rmap_a, rmap_b) is not None
    (ca, aa), (cb, ab) = rmap_a.affine, rmap_b.affine
    # alpha_A c_B^2 + alpha_B c_A^2 = 0 may hold by underflow alone; then the
    # reference keeps g^2 alpha_A c_B in g_a and g^2 alpha_B c_A in g_b
    dropped = (aa * cb, ab * ca) if degree_one else (0.0, 0.0)
    for z in [zs, *zs[-5:]]:
        (indicator, pg, ok), (want_indicator, want, want_ok) = probe(z), reference(z)
        assert_same(indicator, want_indicator)
        assert_same(ok, want_ok)
        assert_same(pg.g, want.g)
        for u, v, term in zip(pg[1:3], want[1:3], dropped):
            if term == 0:
                assert_same(u, v)
            else:
                assert np.all((abs(u - v) <= 2.0 * abs(pg.g) ** 2 * abs(term)) | ~ok)
        if not degree_one:
            assert_same(pg.residual, want.residual)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(DEGREE_ONE_PAIRS, st.lists(POINTS, min_size=1, max_size=20))
@example((SHIFTED, SHIFTED), [0.5, 2.0j, 3.0])
def test_degree_one_residual_is_rounding_only(maps, zs):
    # s_A s_B = c_A c_B = c: the dropped residual is 0 at one point, and in
    # an array call within the rounding of that one product (numpy's array
    # multiply may round it otherwise), magnified by |g|^2
    rmap_a, rmap_b = maps
    c = rmap_a.shift * rmap_b.shift
    zs = np.array(zs, dtype=complex)
    indicator, pg, ok = nonhermitian._holomorphic_probe(rmap_a, rmap_b)(zs)
    _, want, _ = reference_probe(rmap_a, rmap_b)(zs)
    assert (pg.residual[ok] == 0.0).all()
    bound = 64.0 * np.finfo(float).eps * abs(pg.g) ** 2 * max(abs(c), 1.0)
    assert (want.residual[ok] <= bound[ok]).all()
    for z in zs.tolist():
        _, one, one_ok = reference_probe(rmap_a, rmap_b)(z)
        assert not one_ok or one.residual == 0.0


def test_degree_one_pole_neighbours_are_certified():
    # next to the pole the reference's certificate can fail in array calls
    # from the rounding of c_A c_B alone (here Im c = 1.2 0.6 - 0.9 0.8
    # cancels, and Python's and numpy's array multiply leave different
    # rounding errors in it); the probe keeps the exact root there
    rmap_a, rmap_b = elliptic_rmap(0.5, 0.0, 1.2 - 0.9j), elliptic_rmap(0.7, 0.0, 0.8 + 0.6j)
    c = rmap_a.shift * rmap_b.shift
    zs = c + np.array([cmath.rect(10.0 ** -k, 0.7 * k) for k in range(2, 9)])
    indicator, pg, ok = nonhermitian._holomorphic_probe(rmap_a, rmap_b)(zs)
    _, _, want_ok = reference_probe(rmap_a, rmap_b)(zs)
    assert ok.all() and (pg.g == 1.0 / (zs - c)).all() and (indicator > 0.0).all()
    assert (ok >= want_ok).all()


@dataclasses.dataclass(frozen=True)
class NanInside(MatrixRMap):
    """An elliptic map whose apply_q turns the diagonal NaN where |a| > limit.

    Its diagonal section stays the elliptic one, so the holomorphic probe
    does not see the NaNs; the nonholomorphic solves and the certificate do.
    """

    limit: float = 0.3

    def apply_q(self, a, b):
        ra, rb = super().apply_q(a, b)
        return np.where(abs(a) <= self.limit, ra, complex(math.nan, 0.0)), rb


def nan_inside_map(limit=0.3):
    """elliptic_rmap(1, 0.5, 0.5), whose R turns NaN where |a| > limit."""
    return NanInside(1.0, 0.5, 0.5, "nan inside", limit)


def fail_roots_where_large(monkeypatch, limit):
    """Make the probe's roots w = 1/g, which np.linalg.eigvals returns, NaN
    where |g| > limit, as where a nan_inside_map(limit) pair turns R NaN."""
    real = np.linalg.eigvals

    def failing(companion):
        w = real(companion)
        return np.where(abs(w) * limit < 1.0, complex("nan"), w)

    monkeypatch.setattr(np.linalg, "eigvals", failing)


@pytest.mark.parametrize("pair", [TAU_PAIR, (nan_inside_map(), nan_inside_map())])
def test_probe_on_array_matches_scalar_route(pair, monkeypatch):
    rmap_a, rmap_b = pair
    if isinstance(rmap_a, NanInside):
        fail_roots_where_large(monkeypatch, rmap_a.limit)
    zs = np.array([cmath.rect(r, phi) for r in (0.3, 1.1, 2.0, 3.5, 7.0)
                   for phi in (-2.8, -1.0, 0.4, 1.9)])
    probe = nonhermitian._holomorphic_probe(rmap_a, rmap_b)
    indicator, pg, ok = probe(zs)
    oracle = oracle_probe(rmap_a, rmap_b)
    ta, tb = rmap_a.diagonal_section(), rmap_b.diagonal_section()
    failed = 0
    for k, z in enumerate(zs.tolist()):
        # a point's values do not depend on the others in the call, so a
        # grid node equals its own solve
        one_indicator, one, one_ok = probe(np.array([z]))
        np.testing.assert_array_equal(  # bit for bit, NaN included
            [indicator[k], *(v[k] for v in pg), ok[k]],
            [one_indicator[0], *(v[0] for v in one), one_ok[0]])
        if not ok[k]:
            failed += 1
            continue
        assert pg.residual[k] <= 1e-11
        assert close(indicator[k], stability_radius(
            z, pg.g[k], ta.r_eval(pg.g_b[k]), tb.r_eval(pg.g_a[k]),
            rmap_a.sigma ** 2, rmap_b.sigma ** 2), 1e-12)
        want_indicator, want, _ = oracle(z)
        if want_indicator < 0.0:  # outside, the ladder's root is the stable one
            assert close(pg.g[k], want.g) and close(indicator[k], want_indicator, 1e-8)
    # the NaN map fails where |g| is large
    assert (failed > 0) == (rmap_a.name == "nan inside")
    assert failed < len(zs)


@pytest.mark.parametrize("pair", [(GIN, GIN), (SHIFTED, SHIFTED)])
def test_constant_pairs_skip_the_ladder(pair, stage_count):
    boundary_curve(*pair, angular_samples=8)
    solve_product(*pair, 0.5 + 0.5j)
    assert branch_indicator(*pair, 4.0 + 1j) < 0
    assert not stage_count


@pytest.mark.parametrize("pair", [(gue_rmap(1.0), gue_rmap(1.0)), TAU_PAIR, HOLE_PAIR],
                         ids=["gue2", "tau", "hole"])
def test_elliptic_pairs_skip_the_ladder(pair, stage_count, tmp_path):
    boundary_curve(*pair, angular_samples=8)
    solve_product(*pair, 0.5 + 0.5j)
    assert branch_indicator(*pair, 4.0 + 1j) < 0
    # CLI transform's matrix table of each non-hermitian factor (a GUE
    # factor's table is the hermitian one, on the real axis)
    for rmap in pair:
        if rmap.tau == 1.0 and rmap.shift.imag == 0.0:
            continue
        job = tmp_path / "transform.json"
        job.write_text(json.dumps({
            "ensemble_a": {"kind": "elliptic", "n": 24, "sigma": rmap.sigma, "tau": rmap.tau,
                           "shift": [rmap.shift.real, rmap.shift.imag]},
            "start": -4.0, "stop": 4.0, "count": 40, "output": str(tmp_path / "t.csv")}))
        assert cli.main(["transform", "--config", str(job)]) == 0
        assert "matrix" in (tmp_path / "t.csv").read_text()
    assert not stage_count


def test_hole_point_takes_the_stable_root():
    # Monte Carlo (N = 400, 10 trials) gives (1/N) tr (z - AB)^-1 = -0.02326+0.19692i
    # +- 0.00036 here; the ladder's root -1.596+0.027i has indicator 4.85
    sol = solve_product(*HOLE_PAIR, HOLE_Z)
    assert abs(sol.gm.a - (-0.0228 + 0.197j)) <= 1e-3
    # the probe takes the stable root, so the node is outside: no fixed
    # point runs, and G11 is the root the slow schedule has always returned
    solved = nonhermitian._solve_nodes(*HOLE_PAIR, np.array([HOLE_Z]))
    assert solved.retried == solved.collapsed == 0
    assert abs(solved.solution(0).gm.a - (-0.02283 + 0.19704j)) <= 5e-6


def test_hole_point_indicator_reads_the_stable_root():
    # the quintic's roots have stability radii -0.314, 0.833, 2.223, 2.337 and
    # 4.852; the ladder's root is the last one
    assert branch_indicator(*HOLE_PAIR, HOLE_Z) <= 0.0
    indicator, pg, ok = nonhermitian._holomorphic_probe(*HOLE_PAIR)(HOLE_Z)
    assert ok and indicator == pytest.approx(-0.314, abs=1e-3)
    assert abs(pg.g - HOLE_G) <= 1e-10


def test_hole_point_resolvent_matches_samples():
    # mean of (1/N) tr (z - AB)^-1 over independent trials against G11, per
    # component, within 5 standard errors fixed in advance; the ladder's
    # root -1.596+0.027i lies thousands of standard errors away
    n, trials = 200, 20
    spec_a, spec_b = (EnsembleSpec("elliptic", n, *params) for params in HOLE[:2])
    eye = np.eye(n)
    traces = np.array([
        np.trace(np.linalg.inv(HOLE_Z * eye - sample(spec_a, 0xA, t).matrix
                               @ sample(spec_b, 0xB, t).matrix)) / n
        for t in range(trials)])
    g = solve_product(*HOLE_PAIR, HOLE_Z).gm.a
    for part in (np.real, np.imag):
        se = part(traces).std(ddof=1) / math.sqrt(trials)
        assert abs(part(traces).mean() - part(g)) <= 5.0 * se


def force_inside(monkeypatch):
    """Patch _holomorphic_probe so that its probes call every point inside."""
    real = nonhermitian._holomorphic_probe

    def build(rmap_a, rmap_b):
        probe = real(rmap_a, rmap_b)

        def inside(z):
            indicator, pg, ok = probe(z)
            return np.ones_like(indicator), pg, ok

        return inside

    monkeypatch.setattr(nonhermitian, "_holomorphic_probe", build)


@pytest.mark.parametrize("pa,pb,z", COLLAPSED + [HOLE],
                         ids=["sample11", "sample87", "sample417", "found"])
def test_collapsed_node_returns_its_own_stable_root(pa, pb, z, monkeypatch):
    a, b = elliptic_rmap(*pa), elliptic_rmap(*pb)
    indicator, probed, ok = nonhermitian._holomorphic_probe(a, b)(z)
    assert ok and indicator < 0.0  # the probe's root is stable here
    solved = nonhermitian._solve_nodes(a, b, np.array([z, z]))
    assert solved.retried == solved.collapsed == 0
    sol = solved.solution(0)
    assert sol.branch == "holomorphic" and sol.correlator == 0.0
    assert sol.gm.a == solved.solution(1).gm.a == solve_product(a, b, z).gm.a == probed.g
    assert sol.residual <= 1e-10
    # called inside, the nodes' fixed points sink to b = 0 at that same root
    force_inside(monkeypatch)
    collapsed = nonhermitian._solve_nodes(a, b, np.array([z, z]))
    assert collapsed.collapsed == 2
    own = collapsed.solution(0)
    assert own.branch == "holomorphic" and own.correlator == 0.0
    assert own.gm.a == collapsed.solution(1).gm.a
    assert abs(own.gm.a - sol.gm.a) <= 5e-6
    assert own.residual <= 1e-10
    ta, tb = a.diagonal_section(), b.diagonal_section()
    radius = stability_radius(
        z, own.gm.a, ta.r_eval(own.gb.a), tb.r_eval(own.ga.a), a.sigma ** 2, b.sigma ** 2)
    assert radius < 0.0


@pytest.mark.parametrize("pair", [(GIN, GIN), (SHIFTED, SHIFTED), TAU_PAIR],
                         ids=["ginibre2", "limacon", "tau"])
def test_wrong_nonholomorphic_hint_returns_holomorphic_branch(pair):
    # outside points, among them one 1% past the edge, solve on the
    # holomorphic branch and meet the certificate
    edge = boundary_curve(*pair, angles=[0.3]).points[0][0]
    for z in (cmath.rect(1.01 * edge, 0.3), 3.5 + 0.5j, -3.0 + 1.0j, 0.5 - 4.0j, 5.0, 2.0j):
        assert branch_indicator(*pair, z) < 0.0
        sol = solve_product(*pair, z)
        assert sol.branch == "holomorphic"
        assert sol.residual <= 1e-10


def test_boundary_gue_square_is_unit_circle():
    res = boundary_curve(gue_rmap(1.0), gue_rmap(1.0), angular_samples=8)
    assert len(res.points) == 8 and not res.empty_rays
    for r, _phi in res.points:
        assert r == pytest.approx(1.0, abs=1e-4)


def counting_probes(monkeypatch):
    """Patch _holomorphic_probe so that every probe it builds records the
    arrays of z handed to it; returns that list."""
    handed = []
    real = nonhermitian._holomorphic_probe

    def build(rmap_a, rmap_b):
        probe = real(rmap_a, rmap_b)

        def counting(z):
            handed.append(z)
            return probe(z)

        return counting

    monkeypatch.setattr(nonhermitian, "_holomorphic_probe", build)
    return handed


FAN_24 = [-math.pi + (k + 0.5) * math.pi / 12 for k in range(24)]


@pytest.mark.parametrize("pair,angles", [
    ((GIN, GIN), [-2.5, -0.9, 0.7, 2.2]),
    # +-1.95 and +-2.05 lie within 0.15 rad of the cusps at +-2 pi / 3
    ((SHIFTED, SHIFTED), [-3.0, -2.2, -2.05, -1.95, -1.0, 0.0, 1.3, 1.95, 2.05, 2.4]),
    ((elliptic_rmap(1.0, 0.0, 0.6 - 0.8j), elliptic_rmap(1.0, 0.0, 1.1 + 0.2j)),
     [-2.6, -1.2, 0.3, 1.9]),
    # tau != 0: the probe's root of a degree-5 polynomial against the ladder's
    ((gue_rmap(1.0), gue_rmap(1.0)), FAN_24),
    (TAU_PAIR, FAN_24),
    # the ladder's root is unstable in the hole, but the outermost crossings agree
    (HOLE_PAIR, [-math.pi + (k + 0.5) * math.pi / 32 for k in range(64)]),
])
def test_lockstep_boundary_matches_oracle_route(pair, angles, monkeypatch):
    got = boundary_curve(*pair, angles=angles)
    # the oracle probe solves every point on the ladder; on a tau != 0 pair
    # the ladder on the exact sections is also independent of the polynomial,
    # and faster
    rmap_a, rmap_b = pair
    oracle = oracle_probe if rmap_a.tau == rmap_b.tau == 0.0 else ladder_probe
    monkeypatch.setattr(nonhermitian, "_holomorphic_probe", oracle)
    want = boundary_curve(*pair, angles=angles)
    assert got.empty_rays == want.empty_rays
    assert [phi for _, phi in got.points] == [phi for _, phi in want.points]
    for (r, _), (r_want, _) in zip(got.points, want.points):
        assert r == pytest.approx(r_want, abs=2e-5)
    assert got.failed_solves == want.failed_solves == 0


def test_array_route_rounds_within_bisection_budget(monkeypatch):
    # a degree-5 pair takes no quartic: one outward round, the whole scan in
    # one round, then Illinois, one point per bracket and round, which keeps
    # every ray within bisection's step count at every fan size
    r_max = 1.5 * nonhermitian._support_scale(TAU_PAIR[0]) * nonhermitian._support_scale(
        TAU_PAIR[1]) + 1.0
    width = (r_max - 1e-4) / 24
    bound = math.ceil(math.log2(width / 1e-5))
    assert bound == 16
    for rays in (16, 128):
        handed = counting_probes(monkeypatch)
        res = boundary_curve(*TAU_PAIR, angular_samples=rays)
        monkeypatch.undo()
        sizes = [len(z) for z in handed]
        assert sizes[:2] == [rays, rays * 24]  # one probe round, then the whole scan
        assert len(sizes) - 2 <= bound
        assert all(size <= len(res.points) for size in sizes[2:])  # 1 point per bracket
        assert res.scanned_rays == rays


def test_array_route_fan_size_keeps_radii():
    # no ray's radius depends on the other rays of its call: each crossing of
    # a 40-ray fan is where the same ray alone locates it, bit for bit
    angles = [-math.pi + (k + 0.5) * math.pi / 20 for k in range(40)]
    for pair in (TAU_PAIR, (SHIFTED, SHIFTED)):
        fan = boundary_curve(*pair, angles=angles)
        alone = [boundary_curve(*pair, angles=[phi]) for phi in angles]
        assert fan.points == tuple(p for res in alone for p in res.points)
        assert fan.empty_rays == tuple(phi for res in alone for phi in res.empty_rays)
        assert fan.scanned_rays == sum(res.scanned_rays for res in alone)


# degree 1, 2 and 5 pairs, at random angles
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(STABILITY_PAIRS, st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=16))
@example((GIN, GIN), [0.0, 2.0])
@example((SHIFTED, SHIFTED), [0.0, 2.0, math.pi])
@example((gue_rmap(1.0), gue_rmap(1.0)), [0.0, math.pi / 2, math.pi])
@example(TAU_PAIR, [0.0, 2.0, -2.0])
def test_internal_r_max_lies_outside_the_support(maps, angles):
    # the support lies within |z| <= ||A|| ||B||, and an elliptic factor's
    # norm is at most |shift| + 2 sigma, so the internal r_max reads outside
    rmap_a, rmap_b = maps
    r_max = 1.5 * nonhermitian._support_scale(rmap_a) * nonhermitian._support_scale(
        rmap_b) + 1.0
    indicator, _, ok = nonhermitian._holomorphic_probe(rmap_a, rmap_b)(
        r_max * np.exp(1j * np.array(angles)))
    assert ok.all()
    assert (indicator <= 0.0).all()


def test_ray_inside_at_internal_r_max_reports_empty(monkeypatch):
    # a probe made to read inside from r_max outward on the ray at 0.3: that
    # ray is reported empty, as under an explicit cap, and no point past
    # r_max is probed
    r_max = 1.5 * nonhermitian._support_scale(GIN) ** 2 + 1.0
    real = nonhermitian._holomorphic_probe
    radii = []

    def build(rmap_a, rmap_b):
        probe = real(rmap_a, rmap_b)

        def inside_far_out(z):
            indicator, pg, ok = probe(z)
            radii.extend(np.abs(z).tolist())
            far = (np.abs(z) >= r_max * (1.0 - 1e-12)) & (abs(np.angle(z) - 0.3) < 1e-9)
            return np.where(far, 1.0, indicator), pg, ok

        return inside_far_out

    monkeypatch.setattr(nonhermitian, "_holomorphic_probe", build)
    res = boundary_curve(GIN, GIN, angles=[0.3, 1.7])
    assert res.empty_rays == (0.3,)
    assert [phi for _, phi in res.points] == [1.7]
    assert res.points[0][0] == pytest.approx(1.0, abs=1e-5)
    assert max(radii) <= r_max * (1.0 + 1e-12)


def without_quartic(monkeypatch):
    """Send every ray of boundary_curve to the scan: the quartic gives no
    ray a verdict."""
    monkeypatch.setattr(nonhermitian, "_quartic_roots",
                        lambda constant, coupling, units, r_min, r_max:
                        np.full(len(units), np.nan))


def internal_r_max(rmap_a, rmap_b):
    return 1.5 * nonhermitian._support_scale(rmap_a) * nonhermitian._support_scale(
        rmap_b) + 1.0


def quartic_verdicts(rmap_a, rmap_b, angles):
    """_quartic_roots' verdict on each ray, at boundary_curve's default radii."""
    return nonhermitian._quartic_roots(
        nonhermitian._degree_one(rmap_a, rmap_b), rmap_a.sigma * rmap_b.sigma,
        np.exp(1j * np.array(angles)), 1e-4, internal_r_max(rmap_a, rmap_b))


def probes_on(handed, phi):
    """How many of the probed points lie on the ray at angle phi."""
    z = np.concatenate(handed)
    return int((abs(np.angle(z) - phi) < 1e-9).sum())


# degree-1 pairs with sigma in [0, 2]: tau = 0 factors, or a tau != 0 factor
# times a centered tau = 0 one, in either order
BOUNDARY_SIGMAS = st.one_of(st.just(0.0), st.floats(0.0, 2.0))
BOUNDARY_FLAT = st.builds(lambda s, re, im: elliptic_rmap(s, 0.0, complex(re, im)),
                          BOUNDARY_SIGMAS, SHIFT_PARTS, SHIFT_PARTS)
BOUNDARY_TILTED = st.builds(lambda s, t, re, im: elliptic_rmap(s, t, complex(re, im)),
                            BOUNDARY_SIGMAS, TAUS.filter(bool), SHIFT_PARTS, SHIFT_PARTS)
BOUNDARY_CENTERED = st.builds(elliptic_rmap, BOUNDARY_SIGMAS)
BOUNDARY_PAIRS = st.one_of(st.tuples(BOUNDARY_FLAT, BOUNDARY_FLAT),
                           st.tuples(BOUNDARY_TILTED, BOUNDARY_CENTERED),
                           st.tuples(BOUNDARY_CENTERED, BOUNDARY_TILTED))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(BOUNDARY_PAIRS)
@example((GIN, GIN))
@example((SHIFTED, SHIFTED))
@example((elliptic_rmap(1.3, 0.0, 0.4 + 0.9j), elliptic_rmap(0.8, 0.0, -1.1 + 0.2j)))
@example((constant_rmap(0.8 - 0.3j), elliptic_rmap(1.2, 0.0, 0.5)))
@example((elliptic_rmap(1.2, 0.0, 0.5), constant_rmap(0.8 - 0.3j)))
@example((constant_rmap(0.8 - 0.3j), constant_rmap(1.1)))
@example((elliptic_rmap(1.0, 0.5, 0.7), GIN))
# the scan's 24 points pass over an inside interval near the origin on some rays
@example((elliptic_rmap(1.0456, 0.0, 1.0309 + 0.1799j), elliptic_rmap(0.7624, 0.0, 1.0358 + 1.2016j)))
def test_quartic_route_matches_scan_route(pair):
    # the quartic's verdicts against the scan and Illinois on every ray, at
    # 16 and 64 rays
    assert nonhermitian._degree_one(*pair) is not None
    for rays in (16, 64):
        with pytest.MonkeyPatch.context() as monkeypatch:
            handed = counting_probes(monkeypatch)
            got = boundary_curve(*pair, angular_samples=rays)
        with pytest.MonkeyPatch.context() as monkeypatch:
            without_quartic(monkeypatch)
            want = boundary_curve(*pair, angular_samples=rays)
        assert got.failed_solves == want.failed_solves == 0
        assert got.scanned_rays <= want.scanned_rays
        # a ray with no root of Q is empty on both routes, and the quartic
        # route probes it at r_max alone
        angles = [-math.pi + (k + 0.5) * 2.0 * math.pi / rays for k in range(rays)]
        rootless = [phi for phi, r in zip(angles, quartic_verdicts(*pair, angles))
                    if r == -math.inf]
        assert set(rootless) <= set(got.empty_rays) & set(want.empty_rays)
        assert all(probes_on(handed, phi) == 1 for phi in rootless)
        located, scanned = ({phi: r for r, phi in res.points} for res in (got, want))
        assert set(got.empty_rays) <= set(want.empty_rays)
        for phi, r in located.items():
            r_scan = scanned.get(phi)
            if r_scan is not None and abs(r - r_scan) <= 2e-5:
                continue
            # the scan's 24 points skipped an inside interval that ends at r,
            # so it reports a crossing further in, or none: r must be a crossing
            assert r_scan is None or r_scan < r
            assert branch_indicator(*pair, cmath.rect(r - 2.5e-6, phi)) > 0.0
            assert branch_indicator(*pair, cmath.rect(r + 2.5e-6, phi)) <= 0.0


@pytest.mark.parametrize("move", [1e-3, -1e-3], ids=["outward", "inward"])
def test_uncertified_roots_fall_back_to_the_scan(move, monkeypatch):
    # roots moved 1e-3 fail their certificate, outward at the point below
    # them and inward at the point above them, and every ray with a root then
    # takes the scan, exactly as with no quartic at all; the rays past the
    # limacon's cusps have no root and stay empty unscanned
    angles = [-math.pi + (k + 0.5) * math.pi / 8 for k in range(16)]
    real = nonhermitian._quartic_roots
    for pair in ((GIN, GIN), (SHIFTED, SHIFTED)):
        quartic = boundary_curve(*pair, angles=angles)
        monkeypatch.setattr(nonhermitian, "_quartic_roots",
                            lambda *args: real(*args) + move)
        fallback = boundary_curve(*pair, angles=angles)
        without_quartic(monkeypatch)
        scan = boundary_curve(*pair, angles=angles)
        monkeypatch.undo()
        assert fallback.points == scan.points and fallback.empty_rays == scan.empty_rays
        assert fallback.failed_solves == scan.failed_solves == 0
        assert fallback.scanned_rays == 16 - len(quartic.empty_rays)
        assert scan.scanned_rays == 16
        assert quartic.scanned_rays == 0
        assert quartic.empty_rays == scan.empty_rays
        assert [phi for _, phi in quartic.points] == [phi for _, phi in scan.points]
        for (r, _), (r_scan, _) in zip(quartic.points, scan.points):
            assert r == pytest.approx(r_scan, abs=1e-5)


@pytest.mark.parametrize("pair", [(GIN, GIN), (SHIFTED, SHIFTED)], ids=["ginibre2", "limacon"])
@pytest.mark.parametrize("offset", [0.05, 0.2, 0.4])
def test_degree_one_fan_within_two_probe_rounds(pair, offset, monkeypatch):
    # the benchmark's calls: 6 rays of a 12-ray fan.  One round probes r_max
    # and certifies every root; a ray without one (past the limacon's cusps)
    # is empty after its probe at r_max
    fan = [math.remainder(-math.pi + offset + k * math.pi / 6, 2.0 * math.pi)
           for k in range(12)]
    for angles in (fan[0::2], fan[1::2]):
        handed = counting_probes(monkeypatch)
        res = boundary_curve(*pair, angles=angles)
        monkeypatch.undo()
        assert len(handed) == 1 and res.scanned_rays == 0
        rootless = [phi for phi, r in zip(angles, quartic_verdicts(*pair, angles))
                    if r == -math.inf]
        assert list(res.empty_rays) == rootless
        assert len(res.points) + len(rootless) == 6


@pytest.mark.parametrize("offset", [0.05, 0.2, 0.4])
def test_array_route_limacon_fan_within_six_rounds(offset, monkeypatch):
    # the benchmark's limacon calls: 6 rays of a 12-ray fan, some of them
    # next to a cusp at +-2 pi / 3
    fan = [math.remainder(-math.pi + offset + k * math.pi / 6, 2.0 * math.pi)
           for k in range(12)]
    for angles in (fan[0::2], fan[1::2]):
        handed = counting_probes(monkeypatch)
        res = boundary_curve(SHIFTED, SHIFTED, angles=angles)
        monkeypatch.undo()
        assert len(handed) <= 6
        for r, phi in res.points:
            assert r == pytest.approx(1.0 + 2.0 * math.cos(phi), abs=1e-3)


def test_boundary_counts_failed_solves_on_array_route(monkeypatch):
    # R_AB = 2 here, and z = 2 is the pole of g = 1/(z - 2), where the solve fails
    a, b = elliptic_rmap(0.01, 0.0, 2.0), elliptic_rmap(0.01, 0.0, 1.0)
    probe = boundary_curve(a, b, angles=[0.0], r_max=2.0)
    assert probe.empty_rays == (0.0,) and probe.failed_solves == 1
    # the quartic's root near 2.02 is certified without a probe at z = 2
    monkeypatch.setattr(nonhermitian, "_R_MIN", 2.0)
    quartic = boundary_curve(a, b, angles=[0.0], r_max=4.0)
    assert quartic.failed_solves == quartic.scanned_rays == 0
    assert quartic.points[0][0] == pytest.approx(2.02, abs=0.01)
    with pytest.MonkeyPatch.context() as quartic_off:
        without_quartic(quartic_off)
        scan = boundary_curve(a, b, angles=[0.0], r_max=4.0)  # z = 2 ends the scan
    assert scan.failed_solves == scan.scanned_rays == 1
    assert scan.points[0][0] == pytest.approx(quartic.points[0][0], abs=1e-5)
    # R_AB = 1.5 with no spread: Q = (r - 1.5)^4 on the ray at 0, whose roots
    # come back apart from the real axis.  The ray through the pole is
    # scanned as on the scan route, whose point at r = 1.5 fails; the ray at
    # 0.3 has no root and is empty
    a, b = constant_rmap(1.5), constant_rmap(1.0)
    monkeypatch.setattr(nonhermitian, "_R_MIN", 0.5)
    through = boundary_curve(a, b, angles=[0.0, 0.3], r_max=2.5)
    with pytest.MonkeyPatch.context() as quartic_off:
        without_quartic(quartic_off)
        scan = boundary_curve(a, b, angles=[0.0, 0.3], r_max=2.5)
    assert through.points == scan.points and through.empty_rays == scan.empty_rays == (0.3,)
    assert through.failed_solves == scan.failed_solves == 1
    assert through.scanned_rays == 1 and scan.scanned_rays == 2
    assert through.points[0][0] == pytest.approx(1.5, abs=1e-5)


def test_tangent_ray_is_scanned():
    # a shifted pair whose support, around R_AB = 2, misses the origin; at its
    # angular edge Q has a double root, which comes back as a complex pair
    # near the real axis.  That ray is scanned, not called empty
    pair = elliptic_rmap(0.5, 0.0, 2.0), elliptic_rmap(0.5, 0.0, 1.0)
    assert boundary_curve(*pair, angles=[math.pi]).empty_rays == (math.pi,)
    lo, hi = 0.0, 1.0  # Q has a real root on the ray at lo, none at hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if quartic_verdicts(*pair, [mid])[0] > -math.inf else (lo, mid)
    assert lo < hi and math.isnan(quartic_verdicts(*pair, [hi])[0])
    tangent = boundary_curve(*pair, angles=[hi, 1.0])
    assert tangent.scanned_rays == 1 and tangent.failed_solves == 0
    assert tangent.empty_rays[-1] == 1.0
    with pytest.MonkeyPatch.context() as monkeypatch:
        without_quartic(monkeypatch)
        scan = boundary_curve(*pair, angles=[hi, 1.0])
    assert tangent.points == scan.points and tangent.empty_rays == scan.empty_rays


def test_boundary_counts_failed_solves(monkeypatch):
    # R turns NaN where |a| > 0.3; those solves fail and count as inside
    base = elliptic_rmap(1.0, 0.5, 0.5)
    broken = nan_inside_map()
    assert boundary_curve(base, base, angles=[0.3]).failed_solves == 0
    fail_roots_where_large(monkeypatch, broken.limit)
    assert boundary_curve(broken, broken, angles=[0.3]).failed_solves > 0


@pytest.mark.parametrize("pair", [(GIN, GIN), (SHIFTED, SHIFTED)])
def test_boundary_no_failed_solves_on_registered_pairs(pair):
    assert boundary_curve(*pair, angular_samples=32).failed_solves == 0


# ---------------------------------------------------------------------------
# damped fixed point handed to Newton once its update is below _HANDOFF
# ---------------------------------------------------------------------------


def fully_damped(solve, *args):
    """solve(*args) with the damped loop run until its update is below
    0.1 tol = 1e-13, or for 400 steps, so that Newton only polishes: the
    oracle of the hand-off and of the point solvers' 60-step cap."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nonhermitian, "_HANDOFF", 1e-13)
        mp.setattr(nonhermitian, "_MAX_FP", 400)
        return solve(*args)


INSIDE_FRACTIONS = (0.1, 0.5, 0.9, 0.97)  # of the edge radius along each ray


def inside_references(pair):
    """The factor of a square pair ("circular": Ginibre^2, "limacon": the
    unit-shift square) and 120 inside points z, with the reference G11 and
    correlator at each, as (z, g_ref, c_ref)."""
    refs = []
    for k in range(30):
        u = (k + 0.5) / 30
        for frac in INSIDE_FRACTIONS:
            if pair == "circular":
                z = cmath.rect(frac, -math.pi + 2.0 * math.pi * u)
                refs.append((z, z.conjugate() / abs(z), 1.0 - abs(z)))
            else:
                phi = -2.0 + 4.0 * u
                r = frac * (1.0 + 2.0 * math.cos(phi))
                ref = limacon_reference(r, phi)
                refs.append((cmath.rect(r, phi), ref.G, ref.C))
    return (GIN if pair == "circular" else SHIFTED), refs


def assert_matches_reference(sol, g_ref, c_ref):
    assert sol.branch == "nonholomorphic"
    assert abs(sol.gm.a - g_ref) <= 1e-10
    assert abs(sol.correlator - c_ref) <= 1e-10
    assert sol.residual <= 1e-10


@pytest.mark.parametrize("pair", ["circular", "limacon"])
def test_handoff_inside_points_match_references(pair):
    rmap, refs = inside_references(pair)
    for z, g_ref, c_ref in refs:
        assert_matches_reference(solve_product(rmap, rmap, z), g_ref, c_ref)
    assert len(refs) >= 100


@pytest.mark.parametrize("pair", ["circular", "limacon"])
def test_collapse_guard_recovers_early_handoff(pair, monkeypatch):
    # at a hand-off of 1e-1 Newton starts far enough out to take the root
    # b = 0 at some inside points; the guard re-solves those on the slow
    # schedule, and every point still matches its reference
    monkeypatch.setattr(nonhermitian, "_HANDOFF", 1e-1)
    rmap, refs = inside_references(pair)
    solved = nonhermitian._solve_nodes(rmap, rmap, np.array([z for z, _, _ in refs]))
    assert solved.retried > 0 and solved.collapsed == 0
    for k, (_, g_ref, c_ref) in enumerate(refs):
        assert_matches_reference(solved.solution(k), g_ref, c_ref)


@pytest.mark.parametrize("sigma", [0.6, 1.0, 1.7])
def test_single_handoff_matches_circular_law(sigma):
    rmap = ginibre_rmap(sigma)
    for k in range(12):
        for frac in INSIDE_FRACTIONS:
            z = cmath.rect(frac * sigma, -math.pi + 2.0 * math.pi * (k + 0.5) / 12)
            sol = solve_single(rmap, z)
            assert sol.branch == "nonholomorphic"
            assert abs(sol.gm.a - z.conjugate() / sigma ** 2) <= 1e-10
            assert abs(sol.correlator - (1.0 - frac ** 2) / sigma ** 2) <= 1e-10


@DIFFERENTIAL
@given(ELLIPTIC, ELLIPTIC, POINTS)
def test_handoff_matches_fully_damped_solve(rmap_a, rmap_b, z):
    sol = solve_product(rmap_a, rmap_b, z)
    want = fully_damped(solve_product, rmap_a, rmap_b, z)
    assert sol.residual <= 1e-10
    assert sol.branch == want.branch
    assert close(sol.gm.a, want.gm.a)
    assert abs(sol.correlator - want.correlator) <= 1e-10
    assert sol.iterations <= want.iterations


@DIFFERENTIAL
@given(ELLIPTIC, ELLIPTIC, st.floats(-math.pi, math.pi))
def test_capped_handoff_matches_fully_damped_near_edge(rmap_a, rmap_b, phi):
    # inside points near the edge along a ray, where the damped map's
    # multiplier is near one and the loop stops at _MAX_FP before Newton
    zs = np.array([cmath.rect(r, phi) for r in np.linspace(0.05, 6.0, 48)])
    indicator, _, ok = nonhermitian._holomorphic_probe(rmap_a, rmap_b)(zs)
    for z in zs[ok & (indicator > 0.0) & (indicator < 0.3)][:3].tolist():
        sol = solve_product(rmap_a, rmap_b, z)
        want = fully_damped(solve_product, rmap_a, rmap_b, z)
        assert sol.branch == want.branch
        assert close(sol.gm.a, want.gm.a)
        assert abs(sol.correlator - want.correlator) <= 1e-10


def random_elliptic(rng: random.Random) -> MatrixRMap:
    """An elliptic map with sigma in 0.3-2, tau in [-1, 1] and a shift in
    +-1.5 +- 1.5i, drawn from rng."""
    return elliptic_rmap(rng.uniform(0.3, 2.0), rng.uniform(-1.0, 1.0),
                         complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)))


def random_inside_points(seed: int, count: int):
    """count (rmap_a, rmap_b, sol) with a fresh random elliptic pair each and
    z drawn in [-3, 3]^2 until the solution is nonholomorphic."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        rmap_a, rmap_b = random_elliptic(rng), random_elliptic(rng)
        sol = solve_product(rmap_a, rmap_b, complex(rng.uniform(-3, 3), rng.uniform(-3, 3)))
        if sol.branch == "nonholomorphic":
            found.append((rmap_a, rmap_b, sol))
    return found


def as_array(m: Complex2x2) -> np.ndarray:
    return np.array([[m.q11, m.q12], [m.q21, m.q22]])


def inverse_self_energies(sol, rmap_a, rmap_b):
    """(Sigma_A^L)^-1 and (Sigma_B^R)^-1 of a product solution, from its G_A
    and G_B and the one-sided rotations at half the phase of z."""
    u = cmath.exp(0.5j * cmath.phase(sol.z))
    sal = _turn(rmap_a.apply_matrix(sol.gb.embed()), u)
    sbr = _turn(rmap_b.apply_matrix(sol.ga.embed()), u.conjugate())
    return invert(sal), invert(sbr)


def stacked_rmap(rmap: MatrixRMap, m: np.ndarray) -> np.ndarray:
    """rmap.apply_matrix on each matrix of an (N, 2, 2) stack."""
    r = rmap.apply_matrix(Complex2x2(m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]))
    return np.moveaxis(as_array(r), -1, 0)


def newton_roots(equation, seeds: np.ndarray, steps: int = 60) -> np.ndarray:
    """The roots that plain Newton reaches from each (2, 2) seed of the stack
    for equation(X) = 0, holomorphic in X's four entries (difference step
    1e-7); seeds that turn non-finite or miss 1e-12 are dropped."""
    x = seeds.copy()
    with np.errstate(all="ignore"):
        for _ in range(steps):
            f = equation(x).reshape(-1, 4)
            jac = np.stack([(equation(x + 1e-7 * e).reshape(-1, 4) - f) / 1e-7
                            for e in np.eye(4).reshape(4, 2, 2)], axis=-1)
            keep = (np.isfinite(f).all(1) & np.isfinite(jac).all((1, 2))
                    & (abs(np.linalg.det(jac)) > 1e-300))
            x, f, jac = x[keep], f[keep], jac[keep]
            x = x - np.linalg.solve(jac, f[..., None])[..., 0].reshape(-1, 2, 2)
        return x[abs(equation(x)).reshape(-1, 4).max(1) <= 1e-12]


def test_factorizing_s_pair_is_unique():
    # each one-sided S equation has several roots, but wherever Newton from
    # random seeds reaches a pair that factorizes R_M^-1 = (Z - G_M^-1)^-1,
    # it is the product's own inverse self-energies, the pair
    # residual_identities reports
    rng = np.random.default_rng(3)
    seeds = rng.normal(size=(2, 24, 2, 2)) + 1j * rng.normal(size=(2, 24, 2, 2))
    distinct = 0
    for rmap_a, rmap_b, sol in random_inside_points(7, 20):
        gm = as_array(sol.gm.embed())
        rm = np.diag([sol.z, sol.z.conjugate()]) - np.linalg.inv(gm)
        y_left, y_right = rm @ gm, gm @ rm
        lefts = newton_roots(lambda x: np.linalg.inv(stacked_rmap(rmap_a, x @ y_left)) - x,
                             seeds[0])
        rights = newton_roots(lambda x: np.linalg.inv(stacked_rmap(rmap_b, y_right @ x)) - x,
                              seeds[1])
        distinct = max(distinct, len(np.unique(np.round(lefts, 6), axis=0)))
        s_left, s_right = (as_array(m) for m in inverse_self_energies(sol, rmap_a, rmap_b))
        pairs = [(a, b) for a in lefts for b in rights
                 if abs(np.linalg.inv(rm) - b @ a).max() <= 1e-8]
        assert pairs
        for a, b in pairs:
            assert abs(a - s_left).max() <= 1e-8
            assert abs(b - s_right).max() <= 1e-8
    assert distinct > 1  # some S equation has a root that does not factorize


@DIFFERENTIAL
@given(st.one_of(ROTATION_INVARIANT, ELLIPTIC), st.one_of(ROTATION_INVARIANT, ELLIPTIC),
       POINTS)
@_hole_examples
def test_handoff_branch_follows_indicator(rmap_a, rmap_b, z):
    sol = solve_product(rmap_a, rmap_b, z)
    indicator = branch_indicator(rmap_a, rmap_b, z)
    assert sol.residual <= 1e-10
    if abs(indicator) > 1e-8:
        assert (sol.branch == "nonholomorphic") == (indicator > 0)


def test_handoff_cuts_iterations_on_generic_grid():
    # the sigma = 2, shift = 2 Ginibre pair, 4 x the limacon: the generic route
    rmap = elliptic_rmap(2.0, 0.0, 2.0)
    grid = GridSpec(kind="polar", ranges=((1.2, 7.2), (0.6, 2.2)), resolution=(10, 9))
    used = oracle = inside = 0
    for z in grid.points().ravel():
        sol = solve_product(rmap, rmap, complex(z))
        want = fully_damped(solve_product, rmap, rmap, complex(z))
        assert sol.branch == want.branch
        assert sol.iterations <= want.iterations
        inside += sol.branch == "nonholomorphic"
        used += sol.iterations
        oracle += want.iterations
    assert inside > 20
    assert used < oracle


@DIFFERENTIAL
@given(SIGMAS, SIGMAS, st.floats(0.05, 3.0), st.floats(-math.pi, math.pi),
       st.floats(-math.pi, math.pi))
def test_centered_product_rotation_invariance(sa, sb, frac, phi, theta):
    # R-diagonal factors: G11(z e^{i theta}) = e^{-i theta} G11(z), same correlator
    rmap_a, rmap_b = elliptic_rmap(sa), elliptic_rmap(sb)
    z = cmath.rect(frac * sa * sb, phi)
    base = solve_product(rmap_a, rmap_b, z)
    turned = solve_product(rmap_a, rmap_b, z * cmath.exp(1j * theta))
    assert abs(turned.gm.a - cmath.exp(-1j * theta) * base.gm.a) <= 1e-10
    assert abs(turned.correlator - base.correlator) <= 1e-10


# ---------------------------------------------------------------------------
# closed-form limacon reference
# ---------------------------------------------------------------------------


def test_limacon_pinned_values():
    assert limacon_reference(0.0, 0.0).rho == pytest.approx(6.0 / math.pi, rel=1e-12)
    assert limacon_reference(0.0, 2.0).rho == pytest.approx(6.0 / math.pi, rel=1e-12)
    at_min = limacon_reference(3.0, 0.0)
    assert at_min.rho == pytest.approx(9.0 / (56.0 * math.pi), rel=1e-12)
    assert at_min.C == pytest.approx(0.0, abs=1e-12)


def test_limacon_correlator_on_axis():
    assert limacon_reference(0.5, 0.0).C == pytest.approx(0.5, rel=1e-12)


def test_limacon_outside():
    ref = limacon_reference(2.0, 3.0)  # r > 1 + 2cos(phi) there
    assert ref.rho == 0.0
    z = cmath.rect(2.0, 3.0)
    assert ref.G == pytest.approx(1.0 / (z - 1.0), rel=1e-12)


def test_limacon_boundary_continuity():
    phi = 0.4
    edge = 1.0 + 2.0 * math.cos(phi)
    inner = limacon_reference(edge * (1.0 - 1e-8), phi)
    assert inner.C == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("x,y", [(0.8, 0.3), (1.5, 0.5), (0.5, -0.8)])
def test_limacon_density_consistent_with_greens_field(x, y):
    # rho must equal the divergence of (Re G, -Im G) / (2 pi); cross-check the
    # closed-form density against finite differences of the closed-form G
    h = 1e-5

    def g_of(xx, yy):
        z = complex(xx, yy)
        return limacon_reference(abs(z), cmath.phase(z)).G

    def d4(vals):
        return (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)

    gx = [g_of(x + d, y) for d in (-2 * h, -h, h, 2 * h)]
    gy = [g_of(x, y + d) for d in (-2 * h, -h, h, 2 * h)]
    rho_fd = (d4([v.real for v in gx]) + d4([-v.imag for v in gy])) / (2 * math.pi)
    z = complex(x, y)
    assert limacon_reference(abs(z), cmath.phase(z)).rho == pytest.approx(rho_fd, abs=1e-6)


def test_limacon_negative_radius_rejected():
    with pytest.raises(FreeconvError):
        limacon_reference(-0.1, 0.0)


@pytest.mark.parametrize("r,phi", [(math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan),
                                   (0.5, -math.inf)])
def test_limacon_nonfinite_point_rejected(r, phi):
    with pytest.raises(FreeconvError, match="finite"):
        limacon_reference(r, phi)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r", [0.3, 0.5, 0.8])
def test_density_at_circular(r):
    got = density_at(GIN, GIN, complex(r, 0.0))
    assert got.rho == pytest.approx(1.0 / (2.0 * math.pi * r), rel=1e-6)
    assert abs(got.rot) <= 1e-6


def test_density_at_respects_rotation():
    a = density_at(GIN, GIN, cmath.rect(0.5, 1.2))
    assert a.rho == pytest.approx(1.0 / math.pi, rel=1e-6)


@pytest.mark.parametrize("pair", [(SHIFTED, SHIFTED), TAU_PAIR])
def test_density_at_outside_probes_once(pair, monkeypatch):
    handed = counting_probes(monkeypatch)
    got = density_at(*pair, cmath.rect(3.5, 1.0))
    # one probe call classifies z, and the holomorphic branch has no density
    assert [np.size(z) for z in handed] == [1]
    assert got == (0.0, 0.0)


def test_density_field_closed_circular():
    grid = GridSpec("polar", ((0.2, 0.8), (-3.0, 3.0)), (7, 9))
    fld = density_field(GIN, GIN, grid)
    assert fld.route == "closed-form:circular"
    assert fld.rot_residual == 0.0
    assert np.all(fld.rot == 0.0)
    expected = 1.0 / (2.0 * math.pi * np.abs(grid.points()))
    assert np.allclose(fld.rho, expected, rtol=1e-12)


def test_density_field_closed_limacon():
    grid = GridSpec("cartesian", ((0.3, 1.2), (-0.4, 0.4)), (5, 5))
    fld = density_field(SHIFTED, SHIFTED, grid)
    assert fld.route == "closed-form:limacon"
    z = grid.points()[2, 3]
    assert fld.rho[2, 3] == pytest.approx(
        limacon_reference(abs(z), cmath.phase(z)).rho, rel=1e-12)


def test_density_field_generic_matches_closed():
    grid = GridSpec("polar", ((0.4, 0.8), (-0.4, 0.4)), (9, 9))
    closed = density_field(GIN, GIN, grid)
    generic = nonhermitian._generic_density(GIN, GIN, grid)
    assert generic.route == "generic"
    assert generic.holes == 0
    assert np.max(np.abs(generic.rho - closed.rho)) <= 5e-4
    assert generic.rot_residual <= 1e-4
    assert generic.rot.shape == grid.points().shape


def test_elliptic_pair_closed_route_agrees_with_generic():
    # centering is what matters: the closed circular law also covers
    # elliptic factors with nonzero tau
    e1, e2 = elliptic_rmap(1.0, 0.5), elliptic_rmap(1.2, -0.3)
    z = 0.4 + 0.3j
    closed = density_field(e1, e2, GridSpec("polar", ((0.45, 0.55), (0.55, 0.7)), (3, 3)))
    assert closed.route == "closed-form:circular"
    got = density_at(e1, e2, z)
    s = 1.0 * 1.2
    assert got.rho == pytest.approx(1.0 / (2.0 * math.pi * s * abs(z)), rel=1e-6)


@pytest.mark.parametrize("pair", [(elliptic_rmap(2.0, 0.0, 2.0),) * 2, TAU_PAIR],
                         ids=["generic", "tau"])
def test_grid_nodes_equal_one_point_solves(pair):
    # the lockstep solve and its certificate are elementwise: each node's g11
    # and residual are bit-identical to its own solve_product's, whatever
    # else shares the batch
    grid = GridSpec("polar", ((0.3, 7.0), (0.6, 2.2)), (9, 7))
    fld = nonhermitian._generic_density(*pair, grid)
    assert fld.holes == 0
    solved = nonhermitian._solve_nodes(*pair, grid.points())
    for z, g, residual in zip(grid.points().ravel().tolist(), fld.g11.ravel().tolist(),
                              solved.residual.tolist()):
        one = solve_product(*pair, z)
        assert one.gm.a == g and one.residual == residual


@pytest.mark.parametrize("limit", [0.3, 0.45])
def test_grid_nodes_fail_alone(limit):
    # NaN inside the support stops those nodes only: holes, no LinAlgError
    # and no RuntimeWarning, and every other node equals its one-point solve;
    # at limit 0.45 some inside nodes converge in the same lockstep batch
    rmap = nan_inside_map(limit)
    grid = GridSpec("cartesian", ((-1.5, 2.0), (-1.2, 1.3)), (8, 7))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solved = nonhermitian._solve_nodes(rmap, rmap, grid.points())
    assert 0 < solved.failed < grid.points().size
    ok = np.flatnonzero(solved.status == nonhermitian._OK)
    converged = sum(solved.solution(k).branch == "nonholomorphic" for k in ok)
    assert (converged > 0) == (limit > 0.3)
    for k, (z, g) in enumerate(zip(grid.points().ravel().tolist(),
                                   solved.g11.ravel().tolist())):
        if k in ok:
            assert solve_product(rmap, rmap, z).gm.a == solved.solution(k).gm.a == g
        else:
            assert math.isnan(g.real)
            assert_raises_as_one_point_solve(solved, k, rmap, rmap)


def assert_raises_as_one_point_solve(solved, k, rmap_a, rmap_b):
    """Node k of a _solve_nodes result raises the exception type and message
    that solve_product raises at its z."""
    with pytest.raises(FreeconvError) as node:
        solved.solution(k)
    with pytest.raises(FreeconvError) as one:
        solve_product(rmap_a, rmap_b, complex(solved.z[k]))
    assert type(one.value) is type(node.value)
    assert str(one.value) == str(node.value)


@pytest.mark.parametrize("kind", ["origin", "non-finite", "singular", "stalled"])
def test_failed_node_raises_as_its_one_point_solve(kind, monkeypatch):
    # each failure status of a batch maps to the exception of the node's own
    # solve; the determinant floor and the Newton cap force the last two
    rmap = nan_inside_map() if kind == "non-finite" else SHIFTED
    if kind == "singular":
        monkeypatch.setattr(nonhermitian, "_DET_FLOOR", math.inf)
    if kind == "stalled":
        monkeypatch.setattr(nonhermitian, "_MAX_NEWTON", 0)
    code = {"origin": nonhermitian._ORIGIN, "non-finite": nonhermitian._NON_FINITE,
            "singular": nonhermitian._SINGULAR, "stalled": nonhermitian._STALLED}[kind]
    points = np.array([0.0, 0.5 + 0.5j, 0.8 - 0.3j, 1.2 + 0.1j, 3.0 + 1.0j])
    solved = nonhermitian._solve_nodes(rmap, rmap, points)
    failed = np.flatnonzero(solved.status == code)
    assert failed.size and solved.failed >= failed.size
    for k in failed:
        assert_raises_as_one_point_solve(solved, k, rmap, rmap)


def test_generic_density_builds_no_solution_objects(monkeypatch):
    # a grid keeps its node solves as arrays: no NonHermSolution and no
    # QuaternionicGreen on the whole route, on a tau = 0.5 pair
    def unexpected(*args, **kwargs):
        raise AssertionError("per-node object built on the grid route")

    monkeypatch.setattr(nonhermitian, "NonHermSolution", unexpected)
    monkeypatch.setattr(nonhermitian, "QuaternionicGreen", unexpected)
    grid = GridSpec("polar", ((0.3, 3.0), (-2.0, 2.0)), (7, 6))
    fld = nonhermitian._generic_density(*TAU_PAIR, grid)
    assert fld.holes == 0 and (fld.rho > 0).any() and (fld.rho == 0).any()


def test_grid_origin_node_fails_up_front():
    # z = 0 has no phase split: it is an OriginError without a solve, and
    # neither holds the lockstep batch nor shows in its counts
    solved = nonhermitian._solve_nodes(SHIFTED, SHIFTED, np.array([0.0, 0.5 + 0.5j]))
    assert solved.status.tolist() == [nonhermitian._ORIGIN, nonhermitian._OK]
    with pytest.raises(OriginError):
        solved.solution(0)
    assert solved.solution(1).branch == "nonholomorphic"
    assert solved.capped == solved.collapsed == 0


def test_density_at_inside_solves_once(monkeypatch):
    calls = []
    real = nonhermitian._solve_nodes

    def recording(rmap_a, rmap_b, points):
        calls.append(np.size(points))
        return real(rmap_a, rmap_b, points)

    monkeypatch.setattr(nonhermitian, "_solve_nodes", recording)
    got = density_at(GIN, GIN, cmath.rect(0.6, 0.8))
    # one solve at z; the derivative needs no further solves
    assert calls == [1]
    assert got.rho == pytest.approx(1.0 / (2.0 * math.pi * 0.6), rel=1e-6)


def test_density_field_nodes_equal_point_densities():
    # each node's density is its own exact derivative: no solved node loses
    # its density to a failed neighbour, and every node equals density_at
    # bit for bit, whatever else shares the derivative's batched solve
    rmap = nan_inside_map(0.8)
    grid = GridSpec("cartesian", ((-1.5, 2.0), (-1.2, 1.3)), (12, 11))
    fld = density_field(rmap, rmap, grid)
    solved = np.isfinite(fld.g11)
    assert 0 < fld.holes == np.count_nonzero(~solved)
    assert np.isfinite(fld.rho[solved]).all() and np.isfinite(fld.rot[solved]).all()
    for z, rho, rot in zip(grid.points()[solved].tolist(), fld.rho[solved].tolist(),
                           fld.rot[solved].tolist()):
        got = density_at(rmap, rmap, z)
        assert got.rho == rho
        assert got.rot == rot


def test_two_node_grid_densities_equal_point_densities():
    # no route differences across nodes, so two nodes per axis make a grid
    grid = GridSpec("polar", ((0.5, 1.0), (0.0, 1.0)), (2, 2))
    fld = density_field(*TAU_PAIR, grid)
    assert fld.route == "generic" and fld.holes == 0
    assert (fld.rho > 0).any()
    for z, rho in zip(grid.points().ravel().tolist(), fld.rho.ravel().tolist()):
        assert density_at(*TAU_PAIR, z).rho == rho


@pytest.mark.parametrize("resolution", [(1, 2), (2, 1)])
def test_grid_needs_two_points_per_axis(resolution):
    with pytest.raises(GridError, match="at least 2 points per axis"):
        GridSpec("polar", ((0.5, 1.0), (0.0, 1.0)), resolution)


def test_density_field_rejects_origin_grid():
    grid = GridSpec("cartesian", ((-1.0, 1.0), (-1.0, 1.0)), (5, 5))
    with pytest.raises(GridError):
        density_field(GIN, GIN, grid)


def inject_singular(monkeypatch, where):
    """Make the certificate find Z - Sigma_A^L Sigma_B^R singular at the
    nodes z where where(z) holds."""
    real_certificate = nonhermitian._product_equations

    def flaky(rmap_a, rmap_b, z, *args):
        sal, sbr, residuals, det = real_certificate(rmap_a, rmap_b, z, *args)
        return sal, sbr, residuals, np.where(where(z), 0.0, det)

    monkeypatch.setattr(nonhermitian, "_product_equations", flaky)


def test_density_field_tolerates_few_holes(monkeypatch):
    grid = GridSpec("polar", ((0.4, 0.8), (-0.4, 0.4)), (7, 7))
    inject_singular(monkeypatch, lambda z: z == grid.points()[3, 3])
    fld = nonhermitian._generic_density(GIN, GIN, grid)
    assert fld.holes == 1
    # the hole is the failed node alone: its neighbours keep their densities,
    # and its rot is NaN like its rho, not 0
    assert np.flatnonzero(~np.isfinite(fld.rho)).tolist() == [3 * 7 + 3]
    assert np.flatnonzero(np.isnan(fld.rot)).tolist() == [3 * 7 + 3]
    expected = 1.0 / (2.0 * math.pi * np.abs(grid.points()))
    assert np.allclose(fld.rho[np.isfinite(fld.rho)], expected[np.isfinite(fld.rho)],
                       rtol=1e-6, atol=0.0)


def test_density_field_aborts_on_many_holes(monkeypatch):
    grid = GridSpec("polar", ((0.4, 0.8), (-0.4, 0.4)), (7, 7))
    inject_singular(monkeypatch, lambda z: z.real > 0.5)
    with pytest.raises(GridError):
        nonhermitian._generic_density(GIN, GIN, grid)


# ---------------------------------------------------------------------------
# bordered Newton solves against the minimal-norm SVD oracle
# ---------------------------------------------------------------------------


def _drop_phase(jac, x, phase):
    """The Jacobians jac[node] with the unit phase direction d = i x * phase
    projected out of their columns; where d is 0 nothing is dropped."""
    d = np.ascontiguousarray(nonhermitian._as_real(1j * x * np.asarray(phase)[:, None]).T)
    d /= np.maximum(np.linalg.norm(d, axis=1, keepdims=True), np.finfo(float).tiny)
    return jac - np.einsum("nij,nj->ni", jac, d)[..., None] * d[:, None, :]


def _min_norm_solve(a, b):
    """Minimal-norm least-squares solutions of a[i] x[i] = b[i] by a batched
    SVD, with lstsq's default cutoff."""
    u, s, vt = np.linalg.svd(a)
    keep = (s > np.finfo(float).eps * a.shape[-1] * s[:, :1])[..., None]
    w = np.einsum("nji,njc->nic", u, np.ascontiguousarray(b))
    w = np.where(keep, w / np.where(keep, s[..., None], 1.0), 0.0)
    return np.einsum("nji,njc->nic", vt, w)


def svd_oracle_solve(jac, x, phase, rhs):
    """The minimal-norm solve that _bordered_solve replaces: the phase
    direction projected out of jac, then a batched SVD."""
    return _min_norm_solve(jac if phase is None else _drop_phase(jac, x, phase), rhs)


# tau != 0 in the first factor: degree 5 against a tilted factor, degree 2
# against a tau = 0 one or a sigma = 0 one; every shift complex
ORACLE_PAIRS = st.one_of(st.tuples(TILTED, TILTED), st.tuples(TILTED, ROTATION_INVARIANT),
                         st.tuples(TILTED, CONSTANT), st.tuples(CONSTANT, TILTED))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(ORACLE_PAIRS)
@example(TAU_PAIR)
def test_bordered_solves_match_svd_oracle(maps):
    rmap_a, rmap_b = maps
    scale = nonhermitian._support_scale(rmap_a) * nonhermitian._support_scale(rmap_b)
    points = GridSpec("polar", ((0.02 * scale, 0.6 * scale), (-3.1, 3.1)), (9, 9)).points()
    routes = []
    for solve in (None, svd_oracle_solve):
        with mock.patch.object(nonhermitian, "_bordered_solve",
                               solve or nonhermitian._bordered_solve):
            solved = nonhermitian._solve_nodes(rmap_a, rmap_b, points)
            routes.append((solved, nonhermitian._dbar_g11(rmap_a, rmap_b, solved)))
    (lu, lu_dbar), (svd, svd_dbar) = routes
    assert (lu.failed, lu.capped, lu.collapsed, lu.retried) == (
        svd.failed, svd.capped, svd.collapsed, svd.retried)
    assert (np.isnan(lu.g11) == np.isnan(svd.g11)).all()
    assert (np.isnan(lu_dbar) == np.isnan(svd_dbar)).all()
    ok = np.isfinite(svd.g11)
    assert (abs(lu.g11 - svd.g11)[ok] <= 1e-12 * np.maximum(1.0, abs(svd.g11[ok]))).all()
    ok = np.isfinite(svd_dbar)
    assert (abs(lu_dbar - svd_dbar)[ok] <= 1e-7 * abs(svd_dbar[ok])).all()


def test_bordered_solve_is_batch_independent():
    # one node's Newton step (one right-hand side) and derivative solve (two)
    # are bit-identical alone and inside a batch, with and without the phase
    # border, and at a b = 0 node (no phase to drop)
    rng = np.random.default_rng(2)
    jac = rng.standard_normal((7, 8, 8))
    x = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
    x[1, 3] = x[3, 3] = 0.0
    d = nonhermitian._as_real(1j * x * np.array(nonhermitian._PRODUCT_PHASE)[:, None]).T
    for rhs in (rng.standard_normal((7, 8, 1)), rng.standard_normal((7, 8, 2))):
        for phase in (nonhermitian._PRODUCT_PHASE, None):
            batch = nonhermitian._bordered_solve(jac, x, phase, rhs)
            assert np.isfinite(batch).all()
            for n in range(7):
                one = nonhermitian._bordered_solve(jac[n:n + 1], x[:, n:n + 1], phase,
                                                   rhs[n:n + 1])
                np.testing.assert_array_equal(one[0], batch[n])
            if phase is None:
                assert np.allclose(jac @ batch, rhs, atol=1e-12)
            else:
                # the step is orthogonal to the phase direction, and solves
                # the system where that direction is absent (b = 0)
                assert np.allclose(np.einsum("ni,nic->nc", d, batch), 0.0, atol=1e-12)
                assert np.allclose(jac[3] @ batch[3], rhs[3], atol=1e-12)


def poison(jac, where, kind):
    """jac with the systems where where holds made exactly singular (a zero
    block) or given one infinite or NaN entry.  LU raises on the first for
    the whole batch; it could take a finite step past the second, and meet
    the third as a zero pivot."""
    if kind == "singular":
        jac[where, :8, :8] = 0.0
    else:
        jac[where, 0, 0] = np.inf if kind == "infinite" else np.nan
    return jac


@pytest.mark.parametrize("kind", ["singular", "infinite", "nan"])
def test_bad_newton_system_fails_its_node_alone(kind, monkeypatch):
    real = nonhermitian._real_jacobian
    monkeypatch.setattr(nonhermitian, "_real_jacobian",
                        lambda fun, r, nodes, h: poison(real(fun, r, nodes, h), nodes == 1, kind))

    def step(x, nodes):
        return np.array([0.5 * x[0] + 1.0 + 0.5j, 0.5 * x[1] - x[0], x[2] ** 2 + 0.1,
                         1.0 / (2.0 + x[3])])

    seeds = np.zeros((4, 3), dtype=complex)
    fp = nonhermitian._fixed_point(step, seeds, 1e-12, 5, 1e-3)
    assert fp.failed.tolist() == [False, True, False]
    monkeypatch.setattr(nonhermitian, "_real_jacobian", real)
    alone = nonhermitian._fixed_point(step, seeds[:, :1], 1e-12, 5, 1e-3)
    assert not alone.failed[0]
    np.testing.assert_array_equal(fp.values[:, [0, 2]], np.repeat(alone.values, 2, axis=1))


@pytest.mark.parametrize("kind", ["singular", "infinite", "nan"])
def test_bad_derivative_system_is_one_hole(kind, monkeypatch):
    # a bad d F/dx at one node of the tau != 0 grid: that node alone is a
    # hole, and every other node keeps its density bit for bit; only an
    # exactly singular system sends the batch to the slogdet fallback, a
    # non-finite one is left out of the LU
    grid = GridSpec("polar", ((0.3, 3.0), (-2.0, 2.0)), (7, 6))
    want = nonhermitian._generic_density(*TAU_PAIR, grid)
    inside = np.flatnonzero(want.rho.ravel() > 0)
    target = inside[len(inside) // 2]
    real = nonhermitian._real_jacobian

    def bad_at_target(fun, r, nodes, h):
        jac = real(fun, r, nodes, h)
        if len(r) == 10:  # _dbar_g11's call: the rows after x hold Re z and Im z
            poison(jac, r[8] + 1j * r[9] == grid.points().ravel()[target], kind)
        return jac

    monkeypatch.setattr(nonhermitian, "_real_jacobian", bad_at_target)
    slogdet, fallbacks = np.linalg.slogdet, []
    monkeypatch.setattr(np.linalg, "slogdet", lambda a: fallbacks.append(len(a)) or slogdet(a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fld = nonhermitian._generic_density(*TAU_PAIR, grid)
    assert bool(fallbacks) == (kind == "singular")
    assert fld.holes == 1
    assert np.flatnonzero(np.isnan(fld.rho.ravel())).tolist() == [target]
    assert np.isnan(fld.rot.ravel()[target])
    keep = np.isfinite(fld.rho)
    np.testing.assert_array_equal(fld.rho[keep], want.rho[keep])
    np.testing.assert_array_equal(fld.rot[keep], want.rot[keep])


# ---------------------------------------------------------------------------
# residual identities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("z", [0.8 + 0.3j, 0.5, 1.8 + 0.4j])
def test_identities_shifted_product(z):
    sol = solve_product(SHIFTED, SHIFTED, z)
    rep = residual_identities(sol, SHIFTED, SHIFTED)
    assert rep.s_status == "converged"
    assert rep.factorization_residual <= 1e-8
    assert rep.gm_residual <= 1e-9
    assert rep.ga_residual <= 1e-9
    assert rep.gb_residual <= 1e-9


def test_identities_centered_reports_undefined():
    sol = solve_product(GIN, GIN, 0.4)
    rep = residual_identities(sol, GIN, GIN)
    assert rep.s_status == "S undefined"
    assert rep.factorization_residual is None
    assert rep.gm_residual <= 1e-9
    assert rep.ga_residual <= 1e-9
    assert rep.gb_residual <= 1e-9


def test_identities_factorize_on_tau_pair():
    # the point where S fixed points iterated from 1/kappa1 reached roots
    # whose factorization residual was 1.107
    sol = solve_product(*TAU_PAIR, -0.6 - 0.25j)
    assert sol.branch == "nonholomorphic"
    rep = residual_identities(sol, *TAU_PAIR)
    assert rep.s_status == "converged"
    assert rep.factorization_residual <= 1e-8


def test_identities_factorize_on_unequal_factors():
    # the same for tau = 0, where the iterated roots' residual was 1.03
    a, b = elliptic_rmap(1.3, 0.0, 0.8), elliptic_rmap(0.7, 0.0, 1.1)
    sol = solve_product(a, b, -0.3 - 0.1j)
    assert sol.branch == "nonholomorphic"
    rep = residual_identities(sol, a, b)
    assert rep.s_status == "converged"
    assert rep.factorization_residual <= 1e-8


def test_identities_take_inverse_self_energies():
    # the reported S pair is the inverse of Sigma_A^L and Sigma_B^R, also at
    # the point of test_identities_factorize_on_tau_pair
    sol = solve_product(*TAU_PAIR, -0.6 - 0.25j)
    rep = residual_identities(sol, *TAU_PAIR)
    s_left, s_right = inverse_self_energies(sol, *TAU_PAIR)
    assert rep.s_left == s_left and rep.s_right == s_right


def test_identities_hold_at_random_inside_points():
    # 500 inside points of random elliptic pairs; iterating the S fixed
    # points from 1/kappa1 missed the factorizing pair at 115 of them
    for rmap_a, rmap_b, sol in random_inside_points(5, 500):
        rep = residual_identities(sol, rmap_a, rmap_b)
        assert rep.s_status == "converged"
        assert rep.factorization_residual <= 1e-8


def test_identities_commuting_case():
    # real z outside the support: everything is diagonal and commutes, and
    # the factorization collapses to the scalar product law
    sol = solve_product(SHIFTED, SHIFTED, 4.0)
    rep = residual_identities(sol, SHIFTED, SHIFTED)
    assert rep.commutator_norm <= 1e-10
    assert rep.factorization_residual <= 1e-10


COMPLEX = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ELLIPTIC, st.lists(COMPLEX, min_size=4, max_size=4), st.floats(-math.pi, math.pi))
def test_matrix_rmap_commutes_with_one_sided_rotations(rmap, entries, psi):
    # why residual_identities' S steps do not rotate: turning M by e^{-i psi},
    # applying R and turning back by e^{i psi} gives R(M)
    m = Complex2x2(*entries)
    got = _turn(rmap.apply_matrix(_turn(m, cmath.exp(-1j * psi))), cmath.exp(1j * psi))
    want = rmap.apply_matrix(m)
    for field in ("q11", "q12", "q21", "q22"):
        w = getattr(want, field)
        assert abs(getattr(got, field) - w) <= 1e-15 * (1.0 + abs(w))
