"""Tests for scalar R/S transforms, Green's functions, and real-line densities."""

from __future__ import annotations

import cmath
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freeconv import cli
from freeconv.errors import CenteredTransformError, ConvergenceError, FreeconvError
from freeconv.hermitian import (
    ScalarTransform,
    _affine_aux,
    _affine_transform,
    _product_aux,
    constant_transform,
    density_real,
    free_add,
    gaussian_transform,
    green_from_r,
    multiply_r_system,
    multiply_via_s,
    product_r_transform,
    s_from_green,
    s_from_r,
    shifted_gaussian_transform,
    assert_s_r_consistency,
)

GUE = gaussian_transform(1.0)
SHIFTED = shifted_gaussian_transform(1.0, 1.0)


def semicircle_green(z: complex) -> complex:
    # closed form g = (z - sqrt(z-2)sqrt(z+2)) / 2, the branch with g ~ 1/z;
    # the split square root keeps the correct sheet on all of C+
    return (z - cmath.sqrt(z - 2.0) * cmath.sqrt(z + 2.0)) / 2.0


def test_green_zero_transform():
    # R = 0 is the point mass at the origin: G = 1/z
    assert green_from_r(constant_transform(0.0), 2.0).g == pytest.approx(0.5, abs=1e-12)


def test_green_constant_transform():
    # R = 1 is the point mass at one: G = 1/(z-1)
    assert green_from_r(constant_transform(1.0), 3.0).g == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("z", [2.0 + 1e-3j, 0.5 + 1j, -1.0 + 0.5j,
                               0.1 + 1e-4j, 3.0 + 0.01j, -2.5 + 2j])
def test_green_gaussian_matches_semicircle(z):
    got = green_from_r(GUE, z)
    assert got.g == pytest.approx(semicircle_green(z), abs=1e-10)
    assert got.residual <= 1e-12


@pytest.mark.parametrize("z", [0.5 + 1e-3j, 1.9 + 1e-2j, -0.3 + 1j])
def test_green_is_herglotz(z):
    # upper half plane maps to the lower half plane for any spectral measure
    assert green_from_r(GUE, z).g.imag < 0
    assert green_from_r(SHIFTED, z).g.imag < 0


def test_density_semicircle_center():
    assert density_real(GUE, 0.0) == pytest.approx(1.0 / math.pi, abs=1e-5)


def test_density_semicircle_interior():
    # rho(x) = sqrt(4 - x^2) / (2 pi) at x = 1
    assert density_real(GUE, 1.0) == pytest.approx(math.sqrt(3.0) / (2 * math.pi), abs=1e-5)


def test_density_outside_support():
    assert density_real(GUE, 2.5) == pytest.approx(0.0, abs=1e-4)


def test_density_point_mass_poisson_peak():
    # a point mass smoothed at height epsilon gives the Poisson kernel peak
    eps = 1e-3
    assert density_real(constant_transform(1.0), 1.0, epsilon=eps) == pytest.approx(
        1.0 / (math.pi * eps), rel=0.01)


def test_density_normalizes():
    xs = np.arange(-2.05, 2.05, 1e-3)
    rho = [density_real(GUE, float(x)) for x in xs]
    assert 0.99 <= np.trapezoid(rho, xs) <= 1.01


def test_free_add_variances():
    # sum of two unit semicircles is a semicircle of variance 2
    added = free_add(GUE, GUE)
    direct = gaussian_transform(math.sqrt(2.0))
    for z in (0.4 + 0.8j, 2.9 + 0.01j, -1.0 + 0.2j):
        assert green_from_r(added, z).g == pytest.approx(green_from_r(direct, z).g, abs=1e-10)
    assert density_real(added, 0.0) == pytest.approx(1.0 / (math.pi * math.sqrt(2.0)), abs=1e-5)


def test_free_add_is_pointwise_r_addition():
    ta = shifted_gaussian_transform(1.0, 1.0)
    tb = shifted_gaussian_transform(0.5, 2.0)
    added = free_add(ta, tb)
    assert added.kappa1 == pytest.approx(1.5)
    for g in (0.3, -0.2 + 0.6j):
        assert added.r_eval(g) == pytest.approx(ta.r_eval(g) + tb.r_eval(g), abs=1e-14)


def closed_s(y: complex) -> complex:
    # S transform of the unit-shift unit-variance ensemble, R(g) = 1 + g;
    # written in the rationalized form that is cancellation-free near y = 0
    return 2.0 / (1.0 + (1.0 + 4.0 * y) ** 0.5)


@pytest.mark.parametrize("y", [1e-8, 0.25, 1.0, 2.0, 2.5, 3.7, 4.0])
def test_s_from_r_closed_form(y):
    assert s_from_r(SHIFTED, y) == pytest.approx(closed_s(y), abs=1e-10)


def test_s_from_r_golden_ratio_point():
    # S(1) = 2 / (1 + sqrt(5)), the inverse golden ratio
    assert s_from_r(SHIFTED, 1.0) == pytest.approx(2.0 / (1.0 + math.sqrt(5.0)), abs=1e-12)


@pytest.mark.parametrize("y", [0.1, 0.9, 2.0, 2.5, 3.7])
def test_s_from_green_agrees(y):
    # independent route: grid-continued Green's inversion, including the
    # second sheet past the moment-map fold at y = 2
    assert s_from_green(SHIFTED, y) == pytest.approx(closed_s(y), abs=1e-8)


@pytest.mark.parametrize("y", [0.05, 0.2 + 0.1j, 0.45, 0.5])
def test_s_r_mutually_inverse(y):
    s = s_from_r(SHIFTED, y)
    assert abs(s * SHIFTED.r_eval(y * s) - 1.0) <= 1e-10


@pytest.mark.parametrize("shift,sigma", [(2.0, 0.5), (-1.0, 1.0), (0.3, 2.0)])
def test_s_r_mutually_inverse_other_ensembles(shift, sigma):
    t = shifted_gaussian_transform(shift, sigma)
    for y in (0.1, 0.4):
        s = s_from_r(t, y)
        assert abs(s * t.r_eval(y * s) - 1.0) <= 1e-10


@pytest.mark.parametrize("y", [0.25, 1.0, 3.0])
def test_multiply_via_s_squares(y):
    s = s_from_r(SHIFTED, y)
    assert multiply_via_s(SHIFTED, SHIFTED, y) == pytest.approx(s * s, abs=1e-10)


def test_multiply_via_s_symmetric():
    ta = shifted_gaussian_transform(1.0, 1.0)
    tb = shifted_gaussian_transform(2.0, 0.5)
    assert multiply_via_s(ta, tb, 0.7) == pytest.approx(multiply_via_s(tb, ta, 0.7), abs=1e-12)


def test_consistency_check_returns_product_s():
    got = assert_s_r_consistency(SHIFTED, SHIFTED, 0.3)
    assert got == pytest.approx(multiply_via_s(SHIFTED, SHIFTED, 0.3), abs=1e-10)


@pytest.mark.parametrize("func", [s_from_r, s_from_green])
def test_centered_s_raises(func):
    with pytest.raises(CenteredTransformError):
        func(GUE, 0.5)


def test_centered_multiply_raises():
    with pytest.raises(CenteredTransformError):
        multiply_via_s(GUE, GUE, 0.5)


@pytest.mark.parametrize("z", [0.1j, 2.0, -1.0 + 2j, 10.0, 0.3 + 0.4j])
def test_gue_product_green_is_trivial(z):
    # both factors centered: every mixed moment vanishes and G(z) = 1/z
    assert multiply_r_system(GUE, GUE, z).g == pytest.approx(1.0 / z, abs=1e-10)


@pytest.mark.parametrize("z", [6.0 + 0.5j, 8.0, -3.0 + 1j])
def test_product_system_internal_identities(z):
    pg = multiply_r_system(SHIFTED, SHIFTED, z)
    ra = SHIFTED.r_eval(pg.g_b)
    rb = SHIFTED.r_eval(pg.g_a)
    assert abs(pg.g * (z - ra * rb) - 1.0) <= 1e-10
    assert abs(pg.g_a - pg.g * ra) <= 1e-10
    assert abs(pg.g_b - pg.g * rb) <= 1e-10
    assert pg.residual <= 1e-12


@pytest.mark.parametrize("z", [8.0, 3.0 + 2j, -2.0 + 1.5j])
def test_product_r_transform_matches_system(z):
    # two independent routes to the product Green's function
    combined = product_r_transform(SHIFTED, SHIFTED)
    assert green_from_r(combined, z).g == pytest.approx(
        multiply_r_system(SHIFTED, SHIFTED, z).g, abs=1e-10)


@pytest.mark.parametrize("ta,tb", [
    (SHIFTED, SHIFTED),
    (GUE, SHIFTED),
    (shifted_gaussian_transform(0.5, 2.0), constant_transform(1.5)),
    (constant_transform(0.5 + 1j), shifted_gaussian_transform(-1.0, 0.7)),
])
@pytest.mark.parametrize("z", [8.0 + 0.5j, 3.0 + 2j, -2.0 + 1.5j, 0.4 + 0.9j])
def test_affine_product_matches_generic_route(ta, tb, z):
    # the generic route (no affine declaration) is the oracle
    generic = [dataclasses.replace(t, affine=None) for t in (ta, tb)]
    want = multiply_r_system(*generic, z)
    got = multiply_r_system(ta, tb, z)
    for u, v in ((got.g, want.g), (got.g_a, want.g_a), (got.g_b, want.g_b)):
        assert u == pytest.approx(v, abs=1e-10)
    combined = product_r_transform(ta, tb)
    h = 1e-6
    fd = (combined.r_eval(z + h) - combined.r_eval(z - h)) / (2 * h)
    assert combined.r_deriv(z) == pytest.approx(fd, rel=1e-6)


def test_affine_declarations():
    assert constant_transform(2.5).affine == (2.5, 0.0)
    assert gaussian_transform(2.0).affine == (0.0, 4.0)
    assert SHIFTED.affine == (1.0, 1.0)
    assert product_r_transform(SHIFTED, SHIFTED).affine is None


def test_affine_aux_singular_raises():
    # D = 1 - x^2 alpha_A alpha_B vanishes at x = 1 for two unit semicircles
    with pytest.raises(ConvergenceError):
        _product_aux(GUE, GUE, 1.0)
    product = product_r_transform(GUE, GUE)
    for x in (1.0, -1.0 + 0j):
        for evaluate in (product.r_eval, product.r_deriv):
            with pytest.raises(ConvergenceError, match="singular"):
                evaluate(x)


AFFINE_PAIRS = st.tuples(st.complex_numbers(max_magnitude=3.0), st.floats(-4.0, 4.0))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(AFFINE_PAIRS, AFFINE_PAIRS, st.complex_numbers(min_magnitude=0.01, max_magnitude=3.0))
def test_affine_product_r_is_pq_over_d_squared(fa, fb, x):
    # r_eval is R_A(g_b) R_B(g_a) over the exact auxiliary pair for every
    # pair; for two affine factors that is P Q / D^2, up to the rounding of
    # the sums c_A + alpha_A g_b and c_B + alpha_B g_a
    ta, tb = (_affine_transform(name, *f) for name, f in (("a", fa), ("b", fb)))
    p, q, d = _affine_aux(fa, fb, x)
    if abs(d) < 1e-3:
        return  # next to a pole of R_AB
    ga, gb = _product_aux(ta, tb, x)
    scale = (abs(fa[0]) + abs(fa[1] * gb)) * (abs(fb[0]) + abs(fb[1] * ga))
    got = product_r_transform(ta, tb).r_eval(x)
    assert abs(got - p * q / (d * d)) <= 1e-14 * scale + 1e-300  # subnormal products
    assert got == ta.r_eval(gb) * tb.r_eval(ga)


@pytest.mark.parametrize("ta,tb,c", [
    (constant_transform(2.0), constant_transform(0.5 - 1j), 1.0 - 2j),
    (gaussian_transform(1.3), constant_transform(0.0), 0.0),
    (constant_transform(0.0), GUE, 0.0),
])
def test_constant_product_declared(ta, tb, c):
    # alpha_A alpha_B = 0 and alpha_A c_B^2 + alpha_B c_A^2 = 0: R_AB = c_A c_B
    assert product_r_transform(ta, tb).affine == (c, 0.0)


@pytest.mark.parametrize("ta,tb", [
    (constant_transform(2.0), GUE),          # alpha_B c_A^2 = 4
    (GUE, GUE),                              # alpha_A alpha_B = 1
])
def test_nonconstant_product_not_declared(ta, tb):
    assert product_r_transform(ta, tb).affine is None


@pytest.mark.parametrize("z", [3.0 + 0.5j, -0.4 + 0.2j, 1.0 + 2j])
def test_constant_green_is_exact_root(z):
    t = product_r_transform(constant_transform(2.0), constant_transform(0.5 - 1j))
    got = green_from_r(t, z)
    assert got.g == 1.0 / (z - (1.0 - 2j))
    assert got.branch_certificate == ((1.0, got.residual),)
    want = green_from_r(dataclasses.replace(t, affine=None), z)  # the ladder
    assert got.g == pytest.approx(want.g, abs=1e-12)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.floats(-3.0, 3.0), st.floats(0.1, 2.0), st.floats(-8.0, 8.0),
       st.sampled_from([1e-6, -1e-6, 1e-3, -1e-3, 0.5, -0.5]))
def test_affine_green_matches_ladder(shift, sigma, x, height):
    # the ladder (no affine declaration) is the oracle, down to 1e-6 off the cut
    t = shifted_gaussian_transform(shift, sigma)
    z = complex(x, height)
    got = green_from_r(t, z)
    want = green_from_r(dataclasses.replace(t, affine=None), z)
    assert abs(got.g - want.g) <= 1e-12 * (1.0 + abs(got.g))
    assert got.branch_certificate == ((1.0, got.residual),)


def test_affine_green_keeps_the_sheet_of_a_complex_shift():
    # w = z - c = i: the semicircle's G(i) = i (1 - sqrt 5) / 2; the ladder's
    # radial path from infinity crosses the cut [-2, 2] in w and returns the
    # other root, +1.618i
    t = shifted_gaussian_transform(0.5 - 1.5j, 1.0)
    g = green_from_r(t, 0.5 - 0.5j).g
    assert g == pytest.approx(0.5j * (1.0 - math.sqrt(5.0)), abs=1e-15)
    # the Stieltjes integral of the semicircle density at w = i
    xs = np.linspace(-2.0, 2.0, 20001)
    stieltjes = np.trapezoid(np.sqrt(4.0 - xs * xs) / (2.0 * np.pi) / (1j - xs), xs)
    assert g == pytest.approx(stieltjes, abs=1e-6)


@pytest.mark.parametrize("z", [1.0, 1.0 + 0j, -2.0, 2.0, 0.5 - 0j])
def test_green_on_the_cut_raises(z):
    # both roots have modulus 1 on [-2, 2]: no branch to pick
    with pytest.raises(ConvergenceError):
        green_from_r(GUE, z)


@pytest.mark.parametrize("y", [-0.25, -1.0, -3.0 + 0j])
def test_s_on_the_cut_raises(y):
    # 1 + 4 y <= 0 for R = 1 + g: both roots of y S^2 + S - 1 have one modulus
    with pytest.raises(ConvergenceError):
        s_from_r(SHIFTED, y)


def test_s_from_r_needs_an_affine_transform():
    with pytest.raises(FreeconvError, match="affine"):
        s_from_r(dataclasses.replace(SHIFTED, affine=None), 0.5)


@pytest.mark.parametrize("epsilon", [-1e-6, 0.0, math.nan, math.inf])
def test_density_real_rejects_bad_epsilon(epsilon):
    # a negative epsilon used to return the density with its sign flipped
    with pytest.raises(FreeconvError, match="epsilon"):
        density_real(GUE, 0.3, epsilon=epsilon)


SHIFTED_GUE = {"kind": "gue", "n": 24, "sigma": 1.3, "shift": 0.5}


@pytest.mark.parametrize("ensemble,variable,start", [
    ({"kind": "gue", "n": 24}, "z", -4.0),
    (SHIFTED_GUE, "z", -4.0),
    (SHIFTED_GUE, "y", 0.05),
], ids=["gue_z", "shifted_gue_z", "shifted_gue_y"])
def test_cli_scalar_tables_skip_the_ladder(ensemble, variable, start, stage_count, tmp_path):
    # G, the density and S of every affine transform are exact roots
    job = tmp_path / "transform.json"
    job.write_text(json.dumps({
        "ensemble_a": ensemble, "variable": variable, "start": start, "stop": 4.0,
        "count": 121, "output": str(tmp_path / "t.csv")}))
    assert cli.main(["transform", "--config", str(job)]) == 0
    assert not stage_count


def test_constant_green_pole_and_certificate():
    with pytest.raises(ConvergenceError):
        green_from_r(constant_transform(2.0), 2.0)
    # a declaration that r_eval contradicts fails its residual certificate
    liar = dataclasses.replace(constant_transform(2.0), affine=(3.0, 0.0))
    with pytest.raises(ConvergenceError):
        green_from_r(liar, 1.0 + 1j)


NARROW = gaussian_transform(1e-4)
NARROW_X = [-2e-4 + k * 1e-5 for k in range(41)]


@pytest.mark.parametrize("route", ["affine", "ladder"])
def test_narrow_spectrum_certifies_on_its_support(route):
    # |g| ~ 1/sigma = 1e4 there, so rounding alone leaves |g - 1/(z - R(g))|
    # near 1e-12; the scale-free |g (z - R(g)) - 1| stays at the rounding level
    t = NARROW if route == "affine" else dataclasses.replace(NARROW, affine=None)
    for x in NARROW_X:
        got = green_from_r(t, complex(x, 1e-6))
        assert got.residual <= 1e-12
        assert got.g == pytest.approx(1e4 * semicircle_green(complex(x, 1e-6) / 1e-4),
                                      rel=1e-9)


def test_narrow_spectrum_non_root_still_fails():
    # alpha off by 1%: the root of that quadratic misses R's own by |g|^2 1e-10
    liar = dataclasses.replace(NARROW, affine=(0.0, 1.01e-8))
    for x in NARROW_X[::10]:
        with pytest.raises(ConvergenceError, match="certificate"):
            green_from_r(liar, complex(x, 1e-6))


def test_cli_transform_of_a_narrow_spectrum(tmp_path):
    job = tmp_path / "transform.json"
    job.write_text(json.dumps({
        "ensemble_a": {"kind": "gue", "n": 24, "sigma": 1e-4}, "start": -2e-4,
        "stop": 2e-4, "count": 41, "output": str(tmp_path / "t.csv")}))
    assert cli.main(["transform", "--config", str(job)]) == 0


NAN = complex(math.nan, 0.0)


def test_generic_aux_rejects_nan():
    # the residual check must not pass NaN as converged
    nan_r = ScalarTransform("nan", r_eval=lambda g: NAN, kappa1=0.0)
    with pytest.raises(ConvergenceError):
        _product_aux(nan_r, nan_r, 0.3)


def test_ladder_rejects_nan_stage():
    # R turns NaN once |g| grows past 0.3, i.e. part way down the ladder
    t = ScalarTransform("nan below", r_eval=lambda g: g if abs(g) < 0.3 else NAN,
                        kappa1=0.0)
    with pytest.raises(ConvergenceError):
        green_from_r(t, 0.5 + 0.5j)


def test_transform_metadata():
    assert GUE.kappa1 == 0
    assert SHIFTED.kappa1 == 1.0
    assert constant_transform(2.5).kappa1 == 2.5
    assert constant_transform(2.5).r_eval(0.3 + 1j) == 2.5
    assert GUE.r_eval(0.3 + 1j) == pytest.approx(0.3 + 1j)
    assert gaussian_transform(2.0).r_eval(0.5) == pytest.approx(2.0)
