"""Tests for the 2x2 quaternionic solvers, support boundaries, and 2D densities."""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freeconv import hermitian, nonhermitian
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
    shifted_rmap,
    solve_product,
    solve_single,
)

GIN = ginibre_rmap(1.0)
SHIFTED = elliptic_rmap(1.0, 0.0, 1.0)  # unit-shift Ginibre


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


def test_fixed_point_rejects_nonfinite_step():
    # the Jacobian guard stops Newton before LAPACK sees the values
    with np.errstate(invalid="ignore"), pytest.raises(ConvergenceError, match="non-finite"):
        nonhermitian._fixed_point(lambda c: [complex(math.inf, 0.0)], [0.5], 1e-12)


def test_fixed_point_converges_a_contraction():
    # v -> m v + c with |m| = 0.5 has the fixed point c / (1 - m)
    m, c = 0.3 + 0.4j, (1.0 - 2.0j, 0.5j)
    values, iterations = nonhermitian._fixed_point(
        lambda v: [m * vk + ck for vk, ck in zip(v, c)], (0.0, 0.0), 1e-12)
    assert 0 < iterations < nonhermitian._MAX_FP
    assert max(abs(v - ck / (1.0 - m)) for v, ck in zip(values, c)) <= 1e-12


def test_fixed_point_hands_slow_contractions_to_newton():
    # multiplier 1 - 1e-4: the damped update shrinks by 5e-5 per step and is
    # still above _HANDOFF after _MAX_FP steps, so Newton converges the rest
    m, c = 1.0 - 1e-4, 1e-4 * (1.0 + 1.0j)
    values, iterations = nonhermitian._fixed_point(lambda v: [m * v[0] + c], (0.0,), 1e-12)
    assert iterations == nonhermitian._MAX_FP
    assert abs(m * values[0] + c - values[0]) <= 1e-12
    assert abs(values[0] - (1.0 + 1.0j)) <= 1e-8


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


def test_shifted_rmap_matches_elliptic_shift():
    a = shifted_rmap(ginibre_rmap(1.0), 1.0)
    assert a.meta == SHIFTED.meta  # an elliptic base stays elliptic
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


# ---------------------------------------------------------------------------
# exact affine route against the generic (callable) route
# ---------------------------------------------------------------------------


def generic_twin(rmap: MatrixRMap) -> MatrixRMap:
    """The same map without meta: every solve takes the callable route."""
    return MatrixRMap(name=rmap.name, apply_q=rmap.apply_q, kappa1=rmap.kappa1,
                      apply_matrix=rmap.apply_matrix)


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
def test_affine_product_matches_generic_route(rmap_a, rmap_b, z):
    ta, tb = rmap_a.diagonal_section(), rmap_b.diagonal_section()
    assert ta.affine is not None and tb.affine is not None
    oa, ob = generic_twin(rmap_a), generic_twin(rmap_b)
    assert oa.diagonal_section().affine is None
    try:
        want = hermitian.multiply_r_system(oa.diagonal_section(),
                                           ob.diagonal_section(), z)
    except FreeconvError:
        return  # the oracle itself has no holomorphic solution here
    got = hermitian.multiply_r_system(ta, tb, z)
    assert close(got.g, want.g) and close(got.g_a, want.g_a)
    assert close(got.g_b, want.g_b)
    indicator = branch_indicator(oa, ob, z)
    if abs(indicator) > 1e-8:
        assert (branch_indicator(rmap_a, rmap_b, z) > 0) == (indicator > 0)


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
    assert close(rmap_a.b_coupling(0.3 + 0.1j),
                 generic_twin(rmap_a).b_coupling(0.3 + 0.1j), 1e-8)


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
    assert probe.vectorized
    indicator, pg, ok = probe(np.array(zs))
    oracle = nonhermitian._holomorphic_probe(generic_twin(rmap_a), generic_twin(rmap_b))
    assert not oracle.vectorized
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


def test_constant_probe_flags_pole_and_origin():
    probe = nonhermitian._holomorphic_probe(SHIFTED, SHIFTED)  # R_AB = 1
    _, _, ok = probe(np.array([1.0, 0.0, 2.0 + 1j]))
    assert ok.tolist() == [False, False, True]


def test_constant_pair_routing():
    assert nonhermitian._holomorphic_probe(GIN, SHIFTED).vectorized
    assert nonhermitian._holomorphic_probe(GIN, gue_rmap(1.0)).vectorized  # R_AB = 0
    assert nonhermitian._holomorphic_probe(GIN, constant_rmap(2.0)).vectorized
    assert not nonhermitian._holomorphic_probe(gue_rmap(1.0), gue_rmap(1.0)).vectorized
    assert not nonhermitian._holomorphic_probe(generic_twin(GIN), GIN).vectorized


TAU_PAIR = (elliptic_rmap(1.0, 0.5, 0.7), elliptic_rmap(1.0, 0.5, 0.5 + 0.3j))


def nan_inside_map():
    """elliptic_rmap(1, 0.5, 0.5) without meta, whose R turns NaN where |a| > 0.3."""
    base = elliptic_rmap(1.0, 0.5, 0.5)

    def apply_q(g):
        out = base.apply_q(g)
        return out if abs(g.a) <= 0.3 else type(g)(complex(math.nan, 0.0), out.b)

    return MatrixRMap("nan inside", apply_q, base.kappa1)


@pytest.mark.parametrize("pair", [TAU_PAIR, (nan_inside_map(), nan_inside_map())])
def test_probe_on_array_matches_scalar_route(pair):
    rmap_a, rmap_b = pair
    zs = np.array([cmath.rect(r, phi) for r in (0.3, 1.1, 2.0, 3.5, 7.0)
                   for phi in (-2.8, -1.0, 0.4, 1.9)])
    indicator, pg, ok = nonhermitian._holomorphic_probe(rmap_a, rmap_b)(zs)
    ta, tb = rmap_a.diagonal_section(), rmap_b.diagonal_section()
    failed = 0
    for k, z in enumerate(zs.tolist()):
        try:
            want = hermitian.multiply_r_system(ta, tb, z)
        except FreeconvError:
            assert not ok[k]
            failed += 1
            continue
        assert ok[k]
        assert (pg.g[k], pg.g_a[k], pg.g_b[k], pg.residual[k]) == tuple(want)
        assert indicator[k] == nonhermitian._stability_radius(
            z, want.g, ta.r_eval(want.g_b), tb.r_eval(want.g_a),
            rmap_a.b_coupling(want.g_b), rmap_b.b_coupling(want.g_a))
    # the NaN map fails inside, where |g| is large
    assert (failed > 0) == (rmap_a.name == "nan inside")
    assert failed < len(zs)


@pytest.fixture
def stage_count(monkeypatch):
    calls = []
    real = hermitian._stage_solve

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(hermitian, "_stage_solve", counting)
    return calls


@pytest.mark.parametrize("pair", [(gue_rmap(1.0), gue_rmap(1.0)), TAU_PAIR])
def test_tau_pairs_take_the_ladder(pair, stage_count):
    boundary_curve(*pair, angles=[0.4])
    assert len(stage_count) > 0


@pytest.mark.parametrize("pair", [(GIN, GIN), (SHIFTED, SHIFTED)])
def test_constant_pairs_skip_the_ladder(pair, stage_count):
    boundary_curve(*pair, angular_samples=8)
    solve_product(*pair, 0.5 + 0.5j)
    assert branch_indicator(*pair, 4.0 + 1j) < 0
    assert not stage_count


@pytest.mark.xfail(strict=True, reason="z lies in a hole of the support, where the "
                   "physical root is not the ladder's continuation from infinity")
def test_hole_point_takes_the_stable_root():
    # Monte Carlo (N = 400, 10 trials) gives (1/N) tr (z - AB)^-1 = -0.02326+0.19692i
    # +- 0.00036 here; the ladder's root -1.596+0.027i has indicator 4.85
    a = elliptic_rmap(1.728, 0.812, -1.394 - 1.317j)
    b = elliptic_rmap(1.729, -0.914, -0.679 - 1.148j)
    sol = solve_product(a, b, -0.583 - 0.102j)
    assert abs(sol.gm.a - (-0.0228 + 0.197j)) <= 1e-3


@pytest.mark.parametrize("pair", [(GIN, GIN), (SHIFTED, SHIFTED), TAU_PAIR],
                         ids=["ginibre2", "limacon", "tau"])
def test_wrong_nonholomorphic_hint_returns_holomorphic_branch(pair):
    # the fixed point sinks to b = 0 outside, and the correlator check after
    # Newton hands the point to the holomorphic solution; also 1% past the edge
    edge = boundary_curve(*pair, angles=[0.3]).points[0][0]
    for z in (cmath.rect(1.01 * edge, 0.3), 3.5 + 0.5j, -3.0 + 1.0j, 0.5 - 4.0j, 5.0, 2.0j):
        assert branch_indicator(*pair, z) < 0.0
        sol = solve_product(*pair, z, branch="nonholomorphic")
        assert sol.branch == "holomorphic"
        assert sol.gm.a == solve_product(*pair, z).gm.a
        assert sol.residual <= 1e-10


def test_boundary_gue_square_is_unit_circle():
    res = boundary_curve(gue_rmap(1.0), gue_rmap(1.0), angular_samples=8)
    assert len(res.points) == 8 and not res.empty_rays
    for r, _phi in res.points:
        assert r == pytest.approx(1.0, abs=1e-4)


def bisection_ray(inside, r_max, expandable, r_min=1e-4, tol=1e-5):
    """boundary_curve's bisection search on one ray: (radius, count)."""
    count = 0

    def probe(r):
        nonlocal count
        count += 1
        return inside(r)

    r_hi = r_max
    for _ in range(3 if expandable else 1):
        if not probe(r_hi):
            break
        r_hi *= 2.0
    else:
        return None, count
    r_prev = r_hi
    for k in range(1, 25):
        r = r_hi + (r_min - r_hi) * k / 24
        if probe(r):
            lo, hi = r, r_prev
            break
        r_prev = r
    else:
        return None, count
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if probe(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), count


def counting_probes(monkeypatch):
    """Patch _holomorphic_probe so that every probe it builds records the
    arrays of z handed to it; returns that list."""
    handed = []
    real = nonhermitian._holomorphic_probe

    def build(rmap_a, rmap_b):
        probe = real(rmap_a, rmap_b)

        @functools.wraps(probe)  # keeps probe.vectorized
        def counting(z):
            handed.append(z)
            return probe(z)

        return counting

    monkeypatch.setattr(nonhermitian, "_holomorphic_probe", build)
    return handed


@pytest.mark.parametrize("pair", [
    (gue_rmap(1.0), gue_rmap(1.0)),
    TAU_PAIR,
    # plain Illinois needs more steps than bisection on some of these rays
    (elliptic_rmap(1.0, 0.5, 1.0), elliptic_rmap(1.0, 0.3, 1.0)),
])
def test_ladder_rays_evaluate_no_more_points(pair, monkeypatch):
    # point by point, every ray spends at most the bisection search's count
    angles = [-math.pi + (k + 0.5) * math.pi / 12 for k in range(24)]
    per_ray = {}
    handed = counting_probes(monkeypatch)
    res = boundary_curve(*pair, angles=angles)
    monkeypatch.undo()
    for z in np.concatenate(handed):
        phi = min(angles, key=lambda p: abs(cmath.rect(1.0, p) - z / abs(z)))
        per_ray[phi] = per_ray.get(phi, 0) + 1
    located = dict((phi, r) for r, phi in res.points)
    r_max = 1.5 * nonhermitian._support_scale(pair[0]) * nonhermitian._support_scale(
        pair[1]) + 1.0
    for phi in angles:
        def inside(r):
            try:
                return branch_indicator(*pair, cmath.rect(r, phi)) > 0.0
            except FreeconvError:
                return True  # as boundary_curve treats a failed solve

        ref, count = bisection_ray(inside, r_max, True)
        assert per_ray[phi] <= count
        assert located.get(phi) == pytest.approx(ref, abs=1e-5)


@pytest.mark.parametrize("pair,angles", [
    ((GIN, GIN), [-2.5, -0.9, 0.7, 2.2]),
    ((SHIFTED, SHIFTED), [-3.0, -2.2, -1.0, 0.0, 1.3, 2.4]),
    ((elliptic_rmap(1.0, 0.0, 0.6 - 0.8j), elliptic_rmap(1.0, 0.0, 1.1 + 0.2j)),
     [-2.6, -1.2, 0.3, 1.9]),
])
def test_lockstep_boundary_matches_oracle_route(pair, angles):
    # sigma = 1 keeps the internal r_max the same without elliptic meta
    got = boundary_curve(*pair, angles=angles)
    want = boundary_curve(*(generic_twin(m) for m in pair), angles=angles)
    assert got.empty_rays == want.empty_rays
    assert [phi for _, phi in got.points] == [phi for _, phi in want.points]
    for (r, _), (r_want, _) in zip(got.points, want.points):
        assert r == pytest.approx(r_want, abs=2e-5)
    assert got.failed_solves == want.failed_solves == 0


def test_array_route_rounds_within_bisection_budget(monkeypatch):
    # near this pair's cusps unprojected Illinois needs 17 steps, bisection 16
    pair = (elliptic_rmap(1.0, 0.0, 0.6 - 0.8j), elliptic_rmap(0.7, 0.0, 1.1 + 0.2j))
    handed = counting_probes(monkeypatch)
    boundary_curve(*pair, angular_samples=128)
    sizes = [len(z) for z in handed]
    assert sizes[:2] == [128, 128 * 24]  # one probe round, then the whole scan
    r_max = 1.5 * nonhermitian._support_scale(pair[0]) * nonhermitian._support_scale(
        pair[1]) + 1.0
    assert len(sizes) - 2 <= math.ceil(math.log2((r_max - 1e-4) / 24 / 1e-5))


def test_boundary_counts_failed_solves_on_array_route():
    # R_AB = 2 here, and z = 2 is the pole of g = 1/(z - 2), where the solve fails
    a, b = elliptic_rmap(0.01, 0.0, 2.0), elliptic_rmap(0.01, 0.0, 1.0)
    probe = boundary_curve(a, b, angles=[0.0], r_max=2.0)
    assert probe.empty_rays == (0.0,) and probe.failed_solves == 1
    scan = boundary_curve(a, b, angles=[0.0], r_min=2.0, r_max=4.0)  # z = 2 ends the scan
    assert scan.failed_solves == 1
    assert scan.points[0][0] == pytest.approx(2.02, abs=0.01)


def test_boundary_counts_failed_solves():
    # R turns NaN where |a| > 0.3; those solves fail and count as inside
    base = elliptic_rmap(1.0, 0.5, 0.5)
    broken = nan_inside_map()
    assert boundary_curve(base, base, angles=[0.3]).failed_solves == 0
    assert boundary_curve(broken, broken, angles=[0.3]).failed_solves > 0


@pytest.mark.parametrize("pair", [(GIN, GIN), (SHIFTED, SHIFTED)])
def test_boundary_no_failed_solves_on_registered_pairs(pair):
    assert boundary_curve(*pair, angular_samples=32).failed_solves == 0


# ---------------------------------------------------------------------------
# damped fixed point handed to Newton once its update is below _HANDOFF
# ---------------------------------------------------------------------------


def fully_damped(solve, *args):
    """solve(*args) with the damped loop run until its update is below
    0.1 tol = 1e-13, so that Newton only polishes: the oracle of the hand-off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nonhermitian, "_HANDOFF", 1e-13)
        return solve(*args)


INSIDE_FRACTIONS = (0.1, 0.5, 0.9, 0.97)  # of the edge radius along each ray


@pytest.mark.parametrize("pair", ["circular", "limacon"])
def test_handoff_inside_points_match_references(pair):
    checked = 0
    for k in range(30):
        u = (k + 0.5) / 30
        for frac in INSIDE_FRACTIONS:
            if pair == "circular":
                z = cmath.rect(frac, -math.pi + 2.0 * math.pi * u)
                sol = solve_product(GIN, GIN, z)
                g_ref, c_ref = z.conjugate() / abs(z), 1.0 - abs(z)
            else:
                phi = -2.0 + 4.0 * u
                r = frac * (1.0 + 2.0 * math.cos(phi))
                sol = solve_product(SHIFTED, SHIFTED, cmath.rect(r, phi))
                ref = limacon_reference(r, phi)
                g_ref, c_ref = ref.G, ref.C
            assert sol.branch == "nonholomorphic"
            assert abs(sol.gm.a - g_ref) <= 1e-10
            assert abs(sol.correlator - c_ref) <= 1e-10
            assert sol.residual <= 1e-10
            checked += 1
    assert checked >= 100


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
@given(ROTATION_INVARIANT, ROTATION_INVARIANT, POINTS)
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
def test_density_at_outside_probes_the_stencil_once(pair, monkeypatch):
    handed = counting_probes(monkeypatch)
    got = density_at(*pair, cmath.rect(3.5, 1.0))
    # one probe call classifies the center, one takes all eight arms
    assert [np.size(z) for z in handed] == [1, 8]
    assert abs(got.rho) <= 1e-6 and abs(got.rot) <= 1e-6


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
    generic = density_field(GIN, GIN, grid, force_generic=True)
    assert generic.route == "generic"
    assert generic.holes == 0
    core = np.s_[2:-2, 2:-2]
    assert np.max(np.abs(generic.rho[core] - closed.rho[core])) <= 5e-4
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


def test_density_field_rejects_origin_grid():
    grid = GridSpec("cartesian", ((-1.0, 1.0), (-1.0, 1.0)), (5, 5))
    with pytest.raises(GridError):
        density_field(GIN, GIN, grid)


def test_density_field_tolerates_few_holes(monkeypatch):
    grid = GridSpec("polar", ((0.4, 0.8), (-0.4, 0.4)), (7, 7))
    real_solve = nonhermitian.solve_product
    bad = {complex(grid.points()[3, 3])}

    def flaky(rmap_a, rmap_b, z, **kw):
        if z in bad:
            raise FreeconvError("injected failure")
        return real_solve(rmap_a, rmap_b, z, **kw)

    monkeypatch.setattr(nonhermitian, "solve_product", flaky)
    fld = density_field(GIN, GIN, grid, force_generic=True)
    assert fld.holes == 1
    # the hole's own node is recoverable (central stencils skip the center),
    # but the four axis neighbors lose their stencils
    assert int(np.sum(~np.isfinite(fld.rho))) == 4
    assert fld.rho[3, 3] == pytest.approx(
        1.0 / (2.0 * math.pi * abs(grid.points()[3, 3])), rel=1e-3)


def test_density_field_aborts_on_many_holes(monkeypatch):
    grid = GridSpec("polar", ((0.4, 0.8), (-0.4, 0.4)), (7, 7))
    real_solve = nonhermitian.solve_product

    def flaky(rmap_a, rmap_b, z, **kw):
        if z.real > 0.5:
            raise FreeconvError("injected failure")
        return real_solve(rmap_a, rmap_b, z, **kw)

    monkeypatch.setattr(nonhermitian, "solve_product", flaky)
    with pytest.raises(GridError):
        density_field(GIN, GIN, grid, force_generic=True)


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


@pytest.mark.xfail(strict=True, reason="the seed 1/kappa1 leads the one-sided S fixed "
                   "points to roots that do not factorize R_M^-1")
def test_identities_factorize_on_tau_pair():
    # Newton from random seeds finds one-sided S fixed points here whose
    # factorization residual is 2e-15; from 1/kappa1 it is 1.107
    sol = solve_product(*TAU_PAIR, -0.6 - 0.25j)
    assert sol.branch == "nonholomorphic"
    rep = residual_identities(sol, *TAU_PAIR)
    assert rep.s_status == "converged"
    assert rep.factorization_residual <= 1e-8


def test_identities_commuting_case():
    # real z outside the support: everything is diagonal and commutes, and
    # the factorization collapses to the scalar product law
    sol = solve_product(SHIFTED, SHIFTED, 4.0)
    rep = residual_identities(sol, SHIFTED, SHIFTED)
    assert rep.commutator_norm <= 1e-10
    assert rep.factorization_residual <= 1e-10
