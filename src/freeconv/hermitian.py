"""Scalar free convolution: R transforms, Green's functions, and S transforms.

A transform declared exactly affine, R(g) = c + alpha g (built by
_affine_transform, or by free_add of two such), turns g = 1/(z - R(g)) into
alpha g^2 - (z - c) g + 1 = 0 and S = 1/R(y S) into alpha y S^2 + c S - 1 = 0,
and _affine_root takes the exact root of either.  Every other transform
climbs a homotopy ladder in |z| (one _stage_solve per stage) from far out,
where g ~ 1/z is certified, down to z; its S transform is s_from_green's.

Two affine factors multiply in closed form: the auxiliary pair of the
product law is linear (_affine_aux), so R_AB and its derivative are rational
(_affine_product_r), and R_AB is declared affine (c_A c_B, 0) when it is
constant (_constant_product, e.g. any factor pair with tau = 0).  These three
are the one statement of the affine product law; the non-hermitian
holomorphic probe evaluates its roots with them, elementwise on arrays.
Other pairs take the generic route (damped fixed point plus Newton), which
stays as the test oracle, as the ladder does for _affine_root.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .errors import (
    BranchUndecidedError,
    CenteredTransformError,
    ConvergenceError,
    FreeconvError,
)

_TOL = 1e-12         # Green's and S certificates, ladder stages, product certificate
_AUX_TOL = 1e-13     # the generic auxiliary pair of the product law
_MOMENT_TOL = 1e-11  # s_from_green's moment-map inversion
_ROUTE_TOL = 1e-8    # agreement of the S and R routes in assert_s_r_consistency

# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarTransform:
    """An R transform R(g) for a compactly supported spectral measure.

    r_deriv may be omitted; solvers fall back to a central difference.
    kappa1 = R(0) is stored explicitly because the S-transform machinery and
    the homotopy ladder both need it cheaply and exactly.
    affine, when present, is (c, alpha) with R(g) = c + alpha g exactly;
    green_from_r and s_from_r then take the exact root of a quadratic, and
    the product law solves its auxiliary pair in closed form.
    """

    name: str
    r_eval: Callable[[complex], complex]
    kappa1: complex
    r_deriv: Optional[Callable[[complex], complex]] = None
    affine: Optional[tuple] = None

    def deriv(self, g: complex) -> complex:
        if self.r_deriv is not None:
            return self.r_deriv(g)
        h = 1e-7 * (1.0 + abs(g))
        return (self.r_eval(g + h) - self.r_eval(g - h)) / (2.0 * h)


def _affine_transform(name: str, c: complex, alpha: complex) -> ScalarTransform:
    """The transform declared exactly affine: R(g) = c + alpha g."""
    return ScalarTransform(name=name, r_eval=lambda g: c + alpha * g,
                           r_deriv=lambda g: alpha, kappa1=c, affine=(c, alpha))


def constant_transform(c: complex, name: str = None) -> ScalarTransform:
    """Deterministic matrix c * I: R(g) = c identically."""
    return _affine_transform(name or f"const({c})", c, 0.0)


def gaussian_transform(sigma: float = 1.0, name: str = None) -> ScalarTransform:
    """Centered hermitian Gaussian with variance sigma^2: R(g) = sigma^2 g."""
    return _affine_transform(name or f"gaussian({sigma})", 0.0, float(sigma) ** 2)


def shifted_gaussian_transform(shift: complex = 1.0, sigma: float = 1.0,
                               name: str = None) -> ScalarTransform:
    """Hermitian Gaussian plus shift * I: R(g) = shift + sigma^2 g."""
    return _affine_transform(name or f"gaussian({sigma})+{shift}", shift,
                             float(sigma) ** 2)


def free_add(ta: ScalarTransform, tb: ScalarTransform) -> ScalarTransform:
    """Free additive convolution: R transforms add, and so do affine declarations."""
    deriv = affine = None
    if ta.r_deriv is not None and tb.r_deriv is not None:
        deriv = lambda g: ta.r_deriv(g) + tb.r_deriv(g)
    if ta.affine is not None and tb.affine is not None:
        affine = (ta.affine[0] + tb.affine[0], ta.affine[1] + tb.affine[1])
    return ScalarTransform(
        name=f"{ta.name}+{tb.name}",
        r_eval=lambda g: ta.r_eval(g) + tb.r_eval(g),
        r_deriv=deriv,
        kappa1=ta.kappa1 + tb.kappa1,
        affine=affine,
    )


# ---------------------------------------------------------------------------
# Green's function solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HolomorphicGreen:
    """One certified Green's-function value g(z) on the decaying branch.

    branch_certificate records (scale, residual) down the homotopy ladder from
    the scale where g ~ 1/z was verified; an exact root's is ((1.0, residual),).
    """

    z: complex
    g: complex
    residual: float
    branch_certificate: tuple


def _stage_solve(r_eval, deriv, zs: complex, g: complex):
    """One ladder stage: the fixed point g = 1/(zs - R(g)) near g, and its
    scale-free residual |g (zs - R(g)) - 1|.

    Damped steps g <- (g + 1/(zs - R(g))) / 2, nudged by _TOL off a pole,
    until the step is below _TOL / 4 (at most 200), then at most 60 Newton
    steps on g (zs - R(g)) - 1.
    """
    for _ in range(200):
        denom = zs - r_eval(g)
        if denom == 0:
            g += _TOL  # nudge off the pole and keep going
            continue
        step = 1.0 / denom - g
        g += 0.5 * step
        if abs(step) < 0.25 * _TOL:
            break
    for _ in range(60):
        rg = r_eval(g)
        f = g * (zs - rg) - 1.0
        if abs(f) < 1e-3 * _TOL:
            break
        fp = zs - rg - g * deriv(g)
        if fp == 0:
            break
        g -= f / fp
    return g, abs(g * (zs - r_eval(g)) - 1.0)


def _scalar_green_ladder(r_eval, deriv, kappa1: complex, z: complex):
    """Solve g = 1/(z - R(g)) on the branch with g ~ 1/z at infinity.

    Returns (g, residual, certificate).  Raises BranchUndecidedError when the
    asymptotic normalization cannot be certified at any scale, and
    ConvergenceError when a ladder stage stalls above tolerance.
    """
    far = 10.0 * (1.0 + abs(kappa1))
    s_top = max(1.0, far / abs(z))

    # certify the decaying branch at the top of the ladder, growing if needed
    for _ in range(14):
        z_top = s_top * z
        g_top, res_top = _stage_solve(r_eval, deriv, z_top, 1.0 / z_top)
        if res_top <= _TOL and abs(g_top - 1.0 / z_top) <= 10.0 / abs(z_top) ** 2:
            break
        s_top *= 4.0
    else:
        raise BranchUndecidedError(
            f"could not certify g ~ 1/z for transform at z = {z}: "
            "no decaying branch found at any homotopy scale")

    certificate = [(s_top, res_top)]
    n_stages = max(1, math.ceil(math.log(s_top) / math.log(1.6))) if s_top > 1.0 else 0
    g = g_top
    for k in range(1, n_stages + 1):
        scale = s_top ** (1.0 - k / n_stages)
        g, res = _stage_solve(r_eval, deriv, scale * z, g)
        if not res <= _TOL:
            raise ConvergenceError(
                f"homotopy stage at scale {scale:.3g} stalled for z = {z}",
                residual=res)
        certificate.append((scale, res))
    return g, certificate[-1][1], tuple(certificate)


def _affine_root(w: complex, a: complex) -> complex:
    """2 / (w (1 + sqrt(1 - 4 a / w^2))), the root of a x^2 - w x + 1 of least modulus.

    The principal square root has real part >= 0, which is 0 only on the
    cut, where both roots have one modulus: there, at w = 0 and at
    non-finite input ConvergenceError is raised.  At a = 0 it is exactly 1/w.
    """
    if w == 0 or not (cmath.isfinite(w) and cmath.isfinite(a)):
        raise ConvergenceError(f"no root of {a} x^2 - ({w}) x + 1 = 0 to pick")
    root = cmath.sqrt(1.0 - 4.0 * a / w / w)
    if root.real == 0:
        raise ConvergenceError(f"{w} lies on the cut of {a} x^2 - w x + 1 = 0")
    return 2.0 / (w * (1.0 + root))


def green_from_r(transform: ScalarTransform, z: complex) -> HolomorphicGreen:
    """Evaluate the Green's function of the measure with the given R transform.

    A transform declared affine takes _affine_root(z - c, alpha); every
    other one climbs the homotopy ladder.  Both certify with the scale-free
    residual |g (z - R(g)) - 1| <= _TOL against r_eval, which a narrow
    spectrum (|g| ~ 1/sigma on its support) meets where |g - 1/(z - R(g))|
    fails from rounding alone.
    """
    if z == 0:
        raise ConvergenceError("scalar Green's function needs z != 0")
    if transform.affine is None:
        g, residual, certificate = _scalar_green_ladder(
            transform.r_eval, transform.deriv, transform.kappa1, z)
    else:
        c, alpha = transform.affine
        g = _affine_root(z - c, alpha)
        residual = abs(g * (z - transform.r_eval(g)) - 1.0)
        if not residual <= _TOL:
            raise ConvergenceError(f"affine root failed its certificate at z = {z}",
                                   residual=residual)
        certificate = ((1.0, residual),)
    return HolomorphicGreen(z=z, g=g, residual=residual,
                            branch_certificate=certificate)


def density_real(transform: ScalarTransform, lam: float,
                 epsilon: float = 1e-6) -> float:
    """Spectral density on the real axis from two Green's evaluations.

    rho(lam) = (g(lam - i eps) - g(lam + i eps)) / (2 pi i); the imaginary
    part of that expression is pure numerical noise and must stay below 1e-10.
    epsilon must be finite and > 0.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise FreeconvError(f"density_real needs a finite epsilon > 0, got {epsilon}")
    g_minus = green_from_r(transform, complex(lam, -epsilon)).g
    g_plus = green_from_r(transform, complex(lam, +epsilon)).g
    value = (g_minus - g_plus) / (2j * math.pi)
    if abs(value.imag) >= 1e-10:
        raise ConvergenceError(
            f"density at {lam} lost conjugate symmetry", residual=abs(value.imag))
    return value.real


# ---------------------------------------------------------------------------
# multiplication through the R system
# ---------------------------------------------------------------------------


class ProductGreens(NamedTuple):
    g: complex
    g_a: complex
    g_b: complex
    residual: float


def _affine_aux(fa: tuple, fb: tuple, x):
    """(P, Q, D) of the exact affine auxiliary solution, elementwise.

    With R_A = c_A + alpha_A g and R_B = c_B + alpha_B g, given as the pairs
    fa = (c_A, alpha_A) and fb = (c_B, alpha_B), the pair solves to
    g_a = x P / D and g_b = x Q / D, where P = c_A + x alpha_A c_B = D R_A(g_b),
    Q = c_B + x alpha_B c_A = D R_B(g_a) and D = 1 - x^2 alpha_A alpha_B.
    x may be a scalar or a numpy array.
    """
    (ca, aa), (cb, ab) = fa, fb
    return ca + x * aa * cb, cb + x * ab * ca, 1.0 - x * x * (aa * ab)


def _affine_product_r(fa: tuple, fb: tuple, x):
    """R_AB = P Q / D^2 of two affine factors (as for _affine_aux) at x, and
    its derivative R_AB', elementwise; not finite where D = 0 on arrays."""
    (ca, aa), (cb, ab) = fa, fb
    p, q, d = _affine_aux(fa, fb, x)
    return (p * q / (d * d),
            ((aa * cb * q + p * ab * ca) * d + 4.0 * x * (aa * ab) * p * q) / (d * d * d))


def _constant_product(fa: tuple, fb: tuple) -> bool:
    """Whether R_AB of two affine factors (as for _affine_aux) is the
    constant c_A c_B: alpha_A alpha_B = 0 and alpha_A c_B^2 + alpha_B c_A^2 = 0."""
    (ca, aa), (cb, ab) = fa, fb
    return aa * ab == 0 and aa * cb * cb + ab * ca * ca == 0


def _product_aux(ta: ScalarTransform, tb: ScalarTransform, x: complex):
    """Solve the auxiliary pair g_a = x R_A(g_b), g_b = x R_B(g_a)."""
    if ta.affine is not None and tb.affine is not None:
        p, q, d = _affine_aux(ta.affine, tb.affine, x)
        if d == 0:
            raise ConvergenceError(f"auxiliary product system is singular at x = {x}")
        return x * p / d, x * q / d
    ga = x * ta.kappa1
    gb = x * tb.kappa1
    for _ in range(120):
        na = x * ta.r_eval(gb)
        nb = x * tb.r_eval(ga)
        step = max(abs(na - ga), abs(nb - gb))
        ga += 0.6 * (na - ga)
        gb += 0.6 * (nb - gb)
        if step < 0.1 * _AUX_TOL:
            break
    # 2x2 Newton; exact in one step for affine R maps
    for _ in range(50):
        f1 = ga - x * ta.r_eval(gb)
        f2 = gb - x * tb.r_eval(ga)
        if max(abs(f1), abs(f2)) < 0.1 * _AUX_TOL:
            break
        j12 = -x * ta.deriv(gb)
        j21 = -x * tb.deriv(ga)
        det = 1.0 - j12 * j21
        if det == 0:
            break
        # solve [[1, j12], [j21, 1]] [da, db] = [f1, f2]
        da = (f1 - j12 * f2) / det
        db = (f2 - j21 * f1) / det
        ga -= da
        gb -= db
    res = max(abs(ga - x * ta.r_eval(gb)), abs(gb - x * tb.r_eval(ga)))
    if not res <= max(_AUX_TOL, 1e-11 * max(1.0, abs(x))):
        raise ConvergenceError(
            f"auxiliary product system stalled at x = {x}", residual=res)
    return ga, gb


def product_r_transform(ta: ScalarTransform, tb: ScalarTransform) -> ScalarTransform:
    """R transform of the free multiplicative convolution, as a standalone map.

    R_AB(x) = R_A(g_b) R_B(g_a) where (g_a, g_b) solve the auxiliary pair at x.
    Feeding this map to green_from_r yields the Green's function of A B.
    Every evaluation solves the auxiliary pair, in closed form for two
    affine factors (_affine_aux), whose R_AB = P Q / D^2 also has the exact
    derivative of _affine_product_r; it is the constant c_A c_B, and
    declared so, when _constant_product holds.
    """
    r_deriv = affine = None
    if ta.affine is not None and tb.affine is not None:
        if _constant_product(ta.affine, tb.affine):
            affine = (ta.affine[0] * tb.affine[0], 0.0)

        def r_deriv(x: complex) -> complex:
            try:
                return _affine_product_r(ta.affine, tb.affine, x)[1]
            except ZeroDivisionError:
                raise ConvergenceError(
                    f"auxiliary product system is singular at x = {x}") from None

    def r_eval(x: complex) -> complex:
        ga, gb = _product_aux(ta, tb, x)
        return ta.r_eval(gb) * tb.r_eval(ga)

    return ScalarTransform(
        name=f"({ta.name})*({tb.name})",
        r_eval=r_eval,
        r_deriv=r_deriv,
        kappa1=ta.kappa1 * tb.kappa1,
        affine=affine,
    )


def multiply_r_system(ta: ScalarTransform, tb: ScalarTransform,
                      z: complex) -> ProductGreens:
    """Green's function of the product AB plus the auxiliary resolvents.

    Solves the coupled system g = 1/(z - R_A(g_b) R_B(g_a)), g_a = g R_A(g_b),
    g_b = g R_B(g_a) on the decaying branch and reports the worst residual of
    the three equations.
    """
    g = green_from_r(product_r_transform(ta, tb), z).g
    ga, gb = _product_aux(ta, tb, g)
    denom = z - ta.r_eval(gb) * tb.r_eval(ga)
    r1 = abs(g - 1.0 / denom) if denom != 0 else math.inf
    r2 = abs(ga - g * ta.r_eval(gb))
    r3 = abs(gb - g * tb.r_eval(ga))
    residual = max(r1, r2, r3)
    if not residual <= 10.0 * _TOL:
        raise ConvergenceError(
            f"product system residuals did not close at z = {z}", residual=residual)
    return ProductGreens(g=g, g_a=ga, g_b=gb, residual=residual)


# ---------------------------------------------------------------------------
# S transforms
# ---------------------------------------------------------------------------


def s_from_r(transform: ScalarTransform, y: complex) -> complex:
    """S transform from the functional equation S = 1 / R(y S).

    For R = c + alpha g that is alpha y S^2 + c S - 1 = 0, and S is its root
    _affine_root(c, -alpha y), which tends to 1/c as y -> 0, certified by
    |S R(y S) - 1| <= _TOL.  Undefined for centered transforms; a transform
    not declared affine raises FreeconvError (s_from_green serves those).
    """
    if transform.kappa1 == 0:
        raise CenteredTransformError()
    if transform.affine is None:
        raise FreeconvError(
            f"s_from_r needs an affine transform, not {transform.name}; use s_from_green")
    c, alpha = transform.affine
    s = _affine_root(c, -alpha * y)
    residual = abs(s * transform.r_eval(y * s) - 1.0)
    if not residual <= _TOL:
        raise ConvergenceError(f"S root failed its certificate at y = {y}",
                               residual=residual)
    return s


def s_from_green(transform: ScalarTransform, y: complex) -> complex:
    """S transform recovered from the Green's function alone.

    Inverts the moment map z -> z g(z) - 1 at y, then uses
    S(y) = (1 + y) / (y z*).  The inversion is a joint Newton iteration on the
    pair (z, g) of

        g (z - R(g)) = 1,        z g - 1 = y,

    seeded on the decaying branch by green_from_r far from the support and
    continued along a path in y.  The path detours into the complex plane, so
    the continuation passes around (not through) the branch point where the
    moment map's image folds at the support edge; beyond the fold the pair
    tracks the analytic continuation of the inverse, which is where the S
    transform lives for larger y.  Independent of s_from_r: only this route
    serves transforms that are not affine.
    """
    if transform.kappa1 == 0:
        raise CenteredTransformError()
    if y == 0:
        raise FreeconvError("moment map inversion needs y != 0")

    y0 = min(1e-3, 0.5 * abs(y))
    z = transform.kappa1 * (1.0 + y0) / y0
    g = green_from_r(transform, z).g

    def newton_at(yk, z, g):
        for _ in range(60):
            rg = transform.r_eval(g)
            f1 = g * (z - rg) - 1.0
            f2 = z * g - 1.0 - yk
            if max(abs(f1), abs(f2)) < _MOMENT_TOL:
                return z, g, True
            a11 = g                                # dF1/dz
            a12 = z - rg - g * transform.deriv(g)  # dF1/dg
            a21 = g                                # dF2/dz
            a22 = z                                # dF2/dg
            det = a11 * a22 - a12 * a21
            if det == 0:
                return z, g, False
            dz = (f1 * a22 - a12 * f2) / det
            dg = (a11 * f2 - f1 * a21) / det
            z -= dz
            g -= dg
        return z, g, max(abs(f1), abs(f2)) < 1e3 * _MOMENT_TOL

    steps = 48
    ratio = y / y0
    for k in range(1, steps + 1):
        t = k / steps
        detour = cmath.exp(0.35j * math.sin(math.pi * t))
        yk = y0 * ratio ** t * (detour if k < steps else 1.0)
        z, g, converged = newton_at(yk, z, g)
        if not converged:
            raise ConvergenceError(
                f"moment map inversion stalled at y = {yk} (target {y})")
    return (1.0 + y) / (y * z)


def multiply_via_s(ta: ScalarTransform, tb: ScalarTransform, y: complex) -> complex:
    """S transform of the free product: S_AB(y) = S_A(y) S_B(y)."""
    return s_from_r(ta, y) * s_from_r(tb, y)


def assert_s_r_consistency(ta: ScalarTransform, tb: ScalarTransform,
                           y: complex) -> complex:
    """Check the S route against the R route for the product at one point.

    Returns the common S_AB(y) value; raises FreeconvError if the two routes
    disagree beyond _ROUTE_TOL.
    """
    via_s = multiply_via_s(ta, tb, y)
    via_r = s_from_green(product_r_transform(ta, tb), y)
    diff = abs(via_s - via_r)
    if diff > _ROUTE_TOL:
        raise FreeconvError(
            f"S/R routes disagree at y = {y}: |{via_s} - {via_r}| = {diff:.3e}")
    return via_s
