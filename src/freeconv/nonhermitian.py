"""Non-hermitian spectra via 2x2 quaternionic Green's functions.

The product law couples two matrix-valued R maps through one-sided phase
rotations.  Solutions live on one of two branches: a holomorphic branch with
vanishing off-diagonal (outside the eigenvalue support, where the Green's
function is analytic) and a nonholomorphic branch carrying the eigenvector
correlator (inside the support).  Branch selection is done by a stability
analysis of the holomorphic solution rather than by watching a fixed point
collapse, which stays sharp arbitrarily close to the support edge.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import (
    Complex2x2,
    QuaternionicGreen,
    invert,
    phase_split,
    qinv,
    qmul,
    rotate_left,
    rotate_right,
)
from .errors import (
    BranchUndecidedError,
    ConvergenceError,
    FreeconvError,
    GridError,
)
from .grids import GridSpec
from . import hermitian
from .hermitian import ScalarTransform

_TOL = 1e-12          # target of the point solvers' Newton polish and certificates
_IDENTITY_TOL = 1e-10  # target of residual_identities' S-transform fixed points
_RADIAL_TOL = 1e-5     # width below which boundary_curve stops narrowing a crossing
_MAX_FP = 400          # cap on the damped fixed-point steps before the hand-off
_MAX_NEWTON = 40       # cap on the least-squares Newton steps after it
_COLLAPSE = 1e-8  # correlator at or below this means the holomorphic branch
_HANDOFF = 1e-6   # damped fixed points hand off to Newton below this update


# ---------------------------------------------------------------------------
# matrix R maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatrixRMap:
    """Matrix-valued R transform acting on quaternionic Green's functions.

    apply_q is the structured fast path (a, b) -> (a', b') used by the
    solvers; apply embeds its result as a full 2x2 matrix.  apply_matrix, when
    available, extends the map to arbitrary 2x2 arguments as required by the
    left/right S-transform machinery.  meta carries the parameters of known
    families so closed-form density routes can recognize them; elliptic meta
    also makes the diagonal section exactly affine and the b-coupling exact.
    """

    name: str
    apply_q: Callable[[QuaternionicGreen], QuaternionicGreen]
    kappa1: complex
    apply_matrix: Optional[Callable[[Complex2x2], Complex2x2]] = None
    meta: Optional[dict] = None

    def apply(self, g: QuaternionicGreen) -> Complex2x2:
        return self.apply_q(g).embed()

    def _elliptic(self) -> bool:
        return self.meta is not None and self.meta.get("kind") == "elliptic"

    def diagonal_section(self) -> ScalarTransform:
        """Restriction to diagonal arguments, as a scalar R transform."""
        affine = r_deriv = None
        if self._elliptic():
            alpha = self.meta["tau"] * self.meta["sigma"] ** 2
            affine = (self.meta["shift"], alpha)
            r_deriv = lambda x: alpha
        return ScalarTransform(
            name=f"{self.name}|diag",
            r_eval=lambda x: self.apply_q(QuaternionicGreen(x, 0.0)).a,
            kappa1=self.kappa1,
            r_deriv=r_deriv,
            affine=affine,
        )

    def b_coupling(self, a_value: complex) -> complex:
        """d(off-diagonal out)/d(off-diagonal in) at b = 0, diagonal a_value."""
        if self._elliptic():
            return self.meta["sigma"] ** 2
        h = 1e-6
        tp = self.apply_q(QuaternionicGreen(a_value, +h)).b
        tm = self.apply_q(QuaternionicGreen(a_value, -h)).b
        return (tp - tm) / (2.0 * h)


def elliptic_rmap(sigma: float = 1.0, tau: float = 0.0, shift: complex = 0.0,
                  name: str = None) -> MatrixRMap:
    """Elliptic family: R(a, b) = (shift + tau sigma^2 a, sigma^2 b).

    tau = 0 is the rotationally invariant (Ginibre-type) case, tau = 1 the
    hermitian Gaussian, intermediate values interpolate the two.
    """
    try:
        s2 = float(sigma) ** 2
    except OverflowError:
        s2 = math.inf
    t = float(tau)
    c = complex(shift)
    if not -1.0 <= t <= 1.0:
        raise FreeconvError(f"tau must lie in [-1, 1], got {t}")
    if not (math.isfinite(s2) and cmath.isfinite(c)):
        raise FreeconvError(
            f"sigma and shift must be finite, got sigma={sigma}, shift={shift}")

    def apply_q(g: QuaternionicGreen) -> QuaternionicGreen:
        return QuaternionicGreen(c + t * s2 * g.a, s2 * g.b)

    def apply_matrix(m: Complex2x2) -> Complex2x2:
        return Complex2x2(c + t * s2 * m.q11, s2 * m.q12,
                          s2 * m.q21, c.conjugate() + t * s2 * m.q22)

    label = name or (f"elliptic(sigma={sigma}, tau={tau})"
                     + (f"+{shift}" if shift != 0 else ""))
    return MatrixRMap(name=label, apply_q=apply_q, kappa1=c,
                      apply_matrix=apply_matrix,
                      meta={"kind": "elliptic", "sigma": float(sigma),
                            "tau": t, "shift": c})


def ginibre_rmap(sigma: float = 1.0) -> MatrixRMap:
    return elliptic_rmap(sigma=sigma, tau=0.0, name=f"ginibre({sigma})")


def gue_rmap(sigma: float = 1.0) -> MatrixRMap:
    return elliptic_rmap(sigma=sigma, tau=1.0, name=f"gue({sigma})")


def constant_rmap(c: complex, name: str = None) -> MatrixRMap:
    """Deterministic matrix c * I: the elliptic map with sigma = 0, shift = c."""
    return elliptic_rmap(sigma=0.0, shift=c, name=name or f"const({complex(c)})")


def shifted_rmap(base: MatrixRMap, shift: complex, name: str = None) -> MatrixRMap:
    """Add a deterministic shift * I to an existing map.

    An elliptic base stays elliptic, with the two shifts added.
    """
    c = complex(shift)
    label = name or f"{base.name}+{shift}"
    if base._elliptic():
        m = base.meta
        return elliptic_rmap(m["sigma"], m["tau"], m["shift"] + c, name=label)

    def apply_q(g: QuaternionicGreen) -> QuaternionicGreen:
        inner = base.apply_q(g)
        return QuaternionicGreen(c + inner.a, inner.b)

    apply_matrix = None
    if base.apply_matrix is not None:
        def apply_matrix(m: Complex2x2) -> Complex2x2:
            return Complex2x2.diagonal(c, c.conjugate()) + base.apply_matrix(m)

    return MatrixRMap(name=label, apply_q=apply_q, kappa1=base.kappa1 + c,
                      apply_matrix=apply_matrix)


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NonHermSolution:
    """One point solution of a single-matrix or product Green's system.

    correlator is |b|^2 for a single matrix and |b_A| |b_B| for a product;
    branch is "holomorphic" exactly when correlator <= 1e-8.  residual is the
    worst max-entry residual of the defining matrix equations, computed with
    full 2x2 algebra independent of the structured solver arithmetic.
    """

    z: complex
    gm: QuaternionicGreen
    ga: QuaternionicGreen
    gb: QuaternionicGreen
    correlator: float
    branch: str
    residual: float
    iterations: int = 0


def eigenvector_correlator(g: QuaternionicGreen) -> float:
    """Off-diagonal weight |b|^2 of a single resolvent block."""
    return abs(g.b) ** 2


# ---------------------------------------------------------------------------
# branch indicator: stability of the holomorphic solution
# ---------------------------------------------------------------------------


def branch_indicator(rmap_a: MatrixRMap, rmap_b: MatrixRMap, z: complex) -> float:
    """Spectral radius minus one of the off-diagonal stability matrix.

    Positive values mean the holomorphic product solution is unstable against
    off-diagonal perturbations, i.e. z lies inside the eigenvalue support;
    the zero level set is the support boundary.  The linearization of the
    coupled update around b_A = b_B = 0 is complex-linear with matrix

        [[|s_A|^2 |g|^2 L_B,  e^{i phi} L_A (g + |g|^2 conj(s_A s_B))],
         [e^{-i phi} L_B (conj(g) + |g|^2 s_A s_B),  |s_B|^2 |g|^2 L_A]]

    where s_X are the diagonal self-energies, L_X the off-diagonal couplings,
    and g the holomorphic Green's function of the product.  Evaluated by
    _holomorphic_probe; raises ConvergenceError where the holomorphic
    solution at z fails its certificate.
    """
    indicator, _, ok = _holomorphic_probe(rmap_a, rmap_b)(z)
    if not ok:
        raise ConvergenceError(f"no certified holomorphic product solution at z = {z}")
    return float(indicator)


def _stability_radius(z, g, sa, sb, la, lb):
    """Spectral radius minus one of the stability matrix of branch_indicator.

    Written with numpy ufuncs, so every argument may be a scalar or an array
    (of matching shape): z the point, g the holomorphic product Green's
    function, sa/sb the diagonal self-energies, la/lb the b-couplings.
    """
    phase = z / abs(z)
    g2 = abs(g) ** 2
    t11 = abs(sa) ** 2 * g2 * lb
    t12 = phase * la * (g + g2 * np.conjugate(sa * sb))
    t21 = lb * (np.conjugate(g) + g2 * sa * sb) / phase
    t22 = abs(sb) ** 2 * g2 * la
    half_tr = 0.5 * (t11 + t22)
    disc = np.sqrt(half_tr * half_tr - (t11 * t22 - t12 * t21))
    return np.maximum(abs(half_tr + disc), abs(half_tr - disc)) - 1.0


def _holomorphic_probe(rmap_a: MatrixRMap, rmap_b: MatrixRMap):
    """The holomorphic product solution of a pair, as a function of z.

    The returned probe maps z, a complex scalar or a 1-d array, to
    (indicator, ProductGreens, ok) of the same shape: branch_indicator's
    values, the holomorphic solution (g, g_a, g_b and the worst of its three
    residuals), and a mask that is False where the solve failed or missed
    multiply_r_system's certificate.  Callers treat a failed point as
    inside, where the holomorphic solution is lost.  The route is chosen
    once per pair.  A constant R_AB = c_A c_B (see
    hermitian.product_r_transform; every tau = 0 pair) has the exact root
    g = 1/(z - c_A c_B) and a closed-form auxiliary pair, evaluated with
    numpy ufuncs on all of z at once (the residuals are NaN at the pole, and
    z = 0 fails as on the other route); probe.vectorized is then True.
    Every other pair solves hermitian.multiply_r_system point by point.
    """
    ta, tb = rmap_a.diagonal_section(), rmap_b.diagonal_section()
    if hermitian.product_r_transform(ta, tb).affine is not None:
        # only elliptic maps declare affine sections; their b-couplings are
        # the constants sigma^2
        (ca, aa), (cb, ab) = ta.affine, tb.affine
        la, lb = rmap_a.b_coupling(0.0), rmap_b.b_coupling(0.0)

        def probe(z):
            # a scalar z becomes a numpy scalar: numpy's division (inf/NaN at
            # the pole, not ZeroDivisionError) without an array's overhead
            z = np.asarray(z)[()]
            with np.errstate(all="ignore"):
                g = 1.0 / (z - ca * cb)
                ga = g * (ca + g * aa * cb)
                gb = g * (cb + g * ab * ca)
                sa = ca + aa * gb
                sb = cb + ab * ga
                residual = np.maximum(np.maximum(abs(g - 1.0 / (z - sa * sb)),
                                                 abs(ga - g * sa)), abs(gb - g * sb))
                indicator = _stability_radius(z, g, sa, sb, la, lb)
            ok = (residual <= 10.0 * _TOL) & (z != 0)
            return indicator, hermitian.ProductGreens(g, ga, gb, residual), ok

        probe.vectorized = True
        return probe

    def probe(z):
        z = np.asarray(z)
        indicator, residual = np.full(z.shape, np.nan), np.full(z.shape, np.nan)
        g, ga, gb = (np.full(z.shape, np.nan + 0j) for _ in range(3))
        ok = np.zeros(z.shape, dtype=bool)
        for k, zk in np.ndenumerate(z):
            zk = complex(zk)
            try:
                pg = hermitian.multiply_r_system(ta, tb, zk, _TOL)
            except (ConvergenceError, BranchUndecidedError):
                continue
            indicator[k] = _stability_radius(
                zk, pg.g, ta.r_eval(pg.g_b), tb.r_eval(pg.g_a),
                rmap_a.b_coupling(pg.g_b), rmap_b.b_coupling(pg.g_a))
            g[k], ga[k], gb[k], residual[k] = pg
            ok[k] = True
        return indicator, hermitian.ProductGreens(g, ga, gb, residual), ok

    probe.vectorized = False
    return probe


# ---------------------------------------------------------------------------
# single-matrix solver
# ---------------------------------------------------------------------------


def _single_residual(rmap: MatrixRMap, z: complex, g: QuaternionicGreen) -> float:
    zmat = Complex2x2.diagonal(z, z.conjugate())
    return (g.embed() - invert(zmat - rmap.apply(g))).norm_max()


def solve_single(rmap: MatrixRMap, z: complex) -> NonHermSolution:
    """Solve G = (Z - R(G))^{-1} for one matrix ensemble at one point.

    Chooses the branch by the stability of the holomorphic solution, then
    solves the nonholomorphic branch with _fixed_point; iterations counts its
    damped steps.
    """
    phase_split(z)  # reject the origin up front
    try:
        # stability of the holomorphic solution: L |g|^2 - 1 > 0 means inside
        g = hermitian.green_from_r(rmap.diagonal_section(), z, _TOL).g
        unstable = abs(rmap.b_coupling(g)) * abs(g) ** 2 - 1.0 > 0.0
    except (ConvergenceError, BranchUndecidedError):
        unstable = True

    if not unstable:
        q = QuaternionicGreen(g, 0.0)
        res = _single_residual(rmap, z, q)
        return NonHermSolution(z=z, gm=q, ga=q, gb=q,
                               correlator=eigenvector_correlator(q),
                               branch="holomorphic", residual=res)

    def step(values):
        s = rmap.apply_q(QuaternionicGreen(*values))
        nxt = qinv(QuaternionicGreen(z - s.a, -s.b))
        return nxt.a, nxt.b

    values, iterations = _fixed_point(step, (0.0, 0.1), _TOL)
    q = QuaternionicGreen(*values)
    res = _single_residual(rmap, z, q)
    if res > max(_TOL * 10.0, 1e-10):
        raise ConvergenceError(f"single-matrix solve stalled at z = {z}", residual=res)
    corr = eigenvector_correlator(q)
    branch = "holomorphic" if corr <= _COLLAPSE else "nonholomorphic"
    return NonHermSolution(z=z, gm=q, ga=q, gb=q, correlator=corr,
                           branch=branch, residual=res, iterations=iterations)


def _fixed_point(step, values, tol: float):
    """Fixed point values = step(values) of a sequence of complex unknowns.

    A damped iteration (half-way to step(values)) carries the iterate into
    Newton's basin; below a _HANDOFF update, or after _MAX_FP steps where the
    multiplier is close to one, least-squares Newton takes over on the real
    and imaginary parts (forward-difference Jacobian, minimal-norm steps for
    the phase redundancy in b, at most _MAX_NEWTON steps) until the residual
    is below 0.05 tol.  A breakdown of the least-squares solve (e.g. on
    non-finite iterates) raises ConvergenceError.  Returns the values and
    the number of damped steps taken.
    """
    for iterations in range(1, _MAX_FP + 1):
        nxt = step(values)
        delta = max([abs(n - v) for n, v in zip(nxt, values)])
        values = [v + 0.5 * (n - v) for n, v in zip(nxt, values)]
        if delta < _HANDOFF:
            break

    def pack(cs):
        return np.array([part for c in cs for part in (c.real, c.imag)])

    def unpack(x):
        return [complex(x[k], x[k + 1]) for k in range(0, len(x), 2)]

    def fval(x):
        return x - pack(step(unpack(x)))

    x = pack(values)
    n = len(x)
    for _ in range(_MAX_NEWTON):
        f = fval(x)
        if np.max(np.abs(f)) < 0.05 * tol:
            break
        jac = np.empty((n, n))
        h = 1e-7
        for k in range(n):
            xp = x.copy()
            xp[k] += h
            jac[:, k] = (fval(xp) - f) / h
        if not np.isfinite(jac).all():
            # LAPACK would print to stderr, then raise LinAlgError
            raise ConvergenceError("least-squares Newton hit non-finite values")
        try:
            dx, *_ = np.linalg.lstsq(jac, f, rcond=None)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"least-squares Newton step failed: {exc}") from exc
        x = x - dx
    return unpack(x), iterations


# ---------------------------------------------------------------------------
# product solver
# ---------------------------------------------------------------------------


def _product_sweep(rmap_a, rmap_b, z, u, values):
    """Sigma_A^L, Sigma_B^R and G_M of the coupled product system at the flat
    values (a_A, b_A, a_B, b_B), with u = e^{i psi}."""
    a_a, b_a, a_b, b_b = values
    sa = rmap_a.apply_q(QuaternionicGreen(a_b, b_b))
    sb = rmap_b.apply_q(QuaternionicGreen(a_a, b_a))
    sal = QuaternionicGreen(sa.a, sa.b * u)     # [Sigma_A]^L
    sbr = QuaternionicGreen(sb.a, sb.b / u)     # [Sigma_B]^R
    sm = qmul(sal, sbr)
    return sal, sbr, qinv(QuaternionicGreen(z - sm.a, -sm.b))


def _product_step(rmap_a, rmap_b, z, u, values):
    """One sweep of the coupled product system on the flat values."""
    sal, sbr, gm = _product_sweep(rmap_a, rmap_b, z, u, values)
    ga, gb = qmul(gm, sal), qmul(sbr, gm)
    return ga.a, ga.b * u, gb.a, gb.b / u  # [G_M Sigma_A^L]^L, [Sigma_B^R G_M]^R


def _product_equations(rmap_a: MatrixRMap, rmap_b: MatrixRMap, z: complex,
                       psi: float, qa: QuaternionicGreen, qb: QuaternionicGreen,
                       gm: QuaternionicGreen):
    """Sigma_A^L, Sigma_B^R and the (G_M, G_A, G_B) defining-equation residuals.

    Recomputed with dense 2x2 algebra, independent of the structured solver
    arithmetic.
    """
    sal = rotate_left(rmap_a.apply(qb), psi)
    sbr = rotate_right(rmap_b.apply(qa), psi)
    zmat = Complex2x2.diagonal(z, z.conjugate())
    gm_full = gm.embed()
    r_gm = (gm_full - invert(zmat - sal @ sbr)).norm_max()
    r_ga = (qa.embed() - rotate_left(gm_full @ sal, psi)).norm_max()
    r_gb = (qb.embed() - rotate_right(sbr @ gm_full, psi)).norm_max()
    return sal, sbr, (r_gm, r_ga, r_gb)


def _holomorphic_product(rmap_a, rmap_b, z, at_z=None):
    """Holomorphic-branch solution from the probe's result at_z at z, which
    is computed here when the caller has none."""
    if at_z is None:
        at_z = _holomorphic_probe(rmap_a, rmap_b)(z)
    _, pg, ok = at_z
    if not ok:
        raise ConvergenceError(f"no certified holomorphic product solution at z = {z}")
    gm = QuaternionicGreen(complex(pg.g), 0.0)
    qa = QuaternionicGreen(complex(pg.g_a), 0.0)
    qb = QuaternionicGreen(complex(pg.g_b), 0.0)
    psi = phase_split(z).psi
    res = max(_product_equations(rmap_a, rmap_b, z, psi, qa, qb, gm)[2])
    return NonHermSolution(z=z, gm=gm, ga=qa, gb=qb, correlator=0.0,
                           branch="holomorphic", residual=res)


def solve_product(rmap_a: MatrixRMap, rmap_b: MatrixRMap, z: complex,
                  branch: str = None) -> NonHermSolution:
    """Solve the free-product Green's system for M = A B at one point.

    The coupled unknowns (G_M, G_A, G_B) satisfy

        G_M = (Z - [R_A(G_B)]^L [R_B(G_A)]^R)^{-1},
        G_A = [G_M [R_A(G_B)]^L]^L,   G_B = [[R_B(G_A)]^R G_M]^R,

    with the one-sided rotations taken at half the phase of z.  The branch is
    chosen by one call of _holomorphic_probe, whose holomorphic solution is
    also the result outside the support; a failed probe counts as inside.
    Inside, _fixed_point converges the nonholomorphic solution to _TOL;
    iterations counts its damped steps.
    branch ("nonholomorphic" or "holomorphic") skips the indicator probe when
    the caller already classified z, e.g. for the arms of a tight stencil
    classified once at its center.  Under a wrong "nonholomorphic" hint the
    fixed point sinks to b = 0, and a correlator at or below _COLLAPSE
    returns the holomorphic branch.
    """
    psi = phase_split(z).psi
    at_z = None  # the probe's result at z, once computed
    if branch is not None:
        inside = branch == "nonholomorphic"
    else:
        at_z = _holomorphic_probe(rmap_a, rmap_b)(z)
        indicator, _, ok = at_z
        inside = not ok or indicator > 0.0

    if not inside:
        return _holomorphic_product(rmap_a, rmap_b, z, at_z)

    u = cmath.exp(1j * psi)
    values, iterations = _fixed_point(
        functools.partial(_product_step, rmap_a, rmap_b, z, u), (0.0, 0.1, 0.0, 0.1), _TOL)
    qa, qb = QuaternionicGreen(*values[:2]), QuaternionicGreen(*values[2:])
    gm = _product_sweep(rmap_a, rmap_b, z, u, values)[2]
    corr = abs(qa.b) * abs(qb.b)
    if corr <= _COLLAPSE:
        # the fixed point sank to the holomorphic root b = 0
        return _holomorphic_product(rmap_a, rmap_b, z, at_z)
    res = max(_product_equations(rmap_a, rmap_b, z, psi, qa, qb, gm)[2])
    if res > max(10.0 * _TOL, 1e-10):
        raise ConvergenceError(f"product solve stalled at z = {z}", residual=res)
    return NonHermSolution(z=z, gm=gm, ga=qa, gb=qb, correlator=corr,
                           branch="nonholomorphic", residual=res,
                           iterations=iterations)


# ---------------------------------------------------------------------------
# support boundary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryResult:
    """Support boundary sampled along rays from the origin.

    points holds (r, phi) pairs for rays where an outermost branch transition
    was bracketed and located; empty_rays lists angles along which no inside
    point was found (empty or unbounded direction).  failed_solves counts the
    indicator points the search consulted whose holomorphic solve raised or
    failed its certificate, and which it therefore treated as inside.
    """

    points: tuple
    empty_rays: tuple
    failed_solves: int


def boundary_curve(rmap_a: MatrixRMap, rmap_b: MatrixRMap,
                   angular_samples: int = 64,
                   r_min: float = 1e-4, r_max: float = None,
                   angles=None) -> BoundaryResult:
    """Locate the support boundary of A B along rays, all rays in lockstep.

    The inside/outside predicate is the sign of branch_indicator, which
    crosses zero transversally at the boundary.  Each ray first finds an
    outside radius (r_max, doubled up to twice when r_max is the internal
    estimate), then scans 24 steps inward to the first inside radius, then
    narrows that bracket below _RADIAL_TOL by Illinois regula falsi,
    which converges superlinearly on the transversal crossing.  Each step is
    projected to within reach of bisection's schedule (the projection of the
    ITP method, Oliveira & Takahashi, ACM TOMS 47, 2021), so no ray takes
    more steps than bisection would.  The outermost crossing is returned on
    rays that enter and leave the support more than once.  Every round is
    one call of the pair's _holomorphic_probe, built once per call.  On its
    closed-form (vectorized) route the whole scan is one round; on the
    point-by-point route the scan advances one step per round, so no ray
    evaluates past its first inside radius.  A point whose solve fails
    counts as inside, and is counted in failed_solves.
    """
    if angles is None:
        if angular_samples < 8:
            raise FreeconvError("need at least 8 angular samples")
        angles = [-math.pi + (k + 0.5) * 2.0 * math.pi / angular_samples
                  for k in range(angular_samples)]
    else:
        angles = [float(p) for p in angles]
    expandable = r_max is None  # only the internal estimate may be enlarged
    if r_max is None:
        r_max = 1.5 * _support_scale(rmap_a) * _support_scale(rmap_b) + 1.0
    probe = _holomorphic_probe(rmap_a, rmap_b)
    phis = np.array(angles, dtype=float)
    failed = 0

    def indicator(r: np.ndarray, rays: np.ndarray):
        """Indicator values at radii r on the given rays, and the failed mask;
        a failed point reads as inside."""
        values, _, ok = probe(r * np.exp(1j * phis[rays]))
        return np.where(ok, values, 1.0), ~ok

    # outward probe: find an outside radius r_hi on every ray
    n_scan = 24
    radii = np.empty((len(angles), n_scan + 1))  # column 0 is r_hi
    values = np.empty_like(radii)
    radii[:, 0] = r_max
    rays = np.arange(len(angles))
    for _ in range(3 if expandable else 1):
        if not rays.size:
            break
        v, bad = indicator(radii[rays, 0], rays)
        failed += int(bad.sum())
        values[rays, 0] = v
        rays = rays[v > 0.0]
        radii[rays, 0] *= 2.0
    empty = np.zeros(len(angles), dtype=bool)
    empty[rays] = True  # the support reaches past r_max along these

    # inward scan to the first inside radius; one round per step on the
    # point-by-point route, so no ray evaluates past its first inside radius
    k = np.arange(n_scan + 1)
    radii[:] = radii[:, :1] + (r_min - radii[:, :1]) * k / n_scan
    rays = np.flatnonzero(~empty)
    width = n_scan if probe.vectorized else 1
    first = np.zeros(len(angles), dtype=int)  # column of the first inside radius
    for col in range(1, n_scan + 1, width):
        if not rays.size:
            break
        cols = slice(col, col + width)
        v, bad = indicator(radii[rays, cols].ravel(), np.repeat(rays, width))
        v, bad = v.reshape(len(rays), width), bad.reshape(len(rays), width)
        values[rays, cols] = v
        hit = (v > 0.0).any(axis=1)
        j = np.argmax(v > 0.0, axis=1)[hit]
        failed += int(bad[hit, j].sum())
        first[rays[hit]] = col + j
        rays = rays[~hit]
    empty[rays] = True

    # Illinois regula falsi on [lo, hi] with indicator(lo) > 0 >= indicator(hi),
    # on f / (1 + |f|): same signs and root, but a huge value near the origin
    # no longer pins the secant to one end
    def squash(f):
        return f / (1.0 + abs(f))

    rays = np.flatnonzero(first)
    lo, f_lo = radii[rays, first[rays]], squash(values[rays, first[rays]])
    hi, f_hi = radii[rays, first[rays] - 1], squash(values[rays, first[rays] - 1])
    moved = np.zeros(len(rays), dtype=int)  # +1: lo moved last, -1: hi moved last
    # bisection's step count; a step never leaves a bracket wider than
    # bisection's after as many steps, so no ray evaluates more points
    budget = np.ceil(np.log2((hi - lo) / _RADIAL_TOL))
    todo = np.flatnonzero(hi - lo > _RADIAL_TOL)
    step = 0
    while todo.size:
        a, b, fa, fb = lo[todo], hi[todo], f_lo[todo], f_hi[todo]
        mid = 0.5 * (a + b)
        with np.errstate(all="ignore"):
            secant = (a * fb - b * fa) / (fb - fa)
        secant = np.where(np.isfinite(secant), secant, mid)
        step += 1
        # the margin absorbs rounding in the schedule
        schedule = (1.0 - 1e-6) * _RADIAL_TOL * 2.0 ** (budget[todo] - step)
        reach = np.maximum(schedule - 0.5 * (b - a), 0.0)
        r = np.clip(secant, mid - reach, mid + reach)
        free = r == secant
        # stay _RADIAL_TOL / 2 clear of the ends, so the step after an
        # accurate one closes the bracket
        r = np.clip(r, a + 0.5 * _RADIAL_TOL, b - 0.5 * _RADIAL_TOL)
        v, bad = indicator(r, rays[todo])
        failed += int(bad.sum())
        inside = v > 0.0
        into, out = todo[inside], todo[~inside]
        # a free step moving the same end twice halves the other end's value
        f_hi[into[(moved[into] == 1) & free[inside]]] *= 0.5
        f_lo[out[(moved[out] == -1) & free[~inside]]] *= 0.5
        lo[into], f_lo[into], moved[into] = r[inside], squash(v[inside]), 1
        hi[out], f_hi[out], moved[out] = r[~inside], squash(v[~inside]), -1
        todo = todo[hi[todo] - lo[todo] > _RADIAL_TOL]

    located = dict(zip(rays.tolist(), (0.5 * (lo + hi)).tolist()))
    points = tuple((located[i], phi) for i, phi in enumerate(angles) if i in located)
    return BoundaryResult(points=points,
                          empty_rays=tuple(phi for i, phi in enumerate(angles)
                                           if empty[i]),
                          failed_solves=failed)


def _support_scale(rmap: MatrixRMap) -> float:
    meta = rmap.meta or {}
    sigma = float(meta.get("sigma", 1.0)) if meta.get("kind") == "elliptic" else 1.0
    return abs(rmap.kappa1) + 2.0 * sigma


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityField:
    """Eigenvalue density (and Green's data) sampled on a grid.

    For analytic routes g11 holds the 11 entry of G_M at every node, rot the
    per-node finite-difference curl of the Green's vector field, and
    rot_residual the worst |rot| over nodes with full central stencils
    (identically zero for closed forms).  Empirical histograms reuse the type
    with g11/rot/rot_residual None.
    """

    grid: GridSpec
    rho: np.ndarray
    g11: Optional[np.ndarray] = None
    rot: Optional[np.ndarray] = None
    rot_residual: Optional[float] = None
    route: str = "generic"
    holes: int = 0
    counts: Optional[np.ndarray] = None


class LimaconPoint(NamedTuple):
    C: float
    D: float
    G: complex
    rho: float


def limacon_reference(r: float, phi: float) -> LimaconPoint:
    """Closed-form data for the product of two unit-shift, unit-variance
    rotationally invariant ensembles, in polar coordinates.

    Inside the cardioid-like region r <= 1 + 2 cos(phi) the auxiliary scale u
    solves u (1 + u) = 2 r (1 + cos phi) and

        C = u - r,  D = 1 + u,  G = (u e^{-i phi} - 1) / (1 + u),
        rho = (1/pi) [ 2 (1 + cos phi) / ((1 + 2u)(1 + u)^2) + u / (2 r (1 + u)) ].

    The boundary itself is reported from the inside branch (C -> 0 there).
    The limit at r = 0 is direction dependent, 3 (1 + cos phi) / pi, because
    the origin is the cusp of the support boundary; the value reported AT
    r = 0 is the supremum 6/pi (the phi = 0 limit), matching the convention
    that the density maximum sits at the origin.
    Outside, the trivial branch G = 1/(z - 1) with rho = 0 applies.
    """
    r = float(r)
    phi = float(phi)
    if r < 0.0:
        raise FreeconvError("radius must be nonnegative")
    cos_phi = math.cos(phi)
    if r == 0.0:
        return LimaconPoint(C=0.0, D=1.0, G=complex(-1.0, 0.0),
                            rho=6.0 / math.pi)
    if r <= 1.0 + 2.0 * cos_phi:
        u = 0.5 * (math.sqrt(1.0 + 8.0 * r * (1.0 + cos_phi)) - 1.0)
        d = 1.0 + u
        c = u - r
        g = (u * cmath.exp(-1j * phi) - 1.0) / d
        rho = (2.0 * (1.0 + cos_phi) / ((1.0 + 2.0 * u) * d * d)
               + u / (2.0 * r * d)) / math.pi
        return LimaconPoint(C=c, D=d, G=g, rho=rho)
    z = cmath.rect(r, phi)
    d = abs(z - 1.0) ** 2
    return LimaconPoint(C=0.0, D=d, G=1.0 / (z - 1.0), rho=0.0)


def _limacon_point(z: complex):
    ref = limacon_reference(abs(z), cmath.phase(z))
    return ref.G, ref.rho


def _limacon_edge(phi: float) -> Optional[float]:
    r = 1.0 + 2.0 * math.cos(phi)
    return r if r > 0 else None


def _circular_point(s: float, z: complex):
    """g11 and rho for the centered product with support radius s."""
    r = abs(z)
    if r <= s:
        return z.conjugate() / (r * s), 1.0 / (2.0 * math.pi * s * r)
    return 1.0 / z, 0.0


class ClosedForm(NamedTuple):
    """Closed-form law of a registered product A B.

    point maps z to (g11, rho); edge maps a ray angle phi to the support
    radius along it, or None where the ray misses the support.
    """

    kind: str
    point: Callable[[complex], tuple]
    edge: Callable[[float], Optional[float]]


def closed_form(rmap_a: MatrixRMap, rmap_b: MatrixRMap) -> Optional[ClosedForm]:
    """The closed-form law of A B for registered pairs, else None.

    Registered are centered elliptic x centered elliptic (a disk of radius
    sigma_A sigma_B) and the square of the unit-shift, unit-variance Ginibre
    ensemble (the limacon of limacon_reference).
    """
    ma, mb = rmap_a.meta, rmap_b.meta
    if not ma or not mb or ma.get("kind") != "elliptic" or mb.get("kind") != "elliptic":
        return None
    if ma["shift"] == 0 and mb["shift"] == 0:
        s = ma["sigma"] * mb["sigma"]
        return ClosedForm("circular", lambda z: _circular_point(s, z),
                          lambda phi: float(s))
    if all(m["shift"] == 1 and m["tau"] == 0.0 and m["sigma"] == 1.0
           for m in (ma, mb)):
        return ClosedForm("limacon", _limacon_point, _limacon_edge)
    return None


class PointDensity(NamedTuple):
    rho: float
    rot: float


def density_at(rmap_a: MatrixRMap, rmap_b: MatrixRMap, z: complex,
               step: float = None) -> PointDensity:
    """Pointwise density of M = A B from the divergence of the Green's field.

    Uses fourth-order central differences of G = (Re g11, -Im g11) on a local
    cross stencil; rho = div G / (2 pi) and rot = curl G is returned as a
    consistency diagnostic (it vanishes for exact fields).  The stencil must
    not straddle z = 0; pick step accordingly near the origin.  The whole
    stencil reuses the branch decided at the center, so the derivative is
    one-sided rather than mixed when z sits close to the support boundary.
    A holomorphic center takes all eight arms from one call of
    _holomorphic_probe and raises ConvergenceError if any arm fails it.
    """
    if step is None:
        step = 1e-4 * max(1.0, abs(z))
        if abs(z) < 4.0 * step:
            step = abs(z) / 4.0  # keep the stencil clear of the origin
    h = float(step)
    offsets = (-2 * h, -h, h, 2 * h)
    arms = [z + dx for dx in offsets] + [z + 1j * dy for dy in offsets]
    side = solve_product(rmap_a, rmap_b, z).branch
    if side == "holomorphic":
        _, pg, ok = _holomorphic_probe(rmap_a, rmap_b)(np.array(arms))
        if not ok.all():
            raise ConvergenceError(f"no certified holomorphic solution near z = {z}")
        g = pg.g.tolist()
    else:
        g = [solve_product(rmap_a, rmap_b, w, branch=side).gm.a for w in arms]

    def d4(values):
        m2, m1, p1, p2 = values
        return (m2 - 8.0 * m1 + 8.0 * p1 - p2) / (12.0 * h)

    gx, gy = g[:4], g[4:]
    dgx_dx = d4([v.real for v in gx])
    dgy_dy = d4([-v.imag for v in gy])
    dgy_dx = d4([-v.imag for v in gx])
    dgx_dy = d4([v.real for v in gy])
    rho = (dgx_dx + dgy_dy) / (2.0 * math.pi)
    rot = dgy_dx - dgx_dy
    return PointDensity(rho=rho, rot=rot)


def density_field(rmap_a: MatrixRMap, rmap_b: MatrixRMap, grid: GridSpec,
                  force_generic: bool = False) -> DensityField:
    """Eigenvalue density of A B on a full grid.

    Registered pairs (centered elliptic x centered elliptic; unit-shift
    Ginibre squares) evaluate their closed forms.  Everything else solves the
    product system at every node and applies the divergence law with central
    finite differences (fourth order where the stencil allows, second order
    otherwise, one-sided at edges).  Nodes where the solver fails are holes;
    more than 5% holes aborts with GridError.
    """
    points = grid.points()
    if grid.contains_origin():
        raise GridError("grid contains z = 0; offset the ranges to avoid the origin")
    law = None if force_generic else closed_form(rmap_a, rmap_b)

    if law is not None:
        g11 = np.empty(points.shape, dtype=complex)
        rho = np.empty(points.shape, dtype=float)
        it = np.nditer(points, flags=["multi_index"])
        for zv in it:
            g11[it.multi_index], rho[it.multi_index] = law.point(complex(zv))
        return DensityField(grid=grid, rho=rho, g11=g11,
                            rot=np.zeros(points.shape), rot_residual=0.0,
                            route=f"closed-form:{law.kind}")

    sols, g11 = _solve_nodes(rmap_a, rmap_b, points)
    holes = sols.count(None)
    if holes > 0.05 * points.size:
        raise GridError(f"{holes} of {points.size} grid nodes failed to solve")

    rho, rot = _divergence_rho(grid, g11)
    return DensityField(grid=grid, rho=rho, g11=g11, rot=rot,
                        rot_residual=_rot_residual(rot), route="generic", holes=holes)


def _solve_nodes(rmap_a: MatrixRMap, rmap_b: MatrixRMap, points: np.ndarray):
    """solve_product at every node of points: the solutions in points.ravel()
    order, None where the solve failed, and g11 shaped like points, NaN there.
    """
    sols = []
    for z in points.ravel().tolist():
        try:
            sols.append(solve_product(rmap_a, rmap_b, z))
        except FreeconvError:
            sols.append(None)
    g11 = np.array([s.gm.a if s is not None else complex("nan") for s in sols],
                   dtype=complex).reshape(points.shape)
    return sols, g11


def _rot_residual(rot: np.ndarray) -> float:
    """Worst finite |rot| off the grid's edge rows, which use one-sided
    stencils; inf when there is none."""
    core = rot[1:-1, 1:-1]
    finite = core[np.isfinite(core)]
    return float(np.max(np.abs(finite))) if finite.size else math.inf


def _axis_derivative(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """d/du along one grid axis: 4th-order central in the deep interior,
    2nd-order central one node from the edge, one-sided 2nd order at edges."""
    v = np.moveaxis(values, axis, 0)
    n = v.shape[0]
    out = np.full_like(v, np.nan, dtype=float)
    if n >= 5:
        out[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * h)
    # fill the remaining interior (and 4th-order slots broken by holes)
    # with 2nd-order central values
    out[1:-1] = np.where(np.isnan(out[1:-1]),
                         (v[2:] - v[:-2]) / (2.0 * h), out[1:-1])
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def _divergence_rho(grid: GridSpec, g11: np.ndarray):
    """Gauss-law density and curl diagnostic from g11 on the grid."""
    gx = np.real(g11)
    gy = -np.imag(g11)
    h0, h1 = grid.steps()
    if grid.kind == "cartesian":
        dgx_dx = _axis_derivative(gx, h0, 0)
        dgx_dy = _axis_derivative(gx, h1, 1)
        dgy_dx = _axis_derivative(gy, h0, 0)
        dgy_dy = _axis_derivative(gy, h1, 1)
    else:
        r_ax, phi_ax = grid.axes()
        r = r_ax[:, None]
        cos_p = np.cos(phi_ax)[None, :]
        sin_p = np.sin(phi_ax)[None, :]
        gx_r = _axis_derivative(gx, h0, 0)
        gx_p = _axis_derivative(gx, h1, 1)
        gy_r = _axis_derivative(gy, h0, 0)
        gy_p = _axis_derivative(gy, h1, 1)
        dgx_dx = cos_p * gx_r - sin_p / r * gx_p
        dgx_dy = sin_p * gx_r + cos_p / r * gx_p
        dgy_dx = cos_p * gy_r - sin_p / r * gy_p
        dgy_dy = sin_p * gy_r + cos_p / r * gy_p
    rho = (dgx_dx + dgy_dy) / (2.0 * math.pi)
    rot = dgy_dx - dgx_dy
    return rho, rot


# ---------------------------------------------------------------------------
# identity report: left/right S transforms and final residuals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    """Deferred consistency checks evaluated at one converged solution.

    gm/ga/gb residuals are the defining equations recomputed from scratch;
    s_status is "converged", "S undefined" (a centered factor), or
    "non-convergent"; factorization_residual is the max-entry defect of
    R_M^{-1} = S_B^{(R)} S_A^{(L)} when both one-sided S transforms exist.
    commutator_norm measures [Sigma_A^L, Sigma_B^R]; when it vanishes the
    factorization collapses to the commuting (scalar-like) identity.
    """

    gm_residual: float
    ga_residual: float
    gb_residual: float
    s_status: str
    s_left: Optional[Complex2x2]
    s_right: Optional[Complex2x2]
    factorization_residual: Optional[float]
    commutator_norm: float


def _matrix_fixed_point(step, seed: Complex2x2, tol: float):
    """Fixed point of step on 2x2 matrices, by _fixed_point on the entries;
    raises ConvergenceError unless its update is below tol."""

    def entries(m: Complex2x2):
        return m.q11, m.q12, m.q21, m.q22

    values, _ = _fixed_point(lambda c: entries(step(Complex2x2(*c))), entries(seed), tol)
    x = Complex2x2(*values)
    delta = (step(x) - x).norm_max()
    if delta < tol:
        return x
    raise ConvergenceError("matrix fixed point stalled", residual=delta)


def residual_identities(sol: NonHermSolution, rmap_a: MatrixRMap,
                        rmap_b: MatrixRMap) -> IdentityReport:
    """Recompute defining residuals and the one-sided S factorization.

    The left S transform of A solves X = (R_A^L([X Y_L]^R))^{-1} with
    Y_L = R_M G_M, the right S transform of B solves
    X = (R_B^R([Y_R X]^L))^{-1} with Y_R = G_M R_M, and together they must
    reproduce R_M^{-1} = S_B^{(R)} S_A^{(L)}.  Requires full-matrix R maps;
    centered factors (kappa1 = 0) have no S transform and are reported as
    such while the residual checks still run.
    """
    psi = phase_split(sol.z).psi
    sal, sbr, (gm_res, ga_res, gb_res) = _product_equations(
        rmap_a, rmap_b, sol.z, psi, sol.ga, sol.gb, sol.gm)
    rm = sal @ sbr
    gm = sol.gm.embed()
    checks = dict(gm_residual=gm_res, ga_residual=ga_res, gb_residual=gb_res,
                  commutator_norm=(rm - sbr @ sal).norm_max())

    if rmap_a.kappa1 == 0 or rmap_b.kappa1 == 0:
        return IdentityReport(s_status="S undefined", s_left=None, s_right=None,
                              factorization_residual=None, **checks)
    if rmap_a.apply_matrix is None or rmap_b.apply_matrix is None:
        raise FreeconvError(
            "left/right S transforms need full-matrix R maps (apply_matrix)")

    y_left = rm @ gm
    y_right = gm @ rm

    def step_left(x: Complex2x2) -> Complex2x2:
        inner = rotate_right(x @ y_left, psi)
        return invert(rotate_left(rmap_a.apply_matrix(inner), psi))

    def step_right(x: Complex2x2) -> Complex2x2:
        inner = rotate_left(y_right @ x, psi)
        return invert(rotate_right(rmap_b.apply_matrix(inner), psi))

    seed_a = Complex2x2.identity().scale(1.0 / rmap_a.kappa1)
    seed_b = Complex2x2.identity().scale(1.0 / rmap_b.kappa1)
    try:
        s_left = _matrix_fixed_point(step_left, seed_a, _IDENTITY_TOL)
        s_right = _matrix_fixed_point(step_right, seed_b, _IDENTITY_TOL)
    except ConvergenceError:
        return IdentityReport(s_status="non-convergent", s_left=None, s_right=None,
                              factorization_residual=None, **checks)
    fact = (invert(rm) - s_right @ s_left).norm_max()
    return IdentityReport(s_status="converged", s_left=s_left, s_right=s_right,
                          factorization_residual=fact, **checks)
