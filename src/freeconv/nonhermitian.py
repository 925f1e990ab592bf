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
import numbers
import struct
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import (
    _DET_FLOOR,
    Complex2x2,
    QuaternionicGreen,
    _turn,
    embed_parts,
    invert,
    qinv_parts,
    qmul_parts,
)
from .errors import (
    ConvergenceError,
    FreeconvError,
    GridError,
    OriginError,
    SingularMatrixError,
)
from .grids import GridSpec, _finite_real
from . import hermitian
from .hermitian import ScalarTransform

_TOL = 1e-12          # target of the point solvers' Newton polish and certificates
_RADIAL_TOL = 1e-5     # width below which boundary_curve stops narrowing a crossing
_SCAN_POINTS = 24      # boundary_curve's scan points per ray, inward from r_max
_R_MIN = 1e-4          # boundary_curve's innermost radius, where every scan ends
_MAX_FP = 60           # the point solvers' cap on damped steps before the hand-off
_MAX_NEWTON = 40       # cap on the Newton steps after it
_X_STEP = 1e-6         # _real_jacobian's step in the unknowns, Newton's and _dbar_g11's
_Z_STEP = 1e-5         # _dbar_g11's step in Re z and Im z, relative to |z|
_COLLAPSE = 1e-8  # correlator at or below this means the holomorphic branch
_HANDOFF = 1e-3   # damped fixed points hand off to Newton below this update
_GUARD_HANDOFF = 1e-6  # the same for the re-solves that guard an early hand-off
_FACTORIZES = 1e-8  # residual_identities' S equations and factorization hold to this
_PRODUCT_PHASE = (0, 1, 0, 1)  # b_A and b_B of (a_A, b_A, a_B, b_B) share a free phase
_POINT_MEMO = 64  # one-point solves _point_solve keeps, about 2 KB each


# ---------------------------------------------------------------------------
# matrix R maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatrixRMap:
    """Elliptic matrix R transform: R(a, b) = (shift + tau sigma^2 a, sigma^2 b).

    It acts on quaternionic Green's functions (a, b) and commutes with a
    phase rotation of b, as every quaternionic R transform does.  tau = 0 is
    the rotationally invariant (Ginibre-type) case, tau = 1 the hermitian
    Gaussian, intermediate values interpolate the two; sigma = 0 is the
    deterministic matrix shift * I.  The record is validated on
    construction: sigma >= 0, tau in [-1, 1], sigma^2 and shift finite
    numbers, else FreeconvError.  Its diagonal section is exactly affine and
    its b-coupling is the constant sigma^2.
    """

    sigma: float = 1.0
    tau: float = 0.0
    shift: complex = 0.0
    name: str = None

    def __post_init__(self):
        sigma, tau, shift = self.sigma, self.tau, self.shift
        if not (isinstance(sigma, numbers.Real) and isinstance(tau, numbers.Real)
                and isinstance(shift, numbers.Complex)):
            raise FreeconvError(f"sigma, tau and shift must be numbers, got "
                                f"sigma={sigma!r}, tau={tau!r}, shift={shift!r}")
        if not -1.0 <= tau <= 1.0:
            raise FreeconvError(f"tau must lie in [-1, 1], got {tau}")
        try:
            finite = math.isfinite(float(sigma) ** 2) and cmath.isfinite(shift)
        except OverflowError:
            finite = False
        if not finite:
            raise FreeconvError(
                f"sigma and shift must be finite, got sigma={sigma}, shift={shift}")
        if sigma < 0:
            raise FreeconvError(f"sigma must be >= 0, got {sigma}")
        label = self.name or (f"elliptic(sigma={sigma}, tau={tau})"
                              + (f"+{shift}" if shift != 0 else ""))
        for field, value in (("sigma", float(sigma)), ("tau", float(tau)),
                             ("shift", complex(shift)), ("name", label)):
            object.__setattr__(self, field, value)

    @property
    def kappa1(self) -> complex:
        return self.shift

    def apply_q(self, a, b):
        """R(a, b) as the pair (a', b'); a and b may be scalars or arrays."""
        s2 = self.sigma ** 2
        return self.shift + self.tau * s2 * a, s2 * b

    def apply_matrix(self, m: Complex2x2) -> Complex2x2:
        """The map extended to arbitrary 2x2 arguments, as the left/right
        S transforms of residual_identities need."""
        s2, t, c = self.sigma ** 2, self.tau, self.shift
        return Complex2x2(c + t * s2 * m.q11, s2 * m.q12,
                          s2 * m.q21, c.conjugate() + t * s2 * m.q22)

    @property
    def affine(self) -> tuple:
        """(c, alpha) of the diagonal section R(g) = c + alpha g."""
        return self.shift, self.tau * self.sigma ** 2

    def diagonal_section(self) -> ScalarTransform:
        """Restriction to diagonal arguments, as a scalar R transform."""
        return hermitian._affine_transform(f"{self.name}|diag", *self.affine)


elliptic_rmap = MatrixRMap


def ginibre_rmap(sigma: float = 1.0) -> MatrixRMap:
    return elliptic_rmap(sigma=sigma, tau=0.0, name=f"ginibre({sigma})")


def gue_rmap(sigma: float = 1.0) -> MatrixRMap:
    return elliptic_rmap(sigma=sigma, tau=1.0, name=f"gue({sigma})")


def constant_rmap(c: complex, name: str = None) -> MatrixRMap:
    """Deterministic matrix c * I: the elliptic map with sigma = 0, shift = c."""
    return elliptic_rmap(sigma=0.0, shift=c, name=name or f"const({complex(c)})")


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NonHermSolution:
    """One point solution of a single-matrix or product Green's system.

    correlator is |b_A| |b_B| for a product, and |b|^2 for a single matrix,
    which is solved as the product with the identity (solve_single) and
    reports b as |b|; branch is "holomorphic" exactly when
    correlator <= 1e-8.  residual is the worst max-entry residual of the
    product's defining matrix equations, computed with full 2x2 algebra
    independent of the structured solver arithmetic.
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


def _branch(correlator: float) -> str:
    return "holomorphic" if correlator <= _COLLAPSE else "nonholomorphic"


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

    where s_X are the diagonal self-energies, L_X = sigma_X^2 the
    off-diagonal couplings, and g the holomorphic Green's function of the
    product; _stability_radius evaluates its spectral radius in closed form.
    Evaluated by _holomorphic_probe, whose g is the root of least radius
    among the certified roots of the pair's polynomial, so in a hole of the
    support the indicator reads the stable root, not the continuation of
    g ~ 1/z from infinity.  Raises OriginError at z = 0, and
    ConvergenceError where no root at z meets the certificate.
    """
    indicator, _, ok = _holomorphic_probe(rmap_a, rmap_b)(z)
    if not ok:
        if z == 0:
            raise OriginError()
        raise ConvergenceError(f"no certified holomorphic product solution at z = {z}")
    return float(indicator)


def _stability_radius(z, g, pa, pb, coupling):
    """Spectral radius minus one of branch_indicator's stability matrix, at
    a root g with g (z - s_A s_B) = 1.

    Elementwise in numpy ufuncs: every argument may be a scalar or an array,
    with pa = |s_A|^2 L_B, pb = |s_B|^2 L_A and coupling = sigma_A sigma_B.
    The certificate's g (z - s_A s_B) = 1 gives g + |g|^2 conj(s_A s_B) =
    |g|^2 conj(z), so the off-diagonal product is t12 t21 = L_A L_B |g|^4
    |z|^2 >= 0 and the phase drops out.  With the diagonal |g|^2 (pa, pb)
    both eigenvalues are real, and the larger one, the spectral radius, is

        u (u (pa + pb) / 2 + hypot(u (pa - pb) / 2, coupling |z g|)),  u = |g|.

    Written through u and |z g| rather than |z|^2, no finite z overflows.
    Where the certificate fails the value is not the matrix's radius.
    """
    u = abs(g)
    return u * (u * (0.5 * (pa + pb)) + np.hypot(u * (0.5 * (pa - pb)),
                                                  coupling * abs(z * g))) - 1.0


def _degree_one(rmap_a: MatrixRMap, rmap_b: MatrixRMap):
    """(c, pa, pb) when R_AB is the constant c = c_A c_B
    (hermitian._constant_product), else None.

    That is every tau = 0 pair, and a tau != 0 factor times a centered
    tau = 0 one; pa = |c_A|^2 L_B and pb = |c_B|^2 L_A are _stability_radius's.
    """
    if not hermitian._constant_product(rmap_a.affine, rmap_b.affine):
        return None
    ca, cb = rmap_a.shift, rmap_b.shift
    return ca * cb, abs(ca) ** 2 * rmap_b.sigma ** 2, abs(cb) ** 2 * rmap_a.sigma ** 2


def _holomorphic_probe(rmap_a: MatrixRMap, rmap_b: MatrixRMap):
    """The holomorphic product solution of a pair, as a function of z.

    The returned probe maps z, a complex scalar or an array, to
    (indicator, ProductGreens, ok) of the same shape: branch_indicator's
    values (_stability_radius), the holomorphic solution (g, g_a, g_b and
    the worst of its three residuals), and a mask that is False at z = 0
    and where no root meets the certificate (every residual at most
    10 _TOL); callers read that as inside.  The affine product law is
    hermitian's: with R_X = c_X + alpha_X g on the diagonal,
    g_a = g P / D and g_b = g Q / D (hermitian._affine_aux), so g is a root
    of p(g) = g (z D^2 - P Q) - D^2, of degree 5, or 2 when
    alpha_A alpha_B = 0, or 1 when R_AB is the constant c = c_A c_B
    (_degree_one).  Degree 1 is exact: g = 1/(z - c), g_a = g c_A and
    g_b = g c_B, in numpy ufuncs (a scalar z as a numpy scalar, so the pole
    gives inf).  There s_A = c_A and s_B = c_B, so each of the three
    residuals is 0 wherever g is finite, but for the rounding of c_A c_B,
    which numpy's array multiply may round otherwise than Python's and
    which |g|^2 magnifies next to the pole.  So the residual reads 0 where
    g is finite and NaN elsewhere, and a point is ok where its indicator is
    finite and z != 0.  Otherwise p(0) = -1, so w = 1/g are the
    eigenvalues of a companion matrix that divides by no coefficient, one
    batched np.linalg.eigvals call for all z.  Each root takes one Newton
    step on g (z - R_AB(g)) = 1 (hermitian._affine_product_r), which lacks
    p's roots at D = 0 that can crowd it (g = +-1 for GUE^2, near z = +-1).
    Each z keeps the certified root of least _stability_radius, the stable
    one outside the support and in its holes, and that radius is the
    indicator.  The arithmetic is elementwise, so a point's values do not
    depend on the other points of the call.
    """
    fa, fb = rmap_a.affine, rmap_b.affine
    (ca, aa), (cb, ab) = fa, fb
    la, lb = rmap_a.sigma ** 2, rmap_b.sigma ** 2
    coupling = rmap_a.sigma * rmap_b.sigma
    constant = _degree_one(rmap_a, rmap_b)

    if constant is not None:
        c, pa, pb = constant

        def probe(z):
            z = np.asarray(z)[()]
            with np.errstate(all="ignore"):
                g = 1.0 / (z - c)
                indicator = _stability_radius(z, g, pa, pb, coupling)
                pg = hermitian.ProductGreens(g, g * ca, g * cb,
                                             np.where(np.isfinite(g), 0.0, np.nan)[()])
            return indicator, pg, np.isfinite(indicator) & (z != 0)

        return probe

    # p's coefficients of g^1 .. g^n (that of g^0 is -1), as z c1 + c0
    a2, k1 = aa * ab, aa * cb * cb + ab * ca * ca
    n = 5 if a2 != 0 else 2
    c1 = np.array([1.0, 0.0, -2.0 * a2, 0.0, a2 * a2][:n], dtype=complex)
    c0 = np.array([-ca * cb, 2.0 * a2 - k1, -a2 * ca * cb, -a2 * a2, 0.0][:n],
                  dtype=complex)
    shift_down = np.eye(n, k=-1, dtype=complex)

    def probe(z):
        z = np.asarray(z, dtype=complex)
        flat = z.reshape(-1, 1)
        with np.errstate(all="ignore"):  # a huge finite z overflows its row
            row = flat * c1 + c0
        live = np.isfinite(row).all(axis=1, keepdims=True) & (flat != 0)
        # w^n - c_1 w^(n-1) - ... - c_n = 0, so the first row is c_1 .. c_n
        companion = np.repeat(shift_down[None], flat.shape[0], axis=0)
        companion[:, 0, :] = np.where(live, row, c0)
        with np.errstate(all="ignore"):
            g = 1.0 / np.linalg.eigvals(companion)
            r, dr = hermitian._affine_product_r(fa, fb, g)
            g = g - (g * (flat - r) - 1.0) / (flat - r - g * dr)
            p, q, d = hermitian._affine_aux(fa, fb, g)
            ga, gb = g * p / d, g * q / d
            sa, sb = ca + aa * gb, cb + ab * ga
            residual = np.maximum(np.maximum(abs(g - 1.0 / (flat - sa * sb)),
                                             abs(ga - g * sa)), abs(gb - g * sb))
            indicator = _stability_radius(flat, g, abs(sa) ** 2 * lb, abs(sb) ** 2 * la,
                                          coupling)
        ok = live & (residual <= 10.0 * _TOL)
        best = np.argmin(np.where(ok, indicator, np.inf), axis=1)[:, None]

        def pick(v):
            return np.take_along_axis(v, best, axis=1).reshape(z.shape)[()]

        return (pick(indicator), hermitian.ProductGreens(*map(pick, (g, ga, gb, residual))),
                ok.any(axis=1).reshape(z.shape)[()])

    return probe


# ---------------------------------------------------------------------------
# single-matrix solver
# ---------------------------------------------------------------------------


_IDENTITY_FACTOR = constant_rmap(1.0, name="identity")


def solve_single(rmap: MatrixRMap, z: complex) -> NonHermSolution:
    """Solve G = (Z - R(G))^{-1} for one matrix ensemble at one point.

    A single matrix A is the product A 1 with the deterministic identity,
    whose R map is the constant 1: there Sigma_B = 1, and the product's G_M
    equation is exactly this one, so the product certificate covers it.
    This is _point_solve with _IDENTITY_FACTOR, so a repeated (rmap, z)
    solves once.  G is G_M with its b replaced by |b|: a common phase of b
    maps solutions to solutions, and |b| fixes the gauge.  ga = gb = G, the
    correlator is |b|^2, and the residual and iterations (damped steps) are
    the product's.
    """
    sol = _point_solve(rmap, _IDENTITY_FACTOR, z).solution()
    gm = QuaternionicGreen(sol.gm.a, abs(sol.gm.b))
    corr = eigenvector_correlator(gm)
    return replace(sol, gm=gm, ga=gm, gb=gm, correlator=corr, branch=_branch(corr))


class _FixedPoint(NamedTuple):
    values: np.ndarray      # (k, N): k unknowns at each of N nodes
    iterations: np.ndarray  # damped steps per node
    capped: np.ndarray      # the damped loop ran to its cap before the hand-off
    failed: np.ndarray      # a non-finite iterate or Jacobian stopped the node


def _fixed_point(step, values: np.ndarray, tol: float, max_fp: int, handoff: float,
                 phase=None) -> _FixedPoint:
    """Fixed points x = step(x) of N independent systems, solved in lockstep.

    values holds the seeds, k complex unknowns at each of N nodes as a (k, N)
    array.  step(x, nodes) maps the columns x of the given nodes (an index
    array into the N, possibly with repeats) to their next values, column by
    column, so one node's result does not depend on which others share the
    call.  A damped iteration (half-way to step(x)) carries each node until
    it has picked its root; below a handoff update (_solve_nodes passes
    _HANDOFF = 1e-3), or after max_fp steps where the multiplier is close
    to one, Newton takes over on the real and imaginary parts (_real_jacobian
    with steps _X_STEP, one _bordered_solve per step, at most _MAX_NEWTON
    steps) until the residual is below 0.05 tol.  From an update of 1e-3
    Newton needs about two steps, each costing about as much as five damped
    ones.  An early hand-off can let Newton reach a root that the damped
    path would have left, such as b = 0 for the product system; _solve_nodes
    checks its roots and solves again with the hand-off at _GUARD_HANDOFF =
    1e-6 where the check fails.  phase, a 0/1 mask over the k unknowns,
    marks those whose common phase rotation maps step to itself (the b
    parts); every Newton step is held orthogonal to that direction.  Every
    node stops on its own.  A node whose iterate or Jacobian turns
    non-finite, or whose Newton system is exactly singular, is marked failed
    and dropped, so it fails alone.
    """
    x = np.array(values, dtype=complex)
    k, n = x.shape
    iterations = np.zeros(n, dtype=int)
    failed = np.zeros(n, dtype=bool)
    with np.errstate(all="ignore"):  # non-finite nodes are caught by mask
        active, cur = np.arange(n), x
        for it in range(1, max_fp + 1):
            if not active.size:
                break
            diff = step(cur, active) - cur
            delta = abs(diff).max(axis=0)
            cur = cur + 0.5 * diff
            stop = ~(delta >= handoff)  # below the hand-off, or NaN
            if stop.any():
                done = active[stop]
                x[:, done], iterations[done] = cur[:, stop], it
                failed[done] = np.isnan(delta[stop])
                active, cur = active[~stop], cur[:, ~stop]
        capped = np.zeros(n, dtype=bool)
        capped[active] = True
        x[:, active], iterations[active] = cur, max_fp

        real = _as_real(x)

        def residual(r, nodes):
            return r - _as_real(step(_as_complex(r), nodes))

        act = np.flatnonzero(~failed)
        for _ in range(_MAX_NEWTON):
            if not act.size:
                break
            r = real[:, act]
            f = residual(r, act)
            going = ~(np.abs(f).max(axis=0) < 0.05 * tol)
            act, r, f = act[going], r[:, going], f[:, going]
            if not act.size:
                break
            jac = _real_jacobian(residual, r, act, _X_STEP)
            dx = _bordered_solve(jac, _as_complex(r), phase, f.T[..., None])
            real[:, act] = r - dx[..., 0].T
            finite = np.isfinite(real[:, act]).all(axis=0)
            failed[act[~finite]] = True
            act = act[finite]
        x = _as_complex(real)
    return _FixedPoint(x, iterations, capped, failed)


def _as_real(x: np.ndarray) -> np.ndarray:
    """(k, n) complex rows as (2k, n) real rows: Re x_0, Im x_0, Re x_1, ..."""
    return np.stack([x.real, x.imag], axis=1).reshape(2 * x.shape[0], x.shape[1])


def _as_complex(r: np.ndarray) -> np.ndarray:
    """The inverse of _as_real."""
    return np.ascontiguousarray(r.T).view(complex).T


def _real_jacobian(fun, r: np.ndarray, nodes: np.ndarray, h) -> np.ndarray:
    """Central-difference Jacobian jac[node, i, j] = d fun_i / d r_j.

    r holds p real unknowns at each of the given nodes as a (p, n) array,
    and fun(r, nodes) maps such columns to their (q, n) values, column by
    column.  One fun call takes all 2p perturbed copies of every node, with
    r_j moved by +-h_j, h broadcasting against r.
    """
    p, n = r.shape
    h = np.broadcast_to(h, (p, n))
    diag = np.arange(p)
    # copy j moves unknown j up, copy p + j moves it down
    rp = np.repeat(r[:, None, :], 2 * p, axis=1)
    rp[diag, diag] += h
    rp[diag, p + diag] -= h
    f = fun(rp.reshape(p, 2 * p * n), np.tile(nodes, 2 * p)).reshape(-1, 2 * p, n)
    # node-major and C-contiguous: einsum rounds a strided operand differently
    # from a contiguous one, and a node's result must not depend on its batch
    return np.ascontiguousarray(((f[:, :p] - f[:, p:]) / (2.0 * h)).transpose(2, 0, 1))


def _bordered_solve(jac: np.ndarray, x: np.ndarray, phase, rhs: np.ndarray) -> np.ndarray:
    """Solutions dx of the stacked systems jac[n] dx[n] = rhs[n] (each rhs[n]
    a (2k, m) matrix) by one batched LU of the finite systems, NaN where a
    system has a non-finite entry (which LU could step past, or meet as a
    zero pivot) or is exactly singular.  With phase (a 0/1 mask over the k
    unknowns x, as for _fixed_point) a common phase rotation of the marked unknowns maps the
    equations to themselves, so the exact jac[n] is singular along the unit
    real direction d = i x * phase, and the system is bordered by the phase
    condition (Keller 1977): [[jac, d], [d^T, c]] [dx; l] = [rhs; 0], with
    c = 1 only where d = 0 (a b = 0 node has no phase).  LAPACK solves each
    matrix on its own, so a node's dx does not depend on its batch.
    """
    p = jac.shape[-1]
    if phase is not None:
        d = _as_real(1j * x * np.asarray(phase)[:, None]).T
        norm = np.linalg.norm(d, axis=1)
        bordered = np.zeros((len(jac), p + 1, p + 1))
        bordered[:, :p, :p] = jac
        bordered[:, :p, p] = bordered[:, p, :p] = d / np.where(norm > 0, norm, 1.0)[:, None]
        bordered[:, p, p] = ~(norm > 0)
        jac, rhs = bordered, np.concatenate([rhs, np.zeros_like(rhs[:, :1])], axis=1)
    # one finiteness test for the batch; an overflowing sum of finite entries
    # only sends the batch to the masked path
    if np.isfinite(jac.sum() + rhs.sum()):
        try:
            return np.linalg.solve(jac, rhs)[:, :p]
        except np.linalg.LinAlgError:
            pass
    dx = np.full(rhs.shape, np.nan)
    ok = np.isfinite(jac).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=(1, 2))
    try:
        dx[ok] = np.linalg.solve(jac[ok], rhs[ok])
    except np.linalg.LinAlgError:  # one singular matrix fails the whole batch
        ok[ok] = np.linalg.slogdet(jac[ok])[0] != 0  # the same LU's pivots
        dx[ok] = np.linalg.solve(jac[ok], rhs[ok])
    return dx[:, :p]


# ---------------------------------------------------------------------------
# product solver
# ---------------------------------------------------------------------------


def _product_sweep(rmap_a, rmap_b, z, u, x):
    """Sigma_A^L, Sigma_B^R and G_M of the coupled product system, each as
    (a, b) arrays over nodes, at the flat values x = (a_A, b_A, a_B, b_B) of
    every node, with z and u = e^{i psi} per node.  G_M is NaN where
    Z - Sigma_A^L Sigma_B^R is singular."""
    a_a, b_a, a_b, b_b = x
    sa_a, sa_b = rmap_a.apply_q(a_b, b_b)
    sb_a, sb_b = rmap_b.apply_q(a_a, b_a)
    sal, sbr = (sa_a, sa_b * u), (sb_a, sb_b / u)  # [Sigma_A]^L, [Sigma_B]^R
    sm_a, sm_b = qmul_parts(*sal, *sbr)
    return sal, sbr, qinv_parts(z - sm_a, -sm_b)


def _product_step(sal, sbr, gm, u):
    """The next flat values (a_A, b_A, a_B, b_B) of every node from one
    _product_sweep result, with u = e^{i psi} per node."""
    (ga_a, ga_b), (gb_a, gb_b) = qmul_parts(*gm, *sal), qmul_parts(*sbr, *gm)
    # [G_M Sigma_A^L]^L, [Sigma_B^R G_M]^R
    return np.array([ga_a, ga_b * u, gb_a, gb_b / u])


def _product_equations(rmap_a: MatrixRMap, rmap_b: MatrixRMap, z: np.ndarray,
                       u: np.ndarray, x: np.ndarray, gm: np.ndarray):
    """Sigma_A^L and Sigma_B^R, the (G_M, G_A, G_B) defining-equation
    residuals and |det (Z - Sigma_A^L Sigma_B^R)| at every node.

    The arguments are as for _product_sweep, with G_M's (a, b) parts gm
    added; the results are arrays over the nodes (the Sigma's dense
    Complex2x2's of them).  Recomputed with dense 2x2 algebra, independent
    of the structured solver arithmetic (qmul_parts, qinv_parts), and
    elementwise, so a node's residuals do not depend on the other nodes.
    The G_M residual is NaN where the determinant is 0.
    """
    qa, qb = embed_parts(*x[:2]), embed_parts(*x[2:])
    sal = _turn(embed_parts(*rmap_a.apply_q(x[2], x[3])), u)
    sbr = _turn(embed_parts(*rmap_b.apply_q(x[0], x[1])), u.conjugate())
    m = Complex2x2.diagonal(z, z.conjugate()) - sal @ sbr
    gm_full = embed_parts(*gm)
    # a singular node's G_M residual is NaN, and a huge z's det overflows
    with np.errstate(all="ignore"):
        det = m.det
        inverse = Complex2x2(m.q22 / det, -m.q12 / det, -m.q21 / det, m.q11 / det)
    r_gm = (gm_full - inverse).norm_max()
    r_ga = (qa - _turn(gm_full @ sal, u)).norm_max()
    r_gb = (qb - _turn(sbr @ gm_full, u.conjugate())).norm_max()
    return sal, sbr, (r_gm, r_ga, r_gb), abs(det)


def solve_product(rmap_a: MatrixRMap, rmap_b: MatrixRMap, z: complex) -> NonHermSolution:
    """Solve the free-product Green's system for M = A B at one point.

    The coupled unknowns (G_M, G_A, G_B) satisfy

        G_M = (Z - [R_A(G_B)]^L [R_B(G_A)]^R)^{-1},
        G_A = [G_M [R_A(G_B)]^L]^L,   G_B = [[R_B(G_A)]^R G_M]^R,

    with the one-sided rotations taken at half the phase of z.  This is
    _point_solve, the memoized one-point call of _solve_nodes, which
    density_at and solve_single share: the branch is chosen by one call of
    _holomorphic_probe, whose holomorphic solution is also the result
    outside the support, and a failed probe counts as inside.  Inside,
    _fixed_point converges the nonholomorphic solution to _TOL; iterations
    counts its damped steps.  A failed point raises the same error on
    every call.
    """
    return _point_solve(rmap_a, rmap_b, z).solution()


_OK, _ORIGIN, _NON_FINITE, _SINGULAR, _STALLED = range(5)  # _NodeSolves.status
_STATUS_NAMES = ("ok", "origin", "non-finite", "singular", "stalled")  # by status code


class _NodeSolves(NamedTuple):
    """_solve_nodes' product solutions as arrays over the N nodes, in
    points.ravel() order.

    status is _OK at a solved node, else why it failed: _ORIGIN (z = 0),
    _NON_FINITE (a non-finite iterate), _SINGULAR (|det| of
    Z - Sigma_A^L Sigma_B^R at or below the floor) or _STALLED (a node that
    missed the certificate: an inside node above the bound, or any node
    whose residual is not finite).  A failed node's values are not a
    solution.  solution(k) builds node k's NonHermSolution, or raises the
    FreeconvError that stopped it; no other code builds one per node.
    """

    z: np.ndarray           # (N,) the points
    x: np.ndarray           # (4, N): (a_A, b_A, a_B, b_B)
    gm: np.ndarray          # (2, N): G_M's (a, b)
    residual: np.ndarray    # worst defining-equation residual, NaN where not certified
    det: np.ndarray         # |det (Z - Sigma_A^L Sigma_B^R)|, 0 where not certified
    iterations: np.ndarray  # damped steps
    status: np.ndarray      # _OK, _ORIGIN, _NON_FINITE, _SINGULAR or _STALLED
    g11: np.ndarray         # G_M's 11 entry shaped like the points, NaN where failed
    capped: int             # inside nodes whose damped loop ran to _MAX_FP before Newton
    collapsed: int          # inside nodes whose fixed point sank to b = 0 (holomorphic)
    retried: int            # inside nodes re-solved on the slow schedule after sinking

    @property
    def failed(self) -> int:
        return int(np.count_nonzero(self.status != _OK))

    def solution(self, k: int = 0) -> NonHermSolution:
        """Node k's NonHermSolution; raises the FreeconvError that stopped it."""
        z, status = complex(self.z[k]), self.status[k]
        if status == _ORIGIN:
            raise OriginError()
        if status == _NON_FINITE:
            raise ConvergenceError(f"product solve hit non-finite values at z = {z}")
        if status == _SINGULAR:
            raise SingularMatrixError(float(self.det[k]))
        residual = float(self.residual[k])
        if status == _STALLED:
            raise ConvergenceError(f"product solve stalled at z = {z}", residual=residual)
        a_a, b_a, a_b, b_b = self.x[:, k].tolist()
        corr = abs(b_a) * abs(b_b)  # Python's abs: numpy's differs in the last bit
        return NonHermSolution(
            z=z, gm=QuaternionicGreen(*self.gm[:, k].tolist()),
            ga=QuaternionicGreen(a_a, b_a), gb=QuaternionicGreen(a_b, b_b),
            correlator=corr, branch=_branch(corr), residual=residual,
            iterations=int(self.iterations[k]))


def _solve_nodes(rmap_a: MatrixRMap, rmap_b: MatrixRMap, points) -> _NodeSolves:
    """The product solution at every node of points (in points.ravel() order).

    One _holomorphic_probe call classifies the nodes and gives the outside
    nodes, holes of the support included, their solutions: the stable root
    of the pair's polynomial.  All inside nodes share one _fixed_point call,
    started from (a_A, b_A, a_B, b_B) = (0, 0.1, 0, 0.1) at every node; the
    arithmetic is elementwise, so a node's result does not depend on the
    other nodes.  That call hands off to Newton at a _HANDOFF update, early
    enough that Newton may take the holomorphic root b = 0 near a node's
    nonholomorphic one.  So a node whose fixed point sinks to b = 0
    (correlator at or below _COLLAPSE) is retried: solved again from the
    same seed with the hand-off at _GUARD_HANDOFF, and its iterations and
    capped flag are the retry's.  Only a node that sinks again is collapsed:
    the probe called it inside (no root certified, or every root unstable),
    yet its fixed point is holomorphic, and the node keeps its own root
    with b = 0.  Every node is then certified in
    one array pass of _product_equations; an inside node must meet the
    point solvers' bound, and every node, outside ones included, needs a
    finite residual.  A node that fails (the origin, a non-finite iterate,
    a singular Z - Sigma_A^L Sigma_B^R, a missed certificate) fails alone,
    with that reason as its status.  _dbar_g11 differentiates the result.
    """
    zs = np.asarray(points, dtype=complex).ravel()
    live = zs != 0
    indicator, pg, ok = _holomorphic_probe(rmap_a, rmap_b)(zs)
    inside = live & (~ok | (indicator > 0.0))
    u = np.exp(0.5j * np.angle(zs))
    # outside nodes keep the probe's root, (g_a, 0, g_b, 0) with G_M = (g, 0)
    zero = np.zeros(zs.size, dtype=complex)
    x = np.array([pg.g_a, zero, pg.g_b, zero], dtype=complex)
    gm = np.array([pg.g, zero], dtype=complex)
    iterations = np.zeros(zs.size, dtype=int)
    capped, failed, retried = (np.zeros(zs.size, dtype=bool) for _ in range(3))

    def solve(nodes, handoff):
        """Solve the given nodes from the cold seed; the ones that sank to b = 0."""
        z, un = zs[nodes], u[nodes]
        start = np.repeat([[0.0], [0.1], [0.0], [0.1]], nodes.size, axis=1)

        def step(v, k):
            uk = un[k]
            return _product_step(*_product_sweep(rmap_a, rmap_b, z[k], uk, v), uk)

        fp = _fixed_point(step, start, _TOL, _MAX_FP, handoff, _PRODUCT_PHASE)
        x[:, nodes], iterations[nodes], capped[nodes], failed[nodes] = fp
        with np.errstate(all="ignore"):  # failed nodes' values may be non-finite
            gm[:, nodes] = _product_sweep(rmap_a, rmap_b, z, un, fp.values)[2]
        return nodes[~fp.failed & (abs(fp.values[1]) * abs(fp.values[3]) <= _COLLAPSE)]

    sunk = solve(np.flatnonzero(inside), _HANDOFF) if inside.any() else np.array([], int)
    if sunk.size:
        retried[sunk] = True
        sunk = solve(sunk, _GUARD_HANDOFF)
    x[1, sunk] = x[3, sunk] = gm[1, sunk] = 0.0

    # certify every node in one pass; only the inside nodes are held to the
    # bound, since the probe certified the outside ones, but any node whose
    # residual is not finite (a huge z overflows it) fails
    nodes = np.flatnonzero(live & ~failed)
    residual, det = np.full(zs.size, np.nan), np.zeros(zs.size)
    _, _, residuals, det[nodes] = _product_equations(rmap_a, rmap_b, zs[nodes], u[nodes],
                                                     x[:, nodes], gm[:, nodes])
    residual[nodes] = np.maximum.reduce(residuals)
    # each reason overrides the ones set before it
    stalled = ~np.isfinite(residual) | (inside & ~(residual <= max(10.0 * _TOL, 1e-10)))
    status = np.where(stalled, _STALLED, _OK)
    status[~(det > _DET_FLOOR)] = _SINGULAR
    status[failed] = _NON_FINITE
    status[~live] = _ORIGIN
    g11 = np.where(status == _OK, gm[0], complex("nan")).reshape(np.shape(points))
    return _NodeSolves(zs, x, gm, residual, det, iterations, status, g11,
                       int(np.count_nonzero(capped)), int(sunk.size),
                       int(np.count_nonzero(retried)))


def _bits(*numbers) -> bytes:
    """The exact bit patterns of real or complex numbers, which == and hash
    do not give: complex(-0.5, 0.0) == complex(-0.5, -0.0)."""
    return struct.pack(f"<{2 * len(numbers)}d",
                       *(part for v in numbers for part in (v.real, v.imag)))


@functools.lru_cache(maxsize=_POINT_MEMO)
def _memo_solve(bits: bytes, rmap_a: MatrixRMap, rmap_b: MatrixRMap, z: complex) -> _NodeSolves:
    solved = _solve_nodes(rmap_a, rmap_b, np.array([z]))
    for field in solved:
        if isinstance(field, np.ndarray):
            field.setflags(write=False)  # a caller's write cannot reach a later hit
    return solved


def _point_solve(rmap_a: MatrixRMap, rmap_b: MatrixRMap, z: complex) -> _NodeSolves:
    """_solve_nodes at the one point z, behind an LRU memo of the last
    _POINT_MEMO calls that solve_product, density_at and solve_single share.

    The key is the exact bits of z and of both maps' numbers, together with
    the maps, whose equality also tells their classes apart: == would merge
    z = -0.5 + 0j with -0.5 - 0j, which solve to different bits (the phase
    e^{i arg z / 2} flips).  A hit is bit-identical to a fresh solve, and a
    failed point keeps its status, so it raises the same error each time.
    The cached arrays are read-only.  Code that patches a solver internal
    must call _point_solve.cache_clear() to see the patch.
    """
    z = complex(z)
    bits = _bits(z, *(v for m in (rmap_a, rmap_b) for v in (m.sigma, m.tau, m.shift)))
    return _memo_solve(bits, rmap_a, rmap_b, z)


_point_solve.cache_clear = _memo_solve.cache_clear


def _dbar_g11(rmap_a: MatrixRMap, rmap_b: MatrixRMap, solved: _NodeSolves) -> np.ndarray:
    """d G11 / d conj(z) at every node of a _solve_nodes result, shaped like
    its points; NaN at failed nodes and wherever the derivative is not finite.

    Holomorphic nodes, outside the support or in a hole of it, give exactly
    0.  At a nonholomorphic node the flat unknowns x = (a_A, b_A, a_B, b_B)
    solve F(x, z) = x - _product_step(x; z) = 0, so by the implicit function
    theorem dF/dx dx/dz_j = -dF/dz_j for z_j = Re z, Im z, and the chain
    rule through _product_sweep's G_M gives dG11/dz_j.  One _real_jacobian
    call on the real parts of (x, z) gives dF and dG11 together, from one
    _product_sweep per perturbed copy (steps
    _X_STEP in x, _Z_STEP |z| in z), and _bordered_solve takes dx/dz_j
    orthogonal to the common phase of b_A and b_B, which leaves G11 alone
    (NaN where dF/dx is not finite or exactly singular).  A perturbed z takes the phase
    u = e^{i arg(z) / 2} continued from the node's own, so no difference
    straddles the cut of arg on the negative axis.
    """
    dbar = np.where(np.isfinite(solved.g11.ravel()), 0j, complex(math.nan, math.nan))
    nodes = np.flatnonzero((solved.status == _OK)
                           & (abs(solved.x[1]) * abs(solved.x[3]) > _COLLAPSE))
    if nodes.size:
        z0, x = solved.z[nodes], solved.x[:, nodes]
        u0 = np.exp(0.5j * np.angle(z0))

        def equations(r, k):
            # rows: the 8 real parts of F, then Re G11 and Im G11
            xk, z = _as_complex(r[:8]), r[8] + 1j * r[9]
            u = u0[k] * np.exp(0.5j * np.angle(z / z0[k]))
            sal, sbr, gm = _product_sweep(rmap_a, rmap_b, z, u, xk)
            return np.concatenate([r[:8] - _as_real(_product_step(sal, sbr, gm, u)),
                                   [gm[0].real, gm[0].imag]])

        r = np.concatenate([_as_real(x), [z0.real, z0.imag]])
        h = np.concatenate([np.full((8, len(nodes)), _X_STEP), [_Z_STEP * abs(z0)] * 2])
        with np.errstate(all="ignore"):  # a non-finite node fails alone
            jac = _real_jacobian(equations, r, np.arange(len(nodes)), h)
            dx = _bordered_solve(jac[:, :8, :8], x, _PRODUCT_PHASE, -jac[:, :8, 8:])
            # d(Re G11, Im G11) / d(Re z, Im z)
            dg = jac[:, 8:, 8:] + np.einsum("nij,njc->nic", jac[:, 8:, :8], dx)
            dbar[nodes] = 0.5 * ((dg[:, 0, 0] - dg[:, 1, 1]) + 1j * (dg[:, 1, 0] + dg[:, 0, 1]))
    return dbar.reshape(solved.g11.shape)


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
    scanned_rays counts the rays that boundary_curve scanned rather than
    settled from the degree-1 quartic: every ray of a degree-2/5 pair that
    has an outside radius, and every degree-1 ray on which the quartic
    cannot tell (an uncertified root, a tangent ray, or a rootless ray
    through the pole).  A degree-1 ray whose quartic has no root is empty,
    unscanned; its one probe, at r_max, is all it can add to failed_solves.
    """

    points: tuple
    empty_rays: tuple
    failed_solves: int
    scanned_rays: int


def boundary_curve(rmap_a: MatrixRMap, rmap_b: MatrixRMap,
                   angular_samples: int = 64, r_max: float = None,
                   angles=None) -> BoundaryResult:
    """Locate the support boundary of A B along rays, all rays in lockstep.

    The inside/outside predicate is the sign of branch_indicator, which
    crosses zero transversally at the boundary.  Every round is one call of
    the pair's _holomorphic_probe, built once per call, so the ray that needs
    the most rounds sets the cost.

    A degree-1 pair (_degree_one: R_AB is the constant c = c_A c_B) has
    g = 1/(z - c), and its indicator is 0 where the stability matrix has the
    eigenvalue 1.  On the ray z = r e^{i phi} that determinant times
    |z - c|^4 is the monic real quartic

        Q(r) = (q - p_A)(q - p_B) - sigma_A^2 sigma_B^2 r^2,
        q = |z - c|^2 = r^2 - 2 Re(c e^{-i phi}) r + |c|^2,

    p_A = |c_A|^2 sigma_B^2, p_B = |c_B|^2 sigma_A^2, so every crossing is
    one of its roots; _quartic_roots gives each ray's largest real root r*
    in (r_min, r_max), where r_min = _R_MIN = 1e-4.  The first round probes
    r_max on every ray and r* -+ delta, delta = _RADIAL_TOL / 4, where both
    lie in (r_min, r_max).  A ray with r_max outside, r* - delta inside and
    r* + delta outside reports r*: a crossing lies within delta of it, where
    a scanned ray's midpoint lies within _RADIAL_TOL / 2 of one.

    Away from the pole z = c the indicator changes sign only at a root of Q,
    so a ray with r_max outside and no root in (r_min, r_max) reads outside
    all the way in: it reports empty after its one probe at r_max.  Three kinds of degree-1
    ray get no verdict from Q and are scanned: a root that fails the
    certificate, a near-double root that comes back as a complex pair (a
    ray tangent to the support), and a rootless ray through the pole z = c,
    where a probe fails and reads as inside (_quartic_roots).

    A ray that reads inside at r_max reports empty.  The internal r_max,
    1.5 s_A s_B + 1 with s = |shift| + 2 sigma, lies past the whole support:
    the support of A B lies in its spectrum, so within |z| <= ||A|| ||B||
    (Burda, Janik & Nowak, arXiv:1104.2452), and an elliptic factor's norm
    is at most |shift| + 2 sigma (its singular values end at 2 sigma for
    every tau).

    Every other ray is scanned: every ray of a degree-2/5 pair, and those
    three kinds of degree-1 ray; with none of them, a degree-1 call is one
    quartic solve and one probe round.  One round (_scan) probes
    _SCAN_POINTS points inward to r_min and keeps the first inside one, and
    Illinois regula falsi (_illinois), projected so that no ray takes more
    steps than bisection would, narrows that bracket below _RADIAL_TOL; the
    ray reports its midpoint.  The scan keeps
    the outermost crossing it brackets, so it can pass over an inside
    interval shorter than its step, which the quartic finds.  A ray's
    radius depends on no other ray of the call.

    A point whose solve fails counts as inside, and is counted in
    failed_solves; a ray whose r_min lies outside the support reads as
    empty.  Angles that are not an iterable of real numbers, a non-finite
    or non-real angle or radius, an r_max at or below r_min, or
    angular_samples that is not an integer of at least 8 raises
    FreeconvError before any probe.
    """
    if angles is None:
        if not isinstance(angular_samples, numbers.Integral) or angular_samples < 8:
            raise FreeconvError(
                f"need an integer of at least 8 angular samples, got {angular_samples!r}")
        angles = [-math.pi + (k + 0.5) * 2.0 * math.pi / angular_samples
                  for k in range(angular_samples)]
    else:
        try:
            angles = list(angles)
        except TypeError:
            raise FreeconvError(f"angles must be an iterable of real numbers, "
                                f"got {angles!r}") from None
    given = angles if r_max is None else (*angles, r_max)
    bad = [x for x in given if not _finite_real(x)]
    if bad:
        raise FreeconvError(f"angles and r_max must be finite real numbers, got {bad[0]!r}")
    angles = [float(p) for p in angles]
    if r_max is None:
        r_max = 1.5 * _support_scale(rmap_a) * _support_scale(rmap_b) + 1.0
    r_min = _R_MIN
    if not r_min < r_max:
        raise FreeconvError(f"r_max must be positive and above r_min = {r_min}, got {r_max}")
    probe = _holomorphic_probe(rmap_a, rmap_b)
    units = np.exp(1j * np.array(angles, dtype=float))
    n = len(angles)
    constant = _degree_one(rmap_a, rmap_b)

    def indicator(r: np.ndarray, rays: np.ndarray):
        """Indicator values at radii r on the given rays, and the failed mask;
        a failed point reads as inside."""
        values, _, ok = probe(r * units[rays])
        return np.where(ok, values, 1.0), ~ok

    # each ray's verdict: a degree-1 root to certify, -inf for no crossing,
    # or NaN for the scan.  The first round: r_max on every ray, and the
    # certificate of every root whose two points lie in (r_min, r_max)
    root = (np.full(n, np.nan) if constant is None else
            _quartic_roots(constant, rmap_a.sigma * rmap_b.sigma, units, r_min, r_max))
    delta = 0.25 * _RADIAL_TOL
    held = np.flatnonzero((root - delta > r_min) & (root + delta < r_max))
    values, bad = indicator(np.concatenate([np.full(n, float(r_max)), root[held] - delta,
                                            root[held] + delta]),
                            np.concatenate([np.arange(n), held, held]))
    failed = int(bad.sum())
    f_out = values[:n]
    below, above = values[n:].reshape(2, -1)
    certified = held[(below > 0.0) & (above <= 0.0) & (f_out[held] <= 0.0)]
    # inside at r_max (past an explicit cap, or a failed solve), or no crossing
    empty = (f_out > 0.0) | (root == -np.inf)
    located = dict(zip(certified.tolist(), root[certified].tolist()))

    # scan inward to the first inside radius, then narrow every bracket
    # [lo, hi], indicator(lo) > 0 >= indicator(hi)
    todo = ~empty
    todo[certified] = False
    rays = np.flatnonzero(todo)
    scanned = len(rays)
    if scanned:
        lo, f_lo = np.full(scanned, float(r_min)), np.zeros(scanned)
        hi, f_hi = np.full(scanned, float(r_max)), f_out[rays]
        found, bad = _scan(indicator, rays, lo, hi, f_lo, f_hi)
        failed += bad
        empty[rays[~found]] = True
        rays, lo, hi, f_lo, f_hi = (x[found] for x in (rays, lo, hi, f_lo, f_hi))
        failed += _illinois(indicator, rays, lo, hi, f_lo, f_hi)
        located.update(zip(rays.tolist(), (0.5 * (lo + hi)).tolist()))

    points = tuple((located[i], phi) for i, phi in enumerate(angles) if i in located)
    return BoundaryResult(points=points,
                          empty_rays=tuple(phi for i, phi in enumerate(angles)
                                           if empty[i]),
                          failed_solves=failed, scanned_rays=scanned)


def _quartic_roots(constant, coupling: float, units: np.ndarray,
                   r_min: float, r_max: float) -> np.ndarray:
    """Each ray's verdict from boundary_curve's quartic Q, for a degree-1
    pair with _degree_one's constant (c, p_A, p_B) and coupling
    sigma_A sigma_B, on the unit directions units: the largest real root in
    (r_min, r_max); -inf where Q has no root there, so that the ray has no
    crossing; NaN where Q cannot tell, and the ray is scanned.

    One np.linalg.eigvals call on the (rays, 4, 4) real companion matrices;
    a real matrix's real eigenvalues come back with imaginary part 0.  Q
    cannot tell on two kinds of ray: one where a root closer than
    _RADIAL_TOL to the real axis, but not on it, lies beyond every real
    root (a near-double root that came back as a complex pair: the ray is
    tangent to the support there), and a rootless one whose point at radius
    |c| in (r_min, r_max) lies within _RADIAL_TOL of the pole z = c, where
    a scan point can land on the pole, fail and read as inside.
    """
    c, pa, pb = constant
    turned = c * units.conj()  # c e^{-i phi}; |c| on a ray through the pole
    beta = turned.real
    m, s, k2 = abs(c) ** 2, pa + pb, coupling ** 2
    # r^4 + a3 r^3 + a2 r^2 + a1 r + a0: the first row is -a3, -a2, -a1, -a0
    companion = np.zeros((len(units), 4, 4))
    companion[:, (1, 2, 3), (0, 1, 2)] = 1.0
    companion[:, 0, 0] = 4.0 * beta
    companion[:, 0, 1] = k2 + s - 2.0 * m - 4.0 * beta * beta
    companion[:, 0, 2] = beta * (4.0 * m - 2.0 * s)
    companion[:, 0, 3] = (s - m) * m - pa * pb
    roots = np.linalg.eigvals(companion)
    # the near-real root of largest real part (a complex max orders by the
    # real part first), -inf where there is none
    outer = np.where((abs(roots.imag) < _RADIAL_TOL) & (roots.real > r_min)
                     & (roots.real < r_max), roots, -np.inf).max(axis=1)
    pole = abs(turned - abs(c)) < _RADIAL_TOL if r_min < abs(c) < r_max else False
    unclear = (outer.imag != 0) | (pole & (outer.real == -np.inf))
    return np.where(unclear, np.nan, outer.real)


def _scan(indicator, rays, lo, hi, f_lo, f_hi):
    """Scan boundary_curve's rays inward from hi to lo (r_min) at
    _SCAN_POINTS points each, all in one probe call, and narrow the brackets
    [lo, hi] in place to the first inside point and the point before it,
    with their values in f_lo and f_hi.  The points run to lo itself, whose
    sign is not yet known.  Returns the mask of rays with an inside point,
    and the failed solves, counted only at a ray's first inside point."""
    # columns: hi, then the _SCAN_POINTS points, the last of them at lo
    r = hi[:, None] + (lo - hi)[:, None] * np.arange(_SCAN_POINTS + 1) / _SCAN_POINTS
    v, bad = indicator(r[:, 1:].ravel(), np.repeat(rays, _SCAN_POINTS))
    f = np.empty_like(r)
    f[:, 0], f[:, 1:] = f_hi, v.reshape(-1, _SCAN_POINTS)
    j = np.argmax(f > 0.0, axis=1)  # 0 where no point is inside: hi never is
    found = j > 0
    rows, j = np.flatnonzero(found), j[found]
    lo[rows], f_lo[rows] = r[rows, j], f[rows, j]
    hi[rows], f_hi[rows] = r[rows, j - 1], f[rows, j - 1]
    return found, int(bad.reshape(-1, _SCAN_POINTS)[rows, j - 1].sum())


def _illinois(indicator, rays, lo, hi, f_lo, f_hi) -> int:
    """Narrow boundary_curve's brackets [lo, hi] in place by projected
    Illinois regula falsi, one point per open bracket and round, given the
    indicator values f_lo > 0 >= f_hi at the ends; brackets already
    narrower than _RADIAL_TOL cost nothing.  Returns the failed solves,
    every one of which counts."""
    # the secant runs on f / (1 + |f|): same signs and root, but a huge value
    # near the origin no longer pins it to one end
    def squash(f):
        return f / (1.0 + abs(f))

    todo = np.flatnonzero(hi - lo > _RADIAL_TOL)
    if not todo.size:
        return 0
    failed = 0
    f_lo, f_hi = squash(f_lo), squash(f_hi)
    moved = np.zeros(len(rays), dtype=int)  # +1: lo moved last, -1: hi moved last
    # bisection's step count; a step never leaves a bracket wider than
    # bisection's after as many steps, so no ray evaluates more points
    budget = np.ceil(np.log2((hi - lo) / _RADIAL_TOL))
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
    return failed


def _support_scale(rmap: MatrixRMap) -> float:
    return abs(rmap.shift) + 2.0 * rmap.sigma


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityField:
    """Eigenvalue density (and Green's data) sampled on a grid.

    For analytic routes g11 holds the 11 entry of G_M at every node, rot the
    curl -2 Im dG11/dconj(z) of the Green's vector field at every node (its
    own exact derivative, NaN at holes), and rot_residual the worst finite
    |rot| over all nodes (identically zero for closed forms).  holes counts
    the nodes without a density, and retried the generic route's nodes that
    _solve_nodes re-solved after a collapse.  Empirical histograms reuse the
    type with g11/rot/rot_residual None.
    """

    grid: GridSpec
    rho: np.ndarray
    g11: Optional[np.ndarray] = None
    rot: Optional[np.ndarray] = None
    rot_residual: Optional[float] = None
    route: str = "generic"
    holes: int = 0
    counts: Optional[np.ndarray] = None
    retried: int = 0


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
    A non-finite or negative r, or a non-finite phi, raises FreeconvError.
    """
    r = float(r)
    phi = float(phi)
    if not (math.isfinite(r) and math.isfinite(phi)):
        raise FreeconvError(f"radius and angle must be finite, got r={r}, phi={phi}")
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
    if rmap_a.shift == 0 and rmap_b.shift == 0:
        s = rmap_a.sigma * rmap_b.sigma
        return ClosedForm("circular", lambda z: _circular_point(s, z),
                          lambda phi: float(s))
    if all(m.shift == 1 and m.tau == 0.0 and m.sigma == 1.0 for m in (rmap_a, rmap_b)):
        return ClosedForm("limacon", _limacon_point, _limacon_edge)
    return None


class PointDensity(NamedTuple):
    rho: float
    rot: float


def density_at(rmap_a: MatrixRMap, rmap_b: MatrixRMap, z: complex) -> PointDensity:
    """Pointwise density of M = A B by the Gauss law rho = (1/pi) d G11 / d conj(z).

    The _point_solve of z, differentiated exactly by _dbar_g11, so after
    solve_product at the same z only the derivative is computed:
    rho = Re dG11/dconj(z) / pi, and rot = -2 Im dG11/dconj(z), the curl
    of the Green's vector field (Re g11, -Im g11), is returned as a
    consistency diagnostic (it vanishes for exact fields).  Outside the
    support both are exactly 0.  Raises the solve's FreeconvError where it
    fails, and ConvergenceError where the derivative is not finite.
    """
    solved = _point_solve(rmap_a, rmap_b, z)
    solved.solution()  # raises where the solve failed
    dbar = _dbar_g11(rmap_a, rmap_b, solved)
    if not np.isfinite(dbar[0]):
        raise ConvergenceError(f"non-finite density derivative at z = {z}")
    return PointDensity(rho=float(dbar.real[0]) / math.pi, rot=float(_curl(dbar)[0][0]))


def density_field(rmap_a: MatrixRMap, rmap_b: MatrixRMap, grid: GridSpec) -> DensityField:
    """Eigenvalue density of A B on a full grid.

    Registered pairs (centered elliptic x centered elliptic; unit-shift
    Ginibre squares) evaluate their closed forms.  Everything else takes the
    generic route, _generic_density.  A grid that contains z = 0 raises
    GridError.
    """
    if grid.contains_origin():
        raise GridError("grid contains z = 0; offset the ranges to avoid the origin")
    law = closed_form(rmap_a, rmap_b)
    if law is None:
        return _generic_density(rmap_a, rmap_b, grid)
    points = grid.points()
    g11, rho = zip(*map(law.point, points.ravel().tolist()))
    return DensityField(grid=grid, rho=np.array(rho, dtype=float).reshape(points.shape),
                        g11=np.array(g11, dtype=complex).reshape(points.shape),
                        rot=np.zeros(points.shape), rot_residual=0.0,
                        route=f"closed-form:{law.kind}")


def _generic_density(rmap_a: MatrixRMap, rmap_b: MatrixRMap, grid: GridSpec) -> DensityField:
    """density_field's generic route, which the tests also run on registered
    pairs against their closed forms: solve the product system at every node
    with _solve_nodes and apply the Gauss law at each node on its own, with
    _dbar_g11's exact derivative: rho = Re dG11/dconj(z) / pi and
    rot = -2 Im dG11/dconj(z).  Nodes where the solver fails or the
    derivative is not finite are holes (NaN rho and rot); more than 5% holes
    aborts with GridError."""
    points = grid.points()
    solved = _solve_nodes(rmap_a, rmap_b, points)
    dbar = _dbar_g11(rmap_a, rmap_b, solved)
    holes = int(np.count_nonzero(~np.isfinite(dbar)))
    if holes > 0.05 * points.size:
        raise GridError(f"{holes} of {points.size} grid nodes have no density")
    rot, rot_residual = _curl(dbar)
    return DensityField(grid=grid, rho=dbar.real / math.pi, g11=solved.g11, rot=rot,
                        rot_residual=rot_residual, route="generic", holes=holes,
                        retried=solved.retried)


def _curl(dbar: np.ndarray):
    """rot = -2 Im dG11/dconj(z) at every node (+0.0, not -0.0, where dbar is
    0), and the worst finite |rot|, inf when there is none."""
    rot = 0.0 - 2.0 * dbar.imag
    finite = np.abs(rot[np.isfinite(rot)])
    return rot, float(finite.max()) if finite.size else math.inf


# ---------------------------------------------------------------------------
# identity report: left/right S transforms and final residuals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    """Deferred consistency checks evaluated at one converged solution.

    gm/ga/gb residuals are the defining equations recomputed from scratch.
    s_left and s_right are the one-sided S transforms S_A^{(L)} and
    S_B^{(R)}, the inverses of Sigma_A^L and Sigma_B^R, or None for a
    centered factor (s_status "S undefined").  factorization_residual is
    the worst max-entry defect of their two S equations and of
    R_M^{-1} = S_B^{(R)} S_A^{(L)}; s_status is "converged" when it is at
    most _FACTORIZES, else "non-convergent".  commutator_norm measures
    [Sigma_A^L, Sigma_B^R]; when it vanishes the factorization collapses to
    the commuting (scalar-like) identity.
    """

    gm_residual: float
    ga_residual: float
    gb_residual: float
    s_status: str
    s_left: Optional[Complex2x2]
    s_right: Optional[Complex2x2]
    factorization_residual: Optional[float]
    commutator_norm: float


def residual_identities(sol: NonHermSolution, rmap_a: MatrixRMap,
                        rmap_b: MatrixRMap) -> IdentityReport:
    """Recompute defining residuals and the one-sided S factorization.

    The left S transform of A solves X = (R_A^L([X Y_L]^R))^{-1} with
    Y_L = R_M G_M, the right S transform of B solves
    X = (R_B^R([Y_R X]^L))^{-1} with Y_R = G_M R_M, and together they must
    reproduce R_M^{-1} = S_B^{(R)} S_A^{(L)}.  The equations do not rotate:
    a matrix R map scales the off-diagonal entries by sigma^2 and maps the
    diagonal ones on their own, so it commutes with the one-sided rotations,
    and with |e^{i psi}| = 1 the two rotations cancel, leaving
    X = R_A(X Y_L)^{-1} and X = R_B(Y_R X)^{-1}.  Since R_M is
    Sigma_A^L Sigma_B^R, the pair that factorizes R_M^{-1} is
    S_A^{(L)} = (Sigma_A^L)^{-1} and S_B^{(R)} = (Sigma_B^R)^{-1}, so nothing
    is solved: the report evaluates both S equations at that pair, and the
    factorization, whose defect is rounding only.  Centered factors
    (kappa1 = 0) have no S transform and are reported as such while the
    residual checks still run.
    """
    if sol.z == 0:
        raise OriginError()
    z = np.array([sol.z])
    u = np.exp(0.5j * np.angle(z))  # e^{i psi}, psi half the phase of z
    sal, sbr, residuals, det = _product_equations(
        rmap_a, rmap_b, z, u, np.array([[sol.ga.a], [sol.ga.b], [sol.gb.a], [sol.gb.b]]),
        np.array([[sol.gm.a], [sol.gm.b]]))
    if not det[0] > _DET_FLOOR:
        raise SingularMatrixError(det[0])
    gm_res, ga_res, gb_res = (float(r[0]) for r in residuals)
    sal, sbr = (Complex2x2(*(complex(e[0]) for e in (m.q11, m.q12, m.q21, m.q22)))
                for m in (sal, sbr))
    rm = sal @ sbr
    gm = sol.gm.embed()
    checks = dict(gm_residual=gm_res, ga_residual=ga_res, gb_residual=gb_res,
                  commutator_norm=float((rm - sbr @ sal).norm_max()))

    if rmap_a.kappa1 == 0 or rmap_b.kappa1 == 0:
        return IdentityReport(s_status="S undefined", s_left=None, s_right=None,
                              factorization_residual=None, **checks)

    s_left, s_right = invert(sal), invert(sbr)
    # np.max keeps a NaN defect, which then fails the bound
    defect = float(np.max([(invert(rmap_a.apply_matrix(s_left @ rm @ gm)) - s_left).norm_max(),
                           (invert(rmap_b.apply_matrix(gm @ rm @ s_right)) - s_right).norm_max(),
                           (invert(rm) - s_right @ s_left).norm_max()]))
    status = "converged" if defect <= _FACTORIZES else "non-convergent"
    return IdentityReport(s_status=status, s_left=s_left, s_right=s_right,
                          factorization_residual=defect, **checks)
