"""Monte Carlo verification: product eigenvalue clouds and density comparison."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .ensembles import EnsembleSpec, sample
from .errors import EmptyCloudError, FreeconvError, GridError, SampleFailureError
from .grids import GridSpec
from .nonhermitian import DensityField

_MASK64 = (1 << 64) - 1
_RETRY_OFFSET = 1 << 32  # trial index shift for the one retry per failed trial
# numpy's linalg gufuncs release the GIL only when stack size * n > 500;
# trials are stacked k = ceil(_GIL_ITEMS / n) at a time to clear that
_GIL_ITEMS = 512
# cells that density comparisons leave out: the disk |z| < _CORE_RADIUS
# around the origin, where 1/r-type densities overwhelm cell averaging; a
# collar of _COLLAR_CELLS cells around the support boundary, where the
# analytic density jumps; cells expecting fewer than _MIN_EXPECTED samples,
# too few for the normal approximation
_CORE_RADIUS = 0.1
_COLLAR_CELLS = 2
_MIN_EXPECTED = 10.0


def _mix(seed: int, salt: int) -> int:
    """splitmix64 step, used to decorrelate the two factor streams."""
    x = (int(seed) + salt * 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class EigenCloud:
    """Pooled product eigenvalues from `trials` independent pairs (A, B)."""

    eigenvalues: np.ndarray
    n: int
    trials: int
    seed: int
    spec_a: EnsembleSpec
    spec_b: EnsembleSpec
    skipped: tuple = ()


def product_eigenvalues(spec_a: EnsembleSpec, spec_b: EnsembleSpec, trials: int,
                        seed: int, workers: int = 1) -> EigenCloud:
    """Sample eigenvalues of A B over independent trials.

    The two factors use sub-seeds mixed from (seed, factor slot) so identical
    specs still draw independent matrices.  Trials are solved in contiguous
    stacks of k = ceil(512 / n), one batched eigvals call per stack: numpy's
    linalg releases the interpreter lock only when stack size times n exceeds
    500, so only stacks let the `workers` threads overlap in LAPACK.  When a
    stacked call fails, each of its trials is solved on its own, and a trial
    whose eigensolve fails is retried once with a displaced trial index;
    trials failing twice are skipped, and more than 1% skipped trials raises
    SampleFailureError.  Output is deterministic in (specs, trials, seed) and
    independent of workers: trials are assembled in index order.
    """
    if spec_a.n != spec_b.n:
        raise FreeconvError(
            f"factor sizes differ: {spec_a.n} vs {spec_b.n}")
    if trials < 1:
        raise FreeconvError("need at least one trial")
    seed_a = _mix(seed, 0xA)
    seed_b = _mix(seed, 0xB)

    def one_trial(t: int):
        for tt in (t, t + _RETRY_OFFSET):
            a = sample(spec_a, seed_a, tt).matrix
            b = sample(spec_b, seed_b, tt).matrix
            try:
                return np.linalg.eigvals(a @ b)
            except np.linalg.LinAlgError:
                continue
        return None

    n = spec_a.n
    k = -(-_GIL_ITEMS // n)

    def one_stack(start: int):
        stack = range(start, min(start + k, trials))
        products = np.empty((len(stack), n, n), dtype=complex)
        for i, t in enumerate(stack):
            np.matmul(sample(spec_a, seed_a, t).matrix,
                      sample(spec_b, seed_b, t).matrix, out=products[i])
        try:
            return list(np.linalg.eigvals(products))
        except np.linalg.LinAlgError:
            return [one_trial(t) for t in stack]

    starts = range(0, trials, k)
    if workers > 1:
        # imported here, so that commands without a pool do not load its
        # modules (about 0.4 MB of resident memory)
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            stacks = list(pool.map(one_stack, starts))
    else:
        stacks = [one_stack(start) for start in starts]
    results = [r for stack in stacks for r in stack]

    skipped = tuple(t for t, r in enumerate(results) if r is None)
    if len(skipped) > 0.01 * trials:
        raise SampleFailureError(
            f"{len(skipped)} of {trials} trials failed the eigensolve twice")
    kept = [r for r in results if r is not None]
    eigenvalues = np.concatenate(kept) if kept else np.empty(0, dtype=complex)
    return EigenCloud(eigenvalues=eigenvalues, n=n, trials=trials,
                      seed=seed, spec_a=spec_a, spec_b=spec_b, skipped=skipped)


@dataclass(frozen=True)
class RadialProfile:
    edges: np.ndarray
    density: np.ndarray
    count: int


def radial_profile(cloud: EigenCloud, bins: int = 16,
                   r_max: float = None) -> RadialProfile:
    """Probability density of |eigenvalue| on [0, r_max] (defaults to the data max)."""
    if cloud.eigenvalues.size == 0:
        raise EmptyCloudError("cannot profile an empty eigenvalue cloud")
    if bins < 4:
        raise FreeconvError("radial profile needs at least 4 bins")
    radii = np.abs(cloud.eigenvalues)
    top = float(r_max) if r_max is not None else float(radii.max())
    density, edges = np.histogram(radii, bins=bins, range=(0.0, top), density=True)
    count = int(((radii >= 0.0) & (radii <= top)).sum())
    return RadialProfile(edges=edges, density=density, count=count)


@dataclass(frozen=True)
class SliceHistogram:
    """Histogram of Re(eigenvalue) near the real axis.

    density integrates to one over the requested interval (the normalization
    field records this convention); empty is set when no eigenvalue fell
    within eps of the axis, in which case density is None.
    """

    edges: Optional[np.ndarray]
    density: Optional[np.ndarray]
    count: int
    eps: float
    normalization: str = "unit-area-over-interval"
    empty: bool = False


def real_axis_slice(cloud: EigenCloud, eps: float = 1e-2, bins: int = 32,
                    interval: tuple = None) -> SliceHistogram:
    """Distribution of real parts for eigenvalues within eps of the real axis."""
    if cloud.eigenvalues.size == 0:
        raise EmptyCloudError("cannot slice an empty eigenvalue cloud")
    if bins < 4:
        raise FreeconvError("axis slice needs at least 4 bins")
    near = cloud.eigenvalues[np.abs(cloud.eigenvalues.imag) < eps]
    if near.size == 0:
        return SliceHistogram(edges=None, density=None, count=0, eps=eps,
                              empty=True)
    x = near.real
    lo, hi = interval if interval is not None else (float(x.min()), float(x.max()))
    if not hi > lo:
        hi = lo + 1e-12
    density, edges = np.histogram(x, bins=bins, range=(lo, hi), density=True)
    count = int(((x >= lo) & (x <= hi)).sum())
    return SliceHistogram(edges=edges, density=density, count=count, eps=eps)


def histogram2d(cloud: EigenCloud, grid: GridSpec) -> DensityField:
    """Empirical planar density on a cartesian grid.

    Grid nodes are interpreted as cell centers; the implied cells must cover
    every eigenvalue so the result keeps unit mass exactly.
    """
    if grid.kind != "cartesian":
        raise GridError("2d histograms need a cartesian grid")
    if cloud.eigenvalues.size == 0:
        raise EmptyCloudError("cannot histogram an empty eigenvalue cloud")
    xs, ys = grid.axes()
    hx, hy = grid.steps()
    x_edges = np.concatenate([xs - 0.5 * hx, [xs[-1] + 0.5 * hx]])
    y_edges = np.concatenate([ys - 0.5 * hy, [ys[-1] + 0.5 * hy]])
    ev = cloud.eigenvalues
    if (ev.real.min() < x_edges[0] or ev.real.max() > x_edges[-1]
            or ev.imag.min() < y_edges[0] or ev.imag.max() > y_edges[-1]):
        raise GridError("grid does not cover the eigenvalue cloud bounding box")
    counts, _, _ = np.histogram2d(ev.real, ev.imag, bins=[x_edges, y_edges])
    rho = counts / (ev.size * hx * hy)
    return DensityField(grid=grid, rho=rho, g11=None, rot_residual=None,
                        route="empirical", counts=counts)


@dataclass(frozen=True)
class ComparisonReport:
    l1_distance: float
    max_deviation: float
    included_cells: int
    excluded: dict
    sample_counts: dict
    included_mask: np.ndarray = field(repr=False, default=None)


def _dilate(mask: np.ndarray, rounds: int) -> np.ndarray:
    out = mask.copy()
    for _ in range(rounds):
        grown = out.copy()
        grown[1:, :] |= out[:-1, :]
        grown[:-1, :] |= out[1:, :]
        grown[:, 1:] |= out[:, :-1]
        grown[:, :-1] |= out[:, 1:]
        grown[1:, 1:] |= out[:-1, :-1]
        grown[1:, :-1] |= out[:-1, 1:]
        grown[:-1, 1:] |= out[1:, :-1]
        grown[:-1, :-1] |= out[1:, 1:]
        out = grown
    return out


def comparison_cells(analytic: DensityField, total: float):
    """(included, expected, excluded): the cells of analytic.grid left after
    dropping the origin core, a collar around the analytic support boundary
    and the cells expecting fewer than _MIN_EXPECTED of total samples; the
    expected counts; the size of each dropped set.  Only the last set depends
    on total, shrinking as it grows.  Raises GridError when no cell is left."""
    grid = analytic.grid
    hx, hy = grid.steps()
    inside = analytic.rho > 1e-12
    boundary = np.zeros_like(inside)
    boundary[:-1, :] |= inside[:-1, :] != inside[1:, :]
    boundary[1:, :] |= inside[1:, :] != inside[:-1, :]
    boundary[:, :-1] |= inside[:, :-1] != inside[:, 1:]
    boundary[:, 1:] |= inside[:, 1:] != inside[:, :-1]
    collar = _dilate(boundary, _COLLAR_CELLS)

    core = np.abs(grid.points()) < _CORE_RADIUS
    expected = analytic.rho * (hx * hy) * total
    low = expected < _MIN_EXPECTED

    included = ~(core | collar | low)
    if not included.any():
        raise GridError("exclusions removed every cell; nothing to compare")
    return included, expected, {"core": int(core.sum()), "collar": int(collar.sum()),
                                "low_count": int(low.sum())}


def compare_density(empirical: DensityField, analytic: DensityField) -> ComparisonReport:
    """Masked L1 and max deviation between an empirical and an analytic field.

    Both fields must live on the identical grid.  The comparison keeps the
    comparison_cells at the empirical total, where the central limit theorem
    makes the cell densities trustworthy.
    """
    if empirical.grid != analytic.grid:
        raise GridError("empirical and analytic fields live on different grids")
    if empirical.counts is None:
        raise FreeconvError("empirical field lacks raw counts; use histogram2d")
    hx, hy = empirical.grid.steps()
    total = float(empirical.counts.sum())
    included, expected, excluded = comparison_cells(analytic, total)
    diff = np.abs(empirical.rho - analytic.rho)[included]
    report = ComparisonReport(
        l1_distance=float(np.sum(diff) * (hx * hy)),
        max_deviation=float(np.max(diff)),
        included_cells=int(included.sum()),
        excluded=excluded,
        sample_counts={"total": int(total),
                       "included_expected_min": float(expected[included].min()),
                       "included_expected_median": float(np.median(expected[included])),
                       "included_observed": int(empirical.counts[included].sum())},
        included_mask=included,
    )
    return report
