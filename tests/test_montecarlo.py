"""Tests for eigenvalue cloud sampling, histograms, and density comparison."""

from __future__ import annotations

import math

import numpy as np
import pytest

from freeconv import montecarlo
from freeconv.ensembles import EnsembleSpec, sample
from freeconv.errors import (EmptyCloudError, FreeconvError, GridError,
                             SampleFailureError)
from freeconv.grids import GridSpec
from freeconv.montecarlo import (
    _RETRY_OFFSET,
    EigenCloud,
    _mix,
    compare_density,
    comparison_cells,
    histogram2d,
    product_eigenvalues,
    radial_profile,
    real_axis_slice,
)
from freeconv.nonhermitian import density_field, ginibre_rmap

GIN100 = EnsembleSpec("ginibre", 100)


def synthetic_cloud(values, trials=1):
    values = np.asarray(values, dtype=complex)
    n = values.size // trials
    return EigenCloud(eigenvalues=values, n=n, trials=trials, seed=0,
                      spec_a=GIN100, spec_b=GIN100)


def test_cloud_count_invariant():
    cloud = product_eigenvalues(EnsembleSpec("ginibre", 16),
                                EnsembleSpec("ginibre", 16), trials=5, seed=3)
    assert cloud.eigenvalues.size == 16 * 5
    assert cloud.skipped == ()


def test_cloud_deterministic_bitwise():
    spec = EnsembleSpec("ginibre", 2)
    c1 = product_eigenvalues(spec, spec, trials=1, seed=41)
    c2 = product_eigenvalues(spec, spec, trials=1, seed=41)
    assert c1.eigenvalues.size == 2
    assert np.array_equal(c1.eigenvalues, c2.eigenvalues)


def _product(spec, seed, t):
    return (sample(spec, _mix(seed, 0xA), t).matrix
            @ sample(spec, _mix(seed, 0xB), t).matrix)


def test_cloud_independent_of_workers():
    # trials are eigensolved in stacks of ceil(512 / n): n = 12 makes one
    # stack of 8 trials, n = 128 stacks of 4, 4 and a short last one of 2;
    # at any worker count the cloud is the per-trial eigenvalues, bit for bit
    for n, trials in ((12, 8), (128, 10)):
        spec = EnsembleSpec("ginibre", n)
        expected = np.concatenate([np.linalg.eigvals(_product(spec, 9, t))
                                   for t in range(trials)])
        for workers in (1, 3):
            cloud = product_eigenvalues(spec, spec, trials=trials, seed=9,
                                        workers=workers)
            assert cloud.skipped == ()
            assert np.array_equal(cloud.eigenvalues, expected)


def _failing_eigvals(monkeypatch, failing):
    """Patch np.linalg.eigvals to raise on any stack holding one of the
    `failing` matrices and on those matrices alone; returns the call log."""
    eigvals = np.linalg.eigvals
    calls = []

    def fake(x):
        calls.append(x.shape)
        if any(np.array_equal(m, f) for m in x.reshape(-1, *x.shape[-2:])
               for f in failing):
            raise np.linalg.LinAlgError("eigenvalues did not converge")
        return eigvals(x)

    monkeypatch.setattr(np.linalg, "eigvals", fake)
    return calls


def test_failed_stack_falls_back_to_per_trial_retry(monkeypatch):
    # n = 64 stacks 8 trials: trial 11 sits in the second of three stacks
    spec = EnsembleSpec("ginibre", 64)
    calls = _failing_eigvals(monkeypatch, [_product(spec, 5, 11)])
    cloud = product_eigenvalues(spec, spec, trials=20, seed=5)
    # the stacks of trials 0-7 and 16-19 solve whole; trials 8-15 one by
    # one, trial 11 twice
    assert calls == [(8, 64, 64), (8, 64, 64)] + [(64, 64)] * 9 + [(4, 64, 64)]
    assert cloud.skipped == ()
    retried = np.linalg.eigvals(_product(spec, 5, 11 + _RETRY_OFFSET))
    assert np.array_equal(cloud.eigenvalues[11 * 64:12 * 64], retried)
    others = [t for t in range(20) if t != 11]
    assert np.array_equal(
        np.delete(cloud.eigenvalues.reshape(20, 64), 11, axis=0),
        np.array([np.linalg.eigvals(_product(spec, 5, t)) for t in others]))


def test_twice_failed_trials_are_skipped(monkeypatch):
    # n = 8 stacks 64 trials; trial 70 fails both draws and is skipped, one
    # skip in 100 trials is within the 1% allowance, two are not
    spec = EnsembleSpec("ginibre", 8)
    twice = [_product(spec, 3, 70), _product(spec, 3, 70 + _RETRY_OFFSET)]
    _failing_eigvals(monkeypatch, twice)
    cloud = product_eigenvalues(spec, spec, trials=100, seed=3, workers=2)
    assert cloud.skipped == (70,)
    assert cloud.eigenvalues.size == 99 * 8
    assert np.array_equal(cloud.eigenvalues[70 * 8:71 * 8],
                          np.linalg.eigvals(_product(spec, 3, 71)))

    monkeypatch.undo()
    _failing_eigvals(monkeypatch, twice + [_product(spec, 3, 5),
                                           _product(spec, 3, 5 + _RETRY_OFFSET)])
    with pytest.raises(SampleFailureError):
        product_eigenvalues(spec, spec, trials=100, seed=3)


def test_identical_specs_draw_independent_factors():
    # A and B come from decorrelated streams even when the specs coincide
    spec = EnsembleSpec("ginibre", 32)
    cloud = product_eigenvalues(spec, spec, trials=1, seed=5)
    # if A == B the product would be A^2 whose eigenvalues lie on the squared
    # spectrum; check the trace instead: Tr(AB) != Tr(A^2) almost surely
    assert np.abs(cloud.eigenvalues.sum()) < 32  # sane scale, no degeneracy


def test_mismatched_sizes_rejected():
    with pytest.raises(FreeconvError):
        product_eigenvalues(EnsembleSpec("ginibre", 8),
                            EnsembleSpec("ginibre", 16), trials=1, seed=0)


def test_zero_trials_rejected():
    with pytest.raises(FreeconvError):
        product_eigenvalues(GIN100, GIN100, trials=0, seed=0)


def test_circular_support_containment():
    cloud = product_eigenvalues(GIN100, GIN100, trials=100, seed=17)
    inside = np.abs(cloud.eigenvalues) <= 1.1
    assert inside.mean() >= 0.99


def test_limacon_support_containment():
    spec = EnsembleSpec("shifted", 100, shift=1.0)
    cloud = product_eigenvalues(spec, spec, trials=50, seed=23)
    r = np.abs(cloud.eigenvalues)
    phi = np.angle(cloud.eigenvalues)
    inside = r <= 1.0 + 2.0 * np.cos(phi) + 0.15
    assert inside.mean() >= 0.99


# ---------------------------------------------------------------------------
# radial profile
# ---------------------------------------------------------------------------


def test_radial_profile_uniform_for_circular_product():
    # rho = 1/(2 pi r) integrated over angle gives a flat radial density
    cloud = product_eigenvalues(GIN100, GIN100, trials=60, seed=29)
    prof = radial_profile(cloud, bins=10, r_max=1.0)
    # the outermost bin sits on the support edge where finite-size smearing
    # bleeds mass outward; hold it to a looser bound than the interior
    assert np.max(np.abs(prof.density[:-1] - 1.0)) <= 0.15
    assert abs(prof.density[-1] - 1.0) <= 0.4
    widths = np.diff(prof.edges)
    assert np.sum(prof.density * widths) == pytest.approx(1.0, abs=1e-12)


def test_radial_profile_single_factor_is_linear():
    # multiplying by a near-identity second factor leaves the uniform-disc
    # law of the first factor intact: radial density 2r on [0, 1]
    near_identity = EnsembleSpec("shifted", 100, sigma=1e-8, shift=1.0)
    cloud = product_eigenvalues(EnsembleSpec("ginibre", 100), near_identity,
                                trials=50, seed=31)
    prof = radial_profile(cloud, bins=8, r_max=1.0)
    centers = 0.5 * (prof.edges[1:] + prof.edges[:-1])
    assert np.max(np.abs(prof.density[:-1] - 2.0 * centers[:-1])) <= 0.15
    assert abs(prof.density[-1] - 2.0 * centers[-1]) <= 0.4


def test_radial_profile_delta():
    cloud = synthetic_cloud(np.full(200, 0.37 + 0.0j))
    prof = radial_profile(cloud, bins=10, r_max=1.0)
    assert int(np.sum(prof.density > 0)) == 1


def test_radial_profile_empty_cloud():
    empty = EigenCloud(eigenvalues=np.empty(0, dtype=complex), n=0, trials=0,
                       seed=0, spec_a=GIN100, spec_b=GIN100)
    with pytest.raises(EmptyCloudError):
        radial_profile(empty)


# ---------------------------------------------------------------------------
# real-axis slice
# ---------------------------------------------------------------------------


def test_slice_wide_eps_keeps_everything():
    cloud = product_eigenvalues(EnsembleSpec("ginibre", 32),
                                EnsembleSpec("ginibre", 32), trials=3, seed=2)
    sl = real_axis_slice(cloud, eps=1e9, bins=8)
    assert sl.count == cloud.eigenvalues.size
    assert not sl.empty


def test_slice_normalizes_to_unit_area():
    cloud = product_eigenvalues(EnsembleSpec("ginibre", 64),
                                EnsembleSpec("ginibre", 64), trials=5, seed=4)
    sl = real_axis_slice(cloud, eps=0.3, bins=12, interval=(-1.0, 1.0))
    assert sl.normalization == "unit-area-over-interval"
    assert np.sum(sl.density * np.diff(sl.edges)) == pytest.approx(1.0, abs=1e-12)


def test_slice_empty_marker():
    cloud = synthetic_cloud(np.array([1j, -2j, 0.5j, 3j]))
    sl = real_axis_slice(cloud, eps=1e-6)
    assert sl.empty and sl.count == 0 and sl.density is None


# ---------------------------------------------------------------------------
# 2d histogram
# ---------------------------------------------------------------------------


def test_histogram_uniform_disc():
    rng = np.random.default_rng(7)
    r = np.sqrt(rng.uniform(0.0, 1.0, 40000))
    th = rng.uniform(-np.pi, np.pi, 40000)
    cloud = synthetic_cloud(r * np.exp(1j * th))
    grid = GridSpec("cartesian", ((-1.1, 1.1), (-1.1, 1.1)), (12, 12))
    fld = histogram2d(cloud, grid)
    assert fld.route == "empirical"
    centers = grid.points()
    interior = np.abs(centers) < 0.8
    assert np.max(np.abs(fld.rho[interior] - 1.0 / math.pi)) <= 0.05


def test_histogram_mass_is_exact():
    cloud = product_eigenvalues(EnsembleSpec("ginibre", 64),
                                EnsembleSpec("ginibre", 64), trials=4, seed=11)
    grid = GridSpec("cartesian", ((-1.5, 1.5), (-1.5, 1.5)), (10, 10))
    fld = histogram2d(cloud, grid)
    hx, hy = grid.steps()
    assert float(np.sum(fld.rho) * hx * hy) == pytest.approx(1.0, abs=1e-12)


def test_histogram_single_point():
    cloud = synthetic_cloud(np.full(50, 0.2 + 0.3j))
    grid = GridSpec("cartesian", ((-1.0, 1.0), (-1.0, 1.0)), (8, 8))
    fld = histogram2d(cloud, grid)
    assert int(np.sum(fld.rho > 0)) == 1


def test_histogram_requires_coverage():
    cloud = synthetic_cloud(np.array([5.0 + 0j]))
    grid = GridSpec("cartesian", ((-1.0, 1.0), (-1.0, 1.0)), (8, 8))
    with pytest.raises(GridError):
        histogram2d(cloud, grid)


def test_histogram_requires_cartesian():
    cloud = synthetic_cloud(np.array([0.5 + 0j]))
    with pytest.raises(GridError):
        histogram2d(cloud, GridSpec("polar", ((0.1, 1.0), (-3.0, 3.0)), (4, 4)))


# ---------------------------------------------------------------------------
# comparison reports
# ---------------------------------------------------------------------------


def _circular_pair(trials=100, seed=17):
    cloud = product_eigenvalues(GIN100, GIN100, trials=trials, seed=seed)
    grid = GridSpec("cartesian", ((-1.2, 1.2), (-1.2, 1.2)), (16, 16))
    empirical = histogram2d(cloud, grid)
    analytic = density_field(ginibre_rmap(1.0), ginibre_rmap(1.0), grid)
    return empirical, analytic


def test_compare_field_with_itself():
    empirical, _ = _circular_pair(trials=5)
    report = compare_density(empirical, empirical)
    assert report.l1_distance == 0.0
    assert report.max_deviation == 0.0


def test_compare_circular_law():
    empirical, analytic = _circular_pair()
    report = compare_density(empirical, analytic)
    assert report.l1_distance <= 0.08
    assert report.sample_counts["included_expected_min"] >= 10.0


def test_compare_gue_product_same_circular_law():
    # hermitian x hermitian factors produce the same circular law
    spec = EnsembleSpec("gue", 100)
    cloud = product_eigenvalues(spec, spec, trials=100, seed=19)
    grid = GridSpec("cartesian", ((-1.2, 1.2), (-1.2, 1.2)), (16, 16))
    empirical = histogram2d(cloud, grid)
    analytic = density_field(ginibre_rmap(1.0), ginibre_rmap(1.0), grid)
    report = compare_density(empirical, analytic)
    assert report.l1_distance <= 0.08


def test_compare_collar_growth_shrinks_region(monkeypatch):
    empirical, analytic = _circular_pair(trials=20)
    monkeypatch.setattr(montecarlo, "_COLLAR_CELLS", 1)
    small = compare_density(empirical, analytic)
    monkeypatch.setattr(montecarlo, "_COLLAR_CELLS", 3)
    large = compare_density(empirical, analytic)
    assert large.included_cells < small.included_cells
    assert large.excluded["collar"] > small.excluded["collar"]


def test_comparison_cells_grow_with_the_total():
    # the report's mask is comparison_cells at the empirical total, and only
    # the low-count mask depends on the total, shrinking as it grows
    empirical, analytic = _circular_pair(trials=20)
    report = compare_density(empirical, analytic)
    total = float(empirical.counts.sum())
    included, _, excluded = comparison_cells(analytic, total)
    assert np.array_equal(included, report.included_mask)
    assert excluded == report.excluded
    more, _, more_excluded = comparison_cells(analytic, 10.0 * total)
    assert not (included & ~more).any()
    assert more_excluded["core"] == excluded["core"]
    assert more_excluded["collar"] == excluded["collar"]
    assert more_excluded["low_count"] < excluded["low_count"]
    with pytest.raises(GridError):
        comparison_cells(analytic, 1.0)


def test_compare_grid_mismatch():
    empirical, _ = _circular_pair(trials=5)
    other_grid = GridSpec("cartesian", ((-1.2, 1.2), (-1.2, 1.2)), (18, 18))
    analytic = density_field(ginibre_rmap(1.0), ginibre_rmap(1.0), other_grid)
    with pytest.raises(GridError):
        compare_density(empirical, analytic)


def test_compare_requires_counts():
    _, analytic = _circular_pair(trials=5)
    with pytest.raises(FreeconvError):
        compare_density(analytic, analytic)


def test_gue_product_moments_vanish():
    # all spectral moments of the product of two centered hermitian factors
    # vanish; empirical means must sit within 5 standard errors of zero
    spec = EnsembleSpec("gue", 64)
    trials, seed = 40, 101
    from freeconv.ensembles import sample
    from freeconv.montecarlo import _mix

    seed_a, seed_b = _mix(seed, 0xA), _mix(seed, 0xB)
    moments = {k: [] for k in (1, 2, 3, 4)}
    for t in range(trials):
        m = sample(spec, seed_a, t).matrix @ sample(spec, seed_b, t).matrix
        power = np.eye(64, dtype=complex)
        for k in (1, 2, 3, 4):
            power = power @ m
            moments[k].append(np.trace(power).real / 64)
    for k, vals in moments.items():
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(trials))
        assert abs(mean) <= 5.0 * se + 1e-12, f"moment {k}: {mean} vs SE {se}"
