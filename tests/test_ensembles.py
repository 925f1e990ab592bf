"""Tests for ensemble specs, reproducible sampling, and matching transforms."""

from __future__ import annotations

import math

import numpy as np
import pytest

from freeconv.ensembles import EnsembleSpec, analytic_transforms, sample
from freeconv.errors import SpecValidationError
from freeconv.nonhermitian import MatrixRMap


def test_spec_defaults():
    spec = EnsembleSpec("ginibre", 64)
    assert spec.tau == 0.0 and spec.shift == 0.0 and spec.sigma == 1.0
    assert EnsembleSpec("gue", 64).tau == 1.0
    assert EnsembleSpec("shifted", 64).shift == 1.0


@pytest.mark.parametrize("kwargs,fragment", [
    (dict(kind="wishart", n=8), "kind"),
    (dict(kind="ginibre", n=1), "n must be"),
    (dict(kind="ginibre", n=8, sigma=-1.0), "sigma"),
    (dict(kind="elliptic", n=8), "requires an explicit tau"),
    (dict(kind="elliptic", n=8, tau=1.5), "tau must lie"),
    (dict(kind="gue", n=8, tau=0.5), "fixes tau = 1"),
    (dict(kind="ginibre", n=8, tau=0.3), "fixes tau = 0"),
    (dict(kind="shifted", n=8, shift=0.0), "nonzero shift"),
    (dict(kind="ginibre", n=8, sigma=math.inf), "sigma"),
    (dict(kind="ginibre", n=8, shift=complex(math.nan, 0.0)), "shift must be finite"),
    (dict(kind="shifted", n=8, shift=complex(0.0, -math.inf)), "shift must be finite"),
    (dict(kind="ginibre", n=8, sigma=1e200), "sigma must be positive and finite"),
    (dict(kind="elliptic", n=8, tau="x"), "tau must be a number"),
    (dict(kind="ginibre", n=8, shift="abc"), "shift must be a number"),
    (dict(kind="ginibre", n=8, shift=["abc", 0.0]), "shift must be a number"),
])
def test_spec_validation(kwargs, fragment):
    with pytest.raises(SpecValidationError) as err:
        EnsembleSpec(**kwargs)
    assert any(fragment in v for v in err.value.violations)


def test_spec_validation_aggregates():
    with pytest.raises(SpecValidationError) as err:
        EnsembleSpec(kind="wishart", n=1, sigma=-2.0)
    assert len(err.value.violations) == 3


@pytest.mark.parametrize("spec", [
    EnsembleSpec("ginibre", 16),
    EnsembleSpec("elliptic", 32, sigma=2.0, tau=-0.5),
    EnsembleSpec("shifted", 8, shift=1.0 - 2.0j),
    EnsembleSpec("gue", 64, sigma=0.5),
])
def test_spec_json_roundtrip(spec):
    assert EnsembleSpec.from_json(spec.to_json()) == spec


def test_spec_from_json_rejects_unknown_fields():
    with pytest.raises(SpecValidationError):
        EnsembleSpec.from_json({"kind": "gue", "n": 8, "beta": 2})


def test_spec_from_json_requires_kind_and_n():
    with pytest.raises(SpecValidationError):
        EnsembleSpec.from_json({"sigma": 1.0})


def test_sampling_deterministic():
    spec = EnsembleSpec("ginibre", 24)
    m1 = sample(spec, seed=12345, trial=7).matrix
    m2 = sample(spec, seed=12345, trial=7).matrix
    assert np.array_equal(m1, m2)


def test_sampling_varies_with_seed_and_trial():
    spec = EnsembleSpec("ginibre", 24)
    base = sample(spec, 1, 0).matrix
    assert not np.array_equal(base, sample(spec, 2, 0).matrix)
    assert not np.array_equal(base, sample(spec, 1, 1).matrix)


def test_sampling_independent_of_call_order():
    spec = EnsembleSpec("ginibre", 16)
    forward = [sample(spec, 9, t).matrix for t in range(3)]
    backward = [sample(spec, 9, t).matrix for t in (2, 1, 0)][::-1]
    for a, b in zip(forward, backward):
        assert np.array_equal(a, b)


def test_gue_is_hermitian():
    m = sample(EnsembleSpec("gue", 64), 3, 0).matrix
    assert np.max(np.abs(m - m.conj().T)) <= 1e-14


def test_gue_equals_elliptic_tau_one():
    # same construction, same stream -> bitwise identical draws
    g = sample(EnsembleSpec("gue", 32), 11, 2).matrix
    e = sample(EnsembleSpec("elliptic", 32, tau=1.0), 11, 2).matrix
    assert np.array_equal(g, e)


def test_shift_lands_on_diagonal():
    spec = EnsembleSpec("shifted", 48, shift=2.0 + 1.0j)
    m = sample(spec, 5, 0).matrix
    assert np.mean(np.diag(m)) == pytest.approx(2.0 + 1.0j, abs=0.15)


def _mean_trace(spec, stat, trials=100, seed=202):
    vals = []
    for t in range(trials):
        x = sample(spec, seed, t).matrix
        vals.append(stat(x).real / spec.n)
    return float(np.mean(vals))


def test_ginibre_propagator():
    # E[(1/n) Tr X X^dag] = sigma^2
    spec = EnsembleSpec("ginibre", 256)
    got = _mean_trace(spec, lambda x: np.trace(x @ x.conj().T))
    assert got == pytest.approx(1.0, abs=0.02)


def test_elliptic_correlated_propagator():
    # E[(1/n) Tr X X] = tau sigma^2
    spec = EnsembleSpec("elliptic", 256, tau=0.5)
    got = _mean_trace(spec, lambda x: np.trace(x @ x))
    assert got == pytest.approx(0.5, abs=0.03)


def test_gue_propagators_coincide():
    spec = EnsembleSpec("gue", 256, sigma=1.5)
    got = _mean_trace(spec, lambda x: np.trace(x @ x), trials=50)
    assert got == pytest.approx(1.5 ** 2, abs=0.1)


def test_gue_histogram_matches_semicircle():
    # L1 distance between the eigenvalue histogram and the semicircle
    eigs = []
    spec = EnsembleSpec("gue", 512)
    for t in range(50):
        eigs.append(np.linalg.eigvalsh(sample(spec, 77, t).matrix))
    eigs = np.concatenate(eigs)
    edges = np.linspace(-2.2, 2.2, 45)
    hist, _ = np.histogram(eigs, bins=edges, density=True)
    centers = 0.5 * (edges[1:] + edges[:-1])
    semi = np.where(np.abs(centers) < 2.0,
                    np.sqrt(np.maximum(4.0 - centers ** 2, 0.0)) / (2 * math.pi), 0.0)
    l1 = float(np.sum(np.abs(hist - semi)) * (edges[1] - edges[0]))
    assert l1 <= 0.05


def test_transforms_gue():
    scalar, rmap = analytic_transforms(EnsembleSpec("gue", 16, sigma=2.0))
    assert scalar is not None
    # R(g) = sigma^2 g for the centered hermitian Gaussian
    assert scalar.r_eval(0.3) == pytest.approx(4.0 * 0.3)
    assert rmap.tau == 1.0 and rmap.sigma == 2.0


def test_transforms_ginibre_has_no_scalar():
    scalar, rmap = analytic_transforms(EnsembleSpec("ginibre", 16))
    assert scalar is None
    assert isinstance(rmap, MatrixRMap) and rmap.tau == 0.0


def test_transforms_shifted_kinds():
    scalar, rmap = analytic_transforms(EnsembleSpec("shifted", 16, shift=1.0))
    assert scalar is None            # tau = 0: matrix is not hermitian
    assert rmap.shift == 1.0
    scalar2, _ = analytic_transforms(EnsembleSpec("elliptic", 16, tau=1.0, shift=0.5))
    assert scalar2 is not None       # hermitian with a real shift
    assert scalar2.kappa1 == pytest.approx(0.5)


def test_transforms_complex_shift_on_hermitian_base():
    scalar, _ = analytic_transforms(EnsembleSpec("elliptic", 16, tau=1.0, shift=1.0j))
    assert scalar is None            # complex shift breaks hermiticity
