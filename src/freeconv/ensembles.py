"""Random-matrix ensembles: validated specs, reproducible sampling, transforms.

Sampling is counter-based: the Philox key is derived from (spec, seed, trial),
so any single matrix can be regenerated in isolation and results do not depend
on draw order across trials or processes.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import SpecValidationError
from .hermitian import (
    ScalarTransform,
    gaussian_transform,
    shifted_gaussian_transform,
)
from .nonhermitian import MatrixRMap, elliptic_rmap

_KINDS = ("ginibre", "elliptic", "gue", "shifted")
_MASK64 = (1 << 64) - 1


def _number(kind, value):
    """kind(value), or None when value is not a number of that kind."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        return None


@dataclass(frozen=True)
class EnsembleSpec:
    """One matrix ensemble: kind + correlation tau + scale sigma + shift + size.

    tau may be omitted; it defaults to the kind's natural value (0 for
    ginibre/shifted, 1 for gue, required for elliptic) and conflicting
    explicit values are rejected.  shift applies to every kind.  All
    validation problems are reported together in one SpecValidationError.
    """

    kind: str
    n: int
    sigma: float = 1.0
    tau: Optional[float] = None
    shift: Optional[complex] = None

    def __post_init__(self):
        problems = []
        if self.kind not in _KINDS:
            problems.append(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 2:
            problems.append(f"n must be an integer >= 2, got {self.n!r}")
        sigma = _number(float, self.sigma)
        if sigma is None:
            problems.append(f"sigma must be a positive number, got {self.sigma!r}")
        elif not (0.0 < sigma and math.isfinite(sigma * sigma)):
            problems.append(f"sigma must be positive and finite, got {self.sigma}")
        tau = self.tau
        if self.kind in ("ginibre", "shifted"):
            if tau is None:
                tau = 0.0
            elif tau != 0.0:
                problems.append(f"kind {self.kind!r} fixes tau = 0, got {tau}")
        elif self.kind == "gue":
            if tau is None:
                tau = 1.0
            elif tau != 1.0:
                problems.append("kind 'gue' fixes tau = 1, got %s" % (tau,))
        elif self.kind == "elliptic":
            if tau is None:
                problems.append("kind 'elliptic' requires an explicit tau")
                tau = 0.0
        if tau is not None:
            value = _number(float, tau)
            if value is None:
                problems.append(f"tau must be a number, got {tau!r}")
            elif not -1.0 <= value <= 1.0:
                problems.append(f"tau must lie in [-1, 1], got {tau}")
        shift = self.shift
        if shift is None:
            shift = 1.0 if self.kind == "shifted" else 0.0
        elif self.kind == "shifted" and shift == 0.0:
            problems.append("kind 'shifted' needs a nonzero shift")
        else:
            value = _number(complex, shift)
            if value is None:
                problems.append(f"shift must be a number or [re, im], got {shift!r}")
            elif not cmath.isfinite(value):
                problems.append(f"shift must be finite, got {shift}")
        if problems:
            raise SpecValidationError(problems)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "tau", float(tau))
        object.__setattr__(self, "shift", complex(shift))

    def to_json(self) -> dict:
        return {"kind": self.kind, "n": self.n, "sigma": self.sigma,
                "tau": self.tau, "shift": [self.shift.real, self.shift.imag]}

    @staticmethod
    def from_json(d: dict) -> "EnsembleSpec":
        problems = []
        if not isinstance(d, dict):
            raise SpecValidationError([f"ensemble spec must be an object, got {type(d).__name__}"])
        unknown = set(d) - {"kind", "n", "sigma", "tau", "shift"}
        if unknown:
            problems.append(f"unknown ensemble fields: {sorted(unknown)}")
        if "kind" not in d or "n" not in d:
            problems.append("ensemble spec requires 'kind' and 'n'")
        if problems:
            raise SpecValidationError(problems)
        shift = d.get("shift")
        if isinstance(shift, (list, tuple)):
            parts = [_number(float, part) for part in shift]
            if len(parts) == 2 and None not in parts:
                shift = complex(*parts)  # anything else is reported by the spec
        return EnsembleSpec(kind=d["kind"], n=d["n"], sigma=d.get("sigma", 1.0),
                            tau=d.get("tau"), shift=shift)


@dataclass(frozen=True)
class SampledMatrix:
    """One realized matrix plus everything needed to regenerate it."""

    matrix: np.ndarray
    spec: EnsembleSpec
    seed: int
    trial: int


def _fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


def _philox_key(spec: EnsembleSpec, seed: int, trial: int) -> np.ndarray:
    # fingerprint only what the sampling law depends on, so two specs that
    # describe the same distribution (gue vs elliptic tau=1) share a stream
    law = json.dumps({"n": spec.n, "sigma": spec.sigma, "tau": spec.tau,
                      "shift": [spec.shift.real, spec.shift.imag]},
                     sort_keys=True, separators=(",", ":"))
    k0 = (int(seed) ^ _fnv1a64(law.encode())) & _MASK64
    k1 = int(trial) & _MASK64
    return np.array([k0, k1], dtype=np.uint64)


def _hermitian_gaussian(rng: np.random.Generator, n: int, sigma: float) -> np.ndarray:
    """Hermitian Gaussian with entry variance sigma^2 / n (real diagonal)."""
    x = rng.standard_normal((2, n, n))
    g = (x[0] + 1j * x[1]) * (sigma / np.sqrt(2.0 * n))
    return (g + g.conj().T) / np.sqrt(2.0)


def sample(spec: EnsembleSpec, seed: int, trial: int) -> SampledMatrix:
    """Draw the matrix determined by (spec, seed, trial).

    All kinds share the elliptic construction
        X = sqrt((1 + tau)/2) H1 + i sqrt((1 - tau)/2) H2 + shift I
    with independent hermitian Gaussians H1, H2, so e.g. a gue spec and an
    elliptic spec with tau = 1 produce bitwise identical draws.  Streams for
    coefficient-zero components are skipped entirely.
    """
    rng = np.random.Generator(np.random.Philox(key=_philox_key(spec, seed, trial)))
    n, sigma, tau = spec.n, spec.sigma, spec.tau
    c1 = np.sqrt((1.0 + tau) / 2.0)
    c2 = np.sqrt((1.0 - tau) / 2.0)
    out = np.zeros((n, n), dtype=complex)
    if c1 != 0.0:
        out += c1 * _hermitian_gaussian(rng, n, sigma)
    if c2 != 0.0:
        out += 1j * c2 * _hermitian_gaussian(rng, n, sigma)
    if spec.shift != 0:
        out[np.diag_indices(n)] += spec.shift
    return SampledMatrix(matrix=out, spec=spec, seed=seed, trial=trial)


def analytic_transforms(spec: EnsembleSpec) -> Tuple[Optional[ScalarTransform], MatrixRMap]:
    """The (scalar, matrix) R transforms matching a spec's n -> infinity limit.

    The scalar transform exists only for hermitian ensembles (tau = 1 with a
    real shift); otherwise the first element is None.
    """
    label = f"{spec.kind}(sigma={spec.sigma}, tau={spec.tau}, shift={spec.shift})"
    matrix = elliptic_rmap(sigma=spec.sigma, tau=spec.tau, shift=spec.shift,
                           name=label)
    scalar = None
    if spec.tau == 1.0 and spec.shift.imag == 0.0:
        if spec.shift == 0:
            scalar = gaussian_transform(spec.sigma, name=label)
        else:
            scalar = shifted_gaussian_transform(spec.shift.real, spec.sigma,
                                                name=label)
    return scalar, matrix
