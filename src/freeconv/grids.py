"""Grid specifications for spectral-plane evaluation and histogramming."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import GridError


def _finite_real(x) -> bool:
    """x is a real number, not a bool, with a finite float value.  Pure
    Python: boundary_curve validates its inputs with it too, where every
    distinct numpy function would cost tens of microseconds."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer past the float range
        return False


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid in either cartesian (x, y) or polar (r, phi) coordinates.

    ranges holds ((lo0, hi0), (lo1, hi1)) for the two axes and resolution the
    per-axis point counts.  Cartesian nodes are z = x + i y; polar nodes are
    z = r e^{i phi} with r > 0, so polar grids can never contain the origin.
    """

    kind: str
    ranges: tuple
    resolution: tuple

    def __post_init__(self):
        problems = []
        if self.kind not in ("cartesian", "polar"):
            problems.append(f"grid kind must be 'cartesian' or 'polar', got {self.kind!r}")
        ranges, resolution = (x if isinstance(x, (list, tuple)) else ()
                              for x in (self.ranges, self.resolution))
        if not (len(ranges) == 2 and all(isinstance(r, (list, tuple)) and len(r) == 2
                                         and all(map(_finite_real, r)) for r in ranges)):
            problems.append("ranges must be ((lo, hi), (lo, hi)) of finite real numbers, "
                            f"got {self.ranges!r}")
        else:
            ranges = tuple((float(lo), float(hi)) for lo, hi in ranges)
            for axis, (lo, hi) in enumerate(ranges):
                if not hi > lo:
                    problems.append(f"axis {axis}: range ({lo}, {hi}) is empty")
            if self.kind == "polar" and ranges[0][0] <= 0:
                problems.append("polar grids need r > 0")
        if not (len(resolution) == 2 and all(isinstance(n, numbers.Integral)
                                             and not isinstance(n, bool) for n in resolution)):
            problems.append(f"resolution must be two integers, got {self.resolution!r}")
        elif min(resolution) < 2:
            problems.append("need at least 2 points per axis (steps() divides by n - 1)")
        if problems:
            raise GridError("; ".join(problems))
        # normalize to plain tuples of floats/ints so equality is structural
        object.__setattr__(self, "ranges", ranges)
        object.__setattr__(self, "resolution", tuple(int(n) for n in resolution))

    def axes(self):
        """The two 1-d coordinate arrays (x, y) or (r, phi)."""
        (lo0, hi0), (lo1, hi1) = self.ranges
        n0, n1 = self.resolution
        return np.linspace(lo0, hi0, n0), np.linspace(lo1, hi1, n1)

    def points(self):
        """Complex nodes as a (n0, n1) array; axis 0 is x or r, axis 1 is y or phi."""
        u, v = self.axes()
        if self.kind == "cartesian":
            return u[:, None] + 1j * v[None, :]
        return u[:, None] * np.exp(1j * v[None, :])

    def steps(self):
        (lo0, hi0), (lo1, hi1) = self.ranges
        n0, n1 = self.resolution
        return (hi0 - lo0) / (n0 - 1), (hi1 - lo1) / (n1 - 1)

    def contains_origin(self) -> bool:
        if self.kind == "polar":
            return False
        return bool(np.any(self.points() == 0))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "ranges": [list(r) for r in self.ranges],
                "resolution": list(self.resolution)}

    @staticmethod
    def from_dict(d: dict) -> "GridSpec":
        try:
            return GridSpec(kind=d["kind"], ranges=d["ranges"], resolution=d["resolution"])
        except KeyError as exc:
            raise GridError(f"grid spec missing key {exc}") from exc
