"""The three benchmark workloads: seeded inputs, one timed pass, and its checks.

Every workload is a closed loop: one client in one process issues each call
after the previous one returns.  A pass ends in outputs that are checked
against analytic references with the acceptance criteria's tolerances; the
checks run outside the timed calls.  Each check feeds a Tally, which counts
failed operations and the worst deviation-to-tolerance ratio (err_ratio).

Every timed call is preceded by a fixed pure-Python reference loop, and its
time is reported at reference speed: measured seconds x REF_SECONDS / the
loop's measured seconds.  Identical calls on a shared 2-core box run up to
1.5x slower in phases lasting seconds to tens of seconds, and the reference
loop slows with them; scaling by it took the run-to-run spread of a 10-run
test from 19% to 2-4%.  The measured seconds are kept alongside.
"""

from __future__ import annotations

import cmath
import csv
import hashlib
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from freeconv import cli, nonhermitian
from freeconv.ensembles import EnsembleSpec, analytic_transforms

N = 100                       # matrix size of every ensemble
TWO_PI_3 = 2.0 * math.pi / 3.0

GINIBRE = {"kind": "ginibre", "n": N}
LIMACON = {"kind": "shifted", "n": N}                          # shift 1, sigma 1
SCALED = {"kind": "ginibre", "n": N, "sigma": 2.0, "shift": 2.0}  # 4 x limacon

# acceptance-criterion tolerances
TOL_CIRCLE = 1e-4        # criterion 3: |z| = 1 boundary rays
TOL_LIMACON_RAY = 1e-3   # criterion 3: r = 1 + 2 cos(phi) inside its window
RAY_WINDOW = TWO_PI_3 - 0.05
TOL_RHO_REL = 1e-6       # criterion 1: interior density, relative
TOL_RHO_OUT = 1e-8       # criterion 1: exterior density, absolute
TOL_DEFINING = 1e-9      # criterion 8: defining-equation residuals
TOL_FACTOR = 1e-8        # criterion 8: one-sided S factorization
TOL_L1 = 0.08            # criterion 6: 2-d histogram L1
TOL_MOMENT_SE = 5.0      # criterion 4: trace moment within 5 standard errors
# generic grid route on the scaled limacon, nodes outside the boundary
# collar: worst seen over seeds 0-9 was 3.3e-14 for g11 and 2.9e-4 for rho
# (1.0e-3 on the one-sided edge rows, which are not scored)
TOL_GRID_G = 1e-9        # g11 against the exact Green's function
TOL_GRID_RHO = 1e-3      # finite-difference density, absolute


# ---------------------------------------------------------------------------
# analytic references (written out here, independent of the library)
# ---------------------------------------------------------------------------


def limacon_exact(z: complex):
    """(inside, g11, rho) for the product of two unit-shift Ginibre factors."""
    r, phi = abs(z), cmath.phase(z)
    c = math.cos(phi)
    if r <= 1.0 + 2.0 * c:
        u = 0.5 * (math.sqrt(1.0 + 8.0 * r * (1.0 + c)) - 1.0)
        d = 1.0 + u
        g = (u * cmath.exp(-1j * phi) - 1.0) / d
        rho = (2.0 * (1.0 + c) / ((1.0 + 2.0 * u) * d * d) + u / (2.0 * r * d)) / math.pi
        return True, g, rho
    return False, 1.0 / (z - 1.0), 0.0


def scaled_exact(z: complex):
    """Same for 4 x limacon: g(z) = g_lim(z/4)/4, rho(z) = rho_lim(z/4)/16."""
    inside, g, rho = limacon_exact(z / 4.0)
    return inside, g / 4.0, rho / 16.0


def ginibre_exact(z: complex):
    r = abs(z)
    if r <= 1.0:
        return True, z.conjugate() / r, 1.0 / (2.0 * math.pi * r)
    return False, 1.0 / z, 0.0


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    """Failed operations against attempted ones, plus the worst err ratio."""

    attempted: int = 0
    failed: int = 0
    worst: float = 0.0
    reasons: list = field(default_factory=list)

    def op(self, ratios=(), ok=True, what=""):
        ratio = max(ratios, default=0.0)
        self.attempted += 1
        if ratio == ratio:  # NaN fails below but must not poison the maximum
            self.worst = max(self.worst, ratio)
        if not (ok and ratio <= 1.0):
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{what} (err ratio {ratio:.3g})")


REF_SECONDS = 0.015   # nominal duration of the reference loop


def reference_scale() -> float:
    """REF_SECONDS over the current duration of a fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    return REF_SECONDS / (time.perf_counter() - t0)


def timed(fn, *args, **kwargs):
    """(result, seconds at reference speed, measured seconds) of one call."""
    scale = reference_scale()
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    seconds = time.perf_counter() - t0
    return out, seconds * scale, seconds


@dataclass
class PassResult:
    """Times of one pass at reference speed, plus the measured total."""

    wall: float = 0.0              # seconds spent in the workload's calls
    raw_wall: float = 0.0          # the same, as measured
    batch_time: float = 0.0        # seconds spent in the batch calls
    items: int = 0                 # rays, grid nodes or product eigenvalues
    latencies: list = field(default_factory=list)  # (kind, seconds) per request
    digests: dict = field(default_factory=dict)    # output label -> sha256
    output_bytes: int = 0
    job_times: dict = field(default_factory=dict)  # CLI label -> seconds

    def record(self, kind, seconds, raw, items=0, request=True):
        """Add one call; calls with items are batch calls."""
        self.wall += seconds
        self.raw_wall += raw
        if items:
            self.batch_time += seconds
            self.items += items
        if request:
            self.latencies.append((kind, seconds))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_arg(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _dilate(mask: np.ndarray, rounds: int) -> np.ndarray:
    out = mask.copy()
    for _ in range(rounds):
        grown = out.copy()
        grown[1:, :] |= out[:-1, :]
        grown[:-1, :] |= out[1:, :]
        grown[:, 1:] |= out[:, :-1]
        grown[:, :-1] |= out[:, 1:]
        out = grown
    return out


def _collar(inside: np.ndarray, reach: int) -> np.ndarray:
    """Nodes within `reach` grid steps of a change of side (stencil reach)."""
    edge = np.zeros_like(inside)
    edge[:-1, :] |= inside[:-1, :] != inside[1:, :]
    edge[1:, :] |= inside[1:, :] != inside[:-1, :]
    edge[:, :-1] |= inside[:, :-1] != inside[:, 1:]
    edge[:, 1:] |= inside[:, 1:] != inside[:, :-1]
    return _dilate(edge, reach)


class CliJob:
    """One CLI invocation, validated at set-up; run() times cli.main."""

    def __init__(self, label, command, config, out_dir, ext):
        self.label = label
        self.command = command
        self.config = config
        self.out_dir = Path(out_dir)
        self.ext = ext
        cli.build_job(command, dict(config, output=str(self.path())))

    def path(self, workers=None):
        suffix = "" if workers is None else f"-w{workers}"
        return self.out_dir / f"{self.label}{suffix}.{self.ext}"

    def argv(self, workers, out):
        args = [self.command]
        for key, value in self.config.items():
            flag = "--" + key.replace("_", "-")
            args += [flag, _json_arg(value) if isinstance(value, dict) else str(value)]
        return args + ["--workers", str(workers), "--output", str(out)]

    def run(self, workers, out=None):
        """(exit code, seconds at reference speed, measured seconds, output)."""
        out = Path(out) if out is not None else self.path()
        code, seconds, raw = timed(cli.main, self.argv(workers, out))
        return code, seconds, raw, out


def _read_csv(path: Path):
    with open(path, "r", encoding="utf-8", newline="") as handle:
        handle.readline()  # provenance
        summary = json.loads(handle.readline().split(":", 1)[1])
        reader = csv.reader(handle)
        header = next(reader)
        rows = [dict(zip(header, row)) for row in reader]
    return summary, rows


def _num(cell: str) -> float:
    return float(cell) if cell != "" else math.nan


# ---------------------------------------------------------------------------
# boundary: nonhermitian.boundary_curve on Ginibre^2 and the limacon
# ---------------------------------------------------------------------------


class Boundary:
    """Two pairs, each a fan of RAYS rays issued as two interleaved calls."""

    name = "boundary"
    RAYS = 12

    def __init__(self, seed, workers, out_dir):
        rng = random.Random(seed)
        pairs = (("ginibre2", GINIBRE), ("limacon", LIMACON))
        self.calls = []
        for label, spec in pairs:
            _, rmap = analytic_transforms(EnsembleSpec.from_json(spec))
            offset = rng.uniform(0.0, 2.0 * math.pi / self.RAYS)
            fan = [math.remainder(-math.pi + offset + k * 2.0 * math.pi / self.RAYS,
                                  2.0 * math.pi) for k in range(self.RAYS)]
            self.calls.append((label, rmap, fan[0::2]))
            self.calls.append((label, rmap, fan[1::2]))
        self.jobs = []

    def run_pass(self, tally: Tally, workers: int, index: int) -> PassResult:
        res = PassResult()
        for k, (label, rmap, angles) in enumerate(self.calls):
            try:
                curve, seconds, raw = timed(nonhermitian.boundary_curve, rmap, rmap,
                                            angles=angles)
            except Exception as exc:  # every ray of the call is lost
                for phi in angles:
                    tally.op(ok=False, what=f"{label} ray {phi:.4f}: {exc!r}")
                continue
            res.record(label, seconds, raw, items=len(angles))
            res.digests[f"{label}-{k}"] = digest(repr(curve).encode())
            self._check(label, angles, curve, tally)
        return res

    @staticmethod
    def _check(label, angles, curve, tally):
        located = {phi: r for r, phi in curve.points}
        empty = set(curve.empty_rays)
        for phi in angles:
            r = located.get(phi)
            lost = r is None
            if phi not in empty and lost:
                tally.op(ok=False, what=f"{label} ray {phi:.4f} not reported")
            elif label == "ginibre2":
                tally.op([abs(r - 1.0) / TOL_CIRCLE] if not lost else [],
                         ok=not lost, what=f"{label} ray {phi:.4f} r={r}")
            elif abs(phi) <= RAY_WINDOW:
                ref = 1.0 + 2.0 * math.cos(phi)
                tally.op([abs(r - ref) / TOL_LIMACON_RAY] if not lost else [],
                         ok=not lost, what=f"{label} ray {phi:.4f} r={r} ref={ref}")
            elif abs(phi) >= TWO_PI_3 + 0.05:
                # no support along this ray: it must come back empty
                tally.op(ok=lost, what=f"{label} ray {phi:.4f} located r={r}")
            else:
                tally.op()  # within 0.05 of the cusp direction: unscored


# ---------------------------------------------------------------------------
# field: generic grid jobs through the CLI, then single-point queries
# ---------------------------------------------------------------------------


class Field:
    """CLI density + solve-product on 4 x limacon, then point queries."""

    name = "field"
    GRID_RES = (10, 9)           # 90 nodes per grid job
    GRID_SPAN = (6.0, 1.6)       # radial and angular extent of each grid
    POINTS_IN, POINTS_OUT = 6, 3  # per pair and pass

    def __init__(self, seed, workers, out_dir):
        self.seed = seed
        rng = random.Random(seed)
        self.grids = {}
        self.jobs = []
        for command, ext in (("density", "csv"), ("solve-product", "csv")):
            r0 = 1.0 + rng.uniform(0.0, 0.5)
            p0 = 0.6 + rng.uniform(-0.1, 0.1)  # the support edge crosses it
            grid = {"kind": "polar",
                    "ranges": [[r0, r0 + self.GRID_SPAN[0]], [p0, p0 + self.GRID_SPAN[1]]],
                    "resolution": list(self.GRID_RES)}
            self.grids[command] = grid
            self.jobs.append(CliJob(command, command, {
                "ensemble_a": SCALED, "ensemble_b": SCALED, "grid": grid},
                out_dir, ext))
        self.pairs = {
            "ginibre2": analytic_transforms(EnsembleSpec.from_json(GINIBRE))[1],
            "limacon": analytic_transforms(EnsembleSpec.from_json(LIMACON))[1],
        }

    def points(self, index):
        """The point queries of pass `index`: (pair, z, expected inside).

        Radius and angle are stratified within each class, so every pass
        covers its ranges evenly and runs differ less by the draw.
        """
        rng = random.Random(self.seed * 1_000_003 + index)
        out = []
        for pair in ("ginibre2", "limacon"):
            for inside, count in ((True, self.POINTS_IN), (False, self.POINTS_OUT)):
                order = rng.sample(range(count), count)
                for j in range(count):
                    u = (j + rng.random()) / count
                    v = (order[j] + rng.random()) / count
                    if pair == "ginibre2":
                        r = 0.05 + 0.9 * u if inside else 1.05 + 0.95 * u
                        phi = -math.pi + 2.0 * math.pi * v
                    elif inside:
                        phi = -2.0 + 4.0 * v
                        r = (0.15 + 0.7 * u) * (1.0 + 2.0 * math.cos(phi))
                    else:
                        phi = -math.pi + 2.0 * math.pi * v
                        r = max(0.0, 1.0 + 2.0 * math.cos(phi)) + 0.3 + 1.2 * u
                    out.append((pair, cmath.rect(r, phi), inside))
        rng.shuffle(out)
        return out

    def run_pass(self, tally: Tally, workers: int, index: int) -> PassResult:
        res = PassResult()
        for job in self.jobs:
            code, seconds, raw, out = job.run(workers)
            res.record(job.label, seconds, raw, items=self.GRID_RES[0] * self.GRID_RES[1],
                       request=False)  # the point queries are the requests
            res.job_times[job.label] = seconds
            self._check_job(job, code, out, tally, res)
        for pair, z, inside in self.points(index):
            rmap = self.pairs[pair]
            try:
                (sol, dens, rep), seconds, raw = timed(self._query, rmap, z)
            except Exception as exc:
                tally.op(ok=False, what=f"{pair} point {z}: {exc!r}")
                continue
            res.record("in" if inside else "out", seconds, raw)
            self._check_point(pair, z, inside, sol, dens, rep, tally)
        return res

    @staticmethod
    def _query(rmap, z):
        sol = nonhermitian.solve_product(rmap, rmap, z)
        dens = nonhermitian.density_at(rmap, rmap, z)
        rep = (nonhermitian.residual_identities(sol, rmap, rmap)
               if sol.branch == "nonholomorphic" else None)
        return sol, dens, rep

    def _check_job(self, job, code, out, tally, res):
        data = out.read_bytes() if out.exists() else b""
        res.digests[job.label] = digest(data)
        res.output_bytes += len(data)
        if code != 0 or not data:
            tally.op(ok=False, what=f"cli {job.command} exit {code}")
            return
        summary, rows = _read_csv(out)
        n0, n1 = self.GRID_RES
        z = np.array([complex(_num(r["z_re"]), _num(r["z_im"])) for r in rows]).reshape(n0, n1)
        exact = [scaled_exact(complex(v)) for v in z.ravel()]
        inside = np.array([e[0] for e in exact]).reshape(n0, n1)
        collar = _collar(inside, 2)
        for k, row in enumerate(rows):
            i, j = divmod(k, n1)
            _, g_ref, rho_ref = exact[k]
            what = f"{job.command} node {z[i, j]:.4f}"
            if job.command == "density":
                g = complex(_num(row["g11_re"]), _num(row["g11_im"]))
                rho = _num(row["rho"])
                ratios = [0.0 if g == g else math.inf]  # holes are NaN
                if not collar[i, j]:
                    ratios.append(abs(g - g_ref) / TOL_GRID_G)
                    if 0 < i < n0 - 1 and 0 < j < n1 - 1:  # central stencils only
                        ratios.append(abs(rho - rho_ref) / TOL_GRID_RHO)
                tally.op(ratios, what=what)
            else:
                ok = row["status"] == "ok"
                ratios = [_num(row["residual"]) / TOL_DEFINING] if ok else []
                if ok and not collar[i, j]:
                    g = complex(_num(row["a_re"]), _num(row["a_im"]))
                    ratios.append(abs(g - g_ref) / TOL_GRID_G)
                    ok = (row["branch"] == "nonholomorphic") == inside[i, j]
                tally.op(ratios, ok=ok, what=what)
        if job.command == "density" and summary.get("holes"):
            tally.op(ok=False, what=f"density holes {summary['holes']}")

    @staticmethod
    def _check_point(pair, z, inside, sol, dens, rep, tally):
        exact = ginibre_exact if pair == "ginibre2" else limacon_exact
        _, _, rho_ref = exact(z)
        ok = (sol.branch == "nonholomorphic") == inside
        if inside:
            ratios = [abs(dens.rho - rho_ref) / (rho_ref * TOL_RHO_REL)]
            if rep is not None:
                ratios.append(max(rep.gm_residual, rep.ga_residual,
                                  rep.gb_residual) / TOL_DEFINING)
                if pair == "ginibre2":
                    ok = ok and rep.s_status == "S undefined"
                else:
                    ok = ok and rep.s_status == "converged"
                    ratios.append((rep.factorization_residual or math.inf) / TOL_FACTOR)
        else:
            ratios = [abs(dens.rho) / TOL_RHO_OUT, sol.residual / TOL_DEFINING]
        tally.op(ratios, ok=ok, what=f"{pair} point {z:.4f} inside={inside}")


# ---------------------------------------------------------------------------
# montecarlo: CLI compare and sample, each job with its own seed
# ---------------------------------------------------------------------------


class MonteCarlo:
    """compare and sample on Ginibre^2 and the limacon, n = 100."""

    name = "montecarlo"
    TRIALS = 100
    GRIDS = {  # cell size 0.16 as in criterion 6, wide enough for any cloud
        "ginibre2": {"kind": "cartesian", "ranges": [[-1.6, 1.6], [-1.6, 1.6]],
                     "resolution": [20, 20]},
        "limacon": {"kind": "cartesian", "ranges": [[-1.2, 3.6], [-2.6, 2.6]],
                    "resolution": [30, 30]},
    }

    def __init__(self, seed, workers, out_dir):
        rng = random.Random(seed)
        self.jobs = []
        for command, ext in (("compare", "json"), ("sample", "csv")):
            for pair, spec in (("ginibre2", GINIBRE), ("limacon", LIMACON)):
                config = {"ensemble_a": spec, "ensemble_b": spec,
                          "trials": self.TRIALS, "seed": rng.randrange(2 ** 31)}
                if command == "compare":
                    config["grid"] = self.GRIDS[pair]
                self.jobs.append(CliJob(f"{command}-{pair}", command, config,
                                        out_dir, ext))

    def run_pass(self, tally: Tally, workers: int, index: int) -> PassResult:
        res = PassResult()
        for job in self.jobs:
            code, seconds, raw, out = job.run(workers)
            res.record(job.command, seconds, raw, items=self.TRIALS * N)
            res.job_times[job.label] = seconds
            data = out.read_bytes() if out.exists() else b""
            res.digests[job.label] = digest(data)
            res.output_bytes += len(data)
            if code != 0 or not data:
                tally.op(ok=False, what=f"cli {job.label} exit {code}")
                continue
            if job.command == "compare":
                self._check_compare(job, json.loads(data), tally)
            else:
                self._check_sample(job, out, tally)
        return res

    def _trials(self, skipped, tally, label):
        for t in range(self.TRIALS):
            tally.op(ok=t not in skipped, what=f"{label} trial {t} skipped")

    def _check_compare(self, job, report, tally):
        self._trials(set(report["skipped_trials"]), tally, job.label)
        tally.op([report["l1_distance"] / TOL_L1], what=f"{job.label} L1")

    def _check_sample(self, job, out, tally):
        summary, rows = _read_csv(out)
        self._trials(set(summary["skipped"]), tally, job.label)
        ev = np.array([complex(float(r["re"]), float(r["im"])) for r in rows])
        kept = self.TRIALS - len(summary["skipped"])
        count_ok = ev.size == summary["eigenvalues"] == kept * N
        # criterion 4's rule: per-trial trace moments E tr((AB)^k)/n within
        # 5 standard errors of their limit (0 for Ginibre^2, k = 1..4; 1 for
        # the first moment of the limacon)
        limits = [1.0] if job.label.endswith("limacon") else [0.0] * 4
        per_trial = ev[:kept * N].reshape(kept, N)
        ratios = []
        for k, limit in enumerate(limits, start=1):
            means = np.mean(per_trial ** k, axis=1)
            se = float(np.std(means)) / math.sqrt(means.size)
            ratios.append(abs(complex(np.mean(means)) - limit) / (TOL_MOMENT_SE * se))
        tally.op(ratios, ok=count_ok, what=f"{job.label} trace moments")


WORKLOADS = {w.name: w for w in (Boundary, Field, MonteCarlo)}
