"""Command-line front end: reproducible, file-based runs of the full pipeline.

Every command reads one JSON config (plus one-to-one flag overrides), validates
it completely before computing anything, and writes a single output file whose
bytes depend only on the job parameters -- never on wall time, worker count, or
host.  CSV outputs start with a "# provenance: <json>" line followed by a
"# summary: <json>" line; JSON outputs carry the same data under fixed keys
with a schema version.

Exit codes: 0 success, 1 validation error or unwritable output, 2 partial
numerical failure (including Monte Carlo skip-rate errors), 3 total failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import hermitian, montecarlo, nonhermitian
from .core import embed_parts
from .ensembles import EnsembleSpec, analytic_transforms
from .errors import (
    FreeconvError,
    GridError,
    SampleFailureError,
    SpecValidationError,
)
from .grids import GridSpec

SCHEMA_VERSION = 1

_COMMANDS = ("transform", "solve-product", "boundary", "density", "sample", "compare")

# keys that do not affect the numbers and therefore stay out of provenance
_VOLATILE_KEYS = ("output", "workers")

_PROFILE_TRIALS = {"quick": 100, "paper-scale": 20000}
_DEFAULT_EPSILON = {"transform": 1e-6, "compare": 1e-2}
# a boundary scan round holds rays x 25 values; 16x acceptance criterion 3's 256 rays
_MAX_RAYS = 4096
# solve-product and density on the generic route peak at about 5 KB a node
# (219 MB at 40,000 nodes of a tau = 0.5 pair), so a grid stays below 0.5 GB;
# transform's matrix section solves one node per value, so count shares it
_MAX_NODES = 100_000
# compare's radial and slice profiles: far more bins than any sample fills
_MAX_BINS = 10_000


@dataclass
class JobConfig:
    """One fully validated CLI job; every field is ready to use as-is."""

    command: str
    ensemble_a: Optional[EnsembleSpec] = None
    ensemble_b: Optional[EnsembleSpec] = None
    grid: Optional[GridSpec] = None
    seed: int = 0
    trials: Optional[int] = None
    output: str = ""
    format: str = "csv"
    profile: str = "quick"
    workers: int = 1
    variable: str = "z"
    start: float = -4.0
    stop: float = 4.0
    count: int = 100
    angular_samples: int = 64
    r_max: Optional[float] = None
    bins: int = 16
    epsilon: float = 1e-6


# ---------------------------------------------------------------------------
# config assembly and validation
# ---------------------------------------------------------------------------


def _integer(raw, key, problems, minimum, maximum=None):
    if isinstance(raw, bool) or not isinstance(raw, int):
        problems.append(f"{key} must be an integer, got {raw!r}")
        return None
    if raw < minimum:
        problems.append(f"{key} must be >= {minimum}, got {raw}")
        return None
    if maximum is not None and raw > maximum:
        problems.append(f"{key} must be <= {maximum}, got {raw}")
        return None
    return raw


def _real(raw, key, problems, positive=False):
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        problems.append(f"{key} must be a number, got {raw!r}")
        return None
    try:
        value = float(raw)
    except OverflowError:  # an integer past the float range
        value = math.inf
    if not math.isfinite(value):
        problems.append(f"{key} must be finite, got {value}")
        return None
    if positive and value <= 0:
        problems.append(f"{key} must be positive, got {value}")
        return None
    return value


def _choice(raw, key, problems, choices):
    if raw in choices:
        return raw
    problems.append(f"{key} must be {' or '.join(map(repr, choices))}, got {raw!r}")
    return None


def _path(raw, key, problems):
    if isinstance(raw, str) and raw:
        return raw
    problems.append(f"{key} must be a non-empty path, got {raw!r}")
    return None


def _from_json(build):
    """Parser for an object given inline (config) or as JSON text (flag)."""
    def parse(raw, key, problems):
        if isinstance(raw, str):
            try:
                raw = json.loads(raw)
            except ValueError as exc:
                problems.append(f"{key} is not valid JSON: {exc}")
                return None
        return build(raw, key, problems)
    return parse


@_from_json
def _ensemble(raw, key, problems):
    try:
        return EnsembleSpec.from_json(raw)
    except SpecValidationError as exc:
        problems.extend(f"{key}: {v}" for v in exc.violations)
        return None


@_from_json
def _grid(raw, key, problems):
    if not isinstance(raw, dict):
        problems.append(f"{key} must be an object with kind/ranges/resolution")
        return None
    try:
        grid = GridSpec.from_dict(raw)
    except GridError as exc:
        problems.append(f"{key}: {exc}")
        return None
    n0, n1 = grid.resolution
    if n0 * n1 <= _MAX_NODES:
        return grid
    problems.append(f"{key}: {n0} x {n1} nodes exceed the limit of {_MAX_NODES}")
    return None


class _Option(NamedTuple):
    parse: Callable    # (raw, key, problems) -> value, or None after adding a problem
    flag_type: type    # argparse type of the key's flag
    help: str
    commands: tuple    # the commands that accept the key


# every config key, declared once; a command's flags mirror its keys one to one
_OPTIONS = {
    "ensemble_a": _Option(_ensemble, str, "ensemble A as JSON, e.g. "
                          '\'{"kind":"ginibre","n":100}\'', _COMMANDS),
    "ensemble_b": _Option(_ensemble, str, "ensemble B as JSON",
                          ("solve-product", "boundary", "density", "sample", "compare")),
    "grid": _Option(_grid, str, 'grid as JSON: {"kind","ranges","resolution"}',
                    ("solve-product", "density", "compare")),
    "output": _Option(_path, str, "output file path", _COMMANDS),
    "format": _Option(partial(_choice, choices=("csv", "json")), str,
                      "'csv' or 'json' (compare is always json)", _COMMANDS),
    "profile": _Option(partial(_choice, choices=tuple(_PROFILE_TRIALS)), str,
                       "'quick' or 'paper-scale'; sets the default trial count", _COMMANDS),
    "seed": _Option(partial(_integer, minimum=0), int, "master RNG seed", _COMMANDS),
    "workers": _Option(partial(_integer, minimum=1), int,
                       "Monte Carlo threads for sample and compare (default: "
                       "FREECONV_WORKERS or 1); never affects output bytes", _COMMANDS),
    "trials": _Option(partial(_integer, minimum=1), int,
                      "Monte Carlo trials (default from profile)", ("sample", "compare")),
    "variable": _Option(partial(_choice, choices=("z", "y")), str,
                        "tabulate against spectral 'z' or moment variable 'y'", ("transform",)),
    "start": _Option(_real, float, "first value", ("transform",)),
    "stop": _Option(_real, float, "last value", ("transform",)),
    "count": _Option(partial(_integer, minimum=2, maximum=_MAX_NODES), int,
                     f"number of values (2 to {_MAX_NODES})", ("transform",)),
    "epsilon": _Option(partial(_real, positive=True), float,
                       "transform: offset above the real axis; "
                       "compare: half-width of the real-axis slice", ("transform", "compare")),
    "angular_samples": _Option(partial(_integer, minimum=8, maximum=_MAX_RAYS), int,
                               f"number of rays (8 to {_MAX_RAYS})", ("boundary",)),
    "r_max": _Option(partial(_real, positive=True), float,
                     "outer radius for the boundary search", ("boundary",)),
    "bins": _Option(partial(_integer, minimum=4, maximum=_MAX_BINS), int,
                    f"bins for radial/slice profiles (4 to {_MAX_BINS})", ("compare",)),
}

# config keys accepted per command, in _OPTIONS order
_KEYS = {command: tuple(key for key, option in _OPTIONS.items() if command in option.commands)
         for command in _COMMANDS}

# keys that every command accepting them requires
_REQUIRED = ("ensemble_a", "ensemble_b", "grid", "output")


def build_job(command: str, merged: dict) -> JobConfig:
    """Validate a merged config mapping into a JobConfig.

    Each key is parsed by its _OPTIONS entry; only the rules that involve
    more than one key, the command, or the environment are written here.

    Args:
        command: one of the subcommand names.
        merged: config-file values with flag overrides already applied.

    Returns:
        A JobConfig with every field resolved to its final value.

    Raises:
        SpecValidationError: listing every violation found, not just the first.
    """
    problems = []
    keys = _KEYS[command]
    for key in sorted(set(merged) - set(keys) - {"command"}):
        problems.append(f"key {key!r} is not used by command {command!r}")
    if merged.get("command") not in (None, command):
        problems.append(
            f"config names command {merged['command']!r} but {command!r} was invoked")
    for key in _REQUIRED:
        if key in keys and key not in merged:
            problems.append(f"{key} is required for command {command!r}")

    cfg = JobConfig(command=command, epsilon=_DEFAULT_EPSILON.get(command, 1e-6))
    for key in keys:
        if key in merged:
            value = _OPTIONS[key].parse(merged[key], key, problems)
            if value is not None:
                setattr(cfg, key, value)

    env = os.environ.get("FREECONV_WORKERS")
    if "workers" not in merged and env is not None:
        try:
            env = int(env)
        except ValueError:
            pass                # the parser reports it as not an integer
        value = _OPTIONS["workers"].parse(env, "FREECONV_WORKERS", problems)
        if value is not None:
            cfg.workers = value

    if "trials" in keys and "trials" not in merged:
        cfg.trials = _PROFILE_TRIALS[cfg.profile]

    if cfg.grid is not None:
        if command == "compare" and cfg.grid.kind != "cartesian":
            problems.append("compare needs a cartesian grid (2d histogram cells)")
        if command in ("density", "compare") and cfg.grid.contains_origin():
            problems.append("grid contains z = 0; offset the ranges to avoid the origin")
    if (command in ("sample", "compare") and cfg.ensemble_a is not None
            and cfg.ensemble_b is not None and cfg.ensemble_a.n != cfg.ensemble_b.n):
        problems.append(f"ensemble_a and ensemble_b must have the same n, got "
                        f"{cfg.ensemble_a.n} and {cfg.ensemble_b.n}")
    if command == "compare":
        if merged.get("format", "json") != "json":
            problems.append("comparison reports are JSON only; drop format or set 'json'")
        cfg.format = "json"

    if command == "transform":
        if not cfg.stop > cfg.start:
            problems.append(f"need stop > start, got [{cfg.start}, {cfg.stop}]")
        if cfg.variable == "y":
            if cfg.start <= 0:
                problems.append("variable 'y' needs start > 0 (S is sampled on y > 0)")
            spec = cfg.ensemble_a
            if spec is not None and not (spec.tau == 1.0 and spec.shift.imag == 0.0
                                         and spec.shift.real != 0.0):
                problems.append("variable 'y' needs a non-centered hermitian ensemble "
                                "(tau = 1, real nonzero shift)")
        elif (cfg.ensemble_a is not None and analytic_transforms(cfg.ensemble_a)[0] is None
              and 0.0 in np.linspace(cfg.start, cfg.stop, cfg.count)):
            problems.append("the z values contain z = 0, where the non-hermitian "
                            "section is undefined; change start, stop or count")

    if problems:
        raise SpecValidationError(problems)
    return cfg


def _provenance(cfg: JobConfig) -> dict:
    prov = {"command": cfg.command}
    for key in _KEYS[cfg.command]:
        if key in _VOLATILE_KEYS:
            continue
        value = getattr(cfg, key)
        if isinstance(value, EnsembleSpec):
            value = value.to_json()
        elif isinstance(value, GridSpec):
            value = value.to_dict()
        prov[key] = value
    return prov


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    x = float(value)
    return format(x, ".17g") if math.isfinite(x) else ""


def _json_cell(value):
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    x = float(value)
    return x if math.isfinite(x) else None


def _write_table(cfg: JobConfig, summary: dict, header: list, rows: list) -> None:
    prov = _provenance(cfg)
    if cfg.format == "csv":
        buf = io.StringIO()
        buf.write("# provenance: " + _canon(prov) + "\r\n")
        buf.write("# summary: " + _canon(summary) + "\r\n")
        writer = csv.writer(buf)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(c) for c in row])
        _write_output(cfg.output, buf.getvalue())
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "provenance": prov,
            "summary": summary,
            "columns": header,
            "rows": [[_json_cell(c) for c in row] for row in rows],
        }
        _write_json(cfg.output, payload)


def _write_json(path, payload: dict) -> None:
    _write_output(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_output(path, text: str) -> None:
    """Replace the file at path, after following symlinks, with text.

    An existing regular file is unlinked and the new one created
    exclusively: truncating a written file in place can block until its old
    data reaches the disk (ext4 auto_da_alloc), and so can renaming over it.
    Anything else that exists at path (a device such as /dev/null, a FIFO)
    is written through as it is.  Missing parent directories are created,
    and any OSError is reported as a validation error.
    """
    try:
        if os.path.exists(path) and not os.path.isfile(path):
            target, mode = path, "w"    # a directory fails here, in open
        else:
            target, mode = os.path.realpath(path), "x"
            os.makedirs(os.path.dirname(target), exist_ok=True)
            if os.path.lexists(target):
                os.unlink(target)
        with open(target, mode, newline="", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise SpecValidationError([f"cannot write output: {exc}"])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_transform(cfg: JobConfig) -> int:
    """Tabulate (z, G, R, S) or (y, S, z, G, R) for one hermitian ensemble,
    or (z, G, R) for a non-hermitian one."""
    scalar, matrix = analytic_transforms(cfg.ensemble_a)
    values = np.linspace(cfg.start, cfg.stop, cfg.count)
    rows = []

    if cfg.variable == "y":
        header = ["y", "s_re", "s_im", "z_re", "z_im", "g_re", "g_im", "r_re", "r_im"]
        for y in values:
            y = float(y)
            try:
                s = hermitian.s_from_r(scalar, y)
            except FreeconvError as exc:
                raise FreeconvError(f"transform failed at y = {y}: {exc}") from exc
            z = (1.0 + y) / (y * s)
            g = (1.0 + y) / z
            r = complex(scalar.r_eval(g))
            rows.append([y, s.real, s.imag, z.real, z.imag,
                         g.real, g.imag, r.real, r.imag])
        summary = {"points": len(rows), "variable": "y"}
    elif scalar is not None:
        # hermitian: retarded boundary values G(x + i*epsilon) along the real axis
        header = ["z", "g_re", "g_im", "density", "r_re", "r_im", "y_re", "y_im", "s"]
        for x in values:
            x = float(x)
            z = complex(x, cfg.epsilon)
            try:
                g = hermitian.green_from_r(scalar, z).g
                rho = hermitian.density_real(scalar, x, cfg.epsilon)
            except FreeconvError as exc:
                raise FreeconvError(f"transform failed at z = {x}: {exc}") from exc
            r = complex(scalar.r_eval(g))
            y = z * g - 1.0
            s_cell = "undefined"
            if (scalar.kappa1 != 0 and y.real > 1e-9
                    and abs(y.imag) < 50.0 * cfg.epsilon * (1.0 + abs(y))):
                s_cell = hermitian.s_from_r(scalar, y.real).real
            rows.append([x, g.real, g.imag, rho, r.real, r.imag,
                         y.real, y.imag, s_cell])
        summary = {"points": len(rows), "variable": "z", "section": "scalar"}
    else:
        # non-hermitian: quaternionic solution and matrix self-energy per point
        header = ["z_re", "z_im", "a_re", "a_im", "b_abs", "correlator", "branch",
                  "r11_re", "r11_im", "r12_re", "r12_im",
                  "r21_re", "r21_im", "r22_re", "r22_im"]
        # one batched solve of each z as the product with the identity, read
        # as solve_single reads it: G = G_M with b replaced by |b|
        solved = nonhermitian._solve_nodes(matrix, nonhermitian._IDENTITY_FACTOR,
                                           values.astype(complex))
        for k in np.flatnonzero(solved.status != nonhermitian._OK)[:1]:  # the first failure
            try:
                solved.solution(k)
            except FreeconvError as exc:
                raise FreeconvError(
                    f"transform failed at z = {complex(values[k])}: {exc}") from exc
        for x, (a, b) in zip(values.tolist(), solved.gm.T.tolist()):
            b = abs(b)
            sig = embed_parts(*matrix.apply_q(a, b))
            rows.append([x, 0.0, a.real, a.imag, b, b ** 2, nonhermitian._branch(b ** 2),
                         sig.q11.real, sig.q11.imag, sig.q12.real, sig.q12.imag,
                         sig.q21.real, sig.q21.imag, sig.q22.real, sig.q22.imag])
        summary = {"points": len(rows), "variable": "z", "section": "matrix"}

    _write_table(cfg, summary, header, rows)
    return 0


def cmd_solve_product(cfg: JobConfig) -> int:
    """Per-point product Green's functions (a, b, C, branch, residual) on a grid."""
    _, rmap_a = analytic_transforms(cfg.ensemble_a)
    _, rmap_b = analytic_transforms(cfg.ensemble_b)
    points = cfg.grid.points()
    solved = nonhermitian._solve_nodes(rmap_a, rmap_b, points)
    n0, n1 = points.shape
    failures = solved.failed
    rot, rot_residual = nonhermitian._curl(nonhermitian._dbar_g11(rmap_a, rmap_b, solved))

    axis_names = ("x", "y") if cfg.grid.kind == "cartesian" else ("r", "phi")
    header = [axis_names[0], axis_names[1], "z_re", "z_im", "a_re", "a_im",
              "b_abs", "correlator", "branch", "residual", "iterations", "rot", "status"]
    axis0, axis1 = cfg.grid.axes()
    rows = []
    nodes = zip(solved.z.tolist(), solved.status.tolist(), solved.gm.T.tolist(),
                solved.x.T.tolist(), solved.residual.tolist(), solved.iterations.tolist(),
                rot.ravel().tolist())
    for k, (z, status, (a, b), (_, b_a, _, b_b), residual, iterations, r) in enumerate(nodes):
        cells = [None, None, None, None, "", None, None, None, "failed"]
        if status == nonhermitian._OK:
            corr = abs(b_a) * abs(b_b)  # Python's abs: numpy's differs in the last bit
            cells = [a.real, a.imag, abs(b), corr, nonhermitian._branch(corr), residual,
                     iterations, r, "ok"]
        rows.append([float(axis0[k // n1]), float(axis1[k % n1]), z.real, z.imag] + cells)

    summary = {"points": n0 * n1, "failed": failures,
               "capped": solved.capped, "collapsed": solved.collapsed,
               "retried": solved.retried,
               "rot_residual": _json_cell(rot_residual)}
    _write_table(cfg, summary, header, rows)
    if failures == n0 * n1:
        print(f"error: all {failures} grid points failed to solve", file=sys.stderr)
        return 3
    if failures > 0.05 * n0 * n1:
        print(f"warning: {failures} of {n0 * n1} grid points failed", file=sys.stderr)
        return 2
    return 0


def cmd_boundary(cfg: JobConfig) -> int:
    """Support boundary polyline r(phi), with the analytic curve when known."""
    _, rmap_a = analytic_transforms(cfg.ensemble_a)
    _, rmap_b = analytic_transforms(cfg.ensemble_b)
    result = nonhermitian.boundary_curve(rmap_a, rmap_b,
                                         angular_samples=cfg.angular_samples,
                                         r_max=cfg.r_max)
    law = nonhermitian.closed_form(rmap_a, rmap_b)
    entries = [(phi, r, "ok") for r, phi in result.points]
    entries += [(phi, None, "empty") for phi in result.empty_rays]
    entries.sort(key=lambda e: e[0])
    header = ["phi", "r", "r_reference", "status"]
    rows = [[phi, r, law.edge(phi) if law else None, status]
            for phi, r, status in entries]
    summary = {"rays": len(entries), "located": len(result.points),
               "empty": len(result.empty_rays),
               "failed_solves": result.failed_solves,
               "scanned_rays": result.scanned_rays}
    _write_table(cfg, summary, header, rows)
    if not result.points:
        print("error: no support boundary found on any ray", file=sys.stderr)
        return 3
    return 0


def cmd_density(cfg: JobConfig) -> int:
    """Eigenvalue density field of A B on a grid (analytic route)."""
    _, rmap_a = analytic_transforms(cfg.ensemble_a)
    _, rmap_b = analytic_transforms(cfg.ensemble_b)
    try:
        fld = nonhermitian.density_field(rmap_a, rmap_b, cfg.grid)
    except GridError as exc:
        # the grid itself validated, so this is the >5% unsolved-nodes abort
        print(f"error: {exc}", file=sys.stderr)
        return 2

    axis0, axis1 = cfg.grid.axes()
    hx, hy = cfg.grid.steps()
    points = cfg.grid.points()
    if cfg.grid.kind == "cartesian":
        weights = np.full(points.shape, hx * hy)
    else:
        weights = axis0[:, None] * hx * hy * np.ones_like(points.real)
    mass = float(np.sum(fld.rho * weights))

    axis_names = ("x", "y") if cfg.grid.kind == "cartesian" else ("r", "phi")
    header = [axis_names[0], axis_names[1], "z_re", "z_im",
              "rho", "g11_re", "g11_im", "rot"]
    rows = []
    for i in range(points.shape[0]):
        for j in range(points.shape[1]):
            z = complex(points[i, j])
            g = complex(fld.g11[i, j])
            rows.append([float(axis0[i]), float(axis1[j]), z.real, z.imag,
                         float(fld.rho[i, j]), g.real, g.imag, float(fld.rot[i, j])])
    summary = {"route": fld.route, "rot_residual": _json_cell(fld.rot_residual),
               "holes": fld.holes, "retried": fld.retried, "mass": mass}
    _write_table(cfg, summary, header, rows)
    return 0


def cmd_sample(cfg: JobConfig) -> int:
    """Pooled product eigenvalues over independent trials, one row per value."""
    cloud = montecarlo.product_eigenvalues(cfg.ensemble_a, cfg.ensemble_b,
                                           cfg.trials, cfg.seed,
                                           workers=cfg.workers)
    skipped = set(cloud.skipped)
    kept = [t for t in range(cfg.trials) if t not in skipped]
    n = cloud.n
    header = ["trial", "re", "im"]
    rows = []
    for block, trial in enumerate(kept):
        for ev in cloud.eigenvalues[block * n:(block + 1) * n]:
            rows.append([trial, ev.real, ev.imag])
    summary = {"trials": cfg.trials, "n": n,
               "skipped": [int(t) for t in cloud.skipped],
               "eigenvalues": int(cloud.eigenvalues.size)}
    _write_table(cfg, summary, header, rows)
    return 0


def _point_density(rmap_a, rmap_b, z: complex) -> Optional[float]:
    """Analytic density at one point, via the closed form when registered."""
    if abs(z) < 1e-9:
        return None
    law = nonhermitian.closed_form(rmap_a, rmap_b)
    if law is not None:
        return law.point(z)[1]
    return nonhermitian.density_at(rmap_a, rmap_b, z).rho


def cmd_compare(cfg: JobConfig) -> int:
    """Compare the analytic field with a sampled histogram in one run."""
    _, rmap_a = analytic_transforms(cfg.ensemble_a)
    _, rmap_b = analytic_transforms(cfg.ensemble_b)
    try:
        analytic = nonhermitian.density_field(rmap_a, rmap_b, cfg.grid)
    except GridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # no cell left at the largest possible total means none after sampling
    montecarlo.comparison_cells(analytic, cfg.trials * cfg.ensemble_a.n)
    cloud = montecarlo.product_eigenvalues(cfg.ensemble_a, cfg.ensemble_b,
                                           cfg.trials, cfg.seed,
                                           workers=cfg.workers)
    empirical = montecarlo.histogram2d(cloud, cfg.grid)
    report = montecarlo.compare_density(empirical, analytic)
    radial = montecarlo.radial_profile(cloud, bins=cfg.bins)

    payload = {
        "schema_version": SCHEMA_VERSION,
        "provenance": _provenance(cfg),
        "l1_distance": report.l1_distance,
        "max_deviation": report.max_deviation,
        "included_cells": report.included_cells,
        "excluded": report.excluded,
        "sample_counts": report.sample_counts,
        "analytic_route": analytic.route,
        "rot_residual": _json_cell(analytic.rot_residual),
        "skipped_trials": [int(t) for t in cloud.skipped],
        "radial": {
            "edges": [float(e) for e in radial.edges],
            "density": [float(d) for d in radial.density],
            "count": radial.count,
        },
    }

    if cfg.profile == "paper-scale":
        sl = montecarlo.real_axis_slice(cloud, eps=cfg.epsilon, bins=cfg.bins)
        section = {"eps": sl.eps, "count": sl.count, "empty": sl.empty,
                   "normalization": sl.normalization}
        if not sl.empty:
            centers = 0.5 * (sl.edges[:-1] + sl.edges[1:])
            width = float(sl.edges[1] - sl.edges[0])
            raw = [_point_density(rmap_a, rmap_b, complex(c)) for c in centers]
            norm = sum(v for v in raw if v is not None) * width
            section["edges"] = [float(e) for e in sl.edges]
            section["density"] = [float(d) for d in sl.density]
            section["analytic_rho"] = [_json_cell(v) for v in raw]
            section["analytic_density"] = [
                _json_cell(v / norm if v is not None else None) for v in raw]
        payload["slice"] = section

    _write_json(cfg.output, payload)
    return 0


_DISPATCH = {
    "transform": cmd_transform,
    "solve-product": cmd_solve_product,
    "boundary": cmd_boundary,
    "density": cmd_density,
    "sample": cmd_sample,
    "compare": cmd_compare,
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems as validation errors."""

    def error(self, message):
        raise SpecValidationError([message])


def _add_flags(sub: argparse.ArgumentParser, command: str) -> None:
    sub.add_argument("--config", type=str, default=None,
                     help="JSON config file; flags below override its keys")
    for key in _KEYS[command]:
        option = _OPTIONS[key]
        sub.add_argument("--" + key.replace("_", "-"), type=option.flag_type,
                         default=None, help=option.help)


@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it as it
    was, and its six subparsers and 61 flags take about 1.8 ms to build,
    some 12% of a 90-node density grid job."""
    parser = _Parser(prog="freeconv",
                     description="Spectral calculus for sums and products of "
                                 "free random matrices, with Monte Carlo checks.")
    subs = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        sub = subs.add_parser(command, help=_DISPATCH[command].__doc__,
                              description=_DISPATCH[command].__doc__)
        _add_flags(sub, command)
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    merged = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                loaded = json.load(handle)
        except OSError as exc:
            raise SpecValidationError([f"cannot read config file: {exc}"])
        except ValueError as exc:
            raise SpecValidationError([f"config file is not valid JSON: {exc}"])
        if not isinstance(loaded, dict):
            raise SpecValidationError(["config file must hold a JSON object"])
        merged.update(loaded)
    for key in _KEYS[args.command]:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = build_job(args.command, _merge_config(args))
        return _DISPATCH[cfg.command](cfg)
    except SpecValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SampleFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FreeconvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
