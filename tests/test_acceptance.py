"""Acceptance suite: the eight primary verification criteria, one test each.

Every test prints a single `criterion N: PASS/FAIL -- ...` line (visible with
pytest -s) and enforces its stated tolerances and runtime budget.  The
long-running large-sample slice check at the end is skipped unless
FREECONV_PAPER_SCALE=1 is set (it is the test the CLI 'paper-scale' profile
exists for).
"""

import cmath
import json
import math
import os
import time

import numpy as np
import pytest

from freeconv import cli, hermitian, montecarlo, nonhermitian
from freeconv.core import Complex2x2, rotate_left, rotate_right
from freeconv.ensembles import EnsembleSpec
from freeconv.errors import CenteredTransformError
from freeconv.grids import GridSpec

GIN = nonhermitian.ginibre_rmap(1.0)
GUE = nonhermitian.gue_rmap(1.0)
SHIFTED = nonhermitian.elliptic_rmap(1.0, 0.0, 1.0)
RHO_EDGE = 0.0511569          # limacon density at (3, 0)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} failed -- {detail}"


def _interior_points(rng, count, r_lo=0.05, r_hi=0.95):
    for _ in range(count):
        r = rng.uniform(r_lo, r_hi)
        phi = rng.uniform(-math.pi, math.pi)
        yield r, cmath.rect(r, phi)


def test_criterion_1_ginibre_product_density():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst_in = 0.0
    for r, z in _interior_points(rng, 200):
        rho = nonhermitian.density_at(GIN, GIN, z).rho
        worst_in = max(worst_in, abs(rho - 1.0 / (2.0 * math.pi * r))
                       * 2.0 * math.pi * r)
    worst_out = 0.0
    for _, z in _interior_points(rng, 50, r_lo=1.05, r_hi=2.0):
        worst_out = max(worst_out, abs(nonhermitian.density_at(GIN, GIN, z).rho))
    dt = time.perf_counter() - t0
    ok = worst_in <= 1e-6 and worst_out <= 1e-8 and dt < 5.0
    _report(1, ok, f"rho = 1/(2 pi r): interior rel {worst_in:.1e} (tol 1e-6) "
                   f"at 200 pts, exterior {worst_out:.1e} (tol 1e-8) at 50 pts, "
                   f"{dt:.1f} s (< 5 s)")


def test_criterion_2_limacon_point_values():
    t0 = time.perf_counter()
    six_pi = 6.0 / math.pi
    closed_0 = nonhermitian.limacon_reference(0.0, 0.0).rho
    closed_3 = nonhermitian.limacon_reference(3.0, 0.0).rho
    rel_c0 = abs(closed_0 - six_pi) / six_pi
    rel_c3 = abs(closed_3 - RHO_EDGE) / RHO_EDGE
    # generic route: solver + exact derivative at proxies just off the
    # special points (z = 0 is excluded by the phase split, z = 3 is the
    # boundary)
    r0 = 1e-5
    gen_0 = nonhermitian.density_at(SHIFTED, SHIFTED, complex(r0, 0.0)).rho
    gen_3 = nonhermitian.density_at(SHIFTED, SHIFTED, complex(3.0 - 1e-3, 0.0)).rho
    rel_g0 = abs(gen_0 - six_pi) / six_pi
    rel_g3 = abs(gen_3 - RHO_EDGE) / RHO_EDGE
    dt = time.perf_counter() - t0
    ok = (rel_c0 <= 1e-6 and rel_c3 <= 1e-6
          and rel_g0 <= 1e-3 and rel_g3 <= 1e-3 and dt < 30.0)
    _report(2, ok, f"rho(0,0) = 6/pi and rho(3,0) = {RHO_EDGE}: closed rel "
                   f"{rel_c0:.1e}/{rel_c3:.1e} (tol 1e-6), generic rel "
                   f"{rel_g0:.1e}/{rel_g3:.1e} (tol 1e-3), {dt:.1f} s (< 30 s)")


def test_criterion_3_boundary_curves():
    t0 = time.perf_counter()
    circle = nonhermitian.boundary_curve(GIN, GIN, angular_samples=256)
    worst_circle = max(abs(r - 1.0) for r, _ in circle.points)
    lima = nonhermitian.boundary_curve(SHIFTED, SHIFTED, angular_samples=256)
    window = [(r, phi) for r, phi in lima.points
              if -2.0 * math.pi / 3.0 + 0.05 <= phi <= 2.0 * math.pi / 3.0 - 0.05]
    worst_lima = max(abs(r - (1.0 + 2.0 * math.cos(phi))) for r, phi in window)
    dt = time.perf_counter() - t0
    ok = (len(circle.points) == 256 and worst_circle <= 1e-4
          and len(window) >= 150 and worst_lima <= 1e-3 and dt < 60.0)
    _report(3, ok, f"|z| = 1 within {worst_circle:.1e} (tol 1e-4, 256 rays); "
                   f"r = 1+2cos(phi) within {worst_lima:.1e} (tol 1e-3, "
                   f"{len(window)} rays in window), {dt:.1f} s (< 60 s)")


def test_criterion_4_gue_product_equivalence():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _, z in _interior_points(rng, 100):
        s_gue = nonhermitian.solve_product(GUE, GUE, z)
        s_gin = nonhermitian.solve_product(GIN, GIN, z)
        worst = max(worst, abs(s_gue.gm.a - s_gin.gm.a),
                    abs(s_gue.correlator - s_gin.correlator))

    spec = EnsembleSpec("gue", 256)
    cloud = montecarlo.product_eigenvalues(spec, spec, trials=100, seed=7)
    moments = cloud.eigenvalues.reshape(100, 256)
    worst_ratio = 0.0
    for k in range(1, 5):
        per_trial = np.mean(moments ** k, axis=1)
        se = float(np.std(per_trial)) / math.sqrt(per_trial.size)
        worst_ratio = max(worst_ratio, abs(np.mean(per_trial)) / se)
    ok = worst <= 1e-8 and worst_ratio <= 5.0
    _report(4, ok, f"GUE x GUE vs Ginibre x Ginibre: solver diff {worst:.1e} "
                   f"(tol 1e-8) at 100 pts; trace moments k = 1..4 within "
                   f"{worst_ratio:.1f} SE of 0 (tol 5)")


def test_criterion_5_s_transform_closed_form():
    tr = hermitian.shifted_gaussian_transform(1.0, 1.0)   # R(g) = 1 + g
    ys = np.linspace(0.08, 4.0, 50)
    worst_r = worst_g = worst_sq = 0.0
    for y in ys:
        closed = 2.0 / (1.0 + math.sqrt(1.0 + 4.0 * y))
        worst_r = max(worst_r, abs(hermitian.s_from_r(tr, y) - closed))
        worst_g = max(worst_g, abs(hermitian.s_from_green(tr, y) - closed))
        worst_sq = max(worst_sq,
                       abs(hermitian.multiply_via_s(tr, tr, y) - closed * closed))
    with pytest.raises(CenteredTransformError):
        hermitian.s_from_r(hermitian.gaussian_transform(), 0.5)
    ok = worst_r <= 1e-10 and worst_g <= 1e-8 and worst_sq <= 1e-10
    _report(5, ok, f"S = 2/(1+sqrt(1+4y)) at 50 pts: s_from_r {worst_r:.1e} "
                   f"(tol 1e-10), s_from_green {worst_g:.1e} (tol 1e-8), "
                   f"product = square {worst_sq:.1e}; centered input raises")


def test_criterion_6_monte_carlo_agreement():
    t0 = time.perf_counter()
    spec = EnsembleSpec("ginibre", 100)
    cloud = montecarlo.product_eigenvalues(spec, spec, trials=100, seed=17)
    grid = GridSpec("cartesian", ((-1.2, 1.2), (-1.2, 1.2)), (16, 16))
    empirical = montecarlo.histogram2d(cloud, grid)
    analytic = nonhermitian.density_field(GIN, GIN, grid)
    report = montecarlo.compare_density(empirical, analytic)

    profile = montecarlo.radial_profile(cloud, r_max=1.0)
    widths = np.diff(profile.edges)
    l1_radial = float(np.sum(np.abs(profile.density - 1.0) * widths))
    dt = time.perf_counter() - t0
    ok = report.l1_distance <= 0.08 and l1_radial <= 0.06 and dt < 300.0
    _report(6, ok, f"n=100, 100 trials: 2d histogram L1 {report.l1_distance:.3f} "
                   f"(tol 0.08, {report.included_cells} cells); radial profile "
                   f"uniform on [0,1] L1 {l1_radial:.3f} (tol 0.06), "
                   f"{dt:.0f} s (< 300 s)")


def _mass(field: nonhermitian.DensityField) -> float:
    r_ax, phi_ax = field.grid.axes()
    inner = np.trapezoid(field.rho * r_ax[:, None], r_ax, axis=0)
    return float(np.trapezoid(inner, phi_ax))


def _run_cli_twice(tmp_path, command, config) -> bool:
    blobs = []
    for tag in ("one", "two"):
        cfg = dict(config, output=str(tmp_path / f"{command}-{tag}.out"))
        path = tmp_path / f"{command}-{tag}.json"
        path.write_text(json.dumps(cfg))
        assert cli.main([command, "--config", str(path)]) == 0
        blobs.append((tmp_path / f"{command}-{tag}.out").read_bytes())
    return blobs[0] == blobs[1]


def test_criterion_7_property_suite(tmp_path, monkeypatch):
    monkeypatch.delenv("FREECONV_WORKERS", raising=False)
    # curl of the Green's vector field vanishes on interior nodes
    interior = GridSpec("polar", ((0.3, 0.8), (-math.pi, math.pi)), (9, 17))
    rot = nonhermitian._generic_density(GIN, GIN, interior).rot_residual
    # total mass for the three registered closed forms
    circ = GridSpec("polar", ((1e-3, 0.9995), (-math.pi, math.pi)), (400, 65))
    scaled = GridSpec("polar", ((0.91e-3, 0.91 * 0.9995), (-math.pi, math.pi)),
                      (400, 65))
    lima = GridSpec("polar", ((1e-3, 3.0), (-math.pi, math.pi)), (600, 481))
    masses = (
        _mass(nonhermitian.density_field(GIN, GIN, circ)),
        _mass(nonhermitian.density_field(nonhermitian.elliptic_rmap(1.3),
                                         nonhermitian.elliptic_rmap(0.7), scaled)),
        _mass(nonhermitian.density_field(SHIFTED, SHIFTED, lima)),
    )
    # the two branches match where the correlator crosses zero
    match = max(abs(nonhermitian.branch_indicator(GIN, GIN, 1.0 + s * 1e-5 + 0j))
                for s in (-1.0, 1.0))
    match = max(match,
                *(abs(nonhermitian.branch_indicator(
                    SHIFTED, SHIFTED,
                    cmath.rect(1.0 + 2.0 * math.cos(phi) + s * 1e-5, phi)))
                  for phi in (0.0, 0.5, 1.5) for s in (-1.0, 1.0)))
    # one-sided rotations invert each other entrywise
    m = Complex2x2(0.3 + 0.4j, -1.1 + 0.2j, 0.7 - 0.9j, -0.2 - 0.5j)
    rot_inv = max((rotate_right(rotate_left(m, psi), psi) - m).norm_max()
                  for psi in (0.0, 0.7, -2.1))
    # R and S are mutual inverses: S(y) R(y S(y)) = 1
    mutual = 0.0
    for tr in (hermitian.shifted_gaussian_transform(1.0, 1.0),
               hermitian.shifted_gaussian_transform(2.0, 1.5)):
        for y in (0.1, 0.5, 1.0, 2.0, 3.5):
            s = hermitian.s_from_r(tr, y)
            mutual = max(mutual, abs(s * tr.r_eval(y * s) - 1.0))
    # byte-identical reruns for every CLI command
    gin_spec = {"kind": "ginibre", "n": 16}
    shifted_spec = {"kind": "elliptic", "n": 16, "tau": 1.0, "shift": 1.0}
    deterministic = all((
        _run_cli_twice(tmp_path, "transform", {
            "ensemble_a": shifted_spec, "variable": "y",
            "start": 0.2, "stop": 2.0, "count": 5}),
        _run_cli_twice(tmp_path, "solve-product", {
            "ensemble_a": gin_spec, "ensemble_b": gin_spec,
            "grid": {"kind": "polar", "ranges": [[0.3, 0.7], [-0.3, 0.3]],
                     "resolution": [3, 3]}}),
        _run_cli_twice(tmp_path, "boundary", {
            "ensemble_a": gin_spec, "ensemble_b": gin_spec,
            "angular_samples": 8}),
        _run_cli_twice(tmp_path, "density", {
            "ensemble_a": gin_spec, "ensemble_b": gin_spec,
            "grid": {"kind": "polar", "ranges": [[0.2, 0.8], [-3.0, 3.0]],
                     "resolution": [4, 5]}}),
        _run_cli_twice(tmp_path, "density", {
            "ensemble_a": {"kind": "ginibre", "n": 16, "sigma": 2.0, "shift": 2.0},
            "ensemble_b": {"kind": "ginibre", "n": 16, "sigma": 2.0, "shift": 2.0},
            "grid": {"kind": "cartesian", "ranges": [[-3.0, 9.0], [-5.0, 5.0]],
                     "resolution": [6, 5]}}),
        _run_cli_twice(tmp_path, "sample", {
            "ensemble_a": {"kind": "ginibre", "n": 8},
            "ensemble_b": {"kind": "ginibre", "n": 8}, "trials": 2}),
        _run_cli_twice(tmp_path, "compare", {
            "ensemble_a": {"kind": "ginibre", "n": 24},
            "ensemble_b": {"kind": "ginibre", "n": 24},
            "trials": 30, "seed": 5,
            "grid": {"kind": "cartesian", "ranges": [[-1.6, 1.6], [-1.6, 1.6]],
                     "resolution": [18, 18]}}),
    ))
    ok = (rot <= 1e-4 and all(0.98 <= m_ <= 1.02 for m_ in masses)
          and match <= 1e-4 and rot_inv <= 1e-15 and mutual <= 1e-10
          and deterministic)
    _report(7, ok, f"rot residual {rot:.1e} (tol 1e-4); masses "
                   f"{masses[0]:.3f}/{masses[1]:.3f}/{masses[2]:.3f} "
                   f"(in [0.98, 1.02]); branch match {match:.1e} (tol 1e-4); "
                   f"rotation inverse {rot_inv:.1e} (tol 1e-15); R-S mutual "
                   f"inverse {mutual:.1e} (tol 1e-10); 6 CLI commands "
                   f"byte-identical: {deterministic}")


def test_criterion_8_s_factorization_residuals():
    rng = np.random.default_rng(8)
    worst_fact = worst_defining = 0.0
    all_converged = True
    for _ in range(50):
        phi = rng.uniform(-2.0, 2.0)
        t = rng.uniform(0.15, 0.85)
        z = cmath.rect(t * (1.0 + 2.0 * math.cos(phi)), phi)
        sol = nonhermitian.solve_product(SHIFTED, SHIFTED, z)
        rep = nonhermitian.residual_identities(sol, SHIFTED, SHIFTED)
        all_converged = all_converged and rep.s_status == "converged"
        if rep.factorization_residual is not None:
            worst_fact = max(worst_fact, rep.factorization_residual)
        worst_defining = max(worst_defining, rep.gm_residual,
                             rep.ga_residual, rep.gb_residual)
    centered_ok = True
    worst_centered = 0.0
    for z in (0.3 + 0.2j, -0.4 + 0.5j, 0.1 - 0.6j):
        sol = nonhermitian.solve_product(GIN, GIN, z)
        rep = nonhermitian.residual_identities(sol, GIN, GIN)
        centered_ok = (centered_ok and rep.s_status == "S undefined"
                       and rep.factorization_residual is None)
        worst_centered = max(worst_centered, rep.gm_residual,
                             rep.ga_residual, rep.gb_residual)
    ok = (all_converged and worst_fact <= 1e-8 and centered_ok
          and max(worst_defining, worst_centered) <= 1e-9)
    _report(8, ok, f"one-sided S factorization at 50 interior pts: residual "
                   f"{worst_fact:.1e} (tol 1e-8, all converged: {all_converged}); "
                   f"centered reports 'S undefined' with defining residuals "
                   f"{worst_centered:.1e} (tol 1e-9)")


@pytest.mark.skipif(os.environ.get("FREECONV_PAPER_SCALE") != "1",
                    reason="long-running; set FREECONV_PAPER_SCALE=1 to enable")
def test_paper_scale_real_axis_slice():
    spec = EnsembleSpec("ginibre", 100)
    cloud = montecarlo.product_eigenvalues(spec, spec, trials=20000, seed=23,
                                           workers=4)
    sl = montecarlo.real_axis_slice(cloud, eps=1e-2, bins=40,
                                    interval=(-1.0, 1.0))
    centers = 0.5 * (sl.edges[:-1] + sl.edges[1:])
    widths = np.diff(sl.edges)
    mask = (np.abs(centers) >= 0.1) & (np.abs(centers) <= 0.9)
    emp = sl.density[mask] / np.sum(sl.density[mask] * widths[mask])
    # the slice shape is 1/|x|; use exact bin integrals, then renormalize the
    # same way so the comparison is core- and edge-independent
    ana_mass = np.array([abs(math.log(hi / lo)) for lo, hi
                         in zip(np.abs(sl.edges[:-1][mask]),
                                np.abs(sl.edges[1:][mask]))])
    ana = (ana_mass / np.sum(ana_mass)) / widths[mask]
    l1 = float(np.sum(np.abs(emp - ana) * widths[mask]))
    print(f"paper-scale slice: count={sl.count}, L1={l1:.4f} (tol 0.05)")
    assert sl.count > 10000
    assert l1 <= 0.05
