"""End-to-end tests of the command-line interface (in-process, no subprocess)."""

import argparse
import json
import math
import os
import stat

import numpy as np
import pytest

from freeconv import cli, nonhermitian
from freeconv.errors import SpecValidationError
from freeconv.grids import GridSpec

GIN = {"kind": "ginibre", "n": 24}
GUE = {"kind": "gue", "n": 24}
SHIFTED_GUE = {"kind": "elliptic", "n": 24, "tau": 1.0, "shift": 1.0}
ELLIPTIC = {"kind": "elliptic", "n": 24, "tau": 0.3, "shift": [0.5, 0.2]}
# even node counts keep z = 0 off the grid; wide enough for finite-n outliers
COMPARE_GRID = {"kind": "cartesian", "ranges": [[-1.6, 1.6], [-1.6, 1.6]],
                "resolution": [18, 18]}


@pytest.fixture(autouse=True)
def _no_worker_env(monkeypatch):
    monkeypatch.delenv("FREECONV_WORKERS", raising=False)


def run_cli(tmp_path, command, config, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return cli.main([command, "--config", str(path)])


def read_csv(path):
    raw = path.read_bytes().decode("utf-8")
    lines = raw.split("\r\n")
    assert lines[0].startswith("# provenance: ")
    assert lines[1].startswith("# summary: ")
    provenance = json.loads(lines[0][len("# provenance: "):])
    summary = json.loads(lines[1][len("# summary: "):])
    header = lines[2].split(",")
    rows = [line.split(",") for line in lines[3:] if line]
    return provenance, summary, header, rows


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------


def test_transform_s_values(tmp_path):
    out = tmp_path / "s.csv"
    rc = run_cli(tmp_path, "transform", {
        "ensemble_a": SHIFTED_GUE, "variable": "y",
        "start": 0.25, "stop": 1.0, "count": 2, "output": str(out)})
    assert rc == 0
    _, summary, header, rows = read_csv(out)
    assert summary == {"points": 2, "variable": "y"}
    assert header[:3] == ["y", "s_re", "s_im"]
    s_of = {float(r[0]): float(r[1]) for r in rows}
    assert s_of[0.25] == pytest.approx(2.0 / (1.0 + math.sqrt(2.0)), abs=1e-12)
    assert s_of[1.0] == pytest.approx(2.0 / (1.0 + math.sqrt(5.0)), abs=1e-12)


def test_transform_hermitian_section(tmp_path):
    out = tmp_path / "g.csv"
    rc = run_cli(tmp_path, "transform", {
        "ensemble_a": GUE, "start": -0.5, "stop": 0.5, "count": 3,
        "output": str(out)})
    assert rc == 0
    _, summary, header, rows = read_csv(out)
    assert summary["section"] == "scalar"
    row0 = dict(zip(header, rows[1]))          # the x = 0 row
    assert float(row0["z"]) == 0.0
    assert float(row0["density"]) == pytest.approx(1.0 / math.pi, abs=1e-4)
    assert row0["s"] == "undefined"            # centered: no S transform


def test_transform_s_column_defined_off_support(tmp_path):
    out = tmp_path / "gs.csv"
    rc = run_cli(tmp_path, "transform", {
        "ensemble_a": SHIFTED_GUE, "start": 4.0, "stop": 6.0, "count": 4,
        "output": str(out)})
    assert rc == 0
    _, _, header, rows = read_csv(out)
    checked = 0
    for r in rows:
        row = dict(zip(header, r))
        if row["s"] == "undefined":
            continue
        y = float(row["y_re"])
        assert float(row["s"]) == pytest.approx(
            2.0 / (1.0 + math.sqrt(1.0 + 4.0 * y)), abs=1e-6)
        checked += 1
    assert checked >= 3


def test_transform_matrix_section(tmp_path):
    out = tmp_path / "m.csv"
    rc = run_cli(tmp_path, "transform", {
        "ensemble_a": GIN, "start": 0.5, "stop": 2.0, "count": 2,
        "output": str(out)})
    assert rc == 0
    _, summary, header, rows = read_csv(out)
    assert summary["section"] == "matrix"
    inside = dict(zip(header, rows[0]))
    assert float(inside["a_re"]) == pytest.approx(0.5, abs=1e-9)
    assert float(inside["b_abs"]) == pytest.approx(math.sqrt(0.75), abs=1e-9)
    assert inside["branch"] == "nonholomorphic"
    assert header[-4:] == ["r21_re", "r21_im", "r22_re", "r22_im"]  # no S column
    outside = dict(zip(header, rows[1]))
    assert float(outside["a_re"]) == pytest.approx(0.5, abs=1e-9)
    assert outside["branch"] == "holomorphic"


def test_transform_failure_is_total(tmp_path, capsys, monkeypatch):
    # the batched solve returns one stalled node among solved ones
    solve_nodes = nonhermitian._solve_nodes

    def stalled(rmap_a, rmap_b, points):
        solved = solve_nodes(rmap_a, rmap_b, points)
        solved.status[1] = nonhermitian._STALLED
        return solved

    monkeypatch.setattr(nonhermitian, "_solve_nodes", stalled)
    rc = run_cli(tmp_path, "transform", {
        "ensemble_a": GIN, "start": 0.5, "stop": 1.0, "count": 3,
        "output": str(tmp_path / "x.csv")})
    assert rc == 3
    err = capsys.readouterr().err
    assert "transform failed" in err
    assert "at z = (0.75+0j): product solve stalled at z = (0.75+0j)" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("ensemble", [GIN, ELLIPTIC])
def test_transform_origin_rejected_before_work(tmp_path, capsys, monkeypatch, ensemble):
    # the matrix section has no solution at z = 0: 201 values over [-4, 4]
    # contain it, so the job fails validation before any solve
    def unexpected(rmap_a, rmap_b, points):
        raise AssertionError("solved before validation")

    monkeypatch.setattr(nonhermitian, "_solve_nodes", unexpected)
    out = tmp_path / "t.csv"
    rc = run_cli(tmp_path, "transform", {
        "ensemble_a": ensemble, "start": -4.0, "stop": 4.0, "count": 201,
        "output": str(out)})
    assert rc == 1
    assert "z = 0" in capsys.readouterr().err
    assert not out.exists()


def test_transform_matrix_section_gauge(tmp_path):
    # b is reported as |b|, so Sigma = R(G) has q12 = q21 = i sigma^2 |b|
    sigma = 1.3
    out = tmp_path / "e.csv"
    rc = run_cli(tmp_path, "transform", {
        "ensemble_a": {"kind": "elliptic", "n": 24, "sigma": sigma, "tau": 0.5,
                       "shift": [0.3, 0.2]},
        "start": -4.0, "stop": 4.0, "count": 200, "output": str(out)})
    assert rc == 0
    _, _, header, rows = read_csv(out)
    inside = 0
    for r in rows:
        row = {k: float(v) for k, v in zip(header, r) if k not in ("branch", "s")}
        inside += row["b_abs"] > 0
        for key in ("r12", "r21"):
            assert abs(row[f"{key}_re"]) <= 1e-12
            assert abs(row[f"{key}_im"] - sigma ** 2 * row["b_abs"]) <= 1e-12
    assert inside > 0


def test_transform_origin_rule_spares_other_jobs(tmp_path):
    # 200 values over [-4, 4] miss z = 0; a hermitian ensemble takes z + i eps
    for ensemble, count in ((ELLIPTIC, 200), (SHIFTED_GUE, 201)):
        out = tmp_path / "t.csv"
        rc = run_cli(tmp_path, "transform", {
            "ensemble_a": ensemble, "start": -4.0, "stop": 4.0, "count": count,
            "output": str(out)})
        assert rc == 0
        assert read_csv(out)[1]["points"] == count


# ---------------------------------------------------------------------------
# solve-product / density
# ---------------------------------------------------------------------------


def test_solve_product_csv(tmp_path):
    out = tmp_path / "sp.csv"
    rc = run_cli(tmp_path, "solve-product", {
        "ensemble_a": GIN, "ensemble_b": GIN,
        "grid": {"kind": "polar", "ranges": [[0.25, 0.75], [-0.2, 0.2]],
                 "resolution": [3, 3]},
        "output": str(out)})
    assert rc == 0
    _, summary, header, rows = read_csv(out)
    assert summary.pop("rot_residual") <= 1e-6
    assert summary == {"points": 9, "failed": 0, "capped": 0, "collapsed": 0, "retried": 0}
    table = [dict(zip(header, r)) for r in rows]
    assert all(abs(float(r["rot"])) <= 1e-6 for r in table)  # per node, any grid size
    mid = table[4]                           # r = 0.5, phi = 0
    assert float(mid["correlator"]) == pytest.approx(0.5, abs=1e-8)
    assert mid["status"] == "ok"


def test_solve_product_partial_failure(tmp_path, capsys):
    out = tmp_path / "sp2.csv"
    rc = run_cli(tmp_path, "solve-product", {
        "ensemble_a": GIN, "ensemble_b": GIN,
        "grid": {"kind": "cartesian", "ranges": [[-0.5, 0.5], [-0.5, 0.5]],
                 "resolution": [3, 3]},
        "output": str(out)})
    assert rc == 2                           # the z = 0 node cannot be solved
    assert "failed" in capsys.readouterr().err
    _, summary, header, rows = read_csv(out)
    assert summary.pop("rot_residual") <= 1e-6
    assert summary == {"points": 9, "failed": 1, "capped": 0, "collapsed": 0, "retried": 0}
    failed = [dict(zip(header, r)) for r in rows if r[-1] == "failed"]
    assert len(failed) == 1
    assert failed[0]["x"] == "0" and failed[0]["y"] == "0"
    assert failed[0]["a_re"] == failed[0]["rot"] == ""  # numeric cells emptied


EDGE_GRID = {"kind": "polar", "ranges": [[0.85, 1.15], [-0.3, 0.3]], "resolution": [6, 3]}


def singular_everywhere(monkeypatch):
    """Make the certificate find Z - Sigma_A^L Sigma_B^R singular at every
    node, so that every product solve fails."""
    real_certificate = nonhermitian._product_equations

    def singular(*args):
        sal, sbr, residuals, det = real_certificate(*args)
        return sal, sbr, residuals, np.zeros_like(det)

    monkeypatch.setattr(nonhermitian, "_product_equations", singular)


def test_solve_product_total_failure(tmp_path, capsys, monkeypatch):
    singular_everywhere(monkeypatch)
    out = tmp_path / "sp.csv"
    rc = run_cli(tmp_path, "solve-product", {
        "ensemble_a": GIN, "ensemble_b": GIN, "grid": EDGE_GRID, "output": str(out)})
    assert rc == 3
    assert "error: all 18 grid points failed to solve" in capsys.readouterr().err
    _, summary, _, rows = read_csv(out)    # the table still records every node
    assert summary["failed"] == summary["points"] == 18
    # no node has a derivative, so no rot either: not a rot of 0
    assert summary["rot_residual"] is None
    assert all(r[-1] == "failed" for r in rows)


def test_density_aborts_on_many_holes(tmp_path, capsys, monkeypatch):
    # ELLIPTIC x GIN has no closed form, so every node is a generic solve
    singular_everywhere(monkeypatch)
    out = tmp_path / "d.csv"
    rc = run_cli(tmp_path, "density", {
        "ensemble_a": ELLIPTIC, "ensemble_b": GIN, "grid": EDGE_GRID, "output": str(out)})
    assert rc == 2
    assert "error: 18 of 18 grid nodes have no density" in capsys.readouterr().err
    assert not out.exists()


def test_solve_product_counts_capped_nodes(tmp_path):
    # the Ginibre^2 support edge r = 1 crosses the grid; the damped map's
    # multiplier nears one there, and those nodes reach the cap before Newton
    out = tmp_path / "edge.csv"
    rc = run_cli(tmp_path, "solve-product", {
        "ensemble_a": GIN, "ensemble_b": GIN, "grid": EDGE_GRID, "output": str(out)})
    assert rc == 0
    _, summary, header, rows = read_csv(out)
    table = [dict(zip(header, r)) for r in rows]
    capped = [r for r in table if r["iterations"] == str(nonhermitian._MAX_FP)]
    assert summary["capped"] == len(capped) > 0
    assert all(r["branch"] == "nonholomorphic" and r["status"] == "ok" for r in capped)
    assert summary["collapsed"] == summary["retried"] == 0


def test_solve_product_counts_collapsed_nodes(tmp_path, monkeypatch):
    # a probe that calls every node inside: the outside nodes' fixed points
    # sink to b = 0 and come back holomorphic
    real_probe = nonhermitian._holomorphic_probe

    def everything_inside(rmap_a, rmap_b):
        probe = real_probe(rmap_a, rmap_b)

        def inside(z):
            indicator, pg, ok = probe(z)
            return np.ones_like(indicator), pg, ok

        return inside

    monkeypatch.setattr(nonhermitian, "_holomorphic_probe", everything_inside)
    out = tmp_path / "collapsed.csv"
    rc = run_cli(tmp_path, "solve-product", {
        "ensemble_a": GIN, "ensemble_b": GIN, "grid": EDGE_GRID, "output": str(out)})
    assert rc == 0
    _, summary, header, rows = read_csv(out)
    table = [dict(zip(header, r)) for r in rows]
    outside = [r for r in table if float(r["r"]) > 1.0]
    assert summary["collapsed"] == summary["retried"] == len(outside) > 0
    assert all(r["branch"] == "holomorphic" and r["status"] == "ok" for r in outside)


def test_density_json(tmp_path):
    out = tmp_path / "d.json"
    rc = run_cli(tmp_path, "density", {
        "ensemble_a": GIN, "ensemble_b": GIN, "format": "json",
        "grid": {"kind": "polar", "ranges": [[0.2, 0.8], [-3.0, 3.0]],
                 "resolution": [5, 7]},
        "output": str(out)})
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert payload["summary"]["route"] == "closed-form:circular"
    assert payload["summary"]["rot_residual"] == 0.0
    assert payload["summary"]["holes"] == payload["summary"]["retried"] == 0
    cols = payload["columns"]
    irho, ir = cols.index("rho"), cols.index("r")
    for row in payload["rows"]:
        assert row[irho] == pytest.approx(
            1.0 / (2.0 * math.pi * row[ir]), rel=1e-12)


def test_density_origin_grid_rejected(tmp_path, capsys):
    rc = run_cli(tmp_path, "density", {
        "ensemble_a": GIN, "ensemble_b": GIN,
        "grid": {"kind": "cartesian", "ranges": [[-1.0, 1.0], [-1.0, 1.0]],
                 "resolution": [5, 5]},
        "output": str(tmp_path / "d.csv")})
    assert rc == 1
    assert "z = 0" in capsys.readouterr().err


@pytest.mark.parametrize("resolution,code", [([2, 2], 0), ([1, 4], 1), ([4, 1], 1)])
def test_density_grid_needs_two_points_per_axis(tmp_path, capsys, resolution, code):
    out = tmp_path / "d.csv"
    rc = run_cli(tmp_path, "density", {
        "ensemble_a": ELLIPTIC, "ensemble_b": GIN,
        "grid": {"kind": "polar", "ranges": [[0.5, 1.0], [0.0, 1.0]],
                 "resolution": resolution},
        "output": str(out)})
    assert rc == code
    if code:
        assert "at least 2 points per axis" in capsys.readouterr().err
        assert not out.exists()
    else:
        _, summary, _, rows = read_csv(out)
        assert summary["holes"] == summary["retried"] == 0 and len(rows) == 4


# ---------------------------------------------------------------------------
# boundary
# ---------------------------------------------------------------------------


def test_boundary_circle(tmp_path):
    out = tmp_path / "b.csv"
    rc = run_cli(tmp_path, "boundary", {
        "ensemble_a": GIN, "ensemble_b": GIN, "angular_samples": 8,
        "output": str(out)})
    assert rc == 0
    _, summary, header, rows = read_csv(out)
    assert summary["located"] == 8 and summary["empty"] == 0
    assert header == ["phi", "r", "r_reference", "status"]
    for r in rows:
        assert abs(float(r[1]) - 1.0) <= 1e-4
        assert float(r[2]) == 1.0
        assert r[3] == "ok"


def test_boundary_limacon_reference(tmp_path):
    shifted = {"kind": "shifted", "n": 24}
    out = tmp_path / "lim.csv"
    rc = run_cli(tmp_path, "boundary", {
        "ensemble_a": shifted, "ensemble_b": shifted, "angular_samples": 8,
        "output": str(out)})
    assert rc == 0
    _, _, _, rows = read_csv(out)
    assert len(rows) == 8
    blank = 0
    for r in rows:
        edge = 1.0 + 2.0 * math.cos(float(r[0]))
        if edge > 0:
            assert float(r[2]) == edge
            assert abs(float(r[1]) - edge) <= 1e-4
        else:                                # past the cusp: no support
            assert r[2] == ""
            blank += 1
    assert blank == 2


def test_boundary_summary_counts_failed_solves(tmp_path):
    # every Ginibre^2 ray takes its certified quartic root, so none is scanned
    out = tmp_path / "b.csv"
    rc = run_cli(tmp_path, "boundary", {
        "ensemble_a": GIN, "ensemble_b": GIN, "angular_samples": 8,
        "output": str(out)})
    assert rc == 0
    _, summary, _, _ = read_csv(out)
    assert summary == {"rays": 8, "located": 8, "empty": 0, "failed_solves": 0,
                       "scanned_rays": 0}


@pytest.mark.parametrize("ensemble_b,scanned", [
    ({"kind": "shifted", "n": 24}, 0),   # the limacon's rays past the cusps: no root, so empty
    ({"kind": "gue", "n": 24}, 8),       # degree 5: every ray is scanned
], ids=["limacon", "degree5"])
def test_boundary_summary_counts_scanned_rays(tmp_path, ensemble_b, scanned):
    ensemble_a = {"kind": "shifted", "n": 24} if ensemble_b["kind"] == "shifted" else ensemble_b
    out = tmp_path / "b.csv"
    rc = run_cli(tmp_path, "boundary", {
        "ensemble_a": ensemble_a, "ensemble_b": ensemble_b, "angular_samples": 8,
        "output": str(out)})
    assert rc == 0
    _, summary, _, _ = read_csv(out)
    assert summary["scanned_rays"] == scanned and summary["failed_solves"] == 0


def test_boundary_empty_when_capped(tmp_path, capsys):
    rc = run_cli(tmp_path, "boundary", {
        "ensemble_a": GIN, "ensemble_b": GIN, "angular_samples": 8,
        "r_max": 0.4, "output": str(tmp_path / "b.csv")})
    assert rc == 3
    assert "no support boundary" in capsys.readouterr().err


HUGE_A = {"kind": "elliptic", "n": 24, "sigma": 1.5, "tau": 0.8, "shift": 1.0}
HUGE_B = {"kind": "elliptic", "n": 24, "sigma": 1.2, "tau": -0.7, "shift": 0.5}
HUGE_GRID = {"kind": "polar", "ranges": [[1e300, 1e308], [0.5, 1.0]], "resolution": [3, 3]}


@pytest.mark.parametrize("command,job,code,message", [
    ("solve-product", {"grid": HUGE_GRID}, 3, "error: all 9 grid points failed to solve"),
    ("density", {"grid": HUGE_GRID}, 2, "error: 9 of 9 grid nodes have no density"),
    ("boundary", {"r_max": 1e308}, 3, "error: no support boundary found on any ray"),
], ids=["solve-product", "density", "boundary"])
def test_huge_finite_radii_fail_cleanly(tmp_path, capsys, command, job, code, message):
    # the probe's companion row or the certificate's determinant overflows at
    # these radii, so every node and ray fails with a library error
    rc = run_cli(tmp_path, command, dict(job, ensemble_a=HUGE_A, ensemble_b=HUGE_B,
                                         output=str(tmp_path / "out.csv")))
    err = capsys.readouterr().err
    assert rc == code and err.startswith(message)


@pytest.mark.parametrize("rays", [cli._MAX_RAYS + 1, 10 ** 12])
def test_boundary_angular_samples_capped_before_work(tmp_path, capsys, monkeypatch, rays):
    # every boundary round holds rays x 25 values, so a huge count is refused
    # before any work
    def unexpected(*args, **kwargs):
        raise AssertionError("boundary search started")

    monkeypatch.setattr(nonhermitian, "boundary_curve", unexpected)
    out = tmp_path / "b.csv"
    rc = run_cli(tmp_path, "boundary", {
        "ensemble_a": GIN, "ensemble_b": GIN, "angular_samples": rays,
        "output": str(out)})
    assert rc == 1
    assert f"angular_samples must be <= {cli._MAX_RAYS}" in capsys.readouterr().err
    assert not out.exists()
    job = cli.build_job("boundary", {"ensemble_a": GIN, "ensemble_b": GIN,
                                     "angular_samples": cli._MAX_RAYS, "output": "b.csv"})
    assert job.angular_samples == cli._MAX_RAYS


@pytest.mark.parametrize("command,key,cap", [("transform", "count", cli._MAX_NODES),
                                             ("compare", "bins", cli._MAX_BINS)])
@pytest.mark.parametrize("excess", [1, 10 ** 12])
def test_sizes_capped_before_work(tmp_path, capsys, monkeypatch, command, key, cap, excess):
    # transform's values and compare's bins are each allocated at once, so a
    # huge count is refused at validation, before any solve or sample
    def unexpected(*args, **kwargs):
        raise AssertionError(f"{command} started")

    monkeypatch.setitem(cli._DISPATCH, command, unexpected)
    config = ({"ensemble_a": GIN, "start": 0.5, "stop": 2.0} if command == "transform"
              else {"ensemble_a": GIN, "ensemble_b": GIN, "grid": COMPARE_GRID, "trials": 2})
    out = tmp_path / "out"
    rc = run_cli(tmp_path, command, dict(config, output=str(out), **{key: cap + excess}))
    err = capsys.readouterr().err
    assert rc == 1 and not out.exists()
    assert err.startswith("error:") and f"{key} must be <= {cap}, got {cap + excess}" in err
    assert "Traceback" not in err
    job = cli.build_job(command, dict(config, output="out", **{key: cap}))
    assert getattr(job, key) == cap


def test_parser_built_once_and_reused_after_usage_error(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"ensemble_a": GIN, "ensemble_b": GIN,
                               "angular_samples": 8}))
    out = tmp_path / "b.csv"
    argv = ["boundary", "--config", str(job), "--angular-samples", "12",
            "--output", str(out)]
    cli._build_parser.cache_clear()
    assert cli.main(argv) == 0
    alone = out.read_bytes()
    out.unlink()
    # the usage error is raised halfway through the boundary flags
    assert cli.main(["boundary", "--config", str(job), "--angular-samples", "twelve",
                     "--output", str(out)]) == 1
    assert "invalid int value" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(argv) == 0
    assert out.read_bytes() == alone
    assert cli._build_parser.cache_info().misses == 1


# ---------------------------------------------------------------------------
# sample / compare
# ---------------------------------------------------------------------------


def test_sample_csv(tmp_path):
    out = tmp_path / "ev.csv"
    rc = run_cli(tmp_path, "sample", {
        "ensemble_a": {"kind": "ginibre", "n": 8},
        "ensemble_b": {"kind": "ginibre", "n": 8},
        "trials": 3, "output": str(out)})
    assert rc == 0
    _, summary, header, rows = read_csv(out)
    assert header == ["trial", "re", "im"]
    assert len(rows) == 24
    assert summary["skipped"] == [] and summary["eigenvalues"] == 24
    assert {r[0] for r in rows} == {"0", "1", "2"}


def test_compare_json(tmp_path):
    out = tmp_path / "cmp.json"
    rc = run_cli(tmp_path, "compare", {
        "ensemble_a": GIN, "ensemble_b": GIN, "trials": 30,
        "grid": COMPARE_GRID, "output": str(out)})
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert payload["analytic_route"] == "closed-form:circular"
    assert payload["l1_distance"] >= 0.0
    assert payload["skipped_trials"] == []
    assert len(payload["radial"]["density"]) == 16
    assert "slice" not in payload            # quick profile: no slice section
    prov = payload["provenance"]
    assert "output" not in prov and "workers" not in prov


def test_compare_aborts_on_many_holes_before_sampling(tmp_path, capsys, monkeypatch):
    def unexpected(*args, **kwargs):
        raise AssertionError("sampled after the analytic field failed")

    singular_everywhere(monkeypatch)
    monkeypatch.setattr(cli.montecarlo, "product_eigenvalues", unexpected)
    out = tmp_path / "cmp.json"
    rc = run_cli(tmp_path, "compare", {
        "ensemble_a": ELLIPTIC, "ensemble_b": GIN, "trials": 8,
        "grid": COMPARE_GRID, "output": str(out)})
    assert rc == 2
    assert "error: 324 of 324 grid nodes have no density" in capsys.readouterr().err
    assert not out.exists()


def test_sample_failure_exits_two(tmp_path, capsys, monkeypatch):
    # every eigensolve fails, the stacked one, each trial's and its retry
    def failing(a):
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    out = tmp_path / "ev.csv"
    rc = run_cli(tmp_path, "sample", {
        "ensemble_a": {"kind": "ginibre", "n": 8}, "ensemble_b": {"kind": "ginibre", "n": 8},
        "trials": 3, "output": str(out)})
    assert rc == 2
    assert "error: 3 of 3 trials failed the eigensolve twice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("ensemble_a,ensemble_b,grid,trials,route", [
    # the limacon's closed form; its 2-cell collar around the cusp at the
    # origin leaves cells to compare only from about 32 trials of n = 24
    ({"kind": "shifted", "n": 24}, {"kind": "shifted", "n": 24},
     {"kind": "cartesian", "ranges": [[-1.7, 3.9], [-2.9, 2.9]], "resolution": [18, 18]},
     32, "closed-form:limacon"),
    # no closed form: every slice bin takes density_at
    (ELLIPTIC, GIN,
     {"kind": "cartesian", "ranges": [[-2.5, 2.5], [-2.5, 2.5]], "resolution": [20, 20]},
     8, "generic"),
], ids=["limacon", "density_at"])
def test_compare_paper_scale_slice(tmp_path, ensemble_a, ensemble_b, grid, trials, route):
    config = {"ensemble_a": ensemble_a, "ensemble_b": ensemble_b, "grid": grid,
              "profile": "paper-scale", "trials": trials, "epsilon": 0.25}
    blobs = []
    for name in ("first.json", "second.json"):
        assert run_cli(tmp_path, "compare", dict(config, output=str(tmp_path / name))) == 0
        blobs.append((tmp_path / name).read_bytes())
    assert blobs[0] == blobs[1]
    payload = json.loads(blobs[0])
    assert payload["analytic_route"] == route
    assert payload["provenance"]["trials"] == trials
    sl = payload["slice"]
    assert set(sl) == {"eps", "count", "empty", "normalization", "edges", "density",
                       "analytic_rho", "analytic_density"}
    assert sl["eps"] == 0.25 and sl["count"] > 0 and sl["empty"] is False
    assert len(sl["edges"]) == 17 and len(sl["density"]) == len(sl["analytic_rho"]) == 16
    width = sl["edges"][1] - sl["edges"][0]
    bins = [v for v in sl["analytic_density"] if v is not None]
    assert bins and sum(bins) * width == pytest.approx(1.0, abs=1e-12)
    assert sum(sl["density"]) * width == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_output_bytes_independent_of_path_and_workers(tmp_path):
    base = {"ensemble_a": GIN, "ensemble_b": GIN, "trials": 30, "seed": 5,
            "grid": COMPARE_GRID}
    outs = []
    for name, workers in (("a.json", 1), ("b.json", 4)):
        cfg = dict(base, output=str(tmp_path / name), workers=workers)
        assert run_cli(tmp_path, "compare", cfg, name=f"cfg_{name}") == 0
        outs.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1]


def test_rerun_bytes_identical(tmp_path):
    cfg = {"ensemble_a": SHIFTED_GUE, "variable": "y",
           "start": 0.1, "stop": 2.0, "count": 20}
    blobs = []
    for name in ("r1.csv", "r2.csv"):
        assert run_cli(tmp_path, "transform",
                       dict(cfg, output=str(tmp_path / name)),
                       name=f"cfg_{name}") == 0
        blobs.append((tmp_path / name).read_bytes())
    assert blobs[0] == blobs[1]


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------


def transform_job(out, count=20):
    return {"ensemble_a": SHIFTED_GUE, "variable": "y", "start": 0.1,
            "stop": 2.0, "count": count, "output": str(out)}


def test_shorter_rewrite_leaves_only_new_bytes(tmp_path):
    out, fresh = tmp_path / "t.csv", tmp_path / "fresh.csv"
    assert run_cli(tmp_path, "transform", transform_job(out, 40)) == 0
    longer = out.stat().st_size
    assert run_cli(tmp_path, "transform", transform_job(out, 3)) == 0
    assert run_cli(tmp_path, "transform", transform_job(fresh, 3)) == 0
    assert out.stat().st_size < longer
    assert out.read_bytes() == fresh.read_bytes()


def test_rerun_replaces_the_file(tmp_path):
    out, keep = tmp_path / "t.csv", tmp_path / "keep.csv"
    assert run_cli(tmp_path, "transform", transform_job(out)) == 0
    first = out.read_bytes()
    os.link(out, keep)          # holds the old inode, so its number stays taken
    assert run_cli(tmp_path, "transform", transform_job(out)) == 0
    assert out.read_bytes() == first
    assert out.stat().st_ino != keep.stat().st_ino
    assert keep.read_bytes() == first           # replaced, not truncated


def test_symlinked_output_is_followed(tmp_path):
    target, link, fresh = tmp_path / "target.csv", tmp_path / "link.csv", tmp_path / "f.csv"
    target.write_bytes(b"stale\r\n" * 1000)
    link.symlink_to(target)
    assert run_cli(tmp_path, "transform", transform_job(link)) == 0
    assert run_cli(tmp_path, "transform", transform_job(fresh)) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == fresh.read_bytes()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_special_file_output_is_written_through(tmp_path):
    # the same path as /dev/null or /dev/stdout: never unlinked
    fifo, fresh = tmp_path / "pipe", tmp_path / "f.csv"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run_cli(tmp_path, "transform", transform_job(fifo)) == 0
        data = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert run_cli(tmp_path, "transform", transform_job(fresh)) == 0
    assert data == fresh.read_bytes()


@pytest.mark.parametrize("command", ["density", "compare"])
@pytest.mark.parametrize("where", ["directory", "under a file"])
def test_unwritable_output_exits_cleanly(tmp_path, capsys, command, where):
    blocker = tmp_path / "blocker"
    if where == "directory":
        blocker.mkdir()
        out = blocker
    else:
        blocker.write_text("a regular file")
        out = blocker / "o.csv"
    config = {"ensemble_a": GIN, "ensemble_b": GIN, "output": str(out)}
    if command == "density":
        config["grid"] = {"kind": "polar", "ranges": [[0.2, 0.8], [-3.0, 3.0]],
                          "resolution": [5, 7]}
    else:
        config.update(trials=30, grid=COMPARE_GRID)
    assert run_cli(tmp_path, command, config) == 1   # OSError did not escape
    assert "cannot write output" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# validation and merging
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command,overrides", [
    ("solve-product", {"ensemble_a": {"kind": "ginibre", "n": 24, "sigma": math.inf},
                       "grid": {"kind": "polar", "ranges": [[0.2, 0.8], [-1.0, 1.0]],
                                "resolution": [3, 3]}}),
    ("density", {"grid": {"kind": "cartesian", "ranges": [[0.1, math.inf], [0.1, 1.0]],
                          "resolution": [4, 4]}}),
    ("boundary", {"ensemble_b": {"kind": "ginibre", "n": 24, "shift": [math.nan, 0]}}),
] + [("boundary", {"r_max": v}) for v in (math.nan, math.inf, -math.inf)]
  + [("transform", {key: v}) for key in ("start", "stop", "epsilon")
     for v in (math.nan, math.inf, -math.inf)]
  + [("transform", {"start": 10 ** 400})])   # an integer past the float range
def test_nonfinite_input_rejected(tmp_path, capsys, command, overrides):
    # each case twice: in the config file, and as flags over a config without it
    out = tmp_path / "o.csv"
    config = {"ensemble_a": GIN, "output": str(out)}
    if command != "transform":
        config["ensemble_b"] = GIN
    assert run_cli(tmp_path, command, dict(config, **overrides)) == 1
    assert "finite" in capsys.readouterr().err
    path = tmp_path / "base.json"
    path.write_text(json.dumps(config))
    flags = [f"--{key.replace('_', '-')}={json.dumps(value)}"
             for key, value in overrides.items()]
    assert cli.main([command, "--config", str(path)] + flags) == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("ensemble_b,fragment", [
    ({"kind": "elliptic", "n": 24, "tau": "x"}, "tau must be a number"),
    ({"kind": "ginibre", "n": 24, "shift": "abc"}, "shift must be a number"),
    ({"kind": "ginibre", "n": 24, "shift": ["abc", 0]}, "shift must be a number"),
    ({"kind": "ginibre", "n": 24, "sigma": 1e200}, "sigma must be positive and finite"),
])
def test_nonnumeric_spec_rejected(tmp_path, capsys, ensemble_b, fragment):
    out = tmp_path / "o.csv"
    config = {"ensemble_a": GIN, "ensemble_b": ensemble_b, "output": str(out)}
    assert run_cli(tmp_path, "boundary", config) == 1
    assert fragment in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid,fragment", [
    ({"resolution": ["x", 2]}, "resolution must be two integers"),
    ({"resolution": [2.5, 3]}, "resolution must be two integers"),
    ({"resolution": [1e9, 1e9]}, "resolution must be two integers"),
    ({"resolution": [True, 3]}, "resolution must be two integers"),
    ({"resolution": 5}, "resolution must be two integers"),
    ({"resolution": [3, 3, 3]}, "resolution must be two integers"),
    ({"ranges": [["a", 1.0], [-1.0, 1.0]]}, "of finite real numbers"),
    ({"ranges": [[0.1, None], [-1.0, 1.0]]}, "of finite real numbers"),
    ({"ranges": [[0.1, True], [-1.0, 1.0]]}, "of finite real numbers"),
    ({"ranges": 5}, "ranges must be ((lo, hi), (lo, hi))"),
    ({"ranges": [0.1, 1.0]}, "ranges must be ((lo, hi), (lo, hi))"),
    ({"ranges": [[0.1, 10 ** 400], [-1.0, 1.0]]}, "of finite real numbers"),
], ids=["string_resolution", "float_resolution", "huge_float_resolution", "bool_resolution",
        "scalar_resolution", "three_resolutions", "string_range", "null_range", "bool_range",
        "scalar_ranges", "flat_ranges", "huge_integer_range"])
def test_malformed_grid_rejected(tmp_path, capsys, grid, fragment):
    out = tmp_path / "d.csv"
    grid = dict({"kind": "polar", "ranges": [[0.1, 1.0], [-1.0, 1.0]],
                 "resolution": [3, 3]}, **grid)
    rc = run_cli(tmp_path, "density", {
        "ensemble_a": GIN, "ensemble_b": GIN, "grid": grid, "output": str(out)})
    assert rc == 1
    assert fragment in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve-product", "density", "compare"])
@pytest.mark.parametrize("resolution", [[cli._MAX_NODES // 2 + 1, 2], [10 ** 9, 10 ** 9]],
                         ids=["past_the_limit", "a_billion_squared"])
def test_grid_nodes_bounded_before_allocation(tmp_path, capsys, monkeypatch, command,
                                              resolution):
    def unexpected(self):
        raise AssertionError("grid nodes allocated")

    monkeypatch.setattr(GridSpec, "points", unexpected)
    out = tmp_path / "o.json"
    rc = run_cli(tmp_path, command, {
        "ensemble_a": GIN, "ensemble_b": GIN, "trials": 2, "output": str(out),
        "grid": {"kind": "cartesian", "ranges": [[0.1, 1.0], [0.1, 1.0]],
                 "resolution": resolution}})
    assert rc == 1
    n0, n1 = resolution
    assert (f"{n0} x {n1} nodes exceed the limit of {cli._MAX_NODES}"
            in capsys.readouterr().err)
    assert not out.exists()
    # the limit itself is accepted
    job = cli.build_job("density", {"ensemble_a": GIN, "ensemble_b": GIN, "output": "d.csv",
                                    "grid": {"kind": "polar", "ranges": [[0.1, 1.0], [0.1, 1.0]],
                                             "resolution": [cli._MAX_NODES // 2, 2]}})
    assert job.grid.resolution == (cli._MAX_NODES // 2, 2)


def test_validation_aggregates_everything(tmp_path, capsys):
    rc = run_cli(tmp_path, "density", {
        "ensemble_a": {"kind": "wishart", "n": 1},
        "ensemble_b": GIN,
        "grid": {"kind": "spherical", "ranges": [[0.1, 1.0], [0.0, 1.0]],
                 "resolution": [4, 4]},
        "format": "xml",
        "output": str(tmp_path / "x.csv")})
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("- ") >= 4              # all violations in one report
    assert "kind" in err and "format" in err


def test_unknown_key_rejected(tmp_path, capsys):
    rc = run_cli(tmp_path, "transform", {
        "ensemble_a": GUE, "output": str(tmp_path / "x.csv"), "bins": 9})
    assert rc == 1
    assert "'bins' is not used" in capsys.readouterr().err


def test_command_mismatch_rejected(tmp_path, capsys):
    rc = run_cli(tmp_path, "transform", {
        "command": "density", "ensemble_a": GUE,
        "output": str(tmp_path / "x.csv")})
    assert rc == 1
    assert "names command" in capsys.readouterr().err


def test_flag_overrides_config(tmp_path):
    path = tmp_path / "cfg.json"
    out = tmp_path / "o.csv"
    path.write_text(json.dumps({
        "ensemble_a": SHIFTED_GUE, "variable": "y", "seed": 5,
        "start": 0.5, "stop": 1.0, "count": 2, "output": str(out)}))
    rc = cli.main(["transform", "--config", str(path), "--seed", "9",
                   "--count", "3"])
    assert rc == 0
    provenance, summary, _, _ = read_csv(out)
    assert provenance["seed"] == 9
    assert summary["points"] == 3


def test_variable_y_needs_shifted_hermitian(tmp_path, capsys):
    rc = run_cli(tmp_path, "transform", {
        "ensemble_a": GUE, "variable": "y", "start": 0.1, "stop": 1.0,
        "output": str(tmp_path / "x.csv")})
    assert rc == 1
    assert "non-centered hermitian" in capsys.readouterr().err


def test_build_job_defaults():
    cfg = cli.build_job("transform", {"ensemble_a": GUE, "output": "o.csv"})
    assert cfg.epsilon == 1e-6 and cfg.workers == 1 and cfg.seed == 0
    cfg2 = cli.build_job("compare", {
        "ensemble_a": GIN, "ensemble_b": GIN, "output": "o.json",
        "grid": {"kind": "cartesian", "ranges": [[-1.4, 1.4], [-1.4, 1.4]],
                 "resolution": [8, 8]}})
    assert cfg2.epsilon == 1e-2 and cfg2.trials == 100 and cfg2.format == "json"


def test_build_job_profile_sets_trials():
    cfg = cli.build_job("sample", {
        "ensemble_a": GIN, "ensemble_b": GIN, "output": "o.csv",
        "profile": "paper-scale"})
    assert cfg.trials == 20000


def test_build_job_workers_env(monkeypatch):
    monkeypatch.setenv("FREECONV_WORKERS", "3")
    cfg = cli.build_job("transform", {"ensemble_a": GUE, "output": "o.csv"})
    assert cfg.workers == 3
    for bad in ("many", "0", "-2"):   # held to the same rule as --workers
        monkeypatch.setenv("FREECONV_WORKERS", bad)
        with pytest.raises(SpecValidationError) as err:
            cli.build_job("transform", {"ensemble_a": GUE, "output": "o.csv"})
        assert any("FREECONV_WORKERS" in v for v in err.value.violations)


def test_compare_empty_comparison_fails_before_sampling(tmp_path, capsys, monkeypatch):
    # every cell of this grid falls to the core, the collar or the low-count
    # mask even at the largest possible sample total, trials x n
    def unexpected(*args, **kwargs):
        raise AssertionError("sampled before the comparison mask was checked")

    monkeypatch.setattr(cli.montecarlo, "product_eigenvalues", unexpected)
    out = tmp_path / "cmp.json"
    rc = run_cli(tmp_path, "compare", {
        "ensemble_a": GIN, "ensemble_b": GIN, "trials": 20,
        "grid": {"kind": "cartesian", "ranges": [[-1.6, 1.6], [-1.6, 1.6]],
                 "resolution": [10, 10]},
        "output": str(out)})
    assert rc == 1
    assert "removed every cell" in capsys.readouterr().err
    assert not out.exists()


def test_compare_rejects_polar_and_csv():
    with pytest.raises(SpecValidationError) as err:
        cli.build_job("compare", {
            "ensemble_a": GIN, "ensemble_b": GIN, "output": "o.csv",
            "format": "csv",
            "grid": {"kind": "polar", "ranges": [[0.1, 1.0], [-3.0, 3.0]],
                     "resolution": [8, 8]}})
    text = "\n".join(err.value.violations)
    assert "cartesian" in text and "JSON only" in text


@pytest.mark.parametrize("command", ["sample", "compare"])
def test_unequal_sizes_rejected_before_work(tmp_path, capsys, monkeypatch, command):
    def unexpected(*args, **kwargs):
        raise AssertionError("worked before the sizes were checked")

    monkeypatch.setattr(cli.montecarlo, "product_eigenvalues", unexpected)
    monkeypatch.setattr(cli.nonhermitian, "density_field", unexpected)
    out = tmp_path / "out"
    config = {"ensemble_a": {"kind": "ginibre", "n": 8},
              "ensemble_b": {"kind": "ginibre", "n": 12}, "trials": 2, "output": str(out)}
    if command == "compare":
        config["grid"] = COMPARE_GRID
    assert run_cli(tmp_path, command, config) == 1
    assert "same n, got 8 and 12" in capsys.readouterr().err
    assert not out.exists()


def test_missing_output_rejected():
    with pytest.raises(SpecValidationError) as err:
        cli.build_job("transform", {"ensemble_a": GUE})
    assert any("output" in v for v in err.value.violations)


# a valid, mostly non-default value for every key each command accepts
FULL_JOBS = {
    "transform": {"ensemble_a": SHIFTED_GUE, "variable": "y", "start": 0.25,
                  "stop": 1.5, "count": 5, "epsilon": 1e-3},
    "solve-product": {"ensemble_a": GIN, "ensemble_b": GUE, "grid": EDGE_GRID},
    "boundary": {"ensemble_a": GIN, "ensemble_b": GIN, "angular_samples": 16,
                 "r_max": 3.5},
    "density": {"ensemble_a": GIN, "ensemble_b": GIN, "grid": EDGE_GRID},
    "sample": {"ensemble_a": GIN, "ensemble_b": GUE, "trials": 7},
    "compare": {"ensemble_a": GIN, "ensemble_b": GIN, "grid": COMPARE_GRID,
                "trials": 7, "bins": 8, "epsilon": 0.05},
}
COMMON_JOB = {"output": "o.json", "format": "json", "profile": "paper-scale",
              "seed": 3, "workers": 2}


@pytest.mark.parametrize("command", list(FULL_JOBS))
def test_flags_mirror_config_keys(tmp_path, command):
    full = dict(FULL_JOBS[command], **COMMON_JOB)
    keys = cli._KEYS[command]
    assert set(full) == set(keys)
    parser = cli._build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {o for a in subs.choices[command]._actions for o in a.option_strings}
    assert options - {"-h", "--help"} == {"--config"} | {
        "--" + key.replace("_", "-") for key in keys}
    expected = cli.build_job(command, full)
    for key, value in full.items():
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({k: v for k, v in full.items() if k != key}))
        text = json.dumps(value) if isinstance(value, dict) else str(value)
        args = parser.parse_args(
            [command, "--config", str(path), f"--{key.replace('_', '-')}={text}"])
        assert cli.build_job(command, cli._merge_config(args)) == expected, key
