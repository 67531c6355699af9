"""Pipeline driver, report emission, and command-line interface tests."""

import collections
import dataclasses
import functools
import importlib
import importlib.util
import json
import pathlib
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nepsolve
from nepsolve import (DegreeSpec, RunConfig, SampleSet, emit, hadeler, lawson,
                      run, sample_boundary, save_manifest)
from nepsolve import build_basis, cli
from nepsolve.cli import (EXIT_FIT_MISS, EXIT_OK, EXIT_POLES, EXIT_SOLVE_FAILED,
                          EXIT_SOLVER_MISS, build_parser, main)
from nepsolve.eigensolve import STANDARD_FORM_RCOND, EigensolverError
from nepsolve import filters
from nepsolve.filters import SUBSPACE_START, SIFConfig
from util import match_sets


@pytest.fixture(scope="module")
def time_delay_report():
    config = RunConfig(problem="time_delay2", nodes=50, tol=1e-7, max_degree=12)
    return run(config)


def test_run_time_delay_five_eigenpairs(time_delay_report):
    report = time_delay_report
    assert report.fit_met_target
    assert report.solver == "dense"
    assert report.exit_status == EXIT_OK
    inreg = report.in_region
    assert len(inreg) == 5
    assert all(p.residual < 1e-7 for p in inreg)
    assert report.pole_free
    assert np.sqrt(report.bound) >= 0


def test_report_json_schema(time_delay_report):
    doc = time_delay_report.to_json_dict()
    for key in ("problem", "config", "approx", "bound", "pole_free", "poles",
                "zeros", "eigen", "solver", "timings"):
        assert key in doc
    assert {"degree", "sqrt_e", "gap", "stop_reason",
            "escalation"} <= set(doc["approx"])
    for step in doc["approx"]["escalation"]:
        assert set(step) == {"degree", "sweeps", "stop_reason", "sqrt_e",
                             "sqrt_d"}
    assert set(doc["zeros"]) == {"t1", "t2", "t3"}
    row = doc["eigen"][0]
    assert {"re", "im", "residual", "normalized_residual", "in_region",
            "consistency"} <= set(row)
    assert {"fit", "pencil", "solve"} <= set(doc["timings"])
    rcond, outside = doc["solver"]["rcond"], doc["solver"]["outside"]
    # the counters count the filter's pole factorizations and solves only
    assert doc["solver"] == {"kind": "dense", "converged": True, "path": "geev",
                             "rcond": rcond, "outside": outside,
                             "factorizations": 0, "block_solves": 0,
                             "arithmetic": "real", "on_poles": 0,
                             "over_bound": 0}
    # the dense path reports the in-region pairs and counts the others
    assert all(row["in_region"] for row in doc["eigen"])
    assert isinstance(outside, int) and outside > 0
    # geev runs only on a corner at least this well conditioned
    assert 1e-4 <= rcond <= 1.0
    json.dumps(doc)  # serializable


def test_report_names_dense_path(tmp_path):
    # hadeler's leading coefficient gives C1 a well-conditioned corner: geev
    path = save_manifest(hadeler(n=20), str(tmp_path / "hadeler.json"))
    report = run(RunConfig(manifest=path, nodes=50, tol=1e-10, max_degree=8,
                           solver="dense"))
    solver = report.to_json_dict()["solver"]
    assert solver["path"] == "geev"
    assert solver["rcond"] >= STANDARD_FORM_RCOND
    assert solver["arithmetic"] == "real"
    # T(x) = E1 + x E2 with a rank-one E2 fits exactly at degree 1, so the
    # corner of C1 is singular, as in test_singular_leading_coefficient_takes_qz
    doc = {
        "name": "rank_one_lead",
        "terms": [{"kind": "constant", "params": {"value": 1}},
                  {"kind": "monomial", "params": {"power": 1}}],
        "matrices": [{"inline": [[2, 1], [0, 1]]}, {"inline": [[1, 0], [0, 0]]}],
        "region": {"center": [0.0, 0.0], "radius": 3.0},
    }
    mpath = tmp_path / "rank_one_lead.json"
    mpath.write_text(json.dumps(doc))
    report = run(RunConfig(manifest=str(mpath), nodes=20, tol=1e-8,
                           max_degree=3, solver="dense"))
    solver = report.to_json_dict()["solver"]
    assert solver["path"] == "qz"
    assert 0.0 <= solver["rcond"] < STANDARD_FORM_RCOND
    # real E_i and polynomial terms: the fallback is dggev
    assert solver["arithmetic"] == "real"
    # det(E1 + x E2) = 2 + x
    assert [p.lam for p in report.in_region] == [pytest.approx(-2.0)]
    # P(lam) rounds to an exactly singular matrix there; its eigenvector is
    # the null vector from the SVD
    assert report.in_region[0].residual < 1e-12


def test_report_arithmetic_real_for_hadeler(tmp_path):
    # real E_i and conjugate-symmetric terms on a disk with a real center
    path = save_manifest(hadeler(n=100), str(tmp_path / "hadeler.json"))
    report = run(RunConfig(manifest=path, nodes=50, tol=1e-10, max_degree=6,
                           solver="dense"))
    solver = report.to_json_dict()["solver"]
    assert solver["arithmetic"] == "real" and solver["path"] == "geev"
    assert report.exit_status == EXIT_OK
    assert report.in_region
    assert all(p.residual <= report.bound for p in report.in_region)


def test_hadeler150_dense_report_is_valid_json(tmp_path):
    # some pencil eigenvalues lie so far outside the region that e^lam
    # overflows in T(lam) u; they are counted, not extracted, so no overflow
    # warning is raised and the report holds finite numbers only
    path = save_manifest(hadeler(n=150), str(tmp_path / "hadeler.json"))
    report = run(RunConfig(manifest=path, nodes=50, tol=1e-10, max_degree=6,
                           solver="dense"))
    doc = report.to_json_dict()
    json.dumps(doc, allow_nan=False)
    assert doc["eigen"] and all(row["in_region"] for row in doc["eigen"])
    assert len(doc["eigen"]) + doc["solver"]["outside"] == 900


def test_emit_writes_the_text_it_returns(time_delay_report, tmp_path):
    path = str(tmp_path / "r.json")
    assert emit(time_delay_report, path=path) == path
    text = emit(time_delay_report)
    with open(path) as fh:
        assert fh.read() == text
    assert json.loads(text) == time_delay_report.to_json_dict()


def test_empty_spectrum_report_is_valid(tmp_path):
    doc = {
        "name": "trivial",
        "terms": [{"kind": "constant", "params": {"value": 1}}],
        "matrices": [{"inline": [[1, 0], [0, 1]]}],
        "region": {"center": [0.0, 0.0], "radius": 2.0},
    }
    mpath = tmp_path / "trivial.json"
    mpath.write_text(json.dumps(doc))
    config = RunConfig(manifest=str(mpath), nodes=30, tol=1e-8, max_degree=4)
    report = run(config)
    assert report.in_region == []
    doc_out = json.loads(emit(report))
    assert not any(r["in_region"] for r in doc_out["eigen"])
    # a report with no eigenpairs at all still emits a valid document
    import dataclasses

    bare = dataclasses.replace(report, eigenpairs=[])
    assert json.loads(emit(bare))["eigen"] == []


def test_degree_exhaustion_flagged(tmp_path):
    config = RunConfig(problem="time_delay2", nodes=30, tol=1e-16, max_degree=3)
    report = run(config)
    assert not report.fit_met_target
    assert report.exit_status == EXIT_FIT_MISS
    # report still emitted with the best fit; the last degree is never given
    # up, though it may stop early once its duality gap closes
    assert report.fit.e_max > 0
    assert [step["degree"] for step in report.escalation] == [1, 2, 3]
    assert report.escalation[-1]["stop_reason"] != "unreachable"
    assert report.fit.iterations == report.escalation[-1]["sweeps"] <= 500
    assert emit(report)


def test_run_time_delay_fit_converges(time_delay_report):
    approx = time_delay_report.to_json_dict()["approx"]
    assert approx["converged"] is True
    assert approx["stop_reason"] in {"gap", "interp_floor"}


def test_run_reports_reproducible(time_delay_report):
    config = RunConfig(problem="time_delay2", nodes=50, tol=1e-7, max_degree=12)
    again = run(config)
    a = time_delay_report.to_json_dict()
    b = again.to_json_dict()
    a.pop("timings"), b.pop("timings")
    assert a == b


def _check_skipped_degrees_are_proven(escalation, degree, tol):
    # every degree below the reported one was fitted, or lies at or below a
    # listed fit that gave up with a dual bound over tol: type (j, j) lies in
    # (i, i) for j <= i, so no such degree can meet tol
    proven = max((step["degree"] for step in escalation
                  if step["stop_reason"] == "unreachable" and step["sqrt_d"] > tol),
                 default=0)
    fitted = {step["degree"] for step in escalation}
    assert all(j in fitted or j <= proven for j in range(1, degree))
    assert escalation[-1]["degree"] == degree


def _check_escalation_matches_full_fits(report):
    # giving up on degrees that cannot meet tol must not change what is
    # reported: compare with fitting every degree in full
    config = report.config
    nep = cli._resolve_problem(config)
    region = cli._resolve_region(config, nep)
    samples = SampleSet.from_nep(nep, sample_boundary(region, config.nodes))
    for k in range(1, config.max_degree + 1):
        xi = lawson(samples, DegreeSpec((k,) * nep.s, k))
        if np.sqrt(xi.e_max) < config.tol:
            break
    fit = report.fit
    assert fit.degrees.denominator == k
    assert fit.e_max == xi.e_max
    assert fit.iterations == xi.iterations
    assert fit.stop_reason == xi.stop_reason
    escalation = report.escalation
    _check_skipped_degrees_are_proven(escalation, k, config.tol)
    assert escalation[-1] == {
        "degree": k, "sweeps": xi.iterations, "stop_reason": xi.stop_reason,
        "sqrt_e": np.sqrt(xi.e_max),
        "sqrt_d": np.sqrt(max(step.d_w for step in xi.trace))}
    assert escalation[-1]["sqrt_e"] == report.to_json_dict()["approx"]["sqrt_e"]
    # each degree given up carries its proof: a dual bound above tol
    assert all(step["sqrt_d"] > config.tol for step in escalation
               if step["stop_reason"] == "unreachable")
    return escalation


def test_escalation_matches_full_fits_until_target(time_delay_report):
    escalation = _check_escalation_matches_full_fits(time_delay_report)
    assert all(step["stop_reason"] == "unreachable"
               for step in escalation[:-2])


@pytest.mark.parametrize("problem, nodes, max_degree, max_sweeps", [
    ("example1", 100, 30, 45),
    ("hadeler100", 50, 6, 30),
])
def test_escalation_matches_full_fits_on_benchmark_configs(
        tmp_path, problem, nodes, max_degree, max_sweeps):
    if problem == "hadeler100":
        source = {"manifest": save_manifest(hadeler(n=100),
                                            str(tmp_path / "hadeler.json"))}
    else:
        source = {"problem": problem}
    report = run(RunConfig(nodes=nodes, tol=1e-10, max_degree=max_degree,
                           **source))
    escalation = _check_escalation_matches_full_fits(report)
    # the give-up rule's sweep budget on the benchmark's fits
    assert sum(step["sweeps"] for step in escalation) <= max_sweeps


@pytest.mark.parametrize("overrides", [
    # the benchmark's example1_escalate: 8 fits, the last at degree 28
    {},
    # a tiny half-disk, where the uniform basis at the cap degree (99)
    # overflows its leading coefficients
    {"center": 0j, "radius": 1e-3, "half_disk": True, "nodes": 201, "max_degree": 99},
])
def test_escalation_extends_one_shared_basis_one_degree_at_a_time(monkeypatch,
                                                                  overrides):
    # every basis is made by build_basis: the shared one by cli's call, a
    # Lawson rebuild under its weights by lawson's
    calls, fit_bases = [], []

    def counted(rebuilt):
        def wrapper(nodes, degree, weights=None):
            calls.append((degree, rebuilt))
            return build_basis(nodes, degree, weights=weights)
        return wrapper

    def fit(samples, spec, **kwargs):
        fit_bases.append(kwargs["basis"])
        return lawson(samples, spec, **kwargs)

    monkeypatch.setattr(cli, "build_basis", counted(False))
    monkeypatch.setattr(importlib.import_module("nepsolve.lawson"), "build_basis",
                        counted(True))
    monkeypatch.setattr(cli, "lawson", fit)
    config = RunConfig(**{"problem": "example1", "nodes": 100, "tol": 1e-10,
                          "max_degree": 30, **overrides})
    report = run(config)
    _check_skipped_degrees_are_proven(report.escalation,
                                      report.fit.degrees.denominator, config.tol)
    assert [step["degree"] for step in report.escalation] == \
        [b.degree for b in fit_bases]
    # the shared basis is built once, so each of its columns is built once
    assert [rebuilt for _, rebuilt in calls].count(False) == 1
    # no basis in the run, rebuilt or shared, went past the escalation's cap
    assert max(d for d, _ in calls) <= min(config.max_degree, (config.nodes - 2) // 2)
    # each fit's first sweep ran in the shared basis's prefix at its degree,
    # which is the basis built at that degree at once, bit for bit
    for basis in fit_bases:
        ref = build_basis(basis.nodes, basis.degree)
        assert all(np.array_equal(getattr(basis, name), getattr(ref, name))
                   for name in ("nodes", "H", "Q", "k"))


def test_escalation_ends_before_the_leading_coefficients_overflow(monkeypatch):
    # on a tiny half-disk the shared basis's k_j grow about like (2/r)^j and
    # overflow at degree 99: the run reports the fit at the last degree with
    # finite k_j as a fit miss, where it used to fail on a non-finite pencil
    fit_bases = []

    def fit(samples, spec, **kwargs):
        fit_bases.append(kwargs["basis"])
        return lawson(samples, spec, **kwargs)

    monkeypatch.setattr(cli, "lawson", fit)
    report = run(RunConfig(problem="example1", center=0j, radius=1e-3,
                           half_disk=True, nodes=201, max_degree=99, tol=1e-17))
    assert report.exit_status == EXIT_FIT_MISS
    last = report.fit.degrees.denominator
    _check_skipped_degrees_are_proven(report.escalation, last, 1e-17)
    assert fit_bases[-1].degree == last and np.isfinite(fit_bases[-1].k).all()
    with np.errstate(over="ignore"):
        assert not np.isfinite(build_basis(fit_bases[-1].nodes, last + 1).k[-1])


def _plant_a_breakdown_past_ten(monkeypatch):
    # the shared basis breaks down past degree 10, carrying the columns built before
    def breaks_past_ten(nodes, degree, weights=None):
        if degree > 10:
            raise nepsolve.BreakdownError(f"planted breakdown at degree {degree}",
                                          build_basis(nodes, 10, weights))
        return build_basis(nodes, degree, weights)

    monkeypatch.setattr(cli, "build_basis", breaks_past_ten)


def test_a_probe_without_a_proof_never_fails_a_run(monkeypatch):
    # time_delay2 meets tol at degree 10 after one-sweep probes at 12, 6, 9
    # and 10; a basis that breaks down past degree 10 caps the escalation
    # there, so the probes bisect 1..9 instead, and the run reports what it
    # reported
    config = RunConfig(problem="time_delay2", nodes=50, tol=1e-7, max_degree=24)
    plain = run(config)
    assert plain.fit.degrees.denominator == 10
    assert [step["degree"] for step in plain.escalation] == [12, 6, 9, 10, 10]
    _plant_a_breakdown_past_ten(monkeypatch)
    patched = run(config)
    assert [step["degree"] for step in patched.escalation] == [5, 7, 8, 9, 10]
    assert patched.escalation[-1] == plain.escalation[-1]
    a, b = plain.to_json_dict(), patched.to_json_dict()
    for doc in (a, b):
        del doc["timings"], doc["approx"]["escalation"]
    assert a == b
    assert np.array_equal(patched.fit.denom_coeffs, plain.fit.denom_coeffs)
    assert patched.exit_status == plain.exit_status == EXIT_OK


def test_a_walk_that_meets_a_breakdown_reports_the_last_fitted_degree(monkeypatch):
    # the W1 configuration with the basis capped at degree 10 by a breakdown:
    # the probes at 5, 7, 8 and 9 prove tol out of reach, and degree 10, the
    # last the nodes carry, runs without a target and is reported as a fit
    # miss, as a miss at max_degree would be
    _plant_a_breakdown_past_ten(monkeypatch)
    report = run(RunConfig(problem="example1", nodes=100, tol=1e-10, max_degree=30,
                           solver="dense", seed=1))
    assert [step["degree"] for step in report.escalation] == [5, 7, 8, 9, 10]
    assert report.escalation[-1]["stop_reason"] != "unreachable"
    assert report.escalation[-1]["sweeps"] > 1
    assert report.fit.degrees.denominator == 10
    assert not report.fit_met_target and report.exit_status == EXIT_FIT_MISS


def _linear_walk(samples, s, tol, last):
    # the escalation before the probes: k = 1, 2, ... each in the basis
    # built at k, until a degree meets tol; the last degree with finite
    # leading coefficients never gives up
    with np.errstate(over="ignore"):
        last = int(np.cumprod(np.isfinite(build_basis(samples.nodes, last).k)).sum()) - 1
    for k in range(1, last + 1):
        xi = lawson(samples, DegreeSpec((k,) * s, k),
                    target=None if k == last else tol, basis=build_basis(samples.nodes, k))
        if np.sqrt(xi.e_max) < tol:
            return xi, True
    return xi, False


@pytest.fixture(scope="module")
def small_hadeler_manifest(tmp_path_factory):
    return save_manifest(hadeler(n=8), str(tmp_path_factory.mktemp("hadeler") / "h8.json"))


@settings(max_examples=25, deadline=10000)
@given(problem=st.sampled_from(["example1", "time_delay2", "hadeler"]),
       nodes=st.integers(12, 60), tol=st.sampled_from([1e-3, 1e-5, 1e-7, 1e-9, 1e-11]),
       max_degree=st.integers(1, 20), half_disk=st.booleans())
def test_probed_escalation_reports_the_linear_walks_fit(
        small_hadeler_manifest, problem, nodes, tol, max_degree, half_disk):
    source = ({"manifest": small_hadeler_manifest} if problem == "hadeler"
              else {"problem": problem})
    config = RunConfig(nodes=nodes, tol=tol, max_degree=max_degree,
                       half_disk=half_disk, **source)
    report = run(config)
    nep = cli._resolve_problem(config)
    samples = SampleSet.from_nep(
        nep, sample_boundary(cli._resolve_region(config, nep), nodes))
    xi, met = _linear_walk(samples, nep.s, tol, min(max_degree, (nodes - 2) // 2))
    assert report.fit_met_target == met
    fit = report.fit
    assert fit.degrees == xi.degrees
    assert (fit.e_max, fit.gap, fit.stop_reason, fit.iterations) == \
        (xi.e_max, xi.gap, xi.stop_reason, xi.iterations)
    assert np.array_equal(fit.denom_coeffs, xi.denom_coeffs)
    assert all(np.array_equal(a, b) for a, b in zip(fit.numer_coeffs, xi.numer_coeffs))
    _check_skipped_degrees_are_proven(report.escalation, fit.degrees.denominator, tol)


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig()  # neither problem nor manifest
    with pytest.raises(ValueError):
        RunConfig(problem="x", manifest="y")
    for tol in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tol"):
            RunConfig(problem="x", tol=tol)
    with pytest.raises(ValueError):
        RunConfig(problem="x", solver="qz")
    with pytest.raises(ValueError, match="seed"):
        RunConfig(problem="x", seed=-1)
    with pytest.raises(ValueError, match="subspace"):
        RunConfig(problem="x", subspace=0)
    # a truthy string would run on the half-disk and be reported as given
    for bad in ("false", 1, None):
        with pytest.raises(ValueError, match="half_disk"):
            RunConfig(problem="x", half_disk=bad)
    # a (1, 1) fit needs 2k + 2 = 4 boundary nodes
    for nodes in (0, 1, 3):
        with pytest.raises(ValueError, match="nodes"):
            RunConfig(problem="x", nodes=nodes)
    RunConfig(problem="x", nodes=4)
    # counts must be integers: nodes=60.5 would sample off the circle, the
    # others would fail deep in the pipeline
    for field in ("nodes", "max_degree", "subspace", "seed"):
        for bad in (60.5, 7.0, True, "8"):
            with pytest.raises(ValueError, match=field):
                RunConfig(problem="x", **{field: bad})
        RunConfig(problem="x", **{field: np.int64(60)})


@pytest.mark.parametrize("field, bad", [
    ("radius", -1.0), ("radius", 0.0), ("radius", float("nan")), ("radius", float("inf")),
    ("radius", True), ("radius", "2"), ("radius", 1 + 0j),
    ("center", complex(float("nan"), 0)), ("center", complex(0, float("inf"))),
    ("center", float("-inf")), ("center", True), ("center", "1,2"),
])
def test_config_rejects_a_bad_region_override(field, bad):
    # rejected at construction, with Region's message, before a problem is
    # resolved; a str center used to escape as a TypeError from np.isfinite
    with pytest.raises(ValueError, match=f"region {field} must be"):
        RunConfig(manifest="no/such/manifest.json", **{field: bad})


def test_config_accepts_region_overrides_of_any_number_type():
    for center in (0, -2.5, 1 - 3j, np.float64(1.0), np.complex128(2j)):
        RunConfig(problem="x", center=center)
    for radius in (1, 0.5, np.float64(3.0), np.int64(2)):
        RunConfig(problem="x", radius=radius)


def test_main_rejects_a_negative_radius_before_reading_the_manifest(capsys):
    status = main(["--manifest", "no/such/manifest.json", "--radius", "-1"])
    assert status == 1
    assert capsys.readouterr() == (
        "", "nepsolve: error: region radius must be positive and finite\n")


@pytest.mark.parametrize("override, field", [
    ({"radius": float("inf")}, "radius"),
    ({"center": complex(float("nan"), 0)}, "center"),
], ids=["inf_radius", "nan_center"])
def test_run_rejects_non_finite_region(override, field):
    # the region fails before any sampling, not in the basis build
    with pytest.raises(ValueError, match=f"region {field}"):
        run(RunConfig(problem="example1", **override))


def test_parser_defaults_are_run_config_defaults():
    args = build_parser().parse_args(["--problem", "x"])
    assert RunConfig(**vars(args)) == RunConfig(problem="x")
    assert args.subspace == SUBSPACE_START


def test_parser_flags():
    parser = build_parser()
    args = parser.parse_args([
        "--problem", "hadeler", "--center=-30,0", "--radius", "11.5",
        "--nodes", "50", "--tol", "1e-10", "--max-degree", "8",
        "--solver", "filter", "--subspace", "60", "--seed", "3"])
    assert args.problem == "hadeler"
    assert args.center == complex(-30, 0)
    assert args.subspace == 60
    assert args.half_disk is False
    # the filter's quadrature order and shift are not command-line options,
    # and JSON is the only report format
    for flag in (["--filter-order", "8"], ["--shift", "1.5,2.5"],
                 ["--format", "csv"]):
        with pytest.raises(SystemExit):
            parser.parse_args(["--problem", "hadeler"] + flag)


def test_main_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    status = main(["--problem", "time_delay2", "--nodes", "40", "--tol", "1e-6",
                   "--max-degree", "10", "--out", str(out)])
    assert status == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["problem"] == "time_delay2"
    assert sum(r["in_region"] for r in doc["eigen"]) == 5
    # the stderr summary names the fit the report carries
    approx = doc["approx"]
    summary = capsys.readouterr().err
    assert f"degree {approx['degree']}," in summary
    assert f"sqrt_e={approx['sqrt_e']:.3e}," in summary


def test_main_stdout_json(capsys):
    status = main(["--problem", "time_delay2", "--nodes", "40", "--tol", "1e-5",
                   "--max-degree", "10"])
    assert status == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["problem"] == "time_delay2"


@pytest.mark.parametrize("solver", ["dense", "filter"])
def test_degree_one_fit_with_a_negligible_leading_coefficient_is_a_fit_miss(
        solver, capsys):
    # the degree-1 fit misses tol and its A_1 is below TRIM_RTOL of A_0: the
    # pencil keeps degree 1, so the run reports the miss (exit 2) and does not
    # reject its input (exit 1) with "constant polynomial has no pencil"
    status = main(["--problem", "example1", "--nodes", "10", "--tol", "1e-2",
                   "--max-degree", "1", "--solver", solver])
    captured = capsys.readouterr()
    assert status == EXIT_FIT_MISS and captured.err == ""
    doc = json.loads(captured.out)
    assert doc["approx"]["degree"] == 1 and not doc["approx"]["met_target"]
    assert doc["approx"]["sqrt_e"] > 1e-2
    assert doc["solver"]["kind"] == solver and doc["solver"]["converged"]
    assert doc["eigen"] == []


@pytest.mark.parametrize("solver", ["dense", "filter"])
def test_an_eigenvalue_where_every_term_vanishes_has_residual_zero(solver, capsys,
                                                                    tmp_path):
    # T(x) = x: at the eigenvalue 0 the normalized residual's scale
    # sum |t_i(0)| ||E_i||_1 is 0, and T(0) is the zero matrix
    manifest = tmp_path / "x.json"
    manifest.write_text(json.dumps({
        "name": "x", "terms": [{"kind": "monomial", "params": {"power": 1}}],
        "matrices": [{"inline": [[1]]}], "region": {"center": [0.5, 0], "radius": 3}}))
    status = main(["--manifest", str(manifest), "--nodes", "57", "--max-degree", "1",
                   "--solver", solver])
    assert status == EXIT_OK
    [pair] = json.loads(capsys.readouterr().out)["eigen"]
    assert (pair["re"], pair["im"], pair["residual"], pair["normalized_residual"]) == \
        (0.0, 0.0, 0.0, 0.0)


def _load_tracer(monkeypatch):
    # the benchmark's tracer, loaded from its file as the benchmark runs it
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    return tracer


def _load_report_dump(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool extends it
    path = pathlib.Path(__file__).parents[1] / "tools" / "report_dump.py"
    spec = importlib.util.spec_from_file_location("report_dump", path)
    dump = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(dump)
    return dump


def test_report_dump_compare_matches_eigenvalues_as_sets(monkeypatch, tmp_path, capsys):
    # tools/report_dump.py --compare pairs eigenvalues whatever their order,
    # prints each differing path, and fails only on an exact value
    dump = _load_report_dump(monkeypatch)
    rows = [{"re": 1.0, "im": 2.0, "residual": 1e-12},
            {"re": -1.0, "im": 0.5, "residual": 2e-12}]
    a = {"run": {"eigen": rows, "poles": [[0.5, 1.0], [3.0, 0.0]],
                 "solver": {"iterations": 2}}}
    b = {"run": {"eigen": [dict(rows[1], residual=3e-12), rows[0]],
                 "poles": [[3.0, 0.0], [0.5, 1.0]],
                 "solver": {"iterations": 2, "ghosts": 0}}}
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    assert dump.compare(pa, pb) == 0
    assert capsys.readouterr().out.splitlines() == [
        "run.solver.ghosts: only in B",
        "run.eigen[*].residual: max relative difference 3.333e-01 "
        "(max absolute 1.000e-12)"]
    b["run"]["solver"]["iterations"] = 3
    pb.write_text(json.dumps(b))
    assert dump.compare(pa, pb) == 1
    assert "run.solver.iterations: 2 != 3" in capsys.readouterr().out


def test_report_dump_compare_prints_how_much_a_value_grew(monkeypatch, tmp_path, capsys):
    # a relative difference cannot pass 1: a residual 400x larger also
    # prints its growth factor, one under 2x does not
    dump = _load_report_dump(monkeypatch)
    a = {"run": {"residual": 5.0e-11, "bound": 4.0e-6, "tol": 1e-10}}
    b = {"run": {"residual": 2.0e-8, "bound": 6.0e-6, "tol": 1e-10}}
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    assert dump.compare(pa, pb) == 0
    assert capsys.readouterr().out.splitlines() == [
        "run.bound: max relative difference 3.333e-01 (max absolute 2.000e-06)",
        "run.residual: max relative difference 9.975e-01 "
        "(max absolute 1.995e-08, growth factor 4.0e+02)"]


def test_report_dump_compare_prints_differing_degree_sequences_once(
        monkeypatch, tmp_path, capsys):
    # two escalations of one length but other degrees are not compared by
    # position (which would set degree 4's fields against degree 1's): one
    # exact line prints both sequences; equal sequences compare by position
    dump = _load_report_dump(monkeypatch)

    def steps(degrees, sqrt_d):
        return [{"degree": k, "stop_reason": "gap", "sqrt_d": sqrt_d * k}
                for k in degrees]

    a = {"run": {"escalation": steps([4, 2, 3], 1e-3), "tol": 1e-10}}
    b = {"run": {"escalation": steps([1, 2, 3], 1e-3), "tol": 1e-10}}
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    assert dump.compare(pa, pb) == 1
    assert capsys.readouterr().out.splitlines() == [
        "run.escalation[*].degree: [4, 2, 3] != [1, 2, 3]"]
    b["run"]["escalation"] = steps([4, 2], 1e-3)
    pb.write_text(json.dumps(b))
    assert dump.compare(pa, pb) == 1
    assert capsys.readouterr().out.splitlines() == [
        "run.escalation[*].degree: [4, 2, 3] != [4, 2]"]
    b["run"]["escalation"] = steps([4, 2, 3], 2e-3)
    pb.write_text(json.dumps(b))
    assert dump.compare(pa, pb) == 0
    assert capsys.readouterr().out.splitlines() == [
        "run.escalation[*].sqrt_d: max relative difference 5.000e-01 "
        "(max absolute 4.000e-03)"]


def test_tracer_targets_exist(monkeypatch):
    # the benchmark's tracer patches these attributes from outside; a
    # renamed or removed one would only show up in a traced benchmark run
    tracer = _load_tracer(monkeypatch)
    targets = tracer._targets()
    assert targets
    for owner, attr, _name, _note in targets:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


@pytest.mark.parametrize("module", [m.name for m in pkgutil.iter_modules(nepsolve.__path__)])
def test_every_exported_name_resolves(module):
    # a deleted function must not leave its name behind in __all__
    mod = importlib.import_module(f"nepsolve.{module}")
    assert mod.__all__
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_tracer_records_the_filter_layers_and_restores_the_originals(monkeypatch):
    # a traced filter run times the filter, the pole factorizations, the
    # block solves and the extraction; afterwards every patch is undone
    tracer = _load_tracer(monkeypatch)
    before = [getattr(owner, attr) for owner, attr, _, _ in tracer._targets()]
    spans = tracer.Tracer()
    with tracer.installed(spans):
        run(RunConfig(problem="time_delay2", nodes=50, tol=1e-7, max_degree=12,
                      solver="filter"))
    after = [getattr(owner, attr) for owner, attr, _, _ in tracer._targets()]
    assert all(a is b for a, b in zip(before, after))
    names = {span.name for span in spans.spans}
    assert {"filters.apply", "pencil.factor", "pencil.block_solve",
            "eigensolve.extract"} <= names


@pytest.mark.parametrize("solver, layer, other", [
    ("dense", "eigensolve.dense", "filters.sif"),
    ("filter", "filters.sif", "eigensolve.dense"),
])
def test_tracer_sees_every_stage_of_run(solver, layer, other, monkeypatch):
    # the tracer patches names on nepsolve.cli: a stage that reached one by
    # another route would leave its layer at 0 in a traced benchmark run
    tracer = _load_tracer(monkeypatch)
    spans = tracer.Tracer()
    with tracer.installed(spans):
        report = run(RunConfig(problem="time_delay2", nodes=50, tol=1e-7,
                               max_degree=12, solver=solver))
    calls = collections.Counter(span.name for span in spans.spans)
    assert calls["lawson.fit"] == len(report.escalation)
    # the denominator's roots, then each numerator's
    assert calls["pencil.poly_roots"] == 1 + len(report.fit.numer_coeffs)
    # assemble and build_pencil
    assert calls["pencil.assemble"] == 2
    assert calls["problems.load"] == calls["eigensolve.pole_check"] == 1
    assert calls["eigensolve.extract"] >= 1
    assert calls[layer] == 1 and calls[other] == 0


def test_run_example1_recovers_spectrum(monkeypatch):
    from util import cluster_points

    # count sweeps through the module attribute, as outside tracing does
    lawson_module = importlib.import_module("nepsolve.lawson")
    dual_value = lawson_module.dual_value
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return dual_value(*args, **kwargs)

    monkeypatch.setattr(lawson_module, "dual_value", counted)
    report = run(RunConfig(problem="example1", nodes=100, tol=1e-10,
                           max_degree=30))
    # degrees that provably miss tol are given up and the others stop once
    # their duality gap closes: 28 degrees at about 500 sweeps each would
    # take over 13,000
    assert len(calls) < 300
    assert report.fit_met_target and report.pole_free
    assert report.exit_status == EXIT_OK
    # at the interpolation floor the duality gap is rounding noise, so the
    # report leaves it out
    approx = json.loads(emit(report))["approx"]
    assert approx["stop_reason"] == "interp_floor"
    assert approx["converged"] is True and approx["gap"] is None
    # exp(i x^2) is not conjugate-symmetric, so the fit and pencil stay complex
    assert np.iscomplexobj(report.fit.denom_coeffs)
    assert report.to_json_dict()["solver"]["arithmetic"] == "complex"
    refs = np.array([0.0, np.sqrt(2 * np.pi), -np.sqrt(2 * np.pi),
                     1j * np.sqrt(2 * np.pi), -1j * np.sqrt(2 * np.pi)])
    lams = [p.lam for p in report.in_region]
    clusters = cluster_points(lams, radius=1e-4)
    assert len(clusters) == 5
    for ref in refs:
        assert min(abs(cl.mean() - ref) for cl in clusters) < 1e-7


def test_run_hadeler_filter_path():
    report = run(RunConfig(problem="hadeler", nodes=50, tol=1e-10,
                           max_degree=8, solver="filter", subspace=60, seed=0))
    assert report.fit_met_target
    assert report.solver == "filter"
    assert report.solver_converged
    assert report.exit_status == EXIT_OK
    assert report.to_json_dict()["solver"] == {
        "kind": "filter", "converged": True, "path": "filter",
        "iterations": report.solver_info["iterations"], "subspace": 60,
        "stop_reason": "converged", "ghosts": 0, "quad_order": 16, "factorizations": 8,
        "block_solves": 8 * report.solver_info["iterations"], "arithmetic": "real",
        "on_poles": 0, "over_bound": 0}
    assert 1 <= report.solver_info["iterations"] <= 30
    inreg = report.in_region
    assert len(inreg) > 0
    # converged classification: every in-region pair passed sigma < 1e-4,
    # i.e. residual below (|c| + r) * tol_residual = 41.5e-4
    assert all(p.residual < 41.5 * 1e-4 for p in inreg)


@pytest.fixture(scope="module")
def hadeler_filter_reports(tmp_path_factory):
    # default width: no --subspace, so the block grows from SUBSPACE_START
    reports = {}
    for n in (100, 200):
        path = save_manifest(hadeler(n=n),
                             str(tmp_path_factory.mktemp("m") / f"hadeler{n}.json"))
        reports[n] = run(RunConfig(manifest=path, nodes=50, tol=1e-10,
                                   max_degree=8, solver="filter", seed=0))
    return reports


def test_default_width_grows_and_matches_dense(hadeler_filter_reports,
                                               hadeler_bundle):
    # hadeler(200) has 14 in-region eigenvalues, so 16 columns are too few
    # for the growth rule: the block grows to 14 + 8 = 22
    report = hadeler_filter_reports[200]
    solver = report.to_json_dict()["solver"]
    assert solver["subspace"] > SUBSPACE_START
    assert solver["converged"] and solver["stop_reason"] == "converged"
    assert report.exit_status == EXIT_OK
    lam = [p.lam for p in report.in_region]
    dense = [p.lam for p in hadeler_bundle.in_region]
    assert len(lam) == len(dense) == 14
    assert match_sets(lam, dense, 1e-8)


@pytest.mark.parametrize("n", [100, 200])
def test_default_width_filter_residuals_within_bound(hadeler_filter_reports, n):
    # the filter iterates until every in-region pair meets the bound
    report = hadeler_filter_reports[n]
    assert report.solver_converged and report.in_region
    assert all(p.residual <= report.bound for p in report.in_region)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_example1_filter_pairs_meet_the_bound(seed):
    # the filter's residual target is the run's a priori bound, not a fixed
    # 1e-4: a Ritz value 5e-9 off would stop above it
    report = run(RunConfig(problem="example1", solver="filter", seed=seed))
    assert report.solver_info["stop_reason"] == "converged"
    assert len(report.in_region) == 6
    assert all(p.residual <= report.bound for p in report.in_region)
    assert report.exit_status == EXIT_OK


def test_filter_stalls_on_a_bound_below_the_pencil_residual():
    # the pencil's own eigenpairs miss this bound (dense: 1.05e-8 against
    # 1.85e-9), so the residuals stop falling short of it: sif stops
    # stalled, before its budget, and the run is no solver success
    report = run(RunConfig(problem="example1", solver="filter", nodes=60, tol=1e-8))
    solver = report.to_json_dict()["solver"]
    assert solver["stop_reason"] == "stalled" and not solver["converged"]
    assert solver["iterations"] < filters.SIF_MAX_ITERS
    assert solver["over_bound"] == sum(p.residual > report.bound
                                       for p in report.eigenpairs) >= 1
    assert report.exit_status == EXIT_SOLVER_MISS


def test_dense_pairs_over_the_bound_are_no_solver_success():
    # the same pencil's eigenpairs, reported by the dense path: each reaches
    # only 1.05e-8 against a bound of 1.85e-9, so the solver did not converge
    report = run(RunConfig(problem="example1", nodes=60, tol=1e-8))
    assert report.solver == "dense" and report.in_region
    assert min(p.residual for p in report.in_region) > report.bound
    solver = report.to_json_dict()["solver"]
    assert not solver["converged"]
    # the report says how many pairs miss the bound: here every one
    assert solver["over_bound"] == len(report.eigenpairs) >= 1
    assert report.exit_status == EXIT_SOLVER_MISS


def test_benchmark_hadeler_pairs_are_within_the_bound(tmp_path):
    # the hadeler100_dense workload: every reported pair meets the bound
    manifest = save_manifest(hadeler(n=100), str(tmp_path / "hadeler.json"))
    report = run(RunConfig(manifest=manifest, nodes=50, tol=1e-10, max_degree=6))
    solver = report.to_json_dict()["solver"]
    assert solver["kind"] == "dense" and solver["converged"]
    assert solver["over_bound"] == 0 and len(report.eigenpairs) == 5
    assert report.exit_status == EXIT_OK


def test_filter_budget_reported_and_exit_status(monkeypatch):
    # one sweep cannot show a stable in-region count; the in-region ghosts it
    # leaves are dropped, and counted
    monkeypatch.setattr(filters, "SIF_MAX_ITERS", 1)
    report = run(RunConfig(problem="time_delay2", nodes=40, tol=1e-6,
                           max_degree=10, solver="filter", subspace=3))
    assert report.to_json_dict()["solver"] == {
        "kind": "filter", "converged": False, "path": "filter",
        "iterations": 1, "subspace": 3, "stop_reason": "budget", "ghosts": 3,
        "quad_order": 16, "factorizations": 8, "block_solves": 8, "arithmetic": "real",
        "on_poles": 0, "over_bound": 0}
    assert report.eigenpairs == []
    assert report.exit_status == EXIT_SOLVER_MISS


def test_auto_solver_choice_follows_the_dense_dim_limit(monkeypatch):
    dims = []
    build_pencil = cli.build_pencil

    def recorded(poly):
        pencil = build_pencil(poly)
        dims.append(pencil.dim)
        return pencil

    monkeypatch.setattr(cli, "build_pencil", recorded)
    config = RunConfig(problem="time_delay2", nodes=40, tol=1e-6, max_degree=10)
    run(config)
    dim = dims[0]
    for limit, solver in ((dim - 1, "filter"), (dim, "dense"), (dim + 1, "dense")):
        monkeypatch.setattr(cli, "DENSE_DIM_LIMIT", limit)
        assert run(config).solver == solver


def test_solver_converged_needs_every_pair_within_the_bound(monkeypatch):
    # one rule on both paths: a filter run that stops "converged" with a
    # pair over the bound is no solver success
    config = RunConfig(problem="time_delay2", nodes=40, tol=1e-6, max_degree=10,
                       solver="filter")
    report = run(config)
    assert report.solver_converged and report.solver_info["over_bound"] == 0
    bound = report.bound
    sif = cli.sif

    def one_pair_over(*args):
        result = sif(*args)
        assert result.converged
        worse = dataclasses.replace(result.eigenpairs[0], residual=10 * bound)
        return dataclasses.replace(result, eigenpairs=[worse, *result.eigenpairs[1:]])

    monkeypatch.setattr(cli, "sif", one_pair_over)
    report = run(config)
    assert report.solver_info["stop_reason"] == "converged"
    assert report.solver_info["over_bound"] == 1
    assert report.to_json_dict()["solver"]["converged"] is False
    assert report.exit_status == EXIT_SOLVER_MISS


def test_filter_small_start_width_grows_and_converges():
    # three columns cannot hold time_delay2's five in-region eigenvalues, so
    # the block grows until they fit
    report = run(RunConfig(problem="time_delay2", nodes=40, tol=1e-6,
                           max_degree=10, solver="filter", subspace=3))
    assert report.solver_converged
    assert report.solver_info["stop_reason"] == "converged"
    assert report.solver_info["subspace"] > 3
    assert len(report.in_region) == 5
    assert all(p.residual <= report.bound for p in report.in_region)
    assert report.exit_status == EXIT_OK


def _sparse_manifest(path, seed, tridiagonal):
    # the criterion-7 family at n = 1000 (the sparse1000_filter workload at
    # the same seed): A tridiagonal, C and D with 2 seeded entries a row, or
    # seeded tridiagonals for a sparse P whose LU has almost no fill
    import scipy.sparse as sp

    n = 1000
    rng = np.random.default_rng(seed)
    A = (sp.diags(np.arange(1, n + 1).astype(complex))
         + sp.diags([0.3 * np.ones(n - 1), 0.3 * np.ones(n - 1)], [-1, 1]))
    if tridiagonal:
        C, D = (sp.diags([rng.standard_normal(n - 1), rng.standard_normal(n),
                          rng.standard_normal(n - 1)], [-1, 0, 1]) for _ in "CD")
    else:
        C, D = (sp.random(n, n, density=0.002, random_state=rng) for _ in "CD")
    nep = nepsolve.SplitFormNEP(
        "sparse", [nepsolve.constant(1.0), nepsolve.monomial(1, -1.0),
                   nepsolve.exp_affine(-1.0), nepsolve.monomial(2)],
        [A.tocsr(), sp.identity(n, format="csr", dtype=complex),
         (C.tocsr() * 0.5).astype(complex), (D.tocsr() * 1e-3).astype(complex)],
        nepsolve.Region(5.5 + 0j, 2.6))
    return save_manifest(nep, str(path))


@pytest.fixture(scope="module")
def sparse_manifests(tmp_path_factory):
    root = tmp_path_factory.mktemp("sparse")
    return {fill: _sparse_manifest(root / f"{fill}.json", 1, fill == "low")
            for fill in ("high", "low")}


def _sparse_run(manifest, **kwargs):
    return run(RunConfig(manifest=manifest, nodes=60, tol=1e-9, max_degree=8,
                         solver="filter", seed=1, **kwargs))


# seed 1's six in-region eigenvalues, by Newton on the exact T(x) from the
# eigenvalues of A (perfbench/workloads.py:sparse_reference)
SPARSE_SEED1 = [2.999943267434219, 3.9999995658412497, 4.999999998025381,
                5.999999999993932, 6.999999999999987, 8.000000000000211]


@pytest.mark.parametrize("fill", ["high", "low"])
def test_sparse_polynomial_runs_eight_poles(sparse_manifests, fill):
    # every E_i sparse: k = 8, so the real pencil factors 4 poles, not 8,
    # whether each pole LU keeps about 289 entries a row or, with tridiagonal
    # C and D, about 4
    report = _sparse_run(sparse_manifests[fill])
    solver = report.to_json_dict()["solver"]
    assert solver["quad_order"] == 8 and solver["arithmetic"] == "real"
    assert solver["factorizations"] == 4
    assert solver["block_solves"] == 4 * solver["iterations"]
    assert report.exit_status == EXIT_OK
    if fill == "high":
        assert match_sets([p.lam for p in report.in_region], SPARSE_SEED1, 1e-6)


@pytest.mark.parametrize("n", [100, 200])
def test_dense_polynomial_runs_sixteen_poles(hadeler_filter_reports, n):
    solver = hadeler_filter_reports[n].to_json_dict()["solver"]
    assert solver["quad_order"] == 16 and solver["factorizations"] == 8


@pytest.mark.parametrize("fill, k", [("high", 16), ("low", 16), ("high", 4)])
def test_explicit_quad_order_is_honoured(monkeypatch, sparse_manifests, fill, k):
    monkeypatch.setattr(cli, "SIFConfig", functools.partial(SIFConfig, quad_order=k))
    solver = _sparse_run(sparse_manifests[fill]).to_json_dict()["solver"]
    assert solver["quad_order"] == k and solver["factorizations"] == k // 2


@pytest.mark.parametrize("center, radius, want", [(5, 0.6, [4.999999998025381]),
                                                  (7, 0.6, [6.999999999999987]),
                                                  (5.5, 0.4, [])])
def test_eight_poles_stop_converged_only_on_the_full_count(sparse_manifests, center,
                                                           radius, want):
    # at k = 8 the weaker filter's first sweep can see none of the pairs
    # inside (it does on the default region); no run may stop converged with
    # fewer pairs than the region holds, one here, or none
    report = _sparse_run(sparse_manifests["high"], center=center, radius=radius)
    solver = report.to_json_dict()["solver"]
    assert solver["quad_order"] == 8 and solver["stop_reason"] == "converged"
    assert len(report.in_region) == len(want)
    assert match_sets([p.lam for p in report.in_region], want, 1e-6)
    assert report.exit_status == EXIT_OK


def test_in_region_pole_exit_status(monkeypatch, tmp_path):
    poly_roots = cli.poly_roots

    def with_fake_pole(coeffs, basis):
        # an extra root inside time_delay2's region, away from its eigenvalues
        return np.append(poly_roots(coeffs, basis), 0.5 + 1.5j)

    monkeypatch.setattr(cli, "poly_roots", with_fake_pole)
    out = tmp_path / "report.json"
    status = main(["--problem", "time_delay2", "--nodes", "40", "--tol", "1e-6",
                   "--max-degree", "10", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["pole_free"] is False
    assert doc["approx"]["met_target"] and doc["solver"]["converged"]
    assert status == EXIT_POLES
    # a fit miss keeps precedence over an in-region pole
    report = run(RunConfig(problem="time_delay2", nodes=30, tol=1e-16,
                           max_degree=3))
    assert not report.pole_free
    assert report.exit_status == EXIT_FIT_MISS


@pytest.mark.parametrize("solver", ["dense", "filter"])
def test_pair_on_an_in_region_pole_is_dropped_and_counted(solver, monkeypatch,
                                                          tmp_path):
    # a pole of the fit at a computed eigenvalue: on either path that pair
    # is an artifact of the surrogate, left out of the report and counted
    args = ["--problem", "time_delay2", "--nodes", "40", "--tol", "1e-6",
            "--max-degree", "10", "--solver", solver]
    out = tmp_path / "report.json"
    assert main(args + ["--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    lam = complex(doc["eigen"][0]["re"], doc["eigen"][0]["im"])
    poly_roots = cli.poly_roots
    monkeypatch.setattr(cli, "poly_roots",
                        lambda coeffs, basis: np.append(poly_roots(coeffs, basis), lam))
    assert main(args + ["--out", str(out)]) == EXIT_POLES
    dropped = json.loads(out.read_text())
    assert dropped["solver"]["on_poles"] == 1
    assert len(dropped["eigen"]) == len(doc["eigen"]) - 1
    assert lam not in [complex(row["re"], row["im"]) for row in dropped["eigen"]]


@pytest.mark.parametrize("args, message", [
    (["--problem", "example1", "--tol=-1"], "tol must be positive and finite"),
    (["--problem", "nosuch"], "unknown built-in problem 'nosuch'"),
    (["--manifest", "missing.json"], "missing.json: cannot read manifest"),
    (["--manifest", "broken.json"], "broken.json:1: invalid JSON"),
    # on a circle of radius 1e-300 the basis breaks down at degree 1
    (["--problem", "example1", "--radius", "1e-300"],
     "the 100 boundary nodes cannot carry a fit of degree 1"),
    # exp(-x) overflows on the far side of the circle, without a warning
    (["--problem", "time_delay2", "--radius", "1e3"], "term t3 is not finite at node "),
], ids=["negative_tol", "unknown_problem", "missing_manifest", "malformed_manifest",
        "no_fittable_degree", "samples_overflow"])
def test_rejected_input_is_one_line_and_exit_1(args, message, capsys, tmp_path,
                                               monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "broken.json").write_text("{not json")
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("nepsolve: error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("argv, message", [
    (["--problem", "example1", "--solver", "qz"], "argument --solver: invalid choice: 'qz'"),
    (["--problem", "example1", "--nodes", "abc"], "argument --nodes: invalid int value"),
    ([], "one of the arguments --problem --manifest is required"),
], ids=["unknown_solver", "non_integer_nodes", "no_problem"])
def test_usage_error_is_one_line_and_exit_1(argv, message, capsys):
    # exit 2 is a fit miss; argparse's own usage errors would exit 2 after a
    # usage block
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("nepsolve: error: ") and err.count("\n") == 1
    assert message in err


def test_run_rejects_samples_that_are_not_finite():
    with pytest.raises(ValueError, match=r"term t3 is not finite at node \d+, x = "):
        run(RunConfig(problem="time_delay2", radius=1e3))


def test_a_target_near_the_float_limit_runs_without_a_warning(tmp_path, capsys):
    # the suite turns warnings into errors: the give-up level's square overflows
    report = run(RunConfig(problem="example1", nodes=20, tol=1e300))
    assert report.fit_met_target and report.fit.degrees.denominator == 1
    out = tmp_path / "r.json"
    assert main(["--problem", "example1", "--nodes", "20", "--tol", "1e300",
                 "--out", str(out)]) == report.exit_status
    assert capsys.readouterr().err.count("\n") == 1  # the summary line only
    assert json.loads(out.read_text())["approx"]["degree"] == 1


def test_a_term_that_vanishes_on_every_node_has_no_zeros(tmp_path):
    nep = nepsolve.SplitFormNEP(
        "zero_term", [nepsolve.constant(0.0), nepsolve.constant(1.0), nepsolve.monomial(1)],
        [np.array([[1.0, 2.0], [3.0, 4.0]]), np.diag([-1.0, -2.0]), np.eye(2)],
        nepsolve.Region(0j, 3.0))
    report = run(RunConfig(manifest=save_manifest(nep, str(tmp_path / "z.json")),
                           nodes=20, tol=1e-8, max_degree=4))
    assert not report.fit.numer_coeffs[0].any()
    assert report.zeros["t1"].size == 0
    assert match_sets([p.lam for p in report.in_region], [1.0, 2.0], 1e-12)


def test_a_failed_root_solve_fails_the_run(monkeypatch):
    # numpy's LinAlgError is a ValueError, but a numerator whose root solve
    # fails is not a term without zeros: the run fails with the solver's error
    eigvals, sizes = np.linalg.eigvals, []

    def fails_on_a_companion(a):
        if len(a) <= 12:  # every companion here; the pencil has 20 rows
            sizes.append(len(a))
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", fails_on_a_companion)
    with pytest.raises(EigensolverError, match="failed to converge"):
        run(RunConfig(problem="time_delay2", nodes=50, tol=1e-7, max_degree=12))
    assert sizes == [10]  # the first numerator's; the denominator ran QZ


def _assert_solve_failed(argv, message, capsys, tmp_path):
    # one stderr line, no traceback, no report on stdout or in --out
    out = tmp_path / "r.json"
    assert main(argv + ["--out", str(out)]) == EXIT_SOLVE_FAILED
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("nepsolve: error: ") and message in captured.err
    assert not out.exists()


def test_main_reports_a_failed_dense_solve_with_its_own_status(capsys, tmp_path,
                                                               monkeypatch):
    eigvals = np.linalg.eigvals

    def fails_on_a_companion(a):
        if len(a) <= 12:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", fails_on_a_companion)
    _assert_solve_failed(["--problem", "time_delay2", "--nodes", "50", "--tol", "1e-7",
                          "--max-degree", "12"], "failed to converge", capsys, tmp_path)


def test_main_reports_a_pole_on_the_spectrum_with_its_own_status(capsys, tmp_path):
    # T(x) = A - x I with an eigenvalue on quadrature pole 1 of 16: the filter
    # cannot factor P there, while the dense path solves the same run
    A = np.diag([np.exp(1j * np.pi / 16), 0.3, -0.2 + 0.1j])
    nep = nepsolve.SplitFormNEP("pole_hit", [nepsolve.constant(1.0), nepsolve.monomial(1)],
                                [A, -np.eye(3)], nepsolve.Region(0j, 1.0))
    argv = ["--manifest", save_manifest(nep, str(tmp_path / "p.json")), "--nodes", "40",
            "--tol", "1e-8", "--max-degree", "4"]
    _assert_solve_failed(argv + ["--solver", "filter"], "quadrature pole 1 of 16",
                         capsys, tmp_path)
    assert main(argv + ["--solver", "dense"]) == EXIT_OK


@pytest.mark.parametrize("name, message", [
    ("nosuch/r.json", "no such directory"),
    (".", "it is a directory"),
], ids=["missing_directory", "directory"])
def test_unwritable_out_fails_before_the_solve(name, message, capsys, tmp_path,
                                               monkeypatch):
    def no_run(config):
        pytest.fail("run() was called for an --out that cannot be written")

    monkeypatch.setattr(cli, "run", no_run)
    out = str(tmp_path / name)
    assert main(["--problem", "example1", "--out", out]) == 1
    assert capsys.readouterr() == ("", f"nepsolve: error: {out}: cannot write "
                                       f"report: {message}\n")


def test_failed_report_write_is_one_line_and_exit_1(time_delay_report, capsys,
                                                    tmp_path, monkeypatch):
    # the name passes the checks made before the solve, but open() fails
    monkeypatch.setattr(cli, "run", lambda config: time_delay_report)
    out = str(tmp_path / ("x" * 300))
    assert main(["--problem", "time_delay2", "--out", out]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and "Traceback" not in err
    assert err.startswith("nepsolve: error: ") and err.count("\n") == 1
    assert out in err


def test_src_lines_skips_blanks_comments_and_docstrings():
    path = pathlib.Path(__file__).parents[1] / "tools" / "src_lines.py"
    spec = importlib.util.spec_from_file_location("src_lines", path)
    src_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_lines)
    source = ('"""Module doc."""\n\nimport os  # why\n\n\ndef f():\n'
              '    """Doc\n    more."""\n    # note\n    return ("a"\n'
              '            "b")\n')
    # code: import, def and the two lines of the return
    assert src_lines.count(source) == (11, 4)


def _fresh_python(*args):
    # a new interpreter that imports nepsolve from the tree under test
    src = os.path.dirname(os.path.dirname(os.path.abspath(nepsolve.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300)


def test_dense_example1_run_never_imports_scipy():
    # the built-in dense path runs on numpy alone: a cold CLI call must not
    # pay for SciPy's import, in run() any more than in import nepsolve
    done = _fresh_python("-c", (
        "import sys, nepsolve\n"
        "nepsolve.builtin_problem('example1')\n"
        "report = nepsolve.run(nepsolve.RunConfig(problem='example1', solver='dense'))\n"
        "assert report.solver_info['path'] == 'geev', report.solver_info\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_python_dash_m_nepsolve_runs_without_a_warning():
    done = _fresh_python("-W", "default", "-m", "nepsolve", "--help")
    assert done.returncode == 0
    assert done.stdout.startswith("usage:")
    assert done.stderr == ""
