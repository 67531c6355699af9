"""Pipeline driver, report emission, and command-line interface tests."""

import functools
import importlib
import importlib.util
import json
import pathlib
import sys

import numpy as np
import pytest

from nepsolve import (DegreeSpec, RunConfig, SampleSet, emit, hadeler, lawson,
                      run, sample_boundary, save_manifest)
from nepsolve import cli
from nepsolve.cli import (EXIT_FIT_MISS, EXIT_OK, EXIT_POLES, EXIT_SOLVER_MISS,
                          build_parser, main)
from nepsolve.eigensolve import STANDARD_FORM_RCOND
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
    assert doc["solver"] == {"kind": "dense", "converged": True, "path": "geev",
                             "rcond": rcond, "outside": outside,
                             "arithmetic": "real"}
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


def test_emit_json_csv_agree_to_17_digits(time_delay_report, tmp_path):
    jpath = emit(time_delay_report, fmt="json", path=str(tmp_path / "r.json"))
    cpath = emit(time_delay_report, fmt="csv", path=str(tmp_path / "r.csv"))
    with open(jpath) as fh:
        doc = json.load(fh)
    with open(cpath) as fh:
        lines = fh.readlines()
    rows = [l for l in lines if not l.startswith("#")]
    header = rows[0].strip().split(",")
    assert header == ["re", "im", "residual", "normalized_residual",
                      "in_region", "consistency"]
    assert len(rows) - 1 == len(doc["eigen"])
    for line, jrow in zip(rows[1:], doc["eigen"]):
        parts = line.strip().split(",")
        assert float(parts[0]) == jrow["re"]
        assert float(parts[1]) == jrow["im"]
        assert float(parts[2]) == jrow["residual"]
    # scalar fields present in the csv metadata
    meta = [l for l in lines if l.startswith("#")]
    assert any("sqrt_e=" in l for l in meta)
    assert any("gap=" in l for l in meta)
    assert any("bound=" in l for l in meta)


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
    doc_out = json.loads(emit(report, fmt="json"))
    assert not any(r["in_region"] for r in doc_out["eigen"])
    # a report with no eigenpairs at all still emits valid files
    import dataclasses

    bare = dataclasses.replace(report, eigenpairs=[])
    out = emit(bare, fmt="csv", path=str(tmp_path / "empty.csv"))
    with open(out) as fh:
        rows = [l for l in fh if not l.startswith("#")]
    assert len(rows) == 1  # header only
    assert json.loads(emit(bare, fmt="json"))["eigen"] == []


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
    assert emit(report, fmt="json")


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
    assert [step["degree"] for step in escalation] == list(range(1, k + 1))
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
    with pytest.raises(ValueError, match="format"):
        RunConfig(problem="x", fmt="xml")
    with pytest.raises(ValueError, match="seed"):
        RunConfig(problem="x", seed=-1)
    with pytest.raises(ValueError, match="subspace"):
        RunConfig(problem="x", subspace=0)
    # a (1, 1) fit needs 2k + 2 = 4 boundary nodes
    for nodes in (0, 1, 3):
        with pytest.raises(ValueError, match="nodes"):
            RunConfig(problem="x", nodes=nodes)
    RunConfig(problem="x", nodes=4)


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


def test_parser_flags():
    parser = build_parser()
    args = parser.parse_args([
        "--problem", "hadeler", "--center=-30,0", "--radius", "11.5",
        "--nodes", "50", "--tol", "1e-10", "--max-degree", "8",
        "--solver", "filter", "--subspace", "60", "--seed", "3",
        "--format", "csv"])
    assert args.problem == "hadeler"
    assert args.center == complex(-30, 0)
    assert args.subspace == 60
    assert args.fmt == "csv"
    assert args.half_disk is False
    # the filter's quadrature order and shift are not command-line options
    for flag in (["--filter-order", "8"], ["--shift", "1.5,2.5"]):
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


def test_tracer_targets_exist(monkeypatch):
    # the benchmark's tracer patches these attributes from outside; a
    # renamed or removed one would only show up in a traced benchmark run
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    targets = tracer._targets()
    assert targets
    for owner, attr, _name, _note in targets:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


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
    approx = json.loads(emit(report, fmt="json"))["approx"]
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
        "stop_reason": "converged", "arithmetic": "real"}
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
    # Ritz vectors of the narrow block miss the bound on hadeler(100) until
    # one inverse-iteration step on P(lam) refines them
    report = hadeler_filter_reports[n]
    assert report.solver_converged and report.in_region
    assert all(p.residual <= report.bound for p in report.in_region)


def test_filter_budget_reported_and_exit_status(monkeypatch):
    # one sweep cannot show a stable in-region count
    monkeypatch.setattr(cli, "SIFConfig", functools.partial(SIFConfig, max_iters=1))
    report = run(RunConfig(problem="time_delay2", nodes=40, tol=1e-6,
                           max_degree=10, solver="filter", subspace=3))
    assert report.to_json_dict()["solver"] == {
        "kind": "filter", "converged": False, "path": "filter",
        "iterations": 1, "subspace": 3, "stop_reason": "budget",
        "arithmetic": "real"}
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
