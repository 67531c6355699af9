"""Pipeline driver, report emission, and command-line interface tests."""

import json

import numpy as np
import pytest

from nepsolve import RunConfig, emit, run
from nepsolve.cli import EXIT_FIT_MISS, EXIT_OK, build_parser, main


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
    assert {"degree", "sqrt_e", "gap"} <= set(doc["approx"])
    assert set(doc["zeros"]) == {"t1", "t2", "t3"}
    row = doc["eigen"][0]
    assert {"re", "im", "residual", "normalized_residual", "in_region",
            "consistency"} <= set(row)
    assert {"fit", "pencil", "solve"} <= set(doc["timings"])
    json.dumps(doc)  # serializable


def test_emit_json_csv_agree_to_17_digits(time_delay_report, tmp_path):
    jpath = emit(time_delay_report, fmt="json", path=str(tmp_path / "r.json"))
    cpath = emit(time_delay_report, fmt="csv", path=str(tmp_path / "r.csv"))
    doc = json.loads(open(jpath).read())
    rows = [l for l in open(cpath) if not l.startswith("#")]
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
    meta = [l for l in open(cpath) if l.startswith("#")]
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
    rows = [l for l in open(out) if not l.startswith("#")]
    assert len(rows) == 1  # header only
    assert json.loads(emit(bare, fmt="json"))["eigen"] == []


def test_degree_exhaustion_flagged(tmp_path):
    config = RunConfig(problem="time_delay2", nodes=30, tol=1e-16, max_degree=3)
    report = run(config)
    assert not report.fit_met_target
    assert report.exit_status == EXIT_FIT_MISS
    # report still emitted with the best fit
    assert report.sqrt_e > 0
    assert emit(report, fmt="json")


def test_run_reports_reproducible(time_delay_report):
    config = RunConfig(problem="time_delay2", nodes=50, tol=1e-7, max_degree=12)
    again = run(config)
    a = time_delay_report.to_json_dict()
    b = again.to_json_dict()
    a.pop("timings"), b.pop("timings")
    assert a == b


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig()  # neither problem nor manifest
    with pytest.raises(ValueError):
        RunConfig(problem="x", manifest="y")
    with pytest.raises(ValueError):
        RunConfig(problem="x", tol=-1.0)
    with pytest.raises(ValueError):
        RunConfig(problem="x", solver="qz")
    with pytest.raises(ValueError, match="filter_order"):
        RunConfig(problem="x", filter_order=0)
    with pytest.raises(ValueError, match="subspace"):
        RunConfig(problem="x", subspace=0)


def test_parser_defaults_are_run_config_defaults():
    args = build_parser().parse_args(["--problem", "x"])
    assert RunConfig(**vars(args)) == RunConfig(problem="x")


def test_parser_flags():
    parser = build_parser()
    args = parser.parse_args([
        "--problem", "hadeler", "--center=-30,0", "--radius", "11.5",
        "--nodes", "50", "--tol", "1e-10", "--max-degree", "8",
        "--solver", "filter", "--filter-order", "16", "--subspace", "60",
        "--shift", "1.5,2.5", "--seed", "3", "--format", "csv"])
    assert args.problem == "hadeler"
    assert args.center == complex(-30, 0)
    assert args.shift == complex(1.5, 2.5)
    assert args.fmt == "csv"
    assert args.half_disk is False


def test_main_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    status = main(["--problem", "time_delay2", "--nodes", "40", "--tol", "1e-6",
                   "--max-degree", "10", "--out", str(out)])
    assert status == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["problem"] == "time_delay2"
    assert sum(r["in_region"] for r in doc["eigen"]) == 5


def test_main_stdout_json(capsys):
    status = main(["--problem", "time_delay2", "--nodes", "40", "--tol", "1e-5",
                   "--max-degree", "10"])
    assert status == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["problem"] == "time_delay2"


def test_run_example1_recovers_spectrum():
    from util import cluster_points

    report = run(RunConfig(problem="example1", nodes=100, tol=1e-10,
                           max_degree=30))
    assert report.fit_met_target and report.pole_free
    assert report.exit_status == EXIT_OK
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
    inreg = report.in_region
    assert len(inreg) > 0
    # converged classification: every in-region pair passed sigma < 1e-4,
    # i.e. residual below (|c| + r) * tol_residual = 41.5e-4
    assert all(p.residual < 41.5 * 1e-4 for p in inreg)
