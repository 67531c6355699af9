"""Pipeline driver and command-line interface.

``run`` executes the full solve: sample the region boundary, escalate the
rational type (k, k) until the fit error target is met (giving up early on a
degree whose dual bound shows it cannot meet it), check the denominator for
in-region poles, linearize, and extract eigenpairs either by a dense solve
(geev on the standard form, QZ when that is ill conditioned) or by filtered
subspace iteration. ``emit`` serializes the resulting report as JSON or CSV.
"""

import argparse
import csv
import io
import json
import logging
import sys
import time
from dataclasses import dataclass

import numpy as np

from .eigensolve import (extract_nep_eigenpairs, pole_free_check,
                         refine_eigenvectors, solve_pencil_dense)
from .filters import SUBSPACE_START, SIFConfig, sif
from .lawson import DegreeSpec, RationalApproximant, SampleSet, lawson
from .pencil import (DENSE_DIM_LIMIT, assemble, build_pencil, error_bound,
                     gram_matrix, poly_roots)
from .problems import Region, builtin_problem, load_manifest, sample_boundary

__all__ = ["RunConfig", "EigenReport", "run", "emit", "main"]

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_FIT_MISS = 2
EXIT_SOLVER_MISS = 3
EXIT_POLES = 4


@dataclass
class RunConfig:
    """Everything a pipeline run needs; mirrors the CLI flags."""

    problem: str = None
    manifest: str = None
    center: complex = None
    radius: float = None
    half_disk: bool = False
    nodes: int = 100
    tol: float = 1e-10
    max_degree: int = 30
    solver: str = "auto"
    subspace: int = None
    seed: int = 0
    out: str = None
    fmt: str = "json"

    def __post_init__(self):
        if (self.problem is None) == (self.manifest is None):
            raise ValueError("exactly one of problem or manifest must be given")
        # written so that nan fails too
        if not 0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")
        # a (k, k) fit needs 2k + 2 nodes, so the smallest, (1, 1), needs 4
        if self.nodes < 4:
            raise ValueError("nodes must be at least 4")
        if self.max_degree < 1:
            raise ValueError("max_degree must be at least 1")
        if self.solver not in ("auto", "dense", "filter"):
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.fmt not in ("json", "csv"):
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.subspace is not None and self.subspace < 1:
            raise ValueError("subspace must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    def to_json(self):
        out = {}
        for key, val in self.__dict__.items():
            if isinstance(val, complex):
                val = [val.real, val.imag]
            out[key] = val
        return out


@dataclass
class EigenReport:
    """Pipeline output: eigenpairs, the fit they come from, bound, pole data, timings."""

    problem: str
    config: RunConfig
    eigenpairs: list
    fit: RationalApproximant
    fit_met_target: bool
    escalation: list
    bound: float
    pole_free: bool
    poles: np.ndarray
    zeros: dict
    solver: str
    solver_converged: bool
    # ``path`` (geev, qz or filter); on the dense paths the corner's rcond
    # and the count of eigenvalues ``outside`` the region, on the filter path
    # iterations, subspace and stop_reason; on both ``arithmetic``
    solver_info: dict
    timings: dict

    @property
    def in_region(self):
        return [p for p in self.eigenpairs if p.in_region]

    @property
    def exit_status(self):
        if not self.fit_met_target:
            return EXIT_FIT_MISS
        if not self.solver_converged:
            return EXIT_SOLVER_MISS
        return EXIT_OK if self.pole_free else EXIT_POLES

    def to_json_dict(self):
        return {
            "problem": self.problem,
            "config": self.config.to_json(),
            "approx": {"degree": self.fit.degrees.denominator,
                       "sqrt_e": float(np.sqrt(self.fit.e_max)),
                       # at the interpolation floor the gap is rounding noise
                       "gap": (None if self.fit.stop_reason == "interp_floor"
                               else self.fit.gap),
                       "iterations": self.fit.iterations,
                       "converged": self.fit.converged,
                       "met_target": self.fit_met_target,
                       "stop_reason": self.fit.stop_reason,
                       "escalation": self.escalation},
            "bound": self.bound,
            "pole_free": self.pole_free,
            "poles": [[z.real, z.imag] for z in np.asarray(self.poles)],
            "zeros": {name: [[z.real, z.imag] for z in roots]
                      for name, roots in self.zeros.items()},
            "eigen": [{
                "re": p.lam.real, "im": p.lam.imag,
                "residual": p.residual,
                "normalized_residual": p.normalized_residual,
                "in_region": p.in_region,
                "consistency": p.consistency,
            } for p in self.eigenpairs],
            "solver": {"kind": self.solver, "converged": self.solver_converged,
                       **self.solver_info},
            "timings": self.timings,
        }


def _resolve_problem(config):
    if config.manifest is not None:
        return load_manifest(config.manifest)
    return builtin_problem(config.problem)


def _resolve_region(config, nep):
    region = nep.region
    center = region.center if config.center is None else config.center
    radius = region.radius if config.radius is None else config.radius
    half = region.half_disk or config.half_disk
    return Region(center, radius, half)


def run(config):
    """Execute the full pipeline described by ``config``."""
    nep = _resolve_problem(config)
    region = _resolve_region(config, nep)
    nodes = sample_boundary(region, config.nodes)
    samples = SampleSet.from_nep(nep, nodes)
    pole_guard = 1e-6 * (1.0 + abs(region.center) + region.radius)

    # a (k, k) fit needs 2k + 2 nodes, which can cap the degree below max_degree
    last = min(config.max_degree, (samples.m - 2) // 2)
    t0 = time.perf_counter()
    escalation = []
    for k in range(1, last + 1):
        # every degree but the last may give up once it provably misses tol;
        # the last one is never given up, so a fit miss still reports its
        # best fit
        xi = lawson(samples, DegreeSpec((k,) * nep.s, k),
                    target=None if k == last else config.tol)
        # each step carries its proof: best error and largest dual bound
        sqrt_e = float(np.sqrt(xi.e_max))
        escalation.append({"degree": k, "sweeps": xi.iterations,
                           "stop_reason": xi.stop_reason, "sqrt_e": sqrt_e,
                           "sqrt_d": float(np.sqrt(max(t.d_w for t in xi.trace)))})
        fit_met = sqrt_e < config.tol
        if fit_met:
            break
    t_fit = time.perf_counter() - t0

    all_poles = poly_roots(xi.denom_coeffs, xi.basis)
    pole_free, in_region_poles = pole_free_check(all_poles, region)
    zeros = {}
    for i, a in enumerate(xi.numer_coeffs):
        try:
            zeros[f"t{i + 1}"] = poly_roots(a, xi.basis)
        except ValueError:  # a term that vanishes on every node
            zeros[f"t{i + 1}"] = np.empty(0, dtype=complex)

    t0 = time.perf_counter()
    poly = assemble(xi, nep)
    pencil = build_pencil(poly)
    t_pencil = time.perf_counter() - t0

    solver = config.solver
    if solver == "auto":
        solver = "dense" if pencil.dim <= DENSE_DIM_LIMIT else "filter"

    bound = error_bound(gram_matrix(nep), xi.e_max)
    t0 = time.perf_counter()
    if solver == "dense":
        pairs = solve_pencil_dense(pencil, region)
        eigenpairs = extract_nep_eigenpairs(pairs, xi.basis, nep, region)
        solver_converged = True
        solver_info = {"path": pairs.path, "rcond": pairs.rcond,
                       "outside": pairs.outside}
    else:
        result = sif(pencil, nep, region,
                     SIFConfig(subspace=config.subspace, seed=config.seed))
        eigenpairs = _refine_above(result.eigenpairs, bound, pencil, nep, region)
        solver_converged = result.converged
        solver_info = {"path": "filter", "iterations": result.iterations,
                       "subspace": result.subspace,
                       "stop_reason": "converged" if result.converged else "budget"}
    solver_info["arithmetic"] = "real" if pencil.is_real else "complex"
    t_solve = time.perf_counter() - t0

    if not pole_free:
        # where q* vanishes inside the region the polynomial and rational
        # spectra differ: pencil eigenvalues sitting on an in-region pole are
        # artifacts of the surrogate, not eigenvalues of the problem
        kept = []
        for p in eigenpairs:
            if np.min(np.abs(in_region_poles - p.lam)) < pole_guard:
                log.info("dropping eigenvalue %s: coincides with a pole of the fit",
                         p.lam)
                continue
            kept.append(p)
        eigenpairs = kept

    return EigenReport(
        problem=nep.name,
        config=config,
        eigenpairs=eigenpairs,
        fit=xi,
        fit_met_target=fit_met,
        escalation=escalation,
        bound=bound,
        pole_free=pole_free,
        poles=all_poles,
        zeros=zeros,
        solver=solver,
        solver_converged=solver_converged,
        solver_info=solver_info,
        timings={"fit": t_fit, "pencil": t_pencil, "solve": t_solve},
    )


def _refine_above(eigenpairs, bound, pencil, nep, region):
    # a Ritz vector's leading block can miss the a priori bound that its
    # eigenvalue meets; one inverse-iteration step on P(lam) mends it, so the
    # in-region filter pairs above the bound take that step and are
    # re-extracted
    weak = [p for p in eigenpairs if p.residual > bound]
    if not weak:
        return eigenpairs
    lam = np.array([p.lam for p in weak])
    V = refine_eigenvectors(pencil, lam, np.column_stack([p.u for p in weak]))
    refined = {p.lam: p for p in extract_nep_eigenpairs(
        (lam, V), pencil.poly.basis, nep, region)}
    return [refined.get(p.lam, p) for p in eigenpairs]


def emit(report, fmt=None, path=None):
    """Write the report as JSON or CSV; returns the text when no path is given."""
    fmt = fmt or report.config.fmt
    if fmt == "json":
        text = json.dumps(report.to_json_dict(), indent=2)
    elif fmt == "csv":
        buf = io.StringIO()
        doc = report.to_json_dict()
        for key in ("sqrt_e", "gap"):
            buf.write(f"# {key}={doc['approx'][key]!r}\n")
        buf.write(f"# bound={report.bound!r}\n")
        buf.write(f"# pole_free={report.pole_free}\n")
        writer = csv.writer(buf)
        writer.writerow(["re", "im", "residual", "normalized_residual",
                         "in_region", "consistency"])
        for row in doc["eigen"]:
            writer.writerow([repr(row["re"]), repr(row["im"]),
                             repr(row["residual"]),
                             repr(row["normalized_residual"]),
                             row["in_region"], repr(row["consistency"])])
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
        return path
    return text


def _parse_complex(text):
    re, _, im = text.partition(",")
    return complex(float(re), float(im) if im else 0.0)


def build_parser():
    # defaults are read from RunConfig so that each is stated once
    parser = argparse.ArgumentParser(
        prog="nepsolve",
        description="Solve a nonlinear eigenvalue problem on a disk (or "
                    "half-disk) by rational minimax fitting and linearization.")
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--problem", help="built-in problem name "
                                       "(example1, time_delay2, hadeler)")
    src.add_argument("--manifest", help="path to a problem manifest JSON")
    parser.add_argument("--center", type=_parse_complex, metavar="RE,IM",
                        help="region center override")
    parser.add_argument("--radius", type=float, help="region radius override")
    parser.add_argument("--half-disk", action="store_true",
                        help="restrict the region to the upper half-disk")
    parser.add_argument("--nodes", type=int, default=RunConfig.nodes, metavar="M",
                        help="boundary sample count (default %(default)s)")
    parser.add_argument("--tol", type=float, default=RunConfig.tol, metavar="EPS",
                        help="fit target for sqrt(e) (default %(default)s)")
    parser.add_argument("--max-degree", type=int, default=RunConfig.max_degree,
                        metavar="D", help="degree escalation cap (default %(default)s)")
    parser.add_argument("--solver", choices=("auto", "dense", "filter"),
                        default=RunConfig.solver)
    parser.add_argument("--subspace", type=int, metavar="N",
                        help="start the filter block at N columns; it grows with "
                             f"the in-region Ritz count (default {SUBSPACE_START})")
    parser.add_argument("--seed", type=int, default=RunConfig.seed, metavar="S")
    parser.add_argument("--out", metavar="PATH",
                        help="output file (default: print to stdout)")
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"),
                        default=RunConfig.fmt)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    config = RunConfig(**vars(args))
    report = run(config)
    if config.out is None:
        print(emit(report))
    else:
        emit(report, path=config.out)
        n_in = len(report.in_region)
        print(f"{report.problem}: degree {report.fit.degrees.denominator}, "
              f"sqrt_e={np.sqrt(report.fit.e_max):.3e}, "
              f"{n_in} in-region eigenvalue(s), "
              f"report written to {config.out}", file=sys.stderr)
    return report.exit_status


if __name__ == "__main__":
    sys.exit(main())
