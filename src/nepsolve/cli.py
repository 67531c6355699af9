"""Pipeline driver and command-line interface.

``run`` executes the full solve in stages: sample the region boundary,
``_escalate`` the type (k, k) until the fit meets its target (skipping the
degrees whose dual bound shows they cannot), find the fit's poles and
zeros, linearize, choose and run the solver (``_solve_dense``: geev on the
standard form, or QZ when that is ill conditioned; ``_solve_filter``: filtered
subspace iteration until its pairs meet the a priori bound or stop
improving), drop the pairs on in-region poles and count those over the bound.
A solver converged when it says so and no reported pair is over the bound.
``emit`` serializes the report as JSON.
"""

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .basis import BreakdownError, build_basis
from .eigensolve import (extract_nep_eigenpairs, pole_free_check, poly_roots,
                         solve_pencil_dense)
from .filters import SUBSPACE_START, SIFConfig, sif
from .lawson import DegreeSpec, RationalApproximant, SampleSet, lawson
from .pencil import DENSE_DIM_LIMIT, assemble, build_pencil, error_bound, gram_matrix
from .problems import (ManifestError, Region, builtin_problem, load_manifest,
                       sample_boundary)

__all__ = ["RunConfig", "EigenReport", "run", "emit", "main"]

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
    subspace: int = SUBSPACE_START
    seed: int = 0
    out: str = None

    def __post_init__(self):
        if (self.problem is None) == (self.manifest is None):
            raise ValueError("exactly one of problem or manifest must be given")
        # written so that nan fails too
        if not 0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")
        # Region checks the overrides here, before the problem is resolved
        Region(0j if self.center is None else self.center,
               1.0 if self.radius is None else self.radius, self.half_disk)
        if self.solver not in ("auto", "dense", "filter"):
            raise ValueError(f"unknown solver {self.solver!r}")
        # a (k, k) fit needs 2k + 2 nodes, so the smallest, (1, 1), needs 4;
        # a float count would sample off the circle; bool is an int subclass
        for name, low in (("nodes", 4), ("max_degree", 1), ("subspace", 1), ("seed", 0)):
            val = getattr(self, name)
            if isinstance(val, bool) or not isinstance(val, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {val!r}")
            if val < low:
                raise ValueError(f"{name} must be at least {low}")

    def to_json(self):
        return {key: [val.real, val.imag] if isinstance(val, complex) else val
                for key, val in self.__dict__.items()}


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
    # iterations, subspace, stop_reason and the last sweep's in-region
    # ``ghosts``; on both ``arithmetic``, the filter's pole ``factorizations``
    # and ``block_solves`` (0 when dense), and the counts of pairs dropped
    # ``on_poles`` of the fit and of reported pairs ``over_bound``
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
    return Region(center, radius, region.half_disk or config.half_disk)


def _escalate(samples, s, tol, max_degree):
    """The first fit of degree k <= last to meet tol (else the fit at last), a
    record per ``lawson`` call in the order made, and whether tol was met. last
    is the highest degree the nodes can carry: at most ``max_degree`` and
    (m - 2) // 2 (a (k, k) fit needs 2k + 2 nodes), below a basis breakdown
    and with finite leading coefficients.
    One-sweep probes bisect the degrees below last; the walk starts past the
    highest ruled out."""
    escalation = []
    try:  # one Arnoldi pass; each fit's basis is its prefix, bit for bit
        with np.errstate(over="ignore"):
            shared = build_basis(samples.nodes, min(max_degree, (samples.m - 2) // 2))
    except BreakdownError as exc:
        shared = exc.basis
    last = int(np.cumprod(np.isfinite(shared.k)).sum()) - 1
    if last < 1:
        raise ValueError(f"the {samples.m} boundary nodes cannot carry a fit of degree 1")

    def fit(k, **kwargs):
        basis = replace(shared, degree=k, H=shared.H[: k + 1, : k].copy(),
                        Q=shared.Q[:, : k + 1].copy(), k=shared.k[: k + 1].copy())
        xi = lawson(samples, DegreeSpec((k,) * s, k), basis=basis, **kwargs)
        # each step carries its proof: best error and largest dual bound
        escalation.append({"degree": k, "sweeps": xi.iterations,
                           "stop_reason": xi.stop_reason, "sqrt_e": float(np.sqrt(xi.e_max)),
                           "sqrt_d": float(np.sqrt(max(t.d_w for t in xi.trace)))})
        return xi

    lo, hi = 0, last
    while hi - lo > 1:
        mid = (lo + hi) // 2
        # a proof at sweep 1 is final: no i <= mid meets tol, d(w) <= e*_mid <= e*_i
        if fit(mid, target=tol, max_iters=1).stop_reason == "unreachable":
            lo = mid
        else:
            hi = mid
    # this walk reports what one from k = 1 would; the last degree never gives up
    for k in range(lo + 1, last + 1):
        xi = fit(k, target=None if k == last else tol)
        if escalation[-1]["sqrt_e"] < tol:
            return xi, escalation, True
    return xi, escalation, False


def _zeros(coeffs, basis):
    """Roots of one numerator; none for a term that vanishes on every node."""
    return poly_roots(coeffs, basis) if np.any(coeffs) else np.empty(0, dtype=complex)


def _solve_dense(pencil, basis, nep, region):
    """``(eigenpairs, converged, solver_info)`` of the dense path."""
    pairs = solve_pencil_dense(pencil, region)
    info = {"path": pairs.path, "rcond": pairs.rcond, "outside": pairs.outside,
            "factorizations": 0, "block_solves": 0}
    return extract_nep_eigenpairs(pairs, basis, nep, region), True, info


def _solve_filter(pencil, nep, region, bound, config):
    """``(eigenpairs, converged, solver_info)`` of the filter path."""
    # sif's residual is scale-free: its target is the bound over |c| + r
    sif_config = SIFConfig(subspace=config.subspace, seed=config.seed)
    sif_config = replace(sif_config, tol_residual=min(
        sif_config.tol_residual, bound / (abs(region.center) + region.radius)))
    result = sif(pencil, nep, region, sif_config)
    return result.eigenpairs, result.converged, {
        "path": "filter", "iterations": result.iterations, "subspace": result.subspace,
        "stop_reason": result.stop_reason, "ghosts": result.trace[-1].ghost_count,
        "quad_order": result.quad_order, "factorizations": result.factorizations,
        "block_solves": result.block_solves}


def run(config):
    """Execute the full pipeline described by ``config``."""
    nep = _resolve_problem(config)
    region = _resolve_region(config, nep)
    samples = SampleSet.from_nep(nep, sample_boundary(region, config.nodes))

    t0 = time.perf_counter()
    xi, escalation, fit_met = _escalate(samples, nep.s, config.tol, config.max_degree)
    t_fit = time.perf_counter() - t0

    poles = poly_roots(xi.denom_coeffs, xi.basis)
    pole_free, in_region_poles = pole_free_check(poles, region)
    zeros = {f"t{i + 1}": _zeros(a, xi.basis) for i, a in enumerate(xi.numer_coeffs)}

    t0 = time.perf_counter()
    pencil = build_pencil(assemble(xi, nep))
    t_pencil = time.perf_counter() - t0

    solver = config.solver
    if solver == "auto":
        solver = "dense" if pencil.dim <= DENSE_DIM_LIMIT else "filter"
    bound = error_bound(gram_matrix(nep), xi.e_max)
    t0 = time.perf_counter()
    if solver == "dense":
        eigenpairs, converged, info = _solve_dense(pencil, xi.basis, nep, region)
    else:
        eigenpairs, converged, info = _solve_filter(pencil, nep, region, bound, config)
    t_solve = time.perf_counter() - t0

    # where q* vanishes inside the region the polynomial and rational spectra
    # differ: pencil eigenvalues sitting on an in-region pole are artifacts
    # of the surrogate, not eigenvalues of the problem
    guard = 1e-6 * (1.0 + abs(region.center) + region.radius)
    kept = [p for p in eigenpairs if np.all(np.abs(in_region_poles - p.lam) >= guard)]
    # judged after the pole drop: pairs on in-region poles are not reported
    over_bound = sum(not p.residual <= bound for p in kept)
    return EigenReport(
        problem=nep.name, config=config, eigenpairs=kept, fit=xi,
        fit_met_target=fit_met, escalation=escalation, bound=bound,
        pole_free=pole_free, poles=poles, zeros=zeros, solver=solver,
        # on both paths: the solver's own verdict and no pair over the bound
        solver_converged=converged and over_bound == 0,
        solver_info={**info, "arithmetic": "real" if pencil.is_real else "complex",
                     "on_poles": len(eigenpairs) - len(kept), "over_bound": over_bound},
        timings={"fit": t_fit, "pencil": t_pencil, "solve": t_solve},
    )


def emit(report, path=None):
    """Write the report as JSON; returns the text when no path is given."""
    text = json.dumps(report.to_json_dict(), indent=2)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
        return path
    return text


def _parse_complex(text):
    re, _, im = text.partition(",")
    return complex(float(re), float(im) if im else 0.0)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one line and exit 1, as for any other rejected input; 2 is a fit miss
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    # defaults are read from RunConfig so that each is stated once
    parser = _Parser(
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
    parser.add_argument("--subspace", type=int, default=RunConfig.subspace, metavar="N",
                        help="start the filter block at N columns; it grows with "
                             "the in-region Ritz count (default %(default)s)")
    parser.add_argument("--seed", type=int, default=RunConfig.seed, metavar="S")
    parser.add_argument("--out", metavar="PATH",
                        help="output file (default: print to stdout)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig(**vars(args))
        out = config.out
        # an --out that cannot be written fails before the solve, not after it
        if out is not None and os.path.isdir(out):
            raise ValueError(f"{out}: cannot write report: it is a directory")
        if out is not None and not os.path.isdir(os.path.dirname(out) or "."):
            raise ValueError(f"{out}: cannot write report: no such directory")
        report = run(config)
        if out is not None:
            emit(report, path=out)
    except (ValueError, ManifestError, OSError) as exc:  # rejected input, failed write
        print(f"nepsolve: error: {exc}", file=sys.stderr)
        return 1
    if out is None:
        print(emit(report))
    else:
        n_in = len(report.in_region)
        print(f"{report.problem}: degree {report.fit.degrees.denominator}, "
              f"sqrt_e={np.sqrt(report.fit.e_max):.3e}, "
              f"{n_in} in-region eigenvalue(s), "
              f"report written to {out}", file=sys.stderr)
    return report.exit_status
