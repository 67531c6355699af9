"""Discrete rational minimax fitting of vector-valued samples by dual reweighting.

Fits ``xi = [p_1, .., p_s]/q`` with common denominator to samples
``t(x_l) in C^s`` on boundary nodes, minimizing the maximum squared 2-norm
error ``e(xi) = max_l ||t(x_l) - xi(x_l)||_2^2``. Each sweep evaluates the
dual objective ``d(w)`` of the linearized problem at the current node weights
(a smallest-singular-value computation), recovers the coefficient vectors,
and reweights nodes by their error norms until the relative duality gap
``|e(xi) - d(w)|/e(xi)`` closes or the iteration budget runs out.

Numerator and denominator polynomials are expressed in a shared discrete
orthogonal basis (see :mod:`nepsolve.basis`) built once on the full node set.
"""

import csv
import warnings
from dataclasses import astuple, dataclass, fields

import numpy as np
import scipy.linalg

from .basis import build_basis, eval_basis

__all__ = ["DegreeSpec", "SampleSet", "DualResult", "RationalApproximant",
           "LawsonStep", "RankDeficiencyError", "PoleEvaluationError",
           "dual_value", "lawson", "evaluate_approximant", "max_error",
           "write_trace_csv"]

# nodes whose Lawson weight falls below this are dropped for good
WEIGHT_TOL = 1e-12


class RankDeficiencyError(Exception):
    """Raised when a weighted basis matrix loses column rank."""


class PoleEvaluationError(Exception):
    """Raised when an approximant is evaluated at a zero of its denominator."""

    def __init__(self, points):
        self.points = list(points)
        super().__init__(f"denominator vanishes at {self.points}")


@dataclass(frozen=True)
class DegreeSpec:
    """Rational type: numerator degrees ``n_i`` and common denominator degree d."""

    numerator: tuple
    denominator: int

    def __post_init__(self):
        object.__setattr__(self, "numerator", tuple(int(n) for n in self.numerator))
        if any(n < 0 for n in self.numerator) or self.denominator < 0:
            raise ValueError("degrees must be nonnegative")

    @property
    def s(self):
        return len(self.numerator)

    @property
    def max_degree(self):
        return max(max(self.numerator), self.denominator)

    def min_nodes(self):
        # below this sample count the linearized and original problems can differ
        return max(n + self.denominator + 2 for n in self.numerator)


@dataclass(frozen=True)
class SampleSet:
    """Boundary nodes with the sampled term values (m x s)."""

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=complex).ravel()
        values = np.atleast_2d(np.asarray(self.values, dtype=complex))
        if values.shape[0] != nodes.size:
            raise ValueError("values must have one row per node")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    @property
    def m(self):
        return self.nodes.size

    @property
    def s(self):
        return self.values.shape[1]

    @classmethod
    def from_nep(cls, nep, nodes):
        nodes = np.asarray(nodes, dtype=complex).ravel()
        return cls(nodes=nodes, values=nep.t_values(nodes))


@dataclass(frozen=True)
class DualResult:
    """Dual objective value, the recovered coefficients, and the fit at the nodes."""

    d_value: float
    numer_coeffs: tuple
    denom_coeffs: np.ndarray
    node_values: np.ndarray


@dataclass(frozen=True)
class LawsonStep:
    """One iteration record: dual value, max error, relative gap, active nodes."""

    iteration: int
    d_w: float
    e_xi: float
    gap: float
    active_nodes: int


def _check_rank(R, what):
    diag = np.abs(np.diag(R))
    top = diag.max() if diag.size else 0.0
    bad = np.nonzero(diag <= 1e-13 * top)[0]
    if top == 0.0 or bad.size:
        raise RankDeficiencyError(
            f"weighted {what} matrix is rank deficient; collapsed columns "
            f"{bad.tolist() if top else 'all'}")


def dual_value(samples, w, spec, basis, rows=None):
    """Evaluate the dual objective at weights ``w`` and recover coefficients.

    ``sqrt(d(w))`` is the smallest singular value of the projected matrix
    ``(I - Qp Qp^H) F Qq`` built from thin QR factorizations of the weighted
    basis matrices; the optimal denominator coefficients solve
    ``Rq b = bhat`` against the trailing right singular vector and the
    numerator blocks solve ``Rp_i a_i = Qp_i^H F_i Qq bhat``.

    ``rows`` restricts the basis node rows (used after node filtering). The
    result's ``node_values`` holds the stably evaluated values of the fitted
    function at the nodes as an (m, s) array, ``(Qp_i Qp_i^H F_i q) / q``.
    """
    w = np.asarray(w, dtype=float).ravel()
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    QB = basis.Q if rows is None else basis.Q[rows]
    values = samples.values
    m, s = values.shape
    if QB.shape[0] != m or w.size != m:
        raise ValueError("weights, samples, and basis rows must agree in length")
    if spec.s != s:
        raise ValueError(f"degree spec has {spec.s} components, samples have {s}")
    d = spec.denominator
    if basis.degree < spec.max_degree:
        raise ValueError("basis degree is below the requested rational type")
    if m < max(d, max(spec.numerator)) + 1:
        raise RankDeficiencyError(
            f"{m} active nodes cannot support {max(d, max(spec.numerator)) + 1} "
            "coefficients")

    sqw = np.sqrt(w)
    Qq, Rq = np.linalg.qr(sqw[:, None] * QB[:, : d + 1])
    _check_rank(Rq, "denominator")

    qr_by_deg = {}
    for ni in set(spec.numerator):
        Qp, Rp = np.linalg.qr(sqw[:, None] * QB[:, : ni + 1])
        _check_rank(Rp, f"numerator (degree {ni})")
        qr_by_deg[ni] = (Qp, Rp)

    # stack the projected blocks (I - Qp_i Qp_i^H) F_i Qq
    blocks = []
    for i in range(s):
        Qp, _ = qr_by_deg[spec.numerator[i]]
        FiQq = values[:, i, None] * Qq
        blocks.append(FiQq - Qp @ (Qp.conj().T @ FiQq))
    G = np.vstack(blocks)

    # numpy orders singular values descending, so the trailing right singular
    # vector is the deterministic pick under near-ties
    _, sigma, Vh = np.linalg.svd(G, full_matrices=False)
    smin = sigma[-1]
    bhat = Vh[-1].conj()

    b = scipy.linalg.solve_triangular(Rq, bhat)
    qnode = Qq @ bhat
    numer = []
    node_vals = np.empty((m, s), dtype=complex)
    for i in range(s):
        Qp, Rp = qr_by_deg[spec.numerator[i]]
        rhs = Qp.conj().T @ (values[:, i] * qnode)
        node_vals[:, i] = (Qp @ rhs) / qnode
        numer.append(scipy.linalg.solve_triangular(Rp, rhs))
    return DualResult(d_value=float(smin ** 2), numer_coeffs=tuple(numer),
                      denom_coeffs=b, node_values=node_vals)


@dataclass(frozen=True)
class RationalApproximant:
    """Vector-valued rational fit with its error, duality gap, and trace."""

    numer_coeffs: tuple
    denom_coeffs: np.ndarray
    degrees: DegreeSpec
    basis: object
    e_max: float
    gap: float
    converged: bool
    trace: tuple
    active_index: np.ndarray
    weights: np.ndarray

    @property
    def iterations(self):
        return len(self.trace)

    def __call__(self, points):
        return evaluate_approximant(self, points)


def lawson(samples, spec, tol=1e-10, max_iters=500, basis=None):
    """Run the dual reweighting iteration; returns a :class:`RationalApproximant`.

    Per sweep: drop nodes whose weight fell below ``WEIGHT_TOL`` (permanently;
    the basis is not rebuilt), evaluate the dual objective and current fit,
    stop once the relative duality gap is below ``tol``, else reweight nodes
    by ``||t(x_l) - xi(x_l)||`` and renormalize onto the simplex.
    Exhausting ``max_iters`` is reported as ``converged=False`` on the result,
    not as an error.
    """
    if tol <= 0 or max_iters < 1:
        raise ValueError("tol must be positive, max_iters at least 1")
    m = samples.m
    if m < spec.min_nodes():
        raise ValueError(
            f"need at least {spec.min_nodes()} nodes for type "
            f"{spec.numerator}/{spec.denominator}, got {m}")
    if basis is None:
        basis = build_basis(samples.nodes, spec.max_degree)

    active = np.arange(m)
    w = np.full(m, 1.0 / m)
    # below this the fit interpolates the data to working precision and the
    # duality gap is pure rounding noise
    vscale = float(np.max(np.linalg.norm(samples.values, axis=1)))
    interp_floor = float(20 * np.finfo(float).eps * vscale) ** 2
    trace = []
    best = None
    it = 0
    while True:
        keep = w >= WEIGHT_TOL
        if not np.all(keep):
            active, w = active[keep], w[keep]
            w = w / w.sum()
        sub = SampleSet(samples.nodes[active], samples.values[active])
        dres = dual_value(sub, w, spec, basis, rows=active)
        err = sub.values - dres.node_values
        err_norms = np.linalg.norm(err, axis=1)
        e_xi = float(np.max(err_norms) ** 2)
        gap = abs(e_xi - dres.d_value) / e_xi if e_xi > 0 else 0.0
        trace.append(LawsonStep(it, dres.d_value, e_xi, gap, active.size))
        if best is None or e_xi < best[0]:
            best = (e_xi, w.copy(), active.copy())
        converged = bool(gap < tol or e_xi <= interp_floor)
        if converged or it >= max_iters:
            break
        upd = w * err_norms
        w = upd / upd.sum()
        it += 1

    # The iteration can wander once it reaches the noise floor, so keep the
    # best-error iterate and re-extract its coefficients in a basis
    # orthogonalized under those weights: the weighted QR factors are then
    # near-identity and coefficient recovery loses no accuracy.
    _, w_best, active_best = best
    sub = SampleSet(samples.nodes[active_best], samples.values[active_best])
    basis_w = build_basis(sub.nodes, spec.max_degree, weights=w_best)
    dres = dual_value(sub, w_best, spec, basis_w)
    err_norms = np.linalg.norm(sub.values - dres.node_values, axis=1)
    e_max = float(np.max(err_norms) ** 2)
    gap = abs(e_max - dres.d_value) / e_max if e_max > 0 else 0.0

    if converged and e_max > interp_floor:
        slack = e_max - err_norms ** 2
        loose = (slack > 0.1 * e_max) & (w_best >= 10 * WEIGHT_TOL)
        if np.any(loose):
            warnings.warn(
                f"{int(loose.sum())} node(s) keep weight despite slack errors; "
                "the fit may not be at an exact minimax point", stacklevel=2)
    return RationalApproximant(
        numer_coeffs=dres.numer_coeffs, denom_coeffs=dres.denom_coeffs,
        degrees=spec, basis=basis_w, e_max=e_max, gap=gap, converged=converged,
        trace=tuple(trace), active_index=active_best, weights=w_best)


def evaluate_approximant(xi, points):
    """Evaluate the fit at ``points``; returns (len(points), s)."""
    points = np.asarray(points, dtype=complex).ravel()
    P = eval_basis(xi.basis, points)
    q = P[:, : xi.degrees.denominator + 1] @ xi.denom_coeffs
    hit = np.nonzero(q == 0)[0]
    if hit.size:
        raise PoleEvaluationError(points[hit])
    cols = [(P[:, : a.size] @ a) / q for a in xi.numer_coeffs]
    return np.column_stack(cols)


def max_error(samples, xi):
    """Maximum squared 2-norm error of ``xi`` over the given sample set."""
    err = samples.values - evaluate_approximant(xi, samples.nodes)
    return float(np.max(np.linalg.norm(err, axis=1)) ** 2)


def write_trace_csv(trace, path_or_file):
    """Write a non-empty trace of :class:`LawsonStep` or ``SIFStep`` records as CSV.

    The header is the record's field names with ``iteration`` as ``iter``;
    floats are written with ``repr`` so they read back exactly.
    """
    names = [f.name for f in fields(trace[0])]
    own = isinstance(path_or_file, (str, bytes))
    fh = open(path_or_file, "w", newline="") if own else path_or_file
    try:
        writer = csv.writer(fh)
        writer.writerow(["iter" if n == "iteration" else n for n in names])
        for step in trace:
            writer.writerow([repr(v) if isinstance(v, float) else v
                             for v in astuple(step)])
    finally:
        if own:
            fh.close()
