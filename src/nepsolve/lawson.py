"""Discrete rational minimax fitting of vector-valued samples by dual reweighting.

Fits ``xi = [p_1, .., p_s]/q`` with common denominator to samples
``t(x_l) in C^s`` on boundary nodes, minimizing the maximum squared 2-norm
error ``e(xi) = max_l ||t(x_l) - xi(x_l)||_2^2``. Each sweep evaluates the
dual objective ``d(w)`` of the linearized problem at the current node weights
(the smallest singular value of a tall projected matrix ``G``, read off the
square triangular factor of a QR of ``G``) and the current fit at the nodes,
and reweights nodes by their error norms until the relative duality gap
``|e(xi) - d(w)|/e(xi)`` closes, the iteration budget runs out, or, given an
error target, the dual value (a lower bound on the attainable error) shows
that the target is out of reach.

Numerator and denominator polynomials are expressed in a shared discrete
orthogonal basis (see :mod:`nepsolve.basis`), orthogonalized under the
current Lawson weights on the active nodes and rebuilt as those weights move.
"""

import functools
from dataclasses import dataclass, replace

import numpy as np

from .basis import build_basis, eval_basis, leading_coeffs

__all__ = ["DegreeSpec", "SampleSet", "DualResult", "RationalApproximant",
           "LawsonStep", "RankDeficiencyError", "PoleEvaluationError",
           "dual_value", "lawson", "evaluate_approximant", "max_error"]

# nodes whose Lawson weight falls below this are dropped for good
WEIGHT_TOL = 1e-12
# a fit given a target gives up once its dual bound exceeds the target by this
# many interpolation floors (in sqrt(e)); the slack covers the rounding in the
# measured bound, which grows near the floor
UNREACHABLE_MARGIN = 5
# sweeps between rebuilds of the basis under the current weights; a node drop
# rebuilds it at once
REBASIS_EVERY = 10
# samples are conjugate-symmetric when each node's partner lies within
# PAIR_NODE_RTOL * max|x| of its conjugate and the partner's values within
# PAIR_VALUE_RTOL of the conjugated values (relative to the row's norm)
PAIR_NODE_RTOL = 1e-13
PAIR_VALUE_RTOL = 1e-12


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
        if not np.isfinite(values).all():
            node, col = np.argwhere(~np.isfinite(values))[0]
            raise ValueError(f"term t{col + 1} is not finite at node {node}, "
                             f"x = {nodes[node]}")
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
        with np.errstate(all="ignore"):  # __post_init__ names a value that is not finite
            values = nep.t_values(nodes)
        return cls(nodes=nodes, values=values)

    @functools.cached_property
    def conj_pair(self):
        """Index of each node's conjugate partner, or ``None`` if some node has none.

        Node ``p[l]`` is the partner of node ``l`` when it lies within
        ``PAIR_NODE_RTOL * max|x|`` of ``conj(x_l)`` and its values within
        ``PAIR_VALUE_RTOL * ||values[l]||`` of ``conj(values[l])``; a node on
        the real axis is its own partner. Samples of terms with
        ``t(conj x) = conj t(x)`` on a disk with a real center pair up this
        way, and their minimax fit is real.
        """
        x, values = self.nodes, self.values
        partner = np.empty(x.size, dtype=int)
        for lo in range(0, x.size, 256):  # bounds the distance block's memory
            dist = np.abs(x[lo: lo + 256, None].conj() - x)
            partner[lo: lo + 256] = dist.argmin(axis=1)
        node_off = np.abs(x[partner] - x.conj())
        value_off = np.linalg.norm(values[partner] - values.conj(), axis=1)
        value_scale = np.linalg.norm(values, axis=1)
        if (np.any(partner[partner] != np.arange(x.size))
                or np.any(node_off > PAIR_NODE_RTOL * np.abs(x).max())
                or np.any(value_off > PAIR_VALUE_RTOL * value_scale)):
            return None
        return partner


class DualResult:
    """Dual objective value and the fit at the nodes; coefficients on demand.

    ``numer_coeffs`` and ``denom_coeffs`` are recovered by solves with the
    triangular factors (``numpy.linalg.solve``, whose LU of a triangular R is
    R itself) the first time they are read, so a caller that needs only
    ``d_value`` and ``node_values`` (every Lawson sweep) does not pay for them.
    """

    def __init__(self, d_value, node_values, Rq, bhat, numer_rhs):
        self.d_value = d_value
        self.node_values = node_values
        self._Rq, self._bhat = Rq, bhat
        # (Rp_i, Qp_i^H F_i Qq bhat) per numerator component
        self._numer_rhs = numer_rhs

    @functools.cached_property
    def denom_coeffs(self):
        return np.linalg.solve(self._Rq, self._bhat)

    @functools.cached_property
    def numer_coeffs(self):
        return tuple(np.linalg.solve(Rp, rhs)
                     for Rp, rhs in self._numer_rhs)


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


def dual_value(samples, w, spec, basis):
    """Evaluate the dual objective at weights ``w`` and recover coefficients.

    ``sqrt(d(w))`` is the smallest singular value of the projected matrix
    ``G = [(I - Qp_i Qp_i^H) F_i Qq]_i`` built from thin QR factorizations
    of the weighted basis matrices; the optimal denominator coefficients
    solve ``Rq b = bhat`` against the trailing right singular vector and the
    numerator blocks solve ``Rp_i a_i = Qp_i^H F_i Qq bhat``. The SVD runs on
    the square factor R of ``G = Q_G R``: ``Q_G`` has orthonormal columns, so
    ``R = U S V^H`` gives ``G = (Q_G U) S V^H``, with the same singular values
    and right singular vectors, and G's unread left factor is never formed.

    ``basis`` must be built on the sample nodes; the QR factors are nearest
    the identity when it was built under weights close to ``w``. The result's
    ``node_values`` holds the stably evaluated values of the fitted function
    at the nodes as an (m, s) array, ``(Qp_i Qp_i^H F_i q) / q``. The
    triangular solves for the coefficients run only when the result's
    ``numer_coeffs`` or ``denom_coeffs`` is first read (see
    :class:`DualResult`); numerators of the denominator's degree share its
    QR factors.
    """
    w = np.asarray(w, dtype=float).ravel()
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    values = samples.values
    m, s = values.shape
    if basis.Q.shape[0] != m or w.size != m:
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
    Qq, Rq = np.linalg.qr(sqw[:, None] * basis.Q[:, : d + 1])
    _check_rank(Rq, "denominator")

    # a numerator of the denominator's degree has the same weighted basis
    # matrix, so its factors are reused
    qr_by_deg = {d: (Qq, Rq)}
    for ni in set(spec.numerator) - {d}:
        Qp, Rp = np.linalg.qr(sqw[:, None] * basis.Q[:, : ni + 1])
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
    _, sigma, Vh = np.linalg.svd(np.linalg.qr(G, mode="r"))
    smin = sigma[-1]
    bhat = Vh[-1].conj()

    qnode = Qq @ bhat
    numer_rhs = []
    node_vals = np.empty((m, s), dtype=complex)
    for i in range(s):
        Qp, Rp = qr_by_deg[spec.numerator[i]]
        rhs = Qp.conj().T @ (values[:, i] * qnode)
        node_vals[:, i] = (Qp @ rhs) / qnode
        numer_rhs.append((Rp, rhs))
    return DualResult(float(smin ** 2), node_vals, Rq, bhat, numer_rhs)


@dataclass(frozen=True)
class RationalApproximant:
    """Vector-valued rational fit with its error, duality gap, and trace.

    ``stop_reason`` says why the iteration ended: ``"gap"`` (relative duality
    gap below ``tol``), ``"interp_floor"`` (error at working precision),
    ``"unreachable"`` (the dual bound showed the target cannot be met) or
    ``"budget"`` (``max_iters`` sweeps ran).
    """

    numer_coeffs: tuple
    denom_coeffs: np.ndarray
    degrees: DegreeSpec
    basis: object
    e_max: float
    gap: float
    stop_reason: str
    trace: tuple
    active_index: np.ndarray
    weights: np.ndarray

    @property
    def converged(self):
        return self.stop_reason in ("gap", "interp_floor")

    @property
    def iterations(self):
        return len(self.trace)


def lawson(samples, spec, tol=1e-2, max_iters=500, target=None, basis=None):
    """Run the dual reweighting iteration; returns a :class:`RationalApproximant`.

    Per sweep: drop nodes whose weight fell below ``WEIGHT_TOL`` (permanently),
    evaluate the dual objective and current fit, stop once the relative
    duality gap is below ``tol``, else reweight nodes by
    ``||t(x_l) - xi(x_l)||`` and renormalize onto the simplex. Each sweep runs
    in a basis orthogonalized under the weights on the active nodes, rebuilt
    every ``REBASIS_EVERY`` sweeps and on every node drop, so the weighted QR
    factors stay well conditioned as the weights concentrate. The first sweep
    runs in ``basis`` if given, else ``build_basis(samples.nodes, spec.max_degree)``;
    the degree escalation passes prefixes of one basis it only extends. At most
    ``max_iters`` sweeps run, one ``dual_value`` call each; running out is
    reported as ``stop_reason="budget"`` on the result, not as an error.

    By weak duality ``d(w) <= e* <= e(xi)`` for the minimax error ``e*`` of
    this type, so a gap below ``tol`` certifies ``e(xi) <= e*/(1 - tol)``:
    with the default ``tol = 1e-2``, ``sqrt(e)`` is within 0.5% of the
    optimum.

    ``target`` is an optional goal for ``sqrt(e)``. By weak duality each
    dual value bounds the minimax error ``e*`` of this type from below, so
    once ``min(best e_xi, d(w)) > (target + UNREACHABLE_MARGIN * sqrt(floor))**2``,
    with ``sqrt(floor) = 20 eps max_l ||t(x_l)||`` the working-precision
    error level, the fit stops with ``stop_reason="unreachable"``. The margin
    covers the rounding in ``d(w)``, which grows near the floor; ``d(w)`` can
    also fall between sweeps. On example1 (100 nodes, target 1e-10, floor
    3.5e-11) the type (28, 28) meets the target, yet its ``sqrt(d)`` reaches
    1.8 floors over it at iteration 6 and falls 15x when a node drops; the
    types (26, 26) and (27, 27), which miss it, settle 12 floors over. A
    converged verdict in the same sweep takes precedence. Without
    ``target`` the rule is off.

    The returned fit is the best-error sweep, whatever the stop reason: its
    own coefficients, error and gap, in the basis that sweep ran in.

    Conjugate-symmetric samples (see :attr:`SampleSet.conj_pair`) have a real
    minimax fit. For them each weight update is averaged over conjugate
    pairs, which keeps the weights exactly pair-symmetric, and the returned
    fit is made real: the denominator's phase is fixed by its largest entry,
    the coefficients and the recurrence ``H`` drop their imaginary rounding,
    and ``e_max`` and ``gap`` are measured again from the real coefficients
    on the fit's active nodes.
    """
    if tol <= 0 or max_iters < 1:
        raise ValueError("tol must be positive, max_iters at least 1")
    m = samples.m
    if m < spec.min_nodes():
        raise ValueError(
            f"need at least {spec.min_nodes()} nodes for type "
            f"{spec.numerator}/{spec.denominator}, got {m}")

    if basis is not None and basis.degree != spec.max_degree:
        raise ValueError(f"basis degree {basis.degree} is not {spec.max_degree}")
    active = np.arange(m)
    sub = samples
    pair = samples.conj_pair
    w = np.full(m, 1.0 / m)
    # below this the fit interpolates the data to working precision and the
    # duality gap is pure rounding noise
    vscale = float(np.max(np.linalg.norm(samples.values, axis=1)))
    interp_floor = float(20 * np.finfo(float).eps * vscale) ** 2
    with np.errstate(over="ignore"):  # a target near the float limit never gives up
        give_up = (np.inf if target is None else
                   (target + UNREACHABLE_MARGIN * np.sqrt(interp_floor)) ** 2)
    trace = []
    best = None
    stop_reason = "budget"
    for it in range(max_iters):
        keep = w >= WEIGHT_TOL
        if not np.all(keep):
            if pair is not None:
                pair = (np.cumsum(keep) - 1)[pair[keep]]
            active, w = active[keep], w[keep]
            w = w / w.sum()
            sub = SampleSet(samples.nodes[active], samples.values[active])
            basis = None
        if basis is None or (it and it % REBASIS_EVERY == 0):
            basis = build_basis(sub.nodes, spec.max_degree, weights=w)
        dres = dual_value(sub, w, spec, basis)
        err_norms = np.linalg.norm(sub.values - dres.node_values, axis=1)
        e_xi = float(np.max(err_norms) ** 2)
        gap = abs(e_xi - dres.d_value) / e_xi if e_xi > 0 else 0.0
        trace.append(LawsonStep(it, dres.d_value, e_xi, gap, active.size))
        # the iteration can wander once it reaches the noise floor, so the
        # best-error sweep is kept, not the last
        if best is None or e_xi < best[0]:
            best = (e_xi, gap, w.copy(), active.copy(), dres, basis)
        if e_xi <= interp_floor:
            stop_reason = "interp_floor"
        elif gap < tol:
            stop_reason = "gap"
        elif min(best[0], dres.d_value) > give_up:
            stop_reason = "unreachable"
        else:
            upd = w * err_norms
            if pair is not None:
                # exactly pair-symmetric, so both nodes of a pair drop together
                upd = 0.5 * (upd + upd[pair])
            w = upd / upd.sum()
            continue
        break

    e_max, gap, w_best, active_best, dres, basis_best = best
    xi = RationalApproximant(
        numer_coeffs=dres.numer_coeffs, denom_coeffs=dres.denom_coeffs,
        degrees=spec, basis=basis_best, e_max=e_max, gap=gap,
        stop_reason=stop_reason, trace=tuple(trace), active_index=active_best,
        weights=w_best)
    return xi if pair is None else _real_fit(xi, samples, dres.d_value)


def _real_fit(xi, samples, d_w):
    # the fit of conjugate-symmetric samples is real up to the phase of its
    # denominator and rounding; its error is measured again once it is real
    b = xi.denom_coeffs
    phase = b[np.argmax(np.abs(b))]
    phase /= abs(phase)
    H = xi.basis.H.real
    basis = replace(xi.basis, H=H, k=leading_coeffs(H))
    basis = replace(basis, Q=eval_basis(basis, basis.nodes))
    xi = replace(xi, numer_coeffs=tuple((a / phase).real for a in xi.numer_coeffs),
                 denom_coeffs=(b / phase).real, basis=basis)
    active = SampleSet(samples.nodes[xi.active_index],
                       samples.values[xi.active_index])
    e_max = max_error(active, xi)
    return replace(xi, e_max=e_max,
                   gap=abs(e_max - d_w) / e_max if e_max > 0 else 0.0)


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
