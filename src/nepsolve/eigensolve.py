"""Dense eigenpair extraction, region filtering, and residual checks."""

from dataclasses import dataclass

import numpy as np

from .basis import eval_basis
from .pencil import MatrixPolynomial, StructuredPencil, _dense, _factor_p

__all__ = ["Eigenpair", "EigensolverError", "PencilPairs", "solve_dense",
           "solve_pencil_dense", "refine_eigenvectors", "extract_nep_eigenpairs",
           "poly_roots", "pole_free_check"]

# the corner K of C1 is inverted to give a standard eigenproblem when its
# reciprocal condition number 1 / (||K||_1 ||K^{-1}||_1) is at least this and
# K is not negligible; any other corner sends the pencil to QZ
STANDARD_FORM_RCOND = 1e-4
# K is negligible where max|K| <= this * max|bottom block row of C0|, for
# solve_pencil_dense and poly_roots alike (README)
ROOTS_QZ_RATIO = 1e-10
# inverse iteration keeps its second iterate unless ||P(lam) x|| grew more
# than this in the second step; within it both are at rounding level
SECOND_STEP_GROWTH = 10.0


class EigensolverError(Exception):
    """Raised when a dense eigensolver (geev or QZ) fails to converge."""


class PencilPairs(tuple):
    """``(lam, V)`` from :func:`solve_pencil_dense`.

    ``path`` is ``"geev"`` or ``"qz"``; ``rcond``, the exact 1-norm reciprocal
    condition number of the corner ``K`` of ``C1``, chose it (0 if singular);
    ``outside`` counts the finite eigenvalues dropped as outside the region.
    """

    def __new__(cls, lam, V, path, rcond, outside):
        pairs = super().__new__(cls, (lam, V))
        pairs.path = path
        pairs.rcond = rcond
        pairs.outside = outside
        return pairs


@dataclass(frozen=True)
class Eigenpair:
    """Computed eigenpair with residual diagnostics."""

    lam: complex
    u: np.ndarray
    residual: float
    normalized_residual: float
    in_region: bool
    consistency: float


def solve_dense(C0, C1=None):
    """Finite eigenvalues of ``C0 v = lam C1 v``, or of ``C0 v = lam v``.

    With ``C1`` the generalized problem goes to SciPy's QZ (LAPACK ggev);
    without it the standard problem goes to numpy's LAPACK geev. Neither is
    asked for eigenvectors. Infinite eigenvalues (singular ``C1``
    directions) are dropped; the rest are complex.
    """
    C0 = np.asarray(C0)
    if (C0.ndim != 2 or C0.shape[0] != C0.shape[1]
            or (C1 is not None and np.shape(C1) != C0.shape)):
        raise ValueError("pencil matrices must be square and of equal shape")
    try:
        if C1 is None:  # geev: every eigenvalue finite, real ones as a real array
            return np.linalg.eigvals(C0).astype(complex)
        import scipy.linalg
        lam = scipy.linalg.eigvals(C0, C1)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"dense eigensolver failed to converge: {exc}") from exc
    return lam[np.isfinite(lam)]


def solve_pencil_dense(pencil, region=None):
    """Solve the pencil densely; returns ``(lam, V)`` as :class:`PencilPairs`.

    ``C1 = diag(I, K)`` differs from the identity only in its corner
    ``K = k_gamma A_gamma``. ``C0`` is formed once. When ``K`` is well
    conditioned (``rcond(K) >= STANDARD_FORM_RCOND``) and not negligible
    (``max|K|`` above ``ROOTS_QZ_RATIO`` times the largest entry of ``C0``'s
    bottom block row, the cut of :func:`poly_roots`) that row is multiplied
    by ``K^{-1}`` and geev solves the standard problem ``C1^{-1} C0``;
    otherwise ``C1`` is formed from ``K``, the bottom block row is
    equilibrated and QZ solves the pencil. Either solver gives eigenvalues only.
    Those inside the ``region`` are kept, or without one those with
    ``||theta(lam)[:gamma]|| <= 1e10 |theta_0|``; the other finite ones are
    counted in ``outside``. Each kept eigenvalue gets its eigenvector from
    :func:`refine_eigenvectors` from a fixed seeded start.
    """
    split = (pencil.gamma - 1) * pencil.n
    K = _dense(pencil.c1_corner)
    try:
        Kinv = np.linalg.inv(K)
        rcond = float(1.0 / (np.linalg.norm(K, 1) * np.linalg.norm(Kinv, 1)))
    except np.linalg.LinAlgError:  # an exactly zero pivot
        rcond = 0.0
    C0 = pencil._dense_C0()
    if not rcond >= STANDARD_FORM_RCOND or (
            np.abs(K).max() <= ROOTS_QZ_RATIO * np.abs(C0[split:]).max()):
        C1 = np.eye(pencil.dim, dtype=C0.dtype)
        C1[split:, split:] = K
        c = pencil.equilibration_scale()
        C0[split:] *= c
        C1[split:] *= c
        lam, path = solve_dense(C0, C1), "qz"
    else:
        C0[split:] = Kinv @ C0[split:]
        lam, path = solve_dense(C0), "geev"
    if region is None:
        # beyond the screen theta(lam) (x) u has a negligible leading block:
        # lam comes from a small leading coefficient, far from the fit
        theta = eval_basis(pencil.poly.basis, lam)[:, : pencil.gamma]
        keep = np.linalg.norm(theta, axis=1) <= 1e10 * np.abs(theta[:, 0])
    else:
        keep = region.contains(lam)
    lam = lam[keep]
    # row i starts eigenvalue i, whatever the number of eigenvalues kept
    start = np.random.default_rng(0).standard_normal((lam.size, pencil.n)).T
    V = refine_eigenvectors(pencil, lam, start)
    return PencilPairs(lam, V, path, rcond, int(keep.size - lam.size))


def refine_eigenvectors(pencil, lam, U):
    """Pencil eigenvectors for the eigenvalues ``lam`` by inverse iteration.

    ``P(lam[i])`` is factored once (SuperLU's LU without the entries below
    unit roundoff when it is sparse, an inverse otherwise, as
    :class:`~nepsolve.pencil.BlockLU` factors it) and
    ``x <- P(lam[i])^{-1} x / ||x||`` runs twice from ``x = U[:, i]``. The
    second iterate is kept unless its ``||P(lam[i]) x||`` is more than
    ``SECOND_STEP_GROWTH`` times the first's: once ``x`` is the right null
    vector, its component along the left one, which the step amplifies, can
    be small, and the step then turns ``x`` away. Column i of the result is
    the unit ``theta(lam[i])[:gamma] (x) u`` the linearization prescribes,
    ``u`` the kept iterate. An exactly singular ``P(lam[i])`` or a
    non-finite step gives the SVD null vector instead. On a real pencil
    ``P(conj lam) = conj P(lam)``, so an eigenvalue that is the conjugate of
    the previous one (geev's order for a pair) takes the conjugate of its
    vector.
    """
    theta = eval_basis(pencil.poly.basis, lam)[:, : pencil.gamma]
    V = np.empty((pencil.dim, lam.size), dtype=complex)
    for i in range(lam.size):
        if pencil.is_real and i and lam[i].imag and lam[i] == lam[i - 1].conj():
            V[:, i] = V[:, i - 1].conj()
            continue
        M = pencil.poly(lam[i])
        solve = _factor_p(M, pencil.poly.ordering)
        x, u, best = U[:, i], None, np.inf
        for _ in range(2 if solve else 0):
            y = solve(x)
            ny = np.linalg.norm(y)
            if not 0 < ny < np.inf:
                solve = None
                break
            x = y / ny
            r = np.linalg.norm(M @ x)
            if r <= SECOND_STEP_GROWTH * best:
                u, best = x, r
        if solve is None:
            u = _null_vector(M)
        v = np.kron(theta[i], u)
        V[:, i] = v / np.linalg.norm(v)
    return V


def _null_vector(M):
    """Right singular vector of ``M`` for its smallest singular value."""
    return np.linalg.svd(_dense(M))[2][-1].conj()


def extract_nep_eigenpairs(pairs, basis, nep, region):
    """Turn pencil eigenpairs into problem eigenpairs with diagnostics.

    ``pairs`` is ``(lam, V)`` as returned by :func:`solve_pencil_dense`:
    eigenvalues in ``lam``, pencil eigenvectors in the columns of ``V``.
    Every pair is reported, with its region flag and ``consistency``, which
    is ``max_i ||v_i - theta_i(lam) v_1|| / ||v||`` over the trailing
    blocks; which pairs to pass is the solver's choice. Results are sorted
    by real then imaginary part.
    """
    lam, V = pairs
    n = nep.n
    gamma, rest = divmod(V.shape[0], n)
    if rest:
        raise ValueError("vector length must be a multiple of the block size")
    lam = np.asarray(lam, dtype=complex)
    vnorm = np.linalg.norm(V, axis=0)
    unorm = np.linalg.norm(V[:n], axis=0)
    if np.any(unorm == 0):
        raise ValueError("an eigenvector's leading block is zero")
    U = V[:n]
    theta = eval_basis(basis, lam)
    consistency = np.zeros(lam.size)
    for i in range(1, gamma):
        diff = np.linalg.norm(V[i * n: (i + 1) * n] - theta[:, i] * U, axis=0)
        consistency = np.maximum(consistency, diff / vnorm)

    # unit 2-norm with the first non-negligible component rotated to the
    # positive real axis, for reproducible eigenvector output
    U = U / unorm
    absU = np.abs(U)
    first = np.argmax(absU > 1e-12 * absU.max(axis=0), axis=0)
    lead = U[first, np.arange(lam.size)]
    U = U * (lead.conj() / np.abs(lead))

    nu = np.linalg.norm(U, axis=0)
    r = np.linalg.norm(nep.apply(lam, U), axis=0)
    scale = np.abs(nep.t_values(lam)) @ nep.norm1_terms() * nu
    # a zero scale means every t_i(lam) E_i is 0, and so are T(lam) and the residual
    normalized = np.divide(r, scale, out=np.zeros_like(r), where=scale != 0)
    in_region = region.contains(lam)
    return [Eigenpair(lam=complex(lam[k]), u=U[:, k], residual=float(r[k] / nu[k]),
                      normalized_residual=float(normalized[k]),
                      in_region=bool(in_region[k]), consistency=float(consistency[k]))
            for k in np.lexsort((lam.imag, lam.real))]


def poly_roots(coeffs, basis):
    """Roots of ``sum_j c_j theta_j``, the 1 x 1-block case of the pencil:
    geev on its companion, or QZ where its corner is negligible (``ROOTS_QZ_RATIO``)."""
    P = MatrixPolynomial([np.eye(1)], np.asarray(coeffs).reshape(1, -1),
                         basis).trimmed()
    if P.degree == 0:
        return np.empty(0, dtype=complex)
    C0, C1 = StructuredPencil(P).materialize(force=True)
    if abs(C1[-1, -1]) <= ROOTS_QZ_RATIO * np.abs(C0[-1]).max():
        return solve_dense(C0, C1)
    C0[-1] /= C1[-1, -1]
    return solve_dense(C0)


def pole_free_check(poles, region):
    """Check the fitted denominator's roots ``poles`` against the closed region.

    ``poles`` is ``poly_roots(xi.denom_coeffs, xi.basis)``. Returns
    ``(is_pole_free, offending_roots)``.
    """
    poles = np.asarray(poles, dtype=complex)
    inside = poles[region.contains(poles)]
    return inside.size == 0, inside
