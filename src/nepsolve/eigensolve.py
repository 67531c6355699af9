"""Dense eigenpair extraction, region filtering, and residual checks."""

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg.lapack import get_lapack_funcs

from .basis import eval_basis
from .pencil import DENSE_DIM_LIMIT, _dense, _factor_p

__all__ = ["Eigenpair", "EigensolverError", "PencilPairs", "solve_dense",
           "solve_pencil_dense", "refine_eigenvectors", "extract_nep_eigenpairs",
           "pole_free_check"]

log = logging.getLogger(__name__)

HUGE_EIGENVALUE_FACTOR = 1e12
# the corner K of C1 is inverted to give a standard eigenproblem when its
# reciprocal condition number (LAPACK gecon, 1-norm) is at least this; a
# worse-conditioned or singular corner sends the pencil to QZ
STANDARD_FORM_RCOND = 1e-4


class EigensolverError(Exception):
    """Raised when the dense eigensolver (geev or QZ) fails to converge."""


class PencilPairs(tuple):
    """``(lam, V)`` from :func:`solve_pencil_dense`.

    ``path`` is ``"geev"`` or ``"qz"``; ``rcond`` is the reciprocal condition
    number of the corner ``K`` of ``C1`` that chose it (0 for a singular one);
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

    With ``C1`` the generalized problem goes to the platform QZ (LAPACK
    ggev); without it the standard problem goes to LAPACK geev. Neither is
    asked for eigenvectors. Infinite eigenvalues (singular ``C1``
    directions) are dropped.
    """
    C0 = np.asarray(C0)
    if (C0.ndim != 2 or C0.shape[0] != C0.shape[1]
            or (C1 is not None and np.shape(C1) != C0.shape)):
        raise ValueError("pencil matrices must be square and of equal shape")
    try:
        lam = scipy.linalg.eigvals(C0, C1)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"dense eigensolver failed to converge: {exc}") from exc
    return lam[np.isfinite(lam)]


def solve_pencil_dense(pencil, region=None):
    """Solve the pencil densely; returns ``(lam, V)`` as :class:`PencilPairs`.

    ``C1 = diag(I, K)`` differs from the identity only in its corner
    ``K = k_gamma A_gamma``. When ``K`` is well conditioned
    (``rcond(K) >= STANDARD_FORM_RCOND``) the bottom block row of ``C0`` is
    multiplied by ``K^{-1}`` and geev solves the standard problem
    ``C1^{-1} C0``; otherwise the pencil is materialized, its bottom block row
    is equilibrated and QZ solves it. A real pencil runs dgetrf/dgecon/dgetrs
    and dgeev or dggev. Either solver gives eigenvalues only; with a
    ``region`` those outside it are dropped and counted. Each kept eigenvalue
    gets its eigenvector from two steps of :func:`refine_eigenvectors` from a
    fixed seeded start.
    """
    split = (pencil.gamma - 1) * pencil.n
    K = _dense(pencil.c1_corner)
    getrf, gecon, getrs = get_lapack_funcs(("getrf", "gecon", "getrs"), (K,))
    lu, piv, info = getrf(K)
    rcond = float(gecon(lu, np.linalg.norm(K, 1))[0]) if info == 0 else 0.0
    if rcond < STANDARD_FORM_RCOND:
        C0, C1 = pencil.materialize(force=True)
        c = pencil.equilibration_scale()
        C0[split:] *= c
        C1[split:] *= c
        lam, path = solve_dense(C0, C1), "qz"
    else:
        C0 = pencil._dense_C0()
        C0[split:] = getrs(lu, piv, C0[split:])[0]
        lam, path = solve_dense(C0), "geev"
    inside = np.ones(lam.size, dtype=bool) if region is None else region.contains(lam)
    lam = lam[inside]
    # row i starts eigenvalue i, whatever the number of eigenvalues kept
    start = np.random.default_rng(0).standard_normal((lam.size, pencil.n)).T
    V = refine_eigenvectors(pencil, lam, start, steps=2)
    return PencilPairs(lam, V, path, rcond, int(inside.size - lam.size))


def refine_eigenvectors(pencil, lam, U, steps=1):
    """Pencil eigenvectors for the eigenvalues ``lam`` by inverse iteration.

    ``P(lam[i])`` is factored once (SuperLU when it is sparse, LAPACK
    otherwise, as :class:`~nepsolve.pencil.BlockLU` factors it) and
    ``x <- P(lam[i])^{-1} x / ||x||`` runs ``steps`` times from
    ``x = U[:, i]``; column i of the result is the unit
    ``theta(lam[i])[:gamma] (x) x`` the linearization prescribes. An exactly
    singular ``P(lam[i])`` or a non-finite step gives the SVD null vector
    instead, except that a sparse one above ``DENSE_DIM_LIMIT`` keeps its last
    finite ``x``. On a real pencil ``P(conj lam) = conj P(lam)``, so an
    eigenvalue that is the conjugate of the previous one (geev's order for a
    pair) takes the conjugate of its vector.
    """
    theta = eval_basis(pencil.poly.basis, lam)[:, : pencil.gamma]
    V = np.empty((pencil.dim, lam.size), dtype=complex)
    for i in range(lam.size):
        if pencil.is_real and i and lam[i].imag and lam[i] == lam[i - 1].conj():
            V[:, i] = V[:, i - 1].conj()
            continue
        M = pencil.poly(lam[i])
        solve = _factor_p(M)[0]
        x = U[:, i]
        for _ in range(steps if solve else 0):
            y = solve(x)
            ny = np.linalg.norm(y)
            if not 0 < ny < np.inf:
                solve = None
                break
            x = y / ny
        if solve is None and (not sp.issparse(M) or pencil.dim <= DENSE_DIM_LIMIT):
            x = _null_vector(M)
        v = np.kron(theta[i], x)
        V[:, i] = v / np.linalg.norm(v)
    return V


def _null_vector(M):
    """Right singular vector of ``M`` for its smallest singular value."""
    return np.linalg.svd(_dense(M))[2][-1].conj()


def extract_nep_eigenpairs(pairs, basis, nep, region):
    """Turn pencil eigenpairs into problem eigenpairs with diagnostics.

    ``pairs`` is ``(lam, V)`` as returned by :func:`solve_pencil_dense`:
    eigenvalues in ``lam``, pencil eigenvectors in the columns of ``V``.
    Eigenvalues of absurd magnitude (artifacts of a singular leading
    coefficient) and bottom-dominated eigenvectors are dropped; everything
    else is reported with its region flag and ``consistency``, which is
    ``max_i ||v_i - theta_i(lam) v_1|| / ||v||`` over the trailing blocks.
    Results are sorted by real then imaginary part.
    """
    lam, V = pairs
    n = nep.n
    gamma, rest = divmod(V.shape[0], n)
    if rest:
        raise ValueError("vector length must be a multiple of the block size")
    cutoff = HUGE_EIGENVALUE_FACTOR * (1.0 + abs(region.center) + region.radius)
    lam = np.asarray(lam, dtype=complex)
    finite = np.abs(lam) <= cutoff
    vnorm = np.linalg.norm(V, axis=0)
    if np.any(vnorm[finite] == 0):
        raise ValueError("zero vector")
    unorm = np.linalg.norm(V[:n], axis=0)
    bottom = finite & (unorm < 1e-10 * vnorm)
    for z in lam[bottom]:
        log.info("skipping bottom-dominated eigenvector at lam=%s", complex(z))
    keep = finite & ~bottom
    if not keep.all():  # V is copied only when a column goes
        lam, V, vnorm, unorm = lam[keep], V[:, keep], vnorm[keep], unorm[keep]
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
    scale = np.abs(nep.t_values(lam)) @ nep.norm1_terms()
    if np.any(scale == 0):
        raise ZeroDivisionError("all scalar terms vanish at this point")
    in_region = region.contains(lam)
    return [Eigenpair(lam=complex(lam[k]), u=U[:, k], residual=float(r[k] / nu[k]),
                      normalized_residual=float(r[k] / (scale[k] * nu[k])),
                      in_region=bool(in_region[k]), consistency=float(consistency[k]))
            for k in np.lexsort((lam.imag, lam.real))]


def pole_free_check(poles, region):
    """Check the fitted denominator's roots ``poles`` against the closed region.

    ``poles`` is ``poly_roots(xi.denom_coeffs, xi.basis)``. Returns
    ``(is_pole_free, offending_roots)``.
    """
    poles = np.asarray(poles, dtype=complex)
    inside = poles[region.contains(poles)]
    return inside.size == 0, inside
