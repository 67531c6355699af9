"""Dense eigenpair extraction, region filtering, and residual checks."""

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
# LAPACK's own LU: an exactly singular matrix gives info > 0, not a warning
from scipy.linalg.lapack import zgecon, zgetrf, zgetrs

from .basis import eval_basis
from .pencil import SPARSE_ORDERING, _dense

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
    number of the corner ``K`` of ``C1`` that chose it (0 for a singular one).
    """

    def __new__(cls, lam, V, path, rcond):
        pairs = super().__new__(cls, (lam, V))
        pairs.path = path
        pairs.rcond = rcond
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
    """All finite eigenpairs of ``C0 v = lam C1 v``, or of ``C0 v = lam v``.

    With ``C1`` the generalized problem goes to the platform QZ (LAPACK
    ggev); without it the standard problem goes to LAPACK geev. Returns
    ``(lam, V)`` with eigenvalues in ``lam`` and right eigenvectors in the
    columns of ``V``; infinite eigenvalues (singular ``C1`` directions) are
    dropped.
    """
    C0 = np.asarray(C0)
    if (C0.ndim != 2 or C0.shape[0] != C0.shape[1]
            or (C1 is not None and np.shape(C1) != C0.shape)):
        raise ValueError("pencil matrices must be square and of equal shape")
    try:
        lam, V = scipy.linalg.eig(C0, C1, right=True)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"dense eigensolver failed to converge: {exc}") from exc
    finite = np.isfinite(lam)
    return lam[finite], V[:, finite]


def solve_pencil_dense(pencil):
    """Solve the pencil densely; returns ``(lam, V)`` as :class:`PencilPairs`.

    ``C1 = diag(I, K)`` differs from the identity only in its corner
    ``K = k_gamma A_gamma``. When ``K`` is well conditioned
    (``rcond(K) >= STANDARD_FORM_RCOND``) the bottom block row of ``C0`` is
    multiplied by ``K^{-1}`` and the standard problem ``C1^{-1} C0`` goes to
    geev, and each eigenvector is then replaced by one inverse-iteration step
    on ``P(lam)`` (see :func:`refine_eigenvectors`); only ``C0`` is built
    densely. Otherwise the pencil is materialized, its bottom block row is
    equilibrated and it goes to QZ. Either way the
    eigenvalues and right eigenvectors are those of the original pencil, and
    the result's ``path`` names the solver that ran.
    """
    split = (pencil.gamma - 1) * pencil.n
    K = _dense(pencil.c1_corner)
    lu, piv, info = zgetrf(K)
    rcond = float(zgecon(lu, np.linalg.norm(K, 1))[0]) if info == 0 else 0.0
    if rcond < STANDARD_FORM_RCOND:
        C0, C1 = pencil.materialize(force=True)
        c = pencil.equilibration_scale()
        C0[split:] *= c
        C1[split:] *= c
        return PencilPairs(*solve_dense(C0, C1), "qz", rcond)
    C0 = pencil._dense_C0()
    C0[split:] = zgetrs(lu, piv, C0[split:])[0]
    lam, V = solve_dense(C0)
    refine_eigenvectors(pencil, lam, V)
    return PencilPairs(lam, V, "geev", rcond)


def refine_eigenvectors(pencil, lam, V):
    """One inverse-iteration step on ``P(lam)`` for each column of ``V``, in place.

    The leading block of a pencil eigenvector read off a linearization can be
    far less accurate than its eigenvalue. The step ``x = P(lam)^{-1} v[:n]``
    fixes that, and the column becomes ``theta(lam)[:gamma] (x) x`` with unit
    norm, the eigenvector the linearization prescribes (refining only the
    leading block would leave the pencil backward error large). ``P(lam)`` is
    factored sparsely when every coefficient is sparse, densely otherwise. A
    column whose step is not finite is kept as given. Returns the mask of
    replaced columns.
    """
    n, gamma = pencil.n, pencil.gamma
    coeffs = pencil.poly.coeffs
    sparse = all(sp.issparse(a) for a in coeffs)
    if not sparse:
        A = np.array([_dense(a) for a in coeffs], dtype=complex)
    theta = eval_basis(pencil.poly.basis, lam)[:, : gamma + 1]
    replaced = np.zeros(lam.size, dtype=bool)
    for i in range(lam.size):
        if sparse:
            try:
                lu = spla.splu(pencil.poly(lam[i]).tocsc(), permc_spec=SPARSE_ORDERING)
            except RuntimeError:  # SuperLU met an exactly zero pivot
                continue
            x = lu.solve(V[:n, i])
        else:
            lu, piv, _ = zgetrf(np.tensordot(theta[i], A, axes=1), overwrite_a=True)
            x = zgetrs(lu, piv, V[:n, i, None])[0][:, 0]
        v = np.kron(theta[i, :gamma], x)
        nv = np.linalg.norm(v)
        if np.isfinite(nv) and nv > 0:
            V[:, i] = v / nv
            replaced[i] = True
    return replaced


def extract_nep_eigenpairs(pairs, basis, nep, region):
    """Turn pencil eigenpairs into problem eigenpairs with diagnostics.

    ``pairs`` is ``(lam, V)`` as returned by :func:`solve_dense`: eigenvalues
    in ``lam``, pencil eigenvectors in the columns of ``V``. Eigenvalues of
    absurd magnitude (artifacts of a singular leading coefficient) and
    bottom-dominated eigenvectors are dropped; everything else is reported
    with its region flag and ``consistency``, which is
    ``max_i ||v_i - theta_i(lam) v_1|| / ||v||`` over the trailing blocks.
    Results are sorted by real then imaginary part.
    """
    lam, V = pairs
    n = nep.n
    gamma, rest = divmod(V.shape[0], n)
    if rest:
        raise ValueError("vector length must be a multiple of the block size")
    cutoff = HUGE_EIGENVALUE_FACTOR * (1.0 + abs(region.center) + region.radius)
    finite = np.abs(lam) <= cutoff
    lam, V = np.asarray(lam, dtype=complex)[finite], V[:, finite]
    vnorm = np.linalg.norm(V, axis=0)
    if np.any(vnorm == 0):
        raise ValueError("zero vector")
    unorm = np.linalg.norm(V[:n], axis=0)
    bottom = unorm < 1e-10 * vnorm
    for z in lam[bottom]:
        log.info("skipping bottom-dominated eigenvector at lam=%s", complex(z))
    lam, V, vnorm, unorm = lam[~bottom], V[:, ~bottom], vnorm[~bottom], unorm[~bottom]
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
