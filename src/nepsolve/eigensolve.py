"""Dense eigenpair extraction, region filtering, and residual checks."""

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
# LAPACK's own LU: an exactly singular matrix gives info > 0, not a warning
from scipy.linalg.lapack import zgecon, zgetrf, zgetrs

from .basis import eval_basis
from .pencil import _dense, recover_eigenvector

__all__ = ["Eigenpair", "EigensolverError", "solve_dense", "solve_pencil_dense",
           "extract_nep_eigenpairs", "residual", "normalized_residual",
           "pole_free_check"]

log = logging.getLogger(__name__)

HUGE_EIGENVALUE_FACTOR = 1e12
# the corner K of C1 is inverted to give a standard eigenproblem when its
# reciprocal condition number (LAPACK gecon, 1-norm) is at least this; a
# worse-conditioned or singular corner sends the pencil to QZ
STANDARD_FORM_RCOND = 1e-4


class EigensolverError(Exception):
    """Raised when the dense eigensolver (geev or QZ) fails to converge."""


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
    """Materialize the pencil and solve it densely; returns ``(lam, V)``.

    ``C1 = diag(I, K)`` differs from the identity only in its corner
    ``K = k_gamma A_gamma``. When ``K`` is well conditioned
    (``rcond(K) >= STANDARD_FORM_RCOND``) the bottom block row of ``C0`` is
    multiplied by ``K^{-1}`` and the standard problem ``C1^{-1} C0`` goes to
    geev, and each eigenvector is then replaced by one inverse-iteration step
    on ``P(lam)`` (see :func:`_refine_eigenvectors`). Otherwise the bottom
    block row is equilibrated and the pencil goes to QZ. Either way the
    eigenvalues and right eigenvectors are those of the original pencil.
    """
    C0, C1 = pencil.materialize(force=True)
    split = (pencil.gamma - 1) * pencil.n
    K = C1[split:, split:]
    lu, piv, info = zgetrf(K)
    rcond = zgecon(lu, np.linalg.norm(K, 1))[0] if info == 0 else 0.0
    if rcond < STANDARD_FORM_RCOND:
        c = pencil.equilibration_scale()
        C0[split:] *= c
        C1[split:] *= c
        return solve_dense(C0, C1)
    C0[split:] = zgetrs(lu, piv, C0[split:])[0]
    lam, V = solve_dense(C0)
    return lam, _refine_eigenvectors(pencil, lam, V)


def _refine_eigenvectors(pencil, lam, V):
    # geev's eigenvalues are as accurate as QZ's, but the leading block of
    # its eigenvectors, which is the reported u, is not. One step of inverse
    # iteration x = P(lam)^{-1} v[:n] fixes that, and the column becomes
    # theta(lam)[:gamma] (x) x, the eigenvector the linearization prescribes
    # (refining only the leading block leaves the pencil backward error
    # large). A column whose step is not finite is kept as geev gave it.
    n, gamma = pencil.n, pencil.gamma
    A = np.array([_dense(a) for a in pencil.poly.coeffs], dtype=complex)
    theta = eval_basis(pencil.poly.basis, lam)[:, : gamma + 1]
    for i in range(lam.size):
        lu, piv, _ = zgetrf(np.tensordot(theta[i], A, axes=1), overwrite_a=True)
        x = zgetrs(lu, piv, V[:n, i, None])[0][:, 0]
        v = np.kron(theta[i, :gamma], x)
        nv = np.linalg.norm(v)
        if np.isfinite(nv) and nv > 0:
            V[:, i] = v / nv
    return V


def _normalize_direction(u):
    # unit 2-norm with the first non-negligible component rotated to the
    # positive real axis, for reproducible eigenvector output
    u = u / np.linalg.norm(u)
    idx = np.nonzero(np.abs(u) > 1e-12 * np.abs(u).max())[0][0]
    phase = u[idx] / abs(u[idx])
    return u * phase.conjugate()


def _vector_norm(u):
    u = np.asarray(u, dtype=complex)
    nu = np.linalg.norm(u)
    if nu == 0:
        raise ValueError("zero vector has no residual")
    return u, nu


def _term_scale(nep, lam, norm1):
    # sum_i |t_i(lam)| * norm(E_i, 1) with the 1-norms precomputed
    denom = float(np.abs(nep.t_values(lam)[0]) @ norm1)
    if denom == 0:
        raise ZeroDivisionError("all scalar terms vanish at this point")
    return denom


def residual(nep, lam, u):
    """Relative residual ``||T(lam) u|| / ||u||`` with exact scalar terms."""
    u, nu = _vector_norm(u)
    return float(np.linalg.norm(nep.apply(lam, u)) / nu)


def normalized_residual(nep, lam, u):
    """Residual scaled by ``sum_i |t_i(lam)| * norm(E_i, 1)``."""
    u, nu = _vector_norm(u)
    denom = _term_scale(nep, lam, nep.norm1_terms())
    return float(np.linalg.norm(nep.apply(lam, u)) / (denom * nu))


def extract_nep_eigenpairs(pairs, basis, nep, region):
    """Turn pencil eigenpairs into problem eigenpairs with diagnostics.

    ``pairs`` is ``(lam, V)`` as returned by :func:`solve_dense`: eigenvalues
    in ``lam``, pencil eigenvectors in the columns of ``V``. Eigenvalues of
    absurd magnitude (artifacts of a singular leading coefficient) and
    bottom-dominated eigenvectors are dropped; everything else is reported
    with its region flag. Results are sorted by real then imaginary part.
    """
    lam_arr, V = pairs
    cutoff = HUGE_EIGENVALUE_FACTOR * (1.0 + abs(region.center) + region.radius)
    norm1 = nep.norm1_terms()
    out = []
    for i, lam in enumerate(lam_arr):
        lam = complex(lam)
        if abs(lam) > cutoff:
            continue
        u, consistency, bottom_dominated = recover_eigenvector(V[:, i], lam, basis,
                                                               nep.n)
        if bottom_dominated:
            log.info("skipping bottom-dominated eigenvector at lam=%s", lam)
            continue
        u = _normalize_direction(u)
        nu = np.linalg.norm(u)
        r = np.linalg.norm(nep.apply(lam, u))
        out.append(Eigenpair(
            lam=lam,
            u=u,
            residual=float(r / nu),
            normalized_residual=float(r / (_term_scale(nep, lam, norm1) * nu)),
            in_region=bool(region.contains(lam)),
            consistency=consistency,
        ))
    out.sort(key=lambda p: (p.lam.real, p.lam.imag))
    return out


def pole_free_check(poles, region):
    """Check the fitted denominator's roots ``poles`` against the closed region.

    ``poles`` is ``poly_roots(xi.denom_coeffs, xi.basis)``. Returns
    ``(is_pole_free, offending_roots)``.
    """
    poles = np.asarray(poles, dtype=complex)
    inside = poles[region.contains(poles)]
    return inside.size == 0, inside
