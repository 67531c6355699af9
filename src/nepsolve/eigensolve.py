"""Dense eigenpair extraction, region filtering, and residual checks."""

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .pencil import poly_roots, recover_eigenvector

__all__ = ["Eigenpair", "EigensolverError", "solve_dense", "solve_pencil_dense",
           "extract_nep_eigenpairs", "residual", "normalized_residual",
           "pole_free_check"]

log = logging.getLogger(__name__)

HUGE_EIGENVALUE_FACTOR = 1e12


class EigensolverError(Exception):
    """Raised when the underlying dense eigensolver fails to converge."""


@dataclass(frozen=True)
class Eigenpair:
    """Computed eigenpair with residual diagnostics."""

    lam: complex
    u: np.ndarray
    residual: float
    normalized_residual: float
    in_region: bool
    consistency: float


def solve_dense(C0, C1):
    """All finite eigenpairs of the pencil ``C0 v = lam C1 v`` via the platform QZ.

    Returns ``(lam, V)`` with eigenvalues in ``lam`` and right eigenvectors in
    the columns of ``V``; infinite eigenvalues (singular ``C1`` directions)
    are dropped.
    """
    C0 = np.asarray(C0)
    C1 = np.asarray(C1)
    if C0.shape != C1.shape or C0.shape[0] != C0.shape[1]:
        raise ValueError("pencil matrices must be square and of equal shape")
    try:
        lam, V = scipy.linalg.eig(C0, C1, right=True)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"dense QZ failed to converge: {exc}") from exc
    finite = np.isfinite(lam)
    return lam[finite], V[:, finite]


def solve_pencil_dense(pencil):
    """Materialize, equilibrate the bottom block row, and run the dense solve.

    The scaling is a left diagonal equivalence, so the returned eigenvalues
    and right eigenvectors belong to the original pencil.
    """
    C0, C1 = pencil.materialize(force=True)
    c = pencil.equilibration_scale()
    split = (pencil.gamma - 1) * pencil.n
    C0[split:] *= c
    C1[split:] *= c
    return solve_dense(C0, C1)


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


def pole_free_check(xi, region):
    """Check the fitted denominator for roots inside the closed region.

    Returns ``(is_pole_free, offending_roots)``.
    """
    roots = poly_roots(xi.denom_coeffs, xi.basis)
    inside = roots[region.contains(roots)]
    return inside.size == 0, inside
