"""Rational filtering and subspace iteration for large structured pencils.

The boundary contour integral of the spectral projector is discretized by a
k-point trapezoid rule on the circle, giving the rational filter

    zeta(x) = sum_j g_j / (s_j - x),   s_j = c + r e^{i theta_j},
    g_j = (r/k) e^{i theta_j},         theta_j = (2j - 1) pi / k,

whose exact value is ``1 / (1 + ((x - c)/r)^k)``. Applying the filter to a
block of vectors costs one structured shift-invert solve per pole, each of
which reduces to forward block recurrences plus a single n x n solve with
``P(s_j)`` (factored once per rule).

On a real pencil with a real center, poles ``j`` and ``k - 1 - j`` are
conjugate and ``P(conj s) = conj P(s)``, so only the upper-half poles (and
the on-axis pole ``c - r`` for odd ``k``) are factored, and the filter acts
on a real block as ``sum_{j < k/2} 2 Re(g_j S(s_j) Y)``, plus
``Re(g_m S(c - r) Y)`` for odd ``k = 2m + 1``, with
``S(s) = (s C1 - C0)^{-1} C1``.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .eigensolve import extract_nep_eigenpairs
from .pencil import BlockLU, SingularShiftError

__all__ = ["QuadratureRule", "SIFConfig", "SIFResult", "SIFStep", "PoleHitError",
           "quadrature", "scalar_filter", "shift_invert", "apply_filter",
           "default_shift", "sif", "SUBSPACE_START"]

# a filter block of unspecified width starts with this many columns; every
# block grows to max(ceil(1.5 c), c + 8) once c Ritz values fall in the region
SUBSPACE_START = 16


class PoleHitError(Exception):
    """Raised when the filter is evaluated exactly at a quadrature pole."""


@dataclass(frozen=True)
class QuadratureRule:
    """Trapezoid-rule poles and weights on the circle |s - center| = radius."""

    k: int
    poles: np.ndarray
    weights: np.ndarray
    center: complex
    radius: float


def quadrature(center, radius, k):
    """Build the k-point trapezoid rule for the disk boundary."""
    if k < 1:
        raise ValueError("quadrature order must be at least 1")
    if radius <= 0:
        raise ValueError("radius must be positive")
    theta = (2.0 * np.arange(1, k + 1) - 1.0) * np.pi / k
    phase = np.exp(1j * theta)
    return QuadratureRule(k=k, poles=center + radius * phase,
                          weights=(radius / k) * phase,
                          center=complex(center), radius=float(radius))


def scalar_filter(rule, x):
    """Evaluate the rational filter at scalar or array ``x``."""
    x = np.asarray(x, dtype=complex)
    diff = rule.poles - x[..., None]
    if np.any(diff == 0):
        hits = np.unique(x[np.any(diff == 0, axis=-1)])
        raise PoleHitError(f"filter evaluated at quadrature pole(s) {hits.tolist()}")
    vals = (rule.weights / diff).sum(axis=-1)
    return complex(vals) if vals.ndim == 0 else vals


def shift_invert(pencil, mu, Y, lu=None):
    """Solve ``(mu C1 - C0) Z = C1 Y`` through the structured factorization."""
    if lu is None:
        lu = BlockLU(pencil, mu)
    elif lu.mu != mu or lu.pencil is not pencil:
        raise ValueError("supplied factorization does not match shift or pencil")
    return lu.solve(Y)


def apply_filter(pencil, rule, Y, lus=None):
    """Apply the rational filter to the block ``Y``.

    ``lus`` may hold pre-built :class:`BlockLU` factorizations, one per
    factored pole as :func:`_factor_poles` builds them; the weighted sum is
    accumulated in pole order so results are reproducible. On a paired rule
    (real pencil, real center) a real ``Y`` gives a real result, and a
    complex ``Y`` is filtered as the real block ``[Re Y, Im Y]``.
    """
    if lus is None:
        lus = _factor_poles(pencil, rule)
    paired = _paired(pencil, rule)
    weights = rule.weights
    if paired:
        if len(lus) != (rule.k + 1) // 2:
            raise ValueError("a paired rule takes one factorization per upper-half pole")
        Y = np.asarray(Y)
        if np.iscomplexobj(Y):
            Z = apply_filter(pencil, rule, np.column_stack([Y.real, Y.imag]), lus)
            half = Z.shape[1] // 2
            Z = Z[:, :half] + 1j * Z[:, half:]
            return Z[:, 0] if Y.ndim == 1 else Z
        # pole k-1-j is the conjugate of pole j and adds the conjugate term;
        # the on-axis pole of an odd rule is its own partner
        weights = 2 * weights[: len(lus)]
        if rule.k % 2:
            weights[-1] /= 2
    Z = weights[0] * lus[0].solve(Y)
    for g, lu in zip(weights[1:], lus[1:]):
        Z += g * lu.solve(Y)
    return Z.real if paired else Z


def _paired(pencil, rule):
    return rule.center.imag == 0 and pencil.is_real


def _factor_poles(pencil, rule):
    """One factorization per pole, or per upper-half pole on a paired rule.

    Poles are paired by index, ``j`` with ``k - 1 - j``: the computed poles
    are conjugate only to rounding, and the on-axis pole of an odd rule is
    factored at its real part.
    """
    poles = rule.poles
    if _paired(pencil, rule):
        poles = poles[: (rule.k + 1) // 2].copy()
        if rule.k % 2:
            poles[-1] = poles[-1].real
    lus = []
    for j, s in enumerate(poles):
        try:
            lus.append(BlockLU(pencil, s))
        except SingularShiftError as exc:
            raise SingularShiftError(
                f"quadrature pole {j + 1} of {rule.k} at {s} hits the "
                f"spectrum: {exc}") from exc
    return lus


def default_shift(region):
    """Deterministic shift just outside the disk, off the spectrum's usual axes."""
    return region.center + 1.1 * region.radius * np.exp(1j * np.pi / 7)


@dataclass(frozen=True)
class SIFConfig:
    """Subspace-iteration parameters: block width, quadrature, thresholds.

    ``subspace`` is the width the block starts at; the default, ``None``,
    reads ``SUBSPACE_START``. :func:`sif` caps it at the pencil's dimension
    and grows it from the Ritz count.
    """

    subspace: int = None
    quad_order: int = 16
    tol_residual: float = 1e-4
    tol_ghost: float = 1e-2
    max_iters: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.subspace is None:
            object.__setattr__(self, "subspace", SUBSPACE_START)
        if self.subspace < 1:
            raise ValueError("subspace must have at least one column")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not 0 < self.tol_residual < self.tol_ghost:
            raise ValueError("need 0 < tol_residual < tol_ghost")


@dataclass(frozen=True)
class SIFStep:
    """One subspace-iteration record."""

    iteration: int
    in_region_count: int
    ghost_count: int
    max_sigma: float
    min_sigma: float


@dataclass(frozen=True)
class SIFResult:
    """Converged (or flagged partial) eigenpairs with the iteration trace.

    ``subspace`` is the block width of the last iteration.
    """

    eigenpairs: list
    trace: tuple
    converged: bool
    iterations: int
    subspace: int


def _orth(U):
    # thin QR without pivoting; columns with negligible diagonal are dropped
    Q, R = np.linalg.qr(U)
    diag = np.abs(np.diag(R))
    keep = diag > 1e-12 * diag.max() if diag.max() > 0 else diag > 0
    return Q[:, keep]


def sif(pencil, nep, region, config):
    """Subspace iteration with the rational filter on a structured pencil.

    Ritz pairs are classified by the scale-free residual
    ``sigma = ||T(lam) v_1|| / ((|c| + r) ||v_1||)`` (``v_1`` = leading block):
    pairs at or above ``tol_ghost`` are ghosts. The iteration stops once no
    ghost remains inside the region, every in-region pair is below
    ``tol_residual``, and the in-region count is stable across consecutive
    iterations. The orthonormal basis of the filtered block, which spans all
    Ritz vectors whatever their region membership, is carried into the next
    sweep; on a paired rule (real pencil, real center) it stays real.

    The block starts at ``min(config.subspace, dim)`` columns. After each
    Rayleigh-Ritz step its width becomes at least ``max(ceil(1.5 c), c + 8)``,
    capped at ``dim``, where ``c`` counts the Ritz values inside the region,
    ghosts included; the carried basis is topped up with fresh seeded random
    columns, real on a paired rule, to that width. The block never shrinks.
    """
    rule = quadrature(region.center, region.radius, config.quad_order)
    lus = _factor_poles(pencil, rule)
    real = _paired(pencil, rule)
    sigma_shift = default_shift(region)
    scale = abs(region.center) + region.radius
    row_scale = pencil.equilibration_scale()
    split = (pencil.gamma - 1) * pencil.n
    rng = np.random.default_rng(config.seed)
    width = need = min(config.subspace, pencil.dim)
    Y = _random_block(rng, pencil.dim, width, real)

    trace = []
    converged = False
    prev_count = None
    prev_max_sigma = None
    for it in range(1, config.max_iters + 1):
        width = max(width, need)
        if Y.shape[1] < width:
            Y = np.hstack([Y, _random_block(rng, pencil.dim, width - Y.shape[1], real)])
        U = apply_filter(pencil, rule, Y, lus=lus)
        V = _orth(U)
        # equilibrated left scaling (a diagonal equivalence on the pencil)
        C0V = pencil.apply_C0(V)
        C1V = pencil.apply_C1(V)
        C0V[split:] *= row_scale
        C1V[split:] *= row_scale
        W = _orth(C0V - sigma_shift * C1V)
        lam, X = scipy.linalg.eig(W.conj().T @ C0V, W.conj().T @ C1V)
        finite = np.isfinite(lam)
        lam, X = lam[finite], X[:, finite]
        Ritz = V @ X

        inside = np.flatnonzero(region.contains(lam))
        V1 = Ritz[: pencil.n, inside]
        nv1 = np.linalg.norm(V1, axis=0)
        # a zero leading block gets sigma = inf and so counts as a ghost
        sigma = np.divide(np.linalg.norm(nep.apply(lam[inside], V1), axis=0),
                          scale * nv1, out=np.full(inside.size, np.inf),
                          where=nv1 > 0)
        ghost = sigma >= config.tol_ghost
        keep = inside[~ghost]  # columns of the in-region, non-ghost Ritz pairs
        ghost_count = int(ghost.sum())  # ghosts inside the region
        sigmas_in = sigma[~ghost]
        count = sigmas_in.size
        max_sigma = float(sigmas_in.max()) if count else float("nan")
        min_sigma = float(sigmas_in.min()) if count else float("nan")
        trace.append(SIFStep(it, count, ghost_count, max_sigma, min_sigma))

        # a rise below tol_residual is rounding, not divergence, and one over
        # a different set of pairs (the count changed) is no rise at all
        if (it > 2 and count == prev_count and np.isfinite(prev_max_sigma)
                and prev_max_sigma * (1 + 1e-8) < max_sigma < np.inf
                and max_sigma >= config.tol_residual):
            warnings.warn(
                f"in-region residual increased at iteration {it} "
                f"({prev_max_sigma:.3e} -> {max_sigma:.3e})", stacklevel=2)
        prev_max_sigma = max_sigma

        # ceil(1.5 c) without floating point
        need = min(max(-(-3 * inside.size // 2), inside.size + 8), pencil.dim)
        done = (ghost_count == 0 and count == prev_count
                and (count == 0 or max_sigma < config.tol_residual))
        prev_count = count
        if done:
            converged = True
            break
        Y = V

    eigenpairs = extract_nep_eigenpairs((lam[keep], Ritz[:, keep]),
                                        pencil.poly.basis, nep, region)
    return SIFResult(eigenpairs=eigenpairs, trace=tuple(trace),
                     converged=converged, iterations=len(trace), subspace=width)


def _random_block(rng, rows, cols, real):
    if real:
        return rng.standard_normal((rows, cols))
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
