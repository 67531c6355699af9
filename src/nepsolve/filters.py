"""Rational filtering and subspace iteration for large structured pencils.

The boundary contour integral of the spectral projector is discretized by a
k-point trapezoid rule on the circle, giving the rational filter

    zeta(x) = sum_j g_j / (s_j - x),   s_j = c + r e^{i theta_j},
    g_j = (r/k) e^{i theta_j},         theta_j = (2j - 1) pi / k,

whose exact value is ``1 / (1 + ((x - c)/r)^k)``. Applying the filter to a
block of vectors costs one structured shift-invert solve per pole, each of
which reduces to forward block recurrences plus a single n x n solve with
``P(s_j)`` (factored once per rule).
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .eigensolve import extract_nep_eigenpairs
from .pencil import BlockLU, SingularShiftError

__all__ = ["QuadratureRule", "SIFConfig", "SIFResult", "SIFStep", "PoleHitError",
           "quadrature", "scalar_filter", "shift_invert", "apply_filter",
           "default_shift", "sif", "SUBSPACE_START"]

# a filter block of unspecified width starts with this many columns and grows
# to max(ceil(1.5 c), c + 8) once c Ritz values fall in the region
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

    ``lus`` may hold pre-built :class:`BlockLU` factorizations, one per pole;
    the weighted sum is accumulated in pole order so results are reproducible.
    """
    if lus is None:
        lus = _factor_poles(pencil, rule)
    Z = rule.weights[0] * lus[0].solve(Y)
    for g, lu in zip(rule.weights[1:], lus[1:]):
        Z += g * lu.solve(Y)
    return Z


def _factor_poles(pencil, rule):
    lus = []
    for j, s in enumerate(rule.poles):
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

    ``subspace=N`` fixes the block at N columns. The default, ``None``, starts
    at ``SUBSPACE_START`` columns (at most the pencil's dimension) and lets
    :func:`sif` grow the block from its Ritz count; ``grow`` records which,
    and ``subspace`` then reads ``SUBSPACE_START``.
    """

    subspace: int = None
    quad_order: int = 16
    tol_residual: float = 1e-4
    tol_ghost: float = 1e-2
    max_iters: int = 30
    seed: int = 0
    grow: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "grow", self.subspace is None)
        if self.grow:
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
    iterations. All Ritz vectors are carried into the next sweep regardless
    of region membership.

    With ``config.grow`` the block starts at ``min(SUBSPACE_START, dim)``
    columns. After each Rayleigh-Ritz step its width becomes at least
    ``max(ceil(1.5 c), c + 8)``, capped at ``dim``, where ``c`` counts the
    Ritz values inside the region, ghosts included; the Ritz vectors are
    topped up with fresh seeded random columns to that width. The block never
    shrinks.
    Without ``grow`` the block keeps ``config.subspace`` columns.
    """
    rule = quadrature(region.center, region.radius, config.quad_order)
    lus = _factor_poles(pencil, rule)
    sigma_shift = default_shift(region)
    scale = abs(region.center) + region.radius
    row_scale = pencil.equilibration_scale()
    split = (pencil.gamma - 1) * pencil.n
    rng = np.random.default_rng(config.seed)
    width = min(config.subspace, pencil.dim) if config.grow else config.subspace
    need = width
    Y = _random_block(rng, pencil.dim, width)

    trace = []
    converged = False
    prev_count = None
    prev_max_sigma = None
    for it in range(1, config.max_iters + 1):
        width = max(width, need)
        if config.grow and Y.shape[1] < width:
            Y = np.hstack([Y, _random_block(rng, pencil.dim, width - Y.shape[1])])
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

        if it > 2 and prev_max_sigma is not None and np.isfinite(prev_max_sigma) \
                and np.isfinite(max_sigma) and max_sigma > prev_max_sigma * (1 + 1e-8):
            warnings.warn(
                f"in-region residual increased at iteration {it} "
                f"({prev_max_sigma:.3e} -> {max_sigma:.3e})", stacklevel=2)
        prev_max_sigma = max_sigma

        if config.grow:
            # ceil(1.5 c) without floating point
            need = min(max(-(-3 * inside.size // 2), inside.size + 8), pencil.dim)
        done = (ghost_count == 0 and count == prev_count
                and (count == 0 or max_sigma < config.tol_residual))
        prev_count = count
        if done:
            converged = True
            break
        Y = Ritz

    eigenpairs = extract_nep_eigenpairs((lam[keep], Ritz[:, keep]),
                                        pencil.poly.basis, nep, region)
    return SIFResult(eigenpairs=eigenpairs, trace=tuple(trace),
                     converged=converged, iterations=len(trace), subspace=width)


def _random_block(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
