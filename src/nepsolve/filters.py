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

import functools
import os
import traceback
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .eigensolve import extract_nep_eigenpairs
from .pencil import BlockLU, SingularShiftError

__all__ = ["QuadratureRule", "SIFConfig", "SIFResult", "SIFStep", "PoleHitError",
           "quadrature", "scalar_filter", "shift_invert", "apply_filter", "sif",
           "SUBSPACE_START"]

# the filter block's default starting width (see sif)
SUBSPACE_START = 16
# the sweep budget of sif; a run that spends it stops "budget"
SIF_MAX_ITERS = 30


class PoleHitError(Exception):
    """Raised when the filter is evaluated exactly at a quadrature pole."""


@dataclass(frozen=True)
class QuadratureRule:
    """Trapezoid-rule poles and weights on the circle |s - center| = radius."""

    k: int
    poles: np.ndarray
    weights: np.ndarray
    center: complex


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
                          center=complex(center))


def scalar_filter(rule, x):
    """Evaluate the rational filter at scalar or array ``x``."""
    x = np.asarray(x, dtype=complex)
    diff = rule.poles - x[..., None]
    if np.any(diff == 0):
        hits = np.unique(x[np.any(diff == 0, axis=-1)])
        raise PoleHitError(f"filter evaluated at quadrature pole(s) {hits.tolist()}")
    vals = (rule.weights / diff).sum(axis=-1)
    return complex(vals) if vals.ndim == 0 else vals


def shift_invert(pencil, mu, Y):
    """Solve ``(mu C1 - C0) Z = C1 Y`` through a structured factorization at ``mu``."""
    return BlockLU(pencil, mu).solve(Y)


def apply_filter(pencil, rule, Y, terms):
    """Apply the rational filter to the block ``Y``: ``sum_j g_j Z_j``.

    ``terms`` are the ``(weight, worker, solve)`` triples :func:`_factor_poles`
    yields. Pole ``j``'s block solve ``Z_j`` runs on the worker that owns its
    factor, at most one solve per worker at a time, into an output block
    allocated here and reused once its term is added. The terms are added
    here in pole order, so results do not depend on the worker count. On a
    paired rule (real pencil, real center) ``Y`` must be real, and so is the
    result.
    """
    paired = _paired(pencil, rule)
    if paired and np.iscomplexobj(Y):
        raise ValueError("a paired rule filters a real block only")
    Y = np.asarray(Y, dtype=complex)  # once, not once per pole
    w = len({worker for _, worker, _ in terms})
    futures = [worker.submit(solve, Y, np.empty_like(Y)) for _, worker, solve in terms[:w]]
    for j, (g, _, _) in enumerate(terms):
        out = futures[j].result()
        np.multiply(g, out, out=out)  # g * Z_j, in place
        if j:
            Z += out
        else:
            Z = out.copy()
        if j + w < len(terms):  # pole j + w is on pole j's worker
            _, worker, solve = terms[j + w]
            futures.append(worker.submit(solve, Y, out))
    return Z.real if paired else Z


def _paired(pencil, rule):
    return rule.center.imag == 0 and pencil.is_real


@contextmanager
def _factor_poles(pencil, rule):
    """The filter's pole sum as ``(weight, worker, solve)`` terms, in pole order.

    A context manager: it yields the list of terms once every pole is
    factored, and empties it on exit. Pole ``j`` is factored, solved with and
    freed on worker ``j % w`` (see README): ``worker.submit(solve, Y, out)``
    runs ``BlockLU.solve(Y, out)`` with its factor there."""
    poles, weights = rule.poles, rule.weights
    if _paired(pencil, rule):
        half = (rule.k + 1) // 2
        poles, weights = poles[:half].copy(), 2 * weights[:half]
        if rule.k % 2:
            poles[-1], weights[-1] = poles[-1].real, weights[-1] / 2
    # os.sched_getaffinity is Linux-only
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    w = min(len(poles), cpus)
    pencil.poly.ordering  # computed here, once, before the workers share it
    workers = [ThreadPoolExecutor(max_workers=1) for _ in range(w)]
    owned = [[] for _ in range(w)]  # owned[i] grows and is cleared on worker i only

    def factor(j, s):
        try:
            owned[j % w].append(BlockLU(pencil, s))
        except SingularShiftError as exc:
            # the failed BlockLU lives in the traceback's frames: free it here
            traceback.clear_frames(exc.__traceback__)
            raise SingularShiftError(
                f"quadrature pole {j + 1} of {rule.k} at {s} hits the "
                f"spectrum: {exc}") from exc

    def solve(j, Y, out):
        try:
            return owned[j % w][j // w].solve(Y, out)
        except Exception as exc:
            traceback.clear_frames(exc.__traceback__)  # its frames hold the BlockLU
            raise

    terms = []
    try:
        # the first failing pole in pole order raises, once every worker is done
        futures = [workers[j % w].submit(factor, j, s) for j, s in enumerate(poles)]
        for future in futures:
            future.result()
        terms.extend((g, workers[j % w], functools.partial(solve, j))
                     for j, g in enumerate(weights))
        yield terms
    finally:
        terms.clear()
        for worker, own in zip(workers, owned):
            worker.submit(own.clear)
            worker.shutdown()


@dataclass(frozen=True)
class SIFConfig:
    """Subspace-iteration parameters: block width, quadrature, thresholds.

    ``subspace`` is the width the block starts at. :func:`sif` caps it at the
    pencil's dimension and grows it from the Ritz count. ``quad_order``, the
    pole count, is 8 for ``None`` if every ``E_i`` is sparse, else 16
    (measured in the README).
    ``tol_residual`` is the scale-free residual target of every in-region pair
    (``run`` lowers it to the report's bound over ``|c| + r``); ``tol_ghost``
    marks a ghost.
    """

    subspace: int = SUBSPACE_START
    quad_order: int = None
    tol_residual: float = 1e-4
    tol_ghost: float = 1e-2
    seed: int = 0

    def __post_init__(self):
        if self.subspace < 1:
            raise ValueError("subspace must have at least one column")
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
    """Eigenpairs of the last sweep with the iteration trace.

    ``stop_reason`` is ``"converged"``, ``"stalled"`` or ``"budget"`` (see
    :func:`sif`); only the first counts as converged. ``subspace`` is the last
    sweep's block width, ``quad_order`` the pole count, ``factorizations``
    the pole factorizations and ``block_solves`` the solves with them.
    """

    eigenpairs: list
    trace: tuple
    stop_reason: str
    subspace: int
    quad_order: int
    factorizations: int

    @property
    def converged(self):
        return self.stop_reason == "converged"

    @property
    def iterations(self):
        return len(self.trace)

    @property
    def block_solves(self):
        # each sweep applies the filter once: one block solve per factored pole
        return len(self.trace) * self.factorizations


def _orth(U):
    # thin QR without pivoting; columns with negligible diagonal are dropped
    import scipy.linalg
    Q, R = scipy.linalg.qr(U, mode="economic", check_finite=False)
    diag = np.abs(np.diag(R))
    keep = diag > 1e-12 * diag.max() if diag.max() > 0 else diag > 0
    return Q[:, keep]


def sif(pencil, nep, region, config):
    """Subspace iteration with the rational filter on a structured pencil.

    The residual ``sigma`` of each Ritz pair, the ghost, the three stop
    reasons and the block's growth are as described in the README. The
    orthonormal basis of the filtered block is carried into the next sweep.
    """
    import scipy.linalg
    k = (config.quad_order if config.quad_order is not None
         else 8 if pencil.poly.ordering is not None else 16)
    rule = quadrature(region.center, region.radius, k)
    real = _paired(pencil, rule)
    # deterministic shift just outside the disk, off the spectrum's usual axes
    sigma_shift = region.center + 1.1 * region.radius * np.exp(1j * np.pi / 7)
    scale = abs(region.center) + region.radius
    row_scale = pencil.equilibration_scale()
    split = (pencil.gamma - 1) * pencil.n
    rng = np.random.default_rng(config.seed)
    width = need = min(config.subspace, pencil.dim)
    Y = _random_block(rng, pencil.dim, width, real)

    trace = []
    stop_reason = "budget"
    with _factor_poles(pencil, rule) as terms:
        for it in range(1, SIF_MAX_ITERS + 1):
            width = max(width, need)
            if Y.shape[1] < width:
                Y = np.hstack([Y, _random_block(rng, pencil.dim, width - Y.shape[1],
                                                 real)])
            U = apply_filter(pencil, rule, Y, terms)
            if it == 1:  # Hutchinson on the random Y: E[y y^H] = I, 2 I if complex
                mass = abs(np.vdot(Y, U)) / (Y.shape[1] * (1 if real else 2))
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

            # ceil(1.5 c) without floating point
            need = min(max(-(-3 * inside.size // 2), inside.size + 8), pencil.dim)
            prev = trace[-2] if it > 1 else None
            if ghost_count == 0 and prev and count == prev.in_region_count:
                if max_sigma < config.tol_residual if count else mass < 0.5:
                    stop_reason = "converged"
                    break
                # neither the worst nor the best of the same pairs got closer
                # (nan, for no pairs, never stalls)
                if max_sigma >= prev.max_sigma and min_sigma >= prev.min_sigma:
                    stop_reason = "stalled"
                    break
            Y = V
        factorizations = len(terms)

    eigenpairs = extract_nep_eigenpairs((lam[keep], Ritz[:, keep]),
                                        pencil.poly.basis, nep, region)
    return SIFResult(eigenpairs=eigenpairs, trace=tuple(trace), stop_reason=stop_reason,
                     subspace=width, quad_order=k, factorizations=factorizations)


def _random_block(rng, rows, cols, real):
    if real:
        return rng.standard_normal((rows, cols))
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
