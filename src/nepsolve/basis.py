"""Discrete orthogonal polynomial bases generated by Arnoldi on node multiplication.

Given distinct nodes ``x_1..x_m``, the construction produces a degree-graded
family ``theta_0, .., theta_gamma`` (``theta_0 == 1``) orthonormal in the
discrete inner product ``<f, g> = (1/m) sum_l conj(f(x_l)) g(x_l)`` together
with the (gamma+1) x gamma upper-Hessenberg recurrence matrix ``H``:

    x * theta_{j-1}(x) = sum_{i=1..j+1} H[i-1, j-1] * theta_{i-1}(x).

The leading coefficient of ``theta_j`` is ``k_j = k_{j-1} / H[j, j-1]`` with
``k_0 = 1``, so the family is degree graded exactly when every subdiagonal
entry of ``H`` is nonzero.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["VABasis", "BreakdownError", "build_basis", "eval_basis",
           "leading_coeffs"]


class BreakdownError(Exception):
    """Raised when the node set cannot support the requested degree; ``basis``
    is the basis to the degree before the collapse."""

    def __init__(self, message, basis):
        super().__init__(message)
        self.basis = basis


@dataclass(frozen=True)
class VABasis:
    """Basis data: the nodes, the recurrence matrix and the node evaluations.

    ``Q`` has shape (m, degree+1) with column j holding ``theta_j`` at the
    nodes, each of unit norm in the discrete inner product the basis was
    built under; ``H`` has shape (degree+1, degree). The degree and the
    leading coefficients ``k`` follow from ``H``.
    """

    nodes: np.ndarray
    H: np.ndarray
    Q: np.ndarray

    @property
    def degree(self):
        return self.H.shape[1]

    @property
    def k(self):
        return leading_coeffs(self.H)

    def prefix(self, degree):
        """The basis of the first ``degree + 1`` columns, copied.

        Column ``j+1`` depends only on columns ``0..j``, the nodes and the
        weights, so the result is ``build_basis`` at ``degree`` under the
        same weights, bit for bit.
        """
        return VABasis(nodes=self.nodes, H=self.H[: degree + 1, : degree].copy(),
                       Q=self.Q[:, : degree + 1].copy())


def build_basis(nodes, degree, weights=None):
    """Run the Arnoldi process on ``diag(nodes)`` starting from the ones vector.

    Block classical Gram-Schmidt with one reorthogonalization pass (CGS2);
    raises ``BreakdownError`` if an orthogonalized candidate column collapses.

    ``weights`` switches the inner product to ``sum_l w_l conj(f_l) g_l``
    (default: uniform ``1/m``); positive weights are required. A weighted
    basis adapts the orthogonalization to a reweighted node distribution
    while keeping the same recurrence structure.
    """
    nodes = np.asarray(nodes, dtype=complex).ravel()
    m = nodes.size
    if m < 1:
        raise ValueError("need at least one node")
    if np.unique(nodes).size != m:
        raise ValueError("nodes must be pairwise distinct")
    if weights is None:
        w = np.full(m, 1.0 / m)
    else:
        w = np.asarray(weights, dtype=float).ravel()
        if w.size != m or np.any(w <= 0):
            raise ValueError("weights must be positive, one per node")
    if degree < 0:
        raise ValueError(f"degree {degree} is below the basis degree 0")
    if degree + 1 > m:
        raise ValueError(f"degree {degree} needs at least {degree + 1} nodes, got {m}")
    Q = np.empty((m, degree + 1), dtype=complex)
    H = np.zeros((degree + 1, degree), dtype=complex)
    Q[:, 0] = 1.0 / np.sqrt(w.sum())
    for j in range(degree):
        v = nodes * Q[:, j]
        Qj = Q[:, : j + 1]
        h = np.zeros(j + 1, dtype=complex)
        for _ in range(2):  # CGS + one reorthogonalization pass
            c = Qj.conj().T @ (w * v)
            h += c
            v -= Qj @ c
        nrm = np.sqrt(np.vdot(v, w * v).real)
        if nrm < 1e-14 * np.sqrt(m):
            raise BreakdownError(
                f"basis breakdown at degree {j + 1}: candidate column norm "
                f"{nrm:.3e} below tolerance; nodes cannot support the degree",
                VABasis(nodes=nodes, H=H, Q=Q).prefix(j))
        H[: j + 1, j] = h
        H[j + 1, j] = nrm
        Q[:, j + 1] = v / H[j + 1, j]
    return VABasis(nodes=nodes, H=H, Q=Q)


def leading_coeffs(H):
    """Leading coefficients from the subdiagonal: k_0 = 1, k_j = k_{j-1}/H[j, j-1]."""
    sub = np.diagonal(H, -1)
    zero = np.flatnonzero(sub == 0)
    if zero.size:
        j = zero[0] + 1
        raise ZeroDivisionError(
            f"zero subdiagonal entry H[{j},{j - 1}]; matrix is not irreducible")
    return np.divide.accumulate(np.r_[1.0, sub])


def eval_basis(basis, points):
    """Evaluate all basis polynomials at ``points``; returns (len(points), degree+1).

    Forward substitution of the recurrence:
    ``theta_{j+1}(y) = (y*theta_j(y) - sum_i H[i, j]*theta_i(y)) / H[j+1, j]``.
    """
    y = np.asarray(points, dtype=complex).ravel()
    H = basis.H
    P = np.empty((y.size, basis.degree + 1), dtype=complex)
    P[:, 0] = basis.Q[0, 0]  # theta_0 is the constant fixed by normalization
    for j in range(basis.degree):
        acc = y * P[:, j] - P[:, : j + 1] @ H[: j + 1, j]
        P[:, j + 1] = acc / H[j + 1, j]
    return P
