"""Matrix polynomial assembly and its structured pencil linearization.

From a fit ``xi = [p_1..p_s]/q`` and split-form matrices ``E_i`` we form
``P(x) = sum_j theta_j(x) A_j`` with ``A_j = sum_i a_{i,j} E_i`` and linearize
it into the gamma*n x gamma*n pencil

    C0 = [[ H([gamma],[gamma-1])^T (x) I_n                          ],
          [ -k_{gamma-1} [A_0..A_{gamma-1}]
              + k_gamma H([gamma],gamma)^T (x) A_gamma ]],
    C1 = diag(I_{(gamma-1)n}, k_gamma A_gamma),

which satisfies ``(C0 - x C1)(theta(x) (x) I_n) = -k_{gamma-1} e_gamma (x) P(x)``
so the finite spectrum of ``P`` transfers to the pencil. The pencil is kept in
implicit block form; a column permutation turns ``mu C1 - C0`` into a block LU
product whose only n x n solve involves ``P(mu)``, which is what the filter
module exploits.
"""

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
# LAPACK's own LU: an exactly singular matrix gives info > 0, not a warning
from scipy.linalg.lapack import get_lapack_funcs

from .basis import eval_basis

__all__ = ["MatrixPolynomial", "StructuredPencil", "BlockLU",
           "SingularShiftError", "assemble", "build_pencil",
           "verify_linearization", "block_lu",
           "gram_matrix", "error_bound", "poly_roots", "export_pencil"]

# trailing polynomial coefficients below this fraction of the largest are dropped
TRIM_RTOL = 1e-14
# largest pencil dimension that is materialized densely without ``force``;
# the CLI's ``--solver auto`` switches to the filter path above it
DENSE_DIM_LIMIT = 5000
# SuperLU column ordering for a sparse P(mu): minimum degree on the pattern of
# A + A^T. P(mu) is structurally near-symmetric, and on the n=1000
# tridiagonal-plus-random criterion-7 family this keeps nnz(L+U) per pole at
# about 255k-259k where the default COLAMD gives 415k, halving factor and
# solve time. Partial pivoting (diag_pivot_thresh=1) is unchanged.
SPARSE_ORDERING = "MMD_AT_PLUS_A"


class SingularShiftError(Exception):
    """Raised when a shift makes the polynomial numerically singular."""


def _dense(A):
    return A.toarray() if sp.issparse(A) else np.asarray(A)


def _fro(A):
    if sp.issparse(A):
        return float(np.sqrt((np.abs(A.data) ** 2).sum())) if A.nnz else 0.0
    return float(np.linalg.norm(A, "fro"))


class MatrixPolynomial:
    """Coefficients ``A_0..A_gamma`` of a matrix polynomial in a given basis."""

    def __init__(self, coeffs, basis):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("need at least one coefficient")
        shapes = {A.shape for A in coeffs}
        if len(shapes) != 1 or any(a != b for a, b in shapes):
            raise ValueError("coefficients must share a square shape")
        if len(coeffs) - 1 > basis.degree:
            raise ValueError("more coefficients than basis polynomials")
        self.coeffs = coeffs
        self.basis = basis

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def n(self):
        return self.coeffs[0].shape[0]

    def __call__(self, x):
        """Evaluate ``P(x)``; sparse if every coefficient is sparse."""
        theta = eval_basis(self.basis, [x])[0]
        acc = theta[0] * self.coeffs[0]
        for j in range(1, self.degree + 1):
            acc = acc + theta[j] * self.coeffs[j]
        return acc

    def trimmed(self):
        """Drop trailing coefficients that are negligible in Frobenius norm."""
        norms = [_fro(A) for A in self.coeffs]
        top = max(norms)
        if top == 0.0:
            raise ValueError("all coefficients vanish")
        deg = self.degree
        while deg > 0 and norms[deg] < TRIM_RTOL * top:
            deg -= 1
        return MatrixPolynomial(self.coeffs[: deg + 1], self.basis)


def assemble(xi, nep):
    """Combine fit numerators with split-form matrices: ``A_j = sum_i a_{i,j} E_i``.

    Coefficients run up to the basis degree; entries beyond a numerator's own
    degree contribute zero. They are real when the fit is real (see
    :func:`~nepsolve.lawson.lawson`) and every ``E_i`` has a zero imaginary
    part, complex otherwise.
    """
    if nep.s != len(xi.numer_coeffs):
        raise ValueError(f"fit has {len(xi.numer_coeffs)} components, "
                         f"problem has {nep.s} terms")
    gamma = xi.basis.degree
    n = nep.n
    mats = nep.matrices
    real = (not any(np.iscomplexobj(a) for a in xi.numer_coeffs)
            and not any(np.any((E.data if sp.issparse(E) else E).imag) for E in mats))
    if real:
        mats = [E.real for E in mats]
    dtype = float if real else complex
    coeffs = []
    for j in range(gamma + 1):
        acc = None
        for a, E in zip(xi.numer_coeffs, mats):
            if j >= a.size or a[j] == 0:
                continue
            acc = a[j] * E if acc is None else acc + a[j] * E
        if acc is None:
            acc = (sp.csr_matrix((n, n), dtype=dtype)
                   if sp.issparse(mats[0]) else np.zeros((n, n), dtype=dtype))
        coeffs.append(acc)
    return MatrixPolynomial(coeffs, xi.basis)


class StructuredPencil:
    """Implicit block form of ``(C0, C1)`` with on-demand dense materialization."""

    def __init__(self, poly):
        gamma = poly.degree
        if gamma < 1:
            raise ValueError("constant polynomial has no pencil")
        self.poly = poly
        self.n = poly.n
        self.gamma = gamma
        self.H = poly.basis.H
        self.k = poly.basis.k
        A = poly.coeffs
        kg, kg1 = self.k[gamma], self.k[gamma - 1]
        # bottom block row of C0 and the trailing block of C1
        self.bottom = [-kg1 * A[j] + (kg * self.H[j, gamma - 1]) * A[gamma]
                       for j in range(gamma)]
        self.c1_corner = kg * A[gamma]

    @property
    def dim(self):
        return self.gamma * self.n

    @property
    def is_real(self):
        """Whether ``C0`` and ``C1`` are real: a real basis and real coefficients."""
        return not (np.iscomplexobj(self.H)
                    or any(np.iscomplexobj(B) for B in self.bottom))

    def _blocks(self, Y):
        Y = np.asarray(Y, dtype=complex)
        flat = Y.ndim == 1
        if flat:
            Y = Y[:, None]
        if Y.shape[0] != self.dim:
            raise ValueError(f"expected {self.dim} rows, got {Y.shape[0]}")
        return Y.reshape(self.gamma, self.n, Y.shape[1]), flat

    def apply_C0(self, Y):
        Yb, flat = self._blocks(Y)
        out = np.empty_like(Yb)
        for i in range(self.gamma - 1):
            # row block i of H([gamma],[gamma-1])^T (x) I_n
            acc = self.H[0, i] * Yb[0]
            for j in range(1, i + 2):
                acc += self.H[j, i] * Yb[j]
            out[i] = acc
        acc = self.bottom[0] @ Yb[0]
        for j in range(1, self.gamma):
            acc += self.bottom[j] @ Yb[j]
        out[self.gamma - 1] = acc
        res = out.reshape(self.dim, -1)
        return res[:, 0] if flat else res

    def apply_C1(self, Y):
        Yb, flat = self._blocks(Y)
        out = np.empty_like(Yb)
        out[: self.gamma - 1] = Yb[: self.gamma - 1]
        out[self.gamma - 1] = self.c1_corner @ Yb[self.gamma - 1]
        res = out.reshape(self.dim, -1)
        return res[:, 0] if flat else res

    def fro_C0(self):
        top = np.linalg.norm(self.H[: self.gamma, : self.gamma - 1]) ** 2 * self.n
        return float(np.sqrt(top + sum(_fro(B) ** 2 for B in self.bottom)))

    def fro_C1(self):
        return float(np.sqrt((self.gamma - 1) * self.n + _fro(self.c1_corner) ** 2))

    def materialize(self, force=False):
        """Dense ``(C0, C1)``; refuses above ``DENSE_DIM_LIMIT`` unless forced."""
        if not force and self.dim > DENSE_DIM_LIMIT:
            raise ValueError(
                f"pencil dimension {self.dim} exceeds materialization threshold "
                f"{DENSE_DIM_LIMIT}; pass force=True to override")
        split = (self.gamma - 1) * self.n
        C0 = self._dense_C0()
        C1 = np.eye(self.dim, dtype=C0.dtype)
        C1[split:, split:] = _dense(self.c1_corner)
        return C0, C1

    def _dense_C0(self):
        # real for a real basis and real coefficients, complex otherwise
        Ht = self.H[: self.gamma, : self.gamma - 1].T
        return np.vstack([
            np.kron(Ht, np.eye(self.n)),
            np.hstack([_dense(B) for B in self.bottom]),
        ])

    def permutation(self):
        """The block column permutation S used by the LU factorization."""
        gamma = self.gamma
        P = np.zeros((gamma, gamma))
        P[0, gamma - 1] = 1.0
        for i in range(1, gamma):
            P[i, i - 1] = 1.0
        return np.kron(P, np.eye(self.n))

    def equilibration_scale(self):
        """Left scaling for the bottom block row that balances it against the top.

        Multiplying the bottom block row of ``C0 - x C1`` by a constant is a
        diagonal equivalence: eigenvalues and right eigenvectors are
        untouched, but a balanced pencil loses far less accuracy in QZ when
        the leading coefficients ``k_j`` are small.
        """
        if self.gamma == 1:
            return 1.0
        top = float(np.abs(self.H[: self.gamma, : self.gamma - 1]).max())
        bot = 0.0
        for B in self.bottom:
            if sp.issparse(B):
                bot = max(bot, float(np.abs(B.data).max()) if B.nnz else 0.0)
            else:
                bot = max(bot, float(np.abs(B).max()))
        return top / bot if bot > 0 and top > 0 else 1.0


def build_pencil(P, trim=True):
    """Linearize a matrix polynomial; trailing negligible coefficients are dropped."""
    if trim:
        P = P.trimmed()
    return StructuredPencil(P)


def verify_linearization(pencil, x0):
    """Relative residual of the defining identity at the probe ``x0``.

    The scale is ``(||C0|| + |x0| ||C1||) ||theta(x0)[:gamma]||``, which
    grows with ``theta`` off the nodes.
    """
    x0 = complex(x0)
    gamma, n = pencil.gamma, pencil.n
    theta = eval_basis(pencil.poly.basis, [x0])[0]
    V = np.zeros((pencil.dim, n), dtype=complex)
    eye = np.eye(n)
    for j in range(gamma):
        V[j * n: (j + 1) * n] = theta[j] * eye
    M = pencil.apply_C0(V) - x0 * pencil.apply_C1(V)
    M[(gamma - 1) * n:] += pencil.k[gamma - 1] * _dense(pencil.poly(x0))
    return float(np.linalg.norm(M) / ((pencil.fro_C0() + abs(x0) * pencil.fro_C1())
                                      * np.linalg.norm(theta[:gamma])))


class BlockLU:
    """Factorization of ``(mu C1 - C0) S`` supporting structured solves.

    Stores the scalar recurrence data, the one block of ``L`` that depends on
    ``mu``, ``-bottom[gamma-1] + mu k_gamma A_gamma`` (the others are
    ``-bottom[i]``), and an LU of ``P(mu)``; each ``solve`` costs forward
    block recurrences plus one n x n solve.
    """

    def __init__(self, pencil, mu):
        mu = complex(mu)
        self.pencil = pencil
        self.mu = mu
        gamma = pencil.gamma
        H, k, A = pencil.H, pencil.k, pencil.poly.coeffs
        self.theta = eval_basis(pencil.poly.basis, [mu])[0]
        self.last = -pencil.bottom[gamma - 1] + (mu * k[gamma]) * A[gamma]
        self.prefactor = complex(np.prod([H[i, i - 1] for i in range(1, gamma)]))
        self._solve_p, diag = _factor_p(pencil.poly(mu))
        if self._solve_p is None or diag.min() <= 1e-14 * diag.max():
            raise SingularShiftError(
                f"P(mu) is numerically singular at mu={mu}; choose a shift "
                "away from the spectrum")

    def solve(self, Y):
        """Return ``Z`` with ``(mu C1 - C0) Z = C1 Y``."""
        p = self.pencil
        gamma, n = p.gamma, p.n
        H, k, mu = p.H, p.k, self.mu
        Yb, flat = p._blocks(Y)
        X = [None] * gamma
        if gamma >= 2:
            X[0] = -Yb[0] / H[1, 0]
        for i in range(1, gamma - 1):
            acc = Yb[i] - (mu - H[i, i]) * X[i - 1]
            for j in range(i - 1):
                acc += H[j + 1, i] * X[j]
            X[i] = -acc / H[i + 1, i]
        rhs = k[gamma] * (p.poly.coeffs[gamma] @ Yb[gamma - 1])
        for i in range(1, gamma - 1):
            rhs = rhs + p.bottom[i] @ X[i - 1]
        if gamma >= 2:
            rhs = rhs - self.last @ X[gamma - 2]
        X[gamma - 1] = self._solve_p(self.prefactor * rhs)
        Z = np.empty((gamma, n, Yb.shape[2]), dtype=complex)
        Z[0] = X[gamma - 1]
        for i in range(1, gamma):
            Z[i] = X[i - 1] + (self.theta[i] / self.theta[0]) * X[gamma - 1]
        res = Z.reshape(p.dim, -1)
        return res[:, 0] if flat else res

    def materialize_factors(self):
        """Dense ``(L, U)`` with ``L U = (mu C1 - C0) S``; for verification."""
        p = self.pencil
        gamma, n = p.gamma, p.n
        H, k, mu = p.H, p.k, self.mu
        eye = np.eye(n)
        L = np.zeros((p.dim, p.dim), dtype=complex)
        for i in range(1, gamma):  # one-based row i
            for j in range(1, i + 1):
                coeff = (mu if j == i - 1 else 0.0) - H[j, i - 1]
                L[(i - 1) * n: i * n, (j - 1) * n: j * n] = coeff * eye
        for j in range(1, gamma):
            blk = self.last if j == gamma - 1 else -p.bottom[j]
            L[(gamma - 1) * n:, (j - 1) * n: j * n] = _dense(blk)
        L[(gamma - 1) * n:, (gamma - 1) * n:] = k[gamma - 1] * _dense(p.poly(mu))
        U = np.eye(p.dim, dtype=complex)
        for i in range(1, gamma):
            U[(i - 1) * n: i * n, (gamma - 1) * n:] = \
                -(self.theta[i] / self.theta[0]) * eye
        return L, U


def _factor_p(M):
    """LU of ``P`` at a point: ``(solve, |diag U|)``, or ``(None, None)``.

    A sparse ``M`` goes to SuperLU with ``SPARSE_ORDERING``, a dense one to
    LAPACK getrf/getrs of its dtype. An exactly zero pivot gives ``None``
    for ``solve`` and no warning.
    """
    if sp.issparse(M):
        try:
            solver = spla.splu(M.tocsc(), permc_spec=SPARSE_ORDERING)
        except RuntimeError:  # SuperLU met an exactly zero pivot
            return None, None
        return solver.solve, np.abs(solver.U.diagonal())
    M = _dense(M)
    getrf, getrs = get_lapack_funcs(("getrf", "getrs"), (M,))
    lu, piv, info = getrf(M)
    if info:
        return None, None
    return (lambda b: getrs(lu, piv, b)[0]), np.abs(np.diag(lu))


def block_lu(pencil, mu):
    """Factor ``(mu C1 - C0) S`` for repeated structured solves at ``mu``."""
    return BlockLU(pencil, mu)


def gram_matrix(nep):
    """Frobenius Gram matrix of the split-form matrices, entry (i, j) = tr(E_i^H E_j).

    This orientation satisfies ``z^H G z = ||sum_i z_i E_i||_F^2`` exactly;
    the matrix is Hermitian positive semi-definite and its spectral norm
    drives the a priori residual bound.
    """
    s = nep.s
    G = np.empty((s, s), dtype=complex)
    for i in range(s):
        for j in range(s):
            Ei, Ej = nep.matrices[i], nep.matrices[j]
            if sp.issparse(Ei) or sp.issparse(Ej):
                G[i, j] = sp.csr_matrix(Ei).conj().multiply(sp.csr_matrix(Ej)).sum()
            else:
                G[i, j] = np.vdot(Ei, Ej)
    return G


def error_bound(G, e_max):
    """A priori residual bound ``sqrt(norm(G, 2) * e_max)`` for in-region eigenpairs."""
    if e_max < 0:
        raise ValueError("e_max must be nonnegative")
    Gh = 0.5 * (G + G.conj().T)
    lam_max = float(np.max(np.abs(np.linalg.eigvalsh(Gh))))
    return float(np.sqrt(lam_max * e_max))


def poly_roots(coeffs, basis):
    """Roots of the scalar polynomial ``sum_j c_j theta_j`` via its 1x1-block pencil."""
    c = np.asarray(coeffs).ravel()
    top = np.max(np.abs(c)) if c.size else 0.0
    if top == 0.0:
        raise ValueError("all-zero coefficient vector has no root set")
    deg = c.size - 1
    while deg > 0 and abs(c[deg]) < TRIM_RTOL * top:
        deg -= 1
    if deg == 0:
        return np.empty(0, dtype=complex)
    P = MatrixPolynomial([np.array([[cj]]) for cj in c[: deg + 1]], basis)
    C0, C1 = StructuredPencil(P).materialize(force=True)
    roots = scipy.linalg.eigvals(C0, C1)
    return roots[np.isfinite(roots)]


def export_pencil(pencil, prefix):
    """Write materialized ``C0``/``C1`` as Matrix Market array files."""
    C0, C1 = pencil.materialize()
    paths = (f"{prefix}_C0.mtx", f"{prefix}_C1.mtx")
    scipy.io.mmwrite(paths[0], C0)
    scipy.io.mmwrite(paths[1], C1)
    return paths
