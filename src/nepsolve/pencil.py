"""Matrix polynomial assembly and its structured pencil linearization.

From a fit ``xi = [p_1..p_s]/q`` and split-form matrices ``E_i`` we form
``P(x) = sum_i p_i(x) E_i = sum_j theta_j(x) A_j`` with ``A_j = sum_i a_{i,j} E_i``
and linearize it into the gamma*n x gamma*n pencil

    C0 = [[ H([gamma],[gamma-1])^T (x) I_n                          ],
          [ -k_{gamma-1} [A_0..A_{gamma-1}]
              + k_gamma H([gamma],gamma)^T (x) A_gamma ]],
    C1 = diag(I_{(gamma-1)n}, k_gamma A_gamma),

which satisfies ``(C0 - x C1)(theta(x) (x) I_n) = -k_{gamma-1} e_gamma (x) P(x)``
so the finite spectrum of ``P`` transfers to the pencil. Only scalar tables
are stored: a bottom block ``sum_i beta_{i,j} E_i`` of ``C0`` is never kept,
and a product with the bottom row mixes the blocks with scalars first, then
costs one product per ``E_i``. A column permutation turns ``mu C1 - C0`` into
a block LU product whose only n x n solve involves ``P(mu)``, which is what
the filter module exploits.
"""

import functools
import sys

import numpy as np

from .basis import eval_basis

__all__ = ["MatrixPolynomial", "StructuredPencil", "BlockLU",
           "SingularShiftError", "assemble", "build_pencil",
           "verify_linearization", "block_lu",
           "gram_matrix", "error_bound"]

# trailing polynomial coefficients below this fraction of the largest are dropped
TRIM_RTOL = 1e-14
# largest pencil dimension that is materialized densely without ``force``;
# the CLI's ``--solver auto`` switches to the filter path above it
DENSE_DIM_LIMIT = 5000
# SuperLU column ordering for a sparse P(mu): minimum degree on the pattern of
# A + A^T. P(mu) is structurally near-symmetric, and on the n=1000
# tridiagonal-plus-random criterion-7 family this keeps the exact LU of a
# pole at about 274k-289k entries where the default COLAMD gives 472k-500k
# (SciPy 1.17.1), halving factor and solve time; DROP_TOL then keeps
# 103k-119k of them. It is computed once per polynomial
# (MatrixPolynomial.ordering): inside each LU it would take about 40% of the
# time. Pivoting is unchanged.
SPARSE_ORDERING = "MMD_AT_PLUS_A"
# unit roundoff: a sparse P(mu)'s LU drops each entry of L and U below this
# times the largest entry of its column of P(mu), so what it drops is below
# the rounding error of the entries it keeps, and the factor stays exact to
# rounding (README)
DROP_TOL = 2.0 ** -53
# P(mu) is singular where a seeded solve P x = b gives ||P||_1 ||x||_1 / ||b||_1 >= this
SINGULAR_COND = 1e14


class SingularShiftError(Exception):
    """Raised when a shift makes the polynomial numerically singular."""


def _issparse(A):
    # a sparse A exists only once scipy.sparse is loaded: never import it here
    return "scipy.sparse" in sys.modules and sys.modules["scipy.sparse"].issparse(A)


def _dense(A):
    return A.toarray() if _issparse(A) else np.asarray(A)


def _fro(A):
    if _issparse(A):
        return float(np.sqrt((np.abs(A.data) ** 2).sum())) if A.nnz else 0.0
    return float(np.linalg.norm(A, "fro"))


class MatrixPolynomial:
    """``P(x) = sum_i p_i(x) E_i`` with ``p_i = sum_j table[i, j] theta_j(x)``."""

    def __init__(self, mats, table, basis):
        mats = list(mats)
        table = np.asarray(table)
        if (table.ndim != 2 or table.shape[0] != len(mats)
                or not 0 < table.shape[1] <= basis.degree + 1):
            raise ValueError("need an s x (gamma+1) table for s matrices, "
                             "gamma at most the basis degree")
        shapes = {E.shape for E in mats}
        if len(shapes) != 1 or any(a != b for a, b in shapes):
            raise ValueError("matrices must share a square shape")
        self.mats = mats
        self.table = table
        self.basis = basis

    @property
    def degree(self):
        return self.table.shape[1] - 1

    @property
    def n(self):
        return self.mats[0].shape[0]

    @functools.cached_property
    def ordering(self):
        """``o`` for which SuperLU factors every ``P(x)[o][:, o]`` unordered, or
        ``None`` unless every ``E_i`` is sparse: the ``SPARSE_ORDERING`` of the
        pattern ``sum_i |E_i|``, from an ILU of it plus a dominant diagonal."""
        if not all(_issparse(E) for E in self.mats):
            return None
        import scipy.sparse.linalg
        A = sum(abs(E) for E in self.mats)
        A = (A + (1.0 + A.sum()) * scipy.sparse.identity(self.n)).tocsc()
        # SuperLU moves column i to position perm_c[i]
        return np.argsort(scipy.sparse.linalg.spilu(
            A, drop_tol=1, fill_factor=1, permc_spec=SPARSE_ORDERING).perm_c)

    def combine(self, w):
        """``sum_i w[i] E_i``; sparse if every ``E_i`` is sparse."""
        return sum(wi * E for wi, E in zip(w, self.mats))

    def apply(self, W, Yb):
        """``sum_i E_i (sum_j W[i, j] Yb[j])``: one product per ``E_i``, a real
        GEMM on the block seen as real where ``E_i`` is real and dense."""
        products = ((E @ Z.view(float)).view(complex)
                    if isinstance(E, np.ndarray) and E.dtype == float and Z.dtype == complex
                    else E @ Z for E, Z in zip(self.mats, np.tensordot(W, Yb, axes=1)))
        out = next(products)  # a new array: the rest are added into it in place
        for EZ in products:
            out += EZ
            del EZ  # freed before the next product is formed
        return out

    def __call__(self, x):
        """Evaluate ``P(x)``; sparse if every ``E_i`` is sparse."""
        theta = eval_basis(self.basis, [x])[0]
        return self.combine(self.table @ theta[: self.degree + 1])

    def trimmed(self, min_degree=0):
        """Drop trailing coefficients ``A_j`` that are negligible in Frobenius
        norm, down to degree ``min_degree`` at the lowest."""
        norms = [_fro(self.combine(a)) for a in self.table.T]
        top = max(norms)
        if top == 0.0:
            raise ValueError("all coefficients vanish")
        deg = self.degree
        while deg > min_degree and norms[deg] < TRIM_RTOL * top:
            deg -= 1
        return MatrixPolynomial(self.mats, self.table[:, : deg + 1], self.basis)


def assemble(xi, nep):
    """The fit's polynomial ``sum_i p_i(x) E_i``; table row i holds ``p_i``.

    Coefficients run up to the basis degree; entries beyond a numerator's own
    degree are zero. Table and matrices are real when the fit is real (see
    :func:`~nepsolve.lawson.lawson`) and every ``E_i`` has a zero imaginary
    part; otherwise the table has the fit's dtype.
    """
    if nep.s != len(xi.numer_coeffs):
        raise ValueError(f"fit has {len(xi.numer_coeffs)} components, "
                         f"problem has {nep.s} terms")
    mats = nep.matrices
    real = (not any(np.iscomplexobj(a) for a in xi.numer_coeffs)
            and not any(np.any((E.data if _issparse(E) else E).imag) for E in mats))
    if real:
        mats = [E.real for E in mats]
    table = np.zeros((nep.s, xi.basis.degree + 1),
                     dtype=np.result_type(*xi.numer_coeffs))
    for row, a in zip(table, xi.numer_coeffs):
        row[: a.size] = a
    return MatrixPolynomial(mats, table, xi.basis)


class StructuredPencil:
    """Implicit block form of ``(C0, C1)`` with on-demand dense materialization.

    Bottom block ``j`` of ``C0`` is ``sum_i beta[i, j] E_i``; of the n x n
    blocks only ``C1``'s corner ``K = sum_i corner[i] E_i`` is kept.
    """

    def __init__(self, poly):
        gamma = poly.degree
        if gamma < 1:
            raise ValueError("constant polynomial has no pencil")
        self.poly = poly
        self.n = poly.n
        self.gamma = gamma
        self.H = poly.basis.H
        self.k = poly.basis.k
        T = poly.table
        kg, kg1 = self.k[gamma], self.k[gamma - 1]
        self.beta = (-kg1 * T[:, :gamma]
                     + np.outer(T[:, gamma], kg * self.H[:gamma, gamma - 1]))
        self.corner = kg * T[:, gamma]
        self.c1_corner = poly.combine(self.corner)

    def _bottom(self):  # the bottom block row of C0, one block at a time
        return (self.poly.combine(b) for b in self.beta.T)

    @property
    def dim(self):
        return self.gamma * self.n

    @property
    def is_real(self):
        """Whether ``C0`` and ``C1`` are real: a real basis, table and matrices."""
        return not (np.iscomplexobj(self.H) or np.iscomplexobj(self.beta)
                    or any(np.iscomplexobj(E) for E in self.poly.mats))

    def _blocks(self, Y):
        Y = np.asarray(Y, dtype=complex)
        if Y.ndim != 2 or Y.shape[0] != self.dim:
            raise ValueError(f"expected a block of {self.dim} rows, got shape {Y.shape}")
        return Y.reshape(self.gamma, self.n, Y.shape[1])

    def apply_C0(self, Y):
        Yb = self._blocks(Y)
        # the top block rows are H([gamma],[gamma-1])^T (x) I_n
        top = np.tensordot(self.H[: self.gamma, : self.gamma - 1].T, Yb, axes=1)
        bottom = self.poly.apply(self.beta, Yb)
        return np.concatenate([top.reshape(-1, Yb.shape[2]), bottom])

    def apply_C1(self, Y):
        Yb = self._blocks(Y)
        out = np.empty_like(Yb)
        out[: self.gamma - 1] = Yb[: self.gamma - 1]
        out[self.gamma - 1] = self.c1_corner @ Yb[self.gamma - 1]
        return out.reshape(self.dim, -1)

    def fro_C0(self):
        top = np.linalg.norm(self.H[: self.gamma, : self.gamma - 1]) ** 2 * self.n
        return float(np.sqrt(top + sum(_fro(B) ** 2 for B in self._bottom())))

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
            np.hstack([_dense(B) for B in self._bottom()]),
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
        bot = max(abs(B).max() for B in self._bottom())
        return top / bot if bot > 0 and top > 0 else 1.0


def build_pencil(P, trim=True):
    """Linearize a matrix polynomial; trailing negligible coefficients are
    dropped down to degree 1, so a negligible ``A_1`` stays in the corner."""
    if trim:
        P = P.trimmed(min_degree=1)
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

    Stores the scalar recurrence data, the table ``W`` of the bottom block
    row of ``L`` (block ``j < gamma-1`` is ``-sum_i W[i, j] E_i``) and an LU
    of ``P(mu)``; each ``solve`` costs forward block recurrences, one product
    per ``E_i`` and one n x n solve. ``SingularShiftError`` means a zero
    pivot, or ``||P(mu)||_1 ||x||_1 / ||b||_1 >= SINGULAR_COND`` (a lower bound
    on ``kappa_1(P(mu))``) or a non-finite ``x`` for a seeded solve ``P(mu) x = b``.
    """

    def __init__(self, pencil, mu):
        mu = complex(mu)
        self.pencil = pencil
        self.mu = mu
        gamma = pencil.gamma
        H = pencil.H
        self.theta = eval_basis(pencil.poly.basis, [mu])[0]
        # column j < gamma-1 weighs X_j, column gamma-1 the block Y_{gamma-1}
        self.W = np.column_stack([pencil.beta[:, 1:], pencil.corner]).astype(complex)
        if gamma >= 2:
            self.W[:, gamma - 2] -= mu * pencil.corner
        self.prefactor = complex(np.prod([H[i, i - 1] for i in range(1, gamma)]))
        M = pencil.poly(mu)
        self._solve_p = _factor_p(M, pencil.poly.ordering)
        b = np.random.default_rng(0).standard_normal(pencil.n)
        x = self._solve_p(b) if self._solve_p else np.nan
        ratio = abs(M).sum(axis=0).max() * np.abs(x).sum() / np.abs(b).sum()
        if not ratio < SINGULAR_COND:  # nan, from a zero pivot or a bad x, too
            raise SingularShiftError(
                f"P(mu) is numerically singular at mu={mu}; choose a shift "
                "away from the spectrum")

    def solve(self, Y, out=None):
        """Return ``Z`` with ``(mu C1 - C0) Z = C1 Y`` for a 2-D block ``Y``.

        ``Z`` is written into ``out`` when given, a complex array of ``Y``'s
        shape, in place of the recurrence's blocks ``X``."""
        p = self.pencil
        gamma, H, mu = p.gamma, p.H, self.mu
        Yb = p._blocks(Y)
        X = np.empty_like(Yb) if out is None else out.reshape(Yb.shape)
        if gamma >= 2:
            X[0] = -Yb[0] / H[1, 0]
        for i in range(1, gamma - 1):
            acc = Yb[i] - (mu - H[i, i]) * X[i - 1]
            for j in range(i - 1):
                acc += H[j + 1, i] * X[j]
            X[i] = -acc / H[i + 1, i]
        X[gamma - 1] = Yb[gamma - 1]  # W's last column weighs Y_{gamma-1}
        last = self._solve_p(self.prefactor * p.poly.apply(self.W, X))
        for i in range(gamma - 1, 0, -1):  # Z_i needs X_{i-1}: overwrite from the end
            X[i] = X[i - 1] + (self.theta[i] / self.theta[0]) * last
        X[0] = last
        return X.reshape(p.dim, -1)

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
            L[(gamma - 1) * n:, (i - 1) * n: i * n] = \
                -_dense(p.poly.combine(self.W[:, i - 1]))
        L[(gamma - 1) * n:, (gamma - 1) * n:] = k[gamma - 1] * _dense(p.poly(mu))
        U = np.eye(p.dim, dtype=complex)
        for i in range(1, gamma):
            U[(i - 1) * n: i * n, (gamma - 1) * n:] = \
                -(self.theta[i] / self.theta[0]) * eye
        return L, U


def _factor_p(M, order):
    """The solve ``b -> P^{-1} b`` of an LU of ``P`` at a point, or ``None``.

    A sparse ``M`` goes to SuperLU as ``M[order][:, order]``, ``order`` its
    polynomial's ``ordering``, so it is not ordered again. SuperLU's
    threshold LU (``spilu``) factors it with splu's partial pivoting
    (``diag_pivot_thresh=1``) and drops only the entries below ``DROP_TOL``
    (``drop_rule="basic"``: the default rule also drops by a fill budget,
    which is not exact). A dense ``M`` goes to ``numpy.linalg.inv``, so each
    solve is one product. An exactly zero pivot gives ``None`` and no
    warning. SuperLU's ``L`` and ``U`` are never read: SciPy would build CSC
    copies of both and keep them as long as the factor lives.
    """
    if _issparse(M):
        import scipy.sparse.linalg as spla
        back = np.argsort(order)
        try:
            lu = spla.spilu(M.tocsr()[order][:, order].tocsc(), drop_tol=DROP_TOL,
                            drop_rule="basic", permc_spec="NATURAL",
                            diag_pivot_thresh=1.0)
        except RuntimeError:  # SuperLU met an exactly zero pivot
            return None
        return lambda b: lu.solve(b[order])[back]  # holds no copy of M
    try:
        Minv = np.linalg.inv(_dense(M))
    except np.linalg.LinAlgError:
        return None
    return lambda b: Minv @ b


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
            if _issparse(Ei) or _issparse(Ej):
                import scipy.sparse as sp
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
