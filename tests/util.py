"""Independent oracles and generators shared across the test suite."""

import numpy as np
import scipy.sparse as sp

from nepsolve import MatrixPolynomial, build_basis, eval_basis
from nepsolve.eigensolve import HUGE_EIGENVALUE_FACTOR


def monomial_coeffs(basis):
    """Change of basis to monomials via a Vandermonde least-squares solve.

    Column j of the returned matrix holds monomial coefficients of the j-th
    basis polynomial (ascending powers).
    """
    V = np.vander(basis.nodes, basis.degree + 1, increasing=True)
    C, *_ = np.linalg.lstsq(V, basis.Q, rcond=None)
    return C


def eval_monomial(coeffs, points):
    points = np.asarray(points, dtype=complex)
    return np.polyval(coeffs[::-1], points)


def dual_oracle(samples, w, spec, basis):
    """Smallest eigenvalue of the dense Hermitian dual matrix S(w).

    Builds ``S(w) = S_F - S_qp S_qp^H`` with ``S_F = Qq^H (sum |F_i|^2) Qq``
    and ``S_qp = Qq^H F^H Qp`` from thin QR factorizations and solves the
    dense Hermitian eigenproblem; independent of the SVD route.
    """
    values = samples.values
    w = np.asarray(w, dtype=float)
    sqw = np.sqrt(w)
    d = spec.denominator
    Qq, _ = np.linalg.qr(sqw[:, None] * basis.Q[:, : d + 1])
    SF = Qq.conj().T @ ((np.abs(values) ** 2).sum(axis=1)[:, None] * Qq)
    blocks = []
    for i in range(samples.s):
        Qp, _ = np.linalg.qr(sqw[:, None] * basis.Q[:, : spec.numerator[i] + 1])
        # block i of Qq^H F^H Qp
        blocks.append(Qq.conj().T @ (values[:, i].conj()[:, None] * Qp))
    Sqp = np.hstack(blocks)
    S = SF - Sqp @ Sqp.conj().T
    return float(np.linalg.eigvalsh(0.5 * (S + S.conj().T))[0])


def random_nodes(rng, m, center=0.0, radius=1.0, on_circle=False):
    if on_circle:
        ang = 2 * np.pi * np.arange(m) / m
        return center + radius * np.exp(1j * ang)
    pts = radius * (rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m))
    return center + pts


def random_poly(rng, n, gamma, m=None, node_scale=1.0):
    """Random matrix polynomial in a basis on random disk nodes."""
    m = m or max(3 * gamma + 4, 8)
    nodes = random_nodes(rng, m, radius=node_scale)
    basis = build_basis(nodes, gamma)
    coeffs = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
              for _ in range(gamma + 1)]
    return MatrixPolynomial(coeffs, basis)


def det_poly_roots(P, dps=40):
    """All finite eigenvalues of a small matrix polynomial via a determinant scan.

    ``det P(x)`` is a polynomial of degree at most n*gamma. It is sampled on
    a circle in multiprecision (treating the double-precision coefficients
    and recurrence data as exact), its coefficients are recovered by the
    inverse DFT, and the numpy root estimates are Newton-polished in
    multiprecision; entirely independent of the pencil route.
    """
    import mpmath as mp

    n, gamma = P.n, P.degree
    deg = n * gamma
    K = deg + 1
    R = 1.0 + float(np.abs(P.basis.nodes).max())
    with mp.workdps(dps):
        H = [[mp.mpc(P.basis.H[i, j]) for j in range(gamma)]
             for i in range(gamma + 1)]
        A = [mp.matrix([[mp.mpc(np.asarray(P.coeffs[j])[r, c])
                         for c in range(n)] for r in range(n)])
             for j in range(gamma + 1)]
        theta0 = mp.mpc(P.basis.Q[0, 0])

        def theta_at(z):
            th = [theta0]
            for j in range(gamma):
                acc = z * th[j]
                for i in range(j + 1):
                    acc -= H[i][j] * th[i]
                th.append(acc / H[j + 1][j])
            return th

        def det_at(z):
            th = theta_at(z)
            M = th[0] * A[0]
            for j in range(1, gamma + 1):
                M += th[j] * A[j]
            return mp.det(M)

        omega = mp.exp(2j * mp.pi / K)
        vals = [det_at(R * omega ** k) for k in range(K)]
        coeffs = []
        for j in range(K):
            acc = mp.mpc(0)
            for k in range(K):
                acc += vals[k] * omega ** ((-j * k) % K)
            coeffs.append(acc / K / mp.mpf(R) ** j)
        mags = np.array([float(abs(c)) for c in coeffs])
        top = mags.max()
        eff = deg
        while eff > 0 and mags[eff] < 1e-10 * top:
            eff -= 1
        if eff == 0:
            return np.empty(0, dtype=complex)
        start = np.roots(np.array([complex(c) for c in coeffs[: eff + 1]])[::-1])

        def poly_at(z):
            acc = mp.mpc(0)
            for j in range(eff, -1, -1):
                acc = acc * z + coeffs[j]
            return acc

        def dpoly_at(z):
            acc = mp.mpc(0)
            for j in range(eff, 0, -1):
                acc = acc * z + j * coeffs[j]
            return acc

        roots = []
        for r0 in start:
            z = mp.mpc(r0)
            for _ in range(30):
                dv = dpoly_at(z)
                if dv == 0:
                    break
                step = poly_at(z) / dv
                z -= step
                if abs(step) < mp.mpf(10) ** (-dps + 5) * (1 + abs(z)):
                    break
            roots.append(complex(z))
    return np.array(roots)


def match_sets(computed, reference, tol):
    """True when the two point sets cover each other within ``tol``."""
    computed = np.asarray(computed, dtype=complex)
    reference = np.asarray(reference, dtype=complex)
    if computed.size == 0 or reference.size == 0:
        return computed.size == reference.size
    d1 = np.abs(computed[:, None] - reference[None, :]).min(axis=1)
    d2 = np.abs(computed[:, None] - reference[None, :]).min(axis=0)
    return bool(d1.max() <= tol and d2.max() <= tol)


def cluster_points(points, radius):
    """Greedy union clustering of complex points; returns a list of arrays."""
    points = list(np.asarray(points, dtype=complex))
    clusters = []
    for z in points:
        hit = None
        for cl in clusters:
            if any(abs(z - y) <= radius for y in cl):
                hit = cl
                break
        if hit is None:
            clusters.append([z])
        else:
            hit.append(z)
    return [np.array(cl) for cl in clusters]


def eigenpair_oracle(lam, v, basis, nep, region):
    """One pencil eigenpair turned into a problem eigenpair, term by term.

    Returns ``(u, residual, normalized_residual, consistency)`` for the pair,
    or ``None`` where extraction drops it (huge ``lam`` or negligible leading
    block). Residuals use the dense ``T(lam)`` and the 1-norms of the dense
    ``E_i``; consistency is the explicit loop over trailing blocks.
    """
    lam = complex(lam)
    n = nep.n
    if abs(lam) > HUGE_EIGENVALUE_FACTOR * (1 + abs(region.center) + region.radius):
        return None
    v = np.asarray(v, dtype=complex)
    vnorm = np.linalg.norm(v)
    u = v[:n]
    if np.linalg.norm(u) < 1e-10 * vnorm:
        return None
    theta = eval_basis(basis, [lam])[0]
    consistency = 0.0
    for i in range(1, v.size // n):
        diff = np.linalg.norm(v[i * n: (i + 1) * n] - theta[i] * u)
        consistency = max(consistency, diff / vnorm)
    u = u / np.linalg.norm(u)
    k = np.nonzero(np.abs(u) > 1e-12 * np.abs(u).max())[0][0]
    u = u * (abs(u[k]) / u[k])
    r = np.linalg.norm(nep.matrix(lam) @ u)
    scale = sum(abs(complex(t(lam))) * np.abs(E.toarray() if sp.issparse(E) else E)
                .sum(axis=0).max() for t, E in zip(nep.terms, nep.matrices))
    return u, r, r / scale, consistency
