"""Linearization, block LU, Gram bound, and scalar rooting tests."""

import dataclasses

import numpy as np
import pytest
import scipy.io
import scipy.linalg
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st

from nepsolve import (BlockLU, MatrixPolynomial, SingularShiftError, assemble,
                      block_lu, build_basis, build_pencil, error_bound,
                      eval_basis, example1, export_pencil,
                      extract_nep_eigenpairs, gram_matrix, poly_roots,
                      shift_invert, solve_dense, verify_linearization)
from nepsolve.pencil import DENSE_DIM_LIMIT
from nepsolve.problems import Region, SplitFormNEP, constant, monomial
from util import (det_poly_roots, eval_monomial, match_sets, monomial_coeffs,
                  random_nodes, random_poly)


# ---------------------------------------------------------------- assemble

def test_assemble_identity_constant_term():
    nep = SplitFormNEP("id", [constant(1.0)], [np.eye(3, dtype=complex)],
                       Region(0j, 1.0))
    nodes = random_nodes(None, 8, on_circle=True)
    basis = build_basis(nodes, 2)
    theta0 = basis.Q[0, 0]
    xi = _fake_fit([np.array([1.0 / theta0, 0, 0])], np.array([1.0, 0, 0]), basis)
    P = assemble(xi, nep)
    x = 0.3 + 0.1j
    assert np.allclose(np.asarray(P(x)), np.eye(3))


def test_assemble_ignores_zero_component():
    rng = np.random.default_rng(21)
    nodes = random_nodes(rng, 10)
    basis = build_basis(nodes, 2)
    E1 = rng.standard_normal((2, 2)) + 0j
    E2 = rng.standard_normal((2, 2)) + 0j
    nep = SplitFormNEP("two", [constant(1.0), monomial(1)], [E1, E2],
                       Region(0j, 1.0))
    a1 = rng.standard_normal(3) + 0j
    xi = _fake_fit([a1, np.zeros(3, dtype=complex)], np.array([1.0, 0, 0]), basis)
    P = assemble(xi, nep)
    x = 0.2 - 0.4j
    theta = eval_basis(basis, [x])[0]
    assert np.allclose(np.asarray(P(x)), (theta[:3] @ a1) * E1)


def test_assemble_matches_independent_combination():
    rng = np.random.default_rng(22)
    nodes = random_nodes(rng, 12)
    basis = build_basis(nodes, 3)
    mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            for _ in range(2)]
    nep = SplitFormNEP("r", [constant(1.0), monomial(1)], mats, Region(0j, 1.0))
    a = [rng.standard_normal(3) + 1j * rng.standard_normal(3),
         rng.standard_normal(4) + 1j * rng.standard_normal(4)]
    xi = _fake_fit(a, np.array([1.0, 0, 0, 0]), basis)
    P = assemble(xi, nep)
    x0 = 0.7 + 0.2j
    theta = eval_basis(basis, [x0])[0]
    want = (theta[:3] @ a[0]) * mats[0] + (theta[:4] @ a[1]) * mats[1]
    got = np.asarray(P(x0))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _fake_fit(numer, denom, basis):
    from types import SimpleNamespace

    return SimpleNamespace(numer_coeffs=tuple(np.asarray(a, dtype=complex)
                                              for a in numer),
                           denom_coeffs=np.asarray(denom, dtype=complex),
                           basis=basis)


# ---------------------------------------------------------------- pencil

def test_degree_one_companion_eigenvalue():
    nodes = np.linspace(-1, 1, 9)
    basis = build_basis(nodes, 1)
    c = 0.37
    theta0 = basis.Q[0, 0]
    # x - c = ((H[0,0] - c) theta_0 + H[1,0] theta_1) / theta_0
    A = [np.array([[(basis.H[0, 0] - c) / theta0]]),
         np.array([[basis.H[1, 0] / theta0]])]
    pencil = build_pencil(MatrixPolynomial(A, basis))
    C0, C1 = pencil.materialize()
    lam = solve_dense(C0, C1)
    assert lam.size == 1
    assert abs(lam[0] - c) < 1e-12


def test_constant_polynomial_rejected():
    nodes = np.linspace(-1, 1, 6)
    basis = build_basis(nodes, 2)
    P = MatrixPolynomial([np.eye(2, dtype=complex)], basis)
    with pytest.raises(ValueError, match="constant"):
        build_pencil(P)


def test_trailing_negligible_coefficients_trimmed():
    rng = np.random.default_rng(23)
    P = random_poly(rng, 3, 4)
    P.coeffs[4] = P.coeffs[4] * 1e-30
    pencil = build_pencil(P)
    assert pencil.gamma == 3
    assert pencil.dim == 9


def test_hadeler_pencil_dimension(hadeler_bundle):
    assert hadeler_bundle.pencil.dim == 1200


def test_linearization_identity_random_probes():
    rng = np.random.default_rng(24)
    for _ in range(25):
        gamma = int(rng.integers(1, 9))
        n = int(rng.integers(1, 6))
        P = random_poly(rng, n, gamma)
        pencil = build_pencil(P, trim=False)
        for _ in range(4):
            x0 = complex(rng.standard_normal() + 1j * rng.standard_normal())
            assert verify_linearization(pencil, x0) < 1e-12


@st.composite
def _poly_and_probe(draw):
    """A small matrix polynomial, real or complex, and a probe far off its nodes."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gamma = draw(st.integers(1, 8))
    n = draw(st.integers(1, 6))
    m = max(3 * gamma + 4, 8)
    if draw(st.booleans()):
        # real nodes give a real recurrence, and real coefficients a real pencil
        basis = build_basis(rng.uniform(-1, 1, m), gamma)
        basis = dataclasses.replace(basis, H=basis.H.real, k=basis.k.real)
        coeffs = [rng.standard_normal((n, n)) for _ in range(gamma + 1)]
    else:
        basis = build_basis(random_nodes(rng, m), gamma)
        coeffs = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                  for _ in range(gamma + 1)]
    scales = draw(st.lists(st.integers(-3, 3), min_size=gamma + 1,
                           max_size=gamma + 1))
    coeffs = [10.0 ** e * A for e, A in zip(scales, coeffs)]
    # the nodes lie in [-1, 1]^2; theta grows like |x0|^gamma beyond it
    x0 = complex(draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0)))
    return MatrixPolynomial(coeffs, basis), x0


@settings(max_examples=200, deadline=None)
@given(_poly_and_probe())
def test_linearization_identity_property(case):
    # (C0 - x C1)(theta(x) (x) I) = -k_{gamma-1} e_gamma (x) P(x) at any
    # probe; the relative residual is scaled by ||theta(x)||, so it stays at
    # rounding level ten times beyond the nodes' box; the tolerance leaves
    # over 200x above the worst (4.2e-16) of 3,000 random cases with the
    # widest coefficient scales, probed in boxes of half-width 1 to 10
    P, x0 = case
    pencil = build_pencil(P, trim=False)
    assert pencil.is_real == (not np.iscomplexobj(P.coeffs[0]))
    assert verify_linearization(pencil, x0) < 1e-13


def test_identity_annihilates_polynomial_null_vector():
    rng = np.random.default_rng(25)
    P = random_poly(rng, 4, 3)
    pencil = build_pencil(P, trim=False)
    C0, C1 = pencil.materialize()
    lam = solve_dense(C0, C1)
    lam0 = lam[0]
    # null vector of P at its own eigenvalue, from the SVD
    _, _, Vh = np.linalg.svd(np.asarray(P(lam0)))
    u = Vh[-1].conj()
    theta = eval_basis(P.basis, [lam0])[0][:3]
    vec = np.kron(theta, u)
    resid = np.linalg.norm((C0 - lam0 * C1) @ vec)
    assert resid <= 1e-10 * (np.linalg.norm(C0) + abs(lam0) * np.linalg.norm(C1))


def test_materialized_matches_implicit_apply():
    rng = np.random.default_rng(26)
    P = random_poly(rng, 3, 5)
    pencil = build_pencil(P, trim=False)
    C0, C1 = pencil.materialize()
    Y = rng.standard_normal((pencil.dim, 4)) + 1j * rng.standard_normal((pencil.dim, 4))
    assert np.allclose(pencil.apply_C0(Y), C0 @ Y)
    assert np.allclose(pencil.apply_C1(Y), C1 @ Y)
    assert pencil.fro_C0() == pytest.approx(np.linalg.norm(C0), rel=1e-12)
    assert pencil.fro_C1() == pytest.approx(np.linalg.norm(C1), rel=1e-12)


def test_materialize_threshold_guard():
    # a linear polynomial with sparse identity coefficients: its pencil is
    # cheap to build but one row above the dense limit
    basis = build_basis(random_nodes(None, 8, on_circle=True), 1)
    eye = sp.identity(DENSE_DIM_LIMIT + 1, dtype=complex, format="csr")
    pencil = build_pencil(MatrixPolynomial([eye, eye], basis))
    assert pencil.dim == DENSE_DIM_LIMIT + 1
    with pytest.raises(ValueError, match="threshold"):
        pencil.materialize()


def test_eigenvalue_containment_against_det_scan():
    rng = np.random.default_rng(28)
    for _ in range(8):
        gamma = int(rng.integers(1, 5))
        n = int(rng.integers(1, 6))
        P = random_poly(rng, n, gamma)
        pencil = build_pencil(P, trim=False)
        C0, C1 = pencil.materialize()
        lam = solve_dense(C0, C1)
        roots = det_poly_roots(P)
        for r in roots:
            assert np.abs(lam - r).min() <= 1e-8 * max(1.0, abs(r))


# ---------------------------------------------------------------- eigenvectors

def _extract(basis, n, lam, v):
    # extraction of the one pencil eigenpair (lam, v); the split form T = I
    # enters only the residuals, which these tests do not check
    nep = SplitFormNEP("eye", [constant(1.0)], [np.eye(n, dtype=complex)],
                       Region(0j, 10.0))
    return extract_nep_eigenpairs((np.array([lam], dtype=complex), v[:, None]),
                                  basis, nep, nep.region)


def test_recover_exact_structured_vector():
    rng = np.random.default_rng(29)
    P = random_poly(rng, 3, 4)
    lam = 0.3 + 0.2j
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    theta = eval_basis(P.basis, [lam])[0][:4]
    [pair] = _extract(P.basis, 3, lam, np.kron(theta, u))
    # the leading block theta_0 u, up to the reported unit norm and phase
    got = pair.u * (np.vdot(pair.u, u) / abs(np.vdot(pair.u, u)))
    assert np.allclose(got, u / np.linalg.norm(u))
    assert pair.consistency < 1e-14


def test_recover_consistency_matches_bruteforce():
    rng = np.random.default_rng(30)
    P = random_poly(rng, 2, 5)
    lam = -0.4 + 0.9j
    v = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    [pair] = _extract(P.basis, 2, lam, v)
    theta = eval_basis(P.basis, [lam])[0]
    brute = max(np.linalg.norm(v[2 * i: 2 * i + 2] - theta[i] * v[:2])
                for i in range(1, 5)) / np.linalg.norm(v)
    assert pair.consistency == pytest.approx(brute, rel=1e-12)


def test_recover_flags_bottom_dominated(caplog):
    basis = build_basis(np.linspace(-1, 1, 8), 2)
    v = np.zeros(4, dtype=complex)
    v[2:] = 1.0
    with caplog.at_level("INFO", logger="nepsolve.eigensolve"):
        assert _extract(basis, 2, 0.1, v) == []
    assert "bottom-dominated" in caplog.text


def test_end_to_end_consistency_on_time_delay(time_delay_bundle):
    b = time_delay_bundle
    assert b.in_region
    for p in b.in_region:
        assert p.consistency < 1e-8


# ---------------------------------------------------------------- block LU

def test_block_lu_identity_small():
    rng = np.random.default_rng(31)
    for gamma in (1, 2, 3, 5):
        P = random_poly(rng, 2, gamma)
        pencil = build_pencil(P, trim=False)
        mu = 1.3 - 0.4j
        lu = block_lu(pencil, mu)
        L, U = lu.materialize_factors()
        C0, C1 = pencil.materialize()
        lhs = (mu * C1 - C0) @ pencil.permutation()
        assert np.abs(L @ U - lhs).max() <= 1e-12 * np.abs(lhs).max()


def test_block_lu_far_shift_succeeds_eigenvalue_shift_fails():
    rng = np.random.default_rng(32)
    P = random_poly(rng, 3, 3)
    pencil = build_pencil(P, trim=False)
    block_lu(pencil, 100.0 + 100.0j)  # far from everything
    C0, C1 = pencil.materialize()
    lam = solve_dense(C0, C1)
    with pytest.raises(SingularShiftError):
        block_lu(pencil, lam[0])


def _random_sparse(rng, n, density):
    A = sp.random(n, n, density=density, format="csr", dtype=complex,
                  random_state=rng,
                  data_rvs=lambda k: rng.standard_normal(k)
                  + 1j * rng.standard_normal(k))
    return A


@st.composite
def _sparse_poly_case(draw):
    """Sparse polynomial, shift and block: unsymmetric patterns, zero diagonals."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gamma = draw(st.integers(1, 6))
    n = draw(st.integers(1, 40))
    density = draw(st.floats(0.0, 0.3))
    basis = build_basis(random_nodes(rng, max(3 * gamma + 4, 8)), gamma)
    # a cyclic shift keeps P(mu) structurally nonsingular once the diagonal
    # entries below are zeroed
    shift = sp.csr_matrix((np.ones(n), (np.arange(n), np.roll(np.arange(n), 1))),
                          shape=(n, n))
    zeroed = (rng.random(n) < 0.5) & (n > 1)
    coeffs = []
    for _ in range(gamma + 1):
        A = _random_sparse(rng, n, density) + complex(rng.standard_normal(),
                                                      rng.standard_normal()) * shift
        A = A - sp.diags(np.where(zeroed, A.diagonal(), 0.0))
        A.eliminate_zeros()
        coeffs.append(A.tocsr())
    P = MatrixPolynomial(coeffs, basis)
    mu = complex(2.2 + rng.standard_normal(), 2.2 + rng.standard_normal())
    Y = rng.standard_normal((gamma * n, 2)) + 1j * rng.standard_normal((gamma * n, 2))
    return P, mu, Y, zeroed


@settings(max_examples=100, deadline=None)
@given(_sparse_poly_case())
def test_sparse_shift_invert_matches_dense_oracle(case):
    # criterion 6b's oracle and bound, on sparse coefficients: P(mu) goes
    # through SuperLU rather than the dense LU
    P, mu, Y, zeroed = case
    pencil = build_pencil(P, trim=False)
    C0, C1 = pencil.materialize()
    M = mu * C1 - C0
    # the bound holds for a well-conditioned shifted pencil only
    assume(np.linalg.cond(M) < 1e8)
    Pm = P(mu)
    assert sp.issparse(Pm)
    assert np.all(Pm.diagonal()[zeroed] == 0)
    Zd = np.linalg.solve(M, C1 @ Y)
    lu = BlockLU(pencil, mu)
    for Z in (shift_invert(pencil, mu, Y), shift_invert(pencil, mu, Y, lu=lu)):
        assert np.linalg.norm(Z - Zd) <= 1e-9 * np.linalg.norm(Zd)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_exactly_singular_shift_raises(sparse):
    # an exactly zero pivot raises SingularShiftError, without a LinAlgWarning
    # (which the suite's filterwarnings would turn into a failure)
    rng = np.random.default_rng(33)
    basis = build_basis(random_nodes(rng, 10), 2)
    coeffs = [_random_sparse(rng, 6, 0.5) + sp.identity(6, format="csr")
              for _ in range(3)]
    for A in coeffs:  # an empty row in every coefficient, so in every P(x)
        A.data[A.indptr[2]: A.indptr[3]] = 0.0
        A.eliminate_zeros()
    if not sparse:
        coeffs = [A.toarray() for A in coeffs]
    pencil = build_pencil(MatrixPolynomial(coeffs, basis), trim=False)
    with pytest.raises(SingularShiftError):
        BlockLU(pencil, 1.5 + 0.5j)
    with pytest.raises(SingularShiftError):
        shift_invert(pencil, 1.5 + 0.5j, np.ones(pencil.dim))


# ---------------------------------------------------------------- Gram bound

def test_gram_diagonal_for_orthogonal_matrices():
    E1 = np.diag([1.0, 0.0]).astype(complex)
    E2 = np.diag([0.0, 2.0]).astype(complex)
    nep = SplitFormNEP("o", [constant(1.0), monomial(1)], [E1, E2],
                       Region(0j, 1.0))
    G = gram_matrix(nep)
    assert np.allclose(G, np.diag([1.0, 4.0]))


def test_gram_quadratic_form_identity():
    rng = np.random.default_rng(33)
    mats = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            for _ in range(3)]
    nep = SplitFormNEP("g", [constant(1.0), monomial(1), monomial(2)], mats,
                       Region(0j, 1.0))
    G = gram_matrix(nep)
    for _ in range(5):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        want = np.linalg.norm(sum(zi * E for zi, E in zip(z, mats))) ** 2
        got = (z.conj() @ G @ z).real
        assert got == pytest.approx(want, rel=1e-12)
        # Gram bound direction
        assert np.sqrt(want) <= np.sqrt(np.linalg.norm(G, 2)) * np.linalg.norm(z) * (1 + 1e-12)


def test_error_bound_values():
    assert error_bound(np.eye(3, dtype=complex), 4.0) == pytest.approx(2.0)
    rng = np.random.default_rng(34)
    E = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    nep = SplitFormNEP("one", [constant(1.0)], [E], Region(0j, 1.0))
    G = gram_matrix(nep)
    e = 0.3
    assert error_bound(G, e) == pytest.approx(np.linalg.norm(E) * np.sqrt(e),
                                              rel=1e-12)
    with pytest.raises(ValueError):
        error_bound(G, -1.0)


# ---------------------------------------------------------------- scalar roots

def test_poly_roots_single_theta1_root():
    basis = build_basis(np.linspace(-1, 1, 11), 3)
    roots = poly_roots(np.array([0.0, 1.0, 0.0, 0.0]), basis)
    assert roots.size == 1
    assert abs(roots[0] - basis.H[0, 0]) < 1e-12


def test_poly_roots_match_monomial_companion_oracle():
    rng = np.random.default_rng(37)
    nodes = random_nodes(rng, 16, radius=1.5)
    basis = build_basis(nodes, 5)
    c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    roots = poly_roots(c, basis)
    mono = monomial_coeffs(basis) @ c
    ref = np.roots(mono[::-1])
    assert roots.size == 5
    assert match_sets(roots, ref, 1e-8 * max(1.0, np.abs(ref).max()))


def test_poly_roots_all_zero_rejected_constant_empty():
    basis = build_basis(np.linspace(-1, 1, 8), 2)
    with pytest.raises(ValueError):
        poly_roots(np.zeros(3), basis)
    assert poly_roots(np.array([2.0, 0.0, 0.0]), basis).size == 0


def test_time_delay_denominator_pole_free(time_delay_bundle):
    b = time_delay_bundle
    roots = poly_roots(b.xi.denom_coeffs, b.xi.basis)
    assert not np.any(np.abs(roots - b.nep.region.center) <= b.nep.region.radius)


# ---------------------------------------------------------------- export

def test_export_pencil_round_trip(tmp_path):
    rng = np.random.default_rng(38)
    P = random_poly(rng, 2, 3)
    pencil = build_pencil(P, trim=False)
    p0, p1 = export_pencil(pencil, str(tmp_path / "pencil"))
    C0, C1 = pencil.materialize()
    assert np.array_equal(scipy.io.mmread(p0), C0)
    assert np.array_equal(scipy.io.mmread(p1), C1)
