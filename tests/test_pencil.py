"""Linearization, block LU, Gram bound, and scalar rooting tests."""

import dataclasses
import re
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings, strategies as st

from nepsolve import (BlockLU, MatrixPolynomial, SingularShiftError, assemble,
                      block_lu, build_basis, build_pencil, error_bound,
                      eval_basis, example1, extract_nep_eigenpairs,
                      gram_matrix, poly_roots, shift_invert, solve_dense,
                      verify_linearization)
from nepsolve.eigensolve import ROOTS_QZ_RATIO
from nepsolve.pencil import DENSE_DIM_LIMIT, SPARSE_ORDERING, StructuredPencil, _factor_p
from nepsolve.problems import Region, SplitFormNEP, constant, monomial
from util import (coeff_matrices, coeff_poly, det_poly_roots, eval_monomial,
                  match_sets, monomial_coeffs, random_nodes, random_poly)


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
    pencil = build_pencil(coeff_poly(A, basis))
    C0, C1 = pencil.materialize()
    lam = solve_dense(C0, C1)
    assert lam.size == 1
    assert abs(lam[0] - c) < 1e-12


def test_constant_polynomial_rejected():
    nodes = np.linspace(-1, 1, 6)
    basis = build_basis(nodes, 2)
    P = coeff_poly([np.eye(2, dtype=complex)], basis)
    with pytest.raises(ValueError, match="constant"):
        build_pencil(P)


I2 = np.eye(2, dtype=complex)


@pytest.mark.parametrize("make, message", [
    (lambda b: MatrixPolynomial([I2, I2], np.ones(3), b), r"s x \(gamma\+1\) table"),
    (lambda b: MatrixPolynomial([I2, I2], np.ones((1, 3)), b), r"s x \(gamma\+1\) table"),
    (lambda b: MatrixPolynomial([I2], np.ones((1, 0)), b), r"s x \(gamma\+1\) table"),
    (lambda b: MatrixPolynomial([I2], np.ones((1, 4)), b), "gamma at most the basis degree"),
    (lambda b: MatrixPolynomial([np.ones((2, 3))], np.ones((1, 2)), b),
     "matrices must share a square shape"),
    (lambda b: MatrixPolynomial([I2, np.eye(3)], np.ones((2, 2)), b),
     "matrices must share a square shape"),
    (lambda b: assemble(SimpleNamespace(numer_coeffs=(np.ones(2),) * 3),
                        SplitFormNEP("two", [constant(1.0), monomial(1)], [I2, I2],
                                     Region(0j, 1.0))),
     "fit has 3 components, problem has 2 terms"),
], ids=["table_1d", "table_rows", "table_no_columns", "table_above_basis_degree",
        "matrix_not_square", "matrix_shapes_differ", "assemble_term_count"])
def test_polynomial_input_is_checked(make, message):
    with pytest.raises(ValueError, match=message):
        make(build_basis(np.linspace(-1, 1, 6), 2))


def test_trailing_negligible_coefficients_trimmed():
    rng = np.random.default_rng(23)
    P = random_poly(rng, 3, 4)
    P.mats[4] = P.mats[4] * 1e-30
    pencil = build_pencil(P)
    assert pencil.gamma == 3
    assert pencil.dim == 9
    # never below degree 1: a negligible A_1 stays in C1's corner
    P = random_poly(rng, 3, 1)
    P.mats[1] = P.mats[1] * 1e-30
    assert build_pencil(P).gamma == 1


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
        basis = dataclasses.replace(basis, H=basis.H.real)
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
    return coeff_poly(coeffs, basis), x0


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
    assert pencil.is_real == (not np.iscomplexobj(P.mats[0]))
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


def test_block_operations_take_2d_blocks_only():
    # a 1-D block or one of the wrong height is refused with its shape
    rng = np.random.default_rng(27)
    pencil = build_pencil(random_poly(rng, 3, 2), trim=False)
    lu = BlockLU(pencil, 2.0 + 1.0j)
    for bad in (np.ones(pencil.dim), np.ones((pencil.dim + 1, 2))):
        for op in (pencil.apply_C0, pencil.apply_C1, lu.solve):
            with pytest.raises(ValueError, match=re.escape(str(bad.shape))):
                op(bad)


@pytest.mark.parametrize("complex_table", [False, True])
def test_apply_matches_the_complex_product(complex_table):
    # a real dense E_i takes a complex block as a real one of twice the
    # columns; the oracle is the complex GEMM with each E_i made complex
    rng = np.random.default_rng(28)
    n, gamma, c = 30, 4, 5
    mats = [rng.standard_normal((n, n)),
            sp.csr_matrix(rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.2)),
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))]
    P = MatrixPolynomial(mats, np.ones((3, 2)), build_basis(random_nodes(rng, 8), 1))
    W = rng.standard_normal((3, gamma)) + complex_table * 1j * rng.standard_normal((3, gamma))
    # a non-contiguous block, so the reshaped view is not the caller's memory
    Yb = (rng.standard_normal((c, n, gamma))
          + 1j * rng.standard_normal((c, n, gamma))).transpose(2, 1, 0)
    dense = [np.asarray(E.toarray() if sp.issparse(E) else E, dtype=complex) for E in mats]
    Z = np.tensordot(W, Yb, axes=1)
    want = sum(E @ Zi for E, Zi in zip(dense, Z))
    scale = sum(np.abs(E) @ np.abs(Zi) for E, Zi in zip(dense, Z))
    got = P.apply(W, Yb)
    assert got.shape == (n, c) and got.dtype == complex
    assert np.all(np.abs(got - want) <= 1e-14 * scale)


@st.composite
def _split_form_case(draw):
    """A split form with a general table: s matrices, s != gamma + 1 allowed."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    s = draw(st.integers(1, 4))
    gamma = draw(st.integers(1, 6))
    n = draw(st.integers(1, 8))
    real = draw(st.booleans())
    m = max(3 * gamma + 4, 8)
    if real:
        basis = build_basis(rng.uniform(-1, 1, m), gamma)
        basis = dataclasses.replace(basis, H=basis.H.real)
    else:
        basis = build_basis(random_nodes(rng, m), gamma)

    def draw_array(*shape):
        A = rng.standard_normal(shape)
        return A if real else A + 1j * rng.standard_normal(shape)

    mats = [draw_array(n, n) * (rng.random((n, n)) < 0.4) + draw_array(1) * np.eye(n)
            for _ in range(s)]
    if draw(st.booleans()):
        mats = [sp.csr_matrix(E) for E in mats]
    table = draw_array(s, gamma + 1)
    x = complex(rng.standard_normal(), rng.standard_normal())
    mu = complex(2.2 + rng.standard_normal(), 2.2 + rng.standard_normal())
    Y = draw_array(gamma * n, 2)
    return MatrixPolynomial(mats, table, basis), real, x, mu, Y


@settings(max_examples=100, deadline=None)
@given(_split_form_case())
def test_split_form_pencil_matches_its_coefficients(case):
    # the pencil of sum_i p_i E_i, from its table alone, against oracles on
    # the coefficients A_j = sum_i table[i, j] E_i formed entry by entry; over
    # 3,000 seeded cases the worst deviations were 3.0e-15 (P), 5.9e-16
    # (identity), 1.6e-10 (shift-invert) and 1.9e-15 (LU)
    P, real, x, mu, Y = case
    A = coeff_matrices(P)
    theta = eval_basis(P.basis, [x])[0]
    want = sum(t * Aj for t, Aj in zip(theta, A))
    got = P(x).toarray() if sp.issparse(P(x)) else P(x)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    pencil = build_pencil(P, trim=False)
    assert pencil.is_real == real
    assert verify_linearization(pencil, x) < 1e-12
    C0, C1 = pencil.materialize()
    M = mu * C1 - C0
    assume(np.linalg.cond(M) < 1e8)
    Zd = np.linalg.solve(M, C1 @ Y)
    assert np.linalg.norm(shift_invert(pencil, mu, Y) - Zd) <= 1e-9 * np.linalg.norm(Zd)
    # the bottom row of L U cancels terms that grow with theta(mu), so the
    # product is checked on the scale of |L| |U|
    L, U = block_lu(pencil, mu).materialize_factors()
    lhs = M @ pencil.permutation()
    assert np.abs(L @ U - lhs).max() <= 1e-13 * (np.abs(L) @ np.abs(U)).max()
    # a negligible trailing table column is trimmed, and only it
    assert P.trimmed().degree == P.degree
    table = P.table.copy()
    table[:, -1] *= 1e-30
    trimmed = MatrixPolynomial(P.mats, table, P.basis).trimmed()
    assert np.array_equal(trimmed.table, P.table[:, :-1]) and trimmed.mats == P.mats


def test_materialize_threshold_guard():
    # a linear polynomial with sparse identity coefficients: its pencil is
    # cheap to build but one row above the dense limit
    basis = build_basis(random_nodes(None, 8, on_circle=True), 1)
    eye = sp.identity(DENSE_DIM_LIMIT + 1, dtype=complex, format="csr")
    pencil = build_pencil(coeff_poly([eye, eye], basis))
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


def test_recover_keeps_tiny_leading_block_rejects_zero():
    # a bottom-dominated vector is reported, its leading block normalized;
    # only a zero leading block has no eigenvector to give
    basis = build_basis(np.linspace(-1, 1, 8), 2)
    v = np.array([1e-13, -1e-13, 1.0, 1.0], dtype=complex)
    [pair] = _extract(basis, 2, 0.1, v)
    np.testing.assert_allclose(pair.u, np.array([1.0, -1.0]) / np.sqrt(2), rtol=1e-15)
    v[:2] = 0.0
    with pytest.raises(ValueError, match="leading block is zero"):
        _extract(basis, 2, 0.1, v)


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


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_block_lu_raises_at_computed_eigenvalues_in_either_storage(sparse):
    # one seeded-solve test judges P(mu) singular in both storages: at the
    # first 5 computed eigenvalues of 30 seeded pencils, P(mu) is singular
    # only to rounding, so its LU has no exactly zero pivot, yet every shift
    # raises; a far shift does not
    for seed in range(30):
        P = random_poly(np.random.default_rng(seed), 8, 3)
        lam = solve_dense(*build_pencil(P, trim=False).materialize())
        if sparse:
            P = coeff_poly([sp.csr_matrix(A) for A in P.mats], P.basis)
        pencil = build_pencil(P, trim=False)
        block_lu(pencil, 100.0 + 100.0j)
        for mu in lam[:5]:
            with pytest.raises(SingularShiftError):
                block_lu(pencil, mu)


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
    P = coeff_poly(coeffs, basis)
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
    for Z in (shift_invert(pencil, mu, Y), BlockLU(pencil, mu).solve(Y)):
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
    pencil = build_pencil(coeff_poly(coeffs, basis), trim=False)
    # the factorization itself meets the zero pivot, not the condition check
    assert _factor_p(pencil.poly(1.5 + 0.5j), pencil.poly.ordering) is None
    with pytest.raises(SingularShiftError):
        BlockLU(pencil, 1.5 + 0.5j)
    with pytest.raises(SingularShiftError):
        shift_invert(pencil, 1.5 + 0.5j, np.ones((pencil.dim, 1)))


@st.composite
def _ordering_case(draw):
    """s = 1..4 random sparse E_i, real or complex, a table, a point; with
    ``vanish`` the table's last row is zero, so p_s(mu) = 0, and only E_s
    has an entry at (0, n-1), so P(mu) has a strict subset of the pattern."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    s = draw(st.integers(1, 4))
    n = draw(st.integers(1, 40))
    density = draw(st.floats(0.0, 0.3))
    real = draw(st.booleans())
    vanish = draw(st.booleans()) and s > 1 and n > 1
    gamma = draw(st.integers(1, 4))
    basis = build_basis(random_nodes(rng, max(3 * gamma + 4, 8)), gamma)
    corner = sp.csr_matrix(([1.0], ([0], [n - 1])), shape=(n, n))
    mats = []
    for i in range(s):
        A = _random_sparse(rng, n, density) + sp.diags(rng.standard_normal(n))
        A = A + corner if vanish and i == s - 1 else A - A.multiply(corner)
        A = (A.real if real else A).tocsr()
        A.eliminate_zeros()
        mats.append(A)
    table = rng.standard_normal((s, gamma + 1))
    if not real:
        table = table + 1j * rng.standard_normal((s, gamma + 1))
    if vanish:
        table[-1] = 0.0
    P = MatrixPolynomial(mats, table, basis)
    return P, complex(rng.standard_normal(), rng.standard_normal()), vanish


@settings(max_examples=100, deadline=None)
@given(_ordering_case())
def test_shared_ordering_matches_a_per_call_ordering(case):
    # P(mu) factored in the polynomial's one ordering solves as SuperLU's
    # own SPARSE_ORDERING of P(mu) does, also where P(mu)'s pattern is
    # smaller than the polynomial's
    P, mu, vanish = case
    M = P(mu)
    pattern = sum(abs(E) for E in P.mats)
    assert sp.issparse(M) and (M.nnz < pattern.nnz or not vanish)
    assume(np.linalg.cond(M.toarray()) < 1e3)
    b = np.random.default_rng(0).standard_normal((P.n, 2))
    want = spla.splu(M.tocsc(), permc_spec=SPARSE_ORDERING).solve(b)
    got = _factor_p(M, P.ordering)(b)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_sparse_pole_factor_keeps_under_half_of_the_exact_lu(monkeypatch):
    # on the n=1000 criterion-7 problem more than half of an exact LU of
    # P(s_j) at the filter's poles lies below unit roundoff: the factor drops
    # it and still solves as the exact LU in the same ordering does
    from nepsolve import DegreeSpec, SampleSet, lawson, sample_boundary
    from nepsolve.filters import quadrature
    from test_acceptance import _synthetic_sparse_nep

    nep = _synthetic_sparse_nep()
    region, n = nep.region, nep.n
    samples = SampleSet.from_nep(nep, sample_boundary(region, 60))
    pencil = build_pencil(assemble(lawson(samples, DegreeSpec((8,) * 4, 8)), nep))
    order = pencil.poly.ordering  # made here, before spilu is recorded
    back = np.argsort(order)
    spilu, made = spla.spilu, []

    def recorded(*args, **kwargs):
        made.append(spilu(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(spla, "spilu", recorded)
    b = np.random.default_rng(0).standard_normal((n, 4))
    for s in quadrature(region.center, region.radius, 8).poles[:4]:
        M = pencil.poly(s)
        solve = _factor_p(M, order)
        exact = spla.splu(M.tocsr()[order][:, order].tocsc(), permc_spec="NATURAL")
        assert made[-1].nnz <= exact.nnz / 2
        want = exact.solve(b[order])[back]
        assert np.linalg.norm(solve(b) - want) <= 1e-14 * np.linalg.norm(want)
    assert len(made) == 4


def test_ordering_only_for_all_sparse_matrices():
    rng = np.random.default_rng(34)
    basis = build_basis(random_nodes(rng, 8), 1)
    sparse = [_random_sparse(rng, 5, 0.4) + sp.identity(5) for _ in range(2)]
    dense = [A.toarray() for A in sparse]
    table = rng.standard_normal((2, 2))
    assert MatrixPolynomial(sparse, table, basis).ordering is not None
    assert MatrixPolynomial(dense, table, basis).ordering is None
    assert MatrixPolynomial([sparse[0], dense[1]], table, basis).ordering is None


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


@pytest.mark.parametrize("side", [2.0, 0.5])
def test_poly_roots_takes_qz_only_below_the_corner_cut(side, monkeypatch):
    # a small leading coefficient puts the corner of the 1x1-block pencil at
    # side * ROOTS_QZ_RATIO of its bottom row: above the cut geev runs on the
    # divided companion, below it QZ on the pencil
    basis = build_basis(np.linspace(-1, 1, 11), 3)
    c = np.array([0.3, -1.0, 0.5, 1.0])

    def ratio():
        pencil = StructuredPencil(MatrixPolynomial([np.eye(1)], c[None], basis))
        return abs(pencil.corner[0]) / np.abs(pencil.beta[0]).max()

    for _ in range(3):  # the row holds c[3] too: converge on the ratio
        c[3] *= side * ROOTS_QZ_RATIO / ratio()
    assert ratio() == pytest.approx(side * ROOTS_QZ_RATIO, rel=1e-6)
    qz_calls = []
    eigvals = scipy.linalg.eigvals
    monkeypatch.setattr(scipy.linalg, "eigvals",
                        lambda *args: qz_calls.append(args) or eigvals(*args))
    roots = poly_roots(c, basis)
    assert len(qz_calls) == (side < 1)
    assert roots.dtype == complex
    # both keep the two roots of moderate size; geev finds the far one too
    small = poly_roots(c[:3], basis)
    near = roots[np.abs(roots) < 1e3]
    assert near.size == small.size == 2 and match_sets(near, small, 1e-6)
    if side > 1:
        assert roots.size == 3 and np.abs(roots).max() > 1e6


def test_poly_roots_all_zero_rejected_constant_empty():
    basis = build_basis(np.linspace(-1, 1, 8), 2)
    with pytest.raises(ValueError):
        poly_roots(np.zeros(3), basis)
    assert poly_roots(np.array([2.0, 0.0, 0.0]), basis).size == 0


def test_time_delay_denominator_pole_free(time_delay_bundle):
    b = time_delay_bundle
    roots = poly_roots(b.xi.denom_coeffs, b.xi.basis)
    assert not np.any(np.abs(roots - b.nep.region.center) <= b.nep.region.radius)
