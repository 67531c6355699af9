"""Dense solve contract, region predicate, residuals, and pole checks."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import assume, given, settings, strategies as st

from nepsolve import (MatrixPolynomial, Region, StructuredPencil, assemble, build_basis,
                      build_pencil, eval_basis, example1, extract_nep_eigenpairs, hadeler, lawson,
                      pole_free_check, poly_roots, sample_boundary, solve_dense,
                      solve_pencil_dense)
from nepsolve import eigensolve
from nepsolve.lawson import DegreeSpec, RationalApproximant, SampleSet
from nepsolve.problems import SplitFormNEP, constant, exp_affine, monomial
from util import (coeff_poly, det_poly_roots, eigenpair_oracle, match_sets,
                  random_nodes, random_poly)


def test_solve_dense_diagonal():
    lam = solve_dense(np.diag([1.0, 2.0]).astype(complex), np.eye(2, dtype=complex))
    assert sorted(lam.real) == pytest.approx([1.0, 2.0])
    assert np.allclose(lam.imag, 0.0)


def test_solve_dense_is_complex_for_a_real_spectrum():
    # numpy's geev returns a real array when every eigenvalue is real
    A = np.triu(np.arange(1.0, 17.0).reshape(4, 4))
    for lam in (solve_dense(A), solve_dense(A, np.eye(4))):
        assert lam.dtype == complex
        assert np.sort(lam.real) == pytest.approx([1.0, 6.0, 11.0, 16.0])


def test_solve_dense_shape_mismatch():
    with pytest.raises(ValueError):
        solve_dense(np.eye(3), np.eye(2))


def test_solve_dense_reports_a_lapack_failure_as_its_own_error():
    with pytest.raises(eigensolve.EigensolverError, match="failed to converge"):
        solve_dense(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_pencil_of_linear_polynomial_matches_direct_eigensolve():
    rng = np.random.default_rng(40)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    nodes = random_nodes(rng, 10, radius=2.0)
    basis = build_basis(nodes, 1)
    theta0 = basis.Q[0, 0]
    # x I - A expressed in the basis
    coeffs = [(basis.H[0, 0] * np.eye(4) - A) / theta0,
              basis.H[1, 0] * np.eye(4) / theta0]
    pencil = build_pencil(coeff_poly(coeffs, basis))
    lam = solve_dense(*pencil.materialize())
    ref = np.sort_complex(np.linalg.eigvals(A))
    assert np.abs(np.sort_complex(lam) - ref).max() < 1e-10 * max(1, np.abs(ref).max())
    # backward error contract of the dense pencil solve's eigenpairs
    lam, V = solve_pencil_dense(pencil)
    assert np.abs(np.sort_complex(lam) - ref).max() < 1e-10 * max(1, np.abs(ref).max())
    C0, C1 = pencil.materialize()
    for i in range(lam.size):
        v = V[:, i]
        r = np.linalg.norm(C0 @ v - lam[i] * (C1 @ v))
        assert r <= 1e-10 * (np.linalg.norm(C0) + abs(lam[i]) * np.linalg.norm(C1)) * np.linalg.norm(v)


def test_backward_error_gate_on_benchmarks(example1_bundle, time_delay_bundle,
                                           hadeler_bundle):
    # residuals are taken against the raw pencil; the equilibrated solve's
    # eigenpairs must still satisfy the gate (dimensions up to 1200 here)
    for bundle in (example1_bundle, time_delay_bundle, hadeler_bundle):
        C0, C1 = bundle.pencil.materialize(force=True)
        n0, n1 = np.linalg.norm(C0), np.linalg.norm(C1)
        lam, V = bundle.pairs
        R0 = C0 @ V - (C1 @ V) * lam[None, :]
        for i in range(lam.size):
            r = np.linalg.norm(R0[:, i])
            assert r <= 1e-8 * (n0 + abs(lam[i]) * n1) * np.linalg.norm(V[:, i])


def _record_solve_dense(monkeypatch):
    # solve_pencil_dense's calls to solve_dense, as (took QZ, lam) with a
    # copy of the eigenvalues solve_dense returned
    calls = []
    original = eigensolve.solve_dense

    def recording(C0, C1=None):
        lam = original(C0, C1)
        calls.append((C1 is not None, lam.copy()))
        return lam

    monkeypatch.setattr(eigensolve, "solve_dense", recording)
    return calls


def test_singular_leading_coefficient_takes_qz(monkeypatch):
    rng = np.random.default_rng(45)
    P = random_poly(rng, 3, 3)
    # a rank-one leading coefficient makes the corner of C1 singular
    a, b = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    P.mats[-1] = np.outer(a, b)
    calls = _record_solve_dense(monkeypatch)
    lam, _ = solve_pencil_dense(build_pencil(P, trim=False))
    assert [qz for qz, _ in calls] == [True]
    roots = det_poly_roots(P)
    finite = lam[np.abs(lam) < 1e6]
    assert finite.size == roots.size == 7  # n*gamma = 9 less the rank deficit
    for r in roots:
        assert np.abs(finite - r).min() <= 1e-8 * max(1.0, abs(r))


def test_well_conditioned_corner_takes_geev(monkeypatch):
    rng = np.random.default_rng(46)
    P = random_poly(rng, 3, 4)
    pencil = build_pencil(P, trim=False)
    calls = _record_solve_dense(monkeypatch)
    lam, V = solve_pencil_dense(pencil)
    assert [qz for qz, _ in calls] == [False]
    ref = scipy.linalg.eigvals(*pencil.materialize())
    assert lam.size == ref.size == pencil.dim
    dist = np.abs(lam[:, None] - ref[None, :])
    assert np.all(dist.min(axis=0) <= 1e-10 * np.maximum(1.0, np.abs(ref)))
    assert np.all(dist.min(axis=1) <= 1e-10 * np.maximum(1.0, np.abs(lam)))
    # every column is theta(lam) (x) u, as the linearization prescribes
    theta = eval_basis(P.basis, lam)[:, : pencil.gamma]
    for i in range(lam.size):
        u = V[: P.n, i] / theta[i, 0]
        assert np.linalg.norm(V[:, i] - np.kron(theta[i], u)) <= \
            1e-13 * np.linalg.norm(V[:, i])


@pytest.mark.parametrize("rcond, qz", [(1.01 * eigensolve.STANDARD_FORM_RCOND, False),
                                       (0.99 * eigensolve.STANDARD_FORM_RCOND, True)],
                         ids=["above", "below"])
def test_corner_just_either_side_of_the_rcond_cut(rcond, qz, monkeypatch):
    # the corner [[1, 2, 0], [0, d, 0], [0, 0, 1]] has 1-norm rcond
    # d / (3 (2 + d)): geev just above STANDARD_FORM_RCOND, QZ just below it
    rng = np.random.default_rng(47)
    P = random_poly(rng, 3, 2)
    d = 6 * rcond / (1 - 3 * rcond)
    P.mats[-1] = np.array([[1, 2, 0], [0, d, 0], [0, 0, 1]], dtype=complex)
    calls = _record_solve_dense(monkeypatch)
    pairs = solve_pencil_dense(build_pencil(P, trim=False))
    assert [took_qz for took_qz, _ in calls] == [qz]
    assert pairs.path == ("qz" if qz else "geev")
    assert pairs.rcond == pytest.approx(rcond, rel=1e-12)
    roots = det_poly_roots(P)
    assert roots.size == pairs[0].size == 6
    assert match_sets(pairs[0], roots, 1e-7 * max(1.0, np.abs(roots).max()))


@pytest.mark.parametrize("eps", [1e-11, 1e-13])
def test_negligible_corner_takes_qz(eps):
    # p_3 = eps theta_3: K is well conditioned (rcond well above the cut) but
    # eps times C0's bottom row, so K^{-1} C0 loses digits to geev; QZ keeps
    # every P(lam) singular to rounding (geev: 9.6e-12 and 2.5e-10)
    rng = np.random.default_rng(3)
    mats = [rng.standard_normal((6, 6)) for _ in range(3)]
    basis = build_basis(np.exp(2j * np.pi * np.arange(40) / 40), 3)
    table = np.zeros((3, 4))
    table[0, 0], table[1, 1], table[2, 3] = 1.0, 1.0, eps
    pencil = build_pencil(MatrixPolynomial(mats, table, basis))
    pairs = solve_pencil_dense(pencil)
    assert pairs.rcond >= eigensolve.STANDARD_FORM_RCOND and pairs.path == "qz"
    assert pairs[0].size == 6
    for lam in pairs[0]:
        sigma = np.linalg.svd(pencil.poly(lam), compute_uv=False)
        assert sigma[-1] <= 1e-14 * sigma[0]


@pytest.mark.parametrize("eps, path, count", [(1.0, "geev", 1), (1e-11, "qz", 2)])
def test_the_bottom_block_row_is_formed_once_for_c0(eps, path, count, monkeypatch):
    # C0 is formed once and the negligible-corner check reads its bottom
    # rows; only QZ's equilibration scale forms the bottom block row again
    rng = np.random.default_rng(3)
    mats = [rng.standard_normal((6, 6)) for _ in range(3)]
    basis = build_basis(np.exp(2j * np.pi * np.arange(40) / 40), 3)
    table = np.zeros((3, 4))
    table[0, 0], table[1, 1], table[2, 3] = 1.0, 1.0, eps
    pencil = build_pencil(MatrixPolynomial(mats, table, basis))
    calls, bottom = [], StructuredPencil._bottom
    monkeypatch.setattr(StructuredPencil, "_bottom",
                        lambda pencil: calls.append(pencil) or bottom(pencil))
    pairs = solve_pencil_dense(pencil)
    assert pairs.path == path and pairs.rcond >= eigensolve.STANDARD_FORM_RCOND
    assert len(calls) == count


def test_fitted_denominators_either_side_of_the_roots_cut(example1_bundle,
                                                          time_delay_bundle,
                                                          monkeypatch):
    # example1's degree-28 fit (corners 8e-7 and 2.7e-9 of their rows) stays
    # on geev and keeps all 28 roots of each; time_delay2's degree-10
    # denominator (8e-14) goes to QZ, which keeps its tenth root, at
    # infinity, out
    qz_calls = []
    eigvals = scipy.linalg.eigvals
    monkeypatch.setattr(scipy.linalg, "eigvals",
                        lambda *args: qz_calls.append(args) or eigvals(*args))
    xi = example1_bundle.xi
    for c in (xi.denom_coeffs, *xi.numer_coeffs):
        assert poly_roots(c, xi.basis).size == 28
    assert qz_calls == []
    xi = time_delay_bundle.xi
    roots = poly_roots(xi.denom_coeffs, xi.basis)
    assert len(qz_calls) == 1
    assert roots.size == 9 and np.abs(roots).max() < 1e3


def _screened(pencil, lam):
    # the region-free screen: the leading block of theta(lam) (x) u is not
    # negligible, ||theta(lam)[:gamma]|| <= 1e10 |theta_0|
    theta = eval_basis(pencil.poly.basis, lam)[:, : pencil.gamma]
    return lam[np.linalg.norm(theta, axis=1) <= 1e10 * np.abs(theta[:, 0])]


@pytest.mark.parametrize("bundle", ["example1_bundle", "time_delay_bundle",
                                    "hadeler_bundle"])
def test_region_free_screen_keeps_and_counts(bundle, request, monkeypatch):
    # without a region the dense solve keeps the eigenvalues that pass the
    # screen and counts the rest; with one, the in-region eigenvalues are
    # the same
    b = request.getfixturevalue(bundle)
    calls = _record_solve_dense(monkeypatch)
    lam_region, _ = solve_pencil_dense(b.pencil, b.nep.region)
    [(_, lam_all)] = calls
    lam, _ = b.pairs
    np.testing.assert_array_equal(lam, _screened(b.pencil, lam_all))
    assert b.pairs.outside == lam_all.size - lam.size > 0
    np.testing.assert_array_equal(lam[b.nep.region.contains(lam)], lam_region)
    assert lam_region.size > 0


def test_refined_eigenvectors_stay_near_geev(monkeypatch, time_delay_bundle,
                                             hadeler_bundle):
    # the in-region vectors from inverse iteration on P(lam) are the
    # directions geev with eigenvectors gives the materialized standard form
    for bundle in (time_delay_bundle, hadeler_bundle):
        calls = _record_solve_dense(monkeypatch)
        lam, V = solve_pencil_dense(bundle.pencil)
        [(qz, lam_geev)] = calls
        assert not qz
        np.testing.assert_array_equal(lam, _screened(bundle.pencil, lam_geev))
        C0, C1 = bundle.pencil.materialize(force=True)
        ref, V_ref = scipy.linalg.eig(np.linalg.solve(C1, C0))
        n = bundle.nep.n
        inside = np.nonzero(bundle.nep.region.contains(lam))[0]
        assert inside.size > 0
        for i in inside:
            u, g = V[:n, i], V_ref[:n, np.argmin(np.abs(ref - lam[i]))]
            cos = abs(np.vdot(u, g)) / (np.linalg.norm(u) * np.linalg.norm(g))
            assert 1 - cos < 1e-8


@pytest.fixture(scope="module")
def hadeler100_pencil():
    nep = hadeler(100)
    samples = SampleSet.from_nep(nep, sample_boundary(nep.region, 50))
    xi = lawson(samples, DegreeSpec((6, 6, 6), 6))
    return SimpleNamespace(nep=nep, pencil=build_pencil(assemble(xi, nep)))


@pytest.mark.parametrize("bundle", ["time_delay_bundle", "hadeler100_pencil"])
def test_real_pencil_matches_complex_solve(bundle, request, monkeypatch):
    b = request.getfixturevalue(bundle)
    assert b.pencil.is_real
    original, dtypes = eigensolve.solve_dense, []

    def recording(C0, C1=None):
        dtypes.append((C0.dtype, C1))
        return original(C0, C1)

    monkeypatch.setattr(eigensolve, "solve_dense", recording)
    lam, V = solve_pencil_dense(b.pencil)
    assert dtypes == [(np.float64, None)]  # geev on a real standard form
    # real arithmetic: the spectrum is closed under conjugation exactly, and
    # each partner's vector is the conjugate of the refined one
    np.testing.assert_array_equal(np.sort_complex(lam), np.sort_complex(lam.conj()))
    upper = np.flatnonzero(lam.imag > 0)
    np.testing.assert_array_equal(lam[upper + 1], lam[upper].conj())
    np.testing.assert_array_equal(V[:, upper + 1], V[:, upper].conj())
    # the same pencil cast to complex has the same in-region eigenvalues
    C0, C1 = b.pencil.materialize(force=True)
    ref = solve_dense(C0.astype(complex), C1.astype(complex))
    region = b.nep.region
    inside, ref_inside = lam[region.contains(lam)], ref[region.contains(ref)]
    assert inside.size == ref_inside.size > 0
    assert np.abs(inside[:, None] - ref_inside[None, :]).min(axis=1).max() <= 1e-10
    assert np.abs(inside[:, None] - ref_inside[None, :]).min(axis=0).max() <= 1e-10


def test_refine_eigenvectors_sparse_matches_dense(monkeypatch):
    # one helper refines both kinds of P(lam): SuperLU on sparse
    # coefficients, LAPACK on dense ones, to the same vectors
    rng = np.random.default_rng(62)
    P = random_poly(rng, 5, 3)
    sparse = coeff_poly([scipy.sparse.csr_matrix(A) for A in P.mats], P.basis)
    pencil, sparse_pencil = build_pencil(P, trim=False), build_pencil(sparse, trim=False)
    lam, V = scipy.linalg.eig(*pencil.materialize(force=True))
    lam = lam[:6]
    # a perturbed start vector shows the step doing the work
    start = V[: pencil.n, :6] + 1e-3 * rng.standard_normal((pencil.n, 6))
    fallbacks = []
    monkeypatch.setattr(eigensolve, "_null_vector", fallbacks.append)
    Vd = eigensolve.refine_eigenvectors(pencil, lam, start)
    Vs = eigensolve.refine_eigenvectors(sparse_pencil, lam, start)
    # every column is a finite step: the SVD fallback never ran
    assert fallbacks == []
    assert Vd.shape == Vs.shape == (pencil.dim, 6)
    assert np.isfinite(Vd).all() and np.isfinite(Vs).all()
    # unit columns along the same direction; the phase follows the
    # rounding of the near-singular solve
    assert np.allclose(np.linalg.norm(Vs, axis=0), 1.0)
    assert np.abs(np.einsum("ij,ij->j", Vd.conj(), Vs)).min() > 1 - 1e-10
    for i in range(lam.size):
        x = Vs[: pencil.n, i]
        assert np.linalg.norm(P(lam[i]) @ x) <= 1e-8 * np.linalg.norm(x)


@pytest.mark.parametrize("sparse", [False, True])
def test_refine_eigenvectors_exactly_singular_takes_null_vector(sparse):
    # P(x) = theta_0 diag(0, 1, 2) + theta_1(x) I; at x = H[0, 0] the basis
    # gives theta_1 = 0 exactly, so P is exactly singular there: numpy's inv
    # and SuperLU meet a zero pivot, and the SVD's null vector e_1 stands in
    basis = build_basis(np.linspace(-1.0, 1.0, 6), 1)
    coeffs = [np.diag([0.0, 1.0, 2.0]), np.eye(3)]
    if sparse:
        coeffs = [scipy.sparse.csr_matrix(A) for A in coeffs]
    P = coeff_poly(coeffs, basis)
    lam = np.array([basis.H[0, 0]], dtype=complex)
    assert scipy.sparse.csr_matrix(P(lam[0]))[0, 0] == 0
    V = eigensolve.refine_eigenvectors(build_pencil(P, trim=False), lam,
                                       np.ones((3, 1)))
    u = V[:3, 0]
    assert np.linalg.norm(V[:, 0]) == pytest.approx(1.0, rel=1e-15)
    assert abs(abs(u[0]) - np.linalg.norm(u)) <= 1e-15
    assert np.abs(u[1:]).max() == 0.0


def test_refine_eigenvectors_takes_the_null_vector_after_a_non_finite_step(monkeypatch):
    # a step that is not finite, here from a solve that returns nan, ends the
    # inverse iteration, and the SVD null vector of P(lam) stands in
    rng = np.random.default_rng(63)
    P = random_poly(rng, 3, 2)
    pencil = build_pencil(P, trim=False)
    lam = solve_dense(*pencil.materialize())[:1]
    monkeypatch.setattr(eigensolve, "_factor_p",
                        lambda M, order: lambda b: np.full(b.shape, np.nan))
    V = eigensolve.refine_eigenvectors(pencil, lam, np.ones((3, 1)))
    v = np.kron(eval_basis(P.basis, lam)[0, :2], eigensolve._null_vector(P(lam[0])))
    np.testing.assert_allclose(V[:, 0], v / np.linalg.norm(v), rtol=0, atol=1e-15)
    assert np.linalg.norm(P(lam[0]) @ V[:3, 0]) <= 1e-10 * np.linalg.norm(V[:3, 0])


@st.composite
def _dense_case(draw):
    # a small matrix polynomial, real or complex, whose leading coefficient
    # may be rank one (the corner of C1 is then singular and QZ runs), and a
    # random disk, on the real axis for some real cases
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gamma, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    m = max(3 * gamma + 4, 8)
    real = draw(st.booleans())
    if real:
        basis = build_basis(rng.uniform(-1, 1, m), gamma)
        basis = dataclasses.replace(basis, H=basis.H.real, k=basis.k.real)
        draw_matrix = lambda *shape: rng.standard_normal(shape)
    else:
        basis = build_basis(random_nodes(rng, m), gamma)
        draw_matrix = lambda *shape: (rng.standard_normal(shape)
                                      + 1j * rng.standard_normal(shape))
    coeffs = [draw_matrix(n, n) for _ in range(gamma + 1)]
    rank_one = n > 1 and draw(st.booleans())
    if rank_one:
        coeffs[-1] = np.outer(draw_matrix(n), draw_matrix(n))
    on_axis = real and draw(st.booleans())
    center = complex(draw(st.floats(-1.5, 1.5)),
                     0.0 if on_axis else draw(st.floats(-1.5, 1.5)))
    region = Region(center, draw(st.floats(0.2, 3.0)))
    return coeff_poly(coeffs, basis), region, rank_one


@settings(max_examples=200, deadline=None)
@given(_dense_case())
def test_solve_pencil_dense_in_region_property(case):
    # the in-region eigenvalues of the materialized pencil, each with a
    # vector theta(lam) (x) u that P(lam) annihilates
    P, region, rank_one = case
    pencil = build_pencil(P, trim=False)
    ref = scipy.linalg.eigvals(*pencil.materialize(force=True))
    ref = ref[np.isfinite(ref)]
    # no reference eigenvalue so near the circle that rounding decides its side
    dist = np.abs(np.abs(ref - region.center) - region.radius)
    assume(np.all(dist > 1e-8 * (1 + abs(region.center) + region.radius)))
    ref = ref[region.contains(ref)]
    pairs = solve_pencil_dense(pencil, region)
    lam, V = pairs
    # QZ exactly where the corner K of C1 is ill conditioned or negligible
    C0 = pencil.materialize(force=True)[0]
    negligible = np.abs(pencil.c1_corner).max() <= eigensolve.ROOTS_QZ_RATIO * \
        np.abs(C0[(pencil.gamma - 1) * pencil.n:]).max()
    assert (pairs.path == "qz") == (pairs.rcond < eigensolve.STANDARD_FORM_RCOND
                                    or negligible)
    assert pairs.path == "qz" or not rank_one
    assert region.contains(lam).all()
    assert lam.size == ref.size
    if lam.size:
        gap = np.abs(lam[:, None] - ref[None, :])
        assert np.all(gap.min(axis=1) <= 1e-10 * np.maximum(1.0, np.abs(lam)))
        assert np.all(gap.min(axis=0) <= 1e-10 * np.maximum(1.0, np.abs(ref)))
    theta = eval_basis(P.basis, lam)
    for i in range(lam.size):
        u = V[: P.n, i] / theta[i, 0]
        assert np.linalg.norm(V[:, i] - np.kron(theta[i, : pencil.gamma], u)) <= \
            1e-13 * np.linalg.norm(V[:, i])
        scale = sum(abs(t) * np.linalg.norm(A) for t, A in zip(theta[i], P.mats))
        assert np.linalg.norm(P(lam[i]) @ u) <= 1e-10 * scale * np.linalg.norm(u)


@pytest.mark.parametrize("sparse", [False, True])
def test_refine_eigenvectors_keeps_the_better_iterate(sparse):
    # at x = H[0, 0] the basis gives theta_1 = 0 exactly, so P = [[0, 1],
    # [1e-14, 0]] there: its right null vector e_1 is orthogonal to its left
    # one e_2, so a second step from near e_1 turns back toward (1, 1), with
    # an O(1) residual; the first iterate, near e_1, is kept
    basis = build_basis(np.linspace(-1.0, 1.0, 6), 1)
    coeffs = [np.array([[0.0, 1.0], [1e-14, 0.0]]), np.eye(2)]
    if sparse:
        coeffs = [scipy.sparse.csr_matrix(A) for A in coeffs]
    P = coeff_poly(coeffs, basis)
    lam = np.array([basis.H[0, 0]], dtype=complex)
    V = eigensolve.refine_eigenvectors(build_pencil(P, trim=False), lam,
                                       np.ones((2, 1)))
    u = V[:2, 0]
    assert np.linalg.norm(P(lam[0]) @ u) <= 1e-13 * np.linalg.norm(u)


def test_in_region_predicate():
    region = Region(1.0 + 2.0j, 2.0)
    assert region.contains(1.0 + 2.0j)
    assert region.contains(3.0 + 2.0j)  # boundary is inside
    assert not region.contains(1.0 + 2.0j + (2.0 + 1e-9))
    half = Region(0.0j, 1.0, half_disk=True)
    assert half.contains(0.5 + 0.1j)
    assert half.contains(0.5 + 0.0j)
    assert not half.contains(0.5 - 0.1j)


def test_region_predicate_pure_and_vectorized():
    region = Region(0.0j, 1.0)
    pts = np.array([0.0, 2.0, 0.5j, 1.0])
    got = region.contains(pts)
    assert got.tolist() == [True, False, True, True]
    assert region.contains(pts).tolist() == got.tolist()  # idempotent
    perm = [3, 1, 0, 2]
    assert region.contains(pts[perm]).tolist() == [got[i] for i in perm]


# dyadic values with few bits: sums and differences of them are exact
_dyadic = st.integers(-2 ** 12, 2 ** 12).map(lambda k: k / 2 ** 8)
# Pythagorean triples: |a + bi| = c exactly
_TRIPLES = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (1, 0, 1)]


@settings(max_examples=300, deadline=None)
@given(cx=_dyadic, cy=_dyadic, scale=st.integers(1, 2 ** 6).map(lambda k: k / 2 ** 4),
       triple=st.sampled_from(_TRIPLES), signs=st.tuples(st.sampled_from([1, -1]),
                                                         st.sampled_from([1, -1])),
       swap=st.booleans(), half=st.booleans())
def test_region_contains_boundary_property(cx, cy, scale, triple, signs, swap, half):
    # the region is closed: a point exactly on the circle is inside, just
    # beyond it is outside; the half-disk keeps its diameter Im = 0
    a, b, c = triple
    if swap:
        a, b = b, a
    center, radius = complex(cx, cy), c * scale
    offset = complex(signs[0] * a * scale, signs[1] * b * scale)
    region = Region(center, radius, half_disk=half)
    on_circle = center + offset
    assert on_circle - center == offset  # the construction is exact
    beyond = center + offset * (1 + 2 ** -40)
    within = center + offset * (1 - 2 ** -40)
    upper = not half or offset.imag >= 0
    assert bool(region.contains(on_circle)) == upper
    assert bool(region.contains(within)) == upper
    assert not region.contains(beyond)
    got = region.contains(np.array([on_circle, within, beyond]))
    assert got.tolist() == [upper, upper, False]
    # the diameter of a half-disk: Im(lam - c) = 0 exactly, |Re| up to r
    edge = complex(cx + signs[0] * radius * a / c, cy)
    assert edge - center == complex(signs[0] * radius * a / c, 0.0)
    assert region.contains(edge)
    below = complex(edge.real, np.nextafter(cy, -np.inf))
    assert bool(region.contains(below)) == (not half)


_BASIS = build_basis(np.linspace(-1.0, 1.0, 8), 2)


def _extract_one(nep, lam, v):
    # the one problem eigenpair extracted from the pencil eigenpair (lam, v)
    pairs = (np.array([lam], dtype=complex), np.asarray(v, dtype=complex)[:, None])
    [pair] = extract_nep_eigenpairs(pairs, _BASIS, nep, nep.region)
    return pair


def test_residual_zero_term():
    # a term that vanishes identically adds nothing to the residual or its scale
    rng = np.random.default_rng(47)
    E = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    nep = SplitFormNEP("z", [constant(0.0), constant(1.0)],
                       [E, np.eye(3, dtype=complex)], Region(0j, 1.0))
    p = _extract_one(nep, 0.3 + 0.1j, np.array([1.0, 2.0, -1.0]))
    assert p.residual == p.normalized_residual == 1.0


def test_residual_exact_eigenpair_example1():
    nep = example1()
    lam = np.sqrt(2 * np.pi)
    u = np.array([1.0, -1.0]) / np.sqrt(2)
    theta = eval_basis(_BASIS, [lam])[0]
    p = _extract_one(nep, lam, np.kron(theta, u))
    assert p.residual < 1e-14
    assert p.normalized_residual < 1e-14
    assert p.consistency < 1e-14


def test_residual_matches_bruteforce_and_grows():
    rng = np.random.default_rng(41)
    nep = example1()
    lam = 0.7 + 0.3j
    u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    T = nep.apply(lam, np.eye(nep.n))
    want = np.linalg.norm(T @ u) / np.linalg.norm(u)
    assert _extract_one(nep, lam, u).residual == pytest.approx(want, rel=1e-12)
    exact = np.array([1.0, -1.0]) / np.sqrt(2)
    lam = np.sqrt(2 * np.pi)
    assert _extract_one(nep, lam, exact + 0.01 * u).residual > \
        _extract_one(nep, lam, exact).residual


def test_residual_rejects_zero_vector():
    nep = example1()
    V = np.ones((2, 2), dtype=complex)
    V[:, 1] = 0.0
    with pytest.raises(ValueError):
        extract_nep_eigenpairs((np.array([0.1, 0.2]), V), _BASIS, nep, nep.region)


def test_extract_rejects_a_vector_length_that_is_not_a_multiple_of_n():
    nep = example1()  # n = 2
    with pytest.raises(ValueError, match="multiple of the block size"):
        extract_nep_eigenpairs((np.array([0.1]), np.ones((3, 1))), _BASIS, nep, nep.region)


def test_normalized_residual_values():
    one = SplitFormNEP("i", [constant(1.0)], [np.eye(2, dtype=complex)],
                       Region(0j, 1.0))
    rng = np.random.default_rng(42)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    p = _extract_one(one, 0.5, v)
    assert p.normalized_residual == pytest.approx(p.residual, rel=1e-12)
    # brute-force formula on a random instance
    nep2 = SplitFormNEP("m", [constant(2.0), monomial(1)],
                        [np.diag([1.0, 3.0]).astype(complex),
                         np.ones((2, 2), dtype=complex)], Region(0j, 1.0))
    lam2 = 0.4 - 0.2j
    tv = np.abs(nep2.t_values(lam2)[0])
    denom = tv[0] * 3.0 + tv[1] * 2.0  # 1-norms: diag -> 3, ones -> 2
    want = (np.linalg.norm(nep2.apply(lam2, np.eye(nep2.n)) @ v)
            / (denom * np.linalg.norm(v)))
    assert _extract_one(nep2, lam2, v).normalized_residual == \
        pytest.approx(want, rel=1e-12)


def test_normalized_residual_zero_denominator():
    nep = SplitFormNEP("z", [monomial(1)], [np.eye(2, dtype=complex)],
                       Region(0j, 1.0))
    with pytest.raises(ZeroDivisionError):
        _extract_one(nep, 0.0, np.ones(2))


@st.composite
def _extraction_case(draw):
    # a random dense or sparse split form, basis and set of pencil eigenpairs;
    # some eigenvalues lie outside the region, one may be huge, some columns
    # have a tiny leading block and some a leading block that is zero but
    # for its last entry: extraction reports them all
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, s, gamma, p = (draw(st.integers(1, 5)), draw(st.integers(1, 3)),
                      draw(st.integers(1, 4)), draw(st.integers(0, 8)))
    sparse = draw(st.booleans())
    kinds = [constant(1.5 - 0.5j), monomial(2), exp_affine(-1.0, 0.5)]

    def matrix():
        if sparse:  # the identity keeps a 1 x 1 draw from being zero
            return (scipy.sparse.random(n, n, density=0.5, rng=rng, dtype=complex)
                    + scipy.sparse.eye(n)).tocsr()
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    nep = SplitFormNEP("random", kinds[:s], [matrix() for _ in range(s)],
                       Region(0.2 + 0.1j, 1.0))
    basis = build_basis(random_nodes(rng, 2 * gamma + 4), gamma)
    lam = 1.5 * (rng.uniform(-1, 1, p) + 1j * rng.uniform(-1, 1, p))
    if p and draw(st.booleans()):
        lam[0] = 1e14
    V = rng.standard_normal((gamma * n, p)) + 1j * rng.standard_normal((gamma * n, p))
    V[:n, rng.uniform(size=p) < 0.2] *= 1e-12
    V[: n - 1, rng.uniform(size=p) < 0.2] = 0.0
    return lam, V, basis, nep


@settings(max_examples=200, deadline=None)
@given(_extraction_case())
def test_extract_matches_per_pair_oracle(case):
    lam, V, basis, nep = case
    region = nep.region
    out = extract_nep_eigenpairs((lam, V), basis, nep, region)
    want = sorted(((complex(z), eigenpair_oracle(z, V[:, i], basis, nep))
                   for i, z in enumerate(lam)), key=lambda zo: (zo[0].real, zo[0].imag))
    assert [p.lam for p in out] == [z for z, _ in want]
    for p, (z, (u, res, nres, consistency)) in zip(out, want):
        assert p.in_region == bool(region.contains(z))
        np.testing.assert_allclose(p.u, u, rtol=0, atol=1e-13)
        assert p.residual == pytest.approx(res, rel=1e-10, abs=1e-14)
        assert p.normalized_residual == pytest.approx(nres, rel=1e-10, abs=1e-14)
        assert p.consistency == pytest.approx(consistency, rel=1e-12, abs=1e-15)


def test_extract_keeps_huge_and_tiny_leading_block_rejects_zero():
    # which pairs to report is the solver's choice: extraction keeps a huge
    # eigenvalue and a tiny leading block, and only a zero one is an error
    rng = np.random.default_rng(43)
    nep = example1()
    P = random_poly(rng, 2, 3)
    v_tiny = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    v_tiny[:2] *= 1e-14
    v_ok = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    pairs = (np.array([0.5 + 0.1j, 1e15, 0.2j]), np.column_stack([v_tiny, v_ok, v_ok]))
    out = extract_nep_eigenpairs(pairs, P.basis, nep, nep.region)
    assert [p.lam for p in out] == [0.2j, 0.5 + 0.1j, 1e15]
    for p in out:
        assert abs(np.linalg.norm(p.u) - 1.0) < 1e-14
    v_zero = v_tiny.copy()
    v_zero[:2] = 0.0
    with pytest.raises(ValueError, match="leading block is zero"):
        extract_nep_eigenpairs((pairs[0], np.column_stack([v_zero, v_ok, v_ok])),
                               P.basis, nep, nep.region)


def test_extract_sorted_and_normalized_deterministically():
    rng = np.random.default_rng(44)
    nep = example1()
    P = random_poly(rng, 2, 2)
    vs = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    out = extract_nep_eigenpairs((np.array([0.5, -0.5, 0.1j]), vs), P.basis, nep,
                                 nep.region)
    lams = [p.lam for p in out]
    assert lams == sorted(lams, key=lambda z: (z.real, z.imag))
    for p in out:
        i = np.nonzero(np.abs(p.u) > 1e-12 * np.abs(p.u).max())[0][0]
        assert abs(p.u[i].imag) <= 1e-14
        assert p.u[i].real > 0


def test_pole_free_check_constant_denominator():
    nodes = np.linspace(-1, 1, 12)
    samples = SampleSet(nodes, np.exp(nodes)[:, None])
    xi = lawson(samples, DegreeSpec((3,), 0), max_iters=5)
    poles = poly_roots(xi.denom_coeffs, xi.basis)
    ok, offenders = pole_free_check(poles, Region(0j, 1.0))
    assert ok and offenders.size == 0


def test_pole_free_check_flags_synthetic_pole():
    nodes = np.linspace(-1, 1, 12)
    samples = SampleSet(nodes, np.exp(nodes)[:, None])
    xi = lawson(samples, DegreeSpec((2,), 1), max_iters=5)
    theta = eval_basis(xi.basis, [0.25])[0]
    rigged = dataclasses.replace(xi, denom_coeffs=np.array([-theta[1], theta[0]]))
    ok, offenders = pole_free_check(poly_roots(rigged.denom_coeffs, rigged.basis),
                                    Region(0j, 1.0))
    assert not ok
    assert offenders.size == 1
    assert abs(offenders[0] - 0.25) < 1e-10
