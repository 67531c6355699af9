"""Dense solve contract, region predicate, residuals, and pole checks."""

import dataclasses

import numpy as np
import pytest

from nepsolve import (Region, build_basis, build_pencil, eval_basis, example1,
                      extract_nep_eigenpairs, lawson, normalized_residual,
                      pole_free_check, residual, solve_dense)
from nepsolve.lawson import DegreeSpec, RationalApproximant, SampleSet
from nepsolve.pencil import MatrixPolynomial
from nepsolve.problems import SplitFormNEP, constant, monomial
from util import random_nodes, random_poly


def test_solve_dense_diagonal():
    lam, V = solve_dense(np.diag([1.0, 2.0]).astype(complex), np.eye(2, dtype=complex))
    assert sorted(lam.real) == pytest.approx([1.0, 2.0])
    assert np.allclose(lam.imag, 0.0)


def test_solve_dense_shape_mismatch():
    with pytest.raises(ValueError):
        solve_dense(np.eye(3), np.eye(2))


def test_pencil_of_linear_polynomial_matches_direct_eigensolve():
    rng = np.random.default_rng(40)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    nodes = random_nodes(rng, 10, radius=2.0)
    basis = build_basis(nodes, 1)
    theta0 = basis.Q[0, 0]
    # x I - A expressed in the basis
    coeffs = [(basis.H[0, 0] * np.eye(4) - A) / theta0,
              basis.H[1, 0] * np.eye(4) / theta0]
    pencil = build_pencil(MatrixPolynomial(coeffs, basis))
    lam, V = solve_dense(*pencil.materialize())
    ref = np.sort_complex(np.linalg.eigvals(A))
    assert np.abs(np.sort_complex(lam) - ref).max() < 1e-10 * max(1, np.abs(ref).max())
    # backward error contract
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


def test_residual_zero_term():
    nep = SplitFormNEP("z", [constant(0.0)], [np.eye(3, dtype=complex)],
                       Region(0j, 1.0))
    u = np.array([1.0, 2.0, -1.0])
    assert residual(nep, 0.3 + 0.1j, u) == 0.0


def test_residual_exact_eigenpair_example1():
    nep = example1()
    lam = np.sqrt(2 * np.pi)
    u = np.array([1.0, -1.0]) / np.sqrt(2)
    assert residual(nep, lam, u) < 1e-14


def test_residual_matches_bruteforce_and_grows():
    rng = np.random.default_rng(41)
    nep = example1()
    lam = 0.7 + 0.3j
    u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    T = nep.matrix(lam)
    want = np.linalg.norm(T @ u) / np.linalg.norm(u)
    assert residual(nep, lam, u) == pytest.approx(want, rel=1e-12)
    exact = np.array([1.0, -1.0]) / np.sqrt(2)
    assert residual(nep, np.sqrt(2 * np.pi), exact + 0.01 * u) > \
        residual(nep, np.sqrt(2 * np.pi), exact)


def test_residual_rejects_zero_vector():
    with pytest.raises(ValueError):
        residual(example1(), 0.0, np.zeros(2))


def test_normalized_residual_values():
    nep = example1()
    lam = np.sqrt(2 * np.pi)
    u = np.array([1.0, -1.0]) / np.sqrt(2)
    assert normalized_residual(nep, lam, u) < 1e-14
    one = SplitFormNEP("i", [constant(1.0)], [np.eye(2, dtype=complex)],
                       Region(0j, 1.0))
    rng = np.random.default_rng(42)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert normalized_residual(one, 0.5, v) == pytest.approx(
        residual(one, 0.5, v), rel=1e-12)
    # brute-force formula on a random instance
    nep2 = SplitFormNEP("m", [constant(2.0), monomial(1)],
                        [np.diag([1.0, 3.0]).astype(complex),
                         np.ones((2, 2), dtype=complex)], Region(0j, 1.0))
    lam2 = 0.4 - 0.2j
    tv = np.abs(nep2.t_values(lam2)[0])
    denom = tv[0] * 3.0 + tv[1] * 2.0  # 1-norms: diag -> 3, ones -> 2
    want = np.linalg.norm(nep2.matrix(lam2) @ v) / (denom * np.linalg.norm(v))
    assert normalized_residual(nep2, lam2, v) == pytest.approx(want, rel=1e-12)


def test_normalized_residual_zero_denominator():
    nep = SplitFormNEP("z", [monomial(1)], [np.eye(2, dtype=complex)],
                       Region(0j, 1.0))
    with pytest.raises(ZeroDivisionError):
        normalized_residual(nep, 0.0, np.ones(2))


def test_extract_skips_bottom_dominated_and_huge():
    rng = np.random.default_rng(43)
    nep = example1()
    P = random_poly(rng, 2, 3)
    v_bad = np.zeros(6, dtype=complex)
    v_bad[2:] = rng.standard_normal(4)
    v_ok = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    pairs = (np.array([0.5 + 0.1j, 1e15, 0.2j]), np.column_stack([v_bad, v_ok, v_ok]))
    out = extract_nep_eigenpairs(pairs, P.basis, nep, nep.region)
    assert len(out) == 1
    assert out[0].lam == 0.2j
    assert abs(np.linalg.norm(out[0].u) - 1.0) < 1e-14


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
    ok, offenders = pole_free_check(xi, Region(0j, 1.0))
    assert ok and offenders.size == 0


def test_pole_free_check_flags_synthetic_pole():
    nodes = np.linspace(-1, 1, 12)
    samples = SampleSet(nodes, np.exp(nodes)[:, None])
    xi = lawson(samples, DegreeSpec((2,), 1), max_iters=5)
    theta = eval_basis(xi.basis, [0.25])[0]
    rigged = dataclasses.replace(xi, denom_coeffs=np.array([-theta[1], theta[0]]))
    ok, offenders = pole_free_check(rigged, Region(0j, 1.0))
    assert not ok
    assert offenders.size == 1
    assert abs(offenders[0] - 0.25) < 1e-10
