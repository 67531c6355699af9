"""Quadrature rule, rational filter, structured solves, and subspace iteration."""

import dataclasses
import os
import re
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st

from nepsolve import (DegreeSpec, PoleHitError, Region,
                      SampleSet, SIFConfig, SplitFormNEP, apply_filter,
                      build_basis, build_pencil, constant, exp_affine, lawson,
                      monomial, quadrature, sample_boundary, scalar_filter,
                      shift_invert, sif, solve_dense, solve_pencil_dense,
                      time_delay2)
from nepsolve.eigensolve import refine_eigenvectors
from nepsolve.filters import SUBSPACE_START, _factor_poles
from nepsolve.pencil import (SPARSE_ORDERING, BlockLU, SingularShiftError, assemble,
                             block_lu)
from util import coeff_poly, match_sets, random_poly


def closed_form(c, r, k, x):
    return 1.0 / (1.0 + ((x - c) / r) ** k)


def test_quadrature_k1():
    rule = quadrature(1.0 + 2.0j, 0.5, 1)
    assert rule.poles[0] == pytest.approx(1.0 + 2.0j - 0.5)
    assert rule.weights[0] == pytest.approx(-0.5)


def test_quadrature_k4_angles_and_circle():
    rule = quadrature(0.0, 2.0, 4)
    want = np.exp(1j * np.array([1, 3, 5, 7]) * np.pi / 4)
    assert np.allclose(rule.poles, 2.0 * want)
    assert np.allclose(np.abs(rule.poles), 2.0)
    rule2 = quadrature(-1.0 + 0.5j, 3.0, 17)
    assert np.allclose(np.abs(rule2.poles - (-1.0 + 0.5j)), 3.0)


@pytest.mark.parametrize("radius, k, message", [
    (1.0, 0, "quadrature order must be at least 1"),
    (0.0, 4, "radius must be positive"),
    (-1.0, 4, "radius must be positive"),
], ids=["no_poles", "zero_radius", "negative_radius"])
def test_quadrature_rejects_bad_input(radius, k, message):
    with pytest.raises(ValueError, match=message):
        quadrature(0j, radius, k)


def test_scalar_filter_matches_closed_form():
    rng = np.random.default_rng(50)
    c, r = 0.3 - 0.2j, 1.7
    for k in (4, 8, 16, 32):
        rule = quadrature(c, r, k)
        x = c + 3 * r * (rng.uniform(-1, 1, 1000) + 1j * rng.uniform(-1, 1, 1000))
        x = x[np.abs(np.abs(x - c) / r - 1.0) > 0.05]
        got = scalar_filter(rule, x)
        want = closed_form(c, r, k, x)
        assert np.abs(got - want).max() <= 1e-12 * (1 + np.abs(want).max())


def test_scalar_filter_center_and_decay():
    c, r = 1.0 + 1.0j, 2.0
    for k in (1, 4, 16):
        assert scalar_filter(quadrature(c, r, k), c) == pytest.approx(1.0)
    rule = quadrature(c, r, 16)
    inner = abs(scalar_filter(rule, c + 0.5 * r))
    assert 1 - 2.0 ** -16 - 1e-10 <= inner <= 1.0
    outer = abs(scalar_filter(rule, c + 2.0 * r))
    assert outer <= 2.0 ** -16 + 1e-10


def test_scalar_filter_pole_hit():
    rule = quadrature(0.0, 1.0, 4)
    with pytest.raises(PoleHitError):
        scalar_filter(rule, rule.poles[2])


def test_shift_invert_zero_block():
    rng = np.random.default_rng(51)
    P = random_poly(rng, 3, 2)
    pencil = build_pencil(P, trim=False)
    Z = shift_invert(pencil, 2.0 + 1.0j, np.zeros((pencil.dim, 2)))
    assert np.all(Z == 0)


def test_shift_invert_matches_dense_oracle():
    rng = np.random.default_rng(52)
    for gamma, n in [(2, 3), (3, 4), (5, 2), (7, 5)]:
        P = random_poly(rng, n, gamma)
        pencil = build_pencil(P, trim=False)
        C0, C1 = pencil.materialize(force=True)
        mu = complex(rng.standard_normal() + 1j * rng.standard_normal()) * 2
        Y = rng.standard_normal((pencil.dim, 3)) + 1j * rng.standard_normal((pencil.dim, 3))
        Z = shift_invert(pencil, mu, Y)
        Zd = np.linalg.solve(mu * C1 - C0, C1 @ Y)
        assert np.linalg.norm(Z - Zd) <= 1e-10 * np.linalg.norm(Zd)


def test_shift_invert_hadeler_small_dense_oracle():
    import nepsolve

    nep = nepsolve.hadeler(20)
    nodes = nepsolve.sample_boundary(nep.region, 40)
    samples = SampleSet.from_nep(nep, nodes)
    xi = lawson(samples, DegreeSpec((4, 4, 4), 4), max_iters=60)
    pencil = build_pencil(assemble(xi, nep), trim=False)
    C0, C1 = pencil.materialize(force=True)
    mu = nep.region.center + 1.1 * nep.region.radius * np.exp(1j * np.pi / 7)
    rng = np.random.default_rng(53)
    Y = rng.standard_normal((pencil.dim, 4)) + 1j * rng.standard_normal((pencil.dim, 4))
    Z = shift_invert(pencil, mu, Y)
    Zd = np.linalg.solve(mu * C1 - C0, C1 @ Y)
    assert np.linalg.norm(Z - Zd) <= 1e-9 * np.linalg.norm(Zd)


def _filtered(pencil, rule, Y):
    # the filter's action on Y, with the rule's poles factored for this call
    with _factor_poles(pencil, rule) as terms:
        return apply_filter(pencil, rule, Y, terms)


def test_apply_filter_matches_eigendecomposition_oracle():
    rng = np.random.default_rng(55)
    P = random_poly(rng, 3, 3)
    pencil = build_pencil(P, trim=False)
    C0, C1 = pencil.materialize(force=True)
    lam, X = scipy.linalg.eig(C0, C1)
    assert np.all(np.isfinite(lam))
    c = complex(np.mean(lam))
    r = 0.9 * np.median(np.abs(lam - c))
    rule = quadrature(c, r, 32)
    Y = rng.standard_normal((pencil.dim, 4)) + 1j * rng.standard_normal((pencil.dim, 4))
    Z = _filtered(pencil, rule, Y)
    # exact filter action through the eigenbasis
    zeta = scalar_filter(rule, lam)
    Zo = X @ (zeta[:, None] * np.linalg.solve(X, Y))
    assert np.linalg.norm(Z - Zo) <= 1e-8 * np.linalg.norm(Zo)


def test_apply_filter_projects_onto_separated_invariant_subspace():
    # linear polynomial x I - A with a planted spectrum: three eigenvalues
    # well inside the disk, the rest far outside
    rng = np.random.default_rng(60)
    vals = np.array([0.1, -0.2j, 0.15 + 0.1j, 2.5, -3.0, 2.0j, -2.5j, 3.5])
    Q = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    A = Q @ np.diag(vals) @ np.linalg.inv(Q)
    basis = build_basis(np.exp(2j * np.pi * np.arange(9) / 9), 1)
    theta0 = basis.Q[0, 0]
    coeffs = [(basis.H[0, 0] * np.eye(8) - A) / theta0,
              basis.H[1, 0] * np.eye(8) / theta0]
    pencil = build_pencil(coeff_poly(coeffs, basis))
    rule = quadrature(0.0, 0.5, 32)
    Y = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    Z = _filtered(pencil, rule, Y)
    Qin, _ = np.linalg.qr(Q[:, :3])
    Qz, _ = np.linalg.qr(Z)
    angles = np.linalg.svd(Qin.conj().T @ Qz, compute_uv=False)
    assert np.min(angles) > 1 - 1e-6


def test_apply_filter_scalar_pencil_reduces_to_scalar_filter():
    rng = np.random.default_rng(56)
    P = random_poly(rng, 1, 4)
    pencil = build_pencil(P, trim=False)
    C0, C1 = pencil.materialize(force=True)
    lam, X = scipy.linalg.eig(C0, C1)
    rule = quadrature(0.2, 1.1, 16)
    Y = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    Z = _filtered(pencil, rule, Y)
    zeta = scalar_filter(rule, lam)
    Zo = X @ (zeta[:, None] * np.linalg.solve(X, Y))
    assert np.linalg.norm(Z - Zo) <= 1e-9 * np.linalg.norm(Zo)


def test_apply_filter_preserves_invariant_subspace_span():
    rng = np.random.default_rng(57)
    P = random_poly(rng, 2, 4)
    pencil = build_pencil(P, trim=False)
    C0, C1 = pencil.materialize(force=True)
    lam, X = scipy.linalg.eig(C0, C1)
    c = complex(lam[0] + 0.05)
    r = 0.5 * np.sort(np.abs(lam - c))[1]
    rule = quadrature(c, r, 32)
    y = X[:, [0]]  # already spans the in-region invariant subspace
    Z = _filtered(pencil, rule, y)
    cosang = abs(np.vdot(y[:, 0], Z[:, 0])) / (
        np.linalg.norm(y) * np.linalg.norm(Z))
    assert cosang > 1 - 1e-8


@st.composite
def _real_filter_case(draw):
    """A real polynomial in a real basis, a rule on a real center, a block."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gamma = draw(st.integers(1, 6))
    n = draw(st.integers(1, 8))
    basis = build_basis(rng.uniform(-1, 1, max(3 * gamma + 4, 8)), gamma)
    basis = dataclasses.replace(basis, H=basis.H.real, k=basis.k.real)
    P = coeff_poly([rng.standard_normal((n, n)) for _ in range(gamma + 1)],
                   basis)
    rule = quadrature(draw(st.floats(-1.0, 1.0)), draw(st.floats(0.2, 2.0)),
                      draw(st.integers(1, 20)))
    return P, rule, rng.standard_normal((gamma * n, 2))


@settings(max_examples=100, deadline=None)
@given(_real_filter_case())
def test_paired_filter_matches_the_full_pole_sum(case):
    # ceil(k/2) factorizations give the sum over all k poles. The sum cancels
    # where the disk holds no eigenvalue, so the rounding is measured against
    # its largest term, on shifts conditioned well enough (about half the
    # draws) that 1e-12 leaves a 6x margin over the worst of 3,000 cases
    P, rule, Y = case
    pencil = build_pencil(P, trim=False)
    assert pencil.is_real
    C0, C1 = pencil.materialize()
    assume(max(np.linalg.cond(s * C1 - C0) for s in rule.poles) < 1e2)
    with _factor_poles(pencil, rule) as terms:
        assert len(terms) == (rule.k + 1) // 2
        Z = apply_filter(pencil, rule, Y, terms)
    terms = [g * BlockLU(pencil, s).solve(Y) for g, s in zip(rule.weights, rule.poles)]
    assert not np.iscomplexobj(Z)
    assert np.linalg.norm(Z - sum(terms)) <= 1e-12 * max(np.linalg.norm(t) for t in terms)


def test_paired_filter_rejects_a_complex_block(time_delay_bundle):
    pencil = time_delay_bundle.pencil
    rule = quadrature(-1.0, 6.0, 4)
    with pytest.raises(ValueError, match="real block only"):
        _filtered(pencil, rule, np.ones((pencil.dim, 1), dtype=complex))


def _record_lu_threads(monkeypatch, fail_at=None):
    # one [building thread, freeing thread] entry per BlockLU, the second
    # None while the BlockLU lives; the one at the pole fail_at is built and
    # then reported singular. The poles are factored on worker threads, so
    # entries are counted by list.append, which is atomic where += is not
    made = []
    init = BlockLU.__init__

    def freed(entry):
        entry[1] = threading.get_ident()

    def recorded(self, pencil, mu):
        entry = [threading.get_ident(), None]
        made.append(entry)
        weakref.finalize(self, freed, entry)
        init(self, pencil, mu)
        if mu == fail_at:
            raise SingularShiftError("planted")

    monkeypatch.setattr(BlockLU, "__init__", recorded)
    return made


@pytest.mark.parametrize("k", [7, 16])
def test_sif_factors_half_the_poles_on_a_real_pencil_with_a_real_center(
        k, time_delay_bundle, example1_bundle, monkeypatch):
    made = _record_lu_threads(monkeypatch)
    config = SIFConfig(subspace=8, quad_order=k, max_iters=1)
    b = time_delay_bundle
    assert b.pencil.is_real and b.nep.region.center.imag == 0
    off_axis = Region(b.nep.region.center + 0.5j, b.nep.region.radius)
    e = example1_bundle
    assert not e.pencil.is_real
    for pencil, nep, region, want in [(b.pencil, b.nep, b.nep.region, (k + 1) // 2),
                                      (b.pencil, b.nep, off_axis, k),
                                      (e.pencil, e.nep, e.nep.region, k)]:
        made.clear()
        result = sif(pencil, nep, region, config)
        assert len(made) == result.factorizations == want
        assert result.block_solves == want


def _use_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def test_factor_poles_without_sched_getaffinity(time_delay_bundle, monkeypatch):
    # macOS and Windows have no os.sched_getaffinity: the worker count
    # falls back to os.cpu_count()
    b = time_delay_bundle
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    made = _record_lu_threads(monkeypatch)
    rule = quadrature(b.nep.region.center, b.nep.region.radius, 16)
    with _factor_poles(b.pencil, rule) as lus:
        assert len(lus) == 8
    assert len({built for built, _ in made}) == 3


def test_factors_freed_before_return_on_the_thread_that_built_them(
        time_delay_bundle, monkeypatch):
    # SciPy's SuperLU never gives back the memory of a factor freed on
    # another thread than the one that built it, so each worker frees its own
    b = time_delay_bundle
    _use_cpus(monkeypatch, 2)
    made = _record_lu_threads(monkeypatch)
    rule = quadrature(b.nep.region.center, b.nep.region.radius, 16)
    for call in (lambda: sif(b.pencil, b.nep, b.nep.region, SIFConfig(seed=7)),
                 lambda: _filtered(b.pencil, rule, np.ones((b.pencil.dim, 1)))):
        made.clear()
        call()
        assert len(made) == 8
        assert all(built == freed for built, freed in made)
        assert threading.get_ident() not in {built for built, _ in made}


def test_singular_pole_named_and_every_factor_freed_on_its_worker(
        time_delay_bundle, monkeypatch):
    b = time_delay_bundle
    _use_cpus(monkeypatch, 2)
    rule = quadrature(b.nep.region.center, b.nep.region.radius, 16)
    made = _record_lu_threads(monkeypatch, fail_at=rule.poles[2])
    want = re.escape(f"quadrature pole 3 of 16 at {rule.poles[2]} hits the "
                     "spectrum: planted")
    for call in (lambda: sif(b.pencil, b.nep, b.nep.region, SIFConfig(seed=7)),
                 lambda: _filtered(b.pencil, rule, np.ones((b.pencil.dim, 1)))):
        made.clear()
        with pytest.raises(SingularShiftError, match=want):
            call()
        # the failed pole's BlockLU too: its frames are cleared on the worker
        assert len(made) == 8
        assert all(built == freed for built, freed in made)


def test_sif_identical_for_any_worker_count(time_delay_bundle, monkeypatch):
    # 8 workers for 8 poles outnumber the cores of a small box, and a short
    # switch interval makes them interleave often
    b = time_delay_bundle
    made = _record_lu_threads(monkeypatch)
    results, threads = [], []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 2, 8):
            _use_cpus(monkeypatch, cpus)
            made.clear()
            results.append(sif(b.pencil, b.nep, b.nep.region, SIFConfig(seed=7)))
            threads.append({thread for thread, _ in made})
    finally:
        sys.setswitchinterval(interval)
    one = results[0]
    for other in results[1:]:
        assert [p.lam for p in other.eigenpairs] == [p.lam for p in one.eigenpairs]
        assert (other.iterations, other.subspace) == (one.iterations, one.subspace)
    # one thread per worker, none of them the caller's
    assert [len(built) for built in threads] == [1, 2, 8]
    assert threading.get_ident() not in set().union(*threads)


def _record_solve_threads(monkeypatch):
    # one (building thread, solving thread) entry per BlockLU.solve call
    init, solve = BlockLU.__init__, BlockLU.solve
    ran = []

    def built(self, pencil, mu):
        self.built_on = threading.get_ident()
        init(self, pencil, mu)

    def solved(self, Y, out=None):
        ran.append((self.built_on, threading.get_ident()))
        return solve(self, Y, out)

    monkeypatch.setattr(BlockLU, "__init__", built)
    monkeypatch.setattr(BlockLU, "solve", solved)
    return ran


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_pole_solves_run_on_the_worker_that_built_the_factor(
        cpus, time_delay_bundle, example1_bundle, monkeypatch):
    # the solves run on the pole workers, and the terms are still added on
    # the caller in pole order: bit for bit the sum computed on the caller
    _use_cpus(monkeypatch, cpus)
    ran = _record_solve_threads(monkeypatch)
    rng = np.random.default_rng(24)
    for b, paired in [(time_delay_bundle, True), (example1_bundle, False)]:
        rule = quadrature(b.nep.region.center, b.nep.region.radius, 16)
        Y = rng.standard_normal((b.pencil.dim, 5))
        if not paired:
            Y = Y + 1j * rng.standard_normal(Y.shape)
        weights, poles = ((2 * rule.weights[:8], rule.poles[:8]) if paired
                          else (rule.weights, rule.poles))
        want = weights[0] * block_lu(b.pencil, poles[0]).solve(Y)
        for g, s in zip(weights[1:], poles[1:]):
            want += g * block_lu(b.pencil, s).solve(Y)
        ran.clear()
        got = _filtered(b.pencil, rule, Y)
        assert np.array_equal(got, want.real if paired else want)
        assert len(ran) == len(poles)
        assert all(built == solved for built, solved in ran)
        assert threading.get_ident() not in {solved for _, solved in ran}


def test_failed_pole_solve_raises_and_every_factor_is_freed_on_its_worker(
        time_delay_bundle, monkeypatch):
    b = time_delay_bundle
    _use_cpus(monkeypatch, 2)
    rule = quadrature(b.nep.region.center, b.nep.region.radius, 16)
    made = _record_lu_threads(monkeypatch)
    solve, calls = BlockLU.solve, []

    def planted(self, Y, out=None):
        calls.append(None)  # list.append: the solves run on workers
        if self.mu == rule.poles[4] and len(calls) > fail_after:
            raise RuntimeError("planted")
        return solve(self, Y, out)

    monkeypatch.setattr(BlockLU, "solve", planted)
    before = threading.active_count()
    # in the first application, and in sif's second sweep
    for fail_after, call in [
            (0, lambda: _filtered(b.pencil, rule, np.ones((b.pencil.dim, 1)))),
            (8, lambda: sif(b.pencil, b.nep, b.nep.region, SIFConfig(seed=7)))]:
        made.clear()
        calls.clear()
        with pytest.raises(RuntimeError, match="planted"):
            call()
        assert threading.active_count() == before
        assert len(made) == 8
        assert all(built == freed for built, freed in made)


def test_block_lu_solve_writes_into_out(time_delay_bundle):
    pencil = time_delay_bundle.pencil
    lu = BlockLU(pencil, 1.5 + 0.5j)
    Y = np.random.default_rng(25).standard_normal((pencil.dim, 3))
    for buf in (np.empty((pencil.dim, 3), dtype=complex),
                np.empty((3, pencil.dim), dtype=complex).T):
        Z = lu.solve(Y, out=buf)
        assert np.shares_memory(Z, buf)
        assert np.array_equal(buf, lu.solve(Y))


def test_sif_config_validation():
    with pytest.raises(ValueError):
        SIFConfig(subspace=0)
    assert SIFConfig().subspace == SUBSPACE_START
    with pytest.raises(ValueError, match="max_iters"):
        SIFConfig(subspace=4, max_iters=0)
    with pytest.raises(ValueError):
        SIFConfig(subspace=4, tol_residual=1e-2, tol_ghost=1e-4)


def test_sif_full_subspace_reproduces_dense_in_one_sweep():
    nep = time_delay2()
    import nepsolve

    nodes = nepsolve.sample_boundary(nep.region, 50)
    samples = SampleSet.from_nep(nep, nodes)
    xi = lawson(samples, DegreeSpec((10, 10, 10), 10))
    pencil = build_pencil(assemble(xi, nep))
    cfg = SIFConfig(subspace=pencil.dim, quad_order=16, seed=0, max_iters=4)
    result = sif(pencil, nep, nep.region, cfg)
    lam_sif = np.array([p.lam for p in result.eigenpairs])
    pairs = solve_pencil_dense(pencil)
    from nepsolve import extract_nep_eigenpairs

    dense = extract_nep_eigenpairs(pairs, xi.basis, nep, nep.region)
    lam_dense = np.array([p.lam for p in dense if p.in_region])
    assert result.trace[0].in_region_count == lam_dense.size
    assert lam_sif.size == lam_dense.size
    # nearest-neighbour pairing: sorting would swap a conjugate pair whose
    # real parts differ by rounding
    assert match_sets(lam_sif, lam_dense, 1e-8)


def test_sif_empty_region_converges_empty():
    rng = np.random.default_rng(58)
    P = random_poly(rng, 2, 3)
    pencil = build_pencil(P, trim=False)
    C0, C1 = pencil.materialize(force=True)
    lam = scipy.linalg.eigvals(C0, C1)
    far = complex(10 + 10j + 5 * np.max(np.abs(lam)))
    nep_like = _wrap_poly_as_nep(P)
    result = sif(pencil, nep_like, Region(far, 1.0),
                 SIFConfig(subspace=4, quad_order=8, seed=2, max_iters=6))
    assert result.converged
    assert result.eigenpairs == []


@pytest.fixture(scope="module")
def small_sparse():
    # an n=100 instance of the criterion-7 family (A tridiagonal, C and D
    # seeded sparse with 2 entries a row), 6 eigenvalues in the region, fit
    # at degree 8: a real pencil of dimension 800 with sparse coefficients
    n = 100
    rng = np.random.default_rng(1)
    A = (sp.diags(np.arange(1, n + 1).astype(complex))
         + sp.diags([0.3 * np.ones(n - 1), 0.3 * np.ones(n - 1)], [-1, 1])).tocsr()
    C = (sp.random(n, n, density=0.02, random_state=rng).tocsr() * 0.5).astype(complex)
    D = (sp.random(n, n, density=0.02, random_state=rng).tocsr() * 1e-3).astype(complex)
    nep = SplitFormNEP(
        "small_sparse", [constant(1.0), monomial(1, -1.0), exp_affine(-1.0),
                         monomial(2)],
        [A, sp.identity(n, format="csr", dtype=complex), C, D], Region(5.5 + 0j, 2.6))
    samples = SampleSet.from_nep(nep, sample_boundary(nep.region, 60))
    pencil = build_pencil(assemble(lawson(samples, DegreeSpec((8,) * 4, 8)), nep))
    return nep, pencil


def test_sif_weak_filter_does_not_stop_on_an_empty_start(small_sparse):
    # at quad_order 4 the first two sweeps see no in-region pair and no ghost;
    # the filter's trace on the random first block shows the region's mass,
    # so sif goes on and finds the 6 eigenvalues the default rule finds (to
    # the accuracy of a stop at tol_residual, not to rounding)
    nep, pencil = small_sparse
    weak = sif(pencil, nep, nep.region, SIFConfig(quad_order=4, seed=1))
    assert [(s.in_region_count, s.ghost_count) for s in weak.trace[:2]] == [(0, 0)] * 2
    assert weak.converged and len(weak.eigenpairs) == 6
    full = sif(pencil, nep, nep.region, SIFConfig(seed=1))
    assert match_sets([p.lam for p in weak.eigenpairs],
                      [p.lam for p in full.eigenpairs], 1e-5)


def test_pole_factors_never_read_superlu_l_or_u(small_sparse, monkeypatch):
    # SciPy builds CSC copies of a SuperLU factor's L and U on first access
    # and keeps them as long as the factor lives; neither sif's pole factors
    # nor refine_eigenvectors' may ask for them
    import scipy.sparse.linalg as spla

    spilu = spla.spilu
    made, touched = [], []

    class NoCopies:
        def __init__(self, lu):
            self._lu = lu

        def __getattr__(self, name):
            if name in ("L", "U"):
                touched.append(name)
                raise AssertionError(f"SuperLU.{name} read")
            return getattr(self._lu, name)

    def proxy(A, permc_spec=None, **kwargs):
        if permc_spec == "NATURAL":  # a factor, not the ordering's ILU
            made.append(None)  # list.append: the poles are factored on workers
        return NoCopies(spilu(A, permc_spec=permc_spec, **kwargs))

    monkeypatch.setattr(spla, "spilu", proxy)
    nep, pencil = small_sparse
    result = sif(pencil, nep, nep.region, SIFConfig(seed=1))
    # every E_i is sparse: k = 8, so 4 paired poles are factored
    assert result.converged and len(made) == result.factorizations == 4
    lam = np.array([p.lam for p in result.eigenpairs])
    V = refine_eigenvectors(pencil, lam, np.ones((pencil.n, lam.size)))
    assert len(made) > 4 and np.isfinite(V).all()
    assert touched == []


def test_pole_factors_reuse_the_polynomial_ordering(small_sparse, monkeypatch):
    # the sparse ordering is computed once, before the workers start; every
    # pole LU factors P(s_j) already in that order
    import scipy.sparse.linalg as spla

    spilu = spla.spilu
    specs, orderings = [], []

    def recorded(A, permc_spec=None, **kwargs):
        if permc_spec == SPARSE_ORDERING:
            orderings.append(threading.current_thread())
        else:
            specs.append(permc_spec)  # list.append: the poles are factored on workers
        return spilu(A, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(spla, "spilu", recorded)
    nep, pencil = small_sparse
    pencil.poly.__dict__.pop("ordering", None)  # a fresh cache
    result = sif(pencil, nep, nep.region, SIFConfig(seed=1))
    assert result.converged and result.factorizations == 4  # k = 8, paired
    assert specs == ["NATURAL"] * 4
    assert orderings == [threading.current_thread()]


def _wrap_poly_as_nep(P):
    # use the polynomial itself as an exact split form for residual purposes
    from nepsolve.problems import Region as R_, SplitFormNEP, constant, monomial

    n = P.n
    mats = [np.asarray(A) for A in P.mats]
    # evaluating theta_j exactly is not a builtin scalar kind; a linear
    # combination with monomials of the same span works for testing since
    # only T(lam)v enters the classification
    import nepsolve.problems as problems

    class _Poly:
        name = "poly"
        region = R_(0j, 1.0)

        def __init__(self, P):
            self.P = P
            self.matrices = mats
            self.terms = [None] * len(mats)

        @property
        def n(self):
            return self.P.n

        @property
        def s(self):
            return len(self.matrices)

        def apply(self, lam, U):
            # T(lam[k]) @ U[:, k] for each column k
            tv = self.t_values(lam)
            return sum(tv[:, j] * (A @ U) for j, A in enumerate(mats))

        def t_values(self, x):
            from nepsolve.basis import eval_basis

            return eval_basis(self.P.basis, np.atleast_1d(x))

        def norm1_terms(self):
            return np.array([np.abs(A).sum(axis=0).max() for A in mats])

    return _Poly(P)


def _record_widths(monkeypatch):
    # the column count of every block sif filters
    import nepsolve.filters as filters

    widths = []

    def recorded(pencil, rule, Y, terms):
        widths.append(Y.shape[1])
        return apply_filter(pencil, rule, Y, terms)

    monkeypatch.setattr(filters, "apply_filter", recorded)
    return widths


def test_sif_default_width_capped_at_small_dim(monkeypatch):
    # every eigenvalue of a dim-12 pencil is in the region, so the growth rule
    # asks for 12 + 8 columns; the block never gets more than dim
    rng = np.random.default_rng(61)
    P = random_poly(rng, 3, 4)
    pencil = build_pencil(P, trim=False)
    lam = solve_dense(*pencil.materialize(force=True))
    center = complex(lam.mean())
    region = Region(center, 2.0 * np.abs(lam - center).max())
    widths = _record_widths(monkeypatch)
    result = sif(pencil, _wrap_poly_as_nep(P), region, SIFConfig(seed=1, max_iters=4))
    assert pencil.dim == 12 < SUBSPACE_START
    assert widths and max(widths) <= pencil.dim
    assert result.subspace == pencil.dim


INNER = 0.3 * np.exp(2j * np.pi * np.arange(10) / 10)


def _planted_inner_problem():
    # x I - A with 10 eigenvalues well inside Region(0, 0.5) and 30 far outside
    rng = np.random.default_rng(63)
    outer = (3 + 2 * rng.random(30)) * np.exp(2j * np.pi * rng.random(30))
    Q = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    A = Q @ np.diag(np.concatenate([INNER, outer])) @ np.linalg.inv(Q)
    basis = build_basis(np.exp(2j * np.pi * np.arange(9) / 9), 1)
    theta0 = basis.Q[0, 0]
    return coeff_poly([(basis.H[0, 0] * np.eye(40) - A) / theta0,
                       basis.H[1, 0] * np.eye(40) / theta0], basis)


def test_sif_grows_to_rule_width():
    # the planted problem's 10 inner eigenvalues: 16 columns would do, but the
    # rule asks for max(15, 18) = 18, and the block has them when the
    # iteration stops
    P = _planted_inner_problem()
    pencil = build_pencil(P)
    result = sif(pencil, _wrap_poly_as_nep(P), Region(0j, 0.5), SIFConfig(seed=3))
    assert result.converged
    assert result.subspace == 18
    assert match_sets([p.lam for p in result.eigenpairs], INNER, 1e-8)


def test_sif_explicit_width_is_only_a_start(time_delay_bundle, monkeypatch):
    # 5 in-region eigenvalues: the growth rule asks for 13 columns, so a
    # 12-column start grows, and finds what the default start finds
    b = time_delay_bundle
    widths = _record_widths(monkeypatch)
    result = sif(b.pencil, b.nep, b.nep.region, SIFConfig(subspace=12, seed=7))
    assert result.converged
    assert widths[0] == 12 and result.subspace == 13
    widths.clear()
    grown = sif(b.pencil, b.nep, b.nep.region, SIFConfig(seed=7))
    assert widths[0] == SUBSPACE_START == grown.subspace
    assert match_sets([p.lam for p in grown.eigenpairs],
                      [p.lam for p in result.eigenpairs], 1e-8)


def test_sif_silent_on_a_rise_below_tol_residual():
    # the same 10 pairs rise at iteration 2, but stay below tol_residual: the
    # converged check comes first, so that is no stall
    result = _planted_sif([1e-5, 2e-5])
    trace = result.trace
    assert [step.in_region_count for step in trace] == [10, 10]
    assert trace[0].max_sigma < trace[1].max_sigma < SIFConfig().tol_residual
    assert result.stop_reason == "converged" and result.iterations == 2


def _planted_sif(sweeps):
    # sif on the planted problem from a width of 10 for 3 sweeps; sweep
    # i's residual call gives every in-region pair the scale-free residual
    # sweeps[i] (a scalar, or one value per pair), and later calls, such as
    # extraction's, see the true residual
    P = _planted_inner_problem()
    nep = _wrap_poly_as_nep(P)
    nep.region = Region(0j, 0.5)
    planted = iter(sweeps)
    apply = nep.apply

    def residual(lam, U):
        sigma = next(planted, None)
        if sigma is None:
            return apply(lam, U)
        return U * (abs(nep.region.center) + nep.region.radius) * np.asarray(sigma)

    nep.apply = residual
    return sif(build_pencil(P), nep, nep.region,
               SIFConfig(subspace=10, seed=3, max_iters=3))


def test_sif_stalls_on_a_rise_at_a_stable_count():
    # the same 10 pairs above tol_residual got no closer at iteration 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = _planted_sif([5e-3, 2e-3, 4e-3])
    assert [step.in_region_count for step in result.trace] == [10, 10, 10]
    assert result.trace[2].max_sigma >= SIFConfig().tol_residual
    assert result.stop_reason == "stalled" and not result.converged
    assert result.iterations == 3


def test_sif_silent_on_a_rise_over_a_changed_count():
    # iteration 2 plants one ghost, so iteration 3 compares 10 pairs with 9
    result = _planted_sif([5e-3, np.r_[0.5, np.full(9, 2e-3)], 4e-3])
    trace = result.trace
    assert [step.in_region_count for step in trace] == [10, 9, 10]
    assert trace[2].max_sigma > trace[1].max_sigma >= SIFConfig().tol_residual
    assert result.stop_reason == "budget" and result.iterations == 3


def test_sif_deterministic_under_seed(time_delay_bundle):
    b = time_delay_bundle
    cfg = SIFConfig(subspace=12, quad_order=16, seed=7)
    r1 = sif(b.pencil, b.nep, b.nep.region, cfg)
    r2 = sif(b.pencil, b.nep, b.nep.region, cfg)
    lam1 = [p.lam for p in r1.eigenpairs]
    lam2 = [p.lam for p in r2.eigenpairs]
    assert lam1 == lam2
    assert r1.trace == r2.trace


def test_sif_trace_sigmas():
    rng = np.random.default_rng(59)
    P = random_poly(rng, 2, 3)
    pencil = build_pencil(P, trim=False)
    nep_like = _wrap_poly_as_nep(P)
    lam0 = solve_dense(*pencil.materialize())[0]
    # an empty region gives nan sigmas; one around an eigenvalue finite ones
    empty, around = (sif(pencil, nep_like, region,
                         SIFConfig(subspace=3, quad_order=8, seed=0, max_iters=3))
                     for region in (Region(100.0 + 0j, 1.0), Region(lam0, 0.3)))
    assert empty.trace and all(np.isnan(step.max_sigma) and np.isnan(step.min_sigma)
                               for step in empty.trace)
    assert np.isfinite(around.trace[-1].max_sigma)
