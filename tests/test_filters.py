"""Quadrature rule, rational filter, structured solves, and subspace iteration."""

import dataclasses
import io
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from nepsolve import (DegreeSpec, MatrixPolynomial, PoleHitError, Region,
                      SampleSet, SIFConfig, apply_filter, build_basis,
                      build_pencil, lawson, quadrature,
                      scalar_filter, shift_invert, sif, solve_dense,
                      solve_pencil_dense, time_delay2, write_trace_csv)
from nepsolve.filters import SUBSPACE_START, _factor_poles, default_shift
from nepsolve.pencil import BlockLU, assemble
from util import match_sets, random_poly


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
    mu = complex(default_shift(nep.region))
    rng = np.random.default_rng(53)
    Y = rng.standard_normal((pencil.dim, 4)) + 1j * rng.standard_normal((pencil.dim, 4))
    Z = shift_invert(pencil, mu, Y)
    Zd = np.linalg.solve(mu * C1 - C0, C1 @ Y)
    assert np.linalg.norm(Z - Zd) <= 1e-9 * np.linalg.norm(Zd)


def test_shift_invert_rejects_mismatched_factorization():
    rng = np.random.default_rng(54)
    P = random_poly(rng, 2, 2)
    pencil = build_pencil(P, trim=False)
    lu = BlockLU(pencil, 1.0 + 1.0j)
    with pytest.raises(ValueError):
        shift_invert(pencil, 2.0, np.zeros(pencil.dim), lu=lu)


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
    Z = apply_filter(pencil, rule, Y)
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
    pencil = build_pencil(MatrixPolynomial(coeffs, basis))
    rule = quadrature(0.0, 0.5, 32)
    Y = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    Z = apply_filter(pencil, rule, Y)
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
    Z = apply_filter(pencil, rule, Y)
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
    Z = apply_filter(pencil, rule, y)
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
    P = MatrixPolynomial([rng.standard_normal((n, n)) for _ in range(gamma + 1)],
                         basis)
    rule = quadrature(draw(st.floats(-1.0, 1.0)), draw(st.floats(0.2, 2.0)),
                      draw(st.integers(1, 20)))
    Y = rng.standard_normal((gamma * n, 2))
    if draw(st.booleans()):
        Y = Y + 1j * rng.standard_normal((gamma * n, 2))
    return P, rule, Y


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
    lus = _factor_poles(pencil, rule)
    assert len(lus) == (rule.k + 1) // 2
    Z = apply_filter(pencil, rule, Y, lus=lus)
    terms = [g * BlockLU(pencil, s).solve(Y) for g, s in zip(rule.weights, rule.poles)]
    assert np.iscomplexobj(Z) == np.iscomplexobj(Y)
    assert np.linalg.norm(Z - sum(terms)) <= 1e-12 * max(np.linalg.norm(t) for t in terms)


def test_paired_filter_rejects_one_factorization_per_pole(time_delay_bundle):
    pencil = time_delay_bundle.pencil
    rule = quadrature(-1.0, 6.0, 4)
    with pytest.raises(ValueError, match="upper-half pole"):
        apply_filter(pencil, rule, np.ones(pencil.dim),
                     lus=[BlockLU(pencil, s) for s in rule.poles])


def _count_factorizations(monkeypatch):
    count = [0]
    init = BlockLU.__init__

    def counted(self, *args):
        count[0] += 1
        init(self, *args)

    monkeypatch.setattr(BlockLU, "__init__", counted)
    return count


@pytest.mark.parametrize("k", [7, 16])
def test_sif_factors_half_the_poles_on_a_real_pencil_with_a_real_center(
        k, time_delay_bundle, example1_bundle, monkeypatch):
    count = _count_factorizations(monkeypatch)
    config = SIFConfig(subspace=8, quad_order=k, max_iters=1)
    b = time_delay_bundle
    assert b.pencil.is_real and b.nep.region.center.imag == 0
    off_axis = Region(b.nep.region.center + 0.5j, b.nep.region.radius)
    e = example1_bundle
    assert not e.pencil.is_real
    for pencil, nep, region, want in [(b.pencil, b.nep, b.nep.region, (k + 1) // 2),
                                      (b.pencil, b.nep, off_axis, k),
                                      (e.pencil, e.nep, e.nep.region, k)]:
        count[0] = 0
        sif(pencil, nep, region, config)
        assert count[0] == want


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


def _wrap_poly_as_nep(P):
    # use the polynomial itself as an exact split form for residual purposes
    from nepsolve.problems import Region as R_, SplitFormNEP, constant, monomial

    n = P.n
    mats = [np.asarray(A) for A in P.coeffs]
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
            # T(lam) @ U, or T(lam[k]) @ U[:, k] per column for an array lam
            tv = self.t_values(lam)
            if np.ndim(lam) == 0:
                tv = tv[0]
            return sum(tv[..., j] * (A @ U) for j, A in enumerate(mats))

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

    def recorded(pencil, rule, Y, lus=None):
        widths.append(Y.shape[1])
        return apply_filter(pencil, rule, Y, lus=lus)

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
    return MatrixPolynomial([(basis.H[0, 0] * np.eye(40) - A) / theta0,
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


def test_sif_silent_on_a_rise_below_tol_residual(time_delay_bundle):
    # with this seed a ghost at iteration 2 forces a third sweep, where the
    # in-region residual rises by rounding at the same count, far below
    # tol_residual; that is no divergence, so no warning (which the suite's
    # filterwarnings would turn into a failure)
    b = time_delay_bundle
    config = SIFConfig(seed=6)
    result = sif(b.pencil, b.nep, b.nep.region, config)
    assert result.converged
    sigmas = [step.max_sigma for step in result.trace]
    assert sigmas[2] > sigmas[1] * (1 + 1e-8)
    assert result.trace[2].in_region_count == result.trace[1].in_region_count
    assert max(sigmas[1:]) < config.tol_residual


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


def test_sif_warns_on_a_rise_at_a_stable_count():
    with pytest.warns(UserWarning, match="increased at iteration 3"):
        result = _planted_sif([5e-3, 2e-3, 4e-3])
    assert [step.in_region_count for step in result.trace] == [10, 10, 10]
    assert result.trace[2].max_sigma >= SIFConfig().tol_residual


def test_sif_silent_on_a_rise_over_a_changed_count():
    # iteration 2 plants one ghost, so iteration 3 compares 10 pairs with 9
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = _planted_sif([5e-3, np.r_[0.5, np.full(9, 2e-3)], 4e-3])
    trace = result.trace
    assert [step.in_region_count for step in trace] == [10, 9, 10]
    assert trace[2].max_sigma > trace[1].max_sigma >= SIFConfig().tol_residual


def test_sif_deterministic_under_seed(time_delay_bundle):
    b = time_delay_bundle
    cfg = SIFConfig(subspace=12, quad_order=16, seed=7)
    r1 = sif(b.pencil, b.nep, b.nep.region, cfg)
    r2 = sif(b.pencil, b.nep, b.nep.region, cfg)
    lam1 = [p.lam for p in r1.eigenpairs]
    lam2 = [p.lam for p in r2.eigenpairs]
    assert lam1 == lam2
    assert r1.trace == r2.trace


def test_sif_trace_csv():
    rng = np.random.default_rng(59)
    P = random_poly(rng, 2, 3)
    pencil = build_pencil(P, trim=False)
    nep_like = _wrap_poly_as_nep(P)
    lam0 = solve_dense(*pencil.materialize())[0]
    # an empty region gives nan sigmas; one around an eigenvalue finite ones
    for region in (Region(100.0 + 0j, 1.0), Region(lam0, 0.3)):
        result = sif(pencil, nep_like, region,
                     SIFConfig(subspace=3, quad_order=8, seed=0, max_iters=3))
        buf = io.StringIO()
        write_trace_csv(result.trace, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "iter,in_region_count,ghost_count,max_sigma,min_sigma"
        assert len(lines) == len(result.trace) + 1
        for line, step in zip(lines[1:], result.trace):
            row = line.split(",")
            assert [int(x) for x in row[:3]] == \
                [step.iteration, step.in_region_count, step.ghost_count]
            for got, want in zip(row[3:], (step.max_sigma, step.min_sigma)):
                assert float(got) == want or (np.isnan(float(got)) and np.isnan(want))
    assert np.isfinite(result.trace[-1].max_sigma)
