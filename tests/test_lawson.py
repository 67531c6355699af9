"""Dual objective, reweighting iteration, and approximant evaluation tests."""

import dataclasses
import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nepsolve import (DegreeSpec, PoleEvaluationError, RankDeficiencyError,
                      RationalApproximant, SampleSet, build_basis, dual_value,
                      eval_basis, evaluate_approximant, example1, hadeler,
                      lawson, max_error, sample_boundary, time_delay2)
from nepsolve.lawson import WEIGHT_TOL
from nepsolve.problems import Region
from util import dual_oracle, eval_monomial, monomial_coeffs, random_nodes

# the package attribute ``nepsolve.lawson`` is the function, not the module
lawson_module = importlib.import_module("nepsolve.lawson")


def random_problem(rng, m=None, s=None, nmax=4):
    m = m or int(rng.integers(18, 36))
    s = s or int(rng.integers(1, 4))
    n = int(rng.integers(1, nmax + 1))
    d = int(rng.integers(0, n + 1))
    nodes = random_nodes(rng, m, radius=rng.uniform(0.5, 2.0))
    values = rng.standard_normal((m, s)) + 1j * rng.standard_normal((m, s))
    return SampleSet(nodes, values), DegreeSpec((n,) * s, d)


def random_simplex(rng, m):
    w = rng.uniform(0.05, 1.0, m)
    return w / w.sum()


def test_dual_value_zero_for_exact_interpolation():
    nodes = random_nodes(None, 12, on_circle=True)
    samples = SampleSet(nodes, np.column_stack([np.ones(12), nodes]))
    spec = DegreeSpec((1, 1), 0)
    basis = build_basis(nodes, 1)
    w = np.full(12, 1 / 12)
    res = dual_value(samples, w, spec, basis)
    assert res.d_value < 1e-24


def test_dual_value_matches_dense_hermitian_oracle():
    rng = np.random.default_rng(10)
    for _ in range(15):
        samples, spec = random_problem(rng)
        basis = build_basis(samples.nodes, spec.max_degree)
        w = random_simplex(rng, samples.m)
        res = dual_value(samples, w, spec, basis)
        ref = dual_oracle(samples, w, spec, basis)
        assert res.d_value == pytest.approx(ref, rel=1e-10, abs=1e-14)


@st.composite
def _dual_case(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    s = draw(st.integers(1, 4))
    spec = DegreeSpec(draw(st.lists(st.integers(0, 6), min_size=s, max_size=s)),
                      draw(st.integers(0, 6)))
    top = spec.max_degree
    m = draw(st.integers(top + 1, top + 20))
    nodes = random_nodes(rng, m, radius=rng.uniform(0.5, 2.0))
    values = rng.standard_normal((m, s))
    if draw(st.booleans()):
        values = values + 1j * rng.standard_normal((m, s))
    w = rng.uniform(0.05, 1.0, m)
    # up to all but top + 1 nodes sit just above the drop threshold
    tiny = rng.choice(m, draw(st.integers(0, m - top - 1)), replace=False)
    w[tiny] = WEIGHT_TOL * rng.uniform(1.0, 10.0, tiny.size)
    w /= w.sum()
    basis = build_basis(nodes, top, weights=w if draw(st.booleans()) else None)
    return SampleSet(nodes, values), spec, w, basis


@settings(max_examples=200, deadline=None)
@given(_dual_case())
def test_dual_value_matches_the_full_svd_of_g(case):
    # the smallest singular pair comes from the R factor of G; a thin SVD of
    # G itself, from the same QR factors, is the oracle
    samples, spec, w, basis = case
    res = dual_value(samples, w, spec, basis)
    values, sqw = samples.values, np.sqrt(w)
    Qq, Rq = np.linalg.qr(sqw[:, None] * basis.Q[:, : spec.denominator + 1])
    Qp = [np.linalg.qr(sqw[:, None] * basis.Q[:, : n + 1])[0] for n in spec.numerator]
    G = np.vstack([values[:, i, None] * Qq - P @ (P.conj().T @ (values[:, i, None] * Qq))
                   for i, P in enumerate(Qp)])
    _, sigma, Vh = np.linalg.svd(G, full_matrices=False)
    assert res.d_value == pytest.approx(sigma[-1] ** 2, rel=1e-10, abs=1e-14 * sigma[0] ** 2)

    # the vector is defined up to a phase, and only where sigma_min is simple;
    # a singular vector is determined to about eps / gap, so the tolerance
    # widens by 1e-12 / gap as the gap nears its threshold
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = (sigma[-2] - sigma[-1]) / sigma[0] if sigma.size > 1 else np.inf
    if not gap > 1e-6:
        return
    tol = 1e-10 + 1e-12 / gap
    bhat = Vh[-1].conj()
    b_ref = np.linalg.solve(Rq, bhat)
    phase = np.vdot(b_ref, res.denom_coeffs)
    phase /= abs(phase)
    assert (np.linalg.norm(res.denom_coeffs - phase * b_ref)
            <= tol * np.linalg.norm(b_ref))
    q = Qq @ bhat
    nv_ref = np.column_stack([P @ (P.conj().T @ (values[:, i] * q)) / q
                              for i, P in enumerate(Qp)])
    assert np.linalg.norm(res.node_values - nv_ref) <= tol * np.linalg.norm(nv_ref)


def test_dual_value_runs_the_svd_on_a_square_matrix(monkeypatch):
    svd, shapes = np.linalg.svd, []

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(lawson_module.np.linalg, "svd", recording_svd)
    nep, k = example1(), 12
    samples = SampleSet.from_nep(nep, sample_boundary(nep.region, 100))
    xi = lawson(samples, DegreeSpec((k,) * nep.s, k), max_iters=20)
    assert shapes and len(shapes) == xi.iterations
    assert set(shapes) == {(k + 1, k + 1)}


def test_dual_value_weak_duality_against_assembled_fit():
    rng = np.random.default_rng(11)
    for _ in range(10):
        samples, spec = random_problem(rng)
        basis = build_basis(samples.nodes, spec.max_degree)
        w = random_simplex(rng, samples.m)
        res = dual_value(samples, w, spec, basis)
        xi = RationalApproximant(
            numer_coeffs=res.numer_coeffs, denom_coeffs=res.denom_coeffs,
            degrees=spec, basis=basis, e_max=np.nan, gap=np.nan,
            stop_reason="budget", trace=(),
            active_index=np.arange(samples.m), weights=w)
        e = max_error(samples, xi)
        assert res.d_value <= e + 1e-12 * (1 + e)


def test_rank_deficiency_reported():
    nodes = random_nodes(None, 10, on_circle=True)
    samples = SampleSet(nodes, np.ones((10, 1)))
    basis = build_basis(nodes, 2)
    w = np.zeros(10)
    w[0] = 1.0  # a single supported node cannot carry three columns
    with pytest.raises(RankDeficiencyError):
        dual_value(samples, w, DegreeSpec((2,), 2), basis)


def test_lawson_weak_duality_and_simplex_every_iterate():
    rng = np.random.default_rng(12)
    for _ in range(10):
        samples, spec = random_problem(rng)
        xi = lawson(samples, spec, max_iters=25)
        for step in xi.trace:
            assert step.d_w <= step.e_xi * (1 + 1e-10)
        assert abs(xi.weights.sum() - 1) <= 1e-14
        assert np.all(xi.weights >= 0)


def test_lawson_trace_deterministic():
    rng = np.random.default_rng(13)
    samples, spec = random_problem(rng)
    a = lawson(samples, spec, max_iters=20)
    b = lawson(samples, spec, max_iters=20)
    assert a.trace == b.trace
    assert np.array_equal(a.denom_coeffs, b.denom_coeffs)


def test_weight_update_rule_preserves_simplex():
    rng = np.random.default_rng(14)
    samples, spec = random_problem(rng)
    basis = build_basis(samples.nodes, spec.max_degree)
    w = np.full(samples.m, 1.0 / samples.m)
    for _ in range(8):
        got = dual_value(samples, w, spec, basis).node_values
        errn = np.linalg.norm(samples.values - got, axis=1)
        w = w * errn
        w = w / w.sum()
        assert abs(w.sum() - 1.0) <= 1e-14
        assert w.min() >= 0.0


def test_node_error_at_retained_nodes_bounded_by_e_max():
    rng = np.random.default_rng(15)
    samples, spec = random_problem(rng)
    xi = lawson(samples, spec, max_iters=30)
    sub = SampleSet(samples.nodes[xi.active_index],
                    samples.values[xi.active_index])
    err = np.linalg.norm(sub.values - evaluate_approximant(xi, sub.nodes), axis=1)
    assert err.max() ** 2 <= xi.e_max * (1 + 1e-8) + 1e-15


def test_basis_rebuilt_every_rebasis_sweeps_and_on_node_drops(monkeypatch):
    build = lawson_module.build_basis
    dual = lawson_module.dual_value
    built, sweeps = [], []

    def counted_build(nodes, degree, weights=None):
        built.append(len(sweeps))
        return build(nodes, degree, weights=weights)

    def counted_dual(samples, w, spec, basis):
        sweeps.append(basis)
        assert np.array_equal(basis.nodes, samples.nodes)
        return dual(samples, w, spec, basis)

    monkeypatch.setattr(lawson_module, "build_basis", counted_build)
    monkeypatch.setattr(lawson_module, "dual_value", counted_dual)
    samples, spec = random_problem(np.random.default_rng(22))
    xi = lawson(samples, spec, tol=1e-300, max_iters=40)
    drops = {step.iteration for prev, step in zip(xi.trace, xi.trace[1:])
             if step.active_nodes < prev.active_nodes}
    assert drops - set(range(0, 40, lawson_module.REBASIS_EVERY))
    assert built == sorted(
        drops | set(range(0, 40, lawson_module.REBASIS_EVERY)))
    best = min(range(40), key=lambda it: xi.trace[it].e_xi)
    assert xi.basis is sweeps[best]


@pytest.mark.parametrize("problem, m, k, target", [
    (example1, 100, 28, 1e-10),
    (time_delay2, 50, 10, 1e-7),
    (lambda: hadeler(100), 50, 6, 1e-10),
])
def test_reported_fit_error_holds_off_the_sweep_basis(problem, m, k, target):
    # the fit is the best sweep's own, not re-extracted: its coefficients,
    # evaluated through the recurrence on every sample node, still give the
    # error the sweep measured, and it meets the escalation's target
    nep = problem()
    samples = SampleSet.from_nep(nep, sample_boundary(nep.region, m))
    xi = lawson(samples, DegreeSpec((k,) * nep.s, k))
    measured = np.sqrt(max_error(samples, xi))
    assert measured == pytest.approx(np.sqrt(xi.e_max), rel=0.05)
    assert measured < target


def test_constant_denominator_matches_polynomial_oracle():
    rng = np.random.default_rng(16)
    nodes = random_nodes(rng, 24, radius=1.0)
    values = np.exp(nodes)[:, None]
    samples = SampleSet(nodes, values)
    xi = lawson(samples, DegreeSpec((5,), 0), max_iters=40)
    # denominator is a constant, so the fit is a plain polynomial numerator
    C = monomial_coeffs(xi.basis)
    mono = C[:, :6] @ xi.numer_coeffs[0] / (C[0, :1] @ xi.denom_coeffs)
    probes = random_nodes(rng, 6, radius=0.8)
    ref = eval_monomial(mono, probes)
    got = evaluate_approximant(xi, probes)[:, 0]
    assert np.abs(got - ref).max() <= 1e-9 * max(1.0, np.abs(ref).max())


def test_coefficient_scaling_invariance():
    rng = np.random.default_rng(17)
    samples, spec = random_problem(rng)
    xi = lawson(samples, spec, max_iters=10)
    c = 2.3 - 0.7j
    scaled = dataclasses.replace(
        xi, numer_coeffs=tuple(c * a for a in xi.numer_coeffs),
        denom_coeffs=c * xi.denom_coeffs)
    probes = random_nodes(rng, 5, radius=1.0)
    assert np.allclose(evaluate_approximant(xi, probes),
                       evaluate_approximant(scaled, probes), rtol=1e-12, atol=1e-14)


def test_max_error_exact_interpolant_is_zero():
    nodes = random_nodes(None, 10, on_circle=True)
    samples = SampleSet(nodes, np.column_stack([np.ones(10), nodes]))
    xi = lawson(samples, DegreeSpec((1, 1), 0), max_iters=5)
    assert xi.stop_reason == "interp_floor" and xi.converged
    assert xi.e_max <= 1e-24
    assert max_error(samples, xi) <= 1e-24


def test_max_error_of_zero_fit_is_s():
    nodes = random_nodes(None, 8, on_circle=True)
    s = 3
    samples = SampleSet(nodes, np.ones((8, s)))
    basis = build_basis(nodes, 1)
    xi = RationalApproximant(
        numer_coeffs=tuple(np.zeros(2, dtype=complex) for _ in range(s)),
        denom_coeffs=np.array([1.0, 0.0], dtype=complex),
        degrees=DegreeSpec((1,) * s, 1), basis=basis, e_max=np.nan,
        gap=np.nan, stop_reason="budget", trace=(),
        active_index=np.arange(8), weights=np.full(8, 1 / 8))
    assert max_error(samples, xi) == pytest.approx(s, rel=1e-12)


def test_max_error_matches_bruteforce_loop():
    rng = np.random.default_rng(18)
    samples, spec = random_problem(rng)
    xi = lawson(samples, spec, max_iters=10)
    vals = evaluate_approximant(xi, samples.nodes)
    brute = max(np.linalg.norm(samples.values[l] - vals[l]) ** 2
                for l in range(samples.m))
    assert max_error(samples, xi) == pytest.approx(brute, rel=1e-14)


def test_pole_hit_reports_points():
    nodes = np.linspace(-1.0, 1.0, 9)
    samples = SampleSet(nodes, np.exp(nodes)[:, None])
    xi = lawson(samples, DegreeSpec((2,), 1), max_iters=5)
    theta = eval_basis(xi.basis, [0.3])[0]
    rigged = dataclasses.replace(
        xi, denom_coeffs=np.array([-theta[1], theta[0]]))
    with pytest.raises(PoleEvaluationError) as err:
        evaluate_approximant(rigged, np.array([0.3, 0.5]))
    assert 0.3 in [complex(p).real for p in err.value.points]


def test_nonconvergence_is_flagged_not_raised():
    rng = np.random.default_rng(19)
    samples, spec = random_problem(rng)
    xi = lawson(samples, spec, tol=1e-300, max_iters=3)
    assert not xi.converged
    assert xi.stop_reason == "budget"
    assert xi.iterations == 3
    assert xi.gap > 0


@pytest.mark.parametrize("margin", [0, lawson_module.UNREACHABLE_MARGIN])
def test_give_up_only_when_target_is_out_of_reach(monkeypatch, margin):
    # weak duality makes the rule sound even without the rounding margin (at
    # 0 it gives up once the dual bound clears the target itself): a
    # fit given up as unreachable could not have met its target in full, and
    # up to the give-up it ran the same sweeps as the full fit
    monkeypatch.setattr(lawson_module, "UNREACHABLE_MARGIN", margin)
    rng = np.random.default_rng(21)
    gave_up = kept = 0
    for _ in range(6):
        samples, spec = random_problem(rng)
        full = lawson(samples, spec)
        assert full.stop_reason != "unreachable"
        best = np.sqrt(full.e_max)
        for t in best * np.array([1e-8, 1e-3, 0.5, 0.99, 1.0001, 3.0]):
            xi = lawson(samples, spec, target=t)
            assert xi.trace == full.trace[:xi.iterations]
            if xi.stop_reason == "unreachable":
                gave_up += 1
                assert best >= t
                # a fit given up keeps its best sweep as it was, unextracted
                assert xi.e_max == min(step.e_xi for step in xi.trace)
            if best < t:
                # a fit that meets the target in full is never given up
                kept += 1
                assert xi.stop_reason == full.stop_reason
                assert xi.trace == full.trace
                assert xi.e_max == full.e_max
    assert gave_up > 0 and kept > 0


def _symmetric_samples(nep, m):
    return SampleSet.from_nep(nep, sample_boundary(nep.region, m))


def test_conj_pair_detection():
    samples = _symmetric_samples(time_delay2(), 50)
    pair = samples.conj_pair
    # nodes 0 and 25 lie on the real axis and pair with themselves
    assert pair.tolist() == [(-l) % 50 for l in range(50)]
    assert np.abs(samples.nodes[pair] - samples.nodes.conj()).max() < 1e-13
    # exp(i x^2) is not conjugate-symmetric
    assert _symmetric_samples(example1(), 100).conj_pair is None
    # half-disks and off-axis centers have no conjugate node set
    nep = time_delay2()
    for region in (Region(-1.0, 6.0, half_disk=True), Region(-1.0 + 0.5j, 6.0)):
        nodes = sample_boundary(region, 50)
        assert SampleSet.from_nep(nep, nodes).conj_pair is None
    # a node or a value moved well beyond rounding breaks the pairing
    nodes, values = samples.nodes.copy(), samples.values.copy()
    nodes[3] += 1e-10
    assert SampleSet(nodes, samples.values).conj_pair is None
    values[3, 1] *= 1 + 1e-10
    assert SampleSet(samples.nodes, values).conj_pair is None


@pytest.mark.parametrize("nep, m, k", [(time_delay2(), 50, 10),
                                       (hadeler(30), 50, 6)])
def test_lawson_symmetric_samples_give_real_fit(nep, m, k):
    samples = _symmetric_samples(nep, m)
    pair = samples.conj_pair
    xi = lawson(samples, DegreeSpec((k,) * nep.s, k))
    w = np.zeros(samples.m)
    w[xi.active_index] = xi.weights
    # the weights stay exactly pair-symmetric, so pairs drop together
    np.testing.assert_array_equal(w, w[pair])
    assert not np.iscomplexobj(xi.denom_coeffs)
    assert not any(np.iscomplexobj(a) for a in xi.numer_coeffs)
    assert not np.iscomplexobj(xi.basis.H) and not np.iscomplexobj(xi.basis.k)
    # the error is the real fit's own, measured on the active nodes
    active = SampleSet(samples.nodes[xi.active_index],
                       samples.values[xi.active_index])
    assert xi.e_max == max_error(active, xi)
    best = min(xi.trace, key=lambda step: step.e_xi)
    assert xi.gap == abs(xi.e_max - best.d_w) / xi.e_max
    assert xi.e_max == pytest.approx(best.e_xi, rel=1e-3)


# eight nodes on the unit circle, sampled from t = [x, x^2]
NODES = np.exp(2j * np.pi * np.arange(8) / 8)
SAMPLES = SampleSet(NODES, np.column_stack([NODES, NODES ** 2]))
W = np.full(8, 1 / 8)
SPEC = DegreeSpec((2, 2), 2)


def _short_basis():
    # a degree-2 basis whose Q has the 2 rows of 2 nodes: 3 coefficients on 2 nodes
    return dataclasses.replace(build_basis(NODES[:2], 1), degree=2)


@pytest.mark.parametrize("call, error, message", [
    (lambda: dual_value(SAMPLES, -W, SPEC, build_basis(NODES, 2)), ValueError,
     "weights must be nonnegative"),
    (lambda: dual_value(SAMPLES, W[:7], SPEC, build_basis(NODES, 2)), ValueError,
     "weights, samples, and basis rows must agree in length"),
    (lambda: dual_value(SAMPLES, W, DegreeSpec((2,), 2), build_basis(NODES, 2)),
     ValueError, "degree spec has 1 components, samples have 2"),
    (lambda: dual_value(SAMPLES, W, DegreeSpec((3, 3), 3), build_basis(NODES, 2)),
     ValueError, "basis degree is below the requested rational type"),
    (lambda: dual_value(SampleSet(NODES[:2], SAMPLES.values[:2]), W[:2], SPEC,
                        _short_basis()),
     RankDeficiencyError, "2 active nodes cannot support 3 coefficients"),
    (lambda: lawson(SAMPLES, SPEC, tol=0.0), ValueError, "tol must be positive"),
    (lambda: lawson(SAMPLES, SPEC, max_iters=0), ValueError, "max_iters at least 1"),
    (lambda: lawson(SAMPLES, DegreeSpec((1, 1), 1), basis=build_basis(NODES, 2)),
     ValueError, "basis degree 2 is not 1"),
    (lambda: DegreeSpec((2, -1), 2), ValueError, "degrees must be nonnegative"),
    (lambda: DegreeSpec((2, 2), -1), ValueError, "degrees must be nonnegative"),
    (lambda: SampleSet(NODES, SAMPLES.values[:7]), ValueError,
     "values must have one row per node"),
    (lambda: SampleSet(NODES, np.where(np.arange(8)[:, None] == 3, [0, np.nan], 1)),
     ValueError, r"term t2 is not finite at node 3, x = "),
], ids=["dual_negative_weight", "dual_length", "dual_components", "dual_basis_degree",
        "dual_too_few_nodes", "lawson_tol", "lawson_max_iters", "lawson_basis_degree",
        "negative_numerator_degree", "negative_denominator_degree", "sample_rows",
        "sample_not_finite"])
def test_bad_arguments_are_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_a_target_near_the_float_limit_never_gives_up():
    # the give-up level (target + margin)**2 overflows to inf, without a
    # warning (the suite turns warnings into errors), and the fit is the one
    # without a target
    far, plain = lawson(SAMPLES, SPEC, target=1e300), lawson(SAMPLES, SPEC)
    assert far.trace == plain.trace and far.stop_reason == plain.stop_reason


def test_too_few_nodes_rejected():
    nodes = random_nodes(None, 6, on_circle=True)
    samples = SampleSet(nodes, np.ones((6, 1)))
    with pytest.raises(ValueError, match="nodes"):
        lawson(samples, DegreeSpec((3,), 3))
