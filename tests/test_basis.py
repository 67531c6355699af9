"""Basis construction, recurrence, evaluation, and leading-coefficient tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nepsolve import BreakdownError, build_basis, eval_basis, leading_coeffs
from util import eval_monomial, monomial_coeffs, random_nodes


def recurrence_residual(basis):
    # column-wise residual of x*theta_j = sum_i H[i,j] theta_i at the nodes
    gamma = basis.degree
    lhs = basis.nodes[:, None] * basis.Q[:, :gamma]
    return np.abs(lhs - basis.Q @ basis.H).max()


def test_degree_zero_is_constant_column():
    nodes = random_nodes(np.random.default_rng(0), 7, radius=2.0)
    b = build_basis(nodes, 0)
    assert b.Q.shape == (7, 1)
    assert np.allclose(b.Q[:, 0], b.Q[0, 0])
    assert b.H.shape == (1, 0)
    assert np.array_equal(b.k, np.array([1.0 + 0j]))


def test_real_nodes_give_tridiagonal_H():
    nodes = np.linspace(-1, 1, 20)
    b = build_basis(nodes, 5)
    scale = np.linalg.norm(b.H)
    # Hessenberg structure: nothing below the first subdiagonal
    for j in range(5):
        assert np.abs(b.H[j + 2:, j]).max(initial=0.0) == 0.0
    # real nodes: nothing above the first superdiagonal either
    off = max((np.abs(b.H[i, j]) for j in range(5) for i in range(j - 1)),
              default=0.0)
    assert off < 1e-12 * scale


def test_collinear_complex_nodes_give_tridiagonal_H():
    rng = np.random.default_rng(5)
    t = np.sort(rng.uniform(-1, 1, 24))
    nodes = (1 + 2j) + t * np.exp(1j * 0.7)  # points on a line in C
    b = build_basis(nodes, 6)
    off = max((np.abs(b.H[i, j]) for j in range(6) for i in range(j - 1)),
              default=0.0)
    assert off / np.linalg.norm(b.H) < 1e-10


def test_circle_basis_matches_monomial_oracle():
    nodes = random_nodes(None, 30, on_circle=True)
    b = build_basis(nodes, 4)
    C = monomial_coeffs(b)
    rng = np.random.default_rng(1)
    probes = random_nodes(rng, 10, radius=1.0)
    P = eval_basis(b, probes)
    for j in range(5):
        ref = eval_monomial(C[:, j], probes)
        assert np.abs(P[:, j] - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())


def test_eval_at_own_nodes_reproduces_Q():
    rng = np.random.default_rng(2)
    nodes = random_nodes(rng, 25, radius=3.0)
    b = build_basis(nodes, 7)
    P = eval_basis(b, nodes)
    assert np.abs(P - b.Q).max() <= 1e-12 * np.abs(b.Q).max()


def test_symmetric_real_nodes_parity_at_zero():
    t = np.linspace(0.2, 1.0, 8)
    nodes = np.concatenate([t, -t])
    b = build_basis(nodes, 6)
    vals = eval_basis(b, [0.0])[0]
    for j in (1, 3, 5):
        assert abs(vals[j]) < 1e-12 * np.abs(vals).max()


def test_degree_one_closed_form():
    rng = np.random.default_rng(3)
    nodes = random_nodes(rng, 9, radius=2.0)
    b = build_basis(nodes, 1)
    y = 0.37 - 1.2j
    got = eval_basis(b, [y])[0, 1]
    theta0 = b.Q[0, 0]
    assert abs(got - (y - b.H[0, 0]) * theta0 / b.H[1, 0]) < 1e-13


def test_leading_coeffs_unit_subdiagonal():
    H = np.triu(np.ones((4, 3), dtype=complex), -1)
    assert np.allclose(leading_coeffs(H), 1.0)


def test_leading_coeffs_direct_values():
    H = np.zeros((3, 2), dtype=complex)
    H[1, 0] = 2.0
    H[2, 1] = 4.0
    assert np.allclose(leading_coeffs(H), [1.0, 0.5, 0.125])


def test_leading_coeffs_match_monomial_oracle():
    nodes = np.linspace(-1, 1, 25)
    b = build_basis(nodes, 5)
    C = monomial_coeffs(b)
    for j in range(6):
        lead = C[j, j]
        assert abs(b.k[j] - lead) <= 1e-10 * abs(lead)


def test_leading_coeffs_zero_subdiagonal_rejected():
    H = np.zeros((3, 2), dtype=complex)
    H[1, 0] = 1.0
    with pytest.raises(ZeroDivisionError):
        leading_coeffs(H)


def test_recurrence_residual_random_instances():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = int(rng.integers(8, 40))
        gamma = int(rng.integers(1, min(m - 1, 10)))
        b = build_basis(random_nodes(rng, m, radius=rng.uniform(0.5, 5)), gamma)
        assert recurrence_residual(b) <= 1e-12 * np.abs(b.Q).max()


def test_discrete_orthogonality():
    rng = np.random.default_rng(6)
    nodes = random_nodes(rng, 30, radius=2.0)
    b = build_basis(nodes, 8)
    G = b.Q.conj().T @ (b.weights[:, None] * b.Q)
    off = G - np.diag(np.diag(G))
    assert np.abs(off).max() <= 1e-10 * np.abs(np.diag(G)).max()
    assert np.allclose(np.diag(G).real, 1.0, atol=1e-10)


def test_degree_gradedness():
    rng = np.random.default_rng(7)
    b = build_basis(random_nodes(rng, 20, radius=1.5), 6)
    assert np.all(b.k != 0)


def test_weighted_basis_orthogonality_and_recurrence():
    rng = np.random.default_rng(8)
    nodes = random_nodes(rng, 20, radius=2.0)
    w = rng.uniform(0.1, 1.0, 20)
    w /= w.sum()
    b = build_basis(nodes, 5, weights=w)
    G = b.Q.conj().T @ (w[:, None] * b.Q)
    assert np.abs(G - np.eye(6)).max() < 1e-10
    assert recurrence_residual(b) <= 1e-12 * np.abs(b.Q).max()
    # evaluation still reproduces the stored columns
    assert np.abs(eval_basis(b, nodes) - b.Q).max() <= 1e-11 * np.abs(b.Q).max()


def test_duplicate_nodes_rejected():
    with pytest.raises(ValueError, match="distinct"):
        build_basis(np.array([1.0, 2.0, 1.0]), 1)


def test_degree_above_node_count_rejected():
    with pytest.raises(ValueError, match="nodes"):
        build_basis(np.array([1.0, 2.0, 3.0]), 5)


@pytest.mark.parametrize("nodes, weights, message", [
    ([], None, "need at least one node"),
    ([1.0, 2.0, 3.0], [0.5, 0.5], "weights must be positive, one per node"),
    ([1.0, 2.0, 3.0], [0.5, 0.5, 0.0], "weights must be positive, one per node"),
    ([1.0, 2.0, 3.0], [0.5, 1.0, -0.5], "weights must be positive, one per node"),
], ids=["no_nodes", "weight_count", "zero_weight", "negative_weight"])
def test_build_basis_rejects_bad_input(nodes, weights, message):
    with pytest.raises(ValueError, match=message):
        build_basis(np.array(nodes), 1, weights=weights)


def test_breakdown_on_clustered_nodes():
    # nodes differing at the last bit cannot support a high degree
    base = np.ones(12, dtype=complex)
    nodes = base + np.arange(12) * 1e-17 * 1j + np.arange(12) * 5e-16
    with pytest.raises((BreakdownError, ValueError)):
        build_basis(nodes, 9)


@st.composite
def _extension_case(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(["disk", "real_line", "clustered"]))
    if kind == "disk":
        nodes = random_nodes(rng, m, center=rng.uniform(-2, 2), radius=rng.uniform(0.1, 5))
    elif kind == "real_line":
        nodes = np.sort(rng.uniform(-3, 3, m)).astype(complex)
    else:  # a few tight clusters, which support only a few degrees
        centres = random_nodes(rng, draw(st.integers(1, 4)))
        spread = draw(st.sampled_from([1e-14, 1e-12, 1e-9]))
        nodes = centres[rng.integers(0, centres.size, m)] + spread * rng.permutation(m)
    weights = None
    if draw(st.booleans()):
        weights = rng.uniform(1e-3, 1.0, m)
        weights /= weights.sum()
    d1 = draw(st.integers(0, m - 2))
    d2 = draw(st.integers(d1 + 1, m - 1))
    return nodes, weights, d1, d2


def _outcome(make):
    # a tight cluster can overflow k below the breakdown degree; the
    # overflow is compared with the rest, not raised on the way to d2
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return make()
        except BreakdownError as exc:
            return str(exc)


@settings(max_examples=150, deadline=None)
@given(_extension_case())
def test_extended_basis_equals_the_basis_built_at_once(case):
    # column j+1 depends only on columns 0..j, the nodes and the weights, so a
    # basis extended from d1 to d2 is the one built at d2, bit for bit, and a
    # breakdown comes at the same degree either way
    nodes, weights, d1, d2 = case
    direct = _outcome(lambda: build_basis(nodes, d2, weights))
    extended = _outcome(lambda: build_basis(nodes, d1, weights).extend(d2))
    if isinstance(direct, str):
        assert extended == direct
        return
    assert extended.degree == direct.degree == d2
    for name in ("Q", "H", "k", "weights", "nodes"):
        assert np.array_equal(getattr(extended, name), getattr(direct, name),
                              equal_nan=True), name


def test_extend_rejects_a_lower_or_unsupported_degree():
    b = build_basis(np.arange(4.0), 2)
    with pytest.raises(ValueError, match="below the basis degree 2"):
        b.extend(1)
    with pytest.raises(ValueError, match="below the basis degree 0"):
        build_basis(np.arange(4.0), -1)
    with pytest.raises(ValueError, match="nodes"):
        b.extend(4)
