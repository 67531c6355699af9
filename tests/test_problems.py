"""Built-in problems, scalar term evaluation, manifests, boundary sampling."""

import json

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from nepsolve import (ManifestError, Region, constant, example1, exp_affine,
                      exp_quadratic, expm1_term, hadeler, load_manifest,
                      monomial, sample_boundary, save_manifest, sqrt_shift,
                      time_delay2)
from nepsolve.problems import ScalarFunction, SplitFormNEP


# ------------------------------------------------------------ scalar terms

def _mp_reference(term, z):
    import mpmath as mp

    with mp.workdps(50):
        z = mp.mpc(z)
        kind, p = term.kind, term.params
        if kind == "constant":
            return complex(mp.mpc(p["value"]))
        if kind == "monomial":
            return complex(mp.mpc(p.get("scale", 1.0)) * z ** int(p["power"]))
        if kind == "exp_affine":
            return complex(mp.exp(mp.mpc(p["alpha"]) * z + mp.mpc(p.get("beta", 0.0))))
        if kind == "exp_quadratic":
            return complex(mp.exp(1j * mp.mpc(p.get("alpha", 1.0)) * z ** 2))
        if kind == "expm1":
            return complex(mp.expm1(z))
        if kind == "sqrt_shift":
            return complex(1j * mp.sqrt(z - mp.mpc(p["shift"])))
        raise AssertionError(kind)


@pytest.mark.parametrize("term", [
    constant(2.5 - 1.0j),
    monomial(3, 0.7),
    exp_affine(-1.0, 0.3),
    exp_quadratic(1.0),
    expm1_term(),
    sqrt_shift(2.0),
])
def test_scalar_terms_match_multiprecision(term):
    rng = np.random.default_rng(70)
    pts = rng.standard_normal(20) * 2 + 1j * rng.standard_normal(20) * 2
    vals = term(pts)
    for z, v in zip(pts, vals):
        ref = _mp_reference(term, z)
        assert abs(v - ref) <= 1e-14 * (1 + abs(ref))


def test_expm1_stable_near_cancellation():
    import mpmath as mp

    for z in (1e-9 + 1e-9j, 2j * np.pi, -1e-12 + 2j * np.pi):
        got = expm1_term()(z)
        with mp.workdps(60):
            ref = complex(mp.expm1(mp.mpc(z)))
        assert abs(complex(got) - ref) <= 1e-15 * (1 + abs(ref)) + 1e-17


def test_sqrt_shift_branch_cut_from_above():
    f = sqrt_shift(0.0)
    # i*sqrt(-4) with the limit from above is i*(2i) = -2
    assert complex(f(-4.0 + 0.0j)) == pytest.approx(-2.0)
    assert complex(f(np.complex128(-4.0 - 0.0j))) == pytest.approx(-2.0)
    assert complex(f(4.0)) == pytest.approx(2.0j)


def test_repr_names_the_kind_and_the_parameters():
    assert repr(exp_affine(2.0, -1.0)) == "ScalarFunction('exp_affine', alpha=2.0, beta=-1.0)"
    assert eval(repr(constant(2.0)), {"ScalarFunction": ScalarFunction}) == constant(2.0)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        ScalarFunction("cosine")


@pytest.mark.parametrize("value", [float("inf"), float("nan"), complex(1, float("-inf"))])
def test_non_finite_parameter_rejected(value):
    # a term is checked when it is made, so no manifest is ever written for it
    with pytest.raises(ValueError, match="parameter 'value' must be finite"):
        constant(value)


# ------------------------------------------------------------ built-ins

def test_example1_singular_points():
    nep = example1()
    assert abs(np.linalg.det(nep.apply(0.0, np.eye(nep.n)))) < 1e-14
    assert abs(np.linalg.det(nep.apply(np.sqrt(2 * np.pi), np.eye(nep.n)))) < 1e-13
    assert np.linalg.norm(nep.apply(1.0, np.eye(nep.n)) @ np.array([1.0, -1.0])) > 0.1


def test_time_delay2_structure():
    nep = time_delay2()
    B0 = np.array([[-5.0, 1.0], [2.0, -6.0]])
    A1 = np.array([[2.0, -1.0], [-4.0, 1.0]])
    assert np.allclose(nep.apply(0.0, np.eye(nep.n)), -B0 + A1)
    # finite for sizable |x|
    assert np.isfinite(nep.apply(25.0 + 3.0j, np.eye(nep.n))).all()
    assert nep.s == 3 and nep.n == 2


def test_hadeler_small_matrices_match_hand_evaluation():
    nep = hadeler(2, b0=7.0)
    B0, B2, B1 = nep.matrices
    assert np.allclose(np.asarray(B1), [[2.0, 2.0], [2.0, 4.0]])
    assert np.allclose(np.asarray(B2), [[2.5, 1.0 / 3.0], [1.0 / 3.0, 2.25]])
    assert np.allclose(np.asarray(B0), 7.0 * np.eye(2))


def test_hadeler_symmetry():
    nep = hadeler(17)
    for E in nep.matrices:
        E = np.asarray(E)
        assert np.allclose(E, E.T)


def test_hadeler_in_region_eigenvalues_real_negative(hadeler_bundle):
    lams = np.array([p.lam for p in hadeler_bundle.in_region])
    assert lams.size > 0
    assert np.abs(lams.imag).max() < 1e-6
    assert np.all(lams.real < 0)


# ------------------------------------------------------------ manifests

def test_manifest_round_trip_bit_exact(tmp_path):
    nep = hadeler(20)
    path = save_manifest(nep, str(tmp_path / "hadeler20.json"))
    back = load_manifest(path)
    assert back.name == nep.name
    assert back.region == nep.region
    assert back.terms == nep.terms
    for A, B in zip(nep.matrices, back.matrices):
        assert np.array_equal(np.asarray(A), np.asarray(B))


def test_manifest_inline_identity(tmp_path):
    doc = {
        "name": "trivial",
        "terms": [{"kind": "constant", "params": {"value": 1}}],
        "matrices": [{"inline": [[1, 0], [0, 1]]}],
        "region": {"center": [0.0, 0.0], "radius": 2.0},
    }
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(doc))
    nep = load_manifest(str(path))
    assert nep.n == 2 and nep.s == 1
    assert np.allclose(nep.apply(0.3 + 1j, np.eye(nep.n)), np.eye(2))


def test_manifest_complex_inline_entries(tmp_path):
    doc = {
        "name": "c",
        "terms": [{"kind": "monomial", "params": {"power": 1}}],
        "matrices": [{"inline": [[[0.0, 1.0], 0], [0, [0.0, -1.0]]]}],
        "region": {"center": [0.0, 0.0], "radius": 1.0},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    nep = load_manifest(str(path))
    assert np.allclose(nep.matrices[0], np.diag([1j, -1j]))


@pytest.mark.parametrize("doc", [5, ["name", "terms", "matrices", "region"]])
def test_manifest_top_level_must_be_an_object(tmp_path, doc):
    path = tmp_path / "top.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="top.json: manifest must be a JSON object"):
        load_manifest(str(path))


@pytest.mark.parametrize("field, value, message", [
    ("terms", 5, "terms must be a list of objects"),
    ("matrices", [5], "matrices must be a list of objects"),
    ("terms", ["constant"], "terms must be a list of objects"),
    ("terms", [{"kind": "constant", "params": 5}], r"terms\[0\]"),
    ("terms", [{"kind": "constant", "params": {}}],
     r"terms\[0\]: constant term: missing a required argument: 'value'"),
    ("terms", [{"kind": "constant", "params": {"value": "abc"}}],
     r"terms\[0\]: constant term: parameter 'value' must be a number"),
    ("terms", [{"kind": "monomial", "params": {"power": 2.5}}],
     r"terms\[0\]: monomial term: power must be an integer, got 2.5"),
    ("terms", [{"kind": "monomial", "params": {"power": 1, "scal": 3}}],
     r"terms\[0\]: monomial term: .*unexpected keyword argument 'scal'"),
    ("terms", [{"kind": "constant", "params": {"value": [1, 2, 3]}}],
     r"terms\[0\]: a complex number is \[re, im\], got \[1, 2, 3\]"),
    ("region", {"center": [0, 0, 9], "radius": 1.0},
     r"region: a complex number is \[re, im\]"),
    ("matrices", [{"inline": [[[1, 2, 3], 0], [0, 1]]}],
     r"matrices\[0\]: bad inline matrix: a complex number is \[re, im\]"),
    ("region", {"center": [0, 0], "radius": 1.0, "half_disk": "false"},
     "region: half_disk must be true or false, got 'false'"),
    ("matrices", [{"path": 5}], r"matrices\[0\]: path must be a string"),
    ("region", 5, "region: "),
    ("terms", [{"kind": "constant", "params": {"value": float("nan")}}],
     r"terms\[0\]: constant term: parameter 'value' must be finite, got nan"),
    ("matrices", [{"inline": [[float("inf"), 0], [0, 1]]}],
     r"matrices\[0\]: entries must be finite"),
    ("matrices", [{"inline": [[[1, float("-inf")], 0], [0, 1]]}],
     r"matrices\[0\]: entries must be finite"),
    ("matrices", [{"path": "nan.mtx"}], r"matrices\[0\]: entries must be finite"),
    ("matrices", [{"file": "nan.mtx"}], r"matrices\[0\]: needs 'path' or 'inline'"),
    ("matrices", [{"inline": [[1, 0], [0, 1]]}] * 2, "term count must equal matrix count"),
], ids=["terms_not_a_list", "matrix_not_an_object", "term_not_an_object",
        "params_not_an_object", "param_missing", "param_not_a_number",
        "power_not_an_integer", "param_unknown", "number_of_three_parts",
        "center_of_three_parts", "inline_entry_of_three_parts",
        "half_disk_a_string", "path_not_a_string", "region_not_an_object",
        "param_nan", "inline_inf", "inline_complex_inf", "matrix_market_nan",
        "matrix_neither_path_nor_inline", "term_and_matrix_counts_differ"])
def test_manifest_malformed_field_is_named(tmp_path, field, value, message):
    doc = {"name": "bad", "terms": [{"kind": "constant", "params": {"value": 1}}],
           "matrices": [{"inline": [[1, 0], [0, 1]]}],
           "region": {"center": [0, 0], "radius": 1.0}}
    doc[field] = value
    scipy.io.mmwrite(tmp_path / "nan.mtx", sp.csr_matrix([[np.nan, 0], [0, 1.0]]))
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))  # non-finite floats as NaN / Infinity
    with pytest.raises(ManifestError, match=f"malformed.json: {message}"):
        load_manifest(str(path))


def test_manifest_errors_carry_context(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ManifestError, match="broken.json"):
        load_manifest(str(path))

    path2 = tmp_path / "missing.json"
    path2.write_text(json.dumps({"name": "x", "terms": [], "matrices": []}))
    with pytest.raises(ManifestError, match="region"):
        load_manifest(str(path2))

    doc = {
        "name": "bad",
        "terms": [{"kind": "constant", "params": {"value": 1}}],
        "matrices": [{"path": "does_not_exist.mtx"}],
        "region": {"center": [0, 0], "radius": 1.0},
    }
    path3 = tmp_path / "badmat.json"
    path3.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="does_not_exist"):
        load_manifest(str(path3))

    (tmp_path / "garbled.mtx").write_text(
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 3.0\n")
    doc["matrices"] = [{"path": "garbled.mtx"}]
    path3.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="garbled.mtx: Matrix Market parse error"):
        load_manifest(str(path3))


REGION = Region(0j, 1.0)
I2 = np.eye(2)


@pytest.mark.parametrize("make, message", [
    (lambda: SplitFormNEP("x", [constant(1.0)], [I2, I2], REGION),
     "term count must equal matrix count"),
    (lambda: SplitFormNEP("x", [], [], REGION), "at least one term"),
    (lambda: SplitFormNEP("x", [constant(1.0)], [np.array([[np.nan, 0], [0, 1]])], REGION),
     r"matrices\[0\]: entries must be finite"),
    (lambda: SplitFormNEP("x", [constant(1.0), monomial(1)],
                          [I2, sp.csr_matrix([[0, 1j * np.inf], [0, 1]])], REGION),
     r"matrices\[1\]: entries must be finite"),
    (lambda: hadeler(n=0), "n must be at least 1"),
    # a truthy string would run on the half-disk and be reported as given
    (lambda: Region(0j, 1.0, "false"), "half_disk must be true or false, got 'false'"),
    (lambda: Region(0j, 1.0, 1), "half_disk must be true or false, got 1"),
    (lambda: Region(0j, 1.0, None), "half_disk must be true or false, got None"),
], ids=["count_mismatch", "no_terms", "dense_nan", "sparse_inf", "hadeler_empty",
        "half_disk_a_string", "half_disk_an_int", "half_disk_none"])
def test_bad_problem_input_is_rejected(make, message):
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize("region, field", [
    ({"center": [0, 0], "radius": float("inf")}, "radius"),
    ({"center": [float("nan"), 0], "radius": 1.0}, "center"),
], ids=["inf_radius", "nan_center"])
def test_manifest_region_must_be_finite(tmp_path, region, field):
    doc = {
        "name": "bad_region",
        "terms": [{"kind": "constant", "params": {"value": 1}}],
        "matrices": [{"inline": [[1, 0], [0, 1]]}],
        "region": region,
    }
    path = tmp_path / "region.json"
    path.write_text(json.dumps(doc))  # non-finite floats as Infinity / NaN
    with pytest.raises(ManifestError, match=f"region: region {field}"):
        load_manifest(str(path))


def test_manifest_dimension_mismatch(tmp_path):
    doc = {
        "name": "mismatch",
        "terms": [{"kind": "constant", "params": {"value": 1}},
                  {"kind": "monomial", "params": {"power": 1}}],
        "matrices": [{"inline": [[1, 0], [0, 1]]}, {"inline": [[1]]}],
        "region": {"center": [0, 0], "radius": 1.0},
    }
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="shape"):
        load_manifest(str(path))


def test_sparse_manifest_round_trip(tmp_path):
    E = sp.random(30, 30, density=0.1, random_state=3).tocsr().astype(complex)
    nep = SplitFormNEP("sp", [constant(1.0)], [E], Region(0j, 1.0))
    path = save_manifest(nep, str(tmp_path / "sp.json"))
    back = load_manifest(path)
    assert sp.issparse(back.matrices[0])
    assert (abs(back.matrices[0] - E)).max() == 0


@st.composite
def _split_form_case(draw):
    """Random dense and sparse complex E_i with matching terms and region."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 8))
    kinds = draw(st.lists(st.sampled_from(["dense", "sparse", "empty"]),
                          min_size=1, max_size=4))
    # magnitudes from subnormal-adjacent to huge, so every digit must survive
    mags = 10.0 ** rng.uniform(-300, 300, size=len(kinds))
    matrices = []
    for kind, mag in zip(kinds, mags):
        E = mag * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        if kind != "dense":
            E = sp.csr_matrix(E * (rng.random((n, n)) < (0.4 if kind == "sparse" else 0)))
        matrices.append(E)
    terms = [draw(st.sampled_from([constant(1.0), monomial(1), monomial(2, -1.0),
                                   exp_affine(-1.0), expm1_term()]))
             for _ in kinds]
    c = complex(*rng.uniform(-10, 10, 2))
    region = Region(c, float(rng.uniform(0.1, 10)), draw(st.booleans()))
    return SplitFormNEP("random", terms, matrices, region)


@st.composite
def _terms_and_region(draw):
    """Random term parameters, each kind with every parameter it takes, and a region."""
    num = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.complex_numbers(allow_nan=False, allow_infinity=False))
    terms = draw(st.lists(st.one_of(
        st.builds(constant, num),
        st.builds(monomial, st.integers(-6, 6), num),
        st.builds(exp_affine, num, num),
        st.builds(exp_quadratic, num),
        st.just(expm1_term()),
        st.builds(sqrt_shift, num)), min_size=1, max_size=6))
    region = Region(draw(st.complex_numbers(allow_nan=False, allow_infinity=False)),
                    draw(st.floats(min_value=1e-300, max_value=1e300)), draw(st.booleans()))
    return terms, region


@settings(max_examples=60, deadline=None)
@given(_terms_and_region())
def test_manifest_round_trip_keeps_term_parameters_and_region(tmp_path_factory, case):
    terms, region = case
    nep = SplitFormNEP("params", terms, [np.eye(1, dtype=complex)] * len(terms), region)
    path = save_manifest(nep, str(tmp_path_factory.mktemp("p") / "nep.json"))
    back = load_manifest(path)
    assert back.region == region
    assert back.terms == terms


@settings(max_examples=60, deadline=None)
@given(_split_form_case())
def test_manifest_round_trip_property(tmp_path_factory, nep):
    path = save_manifest(nep, str(tmp_path_factory.mktemp("m") / "nep.json"))
    back = load_manifest(path)
    assert back.name == nep.name and back.region == nep.region
    assert back.terms == nep.terms
    for E, B in zip(nep.matrices, back.matrices):
        assert sp.issparse(B) == sp.issparse(E)
        assert B.shape == E.shape
        if sp.issparse(E):
            assert (B != E).nnz == 0
        else:
            assert np.array_equal(B, E)


# ------------------------------------------------------------ sampling

def test_disk_sampling_quarter_points():
    nodes = sample_boundary(Region(0j, 1.0), 4)
    assert np.allclose(nodes, [1.0, 1j, -1.0, -1j], atol=1e-15)


def test_disk_sampling_first_node():
    nodes = sample_boundary(Region(-1.0 + 0j, 6.0), 50)
    assert nodes[0] == pytest.approx(5.0)
    assert len(np.unique(nodes)) == 50


def test_half_disk_sampling_constraints():
    region = Region(2.0 - 1.0j, 3.0, half_disk=True)
    nodes = sample_boundary(region, 100)
    assert nodes.size == 100
    assert len(np.unique(nodes)) == 100
    assert np.all(np.abs(nodes - region.center) <= region.radius + 1e-12)
    assert np.all((nodes - region.center).imag >= -1e-12)
    # arc/diameter split proportional to arc length
    on_arc = np.abs(np.abs(nodes - region.center) - region.radius) < 1e-9
    assert on_arc.sum() == round(100 * np.pi / (np.pi + 2))


def test_half_disk_small_counts():
    for m in (1, 2, 3):
        nodes = sample_boundary(Region(0j, 1.0, half_disk=True), m)
        assert nodes.size == m
        assert len(np.unique(nodes)) == m


def test_boundary_nodes_distinct_large():
    nodes = sample_boundary(Region(0.3 + 0.1j, 2.0), 10 ** 6)
    assert len(np.unique(nodes)) == 10 ** 6
    half = sample_boundary(Region(0.3 + 0.1j, 2.0, half_disk=True), 10 ** 5)
    assert len(np.unique(half)) == 10 ** 5


def test_sampling_rejects_bad_count():
    with pytest.raises(ValueError):
        sample_boundary(Region(0j, 1.0), 0)
