"""Benchmark problems in split form, scalar term evaluation, and boundary sampling.

A problem is kept as ``T(x) = sum_i t_i(x) E_i`` where the ``t_i`` are scalar
functions evaluated by exact formulas and the ``E_i`` are constant matrices
(dense ndarrays or scipy sparse). Problems can be built in (``example1``,
``time_delay2``, ``hadeler``) or loaded from a JSON manifest referencing
Matrix Market files.
"""

import json
import os
from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.sparse as sp

__all__ = [
    "ScalarFunction", "constant", "monomial", "exp_affine", "exp_quadratic",
    "expm1_term", "sqrt_shift", "Region", "SplitFormNEP", "ManifestError",
    "example1", "time_delay2", "hadeler", "load_manifest", "save_manifest",
    "sample_boundary",
]


class ManifestError(Exception):
    """Raised when a problem manifest or a referenced matrix file is invalid."""


def _stable_expm1(z):
    # exp(z)-1 without cancellation for z near 0 (or near 2*pi*i*k on the real part)
    z = np.asarray(z, dtype=complex)
    re, im = z.real, z.imag
    real = np.expm1(re) * np.cos(im) - 2.0 * np.sin(im / 2.0) ** 2
    imag = np.exp(re) * np.sin(im)
    return real + 1j * imag


def _sqrt_upper(z):
    # principal sqrt; points exactly on the cut take the limit from above
    z = np.asarray(z, dtype=complex)
    im = np.where(z.imag == 0.0, 0.0, z.imag)  # turn -0.0 into +0.0
    return np.sqrt(z.real + 1j * im)


class ScalarFunction:
    """One scalar term of a split form, evaluated by its exact formula.

    ``kind`` selects the formula, ``params`` its numeric parameters:

    - ``constant``:       value
    - ``monomial``:       scale * x**power
    - ``exp_affine``:     exp(alpha*x + beta)
    - ``exp_quadratic``:  exp(1j*alpha*x**2)
    - ``expm1``:          exp(x) - 1
    - ``sqrt_shift``:     1j * sqrt(x - shift), principal branch
    """

    _KINDS = ("constant", "monomial", "exp_affine", "exp_quadratic", "expm1",
              "sqrt_shift")

    def __init__(self, kind, **params):
        if kind not in self._KINDS:
            raise ValueError(f"unknown scalar function kind {kind!r}")
        self.kind = kind
        self.params = params

    def __call__(self, x):
        x = np.asarray(x, dtype=complex)
        p = self.params
        if self.kind == "constant":
            return np.full(x.shape, complex(p["value"]))
        if self.kind == "monomial":
            return complex(p.get("scale", 1.0)) * x ** int(p["power"])
        if self.kind == "exp_affine":
            return np.exp(complex(p["alpha"]) * x + complex(p.get("beta", 0.0)))
        if self.kind == "exp_quadratic":
            return np.exp(1j * complex(p.get("alpha", 1.0)) * x ** 2)
        if self.kind == "expm1":
            return _stable_expm1(x)
        if self.kind == "sqrt_shift":
            return 1j * _sqrt_upper(x - complex(p["shift"]))
        raise AssertionError(self.kind)

    def __eq__(self, other):
        return (isinstance(other, ScalarFunction) and self.kind == other.kind
                and self.params == other.params)

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"ScalarFunction({self.kind!r}, {args})"

    def to_json(self):
        return {"kind": self.kind,
                "params": {k: _num_to_json(v) for k, v in self.params.items()}}

    @classmethod
    def from_json(cls, obj):
        params = {k: _num_from_json(v) for k, v in obj.get("params", {}).items()}
        return cls(obj["kind"], **params)


def constant(value):
    return ScalarFunction("constant", value=value)


def monomial(power, scale=1.0):
    return ScalarFunction("monomial", power=power, scale=scale)


def exp_affine(alpha, beta=0.0):
    return ScalarFunction("exp_affine", alpha=alpha, beta=beta)


def exp_quadratic(alpha=1.0):
    return ScalarFunction("exp_quadratic", alpha=alpha)


def expm1_term():
    return ScalarFunction("expm1")


def sqrt_shift(shift):
    return ScalarFunction("sqrt_shift", shift=shift)


def _num_to_json(v):
    v = complex(v)
    if v.imag == 0.0:
        if v.real == int(v.real):
            return int(v.real)
        return v.real
    return [v.real, v.imag]


def _num_from_json(v):
    if isinstance(v, (list, tuple)):
        return complex(v[0], v[1])
    return v


@dataclass(frozen=True)
class Region:
    """Closed disk (optionally cut to the upper half relative to its center)."""

    center: complex
    radius: float
    half_disk: bool = False

    def __post_init__(self):
        # written so that nan fails too
        if not 0 < self.radius < np.inf:
            raise ValueError("region radius must be positive and finite")
        if not np.isfinite(self.center):
            raise ValueError("region center must be finite")

    def contains(self, lam):
        d = np.asarray(lam, dtype=complex) - self.center
        # hypot, not abs: numpy's complex abs of a 0-d array can be one ulp
        # off where its array loop is exact, which moves points on the circle
        inside = np.hypot(d.real, d.imag) <= self.radius
        if self.half_disk:
            inside = inside & (d.imag >= 0.0)
        return inside

    def to_json(self):
        c = complex(self.center)
        return {"center": [c.real, c.imag], "radius": float(self.radius),
                "half_disk": bool(self.half_disk)}

    @classmethod
    def from_json(cls, obj):
        c = obj["center"]
        center = complex(c[0], c[1]) if isinstance(c, (list, tuple)) else complex(c)
        return cls(center, float(obj["radius"]), bool(obj.get("half_disk", False)))


@dataclass
class SplitFormNEP:
    """Nonlinear eigenvalue problem ``T(x) = sum_i t_i(x) E_i``."""

    name: str
    terms: list
    matrices: list
    region: Region

    def __post_init__(self):
        if len(self.terms) != len(self.matrices):
            raise ValueError("term count must equal matrix count")
        if not self.terms:
            raise ValueError("split form needs at least one term")
        shapes = {E.shape for E in self.matrices}
        if len(shapes) != 1 or any(a != b for a, b in shapes):
            raise ValueError(f"coefficient matrices must share a square shape, got {shapes}")

    @property
    def s(self):
        return len(self.terms)

    @property
    def n(self):
        return self.matrices[0].shape[0]

    def t_values(self, x):
        """Evaluate all scalar terms at the points ``x``; returns (len(x), s)."""
        x = np.atleast_1d(np.asarray(x, dtype=complex))
        return np.column_stack([t(x) for t in self.terms])

    def apply(self, lam, U):
        """``T(lam) @ U``, or ``T(lam[k]) @ U[:, k]`` per column for an array ``lam``.

        The terms are evaluated in one ``t_values`` call and each ``E_i`` is
        applied once, to all of ``U``.
        """
        tv = self.t_values(lam)
        if np.ndim(lam) == 0:
            tv = tv[0]
        return sum(tv[..., i] * (E @ U) for i, E in enumerate(self.matrices))

    def matrix(self, lam):
        """Dense ``T(lam)``; intended for small problems and tests."""
        tv = self.t_values(lam)[0]
        acc = np.zeros((self.n, self.n), dtype=complex)
        for ti, E in zip(tv, self.matrices):
            acc += ti * (E.toarray() if sp.issparse(E) else np.asarray(E))
        return acc

    def norm1_terms(self):
        """Column-sum norms ``norm(E_i, 1)`` of the coefficient matrices."""
        return np.array([abs(E).sum(axis=0).max() for E in self.matrices], dtype=float)


def example1():
    """2x2 problem with t = [exp(i x^2), 1]; spectrum at +-sqrt(2*pi*k)."""
    E1 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    E2 = np.array([[0.0, 1.0], [1.0, 1.0]], dtype=complex)
    return SplitFormNEP(
        name="example1",
        terms=[exp_quadratic(1.0), constant(1.0)],
        matrices=[E1, E2],
        region=Region(0.0 + 0.0j, 3.0),
    )


def time_delay2():
    """2x2 delay problem T(x) = -B0 + x I + exp(-x) A1."""
    B0 = np.array([[-5.0, 1.0], [2.0, -6.0]], dtype=complex)
    A1 = np.array([[2.0, -1.0], [-4.0, 1.0]], dtype=complex)
    return SplitFormNEP(
        name="time_delay2",
        terms=[constant(1.0), monomial(1), exp_affine(-1.0)],
        matrices=[-B0, np.eye(2, dtype=complex), A1],
        region=Region(-1.0 + 0.0j, 6.0),
    )


def hadeler(n=200, b0=100.0):
    """Hadeler problem T(x) = (exp(x)-1) B1 + x^2 B2 - B0 with B0 = b0*I."""
    if n < 1:
        raise ValueError("n must be at least 1")
    i = np.arange(1, n + 1)
    B1 = (n + 1 - np.maximum.outer(i, i)) * np.multiply.outer(i, i)
    B2 = n * np.eye(n) + 1.0 / np.add.outer(i, i)
    return SplitFormNEP(
        name="hadeler",
        terms=[constant(-1.0), monomial(2), expm1_term()],
        matrices=[b0 * np.eye(n, dtype=complex), B2.astype(complex),
                  B1.astype(complex)],
        region=Region(-30.0 + 0.0j, 11.5),
    )


_BUILTINS = {"example1": example1, "time_delay2": time_delay2, "hadeler": hadeler}


def builtin_problem(name, **kwargs):
    """Instantiate a built-in problem by name."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown built-in problem {name!r}; "
                         f"available: {sorted(_BUILTINS)}") from None
    return factory(**kwargs)


def _parse_inline_matrix(rows):
    def entry(v):
        if isinstance(v, (list, tuple)):
            return complex(v[0], v[1])
        return complex(v)

    return np.array([[entry(v) for v in row] for row in rows], dtype=complex)


def load_manifest(path):
    """Load a split-form problem from a JSON manifest.

    Schema::

        {"name": str,
         "terms": [{"kind": str, "params": {...}}, ...],
         "matrices": [{"path": "E1.mtx"} | {"inline": [[...], ...]}, ...],
         "region": {"center": [re, im], "radius": r, "half_disk": bool}}

    Matrix paths are resolved relative to the manifest file. Matrix Market
    files may be coordinate or array format, real or complex; symmetric
    storage is expanded on read.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ManifestError(f"{path}: cannot read manifest: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc

    base = os.path.dirname(os.path.abspath(path))
    for key in ("name", "terms", "matrices", "region"):
        if key not in doc:
            raise ManifestError(f"{path}: missing manifest field {key!r}")

    terms = []
    for i, t in enumerate(doc["terms"]):
        try:
            terms.append(ScalarFunction.from_json(t))
        except (KeyError, ValueError, TypeError) as exc:
            raise ManifestError(f"{path}: terms[{i}]: {exc}") from exc

    matrices = []
    for i, spec in enumerate(doc["matrices"]):
        if "inline" in spec:
            try:
                matrices.append(_parse_inline_matrix(spec["inline"]))
            except (TypeError, ValueError, IndexError) as exc:
                raise ManifestError(f"{path}: matrices[{i}]: bad inline matrix: {exc}") from exc
        elif "path" in spec:
            mpath = os.path.join(base, spec["path"])
            try:
                M = scipy.io.mmread(mpath)
            except OSError as exc:
                raise ManifestError(f"{mpath}: cannot read matrix file: {exc}") from exc
            except ValueError as exc:
                raise ManifestError(f"{mpath}: Matrix Market parse error: {exc}") from exc
            matrices.append(M.tocsr().astype(complex) if sp.issparse(M)
                            else np.asarray(M, dtype=complex))
        else:
            raise ManifestError(f"{path}: matrices[{i}]: needs 'path' or 'inline'")

    if len(terms) != len(matrices):
        raise ManifestError(f"{path}: {len(terms)} terms but {len(matrices)} matrices")
    try:
        region = Region.from_json(doc["region"])
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        raise ManifestError(f"{path}: region: {exc}") from exc
    try:
        return SplitFormNEP(doc["name"], terms, matrices, region)
    except ValueError as exc:
        raise ManifestError(f"{path}: {exc}") from exc


def save_manifest(nep, path):
    """Write ``nep`` as a manifest plus Matrix Market files next to it."""
    base = os.path.dirname(os.path.abspath(path))
    os.makedirs(base, exist_ok=True)
    stem = os.path.splitext(os.path.basename(path))[0]
    mats = []
    for i, E in enumerate(nep.matrices):
        fname = f"{stem}_E{i + 1}.mtx"
        scipy.io.mmwrite(os.path.join(base, fname), E)
        mats.append({"path": fname})
    doc = {
        "name": nep.name,
        "terms": [t.to_json() for t in nep.terms],
        "matrices": mats,
        "region": nep.region.to_json(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
    return path


def sample_boundary(region, m):
    """Sample ``m`` boundary nodes of a region.

    Disks get equiangular nodes ``c + r*exp(2i*pi*l/m)`` starting at ``c + r``.
    Half-disks split nodes between arc and diameter proportionally to arc
    length, with shared endpoints kept only on the arc.
    """
    if m < 1:
        raise ValueError("need at least one boundary node")
    c, r = complex(region.center), float(region.radius)
    if not region.half_disk:
        ang = 2.0 * np.pi * np.arange(m) / m
        return c + r * np.exp(1j * ang)
    m_arc = int(round(m * np.pi / (np.pi + 2.0)))
    m_arc = min(max(m_arc, 1), m)
    nodes = [c + r * np.exp(1j * np.linspace(0.0, np.pi, m_arc))]
    m_diam = m - m_arc
    if m_diam > 0:
        interior = np.linspace(-r, r, m_diam + 2)[1:-1]
        nodes.append(c + interior)
    return np.concatenate(nodes)
