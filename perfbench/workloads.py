"""The benchmark's workloads: seeded inputs, run configurations and checks.

Each workload turns a seed into a ``RunConfig`` (writing any manifest into a
scratch directory) plus the reference its correctness check compares
against. The program sees only the generated configs and manifests. Why each
workload was chosen is written down in ``NOTES.md``.

Run as a script, this module recomputes ``reference_hadeler100.json``.
"""

import json
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import nepsolve

HERE = os.path.dirname(os.path.abspath(__file__))
HADELER_REFERENCE = os.path.join(HERE, "reference_hadeler100.json")

EXAMPLE1_SPECTRUM = np.array([0.0, np.sqrt(2 * np.pi), -np.sqrt(2 * np.pi),
                              1j * np.sqrt(2 * np.pi), -1j * np.sqrt(2 * np.pi)])
CENTROID_TOL = 1e-7     # acceptance criterion 2
EIGENVALUE_TOL = 1e-6
NORMALIZED_RESIDUAL_TOL = 1e-6   # acceptance criterion 7


@dataclass
class Prepared:
    """One workload instance: what ``run`` gets and what its output is checked against."""

    config: nepsolve.RunConfig
    source: tuple       # ("problem", name) or ("manifest", path), for set-up timing
    reference: np.ndarray


def _match(lams, refs, tol, what):
    """Failure messages unless ``lams`` and ``refs`` pair up within ``tol``."""
    lams, refs = np.asarray(lams, dtype=complex), np.asarray(refs, dtype=complex)
    if lams.size != refs.size:
        return [f"{lams.size} {what} in the region, reference has {refs.size}"]
    if lams.size == 0:
        return []
    dist = np.abs(lams[:, None] - refs[None, :])
    worst = max(dist.min(axis=0).max(), dist.min(axis=1).max())
    return [] if worst <= tol else [f"{what} off the reference by {worst:.3e} > {tol:g}"]


def _exit_ok(report):
    status = report.exit_status
    return [] if status == 0 else [f"exit status {status}"]


def _clusters(points, radius):
    # greedy union clustering, as the acceptance tests do for example1's
    # defective double eigenvalue at 0 (split by ~sqrt(eps) in any realization)
    clusters = []
    for z in points:
        for cl in clusters:
            if any(abs(z - y) <= radius for y in cl):
                cl.append(z)
                break
        else:
            clusters.append([z])
    return [np.mean(cl) for cl in clusters]


# ------------------------------------------------------------- W1 example1

def prepare_example1(workdir, seed):
    config = nepsolve.RunConfig(problem="example1", nodes=100, tol=1e-10,
                                max_degree=30, solver="dense", seed=seed)
    return Prepared(config, ("problem", "example1"), EXAMPLE1_SPECTRUM)


def check_example1(report, prepared):
    centroids = _clusters([p.lam for p in report.in_region], radius=1e-4)
    return _exit_ok(report) + _match(centroids, prepared.reference,
                                     CENTROID_TOL, "cluster centroids")


# ------------------------------------------------------- W2 hadeler(100)

def _hadeler_problem():
    return nepsolve.hadeler(n=100)


def prepare_hadeler100(workdir, seed):
    path = nepsolve.save_manifest(_hadeler_problem(),
                                  os.path.join(workdir, "hadeler100.json"))
    config = nepsolve.RunConfig(manifest=path, nodes=50, tol=1e-10,
                                max_degree=6, solver="dense", seed=seed)
    with open(HADELER_REFERENCE) as fh:
        ref = np.array([complex(re, im) for re, im in json.load(fh)["eigenvalues"]])
    return Prepared(config, ("manifest", path), ref)


def check_hadeler100(report, prepared):
    fails = _exit_ok(report)
    worst = max((p.residual for p in report.in_region), default=0.0)
    if worst > report.bound:
        fails.append(f"in-region residual {worst:.3e} above the a priori "
                     f"bound {report.bound:.3e}")
    return fails + _match([p.lam for p in report.in_region], prepared.reference,
                          EIGENVALUE_TOL, "eigenvalues")


# ------------------------------------------------ W3 sparse n=1000, filter

SPARSE_N = 1000
SPARSE_REGION = nepsolve.Region(5.5 + 0j, 2.6)


def _sparse_matrices(seed):
    """Criterion-7 family: A tridiagonal, C and D random from ``seed``."""
    n = SPARSE_N
    rng = np.random.default_rng(seed)
    A = (sp.diags(np.arange(1, n + 1).astype(complex))
         + sp.diags([0.3 * np.ones(n - 1), 0.3 * np.ones(n - 1)], [-1, 1])).tocsr()
    C = (sp.random(n, n, density=0.002, random_state=rng).tocsr() * 0.5).astype(complex)
    D = (sp.random(n, n, density=0.002, random_state=rng).tocsr() * 1e-3).astype(complex)
    return A, C, D


def _newton(T, dT, lam, v, tol=1e-14, max_iters=30):
    """Newton on ``T(lam) v = 0, v0^H v = 1``; returns the eigenvalue.

    Eliminating the vector update leaves one sparse solve per step:
    ``x = T(lam)^{-1} T'(lam) v``, ``lam -= 1/(v0^H x)``, ``v = x/(v0^H x)``.
    """
    v0 = v / np.vdot(v, v)
    for _ in range(max_iters):
        x = spla.splu(T(lam)).solve(dT(lam) @ v)
        step = 1.0 / np.vdot(v0, x)
        lam, v = lam - step, step * x
        if abs(step) <= tol * max(1.0, abs(lam)):
            return complex(lam)
    raise RuntimeError(f"reference Newton iteration did not converge near {lam}")


def _in_region_roots(T, dT, guesses, region):
    """Newton-refine ``(lam, v)`` guesses; keep the distinct roots in the region."""
    roots = np.array([_newton(T, dT, lam, v) for lam, v in guesses])
    if roots.size > 1:
        gaps = np.abs(roots[:, None] - roots[None, :]) + np.eye(roots.size)
        if gaps.min() < 1e-6:
            raise RuntimeError("two reference guesses converged to one root")
    return roots[region.contains(roots)]


def sparse_reference(seed):
    """In-region eigenvalues of the seed's problem, independent of nepsolve.

    Starts from the eigenpairs of the tridiagonal ``A`` near the region (the
    ``C`` and ``D`` terms are small perturbations there) and refines each by
    Newton on the exact ``T(x) = A - x I + exp(-x) C + x^2 D``.
    """
    A, C, D = _sparse_matrices(seed)
    I = sp.identity(SPARSE_N, format="csc", dtype=complex)
    T = lambda x: (A - x * I + np.exp(-x) * C + x * x * D).tocsc()
    dT = lambda x: (-I - np.exp(-x) * C + 2 * x * D).tocsc()
    c, r = SPARSE_REGION.center.real, SPARSE_REGION.radius
    w, V = scipy.linalg.eigh_tridiagonal(
        A.diagonal().real, A.diagonal(1).real, select="v",
        select_range=(c - r - 0.5, c + r + 0.5))
    return _in_region_roots(T, dT, [(complex(w[j]), V[:, j].astype(complex))
                                    for j in range(w.size)], SPARSE_REGION)


def prepare_sparse1000(workdir, seed):
    A, C, D = _sparse_matrices(seed)
    nep = nepsolve.SplitFormNEP(
        name="synthetic_sparse",
        terms=[nepsolve.constant(1.0), nepsolve.monomial(1, -1.0),
               nepsolve.exp_affine(-1.0), nepsolve.monomial(2)],
        matrices=[A, sp.identity(SPARSE_N, format="csr", dtype=complex), C, D],
        region=SPARSE_REGION)
    path = nepsolve.save_manifest(nep, os.path.join(workdir, "sparse1000.json"))
    config = nepsolve.RunConfig(manifest=path, nodes=60, tol=1e-9, max_degree=8,
                                solver="filter", seed=seed)
    return Prepared(config, ("manifest", path), sparse_reference(seed))


def check_sparse1000(report, prepared):
    fails = _exit_ok(report)
    if not report.solver_converged:
        fails.append("filter solver did not converge")
    worst = max((p.normalized_residual for p in report.in_region), default=0.0)
    if worst >= NORMALIZED_RESIDUAL_TOL:
        fails.append(f"in-region normalized residual {worst:.3e} "
                     f">= {NORMALIZED_RESIDUAL_TOL:g}")
    return fails + _match([p.lam for p in report.in_region], prepared.reference,
                          EIGENVALUE_TOL, "eigenvalues")


WORKLOADS = {
    "example1_escalate": (prepare_example1, check_example1),
    "hadeler100_dense": (prepare_hadeler100, check_hadeler100),
    "sparse1000_filter": (prepare_sparse1000, check_sparse1000),
}


def hadeler_reference():
    """Real in-region eigenvalues of ``hadeler(100)``, independent of the solver.

    ``T(x)`` is real symmetric for real ``x``, so each eigenvalue on the real
    axis changes the number of negative eigenvalues of ``T(x)``. A grid scan
    brackets them, and Newton on the exact ``T`` refines each one.
    """
    nep = _hadeler_problem()
    B0, B2, B1 = (np.asarray(E) for E in nep.matrices)
    T = lambda x: sp.csc_matrix(-B0 + x * x * B2 + np.expm1(x) * B1)
    dT = lambda x: sp.csc_matrix(2 * x * B2 + np.exp(x) * B1)
    c, r = nep.region.center.real, nep.region.radius
    grid = np.linspace(c - r - 1, c + r + 1, 4001)
    negative = [int((np.linalg.eigvalsh(T(x).real.toarray()) < 0).sum()) for x in grid]
    guesses = []
    for i in np.nonzero(np.diff(negative))[0]:
        x = 0.5 * (grid[i] + grid[i + 1])
        vals, vecs = np.linalg.eigh(T(x).real.toarray())
        # the eigenvalue of T(x) that crosses zero is the one nearest it
        j = np.argmin(np.abs(vals))
        guesses.append((complex(x), vecs[:, j].astype(complex)))
    return _in_region_roots(T, dT, guesses, nep.region)


if __name__ == "__main__":
    roots = np.sort_complex(hadeler_reference())
    with open(HADELER_REFERENCE, "w") as fh:
        json.dump({"problem": "hadeler(n=100, b0=100)",
                   "method": "workloads.hadeler_reference: sign-count scan "
                             "and bordered Newton on the exact T(x)",
                   "eigenvalues": [[z.real, z.imag] for z in roots]}, fh, indent=2)
        fh.write("\n")
    print(f"wrote {roots.size} eigenvalues to {HADELER_REFERENCE}")
