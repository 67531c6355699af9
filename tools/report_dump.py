"""Dump the JSON reports of a fixed set of runs, for diffing two checkouts.

Usage (from the root of a checkout)::

    python3 tools/report_dump.py OUT.json
    python3 tools/report_dump.py --compare A.json B.json

The first form writes one JSON object to ``OUT.json``: for each named
configuration, the report ``emit(run(config))`` without its ``timings`` and
with a manifest's path cut to its file name. The configurations are the
benchmark workloads W1, W2 and W3 at seeds 1 and 5 (built by
``perfbench/workloads.py``), six built-in runs across the dense and
filter paths, and the criterion-7 family at n = 100 on the dense path,
whose inverse iteration factors sparse ``P(lam)``. A change that must not
move the report is checked by comparing this file from the parent checkout
with the one from the change.

The second form compares two such files. Eigenvalues (``eigen`` rows by
``re + i im``, and ``[re, im]`` lists such as ``poles`` and ``zeros``) are
matched as sets, by a least-distance assignment. Lists of records that all
carry a ``degree`` (such as ``approx.escalation``) are compared by position
only where their degree sequences agree; where they do not, one line prints
both sequences. Everything else is compared by key or position. It prints
each key path that differs, list positions shown as ``*``: for numbers the
largest relative and absolute differences (of ``|lam_a - lam_b|`` for a
matched eigenvalue) and, where two values differ
by more than 2x, the largest growth factor ``max(|a|, |b|) / min(|a|, |b|)``;
for anything else both values. A key present on one side only is printed as
such. It exits 1 when an int, str, bool or ``None``, a list length or a
degree sequence differs, and 0 otherwise.
"""

import json
import os
import sys
import tempfile

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linear_sum_assignment

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import nepsolve  # noqa: E402
import workloads  # noqa: E402

BUILTIN = {
    "time_delay2_dense": dict(problem="time_delay2", nodes=50, tol=1e-7, max_degree=12),
    "time_delay2_filter": dict(problem="time_delay2", nodes=50, tol=1e-7,
                               max_degree=12, solver="filter"),
    "time_delay2_half_disk": dict(problem="time_delay2", nodes=50, tol=1e-7,
                                  max_degree=12, half_disk=True),
    "example1_filter": dict(problem="example1", solver="filter"),
    "example1_nodes60_tol1e-8": dict(problem="example1", nodes=60, tol=1e-8),
    "hadeler_filter": dict(problem="hadeler", nodes=50, tol=1e-10, max_degree=8,
                           solver="filter", subspace=60),
}
WORKLOADS = {"W1": workloads.prepare_example1, "W2": workloads.prepare_hadeler100,
             "W3": workloads.prepare_sparse1000}
SEEDS = (1, 5)


def sparse100_dense(workdir):
    """The criterion-7 problem at n = 100, two random entries a row in C and D."""
    n = 100
    A = (sp.diags(np.arange(1, n + 1).astype(complex))
         + sp.diags([0.3 * np.ones(n - 1), 0.3 * np.ones(n - 1)], [-1, 1])).tocsr()
    C = (sp.random(n, n, density=0.02, random_state=7).tocsr() * 0.5).astype(complex)
    D = (sp.random(n, n, density=0.02, random_state=8).tocsr() * 1e-3).astype(complex)
    nep = nepsolve.SplitFormNEP(
        name="synthetic_sparse",
        terms=[nepsolve.constant(1.0), nepsolve.monomial(1, -1.0),
               nepsolve.exp_affine(-1.0), nepsolve.monomial(2)],
        matrices=[A, sp.identity(n, format="csr", dtype=complex), C, D],
        region=nepsolve.Region(5.5 + 0j, 2.6))
    path = nepsolve.save_manifest(nep, os.path.join(workdir, "sparse100.json"))
    return nepsolve.RunConfig(manifest=path, nodes=60, tol=1e-9, max_degree=8,
                              solver="dense")


def report_doc(config):
    doc = json.loads(nepsolve.emit(nepsolve.run(config)))
    del doc["timings"]
    if doc["config"]["manifest"] is not None:
        doc["config"]["manifest"] = os.path.basename(doc["config"]["manifest"])
    return doc


def main(out):
    docs = {}
    for name, prepare in WORKLOADS.items():
        for seed in SEEDS:
            # one directory per run: both seeds write a manifest of one name
            with tempfile.TemporaryDirectory() as workdir:
                docs[f"{name}_seed{seed}"] = report_doc(prepare(workdir, seed).config)
    for name, fields in BUILTIN.items():
        docs[name] = report_doc(nepsolve.RunConfig(**fields))
    with tempfile.TemporaryDirectory() as workdir:
        docs["sparse100_dense"] = report_doc(sparse100_dense(workdir))
    with open(out, "w") as fh:
        json.dump(docs, fh, indent=2)
        fh.write("\n")


def _point(item):
    """The eigenvalue an ``eigen`` row or an ``[re, im]`` pair holds, or None."""
    if isinstance(item, dict) and {"re", "im"} <= set(item):
        return complex(item["re"], item["im"])
    if (isinstance(item, list) and len(item) == 2
            and all(isinstance(v, float) for v in item)):
        return complex(*item)
    return None


def _note(floats, key, a, b):
    """Keep the largest relative and absolute difference and growth under ``key``."""
    if a == b or (a != a and b != b):  # equal, or both nan
        diff = (0.0, 0.0, 1.0)
    else:
        # the relative difference cannot pass 1, so the growth factor
        # max/min is kept beside it to tell 3x from 400x
        big, small = max(abs(a), abs(b)), min(abs(a), abs(b))
        diff = (abs(a - b) / big, abs(a - b), big / small if small else np.inf)
    old = floats.get(key, (0.0, 0.0, 1.0))
    floats[key] = tuple(map(max, old, diff))


def _degrees(records):
    """The ``degree`` of each item of a list of dicts that all have one, or None."""
    if records and all(isinstance(x, dict) and "degree" in x for x in records):
        return [x["degree"] for x in records]
    return None


def _walk(a, b, path, floats, exact):
    if isinstance(a, dict) and isinstance(b, dict):
        for key in a.keys() | b.keys():
            if key not in b or key not in a:
                side = "A" if key in a else "B"
                exact.append((f"{path}.{key}", f"only in {side}", False))
            else:
                _walk(a[key], b[key], f"{path}.{key}", floats, exact)
    elif isinstance(a, list) and isinstance(b, list):
        da, db = _degrees(a), _degrees(b)
        if da is not None and db is not None and da != db:
            # records of different degrees do not compare by position
            exact.append((f"{path}[*].degree", f"{da} != {db}", True))
            return
        if len(a) != len(b):
            exact.append((f"{path}.length", f"{len(a)} != {len(b)}", True))
            return
        pa, pb = [_point(x) for x in a], [_point(x) for x in b]
        if a and None not in pa + pb:
            # eigenvalues: pair the two sets, then compare the pairs
            rows, cols = linear_sum_assignment(np.abs(np.subtract.outer(pa, pb)))
            b = [b[j] for j in cols]
            for i in rows:
                key = f"{path}[*].lam" if isinstance(a[i], dict) else f"{path}[*]"
                _note(floats, key, pa[i], _point(b[i]))
                if isinstance(a[i], dict):
                    _walk({k: v for k, v in a[i].items() if k not in ("re", "im")},
                          {k: v for k, v in b[i].items() if k not in ("re", "im")},
                          f"{path}[*]", floats, exact)
            return
        for x, y in zip(a, b):
            _walk(x, y, f"{path}[*]", floats, exact)
    elif all(isinstance(v, float) for v in (a, b)):
        _note(floats, path, a, b)
    elif a != b or type(a) is not type(b):
        exact.append((path, f"{a!r} != {b!r}", True))


def compare(path_a, path_b):
    """Print what differs between two dumps; 1 if any exact value does, else 0."""
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    floats, exact = {}, []
    _walk(a, b, "", floats, exact)
    for key, what, _ in sorted(exact):
        print(f"{key[1:]}: {what}")
    for key, (rel, absolute, growth) in sorted(floats.items()):
        if rel:
            grew = f", growth factor {growth:.1e}" if growth > 2 else ""
            print(f"{key[1:]}: max relative difference {rel:.3e} "
                  f"(max absolute {absolute:.3e}{grew})")
    return int(any(fails for *_, fails in exact))


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
