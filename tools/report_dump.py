"""Dump the JSON reports of a fixed set of runs, for diffing two checkouts.

Usage (from the root of a checkout)::

    python3 tools/report_dump.py OUT.json

Writes one JSON object to ``OUT.json``: for each named configuration, the
report ``emit(run(config))`` without its ``timings`` and with a manifest's
path cut to its file name. The configurations are the benchmark workloads
W1, W2 and W3 at seeds 1 and 5 (built by ``perfbench/workloads.py``) and
seven built-in runs across the dense and filter paths. A change that must
not move the report is checked by diffing this file from the parent
checkout against the one from the change.
"""

import json
import os
import sys
import tempfile

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


def report_doc(config):
    doc = json.loads(nepsolve.emit(nepsolve.run(config), fmt="json"))
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
    with open(out, "w") as fh:
        json.dump(docs, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
