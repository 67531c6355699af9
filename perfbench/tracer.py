"""Outside-in tracing of one ``nepsolve.run`` call.

The program has no spans of its own yet, so the tracer wraps the public
callables of each layer in the namespace that calls them, records one span
per call (name, start, end, parent) and derives the per-layer metrics from
those spans after the run. Patches are undone when the ``installed`` block
exits, so untraced runs in the same process see the original functions.
"""

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: "Span" = None
    end: float = None
    child_s: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


class Tracer:
    """Keeps the open-span stack and every closed span of one traced run."""

    def __init__(self):
        self.stack = []
        self.spans = []

    @contextmanager
    def span(self, name):
        parent = self.stack[-1] if self.stack else None
        span = Span(name, time.perf_counter(), parent)
        self.stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self.stack.pop()
            if parent is not None:
                parent.child_s += span.duration
            self.spans.append(span)

    def wrap(self, name, fn, note=None):
        """Return ``fn`` timed as span ``name``; ``note(args, result)`` adds info."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if note is not None:
                span.info.update(note(args, result))
            return result

        return traced


def _in_region_count(eigenpairs):
    return sum(1 for p in eigenpairs if p.in_region)


def _pair_count(pairs):
    # extract_nep_eigenpairs takes (lam, V) from the dense solve or a list of
    # (lam, v) Ritz pairs from the filter path
    if isinstance(pairs, tuple) and len(pairs) == 2 and hasattr(pairs[1], "ndim"):
        return len(pairs[0])
    return len(pairs)


def _targets():
    """(owner, attribute, span name, note) for every callable the tracer wraps."""
    # ``nepsolve.lawson`` as an attribute is the function re-exported by the
    # package, so every module is looked up by its import path
    cli = importlib.import_module("nepsolve.cli")
    lawson = importlib.import_module("nepsolve.lawson")
    eigensolve = importlib.import_module("nepsolve.eigensolve")
    filters = importlib.import_module("nepsolve.filters")
    pencil = importlib.import_module("nepsolve.pencil")
    problems = importlib.import_module("nepsolve.problems")

    def extracted(args, result):
        return {"pairs": _pair_count(args[0]), "in_region": _in_region_count(result)}

    def sif_outcome(args, result):
        return {"iterations": result.iterations, "converged": int(result.converged),
                "in_region": _in_region_count(result.eigenpairs),
                "subspace": args[3].subspace}

    return [
        (cli, "load_manifest", "problems.load", None),
        (cli, "builtin_problem", "problems.load", None),
        (cli, "lawson", "lawson.fit",
         lambda args, xi: {"converged": int(xi.converged)}),
        (lawson, "dual_value", "lawson.sweep", None),
        (lawson, "build_basis", "basis.build", None),
        (cli, "pole_free_check", "eigensolve.pole_check", None),
        (cli, "poly_roots", "pencil.poly_roots", None),
        (cli, "assemble", "pencil.assemble", None),
        (cli, "build_pencil", "pencil.assemble", None),
        (cli, "solve_pencil_dense", "eigensolve.dense", None),
        (pencil.StructuredPencil, "materialize", "pencil.materialize", None),
        (eigensolve, "solve_dense", "eigensolve.qz",
         lambda args, result: {"dim": args[0].shape[0]}),
        (cli, "extract_nep_eigenpairs", "eigensolve.extract", extracted),
        (filters, "extract_nep_eigenpairs", "eigensolve.extract", extracted),
        (cli, "sif", "filters.sif", sif_outcome),
        (filters, "apply_filter", "filters.apply", None),
        (pencil.BlockLU, "__init__", "pencil.factor", None),
        (pencil.BlockLU, "solve", "pencil.block_solve", None),
        (problems.SplitFormNEP, "apply", "problems.apply", None),
    ]


@contextmanager
def installed(tracer):
    """Patch every target with a traced wrapper; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, note in _targets():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, note))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# Per-layer metrics and their units, in the order BENCHMARK.json lists them.
LAYER_UNITS = {
    "lawson.fit_s": "s", "lawson.degrees_tried": "count",
    "lawson.sweeps": "count", "lawson.sweep_s": "s", "lawson.self_s": "s",
    "lawson.converged_ratio": "ratio", "basis.build_calls": "count",
    "basis.build_s": "s",
    "eigensolve.qz_s": "s", "eigensolve.qz_dim": "rows",
    "pencil.materialize_s": "s",
    "eigensolve.extract_s": "s", "eigensolve.pairs_extracted": "count",
    "eigensolve.in_region_ratio": "ratio", "problems.apply_calls": "count",
    "problems.apply_s": "s",
    "pencil.factorizations": "count", "pencil.factor_s": "s",
    "pencil.block_solves": "count", "pencil.block_solve_s": "s",
    "filters.sif_s": "s", "filters.iterations": "count",
    "filters.filter_apply_s": "s", "filters.rr_s": "s",
    "filters.useful_ratio": "ratio", "filters.converged": "count",
    "pencil.assemble_s": "s", "pencil.poly_roots_s": "s",
    "eigensolve.pole_check_s": "s", "problems.load_s": "s", "cli.self_s": "s",
    "trace.overhead": "ratio",
}


def _ratio(num, den):
    # a layer the workload never enters reports 0, not a division by zero
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer metrics of one traced run (all but ``trace.overhead``)."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def self_time(name):
        return sum(s.self_s for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def info(name, key):
        return sum(s.info[key] for s in by_name.get(name, ()))

    fits = calls("lawson.fit")
    pairs = info("eigensolve.extract", "pairs")
    subspace = info("filters.sif", "subspace")
    qz_dims = [s.info["dim"] for s in by_name.get("eigensolve.qz", ())]
    return {
        "lawson.fit_s": total("lawson.fit"),
        "lawson.degrees_tried": fits,
        "lawson.sweeps": calls("lawson.sweep"),
        "lawson.sweep_s": total("lawson.sweep"),
        "lawson.self_s": self_time("lawson.fit"),
        "lawson.converged_ratio": _ratio(info("lawson.fit", "converged"), fits),
        "basis.build_calls": calls("basis.build"),
        "basis.build_s": total("basis.build"),
        "eigensolve.qz_s": total("eigensolve.qz"),
        "eigensolve.qz_dim": max(qz_dims, default=0),
        "pencil.materialize_s": total("pencil.materialize"),
        "eigensolve.extract_s": total("eigensolve.extract"),
        "eigensolve.pairs_extracted": pairs,
        "eigensolve.in_region_ratio": _ratio(info("eigensolve.extract", "in_region"),
                                             pairs),
        "problems.apply_calls": calls("problems.apply"),
        "problems.apply_s": total("problems.apply"),
        "pencil.factorizations": calls("pencil.factor"),
        "pencil.factor_s": total("pencil.factor"),
        "pencil.block_solves": calls("pencil.block_solve"),
        "pencil.block_solve_s": total("pencil.block_solve"),
        "filters.sif_s": total("filters.sif"),
        "filters.iterations": info("filters.sif", "iterations"),
        "filters.filter_apply_s": total("filters.apply"),
        "filters.rr_s": self_time("filters.sif"),
        "filters.useful_ratio": _ratio(info("filters.sif", "in_region"), subspace),
        "filters.converged": info("filters.sif", "converged"),
        "pencil.assemble_s": total("pencil.assemble"),
        "pencil.poly_roots_s": total("pencil.poly_roots"),
        "eigensolve.pole_check_s": total("eigensolve.pole_check"),
        "problems.load_s": total("problems.load"),
        "cli.self_s": self_time("cli.run"),
    }


def self_time_sum(spans):
    """Sum of every span's self time; equals the root span when nesting holds."""
    return sum(s.self_s for s in spans)
