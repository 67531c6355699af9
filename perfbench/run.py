"""nepsolve benchmark: closed-loop ``nepsolve.run`` calls on one workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process makes one ``run(config)`` call at a time, with the BLAS pinned to
one thread. ``--trace 0`` repeats the call for ``--seconds`` and reports the
end-to-end metrics ``run_s`` (median wall time of one call), ``setup_s``
(median cold start of a fresh interpreter: import nepsolve and resolve the
problem) and ``peak_rss_mb``. ``--trace 1`` alternates two untraced and two
traced calls and reports the per-layer metrics of :mod:`tracer`.

Every call's output is checked (see :mod:`workloads`). The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit status is 1 when a check or a trace
self-check failed, and 2 when the checkout holds no nepsolve sources.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the BLAS reads these once, when numpy first loads it
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import tracer  # noqa: E402  (standard library only, no numpy)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 7
TRACE_PAIRS = 2
SETUP_TIMEOUT_S = 120

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def import_program():
    """Import nepsolve from this checkout's ``src``, or exit with status 2."""
    if not os.path.isfile(os.path.join(SRC, "nepsolve", "__init__.py")):
        sys.exit(f"perfbench: no nepsolve sources under {SRC}")
    sys.path.insert(0, SRC)
    import nepsolve
    if not os.path.abspath(nepsolve.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported nepsolve from {nepsolve.__file__}, not {SRC}")
    return nepsolve


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {var: os.environ[var] for var in THREAD_VARS}
    env.update(nproc=len(os.sched_getaffinity(0)), python=platform.python_version(),
               numpy=numpy.__version__, scipy=scipy.__version__,
               blas=f"{blas.get('name', '?')} {blas.get('version', '?')}")
    return env


def setup_times(source, repeats):
    """Cold-start seconds of ``repeats`` fresh interpreters, one after another."""
    kind, arg = source
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = os.path.join(HERE, "setup_probe.py")
    out = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, probe, kind, arg], env=env, check=True,
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def attempt(call, prepared, check):
    """One timed call plus its correctness check; returns (seconds, failures)."""
    t0 = time.perf_counter()
    try:
        report = call(prepared.config)
    except Exception:
        # a raising run is a failed attempt; the loop goes on and counts it
        seconds = time.perf_counter() - t0
        traceback.print_exc()
        return seconds, ["run raised"]
    seconds = time.perf_counter() - t0
    fails = check(report, prepared)
    for msg in fails:
        print(f"perfbench: correctness: {msg}", file=sys.stderr)
    return seconds, fails


def closed_loop(call, prepared, check, seconds):
    """Call back to back while the next call should still end inside ``seconds``."""
    durations, failed = [], 0
    start = time.perf_counter()
    while True:
        dt, fails = attempt(call, prepared, check)
        durations.append(dt)
        failed += bool(fails)
        if time.perf_counter() - start + dt > seconds:
            return durations, failed


def tail(samples):
    """Highest of p50/p90/p99 with at least ten samples beyond it, as text."""
    n = len(samples)
    for p in (99, 90, 50):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
            return f"p{p} {q:.6g}"
    return "no percentile has 10 samples beyond it"


def end_to_end(nepsolve, prepared, check, seconds):
    setups = setup_times(prepared.source, SETUP_REPEATS)
    durations, failed = closed_loop(nepsolve.run, prepared, check, seconds)
    metrics = {
        "run_s": statistics.median(durations),
        "setup_s": statistics.median(setups),
        # Linux reports ru_maxrss in KiB
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"run_s {metrics['run_s']!r} s median, {tail(durations)}, "
          f"n={len(durations)}: {durations}")
    print(f"setup_s {metrics['setup_s']!r} s median, {tail(setups)}, "
          f"n={len(setups)}: {setups}")
    print(f"peak_rss_mb {metrics['peak_rss_mb']!r} MB")
    print(f"fail_rate {failed / len(durations)!r} ({failed} of {len(durations)} runs)")
    return metrics, len(durations), failed, []


def traced(nepsolve, prepared, check):
    """Untraced and traced calls in turn; per-layer metrics from the traced ones."""
    failed, problems, runs = 0, [], []
    plain_s, traced_s = [], []
    for _ in range(TRACE_PAIRS):
        dt, fails = attempt(nepsolve.run, prepared, check)
        failed += bool(fails)
        plain_s.append(dt)

        spans = tracer.Tracer()

        def call(config):
            with spans.span("cli.run"):
                return nepsolve.run(config)

        with tracer.installed(spans):
            dt, fails = attempt(call, prepared, check)
        failed += bool(fails)
        traced_s.append(dt)
        runs.append(tracer.layer_metrics(spans.spans))
        covered = tracer.self_time_sum(spans.spans)
        if spans.stack or abs(covered - dt) > 1e-3 + 1e-3 * dt:
            problems.append(f"span self times sum to {covered:.6f} s, "
                            f"the traced run took {dt:.6f} s")

    metrics = {}
    for name, unit in tracer.LAYER_UNITS.items():
        if name == "trace.overhead":
            metrics[name] = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
        elif unit in ("count", "rows"):
            values = {m[name] for m in runs}
            if len(values) > 1:
                problems.append(f"{name} differs between traced runs: {sorted(values)}")
            metrics[name] = runs[0][name]
        else:
            metrics[name] = statistics.median(m[name] for m in runs)
    for name, value in metrics.items():
        print(f"{name} {value!r} {tracer.LAYER_UNITS[name]}")
    for msg in problems:
        print(f"perfbench: trace self-check: {msg}", file=sys.stderr)
    return metrics, 2 * TRACE_PAIRS, failed, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nepsolve = import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    prepare, check = WORKLOADS[args.workload]
    print("env " + json.dumps(environment()))

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        prepared = prepare(workdir, args.seed)
        if args.trace:
            metrics, attempted, failed, problems = traced(nepsolve, prepared, check)
            units = tracer.LAYER_UNITS
        else:
            metrics, attempted, failed, problems = end_to_end(
                nepsolve, prepared, check, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
