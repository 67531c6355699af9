"""List the lines of ``src/nepsolve`` that no test runs.

Usage (from the root of a checkout)::

    python3 tools/line_coverage.py [PYTEST_ARGS ...]

It runs pytest in this process (arguments default to ``-q -p no:cacheprovider``)
under a line tracer, ``sys.settrace`` plus ``threading.settrace`` for the
filter's pole workers, and then prints, for each ``src/nepsolve/*.py``, the
executable lines that never ran, grouped by the function that holds them
(``<module>`` for module and class bodies). A line is executable when the
compiled module has an instruction on it. Consecutive missed lines print as
one range; a range spans only lines with no code that ran. Standard library
only, since it must run where coverage.py is not installed. It exits with
pytest's status. The tracer slows the suite several times over.
"""

import glob
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "nepsolve")


def executable_lines(path):
    """``{line: qualified name of the innermost code object on it}`` of one file."""
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    owner = {}

    def walk(co, name):
        for _, _, line in co.co_lines():
            if line:  # None or 0 for instructions that carry no line
                owner[line] = name  # an inner function, walked later, overrides
        for const in co.co_consts:
            if hasattr(const, "co_lines"):  # a lambda or comprehension is its parent's
                walk(const, name if const.co_name.startswith("<")
                     else getattr(const, "co_qualname", const.co_name))

    walk(code, "<module>")
    return owner


def traced(argv, files):
    """Run pytest on ``argv``; returns ``(exit status, {file: lines run})``."""
    hits = {path: set() for path in files}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        lines = hits.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)  # the call event, on the def line or a yield
        return local

    import pytest
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, hits


def missed(owner, ran):
    """``[(function, [(first, last), ...]), ...]`` of the lines in ``owner`` not run."""
    by_function = {}
    for line in sorted(owner):
        ranges = by_function.setdefault(owner[line], [])
        if line in ran:
            ranges.append(None)  # closes the current range
        elif ranges and ranges[-1] is not None:
            ranges[-1] = (ranges[-1][0], line)
        else:
            ranges.append((line, line))
    return [(name, [r for r in ranges if r is not None])
            for name, ranges in by_function.items() if any(ranges)]


def main(argv):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    files = {os.path.realpath(p): p for p in sorted(glob.glob(os.path.join(SRC, "*.py")))}
    os.chdir(ROOT)
    status, hits = traced(argv or ["-q", "-p", "no:cacheprovider"], files)
    total = [0, 0]
    for real, path in files.items():
        owner = executable_lines(real)
        ran = hits[real]
        gaps = missed(owner, ran)
        n_missed = sum(line not in ran for line in owner)
        total[0] += n_missed
        total[1] += len(owner)
        print(f"{os.path.relpath(path, ROOT)}: {n_missed} of {len(owner)} "
              "executable lines not run")
        for name, ranges in gaps:
            text = ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in ranges)
            print(f"  {name}: {text}")
    print(f"total: {total[0]} of {total[1]} executable lines not run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
