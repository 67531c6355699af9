"""Cold start of one CLI call: import nepsolve and resolve the problem.

Usage, with ``src`` on ``PYTHONPATH``: ``python3 setup_probe.py problem NAME``
or ``python3 setup_probe.py manifest PATH``.
Prints the seconds from before ``import nepsolve`` to the resolved problem.
"""

import sys
import time

t0 = time.perf_counter()
import nepsolve  # noqa: E402  (the import is what is timed)

kind, arg = sys.argv[1], sys.argv[2]
resolve = nepsolve.builtin_problem if kind == "problem" else nepsolve.load_manifest
resolve(arg)
print(repr(time.perf_counter() - t0))
