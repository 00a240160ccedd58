"""End-to-end benchmark of the paper's workloads (see README.md).

Run it as ``python -m benchmarks.e2e`` from the repository root.  The
package measures ``src/repro`` from outside and changes nothing in it.

Importing the package puts the checkout's ``src`` first on ``sys.path``:
the benchmark must time the code of the checkout it sits in, not an
installed copy, and ``BENCHMARK.json``'s command may not name ``src``.
"""

import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[2] / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
