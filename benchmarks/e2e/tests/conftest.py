"""Puts the benchmark's own modules and ``src/`` on the import path.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e`` — outside the
tier-1 ``testpaths``, because the smoke test replays all four workloads.
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
for path in (E2E, E2E.parents[1] / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
