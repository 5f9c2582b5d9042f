"""Fresh-interpreter set-up probe: ``import repro.service`` plus one resolve.

Usage: ``PYTHONPATH=src python perfbench/probe_setup.py``.  Prints one
JSON line with the wall time of the import and the first
``ScenarioSpec.resolve()``, the number of loaded modules afterwards, and
whether ``scipy.stats`` was among them.
"""

import json
import sys
import time

start = time.perf_counter()
import repro.service  # noqa: E402,F401
from repro.scenario import ScenarioSpec  # noqa: E402

ScenarioSpec(dynamics="3-majority", n=1000, k=3, initial="paper-biased").resolve()
elapsed = time.perf_counter() - start
print(
    json.dumps(
        {
            "import_s": elapsed,
            "modules_loaded": len(sys.modules),
            "scipy_stats_loaded": int("scipy.stats" in sys.modules),
        }
    )
)
