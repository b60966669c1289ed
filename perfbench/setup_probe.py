"""Time cellwave's set-up in this fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR CONFIG SEED

Prints the seconds taken to import the CLI module (which imports the whole
package) and to load and validate the config with the workload's seed, as
the CLI does before any computation.  Interpreter start-up is not included.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cellwave.cli  # noqa: E402
from cellwave.config import load_config  # noqa: E402

load_config(sys.argv[2], [f"analysis.seed={sys.argv[3]}"])
elapsed = time.perf_counter() - t0
if not cellwave.__file__.startswith(sys.argv[1]):
    sys.exit(f"imported cellwave from {cellwave.__file__}, not {sys.argv[1]}")
print(repr(elapsed))
