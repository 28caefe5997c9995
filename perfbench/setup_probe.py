"""Set-up cost of one fresh process: import qalb and qalb.cli, then build
every lattice.  Prints the seconds it took.

    python3 perfbench/setup_probe.py src
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import qalb  # noqa: E402,F401
import qalb.cli  # noqa: E402,F401
from qalb.lattice import build_lattice  # noqa: E402

for name in ("D1Q3", "D2Q9", "D3Q27"):
    build_lattice(name)
print(repr(time.perf_counter() - t0))
