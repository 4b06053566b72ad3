"""The benchmark's traced pass wraps ``repro`` names from outside.

``perfbench/layers.py`` patches methods and functions by name (for
example ``Simulator.run_until`` and ``Simulator.step``).  Renaming or
deleting one of them breaks every ``perfbench/run.py --trace 1`` pass
with an ``AttributeError``; this test catches that in tier-1, without
running a benchmark pass.  It also builds one browser per registered
defense under the wrappers: each must record exactly one
``defenses.install`` span, which a defense overriding
``DefenseBackend.install`` would miss.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

INSTALL = """
import sys
sys.path[:0] = sys.argv[1:]
from layers import LayerTrace
from workloads import TableOne
TableOne().setup()
trace = LayerTrace("table1")
trace.install()

from repro.defenses import available, make_browser
names = available()
for name in names:
    make_browser(name)
spans = trace.spans
install_id = spans.names.index("defenses.install")
installs = sum(1 for nid in spans.name_id if nid == install_id)
assert installs == len(names), (installs, names)
"""


def test_perfbench_layer_hooks_install():
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL, os.path.join(ROOT, "perfbench"),
         os.path.join(ROOT, "src")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
