"""A cell's output must not depend on the interpreter's string hashing.

``PYTHONHASHSEED`` changes the iteration order of every ``set`` and
``frozenset`` of strings, so a result that leaks such an order into a
schedule, a verdict or a trace would differ between two interpreters.  Each run below is a
fresh interpreter computing one Table I cell, the ``sab-timer`` ×
``detbrowser`` cube cell and one differential fuzz shard on a serial
engine; the payloads must be equal byte for byte.
"""

import json
import os
import subprocess
import sys

import repro

SRC_PARENT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

SCRIPT = """\
import json
from repro.harness.parallel import Cell, ExperimentEngine

cells = [
    Cell("table1", {"attack": "history-sniffing", "defense": "fuzzyfox", "seed": 0}),
    Cell("cube", {"attack": "sab-timer", "defense": "detbrowser", "seed": 0}),
    Cell(
        "fuzz-diff",
        {
            "attack": "cve-2018-5092",
            "defense": "jskernel",
            "vs": "detbrowser",
            "seed": 0,
            "strategy": "mixed",
            "start": 0,
            "count": 2,
        },
    ),
]
results = ExperimentEngine(cache=None).run(cells)
print(json.dumps([[r.ok, r.payload] for r in results], sort_keys=True))
"""


def payloads_under(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC_PARENT, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    ).stdout


def test_cell_payloads_do_not_depend_on_the_hash_seed():
    first = payloads_under("0")
    assert [ok for ok, _payload in json.loads(first)] == [True, True, True]
    assert payloads_under("12345") == first
