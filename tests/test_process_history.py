"""A cell's output must not depend on the process that computed it.

The product is "a cell's output depends only on its parameters": not on
the worker count, not on the cell order, not on what ran earlier in the
same interpreter.  Two layers of defence:

* a property test running one Table I cell and one differential fuzz
  shard in three process histories — a fresh interpreter, the same
  process after other cells of mixed attacks and defenses, and a serial
  engine run over a shuffled cell list — and requiring identical
  payloads and Chrome-trace digests;
* a static AST scan rejecting process-global id streams in
  ``src/repro``: module-level or class-body ``itertools.count(...)``
  and ``next()`` on a module global.  Every identity comes from the
  run's ``Simulator.next_object_seq`` or from the push counter of the
  queue that holds the entry; instance counters (timer and rAF handles,
  heap addresses) are per-run by construction and stay legal.
"""

import ast
import hashlib
import json
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from unittest import mock

import repro
from repro.explore import oracles
from repro.harness.parallel import _RUNNERS, Cell, ExperimentEngine, _jsonify
from repro.trace import Tracer, capture
from repro.trace.export import dump_chrome_trace

SRC_ROOT = os.path.dirname(os.path.abspath(repro.__file__))
#: The directory holding the ``tests`` package (the fresh interpreter
#: imports :func:`probe_targets` from there).
TESTS_PARENT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The cells whose output must not depend on process history.
TARGETS = [
    Cell("table1", {"attack": "cve-2018-5092", "defense": "jskernel", "seed": 0}),
    Cell(
        "fuzz-diff",
        {
            "attack": "image-decoding",
            "defense": "jskernel",
            "vs": "detbrowser",
            "seed": 0,
            "strategy": "mixed",
            "start": 0,
            "count": 2,
        },
    ),
]

#: Earlier work in the same process: tasks, kernel events, workers,
#: kthreads, network requests and CSS animations under mixed defenses.
HISTORY = [
    Cell("table1", {"attack": attack, "defense": defense, "seed": 0})
    for attack, defense in [
        ("cache-attack", "legacy-chrome"),
        ("cve-2018-5092", "legacy-chrome"),
        ("css-animation", "fuzzyfox"),
        ("cve-2014-1488", "jskernel"),
        ("sab-timer", "detbrowser"),
        ("clock-edge", "jskernel"),
        ("loopscan", "jskernel"),
    ]
] + [
    Cell("cube", {"attack": "css-animation", "defense": "jskernel", "seed": 1}),
    Cell(
        "fuzz-diff",
        {
            "attack": "sab-timer",
            "defense": "jskernel",
            "vs": "detbrowser",
            "seed": 1,
            "strategy": "mixed",
            "start": 0,
            "count": 1,
        },
    ),
]


@contextmanager
def _recording_trial_traces(exports):
    """Append the Chrome export of every fuzz trial's private capture."""
    traced_run = oracles.traced_run

    def recording(*args, **kwargs):
        tracer, outcome = traced_run(*args, **kwargs)
        exports.append(dump_chrome_trace(tracer))
        return tracer, outcome

    with mock.patch.object(oracles, "traced_run", recording):
        yield


def probe(runner, params):
    """Run one cell; return its payload and the sha256 of its traces.

    The digest covers the ambient Chrome-trace capture plus, for fuzz
    shards, every trial's private traced run, in order.
    """
    tracer = Tracer()
    exports = []
    with capture(tracer), _recording_trial_traces(exports):
        payload = _jsonify(runner(**params))
    digest = hashlib.sha256()
    for export in [dump_chrome_trace(tracer)] + exports:
        digest.update(export.encode("utf-8"))
    return {"payload": payload, "trace_sha256": digest.hexdigest()}


def probe_targets():
    """Probe every target cell, keyed by its label."""
    return {cell.label(): probe(_RUNNERS[cell.kind], cell.params) for cell in TARGETS}


def test_cell_output_does_not_depend_on_process_history(monkeypatch):
    # 1. a fresh interpreter whose first work is the target cells
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.dirname(SRC_ROOT), TESTS_PARENT]))
    script = (
        "import json\n"
        "from tests.test_process_history import probe_targets\n"
        "print(json.dumps(probe_targets(), sort_keys=True))\n"
    )
    fresh = json.loads(
        subprocess.run(
            [sys.executable, "-c", script],
            cwd=TESTS_PARENT,
            env=env,
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        ).stdout
    )
    assert set(fresh) == {cell.label() for cell in TARGETS}
    assert fresh[TARGETS[1].label()]["payload"]["trials"] == 2

    # 2. this process, after other cells of mixed attacks and defenses
    for cell in HISTORY:
        _RUNNERS[cell.kind](**cell.params)
    assert _jsonify(probe_targets()) == fresh

    # 3. a serial engine over a shuffled campaign, every cell probed
    for kind in {cell.kind for cell in TARGETS + HISTORY}:
        monkeypatch.setitem(
            _RUNNERS, kind, lambda _run=_RUNNERS[kind], **params: probe(_run, params)
        )
    cells = TARGETS + HISTORY
    random.Random(19).shuffle(cells)
    assert cells[0] not in TARGETS
    results = ExperimentEngine().run(cells)
    assert all(result.ok for result in results), [r.error for r in results]
    shuffled = {r.cell.label(): r.payload for r in results if r.cell in TARGETS}
    assert shuffled == fresh


# ----------------------------------------------------------------------
# guard: no process-global id streams
# ----------------------------------------------------------------------

def _repro_sources():
    for dirpath, dirnames, filenames in os.walk(SRC_ROOT):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def _outside_functions(tree):
    """Every node not nested in a function or lambda body."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                stack.append(child)


def _module_globals(tree):
    """Names bound by assignments at module level (not in a def or class)."""
    names = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # if/try/with blocks at module level still bind module globals
            stack.extend(n for n in ast.iter_child_nodes(node) if isinstance(n, ast.stmt))
    return names


def _is_count_call(node, count_aliases):
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return (
            func.attr == "count"
            and isinstance(func.value, ast.Name)
            and func.value.id == "itertools"
        )
    return isinstance(func, ast.Name) and func.id in count_aliases


def global_id_streams(path):
    """``path:line`` findings of process-global id streams in one module."""
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    count_aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "itertools"
        for alias in node.names
        if alias.name == "count"
    }
    offenders = [
        f"{path}:{node.lineno} module/class-level itertools.count"
        for node in sorted(_outside_functions(tree), key=lambda n: getattr(n, "lineno", 0))
        if _is_count_call(node, count_aliases)
    ]
    module_globals = _module_globals(tree)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "next"
        ):
            used = {
                n.id
                for arg in node.args
                for n in ast.walk(arg)
                if isinstance(n, ast.Name) and n.id in module_globals
            }
            offenders.extend(f"{path}:{node.lineno} next() on global {name}" for name in sorted(used))
    return offenders


def test_no_process_global_id_streams():
    offenders = []
    for path in _repro_sources():
        offenders.extend(global_id_streams(path))
    assert offenders == [], "process-global id streams:\n" + "\n".join(offenders)


def test_guard_flags_global_streams_and_allows_instance_counters(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "import itertools\n"
        "from itertools import count as ticker\n"
        "_ids = itertools.count(1)\n"
        "_more = ticker()\n"
        "class Thing:\n"
        "    _seq = itertools.count()\n"
        "    def __init__(self):\n"
        "        self.id = next(_ids)\n"
        "        self._handles = itertools.count(1)\n"
        "        self.handle = next(self._handles)\n",
        encoding="utf-8",
    )
    found = [line.split(" ", 1)[1] for line in global_id_streams(str(path))]
    assert found == [
        "module/class-level itertools.count",
        "module/class-level itertools.count",
        "module/class-level itertools.count",
        "next() on global _ids",
    ]
