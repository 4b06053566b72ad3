"""CI smoke-job validators, promoted from workflow heredocs.

Every ``*-smoke`` job in ``.github/workflows/ci.yml`` used to carry its
validation logic as an inline ``python - <<'EOF'`` heredoc — unlinted,
untested, and invisible to grep.  This module is the same logic as
importable, unit-tested functions behind one CLI::

    python tools/ci_checks.py trace    /tmp/trace.json
    python tools/ci_checks.py analyze  /tmp/analysis
    python tools/ci_checks.py parallel
    python tools/ci_checks.py fuzz     /tmp/witnesses
    python tools/ci_checks.py cube     /tmp/cube.json \
        --expected tests/golden/cube_expected.json --cdf-out /tmp/cdfs.json
    python tools/ci_checks.py sharedmem /tmp/shm-cube.json \
        --witnesses /tmp/deadlock-witnesses

Each checker raises :class:`CheckFailure` with a human-readable message
on violation and returns an ``ok: ...`` summary line on success; the CLI
prints the summary or the failure and exits 0/1.  Run with
``PYTHONPATH=src`` — the ``parallel``, ``fuzz``, ``cube`` and
``sharedmem`` checkers import :mod:`repro`.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import sys
from typing import List, Optional


class CheckFailure(Exception):
    """A CI validation failed; the message says what and where."""


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise CheckFailure(f"cannot load {path!r}: {exc}")


# ----------------------------------------------------------------------
# trace-smoke: the Chrome trace export is well-formed
# ----------------------------------------------------------------------
def check_trace(path: str) -> str:
    """Validate a ``python -m repro trace`` Chrome-trace JSON export."""
    data = _load(path)
    events = data.get("traceEvents")
    if not events:
        raise CheckFailure(f"{path}: trace has no events")
    real = [e for e in events if e.get("ph") != "M"]
    if not real:
        raise CheckFailure(f"{path}: trace has only metadata events")
    for event in real:
        if not ("ts" in event and "pid" in event and "tid" in event):
            raise CheckFailure(f"{path}: malformed event {event!r}")
    names = [e for e in events if e.get("ph") == "M" and e.get("name") == "thread_name"]
    if not names:
        raise CheckFailure(f"{path}: no thread rows")
    return f"ok: {len(real)} events, {len(names)} thread rows"


# ----------------------------------------------------------------------
# analyze-smoke: baseline leaks, JSKernel doesn't, determinism holds
# ----------------------------------------------------------------------
def check_analyze(directory: str) -> str:
    """Validate the four analyze-smoke reports in ``directory``.

    Expects ``races-baseline.json``, ``races-jskernel.json``,
    ``determinism-jskernel.json`` and ``determinism-baseline.json`` as
    written by the analyze-smoke job.
    """
    baseline = _load(os.path.join(directory, "races-baseline.json"))
    if baseline["race_count"] < 1:
        raise CheckFailure(f"baseline found no races: {baseline['race_count']}")
    patterns = {
        race["pattern"] for run in baseline["runs"] for race in run["races"]
    }
    if "use-after-free" not in patterns:
        raise CheckFailure(f"no use-after-free race in baseline; got {sorted(patterns)}")

    kernel = _load(os.path.join(directory, "races-jskernel.json"))
    if kernel["race_count"] != 0:
        raise CheckFailure(f"jskernel reported {kernel['race_count']} races (expected 0)")

    det = _load(os.path.join(directory, "determinism-jskernel.json"))
    if not det["deterministic"] or det["divergence"] != 0:
        raise CheckFailure(f"jskernel schedule not deterministic: {det}")
    if det["schedule_length"] <= 0:
        raise CheckFailure(f"jskernel audit saw an empty schedule: {det}")

    base_det = _load(os.path.join(directory, "determinism-baseline.json"))
    if base_det["divergence"] <= 0:
        raise CheckFailure(f"baseline schedule unexpectedly seed-independent: {base_det}")

    return (
        f"ok: baseline races {baseline['race_count']} | jskernel races 0 | "
        f"jskernel divergence 0 | baseline divergence {base_det['divergence']}"
    )


# ----------------------------------------------------------------------
# parallel-smoke: a sharded matrix equals the serial one
# ----------------------------------------------------------------------
PARALLEL_ATTACKS = ["cache-attack", "clock-edge", "cve-2018-5092"]
PARALLEL_DEFENSES = ["legacy-chrome", "deterfox", "jskernel"]


def check_parallel(workers: int = 2) -> str:
    """Run a matrix subset serially and sharded; they must be identical."""
    from repro.harness import run_table1

    serial = run_table1(attacks=PARALLEL_ATTACKS, defenses=PARALLEL_DEFENSES)
    sharded = run_table1(
        attacks=PARALLEL_ATTACKS, defenses=PARALLEL_DEFENSES, parallel=workers
    )
    if sharded.matrix != serial.matrix:
        raise CheckFailure("parallel matrix diverged from the serial run")
    if sharded.details != serial.details:
        raise CheckFailure("parallel details diverged from the serial run")
    if serial.errors or sharded.errors:
        raise CheckFailure(f"cell errors: {serial.errors + sharded.errors}")
    cells = len(PARALLEL_ATTACKS) * len(PARALLEL_DEFENSES)
    return f"ok: {cells} cells identical under --parallel {workers}"


# ----------------------------------------------------------------------
# fuzz-smoke: a witness exists, was minimised, and replays
# ----------------------------------------------------------------------
def check_fuzz(directory: str) -> str:
    """Validate the fuzz-smoke witness directory and replay the first."""
    from repro.explore import replay_witness
    from repro.explore.oracles import signature

    paths = sorted(glob.glob(os.path.join(directory, "*.json")))
    if not paths:
        raise CheckFailure(f"fuzz campaign produced no witness files in {directory!r}")
    witness = _load(paths[0])
    if not witness.get("signature"):
        raise CheckFailure(f"{paths[0]}: witness has no failure signature")
    if "minimized" not in witness:
        raise CheckFailure(f"{paths[0]}: witness was not minimised")
    stats = witness["minimized"]
    if stats["atoms_after"] > stats["atoms_before"]:
        raise CheckFailure(f"{paths[0]}: minimisation grew the witness: {stats}")

    first = replay_witness(witness)
    second = replay_witness(witness)
    if first != second:
        raise CheckFailure("witness replay diverged between runs")
    if signature(first) != witness["signature"]:
        raise CheckFailure(
            f"witness signature drifted: {signature(first)} != {witness['signature']}"
        )
    return (
        f"ok: {len(paths)} witnesses; {paths[0]} replays "
        f"signature {witness['signature']} twice"
    )


# ----------------------------------------------------------------------
# cube-smoke: the cube matches the committed expected-verdict fixture
# ----------------------------------------------------------------------
def check_cube(
    path: str,
    expected_path: str,
    cdf_out: Optional[str] = None,
) -> str:
    """Compare a cube JSON dump against the committed fixture.

    The fixture pins the verdict grid and the pair's verdict-divergent
    cells — the stable facts; overhead numbers vary with the runner, so
    only their *presence* is asserted.  ``cdf_out`` extracts the per-cell
    overhead CDFs into a standalone artifact file.
    """
    cube = _load(path)
    expected = _load(expected_path)

    for axis in ("attacks", "defenses", "pair", "seed"):
        if cube.get(axis) != expected.get(axis):
            raise CheckFailure(
                f"cube {axis} mismatch: {cube.get(axis)!r} != {expected.get(axis)!r}"
            )
    if cube["verdicts"] != expected["verdicts"]:
        drift = [
            f"{attack} vs {defense}: got {got}, expected "
            f"{expected['verdicts'][attack][defense]}"
            for attack, row in cube["verdicts"].items()
            for defense, got in row.items()
            if got != expected["verdicts"].get(attack, {}).get(defense)
        ]
        raise CheckFailure("verdict drift:\n  " + "\n  ".join(drift))

    want_divergent = [c for c in expected["divergent"] if c["kind"] == "verdict"]
    have_divergent = [c for c in cube["divergent"] if c["kind"] == "verdict"]
    if not want_divergent:
        raise CheckFailure(f"{expected_path}: fixture pins no verdict-divergent cells")
    if have_divergent != want_divergent:
        raise CheckFailure(
            f"divergent cells drifted: {have_divergent!r} != {want_divergent!r}"
        )
    if cube.get("errors"):
        raise CheckFailure(f"cube had cell errors: {cube['errors']}")

    missing = [
        f"{attack} vs {defense}"
        for attack, row in cube["overhead"].items()
        for defense, profile in row.items()
        if not profile.get("queue_delay", {}).get("cdf")
    ]
    if missing:
        raise CheckFailure("cells missing a queue-delay CDF: " + ", ".join(missing))

    if cdf_out:
        cdfs = {
            attack: {
                defense: {
                    family: profile[family]
                    for family in ("queue_delay", "kernel_confirm", "kernel_dispatch")
                    if family in profile
                }
                for defense, profile in row.items()
            }
            for attack, row in cube["overhead"].items()
        }
        with open(cdf_out, "w", encoding="utf-8") as handle:
            json.dump(cdfs, handle, indent=2, sort_keys=True)
            handle.write("\n")

    cells = sum(len(row) for row in cube["verdicts"].values())
    return (
        f"ok: {cells} cells match {expected_path}; "
        f"{len(have_divergent)} verdict-divergent cells pinned"
        + (f"; wrote {cdf_out}" if cdf_out else "")
    )


# ----------------------------------------------------------------------
# sharedmem-smoke: the shared-memory scenario cube + deadlock fuzz chain
# ----------------------------------------------------------------------
#: The shared-memory scenario rows the smoke cube must carry.
SHAREDMEM_ATTACKS = [
    "shm-toctou",
    "shm-toctou-locked",
    "lock-order-deadlock",
    "gc-vs-mutator",
    "counter-thread-clock",
]

#: Verdict pins per scenario (attack -> defense -> defended?).  These are
#: the stable facts the PR's experiments rest on, including the pinned
#: expected-failure: fuzzyfox (clock interposition) does NOT stop the
#: counter-thread clock, while jskernel/detbrowser (memory mediation) do.
SHAREDMEM_EXPECTED = {
    "shm-toctou": {
        "legacy-chrome": False, "fuzzyfox": False,
        "jskernel": False, "detbrowser": False,
    },
    "shm-toctou-locked": {
        "legacy-chrome": True, "fuzzyfox": True,
        "jskernel": True, "detbrowser": True,
    },
    "lock-order-deadlock": {
        "legacy-chrome": False, "fuzzyfox": False,
        "jskernel": True, "detbrowser": False,
    },
    "gc-vs-mutator": {
        "legacy-chrome": False, "fuzzyfox": False,
        "jskernel": True, "detbrowser": False,
    },
    "counter-thread-clock": {
        "legacy-chrome": False, "fuzzyfox": False,
        "jskernel": True, "detbrowser": True,
    },
}


def check_sharedmem(path: str, witness_dir: str) -> str:
    """Validate the sharedmem-smoke cube dump and deadlock fuzz output.

    ``path`` is a ``python -m repro cube --attacks <sharedmem rows>``
    JSON dump; ``witness_dir`` is the ``python -m repro fuzz --attack
    lock-order-deadlock`` output directory.  Checks: every scenario row
    is present with its pinned verdicts (including the counter-thread
    clock's fuzzyfox bypass), each cell carries a queue-delay overhead
    CDF, the deadlock detail names the cycle and the kernel veto names
    the policy, and the first deadlock witness was minimised and replays
    to a signature containing ``deadlock``.
    """
    cube = _load(path)

    verdicts = cube.get("verdicts", {})
    for attack in SHAREDMEM_ATTACKS:
        if attack not in verdicts:
            raise CheckFailure(f"{path}: cube is missing the {attack!r} row")
    drift = [
        f"{attack} vs {defense}: got {verdicts[attack].get(defense)!r}, "
        f"expected {expected}"
        for attack, row in SHAREDMEM_EXPECTED.items()
        for defense, expected in row.items()
        if verdicts[attack].get(defense) is not expected
    ]
    if drift:
        raise CheckFailure("sharedmem verdict drift:\n  " + "\n  ".join(drift))
    if cube.get("errors"):
        raise CheckFailure(f"{path}: cube had cell errors: {cube['errors']}")

    details = cube.get("details", {})
    deadlock_row = details.get("lock-order-deadlock", {})
    if not deadlock_row.get("legacy-chrome", "").startswith("deadlock:"):
        raise CheckFailure(
            "legacy-chrome deadlock detail does not name the cycle: "
            f"{deadlock_row.get('legacy-chrome')!r}"
        )
    if "lock-order policy" not in deadlock_row.get("jskernel", ""):
        raise CheckFailure(
            "jskernel deadlock detail does not name the ordering veto: "
            f"{deadlock_row.get('jskernel')!r}"
        )

    missing = [
        f"{attack} vs {defense}"
        for attack in SHAREDMEM_ATTACKS
        for defense, profile in cube.get("overhead", {}).get(attack, {}).items()
        if not profile.get("queue_delay", {}).get("cdf")
    ]
    if missing:
        raise CheckFailure(
            "sharedmem cells missing a queue-delay CDF: " + ", ".join(missing)
        )

    from repro.explore import replay_witness
    from repro.explore.oracles import signature

    paths = sorted(glob.glob(os.path.join(witness_dir, "*.json")))
    if not paths:
        raise CheckFailure(f"deadlock fuzz produced no witnesses in {witness_dir!r}")
    witness = _load(paths[0])
    if "deadlock" not in witness.get("signature", []):
        raise CheckFailure(
            f"{paths[0]}: witness signature lacks 'deadlock': "
            f"{witness.get('signature')!r}"
        )
    if "minimized" not in witness:
        raise CheckFailure(f"{paths[0]}: deadlock witness was not minimised")
    replayed = replay_witness(witness)
    if signature(replayed) != witness["signature"]:
        raise CheckFailure(
            f"deadlock witness signature drifted on replay: "
            f"{signature(replayed)} != {witness['signature']}"
        )

    cells = sum(len(SHAREDMEM_EXPECTED[a]) for a in SHAREDMEM_ATTACKS)
    return (
        f"ok: {cells} sharedmem cells pinned (counter-thread clock bypasses "
        f"fuzzyfox); deadlock witness {os.path.basename(paths[0])} replays "
        f"signature {witness['signature']}"
    )


# ----------------------------------------------------------------------
# telemetry-smoke: the JSONL run log is well-formed and balanced
# ----------------------------------------------------------------------
def check_runlog(path: str) -> str:
    """Validate a ``--runlog`` JSONL run log.

    Every line must parse as a JSON object with ``ev``/``ts``/``pid``;
    the log must open with ``run_begin`` and close with ``run_end``;
    span begin/end records must balance per ``(pid, span)``; and at
    least one per-cell outcome (``engine.cell`` point) must appear.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise CheckFailure(f"cannot read {path!r}: {exc}")
    if not lines:
        raise CheckFailure(f"{path}: run log is empty")

    records = []
    for number, line in enumerate(lines, start=1):
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise CheckFailure(f"{path}:{number}: not JSON: {exc}")
        if not isinstance(record, dict):
            raise CheckFailure(f"{path}:{number}: record is not an object")
        for key in ("ev", "ts", "pid"):
            if key not in record:
                raise CheckFailure(f"{path}:{number}: record missing {key!r}")
        records.append(record)

    events = [record["ev"] for record in records]
    if "run_begin" not in events:
        raise CheckFailure(f"{path}: no run_begin record")
    if "run_end" not in events:
        raise CheckFailure(f"{path}: no run_end record (session did not close)")

    open_spans = {}
    spans = 0
    for record in records:
        if record["ev"] == "span_begin":
            open_spans[(record["pid"], record["span"])] = record.get("name")
            spans += 1
        elif record["ev"] == "span_end":
            key = (record["pid"], record["span"])
            if key not in open_spans:
                raise CheckFailure(f"{path}: span_end without begin: {record}")
            if "dur_s" not in record:
                raise CheckFailure(f"{path}: span_end without dur_s: {record}")
            del open_spans[key]
    if open_spans:
        dangling = sorted(f"{name} pid={pid} span={span}" for (pid, span), name in open_spans.items())
        raise CheckFailure(f"{path}: unclosed spans: " + ", ".join(dangling))

    cell_points = sum(
        1
        for record in records
        if record["ev"] == "point" and record.get("name") == "engine.cell"
    )
    if cell_points == 0:
        raise CheckFailure(f"{path}: no engine.cell outcome records")

    pids = {record["pid"] for record in records}
    return (
        f"ok: {len(records)} records, {spans} spans balanced, "
        f"{cell_points} cell outcomes across {len(pids)} processes"
    )


# ----------------------------------------------------------------------
# telemetry-smoke: the merged snapshot and Prometheus export make sense
# ----------------------------------------------------------------------
def check_telemetry(json_path: str, prom_path: Optional[str] = None) -> str:
    """Validate a ``--telemetry-out`` JSON report (+ Prometheus sibling).

    Schema checks: version/command/engine/cache/metrics/run sections;
    the engine accounting must balance (``cells == computed + cached``);
    histogram snapshots must carry the explicit ``overflow`` key.  When
    ``prom_path`` is given, every non-comment line must match the
    ``name{labels} value`` exposition grammar and the ``repro_engine_*``
    series must be present.
    """
    report = _load(json_path)
    for section in ("version", "command", "engine", "cache", "metrics", "run"):
        if section not in report:
            raise CheckFailure(f"{json_path}: missing section {section!r}")
    engine = report["engine"]
    for key in ("cells", "computed", "cached", "errors"):
        if key not in engine:
            raise CheckFailure(f"{json_path}: engine section missing {key!r}")
    if engine["cells"] != engine["computed"] + engine["cached"]:
        raise CheckFailure(
            f"{json_path}: engine accounting does not balance: "
            f"cells={engine['cells']} != computed={engine['computed']} "
            f"+ cached={engine['cached']}"
        )
    metrics = report["metrics"]
    for section in ("counters", "gauges", "histograms"):
        if section not in metrics:
            raise CheckFailure(f"{json_path}: metrics section missing {section!r}")
    for name, data in metrics["histograms"].items():
        if len(data.get("counts", [])) != len(data.get("bounds", [])) + 1:
            raise CheckFailure(
                f"{json_path}: histogram {name!r} counts/bounds length mismatch"
            )
    for name, data in metrics.get("sketches", {}).items():
        if data["count"] < 0 or data["count"] != (
            data["zero"]
            + sum(weight for _i, weight, _s in data["pos"])
            + sum(weight for _i, weight, _s in data["neg"])
        ):
            raise CheckFailure(f"{json_path}: sketch {name!r} weights do not sum to count")

    summary = (
        f"ok: {engine['cells']} cells ({engine['computed']} computed, "
        f"{engine['cached']} cached), {len(metrics['histograms'])} histograms, "
        f"{len(metrics.get('sketches', {}))} sketches"
    )
    if not prom_path:
        return summary

    try:
        with open(prom_path, "r", encoding="utf-8") as handle:
            prom_lines = handle.read().splitlines()
    except OSError as exc:
        raise CheckFailure(f"cannot read {prom_path!r}: {exc}")
    sample_re = re.compile(
        r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
        r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?[0-9eE.+NaInf-]+$'
    )
    samples = 0
    for number, line in enumerate(prom_lines, start=1):
        if not line or line.startswith("#"):
            continue
        if not sample_re.match(line):
            raise CheckFailure(f"{prom_path}:{number}: bad exposition line: {line!r}")
        samples += 1
    if samples == 0:
        raise CheckFailure(f"{prom_path}: no samples")
    if not any(line.startswith("repro_engine_cells") for line in prom_lines):
        raise CheckFailure(f"{prom_path}: repro_engine_cells series missing")
    return summary + f"; {samples} Prometheus samples"


# ----------------------------------------------------------------------
# serve-smoke: a streamed job's frame log is well-formed and complete
# ----------------------------------------------------------------------
def check_serve(path: str) -> str:
    """Validate a captured ``repro serve`` frame stream (JSONL).

    The file is what ``python -m repro serve --submit ... --out FILE``
    writes: every frame the server streamed for one job.  Checks: every
    line is a JSON object with ``type`` and ``ts``; the stream opens
    with ``accepted`` and ends with ``done``; ``result`` frames carry
    monotonically increasing ``seq``; at least one ``telemetry`` frame
    appears with the progress schema (``done``/``errors``/``cached``/
    ``computed``/``quantiles``) and non-decreasing ``done`` counts; and
    the final report's accounting balances (``pages + errors ==
    computed + cache_hits`` for population jobs).
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle.read().splitlines() if line.strip()]
    except OSError as exc:
        raise CheckFailure(f"cannot read {path!r}: {exc}")
    if not lines:
        raise CheckFailure(f"{path}: no frames captured")

    frames = []
    for number, line in enumerate(lines, start=1):
        try:
            frame = json.loads(line)
        except ValueError as exc:
            raise CheckFailure(f"{path}:{number}: not JSON: {exc}")
        if not isinstance(frame, dict):
            raise CheckFailure(f"{path}:{number}: frame is not an object")
        for key in ("type", "ts"):
            if key not in frame:
                raise CheckFailure(f"{path}:{number}: frame missing {key!r}")
        frames.append(frame)

    first, last = frames[0], frames[-1]
    if first["type"] != "accepted" or not first.get("job"):
        raise CheckFailure(f"{path}: stream does not open with an accepted frame: {first}")
    if last["type"] != "done":
        raise CheckFailure(f"{path}: stream does not end with a done frame: {last['type']}")
    job = first["job"]
    for number, frame in enumerate(frames[1:], start=2):
        if frame.get("job") != job:
            raise CheckFailure(f"{path}:{number}: frame for wrong job: {frame.get('job')!r}")

    previous_seq = -1
    results = 0
    for frame in frames:
        if frame["type"] != "result":
            continue
        results += 1
        seq = frame.get("seq")
        if not isinstance(seq, int) or seq <= previous_seq:
            raise CheckFailure(
                f"{path}: result seq not monotonically increasing: "
                f"{seq!r} after {previous_seq}"
            )
        previous_seq = seq

    telemetry = [frame for frame in frames if frame["type"] == "telemetry"]
    if not telemetry:
        raise CheckFailure(f"{path}: no telemetry frames in the stream")
    previous_done = 0
    for frame in telemetry:
        for key in ("done", "errors", "cached", "computed", "quantiles"):
            if key not in frame:
                raise CheckFailure(f"{path}: telemetry frame missing {key!r}: {frame}")
        if not isinstance(frame["quantiles"], dict):
            raise CheckFailure(f"{path}: telemetry quantiles is not an object")
        if frame["done"] < previous_done:
            raise CheckFailure(
                f"{path}: telemetry done went backwards: "
                f"{frame['done']} after {previous_done}"
            )
        previous_done = frame["done"]

    report = last.get("report")
    if not isinstance(report, dict):
        raise CheckFailure(f"{path}: done frame has no report object")
    if "pages" in report:  # population jobs: accounting must balance
        measured = report["pages"] + len(report.get("errors", [])) \
            + report.get("error_overflow", 0)
        executed = report.get("computed", 0) + report.get("cache_hits", 0)
        if measured != executed:
            raise CheckFailure(
                f"{path}: report accounting does not balance: "
                f"{measured} outcomes != {executed} executed cells"
            )

    return (
        f"ok: {len(frames)} frames for {job} ({results} results, "
        f"{len(telemetry)} telemetry snapshots, final done={previous_done})"
    )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ci_checks", description="CI smoke-job validators"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_trace = sub.add_parser("trace", help="validate a Chrome trace export")
    p_trace.add_argument("path", help="trace JSON file")

    p_analyze = sub.add_parser("analyze", help="validate the analyze-smoke reports")
    p_analyze.add_argument("directory", help="directory holding the four reports")

    p_parallel = sub.add_parser("parallel", help="sharded matrix equals serial")
    p_parallel.add_argument("--workers", type=int, default=2)

    p_fuzz = sub.add_parser("fuzz", help="validate fuzz witnesses and replay one")
    p_fuzz.add_argument("directory", help="witness directory")

    p_cube = sub.add_parser("cube", help="compare a cube dump against the fixture")
    p_cube.add_argument("path", help="cube JSON dump")
    p_cube.add_argument("--expected", required=True, help="committed fixture JSON")
    p_cube.add_argument("--cdf-out", default=None, help="write overhead CDFs here")

    p_runlog = sub.add_parser("runlog", help="validate a JSONL run log")
    p_runlog.add_argument("path", help="run-log JSONL file (--runlog output)")

    p_telemetry = sub.add_parser(
        "telemetry", help="validate a telemetry JSON report (+ Prometheus export)"
    )
    p_telemetry.add_argument("path", help="telemetry JSON report (--telemetry-out)")
    p_telemetry.add_argument(
        "--prom", default=None, help="Prometheus text export to validate too"
    )

    p_serve = sub.add_parser(
        "serve", help="validate a captured serve frame stream (JSONL)"
    )
    p_serve.add_argument("path", help="frame JSONL file (serve --submit --out)")

    p_sharedmem = sub.add_parser(
        "sharedmem", help="validate the sharedmem cube + deadlock fuzz chain"
    )
    p_sharedmem.add_argument("path", help="sharedmem cube JSON dump")
    p_sharedmem.add_argument(
        "--witnesses", required=True, help="deadlock fuzz witness directory"
    )

    opts = parser.parse_args(argv)
    try:
        if opts.command == "trace":
            summary = check_trace(opts.path)
        elif opts.command == "analyze":
            summary = check_analyze(opts.directory)
        elif opts.command == "parallel":
            summary = check_parallel(opts.workers)
        elif opts.command == "fuzz":
            summary = check_fuzz(opts.directory)
        elif opts.command == "runlog":
            summary = check_runlog(opts.path)
        elif opts.command == "telemetry":
            summary = check_telemetry(opts.path, prom_path=opts.prom)
        elif opts.command == "serve":
            summary = check_serve(opts.path)
        elif opts.command == "sharedmem":
            summary = check_sharedmem(opts.path, opts.witnesses)
        else:
            summary = check_cube(opts.path, opts.expected, cdf_out=opts.cdf_out)
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    print(summary)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
