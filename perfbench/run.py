"""The repository benchmark: Table I, differential fuzzing, population sweep.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 36 --trace 0

Workloads (see ``perfbench/workloads.py``):

* ``table1``     -- ``run_table1()`` over all 176 cells, tracer off;
* ``fuzz-diff``  -- ``run_diff_campaign()``, jskernel vs detbrowser;
* ``population`` -- ``population_sweep(size, mode="model")``.

All run serially with the result cache off.  Every pass runs in a fresh
interpreter (``perfbench/worker.py``) with stray ``REPRO_*`` variables
removed, so no pass sees another's imports, caches or heap.  Passes
repeat until ``--seconds`` is used up.

* ``--trace 0`` prints the end-to-end metrics: ``setup_s`` (process
  start until the engine admits the first cell), ``wall_s`` (one pass:
  the harness call, from call to return), ``items_per_s`` (cells,
  trials or pages of a pass over ``wall_s``), ``peak_rss_mb``
  (``ru_maxrss`` of a pass, median) and ``output_match`` (share of
  passes whose output equals the reference);
* ``--trace 1`` alternates untraced and traced passes and prints the
  per-layer metrics of ``perfbench/layers.py`` (medians over traced
  passes) plus ``bench.trace_overhead``, traced over untraced ``wall_s``.
  The spans of the last traced pass are written to
  ``.perfbench/spans-<workload>.bin``.

Times on a shared host.  Other tenants only ever add time, in bursts
of seconds, and they add a lot: pass times on a 2-core VM spread by
15-60%.  So ``setup_s`` is the fastest pass of the run, and ``wall_s``
sums, over segments of consecutive cells, each segment's fastest pass
(see :func:`best_wall`).  All times are then scaled by the host speed
the run measured with ``perfbench/calibrate.py`` (fastest calibration
job over all passes), so a host that is slower for an hour does not
read as a regression.

Outputs are checked against ``perfbench/references.json`` (sha256 of
the whole output, pinned per workload, size and seed from an unchanged
tree).  A seed with no pinned reference is checked against the first
pass and against invariants that hold for every seed.  Any mismatch
prints ``"correct": false`` and exits 1.

``--pin SEEDS`` (e.g. ``0-15``) recomputes and stores references
instead of measuring; ``--size N`` shrinks a pass (smoke tests) and
``--reference FILE`` reads or writes another reference file.

Deliberately left out: the process-pool path (``--parallel``) and the
warm-cache path, which cannot be measured steadily on a 2-core host.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
REFERENCES = os.path.join(HERE, "references.json")

sys.path.insert(0, HERE)
import calibrate  # noqa: E402
from layers import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Wall-clock limit for one pass; a hung pass is killed and counted failed.
PASS_TIMEOUT_S = 150
#: Passes per run even when ``--seconds`` is shorter than two passes
#: (the cross-pass determinism check needs a second pass).
MIN_PASSES = 2
#: Units of the per-layer metrics that are times (scaled like wall_s).
TIME_UNITS = ("s", "ms", "ns")


def child_env(workload) -> dict:
    """A clean environment: no ``REPRO_*`` knobs but the workload's own."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(workload.env)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(workload, seed: int, size: int, trace: bool, env: dict) -> dict:
    """One pass in a fresh interpreter; returns the worker's report."""
    spans_out = os.path.join(OUT_DIR, f"spans-{workload.name}.bin")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload.name,
           str(seed), str(size), "1" if trace else "0", spans_out]
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"pass timed out after {PASS_TIMEOUT_S}s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"error": f"worker exited {proc.returncode}: " + " | ".join(tail)}
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["elapsed_s"] = time.monotonic() - launched
    report["setup_s"] = report["first_cell_at"] - launched
    return report


def ref_key(workload, size: int, seed: int) -> str:
    return f"{workload.name}/size={size}/seed={seed}"


def load_references(path: str) -> dict:
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def best_wall(passes) -> float:
    """One pass's wall time with host interference filtered out (s).

    Passes report their wall time as segments of consecutive cells, the
    same segments in every pass; the sum over segments of each one's
    fastest pass is steady even when no single pass ran undisturbed.
    """
    if len({len(p["segments_ns"]) for p in passes}) != 1:
        return min(p["wall_s"] for p in passes)
    return sum(map(min, zip(*(p["segments_ns"] for p in passes)))) / 1e9


def measure(workload, seed: int, size: int, seconds: int, trace: bool, references: dict):
    """Run passes for ``seconds`` and build the final result line
    (``None`` when no pass of a needed kind succeeded)."""
    env = child_env(workload)
    passes = []
    start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append((traced, run_pass(workload, seed, size, traced, env)))
        elapsed = time.monotonic() - start
        last = passes[-1][1].get("elapsed_s", elapsed / len(passes))
        if len(passes) >= MIN_PASSES and elapsed + last > seconds:
            break

    expected = references.get(ref_key(workload, size, seed), {}).get("digest")
    ok = [(traced, p) for traced, p in passes if "error" not in p]
    if expected is None and ok:
        expected = ok[0][1]["digest"]
    attempted = failed = matched = 0
    problems = []
    for _traced, p in passes:
        if "error" in p:
            problems.append(p["error"])
            continue
        attempted += p["items"]
        failed += p["failed"]
        problems.extend(p["problems"])
        if p["digest"] != expected:
            problems.append(f"output digest {p['digest'][:12]} != reference {expected[:12]}")
        elif not p["problems"]:
            matched += 1
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)

    untraced = [p for traced, p in ok if not traced]
    traced_passes = [p for traced, p in ok if traced]
    if not untraced or (trace and not traced_passes):
        return None
    speed = calibrate.NOMINAL_S / min(p["calibration_s"] for _t, p in ok)
    wall_s = best_wall(untraced) * speed
    if trace:
        metrics = {}
        for name, unit, _better, _moves, _where in LAYER_METRICS:
            if name == "bench.trace_overhead":
                value = best_wall(traced_passes) * speed / wall_s
            else:
                value = statistics.median(p["layers"][name] for p in traced_passes)
                if unit in TIME_UNITS:
                    value *= speed
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "setup_s": {"value": min(p["setup_s"] for p in untraced) * speed, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "items_per_s": {"value": untraced[0]["items"] / wall_s, "unit": "1/s"},
            "peak_rss_mb": {
                "value": statistics.median(p["peak_rss_mb"] for p in untraced), "unit": "MB",
            },
            "output_match": {"value": matched / len(passes), "unit": "ratio"},
        }
    return {
        "correct": not problems and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed + (len(passes) - len(ok)),
        "metrics": metrics,
    }


def pin(workload, seeds, size: int, path: str) -> None:
    """Recompute and store the reference output for each seed."""
    references = load_references(path)
    env = child_env(workload)
    for seed in seeds:
        report = run_pass(workload, seed, size, False, env)
        if "error" in report or report["problems"]:
            raise SystemExit(f"seed {seed}: {report.get('error') or report['problems']}")
        references[ref_key(workload, size, seed)] = {
            "digest": report["digest"], "summary": report["summary"],
        }
        print(f"pinned {ref_key(workload, size, seed)}: {report['digest'][:12]}", file=sys.stderr)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(references, handle, indent=1, sort_keys=True)
        handle.write("\n")


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=None)
    parser.add_argument("--reference", default=REFERENCES)
    parser.add_argument("--pin", metavar="SEEDS", default=None)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    size = workload.default_size if args.size is None else args.size
    os.makedirs(OUT_DIR, exist_ok=True)
    # byte-compile up front so no pass pays for it inside setup_s
    for tree in (SRC, HERE):
        compileall.compile_dir(tree, quiet=1)

    if args.pin is not None:
        pin(workload, parse_seeds(args.pin), size, args.reference)
        return 0
    result = measure(workload, args.seed, size, args.seconds, bool(args.trace),
                     load_references(args.reference))
    if result is None:
        print("error: no pass succeeded; nothing to report", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
