"""One benchmark pass in a fresh interpreter (started by ``run.py``).

Usage: ``python3 perfbench/worker.py WORKLOAD SEED SIZE TRACE SPANS_OUT``
with the repository's ``src`` on ``PYTHONPATH``.  Prints one JSON line:
when the first cell was admitted (``time.monotonic``, comparable with
the parent's clock), the pass's wall time split into segments of
consecutive cells, peak RSS, the calibration job's time, the workload's
evaluation and, for a traced pass, the per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import calibrate
from workloads import WORKLOADS

#: Timed runs of the calibration job per pass (the fastest counts).
CALIBRATION_RUNS = 8
#: The pass's wall time is reported as at most this many segments.
SEGMENTS = 100


def _clock_cells(kind: str) -> list:
    """Timestamp (``monotonic_ns``) the start of every cell of ``kind``."""
    from repro.harness import parallel

    runner = parallel._RUNNERS[kind]
    stamps: list = []
    clock = time.monotonic_ns

    def timed(*args, **kwargs):
        stamps.append(clock())
        return runner(*args, **kwargs)

    parallel._RUNNERS[kind] = timed
    return stamps


def segments(start: int, stamps: list, end: int) -> list:
    """Split ``start..end`` at every ``k``-th cell start (ns durations).

    Every pass of a workload runs the same cells in the same order, so
    segment ``i`` covers the same work in every pass; ``run.py`` takes
    each segment's fastest pass.
    """
    step = max(1, -(-len(stamps) // SEGMENTS))
    points = [start] + stamps[step::step] + [end]
    return [b - a for a, b in zip(points, points[1:])]


def main(argv) -> int:
    name, seed, size, trace, spans_out = argv
    seed, size, trace = int(seed), int(size), trace == "1"
    workload = WORKLOADS[name]
    workload.setup()
    layer_trace = None
    if trace:
        from layers import LayerTrace

        layer_trace = LayerTrace(workload.cell_kind)
        layer_trace.install()
    stamps = _clock_cells(workload.cell_kind)

    start = time.monotonic_ns()
    output = workload.run(seed, size)
    end = time.monotonic_ns()
    wall_ns = end - start

    result = workload.evaluate(output, size)
    result["first_cell_at"] = stamps[0] / 1e9
    result["wall_s"] = wall_ns / 1e9
    result["segments_ns"] = segments(start, stamps, end)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # after the pass, so neither setup_s nor wall_s includes it; the
    # fastest of a few runs filters out momentary interference
    result["calibration_s"] = min(calibrate.job() for _ in range(CALIBRATION_RUNS))
    if layer_trace is not None:
        layers = layer_trace.metrics(wall_ns)
        layers["explore.divergent_ratio"] = result.pop("divergent_ratio", 0.0)
        result["layers"] = layers
        result["problems"].extend(layer_trace.problems(wall_ns))
        layer_trace.spans.write(spans_out, wall_ns)
    result.pop("divergent_ratio", None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
