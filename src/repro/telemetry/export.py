"""Exporters for the final merged telemetry snapshot (``--telemetry-out``).

The JSON report of :meth:`~repro.telemetry.run.RunTelemetry.report`,
pretty-printed: the deterministic sections (``engine``/``cache``/
``metrics``) are byte-stable across worker counts, the ``run`` section
carries the wall clock.  :func:`render_summary` is the one-line closing
summary printed to stderr.
"""

from __future__ import annotations

import json

__all__ = [
    "render_summary",
    "write_telemetry",
]


def render_summary(report: dict) -> str:
    """One-paragraph closing summary printed after ``--telemetry-out``."""
    engine = report.get("engine", {})
    run = report.get("run", {})
    parts = [
        f"cells={engine.get('cells', 0)}",
        f"computed={engine.get('computed', 0)}",
        f"cached={engine.get('cached', 0)}",
    ]
    if engine.get("errors"):
        parts.append(f"errors={engine['errors']}")
    if run.get("duration_s") is not None:
        parts.append(f"duration={run['duration_s']:.2f}s")
    quantiles = run.get("queue_delay_quantiles") or {}
    if quantiles.get("p50") is not None:
        parts.append(
            "queue-delay p50={:.0f}ns p95={:.0f}ns".format(
                quantiles["p50"], quantiles.get("p95") or 0.0
            )
        )
    return "telemetry: " + " ".join(parts)


def write_telemetry(report: dict, json_path: str) -> str:
    """Write the JSON report to ``json_path``; return the path."""
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return json_path
