"""Performance harness: the §V-A experiments as callable functions.

Each function regenerates one of the paper's performance artefacts and
returns structured data; ``tests/test_harness.py`` asserts each one's
paper shape and, run with ``-s``, prints it in the paper's layout.
Reports carry results only: under an active tracer, metrics travel
out-of-band in ``current_tracer().metrics``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..runtime.rng import hash_seed
from ..workloads.alexa import FIGURE3_CONFIGS, figure3_series
from ..workloads.dromaeo import overhead_report
from ..workloads.raptor import table3_rows
from ..workloads.workerbench import worker_overhead_pct
from .parallel import Cell, ExperimentEngine

#: Figure 2's file-size sweep (bytes).
FIGURE2_SIZES = tuple(int(mb * 1024 * 1024) for mb in (2, 4, 6, 8, 10))

#: Defenses plotted in Figure 2 (the paper's legend).
FIGURE2_DEFENSES = (
    "legacy-chrome",
    "legacy-firefox",
    "legacy-edge",
    "jskernel",
    "chromezero",
    "tor",
    "fuzzyfox",
)

TABLE2_DEFENSES = (
    "legacy-chrome",
    "legacy-firefox",
    "legacy-edge",
    "fuzzyfox",
    "tor",
    "chromezero",
    "jskernel",
)


def figure2_script_parsing(
    sizes: Sequence[int] = FIGURE2_SIZES,
    defenses: Sequence[str] = FIGURE2_DEFENSES,
    seed: int = 0,
    parallel: Optional[int] = None,
    cache=None,
) -> Dict[str, List[Tuple[float, float]]]:
    """defense -> [(size_mb, reported_time_ms)] series.

    The paper's observation to reproduce: every defense except JSKernel
    shows reported time increasing with file size; JSKernel is flat.
    Every ``(defense, size)`` point is an independent cell, so the sweep
    shards across ``parallel`` workers and caches per point.
    """
    cells = [
        Cell(
            "figure2",
            {"defense": defense, "size": int(size),
             "seed": hash_seed(seed, f"fig2:{defense}:{size}")},
        )
        for defense in defenses
        for size in sizes
    ]
    results = ExperimentEngine(workers=parallel, cache=cache).run(cells)
    series: Dict[str, List[Tuple[float, float]]] = {defense: [] for defense in defenses}
    for result in results:
        if not result.ok:
            raise RuntimeError(f"figure2 cell {result.cell.label()} failed: {result.error}")
        size = result.cell.params["size"]
        series[result.cell.params["defense"]].append(
            (size / 1024 / 1024, result.payload["reported_ms"])
        )
    return series


def table2_svg_loopscan(
    defenses: Sequence[str] = TABLE2_DEFENSES,
    runs: int = 5,
    seed: int = 0,
    parallel: Optional[int] = None,
    cache=None,
) -> Dict[str, Dict[str, float]]:
    """defense -> measured values for the four Table II columns.

    The returned mapping contains **only** defense rows, traced or not.
    """
    cells = [
        Cell("table2", {"defense": defense, "runs": int(runs), "seed": seed})
        for defense in defenses
    ]
    results = ExperimentEngine(workers=parallel, cache=cache).run(cells)
    table: Dict[str, Dict[str, float]] = {}
    for result in results:
        if not result.ok:
            raise RuntimeError(f"table2 cell {result.cell.label()} failed: {result.error}")
        table[result.cell.params["defense"]] = result.payload
    return table


def figure3_cdf(
    site_count: int = 500,
    visits: int = 3,
    seed: int = 0,
    configs: Optional[List[str]] = None,
    parallel: Optional[int] = None,
    cache=None,
) -> Dict[str, List[float]]:
    """The Alexa loading-time series per configuration."""
    return figure3_series(
        site_count=site_count, visits=visits, seed=seed, configs=configs,
        parallel=parallel, cache=cache,
    )


def table3_raptor(runs: int = 25, seed: int = 0) -> Dict[str, Dict[str, Dict[str, float]]]:
    """The raptor-tp6-1 rows."""
    return table3_rows(runs=runs, seed=seed)


def dromaeo_overhead(seed: int = 0) -> Dict[str, object]:
    """The Dromaeo overhead report for JSKernel on Chrome."""
    return overhead_report(config="jskernel", baseline="legacy-chrome", seed=seed)


def worker_creation_overhead(seed: int = 0) -> Dict[str, float]:
    """The 16-worker creation benchmark."""
    return worker_overhead_pct(seed=seed)


__all__ = [
    "FIGURE2_DEFENSES",
    "FIGURE2_SIZES",
    "FIGURE3_CONFIGS",
    "TABLE2_DEFENSES",
    "dromaeo_overhead",
    "figure2_script_parsing",
    "figure3_cdf",
    "table2_svg_loopscan",
    "table3_raptor",
    "worker_creation_overhead",
]
