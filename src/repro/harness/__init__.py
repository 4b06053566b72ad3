"""Experiment harnesses regenerating the paper's tables and figures."""

from .audit import (
    AUDIT_SEEDS,
    DETERMINISTIC_DEFENSES,
    assert_deterministic,
    determinism_matrix,
    determinism_violations,
    render_determinism,
)
from .compat import (
    LAUNCH_BUG_REGRESSIONS,
    api_compat_counts,
    dom_similarity_survey,
    week_long_user_test,
)
from .cache import ResultCache, as_cache, code_fingerprint, default_cache_dir
from .cube import CUBE_PAIR, CubeResult, overhead_profile, run_cube, run_cube_cell
from .matrix import TableOneResult, run_table1
from .parallel import Cell, CellResult, ExperimentEngine
from .perf import (
    FIGURE2_DEFENSES,
    FIGURE2_SIZES,
    TABLE2_DEFENSES,
    dromaeo_overhead,
    figure2_script_parsing,
    figure3_cdf,
    table2_svg_loopscan,
    table3_raptor,
    worker_creation_overhead,
)

__all__ = [
    "AUDIT_SEEDS",
    "CUBE_PAIR",
    "CubeResult",
    "DETERMINISTIC_DEFENSES",
    "FIGURE2_DEFENSES",
    "FIGURE2_SIZES",
    "LAUNCH_BUG_REGRESSIONS",
    "TABLE2_DEFENSES",
    "Cell",
    "CellResult",
    "ExperimentEngine",
    "ResultCache",
    "TableOneResult",
    "api_compat_counts",
    "as_cache",
    "assert_deterministic",
    "code_fingerprint",
    "default_cache_dir",
    "determinism_matrix",
    "determinism_violations",
    "dom_similarity_survey",
    "overhead_profile",
    "run_cube",
    "run_cube_cell",
    "dromaeo_overhead",
    "figure2_script_parsing",
    "figure3_cdf",
    "render_determinism",
    "run_table1",
    "table2_svg_loopscan",
    "table3_raptor",
    "week_long_user_test",
    "worker_creation_overhead",
]
