"""Synthetic workloads standing in for the paper's test corpora."""

from .alexa import (
    FIGURE3_CONFIGS,
    alexa_population,
    figure3_series,
    measure_load_time_ms,
)
from .codepen import (
    CODEPEN_APPS,
    apps_with_differences,
    compat_survey,
    observable_difference,
    run_app,
)
from .dromaeo import DROMAEO_TESTS, overhead_report, run_test
from .population import (
    DEFAULT_BROWSER_MIX,
    PopulationAggregate,
    PopulationModel,
    Session,
    archetype_for_rank,
    config_for_rank,
    estimate_load_ms,
    page_for,
    population_cells,
    population_sweep,
    session_cells,
    session_stream,
)
from .raptor import SUBTEST_PROFILES, measure_hero_time_ms, raptor_site, table3_rows
from .sites import (
    SiteDescription,
    SiteResource,
    generate_site,
    host_site,
    load_site,
    loopscan_target,
)
from .workerbench import WORKER_COUNT, measure_worker_creation_ms, worker_overhead_pct

__all__ = [
    "CODEPEN_APPS",
    "DEFAULT_BROWSER_MIX",
    "DROMAEO_TESTS",
    "FIGURE3_CONFIGS",
    "SUBTEST_PROFILES",
    "PopulationAggregate",
    "PopulationModel",
    "Session",
    "SiteDescription",
    "SiteResource",
    "WORKER_COUNT",
    "alexa_population",
    "archetype_for_rank",
    "config_for_rank",
    "estimate_load_ms",
    "page_for",
    "population_cells",
    "population_sweep",
    "session_cells",
    "session_stream",
    "apps_with_differences",
    "compat_survey",
    "figure3_series",
    "generate_site",
    "host_site",
    "load_site",
    "loopscan_target",
    "measure_hero_time_ms",
    "measure_load_time_ms",
    "measure_worker_creation_ms",
    "observable_difference",
    "overhead_report",
    "raptor_site",
    "run_app",
    "run_test",
    "table3_rows",
    "worker_overhead_pct",
]
