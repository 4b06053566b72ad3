"""Worker-creation benchmark (§V-A1, pmav.eu web worker test).

Dromaeo has no workers, so the paper additionally creates 16 workers and
measures creation time with and without JSKernel (average overhead 0.9%
over 5 repeats).  Creation time = construction until every worker has
answered a ping.
"""

from __future__ import annotations

from contextlib import closing
from typing import Dict, List

from ..analysis.stats import mean
from ..defenses import make_browser
from ..runtime.rng import hash_seed
from ..runtime.simtime import to_ms

WORKER_COUNT = 16


def measure_worker_creation_ms(config: str, count: int = WORKER_COUNT, seed: int = 0) -> float:
    """Virtual ms from first construction to the last ready ping."""
    with closing(make_browser(config, seed=seed, with_bugs=False)) as browser:
        page = browser.open_page("https://workerbench.example/")
        box: Dict[str, int] = {"ready": 0}

        def bench(scope) -> None:
            box["start"] = browser.sim.now

            def worker_main(ws) -> None:
                def on_ping(event) -> None:
                    # the pmav benchmark's workers do real work before replying
                    ws.busy_work(20.0)
                    ws.postMessage("pong")

                ws.onmessage = on_ping

            for _ in range(count):
                worker = scope.Worker(worker_main)
                worker.onmessage = _make_on_ready(worker)
                worker.postMessage("ping")

        def _make_on_ready(worker):
            def on_ready(_event) -> None:
                box["ready"] += 1
                if box["ready"] == count:
                    box["end"] = browser.sim.now

            return on_ready

        page.run_script(bench, label="worker-bench")
        browser.run(stop=lambda: "end" in box)
        return to_ms(box["end"] - box["start"])


def worker_overhead_pct(
    config: str = "jskernel",
    baseline: str = "legacy-chrome",
    repeats: int = 5,
    seed: int = 0,
) -> Dict[str, float]:
    """Average creation times and the relative overhead."""
    base_times: List[float] = []
    defense_times: List[float] = []
    for repeat in range(repeats):
        run_seed = hash_seed(seed, f"workerbench:{repeat}")
        base_times.append(measure_worker_creation_ms(baseline, seed=run_seed))
        defense_times.append(measure_worker_creation_ms(config, seed=run_seed))
    base_avg = mean(base_times)
    defense_avg = mean(defense_times)
    return {
        "baseline_ms": base_avg,
        "defense_ms": defense_avg,
        "overhead_pct": (defense_avg - base_avg) / base_avg * 100.0,
    }
