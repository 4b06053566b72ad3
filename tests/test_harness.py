"""The paper's evaluation: one test per table and figure.

Each test regenerates one artefact and asserts the paper's *shape* (who
wins, flat vs growing, relative factors).  Sizes are medium by default;
``REPRO_BENCH_FULL=1`` switches to paper scale (Alexa 500 sites, 25
raptor repetitions, ...).  Run ``pytest tests/test_harness.py -s`` to
print every artefact in the paper's layout: that output is the
reference run EXPERIMENTS.md quotes.
"""

import os

from repro.analysis.stats import median
from repro.analysis.tables import render_cdf_summary, render_series, render_table
from repro.attacks.expected import expected_matrix
from repro.harness import (
    LAUNCH_BUG_REGRESSIONS,
    api_compat_counts,
    dom_similarity_survey,
    dromaeo_overhead,
    figure2_script_parsing,
    run_table1,
    table2_svg_loopscan,
    table3_raptor,
    week_long_user_test,
    worker_creation_overhead,
)
from repro.harness.perf import (
    FIGURE2_DEFENSES,
    FIGURE3_CONFIGS,
    TABLE2_DEFENSES,
    figure3_cdf,
)
from repro.workloads import compat_survey


def scale(medium, full):
    """Pick a workload size by ``REPRO_BENCH_FULL``, read at call time."""
    return full if os.environ.get("REPRO_BENCH_FULL", "") == "1" else medium


def test_run_table1_reproduces_all_176_cells_of_the_paper():
    result = run_table1()
    rendered = result.render()
    print()
    print("=== Table I (+: defense prevents the attack, x: vulnerable) ===")
    print(rendered)
    print(f"agreement with the paper's (reconstructed) matrix: {result.agreement():.2%}")
    assert sum(len(row) for row in result.matrix.values()) == 176
    assert result.errors == []
    assert result.disagreements() == []
    assert result.agreement() == 1.0
    assert "cve-2018-5092" in rendered and "jskernel" in rendered


def test_expected_matrix_shape():
    matrix = expected_matrix()
    assert len(matrix) == 22
    for row in matrix.values():
        assert len(row) == 8
    assert all(matrix[a]["jskernel"] for a in matrix)
    assert not any(matrix[a]["legacy-chrome"] for a in matrix)


def test_figure2_small_sweep_shapes():
    """Figure 2: reported parse time grows with file size for every
    defense except JSKernel, whose line is flat."""
    sizes = [int(mb * 1024 * 1024) for mb in scale((2, 6, 10), (2, 4, 6, 8, 10))]
    series = figure2_script_parsing(sizes=sizes, defenses=FIGURE2_DEFENSES)
    print()
    print(render_series(series, title="=== Figure 2: reported time (ms) vs size (MB) ==="))

    for defense, points in series.items():
        values = [y for _x, y in points]
        if defense == "jskernel":
            # flat line: the count is fixed by deterministic scheduling
            assert len(set(values)) == 1, f"jskernel not flat: {values}"
        else:
            assert all(b > a for a, b in zip(values, values[1:])), (defense, values)
    chrome = series["legacy-chrome"]
    assert chrome[-1][1] > chrome[0][1] * 1.5


def test_table2_small_run_shapes():
    """Table II: JSKernel pinned to 10/10 ms (SVG) and 1/1 ms (loopscan);
    low < high and google < youtube in every other row."""
    table = table2_svg_loopscan(defenses=TABLE2_DEFENSES, runs=scale(3, 25))
    rows = [
        [d, v["svg_low_ms"], v["svg_high_ms"], v["loopscan_google_ms"], v["loopscan_youtube_ms"]]
        for d, v in table.items()
    ]
    print()
    print(render_table(
        ["defense", "svg low ms", "svg high ms", "loops google ms", "loops youtube ms"],
        rows, title="=== Table II (measured) ===",
    ))

    kernel = table["jskernel"]
    assert kernel["svg_low_ms"] == kernel["svg_high_ms"] == 10.0  # paper: 10/10
    assert kernel["loopscan_google_ms"] == kernel["loopscan_youtube_ms"] == 1.0  # paper: 1/1
    for defense, values in table.items():
        if defense == "jskernel":
            continue
        assert values["svg_high_ms"] > values["svg_low_ms"], defense
        assert values["loopscan_youtube_ms"] > values["loopscan_google_ms"], defense
    # the paper's near-exact cells on legacy Chrome
    chrome = table["legacy-chrome"]
    assert abs(chrome["svg_low_ms"] - 16.66) < 1.0
    assert abs(chrome["loopscan_google_ms"] - 4.5) < 1.5
    assert abs(chrome["loopscan_youtube_ms"] - 8.8) < 2.0


def test_figure3_small_cdf_ordering():
    """Figure 3: JSKernel hugs the native browsers, DeterFox is close to
    Firefox, Tor and Fuzzyfox are slowest, Chrome Zero costs more."""
    sites = scale(60, 500)
    series = figure3_cdf(site_count=sites, visits=scale(1, 3), configs=FIGURE3_CONFIGS)
    print()
    print(render_cdf_summary(
        series, title=f"=== Figure 3: loading times over {sites} sites (ms) ==="
    ))

    chrome = median(series["legacy-chrome"])
    chrome_kernel = median(series["jskernel"])
    firefox = median(series["legacy-firefox"])
    assert abs(chrome_kernel - chrome) / chrome < 0.05
    assert abs(median(series["jskernel-firefox"]) - firefox) / firefox < 0.05
    assert abs(median(series["deterfox"]) - firefox) / firefox < 0.15
    slowest_two = sorted(
        FIGURE3_CONFIGS, key=lambda c: median(series[c]), reverse=True
    )[:2]
    assert set(slowest_two) == {"tor", "fuzzyfox"}
    assert median(series["tor"]) > 2 * chrome  # Tor is way out right
    assert median(series["chromezero"]) >= chrome_kernel - 0.01 * chrome


def test_table3_raptor_overhead_stays_within_the_spread():
    """Table III: hero-element load times with and without JSKernel
    differ by less than the spread; the average overhead is small."""
    rows = table3_raptor(runs=scale(6, 25))
    columns = ("legacy-chrome", "jskernel", "legacy-firefox", "jskernel-firefox")
    table_rows = [
        [subtest] + [f"{configs[c]['mean']:.1f}±{configs[c]['stdev']:.1f}" for c in columns]
        for subtest, configs in rows.items()
    ]
    print()
    print(render_table(
        ["subtest", "Chrome", "JSKernel (C)", "Firefox", "JSKernel (F)"],
        table_rows, title="=== Table III: raptor-tp6-1 loading times (ms) ===",
    ))

    overheads = []
    for subtest, configs in rows.items():
        for base, kernel in (("legacy-chrome", "jskernel"),
                             ("legacy-firefox", "jskernel-firefox")):
            base_mean = configs[base]["mean"]
            kernel_mean = configs[kernel]["mean"]
            overheads.append((kernel_mean - base_mean) / base_mean)
            spread = max(configs[base]["stdev"], configs[kernel]["stdev"], base_mean * 0.02)
            assert abs(kernel_mean - base_mean) <= base_mean * 0.12 + 2 * spread, subtest
    average_overhead = sum(overheads) / len(overheads)
    print(f"average JSKernel hero-load overhead: {average_overhead:+.2%} (paper: +2.75%/+3.85%)")
    assert average_overhead < 0.10


def test_dromaeo_overhead_has_a_near_zero_median_and_one_hot_test():
    """§V-A1 Dromaeo: median near zero, average low single digits, one
    kernel-boundary-crossing test dominating."""
    report = dromaeo_overhead()
    rows = [[name, f"{pct:+.2f}%"] for name, pct in report["per_test"].items()]
    print()
    print(render_table(
        ["test", "overhead"], rows, title="=== Dromaeo overhead (JSKernel on Chrome) ==="
    ))
    print(f"average {report['average_pct']:+.2f}%  median {report['median_pct']:+.2f}%  "
          f"worst {report['worst_test']} {report['worst_pct']:+.2f}%  "
          f"(paper: avg +1.99%, median +0.30%, worst dom-attr +21.15%)")

    assert report["median_pct"] < 2.0
    assert report["average_pct"] < 10.0
    assert report["worst_pct"] > 5.0
    assert report["per_test"]["math-cordic"] < 0.5  # pure compute is free


def test_worker_creation_overhead_is_single_digit():
    """§V-A1: creating 16 workers under JSKernel keeps true parallelism."""
    report = worker_creation_overhead()
    print()
    print("=== 16-worker creation benchmark ===")
    print(f"legacy Chrome: {report['baseline_ms']:.2f} ms")
    print(f"with JSKernel: {report['defense_ms']:.2f} ms")
    print(f"overhead: {report['overhead_pct']:+.2f}%  (paper: +0.9%)")
    assert report["overhead_pct"] < 10.0


def test_api_compat_differences_under_jskernel_are_timing_only():
    """§V-B1: every defense stays usable on most of the 20 apps, and all
    of JSKernel's observable differences are timing-only."""
    counts = api_compat_counts()
    print()
    print("=== Apps (of 20) with observable differences ===")
    for config, count in counts.items():
        print(f"  {config:10s}: {count:2d}/20")
    print("  (paper: jskernel 4, deterfox 7, fuzzyfox 13)")

    for app, differences in compat_survey("jskernel").items():
        for field in differences:
            assert field.startswith("timing:"), (
                f"JSKernel broke a functional field: {app} {field}"
            )
    assert all(count <= 10 for count in counts.values())
    assert counts["jskernel"] <= 8


def test_dom_similarity_small_survey():
    """§V-B2: most sites keep >= 99% DOM similarity under JSKernel, and
    every site below the bar is explained by dynamic content."""
    sites = scale(30, 100)
    survey = dom_similarity_survey(site_count=sites)
    print()
    print(f"=== DOM similarity, {sites} sites (JSKernel vs Chrome) ===")
    print(f"fraction above the 99% bar: {survey['fraction_above']:.2%} (paper: 90%)")
    print(f"sites below the bar: {len(survey['below_hosts'])}, "
          f"explained by dynamic content: {survey['below_explained_by_dynamic_content']}")

    assert 0.80 <= survey["fraction_above"] <= 1.0
    assert survey["below_explained_by_dynamic_content"] == len(survey["below_hosts"])


def test_week_long_user_test_short_run_is_clean():
    """§V-B3: a scripted run of daily browsing under JSKernel surfaces no
    functional issue."""
    days = scale(2, 7)
    result = week_long_user_test(days=days)
    print()
    print(f"=== {result['days']}-day user-experience test under JSKernel ===")
    print(f"issues: {len(result['issues'])} (paper: 3 launch bugs, then none after fixes)")
    for issue in result["issues"]:
        print("  -", issue)
    assert result["days"] == days
    assert result["issues"] == []


def test_launch_bug_regressions_green_under_kernel():
    from repro.defenses import make_browser

    for name, regression in LAUNCH_BUG_REGRESSIONS.items():
        browser = make_browser("jskernel", with_bugs=False, seed=4)
        page = browser.open_page("https://webapp.example/")
        assert regression(browser, page), f"launch-bug regression {name} failed"
