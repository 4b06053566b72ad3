"""Integration tests for the experiment harnesses (small configurations)."""

from repro.attacks.expected import expected_matrix
from repro.harness import (
    LAUNCH_BUG_REGRESSIONS,
    dom_similarity_survey,
    figure2_script_parsing,
    run_table1,
    table2_svg_loopscan,
    week_long_user_test,
)
from repro.harness.perf import figure3_cdf


def test_run_table1_reproduces_all_176_cells_of_the_paper():
    result = run_table1()
    assert sum(len(row) for row in result.matrix.values()) == 176
    assert result.errors == []
    assert result.disagreements() == []
    assert result.agreement() == 1.0
    rendered = result.render()
    assert "cve-2018-5092" in rendered and "jskernel" in rendered


def test_expected_matrix_shape():
    matrix = expected_matrix()
    assert len(matrix) == 22
    for row in matrix.values():
        assert len(row) == 8
    assert all(matrix[a]["jskernel"] for a in matrix)
    assert not any(matrix[a]["legacy-chrome"] for a in matrix)


def test_figure2_small_sweep_shapes():
    series = figure2_script_parsing(
        sizes=[1 * 1024 * 1024, 4 * 1024 * 1024],
        defenses=["legacy-chrome", "jskernel"],
    )
    chrome_points = series["legacy-chrome"]
    kernel_points = series["jskernel"]
    # legacy: reported time grows with size; kernel: flat
    assert chrome_points[1][1] > chrome_points[0][1] * 1.5
    assert kernel_points[0][1] == kernel_points[1][1]


def test_table2_small_run_shapes():
    table = table2_svg_loopscan(defenses=["legacy-chrome", "jskernel"], runs=2)
    chrome = table["legacy-chrome"]
    kernel = table["jskernel"]
    assert chrome["svg_high_ms"] > chrome["svg_low_ms"]
    assert kernel["svg_low_ms"] == kernel["svg_high_ms"] == 10.0
    assert kernel["loopscan_google_ms"] == kernel["loopscan_youtube_ms"] == 1.0
    assert chrome["loopscan_youtube_ms"] > chrome["loopscan_google_ms"]


def test_figure3_small_cdf_ordering():
    series = figure3_cdf(site_count=4, visits=1,
                         configs=["legacy-chrome", "jskernel", "tor"])
    from repro.analysis.stats import median

    chrome = median(series["legacy-chrome"])
    kernel = median(series["jskernel"])
    tor = median(series["tor"])
    assert abs(kernel - chrome) / chrome < 0.10  # JSKernel hugs Chrome
    assert tor > 2 * chrome  # Tor is way out right


def test_dom_similarity_small_survey():
    survey = dom_similarity_survey(site_count=6, seed=3)
    assert 0.0 <= survey["fraction_above"] <= 1.0
    # every site below the bar must be explained by dynamic content
    assert survey["below_explained_by_dynamic_content"] == len(survey["below_hosts"])


def test_week_long_user_test_short_run_is_clean():
    result = week_long_user_test(days=1, seed=2)
    assert result["days"] == 1
    assert result["issues"] == []


def test_launch_bug_regressions_green_under_kernel():
    from repro.defenses import make_browser

    for name, regression in LAUNCH_BUG_REGRESSIONS.items():
        browser = make_browser("jskernel", with_bugs=False, seed=4)
        page = browser.open_page("https://webapp.example/")
        assert regression(browser, page), f"launch-bug regression {name} failed"
