"""Unit tests for the SVG filter cost model, tasks and error types."""

import pytest

from repro.errors import (
    BrowserCrash,
    ReproError,
    SecurityError,
    SimulationError,
    UseAfterFreeError,
)
from repro.runtime.svgfilter import (
    SimImage,
    blur_cost,
    erode_cost,
    filter_cost,
    subnormal_multiply_cost,
)
from repro.runtime.task import Task


# ----------------------------------------------------------------------
# SVG filters
# ----------------------------------------------------------------------

def test_erode_cost_scales_with_pixels():
    small = SimImage(100, 100)
    large = SimImage(200, 200)
    assert erode_cost(large) > 3 * erode_cost(small)


def test_erode_cost_depends_on_content():
    dark = SimImage(256, 256, dark_fraction=1.0)
    light = SimImage(256, 256, dark_fraction=0.0)
    assert erode_cost(dark) > erode_cost(light)


def test_iterations_multiply_cost():
    image = SimImage(128, 128)
    assert erode_cost(image, iterations=3) == 3 * erode_cost(image, iterations=1)
    assert blur_cost(image, iterations=2) == 2 * blur_cost(image)


def test_filter_cost_dispatch():
    image = SimImage(64, 64)
    assert filter_cost("erode", image) == erode_cost(image)
    assert filter_cost("feMorphology", image) == erode_cost(image)
    assert filter_cost("feGaussianBlur", image) == blur_cost(image)
    with pytest.raises(SimulationError):
        filter_cost("feTurbulence", image)


def test_invalid_dark_fraction_rejected():
    with pytest.raises(SimulationError):
        SimImage(10, 10, dark_fraction=1.5)


def test_subnormal_cost_ratio():
    normal = subnormal_multiply_cost(False, 1_000)
    subnormal = subnormal_multiply_cost(True, 1_000)
    assert subnormal > 10 * normal  # the Andrysco et al. slowdown class


# ----------------------------------------------------------------------
# tasks
# ----------------------------------------------------------------------

def test_task_label_defaults_to_callback_name():
    def my_callback():
        pass

    assert Task(my_callback).label == "my_callback"
    assert Task(my_callback, label="explicit").label == "explicit"


# ----------------------------------------------------------------------
# error hierarchy
# ----------------------------------------------------------------------

def test_error_hierarchy():
    assert issubclass(UseAfterFreeError, BrowserCrash)
    assert issubclass(BrowserCrash, ReproError)
    assert issubclass(SecurityError, ReproError)
    assert not issubclass(SecurityError, BrowserCrash)


def test_browser_crash_carries_cve():
    crash = UseAfterFreeError("boom", cve="CVE-2018-5092")
    assert crash.cve == "CVE-2018-5092"
    assert UseAfterFreeError("boom").cve == ""
