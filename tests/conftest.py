"""Shared fixtures for the test suite."""

import pytest

from repro.defenses import JSKernelDefense
from repro.runtime import Browser, chrome, vulnerable


@pytest.fixture
def browser():
    """A plain (bug-free) Chrome browser."""
    return Browser(profile=chrome(), seed=1)


@pytest.fixture
def vulnerable_browser():
    """A Chrome browser with every CVE bug flag enabled."""
    return Browser(profile=vulnerable("chrome"), seed=1)


@pytest.fixture
def page(browser):
    """A page on the plain browser."""
    return browser.open_page("https://app.example/")


@pytest.fixture
def kernel_browser():
    """A bug-free Chrome browser with the full JSKernel installed."""
    return Browser(profile=chrome(), defense=JSKernelDefense(), seed=1)


@pytest.fixture
def kernel_page(kernel_browser):
    """A page with the kernel injected."""
    return kernel_browser.open_page("https://app.example/")


@pytest.fixture(params=["browser", "kernel_browser"])
def either_browser(request):
    """The plain browser, then the JSKernel one: a kernel wrapper must
    behave like the native API it replaces."""
    return request.getfixturevalue(request.param)


def run_script_and_drain(browser, page, script, until_ms=2_000):
    """Helper: queue a script and run the simulation for a while."""
    page.run_script(script)
    browser.run(until=int(until_ms * 1e6))


@pytest.fixture
def drain():
    """The run_script_and_drain helper as a fixture."""
    return run_script_and_drain
