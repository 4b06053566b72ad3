"""JSKernel reproduction (DSN 2020).

A simulated browser JavaScript runtime plus a faithful implementation of
JSKernel — the kernel-like structure that interposes on every timing- and
concurrency-relevant API to defeat web concurrency attacks — together
with the baseline defenses, all 22 Table I attacks, and harnesses that
regenerate every table and figure of the paper's evaluation.

Quickstart::

    from repro import Browser, vulnerable
    from repro.defenses import JSKernelDefense

    browser = Browser(profile=vulnerable("chrome"), defense=JSKernelDefense())
    page = browser.open_page("https://example.com/")
    page.run_script(lambda scope: scope.setTimeout(lambda: None, 10))
    browser.run()

See README.md for the architecture overview and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from .errors import (
    BrowserCrash,
    CrossOriginLeak,
    DoubleFreeError,
    KernelError,
    NullDerefError,
    PolicyError,
    ReproError,
    SecurityError,
    SimulationError,
    UseAfterFreeError,
)
from .kernel import CompositePolicy, JSKernel, Policy, SchedulingGrid
from .kernel.policies import (
    DeterministicSchedulingPolicy,
    ErrorSanitizerPolicy,
    FuzzySchedulingPolicy,
    PrivateModeStoragePolicy,
    TransferNeuterPolicy,
    WorkerLifecyclePolicy,
    WorkerXhrOriginPolicy,
    all_cve_policies,
)
from .runtime import (
    Browser,
    BrowserProfile,
    Page,
    SimImage,
    Simulator,
    by_name,
    chrome,
    edge,
    firefox,
    vulnerable,
)

__version__ = "1.0.0"

__all__ = [
    "Browser",
    "BrowserCrash",
    "BrowserProfile",
    "CompositePolicy",
    "CrossOriginLeak",
    "DeterministicSchedulingPolicy",
    "DoubleFreeError",
    "ErrorSanitizerPolicy",
    "FuzzySchedulingPolicy",
    "JSKernel",
    "KernelError",
    "NullDerefError",
    "Page",
    "Policy",
    "PolicyError",
    "PrivateModeStoragePolicy",
    "ReproError",
    "SchedulingGrid",
    "SecurityError",
    "SimImage",
    "SimulationError",
    "Simulator",
    "TransferNeuterPolicy",
    "UseAfterFreeError",
    "WorkerLifecyclePolicy",
    "WorkerXhrOriginPolicy",
    "all_cve_policies",
    "by_name",
    "chrome",
    "edge",
    "firefox",
    "vulnerable",
    "__version__",
]
