"""JSKernel wired into the defense registry.

Thin adapter: the real implementation lives in :mod:`repro.kernel`.  The
registry exposes the full system and the three DESIGN.md §5 ablations:

* ``jskernel`` — the full system (deterministic scheduling + all CVE
  policies), the Table I column;
* ``jskernel-nodet`` — CVE policies only (ablation: timing attacks
  return);
* ``jskernel-nocve`` — deterministic scheduling only (ablation: CVEs
  return);
* ``jskernel-fuzzy`` — fuzzy-time scheduling plus the CVE policies
  (ablation: the averaging adversary defeats fuzz, not determinism).
"""

from __future__ import annotations

from ..kernel.jskernel import JSKernel
from ..kernel.policies import (
    DeterministicSchedulingPolicy,
    FuzzySchedulingPolicy,
    all_cve_policies,
)
from .backend import DefenseBackend, SchedulerSlot, ScopeSlot


class JSKernelDefense(DefenseBackend):
    """The full JSKernel extension.

    The kernel is a *composite* installer: one page hook injects a
    :class:`~repro.kernel.jskernel.JSKernelInstance` that replaces the
    clocks, routes every async delivery through the two-stage scheduler,
    takes over the worker substrate and wraps the remaining APIs — so a
    single scheduler slot ``covers`` all four capabilities.
    """

    name = "jskernel"
    base_browser = None  # browser-agnostic: deployable on all three
    capabilities = frozenset({"clock", "scheduler", "worker", "scope"})

    def __init__(self, kernel: JSKernel = None):
        self.kernel = kernel or JSKernel()

    def scheduler_slot(self, browser) -> SchedulerSlot:
        """Install the kernel into every page of the browser."""
        return SchedulerSlot(
            page_hook=self.kernel.install_into_page,
            covers=frozenset({"clock", "scheduler", "worker", "scope"}),
        )

    def scope_slot(self, browser) -> ScopeSlot:
        """Expose the kernel on the browser (audit/debug surface)."""
        return ScopeSlot(
            browser_hook=lambda b: setattr(b, "jskernel", self.kernel)
        )


class JSKernelNoDeterminism(JSKernelDefense):
    """Ablation: CVE policies without deterministic scheduling."""

    name = "jskernel-nodet"

    def __init__(self):
        super().__init__(JSKernel(policies=all_cve_policies()))


class JSKernelNoCvePolicies(JSKernelDefense):
    """Ablation: deterministic scheduling without CVE policies."""

    name = "jskernel-nocve"

    def __init__(self):
        super().__init__(JSKernel(policies=[DeterministicSchedulingPolicy()]))


class JSKernelFuzzy(JSKernelDefense):
    """Ablation: fuzzy-time scheduling instead of deterministic."""

    name = "jskernel-fuzzy"

    def __init__(self):
        super().__init__(JSKernel(policies=[FuzzySchedulingPolicy()] + all_cve_policies()))
