"""The JSKernel facade: the kernel that goes into a browser.

``JSKernel`` is the deployable artifact (the paper's browser extension):
constructed with a policy bundle and installed into a :class:`Browser`
through :class:`~repro.defenses.jskernel_defense.JSKernelDefense`, it
injects a :class:`JSKernelInstance` into every new JavaScript context —
each page's main thread (here) and, through the thread manager, every
worker a page creates.
"""

from __future__ import annotations

from typing import List, Optional

from ..runtime.page import Page
from .interface import KernelInterface
from .policy import CompositePolicy, Policy, SchedulingGrid
from .policies import DeterministicSchedulingPolicy, WorkerLifecyclePolicy, all_cve_policies
from .space import KernelSpace
from .threadmgr import ThreadManager


class JSKernelInstance:
    """The kernel injected into one page (main-thread side)."""

    def __init__(self, kernel: "JSKernel", page: Page):
        self.kernel = kernel
        self.page = page
        self.policy = kernel.policy
        self.grid = kernel.grid
        self.kspace = KernelSpace(
            page.loop, kernel.policy, kernel.grid,
            label=f"kmain:{page.origin.host}",
        )
        self.interface = KernelInterface(self.kspace)
        scope = page.scope

        # capture natives the thread manager and wrappers will need
        self.kspace.natives["Worker"] = scope.Worker

        self.interface.install_clocks(scope)
        self.interface.install_timers(scope)
        self.interface.install_raf(scope)
        self.interface.install_fetch(scope)
        self.interface.install_dom_loading(page)
        self.interface.install_window_messaging(scope)
        self.interface.install_animations(scope)
        self.interface.install_media(scope)
        self.interface.install_shared_memory(scope)
        self.interface.install_storage(scope, page)

        self.thread_manager = ThreadManager(self, page)
        scope.Worker = self.thread_manager.construct_worker

    # ------------------------------------------------------------------
    def policy_allows_deferred_teardown(self, kthread) -> bool:
        """Whether the lifecycle policy permits eventual native teardown."""
        policy = self.policy
        if isinstance(policy, CompositePolicy):
            lifecycle = policy.find(WorkerLifecyclePolicy.name)
        elif isinstance(policy, WorkerLifecyclePolicy):
            lifecycle = policy
        else:
            lifecycle = None
        if lifecycle is None:
            return True
        return bool(getattr(lifecycle, "allow_deferred_teardown", False))

    @property
    def threads(self):
        """Kernel threads created by this page."""
        return self.thread_manager.threads


class JSKernel:
    """The deployable JSKernel 'extension'.

    Installed with ``Browser(defense=JSKernelDefense(kernel))`` or
    ``JSKernelDefense(kernel).install(browser)``
    (:mod:`repro.defenses.jskernel_defense`).
    """

    name = "jskernel"

    def __init__(
        self,
        policies: Optional[List[Policy]] = None,
        grid: Optional[SchedulingGrid] = None,
    ):
        if policies is None:
            policies = [DeterministicSchedulingPolicy()] + all_cve_policies()
        if len(policies) == 1 and isinstance(policies[0], CompositePolicy):
            self.policy = policies[0]
        else:
            self.policy = CompositePolicy(policies)
        self.grid = grid or SchedulingGrid()

    def install_into_page(self, page: Page) -> JSKernelInstance:
        """Inject the kernel into one page's JavaScript context."""
        instance = JSKernelInstance(self, page)
        page.jskernel = instance
        return instance
