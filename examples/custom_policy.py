"""Writing a custom JSKernel security policy (paper §II-B3).

The paper's specific policies are manually written from a vulnerability's
triggering condition.  This example adds a policy of our own: workers may
issue at most N fetches — a rate-limiting policy in ~15 lines — and
installs it next to the built-in bundle.

Run:  python examples/custom_policy.py
"""

from repro import Browser, JSKernel, Policy, SecurityError, chrome
from repro.defenses import JSKernelDefense
from repro.kernel.policies import DeterministicSchedulingPolicy, all_cve_policies
from repro.runtime.origin import parse_url
from repro.runtime.simtime import ms


class WorkerFetchQuotaPolicy(Policy):
    """Deny worker fetches beyond a per-thread quota."""

    name = "worker-fetch-quota"
    kind = "specific"

    def __init__(self, quota: int = 2):
        self.quota = quota
        self._counts = {}

    def on_api_call(self, api, kspace, info):
        if api != "fetch" or not kspace.label.startswith("kthread-"):
            return
        used = self._counts.get(kspace.label, 0) + 1
        self._counts[kspace.label] = used
        if used > self.quota:
            raise SecurityError(
                f"kernel policy: worker fetch quota ({self.quota}) exceeded"
            )


def main() -> None:
    kernel = JSKernel(
        policies=[DeterministicSchedulingPolicy(), WorkerFetchQuotaPolicy(quota=2)]
        + all_cve_policies()
    )
    browser = Browser(profile=chrome(), defense=JSKernelDefense(kernel), seed=1)
    browser.network.host_simple(parse_url("https://app.example/data"), 2_000)
    page = browser.open_page("https://app.example/")
    log = []

    def script(scope):
        def worker_main(ws):
            for attempt in range(4):
                try:
                    ws.fetch("/data")
                    ws.postMessage(f"fetch {attempt + 1}: allowed")
                except SecurityError as denied:
                    ws.postMessage(f"fetch {attempt + 1}: {denied}")

        worker = scope.Worker(worker_main)
        worker.onmessage = lambda event: log.append(event.data)

    page.run_script(script)
    browser.run(until=ms(500))
    for line in log:
        print(line)


if __name__ == "__main__":
    main()
