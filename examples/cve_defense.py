"""The paper's Listing 2: CVE-2018-5092 — abort on a freed fetch.

Drives the use-after-free triggering sequence against a vulnerable
browser build, then the same sequence with JSKernel's worker-lifecycle
policy installed.

Run:  python examples/cve_defense.py
"""

from repro import Browser, UseAfterFreeError, vulnerable
from repro.defenses import JSKernelDefense
from repro.runtime.origin import parse_url
from repro.runtime.simtime import ms


def drive_exploit(with_kernel: bool) -> str:
    defense = JSKernelDefense() if with_kernel else None
    browser = Browser(profile=vulnerable("firefox"), defense=defense, seed=1)
    browser.network.host_simple(
        parse_url("https://attacker.example/fetchedfile0.html"), 64_000
    )
    page = browser.open_page("https://attacker.example/")
    shared = {}
    done = {}

    def attack(scope):
        # worker.js (Listing 2 lines 1-6): fetch with an abort signal
        def worker_main(ws):
            controller = ws.AbortController()
            shared["controller"] = controller
            ws.fetch("/fetchedfile0.html", {"signal": controller.signal}).then(
                lambda _r: None, lambda _e: None
            )
            ws.postMessage("fetch-started")

        worker = scope.Worker(worker_main)

        def on_message(_event):
            worker.terminate()  # the false termination
            # main thread unload path: abort the outstanding signal
            scope.setTimeout(
                lambda: (shared["controller"].abort(cve="CVE-2018-5092"),
                         done.__setitem__("ok", True)),
                1,
            )

        worker.onmessage = on_message

    page.run_script(attack)
    try:
        browser.run(until=ms(500))
    except UseAfterFreeError as crash:
        return f"EXPLOITED: {crash}"
    return "safe: abort found no dangling request"


def main() -> None:
    print("Vulnerable Firefox :", drive_exploit(with_kernel=False))
    print("     with JSKernel :", drive_exploit(with_kernel=True))


if __name__ == "__main__":
    main()
