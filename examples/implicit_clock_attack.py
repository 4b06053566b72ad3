"""The paper's Listing 1: a worker postMessage flood as an implicit clock.

An attacker measures a secret operation (here: an SVG erode filter whose
cost depends on a cross-origin image's resolution) by counting onmessage
callbacks — no explicit clock API involved.  Against the legacy browser
the count tracks the secret; under JSKernel's deterministic scheduling it
is a constant.

Run:  python examples/implicit_clock_attack.py
"""

from repro import Browser, SimImage, chrome
from repro.defenses import JSKernelDefense

LOW_RES = SimImage(320, 320, label="low-res", cross_origin=True)
HIGH_RES = SimImage(760, 760, label="high-res", cross_origin=True)


def measure(image: SimImage, with_kernel: bool) -> int:
    """Count onmessage callbacks while the filter runs (Listing 1)."""
    defense = JSKernelDefense() if with_kernel else None
    browser = Browser(profile=chrome(), defense=defense, seed=1)
    page = browser.open_page("https://attacker.example/")
    result = {}

    def attack(scope):
        # worker.js: flood postMessage (Listing 1, lines 2-5)
        def worker_main(ws):
            def tick():
                for _ in range(4):
                    ws.postMessage(1)
                ws.setTimeout(tick, 1)

            ws.setTimeout(tick, 1)

        worker = scope.Worker(worker_main)
        count = {"n": 0}
        worker.onmessage = lambda event: count.__setitem__("n", count["n"] + 1)

        element = scope.document.create_element("div")
        scope.document.body.append_child(element)
        marks = {}

        def frame(_ts):
            if "start" not in marks:
                marks["start"] = count["n"]
                scope.applyFilter(element, "erode", image, 2)  # the secret op
                scope.requestAnimationFrame(frame)
            else:
                result["count"] = count["n"] - marks["start"]
                worker.terminate()

        scope.setTimeout(lambda: scope.requestAnimationFrame(frame), 8)

    page.run_script(attack)
    browser.run(stop=lambda: "count" in result)
    return result["count"]


def main() -> None:
    for label, with_kernel in (("Legacy Chrome", False), ("Chrome + JSKernel", True)):
        low = measure(LOW_RES, with_kernel)
        high = measure(HIGH_RES, with_kernel)
        verdict = "LEAKS the resolution" if low != high else "reveals nothing"
        print(f"{label}: onmessage count low-res={low}, high-res={high} -> {verdict}")


if __name__ == "__main__":
    main()
