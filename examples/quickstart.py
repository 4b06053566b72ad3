"""Quickstart: install JSKernel into a simulated browser and see what changes.

Run:  python examples/quickstart.py
"""

from repro import Browser, chrome
from repro.defenses import JSKernelDefense
from repro.runtime.simtime import ms


def demo(with_kernel: bool) -> None:
    defense = JSKernelDefense() if with_kernel else None
    browser = Browser(profile=chrome(), defense=defense, seed=1)
    page = browser.open_page("https://example.com/")

    def script(scope):
        # an ordinary page: a timer, a frame callback and some busy work
        t0 = scope.performance.now()
        scope.busy_work(12.0)  # 12 ms of pure JavaScript computation
        t1 = scope.performance.now()
        print(f"  performance.now() across 12ms of computation: {t1 - t0:.3f} ms")

        scope.setTimeout(
            lambda: print(f"  setTimeout(5) fired at {scope.performance.now():.3f} ms"),
            5,
        )
        scope.requestAnimationFrame(
            lambda ts: print(f"  requestAnimationFrame timestamp: {ts:.3f} ms")
        )

    page.run_script(script)
    browser.run(until=ms(100))


def main() -> None:
    print("== Legacy Chrome (5 µs clock, real time) ==")
    demo(with_kernel=False)
    print()
    print("== Chrome + JSKernel (deterministic kernel time) ==")
    print("   computation is invisible; events land on the deterministic grid")
    demo(with_kernel=True)


if __name__ == "__main__":
    main()
