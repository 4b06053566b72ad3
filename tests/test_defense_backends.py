"""What each registered defense installs, through the one install path.

Every registered defense is a :class:`DefenseBackend` that does not
override ``install``; after :func:`make_browser` its browser holds the
clock policies, page hooks and worker hooks the table below states, and
neither install nor a page run touches the global ``random`` module
(seeded streams only — the repo's determinism contract).
"""

import random

import pytest

from repro.defenses import DefenseBackend, available, create, make_browser
from repro.errors import UnknownDefenseError
from repro.runtime.clock import (
    ClockPolicy,
    DeterministicClockPolicy,
    FuzzyClockPolicy,
    QuantizedClockPolicy,
)
from repro.runtime.simtime import ms

Q, F, D, EXACT = QuantizedClockPolicy, FuzzyClockPolicy, DeterministicClockPolicy, ClockPolicy

#: name -> (performance.now policy, animation policy, page hooks, worker hooks)
INSTALLS = {
    "legacy-chrome": (Q, EXACT, 0, 0),
    "legacy-firefox": (Q, EXACT, 0, 0),
    "legacy-edge": (Q, EXACT, 0, 0),
    "fuzzyfox": (F, F, 1, 1),
    "deterfox": (Q, EXACT, 1, 0),
    "tor": (Q, EXACT, 1, 1),
    "chromezero": (F, EXACT, 1, 0),
    "jskernel": (Q, EXACT, 1, 0),
    "jskernel-nodet": (Q, EXACT, 1, 0),
    "jskernel-nocve": (Q, EXACT, 1, 0),
    "jskernel-fuzzy": (Q, EXACT, 1, 0),
    "detbrowser": (D, D, 1, 1),
}


def test_the_table_covers_every_registered_defense():
    assert sorted(INSTALLS) == available()


@pytest.mark.parametrize("name", available())
def test_every_registered_defense_is_a_backend(name):
    defense = create(name)
    assert isinstance(defense, DefenseBackend)
    # perfbench times defense install by wrapping this one method
    assert type(defense).install is DefenseBackend.install


@pytest.mark.parametrize("name", available())
def test_install_states_its_clocks_and_hooks(name):
    now_cls, animation_cls, page_hooks, worker_hooks = INSTALLS[name]
    browser = make_browser(name, seed=3)
    assert type(browser.clock_policy_factory()) is now_cls
    assert type(browser.animation_clock_policy_factory()) is animation_cls
    assert len(browser.page_hooks) == page_hooks
    assert len(browser.worker_hooks) == worker_hooks

    network, profile = browser.network, browser.profile
    if name == "tor":
        assert browser.clock_policy_factory().resolution_ns == ms(100)
        assert (network.base_latency_ns, network.jitter_ns) == (ms(220), ms(60))
        assert network.bandwidth_bytes_per_ms == 600
    else:
        assert network.base_latency_ns == profile.network_base_latency_ns
        assert network.bandwidth_bytes_per_ms == profile.network_bandwidth_bytes_per_ms


@pytest.mark.parametrize("name", available())
def test_install_and_page_run_draw_no_global_random(name):
    random.seed(987654321)
    state = random.getstate()
    browser = make_browser(name, seed=2, with_bugs=False)
    page = browser.open_page("https://app.example/")
    page.run_script(
        lambda scope: scope.setTimeout(lambda: scope.performance.now(), 1)
    )
    browser.run(until=ms(50))
    assert random.getstate() == state


# ----------------------------------------------------------------------
# registry error reporting
# ----------------------------------------------------------------------
def test_create_unknown_defense_lists_available():
    with pytest.raises(UnknownDefenseError) as err:
        create("analyze")
    message = str(err.value)
    assert "'analyze'" in message
    for name in available():
        assert name in message
    # stays a KeyError for callers that catch the historical type
    assert isinstance(err.value, KeyError)
