"""Tests for the schedule-space exploration subsystem (repro.explore)."""

import json
import random

import pytest

from repro.errors import ReproError
from repro.explore.campaign import (
    generate_trial,
    interesting_labels,
    run_campaign,
    run_fuzz_cell,
)
from repro.explore.faults import FaultPlan
from repro.explore.minimize import (
    build_specs,
    ddmin,
    load_witness,
    minimize_witness,
    replay_witness,
    save_witness,
    witness_atoms,
)
from repro.explore.oracles import evaluate_run, kernel_order_violations, signature
from repro.explore.perturb import (
    JitterPerturber,
    PriorityPerturber,
    TargetedPerturber,
    exempt_label,
    label_class,
    make_perturber,
)
from repro.runtime import Browser, chrome
from repro.runtime.eventloop import EventLoop
from repro.runtime.network import NetworkFault, SimNetwork
from repro.runtime.origin import parse_url
from repro.runtime.simtime import ms
from repro.runtime.simulator import Simulator, current_perturber, perturbation


# ----------------------------------------------------------------------
# perturbation strategies
# ----------------------------------------------------------------------
def test_jitter_is_deterministic_per_spec():
    spec = {"strategy": "jitter", "seed": 7, "rate": 0.8, "magnitude_ns": ms(1)}
    labels = ["net:/a", "timer:cb", "net:/a", "worker-1:boot", "net:/a"]
    a = make_perturber(spec)
    b = make_perturber(spec)
    sim = Simulator()
    assert [a.perturb(sim, 1000, lbl) for lbl in labels] == [
        b.perturb(sim, 1000, lbl) for lbl in labels
    ]


def test_perturbation_only_delays():
    for spec in (
        {"strategy": "jitter", "seed": 3, "rate": 1.0, "magnitude_ns": ms(2)},
        {"strategy": "priority", "seed": 3, "levels": 4, "step_ns": ms(1)},
        {"strategy": "targeted", "rules": [{"match": "net:", "delay_ns": ms(5)}]},
    ):
        p = make_perturber(spec)
        sim = Simulator()
        for label in ("net:/x", "timer:cb", "chan:deliver"):
            assert p.perturb(sim, 12_345, label) >= 12_345


def test_exempt_labels_untouched():
    p = JitterPerturber(seed=1, rate=1.0, magnitude_ns=ms(10))
    sim = Simulator()
    assert p.perturb(sim, 500, "main:wake") == 500
    assert p.perturb(sim, 500, "fault:net-abort") == 500
    assert p.perturb(sim, 500, "") == 500
    assert exempt_label("worker-1:wake")
    assert not exempt_label("worker-1:boot")


def test_jitter_decisions_are_per_label_streams():
    """An extra draw on one label must not shift another label's stream."""
    spec = {"strategy": "jitter", "seed": 5, "rate": 1.0, "magnitude_ns": ms(1)}
    sim = Simulator()
    a = make_perturber(spec)
    first = [a.perturb(sim, 0, "net:/x") for _ in range(3)]
    b = make_perturber(spec)
    b.perturb(sim, 0, "timer:cb")  # unrelated label interleaved
    second = [b.perturb(sim, 0, "net:/x") for _ in range(3)]
    assert first == second


def test_priority_uses_label_classes():
    assert label_class("worker-3:boot") == label_class("worker-12:boot")
    p = PriorityPerturber(seed=2, levels=3, step_ns=ms(1), change_every=4)
    sim = Simulator()
    d1 = p.perturb(sim, 0, "worker-1:boot")
    # same class: the stream advances, but delays stay on the level grid
    d2 = p.perturb(sim, 0, "worker-2:boot")
    assert d1 % ms(1) == 0 and d2 % ms(1) == 0


def test_targeted_rules_sum_and_spec_roundtrip():
    rules = [
        {"match": "net:", "delay_ns": ms(1)},
        {"match": "/x", "delay_ns": ms(2)},
    ]
    p = TargetedPerturber(rules=rules)
    sim = Simulator()
    assert p.perturb(sim, 0, "net:/x") == ms(3)
    assert p.perturb(sim, 0, "net:/y") == ms(1)
    assert p.perturb(sim, 0, "timer:cb") == 0
    rebuilt = make_perturber(p.spec())
    assert rebuilt.spec() == p.spec()


def test_make_perturber_none_and_unknown():
    assert make_perturber(None) is None
    assert make_perturber({"strategy": "none"}) is None
    with pytest.raises(ReproError):
        make_perturber({"strategy": "quantum"})


def test_perturbation_context_reaches_new_simulators():
    p = JitterPerturber(seed=1, rate=1.0, magnitude_ns=ms(1))
    assert current_perturber() is None
    with perturbation(p):
        sim = Simulator()
        assert sim.perturber is p
    assert current_perturber() is None
    assert Simulator().perturber is None


def test_targeted_perturbation_reorders_eventloop_tasks():
    """Delaying one task source flips the dispatch order of two tasks."""

    def run_once(rules):
        with perturbation(TargetedPerturber(rules=rules)) if rules else _null():
            sim = Simulator()
            loop = EventLoop(sim, "main", task_dispatch_cost=0)
            order = []
            loop.post(lambda: order.append("a"), delay=1000, label="msg:a")
            loop.post(lambda: order.append("b"), delay=2000, label="net:b")
            sim.run()
            return order

    from contextlib import nullcontext as _null

    assert run_once(None) == ["a", "b"]
    assert run_once([{"match": "msg:a", "delay_ns": ms(5)}]) == ["b", "a"]


# ----------------------------------------------------------------------
# fault plans
# ----------------------------------------------------------------------
def _net_env():
    sim = Simulator()
    loop = EventLoop(sim, "main", task_dispatch_cost=0)
    network = SimNetwork(random.Random(1), jitter_ns=0, bandwidth_bytes_per_ms=1_000)
    network.host_simple(parse_url("https://app.example/data"), 1_000, body="ok")
    return sim, loop, network


def test_latency_fault_window_delays_delivery():
    sim, loop, network = _net_env()
    baseline = []
    network.request(loop, parse_url("https://app.example/data"),
                    lambda r: baseline.append(sim.now), use_cache=False)
    sim.run()

    sim2, loop2, network2 = _net_env()
    network2.faults.append(
        NetworkFault("latency", 0, ms(100), extra_ns=ms(50))
    )
    delayed = []
    network2.request(loop2, parse_url("https://app.example/data"),
                     lambda r: delayed.append(sim2.now), use_cache=False)
    sim2.run()
    assert delayed[0] == baseline[0] + ms(50)


def test_drop_fault_blackholes_response():
    sim, loop, network = _net_env()
    network.faults.append(NetworkFault("drop", 0, ms(100)))
    delivered = []
    request = network.request(loop, parse_url("https://app.example/data"),
                              lambda r: delivered.append(r), use_cache=False)
    sim.run()
    assert delivered == []
    assert request.dropped
    assert network.requests_dropped == 1


def test_fault_windows_respect_time_and_path():
    fault = NetworkFault("latency", ms(10), ms(20), extra_ns=ms(1), path_contains="/a")
    url_a = parse_url("https://x.example/a")
    url_b = parse_url("https://x.example/b")
    assert fault.matches(ms(15), url_a)
    assert not fault.matches(ms(5), url_a)   # before the window
    assert not fault.matches(ms(20), url_a)  # window end is exclusive
    assert not fault.matches(ms(15), url_b)  # path mismatch


def test_abort_inflight_cancels_pending_requests():
    sim, loop, network = _net_env()
    delivered = []
    request = network.request(loop, parse_url("https://app.example/data"),
                              lambda r: delivered.append(r), use_cache=False)
    aborted = network.abort_inflight("")
    sim.run()
    assert aborted == 1
    assert request.cancelled
    assert delivered == []


def test_unknown_fault_kind_rejected():
    with pytest.raises(ReproError):
        NetworkFault("gamma-rays", 0, 1)


def test_fault_plan_roundtrip_and_atoms():
    plan = FaultPlan(
        network=[{"kind": "drop", "until_ns": ms(10)}],
        aborts=[{"at_ns": ms(5)}],
        crashes=[{"at_ns": ms(7), "worker": 1}],
    )
    assert not plan.empty
    assert FaultPlan.from_dict(plan.to_dict()).to_dict() == plan.to_dict()
    atoms = plan.atoms()
    assert len(atoms) == 3
    only_crash = plan.subset([("crashes", 0)])
    assert only_crash.network == [] and only_crash.aborts == []
    assert len(only_crash.crashes) == 1
    assert FaultPlan.from_dict(None).empty


def test_worker_crash_fault_fires_onerror_and_terminates():
    plan = FaultPlan(crashes=[{"at_ns": ms(30), "worker": 0, "detail": "boom"}])
    errors = []
    with plan.apply():
        browser = Browser(profile=chrome(), seed=1)
        page = browser.open_page("https://app.example/")

        def script(scope):
            def worker_main(ws):
                ws.onmessage = lambda event: None

            worker = scope.Worker(worker_main)
            worker.onerror = lambda event: errors.append(event.message)

        page.run_script(script)
        browser.run(until=ms(100))
    assert errors == ["boom"]
    assert browser.workers[0].state == "terminated"
    assert browser.workers[0].termination_reason == "crash"


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------
def test_evaluate_run_flags_undefended_uaf():
    verdict = evaluate_run("cve-2018-5092", "legacy-chrome", 0)
    assert verdict["interesting"]
    assert "race:use-after-free" in verdict["failures"]
    assert "crash" in verdict["failures"]
    assert verdict["uaf_races"] >= 1
    # verdict must be JSON-pure (it rides in cells and witness files)
    assert json.loads(json.dumps(verdict)) == verdict


def test_evaluate_run_is_deterministic():
    kwargs = dict(
        perturb_spec={"strategy": "jitter", "seed": 9, "rate": 0.5, "magnitude_ns": ms(1)},
        fault_spec={"network": [{"kind": "latency", "until_ns": ms(50), "extra_ns": ms(2)}]},
    )
    a = evaluate_run("cve-2018-5092", "legacy-chrome", 0, **kwargs)
    b = evaluate_run("cve-2018-5092", "legacy-chrome", 0, **kwargs)
    assert a == b


def test_evaluate_run_jskernel_clean():
    verdict = evaluate_run("cve-2018-5092", "jskernel", 0)
    assert verdict["failures"] == []
    assert verdict["order_violations"] == 0
    assert verdict["divergence"] == 0  # determinism auto-checked for jskernel


def test_kernel_order_violation_counting():
    events = [
        {"name": "kernel.order-violation", "ph": "i"},
        {"name": "other", "ph": "i"},
        {"name": "kernel.order-violation", "ph": "i"},
    ]
    assert kernel_order_violations(events) == 2
    assert kernel_order_violations([]) == 0


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------
def test_generate_trial_is_pure():
    labels = interesting_labels("cve-2018-5092", "legacy-chrome", 0)
    a = generate_trial("cve-2018-5092", "legacy-chrome", 0, 3, "mixed", labels)
    b = generate_trial("cve-2018-5092", "legacy-chrome", 0, 3, "mixed", labels)
    assert a == b
    other = generate_trial("cve-2018-5092", "legacy-chrome", 0, 4, "mixed", labels)
    assert a != other


def test_interesting_labels_skips_wake_and_fault_labels():
    labels = interesting_labels("cve-2018-5092", "legacy-chrome", 0)
    assert labels  # the scenario uses workers + network: targets exist
    assert not any(exempt_label(lbl) for lbl in labels)


def test_run_fuzz_cell_finds_witnesses():
    payload = run_fuzz_cell("cve-2018-5092", "legacy-chrome", 0, 0, 3)
    assert payload["trials"] == 3
    assert payload["witnesses"]
    assert json.loads(json.dumps(payload)) == payload


def test_run_campaign_aggregates_shards():
    report = run_campaign(budget=4, shard_size=2, cache=None)
    assert report["trials"] == 4
    assert report["computed_shards"] == 2
    assert report["errors"] == []
    assert len(report["witnesses"]) >= 1
    assert report["order_violations"] == 0


def test_run_campaign_rejects_bad_budget():
    with pytest.raises(ValueError):
        run_campaign(budget=0)


# ----------------------------------------------------------------------
# minimization + replay
# ----------------------------------------------------------------------
def test_ddmin_finds_minimal_subset():
    atoms = [("a", i) for i in range(8)]
    needed = {("a", 2), ("a", 5)}
    minimal, _tests = ddmin(atoms, lambda subset: needed <= set(subset))
    assert set(minimal) == needed


def test_ddmin_empty_when_nominal_fails():
    atoms = [("a", 0), ("a", 1)]
    minimal, tests = ddmin(atoms, lambda subset: True)
    assert minimal == []
    assert tests == 1


def test_witness_atoms_and_build_specs():
    witness = {
        "perturb": {
            "strategy": "targeted",
            "rules": [
                {"match": "net:", "delay_ns": ms(1)},
                {"match": "msg:", "delay_ns": ms(2)},
            ],
        },
        "faults": {"aborts": [{"at_ns": ms(5), "path_contains": ""}]},
    }
    atoms = witness_atoms(witness)
    assert set(atoms) == {("rule", 0), ("rule", 1), ("aborts", 0)}
    perturb_spec, fault_spec = build_specs(witness, [("rule", 1)])
    assert perturb_spec["rules"] == [{"match": "msg:", "delay_ns": ms(2)}]
    assert fault_spec["aborts"] == []
    perturb_spec, fault_spec = build_specs(witness, [])
    assert perturb_spec == {"strategy": "none"}
    # monolithic strategies are a single atom
    assert witness_atoms({"perturb": {"strategy": "jitter", "seed": 1}}) == [
        ("perturb", 0)
    ]


def test_minimize_and_replay_witness(tmp_path):
    payload = run_fuzz_cell("cve-2018-5092", "legacy-chrome", 0, 0, 1)
    witness = payload["witnesses"][0]
    minimized = minimize_witness(witness)
    assert minimized["signature"] == signature(witness["verdict"])
    assert minimized["minimized"]["atoms_after"] <= minimized["minimized"]["atoms_before"]

    path = tmp_path / "witness.json"
    save_witness(minimized, str(path))
    loaded = load_witness(str(path))
    assert loaded == minimized
    # replay twice: identical verdicts, identical signature
    first = replay_witness(loaded)
    second = replay_witness(loaded)
    assert first == second
    assert signature(first) == minimized["signature"]


# ----------------------------------------------------------------------
# CLI: campaign -> minimised witness files -> replay
# ----------------------------------------------------------------------
def test_cli_fuzz_writes_minimized_witnesses_that_replay(tmp_path, monkeypatch, capsys):
    from repro.__main__ import main

    # the CLI overwrites $REPRO_MAX_EVENTS with its own budget; setting
    # it through monkeypatch restores the variable afterwards
    monkeypatch.setenv("REPRO_MAX_EVENTS", "1")
    out = tmp_path / "witnesses"
    main(["fuzz", "--budget", "20", "--seed", "0", "--no-cache", "--out", str(out)])
    assert "17 witnesses, 0 kernel order violations" in capsys.readouterr().out
    paths = sorted(out.glob("*.json"))
    assert paths
    witness = load_witness(str(paths[0]))
    assert witness["signature"] == ["crash", "race:use-after-free"]
    stats = witness["minimized"]
    assert stats["atoms_after"] <= stats["atoms_before"]

    main(["fuzz", "--replay", str(paths[0])])  # exits 2 on a drifted signature
    assert "reproduced twice" in capsys.readouterr().out


def test_cli_fuzz_under_jskernel_finds_nothing(tmp_path, monkeypatch, capsys):
    from repro.__main__ import main

    monkeypatch.setenv("REPRO_MAX_EVENTS", "1")
    out = tmp_path / "witnesses"
    main(["fuzz", "--budget", "20", "--seed", "0", "--defense", "jskernel",
          "--no-cache", "--out", str(out)])
    assert "0 witnesses, 0 kernel order violations" in capsys.readouterr().out
    assert not out.exists()
