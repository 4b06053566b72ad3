"""Command-line entry point: ``python -m repro <command> [flags]``.

Every command, flag, type and allowed value is declared once, with the
command's handler below; ``python -m repro <command> --help`` prints
it.  Bad input (a missing value, a wrong type, a value out of range, an
unknown flag or name) exits 2 with that command's usage line.

Every command accepts ``--metrics``: the run is captured under a tracer
and a metrics summary (task counts, queueing-delay and kernel latency
quantiles) is printed afterwards.

The six experiment commands (matrix, table2, figure2, fuzz, cube,
population) also take the engine flags (``--parallel N``, ``--no-cache``,
``--cache-dir D``; see ``repro.harness.parallel``) and the telemetry
flags (``--live``, ``--telemetry-out F``, ``--runlog F``; see
``repro.telemetry``).  Observing a run never changes what it computes:
with or without ``--metrics`` or a telemetry flag, every cell's payload
and cache key are the same.

A path flag that names a file to write (``--out FILE``,
``--telemetry-out F``, ``--runlog F``) must name an existing directory,
so a typo fails at parse time instead of after the run.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from typing import Callable, Dict, Optional, Sequence, Tuple

from .analysis.tables import render_series, render_table
from .attacks import all_attack_names, attack_names, create as create_attack
from .attacks.registry import EXTENSION_ATTACKS
from .defenses import available
from .explore.campaign import (
    DEFAULT_ATTACK,
    DEFAULT_DEFENSE,
    STRATEGIES,
    run_campaign,
    run_diff_campaign,
)
from .harness import (
    api_compat_counts,
    dom_similarity_survey,
    dromaeo_overhead,
    figure2_script_parsing,
    run_table1,
    table2_svg_loopscan,
)
from .trace import Tracer, capture, format_timeline, write_chrome_trace

#: Event backstop for fuzz trials: perturbed schedules can loop where
#: the nominal one terminates, so fail fast (still ~1000x a normal run).
FUZZ_MAX_EVENTS = 2_000_000

#: The cube slice run by default (--full covers every Table I row).
CUBE_ATTACKS = ["cache-attack", "clock-edge", "loopscan", "sab-timer", "cve-2018-5092"]

ANALYZE_MODES = ("races", "determinism", "critpath")


# ----------------------------------------------------------------------
# argument types: each raises ArgumentTypeError, which argparse turns
# into "<usage>\n<prog>: error: argument <flag>: <message>" and exit 2
# ----------------------------------------------------------------------
def _int(low: Optional[int] = None) -> Callable[[str], int]:
    """An integer, at least ``low`` when given."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value}")
        return value

    return parse


def _writable(text: str) -> str:
    """A file path to write, in a directory that exists."""
    parent = os.path.dirname(text)
    if parent and not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(f"no such directory {parent!r} for {text!r}")
    return text


def _seeds(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.split(",") if s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _known(kind: str, names: Callable[[], Sequence[str]], many: bool = False):
    """A registered ``kind`` name, or a comma-separated list with ``many``."""

    def parse(text: str):
        picked = [name for name in text.split(",") if name] if many else [text]
        for name in picked:
            if name not in names():
                raise argparse.ArgumentTypeError(
                    f"unknown {kind} {name!r}; run 'python -m repro {kind}s' for the list"
                )
        return picked if many else text

    return parse


def _choice(kind: str, allowed: Sequence[str]) -> dict:
    """``add_argument`` keywords for one of ``allowed``."""

    def parse(text: str) -> str:
        if text not in allowed:
            raise argparse.ArgumentTypeError(
                f"unknown {kind} {text!r}; expected one of {', '.join(allowed)}"
            )
        return text

    return {"type": parse, "metavar": "{" + ",".join(allowed) + "}"}


_attack = _known("attack", all_attack_names)
_defense = _known("defense", available)


# ----------------------------------------------------------------------
# command registry
# ----------------------------------------------------------------------
#: name -> (handler, one-line help, flag declarations, experiment command?)
COMMANDS: Dict[str, tuple] = {}


def _arg(*names, **kwargs):
    return names, kwargs


def _command(name: str, help_text: str, *arguments, experiment: bool = False):
    """Register a handler under ``name`` with its flag declarations."""

    def register(fn):
        COMMANDS[name] = (fn, help_text, arguments, experiment)
        return fn

    return register


def _cache(args):
    """The cache argument for :func:`repro.harness.as_cache`."""
    return None if args.no_cache else (args.cache_dir or True)


def _write_json(payload: str, out: str) -> None:
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(payload + "\n")
    print(f"wrote {out}")


_JSON = _arg("--json", action="store_true", help="print the JSON report")
_OUT = _arg("--out", type=_writable, default="", metavar="FILE",
            help="write the JSON report to FILE")


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
@_command(
    "matrix", "regenerate (a slice of) Table I",
    _arg("--full", action="store_true", help="every attack and defense"),
    experiment=True,
)
def _cmd_matrix(args) -> None:
    if args.full:
        result = run_table1(parallel=args.parallel, cache=_cache(args))
    else:
        result = run_table1(
            attacks=["cache-attack", "clock-edge", "loopscan", "cve-2018-5092"],
            defenses=["legacy-chrome", "fuzzyfox", "deterfox", "tor", "chromezero", "jskernel"],
            parallel=args.parallel,
            cache=_cache(args),
        )
    print(result.render())
    print(f"\nagreement with the paper: {result.agreement():.2%}")
    print(f"cells: {result.computed_cells} computed, {result.cached_cells} cached")
    for line in result.errors:
        print(f"cell error: {line}", file=sys.stderr)


@_command("table2", "SVG filtering + loopscan measurements", experiment=True)
def _cmd_table2(args) -> None:
    table = table2_svg_loopscan(runs=3, parallel=args.parallel, cache=_cache(args))
    rows = [
        [d, v["svg_low_ms"], v["svg_high_ms"], v["loopscan_google_ms"], v["loopscan_youtube_ms"]]
        for d, v in table.items()
    ]
    print(render_table(
        ["defense", "svg low", "svg high", "loops google", "loops youtube"], rows,
        title="Table II (ms)",
    ))


@_command("figure2", "script-parsing size sweep", experiment=True)
def _cmd_figure2(args) -> None:
    series = figure2_script_parsing(
        sizes=[2 * 1024 * 1024, 6 * 1024 * 1024, 10 * 1024 * 1024],
        parallel=args.parallel,
        cache=_cache(args),
    )
    print(render_series(series, title="Figure 2: reported time (ms) per size (MB)"))


@_command("dromaeo", "JSKernel Dromaeo overhead report")
def _cmd_dromaeo(_args) -> None:
    report = dromaeo_overhead()
    rows = [[name, f"{pct:+.2f}%"] for name, pct in report["per_test"].items()]
    print(render_table(["test", "overhead"], rows, title="Dromaeo overhead (JSKernel)"))
    print(f"average {report['average_pct']:+.2f}%  median {report['median_pct']:+.2f}%")


@_command("compat", "API-compat counts + DOM similarity (small)")
def _cmd_compat(_args) -> None:
    counts = api_compat_counts()
    for config, count in counts.items():
        print(f"{config:10s}: {count:2d}/20 apps with observable differences")
    survey = dom_similarity_survey(site_count=15)
    print(f"DOM similarity >= 99%: {survey['fraction_above']:.0%} of sites")


@_command("attacks", "list every attack row")
def _cmd_attacks(_args) -> None:
    for name in attack_names():
        print(name)
    for cls in EXTENSION_ATTACKS:
        print(f"{cls.name}  (extension)")


@_command("defenses", "list every registered defense")
def _cmd_defenses(_args) -> None:
    for name in available():
        print(name)


@_command(
    "trace", "capture a Chrome trace of a scenario",
    _arg("target", **_choice("trace target", ("matrix", "table2", "dromaeo", "attack"))),
    _arg("name", nargs="?", type=_attack, help="the attack to trace (target 'attack')"),
    _arg("--out", type=_writable, default="trace.json", metavar="FILE", help="trace JSON path"),
    _arg("--timeline", action="store_true", help="also print a text timeline"),
    _arg("--defense", type=_defense, default="jskernel", metavar="NAME",
         help="defense for 'attack'"),
)
def _cmd_trace(args) -> None:
    """Capture one scenario under a tracer and export Chrome trace JSON."""
    if (args.target == "attack") != (args.name is not None):
        args.error("'trace attack' takes one attack NAME; the other targets take none")
    tracer = Tracer()
    with capture(tracer):
        if args.target == "matrix":
            # a narrow Table I slice: tracing the full matrix would
            # collect events from hundreds of browser runs
            run_table1(
                attacks=["cache-attack", "cve-2018-5092"],
                defenses=["legacy-chrome", "jskernel"],
            )
        elif args.target == "table2":
            table2_svg_loopscan(runs=1)
        elif args.target == "dromaeo":
            dromaeo_overhead()
        else:
            create_attack(args.name).run(args.defense)

    write_chrome_trace(tracer, args.out)
    threads = len(tracer.thread_table())
    print(
        f"wrote {args.out}: {len(tracer.events)} events across "
        f"{len(tracer.runs)} runs / {threads} threads "
        "(load in https://ui.perfetto.dev or chrome://tracing)"
    )
    if args.timeline:
        print(format_timeline(tracer))
    if args.metrics:
        print(tracer.metrics.format())


@_command(
    "analyze", "causal analysis of one scenario's trace",
    _arg("mode", **_choice("analyze mode", ANALYZE_MODES)),
    _arg("attack", type=_attack),
    _arg("--defense", type=_defense, default="jskernel", metavar="NAME"),
    _arg("--seed", type=_int(), metavar="N", default=0, help="seed for races/critpath"),
    _arg("--seeds", type=_seeds, default="0,1,2", metavar="N,N,...",
         help="seeds for the determinism audit (at least two)"),
    _JSON,
    _OUT,
)
def _cmd_analyze(args) -> None:
    """Causal analysis: races, determinism audit, critical-path profile."""
    # imported lazily: the analysers pull in the whole attack registry
    from .analysis.critpath import format_critpath, profile_scenario
    from .analysis.determinism import audit_scenario, format_audit
    from .analysis.races import analyze_scenario, format_races

    if args.mode == "races":
        report = analyze_scenario(args.attack, args.defense, seed=args.seed)
        rendered = format_races(report)
    elif args.mode == "determinism":
        if len(args.seeds) < 2:
            args.error(f"determinism audit needs at least two --seeds, got {args.seeds}")
        report = audit_scenario(args.attack, args.defense, seeds=args.seeds)
        rendered = format_audit(report)
    else:
        report = profile_scenario(args.attack, args.defense, seed=args.seed)
        rendered = format_critpath(report)

    payload = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        _write_json(payload, args.out)
    print(payload if args.json else rendered)


@_command(
    "fuzz", "schedule-space exploration of one scenario",
    _arg("--attack", type=_attack, default=DEFAULT_ATTACK, metavar="NAME"),
    _arg("--defense", type=_defense, default=DEFAULT_DEFENSE, metavar="NAME"),
    _arg("--vs", type=_defense, metavar="DEFENSE", help="differential mode"),
    _arg("--seed", type=_int(), metavar="N", default=0),
    _arg("--budget", type=_int(1), metavar="N", default=200, help="trial count"),
    _arg("--strategy", default="mixed", **_choice("strategy", ("mixed",) + STRATEGIES)),
    _arg("--out", default="witnesses", metavar="DIR", help="witness directory"),
    _arg("--max-witnesses", type=_int(1), metavar="N", default=5, help="witnesses kept"),
    _arg("--no-minimize", action="store_true", help="write witnesses unminimized"),
    _arg("--max-events", type=_int(1), metavar="N", default=FUZZ_MAX_EVENTS,
         help="per-trial event backstop"),
    _arg("--check-determinism", action="store_const", const=True,
         help="run the determinism oracle on every trial"),
    _arg("--replay", default="", metavar="FILE", help="re-run one witness twice"),
    experiment=True,
)
def _cmd_fuzz(args) -> None:
    """Schedule-space fuzzing: campaign, minimization, witness replay.

    Perturbs the schedule and injects faults for --budget trials, checks
    the oracle batteries (races, crashes, leakage, determinism, kernel
    dispatch-order invariant), minimizes the failing trials with delta
    debugging, and writes replayable JSON witnesses into --out.
    --replay FILE re-runs one witness twice and verifies the verdict.
    --vs DEFENSE switches to differential mode: every trial runs under
    both --defense and --vs with byte-identical perturbation and fault
    specs, and a witness is any schedule where one defense holds while
    the other leaks (the DetBrowser divergence hunt).
    """
    from .explore.minimize import (
        load_witness,
        minimize_witness,
        replay_witness,
        save_witness,
    )
    from .explore.oracles import signature

    if args.replay:
        try:
            witness = load_witness(args.replay)
        except (OSError, ValueError) as exc:
            args.error(f"cannot load witness {args.replay!r}: {exc}")
        if not isinstance(witness, dict) or "verdict" not in witness:
            args.error(f"{args.replay!r} is not a witness file (no verdict)")

    # the env var (not a parameter) so pool workers inherit the budget
    os.environ["REPRO_MAX_EVENTS"] = str(args.max_events)

    if args.replay:
        expected = witness.get("signature") or signature(witness["verdict"])
        verdicts = [replay_witness(witness) for _ in range(2)]
        for i, verdict in enumerate(verdicts, start=1):
            print(f"replay {i}: outcome {verdict['outcome']!r}, "
                  f"failures {verdict['failures']}")
        if any(signature(v) != expected for v in verdicts):
            args.error(
                f"witness did not replay: expected signature {expected}, got "
                f"{[signature(v) for v in verdicts]}"
            )
        print(f"witness replays: signature {expected} reproduced twice")
        return

    attack, defense, vs, seed = args.attack, args.defense, args.vs, args.seed
    if vs:
        report = run_diff_campaign(
            attack=attack,
            defense=defense,
            vs=vs,
            seed=seed,
            budget=args.budget,
            strategy=args.strategy,
            parallel=args.parallel,
            cache=_cache(args),
            max_witnesses=args.max_witnesses,
        )
        print(
            f"{report['trials']} differential trials of {attack}: "
            f"{defense} vs {vs} (seed {seed}, strategy {args.strategy}): "
            f"{report['divergent']} divergent schedules"
        )
        if report["failed_shards"]:
            print(
                f"  attempted {report['attempted_trials']} trials; "
                f"{report['failed_shards']} shards failed",
                file=sys.stderr,
            )
        for sig, n in sorted(report["signatures"].items()):
            print(f"  divergence {n:4d}x  [{sig}]")
        print(
            f"  shards: {report['computed_shards']} computed, "
            f"{report['cached_shards']} cached"
        )
        for line in report["errors"]:
            print(f"shard error: {line}", file=sys.stderr)
        if not report["witnesses"]:
            print("no divergent schedules found")
            return
        os.makedirs(args.out, exist_ok=True)
        for witness in report["witnesses"]:
            path = os.path.join(
                args.out, f"diff-{attack}-{defense}-vs-{vs}-{witness['trial']}.json"
            )
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(witness, handle, indent=2, sort_keys=True)
                handle.write("\n")
            inner = witness["report"]
            print(
                f"wrote {path}  "
                f"[{'+'.join(inner['a']['failures']) or 'held'} / "
                f"{'+'.join(inner['b']['failures']) or 'held'}]"
            )
        return

    report = run_campaign(
        attack=attack,
        defense=defense,
        seed=seed,
        budget=args.budget,
        strategy=args.strategy,
        parallel=args.parallel,
        cache=_cache(args),
        check_determinism=args.check_determinism,
        max_witnesses=args.max_witnesses,
    )

    witnesses_found = len(report["witnesses"]) + report["witness_overflow"]
    print(
        f"{report['trials']} trials of {attack} vs {defense} (seed {seed}, "
        f"strategy {args.strategy}): {witnesses_found} witnesses, "
        f"{report['order_violations']} kernel order violations"
    )
    if report["failed_shards"]:
        print(
            f"  attempted {report['attempted_trials']} trials; "
            f"{report['failed_shards']} shards failed "
            f"({report['attempted_trials'] - report['trials']} trials lost)",
            file=sys.stderr,
        )
    if report["witness_overflow"]:
        print(f"  witness list capped: {report['witness_overflow']} more not kept")
    for outcome, n in sorted(report["outcomes"].items()):
        print(f"  outcome {n:4d}x  {outcome}")
    for sig, n in sorted(report["signatures"].items()):
        print(f"  witness {n:4d}x  [{sig}]")
    print(
        f"  shards: {report['computed_shards']} computed, "
        f"{report['cached_shards']} cached"
    )
    for line in report["errors"]:
        print(f"shard error: {line}", file=sys.stderr)

    if not report["witnesses"]:
        print("no witnesses found (nothing to minimize)")
        return

    os.makedirs(args.out, exist_ok=True)
    written = []
    for witness in report["witnesses"]:
        if args.no_minimize:
            final = dict(witness, signature=signature(witness["verdict"]))
        else:
            final = minimize_witness(witness)
        path = os.path.join(args.out, f"witness-{attack}-{witness['trial']}.json")
        save_witness(final, path)
        written.append((path, final))
    for path, final in written:
        stats = final.get("minimized")
        detail = (
            f"minimized {stats['atoms_before']}->{stats['atoms_after']} atoms "
            f"in {stats['tests_run']} tests"
            if stats
            else "unminimized"
        )
        print(f"wrote {path}  [{'+'.join(final['signature'])}]  ({detail})")
    print(f"replay with: python -m repro fuzz --replay {written[0][0]}")


@_command(
    "cube", "the defense x attack cube",
    _arg("--full", action="store_true", help="every Table I attack row"),
    _arg("--attacks", type=_known("attack", all_attack_names, many=True),
         metavar="A,B,...", default=None),
    _arg("--defenses", type=_known("defense", available, many=True),
         metavar="X,Y,...", default=None),
    _arg("--seed", type=_int(), metavar="N", default=0),
    _JSON,
    _OUT,
    experiment=True,
)
def _cmd_cube(args) -> None:
    """Defense x attack cube: verdicts + per-cell overhead quantiles.

    Every cell runs under a private tracer, so alongside the Table I
    style verdict each cell carries an overhead profile (count, mean and
    p50/p95/p99 of the event-loop queue delay and kernel stage
    latencies, task counts).  Cells where the JSKernel/DetBrowser pair
    disagree, by verdict or by overhead shape, are reported as divergent
    cells.
    """
    from .defenses import CUBE_DEFENSES
    from .harness import run_cube

    result = run_cube(
        attacks=args.attacks or (None if args.full else CUBE_ATTACKS),
        defenses=args.defenses or CUBE_DEFENSES,
        seed=args.seed,
        parallel=args.parallel,
        cache=_cache(args),
    )
    payload = json.dumps(result.to_json(), indent=2, sort_keys=True)
    if args.out:
        _write_json(payload, args.out)
    if args.json:
        print(payload)
    else:
        print(result.render())
        print(
            f"\ncells: {result.computed_cells} computed, "
            f"{result.cached_cells} cached"
        )
    for line in result.errors:
        print(f"cell error: {line}", file=sys.stderr)


@_command(
    "population", "streamed internet-scale load-time sweep",
    _arg("--size", type=_int(1), metavar="N", default=2000, help="pages in the population"),
    _arg("--seed", type=_int(), metavar="N", default=0),
    _arg("--mode", default="model", **_choice("mode", ("model", "sim"))),
    _arg("--visits", type=_int(1), metavar="N", default=1, help="visits per page"),
    _arg("--sessions", type=_int(1), metavar="N", help="user sessions instead of a rank scan"),
    _arg("--window", type=_int(1), metavar="N",
         help="engine in-flight window, in cells: 256-page blocks in model mode, "
              "single pages in sim mode"),
    _JSON,
    _OUT,
    experiment=True,
)
def _cmd_population(args) -> None:
    """Streamed population sweep: per-config/archetype load-time quantiles.

    Sweeps a seeded population of --size pages (site archetypes whose
    mix shifts with popularity rank; see repro.workloads.population)
    through the engine's bounded-window streaming path and prints
    per-config / per-archetype load-time quantiles from mergeable
    sketches; resident memory is independent of --size.  --sessions N
    switches from a uniform rank scan to a seeded user-session arrival
    process.  --mode model evaluates the closed-form load-time model;
    --mode sim drives the full simulated browser (~1000x slower).
    """
    from .workloads.population import population_sweep

    report = population_sweep(
        args.size, seed=args.seed, mode=args.mode, visits=args.visits,
        sessions=args.sessions, parallel=args.parallel, cache=_cache(args),
        window=args.window,
    )
    payload = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        _write_json(payload, args.out)
    if args.json:
        print(payload)
    else:
        rows = [
            [name, stats["count"], stats["mean_ms"], stats["p50"], stats["p95"], stats["p99"]]
            for name, stats in report["configs"].items()
        ]
        print(render_table(
            ["config", "pages", "mean", "p50", "p95", "p99"], rows,
            title=f"Population sweep: {report['pages']} pages, mode {args.mode} (ms)",
        ))
        rows = [
            [name, stats["count"], stats["mean_ms"], stats["p50"]]
            for name, stats in report["archetypes"].items()
        ]
        print(render_table(["archetype", "pages", "mean", "p50"], rows))
    for line in report["errors"]:
        print(f"cell error: {line}", file=sys.stderr)
    if report["error_overflow"]:
        print(f"... and {report['error_overflow']} more errors", file=sys.stderr)


# ----------------------------------------------------------------------
# parser and entry point
# ----------------------------------------------------------------------
def _flags(*arguments) -> argparse.ArgumentParser:
    """A parent parser carrying a shared flag group."""
    parent = argparse.ArgumentParser(add_help=False)
    for names, kwargs in arguments:
        parent.add_argument(*names, **kwargs)
    return parent


def build_parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The top-level parser (for help) and one parser per command."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(title="commands", metavar="<command>")
    common = _flags(
        _arg("--metrics", action="store_true", help="print a tracer metrics summary"),
    )
    engine = _flags(
        _arg("--parallel", type=_int(1), metavar="N", help="shard cells over N worker processes"),
        _arg("--no-cache", action="store_true", help="disable the result cache"),
        _arg("--cache-dir", default="", metavar="D",
             help="cache root (default $REPRO_CACHE_DIR or ~/.cache/repro-jskernel)"),
    )
    telemetry = _flags(
        _arg("--live", action="store_true", help="repaint a stderr progress line"),
        _arg("--telemetry-out", type=_writable, default="", metavar="F",
             help="write the merged telemetry report as JSON to F"),
        _arg("--runlog", type=_writable, default="", metavar="F",
             help="JSONL run log path (default RUN_<command>.jsonl)"),
    )
    commands = {}
    for name, (run, help_text, arguments, experiment) in COMMANDS.items():
        sub = subparsers.add_parser(
            name,
            help=help_text,
            description=inspect.getdoc(run) or help_text,
            formatter_class=argparse.RawDescriptionHelpFormatter,
            parents=[common, engine, telemetry] if experiment else [common],
        )
        for names, kwargs in arguments:
            sub.add_argument(*names, **kwargs)
        sub.set_defaults(command=name, run=run, error=sub.error)
        commands[name] = sub
    return parser, commands


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    if not argv or argv[0] not in commands:
        asked = argv[:1] in (["-h"], ["--help"])
        parser.print_help(None if asked else sys.stderr)
        return 0 if asked else 1
    # each command parses with its own parser, so every usage error
    # (including an unknown flag) prints that command's usage line
    args = commands[argv[0]].parse_args(argv[1:])

    def execute() -> None:
        if args.metrics and args.command != "trace":
            tracer = Tracer()
            with capture(tracer):
                args.run(args)
            print()
            print(tracer.metrics.format())
        else:
            args.run(args)

    live = getattr(args, "live", False)
    telemetry_out = getattr(args, "telemetry_out", "")
    runlog = getattr(args, "runlog", "")
    if not (live or telemetry_out or runlog):
        execute()
        return 0

    from .telemetry import render_summary, telemetry_session, write_telemetry

    runlog_path = runlog or f"RUN_{args.command}.jsonl"
    with telemetry_session(args.command, live=live, runlog=runlog_path) as telem:
        execute()
    report = telem.report()
    print(render_summary(report), file=sys.stderr)
    print(f"wrote {runlog_path}", file=sys.stderr)
    if telemetry_out:
        print(f"wrote {write_telemetry(report, telemetry_out)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
