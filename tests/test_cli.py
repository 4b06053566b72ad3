"""The CLI boundary: every command's flags are declared once, in argparse.

Three properties:

* every command runs end to end from its smallest argv and prints its
  known output;
* bad input — a missing value, a bad type or name, a value out of
  range, an unknown flag — exits 2 and prints the failing command's own
  usage line on stderr, before any experiment runs;
* every ``python -m repro ...`` invocation quoted in the docs parses
  against the current declarations, so a doc naming a removed command
  or flag fails here.

The same doc-drift guard covers the tests: every test DESIGN.md's
experiment index names for a paper artefact exists, and no test file
lives outside the one tier-1 root (``perfbench/`` has its own smoke
tests).  DESIGN.md's engine section names exactly the registered cell
kinds.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.__main__ import COMMANDS, build_parser, main
from repro.harness import parallel
from repro.runtime.simulator import DEFAULT_MAX_EVENTS, MAX_EVENTS_ENV

ROOT = Path(__file__).resolve().parent.parent
DOCS = ["README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"]

#: A file path in a directory that does not exist.
NO_DIR = str(ROOT / "no-such-dir" / "out.json")

#: command -> {case: argv after the command}; a case is left out where
#: the command has no flag it could apply to.
BAD_INPUT = {
    "matrix": {
        "missing value": ["--parallel"],
        "bad type": ["--parallel", "two"],
        "out of range": ["--parallel", "0"],
        "unknown flag": ["--bogus"],
        "telemetry-out in a missing directory": ["--telemetry-out", NO_DIR],
    },
    "table2": {
        "missing value": ["--cache-dir"],
        "bad type": ["--parallel", "2.5"],
        "out of range": ["--parallel", "-1"],
        "unknown flag": ["--bogus"],
        "runlog in a missing directory": ["--runlog", NO_DIR],
    },
    "figure2": {
        "missing value": ["--runlog"],
        "bad type": ["--parallel", "x"],
        "out of range": ["--parallel", "0"],
        "unknown flag": ["--full"],
    },
    "dromaeo": {"unknown flag": ["--bogus"]},
    "compat": {"unknown flag": ["--parallel", "2"]},
    "attacks": {"unknown flag": ["--live"]},
    "defenses": {"unknown flag": ["--json"]},
    "trace": {
        "missing value": ["attack", "cve-2018-5092", "--out"],
        "missing name": ["attack"],
        "bad name": ["attack", "cve-2018-5092", "--defense", "nope"],
        "bad target": ["everything"],
        "unknown flag": ["attack", "cve-2018-5092", "--bogus"],
        "out in a missing directory": ["attack", "cve-2018-5092", "--out", NO_DIR],
    },
    "analyze": {
        "missing value": ["races", "cve-2018-5092", "--seed"],
        "bad type": ["races", "cve-2018-5092", "--seed", "one"],
        "bad seeds": ["determinism", "cve-2018-5092", "--seeds", "0,x"],
        "out of range": ["determinism", "cve-2018-5092", "--seeds", "0"],
        "bad mode": ["frobnicate", "cve-2018-5092"],
        "unknown flag": ["races", "cve-2018-5092", "--live"],
        "out in a missing directory": ["races", "cve-2018-5092", "--out", NO_DIR],
    },
    "fuzz": {
        "missing value": ["--budget"],
        "bad type": ["--budget", "nope"],
        "out of range": ["--budget", "-5"],
        "max-witnesses out of range": ["--max-witnesses", "-1"],
        "max-events out of range": ["--max-events", "0"],
        "bad strategy": ["--strategy", "random"],
        "bad name": ["--vs", "nope"],
        "unknown flag": ["--bogus"],
        "missing witness": ["--replay", str(ROOT / "no-such-witness.json")],
        "not a witness": ["--replay", str(ROOT / "tests/golden/cube_expected.json")],
    },
    "cube": {
        "missing value": ["--out"],
        "missing seed": ["--seed"],
        "bad type": ["--seed", "zero"],
        "out of range": ["--parallel", "0"],
        "bad name": ["--attacks", "clock-edge,bogus-attack"],
        "unknown flag": ["--bogus"],
        "out in a missing directory": ["--out", NO_DIR],
    },
    "population": {
        "missing value": ["--size"],
        "bad type": ["--size", "big"],
        "out of range": ["--size", "0"],
        "negative size": ["--size", "-3"],
        "zero visits": ["--visits", "0"],
        "zero sessions": ["--sessions", "0"],
        "zero window": ["--window", "0"],
        "bad mode": ["--mode", "exact"],
        "unknown flag": ["--bogus"],
        "out in a missing directory": ["--out", NO_DIR],
    },
}


#: A ``--metrics`` histogram line with no observations.
EMPTY_HISTOGRAM = re.compile(r"^\s+\S+\s+n=0\b.*$", re.MULTILINE)

#: command -> {case: (argv after the command, lines its output must
#: contain)}: the smallest end-to-end run of every command, in process.
RUN = {
    "matrix": {"slice": (["--no-cache"], ["agreement with the paper: 100.00%"])},
    "table2": {"runs": (["--no-cache"], ["jskernel        10.00    10.00     1.00"])},
    "figure2": {"sweep": (["--no-cache"], ["  jskernel: (2, 25.00), (6, 25.00), (10, 25.00)"])},
    "dromaeo": {
        "with metrics": (
            ["--metrics"], ["average +3.84%  median +0.00%", "histograms:", " p99="],
        ),
    },
    "compat": {"small": ([], ["DOM similarity >= 99%: 100% of sites"])},
    "attacks": {"list": ([], ["sab-timer  (extension)"])},
    "defenses": {"list": ([], ["jskernel-nocve"])},
    "trace": {
        "attack": (["attack", "cve-2018-5092"], ["wrote trace.json: 36 events across 1 runs"]),
    },
    "analyze": {
        "determinism": (["determinism", "cache-attack"], ["divergence: 0 (deterministic)"]),
    },
    "fuzz": {
        "one trial": (
            ["--budget", "1", "--no-cache"],
            ["1 trials of cve-2018-5092 vs legacy-chrome (seed 0, strategy mixed): 1 witnesses"],
        ),
    },
    "cube": {
        "one cell": (
            ["--attacks", "clock-edge", "--defenses", "jskernel", "--no-cache"],
            ["clock-edge    defended", "cells: 1 computed, 0 cached"],
        ),
    },
    "population": {
        "rank scan": (["--size", "200", "--no-cache"], ["Population sweep: 200 pages"]),
        "sessions": (
            ["--size", "200", "--sessions", "5", "--no-cache"],
            ["Population sweep: 18 pages"],
        ),
    },
}


def test_the_table_covers_every_command():
    assert set(BAD_INPUT) == set(COMMANDS)
    assert set(RUN) == set(COMMANDS)


@pytest.mark.parametrize(
    "command,argv",
    [
        pytest.param(command, argv, id=f"{command}-{case}")
        for command, cases in BAD_INPUT.items()
        for case, argv in cases.items()
    ],
)
def test_bad_input_exits_2_with_the_commands_own_usage(command, argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command] + argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"usage: python -m repro {command} ")
    assert f"python -m repro {command}: error: " in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "command,argv,lines",
    [
        pytest.param(command, argv, lines, id=f"{command}-{case}")
        for command, cases in RUN.items()
        for case, (argv, lines) in cases.items()
    ],
)
def test_every_command_runs_end_to_end(command, argv, lines, tmp_path, monkeypatch, capsys):
    # default output paths (trace.json, witnesses/) land in tmp_path;
    # fuzz overwrites $REPRO_MAX_EVENTS, and monkeypatch restores it
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(MAX_EVENTS_ENV, str(DEFAULT_MAX_EVENTS))
    assert main([command] + argv) == 0
    out = capsys.readouterr().out
    for line in lines:
        assert line in out
    # --metrics lists only histograms that observed something
    assert not EMPTY_HISTOGRAM.findall(out)


# ----------------------------------------------------------------------
# doc drift
# ----------------------------------------------------------------------
INVOCATION = re.compile(r"python -m repro(?![\w.-])")


def _argv(text):
    """The arguments of one shell command line, up to a comment,
    pipe, redirect or separator."""
    lexer = shlex.shlex(text, posix=True, punctuation_chars=True)
    lexer.whitespace_split = True
    argv = []
    for token in lexer:
        if set(token) <= set("|&;<>()"):
            break
        argv.append(token)
    return argv


def _invocations():
    """Every ``python -m repro ...`` in the docs: ``(where, argv)``."""
    found = []
    for name in DOCS:
        text = (ROOT / name).read_text(encoding="utf-8")
        # fenced blocks: one command per logical (continued) line
        fenced = text.split("```")[1::2]
        for block in fenced:
            for line in block.replace("\\\n", " ").splitlines():
                match = INVOCATION.search(line)
                if match:
                    found.append((name, _argv(line[match.end():])))
        # inline code spans, which may wrap across lines
        prose = "".join(text.split("```")[0::2])
        for span in re.findall(r"`([^`]*)`", prose):
            match = INVOCATION.search(span)
            if match:
                found.append((name, _argv(span[match.end():].replace("\n", " "))))
    return found


def test_docs_quote_the_cli():
    invocations = _invocations()
    assert len(invocations) > 40
    assert {name for name, _argv in invocations} == set(DOCS)


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(argv, id=f"{name}: {' '.join(argv)}")
        for name, argv in _invocations()
        if argv
    ],
)
def test_every_documented_invocation_parses(argv):
    _parser, commands = build_parser()
    assert argv[0] in commands or argv[0] in ("-h", "--help"), argv
    if argv[0] in commands:
        try:
            commands[argv[0]].parse_args(argv[1:])
        except SystemExit as exc:  # --help exits 0; a usage error exits 2
            assert exc.code == 0, argv


def test_design_names_an_existing_test_for_every_paper_artefact():
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    index = text.split("## 4. Experiment index")[1].split("\n## ")[0]
    rows = [line for line in index.splitlines() if line.startswith("| **")]
    assert len(rows) >= 10
    for row in rows:
        node = row.rstrip(" |").rsplit("|", 1)[1].strip().strip("`")
        path, _sep, name = node.partition("::")
        assert path.startswith("tests/") and name.startswith("test_"), row
        source = (ROOT / path).read_text(encoding="utf-8")
        assert re.search(rf"^def {name}\(", source, re.MULTILINE), node


def test_design_names_every_cell_kind():
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    engine = text.split("## 10. ")[1].split("\n## ")[0]
    listed = re.search(r"module-level\s+runner \(([^)]*)\)", engine).group(1)
    # tests may register probe kinds of their own; the package's are the
    # ones defined under repro
    registered = sorted(
        kind
        for kind, runner in parallel._RUNNERS.items()
        if runner.__module__.startswith("repro.")
    )
    assert sorted(re.findall(r"`([^`]+)`", listed)) == registered


def test_every_test_file_lives_under_one_root():
    strays = []
    for path in ROOT.rglob("test_*.py"):
        parts = path.relative_to(ROOT).parts
        if parts[0] not in ("tests", "perfbench") and not any(
            part.startswith(".") for part in parts
        ):
            strays.append("/".join(parts))
    assert strays == []
