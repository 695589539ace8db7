"""The golden corpus: each command's stdout and exit code, recorded from
the code that preceded the change that added the command, must hold
byte for byte.  Each file under tests/golden/ holds one command's output:
a first line `exit N`, then stdout exactly as printed, then, when the
command writes to stderr, a line `--- stderr` and stderr exactly as
printed.  A usage error's exit 2 is read off its SystemExit.  The commands run
through cli.main in this process on a fresh cache directory, cold and then
warm, apart from verify, which neither reads nor writes the cache and runs
once.

A change that rewrites a golden file changes stdout; it names the file and
the reason in CHANGES.md.  No tool rewrites the corpus."""

import pathlib

import pytest

from bct.cli import COMMANDS as SUBCOMMANDS
from bct.cli import main, parse_args
from bct.definitions import PACKAGED

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
GROUPS = ["gmpn:2,1,4", "gmpn:3,1,3", "gmpn:2,2,4", "g4", "g23", "g25", "g26"]
COMMANDS = [
    *(f"verify --suite {s} {g}" for s in ("relations", "freeness") for g in GROUPS),
    "verify --suite g26 g26",
    "verify --suite relations gmpn:2,1,5",
    "verify --suite formulas",
    "group g4",
    "dims gmpn:2,2,4",
    "dims g25 --mu6",
    "classify gmpn:2,2,4 --csv",
    "classify g25 --mu6",
    "--max-order 130 reproduce-table",
    "dims g99",
    "dims gmpn:2,3,2",
    "classify gmpn:2,2,4 --mu6 --csv",
    "--max-order 130 reproduce-table gmpn:2,1,3",
]


def golden_path(command):
    """verify --suite relations gmpn:2,1,4 -> verify-relations-gmpn-2-1-4.txt,
    --max-order 130 reproduce-table -> max-order-130-reproduce-table.txt"""
    name = command.replace(" --suite ", "-").replace(" --", " ").lstrip("-")
    for ch in " :,":
        name = name.replace(ch, "-")
    return GOLDEN / f"{name}.txt"


def test_the_corpus_is_the_command_list():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(
        golden_path(c).name for c in COMMANDS
    )


def test_the_corpus_covers_every_suite_and_packaged_group():
    # the subcommands and the choices of `verify --suite`, read off the table
    suites = SUBCOMMANDS["verify"][2]["--suite"]
    runs = [parse_args(c.split()) for c in COMMANDS]
    verifies = [a for a in runs if a.command == "verify"]
    assert set(SUBCOMMANDS) <= {a.command for a in runs}
    assert set(suites) <= {a.suite for a in verifies}
    assert set(PACKAGED) <= {a.spec for a in verifies}


@pytest.mark.parametrize("command", COMMANDS)
def test_golden_output_holds(command, capsys, tmp_path):
    with open(golden_path(command), newline="") as f:
        expected = f.read()
    phases = ["cold"] if command.startswith("verify") else ["cold", "warm"]
    for phase in phases:
        try:
            code = main(["--cache-dir", str(tmp_path / "cache"), *command.split()])
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        got = f"exit {code}\n{out}" + (f"--- stderr\n{err}" if err else "")
        assert got == expected, phase
