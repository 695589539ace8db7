"""The stdout pins of perfbench/pins.json hold in Tier-1: each pinned
command runs through cli.main in this process on a fresh cache, cold and
then warm, and its stdout must hash to the pinned sha256 both times."""

import hashlib
import json
import pathlib

import pytest

from bct.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
PINS = json.loads((ROOT / "perfbench" / "pins.json").read_text())


def test_every_perfbench_command_is_pinned():
    assert len(PINS) == 11


@pytest.mark.parametrize("command", sorted(PINS))
def test_perfbench_pin_holds_cold_and_warm(command, capsys, tmp_path):
    argv = ["--cache-dir", str(tmp_path / "cache"), *command.split()]
    for phase in ("cold", "warm"):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, phase
        assert hashlib.sha256(out.encode()).hexdigest() == PINS[command], phase
