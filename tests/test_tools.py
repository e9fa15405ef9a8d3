"""The tools' failure path: a stage that exits non-zero makes the tool exit
2, with arpro's error line and the failing subcommand on stderr."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import train_quality  # noqa: E402


def test_failing_stage_exits_2_naming_it(tmp_path, capsys):
    src = str(ROOT / "src")
    with pytest.raises(SystemExit) as info:
        train_quality.main([src, src, "--seeds", "0", "--work", str(tmp_path), "--set", "diffusion.T=0"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "gen-data" in err
    assert "config.diffusion: step count T must be >= 1" in err
