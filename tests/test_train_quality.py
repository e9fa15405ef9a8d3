import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "train_quality.py"
sys.path.insert(0, str(TOOL.parent))  # the tool imports its sibling compare_outputs
_spec = importlib.util.spec_from_file_location("train_quality", TOOL)
train_quality = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(train_quality)

TINY = ["data.n_train=20", "data.n_test=4", "diffusion.steps=5", "detector.steps=5"]
METRICS = [
    *(f"{kind}.denoiser_mse{q}" for kind in ("ts", "image") for q in ("", ".q1", ".q2", ".q3", ".q4")),
    "image.recon_alpha",
]


def test_tiny_config_against_itself(tmp_path, capsys):
    src = ROOT / "src"
    args = [str(src), str(src), "--seeds", "0", "1", "--work", str(tmp_path)]
    for item in TINY:
        args += ["--set", item]
    assert train_quality.main(args) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines() if line.startswith(("     0", "median"))]
    assert [row[1] for row in rows] == METRICS * 2
    for row in rows:
        parent, change = float(row[2]), float(row[3])
        assert parent > 0.0 and parent == change
    cfg = json.loads((tmp_path / "change" / "seed1" / "image" / "config.json").read_text(encoding="utf-8"))
    assert cfg["data"]["n_test_normal"] == train_quality.HELD_OUT_NORMALS
    assert cfg["diffusion"]["steps"] == 5 and cfg["detector"]["steps"] == 5


def test_evaluate_adds_both_arms_and_the_c5_delta(tmp_path, capsys):
    # T=10 and two instances keep the two evaluate runs per tree short.
    src = ROOT / "src"
    args = [str(src), str(src), "--seeds", "0", "--work", str(tmp_path), "--evaluate"]
    for item in [*TINY, "diffusion.T=10", "n_instances=2"]:
        args += ["--set", item]
    assert train_quality.main(args) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines() if line.startswith("median")]
    evaluated = [f"{kind}.{name}" for kind in ("ts", "image")
                 for name in ("m_s.baseline", "m_s.guided", "delta_percent.m_omega")]
    assert [row[1] for row in rows] == METRICS + evaluated
    values = {row[1]: (float(row[2]), float(row[3])) for row in rows}
    for kind in ("ts", "image"):
        directory = tmp_path / "change" / "seed0" / kind
        report = json.loads((directory / "evaluate" / "report.json").read_text(encoding="utf-8"))
        assert values[f"{kind}.m_s.guided"][1] == pytest.approx(report["medians"]["guided"]["m_s"], rel=1e-6)
        assert values[f"{kind}.delta_percent.m_omega"][1] == pytest.approx(report["delta_percent"]["m_omega"], rel=1e-6)
        cfg = json.loads((directory / "evaluate.json").read_text(encoding="utf-8"))
        assert cfg["data"]["n_test_normal"] == 0 and cfg["n_instances"] == 2
    for parent, change in values.values():
        assert parent == change


def test_overrides_must_be_json():
    assert train_quality._override("diffusion.steps=500") == ("diffusion.steps", 500)
    for bad in ("steps", "=3", "lr=fast"):
        with pytest.raises(train_quality.argparse.ArgumentTypeError):
            train_quality._override(bad)
