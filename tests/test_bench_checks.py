"""The benchmark counts a set-up as failed when perfbench's checkpoint check
gives a reason, and that check loads checkpoints through arpro's own
loaders. Checkpoints that the CLI writes must pass it."""

import json
import sys
from pathlib import Path

from arpro.cli import main

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))  # as perfbench/run.py imports it
import checks  # noqa: E402

CONFIG = {
    "data": {"kind": "ts", "n_features": 2, "window_len": 8, "n_train": 30, "n_test": 4, "start_jitter": 8.0,
             "anomalies": [{"kind": "spike", "magnitude": 1.5, "extent": 0.15}]},
    "detector": {"hidden": [4], "steps": 3},
    "diffusion": {"T": 5, "hidden": [8], "time_embed": 4, "steps": 4},
}


def test_cli_checkpoints_pass_the_benchmark_check(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    data, gauss, recon = (str(tmp_path / name) for name in ("data", "gauss", "recon"))
    common = ["--seed", "3", "--config", str(config)]
    assert main(["gen-data", "--out", data, *common]) == 0
    assert main(["train-detector", "--kind", "gauss", "--input", data, "--out", gauss, *common]) == 0
    assert main(["train-diffusion", "--input", data, "--out", gauss, *common]) == 0
    assert main(["train-detector", "--kind", "recon", "--input", data, "--out", recon, *common]) == 0
    assert checks.check_checkpoints(gauss, detector=True, denoiser=True) == []
    assert checks.check_checkpoints(recon, detector=True, denoiser=False) == []
    # The check does object: a checkpoint that does not load gives a reason.
    (Path(recon) / "detector.json").write_text("{}")
    assert checks.check_checkpoints(recon, detector=True, denoiser=False) != []
