"""perfbench's layer spans wrap functions where arpro's callers look them up;
a refactor that moves a call elsewhere leaves its span, and the metrics
derived from it, silently empty. The CLI's training commands must still
record theirs."""

import json
import sys
from pathlib import Path

from arpro.cli import main

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))  # as perfbench/run.py imports it
import spans  # noqa: E402

CONFIG = {
    "data": {"kind": "ts", "n_features": 2, "window_len": 8, "n_train": 30, "n_test": 4, "start_jitter": 8.0,
             "anomalies": [{"kind": "spike", "magnitude": 1.5, "extent": 0.15}]},
    "detector": {"hidden": [4], "steps": 3},
    "diffusion": {"T": 5, "hidden": [8], "time_embed": 4, "steps": 4},
}


def test_training_commands_record_their_layer_spans(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    data, models = str(tmp_path / "data"), str(tmp_path / "models")
    common = ["--seed", "3", "--config", str(config)]
    tracer = spans.Tracer(spans.TARGETS)
    with tracer.active("cli"):
        assert main(["gen-data", "--out", data, *common]) == 0
        assert main(["train-detector", "--kind", "recon", "--input", data, "--out", models, *common]) == 0
        assert main(["train-diffusion", "--input", data, "--out", models, *common]) == 0
    recorded = {}
    for span in tracer.spans:
        recorded.setdefault(span.name, []).append(span.size)
    assert {"data.gen_ts", "detector.fit_recon", "diffusion.train", "ckpt.write"} <= set(recorded)
    # The training spans' sizes are the step counts that the per-step metrics divide by.
    assert recorded["detector.fit_recon"] == [3]
    assert recorded["diffusion.train"] == [4]
    # One span per optimizer step: the autoencoder's 3, then the denoiser's 4.
    assert len(recorded["tensor.adamw_step"]) == 3 + 4
