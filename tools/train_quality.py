"""Held-out training quality of two arpro source trees on the stock configs.

Usage:
    python3 tools/train_quality.py PARENT_SRC CHANGE_SRC [--seeds 0 1 2 3 4] [--work DIR]
                                   [--set diffusion.steps=500 ...] [--evaluate]

For each source tree and seed, the stock time-series and image benchmark
configs (`timeseries_benchmark_config`, `image_benchmark_config`, as each
tree defines them), with `HELD_OUT_NORMALS` normal test rows added, run
through `gen-data`, `train-diffusion` and, for the image config,
`train-detector`. Each tree and seed runs in one `python3` with that tree on
PYTHONPATH, which calls `arpro.cli.main` once per stage and then scores the
models; a stage that fails makes the tool exit 2, as `compare_outputs` does.
`--set KEY=JSON` overrides one config entry (say `diffusion.steps=500`) in
both configs of both trees. The trained models are then scored on the normal
test rows, scaled by the training split's scaler, as perfbench's `train`
workload scores them:

- the held-out denoising MSE (`arpro.diffusion.denoising_loss`):
  `VAL_DRAWS` draws per row, the steps and then the noise from
  ``default_rng([seed, 17])``; overall, and by quartile of the step t (q1
  holds the smallest t);
- the mean autoencoder alpha of the image rows.

With `--evaluate`, each config without the held-out rows (the dataset the
acceptance benchmark C5 evaluates) also goes through `gen-data` and then
`evaluate` with the trained models, and its report adds the median `m_s` of
both arms and `delta_percent.m_omega`, the C5 measure.

Both trees are printed side by side, one line per seed and metric, then the
median over the seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path

from compare_outputs import CONFIGS, in_tree, run_stages, stock_config  # a sibling in tools/

HELD_OUT_NORMALS = 64  # perfbench's train workload adds as many
VAL_DRAWS = 8  # noise draws per held-out row


def config(kind: str, seed: int, overrides: dict, held_out: bool = True) -> dict:
    """The stock config of `kind` at `seed`, with the held-out rows (unless
    `held_out` is false) and `overrides` (dotted key -> value) applied."""
    cfg = stock_config(kind, seed)
    if held_out:
        cfg["data"]["n_test_normal"] = HELD_OUT_NORMALS
    for key, value in overrides.items():
        *parents, last = key.split(".")
        node = cfg
        for name in parents:
            node = node[name]
        node[last] = value
    return cfg


def measure(out: str, seed: int, overrides: dict, evaluate: bool) -> dict:
    """Data and models of both configs at `seed`, written under `out`, and
    their `score`; with `evaluate`, also the `evaluate` report of each config
    without the held-out rows, in `evaluate/`, and its `evaluation`. Run by
    `in_tree`, with the `arpro` on the path."""
    out = Path(out)
    for kind in CONFIGS:
        directory = out / kind
        directory.mkdir(parents=True, exist_ok=True)
        cfg = config(kind, seed, overrides)
        (directory / "config.json").write_text(json.dumps(cfg, indent=1), encoding="utf-8")
        common = ["--config", "config.json", "--seed", str(seed)]
        stages = [["gen-data", "--out", "data"], ["train-diffusion", "--input", "data", "--out", "models"]]
        models = ["--denoiser", "models/denoiser.json"]
        if kind == "image":
            stages.append(["train-detector", "--input", "data", "--out", "models"])
            models += ["--detector", "models/detector.json"]
        run_stages(directory, [[*stage, *common] for stage in stages])
        if evaluate:
            # The held-out rows are drawn after all others, so the training
            # rows and the models are the same without them.
            cfg = config(kind, seed, overrides, held_out=False)
            (directory / "evaluate.json").write_text(json.dumps(cfg, indent=1), encoding="utf-8")
            common = ["--config", "evaluate.json", "--seed", str(seed)]
            run_stages(directory, [[*stage, *common] for stage in (
                ["gen-data", "--out", "evaluate-data"],
                ["evaluate", "--input", "evaluate-data", *models, "--out", "evaluate"])])
    return {**score(out, seed), **(evaluation(out) if evaluate else {})}


def evaluation(out: Path) -> dict:
    """The median `m_s` of both arms and `delta_percent.m_omega` of the
    `evaluate` reports under `out`."""
    result = {}
    for kind in CONFIGS:
        report = json.loads((out / kind / "evaluate" / "report.json").read_text(encoding="utf-8"))
        for arm in ("baseline", "guided"):
            result[f"{kind}.m_s.{arm}"] = report["medians"][arm]["m_s"]
        result[f"{kind}.delta_percent.m_omega"] = report["delta_percent"]["m_omega"]
    return result


def score(out: Path, seed: int) -> dict:
    """The held-out metrics of the models under `out`, computed with the
    `arpro` package on the path."""
    import numpy as np
    from arpro.data import fit_scaler, load_csv_dataset
    from arpro.detector import load_detector
    from arpro.diffusion import Denoiser, denoising_loss

    result = {}
    for kind in CONFIGS:
        ds = load_csv_dataset(out / kind / "data")
        normals = fit_scaler(ds.train).apply(ds.test[~ds.labels.any(axis=1)])
        x0 = np.repeat(normals, VAL_DRAWS, axis=0)
        denoiser = Denoiser.load(out / kind / "models" / "denoiser.json")
        T = denoiser.schedule.T
        rng = np.random.default_rng([seed, 17])
        t = rng.integers(1, T + 1, size=x0.shape[0])
        eps = rng.standard_normal(x0.shape)
        result[f"{kind}.denoiser_mse"] = denoising_loss(denoiser, x0, t, eps)
        quartile = (t - 1) * 4 // T
        for q in range(4):
            rows = quartile == q
            result[f"{kind}.denoiser_mse.q{q + 1}"] = denoising_loss(denoiser, x0[rows], t[rows], eps[rows])
        if kind == "image":
            detector = load_detector(out / kind / "models" / "detector.json")
            result["image.recon_alpha"] = float(detector.alpha_batch(normals).mean())
    return result


def table(results: dict, seeds: list[int]) -> list[str]:
    """Lines of the side-by-side table of {side: {seed: metrics}}."""
    names = list(results["parent"][seeds[0]])
    lines = [f"{'seed':>6}  {'metric':<28} {'parent':>12} {'change':>12} {'change-parent':>14}"]
    for label, pick in [*((str(s), lambda side, n, s=s: results[side][s][n]) for s in seeds),
                        ("median", lambda side, n: statistics.median(results[side][s][n] for s in seeds))]:
        for name in names:
            p, c = pick("parent", name), pick("change", name)
            lines.append(f"{label:>6}  {name:<28} {p:>12.6f} {c:>12.6f} {c - p:>+14.3e}")
    return lines


def _override(text: str) -> tuple[str, object]:
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"expected KEY=JSON, got {text!r}")
    try:
        return key, json.loads(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{key}: {value!r} is not JSON") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path, help="source tree holding the reference `arpro` package")
    parser.add_argument("change_src", type=Path, help="source tree holding the changed `arpro` package")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    parser.add_argument("--work", type=Path, default=None, help="output directory (default: a new temporary one)")
    parser.add_argument("--set", type=_override, action="append", default=[], metavar="KEY=JSON",
                        help="override one entry of both configs, such as diffusion.steps=500")
    parser.add_argument("--evaluate", action="store_true",
                        help="also run `evaluate` and report both arms' median m_s and delta_percent.m_omega")
    args = parser.parse_args(argv)
    for src in (args.parent_src, args.change_src):
        if not (src / "arpro" / "__init__.py").is_file():
            parser.error(f"{src} does not hold an arpro package")
    work = args.work or Path(tempfile.mkdtemp(prefix="arpro-quality-"))
    overrides = dict(args.set)
    results: dict = {"parent": {}, "change": {}}
    for side, src in (("parent", args.parent_src), ("change", args.change_src)):
        for seed in args.seeds:
            print(f"training {side} seed {seed}", flush=True)
            out = str((work / side / f"seed{seed}").resolve())
            results[side][seed] = in_tree(src, "train_quality.measure", out, seed, overrides, args.evaluate)
    print("\n".join(table(results, args.seeds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
