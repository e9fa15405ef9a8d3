"""Held-out training quality of two arpro source trees on the stock configs.

Usage:
    python3 tools/train_quality.py PARENT_SRC CHANGE_SRC [--seeds 0 1 2 3 4] [--work DIR]
                                   [--set diffusion.steps=500 ...]

For each source tree and seed, the stock time-series and image benchmark
configs (`timeseries_benchmark_config`, `image_benchmark_config`, as each
tree defines them), with `HELD_OUT_NORMALS` normal test rows added, run
through `gen-data`, `train-diffusion` and, for the image config,
`train-detector`, each as `python3 -m arpro` with that tree on PYTHONPATH.
`--set KEY=JSON` overrides one config entry (say `diffusion.steps=500`) in
both configs of both trees. The trained models are then scored on the normal
test rows, scaled by the training split's scaler, as perfbench's `train`
workload scores them:

- the held-out denoising MSE: `VAL_DRAWS` draws per row, the steps and then
  the noise from ``default_rng([seed, 17])``; overall, and by quartile of
  the step t (q1 holds the smallest t);
- the mean autoencoder alpha of the image rows.

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

from compare_outputs import CONFIGS, _run  # a sibling in tools/

HELD_OUT_NORMALS = 64  # perfbench's train workload adds as many
VAL_DRAWS = 8  # noise draws per held-out row


def config(src: Path, kind: str, seed: int, overrides: dict, cwd: Path) -> dict:
    """The tree's stock config of `kind` at `seed`, with the held-out rows and
    `overrides` (dotted key -> value) applied."""
    text = _run(src, ["-c", f"import json; from arpro import harness; "
                            f"print(json.dumps(harness.{CONFIGS[kind]}({seed}).to_dict()))"], cwd)
    cfg = json.loads(text)
    cfg["data"]["n_test_normal"] = HELD_OUT_NORMALS
    for key, value in overrides.items():
        *parents, last = key.split(".")
        node = cfg
        for name in parents:
            node = node[name]
        node[last] = value
    return cfg


def train(src: Path, out: Path, seed: int, overrides: dict) -> None:
    """Data and models of both configs at `seed`, written under `out`."""
    for kind in CONFIGS:
        directory = out / kind
        directory.mkdir(parents=True, exist_ok=True)
        cfg = config(src, kind, seed, overrides, directory)
        (directory / "config.json").write_text(json.dumps(cfg, indent=1), encoding="utf-8")
        common = ["--config", "config.json", "--seed", str(seed)]
        stages = [["gen-data", "--out", "data"], ["train-diffusion", "--input", "data", "--out", "models"]]
        if kind == "image":
            stages.append(["train-detector", "--input", "data", "--out", "models"])
        for stage in stages:
            _run(src, ["-m", "arpro", *stage, *common], directory)


def score(out: Path, seed: int) -> dict:
    """The held-out metrics of the models under `out`, computed with the
    `arpro` package on the path."""
    import numpy as np
    from arpro.data import fit_scaler, load_csv_dataset
    from arpro.detector import load_detector
    from arpro.diffusion import Denoiser

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
        a = denoiser.schedule.a[t - 1]
        x_t = np.sqrt(a)[:, None] * x0 + np.sqrt(1.0 - a)[:, None] * eps
        err = (denoiser.net.forward_np(x_t, t) - eps) ** 2
        result[f"{kind}.denoiser_mse"] = float(np.mean(err))
        quartile = (t - 1) * 4 // T
        for q in range(4):
            result[f"{kind}.denoiser_mse.q{q + 1}"] = float(np.mean(err[quartile == q]))
        if kind == "image":
            detector = load_detector(out / kind / "models" / "detector.json")
            result["image.recon_alpha"] = float(detector.alpha_batch(normals).mean())
    return result


def table(results: dict, seeds: list[int]) -> list[str]:
    """Lines of the side-by-side table of {side: {seed: metrics}}."""
    names = list(results["parent"][seeds[0]])
    lines = [f"{'seed':>6}  {'metric':<26} {'parent':>12} {'change':>12} {'change-parent':>14}"]
    for label, pick in [*((str(s), lambda side, n, s=s: results[side][s][n]) for s in seeds),
                        ("median", lambda side, n: statistics.median(results[side][s][n] for s in seeds))]:
        for name in names:
            p, c = pick("parent", name), pick("change", name)
            lines.append(f"{label:>6}  {name:<26} {p:>12.6f} {c:>12.6f} {c - p:>+14.3e}")
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
            out = work / side / f"seed{seed}"
            train(src.resolve(), out, seed, overrides)
            text = _run(src.resolve(), [str(Path(__file__).resolve()), "--score", str(out), str(seed)], out)
            results[side][seed] = json.loads(text)
    print("\n".join(table(results, args.seeds)))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--score"]:
        print(json.dumps(score(Path(sys.argv[2]), int(sys.argv[3]))))
        sys.exit(0)
    sys.exit(main())
