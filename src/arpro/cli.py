"""Command-line entry point for the repair pipeline.

Subcommands: gen-data, train-detector, train-diffusion, repair, evaluate,
ablate. A JSON config file supplies defaults; flags override it, and both are
recorded in evaluation reports. The dest of each flag that overrides a
section's key is that dotted key, such as "repair.lambda1". Exit codes:
0 success, 1 validation error, 2 runtime failure. All randomness is fixed
by the seed: --seed, else the config file's "seed", else 0.
"""

from __future__ import annotations

import argparse
import copy
import sys
from pathlib import Path

from . import ckpt, harness
from .data import load_csv_dataset, save_dataset
from .detector import load_detector
from .diffusion import Denoiser
from .harness import ExperimentConfig


class CliError(ValueError):
    """Bad arguments, bad config, or missing inputs (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); bad usage is a validation error
        raise CliError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="arpro", description="Property-guided anomaly repair pipeline")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def shared(p):
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="seed fixing all randomness (default: the config file's, else 0)")
        p.add_argument("--out", type=str, required=True, help="output directory")

    p = sub.add_parser("gen-data", help="generate a synthetic dataset directory")
    shared(p)
    p.add_argument("--kind", dest="data.kind", choices=["ts", "image"],
                   help="dataset modality; brings its stock anomalies if the config lists none")

    p = sub.add_parser("train-detector", help="fit a detector and write its checkpoint")
    shared(p)
    p.add_argument("--input", type=str, required=True, help="dataset directory")
    p.add_argument("--kind", dest="detector.kind", choices=["gauss", "recon"], help="detector kind")

    p = sub.add_parser("train-diffusion", help="train the denoiser and write its checkpoint")
    shared(p)
    p.add_argument("--input", type=str, required=True, help="dataset directory")

    p = sub.add_parser("repair", help="repair detected anomalies with one arm")
    shared(p)
    p.add_argument("--input", type=str, required=True, help="dataset directory")
    p.add_argument("--detector", type=str, required=True, help="detector checkpoint")
    p.add_argument("--denoiser", type=str, required=True, help="denoiser checkpoint")
    arm = p.add_mutually_exclusive_group(required=True)
    arm.add_argument("--guided", action="store_true", help="guided repair")
    arm.add_argument("--baseline", action="store_true", help="unguided baseline repair")
    _repair_flags(p)

    p = sub.add_parser("evaluate", help="paired baseline/guided evaluation with reports")
    shared(p)
    p.add_argument("--input", type=str, required=True, help="dataset directory")
    p.add_argument("--detector", type=str, default=None, help="optional detector checkpoint")
    p.add_argument("--denoiser", type=str, default=None, help="optional denoiser checkpoint")
    _repair_flags(p)

    p = sub.add_parser("ablate", help="sweep one repair hyperparameter")
    shared(p)
    p.add_argument("--input", type=str, required=True, help="dataset directory")
    p.add_argument("--detector", type=str, default=None, help="optional detector checkpoint")
    p.add_argument("--denoiser", type=str, default=None, help="optional denoiser checkpoint")
    p.add_argument("--param", type=str, required=True, help="lambda1..lambda4 or eta_scale")
    p.add_argument("--values", type=str, required=True, help="comma-separated values")
    _repair_flags(p)

    return parser


def _repair_flags(p) -> None:
    for k in range(1, 5):
        p.add_argument(f"--lambda{k}", dest=f"repair.lambda{k}", type=float, help=f"weight of loss {k}")
    p.add_argument("--eta-start", dest="repair.eta_start", type=float, help="guidance weight at t=1")
    p.add_argument("--eta-end", dest="repair.eta_end", type=float, help="guidance weight at t=T")
    p.add_argument("--infill-mode", dest="repair.infill_mode", choices=["paper-literal", "level-matched"])
    p.add_argument("--std-mode", dest="diffusion.std_mode", choices=["standard", "paper-literal"])


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    if not Path(path).is_file():
        raise CliError(f"config file not found: {path}")
    return ckpt.read_object(path, "config")


def _collect_overrides(args) -> dict:
    """Flag values that override the config file, recorded for provenance:
    --seed, and each given flag whose dest is a dotted key "section.key",
    nested in the order the parser adds them."""
    overrides: dict = {} if args.seed is None else {"seed": args.seed}
    for dest, value in vars(args).items():
        if "." in dest and value is not None:
            section, key = dest.split(".")
            overrides.setdefault(section, {})[key] = value
    return overrides


def _experiment_config(args, file_cfg: dict) -> tuple[ExperimentConfig, dict]:
    merged = copy.deepcopy(file_cfg)
    overrides = _collect_overrides(args)
    for section, values in overrides.items():
        if not isinstance(values, dict):
            merged[section] = values
        elif isinstance(merged.setdefault(section, {}), dict):  # any other section fails in from_dict
            merged[section].update(values)
    try:
        cfg = ExperimentConfig.from_dict(merged)
    except ValueError as exc:
        raise CliError(f"invalid configuration: {exc}") from exc
    return cfg, overrides


def _require_dir(path: str) -> Path:
    directory = Path(path)
    if not directory.is_dir():
        raise CliError(f"input directory not found: {directory}")
    return directory


def _load_dataset(path: str):
    return load_csv_dataset(_require_dir(path))


def _load_models(args, n: int):
    """The detector and denoiser checkpoints that --detector and --denoiser
    name, None for a flag not given; each must have the dataset's dimension n."""
    detector = denoiser = None
    if args.detector is not None:
        detector = load_detector(args.detector)
    if args.denoiser is not None:
        denoiser = Denoiser.load(args.denoiser)
    for path, model in ((args.detector, detector), (args.denoiser, denoiser)):
        if model is not None and model.n != n:
            raise CliError(f"{path}: {model.kind} checkpoint has dimension {model.n}, but the dataset has {n}")
    return detector, denoiser


def _cmd_gen_data(args) -> int:
    cfg, _ = _experiment_config(args, _load_config_file(args.config))
    dataset = cfg.data.generate(cfg.seed)
    save_dataset(dataset, args.out)
    print(f"wrote dataset ({dataset.modality}, n={dataset.n}, "
          f"{dataset.train.shape[0]} train / {dataset.test.shape[0]} test) to {args.out}")
    return 0


def _cmd_train_detector(args) -> int:
    cfg, _ = _experiment_config(args, _load_config_file(args.config))
    train, _ = harness.scaled_splits(_load_dataset(args.input))
    detector = harness.fit_detector(cfg.detector, train, cfg.seed)
    out = Path(args.out) / "detector.json"
    detector.save(out)
    print(f"wrote {cfg.detector.kind} detector to {out}")
    return 0


def _cmd_train_diffusion(args) -> int:
    cfg, _ = _experiment_config(args, _load_config_file(args.config))
    train, _ = harness.scaled_splits(_load_dataset(args.input))
    denoiser = harness.train_denoiser(train, cfg.diffusion, seed=cfg.seed)  # harness's name, as perfbench wraps it
    out = Path(args.out) / "denoiser.json"
    denoiser.save(out)
    print(f"wrote denoiser (T={denoiser.schedule.T}) to {out}")
    return 0


def _cmd_repair(args) -> int:
    cfg, overrides = _experiment_config(args, _load_config_file(args.config))
    dataset = _load_dataset(args.input)
    detector, denoiser = _load_models(args, dataset.n)
    arm = "guided" if args.guided else "baseline"
    pipe, results = harness.run_single_arm(cfg, arm, dataset=dataset, detector=detector, denoiser=denoiser)

    out_dir = Path(args.out)
    payload = {
        "schema": "arpro-repairs-v1",
        "arm": arm,
        "seed": cfg.seed,
        "flags": overrides,
        "conformal_threshold": pipe.score_threshold,
        "results": [
            {"instance_id": instance_id, **result.as_dict()}
            for instance_id, result in results
        ],
    }
    ckpt.write(out_dir / "repairs.json", payload)
    harness.write_timings(out_dir, harness.repair_timing(result for _, result in results))
    print(f"repaired {len(results)} instances ({arm}) -> {out_dir / 'repairs.json'}")
    return 0


def _cmd_evaluate(args) -> int:
    file_cfg = _load_config_file(args.config)
    cfg, overrides = _experiment_config(args, file_cfg)
    dataset = _load_dataset(args.input)
    detector, denoiser = _load_models(args, dataset.n)
    report = harness.run_experiment(cfg, dataset=dataset, detector=detector, denoiser=denoiser)
    report.provenance = {"config_file": file_cfg or None, "overrides": overrides}
    paths = harness.write_report(report, args.out)
    print(
        f"evaluated {len(report.records)} instances: "
        f"median guided m_omega={report.medians['guided']['m_omega']:.4f}, "
        f"delta(m_omega)={report.delta_percent['m_omega']:+.2f}%, "
        f"tnr guided={report.tnr_guided:.3f} baseline={report.tnr_baseline:.3f}"
    )
    wall = report.wall_clock
    print(
        f"repair wall-clock: {wall['repair_s']:.3f}s for one batch of {wall['repair_rows']} rows, "
        f"{wall['repair_per_row_s']:.4f}s per row (timings.json)"
    )
    print(f"report written to {paths['report']}")
    return 0


def _cmd_ablate(args) -> int:
    cfg, _ = _experiment_config(args, _load_config_file(args.config))
    dataset = _load_dataset(args.input)
    detector, denoiser = _load_models(args, dataset.n)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise CliError(f"malformed --values {args.values!r}: {exc}") from exc
    rows = harness.ablation_sweep(cfg, args.param, values, dataset=dataset, detector=detector, denoiser=denoiser)
    path = harness.write_ablation(rows, args.out)
    print(f"wrote {len(rows)}-row ablation table for {args.param} to {path}")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train-detector": _cmd_train_detector,
    "train-diffusion": _cmd_train_diffusion,
    "repair": _cmd_repair,
    "evaluate": _cmd_evaluate,
    "ablate": _cmd_ablate,
}


def _check_out(path: str) -> None:
    """Fail before any input is read when the output directory `path` could
    not be made: it, or else its nearest existing ancestor, is not a
    directory."""
    out = Path(path)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise CliError(f"--out {path}: {existing} is not a directory")


def dispatch(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        raise CliError("a subcommand is required (see --help)")
    _check_out(args.out)
    return _COMMANDS[args.command](args)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        return dispatch(argv)
    except (CliError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
