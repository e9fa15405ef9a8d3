"""Time the phases of one bench-sized `arpro evaluate`, in process.

Usage:
    python3 tools/evaluate_phases.py SRC --kind ts|image [--out BENCH_evaluate_<label>.json]
                                     [--repeats 9] [--seed 61]

SRC is the source tree to time: the directory that holds the `arpro`
package. The inputs are made first with that tree's `gen-data`,
`train-detector` and `train-diffusion`, from the config that
`perfbench/run.py` uses for its ts-evaluate or image-evaluate workload. Then
`evaluate` runs through `arpro.cli.main` once to warm up and `--repeats`
times measured, under a `perfbench/spans.py` `Tracer` that wraps these
functions where their callers look them up:

    csv_load      arpro.cli.load_csv_dataset
    ckpt_load     arpro.ckpt.load, which the detector and denoiser loads call
    prepare       arpro.harness.prepare_pipeline
    repair        arpro.harness.repair_batch, of which
      predict_mu      arpro.repair.predict_mu
      guidance        arpro.properties.GuidanceState.__init__ and .grad
      repair_other    the rest of the reverse loop and the final scoring
    write_report  arpro.harness.write_report
    total         arpro.cli.main

A wrapped function that the measured evaluates never call, such as one the
code no longer reaches there or no longer has, makes the tool exit 1 naming
it, rather than report its phase as 0 ms.

The host's speed drifts by tens of percent between runs, so each evaluate's
times are scaled as perfbench scales its steps: by the reference unit's
quiet-host time over the mean of the unit times measured just before and
just after it. The median and quartiles of each phase's scaled milliseconds
are printed and, with --out, written as JSON together with the machine facts
that move them: nproc, numpy, the BLAS name and version, and
OPENBLAS_NUM_THREADS/OMP_NUM_THREADS.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PHASES = ("csv_load", "ckpt_load", "prepare", "repair", "predict_mu", "guidance", "repair_other",
          "write_report", "total")
# (phase, module, attribute path) of each timed function; `repair_other` is
# what is left of `repair`.
TARGETS = (
    ("csv_load", "arpro.cli", "load_csv_dataset"),
    ("ckpt_load", "arpro.ckpt", "load"),
    ("prepare", "arpro.harness", "prepare_pipeline"),
    ("repair", "arpro.harness", "repair_batch"),
    ("predict_mu", "arpro.repair", "predict_mu"),
    ("guidance", "arpro.properties", "GuidanceState.__init__"),
    ("guidance", "arpro.properties", "GuidanceState.grad"),
    ("write_report", "arpro.harness", "write_report"),
    ("total", "arpro.cli", "main"),
)
PHASE_OF = {f"{module}.{path}": phase for phase, module, path in TARGETS}


def _perfbench():
    """perfbench/run.py, for its workload configs, reference unit and
    environment record, and perfbench/spans.py, for its `Tracer`."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module, importlib.import_module("spans")


def make_tracer(spans, targets=TARGETS):
    """A `spans.Tracer` of `targets`, each span named by the function it wraps."""
    return spans.Tracer((f"{module}.{path}", module, path, None) for _, module, path in targets)


def require_called(tracer, run_id: str) -> None:
    """Exit 1 naming each target of `tracer` that recorded no span in run
    `run_id`: one never called there, or one the tracer could not find."""
    called = {span.name for span in tracer.spans if span.run_id == run_id}
    missing = [name for name, *_ in tracer.targets if name not in called]
    if missing:
        raise SystemExit(f"never called during the measured evaluates: {', '.join(missing)}")


def _run(cli, argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"arpro {argv[0]} exited {code}")


def measure(bench, spans, kind: str, seed: int, repeats: int, work: Path) -> list[dict]:
    """Per-phase scaled milliseconds of `repeats` evaluates after one warm-up."""
    from arpro import cli

    config = bench.ts_evaluate_config(seed) if kind == "ts" else bench.image_evaluate_config(seed)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    common = ["--config", cfg_path, "--seed", seed]
    _run(cli, ["gen-data", *common, "--out", work / "data"])
    _run(cli, ["train-detector", *common, "--input", work / "data", "--out", work / "models"])
    _run(cli, ["train-diffusion", *common, "--input", work / "data", "--out", work / "models"])
    evaluate = ["evaluate", *common, "--input", work / "data", "--detector", work / "models" / "detector.json",
                "--denoiser", work / "models" / "denoiser.json", "--out", work / "eval"]

    tracer = make_tracer(spans)
    with tracer.active("warm-up"):
        _run(cli, evaluate)
    samples = []
    ref_before = bench.reference_unit_s()
    for _ in range(repeats):
        first = len(tracer.spans)
        with tracer.active("measured"):
            _run(cli, evaluate)
        ref_after = bench.reference_unit_s()
        s = dict.fromkeys(PHASES, 0.0)
        for span in tracer.spans[first:]:
            s[PHASE_OF[span.name]] += span.end - span.start
        s["repair_other"] = s["repair"] - s["predict_mu"] - s["guidance"]
        scale = 1e3 * bench.REF_UNIT_S / ((ref_before + ref_after) / 2.0)
        samples.append({name: scale * value for name, value in s.items()})
        ref_before = ref_after
    require_called(tracer, "measured")
    return samples


def summarize(samples: list[dict]) -> dict:
    out = {}
    for name in PHASES:
        values = [sample[name] for sample in samples]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        out[name] = {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, help="source tree holding the arpro package")
    parser.add_argument("--kind", choices=["ts", "image"], required=True)
    parser.add_argument("--out", type=Path, default=None, help="JSON file to write")
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--seed", type=int, default=61)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    sys.path.insert(0, str(args.src.resolve()))
    import arpro

    if Path(arpro.__file__).resolve().parent.parent != args.src.resolve():
        raise SystemExit(f"arpro was imported from {arpro.__file__}, not from {args.src}")
    bench, spans = _perfbench()
    with tempfile.TemporaryDirectory(prefix="evaluate_phases_") as tmp:
        samples = measure(bench, spans, args.kind, args.seed, args.repeats, Path(tmp))
    result = {
        "tool": "tools/evaluate_phases.py",
        "kind": args.kind,
        "seed": args.seed,
        "repeats": args.repeats,
        "unit": "ms, scaled to the reference unit's quiet-host speed",
        "phases_ms": summarize(samples),
        "environment": bench.environment(),
    }
    for name, stats in result["phases_ms"].items():
        print(f"{name:13s} {stats['median']:9.2f} ms  (q1 {stats['q1']:.2f}, q3 {stats['q3']:.2f})")
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
