"""Benchmark of the arpro pipeline, driven through its `arpro` subcommands.

    python3 perfbench/run.py --workload ts-evaluate --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 0            # every workload
    python3 perfbench/run.py --workload train --seed 0 --trace 1

Each workload is a closed loop: this one process calls `arpro.cli.main` for
one operation after another and starts no threads or processes of its own.
The program receives only generated inputs: a config file written from
`harness.*_benchmark_config(seed)`, the dataset directory `arpro gen-data`
makes from it, and the checkpoints the `train-*` commands write. The
benchmark never sets the BLAS thread count; it records it.

Output: human-readable lines, then as the last line one JSON object with
`correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`). See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
from spans import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / ".perfbench_runs"
# Set-up is repeated at least SETUP_MIN times and until SETUP_MIN_S seconds
# are spent (at most SETUP_MAX times), so a cheap set-up gets more samples.
SETUP_MIN, SETUP_MAX, SETUP_MIN_S = 3, 15, 3.0
HELD_OUT_NORMALS = 64  # extra normal test rows the train workload scores its models on
VAL_DRAWS = 8  # noise draws per held-out row for the denoising MSE
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# The host's speed swings by up to 1.7x in phases of seconds to minutes that
# the guest cannot see (CPU time tracks wall time). So a fixed reference unit
# of work, independent of arpro and of BLAS, is timed before the first and
# after every set-up and operation. Each step's wall time is then scaled to
# the speed at which one unit takes REF_UNIT_S seconds (the quiet-host value):
# scaled = seconds * REF_UNIT_S / (mean of the unit times around the step).
REF_UNIT_S = 0.65e-3
REF_REPEATS = 9  # units per measurement; their median is the measurement


# -- statistics ---------------------------------------------------------------------


def percentile(samples, p: float) -> float:
    """Nearest-rank p-th percentile of a non-empty sample."""
    xs = sorted(samples)
    return xs[max(math.ceil(p * len(xs) / 100.0), 1) - 1]


def tail_percentile(samples, min_beyond: int = 10):
    """(p, value) for the highest candidate percentile with at least
    `min_beyond` samples above its rank, or None when no candidate has."""
    n = len(samples)
    for p in TAIL_CANDIDATES:
        if n - max(math.ceil(p * n / 100.0), 1) >= min_beyond:
            return p, percentile(samples, p)
    return None


def describe(samples, unit: str) -> str:
    """Median and supported tail of a timing sample, with its count."""
    tail = tail_percentile(samples)
    tail_text = f"p{tail[0]:g} {tail[1]:.4f}" if tail else "tail n/a (needs 10 samples beyond p50)"
    return f"p50 {statistics.median(samples):.4f} {unit}, {tail_text}  (n={len(samples)})"


_REF_RNG = np.random.default_rng(0)
_REF_SMALL = _REF_RNG.standard_normal(128)
_REF_LARGE = _REF_RNG.standard_normal(200_000)  # 1.6 MB: lives in the last-level cache
_REF_OUT = np.empty_like(_REF_LARGE)


def reference_unit_s() -> float:
    """Median seconds of one reference unit: an interpreter loop, small-array
    numpy calls like the repair loop's, and streaming over a cache-sized array."""
    times = []
    for _ in range(REF_REPEATS):
        start = time.perf_counter()
        acc = 0
        for k in range(3000):
            acc += k * k
        keep = []
        for k in range(60):
            a = _REF_SMALL * 2.0
            keep.append((a, np.maximum(a + _REF_SMALL, 0.0), {"k": k}))
        for _ in range(3):
            np.add(_REF_LARGE, 1.0, out=_REF_OUT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# -- environment ------------------------------------------------------------------


def environment() -> dict:
    """Facts about this machine that move the numbers."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "loadavg_at_start": list(os.getloadavg()),
    }


# -- one benchmark run ---------------------------------------------------------------


class Bench:
    """Runs `arpro` commands in this process and tallies operations and failures."""

    def __init__(self, work: Path, seed: int, trace: bool):
        self.work = work
        self.seed = seed
        self.tracer = Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._ref = 0.0  # the last reference measurement, shared by neighbouring steps

    def traced(self, index: int) -> bool:
        """A traced run traces every other phase, so the rest measure the overhead."""
        return self.tracer is not None and index % 2 == 0

    def phase(self, run_id: str, traced: bool):
        """Context that traces the `arpro` calls inside it when `traced` is set."""
        return self.tracer.active(run_id) if traced else contextlib.nullcontext()

    def arpro(self, *argv) -> tuple[float, list[str]]:
        """Run one subcommand; (wall seconds, failure reasons)."""
        from arpro import cli

        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - start
        if code != 0:
            return seconds, [f"arpro {argv[0]} exited {code}: {err.getvalue().strip()[-300:]}"]
        return seconds, []

    def record(self, op: str, reasons: list[str]) -> None:
        """Count one operation; it failed if any reason was given."""
        self.attempted += 1
        self.failed += bool(reasons)
        self.failures.extend(f"{op}: {r}" for r in reasons)

    def write_config(self, name: str, cfg: dict) -> Path:
        path = self.work / name
        path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
        return path

    def commands(self, argvs) -> tuple[float, list[str]]:
        """Run subcommands in order; (total wall seconds, failure reasons)."""
        seconds, reasons = 0.0, []
        for argv in argvs:
            s, why = self.arpro(*argv)
            seconds += s
            reasons += why
        return seconds, reasons

    def step(self, run_id: str, traced: bool, body) -> dict:
        """Run `body()`, which returns {"seconds": ...}, between two reference
        measurements, and add its scaled time and the tracing flag."""
        before = self._ref or reference_unit_s()
        with self.phase(run_id, traced):
            result = body()
        self._ref = reference_unit_s()
        unit_s = (before + self._ref) / 2.0
        return {**result, "traced": traced, "unit_s": unit_s, "scaled": result["seconds"] * REF_UNIT_S / unit_s}

    def setups(self, commands, check) -> tuple[list[dict], Path]:
        """Repeat the set-up into setup0, setup1, ... and check the copies agree.

        `commands(directory)` lists the argv of one set-up into `directory`;
        `check(directory)` gives reasons its outputs are wrong. Every copy must
        match the first byte for byte. Returns the timings and the last copy.
        """
        results = []
        while len(results) < SETUP_MIN or (
                len(results) < SETUP_MAX and sum(r["seconds"] for r in results) < SETUP_MIN_S):
            k = len(results)
            directory = self.work / f"setup{k}"
            outcome = {}

            def body():
                seconds, outcome["reasons"] = self.commands(commands(directory))
                return {"seconds": seconds}

            results.append(self.step(f"setup{k}", self.traced(k), body))
            reasons = outcome["reasons"] or check(directory)
            if k and not reasons:
                reasons = checks.same_tree(self.work / "setup0", directory)
            self.record(f"set-up {k}", reasons)
        return results, directory

    def timed_loop(self, seconds: float, op) -> list[dict]:
        """Call `op(i)` back to back for `seconds` (at least twice)."""
        results = []
        start = time.perf_counter()
        while len(results) < 2 or time.perf_counter() - start < seconds:
            i = len(results)
            results.append(self.step(f"op{i}", self.traced(i), lambda: op(i)))
        return results


def _cfg_dict(cfg) -> dict:
    payload = cfg.to_dict()
    payload.pop("jobs", None)  # never store `jobs`: later configs reject the key
    return payload


def ts_evaluate_config(seed: int) -> dict:
    """Time-series benchmark config; 120 test windows so every seed selects 24 instances."""
    from arpro import harness

    cfg = _cfg_dict(harness.timeseries_benchmark_config(seed, n_instances=24))
    cfg["data"]["n_test"] = 120
    return cfg


def image_evaluate_config(seed: int) -> dict:
    """Image benchmark config with shorter training, so three set-ups fit one run."""
    from arpro import harness

    cfg = _cfg_dict(harness.image_benchmark_config(seed, n_instances=20))
    cfg["data"]["n_test"] = 80
    cfg["diffusion"]["steps"] = 600
    cfg["detector"]["steps"] = 500
    return cfg


def train_configs(seed: int) -> dict:
    """Both configs' model shapes, with step counts sized for a ~3 s round."""
    from arpro import harness

    ts = _cfg_dict(harness.timeseries_benchmark_config(seed))
    ts["diffusion"]["steps"] = 500
    image = _cfg_dict(harness.image_benchmark_config(seed))
    image["diffusion"]["steps"] = 250
    image["detector"]["steps"] = 500
    for cfg in (ts, image):
        cfg["data"]["n_test_normal"] = HELD_OUT_NORMALS
    return {"ts": ts, "image": image}


# -- workloads ------------------------------------------------------------------------


def run_evaluate(bench: Bench, cfg: dict, seconds: float) -> dict:
    seed = bench.seed
    cfg_path = bench.write_config("config.json", cfg)

    def commands(d: Path):
        return [
            ["gen-data", "--config", cfg_path, "--out", d / "data", "--seed", seed],
            ["train-detector", "--config", cfg_path, "--input", d / "data", "--out", d / "models", "--seed", seed],
            ["train-diffusion", "--config", cfg_path, "--input", d / "data", "--out", d / "models", "--seed", seed],
        ]

    setups, ready = bench.setups(commands, lambda d: checks.check_checkpoints(d / "models", True, True))

    def evaluate(i: int) -> dict:
        out = bench.work / f"eval{i}"
        # The first two evaluates share a seed: their reports must match byte for byte.
        eval_seed = seed * 1000 + max(i - 1, 0)
        s, reasons = bench.arpro(
            "evaluate", "--config", cfg_path, "--input", ready / "data",
            "--detector", ready / "models" / "detector.json", "--denoiser", ready / "models" / "denoiser.json",
            "--seed", eval_seed, "--out", out,
        )
        summary = None
        if not reasons:
            report, reasons = checks.read_report(out)
            summary = checks.summarize(report) if report is not None else None
            if summary is None and not reasons:
                reasons = ["report.json lacks delta_percent or per-instance metrics"]
        if i == 1 and not reasons:
            reasons += checks.same_bytes(bench.work / "eval0", out, ("report.json", "aggregates.csv"))
        bench.record(f"evaluate {i} (seed {eval_seed})", reasons)
        # Only a summary is kept, so the run's memory does not grow with its operation count.
        result = {"seconds": s, "work": 0, "summary": summary}
        if not reasons:
            result.update(work=2 * summary["n_instances"], repair_s=_guided_seconds(out))
        return result

    ops = bench.timed_loop(seconds, evaluate)
    return {"setups": setups, "ops": ops, "probe": _divergence_probe(bench, cfg, ready)}


def _guided_seconds(out: Path) -> list[float]:
    import csv

    with (out / "summary.csv").open("r", encoding="utf-8") as fh:
        return [float(row["seconds"]) for row in csv.DictReader(fh) if row["arm"] == "guided"]


def _divergence_probe(bench: Bench, cfg: dict, ready: Path) -> list[str]:
    """Negative control: guidance weights known to blow up must fail the checks.

    Returns the reasons the probe failed; an empty list means the checks missed it.
    """
    cfg_path = bench.write_config("probe.json", {**cfg, "n_instances": 2})
    out = bench.work / "probe"
    _, reasons = bench.arpro(
        "evaluate", "--config", cfg_path, "--input", ready / "data",
        "--detector", ready / "models" / "detector.json", "--denoiser", ready / "models" / "denoiser.json",
        "--eta-start", "1e6", "--eta-end", "1e9", "--lambda1", "1e6", "--seed", bench.seed, "--out", out,
    )
    if not reasons:
        _, reasons = checks.read_report(out)
    return reasons


def run_train(bench: Bench, seconds: float) -> dict:
    seed = bench.seed
    cfgs = train_configs(seed)
    paths = {kind: bench.write_config(f"{kind}.json", cfg) for kind, cfg in cfgs.items()}

    def commands(d: Path):
        return [["gen-data", "--config", paths[kind], "--out", d / f"{kind}_data", "--seed", seed]
                for kind in ("ts", "image")]

    setups, data = bench.setups(commands, lambda d: [])
    steps = (cfgs["ts"]["diffusion"]["steps"] + cfgs["image"]["diffusion"]["steps"]
             + cfgs["image"]["detector"]["steps"])

    def train_round(i: int) -> dict:
        out = bench.work / f"round{i}"
        seconds, reasons = bench.commands(
            [command, "--config", paths[kind], "--input", data / f"{kind}_data", "--out", out / kind, "--seed", seed]
            for command, kind in (("train-diffusion", "ts"), ("train-diffusion", "image"), ("train-detector", "image"))
        )
        if not reasons:
            reasons = (checks.check_checkpoints(out / "ts", detector=False, denoiser=True)
                       + checks.check_checkpoints(out / "image", detector=True, denoiser=True))
        if i and not reasons:
            reasons = checks.same_tree(bench.work / "round0", out)
        bench.record(f"training round {i}", reasons)
        return {"seconds": seconds, "work": 0 if reasons else steps}

    ops = bench.timed_loop(seconds, train_round)
    quality = _train_quality(bench, data, bench.work / "round0") if ops[0]["work"] else {}
    return {"setups": setups, "ops": ops, "quality": quality}


def _train_quality(bench: Bench, data: Path, models: Path) -> dict:
    """Held-out denoising MSE of both denoisers and mean autoencoder alpha."""
    import numpy as np
    from arpro.data import fit_scaler, load_csv_dataset
    from arpro.detector import load_detector
    from arpro.diffusion import Denoiser, denoising_loss

    def held_out(kind):
        ds = load_csv_dataset(data / f"{kind}_data")
        normals = ds.test[~ds.labels.any(axis=1)]
        return fit_scaler(ds.train).apply(normals)

    out = {}
    for kind in ("ts", "image"):
        x0 = np.repeat(held_out(kind), VAL_DRAWS, axis=0)
        denoiser = Denoiser.load(models / kind / "denoiser.json")
        rng = np.random.default_rng([bench.seed, 17])
        t = rng.integers(1, denoiser.schedule.T + 1, size=x0.shape[0])
        eps = rng.standard_normal(x0.shape)
        out[f"denoiser_val_mse.{kind}"] = denoising_loss(denoiser, x0, t, eps)
    detector = load_detector(models / "image" / "detector.json")
    out["recon_val_mse.image"] = float(detector.alpha_batch(held_out("image")).mean())
    return out


# -- metrics ----------------------------------------------------------------------------


def end_to_end(setups, ops, key: str = "scaled") -> dict:
    """setup_s and work_per_s over the given set-ups and operations, from
    their scaled times (key="scaled") or their wall times (key="seconds")."""
    done = [op for op in ops if op["work"]]
    seconds = sum(op[key] for op in done)
    return {
        "setup_s": statistics.median(s[key] for s in setups),
        "work_per_s": sum(op["work"] for op in done) / seconds if seconds else 0.0,
    }


def layer_metrics(tracer: Tracer, result: dict) -> dict:
    """Per-layer metrics from the traced phases; see README.md for each definition."""
    spans = tracer.spans
    selfs = self_times(spans)
    n_ops = max(sum(op["traced"] for op in result["ops"]), 1)
    n_setups = max(sum(s["traced"] for s in result["setups"]), 1)

    def picked(name, scope="op"):
        return [i for i, s in enumerate(spans) if s.name == name and s.run_id.startswith(scope)]

    def calls(name):
        return len(picked(name)) / n_ops

    def secs(*names, scope="op", per=None):
        total = sum(spans[i].end - spans[i].start for n in names for i in picked(n, scope))
        return total / (per or n_ops)

    def self_s(*names):
        return sum(selfs[i] for n in names for i in picked(n)) / n_ops

    def sizes(name, scope="op"):
        return sum(spans[i].size for i in picked(name, scope))

    def durations(name):
        return [spans[i].end - spans[i].start for i in picked(name)]

    def p(name, q):
        values = durations(name)
        return percentile(values, q) if values else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    guided_s = secs("repair.guided")
    summaries = [op["summary"] for op in result["ops"] if op.get("summary")]
    return {
        "properties.grad_guidance_calls": calls("properties.grad_guidance"),
        "properties.grad_guidance_s": secs("properties.grad_guidance"),
        "repair.guidance_share": ratio(secs("properties.grad_guidance"), guided_s),
        "tensor.backward_calls": calls("tensor.backward"),
        "tensor.backward_s": secs("tensor.backward"),
        "tensor.adamw_step_s": secs("tensor.adamw_step"),
        "diffusion.train_step_ms": 1e3 * ratio(secs("diffusion.train", scope="", per=1),
                                               sizes("diffusion.train", scope="")),
        "detector.recon_step_ms": 1e3 * ratio(secs("detector.fit_recon", scope="", per=1),
                                              sizes("detector.fit_recon", scope="")),
        "diffusion.predict_mu_calls": calls("diffusion.predict_mu"),
        "diffusion.predict_mu_s": secs("diffusion.predict_mu"),
        "tensor.forward_np_calls": calls("tensor.forward_np"),
        "tensor.forward_np_rows_per_call": ratio(sizes("tensor.forward_np"), len(picked("tensor.forward_np"))),
        "detector.score_calls": calls("detector.score"),
        "detector.score_s": secs("detector.score"),
        "detector.calibrate_s": secs("detector.calibrate"),
        "repair.guided_p50_s": p("repair.guided", 50),
        "repair.guided_p90_s": p("repair.guided", 90),
        "repair.baseline_p50_s": p("repair.baseline", 50),
        "repair.baseline_p90_s": p("repair.baseline", 90),
        "repair.calls": calls("repair.guided") + calls("repair.baseline"),
        "repair.self_s": self_s("repair.guided", "repair.baseline"),
        "repair.diverged": ratio(sum(r["diverged"] for r in summaries), len(summaries)),
        "repair.guided_win_share": ratio(sum(r["guided_wins"] for r in summaries),
                                         sum(r["n_instances"] for r in summaries)),
        "harness.prepare_s": secs("harness.prepare"),
        "harness.aggregate_s": self_s("harness.run_experiment") + secs("harness.tnr_report"),
        "harness.write_report_s": secs("harness.write_report"),
        "data.gen_s": secs("data.gen_ts", "data.gen_image", scope="setup", per=n_setups),
        "data.io_s": secs("data.load", "data.save"),
        "ckpt.io_s": secs("ckpt.read", "ckpt.write", "ckpt.mlp_payload", "ckpt.mlp_from_payload"),
        "ckpt.bytes": (sizes("ckpt.read") + sizes("ckpt.write")) / n_ops,
        "cli.self_s": self_s("cli.main"),
    }


# -- reporting --------------------------------------------------------------------------


def report(workload: str, result: dict, bench: Bench, trace: bool, env: dict) -> dict:
    setups, ops = result["setups"], result["ops"]
    plain_setups = [s for s in setups if not s["traced"]]
    plain_ops = [op for op in ops if not op["traced"]]
    e2e = end_to_end(plain_setups, plain_ops)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    evaluate = workload != "train"
    op_name, work_name = ("evaluate_s", "repairs_per_s") if evaluate else ("train_round_s", "train_steps_per_s")
    done = [op for op in plain_ops if op["work"]]
    print(f"== {workload}  seed {bench.seed}  trace {int(trace)}")
    print("env " + json.dumps(env))
    wall = end_to_end(plain_setups, plain_ops, key="seconds")
    print(f"  setup_s            {describe([s['scaled'] for s in plain_setups], 's')}  [setup_s]")
    print(f"    wall             {describe([s['seconds'] for s in plain_setups], 's')}")
    if done:
        print(f"  {op_name:<18} {describe([op['scaled'] for op in done], 's')}")
        print(f"    wall             {describe([op['seconds'] for op in done], 's')}")
    print(f"  {work_name:<18} {e2e['work_per_s']:.4f} 1/s, wall {wall['work_per_s']:.4f} 1/s  "
          f"(n={len(done)} ops)  [work_per_s]")
    units = [s["unit_s"] for s in setups + ops]
    print(f"  reference unit     {1e3 * min(units):.4f}..{1e3 * max(units):.4f} ms, median "
          f"{1e3 * statistics.median(units):.4f} ms (n={len(units)}; scaled to {1e3 * REF_UNIT_S:g} ms)")
    print(f"  failed_ops         {bench.failed}/{bench.attempted} ratio")
    print(f"  peak_rss_mb        {e2e['peak_rss_mb']:.1f} MB  (n=1, high-water mark of this process)")
    if evaluate and done:
        summaries = [op["summary"] for op in done]
        for key in ("m_omega", "m_s"):
            values = [r["delta_percent"][key] for r in summaries]
            print(f"  {'delta_' + key + '_pct':<18} median {statistics.median(values):.2f} %  "
                  f"(n={len(values)} evaluates; not gated: spread across seeds exceeds any allowed bound)")
        repair_s = [s for op in done for s in op["repair_s"]]
        print(f"  guided_repair_s    {describe(repair_s, 's')}  (summary.csv seconds)")
        print(f"  instances          {sorted({r['n_instances'] for r in summaries})} per evaluate")
        probe = result["probe"]
        print(f"  divergence probe   {'flagged: ' + probe[0] if probe else 'NOT FLAGGED by the output checks'}")
    for name, value in result.get("quality", {}).items():
        print(f"  {name:<26} {value:.5f}  (n=1, deterministic per seed)")
    for reason in bench.failures:
        print(f"  FAILED {reason}")

    if not trace:
        return e2e

    traced_e2e = end_to_end([s for s in setups if s["traced"]], [op for op in ops if op["traced"]])
    print("  tracing overhead (traced minus untraced):")
    for name, value in traced_e2e.items():
        print(f"    {name:<12} {value - e2e[name]:+.4f} {UNITS[name]}")
    print("    peak_rss_mb  n/a (one process runs both halves)")
    metrics = layer_metrics(bench.tracer, result)
    traced_rate = traced_e2e["work_per_s"]
    # Extra time per unit of work when traced, in % of the untraced time.
    metrics["trace.overhead_pct"] = 100.0 * (e2e["work_per_s"] / traced_rate - 1.0) if traced_rate else 0.0
    _print_spans(bench.tracer)
    if bench.tracer.absent:
        print(f"  absent (count 0): {', '.join(bench.tracer.absent)}")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:.6g}")
    return metrics


def _print_spans(tracer: Tracer) -> None:
    selfs = self_times(tracer.spans)
    rows: dict[str, list[float]] = {}
    for span, own in zip(tracer.spans, selfs):
        row = rows.setdefault(span.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span.end - span.start
        row[2] += own
    print(f"  {'span (all traced phases)':<28} {'calls':>8} {'total_s':>10} {'self_s':>10}")
    for name, (count, total, own) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        print(f"  {name:<28} {count:>8} {total:>10.4f} {own:>10.4f}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = environment()
    RUNS_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=RUNS_DIR))
    bench = Bench(work, seed, trace)
    try:
        if workload == "train":
            result = run_train(bench, seconds)
        else:
            cfg = ts_evaluate_config(seed) if workload == "ts-evaluate" else image_evaluate_config(seed)
            result = run_evaluate(bench, cfg, seconds)
        metrics = report(workload, result, bench, trace, env)
        if trace:
            bench.tracer.write(RUNS_DIR / f"trace-{workload}-seed{seed}.json.gz",
                               {"workload": workload, "seed": seed, "env": env})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = bench.failed == 0 and bool(result.get("probe", ["no probe"]))
    return {"correct": correct, "attempted": bench.attempted, "failed": bench.failed, "metrics": {
        name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()}}


UNITS = {"setup_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
SUFFIX_UNITS = (("_calls", "count"), ("_per_call", "rows"), ("_share", "ratio"), ("_pct", "%"),
                ("_ms", "ms"), ("_s", "s"), (".bytes", "bytes"), (".calls", "count"), (".diverged", "count"))
WORKLOADS = ("ts-evaluate", "image-evaluate", "train")


def unit_of(name: str) -> str:
    """Unit of a metric, from its name."""
    if name in UNITS:
        return UNITS[name]
    return next(unit for suffix, unit in SUFFIX_UNITS if name.endswith(suffix))


def _import_program() -> None:
    """Put this checkout's `src` first on the path; fail unless arpro comes from it."""
    src = ROOT / "src"
    if not (src / "arpro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no arpro sources at {src}")
    sys.path.insert(0, str(src))
    import arpro

    if Path(arpro.__file__).resolve().parent != (src / "arpro").resolve():
        raise SystemExit(f"perfbench: imported arpro from {arpro.__file__}, not {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
