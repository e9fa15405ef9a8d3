"""Acceptance suite: every criterion checked at its stated tolerance.

Each test prints one [ACCEPTANCE] pass/fail line (visible with `pytest -s`
or `-rA`). The two directional benchmarks run once per seed inside session
fixtures and are shared by the criteria that read them.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from arpro.cli import main as cli_main
from arpro.data import gen_synthetic_ts
from arpro.detector import binarize, fit_gauss, fit_recon, DetectorConfig
from arpro.harness import (
    image_benchmark_config,
    prepare_pipeline,
    run_experiment,
    timeseries_benchmark_config,
)
from arpro.properties import (
    PropertyWeights,
    Tolerances,
    conformal_threshold,
    grad_guidance,
    loss_breakdown,
)
from arpro.repair import RepairConfig, baseline_repair, guided_repair
from arpro.tensor import stream

from conftest import central_diff, max_rel_err

SEEDS = (0, 1, 2, 3, 4)


def report_line(name: str, ok: bool, seconds: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] {name}: {status} ({seconds:.1f}s) {detail}".rstrip())
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def ts_reports():
    t0 = time.perf_counter()
    reports = {seed: run_experiment(timeseries_benchmark_config(seed=seed)) for seed in SEEDS}
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="session")
def image_reports():
    t0 = time.perf_counter()
    reports = {seed: run_experiment(image_benchmark_config(seed=seed)) for seed in SEEDS}
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="session")
def ts_pipeline():
    cfg = timeseries_benchmark_config(seed=0)
    return cfg, prepare_pipeline(cfg)


@pytest.fixture(scope="session")
def cli_workspace(tmp_path_factory):
    """Dataset and model checkpoints produced through the CLI itself."""
    root = tmp_path_factory.mktemp("acceptance-cli")
    config = root / "config.json"
    config.write_text(json.dumps(timeseries_benchmark_config(seed=0).to_dict()))
    data_dir = root / "data"
    assert cli_main(["gen-data", "--kind", "ts", "--out", str(data_dir), "--seed", "0",
                     "--config", str(config)]) == 0
    models = root / "models"
    assert cli_main(["train-detector", "--input", str(data_dir), "--out", str(models),
                     "--seed", "0", "--config", str(config)]) == 0
    assert cli_main(["train-diffusion", "--input", str(data_dir), "--out", str(models),
                     "--seed", "0", "--config", str(config)]) == 0
    return root, config, data_dir, models


def test_criterion_1_decomposability():
    t0 = time.perf_counter()
    g = stream(900, "c1")
    detectors = [
        fit_gauss(g.standard_normal((100, 8)) * 1.5 + 0.3),
        fit_recon(g.standard_normal((80, 8)) * 0.5, DetectorConfig(hidden=(12,), steps=150), seed=0),
    ]
    worst = 0.0
    for det in detectors:
        for _ in range(1000):
            x = g.standard_normal(8) * 2.0
            s = det.score(x)
            worst = max(worst, abs(s.total - (s.alpha.sum() + s.beta)) / (1.0 + abs(s.total)))
            z = (g.random(8) < 0.5).astype(np.float64)
            additivity = det.region_score(x, z) + det.region_score(x, 1.0 - z) - (s.total + s.beta)
            worst = max(worst, abs(additivity) / (1.0 + abs(s.total)))
    seconds = time.perf_counter() - t0
    report_line("C1 decomposability+additivity (2x1000 inputs)", worst <= 1e-9 and seconds < 5.0,
                seconds, f"worst residual {worst:.2e}")


def test_criterion_2_gradients():
    t0 = time.perf_counter()
    g = stream(901, "c2")
    gauss = fit_gauss(g.standard_normal((100, 8)) * 1.2)
    recon = fit_recon(g.standard_normal((80, 8)) * 0.5, DetectorConfig(hidden=(16,), steps=200), seed=1)
    tol, weights = Tolerances(delta4=0.05), PropertyWeights(0.8, 1.2, 1.0, 0.9)
    worst = 0.0
    checked = 0
    while checked < 100:
        det = gauss if checked % 2 == 0 else recon
        x = g.standard_normal(8)
        z = (g.random(8) < 0.5).astype(np.float64)
        grad = det.grad_region_score(x, z)
        worst = max(worst, max_rel_err(grad, central_diff(lambda v: det.region_score(v, z), x)))

        x_bad, x_fix = g.standard_normal(8), g.standard_normal(8)
        omega = (g.random(8) < 0.4).astype(np.float64)
        m3 = det.region_score(x_fix, omega) - det.region_score(x_bad, omega)
        m4 = det.region_score(x_fix, 1 - omega) - det.region_score(x_bad, 1 - omega) - tol.delta4
        if min(abs(m3), abs(m4)) < 1e-2:
            continue  # hinge kink
        grad = grad_guidance(det, x_bad, x_fix, omega, tol, weights)
        fd = central_diff(lambda v: loss_breakdown(det, x_bad, v, omega, tol, weights).total, x_fix)
        worst = max(worst, max_rel_err(grad, fd))
        checked += 1
    seconds = time.perf_counter() - t0
    report_line("C2 gradients vs finite differences (100 points)", worst <= 1e-6 and seconds < 30.0,
                seconds, f"max rel err {worst:.2e}")


def test_criterion_3_zero_guidance_equivalence(ts_pipeline):
    cfg, pipe = ts_pipeline
    t0 = time.perf_counter()
    x_bad = pipe.test[pipe.instance_ids[0]]
    omega = binarize(pipe.detector.score(x_bad), pipe.thresholds)
    mismatches = 0
    for seed in range(20):
        rcfg = RepairConfig(seed=seed, stream_tag="c3", eta_start=0.0, eta_end=0.0)
        guided = guided_repair(pipe.detector, pipe.denoiser, x_bad, omega, rcfg)
        base = baseline_repair(pipe.detector, pipe.denoiser, x_bad, omega, rcfg)
        if guided.trajectory_hash != base.trajectory_hash or not np.array_equal(guided.x_fix, base.x_fix):
            mismatches += 1
    seconds = time.perf_counter() - t0
    report_line("C3 zero-guidance equivalence (20 seeds)", mismatches == 0 and seconds < 120.0,
                seconds, f"{mismatches} mismatches")


def test_criterion_4_mask_preservation(ts_pipeline):
    cfg, pipe = ts_pipeline
    t0 = time.perf_counter()
    x_bad = pipe.test[pipe.instance_ids[1]]
    omega = binarize(pipe.detector.score(x_bad), pipe.thresholds)
    keep = (1.0 - omega).astype(bool)
    ok = True
    for mode in ("level-matched", "paper-literal"):
        rcfg = RepairConfig(seed=4, stream_tag="c4", infill_mode=mode,
                            eta_start=0.1, eta_end=0.3, record_trajectory=True)
        out = guided_repair(pipe.detector, pipe.denoiser, x_bad, omega, rcfg)
        for _, x_bad_level, x_step in out.trajectory:
            ok = ok and np.array_equal(x_step[keep], x_bad_level[keep])
        if mode == "level-matched":
            ok = ok and float(np.max(np.abs(out.x_fix[keep] - x_bad[keep]))) <= 1e-12
    seconds = time.perf_counter() - t0
    report_line("C4 per-step mask preservation (both infill modes)", ok, seconds)


def _benchmark_wins(report):
    med = report.medians
    return (
        med["guided"]["m_omega"] < med["baseline"]["m_omega"]
        and med["guided"]["m_s"] < med["baseline"]["m_s"]
        and report.delta_percent["m_omega"] >= 20.0
        and med["guided"]["m_omega"] < 0.0
    )


def test_criterion_5_directional_benchmark_timeseries(ts_reports):
    reports, seconds = ts_reports
    wins = sum(_benchmark_wins(r) for r in reports.values())
    deltas = [round(r.delta_percent["m_omega"], 1) for r in reports.values()]
    report_line("C5a time-series benchmark (Gaussian detector)", wins >= 4 and seconds < 900.0,
                seconds, f"{wins}/5 seeds, delta(m_omega)={deltas}")


def test_criterion_5_directional_benchmark_image(image_reports):
    reports, seconds = image_reports
    wins = sum(_benchmark_wins(r) for r in reports.values())
    deltas = [round(r.delta_percent["m_omega"], 1) for r in reports.values()]
    report_line("C5b image benchmark (reconstruction detector)", wins >= 4 and seconds < 900.0,
                seconds, f"{wins}/5 seeds, delta(m_omega)={deltas}")


def test_criterion_6_tnr(ts_reports):
    reports, _ = ts_reports
    t0 = time.perf_counter()
    wins = sum(1 for r in reports.values() if r.tnr_guided >= r.tnr_baseline and r.tnr_guided >= 0.9)
    tnrs = [(round(r.tnr_guided, 2), round(r.tnr_baseline, 2)) for r in reports.values()]
    report_line("C6 conformal TNR on time-series benchmark", wins >= 4,
                time.perf_counter() - t0, f"{wins}/5 seeds, (guided, baseline)={tnrs}")


def test_constraint_satisfaction_on_benchmark(ts_reports):
    # Not a numbered criterion: with the masked-distance bound calibrated to
    # the 95th percentile of baseline distances, guided repairs must satisfy
    # all constraints at rate >= 1 - delta (delta = 0.2).
    reports, _ = ts_reports
    t0 = time.perf_counter()
    wins = sum(1 for r in reports.values() if r.satisfaction_guided >= 1.0 - 0.2)
    rates = [round(r.satisfaction_guided, 2) for r in reports.values()]
    report_line("constraint satisfaction (guided arm)", wins >= 4,
                time.perf_counter() - t0, f"{wins}/5 seeds, rates={rates}")


def test_criterion_7_conformal_coverage():
    t0 = time.perf_counter()
    cfg = timeseries_benchmark_config(seed=0)
    d = cfg.data
    ds = gen_synthetic_ts(
        d.n_features, d.window_len, d.n_train, 1, list(d.anomalies), seed=123,
        noise_std=d.noise_std, start_jitter=d.start_jitter, n_test_normal=500,
    )
    det = fit_gauss(ds.train)
    threshold = conformal_threshold([det.score(r).total for r in ds.train], 0.95)
    heldout = ds.test[ds.labels.sum(axis=1) == 0.0]
    assert heldout.shape[0] == 500
    exceed = float(np.mean([det.score(r).total > threshold for r in heldout]))
    bound = 0.05 + 2.0 / math.sqrt(500)
    seconds = time.perf_counter() - t0
    report_line("C7 conformal coverage (500 held-out normals)", exceed <= bound,
                seconds, f"exceedance {exceed:.3f} <= {bound:.3f}")


def test_criterion_8_ablation_protocol(cli_workspace, tmp_path):
    root, config, data_dir, models = cli_workspace
    t0 = time.perf_counter()
    ok = True
    details = []
    for param in ("lambda1", "lambda2", "lambda3", "lambda4"):
        out = tmp_path / f"ablate-{param}"
        code = cli_main(["ablate", "--input", str(data_dir), "--seed", "0", "--config", str(config),
                         "--detector", str(models / "detector.json"),
                         "--denoiser", str(models / "denoiser.json"),
                         "--param", param, "--values", "0.1,1,10", "--out", str(out)])
        lines = (out / "ablation.csv").read_text().splitlines()
        header = lines[0].split(",")
        complete = (
            code == 0
            and len(lines) == 4
            and all(len(line.split(",")) == len(header) for line in lines[1:])
            and all(int(line.split(",")[2]) == 20 for line in lines[1:])
        )
        ok = ok and complete
        details.append(f"{param}:{'ok' if complete else 'bad'}")
    # deterministic per seed: identical re-run bytes
    rerun = tmp_path / "ablate-again"
    cli_main(["ablate", "--input", str(data_dir), "--seed", "0", "--config", str(config),
              "--detector", str(models / "detector.json"),
              "--denoiser", str(models / "denoiser.json"),
              "--param", "lambda4", "--values", "0.1,1,10", "--out", str(rerun)])
    ok = ok and (rerun / "ablation.csv").read_bytes() == (tmp_path / "ablate-lambda4" / "ablation.csv").read_bytes()
    seconds = time.perf_counter() - t0
    report_line("C8 ablation protocol (4 params x 3 values, 20 instances)",
                ok and seconds < 1800.0, seconds, " ".join(details))


def test_criterion_9_cli_determinism(cli_workspace, tmp_path):
    root, config, data_dir, models = cli_workspace
    t0 = time.perf_counter()
    ok = True

    # gen-data / train-detector / train-diffusion: byte-equal artifacts
    other_data = tmp_path / "data2"
    cli_main(["gen-data", "--kind", "ts", "--out", str(other_data), "--seed", "0",
              "--config", str(config)])
    for name in ("train.csv", "test.csv", "test_labels.csv", "meta.json"):
        ok = ok and (data_dir / name).read_bytes() == (other_data / name).read_bytes()
    other_models = tmp_path / "models2"
    cli_main(["train-detector", "--input", str(data_dir), "--out", str(other_models),
              "--seed", "0", "--config", str(config)])
    cli_main(["train-diffusion", "--input", str(data_dir), "--out", str(other_models),
              "--seed", "0", "--config", str(config)])
    ok = ok and (models / "detector.json").read_bytes() == (other_models / "detector.json").read_bytes()
    ok = ok and (models / "denoiser.json").read_bytes() == (other_models / "denoiser.json").read_bytes()

    # repair twice: repairs.json byte-equal (timings.json is measured time)
    repair_outs = []
    for name in ("rep1", "rep2"):
        out = tmp_path / name
        cli_main(["repair", "--input", str(data_dir), "--detector", str(models / "detector.json"),
                  "--denoiser", str(models / "denoiser.json"), "--guided", "--seed", "0",
                  "--config", str(config), "--out", str(out)])
        repair_outs.append(out)
    ok = ok and (repair_outs[0] / "repairs.json").read_bytes() == (repair_outs[1] / "repairs.json").read_bytes()

    # evaluate twice: report.json and aggregates.csv byte-equal; summary.csv
    # equal apart from the trailing measured-seconds column.
    eval_outs = []
    for name in ("ev1", "ev2"):
        out = tmp_path / name
        cli_main(["evaluate", "--input", str(data_dir), "--detector", str(models / "detector.json"),
                  "--denoiser", str(models / "denoiser.json"), "--seed", "0",
                  "--config", str(config), "--out", str(out)])
        eval_outs.append(out)
    ok = ok and (eval_outs[0] / "report.json").read_bytes() == (eval_outs[1] / "report.json").read_bytes()
    ok = ok and (eval_outs[0] / "aggregates.csv").read_bytes() == (eval_outs[1] / "aggregates.csv").read_bytes()
    strip = lambda p: [",".join(line.split(",")[:-1]) for line in (p / "summary.csv").read_text().splitlines()]
    ok = ok and strip(eval_outs[0]) == strip(eval_outs[1])

    report_line("C9 CLI determinism (all subcommands)", ok, time.perf_counter() - t0)
