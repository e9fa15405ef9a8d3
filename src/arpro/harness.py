"""Experiment orchestration: paired baseline/guided repairs and reporting.

An experiment fits (or receives) a detector and a denoiser on the training
split, calibrates feature thresholds and a conformal score threshold, selects
the test instances whose total score exceeds it, and repairs each one twice —
unguided and guided — with identical random streams so the arms see the same
noise. Aggregates are medians, per-metric median percentage improvement,
true-negative rates under the conformal threshold, and the constraint
satisfaction rate.

Measured wall-clock times are reported separately (stdout and timings.json):
they are the only outputs that cannot be byte-reproducible across runs.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import ckpt
from .data import AnomalySpec, Dataset, Scaler, fit_scaler, gen_synthetic_image, gen_synthetic_ts
from .detector import (
    ReconTrainConfig,
    binarize,
    calibrate_thresholds,
    fit_gauss,
    fit_recon,
)
from .diffusion import Denoiser, DiffusionTrainConfig, make_schedule, train_denoiser
from .properties import (
    PropertyWeights,
    Tolerances,
    conformal_threshold,
    satisfaction_rate,
    tnr,
)
from .repair import RepairConfig, RepairResult, RepairRow, repair_batch

REPORT_SCHEMA = "arpro-report-v1"
METRIC_NAMES = ("m_s", "m_d", "m_omega", "m_omega_bar")
DELTA_DENOM_FLOOR = 1e-9
ABLATION_PARAMS = ("lambda1", "lambda2", "lambda3", "lambda4", "eta_scale")

DELTA_NOTE = (
    "delta_percent is the median over paired instances of "
    "100*(baseline - guided)/max(|baseline|, 1e-9); metrics are lower-is-better "
    "and may be signed, so values can exceed 100% when guided crosses zero."
)


def _reject_unknown(payload: dict, allowed, where: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise ValueError(f"unknown keys in {where}: {unknown}")


@dataclass(frozen=True)
class DataConfig:
    kind: str = "ts"
    n_features: int = 4
    window_len: int = 32
    side: int = 16
    n_train: int = 200
    n_test: int = 50
    n_test_normal: int = 0
    noise_std: float = 0.1
    start_jitter: float = 32.0
    n_basis: int = 32
    anomalies: tuple[AnomalySpec, ...] = (
        AnomalySpec(kind="spike", magnitude=1.2, extent=0.1),
        AnomalySpec(kind="level_shift", magnitude=1.2, extent=0.1),
    )

    def __post_init__(self):
        if self.kind not in ("ts", "image"):
            raise ValueError(f"data kind must be 'ts' or 'image', got {self.kind!r}")

    @classmethod
    def from_dict(cls, payload: dict, where: str = "data") -> "DataConfig":
        payload = dict(payload)
        _reject_unknown(payload, [f.name for f in dataclasses.fields(cls)], where)
        if "anomalies" in payload:
            specs = []
            for i, entry in enumerate(payload["anomalies"]):
                _reject_unknown(entry, ("kind", "magnitude", "extent", "count"), f"{where}.anomalies[{i}]")
                specs.append(AnomalySpec(**entry))
            payload["anomalies"] = tuple(specs)
        return cls(**payload)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n_features": self.n_features,
            "window_len": self.window_len,
            "side": self.side,
            "n_train": self.n_train,
            "n_test": self.n_test,
            "n_test_normal": self.n_test_normal,
            "noise_std": self.noise_std,
            "start_jitter": self.start_jitter,
            "n_basis": self.n_basis,
            "anomalies": [dataclasses.asdict(a) for a in self.anomalies],
        }

    def generate(self, seed: int) -> Dataset:
        if self.kind == "ts":
            return gen_synthetic_ts(
                self.n_features,
                self.window_len,
                self.n_train,
                self.n_test,
                list(self.anomalies),
                seed,
                noise_std=self.noise_std,
                start_jitter=self.start_jitter,
                n_test_normal=self.n_test_normal,
            )
        return gen_synthetic_image(
            self.side,
            self.n_train,
            self.n_test,
            list(self.anomalies),
            seed,
            n_basis=self.n_basis,
            noise_std=self.noise_std,
            n_test_normal=self.n_test_normal,
        )


@dataclass(frozen=True)
class DetectorConfig:
    kind: str = "gauss"
    sigma_floor: float = 1e-3
    hidden: tuple[int, ...] = (64, 16, 64)
    steps: int = 1500
    batch: int = 32
    lr: float = 1e-3
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gauss", "recon"):
            raise ValueError(f"detector kind must be 'gauss' or 'recon', got {self.kind!r}")

    @classmethod
    def from_dict(cls, payload: dict, where: str = "detector") -> "DetectorConfig":
        payload = dict(payload)
        _reject_unknown(payload, [f.name for f in dataclasses.fields(cls)], where)
        if "hidden" in payload:
            payload["hidden"] = tuple(payload["hidden"])
        return cls(**payload)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["hidden"] = list(self.hidden)
        return out

    def fit(self, train, seed: int):
        if self.kind == "gauss":
            return fit_gauss(train, sigma_floor=self.sigma_floor)
        cfg = ReconTrainConfig(
            hidden=self.hidden, steps=self.steps, batch=self.batch, lr=self.lr, weight_decay=self.weight_decay
        )
        return fit_recon(train, cfg, seed=seed)


@dataclass(frozen=True)
class DiffusionConfig:
    T: int = 100
    b_start: float | None = None
    b_end: float | None = None
    std_mode: str = "standard"
    hidden: tuple[int, ...] = (128, 128)
    time_embed: int = 32
    steps: int = 2000
    batch: int = 32
    lr: float = 1e-3
    weight_decay: float = 0.0

    @classmethod
    def from_dict(cls, payload: dict, where: str = "diffusion") -> "DiffusionConfig":
        payload = dict(payload)
        _reject_unknown(payload, [f.name for f in dataclasses.fields(cls)], where)
        if "hidden" in payload:
            payload["hidden"] = tuple(payload["hidden"])
        return cls(**payload)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["hidden"] = list(self.hidden)
        return out

    def schedule(self):
        return make_schedule(self.T, self.b_start, self.b_end, self.std_mode)

    def train(self, train, seed: int) -> Denoiser:
        cfg = DiffusionTrainConfig(
            hidden=self.hidden,
            time_embed=self.time_embed,
            steps=self.steps,
            batch=self.batch,
            lr=self.lr,
            weight_decay=self.weight_decay,
        )
        return train_denoiser(train, self.schedule(), cfg, seed=seed)


@dataclass(frozen=True)
class RepairSettings:
    lambda1: float = 1.0
    lambda2: float = 1.0
    lambda3: float = 1.0
    lambda4: float = 1.0
    eta_start: float = 0.0
    eta_end: float = 0.05
    infill_mode: str = "level-matched"
    delta2: float | None = None  # None: calibrated from baseline distances
    delta4: float = 0.0
    delta: float = 0.2

    @classmethod
    def from_dict(cls, payload: dict, where: str = "repair") -> "RepairSettings":
        payload = dict(payload)
        _reject_unknown(payload, [f.name for f in dataclasses.fields(cls)], where)
        return cls(**payload)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def weights(self) -> PropertyWeights:
        return PropertyWeights(self.lambda1, self.lambda2, self.lambda3, self.lambda4)

    def tolerances(self) -> Tolerances:
        # delta2 only matters for satisfaction checks, not the repair loop.
        return Tolerances(delta2=self.delta2 if self.delta2 is not None else 1.0,
                          delta4=self.delta4, delta=self.delta)

    def repair_config(self, seed: int, stream_tag: str, weights: PropertyWeights | None = None,
                      eta_scale: float = 1.0) -> RepairConfig:
        return RepairConfig(
            weights=weights if weights is not None else self.weights(),
            tol=self.tolerances(),
            eta_start=self.eta_start * eta_scale,
            eta_end=self.eta_end * eta_scale,
            infill_mode=self.infill_mode,
            seed=seed,
            stream_tag=stream_tag,
        )


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataConfig = field(default_factory=DataConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    diffusion: DiffusionConfig = field(default_factory=DiffusionConfig)
    repair: RepairSettings = field(default_factory=RepairSettings)
    n_instances: int = 50
    ablation_instances: int = 20
    quantile: float = 0.9
    confidence: float = 0.95
    normalize: bool = True
    seed: int = 0

    def __post_init__(self):
        for key in ("n_instances", "ablation_instances"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        for key in ("quantile", "confidence"):
            if not (0.0 < getattr(self, key) < 1.0):
                raise ValueError(f"{key} must lie in (0, 1), got {getattr(self, key)}")

    @classmethod
    def from_dict(cls, payload: dict, where: str = "config") -> "ExperimentConfig":
        payload = dict(payload)
        _reject_unknown(payload, [f.name for f in dataclasses.fields(cls)], where)
        if "data" in payload:
            payload["data"] = DataConfig.from_dict(payload["data"], f"{where}.data")
        if "detector" in payload:
            payload["detector"] = DetectorConfig.from_dict(payload["detector"], f"{where}.detector")
        if "diffusion" in payload:
            payload["diffusion"] = DiffusionConfig.from_dict(payload["diffusion"], f"{where}.diffusion")
        if "repair" in payload:
            payload["repair"] = RepairSettings.from_dict(payload["repair"], f"{where}.repair")
        return cls(**payload)

    def to_dict(self) -> dict:
        return {
            "data": self.data.to_dict(),
            "detector": self.detector.to_dict(),
            "diffusion": self.diffusion.to_dict(),
            "repair": self.repair.to_dict(),
            "n_instances": self.n_instances,
            "ablation_instances": self.ablation_instances,
            "quantile": self.quantile,
            "confidence": self.confidence,
            "normalize": self.normalize,
            "seed": self.seed,
        }


@dataclass
class Pipeline:
    """Fitted models and selected instances shared by every experiment entry point."""

    dataset: Dataset
    scaler: Scaler | None
    train: np.ndarray
    test: np.ndarray
    detector: object
    denoiser: Denoiser
    thresholds: np.ndarray
    score_threshold: float
    train_totals: np.ndarray
    instance_ids: list[int]
    masks: np.ndarray  # one anomaly mask per selected instance, in order


def prepare_pipeline(
    cfg: ExperimentConfig,
    dataset: Dataset | None = None,
    detector=None,
    denoiser: Denoiser | None = None,
) -> Pipeline:
    """Fit models, calibrate thresholds, and select anomalous test instances."""
    if dataset is None:
        dataset = cfg.data.generate(cfg.seed)
    scaler = fit_scaler(dataset.train) if cfg.normalize else None
    train = scaler.apply(dataset.train) if scaler else dataset.train
    test = scaler.apply(dataset.test) if scaler else dataset.test

    if detector is None:
        detector = cfg.detector.fit(train, seed=cfg.seed)
    train_alpha = detector.alpha_batch(train)
    test_alpha = detector.alpha_batch(test)
    thresholds = calibrate_thresholds(train_alpha, q=cfg.quantile)
    train_totals = _totals(detector, train, train_alpha)
    score_threshold = conformal_threshold(train_totals, cfg.confidence)

    instance_ids = np.flatnonzero(_totals(detector, test, test_alpha) > score_threshold)[: cfg.n_instances]
    if not instance_ids.size:
        raise ValueError("no anomalous instances found: every test score is at or below the threshold")

    if denoiser is None:
        denoiser = cfg.diffusion.train(train, seed=cfg.seed)
    elif denoiser.n != train.shape[1]:
        raise ValueError(f"denoiser dimension {denoiser.n} does not match data {train.shape[1]}")

    return Pipeline(
        dataset=dataset,
        scaler=scaler,
        train=train,
        test=test,
        detector=detector,
        denoiser=denoiser,
        thresholds=thresholds,
        score_threshold=score_threshold,
        train_totals=train_totals,
        instance_ids=instance_ids.tolist(),
        masks=np.stack([binarize(test_alpha[i], thresholds) for i in instance_ids]),
    )


def _totals(detector, data: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Total score of each row of `data` from its alpha rows; a per-row beta
    column adds row by row."""
    return (alpha.sum(axis=1, keepdims=True) + detector.beta_value(data))[:, 0]


@dataclass(frozen=True)
class InstanceRecord:
    instance_id: int
    baseline: RepairResult
    guided: RepairResult


@dataclass
class AggregateReport:
    seed: int
    config: dict
    conformal_score_threshold: float
    records: list[InstanceRecord]
    medians: dict
    delta_percent: dict
    tnr_threshold: float
    tnr_baseline: float
    tnr_guided: float
    satisfaction_delta2: float
    satisfaction_baseline: float
    satisfaction_guided: float
    wall_clock: dict
    provenance: dict | None = None

    def to_dict(self) -> dict:
        """Deterministic report payload; wall-clock timing is kept separate."""
        return {
            "schema": REPORT_SCHEMA,
            "seed": self.seed,
            "config": self.config,
            "provenance": self.provenance,
            "n_instances": len(self.records),
            "conformal_threshold": self.conformal_score_threshold,
            "instances": [
                {
                    "instance_id": r.instance_id,
                    "baseline": r.baseline.as_dict(),
                    "guided": r.guided.as_dict(),
                }
                for r in self.records
            ],
            "medians": self.medians,
            "delta_percent": self.delta_percent,
            "tnr": {
                "threshold": self.tnr_threshold,
                "baseline": self.tnr_baseline,
                "guided": self.tnr_guided,
            },
            "satisfaction": {
                "delta2": self.satisfaction_delta2,
                "baseline": self.satisfaction_baseline,
                "guided": self.satisfaction_guided,
            },
            "notes": {"delta_percent": DELTA_NOTE},
        }


def aggregate_delta(baseline, guided) -> float:
    """Median percentage improvement of guided over baseline (lower is better)."""
    baseline = list(baseline)
    guided = list(guided)
    if not baseline or len(baseline) != len(guided):
        raise ValueError(f"paired lists required, got {len(baseline)} vs {len(guided)}")
    pairs = [
        100.0 * (b - g) / max(abs(b), DELTA_DENOM_FLOOR) for b, g in zip(baseline, guided)
    ]
    return float(np.median(pairs))


def tnr_report(train_totals, repair_totals: dict, confidence: float) -> dict:
    """Conformal threshold from the training totals and per-arm TNR of the
    repairs' total scores (their `m_s`)."""
    train_totals = np.asarray(train_totals, dtype=np.float64)
    if train_totals.size == 0 or not repair_totals:
        raise ValueError("tnr_report needs training totals and at least one repair arm")
    threshold = conformal_threshold(train_totals, confidence)
    out = {"threshold": threshold}
    for arm, totals in repair_totals.items():
        totals = list(totals)
        if not totals:
            raise ValueError(f"no repairs in arm {arm!r}")
        out[f"tnr_{arm}"] = tnr(totals, threshold)
    return out


def repair_timing(results) -> dict:
    """Measured time of one repair batch. Every row of a batch carries the
    loop time divided by the number of rows, so the batch is timed as a whole."""
    results = list(results)
    per_row = results[0].seconds
    return {"repair_rows": len(results), "repair_s": per_row * len(results), "repair_per_row_s": per_row}


def _repair(pipe: Pipeline, cfg: ExperimentConfig, count: int, arms, settings=((None, 1.0),)) -> list[RepairResult]:
    """Repair the first `count` selected instances in one batch; results are
    ordered by setting, then instance, then arm.

    Each ``(weights, eta_scale)`` setting overrides the repair settings (None
    keeps the configured weights).
    """
    targets = list(zip(pipe.instance_ids, pipe.masks))[:count]
    rows = []
    for weights, eta_scale in settings:
        for instance_id, omega in targets:
            rcfg = cfg.repair.repair_config(cfg.seed, stream_tag=f"inst{instance_id}", weights=weights,
                                            eta_scale=eta_scale)
            rows.extend(RepairRow(pipe.test[instance_id], omega, rcfg, guided=arm == "guided") for arm in arms)
    return repair_batch(pipe.detector, pipe.denoiser, pipe.denoiser.schedule, rows)


def run_experiment(
    cfg: ExperimentConfig,
    dataset: Dataset | None = None,
    detector=None,
    denoiser: Denoiser | None = None,
) -> AggregateReport:
    """Paired baseline/guided repairs over the selected anomalous instances."""
    pipe = prepare_pipeline(cfg, dataset=dataset, detector=detector, denoiser=denoiser)
    results = _repair(pipe, cfg, len(pipe.instance_ids), ("baseline", "guided"))
    records = [
        InstanceRecord(instance_id=i, baseline=results[2 * k], guided=results[2 * k + 1])
        for k, i in enumerate(pipe.instance_ids)
    ]

    metric_lists = {
        arm: {name: [getattr(getattr(r, arm).metrics, name) for r in records] for name in METRIC_NAMES}
        for arm in ("baseline", "guided")
    }
    medians = {
        arm: {name: float(np.median(vals)) for name, vals in metric_lists[arm].items()}
        for arm in ("baseline", "guided")
    }
    delta = {
        name: aggregate_delta(metric_lists["baseline"][name], metric_lists["guided"][name])
        for name in METRIC_NAMES
    }

    tnr_info = tnr_report(
        pipe.train_totals, {arm: metric_lists[arm]["m_s"] for arm in ("baseline", "guided")}, cfg.confidence
    )

    delta2 = cfg.repair.delta2
    if delta2 is None:
        delta2 = max(float(np.percentile([r.baseline.loss.l2 for r in records], 95)), DELTA_DENOM_FLOOR)
    sat_tol = Tolerances(delta2=delta2, delta4=cfg.repair.delta4, delta=cfg.repair.delta)
    sat_baseline = satisfaction_rate([r.baseline.loss for r in records], sat_tol)
    sat_guided = satisfaction_rate([r.guided.loss for r in records], sat_tol)

    return AggregateReport(
        seed=cfg.seed,
        config=cfg.to_dict(),
        conformal_score_threshold=pipe.score_threshold,
        records=records,
        medians=medians,
        delta_percent=delta,
        tnr_threshold=tnr_info["threshold"],
        tnr_baseline=tnr_info["tnr_baseline"],
        tnr_guided=tnr_info["tnr_guided"],
        satisfaction_delta2=delta2,
        satisfaction_baseline=sat_baseline,
        satisfaction_guided=sat_guided,
        wall_clock=repair_timing(results),
    )


def run_single_arm(
    cfg: ExperimentConfig,
    arm: str,
    dataset: Dataset | None = None,
    detector=None,
    denoiser: Denoiser | None = None,
) -> tuple[Pipeline, list[tuple[int, RepairResult]]]:
    """Repair the selected instances with one arm only (CLI `repair`)."""
    if arm not in ("baseline", "guided"):
        raise ValueError(f"arm must be 'baseline' or 'guided', got {arm!r}")
    pipe = prepare_pipeline(cfg, dataset=dataset, detector=detector, denoiser=denoiser)
    results = _repair(pipe, cfg, len(pipe.instance_ids), (arm,))
    return pipe, list(zip(pipe.instance_ids, results))


def ablation_sweep(
    cfg: ExperimentConfig,
    param: str,
    values,
    dataset: Dataset | None = None,
    detector=None,
    denoiser: Denoiser | None = None,
) -> list[dict]:
    """Mean guided metrics per swept value, everything else held fixed.

    The same instance subset and random streams are reused for every value, so
    rows differ only through the swept parameter.
    """
    if param not in ABLATION_PARAMS:
        raise ValueError(f"unknown ablation parameter {param!r}; expected one of {ABLATION_PARAMS}")
    values = [float(v) for v in values]
    if not values:
        raise ValueError("ablation needs at least one value")
    pipe = prepare_pipeline(cfg, dataset=dataset, detector=detector, denoiser=denoiser)
    count = min(cfg.ablation_instances, len(pipe.instance_ids))

    settings = []
    for value in values:
        if param == "eta_scale":
            settings.append((None, value))
        else:
            settings.append((dataclasses.replace(cfg.repair.weights(), **{param: value}), 1.0))
    results = _repair(pipe, cfg, count, ("guided",), settings)

    rows = []
    for k, value in enumerate(values):
        chunk = results[k * count:(k + 1) * count]
        row = {"param": param, "value": value, "n_instances": count}
        for name in METRIC_NAMES:
            row[f"mean_{name}"] = float(np.mean([getattr(r.metrics, name) for r in chunk]))
        rows.append(row)
    return rows


# -- report files ------------------------------------------------------------------


def write_report(report: AggregateReport, directory) -> dict:
    """Write report.json, summary.csv, aggregates.csv, and timings.json.

    All files are byte-reproducible for identical runs except the measured
    wall-clock values: timings.json entirely, and the final `seconds` column
    of summary.csv.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    report_path = directory / "report.json"
    ckpt.write(report_path, report.to_dict())

    summary_path = directory / "summary.csv"
    with summary_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["instance_id", "arm", "m_s", "m_d", "m_omega", "m_omega_bar", "l1", "l2", "l3", "l4", "seconds"]
        )
        for record in report.records:
            for arm in ("baseline", "guided"):
                result = getattr(record, arm)
                m, l = result.metrics, result.loss
                writer.writerow(
                    [
                        record.instance_id,
                        arm,
                        repr(m.m_s),
                        repr(m.m_d),
                        repr(m.m_omega),
                        repr(m.m_omega_bar),
                        repr(l.l1),
                        repr(l.l2),
                        repr(l.l3),
                        repr(l.l4),
                        repr(result.seconds),
                    ]
                )

    aggregates_path = directory / "aggregates.csv"
    with aggregates_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["key", "baseline", "guided", "delta_percent"])
        for name in METRIC_NAMES:
            writer.writerow(
                [
                    f"median_{name}",
                    repr(report.medians["baseline"][name]),
                    repr(report.medians["guided"][name]),
                    repr(report.delta_percent[name]),
                ]
            )
        writer.writerow(["tnr", repr(report.tnr_baseline), repr(report.tnr_guided), ""])
        writer.writerow(["tnr_threshold", repr(report.tnr_threshold), "", ""])
        writer.writerow(
            ["satisfaction_rate", repr(report.satisfaction_baseline), repr(report.satisfaction_guided), ""]
        )
        writer.writerow(["satisfaction_delta2", repr(report.satisfaction_delta2), "", ""])

    timings_path = directory / "timings.json"
    ckpt.write(
        timings_path,
        {
            "note": "measured wall-clock timing; not byte-reproducible across runs",
            "wall_clock": report.wall_clock,
        },
    )
    return {
        "report": report_path,
        "summary": summary_path,
        "aggregates": aggregates_path,
        "timings": timings_path,
    }


def timeseries_benchmark_config(seed: int = 0, n_instances: int = 50) -> ExperimentConfig:
    """Default time-series benchmark: 4 features x window 32, Gaussian detector."""
    return ExperimentConfig(
        data=DataConfig(
            kind="ts",
            n_features=4,
            window_len=32,
            n_train=200,
            n_test=50,
            noise_std=0.1,
            start_jitter=32.0,
            anomalies=(
                AnomalySpec(kind="spike", magnitude=1.2, extent=0.1),
                AnomalySpec(kind="level_shift", magnitude=1.2, extent=0.1),
            ),
        ),
        detector=DetectorConfig(kind="gauss"),
        diffusion=DiffusionConfig(T=100, hidden=(128, 128), steps=2000),
        repair=RepairSettings(eta_start=0.1, eta_end=0.3),
        n_instances=n_instances,
        seed=seed,
    )


def image_benchmark_config(seed: int = 0, n_instances: int = 50) -> ExperimentConfig:
    """Default image benchmark: 16x16 textures, reconstruction detector."""
    return ExperimentConfig(
        data=DataConfig(
            kind="image",
            side=16,
            n_train=200,
            n_test=50,
            noise_std=0.2,
            n_basis=32,
            anomalies=(
                AnomalySpec(kind="square_defect", magnitude=2.0, extent=0.08),
                AnomalySpec(kind="stripe_defect", magnitude=2.0, extent=0.064),
            ),
        ),
        detector=DetectorConfig(kind="recon", hidden=(96, 32, 96), steps=2500),
        diffusion=DiffusionConfig(
            T=100, b_start=1e-3, b_end=0.05, hidden=(256, 256), steps=4000, lr=2e-3, batch=64
        ),
        repair=RepairSettings(eta_start=0.005, eta_end=0.02),
        n_instances=n_instances,
        seed=seed,
    )


def write_ablation(rows: list[dict], directory) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "ablation.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["param", "value", "n_instances"] + [f"mean_{n}" for n in METRIC_NAMES])
        for row in rows:
            writer.writerow(
                [row["param"], repr(row["value"]), row["n_instances"]]
                + [repr(row[f"mean_{n}"]) for n in METRIC_NAMES]
            )
    return path
