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

import dataclasses
import math
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import ckpt
from .data import (
    AnomalySpec,
    Dataset,
    check_generator_args,
    fit_scaler,
    gen_synthetic_image,
    gen_synthetic_ts,
)
from .detector import (
    ReconTrainConfig,
    binarize,
    calibrate_thresholds,
    fit_gauss,
    fit_recon,
)
from .diffusion import Denoiser, DiffusionTrainConfig, make_schedule, train_denoiser
from .properties import Tolerances, conformal_threshold, satisfaction_rate, tnr
from .repair import RepairConfig, RepairResult, RepairRow, RepairSettings, repair_batch

REPORT_SCHEMA = "arpro-report-v1"
METRIC_NAMES = ("m_s", "m_d", "m_omega", "m_omega_bar")
DELTA_DENOM_FLOOR = 1e-9
ABLATION_PARAMS = ("lambda1", "lambda2", "lambda3", "lambda4", "eta_scale")

DELTA_NOTE = (
    "delta_percent is the median over paired instances of "
    "100*(baseline - guided)/max(|baseline|, 1e-9); metrics are lower-is-better "
    "and may be signed, so values can exceed 100% when guided crosses zero."
)


_TYPE_NAMES = {int: "an int", float: "a finite number", bool: "a bool", str: "a string"}


def _from_json(tp, value, where: str):
    """`value`, decoded from JSON, as field type `tp`; any error is a
    ValueError naming `where`, the value's dotted path."""
    if dataclasses.is_dataclass(tp):
        if not isinstance(value, dict):
            raise ValueError(f"{where} must be an object, got {value!r}")
        fields = dataclasses.fields(tp)
        unknown = sorted(set(value) - {f.name for f in fields})
        if unknown:
            raise ValueError(f"unknown keys in {where}: {unknown}")
        hints = typing.get_type_hints(tp)
        kwargs = {}
        for f in fields:
            if f.name in value:
                kwargs[f.name] = _from_json(hints[f.name], value[f.name], f"{where}.{f.name}")
            elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ValueError(f"{where}.{f.name} is required")
        try:
            return tp(**kwargs)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:  # tuple[X, ...]
        if not isinstance(value, list):
            raise ValueError(f"{where} must be a list, got {value!r}")
        return tuple(_from_json(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if type(None) in args:  # X | None
        return None if value is None else _from_json(args[0], value, where)
    if tp is float:
        # A JSON int is a float here; the bound turns away NaN, ±inf and ints too large for a float.
        if isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max:
            return float(value)
    elif isinstance(value, tp) and not (tp is int and isinstance(value, bool)):
        return value
    raise ValueError(f"{where} must be {_TYPE_NAMES[tp]}, got {value!r}")


def _to_json(value):
    """JSON-native form of a config value: dataclasses become objects in field
    order and tuples become lists."""
    if dataclasses.is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


class _Config:
    """`from_dict`/`to_dict` for the config dataclasses, derived from their
    fields and field types. Range rules live in each class's `__post_init__`."""

    @classmethod
    def from_dict(cls, payload: dict, where: str = "config"):
        return _from_json(cls, payload, where)

    def to_dict(self) -> dict:
        return _to_json(self)


def _library(cls, cfg):
    """The library settings `cls` built from the fields of the same names in
    the config `cfg`; building them runs their range rules."""
    return cls(**{f.name: getattr(cfg, f.name) for f in dataclasses.fields(cls)})


# The anomalies each data kind injects unless its config lists others.
STOCK_ANOMALIES = {
    "ts": (
        AnomalySpec(kind="spike", magnitude=1.2, extent=0.1),
        AnomalySpec(kind="level_shift", magnitude=1.2, extent=0.1),
    ),
    "image": (
        AnomalySpec(kind="square_defect", magnitude=2.0, extent=0.08),
        AnomalySpec(kind="stripe_defect", magnitude=2.0, extent=0.064),
    ),
}


@dataclass(frozen=True)
class DataConfig(_Config):
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
    anomalies: tuple[AnomalySpec, ...] = STOCK_ANOMALIES["ts"]

    def __post_init__(self):
        if self.kind not in ("ts", "image"):
            raise ValueError(f"data kind must be 'ts' or 'image', got {self.kind!r}")
        check_generator_args(self.kind, self.anomalies, **self._generator_args())

    def _generator_args(self) -> dict:
        """The keys this kind's generator reads, with their values."""
        if self.kind == "ts":
            keys = ("n_features", "window_len", "start_jitter")
        else:
            keys = ("side", "n_basis")
        keys += ("n_train", "n_test", "n_test_normal", "noise_std")
        return {key: getattr(self, key) for key in keys}

    def generate(self, seed: int) -> Dataset:
        generator = gen_synthetic_ts if self.kind == "ts" else gen_synthetic_image
        return generator(spec=list(self.anomalies), seed=seed, **self._generator_args())


@dataclass(frozen=True)
class DetectorConfig(_Config):
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
        _library(ReconTrainConfig, self)  # the training keys' rules

    def fit(self, train, seed: int):
        if self.kind == "gauss":
            return fit_gauss(train, sigma_floor=self.sigma_floor)
        return fit_recon(train, _library(ReconTrainConfig, self), seed=seed)


@dataclass(frozen=True)
class DiffusionConfig(_Config):
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

    def __post_init__(self):
        _library(DiffusionTrainConfig, self)  # the training keys' and time_embed's rules
        self.schedule()  # make_schedule's rules on T, b_start, b_end and std_mode

    def schedule(self):
        return make_schedule(self.T, self.b_start, self.b_end, self.std_mode)

    def train(self, train, seed: int) -> Denoiser:
        return train_denoiser(train, self.schedule(), _library(DiffusionTrainConfig, self), seed=seed)


@dataclass(frozen=True)
class ExperimentConfig(_Config):
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


@dataclass
class Pipeline:
    """Fitted models and selected instances shared by every experiment entry point."""

    dataset: Dataset
    train: np.ndarray
    test: np.ndarray
    detector: object
    denoiser: Denoiser
    thresholds: np.ndarray
    score_threshold: float
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
    train, test = scaled_splits(cfg, dataset)

    if detector is None:
        detector = cfg.detector.fit(train, seed=cfg.seed)
    elif detector.n != train.shape[1]:
        raise ValueError(f"detector dimension {detector.n} does not match data {train.shape[1]}")
    train_alpha = detector.alpha_batch(train)
    test_alpha = detector.alpha_batch(test)
    thresholds = calibrate_thresholds(train_alpha, q=cfg.quantile)
    score_threshold = conformal_threshold(_totals(detector, train, train_alpha), cfg.confidence)
    if score_threshold == math.inf:
        # The conformal rank ceil((n+1)*confidence) is at most n once n >= confidence/(1-confidence).
        needed = math.ceil(round(cfg.confidence / (1.0 - cfg.confidence), 9))
        raise ValueError(f"confidence {cfg.confidence} needs at least {needed} training rows for a finite "
                         f"conformal threshold, got {len(train)}")

    instance_ids = np.flatnonzero(_totals(detector, test, test_alpha) > score_threshold)[: cfg.n_instances]
    if not instance_ids.size:
        raise ValueError("no anomalous instances found: every test score is at or below the threshold")

    if denoiser is None:
        denoiser = cfg.diffusion.train(train, seed=cfg.seed)
    elif denoiser.n != train.shape[1]:
        raise ValueError(f"denoiser dimension {denoiser.n} does not match data {train.shape[1]}")

    return Pipeline(
        dataset=dataset,
        train=train,
        test=test,
        detector=detector,
        denoiser=denoiser,
        thresholds=thresholds,
        score_threshold=score_threshold,
        instance_ids=instance_ids.tolist(),
        masks=np.stack([binarize(test_alpha[i], thresholds) for i in instance_ids]),
    )


def scaled_splits(cfg: ExperimentConfig, dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The training and test splits, scaled by a scaler fitted on the
    training split when `cfg.normalize` is set."""
    if not cfg.normalize:
        return dataset.train, dataset.test
    scaler = fit_scaler(dataset.train)
    return scaler.apply(dataset.train), scaler.apply(dataset.test)


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
                "threshold": self.conformal_score_threshold,
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


def repair_timing(results) -> dict:
    """Measured time of one repair batch. Every row of a batch carries the
    loop time divided by the number of rows, so the batch is timed as a whole."""
    results = list(results)
    per_row = results[0].seconds
    return {"repair_rows": len(results), "repair_s": per_row * len(results), "repair_per_row_s": per_row}


def _repair(pipe: Pipeline, cfg: ExperimentConfig, count: int, sections) -> list[RepairResult]:
    """Repair the first `count` selected instances in one batch, each once per
    repair section in `sections`; results are ordered by instance, then
    section. The rows of an instance share its random streams."""
    rows = [
        RepairRow(pipe.test[instance_id], omega,
                  RepairConfig(**dataclasses.asdict(section), seed=cfg.seed, stream_tag=f"inst{instance_id}"))
        for instance_id, omega in list(zip(pipe.instance_ids, pipe.masks))[:count]
        for section in sections
    ]
    return repair_batch(pipe.detector, pipe.denoiser, pipe.denoiser.schedule, rows)


def run_experiment(
    cfg: ExperimentConfig,
    dataset: Dataset | None = None,
    detector=None,
    denoiser: Denoiser | None = None,
) -> AggregateReport:
    """Paired baseline/guided repairs over the selected anomalous instances."""
    pipe = prepare_pipeline(cfg, dataset=dataset, detector=detector, denoiser=denoiser)
    results = _repair(pipe, cfg, len(pipe.instance_ids), (cfg.repair.unguided(), cfg.repair))
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

    delta2 = cfg.repair.delta2
    if delta2 is None:
        delta2 = max(float(np.percentile([r.baseline.loss.l2 for r in records], 95)), DELTA_DENOM_FLOOR)
    sat_tol = Tolerances(delta2=delta2, delta4=cfg.repair.delta4)
    sat_baseline = satisfaction_rate([r.baseline.loss for r in records], sat_tol)
    sat_guided = satisfaction_rate([r.guided.loss for r in records], sat_tol)

    return AggregateReport(
        seed=cfg.seed,
        config=cfg.to_dict(),
        conformal_score_threshold=pipe.score_threshold,
        records=records,
        medians=medians,
        delta_percent=delta,
        tnr_baseline=tnr(metric_lists["baseline"]["m_s"], pipe.score_threshold),
        tnr_guided=tnr(metric_lists["guided"]["m_s"], pipe.score_threshold),
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
    section = cfg.repair if arm == "guided" else cfg.repair.unguided()
    results = _repair(pipe, cfg, len(pipe.instance_ids), (section,))
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
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"ablation values must be finite numbers, got {values}")
    repair = cfg.repair
    if param == "eta_scale":
        sections = [dataclasses.replace(repair, eta_start=repair.eta_start * v, eta_end=repair.eta_end * v)
                    for v in values]
    else:
        sections = [dataclasses.replace(repair, **{param: v}) for v in values]
    pipe = prepare_pipeline(cfg, dataset=dataset, detector=detector, denoiser=denoiser)
    count = min(cfg.ablation_instances, len(pipe.instance_ids))
    results = _repair(pipe, cfg, count, sections)

    rows = []
    for k, value in enumerate(values):
        chunk = results[k::len(values)]
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
    report_path = directory / "report.json"
    ckpt.write(report_path, report.to_dict())

    def summary_row(record: InstanceRecord, arm: str) -> list:
        result = getattr(record, arm)
        m, l = result.metrics, result.loss
        values = (m.m_s, m.m_d, m.m_omega, m.m_omega_bar, l.l1, l.l2, l.l3, l.l4, result.seconds)
        return [record.instance_id, arm, *map(repr, values)]

    summary_path = directory / "summary.csv"
    ckpt.write_csv(
        summary_path,
        ["instance_id", "arm", "m_s", "m_d", "m_omega", "m_omega_bar", "l1", "l2", "l3", "l4", "seconds"],
        (summary_row(record, arm) for record in report.records for arm in ("baseline", "guided")),
    )

    aggregates_path = directory / "aggregates.csv"
    medians = report.medians
    ckpt.write_csv(aggregates_path, ["key", "baseline", "guided", "delta_percent"], [
        *([f"median_{name}", repr(medians["baseline"][name]), repr(medians["guided"][name]),
           repr(report.delta_percent[name])] for name in METRIC_NAMES),
        ["tnr", repr(report.tnr_baseline), repr(report.tnr_guided), ""],
        ["tnr_threshold", repr(report.conformal_score_threshold), "", ""],
        ["satisfaction_rate", repr(report.satisfaction_baseline), repr(report.satisfaction_guided), ""],
        ["satisfaction_delta2", repr(report.satisfaction_delta2), "", ""],
    ])

    return {
        "report": report_path,
        "summary": summary_path,
        "aggregates": aggregates_path,
        "timings": write_timings(directory, report.wall_clock),
    }


def write_timings(directory, wall_clock: dict) -> Path:
    """Write timings.json, the one output that holds measured wall-clock
    time (see `repair_timing`)."""
    path = Path(directory) / "timings.json"
    ckpt.write(path, {"note": "measured wall-clock timing; not byte-reproducible across runs",
                      "wall_clock": wall_clock})
    return path


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
            anomalies=STOCK_ANOMALIES["ts"],
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
            anomalies=STOCK_ANOMALIES["image"],
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
    path = Path(directory) / "ablation.csv"
    ckpt.write_csv(path, ["param", "value", "n_instances", *(f"mean_{n}" for n in METRIC_NAMES)], (
        [row["param"], repr(row["value"]), row["n_instances"], *(repr(row[f"mean_{n}"]) for n in METRIC_NAMES)]
        for row in rows
    ))
    return path
