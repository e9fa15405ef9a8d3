"""Property-guided masked-infill repair of detected anomalies.

Starting from pure noise, each reverse step combines the denoiser's posterior
mean with sampling noise, subtracts a scheduled multiple of the property-loss
gradient, and then overwrites the non-anomalous region with a correspondingly
noised copy of the original input. The unguided baseline is the identical
iteration with the guidance weight forced to zero, consuming the same random
streams so paired comparisons see identical noise.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from .detector import as_mask, _check_input
from .diffusion import Denoiser, NoiseSchedule, predict_mu
from .properties import (
    LossBreakdown,
    MetricsRecord,
    PropertyWeights,
    Tolerances,
    _regions,
    guidance_grad,
    loss_breakdown,
    metrics,
)
from .tensor import Array, stream

INFILL_MODES = ("level-matched", "paper-literal")


@dataclass(frozen=True)
class GuidanceSchedule:
    """Nondecreasing, nonnegative per-step guidance weights (index 0 is t=1)."""

    eta: Array

    def __post_init__(self):
        eta = self.eta
        if eta.ndim != 1 or eta.size < 1:
            raise ValueError("guidance schedule must be a non-empty vector")
        if np.any(eta < 0.0):
            raise ValueError("guidance weights must be nonnegative")
        if np.any(np.diff(eta) < 0.0):
            raise ValueError("guidance weights must be nondecreasing")

    @property
    def T(self) -> int:
        return self.eta.size


def make_guidance_schedule(T: int, eta_start: float, eta_end: float) -> GuidanceSchedule:
    """Linear ramp from eta_start at t=1 to eta_end at t=T."""
    if T < 1:
        raise ValueError(f"step count must be >= 1, got {T}")
    if eta_start < 0.0 or eta_end < 0.0:
        raise ValueError("guidance weights must be nonnegative")
    if eta_start > eta_end:
        raise ValueError(f"need eta_start <= eta_end, got ({eta_start}, {eta_end})")
    if T == 1:
        eta = np.array([float(eta_end)])
    else:
        eta = np.linspace(eta_start, eta_end, T)
    return GuidanceSchedule(eta=eta)


@dataclass(frozen=True)
class RepairConfig:
    weights: PropertyWeights = field(default_factory=PropertyWeights)
    tol: Tolerances = field(default_factory=Tolerances)
    eta_start: float = 0.0
    eta_end: float = 0.05
    infill_mode: str = "level-matched"
    seed: int = 0
    stream_tag: str = "repair"
    record_trajectory: bool = False

    def __post_init__(self):
        if self.infill_mode not in INFILL_MODES:
            raise ValueError(f"infill mode must be one of {INFILL_MODES}, got {self.infill_mode!r}")
        if not (0.0 <= self.eta_start <= self.eta_end):
            raise ValueError(f"need 0 <= eta_start <= eta_end, got ({self.eta_start}, {self.eta_end})")


@dataclass(frozen=True)
class RepairResult:
    x_fix: Array
    loss: LossBreakdown
    metrics: MetricsRecord
    trajectory_hash: str
    seconds: float
    seed: int = 0
    infill_mode: str = "level-matched"
    std_mode: str = "standard"
    guided: bool = False
    trajectory: tuple | None = None

    def as_dict(self, include_seconds: bool = True) -> dict:
        out = {
            "x_fix": [float(v) for v in self.x_fix],
            "losses": self.loss.as_dict(),
            "metrics": self.metrics.as_dict(),
            "seed": self.seed,
            "infill_mode": self.infill_mode,
            "std_mode": self.std_mode,
            "guided": self.guided,
            "trajectory_hash": self.trajectory_hash,
        }
        if include_seconds:
            out["seconds"] = self.seconds
        return out


def _run_repair(
    detector,
    denoiser: Denoiser,
    schedule: NoiseSchedule,
    x_bad: Array,
    omega: Array,
    cfg: RepairConfig,
    eta: Array,
) -> RepairResult:
    n = detector.n
    x_bad = _check_input(x_bad, n)
    omega = as_mask(omega, n)
    if denoiser.n != n:
        raise ValueError(f"denoiser dimension {denoiser.n} does not match detector {n}")
    if schedule.T != denoiser.schedule.T or not np.array_equal(schedule.b, denoiser.schedule.b):
        raise ValueError("noise schedule does not match the denoiser's training schedule")
    if eta.size != schedule.T:
        raise ValueError(f"guidance schedule length {eta.size} != step count {schedule.T}")
    omega_bar = 1.0 - omega
    level_matched = cfg.infill_mode == "level-matched"
    guided = bool(np.any(eta != 0.0))
    regions = _regions(detector, x_bad, omega) if guided else None

    base = f"{cfg.stream_tag}"
    init = stream(cfg.seed, f"{base}/init")
    zs = stream(cfg.seed, f"{base}/z")
    es = stream(cfg.seed, f"{base}/eps")

    started = time.perf_counter()
    x = init.standard_normal(n)
    hasher = hashlib.sha256()
    hasher.update(np.ascontiguousarray(x, dtype="<f8").tobytes())
    steps = [] if cfg.record_trajectory else None

    root_a = np.sqrt(schedule.a)
    root_rem = np.sqrt(1.0 - schedule.a)
    for t in range(schedule.T, 0, -1):
        xhat = predict_mu(denoiser, x, t)
        if t > 1:
            xhat = xhat + schedule.sigma[t - 1] * zs.standard_normal(n)
        eta_t = float(eta[t - 1])
        if eta_t != 0.0:
            xhat = xhat - eta_t * guidance_grad(detector, x, x_bad, omega, regions, cfg.tol, cfg.weights)
        eps_t = es.standard_normal(n)
        level = t - 1 if level_matched else t
        if level == 0:
            x_bad_level = x_bad
        else:
            x_bad_level = root_a[level - 1] * x_bad + root_rem[level - 1] * eps_t
        x = omega_bar * x_bad_level + omega * xhat
        if not np.all(np.isfinite(x)):
            raise ValueError(f"repair {cfg.stream_tag}: iterate became non-finite at step t={t}")
        hasher.update(np.ascontiguousarray(x, dtype="<f8").tobytes())
        if steps is not None:
            steps.append((t, x_bad_level.copy(), x.copy()))

    seconds = time.perf_counter() - started
    loss = loss_breakdown(detector, x_bad, x, omega, cfg.tol, cfg.weights)
    record = metrics(detector, x_bad, x, omega)
    if not np.all(np.isfinite([*loss.as_dict().values(), *record.as_dict().values()])):
        raise ValueError(f"repair {cfg.stream_tag}: the final iterate's losses or metrics are non-finite")
    return RepairResult(
        x_fix=x,
        loss=loss,
        metrics=record,
        trajectory_hash=hasher.hexdigest(),
        seconds=seconds,
        seed=cfg.seed,
        infill_mode=cfg.infill_mode,
        std_mode=schedule.std_mode,
        guided=guided,
        trajectory=tuple(steps) if steps is not None else None,
    )


def guided_repair(detector, denoiser: Denoiser, schedule: NoiseSchedule, x_bad, omega, cfg: RepairConfig) -> RepairResult:
    """Repair with the scheduled guidance ramp."""
    eta = make_guidance_schedule(schedule.T, cfg.eta_start, cfg.eta_end).eta
    return _run_repair(detector, denoiser, schedule, x_bad, omega, cfg, eta)


def baseline_repair(detector, denoiser: Denoiser, schedule: NoiseSchedule, x_bad, omega, cfg: RepairConfig) -> RepairResult:
    """Same iteration with guidance forced to zero; masked infill retained."""
    eta = np.zeros(schedule.T)
    return _run_repair(detector, denoiser, schedule, x_bad, omega, cfg, eta)
