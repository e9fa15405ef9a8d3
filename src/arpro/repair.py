"""Property-guided masked-infill repair of detected anomalies.

Starting from pure noise, each reverse step combines the denoiser's posterior
mean with sampling noise, subtracts a scheduled multiple of the property-loss
gradient, and then overwrites the non-anomalous region with a correspondingly
noised copy of the original input. The unguided baseline is the identical
iteration with a guidance ramp of zeros, consuming the same random streams
so paired comparisons see identical noise.

Repairs run in lock step: every row of a batch (an instance, an arm, a weight
setting) takes the same reverse steps together, with one denoiser forward and
one guidance gradient per step for the whole batch. A row's result does not
depend on the batch it runs in, by the BLAS rules that `arpro.tensor.Mlp`
follows; the tests check this at the benchmark model shapes.

The per-step Python work is done in blocks of `BLOCK` reverse steps: each
random stream draws a block's noise in one call, since a (k, n) draw yields
the bits of k successive draws of n, and each row's trajectory hash takes a
block of iterates in one update, since SHA-256 of concatenated bytes does not
depend on how they are split. So the noise and the hashes are those of a
step-by-step loop; the finiteness check and `record_trajectory` stay per step.

The loop allocates its arrays once per repair: the denoiser forward runs in a
`tensor.Workspace` of the batch height, with the step embeddings from its
table, and the iterate, the posterior mean and the noised target each have
one buffer, as does each stream's noise. The guidance gradient runs in a
`properties.GuidanceState`, built before the loop for the rows whose ramp is
nonzero at some step: their operands, the detector's workspace and every
buffer of the gradient. A step at which any of them has a nonzero weight
gathers their iterates straight into that workspace's input; a row at weight
0 then takes ``xhat - 0 * grad``, the bits of xhat for a finite gradient.
Every update runs in place one operation at a time, in the order its
expression evaluates, so the bits are those of the expression.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass

import numpy as np

from .detector import as_mask, _check_input
from .diffusion import Denoiser, NoiseSchedule, predict_mu
from .properties import (
    LossBreakdown,
    MetricsRecord,
    GuidanceState,
    PropertyWeights,
    Tolerances,
    losses_from_metrics,
    scored_metrics,
)
from .tensor import Array, Workspace, stream

INFILL_MODES = ("level-matched", "paper-literal")
# Reverse steps whose noise is drawn, and whose iterates are hashed, per call.
BLOCK = 10
# The largest |coordinate| a final iterate may have; the stock runs reach about 6.5.
MAX_ABS_ITERATE = 1e10


def _check_ramp(eta_start: float, eta_end: float) -> None:
    if not (0.0 <= eta_start <= eta_end):
        raise ValueError(f"need 0 <= eta_start <= eta_end, got ({eta_start}, {eta_end})")


def make_guidance_schedule(T: int, eta_start: float, eta_end: float) -> Array:
    """Per-step guidance weights, index 0 at t=1: a linear ramp from eta_start
    at t=1 to eta_end at t=T (eta_end alone when T is 1)."""
    if T < 1:
        raise ValueError(f"step count must be >= 1, got {T}")
    _check_ramp(eta_start, eta_end)
    if T == 1:
        return np.array([float(eta_end)])
    return np.linspace(eta_start, eta_end, T)


@dataclass(frozen=True)
class RepairSettings(PropertyWeights):
    """The repair settings of a config file's `repair` section: the loss
    weights `lambda1..4` (a section is the `PropertyWeights` of its repairs),
    the guidance ramp from `eta_start` at t=1 to `eta_end` at t=T, the infill
    mode and the tolerances. The repair loop reads `delta4`; `delta2` (None:
    calibrated from the baseline distances) only bounds the satisfaction
    rate."""

    eta_start: float = 0.0
    eta_end: float = 0.05
    infill_mode: str = "level-matched"
    delta2: float | None = None
    delta4: float = 0.0

    def __post_init__(self):
        super().__post_init__()  # the weights' rules, then the tolerances'
        if self.delta2 is None:
            Tolerances(delta4=self.delta4)
        else:
            Tolerances(self.delta2, self.delta4)
        if self.infill_mode not in INFILL_MODES:
            raise ValueError(f"infill mode must be one of {INFILL_MODES}, got {self.infill_mode!r}")
        _check_ramp(self.eta_start, self.eta_end)

    def unguided(self):
        """These settings with a ramp of zeros: the unguided baseline."""
        return dataclasses.replace(self, eta_start=0.0, eta_end=0.0)


@dataclass(frozen=True)
class RepairConfig(RepairSettings):
    """The settings of one repair: a `repair` section plus the `seed` and
    `stream_tag` that name its random streams, and whether to record its
    trajectory."""

    seed: int = 0
    stream_tag: str = "repair"
    record_trajectory: bool = False


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

    def as_dict(self) -> dict:
        """The deterministic fields; the measured `seconds` is left out."""
        return {
            "x_fix": self.x_fix.tolist(),
            "losses": self.loss.as_dict(),
            "metrics": self.metrics.as_dict(),
            "seed": self.seed,
            "infill_mode": self.infill_mode,
            "std_mode": self.std_mode,
            "guided": self.guided,
            "trajectory_hash": self.trajectory_hash,
        }


@dataclass(frozen=True)
class RepairRow:
    """One repair of a batch: the target, its anomaly mask and its settings."""

    x_bad: Array
    omega: Array
    cfg: RepairConfig


def _noise_steps(generators, n: int, steps: int, owner: Array):
    """Yield `steps` successive (rows, n) noise draws, row r from generator
    owner[r]; each generator draws `BLOCK` steps of noise per call. Every
    draw is yielded in the same buffer, which the caller may overwrite."""
    block = np.empty((len(generators), BLOCK, n))
    # Row g * BLOCK + j of `draws` is generator g's draw j. `take` reads this
    # contiguous view without a copy of its own, which `block[:, j]` would cost.
    draws, first = block.reshape(-1, n), owner * BLOCK
    step = np.empty((owner.size, n))
    for start in range(0, steps, BLOCK):
        k = min(BLOCK, steps - start)
        for g, out in zip(generators, block):
            g.standard_normal(out=out[:k])
        for j in range(k):
            # mode="clip" writes straight into `step`; the indices are in range.
            yield draws.take(first + j, axis=0, out=step, mode="clip")


class _TrajectoryHashes:
    """One SHA-256 per row over its successive iterates, fed `BLOCK` iterates
    per update."""

    def __init__(self, rows: int, n: int):
        self.hashers = [hashlib.sha256() for _ in range(rows)]
        self.block = np.empty((rows, BLOCK, n), dtype="<f8")
        self.filled = 0

    def add(self, x: Array) -> None:
        self.block[:, self.filled] = x
        self.filled += 1
        if self.filled == BLOCK:
            self._flush()

    def _flush(self) -> None:
        for hasher, iterates in zip(self.hashers, self.block[:, : self.filled]):
            hasher.update(iterates)
        self.filled = 0

    def hexdigests(self) -> list[str]:
        self._flush()
        return [hasher.hexdigest() for hasher in self.hashers]


def repair_batch(detector, denoiser: Denoiser, schedule: NoiseSchedule, rows) -> list[RepairResult]:
    """Run the repairs of `rows` in lock step; one result per row, in order.

    The rows share the detector, denoiser, schedule and infill mode. Rows with
    the same ``(seed, stream_tag)`` share one set of random draws, so the two
    arms of an instance see identical noise. Each result's `seconds` is the
    loop time divided by the number of rows.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("a repair batch needs at least one row")
    n = detector.n
    if denoiser.n != n:
        raise ValueError(f"denoiser dimension {denoiser.n} does not match detector {n}")
    if schedule.T != denoiser.schedule.T or not np.array_equal(schedule.b, denoiser.schedule.b):
        raise ValueError("noise schedule does not match the denoiser's training schedule")
    modes = sorted({row.cfg.infill_mode for row in rows})
    if len(modes) > 1:
        raise ValueError(f"the rows of a repair batch share one infill mode, got {modes}")
    level_matched = modes[0] == "level-matched"

    x_bad = np.stack([_check_input(row.x_bad, n) for row in rows])
    omega = np.stack([as_mask(row.omega, n) for row in rows])
    omega_bar = 1.0 - omega
    eta = np.stack([make_guidance_schedule(schedule.T, row.cfg.eta_start, row.cfg.eta_end) for row in rows])

    def column(values) -> Array:
        return np.array(values, dtype=np.float64)[:, None]

    alpha_bad = detector.alpha_batch(x_bad)
    beta_bad = detector.beta_value(x_bad)
    s_om_bad = beta_bad + (alpha_bad * omega).sum(axis=1, keepdims=True)
    s_ob_bad = beta_bad + (alpha_bad * omega_bar).sum(axis=1, keepdims=True)
    delta4 = column([row.cfg.delta4 for row in rows])
    lambdas = [column([getattr(row.cfg, f"lambda{k}") for row in rows]) for k in range(1, 5)]
    guided = np.flatnonzero(eta.any(axis=1))
    eta_guided, update = eta[guided], np.empty((guided.size, n))
    regions = (omega_bar[guided], s_om_bad[guided], s_ob_bad[guided])
    state = GuidanceState(detector, guided.size, x_bad[guided], omega[guided], regions, delta4[guided],
                          [lam[guided] for lam in lambdas]) if guided.size else None

    keys = {key: k for k, key in enumerate(dict.fromkeys((row.cfg.seed, row.cfg.stream_tag) for row in rows))}
    owner = np.array([keys[(row.cfg.seed, row.cfg.stream_tag)] for row in rows])
    init = np.stack([stream(seed, f"{tag}/init").standard_normal(n) for seed, tag in keys])
    zs = _noise_steps([stream(seed, f"{tag}/z") for seed, tag in keys], n, schedule.T - 1, owner)
    es = _noise_steps([stream(seed, f"{tag}/eps") for seed, tag in keys], n, schedule.T, owner)

    hashes = _TrajectoryHashes(len(rows), n)
    steps = [[] if row.cfg.record_trajectory else None for row in rows]
    recorded = [(r, trajectory) for r, trajectory in enumerate(steps) if trajectory is not None]

    root_a = np.sqrt(schedule.a)
    root_rem = np.sqrt(1.0 - schedule.a)
    # Each in-place update below keeps the operation order of its expression,
    # so the bits match it: xhat = mu + sigma_t z, x_bad_level = sqrt(a_l)
    # x_bad + sqrt(1 - a_l) eps and x = omega_bar x_bad_level + omega xhat.
    ws = Workspace(denoiser.net, len(rows), steps=schedule.T)
    xhat, level_buf = np.empty_like(x_bad), np.empty_like(x_bad)
    finite = np.empty(x_bad.shape, dtype=bool)
    # Divergence is reported by the explicit check below, not by numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        started = time.perf_counter()
        x = init[owner]
        hashes.add(x)
        for t in range(schedule.T, 0, -1):
            predict_mu(denoiser, x, t, ws=ws, out=xhat)
            if t > 1:
                z = next(zs)
                z *= schedule.sigma[t - 1]
                xhat += z
            if eta_guided[:, t - 1].any():
                # xhat[guided] = xhat[guided] - eta_t * grad, eta_t tiled into `update` first.
                x.take(guided, axis=0, out=state.x, mode="clip")
                grad = state.grad()
                np.copyto(update, eta_guided[:, t - 1, None])
                grad *= update
                xhat.take(guided, axis=0, out=update, mode="clip")
                xhat[guided] = np.subtract(update, grad, out=update)
            eps_t = next(es)
            level = t - 1 if level_matched else t
            if level == 0:
                x_bad_level = x_bad
            else:
                x_bad_level = np.multiply(root_a[level - 1], x_bad, out=level_buf)
                eps_t *= root_rem[level - 1]
                x_bad_level += eps_t
            np.multiply(omega_bar, x_bad_level, out=x)
            xhat *= omega
            x += xhat
            finite_rows = np.isfinite(x, out=finite).all(axis=1)
            if not finite_rows.all():
                tag = rows[int(np.argmin(finite_rows))].cfg.stream_tag
                raise ValueError(f"repair {tag}: iterate became non-finite at step t={t}")
            hashes.add(x)
            for r, trajectory in recorded:
                trajectory.append((t, x_bad_level[r].copy(), x[r].copy()))
        digests = hashes.hexdigests()
        seconds = (time.perf_counter() - started) / len(rows)
        state = None  # its buffers would add to the peak memory of the scoring below

        alpha_fix = detector.alpha_batch(x)
        beta_fix = np.broadcast_to(detector.beta_value(x), (len(rows), 1))
        results = []
        for r, row in enumerate(rows):
            regions = (omega_bar[r], float(s_om_bad[r, 0]), float(s_ob_bad[r, 0]))
            scores = scored_metrics(alpha_fix[r], float(beta_fix[r, 0]), x[r], x_bad[r], omega[r], regions)
            loss = losses_from_metrics(scores, row.cfg.delta4, row.cfg)
            if not np.all(np.isfinite([*loss.as_dict().values(), *scores.as_dict().values()])):
                raise ValueError(f"repair {row.cfg.stream_tag}: the final iterate's losses or metrics are non-finite")
            results.append(RepairResult(
                x_fix=x[r].copy(),
                loss=loss,
                metrics=scores,
                trajectory_hash=digests[r],
                seconds=seconds,
                seed=row.cfg.seed,
                infill_mode=row.cfg.infill_mode,
                std_mode=schedule.std_mode,
                guided=bool(eta[r].any()),
                trajectory=tuple(steps[r]) if steps[r] is not None else None,
            ))
    # Checked after the non-finite scores, so a repair that overflows there keeps that message.
    bounded = (np.abs(x) <= MAX_ABS_ITERATE).all(axis=1)
    if not bounded.all():
        tag = rows[int(np.argmin(bounded))].cfg.stream_tag
        raise ValueError(f"repair {tag}: the final iterate has a coordinate beyond ±{MAX_ABS_ITERATE:g}")
    return results


def guided_repair(detector, denoiser: Denoiser, schedule: NoiseSchedule, x_bad, omega, cfg: RepairConfig) -> RepairResult:
    """Repair with the scheduled guidance ramp."""
    return repair_batch(detector, denoiser, schedule, [RepairRow(x_bad, omega, cfg)])[0]


def baseline_repair(detector, denoiser: Denoiser, schedule: NoiseSchedule, x_bad, omega, cfg: RepairConfig) -> RepairResult:
    """The same repair with a ramp of zeros: the unguided baseline."""
    return repair_batch(detector, denoiser, schedule, [RepairRow(x_bad, omega, cfg.unguided())])[0]
