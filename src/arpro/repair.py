"""Property-guided masked-infill repair of detected anomalies.

Starting from pure noise, each reverse step combines the denoiser's posterior
mean with sampling noise, subtracts a scheduled multiple of the property-loss
gradient, and then overwrites the non-anomalous region with a correspondingly
noised copy of the original input. The unguided baseline is the identical
iteration with the guidance weight forced to zero, consuming the same random
streams so paired comparisons see identical noise.

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
one buffer, as does each stream's noise. Every update runs in place one operation at a time, in the
order its expression evaluates, so the bits are those of the expression. The
per-row guidance operands are gathered again only when the set of guided rows
changes, which happens at most once: when a ramp that starts at 0 reaches t=1.
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
    guidance_grad,
    losses_from_metrics,
    scored_metrics,
)
from .tensor import Array, Workspace, stream

INFILL_MODES = ("level-matched", "paper-literal")
# Reverse steps whose noise is drawn, and whose iterates are hashed, per call.
BLOCK = 10
# The largest |coordinate| a final iterate may have; the stock runs reach about 6.5.
MAX_ABS_ITERATE = 1e10


def make_guidance_schedule(T: int, eta_start: float, eta_end: float) -> Array:
    """Per-step guidance weights, index 0 at t=1: a linear ramp from eta_start
    at t=1 to eta_end at t=T (eta_end alone when T is 1)."""
    if T < 1:
        raise ValueError(f"step count must be >= 1, got {T}")
    if not (0.0 <= eta_start <= eta_end):
        raise ValueError(f"need 0 <= eta_start <= eta_end, got ({eta_start}, {eta_end})")
    if T == 1:
        return np.array([float(eta_end)])
    return np.linspace(eta_start, eta_end, T)


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
    """One repair of a batch: the target, its anomaly mask, its settings, and
    whether it follows the guidance ramp or runs as the unguided baseline."""

    x_bad: Array
    omega: Array
    cfg: RepairConfig
    guided: bool = True


def _noise_steps(generators, n: int, steps: int, owner: Array):
    """Yield `steps` successive (rows, n) noise draws, row r from generator
    owner[r]; each generator draws `BLOCK` steps of noise per call. Every
    draw is yielded in the same buffer, which the caller may overwrite."""
    block = np.empty((len(generators), BLOCK, n))
    step = np.empty((owner.size, n))
    for start in range(0, steps, BLOCK):
        k = min(BLOCK, steps - start)
        for g, out in zip(generators, block):
            g.standard_normal(out=out[:k])
        for j in range(k):
            # mode="clip" writes straight into `step`; the owners are in range.
            yield block[:, j].take(owner, axis=0, out=step, mode="clip")


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
    zeros = np.zeros(schedule.T)
    eta = np.stack([
        make_guidance_schedule(schedule.T, row.cfg.eta_start, row.cfg.eta_end) if row.guided else zeros
        for row in rows
    ])

    def column(values) -> Array:
        return np.array(values, dtype=np.float64)[:, None]

    alpha_bad = detector.alpha_batch(x_bad)
    beta_bad = detector.beta_value(x_bad)
    s_om_bad = beta_bad + (alpha_bad * omega).sum(axis=1, keepdims=True)
    s_ob_bad = beta_bad + (alpha_bad * omega_bar).sum(axis=1, keepdims=True)
    # Per-row guidance operands, gathered again only when the guided rows change.
    operands = (
        x_bad, omega, omega_bar, s_om_bad, s_ob_bad,
        column([row.cfg.tol.delta4 for row in rows]),
        *(column([getattr(row.cfg.weights, f"lambda{k}") for row in rows]) for k in range(1, 5)),
    )

    def guide(x, x_bad, omega, omega_bar, s_om_bad, s_ob_bad, delta4, *lambdas):
        return guidance_grad(detector, x, x_bad, omega, (omega_bar, s_om_bad, s_ob_bad), delta4, lambdas)

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
    guided, gathered = np.empty(0, dtype=np.intp), ()
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
            eta_t = eta[:, t - 1]
            sel = np.flatnonzero(eta_t)
            if not np.array_equal(sel, guided):
                guided, gathered = sel, tuple(a[sel] for a in operands)
            if sel.size:
                grad = guide(x[sel], *gathered)
                grad *= eta_t[sel, None]
                xhat[sel] = np.subtract(xhat[sel], grad, out=grad)
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
            finite = np.isfinite(x).all(axis=1)
            if not finite.all():
                tag = rows[int(np.argmin(finite))].cfg.stream_tag
                raise ValueError(f"repair {tag}: iterate became non-finite at step t={t}")
            hashes.add(x)
            for r, trajectory in recorded:
                trajectory.append((t, x_bad_level[r].copy(), x[r].copy()))
        digests = hashes.hexdigests()
        seconds = (time.perf_counter() - started) / len(rows)

        alpha_fix = detector.alpha_batch(x)
        beta_fix = np.broadcast_to(detector.beta_value(x), (len(rows), 1))
        results = []
        for r, row in enumerate(rows):
            regions = (omega_bar[r], float(s_om_bad[r, 0]), float(s_ob_bad[r, 0]))
            scores = scored_metrics(alpha_fix[r], float(beta_fix[r, 0]), x[r], x_bad[r], omega[r], regions)
            loss = losses_from_metrics(scores, row.cfg.tol, row.cfg.weights)
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
                guided=bool(np.any(eta[r] != 0.0)),
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
    return repair_batch(detector, denoiser, schedule, [RepairRow(x_bad, omega, cfg, guided=True)])[0]


def baseline_repair(detector, denoiser: Denoiser, schedule: NoiseSchedule, x_bad, omega, cfg: RepairConfig) -> RepairResult:
    """Same iteration with guidance forced to zero; masked infill retained."""
    return repair_batch(detector, denoiser, schedule, [RepairRow(x_bad, omega, cfg, guided=False)])[0]
