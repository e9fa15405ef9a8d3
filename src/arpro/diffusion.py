"""Noise schedule and noise-prediction denoiser.

The forward process blends a clean vector with Gaussian noise at a cumulative
level per step; the denoiser is a step-conditioned MLP trained to predict the
injected noise on non-anomalous data, and `predict_mu` turns its prediction
into the posterior mean of a reverse step. The reverse process itself, a
masked in-fill that is ancestral sampling when the mask covers every
coordinate, is `arpro.repair`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ckpt
from .tensor import AdamW, Array, Mlp, Workspace, chunks, stream

STD_MODES = ("standard", "paper-literal")


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step variance schedule b, cumulative products a, sampling std."""

    b: Array
    a: Array
    sigma: Array
    std_mode: str
    b_start: float
    b_end: float

    def __post_init__(self):
        b, a = self.b, self.a
        if b.ndim != 1 or b.size < 1 or a.shape != b.shape or self.sigma.shape != b.shape:
            raise ValueError("schedule arrays must be 1-D and equally sized")
        if np.any(b <= 0.0) or np.any(b >= 1.0):
            raise ValueError("variance schedule entries must lie in (0, 1)")
        if np.any(np.diff(b) < 0.0):
            raise ValueError("variance schedule must be nondecreasing")
        expected = np.cumprod(1.0 - b)
        if not np.allclose(a, expected, rtol=1e-12, atol=0.0):
            raise ValueError("cumulative products do not match the variance schedule")
        if self.std_mode not in STD_MODES:
            raise ValueError(f"std mode must be one of {STD_MODES}, got {self.std_mode!r}")

    @property
    def T(self) -> int:
        return self.b.size


def make_schedule(
    T: int,
    b_start: float | None = None,
    b_end: float | None = None,
    std_mode: str = "standard",
) -> NoiseSchedule:
    """Linear variance schedule over T steps.

    Defaults rescale the common 1000-step endpoints (1e-4, 0.02) to T, capped
    at 0.999. In "standard" mode the sampling std is sqrt(b_t); the
    "paper-literal" mode uses b_t itself.
    """
    if T < 1:
        raise ValueError(f"step count T must be >= 1, got {T}")
    if b_start is None:
        b_start = min(1e-4 * (1000.0 / T), 0.999)
    if b_end is None:
        b_end = min(0.02 * (1000.0 / T), 0.999)
    if not (0.0 < b_start <= b_end < 1.0):
        raise ValueError(f"need 0 < b_start <= b_end < 1, got ({b_start}, {b_end})")
    if T > 1 and b_start == b_end:
        raise ValueError("a multi-step schedule needs b_start < b_end")
    b = np.linspace(b_start, b_end, T)
    a = np.cumprod(1.0 - b)
    sigma = np.sqrt(b) if std_mode == "standard" else b.copy()
    return NoiseSchedule(b=b, a=a, sigma=sigma, std_mode=std_mode, b_start=float(b_start), b_end=float(b_end))


def posterior_mean(x_t: Array, eps_hat: Array, b_t: float, a_t: float, out: Array | None = None) -> Array:
    """Reverse-step mean from a noise prediction:
    (x_t - b_t/sqrt(1-a_t) * eps_hat) / sqrt(1-b_t), written into `out`
    when it is given, one operation at a time in that order."""
    mean = np.multiply(b_t / np.sqrt(1.0 - a_t), eps_hat, out=out)
    mean = np.subtract(x_t, mean, out=mean)
    mean /= np.sqrt(1.0 - b_t)
    return mean


class Denoiser:
    """Step-conditioned noise predictor bound to its schedule."""

    kind = "denoiser"

    def __init__(self, net: Mlp, schedule: NoiseSchedule):
        if net.out_dim != net.in_dim:
            raise ValueError("denoiser input and output dimensions must match")
        if net.time_embed is None:
            raise ValueError("denoiser must be step-conditioned")
        self.net = net
        self.schedule = schedule

    @property
    def n(self) -> int:
        return self.net.in_dim

    def save(self, path) -> None:
        sched = {
            "T": self.schedule.T,
            "b_start": self.schedule.b_start,
            "b_end": self.schedule.b_end,
            "std_mode": self.schedule.std_mode,
        }
        ckpt.write(path, ckpt.mlp_payload(self.net, kind=self.kind, extra={"schedule": sched}))

    @classmethod
    def load(cls, path) -> "Denoiser":
        payload = ckpt.read(path, expected_kind=cls.kind)
        sched = payload["schedule"]
        schedule = make_schedule(
            int(sched["T"]), float(sched["b_start"]), float(sched["b_end"]), sched["std_mode"]
        )
        return cls(ckpt.mlp_from_payload(payload), schedule)


def predict_mu(
    denoiser: Denoiser, x_t: Array, t: int, ws: Workspace | None = None, out: Array | None = None
) -> Array:
    """Posterior mean of the reverse step at t, written into `out` when it is
    given. With a workspace `ws` of the batch's height, made with
    ``steps=denoiser.schedule.T``, the denoiser's forward pass runs in it."""
    t = int(t)
    if not (1 <= t <= denoiser.schedule.T):
        raise ValueError(f"step {t} out of range [1, {denoiser.schedule.T}]")
    x_t = np.asarray(x_t, dtype=np.float64)
    eps_hat = denoiser.net.forward_np(x_t, t, ws=ws)
    return posterior_mean(x_t, eps_hat, denoiser.schedule.b[t - 1], denoiser.schedule.a[t - 1], out=out)


@dataclass(frozen=True)
class DiffusionTrainConfig:
    hidden: tuple[int, ...] = (128, 128)
    time_embed: int = 32
    steps: int = 2000
    batch: int = 32
    lr: float = 1e-3
    weight_decay: float = 0.0


def train_denoiser(
    normal_data,
    schedule: NoiseSchedule,
    cfg: DiffusionTrainConfig | None = None,
    seed: int = 0,
) -> Denoiser:
    """Fit the noise predictor by MSE over uniformly sampled steps."""
    cfg = cfg or DiffusionTrainConfig()
    net, step = _denoiser_trainer(normal_data, schedule, cfg, seed)
    for _ in range(cfg.steps):
        step()
    net.require_finite(f"denoiser training ({cfg.steps} steps, lr={cfg.lr})")
    return Denoiser(net, schedule)


def _denoiser_trainer(normal_data, schedule: NoiseSchedule, cfg: DiffusionTrainConfig, seed: int):
    """The freshly initialised network `train_denoiser` fits, and a function
    that runs one training step on it; a step allocates no batch-sized array."""
    data = np.asarray(normal_data, dtype=np.float64)
    if data.ndim != 2 or data.size == 0:
        raise ValueError("training data must be a non-empty 2-D batch")
    if not np.all(np.isfinite(data)):
        raise ValueError("training data contains non-finite values")
    m, n = data.shape
    net = Mlp(n, list(cfg.hidden), n, time_embed=cfg.time_embed, seed=seed, stream_name="denoiser-init")
    opt = AdamW(chunks(net.flat), lr=cfg.lr, weight_decay=cfg.weight_decay)
    picker = stream(seed, "denoiser-batch")
    noiser = stream(seed, "denoiser-noise")
    steps_rng = stream(seed, "denoiser-steps")
    root_a = np.sqrt(schedule.a)
    root_one_minus_a = np.sqrt(1.0 - schedule.a)
    rows = min(cfg.batch, m)
    ws = Workspace(net, rows, steps=schedule.T)
    grad = np.empty_like(net.flat)
    grads, grad_chunks = net.views(grad), chunks(grad)
    x0, eps, blend = np.empty((rows, n)), np.empty((rows, n)), np.empty((rows, n))
    emb = np.empty((rows, cfg.time_embed))

    def step() -> None:
        # mode="clip" leaves these in-range indices alone and writes straight
        # into `out`, which the default mode would buffer; `take` into the
        # column block ws.emb would also go through a copy.
        data.take(picker.integers(0, m, size=rows), axis=0, out=x0, mode="clip")
        s = steps_rng.integers(1, schedule.T + 1, size=rows) - 1
        ws.table.take(s, axis=0, out=emb, mode="clip")
        ws.emb[...] = emb
        noiser.standard_normal(out=eps)
        # x_t = sqrt(a_t) x0 + sqrt(1 - a_t) eps, copied into the workspace
        # input. A ufunc that broadcasts a column, or writes into the column
        # block ws.x, costs a 64 KiB iterator buffer per operand, so each
        # column of factors is tiled into `blend` and the sum formed there.
        np.copyto(blend, root_a[s, None])
        np.multiply(x0, blend, out=x0)
        np.copyto(blend, root_one_minus_a[s, None])
        np.multiply(blend, eps, out=blend)
        np.add(blend, x0, out=blend)
        ws.x[...] = blend
        net.mse_grads(ws, eps, grads)
        opt.step(grad_chunks)

    return net, step


def denoising_loss(denoiser: Denoiser, x0: Array, t, eps: Array) -> float:
    """MSE between injected and predicted noise for a batch at steps t."""
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    eps = np.atleast_2d(np.asarray(eps, dtype=np.float64))
    t = np.atleast_1d(np.asarray(t))
    a = denoiser.schedule.a[t - 1]
    x_t = np.sqrt(a)[:, None] * x0 + np.sqrt(1.0 - a)[:, None] * eps
    pred = denoiser.net.forward_np(x_t, t)
    return float(np.mean((pred - eps) ** 2))
