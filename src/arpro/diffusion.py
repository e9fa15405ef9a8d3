"""Noise schedule and noise-prediction denoiser.

The forward process blends a clean vector with Gaussian noise at a cumulative
level per step; the denoiser is a step-conditioned MLP trained to predict the
injected noise on non-anomalous data, and `predict_mu` turns its prediction
into the posterior mean of a reverse step. The reverse process itself, a
masked in-fill that is ancestral sampling when the mask covers every
coordinate, is `arpro.repair`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ckpt
from .tensor import TRAIN_DTYPE, Array, Mlp, Workspace, check_batch, check_training, fit, stream

STD_MODES = ("standard", "paper-literal")
# The most steps a schedule may have, 100 times the stock T; checked before
# the schedule's arrays of length T are built.
MAX_T = 10_000


@dataclass(frozen=True)
class NoiseSchedule:
    """A linear variance schedule, the four numbers a denoiser checkpoint
    stores: `T` steps from `b_start` to `b_end`, and the std mode. The
    arrays they fix are derived, not passed: per-step variances `b`, their
    cumulative products `a` of ``1 - b``, and the sampling std `sigma`,
    sqrt(b) in "standard" mode and b itself in "paper-literal" mode."""

    T: int
    b_start: float
    b_end: float
    std_mode: str
    b: Array = field(init=False, repr=False, compare=False)
    a: Array = field(init=False, repr=False, compare=False)
    sigma: Array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.T < 1:
            raise ValueError(f"step count T must be >= 1, got {self.T}")
        if self.T > MAX_T:
            raise ValueError(f"step count T must be <= {MAX_T}, got {self.T}")
        if not (0.0 < self.b_start <= self.b_end < 1.0):
            raise ValueError(f"need 0 < b_start <= b_end < 1, got ({self.b_start}, {self.b_end})")
        if self.T > 1 and self.b_start == self.b_end:
            raise ValueError("a multi-step schedule needs b_start < b_end")
        if self.std_mode not in STD_MODES:
            raise ValueError(f"std mode must be one of {STD_MODES}, got {self.std_mode!r}")
        b = np.linspace(self.b_start, self.b_end, self.T)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a", np.cumprod(1.0 - b))
        object.__setattr__(self, "sigma", np.sqrt(b) if self.std_mode == "standard" else b.copy())


def make_schedule(
    T: int,
    b_start: float | None = None,
    b_end: float | None = None,
    std_mode: str = "standard",
) -> NoiseSchedule:
    """Linear variance schedule over T steps.

    Defaults rescale the common 1000-step endpoints (1e-4, 0.02) to T, capped
    at 0.999; `NoiseSchedule` applies the range rules.
    """
    steps = max(T, 1)  # NoiseSchedule rejects T < 1; the defaults must not divide by it first
    if b_start is None:
        b_start = min(1e-4 * (1000.0 / steps), 0.999)
    if b_end is None:
        b_end = min(0.02 * (1000.0 / steps), 0.999)
    return NoiseSchedule(T, float(b_start), float(b_end), std_mode)


def posterior_mean(x_t: Array, eps_hat: Array, b_t: float, a_t: float, out: Array | None = None) -> Array:
    """Reverse-step mean from a noise prediction:
    (x_t - b_t/sqrt(1-a_t) * eps_hat) / sqrt(1-b_t), written into `out`
    when it is given, one operation at a time in that order."""
    mean = np.multiply(b_t / np.sqrt(1.0 - a_t), eps_hat, out=out)
    mean = np.subtract(x_t, mean, out=mean)
    mean /= np.sqrt(1.0 - b_t)
    return mean


class Denoiser:
    """Step-conditioned noise predictor bound to its schedule.

    The net is held in `TRAIN_DTYPE` (float32), the precision
    `train_denoiser` builds and trains it in and a checkpoint load builds it
    in; a net of another dtype is cast here. Every forward pass runs in
    float32. A checkpoint stores the float32 values as a ``"<f4"`` blob, so
    save and load round-trip bit for bit."""

    kind = "denoiser"

    def __init__(self, net: Mlp, schedule: NoiseSchedule):
        if net.out_dim != net.in_dim:
            raise ValueError("denoiser input and output dimensions must match")
        if net.time_embed is None:
            raise ValueError("denoiser must be step-conditioned")
        self.net = net.astype(TRAIN_DTYPE)
        self.schedule = schedule

    @property
    def n(self) -> int:
        return self.net.in_dim

    def save(self, path) -> None:
        extra = {"schedule": ckpt.to_json(self.schedule)}
        ckpt.write(path, ckpt.mlp_payload(self.net, kind=self.kind, extra=extra))

    @classmethod
    def load(cls, path) -> "Denoiser":
        """The denoiser in the checkpoint at `path`; every error names the file."""
        return ckpt.load(path, cls.from_payload, cls.kind)

    @classmethod
    def from_payload(cls, payload: dict) -> "Denoiser":
        schedule = ckpt.entry(payload, "schedule", NoiseSchedule)
        return cls(ckpt.mlp_from_payload(payload, TRAIN_DTYPE), schedule)


def predict_mu(
    denoiser: Denoiser, x_t: Array, t: int, ws: Workspace | None = None, out: Array | None = None
) -> Array:
    """Posterior mean of the reverse step at t, a float64 array written into
    `out` when it is given. With a workspace `ws` of the batch's height, made
    with ``steps=denoiser.schedule.T``, the denoiser's float32 forward pass
    runs in it. The noise prediction is widened to float64 before the mean
    is formed, so the mean is float64 arithmetic on float32 predictions."""
    t = int(t)
    if not (1 <= t <= denoiser.schedule.T):
        raise ValueError(f"step {t} out of range [1, {denoiser.schedule.T}]")
    x_t = np.asarray(x_t, dtype=np.float64)
    if out is None:
        out = np.empty_like(x_t)
    # Widened by a copy into `out`: a ufunc mixing float32 and float64
    # operands would allocate a cast buffer on every call.
    np.copyto(out, denoiser.net.forward_np(x_t, t, ws=ws))
    return posterior_mean(x_t, out, denoiser.schedule.b[t - 1], denoiser.schedule.a[t - 1], out=out)


@dataclass(frozen=True)
class DiffusionConfig:
    """A config file's `diffusion` section: the noise schedule and the
    denoiser's layout and training settings, which `train_denoiser` reads."""

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
        check_training(self)
        if self.time_embed < 1 or self.time_embed % 2:
            raise ValueError(f"time_embed must be positive and even, got {self.time_embed}")
        self.schedule()  # make_schedule's rules on T, b_start, b_end and std_mode

    def schedule(self) -> NoiseSchedule:
        return make_schedule(self.T, self.b_start, self.b_end, self.std_mode)


def train_denoiser(normal_data, cfg: DiffusionConfig | None = None, seed: int = 0) -> Denoiser:
    """Fit the noise predictor of `cfg`'s schedule by MSE over uniformly
    sampled steps; a step allocates no batch-sized array."""
    cfg = cfg or DiffusionConfig()
    schedule = cfg.schedule()
    data = check_batch(normal_data)
    m, n = data.shape
    net = Mlp(n, list(cfg.hidden), n, time_embed=cfg.time_embed, seed=seed, stream_name="denoiser-init",
              dtype=TRAIN_DTYPE)
    picker = stream(seed, "denoiser-batch")
    noiser = stream(seed, "denoiser-noise")
    steps_rng = stream(seed, "denoiser-steps")
    # The batch is built in the training precision from operands cast once;
    # the noise is drawn in float64, as the stream defines it, and cast.
    data = data.astype(TRAIN_DTYPE)
    root_a = np.sqrt(schedule.a).astype(TRAIN_DTYPE)
    root_one_minus_a = np.sqrt(1.0 - schedule.a).astype(TRAIN_DTYPE)
    rows = min(cfg.batch, m)
    drawn = np.empty((rows, n))
    x0, eps, blend = (np.empty((rows, n), TRAIN_DTYPE) for _ in range(3))
    emb = np.empty((rows, cfg.time_embed), TRAIN_DTYPE)

    def batch(ws: Workspace) -> Array:
        # mode="clip" leaves these in-range indices alone and writes straight
        # into `out`, which the default mode would buffer; `take` into the
        # column block ws.emb would also go through a copy.
        data.take(picker.integers(0, m, size=rows), axis=0, out=x0, mode="clip")
        s = steps_rng.integers(1, schedule.T + 1, size=rows) - 1
        ws.table.take(s, axis=0, out=emb, mode="clip")
        ws.emb[...] = emb
        noiser.standard_normal(out=drawn)
        np.copyto(eps, drawn)
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
        return eps

    fit(net, rows, batch, cfg, "denoiser", steps=schedule.T)
    return Denoiser(net, schedule)


def denoising_loss(denoiser: Denoiser, x0: Array, t, eps: Array) -> float:
    """MSE between injected and predicted noise for a batch at steps t."""
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    eps = np.atleast_2d(np.asarray(eps, dtype=np.float64))
    t = np.atleast_1d(np.asarray(t))
    outside = t[(t < 1) | (t > denoiser.schedule.T)]
    if outside.size:
        raise ValueError(f"step {outside[0]} out of range [1, {denoiser.schedule.T}]")
    a = denoiser.schedule.a[t - 1]
    x_t = np.sqrt(a)[:, None] * x0 + np.sqrt(1.0 - a)[:, None] * eps
    pred = denoiser.net.forward_np(x_t, t)
    return float(np.mean((pred - eps) ** 2))
