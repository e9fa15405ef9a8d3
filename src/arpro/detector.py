"""Linearly decomposable anomaly detectors.

A detector assigns each input a vector of per-feature scores ``alpha`` and a
scalar regularizer ``beta``; the total anomaly score is their sum. Region
scores restrict the sum of ``alpha`` to a binary selection, feature-wise
thresholds binarize ``alpha`` into an anomaly mask, and region-score gradients
are closed-form vector-Jacobian products of ``alpha``.

Two detectors ship: squared reconstruction error of an autoencoder, and
independent per-feature Gaussian negative log-likelihood. Both use a constant
``beta`` of zero; the decomposition API still carries ``beta`` so region
arithmetic holds for the general form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ckpt
from .tensor import AdamW, Array, Mlp, Workspace, chunks, stream

DECOMP_RTOL = 1e-9
DEFAULT_SIGMA_FLOOR = 1e-3


@dataclass(frozen=True)
class DecomposableScore:
    """Per-feature scores, regularizer, and their total."""

    alpha: Array
    beta: float
    total: float

    def __post_init__(self):
        gap = abs(self.total - (float(self.alpha.sum()) + self.beta))
        if gap > DECOMP_RTOL * (1.0 + abs(self.total)):
            raise ValueError(f"score does not decompose: residual {gap}")

    @classmethod
    def build(cls, alpha: Array, beta: float) -> "DecomposableScore":
        alpha = np.asarray(alpha, dtype=np.float64)
        return cls(alpha=alpha, beta=float(beta), total=float(alpha.sum() + beta))


def as_mask(z, n: int) -> Array:
    """Validate a {0,1} vector of length n and return it as float64."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (n,):
        raise ValueError(f"mask shape {z.shape} does not match dimension {n}")
    if not np.all((z == 0.0) | (z == 1.0)):
        raise ValueError("mask must be binary (entries in {0, 1})")
    return z


def _check_input(x, n: int) -> Array:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise ValueError(f"input dimension mismatch: expected ({n},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("input contains non-finite values")
    return x


def _check_batch(data, n: int | None = None, subject: str = "training data") -> Array:
    """`data` as a finite, non-empty 2-D float64 batch (of `n` columns when
    given); errors name it as `subject`."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 0 or arr.size == 0:
        raise ValueError(f"{subject} is empty")
    if arr.ndim != 2:
        raise ValueError(f"{subject} must be a 2-D batch, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{subject} contains non-finite values")
    if n is not None and arr.shape[1] != n:
        raise ValueError(f"{subject} has dimension {arr.shape[1]}, expected {n}")
    return arr


class _DetectorBase:
    """Shared decomposable-score operations; subclasses provide
    `alpha_with_vjp`, the one formula for alpha."""

    n: int

    def alpha(self, x: Array) -> Array:
        return self.alpha_with_vjp(_check_input(x, self.n))[0]

    def alpha_batch(self, data: Array) -> Array:
        """alpha of each row of a batch; a row gets the same bits as `alpha`
        of that row alone."""
        return self.alpha_with_vjp(_check_batch(data, self.n, "batch"))[0]

    def alpha_with_vjp(self, x: Array):
        """alpha of a validated vector or batch of rows, and its
        vector-Jacobian product ``vjp(g_alpha, acc=None)``.

        `vjp` returns the gradient of ``sum(g_alpha * alpha(x))`` with respect
        to x, added onto `acc` when one is given.
        """
        raise NotImplementedError

    def beta_value(self, x: Array) -> float:
        """beta of a vector; for a batch of rows, a scalar shared by every row
        or a column with one value per row."""
        return 0.0

    def score(self, x) -> DecomposableScore:
        x = _check_input(x, self.n)
        return DecomposableScore.build(self.alpha(x), self.beta_value(x))

    def region_score(self, x, z) -> float:
        x = _check_input(x, self.n)
        z = as_mask(z, self.n)
        return float(self.beta_value(x) + (self.alpha(x) * z).sum())

    def grad_region_score(self, x, z) -> Array:
        """Gradient of the region score with respect to the input."""
        z = as_mask(z, self.n)
        return self.alpha_with_vjp(_check_input(x, self.n))[1](z)


class GaussDetector(_DetectorBase):
    """Independent per-feature Gaussian negative log-likelihood scores."""

    kind = "gauss"

    def __init__(self, mu, sigma, sigma_floor: float = DEFAULT_SIGMA_FLOOR):
        if sigma_floor <= 0.0:
            raise ValueError("sigma floor must be positive")
        mu = np.asarray(mu, dtype=np.float64)
        sigma = np.asarray(sigma, dtype=np.float64)
        if mu.ndim != 1 or mu.shape != sigma.shape:
            raise ValueError(f"mu/sigma shapes do not agree: {mu.shape} vs {sigma.shape}")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
            raise ValueError("mu/sigma contain non-finite values")
        self.mu = mu
        self.sigma = np.maximum(sigma, sigma_floor)
        self.sigma_floor = float(sigma_floor)
        self.n = mu.shape[0]
        self._inv_two_var = 1.0 / (2.0 * self.sigma**2)
        self._log_term = 0.5 * np.log(2.0 * math.pi * self.sigma**2)

    def alpha_with_vjp(self, x: Array):
        diff = x - self.mu
        alpha = diff * diff * self._inv_two_var + self._log_term

        def vjp(g_alpha, acc=None):
            g = g_alpha * self._inv_two_var * 2.0 * diff
            return g if acc is None else acc + g

        return alpha, vjp

    def save(self, path) -> None:
        ckpt.write(
            path,
            {
                "schema": ckpt.SCHEMA,
                "kind": self.kind,
                "n": self.n,
                "sigma_floor": self.sigma_floor,
                "data": ckpt.encode_arrays([self.mu, self.sigma]),
            },
        )

    @classmethod
    def load(cls, path) -> "GaussDetector":
        payload = ckpt.read(path, expected_kind=cls.kind)
        n = int(payload["n"])
        flat = ckpt.decode_array(payload["data"], 2 * n)
        return cls(flat[:n], flat[n:], sigma_floor=float(payload.get("sigma_floor", DEFAULT_SIGMA_FLOOR)))


class ReconDetector(_DetectorBase):
    """Squared per-feature reconstruction error of an autoencoder."""

    kind = "recon"

    def __init__(self, net: Mlp):
        if net.out_dim != net.in_dim:
            raise ValueError(
                f"autoencoder output dimension {net.out_dim} must equal input {net.in_dim}"
            )
        if net.time_embed is not None:
            raise ValueError("autoencoder must not be step-conditioned")
        self.net = net
        self.n = net.in_dim

    def alpha_with_vjp(self, x: Array):
        ws = Workspace(self.net, len(x) if x.ndim == 2 else 1)
        ws.x[...] = x
        r = self.net._forward(ws, derivs=True).reshape(x.shape) - x

        def vjp(g_alpha, acc=None):
            # alpha = r*r with r = f(x) - x. The residual's own -g_r term is
            # added before the network's input gradient; the order fixes the
            # rounding of the sum.
            g_r = g_alpha * 2.0 * r
            g = -g_r if acc is None else acc - g_r
            return g + self.net.input_grad(ws, g_r).reshape(x.shape)

        return r * r, vjp

    def save(self, path) -> None:
        ckpt.write(path, ckpt.mlp_payload(self.net, kind=self.kind))

    @classmethod
    def load(cls, path) -> "ReconDetector":
        payload = ckpt.read(path, expected_kind=cls.kind)
        return cls(ckpt.mlp_from_payload(payload))


def load_detector(path):
    payload = ckpt.read(path)
    kind = payload.get("kind")
    if kind == GaussDetector.kind:
        return GaussDetector.load(path)
    if kind == ReconDetector.kind:
        return ReconDetector.load(path)
    raise ValueError(f"unknown detector kind {kind!r}")


# -- fitting -------------------------------------------------------------------


def fit_gauss(train, sigma_floor: float = DEFAULT_SIGMA_FLOOR) -> GaussDetector:
    """Per-feature sample mean and population std, std clamped to the floor."""
    data = _check_batch(train)
    mu = data.mean(axis=0)
    sigma = data.std(axis=0)
    return GaussDetector(mu, sigma, sigma_floor=sigma_floor)


@dataclass(frozen=True)
class ReconTrainConfig:
    hidden: tuple[int, ...] = (64, 16, 64)
    steps: int = 1500
    batch: int = 32
    lr: float = 1e-3
    weight_decay: float = 0.0


def fit_recon(train, cfg: ReconTrainConfig | None = None, seed: int = 0) -> ReconDetector:
    """Train an autoencoder on normal data by squared reconstruction error."""
    cfg = cfg or ReconTrainConfig()
    data = _check_batch(train)
    n = data.shape[1]
    net = Mlp(n, list(cfg.hidden), n, seed=seed, stream_name="recon-init")
    opt = AdamW(chunks(net.flat), lr=cfg.lr, weight_decay=cfg.weight_decay)
    picker = stream(seed, "recon-batch")
    m = data.shape[0]
    ws = Workspace(net, min(cfg.batch, m))
    grad = np.empty_like(net.flat)
    grads, grad_chunks = net.views(grad), chunks(grad)
    for _ in range(cfg.steps):
        # mode="clip" leaves these in-range indices alone and writes straight
        # into `out`, which the default mode would buffer.
        data.take(picker.integers(0, m, size=ws.rows), axis=0, out=ws.x, mode="clip")
        net.mse_grads(ws, ws.x, grads)
        opt.step(grad_chunks)
    net.require_finite(f"autoencoder training ({cfg.steps} steps, lr={cfg.lr})")
    return ReconDetector(net)


# -- thresholds and binarization -------------------------------------------------


def calibrate_thresholds(alphas, q: float = 0.9) -> Array:
    """Per-feature thresholds at the q-quantile of the training alpha scores,
    one row per training input (a detector's `alpha_batch`).

    Uses linear-interpolation (type-7) quantiles.
    """
    if not (0.0 < q < 1.0):
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    return np.quantile(_check_batch(alphas, subject="alphas"), q, axis=0)


def binarize(score: DecomposableScore | Array, tau) -> Array:
    """Anomaly mask: coordinate i is flagged iff alpha_i >= tau_i (inclusive)."""
    alpha = score.alpha if isinstance(score, DecomposableScore) else np.asarray(score, dtype=np.float64)
    tau = np.asarray(tau, dtype=np.float64)
    if alpha.shape != tau.shape:
        raise ValueError(f"alpha/threshold length mismatch: {alpha.shape} vs {tau.shape}")
    return (alpha >= tau).astype(np.float64)
