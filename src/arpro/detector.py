"""Linearly decomposable anomaly detectors.

A detector assigns each input a vector of per-feature scores ``alpha``; the
total anomaly score is their sum. Region scores restrict that sum to a binary
selection, feature-wise thresholds binarize ``alpha`` into an anomaly mask,
and region-score gradients are closed-form vector-Jacobian products of
``alpha``.

Two detectors ship: squared reconstruction error of an autoencoder, and
independent per-feature Gaussian negative log-likelihood. The paper's scalar
``beta`` is 0 for both: a constant cancels from each region-score change the
properties compare, and `DecomposableScore` reports it as 0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ckpt
from .tensor import TRAIN_DTYPE, Array, Mlp, Workspace, check_batch, check_training, fit, stream

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


class _DetectorBase:
    """Shared decomposable-score operations, on a score that is the sum of
    alpha; subclasses provide `alpha_with_vjp`, the one formula for alpha."""

    n: int

    def alpha(self, x: Array) -> Array:
        return self.alpha_with_vjp(_check_input(x, self.n))[0]

    def alpha_batch(self, data: Array) -> Array:
        """alpha of each row of a batch; a row gets the same bits as `alpha`
        of that row alone."""
        return self.alpha_with_vjp(check_batch(data, self.n, "batch"))[0]

    def alpha_with_vjp(self, x: Array, ws=None):
        """alpha of a validated vector or batch of rows, and its
        vector-Jacobian product ``vjp(g_alpha)``, the gradient of
        ``sum(g_alpha * alpha(x))`` with respect to x.

        Both run in `ws`, a `workspace` of x's height (made here when not
        given), and return views of its buffers, valid until it is used again;
        `x` may be `ws.x`. No ufunc broadcasts a row or a column over the
        batch, which would cost an iterator buffer the batch's size.
        """
        raise NotImplementedError

    def workspace(self, rows: int):
        """The buffers of `alpha_with_vjp` at `rows` rows, input `x` among
        them."""
        raise NotImplementedError

    def score(self, x) -> DecomposableScore:
        return DecomposableScore.build(self.alpha(x), 0.0)

    def region_score(self, x, z) -> float:
        return float((self.alpha(x) * as_mask(z, self.n)).sum())

    def grad_region_score(self, x, z) -> Array:
        """Gradient of the region score with respect to the input."""
        z = as_mask(z, self.n)
        return self.alpha_with_vjp(_check_input(x, self.n))[1](z)


class GaussDetector(_DetectorBase):
    """Independent per-feature Gaussian negative log-likelihood scores."""

    kind = "gauss"

    def __init__(self, mu, sigma, sigma_floor: float = DEFAULT_SIGMA_FLOOR):
        if sigma_floor <= 0.0:
            raise ValueError(f"sigma_floor must be positive, got {sigma_floor!r}")
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
        with np.errstate(over="ignore", divide="ignore"):
            self._inv_two_var = 1.0 / (2.0 * self.sigma**2)
            self._log_term = 0.5 * np.log(2.0 * math.pi * self.sigma**2)
        bad = ~(np.isfinite(self._inv_two_var) & np.isfinite(self._log_term))
        if bad.any():
            i = int(np.argmax(bad))
            who = "sigma_floor" if sigma[i] <= sigma_floor else f"sigma[{i}]"
            raise ValueError(f"{who} {float(self.sigma[i])!r} makes 1/(2 sigma^2) or log(2 pi sigma^2) non-finite")

    def workspace(self, rows: int) -> "_GaussWorkspace":
        return _GaussWorkspace(self, rows)

    @staticmethod
    def _alpha(diff: Array, inv_two_var: Array, log_term: Array, out: Array) -> Array:
        """alpha = diff * diff * inv_two_var + log_term with diff = x - mu,
        written into `out`, which may be `diff`."""
        alpha = np.multiply(diff, diff, out=out)
        alpha *= inv_two_var
        alpha += log_term
        return alpha

    def alpha_batch(self, data: Array) -> Array:
        # One new array, the constants broadcast: a one-off call needs none
        # of the workspace's buffers.
        diff = check_batch(data, self.n, "batch") - self.mu
        return self._alpha(diff, self._inv_two_var, self._log_term, out=diff)

    def alpha_with_vjp(self, x: Array, ws: "_GaussWorkspace | None" = None):
        if ws is None:
            ws = self.workspace(len(x) if x.ndim == 2 else 1)
        diff = np.subtract(x, ws.mu, out=ws.diff)
        alpha = self._alpha(diff, ws.inv_two_var, ws.log_term, out=ws.alpha)

        def vjp(g_alpha):  # g_alpha * inv_two_var * 2.0 * diff
            g = np.multiply(g_alpha, ws.inv_two_var, out=ws.grad)
            g *= 2.0
            g *= diff
            return g.reshape(x.shape)

        return alpha.reshape(x.shape), vjp

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
    def from_payload(cls, payload: dict) -> "GaussDetector":
        n = ckpt.entry(payload, "n", int)
        if n < 1:
            raise ValueError(f"checkpoint.n must be >= 1, got {n}")
        flat = ckpt.decode_array(ckpt.entry(payload, "data"), 2 * n)
        sigma_floor = ckpt.entry(payload, "sigma_floor", float, DEFAULT_SIGMA_FLOOR)
        try:
            return cls(flat[:n], flat[n:], sigma_floor=sigma_floor)
        except ValueError as exc:  # the floor's fault, or a sigma that `data` holds
            key = "sigma_floor" if str(exc).startswith("sigma_floor") else "data"
            raise ValueError(f"checkpoint.{key}: {exc}") from exc


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

    def workspace(self, rows: int) -> "_ReconWorkspace":
        return _ReconWorkspace(self.net, rows)

    def alpha_with_vjp(self, x: Array, ws: "_ReconWorkspace | None" = None):
        if ws is None:
            ws = self.workspace(len(x) if x.ndim == 2 else 1)
        if x is not ws.x:
            ws.x[...] = x
        r = np.subtract(self.net._forward(ws.net, derivs=True), ws.x, out=ws.r)

        def vjp(g_alpha):
            # alpha = r*r with r = f(x) - x. g_r = g_alpha * 2.0 * r, and the
            # residual's own -g_r term comes before the network's input
            # gradient; the order fixes the rounding of the sum.
            g_r = np.multiply(g_alpha, 2.0, out=ws.g_r)
            g_r *= r
            g = np.negative(g_r, out=ws.grad)
            g += self.net.input_grad(ws.net, g_r)
            return g.reshape(x.shape)

        return np.multiply(r, r, out=ws.alpha).reshape(x.shape), vjp

    def save(self, path) -> None:
        ckpt.write(path, ckpt.mlp_payload(self.net, kind=self.kind))

    @classmethod
    def from_payload(cls, payload: dict) -> "ReconDetector":
        return cls(ckpt.mlp_from_payload(payload))


class _GaussWorkspace:
    """`GaussDetector.alpha_with_vjp`'s buffers, mu and the two per-feature
    constants tiled to the batch's height."""

    def __init__(self, det: GaussDetector, rows: int):
        self.x, self.diff, self.alpha, self.grad = (np.empty((rows, det.n)) for _ in range(4))
        constants = (det.mu, det._inv_two_var, det._log_term)
        self.mu, self.inv_two_var, self.log_term = (np.tile(v, (rows, 1)) for v in constants)


class _ReconWorkspace:
    """`ReconDetector.alpha_with_vjp`'s buffers: the autoencoder's
    `Workspace`, whose input is `x`, and four batch-shaped arrays."""

    def __init__(self, net: Mlp, rows: int):
        self.net = Workspace(net, rows)
        self.x = self.net.x
        self.r, self.alpha, self.g_r, self.grad = (np.empty((rows, net.in_dim)) for _ in range(4))


def load_detector(path):
    """The detector, of either kind, in the checkpoint at `path`; the file is
    read and checked once, and every error names it."""
    return ckpt.load(path, _from_payload, None)


def _from_payload(payload: dict):
    for cls in (GaussDetector, ReconDetector):
        if payload.get("kind") == cls.kind:
            return cls.from_payload(payload)
    raise ValueError(f"checkpoint.kind: unknown detector kind {payload.get('kind')!r}")


# -- fitting -------------------------------------------------------------------


def fit_gauss(train, sigma_floor: float = DEFAULT_SIGMA_FLOOR) -> GaussDetector:
    """Per-feature sample mean and population std, std clamped to the floor."""
    data = check_batch(train)
    mu = data.mean(axis=0)
    sigma = data.std(axis=0)
    return GaussDetector(mu, sigma, sigma_floor=sigma_floor)


@dataclass(frozen=True)
class DetectorConfig:
    """A config file's `detector` section; `fit_recon` reads its training keys."""

    kind: str = "gauss"
    sigma_floor: float = DEFAULT_SIGMA_FLOOR
    hidden: tuple[int, ...] = (64, 16, 64)
    steps: int = 1500
    batch: int = 32
    lr: float = 1e-3
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gauss", "recon"):
            raise ValueError(f"detector kind must be 'gauss' or 'recon', got {self.kind!r}")
        check_training(self)
        GaussDetector(np.zeros(1), np.zeros(1), self.sigma_floor)  # its rules on the floor, which sets this sigma


def fit_recon(train, cfg: DetectorConfig | None = None, seed: int = 0) -> ReconDetector:
    """Train an autoencoder on normal data by squared reconstruction error,
    with the layout and training settings of `cfg`."""
    cfg = cfg or DetectorConfig(kind="recon")
    data = check_batch(train)
    m, n = data.shape
    net = Mlp(n, list(cfg.hidden), n, seed=seed, stream_name="recon-init")
    picker = stream(seed, "recon-batch")
    data = data.astype(TRAIN_DTYPE)  # the batches' precision, cast once

    def batch(ws: Workspace) -> Array:
        # mode="clip" leaves these in-range indices alone and writes straight
        # into `out`, which the default mode would buffer.
        data.take(picker.integers(0, m, size=ws.rows), axis=0, out=ws.x, mode="clip")
        return ws.x

    fit(net, min(cfg.batch, m), batch, cfg, "autoencoder")
    return ReconDetector(net)


# -- thresholds and binarization -------------------------------------------------


def calibrate_thresholds(alphas, q: float = 0.9) -> Array:
    """Per-feature thresholds at the q-quantile of the training alpha scores,
    one row per training input (a detector's `alpha_batch`).

    Uses linear-interpolation (type-7) quantiles.
    """
    if not (0.0 < q < 1.0):
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    return np.quantile(check_batch(alphas, subject="alphas"), q, axis=0)


def binarize(score: DecomposableScore | Array, tau) -> Array:
    """Anomaly mask: coordinate i is flagged iff alpha_i >= tau_i (inclusive)."""
    alpha = score.alpha if isinstance(score, DecomposableScore) else np.asarray(score, dtype=np.float64)
    tau = np.asarray(tau, dtype=np.float64)
    if alpha.shape != tau.shape:
        raise ValueError(f"alpha/threshold length mismatch: {alpha.shape} vs {tau.shape}")
    return (alpha >= tau).astype(np.float64)
