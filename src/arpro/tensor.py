"""A small float64 MLP with a hand-written backward pass, AdamW, and named
random streams.

Everything downstream runs on this module. Parameters are plain numpy float64
arrays; `Mlp.backward` is the closed-form vector-Jacobian product of the
forward pass, which is all the training losses and guidance gradients need.
Randomness comes from counter-based streams addressed by an explicit
(seed, name) pair, which keeps paired experiment arms and re-runs
bit-reproducible.

`Mlp` gives each row of a batch the same bits whatever the batch height, by
two rules about BLAS. A one-row product goes to gemv, which rounds
differently from the gemm every taller batch gets, so a lone row runs as a
batch of two copies (its backward pads the gradient with a zero row). And a
product with a transposed weight view changes its rounding with the batch
height while one with a C-contiguous matrix does not, so the input-gradient
chain multiplies by contiguous copies of the transposed weights.

A third rule is about memory: a training step writes its parameter-sized
arrays into buffers allocated once. glibc hands a freed array of that size
back to the kernel, so a fresh temporary on every step faults its pages in
again, and the faults cost as much as the update's arithmetic. `AdamW` keeps
two scratch arrays, and `Mlp.backward` writes the parameter gradients into a
caller's list (`out`) that the training loops allocate before their first
step.
"""

from __future__ import annotations

import hashlib
import math
from typing import Sequence

import numpy as np

Array = np.ndarray

ACTIVATIONS = ("linear", "relu", "silu")


def _sigmoid(x: Array) -> Array:
    # exp of -|x| never overflows; both branches share the one denominator.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


# -- random streams ----------------------------------------------------------


def stream(seed: int, name: str) -> np.random.Generator:
    """Counter-based generator addressed by (seed, name).

    Distinct names under the same seed give statistically independent,
    individually reproducible streams.
    """
    digest = hashlib.sha256(f"{int(seed)}\x1f{name}".encode("utf-8")).digest()
    key = np.frombuffer(digest[:16], dtype="<u8")
    return np.random.Generator(np.random.Philox(key=key))


def normal(seed: int, name: str, shape=()) -> Array:
    """One-shot standard-normal draw from the (seed, name) stream."""
    return stream(seed, name).standard_normal(shape)


# -- sinusoidal step embedding ------------------------------------------------


def time_embedding(t, dim: int) -> Array:
    """Sinusoidal embedding of step indices; `dim` must be even.

    Accepts a scalar or a batch of step indices and returns ``(len(t), dim)``.
    """
    if dim % 2 != 0 or dim <= 0:
        raise ValueError(f"embedding dimension must be positive and even, got {dim}")
    tv = np.atleast_1d(np.asarray(t, dtype=np.float64))
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / max(half - 1, 1))
    angles = tv[:, None] * freqs[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)


# -- feed-forward network ------------------------------------------------------


class Mlp:
    """Fully connected network with optional sinusoidal step conditioning.

    When `time_embed` is set, the embedding of the step index is concatenated
    to the input before the first layer, so the first weight matrix has
    ``in_dim + time_embed`` rows.
    """

    def __init__(
        self,
        in_dim: int,
        hidden: Sequence[int],
        out_dim: int,
        *,
        acts: Sequence[str] | None = None,
        time_embed: int | None = None,
        seed: int = 0,
        stream_name: str = "mlp-init",
    ):
        if in_dim <= 0 or out_dim <= 0 or any(h <= 0 for h in hidden):
            raise ValueError("layer dimensions must be positive")
        if time_embed is not None and (time_embed % 2 != 0 or time_embed <= 0):
            raise ValueError(f"time embedding dimension must be even, got {time_embed}")
        dims = [in_dim + (time_embed or 0), *hidden, out_dim]
        n_layers = len(dims) - 1
        if acts is None:
            acts = ["silu"] * (n_layers - 1) + ["linear"]
        acts = list(acts)
        if len(acts) != n_layers:
            raise ValueError(f"expected {n_layers} activations, got {len(acts)}")
        for a in acts:
            if a not in ACTIVATIONS:
                raise ValueError(f"unknown activation {a!r}")

        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.time_embed = int(time_embed) if time_embed else None
        self.acts = acts
        g = stream(seed, stream_name)
        self.weights: list[Array] = []
        self.biases: list[Array] = []
        for i in range(n_layers):
            fan_in = dims[i]
            gain = 2.0 if acts[i] in ("relu", "silu") else 1.0
            self.weights.append(g.standard_normal((dims[i], dims[i + 1])) * math.sqrt(gain / fan_in))
            self.biases.append(np.zeros(dims[i + 1]))

    def parameters(self) -> list[Array]:
        """Weights and biases interleaved layer by layer; `backward` and
        `AdamW` use the same order."""
        params = []
        for w, b in zip(self.weights, self.biases):
            params.append(w)
            params.append(b)
        return params

    def require_finite(self, what: str) -> None:
        """Raise, naming `what`, when a parameter is NaN or infinite: a diverged
        fit, whose checkpoint no load would accept."""
        if not all(np.isfinite(p).all() for p in self.parameters()):
            raise ValueError(f"{what} produced non-finite parameter values")

    def layer_dims(self) -> list[dict]:
        return [
            {"in": w.shape[0], "out": w.shape[1], "act": a}
            for w, a in zip(self.weights, self.acts)
        ]

    def _prepare(self, x, t):
        """Input as a 2-D batch with the step embedding appended, a lone row
        passed in twice; and the caller's row count (None for a vector)."""
        h = np.asarray(x, dtype=np.float64)
        rows = h.shape[0] if h.ndim == 2 else None
        if h.ndim == 1:
            h = h.reshape(1, h.shape[0])
        elif h.ndim != 2:
            raise ValueError(f"expected a vector or a batch, got shape {h.shape}")
        if h.shape[1] != self.in_dim:
            raise ValueError(
                f"input dimension mismatch: expected {self.in_dim}, got {h.shape[1]}"
            )
        if self.time_embed is not None:
            if t is None:
                raise ValueError("this network is step-conditioned; a step index is required")
            emb = time_embedding(t, self.time_embed)
            if emb.shape[0] == 1 and h.shape[0] > 1:
                emb = np.broadcast_to(emb, (h.shape[0], self.time_embed)).copy()
            if emb.shape[0] != h.shape[0]:
                raise ValueError(
                    f"step batch {emb.shape[0]} does not match input batch {h.shape[0]}"
                )
            h = np.concatenate([h, emb], axis=1)
        if h.shape[0] == 1:
            h = np.repeat(h, 2, axis=0)
        return h, rows

    def _forward(self, x, t=None, cache: list | None = None) -> Array:
        """Forward pass; with `cache`, append each layer's input and activation
        derivative (None for linear layers) for `backward`."""
        h, rows = self._prepare(x, t)
        for w, b, act in zip(self.weights, self.biases, self.acts):
            h_in = h
            h = h @ w + b
            deriv = None
            if act == "relu":
                if cache is not None:
                    deriv = (h > 0.0).astype(np.float64)
                h = np.maximum(h, 0.0)
            elif act == "silu":
                sig = _sigmoid(h)
                if cache is not None:
                    deriv = sig * (1.0 + h * (1.0 - sig))
                h = h * sig
            if cache is not None:
                cache.append((h_in, deriv))
        return h[0] if rows is None else h[:rows]

    def forward_np(self, x: Array, t=None) -> Array:
        """Forward pass of a vector or a batch."""
        return self._forward(x, t)

    def backward(self, cache: list, g_out: Array, want_input: bool = False, out: list | None = None):
        """Vector-Jacobian product of a `_forward` pass that filled `cache`.

        Returns ``(param_grads, None)``: the gradients of
        ``sum(g_out * output)`` with respect to the parameters, in
        `parameters()` order, written into `out` (arrays shaped like
        `parameters()`) when it is given and returned as that same list. With
        `want_input` it returns ``(None, input_grad)`` instead, the gradient
        with respect to the input (same shape as the input), and computes no
        parameter gradient.

        A lone row's `g_out` gets a zero row to match its doubled forward
        pass; the zero row adds nothing to the parameter gradients.
        """
        g = np.asarray(g_out, dtype=np.float64)
        rows = g.shape[0] if g.ndim == 2 else None
        g = g.reshape(-1, g.shape[-1])
        if g.shape[0] == 1:
            g = np.concatenate([g, np.zeros_like(g)])
        if want_input:
            for (_, deriv), w in zip(reversed(cache), reversed(self.weights)):
                if deriv is not None:
                    g = g * deriv
                g = g @ np.ascontiguousarray(w.T)
            g_in = g[:, : self.in_dim]
            return None, g_in[0] if rows is None else g_in[:rows]
        grads = out if out is not None else [np.empty_like(p) for p in self.parameters()]
        for i in range(len(self.weights) - 1, -1, -1):
            h_in, deriv = cache[i]
            if deriv is not None:
                g = g * deriv
            np.sum(g, axis=0, out=grads[2 * i + 1])
            np.matmul(h_in.T, g, out=grads[2 * i])
            if i > 0:
                g = g @ self.weights[i].T
        return grads, None

    def mse_grads(self, x: Array, target: Array, t=None, out: list | None = None) -> list[Array]:
        """Parameter gradients of mean((forward(x, t) - target)^2), written
        into `out` when it is given (see `backward`)."""
        cache: list = []
        diff = self._forward(x, t, cache) - target
        return self.backward(cache, (2.0 / diff.size) * diff, out=out)[0]


# -- optimizer -----------------------------------------------------------------


class AdamW:
    """Adam with decoupled weight decay, updating parameter arrays in place.

    The decay multiplies parameters by ``1 - lr*weight_decay`` independently of
    the moment-based update, so a zero gradient with nonzero decay still
    shrinks the weights. A step allocates no array: it works in two scratch
    arrays the size of the largest parameter.
    """

    def __init__(
        self,
        params: Sequence[Array],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        if not (0.0 <= lr < math.inf):
            raise ValueError(f"learning rate must be finite and nonnegative, got {lr}")
        if not (0.0 <= beta1 < 1.0) or not (0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must lie in [0, 1), got {beta1}, {beta2}")
        if eps <= 0.0:
            raise ValueError(f"eps must be positive, got {eps}")
        if not (0.0 <= weight_decay < math.inf):
            raise ValueError(f"weight decay must be finite and nonnegative, got {weight_decay}")
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self.t = 0
        size = max((p.size for p in self.params), default=0)
        a, b = np.empty(size), np.empty(size)
        self._scratch = [(a[: p.size].reshape(p.shape), b[: p.size].reshape(p.shape)) for p in self.params]

    def step(self, grads: Sequence[Array]) -> None:
        """One update from `grads`, given in the order of the parameters."""
        if len(grads) != len(self.params):
            raise ValueError(f"expected {len(self.params)} gradients, got {len(grads)}")
        for i, (p, g) in enumerate(zip(self.params, grads)):
            if np.shape(g) != p.shape:
                raise ValueError(f"gradient {i} has shape {np.shape(g)}, its parameter {p.shape}")
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        # p -= lr * (m/c1) / (sqrt(v/c2) + eps), one operation at a time in
        # the order that expression evaluates, so the bits match it.
        for p, g, m, v, (a, b) in zip(self.params, grads, self.m, self.v, self._scratch):
            m *= self.beta1
            np.multiply(1.0 - self.beta1, g, out=a)
            m += a
            v *= self.beta2
            np.multiply(1.0 - self.beta2, g, out=a)
            a *= g
            v += a
            if self.weight_decay != 0.0:
                p *= 1.0 - self.lr * self.weight_decay
            np.divide(m, c1, out=a)
            a *= self.lr
            np.divide(v, c2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            p -= a
