"""A small MLP with a hand-written backward pass, AdamW, the one training
loop, and named random streams.

Everything downstream runs on this module. An `Mlp` (silu hidden layers, a
linear output) is the reconstruction detector's autoencoder and the
diffusion denoiser alike, and `fit` trains both: AdamW on a mean squared
error, the caller supplying only the network and a function that writes
each batch. Parameters are arrays viewing one flat vector per network, of
the one dtype it is built with. Both trained networks are built and
trained in `TRAIN_DTYPE` (float32): `fit` runs the passes, gradients,
AdamW moments and updates in the dtype of the net it is given. The
denoiser keeps that net and runs every forward pass in it
(`arpro.diffusion.Denoiser`); the autoencoder detector widens its net to
float64, the precision every guidance gradient and score runs in.
`Mlp.backward` and `Mlp.input_grad` are the closed-form
vector-Jacobian products of the forward pass, which is all the training
losses and guidance gradients need. Randomness comes from counter-based
streams addressed by an explicit (seed, name) pair, which keeps paired
experiment arms and re-runs bit-reproducible.

`Mlp` gives each row of a batch the same bits whatever the batch height, by
two rules about BLAS. A one-row product goes to gemv, which rounds
differently from the gemm every taller batch gets, so a lone row runs as a
batch of two copies (its backward pads the gradient with a zero row). And a
product with a transposed weight view changes its rounding with the batch
height while one with a C-contiguous matrix does not, so the input-gradient
chain multiplies by contiguous copies of the transposed weights.

A third rule is about memory: every pass runs in a `Workspace`, the buffers
of one batch height, which a training or repair loop allocates once and
reuses at every step. glibc hands a freed array of a batch's or a
parameter's size back to the kernel, so a fresh temporary on every step
faults its pages in again, and the faults cost as much as the arithmetic.
`fit` owns the workspace and the flat parameter gradient that matches
`Mlp.flat`, the one vector the weights and biases view; `AdamW` keeps its
scratch arrays and updates that flat vector in cache-sized slices. A
one-off forward pass runs `ONE_OFF_ROWS` rows at a time through a
workspace of its own.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray

# AdamW runs on the float32 nets that `fit` trains, where 32768 values are
# 128 KiB, so the six arrays one chunk's update passes over (parameter,
# gradient, two moments, two scratch) take 768 KiB of a 2 MiB L2 cache.
CHUNK = 32768
# AdamW's moment decay rates and the offset of its denominator (Kingma & Ba
# 2015); every network trains with these.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

# The denoiser and the autoencoder are built and trained in this precision,
# and a denoiser runs in it. Unlike fp16, float32 needs no float64 master
# copy to keep small updates from underflowing (Micikevicius et al. 2018,
# Mixed Precision Training).
TRAIN_DTYPE = np.float32

# A forward pass without a workspace runs this many rows at a time, so it
# holds one workspace of this height rather than every layer's buffers for
# the whole batch; a row's bits do not depend on its batch height.
ONE_OFF_ROWS = 64


def _sigmoid(x: Array, out: Array | None = None, scratch: Array | None = None) -> Array:
    """Logistic function of `x`, written into `out` when it is given;
    `scratch`, shaped like `x`, then holds a temporary."""
    # exp of -|x| never overflows; max(e, x >= 0) is 1 where x >= 0 and e
    # elsewhere, so both branches share the one denominator 1 + e. The mask
    # goes into the float `out`, since a bool operand would make maximum
    # buffer a cast.
    num = np.greater_equal(x, 0.0, out=out)
    e = np.abs(x, out=scratch)
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.maximum(e, num, out=out)
    e += 1.0
    return np.divide(num, e, out=num)


# -- random streams ----------------------------------------------------------


def stream(seed: int, name: str) -> np.random.Generator:
    """Counter-based generator addressed by (seed, name).

    Distinct names under the same seed give statistically independent,
    individually reproducible streams.
    """
    digest = hashlib.sha256(f"{int(seed)}\x1f{name}".encode("utf-8")).digest()
    key = np.frombuffer(digest[:16], dtype="<u8")
    return np.random.Generator(np.random.Philox(key=key))


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
    """Fully connected network with optional sinusoidal step conditioning:
    silu hidden layers and a linear output layer.

    When `time_embed` is set, the embedding of the step index is concatenated
    to the input before the first layer, so the first weight matrix has
    ``in_dim + time_embed`` rows. The weights and biases are views of `flat`,
    a vector of `dtype`, in `views` order. The weights are drawn from
    the (seed, stream_name) stream; with `seed` None every parameter starts
    at zero, for a caller that writes them all, such as a checkpoint load.
    """

    def __init__(
        self,
        in_dim: int,
        hidden: Sequence[int],
        out_dim: int,
        *,
        time_embed: int | None = None,
        seed: int | None = 0,
        stream_name: str = "mlp-init",
        dtype=np.float64,
    ):
        if in_dim <= 0 or out_dim <= 0 or any(h <= 0 for h in hidden):
            raise ValueError("layer dimensions must be positive")
        if time_embed is not None and (time_embed % 2 != 0 or time_embed <= 0):
            raise ValueError(f"time embedding dimension must be even, got {time_embed}")
        dims = [in_dim + (time_embed or 0), *hidden, out_dim]
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.time_embed = int(time_embed) if time_embed else None
        self.dims = [int(d) for d in dims]
        self.flat = np.zeros(sum(a * b + b for a, b in zip(dims, dims[1:])), dtype=dtype)
        params = self.views(self.flat)
        self.weights: list[Array] = params[0::2]
        self.biases: list[Array] = params[1::2]
        if seed is None:
            return
        g = stream(seed, stream_name)
        for i, w in enumerate(self.weights):
            gain = 1.0 if i == len(self.weights) - 1 else 2.0  # linear output, silu elsewhere
            np.multiply(g.standard_normal(w.shape), math.sqrt(gain / w.shape[0]), out=w)

    def astype(self, dtype) -> "Mlp":
        """This network with its parameters in `dtype`: itself when they
        already are, else a copy with its parameters cast."""
        if self.flat.dtype == dtype:
            return self
        net = Mlp(self.in_dim, self.dims[1:-1], self.out_dim, time_embed=self.time_embed, seed=None, dtype=dtype)
        net.flat[...] = self.flat
        return net

    def views(self, flat: Array) -> list[Array]:
        """The weights and biases interleaved layer by layer, as arrays
        viewing consecutive slices of `flat`, a vector the size of
        `self.flat`; `backward` writes its gradients in this order."""
        out, start = [], 0
        for fan_in, fan_out in zip(self.dims, self.dims[1:]):
            for shape in ((fan_in, fan_out), (fan_out,)):
                stop = start + math.prod(shape)
                out.append(flat[start:stop].reshape(shape))
                start = stop
        return out

    def layer_dims(self) -> list[dict]:
        last = len(self.weights) - 1
        return [
            {"in": w.shape[0], "out": w.shape[1], "act": "linear" if i == last else "silu"}
            for i, w in enumerate(self.weights)
        ]

    def _embedding(self, t, table: Array | None = None) -> Array:
        """Step embeddings of `t`, computed, or read from `table` (the rows of
        steps 1 to ``len(table)``) when it is given."""
        if t is None:
            raise ValueError("this network is step-conditioned; a step index is required")
        if table is None:
            return time_embedding(t, self.time_embed)
        index = np.asarray(t) - 1
        if (index < 0).any() or (index >= len(table)).any():
            raise ValueError(f"step {t} out of range [1, {len(table)}]")
        return table[index]

    def forward_np(self, x: Array, t=None, ws: Workspace | None = None) -> Array:
        """Forward pass of a vector or a batch.

        With a workspace `ws` of the batch's height, `x` is copied into
        `ws.x`, the embedding of step `t` comes from `ws.table`, and the pass
        runs in the workspace's buffers. The result is then a view of them,
        valid until the workspace is used again. Without one the result is a
        new array (see `_one_off_forward`).
        """
        if ws is None:
            return self._one_off_forward(x, t)
        if np.shape(x) != ws.x.shape:
            raise ValueError(f"input shape {np.shape(x)} does not match the workspace's {ws.x.shape}")
        ws.x[...] = x
        if self.time_embed is not None:
            if ws.table is None:
                raise ValueError("this workspace holds no step-embedding table; make it with `steps`")
            ws.emb[...] = self._embedding(t, ws.table)
        return self._forward(ws)

    def _one_off_forward(self, x, t=None) -> Array:
        """Forward pass of a vector or a batch at steps `t` (one step for
        every row, or one per row), run `ONE_OFF_ROWS` rows at a time in a
        workspace of its own; returns a new array."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2):
            raise ValueError(f"expected a vector or a batch, got shape {x.shape}")
        batch = x.reshape(-1, x.shape[-1])
        if batch.shape[1] != self.in_dim:
            raise ValueError(f"input dimension mismatch: expected {self.in_dim}, got {batch.shape[1]}")
        emb = None
        if self.time_embed is not None:
            emb = self._embedding(t)
            if emb.shape[0] == 1 and len(batch) > 1:
                emb = np.broadcast_to(emb, (len(batch), self.time_embed))
            if emb.shape[0] != len(batch):
                raise ValueError(f"step batch {emb.shape[0]} does not match input batch {len(batch)}")
        out = np.empty((len(batch), self.out_dim))
        ws = None
        for start in range(0, len(batch), ONE_OFF_ROWS):
            stop = min(start + ONE_OFF_ROWS, len(batch))
            if ws is None or ws.rows != stop - start:
                ws = Workspace(self, stop - start)
            ws.x[...] = batch[start:stop]
            if emb is not None:
                ws.emb[...] = emb[start:stop]
            out[start:stop] = self._forward(ws)
        return out[0] if x.ndim == 1 else out

    def _forward(self, ws: Workspace, derivs: bool = False) -> Array:
        """Forward pass of the batch its caller wrote into `ws.x` and
        `ws.emb`, every array in the workspace's buffers; returns a view of
        the output rows. With `derivs` each layer's activation derivative is
        kept there too, for `backward` and `input_grad`."""
        h = ws.input
        if ws.rows == 1:
            h[1] = h[0]
        for (z, d, scratch), w, b in zip(ws.layers, self.weights, self.biases):
            h = np.matmul(h, w, out=z)
            # Adding the bias tiled into rows, not broadcast, spares the ufunc
            # a 64 KiB iterator buffer on every call.
            np.copyto(scratch, b)
            h += scratch
            if d is None:  # the linear output layer
                continue
            sig = _sigmoid(h, out=scratch, scratch=d)
            if derivs:
                # silu' = sig * (1 + h * (1 - sig)), one operation at a
                # time in the order that expression evaluates.
                np.subtract(1.0, sig, out=d)
                d *= h
                d += 1.0
                d *= sig
            h *= sig
        return h[: ws.rows]

    def _output_grad(self, ws: Workspace, g_out) -> Array:
        """The last layer's gradient buffer of `ws`, holding `g_out` in its
        rows and zeros in a lone row's pad, which adds nothing to any
        gradient."""
        g = ws.layers[-1][2]
        np.copyto(g[: ws.rows], g_out)
        g[ws.rows :] = 0.0
        return g

    def backward(self, ws: Workspace, g_out: Array, grads: list[Array]) -> list[Array]:
        """Parameter gradients of ``sum(g_out * output)`` for the pass last
        run in `ws` with derivatives, written into `grads` (the arrays of
        ``net.views(flat)``) and returned. The
        gradient chain runs in the workspace's buffers."""
        g = self._output_grad(ws, g_out)
        for i in range(len(self.weights) - 1, -1, -1):
            _, d, scratch = ws.layers[i]
            if d is not None:
                g = np.multiply(g, d, out=scratch)
            np.sum(g, axis=0, out=grads[2 * i + 1])
            h_in = ws.input if i == 0 else ws.layers[i - 1][0]
            np.matmul(h_in.T, g, out=grads[2 * i])
            if i > 0:
                g = np.matmul(g, self.weights[i].T, out=ws.layers[i - 1][2])
        return grads

    def input_grad(self, ws: Workspace, g_out: Array) -> Array:
        """Gradient of ``sum(g_out * output)`` with respect to the input rows
        `ws.x` of the pass last run in `ws` with derivatives; no parameter
        gradient is formed. It multiplies by ``ws.transposed``, which the
        first call makes and which goes stale if the weights change. The
        result is a view of the workspace's buffers, valid until the
        workspace is used again."""
        if ws.g_input is None:
            ws.g_input = np.empty_like(ws.input)
            ws.transposed = [np.ascontiguousarray(w.T) for w in self.weights]
        g = self._output_grad(ws, g_out)
        for i in range(len(self.weights) - 1, -1, -1):
            _, d, scratch = ws.layers[i]
            if d is not None:
                g = np.multiply(g, d, out=scratch)
            g = np.matmul(g, ws.transposed[i], out=ws.layers[i - 1][2] if i else ws.g_input)
        return g[: ws.rows, : self.in_dim]

    def mse_grads(self, ws: Workspace, target: Array, grads: list[Array]) -> list[Array]:
        """Parameter gradients of ``mean((output - target)^2)`` for the batch
        its caller wrote into `ws.x` and `ws.emb`, written into `grads` and
        returned (see `backward`); every array of the step goes into the
        workspace."""
        y = self._forward(ws, derivs=True)
        g = ws.layers[-1][2][: ws.rows]
        np.subtract(y, target, out=g)
        g *= 2.0 / g.size
        return self.backward(ws, g, grads)


class Workspace:
    """Buffers for running an `Mlp` on batches of `rows` rows, allocated once.

    Every pass of an `Mlp` runs in one. The batch function of `fit` writes
    each batch into `x` and, for a step-conditioned net, the step embeddings
    into `emb`, the two column blocks of `input`, before `fit` runs
    ``net.mse_grads(ws, target, grads)``. ``net.forward_np(x, t, ws=ws)``
    fills both blocks itself. `table` holds the embeddings of steps 1 to
    `steps` (None without `steps` or for a net without step conditioning),
    rows bit-equal to `time_embedding` of each step. Each entry of `layers`
    holds one layer's activation, its activation derivative (None for the
    linear output layer) and the gradient with respect to its output, which
    the forward pass borrows as scratch: the buffers a backward pass reads.
    `g_input` holds the input gradient and `transposed` contiguous copies of
    the transposed weights, stale once the weights change; the first
    `input_grad` makes both. A lone row runs as two, like every `Mlp` batch.
    Every buffer, the table too, has the dtype of the net's parameters.
    """

    def __init__(self, net: Mlp, rows: int, *, steps: int | None = None):
        if rows < 1:
            raise ValueError(f"a workspace needs at least one row, got {rows}")
        height = max(rows, 2)
        dtype = net.flat.dtype
        self.rows = rows
        self.input = np.empty((height, net.dims[0]), dtype)
        self.x = self.input[:rows, : net.in_dim]
        self.emb = self.input[:rows, net.in_dim :]
        self.table = None
        if steps is not None and net.time_embed is not None:
            self.table = time_embedding(np.arange(1, steps + 1), net.time_embed).astype(dtype, copy=False)
        *hidden, out = net.dims[1:]
        self.layers = [
            (np.empty((height, width), dtype), np.empty((height, width), dtype), np.empty((height, width), dtype))
            for width in hidden
        ] + [(np.empty((height, out), dtype), None, np.empty((height, out), dtype))]
        self.g_input, self.transposed = None, None


# -- optimizer -----------------------------------------------------------------


class AdamW:
    """Adam with decoupled weight decay, updating one parameter vector `flat`
    in place.

    The decay multiplies parameters by ``1 - lr*weight_decay`` independently of
    the moment-based update, so a zero gradient with nonzero decay still
    shrinks the weights. The moments are kept scaled, ``m/(1-BETA1)`` and
    ``v/(1-BETA2)``, so each is updated by one multiply and one add, and those
    factors are folded into the step size and eps together with the bias
    corrections ``c_i = 1 - BETA_i**t`` (Kingma & Ba 2015, §2): with ``r2 =
    sqrt(c2/(1-BETA2))``, ``p -= lr*(1-BETA1)*r2/c1 * m / (sqrt(v) +
    EPS*r2)``. The moments and the update have the vector's dtype, which the
    gradient must have too. A step allocates no array: it walks the
    vectors in `CHUNK`-sized slices through two scratch arrays of that size.
    """

    def __init__(self, flat: Array, lr: float = 1e-3, weight_decay: float = 0.0):
        if not (0.0 <= lr < math.inf):
            raise ValueError(f"learning rate must be finite and nonnegative, got {lr}")
        if not (0.0 <= weight_decay < math.inf):
            raise ValueError(f"weight decay must be finite and nonnegative, got {weight_decay}")
        self.flat = flat
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.m, self.v = np.zeros_like(flat), np.zeros_like(flat)
        self.t = 0
        self._a, self._b = (np.empty(min(CHUNK, flat.size), flat.dtype) for _ in range(2))

    def step(self, grad: Array) -> None:
        """One update from `grad`, the gradient of the whole vector."""
        if grad.shape != self.flat.shape or grad.dtype != self.flat.dtype:
            raise ValueError(
                f"gradient of shape {grad.shape} and dtype {grad.dtype} does not match "
                f"the parameter vector's {self.flat.shape} and {self.flat.dtype}"
            )
        self.t += 1
        c1 = 1.0 - BETA1 ** self.t
        r2 = math.sqrt((1.0 - BETA2 ** self.t) / (1.0 - BETA2))
        step = self.lr * (1.0 - BETA1) * r2 / c1
        eps_hat = EPS * r2
        for start in range(0, self.flat.size, CHUNK):
            part = slice(start, start + CHUNK)
            p, g, m, v = self.flat[part], grad[part], self.m[part], self.v[part]
            a, b = self._a[: p.size], self._b[: p.size]
            m *= BETA1
            m += g
            v *= BETA2
            np.multiply(g, g, out=a)
            v += a
            if self.weight_decay != 0.0:
                p *= 1.0 - self.lr * self.weight_decay
            np.sqrt(v, out=b)
            b += eps_hat
            np.divide(m, b, out=a)
            a *= step
            p -= a


# -- training --------------------------------------------------------------------


def check_batch(data, n: int | None = None, subject: str = "training data") -> Array:
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


def check_training(cfg) -> None:
    """Range rules of the `batch`, `steps`, `lr`, `weight_decay` and `hidden`
    widths of a model's settings (`DetectorConfig`, `DiffusionConfig`), each
    error naming its key."""
    for name, low in (("batch", 1), ("steps", 0), ("lr", 0.0), ("weight_decay", 0.0)):
        if not getattr(cfg, name) >= low:
            raise ValueError(f"{name} must be >= {low}, got {getattr(cfg, name)}")
    if not all(h >= 1 for h in cfg.hidden):
        raise ValueError(f"hidden widths must be >= 1, got {list(cfg.hidden)}")


def fit(net: Mlp, rows: int, batch: Callable[[Workspace], Array], cfg, what: str, steps: int | None = None) -> None:
    """Fit `net` to the mean squared error by `cfg.steps` AdamW steps at
    `cfg.lr` and `cfg.weight_decay`, for a model's settings such as
    `DetectorConfig` or `DiffusionConfig`.

    `net` is trained in place, in the dtype of its parameters, in a
    workspace of `rows` rows (with the embeddings of steps 1 to `steps` for
    a step-conditioned net). Each step calls ``batch(ws)``, which writes one
    batch into that workspace `ws` (`ws.x`, and `ws.emb` for a
    step-conditioned net) and returns its target rows. The parameter
    gradients go into one flat vector, from which AdamW updates `net.flat`.
    Non-finite parameters after the last step, a diverged fit that no
    checkpoint load would accept, raise an error naming `what`.
    """
    ws = Workspace(net, rows, steps=steps)
    opt = AdamW(net.flat, lr=cfg.lr, weight_decay=cfg.weight_decay)
    grad = np.empty_like(net.flat)
    grads = net.views(grad)
    for _ in range(cfg.steps):
        net.mse_grads(ws, batch(ws), grads)
        opt.step(grad)
    if not np.isfinite(net.flat).all():
        raise ValueError(
            f"{what} training ({cfg.steps} steps, lr={cfg.lr}) produced non-finite parameter values"
        )
