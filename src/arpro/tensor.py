"""A small float64 MLP with a hand-written backward pass, AdamW, and named
random streams.

Everything downstream runs on this module. Parameters are float64 arrays,
views of one flat vector per network; `Mlp.backward` is the closed-form
vector-Jacobian product of the forward pass, which is all the training losses
and guidance gradients need. Randomness comes from counter-based streams
addressed by an explicit (seed, name) pair, which keeps paired experiment arms
and re-runs bit-reproducible.

`Mlp` gives each row of a batch the same bits whatever the batch height, by
two rules about BLAS. A one-row product goes to gemv, which rounds
differently from the gemm every taller batch gets, so a lone row runs as a
batch of two copies (its backward pads the gradient with a zero row). And a
product with a transposed weight view changes its rounding with the batch
height while one with a C-contiguous matrix does not, so the input-gradient
chain multiplies by contiguous copies of the transposed weights.

A third rule is about memory: a training step, and a forward pass run
many times at one batch height, write every array they make into buffers
allocated once per run. glibc hands a freed array of a batch's or a
parameter's size back to the kernel, so a fresh temporary on every step
faults its pages in again, and the faults cost as much as the arithmetic.
A `Workspace` holds, for one batch height, the input with its step
embedding, each layer's activation and activation derivative, the gradient
chain, a table of the step embeddings, and (for training) a flat parameter
gradient that matches `Mlp.flat`, the one vector the weights and biases
view. `AdamW` keeps two scratch arrays and updates the flat vectors in
cache-sized `chunks`. Training and the repair loop's denoiser forward run in
a workspace; one-off forward passes, backward passes without one, and the
guidance gradient allocate their arrays as they go.
"""

from __future__ import annotations

import hashlib
import math
from typing import Sequence

import numpy as np

Array = np.ndarray

ACTIVATIONS = ("linear", "relu", "silu")

# 32768 float64 values are 256 KiB, so the six arrays one chunk's AdamW
# update passes over (parameter, gradient, two moments, two scratch) fit a
# 2 MiB L2 cache.
CHUNK = 32768


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


def chunks(flat: Array) -> list[Array]:
    """Consecutive views of `CHUNK` elements of a 1-D array (the last may be
    shorter), the parameter lists `AdamW` gets for the flat vectors."""
    return [flat[i : i + CHUNK] for i in range(0, flat.size, CHUNK)]


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
    ``in_dim + time_embed`` rows. The weights and biases are views of `flat`,
    in `parameters()` order.
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
        self.dims = [int(d) for d in dims]
        self.flat = np.zeros(sum(a * b + b for a, b in zip(dims, dims[1:])))
        params = self.views(self.flat)
        self.weights: list[Array] = params[0::2]
        self.biases: list[Array] = params[1::2]
        g = stream(seed, stream_name)
        for w, act in zip(self.weights, acts):
            gain = 2.0 if act in ("relu", "silu") else 1.0
            np.multiply(g.standard_normal(w.shape), math.sqrt(gain / w.shape[0]), out=w)

    def views(self, flat: Array) -> list[Array]:
        """Arrays shaped like `parameters()`, in that order, viewing
        consecutive slices of `flat`, a vector the size of `self.flat`."""
        out, start = [], 0
        for fan_in, fan_out in zip(self.dims, self.dims[1:]):
            for shape in ((fan_in, fan_out), (fan_out,)):
                stop = start + math.prod(shape)
                out.append(flat[start:stop].reshape(shape))
                start = stop
        return out

    def parameters(self) -> list[Array]:
        """Weights and biases interleaved layer by layer; `backward` and
        `AdamW` use the same order."""
        return self.views(self.flat)

    def require_finite(self, what: str) -> None:
        """Raise, naming `what`, when a parameter is NaN or infinite: a diverged
        fit, whose checkpoint no load would accept."""
        if not np.isfinite(self.flat).all():
            raise ValueError(f"{what} produced non-finite parameter values")

    def layer_dims(self) -> list[dict]:
        return [
            {"in": w.shape[0], "out": w.shape[1], "act": a}
            for w, a in zip(self.weights, self.acts)
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
            emb = self._embedding(t)
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

    def _forward(self, x, t=None, cache: list | None = None, ws: Workspace | None = None) -> Array:
        """Forward pass; with `cache`, append each layer's input and activation
        derivative (None for linear layers) for `backward`.

        With a workspace `ws` the batch is the one its caller wrote into
        `ws.x` and `ws.emb` (`x` and `t` are not read), and every array goes
        into its buffers.
        """
        if ws is None:
            h, rows = self._prepare(x, t)
        else:
            h, rows = ws.input, ws.rows
            if rows == 1:
                h[1] = h[0]
        for i, (w, b, act) in enumerate(zip(self.weights, self.biases, self.acts)):
            z, d, scratch = (None, None, None) if ws is None else ws.layers[i]
            h_in = h
            h = np.matmul(h, w, out=z)
            if scratch is not None:
                # Adding the bias tiled into rows, not broadcast, spares the
                # ufunc a 64 KiB iterator buffer on every call.
                np.copyto(scratch, b)
                b = scratch
            h += b
            deriv = None
            if act == "relu":
                if cache is not None:
                    # A bool derivative (without a workspace) multiplies to the same bits as 0.0/1.0.
                    deriv = np.greater(h, 0.0, out=d)
                np.maximum(h, 0.0, out=h)
            elif act == "silu":
                sig = _sigmoid(h, out=scratch, scratch=d)
                if cache is not None:
                    # silu' = sig * (1 + h * (1 - sig)), one operation at a
                    # time in the order that expression evaluates.
                    deriv = np.subtract(1.0, sig, out=d)
                    deriv *= h
                    deriv += 1.0
                    deriv *= sig
                h *= sig
            if cache is not None:
                cache.append((h_in, deriv))
        return h[0] if rows is None else h[:rows]

    def forward_np(self, x: Array, t=None, ws: Workspace | None = None) -> Array:
        """Forward pass of a vector or a batch.

        With a workspace `ws` of the batch's height, `x` is copied into
        `ws.x`, the embedding of step `t` comes from `ws.table`, and the pass
        runs in the workspace's buffers. The result is then a view of them,
        valid until the workspace is used again.
        """
        if ws is None:
            return self._forward(x, t)
        if np.shape(x) != ws.x.shape:
            raise ValueError(f"input shape {np.shape(x)} does not match the workspace's {ws.x.shape}")
        ws.x[...] = x
        if self.time_embed is not None:
            if ws.table is None:
                raise ValueError("this workspace holds no step-embedding table; make it with `steps`")
            ws.emb[...] = self._embedding(t, ws.table)
        return self._forward(None, ws=ws)

    def backward(
        self,
        cache: list,
        g_out: Array,
        want_input: bool = False,
        out: list | None = None,
        ws: Workspace | None = None,
    ):
        """Vector-Jacobian product of a `_forward` pass that filled `cache`.

        Returns ``(param_grads, None)``: the gradients of
        ``sum(g_out * output)`` with respect to the parameters, in
        `parameters()` order, written into `out` (arrays shaped like
        `parameters()`) when it is given and returned as that same list. With
        `want_input` it returns ``(None, input_grad)`` instead, the gradient
        with respect to the input (same shape as the input), and computes no
        parameter gradient. With the workspace of the forward pass the
        gradient chain runs in its buffers.

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
                g = np.multiply(g, deriv, out=None if ws is None else ws.layers[i][2])
            np.sum(g, axis=0, out=grads[2 * i + 1])
            np.matmul(h_in.T, g, out=grads[2 * i])
            if i > 0:
                g = np.matmul(g, self.weights[i].T, out=None if ws is None else ws.layers[i - 1][2])
        return grads, None

    def mse_grads(
        self, x, target: Array, t=None, out: list | None = None, ws: Workspace | None = None
    ) -> list[Array]:
        """Parameter gradients of mean((forward(x, t) - target)^2), written
        into `out` when it is given (see `backward`).

        With a workspace `ws`, `x`, `t` and `out` are None: the batch is the
        one the caller wrote into `ws.x` and `ws.emb`, every array of the step
        goes into the workspace, and the gradients into `ws.grads`.
        """
        if ws is not None and not (x is None and t is None and out is None):
            raise ValueError("a workspace step reads its batch from the workspace and writes its gradients there")
        if ws is not None and ws.grads is None:
            raise ValueError("this workspace was made without parameter gradients (grads=False)")
        cache: list = []
        y = self._forward(x, t, cache, ws)
        if ws is None:
            g = np.subtract(y, target)
            g *= 2.0 / g.size
        else:
            g = ws.layers[-1][2]
            diff = np.subtract(y, target, out=g[: ws.rows])
            diff *= 2.0 / diff.size
            g[ws.rows :] = 0.0  # a lone row's zero pad
            out = ws.grads
        return self.backward(cache, g, out=out, ws=ws)[0]


class Workspace:
    """Buffers for running an `Mlp` on batches of `rows` rows, allocated once.

    A training loop writes each batch into `x` and, for a step-conditioned
    net, the step embeddings into `emb`, the two column blocks of `input`;
    then ``net.mse_grads(None, target, ws=ws)`` leaves the parameter
    gradients in `grad`, flat like `Mlp.flat`, and in its views `grads`.
    ``net.forward_np(x, t, ws=ws)`` fills both blocks itself. `table` holds
    the embeddings of steps 1 to `steps` (None without `steps` or for a net
    without step conditioning), rows bit-equal to `time_embedding` of each
    step. Each entry of `layers` holds one layer's activation, its activation
    derivative (None for a linear layer) and the gradient with respect to its
    output, which the forward pass borrows as scratch. A lone row runs as two,
    like every `Mlp` batch. With ``grads=False`` the parameter-sized `grad`
    (and `grads`) is not allocated: such a workspace runs forward passes
    only.
    """

    def __init__(self, net: Mlp, rows: int, *, steps: int | None = None, grads: bool = True):
        if rows < 1:
            raise ValueError(f"a workspace needs at least one row, got {rows}")
        height = max(rows, 2)
        self.rows = rows
        self.input = np.empty((height, net.dims[0]))
        self.x = self.input[:rows, : net.in_dim]
        self.emb = self.input[:rows, net.in_dim :]
        self.table = None
        if steps is not None and net.time_embed is not None:
            self.table = time_embedding(np.arange(1, steps + 1), net.time_embed)
        self.layers = [
            (np.empty((height, width)), None if act == "linear" else np.empty((height, width)),
             np.empty((height, width)))
            for width, act in zip(net.dims[1:], net.acts)
        ]
        self.grad = np.empty_like(net.flat) if grads else None
        self.grads = net.views(self.grad) if grads else None


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
