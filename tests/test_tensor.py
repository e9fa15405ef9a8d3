import math
import tracemalloc

import numpy as np
import pytest

from arpro import ckpt
from arpro.detector import DetectorConfig, fit_recon, load_detector
from arpro.diffusion import Denoiser, DiffusionConfig, make_schedule, predict_mu, train_denoiser
from arpro.tensor import (
    CHUNK,
    ONE_OFF_ROWS,
    TRAIN_DTYPE,
    AdamW,
    Mlp,
    Workspace,
    fit,
    stream,
    time_embedding,
)

from conftest import central_diff, max_rel_err


def _forward_in(net, x, t=None):
    """A workspace of the batch `x`'s height after a forward pass of `x` at
    steps `t` that keeps the derivatives, and the pass's output rows."""
    ws = Workspace(net, len(x))
    ws.x[...] = x
    if net.time_embed:
        ws.emb[...] = time_embedding(t, net.time_embed)
    return ws, net._forward(ws, derivs=True)


def _grads(net):
    """Arrays shaped like the net's parameters, viewing one flat vector."""
    return net.views(np.full_like(net.flat, np.nan))


class TestMlp:
    def test_identity_layer(self):
        net = Mlp(2, [], 2, seed=0)
        net.weights[0][...] = np.eye(2)
        net.biases[0][...] = 0.0
        assert np.array_equal(net.forward_np(np.array([1.0, 2.0])), [1.0, 2.0])

    def test_zero_weights_constant_output(self):
        net = Mlp(3, [4], 1, seed=0)
        for w in net.weights:
            w[...] = 0.0
        net.biases[-1][...] = 5.0
        assert np.allclose(net.forward_np(np.array([9.0, -2.0, 3.0])), [5.0])

    def test_deterministic_construction_and_forward(self):
        a = Mlp(4, [8], 4, seed=3)
        b = Mlp(4, [8], 4, seed=3)
        x = stream(1, "x").standard_normal(4)
        assert np.array_equal(a.forward_np(x), b.forward_np(x))

    def test_input_dimension_checked(self):
        net = Mlp(4, [8], 4, seed=0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            net.forward_np(np.zeros(5))

    def test_time_embedding_required_when_configured(self):
        net = Mlp(4, [8], 4, time_embed=8, seed=0)
        with pytest.raises(ValueError, match="step index"):
            net.forward_np(np.zeros(4))
        out = net.forward_np(np.zeros(4), t=3)
        assert out.shape == (4,)
        with pytest.raises(ValueError, match="step batch 2 does not match input batch 1"):
            net.forward_np(np.zeros((1, 4)), t=[3, 4])

    def test_time_embedding_dim_must_be_even(self):
        with pytest.raises(ValueError, match="even"):
            Mlp(4, [8], 4, time_embed=7, seed=0)
        with pytest.raises(ValueError, match="even"):
            time_embedding(1, 5)

    def test_batch_gradient_matches_finite_differences(self):
        net = Mlp(8, [6], 8, seed=5)
        g = stream(5, "mlp-fd")
        x0 = g.standard_normal(8)
        target = g.standard_normal(8)

        def f(v):
            return float(((net.forward_np(v) - target) ** 2).sum())

        ws, out = _forward_in(net, x0[None])
        g_in = net.input_grad(ws, 2.0 * (out - target))
        assert g_in.shape == (1, 8)
        assert max_rel_err(g_in[0], central_diff(f, x0)) <= 1e-6


# Two silu hidden layers, one, and none (a lone linear layer), with and
# without the step embedding, for a batch of three rows and for a lone row
# (which `Mlp` runs padded to two).
LAYOUTS = {"silu2": [4, 3], "silu1": [4], "linear": []}
BACKWARD_CASES = [
    pytest.param(hidden, te, height, id=f"{name}-{'time' if te else 'plain'}{'-lone' if height == 1 else ''}")
    for name, hidden in LAYOUTS.items()
    for te in (None, 4)
    for height in (3, 1)
]


def _probe(hidden, time_embed, height, seed):
    """A small net, a batch with its steps, and a random output weighting."""
    net = Mlp(5, hidden, 5, time_embed=time_embed, seed=seed)
    g = stream(seed, f"backward-{len(hidden)}-{time_embed}")
    for b in net.biases:
        b[...] = 0.1 * g.standard_normal(b.shape)
    x = g.standard_normal((height, 5))
    t = g.integers(1, 20, size=height) if time_embed else None
    c = g.standard_normal((height, 5))
    return net, x, t, c


def _param_fd(net, loss):
    """Central differences of loss() with respect to each parameter array."""
    out = []
    for p in net.views(net.flat):
        saved = p.copy()

        def f(v):
            p[...] = v.reshape(p.shape)
            return loss()

        out.append(central_diff(f, saved.ravel()).reshape(p.shape))
        p[...] = saved
    return out


class TestMlpBackward:
    # 10 random points per case, max relative error <= 1e-6 against the
    # central-difference oracle with step 1e-5, as for the other gradients.

    @pytest.mark.parametrize("hidden,time_embed,height", BACKWARD_CASES)
    def test_input_gradient_matches_finite_differences(self, hidden, time_embed, height):
        worst = 0.0
        for seed in range(10):
            net, x, t, c = _probe(hidden, time_embed, height, seed)
            ws, _ = _forward_in(net, x, t)
            g_in = net.input_grad(ws, c)
            assert g_in.shape == x.shape

            def f(v):
                return float((c * net.forward_np(v.reshape(x.shape), t)).sum())

            worst = max(worst, max_rel_err(g_in, central_diff(f, x.ravel()).reshape(x.shape)))
        assert worst <= 1e-6

    @pytest.mark.parametrize("hidden,time_embed,height", BACKWARD_CASES)
    def test_parameter_gradients_match_finite_differences(self, hidden, time_embed, height):
        worst = 0.0
        for seed in range(10):
            net, x, t, c = _probe(hidden, time_embed, height, seed)
            ws, _ = _forward_in(net, x, t)
            buffers = _grads(net)
            grads = net.backward(ws, c, buffers)
            assert grads is buffers
            fds = _param_fd(net, lambda: float((c * net.forward_np(x, t)).sum()))
            for grad, fd in zip(grads, fds, strict=True):
                assert grad.shape == fd.shape
                worst = max(worst, max_rel_err(grad, fd))
        assert worst <= 1e-6

    def test_input_only_rows_do_not_depend_on_batch_height(self):
        net = Mlp(32, [96, 32], 32, seed=4)
        g = stream(4, "heights")
        x = g.standard_normal((60, 32))
        c = g.standard_normal((60, 32))
        rows = []
        for height in (2, 5, 13, 38, 60):
            ws, _ = _forward_in(net, x[:height])
            rows.append(net.input_grad(ws, c[:height])[:2])
        for other in rows[1:]:
            assert np.array_equal(other, rows[0])

    def test_second_input_grad_reuses_the_workspace_transposes(self):
        # The first call on a workspace makes its transposed weights; a later
        # pass in the same workspace multiplies by those same arrays and
        # gives the bits of a fresh workspace.
        net, x, t, c = _probe([4, 3], 4, 3, seed=3)
        ws, _ = _forward_in(net, x, t)
        net.input_grad(ws, c)
        transposed = list(ws.transposed)
        x2, c2 = x + 0.5, c[::-1].copy()
        ws.x[...] = x2
        net._forward(ws, derivs=True)
        second = net.input_grad(ws, c2).copy()
        assert all(a is b for a, b in zip(ws.transposed, transposed, strict=True))
        fresh, _ = _forward_in(net, x2, t)
        assert np.array_equal(second, net.input_grad(fresh, c2))

    def test_lone_row_gradient_matches_its_row_in_a_batch(self):
        # A lone row runs padded to two; its input gradient is that of the
        # same row in a taller batch.
        net = Mlp(4, [3], 4, seed=2)
        g = stream(2, "lone")
        x, c = g.standard_normal((5, 4)), g.standard_normal((5, 4))
        ws, _ = _forward_in(net, x[:1])
        g_lone = net.input_grad(ws, c[:1])
        ws, _ = _forward_in(net, x)
        assert g_lone.shape == (1, 4)
        assert np.array_equal(g_lone, net.input_grad(ws, c)[:1])

    def test_mse_grads_match_finite_differences(self):
        net = Mlp(4, [5], 4, time_embed=4, seed=8)
        g = stream(8, "mse-fd")
        x = g.standard_normal((6, 4))
        target = g.standard_normal((6, 4))
        t = g.integers(1, 10, size=6)
        ws, _ = _forward_in(net, x, t)
        grads = net.mse_grads(ws, target, _grads(net))
        fds = _param_fd(net, lambda: float(np.mean((net.forward_np(x, t) - target) ** 2)))
        assert max(max_rel_err(grad, fd) for grad, fd in zip(grads, fds, strict=True)) <= 1e-6

    @pytest.mark.parametrize("hidden,time_embed,height", BACKWARD_CASES)
    def test_mse_grads_are_backward_of_the_scaled_residual(self, hidden, time_embed, height):
        net, x, t, target = _probe(hidden, time_embed, height, 0)
        ws, y = _forward_in(net, x, t)
        g = y - target
        g *= 2.0 / g.size
        want = net.backward(ws, g, _grads(net))
        buffers = _grads(net)
        got = net.mse_grads(ws, target, buffers)
        assert got is buffers
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a, b)


class _ReferenceAdamW:
    """AdamW as whole-array expressions, each step allocating its
    temporaries. By default each step is the folded form (Kingma & Ba 2015,
    §2) on the scaled moments ``m/(1-beta1)`` and ``v/(1-beta2)``, in the
    operation order of `AdamW.step`, which `AdamW` must match bit for bit;
    with `textbook` it is ``lr * (m/c1) / (sqrt(v/c2) + eps)`` on the
    textbook moments, which `AdamW` matches up to rounding."""

    def __init__(self, params, lr, weight_decay, beta1=0.9, beta2=0.999, eps=1e-8, textbook=False):
        self.params, self.lr, self.weight_decay = params, lr, weight_decay
        self.beta1, self.beta2, self.eps, self.textbook = beta1, beta2, eps, textbook
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads):
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        r2 = math.sqrt(c2 / (1.0 - self.beta2))
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.beta1
            v *= self.beta2
            if self.textbook:
                m += (1.0 - self.beta1) * g
                v += (1.0 - self.beta2) * g * g
            else:
                m += g
                v += g * g
            if self.weight_decay != 0.0:
                p *= 1.0 - self.lr * self.weight_decay
            if self.textbook:
                p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
            else:
                p -= m / (np.sqrt(v) + self.eps * r2) * (self.lr * (1.0 - self.beta1) * r2 / c1)


class TestAdamW:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    @pytest.mark.parametrize("size", [18, CHUNK, 2 * CHUNK + 5])
    def test_matches_reference_bit_for_bit(self, size, weight_decay):
        # One short slice, one full slice, and three slices with a short last one.
        g = stream(12, f"adamw-ref-{size}-{weight_decay}")
        start = g.standard_normal(size)
        flat, ref_flat = start.copy(), start.copy()
        opt = AdamW(flat, lr=3e-2, weight_decay=weight_decay)
        ref = _ReferenceAdamW([ref_flat], lr=3e-2, weight_decay=weight_decay)
        for _ in range(30):
            grad = g.standard_normal(size)
            opt.step(grad)
            ref.step([grad])
        for a, b in ((flat, ref_flat), (opt.m, ref.m[0]), (opt.v, ref.v[0])):
            assert np.array_equal(a, b)
        assert not np.array_equal(flat, start)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_folded_form_matches_textbook_up_to_rounding(self, weight_decay):
        g = stream(13, f"adamw-textbook-{weight_decay}")
        start = g.standard_normal(1230)
        flat, ref_flat = start.copy(), start.copy()
        opt = AdamW(flat, lr=3e-2, weight_decay=weight_decay)
        ref = _ReferenceAdamW([ref_flat], lr=3e-2, weight_decay=weight_decay, textbook=True)
        for _ in range(200):
            grad = g.standard_normal(1230)
            opt.step(grad)
            ref.step([grad])
        assert np.allclose(flat, ref_flat, rtol=1e-10, atol=1e-12)
        assert not np.array_equal(flat, start)

    def test_step_allocates_no_parameter_sized_array(self):
        # The image denoiser's shape: 256 -> 256 -> 256 -> 256 with a 32-wide
        # step embedding, whose first weight matrix alone is 576 KiB.
        net = Mlp(256, [256, 256], 256, time_embed=32, seed=0)
        g = stream(0, "adamw-alloc")
        ws, _ = _forward_in(net, g.standard_normal((64, 256)), g.integers(1, 100, size=64))
        grad = np.empty_like(net.flat)
        net.mse_grads(ws, g.standard_normal((64, 256)), net.views(grad))
        opt = AdamW(net.flat, weight_decay=0.01)
        opt.step(grad)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            opt.step(grad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_gradient_shape_must_match_parameter(self):
        w = np.array([1.0, 2.0, 3.0])
        opt = AdamW(w)
        with pytest.raises(ValueError, match=r"gradient of shape \(1,\) and dtype float64 does not match "
                                             r"the parameter vector's \(3,\) and float64"):
            opt.step(np.array([1.0]))
        assert np.array_equal(w, [1.0, 2.0, 3.0]) and opt.t == 0

    def test_gradient_dtype_must_match_parameter(self):
        # A float64 gradient for float32 moments would be rounded into them
        # without a word.
        w = np.array([1.0, 2.0], dtype=np.float32)
        opt = AdamW(w)
        with pytest.raises(ValueError, match=r"gradient of shape \(2,\) and dtype float64 does not match "
                                             r"the parameter vector's \(2,\) and float32"):
            opt.step(np.array([0.5, 0.5]))
        assert np.array_equal(w, [1.0, 2.0]) and opt.t == 0

    def test_no_parameters(self):
        opt = AdamW(np.zeros(0))
        opt.step(np.zeros(0))
        assert opt.t == 1

    def test_single_step_hand_derived(self):
        # One bias-corrected step at w=1, g=1: m_hat = v_hat = 1, so the
        # update is lr / (1 + eps).
        w = np.array([1.0])
        opt = AdamW(w, lr=0.1, weight_decay=0.0)
        opt.step(np.array([1.0]))
        expected = 1.0 - 0.1 / (1.0 + 1e-8)
        assert np.allclose(w, [expected], rtol=0, atol=1e-15)

    def test_zero_gradient_no_decay_is_identity(self):
        w = np.array([1.5, -2.0])
        opt = AdamW(w, lr=0.1)
        opt.step(np.zeros(2))
        assert np.array_equal(w, [1.5, -2.0])

    def test_decoupled_decay(self):
        w = np.array([1.0])
        opt = AdamW(w, lr=0.1, weight_decay=0.1)
        opt.step(np.array([0.0]))
        assert np.allclose(w, [0.99], rtol=0, atol=1e-15)

    def test_zero_lr_is_identity(self):
        w = np.array([3.0])
        opt = AdamW(w, lr=0.0, weight_decay=0.5)
        opt.step(np.array([7.0]))
        assert np.array_equal(w, [3.0])

    def test_invalid_hyperparameters(self):
        w = np.array([1.0])
        with pytest.raises(ValueError):
            AdamW(w, lr=-1.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                AdamW(w, lr=bad)
            with pytest.raises(ValueError, match="finite"):
                AdamW(w, weight_decay=bad)


def _reference_forward(net, params, x, t):
    """The forward pass of a batch as allocating expressions (`h @ w + b`,
    the `np.where` sigmoid) with `params`; returns the output rows and each
    layer's input and activation derivative (None for a linear layer)."""
    h = x if net.time_embed is None else np.concatenate([x, time_embedding(t, net.time_embed)], axis=1)
    if h.shape[0] == 1:
        h = np.repeat(h, 2, axis=0)
    cache = []
    for i, (w, b) in enumerate(zip(params[0::2], params[1::2])):
        h_in = h
        h = h @ w + b
        deriv = None
        if i < len(net.weights) - 1:  # silu; the output layer is linear
            e = np.exp(-np.abs(h))
            sig = np.where(h >= 0, 1.0, e) / (1.0 + e)
            deriv = sig * (1.0 + h * (1.0 - sig))
            h = h * sig
        cache.append((h_in, deriv))
    return h[: x.shape[0]], cache


class _ReferenceMlp:
    """A training step as allocating expressions (`_reference_forward`,
    `g @ w.T`) on copies of a net's parameters, trained by `_ReferenceAdamW`:
    the arithmetic the workspace step must match bit for bit."""

    def __init__(self, net, lr, weight_decay):
        self.net = net
        self.params = [p.copy() for p in net.views(net.flat)]
        self.opt = _ReferenceAdamW(self.params, lr=lr, weight_decay=weight_decay)

    def step(self, x, target, t):
        y, cache = _reference_forward(self.net, self.params, x, t)
        diff = y - target
        g = (2.0 / diff.size) * diff
        if g.shape[0] == 1:
            g = np.concatenate([g, np.zeros_like(g)])
        grads = [None] * len(self.params)
        for i in range(len(cache) - 1, -1, -1):
            h_in, deriv = cache[i]
            if deriv is not None:
                g = g * deriv
            grads[2 * i + 1] = g.sum(axis=0)
            grads[2 * i] = h_in.T @ g
            if i > 0:
                g = g @ self.params[2 * i].T
        self.opt.step(grads)


# Two silu hidden layers, one, and none, with and without the step embedding,
# at batch heights 1 (run padded to two), 3 and 32; and one net wide enough
# that its flat vector spans two AdamW slices, the boundary falling inside a
# weight matrix.
TRAINING_CASES = [
    pytest.param(te, height, hidden, id=f"{name}-{'time' if te else 'plain'}-{height}")
    for name, hidden in {"silu2": [6, 4], "silu1": [6], "linear": []}.items()
    for te in (None, 4)
    for height in (1, 3, 32)
] + [pytest.param(4, 32, [200, 160], id="silu2-time-32-two-chunks")]


class TestWorkspaceTraining:
    @pytest.mark.parametrize("time_embed,height,hidden", TRAINING_CASES)
    def test_matches_allocating_reference_bit_for_bit(self, time_embed, height, hidden):
        net = Mlp(5, hidden, 5, time_embed=time_embed, seed=1)
        ref = _ReferenceMlp(net, lr=3e-2, weight_decay=0.01)
        start = net.flat.copy()
        ws = Workspace(net, height)
        opt = AdamW(net.flat, lr=3e-2, weight_decay=0.01)
        grad = np.empty_like(net.flat)
        grads = net.views(grad)
        g = stream(1, f"train-ref-{len(hidden)}-{time_embed}-{height}")
        table = time_embedding(np.arange(1, 21), time_embed) if time_embed else None
        for _ in range(20):
            x = g.standard_normal((height, 5))
            target = g.standard_normal((height, 5))
            t = g.integers(1, 21, size=height) if time_embed else None
            ref.step(x, target, t)
            ws.x[...] = x
            if time_embed:
                ws.emb[...] = table[t - 1]
            net.mse_grads(ws, target, grads)
            opt.step(grad)
        for got, want in zip(net.views(net.flat), ref.params, strict=True):
            assert np.array_equal(got, want)
        assert not np.array_equal(net.flat, start)

    @pytest.mark.parametrize("dim", [8, 32])
    def test_embedding_table_rows_match_time_embedding(self, dim):
        # The stock configs use T=100 with a 32-wide embedding; the small test
        # configs an 8-wide one.
        table = time_embedding(np.arange(1, 101), dim)
        for t in range(1, 101):
            assert np.array_equal(table[t - 1], time_embedding(t, dim)[0])
        steps = stream(0, "table-steps").integers(1, 101, size=64)
        assert np.array_equal(table[steps - 1], time_embedding(steps, dim))

    def test_warm_step_allocates_no_batch_or_parameter_sized_array(self):
        # The image denoiser's shape: 256 -> 256 -> 256 -> 256 with a 32-wide
        # step embedding and batch 64; one batch-by-width array is 128 KiB.
        net = Mlp(256, [256, 256], 256, time_embed=32, seed=0)
        ws = Workspace(net, 64)
        g = stream(0, "workspace-alloc")
        ws.input[...] = g.standard_normal(ws.input.shape)
        target = g.standard_normal((64, 256))
        opt = AdamW(net.flat, weight_decay=0.01)
        grad = np.empty_like(net.flat)
        grads = net.views(grad)

        def step():
            net.mse_grads(ws, target, grads)
            opt.step(grad)

        step()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @staticmethod
    def _warm_step_peak(monkeypatch, train) -> int:
        """Peak bytes traced over the second step of ``train()``, a two-step
        fit: the trace opens when the first `AdamW.step` returns and is read
        when the second does, so it covers the batch, the gradients and the
        update of one warm step."""
        step, peaks = AdamW.step, []

        def traced(opt, grad):
            step(opt, grad)
            if opt.t == 1:
                tracemalloc.start()
            elif opt.t == 2:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(AdamW, "step", traced)
        try:
            train()
        finally:
            if tracemalloc.is_tracing():
                tracemalloc.stop()
        assert len(peaks) == 1
        return peaks[0]

    def test_warm_denoiser_training_step_allocates_no_batch_sized_array(self, monkeypatch):
        # The image denoiser's training shape. The x_t blend's column
        # broadcasts took a 64 KiB ufunc buffer each, and the table lookup
        # into the column block of the input a 16 KiB copy.
        data = stream(0, "train-alloc").standard_normal((200, 256))
        cfg = DiffusionConfig(T=100, b_start=1e-3, b_end=0.05, hidden=(256, 256), time_embed=32, batch=64, steps=2)
        peak = self._warm_step_peak(monkeypatch, lambda: train_denoiser(data, cfg))
        assert peak < 16 * 1024

    def test_warm_autoencoder_training_step_allocates_no_batch_sized_array(self, monkeypatch):
        # The image autoencoder's training shape; one batch-by-width array of
        # its input and output layers is 64 KiB.
        data = stream(0, "recon-alloc").standard_normal((200, 256))
        cfg = DetectorConfig(hidden=(96, 32, 96), batch=32, steps=2)
        assert self._warm_step_peak(monkeypatch, lambda: fit_recon(data, cfg)) < 16 * 1024


class TestMixedPrecisionFit:
    """`fit` trains a float32 working copy from the float64 start and adds
    what it learned to that start; every net it returns is float64, and a
    denoiser casts its net back to float32."""

    @pytest.mark.parametrize("time_embed,height,hidden", TRAINING_CASES)
    def test_tracks_the_float64_reference(self, time_embed, height, hidden):
        # 20 steps at lr 3e-2 move the largest parameter by 25-50%. The small
        # nets stay within 1e-6 of the float64 reference, relative to their
        # largest parameter (2e-7 measured). The wide net's Adam steps
        # normalise gradients near zero, whose float32 rounding is large
        # relative to them, so it drifts further (1.2e-3 measured).
        net = Mlp(5, hidden, 5, time_embed=time_embed, seed=1)
        ref = _ReferenceMlp(net, lr=3e-2, weight_decay=0.01)
        g = stream(1, f"train-f32-{len(hidden)}-{time_embed}-{height}")
        draws = [
            (g.standard_normal((height, 5)), g.standard_normal((height, 5)),
             g.integers(1, 21, size=height) if time_embed else None)
            for _ in range(20)
        ]
        batches = iter(draws)

        def batch(ws):
            x, target, t = next(batches)
            ws.x[...] = x
            if time_embed:
                ws.emb[...] = ws.table[t - 1]
            assert ws.x.dtype == TRAIN_DTYPE
            return target.astype(TRAIN_DTYPE)

        for x, target, t in draws:
            ref.step(x, target, t)
        cfg = DiffusionConfig(hidden=tuple(hidden), steps=20, lr=3e-2, weight_decay=0.01)
        fit(net, height, batch, cfg, "test", steps=20)
        assert net.flat.dtype == np.float64
        want = np.concatenate([p.ravel() for p in ref.params])
        assert max_rel_err(net.flat, want) <= (5e-3 if net.flat.size > CHUNK else 1e-6)

    def test_trained_nets_predictions_and_checkpoints_are_float64(self, tmp_path):
        # The denoiser's net is float32, trained or loaded; the autoencoder's
        # net, its alphas and the denoiser's posterior means are float64.
        data = stream(41, "f64-out").standard_normal((30, 4))
        den = train_denoiser(data, DiffusionConfig(T=8, hidden=(8,), time_embed=4, steps=20), seed=1)
        det = fit_recon(data, DetectorConfig(hidden=(6,), steps=20), seed=1)
        assert den.net.flat.dtype == TRAIN_DTYPE and det.net.flat.dtype == np.float64
        assert predict_mu(den, data[:3], 4).dtype == np.float64
        assert det.alpha_batch(data).dtype == np.float64
        den.save(tmp_path / "denoiser.json")
        det.save(tmp_path / "detector.json")
        assert Denoiser.load(tmp_path / "denoiser.json").net.flat.dtype == TRAIN_DTYPE
        assert load_detector(tmp_path / "detector.json").net.flat.dtype == np.float64

    def test_zero_lr_leaves_autoencoder_parameters(self):
        data = stream(42, "r0").standard_normal((20, 4))
        det = fit_recon(data, DetectorConfig(hidden=(8, 3), steps=50, lr=0.0), seed=2)
        fresh = Mlp(4, [8, 3], 4, seed=2, stream_name="recon-init")
        assert np.array_equal(det.net.flat, fresh.flat)

    def test_zero_lr_leaves_denoiser_parameters(self):
        # The drawn weights carry float64 bits that no float32 holds; the
        # denoiser runs in float32, so at lr=0 it holds their float32 cast.
        # That `fit` returns the start bit for bit is pinned by the
        # autoencoder above.
        data = stream(43, "d0-f32").standard_normal((20, 4))
        cfg = DiffusionConfig(T=5, hidden=(8, 3), time_embed=4, steps=50, lr=0.0, weight_decay=0.01)
        den = train_denoiser(data, cfg, seed=2)
        fresh = Mlp(4, [8, 3], 4, time_embed=4, seed=2, stream_name="denoiser-init")
        assert not np.array_equal(fresh.flat, fresh.flat.astype(TRAIN_DTYPE))
        assert den.net.flat.dtype == TRAIN_DTYPE
        assert np.array_equal(den.net.flat, fresh.flat.astype(TRAIN_DTYPE))


def _reference(net, x, t):
    return _reference_forward(net, net.views(net.flat), x, t)[0]


class TestWorkspaceInference:
    @pytest.mark.parametrize("height", [1, 2, 5])
    @pytest.mark.parametrize("time_embed", [None, 4])
    def test_forward_matches_allocating_forward(self, height, time_embed):
        net = Mlp(5, [7, 6], 5, time_embed=time_embed, seed=2)
        ws = Workspace(net, height, steps=9)
        g = stream(2, f"inference-{height}-{time_embed}")
        for t in (9, 4, 1):
            x = g.standard_normal((height, 5))
            t_arg = t if time_embed else None
            want = _reference(net, x, np.full(height, t))
            assert np.array_equal(net.forward_np(x, t_arg, ws=ws), want)
            assert np.array_equal(net.forward_np(x, t_arg), want)
        steps = g.integers(1, 10, size=height)
        if time_embed:
            want = _reference(net, x, steps)
            assert np.array_equal(net.forward_np(x, steps, ws=ws), want)
            assert np.array_equal(net.forward_np(x, steps), want)

    @pytest.mark.parametrize("height", [ONE_OFF_ROWS + 1, 2 * ONE_OFF_ROWS + 5])
    def test_one_off_forward_over_several_chunks_matches_allocating_forward(self, height):
        # The last chunk holds 1 row at 65 and 5 at 133.
        net = Mlp(5, [7, 6], 5, time_embed=4, seed=2)
        g = stream(2, f"one-off-{height}")
        x = g.standard_normal((height, 5))
        steps = g.integers(1, 10, size=height)
        assert np.array_equal(net.forward_np(x, steps), _reference(net, x, steps))

    def test_one_off_forward_holds_one_chunk_of_layer_buffers(self):
        # The image denoiser's shape with 512 rows: the output and the step
        # embeddings take 1.1 MiB; each layer's buffers at the full height
        # would take 1 MiB more apiece.
        net = Mlp(256, [256, 256], 256, time_embed=32, seed=0)
        g = stream(0, "one-off-alloc")
        x = g.standard_normal((512, 256))
        steps = g.integers(1, 101, size=512)
        tracemalloc.start()
        try:
            net.forward_np(x, steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    def test_predict_mu_in_workspace_matches(self):
        sched = make_schedule(6)
        den = Denoiser(Mlp(4, [8], 4, time_embed=4, seed=3), sched)
        ws = Workspace(den.net, 3, steps=sched.T)
        out = np.empty((3, 4))
        x = stream(3, "mu-ws").standard_normal((3, 4))
        for t in range(sched.T, 0, -1):
            got = predict_mu(den, x, t, ws=ws, out=out)
            assert got is out
            assert np.array_equal(got, predict_mu(den, x, t))

    def test_rejects_bad_inputs(self):
        net = Mlp(3, [4], 3, time_embed=4, seed=0)
        ws = Workspace(net, 2, steps=5)
        with pytest.raises(ValueError, match="shape"):
            net.forward_np(np.zeros((3, 3)), 1, ws=ws)
        for t in (0, 6, None):
            with pytest.raises(ValueError, match="step"):
                net.forward_np(np.zeros((2, 3)), t, ws=ws)
        with pytest.raises(ValueError, match="table"):
            net.forward_np(np.zeros((2, 3)), 1, ws=Workspace(net, 2))


class TestRandomStreams:
    def test_same_address_same_draws(self):
        assert np.array_equal(stream(7, "z").standard_normal((4, 3)), stream(7, "z").standard_normal((4, 3)))

    def test_distinct_streams_differ(self):
        assert not np.array_equal(stream(7, "z").standard_normal(16), stream(7, "eps").standard_normal(16))
        assert not np.array_equal(stream(7, "z").standard_normal(16), stream(8, "z").standard_normal(16))

    def test_standard_normal_moments(self):
        draws = stream(123, "moments").standard_normal(100_000)
        assert abs(float(draws.mean())) < 0.02
        assert abs(float(draws.var()) - 1.0) < 0.05

    def test_sequential_consumption_is_deterministic(self):
        s1, s2 = stream(3, "seq"), stream(3, "seq")
        a = np.concatenate([s1.standard_normal(5) for _ in range(3)])
        b = np.concatenate([s2.standard_normal(5) for _ in range(3)])
        assert np.array_equal(a, b)


class TestCheckpoint:
    def test_mlp_round_trip_bit_exact(self, tmp_path):
        net = Mlp(6, [5, 4], 6, time_embed=4, seed=11)
        path = tmp_path / "model.json"
        ckpt.write(path, ckpt.mlp_payload(net, kind="mlp"))
        loaded = ckpt.mlp_from_payload(ckpt.read(path, expected_kind="mlp"))
        x = stream(0, "ckpt-x").standard_normal(6)
        assert np.array_equal(net.forward_np(x, t=2), loaded.forward_np(x, t=2))

    def test_schema_and_kind_checked(self, tmp_path):
        net = Mlp(3, [], 3, seed=0)
        path = tmp_path / "model.json"
        payload = ckpt.mlp_payload(net)
        payload["schema"] = "bogus"
        ckpt.write(path, payload)
        with pytest.raises(ValueError, match="schema"):
            ckpt.read(path)
        ckpt.write(path, ckpt.mlp_payload(net, kind="mlp"))
        with pytest.raises(ValueError, match="kind"):
            ckpt.read(path, expected_kind="denoiser")

    def test_non_finite_rejected(self, tmp_path):
        net = Mlp(3, [], 3, seed=0)
        net.weights[0][0, 0] = np.nan
        path = tmp_path / "model.json"
        ckpt.write(path, ckpt.mlp_payload(net))
        with pytest.raises(ValueError, match="non-finite"):
            ckpt.mlp_from_payload(ckpt.read(path))

    def test_layers_record_silu_then_a_linear_output(self):
        assert [layer["act"] for layer in Mlp(4, [8, 6], 4, seed=0).layer_dims()] == ["silu", "silu", "linear"]
        assert [layer["act"] for layer in Mlp(4, [], 4, seed=0).layer_dims()] == ["linear"]

    @pytest.mark.parametrize("acts", [["relu", "linear"], ["silu", "silu"], ["linear", "linear"]])
    def test_other_activations_rejected_naming_the_file(self, tmp_path, acts):
        payload = ckpt.mlp_payload(Mlp(3, [4], 3, seed=0))
        for layer, act in zip(payload["layers"], acts, strict=True):
            layer["act"] = act
        path = tmp_path / "model.json"
        ckpt.write(path, payload)
        message = f"{path}: checkpoint.layers: layer activations must be ['silu', 'linear'], got {acts}"
        with pytest.raises(ValueError) as info:
            ckpt.load(path, ckpt.mlp_from_payload, "mlp")
        assert str(info.value) == message


class TestFit:
    def test_settings_rejected_naming_the_key(self):
        for cfg, message in (
            (lambda: DetectorConfig(steps=-3), "steps must be >= 0, got -3"),
            (lambda: DetectorConfig(hidden=(4, 0)), r"hidden widths must be >= 1, got \[4, 0\]"),
            (lambda: DetectorConfig(lr=float("nan")), "lr must be >= 0.0, got nan"),
            (lambda: DiffusionConfig(batch=0), "batch must be >= 1, got 0"),
            (lambda: DiffusionConfig(weight_decay=-1.0), "weight_decay must be >= 0.0, got -1.0"),
            (lambda: DiffusionConfig(time_embed=5), "time_embed must be positive and even, got 5"),
        ):
            with pytest.raises(ValueError, match=message):
                cfg()

    @pytest.mark.parametrize("data,message", [
        (np.zeros((0, 3)), "training data is empty"),
        (np.zeros(3), r"training data must be a 2-D batch, got shape \(3,\)"),
        (np.array([[1.0, np.inf]]), "training data contains non-finite values"),
    ])
    def test_both_fits_check_the_data_alike(self, data, message):
        with pytest.raises(ValueError, match=message):
            fit_recon(data, DetectorConfig(hidden=(4,), steps=1))
        with pytest.raises(ValueError, match=message):
            train_denoiser(data, DiffusionConfig(T=5, hidden=(4,), time_embed=4, steps=1))
