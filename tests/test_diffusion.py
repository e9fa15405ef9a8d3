import dataclasses

import numpy as np
import pytest

from arpro.detector import GaussDetector
from arpro.diffusion import (
    Denoiser,
    DiffusionConfig,
    NoiseSchedule,
    denoising_loss,
    make_schedule,
    posterior_mean,
    predict_mu,
    train_denoiser,
)
from arpro.repair import RepairConfig, RepairRow, repair_batch
from arpro.tensor import TRAIN_DTYPE, Mlp, stream


def constant_eps_denoiser(n: int, value: float, schedule) -> Denoiser:
    net = Mlp(n, [4], n, time_embed=4, seed=0)
    for w in net.weights:
        w[...] = 0.0
    for b in net.biases:
        b[...] = 0.0
    net.biases[-1][...] = value
    return Denoiser(net, schedule)


def sample(den: Denoiser, seeds, tag: str = "sample"):
    """Ancestral samples, one per seed, drawn in one batch as baseline repairs
    whose mask covers every coordinate, so the target never enters."""
    n = den.n
    det = GaussDetector(np.zeros(n), np.ones(n))
    rows = [RepairRow(np.zeros(n), np.ones(n), RepairConfig(seed=s, stream_tag=tag, eta_end=0.0)) for s in seeds]
    return np.stack([result.x_fix for result in repair_batch(det, den, rows)])


class TestSchedule:
    def test_cumulative_products(self):
        sched = make_schedule(3, 0.1, 0.3)
        assert np.allclose(sched.b, [0.1, 0.2, 0.3])
        assert np.allclose(sched.a, [0.9, 0.72, 0.504])

    def test_single_step(self):
        sched = make_schedule(1, 0.5, 0.5)
        assert np.allclose(sched.a, [0.5])

    def test_std_modes(self):
        std = make_schedule(2, 0.04, 0.09, std_mode="standard")
        assert np.allclose(std.sigma, [0.2, 0.3])
        lit = make_schedule(2, 0.04, 0.09, std_mode="paper-literal")
        assert np.allclose(lit.sigma, [0.04, 0.09])

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            make_schedule(0)
        with pytest.raises(ValueError):
            make_schedule(3, 0.5, 0.2)
        with pytest.raises(ValueError):
            make_schedule(3, 0.0, 0.2)
        with pytest.raises(ValueError):
            make_schedule(3, 0.2, 1.0)
        with pytest.raises(ValueError, match="std mode"):
            make_schedule(3, 0.1, 0.2, std_mode="bogus")

    def test_invariants_random_schedules(self):
        g = stream(31, "sched")
        for _ in range(50):
            T = int(g.integers(2, 40))
            b0 = float(g.uniform(1e-4, 0.05))
            b1 = float(g.uniform(b0 + 1e-4, 0.5))
            sched = make_schedule(T, b0, b1)
            assert np.all(sched.b > 0.0) and np.all(sched.b < 1.0)
            assert np.all(np.diff(sched.b) > 0.0)
            assert np.all(np.diff(sched.a) < 0.0)
            assert np.allclose(sched.a[1:], (1.0 - sched.b[1:]) * sched.a[:-1], rtol=1e-12)

    def test_defaults_scale_with_steps(self):
        sched = make_schedule(100)
        assert sched.b_start == pytest.approx(1e-3)
        assert sched.b_end == pytest.approx(0.2)

    def test_arrays_derive_from_the_four_numbers(self):
        sched = NoiseSchedule(3, 0.1, 0.3, "standard")
        assert sched == make_schedule(3, 0.1, 0.3)
        assert np.array_equal(sched.b, make_schedule(3, 0.1, 0.3).b)
        literal = dataclasses.replace(sched, std_mode="paper-literal")
        assert np.array_equal(literal.sigma, sched.b) and np.array_equal(literal.a, sched.a)
        with pytest.raises(TypeError):
            NoiseSchedule(3, 0.1, 0.3, "standard", b=sched.b)


class TestPosteriorMean:
    def test_zero_prediction_collapse(self):
        sched = make_schedule(4, 0.05, 0.2)
        den = constant_eps_denoiser(3, 0.0, sched)
        x_t = np.array([0.5, -0.5, 1.0])
        mu = predict_mu(den, x_t, 2)
        assert np.allclose(mu, x_t / np.sqrt(1.0 - sched.b[1]))

    def test_small_b_limit(self):
        sched = make_schedule(2, 1e-9, 2e-9)
        den = constant_eps_denoiser(2, 0.3, sched)
        x_t = np.array([1.0, 2.0])
        assert np.allclose(predict_mu(den, x_t, 1), x_t, atol=1e-7)

    def test_arithmetic_against_formula(self):
        # Independent evaluation of (x - b/sqrt(1-a) * eps) / sqrt(1-b).
        got = posterior_mean(np.array([1.0]), np.array([0.5]), 0.19, 0.36)
        want = (1.0 - 0.19 / np.sqrt(1.0 - 0.36) * 0.5) / np.sqrt(1.0 - 0.19)
        assert got[0] == pytest.approx(want, rel=1e-15)
        assert got[0] == pytest.approx(0.9791666666666666)

    def test_predict_mu_uses_networks_prediction(self):
        sched = make_schedule(3, 0.1, 0.3)
        den = constant_eps_denoiser(2, 0.5, sched)
        x_t = np.array([1.0, -1.0])
        t = 3
        want = posterior_mean(x_t, np.full(2, 0.5), sched.b[t - 1], sched.a[t - 1])
        assert np.allclose(predict_mu(den, x_t, t), want)

    def test_step_bounds(self):
        den = constant_eps_denoiser(2, 0.0, make_schedule(5, 0.1, 0.3))
        with pytest.raises(ValueError, match="out of range"):
            predict_mu(den, np.zeros(2), 0)
        with pytest.raises(ValueError, match="out of range"):
            predict_mu(den, np.zeros(2), 6)

    @pytest.mark.parametrize("bad", [0, 6])
    def test_denoising_loss_step_bounds(self, bad):
        # Step 0 would blend at the step-T level (a[-1]) while the network
        # embeds step 0; step T+1 would index past the schedule.
        den = constant_eps_denoiser(2, 0.0, make_schedule(5, 0.1, 0.3))
        with pytest.raises(ValueError, match=rf"^step {bad} out of range \[1, 5\]$"):
            denoising_loss(den, np.zeros((3, 2)), [1, bad, 5], np.zeros((3, 2)))
        with pytest.raises(ValueError, match=rf"^step {bad} out of range \[1, 5\]$"):
            predict_mu(den, np.zeros(2), bad)


class TestTraining:
    def test_loss_improves_on_sinusoid_windows(self):
        g = stream(34, "sin")
        taus = np.arange(16)
        rows = []
        for _ in range(120):
            phase = g.uniform(0.0, 2 * np.pi)
            rows.append(np.sin(2 * np.pi * taus / 16 + phase) + 0.1 * g.standard_normal(16))
        data = np.stack(rows)
        cfg = DiffusionConfig(T=20, hidden=(32, 32), time_embed=8, steps=500, lr=3e-3)
        den = train_denoiser(data, cfg, seed=1)
        untrained = Denoiser(Mlp(16, [32, 32], 16, time_embed=8, seed=1, stream_name="denoiser-init"), cfg.schedule())
        eval_g = stream(35, "sin-eval")
        eps = eval_g.standard_normal((64, 16))
        t = eval_g.integers(1, 21, size=64)
        x0 = data[:64]
        assert denoising_loss(den, x0, t, eps) < 0.5 * denoising_loss(untrained, x0, t, eps)

    def test_zero_lr_leaves_parameters(self):
        # The denoiser holds its net in float32, so at lr=0 it is the float32
        # cast of the drawn start.
        data = stream(36, "d0").standard_normal((20, 4))
        cfg = DiffusionConfig(T=5, hidden=(8,), time_embed=4, steps=50, lr=0.0)
        den = train_denoiser(data, cfg, seed=2)
        fresh = Mlp(4, [8], 4, time_embed=4, seed=2, stream_name="denoiser-init")
        assert den.net.flat.dtype == TRAIN_DTYPE
        assert np.array_equal(den.net.flat, fresh.flat.astype(TRAIN_DTYPE))

    def test_perfect_prediction_gives_zero_loss(self):
        # The objective is mean squared prediction error, so matching the
        # injected noise exactly is its minimum.
        eps = stream(37, "pp").standard_normal((8, 3))
        assert float(np.mean((eps - eps) ** 2)) == 0.0

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError, match="training data is empty"):
            train_denoiser(np.zeros((0, 4)), DiffusionConfig(T=5))


class TestSampling:
    def test_deterministic_given_seed(self):
        data = 0.5 * stream(38, "sd").standard_normal((30, 4))
        den = train_denoiser(data, DiffusionConfig(T=10, hidden=(8,), time_embed=4, steps=100), seed=3)
        assert np.array_equal(sample(den, [9]), sample(den, [9]))
        assert not np.array_equal(sample(den, [9]), sample(den, [10]))

    def test_single_step_collapse(self):
        sched = make_schedule(1, 0.3, 0.3)
        den = constant_eps_denoiser(2, 0.0, sched)
        out = sample(den, [5], tag="one")[0]
        x1 = stream(5, "one/init").standard_normal(2)
        assert np.allclose(out, x1 / np.sqrt(1.0 - 0.3))

    def test_constant_data_mean(self):
        data = np.full((60, 2), 2.0) + 0.05 * stream(39, "cd").standard_normal((60, 2))
        cfg = DiffusionConfig(T=25, hidden=(32, 32), time_embed=8, steps=1200, lr=3e-3)
        den = train_denoiser(data, cfg, seed=4)
        draws = sample(den, range(100), tag="cmean")
        assert abs(float(draws.mean()) - 2.0) < 0.1


class TestDenoiserCheckpoint:
    def test_round_trip(self, tmp_path):
        data = stream(40, "ck").standard_normal((30, 4))
        cfg = DiffusionConfig(T=8, b_start=0.01, b_end=0.1, std_mode="paper-literal",
                              hidden=(8,), time_embed=4, steps=60)
        den = train_denoiser(data, cfg, seed=6)
        path = tmp_path / "denoiser.json"
        den.save(path)
        loaded = Denoiser.load(path)
        assert loaded.schedule.std_mode == "paper-literal"
        assert np.array_equal(loaded.schedule.b, den.schedule.b)
        x = stream(0, "ckx").standard_normal(4)
        assert np.array_equal(den.net.forward_np(x, 3), loaded.net.forward_np(x, 3))
        assert np.array_equal(sample(den, [1]), sample(loaded, [1]))

    @pytest.mark.parametrize("value", [1e150, 3.5e38, -1.7976931348623157e308])
    def test_value_beyond_float32_is_rejected(self, value):
        net = Mlp(4, [8], 4, time_embed=4, seed=0)
        net.biases[0][2] = value  # parameter 66, after the (4 + 4) x 8 first weight
        with pytest.raises(ValueError) as info:
            Denoiser(net, make_schedule(5))
        assert str(info.value) == f"parameter 66 is {value!r}, beyond the float32 range the denoiser runs in"

    def test_requires_time_conditioning(self):
        with pytest.raises(ValueError, match="step-conditioned"):
            Denoiser(Mlp(4, [8], 4, seed=0), make_schedule(5))
