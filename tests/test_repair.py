import numpy as np
import pytest

from arpro.detector import GaussDetector, binarize, calibrate_thresholds, fit_gauss
from arpro.diffusion import Denoiser, DiffusionTrainConfig, make_schedule, predict_mu, train_denoiser
from arpro.properties import PropertyWeights, Tolerances
from arpro.repair import (
    GuidanceSchedule,
    RepairConfig,
    baseline_repair,
    guided_repair,
    make_guidance_schedule,
)
from arpro.tensor import Mlp, stream


@pytest.fixture(scope="module")
def small_world():
    """A trained 8-dim Gaussian world shared by the repair tests."""
    g = stream(50, "world")
    mu = g.uniform(-1.0, 1.0, size=8)
    train = mu + 0.5 * g.standard_normal((150, 8))
    det = fit_gauss(train)
    sched = make_schedule(30)
    den = train_denoiser(train, sched, DiffusionTrainConfig(hidden=(32, 32), time_embed=8, steps=400), seed=50)
    x_bad = train[0].copy()
    x_bad[2] += 3.0
    x_bad[5] -= 2.5
    tau = calibrate_thresholds(det, train, 0.9)
    omega = binarize(det.score(x_bad), tau)
    assert omega.sum() >= 1
    return det, den, sched, x_bad, omega


class TestGuidanceSchedule:
    def test_linear_ramp(self):
        assert np.allclose(make_guidance_schedule(3, 0.0, 1.0).eta, [0.0, 0.5, 1.0])

    def test_all_zero(self):
        assert np.array_equal(make_guidance_schedule(4, 0.0, 0.0).eta, np.zeros(4))

    def test_single_step_takes_endpoint(self):
        assert np.array_equal(make_guidance_schedule(1, 0.2, 0.7).eta, [0.7])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            make_guidance_schedule(3, -0.1, 0.5)
        with pytest.raises(ValueError):
            make_guidance_schedule(3, 0.5, 0.1)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            GuidanceSchedule(eta=np.array([0.5, 0.1]))
        with pytest.raises(ValueError, match="nonnegative"):
            GuidanceSchedule(eta=np.array([-0.5, 0.1]))


class TestMaskedInfill:
    def test_empty_mask_level_matched_returns_input(self, small_world):
        det, den, sched, x_bad, _ = small_world
        cfg = RepairConfig(seed=7, infill_mode="level-matched")
        out = guided_repair(det, den, sched, x_bad, np.zeros(8), cfg)
        assert np.array_equal(out.x_fix, x_bad)

    def test_empty_mask_paper_literal_returns_noised_input(self, small_world):
        det, den, sched, x_bad, _ = small_world
        cfg = RepairConfig(seed=7, stream_tag="pl", infill_mode="paper-literal")
        out = guided_repair(det, den, sched, x_bad, np.zeros(8), cfg)
        # Final step blends x_bad at level 1 with the final eps draw.
        es = stream(7, "pl/eps")
        eps_draws = [es.standard_normal(8) for _ in range(sched.T)]
        expected = np.sqrt(sched.a[0]) * x_bad + np.sqrt(1.0 - sched.a[0]) * eps_draws[-1]
        assert np.allclose(out.x_fix, expected, atol=1e-12)

    def test_all_ones_mask_is_legal(self, small_world):
        det, den, sched, x_bad, _ = small_world
        out = guided_repair(det, den, sched, x_bad, np.ones(8), RepairConfig(seed=3))
        assert np.all(np.isfinite(out.x_fix))

    @pytest.mark.parametrize("mode", ["level-matched", "paper-literal"])
    def test_untouched_region_matches_noised_original_every_step(self, small_world, mode):
        det, den, sched, x_bad, omega = small_world
        keep = (1.0 - omega).astype(bool)
        cfg = RepairConfig(seed=5, infill_mode=mode, record_trajectory=True)
        out = guided_repair(det, den, sched, x_bad, omega, cfg)
        assert out.trajectory is not None and len(out.trajectory) == sched.T
        for _, x_bad_level, x_step in out.trajectory:
            assert np.array_equal(x_step[keep], x_bad_level[keep])

    def test_level_matched_final_region_exact(self, small_world):
        det, den, sched, x_bad, omega = small_world
        keep = (1.0 - omega).astype(bool)
        out = guided_repair(det, den, sched, x_bad, omega, RepairConfig(seed=6))
        assert np.max(np.abs(out.x_fix[keep] - x_bad[keep])) == 0.0


class TestZeroGuidanceEquivalence:
    def test_bit_identical_trajectories(self, small_world):
        det, den, sched, x_bad, omega = small_world
        for seed in range(5):
            cfg = RepairConfig(seed=seed, eta_start=0.0, eta_end=0.0)
            guided = guided_repair(det, den, sched, x_bad, omega, cfg)
            base = baseline_repair(det, den, sched, x_bad, omega, cfg)
            assert guided.trajectory_hash == base.trajectory_hash
            assert np.array_equal(guided.x_fix, base.x_fix)

    def test_nonzero_guidance_differs_from_baseline(self, small_world):
        det, den, sched, x_bad, omega = small_world
        cfg = RepairConfig(seed=2, eta_start=0.01, eta_end=0.05)
        guided = guided_repair(det, den, sched, x_bad, omega, cfg)
        base = baseline_repair(det, den, sched, x_bad, omega, cfg)
        assert guided.trajectory_hash != base.trajectory_hash


class TestDeterminism:
    def test_identical_runs_identical_results(self, small_world):
        det, den, sched, x_bad, omega = small_world
        cfg = RepairConfig(seed=11, eta_end=0.1)
        a = guided_repair(det, den, sched, x_bad, omega, cfg)
        b = guided_repair(det, den, sched, x_bad, omega, cfg)
        assert np.array_equal(a.x_fix, b.x_fix)
        assert a.trajectory_hash == b.trajectory_hash
        assert a.loss == b.loss and a.metrics == b.metrics

    def test_distinct_stream_tags_differ(self, small_world):
        det, den, sched, x_bad, omega = small_world
        a = guided_repair(det, den, sched, x_bad, omega, RepairConfig(seed=11, stream_tag="a"))
        b = guided_repair(det, den, sched, x_bad, omega, RepairConfig(seed=11, stream_tag="b"))
        assert a.trajectory_hash != b.trajectory_hash


class TestGuidanceDirection:
    def test_single_step_descends_score(self):
        # One small guided step from a random state must lower the total
        # score relative to the unguided step (weights select score only).
        det = GaussDetector(mu=np.zeros(16), sigma=np.ones(16))
        sched = make_schedule(40)
        net = Mlp(16, [16], 16, time_embed=8, seed=77)
        den = Denoiser(net, sched)
        w = PropertyWeights(1.0, 0.0, 0.0, 0.0)
        g = stream(78, "dir")
        eta = 1e-3
        t = 3  # early step: small noise level
        for _ in range(20):
            x_state = g.standard_normal(16)
            z = g.standard_normal(16)
            mu_hat = predict_mu(den, x_state, t)
            x_unguided = mu_hat + sched.sigma[t - 1] * z
            grad = det.grad_region_score(x_state, np.ones(16))
            x_guided = x_unguided - eta * grad
            assert det.score(x_guided).total < det.score(x_unguided).total

    def test_guided_repair_improves_on_spike_with_defaults(self, small_world):
        # Default weights and guidance ramp, 50 seeded instances: at least
        # 80% must lower the total score and the flagged-region score.
        det, den, sched, x_bad, omega = small_world
        s_bad = det.score(x_bad).total
        wins = 0
        for seed in range(50):
            out = guided_repair(det, den, sched, x_bad, omega, RepairConfig(seed=seed))
            if out.loss.l1 < s_bad and out.metrics.m_omega < 0.0:
                wins += 1
        assert wins >= 40


class TestValidation:
    def test_dimension_mismatch(self, small_world):
        det, den, sched, x_bad, omega = small_world
        with pytest.raises(ValueError):
            guided_repair(det, den, sched, np.zeros(4), np.zeros(4), RepairConfig(seed=0))

    def test_mismatched_schedule(self, small_world):
        det, den, _, x_bad, omega = small_world
        other = make_schedule(7)
        with pytest.raises(ValueError, match="does not match"):
            guided_repair(det, den, other, x_bad, omega, RepairConfig(seed=0))

    def test_divergence_raises_naming_stream_and_step(self, small_world):
        det, den, sched, x_bad, omega = small_world
        cfg = RepairConfig(seed=0, stream_tag="inst3", eta_start=1e6, eta_end=1e9,
                           weights=PropertyWeights(lambda1=1e6))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=r"inst3: iterate became non-finite at step t=\d+"):
                guided_repair(det, den, sched, x_bad, omega, cfg)

    def test_bad_config(self):
        with pytest.raises(ValueError, match="infill mode"):
            RepairConfig(infill_mode="bogus")
        with pytest.raises(ValueError, match="eta"):
            RepairConfig(eta_start=0.5, eta_end=0.1)

    def test_result_serialization(self, small_world):
        det, den, sched, x_bad, omega = small_world
        out = baseline_repair(det, den, sched, x_bad, omega, RepairConfig(seed=1))
        payload = out.as_dict()
        expected = {"x_fix", "losses", "metrics", "seed", "infill_mode", "std_mode",
                    "guided", "trajectory_hash", "seconds"}
        assert set(payload) == expected
        assert payload["seed"] == 1 and payload["guided"] is False
        assert set(out.as_dict(include_seconds=False)) == expected - {"seconds"}
