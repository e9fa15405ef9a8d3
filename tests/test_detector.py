import math
import tracemalloc

import numpy as np
import pytest

from arpro.detector import (
    DecomposableScore,
    DetectorConfig,
    GaussDetector,
    ReconDetector,
    binarize,
    calibrate_thresholds,
    fit_gauss,
    fit_recon,
    load_detector,
)
from arpro.tensor import Mlp, stream

from conftest import central_diff, max_rel_err, type7_quantile


def identity_recon(n: int) -> ReconDetector:
    net = Mlp(n, [], n, seed=0)
    net.weights[0][...] = np.eye(n)
    net.biases[0][...] = 0.0
    return ReconDetector(net)


def random_recon(n: int, seed: int = 3) -> ReconDetector:
    return ReconDetector(Mlp(n, [2 * n], n, seed=seed))


class TestFitGauss:
    def test_two_point_moments(self):
        det = fit_gauss(np.array([[0.0], [2.0]]))
        assert np.allclose(det.mu, [1.0])
        assert np.allclose(det.sigma, [1.0])  # population std

    def test_constant_feature_clamped_to_floor(self):
        det = fit_gauss(np.full((10, 1), 3.0))
        assert np.allclose(det.sigma, [1e-3])

    def test_features_fit_independently(self):
        rows = np.array([[0.0, 10.0], [2.0, 14.0]])
        det = fit_gauss(rows)
        assert np.allclose(det.mu, [1.0, 12.0])
        assert np.allclose(det.sigma, [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_gauss(np.zeros((0, 3)))

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            fit_gauss([[1.0, 2.0], [3.0]])

    def test_batch_errors_name_their_subject(self):
        det = fit_gauss(stream(1, "subject").standard_normal((20, 3)))
        with pytest.raises(ValueError, match="^training data contains non-finite values$"):
            fit_gauss(np.array([[1.0, np.nan, 2.0]]))
        with pytest.raises(ValueError, match="^batch contains non-finite values$"):
            det.alpha_batch(np.array([[1.0, np.nan, 2.0]]))
        with pytest.raises(ValueError, match="^batch has dimension 4, expected 3$"):
            det.alpha_batch(np.zeros((2, 4)))
        with pytest.raises(ValueError, match="^alphas contains non-finite values$"):
            calibrate_thresholds(np.array([[np.inf, 1.0], [0.0, 1.0]]))


class TestGaussConstants:
    """A Gaussian detector is rejected at construction unless 1/(2 sigma^2)
    and log(2 pi sigma^2) are finite at every floored sigma, so no score
    comes out inf or nan; the message names the floor when the floor set the
    sigma at fault."""

    def test_floor_whose_square_overflows(self):
        with pytest.raises(ValueError, match=r"^sigma_floor 1e\+200 makes 1/\(2 sigma\^2\) or log"):
            GaussDetector(np.zeros(2), np.ones(2), sigma_floor=1e200)

    def test_floor_whose_square_underflows(self):
        with pytest.raises(ValueError, match=r"^sigma_floor 1e-200 makes 1/\(2 sigma\^2\) or log"):
            GaussDetector(np.zeros(2), np.array([1e-200, 1.0]), sigma_floor=1e-200)

    def test_sigma_above_the_floor_is_named_by_feature(self):
        with pytest.raises(ValueError, match=r"^sigma\[1\] 1e\+200 makes"):
            GaussDetector(np.zeros(2), np.array([1.0, 1e200]))

    def test_finite_extremes_are_kept(self):
        det = GaussDetector(np.zeros(2), np.array([1e-150, 1e150]), sigma_floor=1e-150)
        assert np.all(np.isfinite(det.alpha(np.zeros(2))))


class TestGaussAlphaBatch:
    def test_matches_the_workspace_path_and_lone_rows_bit_for_bit(self):
        g = stream(2, "gauss-batch")
        det = fit_gauss(g.standard_normal((50, 6)) * 3.0 + 1.0)
        x = g.standard_normal((40, 6)) * 4.0
        got = det.alpha_batch(x)
        assert np.array_equal(got, det.alpha_with_vjp(x, det.workspace(40))[0])
        for row, alpha in zip(x, got, strict=True):
            assert np.array_equal(alpha, det.alpha(row))

    def test_allocates_one_batch_sized_array(self):
        # (400, 128) float64 is 400 KiB; the workspace held seven such arrays.
        det = fit_gauss(stream(3, "gauss-fit").standard_normal((50, 128)))
        x = stream(3, "gauss-x").standard_normal((400, 128))
        det.alpha_batch(x)
        tracemalloc.start()
        try:
            det.alpha_batch(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * x.nbytes


class TestScore:
    def test_identity_autoencoder_scores_zero(self):
        det = identity_recon(3)
        s = det.score(np.array([5.0, -1.0, 0.5]))
        assert np.allclose(s.alpha, 0.0)
        assert s.total == 0.0 and s.beta == 0.0

    def test_gauss_closed_form(self):
        det = GaussDetector(mu=np.zeros(2), sigma=np.ones(2))
        # Unit-variance log term is log(2*pi)/2; the quadratic adds z^2/2.
        base = 0.5 * math.log(2.0 * math.pi)
        s0 = det.score(np.array([0.0, 0.0]))
        assert np.allclose(s0.alpha, base, atol=1e-12)
        s1 = det.score(np.array([1.0, 0.0]))
        assert np.allclose(s1.alpha[0], base + 0.5, atol=1e-12)

    def test_dimension_mismatch(self):
        det = GaussDetector(mu=np.zeros(2), sigma=np.ones(2))
        with pytest.raises(ValueError, match="dimension"):
            det.score(np.zeros(3))

    def test_decomposable_score_validates_total(self):
        with pytest.raises(ValueError, match="decompose"):
            DecomposableScore(alpha=np.array([1.0, 2.0]), beta=0.0, total=4.0)


class TestRegionScore:
    def setup_method(self):
        self.det = GaussDetector(mu=np.zeros(3), sigma=np.ones(3))

    def test_masked_sum(self):
        class Stub(GaussDetector):
            def alpha(self, x):
                return np.array([1.0, 2.0, 3.0])

        stub = Stub(mu=np.zeros(3), sigma=np.ones(3))
        assert stub.region_score(np.zeros(3), [1, 0, 1]) == pytest.approx(4.0)

    def test_full_region_equals_total(self):
        x = np.array([0.3, -0.7, 1.2])
        assert self.det.region_score(x, np.ones(3)) == pytest.approx(self.det.score(x).total)

    def test_empty_region_equals_beta(self):
        x = np.array([0.3, -0.7, 1.2])
        assert self.det.region_score(x, np.zeros(3)) == pytest.approx(0.0)

    def test_non_binary_mask_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            self.det.region_score(np.zeros(3), [0.5, 0, 1])


class TestCalibrateAndBinarize:
    def test_type7_quantile_values(self):
        scores = np.arange(1.0, 11.0).reshape(-1, 1)
        tau = calibrate_thresholds(scores, q=0.9)
        assert tau[0] == pytest.approx(type7_quantile(scores.ravel(), 0.9))
        assert tau[0] == pytest.approx(9.1)
        assert calibrate_thresholds(np.array([[1.0], [3.0]]), q=0.5)[0] == pytest.approx(2.0)

    def test_constant_scores(self):
        det = fit_gauss(np.full((5, 2), 7.0))
        tau = calibrate_thresholds(det.alpha_batch(np.full((5, 2), 7.0)), q=0.9)
        alpha = det.alpha(np.full(2, 7.0))
        assert np.allclose(tau, alpha)

    def test_quantile_range_checked(self):
        det = fit_gauss(np.zeros((3, 1)))
        with pytest.raises(ValueError, match="quantile"):
            calibrate_thresholds(det.alpha_batch(np.zeros((3, 1))), q=1.0)

    def test_binarize_inclusive(self):
        mask = binarize(np.array([0.1, 0.9, 0.5]), np.array([0.5, 0.5, 0.5]))
        assert np.array_equal(mask, [0.0, 1.0, 1.0])

    def test_binarize_all_below(self):
        assert np.array_equal(binarize(np.array([0.1, 0.2]), np.array([1.0, 1.0])), [0.0, 0.0])

    def test_binarize_boundary_flags(self):
        assert np.array_equal(binarize(np.array([0.5]), np.array([0.5])), [1.0])

    def test_binarize_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            binarize(np.array([1.0]), np.array([1.0, 2.0]))

    def test_training_flag_rate_near_quantile(self):
        g = stream(5, "flag-rate")
        train = g.standard_normal((200, 6))
        det = fit_gauss(train)
        tau = calibrate_thresholds(det.alpha_batch(train), q=0.9)
        flags = det.alpha_batch(train) >= tau
        per_coord = flags.mean(axis=0)
        assert np.all(per_coord <= 0.1 + 2.0 / 200)


class TestGradients:
    def test_gauss_gradient_closed_form(self):
        det = GaussDetector(mu=np.zeros(1), sigma=np.ones(1))
        grad = det.grad_region_score(np.array([2.0]), np.ones(1))
        assert np.allclose(grad, [2.0])

    def test_empty_region_zero_gradient(self):
        det = GaussDetector(mu=np.zeros(4), sigma=np.ones(4))
        assert np.array_equal(det.grad_region_score(np.ones(4), np.zeros(4)), np.zeros(4))

    def test_identity_recon_zero_gradient(self):
        det = identity_recon(3)
        assert np.allclose(det.grad_region_score(np.array([1.0, -2.0, 0.3]), np.ones(3)), 0.0)

    @pytest.mark.parametrize("make", [lambda: fit_gauss(stream(1, "g").standard_normal((50, 5)) + 1.0),
                                      lambda: random_recon(5)])
    def test_gradient_matches_finite_differences(self, make):
        det = make()
        g = stream(8, "region-fd")
        worst = 0.0
        for _ in range(25):
            x = g.standard_normal(5)
            z = (g.random(5) < 0.5).astype(np.float64)
            grad = det.grad_region_score(x, z)
            fd = central_diff(lambda v: det.region_score(v, z), x)
            worst = max(worst, max_rel_err(grad, fd))
        assert worst <= 1e-6


class TestDecompositionInvariants:
    @pytest.mark.parametrize("make", [lambda: fit_gauss(stream(2, "d").standard_normal((80, 6))),
                                      lambda: random_recon(6, seed=4)])
    def test_decomposability_random_inputs(self, make):
        det = make()
        g = stream(3, "decomp")
        for _ in range(200):
            s = det.score(g.standard_normal(6))
            assert abs(s.total - (s.alpha.sum() + s.beta)) <= 1e-9 * (1.0 + abs(s.total))

    def test_region_additivity(self):
        det = fit_gauss(stream(4, "ra").standard_normal((60, 5)))
        g = stream(5, "ra2")
        for _ in range(100):
            x = g.standard_normal(5)
            z = (g.random(5) < 0.5).astype(np.float64)
            s = det.score(x)
            lhs = det.region_score(x, z) + det.region_score(x, 1.0 - z)
            assert lhs == pytest.approx(s.total + s.beta, rel=1e-12, abs=1e-12)

    def test_region_monotonicity_recon(self):
        det = random_recon(5, seed=6)
        g = stream(6, "mono")
        for _ in range(50):
            x = g.standard_normal(5)
            z = (g.random(5) < 0.4).astype(np.float64)
            bigger = np.clip(z + (g.random(5) < 0.4), 0.0, 1.0)
            assert det.region_score(x, z) <= det.region_score(x, bigger) + 1e-12


class TestFitRecon:
    def test_overfits_single_vector(self):
        target = np.array([0.3, -0.8, 0.5, 1.1])
        train = np.tile(target, (200, 1))
        det = fit_recon(train, DetectorConfig(hidden=(16,), steps=800, lr=1e-2), seed=0)
        assert float(det.alpha(target).mean()) < 1e-3

    def test_training_reduces_error(self):
        g = stream(9, "recon-train")
        train = g.standard_normal((120, 6)) * 0.3 + np.array([1.0, -1.0, 0.5, 0.0, 2.0, -0.5])
        cfg = DetectorConfig(hidden=(12, 4, 12), steps=600, lr=3e-3)
        trained = fit_recon(train, cfg, seed=1)
        untrained = ReconDetector(Mlp(6, [12, 4, 12], 6, seed=1, stream_name="recon-init"))
        assert trained.alpha_batch(train).mean() < untrained.alpha_batch(train).mean()

    def test_inference_dimension_checked(self):
        det = fit_recon(np.zeros((10, 3)) + 0.5, DetectorConfig(hidden=(4,), steps=10), seed=0)
        with pytest.raises(ValueError, match="dimension"):
            det.score(np.zeros(4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_recon(np.zeros((0, 3)))

    def test_diverged_fit_rejected(self):
        train = stream(6, "diverge").standard_normal((40, 5))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="non-finite parameter"):
            fit_recon(train, DetectorConfig(hidden=(4,), steps=20, lr=1e307), seed=0)


class TestCheckpoints:
    def test_gauss_round_trip(self, tmp_path):
        det = fit_gauss(stream(10, "ck").standard_normal((40, 4)) * 2.0 + 1.0)
        path = tmp_path / "detector.json"
        det.save(path)
        loaded = load_detector(path)
        x = stream(11, "ckx").standard_normal(4)
        assert np.array_equal(det.alpha(x), loaded.alpha(x))

    def test_recon_round_trip(self, tmp_path):
        det = random_recon(4, seed=8)
        path = tmp_path / "detector.json"
        det.save(path)
        loaded = load_detector(path)
        x = stream(12, "ckx").standard_normal(4)
        assert np.array_equal(det.alpha(x), loaded.alpha(x))
