import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

import arpro.repair
from arpro.detector import (
    GaussDetector,
    ReconDetector,
    ReconTrainConfig,
    binarize,
    calibrate_thresholds,
    fit_gauss,
    fit_recon,
)
from arpro.diffusion import Denoiser, DiffusionTrainConfig, make_schedule, posterior_mean, predict_mu, train_denoiser
from arpro.harness import image_benchmark_config, timeseries_benchmark_config
from arpro.properties import L2_SMOOTH_EPS, GuidanceState, PropertyWeights
from arpro.repair import (
    RepairConfig,
    RepairRow,
    baseline_repair,
    guided_repair,
    make_guidance_schedule,
    repair_batch,
)
from arpro.tensor import Mlp, Workspace, stream

MODES = ["level-matched", "paper-literal"]


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
    tau = calibrate_thresholds(det.alpha_batch(train), 0.9)
    omega = binarize(det.score(x_bad), tau)
    assert omega.sum() >= 1
    return det, den, sched, x_bad, omega


class TestGuidanceSchedule:
    def test_linear_ramp(self):
        assert np.allclose(make_guidance_schedule(3, 0.0, 1.0), [0.0, 0.5, 1.0])

    def test_all_zero(self):
        assert np.array_equal(make_guidance_schedule(4, 0.0, 0.0), np.zeros(4))

    def test_single_step_takes_endpoint(self):
        eta = make_guidance_schedule(1, 0.2, 0.7)
        assert len(eta) == 1 and np.array_equal(eta, [0.7])

    def test_negative_rejected(self):
        for start, end in ((-0.1, 0.5), (0.5, 0.1), (float("nan"), 0.5), (0.0, float("nan"))):
            with pytest.raises(ValueError, match="need 0 <= eta_start <= eta_end"):
                make_guidance_schedule(3, start, end)


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


def _ancestral_sample(den, seed: int, tag: str):
    """The ancestral sampler written out: x_T from `{tag}/init`, then at each
    step the posterior mean plus sigma_t z from `{tag}/z`, with no noise at t=1."""
    sched = den.schedule
    init, zs = stream(seed, f"{tag}/init"), stream(seed, f"{tag}/z")
    x = init.standard_normal(den.n)
    for t in range(sched.T, 0, -1):
        mu = posterior_mean(x, den.net.forward_np(x, t), sched.b[t - 1], sched.a[t - 1])
        x = mu + sched.sigma[t - 1] * zs.standard_normal(den.n) if t > 1 else mu
    return x


class TestFullMaskIsAncestralSampling:
    """With a mask over every coordinate the baseline repair is the ancestral
    sampler: the target is never blended back in, so the iterate is the
    posterior mean plus noise at every step."""

    @pytest.mark.parametrize("mode", MODES)
    def test_single_rows(self, small_world, mode):
        det, den, sched, x_bad, _ = small_world
        for seed in range(5):
            cfg = RepairConfig(seed=seed, stream_tag="anc", infill_mode=mode)
            out = baseline_repair(det, den, sched, x_bad, np.ones(8), cfg)
            assert np.array_equal(out.x_fix, _ancestral_sample(den, seed, "anc")), seed

    @pytest.mark.parametrize("mode", MODES)
    def test_mixed_batch(self, small_world, mode):
        det, den, sched, x_bad, omega = small_world
        g = stream(53, "ancestral-batch")
        rows = [RepairRow(x_bad + g.standard_normal(8), np.ones(8),
                          RepairConfig(seed=seed, stream_tag=f"anc{seed % 3}", infill_mode=mode).unguided())
                for seed in range(6)]
        # A guided partial-mask row in the same batch leaves the others alone.
        rows.insert(2, RepairRow(x_bad, omega, RepairConfig(seed=1, stream_tag="anc1", eta_end=0.1,
                                                            infill_mode=mode)))
        results = repair_batch(det, den, sched, rows)
        for row, result in zip(rows, results):
            if not result.guided:
                assert np.array_equal(result.x_fix, _ancestral_sample(den, row.cfg.seed, row.cfg.stream_tag))


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
        cfg = RepairConfig(seed=0, stream_tag="inst3", eta_start=1e6, eta_end=1e9, lambda1=1e6)
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
                    "guided", "trajectory_hash"}
        assert set(payload) == expected
        assert payload["seed"] == 1 and payload["guided"] is False


@pytest.fixture(scope="module", params=["gauss", "recon"])
def batch_world(request):
    """An 8-dim world with either detector and three anomalous targets."""
    g = stream(52, "batch-world")
    mu = g.uniform(-1.0, 1.0, size=8)
    train = mu + 0.5 * g.standard_normal((150, 8))
    if request.param == "gauss":
        det = fit_gauss(train)
    else:
        det = fit_recon(train, ReconTrainConfig(hidden=(16, 4, 16), steps=300), seed=52)
    sched = make_schedule(20)
    den = train_denoiser(train, sched, DiffusionTrainConfig(hidden=(32, 32), time_embed=8, steps=200), seed=52)
    tau = calibrate_thresholds(det.alpha_batch(train), 0.9)
    targets = []
    for i in range(3):
        x_bad = train[i].copy()
        x_bad[2 * i] += 3.0
        x_bad[7 - i] -= 2.5
        omega = binarize(det.score(x_bad), tau)
        assert omega.sum() >= 1
        targets.append((x_bad, omega))
    return det, den, sched, targets


class TestBatchContract:
    @pytest.mark.parametrize("mode", MODES)
    def test_row_alone_matches_row_in_mixed_batch(self, batch_world, mode):
        # Several instances, both arms and two settings (weights and ramp start)
        # in one batch; the guided subset changes size at t=1.
        det, den, sched, targets = batch_world
        settings = [({}, 0.0), ({"lambda1": 3.0, "lambda2": 0.5}, 0.02)]
        arms = [
            (x_bad, omega, RepairConfig(**w, eta_start=start, eta_end=0.1, infill_mode=mode,
                                        seed=3, stream_tag=f"inst{i}"), guided)
            for w, start in settings
            for i, (x_bad, omega) in enumerate(targets)
            for guided in (False, True)
        ]
        rows = [RepairRow(x_bad, omega, cfg if guided else cfg.unguided()) for x_bad, omega, cfg, guided in arms]
        batch = repair_batch(det, den, sched, rows)
        assert len({result.seconds for result in batch}) == 1
        for (x_bad, omega, cfg, guided), got in zip(arms, batch, strict=True):
            runner = guided_repair if guided else baseline_repair
            alone = runner(det, den, sched, x_bad, omega, cfg)
            assert got.trajectory_hash == alone.trajectory_hash
            assert np.array_equal(got.x_fix, alone.x_fix)
            assert got.loss == alone.loss and got.metrics == alone.metrics
            assert got.guided == guided

    @pytest.mark.parametrize("mode", MODES)
    def test_zero_guidance_rows_equal_their_baseline_rows(self, batch_world, mode):
        det, den, sched, targets = batch_world
        # Zero-ramp rows, in a batch with a guided row, against baseline repairs of guided settings alone.
        cfgs = [RepairConfig(eta_end=0.1, infill_mode=mode, seed=4, stream_tag=f"inst{i}") for i in range(len(targets))]
        rows = [RepairRow(x_bad, omega, cfg.unguided()) for cfg, (x_bad, omega) in zip(cfgs, targets)]
        rows.append(RepairRow(*targets[0], cfgs[0]))
        results = repair_batch(det, den, sched, rows)
        for cfg, (x_bad, omega), zero in zip(cfgs, targets, results[:-1], strict=True):
            base = baseline_repair(det, den, sched, x_bad, omega, cfg)
            assert zero.trajectory_hash == base.trajectory_hash
            assert np.array_equal(zero.x_fix, base.x_fix)
            assert not zero.guided
        assert results[-1].trajectory_hash != results[0].trajectory_hash

    @pytest.mark.parametrize("mode", MODES)
    def test_diverging_row_raises_with_its_tag(self, batch_world, mode):
        det, den, sched, targets = batch_world
        rows = [RepairRow(x_bad, omega, RepairConfig(eta_end=0.1, infill_mode=mode, stream_tag=f"inst{i}"))
                for i, (x_bad, omega) in enumerate(targets)]
        x_bad, omega = targets[1]
        rows.insert(2, RepairRow(x_bad, omega, RepairConfig(
            eta_start=1e9, eta_end=1e12, lambda1=1e12, infill_mode=mode, stream_tag="boom")))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the loop reports divergence itself, not through numpy warnings
            with pytest.raises(ValueError, match=r"repair boom: iterate became non-finite at step t=\d+"):
                repair_batch(det, den, sched, rows)

    def test_mixed_infill_modes_rejected(self, small_world):
        det, den, sched, x_bad, omega = small_world
        rows = [RepairRow(x_bad, omega, RepairConfig(infill_mode=mode)) for mode in MODES]
        with pytest.raises(ValueError, match="infill mode"):
            repair_batch(det, den, sched, rows)

    def test_empty_batch_rejected(self, small_world):
        det, den, sched, _, _ = small_world
        with pytest.raises(ValueError, match="at least one row"):
            repair_batch(det, den, sched, [])


def _random_world(seed: int, kind: str):
    """A world of random size with an untrained denoiser, a few targets and
    random anomaly masks (each flags at least one coordinate). The invariants
    below hold whatever the models learned."""
    g = stream(seed, f"invariant-world-{kind}")
    n = int(g.integers(2, 10))
    train = g.standard_normal((30, n))
    if kind == "gauss":
        det = fit_gauss(train)
    else:
        det = ReconDetector(Mlp(n, [int(g.integers(2, 12))], n, seed=seed, stream_name="recon-init"))
    sched = make_schedule(int(g.integers(4, 16)))
    den = Denoiser(Mlp(n, [int(g.integers(2, 12))], n, time_embed=4, seed=seed), sched)
    rows = int(g.integers(1, 5))
    x_bad = train[:rows] + g.normal(0.0, 2.0, size=(rows, n))
    omega = (g.random((rows, n)) < 0.5).astype(np.float64)
    omega[np.arange(rows), g.integers(0, n, size=rows)] = 1.0
    return g, det, den, sched, x_bad, omega


INVARIANT_SEEDS = range(12)
KINDS = ["gauss", "recon"]


class TestSeededInvariants:
    """Seeded loops over random sizes, both detectors and both infill modes."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_decomposability(self, kind):
        for seed in INVARIANT_SEEDS:
            _, det, _, _, x_bad, omega = _random_world(seed, kind)
            for x, z in zip(x_bad, omega):
                s = det.score(x)
                assert abs(s.total - (s.alpha.sum() + s.beta)) <= 1e-9 * (1.0 + abs(s.total))
                split = det.region_score(x, z) + det.region_score(x, 1.0 - z)
                assert split == pytest.approx(s.total + s.beta, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_mask_preservation_and_arm_pairing(self, kind, mode):
        for seed in INVARIANT_SEEDS:
            g, det, den, sched, x_bad, omega = _random_world(seed, kind)
            eta_end = float(g.uniform(0.01, 0.1))
            rows = []
            for i, (xb, z) in enumerate(zip(x_bad, omega)):
                def cfg(end):
                    return RepairConfig(eta_end=end, infill_mode=mode, seed=seed, stream_tag=f"inst{i}")
                rows += [RepairRow(xb, z, cfg(eta_end).unguided()),
                         RepairRow(xb, z, cfg(0.0)),
                         RepairRow(xb, z, cfg(eta_end))]
            results = repair_batch(det, den, sched, rows)
            for base, zero, guided, xb, z in zip(results[0::3], results[1::3], results[2::3], x_bad, omega):
                assert zero.trajectory_hash == base.trajectory_hash
                assert np.array_equal(zero.x_fix, base.x_fix)
                if mode == "level-matched":
                    keep = z == 0.0
                    for result in (base, zero, guided):
                        assert np.array_equal(result.x_fix[keep], xb[keep])


# Batch heights around BLAS blocking boundaries, up to the largest batch the
# benchmark configs build (2 arms x 50 instances, or an ablation sweep).
HEIGHTS = (2, 3, 4, 5, 7, 8, 9, 12, 16, 17, 24, 31, 32, 33, 47, 48, 49, 64, 65,
           96, 100, 127, 128, 129, 192, 200, 255, 256, 257, 300)


def _benchmark_nets():
    """Randomly initialised networks with the shapes of the benchmark models:
    both denoisers and the image autoencoder."""
    ts, image = timeseries_benchmark_config(), image_benchmark_config()
    n_ts = ts.data.n_features * ts.data.window_len
    n_image = image.data.side ** 2
    nets = {
        "ts-denoiser": Mlp(n_ts, ts.diffusion.hidden, n_ts, time_embed=ts.diffusion.time_embed, seed=1),
        "image-denoiser": Mlp(n_image, image.diffusion.hidden, n_image,
                              time_embed=image.diffusion.time_embed, seed=2),
        "image-autoencoder": Mlp(n_image, image.detector.hidden, n_image, seed=3),
    }
    for name, net in nets.items():
        g = stream(9, f"bias-{name}")
        for b in net.biases:
            b[...] = 0.1 * g.standard_normal(b.shape)
    return nets


BENCHMARK_NETS = _benchmark_nets()


class TestBatchHeightsAtBenchmarkShapes:
    """The batch contract rests on BLAS giving each row of a product the same
    bits at every batch height; these tests pin that down for the shapes the
    benchmarks run, so a BLAS or CPU that breaks it fails here by name."""

    @pytest.mark.parametrize("name", sorted(BENCHMARK_NETS))
    def test_forward_rows_do_not_depend_on_batch_height(self, name):
        net = BENCHMARK_NETS[name]
        x = stream(10, f"heights-{name}").standard_normal((HEIGHTS[-1], net.in_dim))
        t = 37 if net.time_embed else None

        def one_pass(rows):
            # A one-off forward would split the taller heights into chunks.
            return net.forward_np(rows, t, ws=Workspace(net, len(rows), steps=100)).copy()

        full = one_pass(x)
        for height in HEIGHTS[:-1]:
            assert np.array_equal(one_pass(x[:height]), full[:height]), height
        assert np.array_equal(one_pass(x[:1]), full[:1])
        assert np.array_equal(net.forward_np(x[0], t), full[0])

    def test_recon_guidance_rows_do_not_depend_on_batch_height(self):
        det = ReconDetector(BENCHMARK_NETS["image-autoencoder"])
        n, rows = det.n, HEIGHTS[-1]
        g = stream(11, "recon-guidance-heights")
        x = g.standard_normal((rows, n))
        x_bad = g.standard_normal((rows, n))
        omega = (g.uniform(size=(rows, n)) < 0.1).astype(np.float64)
        alpha_bad = det.alpha_batch(x_bad)
        per_row = (
            x, x_bad, omega, 1.0 - omega,
            (alpha_bad * omega).sum(axis=1, keepdims=True),
            (alpha_bad * (1.0 - omega)).sum(axis=1, keepdims=True),
            g.uniform(0.0, 1.0, size=(rows, 1)),
            *(g.uniform(0.1, 2.0, size=(rows, 1)) for _ in range(4)),
        )

        def guide(x, x_bad, omega, omega_bar, s_om_bad, s_ob_bad, delta4, *lambdas):
            return guidance_grad(det, x, x_bad, omega, (omega_bar, s_om_bad, s_ob_bad), delta4, lambdas)

        full = guide(*per_row)
        for height in HEIGHTS[:-1]:
            assert np.array_equal(guide(*(a[:height] for a in per_row)), full[:height]), height
        assert np.array_equal(guide(*(a[:1] for a in per_row)), full[:1])

    def test_lone_recon_score_matches_its_row_of_alpha_batch(self):
        det = ReconDetector(BENCHMARK_NETS["image-autoencoder"])
        x = stream(12, "recon-lone-score").standard_normal((HEIGHTS[-1], det.n))
        full = det.alpha_batch(x)
        for row in (0, 1, HEIGHTS[-1] - 1):
            assert np.array_equal(det.score(x[row]).alpha, full[row]), row



def _step_by_step_repair(det, den, sched, rows):
    """The reference loop: one noise draw per stream and one hash update per
    row at every step. Returns (x_fix, trajectory hashes, trajectories)."""
    n = det.n
    x_bad = np.stack([row.x_bad for row in rows])
    omega = np.stack([row.omega for row in rows])
    omega_bar = 1.0 - omega
    eta = np.stack([make_guidance_schedule(sched.T, row.cfg.eta_start, row.cfg.eta_end) for row in rows])
    alpha_bad, beta_bad = det.alpha_batch(x_bad), det.beta_value(x_bad)
    s_om_bad = beta_bad + (alpha_bad * omega).sum(axis=1, keepdims=True)
    s_ob_bad = beta_bad + (alpha_bad * omega_bar).sum(axis=1, keepdims=True)
    delta4 = np.array([[row.cfg.delta4] for row in rows])
    lambdas = [np.array([[getattr(row.cfg, f"lambda{k}")] for row in rows]) for k in range(1, 5)]
    keys = list(dict.fromkeys((row.cfg.seed, row.cfg.stream_tag) for row in rows))
    owner = np.array([keys.index((row.cfg.seed, row.cfg.stream_tag)) for row in rows])

    def draws(name):
        generators = [stream(seed, f"{tag}/{name}") for seed, tag in keys]
        return lambda: np.stack([g.standard_normal(n) for g in generators])[owner]

    init, z, eps = draws("init"), draws("z"), draws("eps")
    hashers = [hashlib.sha256() for _ in rows]
    steps = [[] if row.cfg.record_trajectory else None for row in rows]

    def update_hashes(x):
        for hasher, row in zip(hashers, np.ascontiguousarray(x, dtype="<f8")):
            hasher.update(row)

    level_matched = rows[0].cfg.infill_mode == "level-matched"
    x = init()
    update_hashes(x)
    for t in range(sched.T, 0, -1):
        xhat = predict_mu(den, x, t)
        if t > 1:
            xhat = xhat + sched.sigma[t - 1] * z()
        sel = np.flatnonzero(eta[:, t - 1])
        if sel.size:
            grad = guidance_grad(det, x[sel], x_bad[sel], omega[sel],
                                 (omega_bar[sel], s_om_bad[sel], s_ob_bad[sel]),
                                 delta4[sel], [lam[sel] for lam in lambdas])
            xhat[sel] = xhat[sel] - eta[sel, t - 1, None] * grad
        eps_t = eps()
        level = t - 1 if level_matched else t
        if level == 0:
            x_bad_level = x_bad
        else:
            x_bad_level = np.sqrt(sched.a)[level - 1] * x_bad + np.sqrt(1.0 - sched.a)[level - 1] * eps_t
        x = omega_bar * x_bad_level + omega * xhat
        update_hashes(x)
        for r, trajectory in enumerate(steps):
            if trajectory is not None:
                trajectory.append((t, x_bad_level[r].copy(), x[r].copy()))
    return x, [hasher.hexdigest() for hasher in hashers], steps


class TestBlockedNoiseAndHashes:
    """Noise drawn and iterates hashed in blocks give the step-by-step bits,
    for step counts below, at and around the block length."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("T", [1, 9, 10, 11, 23])
    def test_matches_step_by_step_loop(self, T, mode):
        g = stream(T, "blocked-world")
        n = 8
        train = g.standard_normal((40, n))
        det = fit_gauss(train)
        sched = make_schedule(T)
        den = Denoiser(Mlp(n, [16], n, time_embed=4, seed=T), sched)
        rows = []
        for i in range(3):
            x_bad = train[i] + g.normal(0.0, 2.0, size=n)
            omega = (g.random(n) < 0.5).astype(np.float64)
            omega[i] = 1.0
            for guided in (False, True):
                cfg = RepairConfig(eta_end=0.05, infill_mode=mode, seed=5, stream_tag=f"inst{i}",
                                   record_trajectory=(i, guided) == (1, True))
                rows.append(RepairRow(x_bad, omega, cfg if guided else cfg.unguided()))
        results = repair_batch(det, den, sched, rows)
        x_fix, hashes, steps = _step_by_step_repair(det, den, sched, rows)
        for r, result in enumerate(results):
            assert np.array_equal(result.x_fix, x_fix[r])
            assert result.trajectory_hash == hashes[r]
            if steps[r] is None:
                assert result.trajectory is None
            else:
                assert len(result.trajectory) == T
                for (t, level, x), (t_ref, level_ref, x_ref) in zip(result.trajectory, steps[r], strict=True):
                    assert t == t_ref
                    assert np.array_equal(level, level_ref) and np.array_equal(x, x_ref)


    @pytest.mark.parametrize("mode", MODES)
    def test_guided_set_change_refreshes_gathered_operands(self, mode):
        # A ramp that starts at 0 is zero at t=1, so rows 0 and 2 have weight
        # 0 at the last step while rows 1 and 3 do not; every row has its own
        # target, mask, weights and delta4.
        T, n = 12, 8
        g = stream(T, "guided-set-world")
        train = g.standard_normal((40, n))
        det = fit_gauss(train)
        sched = make_schedule(T)
        den = Denoiser(Mlp(n, [16], n, time_embed=4, seed=3), sched)
        rows = []
        for i, eta_start in enumerate((0.0, 0.02, 0.0, 0.01)):
            x_bad = train[i] + g.normal(0.0, 2.0, size=n)
            omega = (g.random(n) < 0.5).astype(np.float64)
            omega[i] = 1.0
            cfg = RepairConfig(lambda1=1.0 + i, lambda2=0.5 * i, lambda3=1.0, lambda4=2.0 - 0.5 * i,
                               delta4=0.1 * i, eta_start=eta_start, eta_end=0.05 + 0.01 * i,
                               infill_mode=mode, seed=7, stream_tag=f"inst{i}", record_trajectory=i == 2)
            rows += [RepairRow(x_bad, omega, cfg.unguided()), RepairRow(x_bad, omega, cfg)]
        guided_at = [{r for r, row in enumerate(rows)
                      if make_guidance_schedule(T, row.cfg.eta_start, row.cfg.eta_end)[t - 1] > 0.0}
                     for t in (2, 1)]
        assert guided_at == [{1, 3, 5, 7}, {3, 7}]
        results = repair_batch(det, den, sched, rows)
        x_fix, hashes, steps = _step_by_step_repair(det, den, sched, rows)
        for r, result in enumerate(results):
            assert np.array_equal(result.x_fix, x_fix[r])
            assert result.trajectory_hash == hashes[r]
            assert (result.trajectory is None) == (steps[r] is None)
            for (t, level, x), (t_ref, level_ref, x_ref) in zip(result.trajectory or (), steps[r] or (), strict=True):
                assert t == t_ref
                assert np.array_equal(level, level_ref) and np.array_equal(x, x_ref)


class TestFinalIterateBound:
    def test_huge_finite_iterate_raises_with_its_tag(self, small_world):
        det, _, sched, x_bad, omega = small_world
        net = Mlp(8, [8], 8, time_embed=8, seed=1)
        for w in net.weights:
            w[...] = 0.0
        net.biases[-1][...] = 1e150  # every noise prediction is 1e150: huge, yet finite at every step
        with pytest.raises(ValueError, match=r"repair huge: the final iterate has a coordinate beyond ±1e\+10"):
            guided_repair(det, Denoiser(net, sched), sched, x_bad, omega, RepairConfig(stream_tag="huge"))


def guidance_grad(det, x, x_bad, omega, regions, delta4, lambdas):
    """The guidance gradient at `x`, one vector or a batch of rows, from a
    `GuidanceState` built for its rows and called once."""
    state = GuidanceState(det, len(x) if np.ndim(x) == 2 else 1, x_bad, omega, regions, delta4, lambdas)
    np.copyto(state.x, x)
    return state.grad().reshape(np.shape(x))


def _expression_guidance(det, x, x_bad, omega, regions, delta4, lambdas):
    """The guidance gradient as plain expressions, each allocating its
    result; `GuidanceState.grad` must give the same bits."""
    lambda1, lambda2, lambda3, lambda4 = lambdas
    omega_bar, s_om_bad, s_ob_bad = regions
    beta = det.beta_value(x)
    alpha, vjp = det.alpha_with_vjp(x)
    on3 = ((alpha * omega).sum(axis=-1, keepdims=True) + beta - s_om_bad > 0.0).astype(np.float64)
    on4 = ((alpha * omega_bar).sum(axis=-1, keepdims=True) + beta - s_ob_bad - delta4 > 0.0).astype(np.float64)
    g_alpha = (lambda1 + lambda3 * on3 * omega) + lambda4 * on4 * omega_bar
    masked = (x - x_bad) * omega_bar
    root = np.sqrt((masked * masked).sum(axis=-1, keepdims=True) + L2_SMOOTH_EPS)
    g_l2 = lambda2 / (2.0 * root) * 2.0 * masked * omega_bar
    return vjp(g_alpha, g_l2)


def _benchmark_detectors():
    """A Gaussian detector of the time-series benchmark's dimension and the
    image benchmark's autoencoder."""
    g = stream(13, "benchmark-gauss")
    n_ts = BENCHMARK_NETS["ts-denoiser"].in_dim
    return {
        "gauss": fit_gauss(g.uniform(-1.0, 1.0, size=n_ts) + 0.5 * g.standard_normal((200, n_ts))),
        "recon": ReconDetector(BENCHMARK_NETS["image-autoencoder"]),
    }


BENCHMARK_DETECTORS = _benchmark_detectors()


def _guidance_operands(det, rows: int, seed: int):
    """Random iterates and per-row guidance operands for `rows` rows, in
    `guidance_grad`'s order after `x`; the target's region scores are scaled
    by 0.8 to 1.6, so each hinge is on for some rows and off for others."""
    n = det.n
    g = stream(seed, f"guidance-operands-{rows}")
    x_bad = g.standard_normal((rows, n))
    omega = (g.uniform(size=(rows, n)) < 0.2).astype(np.float64)
    alpha_bad = det.alpha_batch(x_bad)
    regions = (1.0 - omega,
               (alpha_bad * omega).sum(axis=1, keepdims=True) * g.uniform(0.8, 1.6, size=(rows, 1)),
               (alpha_bad * (1.0 - omega)).sum(axis=1, keepdims=True) * g.uniform(0.8, 1.6, size=(rows, 1)))
    lambdas = [g.uniform(0.1, 2.0, size=(rows, 1)) for _ in range(4)]
    iterates = [x_bad + g.normal(0.0, 0.5, size=(rows, n)) for _ in range(3)]
    return iterates, (x_bad, omega, regions, g.uniform(0.0, 1.0, size=(rows, 1)), lambdas)


def _select(operands, keep):
    x_bad, omega, regions, delta4, lambdas = operands
    return (x_bad[keep], omega[keep], tuple(a[keep] for a in regions), delta4[keep], [lam[keep] for lam in lambdas])


class TestGuidanceState:
    """A repair builds one `GuidanceState` for its guided rows and calls it at
    every guided reverse step; the reused buffers must give the bits of
    states built for one call (`guidance_grad` above) and of the plain
    expressions."""

    @pytest.mark.parametrize("rows", [1, 2, 5, 20])
    @pytest.mark.parametrize("kind", KINDS)
    def test_reused_state_matches_one_off_calls(self, kind, rows):
        det = BENCHMARK_DETECTORS[kind]
        iterates, operands = _guidance_operands(det, rows, seed=rows)
        state = GuidanceState(det, rows, *operands)
        # A state of every other row gives those rows the same bits.
        keep = np.arange(0, rows, 2)
        shrunk = GuidanceState(det, keep.size, *_select(operands, keep))
        for x in iterates:
            for st, x_rows, ops in ((state, x, operands), (shrunk, x[keep], _select(operands, keep))):
                np.copyto(st.x, x_rows)
                grad = st.grad().copy()
                assert np.array_equal(grad, guidance_grad(det, x_rows, *ops))
                assert np.array_equal(grad, _expression_guidance(det, x_rows, *ops))

    @pytest.mark.parametrize("kind", KINDS)
    def test_vector_call_matches_its_row(self, kind):
        det = BENCHMARK_DETECTORS[kind]
        iterates, operands = _guidance_operands(det, 3, seed=4)
        x_bad, omega, regions, delta4, lambdas = operands
        grad = guidance_grad(det, iterates[0], *operands)
        vector = guidance_grad(det, iterates[0][1], x_bad[1], omega[1],
                               (regions[0][1], float(regions[1][1, 0]), float(regions[2][1, 0])),
                               float(delta4[1, 0]), [float(lam[1, 0]) for lam in lambdas])
        assert vector.shape == (det.n,)
        assert np.array_equal(vector, grad[1])

    @pytest.mark.parametrize("height", [1, 2, 5, 20])
    @pytest.mark.parametrize("kind", KINDS)
    def test_repair_matches_step_by_step_loop(self, kind, height):
        # Odd rows ramp up from 0, so their weight is 0 at t=1.
        T, n = 12, 8
        g = stream(height, f"guided-heights-{kind}")
        train = g.standard_normal((40, n))
        det = fit_gauss(train) if kind == "gauss" else ReconDetector(Mlp(n, [6], n, seed=height))
        sched = make_schedule(T)
        den = Denoiser(Mlp(n, [16], n, time_embed=4, seed=height), sched)
        rows = []
        for i in range(height):
            x_bad = train[i] + g.normal(0.0, 2.0, size=n)
            omega = (g.random(n) < 0.5).astype(np.float64)
            omega[i % n] = 1.0
            cfg = RepairConfig(lambda2=0.5 + 0.1 * i, lambda4=2.0, eta_start=0.01 * (i % 2 == 0),
                               eta_end=0.05, seed=3, stream_tag=f"inst{i}")
            rows += [RepairRow(x_bad, omega, cfg.unguided()), RepairRow(x_bad, omega, cfg)]
        results = repair_batch(det, den, sched, rows)
        x_fix, hashes, _ = _step_by_step_repair(det, den, sched, rows)
        for r, result in enumerate(results):
            assert np.array_equal(result.x_fix, x_fix[r])
            assert result.trajectory_hash == hashes[r]


class TestOneGuidanceStatePerRepair:
    """`repair_batch` builds one `GuidanceState`, for every row whose ramp is
    nonzero at some step, however those ramps start; a batch without a
    guided row builds none."""

    @pytest.mark.parametrize("eta_starts,guided_arm,built", [
        ((0.0, 0.02, 0.0), True, [3]),  # two ramps reach 0 at t=1
        ((0.1, 0.1, 0.1), True, [3]),  # the harness's shape: one shared eta_start
        ((0.1, 0.1, 0.1), False, []),
    ])
    def test_constructions(self, monkeypatch, eta_starts, guided_arm, built):
        T, n = 12, 8
        g = stream(T, "one-state-world")
        train = g.standard_normal((40, n))
        det = fit_gauss(train)
        sched = make_schedule(T)
        den = Denoiser(Mlp(n, [16], n, time_embed=4, seed=3), sched)
        rows = []
        for i, eta_start in enumerate(eta_starts):
            omega = (g.random(n) < 0.5).astype(np.float64)
            omega[i] = 1.0
            cfg = RepairConfig(eta_start=eta_start, eta_end=0.3, seed=7, stream_tag=f"inst{i}")
            rows += [RepairRow(train[i] + 2.0, omega, cfg.unguided()),
                     RepairRow(train[i] + 2.0, omega, cfg if guided_arm else cfg.unguided())]
        heights = []

        class Counted(GuidanceState):
            def __init__(self, detector, rows, *operands):
                heights.append(rows)
                super().__init__(detector, rows, *operands)

        monkeypatch.setattr(arpro.repair, "GuidanceState", Counted)
        results = repair_batch(det, den, sched, rows)
        assert heights == built
        assert [result.guided for result in results] == [False, guided_arm] * len(eta_starts)


class TestGuidedStepAllocation:
    """After the first step has built the guidance state, a guided reverse
    step allocates no array of the guided rows' size, at the benchmark
    shapes."""

    @pytest.mark.parametrize("kind,denoiser,instances", [("gauss", "ts-denoiser", 24),
                                                         ("recon", "image-denoiser", 20)])
    def test_warm_guided_step(self, monkeypatch, kind, denoiser, instances):
        det = BENCHMARK_DETECTORS[kind]
        T, n = 6, det.n
        sched = make_schedule(T)
        den = Denoiser(BENCHMARK_NETS[denoiser], sched)
        g = stream(14, f"alloc-world-{kind}")
        rows = []
        for i in range(instances):
            x_bad = g.standard_normal(n)
            omega = (g.random(n) < 0.2).astype(np.float64)
            cfg = RepairConfig(seed=4, stream_tag=f"inst{i}")
            rows += [RepairRow(x_bad, omega, cfg.unguided()), RepairRow(x_bad, omega, cfg)]
        assert instances * n * 8 > 16 * 1024
        # The trace opens as step T-1 calls the denoiser and is read as step
        # T-2 does, so it covers one whole reverse step.
        predict_mu_, peaks = arpro.repair.predict_mu, []

        def traced(den, x, t, ws=None, out=None):
            if t == T - 2:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            if t == T - 1:
                tracemalloc.start()
            return predict_mu_(den, x, t, ws=ws, out=out)

        monkeypatch.setattr(arpro.repair, "predict_mu", traced)
        try:
            repair_batch(det, den, sched, rows)
        finally:
            if tracemalloc.is_tracing():
                tracemalloc.stop()
        assert len(peaks) == 1
        assert peaks[0] < 16 * 1024
