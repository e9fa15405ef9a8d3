import math

import numpy as np
import pytest

from arpro.detector import GaussDetector, ReconDetector, fit_gauss
from arpro.properties import (
    LossBreakdown,
    MetricsRecord,
    PropertyWeights,
    Tolerances,
    conformal_threshold,
    grad_guidance,
    loss_breakdown,
    metrics,
    satisfaction_rate,
    tnr,
)
from arpro.tensor import Mlp, stream

from conftest import central_diff, max_rel_err


def unit_gauss(n: int) -> GaussDetector:
    return GaussDetector(mu=np.zeros(n), sigma=np.ones(n))


DEFAULTS = (Tolerances(), PropertyWeights())


class TestLossBreakdown:
    def test_self_repair_zeroes_hinges_and_distance(self):
        det = unit_gauss(3)
        x = np.array([0.4, -1.0, 2.0])
        b = loss_breakdown(det, x, x, np.array([1.0, 0.0, 0.0]), *DEFAULTS)
        assert b.l2 == 0.0 and b.l3 == 0.0 and b.l4 == 0.0
        assert b.l1 == pytest.approx(det.score(x).total)

    def test_masked_distance_is_three_four_five(self):
        det = unit_gauss(3)
        x_bad = np.zeros(3)
        x_fix = np.array([3.0, 4.0, 100.0])
        omega = np.array([0.0, 0.0, 1.0])  # complement keeps the first two
        b = loss_breakdown(det, x_bad, x_fix, omega, *DEFAULTS)
        assert b.l2 == pytest.approx(5.0)

    def test_hinge_activation(self):
        det = unit_gauss(2)
        omega = np.array([1.0, 0.0])
        x_bad = np.array([1.0, 0.0])
        worse = np.array([3.0, 0.0])  # region score rises by 4 on the flagged coord
        b = loss_breakdown(det, x_bad, worse, omega, *DEFAULTS)
        assert b.l3 == pytest.approx(det.region_score(worse, omega) - det.region_score(x_bad, omega))
        better = np.array([0.0, 0.0])
        assert loss_breakdown(det, x_bad, better, omega, *DEFAULTS).l3 == 0.0

    def test_total_is_weighted_sum_and_linear_in_each_weight(self):
        det = unit_gauss(4)
        g = stream(21, "lin")
        x_bad, x_fix = g.standard_normal(4), g.standard_normal(4)
        omega = np.array([1.0, 0.0, 1.0, 0.0])
        tol = Tolerances()
        base = loss_breakdown(det, x_bad, x_fix, omega, tol, PropertyWeights())
        parts = np.array([base.l1, base.l2, base.l3, base.l4])
        for k in range(4):
            for value in (0.0, 0.5, 2.0):
                kw = {f"lambda{k + 1}": value}
                b = loss_breakdown(det, x_bad, x_fix, omega, tol, PropertyWeights(**{**{f"lambda{j + 1}": 1.0 for j in range(4)}, **kw}))
                weights = np.ones(4)
                weights[k] = value
                assert b.total == pytest.approx(float(weights @ parts))

    def test_hinges_nonnegative_random(self):
        det = unit_gauss(5)
        g = stream(22, "hinge")
        for _ in range(200):
            x_bad, x_fix = g.standard_normal(5), g.standard_normal(5)
            omega = (g.random(5) < 0.5).astype(np.float64)
            b = loss_breakdown(det, x_bad, x_fix, omega, *DEFAULTS)
            assert b.l3 >= 0.0 and b.l4 >= 0.0

    def test_distance_zero_iff_untouched_region_equal(self):
        det = unit_gauss(3)
        x_bad = np.array([1.0, 2.0, 3.0])
        omega = np.array([1.0, 0.0, 0.0])
        same_outside = np.array([9.0, 2.0, 3.0])
        assert loss_breakdown(det, x_bad, same_outside, omega, *DEFAULTS).l2 == 0.0
        touched = np.array([9.0, 2.5, 3.0])
        assert loss_breakdown(det, x_bad, touched, omega, *DEFAULTS).l2 > 0.0

    def test_non_binary_mask_rejected(self):
        det = unit_gauss(2)
        with pytest.raises(ValueError, match="binary"):
            loss_breakdown(det, np.zeros(2), np.zeros(2), np.array([0.5, 0.0]), *DEFAULTS)


class TestGradGuidance:
    def test_distance_only_gradient_vanishes_at_zero_distance(self):
        det = unit_gauss(3)
        x = np.array([0.1, 0.2, 0.3])
        w = PropertyWeights(0.0, 1.0, 0.0, 0.0)
        grad = grad_guidance(det, x, x.copy(), np.array([1.0, 0.0, 0.0]), Tolerances(), w)
        assert np.allclose(grad, 0.0)

    def test_score_only_gradient_equals_region_gradient(self):
        det = unit_gauss(4)
        g = stream(23, "gg")
        x_bad, x_fix = g.standard_normal(4), g.standard_normal(4)
        w = PropertyWeights(1.0, 0.0, 0.0, 0.0)
        grad = grad_guidance(det, x_bad, x_fix, np.array([1.0, 1.0, 0.0, 0.0]), Tolerances(), w)
        assert np.allclose(grad, det.grad_region_score(x_fix, np.ones(4)))

    def test_matches_finite_differences_away_from_kinks(self):
        det = fit_gauss(stream(24, "ggd").standard_normal((60, 5)) * 1.5)
        tol, w = Tolerances(delta4=0.1), PropertyWeights(0.7, 1.3, 0.9, 1.1)
        g = stream(25, "ggf")
        checked = 0
        worst = 0.0
        while checked < 30:
            x_bad, x_fix = g.standard_normal(5), g.standard_normal(5)
            omega = (g.random(5) < 0.5).astype(np.float64)
            margin3 = det.region_score(x_fix, omega) - det.region_score(x_bad, omega)
            margin4 = det.region_score(x_fix, 1 - omega) - det.region_score(x_bad, 1 - omega) - tol.delta4
            if min(abs(margin3), abs(margin4)) < 1e-2:
                continue  # hinge kink: subgradient, skip
            def f(v):
                return loss_breakdown(det, x_bad, v, omega, tol, w).total
            grad = grad_guidance(det, x_bad, x_fix, omega, tol, w)
            worst = max(worst, max_rel_err(grad, central_diff(f, x_fix)))
            checked += 1
        assert worst <= 1e-6


class TestMetrics:
    def test_self_repair(self):
        det = unit_gauss(3)
        x = np.array([0.5, -0.5, 1.0])
        m = metrics(det, x, x.copy(), np.array([0.0, 1.0, 0.0]))
        assert m.m_d == 0.0 and m.m_omega == 0.0 and m.m_omega_bar == 0.0
        assert m.m_s == pytest.approx(det.score(x).total)

    def test_region_deltas_direct_substitution(self):
        class Stub(GaussDetector):
            def __init__(self):
                super().__init__(mu=np.zeros(2), sigma=np.ones(2))
                self.table = {}

            def alpha(self, x):
                return self.table[x.tobytes()]

        det = Stub()
        x_bad, x_fix = np.array([10.0, 20.0]), np.array([30.0, 40.0])
        det.table[x_bad.tobytes()] = np.array([2.0, 1.0])
        det.table[x_fix.tobytes()] = np.array([0.0, 1.0])
        m = metrics(det, x_bad, x_fix, np.array([1.0, 0.0]))
        assert m.m_omega == pytest.approx(-2.0)
        assert m.m_omega_bar == pytest.approx(0.0)

    def test_region_deltas_sum_to_total_delta(self):
        det = unit_gauss(5)
        g = stream(26, "msum")
        for _ in range(100):
            x_bad, x_fix = g.standard_normal(5), g.standard_normal(5)
            omega = (g.random(5) < 0.5).astype(np.float64)
            m = metrics(det, x_bad, x_fix, omega)
            # With beta == 0 the two region deltas add up to the total delta.
            assert m.m_omega + m.m_omega_bar == pytest.approx(
                det.score(x_fix).total - det.score(x_bad).total, rel=1e-9, abs=1e-9
            )


class TestScoresTheTargetOnce:
    """The one-row `metrics` and `grad_guidance` score x_bad once and the
    repair once: two `alpha_with_vjp` calls, for either detector kind."""

    @pytest.mark.parametrize("kind", ["gauss", "recon"])
    @pytest.mark.parametrize("call", [
        lambda det, x_bad, x_fix, omega: metrics(det, x_bad, x_fix, omega),
        lambda det, x_bad, x_fix, omega: grad_guidance(det, x_bad, x_fix, omega, *DEFAULTS),
    ], ids=["metrics", "grad_guidance"])
    def test_two_alpha_calls(self, monkeypatch, kind, call):
        det = unit_gauss(6) if kind == "gauss" else ReconDetector(Mlp(6, [4], 6, seed=0))
        g = stream(27, f"score-once-{kind}")
        calls = []
        alpha_with_vjp = type(det).alpha_with_vjp

        def counted(self, x, ws=None):
            calls.append(x)
            return alpha_with_vjp(self, x, ws)

        monkeypatch.setattr(type(det), "alpha_with_vjp", counted)
        call(det, g.standard_normal(6), g.standard_normal(6), np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0]))
        assert len(calls) == 2


class TestSatisfaction:
    def test_all_satisfied(self):
        rows = [LossBreakdown(1.0, 0.0, 0.0, 0.0, 1.0)] * 4
        assert satisfaction_rate(rows, Tolerances(delta2=1.0)) == 1.0

    def test_partial(self):
        good = LossBreakdown(1.0, 0.0, 0.0, 0.0, 1.0)
        bad = LossBreakdown(1.0, 0.0, 0.5, 0.0, 1.5)
        assert satisfaction_rate([good, bad], Tolerances(delta2=1.0)) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            satisfaction_rate([], Tolerances())


class TestConformal:
    def test_rank_formula(self):
        assert conformal_threshold(list(range(1, 20)), 0.95) == 19.0

    def test_single_sample_is_infinite(self):
        assert conformal_threshold([4.2], 0.95) == float("inf")

    def test_constant_scores(self):
        assert conformal_threshold([3.0] * 10, 0.5) == 3.0

    def test_float_rank_edge(self):
        # (19+1)*0.95 must resolve to rank 19, not 20, despite float residue.
        scores = list(range(1, 20))
        assert conformal_threshold(scores, 0.95) == 19.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="empty"):
            conformal_threshold([], 0.9)
        with pytest.raises(ValueError, match="confidence"):
            conformal_threshold([1.0], 1.5)

    def test_coverage_on_exchangeable_scores(self):
        g = stream(27, "cov")
        train = g.standard_normal(400)
        heldout = g.standard_normal(1000)
        threshold = conformal_threshold(train, 0.95)
        exceed = float(np.mean(heldout > threshold))
        assert exceed <= 0.05 + 2.0 / math.sqrt(1000)


class TestTnr:
    def test_fraction_below(self):
        assert tnr([0.1, 0.2, 0.3], 0.25) == pytest.approx(2.0 / 3.0)

    def test_infinite_threshold(self):
        assert tnr([5.0, 1e9], float("inf")) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            tnr([], 1.0)


class TestValidation:
    def test_weights_nonnegative(self):
        with pytest.raises(ValueError):
            PropertyWeights(lambda2=-0.1)

    def test_tolerances_ranges(self):
        with pytest.raises(ValueError):
            Tolerances(delta2=0.0)
        with pytest.raises(ValueError):
            Tolerances(delta4=-1.0)

    def test_non_finite_rejected(self):
        for value in (math.nan, math.inf, -math.inf):
            for k in range(1, 5):
                with pytest.raises(ValueError, match=f"lambda{k} must be nonnegative and finite, got {value}"):
                    PropertyWeights(**{f"lambda{k}": value})
        for key in ("delta2", "delta4"):
            for value in (math.nan, -math.inf):
                with pytest.raises(ValueError, match=key):
                    Tolerances(**{key: value})

    def test_records_round_trip_dicts(self):
        b = LossBreakdown(1.0, 2.0, 0.0, 0.0, 3.0)
        assert b.as_dict() == {"l1": 1.0, "l2": 2.0, "l3": 0.0, "l4": 0.0, "total": 3.0}
        m = MetricsRecord(1.0, 2.0, -3.0, 0.5)
        assert m.as_dict() == {"m_s": 1.0, "m_d": 2.0, "m_omega": -3.0, "m_omega_bar": 0.5}
