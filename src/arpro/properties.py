"""Repair-quality losses, guidance gradients, metrics, and conformal thresholds.

Four losses grade a candidate repair of an anomalous input against the
detector that flagged it: the repaired total score, the distance to the
original over the untouched region, and hinge penalties for degrading the
anomalous / non-anomalous regions. The same four quantities double as the
evaluation metrics. A split-conformal quantile of training scores gives the
acceptance threshold used for true-negative-rate reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import as_mask, _check_input
from .tensor import Array

# Smoothing inside the masked-distance gradient so guidance stays defined at
# the distance minimum; loss *values* use the raw Euclidean norm.
L2_SMOOTH_EPS = 1e-12


@dataclass(frozen=True)
class PropertyWeights:
    """Nonnegative weights for the four loss terms."""

    lambda1: float = 1.0
    lambda2: float = 1.0
    lambda3: float = 1.0
    lambda4: float = 1.0

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "lambda3", "lambda4"):
            value = getattr(self, name)
            if not (0.0 <= value < math.inf):
                raise ValueError(f"{name} must be nonnegative and finite, got {value}")


@dataclass(frozen=True)
class Tolerances:
    """Slack for the constraint checks: delta2 bounds the masked distance,
    delta4 is the allowed score degradation off-region, delta the failure
    probability budget."""

    delta2: float = 1.0
    delta4: float = 0.0
    delta: float = 0.2

    def __post_init__(self):
        if not (self.delta2 > 0.0):
            raise ValueError(f"delta2 must be positive, got {self.delta2}")
        if not (self.delta4 >= 0.0):
            raise ValueError(f"delta4 must be nonnegative, got {self.delta4}")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")


@dataclass(frozen=True)
class LossBreakdown:
    l1: float
    l2: float
    l3: float
    l4: float
    total: float

    def as_dict(self) -> dict:
        return {"l1": self.l1, "l2": self.l2, "l3": self.l3, "l4": self.l4, "total": self.total}


@dataclass(frozen=True)
class MetricsRecord:
    m_s: float
    m_d: float
    m_omega: float
    m_omega_bar: float

    def as_dict(self) -> dict:
        return {
            "m_s": self.m_s,
            "m_d": self.m_d,
            "m_omega": self.m_omega,
            "m_omega_bar": self.m_omega_bar,
        }


def _regions(detector, x_bad: Array, omega: Array):
    omega_bar = 1.0 - omega
    s_om_bad = detector.region_score(x_bad, omega)
    s_ob_bad = detector.region_score(x_bad, omega_bar)
    return omega_bar, s_om_bad, s_ob_bad


def loss_breakdown(detector, x_bad, x_fix, omega, tol: Tolerances, weights: PropertyWeights) -> LossBreakdown:
    """Evaluate the four losses of a repair and their weighted total."""
    return losses_from_metrics(metrics(detector, x_bad, x_fix, omega), tol, weights)


def losses_from_metrics(record: MetricsRecord, tol: Tolerances, weights: PropertyWeights) -> LossBreakdown:
    """The four losses of a repair from its metrics: the score, the masked
    distance, and the hinged region-score changes."""
    l1 = record.m_s
    l2 = record.m_d
    l3 = max(0.0, record.m_omega)
    l4 = max(0.0, record.m_omega_bar - tol.delta4)
    total = weights.lambda1 * l1 + weights.lambda2 * l2 + weights.lambda3 * l3 + weights.lambda4 * l4
    return LossBreakdown(l1=l1, l2=l2, l3=l3, l4=l4, total=float(total))


def guidance_grad(detector, x: Array, x_bad: Array, omega: Array, regions, delta4, lambdas) -> Array:
    """Gradient of the weighted loss at validated repair iterates.

    `x` is one vector or a batch of rows. Each row brings its own target
    `x_bad`, mask `omega`, ``regions`` as ``(omega_bar, s_om_bad, s_ob_bad)``
    from the target, `delta4` and the four weights `lambdas`; a scalar serves
    every row and a column gives one value per row.

    The masked distance uses a smoothed norm sqrt(sum(..)^2 + eps) so its
    gradient exists at zero distance; the hinge terms have subgradient zero at
    the kink. Because the score decomposes, the three score terms reduce to
    one vector-Jacobian product of alpha with weight
    ``lambda1 + lambda3*[l3>0]*omega + lambda4*[l4>0]*omega_bar``.
    """
    lambda1, lambda2, lambda3, lambda4 = lambdas
    omega_bar, s_om_bad, s_ob_bad = regions
    beta = detector.beta_value(x)
    alpha, vjp = detector.alpha_with_vjp(x)
    on3 = ((alpha * omega).sum(axis=-1, keepdims=True) + beta - s_om_bad > 0.0).astype(np.float64)
    on4 = ((alpha * omega_bar).sum(axis=-1, keepdims=True) + beta - s_ob_bad - delta4 > 0.0).astype(np.float64)
    g_alpha = (lambda1 + lambda3 * on3 * omega) + lambda4 * on4 * omega_bar
    masked = (x - x_bad) * omega_bar
    root = np.sqrt((masked * masked).sum(axis=-1, keepdims=True) + L2_SMOOTH_EPS)
    g_l2 = lambda2 / (2.0 * root) * 2.0 * masked * omega_bar
    return vjp(g_alpha, g_l2)


def grad_guidance(detector, x_bad, x_fix, omega, tol: Tolerances, weights: PropertyWeights) -> Array:
    """Gradient of the weighted loss with respect to the repair iterate."""
    x_bad = _check_input(x_bad, detector.n)
    x_fix = _check_input(x_fix, detector.n)
    omega = as_mask(omega, detector.n)
    lambdas = (weights.lambda1, weights.lambda2, weights.lambda3, weights.lambda4)
    return guidance_grad(detector, x_fix, x_bad, omega, _regions(detector, x_bad, omega), tol.delta4, lambdas)


def metrics(detector, x_bad, x_fix, omega) -> MetricsRecord:
    """The four evaluation metrics of a repair (all lower is better)."""
    x_bad = _check_input(x_bad, detector.n)
    x_fix = _check_input(x_fix, detector.n)
    omega = as_mask(omega, detector.n)
    regions = _regions(detector, x_bad, omega)
    return scored_metrics(detector.alpha(x_fix), detector.beta_value(x_fix), x_fix, x_bad, omega, regions)


def scored_metrics(alpha_fix: Array, beta_fix: float, x_fix: Array, x_bad: Array, omega: Array, regions) -> MetricsRecord:
    """The four metrics of a repair from the detector's alpha and beta at
    x_fix and the target's ``_regions``, so a caller that already scored
    either side does not score it again."""
    omega_bar, s_om_bad, s_ob_bad = regions
    return MetricsRecord(
        m_s=float(alpha_fix.sum() + beta_fix),
        m_d=float(np.linalg.norm(omega_bar * (x_fix - x_bad))),
        m_omega=float(beta_fix + (alpha_fix * omega).sum()) - s_om_bad,
        m_omega_bar=float(beta_fix + (alpha_fix * omega_bar).sum()) - s_ob_bad,
    )


def satisfaction_rate(breakdowns, tol: Tolerances) -> float:
    """Fraction of repairs meeting the distance and non-degradation constraints."""
    breakdowns = list(breakdowns)
    if not breakdowns:
        raise ValueError("satisfaction rate of an empty list")
    good = sum(1 for b in breakdowns if b.l2 <= tol.delta2 and b.l3 <= 0.0 and b.l4 <= 0.0)
    return good / len(breakdowns)


def conformal_threshold(train_scores, confidence: float) -> float:
    """Finite-sample split-conformal quantile of training scores.

    Returns the ceil((n+1)*confidence)-th smallest score, or +inf when that
    rank exceeds the sample size.
    """
    scores = np.asarray(list(train_scores), dtype=np.float64)
    if scores.size == 0:
        raise ValueError("conformal threshold of an empty sample")
    if not (0.0 < confidence < 1.0):
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    n = scores.size
    # Round before ceil so float residue in (n+1)*confidence cannot bump the rank.
    rank = math.ceil(round((n + 1) * confidence, 9))
    if rank > n:
        return float("inf")
    return float(np.sort(scores)[rank - 1])


def tnr(scores, threshold: float) -> float:
    """Fraction of scores at or below the threshold."""
    scores = np.asarray(list(scores), dtype=np.float64)
    if scores.size == 0:
        raise ValueError("TNR of an empty list")
    return float(np.mean(scores <= threshold))
