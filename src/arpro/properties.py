"""Repair-quality losses, guidance gradients, metrics, and conformal thresholds.

Four losses grade a candidate repair of an anomalous input against the
detector that flagged it: the repaired total score, the distance to the
original over the untouched region, and hinge penalties for degrading the
anomalous / non-anomalous regions. The same four quantities double as the
evaluation metrics. The finite-sample conformal quantile of the scores it
is given gives the acceptance threshold used for true-negative-rate
reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import as_mask, _check_input
from .tensor import Array

# Smoothing inside `grad_guidance`'s masked-distance gradient so it stays
# defined at the distance minimum; loss *values* use the raw Euclidean norm.
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
    delta4 is the allowed score degradation off-region."""

    delta2: float = 1.0
    delta4: float = 0.0

    def __post_init__(self):
        if not (self.delta2 > 0.0):
            raise ValueError(f"delta2 must be positive, got {self.delta2}")
        if not (self.delta4 >= 0.0):
            raise ValueError(f"delta4 must be nonnegative, got {self.delta4}")


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


def loss_breakdown(detector, x_bad, x_fix, omega, tol: Tolerances, weights: PropertyWeights) -> LossBreakdown:
    """Evaluate the four losses of a repair and their weighted total."""
    return losses_from_metrics(metrics(detector, x_bad, x_fix, omega), tol.delta4, weights)


def losses_from_metrics(record: MetricsRecord, delta4: float, weights: PropertyWeights) -> LossBreakdown:
    """The four losses of a repair from its metrics: the score, the masked
    distance, and the hinged region-score changes, the off-region one past
    its slack `delta4`."""
    l1 = record.m_s
    l2 = record.m_d
    l3 = max(0.0, record.m_omega)
    l4 = max(0.0, record.m_omega_bar - delta4)
    total = weights.lambda1 * l1 + weights.lambda2 * l2 + weights.lambda3 * l3 + weights.lambda4 * l4
    return LossBreakdown(l1=l1, l2=l2, l3=l3, l4=l4, total=float(total))


class GuidanceState:
    """The guidance gradient of `rows` rows, the part of it that reaches a
    repair: every buffer it uses, and copies of each row's mask `omega`,
    `delta4` and score-term weights ``lambdas = (lambda1, lambda3,
    lambda4)``, where a scalar serves every row and a column gives one value
    each. From `omega` and `alpha_bad`, the detector's alpha at each row's
    target, it keeps ``omega_bar = 1 - omega`` and the target's region
    scores on omega and omega_bar. A repair builds one before its loop, then
    writes the guided iterates into `x` and calls `grad`.

    The masked distance's gradient lies on omega_bar alone, which the infill
    overwrites at every step, so that term is left out (`grad_guidance` adds
    it). The hinge terms have subgradient zero at the kink. Because the score
    is the sum of alpha, the three score terms reduce to one vector-Jacobian
    product of alpha with weight
    ``lambda1 + lambda3*[l3>0]*omega + lambda4*[l4>0]*omega_bar``.
    """

    def __init__(self, detector, rows: int, omega, alpha_bad, delta4, lambdas):
        n = detector.n

        def own(value, width: int) -> Array:
            out = np.empty((rows, width))
            np.copyto(out, value)
            return out

        lambda1, lambda3, lambda4 = lambdas
        self.detector = detector
        self.ws = detector.workspace(rows)
        self.x = self.ws.x
        self.omega, self.lambda1 = own(omega, n), own(lambda1, n)
        self.omega_bar = 1.0 - self.omega
        self.s_om_bad = (alpha_bad * self.omega).sum(axis=1, keepdims=True)
        self.s_ob_bad = (alpha_bad * self.omega_bar).sum(axis=1, keepdims=True)
        self.delta4, self.lambda3, self.lambda4 = (own(v, 1) for v in (delta4, lambda3, lambda4))
        self.g_alpha, self.term = (np.empty((rows, n)) for _ in range(2))
        self.col, self.on3, self.on4 = (np.empty((rows, 1)) for _ in range(3))

    def grad(self) -> Array:
        """The gradient at the rows of `x`, in a buffer of the state's. Each
        expression runs one operation at a time in the order it evaluates, a
        column tiled into a buffer before it meets a batch, so the bits are
        those of the expression."""
        t, col = self.term, self.col
        alpha, vjp = self.detector.alpha_with_vjp(self.x, self.ws)
        # on3 = sum(alpha * omega) - s_om_bad > 0
        np.add.reduce(np.multiply(alpha, self.omega, out=t), axis=-1, keepdims=True, out=col)
        col -= self.s_om_bad
        np.greater(col, 0.0, out=self.on3)
        # on4 = sum(alpha * omega_bar) - s_ob_bad - delta4 > 0
        np.add.reduce(np.multiply(alpha, self.omega_bar, out=t), axis=-1, keepdims=True, out=col)
        col -= self.s_ob_bad
        col -= self.delta4
        np.greater(col, 0.0, out=self.on4)
        # g_alpha = (lambda1 + lambda3 * on3 * omega) + lambda4 * on4 * omega_bar
        g_alpha = self.g_alpha
        np.copyto(g_alpha, np.multiply(self.lambda3, self.on3, out=col))
        g_alpha *= self.omega
        np.add(self.lambda1, g_alpha, out=g_alpha)
        np.copyto(t, np.multiply(self.lambda4, self.on4, out=col))
        t *= self.omega_bar
        g_alpha += t
        return vjp(g_alpha)


def grad_guidance(detector, x_bad, x_fix, omega, tol: Tolerances, weights: PropertyWeights) -> Array:
    """Gradient of the weighted loss with respect to the repair iterate."""
    x_bad = _check_input(x_bad, detector.n)
    x_fix = _check_input(x_fix, detector.n)
    omega = as_mask(omega, detector.n)
    lambdas = (weights.lambda1, weights.lambda3, weights.lambda4)
    state = GuidanceState(detector, 1, omega, detector.alpha(x_bad), tol.delta4, lambdas)
    np.copyto(state.x, x_fix)
    masked = state.omega_bar[0] * (x_fix - x_bad)
    return state.grad()[0] + weights.lambda2 * masked / np.sqrt(masked @ masked + L2_SMOOTH_EPS)


def metrics(detector, x_bad, x_fix, omega) -> MetricsRecord:
    """The four evaluation metrics of a repair (all lower is better)."""
    x_bad = _check_input(x_bad, detector.n)
    x_fix = _check_input(x_fix, detector.n)
    omega = as_mask(omega, detector.n)
    return scored_metrics(detector.alpha(x_fix), detector.alpha(x_bad), x_fix, x_bad, omega)


def scored_metrics(alpha_fix: Array, alpha_bad: Array, x_fix: Array, x_bad: Array, omega: Array) -> MetricsRecord:
    """The four metrics of a repair from the detector's alpha at x_fix and at
    x_bad, whose sums over omega and omega_bar are the region scores, so a
    caller that already scored either side does not score it again."""
    omega_bar = 1.0 - omega
    return MetricsRecord(
        m_s=float(alpha_fix.sum()),
        m_d=float(np.linalg.norm(omega_bar * (x_fix - x_bad))),
        m_omega=float((alpha_fix * omega).sum()) - float((alpha_bad * omega).sum()),
        m_omega_bar=float((alpha_fix * omega_bar).sum()) - float((alpha_bad * omega_bar).sum()),
    )


def satisfaction_rate(breakdowns, tol: Tolerances) -> float:
    """Fraction of repairs meeting the distance and non-degradation constraints."""
    breakdowns = list(breakdowns)
    if not breakdowns:
        raise ValueError("satisfaction rate of an empty list")
    good = sum(1 for b in breakdowns if b.l2 <= tol.delta2 and b.l3 <= 0.0 and b.l4 <= 0.0)
    return good / len(breakdowns)


def conformal_threshold(train_scores, confidence: float) -> float:
    """Finite-sample conformal quantile of the scores passed in.

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
