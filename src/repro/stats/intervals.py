"""Confidence intervals for Monte-Carlo proportion estimates.

Every ``matches_paper`` verdict in the harness rests on a Bernoulli success
rate estimated from finitely many trials; this module supplies the interval
mathematics the adaptive-precision layer (:mod:`repro.stats.stopping`) and
the CI-aware verdicts are built on:

* :func:`wilson_interval` — the Wilson score interval, the default.  Unlike
  the normal approximation it behaves sensibly at success rates near 0 and
  1, which are common here (deterministic rows, ``p^k`` tails).
* :func:`hoeffding_interval` — the distribution-free Hoeffding bound
  ``±sqrt(ln(2/α) / (2n))``.  Wider than Wilson but a *guaranteed* coverage
  bound rather than an asymptotic one; the stopping rule accepts either.
* :func:`normal_quantile` — the standard normal quantile ``z_{1-α/2}``
  backing Wilson, computed with Acklam's rational approximation refined by a
  Halley step on ``erfc`` (|relative error| far below any tolerance used
  here; no SciPy dependency).

Tri-state verdicts
------------------
A point estimate compared against a threshold silently flaps when the truth
sits near the threshold.  The tri-state helpers compare a whole interval
instead: ``True`` when the interval settles the comparison, ``False`` when
it settles it the other way, and ``None`` — *unresolved* — when the interval
straddles the threshold, which the harness reports instead of guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

__all__ = [
    "ConfidenceInterval",
    "normal_quantile",
    "wilson_interval",
    "hoeffding_interval",
    "wilson_half_width",
    "normal_confidence",
    "Z196_CONFIDENCE",
    "tri_all",
]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided interval ``[low, high]`` at the given confidence level."""

    low: float
    high: float
    confidence: float

    def __post_init__(self) -> None:
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie strictly inside (0, 1)")
        if self.high < self.low:
            raise ValueError(f"empty interval: [{self.low}, {self.high}]")

    @property
    def half_width(self) -> float:
        return (self.high - self.low) / 2.0

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    # ------------------------------------------------------------------ #
    # Tri-state comparisons: True / False when the interval settles the
    # question, None when it straddles the threshold (unresolved).
    # ------------------------------------------------------------------ #
    def tri_at_most(self, threshold: float) -> Optional[bool]:
        """Whether the estimated quantity is ``<= threshold``."""
        if self.high <= threshold:
            return True
        if self.low > threshold:
            return False
        return None

    def tri_at_least(self, threshold: float) -> Optional[bool]:
        """Whether the estimated quantity is ``>= threshold``."""
        if self.low >= threshold:
            return True
        if self.high < threshold:
            return False
        return None

    def tri_between(self, low: float, high: float) -> Optional[bool]:
        """Whether the estimated quantity lies inside ``(low, high)``."""
        if low < self.low and self.high < high:
            return True
        if self.high < low or self.low > high:
            return False
        return None


def tri_all(verdicts: Iterable[Optional[bool]]) -> Optional[bool]:
    """Three-valued conjunction: ``False`` dominates, then ``None``.

    Mirrors the harness verdict semantics — one refuted criterion fails the
    experiment outright, while an unresolved criterion (with none refuted)
    leaves the whole experiment unresolved.
    """
    unresolved = False
    for verdict in verdicts:
        if verdict is False:
            return False
        if verdict is None:
            unresolved = True
    return None if unresolved else True


# --------------------------------------------------------------------------- #
# The normal quantile (no SciPy: Acklam's approximation + one Halley step)
# --------------------------------------------------------------------------- #
_ACKLAM_A = (
    -3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
    1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00,
)
_ACKLAM_B = (
    -5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
    6.680131188771972e01, -1.328068155288572e01,
)
_ACKLAM_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
    -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00,
)
_ACKLAM_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
    3.754408661907416e00,
)


def _norm_ppf(p: float) -> float:
    """Inverse standard normal CDF (Acklam), refined with one Halley step."""
    if not 0.0 < p < 1.0:
        raise ValueError("the quantile argument must lie strictly inside (0, 1)")
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    p_low, p_high = 0.02425, 1.0 - 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    elif p <= p_high:
        q = p - 0.5
        r = q * q
        x = (
            (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5])
            * q
            / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
        )
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    # One Halley refinement against the exact CDF (via erfc).
    error = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = error * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


def normal_quantile(confidence: float) -> float:
    """The two-sided critical value ``z``: ``P(|N(0,1)| <= z) = confidence``."""
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly inside (0, 1)")
    return _norm_ppf(0.5 + confidence / 2.0)


def normal_confidence(z: float) -> float:
    """The two-sided confidence of critical value ``z``: ``P(|N(0,1)| <= z)``
    (the inverse of :func:`normal_quantile`), with Φ computed via erfc."""
    return 2.0 * (0.5 * math.erfc(-z / math.sqrt(2.0))) - 1.0


#: The confidence of the ``z = 1.96`` Wilson interval (0.9500042...) that the
#: guarantee and success-probability tables report at a fixed budget.
Z196_CONFIDENCE = normal_confidence(1.96)


# --------------------------------------------------------------------------- #
# Intervals for Bernoulli proportions
# --------------------------------------------------------------------------- #
def _validate_counts(successes: int, trials: int) -> None:
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must lie in [0, {trials}]; got {successes}")


def wilson_interval(successes: int, trials: int, confidence: float = 0.95) -> ConfidenceInterval:
    """The Wilson score interval for a Bernoulli proportion."""
    _validate_counts(successes, trials)
    z = normal_quantile(confidence)
    phat = successes / trials
    denominator = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denominator
    spread = (
        z
        * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
        / denominator
    )
    low = max(0.0, center - spread)
    high = min(1.0, center + spread)
    # At the boundaries the Wilson endpoints are exactly 0/1 mathematically
    # ((1 + z²/2n ± z²/2n)/(1 + z²/n) telescopes); snap the float rounding so
    # degenerate streams contain their own point estimate.
    if successes == trials:
        high = 1.0
    if successes == 0:
        low = 0.0
    return ConfidenceInterval(low=low, high=high, confidence=confidence)


def hoeffding_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> ConfidenceInterval:
    """The Hoeffding interval ``phat ± sqrt(ln(2/α) / (2n))``, clipped to [0, 1]."""
    _validate_counts(successes, trials)
    alpha = 1.0 - confidence
    if not 0.0 < alpha < 1.0:
        raise ValueError("confidence must lie strictly inside (0, 1)")
    phat = successes / trials
    spread = math.sqrt(math.log(2.0 / alpha) / (2.0 * trials))
    return ConfidenceInterval(
        low=max(0.0, phat - spread), high=min(1.0, phat + spread), confidence=confidence
    )


def wilson_half_width(successes: int, trials: int, z: float = 1.96) -> float:
    """Half-width of the Wilson interval at critical value ``z``.

    At the default ``z`` this is the half-width the guarantee and
    success-probability tables report at a fixed budget (their fixed targets
    carry :data:`Z196_CONFIDENCE`).  ``trials == 0`` returns ``nan`` (no
    data, no interval).
    """
    if trials == 0:
        return float("nan")
    return wilson_interval(successes, trials, confidence=normal_confidence(z)).half_width
