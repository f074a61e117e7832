"""repro.stats — adaptive-precision statistics for the Monte-Carlo engine.

A trial budget asks "how many trials?"; a precision target asks "how
precise?".  This layer answers both with one stopping rule.  It provides

* streaming accumulators (:class:`StreamingMoments`,
  :class:`BernoulliAccumulator`) that fold the engine's trial chunks into
  running statistics,
* confidence intervals for proportions (:func:`wilson_interval`,
  :func:`hoeffding_interval`) plus the tri-state interval-vs-threshold
  verdicts the CI-aware harness uses (``True`` / ``False`` / ``None`` =
  unresolved),
* the :class:`PrecisionTarget` sequential-stopping rule and
  :func:`sequential_estimate`, the one loop every estimator runs: a
  precision target stops once its interval is narrow enough, and a fixed
  budget (:meth:`PrecisionTarget.fixed`, what ``precision=None`` means) is
  the target that runs straight to its cap in one draw (see
  :mod:`repro.stats.stopping` for the exactness contract).

Entry points upward: ``Decider.acceptance_probability`` /
``estimate_guarantee`` / ``estimate_success_probability`` /
``far_acceptance_probability`` accept ``precision=``; registry specs declare
the precision capability; ``Session`` and the CLI expose
``--precision`` / ``--confidence``.
"""

from repro.stats.accumulators import BernoulliAccumulator, StreamingMoments
from repro.stats.intervals import (
    Z196_CONFIDENCE,
    ConfidenceInterval,
    hoeffding_interval,
    normal_confidence,
    normal_quantile,
    tri_all,
    wilson_half_width,
    wilson_interval,
)
from repro.stats.stopping import PrecisionTarget, ProbabilityEstimate, sequential_estimate

__all__ = [
    "BernoulliAccumulator",
    "StreamingMoments",
    "ConfidenceInterval",
    "normal_quantile",
    "normal_confidence",
    "Z196_CONFIDENCE",
    "wilson_interval",
    "hoeffding_interval",
    "wilson_half_width",
    "tri_all",
    "PrecisionTarget",
    "ProbabilityEstimate",
    "sequential_estimate",
]
