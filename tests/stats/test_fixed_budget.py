"""Fixed trial budgets: the conventions every estimator reports at a fixed
budget, and the validation of the budget itself.

A fixed budget of ``trials`` trials is the precision target with no
half-width and ``min_trials == max_trials == trials``.  Two conventions of
the historical fixed-trial path are part of the reported bytes and pinned
here:

* a structurally constant outcome (every vote or output program constant)
  still reports the whole budget and a proper Wilson interval — the exact
  degenerate estimate is reserved for runs with a half-width target;
* the guarantee and success-probability tables report the Wilson half-width
  at ``z = 1.96`` (``wilson_half_width``), while ``acceptance_estimate``
  reports a 95% Wilson interval.
"""

from __future__ import annotations

import pytest

from repro.core.construction import BallConstructor, estimate_success_probability
from repro.core.decision import RandomizedDecider, ResilientDecider, estimate_guarantee
from repro.core.derandomization import far_acceptance_probability
from repro.core.lcl import ProperColoring
from repro.core.relaxations import f_resilient
from repro.engine.construct import const_output
from repro.graphs.families import cycle_network
from repro.harness.experiments import (
    _cycle_coloring_with_bad_balls,
    _toy_all_zeros_language,
    _toy_faulty_constructor,
    _toy_noisy_decider,
)
from repro.local.algorithm import FunctionBallAlgorithm
from repro.stats import PrecisionTarget, sequential_estimate, wilson_half_width, wilson_interval

ENGINES = ("exact", "fast", "off")


def _constant_constructor() -> BallConstructor:
    """A randomized constructor whose compiled outputs are all constant."""
    return BallConstructor(
        FunctionBallAlgorithm(
            lambda ball, tape: 0,
            radius=0,
            randomized=True,
            name="constant-zeros",
            output_program=lambda ball: const_output(0),
        )
    )


class TestConstantOutcomesAtAFixedBudget:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_acceptance_estimate_spends_the_budget(self, engine):
        decider = ResilientDecider(ProperColoring(3), f=2)
        proper = _cycle_coloring_with_bad_balls(30, 0)
        estimate = decider.acceptance_estimate(proper, trials=250, seed=0, engine=engine)
        assert (estimate.successes, estimate.trials) == (250, 250)
        assert not estimate.deterministic
        assert estimate.interval == wilson_interval(250, 250, confidence=0.95)
        assert estimate.ci_low < estimate.ci_high

    @pytest.mark.parametrize("engine", ENGINES)
    def test_guarantee_row_spends_the_budget(self, engine):
        base = ProperColoring(3)
        decider = ResilientDecider(base, f=2)
        configurations = [_cycle_coloring_with_bad_balls(30, 0)]
        estimate = estimate_guarantee(
            decider, f_resilient(base, 2), configurations, trials=300, engine=engine
        )
        assert estimate.trials_used == {0: 300}
        member, rate, half_width = estimate.per_configuration[0]
        assert member and rate == 1.0
        assert half_width == wilson_half_width(300, 300) > 0.0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_success_row_spends_the_budget(self, engine):
        estimate = estimate_success_probability(
            _constant_constructor(),
            _toy_all_zeros_language(),
            [cycle_network(8)],
            trials=120,
            engine=engine,
        )
        assert estimate.trials_used == {0: 120}
        assert estimate.per_instance[0] == (1.0, wilson_half_width(120, 120))
        assert estimate.per_instance[0][1] > 0.0


class TestFixedBudgetHalfWidths:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_guarantee_half_widths_are_wilson_at_z_1_96(self, engine):
        base = ProperColoring(3)
        decider = ResilientDecider(base, f=2)
        configurations = [
            _cycle_coloring_with_bad_balls(30, 2),
            _cycle_coloring_with_bad_balls(30, 6),
        ]
        estimate = estimate_guarantee(
            decider, f_resilient(base, 2), configurations, trials=400, seed=3, engine=engine
        )
        for index, (_member, rate, half_width) in estimate.per_configuration.items():
            trials = estimate.trials_used[index]
            assert trials == 400
            successes = round(rate * trials)
            assert 0 < successes < trials
            assert half_width == wilson_half_width(successes, trials)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_success_half_widths_are_wilson_at_z_1_96(self, engine):
        estimate = estimate_success_probability(
            _toy_faulty_constructor(0.05),
            _toy_all_zeros_language(),
            [cycle_network(8), cycle_network(12)],
            trials=300,
            seed=1,
            engine=engine,
        )
        for index, (rate, half_width) in estimate.per_instance.items():
            trials = estimate.trials_used[index]
            assert trials == 300
            successes = round(rate * trials)
            assert 0 < successes < trials
            assert half_width == wilson_half_width(successes, trials)


class TestFixedTarget:
    def test_fixed_target_draws_the_budget_once(self):
        calls = []

        def draw(count):
            calls.append(count)
            return count // 3

        target = PrecisionTarget.fixed(90, confidence=0.9)
        estimate = sequential_estimate(target, draw)
        assert calls == [90]
        assert (estimate.successes, estimate.trials) == (30, 90)
        assert estimate.interval == wilson_interval(30, 90, confidence=0.9)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_fixed_target_rejects_non_positive_budgets(self, trials):
        with pytest.raises(ValueError, match="trials must be positive"):
            PrecisionTarget.fixed(trials)

    def test_a_target_without_half_width_is_a_fixed_budget(self):
        with pytest.raises(ValueError):
            PrecisionTarget(half_width=None, min_trials=10, max_trials=20)


def _opaque_resilient(base, f):
    """A resilient decider without a vote program: the reference loop only."""
    compilable = ResilientDecider(base, f=f)
    p = compilable.p_bad_ball
    return RandomizedDecider(
        rule=lambda ball, tape: True if not base.is_bad_ball(ball) else tape.bernoulli(p),
        radius=base.radius,
        guarantee=compilable.guarantee,
        name=compilable.name,
    )


def _acceptance_probability(engine, trials):
    decider = ResilientDecider(ProperColoring(3), f=2)
    return decider.acceptance_probability(
        _cycle_coloring_with_bad_balls(30, 4), trials=trials, engine=engine
    )


def _acceptance_estimate(engine, trials):
    decider = ResilientDecider(ProperColoring(3), f=2)
    return decider.acceptance_estimate(
        _cycle_coloring_with_bad_balls(30, 4), trials=trials, engine=engine
    )


def _estimate_guarantee(engine, trials):
    base = ProperColoring(3)
    return estimate_guarantee(
        ResilientDecider(base, f=2),
        f_resilient(base, 2),
        [_cycle_coloring_with_bad_balls(30, 4)],
        trials=trials,
        engine=engine,
    )


def _estimate_success_probability(engine, trials):
    return estimate_success_probability(
        _toy_faulty_constructor(0.05),
        _toy_all_zeros_language(),
        [cycle_network(8)],
        trials=trials,
        engine=engine,
    )


def _far_acceptance_probability(engine, trials):
    network = cycle_network(8)
    return far_acceptance_probability(
        _toy_faulty_constructor(0.3),
        _toy_noisy_decider(0.8),
        network,
        network.nodes()[0],
        distance=0,
        trials=trials,
        engine=engine,
    )


ESTIMATORS = {
    "acceptance_probability": _acceptance_probability,
    "acceptance_estimate": _acceptance_estimate,
    "estimate_guarantee": _estimate_guarantee,
    "estimate_success_probability": _estimate_success_probability,
    "far_acceptance_probability": _far_acceptance_probability,
}


class TestNonPositiveBudgets:
    @pytest.mark.parametrize("trials", [0, -1])
    @pytest.mark.parametrize("engine", ["exact", "off"])
    @pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
    def test_every_estimator_rejects_the_budget(self, estimator, engine, trials):
        with pytest.raises(ValueError, match="trials must be positive"):
            ESTIMATORS[estimator](engine, trials)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_reference_fallback_of_auto_rejects_the_budget(self, trials):
        decider = _opaque_resilient(ProperColoring(3), 2)
        with pytest.raises(ValueError, match="trials must be positive"):
            decider.acceptance_probability(
                _cycle_coloring_with_bad_balls(30, 4), trials=trials, engine="auto"
            )
