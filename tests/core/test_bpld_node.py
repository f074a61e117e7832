"""Tests for BPLD#node (repro.core.bpld_node) and the Claim 1 canonicalisation."""

from __future__ import annotations

import math

import pytest

from repro.core.bpld_node import (
    SizeAwareSlackDecider,
    bpld_node_counterexample_report,
    slack_probability_window,
)
from repro.core.languages import Configuration
from repro.core.lcl import ProperColoring
from repro.core.order_invariant import (
    CanonicalizedAlgorithm,
    OrderInvariantAlgorithm,
    canonicalize_algorithm,
    is_order_invariant_on,
)
from repro.core.relaxations import eps_slack
from repro.graphs.families import cycle_network
from repro.local.algorithm import FunctionBallAlgorithm
from repro.local.randomness import TapeFactory
from repro.local.simulator import run_ball_algorithm


def cycle_coloring_with_conflicts(n, conflicts):
    assert n % 3 == 0
    network = cycle_network(n)
    nodes = network.nodes()
    colors = {node: (index % 3) + 1 for index, node in enumerate(nodes)}
    step = max(3, n // max(conflicts, 1))
    for planted in range(conflicts):
        colors[nodes[planted * step]] = colors[nodes[planted * step + 1]]
    return Configuration(network, colors)


class TestSlackProbabilityWindow:
    def test_zero_budget_window(self):
        assert slack_probability_window(0) == (0.0, 0.5)

    @pytest.mark.parametrize("budget", [1, 3, 10])
    def test_positive_budget_window_algebra(self, budget):
        low, high = slack_probability_window(budget)
        mid = math.sqrt(low * high)
        assert mid**budget > 0.5
        assert mid ** (budget + 1) < 0.5

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            slack_probability_window(-1)


class TestSizeAwareSlackDecider:
    def test_guarantee_exceeds_half_for_various_sizes(self):
        decider = SizeAwareSlackDecider(ProperColoring(3), eps=0.25)
        for n in (4, 12, 40, 200):
            assert decider.guarantee(n) > 0.5

    def test_allowed_bad_uses_n(self):
        decider = SizeAwareSlackDecider(ProperColoring(3), eps=0.25)
        assert decider.allowed_bad(12) == 3
        assert decider.allowed_bad(100) == 25

    def test_good_configuration_always_accepted(self):
        decider = SizeAwareSlackDecider(ProperColoring(3), eps=0.2)
        configuration = cycle_coloring_with_conflicts(12, 0)
        assert decider.decide(configuration, tape_factory=TapeFactory(1)).accepted

    def test_acceptance_matches_theory(self):
        decider = SizeAwareSlackDecider(ProperColoring(3), eps=0.2)
        configuration = cycle_coloring_with_conflicts(30, 2)  # 4 bad balls, budget 6
        measured = decider.acceptance_probability(configuration, trials=1500, seed=2)
        assert measured == pytest.approx(decider.theoretical_acceptance(configuration), abs=0.05)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_non_positive_trials_return_the_closed_form(self, trials):
        decider = SizeAwareSlackDecider(ProperColoring(3), eps=0.2)
        configuration = cycle_coloring_with_conflicts(30, 2)
        assert decider.acceptance_probability(
            configuration, trials=trials
        ) == decider.theoretical_acceptance(configuration)

    def test_member_accept_and_non_member_reject_majorities(self):
        eps = 0.2
        decider = SizeAwareSlackDecider(ProperColoring(3), eps=eps)
        language = eps_slack(ProperColoring(3), eps)
        yes_instance = cycle_coloring_with_conflicts(30, 2)   # 4 bad ≤ 6
        no_instance = cycle_coloring_with_conflicts(30, 5)    # 10 bad > 6
        assert language.contains(yes_instance)
        assert not language.contains(no_instance)
        assert decider.acceptance_probability(yes_instance, trials=1000, seed=3) > 0.5
        assert decider.acceptance_probability(no_instance, trials=1000, seed=4) < 0.5

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            SizeAwareSlackDecider(ProperColoring(3), eps=1.5)


class TestBpldNodeCounterexample:
    def test_report_shows_the_separation(self):
        report = bpld_node_counterexample_report(eps=0.6, n=15)
        assert report.decider_guarantee > 0.5
        assert report.randomized_constructor_exists
        assert report.deterministic_constructor_ruled_out
        assert report.best_order_invariant_bad_fraction > report.eps

    def test_large_eps_no_longer_rules_out_determinism(self):
        # With eps close to 1 even a constant coloring meets the slack budget,
        # so the counterexample evaporates — the report must say so.
        report = bpld_node_counterexample_report(eps=0.95, n=15)
        assert not report.deterministic_constructor_ruled_out


class TestCanonicalization:
    def test_result_is_order_invariant_even_for_id_dependent_input(self):
        id_dependent = FunctionBallAlgorithm(
            lambda ball: ball.center_id() % 7, radius=1, name="id-mod-7"
        )
        canonical = canonicalize_algorithm(id_dependent)
        network = cycle_network(11, ids="shuffled", seed=3)
        assert not is_order_invariant_on(id_dependent, network)
        assert is_order_invariant_on(canonical, network)

    def test_preserves_outputs_of_order_invariant_algorithms(self):
        algorithm = OrderInvariantAlgorithm(
            rule=lambda ball, ranks: ranks[ball.center], radius=1
        )
        canonical = canonicalize_algorithm(algorithm)
        network = cycle_network(9, ids="shuffled", seed=4)
        assert run_ball_algorithm(network, algorithm) == run_ball_algorithm(network, canonical)

    def test_relabelled_ball_uses_smallest_identities(self):
        seen = {}

        def probe(ball):
            seen["ids"] = sorted(ball.ids.values())
            return 0

        canonical = canonicalize_algorithm(
            FunctionBallAlgorithm(probe, radius=1, name="probe"), base_identity=5
        )
        network = cycle_network(9, ids="shuffled", seed=5)
        run_ball_algorithm(network, canonical)
        assert seen["ids"] == [5, 6, 7]

    def test_rejects_randomized_algorithms(self):
        randomized = FunctionBallAlgorithm(
            lambda ball, tape: tape.bit(), radius=0, randomized=True
        )
        with pytest.raises(ValueError):
            CanonicalizedAlgorithm(randomized)

    def test_base_identity_validated(self):
        deterministic = FunctionBallAlgorithm(lambda ball: 0, radius=0)
        with pytest.raises(ValueError):
            CanonicalizedAlgorithm(deterministic, base_identity=0)
