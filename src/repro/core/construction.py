"""Construction tasks (Section 2.2.1).

The construction task for a language ``L`` asks every node, given the input
configuration ``(G, x)`` and the identity assignment, to produce an output
``y(v)`` such that ``(G, (x, y)) ∈ L``.  A randomized Monte-Carlo
construction algorithm has *success probability* ``r`` if on every instance
the produced configuration belongs to ``L`` with probability at least ``r``
(Eq. (2) of the paper).

Two concrete constructor shapes are provided:

* :class:`BallConstructor` — a constant-time constructor presented as a ball
  algorithm (radius = number of rounds), the object the derandomization
  theorem speaks about;
* :class:`MessagePassingConstructor` — a wrapper around a full
  message-passing :class:`~repro.local.algorithm.LocalAlgorithm`, used for
  the non-constant-time baselines (Cole–Vishkin, Luby, ...) that the
  benchmark harness compares against.

:func:`estimate_success_probability` measures the empirical ``r`` of a
constructor against a language over a set of instances.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Optional, Sequence, Tuple

from repro.core.languages import Configuration, DistributedLanguage
from repro.engine.construct import (
    ConstructionCompilationError,
    adaptive_success_estimate,
    resolve_construction_engine,
)
from repro.stats import Z196_CONFIDENCE, PrecisionTarget, ProbabilityEstimate, sequential_estimate
from repro.local.algorithm import BallAlgorithm, LocalAlgorithm
from repro.local.network import Network
from repro.local.randomness import TapeFactory
from repro.local.simulator import Simulator, run_ball_algorithm

__all__ = [
    "Constructor",
    "BallConstructor",
    "MessagePassingConstructor",
    "SuccessEstimate",
    "estimate_success_probability",
    "success_estimate",
]


class Constructor(ABC):
    """Base class for construction algorithms."""

    name: str = "constructor"
    #: Whether the constructor uses private randomness (Monte-Carlo).
    randomized: bool = False

    @abstractmethod
    def construct(
        self,
        network: Network,
        tape_factory: Optional[TapeFactory] = None,
    ) -> Dict[Hashable, object]:
        """Produce the output assignment ``y`` for the given instance."""

    def configuration(
        self,
        network: Network,
        tape_factory: Optional[TapeFactory] = None,
    ) -> Configuration:
        """Run the constructor and wrap the result as a configuration."""
        return Configuration(network, self.construct(network, tape_factory))

    def rounds(self) -> Optional[int]:
        """The constructor's round complexity when it is fixed and known;
        ``None`` for adaptive algorithms."""
        return None


class BallConstructor(Constructor):
    """A constant-time constructor given as a ball algorithm.

    This is the object Theorem 1 quantifies over: a ``t``-round (Monte-Carlo)
    construction algorithm, i.e. a map from radius-``t`` balls (and private
    coins) to outputs.
    """

    def __init__(self, algorithm: BallAlgorithm, name: Optional[str] = None) -> None:
        self.algorithm = algorithm
        self.randomized = bool(algorithm.randomized)
        self.name = name if name is not None else f"ball-constructor({algorithm.name})"

    @property
    def radius(self) -> int:
        return self.algorithm.radius

    def rounds(self) -> Optional[int]:
        return self.algorithm.radius

    def construct(
        self,
        network: Network,
        tape_factory: Optional[TapeFactory] = None,
    ) -> Dict[Hashable, object]:
        return run_ball_algorithm(network, self.algorithm, tape_factory=tape_factory)


class MessagePassingConstructor(Constructor):
    """A constructor given as a message-passing LOCAL algorithm.

    Parameters
    ----------
    algorithm_factory:
        A zero-argument callable returning a fresh
        :class:`~repro.local.algorithm.LocalAlgorithm` instance (algorithms
        may keep per-run configuration, so a factory avoids aliasing).
    randomized:
        Whether the produced algorithms consume randomness.
    rounds:
        Fixed round budget, or ``None`` to run until the algorithm reports
        completion.
    max_rounds:
        Safety bound for adaptive algorithms.
    """

    def __init__(
        self,
        algorithm_factory: Callable[[], LocalAlgorithm],
        randomized: bool = False,
        rounds: Optional[int] = None,
        max_rounds: int = 10_000,
        name: str = "message-passing-constructor",
    ) -> None:
        self._factory = algorithm_factory
        self.randomized = bool(randomized)
        self._rounds = rounds
        self._max_rounds = max_rounds
        self.name = name
        #: Rounds executed by the most recent :meth:`construct` call.
        self.last_rounds: Optional[int] = None

    def rounds(self) -> Optional[int]:
        return self._rounds

    def construct(
        self,
        network: Network,
        tape_factory: Optional[TapeFactory] = None,
    ) -> Dict[Hashable, object]:
        simulator = Simulator(network, tape_factory=tape_factory)
        result = simulator.run(
            self._factory(), rounds=self._rounds, max_rounds=self._max_rounds
        )
        self.last_rounds = result.rounds
        return result.outputs


# --------------------------------------------------------------------------- #
# Success-probability estimation
# --------------------------------------------------------------------------- #
@dataclass
class SuccessEstimate:
    """Empirical success probability of a constructor for a language.

    ``per_instance`` maps the instance index to ``(success_rate,
    half_width)``.  ``success_probability`` — the empirical counterpart of
    the paper's ``r`` — is the minimum rate over the instances, because the
    definition quantifies over *every* instance.  ``trials_used`` records
    how many trials each instance consumed (the fixed budget without a
    precision target; possibly fewer with one).
    """

    per_instance: Dict[int, Tuple[float, float]] = field(default_factory=dict)
    trials_used: Dict[int, int] = field(default_factory=dict)

    @property
    def success_probability(self) -> float:
        if not self.per_instance:
            return float("nan")
        return min(rate for (rate, _hw) in self.per_instance.values())

    @property
    def mean_rate(self) -> float:
        if not self.per_instance:
            return float("nan")
        return sum(rate for (rate, _hw) in self.per_instance.values()) / len(
            self.per_instance
        )


def estimate_success_probability(
    constructor: Constructor,
    language: DistributedLanguage,
    networks: Sequence[Network],
    trials: int = 200,
    seed: int = 0,
    engine: str = "auto",
    precision: Optional[object] = None,
) -> SuccessEstimate:
    """Estimate Pr[(G, (x, y)) ∈ L] for every instance.

    Deterministic constructors are executed once per instance; Monte-Carlo
    constructors are executed ``trials`` times with independent coins.

    Trial ``t`` of instance ``index`` draws its coins from
    ``TapeFactory(seed * 1_000_003 + t, salt=f"{constructor.name}/{index}")``.
    **Adjacent seeds therefore share coins across trials** (seed ``s`` at
    trial ``t + 1_000_003`` replays seed ``s + 1`` at trial ``t``); callers
    wanting independent runs should use distant seeds (e.g. 0 and 10_000).

    Compilable constructors (those exposing ``output_program(ball)``)
    dispatch their trials to :mod:`repro.engine.construct`:
    ``engine="auto"``/``"exact"`` replay the per-trial tape streams bit for
    bit, ``engine="fast"`` is fully vectorized and distributionally
    equivalent, ``engine="off"`` forces the reference loop.

    Each row reports the Wilson half-width at ``z = 1.96`` for a fixed
    budget, and the target's interval otherwise.

    ``precision`` (a :class:`~repro.stats.PrecisionTarget` or a bare
    half-width) runs each instance's trials sequentially until the CI
    half-width target is met, with ``trials`` as the per-instance cap; the
    streams are chunk-invariant, so an instance stopping at ``k`` trials
    reports exactly its fixed ``k``-trial rate.
    """
    target = PrecisionTarget.for_budget(precision, trials, confidence=Z196_CONFIDENCE)
    if not constructor.randomized:
        target = PrecisionTarget.fixed(1, confidence=Z196_CONFIDENCE)
    estimate = SuccessEstimate()
    for index, network in enumerate(networks):
        result = success_estimate(
            constructor,
            language,
            network,
            target,
            seed_base=seed * 1_000_003,
            salt=f"{constructor.name}/{index}",
            engine=engine,
        )
        estimate.per_instance[index] = (result.estimate, result.half_width)
        estimate.trials_used[index] = result.trials
    return estimate


def success_estimate(
    constructor: Constructor,
    language: DistributedLanguage,
    network: Network,
    target: PrecisionTarget,
    seed_base: int,
    salt: str,
    engine: str,
) -> ProbabilityEstimate:
    """Pr[the constructed configuration belongs to ``language``] on one
    instance, with trial ``t`` replaying ``TapeFactory(seed_base + t,
    salt)``: the construction engine's stream when the constructor compiles,
    else the reference loop.

    Explicit engine requests on a non-compilable randomized constructor
    raise (see :func:`~repro.engine.construct.resolve_construction_engine`);
    ``auto`` degrades a construction beyond the engine's shape to the
    reference loop.
    """
    mode = resolve_construction_engine(engine, constructor)
    if mode != "off":
        try:
            return adaptive_success_estimate(
                constructor, language, network, target, seed_base=seed_base, salt=salt, mode=mode
            )
        except ConstructionCompilationError:
            if engine != "auto":
                raise
    offset = 0

    def draw(count: int) -> int:
        nonlocal offset
        successes = 0
        for trial in range(offset, offset + count):
            factory = TapeFactory(seed_base + trial, salt=salt)
            configuration = constructor.configuration(network, tape_factory=factory)
            successes += int(language.contains(configuration))
        offset += count
        return successes

    return sequential_estimate(target, draw)
