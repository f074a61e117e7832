"""Drop-in engine counterparts of the legacy decision entry points.

These helpers are what :mod:`repro.core.decision` and
:mod:`repro.core.derandomization` dispatch to when a decider is compilable
(see :func:`repro.engine.compiler.is_compilable`): one per quantity — the
success estimate of a configuration (Pr[all accept], or its complement on
non-members) and one decide() execution.  Each mirrors the exact seeding
convention of the reference loop it replaces, so callers choose between

* ``engine="auto"`` — compile and run in **exact** mode: bit-for-bit the
  same accept/reject stream as the reference loop, minus the per-trial
  Python voting (the default everywhere: safe and already much faster on
  configurations whose balls are mostly deterministic);
* ``engine="fast"`` — compile and run the fully vectorized chunked sampler:
  distributionally equivalent, maximum throughput;
* ``engine="off"`` — never used here; callers fall back to the reference
  loop themselves.

Both multi-draw vote programs (``vote_program(ball)``) and the legacy
single-Bernoulli contract (``vote_probability(ball)``) compile; see
:mod:`repro.engine.compiler`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable

import numpy as np

from repro.engine.compiler import compile_decision, is_compilable
from repro.engine.executor import (
    AcceptStream,
    deterministic_accept_value,
    exact_single_trial_votes,
)
from repro.stats import PrecisionTarget, ProbabilityEstimate, sequential_estimate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.decision import Decider
    from repro.core.languages import Configuration

__all__ = [
    "ENGINE_CHOICES",
    "resolve_engine",
    "engine_success_estimate",
    "engine_single_trial_votes",
]

#: Accepted values of the ``engine=`` parameter threaded through the stack.
ENGINE_CHOICES = ("auto", "fast", "exact", "off")


def resolve_engine(engine: str, decider: object) -> str:
    """Map an ``engine=`` parameter value to an execution path.

    Returns ``"off"`` (reference path), ``"exact"`` or ``"fast"``.  ``auto``
    selects exact mode when the decider is compilable, otherwise the
    reference path; explicitly requesting ``fast``/``exact`` on a
    non-compilable decider raises, because silently falling back would
    misreport what was measured.
    """
    if engine not in ENGINE_CHOICES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINE_CHOICES}")
    if engine == "off":
        return "off"
    compilable = is_compilable(decider)
    if engine == "auto":
        return "exact" if compilable else "off"
    if not compilable:
        raise TypeError(
            f"engine={engine!r} requested but decider "
            f"{getattr(decider, 'name', decider)!r} is not compilable"
        )
    return engine


def engine_success_estimate(
    decider: "Decider",
    configuration: "Configuration",
    target: PrecisionTarget,
    seed_base: int,
    salt: object,
    mode: str,
    member: bool = True,
) -> ProbabilityEstimate:
    """Engine counterpart of the reference trial loop of
    :meth:`Decider.acceptance_estimate` and
    :func:`repro.core.decision.estimate_guarantee`.

    Success means "all accept" (``member=True``) or "some node rejects"
    (``member=False``); exact mode replays the reference seeding
    ``TapeFactory(seed_base + trial, salt)``.  Trials stream in batches
    until ``target`` is met — one batch for a fixed budget — and a stop at
    ``k`` trials reports exactly the ``k``-trial estimate, because the
    streams are chunk-invariant.  A structurally constant decision under a
    half-width target returns the exact degenerate estimate without
    sampling.
    """
    compiled = compile_decision(decider, configuration)
    constant = deterministic_accept_value(compiled)
    if constant is not None and not target.is_fixed:
        return ProbabilityEstimate.exact(constant == member, confidence=target.confidence)
    stream = AcceptStream(compiled, seed=seed_base, mode=mode, salt=salt)

    def draw(count: int) -> int:
        accepted = int(np.count_nonzero(stream.sample(count)))
        return accepted if member else count - accepted

    return sequential_estimate(target, draw)


def engine_single_trial_votes(
    decider: "Decider",
    configuration: "Configuration",
    master_seed: int,
    salt: object,
) -> Dict[Hashable, bool]:
    """One decide() execution evaluated through the engine.

    Bit-for-bit identical to ``decider.decide(configuration,
    tape_factory=TapeFactory(master_seed, salt)).votes`` for compilable
    deciders; used by the derandomization loops, whose configurations change
    every trial (fresh constructor coins) but whose decision step still
    benefits from skipping tape construction at deterministic nodes.
    """
    compiled = compile_decision(decider, configuration)
    votes = exact_single_trial_votes(compiled, master_seed, salt)
    return {node: bool(votes[position]) for position, node in enumerate(compiled.nodes)}
