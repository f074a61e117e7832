"""Batched trial evaluation of compiled decisions.

One Monte-Carlo trial of a compiled decider runs every node's vote program
(a small Bernoulli circuit, see :mod:`repro.engine.compiler`) and takes the
global AND; ``trials`` trials are evaluated as stacked ``trials × coins``
comparisons against the program thresholds.  Two sampling modes are
provided:

``fast`` (default)
    Each coin-flipping node draws its uniform block from its own
    deterministically-derived :class:`numpy.random.Generator`.  The
    per-trial accept/reject stream differs from the legacy per-node-tape
    path, but its distribution is identical — the equivalence test in
    ``tests/engine`` checks this statistically and via the exact per-trial
    product :attr:`CompiledDecision.deterministic_accept_probability`.
    Per-node generators also make the stream independent of the chunking
    below: the same ``(seed, salt)`` yields the same accept vector for any
    ``max_bytes`` and any batch schedule.

``exact``
    Bit-for-bit reproduction of the reference path: for trial ``i`` the
    ``k``-th uniform consumed by node ``v``'s program is the ``k``-th draw
    of the tape ``TapeFactory(trial_seed(i), salt).tape_for(identity(v))``,
    exactly the stream :meth:`repro.core.decision.Decider.acceptance_estimate`
    and :func:`repro.core.decision.estimate_guarantee` consume.  Only nodes
    whose vote genuinely depends on draws ever read their tape (matching
    the reference voting rules, which return early on deterministic balls),
    so this mode still skips the per-trial tape construction for every
    deterministic node — usually the overwhelming majority.

One sampler
-----------
:class:`AcceptStream` is the only sampler: estimators pull batches from it
(one batch for a fixed budget, a doubling schedule for a precision target),
and :func:`accept_vector` / :func:`vote_matrix` are the first batch of a
fresh stream.

Chunked execution
-----------------
The fast mode never materialises one giant ``trials × coins`` matrix: the
coin-flipping nodes are grouped by program and each group's trial axis is
sliced so its uniform working set stays below ``max_bytes`` (default
:data:`DEFAULT_MAX_BYTES`, overridable per call or via
``$REPRO_ENGINE_MAX_BYTES``), folding each slice into the per-trial accept
vector.  The exact mode is a per-trial walk and is memory-bounded by
construction; its acceptance path short-circuits each trial at the first
rejecting coin, exactly like the reference loop's early return (per-node
draws are independent, so skipping later coins skips values that could not
affect the conjunction).
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.engine.compiler import ACCEPT, CompiledDecision, VoteProgram
from repro.local.randomness import derive_generator
from repro.obs import get_recorder

__all__ = [
    "DEFAULT_MAX_BYTES",
    "AcceptStream",
    "accept_vector",
    "vote_matrix",
    "exact_single_trial_votes",
    "deterministic_accept_value",
]

_MODES = ("fast", "exact")

#: Default bound on the fast mode's uniform working set, in bytes.
DEFAULT_MAX_BYTES = 64 * 1024 * 1024


def _resolve_max_bytes(max_bytes: Optional[int]) -> int:
    if max_bytes is None:
        raw = os.environ.get("REPRO_ENGINE_MAX_BYTES", "")
        try:
            max_bytes = int(raw) if raw else DEFAULT_MAX_BYTES
        except ValueError:
            raise ValueError(
                f"$REPRO_ENGINE_MAX_BYTES must be a plain byte count, got {raw!r}"
            ) from None
    if max_bytes < 1:
        raise ValueError("max_bytes must be positive")
    return max_bytes


def _resolve(
    compiled: CompiledDecision,
    mode: str,
    seed: int,
    trial_seed: Optional[Callable[[int], int]],
    salt: Optional[object],
):
    if mode not in _MODES:
        raise ValueError(f"unknown engine mode {mode!r}; expected one of {_MODES}")
    if salt is None:
        salt = compiled.decider_name
    if trial_seed is None:
        trial_seed = lambda trial: seed + trial  # noqa: E731 - the legacy convention
    return salt, trial_seed


# --------------------------------------------------------------------------- #
# Fast mode: vectorized program evaluation
# --------------------------------------------------------------------------- #
def _fast_node_generator(
    compiled: CompiledDecision, position: int, seed: int, salt: object
) -> np.random.Generator:
    """One coin-flipping node's fast-mode generator, derived from the node
    identity — so the stream a node sees is independent of how its trials
    are batched or how the working set is sliced."""
    return derive_generator(
        int(seed),
        "engine-fast",
        salt,
        compiled.decider_name,
        int(compiled.identities[position]),
    )


def _evaluate_program_block(program: VoteProgram, uniforms: np.ndarray) -> np.ndarray:
    """Evaluate one program on a ``trials × nodes × draws`` uniform block.

    Runs the lowered decision DAG as a vectorized state machine: program
    nodes are processed in decreasing index order (every edge goes from a
    higher index to a lower one), each moving the trials currently at that
    node along its true/false edge.
    """
    shape = uniforms.shape[:2]
    if program.root < 0:
        return np.full(shape, program.root == ACCEPT, dtype=bool)
    state = np.full(shape, program.root, dtype=np.int32)
    for node in range(program.root, -1, -1):
        at_node = state == node
        if not at_node.any():
            continue
        takes_true = uniforms[..., program.depths[node]] < program.thresholds[node]
        state[at_node] = np.where(
            takes_true[at_node], program.on_true[node], program.on_false[node]
        )
    return state == ACCEPT


# --------------------------------------------------------------------------- #
# Exact mode: per-trial walks over the reference tape streams
# --------------------------------------------------------------------------- #
def _exact_walker(
    compiled: CompiledDecision, position: int, master_seed: int, salt: object
) -> Callable[[], float]:
    """Sequential uniforms of one node's reference tape for one trial."""
    generator = derive_generator(
        int(master_seed), salt, int(compiled.identities[position])
    )
    return lambda: float(generator.random())


def _exact_accepts(
    compiled: CompiledDecision,
    trials: int,
    trial_seed: Callable[[int], int],
    salt: object,
) -> np.ndarray:
    """Per-trial global acceptance under the reference tape streams,
    short-circuiting each trial at the first rejecting coin."""
    random_positions = compiled.random_index
    coins = [(int(position), compiled.program_of(position)) for position in random_positions]
    accepted = np.zeros(trials, dtype=bool)
    for trial in range(trials):
        master = int(trial_seed(trial))
        for position, program in coins:
            if not program.walk(_exact_walker(compiled, position, master, salt)):
                break
        else:
            accepted[trial] = True
    return accepted


def _exact_votes(
    compiled: CompiledDecision,
    positions: np.ndarray,
    trials: int,
    trial_seed: Callable[[int], int],
    salt: object,
) -> np.ndarray:
    """The ``trials × len(positions)`` vote matrix of the reference streams
    (no short-circuit: every listed node is evaluated in every trial)."""
    votes = np.empty((trials, len(positions)), dtype=bool)
    programs = [compiled.program_of(position) for position in positions]
    for trial in range(trials):
        master = int(trial_seed(trial))
        for column, (position, program) in enumerate(zip(positions, programs)):
            votes[trial, column] = program.walk(
                _exact_walker(compiled, position, master, salt)
            )
    return votes


# --------------------------------------------------------------------------- #
# Public entry points
# --------------------------------------------------------------------------- #
def deterministic_accept_value(compiled: CompiledDecision) -> Optional[bool]:
    """The global accept value when it is structurally determined.

    ``False`` when some node's program is constantly rejecting, ``True``
    when every program is constantly accepting, ``None`` when acceptance
    genuinely depends on draws.  Estimators with a precision target use this
    to report exact degenerate estimates instead of sampling a constant.
    """
    if compiled.always_rejects:
        return False
    if len(compiled.random_index) == 0:
        return True
    return None


#: One program's fast-mode column group: (program, node generators, positions).
_FastGroup = Tuple[VoteProgram, List[np.random.Generator], List[int]]


class AcceptStream:
    """The trial stream of a compiled decision: the one sampler of both modes.

    ``sample(count)`` returns the accept vector of the **next** ``count``
    trials and ``votes(count)`` their full ``count × nodes`` vote matrix;
    the concatenation of successive batches is bit-identical to one batch
    with the total trial count, in both modes:

    * exact mode derives every trial from its own master seed
      (``trial_seed(t)``), so a batch starting at offset ``o`` simply walks
      trials ``o .. o+count-1``;
    * fast mode holds every coin-flipping node's generator open across
      batches — each node's uniforms arrive in ``(trial, draw)`` order
      regardless of batching, and the trial axis is sliced so the uniform
      working set stays below ``max_bytes``.

    This is what lets a sequential-stopping rule decide *after* a chunk
    whether to continue, without perturbing a single sampled value; the
    one-shot :func:`accept_vector` and :func:`vote_matrix` are a fresh
    stream's first batch.
    """

    def __init__(
        self,
        compiled: CompiledDecision,
        seed: int = 0,
        mode: str = "fast",
        trial_seed: Optional[Callable[[int], int]] = None,
        salt: Optional[object] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        self.compiled = compiled
        self.mode = mode
        self._seed = seed
        self._salt, self._trial_seed = _resolve(compiled, mode, seed, trial_seed, salt)
        self._max_bytes = _resolve_max_bytes(max_bytes)
        self._offset = 0
        self._constant = deterministic_accept_value(compiled)
        self._groups: Optional[List[_FastGroup]] = None  # opened on the first fast batch

    @property
    def trials_sampled(self) -> int:
        return self._offset

    def _advance(self, count: int) -> int:
        if count < 1:
            raise ValueError("trials must be positive")
        start = self._offset
        self._offset += count
        return start

    def _span(self, op: str, count: int, start: int):
        return get_recorder().span(
            "engine.execute",
            op=op,
            mode=self.mode,
            trials=count,
            offset=start,
            nodes=self.compiled.n_nodes,
            random_nodes=len(self.compiled.random_index),
        )

    def _fast_blocks(self, count: int) -> Iterator[Tuple[List[int], int, int, np.ndarray]]:
        """``(positions, lo, hi, votes)`` blocks of the next ``count`` fast
        trials, grouped by program.  Every node's generator advances exactly
        ``count`` trials per batch, or the next batch would read a shifted
        stream and break chunk invariance."""
        compiled = self.compiled
        if self._groups is None:
            by_program: Dict[int, List[int]] = {}
            for position in compiled.random_index:
                by_program.setdefault(int(compiled.program_ids[position]), []).append(
                    int(position)
                )
            self._groups = [
                (
                    compiled.programs[program_id],
                    [
                        _fast_node_generator(compiled, position, self._seed, self._salt)
                        for position in group
                    ],
                    group,
                )
                for program_id, group in by_program.items()
            ]
        recorder = get_recorder()
        for program, generators, positions in self._groups:
            draws = max(program.max_draws, 1)
            trial_block = max(1, self._max_bytes // (8 * len(positions) * draws))
            for lo in range(0, count, trial_block):
                hi = min(count, lo + trial_block)
                recorder.counter("engine.chunks")
                uniforms = np.empty((hi - lo, len(positions), draws), dtype=np.float64)
                for column, generator in enumerate(generators):
                    uniforms[:, column, :] = generator.random((hi - lo, draws))
                yield positions, lo, hi, _evaluate_program_block(program, uniforms)

    def _shifted_seed(self, start: int) -> Callable[[int], int]:
        return lambda trial: self._trial_seed(start + trial)

    def sample(self, count: int) -> np.ndarray:
        """The accept vector of the next ``count`` trials."""
        start = self._advance(count)
        if self._constant is not None:
            return np.full(count, self._constant, dtype=bool)
        with self._span("sample", count, start):
            if self.mode == "exact":
                get_recorder().counter("engine.chunks")
                return _exact_accepts(
                    self.compiled, count, self._shifted_seed(start), self._salt
                )
            accepted = np.ones(count, dtype=bool)
            for _positions, lo, hi, votes in self._fast_blocks(count):
                accepted[lo:hi] &= votes.all(axis=1)
            return accepted

    def votes(self, count: int) -> np.ndarray:
        """The ``count × nodes`` vote matrix of the next ``count`` trials."""
        start = self._advance(count)
        compiled = self.compiled
        votes = np.broadcast_to(compiled.probabilities >= 1.0, (count, compiled.n_nodes)).copy()
        random_positions = compiled.random_index
        if len(random_positions) == 0:
            return votes
        with self._span("votes", count, start):
            if self.mode == "exact":
                get_recorder().counter("engine.chunks")
                votes[:, random_positions] = _exact_votes(
                    compiled, random_positions, count, self._shifted_seed(start), self._salt
                )
                return votes
            for positions, lo, hi, block in self._fast_blocks(count):
                votes[lo:hi, positions] = block
        return votes


def accept_vector(
    compiled: CompiledDecision,
    trials: int,
    seed: int = 0,
    mode: str = "fast",
    trial_seed: Optional[Callable[[int], int]] = None,
    salt: Optional[object] = None,
    max_bytes: Optional[int] = None,
) -> np.ndarray:
    """Per-trial global acceptance (``all`` over the node votes).

    Returns a boolean vector of length ``trials``: the first batch of a
    fresh :class:`AcceptStream`.  Only the coin-flipping nodes are sampled;
    a structurally constant decision is returned without sampling.
    ``max_bytes`` bounds the fast mode's uniform working set (see the module
    docstring).
    """
    return AcceptStream(
        compiled, seed=seed, mode=mode, trial_seed=trial_seed, salt=salt, max_bytes=max_bytes
    ).sample(trials)


def vote_matrix(
    compiled: CompiledDecision,
    trials: int,
    seed: int = 0,
    mode: str = "fast",
    trial_seed: Optional[Callable[[int], int]] = None,
    salt: Optional[object] = None,
    max_bytes: Optional[int] = None,
) -> np.ndarray:
    """The full ``trials × nodes`` boolean vote matrix: the first
    :meth:`AcceptStream.votes` batch of a fresh stream.

    Use :func:`accept_vector` when only global acceptance is needed — it
    never materialises the per-node columns.  This entry point serves
    callers that reduce over *subsets* of the node votes (the single-trial
    case is :func:`exact_single_trial_votes`, which the derandomization
    loops use for the Claim 4 far-acceptance events).
    """
    return AcceptStream(
        compiled, seed=seed, mode=mode, trial_seed=trial_seed, salt=salt, max_bytes=max_bytes
    ).votes(trials)


def exact_single_trial_votes(
    compiled: CompiledDecision,
    master_seed: int,
    salt: object,
) -> np.ndarray:
    """One trial's per-node votes under the reference tape streams.

    Equivalent to ``decider.decide(configuration,
    tape_factory=TapeFactory(master_seed, salt))`` restricted to the vote
    booleans, and bit-for-bit identical to it for compilable deciders.
    """
    votes = compiled.probabilities >= 1.0
    random_positions = compiled.random_index
    if len(random_positions):
        votes = votes.copy()
        votes[random_positions] = _exact_votes(
            compiled,
            random_positions,
            1,
            trial_seed=lambda _trial: int(master_seed),
            salt=salt,
        )[0]
    return votes
