"""Vectorized construction engine: batched constructor → membership → decider.

The decision engine (:mod:`repro.engine.compiler` / ``executor``) batches the
*decider's* coins, but the derandomization estimators — success probability,
far acceptance, the Claim 3/Theorem 1 amplification runs — draw fresh
**constructor** coins every trial too, and the reference loops rebuild a
:class:`~repro.core.languages.Configuration` per trial through the pure-Python
LOCAL simulator and call ``language.contains`` per trial.  This module factors
that per-trial Python out:

* **Output programs** — a constructor joins the engine by exposing
  ``output_program(ball) -> OutputExpr`` (on the constructor or on its ball
  algorithm): a description of the node's output as a *single* tape draw over
  a finite value alphabet (:func:`const_output`, :func:`uniform_int`,
  :func:`uniform_choice`, :func:`bernoulli_output`).  The contract is that
  interpreting the program against a fresh tape
  (:func:`evaluate_output_expr`) is observationally identical to
  ``algorithm.compute(ball, tape)`` — same output, same draws consumed.
* :func:`compile_construction` walks the network **once**, extracts each
  node's ball, interns the finite output alphabet, and freezes the per-node
  programs into NumPy form; :func:`construction_matrix` then produces the
  ``trials × nodes`` matrix of output codes in one pass — **exact** mode
  replaying the per-trial ``TapeFactory(seed + t, salt)`` streams bit for
  bit (draw *k* of trial *t* = tape draw *k* of that trial's factory),
  **fast** mode fully vectorized from per-node generators (chunk-invariant,
  working set bounded by ``max_bytes`` exactly like the decision executor).
* :func:`compile_membership` lowers language membership to array form over
  the code matrix: radius-0 LCL predicates become per-``(node, value)``
  bad-ball tables, proper coloring becomes CSR-style padded neighbour
  equality checks, and the f-resilient / ε-slack relaxations thresholds on
  the batched bad-ball counts.  Languages beyond these shapes return ``None``
  and the callers fall back to per-trial ``language.contains`` on decoded
  rows (still batched on the construction side).
* :func:`compile_fused_decision` fuses a radius-0, single-coin-per-node
  decider on top of the construction: the decider's vote threshold is
  tabulated per ``(node, output value)`` once, so a whole amplification run
  (construct → membership → decide) needs no per-trial Python at all.

Seed + trial convention (shared with the reference loops)
---------------------------------------------------------
The derandomization estimators derive per-trial master seeds as
``seed * MULTIPLIER + trial`` (``1_000_003`` for success probability,
``104_729`` for far acceptance, ``15_485_863`` for the amplification runs,
``7_919`` for the hard-instance screening).  **Adjacent seeds therefore share
coins across trials**: seed ``s`` at trial ``t + MULTIPLIER`` replays seed
``s + 1`` at trial ``t`` (see the ``seed-plus-trial-convention`` note).  The
batched paths reproduce the convention bit for bit rather than fixing it —
bit-identity with the reference loops is the exactness contract — so tests
comparing runs at different seeds must use *distant* seeds (e.g. 0 and
10_000), never adjacent ones.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.engine.compiler import (
    ACCEPT,
    _node_expression,
    is_compilable,
    lower_program,
)
from repro.engine.executor import _resolve_max_bytes
from repro.errors import ReproError
from repro.local.ball import collect_ball
from repro.local.randomness import derive_generator
from repro.obs import get_recorder
from repro.stats import PrecisionTarget, ProbabilityEstimate, sequential_estimate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.decision import Decider
    from repro.core.languages import DistributedLanguage
    from repro.engine.fusion import FusionContext
    from repro.local.network import Network

__all__ = [
    "MAX_OUTPUT_VALUES",
    "OutputExpr",
    "ConstOutput",
    "UniformInt",
    "UniformChoice",
    "BernoulliOutput",
    "const_output",
    "uniform_int",
    "uniform_choice",
    "bernoulli_output",
    "evaluate_output_expr",
    "ConstructionCompilationError",
    "is_construction_compilable",
    "resolve_construction_engine",
    "OutputProgram",
    "CompiledConstruction",
    "compile_construction",
    "construction_matrix",
    "MembershipProgram",
    "compile_membership",
    "FusedDecision",
    "compile_fused_decision",
    "batched_bad_counts",
    "batched_acceptance_and_membership",
    "far_acceptance_counts",
    "ConstructionStream",
    "adaptive_success_estimate",
]

#: Hard cap on the size of a compiled construction's output alphabet (guards
#: against e.g. ``uniform_int`` over a huge range exploding the value tables).
MAX_OUTPUT_VALUES = 4096


# --------------------------------------------------------------------------- #
# The output-program IR
# --------------------------------------------------------------------------- #
class OutputExpr:
    """Base class of output-program expressions (immutable, structural
    equality).  Every non-constant expression consumes exactly **one** tape
    draw — the constructors in scope (random coloring, the toy faulty
    constructors of E6/E9) are all single-draw maps from balls to values;
    richer constructors must stay on the reference path."""

    __slots__ = ()


@dataclass(frozen=True)
class ConstOutput(OutputExpr):
    """An output that ignores the tape entirely."""

    value: object


@dataclass(frozen=True)
class UniformInt(OutputExpr):
    """``tape.randint(low, high)`` — one bounded-integer draw, output the
    drawn integer itself."""

    low: int
    high: int


@dataclass(frozen=True)
class UniformChoice(OutputExpr):
    """``tape.choice(values)`` — one ``randint(0, len-1)`` draw indexing a
    fixed value tuple."""

    values: Tuple[object, ...]


@dataclass(frozen=True)
class BernoulliOutput(OutputExpr):
    """``if_true if tape.bernoulli(q) else if_false`` — one uniform draw.

    Unlike the decision IR's :func:`~repro.engine.compiler.coin`, degenerate
    probabilities do **not** fold to constants: ``RandomTape.bernoulli``
    always consumes a draw, so the reference constructor consumes one even
    when ``q`` is 0 or 1, and exactness requires the program to as well.
    """

    q: float
    if_true: object
    if_false: object


def const_output(value: object) -> ConstOutput:
    return ConstOutput(value)


def uniform_int(low: int, high: int) -> UniformInt:
    low, high = int(low), int(high)
    if high < low:
        raise ValueError("empty range for uniform_int")
    return UniformInt(low, high)


def uniform_choice(values: Sequence[object]) -> OutputExpr:
    values = tuple(values)
    if not values:
        raise ValueError("cannot choose from an empty sequence")
    return UniformChoice(values)


def bernoulli_output(q: float, if_true: object, if_false: object) -> BernoulliOutput:
    q = float(q)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"bernoulli probability must lie in [0, 1]; got {q}")
    return BernoulliOutput(q, if_true, if_false)


def evaluate_output_expr(expr: OutputExpr, tape) -> object:
    """Interpret an output program against a node's private tape.

    This is the *reference semantics* of the IR: the compiled sampling below
    is defined to agree with this interpreter bit for bit (``tape`` is any
    object with the :class:`~repro.local.randomness.RandomTape` draw
    methods).  Constant programs never touch the tape.
    """
    if isinstance(expr, ConstOutput):
        return expr.value
    if tape is None:
        raise ValueError("an output program with draws needs a random tape")
    if isinstance(expr, UniformInt):
        return tape.randint(expr.low, expr.high)
    if isinstance(expr, UniformChoice):
        return tape.choice(expr.values)
    if isinstance(expr, BernoulliOutput):
        return expr.if_true if tape.bernoulli(expr.q) else expr.if_false
    raise TypeError(f"not an output expression: {expr!r}")


class ConstructionCompilationError(ReproError, ValueError):
    """A constructor's output program exceeds what the construction engine
    can express (non-hashable values, oversized alphabets, ...).

    Part of the wire taxonomy so the service can report a malformed
    constructor as a client error instead of a generic 500.
    """

    code = "construction_compilation"
    http_status = 422


# --------------------------------------------------------------------------- #
# Compilation
# --------------------------------------------------------------------------- #
def _output_program_fn(constructor: object) -> Optional[Callable]:
    """The constructor's ``output_program`` contract, looked up on the
    constructor itself or on its ball algorithm."""
    fn = getattr(constructor, "output_program", None)
    if callable(fn):
        return fn
    fn = getattr(getattr(constructor, "algorithm", None), "output_program", None)
    if callable(fn):
        return fn
    return None


def is_construction_compilable(constructor: object) -> bool:
    """Whether the constructor (or its ball algorithm) exposes
    ``output_program(ball) -> OutputExpr``."""
    return _output_program_fn(constructor) is not None


def resolve_construction_engine(engine: str, constructor: object) -> str:
    """The constructor-side counterpart of
    :func:`repro.engine.adapters.resolve_engine`: maps an ``engine=`` value
    to ``"off"``, ``"exact"`` or ``"fast"``.  ``auto`` selects exact mode
    when the constructor is compilable and degrades to the reference path
    otherwise; explicitly requesting ``fast``/``exact`` on a non-compilable
    randomized constructor raises, because silently falling back would
    misreport what was measured.  Deterministic constructors have no coins
    to batch, so any (valid) engine value resolves to the reference path."""
    from repro.engine.adapters import ENGINE_CHOICES

    if engine not in ENGINE_CHOICES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINE_CHOICES}")
    if engine == "off" or not getattr(constructor, "randomized", False):
        return "off"
    compilable = is_construction_compilable(constructor)
    if engine == "auto":
        return "exact" if compilable else "off"
    if not compilable:
        raise TypeError(
            f"engine={engine!r} requested but constructor "
            f"{getattr(constructor, 'name', constructor)!r} exposes no "
            "output_program(ball) and cannot be compiled"
        )
    return engine


@dataclass(frozen=True)
class OutputProgram:
    """One distinct per-node output program, lowered to sampling form.

    ``codes`` maps the draw outcome to the output's code in the compiled
    alphabet: ``const`` programs hold one code, ``randint`` programs one code
    per integer of ``[low, high]``, ``bernoulli`` programs the pair
    ``(code_false, code_true)``.
    """

    kind: str  # "const" | "randint" | "bernoulli"
    codes: Tuple[int, ...]
    low: int = 0
    high: int = 0
    q: float = 0.0

    @property
    def draws(self) -> int:
        return 0 if self.kind == "const" else 1

    @cached_property
    def _code_array(self) -> np.ndarray:
        return np.asarray(self.codes, dtype=np.int32)

    def sample_fast(self, generator: np.random.Generator, size: int) -> np.ndarray:
        """``size`` vectorized draws from a dedicated fast-mode generator."""
        if self.kind == "randint":
            draws = generator.integers(self.low, self.high + 1, size=size)
            return self._code_array[draws - self.low]
        if self.kind == "bernoulli":
            return self._code_array[(generator.random(size) < self.q).astype(np.intp)]
        raise ValueError(f"constant programs are not sampled (kind={self.kind!r})")

    def sample_exact(self, generator: np.random.Generator) -> int:
        """One draw consuming the reference tape stream exactly like the
        interpreted expression (same method, same bounds)."""
        if self.kind == "randint":
            return self.codes[int(generator.integers(self.low, self.high + 1)) - self.low]
        if self.kind == "bernoulli":
            return self.codes[int(generator.random() < self.q)]
        raise ValueError(f"constant programs are not sampled (kind={self.kind!r})")

    @property
    def probabilities(self) -> Dict[int, float]:
        """Exact output distribution over codes (for distribution tests)."""
        if self.kind == "const":
            return {self.codes[0]: 1.0}
        if self.kind == "randint":
            share = 1.0 / len(self.codes)
            out: Dict[int, float] = {}
            for code in self.codes:
                out[code] = out.get(code, 0.0) + share
            return out
        out = {self.codes[0]: 1.0 - self.q}
        out[self.codes[1]] = out.get(self.codes[1], 0.0) + self.q
        return out


@dataclass(frozen=True)
class CompiledConstruction:
    """A ``(Constructor, Network)`` pair flattened to NumPy form.

    Outputs are represented as small-integer **codes** into the interned
    ``values`` alphabet; ``decode_row`` recovers the reference
    ``node -> value`` mapping of one trial.
    """

    nodes: Tuple[Hashable, ...]
    identities: np.ndarray
    values: Tuple[object, ...]
    programs: Tuple[OutputProgram, ...]
    program_ids: np.ndarray
    network: "Network"
    constructor_name: str
    radius: int

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @cached_property
    def random_index(self) -> np.ndarray:
        """Positions whose output genuinely consumes a draw."""
        return np.flatnonzero(
            np.array(
                [self.programs[pid].draws > 0 for pid in self.program_ids], dtype=bool
            )
        )

    @cached_property
    def constant_codes(self) -> np.ndarray:
        """Per-node code of the draw-free outputs (0 where the node draws;
        those columns are always overwritten)."""
        codes = np.zeros(self.n_nodes, dtype=np.int32)
        for position, pid in enumerate(self.program_ids):
            program = self.programs[pid]
            if program.draws == 0:
                codes[position] = program.codes[0]
        return codes

    def program_of(self, position: int) -> OutputProgram:
        return self.programs[int(self.program_ids[position])]

    def decode_row(self, row: np.ndarray) -> Dict[Hashable, object]:
        """One trial's code row as the reference output mapping."""
        return {
            node: self.values[int(row[position])]
            for position, node in enumerate(self.nodes)
        }


def compile_construction(constructor: object, network: "Network") -> CompiledConstruction:
    """Compile a constructor against a fixed network.

    Extracts every ball once, asks the constructor for each node's output
    program, interns the output alphabet, and dedups structurally identical
    programs.  Raises ``TypeError`` for constructors without the
    ``output_program`` contract and :class:`ConstructionCompilationError`
    for programs beyond the engine's shape (non-hashable values, alphabets
    larger than :data:`MAX_OUTPUT_VALUES`).
    """
    recorder = get_recorder()
    with recorder.span(
        "engine.compile_construction",
        constructor=str(getattr(constructor, "name", constructor)),
    ) as compile_span:
        compiled = _compile_construction(constructor, network, compile_span)
    if os.environ.get("REPRO_CHECK_IR", "") not in ("", "0"):
        # Lazy import: the verifier imports this module, and the hook is
        # opt-in (CI / tests), so production compiles pay nothing.
        from repro.check.ir import verify_compiled_construction

        verify_compiled_construction(compiled)
    return compiled


def _compile_construction(
    constructor: object, network: "Network", compile_span
) -> CompiledConstruction:
    program_fn = _output_program_fn(constructor)
    if program_fn is None:
        raise TypeError(
            f"constructor {getattr(constructor, 'name', constructor)!r} exposes no "
            "output_program(ball) and cannot be compiled; use the reference path"
        )
    rounds = constructor.rounds() if callable(getattr(constructor, "rounds", None)) else 0
    radius = int(rounds or 0)
    nodes: List[Hashable] = network.nodes()

    code_of: Dict[object, int] = {}
    values: List[object] = []

    def intern(value: object) -> int:
        try:
            code = code_of.get(value)
        except TypeError as error:
            raise ConstructionCompilationError(
                f"constructor output {value!r} is not hashable and cannot be "
                "interned into the engine's value alphabet"
            ) from error
        if code is None:
            if len(values) >= MAX_OUTPUT_VALUES:
                raise ConstructionCompilationError(
                    f"constructor output alphabet exceeds {MAX_OUTPUT_VALUES} "
                    "distinct values, which the construction engine cannot express"
                )
            code = code_of[value] = len(values)
            values.append(value)
        return code

    def lower(expr: OutputExpr) -> Tuple:
        if isinstance(expr, ConstOutput):
            return ("const", (intern(expr.value),), 0, 0, 0.0)
        if isinstance(expr, UniformInt):
            if expr.high - expr.low + 1 > MAX_OUTPUT_VALUES:
                raise ConstructionCompilationError(
                    f"uniform_int range [{expr.low}, {expr.high}] exceeds "
                    f"{MAX_OUTPUT_VALUES} values"
                )
            codes = tuple(intern(v) for v in range(expr.low, expr.high + 1))
            return ("randint", codes, expr.low, expr.high, 0.0)
        if isinstance(expr, UniformChoice):
            codes = tuple(intern(v) for v in expr.values)
            return ("randint", codes, 0, len(expr.values) - 1, 0.0)
        if isinstance(expr, BernoulliOutput):
            codes = (intern(expr.if_false), intern(expr.if_true))
            return ("bernoulli", codes, 0, 0, float(expr.q))
        raise TypeError(
            f"output_program of {getattr(constructor, 'name', constructor)!r} "
            f"returned {expr!r}; expected an OutputExpr "
            "(const_output/uniform_int/uniform_choice/bernoulli_output)"
        )

    interned: Dict[Tuple, int] = {}
    programs: List[OutputProgram] = []
    program_ids = np.empty(len(nodes), dtype=np.int32)
    for position, node in enumerate(nodes):
        ball = collect_ball(network, node, radius)
        key = lower(program_fn(ball))
        if key not in interned:
            kind, codes, low, high, q = key
            interned[key] = len(programs)
            programs.append(OutputProgram(kind=kind, codes=codes, low=low, high=high, q=q))
        program_ids[position] = interned[key]

    compile_span.annotate(nodes=len(nodes), programs=len(programs), alphabet=len(values))
    return CompiledConstruction(
        nodes=tuple(nodes),
        identities=np.array([network.identity(node) for node in nodes], dtype=np.int64),
        values=tuple(values),
        programs=tuple(programs),
        program_ids=program_ids,
        network=network,
        constructor_name=str(getattr(constructor, "name", "constructor")),
        radius=radius,
    )


# --------------------------------------------------------------------------- #
# Execution: the trials × nodes output-code matrix
# --------------------------------------------------------------------------- #
def construction_matrix(
    compiled: CompiledConstruction,
    trials: int,
    seed: int = 0,
    mode: str = "fast",
    salt: Optional[object] = None,
    max_bytes: Optional[int] = None,
) -> np.ndarray:
    """The ``trials × nodes`` matrix of output codes.

    ``exact`` mode: for trial ``t`` the ``k``-th draw consumed by node ``v``
    is the ``k``-th draw of ``TapeFactory(seed + t, salt).tape_for(v)``
    — bit-for-bit the stream the reference
    ``constructor.configuration(network, tape_factory=...)`` loop consumes.
    ``fast`` mode: per-node generators derived from ``(seed, salt, node
    identity)``, fully vectorized; chunk-invariant in both ``trials`` and
    ``max_bytes`` because each node's generator is consumed sequentially.

    This is the one-shot form of :class:`ConstructionStream` (a single
    ``sample(trials)`` on a fresh stream): there is exactly one sampling
    implementation.
    """
    return ConstructionStream(
        compiled, seed=seed, mode=mode, salt=salt, max_bytes=max_bytes
    ).sample(trials)


# --------------------------------------------------------------------------- #
# Membership lowering
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class MembershipProgram:
    """Batched membership for one language over a compiled construction.

    ``bad_counter(codes)`` returns the per-trial bad-ball count of the *base*
    LCL language; membership is ``count <= budget`` (``budget`` is 0 for the
    plain language and the tolerated violations for the f-resilient /
    ε-slack relaxations).
    """

    bad_counter: Callable[[np.ndarray], np.ndarray]
    budget: int
    language_name: str

    def bad_counts(self, codes: np.ndarray) -> np.ndarray:
        return self.bad_counter(codes)

    def member_vector(self, codes: np.ndarray) -> np.ndarray:
        return self.bad_counter(codes) <= self.budget


def _radius_zero_table_counter(
    base, compiled: CompiledConstruction
) -> Callable[[np.ndarray], np.ndarray]:
    """Per-(node, value) bad-ball table for radius-0 LCL languages: the ball
    of a node contains only the node itself, so ``is_bad_ball`` is a function
    of (identity, input, output value), tabulated once per reachable value."""
    n = compiled.n_nodes
    table = np.zeros((n, len(compiled.values)), dtype=bool)
    for position, node in enumerate(compiled.nodes):
        program = compiled.program_of(position)
        for code in set(program.codes):
            ball = collect_ball(
                compiled.network, node, 0, outputs={node: compiled.values[code]}
            )
            table[position, code] = bool(base.is_bad_ball(ball))
    rows = np.arange(n)

    def counter(codes: np.ndarray) -> np.ndarray:
        return table[rows[None, :], codes].sum(axis=1)

    return counter


def _proper_coloring_counter(
    base, compiled: CompiledConstruction, max_bytes: int
) -> Callable[[np.ndarray], np.ndarray]:
    """Padded-neighbour equality counter for proper coloring: a node's ball
    is bad iff its color leaves the palette or equals a neighbour's color.
    Codes intern distinct values, so code equality is value equality."""
    palette_bad = np.zeros(len(compiled.values), dtype=bool)
    if base.num_colors is not None:
        for code, value in enumerate(compiled.values):
            palette_bad[code] = not (
                isinstance(value, int) and 1 <= value <= base.num_colors
            )
    n = compiled.n_nodes
    position_of = {node: position for position, node in enumerate(compiled.nodes)}
    neighbor_lists = [
        [position_of[u] for u in compiled.network.neighbors(node)]
        for node in compiled.nodes
    ]
    max_degree = max((len(lst) for lst in neighbor_lists), default=0)
    # Sentinel column n holds code -1, which never equals a real code.
    padded = np.full((n, max(max_degree, 1)), n, dtype=np.int64)
    for position, lst in enumerate(neighbor_lists):
        padded[position, : len(lst)] = lst

    def counter(codes: np.ndarray) -> np.ndarray:
        trials = codes.shape[0]
        counts = np.empty(trials, dtype=np.int64)
        # 8 bytes/element bounds the dominant (block, n, max_degree)
        # gathered-codes temporary, keeping the working set under
        # ``max_bytes`` like every other chunked path in the engine.
        block = max(1, max_bytes // max(1, 8 * n * padded.shape[1]))
        for start in range(0, trials, block):
            stop = min(trials, start + block)
            chunk = codes[start:stop]
            extended = np.concatenate(
                [chunk, np.full((stop - start, 1), -1, dtype=chunk.dtype)], axis=1
            )
            conflict = (extended[:, padded] == chunk[:, :, None]).any(axis=2)
            counts[start:stop] = (conflict | palette_bad[chunk]).sum(axis=1)
        return counts

    return counter


def compile_membership(
    language: "DistributedLanguage",
    compiled: CompiledConstruction,
    max_bytes: Optional[int] = None,
) -> Optional[MembershipProgram]:
    """Lower a language to batched membership over the code matrix.

    Returns ``None`` for languages the engine cannot express — callers fall
    back to per-trial ``language.contains`` on decoded rows.  Membership is
    a deterministic function of the outputs, so the lowered evaluation is
    exact (not merely distributional) whenever it exists.
    """
    from repro.core.lcl import LCLLanguage, ProperColoring
    from repro.core.relaxations import EpsSlackLanguage, FResilientLanguage

    max_bytes = _resolve_max_bytes(max_bytes)
    base, budget = language, 0
    if isinstance(language, FResilientLanguage):
        base, budget = language.base, language.f
    elif isinstance(language, EpsSlackLanguage):
        base, budget = language.base, language.allowed_bad(compiled.n_nodes)

    counter: Optional[Callable[[np.ndarray], np.ndarray]] = None
    if isinstance(base, ProperColoring):
        counter = _proper_coloring_counter(base, compiled, max_bytes)
    elif isinstance(base, LCLLanguage) and int(base.radius) == 0:
        counter = _radius_zero_table_counter(base, compiled)
    if counter is None:
        return None
    return MembershipProgram(
        bad_counter=counter, budget=int(budget), language_name=str(language.name)
    )


# --------------------------------------------------------------------------- #
# Fused constructor → decider evaluation
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class FusedDecision:
    """A radius-0 decider tabulated per ``(node, output value)``.

    For each node and each value its program can output, the decider's vote
    program is lowered once; fusion requires every such program to consume
    at most one draw (a plain coin or a constant), which covers the
    single-Bernoulli deciders the derandomization experiments use.  The per
    -trial vote is then ``on_true`` if the node's tape draw falls below the
    tabulated threshold and ``on_false`` otherwise (constants hold the vote
    in both and consume no draw).
    """

    thresholds: np.ndarray  # (nodes, values) float64
    on_true: np.ndarray  # (nodes, values) bool
    on_false: np.ndarray  # (nodes, values) bool
    draws: np.ndarray  # (nodes, values) int8
    decider_name: str
    compiled: CompiledConstruction

    def vote_stream(
        self,
        seed_base: int,
        salt: object,
        mode: str,
        max_bytes: Optional[int] = None,
    ) -> Callable[[np.ndarray], np.ndarray]:
        """The resumable decide side of a fused run, in either mode.

        The returned callable maps the **next** ``(count, nodes)`` code rows
        to their vote rows; the votes of successive calls concatenate to the
        votes of one call on the concatenated rows.

        * exact mode walks trial ``t``'s reference decide tapes at master
          seed ``seed_base + t`` (``t`` counts the rows of every call so
          far) — bit-identical to ``decider.decide(configuration,
          TapeFactory(seed_base + t, salt))`` on the decoded row; only nodes
          whose realized value draws open a tape;
        * fast mode holds per-node generators open across calls and draws
          one uniform per (trial, node) regardless of the realized value's
          constancy — ``u < 1.0`` always holds and ``u < 0.0`` never does,
          so constants come out right and the stream stays independent of
          the sampled outputs.

        Rows are processed in trial blocks whose uniforms stay below
        ``max_bytes``.
        """
        if mode not in ("fast", "exact"):
            raise ValueError(f"unknown engine mode {mode!r}; expected 'fast' or 'exact'")
        max_bytes = _resolve_max_bytes(max_bytes)
        identities = self.compiled.identities
        n = self.compiled.n_nodes
        rows = np.arange(n)
        trial_block = max(1, max_bytes // (8 * max(n, 1)))
        generators: List[np.random.Generator] = []  # fast mode, opened on first use
        offset = 0

        def uniforms_for(codes: np.ndarray, first_trial: int) -> np.ndarray:
            if mode == "exact":
                uniforms = np.zeros(codes.shape, dtype=np.float64)
                for trial, position in zip(*np.nonzero(self.draws[rows, codes])):
                    uniforms[trial, position] = derive_generator(
                        int(seed_base) + first_trial + int(trial),
                        salt,
                        int(identities[position]),
                    ).random()
                return uniforms
            if not generators:
                generators.extend(
                    derive_generator(
                        int(seed_base),
                        "construct-fast-decide",
                        salt,
                        self.decider_name,
                        int(identity),
                    )
                    for identity in identities
                )
            uniforms = np.empty(codes.shape, dtype=np.float64)
            for position, generator in enumerate(generators):
                uniforms[:, position] = generator.random(codes.shape[0])
            return uniforms

        def votes_of(codes: np.ndarray) -> np.ndarray:
            nonlocal offset
            count = codes.shape[0]
            votes = np.empty((count, n), dtype=bool)
            for lo in range(0, count, trial_block):
                hi = min(count, lo + trial_block)
                chunk = codes[lo:hi]
                takes_true = uniforms_for(chunk, offset + lo) < self.thresholds[rows, chunk]
                votes[lo:hi] = np.where(
                    takes_true, self.on_true[rows, chunk], self.on_false[rows, chunk]
                )
            offset += count
            return votes

        return votes_of


def compile_fused_decision(
    decider: "Decider", compiled: CompiledConstruction
) -> Optional[FusedDecision]:
    """Tabulate a decider's vote programs over the construction alphabet.

    Returns ``None`` when fusion is unavailable — the decider exposes no
    compilable vote, checks a radius beyond 0 (its ball would then contain
    neighbours' sampled outputs, which the per-value table cannot express),
    or some per-value program needs more than one draw.  Callers fall back
    to the per-trial decision path, which handles all of those.
    """
    if not is_compilable(decider) or int(getattr(decider, "radius", 0)) != 0:
        return None
    n = compiled.n_nodes
    n_values = len(compiled.values)
    thresholds = np.zeros((n, n_values), dtype=np.float64)
    on_true = np.zeros((n, n_values), dtype=bool)
    on_false = np.zeros((n, n_values), dtype=bool)
    draws = np.zeros((n, n_values), dtype=np.int8)
    for position, node in enumerate(compiled.nodes):
        program = compiled.program_of(position)
        for code in set(program.codes):
            ball = collect_ball(
                compiled.network, node, 0, outputs={node: compiled.values[code]}
            )
            lowered = lower_program(_node_expression(decider, ball))
            if lowered.max_draws > 1:
                return None
            if lowered.root < 0:
                vote = lowered.root == ACCEPT
                on_true[position, code] = on_false[position, code] = vote
                thresholds[position, code] = 1.0 if vote else 0.0
            else:
                thresholds[position, code] = float(lowered.thresholds[lowered.root])
                on_true[position, code] = int(lowered.on_true[lowered.root]) == ACCEPT
                on_false[position, code] = int(lowered.on_false[lowered.root]) == ACCEPT
                draws[position, code] = 1
    return FusedDecision(
        thresholds=thresholds,
        on_true=on_true,
        on_false=on_false,
        draws=draws,
        decider_name=str(decider.name),
        compiled=compiled,
    )



# --------------------------------------------------------------------------- #
# Batched counterparts of the derandomization estimators
# --------------------------------------------------------------------------- #
def _active_fusion() -> Optional["FusionContext"]:
    """The ambient :class:`repro.engine.fusion.FusionContext`, if any.

    Lazy import: :mod:`repro.engine.fusion` imports this module, and the
    ambient context only exists inside a fused sweep group, so stand-alone
    estimator calls pay one ContextVar read."""
    from repro.engine.fusion import active_fusion

    return active_fusion()


def _member_vector(
    language: "DistributedLanguage", compiled: CompiledConstruction, codes: np.ndarray
) -> np.ndarray:
    """Per-trial membership, lowered when possible and decoded otherwise.

    Membership is a deterministic function of the outputs, so the decoded
    fallback is bit-identical to the lowered evaluation — just slower (it
    still benefits from the batched construction side).
    """
    membership = compile_membership(language, compiled)
    if membership is not None:
        return membership.member_vector(codes)
    from repro.core.languages import Configuration

    return np.array(
        [
            language.contains(Configuration(compiled.network, compiled.decode_row(row)))
            for row in codes
        ],
        dtype=bool,
    )


class ConstructionStream:
    """A resumable trial stream over a compiled construction.

    ``sample(count)`` returns the ``(count, nodes)`` code matrix of the
    **next** ``count`` trials; the concatenation of successive samples is
    bit-identical to one :func:`construction_matrix` call with the total
    trial count (exact mode runs trial ``t`` under master seed ``seed + t``;
    fast mode holds every node's generator open across batches).  This is
    the construction-side counterpart of
    :class:`repro.engine.executor.AcceptStream`.
    """

    def __init__(
        self,
        compiled: CompiledConstruction,
        seed: int = 0,
        mode: str = "fast",
        salt: Optional[object] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        if mode not in ("fast", "exact"):
            raise ValueError(f"unknown engine mode {mode!r}; expected 'fast' or 'exact'")
        self.compiled = compiled
        self.mode = mode
        self._salt = compiled.constructor_name if salt is None else salt
        self._max_bytes = _resolve_max_bytes(max_bytes)
        self._offset = 0
        self._seed = int(seed)
        self._generators: Optional[List[np.random.Generator]] = None  # opened on first use

    @property
    def trials_sampled(self) -> int:
        return self._offset

    def sample(self, count: int) -> np.ndarray:
        if count < 1:
            raise ValueError("trials must be positive")
        compiled = self.compiled
        start = self._offset
        self._offset += count
        codes = np.broadcast_to(compiled.constant_codes, (count, compiled.n_nodes)).copy()
        random_positions = compiled.random_index
        if len(random_positions) == 0:
            return codes
        recorder = get_recorder()
        with recorder.span(
            "engine.construct",
            mode=self.mode,
            trials=count,
            offset=start,
            nodes=compiled.n_nodes,
            random_nodes=len(random_positions),
        ):
            if self.mode == "exact":
                recorder.counter("engine.chunks")
                programs = [compiled.program_of(position) for position in random_positions]
                for trial in range(count):
                    master = self._seed + start + trial
                    for position, program in zip(random_positions, programs):
                        generator = derive_generator(
                            master, self._salt, int(compiled.identities[position])
                        )
                        codes[trial, position] = program.sample_exact(generator)
                return codes
            if self._generators is None:
                self._generators = [
                    derive_generator(
                        self._seed,
                        "construct-fast",
                        self._salt,
                        compiled.constructor_name,
                        int(compiled.identities[position]),
                    )
                    for position in random_positions
                ]
            trial_block = max(1, self._max_bytes // (8 * max(len(random_positions), 1)))
            for lo in range(0, count, trial_block):
                hi = min(count, lo + trial_block)
                recorder.counter("engine.chunks")
                for position, generator in zip(random_positions, self._generators):
                    codes[lo:hi, position] = compiled.program_of(position).sample_fast(
                        generator, hi - lo
                    )
            return codes


def _trial_batches(
    stream: ConstructionStream,
    served: Callable[["FusionContext", int], Optional[np.ndarray]],
    derive: Callable[[np.ndarray], np.ndarray] = lambda codes: codes,
) -> Callable[[int], np.ndarray]:
    """``batch(count)``: ``derive(codes)`` for the next ``count`` trials of
    ``stream``'s trial sequence — the one reader every estimator below gets
    its code rows from.

    Inside a fused sweep group, ``served(context, total)`` serves the first
    ``total`` rows from the shared memo and a batch is their ``[start:]``
    slice — so a fixed budget makes exactly one memo request, and an
    adaptive run grows the shared matrix.  The memo declines a request (and
    every larger one) by returning ``None``; the stream then catches up to
    the batch's offset and samples it.  Both sources are bit-identical by
    the memo's exactness contract.
    """
    context = _active_fusion()
    offset = 0

    def batch(count: int) -> np.ndarray:
        nonlocal offset
        start, offset = offset, offset + count
        rows = served(context, offset) if context is not None else None
        if rows is not None:
            return rows[start:]
        if stream.trials_sampled < start:
            stream.sample(start - stream.trials_sampled)
        return derive(stream.sample(count))

    return batch


def batched_bad_counts(
    constructor: object,
    language: "DistributedLanguage",
    network: "Network",
    trials: int,
    seed_base: int,
    salt: object,
    mode: str,
    max_bytes: Optional[int] = None,
) -> Optional[np.ndarray]:
    """Per-trial bad-ball counts of ``language`` over freshly constructed
    configurations — the engine counterpart of a ``fraction_bad`` probe loop
    (count ``t`` divided by the node count is trial ``t``'s bad fraction).

    Exact mode replays ``TapeFactory(seed_base + trial, salt)`` bit for bit.
    Returns ``None`` when the language's membership cannot be lowered
    (callers keep their reference loop).  Inside a fused sweep group the
    matrix and the counts are served from the shared context."""
    compiled = compile_construction(constructor, network)
    membership = compile_membership(language, compiled, max_bytes)
    if membership is None:
        return None
    stream = ConstructionStream(
        compiled, seed=seed_base, mode=mode, salt=salt, max_bytes=max_bytes
    )
    counts = _trial_batches(
        stream,
        lambda context, total: context.bad_counts_for(
            compiled, language, total, seed_base, salt, mode
        ),
        membership.bad_counts,
    )
    return counts(trials)


def adaptive_success_estimate(
    constructor: object,
    language: "DistributedLanguage",
    network: "Network",
    target: PrecisionTarget,
    seed_base: int,
    salt: object,
    mode: str,
    max_bytes: Optional[int] = None,
) -> ProbabilityEstimate:
    """Engine counterpart of one instance's reference loop in
    :func:`repro.core.construction.success_estimate`: construct in batches,
    test membership per batch, stop once ``target`` is met (one batch for a
    fixed budget).  Returns the estimate of Pr[the constructed configuration
    belongs to ``language``].

    Exact mode replays ``TapeFactory(seed_base + trial, salt)`` bit for bit;
    the streams are chunk-invariant, so stopping after ``k`` trials reports
    exactly the ``k``-trial success rate.  Inside a fused sweep group the
    membership vector is served from the shared context.  Constructions with
    no random outputs are deterministic and, under a half-width target,
    return an exact degenerate estimate.
    """
    compiled = compile_construction(constructor, network)
    if len(compiled.random_index) == 0 and not target.is_fixed:
        member = bool(_member_vector(language, compiled, compiled.constant_codes[None, :])[0])
        return ProbabilityEstimate.exact(member, confidence=target.confidence)
    stream = ConstructionStream(
        compiled, seed=seed_base, mode=mode, salt=salt, max_bytes=max_bytes
    )
    members = _trial_batches(
        stream,
        lambda context, total: context.member_vector_for(
            compiled, language, total, seed_base, salt, mode
        ),
        lambda codes: _member_vector(language, compiled, codes),
    )
    return sequential_estimate(target, lambda count: int(np.count_nonzero(members(count))))


def _fused_batches(
    constructor: object,
    decider: "Decider",
    network: "Network",
    seed_base: int,
    construct_salt: object,
    decide_salt: object,
    mode: str,
    max_bytes: Optional[int],
) -> Optional[Tuple[CompiledConstruction, Callable[[int], Tuple[np.ndarray, np.ndarray]]]]:
    """``(compiled, batch)``, where ``batch(count)`` returns the ``(codes,
    votes)`` rows of the next ``count`` construct→decide trials: code rows
    from :func:`_trial_batches`, votes from :meth:`FusedDecision.vote_stream`.
    ``None`` when decider fusion is unavailable.  Nothing is sampled or
    requested from a fusion memo before the first batch."""
    compiled = compile_construction(constructor, network)
    fused = compile_fused_decision(decider, compiled)
    if fused is None:
        return None
    stream = ConstructionStream(
        compiled, seed=seed_base, mode=mode, salt=construct_salt, max_bytes=max_bytes
    )
    codes_of = _trial_batches(
        stream,
        lambda context, total: context.codes_for(
            compiled, total, seed_base, construct_salt, mode
        ),
    )
    votes_of = fused.vote_stream(seed_base, decide_salt, mode, max_bytes)

    def batch(count: int) -> Tuple[np.ndarray, np.ndarray]:
        codes = codes_of(count)
        return codes, votes_of(codes)

    return compiled, batch


def batched_acceptance_and_membership(
    constructor: object,
    decider: "Decider",
    language: "DistributedLanguage",
    network: "Network",
    trials: int,
    seed_base: int,
    construct_salt: object,
    decide_salt: object,
    mode: str,
    max_bytes: Optional[int] = None,
) -> Optional[Tuple[float, float]]:
    """Fused engine counterpart of the amplification estimator
    :func:`repro.core.derandomization._estimate_acceptance_and_membership`.

    Returns ``(acceptance, membership)`` over one batch of ``trials``
    construct→decide trials, or ``None`` when decider fusion is unavailable
    (the caller then keeps the per-trial decision loop).  Exact mode replays
    the reference seeding ``TapeFactory(seed_base + trial,
    construct_salt/decide_salt)`` bit for bit.  Inside a fused sweep group
    the membership vector is requested from the shared context before the
    code rows.
    """
    fused = _fused_batches(
        constructor, decider, network, seed_base, construct_salt, decide_salt, mode, max_bytes
    )
    if fused is None:
        return None
    compiled, batch = fused
    context = _active_fusion()
    members = None
    if context is not None:
        members = context.member_vector_for(
            compiled, language, trials, seed_base, construct_salt, mode
        )
    codes, votes = batch(trials)
    if members is None:
        members = _member_vector(language, compiled, codes)
    return (
        float(np.count_nonzero(votes.all(axis=1))) / trials,
        float(np.count_nonzero(members)) / trials,
    )


def far_acceptance_counts(
    constructor: object,
    decider: "Decider",
    network: "Network",
    anchors: Sequence[Hashable],
    distance: int,
    seed_base: int,
    construct_salt: object,
    decide_salt: object,
    mode: str,
    max_bytes: Optional[int] = None,
) -> Optional[Callable[[int], np.ndarray]]:
    """Engine counterpart of the reference far-acceptance loop of
    :func:`~repro.core.derandomization.far_acceptance_estimate`, for any
    number of anchors at once.

    Returns ``counts(count)``: per anchor, how many of the next ``count``
    fused construct→decide trials accept far from it (every node at
    distance greater than ``distance`` votes yes); or ``None`` when decider
    fusion is unavailable (callers fall back to the per-trial reference
    loop, which handles every decider).  The coins do not depend on the
    anchor — the reference loop uses the same seed and salts for each — so
    one stream of vote rows serves every anchor through its own far mask.
    Exact mode replays ``TapeFactory(seed_base + trial,
    construct_salt/decide_salt)`` bit for bit, and the counts of successive
    batches add up to the counts of one batch, so a stop at ``k`` trials
    reports the ``k``-trial estimate.
    """
    fused = _fused_batches(
        constructor, decider, network, seed_base, construct_salt, decide_salt, mode, max_bytes
    )
    if fused is None:
        return None
    compiled, batch = fused
    far_masks = []
    for anchor in anchors:
        distances = network.distances_from(anchor)
        far_masks.append(
            np.array(
                [distances.get(node, np.inf) > distance for node in compiled.nodes],
                dtype=bool,
            )
        )

    def counts(count: int) -> np.ndarray:
        _codes, votes = batch(count)
        return np.array(
            [np.count_nonzero(votes[:, far].all(axis=1)) for far in far_masks],
            dtype=np.int64,
        )

    return counts
