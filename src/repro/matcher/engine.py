"""The table-driven instruction pattern matcher (section 3.3).

"The instruction pattern matcher is a table-driven shift/reduce parser,
invoked once for each expression to be compiled."  The engine below is
target-independent: everything semantic — descriptor condensation,
instruction emission, choosing among tied reductions — is delegated to a
:class:`SemanticActions` object, mirroring the paper's decision to code
semantics as hand-written target-specific routines keyed by production.

Two drive loops share the same semantics contract.  The *packed* loop
— the default — interns the token stream once and then runs shift/reduce
entirely on the integer arrays of :class:`repro.tables.encode.PackedTables`
(binary-searched rows, flat reduce pool, per-production length/LHS-id
tables), answering the paper's complaint that the matcher "spent too much
time ... unpacking the description tables".  The *dict* loop is the
original string-keyed reference implementation, kept behind
``engine="dict"`` for differential testing and for full traces.  Engine
selection also honours the ``REPRO_MATCHER`` environment variable
(``packed|dict``) when the argument does not pin a choice.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..grammar.production import Production
from ..grammar.symbols import END
from ..ir.linearize import Token, linearize
from ..ir.tree import Node
from ..obs.metrics import REGISTRY as METRICS
from ..tables.actions import Accept, Reduce, Shift
from ..tables.encode import TAG_ACCEPT, TAG_REDUCE, TAG_SHIFT
from ..tables.slr import ParseTables
from .descriptors import Descriptor, void
from .trace import NullTracer, Tracer


def _end_token() -> Token:
    """A shared $end sentinel; its node payload is never inspected."""
    node = Node.__new__(Node)
    node.op, node.ty, node.kids = None, None, []  # type: ignore
    node.value, node.cond = None, None
    return Token(END, node)


_END_TOKEN = _end_token()

#: Shared do-nothing tracer: NullTracer keeps no state, so one instance
#: serves every untraced match and spares a construction per call.
_NULL_TRACER = NullTracer()

#: The selectable drive loops, fastest first.
ENGINES = ("packed", "dict")

#: Environment override for the default engine (``packed|dict``).
ENV_ENGINE = "REPRO_MATCHER"

#: When truthy, the code generator records per-production reduce counts
#: as ``matcher.rule.<target>.<index>`` metrics, whatever the engine —
#: the grammar-coverage profile that :func:`rule_frequencies` reads.
ENV_RULE_OBS = "REPRO_OBS_RULES"

#: Counter-name prefix of those per-production reduce counts.
RULE_METRIC_PREFIX = "matcher.rule."

_FALSEY = {"", "0", "off", "false", "no"}

#: The engine used when nothing (argument, env) picks one.
DEFAULT_ENGINE = "packed"

#: Bad ``$REPRO_MATCHER`` values already warned about this process —
#: ``resolve_engine`` runs per matcher construction, and one misspelled
#: shell export must not repeat its warning thousands of times.
_WARNED_ENV_VALUES: set = set()


def _warn_unknown_env_engine(value: str) -> None:
    """One structured WARNING per distinct bad env value per process."""
    from ..diag import codes
    from ..diag.diagnostics import Diagnostic

    METRICS.inc("matcher.engine.env_ignored")
    if value in _WARNED_ENV_VALUES:
        return
    _WARNED_ENV_VALUES.add(value)
    diagnostic = Diagnostic(
        code=codes.ENGINE_UNKNOWN,
        message=(
            f"${ENV_ENGINE} names unknown matcher engine {value!r}; "
            f"falling back to {DEFAULT_ENGINE!r} "
            f"(expected one of {', '.join(ENGINES)})"
        ),
        context={"value": value, "fallback": DEFAULT_ENGINE},
    )
    import sys

    print(diagnostic.format(), file=sys.stderr)


def resolve_engine(engine: Optional[str] = None) -> str:
    """Pick a drive loop: explicit *engine* wins, then
    ``$REPRO_MATCHER``, then ``"packed"``.

    An explicit but unknown *engine* raises.  An unknown environment
    value still resolves to the default (a misspelled env var must not
    break compiles) but is *reported*: a structured ENGINE-UNKNOWN
    warning naming the bad value and the fallback engine, once per
    distinct value per process — never silently swallowed.
    """
    if engine is not None:
        if engine not in ENGINES:
            raise ValueError(
                f"unknown matcher engine {engine!r}; expected one of {ENGINES}"
            )
        return engine
    value = os.environ.get(ENV_ENGINE, "").strip().lower()
    if value in ENGINES:
        return value
    if value:
        _warn_unknown_env_engine(value)
    return DEFAULT_ENGINE


def rule_observation_enabled() -> bool:
    """Whether ``$REPRO_OBS_RULES`` asks for per-rule reduce counts."""
    return os.environ.get(ENV_RULE_OBS, "").strip().lower() not in _FALSEY


def rule_frequencies(
    snapshot: Optional[Any] = None, *, target: str
) -> Dict[int, int]:
    """Production-index -> reduce-count histogram for one *target*.

    The code generator records ``matcher.rule.<target>.<index>``
    counters when ``REPRO_OBS_RULES`` is set (e.g. while replaying the
    fuzz corpus); this reads *target*'s into one mapping, so a process
    that compiled several targets never merges their grammars' indices.
    It reads the live registry without draining it; pass a
    :class:`MetricsSnapshot` to read a saved profile instead.
    """
    counters = (
        snapshot.counters if snapshot is not None
        else METRICS.snapshot().counters
    )
    prefix = f"{RULE_METRIC_PREFIX}{target}."
    frequencies: Dict[int, int] = {}
    for name, value in counters.items():
        if name.startswith(prefix):
            try:
                frequencies[int(name[len(prefix):])] = value
            except ValueError:
                continue
    return frequencies


class MatchError(Exception):
    """Base class for pattern-matching failures.

    Every concrete failure carries a ``context()`` dict of primitives —
    matcher state, stack snapshots, lookahead — so the resilience layer
    can turn it into a structured diagnostic without parsing message
    text.
    """

    def context(self) -> dict:
        return {}


class SyntacticBlock(MatchError):
    """The parser hit the error action on well-formed input: the machine
    description cannot cover this tree (section 6.2.2)."""

    def __init__(
        self,
        state: int,
        token: Token,
        state_dump: str,
        position: int = -1,
        state_stack: Tuple[int, ...] = (),
        symbol_stack: Tuple[str, ...] = (),
    ) -> None:
        super().__init__(
            f"syntactic block in state {state} on {token!r}\n{state_dump}"
        )
        self.state = state
        self.token = token
        self.position = position
        self.state_stack = state_stack
        self.symbol_stack = symbol_stack

    def context(self) -> dict:
        out = {
            "state": self.state,
            "lookahead": self.token.symbol,
            "position": self.position,
            "state_stack": list(self.state_stack[-12:]),
        }
        if self.symbol_stack:
            out["symbol_stack"] = list(self.symbol_stack[-12:])
        return out


class SemanticBlock(MatchError):
    """A reduction completed but nothing can consume it: either the
    chosen production's LHS has no goto from the exposed state, or a
    reduce/reduce tie has no viable candidate at all.  This is the
    paper's *semantic blocking* — the grammar covered the prefix but the
    semantic context cannot continue (section 6.2.2)."""

    def __init__(
        self,
        message: str,
        state: int = -1,
        lhs: str = "",
        state_stack: Tuple[int, ...] = (),
    ) -> None:
        super().__init__(message)
        self.state = state
        self.lhs = lhs
        self.state_stack = state_stack

    def context(self) -> dict:
        return {
            "state": self.state,
            "lhs": self.lhs,
            "state_stack": list(self.state_stack[-12:]),
        }


class ReductionLoop(MatchError):
    """Chain reductions cycled — statically impossible if the table
    constructor's loop check ran, kept as a dynamic backstop."""

    def __init__(self, message: str, state: int = -1) -> None:
        super().__init__(message)
        self.state = state

    def context(self) -> dict:
        return {"state": self.state}


#: Shared result of the do-nothing hooks.  The default semantics never
#: mutate a descriptor, so one void serves every step; overriding hooks
#: that attach state must build their own (they all do).
_SHARED_VOID = void()


class SemanticActions:
    """Default do-nothing semantics: descriptors are opaque voids.

    Target back ends (``repro.vax.semantics``) override the three hooks.
    ``on_reduce`` may return either a descriptor or a ``(descriptor,
    note)`` pair; the note lands in the trace's "Semantic Action" column.
    """

    def on_shift(self, token: Token) -> Descriptor:
        return _SHARED_VOID

    def on_reduce(
        self, production: Production, kids: Sequence[Descriptor]
    ) -> Union[Descriptor, Tuple[Descriptor, str]]:
        return _SHARED_VOID

    def choose(
        self, productions: Sequence[Production], kids: Sequence[Descriptor]
    ) -> Production:
        """Resolve a reduce/reduce tie the tables left to run time.

        The default takes the first (lowest-numbered) production, which
        makes grammar order the priority — the paper's grammars rely on
        semantic attributes here; the VAX semantics override this.
        """
        return productions[0]


@dataclass
class MatchResult:
    """Outcome of matching one expression tree."""

    descriptor: Descriptor          # signature of the whole tree
    reductions: List[Production]    # in emission order
    tracer: Tracer

    @property
    def chain_reductions(self) -> int:
        return sum(1 for p in self.reductions if p.is_chain)


class Matcher:
    """A reusable pattern matcher bound to one set of parse tables.

    ``engine`` selects the drive loop (``"packed"`` or ``"dict"``); the
    ``$REPRO_MATCHER`` environment variable is honoured through
    :func:`resolve_engine` when ``engine`` is not given.  A real
    (non-null) tracer always uses the dict path, which records the full
    symbol-stack renderings the appendix-style traces need.
    """

    def __init__(
        self,
        tables: ParseTables,
        semantics: Optional[SemanticActions] = None,
        engine: Optional[str] = None,
    ) -> None:
        self.tables = tables
        self.semantics = semantics or SemanticActions()
        self.engine = resolve_engine(engine)

    # ----------------------------------------------------------- driving
    def match_tree(self, tree: Node, tracer: Optional[Tracer] = None) -> MatchResult:
        """Linearize *tree* and parse it to acceptance."""
        return self.match_tokens(linearize(tree), tracer)

    def match_tokens(
        self, tokens: Sequence[Token], tracer: Optional[Tracer] = None
    ) -> MatchResult:
        if tracer is None:
            tracer = _NULL_TRACER
        if self.engine == "packed" and isinstance(tracer, NullTracer):
            METRICS.inc("matcher.packed_runs")
            return self._match_packed(tokens, tracer)
        METRICS.inc("matcher.dict_runs")
        return self._match_dict(tokens, tracer)

    # ---------------------------------------------------------- blocking
    def _block(
        self,
        state: int,
        stream: Sequence[Token],
        position: int,
        states: Sequence[int],
        symbols: Sequence[str] = (),
    ) -> "SyntacticBlock":
        """Build the one true :class:`SyntacticBlock` with full context.

        Both drive loops funnel every error action through here so the
        block diagnostic always carries the same fields: blocking state,
        lookahead token and its stream position, and the state (and,
        for the dict loop, symbol) stack snapshots the resilience layer
        reports.
        """
        METRICS.inc("matcher.block.syntactic")
        return SyntacticBlock(
            state,
            stream[position],
            self.tables.automaton.describe_state(state),
            position=position,
            state_stack=tuple(states),
            symbol_stack=tuple(symbols),
        )

    # ------------------------------------------------- packed (fast) loop
    def _match_packed(self, tokens: Sequence[Token], tracer: Tracer) -> MatchResult:
        """Shift/reduce on the packed integer tables.

        The stream is interned once up front; every subsequent lookup is a
        binary search over small sorted int rows (or the row's default
        reduce), so the hot loop does no string hashing and builds no
        trace strings.  Behaviour matches the dict loop action-for-action
        on acceptable input; on erroneous input a compressed row's default
        reduce may fire a few extra (harmless) reductions before the block
        is discovered — the standard LR row-compression trade.
        """
        tables = self.tables
        packed = tables.packed()
        runtime = packed.runtime()
        semantics = self.semantics
        productions = tables.grammar.productions

        nsymbols = runtime.nsymbols
        action_words = runtime.action_words
        default_words = runtime.default_words
        goto_words = runtime.goto_words
        pool_single = runtime.pool_single
        reduce_pool = packed.reduce_pool
        prod_lhs_id = packed.prod_lhs_id
        prod_rhs_len = packed.prod_rhs_len
        on_shift = semantics.on_shift
        on_reduce = semantics.on_reduce

        # Pre-intern the linearized stream once per tree: the loop below
        # never hashes a symbol string again.
        get = packed.symbol_ids.get
        stream = [token for token in tokens]
        ids = [get(token.symbol, -1) for token in stream]
        stream.append(_END_TOKEN)
        ids.append(get(END, -1))

        state = tables.start_state
        states: List[int] = [state]
        descriptors: List[Descriptor] = [void()]
        reductions: List[Production] = []

        position = 0
        reduces_since_shift = 0
        loop_limit = max(64, 4 * len(productions))

        while True:
            symbol_id = ids[position]
            if symbol_id >= 0:
                word = action_words[state * nsymbols + symbol_id]
            else:
                word = default_words[state]
            if word < 0:
                raise self._block(state, stream, position, states)

            tag = word & 3
            if tag == 0:  # TAG_SHIFT
                descriptors.append(on_shift(stream[position]))
                state = word >> 2
                states.append(state)
                position += 1
                reduces_since_shift = 0
                continue

            if tag == 2:  # TAG_ACCEPT
                return MatchResult(descriptors[-1], reductions, tracer)

            # TAG_REDUCE
            reduces_since_shift += 1
            if reduces_since_shift > loop_limit:
                METRICS.inc("matcher.block.loop")
                raise ReductionLoop(
                    f"{reduces_since_shift} consecutive reductions "
                    f"in state {state}",
                    state=state,
                )

            index = pool_single[word >> 2]
            if index >= 0:
                production = productions[index]
                count = prod_rhs_len[index]
            else:
                production = self._select_packed(
                    reduce_pool[word >> 2], states, descriptors, packed
                )
                index = production.index
                count = prod_rhs_len[index]

            if count == 1:
                # Chain/unit reductions dominate the profile (E8): replace
                # the stack top in place instead of slicing and deleting.
                kids = descriptors[-1:]
                exposed = states[-2]
                state = goto_words[exposed * nsymbols + prod_lhs_id[index]]
                if state < 0:
                    raise self._block(exposed, stream, position, states)
                outcome = on_reduce(production, kids)
                descriptors[-1] = (
                    outcome[0] if isinstance(outcome, tuple) else outcome
                )
                states[-1] = state
                reductions.append(production)
                continue

            kids = descriptors[-count:]
            del states[-count:], descriptors[-count:]

            state = goto_words[states[-1] * nsymbols + prod_lhs_id[index]]
            if state < 0:
                # Only reachable when a default reduce fired on an input
                # the tables cannot cover: report it as the block it is.
                raise self._block(states[-1], stream, position, states)

            outcome = on_reduce(production, kids)
            if isinstance(outcome, tuple):
                descriptor = outcome[0]
            else:
                descriptor = outcome

            states.append(state)
            descriptors.append(descriptor)
            reductions.append(production)

    def _select_packed(
        self,
        tied: Tuple[int, ...],
        states: List[int],
        descriptors: List[Descriptor],
        packed,
    ) -> Production:
        """The packed twin of :meth:`_select`: same viability filter and
        semantic tie-break, driven by dense goto lookups.  Tied rules have
        equal length (they are the surviving longest-rule winners), so the
        exposed state is the same for every candidate."""
        METRICS.inc("matcher.tie_breaks")
        grammar = self.tables.grammar
        runtime = packed.runtime()
        prod_lhs_id = packed.prod_lhs_id
        count = packed.prod_rhs_len[tied[0]]
        exposed = states[-count - 1]
        base = exposed * runtime.nsymbols
        goto_words = runtime.goto_words
        viable = [
            grammar[index] for index in tied
            if goto_words[base + prod_lhs_id[index]] >= 0
        ]
        if not viable:
            METRICS.inc("matcher.block.semantic")
            raise SemanticBlock(
                f"reduce/reduce tie {tied} has no viable goto "
                f"from state {exposed}",
                state=exposed,
                state_stack=tuple(states),
            )
        if len(viable) == 1:
            return viable[0]
        kids = descriptors[-count:]
        return self.semantics.choose(viable, kids)

    # -------------------------------------------- dict (reference) loop
    def _match_dict(
        self, tokens: Sequence[Token], tracer: Tracer
    ) -> MatchResult:
        tables = self.tables
        semantics = self.semantics

        # Stack of (state, symbol, descriptor); bottom carries the start state.
        states: List[int] = [tables.start_state]
        symbols: List[str] = ["$"]
        descriptors: List[Descriptor] = [void()]
        reductions: List[Production] = []

        end_node = Node.__new__(Node)  # sentinel token payload, never inspected
        end_node.op, end_node.ty, end_node.kids = None, None, []  # type: ignore
        end_node.value, end_node.cond = None, None
        stream = list(tokens) + [Token(END, end_node)]

        position = 0
        reduces_since_shift = 0
        loop_limit = max(64, 4 * len(tables.grammar))

        while True:
            state = states[-1]
            token = stream[position]
            action = tables.action_for(state, token.symbol)

            if action is None:
                raise self._block(state, stream, position, states, symbols)

            if isinstance(action, Shift):
                descriptor = semantics.on_shift(token)
                states.append(action.state)
                symbols.append(token.symbol)
                descriptors.append(descriptor)
                position += 1
                reduces_since_shift = 0
                tracer.record(
                    "shift", repr(token), state=action.state,
                    stack=" ".join(symbols[1:]),
                )
                continue

            if isinstance(action, Accept):
                tracer.record("accept", symbols[-1] if len(symbols) > 1 else "")
                return MatchResult(descriptors[-1], reductions, tracer)

            assert isinstance(action, Reduce)
            reduces_since_shift += 1
            if reduces_since_shift > loop_limit:
                METRICS.inc("matcher.block.loop")
                raise ReductionLoop(
                    f"{reduces_since_shift} consecutive reductions "
                    f"in state {state}",
                    state=state,
                )

            production = self._select(action, states, descriptors)
            count = len(production.rhs)
            kids = descriptors[-count:]
            del states[-count:], symbols[-count:], descriptors[-count:]

            goto = tables.goto_for(states[-1], production.lhs)
            if goto is None:
                METRICS.inc("matcher.block.semantic")
                raise SemanticBlock(
                    f"no goto from state {states[-1]} on {production.lhs!r} "
                    f"after reducing {production}",
                    state=states[-1],
                    lhs=production.lhs,
                    state_stack=tuple(states),
                )

            outcome = semantics.on_reduce(production, kids)
            if isinstance(outcome, tuple):
                descriptor, note = outcome
            else:
                descriptor, note = outcome, ""

            states.append(goto)
            symbols.append(production.lhs)
            descriptors.append(descriptor)
            reductions.append(production)
            tracer.record(
                "reduce",
                f"{production.lhs} <- {' '.join(production.rhs)}",
                semantic=note,
                state=goto,
                stack=" ".join(symbols[1:]),
            )

    # --------------------------------------------------------- selection
    def _select(
        self, action: Reduce, states: List[int], descriptors: List[Descriptor]
    ) -> Production:
        """Pick the production for a (possibly tied) reduce action.

        Tied rules have equal length, so the popped stack slice is the
        same; candidates whose LHS has no goto from the exposed state are
        unviable and dropped first, then the semantic hook chooses.
        """
        grammar = self.tables.grammar
        if not action.is_ambiguous:
            return grammar[action.production]

        METRICS.inc("matcher.tie_breaks")
        candidates = [grammar[index] for index in action.productions]
        count = len(candidates[0].rhs)
        exposed = states[-count - 1]
        viable = [
            production for production in candidates
            if self.tables.goto_for(exposed, production.lhs) is not None
        ]
        if not viable:
            METRICS.inc("matcher.block.semantic")
            raise SemanticBlock(
                f"reduce/reduce tie {action.productions} has no viable goto "
                f"from state {exposed}",
                state=exposed,
                state_stack=tuple(states),
            )
        if len(viable) == 1:
            return viable[0]
        kids = descriptors[-count:]
        return self.semantics.choose(viable, kids)
