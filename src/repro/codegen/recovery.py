"""The runtime block-recovery ladder.

The paper repaired blocking *statically*: Graham, Henry and Schulman added
bridge productions and default lists until the description could not block
(section 6.2.2).  A production compiler cannot assume its description is
perfect, so this module repairs *dynamically*: when a function blocks (or
its matcher crashes, or its semantics give out), `compile_with_recovery`
walks a ladder of progressively blunter rescues and records every rung as
a structured diagnostic — a block is never silent and never fatal to the
rest of the program.  Every function compile goes through the ladder;
tier 0 *is* the plain compile, so a healthy function pays nothing extra.

The rungs, in order:

tier 0  ``packed`` or ``dict``
    The normal compile on the engine the generator selected.
tier 1  ``dict``
    Retry on the original dict-table matcher (``engine="dict"``).
    The dict loop shares no state with the packed arrays, so a packed
    matcher that raised something other than a block (GG-TABLE-CORRUPT)
    is fully rescued here (RECOVER-DICT); a genuine block blocks the
    dict loop identically and falls through.  A generator that already
    runs the dict engine has no separate tier 1.
tier 2  ``hoist``
    The "deus ex machina" repair: the runtime analogue of a bridge
    production.  The subtree under the blocked lookahead token is hoisted
    into a fresh compiler temporary by a prelude ``Assign`` statement and
    replaced by that temporary, exactly what the static bridge
    ``reg.l <- disp.l`` does to a stranded address phrase — then the whole
    function is regenerated.  Leaf and lvalue-position nodes escalate to
    their parent so the hoist always changes the token stream and never
    turns a store destination into a loaded value (RECOVER-FORCE).
tier 3  ``pcc``
    Degrade the single function to the PCC baseline backend
    (RECOVER-PCC).  Only if PCC *also* fails does the function become a
    :class:`FailedFunction` (FN-FAILED), whose assembly is an inert
    comment block so the rest of the program still assembles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..diag import codes
from ..diag.diagnostics import Diagnostic
from ..ir.ops import Op
from ..ir.tree import Forest, Node
from ..matcher.engine import (
    MatchError, ReductionLoop, SemanticBlock, SyntacticBlock,
)
from ..obs.metrics import REGISTRY as METRICS
from ..pcc.codegen import pcc_compile
from ..targets.semantics import TargetSemanticError

#: Frame area for hoisted-operand temporaries, between the ordinary temp
#: area (-2048 down) and the spill area (-3584 down).  Slots are assigned
#: here directly (the names already end in ``(fp)``) so a regeneration
#: pass never double-books them against ordinary temps.
HOIST_AREA_BASE = -3072

#: Hoist attempts before giving up on tier 2.  Each attempt removes at
#: least one token from under the blocked position, so a handful suffices
#: for any realistic block; the bound only guards pathological trees.
MAX_HOISTS = 8


@dataclass
class FailedFunction:
    """Stands in for a CompileResult when every rung failed.

    The assembly is a pure comment block (the assembler strips ``#``
    lines), so a program containing a failed function still assembles —
    callers must consult ``ok``/diagnostics before running it.
    """

    name: str
    reason: str
    ok: bool = False
    instruction_count: int = 0

    @property
    def assembly(self) -> str:
        return (
            f"# function {self.name}: compilation failed\n"
            f"# {self.reason}\n"
        )


@dataclass
class LadderOutcome:
    """What the ladder produced for one function."""

    name: str
    result: object  # CompileResult | PccResult | FailedFunction
    tier: str       # "packed" | "dict" | "hoist" | "pcc" | "failed"
    diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.tier != "failed"

    @property
    def recovered(self) -> bool:
        """True when a rescue rung (not the engine the generator asked
        for) produced the result.  A packed-engine generator settling on
        ``dict`` *is* a recovery — it carries RECOVER-DICT."""
        if not self.ok:
            return False
        return self.tier not in ("packed", "dict") or any(
            diag.code == codes.RECOVER_DICT for diag in self.diagnostics
        )

    @property
    def cause(self) -> Optional[Diagnostic]:
        """The diagnostic that moved this function off the engine's own
        tier — the ladder's first record — or None when the engine
        compiled it unaided.  A strict compile raises on it."""
        if self.ok and not self.recovered:
            return None
        return self.diagnostics[0]


def _finish(outcome: "LadderOutcome") -> "LadderOutcome":
    """Record which rung settled the function before handing it back."""
    METRICS.inc(f"recovery.tier.{outcome.tier}")
    if outcome.recovered:
        METRICS.inc("recovery.rescued")
    return outcome


def _demote_errors(diags: List[Diagnostic]) -> List[Diagnostic]:
    """Downgrade error diagnostics to warnings after a successful rescue.

    A block that a later rung survived is history, not an error: the
    record (and its code) stays for the post mortem, but it must not make
    a compiled function read as failed.
    """
    for diag in diags:
        if diag.severity == codes.ERROR:
            diag.severity = codes.WARNING
    return diags


def _block_diagnostic(exc: Exception, function: str) -> Diagnostic:
    """Map a matcher exception onto its diagnostic code, with context."""
    if isinstance(exc, SyntacticBlock):
        code = codes.GG_BLOCK_SYN
    elif isinstance(exc, SemanticBlock):
        code = codes.GG_BLOCK_SEM
    elif isinstance(exc, ReductionLoop):
        code = codes.GG_REDUCE_LOOP
    else:
        code = codes.GG_SEMANTIC
    context = exc.context() if isinstance(exc, MatchError) else {}
    return Diagnostic(
        code=code, message=str(exc), function=function, context=context,
    )


def _hoist_blocked_operand(
    work: Forest, exc: SyntacticBlock, counter: int
) -> Optional[str]:
    """Hoist the blocked operand into a prelude temporary, in place.

    Returns a short description of what was hoisted, or None when no
    hoistable node exists (block not attributable to a token, node is a
    statement root, ...).
    """
    token = getattr(exc, "token", None)
    node = getattr(token, "node", None)
    if node is None:
        return None

    # Locate the statement containing the blocked node (by identity) and
    # build a parent map for the escalation walk.
    statement = None
    parents = {}
    for item in work.items:
        if not isinstance(item, Node):
            continue
        for candidate in item.preorder():
            for kid in candidate.kids:
                parents[id(kid)] = candidate
        if any(n is node for n in item.preorder()):
            statement = item
    if statement is None:
        return None

    # Escalate: a leaf hoist reproduces the identical token stream, and a
    # store destination (the lval child of an assignment) must never be
    # turned into a loaded value.
    def in_lval_position(n: Node) -> bool:
        parent = parents.get(id(n))
        if parent is None:
            return False
        if parent.op in (Op.ASSIGN,) and parent.kids and parent.kids[0] is n:
            return True
        if parent.op is Op.RASSIGN and len(parent.kids) > 1 \
                and parent.kids[1] is n:
            return True
        return False

    target = node
    while not target.kids or in_lval_position(target):
        parent = parents.get(id(target))
        if parent is None or parent is statement:
            if parent is statement and not in_lval_position(target):
                # hoisting a direct child of the statement is fine
                break
            return None
        target = parent

    hoisted = target.sexpr()
    slot = f"{HOIST_AREA_BASE - 4 * counter}(fp)"
    temp = Node(Op.TEMP, target.ty, value=slot)
    prelude = Node(Op.ASSIGN, target.ty, [temp, target.clone()])
    target.replace_with(Node(Op.TEMP, target.ty, value=slot))
    # insert by identity: Node.__eq__ is structural and could hit an
    # earlier, equal statement
    index = next(
        i for i, item in enumerate(work.items) if item is statement
    )
    work.items.insert(index, prelude)
    return hoisted


def compile_with_recovery(
    gen,
    forest: Forest,
    max_hoists: int = MAX_HOISTS,
) -> LadderOutcome:
    """Compile *forest*, walking the recovery ladder on failure.

    *gen* is a :class:`~repro.codegen.driver.GrahamGlanvilleCodeGenerator`;
    the ladder never raises — the outcome's ``tier`` and ``diagnostics``
    say what happened.
    """
    name = forest.name
    diags: List[Diagnostic] = []
    engine0 = gen.engine

    # tier 0: the normal fast compile.
    first_error: Optional[Exception] = None
    if engine0 != "dict":
        try:
            result = gen.compile(forest, engine="packed")
            return _finish(LadderOutcome(name, result, "packed", diags))
        except (MatchError, TargetSemanticError) as exc:
            first_error = exc
            diags.append(_block_diagnostic(exc, name))
        except Exception as exc:  # a crash, not a block
            first_error = exc
            diags.append(Diagnostic(
                code=codes.GG_TABLE_CORRUPT,
                message=f"packed matcher crashed: {exc!r}",
                function=name,
            ))

    # tier 1: the dict-table matcher shares nothing with the packed
    # arrays, so a crashing packed matcher is fully rescued here.
    dict_error: Optional[Exception] = None
    try:
        result = gen.compile(forest, engine="dict")
        if engine0 != "dict":
            diags.append(Diagnostic(
                code=codes.RECOVER_DICT,
                message="function recompiled on the dict-table matcher",
                function=name,
            ))
            return _finish(LadderOutcome(name, result, "dict", _demote_errors(diags)))
        return _finish(LadderOutcome(name, result, "dict", diags))
    except (MatchError, TargetSemanticError) as exc:
        dict_error = exc
        # the twin engines block identically; don't record the same
        # MatchError twice
        if not isinstance(first_error, MatchError):
            diags.append(_block_diagnostic(exc, name))
    except Exception as exc:
        dict_error = exc
        diags.append(Diagnostic(
            code=codes.GG_SEMANTIC,
            message=f"dict matcher failed: {exc!r}",
            function=name,
        ))

    # tier 2: forced operand hoisting — only for genuine blocks with a
    # known blocked token; semantic failures go straight to PCC.
    if isinstance(dict_error, SyntacticBlock):
        try:
            work, stats = gen.transform(forest)
        except Exception:
            work = None
        hoists: List[str] = []
        while work is not None and len(hoists) < max_hoists:
            try:
                result = gen.generate(
                    work, stats, name=name, engine="dict"
                )
                diags.append(Diagnostic(
                    code=codes.RECOVER_FORCE,
                    message=(
                        f"function recompiled after hoisting "
                        f"{len(hoists)} operand(s)"
                    ),
                    function=name,
                    context={"hoisted": list(hoists)},
                ))
                METRICS.inc("recovery.hoists", len(hoists))
                return _finish(LadderOutcome(
                    name, result, "hoist", _demote_errors(diags)
                ))
            except SyntacticBlock as blocked:
                hoisted = _hoist_blocked_operand(work, blocked, len(hoists))
                if hoisted is None:
                    break
                hoists.append(hoisted)
            except Exception:
                break

    # tier 3: degrade this one function to the PCC baseline backend.
    # The PCC back end emits VAX assembly; for any other target this rung
    # would silently produce code the target's simulator cannot run, so
    # targets without PCC support skip straight to FailedFunction.
    target = getattr(gen, "target", None)
    supports_pcc = target is None or getattr(target, "supports_pcc", True)
    try:
        if not supports_pcc:
            raise RuntimeError(
                f"target {target.name!r} has no PCC baseline backend"
            )
        result = pcc_compile(forest)
        diags.append(Diagnostic(
            code=codes.RECOVER_PCC,
            message="function degraded to the PCC baseline backend",
            function=name,
        ))
        return _finish(LadderOutcome(name, result, "pcc", _demote_errors(diags)))
    except Exception as exc:
        diags.append(Diagnostic(
            code=codes.FN_FAILED,
            message=f"every recovery rung failed; last error: {exc!r}",
            function=name,
        ))
        failed = FailedFunction(
            name=name,
            reason=f"{type(exc).__name__}: {exc}",
        )
        return _finish(LadderOutcome(name, failed, "failed", diags))
