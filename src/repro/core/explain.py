"""Explaining DCSat verdicts: *why* can the constraint be violated?

A bare ``satisfied=False`` is hard to act on.  :func:`explain_violation`
re-evaluates the query inside the witness world and reports the
satisfying assignment, the facts it matched, and each fact's provenance
(committed, or which pending transaction supplies it) — enough for a
user to see exactly which broadcast transactions combine into the bad
outcome, and therefore which one to contradict
(:mod:`repro.core.contradiction`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.blockchain_db import BlockchainDatabase
from repro.core.results import DCSatResult
from repro.core.workspace import Workspace
from repro.errors import ReproError
from repro.query.ast import AggregateQuery, ConjunctiveQuery
from repro.query.evaluator import evaluate, iter_matches


@dataclass(frozen=True)
class ExplainedFact:
    """One matched fact with its provenance."""

    relation: str
    values: tuple
    source: str  # "committed" or a pending transaction id

    def __str__(self) -> str:
        return f"{self.relation}{self.values} [{self.source}]"


@dataclass
class Explanation:
    """The witness world unpacked into actionable parts."""

    witness: frozenset[str]
    assignment: dict[str, object] = field(default_factory=dict)
    facts: list[ExplainedFact] = field(default_factory=list)
    aggregate_value: object = None
    note: str = ""

    @property
    def culprit_transactions(self) -> frozenset[str]:
        """The pending transactions actually used by the match — often a
        small subset of the witness world."""
        return frozenset(
            fact.source for fact in self.facts if fact.source != "committed"
        )

    def render(self) -> str:
        lines = [f"witness world: {sorted(self.witness) or '(current state)'}"]
        if self.assignment:
            bound = ", ".join(
                f"{name}={value!r}" for name, value in sorted(self.assignment.items())
            )
            lines.append(f"assignment: {bound}")
        if self.aggregate_value is not None:
            lines.append(f"aggregate value: {self.aggregate_value!r}")
        for fact in self.facts:
            lines.append(f"  uses {fact}")
        if self.note:
            lines.append(self.note)
        return "\n".join(lines)


def explain_violation(
    db: BlockchainDatabase,
    query: ConjunctiveQuery | AggregateQuery,
    result: DCSatResult,
) -> Explanation:
    """Unpack a ``satisfied=False`` verdict into an :class:`Explanation`.

    Raises :class:`ReproError` for satisfied results (nothing to
    explain) or when the witness world unexpectedly fails to satisfy the
    query (a solver bug — surfacing it loudly is the point).
    """
    if result.satisfied:
        raise ReproError("the constraint is satisfied; nothing to explain")
    if result.witness is None:
        raise ReproError("the result carries no witness world")
    workspace = Workspace(db)
    workspace.set_active(result.witness)

    if isinstance(query, AggregateQuery):
        if not evaluate(query, workspace):
            raise ReproError(
                "witness world does not satisfy the aggregate query — "
                "solver inconsistency"
            )
        from repro.query.evaluator import _aggregate_value
        from repro.query.ast import Constant

        rows = []
        facts: list[ExplainedFact] = []
        for assignment, matched in iter_matches(query, workspace):
            rows.append(
                tuple(
                    term.value if isinstance(term, Constant) else assignment[term.name]
                    for term in query.agg_terms
                )
            )
            for relation, values in matched:
                facts.append(_provenance(workspace, relation, values))
        explanation = Explanation(
            witness=result.witness,
            # Match order follows set iteration; sort so the listing is
            # the same under any hash seed.
            facts=sorted(set(facts), key=_fact_key),
            aggregate_value=_aggregate_value(query.func, rows),
            note=(
                f"{query.func}({len(rows)} assignments) {query.op} "
                f"{query.threshold!r} holds in this world"
            ),
        )
        workspace.clear_active()
        return explanation

    # Explain the least match (matched facts compared atom by atom), not
    # the first one found: search order follows set iteration.
    try:
        best = min(
            iter_matches(query, workspace),
            key=lambda match: [values for _, values in match[1]],
            default=None,
        )
    except TypeError:  # a column mixes incomparable types
        best = min(
            iter_matches(query, workspace),
            key=lambda match: [_values_key(values) for _, values in match[1]],
            default=None,
        )
    if best is None:
        workspace.clear_active()
        raise ReproError(
            "witness world does not satisfy the query — solver inconsistency"
        )
    assignment, matched = best
    facts = [
        _provenance(workspace, relation, values) for relation, values in matched
    ]
    workspace.clear_active()
    return Explanation(
        witness=result.witness,
        assignment=dict(assignment),
        facts=_dedupe(facts),
    )


def _provenance(
    workspace: Workspace, relation: str, values: tuple
) -> ExplainedFact:
    if workspace.fact_in_base(relation, values):
        return ExplainedFact(relation, values, "committed")
    providers = workspace.providers_of(relation, values) & workspace.active
    source = sorted(providers)[0] if providers else "unknown"
    return ExplainedFact(relation, values, source)


def _values_key(values: tuple) -> tuple:
    """A total order over fact values, mixed types included."""
    return tuple((type(value).__name__, value) for value in values)


def _fact_key(fact: ExplainedFact) -> tuple:
    return fact.relation, _values_key(fact.values), fact.source


def _dedupe(facts: list[ExplainedFact]) -> list[ExplainedFact]:
    seen: set[ExplainedFact] = set()
    unique: list[ExplainedFact] = []
    for fact in facts:
        if fact not in seen:
            seen.add(fact)
            unique.append(fact)
    return unique
