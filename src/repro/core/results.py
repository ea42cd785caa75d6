"""Result and statistics types returned by the DCSat solvers."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class DCSatStats:
    """Work counters for one denial-constraint satisfaction check."""

    algorithm: str = ""
    #: Which evaluation engine examined the worlds (``"sync"``; empty
    #: when no world sweep ran).  Not part of the parity contract: it
    #: labels the engine, it does not count work.
    engine: str = ""
    short_circuit_used: bool = False
    short_circuit_result: bool | None = None
    components_total: int = 0
    components_pruned: int = 0
    #: Largest surviving component (pending transactions) the solve
    #: touched: clique-sweep cost grows with ``2^K``, so this single
    #: number explains most of a check's latency.
    max_component_size: int = 0
    cliques_enumerated: int = 0
    worlds_checked: int = 0
    evaluations: int = 0
    assignments_examined: int = 0
    parallel_tasks: int = 0
    #: Surviving components answered from the monitor's verdict ledger
    #: without re-sweeping (:mod:`repro.core.incremental`).
    components_reused: int = 0
    #: Components the triggering state change dirtied or pruned in the
    #: ledger (0 on a recompute-from-scratch path).
    dirty_components: int = 0
    elapsed_seconds: float = 0.0

    def merge(self, other: "DCSatStats") -> None:
        # Keep the first non-empty algorithm: a coordinator merging
        # worker stats keeps its own identity, but merging into a blank
        # stats object adopts the worker's.
        if not self.algorithm:
            self.algorithm = other.algorithm
        if not self.engine:
            self.engine = other.engine
        # Short-circuit evidence must survive the merge: it was used if
        # either side used it, and the first concrete outcome wins.
        self.short_circuit_used = (
            self.short_circuit_used or other.short_circuit_used
        )
        if self.short_circuit_result is None:
            self.short_circuit_result = other.short_circuit_result
        self.components_total += other.components_total
        self.components_pruned += other.components_pruned
        # A maximum, not a sum: pool workers each report their own
        # largest component; the merged stats keep the overall largest.
        self.max_component_size = max(
            self.max_component_size, other.max_component_size
        )
        self.cliques_enumerated += other.cliques_enumerated
        self.worlds_checked += other.worlds_checked
        self.evaluations += other.evaluations
        self.assignments_examined += other.assignments_examined
        self.parallel_tasks += other.parallel_tasks
        self.components_reused += other.components_reused
        self.dirty_components += other.dirty_components
        # Accumulated, so stats merged from pool workers report the true
        # aggregate solve time rather than the last worker's share.
        self.elapsed_seconds += other.elapsed_seconds


@dataclass
class DCSatResult:
    """Outcome of checking ``D |= ¬q``.

    ``satisfied`` is True when the denial constraint holds in *every*
    possible world (the safe answer); when False, ``witness`` names the
    pending transactions of a violating possible world (empty frozenset
    means the current state itself already violates the constraint).
    """

    satisfied: bool
    witness: frozenset[str] | None = None
    stats: DCSatStats = field(default_factory=DCSatStats)

    def __bool__(self) -> bool:
        return self.satisfied

    def __repr__(self) -> str:
        outcome = "satisfied" if self.satisfied else f"violated by {set(self.witness or ())}"
        return f"DCSatResult({outcome}, {self.stats.algorithm})"
