"""The verdict ledger: component-scoped sub-verdicts across churn.

Unit tests for :class:`~repro.core.incremental.VerdictLedger` (keying,
pruning, blanket dirtying, epoch resets, LRU eviction) plus the monitor
behaviors the tentpole promises: component reuse after unrelated churn,
witness revalidation under ``witness_mode="revalidate"``, and the
subsumption-staleness regression.
"""

from __future__ import annotations

import pytest

from repro.core.blockchain_db import BlockchainDatabase
from repro.core.checker import DCSatChecker
from repro.core.incremental import (
    VerdictLedger,
    component_footprint,
    component_still_satisfied,
    revalidate_witness,
)
from repro.core.monitor import ConstraintMonitor
from repro.query.parser import parse_query
from repro.relational.constraints import ConstraintSet, InclusionDependency, Key
from repro.relational.database import Database, make_schema
from repro.relational.transaction import Transaction

QS_U8 = "q() <- TxOut(t, s, 'U8Pk', a)"


def store(ledger, name, candidates, witness=None, epoch=0):
    return ledger.store(
        name, candidates, frozenset({"R"}), witness, epoch
    )


class TestLedgerKeys:
    def test_clean_key_hit_is_reuse(self):
        ledger = VerdictLedger()
        store(ledger, "c", {"T1", "T2"}, witness=frozenset({"T1"}))
        plan = ledger.plan("c", 0, [{"T1", "T2"}, {"T3"}])
        assert plan[0][0] == "reuse"
        assert plan[0][1].witness == frozenset({"T1"})
        assert plan[1] == ("sweep", None)

    def test_issue_never_touches_entries(self):
        ledger = VerdictLedger()
        store(ledger, "c", {"T1"})
        affected = ledger.note_change("issue", "T9", ["c"], epoch=1)
        assert affected == {}
        assert ledger.entry_count == 1

    @pytest.mark.parametrize("kind", ["forget", "commit"])
    def test_departed_tx_prunes_containing_keys(self, kind):
        ledger = VerdictLedger()
        store(ledger, "c", {"T1", "T2"})
        store(ledger, "c", {"T3"})
        store(ledger, "d", {"T1"})
        affected = ledger.note_change(kind, "T1", [], epoch=1)
        # Entries containing T1 can never match a future survivor set.
        assert affected == {"c": 1, "d": 1}
        assert ledger.counters["pruned"] == 2
        plan = ledger.plan("c", 1, [{"T3"}])
        assert plan[0][0] == "reuse"

    @pytest.mark.parametrize("kind", ["commit", "absorb"])
    def test_base_growth_blankets_invalidated_constraints(self, kind):
        ledger = VerdictLedger()  # strict: dirty entries are dropped
        store(ledger, "c", {"T1"})
        store(ledger, "c", {"T2"})
        store(ledger, "d", {"T3"})
        tx_id = "T9" if kind == "commit" else None
        affected = ledger.note_change(kind, tx_id, ["c"], epoch=1)
        assert affected == {"c": 2}
        assert ledger.counters["dirtied"] == 2
        # Non-invalidated constraints keep their entries exactly.
        assert ledger.plan("d", 1, [{"T3"}])[0][0] == "reuse"
        assert ledger.plan("c", 1, [{"T1"}])[0][0] == "sweep"

    def test_revalidate_mode_marks_instead_of_dropping(self):
        ledger = VerdictLedger(witness_mode="revalidate")
        store(ledger, "c", {"T1"}, witness=frozenset({"T1"}))
        ledger.note_change("absorb", None, ["c"], epoch=1)
        plan = ledger.plan("c", 1, [{"T1"}])
        assert plan[0][0] == "revalidate"
        assert plan[0][1].witness == frozenset({"T1"})

    def test_bad_witness_mode_rejected(self):
        with pytest.raises(ValueError):
            VerdictLedger(witness_mode="sloppy")


class TestLedgerLifecycle:
    def test_epoch_divergence_clears_everything(self):
        # A state change that bypassed the monitor (direct checker
        # mutation) makes every stored sub-verdict untrustworthy.
        ledger = VerdictLedger()
        store(ledger, "c", {"T1"}, epoch=3)
        ledger.note_change("issue", "T1", [], epoch=3)
        plan = ledger.plan("c", 7, [{"T1"}])
        assert plan[0] == ("sweep", None)
        assert ledger.entry_count == 0
        assert ledger.counters["epoch_resets"] == 1

    def test_lru_eviction_bounds_the_ledger(self):
        ledger = VerdictLedger(max_entries=2)
        store(ledger, "c", {"T1"})
        store(ledger, "c", {"T2"})
        # Touch T1 so T2 becomes the least recently used entry.
        entry = ledger.plan("c", 0, [{"T1"}])[0][1]
        ledger.touch("c", entry)
        store(ledger, "c", {"T3"})
        assert ledger.counters["evicted"] == 1
        kinds = [d for d, _ in ledger.plan("c", 0, [{"T1"}, {"T2"}, {"T3"}])]
        assert kinds == ["reuse", "sweep", "reuse"]

    def test_drop_forgets_a_constraint(self):
        ledger = VerdictLedger()
        store(ledger, "c", {"T1"})
        ledger.drop("c")
        assert ledger.entry_count == 0

    def test_snapshot_and_merge(self):
        a, b = VerdictLedger(), VerdictLedger()
        store(a, "c", {"T1"})
        store(b, "d", {"T2"})
        b.counters["reused"] = 3
        merged = a.merge_snapshot(b.snapshot(), a.snapshot())
        assert merged["constraints"] == 2
        assert merged["entries"] == 2
        assert merged["counters"]["reused"] == 3


class TestRevalidationHelpers:
    def test_witness_revalidation_round_trip(self, figure2):
        checker = DCSatChecker(figure2)
        query = parse_query(QS_U8)
        witness = frozenset({"T1", "T2", "T3", "T4"})
        assert revalidate_witness(
            checker.workspace, checker.engine, query, witness
        )
        # A world missing T4's inputs is not a possible world anymore.
        assert not revalidate_witness(
            checker.workspace, checker.engine, query, frozenset({"T4"})
        )
        checker.workspace.clear_active()

    def test_departed_witness_member_fails_fast(self, figure2):
        checker = DCSatChecker(figure2)
        checker.forget("T4")
        assert not revalidate_witness(
            checker.workspace,
            checker.engine,
            parse_query(QS_U8),
            frozenset({"T1", "T2", "T3", "T4"}),
        )

    def test_component_short_circuit(self, figure2):
        checker = DCSatChecker(figure2)
        query = parse_query("q() <- TxOut(t, s, 'NobodyPk', a)")
        assert component_still_satisfied(
            checker.engine, query, {"T1", "T2", "T3", "T4", "T5"}
        )
        assert not component_still_satisfied(
            checker.engine, parse_query(QS_U8), {"T1", "T2", "T3", "T4", "T5"}
        )
        checker.workspace.clear_active()

    def test_component_footprint(self, figure2):
        assert component_footprint(figure2, {"T1"}) == frozenset(
            {"TxIn", "TxOut"}
        )


class TestMonitorIncremental:
    def test_ledger_path_reports_its_algorithm(self, figure2):
        monitor = ConstraintMonitor(DCSatChecker(figure2))
        monitor.register("u8", QS_U8)
        result = monitor.status("u8")
        assert result.stats.algorithm == "opt-ledger"
        assert not result.satisfied

    def test_unrelated_issue_reuses_components(self, figure2):
        monitor = ConstraintMonitor(DCSatChecker(figure2))
        monitor.register("u8", QS_U8)
        first = monitor.status("u8")
        # A self-contained output nobody consumes: its singleton
        # component has no U8Pk facts, so coverage prunes it and the
        # survivor set (hence every ledger key) is unchanged.
        monitor.issue(
            Transaction({"TxOut": [(100, 1, "QPk", 1.0)]}, tx_id="T-Q")
        )
        second = monitor.status("u8")
        assert second.stats.components_reused >= 1
        assert second.satisfied == first.satisfied
        assert second.witness == first.witness
        assert monitor.ledger.counters["reused"] >= 1

    def test_dirty_component_counts_flow_into_stats(self, figure2):
        monitor = ConstraintMonitor(DCSatChecker(figure2))
        monitor.register("u8", QS_U8)
        monitor.status("u8")
        monitor.commit("T5")
        assert monitor.last_dirty_components.get("u8", 0) >= 1
        fresh = monitor.status("u8")
        assert fresh.stats.dirty_components >= 1
        assert fresh.satisfied  # T5 kills T1 -> T2 -> T4

    def test_incremental_matches_plain_checker(self, figure2):
        incremental = ConstraintMonitor(DCSatChecker(figure2))
        plain = ConstraintMonitor(
            DCSatChecker(figure2), incremental=False
        )
        for monitor in (incremental, plain):
            monitor.register("u8", QS_U8)
        a, b = incremental.status("u8"), plain.status("u8")
        assert a.satisfied == b.satisfied
        assert a.witness == b.witness

    def test_non_opt_algorithms_bypass_the_ledger(self, figure2):
        monitor = ConstraintMonitor(DCSatChecker(figure2))
        monitor.register("u8", QS_U8, algorithm="naive")
        result = monitor.status("u8")
        assert result.stats.algorithm == "naive"
        assert monitor.ledger.entry_count == 0

    def test_unregister_drops_ledger_state(self, figure2):
        monitor = ConstraintMonitor(DCSatChecker(figure2))
        monitor.register("u8", QS_U8)
        monitor.status("u8")
        assert monitor.ledger.entry_count >= 1
        monitor.unregister("u8")
        assert monitor.ledger.entry_count == 0

    def test_direct_checker_mutation_resets_the_ledger(self, figure2):
        # dry_run bumps the checker epoch without telling the monitor;
        # the next solve must distrust (and rebuild) the ledger.
        checker = DCSatChecker(figure2)
        monitor = ConstraintMonitor(checker)
        monitor.register("u8", QS_U8)
        assert not monitor.status("u8").satisfied
        checker.dry_run(
            Transaction({"TxOut": [(100, 1, "QPk", 1.0)]}, tx_id="T-DRY"),
            QS_U8,
        )
        monitor.entry("u8").result = None
        assert not monitor.status("u8").satisfied
        assert monitor.ledger.counters["epoch_resets"] >= 1


def ind_db() -> BlockchainDatabase:
    """P/C linked by an inclusion; C(3, ...) is never appendable."""
    schema = make_schema({"P": ["k"], "C": ["k", "v"]})
    constraints = ConstraintSet(
        schema, [InclusionDependency("C", ["k"], "P", ["k"])]
    )
    current = Database.from_dict(schema, {"P": [(1,)], "C": []})
    pending = [
        Transaction({"C": [(1, "a")]}, tx_id="V1"),
        Transaction({"P": [(2,)]}, tx_id="V2"),
        Transaction({"C": [(2, "b")]}, tx_id="V3"),
        Transaction({"C": [(3, "c")]}, tx_id="V4"),
    ]
    return BlockchainDatabase(current, constraints, pending)


class TestCommitAfterIssue:
    def test_issue_then_commit_dirties_the_ledger(self):
        """Regression: an issue drops the cached verdict, so the commit
        that follows finds nothing cached — yet the ledger still holds
        the constraint's pre-commit component entries and must dirty
        them.  Reusing them reported V4's component as satisfied."""
        monitor = ConstraintMonitor(DCSatChecker(ind_db()))
        monitor.register("orphan", "q() <- C(3, v)")
        assert monitor.status("orphan").satisfied
        monitor.issue(Transaction({"P": [(3,)]}, tx_id="V-P3"))
        monitor.commit("V-P3")
        assert monitor.last_dirty_components == {"orphan": 1}
        served = monitor.status("orphan")

        checker = DCSatChecker(ind_db())
        checker.issue(Transaction({"P": [(3,)]}, tx_id="V-P3"))
        checker.commit("V-P3")
        fresh = checker.check("q() <- C(3, v)")

        assert not fresh.satisfied
        assert served.satisfied == fresh.satisfied
        assert served.witness == fresh.witness
        for counter in (
            "components_total", "components_pruned", "max_component_size",
            "cliques_enumerated", "worlds_checked", "evaluations",
            "components_reused",
        ):
            assert getattr(served.stats, counter) == getattr(
                fresh.stats, counter
            ), counter


class TestRevalidateMode:
    def test_witness_revalidation_keeps_the_verdict(self, figure2):
        monitor = ConstraintMonitor(
            DCSatChecker(figure2), witness_mode="revalidate"
        )
        monitor.register("u8", QS_U8)
        first = monitor.status("u8")
        assert not first.satisfied
        # Absorbing an unrelated committed fact dirties (not drops) the
        # entries; the stored witness survives one cheap probe.
        monitor.absorb(
            Transaction({"TxOut": [(100, 1, "QPk", 1.0)]}, tx_id="T-ABS")
        )
        second = monitor.status("u8")
        assert not second.satisfied
        assert second.stats.witness_revalidations >= 1
        assert monitor.ledger.counters["revalidation_hits"] >= 1
        assert second.witness == first.witness

    def test_satisfied_component_probe(self):
        monitor = ConstraintMonitor(
            DCSatChecker(ind_db()), witness_mode="revalidate"
        )
        monitor.register("orphan", "q() <- C(3, v)")
        assert monitor.status("orphan").satisfied
        monitor.absorb(Transaction({"P": [(9,)]}, tx_id="V-ABS"))
        again = monitor.status("orphan")
        assert again.satisfied
        assert again.stats.witness_revalidations >= 1

    def test_failed_probe_falls_back_to_the_sweep(self):
        monitor = ConstraintMonitor(
            DCSatChecker(ind_db()), witness_mode="revalidate"
        )
        monitor.register("orphan", "q() <- C(3, v)")
        assert monitor.status("orphan").satisfied
        # P(3) arrives committed: V4 becomes appendable and the verdict
        # flips; the component-scope short-circuit probe must fail and
        # the re-sweep must find the violation.
        monitor.absorb(Transaction({"P": [(3,)]}, tx_id="V-P3"))
        flipped = monitor.status("orphan")
        assert not flipped.satisfied
        assert flipped.witness is not None
        assert "V4" in flipped.witness


class TestSubsumptionStaleness:
    def test_ledger_assembled_verdict_still_subsumes(self):
        monitor = ConstraintMonitor(DCSatChecker(ind_db()))
        monitor.register("broad", "q() <- C(3, v)")
        assert monitor.status("broad").stats.algorithm == "opt-ledger"
        # Reassemble broad's verdict from reused ledger components...
        monitor.issue(Transaction({"P": [(9,)]}, tx_id="V9"))
        assert monitor.status("broad").satisfied
        # ...and it must still answer the narrow constraint for free.
        monitor.register("narrow", "q() <- C(3, 'c')")
        narrow = monitor.status("narrow")
        assert narrow.satisfied
        assert narrow.stats.algorithm == "subsumed-by:broad"

    def test_subsumed_verdict_does_not_survive_dirtying(self):
        """Regression: a verdict answered via subsumption must recompute
        once the subsuming constraint's components are dirtied."""
        monitor = ConstraintMonitor(DCSatChecker(ind_db()))
        monitor.register("broad", "q() <- C(3, v)")
        monitor.register("narrow", "q() <- C(3, 'c')")
        assert monitor.status("broad").satisfied
        assert monitor.status("narrow").stats.algorithm == "subsumed-by:broad"
        # P(3) commits: V4 becomes appendable, flipping broad — and with
        # it the narrow verdict that was never independently checked.
        monitor.absorb(Transaction({"P": [(3,)]}, tx_id="V-P3"))
        narrow = monitor.status("narrow")
        assert not narrow.satisfied
        assert not monitor.status("broad").satisfied
        assert not narrow.stats.algorithm.startswith("subsumed-by:")
