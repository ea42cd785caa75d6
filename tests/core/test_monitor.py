"""The standing constraint monitor: caching and targeted invalidation."""

import pytest

from repro.core.blockchain_db import BlockchainDatabase
from repro.core.checker import DCSatChecker
from repro.core.monitor import ConstraintMonitor, coupled_relations
from repro.errors import ReproError
from repro.relational.constraints import (
    ConstraintSet,
    InclusionDependency,
    Key,
)
from repro.relational.database import Database, make_schema
from repro.relational.transaction import Transaction

QS_U8 = "q() <- TxOut(t, s, 'U8Pk', a)"
QS_NONE = "q() <- TxOut(t, s, 'NobodyPk', a)"


@pytest.fixture
def monitor(figure2):
    return ConstraintMonitor(DCSatChecker(figure2))


class TestRegistration:
    def test_register_and_names(self, monitor):
        monitor.register("u8", QS_U8)
        monitor.register("nobody", QS_NONE, algorithm="naive")
        assert monitor.names == ("u8", "nobody")
        assert monitor.entry("u8").relations == frozenset({"TxOut"})

    def test_duplicate_rejected(self, monitor):
        monitor.register("u8", QS_U8)
        with pytest.raises(ReproError):
            monitor.register("u8", QS_NONE)

    def test_unregister(self, monitor):
        monitor.register("u8", QS_U8)
        monitor.unregister("u8")
        assert monitor.names == ()
        with pytest.raises(ReproError):
            monitor.unregister("u8")

    def test_unknown_entry(self, monitor):
        with pytest.raises(ReproError):
            monitor.status("ghost")


class TestCaching:
    def test_status_cached(self, monitor):
        monitor.register("u8", QS_U8)
        first = monitor.status("u8")
        second = monitor.status("u8")
        assert first is second
        entry = monitor.entry("u8")
        assert entry.checks_run == 1
        assert entry.cache_hits == 1

    def test_status_all_and_violated(self, monitor):
        monitor.register("u8", QS_U8)
        monitor.register("nobody", QS_NONE)
        verdicts = monitor.status_all()
        assert not verdicts["u8"].satisfied
        assert verdicts["nobody"].satisfied
        assert set(monitor.violated()) == {"u8"}


def battery_db(batteries: int, keys: int) -> BlockchainDatabase:
    """*batteries* decoupled relations, each with *keys* pending pairs
    that conflict on their key: one two-world component per key."""
    relations = [f"R{b}" for b in range(batteries)]
    schema = make_schema({name: ["k", "v"] for name in relations})
    constraints = ConstraintSet(
        schema, [Key(name, ["k"], schema) for name in relations]
    )
    state = Database.from_dict(schema, {name: [] for name in relations})
    pending = [
        Transaction({name: [(key, value)]}, tx_id=f"{name}K{key}{value}")
        for name in relations
        for key in range(keys)
        for value in ("a", "b")
    ]
    return BlockchainDatabase(state, constraints, pending)


class TestBatchedStatus:
    def test_status_all_checks_each_constraint_per_component(self):
        monitor = ConstraintMonitor(DCSatChecker(battery_db(2, 7)))
        for b in range(2):
            monitor.register(f"battery-{b}", f"q() <- R{b}(k, 'a'), R{b}(k, 'b')")
        verdicts = monitor.status_all()
        assert all(result.satisfied for result in verdicts.values())
        assert all(
            monitor.entry(name).checks_run == 1 for name in monitor.names
        )
        # Two worlds per key and battery: 2 * 2 * 7, where one sweep of
        # the global fd-graph would visit 2^14 worlds per constraint.
        assert sum(r.stats.worlds_checked for r in verdicts.values()) == 28

    def test_non_monotone_entries_fall_back(self, monitor):
        monitor.register("u8", QS_U8)
        monitor.register(
            "neg",
            "q() <- TxOut(t, s, 'U8Pk', a), not TxIn(t, s, 'U8Pk', a, t, 'x')",
        )
        verdicts = monitor.status_all()
        assert "neg" in verdicts
        assert monitor.entry("neg").result.stats.algorithm == "brute"


class TestSubsumption:
    def test_subsumed_constraint_answered_for_free(self, monitor):
        # The broad constraint (any MartianPk output) is satisfied; the
        # narrow one (a specific MartianPk row) is subsumed by it.
        monitor.register("broad", "q() <- TxOut(t, s, 'MartianPk', a)")
        monitor.register("narrow", "q() <- TxOut(t, 1, 'MartianPk', 7.0)")
        assert monitor.status("broad").satisfied
        narrow = monitor.status("narrow")
        assert narrow.satisfied
        assert narrow.stats.algorithm == "subsumed-by:broad"
        assert monitor.entry("narrow").checks_run == 0  # no solver run

    def test_violated_constraints_never_subsume(self, monitor):
        monitor.register("broad", "q() <- TxOut(t, s, 'U7Pk', a)")
        monitor.register("narrow", "q() <- TxOut(t, s, 'U7Pk', 4.0)")
        assert not monitor.status("broad").satisfied
        # Violated verdicts promise nothing; the narrow one is checked.
        narrow = monitor.status("narrow")
        assert not narrow.satisfied
        assert monitor.entry("narrow").checks_run == 1

    def test_subsumption_can_be_disabled(self, monitor):
        monitor.register("broad", "q() <- TxOut(t, s, 'MartianPk', a)")
        monitor.register("narrow", "q() <- TxOut(t, 1, 'MartianPk', 7.0)")
        monitor.status("broad")
        narrow = monitor.status("narrow", use_subsumption=False)
        assert narrow.satisfied
        assert monitor.entry("narrow").checks_run == 1

    def test_non_positive_queries_excluded(self, monitor):
        monitor.register("broad", "q() <- TxOut(t, s, 'MartianPk', a)")
        monitor.status("broad")
        monitor.register(
            "negated",
            "q() <- TxOut(t, 1, 'MartianPk', 7.0), "
            "not TxIn(t, 1, 'MartianPk', 7.0, t, 'x')",
        )
        result = monitor.status("negated")
        assert result.satisfied
        assert monitor.entry("negated").checks_run == 1  # really checked

    def test_subsumption_runs_once_per_pair(self, monitor, monkeypatch):
        from repro.query import containment

        calls: dict[tuple[str, str], int] = {}
        real = containment.denial_subsumes

        def counting(broad, narrow):
            key = (str(broad), str(narrow))
            calls[key] = calls.get(key, 0) + 1
            return real(broad, narrow)

        monkeypatch.setattr(containment, "denial_subsumes", counting)
        monitor.register("broad", "q() <- TxOut(t, s, 'MartianPk', a)")
        monitor.register("narrow", "q() <- TxOut(t, 1, 'MartianPk', 7.0)")
        monitor.register("u8", QS_U8)
        outcomes = []
        for round_ in range(4):
            tx = Transaction({"TxOut": [(90 + round_, 1, "ZPk", 1.0)]},
                             tx_id=f"W{round_}")
            monitor.issue(tx)
            verdicts = monitor.status_all()
            outcomes.append(
                {name: r.stats.algorithm for name, r in verdicts.items()}
            )
            monitor.forget(tx.tx_id)
        assert all(o["narrow"] == "subsumed-by:broad" for o in outcomes)
        assert calls and max(calls.values()) == 1
        # Re-registering a name drops its memoized answers.
        monitor.unregister("broad")
        monitor.register("broad", "q() <- TxOut(t, s, 'VenusPk', a)")
        monitor.issue(Transaction({"TxOut": [(99, 1, "ZPk", 1.0)]}, tx_id="W9"))
        monitor.status("broad")
        assert monitor.status("narrow").stats.algorithm != "subsumed-by:broad"


class TestCoupledRelations:
    def test_ind_closure_is_connectivity(self):
        schema = make_schema({"A": ["x"], "B": ["x"], "C": ["x"]})
        constraints = ConstraintSet(
            schema, [InclusionDependency("A", ["x"], "B", ["x"])]
        )
        assert constraints.ind_closure({"A"}) == {"A", "B"}
        assert constraints.ind_closure({"B"}) == {"A", "B"}
        assert constraints.ind_closure({"C"}) == {"C"}
        assert constraints.ind_closure([]) == frozenset()

    def test_co_write_and_ind_edges_interleave(self):
        # Seed {A}; a pending tx co-writes {A, B}; an ind couples B to C.
        # The fixpoint must walk both edge kinds: A -> B (co-write) ->
        # C (ind).
        schema = make_schema({"A": ["x"], "B": ["x"], "C": ["x"], "D": ["x"]})
        constraints = ConstraintSet(
            schema, [InclusionDependency("B", ["x"], "C", ["x"])]
        )
        out = coupled_relations({"A"}, constraints, [{"A", "B"}])
        assert out == {"A", "B", "C"}
        # Single-relation footprints never bridge anything.
        assert coupled_relations({"D"}, constraints, [{"A"}, {"D"}]) == {"D"}


class TestInvalidation:
    def test_issue_invalidates_touching_constraints(self, monitor):
        monitor.register("u8", QS_U8)
        monitor.status("u8")
        tx = Transaction({"TxOut": [(9, 1, "ZPk", 1.0)]}, tx_id="T9")
        invalidated = monitor.issue(tx)
        assert invalidated == ["u8"]
        assert monitor.entry("u8").result is None

    def test_commit_changes_cached_verdict(self, monitor):
        monitor.register("u8", QS_U8)
        assert not monitor.status("u8").satisfied
        monitor.commit("T5")  # kills T1 -> T2 -> T4, so U8Pk unreachable
        fresh = monitor.status("u8")
        assert fresh.satisfied
        assert monitor.entry("u8").checks_run == 2

    def test_forget_invalidates(self, monitor):
        monitor.register("u8", QS_U8)
        monitor.status("u8")
        monitor.forget("T4")
        assert monitor.status("u8").satisfied

    def test_absorb_invalidates_touching_constraints(self, monitor):
        monitor.register("u8", QS_U8)
        monitor.register("ghost", "q() <- TxIn(p, s, 'GhostPk', a, n, g)")
        monitor.status_all()
        coinbase = Transaction({"TxOut": [(99, 1, "MinerPk", 50.0)]}, tx_id="CB")
        invalidated = monitor.absorb(coinbase)
        # TxOut and TxIn are ind-coupled in the Example 1 schema, so the
        # absorbed coinbase reaches both cached verdicts.
        assert sorted(invalidated) == ["ghost", "u8"]
        assert monitor.entry("u8").result is None
        # The facts really landed: a constraint over the new row violates.
        monitor.register("miner", "q() <- TxOut(99, 1, 'MinerPk', 50.0)")
        assert not monitor.status("miner").satisfied

    def test_untouched_constraints_stay_cached(self):
        # A constraint over a relation the update cannot reach — no ind
        # couples R and S, and no pending transaction co-writes both —
        # keeps its cached verdict.
        schema = make_schema({"R": ["x"], "S": ["y"]})
        db = BlockchainDatabase(
            Database.from_dict(schema, {"R": [], "S": []}),
            ConstraintSet(schema),
        )
        monitor = ConstraintMonitor(DCSatChecker(db))
        monitor.register("s_only", "q() <- S('boom')")
        monitor.status("s_only")
        invalidated = monitor.issue(
            Transaction({"R": [(1,)]}, tx_id="T-R")
        )
        assert invalidated == []
        assert monitor.entry("s_only").result is not None

    def test_commit_flips_ind_coupled_verdict(self):
        """Regression: a commit into ``Parent`` flips the verdict of a
        constraint over ind-dependent ``Child``.

        The old ``_invalidate_touching`` intersected raw relation
        footprints ({Parent} ∩ {Child} = ∅) and served the stale
        "violated" verdict from cache.
        """
        schema = make_schema(
            {"Parent": ["pid", "tag"], "Child": ["cid", "pid", "tag"]}
        )
        constraints = ConstraintSet(
            schema,
            [
                Key("Parent", ["pid"], schema),
                InclusionDependency(
                    "Child", ["pid", "tag"], "Parent", ["pid", "tag"]
                ),
            ],
        )
        db = BlockchainDatabase(
            Database.from_dict(schema, {"Parent": [(2, "z")], "Child": []}),
            constraints,
            [
                Transaction({"Parent": [(1, "x")]}, tx_id="TP"),
                Transaction({"Parent": [(1, "y")]}, tx_id="TQ"),
                Transaction({"Child": [(10, 1, "x")]}, tx_id="TC"),
            ],
        )
        monitor = ConstraintMonitor(DCSatChecker(db))
        monitor.register("no-child", "q() <- Child(c, p, t)")
        # TC is appendable once TP supplies Parent(1, 'x'): the world
        # {TP, TC} contains a Child fact, so the constraint is violable.
        assert not monitor.status("no-child").satisfied

        # Committing TQ writes Parent(1, 'y'); the key on pid makes TP
        # never-appendable, and with it TC loses its only parent row.
        invalidated = monitor.commit("TQ")
        assert invalidated == ["no-child"]
        fresh = monitor.status("no-child")
        assert fresh.satisfied
        assert monitor.entry("no-child").checks_run == 2

    def test_commit_flips_co_written_verdict(self):
        """A pending transaction spanning two relations couples them even
        without inclusion dependencies: committing a conflicting ``B``
        row kills the spanning transaction, and its ``A`` facts vanish
        from every possible world."""
        schema = make_schema({"A": ["x"], "B": ["k", "v"]})
        constraints = ConstraintSet(schema, [Key("B", ["k"], schema)])
        db = BlockchainDatabase(
            Database.from_dict(schema, {"A": [], "B": []}),
            constraints,
            [
                Transaction({"A": [(1,)], "B": [(1, "x")]}, tx_id="T-SPAN"),
                Transaction({"B": [(1, "y")]}, tx_id="T-B"),
            ],
        )
        monitor = ConstraintMonitor(DCSatChecker(db))
        monitor.register("no-a", "q() <- A(x)")
        assert not monitor.status("no-a").satisfied
        invalidated = monitor.commit("T-B")
        assert invalidated == ["no-a"]
        assert monitor.status("no-a").satisfied

    def test_ind_coupled_relations_invalidate_together(self, monitor):
        # TxIn ⊆ TxOut in the Example 1 schema: a TxOut-only change can
        # alter which TxIn transactions are appendable, so a TxIn-only
        # constraint must not keep its cached verdict.
        monitor.register("txin_only", "q() <- TxIn(p, s, 'GhostPk', a, n, g)")
        monitor.status("txin_only")
        tx = Transaction({"TxOut": [(9, 1, "ZPk", 1.0)]}, tx_id="T9")
        assert monitor.issue(tx) == ["txin_only"]
        assert monitor.entry("txin_only").result is None
