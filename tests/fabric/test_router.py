"""FabricMonitor over an in-process fleet: parity with one monitor,
journal-replay recovery, rebalance execution, liveness reporting."""

import random

import pytest

from repro.core.checker import DCSatChecker
from repro.core.monitor import ConstraintMonitor
from repro.errors import ReproError
from repro.obs.trace import default_tracer
from repro.relational.transaction import Transaction

from tests.fabric.conftest import parent_child_db, thread_fabric, two_relation_db


class FabricRunner:
    """Drive a FabricMonitor and a single ConstraintMonitor in lockstep,
    asserting invalidation lists and verdicts stay identical — including
    across shard kills injected mid-trace."""

    def __init__(self, db_factory, shards: int):
        self.fabric = thread_fabric(db_factory, shards=shards)
        self.single = ConstraintMonitor(DCSatChecker(db_factory()))

    def register(self, name, query):
        self.fabric.register(name, query)
        self.single.register(name, query)

    def op(self, kind, payload):
        got = getattr(self.fabric, kind)(payload)
        want = getattr(self.single, kind)(payload)
        assert got == want, f"{kind}: invalidated {got} != {want}"

    def kill(self, shard: int):
        self.fabric._fleet.kill(shard)

    def check_verdicts(self):
        got = self.fabric.status_all()
        want = self.single.status_all()
        assert set(got) == set(want)
        for name in want:
            assert got[name].satisfied == want[name].satisfied, name
            assert got[name].witness == want[name].witness, name

    def close(self):
        self.fabric.close()


@pytest.fixture
def decoupled_runner():
    runner = FabricRunner(two_relation_db, shards=2)
    yield runner
    runner.close()


@pytest.fixture
def coupled_runner():
    runner = FabricRunner(parent_child_db, shards=2)
    yield runner
    runner.close()


class TestParity:
    def test_ind_coupled_commit_flip(self, coupled_runner):
        runner = coupled_runner
        runner.register("no-child", "q() <- Child(c, p, t)")
        runner.register("d-conflict", "q() <- D(k, 'x'), D(k, 'y')")
        runner.op("issue", Transaction({"Parent": [(1, "x")]}, tx_id="TP"))
        runner.op("issue", Transaction({"Parent": [(1, "y")]}, tx_id="TQ"))
        runner.op("issue", Transaction({"Child": [(10, 1, "x")]}, tx_id="TC"))
        runner.check_verdicts()
        assert not runner.fabric.status("no-child").satisfied
        runner.op("commit", "TQ")
        runner.check_verdicts()
        assert runner.fabric.status("no-child").satisfied

    def test_ind_coupled_commit_flip_beside_loner_traffic(self):
        # The commit into Parent must reach the Child constraint's shard
        # while the loner D shard holds a pending transaction of its own.
        runner = FabricRunner(parent_child_db, shards=2)
        try:
            runner.register("no-child", "q() <- Child(c, p, t)")
            runner.register("d-conflict", "q() <- D(k, 'x'), D(k, 'y')")
            runner.op("issue", Transaction({"Parent": [(1, "x")]}, tx_id="TP"))
            runner.op("issue", Transaction({"Parent": [(1, "y")]}, tx_id="TQ"))
            runner.op("issue", Transaction({"Child": [(10, 1, "x")]}, tx_id="TC"))
            runner.op("issue", Transaction({"D": [(1, "x")]}, tx_id="TD"))
            runner.check_verdicts()
            assert not runner.fabric.status("no-child").satisfied
            runner.op("commit", "TQ")
            runner.check_verdicts()
            assert runner.fabric.status("no-child").satisfied
        finally:
            runner.close()

    def test_absorb_identity(self, coupled_runner):
        runner = coupled_runner
        runner.register("no-child", "q() <- Child(c, p, t)")
        runner.register("d-any", "q() <- D(k, v)")
        runner.check_verdicts()
        runner.op("absorb", Transaction({"Parent": [(5, "m")]}, tx_id="XB1"))
        runner.op("issue", Transaction({"Child": [(1, 5, "m")]}, tx_id="TC"))
        runner.check_verdicts()
        assert not runner.fabric.status("no-child").satisfied

    def test_unregister_and_reregister(self, decoupled_runner):
        runner = decoupled_runner
        runner.register("a1", "q() <- A(k, 'x'), A(k, 'y')")
        runner.register("b1", "q() <- B(k, 'x'), B(k, 'y')")
        runner.op("issue", Transaction({"A": [(1, "x")]}, tx_id="TA"))
        runner.fabric.unregister("a1")
        runner.single.unregister("a1")
        assert runner.fabric.names == ("b1",)
        runner.register("a1", "q() <- A(k, 'x'), A(k, 'y')")
        runner.check_verdicts()
        with pytest.raises(ReproError):
            runner.fabric.unregister("ghost")

    @pytest.mark.parametrize("seed", [7, 23, 51])
    @pytest.mark.parametrize("shards", [2, 3])
    def test_randomized_traces_with_kills(self, seed, shards):
        rng = random.Random(seed)
        runner = FabricRunner(two_relation_db, shards=shards)
        try:
            runner.register("a-conflict", "q() <- A(k, 'x'), A(k, 'y')")
            runner.register("b-conflict", "q() <- B(k, 'x'), B(k, 'y')")
            self._drive(rng, runner, relations=["A", "B"], steps=40, shards=shards)
        finally:
            runner.close()

    @pytest.mark.parametrize("seed", [7, 23, 51])
    @pytest.mark.parametrize("shards", [2, 3])
    def test_randomized_traces_with_registrations(self, seed, shards):
        # Mid-trace registrations drain what the new entry observes.
        rng = random.Random(seed)
        runner = FabricRunner(two_relation_db, shards=shards)
        try:
            runner.register("a-conflict", "q() <- A(k, 'x'), A(k, 'y')")
            runner.register("b-conflict", "q() <- B(k, 'x'), B(k, 'y')")
            self._drive(
                rng, runner, relations=["A", "B"], steps=40, shards=shards,
                registrations=True,
            )
        finally:
            runner.close()

    @pytest.mark.parametrize("seed", [3, 19])
    def test_randomized_traces_ind_coupled(self, seed):
        rng = random.Random(seed)
        runner = FabricRunner(parent_child_db, shards=2)
        try:
            runner.register("no-child", "q() <- Child(c, p, t)")
            runner.register("d-conflict", "q() <- D(k, 'x'), D(k, 'y')")
            self._drive_ind(rng, runner, steps=35, kill_at=9, shards=2)
        finally:
            runner.close()

    @pytest.mark.parametrize("seed", [3])
    def test_randomized_traces_ind_coupled_three_shards(self, seed):
        # The Parent/Child group on one shard, D on another, one spare:
        # no kills, so every routed op reaches a live shard first time.
        rng = random.Random(seed)
        runner = FabricRunner(parent_child_db, shards=3)
        try:
            runner.register("no-child", "q() <- Child(c, p, t)")
            runner.register("d-conflict", "q() <- D(k, 'x'), D(k, 'y')")
            self._drive_ind(rng, runner, steps=35)
        finally:
            runner.close()

    def _drive_ind(self, rng, runner, steps, kill_at=None, shards=2):
        next_id = 0
        for step in range(steps):
            pending = list(runner.single.checker.db.pending_ids)
            roll = rng.random()
            if roll < 0.45 or not pending:
                next_id += 1
                kind = rng.random()
                if kind < 0.4:
                    facts = {"Parent": [(rng.randrange(4), rng.choice("xy"))]}
                elif kind < 0.7:
                    facts = {
                        "Child": [(next_id, rng.randrange(4), rng.choice("xy"))]
                    }
                else:
                    facts = {"D": [(rng.randrange(3), rng.choice("xy"))]}
                runner.op("issue", Transaction(facts, tx_id=f"T{next_id}"))
            elif roll < 0.70:
                runner.op("commit", rng.choice(pending))
            elif roll < 0.85:
                runner.op("forget", rng.choice(pending))
            else:
                next_id += 1
                runner.op(
                    "absorb",
                    Transaction(
                        {"Parent": [(50 + next_id, "z")]}, tx_id=f"X{next_id}"
                    ),
                )
            if step == kill_at:
                runner.kill(rng.randrange(shards))
            runner.check_verdicts()

    def _drive(self, rng, runner, relations, steps, shards, registrations=False):
        next_id = 0
        registered = 2
        for step in range(steps):
            pending = list(runner.single.checker.db.pending_ids)
            roll = rng.random()
            if roll < 0.45 or not pending:
                next_id += 1
                if rng.random() < 0.2:  # spanning co-write
                    facts = {
                        rel: [(rng.randrange(4), rng.choice("xy"))]
                        for rel in relations
                    }
                else:
                    rel = rng.choice(relations)
                    facts = {rel: [(rng.randrange(4), rng.choice("xy"))]}
                runner.op("issue", Transaction(facts, tx_id=f"T{next_id}"))
            elif roll < 0.65:
                runner.op("commit", rng.choice(pending))
            elif roll < 0.80:
                runner.op("forget", rng.choice(pending))
            elif roll < 0.90 or not registrations:
                next_id += 1
                rel = rng.choice(relations)
                runner.op(
                    "absorb",
                    Transaction({rel: [(100 + next_id, "z")]}, tx_id=f"X{next_id}"),
                )
            else:
                # A mid-trace registration drains what the new entry
                # observes from its shard's backlog.
                registered += 1
                rel = rng.choice(relations)
                runner.register(
                    f"c{registered}", f"q() <- {rel}({rng.randrange(4)}, v)"
                )
            # A SIGKILL-equivalent mid-trace: the next touching op must
            # respawn the shard and replay its journal transparently.
            if step % 8 == 5:
                runner.kill(rng.randrange(shards))
            runner.check_verdicts()


    def test_witness_names_only_globally_pending_transactions(
        self, decoupled_runner
    ):
        runner = decoupled_runner
        runner.register("a1", "q() <- A(k, 'x'), A(k, 'y')")
        runner.register("b1", "q() <- B(k, 'x'), B(k, 'y')")
        runner.register("b3", "q() <- B(3, v)")
        # The pending co-write couples A and B, so TA reaches both shards.
        runner.op("issue", Transaction({"A": [(0, "x")], "B": [(1, "y")]}, tx_id="TC"))
        runner.op("issue", Transaction({"A": [(2, "y")]}, tx_id="TA"))
        runner.op("commit", "TC")
        # Decoupled again: the B shard backlogs this commit.
        runner.op("commit", "TA")
        runner.op("issue", Transaction({"B": [(3, "x")]}, tx_id="TB"))
        # The B shard still holds TA as pending; its per-constraint
        # check must name only {TB}, as one monitor does.
        runner.check_verdicts()


class TestFront:
    def test_duplicate_name_rejected_across_shards(self, decoupled_runner):
        fabric = decoupled_runner.fabric
        fabric.register("x", "q() <- A(k, v)")
        with pytest.raises(ReproError):
            fabric.register("x", "q() <- B(k, v)")

    def test_unknown_constraint(self, decoupled_runner):
        with pytest.raises(ReproError):
            decoupled_runner.fabric.status("ghost")

    def test_front_validates_before_routing(self, decoupled_runner):
        fabric = decoupled_runner.fabric
        fabric.register("a1", "q() <- A(k, v)")
        fabric.issue(Transaction({"A": [(1, "x")]}, tx_id="T1"))
        with pytest.raises(ReproError):
            fabric.issue(Transaction({"A": [(2, "y")]}, tx_id="T1"))  # dup id
        with pytest.raises(ReproError):
            fabric.commit("nope")
        with pytest.raises(ReproError):
            fabric.absorb(Transaction({"Zzz": [(1,)]}, tx_id="X"))
        # The failed ops left nothing behind.
        assert fabric.pending_count() == 1

    def test_registration_drains_what_the_new_entry_observes(self):
        fabric = thread_fabric(two_relation_db, shards=1)
        try:
            fabric.register("a1", "q() <- A(k, v)")
            fabric.issue(Transaction({"B": [(1, "x")]}, tx_id="TB"))
            shard = fabric._shards[0]
            assert len(shard.skipped) == 1
            fabric.register("b1", "q() <- B(k, 'x')")
            assert shard.skipped == []
            # The drained issue is visible to the new constraint: a
            # possible world containing B(1, 'x') violates it.
            assert not fabric.status("b1").satisfied
        finally:
            fabric.close()

    def test_decoupled_constraints_spread(self, decoupled_runner):
        fabric = decoupled_runner.fabric
        fabric.register("a1", "q() <- A(k, 'x'), A(k, 'y')")
        fabric.register("b1", "q() <- B(k, 'x'), B(k, 'y')")
        assert fabric.topology.slot_of("a1") != fabric.topology.slot_of("b1")

    def test_coupled_constraints_co_locate(self, coupled_runner):
        fabric = coupled_runner.fabric
        fabric.register("p", "q() <- Parent(p, 'x')")
        fabric.register("c", "q() <- Child(c, p, t)")  # ind-coupled to Parent
        fabric.register("d", "q() <- D(k, v)")
        slot_of = fabric.topology.slot_of
        assert slot_of("p") == slot_of("c")
        assert slot_of("d") != slot_of("p")

    def test_unregister_shrinks_footprint(self):
        fabric = thread_fabric(two_relation_db, shards=1)
        try:
            fabric.register("a1", "q() <- A(k, v)")
            fabric.register("b1", "q() <- B(k, v)")
            shard = fabric._shards[0]
            assert shard.footprint == {"A", "B"}
            fabric.unregister("b1")
            assert shard.footprint == {"A"}
            assert fabric.names == ("a1",)
            with pytest.raises(ReproError):
                fabric.unregister("b1")
        finally:
            fabric.close()

    def test_decoupled_ops_stay_skipped(self, decoupled_runner):
        runner = decoupled_runner
        runner.register("a1", "q() <- A(k, 'x'), A(k, 'y')")
        runner.register("b1", "q() <- B(k, 'x'), B(k, 'y')")
        runner.op("issue", Transaction({"A": [(1, "x")]}, tx_id="TA"))
        runner.op("issue", Transaction({"B": [(1, "x")]}, tx_id="TB"))
        # Each shard applied only its own battery's transaction.
        detail = runner.fabric.describe()["detail"]
        assert [d["pending"] for d in detail] == [1, 1]
        assert [d["skipped_ops"] for d in detail] == [1, 1]
        assert [d["flushes"] for d in detail] == [0, 0]
        runner.check_verdicts()

    def test_spanning_transaction_drains_backlog(self, decoupled_runner):
        runner = decoupled_runner
        runner.register("a1", "q() <- A(k, 'x'), A(k, 'y')")
        runner.register("b1", "q() <- B(k, 'x'), B(k, 'y')")
        runner.op("issue", Transaction({"A": [(1, "x")]}, tx_id="TA"))
        runner.op("issue", Transaction({"B": [(1, "x")]}, tx_id="TB"))
        runner.op(
            "issue",
            Transaction({"A": [(2, "s")], "B": [(2, "s")]}, tx_id="SPAN"),
        )
        detail = runner.fabric.describe()["detail"]
        assert [d["skipped_ops"] for d in detail] == [0, 0]
        assert [d["pending"] for d in detail] == [3, 3]
        runner.check_verdicts()

    def test_flush_gauges_exported(self, decoupled_runner):
        # The fabric exports flushes as a per-shard gauge.
        from repro.service.metrics import MetricsRegistry

        runner = decoupled_runner
        runner.register("a1", "q() <- A(k, v)")
        runner.register("b1", "q() <- B(k, v)")
        runner.op("issue", Transaction({"A": [(1, "x")]}, tx_id="TA"))
        runner.op(
            "issue",
            Transaction({"A": [(2, "s")], "B": [(2, "s")]}, tx_id="SPAN"),
        )
        metrics = MetricsRegistry()
        runner.fabric.export_gauges(metrics)
        text = metrics.render_text()
        b_shard = runner.fabric.topology.slot_of("b1")
        assert f'repro_fabric_shard_flushes{{shard="{b_shard}"}} 1' in text
        assert 'repro_fabric_shard_constraints{shard="0"} 1' in text
        assert 'repro_fabric_shard_constraints{shard="1"} 1' in text

    def test_max_skipped_bounds_the_backlog(self):
        fabric = thread_fabric(two_relation_db, shards=1, max_skipped=3)
        try:
            fabric.register("a1", "q() <- A(k, v)")
            for i in range(5):
                fabric.issue(Transaction({"B": [(i, "x")]}, tx_id=f"TB{i}"))
            shard = fabric._shards[0]
            assert len(shard.skipped) <= 3
            assert shard.flushes >= 1
            # The overflow flush applied the backlog on the shard server.
            [detail] = fabric.describe()["detail"]
            assert detail["pending"] >= 4
        finally:
            fabric.close()


class TestRecovery:
    def test_dead_shard_reported_then_revived_lazily(self, decoupled_runner):
        runner = decoupled_runner
        runner.register("a1", "q() <- A(k, 'x'), A(k, 'y')")
        runner.register("b1", "q() <- B(k, 'x'), B(k, 'y')")
        runner.op("issue", Transaction({"A": [(1, "x")]}, tx_id="TA"))
        victim = runner.fabric.topology.slot_of("a1")
        runner.kill(victim)
        health = runner.fabric.fleet_health()
        assert health["dead"] == [victim]
        assert not health["ok"]
        # The next op through the shard revives it from the journal.
        runner.op("issue", Transaction({"A": [(1, "y")]}, tx_id="TB"))
        health = runner.fabric.fleet_health()
        assert health["dead"] == []
        assert health["shards"][victim]["restarts"] == 1
        runner.check_verdicts()
        runner.op("commit", "TA")
        runner.op("commit", "TB")
        runner.check_verdicts()
        assert not runner.fabric.status("a1").satisfied

    def test_cached_invalidations_survive_restart(self, decoupled_runner):
        # The regression the router-side mirror exists for: a respawned
        # shard has no cached verdicts, so shard-reported invalidation
        # would be empty; the router must still report the names.
        runner = decoupled_runner
        runner.register("a1", "q() <- A(k, 'x'), A(k, 'y')")
        runner.check_verdicts()  # caches the verdict on both sides
        victim = runner.fabric.topology.slot_of("a1")
        runner.kill(victim)
        runner.op("issue", Transaction({"A": [(1, "x")]}, tx_id="TA"))

    def test_revives_and_replays_are_counted(self):
        from repro.service.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        fabric = thread_fabric(two_relation_db, shards=2, metrics=metrics)
        try:
            fabric.register("a1", "q() <- A(k, 'x'), A(k, 'y')")
            fabric.issue(Transaction({"A": [(1, "x")]}, tx_id="TA"))
            victim = fabric.topology.slot_of("a1")
            fabric._fleet.kill(victim)
            fabric.issue(Transaction({"A": [(1, "y")]}, tx_id="TB"))
            labels = {"shard": str(victim)}
            assert metrics.value("repro_fabric_revives_total", labels) == 1
            # Journal-before-send: TB was recorded before the send hit
            # the dead shard, so the replay carries the registration,
            # TA, and TB itself.
            assert metrics.value("repro_fabric_replayed_ops_total", labels) == 3
            assert metrics.value("repro_fabric_revives_total") is None
        finally:
            fabric.close()

    def test_journal_grows_with_applied_ops_only(self, decoupled_runner):
        runner = decoupled_runner
        runner.register("a1", "q() <- A(k, v)")
        runner.register("b1", "q() <- B(k, v)")
        runner.op("issue", Transaction({"A": [(1, "x")]}, tx_id="TA"))
        a_shard = runner.fabric._shards[runner.fabric.topology.slot_of("a1")]
        b_shard = runner.fabric._shards[runner.fabric.topology.slot_of("b1")]
        assert [r["op"] for r in a_shard.journal if r["k"] == "op"] == [
            "register",
            "issue",
        ]
        # The decoupled shard never saw the issue: backlogged (a skip
        # record for recovery), not sent as an applied op.
        assert [r["op"] for r in b_shard.journal if r["k"] == "op"] == ["register"]
        assert [r["op"] for r in b_shard.journal if r["k"] == "skip"] == ["issue"]


class TestRebalance:
    def test_rebalance_migrates_and_preserves_verdicts(self, decoupled_runner):
        runner = decoupled_runner
        runner.register("a1", "q() <- A(k, 'x'), A(k, 'y')")
        runner.register("b1", "q() <- B(k, 'x'), B(k, 'y')")
        for i in range(2):
            runner.op("issue", Transaction({"A": [(i, "x")]}, tx_id=f"TA{i}"))
            runner.op("issue", Transaction({"A": [(i, "y")]}, tx_id=f"TB{i}"))
        # Pack both constraints onto one shard, then let the recorded
        # solve costs pull them apart again.
        topology = runner.fabric.topology
        target = topology.slot_of("a1")
        source = topology.slot_of("b1")
        plan = topology.migrate("b1", target)
        runner.fabric._drain(
            runner.fabric._shards[target], plan.drained, plan.retained
        )
        runner.fabric._apply_wire(
            runner.fabric._shards[target],
            "register",
            {"name": "b1", "query": str(runner.fabric.entry("b1").query)},
        )
        runner.fabric._apply_wire(
            runner.fabric._shards[source], "unregister", {"name": "b1"}
        )
        runner.check_verdicts()  # record per-constraint solve costs
        moved = runner.fabric.rebalance()
        assert {m["name"] for m in moved["migrated"]} == {"b1"}
        assert topology.slot_of("b1") == source
        runner.check_verdicts()
        runner.op("issue", Transaction({"B": [(1, "x")]}, tx_id="TBX"))
        runner.op("issue", Transaction({"B": [(1, "y")]}, tx_id="TBY"))
        runner.check_verdicts()


class TestObservability:
    def test_status_all_adopts_shard_spans(self, decoupled_runner):
        runner = decoupled_runner
        runner.register("a1", "q() <- A(k, 'x'), A(k, 'y')")
        runner.register("b1", "q() <- B(k, 'x'), B(k, 'y')")
        runner.op("issue", Transaction({"A": [(1, "x")]}, tx_id="TA"))
        tracer = default_tracer()
        with tracer.trace("fabric-test") as root:
            runner.fabric.status_all()
        trace = tracer.find(root.trace_id)
        names = [span["name"] for span in trace["spans"]]
        assert "fabric.call" in names
        # Shard-side request spans were exported over the wire and
        # grafted under the router's fabric.call span.
        assert "request" in names
        calls = [s for s in trace["spans"] if s["name"] == "fabric.call"]
        requests = [s for s in trace["spans"] if s["name"] == "request"]
        assert {r["parent_id"] for r in requests} <= {c["span_id"] for c in calls}

    def test_describe_and_gauges(self, decoupled_runner):
        from repro.service.metrics import MetricsRegistry

        runner = decoupled_runner
        runner.register("a1", "q() <- A(k, v)")
        info = runner.fabric.describe()
        assert info["fabric"] is True and info["sharded"] is True
        assert all("alive" in item for item in info["detail"])
        metrics = MetricsRegistry()
        runner.fabric.export_gauges(metrics)
        text = metrics.render_text()
        assert 'repro_fabric_shard_alive{shard="0"} 1' in text
        assert "repro_fabric_shard_journal_ops" in text
