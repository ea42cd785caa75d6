"""ShardTopology: the routing plans behind both fleet executors."""

import pytest

from repro.errors import ReproError
from repro.fabric.topology import ShardTopology
from repro.relational.transaction import Transaction

from tests.fabric.conftest import parent_child_db, two_relation_db


def reg(topology, name, relations):
    return topology.place(name, frozenset(relations))


class TestPlacement:
    def test_decoupled_constraints_spread(self):
        topology = ShardTopology(two_relation_db(), shards=2)
        a = reg(topology, "a1", ["A"])
        b = reg(topology, "b1", ["B"])
        assert a.shard != b.shard

    def test_coupled_constraints_co_locate(self):
        topology = ShardTopology(parent_child_db(), shards=2)
        p = reg(topology, "p", ["Parent"])
        c = reg(topology, "c", ["Child"])  # ind-coupled to Parent
        d = reg(topology, "d", ["D"])
        assert p.shard == c.shard
        assert d.shard != p.shard

    def test_duplicate_name_rejected(self):
        topology = ShardTopology(two_relation_db(), shards=2)
        reg(topology, "x", ["A"])
        with pytest.raises(ReproError):
            reg(topology, "x", ["B"])

    def test_needs_at_least_one_shard(self):
        with pytest.raises(ReproError):
            ShardTopology(two_relation_db(), shards=0)

    def test_forget_placement_shrinks_footprint(self):
        topology = ShardTopology(two_relation_db(), shards=1)
        reg(topology, "a1", ["A"])
        reg(topology, "b1", ["B"])
        assert topology.slots[0].footprint == {"A", "B"}
        topology.forget_placement("b1")
        assert topology.slots[0].footprint == {"A"}
        with pytest.raises(ReproError):
            topology.slot_of("b1")


class TestRouting:
    def test_decoupled_op_skips_and_spanning_op_drains(self):
        topology = ShardTopology(two_relation_db(), shards=2)
        a = reg(topology, "a1", ["A"]).shard
        b = reg(topology, "b1", ["B"]).shard
        actions = topology.issue(Transaction({"A": [(1, "x")]}, tx_id="TA"))
        by_shard = {action.shard: action for action in actions}
        assert not by_shard[a].skipped and by_shard[a].op is not None
        assert by_shard[b].skipped and by_shard[b].op is None
        assert len(topology.slots[b].skipped) == 1
        # A spanning co-write couples both shards and drains the backlog.
        actions = topology.issue(
            Transaction({"A": [(2, "s")], "B": [(2, "s")]}, tx_id="SPAN")
        )
        by_shard = {action.shard: action for action in actions}
        assert [op.payload.tx_id for op in by_shard[b].drained] == ["TA"]
        assert topology.slots[b].skipped == []
        assert topology.slots[b].flushes == 1

    def test_overflow_flush_carries_the_routed_op(self):
        topology = ShardTopology(two_relation_db(), shards=1, max_skipped=2)
        reg(topology, "a1", ["A"])
        drained_ids = []
        for i in range(4):
            actions = topology.issue(
                Transaction({"B": [(i, "x")]}, tx_id=f"TB{i}")
            )
            assert actions[0].skipped
            drained_ids.extend(op.payload.tx_id for op in actions[0].drained)
        # The third issue overflowed a backlog of two: all three drained,
        # the just-routed op included, in original global order.
        assert drained_ids == ["TB0", "TB1", "TB2"]
        assert len(topology.slots[0].skipped) == 1  # TB3 backlogged anew

    def test_touched_mirrors_shard_local_pending(self):
        # Shard 1 (battery B) never applied TA, so a commit of TB on it
        # must not reach relation A through the global pending set.
        topology = ShardTopology(two_relation_db(), shards=2)
        a = reg(topology, "a1", ["A"]).shard
        b = reg(topology, "b1", ["B"]).shard
        topology.issue(Transaction({"A": [(1, "x")]}, tx_id="TA"))
        actions = topology.issue(Transaction({"B": [(1, "x")]}, tx_id="TB"))
        op = {action.shard: action for action in actions}[b].op
        assert op.touched == {"B"}
        assert topology.slots[b].pending == {"TB": frozenset({"B"})}
        assert topology.slots[a].pending == {"TA": frozenset({"A"})}

    def test_front_validates_before_routing(self):
        topology = ShardTopology(two_relation_db(), shards=2)
        reg(topology, "a1", ["A"])
        topology.issue(Transaction({"A": [(1, "x")]}, tx_id="T1"))
        with pytest.raises(ReproError):
            topology.issue(Transaction({"A": [(2, "y")]}, tx_id="T1"))
        with pytest.raises(ReproError):
            topology.commit("nope")
        with pytest.raises(ReproError):
            topology.absorb(Transaction({"Zzz": [(1,)]}, tx_id="X"))
        assert topology.pending_count() == 1
        assert topology.epoch == 1  # failed ops left no epoch bump


class TestRebalance:
    def test_coupling_groups_union_ind_closures(self):
        topology = ShardTopology(parent_child_db(), shards=2)
        reg(topology, "p", ["Parent"])
        reg(topology, "c", ["Child"])
        reg(topology, "d", ["D"])
        groups = {frozenset(group) for group in topology.coupling_groups()}
        assert groups == {frozenset({"p", "c"}), frozenset({"d"})}

    def test_rebalance_moves_heavy_groups_off_shared_shards(self):
        topology = ShardTopology(two_relation_db(), shards=2)
        # Both constraints land on shard 0: register the B constraint
        # while shard 0 is the only one with any footprint overlap.
        reg(topology, "a1", ["A"])
        reg(topology, "b1", ["B"])
        reg(topology, "a2", ["A"])
        # a2 co-located with a1; now force b1 onto their shard.
        source = topology.slot_of("b1")
        target = topology.slot_of("a1")
        topology.migrate("b1", target)
        assert topology.slot_of("b1") == target
        assert topology.slots[source].names == []
        # The A group is heavier: rebalance should send b1 back out.
        plans = topology.rebalance(costs={"a1": 10.0, "a2": 10.0, "b1": 1.0})
        moves = {(plan.name, plan.source, plan.target) for plan in plans}
        assert moves == {("b1", target, source)}

    def test_migrate_drains_target_backlog(self):
        topology = ShardTopology(two_relation_db(), shards=2)
        reg(topology, "a1", ["A"])
        reg(topology, "b1", ["B"])
        b_shard = topology.slot_of("b1")
        topology.issue(Transaction({"A": [(1, "x")]}, tx_id="TA"))
        assert len(topology.slots[b_shard].skipped) == 1
        plan = topology.migrate("a1", b_shard)
        assert [op.payload.tx_id for op in plan.drained] == ["TA"]
        assert topology.slot_of("a1") == b_shard
        assert "A" in topology.slots[b_shard].footprint

    def test_migrate_to_same_shard_is_a_noop(self):
        topology = ShardTopology(two_relation_db(), shards=2)
        reg(topology, "a1", ["A"])
        home = topology.slot_of("a1")
        plan = topology.migrate("a1", home)
        assert plan.drained == [] and plan.source == plan.target == home

    def test_migrate_rejects_unknown_shard(self):
        topology = ShardTopology(two_relation_db(), shards=2)
        reg(topology, "a1", ["A"])
        with pytest.raises(ReproError):
            topology.migrate("a1", 7)
