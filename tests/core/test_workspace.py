"""The overlay workspace: world cursor, dedup, steady-state maintenance."""

import pytest

from repro.core.blockchain_db import BlockchainDatabase
from repro.core.workspace import Workspace
from repro.errors import ReproError
from repro.relational.constraints import ConstraintSet, Key
from repro.relational.database import Database, make_schema
from repro.relational.transaction import Transaction


@pytest.fixture
def ws() -> Workspace:
    schema = make_schema({"R": ["a", "b"]})
    constraints = ConstraintSet(schema, [Key("R", ["a"], schema)])
    current = Database.from_dict(schema, {"R": [(1, "base")]})
    db = BlockchainDatabase(
        current,
        constraints,
        [
            Transaction({"R": [(2, "t1")]}, tx_id="T1"),
            Transaction({"R": [(3, "t2"), (1, "base")]}, tx_id="T2"),
            Transaction({"R": [(2, "t3")]}, tx_id="T3"),
        ],
    )
    return Workspace(db)


class TestWorldCursor:
    def test_inactive_pending_invisible(self, ws):
        assert set(ws.iter_tuples("R")) == {(1, "base")}
        assert not ws.has_fact("R", (2, "t1"))

    def test_activation(self, ws):
        ws.set_active({"T1"})
        assert set(ws.iter_tuples("R")) == {(1, "base"), (2, "t1")}
        assert ws.has_fact("R", (2, "t1"))
        assert not ws.has_fact("R", (3, "t2"))

    def test_unknown_active_id_rejected(self, ws):
        with pytest.raises(ReproError):
            ws.set_active({"nope"})

    def test_base_duplicate_deduplicated(self, ws):
        # T2 re-inserts the base fact (1, 'base'): must not double-count.
        ws.set_active({"T2"})
        tuples = list(ws.iter_tuples("R"))
        assert tuples.count((1, "base")) == 1
        assert set(tuples) == {(1, "base"), (3, "t2")}

    def test_lookup_respects_active_set(self, ws):
        assert set(ws.lookup("R", (0,), (2,))) == set()
        ws.set_active({"T1"})
        assert set(ws.lookup("R", (0,), (2,))) == {(2, "t1")}
        ws.set_active({"T1", "T3"})
        assert set(ws.lookup("R", (0,), (2,))) == {(2, "t1"), (2, "t3")}

    def test_has_projection(self, ws):
        assert ws.has_projection("R", (0,), (1,))
        assert not ws.has_projection("R", (0,), (3,))
        ws.set_active({"T2"})
        assert ws.has_projection("R", (0,), (3,))

    def test_activate_and_clear(self, ws):
        ws.activate("T1")
        ws.activate("T3")
        assert ws.active == {"T1", "T3"}
        ws.clear_active()
        assert ws.active == frozenset()
        ws.activate_all()
        assert ws.active == {"T1", "T2", "T3"}


class TestProviders:
    def test_providers_of(self, ws):
        assert ws.providers_of("R", (2, "t1")) == {"T1"}
        assert ws.providers_of("R", (1, "base")) == {"T2"}
        assert ws.providers_of("R", (9, "zz")) == frozenset()

    def test_pending_projections(self, ws):
        projections = ws.pending_projections("R", (0,))
        assert projections[(2,)] == {"T1", "T3"}
        assert projections[(3,)] == {"T2"}

    def test_projection_cache_updated_on_issue(self, ws):
        ws.pending_projections("R", (0,))  # build cache
        ws.issue(Transaction({"R": [(2, "t4")]}, tx_id="T4"))
        assert ws.pending_projections("R", (0,))[(2,)] == {"T1", "T3", "T4"}

    def test_lookup_cache_updated_on_issue(self, ws):
        ws.set_active(set())
        list(ws.lookup("R", (0,), (2,)))  # build cache
        ws.issue(Transaction({"R": [(2, "t4")]}, tx_id="T4"))
        ws.set_active({"T4"})
        assert set(ws.lookup("R", (0,), (2,))) == {(2, "t4")}


class TestSteadyState:
    def test_commit_moves_facts_to_base(self, ws):
        ws.commit("T1")
        assert (2, "t1") in ws.base["R"]
        assert ws.providers_of("R", (2, "t1")) == frozenset()
        assert "T1" not in ws.db.pending_ids
        # Committed facts visible with empty active set.
        assert ws.has_fact("R", (2, "t1"))

    def test_commit_clears_active_membership(self, ws):
        ws.set_active({"T1"})
        ws.commit("T1")
        assert ws.active == frozenset()

    def test_forget_drops_without_committing(self, ws):
        ws.forget("T1")
        assert (2, "t1") not in ws.base["R"]
        assert "T1" not in ws.db.pending_ids

    def test_post_commit_dedup(self, ws):
        # T1 commits (2, 't1'); T3's (2, 't3') conflicts on the key but
        # remains pending: its tuple is distinct and still overlayable.
        ws.commit("T1")
        ws.set_active({"T3"})
        assert set(ws.lookup("R", (0,), (2,))) == {(2, "t1"), (2, "t3")}

    def test_absorb_inserts_into_base(self, ws):
        ws.absorb(Transaction({"R": [(9, "mined")]}, tx_id="X"))
        assert (9, "mined") in ws.base["R"]
        assert "X" not in ws.db.pending_ids

    def test_every_state_change_bumps_the_version(self, ws):
        versions = [ws.version]
        ws.issue(Transaction({"R": [(4, "t4")]}, tx_id="T4"))
        versions.append(ws.version)
        ws.commit("T1")
        versions.append(ws.version)
        ws.forget("T3")
        versions.append(ws.version)
        ws.absorb(Transaction({"R": [(9, "mined")]}, tx_id="X"))
        versions.append(ws.version)
        ws.set_active({"T2"})
        assert ws.version == versions[-1]
        assert versions == sorted(set(versions))

    def test_counts(self, ws):
        assert ws.count_tuples("R") >= 4  # base + pending upper bound
        assert ws.pending_tuple_count() == 4
