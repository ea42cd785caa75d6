"""The paper's core: blockchain databases and denial-constraint satisfaction.

* :class:`BlockchainDatabase` — the triple ``D = (R, I, T)`` of Section 4.
* :mod:`~repro.core.possible_worlds` — the can-append relation, possible
  world recognition (Proposition 1) and enumeration, ``getMaximal``.
* :mod:`~repro.core.ind_support` — the workspace's IND-support index,
  which builds the maximal world of an fd-clique without ``can_extend``.
* :mod:`~repro.core.fd_graph` / :mod:`~repro.core.ind_graph` — the
  precomputed graphs of Section 6 (Figure 3).
* :mod:`~repro.core.naive` / :mod:`~repro.core.opt` — NaiveDCSat
  (Figure 4) and OptDCSat (Figure 5).
* :class:`DCSatChecker` — the steady-state engine of Section 6.3 tying
  everything together, with the ``q(R ∪ T)`` short-circuit.
* :mod:`~repro.core.tractable` — the PTIME special cases of Theorems 1–2.
* :mod:`~repro.core.contradiction` — deriving conflicting transactions
  (the paper's future-work item).
"""

from repro.core.advisor import Advice, IssuanceAdvisor
from repro.core.blockchain_db import BlockchainDatabase
from repro.core.checker import DCSatChecker, DCSatResult, DCSatStats
from repro.core.explain import Explanation, explain_violation
from repro.core.monitor import ConstraintMonitor
from repro.core.possible_worlds import (
    enumerate_possible_worlds,
    get_maximal,
    is_possible_world,
    world_database,
)

__all__ = [
    "Advice",
    "IssuanceAdvisor",
    "BlockchainDatabase",
    "DCSatChecker",
    "DCSatResult",
    "DCSatStats",
    "ConstraintMonitor",
    "Explanation",
    "explain_violation",
    "enumerate_possible_worlds",
    "is_possible_world",
    "world_database",
    "get_maximal",
]
