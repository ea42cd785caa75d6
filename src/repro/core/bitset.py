"""Dense transaction interning and machine-word clique sweeps.

The ``2^K`` maximal-clique sweep dominates DCSat cost (Figures 4–5),
and the set-based machinery spends it manipulating Python sets of
transaction-id strings: every Bron–Kerbosch frame allocates new sets,
every membership test hashes a string.  This module re-expresses the
structures the sweep touches as integer bitmasks over *interned*
transactions:

* :class:`TxInterner` maps pending transaction ids to dense integer
  slots, stable across steady-state add/remove with lowest-slot reuse,
  so masks stay as narrow as the peak concurrent population;
* :class:`BitsetFdGraph` is :class:`~repro.core.fd_graph.FdTransactionGraph`
  with the conflict *complement* maintained incrementally as per-slot
  masks — free/contested classification, pool restriction and the
  ind-component ∩ nodes intersection become single AND/OR sweeps;
* :func:`mask_bron_kerbosch` runs Bron–Kerbosch with Tomita pivoting as
  shift/and/or loops over pure-Python ``int`` masks, with an optional
  numpy fast path for the pivot's popcount scan on wide graphs.

Parity is the design constraint, not an afterthought: the mask sweep
mirrors the canonical ordering of
:func:`repro.graphs.cliques.bron_kerbosch` frame for frame (ascending
candidate order, lowest-rank pivot tie-break), so
:class:`BitsetFdGraph.maximal_cliques` emits the *identical* clique
sequence and the evaluation plans consumed by the engines
(:mod:`repro.core.engine`) are byte-identical — same frozenset worlds,
same order, same :class:`~repro.core.results.DCSatStats`.  The
engine×backend parity suite pins this.

Select the planner per checker (``DCSatChecker(planner="bitset")``),
per CLI invocation (``repro check --planner bitset``) or process-wide
via ``REPRO_BITSET=1``.
"""

from __future__ import annotations

import os
from heapq import heappop, heappush
from typing import Callable, Iterable, Iterator, Sequence

from repro.core.fd_graph import FdTransactionGraph
from repro.core.workspace import Workspace
from repro.errors import AlgorithmError

try:  # optional: the pivot scan's vectorized popcount path
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is baked into CI images
    _np = None

#: Contested-node count from which the numpy pivot path pays for its
#: int → array conversions.  Below it, pure ``int.bit_count`` loops win.
NUMPY_MIN_NODES = 64


class TxInterner:
    """Dense integer slots for pending transaction ids.

    A slot is stable for as long as its transaction stays interned;
    released slots are reused lowest-first, so a long-running monitor
    under mempool churn keeps mask width bounded by the *peak*
    concurrent population instead of growing with total traffic.
    """

    __slots__ = ("_slot_of", "_id_of", "_free")

    def __init__(self) -> None:
        self._slot_of: dict[str, int] = {}
        self._id_of: list[str | None] = []
        self._free: list[int] = []  # min-heap of released slots

    def __len__(self) -> int:
        return len(self._slot_of)

    def __contains__(self, tx_id: str) -> bool:
        return tx_id in self._slot_of

    @property
    def capacity(self) -> int:
        """Mask width in bits: the highest slot count ever live at once."""
        return len(self._id_of)

    def intern(self, tx_id: str) -> int:
        """The slot of *tx_id*, assigning (or reusing) one if needed."""
        slot = self._slot_of.get(tx_id)
        if slot is not None:
            return slot
        if self._free:
            slot = heappop(self._free)
            self._id_of[slot] = tx_id
        else:
            slot = len(self._id_of)
            self._id_of.append(tx_id)
        self._slot_of[tx_id] = slot
        return slot

    def release(self, tx_id: str) -> int | None:
        """Free the slot of *tx_id* for reuse; ``None`` if not interned."""
        slot = self._slot_of.pop(tx_id, None)
        if slot is None:
            return None
        self._id_of[slot] = None
        heappush(self._free, slot)
        return slot

    def slot(self, tx_id: str) -> int:
        """The slot of an interned transaction (``KeyError`` otherwise)."""
        return self._slot_of[tx_id]

    def get(self, tx_id: str) -> int | None:
        return self._slot_of.get(tx_id)

    def id_of(self, slot: int) -> str:
        tx_id = self._id_of[slot]
        if tx_id is None:
            raise KeyError(f"slot {slot} is not live")
        return tx_id

    def mask_of(self, ids: Iterable[str]) -> int:
        """The bitmask selecting the interned transactions of *ids*
        (unknown ids are ignored — they are not appendable nodes)."""
        mask = 0
        get = self._slot_of.get
        for tx_id in ids:
            slot = get(tx_id)
            if slot is not None:
                mask |= 1 << slot
        return mask

    def ids_of(self, mask: int) -> list[str]:
        """The transaction ids selected by *mask*, in slot order."""
        out: list[str] = []
        while mask:
            low = mask & -mask
            out.append(self.id_of(low.bit_length() - 1))
            mask ^= low
        return out

    def __repr__(self) -> str:
        return (
            f"TxInterner({len(self._slot_of)} live, "
            f"capacity={self.capacity})"
        )


# ----------------------------------------------------------------------
# Mask-level Bron–Kerbosch (Tomita pivoting)

#: ``choose_pivot(adjacency, p, x) -> index`` — must return the first
#: index (ascending) among ``p | x`` maximizing ``|adjacency[i] & p|``.
PivotChooser = Callable[[Sequence[int], int, int], int]


def python_pivot(adjacency: Sequence[int], p: int, x: int) -> int:
    """Pure-``int`` Tomita pivot: first maximiser in ascending order."""
    best = -1
    best_score = -1
    scan = p | x
    while scan:
        low = scan & -scan
        index = low.bit_length() - 1
        score = (adjacency[index] & p).bit_count()
        if score > best_score:
            best, best_score = index, score
        scan ^= low
    return best


_POPCOUNT16 = None


def _popcount16_table():
    """A 64K-entry uint8 popcount table for 16-bit lanes (lazy, cached)."""
    global _POPCOUNT16
    if _POPCOUNT16 is None:
        lanes = _np.arange(1 << 16, dtype=_np.uint32)
        lanes = lanes - ((lanes >> 1) & 0x5555)
        lanes = (lanes & 0x3333) + ((lanes >> 2) & 0x3333)
        lanes = (lanes + (lanes >> 4)) & 0x0F0F
        _POPCOUNT16 = ((lanes + (lanes >> 8)) & 0x1F).astype(_np.uint8)
    return _POPCOUNT16


class NumpyPivot:
    """Vectorized Tomita pivot over an adjacency-mask matrix.

    Packs every node's neighbour mask into little-endian uint64 words
    once per sweep; each pivot selection is then one broadcast AND, a
    table-driven popcount and an ``argmax`` (ties resolve to the first
    index — the same lowest-rank tie-break as :func:`python_pivot`).
    """

    __slots__ = ("_rows", "_nbytes", "_n", "_table")

    def __init__(self, adjacency: Sequence[int]):
        n = len(adjacency)
        words = max(1, (n + 63) // 64)
        self._nbytes = words * 8
        buffer = b"".join(
            mask.to_bytes(self._nbytes, "little") for mask in adjacency
        )
        self._rows = _np.frombuffer(buffer, dtype="<u8").reshape(n, words)
        self._n = n
        self._table = _popcount16_table()

    def __call__(self, adjacency: Sequence[int], p: int, x: int) -> int:
        p_words = _np.frombuffer(
            p.to_bytes(self._nbytes, "little"), dtype="<u8"
        )
        overlap = self._rows & p_words
        counts = self._table[overlap.view("<u2")].sum(
            axis=1, dtype=_np.int64
        )
        members = _np.unpackbits(
            _np.frombuffer((p | x).to_bytes(self._nbytes, "little"), _np.uint8),
            bitorder="little",
        )[: self._n]
        counts[members == 0] = -1
        return int(counts.argmax())


def numpy_pivot_enabled() -> bool:
    """numpy importable and not disabled via ``REPRO_BITSET_NUMPY=0``."""
    if _np is None:
        return False
    flag = os.environ.get("REPRO_BITSET_NUMPY", "").strip().lower()
    return flag not in ("0", "false", "no", "off")


def make_pivot_chooser(adjacency: Sequence[int]) -> PivotChooser:
    """The fastest applicable pivot chooser for this adjacency."""
    if len(adjacency) >= NUMPY_MIN_NODES and numpy_pivot_enabled():
        return NumpyPivot(adjacency)
    return python_pivot


def mask_bron_kerbosch(
    adjacency: Sequence[int],
    pool: int,
    pivot: bool = True,
    choose_pivot: PivotChooser | None = None,
) -> Iterator[int]:
    """Yield every maximal clique of the mask graph as a bitmask.

    Node ``i`` has neighbour mask ``adjacency[i]`` (no self-bit); the
    search is restricted to the nodes of *pool*.  Mirrors
    :func:`repro.graphs.cliques.bron_kerbosch` frame for frame — the
    same Tomita pivot with first-maximiser (lowest-index) tie-break,
    the same ascending candidate order — so when node ``i`` is the
    ``i``-th node in canonical order the emitted clique sequence is
    identical, bit for bit.
    """
    if not pool:
        return
    if choose_pivot is None:
        choose_pivot = make_pivot_chooser(adjacency)
    inline_pivot = pivot and choose_pivot is python_pivot

    def candidates(p: int, x: int) -> int:
        if not p:
            return 0
        if not pivot:
            return p
        if inline_pivot:
            # python_pivot, inlined: the call-per-frame overhead is
            # measurable on million-frame sweeps.
            best_adjacency = 0
            best_score = -1
            scan = p | x
            while scan:
                low = scan & -scan
                neighbours = adjacency[low.bit_length() - 1]
                score = (neighbours & p).bit_count()
                if score > best_score:
                    best_adjacency, best_score = neighbours, score
                scan ^= low
            return p & ~best_adjacency
        return p & ~adjacency[choose_pivot(adjacency, p, x)]

    # Frames mutate in place: [R, P, X, candidate mask].
    stack: list[list[int]] = [[0, pool, 0, candidates(pool, 0)]]
    while stack:
        frame = stack[-1]
        p, x, cand = frame[1], frame[2], frame[3]
        if not p and not x:
            yield frame[0]
            stack.pop()
            continue
        if not cand:
            stack.pop()
            continue
        v = cand & -cand  # lowest set bit: ascending canonical order
        frame[3] = cand ^ v
        p = frame[1] = p & ~v
        x = frame[2] = x | v
        nv = adjacency[v.bit_length() - 1]
        child_p = p & nv
        child_x = x & nv
        stack.append([frame[0] | v, child_p, child_x, candidates(child_p, child_x)])


# ----------------------------------------------------------------------
# The bitset fd-transaction graph

class BitsetFdGraph(FdTransactionGraph):
    """``G^fd_T`` with interned nodes and machine-word conflict masks.

    Maintains everything the base class maintains (the conflict-pair
    index, the group index, ``never_appendable``) *plus* a per-slot
    conflict mask and a live-nodes mask, advanced incrementally by the
    same ``add_transaction`` / ``remove_transaction`` /
    ``refresh_after_commit`` steady-state hooks.  Clique enumeration
    — the ``2^K`` hot path — then runs entirely over ``int`` masks.
    """

    def __init__(self, workspace: Workspace):
        self.interner = TxInterner()
        self._conflict_masks: list[int] = []
        self._nodes_mask = 0
        # The base class's sweep cache is keyed by pool mask here: pool
        # mask -> (free frozenset, contested names in canonical order,
        # local adjacency masks, byte-decode table).
        super().__init__(workspace)

    # -- maintenance ----------------------------------------------------

    def _build(self) -> None:
        self.interner = TxInterner()
        self._conflict_masks = []
        self._nodes_mask = 0
        super()._build()

    def _add_node(self, tx_id: str) -> None:
        super()._add_node(tx_id)
        if tx_id not in self.nodes:
            return  # never-appendable: no slot, no universe change
        slot = self.interner.intern(tx_id)
        while len(self._conflict_masks) <= slot:
            self._conflict_masks.append(0)
        bit = 1 << slot
        self._nodes_mask |= bit
        mask = 0
        slot_of = self.interner.slot
        for other in self.conflicts[tx_id]:
            other_slot = slot_of(other)
            mask |= 1 << other_slot
            self._conflict_masks[other_slot] |= bit
        self._conflict_masks[slot] = mask

    def remove_transaction(self, tx_id: str) -> None:
        slot = self.interner.get(tx_id)
        super().remove_transaction(tx_id)
        if slot is None:
            return
        bit = 1 << slot
        self._nodes_mask &= ~bit
        mask = self._conflict_masks[slot]
        while mask:
            low = mask & -mask
            self._conflict_masks[low.bit_length() - 1] &= ~bit
            mask ^= low
        self._conflict_masks[slot] = 0
        self.interner.release(tx_id)

    # -- mask queries ---------------------------------------------------

    @property
    def nodes_mask(self) -> int:
        """The live appendable transactions, as a bitmask."""
        return self._nodes_mask

    def conflict_mask(self, tx_id: str) -> int:
        """The conflict (complement-edge) mask of an appendable tx."""
        return self._conflict_masks[self.interner.slot(tx_id)]

    def mask_of(self, ids: Iterable[str]) -> int:
        """``ids ∩ nodes`` as a bitmask (non-nodes drop out)."""
        return self.interner.mask_of(ids) & self._nodes_mask

    def restrict_appendable(self, ids: Iterable[str]) -> set[str]:
        """``ids ∩ nodes`` — the ind-component pruning intersection of
        OptDCSat, answered through the interner's masks."""
        return set(self.interner.ids_of(self.mask_of(ids)))

    # -- the sweep ------------------------------------------------------

    def maximal_cliques(
        self, restrict: Iterable[str] | None = None, pivot: bool = True
    ) -> Iterator[frozenset[str]]:
        """Identical stream to the set-based sweep, computed on masks.

        Free/contested classification is one AND per pool member;
        Bron–Kerbosch runs over a *local* mask universe holding only
        the contested nodes, ranked canonically (sorted tx id) so the
        emitted clique sequence matches the base class bit for bit.
        """
        if restrict is None:
            pool_mask = self._nodes_mask
        else:
            pool_mask = self.interner.mask_of(restrict) & self._nodes_mask
        free, names, adjacency, decode = self._sweep_universe(
            pool_mask, self._build_sweep_universe
        )
        if not names:
            yield free
            return
        full = (1 << len(names)) - 1
        base = tuple(free)
        # Clique mask -> frozenset of ids, one byte (8 members max) per
        # Python-level step via the universe's precomputed decode table.
        for clique in mask_bron_kerbosch(adjacency, full, pivot=pivot):
            members = base
            # Jump straight to the first populated byte (cliques from a
            # narrow corner of a wide universe skip the dead low words).
            position = ((clique & -clique).bit_length() - 1) >> 3
            clique >>= position << 3
            while clique:
                byte = clique & 0xFF
                if byte:
                    members += decode[position][byte]
                clique >>= 8
                position += 1
            yield frozenset(members)

    def _build_sweep_universe(
        self, pool_mask: int
    ) -> tuple[frozenset[str], list[str], list[int], list[list[tuple]]]:
        """Free set + local dense universe of the contested nodes, in
        canonical (sorted-id) rank — the parity anchor with the set
        planner.  Adjacency is built from the sparse conflict sets, so
        the cost is O(contested + conflict pairs), not O(mask width²).
        """
        free_mask = 0
        contested_slots: list[int] = []
        scan = pool_mask
        while scan:
            low = scan & -scan
            slot = low.bit_length() - 1
            if self._conflict_masks[slot] & pool_mask:
                contested_slots.append(slot)
            else:
                free_mask |= low
            scan ^= low
        free = frozenset(self.interner.ids_of(free_mask))
        if not contested_slots:
            return free, [], [], []
        names = sorted(self.interner.id_of(slot) for slot in contested_slots)
        local = {name: index for index, name in enumerate(names)}
        count = len(names)
        full = (1 << count) - 1
        adjacency = [0] * count
        get_local = local.get
        for index, name in enumerate(names):
            conflict_local = 1 << index  # no self loops
            for other in self.conflicts[name]:
                other_index = get_local(other)
                if other_index is not None:
                    conflict_local |= 1 << other_index
            adjacency[index] = full & ~conflict_local
        # byte position -> byte value -> names tuple: decodes clique
        # masks eight members at a time.
        decode: list[list[tuple]] = []
        for position in range((count + 7) // 8):
            offset = position * 8
            width = min(8, count - offset)
            decode.append(
                [
                    tuple(
                        names[offset + bit]
                        for bit in range(width)
                        if value >> bit & 1
                    )
                    for value in range(1 << width)
                ]
            )
        return free, names, adjacency, decode

    def verify_masks(self) -> None:
        """Cross-check masks against the set-based conflict index (tests)."""
        assert set(self.interner.ids_of(self._nodes_mask)) == self.nodes
        for tx_id in self.nodes:
            expected = self.interner.mask_of(self.conflicts[tx_id])
            actual = self.conflict_mask(tx_id)
            if expected != actual:
                raise AssertionError(
                    f"conflict-mask mismatch for {tx_id}: "
                    f"sets={expected:b} mask={actual:b}"
                )

    def __repr__(self) -> str:
        return (
            f"BitsetFdGraph({len(self.nodes)} nodes, "
            f"{self.conflict_count()} conflicts, "
            f"{len(self.never_appendable)} never-appendable, "
            f"width={self.interner.capacity})"
        )


# ----------------------------------------------------------------------
# Planner selection

class Planner:
    """An enumeration-side strategy: which fd-graph implementation
    produces the evaluation plans the engines sweep."""

    name: str = ""
    graph_class: type[FdTransactionGraph] = FdTransactionGraph

    def fd_graph(self, workspace: Workspace) -> FdTransactionGraph:
        return self.graph_class(workspace)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SetPlanner(Planner):
    """The classical planner: Python sets of transaction-id strings."""

    name = "set"
    graph_class = FdTransactionGraph


class BitsetPlanner(Planner):
    """Interned transactions, machine-word clique sweeps — byte-identical
    plans to :class:`SetPlanner` (same worlds, same order, same stats)."""

    name = "bitset"
    graph_class = BitsetFdGraph


PLANNERS = ("set", "bitset")

_PLANNER_CLASSES: dict[str, type[Planner]] = {
    "set": SetPlanner,
    "bitset": BitsetPlanner,
}

#: Truthy / falsy spellings accepted by the ``REPRO_BITSET`` toggle.
_TRUE_FLAGS = ("1", "true", "yes", "on", "bitset")
_FALSE_FLAGS = ("", "0", "false", "no", "off", "set")


def resolve_planner_name(planner: str | None) -> str:
    """An explicit planner name, or the ``REPRO_BITSET`` env default.

    Validates eagerly — a typo fails at checker construction with the
    valid choices named, not deep inside a sweep (or on a worker).
    """
    if planner is None:
        raw = os.environ.get("REPRO_BITSET", "")
        flag = raw.strip().lower()
        if flag in _FALSE_FLAGS:
            return "set"
        if flag in _TRUE_FLAGS:
            return "bitset"
        raise AlgorithmError(
            f"unknown REPRO_BITSET value {raw!r}; expected a boolean "
            f"flag or one of {PLANNERS}"
        )
    if planner not in PLANNERS:
        raise AlgorithmError(
            f"unknown planner {planner!r}; expected one of {PLANNERS}"
        )
    return planner


def make_planner(planner: str | None) -> Planner:
    """Build a :class:`Planner` by name (``None`` → ``REPRO_BITSET``)."""
    return _PLANNER_CLASSES[resolve_planner_name(planner)]()


def make_fd_graph(
    planner: str | None, workspace: Workspace
) -> FdTransactionGraph:
    """The fd-transaction graph of the selected planner over *workspace*."""
    return make_planner(planner).fd_graph(workspace)
