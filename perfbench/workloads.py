"""Seeded inputs for the service benchmark.

Each workload is a serialized blockchain database plus an op trace:
the requests a single client sends to ``repro serve``, each with the
verdict the generator expects.  Inputs depend on nothing but the
workload name and the seed, and are written once per seed under the
cache directory, outside every timed region — the server only ever
sees the files.

* ``churn`` — the mempool-churn world of ``benchmarks/test_churn.py``:
  a 32-member fee-bump conflict clique, ~150 pending payments around it
  and 6 standing double-spend constraints.  Each event is one write
  followed by one ``status`` per constraint.
* ``paper_queries`` — the paper's default dataset (D200-S) and its
  four Section 7 query families, constants mined by
  :class:`~repro.workloads.constants.ConstantPicker` so every check needs
  pending transactions.  Each cycle is register → status → unregister.
* ``mempool_flood`` — the churn world grown to ~1,500 pending payments
  with 16 standing constraints; a write-heavy stream replayed on an
  open loop at a fixed rate.

Writes come in shuffled blocks of ten with as many departures (mined
commits plus evictions) as arrivals, so the pending set stays level
for the whole trace: a time-bounded run measures the same state
however far it gets.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

WORKLOADS = ("churn", "paper_queries", "mempool_flood")

#: Bumped whenever the generated inputs change shape or content, so a
#: stale cache is never reused.
FORMAT = 2

#: Fee bumps of one payment: every pair conflicts on the same outpoint.
CLIQUE = 32

#: Offered rate of ``mempool_flood`` (requests per second): about a third
#: of the closed-loop capacity at ~1,500 pending on a 2-vCPU host.  At
#: half capacity the server is busy half the time, so about half the
#: writes wait in the queue and write p50 sits on the boundary between
#: waited and not waited.
FLOOD_RATE = 40.0

#: Longest run a trace must cover (the benchmark contract caps a run at
#: 60 seconds); closed loops get headroom for a much faster server.
MAX_SECONDS = 60

CHURN = {"constraints": 6, "warm": 118, "events": 10000}
FLOOD = {"constraints": 16, "warm": 1500, "writes_per_status": 5}

#: ``paper_queries`` family weights.  The status latencies of the four
#: families form separate clusters (q_s ~3 ms, q_r3 ~30, q_a ~35, q_p3
#: ~60 through the pool, a sixth of its checks ~20).  Below q_a lie q_s,
#: q_r3 and q_p3's fast checks (~10 % of statuses), above it q_p3's slow
#: checks (~11 %): p50 is the median of q_a and p95 the median of q_p3's
#: slow checks, each in the middle of one family.  Of all family
#: statistics the per-family medians moved least with the host.
PAPER_WEIGHTS = {"qs": 1, "qr3": 1, "qa": 19, "qp3": 3}

#: Block of write kinds replayed (shuffled) on churn and flood: as many
#: departures as arrivals keeps the pending set level.
WRITE_BLOCK = ("arrival",) * 5 + ("mined",) + ("eviction",) * 4


def double_spend_query(tx1: str, tx2: str) -> str:
    """Both replacements in one possible world: the shared outpoint and
    the ``TxIn`` key make it impossible, so the constraint is satisfied
    — a verdict only a full sweep of the clique's component proves."""
    return (
        f"q() <- TxIn(p, s, k, a, '{tx1}', g1), "
        f"TxIn(p, s, k, a, '{tx2}', g2)"
    )


def ensure_inputs(root: Path, workload: str, seed: int) -> Path:
    """The directory holding ``db.json`` and ``trace.json`` for this
    workload and seed, generating them on first use."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; options: {WORKLOADS}")
    directory = root / ".cache" / f"{workload}-{seed}-v{FORMAT}"
    if (directory / "trace.json").is_file():
        return directory
    directory.mkdir(parents=True, exist_ok=True)
    db, trace = GENERATORS[workload](seed)
    from repro import serialize

    _atomic_write(directory / "db.json", serialize.dumps(db))
    # trace.json is written last: its presence marks a complete cache.
    _atomic_write(directory / "trace.json", json.dumps(trace, sort_keys=True))
    return directory


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + f".{os.getpid()}.tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# The mempool worlds (churn, mempool_flood)


def _mempool_world(seed: int, ordinary_count: int):
    """A genesis-funded chain, the contested-outpoint clique and
    *ordinary_count* independent single-input payments."""
    from repro.bitcoin.chain import Blockchain
    from repro.bitcoin.keys import KeyPair
    from repro.bitcoin.script import P2PKScript
    from repro.bitcoin.transactions import COIN, TxOutput
    from repro.bitcoin.wallet import Wallet

    contester = Wallet(KeyPair.generate(f"{seed}:contester"), name="contester")
    payers = [
        Wallet(KeyPair.generate(f"{seed}:payer:{i}"), name=f"payer{i}")
        for i in range(ordinary_count)
    ]
    sink = KeyPair.generate(f"{seed}:sink").public_key
    chain = Blockchain(difficulty=0)
    share = (48 * COIN) // ordinary_count
    outputs = [TxOutput(2 * COIN, P2PKScript(contester.public_key))]
    outputs += [TxOutput(share, P2PKScript(w.public_key)) for w in payers]
    chain.append_genesis(outputs)
    original = contester.create_payment(chain.utxos, sink, 1_000, 10)
    clique = [original] + [
        contester.bump_fee(chain.utxos, original, extra)
        for extra in range(1, CLIQUE)
    ]
    rng = random.Random(seed)
    ordinary = [
        payer.create_payment(
            chain.utxos, sink, rng.randint(1_000, 50_000), rng.randint(1, 50)
        )
        for payer in payers
    ]
    return chain, clique, ordinary


def _churn_kinds(rng: random.Random):
    """Shuffled blocks of :data:`WRITE_BLOCK`, forever."""
    while True:
        block = list(WRITE_BLOCK)
        rng.shuffle(block)
        yield from block


def _flood_kinds(rng: random.Random):
    """Groups of ``writes_per_status`` writes, ten groups per round.

    A mined commit that is the first write after a constraint's
    ``status`` clears that constraint's ledger entries, so its next
    ``status`` re-sweeps the clique.  Exactly one group per round leads
    with a commit: 10 % of statuses re-sweep on every seed, which keeps
    status p95 in the middle of the re-sweep class instead of on the
    boundary a random share would move it across.
    """
    per, groups = FLOOD["writes_per_status"], 10
    while True:
        rest = list(WRITE_BLOCK) * (per * groups // len(WRITE_BLOCK))
        rest.remove("mined")
        rng.shuffle(rest)
        leaders = [kind for kind in rest if kind != "mined"][: groups - 1]
        for kind in leaders:
            rest.remove(kind)
        leaders.append("mined")
        rng.shuffle(leaders)
        for leader in leaders:
            yield leader
            for _ in range(per - 1):
                yield rest.pop()


class _WriteStream:
    """Seeded writes over the mempool world: departures drawn from the
    unprotected pending set, arrivals from fresh payments in order."""

    def __init__(self, rng: random.Random, kinds, pending: list[str], arrivals, resolve):
        self._rng = rng
        self._kinds = kinds
        self._pending = list(pending)
        self._arrivals = iter(arrivals)
        self._resolve = resolve

    def next(self) -> dict:
        from repro.bitcoin.relmap import transaction_to_relational
        from repro.service.protocol import transaction_to_wire

        kind = next(self._kinds)
        if kind == "arrival":
            tx = next(self._arrivals)
            self._pending.append(tx.txid)
            wire = transaction_to_wire(transaction_to_relational(tx, self._resolve))
            return {"op": "issue", "args": {"tx": wire}, "cls": "write"}
        index = self._rng.randrange(len(self._pending))
        txid = self._pending[index]
        self._pending[index] = self._pending[-1]
        self._pending.pop()
        op = "commit" if kind == "mined" else "forget"
        return {"op": op, "args": {"tx_id": txid}, "cls": "write"}


def _mempool_inputs(seed, constraints, warm, arrivals_needed, kinds, ops_for):
    from repro.bitcoin.relmap import chain_resolver, to_blockchain_database

    chain, clique, ordinary = _mempool_world(seed, warm + arrivals_needed)
    resident = list(clique) + ordinary[:warm]
    db = to_blockchain_database(chain, resident)
    names = [f"double-spend-{i}" for i in range(constraints)]
    setup = []
    for index, name in enumerate(names):
        query = double_spend_query(clique[2 * index].txid, clique[2 * index + 1].txid)
        setup.append({"op": "register", "args": {"name": name, "query": query}})
    for name in names:
        setup.append(
            {"op": "status", "args": {"name": name}, "expect": True, "cls": "status"}
        )
    rng = random.Random(seed)
    writes = _WriteStream(
        rng,
        kinds if kinds is not None else _churn_kinds(rng),
        [tx.txid for tx in ordinary[:warm]],
        ordinary[warm:],
        chain_resolver(chain),
    )
    return db, names, setup, ops_for(names, writes)


def churn_inputs(seed: int):
    """6 standing constraints; one write then one status per constraint."""
    events = CHURN["events"]
    arrivals = events * WRITE_BLOCK.count("arrival") // len(WRITE_BLOCK)

    def ops_for(names, writes):
        ops = []
        for _ in range(events):
            ops.append(writes.next())
            ops.extend(
                {"op": "status", "args": {"name": n}, "expect": True, "cls": "status"}
                for n in names
            )
        return ops

    db, names, setup, ops = _mempool_inputs(
        seed, CHURN["constraints"], CHURN["warm"], arrivals + 1, None, ops_for
    )
    return db, _trace("churn", seed, setup, ops, loop="closed")


def flood_inputs(seed: int):
    """16 standing constraints; a status (round-robin) after every 5
    writes, enough ops for :data:`MAX_SECONDS` at :data:`FLOOD_RATE`."""
    per = FLOOD["writes_per_status"]
    total = int(FLOOD_RATE * MAX_SECONDS)
    writes_total = total * per // (per + 1) + per
    arrivals = writes_total * WRITE_BLOCK.count("arrival") // len(WRITE_BLOCK)

    def ops_for(names, writes):
        ops = []
        turn = 0
        while len(ops) < total:
            for _ in range(per):
                ops.append(writes.next())
            name = names[turn % len(names)]
            turn += 1
            ops.append(
                {"op": "status", "args": {"name": name}, "expect": True, "cls": "status"}
            )
        return ops[:total]

    # The shape of the stream — which write kind comes when, and when
    # each op is due — is the same on every seed; the seed picks the
    # world and which transactions arrive, are mined and are evicted.
    # On an open loop the queueing behind a slow commit depends on the
    # shape, so seeds then differ in their data, not in their queueing.
    shape = random.Random("mempool_flood")
    db, names, setup, ops = _mempool_inputs(
        seed, FLOOD["constraints"], FLOOD["warm"], arrivals + 10 * per,
        _flood_kinds(shape), ops_for,
    )
    for op, due in zip(ops, _arrival_times(shape, len(ops), 10 * (per + 1))):
        op["due"] = due
    return db, _trace("mempool_flood", seed, setup, ops, loop="open", rate=FLOOD_RATE)


def _arrival_times(rng: random.Random, count: int, block: int) -> list[float]:
    """Due times (seconds from the start) of independent clients at
    :data:`FLOOD_RATE`: exponential gaps, rescaled so every *block* of
    ops spans exactly ``block / FLOOD_RATE`` seconds.

    Random gaps give the queueing delay behind a slow commit a smooth
    distribution (a fixed interval makes it lumpy, and a lumpy
    distribution puts percentiles on its gaps); the rescaling keeps
    the op count of a run, and so the status sample count, exact.
    """
    times: list[float] = []
    start = 0.0
    while len(times) < count:
        gaps = [rng.expovariate(1.0) for _ in range(block)]
        scale = block / FLOOD_RATE / sum(gaps)
        for gap in gaps:
            times.append(start)
            start += gap * scale
    return times[:count]


# ----------------------------------------------------------------------
# The paper's query families (paper_queries)


def paper_queries():
    """The D200-S dataset and its four unsatisfied queries (text), each
    cross-checked against an in-process NaiveDCSat."""
    from repro.bitcoin.generator import PRESETS, generate_dataset
    from repro.core.checker import DCSatChecker
    from repro.workloads.constants import ConstantPicker
    from repro.workloads.queries import (
        aggregate_constraint,
        path_constraint,
        simple_constraint,
        star_constraint,
    )

    dataset = generate_dataset(PRESETS["D200-S"])
    picker = ConstantPicker(dataset)
    source, sink = picker.path_endpoints(3)
    address, threshold = picker.aggregate_target()
    queries = {
        "qs": simple_constraint(picker.pending_recipient()),
        "qp3": path_constraint(3, source, sink),
        "qr3": star_constraint(3, picker.star_source(3)),
        "qa": aggregate_constraint(address, threshold),
    }
    db = dataset.to_blockchain_database()
    checker = DCSatChecker(
        dataset.to_blockchain_database(), assume_nonnegative_sums=True
    )
    expected = {}
    for family, query in queries.items():
        result = checker.check(str(query), algorithm="naive")
        expected[family] = result.satisfied
    return db, {family: str(q) for family, q in queries.items()}, expected


def paper_inputs(seed: int):
    """The seed orders the family cycles.  The dataset stays the
    paper's D200-S: re-seeding it moves q_p3's cost by ±25 %, which
    would swamp every difference the benchmark exists to show."""
    db, queries, expected = paper_queries()
    rng = random.Random(seed)
    families = [f for f, weight in PAPER_WEIGHTS.items() for _ in range(weight)]

    def cycle(family: str) -> list[dict]:
        name = f"paper-{family}"
        return [
            {
                "op": "register",
                "args": {"name": name, "query": queries[family]},
                "cls": "write",
                "family": family,
            },
            {
                "op": "status",
                "args": {"name": name},
                "expect": expected[family],
                "cls": "status",
                "family": family,
            },
            {"op": "unregister", "args": {"name": name}, "cls": "write", "family": family},
        ]

    # Setup: one cycle of each family (spawns the pool's workers).
    setup = [op for family in PAPER_WEIGHTS for op in cycle(family)]
    ops = []
    # Closed loop: shuffled blocks of the weighted families, with ample
    # headroom over what a run at today's speed completes.
    for _ in range(250):
        block = list(families)
        rng.shuffle(block)
        for family in block:
            ops.extend(cycle(family))
    trace = _trace(
        "paper_queries", seed, setup, ops, loop="closed",
        server_args=["--assume-nonnegative-sums"],
    )
    trace["expected"] = expected
    return db, trace


def _trace(workload, seed, setup, ops, loop, rate=None, server_args=()):
    return {
        "format": FORMAT,
        "workload": workload,
        "seed": seed,
        "loop": loop,
        "rate": rate,
        "server_args": list(server_args),
        "setup": setup,
        "ops": ops,
    }


GENERATORS = {
    "churn": churn_inputs,
    "paper_queries": paper_inputs,
    "mempool_flood": flood_inputs,
}
