"""The JSON-lines wire protocol shared by the server and the client.

One request or response per line, UTF-8 JSON, newline-terminated:

Request::

    {"id": 7, "op": "status", "args": {"name": "no-double-spend"},
     "deadline": 2.5}

Response::

    {"id": 7, "ok": true, "result": {...}}
    {"id": 7, "ok": false, "error": "queue full", "code": "busy",
     "retry_after": 0.05}

``id`` is chosen by the client and echoed verbatim; ``deadline`` (in
seconds, optional) bounds how long the client is willing to wait for
the response.  Error codes: ``busy`` (backpressure — retry after
``retry_after`` seconds), ``deadline`` (the per-request deadline
elapsed before the verdict was ready), ``shutting-down``,
``bad-request`` and ``error``.

Queued requests may carry a ``trace`` field (a correlation id chosen by
the client); the server opens one trace per queued request under that
id — or mints one — and echoes it back as ``trace`` on the response,
ok or error, so the client can fetch the full span tree from
``GET /tracez?trace_id=...``.

Results that carry a :class:`~repro.core.results.DCSatResult` encode it
with :func:`result_to_wire`; transactions travel in the same shape the
on-disk serialization uses (``{"id": ..., "facts": {rel: [[...]]}}``).
"""

from __future__ import annotations

import json
from dataclasses import fields as dataclass_fields
from typing import Any, Mapping

from repro.core.results import DCSatResult, DCSatStats
from repro.errors import ServiceError
from repro.relational.transaction import Transaction

MAX_LINE_BYTES = 4 * 1024 * 1024

#: Operations that mutate or read monitor state and therefore go through
#: the server's bounded solve queue (subject to backpressure).
QUEUED_OPS = frozenset(
    {
        "register",
        "unregister",
        "issue",
        "commit",
        "forget",
        "absorb",
        "status",
        "status_all",
        "violated",
        "rebalance",
    }
)

#: Operations answered directly on the event loop.
IMMEDIATE_OPS = frozenset({"ping", "metrics", "constraints", "shards", "shutdown"})

#: Operations safe to resend after an ambiguous transport failure: they
#: read state without changing it, so a double delivery is harmless.
IDEMPOTENT_OPS = frozenset(
    {"ping", "status", "status_all", "violated", "constraints", "shards", "metrics"}
)

#: Operations that change monitor (or server) state.  Once the request
#: bytes may have left the process, a transport failure is *ambiguous* —
#: the server may have applied the op before the reply was lost — so
#: retry layers must never resend these blind.  The fabric router instead
#: resolves ambiguity by respawning the shard and replaying its journal.
MUTATING_OPS = frozenset(
    {
        "register",
        "unregister",
        "issue",
        "commit",
        "forget",
        "absorb",
        "rebalance",
        "shutdown",
    }
)


def is_idempotent(op: str) -> bool:
    """True when *op* may be resent after an ambiguous failure.  Unknown
    ops count as mutating — the safe default for a newer server's ops."""
    return op in IDEMPOTENT_OPS


def encode_line(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> dict:
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ServiceError(f"malformed request line: {error}", code="bad-request")
    if not isinstance(payload, dict):
        raise ServiceError("request must be a JSON object", code="bad-request")
    return payload


def transaction_to_wire(tx: Transaction) -> dict:
    return {
        "id": tx.tx_id,
        "facts": {
            rel: sorted([list(values) for values in tx.tuples(rel)])
            for rel in sorted(tx.relation_names)
        },
    }


def transaction_from_wire(payload: Any) -> Transaction:
    if (
        not isinstance(payload, dict)
        or "id" not in payload
        or not isinstance(payload.get("facts"), dict)
    ):
        raise ServiceError(
            'transactions must look like {"id": ..., "facts": {rel: [[...]]}}',
            code="bad-request",
        )
    try:
        return Transaction(
            {
                rel: [tuple(values) for values in rows]
                for rel, rows in payload["facts"].items()
            },
            tx_id=payload["id"],
        )
    except (TypeError, ValueError) as error:
        raise ServiceError(f"malformed transaction: {error}", code="bad-request")


def stats_to_wire(stats: DCSatStats) -> dict:
    return {
        "algorithm": stats.algorithm,
        "engine": stats.engine,
        "short_circuit_used": stats.short_circuit_used,
        "short_circuit_result": stats.short_circuit_result,
        "components_total": stats.components_total,
        "components_pruned": stats.components_pruned,
        "max_component_size": stats.max_component_size,
        "cliques_enumerated": stats.cliques_enumerated,
        "worlds_checked": stats.worlds_checked,
        "evaluations": stats.evaluations,
        "parallel_tasks": stats.parallel_tasks,
        "components_reused": stats.components_reused,
        "dirty_components": stats.dirty_components,
        "elapsed_seconds": stats.elapsed_seconds,
    }


def result_to_wire(result: DCSatResult) -> dict:
    return {
        "satisfied": result.satisfied,
        "witness": sorted(result.witness) if result.witness is not None else None,
        "stats": stats_to_wire(result.stats),
    }


def stats_from_wire(payload: Mapping[str, Any]) -> DCSatStats:
    """Rebuild :class:`DCSatStats` from :func:`stats_to_wire` output.

    Unknown keys are ignored and missing ones default, so a newer
    router can read an older shard's stats (and vice versa).
    """
    known = {f.name for f in dataclass_fields(DCSatStats)}
    return DCSatStats(**{k: v for k, v in payload.items() if k in known})


def result_from_wire(payload: Mapping[str, Any]) -> DCSatResult:
    """Rebuild :class:`DCSatResult` from :func:`result_to_wire` output —
    what the fabric router does with every shard verdict, so results
    re-encode byte-identically when it answers its own clients."""
    witness = payload.get("witness")
    return DCSatResult(
        satisfied=bool(payload["satisfied"]),
        witness=frozenset(witness) if witness is not None else None,
        stats=stats_from_wire(payload.get("stats") or {}),
    )


def error_response(
    request_id: Any,
    message: str,
    code: str = "error",
    retry_after: float | None = None,
    trace: str | None = None,
) -> dict:
    response: dict = {"id": request_id, "ok": False, "error": message, "code": code}
    if retry_after is not None:
        response["retry_after"] = retry_after
    if trace is not None:
        response["trace"] = trace
    return response


def ok_response(
    request_id: Any,
    result: dict,
    trace: str | None = None,
    spans: list[dict] | None = None,
) -> dict:
    """*spans* (``Span.to_wire`` dicts) ride along when the request set
    ``export_spans`` — the fabric router grafts them into its own trace
    (:meth:`~repro.obs.trace.Tracer.adopt`), which is how one ``/tracez``
    tree spans the router *and* its shard subprocesses."""
    response: dict = {"id": request_id, "ok": True, "result": result}
    if trace is not None:
        response["trace"] = trace
    if spans is not None:
        response["spans"] = spans
    return response
