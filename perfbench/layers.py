"""The layer map shared by the timing bootstrap and the report.

Each entry names one public function (or method) of a repro module, the
detail label its self time is recorded under, and the report row that
detail folds into.  The rows partition every timed function, so the
rows' self times plus ``other`` add up to the traced end-to-end time.

Rows group a module's functions where one of them is idle on some
workload (``paper_queries`` never writes to the database, so the
fd-graph and checker maintenance calls are idle there); the detail
table printed above the JSON result keeps the split per function.
"""

from __future__ import annotations

#: (row, detail, module, qualified name)
LAYERS: tuple[tuple[str, str, str, str], ...] = (
    ("service.run_op", "server.run_op", "repro.service.server", "ConstraintService._run_op"),
    ("protocol.codec", "protocol.encode_line", "repro.service.protocol", "encode_line"),
    ("protocol.codec", "protocol.decode_line", "repro.service.protocol", "decode_line"),
    ("protocol.codec", "protocol.transaction_from_wire", "repro.service.protocol",
     "transaction_from_wire"),
    ("protocol.codec", "protocol.result_to_wire", "repro.service.protocol", "result_to_wire"),
    ("monitor.status", "monitor.status", "repro.core.monitor", "ConstraintMonitor.status"),
    ("monitor.write", "monitor.register", "repro.core.monitor", "ConstraintMonitor.register"),
    ("monitor.write", "monitor.unregister", "repro.core.monitor", "ConstraintMonitor.unregister"),
    ("monitor.write", "monitor.issue", "repro.core.monitor", "ConstraintMonitor.issue"),
    ("monitor.write", "monitor.commit", "repro.core.monitor", "ConstraintMonitor.commit"),
    ("monitor.write", "monitor.forget", "repro.core.monitor", "ConstraintMonitor.forget"),
    ("monitor.write", "monitor.absorb", "repro.core.monitor", "ConstraintMonitor.absorb"),
    ("monitor.write", "monitor.coupled_relations", "repro.core.monitor", "coupled_relations"),
    ("ledger.plan", "ledger.plan", "repro.core.incremental", "VerdictLedger.plan"),
    ("ledger.maintain", "ledger.note_change", "repro.core.incremental",
     "VerdictLedger.note_change"),
    ("ledger.maintain", "ledger.store", "repro.core.incremental", "VerdictLedger.store"),
    ("ledger.maintain", "ledger.touch", "repro.core.incremental", "VerdictLedger.touch"),
    ("ledger.maintain", "ledger.drop", "repro.core.incremental", "VerdictLedger.drop"),
    ("ledger.maintain", "ledger.component_footprint", "repro.core.incremental",
     "component_footprint"),
    ("checker", "checker.check", "repro.core.checker", "DCSatChecker.check"),
    ("checker", "checker.fast_paths", "repro.core.checker", "DCSatChecker.fast_paths"),
    ("checker", "checker.issue", "repro.core.checker", "DCSatChecker.issue"),
    ("checker", "checker.commit", "repro.core.checker", "DCSatChecker.commit"),
    ("checker", "checker.forget", "repro.core.checker", "DCSatChecker.forget"),
    ("checker", "checker.absorb", "repro.core.checker", "DCSatChecker.absorb"),
    ("opt.component_survivors", "opt.component_survivors", "repro.core.opt",
     "component_survivors"),
    ("opt.solve_component", "opt.solve_component", "repro.core.opt", "solve_component"),
    ("ind_graph", "ind_graph.components", "repro.core.ind_graph",
     "IndQTransactionGraph.components"),
    ("ind_graph", "ind_graph.invalidate", "repro.core.ind_graph",
     "IndQTransactionGraph.invalidate"),
    ("fd_graph", "fd_graph.maximal_cliques", "repro.core.fd_graph",
     "FdTransactionGraph.maximal_cliques"),
    ("fd_graph", "fd_graph.refresh_after_commit", "repro.core.fd_graph",
     "FdTransactionGraph.refresh_after_commit"),
    ("fd_graph", "fd_graph.add_transaction", "repro.core.fd_graph",
     "FdTransactionGraph.add_transaction"),
    ("fd_graph", "fd_graph.remove_transaction", "repro.core.fd_graph",
     "FdTransactionGraph.remove_transaction"),
    ("engine.sweep", "engine.sweep", "repro.core.engine", "SyncEngine.sweep"),
    ("engine.evaluate", "engine.evaluate", "repro.core.engine", "SyncEngine.evaluate"),
    ("storage.evaluate", "storage.evaluate", "repro.storage.memory", "MemoryBackend.evaluate"),
    ("storage.evaluate", "storage.evaluate_many", "repro.storage.memory",
     "MemoryBackend.evaluate_many"),
    ("pool", "pool.solve_components", "repro.service.pool", "SolverPool.solve_components"),
    ("pool", "pool.record_op", "repro.service.pool", "SolverPool.record_op"),
    ("pool", "pool.check", "repro.service.pool", "SolverPool.check"),
    ("pool", "pool.check_batch", "repro.service.pool", "SolverPool.check_batch"),
)

ROWS: tuple[str, ...] = tuple(dict.fromkeys(row for row, *_ in LAYERS))
