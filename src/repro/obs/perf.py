"""The perf telemetry plane: a runtime component cost model.

Per-component solve timings (the per-solve
:class:`~repro.core.results.DCSatStats` the solver pool and sequential
paths already produce) feed a rolling :class:`CostModel`: exponentially
weighted moving averages of clique-sweep cost, keyed by **component
size bucket**.  The model answers two questions:

* *Prediction* — :meth:`CostModel.predict` estimates how long a
  component of a given size will take to sweep, so
  :class:`~repro.service.pool.SolverPool` can bin-pack components into
  worker groups by predicted cost instead of striping them round-robin.
* *Exposition* — every observation lands in the default metrics
  registry (``repro_cost_model_estimate_seconds`` gauges plus an
  observation counter), and :meth:`CostModel.snapshot` renders the full
  model state for the ``GET /perfz`` endpoint.

Sizes are bucketed by powers of two (a component of 12 transactions
lands in the ``8-15`` bucket): clique-sweep cost grows with ``2^K``
worlds, so fine-grained size keys would never re-observe, while log
buckets keep the gauge cardinality bounded and still separate "tiny"
from "giant" components by orders of magnitude.

Thread-safety: observations arrive from the solver thread and the
coordinator's dispatch loop while ``/perfz`` scrapes from the event
loop, so every mutation and read takes the model lock.

:func:`build_info` also lives here: the git revision / package version
/ python triple stamped into ``/healthz`` and the bench artifacts, so a
scraped metric or a committed ``BENCH_*.json`` row can be correlated to
the exact serving revision.
"""

from __future__ import annotations

import pathlib
import platform
import subprocess
import threading
from dataclasses import dataclass, field

#: Observations before the model considers itself warm enough to drive
#: scheduling decisions (below this, callers should fall back to a
#: model-free strategy such as round-robin).
DEFAULT_WARM_AFTER = 8
#: EWMA smoothing factor: one observation moves the estimate a quarter
#: of the way to the new sample — responsive to drift, robust to noise.
DEFAULT_ALPHA = 0.25


def size_bucket(size: int) -> int:
    """The power-of-two bucket index for a component size (0 for empty)."""
    return size.bit_length() if size > 0 else 0


def bucket_label(bucket: int) -> str:
    """A human-readable ``"8-15"``-style label for a bucket index."""
    if bucket <= 0:
        return "0"
    low = 1 << (bucket - 1)
    high = (1 << bucket) - 1
    return str(low) if low == high else f"{low}-{high}"


@dataclass
class CostEstimate:
    """The rolling state of one size bucket."""

    bucket: int
    ewma_seconds: float = 0.0
    ewma_size: float = 0.0
    ewma_cliques: float = 0.0
    samples: int = 0
    last_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "size_bucket": bucket_label(self.bucket),
            "ewma_seconds": self.ewma_seconds,
            "ewma_size": self.ewma_size,
            "ewma_cliques": self.ewma_cliques,
            "samples": self.samples,
            "last_seconds": self.last_seconds,
        }


@dataclass
class CostModel:
    """Rolling EWMA solve-cost estimates, safe to share across threads."""

    alpha: float = DEFAULT_ALPHA
    warm_after: int = DEFAULT_WARM_AFTER
    export_metrics: bool = True
    _estimates: dict[int, CostEstimate] = field(
        default_factory=dict, repr=False
    )
    _observations: int = field(default=0, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    # -- ingestion ------------------------------------------------------

    def observe(self, seconds: float, size: int, cliques: int = 0) -> None:
        """Fold one per-component solve timing into the model."""
        bucket = size_bucket(size)
        with self._lock:
            estimate = self._estimates.get(bucket)
            if estimate is None:
                estimate = CostEstimate(bucket)
                self._estimates[bucket] = estimate
            if estimate.samples == 0:
                estimate.ewma_seconds = seconds
                estimate.ewma_size = float(size)
                estimate.ewma_cliques = float(cliques)
            else:
                a = self.alpha
                estimate.ewma_seconds += a * (seconds - estimate.ewma_seconds)
                estimate.ewma_size += a * (size - estimate.ewma_size)
                estimate.ewma_cliques += a * (cliques - estimate.ewma_cliques)
            estimate.samples += 1
            estimate.last_seconds = seconds
            self._observations += 1
            exported = estimate.ewma_seconds if self.export_metrics else None
        if exported is not None:
            from repro.service.metrics import default_registry

            registry = default_registry()
            registry.gauge(
                "repro_cost_model_estimate_seconds",
                "EWMA solve cost per component, by size bucket.",
                labels={"bucket": bucket_label(bucket)},
            ).set(exported)
            registry.counter(
                "repro_cost_model_observations_total",
                "Per-component solve timings folded into the cost model.",
            ).inc()

    # -- prediction -----------------------------------------------------

    @property
    def observations(self) -> int:
        with self._lock:
            return self._observations

    @property
    def warm(self) -> bool:
        """Enough history to trust predictions for scheduling."""
        with self._lock:
            return self._observations >= self.warm_after

    def predict(self, size: int) -> float | None:
        """Predicted solve seconds for a component of *size*, or ``None``
        when the model holds nothing usable.

        An exact bucket hit answers directly; a miss falls back to the
        nearest observed bucket, scaled linearly by the size ratio — a
        coarse extrapolation, but bin-packing only needs the relative
        order of component costs, not their absolute values.
        """
        bucket = size_bucket(size)
        with self._lock:
            exact = self._estimates.get(bucket)
            if exact is not None and exact.samples > 0:
                return exact.ewma_seconds
            candidates = [
                estimate
                for estimate in self._estimates.values()
                if estimate.samples > 0
            ]
            if not candidates:
                return None
            nearest = min(candidates, key=lambda est: abs(est.bucket - bucket))
            if nearest.ewma_size <= 0:
                return nearest.ewma_seconds
            return nearest.ewma_seconds * (size / nearest.ewma_size)

    # -- exposition -----------------------------------------------------

    def snapshot(self) -> dict:
        """The full model state as one JSON-serializable dict (``/perfz``)."""
        with self._lock:
            estimates = sorted(
                (estimate.to_dict() for estimate in self._estimates.values()),
                key=lambda row: row["ewma_size"],
            )
            observations = self._observations
        return {
            "observations": observations,
            "warm": observations >= self.warm_after,
            "warm_after": self.warm_after,
            "alpha": self.alpha,
            "estimates": estimates,
        }

    def reset(self) -> None:
        """Drop all history (tests; model isolation between workloads)."""
        with self._lock:
            self._estimates.clear()
            self._observations = 0


_DEFAULT_COST_MODEL = CostModel()


def default_cost_model() -> CostModel:
    """The process-wide cost model the solver pool feeds and ``/perfz``
    exposes, mirroring :func:`~repro.service.metrics.default_registry`."""
    return _DEFAULT_COST_MODEL


# ----------------------------------------------------------------------
# Build info (served by /healthz, stamped into bench artifacts)

_build_info_cache: dict | None = None


def git_rev(cwd: str | None = None) -> str:
    """The short git revision of *cwd* (the package checkout by
    default), or ``"unknown"`` outside a git checkout — an installed
    package must still answer ``/healthz``."""
    if cwd is None:
        cwd = str(pathlib.Path(__file__).resolve().parent)
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10.0, cwd=cwd,
        ).stdout.strip()
        return out or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build_info() -> dict:
    """Revision / version / runtime identity, computed once per process."""
    global _build_info_cache
    if _build_info_cache is None:
        from repro import __version__

        _build_info_cache = {
            "git_rev": git_rev(),
            "version": __version__,
            "python": platform.python_version(),
        }
    return dict(_build_info_cache)


__all__ = [
    "CostEstimate",
    "CostModel",
    "bucket_label",
    "build_info",
    "default_cost_model",
    "git_rev",
    "size_bucket",
]
