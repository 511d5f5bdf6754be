"""Metrics registry: counters and fixed-bucket histograms.

The design rule is *near-zero cost when disabled*: a disabled registry
hands out shared null instruments whose ``inc``/``observe`` are empty
methods, and registers nothing.  Instrumented code grabs its
instruments once (at construction) and calls them unconditionally, so
the disabled-mode cost of an instrumentation site is one no-op method
call on an event that already costs orders of magnitude more — and the
per-instruction hot paths and the kernel's event paths are never
instrumented at all (μarch stats are *pulled* from the existing
hit/miss counters, scheduling counts from the kernel's trace records,
and both folded in at each ``Kernel.run_until``, see
:mod:`repro.obs.collect`).

Metric names are dotted paths (``kernel.switch.preempt_wakeup``);
:meth:`MetricsRegistry.snapshot` returns a plain JSON-safe dict and
:meth:`MetricsRegistry.render` a human table for ``repro stats``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Optional, Sequence, Union

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_HISTOGRAM",
]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: Union[int, float] = 1) -> None:
        self.value += n


#: Default bucket upper bounds (ns-flavoured, powers of ten).
DEFAULT_BUCKETS = (1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8)


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max.

    ``buckets`` are upper bounds of the finite buckets; one overflow
    bucket is implicit.  Buckets are fixed at creation — no dynamic
    resizing, so ``observe`` is a single bisect plus integer adds.
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS):
        if list(buckets) != sorted(buckets):
            raise ValueError(f"histogram buckets must be sorted: {buckets}")
        self.name = name
        self.bounds = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram with identical bounds into this one
        (bucket-wise add) — used when per-cell telemetry registries are
        folded back into the process-wide registry."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different buckets: "
                f"{self.bounds} vs {other.bounds}"
            )
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def to_dict(self) -> dict:
        buckets = {f"le_{b:g}": c for b, c in zip(self.bounds, self.counts)}
        buckets["inf"] = self.counts[-1]
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "buckets": buckets,
        }


class _NullCounter:
    __slots__ = ()

    def inc(self, n: Union[int, float] = 1) -> None:
        pass


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


NULL_COUNTER = _NullCounter()
NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Named instruments, or shared null instruments when disabled."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._metrics: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Instrument factories (idempotent per name)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return NULL_COUNTER  # type: ignore[return-value]
        existing = self._metrics.get(name)
        if existing is None:
            existing = self._metrics[name] = Counter(name)
        elif not isinstance(existing, Counter):
            raise TypeError(f"metric {name!r} is {type(existing).__name__}")
        return existing

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        if not self.enabled:
            return NULL_HISTOGRAM  # type: ignore[return-value]
        existing = self._metrics.get(name)
        if existing is None:
            existing = self._metrics[name] = Histogram(name, buckets)
        elif not isinstance(existing, Histogram):
            raise TypeError(f"metric {name!r} is {type(existing).__name__}")
        return existing

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def get(self, name: str):
        """The registered instrument named ``name``, or None."""
        return self._metrics.get(name)

    def names(self):
        return sorted(self._metrics)

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe view of every registered instrument."""
        out: Dict[str, object] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out[name] = metric.to_dict()
            else:
                out[name] = metric.value  # type: ignore[union-attr]
        return out

    def render(self) -> str:
        """Human-readable table for ``repro stats`` / ``--metrics``."""
        if not self._metrics:
            return "(no metrics recorded)"
        lines = []
        width = max(len(name) for name in self._metrics)
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                value = (f"count={metric.count} mean={metric.mean:,.1f} "
                         f"min={metric.min if metric.min is not None else '-'} "
                         f"max={metric.max if metric.max is not None else '-'}")
            elif isinstance(metric.value, float):  # type: ignore[union-attr]
                value = f"{metric.value:,.3f}"  # type: ignore[union-attr]
            else:
                value = f"{metric.value:,}"  # type: ignore[union-attr]
            lines.append(f"{name:<{width}}  {value}")
        return "\n".join(lines)

    def reset(self) -> None:
        self._metrics.clear()
