"""The unified metrics registry: namespaced counters, gauges, histograms.

Before this layer existed, the repository had disjoint counter pots —
:class:`~repro.semantics.metrics.StorageMetrics` (runtime storage events)
and :class:`~repro.query.SessionStats` (query-engine cache accounting) —
each with its own snapshot shape.  :class:`MetricsRegistry` subsumes them:

* one ``name{label=value,...}`` key syntax for every metric (the same
  labelled form ``StorageMetrics.snapshot`` now uses for
  ``region_allocs{kind=...}``);
* ``ingest_storage`` / ``ingest_session`` adapters that fold each legacy
  pot into the registry under a namespace;
* a :class:`~repro.obs.sinks.MetricsSink` that aggregates a live event
  stream into a registry, so benchmarks and the CLI get counters without
  holding references to interpreters or sessions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: A metric key: name plus a canonical (sorted) label tuple.
MetricKey = tuple[str, tuple[tuple[str, str], ...]]


def metric_key(name: str, /, **labels) -> MetricKey:
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


def format_key(key: MetricKey) -> str:
    """Render ``("n", (("k","v"),))`` as ``n{k=v}`` (bare ``n`` unlabelled)."""
    name, labels = key
    if not labels:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


#: Size of the per-histogram sample reservoir backing the percentile
#: estimates.  512 doubles is ~4 KiB per histogram — bounded memory on a
#: long-lived daemon — while quantiles over the window stay exact until
#: the reservoir wraps.
RESERVOIR_SIZE = 512

#: The percentiles every histogram exports (``/metrics`` latency SLOs).
PERCENTILES = ((50, "p50"), (95, "p95"), (99, "p99"))


@dataclass
class Histogram:
    """A bounded summary of observed values (count/sum/min/max plus
    p50/p95/p99 from a fixed-size sample reservoir).

    The reservoir overwrites deterministically at ``count % size`` — no
    randomness, so two runs observing the same sequence report the same
    percentiles — keeping a sliding sample of recent observations whose
    quantiles approximate the stream's once it wraps.
    """

    count: int = 0
    total: float = 0.0
    minimum: float = field(default=float("inf"))
    maximum: float = field(default=float("-inf"))
    samples: list[float] = field(default_factory=list)
    reservoir_size: int = RESERVOIR_SIZE

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        if len(self.samples) < self.reservoir_size:
            self.samples.append(value)
        else:
            # Round-robin overwrite: observation N lands in slot
            # (N-1) % size, a deterministic sliding window.
            self.samples[(self.count - 1) % self.reservoir_size] = value

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile of the sampled window (nearest-rank,
        linear interpolation between adjacent samples)."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        if len(ordered) == 1:
            return ordered[0]
        rank = (q / 100.0) * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        fraction = rank - low
        return ordered[low] + (ordered[high] - ordered[low]) * fraction

    def summary(self) -> dict[str, float]:
        if self.count == 0:
            return {"count": 0, "sum": 0.0}
        out = {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.total / self.count,
        }
        for q, label in PERCENTILES:
            out[label] = self.percentile(q)
        return out


class MetricsRegistry:
    """Labelled counters, gauges, and histograms with one snapshot shape."""

    def __init__(self) -> None:
        self._counters: dict[MetricKey, float] = {}
        self._gauges: dict[MetricKey, float] = {}
        self._histograms: dict[MetricKey, Histogram] = {}

    # -- writes ------------------------------------------------------------

    def inc(self, name: str, value: float = 1, /, **labels) -> None:
        key = metric_key(name, **labels)
        self._counters[key] = self._counters.get(key, 0) + value

    def set_gauge(self, name: str, value: float, /, **labels) -> None:
        self._gauges[metric_key(name, **labels)] = value

    def observe(self, name: str, value: float, /, **labels) -> None:
        key = metric_key(name, **labels)
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram()
        histogram.observe(value)

    # -- reads -------------------------------------------------------------

    def counter(self, name: str, /, **labels) -> float:
        return self._counters.get(metric_key(name, **labels), 0)

    def histogram(self, name: str, /, **labels) -> Histogram | None:
        return self._histograms.get(metric_key(name, **labels))

    def snapshot(self) -> dict[str, float]:
        """Every metric under its ``name{label=value,...}`` key.  Histograms
        expand to ``name.count`` / ``name.sum`` / ... components.  Keys are
        globally sorted — counters, gauges, and histogram components
        interleaved in one lexicographic order — so two scrapes of the same
        state are byte-identical and diffable in CI artifacts."""
        out: dict[str, float] = {}
        for key, value in self._counters.items():
            out[format_key(key)] = value
        for key, value in self._gauges.items():
            out[format_key(key)] = value
        for key, histogram in self._histograms.items():
            name, labels = key
            for part, value in histogram.summary().items():
                out[format_key((f"{name}.{part}", labels))] = value
        return dict(sorted(out.items()))

    # -- legacy-pot adapters ----------------------------------------------

    def ingest_storage(self, storage, namespace: str = "storage") -> None:
        """Fold a :class:`~repro.semantics.metrics.StorageMetrics` snapshot
        (labelled region keys included) into the registry."""
        for key, value in storage.snapshot().items():
            self.inc(f"{namespace}.{key}" if namespace else key, value)

    def ingest_session(self, stats, namespace: str = "session") -> None:
        """Fold a :class:`~repro.query.SessionStats` / ``QueryStats``."""
        prefix = f"{namespace}." if namespace else ""
        for name in (
            "solve_hits",
            "solve_misses",
            "scc_hits",
            "scc_misses",
            "iterations",
            "eval_steps",
        ):
            self.inc(prefix + name, getattr(stats, name))
        queries = getattr(stats, "queries", None)
        if queries is not None:
            self.inc(prefix + "queries", queries)
