"""The unified metrics registry: named counters, gauges, histograms.

Every tier of the serving stack records into one
:class:`MetricsRegistry` so that "where does time go" has a single
answer surface (``GET /metrics``) instead of three disjoint schemas:
the engine :class:`~repro.metrics.Counters` (virtual instructions),
:class:`~repro.metrics.IngestMetrics` (async ingestion percentiles),
and the multiproc :class:`~repro.parallel.ParallelMetrics` all
``bind()`` into a registry scope rather than living as islands.

Design constraints, in priority order:

* **lock-cheap** — one tiny lock per metric child (never a registry-wide
  lock on the hot path), so a counter increment from a batcher thread
  costs an uncontended acquire;
* **bounded cardinality** — each family caps its number of label sets
  (``max_series`` per family); excess label sets fold into the
  registry-wide ``repro_registry_dropped_series_total`` counter instead
  of growing without bound;
* **get-or-create** — registering an existing family (same name, same
  type) returns it, and a callback gauge re-registration replaces the
  callback, so a server re-hosting a service never collides with the
  previous incarnation's metrics;
* **Prometheus text exposition** — :meth:`MetricsRegistry.render`
  produces the standard ``text/plain; version=0.0.4`` format, and
  :func:`parse_prometheus` is the strict inverse used by the router's
  shard-scrape aggregation, ``python -m repro top``, and the tests.

Histograms are fixed-bucket (cumulative, Prometheus-style) and answer
streaming percentile queries by linear interpolation within the bucket
(:meth:`Histogram.percentile`) — O(#buckets), no sample retention.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Callable, Iterable

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "MetricsScope",
    "Sample",
    "bucket_percentile",
    "merge_expositions",
    "parse_prometheus",
]

#: default histogram buckets (seconds-oriented, sub-ms to tens of s)
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class MetricError(ValueError):
    """Invalid metric registration or malformed exposition text."""


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise MetricError(f"invalid metric name {name!r}")
    return name


def _label_key(labels: dict | None) -> tuple:
    if not labels:
        return ()
    for k in labels:
        if not _LABEL_RE.match(k):
            raise MetricError(f"invalid label name {k!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _fmt_value(v: float) -> str:
    if v == math.inf:
        return "+Inf"
    if v == -math.inf:
        return "-Inf"
    if isinstance(v, float) and v.is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v)) if isinstance(v, float) else str(v)


def _render_labels(pairs: Iterable[tuple[str, str]]) -> str:
    items = [f'{k}="{_escape(v)}"' for k, v in pairs]
    return "{" + ",".join(items) + "}" if items else ""


# ----------------------------------------------------------------------
# Metric children
# ----------------------------------------------------------------------
class Counter:
    """A monotonically increasing count; ``inc`` is thread-safe."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int | float = 1) -> None:
        if n < 0:
            raise MetricError("counters only go up; use a Gauge")
        with self._lock:
            self._value += n

    @property
    def value(self):
        with self._lock:
            return self._value


class Gauge:
    """A settable value, or a zero-argument callback read at scrape."""

    __slots__ = ("_lock", "_value", "_fn")

    def __init__(self, fn: Callable[[], float] | None = None):
        self._lock = threading.Lock()
        self._value = 0.0
        self._fn = fn

    def set(self, v: float) -> None:
        with self._lock:
            self._value = v

    def inc(self, n: float = 1) -> None:
        with self._lock:
            self._value += n

    def dec(self, n: float = 1) -> None:
        self.inc(-n)

    def set_function(self, fn: Callable[[], float]) -> None:
        with self._lock:
            self._fn = fn

    @property
    def value(self):
        with self._lock:
            fn = self._fn
            if fn is None:
                return self._value
        try:
            return fn()
        except Exception:  # scrape must never take the server down
            return float("nan")


class Histogram:
    """Fixed cumulative buckets plus count/sum, Prometheus-style."""

    __slots__ = ("_lock", "uppers", "_counts", "_sum", "_count")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        uppers = tuple(sorted(float(b) for b in buckets))
        if not uppers:
            raise MetricError("histogram needs at least one bucket")
        self.uppers = uppers
        self._lock = threading.Lock()
        self._counts = [0] * (len(uppers) + 1)  # +Inf is the last slot
        self._sum = 0.0
        self._count = 0

    def observe(self, v: float) -> None:
        idx = bisect_left(self.uppers, v)
        with self._lock:
            self._counts[idx] += 1
            self._sum += v
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs ending at +Inf."""
        with self._lock:
            counts = list(self._counts)
        total = 0
        out = []
        for upper, c in zip(self.uppers + (math.inf,), counts):
            total += c
            out.append((upper, total))
        return out

    def percentile(self, p: float) -> float:
        """Streaming percentile estimate by in-bucket interpolation."""
        cum = self.cumulative()
        return bucket_percentile(cum, p)


def bucket_percentile(cumulative: list[tuple[float, int]], p: float) -> float:
    """The ``p``-th percentile (0..100) from cumulative bucket counts.

    Linear interpolation inside the containing bucket; the +Inf bucket
    reports its lower bound (there is nothing to interpolate against).
    Returns 0.0 for an empty histogram.
    """
    if not cumulative:
        return 0.0
    total = cumulative[-1][1]
    if total == 0:
        return 0.0
    rank = total * (p / 100.0)
    prev_upper, prev_cum = 0.0, 0
    for upper, cum in cumulative:
        if cum >= rank:
            if upper == math.inf:
                return prev_upper
            in_bucket = cum - prev_cum
            if in_bucket <= 0:
                return upper
            frac = (rank - prev_cum) / in_bucket
            return prev_upper + (upper - prev_upper) * frac
        prev_upper, prev_cum = upper, cum
    return prev_upper


# ----------------------------------------------------------------------
# Families and the registry
# ----------------------------------------------------------------------
class Family:
    """One named metric with any number of label sets (children)."""

    def __init__(self, registry, name: str, kind: str, help_text: str,
                 buckets: tuple[float, ...], max_series: int):
        self.registry = registry
        self.name = name
        self.kind = kind
        self.help = help_text
        self.buckets = buckets
        self.max_series = max_series
        self._lock = threading.Lock()
        self.children: dict[tuple, object] = {}

    def child(self, labels: dict | None):
        key = _label_key(labels)
        with self._lock:
            existing = self.children.get(key)
            if existing is not None:
                return existing
            if len(self.children) >= self.max_series:
                # Bounded cardinality: fold the overflow into a probe
                # counter and hand back a detached child so callers
                # never crash — the series just is not exported.
                self.registry._dropped.inc()
                return self._make()
            made = self._make()
            self.children[key] = made
            return made

    def _make(self):
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return Histogram(self.buckets)

    def remove(self, labels: dict | None) -> None:
        with self._lock:
            self.children.pop(_label_key(labels), None)


class MetricsRegistry:
    """Process-wide (or per-service) named metrics with exposition."""

    def __init__(self, max_series_per_family: int = 512):
        self._lock = threading.Lock()
        self._families: dict[str, Family] = {}
        self.max_series_per_family = max_series_per_family
        self._dropped = Counter()
        self.counter(
            "repro_registry_dropped_series_total",
            help="label sets discarded by the per-family cardinality cap",
        )

    # ------------------------------------------------------------------
    def _family(self, name: str, kind: str, help_text: str,
                buckets: tuple[float, ...]) -> Family:
        _check_name(name)
        with self._lock:
            fam = self._families.get(name)
            if fam is not None:
                if fam.kind != kind:
                    raise MetricError(
                        f"metric {name!r} already registered as "
                        f"{fam.kind}, not {kind}"
                    )
                if help_text and not fam.help:
                    fam.help = help_text
                return fam
            fam = Family(
                self, name, kind, help_text, buckets,
                self.max_series_per_family,
            )
            self._families[name] = fam
            return fam

    def counter(self, name: str, help: str = "",
                labels: dict | None = None) -> Counter:
        fam = self._family(name, "counter", help, ())
        if name == "repro_registry_dropped_series_total":
            # The probe counter is the registry's own dropped-series
            # count, shared so Family overflow increments surface here.
            with fam._lock:
                fam.children.setdefault((), self._dropped)
            return self._dropped
        return fam.child(labels)

    def gauge(self, name: str, help: str = "",
              labels: dict | None = None) -> Gauge:
        return self._family(name, "gauge", help, ()).child(labels)

    def gauge_fn(self, name: str, fn: Callable[[], float], help: str = "",
                 labels: dict | None = None) -> Gauge:
        g = self.gauge(name, help, labels)
        g.set_function(fn)
        return g

    def histogram(self, name: str, help: str = "",
                  labels: dict | None = None,
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        return self._family(name, "histogram", help, buckets).child(labels)

    def remove(self, name: str, labels: dict | None = None) -> None:
        with self._lock:
            fam = self._families.get(name)
        if fam is not None:
            fam.remove(labels)

    def scope(self, **labels) -> "MetricsScope":
        """A handle that stamps ``labels`` on everything registered
        through it and removes those series on :meth:`MetricsScope.close`
        (what keeps create/drop view churn cardinality-bounded)."""
        return MetricsScope(self, labels)

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------
    def render(self) -> str:
        """Prometheus text exposition (``text/plain; version=0.0.4``)."""
        lines: list[str] = []
        with self._lock:
            families = sorted(self._families.values(), key=lambda f: f.name)
        for fam in families:
            with fam._lock:
                children = dict(fam.children)
            if not children:
                continue
            if fam.help:
                lines.append(f"# HELP {fam.name} {_escape(fam.help)}")
            lines.append(f"# TYPE {fam.name} {fam.kind}")
            for key, child in sorted(children.items()):
                base = _render_labels(key)
                if fam.kind == "histogram":
                    for upper, cum in child.cumulative():
                        lab = _render_labels(
                            list(key) + [("le", _fmt_value(upper))]
                        )
                        lines.append(
                            f"{fam.name}_bucket{lab} {cum}"
                        )
                    lines.append(
                        f"{fam.name}_sum{base} {_fmt_value(child.sum)}"
                    )
                    lines.append(f"{fam.name}_count{base} {child.count}")
                else:
                    lines.append(
                        f"{fam.name}{base} {_fmt_value(child.value)}"
                    )
        return "\n".join(lines) + "\n"


class MetricsScope:
    """Fixed labels + bookkeeping for group removal.

    Everything registered through a scope carries the scope's labels
    merged over the call-site labels; :meth:`close` removes exactly the
    series this scope created (families persist — they are shared).
    """

    def __init__(self, registry: MetricsRegistry, labels: dict):
        self.registry = registry
        self.labels = dict(labels)
        self._created: list[tuple[str, dict]] = []
        self._lock = threading.Lock()

    def _merged(self, labels: dict | None) -> dict:
        merged = dict(self.labels)
        if labels:
            merged.update(labels)
        return merged

    def _track(self, name: str, labels: dict):
        with self._lock:
            self._created.append((name, labels))

    def counter(self, name, help="", labels=None) -> Counter:
        merged = self._merged(labels)
        self._track(name, merged)
        return self.registry.counter(name, help, merged)

    def gauge(self, name, help="", labels=None) -> Gauge:
        merged = self._merged(labels)
        self._track(name, merged)
        return self.registry.gauge(name, help, merged)

    def gauge_fn(self, name, fn, help="", labels=None) -> Gauge:
        merged = self._merged(labels)
        self._track(name, merged)
        return self.registry.gauge_fn(name, fn, help, merged)

    def histogram(self, name, help="", labels=None,
                  buckets=DEFAULT_BUCKETS) -> Histogram:
        merged = self._merged(labels)
        self._track(name, merged)
        return self.registry.histogram(name, help, merged, buckets)

    def close(self) -> None:
        with self._lock:
            created, self._created = self._created, []
        for name, labels in created:
            self.registry.remove(name, labels)


# ----------------------------------------------------------------------
# Parsing and multi-source merging (router aggregation, `repro top`)
# ----------------------------------------------------------------------
class Sample:
    """One exposition line: ``name{labels} value``."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict, value: float):
        self.name = name
        self.labels = labels
        self.value = value

    def __repr__(self):
        return f"Sample({self.name!r}, {self.labels!r}, {self.value!r})"

    def __eq__(self, other):
        return (
            isinstance(other, Sample)
            and (self.name, self.labels, self.value)
            == (other.name, other.labels, other.value)
        )


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<ts>\d+))?$"
)
_LABEL_PAIR_RE = re.compile(
    r'\s*([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"\s*(?:,|$)'
)


def _unescape(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    return float(text)


def parse_prometheus(text: str) -> list[Sample]:
    """Strictly parse Prometheus text exposition into flat samples.

    Raises :class:`MetricError` on any line that is neither a comment,
    blank, nor a well-formed sample — the assertion surface for "the
    exposition parses".
    """
    samples: list[Sample] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        m = _SAMPLE_RE.match(stripped)
        if not m:
            raise MetricError(
                f"exposition line {lineno} is malformed: {line!r}"
            )
        labels: dict[str, str] = {}
        raw = m.group("labels")
        if raw:
            pos = 0
            while pos < len(raw):
                pm = _LABEL_PAIR_RE.match(raw, pos)
                if pm is None:
                    raise MetricError(
                        f"exposition line {lineno} has malformed labels: "
                        f"{line!r}"
                    )
                labels[pm.group(1)] = _unescape(pm.group(2))
                pos = pm.end()
        try:
            value = _parse_value(m.group("value"))
        except ValueError as exc:
            raise MetricError(
                f"exposition line {lineno} has a non-numeric value: "
                f"{line!r}"
            ) from exc
        samples.append(Sample(m.group("name"), labels, value))
    return samples


def merge_expositions(parts: list[tuple[dict, str]]) -> str:
    """Combine several expositions into one, stamping extra labels.

    ``parts`` is ``[(extra_labels, exposition_text), ...]`` — the
    cluster router passes its own registry render with no extra labels
    plus each shard scrape stamped ``{"shard": "N", ...}``.  HELP/TYPE
    headers are deduplicated per family (first writer wins); samples
    are regrouped under their family so the output is itself a valid
    exposition.
    """
    helps: dict[str, str] = {}
    types: dict[str, str] = {}
    grouped: dict[str, list[tuple[dict, float]]] = {}
    order: list[str] = []

    for extra, text in parts:
        current: str | None = None
        for line in text.splitlines():
            stripped = line.strip()
            if stripped.startswith("# HELP "):
                rest = stripped[len("# HELP "):]
                name, _, help_text = rest.partition(" ")
                helps.setdefault(name, help_text)
                continue
            if stripped.startswith("# TYPE "):
                rest = stripped[len("# TYPE "):]
                name, _, kind = rest.partition(" ")
                types.setdefault(name, kind.strip())
                current = name
                continue
            if not stripped or stripped.startswith("#"):
                continue
            sample = parse_prometheus(stripped)[0]
            family = sample.name
            if current is not None and (
                family == current
                or family.startswith(current + "_")
            ):
                family = current
            if family not in grouped:
                grouped[family] = []
                order.append(family)
            labels = dict(sample.labels)
            labels.update({k: str(v) for k, v in extra.items()})
            grouped[family].append((sample.name, labels, sample.value))

    lines: list[str] = []
    for family in order:
        if family in helps:
            lines.append(f"# HELP {family} {helps[family]}")
        if family in types:
            lines.append(f"# TYPE {family} {types[family]}")
        for name, labels, value in grouped[family]:
            lab = _render_labels(sorted(labels.items()))
            lines.append(f"{name}{lab} {_fmt_value(value)}")
    return "\n".join(lines) + "\n"
