"""Per-layer tracing of the ``venuetrace`` package from outside it.

A :class:`Recorder` replaces public functions and methods with wrappers at
the place where their callers look them up (``actors.build_filter``, not
``bloom.build_filter``, because ``actors`` imported the name). Wrapped calls
become spans ``(span_id, parent_id, name, start, end, run_id)`` kept in
memory; calls made millions of times per run (``ChannelModel.rx_dbm``,
``UserApp.hear``) are only counted. :func:`layer_metrics` turns what the
instrumented iterations recorded into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator, NamedTuple

# Layers that own spans inside the run phase. ``channel`` is counted only, so
# its time is part of ``sim.emit``'s self time; ``scenario`` runs in set-up.
LAYERS = ("crypto", "schedule", "bloom", "actors", "baselines", "sim", "metrics", "cli")
RUN_ROOT = "bench.run"


class Span(NamedTuple):
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    run_id: str


Observer = Callable[["Recorder", tuple, dict, Any], None]


class Recorder:
    """Collects spans and counters while its patches are installed."""

    def __init__(self, run_id: str = "") -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._cells: dict[str, list[int]] = {}  # one-element lists: cheap to bump
        self.distinct: defaultdict[str, set] = defaultdict(set)
        self.actors: list[Any] = []
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def _cell(self, key: str) -> list[int]:
        return self._cells.setdefault(key, [0])

    def add(self, key: str, n: int = 1) -> None:
        self._cell(key)[0] += n

    @property
    def counts(self) -> Counter[str]:
        return Counter({k: cell[0] for k, cell in self._cells.items()})

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span."""
        parent = self._stack[-1] if self._stack else None
        span_id = next(self._ids)
        self._stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end, self.run_id))

    def _spanned(self, name: str, fn: Callable, observe: Observer | None) -> Callable:
        calls = self._cell(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            calls[0] += 1
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable, observe: Observer | str | None) -> Callable:
        """Count calls only. A string ``observe`` names a second counter that
        counts results other than None, without the cost of an observer call."""
        calls = self._cell(name)
        if observe is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[0] += 1
                return fn(*args, **kwargs)
        elif isinstance(observe, str):
            hits = self._cell(observe)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[0] += 1
                result = fn(*args, **kwargs)
                if result is not None:
                    hits[0] += 1
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[0] += 1
                result = fn(*args, **kwargs)
                observe(self, args, kwargs, result)
                return result

        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self, targets: list[tuple[Any, str, str, bool, Observer | str | None]]) -> None:
        """Patch ``owner.attr`` for each (owner, attr, name, spanned, observer).

        A target the package no longer has is skipped and its name listed
        in ``missing``; its metrics then read 0.
        """
        for owner, attr, name, spanned, observe in targets:
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            make = self._spanned if spanned else self._counted
            setattr(owner, attr, make(name, original, observe))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, targets: list[tuple[Any, str, str, bool, Observer | str | None]]
                  ) -> Iterator[None]:
        """:meth:`install` for the enclosed block only."""
        self.install(targets)
        try:
            yield
        finally:
            self.uninstall()

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans):
                fh.write(json.dumps(s._asdict(), separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# Observers: counts and ratios measured where the work happens
# ---------------------------------------------------------------------------

def _obs_commit(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.distinct["crypto.commit.messages"].add(args[0] if args else kwargs["message"])


def _obs_verify(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.distinct["crypto.verify.triples"].add(tuple(args))


def _obs_build_filter(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.add("bloom.build_filter.elements", result.count)
    rec.add("bloom.build_filter.bits", result.m_bits)


def _obs_match_batch(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    filters, venue_id, ids = args
    rec.add("bloom.match_batch.ids", len(ids))
    rec.add("bloom.match_batch.digests_scanned", len(filters.get(venue_id, ())))
    rec.add("bloom.match_batch.hits", sum(result))


def _obs_report(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.add("actors.process_report.accepted", result[0] is not None)


def _obs_actor(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.actors.append(args[0])


def targets(vt: Any) -> list[tuple[Any, str, str, bool, Observer | str | None]]:
    """What to patch, as (owner, attribute, span name, spanned, observer).

    ``vt`` is a namespace holding the imported ``venuetrace`` modules.
    """
    a, b, s = vt.actors, vt.baselines, vt.sim
    return [
        (vt.crypto, "commit", "crypto.commit", True, _obs_commit),
        (vt.crypto, "verify_opening", "crypto.verify_opening", True, None),
        (vt.crypto, "verify", "crypto.verify", True, _obs_verify),
        (vt.crypto, "sign", "crypto.sign", True, None),
        (vt.crypto, "keygen", "crypto.keygen", True, None),
        (vt.crypto, "prg_expand", "crypto.prg_expand", True, None),
        (vt.schedule, "prg_expand", "crypto.prg_expand", True, None),
        (a, "derive_window_ephids", "schedule.derive_window_ephids", True, None),
        (b, "dp3t_derive_ephids", "schedule.dp3t_derive_ephids", True, None),
        (a, "build_filter", "bloom.build_filter", True, _obs_build_filter),
        (a, "match_batch", "bloom.match_batch", True, _obs_match_batch),
        (a.BackendServer, "process_report", "actors.process_report", True, _obs_report),
        (a.BackendServer, "answer_trace", "actors.answer_trace", True, None),
        (a.UserApp, "enter_venue", "actors.enter_venue", True, None),
        (a.UserApp, "leave_venue", "actors.leave_venue", True, None),
        (a.UserApp, "epoch_tick", "actors.epoch_tick", True, None),
        (a.UserApp, "evaluate_risk", "actors.evaluate_risk", True, None),
        (a.Venue, "emit_digest", "actors.emit_digest", True, None),
        (a.UserApp, "hear", "actors.hear", False, None),
        (a.HealthAuthority, "__init__", "actors.init", False, _obs_actor),
        (a.TestCenter, "__init__", "actors.init", False, _obs_actor),
        (a.Venue, "__init__", "actors.init", False, _obs_actor),
        (a.BackendServer, "__init__", "actors.init", False, _obs_actor),
        (s, "dp3t_match", "baselines.dp3t_match", True, None),
        (b.Dp3tUserApp, "start_day", "baselines.start_day", True, None),
        (b.Dp3tUserApp, "hear", "baselines.hear", False, None),
        (b.TTUserApp, "hear", "baselines.hear", False, None),
        (vt.channel.ChannelModel, "rx_dbm", "channel.rx_dbm", False, "channel.rx_dbm.in_range"),
        (s.Simulation, "__init__", "sim.init", True, None),
        (s.Simulation, "emit", "sim.emit", True, None),
        (s.Simulation, "schedule", "sim.schedule", False, None),
        (s.Simulation, "run", "sim.run", True, None),
        (vt.cli, "collect_metrics", "metrics.collect_metrics", True, None),
        (vt.metrics, "ground_truth_exposures", "metrics.ground_truth_exposures", True, None),
        (vt.cli, "write_trace", "cli.write_trace", True, None),
        (vt.cli, "read_trace", "cli.read_trace", True, None),
        (vt.scenario, "build_population_scenario", "scenario.build_population_scenario", True, None),
        (vt.scenario, "validate_scenario", "scenario.validate_scenario", True, None),
        (s, "validate_scenario", "scenario.validate_scenario", True, None),
    ]


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children.

    Calls are synchronous, so children nest inside their parent's interval
    and never overlap one another.
    """
    out = {s.span_id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent_id is not None:
            out[s.parent_id] -= s.end - s.start
    return out


def busy_times(spans: list[Span]) -> dict[str, float]:
    """Wall time per span name, counting a call nested in a same-named call once."""
    by_id = {s.span_id: s for s in spans}
    out: defaultdict[str, float] = defaultdict(float)
    for s in spans:
        p = s.parent_id
        while p is not None and by_id[p].name != s.name:
            p = by_id[p].parent_id
        if p is None:
            out[s.name] += s.end - s.start
    return dict(out)


def roots(spans: list[Span]) -> dict[int, str]:
    """Name of the outermost ancestor of every span."""
    by_id = {s.span_id: s for s in spans}
    out: dict[int, str] = {}

    def root_of(span_id: int) -> str:
        if span_id not in out:
            s = by_id[span_id]
            out[span_id] = s.name if s.parent_id is None else root_of(s.parent_id)
        return out[span_id]

    for s in spans:
        root_of(s.span_id)
    return out


def layer_self_times(spans: list[Span], root_name: str) -> dict[str, float]:
    """Self time per layer (span-name prefix) over the tree under ``root_name``."""
    selfs = self_times(spans)
    root_of = roots(spans)
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        if root_of[s.span_id] == root_name and s.name != root_name:
            layer = s.name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + selfs[s.span_id]
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

_CALLS_AND_BUSY = (
    "crypto.commit", "crypto.verify_opening", "crypto.verify", "crypto.sign",
    "crypto.prg_expand", "crypto.keygen",
    "schedule.derive_window_ephids", "schedule.dp3t_derive_ephids",
    "bloom.build_filter", "bloom.match_batch",
    "actors.enter_venue", "actors.leave_venue", "actors.epoch_tick",
    "actors.emit_digest", "actors.evaluate_risk",
    "baselines.dp3t_match", "baselines.start_day",
)
_SELF_AND_LATENCY = ("actors.process_report", "actors.answer_trace")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    def unit(name: str) -> str:
        for suffix, u in (("_ms", "ms"), ("_s", "s"), ("_ratio", "ratio")):
            if name.endswith(suffix):
                return u
        return "count"

    return {name: unit(name) for name in layer_metrics(Recorder(), 0.0)}


def layer_metrics(rec: Recorder, untraced_run_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced iteration; every name is always present."""
    spans, counts = rec.spans, rec.counts
    busy = busy_times(spans)
    selfs = self_times(spans)
    self_by_name: defaultdict[str, float] = defaultdict(float)
    durations: defaultdict[str, list[float]] = defaultdict(list)
    for s in spans:
        self_by_name[s.name] += selfs[s.span_id]
        durations[s.name].append(s.end - s.start)

    m: dict[str, float] = {}
    for name in _CALLS_AND_BUSY:
        m[f"{name}.calls"] = counts[name]
        m[f"{name}.busy_s"] = busy.get(name, 0.0)
    m["crypto.verify.distinct"] = len(rec.distinct["crypto.verify.triples"])
    m["crypto.verify.distinct_ratio"] = _ratio(
        m["crypto.verify.distinct"], counts["crypto.verify"])
    m["crypto.commit.distinct_messages"] = len(rec.distinct["crypto.commit.messages"])
    m["crypto.commit.distinct_message_ratio"] = _ratio(
        m["crypto.commit.distinct_messages"], counts["crypto.commit"])
    for key in ("bloom.build_filter.elements", "bloom.build_filter.bits",
                "bloom.match_batch.ids", "bloom.match_batch.digests_scanned"):
        m[key] = counts[key]
    m["bloom.match_batch.hit_ratio"] = _ratio(
        counts["bloom.match_batch.hits"], counts["bloom.match_batch.ids"])
    for name in _SELF_AND_LATENCY:
        m[f"{name}.calls"] = counts[name]
        m[f"{name}.busy_s"] = busy.get(name, 0.0)
        m[f"{name}.self_s"] = self_by_name[name]
        m[f"{name}.p50_ms"] = 1e3 * percentile(durations[name], 50)
        m[f"{name}.p99_ms"] = 1e3 * percentile(durations[name], 99)
    m["actors.process_report.accept_ratio"] = _ratio(
        counts["actors.process_report.accepted"], counts["actors.process_report"])
    m["actors.observed_entries"] = sum(len(getattr(x, "observed", ())) for x in rec.actors)
    m["channel.rx_dbm.calls"] = counts["channel.rx_dbm"]
    m["channel.rx_dbm.in_range_ratio"] = _ratio(
        counts["channel.rx_dbm.in_range"], counts["channel.rx_dbm"])
    m["sim.emit.calls"] = counts["sim.emit"]
    m["sim.emit.self_s"] = self_by_name["sim.emit"]
    m["sim.scanned_per_broadcast"] = _ratio(counts["channel.rx_dbm"], counts["sim.emit"])
    m["sim.deliveries"] = counts["actors.hear"] + counts["baselines.hear"]
    m["sim.schedule.calls"] = counts["sim.schedule"]
    m["sim.run.self_s"] = self_by_name["sim.run"]
    for name in ("metrics.collect_metrics", "metrics.ground_truth_exposures",
                 "cli.write_trace", "cli.read_trace",
                 "scenario.build_population_scenario", "scenario.validate_scenario"):
        m[f"{name}.busy_s"] = busy.get(name, 0.0)
    for layer, seconds in layer_self_times(spans, RUN_ROOT).items():
        m[f"layer.{layer}.self_s"] = seconds
    m["trace.unattributed_s"] = self_by_name[RUN_ROOT]
    m["trace.run_s"] = busy.get(RUN_ROOT, 0.0)
    m["trace.untraced_run_s"] = untraced_run_s
    m["trace.overhead_s"] = m["trace.run_s"] - untraced_run_s
    m["trace.spans"] = len(spans)
    return m
