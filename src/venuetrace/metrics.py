"""Ground-truth exposure oracle and per-run metrics.

The oracle works purely on the trace's presence segments (true scripted
positions), never on protocol state, so it can judge any protocol's
notifications. Exposure is evaluated over maximal contiguous co-location
intervals: same location, within the distance threshold, clipped to the
reporter's contagious period, lasting at least the duration threshold.
Each segment is filed under its location and its cell of a grid at least
the distance threshold wide (``channel.cell_width``), so a reporter's
segment meets only the segments in the 3x3 block of cells around its own,
once per ordered pair: the cost grows with co-located pairs.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field, fields
from typing import Any

from .channel import cell_width
from .trace import COLUMNS, by_key, length, select


@dataclass(frozen=True)
class ExposurePolicy:
    distance_m: float = 2.0
    duration_seconds: int = 900


def _merge_intervals(pieces: list[tuple[int, int]]) -> list[tuple[int, int]]:
    merged: list[tuple[int, int]] = []
    for start, end in sorted(pieces):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


# one presence segment: (start, end, user, location, x, y)
_Segment = tuple[int, int, str, Any, float, float]


def ground_truth_exposures(
    trace_data: dict[str, Any], policy: ExposurePolicy | None = None
) -> tuple[set[tuple[str, str, str]], set[tuple[str, str, str]]]:
    """(venue exposures, street exposures): the (user, location, reporter)
    triples exposed per the physical oracle, from true positions and the
    reporters' contagious periods only, independent of every protocol's
    bookkeeping. Street triples name the location ``"street"``: exposures a
    geo-selective protocol gives up by design.
    """
    policy = policy or ExposurePolicy()
    reporters: dict[str, list[int]] = trace_data["outcomes"]["reporters"]
    segments = list(select(trace_data["presence"], "start", "end", "user", "location", "x", "y"))
    width = cell_width(policy.distance_m, [s[4] for s in segments] + [s[5] for s in segments])
    cells: dict[tuple[str | None, float, float], list[_Segment]] = {}
    for seg in segments:
        if seg[0] < seg[1]:  # a segment that lasts no time meets nothing
            cells.setdefault((seg[3], seg[4] // width, seg[5] // width), []).append(seg)

    # (user, location, reporter) -> co-location pieces within the period
    pieces: dict[tuple[str, str | None, str], list[tuple[int, int]]] = defaultdict(list)
    for r_start, r_end, reporter, location, rx, ry in segments:
        period = reporters.get(reporter, (0, 0))  # an empty period for a non-reporter
        lo, hi = max(r_start, period[0]), min(r_end, period[1])  # the contagious part
        if lo >= hi:
            continue
        cx, cy = rx // width, ry // width
        for key in [(location, cx + i, cy + j) for i in (-1, 0, 1) for j in (-1, 0, 1)]:
            for u_start, u_end, user, _, ux, uy in cells.get(key, ()):
                if u_start >= hi or u_end <= lo or user == reporter:
                    continue
                dx, dy = rx - ux, ry - uy
                if (dx * dx + dy * dy) ** 0.5 <= policy.distance_m:
                    pieces[user, location, reporter].append((max(lo, u_start), min(hi, u_end)))

    exposed = {
        key
        for key, intervals in pieces.items()
        if any(end - start >= policy.duration_seconds for start, end in _merge_intervals(intervals))
    }
    venue = {key for key in exposed if key[1] is not None}
    street = {(user, "street", reporter) for user, location, reporter in exposed if location is None}
    return venue, street


@dataclass
class MetricsReport:
    protocol: str
    seed: int
    horizon_seconds: int
    recall: float
    precision: float
    ground_truth_pairs: list[list[str]]
    notified_pairs: list[list[str]]
    false_negative_pairs: list[list[str]]
    false_positive_pairs: list[list[str]]
    at_risk_users: list[str]
    leak_users: list[str]
    data_minimisation_violations: int | None
    duty_cycle: dict[str, float]
    mean_duty_cycle: float
    accepted_reports: int
    rejections: dict[str, int]
    venue_anomalies: dict[str, int]
    adversary: dict[str, Any]
    info_exposure: dict[str, Any]
    deliveries: int = 0
    extras: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _linkage_scan(broadcasts: dict[str, list[Any]]) -> tuple[int, int]:
    """(cross-venue matches, cross-visit matches) over honest broadcasts,
    read from the trace's broadcast columns (emitters stay interned).

    A payload matches across venues when some row of it names a venue
    other than its first one, and across visits when some row names a tag
    other than the first one of its (payload, emitter, venue).
    """
    first_venue: dict[str, str] = {}
    first_tag: dict[tuple[str, int, str], str] = {}
    cross_venue: set[str] = set()
    cross_visit: set[str] = set()
    for emitter, loc, payload, injected, tag in select(
        broadcasts, "emitter", "location", "payload", "injected", "tag"
    ):
        if injected or loc is None:
            continue
        if first_venue.setdefault(payload, loc) != loc:
            cross_venue.add(payload)
        if first_tag.setdefault((payload, emitter, loc), tag) != tag:
            cross_visit.add(payload)
    return len(cross_venue), len(cross_visit)


def _of_kind(log: dict[str, Any], kind: str, key: str) -> list[Any]:
    """``key``'s value in each row of the actor log ``log`` of ``kind``."""
    return [value for k, value in select(log, "kind", key) if k == kind]


def _resolved(trace_data: dict[str, Any], table: str, log: dict[str, Any]) -> dict[str, list[Any]]:
    """Actor log ``log``, declared as ``table``, as columns of a value per row (None
    where a row has none), each index replaced by the value it stands for."""
    indexed = {key: section for key, (_, section) in COLUMNS.get(table, {}).items() if section}
    return {key: [v if v is None or key not in indexed else trace_data[indexed[key]][v]
                  for v, in select(log, key)] for key in by_key(log)}


def _info_exposure(trace_data: dict[str, Any], protocol: str) -> dict[str, Any]:
    outcomes = trace_data["outcomes"]
    if protocol == "venue":
        observed = outcomes.get("actor_observed", {})
        backend = _resolved(trace_data, "outcomes.actor_observed.backend", observed.get("backend", {}))
        ha, tc = (observed.get(a, {}) for a in ("ha", "test_center"))
        users = set(trace_data["config"]["scenario"]["users"])
        return {
            "backend": {
                "reports_seen": len(_of_kind(backend, "report", "kind")),
                "trace_queries_seen": len(_of_kind(backend, "trace_query", "kind")),
                "distinct_rids_seen": len(set(_of_kind(backend, "report", "rid"))),
                "true_ids_seen": len({
                    v for k, values in backend.items() if k not in ("kind", "venue_id")
                    for v in values if isinstance(v, str) and v in users
                }),
            },
            "ha": {
                "digests_stored": len(_of_kind(ha, "digest", "kind")),
                "match_queries": len(_of_kind(ha, "match", "kind")),
                "identifiers_queried": sum(map(len, _of_kind(ha, "match", "ids"))),
            },
            "test_center": {
                "infection_tests": len(_of_kind(tc, "infection_test", "kind")),
                "true_ids_seen": len(set(_of_kind(tc, "infection_test", "true_id"))),
            },
        }
    if protocol == "dp3t":
        return {"backend": {"published_keys": length(outcomes.get("published_keys", {}))}}
    return {
        "moh": {
            "registered_phones": len(trace_data["config"]["scenario"]["users"]),
            "traced_edges": length(outcomes.get("moh_edges", {})),
        }
    }


def collect_metrics(
    trace_data: dict[str, Any],
    exposure_policy: ExposurePolicy | None = None,
    exposure_seconds: int | None = None,
) -> MetricsReport:
    """Compute the full metrics report from a trace (no re-simulation).

    ``exposure_seconds`` optionally re-thresholds the stored per-assessment
    matched-exposure values without re-running the protocols.
    """
    config = trace_data["config"]
    params = config["params"]
    protocol = params["protocol"]
    outcomes = trace_data["outcomes"]
    horizon = config["scenario"]["horizon_seconds"]

    # street exposures happen off-premise: outside geo-selective coverage,
    # so they are unreachable for the venue protocol by design
    gt, street_exposures = ground_truth_exposures(trace_data, exposure_policy)
    gt_pairs_ui = {(u, i) for (u, _, i) in gt}

    threshold = params["exposure_seconds"] if exposure_seconds is None else exposure_seconds
    notified: set[tuple[str, str]] = set()
    notified_pairs: set[tuple[str, str, str]] = set()
    leak_users: set[str] = set()
    for user, reporter, venue, matched, exposure, leak in select(
        outcomes["assessments"], "user", "reporter", "venue", "matched_epochs",
        "exposure_seconds", "leak",
    ):
        if reporter is None or reporter == user:
            continue
        if matched >= 1 if leak is None else leak:  # only DP-3T rows carry ``leak``
            leak_users.add(user)
        if exposure >= threshold and matched >= 1:
            notified.add((user, reporter))
            notified_pairs.add((user, venue or "", reporter))

    hits = gt_pairs_ui & notified
    recall = len(hits) / len(gt_pairs_ui) if gt_pairs_ui else 1.0
    precision = len(hits) / len(notified) if notified else 1.0

    # data minimisation: deliveries only for venues where the user holds a
    # valid (non-discarded) receipt. Only the venue protocol has deliveries.
    violations: int | None = None
    if protocol == "venue":
        receipts = {(user, venue) for user, venue, discarded
                    in select(outcomes["visits"], "user", "venue", "discarded") if not discarded}
        violations = sum(
            1
            for user, venue, keys in select(outcomes["deliveries"], "user", "venue", "record_keys")
            if keys and (user, venue) not in receipts
        )

    duty_seconds = outcomes.get("duty_seconds", {})
    duty_cycle = {u: s / horizon for u, s in sorted(duty_seconds.items())}
    mean_duty = sum(duty_cycle.values()) / len(duty_cycle) if duty_cycle else 0.0

    verdicts = list(select(outcomes["reports"], "accepted", "code"))
    accepted = sum(1 for ok, _ in verdicts if ok)
    rejections = dict(Counter(code for ok, code in verdicts if not ok and code))

    cross_venue, cross_visit = _linkage_scan(trace_data["broadcasts"])
    adversary = dict(outcomes["adversary"])
    adversary["cross_venue_ephid_matches"] = cross_venue
    adversary["cross_visit_ephid_matches"] = cross_visit

    venue_anomalies = {
        vid: length(flags) for vid, flags in outcomes.get("venue_anomalies", {}).items()
    }

    return MetricsReport(
        protocol=protocol,
        seed=params["seed"],
        horizon_seconds=horizon,
        recall=recall,
        precision=precision,
        ground_truth_pairs=sorted([list(p) for p in gt]),
        notified_pairs=sorted([list(p) for p in notified_pairs]),
        false_negative_pairs=[list(p) for p in sorted(gt_pairs_ui - notified)],
        false_positive_pairs=[list(p) for p in sorted(notified - gt_pairs_ui)],
        at_risk_users=sorted({u for (u, _) in notified}),
        leak_users=sorted(leak_users),
        data_minimisation_violations=violations,
        duty_cycle=duty_cycle,
        mean_duty_cycle=mean_duty,
        accepted_reports=accepted,
        rejections=rejections,
        venue_anomalies=venue_anomalies,
        adversary=adversary,
        info_exposure=_info_exposure(trace_data, protocol),
        deliveries=length(outcomes.get("deliveries", {})),
        extras={"street_exposures": sorted([list(p) for p in street_exposures])},
    )


def comparison_rows(reports: list[MetricsReport]) -> list[dict[str, Any]]:
    """Flat rows for the cross-protocol comparison table."""
    return [
        {
            "protocol": r.protocol,
            "recall": round(r.recall, 4),
            "precision": round(r.precision, 4),
            "at_risk_users": len(r.at_risk_users),
            "leak_users": len(r.leak_users),
            "mean_duty_cycle": round(r.mean_duty_cycle, 4),
            "data_minimisation_violations": r.data_minimisation_violations,
            "accepted_reports": r.accepted_reports,
            "rejected_reports": sum(r.rejections.values()),
            "cross_venue_ephid_matches": r.adversary["cross_venue_ephid_matches"],
        }
        for r in reports
    ]
