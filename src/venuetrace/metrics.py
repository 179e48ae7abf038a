"""Ground-truth exposure oracle and per-run metrics.

The oracle works purely on the trace's presence segments (true scripted
positions), never on protocol state, so it can judge any protocol's
notifications. Exposure is evaluated over maximal contiguous co-location
intervals: same location, within the distance threshold, clipped to the
reporter's contagious period, lasting at least the duration threshold.
One sweep per location, by segment start, meets each pair of segments that
overlap in time. Only pairs with a reporter can expose anyone, so it keeps
two open lists: all segments, for an arriving reporter to meet, and the
reporters' alone, for any other arriving segment to meet. The first is
pruned only when a reporter arrives, the one time it is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any


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
    by_location: dict[str | None, list[dict[str, Any]]] = {}
    for seg in sorted(trace_data["presence"], key=lambda s: s["start"]):
        by_location.setdefault(seg["location"], []).append(seg)

    # (user, location, reporter) -> co-location pieces within the period
    pieces: dict[tuple[str, str | None, str], list[tuple[int, int]]] = {}

    def meet(rs: dict[str, Any], us: dict[str, Any]) -> None:
        reporter, user = rs["user"], us["user"]
        period = reporters[reporter]
        start = max(rs["start"], us["start"], period[0])
        end = min(rs["end"], us["end"], period[1])
        dx, dy = rs["x"] - us["x"], rs["y"] - us["y"]
        if user != reporter and start < end and (dx * dx + dy * dy) ** 0.5 <= policy.distance_m:
            pieces.setdefault((user, rs["location"], reporter), []).append((start, end))

    for segments in by_location.values():
        open_segs: list[dict[str, Any]] = []
        open_reporters: list[dict[str, Any]] = []
        for seg in segments:
            now = seg["start"]
            open_reporters = [s for s in open_reporters if s["end"] > now]
            for rs in open_reporters:
                meet(rs, seg)
            if seg["user"] in reporters:  # the reporter arrives second
                open_segs = [s for s in open_segs if s["end"] > now]
                for us in open_segs:
                    meet(seg, us)
                open_reporters.append(seg)
            open_segs.append(seg)

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
    for emitter, loc, payload, injected, tag in zip(
        broadcasts["emitter"], broadcasts["location"], broadcasts["payload"],
        broadcasts["injected"], broadcasts["tag"],
    ):
        if injected or loc is None:
            continue
        if first_venue.setdefault(payload, loc) != loc:
            cross_venue.add(payload)
        if first_tag.setdefault((payload, emitter, loc), tag) != tag:
            cross_visit.add(payload)
    return len(cross_venue), len(cross_visit)


def _info_exposure(trace_data: dict[str, Any], protocol: str) -> dict[str, Any]:
    outcomes = trace_data["outcomes"]
    if protocol == "venue":
        observed = outcomes.get("actor_observed", {})
        backend = observed.get("backend", [])
        ha = observed.get("ha", [])
        tc = observed.get("test_center", [])
        return {
            "backend": {
                "reports_seen": sum(1 for e in backend if e["kind"] == "report"),
                "trace_queries_seen": sum(1 for e in backend if e["kind"] == "trace_query"),
                "distinct_rids_seen": len({e["rid"] for e in backend if e["kind"] == "report"}),
                "true_ids_seen": 0,
            },
            "ha": {
                "digests_stored": sum(1 for e in ha if e["kind"] == "digest"),
                "match_queries": sum(1 for e in ha if e["kind"] == "match"),
                "identifiers_queried": sum(
                    len(e["ids"]) for e in ha if e["kind"] == "match"
                ),
            },
            "test_center": {
                "infection_tests": sum(1 for e in tc if e["kind"] == "infection_test"),
                "true_ids_seen": len(
                    {e["true_id"] for e in tc if e["kind"] == "infection_test"}
                ),
            },
        }
    if protocol == "dp3t":
        return {"backend": {"published_keys": len(outcomes.get("published_keys", []))}}
    return {
        "moh": {
            "registered_phones": len(trace_data["config"]["scenario"]["users"]),
            "traced_edges": len(outcomes.get("moh_edges", [])),
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
    for a in outcomes["assessments"]:
        reporter = a.get("reporter")
        if reporter is None or reporter == a["user"]:
            continue
        if a.get("leak", a["matched_epochs"] >= 1):
            leak_users.add(a["user"])
        if a["exposure_seconds"] >= threshold and a["matched_epochs"] >= 1:
            notified.add((a["user"], reporter))
            notified_pairs.add((a["user"], a.get("venue") or "", reporter))

    hits = gt_pairs_ui & notified
    recall = len(hits) / len(gt_pairs_ui) if gt_pairs_ui else 1.0
    precision = len(hits) / len(notified) if notified else 1.0
    false_negatives = sorted(gt_pairs_ui - notified)
    false_positives = sorted(notified - gt_pairs_ui)

    # data minimisation: deliveries only for venues where the user holds a
    # valid (non-discarded) receipt. Only the venue protocol has deliveries.
    violations: int | None = None
    if protocol == "venue":
        receipt_venues: dict[str, set[str]] = {}
        for v in outcomes["visits"]:
            if not v["discarded"]:
                receipt_venues.setdefault(v["user"], set()).add(v["venue"])
        violations = sum(
            1
            for d in outcomes["deliveries"]
            if d["record_keys"] and d["venue"] not in receipt_venues.get(d["user"], set())
        )

    duty_seconds = outcomes.get("duty_seconds", {})
    duty_cycle = {u: s / horizon for u, s in sorted(duty_seconds.items())}
    mean_duty = sum(duty_cycle.values()) / len(duty_cycle) if duty_cycle else 0.0

    rejections: dict[str, int] = {}
    accepted = 0
    for r in outcomes["reports"]:
        if r["accepted"]:
            accepted += 1
        elif r["code"]:
            rejections[r["code"]] = rejections.get(r["code"], 0) + 1

    cross_venue, cross_visit = _linkage_scan(trace_data["broadcasts"])
    adversary = dict(outcomes["adversary"])
    adversary["cross_venue_ephid_matches"] = cross_venue
    adversary["cross_visit_ephid_matches"] = cross_visit

    venue_anomalies = {
        vid: len(flags) for vid, flags in outcomes.get("venue_anomalies", {}).items()
    }

    return MetricsReport(
        protocol=protocol,
        seed=params["seed"],
        horizon_seconds=horizon,
        recall=recall,
        precision=precision,
        ground_truth_pairs=sorted([list(p) for p in gt]),
        notified_pairs=sorted([list(p) for p in notified_pairs]),
        false_negative_pairs=[list(p) for p in false_negatives],
        false_positive_pairs=[list(p) for p in false_positives],
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
        deliveries=len(outcomes.get("deliveries", [])),
        extras={"street_exposures": sorted([list(p) for p in street_exposures])},
    )


def comparison_rows(reports: list[MetricsReport]) -> list[dict[str, Any]]:
    """Flat rows for the cross-protocol comparison table."""
    rows = []
    for r in reports:
        rows.append(
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
        )
    return rows
