from hypothesis import given, settings
from hypothesis import strategies as st

from venuetrace.metrics import (
    ExposurePolicy,
    _linkage_scan,
    collect_metrics,
    comparison_rows,
    ground_truth_exposures,
)
from venuetrace.scenario import build_population_scenario
from venuetrace.sim import BROADCAST_KEYS, run

DAY = 86400


def synthetic_trace(presence, reporters):
    return {"presence": presence, "outcomes": {"reporters": reporters}}


def seg(user, start, end, location, x=0.0, y=0.0):
    return {"user": user, "start": start, "end": end, "location": location, "x": x, "y": y}


class TestGroundTruthOracle:
    def test_long_close_contact_exposed(self):
        trace = synthetic_trace(
            [
                seg("sick", 1000, 1000 + 1080, "v0", 0.0, 0.0),
                seg("bob", 1000, 1000 + 1080, "v0", 1.0, 0.0),
            ],
            {"sick": [0, DAY]},
        )
        assert ground_truth_exposures(trace)[0] == {("bob", "v0", "sick")}

    def test_ten_second_street_encounter_not_exposed(self):
        trace = synthetic_trace(
            [
                seg("sick", 1000, 1010, None, 0.0, 0.0),
                seg("bob", 1000, 1010, None, 0.5, 0.0),
            ],
            {"sick": [0, DAY]},
        )
        assert ground_truth_exposures(trace) == (set(), set())

    def test_twenty_minutes_at_five_meters_not_exposed(self):
        trace = synthetic_trace(
            [
                seg("sick", 1000, 1000 + 1200, "v0", 0.0, 0.0),
                seg("bob", 1000, 1000 + 1200, "v0", 5.0, 0.0),
            ],
            {"sick": [0, DAY]},
        )
        assert ground_truth_exposures(trace)[0] == set()

    def test_exactly_fifteen_minutes_exposed(self):
        trace = synthetic_trace(
            [
                seg("sick", 0, 900, "v0", 0.0, 0.0),
                seg("bob", 0, 900, "v0", 2.0, 0.0),  # exactly at the distance gate
            ],
            {"sick": [0, DAY]},
        )
        assert ground_truth_exposures(trace)[0] == {("bob", "v0", "sick")}

    def test_contiguous_pieces_merge(self):
        # bob shifts seat mid-contact; both positions stay within 2 m
        trace = synthetic_trace(
            [
                seg("sick", 0, 1000, "v0", 0.0, 0.0),
                seg("bob", 0, 500, "v0", 1.0, 0.0),
                seg("bob", 500, 1000, "v0", 1.5, 0.0),
            ],
            {"sick": [0, DAY]},
        )
        assert ground_truth_exposures(trace)[0] == {("bob", "v0", "sick")}

    def test_contact_outside_contagious_period_ignored(self):
        trace = synthetic_trace(
            [
                seg("sick", 1000, 1000 + 1080, "v0", 0.0, 0.0),
                seg("bob", 1000, 1000 + 1080, "v0", 1.0, 0.0),
            ],
            {"sick": [DAY, 2 * DAY]},
        )
        assert ground_truth_exposures(trace)[0] == set()

    def test_policy_overrides(self):
        trace = synthetic_trace(
            [
                seg("sick", 0, 600, "v0", 0.0, 0.0),
                seg("bob", 0, 600, "v0", 3.0, 0.0),
            ],
            {"sick": [0, DAY]},
        )
        relaxed = ExposurePolicy(distance_m=4.0, duration_seconds=300)
        assert ground_truth_exposures(trace, relaxed)[0] == {("bob", "v0", "sick")}
        assert ground_truth_exposures(trace)[0] == set()


HORIZON = 120  # seconds each drawn user's segments cover, back to back


@st.composite
def small_worlds(draw):
    """2-5 users with back-to-back segments over [0, HORIZON) at a venue or
    the street on a small integer grid, some of them reporters, a policy."""
    presence, reporters = [], {}
    for i in range(draw(st.integers(2, 5))):
        user = f"u{i}"
        cuts = draw(st.lists(st.integers(1, HORIZON - 1), max_size=4, unique=True))
        bounds = [0, *sorted(cuts), HORIZON]
        for start, end in zip(bounds, bounds[1:]):
            location = draw(st.sampled_from(["v0", "v1", None]))
            x, y = draw(st.integers(0, 3)), draw(st.integers(0, 3))
            presence.append(seg(user, start, end, location, float(x), float(y)))
        if draw(st.booleans()):
            reporters[user] = sorted(draw(st.lists(st.integers(0, HORIZON), min_size=2, max_size=2)))
    policy = ExposurePolicy(
        distance_m=draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])),
        duration_seconds=draw(st.integers(1, 60)),
    )
    return draw(st.permutations(presence)), reporters, policy


def per_second_exposures(presence, reporters, policy):
    """Reference oracle: a (user, location, reporter) triple is exposed when
    a run of at least ``duration_seconds`` consecutive seconds has both at
    the location, within ``distance_m``, inside the period [p0, p1)."""
    where = {}  # (user, second) -> (location, x, y)
    for s in presence:
        for t in range(s["start"], s["end"]):
            where[s["user"], t] = (s["location"], s["x"], s["y"])
    users = {s["user"] for s in presence}
    exposed = set()
    for reporter, (p0, p1) in reporters.items():
        for user in users - {reporter}:
            run_location, run = None, 0
            for t in range(HORIZON):
                (loc_r, xr, yr), (loc_u, xu, yu) = where[reporter, t], where[user, t]
                close = (xr - xu) ** 2 + (yr - yu) ** 2 <= policy.distance_m ** 2
                if loc_r == loc_u and close and p0 <= t < p1:
                    run = run + 1 if run and run_location == loc_r else 1
                    run_location = loc_r
                    if run >= policy.duration_seconds:
                        exposed.add((user, run_location or "street", reporter))
                else:
                    run = 0
    return exposed


@settings(max_examples=150, deadline=None)
@given(world=small_worlds())
def test_oracle_matches_per_second_reference(world):
    presence, reporters, policy = world
    venue, street = ground_truth_exposures(synthetic_trace(presence, reporters), policy)
    expected = per_second_exposures(presence, reporters, policy)
    assert venue == {e for e in expected if e[1] != "street"}
    assert street == {e for e in expected if e[1] == "street"}


LINKAGE_KEYS = ("emitter", "location", "payload", "injected", "tag")


@st.composite
def broadcast_columns(draw):
    """Up to 40 broadcast rows over few emitters, payloads and tags, at two
    venues or the street, some of them injected."""
    rows = draw(st.lists(st.tuples(
        st.integers(0, 2),
        st.sampled_from(["v0", "v1", None]),
        st.sampled_from(["aa", "bb", "cc"]),
        st.booleans(),
        st.sampled_from(["visit1", "visit2", "day0"]),
    ), max_size=40))
    return {key: [row[i] for row in rows] for i, key in enumerate(LINKAGE_KEYS)}


def per_payload_linkage(columns):
    """Reference: a payload matches across venues when its honest venue rows
    name two venues, and across visits when they name two tags for one
    (emitter, venue)."""
    spots = {}  # payload -> {(emitter, venue, tag)}
    for emitter, loc, payload, injected, tag in zip(*(columns[k] for k in LINKAGE_KEYS)):
        if not injected and loc is not None:
            spots.setdefault(payload, set()).add((emitter, loc, tag))
    cross_venue = sum(len({loc for _, loc, _ in s}) > 1 for s in spots.values())
    cross_visit = sum(
        any(len({t for e2, l2, t in s if (e2, l2) == (e, l)}) > 1 for e, l, _ in s)
        for s in spots.values()
    )
    return cross_venue, cross_visit


@settings(max_examples=200, deadline=None)
@given(columns=broadcast_columns())
def test_linkage_scan_matches_per_payload_definition(columns):
    assert _linkage_scan(columns) == per_payload_linkage(columns)


class TestCollectMetrics:
    def test_population_run_reports_all_sections(self):
        sc = build_population_scenario(n_users=10, days=3, seed=4)
        trace = run(sc, "venue", seed=4)
        report = collect_metrics(trace.data)
        assert report.protocol == "venue"
        assert 0.0 <= report.recall <= 1.0
        assert report.data_minimisation_violations == 0
        assert set(report.duty_cycle) == set(sc.users)
        assert report.accepted_reports > 0
        d = report.to_dict()
        assert d["recall"] == report.recall

    def test_rethresholding_without_resimulation(self):
        sc = build_population_scenario(n_users=10, days=3, seed=4)
        trace = run(sc, "venue", seed=4)
        strict = collect_metrics(trace.data, exposure_seconds=100 * 3600)
        assert strict.at_risk_users == []

    def test_duty_cycle_values(self):
        sc = build_population_scenario(n_users=6, days=2, seed=5)
        venue_duty = collect_metrics(run(sc, "venue", seed=5).data).mean_duty_cycle
        dp3t_duty = collect_metrics(run(sc, "dp3t", seed=5).data).mean_duty_cycle
        assert 0.0 < venue_duty < 0.2
        assert dp3t_duty == 1.0

    def test_comparison_rows(self):
        sc = build_population_scenario(n_users=6, days=2, seed=6)
        reports = [collect_metrics(run(sc, p, seed=6).data) for p in ("venue", "dp3t")]
        rows = comparison_rows(reports)
        assert [r["protocol"] for r in rows] == ["venue", "dp3t"]
        assert all("recall" in r and "mean_duty_cycle" in r for r in rows)

    def test_linkage_scan_counts_cross_venue_payloads(self):
        sc = build_population_scenario(n_users=10, days=3, seed=7)
        trace = run(sc, "venue", seed=7)
        report = collect_metrics(trace.data)
        assert report.adversary["cross_venue_ephid_matches"] == 0
        assert report.adversary["cross_visit_ephid_matches"] == 0
        # corrupt the log: pretend one payload showed up at a second venue
        doctored = dict(trace.data)
        columns = dict(trace.data["broadcasts"])
        for key in BROADCAST_KEYS:
            columns[key] = columns[key] + [columns[key][0]]
        columns["location"][-1] = "elsewhere"
        doctored["broadcasts"] = columns
        assert collect_metrics(doctored).adversary["cross_venue_ephid_matches"] == 1
