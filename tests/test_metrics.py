import copy

from hypothesis import example, given, settings
from hypothesis import strategies as st

from venuetrace.metrics import (
    ExposurePolicy,
    _linkage_scan,
    collect_metrics,
    comparison_rows,
    ground_truth_exposures,
)
from venuetrace.scenario import build_population_scenario
from venuetrace.sim import run
from venuetrace.trace import columns, rows

from bundled import nudge

DAY = 86400


def synthetic_trace(presence, reporters):
    return {"presence": columns(presence), "outcomes": {"reporters": reporters}}


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


@st.composite
def grid_worlds(draw):
    """Like ``small_worlds``, at the distances 0, 0.5, 2, 15 and 1e6 m. The
    points sit on, or one step beside, the borders of a grid about one
    distance wide (negative ones too), or a few steps apart at 2**49-2**54
    cell widths from the origin, where ``x // width`` alone is no longer
    exact. Some points lie exactly one distance from an earlier one."""
    distance = draw(st.sampled_from([0.0, 0.5, 2.0, 15.0, 1e6]))
    plain = max(distance, 1.0)
    if draw(st.booleans()):
        exponent = draw(st.integers(49, 54))
        far = draw(st.integers(2**exponent, 2**(exponent + 1))) * draw(st.sampled_from([1, -1]))
        coordinate = st.builds(nudge, st.just(far * plain), st.sampled_from(range(-4, 5)))
    else:
        unit = st.sampled_from([plain, plain * (1 + 2**-20)])  # with or without a pad
        border = st.builds(lambda k, u, steps: nudge(k * u, steps),
                           st.integers(-3, 3), unit, st.integers(-1, 1))
        coordinate = st.one_of(border, st.floats(-3 * plain, 3 * plain, allow_nan=False))
    offsets = [(distance, 0.0), (-distance, 0.0), (0.0, distance), (0.0, -distance)]
    points = []

    def point():
        if points and draw(st.booleans()):
            (x, y), (dx, dy) = draw(st.sampled_from(points)), draw(st.sampled_from(offsets))
            return x + dx, y + dy
        points.append((draw(coordinate), draw(coordinate)))
        return points[-1]

    presence, reporters = [], {}
    for i in range(draw(st.integers(2, 5))):
        user = f"u{i}"
        cuts = draw(st.lists(st.integers(1, HORIZON - 1), max_size=2, unique=True))
        bounds = [0, *sorted(cuts), HORIZON]
        for start, end in zip(bounds, bounds[1:]):
            presence.append(seg(user, start, end, draw(st.sampled_from(["v0", None])), *point()))
        if draw(st.booleans()):
            reporters[user] = sorted(draw(st.lists(st.integers(0, HORIZON), min_size=2, max_size=2)))
    policy = ExposurePolicy(distance_m=distance, duration_seconds=draw(st.integers(1, 30)))
    return draw(st.permutations(presence)), reporters, policy


def all_pairs_exposures(presence, reporters, policy):
    """Reference oracle: every ordered (reporter segment, other user's
    segment) pair at one location, within ``distance_m`` by the package's
    distance expression, adds its seconds inside the period; a triple is
    exposed by a run of ``duration_seconds`` of those seconds."""
    seconds = {}  # (user, location, reporter) -> seconds of co-location
    for r in presence:
        if r["user"] not in reporters:
            continue
        p0, p1 = reporters[r["user"]]
        for u in presence:
            dx, dy = r["x"] - u["x"], r["y"] - u["y"]
            if (u["user"] == r["user"] or u["location"] != r["location"]
                    or not (dx * dx + dy * dy) ** 0.5 <= policy.distance_m):
                continue
            key = (u["user"], u["location"] or "street", r["user"])
            span = range(max(r["start"], u["start"], p0), min(r["end"], u["end"], p1))
            seconds.setdefault(key, set()).update(span)
    return {
        key for key, held in seconds.items()
        if any(all(t + k in held for k in range(policy.duration_seconds)) for t in held)
    }


@settings(max_examples=200, deadline=None)
@given(world=grid_worlds())
# pairs that ``x // width`` puts two cells apart when the width lacks its
# 2**-20 pad (a distance that rounds down to 2 m), or its 2**-40 share of the
# largest coordinate (two pairs one or two steps apart)
@example(world=(
    [seg("u0", 0, HORIZON, "v0", -5e-324), seg("u1", 0, HORIZON, "v0", 2.0)],
    {"u0": [0, HORIZON]}, ExposurePolicy(duration_seconds=1),
))
@example(world=(
    [seg("u0", 0, HORIZON, "v0", 5.89508993764905e16),
     seg("u1", 0, HORIZON, "v0", 5.8950899376490504e16)],
    {"u0": [0, HORIZON]}, ExposurePolicy(distance_m=15.0, duration_seconds=1),
))
@example(world=(
    [seg("u0", 0, HORIZON, None, 0.0, -2.4350644608958427e21),
     seg("u1", 0, HORIZON, None, 0.0, -2.435064460895842e21)],
    {"u1": [0, HORIZON]}, ExposurePolicy(distance_m=1e6, duration_seconds=1),
))
def test_oracle_matches_all_pairs_reference(world):
    presence, reporters, policy = world
    venue, street = ground_truth_exposures(synthetic_trace(presence, reporters), policy)
    expected = all_pairs_exposures(presence, reporters, policy)
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
        broadcasts = rows(trace.data["broadcasts"])
        doctored["broadcasts"] = columns(broadcasts + [{**broadcasts[0], "location": "elsewhere"}])
        assert collect_metrics(doctored).adversary["cross_venue_ephid_matches"] == 1

    def test_backend_true_ids_seen_counts_user_ids_in_observed_entries(self):
        sc = build_population_scenario(n_users=10, days=3, seed=4)
        trace = run(sc, "venue", seed=4)
        assert collect_metrics(trace.data).info_exposure["backend"]["true_ids_seen"] == 0
        # plant one user id twice, and another in venue_id, which names a venue
        doctored = copy.deepcopy(trace.data)
        observed = doctored["outcomes"]["actor_observed"]
        backend = rows(observed["backend"])
        first, second = backend[:2]
        first["t"] = second["t"] = "u03"
        second["venue_id"] = "u05"
        observed["backend"] = columns(backend)
        assert collect_metrics(doctored).info_exposure["backend"]["true_ids_seen"] == 1

    def test_backend_true_ids_seen_reads_the_interned_elements(self):
        """The back end's rids and nonces are indexes into ``elements``; a user
        id stored there, as one rid, is one the back end saw."""
        sc = build_population_scenario(n_users=10, days=3, seed=4)
        trace = run(sc, "venue", seed=4)
        before = collect_metrics(trace.data).info_exposure["backend"]
        assert before["true_ids_seen"] == 0
        doctored = copy.deepcopy(trace.data)
        report = next(r for r in rows(doctored["outcomes"]["actor_observed"]["backend"])
                      if r["kind"] == "report")
        doctored["elements"][report["rid"]] = "u03"
        after = collect_metrics(doctored).info_exposure["backend"]
        assert after == {**before, "true_ids_seen": 1}

    def test_minimisation_counts_a_delivery_without_a_receipt(self):
        sc = build_population_scenario(n_users=10, days=3, seed=4)
        trace = run(sc, "venue", seed=4)
        assert collect_metrics(trace.data).data_minimisation_violations == 0
        # the simulator delivers only for receipts held; plant two deliveries
        # for a venue the user holds none for, one of them empty
        doctored = copy.deepcopy(trace.data)
        outcomes = doctored["outcomes"]
        held = {(v["user"], v["venue"]) for v in rows(outcomes["visits"]) if not v["discarded"]}
        user, venue = next((u, v.venue_id) for u in sc.users for v in sc.venues
                           if (u, v.venue_id) not in held)
        deliveries = rows(outcomes["deliveries"])
        planted = {**deliveries[0], "user": user, "venue": venue}
        deliveries += [{**planted, "record_keys": [0]}, {**planted, "record_keys": []}]
        outcomes["deliveries"] = columns(deliveries)
        assert collect_metrics(doctored).data_minimisation_violations == 1

    def test_actor_log_counts_read_only_rows_of_their_kind(self):
        sc = build_population_scenario(n_users=10, days=3, seed=4)
        trace = run(sc, "venue", seed=4)
        before = collect_metrics(trace.data).info_exposure
        # rows of a kind no count reads, carrying the keys the counts read
        doctored = copy.deepcopy(trace.data)
        observed = doctored["outcomes"]["actor_observed"]
        for actor, planted in (("backend", {"rid": 0}), ("ha", {"ids": ["a", "b"]}),
                               ("test_center", {"true_id": "t1"})):
            observed[actor] = columns(rows(observed[actor]) + [{"kind": "planted", **planted}])
        assert collect_metrics(doctored).info_exposure == before
