"""Feature-flag, robustness, and structural-invariant coverage."""

import ast
import math
import random
import time
from pathlib import Path

import pytest

import venuetrace
from venuetrace import crypto
from venuetrace.actors import HealthAuthority, ProtocolStateError, UserApp, VenuePolicy
from venuetrace.baselines import Dp3tUserApp, MoHServer, TTUserApp
from venuetrace.bloom import BloomFilter
from venuetrace.metrics import ExposurePolicy, collect_metrics, ground_truth_exposures
from venuetrace.scenario import (
    Scenario,
    ScenarioEvent,
    VenueSpec,
    build_population_scenario,
)
from venuetrace.schedule import SchedulingParams
from venuetrace.sim import SimParams, Simulation, run
from venuetrace.trace import _canonical, rows

DAY = 86400
L = 180
# the protocol library, and the simulator modules that record and score it
LIBRARY = ("crypto", "schedule", "bloom", "messages", "channel", "actors", "baselines")
SIMULATOR = {"trace", "sim", "metrics", "cli", "scenario"}


def two_user_visit(horizon=2 * DAY, extra=()):
    events = [
        ScenarioEvent(DAY + 1000, "enter", {"user": "u00", "venue": "v0", "pos": [0.0, 0.0]}),
        ScenarioEvent(DAY + 1000, "enter", {"user": "u01", "venue": "v0", "pos": [1.0, 0.0]}),
        ScenarioEvent(DAY + 1000 + 6 * L, "leave", {"user": "u00"}),
        ScenarioEvent(DAY + 1000 + 6 * L, "leave", {"user": "u01"}),
        ScenarioEvent(2 * DAY + 100, "test_positive", {"user": "u00", "period": [DAY, 2 * DAY]}),
        ScenarioEvent(2 * DAY + 200, "report", {"user": "u00"}),
        ScenarioEvent(2 * DAY + 300, "trace_query", {"user": "u01"}),
        *extra,
    ]
    return Scenario(
        "two-user", horizon + DAY, ["u00", "u01"], [VenueSpec("v0")], events
    )


class TestArrivalTimeExtension:
    def test_honest_flow_still_works(self):
        sc = two_user_visit()
        trace = run(sc, "venue", seed=0, overrides={"arrival_time_extension": True})
        assert all(r["accepted"] for r in rows(trace.data["outcomes"]["reports"]))
        assert any(
            a["user"] == "u01" and a["at_risk"] for a in rows(trace.data["outcomes"]["assessments"])
        )

    def test_presence_interval_is_exact_under_flag(self):
        sc = two_user_visit()
        sim = Simulation(sc, SimParams.build(sc, "venue", 0, {"arrival_time_extension": True}))
        sim.run()
        visit = sim.driver.users["u00"].visits[0]
        assert visit.receipt.arrival_time == visit.entry_time

    def test_min_stay_policy_filters_short_visits(self):
        sc = Scenario(
            "short-stay",
            3 * DAY,
            ["u00", "u01"],
            [VenueSpec("v0", policy={"min_stay_seconds": 3600})],
            [
                ScenarioEvent(DAY, "enter", {"user": "u00", "venue": "v0", "pos": [0.0, 0.0]}),
                ScenarioEvent(DAY, "enter", {"user": "u01", "venue": "v0", "pos": [1.0, 0.0]}),
                # u01 leaves after 18 min: below the venue's one-hour stay floor
                ScenarioEvent(DAY + 6 * L, "leave", {"user": "u01"}),
                ScenarioEvent(DAY + 7200, "leave", {"user": "u00"}),
                ScenarioEvent(2 * DAY + 100, "test_positive", {"user": "u00", "period": [DAY, 2 * DAY]}),
                ScenarioEvent(2 * DAY + 200, "report", {"user": "u00"}),
                ScenarioEvent(2 * DAY + 300, "trace_query", {"user": "u01"}),
            ],
        )
        trace = run(sc, "venue", seed=0, overrides={"arrival_time_extension": True})
        assert all(r["accepted"] for r in rows(trace.data["outcomes"]["reports"]))
        u01_deliveries = [
            d for d in rows(trace.data["outcomes"]["deliveries"])
            if d["user"] == "u01" and d["record_keys"]
        ]
        assert u01_deliveries == []

    def test_flag_off_receipts_carry_no_arrival(self):
        sc = two_user_visit()
        sim = Simulation(sc, SimParams.build(sc, "venue", 0))
        sim.run()
        visit = sim.driver.users["u00"].visits[0]
        assert visit.receipt.arrival_time is None


class TestChannelRobustness:
    def test_noisy_channel_still_deterministic(self):
        sc = two_user_visit()
        overrides = {"channel": {"noise_sigma_db": 4.0}}
        a = _canonical(run(sc, "venue", seed=5, overrides=overrides).data)
        b = _canonical(run(sc, "venue", seed=5, overrides=overrides).data)
        assert a == b

    def test_lossy_reception_drops_some_hearings(self):
        sc = two_user_visit()
        full = run(sc, "venue", seed=5)
        lossy = run(sc, "venue", seed=5, overrides={"channel": {"reception_prob": 0.3}})

        def heard_count(trace):
            return sum(
                a["matched_epochs"]
                for a in rows(trace.data["outcomes"]["assessments"])
                if a["user"] == "u01"
            )

        assert heard_count(lossy) < heard_count(full)


class TestStructuralInvariants:
    @pytest.mark.parametrize("module", LIBRARY)
    def test_protocol_library_imports_no_simulator_module(self, module):
        """Every import of the package a library module makes, local ones included."""
        source = Path(venuetrace.__file__).with_name(f"{module}.py").read_text(encoding="utf-8")
        imported = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[1] for a in node.names if a.name.startswith("venuetrace."))
            elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("venuetrace")):
                name = (node.module or "").removeprefix("venuetrace").lstrip(".")
                imported.update([name.split(".")[0]] if name else (a.name for a in node.names))
        assert not imported & SIMULATOR

    def test_venue_digests_tile_the_timeline(self):
        sc = build_population_scenario(n_users=8, days=3, seed=1)
        trace = run(sc, "venue", seed=1)
        by_venue = {}
        for e in rows(trace.data["events"]):
            if e["kind"] == "venue_digest":
                by_venue.setdefault(e["venue"], []).append(e["period"])
        assert by_venue
        for periods in by_venue.values():
            for (s1, e1), (s2, e2) in zip(periods, periods[1:]):
                assert e1 == s2  # contiguous
                assert s1 < e1 and s2 < e2

    def test_tt_moh_edges_equal_ground_truth_contacts(self):
        sc = build_population_scenario(n_users=10, days=3, seed=2)
        trace = run(sc, "tracetogether", seed=2)
        max_range = trace.data["config"]["params"]["channel"]["max_range_m"]
        edges = {
            (e["reporter"], e["contact"]) for e in rows(trace.data["outcomes"]["moh_edges"])
        }
        # MoH's derived graph equals true co-presence (any duration, within
        # radio range, in a venue or on the street) of its reporters: the
        # mass-surveillance exposure
        venue, street = ground_truth_exposures(
            trace.data, ExposurePolicy(distance_m=max_range, duration_seconds=1)
        )
        expected = {(r, u) for (u, _, r) in venue | street}
        assert edges == expected

    def test_street_exposures_reported_as_geo_selective_tradeoff(self):
        extra = [
            # an 18-minute close street contact with u01 during the period
            ScenarioEvent(DAY + 50_000, "move", {"user": "u00", "pos": [0.0, 0.0]}),
            ScenarioEvent(DAY + 50_000, "move", {"user": "u01", "pos": [1.0, 0.0]}),
            ScenarioEvent(DAY + 50_000 + 1080, "move", {"user": "u01", "pos": [900.0, 0.0]}),
        ]
        sc = two_user_visit(extra=extra)
        report = collect_metrics(run(sc, "venue", seed=0).data)
        assert report.extras["street_exposures"] == [["u01", "street", "u00"]]
        # and the venue-side recall is judged only against venue exposures
        assert report.recall == 1.0

    def test_large_scenario_completes_quickly(self):
        sc = build_population_scenario(n_users=100, n_venues=5, days=14, seed=9)
        t0 = time.perf_counter()
        trace = run(sc, "venue", seed=9)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        assert collect_metrics(trace.data).recall == 1.0

    def test_threshold_matches_proximity_distance(self):
        # the risk threshold equals the noiseless signal at the 2 m gate
        sc = two_user_visit()
        sim = Simulation(sc, SimParams.build(sc, "venue", 0))
        threshold = sim.driver.risk.proximity_threshold_dbm
        ch = sim.params.channel
        assert math.isclose(threshold, ch.rx_dbm(2.0, sim.rng))
        assert ch.rx_dbm(1.9, sim.rng) > threshold
        assert ch.rx_dbm(2.1, sim.rng) < threshold


def _user_app(rng):
    return UserApp("u00", HealthAuthority(rng).public_key, SchedulingParams(), rng,
                   crypto.Verifier())


def _tick_past_a_window(rng):
    app = _user_app(rng)
    app.enter_venue("v0", 0)
    app.epoch_tick(0)
    app.epoch_tick(2 * SchedulingParams().window_seconds)  # window 3 after window 1


def _hear(app):
    app.hear(b"ping", -40.0, 0)
    return app


# guards that no scenario reaches, but a direct caller of the library can:
# (call given a seeded rng, the error it raises or what it returns)
@pytest.mark.parametrize("call,outcome", [
    (lambda rng: VenuePolicy(time_condition="weekly").admits(0, 0), crypto.ParameterError),
    (_tick_past_a_window, ProtocolStateError),
    (lambda rng: _hear(_user_app(rng)).visits, []),  # no session: nothing to record it in
    (lambda rng: MoHServer(rng).issue_tid(b"unregistered", 0), crypto.ParameterError),
    (lambda rng: _hear(TTUserApp("555-0001", MoHServer(rng))).heard, []),  # no token yet
    (lambda rng: Dp3tUserApp(rng).key_for_day(3), crypto.ParameterError),  # a chain from day 0
    (lambda rng: BloomFilter(0), crypto.ParameterError),
    (lambda rng: BloomFilter(4).contains_many([]), []),
    (lambda rng: crypto.encode_u64(-1), crypto.ParameterError),
])
def test_library_guards(call, outcome):
    if isinstance(outcome, type):
        with pytest.raises(outcome):
            call(random.Random(0))
    else:
        assert call(random.Random(0)) == outcome
