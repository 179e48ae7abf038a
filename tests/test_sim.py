import json
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from venuetrace.channel import ChannelModel
from venuetrace.scenario import (
    Scenario,
    ScenarioEvent,
    ScenarioError,
    VenueSpec,
    build_population_scenario,
    validate_scenario,
)
from venuetrace.schedule import dp3t_derive_ephids, dp3t_next_daily_key
from venuetrace.sim import SimParams, Simulation, run
from venuetrace.trace import COLUMNS, _canonical, b64, by_key, check, length, rows, select, tables

from bundled import SCENARIOS, broadcast_rows, bundled, nudge

DAY = 86400
L = 180


def small_scenario(extra_events=(), users=("u00", "u01"), horizon=2 * DAY):
    events = [
        ScenarioEvent(1000, "enter", {"user": "u00", "venue": "v0", "pos": [0.0, 0.0]}),
        ScenarioEvent(1000, "enter", {"user": "u01", "venue": "v0", "pos": [1.0, 0.0]}),
        ScenarioEvent(1000 + 6 * L, "leave", {"user": "u00"}),
        ScenarioEvent(1000 + 6 * L, "leave", {"user": "u01"}),
        *extra_events,
    ]
    return Scenario(
        name="small",
        horizon_seconds=horizon,
        users=list(users),
        venues=[VenueSpec("v0"), VenueSpec("v1")],
        events=events,
    )


class TestDeterminism:
    @pytest.mark.parametrize("protocol", ["venue", "dp3t", "tracetogether"])
    def test_identical_seeds_identical_traces(self, protocol):
        sc = bundled("relay_attack")
        a = _canonical(run(sc, protocol, seed=11).data)
        b = _canonical(run(sc, protocol, seed=11).data)
        assert a == b

    def test_different_seeds_differ(self):
        sc = small_scenario()
        a = _canonical(run(sc, "venue", seed=1).data)
        b = _canonical(run(sc, "venue", seed=2).data)
        assert a != b


def _scheduled(*entries):
    """What a run calls for each (time, *args) scheduled at set-up, in call order."""
    sc = Scenario("empty", DAY, ["u00"], [], [])
    sim = Simulation(sc, SimParams.build(sc, "venue", 0))
    calls = []
    for time, *args in entries:
        sim.schedule(time, lambda *called: calls.append(called), *args)
    sim.run()
    return calls


class TestScheduling:
    def test_work_is_called_with_its_time_and_arguments(self):
        assert _scheduled((500, "a", 1), (60, "b")) == [(60, "b"), (500, "a", 1)]

    def test_work_for_one_time_runs_in_scheduling_order(self):
        assert _scheduled((700, "x"), (60, "w"), (700, "y")) == [(60, "w"), (700, "x"), (700, "y")]

    def test_work_after_the_horizon_never_runs(self):
        assert _scheduled((DAY + 1, "late"), (DAY, "last")) == [(DAY, "last")]


class TestSameSecond:
    """At equal time, scripted events run before the work the run schedules itself."""

    @pytest.mark.parametrize("protocol", ["dp3t", "tracetogether"])
    def test_suppression_scripted_at_0_silences_the_first_tick(self, protocol):
        sc = small_scenario(extra_events=[ScenarioEvent(0, "adversary_action", {
            "action": "suppress_broadcasts", "user": "u00", "start": 0, "end": 900})])
        times = [b["t"] for b in broadcast_rows(run(sc, protocol, seed=0).data) if b["emitter"] == "u00"]
        assert 0 not in times and 900 not in times and 1800 in times

    @pytest.mark.parametrize("report_at,code", [(DAY, "unmatched-identifiers"), (DAY + 1, None)])
    def test_venue_report_as_the_day_digest_falls_due(self, report_at, code):
        """Day 0's digests are due at DAY: a report in that second is checked
        before they exist, and one a second later is matched against them."""
        sc = small_scenario(extra_events=[
            ScenarioEvent(80000, "test_positive", {"user": "u00", "period": [0, 80000]}),
            ScenarioEvent(report_at, "report", {"user": "u00"}),
        ])
        reports = rows(run(sc, "venue", seed=0).data["outcomes"]["reports"])
        assert [(r["venue"], r["code"]) for r in reports] == [("v0", code)]

    def test_dp3t_report_in_the_second_that_opens_its_first_day(self):
        """The report comes before the tick starts the day, and still publishes that day's key."""
        sc = small_scenario(extra_events=[
            ScenarioEvent(DAY, "test_positive", {"user": "u00", "period": [DAY, DAY + 100]}),
            ScenarioEvent(DAY, "report", {"user": "u00"}),
        ])
        sim = Simulation(sc, SimParams.build(sc, "dp3t", 0))
        first_key = sim.driver.users["u00"].daily_keys[0]
        published = rows(sim.run().data["outcomes"]["published_keys"])
        assert published == [{"day": 1, "key": b64(dp3t_next_daily_key(first_key).key), "reporter": "u00"}]

    def test_dp3t_tick_that_opens_a_day_sends_that_days_identifiers(self):
        sim = Simulation(small_scenario(), SimParams.build(small_scenario(), "dp3t", 0))
        first_key = sim.driver.users["u01"].daily_keys[0]
        sent = [b["payload"] for b in broadcast_rows(sim.run().data) if (b["emitter"], b["t"]) == ("u01", DAY)]
        day1 = set(dp3t_derive_ephids(dp3t_next_daily_key(first_key), 96))
        assert len(sent) == 1 and sent[0] in day1

    def test_dp3t_exchange_in_the_second_that_opens_a_day_sends_that_days_identifiers(self):
        """The phone starts its day as it first sends in it, so the catch-up
        exchange before the tick already sends day 1's identifier."""
        sc = Scenario("edge", 2 * DAY, ["u00", "u01"], [VenueSpec("v0")], [
            ScenarioEvent(DAY, "enter", {"user": "u00", "venue": "v0", "pos": [0.0, 0.0]}),
            ScenarioEvent(DAY, "enter", {"user": "u01", "venue": "v0", "pos": [1.0, 0.0]}),
        ])
        sim = Simulation(sc, SimParams.build(sc, "dp3t", 0))
        first_key = sim.driver.users["u00"].daily_keys[0]
        sim.run()
        day1 = set(dp3t_derive_ephids(dp3t_next_daily_key(first_key), 96))
        heard = [h.ephid for h in sim.driver.users["u01"].heard if h.time == DAY]
        assert len(heard) == 2 and set(heard) <= day1


class TestWorldModel:
    def test_empty_scenario_empty_trace(self):
        sc = Scenario("empty", DAY, ["u00"], [VenueSpec("v0")], [])
        trace = run(sc, "venue", seed=0)
        assert broadcast_rows(trace.data) == []
        assert rows(trace.data["outcomes"]["visits"]) == []
        assert rows(trace.data["outcomes"]["reports"]) == []

    def test_invalid_scenario_raises_with_diagnostics(self):
        sc = Scenario(
            "bad", DAY, ["u00"], [VenueSpec("v0")],
            [ScenarioEvent(10, "leave", {"user": "u00"})],
        )
        with pytest.raises(ScenarioError) as err:
            run(sc, "venue", seed=0)
        assert err.value.diagnostics

    def test_unknown_protocol_raises_with_its_name(self):
        with pytest.raises(ScenarioError) as err:
            run(small_scenario(), "bogus", seed=0)
        assert err.value.diagnostics == ["unknown protocol 'bogus'"]

    def test_presence_segments_cover_positions(self):
        sc = small_scenario(
            extra_events=[ScenarioEvent(1360, "move", {"user": "u00", "pos": [2.0, 0.0]})]
        )
        trace = run(sc, "venue", seed=0)
        u00 = [s for s in rows(trace.data["presence"]) if s["user"] == "u00" and s["location"] == "v0"]
        assert len(u00) == 2  # split at the move
        assert u00[0]["x"] == 0.0 and u00[1]["x"] == 2.0
        assert u00[0]["end"] == u00[1]["start"] == 1360

    def test_channel_symmetry_zero_noise(self):
        sim = Simulation(small_scenario(), SimParams.build(small_scenario(), "venue", 0))
        sim.run()
        apps = sim.driver.users
        heard_by_u00 = {p.ephid for v in apps["u00"].visits for r in v.records for p in r.heard}
        heard_by_u01 = {p.ephid for v in apps["u01"].visits for r in v.records for p in r.heard}
        own_u00 = {r.own_ephid for v in apps["u00"].visits for r in v.records}
        own_u01 = {r.own_ephid for v in apps["u01"].visits for r in v.records}
        assert own_u01 <= heard_by_u00
        assert own_u00 <= heard_by_u01

    def test_broadcasts_halt_after_leave(self):
        trace = run(small_scenario(), "venue", seed=0)
        leave_times = {
            (v["user"],): v["leave"] for v in rows(trace.data["outcomes"]["visits"])
        }
        for b in broadcast_rows(trace.data):
            if b["injected"]:
                continue
            assert b["t"] <= leave_times[(b["emitter"],)]

    def test_consent_gate(self):
        sc = Scenario(
            "consent",
            DAY,
            ["u00", "u01"],
            [VenueSpec("v0")],
            [
                ScenarioEvent(100, "enter", {"user": "u00", "venue": "v0", "pos": [0, 0], "consent": False}),
                ScenarioEvent(100, "enter", {"user": "u01", "venue": "v0", "pos": [1, 0]}),
                ScenarioEvent(100 + 6 * L, "leave", {"user": "u00"}),
                ScenarioEvent(100 + 6 * L, "leave", {"user": "u01"}),
            ],
        )
        trace = run(sc, "venue", seed=0)
        assert all(b["emitter"] != "u00" for b in broadcast_rows(trace.data))
        assert all(v["user"] != "u00" for v in rows(trace.data["outcomes"]["visits"]))
        # but ground truth still saw the body in the venue
        assert any(s["user"] == "u00" and s["location"] == "v0" for s in rows(trace.data["presence"]))

    def test_every_on_premise_broadcast_in_venue_store(self):
        sc = small_scenario()
        sim = Simulation(sc, SimParams.build(sc, "venue", 0))
        trace = sim.run()
        on_premise = {
            b["payload"] for b in broadcast_rows(trace.data) if b["location"] == "v0"
        }
        stored = {e[0] for e in sim.driver.venues["v0"].heard_log}
        assert on_premise == stored

    def test_visit_nonces_unique_across_population(self):
        sc = build_population_scenario(n_users=12, days=3, seed=3)
        sim = Simulation(sc, SimParams.build(sc, "venue", 3))
        sim.run()
        nonces = [
            v.nonce.value for app in sim.driver.users.values() for v in app.visits
        ]
        assert len(nonces) == len(set(nonces))

    def test_mid_epoch_entrant_hears_current_ids(self):
        # u01 arrives 90 s into u00's epoch; catch-up delivery covers the gap
        sc = Scenario(
            "catchup",
            DAY,
            ["u00", "u01"],
            [VenueSpec("v0")],
            [
                ScenarioEvent(1000, "enter", {"user": "u00", "venue": "v0", "pos": [0, 0]}),
                ScenarioEvent(1090, "enter", {"user": "u01", "venue": "v0", "pos": [1, 0]}),
                ScenarioEvent(1170, "leave", {"user": "u01"}),
                ScenarioEvent(1180, "leave", {"user": "u00"}),
            ],
        )
        sim = Simulation(sc, SimParams.build(sc, "venue", 0))
        sim.run()
        u01_heard = {
            p.ephid
            for v in sim.driver.users["u01"].visits
            for r in v.records
            for p in r.heard
        }
        assert len(u01_heard) == 1  # u00's first-epoch identifier


class TestAdversaries:
    def test_relay_injects_and_is_contained(self):
        trace = run(bundled("relay_attack"), "venue", seed=0)
        adv = trace.data["outcomes"]["adversary"]
        assert adv["injected"] > 0
        assert adv["captured"] > 0
        assert adv["observed_only_broadcast_bytes"] is True

    def test_relayed_ids_enter_dst_venue_store(self):
        sc = bundled("relay_attack")
        sim = Simulation(sc, SimParams.build(sc, "venue", 0))
        trace = sim.run()
        src_payloads = {
            b["payload"] for b in broadcast_rows(trace.data)
            if b["location"] == "v0" and not b["injected"]
        }
        v1_heard = {e[0] for e in sim.driver.venues["v1"].heard_log}
        assert src_payloads & v1_heard  # "useless information" stored at v1

    def test_replay_same_venue_counted(self):
        sc = small_scenario(
            extra_events=[
                ScenarioEvent(
                    1000,
                    "adversary_action",
                    {
                        "action": "replay_same_venue",
                        "venue": "v0",
                        "pos": [0.5, 0.5],
                        "start": 1000,
                        "end": 1000 + 6 * L,
                        "delay": 1,
                    },
                )
            ]
        )
        trace = run(sc, "venue", seed=0)
        assert trace.data["outcomes"]["adversary"]["injected"] > 0

    def test_tracetogether_reporter_is_not_its_own_contact(self):
        # the replay plays u00's own token back to it inside v0
        replay = {"action": "replay_same_venue", "venue": "v0", "pos": [0.5, 0.5],
                  "start": 1000, "end": 1000 + 6 * L}
        sc = small_scenario(extra_events=[
            ScenarioEvent(1000, "adversary_action", replay),
            ScenarioEvent(DAY, "test_positive", {"user": "u00", "period": [0, DAY]}),
            ScenarioEvent(DAY + 100, "report", {"user": "u00"}),
        ])
        sim = Simulation(sc, SimParams.build(sc, "tracetogether", 0))
        trace = sim.run()
        moh = sim.driver.moh
        heard_own = [p for p in sim.phones["u00"].heard
                     if moh.registry[moh.decrypt_tid(p.ephid)[0]] == "u00"]
        assert heard_own
        assert rows(trace.data["outcomes"]["moh_edges"]) == [{"reporter": "u00", "contact": "u01"}]

    def test_swap_venue_keys_with_one_venue_visited_is_rejected(self):
        # no other venue's keys to swap in: the bundle carries random ones
        sc = small_scenario(extra_events=[
            ScenarioEvent(DAY, "test_positive", {"user": "u00", "period": [0, DAY]}),
            ScenarioEvent(DAY + 100, "report", {"user": "u00", "tamper": "swap_venue_keys"}),
        ])
        reports = rows(run(sc, "venue", seed=0).data["outcomes"]["reports"])
        assert [(r["venue"], r["code"]) for r in reports] == [("v0", "bad-receipt")]

    def test_flood_triggers_anomaly(self):
        sc = Scenario(
            "flood",
            DAY,
            ["u00"],
            [VenueSpec("v0", policy={"max_broadcasts_per_minute": 30})],
            [
                ScenarioEvent(100, "enter", {"user": "u00", "venue": "v0", "pos": [0, 0]}),
                ScenarioEvent(
                    100,
                    "adversary_action",
                    {
                        "action": "flood",
                        "venue": "v0",
                        "pos": [3.0, 0.0],
                        "start": 120,
                        "end": 400,
                        "per_minute": 120,
                        "tx_dbm": 10.0,
                    },
                ),
                ScenarioEvent(1500, "leave", {"user": "u00"}),
            ],
        )
        trace = run(sc, "venue", seed=0)
        kinds = {a["kind"] for a in rows(trace.data["outcomes"]["venue_anomalies"]["v0"])}
        assert "broadcast_flood" in kinds
        assert "signal_too_strong" in kinds

    @pytest.mark.parametrize("start,per_minute", [(122400, 60), (122401, 20)])
    def test_flood_sends_nothing_before_its_event(self, start, per_minute):
        sc = bundled("relay_baseline")
        sc.events.append(ScenarioEvent(123000, "adversary_action", {
            "action": "flood", "venue": "v0", "start": start, "end": 124200,
            "per_minute": per_minute,
        }))
        assert validate_scenario(sc) == []
        trace = run(sc, "venue", seed=0)
        times = [t for t, in select(trace.data["broadcasts"], "t")]
        assert times == sorted(times)
        flood = [b["t"] for b in broadcast_rows(trace.data) if b["tag"] == "flood"]
        step = 60 // per_minute
        assert flood and min(flood) >= 123000 and min(flood) - 123000 < step
        assert all((t - start) % step == 0 for t in flood)  # the grid of the window

    @pytest.mark.parametrize(
        "per_minute,expected", [(7, 70), (45, 450), (60, 600), (90, 900), (120, 1200)]
    )
    def test_flood_sends_its_rate(self, per_minute, expected):
        sc = bundled("relay_baseline")
        sc.events.append(ScenarioEvent(123000, "adversary_action", {
            "action": "flood", "venue": "v0", "start": 123000, "end": 123599,
            "per_minute": per_minute,
        }))
        assert validate_scenario(sc) == []
        trace = run(sc, "venue", seed=0)
        flood = [b["t"] for b in broadcast_rows(trace.data) if b["tag"] == "flood"]
        assert len(flood) == expected
        assert flood == sorted(flood) and 123000 <= flood[0] and flood[-1] <= 123599

    def test_suppressed_user_never_on_air(self):
        sc = small_scenario(
            extra_events=[
                ScenarioEvent(
                    0,
                    "adversary_action",
                    {"action": "suppress_broadcasts", "user": "u00", "start": 0, "end": 2 * DAY},
                )
            ]
        )
        trace = run(sc, "venue", seed=0)
        assert all(b["emitter"] != "u00" for b in broadcast_rows(trace.data))

    @pytest.mark.parametrize("end,on_air_at_900", [(900, False), (899, True)])
    def test_suppression_window_includes_its_end(self, end, on_air_at_900):
        sc = small_scenario(extra_events=[ScenarioEvent(0, "adversary_action", {
            "action": "suppress_broadcasts", "user": "u00", "start": 0, "end": end})])
        trace = run(sc, "dp3t", seed=0)  # a broadcast every 900 s from 0
        times = [b["t"] for b in broadcast_rows(trace.data) if b["emitter"] == "u00"]
        assert 1800 in times
        assert (900 in times) == on_air_at_900

    def test_eavesdropper_sees_only_broadcast_bytes(self):
        sc = small_scenario(
            extra_events=[
                ScenarioEvent(
                    0,
                    "adversary_action",
                    {"action": "linkage_eavesdrop", "venues": ["v0", "v1"]},
                ),
                # give the eavesdropper a second venue worth of traffic
                ScenarioEvent(3000, "enter", {"user": "u00", "venue": "v1", "pos": [0.0, 0.0]}),
                ScenarioEvent(3000 + 6 * L, "leave", {"user": "u00"}),
            ]
        )
        trace = run(sc, "venue", seed=0)
        adv = trace.data["outcomes"]["adversary"]
        assert adv["eavesdropped"]
        assert adv["observed_only_broadcast_bytes"] is True
        # cross-venue correlation over everything it captured yields nothing
        venues_by_payload = {}
        for e in adv["eavesdropped"]:
            venues_by_payload.setdefault(e["payload"], set()).add(e["venue"])
        assert all(len(vs) == 1 for vs in venues_by_payload.values())


class TestCapabilityMatrix:
    def test_backend_and_ha_never_see_true_ids(self):
        sc = build_population_scenario(n_users=10, days=3, seed=2)
        trace = run(sc, "venue", seed=2)
        observed = trace.data["outcomes"]["actor_observed"]
        users = set(sc.users)
        elements = trace.data["elements"]
        indexed = COLUMNS["outcomes.actor_observed.backend"]
        backend = [{k: elements[v] if k in indexed else v for k, v in row.items()}
                   for row in rows(observed["backend"])]
        for entry in [*backend, *rows(observed["ha"])]:
            for value in entry.values():
                assert not (isinstance(value, str) and value in users)
        assert not users & set(elements)

    def test_venue_leave_log_contains_nonces_only(self):
        sc = build_population_scenario(n_users=10, days=3, seed=2)
        sim = Simulation(sc, SimParams.build(sc, "venue", 2))
        trace = sim.run()
        rids = {b64(app.rid.value_bytes()) for app in sim.driver.users.values()}
        for entries in trace.data["outcomes"]["actor_observed"]["venues"].values():
            for entry in rows(entries):
                assert entry["kind"] == "leave"
                assert trace.data["elements"][entry["nonce"]] not in rids

    def test_street_encounter_dp3t_vs_venue(self):
        sc = bundled("street_encounter")
        dp3t = run(sc, "dp3t", seed=0)
        venue = run(sc, "venue", seed=0)
        dp3t_leaks = {
            a["user"] for a in rows(dp3t.data["outcomes"]["assessments"]) if a.get("leak")
        }
        venue_leaks = {
            a["user"]
            for a in rows(venue.data["outcomes"]["assessments"])
            if a["matched_epochs"] >= 1
        }
        assert "u01" in dp3t_leaks  # bystander can test the reporter's infection
        assert "u01" not in venue_leaks  # no shared venue, nothing retrievable
        assert "u02" in venue_leaks  # same-venue co-visitor is the intended audience


class TestDoubleReports:
    @staticmethod
    def twice_reported():
        sc = bundled("street_encounter")
        sc.events.append(ScenarioEvent(124000, "report", {"user": "u00"}))
        return sc

    def test_dp3t_second_report_skipped(self):
        trace = run(self.twice_reported(), "dp3t", seed=0)
        skipped = [e for e in rows(trace.data["events"]) if e["kind"] == "report_skipped"]
        assert skipped == [{"t": 124000, "kind": "report_skipped", "user": "u00"}]
        assert len(rows(trace.data["outcomes"]["published_keys"])) == 1
        assert len(rows(trace.data["outcomes"]["reports"])) == 1

    def test_venue_second_report_publishes_once(self):
        sc = self.twice_reported()
        sim = Simulation(sc, SimParams.build(sc, "venue", 0))
        trace = sim.run()
        assert [r["accepted"] for r in rows(trace.data["outcomes"]["reports"])] == [True, True]
        assert len(sim.driver.backend.records) == 1
        assert len(rows(trace.data["outcomes"]["venue_notices"]["v0"])) == 1

    def test_tracetogether_second_report_skipped(self):
        trace = run(self.twice_reported(), "tracetogether", seed=0)
        skipped = [e for e in rows(trace.data["events"]) if e["kind"] == "report_skipped"]
        assert skipped == [{"t": 124000, "kind": "report_skipped", "user": "u00"}]
        assert len(rows(trace.data["outcomes"]["moh_edges"])) == 2
        assert len(rows(trace.data["outcomes"]["assessments"])) == 2
        assert len(rows(trace.data["outcomes"]["reports"])) == 1


def test_refused_certification_is_logged_and_skips_the_report():
    sc = bundled("relay_baseline")
    t = 2 * DAY + 4500
    sc.events += [
        ScenarioEvent(
            t, "adversary_action", {"action": "share_rid", "from_user": "u00", "to_user": "u01"}
        ),
        ScenarioEvent(t + 100, "test_positive", {"user": "u01", "period": [DAY, 2 * DAY]}),
        ScenarioEvent(t + 200, "report", {"user": "u01"}),
    ]
    trace = run(sc, "venue", seed=0)
    refused = [e for e in rows(trace.data["events"]) if e["kind"] == "certification_refused"]
    assert refused == [
        {"t": t + 100, "kind": "certification_refused", "user": "u01",
         "reason": "opened identifier does not match tested person"}
    ]
    assert {"t": t + 200, "kind": "report_skipped", "user": "u01"} in rows(trace.data["events"])
    assert list(trace.data["outcomes"]["reporters"]) == ["u00"]


def _paths(obj, path, wanted):
    """The paths of the values under ``obj`` that ``wanted`` accepts, through dicts and lists."""
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    if wanted(obj):
        yield path
    for key, value in children:
        yield from _paths(value, f"{path}.{key}", wanted)


def _row_list(obj):
    return isinstance(obj, list) and any(isinstance(item, dict) for item in obj)


@pytest.mark.parametrize("protocol", ["venue", "dp3t", "tracetogether"])
@pytest.mark.parametrize("stem", sorted(path.stem for path in SCENARIOS.glob("*.json")))
def test_layout_names_every_table_a_run_writes(stem, protocol):
    """After a run no list of rows is left outside the scenario as given
    (``config``) and the adversary's block, so ``trace.LAYOUT`` declares
    every table; no byte string is left at any depth; and each table it
    names passes the reader's check against its ``trace.COLUMNS`` entry,
    with every form declared for ``broadcasts`` present."""
    sc = bundled(stem)
    data = Simulation(sc, SimParams.build(sc, protocol, 0)).run().data
    left = [path for name, section in data.items() if name != "config"
            for path in _paths(section, name, _row_list) if not path.startswith("outcomes.adversary")]
    assert left == []
    assert list(_paths(data, "data", lambda obj: isinstance(obj, bytes))) == []
    named = list(tables(data))
    assert {"presence", "broadcasts", "events", "outcomes.reports"} <= {name for name, *_ in named}
    for _, mapping, key, declared in named:
        check(mapping[key], declared)
    forms = {column for column, (form, _) in COLUMNS["broadcasts"].items() if form}
    assert forms and forms <= by_key(data["broadcasts"]).keys()


# ---------------------------------------------------------------------------
# Delivery through the occupancy grid
# ---------------------------------------------------------------------------

class FullScanSimulation(Simulation):
    """The reference scan: every co-located user, in scenario order."""

    def _nearby(self, cell, exclude):
        return [u for u in self.scenario.users if u != exclude and self.location[u] == cell[0]]


def test_a_listener_at_max_range_hears_and_one_step_past_it_does_not():
    channel, rng = ChannelModel(max_range_m=15.0), random.Random(0)
    assert channel.rx_dbm(15.0, rng) == channel.threshold_dbm(15.0)
    assert channel.rx_dbm(nudge(15.0, 1), rng) is None


RANGES = (15.0, 16.0, 2.0, 0.5)


@st.composite
def grid_scenarios(draw):
    """Random enter/move/leave scripts over a lossy, noisy channel.

    Coordinates include negative ones, points on and one rounding step
    beside cell borders, and points exactly ``max_range_m`` from another
    user; one relay re-broadcasts v0 traffic into v1.
    """
    r = draw(st.sampled_from(RANGES))
    users = [f"u{i}" for i in range(draw(st.integers(3, 6)))]
    border = st.builds(lambda k, steps: nudge(k * r, steps), st.integers(-1, 1), st.integers(-2, 2))
    coordinate = st.one_of(border, st.floats(-r, r, allow_nan=False))
    point = st.tuples(coordinate, coordinate)
    offset = st.sampled_from([(r, 0.0), (-r, 0.0), (0.0, r), (0.0, -r), (r, r)])

    horizon = 3 * 3600
    street = {u: (1.0e6 + 1000.0 * i, 0.0) for i, u in enumerate(users)}
    where = {u: None for u in users}
    pos = dict(street)
    events = []
    t = 0
    for _ in range(draw(st.integers(1, 30))):
        t += draw(st.integers(0, 400))
        if t > horizon:
            break
        user = draw(st.sampled_from(users))
        if draw(st.booleans()):  # exactly max_range_m from another user
            other = draw(st.sampled_from(users))
            dx, dy = draw(offset)
            target = (pos[other][0] + dx, pos[other][1] + dy)
        else:
            target = draw(point)
        step = draw(st.sampled_from(["toggle", "move"]))
        if step == "move":
            events.append(ScenarioEvent(t, "move", {"user": user, "pos": list(target)}))
            pos[user] = target
        elif where[user] is None:
            venue = draw(st.sampled_from(["v0", "v1"]))
            events.append(
                ScenarioEvent(t, "enter", {"user": user, "venue": venue, "pos": list(target)})
            )
            where[user], pos[user] = venue, target
        else:
            events.append(ScenarioEvent(t, "leave", {"user": user}))
            where[user], pos[user] = None, street[user]
    relay = {
        "action": "relay_cross_venue", "src_venue": "v0", "dst_venue": "v1",
        "pos": list(draw(point)), "start": 0, "end": horizon, "delay": 1,
    }
    events.append(ScenarioEvent(0, "adversary_action", relay))
    channel = {"max_range_m": r, "noise_sigma_db": 4.0, "reception_prob": 0.7}
    return Scenario(
        "grid", horizon, users, [VenueSpec("v0"), VenueSpec("v1")], events,
        params={"channel": channel},
    )


def _far_pair():
    """u0 and u1 8 m apart near 4e16 m, where ``x // 15 m`` alone puts them
    two cells apart: a block map without the coordinate term of
    ``cell_width`` delivers nothing, the full scan 4 pings each."""
    def enter(t, user, x):
        return ScenarioEvent(t, "enter", {"user": user, "venue": "v0", "pos": [x, 0.0]})

    events = [enter(10, "u0", 3.993215020666868e16), enter(20, "u1", 3.993215020666869e16),
              ScenarioEvent(3000, "leave", {"user": "u0"}),
              ScenarioEvent(3000, "leave", {"user": "u1"})]
    return Scenario("far", 3600, ["u0", "u1"], [VenueSpec("v0")], events)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sc=grid_scenarios(), protocol=st.sampled_from(["venue", "dp3t", "tracetogether"]),
       seed=st.integers(0, 3))
@example(sc=_far_pair(), protocol="dp3t", seed=0)
def test_grid_delivers_like_the_full_scan(sc, protocol, seed):
    assert validate_scenario(sc) == []
    params = SimParams.build(sc, protocol, seed)
    assert _run_logged(Simulation, sc, params) == _run_logged(FullScanSimulation, sc, params)


@pytest.mark.parametrize("protocol", ["dp3t", "tracetogether"])
def test_suppression_mid_run_drops_only_the_suppressed_sends(protocol):
    # [start, end] covers whole 900 s epochs and intervals, and both visit slots of day 1
    start, end = DAY + 8 * 3600, DAY + 16 * 3600 - 1
    sc = build_population_scenario(n_users=12, n_venues=2, days=3, seed=3)
    suppressed = build_population_scenario(n_users=12, n_venues=2, days=3, seed=3)
    suppressed.events.append(ScenarioEvent(start, "adversary_action", {
        "action": "suppress_broadcasts", "user": "u03", "start": start, "end": end,
    }))
    plain_json, plain_heard = _run_logged(Simulation, sc, SimParams.build(sc, protocol, 0))
    quiet_json, quiet_heard = _run_logged(
        Simulation, suppressed, SimParams.build(suppressed, protocol, 0)
    )
    plain = broadcast_rows(json.loads(plain_json))
    quiet = broadcast_rows(json.loads(quiet_json))

    def silenced(row):
        return row["emitter"] == "u03" and start <= row["t"] <= end

    assert any(silenced(row) for row in plain)
    assert any(row["emitter"] == "u03" for row in quiet)  # on air outside the window
    assert quiet == [row for row in plain if not silenced(row)]
    gone = {row["payload"] for row in plain if silenced(row)}
    kept = [d for d in plain_heard if not (start <= d[3] <= end and d[1] in gone)]
    assert len(kept) < len(plain_heard)
    assert quiet_heard == kept


def test_relay_reaches_a_listener_alone_in_its_block():
    """The relay's injected sends come from off the block map, so the one
    user in the destination block is not the emitter."""
    sc = Scenario(
        "relay-alone", DAY, ["u00", "u01", "u02"], [VenueSpec("v0"), VenueSpec("v1")],
        [
            ScenarioEvent(1000, "enter", {"user": "u00", "venue": "v0", "pos": [0.0, 0.0]}),
            ScenarioEvent(1000, "enter", {"user": "u01", "venue": "v0", "pos": [1.0, 0.0]}),
            ScenarioEvent(1000, "enter", {"user": "u02", "venue": "v1", "pos": [0.0, 0.0]}),
            ScenarioEvent(1000, "adversary_action", {
                "action": "relay_cross_venue", "src_venue": "v0", "dst_venue": "v1",
                "pos": [3.0, 0.0], "start": 1000, "end": 1000 + 6 * L, "delay": 1,
            }),
            *(ScenarioEvent(1000 + 6 * L, "leave", {"user": u}) for u in ("u00", "u01", "u02")),
        ],
    )
    text, heard = _run_logged(Simulation, sc, SimParams.build(sc, "venue", 0))
    relayed = {
        row["payload"] for row in broadcast_rows(json.loads(text))
        if row["injected"] and row["location"] == "v1"
    }
    assert relayed
    assert relayed == {payload for user, payload, _, _ in heard if user == "u02"}


def _run_logged(sim_class, sc, params):
    """The canonical trace plus every delivery, in order, with its rx power."""
    sim = sim_class(sc, params)
    deliveries = []

    def logged(user, hear):
        def hear_logged(payload, rx_dbm, now):
            deliveries.append((user, payload, rx_dbm, now))
            hear(payload, rx_dbm, now)
        return hear_logged

    for user, phone in sim.driver.users.items():
        phone.hear = logged(user, phone.hear)
    return _canonical(sim.run().data), deliveries


def test_scan_grows_with_neighbours_not_population(monkeypatch):
    draws = 0
    rx_dbm = ChannelModel.rx_dbm

    def counted_rx(self, *args, **kwargs):
        nonlocal draws
        draws += 1
        return rx_dbm(self, *args, **kwargs)

    monkeypatch.setattr(ChannelModel, "rx_dbm", counted_rx)
    per_broadcast = {}
    for n_users in (50, 200):
        draws = 0
        sc = build_population_scenario(n_users=n_users, n_venues=5, days=3, seed=9)
        trace = run(sc, "dp3t", seed=9)
        per_broadcast[n_users] = draws / length(trace.data["broadcasts"])
    # a scan of every co-located user grows about 4x from 50 to 200 users
    assert per_broadcast[200] <= 1.5 * per_broadcast[50], per_broadcast
