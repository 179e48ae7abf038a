import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from venuetrace.cli import main
from venuetrace.scenario import (
    ACTION_FIELDS,
    EVENT_FIELDS,
    TAMPER_MODES,
    Scenario,
    ScenarioEvent,
    VenueSpec,
    build_population_scenario,
    validate_scenario,
)

from bundled import SCENARIOS, bundled

DAY = 86400


def minimal(events):
    return Scenario(
        name="t",
        horizon_seconds=2 * DAY,
        users=["u00", "u01"],
        venues=[VenueSpec("v0"), VenueSpec("v1")],
        events=events,
    )


def test_clean_scenario_has_no_diagnostics():
    sc = minimal(
        [
            ScenarioEvent(10, "enter", {"user": "u00", "venue": "v0", "pos": [0, 0]}),
            ScenarioEvent(500, "leave", {"user": "u00"}),
        ]
    )
    assert validate_scenario(sc) == []


def test_enter_before_leaving_flagged():
    sc = minimal(
        [
            ScenarioEvent(10, "enter", {"user": "u00", "venue": "v0", "pos": [0, 0]}),
            ScenarioEvent(20, "enter", {"user": "u00", "venue": "v1", "pos": [0, 0]}),
        ]
    )
    diags = validate_scenario(sc)
    assert any("before leaving" in d for d in diags)


def test_adversary_window_outside_horizon_flagged():
    sc = minimal(
        [
            ScenarioEvent(
                10,
                "adversary_action",
                {"action": "flood", "venue": "v0", "start": 0, "end": 3 * DAY},
            )
        ]
    )
    diags = validate_scenario(sc)
    assert any("outside scenario horizon" in d for d in diags)


def test_unknown_user_and_venue_flagged():
    sc = minimal(
        [
            ScenarioEvent(10, "enter", {"user": "ghost", "venue": "v0", "pos": [0, 0]}),
            ScenarioEvent(10, "enter", {"user": "u00", "venue": "nowhere", "pos": [0, 0]}),
        ]
    )
    diags = validate_scenario(sc)
    assert any("unknown user" in d for d in diags)
    assert any("unknown venue" in d for d in diags)


def test_leave_without_entry_flagged():
    sc = minimal([ScenarioEvent(10, "leave", {"user": "u00"})])
    assert any("in no venue" in d for d in validate_scenario(sc))


def test_report_without_positive_test_flagged():
    sc = minimal([ScenarioEvent(10, "report", {"user": "u00"})])
    assert any("without a positive test" in d for d in validate_scenario(sc))


def test_unknown_venue_policy_key_flagged():
    sc = Scenario(
        name="t",
        horizon_seconds=DAY,
        users=["u00"],
        venues=[VenueSpec("v0", policy={"max_broadcast_per_min": 9})],  # typo'd key
        events=[],
    )
    assert any("unknown policy keys" in d for d in validate_scenario(sc))


@pytest.mark.parametrize(
    "params,expected",
    [
        ({"epoch_second": 60}, "unknown keys ['epoch_second']"),
        ({"channel": {"range_m": 5}}, "unknown channel keys ['range_m']"),
        ({"epoch_seconds": 0}, "epoch_seconds must be a positive integer"),
        ({"window_seconds": -7200}, "window_seconds must be a positive integer"),
        ({"tt_interval_seconds": 0}, "tt_interval_seconds must be a positive integer"),
        ({"dp3t_epochs_per_day": 0}, "dp3t_epochs_per_day must be a positive integer"),
        ({"dp3t_epochs_per_day": 86401}, "dp3t_epochs_per_day exceeds 86400"),
        ({"epoch_seconds": 7000}, "window_seconds must be a multiple of epoch_seconds"),
    ],
)
def test_bad_params_flagged(params, expected):
    sc = Scenario(name="t", horizon_seconds=DAY, users=["u00"], venues=[], events=[], params=params)
    assert any(expected in d for d in validate_scenario(sc)), validate_scenario(sc)


def test_unknown_time_condition_flagged():
    sc = Scenario(
        name="t",
        horizon_seconds=DAY,
        users=["u00"],
        venues=[VenueSpec("v0", policy={"time_condition": "fortnightly"})],
        events=[],
    )
    assert any("unknown time condition" in d for d in validate_scenario(sc))


def test_report_with_shared_certificate_allowed():
    sc = minimal(
        [
            ScenarioEvent(5, "test_positive", {"user": "u01", "period": [0, DAY]}),
            ScenarioEvent(10, "report", {"user": "u00", "use_certificate_of": "u01"}),
        ]
    )
    assert validate_scenario(sc) == []


def test_event_time_outside_horizon_flagged():
    sc = minimal([ScenarioEvent(5 * DAY, "trace_query", {"user": "u00"})])
    assert any("outside scenario horizon" in d for d in validate_scenario(sc))


@pytest.mark.parametrize("horizon", [0, -DAY])
def test_horizon_must_be_positive(horizon, tmp_path, capsys):
    # a zero horizon divided by zero in the duty cycle; a negative one ran
    sc = Scenario(name="t", horizon_seconds=horizon, users=["u00"], venues=[], events=[])
    assert validate_scenario(sc) == [f"horizon_seconds must be positive, got {horizon}"]
    path = tmp_path / "s.json"
    path.write_text(sc.to_json(), encoding="utf-8")
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"invalid: horizon_seconds must be positive, got {horizon}\n"


def test_json_round_trip(tmp_path):
    sc = bundled("relay_attack")
    path = tmp_path / "s.json"
    path.write_text(sc.to_json(), encoding="utf-8")
    again = Scenario.from_json_file(path)
    assert again.to_dict() == sc.to_dict()


def test_events_sorted_stably():
    sc = minimal(
        [
            ScenarioEvent(20, "leave", {"user": "u00"}),
            ScenarioEvent(10, "enter", {"user": "u00", "venue": "v0", "pos": [0, 0]}),
            ScenarioEvent(20, "trace_query", {"user": "u00"}),
        ]
    )
    kinds = [e.kind for e in sc.sorted_events()]
    assert kinds == ["enter", "leave", "trace_query"]


@pytest.mark.parametrize(
    "builder",
    [
        lambda: build_population_scenario(n_users=10, days=3, seed=1),
        pytest.param(lambda: bundled("street_encounter"), id="street_encounter"),
        pytest.param(lambda: bundled("relay_attack"), id="relay_attack"),
        lambda: bundled("relay_baseline"),
        pytest.param(lambda: bundled("duty_cycle"), id="duty_cycle"),
        lambda: build_population_scenario(n_users=4, days=2),  # fewest days allowed
    ],
)
def test_builders_produce_valid_scenarios(builder):
    sc = builder()
    assert validate_scenario(sc) == []
    # and they serialize cleanly
    json.loads(sc.to_json())


@pytest.mark.parametrize("days", [-1, 0, 1])
def test_population_builder_rejects_too_few_days(days):
    # with days < 2 the contagious period would end before it starts
    with pytest.raises(ValueError, match="days must be at least 2"):
        build_population_scenario(n_users=4, days=days)


def test_population_builder_deterministic():
    a = build_population_scenario(n_users=10, days=3, seed=5).to_dict()
    b = build_population_scenario(n_users=10, days=3, seed=5).to_dict()
    assert a == b


def _event(**fields):
    """A mutation that adds one event to a scenario dict."""
    return lambda d: d["events"].append(fields)


def _channel(**channel):
    return lambda d: d["params"].update(channel=channel)


def _params(**params):
    return lambda d: d["params"].update(params)


def _policy(policy):
    return lambda d: d["venues"][0].update(policy=policy)


def _edit(kind, **fields):
    """A mutation that sets fields on the first event of ``kind``."""
    return lambda d: next(e for e in d["events"] if e["kind"] == kind).update(fields)


@pytest.mark.parametrize(
    "mutate,expected",
    [
        (lambda d: d["users"].append("u00"), "duplicate user ids ['u00']"),
        (_channel(max_range_m="x"), "channel max_range_m must be a finite number"),
        (_channel(max_range_m=float("nan")), "channel max_range_m must be a finite number"),
        (_channel(max_range_m=0), "channel max_range_m must be positive"),
        (_channel(noise_sigma_db=[4]), "channel noise_sigma_db must be a finite number"),
        (lambda d: d["events"].extend([
            {"time": 100, "kind": "enter", "user": "u00", "venue": "v0", "pos": "xy"},
            {"time": 200, "kind": "leave", "user": "u00"},
        ]), "enter pos must be"),
        (_event(time=100, kind="move", user="u00", pos=["a", 1]), "move requires pos"),
        (_event(time=100, kind="adversary_action", action="flood", venue="v0"),
         "flood requires ['start', 'end']"),
        (_event(time=100, kind="adversary_action", action="relay_cross_venue",
                src_venue="v0", start=0, end=500), "relay_cross_venue requires ['dst_venue']"),
        (_event(time=100, kind="adversary_action", action="share_rid"),
         "share_rid requires ['from_user', 'to_user']"),
        (_event(time=100, kind="adversary_action", action="suppress_broadcasts",
                user="ghost", start=0, end=500), "unknown user 'ghost' in user"),
        # ids that are not strings, and duplicate venues
        (lambda d: d["users"].append(["x"]), "user ids must be strings, got [['x']]"),
        (lambda d: d["users"].append(7), "user ids must be strings, got [7]"),
        (lambda d: d["venues"].append({"id": ["x"]}), "venue ids must be strings, got [['x']]"),
        (lambda d: d["venues"].append({"id": 7}), "venue ids must be strings, got [7]"),
        (lambda d: d["venues"].append({"id": "v0"}), "duplicate venue ids ['v0']"),
        # event fields a run cannot use
        (_edit("report", tamper="bogus"), "unknown tamper mode 'bogus'"),
        (_edit("enter", consent="no"), "enter consent must be true or false, got 'no'"),
        # user and venue references that are not strings
        (_event(time=100, kind="move", user=["u00"], pos=[0, 0]), "unknown user ['u00']"),
        (_event(time=100, kind="enter", user="u00", venue=["v0"]), "unknown venue ['v0']"),
        (_edit("report", use_certificate_of=["u00"]),
         "unknown user ['u00'] in use_certificate_of"),
        (_event(time=100, kind="adversary_action", action="relay_cross_venue",
                src_venue=["v0"], dst_venue="v1", start=0, end=500),
         "unknown venue ['v0'] in src_venue"),
        (_event(time=100, kind="adversary_action", action="relay_cross_venue",
                src_venue="v0", dst_venue=["v1"], start=0, end=500),
         "unknown venue ['v1'] in dst_venue"),
        (_event(time=100, kind="adversary_action", action="flood",
                venue=["v0"], start=0, end=500), "unknown venue ['v0'] in venue"),
        (_event(time=100, kind="adversary_action", action="suppress_broadcasts",
                user=["u00"], start=0, end=500), "unknown user ['u00'] in user"),
        (_event(time=100, kind="adversary_action", action="share_rid",
                from_user=["u00"], to_user="u01"), "unknown user ['u00'] in from_user"),
        (_event(time=100, kind="adversary_action", action="share_rid",
                from_user="u00", to_user=["u01"]), "unknown user ['u01'] in to_user"),
        (_event(time=100, kind="adversary_action", action="linkage_eavesdrop",
                venues=[["v0"]]), "venues must be a list of known venue ids"),
        # params and venue policy values of the wrong type or range
        (_params(bloom_fpr=2), "params: bloom_fpr must be in (0, 1), got 2"),
        (_params(bloom_fpr="x"), "params: bloom_fpr must be a finite number, got 'x'"),
        (_params(retention_days="x"), "params: retention_days must be an integer, got 'x'"),
        (_params(exposure_seconds="x"), "params: exposure_seconds must be an integer"),
        (_params(proximity_meters="x"), "params: proximity_meters must be a finite number"),
        (_params(arrival_time_extension="yes"),
         "params: arrival_time_extension must be true or false, got 'yes'"),
        (_policy({"max_rx_dbm": "x"}),
         "venue 'v0': policy max_rx_dbm must be a finite number, got 'x'"),
        (_policy({"clock_tolerance": None}),
         "venue 'v0': policy clock_tolerance must be an integer, got None"),
        (_policy({"max_broadcasts_per_minute": "5"}),
         "policy max_broadcasts_per_minute must be an integer, got '5'"),
        (_policy({"within_hours": "x"}), "policy within_hours must be an integer, got 'x'"),
        (_policy(5), "venue 'v0': policy must be an object"),
        (_policy({"clock_tolerance": -5}), "policy clock_tolerance must not be negative"),
        # negative settings leave every report unmatched or every query empty
        (_params(retention_days=-1), "params: retention_days must not be negative, got -1"),
        (_policy({"time_condition": "within_hours", "within_hours": -1}),
         "venue 'v0': policy within_hours must not be negative, got -1"),
        (_event(time=100, kind="test_positive", user="u01", period=[-500, -100]),
         "test_positive requires period [start, end] with 0 <= start <= end"),
        # a truncated period made the run judge a period the file does not state
        (_event(time=100, kind="test_positive", user="u01", period=[86400.9, 172799.9]),
         "test_positive requires period [start, end] with 0 <= start <= end"),
        (_event(time=100, kind="test_positive", user="u01", period=[True, 172800]),
         "test_positive requires period [start, end] with 0 <= start <= end"),
        # a negative delay schedules relayed broadcasts in the past
        (_event(time=100, kind="adversary_action", action="relay_cross_venue",
                src_venue="v0", dst_venue="v1", start=100, end=500, delay=-5),
         "adversary_action delay must be a non-negative finite number, got -5"),
        # a truncated window start sent the flood before its window opened
        (_event(time=123000, kind="adversary_action", action="flood", venue="v0",
                start=123000.9, end=123010),
         "adversary_action start must be an integer, got 123000.9"),
        (_event(time=123000, kind="adversary_action", action="flood", venue="v0",
                start=123000, end=True),
         "adversary_action end must be an integer, got True"),
        # an epoch length that leaves a remainder ran past the day's broadcast order
        (_params(dp3t_epochs_per_day=7), "params: dp3t_epochs_per_day must divide 86400, got 7"),
        # an integer too large for a float made the finiteness check raise
        (_edit("enter", pos=[10**400, 0]), "enter pos must be [x, y], two finite numbers"),
        (_event(time=100, kind="adversary_action", action="flood", venue="v0",
                start=100, end=500, tx_dbm=-10**400),
         "adversary_action tx_dbm must be a finite number"),
        # DP-3T asked for the key of a day its chain had not reached yet
        (_edit("test_positive", period=[3 * DAY, 3 * DAY]),
         "test_positive period [259200, 259200] starts after the test"),
        # the infection certificate encodes the period as u64
        (_edit("test_positive", period=[DAY, 2**64]),
         "test_positive period end must be below 2**64, got 18446744073709551616"),
        # a horizon past the u64 range let the run go on without end
        (lambda d: d.update(horizon_seconds=2**64),
         "horizon_seconds must be below 2**64, got 18446744073709551616"),
    ],
)
def test_inputs_that_crashed_run_are_rejected(mutate, expected, tmp_path, capsys):
    scenario = bundled("relay_baseline").to_dict()
    mutate(scenario)
    found = validate_scenario(Scenario.from_dict(scenario))
    assert len(found) == 1 and expected in found[0], found
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"invalid: {found[0]}\n"
    assert main(["validate", "--scenario", str(path)]) == 1
    assert capsys.readouterr().out == f"{found[0]}\n"


def test_zero_retention_and_window_stay_valid():
    scenario = bundled("relay_baseline")
    scenario.params["retention_days"] = 0
    scenario.venues[0].policy = {"time_condition": "within_hours", "within_hours": 0}
    assert validate_scenario(scenario) == []


BUNDLED = {
    path.name: json.loads(path.read_text(encoding="utf-8"))
    for path in sorted(SCENARIOS.glob("*.json"))
}
FIELDS = sorted({"time", "kind", *(k for req, opt in EVENT_FIELDS.values() for k in (*req, *opt))})
ODD_VALUES = [None, True, 0, 1, -1, 2.5, float("nan"), float("inf"), "", "x", [], [1], [0, 0],
              ["v0"], {}]
SHIFTS = [-2 * DAY, -3600, -1, 1, 3600, 2 * DAY]


@st.composite
def mutated_scenarios(draw):
    """A bundled scenario after one to three mutations: drop, retype or
    duplicate a field, shift a time, or swap a name for another."""
    document = copy.deepcopy(BUNDLED[draw(st.sampled_from(sorted(BUNDLED)))])
    events = document["events"]
    names = [*document["users"], *(v["id"] for v in document["venues"]), "ghost",
             *EVENT_FIELDS, *ACTION_FIELDS, *TAMPER_MODES]
    for _ in range(draw(st.integers(1, 3))):
        event = draw(st.sampled_from(events))
        how = draw(st.sampled_from(["drop", "retype", "duplicate", "shift", "swap"]))
        if how == "drop":
            event.pop(draw(st.sampled_from(sorted(event))))
        elif how == "retype":
            event[draw(st.sampled_from(FIELDS))] = draw(st.sampled_from(ODD_VALUES))
        elif how == "duplicate" and draw(st.booleans()):
            events.append(copy.deepcopy(event))
        elif how == "duplicate":
            key = draw(st.sampled_from(sorted(event)))
            draw(st.sampled_from(events))[key] = copy.deepcopy(event[key])
        elif how == "shift":
            times = sorted(k for k in ("time", "start", "end", "delay") if k in event)
            key = draw(st.sampled_from([*times, "horizon_seconds"]))
            owner = document if key == "horizon_seconds" else event
            if type(owner[key]) in (int, float):
                owner[key] += draw(st.sampled_from(SHIFTS))
        else:
            texts = sorted(k for k, v in event.items() if type(v) is str)
            if texts:
                event[draw(st.sampled_from(texts))] = draw(st.sampled_from(names))
    return document


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(document=mutated_scenarios(), protocol=st.sampled_from(["venue", "dp3t", "tracetogether"]))
def test_mutated_scenarios_fail_validation_or_run(document, protocol, tmp_path, capsys):
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    checked = main(["validate", "--scenario", str(path)])
    ran = main(["run", "--scenario", str(path), "--protocol", protocol,
                "--out", str(tmp_path / "out")])
    output = capsys.readouterr()
    assert checked in (0, 1) and ran in (0, 1), output.err
    assert ran == checked, output  # a clean validate implies a clean run
