import copy
import hashlib
import itertools
import json
import re
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from venuetrace.actors import VenuePolicy
from venuetrace.channel import ChannelModel
from venuetrace.cli import main
from venuetrace.scenario import (
    ACTION_FIELDS,
    EVENT_DEFAULTS,
    EVENT_FIELDS,
    TAMPER_MODES,
    Scenario,
    ScenarioEvent,
    VenueSpec,
    build_population_scenario,
    validate_scenario,
)
from venuetrace.sim import SimParams, run

from bundled import SCENARIOS, bundled, nudge

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
    path.write_text(json.dumps(sc.to_dict()), encoding="utf-8")
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"invalid: horizon_seconds must be positive, got {horizon}\n"


def test_json_round_trip(tmp_path):
    sc = bundled("relay_attack")
    path = tmp_path / "s.json"
    path.write_text(json.dumps(sc.to_dict()), encoding="utf-8")
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
    json.loads(json.dumps(sc.to_dict()))


@pytest.mark.parametrize("days", [-1, 0, 1])
def test_population_builder_rejects_too_few_days(days):
    # with days < 2 the contagious period would end before it starts
    with pytest.raises(ValueError, match="days must be at least 2"):
        build_population_scenario(n_users=4, days=days)


def test_population_builder_deterministic():
    a = build_population_scenario(n_users=10, days=3, seed=5).to_dict()
    b = build_population_scenario(n_users=10, days=3, seed=5).to_dict()
    assert a == b
    # the 100-user outbreak population, byte for byte as first generated
    outbreak = build_population_scenario(
        n_users=100, n_venues=5, days=3, seed=9, infected=tuple(f"u{i:02d}" for i in range(30))
    ).to_dict()
    canonical = json.dumps(outbreak, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(canonical).hexdigest() == (
        "924a1598ec9b03aeeb494b08db30631b9c3f8f2bab7dd918d334c637830cd612"
    )


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
        # a misspelt field was ignored: the run placed the user at (0, 0)
        (_edit("enter", position=[0.9, 0.0]), "unknown keys ['position']"),
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
        # a negative stay or rate ran as 0, the value that turns its check off
        (_policy({"min_stay_seconds": -5}),
         "venue 'v0': policy min_stay_seconds must not be negative, got -5"),
        (_policy({"max_broadcasts_per_minute": -1}),
         "venue 'v0': policy max_broadcasts_per_minute must not be negative, got -1"),
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
         "adversary_action delay must be a non-negative integer, got -5"),
        # a fractional delay wrote float times such as 122580.5 into the broadcasts
        (_event(time=100, kind="adversary_action", action="relay_cross_venue",
                src_venue="v0", dst_venue="v1", start=100, end=500, delay=0.5),
         "adversary_action delay must be a non-negative integer, got 0.5"),
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
        # a field another action reads was ignored: the relay sent at 10 dBm,
        # the replay stayed at its own venue
        (_event(time=100, kind="adversary_action", action="relay_cross_venue",
                src_venue="v0", dst_venue="v1", start=100, end=500, tx_dbm=30.0),
         "unknown keys ['tx_dbm']"),
        (_event(time=100, kind="adversary_action", action="replay_same_venue",
                venue="v0", dst_venue="v1", start=100, end=500), "unknown keys ['dst_venue']"),
        (_event(time=100, kind="adversary_action", action="flood", venue="v0",
                start=100, end=500, delay=5), "unknown keys ['delay']"),
        (_event(time=100, kind="adversary_action", action="share_rid",
                from_user="u00", to_user="u01", user="u10"), "unknown keys ['user']"),
        # received power no longer fell with distance: venue precision fell to
        # 0.917 on population_small at exponent 0, recall to 0.364 at -1
        (_channel(path_loss_exponent=0),
         "params: channel path_loss_exponent must be positive, got 0"),
        # each of these ran as its edge value: 1.0, 0.0, 0 and 0.0
        (_channel(reception_prob=7.5), "params: channel reception_prob must be in [0, 1], got 7.5"),
        (_channel(noise_sigma_db=-3), "params: channel noise_sigma_db must not be negative, got -3"),
        (_params(exposure_seconds=-5), "params: exposure_seconds must not be negative, got -5"),
        (_params(proximity_meters=-1), "params: proximity_meters must not be negative, got -1"),
        # refusals that no other test reached
        (_event(time=100, kind="adversary_action", action="flood", venue="v0", start=5000, end=4000),
         "adversary window ends before it starts"),
        (lambda d: d.update(params=[5]), "params must be an object"),
        (lambda d: d["params"].update(channel=5), "params: channel must be an object"),
        (_event(time=100, kind="test_positive", user="u01", period=5),
         "test_positive requires period [start, end] with 0 <= start <= end, two integers, got 5"),
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


# every value a scenario file sets, as (block, field); protocol and seed come
# from the command line, and channel is the block of the ChannelModel fields
SETTABLE = [
    *(("params", f) for f in fields(SimParams) if f.name not in ("protocol", "seed", "channel")),
    *(("channel", f) for f in fields(ChannelModel)),
    *(("policy", f) for f in fields(VenuePolicy)),
]
TYPE_ONLY = {"tx_dbm", "reference_loss_db", "max_rx_dbm", "arrival_time_extension"}
RANGE_KEYS = ("one_of", "above", "min", "below", "max")
# a window is a whole number of epochs, so the shortest one needs 1-second epochs
COMPANIONS = {"window_seconds": {"epoch_seconds": 1}}


def _set(document, block, values):
    """Set ``values`` in the params, channel or first venue policy block."""
    if block == "policy":
        document["venues"][0].setdefault("policy", {}).update(values)
    elif block == "channel":
        document["params"].setdefault("channel", {}).update(values)
    else:
        document["params"].update(values)


def _bound_values(rule, integer):
    """(inside, past) at each bound ``rule`` declares: the bound itself or,
    when open, the nearest value inside it, and the first value outside."""
    step = (lambda bound, up: bound + up) if integer else nudge
    pairs = [(member, "fortnightly") for member in rule.get("one_of", ())]
    if "above" in rule:
        pairs.append((step(rule["above"], 1), rule["above"]))
    if "min" in rule:
        pairs.append((rule["min"], step(rule["min"], -1)))
    if "below" in rule:
        pairs.append((step(rule["below"], -1), rule["below"]))
    if "max" in rule:
        pairs.append((rule["max"], step(rule["max"], 1)))
    return pairs


@pytest.mark.parametrize("block,f", SETTABLE, ids=[f"{b}-{f.name}" for b, f in SETTABLE])
def test_each_settable_value_runs_at_its_bounds_and_fails_past_them(block, f, tmp_path, capsys):
    rule = {key: f.metadata[key] for key in RANGE_KEYS if key in f.metadata}
    type_only = f.name in TYPE_ONLY
    assert bool(rule) != type_only and f.metadata.get("type_only", False) == type_only, f
    document = bundled("relay_baseline").to_dict()
    _set(document, block, {f.name: f.default})
    assert validate_scenario(Scenario.from_dict(document)) == []
    path = tmp_path / "bound.json"
    for inside, past in _bound_values(rule, f.type == "int"):
        document = bundled("relay_baseline").to_dict()
        _set(document, "params", COMPANIONS.get(f.name, {}))
        _set(document, block, {f.name: inside})
        path.write_text(json.dumps(document), encoding="utf-8")
        # one TraceTogether broadcast a second for three days takes seconds
        protocol = "venue" if f.name == "tt_interval_seconds" else "all"
        out = str(tmp_path / "out")
        assert main(["run", "--scenario", str(path), "--protocol", protocol, "--out", out]) == 0
        capsys.readouterr()
        _set(document, block, {f.name: past})
        path.write_text(json.dumps(document), encoding="utf-8")
        assert main(["validate", "--scenario", str(path)]) == 1
        found = capsys.readouterr().out.splitlines()
        assert len(found) == 1 and found[0].endswith(repr(past)), found
        assert f.name.replace("_", " ") in found[0].replace("_", " "), found


def test_readme_table_lists_every_settable_value():
    readme = (SCENARIOS.parent / "README.md").read_text(encoding="utf-8")
    table = {line.split("|")[2].strip(" `") for line in readme.splitlines()
             if line.startswith("| `params") or line.startswith("| `policy")}
    assert table == {f.name for _, f in SETTABLE}


def _readme_table(readme, first_column):
    """The rows of the README table whose header starts with ``first_column``, as cells."""
    lines = readme.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"| {first_column} |"))
    return [[cell.strip() for cell in line.strip("|").split("|")]
            for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2:])]


def test_readme_lists_every_event_field_and_default():
    readme = (SCENARIOS.parent / "README.md").read_text(encoding="utf-8")
    # an adversary_action may carry the fields of its action, which the action table lists
    kinds = {**EVENT_FIELDS, "adversary_action": (EVENT_FIELDS["adversary_action"][0], ())}
    optional = {key for _, opt in (*kinds.values(), *ACTION_FIELDS.values()) for key in opt}
    # every optional field has a declared default but use_certificate_of, the reporter's own
    assert set(EVENT_DEFAULTS) == optional - {"use_certificate_of"}
    for first_column, declared in (("kind", kinds), ("action", ACTION_FIELDS)):
        # a cell lists `field`, or `field` = `default` with the default as JSON
        written = {name.strip("`"): (re.findall(r"`(\w+)`", requires),
                                     dict(re.findall(r"`(\w+)`(?: = `([^`]*)`)?", may_carry)))
                   for name, requires, may_carry in _readme_table(readme, first_column)}
        assert written == {
            name: (list(req), {key: json.dumps(EVENT_DEFAULTS[key]) if key in EVENT_DEFAULTS
                               else "" for key in opt})
            for name, (req, opt) in declared.items()
        }


def test_zero_retention_and_window_stay_valid():
    scenario = bundled("relay_baseline")
    scenario.params["retention_days"] = 0
    scenario.venues[0].policy = {"time_condition": "within_hours", "within_hours": 0}
    assert validate_scenario(scenario) == []


def test_channel_override_merges_key_by_key():
    # an override replaced the scenario's whole channel block: the run fell
    # back to the default range, and validate passed the scenario's bad one
    sc = bundled("street_encounter")
    sc.params["channel"] = {"max_range_m": 5.0}
    channel = run(sc, "venue", 0, overrides={"channel": {"noise_sigma_db": 4.0}}).data[
        "config"]["params"]["channel"]
    assert (channel["max_range_m"], channel["noise_sigma_db"]) == (5.0, 4.0)
    sc.params["channel"] = {"max_range_m": -3.0}
    assert validate_scenario(sc, {"channel": {"noise_sigma_db": 1.0}}) == [
        "params: channel max_range_m must be positive, got -3.0"]


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
