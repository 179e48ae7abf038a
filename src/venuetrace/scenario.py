"""Scenario schema, validation, and deterministic scenario builders.

A scenario is a JSON document: users, venues (with per-venue policy
overrides), a time horizon, simulation parameter overrides, and a list of
timed events. Positions are scripted; there is no mobility model in the
core. The fixed scenarios (encounters, attack setups, duty cycles) are the
files under ``scenarios/``; ``build_population_scenario`` generates
populations of any size as plain event lists, so everything the simulator
consumes stays explicit and reproducible. ``horizon_seconds`` is a
positive integer below 2**64, so no event time overflows a u64 field.

Each event has a ``time``, a ``kind``, and the fields ``EVENT_FIELDS``
lists for its kind: those it cannot run without and those it may carry.
An ``adversary_action`` names an ``action``; ``ACTION_FIELDS`` lists the
fields each action cannot run without. A field name has one rule
wherever it appears (``_event_rules``): a user or venue field names a
declared id, an adversary window's ``start`` and ``end`` are integers,
powers and delays finite numbers (a delay not negative),
``pos`` is [x, y] and ``period`` is [start, end], two integers with
0 <= start <= end. A ``test_positive`` period starts no later than the
test itself and ends below 2**64, the range of a u64 time field.
Fields a kind does not list are ignored. ``move`` applies to the current
location: the venue while inside one, the shared street space otherwise.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from random import Random
from typing import Any, Callable

from .channel import ChannelModel
from .schedule import SECONDS_PER_DAY

# event kind -> (fields it cannot run without, fields it may carry)
EVENT_FIELDS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "enter": (("user", "venue"), ("pos", "consent")),
    "move": (("user", "pos"), ()),
    "leave": (("user",), ()),
    "test_positive": (("user", "period"), ()),
    "report": (("user",), ("use_certificate_of", "tamper")),
    "trace_query": (("user",), ()),
    # ACTION_FIELDS says which of these each action requires
    "adversary_action": (
        ("action",),
        ("venue", "src_venue", "dst_venue", "user", "from_user", "to_user",
         "start", "end", "delay", "tx_dbm", "pos", "per_minute", "venues"),
    ),
}
# adversary action -> the fields it cannot run without
ACTION_FIELDS: dict[str, tuple[str, ...]] = {
    "flood": ("venue", "start", "end"),
    "replay_same_venue": ("venue", "start", "end"),
    "relay_cross_venue": ("src_venue", "dst_venue", "start", "end"),
    "suppress_broadcasts": ("user", "start", "end"),
    "share_rid": ("from_user", "to_user"),
    "linkage_eavesdrop": (),
}
TAMPER_MODES = ("forge_certificate", "corrupt_opening", "swap_venue_keys")


@dataclass
class ScenarioEvent:
    time: int
    kind: str
    data: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"time": self.time, "kind": self.kind, **self.data}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ScenarioEvent":
        d = dict(d)
        return cls(time=_json_int(d.pop("time"), "event time"), kind=str(d.pop("kind")), data=d)


@dataclass
class VenueSpec:
    venue_id: str
    policy: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"id": self.venue_id}
        if self.policy:
            out["policy"] = self.policy
        return out

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "VenueSpec":
        return cls(venue_id=d["id"], policy=d.get("policy", {}))


@dataclass
class Scenario:
    name: str
    horizon_seconds: int
    users: list[str]
    venues: list[VenueSpec]
    events: list[ScenarioEvent]
    params: dict[str, Any] = field(default_factory=dict)

    def sorted_events(self) -> list[ScenarioEvent]:
        return sorted(self.events, key=lambda e: e.time)  # stable: file order on ties

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "horizon_seconds": self.horizon_seconds,
            "users": list(self.users),
            "venues": [v.to_dict() for v in self.venues],
            "params": self.params,
            "events": [e.to_dict() for e in self.events],
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Scenario":
        return cls(
            name=d.get("name", "scenario"),
            horizon_seconds=_json_int(d["horizon_seconds"], "horizon_seconds"),
            users=_json_array(d["users"], "users"),
            venues=[VenueSpec.from_dict(v) for v in d.get("venues", [])],
            events=[ScenarioEvent.from_dict(e) for e in d.get("events", [])],
            params=d.get("params", {}),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "Scenario":
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
        if not isinstance(document, dict):
            raise TypeError(f"a scenario is a JSON object, not {type(document).__name__}")
        return cls.from_dict(document)


def _json_int(value: Any, name: str) -> int:
    """``value`` if it is a JSON integer; a float, bool or string is refused
    rather than truncated."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _json_array(value: Any, name: str) -> list[Any]:
    """A copy of ``value`` if it is a JSON array; a string or an object is
    refused rather than read as its characters or keys."""
    if not isinstance(value, list):
        raise TypeError(f"{name} must be an array, got {value!r}")
    return list(value)


class ScenarioError(ValueError):
    """Scenario failed validation; ``diagnostics`` lists every problem."""

    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


def validate_scenario(scenario: Scenario) -> list[str]:
    """Return a list of diagnostics (empty when the scenario is clean)."""
    from .actors import VenuePolicy  # local import: actors pulls in crypto

    horizon = scenario.horizon_seconds
    if horizon <= 0:
        diags = [f"horizon_seconds must be positive, got {horizon!r}"]
    elif horizon >= 2**64:  # every event time is at most the horizon
        diags = [f"horizon_seconds must be below 2**64, got {horizon}"]
    else:
        diags = []
    diags.extend(_id_diagnostics("user", scenario.users))
    diags.extend(_id_diagnostics("venue", [v.venue_id for v in scenario.venues]))
    # only strings: a reference of any other type is unknown, never hashed
    users = {u for u in scenario.users if type(u) is str}
    venues = {v.venue_id for v in scenario.venues if type(v.venue_id) is str}
    rules = _event_rules(users, venues)
    tested: set[str] = set()
    in_venue: dict[str, str] = {}

    diags.extend(_params_diagnostics(scenario.params))
    for v in scenario.venues:
        where = f"venue {v.venue_id!r}: "
        if not isinstance(v.policy, dict):
            diags.append(f"{where}policy must be an object")
            continue
        diags.extend(_field_diagnostics(VenuePolicy, v.policy, where, "policy "))
        condition = v.policy.get("time_condition", "same_day")
        if type(condition) is str and condition not in ("same_day", "within_hours"):
            diags.append(f"{where}unknown time condition {condition!r}")
        for key in ("clock_tolerance", "within_hours"):
            value = v.policy.get(key, 0)
            if type(value) is int and value < 0:
                diags.append(f"{where}policy {key} must not be negative, got {value}")

    def flag(message: str) -> None:  # anchored at the event the loop is on
        diags.append(f"event[{i}] t={e.time} {e.kind}: {message}")

    for i, e in enumerate(scenario.sorted_events()):
        if e.kind not in rules:
            flag(f"unknown event kind {e.kind!r}")
            continue
        if e.time < 0 or e.time > horizon:
            flag("time outside scenario horizon")
        data = e.data
        missing = []
        counts = True  # toward the bookkeeping below
        for key, accepts, needed, blocks, message in rules[e.kind]:
            if key not in data:
                if needed:
                    missing.append(key)
            elif not accepts(data[key]):
                flag(message.format(data[key]))
                counts = counts and not blocks
        if missing:
            flag(f"{e.kind} requires {missing}")
        if missing or not counts:
            continue
        user = data.get("user")
        if e.kind == "enter":
            if user in in_venue:
                flag(f"user {user} enters {data['venue']!r} before leaving {in_venue[user]!r}")
            in_venue[user] = data["venue"]
        elif e.kind == "leave":
            if in_venue.pop(user, None) is None:
                flag(f"user {user} leaves but is in no venue")
        elif e.kind == "test_positive":
            tested.add(user)
            start, end = data["period"]
            if start > e.time:  # a report would need keys from after the test
                flag(f"test_positive period {data['period']!r} starts after the test")
            if end >= 2**64:  # certificates encode times as u64
                flag(f"test_positive period end must be below 2**64, got {end}")
        elif e.kind == "report" and data.get("use_certificate_of", user) not in tested:
            flag(f"user {user} reports without a positive test")
        elif e.kind == "adversary_action":
            missing = [key for key in ACTION_FIELDS[data["action"]] if key not in data]
            if missing:
                flag(f"{data['action']} requires {missing}")
            start, end = data.get("start"), data.get("end")
            if _is_number(start) and _is_number(end):
                if end < start:
                    flag("adversary window ends before it starts")
                elif start < 0 or end > horizon:
                    flag("adversary window outside scenario horizon")
    return diags


def _event_rules(users: set[str], venues: set[str]) -> dict[str, list[tuple]]:
    """Event kind -> a check per field ``EVENT_FIELDS`` lists for it: (field,
    accepts a value, required, whether a bad value keeps the event out of
    the bookkeeping, diagnostic with ``{!r}`` for the value). Each field
    name has one rule for every kind that lists it.
    """
    # field -> (accepts a value, the noun of "unknown <noun> <value> in <field>")
    references = {
        **dict.fromkeys(("user", "from_user", "to_user", "use_certificate_of"),
                        (_known(users), "user")),
        **dict.fromkeys(("venue", "src_venue", "dst_venue"), (_known(venues), "venue")),
        "action": (_known(ACTION_FIELDS), "adversary action"),
        # a run reads a null tamper as no tampering
        "tamper": (lambda value: value is None or value in TAMPER_MODES, "tamper mode"),
    }
    # field -> (accepts a value, the shape a diagnostic asks for)
    shapes = {
        **dict.fromkeys(("start", "end"), (lambda value: type(value) is int, "an integer")),
        "tx_dbm": (_is_number, "a finite number"),
        "delay": (lambda value: _is_number(value) and value >= 0, "a non-negative finite number"),
        "pos": (_is_pair, "[x, y], two finite numbers"),
        "period": (_is_period, "[start, end] with 0 <= start <= end, two integers"),
        "consent": (lambda value: type(value) is bool, "true or false"),
        "per_minute": (_positive_int, "a positive integer"),
        "venues": (lambda value: isinstance(value, list) and all(map(_known(venues), value)),
                   "a list of known venue ids"),
    }
    rules: dict[str, list[tuple]] = {}
    for kind, (required, optional) in EVENT_FIELDS.items():
        rules[kind] = checks = []
        for key in (*required, *optional):
            needed = key in required
            if key in references:
                accepts, noun = references[key]
                message = f"unknown {noun} {{!r}} in {key}"
            else:
                accepts, shape = shapes[key]
                verb = f"requires {key} {shape}" if needed else f"{key} must be {shape}"
                message = f"{kind} {verb}, got {{!r}}"
            checks.append((key, accepts, needed, needed or key in references, message))
    return rules


def _known(ids: Any) -> Callable[[Any], bool]:
    """Accepts one of ``ids`` (string keys); a value of another type,
    unhashable ones included, is unknown."""
    return lambda value: type(value) is str and value in ids


def _id_diagnostics(kind: str, ids: list[Any]) -> list[str]:
    """Ids that are not strings, and ids given more than once."""
    diags = []
    wrong = [i for i in ids if type(i) is not str]
    if wrong:
        diags.append(f"{kind} ids must be strings, got {wrong}")
    counts = Counter(i for i in ids if type(i) is str)
    duplicates = sorted(i for i, n in counts.items() if n > 1)
    if duplicates:
        diags.append(f"duplicate {kind} ids {duplicates}")
    return diags


def _positive_int(value: Any) -> bool:
    return type(value) is int and value > 0


def _is_number(value: Any) -> bool:
    """A finite int or float; bools, strings, NaN and integers too large
    for a float are not."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


def _is_pair(value: Any) -> bool:
    """Two finite numbers: a point [x, y]."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        return False
    x, y = value  # unrolled: this runs for every enter event
    numbers = type(x) in (int, float) and type(y) in (int, float)
    try:
        return numbers and math.isfinite(x) and math.isfinite(y)
    except OverflowError:  # an integer too large for a float
        return False


def _is_period(value: Any) -> bool:
    """[start, end]: two integers, bools excluded, with 0 <= start <= end."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        return False
    start, end = value
    return type(start) is int and type(end) is int and 0 <= start <= end


# dataclass field annotation -> (accepts a value, what a diagnostic asks for)
_FIELD_TYPES: dict[str, tuple[Callable[[Any], bool], str]] = {
    "int": (lambda v: type(v) is int, "an integer"),
    "float": (_is_number, "a finite number"),
    "bool": (lambda v: type(v) is bool, "true or false"),
    "str": (lambda v: type(v) is str, "a string"),
}


def _field_diagnostics(
    cls: type, values: dict[str, Any], where: str, section: str = "", skip: tuple[str, ...] = ()
) -> list[str]:
    """Keys that are not fields of ``cls``, and values that do not have the
    type the field is annotated with; ``section`` names the block."""
    types = {f.name: f.type for f in fields(cls) if f.name not in skip}
    unknown = sorted(set(values) - set(types))
    diags = [f"{where}unknown {section}keys {unknown}"] if unknown else []
    for key, value in values.items():
        accepts, expected = _FIELD_TYPES.get(types.get(key), (None, ""))
        if accepts and not accepts(value):
            diags.append(f"{where}{section}{key} must be {expected}, got {value!r}")
    return diags


def _params_diagnostics(params: Any) -> list[str]:
    """Keys ``SimParams.build`` would drop, values of the wrong type, and
    values a run cannot use."""
    from .sim import SimParams  # local import: sim imports this module

    if not isinstance(params, dict):
        return ["params must be an object"]
    # protocol and seed are set per run, never by the scenario file
    diags = _field_diagnostics(SimParams, params, "params: ", skip=("protocol", "seed"))
    channel = params.get("channel", {})
    if not isinstance(channel, dict):
        diags.append("params: channel must be an object")
    else:
        diags.extend(_field_diagnostics(ChannelModel, channel, "params: ", "channel "))
        max_range = channel.get("max_range_m", ChannelModel.max_range_m)
        if _is_number(max_range) and max_range <= 0:
            diags.append(f"params: channel max_range_m must be positive, got {max_range!r}")

    merged = {**asdict(SimParams()), **params}
    for key in ("epoch_seconds", "window_seconds", "tt_interval_seconds", "dp3t_epochs_per_day"):
        if type(merged[key]) is int and merged[key] <= 0:
            diags.append(f"params: {key} must be a positive integer, got {merged[key]!r}")
    retention = merged["retention_days"]
    if type(retention) is int and retention < 0:
        diags.append(f"params: retention_days must not be negative, got {retention}")
    fpr = merged["bloom_fpr"]
    if _is_number(fpr) and not 0 < fpr < 1:
        diags.append(f"params: bloom_fpr must be in (0, 1), got {fpr!r}")
    per_day = merged["dp3t_epochs_per_day"]
    if _positive_int(per_day) and per_day > SECONDS_PER_DAY:
        diags.append(f"params: dp3t_epochs_per_day exceeds {SECONDS_PER_DAY}, one per second")
    elif _positive_int(per_day) and SECONDS_PER_DAY % per_day:
        # the last epoch of each day would fall outside the day's broadcast order
        diags.append(f"params: dp3t_epochs_per_day must divide {SECONDS_PER_DAY}, got {per_day}")
    epoch, window = merged["epoch_seconds"], merged["window_seconds"]
    if _positive_int(epoch) and _positive_int(window) and window % epoch:
        diags.append("params: window_seconds must be a multiple of epoch_seconds")
    return diags


# ---------------------------------------------------------------------------
# Population builder (the core simulation consumes only the explicit events)
# ---------------------------------------------------------------------------

def _table_positions(count: int, table_index: int) -> list[tuple[float, float]]:
    """Seats around table ``table_index``: all pairwise within ~1.3 m."""
    base_x = 10.0 * table_index
    offsets = [(0.0, 0.0), (0.9, 0.0), (0.0, 0.9), (0.9, 0.9)]
    return [(base_x + dx, dy) for dx, dy in offsets[:count]]


def build_population_scenario(
    n_users: int = 50,
    n_venues: int = 3,
    days: int = 7,
    seed: int = 0,
    infected: tuple[str, ...] = ("u00", "u01"),
    slots_per_day: int = 2,
    min_epochs: int = 6,
    max_epochs: int = 18,
    epoch_seconds: int = 180,
    name: str = "population",
) -> Scenario:
    """Honest population: daily small-group venue visits with shared tables.

    Infected users test positive after the contagious window (days 1 through
    ``days - 2``), report once digests for those days exist, and every user
    runs a trace query before the horizon. Every same-table pairing lasts at
    least ``min_epochs`` epochs within 1.3 m, so each group containing an
    infected user yields ground-truth exposures. ``days`` must be at least 2,
    or the contagious period would end before it starts.
    """
    if days < 2:
        raise ValueError(f"days must be at least 2, got {days}")
    rng = Random(seed)
    users = [f"u{i:02d}" for i in range(n_users)]
    venues = [VenueSpec(venue_id=f"v{i}") for i in range(n_venues)]
    events: list[ScenarioEvent] = []

    period_start = 1 * SECONDS_PER_DAY
    period_end = (days - 1) * SECONDS_PER_DAY  # visits on days 1..days-2
    slot_hours = [9, 15][:slots_per_day] or [9]

    for day in range(days - 1):
        for slot, hour in enumerate(slot_hours):
            order = users[:]
            rng.shuffle(order)
            table = 0
            while order:
                size = min(len(order), rng.choice([2, 3, 3, 4]))
                group, order = order[:size], order[size:]
                venue = f"v{rng.randrange(n_venues)}"
                start = day * SECONDS_PER_DAY + hour * 3600 + rng.randrange(0, 10) * 60
                duration = rng.randrange(min_epochs, max_epochs + 1) * epoch_seconds
                seats = _table_positions(size, table)
                for member, pos in zip(group, seats):
                    events.append(
                        ScenarioEvent(
                            time=start,
                            kind="enter",
                            data={"user": member, "venue": venue, "pos": list(pos)},
                        )
                    )
                    events.append(
                        ScenarioEvent(time=start + duration, kind="leave", data={"user": member})
                    )
                table += 1

    test_time = period_end + 1800
    report_time = test_time + 600
    query_time = report_time + 3600
    for sick in infected:
        events.append(
            ScenarioEvent(
                time=test_time,
                kind="test_positive",
                data={"user": sick, "period": [period_start, period_end]},
            )
        )
        events.append(ScenarioEvent(time=report_time, kind="report", data={"user": sick}))
    for user in users:
        events.append(ScenarioEvent(time=query_time, kind="trace_query", data={"user": user}))

    return Scenario(
        name=name,
        horizon_seconds=days * SECONDS_PER_DAY,
        users=users,
        venues=venues,
        events=events,
        params={"epoch_seconds": epoch_seconds},
    )
