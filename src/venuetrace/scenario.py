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
An ``adversary_action`` names an ``action`` and may carry only the fields
``ACTION_FIELDS`` lists for it, the ones the run reads. A field name has
one rule wherever it appears (``_REFERENCES``, ``_SHAPES``): a user or
venue field names a declared id, an adversary window's ``start`` and
``end`` are integers, a ``delay`` a non-negative integer, a power a finite
number, ``pos`` is [x, y] and ``period`` is [start, end], two integers
with 0 <= start <= end, and an optional field left out reads as its
``EVENT_DEFAULTS`` value. A ``test_positive`` period starts no later than
the test itself and ends below 2**64, the range of a u64 time field.
A field a kind does not list is flagged as an unknown key; a top-level
or venue key the schema does not name fails the load. ``move`` applies
to the current location: the venue while inside one, the shared street
space otherwise. ``validate_scenario`` checks ``params`` with a run's
overrides merged in (``SimParams.merge``), each value against the type and
range its field declares; ``sim.run`` calls it once per run.
"""

from __future__ import annotations

import json
import math
import operator
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from random import Random
from typing import Any, Callable, Mapping

from .channel import ChannelModel
from .schedule import DEFAULT_EPOCH_SECONDS, SECONDS_PER_DAY

# adversary action -> (fields it cannot run without, fields it may carry):
# exactly the fields the run reads for that action
ACTION_FIELDS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "flood": (("venue", "start", "end"), ("pos", "per_minute", "tx_dbm")),
    "replay_same_venue": (("venue", "start", "end"), ("pos", "delay")),
    "relay_cross_venue": (("src_venue", "dst_venue", "start", "end"), ("pos", "delay")),
    "suppress_broadcasts": (("user", "start", "end"), ()),
    "share_rid": (("from_user", "to_user"), ()),
    "linkage_eavesdrop": ((), ("venues",)),
}
# event kind -> (fields it cannot run without, fields it may carry); an
# adversary_action lists every action's fields, and is held to its own
EVENT_FIELDS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "enter": (("user", "venue"), ("pos", "consent")),
    "move": (("user", "pos"), ()),
    "leave": (("user",), ()),
    "test_positive": (("user", "period"), ()),
    "report": (("user",), ("use_certificate_of", "tamper")),
    "trace_query": (("user",), ()),
    "adversary_action": (("action",), tuple(dict.fromkeys(
        key for req, opt in ACTION_FIELDS.values() for key in (*req, *opt)))),
}
# event kind -> every field it lists; adversary action -> every field its event may carry
_EVENT_KEYS = {kind: frozenset((*req, *opt)) for kind, (req, opt) in EVENT_FIELDS.items()}
_ACTION_KEYS = {act: frozenset(("action", *req, *opt)) for act, (req, opt) in ACTION_FIELDS.items()}
TAMPER_MODES = ("forge_certificate", "corrupt_opening", "swap_venue_keys")
# field that names an id -> the kind of id, as in "unknown <kind> <value> in <field>";
# a bad one keeps its event out of the bookkeeping even when the field is optional
_REFERENCES = {
    **dict.fromkeys(("user", "from_user", "to_user", "use_certificate_of"), "user"),
    **dict.fromkeys(("venue", "src_venue", "dst_venue"), "venue"),
    "action": "adversary action",
    "tamper": "tamper mode",
}
# any other field -> (accepts a value, given the declared venue ids; the shape diagnostics ask for)
_SHAPES: dict[str, tuple[Callable[[Any, set[str]], bool], str]] = {
    **dict.fromkeys(("start", "end"), (lambda value, _: type(value) is int, "an integer")),
    "tx_dbm": (lambda value, _: _is_number(value), "a finite number"),
    "delay": (lambda value, _: type(value) is int and value >= 0, "a non-negative integer"),
    "pos": (lambda value, _: _is_pair(value), "[x, y], two finite numbers"),
    "period": (lambda value, _: _is_period(value),
               "[start, end] with 0 <= start <= end, two integers"),
    "consent": (lambda value, _: type(value) is bool, "true or false"),
    "per_minute": (lambda value, _: _positive_int(value), "a positive integer"),
    "venues": (lambda value, venues: isinstance(value, list)
               and all(_names(venue, venues) for venue in value), "a list of known venue ids"),
}
# optional field -> what a run reads when an event leaves it out (use_certificate_of: the reporter)
EVENT_DEFAULTS: dict[str, Any] = {"pos": (0.0, 0.0), "consent": True, "delay": 1, "per_minute": 60,
                                  "tx_dbm": 10.0, "venues": (), "tamper": None}
# event kind -> for each field it lists: (field, whether the kind cannot run without it,
# the kind of id it names or None, and else its check and shape)
_KIND_FIELDS = {kind: [(key, key in req, _REFERENCES.get(key), *_SHAPES.get(key, (None, None)))
                       for key in (*req, *opt)] for kind, (req, opt) in EVENT_FIELDS.items()}


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
        spec = cls(venue_id=d["id"], policy=d.get("policy", {}))
        _refuse_unknown_keys(d, ("id", "policy"), f"venue {spec.venue_id!r}: ")
        return spec


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
        _refuse_unknown_keys(d, tuple(f.name for f in fields(cls)))
        return cls(
            name=d.get("name", "scenario"),
            horizon_seconds=_json_int(d["horizon_seconds"], "horizon_seconds"),
            users=_json_array(d["users"], "users"),
            venues=[VenueSpec.from_dict(v) for v in d.get("venues", [])],
            events=[ScenarioEvent.from_dict(e) for e in d.get("events", [])],
            params=d.get("params", {}),
        )

    @classmethod
    def from_json_file(cls, path: str | Path) -> "Scenario":
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
        if not isinstance(document, dict):
            raise TypeError(f"a scenario is a JSON object, not {type(document).__name__}")
        return cls.from_dict(document)


def _refuse_unknown_keys(d: dict[str, Any], known: tuple[str, ...], where: str = "") -> None:
    """Raise on a key of ``d`` outside ``known``: a misspelt section would
    otherwise be dropped and its defaults used."""
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise ValueError(f"{where}unknown keys {unknown}")


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

    def __reduce__(self) -> tuple:  # rebuilt from the list, not the joined message
        return type(self), (self.diagnostics,)


def validate_scenario(scenario: Scenario, overrides: dict[str, Any] | None = None) -> list[str]:
    """Return a list of diagnostics (empty when the scenario is clean); the
    params block is checked with ``overrides`` merged in, as a run uses it."""
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
    known = {"user": users, "venue": venues, "adversary action": ACTION_FIELDS,
             "tamper mode": (None, *TAMPER_MODES)}  # a run reads a null tamper as none
    tested: set[str] = set()
    in_venue: dict[str, str] = {}

    diags.extend(_params_diagnostics(scenario.params, overrides or {}))
    for v in scenario.venues:
        where = f"venue {v.venue_id!r}: "
        if not isinstance(v.policy, dict):
            diags.append(f"{where}policy must be an object")
            continue
        diags.extend(_field_diagnostics(VenuePolicy, v.policy, where, "policy "))

    def flag(message: str) -> None:  # anchored at the event the loop is on
        diags.append(f"event[{i}] t={e.time} {e.kind}: {message}")

    for i, e in enumerate(scenario.sorted_events()):
        if e.kind not in EVENT_FIELDS:
            flag(f"unknown event kind {e.kind!r}")
            continue
        if e.time < 0 or e.time > horizon:
            flag("time outside scenario horizon")
        data = e.data
        keys = _EVENT_KEYS[e.kind]
        if e.kind == "adversary_action" and _names(data.get("action"), ACTION_FIELDS):
            keys = _ACTION_KEYS[data["action"]]
        if not keys.issuperset(data):
            flag(f"unknown keys {sorted(data.keys() - keys)}")
        missing = []
        counts = True  # toward the bookkeeping below
        for key, needed, noun, accepts, shape in _KIND_FIELDS[e.kind]:
            if key not in data:
                if needed:
                    missing.append(key)
            elif noun is not None:
                if not _names(value := data[key], known[noun]):
                    flag(f"unknown {noun} {value!r} in {key}")
                    counts = False
            elif not accepts(value := data[key], venues):
                flag(f"{e.kind} requires {key} {shape}, got {value!r}" if needed
                     else f"{e.kind} {key} must be {shape}, got {value!r}")
                counts = counts and not needed
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
            missing = [key for key in ACTION_FIELDS[data["action"]][0] if key not in data]
            if missing:
                flag(f"{data['action']} requires {missing}")
            start, end = data.get("start"), data.get("end")
            if _is_number(start) and _is_number(end):
                if end < start:
                    flag("adversary window ends before it starts")
                elif start < 0 or end > horizon:
                    flag("adversary window outside scenario horizon")
    return diags


def _names(value: Any, ids: Any) -> bool:
    """Whether ``value`` is one of ``ids``: a string, or the null that names
    no tampering; a value of another type, unhashable ones included, is not."""
    return (type(value) is str or value is None) and value in ids


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
# a bound a field's metadata may declare -> whether a value keeps to it
_BOUNDS = {"above": operator.gt, "min": operator.ge, "below": operator.lt, "max": operator.le}


def _field_diagnostics(
    cls: type, values: dict[str, Any], where: str, section: str = "", skip: tuple[str, ...] = ()
) -> list[str]:
    """Keys that are not fields of ``cls``; then, field by field, a value without its annotated
    type or outside the range its metadata declares; ``section`` names the block."""
    declared = [f for f in fields(cls) if f.name not in skip]
    unknown = sorted(set(values) - {f.name for f in declared})
    diags = [f"{where}unknown {section}keys {unknown}"] if unknown else []
    for f in declared:
        if f.name not in values or f.type not in _FIELD_TYPES:  # channel: a block of its own
            continue
        value, (accepts, expected), rule = values[f.name], _FIELD_TYPES[f.type], f.metadata
        if not accepts(value):
            diags.append(f"{where}{section}{f.name} must be {expected}, got {value!r}")
        elif "one_of" in rule and value not in rule["one_of"]:
            diags.append(f"{where}unknown {f.name.replace('_', ' ')} {value!r}")
        elif not all(keeps(value, rule[key]) for key, keeps in _BOUNDS.items() if key in rule):
            diags.append(f"{where}{section}{f.name} must {_range_words(rule, f.type)}, got {value!r}")
    return diags


def _range_words(rule: Mapping[str, Any], annotation: str) -> str:
    """The words after "must" for a value outside ``rule``'s bounds; a lone lower bound is 0."""
    if "below" in rule or "max" in rule:
        low = f"({rule['above']}" if "above" in rule else f"[{rule['min']}"
        high = f"{rule['below']})" if "below" in rule else f"{rule['max']}]"
        return f"be in {low}, {high}"
    if "above" in rule:
        return "be a positive integer" if annotation == "int" else "be positive"
    return "not be negative"


def _params_diagnostics(params: Any, overrides: dict[str, Any]) -> list[str]:
    """Keys that are not ``SimParams`` fields, values of the wrong type, and
    values a run cannot use, in ``params`` with ``overrides`` winning."""
    from .sim import SimParams  # local import: sim imports this module

    if not isinstance(params, dict):
        return ["params must be an object"]
    params = SimParams.merge(params, overrides)
    # protocol and seed are set per run, never by the scenario file
    diags = _field_diagnostics(SimParams, params, "params: ", skip=("protocol", "seed"))
    if not isinstance(channel := params.get("channel", {}), dict):
        diags.append("params: channel must be an object")
    else:
        diags.extend(_field_diagnostics(ChannelModel, channel, "params: ", "channel "))
    # the rules about the day, and across two fields; each field's own range is declared
    merged = {**asdict(SimParams()), **params}
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
    name: str = "population",
) -> Scenario:
    """Honest population: daily small-group venue visits with shared tables.

    On each of days 0 through ``days - 2``, every user joins one group of at
    most 4 at 9:00 and another at 15:00, at a random one of ``n_venues``
    venues. A stay lasts 6 to 18 epochs of ``DEFAULT_EPOCH_SECONDS``, the
    scenario's ``epoch_seconds``. Infected users test positive after the
    contagious window (days 1 through ``days - 2``), report once digests for
    those days exist, and every user runs a trace query before the horizon.
    Every same-table pairing lasts at least 6 epochs within 1.3 m, so each
    group containing an infected user yields ground-truth exposures.
    ``days`` must be at least 2, or the contagious period would end before
    it starts.
    """
    if days < 2:
        raise ValueError(f"days must be at least 2, got {days}")
    rng = Random(seed)
    users = [f"u{i:02d}" for i in range(n_users)]
    venues = [VenueSpec(venue_id=f"v{i}") for i in range(n_venues)]
    events: list[ScenarioEvent] = []

    period_start = 1 * SECONDS_PER_DAY
    period_end = (days - 1) * SECONDS_PER_DAY

    for day in range(days - 1):
        for hour in (9, 15):
            order = users[:]
            rng.shuffle(order)
            table = 0
            while order:
                size = min(len(order), rng.choice([2, 3, 3, 4]))
                group, order = order[:size], order[size:]
                venue = f"v{rng.randrange(n_venues)}"
                start = day * SECONDS_PER_DAY + hour * 3600 + rng.randrange(0, 10) * 60
                duration = rng.randrange(6, 19) * DEFAULT_EPOCH_SECONDS
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
        params={"epoch_seconds": DEFAULT_EPOCH_SECONDS},
    )
