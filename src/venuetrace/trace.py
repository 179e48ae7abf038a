"""The trace: its sections (``LAYOUT``), the stored form of a run's data
(``store``), its file and the codec of its tables.

A table is a list of dicts stored as columns: for each key, the values of
the rows that have that key, in row order. When every row has the same set
of keys, the table is just ``{key: values}``. Otherwise it is ``{"columns":
{key: values}, "keys": [sorted key set, ...], "schema": [key set index per
row]}``, told apart by the dict under ``columns``. A key a row lacks stays
absent, and ``rows(columns(x)) == x``; the empty list is ``{}``. ``COLUMNS``
declares each column that indexes a list section or holds a form, read here as
it lies: runs ``{"runs": [[value, count], ...]}`` (``add_run``), ranges ``{"ranges":
[index or [first, count >= 2], ...]}`` (``add_ranges``) or ``bytes`` values
``{"packed": [[width, base64 of rows that many bytes each], ...]}`` (``packed``).
``check`` holds each table to it, and every column it leaves out to a list.
"""

from __future__ import annotations

import hashlib
import json
from binascii import a2b_base64, b2a_base64
from collections import Counter
from itertools import chain, groupby, repeat, starmap
from math import copysign
from pathlib import Path
from struct import unpack_from
from typing import Any, Iterable, Iterator

from .scenario import _EVENT_KEYS

TRACE_FORMAT = "venuetrace-trace"
# 6: broadcast payloads packed, emitters as ranges; 5: bytes in base64, each scripted event only
# in ``events``, and group elements as indexes into ``elements``; no other version loads
TRACE_VERSION = 6
# each section in file order and what it holds: "list", "object", "table", or an object
# whose entries are declared in turn ("*": every entry, a table; one declared may be absent)
LAYOUT: dict[str, Any] = {
    "config": "object", "presence": "table", "broadcasts": "table", "emitters": "list",
    "records": "list", "elements": "list", "events": "table",
    "outcomes": {
        **dict.fromkeys(("reports", "deliveries", "assessments", "visits", "backend_rejections",
                         "published_keys", "moh_edges"), "table"),
        "actor_observed": {"backend": "table", "ha": "table", "test_center": "table", "venues": {"*": "table"}},
        "venue_anomalies": {"*": "table"}, "venue_notices": {"*": "table"},
    },
}
# table as ``LAYOUT`` declares it -> {column: (its form, None for a list; the list section it indexes, or None)}
COLUMNS: dict[str, dict[str, tuple[str | None, str | None]]] = {
    "broadcasts": {"t": ("runs", None), "emitter": ("ranges", "emitters"), "location": ("runs", None),
                   "payload": ("packed", None), **dict.fromkeys(("tx_dbm", "injected", "tag"), ("runs", None))},
    "outcomes.deliveries": {"record_keys": (None, "records")},
    "outcomes.assessments": {"record_key": (None, "records")},
    "outcomes.actor_observed.backend": {"rid": (None, "elements"), "nonce": (None, "elements")},
    "outcomes.actor_observed.test_center": {"rid": (None, "elements")},
    "outcomes.actor_observed.venues.*": {"nonce": (None, "elements")},
}
_SLICE = 512  # the most list items that ``write_trace`` encodes, and packed values ``_values`` splits, at once
_CHUNK = 1 << 14  # the most characters of one string that ``write_trace`` encodes at once
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"  # the alphabet of strict base64


class IntegrityError(RuntimeError):
    """Trace file is truncated or has been modified."""


Table = dict[str, Any]


def b64(value: bytes) -> str:
    """``value`` as the trace stores bytes: standard, padded base64."""
    return b2a_base64(value, newline=False).decode()


def _mixed(table: Table) -> bool:
    return isinstance(table.get("columns"), dict)


def add_run(column: dict[str, list[list[Any]]], value: Any, count: int) -> None:
    """Add ``count`` rows of ``value`` to a run column, none for 0; the last run
    grows only for the same value: of one type, equal, and no 0.0 beside a -0.0."""
    runs = column["runs"]
    if runs and ((last := runs[-1][0]) is value or type(last) is type(value) and last == value
                 and (type(value) is not float or copysign(1, last) == copysign(1, value))):
        runs[-1][1] += count
    elif count:
        runs.append([value, count])


def add_ranges(column: dict[str, list[Any]], indexes: list[int]) -> None:
    """Add ``indexes`` to a range column: one item if they are consecutive, as a DP-3T tick sends them."""
    whole = len(indexes) > 1 and indexes == [*range(indexes[0], indexes[0] + len(indexes))]
    column["ranges"] += [[indexes[0], len(indexes)]] if whole else indexes


def packed(values: list[bytes]) -> dict[str, list[list[Any]]]:
    """The packed column of byte strings ``values``: one entry per run of equal lengths, its bytes joined."""
    return {"packed": [[width, b"".join(same)] for width, same in groupby(values, len)]}


def _values(column: Any) -> Iterable[Any]:
    if not isinstance(column, dict):
        return column
    if "packed" in column:  # split at C level, ``_SLICE`` values a call: ``struct`` caches that format
        entries = [(width, a2b_base64(text)) for width, text in column["packed"]]
        return chain.from_iterable(unpack_from(f"{width}s" * min(_SLICE, (len(raw) - i) // width), raw, i)
                                   for width, raw in entries for i in range(0, len(raw), width * _SLICE))
    if "ranges" in column:  # lone indexes, as the venue protocol sends them, are told at C level and kept
        return items if {*map(type, items := column["ranges"])} <= {int} else chain.from_iterable(
            range(i, i + 1) if type(i) is int else range(i[0], i[0] + i[1]) for i in items)
    return chain.from_iterable(starmap(repeat, column["runs"]))


def _count(column: Any, key: str = "") -> int:
    """How many values ``column``, named ``key``, holds; raises ValueError at an item its form refuses."""
    if not isinstance(column, dict):
        return len(column)
    if "packed" in column:
        count = 0
        for width, text in column["packed"]:  # strict base64: its alphabet, then at most two "=", in fours
            pad = b"?" if type(text) is not str or len(text) % 4 else b"".join(  # in slices: no copy of it all
                text[i:i + _CHUNK].encode().translate(None, _BASE64) for i in range(0, len(text), _CHUNK))
            if pad not in (b"", b"=", b"==") or not text.endswith("=" * len(pad)):
                raise ValueError(f"column {key!r} has a packed string that is not strict base64")
            if type(width) is not int or width < 1 or (size := len(text) // 4 * 3 - len(pad)) % width:
                raise ValueError(f"column {key!r} has a packed width {width!r} "
                                 "that is not a positive integer dividing its bytes")
            count += size // width
        return count
    if "ranges" in column:  # lone indexes, as the venue protocol sends them, are told at C level
        if {*map(type, items := column["ranges"])} <= {int} and min(items, default=0) >= 0:
            return len(items)
        for item in items:
            if not (type(item) is int and item >= 0 or type(item) is list and [*map(type, item)] == [int, int]
                    and item[0] >= 0 and item[1] >= 2):
                raise ValueError(f"column {key!r} has a range item {item!r} "
                                 "that is not an index or [first, count >= 2]")
        return sum(1 if type(item) is int else item[1] for item in items)
    if not all(type(n) is int and n > 0 for _, n in column["runs"]):
        raise ValueError(f"column {key!r} has a run count that is not a positive integer")
    return sum(n for _, n in column["runs"])


def columns(rows: list[dict[str, Any]]) -> Table:
    """The table of ``rows``, in the layout the module docstring gives."""
    shapes: dict[tuple[str, ...], int] = {}
    schema = [shapes.setdefault(tuple(sorted(row)), len(shapes)) for row in rows]
    keys = sorted({key for shape in shapes for key in shape})
    if len(shapes) == 1 and keys or not rows:
        return {key: [row[key] for row in rows] for key in keys}
    return {
        "columns": {key: [row[key] for row in rows if key in row] for key in keys},
        "keys": [list(shape) for shape in shapes],
        "schema": schema,
    }


def rows(table: Table) -> list[dict[str, Any]]:
    """The list of dicts ``table`` holds: the inverse of ``columns``."""
    if not _mixed(table):
        return [dict(zip(table, values)) for values in zip(*map(_values, table.values()))]
    values = {key: iter(_values(column)) for key, column in table["columns"].items()}
    shapes = [[(key, values[key]) for key in keys] for keys in table["keys"]]
    return [{key: next(it) for key, it in shapes[i]} for i in table["schema"]]


def length(table: Table) -> int:
    """The number of rows, counted by the first list or runs column if there is one: ranges need a type pass."""
    cheap = min(table.values(), key=lambda column: type(column) is not list and "runs" not in column, default=())
    return len(table["schema"]) if _mixed(table) else _count(cheap)


def by_key(table: Table) -> dict[str, Any]:
    """Each key's values, from the rows that have it."""
    return table["columns"] if _mixed(table) else table


def select(table: Table, *keys: str) -> Iterator[tuple[Any, ...]]:
    """The values of ``keys`` in each row, one tuple per row; None where a
    row lacks a key. No row dicts are built."""
    n, mixed = length(table), _mixed(table)

    def column(key: str) -> Iterable[Any]:
        values = by_key(table).get(key, ())
        if not mixed or _count(values) == n:
            return _values(values) or repeat(None, n)
        found = iter(_values(values))
        has = [key in shape for shape in table["keys"]]
        return [next(found) if has[i] else None for i in table["schema"]]

    return zip(*map(column, keys))


def check(table: Table, declared: dict[str, tuple[str | None, str | None]]) -> None:
    """Raise ValueError naming a key whose column is not in the form ``declared`` gives it, or a list
    (which may be absent) where it gives none, or holds an item its form refuses or a wrong count."""
    have = by_key(table)
    for key in {**declared, **have}:
        form, column = declared.get(key, (None,))[0], have.get(key, [])
        if not (type(column) is dict and [*column] == [form] if form else type(column) is list):
            raise ValueError(f"column {key!r} is {'not' if key in have else 'missing, not'} {form or 'a list'}")
    counts = {key: _count(column, key) for key, column in have.items()}
    if _mixed(table):
        want: Counter[str] = Counter()
        for i, n in Counter(table["schema"]).items():
            if not isinstance(i, int) or not 0 <= i < len(table["keys"]):
                raise ValueError(f"row shape {i!r} is not one of {len(table['keys'])}")
            want.update(dict.fromkeys(table["keys"][i], n))
    else:  # every form's items are checked, and a declared packed column's bytes bound the count
        want = Counter(dict.fromkeys(table, next(iter(counts.values()), 0)))
    for key in {**want, **have}:
        if (count := counts.get(key, 0)) != want[key]:
            raise ValueError(f"column {key!r} has {count} values, not {want[key]}")


def tables(data: dict[str, Any], layout: dict[str, Any] = LAYOUT, prefix: str = "") -> Iterator[tuple]:
    """(dotted name, mapping, key, its ``COLUMNS`` entry, named as declared: ``*`` for an entry) of each
    table ``layout`` declares in ``data``; raises IntegrityError at a declared object that is not one."""
    for entry, kind in layout.items():
        for key in data if entry == "*" else [entry] if entry in data else ():
            if kind == "table":
                yield prefix + key, data, key, COLUMNS.get(prefix + entry, {})
            elif isinstance(kind, dict):
                if not isinstance(value := data[key], dict):
                    raise IntegrityError(f"section {prefix}{key} holds {type(value).__name__}, not dict")
                yield from tables(value, kind, f"{prefix}{key}.")


def store(data: dict[str, Any]) -> dict[str, Any]:
    """A run's plain ``data`` in stored form, made in place: each event of ``config.scenario`` as its
    index among the scripted rows of ``events``; each declared list of rows as a table, the list
    emptied; each value of a list column ``COLUMNS`` declares an index column as its index into its
    list section, in order of first appearance after the items ``data`` gives it; other bytes as base64."""
    scenario = data["config"]["scenario"]
    ran = sorted(range(len(times := [event["time"] for event in scenario["events"]])), key=times.__getitem__)
    scenario["events"] = sorted(range(len(ran)), key=ran.__getitem__)
    found = {s: {v: i for i, v in enumerate(data.get(s, ()))} for t in COLUMNS.values() for _, s in t.values() if s}
    for _, mapping, key, declared in tables(data):
        if isinstance(row_list := mapping[key], list):
            mapping[key] = columns(row_list)
            row_list.clear()
        have = by_key(mapping[key])
        for column, (_, section) in declared.items():  # in declared order: it fixes the indexes
            if section and isinstance(have.get(column), list):  # not a form, which holds its indexes already
                have[column] = [_index(value, found[section]) for value in have[column]]
        for column in have:  # indexes hold no bytes and stay as they are
            have[column] = _stored(have[column])
    data.update((section, _stored(list(index))) for section, index in found.items())
    return data


def _index(value: Any, index: dict[Any, int]) -> Any:
    """The index of ``value`` in ``index``, added if new; of each item of a list; None stays."""
    if isinstance(value, list):
        return [_index(item, index) for item in value]
    return None if value is None else index.setdefault(value, len(index))


def _stored(value: Any) -> Any:
    """``value`` with each byte string in it, a list's items and packed entries included, as base64;
    a list of none stays itself, and so do runs and ranges: ``emit`` gives them no bytes."""
    if type(value) is dict:
        return {"packed": [[width, b64(raw)] for width, raw in value["packed"]]} if "packed" in value else value
    binary = type(value) is list and not {bytes, list}.isdisjoint(map(type, value))
    return [*map(_stored, value)] if binary else b64(value) if type(value) is bytes else value


def scenario_dict(data: dict[str, Any]) -> dict[str, Any]:
    """The scenario a run of trace ``data`` was given, as ``Scenario.to_dict``
    gives it: ``config.scenario``, whose ``events`` index the scripted rows of the
    ``events`` section, with each index replaced by its row. A scripted row has
    an event kind and only fields that ``scenario.EVENT_FIELDS`` lists for it."""
    scripted = [{"time": row.pop("t"), "kind": row.pop("kind"), **row} for row in rows(data["events"])
                if _EVENT_KEYS.get(row["kind"], frozenset()).issuperset(row.keys() - {"t", "kind"})]
    scenario = data["config"]["scenario"]
    return {**scenario, "events": [scripted[i] for i in scenario["events"]]}


_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _long(obj: Any) -> bool:
    """Whether ``obj`` is a string longer than ``_CHUNK`` or a list longer than ``_SLICE``, or holds one: a dict
    as any value, a list as its first or last item, as packed entries do. What it misses is encoded whole."""
    if isinstance(obj, dict):
        return any(map(_long, obj.values()))
    if isinstance(obj, list):
        return len(obj) > _SLICE or bool(obj) and (_long(obj[0]) or _long(obj[-1]))
    return isinstance(obj, str) and len(obj) > _CHUNK


def _pieces(obj: Any) -> Iterator[str]:
    """Strings that join to ``_canonical(obj)``: as the encoder holds a string per value, a long
    string or list comes in slices, a short list that holds one item by item, and a dict that
    holds one key by key."""
    if not _long(obj):
        yield _canonical(obj)
    elif isinstance(obj, str):  # by code points, so no escape is cut
        yield from chain('"', (_canonical(obj[i:i + _CHUNK])[1:-1] for i in range(0, len(obj), _CHUNK)), '"')
    elif isinstance(obj, list):
        for i in range(0, len(obj), step := _SLICE if len(obj) > _SLICE else 1):
            yield ",["[not i]
            yield from (_canonical(obj[i:i + step])[1:-1],) if step > 1 else _pieces(obj[i])
        yield "]"
    else:
        sep, small = "{", {}  # the keys since the last long value, encoded together
        for key, value in sorted(obj.items()):
            small[key] = 0 if (long := _long(value)) else value
            if long:
                yield sep + _canonical(small)[1:-2]  # up to the long value
                sep, small = ",", {}
                yield from _pieces(value)
        yield (sep + _canonical(small)[1:-1] if small else "") + "}"


def write_trace(data: dict[str, Any], path: Path) -> None:
    """The sections of ``data``, newline-delimited, followed by a SHA-256
    trailer line; each piece of a line is hashed and written once encoded."""
    digest = hashlib.sha256()
    header = {"format": TRACE_FORMAT, "version": TRACE_VERSION}
    sections = ({"section": name, "data": data[name]} for name in LAYOUT)
    with open(path, "wb") as fh:
        for obj in chain([header], sections):  # one section object alive at a time: a lower peak
            for piece in map(str.encode, chain(_pieces(obj), ["\n"])):
                digest.update(piece)
                fh.write(piece)
        fh.write((_canonical({"sha256": digest.hexdigest()}) + "\n").encode("utf-8"))


def _load_line(number: int, line: bytearray, data: dict[str, Any]) -> None:
    """Parse and check line ``number``, the header or a section for ``data``; empties ``line``."""
    text = line.decode("utf-8")
    line.clear()  # the bytes are freed before parsing
    entry = json.loads(text)
    if number == 1:
        header = entry if isinstance(entry, dict) else {}
        if header.get("format") != TRACE_FORMAT:
            raise ValueError(f"unknown trace format {header.get('format')!r}")
        if (version := header.get("version")) != TRACE_VERSION:
            raise ValueError(f"unsupported trace version {version!r}: re-run its config's scenario and seed")
        return
    if not isinstance(entry, dict) or entry.keys() != {"data", "section"}:
        raise ValueError("not a section object")
    if not isinstance(name := entry["section"], str) or name not in LAYOUT or name in data:
        raise ValueError(f"unknown or repeated section {name!r}")
    if not isinstance(value := entry["data"], kind := list if LAYOUT[name] == "list" else dict):
        raise ValueError(f"section {name} holds {type(value).__name__}, not {kind.__name__}")
    data[name] = value


def read_trace(path: Path) -> dict[str, Any]:
    """Parse and integrity-check a trace file; raises IntegrityError.

    The file is read once, in blocks, and each line is hashed before it is
    parsed once bytes follow it: the last line is the trailer. A line that
    does not load fails only once the trailer vouches for it. Only
    ``TRACE_VERSION`` loads, as stored: column forms and indexes stay as they are.
    """
    digest = hashlib.sha256()
    data: dict[str, Any] = {}
    fault: IntegrityError | None = None  # from the first line that did not load
    number, line, whole = 0, bytearray(), False  # lines loaded, the next one, whether it has ended
    with open(path, "rb") as fh:
        while block := fh.read(1 << 16):
            start = 0
            while start < len(block):
                if whole:  # bytes follow it, so ``line`` is not the trailer
                    number += 1
                    digest.update(line)
                    try:
                        _load_line(number, line, data)
                    except ValueError as exc:  # not UTF-8, not JSON or not a line the writer writes
                        fault = fault or IntegrityError(f"line {number}: {exc}")
                    line.clear()
                end = block.find(b"\n", start) + 1 or len(block)
                line += block[start:end]
                whole, start = block[end - 1] == 10, end
    if not number:
        raise IntegrityError("trace file too short")
    try:
        trailer = json.loads(line)
    except ValueError as exc:
        raise IntegrityError(f"trailer is not valid JSON: {exc}") from exc
    if not isinstance(trailer, dict) or "sha256" not in trailer:
        raise IntegrityError("trace file has no integrity trailer (truncated?)")
    if digest.hexdigest() != trailer["sha256"]:
        raise IntegrityError("trace integrity hash mismatch")
    if fault:
        raise fault
    if missing := [s for s in LAYOUT if s not in data]:
        raise IntegrityError(f"trace is missing sections: {missing}")
    for name, mapping, key, declared in tables(data):
        try:
            check(mapping[key], declared)
            for column, (_, section) in declared.items():
                values = by_key(mapping[key]).get(column, ()) if section else ()
                if isinstance(values, dict):  # ranges, checked: the largest index will do
                    values = [max(_values(values), default=None)]
                for value in values:
                    for i in value if isinstance(value, list) else [value]:
                        if i is not None and (type(i) is not int or not 0 <= i < len(data[section])):
                            raise ValueError(f"column {column!r} holds {i!r}, not an index into {section}")
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise IntegrityError(f"section {name}: {exc}") from exc
    return data
