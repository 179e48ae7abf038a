"""Row sections as columns: one lossless conversion for any list of dicts.

A table keeps, for each key, the values of the rows that have that key, in
row order. When every row has the same set of keys, the table is just
``{key: values}``. Otherwise it is ``{"columns": {key: values}, "keys":
[sorted key set, ...], "schema": [key set index per row]}``, told apart by
the dict under ``columns``. A key a row lacks stays absent, and
``rows(columns(x)) == x``; the empty list is ``{}``. A column may also hold
runs, ``{"runs": [[value, count], ...]}``: ``count`` rows of each value, built
by ``add_run`` (never under the key ``columns``) and read here as they are.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, repeat, starmap
from math import copysign
from typing import Any, Iterable, Iterator

Table = dict[str, Any]


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


def _values(column: Any) -> Iterable[Any]:
    return chain.from_iterable(starmap(repeat, column["runs"])) if isinstance(column, dict) else column


def _count(column: Any) -> int:
    return sum(n for _, n in column["runs"]) if isinstance(column, dict) else len(column)


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
    """The number of rows."""
    return len(table["schema"]) if _mixed(table) else _count(next(iter(table.values()), ()))


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


def check(table: Table) -> None:
    """Raise ValueError naming a key whose column holds the wrong number of values or a bad run."""
    have = by_key(table)
    for key, column in have.items():
        if isinstance(column, dict) and not all(type(n) is int and n > 0 for _, n in column["runs"]):
            raise ValueError(f"column {key!r} has a run count that is not a positive integer")
    if _mixed(table):
        want: Counter[str] = Counter()
        for i, n in Counter(table["schema"]).items():
            if not isinstance(i, int) or not 0 <= i < len(table["keys"]):
                raise ValueError(f"row shape {i!r} is not one of {len(table['keys'])}")
            want.update(dict.fromkeys(table["keys"][i], n))
    elif have and all(isinstance(column, dict) for column in have.values()):
        raise ValueError("every column holds runs, so no list bounds the row count")
    else:
        want = Counter(dict.fromkeys(table, length(table)))
    for key in {**want, **have}:
        if (count := _count(have.get(key, ()))) != want[key]:
            raise ValueError(f"column {key!r} has {count} values, not {want[key]}")
