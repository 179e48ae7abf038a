"""Row sections as columns: one lossless conversion for any list of dicts.

A table keeps, for each key, the values of the rows that have that key, in
row order. When every row has the same set of keys, the table is just
``{key: values}``. Otherwise it is ``{"columns": {key: values}, "keys":
[sorted key set, ...], "schema": [key set index per row]}``; no value of a
one-shape table is a dict, which tells the two apart. A key a row lacks
stays absent, and ``rows(columns(x)) == x``; the empty list is ``{}``.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterator

Table = dict[str, Any]


def _mixed(table: Table) -> bool:
    return isinstance(table.get("columns"), dict)


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
        return [dict(zip(table, values)) for values in zip(*table.values())]
    values = {key: iter(column) for key, column in table["columns"].items()}
    shapes = [[(key, values[key]) for key in keys] for keys in table["keys"]]
    return [{key: next(it) for key, it in shapes[i]} for i in table["schema"]]


def length(table: Table) -> int:
    """The number of rows."""
    return len(table["schema"]) if _mixed(table) else len(next(iter(table.values()), ()))


def by_key(table: Table) -> dict[str, list[Any]]:
    """Each key's values, from the rows that have it."""
    return table["columns"] if _mixed(table) else table


def select(table: Table, *keys: str) -> Iterator[tuple[Any, ...]]:
    """The values of ``keys`` in each row, one tuple per row; None where a
    row lacks a key. No row dicts are built."""
    n, mixed = length(table), _mixed(table)

    def column(key: str) -> list[Any]:
        values = by_key(table).get(key, ())
        if len(values) == n or not mixed:
            return values or [None] * n
        found = iter(values)
        has = [key in shape for shape in table["keys"]]
        return [next(found) if has[i] else None for i in table["schema"]]

    return zip(*map(column, keys))


def check(table: Table) -> None:
    """Raise ValueError naming a key whose column holds the wrong number of values."""
    if _mixed(table):
        want: Counter[str] = Counter()
        for i, n in Counter(table["schema"]).items():
            if not isinstance(i, int) or not 0 <= i < len(table["keys"]):
                raise ValueError(f"row shape {i!r} is not one of {len(table['keys'])}")
            want.update(dict.fromkeys(table["keys"][i], n))
    else:
        want = Counter(dict.fromkeys(table, length(table)))
    have = by_key(table)
    for key in {**want, **have}:
        if len(have.get(key, ())) != want[key]:
            raise ValueError(f"column {key!r} has {len(have.get(key, ()))} values, not {want[key]}")
