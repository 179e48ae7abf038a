"""The rows <-> columns pair that stores every row section of a trace, and the check that holds a
table to its declared columns."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from venuetrace.trace import add_ranges, add_run, b64, check, columns, length, packed, rows, select

RUNS = {"a": ("runs", None)}  # the columns declaration of a table whose column "a" holds runs

# few key names, so rows share some keys and not others; the names the
# mixed layout uses for itself are among them
KEYS = st.sampled_from(["a", "b", "t", "columns", "keys", "schema", ""])
SCALARS = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=3)
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3), max_leaves=6)
ROW_LISTS = st.lists(st.dictionaries(KEYS, VALUES, max_size=4), max_size=12)


@settings(max_examples=200, deadline=None)
@given(ROW_LISTS)
@example([])
@example([{}])
@example([{}, {"a": None}, {"a": 1}])
@example([{"a": 1, "b": 2}, {"b": 3, "a": 4}])
@example([{"columns": [1], "keys": [], "schema": [0]}])
def test_rows_of_columns_is_the_identity(x):
    c = columns(x)
    assert rows(c) == x
    assert columns(rows(c)) == c  # c is canonical
    on_disk = json.loads(json.dumps(c, sort_keys=True))
    assert rows(on_disk) == x
    check(on_disk, {})
    assert length(on_disk) == len(x)
    for key in {k for row in x for k in row}:
        assert [value for value, in select(on_disk, key)] == [row.get(key) for row in x]


def test_one_key_set_is_plain_columns():
    x = [{"t": 1, "kind": "a"}, {"kind": "b", "t": 2}]
    assert columns(x) == {"kind": ["a", "b"], "t": [1, 2]}
    assert columns([]) == {}


def test_check_names_a_ragged_column():
    with pytest.raises(ValueError, match="column 'b' has 1 values, not 2"):
        check({"a": [1, 2], "b": [3]}, {})
    mixed = columns([{"a": 1}, {"b": 2}])
    mixed["columns"]["a"].append(3)
    with pytest.raises(ValueError, match="column 'a' has 2 values, not 1"):
        check(mixed, {})
    mixed["schema"].append(2)
    with pytest.raises(ValueError, match="row shape 2"):
        check(mixed, {})


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(SCALARS, st.integers(1, 3)), max_size=20))
@example([(True, 1), (1, 1), (1.0, 2), (0.0, 1), (-0.0, 1), (None, 1), ("", 1)])
def test_runs_give_back_each_value_and_its_type(sends):
    column = {"runs": []}
    for value, count in sends:
        add_run(column, value, count)
        add_run(column, not value, 0)  # adds no row
    x = [value for value, count in sends for _ in range(count)]
    n = len(x)
    one_shape = {"a": column, "b": list(range(n))}
    mixed = {"columns": one_shape, "keys": [["a", "b"]], "schema": [0] * n}
    for table in (one_shape, mixed):
        on_disk = json.loads(json.dumps(table))
        check(on_disk, RUNS)
        assert length(on_disk) == n
        got = [value for value, in select(on_disk, "a")]
        # json.dumps tells True, 1 and 1.0 apart, and 0.0 from -0.0
        assert json.dumps(got) == json.dumps(x)
        assert rows(on_disk) == [{"a": value, "b": i} for i, value in enumerate(got)]
    # a run ends only where the value's JSON text changes
    texts = [json.dumps(value) for value, _ in sends]
    assert len(column["runs"]) == sum(a != b for a, b in zip([None, *texts], texts))


def test_check_names_a_bad_run_column():
    table = {"a": {"runs": [["x", 2]]}, "b": [1, 2, 3]}
    with pytest.raises(ValueError, match="column 'a' has 2 values, not 3"):
        check({"b": table["b"], "a": table["a"]}, RUNS)
    for count in (0, -1, 1.0, True, "1"):
        with pytest.raises(ValueError, match="column 'a' has a run count that is not a positive"):
            check({"b": [1, 2, 3], "a": {"runs": [["x", 3 - int(count)], ["x", count]]}}, RUNS)
    check({"a": {"runs": [["x", 3]]}, "b": [1, 2, 3]}, RUNS)


def test_check_holds_each_column_to_its_declared_form():
    """A declared form is present and held, and every other column is a list: a few bytes of runs or
    ranges where a list belongs could claim any number of rows. A declared index column may be absent."""
    declared = {"a": ("runs", None), "p": ("packed", None), "i": (None, "elements")}
    table = {"a": {"runs": [["x", 2]]}, "p": {"packed": [[16, b64(bytes(32))]]}}
    for key, column in (("b", {"runs": [[0, 10**12]]}), ("i", {"ranges": [[0, 2]]}), ("b", {}), ("b", "xy"),
                        ("a", [1, 2]), ("p", {"runs": [["", 2]]}), ("a", {"runs": [], "ranges": []})):
        want = declared.get(key, (None,))[0] or "a list"
        for edited in ({**table, key: column}, {"columns": {**table, key: column}, "keys": [], "schema": []}):
            with pytest.raises(ValueError, match=f"column {key!r} is not {want}$"):
                check(edited, declared)
    with pytest.raises(ValueError, match="column 'p' is missing, not packed"):
        check({"a": table["a"]}, declared)
    check(table, declared)
    check({**table, "i": [0, 1]}, declared)


# the payloads of a TraceTogether run with a flood: 60-byte tokens and 16-byte flood payloads
PAYLOADS = st.lists(st.binary(min_size=16, max_size=16) | st.binary(min_size=60, max_size=60), max_size=30)
# emitter indexes per call: consecutive runs as a DP-3T tick sends them, and any others, gaps and repeats
INDEX_CALLS = st.lists(st.builds(lambda first, n: list(range(first, first + n)), st.integers(0, 30),
                                 st.integers(0, 6)) | st.lists(st.integers(0, 30), max_size=5), max_size=8)


@settings(max_examples=200, deadline=None)
@given(PAYLOADS, INDEX_CALLS)
@example([b"a" * 16, b"b" * 60, b"c" * 60, b"d" * 60, b"e" * 16], [[0, 1, 2], [3, 4], [0, 1, 2], [2, 5]])
@example([], [[], [7], [8, 9], [11], [3, 2], [5, 5]])
def test_packed_and_ranges_give_back_each_value(x, index_calls):
    payloads, indexes = packed(x), {"ranges": []}
    for call in index_calls:
        add_ranges(indexes, call)
    y = [index for call in index_calls for index in call]
    # one entry per width change; one item per call of consecutive indexes, else one per index
    assert [width for width, _ in payloads["packed"]] == [len(p) for i, p in enumerate(x)
                                                          if not i or len(p) != len(x[i - 1])]
    whole = [len(call) > 1 and call == [*range(call[0], call[0] + len(call))] for call in index_calls]
    assert len(indexes["ranges"]) == sum(1 if one else len(call) for one, call in zip(whole, index_calls))
    stored = {"packed": [[width, b64(raw)] for width, raw in payloads["packed"]]}
    for table, key, want in (({"p": stored, "n": list(range(len(x)))}, "p", x),
                             ({"r": indexes, "n": list(range(len(y)))}, "r", y)):
        on_disk, declared = json.loads(json.dumps(table)), {key: (next(iter(table[key])), None)}
        check(on_disk, declared)
        assert length(on_disk) == len(want)
        assert [value for value, in select(on_disk, key)] == want
        assert rows(on_disk) == [{key: value, "n": i} for i, value in enumerate(want)]
        mixed = {"columns": on_disk, "keys": [["n", key]], "schema": [0] * len(want)}
        check(mixed, declared)
        assert [value for value, in select(mixed, key)] == want


def test_packed_bytes_bound_the_row_count():
    declared = {"a": ("runs", None), "p": ("packed", None), "r": ("ranges", None)}
    check({"a": {"runs": [["x", 2]]}, "p": {"packed": [[16, b64(bytes(32))]]}, "r": {"ranges": [[0, 2]]}}, declared)
    with pytest.raises(ValueError, match="column 'p' has 3 values, not 2"):
        check({"a": {"runs": [["x", 2]]}, "p": {"packed": [[16, b64(bytes(48))]]}, "r": {"ranges": [5, 6]}}, declared)
    # runs and ranges alone could claim any number of rows; the declared packed column may not be left out
    with pytest.raises(ValueError, match="column 'p' is missing, not packed"):
        check({"a": {"runs": [["x", 10**12]]}, "r": {"ranges": [[0, 10**12]]}}, declared)
