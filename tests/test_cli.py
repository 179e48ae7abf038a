import copy
import gc
import hashlib
import json
import pickle
import re
import tracemalloc
from base64 import b64decode
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import venuetrace.cli
import venuetrace.scenario
import venuetrace.sim
import venuetrace.trace
from venuetrace.cli import main
from venuetrace.metrics import ExposurePolicy, collect_metrics
from venuetrace.scenario import ScenarioError, build_population_scenario, validate_scenario
from venuetrace.sim import SimParams, Simulation, run
from venuetrace.trace import (
    _CHUNK, _SLICE, LAYOUT, TRACE_FORMAT, TRACE_VERSION, IntegrityError, b64, by_key, length, read_trace,
    select, write_trace,
)

from bundled import bundled


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "relay.json"
    path.write_text(json.dumps(bundled("relay_attack").to_dict()), encoding="utf-8")
    return path


def test_validate_ok(scenario_file, capsys):
    assert main(["validate", "--scenario", str(scenario_file)]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_reports_diagnostics(tmp_path, capsys):
    bad = bundled("relay_attack").to_dict()
    bad["events"].append({"time": 10, "kind": "leave", "user": "u00"})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    assert main(["validate", "--scenario", str(path)]) == 1
    assert "in no venue" in capsys.readouterr().out


def test_validate_missing_file(tmp_path):
    assert main(["validate", "--scenario", str(tmp_path / "nope.json")]) == 1


def test_run_writes_reports(scenario_file, tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["run", "--scenario", str(scenario_file), "--protocol", "venue",
         "--seed", "3", "--out", str(out)]
    )
    assert rc == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["protocol"] == "venue"
    assert (out / "trace.ndjson").exists()
    assert (out / "events.ndjson").exists()
    users_csv = (out / "users.csv").read_text().splitlines()
    assert users_csv[0] == "user,duty_cycle,at_risk,leak"
    assert len(users_csv) == 1 + 4  # header plus one row per user


def test_run_malformed_scenario_exits_one(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1


RELAY = bundled("relay_attack").to_dict()
BASELINE = json.loads(
    (Path(__file__).parents[1] / "scenarios" / "relay_baseline.json").read_text(encoding="utf-8")
)


def _first(kind, **fields):
    """The bundled relay baseline with fields set on its first ``kind`` event."""
    document = copy.deepcopy(BASELINE)
    next(e for e in document["events"] if e["kind"] == kind).update(fields)
    return document


@pytest.mark.parametrize(
    "document",
    [
        {**RELAY, "users": 5},
        {**RELAY, "venues": [*RELAY["venues"], 5]},
        {**RELAY, "venues": {v["id"]: v for v in RELAY["venues"]}},
        {**RELAY, "horizon_seconds": None},
        {**RELAY, "horizon_seconds": float("inf")},
        {**RELAY, "events": [*RELAY["events"], {"time": [1], "kind": "leave", "user": "u00"}]},
        [],
        "scenario",
        # times are JSON integers; truncating would run these at 122400 and t=1
        _first("enter", time=122400.9),
        _first("trace_query", time=True),
        _first("leave", time="123480"),
        {**BASELINE, "horizon_seconds": 259200.0},
        # a misspelt section was dropped, and the run used its defaults
        {**{k: v for k, v in RELAY.items() if k != "params"}, "param": {"epoch_seconds": 60}},
        {**RELAY, "venues": [{**RELAY["venues"][0], "polcy": {}}, *RELAY["venues"][1:]]},
    ],
)
@pytest.mark.parametrize("command", ["run", "validate"])
def test_scenario_of_wrong_shape_cannot_load(document, command, tmp_path, capsys):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    assert main([command, "--scenario", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot load scenario: ")


@pytest.mark.parametrize("users", ["ab", {"a": 1, "b": 2}])
@pytest.mark.parametrize("command", ["run", "validate"])
def test_users_that_are_not_an_array_cannot_load(users, command, tmp_path, capsys, monkeypatch):
    # read as its characters or keys, either one loaded as users a and b
    document = {"horizon_seconds": 86400, "users": users,
                "events": [{"time": 0, "kind": "trace_query", "user": "a"}]}
    monkeypatch.chdir(tmp_path)  # a run that loads writes ./runs
    Path("users.json").write_text(json.dumps(document), encoding="utf-8")
    assert main([command, "--scenario", "users.json"]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot load scenario: users must be an array, got {users!r}\n"
    )


def test_run_flag_values_are_validated(scenario_file, tmp_path, capsys):
    rc = main(["run", "--scenario", str(scenario_file), "--epoch-seconds", "0",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "invalid: params: epoch_seconds must be a positive integer, got 0\n"
    )


def test_runtime_failure_exits_2(scenario_file, tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise RuntimeError("simulated fault")

    monkeypatch.setattr(venuetrace.cli, "run_simulation", fail)
    assert main(["run", "--scenario", str(scenario_file), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "runtime failure: simulated fault\n"
    assert not (tmp_path / "o").exists()


def test_pool_runs_report_flag_values_like_serial_ones(scenario_file, tmp_path, capsys):
    # each run in the pool checks the scenario; the first failure is reported
    rc = main(["run", "--scenario", str(scenario_file), "--epoch-seconds", "0", "--protocol",
               "all", "--jobs", "3", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "invalid: params: epoch_seconds must be a positive integer, got 0\n"
    )
    assert not (tmp_path / "o").exists()


def test_scenario_error_survives_pickling():
    # a run in a process pool raises it in the parent process
    err = pickle.loads(pickle.dumps(ScenarioError(["a b", "c"])))
    assert err.diagnostics == ["a b", "c"] and str(err) == "a b; c"


@pytest.mark.parametrize("overrides,expected", [
    # an unknown key was dropped, a negative retention ran, and the others
    # raised ParameterError from inside the run
    ({"epoch_second": 60}, "params: unknown keys ['epoch_second']"),
    ({"retention_days": -1}, "params: retention_days must not be negative, got -1"),
    ({"bloom_fpr": 2.0}, "params: bloom_fpr must be in (0, 1), got 2.0"),
    ({"epoch_seconds": 0}, "params: epoch_seconds must be a positive integer, got 0"),
])
def test_run_checks_its_overrides(overrides, expected):
    with pytest.raises(ScenarioError) as err:
        run(bundled("street_encounter"), "venue", 0, overrides=overrides)
    assert err.value.diagnostics == [expected]


def test_each_run_validates_once(scenario_file, tmp_path, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return validate_scenario(*args)

    for module in (venuetrace.scenario, venuetrace.sim, venuetrace.cli):
        monkeypatch.setattr(module, "validate_scenario", counted)
    sc = bundled("relay_attack")
    run(sc, "dp3t", 0)
    assert len(calls) == 1
    Simulation(sc, SimParams.build(sc, "dp3t", 0))  # takes a validated scenario
    assert len(calls) == 1
    assert counted(sc) == []  # the benchmark's set-up: one check, then construction
    Simulation(sc, SimParams.build(sc, "venue", 0))
    assert len(calls) == 2
    out = str(tmp_path / "o")
    assert main(["run", "--scenario", str(scenario_file), "--protocol", "dp3t", "--out", out]) == 0
    assert len(calls) == 3
    assert main(["run", "--scenario", str(scenario_file), "--protocol", "all", "--out", out]) == 0
    assert len(calls) == 6  # one inside each protocol's run


def test_run_all_protocols_writes_comparison(scenario_file, tmp_path):
    out = tmp_path / "all"
    rc = main(
        ["run", "--scenario", str(scenario_file), "--protocol", "all",
         "--seed", "3", "--out", str(out)]
    )
    assert rc == 0
    rows = json.loads((out / "comparison.json").read_text())
    assert [r["protocol"] for r in rows] == ["venue", "dp3t", "tracetogether"]
    assert (out / "comparison.csv").exists()
    for protocol in ("venue", "dp3t", "tracetogether"):
        assert (out / protocol / "metrics.json").exists()


def test_run_all_with_parallel_jobs(scenario_file, tmp_path):
    out = tmp_path / "par"
    rc = main(
        ["run", "--scenario", str(scenario_file), "--protocol", "all",
         "--seed", "3", "--jobs", "3", "--out", str(out)]
    )
    assert rc == 0
    serial = tmp_path / "ser"
    main(
        ["run", "--scenario", str(scenario_file), "--protocol", "all",
         "--seed", "3", "--out", str(serial)]
    )
    for protocol in ("venue", "dp3t", "tracetogether"):
        for name in ("metrics.json", "trace.ndjson", "events.ndjson"):
            assert (out / protocol / name).read_bytes() == (serial / protocol / name).read_bytes()


def test_default_out_dir_from_env(scenario_file, tmp_path, monkeypatch):
    monkeypatch.setenv("VENUETRACE_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    from venuetrace.cli import build_parser

    args = build_parser().parse_args(["run", "--scenario", str(scenario_file)])
    assert args.out == str(tmp_path / "envout")


def test_cli_runs_are_byte_identical(scenario_file, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(
            ["run", "--scenario", str(scenario_file), "--protocol", "venue",
             "--seed", "9", "--out", str(out)]
        ) == 0
    assert (out_a / "trace.ndjson").read_bytes() == (out_b / "trace.ndjson").read_bytes()
    assert (out_a / "metrics.json").read_bytes() == (out_b / "metrics.json").read_bytes()


class TestTraceIO:
    def test_round_trip(self, tmp_path):
        trace = run(bundled("relay_attack"), "venue", seed=1)
        path = tmp_path / "t.ndjson"
        write_trace(trace.data, path)
        assert read_trace(path) == trace.data

    def test_truncated_trace_rejected(self, tmp_path):
        trace = run(bundled("relay_attack"), "venue", seed=1)
        path = tmp_path / "t.ndjson"
        write_trace(trace.data, path)
        lines = path.read_bytes().splitlines(keepends=True)
        (tmp_path / "cut.ndjson").write_bytes(b"".join(lines[:-1]))
        with pytest.raises(IntegrityError):
            read_trace(tmp_path / "cut.ndjson")

    def test_edited_trace_rejected(self, tmp_path):
        trace = run(bundled("relay_attack"), "venue", seed=1)
        path = tmp_path / "t.ndjson"
        write_trace(trace.data, path)
        tampered = path.read_bytes().replace(b'"u00"', b'"u99"', 1)
        (tmp_path / "bad.ndjson").write_bytes(tampered)
        with pytest.raises(IntegrityError):
            read_trace(tmp_path / "bad.ndjson")

    def test_rewritten_line_ends_rejected(self, tmp_path):
        """The trailer hashes the exact bytes: CRLF line ends fail the check."""
        trace = run(bundled("relay_attack"), "venue", seed=1)
        path = tmp_path / "t.ndjson"
        write_trace(trace.data, path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        with pytest.raises(IntegrityError, match="hash mismatch"):
            read_trace(path)


def _with_version(path, version: bytes) -> None:
    """Rewrite the header's version and sign the body with a fresh trailer."""
    raw = path.read_bytes()
    current = b'"version":%d' % venuetrace.trace.TRACE_VERSION
    body = raw[: raw.rfind(b"\n", 0, -1) + 1].replace(current, b'"version":' + version, 1)
    _sign(path, body)


def _sign(path, body: bytes) -> None:
    """Write ``body`` to ``path`` with a fresh integrity trailer."""
    trailer = json.dumps({"sha256": hashlib.sha256(body).hexdigest()})
    path.write_bytes(body + trailer.encode() + b"\n")


@pytest.mark.parametrize("version", [b"0", b"1", b"2", b"3", b"4", b"5", b"7", b'"5"', b'"6"', b"null"])
def test_unsupported_trace_version_rejected(version, tmp_path):
    """Only the current version loads; an older trace is re-run from its config."""
    path = tmp_path / "t.ndjson"
    write_trace(run(bundled("relay_attack"), "venue", seed=1).data, path)
    _with_version(path, version)
    with pytest.raises(IntegrityError, match="unsupported trace version .*: re-run its config's scenario and seed"):
        read_trace(path)


def _section_lines(tmp_path) -> list[bytes]:
    """The header and section lines of a freshly written trace, without its trailer."""
    path = tmp_path / "t.ndjson"
    write_trace(run(bundled("relay_attack"), "venue", seed=1).data, path)
    return path.read_bytes().splitlines(keepends=True)[:-1]


@pytest.mark.parametrize("raw", [b"", b"\n", b'{"sha256": "00"}\n'], ids=["empty", "newline", "trailer"])
def test_trace_without_a_body_rejected(raw, tmp_path):
    (tmp_path / "t.ndjson").write_bytes(raw)
    with pytest.raises(IntegrityError, match="trace file too short"):
        read_trace(tmp_path / "t.ndjson")


def test_trailer_that_is_not_json_rejected(tmp_path):
    body = b"".join(_section_lines(tmp_path))
    (tmp_path / "t.ndjson").write_bytes(body + b"sha256 abc\n")
    with pytest.raises(IntegrityError, match="trailer is not valid JSON"):
        read_trace(tmp_path / "t.ndjson")


def test_unknown_trace_format_rejected(tmp_path):
    path = tmp_path / "t.ndjson"
    body = b"".join(_section_lines(tmp_path)).replace(b'"venuetrace-trace"', b'"other-trace"', 1)
    _sign(path, body)
    with pytest.raises(IntegrityError, match="unknown trace format 'other-trace'"):
        read_trace(path)


@pytest.mark.parametrize("dropped", ["presence", "outcomes"])
def test_trace_missing_a_section_rejected(dropped, tmp_path):
    path = tmp_path / "t.ndjson"
    lines = [line for line in _section_lines(tmp_path) if json.loads(line).get("section") != dropped]
    _sign(path, b"".join(lines))
    with pytest.raises(IntegrityError, match=rf"trace is missing sections: \['{dropped}'\]"):
        read_trace(path)


def _section(name, data) -> bytes:
    return (json.dumps({"data": data, "section": name}, separators=(",", ":")) + "\n").encode()


def _replace(i: int, line: bytes):
    """An edit that puts ``line`` in place of body line ``i`` (0 is the header)."""
    return lambda lines: [*lines[:i], line, *lines[i + 1:]]


@pytest.mark.parametrize("edit,message", [
    (_replace(0, b"[1]\n"), "line 1: unknown trace format None"),
    (_replace(2, b'{"section":"presence",\n'), "line 3: Expecting property name"),
    (_replace(2, b"[]\n"), "line 3: not a section object"),
    (_replace(2, b'{"section":"presence"}\n'), "line 3: not a section object"),
    (_replace(8, _section("outcomes", [])), "line 9: section outcomes holds list, not dict"),
    (_replace(1, _section("config", 5)), "line 2: section config holds int, not dict"),
    (lambda lines: [*lines, _section("extra", {})], "line 10: unknown or repeated section 'extra'"),
    (lambda lines: [*lines, lines[2]], "line 10: unknown or repeated section 'presence'"),
], ids=["header-list", "not-json", "section-list", "no-data", "outcomes-list", "config-number",
        "unknown-section", "repeated-section"])
def test_malformed_line_under_a_valid_trailer_rejected(edit, message, tmp_path):
    """A body line that is not what the writer writes fails the read as an
    IntegrityError that names the line or section, never as another error."""
    path = tmp_path / "t.ndjson"
    _sign(path, b"".join(edit(_section_lines(tmp_path))))
    with pytest.raises(IntegrityError, match=re.escape(message)):
        read_trace(path)


@pytest.mark.parametrize("trailer", [b"5\n", b'"xsha256"\n'])
def test_trailer_that_is_not_an_object_rejected(trailer, tmp_path):
    path = tmp_path / "t.ndjson"
    path.write_bytes(b"".join(_section_lines(tmp_path)) + trailer)
    with pytest.raises(IntegrityError, match="trace file has no integrity trailer"):
        read_trace(path)


def test_malformed_line_under_its_old_trailer_is_a_hash_mismatch(tmp_path):
    """A line that does not load fails only once the trailer vouches for it,
    so an unsigned edit fails as an edit."""
    path = tmp_path / "t.ndjson"
    write_trace(run(bundled("relay_attack"), "venue", seed=1).data, path)
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(_replace(2, b"[]\n")(lines)))
    with pytest.raises(IntegrityError, match="trace integrity hash mismatch"):
        read_trace(path)


def _edit_section(path, name: str, edit) -> None:
    """Apply ``edit`` to the data of section ``name`` of the trace at
    ``path``, and sign the result with a fresh trailer."""
    lines = path.read_bytes().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if json.loads(line).get("section") == name)
    entry = json.loads(lines[i])
    edit(entry["data"])
    lines[i] = (json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n").encode()
    _sign(path, b"".join(lines[:-1]))


def _split_first_run(count):
    """An edit that ends the first tx_dbm run with a run of ``count`` rows,
    keeping the total as a number."""
    def edit(broadcasts):
        runs = broadcasts["tx_dbm"]["runs"]
        value, n = runs[0]
        runs[:1] = [[value, n - int(count)], [value, count]]
    return edit


def _longer_first_run(broadcasts):
    broadcasts["t"]["runs"][0][1] += 1


def _all_runs(broadcasts):
    """An edit that makes every column one run that claims 10**12 rows."""
    for key in broadcasts:
        broadcasts[key] = {"runs": [[0, 10**12]]}


def _runs_and_ranges(broadcasts):
    """An edit that leaves runs and ranges alone, each claiming 10**12 rows: the packed payloads go."""
    _all_runs(broadcasts)
    broadcasts["emitter"] = {"ranges": [[0, 10**12]]}
    del broadcasts["payload"]


def _last_index(index):
    """An edit that sets the last item of the emitter ranges, a lone index, to ``index``."""
    def edit(broadcasts):
        items = broadcasts["emitter"]["ranges"]
        assert type(items[-1]) is int
        items[-1] = index
    return edit


def _first_range(item):
    """An edit that replaces the first items of the emitter ranges, lone indexes,
    with ``item``, which stands for as many rows if it is a range."""
    def edit(broadcasts):
        items = broadcasts["emitter"]["ranges"]
        assert all(type(i) is int for i in items[:4])
        items[:item[1] if type(item) is list and len(item) == 2 and type(item[1]) is int else 1] = [item]
    return edit


def _first_packed(edit_entry):
    """An edit that replaces the first packed payload entry [width, text] with ``edit_entry`` of it."""
    def edit(broadcasts):
        packed = broadcasts["payload"]["packed"]
        packed[0] = edit_entry(*packed[0])
    return edit


def _record_index(outcomes, index):
    for keys in outcomes["deliveries"]["record_keys"]:
        if keys:
            keys[0] = index
            return


def _element_index(*path):
    """An edit that sets the first value of the ``actor_observed`` column at ``path``."""
    def edit(outcomes, index):
        table = outcomes["actor_observed"]
        for key in path[:-1]:
            table = table[key]
        by_key(table)[path[-1]][0] = index
    return edit


@pytest.mark.parametrize("section,edit,message", [
    ("broadcasts", _longer_first_run, "section broadcasts: column 't' has 59 values, not 58"),
    *[("broadcasts", _split_first_run(count),
       "section broadcasts: column 'tx_dbm' has a run count that is not a positive integer")
      for count in (0, -1, 1.0, True, "1")],
    ("broadcasts", _all_runs, "section broadcasts: column 'emitter' is not ranges"),
    ("broadcasts", _runs_and_ranges, "section broadcasts: column 'payload' is missing, not packed"),
    ("broadcasts", _last_index(10**6),
     "section broadcasts: column 'emitter' holds 1000000, not an index into emitters"),
    ("broadcasts", _last_index(-1),
     "section broadcasts: column 'emitter' has a range item -1 that is not an index or [first, count >= 2]"),
    ("broadcasts", _first_range([10**6, 4]),
     "section broadcasts: column 'emitter' holds 1000003, not an index into emitters"),
    ("broadcasts", _first_range([2, 4]),
     "section broadcasts: column 'emitter' holds 5, not an index into emitters"),
    ("broadcasts", _first_range(5),
     "section broadcasts: column 'emitter' holds 5, not an index into emitters"),
    *[("broadcasts", _first_range(item),
       f"section broadcasts: column 'emitter' has a range item {item!r} "
       "that is not an index or [first, count >= 2]")
      for item in ([0, 1], [-1, 4], [0, 4, 1], [0, 4.0], [True, 4], -1, True, "0")],
    *[("broadcasts", _first_packed(lambda width, text, bad=bad: [width, bad(text)]),
       "section broadcasts: column 'payload' has a packed string that is not strict base64")
      for bad in (lambda text: text[:-1], lambda text: "*" + text[1:], lambda text: text + "AAAA",
                  lambda text: text.replace("+", "-").replace("/", "_"), lambda text: 5)],
    *[("broadcasts", _first_packed(lambda _, text, width=width: [width, text]),
       f"section broadcasts: column 'payload' has a packed width {width!r} "
       "that is not a positive integer dividing its bytes")
      for width in (0, -16, 16.0, True, "16", None, 15)],
    ("outcomes", lambda o: _record_index(o, 1),
     "section outcomes.deliveries: column 'record_keys' holds 1, not an index into records"),
    ("outcomes", lambda o: _record_index(o, -1),
     "section outcomes.deliveries: column 'record_keys' holds -1, not an index into records"),
    ("outcomes", lambda o: _record_index(o, "a45b"),
     "section outcomes.deliveries: column 'record_keys' holds 'a45b', not an index into records"),
    ("outcomes", lambda o: o["assessments"]["record_key"].__setitem__(0, 1),
     "section outcomes.assessments: column 'record_key' holds 1, not an index into records"),
    ("outcomes", lambda o: _element_index("backend", "rid")(o, 5),
     "section outcomes.actor_observed.backend: column 'rid' holds 5, not an index into elements"),
    ("outcomes", lambda o: _element_index("test_center", "rid")(o, "AA=="),
     "section outcomes.actor_observed.test_center: column 'rid' holds 'AA==', not an index into elements"),
    ("outcomes", lambda o: _element_index("venues", "v0", "nonce")(o, -1),
     "section outcomes.actor_observed.venues.v0: column 'nonce' holds -1, not an index into elements"),
    ("outcomes", lambda o: o.__setitem__("actor_observed", []),
     "section outcomes.actor_observed holds list, not dict"),
], ids=["runs-too-long", "count-0", "count-neg", "count-float", "count-bool", "count-str",
        "all-runs", "runs-and-ranges", "emitter-past-end", "emitter-negative", "emitter-range-past-end",
        "emitter-range-ends-past-end", "emitter-lone-past-end", "range-count-1", "range-first-negative",
        "range-three-items", "range-count-float", "range-first-bool", "range-index-negative", "range-index-bool",
        "range-index-str",
        "packed-cut-padding", "packed-bad-char", "packed-data-after-padding", "packed-urlsafe",
        "packed-not-text", "width-0", "width-negative", "width-float", "width-bool", "width-str", "width-none",
        "width-not-dividing", "record-past-end", "record-negative", "record-key-in-full", "assessment-record",
        "element-past-end", "element-in-full", "venue-element-negative", "observed-list"])
def test_bad_format_5_columns_rejected(section, edit, message, tmp_path):
    """Runs whose counts do not add up or are not positive integers, a
    section of runs alone or runs and ranges, emitter, record and element
    indexes outside their sections (the emitter's as lone indexes and as
    ranges), malformed range items and packed entries, and a block of
    ``outcomes`` of the wrong type fail the read under a valid trailer."""
    path = tmp_path / "t.ndjson"
    data = run(bundled("relay_attack"), "venue", seed=1).data
    assert len(data["records"]) == 1 and len(data["elements"]) == 5
    assert length(data["broadcasts"]) == 58
    write_trace(data, path)
    read_trace(path)  # loads before the edit
    _edit_section(path, section, edit)
    with pytest.raises(IntegrityError, match=re.escape(message)):
        read_trace(path)


def _one_shot_line(obj) -> bytes:
    """The reference encoding: the whole line in one ``json.dumps`` call."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(min_value=2**64),
                     st.just(-0.0), st.floats(), st.text())
# lists at either side of a slice boundary, of a few values repeated
_LONG_LISTS = st.builds(
    lambda items, n: (items * n)[:n],
    st.lists(st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3),
                       st.dictionaries(st.text(max_size=3), _SCALARS, max_size=3)),
             min_size=1, max_size=3),
    st.sampled_from([_SLICE - 1, _SLICE, _SLICE + 1, 2 * _SLICE, 2 * _SLICE + 1]),
)
# strings at either side of a chunk boundary, of a few characters repeated: non-ASCII
# text among them comes as escapes, astral characters as surrogate pairs
_LONG_TEXT = st.builds(lambda text, n: (text * n)[:n], st.text(min_size=1, max_size=3),
                       st.sampled_from([_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1]))
_KEYS = (st.text(), st.integers(), st.floats(allow_nan=False), st.booleans(), st.none())
_JSON = st.recursive(
    st.one_of(_SCALARS, _LONG_LISTS, _LONG_TEXT),
    lambda children: st.one_of(st.lists(children, max_size=3),
                               *(st.dictionaries(keys, children, max_size=3) for keys in _KEYS)),
    max_leaves=10,
)


@settings(max_examples=150, deadline=None)
@given(obj=_JSON)
def test_streamed_trace_is_the_one_shot_encoding(obj, tmp_path_factory):
    """Nested dicts and lists, long and short, long strings, empty
    containers, non-str keys, -0.0, large ints and non-ASCII text: every
    line write_trace streams equals its one-shot encoding, and so does the
    trailer."""
    path = tmp_path_factory.getbasetemp() / "stream.ndjson"
    write_trace(dict.fromkeys(LAYOUT, obj), path)
    header = {"format": TRACE_FORMAT, "version": TRACE_VERSION}
    body = b"".join(map(_one_shot_line, [header, *({"section": s, "data": obj} for s in LAYOUT)]))
    assert path.read_bytes() == body + _one_shot_line({"sha256": hashlib.sha256(body).hexdigest()})


@pytest.fixture(scope="module")
def crowd_trace():
    """The data of the benchmark's dp3t-crowd workload at seed 9."""
    scenario = build_population_scenario(n_users=100, n_venues=5, days=3, seed=9,
                                         infected=("u00", "u01"), name="dp3t-crowd")
    return run(scenario, "dp3t", seed=9).data


def _traced(fn, *args):
    """``fn(*args)``, the memory it left allocated and its peak, in bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn(*args)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current, peak


def test_write_trace_memory_does_not_grow_with_the_trace(crowd_trace, tmp_path):
    """The encoder holds one string per value it encodes, so a whole section
    at once held 4.66 MB beside the data; a slice at a time held 0.37 MB in
    format 4 and holds 0.11 MB, the packed payloads' 614 kB string in slices."""
    _, _, peak = _traced(write_trace, crowd_trace, tmp_path / "t.ndjson")
    assert peak <= 150_000, peak


def test_read_trace_holds_less_than_the_file_beside_its_data(crowd_trace, tmp_path):
    """The whole file, a copy of its longest line and that line's text held
    2.03 MB beside the data of a 1.23 MB file; one line at a time, as text
    only while it parses, holds less than the file."""
    path = tmp_path / "t.ndjson"
    write_trace(crowd_trace, path)
    data, current, peak = _traced(read_trace, path)
    assert data == crowd_trace
    assert peak - current < path.stat().st_size, (peak - current, path.stat().st_size)


class TestReplay:
    @pytest.mark.parametrize("name", ["missing.ndjson", "."])
    def test_replay_unreadable_path_exits_two(self, name, tmp_path, capsys):
        assert main(["replay", "--trace", str(tmp_path / name)]) == 2
        assert "error: cannot read trace" in capsys.readouterr().err

    def test_replay_reproduces_metrics_exactly(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario_file), "--seed", "4", "--out", str(out)])
        rc = main(
            ["replay", "--trace", str(out / "trace.ndjson"),
             "--out", str(tmp_path / "replayed.json")]
        )
        assert rc == 0
        assert (tmp_path / "replayed.json").read_bytes() == (out / "metrics.json").read_bytes()

    def test_replay_with_different_flags_recomputes(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario_file), "--seed", "4", "--out", str(out)])
        capsys.readouterr()  # drop the run's progress output
        rc = main(
            ["replay", "--trace", str(out / "trace.ndjson"), "--exposure-minutes", "9999"]
        )
        assert rc == 0
        recomputed = json.loads(capsys.readouterr().out)
        assert recomputed["at_risk_users"] == []

    def test_replay_ground_truth_flags(self, tmp_path, capsys):
        # u00 (the reporter) and u02 sit 0.9 m apart in v0 for 30 minutes
        scenario = Path(__file__).parents[1] / "scenarios" / "street_encounter.json"
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario), "--out", str(out)])
        trace = out / "trace.ndjson"
        for flags, policy, pairs in [
            ([], ExposurePolicy(), [["u02", "v0", "u00"]]),
            (["--gt-distance-meters", "0.5"], ExposurePolicy(distance_m=0.5), []),
            (["--gt-duration-minutes", "40"], ExposurePolicy(duration_seconds=2400), []),
            (["--gt-distance-meters", "0"], ExposurePolicy(distance_m=0.0), []),
        ]:
            capsys.readouterr()
            assert main(["replay", "--trace", str(trace), *flags]) == 0
            replayed = json.loads(capsys.readouterr().out)
            assert replayed["ground_truth_pairs"] == pairs
            expected = collect_metrics(read_trace(trace), policy).to_dict()
            assert replayed == json.loads(json.dumps(expected))

    @pytest.mark.parametrize("flag,value", [
        ("--gt-distance-meters", "nan"),
        ("--gt-distance-meters", "-1"),
        ("--gt-distance-meters", "inf"),
        ("--gt-duration-minutes", "-5"),
        ("--exposure-minutes", "-5"),
    ])
    def test_replay_rejects_negative_or_non_finite_flags(
        self, flag, value, scenario_file, tmp_path, capsys
    ):
        """Exit 2 from argparse, as a malformed value gets, instead of
        metrics over an empty ground truth."""
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario_file), "--seed", "4", "--out", str(out)])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exited:
            main(["replay", "--trace", str(out / "trace.ndjson"), flag, value])
        assert exited.value.code == 2
        assert f"argument {flag}: must be finite and at least 0" in capsys.readouterr().err

    def test_replay_truncated_exits_two(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario_file), "--seed", "4", "--out", str(out)])
        raw = (out / "trace.ndjson").read_bytes().splitlines(keepends=True)
        broken = tmp_path / "broken.ndjson"
        broken.write_bytes(b"".join(raw[:-1]))
        assert main(["replay", "--trace", str(broken)]) == 2

    def test_replay_unsupported_version_exits_two(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario_file), "--seed", "4", "--out", str(out)])
        _with_version(out / "trace.ndjson", b"3")
        capsys.readouterr()
        assert main(["replay", "--trace", str(out / "trace.ndjson")]) == 2
        assert "unsupported trace version 3" in capsys.readouterr().err

    @pytest.mark.parametrize("section,column,edit,message", [
        ("presence", "start", lambda p: p.update(start={"runs": [[t, 1] for t in p["start"]]}), "is not a list"),
        ("presence", "end", lambda p: p.update(end={"ranges": p["end"]}), "is not a list"),
        ("broadcasts", "emitter", lambda b: b.update(emitter=[i for i, in select(b, "emitter")]), "is not ranges"),
        ("broadcasts", "t", dict.clear, "is missing, not runs"),
    ], ids=["start-as-runs", "end-as-ranges", "emitter-as-list", "broadcasts-empty"])
    def test_replay_column_in_an_undeclared_form_exits_two(self, section, column, edit, message, tmp_path, capsys):
        """A column in a form ``trace.COLUMNS`` does not declare for it, each row kept, or a
        declared form left out, under a recomputed trailer, fails the read and names the section
        and key: the writer never makes one."""
        path = tmp_path / "t.ndjson"
        write_trace(run(bundled("relay_attack"), "venue", seed=1).data, path)
        _edit_section(path, section, edit)
        capsys.readouterr()
        assert main(["replay", "--trace", str(path)]) == 2
        assert f"integrity error: section {section}: column {column!r} {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("where,cut", [
        (("broadcasts",), ("payload",)),  # a one-shape section
        (("events", "columns"), ("t",)),  # a mixed-shape section
        (("outcomes", "actor_observed", "backend", "columns"), ("nonce",)),
    ], ids=["broadcasts", "events", "backend_log"])
    def test_replay_ragged_columns_exits_two(self, where, cut, tmp_path, capsys):
        """Columns cut short, under a recomputed trailer, fail the read
        (zip would silently truncate them) and name the section and key."""
        path = tmp_path / "t.ndjson"
        write_trace(run(bundled("relay_attack"), "venue", seed=1).data, path)

        def edit(table):
            for key in where[1:]:
                table = table[key]
            for key in cut:
                if isinstance(table[key], dict):  # packed bytes: the first row alone
                    width, text = table[key]["packed"][0]
                    table[key]["packed"] = [[width, b64(b64decode(text)[:width])]]
                else:
                    del table[key][1:]

        _edit_section(path, where[0], edit)
        capsys.readouterr()
        assert main(["replay", "--trace", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"section {where[0]}" in err and f"column {cut[0]!r}" in err, err
