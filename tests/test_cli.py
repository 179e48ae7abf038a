import copy
import hashlib
import json
from pathlib import Path

import pytest

from venuetrace.cli import IntegrityError, main, read_trace, write_trace
from venuetrace.metrics import ExposurePolicy, collect_metrics
from venuetrace.sim import run

from bundled import bundled


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "relay.json"
    path.write_text(bundled("relay_attack").to_json(), encoding="utf-8")
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
        assert (out / protocol / "metrics.json").read_bytes() == (
            serial / protocol / "metrics.json"
        ).read_bytes()


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
        write_trace(trace, path)
        assert read_trace(path) == trace.data

    def test_truncated_trace_rejected(self, tmp_path):
        trace = run(bundled("relay_attack"), "venue", seed=1)
        path = tmp_path / "t.ndjson"
        write_trace(trace, path)
        lines = path.read_bytes().splitlines(keepends=True)
        (tmp_path / "cut.ndjson").write_bytes(b"".join(lines[:-1]))
        with pytest.raises(IntegrityError):
            read_trace(tmp_path / "cut.ndjson")

    def test_edited_trace_rejected(self, tmp_path):
        trace = run(bundled("relay_attack"), "venue", seed=1)
        path = tmp_path / "t.ndjson"
        write_trace(trace, path)
        tampered = path.read_bytes().replace(b'"u00"', b'"u99"', 1)
        (tmp_path / "bad.ndjson").write_bytes(tampered)
        with pytest.raises(IntegrityError):
            read_trace(tmp_path / "bad.ndjson")

    def test_rewritten_line_ends_rejected(self, tmp_path):
        """The trailer hashes the exact bytes: CRLF line ends fail the check."""
        trace = run(bundled("relay_attack"), "venue", seed=1)
        path = tmp_path / "t.ndjson"
        write_trace(trace, path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        with pytest.raises(IntegrityError, match="hash mismatch"):
            read_trace(path)


def _with_version(path, version: bytes) -> None:
    """Rewrite the header's version and sign the body with a fresh trailer."""
    raw = path.read_bytes()
    body = raw[: raw.rfind(b"\n", 0, -1) + 1].replace(b'"version":2', b'"version":' + version, 1)
    trailer = json.dumps({"sha256": hashlib.sha256(body).hexdigest()})
    path.write_bytes(body + trailer.encode() + b"\n")


@pytest.mark.parametrize("version", [b"0", b"3", b'"2"', b"null"])
def test_unsupported_trace_version_rejected(version, tmp_path):
    path = tmp_path / "t.ndjson"
    write_trace(run(bundled("relay_attack"), "venue", seed=1), path)
    _with_version(path, version)
    with pytest.raises(IntegrityError, match="unsupported trace version"):
        read_trace(path)


class TestReplay:
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
        ]:
            capsys.readouterr()
            assert main(["replay", "--trace", str(trace), *flags]) == 0
            replayed = json.loads(capsys.readouterr().out)
            assert replayed["ground_truth_pairs"] == pairs
            expected = collect_metrics(read_trace(trace), policy).to_dict()
            assert replayed == json.loads(json.dumps(expected))

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
