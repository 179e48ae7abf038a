"""Command-line interface: run, validate, replay.

``run`` writes ``trace.ndjson`` through :mod:`venuetrace.trace`, exactly as
``SimulationTrace.data`` holds it, and ``events.ndjson``, the ``events`` rows;
``replay`` reads the trace back through the same module.

Exit codes: 0 success, 1 scenario-validation failure, 2 runtime failure
(including trace integrity errors). The ``run`` flags in ``PARAM_FLAGS``
set scenario ``params`` keys and win on conflict. The default output
directory comes from $VENUETRACE_OUT (falling back to ./runs).
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat
from pathlib import Path
from typing import Any, Callable

from .metrics import ExposurePolicy, MetricsReport, collect_metrics, comparison_rows
from .scenario import Scenario, ScenarioError, validate_scenario
from .sim import PROTOCOLS
from .sim import run as run_simulation
from .trace import IntegrityError, _canonical, read_trace, rows, write_trace

# (params key, flag type, flag value -> key value scale). The flag is
# --<key>, except that a key in seconds scaled by 60 takes minutes.
PARAM_FLAGS: tuple[tuple[str, type, int], ...] = (
    ("epoch_seconds", int, 1),
    ("window_seconds", int, 1),
    ("bloom_fpr", float, 1),
    ("retention_days", int, 1),
    ("exposure_seconds", int, 60),
    ("proximity_meters", float, 1),
    ("arrival_time_extension", bool, 1),
)


def _flag_dest(key: str, scale: int) -> str:
    return key.replace("_seconds", "_minutes") if scale == 60 else key


def _overrides_from_args(args: argparse.Namespace) -> dict[str, Any]:
    overrides: dict[str, Any] = {}
    for key, _, scale in PARAM_FLAGS:
        value = getattr(args, _flag_dest(key, scale))
        if value is None or value is False:  # flag not given
            continue
        overrides[key] = value if scale == 1 else value * scale  # True stays a bool
    return overrides


def _write_outputs(trace_data: dict[str, Any], out_dir: Path) -> MetricsReport:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trace(trace_data, out_dir / "trace.ndjson")
    with open(out_dir / "events.ndjson", "w", encoding="utf-8") as fh:
        for entry in rows(trace_data["events"]):
            fh.write(_canonical(entry) + "\n")
    report = collect_metrics(trace_data)
    (out_dir / "metrics.json").write_text(
        _canonical(report.to_dict()) + "\n", encoding="utf-8"
    )
    at_risk = set(report.at_risk_users)
    leaks = set(report.leak_users)
    with open(out_dir / "users.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user", "duty_cycle", "at_risk", "leak"])
        for user, duty in report.duty_cycle.items():
            writer.writerow([user, f"{duty:.6f}", int(user in at_risk), int(user in leaks)])
    return report


def _load_scenario(path: str) -> Scenario | None:
    """The scenario in ``path``, or None after saying why it cannot be loaded.

    A file of the wrong shape (``users: 5``, a venue that is not an object,
    a missing or non-numeric time) fails here, before validation.
    """
    try:
        return Scenario.from_json_file(path)
    except (OSError, KeyError, ValueError, TypeError, OverflowError) as exc:
        print(f"error: cannot load scenario: {exc}", file=sys.stderr)
        return None


def cmd_run(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    if scenario is None:
        return 1
    protocols = list(PROTOCOLS) if args.protocol == "all" else [args.protocol]
    out_root = Path(args.out)

    # each run validates the scenario with the flag values merged in
    overrides = _overrides_from_args(args)
    runs = (run_simulation, repeat(scenario), protocols, repeat(args.seed), repeat(overrides))
    try:
        if args.jobs > 1 and len(protocols) > 1:
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                traces = list(pool.map(*runs))
        else:
            traces = list(map(*runs))
    except ScenarioError as exc:
        for d in exc.diagnostics:
            print(f"invalid: {d}", file=sys.stderr)
        return 1

    reports = []
    for protocol, trace in zip(protocols, traces):
        out_dir = out_root / protocol if len(protocols) > 1 else out_root
        report = _write_outputs(trace.data, out_dir)
        reports.append(report)
        print(
            f"{protocol}: recall={report.recall:.3f} "
            f"precision={report.precision:.3f} "
            f"at_risk={len(report.at_risk_users)} "
            f"-> {out_dir / 'metrics.json'}"
        )

    if len(reports) > 1:
        rows = comparison_rows(reports)
        (out_root / "comparison.json").write_text(_canonical(rows) + "\n", encoding="utf-8")
        with open(out_root / "comparison.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        print(f"comparison table -> {out_root / 'comparison.csv'}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    if scenario is None:
        return 1
    diags = validate_scenario(scenario)
    if diags:
        for d in diags:
            print(d)
        return 1
    print("ok")
    return 0


def _not_negative(kind: type) -> Callable[[str], Any]:
    """An argparse type: a finite ``kind`` of at least 0; others exit 2."""
    def parse(text: str) -> Any:
        if not 0 <= (value := kind(text)) < math.inf:
            raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid float value"
    return parse


def cmd_replay(args: argparse.Namespace) -> int:
    try:
        trace_data = read_trace(Path(args.trace))
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 2
    policy = ExposurePolicy(args.gt_distance_meters, args.gt_duration_minutes * 60)
    exposure_seconds = None if args.exposure_minutes is None else args.exposure_minutes * 60
    report = collect_metrics(trace_data, policy, exposure_seconds)
    payload = _canonical(report.to_dict())
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(payload + "\n", encoding="utf-8")
        print(f"metrics -> {out}")
    else:
        print(payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="venuetrace",
        description="Venue-based contact-tracing protocol simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and write reports")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--protocol", default="venue", choices=[*PROTOCOLS, "all"])
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument(
        "--out", default=os.environ.get("VENUETRACE_OUT", "runs"),
        help="output directory (default $VENUETRACE_OUT or ./runs)",
    )
    p_run.add_argument("--jobs", type=int, default=1, help="parallel protocol runs")
    for key, kind, scale in PARAM_FLAGS:
        flag = "--" + _flag_dest(key, scale).replace("_", "-")
        if kind is bool:
            p_run.add_argument(flag, action="store_true")
        else:
            p_run.add_argument(flag, type=kind, default=None)
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("--scenario", required=True)
    p_val.set_defaults(func=cmd_validate)

    p_rep = sub.add_parser("replay", help="recompute metrics from a trace log")
    p_rep.add_argument("--trace", required=True)
    p_rep.add_argument("--out", default=None)
    p_rep.add_argument("--exposure-minutes", type=_not_negative(int), default=None)
    p_rep.add_argument("--gt-distance-meters", type=_not_negative(float),
                       default=ExposurePolicy.distance_m)
    p_rep.add_argument("--gt-duration-minutes", type=_not_negative(int),
                       default=ExposurePolicy.duration_seconds // 60)
    p_rep.set_defaults(func=cmd_replay)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - stable exit-code contract
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
