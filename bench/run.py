"""venuetrace benchmark: one workload per call, closed loop, one caller.

    python3 bench/run.py --workload venue-population --seed 9 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 9 --seconds 10

Run from the repository root (any directory works; paths are resolved from
this file). The package is imported from ``src/`` next to ``bench/`` and
nowhere else. Each timed iteration builds the workload's scenario from the
seed, constructs the simulation (``setup_s``), runs it and writes the four
output files as ``venuetrace run`` does (``run_s``), then reads the trace
back and recomputes the metrics as ``venuetrace replay`` does (``replay_s``).
Every iteration passes the correctness gate in ``gate.py`` or counts as
failed. With ``--trace 1`` the package is instrumented from outside (see
``tracer.py``) and the per-layer metrics are printed instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record,
with samples and run metadata, is written under ``.bench_runs/<workload>/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Any

from gate import check_metrics, check_repeat, check_replay
from tracer import RUN_ROOT, Recorder, layer_metrics, per_layer_units, targets
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".bench_runs"
REPLAY_REPS = 5  # replays per iteration: one is short next to its noise
SETUP_REPS = 5  # set-ups timed on their own in each iteration, one after each replay
MIN_ITERATIONS = 2  # the gate compares two runs of the same seed
MODULES = ("crypto", "schedule", "bloom", "actors", "baselines",
           "channel", "sim", "metrics", "cli", "scenario")
END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "replay_s": "s",
    "peak_rss_mb": "MB",
    "trace_bytes": "bytes",
    "ok_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (for example, no source tree)."""


def load_package() -> SimpleNamespace:
    """Import ``venuetrace`` from this checkout's ``src/``, and only from there."""
    src = ROOT / "src"
    if not (src / "venuetrace" / "__init__.py").is_file():
        raise BenchError(f"no venuetrace source tree at {src}")
    sys.path.insert(0, str(src))
    modules = {m: importlib.import_module(f"venuetrace.{m}") for m in MODULES}
    if Path(modules["sim"].__file__).resolve().parent != src / "venuetrace":
        raise BenchError(f"venuetrace imported from {modules['sim'].__file__}, not {src}")
    return SimpleNamespace(**modules)


def _canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# One iteration: setup, run, replay
# ---------------------------------------------------------------------------

def setup(vt: SimpleNamespace, wl: Workload, seed: int) -> tuple[Any, dict[str, float]]:
    """Scenario from the seed, validation, and simulation construction."""
    t0 = perf_counter()
    scenario = vt.scenario.build_population_scenario(**wl.build_kwargs(seed))
    t1 = perf_counter()
    diags = vt.scenario.validate_scenario(scenario)
    if diags:
        raise BenchError(f"generated scenario is invalid: {diags[:3]}")
    t2 = perf_counter()
    sim = vt.sim.Simulation(scenario, vt.sim.SimParams.build(scenario, wl.protocol, seed))
    t3 = perf_counter()
    return sim, {"build_s": t1 - t0, "validate_s": t2 - t1, "simulation_s": t3 - t2,
                 "setup_s": t3 - t0}


def iteration(vt: SimpleNamespace, wl: Workload, seed: int, out_dir: Path,
              rec: Recorder | None = None, setups: int = SETUP_REPS,
              replays: int = REPLAY_REPS) -> dict[str, Any]:
    """One timed set-up, run and ``replays`` replays; after each of the first
    ``setups`` replays one more set-up is timed on its own, so that set-up
    samples spread over the iteration. With ``rec`` each phase is a root span."""
    def phase(name: str):
        return rec.span(name) if rec is not None else nullcontext()

    gc.collect()
    with phase("bench.setup"):
        sim, step = setup(vt, wl, seed)
    steps = [step]
    gc.collect()
    t0 = perf_counter()
    with phase(RUN_ROOT):
        trace = sim.run()
        vt.cli._write_outputs(trace.data, out_dir)  # what `venuetrace run` writes
    run_s = perf_counter() - t0
    metrics_json = (out_dir / "metrics.json").read_text(encoding="utf-8")
    del sim, trace
    replay_s = []
    for i in range(replays):
        gc.collect()
        t0 = perf_counter()
        with phase("bench.replay"):
            data = vt.cli.read_trace(out_dir / "trace.ndjson")
            replayed = vt.cli.collect_metrics(data)
        replay_s.append(perf_counter() - t0)
        del data
        if i < setups:
            gc.collect()
            sim, step = setup(vt, wl, seed)
            steps.append(step)
            del sim
    run_metrics = json.loads(metrics_json)
    problems = check_metrics(run_metrics)
    problems += check_replay(run_metrics, json.loads(vt.cli._canonical(replayed.to_dict())))
    return {"setups": steps, "run_s": run_s, "replay_s": replay_s,
            "trace_bytes": (out_dir / "trace.ndjson").stat().st_size,
            "metrics_json": metrics_json, "problems": problems}


def guarded(fn, *args, **kwargs) -> dict[str, Any] | None:
    """Run one iteration; an exception makes it a failed attempt."""
    try:
        return fn(*args, **kwargs)
    except Exception:  # noqa: BLE001 - any crash is a failed run, not a benchmark crash
        traceback.print_exc()
        return None


# ---------------------------------------------------------------------------
# Measured runs
# ---------------------------------------------------------------------------

def _summary(values: list[float]) -> dict[str, Any]:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values), "samples": values}


def measure(vt: SimpleNamespace, wl: Workload, seed: int, seconds: float,
            out_dir: Path) -> dict[str, Any]:
    """Untraced run: iterations until ``seconds`` pass, at least MIN_ITERATIONS.

    Extra set-ups and replays ride along in every iteration, so that their
    samples spread over the whole run, as the run samples do.
    """
    start = perf_counter()
    runs: list[dict[str, Any]] = []
    attempted = failed = 0
    first_metrics: str | None = None
    while attempted < MIN_ITERATIONS or perf_counter() - start < seconds:
        attempted += 1
        result = guarded(iteration, vt, wl, seed, out_dir)
        if result is None:
            failed += 1
            continue
        if first_metrics is None:
            first_metrics = result["metrics_json"]
        else:
            result["problems"] += check_repeat(first_metrics.encode(), result["metrics_json"].encode())
        if result["problems"]:
            failed += 1
            print(f"gate: iteration {attempted} failed: {result['problems']}", file=sys.stderr)
        runs.append(result)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail: dict[str, Any] = {}
    values = dict.fromkeys(END_TO_END_UNITS, 0.0)
    if runs:
        setups = [step for r in runs for step in r["setups"]]
        for key in ("setup_s", "build_s", "validate_s", "simulation_s"):
            detail[key] = _summary([step[key] for step in setups])
        for key in ("run_s", "trace_bytes"):
            detail[key] = _summary([r[key] for r in runs])
        detail["replay_s"] = _summary([t for r in runs for t in r["replay_s"]])
        for key in ("setup_s", "run_s", "replay_s", "trace_bytes"):
            values[key] = detail[key]["median"]
    values["peak_rss_mb"] = peak_rss_mb
    values["ok_ratio"] = (attempted - failed) / attempted
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
        "detail": detail,
        "fail_ratio": failed / attempted,
    }


def measure_traced(vt: SimpleNamespace, wl: Workload, seed: int,
                   out_dir: Path) -> tuple[dict[str, Any], Recorder]:
    """Two instrumented iterations between two untraced ones.

    The first instrumented iteration installs only the count-only wrappers
    (``rx_dbm``, ``hear``, ``schedule``, actor constructors); the second
    installs only the span wrappers. So the span times carry no cost of
    the counters. The untraced pair gives the reference ``run_s`` for the
    tracing overhead.
    """
    rec = Recorder(run_id=f"{wl.name}/seed{seed}/traced")
    counted = [t for t in targets(vt) if not t[3]]
    spanned = [t for t in targets(vt) if t[3]]

    def instrumented(patches, span_rec):
        with rec.installed(patches):
            return iteration(vt, wl, seed, out_dir, span_rec, setups=0, replays=1)

    before = guarded(iteration, vt, wl, seed, out_dir, setups=0, replays=1)
    counts = guarded(instrumented, counted, None)
    spans = guarded(instrumented, spanned, rec)
    after = guarded(iteration, vt, wl, seed, out_dir, setups=0, replays=1)
    results = [before, counts, spans, after]
    done = [r for r in results if r is not None]
    for r in done[1:]:
        # every run of the seed, instrumented or not, must compute the same metrics
        r["problems"] += check_repeat(done[0]["metrics_json"].encode(), r["metrics_json"].encode())
    failed = 0
    for r in results:
        if r is None or r["problems"]:
            failed += 1
            print(f"gate: {r['problems'] if r else 'raised'}", file=sys.stderr)

    if rec.missing:
        print(f"tracer: not in the package, metrics read 0: {rec.missing}", file=sys.stderr)
    untraced = [r["run_s"] for r in (before, after) if r is not None]
    values = layer_metrics(rec, statistics.fmean(untraced) if untraced else 0.0)
    return {
        "untraced_targets": rec.missing,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in per_layer_units().items()},
        "fail_ratio": failed / len(results),
    }, rec


# ---------------------------------------------------------------------------
# Metadata, reporting, entry point
# ---------------------------------------------------------------------------

def run_metadata(wl: Workload, seed: int, seconds: int, trace: int) -> dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # not a git checkout
    import cryptography
    import numpy

    return {
        "workload": wl.name,
        "protocol": wl.protocol,
        "scenario": wl.build_kwargs(seed),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": sha,
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def print_table(metrics: dict[str, dict[str, Any]]) -> None:
    width = max(len(k) for k in metrics)
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:>14.6g} {m['unit']}")


def run_workload(name: str, seed: int, seconds: int, trace: int) -> int:
    wl = WORKLOADS[name]
    vt = load_package()
    out_dir = OUT_ROOT / name  # output files are overwritten by every run
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = run_metadata(wl, seed, seconds, trace)
    print("meta " + _canonical(meta))
    if trace:
        result, rec = measure_traced(vt, wl, seed, out_dir)
        rec.write_spans(out_dir / f"spans-seed{seed}.ndjson")
    else:
        result = measure(vt, wl, seed, seconds, out_dir)
    (out_dir / f"result-seed{seed}-trace{trace}.json").write_text(
        json.dumps({"meta": meta, **result}, indent=1) + "\n", encoding="utf-8"
    )
    print(f"{name} seed={seed} attempted={result['attempted']} failed={result['failed']} "
          f"fail_ratio={result['fail_ratio']}")
    print_table(result["metrics"])
    print(_canonical({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload in turn, each in a fresh process so peaks do not carry over."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: correct={results[name]['correct']} "
              f"attempted={results[name]['attempted']} failed={results[name]['failed']}")
        print_table(results[name]["metrics"])
    print(_canonical({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.trace)
        return run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
