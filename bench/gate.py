"""Correctness gate: the invariants every timed run of an honest population
must satisfy. A run that fails any check counts as failed."""

from __future__ import annotations

from typing import Any


def check_metrics(metrics: dict[str, Any]) -> list[str]:
    """Problems found in one run's ``metrics.json`` dict; empty means it passes."""
    problems = []
    if metrics["recall"] != 1.0:
        problems.append(f"recall {metrics['recall']} != 1.0")
    if metrics["precision"] != 1.0:
        problems.append(f"precision {metrics['precision']} != 1.0")
    if not metrics["ground_truth_pairs"]:
        problems.append("no ground-truth exposures: the workload exercises nothing")
    if metrics["accepted_reports"] < 1:
        problems.append("no accepted reports")
    rejected = sum(metrics["rejections"].values())
    if rejected:
        problems.append(f"{rejected} rejected reports: {metrics['rejections']}")
    if metrics["protocol"] == "venue":
        if metrics["data_minimisation_violations"] != 0:
            problems.append(
                f"data_minimisation_violations = {metrics['data_minimisation_violations']}"
            )
        for key in ("cross_venue_ephid_matches", "cross_visit_ephid_matches"):
            if metrics["adversary"][key] != 0:
                problems.append(f"{key} = {metrics['adversary'][key]}")
    return problems


def check_repeat(first_json: bytes, again_json: bytes) -> list[str]:
    """Two runs of one (scenario, seed) must write identical ``metrics.json``."""
    if first_json != again_json:
        return ["metrics.json differs between two runs of the same seed"]
    return []


def check_replay(run_metrics: dict[str, Any], replay_metrics: dict[str, Any]) -> list[str]:
    """Replaying the written trace must reproduce the run's metrics."""
    if run_metrics != replay_metrics:
        diff = sorted(k for k in run_metrics if run_metrics[k] != replay_metrics.get(k))
        return [f"replay metrics differ from run metrics in {diff}"]
    return []
