"""The bundled scenario files: the only copy of the fixed scenarios."""

from pathlib import Path

from venuetrace.scenario import Scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def bundled(stem: str) -> Scenario:
    """A fresh copy of ``scenarios/<stem>.json``."""
    return Scenario.from_json_file(SCENARIOS / f"{stem}.json")
