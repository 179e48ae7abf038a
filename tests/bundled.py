"""The bundled scenario files (the only copy of the fixed scenarios), and
the rows of a trace's broadcasts."""

from pathlib import Path

from venuetrace.scenario import Scenario
from venuetrace.table import rows

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def bundled(stem: str) -> Scenario:
    """A fresh copy of ``scenarios/<stem>.json``."""
    return Scenario.from_json_file(SCENARIOS / f"{stem}.json")


def broadcast_rows(data: dict) -> list[dict]:
    """The broadcasts of trace ``data`` as rows, each naming its emitter."""
    emitters = data["emitters"]
    return [{**row, "emitter": emitters[row["emitter"]]} for row in rows(data["broadcasts"])]
