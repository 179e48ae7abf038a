"""The bundled scenario files (the only copy of the fixed scenarios), the
rows of a trace's broadcasts, and float steps for points beside cell borders."""

import math
from pathlib import Path

from venuetrace.scenario import Scenario
from venuetrace.trace import rows

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def bundled(stem: str) -> Scenario:
    """A fresh copy of ``scenarios/<stem>.json``."""
    return Scenario.from_json_file(SCENARIOS / f"{stem}.json")


def broadcast_rows(data: dict) -> list[dict]:
    """The broadcasts of trace ``data`` as rows, each naming its emitter."""
    emitters = data["emitters"]
    return [{**row, "emitter": emitters[row["emitter"]]} for row in rows(data["broadcasts"])]


def nudge(x: float, steps: int) -> float:
    """``x`` moved ``steps`` representable floats up (or down when negative)."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x
