"""BLE proximity channel: log-distance path loss with optional noise.

Received power is tx_dbm - (reference_loss_db + 10 * exponent * log10(d)),
strictly decreasing in distance (exponent > 0), with zero reception beyond ``max_range_m``.
The risk-scoring signal threshold is the noiseless received power at the
exposure distance, so with zero noise "within d meters" and "at or above
the threshold" coincide by construction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

MIN_DISTANCE_M = 0.1


def cell_width(radius: float, coordinates: list[float]) -> float:
    """A grid width that puts points at most ``radius`` apart in the same or
    adjacent cells. The 2**-20 pad keeps in reach a distance that rounds down
    to ``radius``; 2**-40 of the largest |coordinate| keeps each cell index
    within 2**40, where float ``//`` is exact; the floor of 1 gives a width to
    a radius of 0, below 0 or NaN (which ``max`` passes over)."""
    return max(1.0, max(map(abs, coordinates), default=0.0) * 2**-40, radius) * (1 + 2**-20)


@dataclass(frozen=True)
class ChannelModel:
    max_range_m: float = field(default=15.0, metadata={"above": 0})
    tx_dbm: float = field(default=0.0, metadata={"type_only": True})
    path_loss_exponent: float = field(default=2.0, metadata={"above": 0})
    reference_loss_db: float = field(default=40.0, metadata={"type_only": True})  # loss at 1 m
    noise_sigma_db: float = field(default=0.0, metadata={"min": 0})
    reception_prob: float = field(default=1.0, metadata={"min": 0, "max": 1})

    def path_loss_db(self, distance_m: float) -> float:
        d = max(distance_m, MIN_DISTANCE_M)
        return self.reference_loss_db + 10.0 * self.path_loss_exponent * math.log10(d)

    def rx_dbm(
        self, distance_m: float, rng: random.Random, tx_dbm: float | None = None
    ) -> float | None:
        """Received power, or None when out of range or the reception draw fails."""
        if distance_m > self.max_range_m:
            return None
        if self.reception_prob < 1.0 and rng.random() >= self.reception_prob:
            return None
        tx = self.tx_dbm if tx_dbm is None else tx_dbm
        power = tx - self.path_loss_db(distance_m)
        if self.noise_sigma_db > 0.0:
            power += rng.gauss(0.0, self.noise_sigma_db)
        return power

    def threshold_dbm(self, distance_m: float) -> float:
        """Noiseless received power at exactly ``distance_m`` (honest tx)."""
        return self.tx_dbm - self.path_loss_db(distance_m)
