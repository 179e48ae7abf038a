"""Time discretization and ephemeral identifier derivation.

The venue protocol anchors a per-user clock at venue entry, splits it into
windows of ``window_seconds`` and epochs of ``epoch_seconds`` (one
broadcast identifier each). A window key is 32 fresh random bytes per
(venue stay, window), never reused across venues; the key and the venue id
fix the window's identifiers. The DP-3T baseline uses a hash chain of daily
keys with a venue-free derivation label instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .crypto import ParameterError, hash_bytes, prf, prg_expand

DEFAULT_EPOCH_SECONDS = 180
DEFAULT_WINDOW_SECONDS = 7200
BROADCAST_LABEL = b"broadcast key"
SECONDS_PER_DAY = 86_400


@dataclass(frozen=True)
class SchedulingParams:
    """Epoch length L and window length W in seconds; n = W / L ids per window."""

    epoch_seconds: int = DEFAULT_EPOCH_SECONDS
    window_seconds: int = DEFAULT_WINDOW_SECONDS

    def __post_init__(self) -> None:
        if self.epoch_seconds <= 0:
            raise ParameterError("epoch_seconds must be positive")
        if self.window_seconds % self.epoch_seconds != 0:
            raise ParameterError("window_seconds must be a multiple of epoch_seconds")

    @property
    def ids_per_window(self) -> int:
        return self.window_seconds // self.epoch_seconds


@dataclass(frozen=True)
class DailyKey:
    """One link of the DP-3T hash chain: key for day x is hash(key for day x-1)."""

    key: bytes
    day_index: int


def venue_label(venue_id: str) -> bytes:
    """Derivation label binding identifiers to one venue."""
    return BROADCAST_LABEL + b"||" + venue_id.encode("utf-8")


def derive_window_ephids(key: bytes, venue_id: str, params: SchedulingParams) -> list[bytes]:
    """All n identifiers of one window, a pure function of (key, venue, params)."""
    seed = prf(key, venue_label(venue_id))
    return prg_expand(seed, params.ids_per_window)


def epoch_of(time_in_stay: int, params: SchedulingParams) -> tuple[int, int]:
    """Map seconds-since-entry to 1-based (window_index, epoch_index).

    Intervals are half-open: second L-1 is still epoch 1, second L starts
    epoch 2.
    """
    if time_in_stay < 0:
        raise ParameterError("time_in_stay must be >= 0")
    window = time_in_stay // params.window_seconds + 1
    epoch = (time_in_stay % params.window_seconds) // params.epoch_seconds + 1
    return window, epoch


def dp3t_next_daily_key(k: DailyKey) -> DailyKey:
    return DailyKey(key=hash_bytes(k.key), day_index=k.day_index + 1)


def dp3t_derive_ephids(k: DailyKey, n: int) -> list[bytes]:
    """The n identifiers broadcast on day ``k.day_index`` (venue-free label)."""
    return prg_expand(prf(k.key, BROADCAST_LABEL), n)
