"""Messages and records exchanged between protocol roles.

Messages pass between actors as in-memory dataclasses. The only byte
layouts are the signed payloads (leave receipt, infection certificate),
assembled with the length-prefixed encoding so they are reproducible
bit-exactly; their field orders are fixed here and nowhere else. Times are
integer seconds on the simulation clock, encoded big-endian u64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .crypto import Opening, encode_group_element, encode_u64, lp_encode


@dataclass(frozen=True)
class HeardPing:
    """One received broadcast, as all three protocols' phones store it:
    payload bytes, received signal, simulation time."""

    ephid: bytes
    signal_dbm: float
    time: int


@dataclass
class EpochRecord:
    """User-side storage for one epoch of one venue stay."""

    window: int
    epoch: int
    own_ephid: bytes
    heard: list[HeardPing] = field(default_factory=list)


def receipt_payload(
    nonce_value: int,
    leave_time: int,
    ephid_digest: bytes,
    arrival_time: int | None = None,
) -> bytes:
    """Byte string the venue signs on departure.

    Field order: nonce, [arrival time when the arrival-time extension is on],
    leave time, digest of the visitor's own identifiers.
    """
    fields = [encode_group_element(nonce_value)]
    if arrival_time is not None:
        fields.append(encode_u64(arrival_time))
    fields.append(encode_u64(leave_time))
    fields.append(ephid_digest)
    return lp_encode(*fields)


@dataclass(frozen=True)
class LeaveReceipt:
    """Venue-signed proof of presence: (nonce, time, identifier digest)."""

    nonce_value: int
    leave_time: int
    ephid_digest: bytes
    venue_signature: bytes
    venue_id: str
    arrival_time: int | None = None

    def payload(self) -> bytes:
        return receipt_payload(
            self.nonce_value, self.leave_time, self.ephid_digest, self.arrival_time
        )


def infection_certificate_payload(
    period_start: int, period_end: int, rid_value: int
) -> bytes:
    return lp_encode(
        encode_u64(period_start), encode_u64(period_end), encode_group_element(rid_value)
    )


@dataclass(frozen=True)
class InfectionCertificate:
    """Test-center signature over (contagious period, committed identifier)."""

    period_start: int
    period_end: int
    rid_value: int
    signature: bytes
    test_center_id: str

    def payload(self) -> bytes:
        return infection_certificate_payload(
            self.period_start, self.period_end, self.rid_value
        )


@dataclass(frozen=True)
class ReportBundle:
    """Everything an infected user uploads for one visited venue.

    Mirrors the four report lines: certificate; the opening of the visit
    nonce; the venue's leave receipt, which carries the nonce, venue id,
    leave time and any arrival time; and (epoch count y, window keys 1..x).
    """

    certificate: InfectionCertificate
    nonce_reveal: Opening
    leave_receipt: LeaveReceipt
    last_window_epochs: int
    window_keys: list[bytes]


@dataclass(frozen=True)
class BackendRecord:
    """Published record: (venue id, leave time; reconstructed identifiers)."""

    venue_id: str
    leave_time: int
    ephids: tuple[bytes, ...]
