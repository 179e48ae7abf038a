"""The five protocol roles: user app, venue, back-end server, health
authority, and test center.

Each actor is a single-threaded state machine driven by the simulator's
event loop; they interact only through the message types in
:mod:`venuetrace.messages`. Every actor keeps an ``observed`` log of the
inputs it could see on the wire, as bytes, which the capability-matrix tests inspect:
the back-end never receives a true identifier, venues never see the link
between a visit nonce and a user's committed identifier, and the health
authority sees only certificates, digests, and matching queries.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum

from . import crypto
from .bloom import UnknownVenuePeriodError, VenueBloomDigest, build_filter, match_batch
from .crypto import Certificate, Commitment, Opening, SigningKeyPair
from .messages import (
    BackendRecord,
    EpochRecord,
    HeardPing,
    InfectionCertificate,
    LeaveReceipt,
    ReportBundle,
)
from .schedule import SECONDS_PER_DAY, SchedulingParams, derive_window_ephids, epoch_of

DEFAULT_RETENTION_DAYS = 14
DEFAULT_CLOCK_TOLERANCE = 60


class ProtocolStateError(RuntimeError):
    """An operation was invoked in a state its protocol forbids."""


class ReceiptRefused(RuntimeError):
    """Venue declined to sign a departure (clock mismatch)."""


class CertificationRefused(RuntimeError):
    """Test center declined to certify (opening failed)."""


class QueryRejected(RuntimeError):
    """Back-end rejected a presence proof."""


class RejectionCode(str, Enum):
    BAD_CERTIFICATE = "bad-certificate"
    BAD_OPENING = "bad-opening"
    BAD_RECEIPT = "bad-receipt"
    UNMATCHED_IDENTIFIERS = "unmatched-identifiers"
    OVERLAPPING_PRESENCE = "overlapping-presence"


@dataclass
class RiskAssessment:
    """Outcome of matching one infected user's identifiers against what a
    phone heard; ``leak`` is whether any identifier matched at all."""

    matched_epochs: int
    exposure_seconds: int
    at_risk: bool
    leak: bool = False


@dataclass(frozen=True)
class RiskPolicy:
    """Local risk rule: enough matched epochs, close enough signal."""

    exposure_seconds: int = 900
    proximity_threshold_dbm: float = -60.0

    def assess(self, slots: set, epoch_seconds: int, leak: bool = False) -> RiskAssessment:
        """Score the distinct epoch ``slots`` in which a close enough
        signal matched: their total length against the duration threshold."""
        exposure = len(slots) * epoch_seconds
        return RiskAssessment(len(slots), exposure, exposure >= self.exposure_seconds, leak)


@dataclass
class VenuePolicy:
    """Per-venue knobs: trace time condition, clocks, anomaly caps."""

    time_condition: str = field(default="same_day", metadata={"one_of": ("same_day", "within_hours")})
    within_hours: int = field(default=24, metadata={"min": 0})
    clock_tolerance: int = field(default=DEFAULT_CLOCK_TOLERANCE, metadata={"min": 0})
    max_broadcasts_per_minute: int = field(default=0, metadata={"min": 0})  # 0 disables it
    max_rx_dbm: float = field(default=-35.0, metadata={"type_only": True})  # honest phones: near -40
    min_stay_seconds: int = field(default=0, metadata={"min": 0})  # arrival-time extension only

    def admits(self, record_leave_time: int, visit_leave_time: int) -> bool:
        if self.time_condition == "same_day":
            return record_leave_time // SECONDS_PER_DAY == visit_leave_time // SECONDS_PER_DAY
        if self.time_condition == "within_hours":
            return abs(record_leave_time - visit_leave_time) <= self.within_hours * 3600
        raise crypto.ParameterError(f"unknown time condition {self.time_condition!r}")


# ---------------------------------------------------------------------------
# Health authority
# ---------------------------------------------------------------------------

class HealthAuthority:
    """Root of trust: certifies venues and test centers, stores venue digests,
    and answers the back-end's identifier-matching queries."""

    def __init__(self, rng: random.Random, retention_days: int = DEFAULT_RETENTION_DAYS):
        self.keys: SigningKeyPair = crypto.keygen(rng)
        self.retention_seconds = retention_days * SECONDS_PER_DAY
        self.registry: dict[str, Certificate] = {}
        self.digests: dict[str, list[VenueBloomDigest]] = {}
        self.observed: list[dict] = []

    @property
    def public_key(self) -> bytes:
        return self.keys.public_key

    def certify(self, subject_public_key: bytes, subject_id: str) -> Certificate:
        cert = crypto.issue_certificate(subject_public_key, subject_id, self.keys.secret_key)
        self.registry[subject_id] = cert
        self.observed.append({"kind": "certify", "subject_id": subject_id})
        return cert

    def certificate_for(self, subject_id: str) -> Certificate | None:
        return self.registry.get(subject_id)

    def store_digest(self, digest: VenueBloomDigest, now: int) -> None:
        self.observed.append(
            {
                "kind": "digest",
                "venue_id": digest.venue_id,
                "period": [digest.period_start, digest.period_end],
            }
        )
        self._evict(digest.venue_id, now)
        self.digests.setdefault(digest.venue_id, []).append(digest)

    def _evict(self, venue_id: str, now: int) -> None:
        """Drop the venue's digests whose period ended before the retention window."""
        if venue_id in self.digests:
            cutoff = now - self.retention_seconds
            self.digests[venue_id] = [d for d in self.digests[venue_id] if d.period_end >= cutoff]

    def match(
        self, venue_id: str, ids: list[bytes], presence: tuple[int, int], now: int
    ) -> list[bool]:
        """Match against the venue's digests still retained at ``now`` whose
        period [start, end) overlaps the ``presence`` interval [start, end]."""
        self.observed.append({"kind": "match", "venue_id": venue_id, "ids": list(ids)})
        self._evict(venue_id, now)
        start, end = presence
        digests = [
            d for d in self.digests.get(venue_id, ())
            if d.period_start <= end and start < d.period_end
        ]
        return match_batch({venue_id: digests}, venue_id, ids)


# ---------------------------------------------------------------------------
# Test center
# ---------------------------------------------------------------------------

class TestCenter:
    """Certifies infections: checks that the presented rid opens to the true
    identifier it observed during the physical test, then signs
    (contagious period || rid)."""

    __test__ = False  # not a pytest class

    def __init__(self, center_id: str, ha: HealthAuthority, rng: random.Random):
        self.center_id = center_id
        self.keys = crypto.keygen(rng)
        self.certificate = ha.certify(self.keys.public_key, center_id)
        self.observed: list[dict] = []

    def certify_infection(
        self,
        rid_value: int,
        opening: Opening,
        observed_true_id: str,
        period_start: int,
        period_end: int,
    ) -> InfectionCertificate:
        self.observed.append({"kind": "infection_test", "true_id": observed_true_id,
                              "rid": crypto.encode_group_element(rid_value)})
        if opening.message != observed_true_id.encode("utf-8"):
            raise CertificationRefused("opened identifier does not match tested person")
        if not crypto.verify_opening(rid_value, opening.message, opening.blinding):
            raise CertificationRefused("rid does not open to the claimed identifier")
        unsigned = InfectionCertificate(period_start, period_end, rid_value, b"", self.center_id)
        return replace(unsigned, signature=crypto.sign(unsigned.payload(), self.keys.secret_key))


# ---------------------------------------------------------------------------
# Venue
# ---------------------------------------------------------------------------

class Venue:
    """Certified mediator: records on-premise broadcasts, signs leave
    receipts, emits periodic Bloom digests, and monitors for anomalies."""

    def __init__(
        self,
        venue_id: str,
        ha: HealthAuthority,
        rng: random.Random,
        policy: VenuePolicy | None = None,
        retention_days: int = DEFAULT_RETENTION_DAYS,
    ):
        self.venue_id = venue_id
        self.keys = crypto.keygen(rng)
        self.certificate = ha.certify(self.keys.public_key, venue_id)
        self.policy = policy or VenuePolicy()
        self.retention_seconds = retention_days * SECONDS_PER_DAY
        self.heard_log: list[tuple[bytes, int]] = []  # (ephid, time)
        self.anomalies: list[dict] = []
        self.infection_notices: list[dict] = []
        self.observed: list[dict] = []
        self._recent: deque[int] = deque()

    def record_broadcast(self, ephid: bytes, rx_dbm: float, now: int) -> None:
        self.heard_log.append((ephid, now))
        if rx_dbm > self.policy.max_rx_dbm:
            self.anomalies.append({"kind": "signal_too_strong", "t": now, "rx_dbm": rx_dbm})
        if self.policy.max_broadcasts_per_minute > 0:
            self._recent.append(now)
            while self._recent and self._recent[0] <= now - 60:
                self._recent.popleft()
            if len(self._recent) == self.policy.max_broadcasts_per_minute + 1:
                self.anomalies.append({"kind": "broadcast_flood", "t": now})

    def issue_receipt(
        self,
        nonce_value: int,
        claimed_time: int,
        ephid_digest: bytes,
        now: int,
        arrival_time: int | None = None,
    ) -> LeaveReceipt:
        """Sign a departure; the claimed timestamp must match the venue clock."""
        self.observed.append({"kind": "leave", "nonce": crypto.encode_group_element(nonce_value),
                              "t": claimed_time})
        if abs(claimed_time - now) > self.policy.clock_tolerance:
            raise ReceiptRefused(
                f"claimed leave time {claimed_time} outside tolerance of venue clock {now}"
            )
        unsigned = LeaveReceipt(
            nonce_value, claimed_time, ephid_digest, b"", self.venue_id, arrival_time
        )
        return replace(
            unsigned, venue_signature=crypto.sign(unsigned.payload(), self.keys.secret_key)
        )

    def emit_digest(
        self, period_start: int, period_end: int, now: int, target_fpr: float
    ) -> VenueBloomDigest:
        """Filter over identifiers heard in the period; evicts entries past retention."""
        cutoff = now - self.retention_seconds
        self.heard_log = [e for e in self.heard_log if e[1] >= cutoff]
        ids = [e[0] for e in self.heard_log if period_start <= e[1] < period_end]
        return VenueBloomDigest(
            venue_id=self.venue_id,
            period_start=period_start,
            period_end=period_end,
            filter=build_filter(ids, target_fpr),
        )

    def notify_infection(self, leave_time: int) -> None:
        self.infection_notices.append({"kind": "infected_visit", "leave_time": leave_time})


# ---------------------------------------------------------------------------
# User app
# ---------------------------------------------------------------------------

@dataclass
class VenueSession:
    """One consent-gated venue stay: open while ``receipt`` is None, a
    completed visit once the venue's verified leave receipt is attached."""

    venue_id: str
    entry_time: int
    nonce: Commitment
    window_keys: list[bytes] = field(default_factory=list)
    records: list[EpochRecord] = field(default_factory=list)
    receipt: LeaveReceipt | None = None

    @property
    def last_window_epochs(self) -> int:
        """Epochs broadcast in the stay's last window (y of the report)."""
        last_window = self.records[-1].window if self.records else 1
        return sum(1 for r in self.records if r.window == last_window)


class UserApp:
    """The per-user state machine: venue-anchored broadcasting, hearing,
    leave receipts, infection reporting, and local risk evaluation."""

    def __init__(
        self,
        true_id: str,
        ha_public_key: bytes,
        params: SchedulingParams,
        rng: random.Random,
        verifier: crypto.Verifier,
    ):
        self.true_id = true_id
        self.params = params
        self.ha_public_key = ha_public_key
        self.verify = verifier.verify
        self.rng = rng  # rid blinding, visit nonces, window keys
        self.rid: Commitment = crypto.commit(true_id.encode("utf-8"), rng)
        self.session: VenueSession | None = None  # one venue at a time
        self._window_ids: list[bytes] = []  # the open window's identifiers
        self.visits: list[VenueSession] = []
        self.discarded_visits: list[dict] = []

    # -- sensing -----------------------------------------------------------

    @property
    def listening(self) -> bool:
        """A phone hears broadcasts only inside a venue it consented to."""
        return self.session is not None

    def enter_venue(self, venue_id: str, now: int) -> VenueSession:
        if self.session is not None:
            raise ProtocolStateError(f"already in a session at {self.session.venue_id}")
        nonce = crypto.commit(self.rid.value_bytes(), self.rng)
        self.session = VenueSession(venue_id=venue_id, entry_time=now, nonce=nonce)
        return self.session

    def epoch_tick(self, now: int) -> bytes:
        """Advance to the epoch starting at ``now``; returns the identifier to
        broadcast. Generates a fresh window key on window rollover."""
        session = self.session
        if session is None:
            raise ProtocolStateError("epoch tick outside an active session")
        window, epoch = epoch_of(now - session.entry_time, self.params)
        if window == len(session.window_keys) + 1:
            key = self.rng.randbytes(32)
            session.window_keys.append(key)
            self._window_ids = derive_window_ephids(key, session.venue_id, self.params)
        elif window != len(session.window_keys):
            raise ProtocolStateError("epoch ticks must not skip windows")
        own = self._window_ids[epoch - 1]
        session.records.append(EpochRecord(window=window, epoch=epoch, own_ephid=own))
        return own

    def payload(self, now: int) -> bytes | None:
        """The identifier of the current epoch, None outside a session."""
        if self.session is None or not self.session.records:
            return None
        return self.session.records[-1].own_ephid

    def hear(self, ephid: bytes, rx_dbm: float, now: int) -> None:
        if self.session is None or not self.session.records:
            return
        self.session.records[-1].heard.append(HeardPing(ephid=ephid, signal_dbm=rx_dbm, time=now))

    def leave_venue(
        self,
        venue: Venue,
        now: int,
        arrival_time_extension: bool = False,
    ) -> VenueSession | None:
        """Halt broadcasting, obtain the venue's receipt, store the visit.

        Returns None (visit discarded) when the receipt does not verify under
        the venue's certified key.
        """
        session = self.session
        if session is None or session.venue_id != venue.venue_id:
            raise ProtocolStateError(f"no active session at {venue.venue_id}")
        self.session = None
        self._window_ids = []

        own_ids = [r.own_ephid for r in session.records]
        digest = crypto.hash_bytes(b"".join(own_ids))
        arrival = session.entry_time if arrival_time_extension else None
        receipt = venue.issue_receipt(session.nonce.value, now, digest, now, arrival)

        cert = venue.certificate
        if not (
            self.verify(cert.payload(), cert.issuer_signature, self.ha_public_key)
            and self.verify(receipt.payload(), receipt.venue_signature, cert.subject_public_key)
            and receipt.ephid_digest == digest
        ):
            self.discarded_visits.append({"venue_id": venue.venue_id, "t": now})
            return None

        session.receipt = receipt
        self.visits.append(session)
        return session

    # -- reporting ---------------------------------------------------------

    def obtain_certificate(
        self, test_center: TestCenter, period_start: int, period_end: int
    ) -> InfectionCertificate:
        return test_center.certify_infection(
            rid_value=self.rid.value,
            opening=self.rid.opening,
            observed_true_id=self.true_id,
            period_start=period_start,
            period_end=period_end,
        )

    def build_reports(self, certificate: InfectionCertificate) -> list[ReportBundle]:
        """One bundle per stored visit whose leave time falls in the period."""
        return [
            ReportBundle(
                certificate=certificate,
                nonce_reveal=visit.nonce.opening,
                leave_receipt=visit.receipt,
                last_window_epochs=visit.last_window_epochs,
                window_keys=visit.window_keys,
            )
            for visit in self.visits
            if certificate.period_start <= visit.receipt.leave_time <= certificate.period_end
        ]

    # -- tracing -----------------------------------------------------------

    def evaluate_risk(
        self,
        visit: VenueSession,
        retrieved: list[tuple[bytes, ...]],
        policy: RiskPolicy,
    ) -> list[RiskAssessment]:
        """Local risk evaluation against the retrieved identifier lists.

        Matched exposure is counted in distinct (window, epoch) slots of the
        visit in which some retrieved identifier was heard at or above the
        proximity threshold.
        """
        out = []
        for ephid_list in retrieved:
            infected_ids = set(ephid_list)
            slots = set()
            for record in visit.records:
                for ping in record.heard:
                    if ping.ephid in infected_ids and ping.signal_dbm >= policy.proximity_threshold_dbm:
                        slots.add((record.window, record.epoch))
                        break
            out.append(policy.assess(slots, self.params.epoch_seconds))
        return out


# ---------------------------------------------------------------------------
# Back-end server
# ---------------------------------------------------------------------------

class BackendServer:
    """Receives, verifies, and serves infected users' identifier reports."""

    def __init__(
        self,
        ha: HealthAuthority,
        params: SchedulingParams,
        verifier: crypto.Verifier,
        retention_days: int = DEFAULT_RETENTION_DAYS,
    ):
        self.ha = ha
        self.params = params
        self.verify = verifier.verify
        self.retention_seconds = retention_days * SECONDS_PER_DAY
        self.records: list[BackendRecord] = []
        self.rejections: list[dict] = []
        self.observed: list[dict] = []
        self.venues: dict[str, Venue] = {}
        # rid value -> list of (venue_id, presence_start, presence_end); internal
        # collusion index, never published.
        self._presence_by_rid: dict[int, list[tuple[str, int, int]]] = {}
        # visit nonce -> its published record, so a re-sent bundle publishes once
        self._published: dict[int, BackendRecord] = {}

    def register_venue(self, venue: Venue) -> None:
        self.venues[venue.venue_id] = venue

    def _verified_subject_key(self, subject_id: str) -> bytes | None:
        cert = self.ha.certificate_for(subject_id)
        if cert and self.verify(cert.payload(), cert.issuer_signature, self.ha.public_key):
            return cert.subject_public_key
        return None

    def _reject(self, code: RejectionCode, detail: str, now: int) -> tuple[None, RejectionCode]:
        self.rejections.append({"code": code.value, "detail": detail, "t": now})
        return None, code

    def process_report(
        self, bundle: ReportBundle, now: int
    ) -> tuple[BackendRecord | None, RejectionCode | None]:
        """Run the five verification steps in order; publish on success.

        Returns (record, None) on acceptance or (None, code) with the first
        failing step's rejection code. A bundle whose visit nonce is already
        published returns the existing record without publishing or
        notifying again.
        """
        cert = bundle.certificate
        receipt = bundle.leave_receipt
        venue_id = receipt.venue_id
        rid_bytes = crypto.encode_group_element(cert.rid_value)
        self.observed.append({"kind": "report", "venue_id": venue_id, "rid": rid_bytes,
                              "nonce": crypto.encode_group_element(receipt.nonce_value), "t": now})

        # (a) test-center signature, then the nonce opening to the certified rid
        tc_key = self._verified_subject_key(cert.test_center_id)
        if tc_key is None or not self.verify(cert.payload(), cert.signature, tc_key):
            return self._reject(RejectionCode.BAD_CERTIFICATE, "certificate chain", now)
        reveal = bundle.nonce_reveal
        if reveal.message != rid_bytes:
            return self._reject(RejectionCode.BAD_OPENING, "reveal names a different rid", now)
        if not crypto.verify_opening(receipt.nonce_value, reveal.message, reveal.blinding):
            return self._reject(RejectionCode.BAD_OPENING, "opening does not verify", now)

        # (b) reconstruct the identifiers and verify the venue's receipt signature
        x = len(bundle.window_keys)
        y = bundle.last_window_epochs
        n = self.params.ids_per_window
        if x < 1 or not (1 <= y <= n):
            return self._reject(RejectionCode.BAD_RECEIPT, "malformed window/epoch counts", now)
        ephids: list[bytes] = []
        for w, key in enumerate(bundle.window_keys, start=1):
            ids = derive_window_ephids(key, venue_id, self.params)
            ephids.extend(ids if w < x else ids[:y])
        digest = crypto.hash_bytes(b"".join(ephids))
        venue_key = self._verified_subject_key(venue_id)
        payload = replace(receipt, ephid_digest=digest).payload()
        if venue_key is None or not self.verify(payload, receipt.venue_signature, venue_key):
            return self._reject(RejectionCode.BAD_RECEIPT, "venue signature", now)

        # the stay the receipt proves: from arrival, or from the first epoch
        if receipt.arrival_time is not None:
            presence_start = receipt.arrival_time
        else:
            presence_start = receipt.leave_time - (
                (x - 1) * self.params.window_seconds + y * self.params.epoch_seconds
            )
        presence_end = receipt.leave_time

        # (c) two-party matching with HA: were these identifiers heard at the
        # venue during that stay?
        try:
            matches = self.ha.match(venue_id, ephids, (presence_start, presence_end), now)
        except UnknownVenuePeriodError:
            return self._reject(
                RejectionCode.UNMATCHED_IDENTIFIERS, "no digest for venue period", now
            )
        if not all(matches):
            return self._reject(
                RejectionCode.UNMATCHED_IDENTIFIERS,
                f"{matches.count(False)} identifiers absent from venue digest",
                now,
            )

        # same rid cannot be present at two venues at overlapping times
        for other_venue, start, end in self._presence_by_rid.get(cert.rid_value, []):
            if other_venue == venue_id:
                continue
            overlap = min(end, presence_end) - max(start, presence_start)
            if overlap > 0:
                return self._reject(
                    RejectionCode.OVERLAPPING_PRESENCE,
                    f"presence overlaps accepted report at {other_venue}",
                    now,
                )

        # (d) publish, (e) notify the venue
        if receipt.nonce_value in self._published:
            return self._published[receipt.nonce_value], None
        record = BackendRecord(venue_id=venue_id, leave_time=receipt.leave_time, ephids=tuple(ephids))
        self.records.append(record)
        self._published[receipt.nonce_value] = record
        self._presence_by_rid.setdefault(cert.rid_value, []).append(
            (venue_id, presence_start, presence_end)
        )
        venue = self.venues.get(venue_id)
        if venue is not None:
            venue.notify_infection(receipt.leave_time)
        return record, None

    def answer_trace(self, receipt: LeaveReceipt, now: int) -> list[tuple[bytes, ...]]:
        """Verify the leave receipt as proof of presence, then serve the
        identifiers of the records its venue policy admits."""
        self.observed.append({"kind": "trace_query", "venue_id": receipt.venue_id,
                              "nonce": crypto.encode_group_element(receipt.nonce_value), "t": now})
        venue_key = self._verified_subject_key(receipt.venue_id)
        if venue_key is None:
            raise QueryRejected(f"venue {receipt.venue_id} is not certified")
        if not self.verify(receipt.payload(), receipt.venue_signature, venue_key):
            raise QueryRejected("presence proof signature invalid")

        venue = self.venues.get(receipt.venue_id)
        policy = venue.policy if venue is not None else VenuePolicy()
        if receipt.arrival_time is not None and policy.min_stay_seconds > 0:
            if receipt.leave_time - receipt.arrival_time < policy.min_stay_seconds:
                return []

        cutoff = now - self.retention_seconds
        self.records = [r for r in self.records if r.leave_time >= cutoff]
        return [
            r.ephids
            for r in self.records
            if r.venue_id == receipt.venue_id and policy.admits(r.leave_time, receipt.leave_time)
        ]
