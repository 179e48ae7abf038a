"""Deterministic discrete-event simulator for all three protocols.

One seeded ``random.Random`` drives every stochastic choice (keys, blinding,
noise), scheduled work (a function and its arguments) runs as ``fn(time,
*args)`` in (time, scheduling order), and the resulting trace serializes to
canonical JSON, so equal (scenario, seed) pairs reproduce byte-identical traces.

The world model: each user is at a location (a venue id, or the shared
street space) with scripted coordinates. Broadcasts are delivered to
co-located listeners in range at the broadcaster's epoch ticks, plus a
catch-up delivery of current identifiers whenever two listeners become
newly co-present, which stands in for within-epoch re-broadcasting.
Listeners are found through a map from each cell (``channel.cell_width``)
to the users in the 3x3 block around it, so a broadcast costs one lookup
plus work for the users near it; a baseline's epoch tick is one ``emit``.
Ground-truth presence segments are recorded independently of any protocol
and feed the exposure oracle in :mod:`venuetrace.metrics`. Scripted events
run before the run's own work of the same second. Drivers and actors log
rows as plain dicts, bytes as bytes; ``Simulation.run`` hands them to
``trace.store``, which makes the stored form once, at the end. Only
``emit`` writes its table, ``broadcasts``, in columns as it sends, but for
the raw payloads, which ``run`` packs once and ``store`` writes as base64.
``run`` checks the scenario, its overrides and the protocol once;
``Simulation`` takes inputs that passed.
"""

from __future__ import annotations

import heapq
import math
import random
from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable

from . import crypto
from .actors import (
    DEFAULT_RETENTION_DAYS,
    BackendServer,
    CertificationRefused,
    HealthAuthority,
    RiskAssessment,
    RiskPolicy,
    TestCenter,
    UserApp,
    Venue,
    VenuePolicy,
)
from .baselines import (
    DP3T_EPOCHS_PER_DAY,
    Dp3tBackend,
    Dp3tUserApp,
    MoHServer,
    TTUserApp,
    dp3t_match,
)
from .bloom import DEFAULT_TARGET_FPR
from .channel import ChannelModel, cell_width
from .messages import InfectionCertificate, ReportBundle
from .scenario import EVENT_DEFAULTS, Scenario, ScenarioError, ScenarioEvent, validate_scenario
from .schedule import DEFAULT_EPOCH_SECONDS, DEFAULT_WINDOW_SECONDS, SECONDS_PER_DAY, SchedulingParams
from .trace import COLUMNS, add_ranges, add_run, b64, packed, store

PROTOCOLS = ("venue", "dp3t", "tracetogether")
STREET = None  # location key for the shared off-premise space


@dataclass
class SimParams:
    protocol: str = "venue"
    seed: int = 0
    epoch_seconds: int = field(default=DEFAULT_EPOCH_SECONDS, metadata={"above": 0})
    window_seconds: int = field(default=DEFAULT_WINDOW_SECONDS, metadata={"above": 0})  # whole epochs
    bloom_fpr: float = field(default=DEFAULT_TARGET_FPR, metadata={"above": 0, "below": 1})
    retention_days: int = field(default=DEFAULT_RETENTION_DAYS, metadata={"min": 0})
    exposure_seconds: int = field(default=RiskPolicy.exposure_seconds, metadata={"min": 0})
    proximity_meters: float = field(default=2.0, metadata={"min": 0})
    arrival_time_extension: bool = field(default=False, metadata={"type_only": True})
    dp3t_epochs_per_day: int = field(default=DP3T_EPOCHS_PER_DAY, metadata={"above": 0})  # divides 86400
    tt_interval_seconds: int = field(default=900, metadata={"above": 0})
    channel: ChannelModel = field(default_factory=ChannelModel)

    @staticmethod
    def merge(params: dict[str, Any], overrides: dict[str, Any] | None) -> dict[str, Any]:
        """``overrides`` win key by key, in ``channel`` too when both give it as an object."""
        merged, channel = {**params, **(overrides or {})}, params.get("channel")
        if isinstance(channel, dict) and isinstance(merged["channel"], dict):
            merged["channel"] = {**channel, **merged["channel"]}
        return merged

    @classmethod
    def build(
        cls, scenario: Scenario, protocol: str, seed: int, overrides: dict[str, Any] | None = None
    ) -> "SimParams":
        """Scenario params first, explicit overrides win; each key is a field."""
        merged = cls.merge(scenario.params, overrides)
        merged.update(protocol=protocol, seed=seed, channel=ChannelModel(**merged.get("channel", {})))
        return cls(**merged)


@dataclass
class SimulationTrace:
    """A run's trace: ``data`` holds the sections ``trace.ndjson`` stores."""

    data: dict[str, Any]


def _record_key(ephids: tuple[bytes, ...]) -> str:
    # base64 here: the key names a record in ``record_reporters``, which the trace stores keyed by it
    return b64(crypto.hash_bytes(b"".join(ephids)))


# ---------------------------------------------------------------------------
# Protocol drivers
# ---------------------------------------------------------------------------

class _Driver(ABC):
    """One protocol as the simulation core sees it.

    The core calls only these methods, plus the radio interface of each
    phone app in ``users``: ``listening``, ``payload(now)`` (what the phone
    broadcasts now, or None) and ``hear(payload, rx_dbm, now)``. The
    defaults fit a phone-wide BLE baseline: its ``_tick`` runs from 0,
    venues mean nothing, a positive test just stores the contagious period,
    and a report without one, or a user's second report, is skipped.
    """

    users: dict[str, Any]  # user -> phone app

    def __init__(self, sim: "Simulation"):
        self.sim = sim
        self.periods: dict[str, tuple[int, int]] = {}
        p = sim.params
        self.risk = RiskPolicy(p.exposure_seconds, p.channel.threshold_dbm(p.proximity_meters))

    def setup(self) -> None:
        """Schedule the protocol's own recurring events."""
        self.sim.schedule(0, self._tick)

    @abstractmethod
    def _report(self, user: str, data: dict[str, Any], credential: Any, now: int) -> None:
        """Carry out a report backed by ``credential`` (see ``_credential``)."""

    def on_enter(self, user: str, venue_id: str, now: int) -> None:
        """A consenting user enters a venue; the core has moved them already."""

    def on_leave(self, user: str, venue_id: str, now: int) -> None:
        """A user leaves a venue; the core moves them to the street after."""

    def on_premise(self, venue_id: str, payload: bytes, tx_dbm: float, now: int) -> None:
        """A broadcast on a venue's premises, once per emit, for venue equipment."""

    def share_rid(self, from_user: str, to_user: str) -> None:
        """Credential sharing: ``to_user`` takes over ``from_user``'s identity."""

    def on_trace_query(self, user: str, now: int) -> None:
        """A user asks whether they were exposed."""

    def on_test_positive(self, user: str, period: tuple[int, int], now: int) -> None:
        self.periods[user] = period

    def _credential(self, user: str, data: dict[str, Any]) -> Any:
        """What a report by ``user`` rests on, or None to skip it.

        A baseline publishes a reporter once: DP-3T's report replaces the
        key chain, and a repeat TraceTogether report would make the MoH
        trace and notify the same contacts again.
        """
        if user in self.sim.outcomes["reporters"]:
            return None
        return self.periods.get(user)

    def on_report(self, user: str, data: dict[str, Any], now: int) -> None:
        credential = self._credential(user, data)
        if credential is None:
            self.sim.events_log.append({"t": now, "kind": "report_skipped", "user": user})
            return
        self._report(user, data, credential, now)

    def _report_outcome(
        self, user: str, period: tuple[int, int], now: int,
        venue: str | None = None, code: str | None = None,
    ) -> dict[str, Any]:
        """Record one upload's verdict; an accepted one makes ``user`` a reporter."""
        if code is None:
            self.sim.outcomes["reporters"].setdefault(user, list(period))
        row = {"user": user, "venue": venue, "accepted": code is None, "code": code, "t": now}
        self.sim.outcomes["reports"].append(row)
        return row

    def _assessment(
        self, user: str, reporter: str | None, a: RiskAssessment,
        venue: str | None = None, record_key: str | None = None, **extra: Any,
    ) -> None:
        self.sim.outcomes["assessments"].append(
            {
                "user": user,
                "venue": venue,
                "record_key": record_key,
                "reporter": reporter,
                "matched_epochs": a.matched_epochs,
                "exposure_seconds": a.exposure_seconds,
                "at_risk": a.at_risk,
                **extra,
            }
        )

    def finalize(self, horizon: int) -> None:
        self.sim.outcomes["duty_seconds"] = {
            u: float(horizon) for u in self.sim.scenario.users
        }


class _VenueDriver(_Driver):
    """Venue protocol: sessions, receipts, reports, trace queries."""

    def __init__(self, sim: "Simulation"):
        super().__init__(sim)
        p = sim.params
        self.sched = SchedulingParams(p.epoch_seconds, p.window_seconds)
        self.ha = HealthAuthority(sim.rng, p.retention_days)
        self.venues: dict[str, Venue] = {}
        for vs in sim.scenario.venues:
            self.venues[vs.venue_id] = Venue(
                vs.venue_id, self.ha, sim.rng, VenuePolicy(**vs.policy), p.retention_days
            )
        verifier = crypto.Verifier()  # freed with this run
        self.backend = BackendServer(self.ha, self.sched, verifier, p.retention_days)
        for venue in self.venues.values():
            self.backend.register_venue(venue)
        self.test_center = TestCenter("lab0", self.ha, sim.rng)
        self.users = {
            u: UserApp(u, self.ha.public_key, self.sched, sim.rng, verifier)
            for u in sim.scenario.users
        }
        self.certificates: dict[str, InfectionCertificate] = {}
        self.visit_seq: dict[str, int] = {u: 0 for u in sim.scenario.users}
        self.duty_seconds: dict[str, int] = {u: 0 for u in sim.scenario.users}

    def setup(self) -> None:
        hz = self.sim.scenario.horizon_seconds
        for t in range(SECONDS_PER_DAY, hz + 1, SECONDS_PER_DAY):
            self.sim.schedule(t, self._emit_digests, t - SECONDS_PER_DAY)
        if hz % SECONDS_PER_DAY:
            self.sim.schedule(hz, self._emit_digests, hz - hz % SECONDS_PER_DAY)

    def _emit_digests(self, now: int, period_start: int) -> None:
        """Each venue's digest of the period that ends now."""
        for vid in sorted(self.venues):
            digest = self.venues[vid].emit_digest(period_start, now, now, self.sim.params.bloom_fpr)
            self.ha.store_digest(digest, now)
            self.sim.events_log.append(
                {"t": now, "kind": "venue_digest", "venue": vid,
                 "period": [period_start, now], "size": digest.filter.count}
            )

    def on_premise(self, venue_id: str, payload: bytes, tx_dbm: float, now: int) -> None:
        self.venues[venue_id].record_broadcast(
            payload, tx_dbm - self.sim.params.channel.reference_loss_db, now
        )

    def share_rid(self, from_user: str, to_user: str) -> None:
        self.users[to_user].rid = self.users[from_user].rid

    def on_enter(self, user: str, venue_id: str, now: int) -> None:
        self.users[user].enter_venue(venue_id, now)
        self.visit_seq[user] += 1
        self._visit_tick(now, user, self.visit_seq[user])

    def _visit_tick(self, now: int, user: str, seq: int) -> None:
        app = self.users[user]
        if seq != self.visit_seq[user] or app.session is None:
            return  # session ended (or superseded) before this tick fired
        self.sim.emit(now, [(user, app.epoch_tick(now))], f"visit{seq}")
        self.sim.schedule(now + self.sched.epoch_seconds, self._visit_tick, user, seq)

    def on_leave(self, user: str, venue_id: str, now: int) -> None:
        app = self.users[user]
        if app.session is None:
            return  # consent withheld at entry; no protocol state to close
        self.duty_seconds[user] += now - app.session.entry_time
        visit = app.leave_venue(self.venues[venue_id], now, self.sim.params.arrival_time_extension)
        self.sim.outcomes["visits"].append(
            {
                "user": user,
                "venue": venue_id,
                "entry": visit.entry_time if visit else None,
                "leave": now,
                "discarded": visit is None,
            }
        )

    def on_test_positive(self, user: str, period: tuple[int, int], now: int) -> None:
        try:
            cert = self.users[user].obtain_certificate(self.test_center, period[0], period[1])
        except CertificationRefused as exc:  # e.g. the user took over another's rid
            self.sim.events_log.append(
                {"t": now, "kind": "certification_refused", "user": user, "reason": str(exc)}
            )
            return
        self.certificates[user] = cert

    def _tamper(self, bundle: ReportBundle, mode: str, reporter: str) -> ReportBundle:
        if mode == "forge_certificate":
            fake_keys = crypto.keygen(self.sim.rng)
            cert = bundle.certificate
            forged = replace(
                cert,
                signature=crypto.sign(cert.payload(), fake_keys.secret_key),
                test_center_id="fake-lab",
            )
            return replace(bundle, certificate=forged)
        if mode == "corrupt_opening":
            reveal = bundle.nonce_reveal
            return replace(bundle, nonce_reveal=replace(reveal, blinding=reveal.blinding + 1))
        # swap_venue_keys: another venue's keys, or random ones if the reporter visited no other
        venue_id = bundle.leave_receipt.venue_id
        other = next((v for v in self.users[reporter].visits if v.venue_id != venue_id), None)
        keys = (
            other.window_keys
            if other is not None
            else [self.sim.rng.randbytes(32) for _ in bundle.window_keys]
        )
        return replace(bundle, window_keys=keys)

    def _credential(self, user: str, data: dict[str, Any]) -> InfectionCertificate | None:
        return self.certificates.get(data.get("use_certificate_of", user))

    def _report(
        self, user: str, data: dict[str, Any], cert: InfectionCertificate, now: int
    ) -> None:
        tamper = data["tamper"]
        for bundle in self.users[user].build_reports(cert):
            if tamper:
                bundle = self._tamper(bundle, tamper, user)
            record, code = self.backend.process_report(bundle, now)
            if record is not None:
                self.sim.outcomes["record_reporters"][_record_key(record.ephids)] = user
            row = self._report_outcome(
                user, (cert.period_start, cert.period_end), now, bundle.leave_receipt.venue_id,
                None if code is None else code.value,
            )
            self.sim.events_log.append({"kind": "report", **row})

    def on_trace_query(self, user: str, now: int) -> None:
        app = self.users[user]
        for visit in app.visits:
            lists = self.backend.answer_trace(visit.receipt, now)
            keys = [_record_key(l) for l in lists]
            self.sim.outcomes["deliveries"].append({"user": user, "venue": visit.venue_id,
                                                    "record_keys": keys,  # interned by ``trace.store``
                                                    "n_ephids": sum(len(l) for l in lists), "t": now})
            assessments = app.evaluate_risk(visit, lists, self.risk)
            for a, key in zip(assessments, keys):
                reporter = self.sim.outcomes["record_reporters"].get(key)
                self._assessment(user, reporter, a, visit.venue_id, key)

    def finalize(self, horizon: int) -> None:
        for user, app in self.users.items():
            if app.session is not None:
                self.duty_seconds[user] += horizon - app.session.entry_time
        self.sim.outcomes["duty_seconds"] = {
            u: float(self.duty_seconds[u]) for u in self.sim.scenario.users
        }
        self.sim.outcomes["venue_anomalies"] = {
            vid: self.venues[vid].anomalies for vid in sorted(self.venues)
        }
        self.sim.outcomes["venue_notices"] = {
            vid: self.venues[vid].infection_notices for vid in sorted(self.venues)
        }
        self.sim.outcomes["backend_rejections"] = self.backend.rejections
        self.sim.outcomes["actor_observed"] = {
            "backend": self.backend.observed,
            "ha": self.ha.observed,
            "test_center": self.test_center.observed,
            "venues": {vid: self.venues[vid].observed for vid in sorted(self.venues)},
        }


class _Dp3tDriver(_Driver):
    """DP-3T low-cost baseline: 24/7 broadcasting on a global epoch grid.
    Each report publishes one key and makes its user a reporter once, so
    ``outcomes["reporters"]`` names the publishers in publication order."""

    def __init__(self, sim: "Simulation"):
        super().__init__(sim)
        self.epoch_seconds = SECONDS_PER_DAY // sim.params.dp3t_epochs_per_day
        self.backend = Dp3tBackend(sim.params.dp3t_epochs_per_day)
        self.users = {
            u: Dp3tUserApp(sim.rng, sim.params.dp3t_epochs_per_day) for u in sim.scenario.users
        }

    def _tick(self, now: int) -> None:
        sends = [(u, self.users[u].payload(now)) for u in self.sim.scenario.users]
        self.sim.emit(now, sends, f"day{now // SECONDS_PER_DAY}")
        nxt = now + self.epoch_seconds
        if nxt < self.sim.scenario.horizon_seconds:
            self.sim.schedule(nxt, self._tick)

    def _report(self, user: str, data: dict[str, Any], period: tuple[int, int], now: int) -> None:
        first_day = period[0] // SECONDS_PER_DAY
        self.users[user].report(self.backend, first_day, now // SECONDS_PER_DAY)
        self._report_outcome(user, period, now)
        self.sim.events_log.append({"t": now, "kind": "report", "user": user, "day": first_day})

    def on_trace_query(self, user: str, now: int) -> None:
        assessments = dp3t_match(self.users[user], self.backend, now // SECONDS_PER_DAY, self.risk)
        for a, reporter in zip(assessments, self.sim.outcomes["reporters"]):
            if reporter != user:
                self._assessment(user, reporter, a, leak=a.leak)

    def finalize(self, horizon: int) -> None:
        super().finalize(horizon)
        self.sim.outcomes["published_keys"] = [
            {"day": p.day_index, "key": p.key, "reporter": r}
            for p, r in zip(self.backend.published, self.sim.outcomes["reporters"])
        ]


class _TTDriver(_Driver):
    """TraceTogether baseline: MoH-issued tokens, centralised tracing."""

    def __init__(self, sim: "Simulation"):
        super().__init__(sim)
        self.interval_seconds = sim.params.tt_interval_seconds
        self.moh = MoHServer(sim.rng)
        # each user registers their user id as their phone number
        self.users = {u: TTUserApp(u, self.moh) for u in sim.scenario.users}

    def _tick(self, now: int) -> None:
        interval = now // self.interval_seconds
        sends = []
        for u in self.sim.scenario.users:
            app = self.users[u]
            app.tid = self.moh.issue_tid(app.pseudonym, interval)
            sends.append((u, app.tid))
        self.sim.emit(now, sends, f"ivl{interval}")
        nxt = now + self.interval_seconds
        if nxt < self.sim.scenario.horizon_seconds:
            self.sim.schedule(nxt, self._tick)

    def _report(self, user: str, data: dict[str, Any], period: tuple[int, int], now: int) -> None:
        app = self.users[user]
        lo, hi = period[0] // self.interval_seconds, period[1] // self.interval_seconds
        relevant = [h for h in app.heard if lo <= h.time // self.interval_seconds <= hi]
        contacts = self.moh.trace(app.phone_number, relevant)
        self._report_outcome(user, period, now)
        for contact in contacts:
            # notification is pushed by MoH at report time, not on trace queries
            self._assessment(contact, user, RiskAssessment(1, self.interval_seconds, True))

    def finalize(self, horizon: int) -> None:
        super().finalize(horizon)
        self.sim.outcomes["moh_edges"] = [
            {"reporter": a, "contact": b}
            for a, b in self.moh.traced_edges
        ]


_DRIVERS = {"venue": _VenueDriver, "dp3t": _Dp3tDriver, "tracetogether": _TTDriver}


# ---------------------------------------------------------------------------
# Simulation core
# ---------------------------------------------------------------------------

class Simulation:
    """Precondition: ``scenario`` passes ``validate_scenario`` with the
    overrides ``params`` was built with, and ``params.protocol`` is one of
    ``PROTOCOLS``. Neither is checked again here."""

    def __init__(self, scenario: Scenario, params: SimParams):
        self.scenario = scenario
        self.params = params
        self.rng = random.Random(params.seed)
        self._heap: list[tuple[int, int, Callable[..., None], tuple]] = []
        self._seq = 0

        self.location: dict[str, str | None] = {}
        self.position: dict[str, tuple[float, float]] = {}
        self._open_segment: dict[str, dict[str, Any]] = {}
        self.presence: list[dict[str, Any]] = []
        # in columns as it is sent, so ``store`` only encodes payloads: a pass at the end made DP-3T slower;
        # the payloads are kept as sent and packed once by ``run``: per ``emit`` call, venue runs took 5% longer
        self.broadcasts: dict[str, Any] = {key: {form: []} for key, (form, _) in COLUMNS["broadcasts"].items()}
        self._payloads: list[bytes] = []
        self._emitter_index: dict[str, int] = {}  # emitter -> index, in order of first broadcast
        self.events_log: list[dict[str, Any]] = []
        self.outcomes: dict[str, Any] = {
            "reporters": {},
            "reports": [],
            "deliveries": [],
            "assessments": [],
            "visits": [],
            "record_reporters": {},
            "adversary": {"injected": 0, "captured": 0, "eavesdropped": []},
        }
        # capture rules (src venue, dst venue, pos, start, end, delay) by
        # re-broadcast tag; all relays act before any replay
        self._captures: dict[str, list[tuple]] = {"relay": [], "replay": []}
        self._suppress: dict[str, list[tuple[int, int]]] = {}
        self._eavesdrop_venues: list[str] = []
        self.adversary_observed: list[bytes] = []

        # block map: (location, cell x, cell y) -> the users whose cell is in
        # the 3x3 block around it, so everyone in range of a point in the cell,
        # at every position the run takes: streets and each pos validate checks
        self._street_pos = {u: (1.0e6 + 1000.0 * i, 0.0) for i, u in enumerate(scenario.users)}
        coordinates = [c for pos in self._street_pos.values() for c in pos]
        coordinates += [c for e in scenario.events if "pos" in e.data for c in e.data["pos"]]
        self._cell_width = cell_width(params.channel.max_range_m, coordinates)
        self._blocks: dict[tuple[str | None, float, float], set[str]] = {}
        self._cell: dict[str, tuple[str | None, float, float]] = {}  # user -> own cell key
        self._order = {u: i for i, u in enumerate(scenario.users)}
        for user in scenario.users:
            self._set_position(user, STREET, self._street_pos[user], 0)

        self.driver = _DRIVERS[params.protocol](self)
        self.phones = self.driver.users
        for event in scenario.sorted_events():  # first, so they run first at equal time
            self.schedule(event.time, self._handle_scenario_event, event)
        self.driver.setup()

    # -- scheduling ---------------------------------------------------------

    def schedule(self, time: int, fn: Callable[..., None], *args: Any) -> None:
        """Have ``run`` call ``fn(time, *args)``, after the work scheduled
        earlier for the same time; work after the horizon is dropped."""
        if time > self.scenario.horizon_seconds:
            return
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, fn, args))

    # -- world state --------------------------------------------------------

    def _close_segment(self, user: str, now: int) -> None:
        seg = self._open_segment.get(user)  # None before the user's first placement
        if seg is not None and seg["start"] < now:
            self.presence.append({**seg, "end": now})

    def _set_position(
        self, user: str, location: str | None, pos: tuple[float, float], now: int
    ) -> None:
        self._close_segment(user, now)
        blocks = self._blocks
        if user in self._cell:
            for key in self._block(*self._cell[user]):
                if len(blocks[key]) == 1:
                    del blocks[key]  # the user was the last one there
                else:
                    blocks[key].discard(user)
        self.location[user] = location
        self.position[user] = pos
        cell = self._cell[user] = self._cell_of(location, pos)
        for key in self._block(*cell):
            blocks.setdefault(key, set()).add(user)
        self._open_segment[user] = {
            "user": user, "start": now, "location": location, "x": pos[0], "y": pos[1],
        }

    def _cell_of(
        self, location: str | None, pos: tuple[float, float]
    ) -> tuple[str | None, float, float]:
        return location, pos[0] // self._cell_width, pos[1] // self._cell_width

    def _block(
        self, location: str | None, x: float, y: float
    ) -> set[tuple[str | None, float, float]]:
        """The keys of the 3x3 block of cells around cell (x, y)."""
        x0, x2, y0, y2 = x - 1, x + 1, y - 1, y + 1  # unrolled: every move builds two
        return {(location, x0, y0), (location, x0, y), (location, x0, y2),
                (location, x, y0), (location, x, y), (location, x, y2),
                (location, x2, y0), (location, x2, y), (location, x2, y2)}

    def _nearby(self, cell: tuple[str | None, float, float], exclude: str) -> list[str]:
        """Users at the cell's location in the 3x3 block of cells around it,
        except ``exclude``, in scenario order (the order of deliveries and
        draws)."""
        found = self._blocks.get(cell)
        if not found or (len(found) == 1 and exclude in found):
            return []
        return sorted(found - {exclude}, key=self._order.__getitem__)

    def _is_suppressed(self, user: str, now: int) -> bool:
        return any(start <= now <= end for start, end in self._suppress.get(user, ()))

    # -- broadcasting -------------------------------------------------------

    def emit(self, now: int, sends: list[tuple[str, bytes]], tag: str,
             at: tuple[str | None, tuple[float, float]] | None = None,
             tx_dbm: float | None = None) -> None:
        """Put each (emitter, payload) on the air and deliver it to the
        co-located listeners in range, send by send in list order. ``at``,
        the (location, pos) sent from, marks an adversary injection."""
        injected = at is not None
        if self._suppress and not injected:
            sends = [send for send in sends if not self._is_suppressed(send[0], now)]
        cells, position = self._cell, self.position
        phones, nearby = self.phones, self._nearby
        tx = self.params.channel.tx_dbm if tx_dbm is None else tx_dbm
        columns, index, payloads = self.broadcasts, self._emitter_index, self._payloads
        for key, value in (("t", now), ("tx_dbm", tx), ("injected", injected), ("tag", tag)):
            add_run(columns[key], value, len(sends))
        add_ranges(columns["emitter"], [index.setdefault(emitter, len(index)) for emitter, _ in sends])
        if injected:
            self.outcomes["adversary"]["injected"] += len(sends)
        capturing = not injected and any(self._captures.values())

        for emitter, payload in sends:
            if at is None:
                cell, pos = cells[emitter], position[emitter]
            else:
                cell, pos = self._cell_of(*at), at[1]
            loc = cell[0]
            add_run(columns["location"], loc, 1)
            payloads.append(payload)
            for user in nearby(cell, emitter):
                if phones[user].listening:
                    self._receive(user, payload, math.dist(pos, position[user]), now, tx_dbm)
            if loc is not STREET:
                self.driver.on_premise(loc, payload, tx, now)
                if loc in self._eavesdrop_venues:
                    self.adversary_observed.append(payload)
                    self.outcomes["adversary"]["eavesdropped"].append(  # in hex: metrics.json copies it
                        {"venue": loc, "payload": payload.hex(), "t": now}
                    )
                if capturing:
                    self._capture(loc, payload, now)

    def _capture(self, loc: str, payload: bytes, now: int) -> None:
        for tag, rules in self._captures.items():
            for src, dst, pos, start, end, delay in rules:
                if src != loc or not start <= now <= end:
                    continue
                self.adversary_observed.append(payload)
                self.outcomes["adversary"]["captured"] += 1
                self.schedule(now + delay, self.emit, [("adversary", payload)], tag, (dst, pos))

    def _receive(
        self, user: str, payload: bytes, distance: float, now: int, tx_dbm: float | None = None
    ) -> None:
        """One channel draw; ``user``'s phone hears what gets through."""
        rx = self.params.channel.rx_dbm(distance, self.rng, tx_dbm)
        if rx is not None:
            self.phones[user].hear(payload, rx, now)

    def _exchange(self, user: str, now: int) -> None:
        """Catch-up delivery of current identifiers on new co-presence:
        theirs to ``user``, then ``user``'s to them, per neighbour."""
        pos = self.position[user]
        for other in self._nearby(self._cell[user], user):
            d = math.dist(pos, self.position[other])
            if d > self.params.channel.max_range_m:
                continue
            for sender, receiver in ((other, user), (user, other)):
                payload = self.phones[sender].payload(now)
                if (payload is not None and self.phones[receiver].listening
                        and not self._is_suppressed(sender, now)):
                    self._receive(receiver, payload, d, now)

    # -- scenario event handling ---------------------------------------------

    def _handle_scenario_event(self, now: int, event: ScenarioEvent) -> None:
        kind, data = event.kind, {**EVENT_DEFAULTS, **event.data}  # optional fields defaulted
        self.events_log.append({"t": now, "kind": kind, **event.data})  # as written

        if kind == "enter":
            user, venue = data["user"], data["venue"]
            pos = tuple(float(c) for c in data["pos"])
            self._set_position(user, venue, pos, now)
            if data["consent"]:
                self.driver.on_enter(user, venue, now)
            self._exchange(user, now)
        elif kind == "move":
            user = data["user"]
            pos = tuple(float(c) for c in data["pos"])
            self._set_position(user, self.location[user], pos, now)
            self._exchange(user, now)
        elif kind == "leave":
            user = data["user"]
            venue = self.location[user]
            if venue is not STREET:
                self.driver.on_leave(user, venue, now)
            self._set_position(user, STREET, self._street_pos[user], now)
            self._exchange(user, now)
        elif kind == "test_positive":
            self.driver.on_test_positive(data["user"], tuple(data["period"]), now)
        elif kind == "report":
            self.driver.on_report(data["user"], data, now)
        elif kind == "trace_query":
            self.driver.on_trace_query(data["user"], now)
        elif kind == "adversary_action":
            self._handle_adversary(data, now)

    def _handle_adversary(self, data: dict[str, Any], now: int) -> None:
        action = data["action"]
        if action in ("relay_cross_venue", "replay_same_venue"):
            relay = action == "relay_cross_venue"
            src = data["src_venue"] if relay else data["venue"]
            self._captures["relay" if relay else "replay"].append(
                (src, data["dst_venue"] if relay else src, tuple(data["pos"]),
                 data["start"], data["end"], data["delay"])
            )
        elif action == "suppress_broadcasts":
            self._suppress.setdefault(data["user"], []).append((data["start"], data["end"]))
        elif action == "flood":
            venue = data["venue"]
            pos = tuple(data["pos"])
            per_minute = data["per_minute"]
            tx = float(data["tx_dbm"])
            start, end = data["start"], data["end"]
            # broadcast i goes at start + 60*i // per_minute, for every i that
            # lands in [start, end]: ceil((end - start + 1) * per_minute / 60)
            for i in range(((end - start + 1) * per_minute + 59) // 60):
                t = start + 60 * i // per_minute
                if t < now:
                    continue  # broadcasts due before the event cannot be sent
                self.schedule(t, self._flood, (venue, pos), tx)
        elif action == "share_rid":
            self.driver.share_rid(data["from_user"], data["to_user"])
            self.events_log.append({"t": now, "kind": "share_rid_applied"})
        elif action == "linkage_eavesdrop":
            self._eavesdrop_venues.extend(data["venues"])

    def _flood(self, now: int, at: tuple[str, tuple[float, float]], tx_dbm: float) -> None:
        """One flood broadcast: 16 random bytes, drawn as it goes out."""
        self.emit(now, [("adversary", self.rng.randbytes(16))], "flood", at, tx_dbm)

    # -- run -----------------------------------------------------------------

    def run(self) -> SimulationTrace:
        horizon = self.scenario.horizon_seconds
        while self._heap:
            time, _, fn, args = heapq.heappop(self._heap)
            fn(time, *args)
        for user in self.scenario.users:
            self._close_segment(user, horizon)
        self.driver.finalize(horizon)
        observed = self.adversary_observed  # usually empty: then no payload set is built
        self.outcomes["adversary"]["observed_only_broadcast_bytes"] = (
            not observed or set(self._payloads).issuperset(observed)
        )
        self.broadcasts["payload"] = packed(self._payloads)
        data = {
            "config": {"scenario": self.scenario.to_dict(), "params": asdict(self.params)},
            "events": self.events_log,
            "broadcasts": self.broadcasts,
            "emitters": list(self._emitter_index),
            "presence": self.presence,
            "outcomes": self.outcomes,
        }
        return SimulationTrace(store(data))


def run(scenario: Scenario, protocol: str = "venue", seed: int = 0,
        overrides: dict[str, Any] | None = None) -> SimulationTrace:
    """Check the scenario with ``overrides`` merged into its params, then
    simulate and return the full trace; a failed check raises ScenarioError."""
    diags = validate_scenario(scenario, overrides)
    if protocol not in _DRIVERS:  # the one input the scenario check does not see
        diags.append(f"unknown protocol {protocol!r}")
    if diags:
        raise ScenarioError(diags)
    return Simulation(scenario, SimParams.build(scenario, protocol, seed, overrides)).run()
