import random
from dataclasses import replace

import pytest

from venuetrace import crypto
from venuetrace.actors import (
    BackendServer,
    CertificationRefused,
    HealthAuthority,
    ProtocolStateError,
    QueryRejected,
    ReceiptRefused,
    RejectionCode,
    RiskPolicy,
    TestCenter,
    UserApp,
    Venue,
    VenuePolicy,
)
from venuetrace.bloom import UnknownVenuePeriodError
from venuetrace.messages import HeardPing
from venuetrace.schedule import SchedulingParams, derive_window_ephids
from venuetrace.sim import run

from bundled import bundled

PARAMS = SchedulingParams()
L = PARAMS.epoch_seconds
DAY = 86400


@pytest.fixture
def world():
    rng = random.Random(42)
    ha = HealthAuthority(rng)
    venues = {
        "cafe": Venue("cafe", ha, rng),
        "gym": Venue("gym", ha, rng),
    }
    verifier = crypto.Verifier()  # one per world, as one per run
    backend = BackendServer(ha, PARAMS, verifier)
    for v in venues.values():
        backend.register_venue(v)
    tc = TestCenter("lab0", ha, rng)
    return {"rng": rng, "ha": ha, "venues": venues, "backend": backend, "tc": tc,
            "verifier": verifier}


def new_user(world, name="alice"):
    return UserApp(name, world["ha"].public_key, PARAMS, world["rng"], world["verifier"])


def run_visit(world, app, venue_name, t0, epochs, broadcast=True):
    """Drive one visit: tick every epoch, venue hears each broadcast."""
    venue = world["venues"][venue_name]
    app.enter_venue(venue_name, t0)
    for k in range(epochs):
        ephid = app.epoch_tick(t0 + k * L)
        if broadcast:
            venue.record_broadcast(ephid, -40.0, t0 + k * L)
    return app.leave_venue(venue, t0 + epochs * L)


def forge_certificate(world, cert):
    """Same subject and key as ``cert``, signed by a key the HA never held."""
    rogue = crypto.keygen(world["rng"])
    return crypto.issue_certificate(cert.subject_public_key, cert.subject_id, rogue.secret_key)


def flip(signature):
    """``signature`` with one bit of its first byte flipped."""
    return bytes([signature[0] ^ 1]) + signature[1:]


def publish_digests(world, day_end):
    for venue in world["venues"].values():
        digest = venue.emit_digest(day_end - DAY, day_end, day_end, 1e-6)
        world["ha"].store_digest(digest, day_end)


class TestUserSessions:
    def test_enter_starts_window_one_epoch_one(self, world):
        app = new_user(world)
        app.enter_venue("cafe", 0)
        app.epoch_tick(0)
        rec = app.session.records[0]
        assert (rec.window, rec.epoch) == (1, 1)

    def test_double_entry_rejected(self, world):
        app = new_user(world)
        app.enter_venue("cafe", 0)
        with pytest.raises(ProtocolStateError):
            app.enter_venue("cafe", 10)

    def test_entry_elsewhere_during_a_session_rejected(self, world):
        app = new_user(world)
        app.enter_venue("cafe", 0)
        with pytest.raises(ProtocolStateError):
            app.enter_venue("cafe2", 10)
        assert app.session.venue_id == "cafe"

    def test_leave_at_another_venue_rejected(self, world):
        app = new_user(world)
        session = app.enter_venue("cafe", 0)
        app.epoch_tick(0)
        with pytest.raises(ProtocolStateError):
            app.leave_venue(world["venues"]["gym"], L)
        assert app.session is session and not app.visits

    def test_sequential_visits_fresh_nonces(self, world):
        app = new_user(world)
        v1 = run_visit(world, app, "cafe", 0, 6)
        v2 = run_visit(world, app, "cafe", 10_000, 6)
        assert v1.nonce.value != v2.nonce.value

    def test_tick_after_leave_rejected(self, world):
        app = new_user(world)
        run_visit(world, app, "cafe", 0, 6)
        with pytest.raises(ProtocolStateError):
            app.epoch_tick(2000)

    def test_window_rollover_on_41st_epoch(self, world):
        app = new_user(world)
        app.enter_venue("cafe", 0)
        for k in range(41):
            app.epoch_tick(k * L)
        session = app.session
        assert len(session.window_keys) == 2
        assert session.records[-1].window == 2
        assert session.records[-1].epoch == 1

    def test_isolated_user_hears_nothing(self, world):
        app = new_user(world)
        visit = run_visit(world, app, "cafe", 0, 6)
        assert all(not r.heard for r in visit.records)

    def test_hearing_recorded_with_signal(self, world):
        app = new_user(world)
        app.enter_venue("cafe", 0)
        app.epoch_tick(0)
        app.hear(b"x" * 16, -47.5, 30)
        ping = app.session.records[0].heard[0]
        assert ping.ephid == b"x" * 16 and ping.signal_dbm == -47.5


class TestLeaveReceipts:
    def test_honest_receipt_verifies_and_visit_stored(self, world):
        app = new_user(world)
        visit = run_visit(world, app, "cafe", 0, 6)
        assert visit is not None
        assert visit.last_window_epochs == 6
        payload = visit.receipt.payload()
        assert crypto.verify(
            payload, visit.receipt.venue_signature,
            world["venues"]["cafe"].certificate.subject_public_key,
        )

    def test_tampering_venue_detected(self, world):
        class TamperingVenue(Venue):
            def issue_receipt(self, nonce_value, claimed_time, ephid_digest, now, arrival_time=None):
                flipped = bytes([ephid_digest[0] ^ 1]) + ephid_digest[1:]
                return super().issue_receipt(nonce_value, claimed_time, flipped, now, arrival_time)

        rng = world["rng"]
        bad_venue = TamperingVenue("cafe2", world["ha"], rng)
        app = new_user(world)
        app.enter_venue("cafe2", 0)
        app.epoch_tick(0)
        assert app.leave_venue(bad_venue, L) is None
        assert app.discarded_visits and not app.visits

    def test_forged_venue_certificate_after_good_visit_discarded(self, world):
        app = new_user(world)
        cafe = world["venues"]["cafe"]
        assert run_visit(world, app, "cafe", 0, 6) is not None
        cafe.certificate = forge_certificate(world, cafe.certificate)
        assert run_visit(world, app, "cafe", 10_000, 6) is None
        assert len(app.visits) == 1
        assert app.discarded_visits == [{"venue_id": "cafe", "t": 10_000 + 6 * L}]

    def test_flipped_signature_after_genuine_receipt_discarded(self, world):
        class FlippingVenue(Venue):
            def issue_receipt(self, *args, **kwargs):
                receipt = super().issue_receipt(*args, **kwargs)
                key = self.certificate.subject_public_key
                assert world["verifier"].verify(receipt.payload(), receipt.venue_signature, key)
                return replace(receipt, venue_signature=flip(receipt.venue_signature))

        rng = world["rng"]
        venue = FlippingVenue("cafe2", world["ha"], rng)
        app = new_user(world)
        app.enter_venue("cafe2", 0)
        app.epoch_tick(0)
        assert app.leave_venue(venue, L) is None
        assert app.discarded_visits and not app.visits

    def test_backdated_time_refused(self, world):
        venue = world["venues"]["cafe"]
        with pytest.raises(ReceiptRefused):
            venue.issue_receipt(12345, claimed_time=1000, ephid_digest=b"0" * 32, now=2000)

    def test_time_within_tolerance_accepted(self, world):
        venue = world["venues"]["cafe"]
        receipt = venue.issue_receipt(12345, claimed_time=1990, ephid_digest=b"0" * 32, now=2000)
        assert receipt.leave_time == 1990

    def test_leave_without_session_rejected(self, world):
        app = new_user(world)
        with pytest.raises(ProtocolStateError):
            app.leave_venue(world["venues"]["cafe"], 100)


class TestCertification:
    def test_honest_opening_certified(self, world):
        app = new_user(world)
        cert = app.obtain_certificate(world["tc"], 0, DAY)
        tc_cert = world["ha"].certificate_for("lab0")
        assert crypto.verify(tc_cert.payload(), tc_cert.issuer_signature, world["ha"].public_key)
        assert crypto.verify(cert.payload(), cert.signature, tc_cert.subject_public_key)

    def test_foreign_rid_without_opening_rejected(self, world):
        alice, mallory = new_user(world, "alice"), new_user(world, "mallory")
        with pytest.raises(CertificationRefused):
            world["tc"].certify_infection(
                rid_value=alice.rid.value,
                opening=mallory.rid.opening,
                observed_true_id="mallory",
                period_start=0,
                period_end=DAY,
            )

    def test_mismatched_identity_rejected(self, world):
        alice = new_user(world, "alice")
        with pytest.raises(CertificationRefused):
            world["tc"].certify_infection(
                rid_value=alice.rid.value,
                opening=alice.rid.opening,
                observed_true_id="someone-else",
                period_start=0,
                period_end=DAY,
            )


class TestReportBuilding:
    def test_period_filter(self, world):
        app = new_user(world)
        run_visit(world, app, "cafe", 0, 6)            # leave 1080, outside
        run_visit(world, app, "cafe", DAY + 100, 6)    # inside
        run_visit(world, app, "gym", DAY + 5000, 6)    # inside
        cert = app.obtain_certificate(world["tc"], DAY, 2 * DAY)
        bundles = app.build_reports(cert)
        assert len(bundles) == 2
        assert {b.leave_receipt.venue_id for b in bundles} == {"cafe", "gym"}

    def test_visit_leaving_at_period_end_reported_and_one_second_after_not(self, world):
        app = new_user(world)
        leave = run_visit(world, app, "cafe", DAY, 6).receipt.leave_time
        for period_end, reported in ((leave, 1), (leave - 1, 0)):
            cert = app.obtain_certificate(world["tc"], DAY, period_end)
            assert len(app.build_reports(cert)) == reported

    def test_bundle_reconstructs_broadcast_list(self, world):
        app = new_user(world)
        visit = run_visit(world, app, "cafe", DAY, 45)  # spans two windows
        cert = app.obtain_certificate(world["tc"], DAY, 2 * DAY)
        bundle = app.build_reports(cert)[0]
        rebuilt = []
        x = len(bundle.window_keys)
        for w, key in enumerate(bundle.window_keys, start=1):
            ids = derive_window_ephids(key, "cafe", PARAMS)
            rebuilt.extend(ids if w < x else ids[: bundle.last_window_epochs])
        assert rebuilt == [r.own_ephid for r in visit.records]


def honest_bundle(world, app=None, venue="cafe", t0=DAY, epochs=6):
    app = app or new_user(world)
    run_visit(world, app, venue, t0, epochs)
    publish_digests(world, 2 * DAY)
    cert = app.obtain_certificate(world["tc"], DAY, 2 * DAY)
    return app, app.build_reports(cert)[0]


class TestBackendReportMatrix:
    def test_honest_accepted_and_venue_notified(self, world):
        _, bundle = honest_bundle(world)
        record, code = world["backend"].process_report(bundle, 2 * DAY)
        assert code is None
        assert record.venue_id == "cafe"
        assert len(record.ephids) == 6
        assert record in world["backend"].records
        assert world["venues"]["cafe"].infection_notices

    def test_identical_bundle_twice_publishes_once(self, world):
        _, bundle = honest_bundle(world)
        backend = world["backend"]
        first, _ = backend.process_report(bundle, 2 * DAY)
        again, code = backend.process_report(bundle, 2 * DAY + 60)
        assert code is None and again is first
        assert backend.records == [first]
        assert len(world["venues"]["cafe"].infection_notices) == 1

    def test_bad_certificate(self, world):
        _, bundle = honest_bundle(world)
        rogue = crypto.keygen(world["rng"])
        forged_cert = replace(
            bundle.certificate,
            signature=crypto.sign(bundle.certificate.payload(), rogue.secret_key),
            test_center_id="rogue-lab",
        )
        bad = replace(bundle, certificate=forged_cert)
        record, code = world["backend"].process_report(bad, 2 * DAY)
        assert record is None and code == RejectionCode.BAD_CERTIFICATE
        assert not world["backend"].records

    def test_forged_test_center_certificate_after_good_report(self, world):
        _, bundle = honest_bundle(world)
        _, code = world["backend"].process_report(bundle, 2 * DAY)
        assert code is None
        registry = world["ha"].registry
        registry["lab0"] = forge_certificate(world, registry["lab0"])
        _, second = honest_bundle(world, new_user(world, "bob"), t0=DAY + 5000)
        record, code = world["backend"].process_report(second, 2 * DAY)
        assert record is None and code == RejectionCode.BAD_CERTIFICATE

    def test_forged_venue_certificate_after_good_report(self, world):
        _, bundle = honest_bundle(world)
        _, code = world["backend"].process_report(bundle, 2 * DAY)
        assert code is None
        registry = world["ha"].registry
        registry["cafe"] = forge_certificate(world, registry["cafe"])
        _, second = honest_bundle(world, new_user(world, "bob"), t0=DAY + 5000)
        record, code = world["backend"].process_report(second, 2 * DAY)
        assert record is None and code == RejectionCode.BAD_RECEIPT

    def test_flipped_receipt_signature_after_good_report(self, world):
        _, bundle = honest_bundle(world)
        _, code = world["backend"].process_report(bundle, 2 * DAY)
        assert code is None
        receipt = bundle.leave_receipt
        flipped = replace(receipt, venue_signature=flip(receipt.venue_signature))
        record, code = world["backend"].process_report(
            replace(bundle, leave_receipt=flipped), 2 * DAY
        )
        assert record is None and code == RejectionCode.BAD_RECEIPT

    def test_bad_opening(self, world):
        _, bundle = honest_bundle(world)
        bad_reveal = replace(bundle.nonce_reveal, blinding=bundle.nonce_reveal.blinding + 1)
        bad = replace(bundle, nonce_reveal=bad_reveal)
        record, code = world["backend"].process_report(bad, 2 * DAY)
        assert record is None and code == RejectionCode.BAD_OPENING

    @pytest.mark.parametrize("field,value", [
        ("window_keys", lambda n: []),
        ("last_window_epochs", lambda n: 0),
        ("last_window_epochs", lambda n: n + 1),
    ], ids=["no-windows", "no-epochs", "epochs-past-window"])
    def test_malformed_window_counts_rejected(self, world, field, value):
        _, bundle = honest_bundle(world)
        backend = world["backend"]
        bad = replace(bundle, **{field: value(backend.params.ids_per_window)})
        record, code = backend.process_report(bad, 2 * DAY)
        assert record is None and code == RejectionCode.BAD_RECEIPT
        assert backend.rejections[-1]["detail"] == "malformed window/epoch counts"

    def test_bad_receipt_keys_from_other_venue(self, world):
        app = new_user(world)
        run_visit(world, app, "cafe", DAY, 6)
        run_visit(world, app, "gym", DAY + 5000, 6)
        publish_digests(world, 2 * DAY)
        cert = app.obtain_certificate(world["tc"], DAY, 2 * DAY)
        cafe_bundle, gym_bundle = app.build_reports(cert)
        mixed = replace(cafe_bundle, window_keys=gym_bundle.window_keys)  # venue binding broken
        record, code = world["backend"].process_report(mixed, 2 * DAY)
        assert record is None and code == RejectionCode.BAD_RECEIPT

    def test_unmatched_identifiers_when_never_broadcast(self, world):
        app = new_user(world)
        run_visit(world, app, "cafe", DAY, 6, broadcast=False)  # radio suppressed
        publish_digests(world, 2 * DAY)
        cert = app.obtain_certificate(world["tc"], DAY, 2 * DAY)
        bundle = app.build_reports(cert)[0]
        record, code = world["backend"].process_report(bundle, 2 * DAY)
        assert record is None and code == RejectionCode.UNMATCHED_IDENTIFIERS

    def test_identifiers_heard_only_in_an_earlier_period_unmatched(self, world):
        # the venue heard the identifiers on day 1, but the receipt proves a
        # stay on day 3: only day 3's digest may vouch for them
        app = new_user(world)
        visit = run_visit(world, app, "cafe", 3 * DAY, 6, broadcast=False)
        for record in visit.records:
            world["venues"]["cafe"].record_broadcast(record.own_ephid, -40.0, DAY + 60)
        publish_digests(world, 2 * DAY)
        publish_digests(world, 4 * DAY)
        cert = app.obtain_certificate(world["tc"], DAY, 4 * DAY)
        bundle = app.build_reports(cert)[0]
        record, code = world["backend"].process_report(bundle, 4 * DAY)
        assert record is None and code == RejectionCode.UNMATCHED_IDENTIFIERS

    def test_unmatched_identifiers_without_any_digest(self, world):
        app, bundle = honest_bundle(world)
        world["ha"].digests.clear()
        record, code = world["backend"].process_report(bundle, 2 * DAY)
        assert record is None and code == RejectionCode.UNMATCHED_IDENTIFIERS

    def test_overlapping_presence_rejected(self, world):
        alice = new_user(world, "alice")
        mallory = new_user(world, "mallory")
        mallory.rid = alice.rid  # credential sharing collusion
        run_visit(world, alice, "cafe", DAY, 6)
        run_visit(world, mallory, "gym", DAY + 2 * L, 6)  # overlaps alice's stay
        publish_digests(world, 2 * DAY)
        cert = alice.obtain_certificate(world["tc"], DAY, 2 * DAY)
        b1 = alice.build_reports(cert)[0]
        b2 = mallory.build_reports(cert)[0]
        record, code = world["backend"].process_report(b1, 2 * DAY)
        assert code is None
        record, code = world["backend"].process_report(b2, 2 * DAY)
        assert record is None and code == RejectionCode.OVERLAPPING_PRESENCE

    @pytest.mark.parametrize("offset,code", [(0, None), (-1, RejectionCode.OVERLAPPING_PRESENCE)])
    def test_stay_beginning_as_another_ends_accepted_and_one_second_earlier_not(self, world, offset, code):
        alice = new_user(world, "alice")
        mallory = new_user(world, "mallory")
        mallory.rid = alice.rid
        run_visit(world, alice, "cafe", DAY, 6)  # present [DAY, DAY + 6L]
        run_visit(world, mallory, "gym", DAY + 6 * L + offset, 6)
        publish_digests(world, 2 * DAY)
        cert = alice.obtain_certificate(world["tc"], DAY, 2 * DAY)
        _, first = world["backend"].process_report(alice.build_reports(cert)[0], 2 * DAY)
        _, second = world["backend"].process_report(mallory.build_reports(cert)[0], 2 * DAY)
        assert (first, second) == (None, code)

    def test_disjoint_times_from_same_rid_accepted(self, world):
        app = new_user(world)
        run_visit(world, app, "cafe", DAY, 6)
        run_visit(world, app, "gym", DAY + 40_000, 6)
        publish_digests(world, 2 * DAY)
        cert = app.obtain_certificate(world["tc"], DAY, 2 * DAY)
        for bundle in app.build_reports(cert):
            _, code = world["backend"].process_report(bundle, 2 * DAY)
            assert code is None

    def test_nonce_mismatch_with_receipt_rejected(self, world):
        # the reveal opens another commitment to the same rid, not the
        # receipt's nonce
        app, bundle = honest_bundle(world)
        other = crypto.commit(app.rid.value_bytes(), world["rng"])
        bad = replace(bundle, nonce_reveal=other.opening)
        record, code = world["backend"].process_report(bad, 2 * DAY)
        assert record is None and code == RejectionCode.BAD_OPENING


class TestTraceQueries:
    def _accepted_record(self, world):
        reporter, bundle = honest_bundle(world)
        record, code = world["backend"].process_report(bundle, 2 * DAY)
        assert code is None
        return reporter, record

    def test_same_day_visit_served(self, world):
        _, record = self._accepted_record(world)
        visitor = new_user(world, "bob")
        visit = run_visit(world, visitor, "cafe", DAY + 3000, 6)
        lists = world["backend"].answer_trace(visit.receipt, 2 * DAY)
        assert lists == [record.ephids]

    def test_next_day_visit_empty_under_same_day_policy(self, world):
        self._accepted_record(world)
        visitor = new_user(world, "bob")
        visit = run_visit(world, visitor, "cafe", 2 * DAY + 3000, 6)
        lists = world["backend"].answer_trace(visit.receipt, 3 * DAY)
        assert lists == []

    def test_within_hours_policy(self, world):
        world["backend"].venues["cafe"].policy = VenuePolicy(
            time_condition="within_hours", within_hours=2
        )
        _, record = self._accepted_record(world)
        visitor = new_user(world, "bob")
        near = run_visit(world, visitor, "cafe", DAY + 3000, 6)
        far = run_visit(world, visitor, "cafe", DAY + 30_000, 6)
        assert world["backend"].answer_trace(near.receipt, 2 * DAY)
        assert not world["backend"].answer_trace(far.receipt, 2 * DAY)

    def test_within_hours_edge_served_and_one_second_past_it_not(self, world):
        world["backend"].venues["cafe"].policy = VenuePolicy(
            time_condition="within_hours", within_hours=2
        )
        _, record = self._accepted_record(world)
        edge = record.leave_time + 2 * 3600
        for name, leave, served in (("bob", edge, [record.ephids]), ("carol", edge + 1, [])):
            visit = run_visit(world, new_user(world, name), "cafe", leave - 6 * L, 6)
            assert visit.receipt.leave_time == leave
            assert world["backend"].answer_trace(visit.receipt, 2 * DAY) == served

    def test_record_served_through_retention_and_dropped_one_second_past(self, world):
        _, record = self._accepted_record(world)
        visit = run_visit(world, new_user(world, "bob"), "cafe", DAY + 3000, 6)
        edge = record.leave_time + world["backend"].retention_seconds
        assert world["backend"].answer_trace(visit.receipt, edge) == [record.ephids]
        assert world["backend"].answer_trace(visit.receipt, edge + 1) == []

    def test_forged_venue_certificate_after_good_query(self, world):
        self._accepted_record(world)
        visitor = new_user(world, "bob")
        visit = run_visit(world, visitor, "cafe", DAY + 3000, 6)
        assert world["backend"].answer_trace(visit.receipt, 2 * DAY)
        registry = world["ha"].registry
        registry["cafe"] = forge_certificate(world, registry["cafe"])
        with pytest.raises(QueryRejected):
            world["backend"].answer_trace(visit.receipt, 2 * DAY)

    def test_flipped_signature_after_good_query_rejected(self, world):
        self._accepted_record(world)
        visit = run_visit(world, new_user(world, "bob"), "cafe", DAY + 3000, 6)
        assert world["backend"].answer_trace(visit.receipt, 2 * DAY)
        flipped = replace(visit.receipt, venue_signature=flip(visit.receipt.venue_signature))
        with pytest.raises(QueryRejected):
            world["backend"].answer_trace(flipped, 2 * DAY)

    def test_self_signed_receipt_rejected(self, world):
        self._accepted_record(world)
        visitor = new_user(world, "bob")
        visit = run_visit(world, visitor, "cafe", DAY + 3000, 6)
        forged_key = crypto.keygen(world["rng"])  # not HA-certified
        receipt = visit.receipt
        forged = replace(
            receipt, venue_signature=crypto.sign(receipt.payload(), forged_key.secret_key)
        )
        with pytest.raises(QueryRejected):
            world["backend"].answer_trace(forged, 2 * DAY)

    def test_receipt_for_other_venue_rejected(self, world):
        self._accepted_record(world)
        visitor = new_user(world, "bob")
        visit = run_visit(world, visitor, "cafe", DAY + 3000, 6)
        cross = replace(visit.receipt, venue_id="gym")  # cafe receipt against gym records
        with pytest.raises(QueryRejected):
            world["backend"].answer_trace(cross, 2 * DAY)

    def test_uncertified_venue_rejected(self, world):
        visitor = new_user(world, "bob")
        visit = run_visit(world, visitor, "cafe", DAY + 3000, 6)
        rogue = replace(visit.receipt, venue_id="pop-up")  # never certified by HA
        with pytest.raises(QueryRejected):
            world["backend"].answer_trace(rogue, 2 * DAY)


class TestRiskEvaluation:
    def _visit_with_matches(self, world, matched_epochs, signal_dbm):
        app = new_user(world)
        infected_ids = [bytes([i]) * 16 for i in range(10)]
        app.enter_venue("cafe", 0)
        for k in range(8):
            app.epoch_tick(k * L)
            if k < matched_epochs:
                app.hear(infected_ids[k], signal_dbm, k * L + 5)
        visit = app.leave_venue(world["venues"]["cafe"], 8 * L)
        return app, visit, tuple(infected_ids)

    def test_six_close_epochs_at_risk(self, world):
        app, visit, ids = self._visit_with_matches(world, 6, -46.0)
        policy = RiskPolicy(exposure_seconds=900, proximity_threshold_dbm=-46.02)
        (assessment,) = app.evaluate_risk(visit, [ids], policy)
        assert assessment.matched_epochs == 6
        assert assessment.exposure_seconds == 1080
        assert assessment.at_risk

    def test_two_epochs_below_duration_threshold(self, world):
        app, visit, ids = self._visit_with_matches(world, 2, -46.0)
        policy = RiskPolicy(exposure_seconds=900, proximity_threshold_dbm=-46.02)
        (assessment,) = app.evaluate_risk(visit, [ids], policy)
        assert assessment.matched_epochs == 2 and not assessment.at_risk

    def test_far_signal_below_threshold_not_at_risk(self, world):
        app, visit, ids = self._visit_with_matches(world, 6, -60.0)
        policy = RiskPolicy(exposure_seconds=900, proximity_threshold_dbm=-46.02)
        (assessment,) = app.evaluate_risk(visit, [ids], policy)
        assert assessment.matched_epochs == 0 and not assessment.at_risk


class TestVenueMonitoring:
    def test_retention_eviction(self, world):
        venue = world["venues"]["cafe"]
        old_id, new_id = b"o" * 16, b"n" * 16
        now = 20 * DAY
        venue.record_broadcast(old_id, -40.0, now - 15 * DAY)
        venue.record_broadcast(new_id, -40.0, now - 3600)
        digest_today = venue.emit_digest(now - DAY, now, now, 1e-6)
        assert digest_today.filter.contains_many([new_id, old_id]) == [True, False]
        # the 15-day-old identifier was evicted from the heard log entirely
        assert all(e[0] != old_id for e in venue.heard_log)

    def test_match_evicts_digests_past_retention(self, world):
        # a venue that stops uploading: only match can evict its digests
        ha = world["ha"]
        heard = b"h" * 16
        cafe = world["venues"]["cafe"]
        cafe.record_broadcast(heard, -40.0, DAY + 60)
        ha.store_digest(cafe.emit_digest(DAY, 2 * DAY, 2 * DAY, 1e-6), 2 * DAY)
        boundary = 2 * DAY + ha.retention_seconds
        stay = (DAY + 60, DAY + 60 + L)
        assert ha.match("cafe", [heard], stay, boundary) == [True]
        assert len(ha.digests["cafe"]) == 1
        with pytest.raises(UnknownVenuePeriodError):
            ha.match("cafe", [heard], stay, boundary + 1)
        assert ha.digests["cafe"] == []

    def test_heard_entry_kept_through_retention_and_evicted_one_second_past(self, world):
        venue = world["venues"]["cafe"]
        venue.record_broadcast(b"h" * 16, -40.0, DAY)
        edge = DAY + venue.retention_seconds
        venue.emit_digest(edge - DAY, edge, edge, 1e-6)
        assert venue.heard_log == [(b"h" * 16, DAY)]
        venue.emit_digest(edge + 1 - DAY, edge + 1, edge + 1, 1e-6)
        assert venue.heard_log == []

    def test_digest_ending_as_the_stay_begins_not_matched(self, world):
        ha, heard = world["ha"], b"h" * 16
        cafe = world["venues"]["cafe"]
        cafe.record_broadcast(heard, -40.0, DAY + 60)
        ha.store_digest(cafe.emit_digest(DAY, 2 * DAY, 2 * DAY, 1e-6), 2 * DAY)
        assert ha.match("cafe", [heard], (2 * DAY - 1, 2 * DAY + L), 2 * DAY) == [True]
        with pytest.raises(UnknownVenuePeriodError):
            ha.match("cafe", [heard], (2 * DAY, 2 * DAY + L), 2 * DAY)

    def test_flood_rate_anomaly(self, world):
        rng = world["rng"]
        venue = Venue("club", world["ha"], rng, VenuePolicy(max_broadcasts_per_minute=30))
        for i in range(40):
            venue.record_broadcast(rng.randbytes(16), -40.0, 1000 + i)
        kinds = {a["kind"] for a in venue.anomalies}
        assert "broadcast_flood" in kinds

    def test_signal_strength_anomaly(self, world):
        venue = world["venues"]["cafe"]
        venue.record_broadcast(b"s" * 16, -10.0, 50)  # way above the -35 cap
        assert any(a["kind"] == "signal_too_strong" for a in venue.anomalies)

    def test_honest_rates_raise_nothing(self, world):
        rng = world["rng"]
        venue = Venue("calm", world["ha"], rng, VenuePolicy(max_broadcasts_per_minute=30))
        for i in range(10):
            venue.record_broadcast(rng.randbytes(16), -40.0, 1000 + i * 60)
        assert venue.anomalies == []


class TestCapabilityLogs:
    def test_backend_never_sees_true_ids(self, world):
        app, bundle = honest_bundle(world)
        world["backend"].process_report(bundle, 2 * DAY)
        for entry in world["backend"].observed:
            assert app.true_id not in str(entry.values())

    def test_venue_sees_nonce_not_rid(self, world):
        app = new_user(world)
        run_visit(world, app, "cafe", 0, 6)
        entries, rid = world["venues"]["cafe"].observed, app.rid.value_bytes()
        assert entries and all(rid not in entry.values() for entry in entries)

    def test_test_center_sees_true_id(self, world):
        app = new_user(world)
        app.obtain_certificate(world["tc"], 0, DAY)
        assert any(e.get("true_id") == app.true_id for e in world["tc"].observed)


def test_signature_memo_lives_for_one_run(monkeypatch):
    # a memo that outlived its run would verify the second run's signatures
    # (the same seed signs the same bytes) without computing any
    verify, triples = crypto.verify, []

    def counted(*args):
        triples.append(args)
        return verify(*args)

    monkeypatch.setattr(crypto, "verify", counted)
    per_run = []
    for _ in range(2):
        triples.clear()
        run(bundled("population_small"), "venue", seed=1)
        per_run.append((len(triples), len(set(triples))))
    assert per_run[0] == per_run[1]
    calls, distinct = per_run[0]
    assert calls == distinct > 0
