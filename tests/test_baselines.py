import random

from venuetrace import baselines
from venuetrace.actors import RiskPolicy
from venuetrace.baselines import (
    Dp3tBackend,
    Dp3tUserApp,
    MoHServer,
    TTUserApp,
    dp3t_match,
)
from venuetrace.messages import HeardPing
from venuetrace.schedule import DailyKey, dp3t_derive_ephids, dp3t_next_daily_key

DAY = 86400


class TestTraceTogether:
    def test_tid_round_trip(self):
        rng = random.Random(0)
        moh = MoHServer(rng)
        pseudonym = moh.register("555-0001")
        tid = moh.issue_tid(pseudonym, 7)
        assert moh.decrypt_tid(tid) == (pseudonym, 7)

    def test_tids_unlinkable_across_intervals(self):
        rng = random.Random(1)
        moh = MoHServer(rng)
        pseudonym = moh.register("555-0001")
        seen = set()
        for x in range(10_000):
            seen.add(moh.issue_tid(pseudonym, x))
        assert len(seen) == 10_000

    def test_tampered_tid_fails_decryption(self):
        rng = random.Random(2)
        moh = MoHServer(rng)
        pseudonym = moh.register("555-0001")
        ct = bytearray(moh.issue_tid(pseudonym, 0))
        ct[-1] ^= 1
        assert moh.decrypt_tid(bytes(ct)) is None
        assert moh.decrypt_tid(b"short") is None

    def test_trace_returns_co_present_contact(self):
        rng = random.Random(3)
        moh = MoHServer(rng)
        alice = TTUserApp("555-alice", moh)
        bob = TTUserApp("555-bob", moh)
        alice.tid = moh.issue_tid(alice.pseudonym, 0)
        bob.tid = moh.issue_tid(bob.pseudonym, 0)
        alice.hear(bob.tid, -45.0, 0)
        bob.hear(alice.tid, -45.0, 0)
        assert moh.trace("555-alice", alice.heard) == ["555-bob"]

    def test_forged_triple_skipped(self):
        rng = random.Random(4)
        moh = MoHServer(rng)
        alice = TTUserApp("555-alice", moh)
        alice.tid = moh.issue_tid(alice.pseudonym, 0)
        forged = HeardPing(ephid=rng.randbytes(44), signal_dbm=-40.0, time=0)
        assert moh.trace("555-alice", [forged]) == []

    def test_moh_learns_reporter_contact_graph(self):
        rng = random.Random(5)
        moh = MoHServer(rng)
        apps = {n: TTUserApp(f"555-{n}", moh) for n in ("a", "b", "c")}
        for app in apps.values():
            app.tid = moh.issue_tid(app.pseudonym, 0)
        apps["a"].hear(apps["b"].tid, -45.0, 0)
        apps["a"].hear(apps["c"].tid, -45.0, 0)
        moh.trace("555-a", apps["a"].heard)
        assert set(moh.traced_edges) == {("555-a", "555-b"), ("555-a", "555-c")}


class TestDp3t:
    def test_broadcast_order_is_permutation_of_day_set(self):
        rng = random.Random(6)
        app = Dp3tUserApp(rng, epochs_per_day=96)
        day_ids = {app.payload(e * 900) for e in range(96)}
        expected = set(dp3t_derive_ephids(app.daily_keys[0], 96))
        assert day_ids == expected

    def test_published_key_reveals_following_days(self):
        rng = random.Random(7)
        app = Dp3tUserApp(rng, epochs_per_day=96)
        for day in (1, 2, 3):
            app.start_day(day)
        backend = Dp3tBackend()
        app.report(backend, first_infectious_day=1, current_day=3)
        pub = backend.published[0]
        (sets,) = backend.day_sets(through_day=3)
        # hash-chain forward derivation: day-2 ids follow from the day-1 key
        k1 = DailyKey(key=pub.key, day_index=1)
        k2 = dp3t_next_daily_key(k1)
        assert sets[2] == set(dp3t_derive_ephids(k2, 96))

    def test_rotation_unlinks_future_days(self):
        rng = random.Random(8)
        app = Dp3tUserApp(rng, epochs_per_day=96)
        app.start_day(1)
        backend = Dp3tBackend()
        old_key_day1 = app.key_for_day(1).key
        app.report(backend, first_infectious_day=0, current_day=1)
        fresh = app.key_for_day(1).key
        assert fresh != old_key_day1
        # identifiers broadcast after rotation are outside the published chain
        (sets,) = backend.day_sets(through_day=1)
        post = {app.payload(e * 900) for e in range(96)}
        assert not post & sets[1]

    def test_match_counts_and_leak_flag(self):
        rng = random.Random(9)
        alice = Dp3tUserApp(rng, epochs_per_day=96)
        bob = Dp3tUserApp(rng, epochs_per_day=96)
        for e in range(3):
            bob.hear(alice.payload(e * 900), -45.0, e * 900)
        bob.hear(alice.payload(3 * 900), -70.0, 3 * 900)  # too far
        backend = Dp3tBackend()
        alice.report(backend, first_infectious_day=0, current_day=0)
        (result,) = dp3t_match(
            bob, backend, through_day=0,
            policy=RiskPolicy(exposure_seconds=900, proximity_threshold_dbm=-46.0),
        )
        assert result.matched_epochs == 3
        assert result.at_risk
        assert result.leak

    def test_no_match_when_nothing_heard(self):
        rng = random.Random(10)
        alice = Dp3tUserApp(rng, epochs_per_day=96)
        bob = Dp3tUserApp(rng, epochs_per_day=96)
        backend = Dp3tBackend()
        alice.report(backend, 0, 0)
        (result,) = dp3t_match(bob, backend, through_day=0, policy=RiskPolicy())
        assert not result.leak and not result.at_risk

    def test_backend_expands_each_published_day_once(self, monkeypatch):
        rng = random.Random(11)
        alice = Dp3tUserApp(rng, epochs_per_day=96)
        for day in (1, 2):
            alice.start_day(day)
        backend = Dp3tBackend()
        day1 = alice.key_for_day(1)
        alice.report(backend, first_infectious_day=1, current_day=2)
        bob = Dp3tUserApp(rng, epochs_per_day=96)
        derived = []
        monkeypatch.setattr(
            baselines, "dp3t_derive_ephids",
            lambda key, n: derived.append(key.day_index) or dp3t_derive_ephids(key, n),
        )
        for through_day in (1, 2, 2, 3):
            dp3t_match(bob, backend, through_day, RiskPolicy())
        assert derived == [1, 2, 3]
        (sets,) = backend.day_sets(3)
        # reference: walk alice's chain from her day-1 key, without the board
        expected, key = {}, day1
        while key.day_index <= 3:
            expected[key.day_index] = set(dp3t_derive_ephids(key, 96))
            key = dp3t_next_daily_key(key)
        assert sets == expected

    def test_match_ignores_days_after_through_day(self):
        rng = random.Random(12)
        alice = Dp3tUserApp(rng, epochs_per_day=96)
        bob = Dp3tUserApp(rng, epochs_per_day=96)
        alice.start_day(1)
        bob.hear(alice.payload(DAY), -45.0, DAY)
        backend = Dp3tBackend()
        alice.report(backend, first_infectious_day=0, current_day=1)
        (later,) = dp3t_match(bob, backend, through_day=1, policy=RiskPolicy())
        # day 1 is expanded by now
        (earlier,) = dp3t_match(bob, backend, through_day=0, policy=RiskPolicy())
        assert later.leak and not earlier.leak

    def test_same_epoch_of_day_on_two_days_counts_twice(self):
        rng = random.Random(13)
        alice = Dp3tUserApp(rng, epochs_per_day=96)
        bob = Dp3tUserApp(rng, epochs_per_day=96)
        bob.hear(alice.payload(5 * 900), -45.0, 5 * 900)
        alice.start_day(1)
        bob.hear(alice.payload(DAY + 5 * 900), -45.0, DAY + 5 * 900)
        backend = Dp3tBackend()
        alice.report(backend, first_infectious_day=0, current_day=1)
        (result,) = dp3t_match(bob, backend, through_day=1, policy=RiskPolicy())
        # a slot keyed by time of day alone would merge the two epochs
        assert result.matched_epochs == 2
