import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from venuetrace.crypto import ParameterError, hash_bytes
from venuetrace.schedule import (
    DailyKey,
    SchedulingParams,
    derive_window_ephids,
    dp3t_derive_ephids,
    dp3t_next_daily_key,
    epoch_of,
    venue_label,
)

PARAMS = SchedulingParams()  # L=180s, W=7200s


def test_default_params():
    assert PARAMS.epoch_seconds == 180
    assert PARAMS.window_seconds == 7200
    assert PARAMS.ids_per_window == 40


def test_invalid_params_rejected():
    with pytest.raises(ParameterError):
        SchedulingParams(epoch_seconds=0)
    with pytest.raises(ParameterError):
        SchedulingParams(epoch_seconds=180, window_seconds=7000)


class TestEpochOf:
    def test_entry_instant(self):
        assert epoch_of(0, PARAMS) == (1, 1)

    def test_half_open_epoch_boundary(self):
        assert epoch_of(179, PARAMS) == (1, 1)
        assert epoch_of(180, PARAMS) == (1, 2)

    def test_window_rollover(self):
        assert epoch_of(7199, PARAMS) == (1, 40)
        assert epoch_of(7200, PARAMS) == (2, 1)

    def test_negative_time_rejected(self):
        with pytest.raises(ParameterError):
            epoch_of(-1, PARAMS)

    @given(st.integers(min_value=0, max_value=10 * 7200))
    @settings(max_examples=200)
    def test_total_and_in_range(self, t):
        w, e = epoch_of(t, PARAMS)
        assert w >= 1 and 1 <= e <= PARAMS.ids_per_window

    def test_monotone_and_surjective_over_consecutive_pairs(self):
        seen = []
        prev = None
        for t in range(0, 3 * 7200, 180):
            pair = epoch_of(t, PARAMS)
            if prev is not None:
                assert pair > prev  # lexicographic monotonicity
            prev = pair
            seen.append(pair)
        expected = [(w, e) for w in (1, 2, 3) for e in range(1, 41)]
        assert seen == expected


class TestWindowDerivation:
    def test_count_matches_params(self):
        key = random.Random(0).randbytes(32)
        ids = derive_window_ephids(key, "v0", PARAMS)
        assert len(ids) == 40
        assert all(len(i) == 16 for i in ids)

    def test_venue_binding_disjoint(self):
        # 1250 trials x 40 ids x 2 venues: 1e5 sampled identifiers, no overlap
        rng = random.Random(1)
        for _ in range(1250):
            key = rng.randbytes(32)
            ids_a = derive_window_ephids(key, "A", PARAMS)
            ids_b = derive_window_ephids(key, "B", PARAMS)
            assert not set(ids_a) & set(ids_b)

    def test_reported_key_reproduces_broadcast_list(self):
        key = random.Random(2).randbytes(32)
        first = derive_window_ephids(key, "cafe", PARAMS)
        # back-end side: reconstruct from the raw key bytes and venue id
        again = derive_window_ephids(key, "cafe", PARAMS)
        assert first == again

    def test_label_construction(self):
        assert venue_label("v9") == b"broadcast key||v9"


class TestDp3tChain:
    def test_chain_is_iterated_hash(self):
        k0 = DailyKey(key=hash_bytes(b"seed"), day_index=0)
        k2 = dp3t_next_daily_key(dp3t_next_daily_key(k0))
        assert k2.key == hash_bytes(hash_bytes(k0.key))
        assert k2.day_index == 2

    def test_day_index_strictly_increases(self):
        k = DailyKey(key=bytes(32), day_index=0)
        for _ in range(5):
            nxt = dp3t_next_daily_key(k)
            assert nxt.day_index == k.day_index + 1
            k = nxt

    def test_fourteen_day_chain_distinct(self):
        rng = random.Random(3)
        for _ in range(200):
            k = DailyKey(key=rng.randbytes(32), day_index=0)
            keys = {k.key}
            for _ in range(13):
                k = dp3t_next_daily_key(k)
                keys.add(k.key)
            assert len(keys) == 14

    def test_daily_derivation_shape(self):
        k = DailyKey(key=hash_bytes(b"k"), day_index=3)
        ids = dp3t_derive_ephids(k, 96)
        assert len(ids) == 96
        assert all(len(i) == 16 for i in ids)
        assert dp3t_derive_ephids(k, 96) == ids

    def test_venue_bound_and_daily_derivations_disjoint(self):
        rng = random.Random(4)
        for _ in range(500):
            key = rng.randbytes(32)
            daily = set(dp3t_derive_ephids(DailyKey(key, 0), 40))
            bound = set(derive_window_ephids(key, "v", PARAMS))
            assert not daily & bound
