import hashlib
import math
import random

import pytest

from venuetrace.bloom import (
    BloomFilter,
    UnknownVenuePeriodError,
    VenueBloomDigest,
    build_filter,
    match_batch,
)
from venuetrace.crypto import ParameterError


def _random_ids(rng, n):
    return [rng.randbytes(16) for _ in range(n)]


def _reference_positions(element, k, m):
    """Double hashing one element at a time: (h1 + i*h2) mod 2**64 mod m, with
    h1, h2 the first two big-endian words of SHA-256(element), h2 made odd."""
    d = hashlib.sha256(element).digest()
    h1 = int.from_bytes(d[0:8], "big")
    h2 = int.from_bytes(d[8:16], "big") | 1
    return [(h1 + i * h2) % 2**64 % m for i in range(k)]


class TestBloomFilter:
    def test_no_false_negatives_exhaustive(self):
        rng = random.Random(0)
        ids = _random_ids(rng, 5000)
        bf = build_filter(ids, target_fpr=1e-3)
        assert all(bf.contains_many([i]) == [True] for i in ids)
        assert bf.contains_many(ids) == [True] * len(ids)

    def test_fpr_close_to_target_small_capacity(self):
        # capacity 1e3 over 10 seeds; the 1e5 case runs in the acceptance suite
        for seed in range(10):
            rng = random.Random(seed)
            inserted = _random_ids(rng, 1000)
            bf = build_filter(inserted, target_fpr=1e-3)
            probes = _random_ids(rng, 50_000)
            hits = sum(bf.contains_many(probes))
            assert hits / len(probes) <= 2e-3

    def test_empty_filter_rejects_everything(self):
        bf = build_filter([], target_fpr=1e-4)
        rng = random.Random(2)
        assert not any(bf.contains_many(_random_ids(rng, 1000)))
        assert bf.count == 0

    def test_absent_then_inserted_flips(self):
        bf = BloomFilter(n_target=10, target_fpr=1e-4)
        x = b"0123456789abcdef"
        assert bf.contains_many([x]) == [False]
        bf.add_many([x])
        assert bf.contains_many([x]) == [True]

    def test_sizing_formula(self):
        bf = BloomFilter(n_target=1000, target_fpr=1e-4)
        expected_m = math.ceil(-1000 * math.log(1e-4) / math.log(2) ** 2)
        assert bf.m_bits == expected_m
        assert bf.k_hashes == max(1, round(bf.m_bits / 1000 * math.log(2)))
        assert bf.k_hashes >= 1

    def test_bits_match_per_element_reference(self):
        rng = random.Random(8)
        for n in (1, 2, 17, 300, 2000):
            ids = _random_ids(rng, n)
            ids += ids[:1] * 3  # duplicates count once
            bf = build_filter(ids, target_fpr=rng.choice([1e-2, 1e-4, 1e-6]))
            ref = bytearray(len(bf.bits))
            for e in ids:
                for pos in _reference_positions(e, bf.k_hashes, bf.m_bits):
                    ref[pos >> 3] |= 1 << (pos & 7)
            assert bf.bits.tobytes() == bytes(ref)
            assert bf.count == n
            probes = ids[:20] + _random_ids(rng, 200)
            assert bf.contains_many(probes) == [
                all(ref[pos >> 3] >> (pos & 7) & 1
                    for pos in _reference_positions(e, bf.k_hashes, bf.m_bits))
                for e in probes
            ]

    def test_invalid_fpr_rejected(self):
        with pytest.raises(ParameterError):
            BloomFilter(n_target=10, target_fpr=0.0)
        with pytest.raises(ParameterError):
            BloomFilter(n_target=10, target_fpr=1.0)


class TestMatchBatch:
    def test_honest_path_all_true(self):
        rng = random.Random(5)
        ids = _random_ids(rng, 200)
        store = {
            "v0": [VenueBloomDigest("v0", 0, 86400, build_filter(ids, 1e-6))]
        }
        assert match_batch(store, "v0", ids) == [True] * len(ids)

    def test_foreign_ids_false(self):
        rng = random.Random(6)
        heard = _random_ids(rng, 200)
        foreign = _random_ids(rng, 50)
        store = {"v0": [VenueBloomDigest("v0", 0, 86400, build_filter(heard, 1e-6))]}
        result = match_batch(store, "v0", heard[:3] + foreign)
        assert result[:3] == [True, True, True]
        assert not any(result[3:])

    def test_unknown_venue_raises(self):
        with pytest.raises(UnknownVenuePeriodError):
            match_batch({}, "nowhere", [b"0123456789abcdef"])

    def test_match_across_multiple_periods(self):
        rng = random.Random(7)
        day1 = _random_ids(rng, 50)
        day2 = _random_ids(rng, 50)
        store = {
            "v0": [
                VenueBloomDigest("v0", 0, 86400, build_filter(day1, 1e-6)),
                VenueBloomDigest("v0", 86400, 172800, build_filter(day2, 1e-6)),
            ]
        }
        assert all(match_batch(store, "v0", day1 + day2))

    def test_digest_periods_disjoint_contiguous(self):
        # the venue driver emits daily digests; periods must tile the timeline
        store = [
            VenueBloomDigest("v0", d * 86400, (d + 1) * 86400, build_filter([], 1e-6))
            for d in range(5)
        ]
        for a, b in zip(store, store[1:]):
            assert a.period_end == b.period_start
