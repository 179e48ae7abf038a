import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from venuetrace import crypto
from venuetrace.crypto import (
    Certificate,
    ParameterError,
    commit,
    hash_bytes,
    issue_certificate,
    keygen,
    lp_decode,
    lp_encode,
    prf,
    prg_expand,
    sign,
    verify,
    verify_opening,
)

from oracles import hmac_sha256_reference, sha256_reference

# computed with the independent FIPS 180-4 oracle in oracles.py
EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
# hmac_sha256_reference(bytes(range(32)), b"broadcast key||venue-A")
PRF_VECTOR = "80051ccce29ac9fd1edca52fcd9c54fd9887d6887b40d5f54b9fbf8bc4cc73f7"


class TestHash:
    def test_deterministic(self):
        assert hash_bytes(b"x") == hash_bytes(b"x")

    def test_empty_input_vector(self):
        assert hash_bytes(b"") == sha256_reference(b"")
        assert hash_bytes(b"").hex() == EMPTY_SHA256

    def test_matches_reference_on_random_inputs(self):
        rng = random.Random(1)
        for _ in range(200):
            m = rng.randbytes(rng.randrange(0, 200))
            assert hash_bytes(m) == sha256_reference(m)

    def test_no_collisions_under_extension(self):
        rng = random.Random(2)
        for _ in range(10_000):
            m = rng.randbytes(24)
            assert hash_bytes(m) != hash_bytes(m + b"\x00")

    def test_length(self):
        assert len(hash_bytes(b"abc")) == 32


class TestPrf:
    def test_deterministic(self):
        k = bytes(16)
        assert prf(k, b"L") == prf(k, b"L")

    def test_frozen_vector(self):
        assert prf(bytes(range(32)), b"broadcast key||venue-A").hex() == PRF_VECTOR

    def test_matches_reference(self):
        rng = random.Random(3)
        for _ in range(200):
            k = rng.randbytes(32)
            label = rng.randbytes(rng.randrange(1, 40))
            assert prf(k, label) == hmac_sha256_reference(k, label)

    def test_distinct_venue_labels(self):
        rng = random.Random(4)
        for _ in range(1000):
            k = rng.randbytes(32)
            assert prf(k, b"broadcast key||venueA") != prf(k, b"broadcast key||venueB")

    def test_short_key_rejected(self):
        with pytest.raises(ParameterError):
            prf(b"short", b"L")


class TestPrg:
    def test_count_and_length(self):
        ids = prg_expand(bytes(32), 40)
        assert len(ids) == 40
        assert all(len(i) == 16 for i in ids)

    def test_prefix_stability(self):
        seed = hash_bytes(b"seed")
        assert prg_expand(seed, 1) == prg_expand(seed, 2)[:1]
        assert prg_expand(seed, 39) == prg_expand(seed, 40)[:39]

    def test_all_distinct_across_seeds(self):
        rng = random.Random(5)
        for _ in range(1000):
            ids = prg_expand(rng.randbytes(32), 40)
            assert len(set(ids)) == 40

    def test_zero_count_rejected(self):
        with pytest.raises(ParameterError):
            prg_expand(bytes(32), 0)

    @given(st.binary(min_size=32, max_size=32), st.integers(min_value=1, max_value=64))
    @settings(max_examples=50)
    def test_deterministic_property(self, seed, count):
        assert prg_expand(seed, count) == prg_expand(seed, count)


class TestCommitment:
    def test_round_trip(self):
        c = commit(b"message", random.Random(6))
        assert verify_opening(c.value, c.opening.message, c.opening.blinding)

    def test_hiding_randomized(self):
        rng = random.Random(7)
        assert commit(b"m", rng).value != commit(b"m", rng).value

    def test_wrong_message_rejected(self):
        rng = random.Random(8)
        for _ in range(500):
            c = commit(rng.randbytes(16), rng)
            assert not verify_opening(c.value, rng.randbytes(16), c.opening.blinding)

    def test_wrong_blinding_rejected(self):
        rng = random.Random(9)
        for _ in range(500):
            c = commit(b"fixed", rng)
            wrong = rng.randrange(1, crypto.GROUP_Q)
            if wrong == c.opening.blinding:
                continue
            assert not verify_opening(c.value, b"fixed", wrong)

    def test_malformed_inputs_verify_false(self):
        c = commit(b"m", random.Random(10))
        assert not verify_opening(0, b"m", c.opening.blinding)
        assert not verify_opening(crypto.GROUP_P, b"m", c.opening.blinding)
        assert not verify_opening(c.value, b"m", 0)
        assert not verify_opening(c.value, b"m", crypto.GROUP_Q)
        assert not verify_opening(c.value, b"", c.opening.blinding)

    def test_non_canonical_blinding_rejected(self):
        # r + q recomputes the same group element but is not a valid opening;
        # the 32-byte wire field can represent it, so it must be rejected
        c = commit(b"m", random.Random(22))
        assert not verify_opening(c.value, b"m", c.opening.blinding + crypto.GROUP_Q)

    def test_empty_message_rejected(self):
        with pytest.raises(ParameterError):
            commit(b"", random.Random(11))

    @pytest.mark.parametrize("base", [crypto.GROUP_G, crypto.GROUP_H], ids=["g", "h"])
    @given(exponent=st.integers(min_value=0, max_value=2**256 - 1))
    @example(exponent=0)
    @example(exponent=1)
    @example(exponent=255)
    @example(exponent=256)
    @example(exponent=crypto.GROUP_Q - 1)
    @example(exponent=2**255)
    @settings(max_examples=200)
    def test_fixed_base_pow_equals_pow(self, base, exponent):
        assert crypto._fixed_base_pow(base, exponent) == pow(base, exponent, crypto.GROUP_P)

    def test_group_parameters(self):
        # q is the order of the subgroup containing g and h
        assert pow(crypto.GROUP_G, crypto.GROUP_Q, crypto.GROUP_P) == 1
        assert pow(crypto.GROUP_H, crypto.GROUP_Q, crypto.GROUP_P) == 1
        assert crypto.GROUP_G != crypto.GROUP_H
        assert (crypto.GROUP_P - 1) % crypto.GROUP_Q == 0


class TestSignatures:
    def test_honest_verify(self):
        kp = keygen(random.Random(13))
        sig = sign(b"m", kp.secret_key)
        assert verify(b"m", sig, kp.public_key)

    def test_message_binding(self):
        kp = keygen(random.Random(14))
        sig = sign(b"m", kp.secret_key)
        assert not verify(b"m\x01", sig, kp.public_key)

    def test_unrelated_key_rejected(self):
        rng = random.Random(15)
        for _ in range(200):
            kp = keygen(rng)
            other = keygen(rng)
            assert not verify(b"m", sign(b"m", kp.secret_key), other.public_key)

    def test_malformed_signature_returns_false(self):
        kp = keygen(random.Random(16))
        assert not verify(b"m", b"junk", kp.public_key)
        assert not verify(b"m", b"", kp.public_key)

    def test_deterministic_keygen_from_rng(self):
        assert keygen(random.Random(17)).public_key == keygen(random.Random(17)).public_key

    def test_signing_deterministic(self):
        kp = keygen(random.Random(18))
        assert sign(b"m", kp.secret_key) == sign(b"m", kp.secret_key)


class TestCertificates:
    def test_chain_round_trip(self):
        rng = random.Random(19)
        ha = keygen(rng)
        venue = keygen(rng)
        cert = issue_certificate(venue.public_key, "venue-7", ha.secret_key)
        assert verify(cert.payload(), cert.issuer_signature, ha.public_key)

    def test_tampered_certificate_fails(self):
        rng = random.Random(20)
        ha = keygen(rng)
        venue = keygen(rng)
        cert = issue_certificate(venue.public_key, "venue-7", ha.secret_key)
        forged = Certificate(
            subject_public_key=cert.subject_public_key,
            subject_id="venue-8",
            issuer_signature=cert.issuer_signature,
        )
        assert not verify(forged.payload(), forged.issuer_signature, ha.public_key)


class TestVerifier:
    def test_triple_verified_under_one_key_fails_under_another(self):
        rng = random.Random(21)
        signer, other = keygen(rng), keygen(rng)
        signature = sign(b"m", signer.secret_key)
        memo = crypto.Verifier()
        assert memo.verify(b"m", signature, signer.public_key)
        assert not memo.verify(b"m", signature, other.public_key)
        assert not memo.verify(b"m2", signature, signer.public_key)

    def test_each_good_triple_computed_once_and_each_bad_one_every_time(self, monkeypatch):
        kp = keygen(random.Random(22))
        key, good = kp.public_key, sign(b"m", kp.secret_key)
        bad = bytes([good[0] ^ 1]) + good[1:]
        computed = []
        monkeypatch.setattr(crypto, "verify", lambda *args: computed.append(args) or verify(*args))
        memo = crypto.Verifier()
        verdicts = [memo.verify(b"m", sig, key) for sig in (good, bad, good, bad)]
        assert verdicts == [True, False, True, False]
        assert computed == [(b"m", good, key), (b"m", bad, key), (b"m", bad, key)]


class TestWireEncoding:
    def test_round_trip(self):
        fields = [b"", b"a", b"longer field", bytes(100)]
        assert lp_decode(lp_encode(*fields)) == fields

    @given(st.lists(st.binary(max_size=64), max_size=8))
    @settings(max_examples=100)
    def test_round_trip_property(self, fields):
        assert lp_decode(lp_encode(*fields)) == fields

    def test_truncated_rejected(self):
        buf = lp_encode(b"hello")
        with pytest.raises(ParameterError):
            lp_decode(buf[:-1])
        with pytest.raises(ParameterError):
            lp_decode(buf[:2])
