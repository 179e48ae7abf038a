"""Deterministic cryptographic primitives shared by every protocol role.

Concrete choices:

* ``hash_bytes``  -- SHA-256 (32-byte digests).
* ``prf``         -- HMAC-SHA256 keyed by a >=16-byte key.
* ``prg_expand``  -- counter-mode expansion of a 32-byte seed into a
  prefix-stable stream of fixed-length ephemeral identifiers.
* commitments     -- Pedersen in a fixed 512-bit Schnorr group with
  256-bit prime order; randomized blinding, so commitments are hiding
  and binding up to the SHA-256 message-to-scalar map. Powers of the two
  fixed generators use precomputed window tables (fixed-base
  exponentiation, HAC 14.6.3).
* signatures      -- Ed25519 (deterministic) via the ``cryptography``
  library, with raw 32-byte public keys.

All signed or committed payloads are built with the length-prefixed
encoding from :func:`lp_encode` so byte layouts are reproducible
bit-exactly. Every function here is pure given its inputs; randomized
operations take an explicit ``rng`` so seeded simulations reproduce
byte-identical values.
"""

from __future__ import annotations

import functools
import hashlib
import hmac as _hmac
import random
import struct
from dataclasses import dataclass, replace

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

EPHID_LEN = 16
MIN_PRF_KEY_LEN = 16

# Fixed Schnorr group: q | p - 1 with q prime, g and h generators of the
# order-q subgroup, h derived by hashing into the subgroup so its discrete
# log w.r.t. g is unknown. 512/256-bit sizes are simulation-grade.
GROUP_P = int(
    "aa0e2225b3acbec0c99fe4875356541465091d852fd86000e6bb5e10311c5842"
    "0f4b4c3b40d3abba7d59616e23e9c1da2c82054af4a79e14615dba812e038653",
    16,
)
GROUP_Q = int(
    "f3ff691d184e990c9d77a600ab350e4e024a475dd2115d70be0385c2955d0855", 16
)
GROUP_G = int(
    "91fe6a580a0ccc8fe91611f0b3989360d5ecf97b5f6a9ad2b2f00440da16cd80"
    "82b9bd887a796107744533e953752df25a23ecb8e8fe730a915c0938c4130535",
    16,
)
GROUP_H = int(
    "57cb3c2563cfd60602bc5106a0d5a4e043fb1b5c0eb051fbb2b1dc51a91fad48"
    "5face5509d309e4799e128a2ddc6e0923c7c1ece1b19329284a7aeca7e7bbc46",
    16,
)
GROUP_ELEMENT_LEN = 64  # 512-bit group elements, big-endian


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


# ---------------------------------------------------------------------------
# Length-prefixed wire encoding
# ---------------------------------------------------------------------------

def lp_encode(*fields: bytes) -> bytes:
    """Concatenate fields, each prefixed with its 4-byte big-endian length.

    This is the byte layout of every signed or committed message in the
    protocol; field order is fixed by each call site.
    """
    out = bytearray()
    for f in fields:
        out += struct.pack(">I", len(f))
        out += f
    return bytes(out)


def lp_decode(buf: bytes) -> list[bytes]:
    """Inverse of :func:`lp_encode`. Raises ParameterError on malformed input."""
    fields: list[bytes] = []
    pos = 0
    while pos < len(buf):
        if pos + 4 > len(buf):
            raise ParameterError("truncated length prefix")
        (n,) = struct.unpack_from(">I", buf, pos)
        pos += 4
        if pos + n > len(buf):
            raise ParameterError("field extends past end of buffer")
        fields.append(buf[pos : pos + n])
        pos += n
    return fields


def encode_u64(value: int) -> bytes:
    if value < 0:
        raise ParameterError("negative value in unsigned encoding")
    return struct.pack(">Q", value)


# ---------------------------------------------------------------------------
# Hash / PRF / PRG
# ---------------------------------------------------------------------------

def hash_bytes(data: bytes) -> bytes:
    """SHA-256 digest of ``data`` (32 bytes, deterministic)."""
    return hashlib.sha256(data).digest()


def prf(key: bytes, label: bytes) -> bytes:
    """Keyed digest HMAC-SHA256(key, label); distinct labels decorrelate outputs."""
    if len(key) < MIN_PRF_KEY_LEN:
        raise ParameterError(
            f"prf key must be at least {MIN_PRF_KEY_LEN} bytes, got {len(key)}"
        )
    return _hmac.new(key, label, hashlib.sha256).digest()


def prg_expand(seed: bytes, count: int) -> list[bytes]:
    """Expand ``seed`` into ``count`` identifiers of ``EPHID_LEN`` bytes.

    Counter-mode stream: block i is SHA-256(seed || i) and identifiers are
    consecutive slices of the concatenated blocks, so shorter expansions are
    prefixes of longer ones from the same seed.
    """
    if count < 1:
        raise ParameterError("count must be >= 1")
    needed = count * EPHID_LEN
    blocks = bytearray()
    counter = 0
    while len(blocks) < needed:
        blocks += hashlib.sha256(seed + struct.pack(">I", counter)).digest()
        counter += 1
    stream = bytes(blocks[:needed])
    return [stream[i * EPHID_LEN : (i + 1) * EPHID_LEN] for i in range(count)]


# ---------------------------------------------------------------------------
# Pedersen commitments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Opening:
    """The secret side of a commitment: (message, blinding scalar)."""

    message: bytes
    blinding: int


@dataclass(frozen=True)
class Commitment:
    """A Pedersen commitment value together with its retained opening.

    Only ``value`` is ever transmitted; ``opening`` leaves the committer
    only to be checked against it (a report bundle's ``nonce_reveal``).
    """

    value: int
    opening: Opening

    def value_bytes(self) -> bytes:
        return encode_group_element(self.value)


def encode_group_element(value: int) -> bytes:
    return value.to_bytes(GROUP_ELEMENT_LEN, "big")


def _message_scalar(message: bytes) -> int:
    return int.from_bytes(hashlib.sha256(message).digest(), "big") % GROUP_Q


# Fixed-base exponentiation (Brickell-Gordon-McCurley-Wilson, HAC 14.6.3):
# row i of a base's table holds base^(d * 256^i) for every byte d, so a
# 256-bit exponent costs 32 multiplications instead of ~384 for ``pow``.
_WINDOW_ROWS = 32  # one per byte of a 256-bit exponent


@functools.cache
def _window_table(base: int) -> tuple[tuple[int, ...], ...]:
    """Built on first use: 32 rows of 256 powers, about 0.8 MB per base."""
    rows = []
    for _ in range(_WINDOW_ROWS):
        row = [1]
        for _ in range(255):
            row.append(row[-1] * base % GROUP_P)
        rows.append(tuple(row))
        base = row[-1] * base % GROUP_P  # base^256, the next row's base
    return tuple(rows)


def _fixed_base_pow(base: int, exponent: int) -> int:
    """``pow(base, exponent, GROUP_P)`` for 0 <= exponent < 2**256."""
    acc = 1
    for row, digit in zip(_window_table(base), exponent.to_bytes(_WINDOW_ROWS, "little")):
        acc = acc * row[digit] % GROUP_P
    return acc


def _pedersen(message: bytes, blinding: int) -> int:
    """g^H(message) * h^blinding mod p."""
    m = _message_scalar(message)
    return _fixed_base_pow(GROUP_G, m) * _fixed_base_pow(GROUP_H, blinding) % GROUP_P


def commit(message: bytes, rng: random.Random) -> Commitment:
    """Commit to ``message`` with a fresh uniform nonzero blinding scalar."""
    if not message:
        raise ParameterError("cannot commit to an empty message")
    blinding = rng.randrange(1, GROUP_Q)
    value = _pedersen(message, blinding)
    return Commitment(value=value, opening=Opening(message=message, blinding=blinding))


def verify_opening(value: int, message: bytes, blinding: int) -> bool:
    """True iff (message, blinding) recomputes ``value``.

    Malformed inputs (out-of-range element or scalar, empty message) verify
    as False rather than raising.
    """
    if not message:
        return False
    if not (0 < value < GROUP_P):
        return False
    if not (0 < blinding < GROUP_Q):
        return False
    return value == _pedersen(message, blinding)


# ---------------------------------------------------------------------------
# Signatures and certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SigningKeyPair:
    """Ed25519 keypair: raw 32-byte public key and the 32-byte seed."""

    public_key: bytes
    secret_key: bytes


@functools.lru_cache(maxsize=1024)
def _private_key(seed: bytes) -> Ed25519PrivateKey:
    """The parsed key of a 32-byte seed; parsing costs about as much as a
    signature, and a run signs with a few dozen keys."""
    return Ed25519PrivateKey.from_private_bytes(seed)


def keygen(rng: random.Random) -> SigningKeyPair:
    """Generate a keypair; the key is a pure function of ``rng``'s state."""
    seed = rng.randbytes(32)
    pk = _private_key(seed).public_key().public_bytes_raw()
    return SigningKeyPair(public_key=pk, secret_key=seed)


def sign(message: bytes, secret_key: bytes) -> bytes:
    return _private_key(secret_key).sign(message)


def verify(message: bytes, signature: bytes, public_key: bytes) -> bool:
    """True iff ``signature`` is valid; malformed encodings return False."""
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


class Verifier:
    """One run's signature verdicts. ``verify`` computes each distinct
    (message, signature, public key) triple once, as Ed25519 is deterministic,
    and keeps only triples that verified, so a forgery is checked in full."""

    def __init__(self) -> None:
        self._verified: set[tuple[bytes, bytes, bytes]] = set()

    def verify(self, message: bytes, signature: bytes, public_key: bytes) -> bool:
        triple = (message, signature, public_key)
        if triple not in self._verified:
            if not verify(message, signature, public_key):
                return False
            self._verified.add(triple)
        return True


@dataclass(frozen=True)
class Certificate:
    """Health-authority endorsement binding a public key to a subject id."""

    subject_public_key: bytes
    subject_id: str
    issuer_signature: bytes

    def payload(self) -> bytes:
        """What the HA signs: subject public key, subject id (UTF-8)."""
        return lp_encode(self.subject_public_key, self.subject_id.encode("utf-8"))


def issue_certificate(
    subject_public_key: bytes, subject_id: str, issuer_secret_key: bytes
) -> Certificate:
    unsigned = Certificate(subject_public_key, subject_id, b"")
    return replace(unsigned, issuer_signature=sign(unsigned.payload(), issuer_secret_key))
