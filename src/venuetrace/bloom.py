"""Bloom filters for venue-side identifier digests and HA-side matching.

A venue periodically encodes everything it heard into a filter and ships it
to the health authority; the back-end later asks the HA whether a reporter's
reconstructed identifiers were really heard on premise. Sizing follows the
standard optimum m = ceil(-n ln p / ln^2 2), k = round(m/n ln 2); element
positions use double hashing over a SHA-256 digest of the element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import sha256

import numpy as np

from .crypto import ParameterError

LN2 = 0.6931471805599453
DEFAULT_TARGET_FPR = 1e-6


class UnknownVenuePeriodError(KeyError):
    """HA holds no retained digest for the requested venue/period."""


def _sizing(n_target: int, target_fpr: float) -> tuple[int, int]:
    if not (0.0 < target_fpr < 1.0):
        raise ParameterError("target_fpr must be in (0, 1)")
    if n_target < 1:
        raise ParameterError("n_target must be >= 1")
    m = int(np.ceil(-n_target * np.log(target_fpr) / (LN2 * LN2)))
    m = max(m, 8)
    k = max(1, round(m / n_target * LN2))
    return m, k


class BloomFilter:
    """Fixed-size bit array with k double-hashed positions per element.

    No false negatives ever; false-positive rate approaches ``target_fpr``
    at ``n_target`` insertions.
    """

    def __init__(self, n_target: int, target_fpr: float = DEFAULT_TARGET_FPR):
        self.m_bits, self.k_hashes = _sizing(n_target, target_fpr)
        self.bits = np.zeros((self.m_bits + 7) // 8, dtype=np.uint8)
        self.count = 0

    def _positions(self, elements: list[bytes]) -> np.ndarray:
        """Bit positions, one row of k per element: (h1 + i * h2) mod m, with
        h1 and h2 the first two big-endian 64-bit words of SHA-256(element)
        (h2 made odd). All digests are hashed into one buffer and read at once."""
        words = np.frombuffer(b"".join(sha256(e).digest() for e in elements), dtype=">u8")
        words = words.reshape(-1, 4).astype(np.uint64)
        h1, h2 = words[:, 0:1], words[:, 1:2] | np.uint64(1)
        ks = np.arange(self.k_hashes, dtype=np.uint64)
        return (h1 + ks[None, :] * h2) % np.uint64(self.m_bits)

    def add_many(self, elements: list[bytes]) -> None:
        if not elements:
            return
        hit = np.zeros(self.bits.size * 8, dtype=bool)
        hit[self._positions(elements).ravel()] = True
        self.bits |= np.packbits(hit, bitorder="little")
        self.count += len(elements)

    def contains_many(self, elements: list[bytes]) -> list[bool]:
        if not elements:
            return []
        idx = self._positions(elements)
        hit = (self.bits[idx >> 3] & (1 << (idx & 7)).astype(np.uint8)) != 0
        return hit.all(axis=1).tolist()


def build_filter(
    ids: set[bytes] | list[bytes],
    target_fpr: float = DEFAULT_TARGET_FPR,
) -> BloomFilter:
    """Encode a set of identifiers; an empty set yields a filter rejecting everything."""
    items = list(set(ids))  # bits do not depend on insertion order
    bf = BloomFilter(n_target=max(len(items), 1), target_fpr=target_fpr)
    bf.add_many(items)
    return bf


@dataclass
class VenueBloomDigest:
    """One venue's filter over identifiers heard within [period_start, period_end)."""

    venue_id: str
    period_start: int
    period_end: int
    filter: BloomFilter = field(repr=False)


def match_batch(
    ha_filters: dict[str, list[VenueBloomDigest]],
    venue_id: str,
    ids: list[bytes],
) -> list[bool]:
    """Per-identifier membership against the digests ``ha_filters`` holds
    for one venue (the HA passes those of the reported stay's period).

    An identifier matches if any of those digests contains it. Raises
    UnknownVenuePeriodError when there is none, in which case the caller
    must reject the report.
    """
    digests = ha_filters.get(venue_id)
    if not digests:
        raise UnknownVenuePeriodError(venue_id)
    result = [False] * len(ids)
    for digest in digests:
        hits = digest.filter.contains_many(ids)
        result = [a or b for a, b in zip(result, hits)]
    return result
