"""Baseline protocols run under the same simulator for comparison.

TraceTogether: a fully trusted ministry of health (MoH) registers phone
numbers, pushes each phone an authenticated-encrypted token each interval,
and decrypts the peer tokens a reporter's phone heard to phone numbers.

DP-3T (low-cost): hash-chained daily keys expanded into per-day identifier
sets, broadcast in a random order, published on infection so peers match
locally.
"""

from __future__ import annotations

import random

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .actors import RiskAssessment, RiskPolicy
from .crypto import ParameterError, encode_u64, lp_decode, lp_encode
from .messages import HeardPing
from .schedule import (
    SECONDS_PER_DAY,
    DailyKey,
    dp3t_derive_ephids,
    dp3t_initial_daily_key,
    dp3t_next_daily_key,
)

DP3T_EPOCHS_PER_DAY = 96
_TT_NONCE_LEN = 12


# ---------------------------------------------------------------------------
# TraceTogether
# ---------------------------------------------------------------------------

class MoHServer:
    """Centralised authority: registry, token issuance, trace decryption.

    A token is opaque bytes: a fresh nonce followed by the AES-GCM
    ciphertext of (pseudonym, interval) under the MoH's key.
    """

    def __init__(self, rng: random.Random):
        self._key = rng.randbytes(32)
        self._aead = AESGCM(self._key)
        self.registry: dict[bytes, str] = {}  # pseudonym -> phone number
        self.traced_edges: list[tuple[str, str]] = []  # (reporter phone, contact phone)

    def register(self, phone_number: str, rng: random.Random) -> bytes:
        pseudonym = rng.randbytes(16)
        self.registry[pseudonym] = phone_number
        return pseudonym

    def issue_tid(self, pseudonym: bytes, interval_index: int, rng: random.Random) -> bytes:
        if pseudonym not in self.registry:
            raise ParameterError("unknown pseudonym")
        nonce = rng.randbytes(_TT_NONCE_LEN)
        plaintext = lp_encode(pseudonym, encode_u64(interval_index))
        return nonce + self._aead.encrypt(nonce, plaintext, None)

    def decrypt_tid(self, ciphertext: bytes) -> tuple[bytes, int] | None:
        """(pseudonym, interval) for a valid token, None for garbage/tampering."""
        if len(ciphertext) <= _TT_NONCE_LEN:
            return None
        try:
            plaintext = self._aead.decrypt(
                ciphertext[:_TT_NONCE_LEN], ciphertext[_TT_NONCE_LEN:], None
            )
            pseudonym, interval_raw = lp_decode(plaintext)
        except (InvalidTag, ParameterError, ValueError):
            return None
        return pseudonym, int.from_bytes(interval_raw, "big")

    def trace(self, reporter_phone: str, heard: list[HeardPing]) -> list[str]:
        """Decrypt reported peer tokens and look up their phone numbers."""
        contacts: list[str] = []
        for ping in heard:
            decrypted = self.decrypt_tid(ping.ephid)
            if decrypted is None:
                continue  # forged or corrupted token
            pseudonym, _ = decrypted
            phone = self.registry.get(pseudonym)
            if phone is None or phone == reporter_phone:
                continue
            if phone not in contacts:
                contacts.append(phone)
                self.traced_edges.append((reporter_phone, phone))
        return contacts


class TTUserApp:
    """Phone-side TraceTogether state: current token plus the peer tokens heard."""

    listening = True  # TraceTogether phones listen everywhere

    def __init__(self, phone_number: str, moh: MoHServer, rng: random.Random):
        self.phone_number = phone_number
        self.pseudonym = moh.register(phone_number, rng)
        self.tid: bytes | None = None  # the MoH's token for this interval
        self.heard: list[HeardPing] = []

    def payload(self, now: int) -> bytes | None:
        return self.tid

    def hear(self, peer_payload: bytes, signal_dbm: float, now: int) -> None:
        if self.tid is None:
            return
        self.heard.append(HeardPing(peer_payload, signal_dbm, now))


# ---------------------------------------------------------------------------
# DP-3T (low-cost)
# ---------------------------------------------------------------------------

class Dp3tBackend:
    """Publication board for infected users' daily keys.

    Every phone that downloads the board computes the same public identifier
    sets, so the board expands each published (key, day) once, as the first
    query that reaches that day asks for it.
    """

    def __init__(self, epochs_per_day: int = DP3T_EPOCHS_PER_DAY) -> None:
        self.epochs_per_day = epochs_per_day
        self.published: list[DailyKey] = []
        # per published key: the key of the next day to expand, and the sets so far
        self._chains: list[tuple[DailyKey, dict[int, set[bytes]]]] = []

    def publish(self, key: DailyKey) -> None:
        self.published.append(key)
        self._chains.append((key, {}))

    def day_sets(self, through_day: int) -> list[dict[int, set[bytes]]]:
        """Per published key, in publication order, its identifier sets by
        day, from its own day through at least ``through_day``."""
        for i, (key, sets) in enumerate(self._chains):
            while key.day_index <= through_day:
                sets[key.day_index] = set(dp3t_derive_ephids(key, self.epochs_per_day))
                key = dp3t_next_daily_key(key)
            self._chains[i] = (key, sets)
        return [sets for _, sets in self._chains]


class Dp3tUserApp:
    """Daily-key chain, per-day shuffled broadcast order, local matching."""

    listening = True  # DP-3T phones listen everywhere

    def __init__(self, user_id: str, rng: random.Random, epochs_per_day: int = DP3T_EPOCHS_PER_DAY):
        self.user_id = user_id
        self.epochs_per_day = epochs_per_day
        self.epoch_seconds = SECONDS_PER_DAY // epochs_per_day
        self.daily_keys: list[DailyKey] = [dp3t_initial_daily_key(rng, day_index=0)]
        self._day_ids: list[bytes] = []
        self._day_order: list[int] = []
        self.heard: list[HeardPing] = []
        self._prepare_day(0, rng)

    def _current_key(self) -> DailyKey:
        return self.daily_keys[-1]

    def _prepare_day(self, day_index: int, rng: random.Random) -> None:
        while self._current_key().day_index < day_index:
            self.daily_keys.append(dp3t_next_daily_key(self._current_key()))
        self._day_ids = dp3t_derive_ephids(self._current_key(), self.epochs_per_day)
        self._day_order = list(range(self.epochs_per_day))
        rng.shuffle(self._day_order)

    def start_day(self, day_index: int, rng: random.Random) -> None:
        self._prepare_day(day_index, rng)

    def payload(self, now: int) -> bytes:
        return self._day_ids[self._day_order[now % SECONDS_PER_DAY // self.epoch_seconds]]

    def hear(self, ephid: bytes, signal_dbm: float, now: int) -> None:
        self.heard.append(HeardPing(ephid, signal_dbm, now))

    def key_for_day(self, day_index: int) -> DailyKey:
        for k in self.daily_keys:
            if k.day_index == day_index:
                return k
        raise ParameterError(f"no stored key for day {day_index}")

    def report(self, backend: Dp3tBackend, first_infectious_day: int, current_day: int, rng: random.Random) -> None:
        """Publish the first infectious day's key, then rotate to a fresh chain."""
        backend.publish(self.key_for_day(first_infectious_day))
        self.daily_keys = [DailyKey(key=rng.randbytes(32), day_index=current_day)]
        self._prepare_day(current_day, rng)


def dp3t_match(
    app: Dp3tUserApp, backend: Dp3tBackend, through_day: int, policy: RiskPolicy
) -> list[RiskAssessment]:
    """Local matching of the heard store against every published key chain,
    in publication order, over the days through ``through_day``.

    A ping's slot is ``time // epoch_seconds``: the epochs of a day divide
    it, so each slot is one (day, epoch of the day) pair.
    """
    out: list[RiskAssessment] = []
    for day_sets in backend.day_sets(through_day):
        slots: set[int] = set()
        leak = False
        for h in app.heard:
            day = h.time // SECONDS_PER_DAY
            ids = day_sets.get(day) if day <= through_day else None
            if ids is None or h.ephid not in ids:
                continue
            leak = True
            if h.signal_dbm >= policy.proximity_threshold_dbm:
                slots.add(h.time // app.epoch_seconds)
        out.append(policy.assess(slots, app.epoch_seconds, leak))
    return out
