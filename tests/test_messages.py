import hashlib
import random

import pytest

from venuetrace.crypto import Certificate, encode_group_element, encode_u64, lp_encode
from venuetrace.messages import InfectionCertificate, LeaveReceipt

RNG = random.Random(0)
NONCE = int.from_bytes(RNG.randbytes(63), "big")
DIGEST = b"\x01" * 32
SIGNATURE = b"\xff" * 64  # signatures are not part of any payload


def _receipt(**extra):
    return LeaveReceipt(NONCE, 10, DIGEST, SIGNATURE, "cafe", **extra)


def test_receipt_payload_field_order_stable():
    # payload bytes are the signing contract; pin them against accidental change
    a = _receipt().payload()
    b = _receipt().payload()
    assert a == b
    assert _receipt(arrival_time=5).payload() != a


# each signed message with the fields its payload encodes, in the documented order
SIGNED = [
    (_receipt(), [encode_group_element(NONCE), encode_u64(10), DIGEST]),
    (_receipt(arrival_time=5),
     [encode_group_element(NONCE), encode_u64(5), encode_u64(10), DIGEST]),
    (InfectionCertificate(100, 200, NONCE, SIGNATURE, "lab0"),
     [encode_u64(100), encode_u64(200), encode_group_element(NONCE)]),
    (Certificate(b"\x02" * 32, "cafe", SIGNATURE), [b"\x02" * 32, b"cafe"]),
]


@pytest.mark.parametrize("message,fields", SIGNED, ids=[
    "receipt", "receipt-with-arrival", "infection-certificate", "ha-certificate"])
def test_payload_encodes_the_documented_fields_in_order(message, fields):
    assert message.payload() == lp_encode(*fields)


def test_payload_bytes_are_pinned():
    payloads = b"".join(message.payload() for message, _ in SIGNED)
    assert hashlib.sha256(payloads).hexdigest() == (
        "b4dbe084234aa96641a6e3820886fddc858c2b088e6f43a288bea5bd86232810")
