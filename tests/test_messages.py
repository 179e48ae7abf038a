import random

from venuetrace.messages import receipt_payload

RNG = random.Random(0)
NONCE = int.from_bytes(RNG.randbytes(63), "big")


def test_receipt_payload_field_order_stable():
    # payload bytes are the signing contract; pin them against accidental change
    a = receipt_payload(NONCE, 10, b"\x01" * 32)
    b = receipt_payload(NONCE, 10, b"\x01" * 32)
    assert a == b
    assert receipt_payload(NONCE, 10, b"\x01" * 32, arrival_time=5) != a
