from random import Random

from metadr.crc32c import crc32c
from metadr.verify import _crc32c_bitwise as crc32c_bitwise


def test_castagnoli_check_value():
    assert crc32c(b"123456789") == 0xE3069283


def test_check_value_against_bitwise_reference():
    assert crc32c_bitwise(b"123456789") == 0xE3069283


def test_empty_input():
    assert crc32c(b"") == 0


def test_table_matches_bitwise_reference_on_random_payloads():
    rng = Random(1)
    for _ in range(500):
        payload = rng.randbytes(rng.randrange(0, 100))
        assert crc32c(payload) == crc32c_bitwise(payload)


def test_single_bit_flip_changes_crc():
    rng = Random(2)
    for _ in range(50):
        payload = bytearray(rng.randbytes(rng.randrange(1, 64)))
        original = crc32c(bytes(payload))
        payload[rng.randrange(len(payload))] ^= 1 << rng.randrange(8)
        assert crc32c(bytes(payload)) != original
