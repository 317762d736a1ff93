from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from metadr.crc32c import LANE_BATCH_BYTES, MIN_LANES, crc32c, crc32c_many
from metadr.verify import _crc32c_bitwise as crc32c_bitwise

# lengths on both sides of the 16-byte step and of its 4-byte head
_LENGTHS = (0, 1, 15, 16, 17, 31, 32, 33, 100)


def test_castagnoli_check_value():
    assert crc32c(b"123456789") == 0xE3069283


def test_check_value_against_bitwise_reference():
    assert crc32c_bitwise(b"123456789") == 0xE3069283


def test_empty_input():
    assert crc32c(b"") == 0
    assert crc32c_many([]) == []
    assert crc32c_many([b""] * MIN_LANES) == [0] * MIN_LANES


def test_table_matches_bitwise_reference_on_random_payloads():
    rng = Random(1)
    for _ in range(500):
        payload = rng.randbytes(rng.randrange(0, 100))
        assert crc32c(payload) == crc32c_bitwise(payload)


@given(payload=st.binary(max_size=200))
def test_sliced_crc_matches_bitwise_reference(payload):
    assert crc32c(payload) == crc32c_bitwise(payload)


@st.composite
def _block_lists(draw):
    """0-80 blocks whose lengths come from a drawn subset of _LENGTHS, so
    one length often repeats past MIN_LANES and others stay below it."""
    lengths = draw(st.lists(st.sampled_from(_LENGTHS), min_size=1, max_size=3, unique=True))
    count = draw(st.integers(0, 80))
    return draw(st.lists(
        st.sampled_from(lengths).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
        min_size=count, max_size=count,
    ))


@settings(deadline=None)
@given(blocks=_block_lists())
def test_crc32c_many_matches_scalar_and_bitwise(blocks):
    assert crc32c_many(blocks) == [crc32c(b) for b in blocks] == [
        crc32c_bitwise(b) for b in blocks
    ]


def test_crc32c_many_at_the_lane_cutoff():
    rng = Random(3)
    for count in (MIN_LANES - 1, MIN_LANES, MIN_LANES + 1):
        for length in _LENGTHS:
            blocks = [rng.randbytes(length) for _ in range(count)]
            assert crc32c_many(blocks) == [crc32c_bitwise(b) for b in blocks]


def test_crc32c_many_splits_groups_into_capped_batches():
    rng = Random(4)
    # 16-byte blocks: two full lane batches, then a remainder below the
    # cut-off; 1,000-byte blocks: three batches, the last one still lanes
    short = [rng.randbytes(16) for _ in range(2 * (LANE_BATCH_BYTES // 16) + 5)]
    long = [rng.randbytes(1000) for _ in range(3 * (LANE_BATCH_BYTES // 1000) - 20)]
    blocks = [b for pair in zip(short, long) for b in pair] + short[len(long):]
    assert crc32c_many(blocks) == [crc32c(b) for b in blocks]


def test_single_bit_flip_changes_crc():
    rng = Random(2)
    for _ in range(50):
        payload = bytearray(rng.randbytes(rng.randrange(1, 64)))
        original = crc32c(bytes(payload))
        payload[rng.randrange(len(payload))] ^= 1 << rng.randrange(8)
        assert crc32c(bytes(payload)) != original
