import struct
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metadr.crc32c import crc32c
from metadr.identity import WAL_RECORD_BYTES, new_node_id
from metadr.node import CorruptionDetected, StorageNode
from metadr.verify import _crc32_bitwise as crc32_bitwise


def test_crc32_check_value():
    assert crc32c(b"123456789") == 0xCBF43926


def test_check_value_against_bitwise_reference():
    assert crc32_bitwise(b"123456789") == 0xCBF43926


def test_empty_input():
    assert crc32c(b"") == 0 == crc32_bitwise(b"")


def test_table_matches_bitwise_reference_on_random_payloads():
    rng = Random(1)
    for _ in range(500):
        payload = rng.randbytes(rng.randrange(0, 100))
        assert crc32c(payload) == crc32_bitwise(payload)


@given(payload=st.binary(max_size=200))
def test_sliced_crc_matches_bitwise_reference(payload):
    assert crc32c(payload) == crc32_bitwise(payload)


# concrete blocks of 1-70,000 bytes (the block's bytes drawn from a seed,
# so a long one costs hypothesis no buffer) and virtual descriptors
_PAYLOAD = st.one_of(
    st.builds(lambda n, seed: Random(seed).randbytes(n), st.integers(1, 70_000), st.integers()),
    st.binary(min_size=1, max_size=64),
    st.tuples(st.integers(1, 2**64 - 1), st.integers(0, 2**64 - 1)),
)


@settings(max_examples=25, deadline=None)
@given(payloads=st.lists(_PAYLOAD, min_size=1, max_size=4), data=st.data())
def test_every_checksum_path_matches_bitwise_oracle(payloads, data):
    # ingest's entries, the WAL's records, reads and the scrub's findings
    node = StorageNode(new_node_id(Random(1)))
    ids = node.ingest(payloads)
    contents = [p if isinstance(p, bytes) else struct.pack(">QQ", *p) for p in payloads]
    for cid, content in zip(ids, contents):
        assert node.id_index.get(cid).crc == crc32_bitwise(content)
        assert node.read_verify(cid) == content
    wal = node.wal.data()
    assert wal and len(wal) % WAL_RECORD_BYTES == 0
    for offset in range(0, len(wal), WAL_RECORD_BYTES):
        record = wal[offset : offset + WAL_RECORD_BYTES]
        assert record[12:] == crc32_bitwise(record[4:12]).to_bytes(4, "big")

    k = data.draw(st.integers(0, len(ids) - 1))
    node.corrupt_block(ids[k])
    corrupt = node.block_store[ids[k]]
    report = node.scrub(len(ids))
    assert report.findings == [(ids[k], crc32_bitwise(contents[k]), crc32_bitwise(corrupt))]
    with pytest.raises(CorruptionDetected):
        node.read_verify(ids[k])


@given(payload=st.binary(min_size=4, max_size=2000), data=st.data())
def test_every_burst_of_up_to_32_bits_changes_crc(payload, data):
    # the reflected CRC reads each byte low bit first, so bit i of the
    # little-endian integer is the i-th bit it reads; a burst flips its
    # first and last bit and any between them
    length = data.draw(st.integers(1, 32))
    start = data.draw(st.integers(0, 8 * len(payload) - length))
    inner = data.draw(st.integers(0, 2**32 - 1)) & ((1 << length) - 1)
    burst = (1 | 1 << (length - 1) | inner) << start
    flipped = (int.from_bytes(payload, "little") ^ burst).to_bytes(len(payload), "little")
    assert crc32c(flipped) != crc32c(payload)


def test_single_bit_flip_changes_crc():
    rng = Random(2)
    for _ in range(50):
        payload = bytearray(rng.randbytes(rng.randrange(1, 64)))
        original = crc32c(bytes(payload))
        payload[rng.randrange(len(payload))] ^= 1 << rng.randrange(8)
        assert crc32c(bytes(payload)) != original
