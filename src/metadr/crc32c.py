"""CRC-32C (Castagnoli polynomial) in pure Python.

Reflected form (polynomial 0x1EDC6F41, reflected 0x82F63B78). Used for
the block integrity layer and for WAL record checksums. The check value
for b"123456789" is 0xE3069283, and the CRC of b"" is 0.

Both entry points use one set of 16 slicing tables (Kounavis & Berry,
ISCC 2005): ``S[k][v]`` is the register after byte ``v`` followed by
``k`` zero bytes, so ``S[0]`` is the classic byte table. The tables are
laid out two ways:

- ``crc32c(data)`` reads them as 16 tuples of ints. It consumes 16 bytes
  per step, with one unpack and 16 lookups, then the tail a byte at a
  time.
- ``crc32c_many(blocks)`` splits each ``S[k]`` into four byte->byte
  ``bytes.translate`` tables, one per byte of the register. It groups
  the blocks by length and runs the same 16-byte step on every block of
  a group at once: one lane per block, the lane registers kept as four
  byte planes and XORed as ``int.from_bytes`` integers. A group of fewer
  than ``MIN_LANES`` (32) blocks goes through the scalar path, and so
  does a whole input that short, without being grouped at all. A lane
  batch holds at most ``LANE_BATCH_BYTES`` (64 KiB) of content, which
  bounds the temporary memory, so blocks longer than 2 KiB (64 KiB over
  ``MIN_LANES``) go scalar too. Both constants are fixed.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence

_POLY = 0x82F63B78
MIN_LANES = 32
LANE_BATCH_BYTES = 64 * 1024


def _build_slices() -> tuple[tuple[int, ...], ...]:
    table = []
    for i in range(256):
        c = i
        for _ in range(8):
            c = (c >> 1) ^ _POLY if c & 1 else c >> 1
        table.append(c)
    slices = [table]
    for _ in range(15):
        slices.append([(v >> 8) ^ table[v & 0xFF] for v in slices[-1]])
    return tuple(tuple(s) for s in slices)


_SLICES = _build_slices()
_TABLE = _SLICES[0]
# _LANES[k][p][v]: byte p of S[k][v], as a bytes.translate table
_LANES = tuple(
    tuple(bytes((v >> (8 * p)) & 0xFF for v in s) for p in range(4)) for s in _SLICES
)
_STEP = struct.Struct("<I12B")


def crc32c(data: bytes) -> int:
    """Return the CRC-32C of `data` as an unsigned 32-bit integer."""
    c = 0xFFFFFFFF
    n = len(data)
    tail = n & 15
    if n > tail:
        t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15 = _SLICES
        head = memoryview(data)[: n - tail] if tail else data
        for w, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 in _STEP.iter_unpack(head):
            c ^= w
            c = (t15[c & 0xFF] ^ t14[c >> 8 & 0xFF] ^ t13[c >> 16 & 0xFF] ^ t12[c >> 24]
                 ^ t11[b4] ^ t10[b5] ^ t9[b6] ^ t8[b7] ^ t7[b8] ^ t6[b9] ^ t5[b10] ^ t4[b11]
                 ^ t3[b12] ^ t2[b13] ^ t1[b14] ^ t0[b15])
        data = data[n - tail:]
    table = _TABLE
    for b in data:
        c = table[(c ^ b) & 0xFF] ^ (c >> 8)
    return c ^ 0xFFFFFFFF


def crc32c_many(blocks: Sequence[bytes]) -> list[int]:
    """Return ``[crc32c(b) for b in blocks]``, computing each group of
    equal-length blocks lane-parallel (see the module docstring)."""
    if len(blocks) < MIN_LANES:  # no group could fill the lanes
        return list(map(crc32c, blocks))
    crcs = [0] * len(blocks)
    by_length: dict[int, list[int]] = {}
    for i, block in enumerate(blocks):
        by_length.setdefault(len(block), []).append(i)
    for length, members in by_length.items():
        per_batch = max(LANE_BATCH_BYTES // max(length, 1), 1)
        for start in range(0, len(members), per_batch):
            batch = members[start : start + per_batch]
            if len(batch) < MIN_LANES:
                for i in batch:
                    crcs[i] = crc32c(blocks[i])
                continue
            for i, crc in zip(batch, _crc_lanes([blocks[i] for i in batch], length)):
                crcs[i] = crc
    return crcs


def _crc_lanes(blocks: list[bytes], length: int) -> tuple[int, ...]:
    """CRC-32C of m blocks of one length, one lane per block.

    Column q holds byte q of every block. The lane registers are one int
    of 4m bytes, little-endian: plane p (byte p of every register) is
    bytes [p*m, (p+1)*m).
    """
    m = len(blocks)
    joined = b"".join(blocks)
    columns = [joined[q::length] for q in range(length)]
    ones = (1 << (32 * m)) - 1
    reg = ones
    for offset in range(0, length, 16):
        reg = _lane_step(reg, columns[offset : offset + 16], m)
    planes = (reg ^ ones).to_bytes(4 * m, "little")
    words = bytearray(4 * m)
    for p in range(4):
        words[p::4] = planes[p * m : (p + 1) * m]
    return struct.unpack(f"<{m}I", words)


def _lane_step(reg: int, columns: list[bytes], m: int) -> int:
    """Advance every lane register over the next w = len(columns) <= 16
    bytes: the slicing step, with S[w-1-i] for byte i of the step."""
    w = len(columns)
    head = min(w, 4)
    mixed = (reg ^ int.from_bytes(b"".join(columns[:head]), "little")).to_bytes(4 * m, "little")
    inputs = [mixed[p * m : (p + 1) * m] for p in range(head)] + columns[head:]
    # with w < 4, the register's upper 4 - w bytes survive, shifted down
    out = reg >> (8 * m * w) if w < 4 else 0
    for plane, tables in zip(inputs, _LANES[w - 1 :: -1]):
        out ^= int.from_bytes(b"".join(map(plane.translate, tables)), "little")
    return out
