"""Composite identifiers and crash-safe per-node logical clocks.

A block's identity is assigned at ingestion time from three components:
a 128-bit node id (NID), a per-node monotonically increasing 64-bit
logical clock value (LCV), and a 64-bit namespace tag (NST). Encoded
identifiers are exactly 32 bytes: nid(16) || lcv(8, big-endian) ||
nst(8, big-endian), so byte-lexicographic order within one nid equals
numeric lcv order. In memory an id is a tuple (nid, lcv, nst).

The clock is durable by ceiling, as a timestamp oracle is: before it
exposes any value above its logged ceiling c, it appends the new ceiling
c + R (at most 2**64 - 1) to a write-ahead log, and it hands out the
values up to that ceiling from memory. So one record covers R values
(R = LCV_RESERVE, 1,024), and no value is exposed that a logged ceiling
does not cover.
Recovery reads the log back, discards a torn trailing record and burns
the value it may have carried, and resumes above the highest ceiling:
the unexposed rest of the last range, up to R - 1 values, is skipped,
never reused. It then rewrites the log atomically as that one ceiling
record, so a restart replays one or two records, not one per id. `Wal`
holds the append rule, its lost/torn fault hooks and the atomic rewrite
once; `MemoryWal` (the simulator's) and `FileWal` (fsynced) supply only
the medium.

WAL on-disk format (bit-exact): repeated records of
``[len: u32 BE][lcv: u64 BE][crc: u32 BE]`` where len is the payload
length (always 8), lcv is a ceiling, strictly increasing, and crc is the
CRC-32 (zlib's, through `crc32c`) of the 8 lcv bytes.
"""

from __future__ import annotations

import os
import struct
import threading
from itertools import product, repeat
from random import Random
from typing import NamedTuple

from .crc32c import crc32c

NODE_ID_BYTES = 16
ENCODED_ID_BYTES = 32
GENESIS_LCV = 0  # reserved "never synchronized" checkpoint floor; real LCVs start at 1
MAX_U64 = 2**64 - 1
LCV_RESERVE = 1024  # values one WAL ceiling record covers

_WAL_PAYLOAD_LEN = 8
WAL_RECORD_BYTES = 4 + _WAL_PAYLOAD_LEN + 4
_RECORD = struct.Struct(">IQI")
_LCV = struct.Struct(">Q")


class BadLength(ValueError):
    """Token is not exactly 32 bytes."""


class WalAppendFailure(RuntimeError):
    """A WAL append did not complete; the id was not exposed."""


class WalCorruption(RuntimeError):
    """Non-tail WAL damage; the log cannot be trusted (index-loss condition)."""


class NodeId(bytes):
    """128-bit opaque token, unique within the cluster.

    A bytes subclass, so an id hashes, compares and sorts as its 16 raw
    bytes, and a dict or set probe never runs Python code.
    """

    __slots__ = ()

    def __new__(cls, value: bytes) -> "NodeId":
        if len(value) != NODE_ID_BYTES:
            raise ValueError(f"NodeId must be {NODE_ID_BYTES} bytes, got {len(value)}")
        return super().__new__(cls, value)

    def __repr__(self) -> str:  # short form; full hex is rarely useful in logs
        return f"NodeId({self.hex()[:8]}..)"

    __str__ = __repr__


class _IdFields(NamedTuple):
    nid: NodeId
    lcv: int
    nst: int = 0


class CompositeId(_IdFields):
    """Ingestion-time block identity: nid/lcv/nst, 32 bytes encoded.

    A tuple, so ids hash, compare and sort as (nid, lcv, nst). One nid
    never issues an lcv twice, so the namespace tag scopes an id but
    never decides its order.
    """

    __slots__ = ()

    def __new__(cls, nid: NodeId, lcv: int, nst: int = 0) -> "CompositeId":
        if not 0 <= lcv <= MAX_U64:
            raise ValueError(f"lcv out of 64-bit range: {lcv}")
        if not 0 <= nst <= MAX_U64:
            raise ValueError(f"nst out of 64-bit range: {nst}")
        return super().__new__(cls, nid, lcv, nst)

    @classmethod
    def _make(cls, iterable) -> "CompositeId":
        # the NamedTuple's own _make, and so _replace, skip __new__'s checks
        return cls(*iterable)


def lww_key(cid: CompositeId) -> tuple[int, bytes]:
    """Last-writer-wins order among one user key's versions: the highest
    lcv wins, ties broken by the greater nid. Every replica applies it,
    so a key resolves to the same version wherever it is read."""
    return (cid.lcv, cid.nid)


def new_node_id(entropy: Random) -> NodeId:
    """Draw a 128-bit NodeId from a seeded entropy source.

    Deterministic for a given seed so simulations replay exactly.
    """
    return NodeId(entropy.randbytes(NODE_ID_BYTES))


def encode_id(cid: CompositeId) -> bytes:
    """Encode to the 32-byte wire token: nid || lcv(BE) || nst(BE)."""
    return cid.nid + _LCV.pack(cid.lcv) + _LCV.pack(cid.nst)


def decode_id(token: bytes) -> CompositeId:
    """Inverse of encode_id. Raises BadLength for tokens != 32 bytes."""
    if len(token) != ENCODED_ID_BYTES:
        raise BadLength(f"expected {ENCODED_ID_BYTES} bytes, got {len(token)}")
    nid = NodeId(token[:NODE_ID_BYTES])
    (lcv,) = _LCV.unpack_from(token, NODE_ID_BYTES)
    (nst,) = _LCV.unpack_from(token, NODE_ID_BYTES + 8)
    return CompositeId(nid, lcv, nst)


def _pack_record(lcv: int) -> bytes:
    return _RECORD.pack(_WAL_PAYLOAD_LEN, lcv, crc32c(_LCV.pack(lcv)))


class Wal:
    """The append rule every WAL medium shares; a subclass supplies the
    medium: `_size`, `_write` (durable once it returns), `_cut`,
    `_replace` (atomic) and `data`.

    Fault hooks: `fail_next_append` may be set to "lost" (nothing hits
    the log) or ("torn", n) (only the first n bytes of the record land),
    after which the append raises WalAppendFailure. A later successful
    append first truncates any torn garbage back to the last good offset.
    """

    def __init__(self) -> None:
        self._good_offset = self._size()
        self.fail_next_append: str | tuple[str, int] | None = None

    def append_lcv(self, lcv: int) -> None:
        if self._size() != self._good_offset:
            self._cut(self._good_offset)
        record = _pack_record(lcv)
        failure = self.fail_next_append
        if failure is not None:
            self.fail_next_append = None
            if failure == "lost":
                raise WalAppendFailure("append lost before reaching the log")
            kind, torn_bytes = failure
            if kind != "torn":
                raise ValueError(f"unknown failure mode: {failure!r}")
            self._write(record[: max(0, min(torn_bytes, len(record)))])
            raise WalAppendFailure(f"append torn after {torn_bytes} bytes")
        self._write(record)
        self._good_offset += len(record)

    def rewrite(self, data: bytes) -> None:
        """Replace the whole log with `data` in one atomic step: a crash
        leaves either the old log or the new one, never a mix."""
        self._replace(data)
        self._good_offset = len(data)


class MemoryWal(Wal):
    """In-memory WAL with the bit-exact on-disk record layout. Used by
    the simulator, where durability is modeled rather than real."""

    def __init__(self, data: bytes = b"") -> None:
        self._buf = bytearray(data)
        super().__init__()

    def _size(self) -> int:
        return len(self._buf)

    def _write(self, data: bytes) -> None:
        self._buf += data

    def _cut(self, nbytes: int) -> None:
        del self._buf[nbytes:]

    def _replace(self, data: bytes) -> None:
        self._buf = bytearray(data)

    def data(self) -> bytes:
        return bytes(self._buf)


class FileWal(Wal):
    """File-backed WAL: each write is fsynced before it returns, so a
    record is durable before its value is exposed. A rewrite goes to a
    fsynced temp file that `os.replace` renames over the log."""

    def __init__(self, path: str) -> None:
        self.path = path
        with open(path, "ab"):  # create the log if it is missing
            pass
        super().__init__()

    def _size(self) -> int:
        return os.path.getsize(self.path)

    def _write(self, data: bytes) -> None:
        with open(self.path, "ab") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())

    def _cut(self, nbytes: int) -> None:
        with open(self.path, "r+b") as f:
            f.truncate(nbytes)

    def _replace(self, data: bytes) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self.path)
        directory = os.open(os.path.dirname(os.path.abspath(self.path)), os.O_RDONLY)
        try:
            os.fsync(directory)  # make the rename itself durable
        finally:
            os.close(directory)

    def data(self) -> bytes:
        with open(self.path, "rb") as f:
            return f.read()


def read_wal(data: bytes) -> tuple[list[int], int | None]:
    """Parse a WAL byte stream.

    Returns (the lcvs of the complete records in order, burned lcv or
    None). A torn trailing record yields a burned value: its own lcv
    when at least the lcv field survived, otherwise the lowest value the
    torn append could have been logging (last complete lcv + 1). Damage
    that is not a pure tail truncation raises WalCorruption.
    """
    lcvs: list[int] = []
    last = 0
    offset = 0
    total = len(data)
    while offset < total:
        remaining = total - offset
        if remaining >= 4:
            (length,) = struct.unpack_from(">I", data, offset)
            if length != _WAL_PAYLOAD_LEN:
                raise WalCorruption(f"bad record length {length} at offset {offset}")
        if remaining < WAL_RECORD_BYTES:
            # Torn tail: a prefix of one record. Burn the value it carried.
            if remaining >= 4 + 8:
                (torn_lcv,) = _LCV.unpack_from(data, offset + 4)
                burned = torn_lcv if torn_lcv > last else last + 1
            else:
                burned = last + 1
            return lcvs, burned
        length, lcv, crc = _RECORD.unpack_from(data, offset)
        if crc != crc32c(data[offset + 4 : offset + 12]):
            if offset + WAL_RECORD_BYTES >= total:
                # Checksum-invalid final record: torn write of the crc field.
                burned = lcv if lcv > last else last + 1
                return lcvs, burned
            raise WalCorruption(f"checksum mismatch at offset {offset}")
        if lcv <= last:
            raise WalCorruption(f"non-increasing lcv {lcv} after {last} at offset {offset}")
        lcvs.append(lcv)
        last = lcv
        offset += WAL_RECORD_BYTES
    return lcvs, None


class LogicalClock:
    """Per-node monotonic value source with WAL-before-expose durability.

    `floor` is the highest value exposed or burned, so the next value is
    floor + 1; `ceiling` is the highest value the log covers. Before
    next_id exposes a value above the ceiling c it appends the ceiling
    min(c + `reserve`, 2**64 - 1); values up to a logged ceiling come
    from memory, a whole run of them in one step. The 64-bit lcv range
    is checked once per ceiling, in `extend`, so next_id builds its ids
    without re-checking them.

    Thread-safe: concurrent next_id callers each receive distinct
    values, and each value's ceiling is in the log before it is returned.
    A copy (`copy.deepcopy`, pickle) gets a lock of its own.
    """

    def __init__(self, wal: Wal, floor: int = GENESIS_LCV, reserve: int = LCV_RESERVE) -> None:
        self.wal = wal
        self.floor = floor
        self.ceiling = floor
        self.reserve = reserve
        self._lock = threading.RLock()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    def next_id(self, nid: NodeId, nst: int = 0, count: int = 1,
                into: list[CompositeId] | None = None) -> CompositeId | None:
        """Expose the next `count` clock values as ids, in order, first
        logging a new ceiling each time a value is above the logged one;
        returns the last id (None when count is 0). A run of `count`
        draws leaves the ids, the log and the clock exactly as `count`
        one-id draws would, under one lock and one nst check. With
        `into`, each id is appended to that list as it is drawn; a run
        of more than one id needs it.

        Raises ValueError for an nst outside 64 bits, or a run with no
        `into`, before anything is drawn. A failed ceiling append raises
        WalAppendFailure, or, once 2**64 - 1 is exposed, ValueError from
        `extend`: the ids drawn before it stay exposed (and in `into`),
        and none is exposed after.
        """
        if not 0 <= nst <= MAX_U64:
            raise ValueError(f"nst out of 64-bit range: {nst}")
        if into is None:
            if count > 1:
                raise ValueError("a run of more than one id needs a list to draw into")
            into = []
        with self._lock:
            floor = self.floor
            end = floor + count
            while floor < end:
                if floor >= self.ceiling:
                    self.extend()  # may raise; the drawn prefix stays
                stop = end if end <= self.ceiling else self.ceiling
                # every field is in range: extend bounds the lcv, nst is checked above
                if stop == floor + 1:  # one id: not worth setting up the iterators
                    into.append(tuple.__new__(CompositeId, (nid, stop, nst)))
                else:
                    lcvs = range(floor + 1, stop + 1)
                    into += map(tuple.__new__, repeat(CompositeId), product((nid,), lcvs, (nst,)))
                self.floor = floor = stop
        return into[-1] if count > 0 else None

    def extend(self) -> None:
        """Log the next ceiling, min(c + reserve, 2**64 - 1). next_id
        calls it once the logged range is used up; a crash hook calls it
        to tear that append. Raises ValueError, logging nothing, when the
        ceiling already is 2**64 - 1: every lcv has been reserved."""
        with self._lock:
            if self.ceiling >= MAX_U64:
                raise ValueError("lcv space exhausted: the ceiling is 2**64 - 1")
            ceiling = min(self.ceiling + self.reserve, MAX_U64)
            self.wal.append_lcv(ceiling)  # may raise; ceiling unchanged then
            self.ceiling = ceiling


def recover_clock(wal: Wal, reserve: int = LCV_RESERVE) -> LogicalClock:
    """Rebuild a clock from its WAL after a crash.

    The whole log is scanned: non-tail damage raises WalCorruption, and
    a torn trailing record is discarded and the value it may carry is
    burned. Generation resumes above the higher of the last complete
    ceiling and the burned value, so the unexposed rest of the last
    range (up to reserve - 1 values) is skipped, never reused. Unless
    the log already is that one record, it is rewritten atomically as
    the single ceiling record; a clean one-record or empty log is left
    untouched.
    """
    lcvs, burned = read_wal(wal.data())
    floor = lcvs[-1] if lcvs else GENESIS_LCV
    if burned is not None:
        floor = max(floor, burned)
    if burned is not None or len(lcvs) > 1:
        wal.rewrite(_pack_record(floor))
    return LogicalClock(wal, floor=floor, reserve=reserve)
