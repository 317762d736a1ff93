"""Composite identifiers and crash-safe per-node logical clocks.

A block's identity is assigned at ingestion time from three components:
a 128-bit node id (NID), a per-node monotonically increasing 64-bit
logical clock value (LCV), and a 64-bit namespace tag (NST). Encoded
identifiers are exactly 32 bytes: nid(16) || lcv(8, big-endian) ||
nst(8, big-endian), so byte-lexicographic order within one nid equals
numeric lcv order.

The clock is durable: every value is appended to a write-ahead log
*before* it is exposed to the caller. Recovery reads the log back,
discards a torn trailing record, and burns (never reuses) the value the
torn record may have carried, so no value is ever handed out twice even
across arbitrary crash/restart sequences.

WAL on-disk format (bit-exact): repeated records of
``[len: u32 BE][lcv: u64 BE][crc32c of lcv bytes: u32 BE]`` where len is
the payload length (always 8). Files are named ``wal-<node-id-hex>.log``.
"""

from __future__ import annotations

import os
import struct
import threading
from dataclasses import dataclass
from random import Random

from .crc32c import crc32c

NODE_ID_BYTES = 16
ENCODED_ID_BYTES = 32
GENESIS_LCV = 0  # reserved "never synchronized" checkpoint floor; real LCVs start at 1
MAX_U64 = 2**64 - 1

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


@dataclass(frozen=True, slots=True, order=True)
class NodeId:
    """128-bit opaque token, unique within the cluster."""

    value: bytes

    def __post_init__(self) -> None:
        if len(self.value) != NODE_ID_BYTES:
            raise ValueError(f"NodeId must be {NODE_ID_BYTES} bytes, got {len(self.value)}")

    def hex(self) -> str:
        return self.value.hex()

    def __repr__(self) -> str:  # short form; full hex is rarely useful in logs
        return f"NodeId({self.value.hex()[:8]}..)"


@dataclass(frozen=True, slots=True)
class CompositeId:
    """Ingestion-time block identity: nid/lcv/nst, 32 bytes encoded.

    Ordering is lexicographic on (nid, lcv); the namespace tag scopes
    comparisons but does not participate in ordering.
    """

    nid: NodeId
    lcv: int
    nst: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.lcv <= MAX_U64:
            raise ValueError(f"lcv out of 64-bit range: {self.lcv}")
        if not 0 <= self.nst <= MAX_U64:
            raise ValueError(f"nst out of 64-bit range: {self.nst}")

    @property
    def sort_key(self) -> tuple[bytes, int]:
        return (self.nid.value, self.lcv)

    def __lt__(self, other: "CompositeId") -> bool:
        return self.sort_key < other.sort_key

    def __le__(self, other: "CompositeId") -> bool:
        return self.sort_key <= other.sort_key


def lww_key(cid: CompositeId) -> tuple[int, bytes]:
    """Last-writer-wins order among one user key's versions: the highest
    lcv wins, ties broken by the greater nid. Every replica applies it,
    so a key resolves to the same version wherever it is read."""
    return (cid.lcv, cid.nid.value)


@dataclass(frozen=True, slots=True)
class WalRecord:
    lcv: int
    committed: bool


def new_node_id(entropy: Random) -> NodeId:
    """Draw a 128-bit NodeId from a seeded entropy source.

    Deterministic for a given seed so simulations replay exactly.
    """
    return NodeId(entropy.randbytes(NODE_ID_BYTES))


def encode_id(cid: CompositeId) -> bytes:
    """Encode to the 32-byte wire token: nid || lcv(BE) || nst(BE)."""
    return cid.nid.value + _LCV.pack(cid.lcv) + _LCV.pack(cid.nst)


def decode_id(token: bytes) -> CompositeId:
    """Inverse of encode_id. Raises BadLength for tokens != 32 bytes."""
    if len(token) != ENCODED_ID_BYTES:
        raise BadLength(f"expected {ENCODED_ID_BYTES} bytes, got {len(token)}")
    nid = NodeId(token[:NODE_ID_BYTES])
    (lcv,) = _LCV.unpack_from(token, NODE_ID_BYTES)
    (nst,) = _LCV.unpack_from(token, NODE_ID_BYTES + 8)
    return CompositeId(nid, lcv, nst)


def wal_filename(nid: NodeId) -> str:
    return f"wal-{nid.hex()}.log"


def _pack_record(lcv: int) -> bytes:
    return _RECORD.pack(_WAL_PAYLOAD_LEN, lcv, crc32c(_LCV.pack(lcv)))


class MemoryWal:
    """In-memory WAL with the bit-exact on-disk record layout.

    Used by the simulator, where durability is modeled rather than real.
    Fault hooks: `fail_next_append` may be set to "lost" (nothing hits
    the log) or ("torn", n) (only the first n bytes of the record land),
    after which the append raises WalAppendFailure. A later successful
    append first truncates any torn garbage back to the last good offset.
    """

    def __init__(self, data: bytes = b"") -> None:
        self._buf = bytearray(data)
        self._good_offset = len(data)
        self.fail_next_append: str | tuple[str, int] | None = None

    def append_lcv(self, lcv: int) -> None:
        if len(self._buf) != self._good_offset:
            del self._buf[self._good_offset :]
        record = _pack_record(lcv)
        failure = self.fail_next_append
        if failure is not None:
            self.fail_next_append = None
            if failure == "lost":
                raise WalAppendFailure("append lost before reaching the log")
            kind, torn_bytes = failure
            if kind != "torn":
                raise ValueError(f"unknown failure mode: {failure!r}")
            self._buf += record[: max(0, min(torn_bytes, len(record)))]
            raise WalAppendFailure(f"append torn after {torn_bytes} bytes")
        self._buf += record
        self._good_offset = len(self._buf)

    def data(self) -> bytes:
        return bytes(self._buf)

    def truncate(self, nbytes: int) -> None:
        """Crash hook: keep only the first nbytes of the log."""
        del self._buf[nbytes:]
        self._good_offset = min(self._good_offset, nbytes)

    def reset_good_offset(self) -> None:
        self._good_offset = len(self._buf)


class FileWal:
    """File-backed WAL, same record layout and failure semantics."""

    def __init__(self, path: str) -> None:
        self.path = path
        if not os.path.exists(path):
            with open(path, "wb"):
                pass
        self._good_offset = os.path.getsize(path)
        self.fail_next_append: str | tuple[str, int] | None = None

    def append_lcv(self, lcv: int) -> None:
        if os.path.getsize(self.path) != self._good_offset:
            with open(self.path, "r+b") as f:
                f.truncate(self._good_offset)
        record = _pack_record(lcv)
        failure = self.fail_next_append
        if failure is not None:
            self.fail_next_append = None
            if failure == "lost":
                raise WalAppendFailure("append lost before reaching the log")
            kind, torn_bytes = failure
            if kind != "torn":
                raise ValueError(f"unknown failure mode: {failure!r}")
            with open(self.path, "ab") as f:
                f.write(record[: max(0, min(torn_bytes, len(record)))])
            raise WalAppendFailure(f"append torn after {torn_bytes} bytes")
        with open(self.path, "ab") as f:
            f.write(record)
            f.flush()
            os.fsync(f.fileno())
        self._good_offset += len(record)

    def data(self) -> bytes:
        with open(self.path, "rb") as f:
            return f.read()

    def truncate(self, nbytes: int) -> None:
        with open(self.path, "r+b") as f:
            f.truncate(nbytes)
        self._good_offset = min(self._good_offset, nbytes)

    def reset_good_offset(self) -> None:
        self._good_offset = os.path.getsize(self.path)


def read_wal(data: bytes) -> tuple[list[WalRecord], int | None]:
    """Parse a WAL byte stream.

    Returns (complete records in order, burned lcv or None). A torn
    trailing record yields a burned value: its own lcv when at least the
    lcv field survived, otherwise the only value the append discipline
    could have been writing (last committed + 1). Damage that is not a
    pure tail truncation raises WalCorruption.
    """
    records: list[WalRecord] = []
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
            return records, burned
        length, lcv, crc = _RECORD.unpack_from(data, offset)
        if crc != crc32c(data[offset + 4 : offset + 12]):
            if offset + WAL_RECORD_BYTES >= total:
                # Checksum-invalid final record: torn write of the crc field.
                burned = lcv if lcv > last else last + 1
                return records, burned
            raise WalCorruption(f"checksum mismatch at offset {offset}")
        if lcv <= last:
            raise WalCorruption(f"non-increasing lcv {lcv} after {last} at offset {offset}")
        records.append(WalRecord(lcv, committed=True))
        last = lcv
        offset += WAL_RECORD_BYTES
    return records, None


class LogicalClock:
    """Per-node monotonic value source with WAL-before-expose durability.

    Thread-safe: concurrent next_id callers each receive a distinct
    value and the WAL append happens before any value is returned.
    """

    def __init__(self, wal, last_committed: int = 0, floor: int | None = None) -> None:
        self.wal = wal
        self.last_committed = last_committed
        self.last_exposed = last_committed
        self._floor = last_committed if floor is None else floor
        self._lock = threading.Lock()

    def next_id(self, nid: NodeId, nst: int = 0) -> CompositeId:
        """Reserve, durably log, then expose the next clock value.

        Raises WalAppendFailure (clock unchanged, id not exposed) when
        the log append does not complete.
        """
        with self._lock:
            candidate = self._floor + 1
            self.wal.append_lcv(candidate)  # may raise; nothing exposed then
            self._floor = candidate
            self.last_committed = candidate
            self.last_exposed = candidate
            return CompositeId(nid, candidate, nst)


def recover_clock(wal) -> LogicalClock:
    """Rebuild a clock from its WAL after a crash.

    last_committed is the highest complete record's lcv. A torn trailing
    record is discarded from the log and its value is skipped forever,
    so generation resumes strictly above anything that may have been
    written. Non-tail damage raises WalCorruption.
    """
    data = wal.data()
    records, burned = read_wal(data)
    last = records[-1].lcv if records else GENESIS_LCV
    if burned is not None:
        wal.truncate(len(records) * WAL_RECORD_BYTES)
        floor = max(last, burned)
    else:
        floor = last
    wal.reset_good_offset()
    return LogicalClock(wal, last_committed=last, floor=floor)
